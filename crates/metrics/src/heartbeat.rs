//! Live stderr heartbeat for long sweeps.
//!
//! [`Heartbeat::start`] spawns a ticker thread that periodically
//! formats a one-line progress summary from well-known engine metric
//! keys — pairs/s since the last tick, accept rate, guard tier mix,
//! target progress, and an ETA extrapolated from targets done — and
//! writes it to stderr. The line is produced by the pure
//! [`format_tick`], so the format is testable without threads or
//! timing.
//!
//! Missing keys render as zeros: the ticker works (dully) even when
//! pointed at an empty registry, and needs no coordination with the
//! engine beyond the shared handle.
//!
//! Dropping a `Heartbeat` always flushes one last `[final]`-tagged
//! line before the ticker joins — including when the drop happens
//! during a panic unwind — so the last progress a quarantined job
//! made is never lost to the tick period.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::registry::MetricsHandle;

/// Where heartbeat lines go. Boxed so tests (and services that want to
/// journal heartbeats) can capture them instead of writing stderr.
type Sink = Box<dyn FnMut(&str) + Send>;

/// Rate bookkeeping carried between ticks.
#[derive(Debug, Default)]
pub struct TickState {
    last_pairs: u64,
    last_elapsed: f64,
}

/// Formats one heartbeat line (no trailing newline) from the engine's
/// well-known metric keys; see the module docs. `elapsed_secs` is the
/// wall time since the run started.
#[must_use]
pub fn format_tick(handle: &MetricsHandle, state: &mut TickState, elapsed_secs: f64) -> String {
    let c = |k: &str| handle.counter_value(k).unwrap_or(0);
    let g = |k: &str| handle.gauge_value(k).unwrap_or(0);
    let pairs = c("engine.candidates_enumerated");
    let accepts = c("engine.substitutions");
    let dt = (elapsed_secs - state.last_elapsed).max(1e-9);
    let rate = (pairs.saturating_sub(state.last_pairs)) as f64 / dt;
    state.last_pairs = pairs;
    state.last_elapsed = elapsed_secs;
    let accept_pct = if pairs > 0 {
        accepts as f64 * 100.0 / pairs as f64
    } else {
        0.0
    };
    let (done, total) = (g("engine.targets_done"), g("engine.targets_total"));
    let eta = if done > 0 && total > done {
        let secs = elapsed_secs * (total - done) as f64 / done as f64;
        format!(" eta {secs:.0}s")
    } else {
        String::new()
    };
    format!(
        "[metrics {elapsed_secs:.1}s] pairs {pairs} ({rate:.1}/s) accept {accept_pct:.2}% \
         gain {} guard sim:{} bdd:{} sat:{} sampled:{} targets {done}/{total}{eta}",
        g("engine.literal_gain"),
        c("guard.tier.sim"),
        c("guard.tier.bdd"),
        c("guard.tier.sat"),
        c("guard.tier.sampled"),
    )
}

/// A background ticker; stops, flushes a final line, and joins on drop.
#[derive(Debug)]
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Heartbeat {
    /// Starts a stderr ticker over `handle` emitting every `period`.
    /// Periods below 100 ms are clamped up to keep stderr readable.
    #[must_use]
    pub fn start(handle: MetricsHandle, period: Duration) -> Heartbeat {
        Heartbeat::start_with_sink(handle, period, Box::new(|line| eprintln!("{line}")))
    }

    /// Like [`Heartbeat::start`] with an explicit sink for the emitted
    /// lines (periodic ticks and the final drop-time flush alike).
    #[must_use]
    pub fn start_with_sink(handle: MetricsHandle, period: Duration, mut sink: Sink) -> Heartbeat {
        let period = period.max(Duration::from_millis(100));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut state = TickState::default();
            let mut next = period;
            while !stop2.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(50).min(period));
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                if t0.elapsed() >= next {
                    next += period;
                    sink(&format_tick(
                        &handle,
                        &mut state,
                        t0.elapsed().as_secs_f64(),
                    ));
                }
            }
            // The owner is dropping us (possibly mid-unwind after a
            // panic): flush one last summary so the run's final counter
            // values are on record even if no tick period ever elapsed.
            let line = format_tick(&handle, &mut state, t0.elapsed().as_secs_f64());
            sink(&format!("{line} [final]"));
        });
        Heartbeat {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn capture() -> (Arc<Mutex<Vec<String>>>, Sink) {
        let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let sink: Sink = Box::new(move |line: &str| {
            sink_lines.lock().expect("sink lock").push(line.to_string());
        });
        (lines, sink)
    }

    #[test]
    fn tick_formats_rates_and_eta() {
        let m = MetricsHandle::new();
        m.counter("engine.candidates_enumerated").add(100);
        m.counter("engine.substitutions").add(4);
        m.gauge("engine.literal_gain").set(9);
        m.counter("guard.tier.sim").add(90);
        m.counter("guard.tier.bdd").add(10);
        m.gauge("engine.targets_total").set(40);
        m.gauge("engine.targets_done").set(10);
        let mut state = TickState::default();
        let line = format_tick(&m, &mut state, 2.0);
        assert!(line.contains("pairs 100 (50.0/s)"), "{line}");
        assert!(line.contains("accept 4.00%"), "{line}");
        assert!(line.contains("gain 9"), "{line}");
        assert!(line.contains("sim:90 bdd:10 sat:0"), "{line}");
        assert!(line.contains("targets 10/40"), "{line}");
        assert!(line.contains("eta 6s"), "{line}");
        // Second tick: rate over the delta only.
        m.counter("engine.candidates_enumerated").add(50);
        let line = format_tick(&m, &mut state, 3.0);
        assert!(line.contains("pairs 150 (50.0/s)"), "{line}");
    }

    #[test]
    fn empty_registry_ticks_zeros() {
        let m = MetricsHandle::new();
        let line = format_tick(&m, &mut TickState::default(), 1.0);
        assert!(line.contains("pairs 0 (0.0/s)"), "{line}");
        assert!(!line.contains("eta"), "{line}");
    }

    #[test]
    fn heartbeat_stops_on_drop() {
        let hb = Heartbeat::start(MetricsHandle::new(), Duration::from_secs(60));
        drop(hb); // must not hang waiting out the period
    }

    #[test]
    fn drop_flushes_a_final_line_before_any_tick() {
        let m = MetricsHandle::new();
        m.counter("engine.candidates_enumerated").add(7);
        let (lines, sink) = capture();
        let hb = Heartbeat::start_with_sink(m, Duration::from_secs(60), sink);
        drop(hb);
        let lines = lines.lock().expect("lines");
        assert_eq!(lines.len(), 1, "exactly the final flush: {lines:?}");
        assert!(lines[0].ends_with("[final]"), "{}", lines[0]);
        assert!(lines[0].contains("pairs 7"), "{}", lines[0]);
    }

    #[test]
    fn final_line_survives_a_panic_unwind() {
        let m = MetricsHandle::new();
        m.counter("engine.candidates_enumerated").add(3);
        let (lines, sink) = capture();
        let hb = Heartbeat::start_with_sink(m, Duration::from_secs(60), sink);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _hold = hb;
            panic!("job quarantined");
        }));
        assert!(result.is_err());
        let lines = lines.lock().expect("lines");
        assert_eq!(
            lines.len(),
            1,
            "unwind drop must still flush the final line: {lines:?}"
        );
        assert!(lines[0].contains("pairs 3 "), "{}", lines[0]);
        assert!(lines[0].ends_with("[final]"), "{}", lines[0]);
    }
}
