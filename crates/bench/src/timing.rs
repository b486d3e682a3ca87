//! Minimal self-calibrating timing harness for the `harness = false`
//! bench targets, so `cargo bench` works with no registry access. Each
//! measurement warms the closure up, picks an iteration count that fills
//! roughly [`Harness::TARGET_BATCH`], runs a few batches, and reports the
//! best per-iteration time (least noisy on a shared machine).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entry point of one bench binary: parses CLI args (a bare argument is a
/// substring filter on `group/id`; `--test` runs each closure once, as a
/// smoke test, instead of timing it; other flags such as `--bench` that
/// cargo passes through are ignored).
#[derive(Debug, Clone, Default)]
pub struct Harness {
    filter: Option<String>,
    smoke: bool,
}

impl Harness {
    /// Per-batch time budget the calibration aims for.
    pub const TARGET_BATCH: Duration = Duration::from_millis(60);

    /// Number of measured batches per benchmark.
    pub const BATCHES: usize = 3;

    /// Builds a harness from the process arguments.
    #[must_use]
    pub fn from_args() -> Harness {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let filter = args
            .iter()
            .find(|a| !a.starts_with('-') && !a.is_empty())
            .cloned();
        let smoke = args.iter().any(|a| a == "--test");
        Harness { filter, smoke }
    }

    /// Starts a named benchmark group.
    #[must_use]
    pub fn group(&self, name: &str) -> Group {
        println!("\n{name}");
        Group {
            name: name.to_string(),
            filter: self.filter.clone(),
            smoke: self.smoke,
        }
    }
}

/// A group of related measurements, printed under one heading.
#[derive(Debug)]
pub struct Group {
    name: String,
    filter: Option<String>,
    smoke: bool,
}

impl Group {
    /// Measures `f`, reporting the best per-iteration time over
    /// [`Harness::BATCHES`] batches; in smoke mode runs it once.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) {
        let full = format!("{}/{id}", self.name);
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        if self.smoke {
            black_box(f());
            println!("  {full:<44} ok");
            return;
        }
        // Warm-up and calibration: time a single run, derive the batch size.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (Harness::TARGET_BATCH.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as usize;
        let mut best = Duration::MAX;
        for _ in 0..Harness::BATCHES {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let per_iter = start.elapsed() / iters as u32;
            best = best.min(per_iter);
        }
        println!(
            "  {full:<44} {:>12} /iter  ({iters} iters/batch)",
            fmt_duration(best)
        );
    }
}

/// Human-readable duration with ns/µs/ms/s scaling.
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.00 s");
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut group = Group {
            name: "g".into(),
            filter: Some("nomatch".into()),
            smoke: false,
        };
        let mut ran = false;
        group.bench("x", || ran = true);
        assert!(!ran, "filtered bench must not run");
    }

    #[test]
    fn smoke_runs_once() {
        let mut group = Group {
            name: "g".into(),
            filter: None,
            smoke: true,
        };
        let mut runs = 0;
        group.bench("x", || runs += 1);
        assert_eq!(runs, 1, "a smoke run calls the closure once");
    }
}
