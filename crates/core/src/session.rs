//! The unified substitution entry point: one builder for every way of
//! running the sweep.
//!
//! Every run is "construct the engine, maybe attach things, run one
//! pass"; [`Session`] spells that as a single builder, and
//! [`Session::run`] consumes it, so a second pass is a second session:
//!
//! ```
//! use boolsubst_core::{Session, SubstOptions};
//! # use boolsubst_network::Network;
//! # use boolsubst_cube::parse_sop;
//! # let mut net = Network::new("t");
//! # let a = net.add_input("a").unwrap();
//! # let b = net.add_input("b").unwrap();
//! # let f = net.add_node("f", vec![a, b], parse_sop(2, "ab").unwrap()).unwrap();
//! # net.add_output("f", f).unwrap();
//! let stats = Session::new(&mut net, SubstOptions::extended().with_threads(4)).run();
//! ```

use crate::engine::SubstEngine;
use crate::subst::{SubstOptions, SubstStats};
use boolsubst_metrics::MetricsHandle;
use boolsubst_network::Network;
use boolsubst_trace::Tracer;

/// A configured substitution run over one network: options (the thread
/// count among them), an optional trace recorder and an optional metrics
/// registry, executed by [`Session::run`]. Each run builds its own
/// checked-mode guard, with the run's deadline; no guard state carries
/// over from one run to the next.
///
/// The builder borrows the network mutably for its whole life, so a
/// `Session` cannot outlive or alias the network it rewrites. Attaching a
/// tracer or a metrics handle never changes the accepted rewrites, and
/// neither does the thread count.
pub struct Session<'n, 't> {
    net: &'n mut Network,
    opts: SubstOptions,
    tracer: Option<&'t mut Tracer>,
    metrics: Option<MetricsHandle>,
}

impl<'n, 't> Session<'n, 't> {
    /// Starts configuring a run of `opts` over `net`.
    pub fn new(net: &'n mut Network, opts: SubstOptions) -> Session<'n, 't> {
        Session {
            net,
            opts,
            tracer: None,
            metrics: None,
        }
    }

    /// Attaches a structured trace recorder: every evaluated pair, shadow
    /// build, and guard check is recorded on `tracer`, labelled with the
    /// network's node names.
    #[must_use]
    pub fn tracer(mut self, tracer: &'t mut Tracer) -> Session<'n, 't> {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a metrics registry: pair/accept/gain counters, per-stage
    /// and per-guard-tier latency, the sim funnel, and per-worker sweep
    /// utilization are all resolved against `handle` and updated live
    /// during the run. Readers (heartbeat tickers, exposition sinks) can
    /// clone the handle and read concurrently.
    #[must_use]
    pub fn metrics(mut self, handle: &MetricsHandle) -> Session<'n, 't> {
        self.metrics = Some(handle.clone());
        self
    }

    /// Runs one sweep over every target and returns its statistics. A
    /// caller that wants another pass runs a new session on the rewritten
    /// network. The network is left valid and functionally equivalent
    /// after every possible outcome (acceptance, rejection, deadline
    /// interrupt, checked-mode rollback).
    pub fn run(self) -> SubstStats {
        let mut engine = match self.tracer {
            Some(tracer) => SubstEngine::with_tracer(self.net, self.opts, tracer),
            None => SubstEngine::new(self.net, self.opts),
        };
        if let Some(handle) = &self.metrics {
            engine.attach_metrics(handle);
        }
        engine.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subst::{StatValue, SubstOptions};
    use boolsubst_cube::parse_sop;
    use boolsubst_network::write_blif;
    use boolsubst_trace::Tracer;

    fn small_net() -> Network {
        let mut net = Network::new("session_t");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let f = net
            .add_node(
                "f",
                vec![a, b, c],
                parse_sop(3, "ab + ac + bc'").expect("p"),
            )
            .expect("f");
        let d = net
            .add_node("d", vec![a, b, c], parse_sop(3, "ab + c").expect("p"))
            .expect("d");
        net.add_output("f", f).expect("o");
        net.add_output("d", d).expect("o");
        net
    }

    #[test]
    fn session_matches_bare_engine() {
        let mut a = small_net();
        let sa = Session::new(&mut a, SubstOptions::extended()).run();
        let mut b = small_net();
        let sb = SubstEngine::new(&mut b, SubstOptions::extended()).run();
        assert_eq!(write_blif(&a), write_blif(&b));
        assert_eq!(sa.substitutions, sb.substitutions);
        assert_eq!(sa.literal_gain, sb.literal_gain);
    }

    #[test]
    fn metrics_attachment_is_invisible() {
        for opts in crate::subst::all_configs() {
            for threads in [1usize, 4] {
                let mut plain = small_net();
                let sp = Session::new(&mut plain, opts.clone().with_threads(threads)).run();
                let handle = MetricsHandle::new();
                let mut metered = small_net();
                let sm = Session::new(&mut metered, opts.clone().with_threads(threads))
                    .metrics(&handle)
                    .run();
                assert_eq!(
                    write_blif(&plain),
                    write_blif(&metered),
                    "{:?} threads={threads}: metrics changed the rewrites",
                    opts.mode
                );
                assert_eq!(sp.substitutions, sm.substitutions, "{:?}", opts.mode);
                assert_eq!(sp.literal_gain, sm.literal_gain, "{:?}", opts.mode);
                assert!(sm.candidates_enumerated > 0, "the run saw no pairs");
                assert_registry_matches(
                    &handle,
                    &sm,
                    &format!("{:?} threads={threads}", opts.mode),
                );
                assert_eq!(
                    handle.histogram("engine.pair_ns").count(),
                    u64::try_from(sm.candidates_enumerated).unwrap(),
                    "{:?} threads={threads}: engine.pair_ns samples",
                    opts.mode
                );
            }
        }
    }

    /// The registry is a view of the same booking as the stats block:
    /// every field reads the same under `engine.<field>`.
    fn assert_registry_matches(handle: &MetricsHandle, stats: &SubstStats, run: &str) {
        let mut fields = 0;
        for (name, value) in stats.fields() {
            let key = format!("engine.{name}");
            let read = match value {
                StatValue::Count(_) => handle.counter_value(&key).map(StatValue::Count),
                StatValue::Signed(_) => handle.gauge_value(&key).map(StatValue::Signed),
            };
            assert_eq!(read, Some(value), "{run}: {key}");
            fields += 1;
        }
        assert_eq!(fields, 36, "{run}: every SubstStats field is checked");
    }

    #[test]
    fn interrupted_run_is_counted_once() {
        let handle = MetricsHandle::new();
        for threads in [1usize, 4] {
            let mut net = small_net();
            let opts = SubstOptions::extended()
                .with_threads(threads)
                .with_deadline(std::time::Instant::now());
            let stats = Session::new(&mut net, opts).metrics(&handle).run();
            assert!(stats.interrupted);
        }
        assert_eq!(handle.counter_value("engine.interrupted"), Some(2));
    }

    #[test]
    fn session_tracer_is_invisible_to_the_result() {
        let mut a = small_net();
        let sa = Session::new(&mut a, SubstOptions::extended()).run();
        let mut b = small_net();
        let mut tracer = Tracer::new("ext");
        let sb = Session::new(&mut b, SubstOptions::extended())
            .tracer(&mut tracer)
            .run();
        assert_eq!(write_blif(&a), write_blif(&b));
        assert_eq!(sa.substitutions, sb.substitutions);
        assert!(tracer.pairs() > 0, "tracer saw no pairs");
    }
}
