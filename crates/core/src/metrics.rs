//! Resolved metric instruments for the engine and the speculative
//! sweep.
//!
//! [`EngineMetrics`] is the engine-side counterpart of the guard's and
//! sim filter's attachments: every instrument is resolved once when a
//! [`MetricsHandle`] is attached (see `SubstEngine::attach_metrics`),
//! so the sweep hot path only ever touches atomics. Per-worker
//! instruments are resolved eagerly for every configured worker — the
//! `sweep.worker.<i>.*` keys exist (at zero) even for workers that
//! never get to run, keeping the exposition schema stable across runs.
//!
//! Every [`SubstStats`] field has one instrument, named
//! `engine.<field>` and resolved from [`SubstStats::fields`]: counts and
//! times are counters, and `literal_gain` is a gauge. They are bumped
//! by the engine's one booking path (`SubstEngine::book`): every
//! `SubstStats` delta it folds into the session's stats goes through
//! [`EngineMetrics::add`] too, so the registry and the stats block
//! cannot disagree. A pair's booking also samples its wall time into
//! `engine.pair_ns`. Progress gauges (targets, nodes) and the sweep
//! utilization counters are kept by hand and bumped where the sweep does
//! that work. Each bump is one relaxed atomic op.

use boolsubst_metrics::{Counter, Gauge, Histogram, MetricsHandle};

use crate::subst::{StatValue, SubstStats};

/// Utilization instruments for one speculative-sweep worker.
#[derive(Debug, Clone)]
pub(crate) struct WorkerMetrics {
    /// Time spent inside `speculate_pair` proofs.
    pub(crate) proof_ns: Counter,
    /// Time spent blocked on the shared result-list lock.
    pub(crate) wait_ns: Counter,
    /// Drain wall time not attributable to proofs or lock waits
    /// (cursor traffic, scheduling, spin-down after the bound drops).
    pub(crate) idle_ns: Counter,
    /// Pairs this worker speculatively evaluated.
    pub(crate) pairs: Counter,
}

/// The instrument of one [`SubstStats`] field.
#[derive(Debug)]
enum FieldInstrument {
    Counter(Counter),
    Gauge(Gauge),
}

/// The engine's resolved instrument bundle; see the module docs.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    /// One instrument per [`SubstStats`] field, in field order.
    fields: Vec<FieldInstrument>,
    pub(crate) pair_ns: Histogram,
    pub(crate) targets_total: Gauge,
    pub(crate) targets_done: Gauge,
    pub(crate) nodes: Gauge,
    pub(crate) peak_nodes: Gauge,
    pub(crate) sweep_epochs: Counter,
    pub(crate) sweep_commit_ns: Counter,
    pub(crate) sweep_proof_ns: Counter,
    pub(crate) sweep_wait_ns: Counter,
    pub(crate) sweep_idle_ns: Counter,
    pub(crate) workers: Vec<WorkerMetrics>,
}

impl EngineMetrics {
    /// Resolves every engine instrument (including `workers` slots for
    /// worker indices `0..threads`) against `handle`.
    pub(crate) fn resolve(handle: &MetricsHandle, threads: usize) -> EngineMetrics {
        let fields = SubstStats::default()
            .fields()
            .map(|(name, value)| {
                let key = format!("engine.{name}");
                match value {
                    StatValue::Count(_) => FieldInstrument::Counter(handle.counter(&key)),
                    StatValue::Signed(_) => FieldInstrument::Gauge(handle.gauge(&key)),
                }
            })
            .collect();
        let workers = (0..threads)
            .map(|w| WorkerMetrics {
                proof_ns: handle.counter(&format!("sweep.worker.{w}.proof_ns")),
                wait_ns: handle.counter(&format!("sweep.worker.{w}.wait_ns")),
                idle_ns: handle.counter(&format!("sweep.worker.{w}.idle_ns")),
                pairs: handle.counter(&format!("sweep.worker.{w}.pairs")),
            })
            .collect();
        EngineMetrics {
            fields,
            pair_ns: handle.histogram("engine.pair_ns"),
            targets_total: handle.gauge("engine.targets_total"),
            targets_done: handle.gauge("engine.targets_done"),
            nodes: handle.gauge("engine.nodes"),
            peak_nodes: handle.gauge("engine.peak_nodes"),
            sweep_epochs: handle.counter("sweep.epochs"),
            sweep_commit_ns: handle.counter("sweep.commit_ns"),
            sweep_proof_ns: handle.counter("sweep.proof_ns"),
            sweep_wait_ns: handle.counter("sweep.wait_ns"),
            sweep_idle_ns: handle.counter("sweep.idle_ns"),
            workers,
        }
    }

    /// Adds one booked `SubstStats` delta to the field instruments,
    /// skipping its zero fields.
    pub(crate) fn add(&self, d: &SubstStats) {
        for ((_, value), instrument) in d.fields().zip(&self.fields) {
            match (value, instrument) {
                (StatValue::Count(0) | StatValue::Signed(0), _) => {}
                (StatValue::Count(n), FieldInstrument::Counter(c)) => c.add(n),
                (StatValue::Signed(n), FieldInstrument::Gauge(g)) => g.add(n),
                _ => unreachable!("`resolve` picks each instrument from its field's kind"),
            }
        }
    }
}
