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
//! The counter-derived instruments are bumped by the engine's one
//! booking path (`SubstEngine::book`): every `SubstStats` delta it folds
//! into the session's stats goes through [`EngineMetrics::add`] too, so
//! the registry and the stats block cannot disagree. A pair's booking
//! also samples its wall time into `engine.pair_ns`. Progress gauges
//! (targets, nodes) and the sweep utilization counters are bumped where
//! the sweep does that work. Each bump is one relaxed atomic op.

use boolsubst_metrics::{Counter, Gauge, Histogram, MetricsHandle};

use crate::subst::SubstStats;

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

/// The engine's resolved instrument bundle; see the module docs.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    pairs: Counter,
    accepts: Counter,
    literal_gain: Gauge,
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
    stage_enumerate_ns: Counter,
    stage_filter_ns: Counter,
    stage_sim_ns: Counter,
    stage_divide_ns: Counter,
    stage_apply_ns: Counter,
    rar_checks: Counter,
    discovery_proposed: Counter,
    discovery_proofs_run: Counter,
    discovery_accepted: Counter,
    sim_screened: Counter,
    sim_refuted: Counter,
    sim_false_passes: Counter,
    sim_audits: Counter,
    local_bound_skips: Counter,
    quarantined: Gauge,
    engine_faults: Gauge,
    shadow_cache_hits: Counter,
    shadow_cache_misses: Counter,
}

impl EngineMetrics {
    /// Resolves every engine instrument (including `workers` slots for
    /// worker indices `0..threads`) against `handle`.
    pub(crate) fn resolve(handle: &MetricsHandle, threads: usize) -> EngineMetrics {
        let workers = (0..threads)
            .map(|w| WorkerMetrics {
                proof_ns: handle.counter(&format!("sweep.worker.{w}.proof_ns")),
                wait_ns: handle.counter(&format!("sweep.worker.{w}.wait_ns")),
                idle_ns: handle.counter(&format!("sweep.worker.{w}.idle_ns")),
                pairs: handle.counter(&format!("sweep.worker.{w}.pairs")),
            })
            .collect();
        EngineMetrics {
            pairs: handle.counter("engine.pairs"),
            accepts: handle.counter("engine.accepts"),
            literal_gain: handle.gauge("engine.literal_gain"),
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
            stage_enumerate_ns: handle.counter("engine.stage.enumerate_ns"),
            stage_filter_ns: handle.counter("engine.stage.filter_ns"),
            stage_sim_ns: handle.counter("engine.stage.sim_ns"),
            stage_divide_ns: handle.counter("engine.stage.divide_ns"),
            stage_apply_ns: handle.counter("engine.stage.apply_ns"),
            rar_checks: handle.counter("engine.rar_checks"),
            discovery_proposed: handle.counter("discovery.proposed"),
            discovery_proofs_run: handle.counter("discovery.proofs_run"),
            discovery_accepted: handle.counter("discovery.accepted"),
            sim_screened: handle.counter("sim.pairs_screened"),
            sim_refuted: handle.counter("sim.pairs_refuted"),
            sim_false_passes: handle.counter("sim.false_passes"),
            sim_audits: handle.counter("sim.audits"),
            local_bound_skips: handle.counter("engine.local_bound_skips"),
            quarantined: handle.gauge("engine.quarantined"),
            engine_faults: handle.gauge("engine.faults"),
            shadow_cache_hits: handle.counter("engine.shadow_cache_hits"),
            shadow_cache_misses: handle.counter("engine.shadow_cache_misses"),
        }
    }

    /// Adds one booked `SubstStats` delta to every counter-derived
    /// instrument.
    pub(crate) fn add(&self, d: &SubstStats) {
        let n = |v: usize| u64::try_from(v).unwrap_or(u64::MAX);
        let g = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
        self.pairs.add(n(d.candidates_enumerated));
        self.accepts.add(n(d.substitutions));
        self.literal_gain.add(d.literal_gain);
        self.stage_enumerate_ns.add(d.enumerate_nanos);
        self.stage_filter_ns.add(d.filter_nanos);
        self.stage_sim_ns.add(d.sim_nanos);
        self.stage_divide_ns.add(d.divide_nanos);
        self.stage_apply_ns.add(d.apply_nanos);
        self.rar_checks.add(n(d.rar_checks));
        self.discovery_proposed.add(n(d.discovery_proposed));
        self.discovery_proofs_run.add(n(d.discovery_proofs_run));
        self.discovery_accepted.add(n(d.discovery_accepted));
        self.sim_screened.add(n(d.sim_pairs_screened));
        self.sim_refuted.add(n(d.sim_pairs_refuted));
        self.sim_false_passes.add(n(d.sim_false_passes));
        self.sim_audits.add(n(d.sim_audits));
        self.local_bound_skips.add(n(d.local_bound_skips));
        self.shadow_cache_hits.add(n(d.shadow_cache_hits));
        self.shadow_cache_misses.add(n(d.shadow_cache_misses));
        self.quarantined.add(g(d.quarantined));
        self.engine_faults.add(g(d.engine_faults));
    }
}
