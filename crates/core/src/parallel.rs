//! Read-only pair evaluation in epochs: the one target visit, under both
//! acceptance policies and at every thread count. Proofs fan out, commits
//! stay serial, and the results are the same at every width.
//!
//! # Protocol
//!
//! Between two accepted rewrites the sweep never mutates the network —
//! every rejected pair is read-only. That window is an **epoch**: the
//! committer (the engine thread) enumerates one candidate slice, then one
//! drain evaluates the pairs against the shared, frozen `&Network` using
//! the read-only halves of the machinery:
//!
//! * the engine's cheap filter chain, whose cycle filter
//!   ([`SideTables::in_tfo`]) is a level-bounded read of the shared
//!   tables,
//! * the shared `&SimFilter` for the checked-mode signature audit and the
//!   refute-only screen every pair passes before its proofs (its pattern
//!   pool is fixed, so both are pure reads),
//! * the committer's [`TargetForms`] for the target (old literal count
//!   and complement; each is computed once, by whichever worker needs it
//!   first, and equals the per-call value),
//! * in GDC mode the committer's [`ShadowEntry`], whose snapshot the first
//!   pair that reaches a division proof builds,
//! * [`plan_pair_core`] for the proof pipeline, producing a [`SubstPlan`]
//!   instead of mutating.
//!
//! The drain runs on the committer alone when there is one worker or the
//! epoch is smaller than [`PAR_MIN_PAIRS`]; otherwise a scoped pool joins
//! it. Workers pull indices from an atomic cursor. Under first-gain they
//! publish a monotone "lowest stopping index" bound; indices above the
//! bound are skipped (the sweep would never reach them in this
//! enumeration). Every index at or below the final bound is guaranteed
//! evaluated.
//!
//! # Commit
//!
//! Each epoch picks its winner: under [`Acceptance::FirstGain`] its
//! lowest stopping pair (an accepting pair, or a failed audit), under
//! [`Acceptance::BestGain`] the lowest-index pair of the highest gain. The
//! committer settles every other evaluated pair in pair order, each
//! through `SubstEngine::book` with its own stat delta and one record; a
//! best-gain pair that gained but lost drops its plan and is booked as
//! [`Outcome::RejectedOutranked`]. The winner is settled last. An
//! accepting winner's stored plan goes to `SubstEngine::commit`, which
//! applies it once — the division is not proved again — under checked
//! mode's txn snapshot, panic isolation and guard, and patches the side
//! tables and the signature table. The winner's record is built after the
//! commit, from its evaluation delta plus the commit's.
//!
//! Under first-gain a kept commit re-enumerates the target's candidates
//! past the accepted divisor; a faulting or guard-refuted one is rolled
//! back and counted as quarantined, and the sweep resumes at the next
//! pair of the same enumeration. A run therefore settles each (target,
//! divisor) pair at most once, so no pair has to be remembered as given
//! up. Under best-gain one epoch evaluates every candidate with no early
//! exit, and the visit ends with its commit. Under both policies the
//! deadline is checked before each epoch, and an evaluated epoch is
//! settled in full. No evaluation clones the network.
//!
//! # Determinism contract
//!
//! Under first-gain the winner is the *lowest-index* accepting pair of
//! each epoch, so the commit sequence — and therefore the final network —
//! is the paper's greedy sweep for any thread count
//! (`tests/parallel_parity.rs`, `tests/engine_parity.rs`). This is why
//! first-gain needs ordered commit: accepting any other index first would
//! rewrite the target before pairs the greedy sweep evaluates earlier.
//! Every booked pair comes from a read-only evaluation of the same state
//! whatever the width, so every non-timing [`SubstStats`] counter —
//! screen and RAR counters included — is the same at every thread count.
//! Best-gain evaluates every candidate against the same frozen state
//! whatever the width, so its commits and counters are width-independent
//! too.
//!
//! Proof panics are always caught, at every width: the pair is booked as
//! an engine fault and as quarantined, and the committer keeps going — a
//! dying worker cannot poison the shared state because evaluation never
//! mutates it. A failed signature audit is booked the same way, and the
//! committer rebuilds the signature table when it settles the pair, so
//! before the next epoch or commit. Under first-gain the epoch stops at
//! the first such pair, as it stops at a winner, so the pairs after it
//! are evaluated against the repaired table.

use crate::engine::{cheap_filters, id32, nanos, ShadowEntry, SubstEngine};
use crate::subst::{
    core_outcome, plan_pair_core, Acceptance, GdcScope, SubstMode, SubstOptions, SubstPlan,
    SubstStats, TargetForms,
};
use boolsubst_network::{Network, NodeId, SideTables};
use boolsubst_sim::SimFilter;
use boolsubst_trace::{Outcome, PairRecord, StageNanos};
use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Epochs smaller than this are drained by the committer alone: a thread
/// spawn costs more than a couple of pair proofs.
const PAR_MIN_PAIRS: usize = 16;

/// One evaluated pair: the stat delta its evaluation booked, its outcome
/// and, when it gained, the plan a commit applies. An `EngineFault`
/// outcome means the evaluation panicked or, with `audit_failed`, that
/// the checked-mode signature audit found a rotted row.
struct PairEval {
    delta: SubstStats,
    outcome: Outcome,
    plan: Option<SubstPlan>,
    audit_failed: bool,
    /// When the evaluation started.
    start: Instant,
    /// Wall time of the pair's work, measured only when traced or
    /// metered.
    dur_ns: u64,
    /// The drain that evaluated the pair; 0 is the committer.
    worker: u32,
    /// The sim-screen time the division window booked in both
    /// `sim_nanos` and `divide_nanos`; the record counts it once, under
    /// Sim.
    screen_ns: u64,
}

impl PairEval {
    /// True for the pairs a first-gain epoch stops at: the first of them
    /// is the last pair the committer books before it commits or repairs.
    fn stops_epoch(&self) -> bool {
        self.audit_failed || self.plan.is_some()
    }

    /// The pair's span record, with stage shares read off its delta as
    /// booked.
    fn record(&self, target: NodeId, divisor: NodeId, gain: i64) -> PairRecord {
        let d = &self.delta;
        PairRecord {
            target: id32(target),
            divisor: id32(divisor),
            start: self.start,
            dur_ns: self.dur_ns,
            stages: StageNanos {
                enumerate: d.enumerate_nanos,
                filter: d.filter_nanos,
                sim: d.sim_nanos,
                divide: d.divide_nanos.saturating_sub(self.screen_ns),
                apply: d.apply_nanos,
            },
            outcome: self.outcome,
            gain,
            rar_checks: u64::try_from(d.rar_checks).unwrap_or(u64::MAX),
            bound_skip: d.local_bound_skips > 0,
            worker: self.worker,
        }
    }
}

/// Evaluates one (target, divisor) pair read-only against the epoch
/// snapshot: the cheap filter chain, the checked-mode signature audit and
/// the division proofs, with their stat accounting and no mutation (no
/// table repair, no network edit). Always panic-isolated. The evaluation
/// is built in place in its box, so settling an epoch moves pointers, not
/// the evaluations themselves.
#[allow(clippy::too_many_arguments)]
fn speculate_pair(
    net: &Network,
    side: &SideTables,
    shadow: Option<&ShadowEntry>,
    forms: &TargetForms,
    sim: &SimFilter,
    opts: &SubstOptions,
    target: NodeId,
    divisor: NodeId,
    timed: bool,
    worker: u32,
) -> Box<PairEval> {
    let start = Instant::now();
    let mut eval = Box::new(PairEval {
        delta: SubstStats::default(),
        outcome: Outcome::RejectedNoGain,
        plan: None,
        audit_failed: false,
        start,
        dur_ns: 0,
        worker,
        screen_ns: 0,
    });
    let delta = &mut eval.delta;
    delta.candidates_enumerated += 1;
    let filtered = cheap_filters(net, side, delta, target, divisor);
    delta.filter_nanos += nanos(start);
    // Checked mode recomputes the pair's signature rows from their fanins
    // and compares them with the table; the committer repairs the table
    // after a mismatch.
    let audit_failed = filtered.is_ok() && opts.checked && {
        let ts = Instant::now();
        let ok = sim.audit(net, &[target, divisor]);
        delta.sim_audits += 1;
        delta.sim_nanos += nanos(ts);
        !ok
    };
    // Sim time so far is the audit's; the rest is the division window's
    // screen, which the record counts under Sim rather than Divide.
    let audit_ns = delta.sim_nanos;

    let (outcome, plan) = match filtered {
        Err(outcome) => (outcome, None),
        Ok(_) if audit_failed => (Outcome::EngineFault, None),
        Ok(space) => {
            // The pair survived every cheap filter: the division proof runs.
            delta.discovery_proofs_run += 1;
            let mut t1 = Instant::now();
            let planned = catch_unwind(AssertUnwindSafe(|| {
                let scope = match shadow {
                    Some(entry) => {
                        let base = entry.base(net, side);
                        // A first-use build is the snapshot's time, not
                        // this pair's division.
                        t1 = Instant::now();
                        GdcScope::Shadow(base)
                    }
                    None => GdcScope::Rebuild,
                };
                plan_pair_core(
                    net,
                    target,
                    divisor,
                    &space,
                    opts,
                    delta,
                    &scope,
                    Some(forms),
                    Some(sim),
                )
            }));
            delta.divide_nanos += nanos(t1);
            match planned {
                Ok(plan) => (core_outcome(plan.as_ref(), delta), plan),
                Err(_) => (Outcome::EngineFault, None),
            }
        }
    };
    eval.screen_ns = eval.delta.sim_nanos - audit_ns;
    eval.outcome = outcome;
    eval.plan = plan;
    eval.audit_failed = audit_failed;
    if timed {
        eval.dur_ns = nanos(start);
    }
    eval
}

impl SubstEngine<'_> {
    /// Whether pair records carry wall times: only when a tracer or a
    /// metrics registry is attached.
    fn timed(&self) -> bool {
        self.tracer.is_some() || self.metrics.is_some()
    }

    /// Books one evaluated pair in sweep order: after a failed audit the
    /// signature-table repair, the pair's use of the shadow snapshot, a
    /// fault's quarantine count and, for an accepting pair, the commit of its
    /// stored plan; then its delta and its one record. Returns whether a
    /// rewrite was committed.
    fn settle(&mut self, target: NodeId, divisor: NodeId, mut eval: Box<PairEval>) -> bool {
        if eval.audit_failed {
            self.repair_sim(&mut eval.delta);
        }
        // A pair that reached the division core used the shadow.
        if self.opts.mode == SubstMode::ExtendedGdc && eval.delta.divisions_tried > 0 {
            self.use_shadow(target, &mut eval.delta);
        }
        if eval.outcome == Outcome::EngineFault {
            eval.delta.engine_faults += 1;
            eval.delta.quarantined += 1;
        }
        let mut committed = None;
        if let Some(plan) = eval.plan.take() {
            let tc = self.timed().then(Instant::now);
            (eval.outcome, committed) = self.commit(target, divisor, plan, &mut eval.delta);
            if let Some(tc) = tc {
                let ns = nanos(tc);
                eval.dur_ns += ns;
                if let Some(m) = &self.metrics {
                    m.sweep_commit_ns.add(ns);
                }
            }
        }
        let rec = eval.record(target, divisor, committed.unwrap_or(0));
        self.book(&eval.delta, Some(&rec));
        committed.is_some()
    }

    /// Rebuilds the signature table after an audit failed, booking the
    /// time into `delta`.
    fn repair_sim(&mut self, delta: &mut SubstStats) {
        let ts = Instant::now();
        self.sim.rebuild(self.net);
        delta.sim_nanos += nanos(ts);
    }

    /// One epoch: read-only evaluation of `cands` against the frozen
    /// network through one drain. Returns the evaluations of a prefix of
    /// `cands` with their indices, in order: under first-gain the prefix
    /// ends at the epoch's lowest stopping pair (the sweep would never
    /// reach the pairs past it); otherwise, and always under best-gain,
    /// it is every candidate.
    fn speculate_epoch(&mut self, target: NodeId, cands: &[NodeId]) -> Vec<(usize, Box<PairEval>)> {
        #[cfg(feature = "chaos")]
        if self.opts.checked {
            if let Some(r) = crate::chaos::should_poison_signature() {
                self.sim
                    .chaos_poison_signature(target, usize::try_from(r).unwrap_or(0));
            }
        }
        let gdc = self.opts.mode == SubstMode::ExtendedGdc;
        if gdc {
            self.ensure_shadow(target);
        }
        self.ensure_forms(target);
        let first_gain = self.opts.acceptance == Acceptance::FirstGain;
        let timed = self.timed();
        let net: &Network = self.net;
        let side = &self.side;
        let opts = &self.opts;
        let shadow = self.shadow.as_ref().filter(|_| gdc);
        let forms = self.forms.as_ref().expect("ensured above");
        let sim = &self.sim;
        let metrics = self.metrics.as_ref();
        if let Some(m) = metrics {
            m.sweep_epochs.inc();
        }
        let workers = if cands.len() < PAR_MIN_PAIRS {
            1
        } else {
            opts.threads.get().min(cands.len())
        };
        let next = AtomicUsize::new(0);
        let best = AtomicUsize::new(usize::MAX);
        let found = Mutex::new(Vec::<(usize, Box<PairEval>)>::with_capacity(cands.len()));
        #[cfg(feature = "chaos")]
        let chaos_cfg = crate::chaos::current_config();
        let drain = |worker: usize| {
            // Chaos state is thread-local: re-arm each spawned worker
            // with the committer's configuration so injected faults
            // reach them too. The committer (worker 0) drains inline
            // with its own already-armed stream.
            #[cfg(feature = "chaos")]
            if worker != 0 {
                if let Some(cfg) = chaos_cfg {
                    crate::chaos::configure(cfg);
                }
            }
            let t_drain = metrics.map(|_| Instant::now());
            let mut proof_ns = 0u64;
            let mut wait_ns = 0u64;
            let mut pairs = 0u64;
            loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= cands.len() {
                    break;
                }
                // Skip work the sweep would never reach. `best` only
                // ever decreases, so every index at or below the final
                // winner is evaluated before it could be skipped.
                if idx > best.load(Ordering::Acquire) {
                    continue;
                }
                let eval = speculate_pair(
                    net,
                    side,
                    shadow,
                    forms,
                    sim,
                    opts,
                    target,
                    cands[idx],
                    timed,
                    u32::try_from(worker).unwrap_or(u32::MAX),
                );
                if metrics.is_some() {
                    proof_ns += eval.dur_ns;
                    pairs += 1;
                }
                if first_gain && eval.stops_epoch() {
                    best.fetch_min(idx, Ordering::AcqRel);
                }
                let tw = metrics.map(|_| Instant::now());
                let mut slots = found.lock().expect("worker result lock");
                if let Some(tw) = tw {
                    wait_ns += nanos(tw);
                }
                slots.push((idx, eval));
            }
            if let (Some(m), Some(t_drain)) = (metrics, t_drain) {
                // Whatever the drain's wall clock did not spend proving
                // or blocked on the result lock is idle overhead: cursor
                // traffic, scheduling, spin-down after the bound drops.
                let idle = nanos(t_drain)
                    .saturating_sub(proof_ns)
                    .saturating_sub(wait_ns);
                let wm = &m.workers[worker];
                wm.proof_ns.add(proof_ns);
                wm.wait_ns.add(wait_ns);
                wm.idle_ns.add(idle);
                wm.pairs.add(pairs);
                m.sweep_proof_ns.add(proof_ns);
                m.sweep_wait_ns.add(wait_ns);
                m.sweep_idle_ns.add(idle);
            }
        };
        std::thread::scope(|s| {
            let drain = &drain;
            for w in 1..workers {
                s.spawn(move || drain(w));
            }
            drain(0);
        });
        // Every index at or below the final bound was evaluated; the ones
        // above it are dead work.
        let bound = best.into_inner();
        let mut found = found.into_inner().expect("worker result lock");
        found.retain(|&(idx, _)| idx <= bound);
        found.sort_unstable_by_key(|&(idx, _)| idx);
        found
    }

    /// One target's visit, at every thread count and under both
    /// acceptance policies: epochs of read-only evaluation, each settled
    /// in pair order with its winner last (see the module docs).
    /// First-gain re-enumerates after a kept commit and resumes past its
    /// divisor; best-gain's one epoch holds every candidate, so its visit
    /// ends with that epoch.
    pub(crate) fn visit(&mut self, target: NodeId) {
        let best_gain = self.opts.acceptance == Acceptance::BestGain;
        let bound = self.net.id_bound();
        let mut cursor: Option<NodeId> = None;
        let mut prev: Vec<NodeId> = Vec::new();
        'resume: loop {
            if self.deadline_expired() {
                return;
            }
            let cands = self.discover(target, bound, cursor, &prev);
            // A first-gain epoch ends at its stopping pair. A commit that
            // did not stand and a failed audit consume their pair without
            // changing the target, so the sweep continues inside the
            // *same* enumeration from `start`.
            let mut start = 0usize;
            while start < cands.len() {
                if self.deadline_expired() {
                    return;
                }
                let base = start;
                let mut evals = self.speculate_epoch(target, &cands[base..]);
                start = base + evals.len();
                let winner = if best_gain {
                    best_plan(&evals)
                } else {
                    evals
                        .last()
                        .filter(|(_, eval)| eval.stops_epoch())
                        .map(|_| evals.len() - 1)
                }
                .map(|w| evals.remove(w));
                for (i, mut eval) in evals {
                    if eval.plan.take().is_some() {
                        eval.outcome = Outcome::RejectedOutranked;
                    }
                    self.settle(target, cands[base + i], eval);
                }
                if let Some((i, eval)) = winner {
                    let divisor = cands[base + i];
                    if self.settle(target, divisor, eval) && !best_gain {
                        // The target's fanins changed: re-enumerate and
                        // resume past this divisor.
                        cursor = Some(divisor);
                        prev = cands;
                        continue 'resume;
                    }
                }
            }
            // Every candidate is settled and no commit is left to resume
            // after: the visit is over (an unused shadow build stays
            // unbooked).
            return;
        }
    }
}

/// The position in `evals` of the lowest-index pair with the highest
/// gain, if any pair gained.
fn best_plan(evals: &[(usize, Box<PairEval>)]) -> Option<usize> {
    evals
        .iter()
        .enumerate()
        .filter_map(|(pos, (_, eval))| Some((eval.plan.as_ref()?.gain(), Reverse(pos))))
        .max()
        .map(|(_, Reverse(pos))| pos)
}
