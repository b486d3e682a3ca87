//! Read-only pair speculation: the epoch-parallel first-gain sweep and
//! the best-gain visit. Proofs fan out, commits stay serial, results stay
//! bit-identical to the sequential engine.
//!
//! # Protocol
//!
//! Between two accepted rewrites the sequential engine never mutates the
//! network — every rejected pair attempt is read-only. That window is an
//! **epoch**: the committer (the engine thread) enumerates one candidate
//! slice exactly as the sequential sweep would, then one drain
//! speculatively evaluates the pairs against the shared, frozen
//! `&Network` using the read-only halves of the machinery:
//!
//! * the engine's cheap filter chain, whose cycle filter
//!   ([`SideTables::in_tfo`]) is a level-bounded read of the shared
//!   tables,
//! * the shared `&SimFilter` for the checked-mode signature audit and the
//!   refute-only screen (its pattern pool is fixed, so both are pure
//!   reads),
//! * the committer's [`TargetForms`] for the target (old literal count
//!   and complement; each is computed once, by whichever worker needs it
//!   first, and equals the per-call value),
//! * [`plan_pair_core`] for the proof pipeline, producing a [`SubstPlan`]
//!   instead of mutating.
//!
//! The drain runs on the committer alone when there is one worker or the
//! epoch is smaller than [`PAR_MIN_PAIRS`]; otherwise a scoped pool joins
//! it. Workers pull indices from an atomic cursor. Under first-gain they
//! publish a monotone "lowest accepting index" bound; indices above the
//! bound are skipped (their evaluation is dead — the sequential sweep
//! would never have reached them in this enumeration). Every index at or
//! below the final bound is guaranteed evaluated.
//!
//! # Commit
//!
//! Under [`Acceptance::FirstGain`] the committer books the epoch in pair
//! order: every rejected pair below the winner goes through
//! `SubstEngine::book` with its stat delta and record, exactly as the
//! sequential engine would have booked it (the network is identical).
//! The winning pair is re-run **live** through the ordinary
//! [`SubstEngine::attempt`] path. That re-validates the plan against the
//! live network and reuses the whole txn/guard/side-patching machinery,
//! so a stale or refuted speculation (e.g. a checked-mode guard
//! rejection) is dropped exactly as the sequential engine would drop it,
//! and the sweep resumes at the next pair of the same enumeration.
//!
//! Under [`Acceptance::BestGain`], at every thread count, one epoch
//! speculates every candidate with no early exit. These are dry runs:
//! their deltas and records are discarded, and only a fault is booked
//! (the pair is quarantined). The lowest-index best gain is then committed
//! through `attempt`. No dry run clones the network.
//!
//! # Determinism contract
//!
//! Under first-gain the winner is the *lowest-index* accepting pair of
//! each epoch, so the commit sequence — and therefore the final network —
//! is bit-identical to the sequential engine for any thread count
//! (`tests/parallel_parity.rs`, `tests/engine_parity.rs`). This is why
//! first-gain needs ordered commit: accepting any other index first would
//! rewrite the target before pairs the sequential sweep evaluates earlier.
//! Every rejected pair is booked from a read-only evaluation of the same
//! state the sequential engine would have seen, so every non-timing
//! [`SubstStats`] counter — screen and RAR counters included — is the same
//! at every thread count. Best-gain evaluates every candidate against the
//! same frozen state whatever the width, so its commits and counters are
//! width-independent too.
//!
//! Speculation panics are always caught: the pair is booked as an engine
//! fault, quarantined, and the committer keeps going — a dying worker
//! cannot poison the shared state because speculation never mutates it.
//! A failed signature audit is booked the same way, and the committer
//! rebuilds the signature table before the next epoch or commit. Under
//! first-gain the epoch stops at the first such pair, as it stops at a
//! winner, so the pairs after it are evaluated against the repaired
//! table, as in the sequential engine.

use crate::engine::{audit_pair, cheap_filters, nanos, pair_record, SubstEngine};
use crate::netcircuit::ShadowBase;
use crate::subst::{
    core_outcome, plan_pair_core, Acceptance, GdcScope, SubstMode, SubstOptions, SubstStats,
    TargetForms,
};
use boolsubst_network::{Network, NodeId, SideTables};
use boolsubst_sim::SimFilter;
use boolsubst_trace::{Outcome, PairRecord};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Epochs smaller than this are drained by the committer alone: a thread
/// spawn costs more than a couple of pair proofs.
const PAR_MIN_PAIRS: usize = 16;

/// One worker-evaluated pair: the stat delta the sequential engine would
/// have recorded for it and its span record. An accepting record carries
/// the plan's gain; an `EngineFault` one means the evaluation panicked or,
/// with `audit_failed`, that the checked-mode signature audit found a
/// rotted row.
struct PairEval {
    delta: SubstStats,
    rec: PairRecord,
    audit_failed: bool,
}

impl PairEval {
    /// True for the pairs an epoch stops at: the first of them is the
    /// last pair the committer books before it commits or repairs.
    fn stops_epoch(&self) -> bool {
        self.audit_failed || self.rec.outcome.accepted()
    }
}

/// Speculatively evaluates one (target, divisor) pair read-only against
/// the epoch snapshot, mirroring [`SubstEngine::attempt`]'s filter chain,
/// checked-mode audit and stat accounting exactly — minus every mutation
/// (no table repair, no network edit). Always panic-isolated.
/// The record's wall time is measured only when `timed`.
#[allow(clippy::too_many_arguments)]
fn speculate_pair(
    net: &Network,
    side: &SideTables,
    quarantine: &HashSet<(NodeId, NodeId)>,
    shadow: Option<&ShadowBase>,
    forms: &TargetForms,
    sim: Option<&SimFilter>,
    opts: &SubstOptions,
    target: NodeId,
    divisor: NodeId,
    timed: bool,
    worker: u32,
) -> PairEval {
    let t0 = Instant::now();
    let mut delta = SubstStats::default();
    delta.candidates_enumerated += 1;
    let filtered = cheap_filters(net, side, quarantine, opts, &mut delta, target, divisor);
    delta.filter_nanos += nanos(t0);
    let audit_failed = filtered.is_ok()
        && sim
            .filter(|_| opts.checked)
            .is_some_and(|sim| !audit_pair(sim, net, target, divisor, &mut delta));
    // Sim time so far is the audit's; the rest is the division window's
    // screen, which the record counts under Sim rather than Divide.
    let audit_ns = delta.sim_nanos;

    let (outcome, gain) = match filtered {
        Err(outcome) => (outcome, 0),
        Ok(_) if audit_failed => (Outcome::EngineFault, 0),
        Ok(space) => {
            // Mirrors `attempt`: the pair survived every cheap filter.
            delta.discovery_proofs_run += 1;
            let t1 = Instant::now();
            let planned = catch_unwind(AssertUnwindSafe(|| {
                let scope = match shadow {
                    Some(base) => GdcScope::Shadow(base),
                    None => GdcScope::Rebuild,
                };
                plan_pair_core(
                    net,
                    target,
                    divisor,
                    &space,
                    opts,
                    &mut delta,
                    &scope,
                    Some(forms),
                    sim,
                )
            }));
            delta.divide_nanos += nanos(t1);
            match planned {
                Ok(plan) => (
                    core_outcome(plan.as_ref(), &delta),
                    plan.map_or(0, |p| p.gain()),
                ),
                Err(_) => (Outcome::EngineFault, 0),
            }
        }
    };
    let screen_ns = delta.sim_nanos - audit_ns;
    let mut rec = pair_record(target, divisor, t0, &delta, screen_ns, outcome, gain);
    rec.worker = worker + 1;
    if timed {
        rec.dur_ns = nanos(t0);
    }
    PairEval {
        delta,
        rec,
        audit_failed,
    }
}

impl SubstEngine<'_> {
    /// Books one speculated (and sequentially-consumed) pair: its delta,
    /// the shadow use the sequential `attempt` would have booked, fault
    /// quarantine and, after a failed audit, the signature-table repair
    /// `attempt` would have made; then its record.
    fn merge_speculated(&mut self, target: NodeId, divisor: NodeId, eval: PairEval) {
        let PairEval {
            mut delta,
            rec,
            audit_failed,
        } = eval;
        if audit_failed {
            self.repair_sim(&mut delta);
        }
        // A pair that reached the division core is one the sequential
        // engine would have used the shadow for.
        if self.opts.mode == SubstMode::ExtendedGdc && delta.divisions_tried > 0 {
            self.use_shadow(target, &mut delta);
        }
        if rec.outcome == Outcome::EngineFault {
            delta.engine_faults += 1;
            self.quarantine_pair(&mut delta, target, divisor);
        }
        self.book(&delta, Some(&rec));
    }

    /// Rebuilds the signature table after a speculated audit failed,
    /// booking the time into `delta`.
    fn repair_sim(&mut self, delta: &mut SubstStats) {
        if let Some(sim) = self.sim.as_mut() {
            let ts = Instant::now();
            sim.rebuild(self.net);
            delta.sim_nanos += nanos(ts);
        }
    }

    /// One epoch: speculative evaluation of `cands` against the frozen
    /// network through one drain. Returns one slot per candidate; under
    /// first-gain a `None` slot was skipped because its index lies beyond
    /// the epoch's lowest accepting index (the sequential sweep would
    /// never have evaluated it either). Best-gain dry runs evaluate every
    /// slot.
    fn speculate_epoch(&mut self, target: NodeId, cands: &[NodeId]) -> Vec<Option<PairEval>> {
        // Workers share the GDC snapshot; its build is booked by the
        // first pair that uses it, as in the sequential engine.
        if self.opts.mode == SubstMode::ExtendedGdc {
            self.prepare_shadow(target);
        }
        self.ensure_forms(target);
        let first_gain = self.opts.acceptance == Acceptance::FirstGain;
        let timed = self.tracer.is_some() || self.metrics.is_some();
        let net: &Network = self.net;
        let side = &self.side;
        let quarantine = &self.quarantine;
        let opts = &self.opts;
        let shadow: Option<&ShadowBase> = match &self.shadow {
            Some(e) if opts.mode == SubstMode::ExtendedGdc => Some(&e.base),
            _ => None,
        };
        let forms = self.forms.as_ref().expect("ensured above");
        let sim = self.sim.as_ref();
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
        let found = Mutex::new(Vec::<(usize, PairEval)>::with_capacity(cands.len()));
        #[cfg(feature = "chaos")]
        let chaos_cfg = crate::chaos::current_config();
        let drain = |worker: usize| {
            // Chaos state is thread-local: re-arm each spawned worker
            // with the committer's configuration so injected faults
            // reach speculation too. The committer (worker 0)
            // participates inline with its own already-armed stream.
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
                // Skip work the sequential sweep would never reach.
                // `best` only ever decreases, so every index at or
                // below the final winner is evaluated before it could
                // be skipped.
                if idx > best.load(Ordering::Acquire) {
                    continue;
                }
                let eval = speculate_pair(
                    net,
                    side,
                    quarantine,
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
                    proof_ns += eval.rec.dur_ns;
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
        let mut out: Vec<Option<PairEval>> = Vec::new();
        out.resize_with(cands.len(), || None);
        for (idx, eval) in found.into_inner().expect("worker result lock") {
            out[idx] = Some(eval);
        }
        out
    }

    /// Re-runs a speculated winner live through [`SubstEngine::attempt`]
    /// (txn, guard, side patching, booking) and reports whether it
    /// committed.
    fn commit(&mut self, target: NodeId, divisor: NodeId) -> bool {
        let tc = self.metrics.as_ref().map(|_| Instant::now());
        let committed = self.attempt(target, divisor).is_some();
        if let (Some(m), Some(tc)) = (&self.metrics, tc) {
            m.sweep_commit_ns.add(nanos(tc));
        }
        committed
    }

    /// The parallel first-gain visit: epochs of speculation, ordered
    /// commits, sequential re-validation of each winner.
    pub(crate) fn parallel_first_gain(&mut self, target: NodeId) {
        let bound = self.net.id_bound();
        let mut cursor: Option<NodeId> = None;
        'resume: loop {
            if self.deadline_expired() {
                return;
            }
            let cands = self.discover(target, bound, cursor);
            // Commit-side guard rejections consume pairs without touching
            // the network, so the sweep continues inside the *same*
            // enumeration from `start` — exactly like the sequential
            // candidate loop continuing in place.
            let mut start = 0usize;
            loop {
                if start >= cands.len() {
                    break 'resume;
                }
                if self.deadline_expired() {
                    return;
                }
                let slice = &cands[start..];
                let mut evals = self.speculate_epoch(target, slice);
                let stop = evals
                    .iter()
                    .position(|e| e.as_ref().is_some_and(PairEval::stops_epoch));
                let merge_upto = stop.unwrap_or(slice.len());
                for (i, divisor) in slice.iter().copied().enumerate().take(merge_upto) {
                    let eval = evals[i]
                        .take()
                        .expect("pairs below the winner are evaluated");
                    self.merge_speculated(target, divisor, eval);
                }
                let Some(w) = stop else {
                    // No acceptance (or failed audit) anywhere in the
                    // enumeration: the visit is over (an unused shadow build stays
                    // unbooked, as the sequential engine never built it).
                    break 'resume;
                };
                let divisor = slice[w];
                let eval = evals[w].take().expect("the stopping pair is evaluated");
                if eval.audit_failed {
                    // Booked, quarantined and repaired like a live audit
                    // failure; the next epoch resumes after it.
                    self.merge_speculated(target, divisor, eval);
                    start += w + 1;
                    continue;
                }
                if self.commit(target, divisor) {
                    // Committed: the target's fanins changed, re-enumerate
                    // and resume past this divisor.
                    cursor = Some(divisor);
                    continue 'resume;
                }
                // Speculation accepted but the live attempt did not
                // (checked-mode guard rejection or fault): the pair is
                // quarantined; keep consuming the same enumeration.
                start += w + 1;
            }
        }
    }

    /// The best-gain visit at every thread count: one epoch dry-runs every
    /// candidate, faulting pairs are quarantined, and the lowest-index
    /// best gain is committed.
    pub(crate) fn best_gain_visit(&mut self, target: NodeId) {
        let cands = self.discover(target, self.net.id_bound(), None);
        if cands.is_empty() || self.deadline_expired() {
            return;
        }
        let evals = self.speculate_epoch(target, &cands);
        let mut best: Option<(NodeId, i64)> = None;
        let mut repaired = false;
        for (&divisor, eval) in cands.iter().zip(evals) {
            let eval = eval.expect("best-gain evaluates every candidate");
            let rec = eval.rec;
            if rec.outcome == Outcome::EngineFault {
                let mut delta = SubstStats {
                    engine_faults: 1,
                    ..SubstStats::default()
                };
                if eval.audit_failed && !repaired {
                    // Every dry run read the same table: one repair.
                    self.repair_sim(&mut delta);
                    repaired = true;
                }
                self.quarantine_pair(&mut delta, target, divisor);
                self.book(&delta, None);
            } else if rec.outcome.accepted() && best.is_none_or(|(_, g)| rec.gain > g) {
                best = Some((divisor, rec.gain));
            }
        }
        // The dry runs may have outlived the deadline.
        if let Some((divisor, _)) = best {
            if !self.deadline_expired() {
                self.commit(target, divisor);
            }
        }
    }
}
