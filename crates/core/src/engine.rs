//! The incremental substitution engine: a persistent sweep session that
//! replaces the legacy per-pair recomputation with maintained state.
//!
//! [`crate::subst::boolean_substitute_legacy`] answers every structural
//! question from scratch: each (target, divisor) pair recomputes the
//! target's transitive fanout (a full-graph traversal), every target
//! enumerates *all* internal nodes as divisor candidates, and the GDC mode
//! re-materializes the entire network as a gate circuit per pair. All of
//! that is loop-invariant or nearly so, which makes the sweep quadratic in
//! practice.
//!
//! [`SubstEngine`] keeps session state instead:
//!
//! * a [`SideTables`] instance — incrementally maintained fanout lists
//!   and levels, patched locally after each accepted rewrite rather than
//!   recomputed per query; the levels bound the cycle filter's walk;
//! * **support-overlap candidate enumeration** — the only divisors worth
//!   trying are fanouts of the target's fanins (exactly the legacy
//!   support-overlap filter, applied in reverse), so candidate enumeration
//!   is proportional to the local fanout neighbourhood, not the network
//!   (`SubstEngine::discover`);
//! * a per-target **shadow circuit** ([`ShadowBase`]) for the GDC mode —
//!   the network minus the target's cone is materialized once per target
//!   and each attempt patches only the dirty region;
//! * per-target **dividend forms** (`TargetForms`) — the target's old
//!   factored-literal count and its complement, computed once per target
//!   visit instead of once per divisor;
//! * stage-level [`SubstStats`] observability.
//!
//! The engine is pinned to the legacy sweep: it visits the same surviving
//! pairs in the same order and therefore accepts bit-identical rewrites
//! (`tests/engine_parity.rs`). The enumeration only skips pairs the legacy
//! filters reject before any side effect, and after an acceptance the
//! candidate set is re-enumerated from the target's *new* fanins, resuming
//! past the accepted divisor — reproducing the legacy visit sequence
//! exactly.
//!
//! Every pair is evaluated once, read-only, by the epoch speculation in
//! `parallel` (cheap filter chain `cheap_filters`, checked-mode audit,
//! division proofs), at every thread count and under both acceptance
//! policies. The one pair a visit accepts is then applied from its
//! stored plan by `SubstEngine::commit`, which owns every mutation: the
//! txn snapshot, the guard, rollback and quarantine, and the side-table
//! and sim patching. Each pair is described by one [`PairRecord`], and
//! `SubstEngine::book` is the only place it is booked: it folds the
//! record into the session's stats and the metrics registry
//! ([`SubstStats::of_pair`]) and hands it to the tracer, so the three
//! views cannot disagree.

use crate::metrics::EngineMetrics;
use crate::netcircuit::ShadowBase;
use crate::subst::{
    apply_plan, SubstMode, SubstOptions, SubstPlan, SubstStats, TargetForms, MAX_DIVISOR_CUBES,
    MAX_JOINT_VARS,
};
use crate::txn::TxnSnapshot;
use boolsubst_algebraic::JointSpace;
use boolsubst_cube::Cover;
use boolsubst_guard::{Guard, GuardDecision};
use boolsubst_metrics::MetricsHandle;
use boolsubst_network::{Network, NodeId, SideTables};
use boolsubst_sim::{SimConfig, SimFilter};
use boolsubst_trace::{
    GuardScope, GuardTier, Outcome, PairGuard, PairRecord, ShadowUse, Stage, Tracer,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

pub(crate) fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Node ids as the tracer's compact u32 representation.
pub(crate) fn id32(id: NodeId) -> u32 {
    u32::try_from(id.index()).unwrap_or(u32::MAX)
}

/// How many ids of sorted `new` sorted `old` lacks (a merge count).
fn count_missing(new: &[NodeId], old: &[NodeId]) -> usize {
    let mut rest = old.iter().peekable();
    new.iter()
        .filter(|&&id| {
            while rest.next_if(|&&o| o < id).is_some() {}
            rest.peek() != Some(&&id)
        })
        .count()
}

/// The pre and post networks of a checked rewrite's cut. The changed set
/// is `target`, `divisor` and every node minted since `snap`; only these
/// can have a new definition. Walking from the two roots over the pre
/// definitions (the snapshot's images) and over the live post
/// definitions, each walk stops at the first nodes outside the changed
/// set. The union of those leaves, sorted by id, is the cut. Both
/// networks take the cut as their primary inputs, in that order, and
/// have one output per root, so [`Guard::check`] compares the roots'
/// functions of the cut. `None` when a walk meets a definition it cannot
/// resolve or a cycle; the caller falls back to the whole-network
/// compare.
fn cut_networks(
    net: &Network,
    snap: &TxnSnapshot,
    target: NodeId,
    divisor: NodeId,
) -> Option<(Network, Network)> {
    let roots = [target, divisor];
    let changed = move |id: NodeId| id == target || id == divisor || snap.minted(id);
    let pre_def = move |id: NodeId| snap.image_of(id);
    let post_def = move |id: NodeId| {
        let node = net.node_opt(id)?;
        Some((node.fanins(), node.cover()?))
    };
    let mut leaves = Vec::new();
    let pre_order = cut_walk(&roots, changed, pre_def, &mut leaves)?;
    let post_order = cut_walk(&roots, changed, post_def, &mut leaves)?;
    leaves.sort_unstable();
    let pre = cut_network(net, "pre", &leaves, &pre_order, pre_def, &roots)?;
    let post = cut_network(net, "post", &leaves, &post_order, post_def, &roots)?;
    Some((pre, post))
}

/// Walks `def` from `roots` through the `changed` nodes and returns them
/// in topological order; every node outside the changed set the walk
/// reaches is added to `leaves` (once). `None` on an unresolved
/// definition or a cycle.
fn cut_walk<'n>(
    roots: &[NodeId],
    changed: impl Fn(NodeId) -> bool,
    def: impl Fn(NodeId) -> Option<(&'n [NodeId], &'n Cover)>,
    leaves: &mut Vec<NodeId>,
) -> Option<Vec<NodeId>> {
    let mut order: Vec<NodeId> = Vec::new();
    let mut open: Vec<NodeId> = Vec::new();
    let mut stack: Vec<(NodeId, bool)> = roots.iter().map(|&r| (r, false)).collect();
    while let Some((n, emit)) = stack.pop() {
        if emit {
            order.push(n);
        } else if !changed(n) {
            if !leaves.contains(&n) {
                leaves.push(n);
            }
        } else if !order.contains(&n) {
            // An open node met again before it is emitted lies on a cycle.
            if open.contains(&n) {
                return None;
            }
            open.push(n);
            stack.push((n, true));
            stack.extend(def(n)?.0.iter().map(|&f| (f, false)));
        }
    }
    Some(order)
}

/// One side of the cut compare: `leaves` as primary inputs, the changed
/// nodes of `order` under their `def` definitions, one output per root.
fn cut_network<'n>(
    net: &Network,
    side: &str,
    leaves: &[NodeId],
    order: &[NodeId],
    def: impl Fn(NodeId) -> Option<(&'n [NodeId], &'n Cover)>,
    roots: &[NodeId],
) -> Option<Network> {
    let name = |id: NodeId| net.node_opt(id).map(|n| n.name().to_string());
    let mut cut = Network::new(format!("{}:{side}-cut", net.name()));
    let mut map: Vec<(NodeId, NodeId)> = Vec::with_capacity(leaves.len() + order.len());
    let lookup = |map: &[(NodeId, NodeId)], id: NodeId| {
        map.iter().find(|&&(from, _)| from == id).map(|&(_, to)| to)
    };
    for &leaf in leaves {
        map.push((leaf, cut.add_input(name(leaf)?).ok()?));
    }
    for &n in order {
        let (fanins, cover) = def(n)?;
        let mapped = fanins
            .iter()
            .map(|&f| lookup(&map, f))
            .collect::<Option<Vec<_>>>()?;
        map.push((n, cut.add_node(name(n)?, mapped, cover.clone()).ok()?));
    }
    for &root in roots {
        cut.add_output(name(root)?, lookup(&map, root)?).ok()?;
    }
    Some(cut)
}

/// The trace tier of a guard verdict.
fn guard_tier(decision: &GuardDecision) -> GuardTier {
    match decision {
        GuardDecision::PassExhaustive | GuardDecision::RefutedSim { .. } => GuardTier::Sim,
        GuardDecision::PassExact | GuardDecision::RefutedExact { .. } => GuardTier::Bdd,
        GuardDecision::PassSat | GuardDecision::RefutedSat { .. } => GuardTier::Sat,
        GuardDecision::PassSampled => GuardTier::Sampled,
        GuardDecision::OutOfTime => GuardTier::Deadline,
    }
}

/// Display names for every live node, indexed by raw slot id.
fn node_names(net: &Network) -> Vec<String> {
    let mut names = vec![String::new(); net.id_bound()];
    for id in net.node_ids() {
        names[id.index()] = net.node(id).name().to_string();
    }
    names
}

/// The cheap filter chain every pair passes before its division proof:
/// structural, cycle (the level-bounded [`SideTables::in_tfo`]), divisor
/// size and joint space. Returns the reject outcome, or the pair's joint
/// space.
pub(crate) fn cheap_filters(
    net: &Network,
    side: &SideTables,
    target: NodeId,
    divisor: NodeId,
) -> Result<JointSpace, Outcome> {
    // Candidates are fanouts, hence internal; only the self-pair and
    // existing-fanin checks remain from the legacy structural filter.
    if target == divisor || net.node(target).fanins().contains(&divisor) {
        return Err(Outcome::RejectedStructural);
    }
    if side.in_tfo(net, divisor, target) {
        return Err(Outcome::RejectedTfo);
    }
    // Candidates come from fanout lists, so a missing cover means the
    // index and the network disagree — reject rather than panic.
    let Some(d_cover_len) = net.node(divisor).cover().map(Cover::len) else {
        return Err(Outcome::RejectedStructural);
    };
    if d_cover_len == 0 || d_cover_len > MAX_DIVISOR_CUBES {
        return Err(Outcome::RejectedDivisorSize);
    }
    let space = JointSpace::union_of_fanins(net, &[target, divisor]);
    if space.len() > MAX_JOINT_VARS {
        return Err(Outcome::RejectedJointSpace);
    }
    Ok(space)
}

/// The cached per-target GDC snapshot, tagged with the network version it
/// is valid for. The snapshot itself is built by the first pair that
/// reaches its division proof, so a visit whose pairs all stop at the
/// cheap filters never pays for it.
pub(crate) struct ShadowEntry {
    target: NodeId,
    version: u64,
    /// The snapshot and its build time, once a pair has needed it.
    base: OnceLock<(ShadowBase, u64)>,
    /// Whether a booked pair has used this snapshot yet: the first use
    /// is the cache miss (which books the build), every later one a hit.
    booked: bool,
}

impl ShadowEntry {
    /// The snapshot, built on first use. Workers of one epoch share the
    /// entry; the first caller builds and the others wait for it.
    pub(crate) fn base(&self, net: &Network, side: &SideTables) -> &ShadowBase {
        &self
            .base
            .get_or_init(|| {
                let t0 = Instant::now();
                let tfo = side.tfo(net, self.target);
                (ShadowBase::prepare(net, self.target, &tfo), nanos(t0))
            })
            .0
    }
}

/// A Boolean-substitution session over one network, run by
/// [`crate::Session::run`]: one sweep over every target, with the side
/// tables, the signature table and the shadow circuits patched after each
/// accepted rewrite instead of rebuilt.
pub(crate) struct SubstEngine<'a> {
    pub(crate) net: &'a mut Network,
    pub(crate) opts: SubstOptions,
    pub(crate) side: SideTables,
    pub(crate) stats: SubstStats,
    pub(crate) shadow: Option<ShadowEntry>,
    /// The current target's divisor-independent dividend forms, shared by
    /// every divisor of the visit (see [`SubstEngine::ensure_forms`]).
    pub(crate) forms: Option<TargetForms>,
    /// Simulation-signature pre-filter over the default pattern pool:
    /// the refute-only screen every pair passes before its proofs,
    /// patched alongside the side tables after every acceptance.
    pub(crate) sim: SimFilter,
    /// Structured trace recorder; `None` unless attached via
    /// [`SubstEngine::with_tracer`]. Attaching a tracer never changes the
    /// accepted rewrites, and with neither a tracer nor metrics attached
    /// no pair reads the clock beyond its stage timers.
    pub(crate) tracer: Option<&'a mut Tracer>,
    /// Post-apply equivalence guard (built when `opts.checked`). A
    /// rewrite the guard refutes is rolled back via [`TxnSnapshot`] and
    /// the pair given up; a healthy engine never trips it, so the checked
    /// sweep stays bit-identical to the unchecked one.
    pub(crate) guard: Option<Guard>,
    /// Resolved metric instruments; `None` unless attached via
    /// [`SubstEngine::attach_metrics`]. Like the tracer, an attached
    /// handle never changes the accepted rewrites.
    pub(crate) metrics: Option<EngineMetrics>,
}

impl<'a> SubstEngine<'a> {
    /// Opens a session: builds the structural side tables for the
    /// network's current state.
    pub fn new(net: &'a mut Network, opts: SubstOptions) -> SubstEngine<'a> {
        let side = SideTables::build(net);
        let t0 = Instant::now();
        let sim = SimFilter::new(net, &SimConfig::default());
        let stats = SubstStats {
            sim_nanos: nanos(t0),
            ..SubstStats::default()
        };
        let guard = opts.checked.then(|| {
            let mut guard = Guard::new(opts.guard);
            guard.set_deadline(opts.deadline);
            guard
        });
        SubstEngine {
            net,
            opts,
            side,
            stats,
            shadow: None,
            forms: None,
            sim,
            tracer: None,
            guard,
            metrics: None,
        }
    }

    /// Opens a session with a trace recorder attached: every evaluated
    /// pair's record, its guard verdict and shadow use included, is booked
    /// on `tracer`, labelled with the network's node names.
    pub fn with_tracer(
        net: &'a mut Network,
        opts: SubstOptions,
        tracer: &'a mut Tracer,
    ) -> SubstEngine<'a> {
        let mut engine = SubstEngine::new(net, opts);
        tracer.set_node_names(node_names(engine.net));
        engine.tracer = Some(tracer);
        engine
    }

    /// Attaches a metrics registry: resolves every engine instrument
    /// (including per-worker sweep slots for `opts.threads` workers) and
    /// forwards the handle to the guard and sim filter so their tier and
    /// funnel counters land in the same registry. Whatever the session
    /// booked before attachment (the sim filter build) is added up front,
    /// so the registry reads the same totals as the stats block.
    /// Attachment never changes the accepted rewrites (pinned by
    /// `metrics_attachment_is_invisible`).
    pub fn attach_metrics(&mut self, handle: &MetricsHandle) {
        let metrics = EngineMetrics::resolve(handle, self.opts.threads.get());
        metrics.add(&self.stats);
        let nodes = i64::try_from(self.net.node_ids().count()).unwrap_or(i64::MAX);
        metrics.nodes.set(nodes);
        metrics.peak_nodes.max(nodes);
        if let Some(guard) = self.guard.as_mut() {
            guard.attach_metrics(handle);
        }
        self.sim.attach_metrics(handle);
        self.metrics = Some(metrics);
    }

    /// Runs one sweep over every target, largest cover first (matching
    /// the legacy order), and returns the statistics. No target is
    /// visited when the deadline has already passed. A caller that wants
    /// another sweep runs a new session on the rewritten network.
    pub(crate) fn run(&mut self) -> SubstStats {
        if !self.deadline_expired() {
            let t0 = Instant::now();
            let mut targets: Vec<NodeId> = self.net.internal_ids().collect();
            targets.sort_by_key(|&id| {
                std::cmp::Reverse(self.net.node(id).cover().map_or(0, Cover::literal_count))
            });
            self.book_enumeration(t0, 0);
            if let Some(m) = &self.metrics {
                m.targets_total
                    .set(i64::try_from(targets.len()).unwrap_or(i64::MAX));
                m.targets_done.set(0);
            }
            for target in targets {
                if self.deadline_expired() {
                    break;
                }
                if self.net.node_opt(target).is_some() {
                    self.visit(target);
                }
                if let Some(m) = &self.metrics {
                    m.targets_done.add(1);
                }
            }
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            // Extended rewrites mint fresh core nodes mid-run; refresh the
            // name table so exported spans label them properly.
            t.set_node_names(node_names(self.net));
        }
        self.stats
    }

    /// The one booking path of a pair: folds its record into the
    /// session's [`SubstStats`] and the metrics registry
    /// ([`SubstStats::of_pair`]) and hands it to the tracer and the
    /// pair-latency histogram.
    pub(crate) fn book(&mut self, rec: &PairRecord) {
        self.add(&SubstStats::of_pair(rec));
        if let Some(m) = &self.metrics {
            m.pair_ns.observe(rec.dur_ns);
            if rec.outcome.accepted() {
                let nodes = i64::try_from(self.net.node_ids().count()).unwrap_or(i64::MAX);
                m.nodes.set(nodes);
                m.peak_nodes.max(nodes);
            }
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record_pair(rec);
        }
    }

    /// Adds `delta` to the session's stats and the metrics registry: a
    /// pair's fold, or a run event.
    fn add(&mut self, delta: &SubstStats) {
        if let Some(m) = &self.metrics {
            m.add(delta);
        }
        self.stats.merge(delta);
    }

    /// Books one enumeration, a run event: its time, which the tracer
    /// samples into its stage histogram, and the candidates it newly
    /// proposed.
    fn book_enumeration(&mut self, since: Instant, proposed: usize) {
        let ns = nanos(since);
        self.add(&SubstStats {
            discovery_proposed: proposed,
            enumerate_nanos: ns,
            ..SubstStats::default()
        });
        if let Some(t) = self.tracer.as_deref_mut().filter(|_| ns > 0) {
            t.stage(Stage::Enumerate, ns);
        }
    }

    /// Latches `stats.interrupted`, a run event booked once per run.
    fn interrupt(&mut self) {
        if !self.stats.interrupted {
            self.add(&SubstStats {
                interrupted: true,
                ..SubstStats::default()
            });
        }
    }

    /// True (and latches `stats.interrupted`) once the wall-clock
    /// deadline has passed. The sweep only consults this between pair
    /// attempts, so an expiring deadline always leaves a valid network —
    /// just one with fewer rewrites applied.
    pub(crate) fn deadline_expired(&mut self) -> bool {
        if !self.stats.interrupted && self.opts.deadline.is_some_and(|d| Instant::now() >= d) {
            self.interrupt();
        }
        self.stats.interrupted
    }

    /// Rolls the live network back to `snap`. The pair's work stays
    /// booked, since it really happened; its outcome says the rewrite did
    /// not stand.
    fn recover(&mut self, snap: &TxnSnapshot) {
        // Rollback only replays covers captured from live nodes and
        // deletes nodes minted after the snapshot; the sweep never
        // deletes pre-existing nodes, so this cannot fail in practice.
        let rolled = snap.rollback(self.net);
        debug_assert!(rolled.is_ok(), "rollback failed: {rolled:?}");
    }

    /// Asks the guard whether the applied rewrite preserved every
    /// primary-output function. Records the verdict in the pair's `rec`:
    /// its tier, whether the cut or the whole network decided it, the SAT
    /// runs and the check's wall time, and [`Outcome::GuardRejected`] as
    /// the outcome when the rewrite may not stand. `None` means no guard
    /// is installed (unchecked run): the rewrite stands on the division
    /// proof alone.
    /// The guard reads only the network and the snapshot, never the plan.
    ///
    /// Outside GDC mode every division strategy is cover algebra over the
    /// pair's joint space, so the guard first compares the changed nodes
    /// over their cut ([`cut_networks`]). A proved pass there is a proof
    /// for the whole network: no node outside the changed set changes its
    /// fanins, so by induction in post-topological order every node keeps
    /// its function (DESIGN.md §12). Any other cut verdict falls through
    /// to the whole-network compare (rollback applied to a clone of the
    /// post state), which decides it exactly as before: observability may
    /// still save a rewrite the cut refutes. GDC rewrites use don't-cares
    /// of the whole circuit by design, so they always take the
    /// whole-network compare.
    fn guard_verdict(
        &mut self,
        snap: &TxnSnapshot,
        target: NodeId,
        divisor: NodeId,
        rec: &mut PairRecord,
    ) -> Option<GuardDecision> {
        let guard = self.guard.as_mut()?;
        let t0 = Instant::now();
        let sat_runs0 = guard.sat_runs();
        let cut_proof = (self.opts.mode != SubstMode::ExtendedGdc)
            .then(|| cut_networks(self.net, snap, target, divisor))
            .flatten()
            .map(|(pre, post)| guard.check(&pre, &post))
            .filter(|d| d.passed() && d.exact());
        let scope = if cut_proof.is_some() {
            GuardScope::Cut
        } else {
            GuardScope::Network
        };
        let decision = match cut_proof {
            Some(d) => d,
            None => {
                let mut pre = self.net.clone();
                match snap.rollback(&mut pre) {
                    Ok(()) => guard.check(&pre, self.net),
                    // No pre-state to compare against: reject conservatively.
                    Err(_) => GuardDecision::RefutedSim {
                        output: "<pre-state reconstruction failed>".to_string(),
                    },
                }
            }
        };
        rec.guard = Some(PairGuard {
            tier: guard_tier(&decision),
            scope,
            sat_runs: u32::try_from(guard.sat_runs() - sat_runs0).unwrap_or(u32::MAX),
            dur_ns: nanos(t0),
        });
        if !decision.passed() {
            rec.outcome = Outcome::GuardRejected;
        }
        Some(decision)
    }

    /// The divisor candidates of `target`: the fanouts of its fanins,
    /// sorted and deduplicated, restricted to ids below `bound` (the id
    /// snapshot taken at visit time) and, when `cursor` is set, strictly
    /// above it (the resume point after an acceptance). This is exactly
    /// the set passing the legacy support-overlap filter, in the legacy
    /// visit order. Books the enumerate time, and as `discovery_proposed`
    /// only the candidates missing from `prev`, the visit's previous
    /// enumeration (sorted), so a re-enumeration after a commit does not
    /// count again the candidates it carries over.
    pub(crate) fn discover(
        &mut self,
        target: NodeId,
        bound: usize,
        cursor: Option<NodeId>,
        prev: &[NodeId],
    ) -> Vec<NodeId> {
        let t0 = Instant::now();
        let net = &*self.net;
        let mut cands: Vec<NodeId> = Vec::new();
        for &f in net.node(target).fanins() {
            for &o in self.side.fanouts(net, f) {
                if o.index() < bound && cursor.is_none_or(|c| o > c) {
                    cands.push(o);
                }
            }
        }
        cands.sort_unstable();
        cands.dedup();
        self.book_enumeration(t0, count_missing(&cands, prev));
        cands
    }

    /// Replaces the cached shadow entry unless it is for this target and
    /// the current network version. A new entry is empty: the first pair
    /// that reaches its division proof builds the snapshot
    /// ([`ShadowEntry::base`]), and the build is booked on the pair that
    /// first uses it ([`SubstEngine::use_shadow`]).
    pub(crate) fn ensure_shadow(&mut self, target: NodeId) {
        let valid = self
            .shadow
            .as_ref()
            .is_some_and(|e| e.target == target && e.version == self.net.version());
        if !valid {
            self.shadow = Some(ShadowEntry {
                target,
                version: self.net.version(),
                base: OnceLock::new(),
                booked: false,
            });
        }
    }

    /// Records one pair's use of the shadow snapshot in its `rec`: the
    /// first use of an entry is the cache miss, which carries the build
    /// time, and every later one a hit.
    pub(crate) fn use_shadow(&mut self, rec: &mut PairRecord) {
        rec.shadow = Some(match self.shadow.as_mut() {
            Some(e) if !e.booked => {
                e.booked = true;
                ShadowUse::Miss {
                    build_ns: e.base.get().map_or(0, |(_, ns)| *ns),
                }
            }
            _ => ShadowUse::Hit,
        });
    }

    /// Replaces the cached dividend forms if they belong to a different
    /// target or a stale network version (every commit bumps it).
    pub(crate) fn ensure_forms(&mut self, target: NodeId) {
        let valid = self
            .forms
            .as_ref()
            .is_some_and(|t| t.target == target && t.version == self.net.version());
        if !valid {
            self.forms = Some(TargetForms::new(self.net, target));
        }
    }

    /// Applies an evaluated pair's stored `plan` to the live network: the
    /// division it came from is never proved a second time. Checked mode
    /// snapshots the two covers the plan can rewrite, isolates a panic in
    /// the apply and asks the guard for a verdict; a faulting or refuted
    /// rewrite is rolled back and the pair given up. Any edit, kept or
    /// rolled back, is then carried into the side tables and the
    /// signature table. Records in the pair's `rec` its outcome, the
    /// committed gain, the commit's time (the apply, the guard and the
    /// table patching under Apply, the signature patch under Sim) and the
    /// guard's verdict; returns whether the rewrite stands.
    pub(crate) fn commit(
        &mut self,
        target: NodeId,
        divisor: NodeId,
        plan: SubstPlan,
        rec: &mut PairRecord,
    ) -> bool {
        let t1 = Instant::now();
        let v0 = self.net.version();
        let old_tgt = self.net.node(target).fanins().to_vec();
        let old_div = self.net.node(divisor).fanins().to_vec();
        let old_bound = self.net.id_bound();
        let accepted = plan.outcome();
        // Checked mode snapshots the minimal pre-state (the two covers
        // this pair can rewrite plus the id bound for minted nodes) so a
        // faulting or guard-refuted apply can be undone in O(changed).
        let snap = self
            .opts
            .checked
            .then(|| TxnSnapshot::capture(self.net, &[target, divisor]));
        let applied = {
            let net = &mut *self.net;
            let apply = || apply_plan(net, plan);
            if snap.is_some() {
                catch_unwind(AssertUnwindSafe(apply)).ok()
            } else {
                Some(apply())
            }
        };
        // A typed apply error left the network as it was; a panic (caught
        // in checked mode only) may have left it mid-rewrite.
        let mut gain = applied.flatten();
        rec.outcome = if gain.is_some() {
            accepted
        } else {
            Outcome::EngineFault
        };
        if let Some(snap) = &snap {
            if applied.is_none() {
                // Restore the pre-state and give the pair up.
                self.recover(snap);
            } else if gain.is_some() {
                match self.guard_verdict(snap, target, divisor, rec) {
                    Some(decision) if !decision.passed() => {
                        // The rewrite changed a primary-output function,
                        // or the remaining deadline window could not
                        // afford an exact verdict: undo it. A refuted pair
                        // is given up and the sweep keeps going; after a
                        // deadline refusal (the pair is innocent) the
                        // sweep exits with a verified partial result, as
                        // if the deadline had expired between attempts.
                        // The verdict already marked the pair rejected.
                        self.recover(snap);
                        if decision == GuardDecision::OutOfTime {
                            self.interrupt();
                        }
                        gain = None;
                    }
                    _ => {}
                }
            }
        }

        let edited = self.net.version() != v0;
        if edited {
            self.side.sync_new_nodes(self.net);
            let div_changed = self.net.node(divisor).fanins() != old_div.as_slice();
            if div_changed {
                self.side.apply_replace(self.net, divisor, &old_div);
            }
            self.side.apply_replace(self.net, target, &old_tgt);
            if div_changed || self.net.id_bound() != old_bound {
                // Extended rewrite: snapshot nodes changed, drop the base.
                self.shadow = None;
            } else if let Some(e) = &mut self.shadow {
                // Target-only rewrite: the snapshot excludes the target,
                // so it is still exact — just retag its version.
                e.version = self.net.version();
            }
        }
        rec.stages.apply += nanos(t1);
        if edited {
            let ts = Instant::now();
            self.sim.patch(self.net, &self.side, &[target, divisor]);
            rec.stages.sim += nanos(ts);
        }
        rec.gain = gain.unwrap_or(0);
        gain.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::subst::boolean_substitute_legacy;
    use boolsubst_cube::parse_sop;
    use boolsubst_network::write_blif;

    fn small_net() -> Network {
        let mut net = Network::new("engine_t");
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
    fn engine_matches_legacy_on_paper_example() {
        for opts in crate::subst::all_configs() {
            let mut legacy_net = small_net();
            let legacy = boolean_substitute_legacy(&mut legacy_net, &opts);
            let mut engine_net = small_net();
            let engine = Session::new(&mut engine_net, opts.clone()).run();
            assert_eq!(
                engine.substitutions, legacy.substitutions,
                "{:?}",
                opts.mode
            );
            assert_eq!(engine.literal_gain, legacy.literal_gain, "{:?}", opts.mode);
            assert_eq!(
                engine.divisions_tried, legacy.divisions_tried,
                "{:?}",
                opts.mode
            );
            assert_eq!(
                write_blif(&engine_net),
                write_blif(&legacy_net),
                "{:?} rewrites diverged",
                opts.mode
            );
        }
    }

    /// A re-enumeration after a commit proposes again the candidates
    /// past the accepted divisor; each is counted once per visit. Here
    /// `f`'s candidates are `[d, f, g]`, `d` is accepted first, and the
    /// re-enumeration past it (`f` is now a fanout of `d`) is no longer
    /// counted on top of the first.
    #[test]
    fn re_enumeration_counts_each_candidate_once() {
        let mut net = Network::new("funnel_t");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let d = net
            .add_node("d", vec![a, b, c], parse_sop(3, "ab + c").expect("p"))
            .expect("d");
        let f = net
            .add_node(
                "f",
                vec![a, b, c],
                parse_sop(3, "ab + ac + bc'").expect("p"),
            )
            .expect("f");
        let g = net
            .add_node("g", vec![b, c], parse_sop(2, "a + b").expect("p"))
            .expect("g");
        for (name, id) in [("f", f), ("d", d), ("g", g)] {
            net.add_output(name, id).expect("o");
        }
        let mut engine = SubstEngine::new(&mut net, SubstOptions::basic());
        engine.visit(f);
        let stats = engine.stats;
        assert_eq!(stats.substitutions, 1, "{stats}");
        assert!(net.node(f).fanins().contains(&d), "d was not accepted");
        assert_eq!(stats.discovery_proposed, 3, "{stats}");
        assert_eq!(count_missing(&[d, f, g], &[f]), 2);
        assert_eq!(count_missing(&[f], &[d, f, g]), 0);
    }

    #[test]
    fn engine_reports_stage_stats() {
        let mut net = small_net();
        let stats = SubstEngine::new(&mut net, SubstOptions::basic()).run();
        assert!(stats.candidates_enumerated >= 1);
        assert!(stats.divisions_tried >= 1);
        // Display formats without panicking and mentions the key stages.
        let text = stats.to_string();
        assert!(text.contains("divisions tried"));
        assert!(text.contains("literal gain"));
    }

    /// Every guard verdict lands in its own trace tier, named as the
    /// guard names it: a deadline refusal is never traced as sampled.
    #[test]
    fn every_guard_decision_maps_to_its_tier() {
        let output = || "f".to_string();
        let cases = [
            (GuardDecision::PassExhaustive, GuardTier::Sim),
            (
                GuardDecision::RefutedSim { output: output() },
                GuardTier::Sim,
            ),
            (GuardDecision::PassExact, GuardTier::Bdd),
            (
                GuardDecision::RefutedExact { output: output() },
                GuardTier::Bdd,
            ),
            (GuardDecision::PassSat, GuardTier::Sat),
            (
                GuardDecision::RefutedSat { output: output() },
                GuardTier::Sat,
            ),
            (GuardDecision::PassSampled, GuardTier::Sampled),
            (GuardDecision::OutOfTime, GuardTier::Deadline),
        ];
        for (decision, tier) in cases {
            assert_eq!(guard_tier(&decision), tier, "{decision:?}");
            assert_eq!(tier.name(), decision.tier_name(), "{decision:?}");
        }
    }

    /// The engine hands its deadline to the guard it builds: past it, a
    /// check that needs the SAT tier is refused as out of time.
    #[test]
    fn new_hands_its_deadline_to_the_guard() {
        use boolsubst_guard::{GuardConfig, TierPolicy};
        use std::time::Duration;
        let mut net = small_net();
        let reference = net.clone();
        // A random pool only samples, so every check escalates to tier C.
        let guard = GuardConfig {
            exhaustive_inputs: 0,
            tier: TierPolicy::Sat,
            ..GuardConfig::default()
        };
        let past = Instant::now() - Duration::from_secs(1);
        let opts = SubstOptions {
            guard,
            ..SubstOptions::basic().with_checked(true).with_deadline(past)
        };
        let mut engine = SubstEngine::new(&mut net, opts);
        let guard = engine.guard.as_mut().expect("checked engine");
        assert_eq!(
            guard.check(&reference, &reference),
            GuardDecision::OutOfTime
        );
    }

    /// `f = ab + c + z` and `d = ab + c + e` (the paper's extended
    /// division scenario) with the extended rewrite applied by hand
    /// behind a snapshot: a minted core `k = ab + c`, then `d = k + e`
    /// and `f = k + z` (or `f = k`, the `z` cube dropped, when
    /// `drop_cube`). Returns the guard's verdict and the pair's record,
    /// accepted as the commit leaves it before the guard runs.
    fn guard_hand_ext_rewrite(drop_cube: bool) -> (GuardDecision, PairRecord) {
        let mut net = Network::new("cut_t");
        let [a, b, c, e, z] = ["a", "b", "c", "e", "z"].map(|n| net.add_input(n).expect("pi"));
        let sop = |n, s| parse_sop(n, s).expect("sop");
        let f = net
            .add_node("f", vec![a, b, c, z], sop(4, "ab + c + d"))
            .expect("f");
        let d = net
            .add_node("d", vec![a, b, c, e], sop(4, "ab + c + d"))
            .expect("d");
        net.add_output("f", f).expect("o");
        net.add_output("d", d).expect("o");
        let opts = SubstOptions::extended().with_checked(true);
        let mut engine = SubstEngine::new(&mut net, opts);
        let snap = TxnSnapshot::capture(engine.net, &[f, d]);
        let post = &mut *engine.net;
        let k = post
            .add_node(post.fresh_name(), vec![a, b, c], sop(3, "ab + c"))
            .expect("core");
        assert!(snap.minted(k) && !snap.minted(d));
        post.replace_function(d, vec![k, e], sop(2, "a + b"))
            .expect("d");
        let f_sop = if drop_cube { "a" } else { "a + b" };
        post.replace_function(f, vec![k, z], sop(2, f_sop))
            .expect("f");
        let mut rec = PairRecord {
            outcome: Outcome::AcceptedExtended,
            ..PairRecord::new(id32(f), id32(d), Instant::now())
        };
        let decision = engine
            .guard_verdict(&snap, f, d, &mut rec)
            .expect("checked engine");
        // The record alone carries the verdict the exporters write.
        assert_eq!(rec.guard_passed(), Some(decision.passed()), "{decision:?}");
        assert_eq!(rec.guard_exact(), Some(decision.exact()), "{decision:?}");
        assert_eq!(rec.guard.map(|g| g.tier.name()), Some(decision.tier_name()));
        (decision, rec)
    }

    /// An extended rewrite that mints a core node is proved on its cut —
    /// the five leaves `a b c e z`, exhaustively — and never needs the
    /// whole network.
    #[test]
    fn minting_ext_rewrite_passes_on_its_cut() {
        let (decision, rec) = guard_hand_ext_rewrite(false);
        assert_eq!(decision, GuardDecision::PassExhaustive);
        assert_eq!(rec.guard.map(|g| g.scope), Some(GuardScope::Cut));
        assert_eq!(rec.outcome, Outcome::AcceptedExtended);
    }

    /// A rewrite with a dropped cube fails its cut, falls through to the
    /// whole-network compare, and is refuted there.
    #[test]
    fn dropped_cube_fails_the_cut_and_is_refuted_on_the_network() {
        let (decision, rec) = guard_hand_ext_rewrite(true);
        assert_eq!(
            decision,
            GuardDecision::RefutedSim {
                output: "f".to_string()
            }
        );
        assert_eq!(rec.guard.map(|g| g.scope), Some(GuardScope::Network));
        assert_eq!(rec.outcome, Outcome::GuardRejected);
    }
}
