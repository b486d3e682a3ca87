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
//! and sim patching. Each pair is described as one [`PairRecord`] plus
//! its own [`SubstStats`] delta, and `SubstEngine::book` is the only
//! place either is booked: it folds the delta into the session's stats
//! and the metrics registry and the record into the tracer, so the three
//! views cannot disagree.

use crate::metrics::EngineMetrics;
use crate::netcircuit::ShadowBase;
use crate::subst::{
    apply_plan, core_outcome, Acceptance, SubstMode, SubstOptions, SubstPlan, SubstStats,
    TargetForms, MAX_DIVISOR_CUBES, MAX_JOINT_VARS,
};
use crate::txn::TxnSnapshot;
use boolsubst_algebraic::JointSpace;
use boolsubst_cube::Cover;
use boolsubst_guard::{Guard, GuardDecision};
use boolsubst_metrics::MetricsHandle;
use boolsubst_network::{Network, NodeId, SideTables};
use boolsubst_sim::SimFilter;
use boolsubst_trace::{GuardTier, Outcome, PairRecord, Stage, Tracer};
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

/// Cone-restricted guard compare for local-function-preserving rewrites:
/// runs the guard on the single-output TFI cone of every node the rewrite
/// changed (`target` always; `divisor` too when an extended rewrite
/// re-expressed it). The pre-rewrite cone is built straight from the
/// mutated network with the snapshot's captured images as an overlay, so
/// the whole-network clone the fallback path needs is never made here.
/// Returns the combined decision when every cone passes — the least
/// exact of the individual verdicts, so a sampled cone pass is never
/// reported as a proof — or `None` when any cone was refuted, ran out of
/// time, or could not be extracted; the caller falls back to the
/// whole-network compare.
fn cone_checked(
    guard: &mut Guard,
    snap: &TxnSnapshot,
    post: &Network,
    target: NodeId,
    divisor: NodeId,
) -> Option<GuardDecision> {
    let mut decision: Option<GuardDecision> = None;
    for root in [target, divisor] {
        let node = post.node_opt(root)?;
        let changed = match snap.image_of(root) {
            Some((fanins, cover)) => fanins != node.fanins() || Some(cover) != node.cover(),
            None => false, // never captured: the attempt could not touch it
        };
        if !changed {
            continue; // plain substitution: the divisor is untouched
        }
        // Union primary-input support of the pre and post cones, in the
        // shared input order, so the two cones compare positionally.
        let mut support = vec![false; post.id_bound()];
        for n in post.tfi(root) {
            support[n.index()] = true;
        }
        pre_support(post, snap, root, &mut support);
        let inputs: Vec<NodeId> = post
            .inputs()
            .iter()
            .copied()
            .filter(|i| support[i.index()])
            .collect();
        let pre = pre_cone(post, snap, root, &inputs)?;
        let post_cone = post.extract_cone(root, &inputs).ok()?;
        let d = guard.check(&pre, &post_cone);
        if !d.passed() {
            return None;
        }
        decision = Some(match decision {
            Some(prev) if !prev.exact() => prev,
            _ => d,
        });
    }
    decision
}

/// Resolves a node's pre-rewrite definition: the snapshot's captured
/// image when the attempt touched it, the live definition otherwise.
fn pre_def<'a>(
    net: &'a Network,
    snap: &'a TxnSnapshot,
    id: NodeId,
) -> (&'a [NodeId], Option<&'a Cover>) {
    match snap.image_of(id) {
        Some((fanins, cover)) => (fanins, Some(cover)),
        None => {
            let node = net.node(id);
            (node.fanins(), node.cover())
        }
    }
}

/// Marks the primary inputs of `root`'s pre-rewrite cone in `support`
/// (overlay walk over the mutated network).
fn pre_support(net: &Network, snap: &TxnSnapshot, root: NodeId, support: &mut [bool]) {
    let mut seen = vec![false; net.id_bound()];
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if seen[n.index()] {
            continue;
        }
        seen[n.index()] = true;
        let (fanins, cover) = pre_def(net, snap, n);
        if cover.is_none() {
            support[n.index()] = true;
            continue;
        }
        stack.extend(fanins.iter().copied());
    }
}

/// Builds the pre-rewrite TFI cone of `root` directly from the mutated
/// network plus the snapshot overlay — no whole-network clone. Mirrors
/// [`Network::extract_cone`] with definitions resolved through
/// [`pre_def`]. `None` when the walk reaches a primary input missing
/// from `inputs` or cone construction fails.
fn pre_cone(net: &Network, snap: &TxnSnapshot, root: NodeId, inputs: &[NodeId]) -> Option<Network> {
    let mut cone = Network::new(format!("{}:pre-cone", net.name()));
    let mut map: Vec<Option<NodeId>> = vec![None; net.id_bound()];
    for &pi in inputs {
        map[pi.index()] = Some(cone.add_input(net.node(pi).name()).ok()?);
    }
    let mut open = vec![false; net.id_bound()];
    let mut stack = vec![(root, false)];
    while let Some((n, emit)) = stack.pop() {
        let (fanins, cover) = pre_def(net, snap, n);
        if emit {
            let mut mapped = Vec::with_capacity(fanins.len());
            for &f in fanins {
                mapped.push(map[f.index()]?);
            }
            let cover = cover.expect("internal").clone();
            map[n.index()] = Some(cone.add_node(net.node(n).name(), mapped, cover).ok()?);
            continue;
        }
        if open[n.index()] || map[n.index()].is_some() {
            continue;
        }
        cover?; // a primary input the caller did not list
        open[n.index()] = true;
        stack.push((n, true));
        for &f in fanins {
            stack.push((f, false));
        }
    }
    let out = map[root.index()]?;
    cone.add_output(net.node(root).name(), out).ok()?;
    Some(cone)
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
/// size and joint space. Books the matching `filtered_*` counter and
/// returns the reject outcome, or the pair's joint space.
pub(crate) fn cheap_filters(
    net: &Network,
    side: &SideTables,
    stats: &mut SubstStats,
    target: NodeId,
    divisor: NodeId,
) -> Result<JointSpace, Outcome> {
    // Candidates are fanouts, hence internal; only the self-pair and
    // existing-fanin checks remain from the legacy structural filter.
    if target == divisor || net.node(target).fanins().contains(&divisor) {
        stats.filtered_structural += 1;
        return Err(Outcome::RejectedStructural);
    }
    if side.in_tfo(net, divisor, target) {
        stats.filtered_tfo += 1;
        return Err(Outcome::RejectedTfo);
    }
    // Candidates come from fanout lists, so a missing cover means the
    // index and the network disagree — reject rather than panic.
    let Some(d_cover_len) = net.node(divisor).cover().map(Cover::len) else {
        stats.filtered_structural += 1;
        return Err(Outcome::RejectedStructural);
    };
    if d_cover_len == 0 || d_cover_len > MAX_DIVISOR_CUBES {
        stats.filtered_divisor_size += 1;
        return Err(Outcome::RejectedDivisorSize);
    }
    let space = JointSpace::union_of_fanins(net, &[target, divisor]);
    if space.len() > MAX_JOINT_VARS {
        stats.filtered_joint_space += 1;
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
    /// books the cache miss (and the traced build), every later one a hit.
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
    /// Simulation-signature pre-filter (built when `opts.sim.enabled`);
    /// patched alongside the side tables after every acceptance.
    pub(crate) sim: Option<SimFilter>,
    /// Structured trace recorder; `None` unless attached via
    /// [`SubstEngine::with_tracer`]. Attaching a tracer never changes the
    /// accepted rewrites, and with neither a tracer nor metrics attached
    /// no pair reads the clock beyond its `SubstStats` timers.
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
        let mut stats = SubstStats::default();
        let t0 = Instant::now();
        let sim = opts.sim.enabled.then(|| SimFilter::new(net, &opts.sim));
        if sim.is_some() {
            stats.sim_nanos += nanos(t0);
        }
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

    /// Opens a session with a trace recorder attached: every pair
    /// attempt, pass, shadow build, and guard check is recorded on
    /// `tracer`, labelled with the network's node names.
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
        if let Some(sim) = self.sim.as_mut() {
            sim.attach_metrics(handle);
        }
        self.metrics = Some(metrics);
    }

    /// Replaces the checked-mode guard with one carried over from an
    /// earlier run, preserving its lazily-built pattern pools and learned
    /// SAT cost model across jobs. The guard adopts this engine's
    /// [`SubstOptions::guard`] config (dropping stale-shaped pools if the
    /// pool tunables differ) and its [`SubstOptions::deadline`], so it
    /// never keeps an earlier run's deadline. No-op when the engine is
    /// unchecked — an unchecked run has no guard to reuse.
    pub fn install_guard(&mut self, mut guard: Guard) {
        if self.opts.checked {
            guard.adopt_config(self.opts.guard);
            guard.set_deadline(self.opts.deadline);
            self.guard = Some(guard);
        }
    }

    /// Takes the guard out of a finished checked engine so a caller can
    /// carry its warmed pools into the next run (see
    /// [`SubstEngine::install_guard`]). `None` for unchecked engines.
    pub fn take_guard(&mut self) -> Option<Guard> {
        self.guard.take()
    }

    /// Runs one sweep over every target (none when the deadline has
    /// already passed) and returns the statistics. A caller that wants
    /// another pass runs a new session on the rewritten network.
    pub(crate) fn run(&mut self) -> SubstStats {
        if !self.deadline_expired() {
            self.book(
                &SubstStats {
                    passes: 1,
                    ..SubstStats::default()
                },
                None,
            );
            if let Some(t) = self.tracer.as_deref_mut() {
                t.begin_pass(1);
            }
            self.run_pass();
            if let Some(t) = self.tracer.as_deref_mut() {
                t.end_pass(self.stats.substitutions as u64, self.stats.literal_gain);
            }
        }
        if let Some(sim) = &self.sim {
            self.stats.sim_patterns = sim.patterns();
            self.stats.sim_words = sim.words();
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            // Extended rewrites mint fresh core nodes mid-run; refresh the
            // name table so exported spans label them properly.
            t.set_node_names(node_names(self.net));
        }
        self.stats
    }

    /// The one booking path. Folds `delta` into the session's
    /// [`SubstStats`] and the metrics registry. A finished pair passes its
    /// `rec`, which goes to the tracer and the pair-latency histogram;
    /// work booked outside any pair (`rec` is `None`: enumeration) is
    /// sampled into the tracer's stage histograms instead.
    pub(crate) fn book(&mut self, delta: &SubstStats, rec: Option<&PairRecord>) {
        self.stats.merge(delta);
        if let Some(m) = &self.metrics {
            m.add(delta);
            if let Some(rec) = rec {
                m.pair_ns.observe(rec.dur_ns);
            }
            if delta.substitutions > 0 {
                let nodes = i64::try_from(self.net.node_ids().count()).unwrap_or(i64::MAX);
                m.nodes.set(nodes);
                m.peak_nodes.max(nodes);
            }
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            match rec {
                Some(rec) => t.record_pair(rec),
                None if delta.enumerate_nanos > 0 => {
                    t.stage(Stage::Enumerate, delta.enumerate_nanos);
                }
                None => {}
            }
        }
    }

    /// One sweep over all targets, largest cover first (matching the
    /// legacy order).
    fn run_pass(&mut self) {
        let t0 = Instant::now();
        let mut targets: Vec<NodeId> = self.net.internal_ids().collect();
        targets.sort_by_key(|&id| {
            std::cmp::Reverse(self.net.node(id).cover().map_or(0, Cover::literal_count))
        });
        self.book(
            &SubstStats {
                enumerate_nanos: nanos(t0),
                ..SubstStats::default()
            },
            None,
        );
        if let Some(m) = &self.metrics {
            m.targets_total
                .set(i64::try_from(targets.len()).unwrap_or(i64::MAX));
            m.targets_done.set(0);
        }
        for target in targets {
            if self.deadline_expired() {
                return;
            }
            if self.net.node_opt(target).is_some() {
                self.visit_target(target);
            }
            if let Some(m) = &self.metrics {
                m.targets_done.add(1);
            }
        }
    }

    /// True (and latches `stats.interrupted`) once the wall-clock
    /// deadline has passed. The sweep only consults this between pair
    /// attempts, so an expiring deadline always leaves a valid network —
    /// just one with fewer rewrites applied.
    pub(crate) fn deadline_expired(&mut self) -> bool {
        if self.stats.interrupted {
            return true;
        }
        if self.opts.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stats.interrupted = true;
        }
        self.stats.interrupted
    }

    /// Rolls the live network back to `snap` and clears the acceptance
    /// counters of the attempt's `delta`; work counters (divisions tried,
    /// filter tallies, timings) are kept, since that work really happened.
    fn recover(&mut self, snap: &TxnSnapshot, delta: &mut SubstStats) {
        // Rollback only replays covers captured from live nodes and
        // deletes nodes minted after the snapshot; the sweep never
        // deletes pre-existing nodes, so this cannot fail in practice.
        let rolled = snap.rollback(self.net);
        debug_assert!(rolled.is_ok(), "rollback failed: {rolled:?}");
        delta.substitutions = 0;
        delta.pos_substitutions = 0;
        delta.extended_decompositions = 0;
        delta.literal_gain = 0;
    }

    /// Reconstructs the pre-rewrite network (rollback applied to a clone
    /// of the post state) and asks the guard whether the rewrite
    /// preserved every primary-output function. Records the verdict (and
    /// which tier produced it) in `delta` and on the tracer.
    /// `None` means no guard is installed (unchecked run): the rewrite
    /// stands on the division proof alone.
    ///
    /// Outside GDC mode every division strategy is pure cover algebra
    /// over the joint space, so an accepted rewrite preserves each
    /// changed node's function over the primary inputs *exactly* —
    /// comparing just the changed nodes' single-output TFI cones is both
    /// sound (identical cones imply identical outputs, everything else
    /// being untouched) and complete. The guard therefore runs on the
    /// cone pair first; only a cone that fails to pass falls back to the
    /// whole-network compare, which preserves the original verdict
    /// semantics (circuit-level observability may still save a rewrite a
    /// cone compare refutes). GDC rewrites exploit observability across
    /// the whole circuit by design, so they always take the full compare.
    fn guard_verdict(
        &mut self,
        snap: &TxnSnapshot,
        target: NodeId,
        divisor: NodeId,
        delta: &mut SubstStats,
    ) -> Option<GuardDecision> {
        let guard = self.guard.as_mut()?;
        let t0 = Instant::now();
        let sat_runs0 = guard.sat_runs();
        let cone_pass = (self.opts.mode != SubstMode::ExtendedGdc)
            .then(|| cone_checked(guard, snap, self.net, target, divisor))
            .flatten();
        let decision = match cone_pass {
            Some(d) => d,
            None => {
                // Whole-network fallback: reconstruct the pre-state
                // (rollback applied to a clone of the post state).
                let mut pre = self.net.clone();
                if snap.rollback(&mut pre).is_err() {
                    // No pre-state to compare against: reject conservatively.
                    return Some(GuardDecision::RefutedSim {
                        output: "<pre-state reconstruction failed>".to_string(),
                    });
                }
                guard.check(&pre, self.net)
            }
        };
        delta.guard_sat_runs += usize::try_from(guard.sat_runs() - sat_runs0).unwrap_or(0);
        if decision == GuardDecision::PassSampled {
            delta.guard_pass_sampled += 1;
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            t.guard_check(
                id32(target),
                id32(divisor),
                guard_tier(&decision),
                decision.passed(),
                decision.exact(),
                nanos(t0),
            );
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
        let delta = SubstStats {
            discovery_proposed: count_missing(&cands, prev),
            enumerate_nanos: nanos(t0),
            ..SubstStats::default()
        };
        self.book(&delta, None);
        cands
    }

    /// One target's visit under the configured acceptance policy. Both
    /// policies evaluate pairs read-only in epochs and commit the winner's
    /// stored plan; see `crate::parallel`.
    fn visit_target(&mut self, target: NodeId) {
        match self.opts.acceptance {
            Acceptance::FirstGain => self.first_gain_visit(target),
            Acceptance::BestGain => self.best_gain_visit(target),
        }
    }

    /// Replaces the cached shadow entry unless it is for this target and
    /// the current network version. A new entry is empty: the first pair
    /// that reaches its division proof builds the snapshot
    /// ([`ShadowEntry::base`]), and the build is booked when a booked pair
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

    /// Books one pair's use of the shadow snapshot: the first use of an
    /// entry is the cache miss (and the traced build), every later one a
    /// hit.
    pub(crate) fn use_shadow(&mut self, target: NodeId, delta: &mut SubstStats) {
        match self.shadow.as_mut() {
            Some(e) if !e.booked => {
                e.booked = true;
                delta.shadow_cache_misses += 1;
                let ns = e.base.get().map_or(0, |(_, ns)| *ns);
                if let Some(t) = self.tracer.as_deref_mut() {
                    t.shadow_build(id32(target), ns);
                }
            }
            _ => delta.shadow_cache_hits += 1,
        }
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
    /// rewrite is rolled back and the pair counted as quarantined. Any
    /// edit, kept or rolled back, is then carried into the side tables and
    /// the signature table. Books into the pair's `delta` (the apply, the
    /// guard and the table patching as apply time, the signature patch as
    /// sim time) and returns the pair's outcome with the committed gain.
    pub(crate) fn commit(
        &mut self,
        target: NodeId,
        divisor: NodeId,
        plan: SubstPlan,
        delta: &mut SubstStats,
    ) -> (Outcome, Option<i64>) {
        let t1 = Instant::now();
        let v0 = self.net.version();
        let old_tgt = self.net.node(target).fanins().to_vec();
        let old_div = self.net.node(divisor).fanins().to_vec();
        let old_bound = self.net.id_bound();
        let accepted = core_outcome(Some(&plan), delta);
        // Checked mode snapshots the minimal pre-state (the two covers
        // this pair can rewrite plus the id bound for minted nodes) so a
        // faulting or guard-refuted apply can be undone in O(changed).
        let snap = self
            .opts
            .checked
            .then(|| TxnSnapshot::capture(self.net, &[target, divisor]));
        let applied = {
            let net = &mut *self.net;
            let apply = || apply_plan(net, plan, delta);
            if snap.is_some() {
                catch_unwind(AssertUnwindSafe(apply)).ok()
            } else {
                Some(apply())
            }
        };
        // A failed apply booked an engine fault and left the network as
        // it was.
        let (mut outcome, mut result) = match applied {
            Some(Some(gain)) => (accepted, Some(gain)),
            Some(None) | None => (Outcome::EngineFault, None),
        };
        if let Some(snap) = &snap {
            if applied.is_none() {
                // A panic escaped the apply, possibly mid-rewrite:
                // restore the pre-state and give the pair up.
                self.recover(snap, delta);
                delta.engine_faults += 1;
                delta.quarantined += 1;
            } else if result.is_some() {
                match self.guard_verdict(snap, target, divisor, delta) {
                    Some(GuardDecision::OutOfTime) => {
                        // The remaining deadline window cannot afford an
                        // exact verdict: undo the unproven rewrite and
                        // latch the interrupt. The pair is innocent (no
                        // quarantine or rejection count) — the clock ran
                        // out, and the sweep exits with a verified
                        // partial result as if the deadline had expired
                        // between attempts.
                        self.recover(snap, delta);
                        delta.interrupted = true;
                        (outcome, result) = (Outcome::GuardRejected, None);
                    }
                    Some(decision) if !decision.passed() => {
                        // The rewrite changed a primary-output function:
                        // undo it and give the pair up, then keep
                        // sweeping.
                        self.recover(snap, delta);
                        delta.guard_rejections += 1;
                        delta.quarantined += 1;
                        (outcome, result) = (Outcome::GuardRejected, None);
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
        delta.apply_nanos += nanos(t1);
        if edited {
            if let Some(sim) = self.sim.as_mut() {
                let ts = Instant::now();
                sim.patch(self.net, &self.side, &[target, divisor]);
                delta.sim_nanos += nanos(ts);
            }
        }
        if result.is_some() {
            delta.discovery_accepted += 1;
        }
        (outcome, result)
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
        engine.first_gain_visit(f);
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
        assert!(stats.passes >= 1);
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

    /// A guard carried over from an earlier job takes this engine's
    /// deadline — here none — instead of keeping its own expired one.
    #[test]
    fn install_guard_replaces_a_reused_guards_deadline() {
        use boolsubst_guard::{GuardConfig, TierPolicy};
        use std::time::Duration;
        let mut net = small_net();
        let reference = net.clone();
        // A random pool only samples, so every check escalates to tier C.
        let config = GuardConfig {
            exhaustive_inputs: 0,
            tier: TierPolicy::Sat,
            ..GuardConfig::default()
        };
        let mut stale = Guard::new(config);
        stale.set_deadline(Some(Instant::now() - Duration::from_secs(1)));
        assert_eq!(
            stale.check(&reference, &reference),
            GuardDecision::OutOfTime
        );
        let opts = SubstOptions {
            guard: config,
            ..SubstOptions::basic().with_checked(true)
        };
        let mut engine = SubstEngine::new(&mut net, opts);
        engine.install_guard(stale);
        let mut guard = engine.take_guard().expect("checked engine");
        assert_eq!(guard.check(&reference, &reference), GuardDecision::PassSat);
    }
}
