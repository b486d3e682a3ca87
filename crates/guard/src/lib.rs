#![warn(missing_docs)]
//! # boolsubst-guard — post-apply equivalence guards for checked substitution
//!
//! Every substitution the engine accepts is supposed to preserve the
//! network's primary-output functions exactly (Lemma 1/2 make the added
//! divisor wire redundant by construction, and redundancy removal deletes
//! only untestable wires). A bug anywhere in that chain — implication,
//! vote-table masking, cube bookkeeping — silently miscompiles the
//! network. This crate is the independent check the checked-apply mode
//! runs *after* each accepted rewrite, against the reconstructed
//! pre-state:
//!
//! * **Tier A (simulation)** — word-parallel signatures of every primary
//!   output over a guard-owned [`PatternPool`], compared pre vs post. For
//!   networks with few inputs the pool is exhaustive, making the tier a
//!   complete equivalence check; otherwise a mismatch is a concrete
//!   counterexample (sound refutation) while a match proves nothing.
//! * **Tier B (exact)** — a shared-manager BDD comparison of the
//!   primary-output functions, run when tier A sampled (inconclusive on a
//!   pass) and the network is small enough to afford it.
//! * **Tier C (SAT)** — a Tseitin miter solved by the CDCL engine in
//!   `boolsubst-sat` under a conflict budget, run when tier B is out of
//!   node budget (BDDs blow up on multiplier-shaped cones where the
//!   miter stays window-sized thanks to structural CNF sharing).
//!
//! Which tiers run is a [`TierPolicy`]; the default [`TierPolicy::Auto`]
//! escalates `sim → BDD(node_limit) → SAT(conflict_budget)` and only
//! degrades to [`GuardDecision::PassSampled`] when every exact backend
//! is out of budget.
//!
//! The guard deliberately re-implements its BDD oracle here rather than
//! calling into `boolsubst-core`: the checked engine lives in core, so the
//! guard must sit *below* it in the crate graph to stay an independent
//! layer (and to keep a core bug from vouching for itself).

use boolsubst_bdd::{Bdd, Ref};
use boolsubst_cube::Phase;
use boolsubst_metrics::{Counter, Histogram, MetricsHandle};
use boolsubst_network::Network;
use boolsubst_sat::miter::EquivResult;
use boolsubst_sat::SatOptions;
use boolsubst_sim::{PatternPool, SimTable};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tunables for the guard pipeline. `Copy` so it can ride inside the
/// engine's options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardConfig {
    /// Signature width of the random pool, in 64-bit words (64 patterns
    /// each). Used when the network has too many inputs for an exhaustive
    /// pool.
    pub words: usize,
    /// Seed for the random pool (deterministic across runs).
    pub seed: u64,
    /// Networks with at most this many primary inputs get an exhaustive
    /// pool, making tier A a complete check (capped at 16 by the pool).
    pub exhaustive_inputs: usize,
    /// Tier B (exact BDD compare) runs only when tier A sampled and the
    /// network has at most this many live nodes. `0` disables tier B.
    pub exact_node_limit: usize,
    /// Cap on the shared BDD manager's node count during a tier B
    /// compare. Network size is a poor proxy for BDD size (a small
    /// multiplier cone explodes where a wide adder stays linear), so the
    /// build itself is budgeted: blowing the cap abandons tier B —
    /// escalating to the tier C miter under [`TierPolicy::Auto`],
    /// degrading to a sampled pass otherwise. `0` means unlimited.
    pub bdd_node_budget: usize,
    /// Which exact tiers may run after tier A samples clean.
    pub tier: TierPolicy,
    /// Tier C solver budget. A zero [`SatOptions::conflict_budget`]
    /// disables tier C even under policies that would run it.
    pub sat: SatOptions,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            words: 4,
            seed: 0x6A5D_0CE1_1B0A_7E0F,
            exhaustive_inputs: 12,
            exact_node_limit: 4096,
            bdd_node_budget: 1 << 18,
            tier: TierPolicy::Auto,
            sat: SatOptions::default(),
        }
    }
}

/// Which exact tier(s) back up the simulation screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierPolicy {
    /// Tier A only: sampled passes are accepted as-is.
    Sim,
    /// `sim → BDD(node_limit)`: the pre-SAT pipeline. Networks over the
    /// node limit degrade to a sampled pass.
    Bdd,
    /// `sim → SAT(conflict_budget)`: skip the BDD compare entirely.
    Sat,
    /// `sim → BDD(node_limit) → SAT(conflict_budget)`: BDDs where they
    /// are cheap, the miter where they are not.
    #[default]
    Auto,
}

impl TierPolicy {
    /// Every policy, in escalation order.
    pub const ALL: [TierPolicy; 4] = [
        TierPolicy::Sim,
        TierPolicy::Bdd,
        TierPolicy::Sat,
        TierPolicy::Auto,
    ];

    /// Stable lowercase label (CLI flag values, JSON rows).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TierPolicy::Sim => "sim",
            TierPolicy::Bdd => "bdd",
            TierPolicy::Sat => "sat",
            TierPolicy::Auto => "auto",
        }
    }

    /// Inverse of [`TierPolicy::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<TierPolicy> {
        TierPolicy::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// How one guard check concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardDecision {
    /// All primary outputs match on an exhaustive pool: exact equivalence.
    PassExhaustive,
    /// Tier A sampled clean and the tier B BDD compare proved equivalence.
    PassExact,
    /// Tier A sampled clean; tier B was out of budget. Not a proof — but
    /// the rewrite also passed the engine's own redundancy reasoning, so
    /// two independent mechanisms now agree.
    PassSampled,
    /// A pool pattern evaluates the named output differently pre vs post:
    /// a concrete counterexample, conclusive regardless of pool kind.
    RefutedSim {
        /// Name of the first mismatching primary output.
        output: String,
    },
    /// The tier B BDD compare found a primary output whose function
    /// changed (on a point the sampled pool missed).
    RefutedExact {
        /// Name of the first mismatching primary output.
        output: String,
    },
    /// Tier A sampled clean and the tier C miter was proved UNSAT:
    /// exact equivalence by SAT.
    PassSat,
    /// The tier C miter is satisfiable: some input assignment (found by
    /// the solver, missed by the pool) distinguishes the named output.
    RefutedSat {
        /// Name of the first mismatching primary output.
        output: String,
    },
    /// The remaining [`Guard::set_deadline`] window could not afford an
    /// exact tier C verdict (or a deadline-capped run came back unknown).
    /// This is a *refusal*, not a sampled pass: the caller must undo the
    /// unproven rewrite and treat the sweep as deadline-interrupted —
    /// degrading to [`GuardDecision::PassSampled`] here would let result
    /// quality silently depend on wall-clock load.
    OutOfTime,
}

impl GuardDecision {
    /// Whether the rewrite may stand.
    #[must_use]
    pub fn passed(&self) -> bool {
        matches!(
            self,
            GuardDecision::PassExhaustive
                | GuardDecision::PassExact
                | GuardDecision::PassSampled
                | GuardDecision::PassSat
        )
    }

    /// Whether the decision is a *proof* of equivalence (exhaustive
    /// pool, BDD, or UNSAT miter), as opposed to a sampled pass.
    #[must_use]
    pub fn exact(&self) -> bool {
        matches!(
            self,
            GuardDecision::PassExhaustive | GuardDecision::PassExact | GuardDecision::PassSat
        )
    }

    /// The tier that produced the decision: `"sim"`, `"bdd"`, `"sat"`,
    /// `"sampled"` (no exact tier had budget), or `"deadline"` (tier C
    /// refused for lack of remaining time). Stable labels, used by the
    /// trace exporters.
    #[must_use]
    pub fn tier_name(&self) -> &'static str {
        match self {
            GuardDecision::PassExhaustive | GuardDecision::RefutedSim { .. } => "sim",
            GuardDecision::PassExact | GuardDecision::RefutedExact { .. } => "bdd",
            GuardDecision::PassSat | GuardDecision::RefutedSat { .. } => "sat",
            GuardDecision::PassSampled => "sampled",
            GuardDecision::OutOfTime => "deadline",
        }
    }
}

/// Stable tier labels in decision-tier index order (matches
/// [`GuardDecision::tier_name`] values).
const TIER_NAMES: [&str; 5] = ["sim", "bdd", "sat", "sampled", "deadline"];

/// Instruments resolved once at [`Guard::attach_metrics`] time: the
/// per-check hot path then only touches atomics. Tier latency
/// histograms are keyed by the tier that *decided* the check, so the
/// sim bucket holds pure-tier-A latencies while the sat bucket holds
/// the full escalated cost.
#[derive(Debug, Clone)]
struct GuardMetrics {
    checks: Counter,
    tier: [Counter; 5],
    check_ns: [Histogram; 5],
    escalations_bdd: Counter,
    escalations_sat: Counter,
    sat_conflicts: Counter,
    sat_restarts: Counter,
    sat_learnt: Counter,
}

impl GuardMetrics {
    fn resolve(handle: &MetricsHandle) -> GuardMetrics {
        GuardMetrics {
            checks: handle.counter("guard.checks"),
            tier: std::array::from_fn(|i| handle.counter(&format!("guard.tier.{}", TIER_NAMES[i]))),
            check_ns: std::array::from_fn(|i| {
                handle.histogram(&format!("guard.check_ns.{}", TIER_NAMES[i]))
            }),
            escalations_bdd: handle.counter("guard.escalations.bdd"),
            escalations_sat: handle.counter("guard.escalations.sat"),
            sat_conflicts: handle.counter("sat.conflicts"),
            sat_restarts: handle.counter("sat.restarts"),
            sat_learnt: handle.counter("sat.learnt_clauses"),
        }
    }
}

/// The guard pipeline: owns its pattern pools (one per input count, built
/// lazily and reused across checks), the tier B BDD manager (reset, not
/// rebuilt, for every check) and a few diagnostic counters.
#[derive(Debug, Clone)]
pub struct Guard {
    config: GuardConfig,
    pools: HashMap<usize, PatternPool>,
    bdd: Bdd,
    checks: u64,
    exact_runs: u64,
    sat_runs: u64,
    sampled_passes: u64,
    sat_skipped_deadline: u64,
    bdd_over_budget: u64,
    /// Wall-clock deadline; see [`Guard::set_deadline`].
    deadline: Option<Instant>,
    /// EWMA of observed tier C cost in nanoseconds per conflict, used to
    /// translate remaining deadline time into an affordable conflict
    /// budget. Seeded conservatively (20 µs/conflict ≈ the miter's
    /// per-node encode + solve overhead on the corpus multipliers) and
    /// refined after every SAT run that spent at least one conflict.
    sat_ns_per_conflict: f64,
    metrics: Option<GuardMetrics>,
}

/// Seed estimate for [`Guard::sat_ns_per_conflict`] before any tier C
/// run has been observed.
const SAT_NS_PER_CONFLICT_SEED: f64 = 20_000.0;

/// Translates a remaining-deadline window into a tier C conflict budget:
/// the configured budget capped by how many conflicts the observed rate
/// says fit into `remaining`. `None` means tier C cannot afford even one
/// conflict (or is disabled) and the caller must degrade.
#[must_use]
pub fn sat_budget_for_deadline(
    configured: u64,
    remaining: Option<Duration>,
    ns_per_conflict: f64,
) -> Option<u64> {
    if configured == 0 {
        return None;
    }
    let Some(remaining) = remaining else {
        return Some(configured);
    };
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let affordable = (remaining.as_nanos() as f64 / ns_per_conflict.max(1.0)) as u64;
    if affordable == 0 {
        return None;
    }
    Some(configured.min(affordable))
}

impl Guard {
    /// Creates a guard with the given tunables.
    #[must_use]
    pub fn new(config: GuardConfig) -> Guard {
        Guard {
            config,
            pools: HashMap::new(),
            bdd: Bdd::new(0),
            checks: 0,
            exact_runs: 0,
            sat_runs: 0,
            sampled_passes: 0,
            sat_skipped_deadline: 0,
            bdd_over_budget: 0,
            deadline: None,
            sat_ns_per_conflict: SAT_NS_PER_CONFLICT_SEED,
            metrics: None,
        }
    }

    /// Sets the wall-clock deadline shared with the surrounding job or
    /// sweep for subsequent checks (`None` until set). When set, the
    /// tier C conflict budget is *derived from the remaining time* before
    /// every SAT run (using the guard's observed nanoseconds-per-conflict
    /// rate), so a single miter check can never overrun the deadline by
    /// more than one conflict's worth of work. When the window cannot
    /// afford even one conflict (or has already passed), the check
    /// returns [`GuardDecision::OutOfTime`]: the rewrite is refused and
    /// the sweep interrupts, rather than quietly degrading the evidence
    /// to a sampled pass.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Attaches a metrics registry: every subsequent check books
    /// `guard.checks`, per-tier decision counts (`guard.tier.<tier>`),
    /// per-tier latency histograms (`guard.check_ns.<tier>`),
    /// escalation counters (`guard.escalations.{bdd,sat}`), and the
    /// tier C solver effort (`sat.{conflicts,restarts,learnt_clauses}`).
    /// Observation only — decisions are identical with or without it.
    pub fn attach_metrics(&mut self, handle: &MetricsHandle) {
        self.metrics = Some(GuardMetrics::resolve(handle));
    }

    /// Number of [`Guard::check`] calls so far.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of checks that escalated to the tier B BDD compare.
    #[must_use]
    pub fn exact_runs(&self) -> u64 {
        self.exact_runs
    }

    /// Number of checks that escalated to the tier C SAT miter.
    #[must_use]
    pub fn sat_runs(&self) -> u64 {
        self.sat_runs
    }

    /// Number of checks that ended in [`GuardDecision::PassSampled`] —
    /// every exact tier was out of budget and the verdict rests on the
    /// random pool alone.
    #[must_use]
    pub fn sampled_passes(&self) -> u64 {
        self.sampled_passes
    }

    /// Number of tier C escalations that returned
    /// [`GuardDecision::OutOfTime`] because the remaining deadline window
    /// could not afford (or complete) a single exact run.
    #[must_use]
    pub fn sat_skipped_deadline(&self) -> u64 {
        self.sat_skipped_deadline
    }

    /// Number of tier B runs abandoned because the BDD build blew
    /// [`GuardConfig::bdd_node_budget`] (each escalated to tier C under
    /// [`TierPolicy::Auto`], or degraded to a sampled pass otherwise).
    #[must_use]
    pub fn bdd_over_budget(&self) -> u64 {
        self.bdd_over_budget
    }

    /// Checks that `post` (the network after an accepted rewrite) still
    /// computes the same primary-output functions as `pre` (the
    /// reconstructed pre-state). The two networks must have identical
    /// primary-input and output declarations — `pre` is a rollback of a
    /// clone of `post`, so the engine guarantees this; a structural
    /// mismatch is reported as a refutation rather than trusted.
    pub fn check(&mut self, pre: &Network, post: &Network) -> GuardDecision {
        let t0 = self.metrics.as_ref().map(|_| Instant::now());
        let decision = self.check_inner(pre, post);
        if let (Some(m), Some(t0)) = (&self.metrics, t0) {
            m.checks.inc();
            let i = TIER_NAMES
                .iter()
                .position(|&t| t == decision.tier_name())
                .expect("known tier");
            m.tier[i].inc();
            m.check_ns[i].observe(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        decision
    }

    fn check_inner(&mut self, pre: &Network, post: &Network) -> GuardDecision {
        self.checks += 1;
        if pre.inputs().len() != post.inputs().len() || pre.outputs().len() != post.outputs().len()
        {
            return GuardDecision::RefutedSim {
                output: "<interface mismatch>".to_string(),
            };
        }

        // Tier A: word-parallel signatures over the shared pool.
        let n = pre.inputs().len();
        let config = self.config;
        let pool = self.pools.entry(n).or_insert_with(|| {
            if n <= config.exhaustive_inputs.min(16) {
                PatternPool::exhaustive(n)
            } else {
                PatternPool::random(n, config.words, 0, config.seed)
            }
        });
        let exhaustive = n <= config.exhaustive_inputs.min(16);
        let pre_table = SimTable::build(pre, pool);
        let post_table = SimTable::build(post, pool);
        let words = pool.words();
        for (k, (name, o)) in pre.outputs().iter().enumerate() {
            let (post_name, post_o) = &post.outputs()[k];
            if name != post_name {
                return GuardDecision::RefutedSim {
                    output: "<interface mismatch>".to_string(),
                };
            }
            let a = pre_table.sig(pre, *o);
            let b = post_table.sig(post, *post_o);
            for w in 0..words {
                if (a[w] ^ b[w]) & pool.mask(w) != 0 {
                    return GuardDecision::RefutedSim {
                        output: name.clone(),
                    };
                }
            }
        }
        if exhaustive {
            return GuardDecision::PassExhaustive;
        }

        // Tier A sampled clean: escalate to whichever exact backend the
        // policy allows and can afford. A path that runs out of *budget*
        // falls through to a (counted) sampled pass; a tier C run that
        // runs out of *deadline* instead refuses with `OutOfTime`, so a
        // loaded machine interrupts the sweep rather than quietly
        // lowering the evidence bar.
        let bdd_affordable =
            self.config.exact_node_limit != 0 && post.len() <= self.config.exact_node_limit;
        let decision = match self.config.tier {
            TierPolicy::Sim => None,
            TierPolicy::Bdd => bdd_affordable.then(|| self.check_bdd(pre, post)).flatten(),
            TierPolicy::Sat => self.check_sat(pre, post),
            TierPolicy::Auto => {
                match bdd_affordable.then(|| self.check_bdd(pre, post)).flatten() {
                    Some(d) => Some(d),
                    // Tier B unaffordable or its build blew the node
                    // budget: fall through to the miter.
                    None => self.check_sat(pre, post),
                }
            }
        };
        decision.unwrap_or_else(|| {
            self.sampled_passes += 1;
            GuardDecision::PassSampled
        })
    }

    /// Tier B: exact BDD compare of the primary-output functions, capped
    /// by [`GuardConfig::bdd_node_budget`]. `None` means the build blew
    /// the budget before reaching a verdict — the caller escalates (Auto)
    /// or degrades to a sampled pass.
    fn check_bdd(&mut self, pre: &Network, post: &Network) -> Option<GuardDecision> {
        self.exact_runs += 1;
        if let Some(m) = &self.metrics {
            m.escalations_bdd.inc();
        }
        match outputs_equal_exact(&mut self.bdd, pre, post, self.config.bdd_node_budget) {
            Ok(None) => Some(GuardDecision::PassExact),
            Ok(Some(output)) => Some(GuardDecision::RefutedExact { output }),
            Err(BddOverBudget) => {
                self.bdd_over_budget += 1;
                None
            }
        }
    }

    /// Tier C: Tseitin miter under the configured conflict budget,
    /// further capped by the remaining deadline time (see
    /// [`Guard::set_deadline`]). Returns `None` when tier C is disabled
    /// or the *configured* budget runs dry — the caller degrades to a
    /// sampled pass. Returns [`GuardDecision::OutOfTime`] when the
    /// *deadline* is what stopped it (expired, cannot afford one
    /// conflict, or a deadline-capped run came back unknown) — the
    /// caller must refuse the rewrite.
    fn check_sat(&mut self, pre: &Network, post: &Network) -> Option<GuardDecision> {
        if self.config.sat.conflict_budget == 0 {
            return None;
        }
        let remaining = match self.deadline {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    self.sat_skipped_deadline += 1;
                    return Some(GuardDecision::OutOfTime);
                }
                Some(d - now)
            }
            None => None,
        };
        let Some(budget) = sat_budget_for_deadline(
            self.config.sat.conflict_budget,
            remaining,
            self.sat_ns_per_conflict,
        ) else {
            self.sat_skipped_deadline += 1;
            return Some(GuardDecision::OutOfTime);
        };
        self.sat_runs += 1;
        let t0 = Instant::now();
        let (result, stats) = boolsubst_sat::check_equivalence_with_stats(
            pre,
            post,
            SatOptions {
                conflict_budget: budget,
            },
        );
        if stats.conflicts > 0 {
            // Refine the time-per-conflict estimate (EWMA, alpha 0.3) so
            // deadline-derived budgets track this workload's real rate.
            #[allow(clippy::cast_precision_loss)]
            let observed = nanos_f64(t0.elapsed()) / stats.conflicts as f64;
            self.sat_ns_per_conflict = 0.7 * self.sat_ns_per_conflict + 0.3 * observed;
        }
        if let Some(m) = &self.metrics {
            m.escalations_sat.inc();
            m.sat_conflicts.add(stats.conflicts);
            m.sat_restarts.add(stats.restarts);
            m.sat_learnt.add(stats.learnt_clauses);
        }
        match result {
            EquivResult::Equivalent => Some(GuardDecision::PassSat),
            EquivResult::Inequivalent { output, .. } => Some(GuardDecision::RefutedSat { output }),
            EquivResult::InterfaceMismatch => Some(GuardDecision::RefutedSat {
                output: "<interface mismatch>".to_string(),
            }),
            // Unknown under the full configured budget is a genuine
            // budget exhaustion (degrade to sampled); unknown under a
            // deadline-shrunk budget means the clock, not the budget,
            // stopped the proof.
            EquivResult::Unknown(_) if budget < self.config.sat.conflict_budget => {
                self.sat_skipped_deadline += 1;
                Some(GuardDecision::OutOfTime)
            }
            EquivResult::Unknown(_) => None,
        }
    }
}

/// `Duration` as f64 nanoseconds (saturating, precision loss accepted
/// for rate estimation).
#[allow(clippy::cast_precision_loss)]
fn nanos_f64(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Marker error: a budgeted BDD build exceeded its node cap before
/// reaching a verdict.
struct BddOverBudget;

/// Shared-manager BDD comparison of primary-output functions, in `bdd`
/// after a [`Bdd::reset`]. Inputs are matched positionally: `pre` is a
/// rolled-back clone of `post`, so input `i` of one *is* input `i` of the
/// other. Returns the name of the first differing output, `None` when all
/// outputs agree, or [`BddOverBudget`] when the manager grew past
/// `node_budget` nodes mid-build (`0` = unlimited; checked after every
/// cube).
fn outputs_equal_exact(
    bdd: &mut Bdd,
    pre: &Network,
    post: &Network,
    node_budget: usize,
) -> Result<Option<String>, BddOverBudget> {
    bdd.reset(pre.inputs().len());
    let limit = (node_budget != 0).then_some(node_budget);
    let mut build = |net: &Network| -> Result<Vec<Option<Ref>>, BddOverBudget> {
        let mut node_fn: Vec<Option<Ref>> = vec![None; net.id_bound()];
        for (i, &pi) in net.inputs().iter().enumerate() {
            node_fn[pi.index()] = Some(bdd.var(i));
        }
        for id in net.topo_order() {
            let node = net.node(id);
            let Some(cover) = node.cover() else { continue };
            let cubes = cover.cubes().iter().map(|cube| {
                cube.lits().map(|l| {
                    let f = node_fn[node.fanins()[l.var].index()].expect("topo order");
                    (f, l.phase == Phase::Pos)
                })
            });
            let f = bdd.sop(cubes, limit).ok_or(BddOverBudget)?;
            node_fn[id.index()] = Some(f);
        }
        Ok(node_fn)
    };
    let pre_fn = build(pre)?;
    let post_fn = build(post)?;
    for (k, (name, o)) in pre.outputs().iter().enumerate() {
        let (_, post_o) = &post.outputs()[k];
        let a = pre_fn[o.index()].expect("driver built");
        let b = post_fn[post_o.index()].expect("driver built");
        if a != b {
            return Ok(Some(name.clone()));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::{parse_sop, Cover, Cube, Lit};
    use boolsubst_network::NodeId;

    fn small_pair() -> (Network, Network) {
        let build = |flip: bool| {
            let mut net = Network::new("g");
            let a = net.add_input("a").expect("a");
            let b = net.add_input("b").expect("b");
            let sop = if flip { "a + b" } else { "ab" };
            let f = net
                .add_node("f", vec![a, b], parse_sop(2, sop).expect("f"))
                .expect("f");
            net.add_output("f", f).expect("of");
            net
        };
        (build(false), build(true))
    }

    /// A 20-input conjunction vs. the same network with the output
    /// constant-0: the functions differ only on the all-ones minterm,
    /// which a 256-pattern random pool misses (seeded, deterministic).
    fn wide_pair() -> (Network, Network) {
        let build = |constant: bool| {
            let mut net = Network::new("wide");
            let pis: Vec<NodeId> = (0..20)
                .map(|k| net.add_input(format!("x{k}")).expect("pi"))
                .collect();
            let cover = if constant {
                boolsubst_cube::Cover::new(20)
            } else {
                let mut cube = boolsubst_cube::Cube::universe(20);
                for v in 0..20 {
                    cube.restrict(boolsubst_cube::Lit::pos(v));
                }
                let mut c = boolsubst_cube::Cover::new(20);
                c.push(cube);
                c
            };
            let f = net.add_node("f", pis, cover).expect("f");
            net.add_output("f", f).expect("of");
            net
        };
        (build(false), build(true))
    }

    #[test]
    fn identical_small_networks_pass_exhaustively() {
        let (pre, _) = small_pair();
        let mut guard = Guard::new(GuardConfig::default());
        assert_eq!(
            guard.check(&pre, &pre.clone()),
            GuardDecision::PassExhaustive
        );
        assert_eq!(guard.checks(), 1);
        assert_eq!(guard.exact_runs(), 0, "exhaustive tier A needs no tier B");
    }

    #[test]
    fn changed_output_function_is_refuted_by_tier_a() {
        let (pre, post) = small_pair();
        let mut guard = Guard::new(GuardConfig::default());
        assert_eq!(
            guard.check(&pre, &post),
            GuardDecision::RefutedSim {
                output: "f".to_string()
            }
        );
    }

    #[test]
    fn sampled_miss_is_caught_by_tier_b() {
        let (pre, post) = wide_pair();
        let mut guard = Guard::new(GuardConfig::default());
        assert_eq!(
            guard.check(&pre, &post),
            GuardDecision::RefutedExact {
                output: "f".to_string()
            },
            "the random pool must miss the all-ones minterm, the BDD must not"
        );
        assert_eq!(guard.exact_runs(), 1);
    }

    #[test]
    fn tier_b_budget_zero_escalates_to_sat_under_auto() {
        let (pre, post) = wide_pair();
        let mut guard = Guard::new(GuardConfig {
            exact_node_limit: 0,
            ..GuardConfig::default()
        });
        assert_eq!(
            guard.check(&pre, &post),
            GuardDecision::RefutedSat {
                output: "f".to_string()
            },
            "with tier B out of budget, Auto must fall through to the miter"
        );
        assert_eq!(guard.exact_runs(), 0);
        assert_eq!(guard.sat_runs(), 1);
    }

    #[test]
    fn bdd_node_budget_blown_escalates_to_sat_under_auto() {
        let (pre, post) = wide_pair();
        let mut guard = Guard::new(GuardConfig {
            bdd_node_budget: 1,
            ..GuardConfig::default()
        });
        assert_eq!(
            guard.check(&pre, &post),
            GuardDecision::RefutedSat {
                output: "f".to_string()
            },
            "a blown BDD build must fall through to the miter, not hang"
        );
        assert_eq!(guard.exact_runs(), 1, "tier B was attempted");
        assert_eq!(guard.bdd_over_budget(), 1);
        assert_eq!(guard.sat_runs(), 1);
    }

    #[test]
    fn bdd_node_budget_blown_degrades_to_sampled_under_bdd_policy() {
        let (pre, post) = wide_pair();
        let mut guard = Guard::new(GuardConfig {
            tier: TierPolicy::Bdd,
            bdd_node_budget: 1,
            ..GuardConfig::default()
        });
        assert_eq!(guard.check(&pre, &post), GuardDecision::PassSampled);
        assert_eq!(guard.bdd_over_budget(), 1);
        assert_eq!(guard.sat_runs(), 0, "Bdd policy must never touch the miter");
    }

    #[test]
    fn all_exact_budgets_zero_degrades_to_sampled_pass() {
        let (pre, post) = wide_pair();
        let mut guard = Guard::new(GuardConfig {
            exact_node_limit: 0,
            sat: SatOptions { conflict_budget: 0 },
            ..GuardConfig::default()
        });
        let decision = guard.check(&pre, &post);
        assert_eq!(decision, GuardDecision::PassSampled);
        assert!(decision.passed());
        assert!(!decision.exact());
        assert_eq!(decision.tier_name(), "sampled");
        assert_eq!(guard.sampled_passes(), 1);
        assert_eq!(guard.sat_runs(), 0);
    }

    #[test]
    fn sat_policy_skips_bdd_and_refutes_by_miter() {
        let (pre, post) = wide_pair();
        let mut guard = Guard::new(GuardConfig {
            tier: TierPolicy::Sat,
            ..GuardConfig::default()
        });
        let decision = guard.check(&pre, &post);
        assert_eq!(
            decision,
            GuardDecision::RefutedSat {
                output: "f".to_string()
            }
        );
        assert!(!decision.passed());
        assert_eq!(decision.tier_name(), "sat");
        assert_eq!(guard.exact_runs(), 0, "Sat policy must never touch the BDD");
        assert_eq!(guard.sat_runs(), 1);
    }

    #[test]
    fn sat_policy_proves_identical_wide_networks() {
        let (pre, _) = wide_pair();
        let mut guard = Guard::new(GuardConfig {
            tier: TierPolicy::Sat,
            ..GuardConfig::default()
        });
        let decision = guard.check(&pre, &pre.clone());
        assert_eq!(decision, GuardDecision::PassSat);
        assert!(decision.passed());
        assert!(decision.exact());
    }

    #[test]
    fn sim_policy_accepts_sampled_pass_without_escalation() {
        let (pre, post) = wide_pair();
        let mut guard = Guard::new(GuardConfig {
            tier: TierPolicy::Sim,
            ..GuardConfig::default()
        });
        assert_eq!(guard.check(&pre, &post), GuardDecision::PassSampled);
        assert_eq!(guard.exact_runs(), 0);
        assert_eq!(guard.sat_runs(), 0);
        assert_eq!(guard.sampled_passes(), 1);
    }

    #[test]
    fn tier_policy_names_round_trip() {
        for policy in TierPolicy::ALL {
            assert_eq!(TierPolicy::from_name(policy.name()), Some(policy));
        }
        assert_eq!(TierPolicy::from_name("nope"), None);
    }

    #[test]
    fn identical_wide_networks_pass_exactly() {
        let (pre, _) = wide_pair();
        let mut guard = Guard::new(GuardConfig::default());
        assert_eq!(guard.check(&pre, &pre.clone()), GuardDecision::PassExact);
    }

    #[test]
    fn expired_deadline_refuses_tier_c_with_out_of_time() {
        let (pre, post) = wide_pair();
        let mut guard = Guard::new(GuardConfig {
            tier: TierPolicy::Sat,
            ..GuardConfig::default()
        });
        guard.set_deadline(Some(Instant::now() - Duration::from_secs(1)));
        let decision = guard.check(&pre, &post);
        assert_eq!(decision, GuardDecision::OutOfTime);
        assert!(!decision.passed(), "OutOfTime must refuse the rewrite");
        assert!(!decision.exact());
        assert_eq!(decision.tier_name(), "deadline");
        assert_eq!(guard.sat_runs(), 0, "expired deadline must not run SAT");
        assert_eq!(guard.sat_skipped_deadline(), 1);
        assert_eq!(guard.sampled_passes(), 0, "a refusal is not a sampled pass");
    }

    #[test]
    fn generous_deadline_still_runs_tier_c() {
        let (pre, post) = wide_pair();
        let mut guard = Guard::new(GuardConfig {
            tier: TierPolicy::Sat,
            ..GuardConfig::default()
        });
        guard.set_deadline(Some(Instant::now() + Duration::from_secs(3600)));
        assert_eq!(
            guard.check(&pre, &post),
            GuardDecision::RefutedSat {
                output: "f".to_string()
            }
        );
        assert_eq!(guard.sat_runs(), 1);
        assert_eq!(guard.sat_skipped_deadline(), 0);
    }

    #[test]
    fn sat_budget_derivation_caps_by_remaining_time() {
        // Disabled budget: never run, deadline or not.
        assert_eq!(sat_budget_for_deadline(0, None, 20_000.0), None);
        assert_eq!(
            sat_budget_for_deadline(0, Some(Duration::from_secs(10)), 20_000.0),
            None
        );
        // No deadline: configured budget passes through untouched.
        assert_eq!(sat_budget_for_deadline(5_000, None, 20_000.0), Some(5_000));
        // Generous remaining time: capped at the configured budget.
        assert_eq!(
            sat_budget_for_deadline(5_000, Some(Duration::from_secs(3600)), 20_000.0),
            Some(5_000)
        );
        // Tight remaining time: capped by what the observed rate affords.
        // 1 ms at 20 µs/conflict affords exactly 50 conflicts.
        assert_eq!(
            sat_budget_for_deadline(5_000, Some(Duration::from_millis(1)), 20_000.0),
            Some(50)
        );
        // Less than one conflict's worth of time: degrade instead of run.
        assert_eq!(
            sat_budget_for_deadline(5_000, Some(Duration::from_nanos(100)), 20_000.0),
            None
        );
    }

    #[test]
    fn set_deadline_retargets_a_reused_guard() {
        let (pre, post) = wide_pair();
        let mut guard = Guard::new(GuardConfig {
            tier: TierPolicy::Sat,
            ..GuardConfig::default()
        });
        guard.set_deadline(Some(Instant::now() - Duration::from_secs(1)));
        assert_eq!(guard.check(&pre, &post), GuardDecision::OutOfTime);
        assert_eq!(guard.sat_skipped_deadline(), 1);
        guard.set_deadline(None);
        assert_eq!(
            guard.check(&pre, &post),
            GuardDecision::RefutedSat {
                output: "f".to_string()
            }
        );
    }

    #[test]
    fn pools_are_cached_per_input_count() {
        let (pre, _) = small_pair();
        let (wide, _) = wide_pair();
        let mut guard = Guard::new(GuardConfig::default());
        guard.check(&pre, &pre.clone());
        guard.check(&wide, &wide.clone());
        guard.check(&pre, &pre.clone());
        assert_eq!(guard.pools.len(), 2);
        assert_eq!(guard.checks(), 3);
    }

    /// `Σ x_i·x_{i+10}` over 20 inputs, one node: under the order
    /// `x0 < … < x19` its BDD needs about 2^11 nodes, built cube by cube.
    fn wide_cover_net() -> Network {
        let mut net = Network::new("wide_cover");
        let pis: Vec<NodeId> = (0..20)
            .map(|k| net.add_input(format!("x{k}")).expect("pi"))
            .collect();
        let cubes = (0..10)
            .map(|i| Cube::from_lits(20, &[Lit::pos(i), Lit::pos(i + 10)]))
            .collect();
        let f = net
            .add_node("f", pis, Cover::from_cubes(20, cubes))
            .expect("f");
        net.add_output("f", f).expect("of");
        net
    }

    #[test]
    fn wide_cover_trips_the_node_budget_mid_node() {
        let net = wide_cover_net();
        let config = GuardConfig {
            tier: TierPolicy::Bdd,
            ..GuardConfig::default()
        };
        let mut unlimited = Guard::new(GuardConfig {
            bdd_node_budget: 0,
            ..config
        });
        assert_eq!(
            unlimited.check(&net, &net.clone()),
            GuardDecision::PassExact
        );
        let whole = unlimited.bdd.node_count();
        assert!(whole > 2000, "the whole cover builds {whole} nodes");

        let mut capped = Guard::new(GuardConfig {
            bdd_node_budget: 64,
            ..config
        });
        assert_eq!(capped.check(&net, &net.clone()), GuardDecision::PassSampled);
        assert_eq!(capped.bdd_over_budget(), 1);
        let stopped = capped.bdd.node_count();
        assert!(
            stopped > 64 && stopped <= 4 * 64,
            "the build must stop within a cube of the budget, not after the \
             whole {whole}-node cover (stopped at {stopped})"
        );
    }

    /// Seeded xorshift64* for the differential test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound as u64) as usize
        }
    }

    /// A cube over `n` variables with `lits` distinct random literals.
    fn random_cube(rng: &mut Rng, n: usize, lits: usize) -> Cube {
        let mut vars: Vec<usize> = (0..n).collect();
        let lits: Vec<Lit> = (0..lits.min(n))
            .map(|_| {
                let v = vars.swap_remove(rng.below(vars.len()));
                if rng.below(3) == 0 {
                    Lit::neg(v)
                } else {
                    Lit::pos(v)
                }
            })
            .collect();
        Cube::from_lits(n, &lits)
    }

    /// A random multi-level network with three outputs. The last is a
    /// wide AND, which makes changes under it rarely observable, so a
    /// small random pool misses many of them.
    fn random_net(rng: &mut Rng, inputs: usize, nodes: usize) -> Network {
        let mut net = Network::new("rnd");
        let mut pool: Vec<NodeId> = (0..inputs)
            .map(|i| net.add_input(format!("x{i}")).expect("pi"))
            .collect();
        for k in 0..=nodes {
            let arity = if k == nodes { 5 } else { 2 + rng.below(3) };
            let mut fanins: Vec<NodeId> = Vec::new();
            while fanins.len() < arity {
                let f = pool[rng.below(pool.len())];
                if !fanins.contains(&f) {
                    fanins.push(f);
                }
            }
            let cubes = if k == nodes {
                vec![random_cube(rng, arity, arity)]
            } else {
                (0..1 + rng.below(3))
                    .map(|_| {
                        let lits = 1 + rng.below(arity);
                        random_cube(rng, arity, lits)
                    })
                    .collect()
            };
            let id = net
                .add_node(format!("n{k}"), fanins, Cover::from_cubes(arity, cubes))
                .expect("node");
            pool.push(id);
        }
        let last = pool.len() - 1;
        for (o, at) in [last - 1, inputs + rng.below(nodes), last]
            .into_iter()
            .enumerate()
        {
            net.add_output(format!("o{o}"), pool[at]).expect("output");
        }
        net
    }

    /// Rewrites the cover of one random node under the wide-AND output.
    /// Even `kind`s preserve the node's function; odd ones (usually)
    /// change it.
    fn rewrite_one_cone(rng: &mut Rng, net: &Network, kind: usize) -> Network {
        let mut out = net.clone();
        let (_, wide) = net.outputs()[2];
        let internal: Vec<NodeId> = std::iter::once(wide)
            .chain(net.tfi(wide))
            .filter(|&id| !net.node(id).is_input())
            .collect();
        let id = internal[rng.below(internal.len())];
        let node = net.node(id);
        let cover = node.cover().expect("internal");
        let n = cover.num_vars();
        let mut cubes = cover.cubes().to_vec();
        let c = rng.below(cubes.len());
        let lits: Vec<Lit> = cubes[c].lits().collect();
        match kind % 6 {
            // Shannon split of a cube on a free variable: c = c·x + c·x'.
            0 => {
                if let Some(v) = (0..n).find(|&v| !lits.iter().any(|l| l.var == v)) {
                    let mut hi = cubes[c].clone();
                    hi.restrict(Lit::pos(v));
                    cubes[c].restrict(Lit::neg(v));
                    cubes.push(hi);
                } else {
                    cubes.reverse();
                }
            }
            // A contained (redundant) cube plus reordering.
            2 => {
                let extra = random_cube(rng, n, n);
                cubes.push(cubes[c].and(&extra));
                cubes.rotate_left(1);
            }
            4 => cubes.reverse(),
            // Drop a literal.
            1 => {
                let keep: Vec<Lit> = lits.iter().skip(1).copied().collect();
                cubes[c] = Cube::from_lits(n, &keep);
            }
            // Flip a literal's phase.
            3 if !lits.is_empty() => {
                let l = lits[rng.below(lits.len())];
                let rest: Vec<Lit> = lits.iter().copied().filter(|x| *x != l).collect();
                let mut cube = Cube::from_lits(n, &rest);
                cube.restrict(l.negated());
                cubes[c] = cube;
            }
            // Drop a cube, or add a literal when there is only one.
            _ => {
                if cubes.len() > 1 {
                    cubes.remove(c);
                } else {
                    cubes[c] = cubes[c].and(&random_cube(rng, n, 1));
                }
            }
        }
        let fanins = node.fanins().to_vec();
        out.replace_function(id, fanins, Cover::from_cubes(n, cubes))
            .expect("same fanins");
        out
    }

    /// ROADMAP's differential guard test: on every check, the exhaustive
    /// tier A verdict, tier B (`TierPolicy::Bdd`) and tier C
    /// (`TierPolicy::Sat`) agree. One guard per tier is reused across
    /// networks of 4 to 12 inputs, so state leaking through a reused
    /// manager or pool would show up as a disagreement.
    #[test]
    fn exhaustive_bdd_and_sat_verdicts_agree_on_random_rewrites() {
        let mut rng = Rng(0x5EED_D1FF);
        let mut exhaustive = Guard::new(GuardConfig::default());
        // A one-word random pool, so tier A misses most subtle changes
        // and the exact tiers have to decide them.
        let sampled = GuardConfig {
            exhaustive_inputs: 0,
            words: 1,
            ..GuardConfig::default()
        };
        let mut bdd = Guard::new(GuardConfig {
            tier: TierPolicy::Bdd,
            ..sampled
        });
        let mut sat = Guard::new(GuardConfig {
            tier: TierPolicy::Sat,
            ..sampled
        });
        let (mut refuted_exact, mut passed_exact, mut refuted_sat) = (0, 0, 0);
        for case in 0..600 {
            let inputs = 4 + rng.below(9);
            let nodes = 6 + rng.below(14);
            let pre = random_net(&mut rng, inputs, nodes);
            let post = rewrite_one_cone(&mut rng, &pre, case);
            let truth = exhaustive.check(&pre, &post);
            assert!(truth.exact() || matches!(truth, GuardDecision::RefutedSim { .. }));
            let b = bdd.check(&pre, &post);
            let s = sat.check(&pre, &post);
            assert_eq!(
                b.passed(),
                truth.passed(),
                "case {case}: {b:?} vs {truth:?}"
            );
            assert_eq!(
                s.passed(),
                truth.passed(),
                "case {case}: {s:?} vs {truth:?}"
            );
            assert!(matches!(b.tier_name(), "sim" | "bdd"), "case {case}: {b:?}");
            assert!(matches!(s.tier_name(), "sim" | "sat"), "case {case}: {s:?}");
            match b {
                GuardDecision::RefutedExact { ref output } => {
                    assert_eq!(
                        truth,
                        GuardDecision::RefutedSim {
                            output: output.clone()
                        }
                    );
                    refuted_exact += 1;
                }
                GuardDecision::PassExact => passed_exact += 1,
                _ => {}
            }
            if matches!(s, GuardDecision::RefutedSat { .. }) {
                refuted_sat += 1;
            }
        }
        assert!(
            refuted_exact >= 8,
            "tier B refuted only {refuted_exact} sampled misses"
        );
        assert!(
            passed_exact >= 200,
            "tier B proved only {passed_exact} rewrites"
        );
        assert!(
            refuted_sat >= 8,
            "tier C refuted only {refuted_sat} sampled misses"
        );
    }
}
