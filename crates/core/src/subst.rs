//! The Boolean substitution driver: sweeps (target, divisor) node pairs,
//! divides with the RAR engine, and greedily accepts any rewrite with a
//! positive factored-literal gain — the paper's three experimental
//! configurations (`basic`, `ext`, `ext-GDC`) plus the POS-form attempts.

use crate::division::{
    basic_divide_covers, divide_region, forced_literal_bound, pos_divide_precomplemented,
    DivisionOptions,
};
use crate::extended::{extended_divide, CoreSelection, ExtendedDivision};
use crate::netcircuit::{network_region, ShadowBase};
use boolsubst_algebraic::{factored_literals, factored_literals_lower_bound, JointSpace};
use boolsubst_cube::{Cover, Cube, Lit, Phase};
use boolsubst_guard::{GuardConfig, TierPolicy};
use boolsubst_network::{Network, NodeId};
use boolsubst_sat::SatOptions;
use boolsubst_sim::{CoverScreen, SimFilter};
use boolsubst_trace::Outcome;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::time::Instant;

/// Which of the paper's configurations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstMode {
    /// Basic division only (divisor used as-is).
    Basic,
    /// Extended division (divisor may be decomposed), local implications.
    Extended,
    /// Extended division with *global* internal don't cares: the
    /// redundancy-removal implications range over the whole circuit.
    ExtendedGdc,
}

impl SubstMode {
    /// Stable lowercase label, matching the CLI's `--mode` values.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SubstMode::Basic => "basic",
            SubstMode::Extended => "ext",
            SubstMode::ExtendedGdc => "ext-gdc",
        }
    }
}

/// When to accept a substitution during the sweep — the paper's
/// implementation is locally greedy ("takes the first division that has a
/// positive gain"), which it blames for the Table V `ext-GDC` anomaly;
/// [`Acceptance::BestGain`] is the ablation alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Acceptance {
    /// Accept the first divisor with positive gain (the paper's policy).
    #[default]
    FirstGain,
    /// Evaluate every divisor for the target, apply only the best.
    BestGain,
}

/// Options for a substitution run (see [`crate::session::Session`]).
///
/// Construct with one of the mode constructors ([`SubstOptions::basic`],
/// [`SubstOptions::extended`], [`SubstOptions::extended_gdc`]) and refine
/// with the `with_*` builder methods:
///
/// ```
/// use boolsubst_core::SubstOptions;
/// let opts = SubstOptions::basic().with_checked(true).with_threads(4);
/// ```
///
/// Deliberately *not* `Copy`, although every field is: each hand-off of
/// the options to a session is an explicit clone.
#[derive(Debug, Clone)]
pub struct SubstOptions {
    /// Configuration (paper: `basic` / `ext` / `ext GDC`).
    pub mode: SubstMode,
    /// Division options (learning depth, exact search, check budget).
    pub division: DivisionOptions,
    /// Acceptance policy (paper: first positive gain).
    pub acceptance: Acceptance,
    /// Checked apply (engine path only): every accepted rewrite is
    /// re-verified by the post-apply guard pipeline against the
    /// reconstructed pre-state, refuted moves are rolled back and the pair
    /// quarantined, and a panic in the apply is rolled back as well
    /// (proof panics are isolated in every mode). On a healthy engine the
    /// guards never fire, so the output is bit-identical to an unchecked
    /// run (`tests/engine_parity.rs`). Default off.
    pub checked: bool,
    /// Guard pipeline tunables for checked mode: which exact tiers may
    /// run (`sim → BDD → SAT`), the BDD node limit, and the SAT conflict
    /// budget. Ignored when [`SubstOptions::checked`] is off.
    pub guard: GuardConfig,
    /// Wall-clock deadline (engine path only): once reached, the sweep
    /// stops between pair attempts and returns the valid partial result
    /// with [`SubstStats::interrupted`] set. Each attempt is atomic, so
    /// the network is never left mid-rewrite. Default none.
    pub deadline: Option<Instant>,
    /// Threads that evaluate an epoch's pairs (engine path only). Every
    /// width runs the same epoch visit: pairs are evaluated read-only,
    /// with per-pair panic isolation, and the winner's plan is applied
    /// once. `1` (the default) drains each epoch on the engine thread
    /// alone; `N > 1` lets a scoped pool of `N - 1` more workers join
    /// epochs of at least 16 pairs. Rewrites and every non-timing
    /// counter are the same at every width
    /// (`tests/parallel_parity.rs`).
    pub threads: NonZeroUsize,
}

/// Divisors with more cubes than this are skipped (and so is a `-d` or
/// POS attempt whose complemented divisor is larger).
pub(crate) const MAX_DIVISOR_CUBES: usize = 24;

/// Pairs whose joint variable space is larger than this are skipped.
pub(crate) const MAX_JOINT_VARS: usize = 48;

/// `NonZeroUsize` from a builder argument, clamping 0 up to 1 — the same
/// forgiving behaviour the old `usize` fields had via `.max(1)`.
fn at_least_one(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero")
}

impl SubstOptions {
    /// The paper's `basic` configuration.
    #[must_use]
    pub fn basic() -> SubstOptions {
        SubstOptions {
            mode: SubstMode::Basic,
            division: DivisionOptions::paper_default(),
            acceptance: Acceptance::FirstGain,
            checked: false,
            guard: GuardConfig::default(),
            deadline: None,
            threads: at_least_one(1),
        }
    }

    /// The paper's `ext.` configuration.
    #[must_use]
    pub fn extended() -> SubstOptions {
        SubstOptions {
            mode: SubstMode::Extended,
            ..SubstOptions::basic()
        }
    }

    /// The paper's `ext. GDC` configuration (global don't cares).
    #[must_use]
    pub fn extended_gdc() -> SubstOptions {
        SubstOptions {
            mode: SubstMode::ExtendedGdc,
            ..SubstOptions::basic()
        }
    }

    /// Sets the acceptance policy ([`Acceptance::FirstGain`] is the
    /// paper's; [`Acceptance::BestGain`] is the ablation alternative).
    #[must_use]
    pub fn with_acceptance(mut self, acceptance: Acceptance) -> SubstOptions {
        self.acceptance = acceptance;
        self
    }

    /// Enables or disables checked apply (guard re-verification, rollback,
    /// quarantine, panic isolation).
    #[must_use]
    pub fn with_checked(mut self, checked: bool) -> SubstOptions {
        self.checked = checked;
        self
    }

    /// Sets which exact guard tiers may run after the simulation screen
    /// (`sim` / `bdd` / `sat` / `auto`).
    #[must_use]
    pub fn with_guard_tier(mut self, tier: TierPolicy) -> SubstOptions {
        self.guard.tier = tier;
        self
    }

    /// Sets the tier C conflict budget; `0` disables the SAT tier.
    #[must_use]
    pub fn with_sat_conflicts(mut self, conflicts: u64) -> SubstOptions {
        self.guard.sat = SatOptions {
            conflict_budget: conflicts,
        };
        self
    }

    /// Sets a wall-clock deadline for the sweep. The engine hands the
    /// same instant to its guard so a tier C SAT check derives its
    /// conflict budget from the remaining time — one miter can never
    /// overrun the deadline the sweep is checking between attempts.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> SubstOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the thread count for epoch evaluation; `0` is clamped to
    /// `1` (the engine thread alone).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> SubstOptions {
        self.threads = at_least_one(threads);
        self
    }

    /// Replaces the division options (learning depth, budgets).
    #[must_use]
    pub fn with_division(mut self, division: DivisionOptions) -> SubstOptions {
        self.division = division;
        self
    }
}

/// The paper's three experimental configurations — `basic`, `ext`, and
/// `ext-GDC` — as one canonical list. Tests and benches iterate over this
/// instead of hand-copying option triples, so a new default knob lands in
/// every parity matrix automatically.
#[must_use]
pub fn all_configs() -> [SubstOptions; 3] {
    [
        SubstOptions::basic(),
        SubstOptions::extended(),
        SubstOptions::extended_gdc(),
    ]
}

/// One sweep counter's value, as [`SubstStats::fields`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatValue {
    /// An unsigned count, or `interrupted` as 0 or 1: never decreases
    /// within a run.
    Count(u64),
    /// A signed total (`literal_gain`).
    Signed(i64),
}

/// How a field type of [`SubstStats`] merges and reads out.
trait StatField: Copy {
    fn merge(&mut self, other: Self);
    fn value(self) -> StatValue;
}

impl StatField for usize {
    fn merge(&mut self, other: usize) {
        *self = self.saturating_add(other);
    }
    fn value(self) -> StatValue {
        StatValue::Count(u64::try_from(self).unwrap_or(u64::MAX))
    }
}

impl StatField for u64 {
    fn merge(&mut self, other: u64) {
        *self = self.saturating_add(other);
    }
    fn value(self) -> StatValue {
        StatValue::Count(self)
    }
}

impl StatField for i64 {
    fn merge(&mut self, other: i64) {
        *self = self.saturating_add(other);
    }
    fn value(self) -> StatValue {
        StatValue::Signed(self)
    }
}

impl StatField for bool {
    fn merge(&mut self, other: bool) {
        *self |= other;
    }
    fn value(self) -> StatValue {
        StatValue::Count(u64::from(self))
    }
}

/// Declares [`SubstStats`] from its one field list, and from the same
/// list its [`SubstStats::merge`] and [`SubstStats::fields`]: a new sweep
/// counter is one line of the struct, and the metrics registry picks it
/// up under `engine.<field>`.
macro_rules! sweep_counters {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl $name {
            /// Accumulates `other` into `self` field by field: counts and
            /// times add, saturating on overflow, and `interrupted` is
            /// or-ed. Lets callers combine runs (benchmark reps, the
            /// three paper modes).
            pub fn merge(&mut self, other: &$name) {
                $(StatField::merge(&mut self.$field, other.$field);)*
            }

            /// Every field as `(name, value)`, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, StatValue)> {
                [$((stringify!($field), StatField::value(self.$field))),*].into_iter()
            }
        }
    };
}

sweep_counters! {
    /// Statistics of a substitution run, with stage-level observability.
    ///
    /// The acceptance-relevant fields (`substitutions`, `pos_substitutions`,
    /// `extended_decompositions`, `literal_gain`, `divisions_tried`) are
    /// identical between [`crate::session::Session`] (the engine path) and
    /// [`boolean_substitute_legacy`] under either [`Acceptance`] policy.
    /// The stage counters describe
    /// *how* each path got there and differ by construction: the legacy sweep
    /// enumerates every (target, divisor) pair and rejects most of them one
    /// filter at a time, while the engine enumerates only the fanouts of the
    /// target's fanins and never surfaces the rest.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct SubstStats {
        /// Division attempts (pairs surviving every filter).
        pub divisions_tried: usize,
        /// Accepted rewrites of every form: SOP, product-of-sum and
        /// extended. The next two fields count subsets of these.
        pub substitutions: usize,
        /// Accepted substitutions in product-of-sum form.
        pub pos_substitutions: usize,
        /// Extended divisions that decomposed a divisor.
        pub extended_decompositions: usize,
        /// Total factored-literal gain.
        pub literal_gain: i64,
        /// Divisor candidates enumerated across every target visit (the top
        /// of the funnel: proposed → proofs-run → accepted).
        pub discovery_proposed: usize,
        /// Proposed pairs that survived every cheap filter and reached the
        /// division proof.
        pub discovery_proofs_run: usize,
        /// Proposed pairs whose division proof succeeded and whose rewrite was
        /// committed (equals `substitutions` on the engine path).
        pub discovery_accepted: usize,
        /// Candidate pairs individually examined.
        pub candidates_enumerated: usize,
        /// Pairs rejected as self/input/existing-fanin pairs.
        pub filtered_structural: usize,
        /// Pairs rejected because the divisor lies in the target's transitive
        /// fanout (substituting would create a cycle).
        pub filtered_tfo: usize,
        /// Pairs rejected by the divisor cube-count bound.
        pub filtered_divisor_size: usize,
        /// Pairs rejected by the joint-variable-space bound.
        pub filtered_joint_space: usize,
        /// Pairs rejected because the supports do not overlap (legacy path
        /// only — the engine's enumeration implies overlap).
        pub filtered_support: usize,
        /// Fault checks run by whole-network (GDC) redundancy removal.
        pub rar_checks: usize,
        /// GDC attempts that reused the per-target shadow-circuit snapshot.
        pub shadow_cache_hits: usize,
        /// GDC shadow-circuit snapshots built from scratch.
        pub shadow_cache_misses: usize,
        /// Pairs screened by the simulation filter (engine path: the
        /// legacy sweep never screens).
        pub sim_pairs_screened: usize,
        /// Pairs rejected purely by signature witnesses — every applicable
        /// strategy refuted, no proof work run.
        pub sim_pairs_refuted: usize,
        /// Pairs the screen let through to at least one proof stage that the
        /// full check then rejected anyway.
        pub sim_false_passes: usize,
        /// Pairs on which the forced-literal bound
        /// ([`crate::forced_literal_bound`]) skipped at least one strategy the
        /// screen had not refuted: no cover of the target through the divisor
        /// could beat its literal count.
        pub local_bound_skips: usize,
        /// Dividend cubes whose extended-division fault checks were skipped:
        /// the vote table is seeded only from wires surviving the screen.
        pub sim_ext_wires_skipped: usize,
        /// Checked-mode signature audits: the pair's two rows recomputed from
        /// their fanins and compared with the table, once per pair that
        /// passed the cheap filters, live or speculated.
        pub sim_audits: usize,
        /// Wall time enumerating targets and candidates (engine path).
        pub enumerate_nanos: u64,
        /// Wall time in the cheap per-pair filters (engine path).
        pub filter_nanos: u64,
        /// Wall time dividing and evaluating gains (engine path). It
        /// includes the sim-screen time spent inside a pair's division,
        /// which `sim_nanos` also counts, so the two overlap; the pair
        /// record books that time under Sim only.
        pub divide_nanos: u64,
        /// Wall time patching side tables after acceptances (engine path).
        pub apply_nanos: u64,
        /// Wall time screening pairs, refining the pool, and patching
        /// signatures (engine path). The per-pair screen also falls
        /// inside `divide_nanos`.
        pub sim_nanos: u64,
        /// Accepted rewrites the checked-mode guard refuted and rolled back.
        pub guard_rejections: usize,
        /// Checked-mode guard verdicts that degraded to a sampled pass: every
        /// exact tier (BDD, SAT) was out of budget, so the rewrite stands on
        /// the random pool alone. Zero means every accepted rewrite was
        /// *proved* equivalence-preserving.
        pub guard_pass_sampled: usize,
        /// Checked-mode guard checks that escalated to the tier C SAT miter.
        pub guard_sat_runs: usize,
        /// Checked rewrites whose verdict needed the whole-network compare:
        /// every GDC rewrite, and any other whose cut compare did not
        /// prove it (DESIGN.md §12).
        pub guard_network_checks: usize,
        /// Per-pair faults survived in checked mode: panics caught and rolled
        /// back, typed apply errors, and detected signature corruption.
        pub engine_faults: usize,
        /// (target, divisor) pairs given up after a guard rejection or an
        /// engine fault. A plain count: a pass settles each pair once, so no
        /// pair is met again to be skipped.
        pub quarantined: usize,
        /// Divisions whose redundancy removal stopped early on the per-pair
        /// check budget ([`DivisionOptions::max_checks`]).
        pub check_budget_exhausted: usize,
        /// The run stopped early on [`SubstOptions::deadline`]: the network is
        /// valid and equivalent, but the sweep did not finish.
        pub interrupted: bool,
    }
}

impl SubstStats {
    /// Clears the acceptance counters of one pair's delta, keeping its
    /// work counters: the pair's division work really happened, but its
    /// rewrite was rolled back or lost to a better one.
    pub(crate) fn clear_acceptance(&mut self) {
        self.substitutions = 0;
        self.pos_substitutions = 0;
        self.extended_decompositions = 0;
        self.literal_gain = 0;
    }
}

impl fmt::Display for SubstStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn ms(nanos: u64) -> f64 {
            nanos as f64 / 1.0e6
        }
        writeln!(f, "substitution statistics")?;
        writeln!(
            f,
            "  candidates proposed    {:>8}  (proofs-run {}, accepted {})",
            self.discovery_proposed, self.discovery_proofs_run, self.discovery_accepted,
        )?;
        writeln!(
            f,
            "  candidates examined    {:>8}",
            self.candidates_enumerated
        )?;
        writeln!(
            f,
            "  filtered               {:>8}  (structural {}, tfo {}, divisor-size {}, joint-space {}, support {})",
            self.filtered_structural
                + self.filtered_tfo
                + self.filtered_divisor_size
                + self.filtered_joint_space
                + self.filtered_support,
            self.filtered_structural,
            self.filtered_tfo,
            self.filtered_divisor_size,
            self.filtered_joint_space,
            self.filtered_support,
        )?;
        writeln!(
            f,
            "  divisions tried        {:>8}  (local-bound skips {})",
            self.divisions_tried, self.local_bound_skips,
        )?;
        writeln!(
            f,
            "  accepted               {:>8}  (pos {}, extended {})",
            self.substitutions, self.pos_substitutions, self.extended_decompositions,
        )?;
        writeln!(f, "  literal gain           {:>8}", self.literal_gain)?;
        writeln!(f, "  RAR checks (GDC)       {:>8}", self.rar_checks)?;
        writeln!(
            f,
            "  shadow circuit         {:>8}  hits / {} misses",
            self.shadow_cache_hits, self.shadow_cache_misses,
        )?;
        writeln!(
            f,
            "  sim screen             {:>8}  (refuted {}, false-pass {}, ext-wires skipped {})",
            self.sim_pairs_screened,
            self.sim_pairs_refuted,
            self.sim_false_passes,
            self.sim_ext_wires_skipped,
        )?;
        if self.sim_audits > 0 {
            writeln!(f, "  sim audits (checked)   {:>8}", self.sim_audits)?;
        }
        if self.guard_rejections
            + self.engine_faults
            + self.quarantined
            + self.check_budget_exhausted
            + self.guard_pass_sampled
            + self.guard_sat_runs
            + self.guard_network_checks
            > 0
            || self.interrupted
        {
            writeln!(
                f,
                "  checked apply          {:>8}  guard-rejected (faults {}, quarantined {}, budget-stops {}{})",
                self.guard_rejections,
                self.engine_faults,
                self.quarantined,
                self.check_budget_exhausted,
                if self.interrupted { ", INTERRUPTED" } else { "" },
            )?;
            writeln!(
                f,
                "  guard escalation       {:>8}  sat-tier runs, {} sampled passes, {} network checks",
                self.guard_sat_runs, self.guard_pass_sampled, self.guard_network_checks,
            )?;
        }
        write!(
            f,
            "  time (ms)              enumerate {:.2}, filter {:.2}, divide {:.2}, apply {:.2}, sim {:.2}",
            ms(self.enumerate_nanos),
            ms(self.filter_nanos),
            ms(self.divide_nanos),
            ms(self.apply_nanos),
            ms(self.sim_nanos),
        )
    }
}

/// Projects a cover onto its support: drops unused variables and returns
/// the surviving fanins (`fanins[v]` for each support variable `v`) plus
/// the remapped cover.
fn project(cover: &Cover, fanins: &[NodeId]) -> (Vec<NodeId>, Cover) {
    let support = cover.support();
    let kept: Vec<NodeId> = support.iter().map(|&v| fanins[v]).collect();
    let mut map = vec![0usize; cover.num_vars()];
    for (new_idx, &v) in support.iter().enumerate() {
        map[v] = new_idx;
    }
    let remapped = cover.remapped(kept.len(), &map);
    (kept, remapped)
}

/// `q·x + r` over one more variable than `q` and `r` have: `x` is the new
/// last variable, in `phase`.
fn times_new_var(quotient: &Cover, remainder: &Cover, phase: Phase) -> Cover {
    let n = quotient.num_vars();
    let mut out = Cover::new(n + 1);
    for c in quotient.cubes() {
        let mut c = c.extended(n + 1);
        c.restrict(Lit { var: n, phase });
        out.push(c);
    }
    out.extend_cover(&remainder.extended(n + 1));
    out
}

/// `space`'s variables followed by `extra`: the fanins of a cover built
/// by [`times_new_var`] over the joint space.
fn fanins_with(space_vars: &[NodeId], extra: NodeId) -> Vec<NodeId> {
    let mut fanins = space_vars.to_vec();
    fanins.push(extra);
    fanins
}

/// Builds the new cover for `target` after substitution: `q·x + r` over
/// `space ∪ {divisor}`, pruning unused variables. Returns (fanins, cover).
fn assemble(
    space: &JointSpace,
    divisor: NodeId,
    quotient: &Cover,
    remainder: &Cover,
    divisor_phase: Phase,
) -> (Vec<NodeId>, Cover) {
    let mut new_cover = times_new_var(quotient, remainder, divisor_phase);
    new_cover.remove_contained_cubes();
    project(&new_cover, &fanins_with(&space.vars, divisor))
}

/// Factored-literal count of `target`'s cover. A target without a cover
/// is a primary input, which the filters reject; counting it as 0 turns
/// the impossible case into a safe reject (no cover has negative gain).
fn target_literals(net: &Network, target: NodeId) -> i64 {
    net.node(target)
        .cover()
        .map_or(0, |old| factored_literals(old) as i64)
}

/// Gain of replacing a cover of `old` factored literals by `new_cover`.
/// Returns before factoring when the literal lower bound already rules
/// out a positive gain; the value is then not the exact gain, but it is
/// still non-positive, which is all callers test.
fn factored_gain(old: i64, new_cover: &Cover) -> i64 {
    let bound = factored_literals_lower_bound(new_cover) as i64;
    if bound >= old {
        return old - bound;
    }
    old - factored_literals(new_cover) as i64
}

/// The divisor-independent forms of a dividend: the target's old
/// factored-literal count and the complement of its cover. The engine
/// keeps one per target visit, keyed on `(target, net.version())` like
/// the GDC shadow, so every divisor of the visit shares them; both are
/// computed on first use. Speculation reads the same instance from every
/// worker.
pub(crate) struct TargetForms {
    pub(crate) target: NodeId,
    pub(crate) version: u64,
    old_literals: OnceLock<i64>,
    /// The target's fanins, sorted, and its complement over them.
    complement: OnceLock<(Vec<NodeId>, Cover)>,
}

impl TargetForms {
    /// Forms of `target` at the network's current version.
    pub(crate) fn new(net: &Network, target: NodeId) -> TargetForms {
        TargetForms {
            target,
            version: net.version(),
            old_literals: OnceLock::new(),
            complement: OnceLock::new(),
        }
    }

    fn old_literals(&self, net: &Network) -> i64 {
        *self
            .old_literals
            .get_or_init(|| target_literals(net, self.target))
    }

    /// The target's complement expressed in `space`, which holds all of
    /// its fanins. Complemented once in the sorted-fanin space; the
    /// remap into `space` is monotone, and complementing commutes with
    /// a monotone remap, so this equals complementing in `space`.
    fn complement_in(&self, net: &Network, space: &JointSpace) -> Cover {
        let (vars, compl) = self.complement.get_or_init(|| {
            let own = JointSpace::union_of_fanins(net, &[self.target]);
            let compl = own.cover_of(net, self.target).complement();
            (own.vars, compl)
        });
        let map: Vec<usize> = vars
            .iter()
            .map(|&v| space.index_of(v).expect("fanin missing from joint space"))
            .collect();
        compl.remapped(space.len(), &map)
    }
}

/// How the GDC mode materializes the whole-network circuit for one
/// division attempt.
pub(crate) enum GdcScope<'a> {
    /// Rebuild the circuit from scratch per attempt (the pre-engine
    /// behaviour, kept as the parity baseline).
    Rebuild,
    /// Clone a per-target snapshot and patch only the dirty region.
    Shadow(&'a ShadowBase),
}

/// One substitution attempt of `divisor` into `target` with the legacy
/// per-pair filters. Applies the first strategy with positive gain (the
/// paper's locally greedy acceptance) and returns the gain, or `None` if
/// nothing helped.
pub(crate) fn try_pair(
    net: &mut Network,
    target: NodeId,
    divisor: NodeId,
    opts: &SubstOptions,
    stats: &mut SubstStats,
) -> Option<i64> {
    stats.candidates_enumerated += 1;
    if target == divisor
        || net.node(target).is_input()
        || net.node(divisor).is_input()
        || net.node(target).fanins().contains(&divisor)
    {
        stats.filtered_structural += 1;
        return None;
    }
    if net.in_tfo(divisor, target) {
        stats.filtered_tfo += 1;
        return None;
    }
    let Some(d_cover_len) = net.node(divisor).cover().map(Cover::len) else {
        // Unreachable after the is_input filter; reject rather than panic.
        stats.filtered_structural += 1;
        return None;
    };
    if d_cover_len == 0 || d_cover_len > MAX_DIVISOR_CUBES {
        stats.filtered_divisor_size += 1;
        return None;
    }
    let space = JointSpace::union_of_fanins(net, &[target, divisor]);
    if space.len() > MAX_JOINT_VARS {
        stats.filtered_joint_space += 1;
        return None;
    }
    // Cheap relevance filter: supports must overlap.
    let t_fanins = net.node(target).fanins();
    if !net
        .node(divisor)
        .fanins()
        .iter()
        .any(|f| t_fanins.contains(f))
    {
        stats.filtered_support += 1;
        return None;
    }
    let plan = plan_pair_core(
        net,
        target,
        divisor,
        &space,
        opts,
        stats,
        &GdcScope::Rebuild,
        None,
        None,
    )?;
    apply_plan(net, plan, stats)
}

/// Books a typed apply failure (a `replace_function`/plan error that
/// previously aborted the process) as an engine fault and rejects the
/// pair. Every such site is validate-then-mutate or internally rolled
/// back, so the network is unchanged when this runs.
fn fault_reject(stats: &mut SubstStats) -> Option<i64> {
    stats.engine_faults += 1;
    None
}

/// How a pair that reached the division core ended, decided once for the
/// live and the speculative path: the plan's kind when one was produced,
/// otherwise a fault, a pure signature refutation, or no gain, read off
/// the pair's own stat delta.
pub(crate) fn core_outcome(plan: Option<&SubstPlan>, delta: &SubstStats) -> Outcome {
    match plan {
        Some(SubstPlan::Replace {
            kind: PlanKind::Pos,
            ..
        }) => Outcome::AcceptedPos,
        Some(SubstPlan::Replace { .. }) => Outcome::AcceptedSop,
        Some(SubstPlan::Extended(_)) => Outcome::AcceptedExtended,
        None if delta.engine_faults > 0 => Outcome::EngineFault,
        None if delta.sim_pairs_refuted > 0 => Outcome::RejectedSimRefuted,
        None => Outcome::RejectedNoGain,
    }
}

/// What kind of single-node rewrite a [`SubstPlan::Replace`] is — decides
/// the stat counters, the pair's outcome, and (for the chaos harness)
/// which fault-injection sites fire on apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanKind {
    /// SOP division by the divisor as-is (basic or GDC scope).
    Sop,
    /// SOP division by the divisor's complement.
    SopCompl,
    /// Product-of-sums-form substitution.
    Pos,
}

/// A fully evaluated substitution decision, produced read-only by
/// [`plan_pair_core`] and applied by [`apply_plan`]. Splitting planning
/// from application is what lets the parallel sweep speculate proofs on
/// shared `&Network` references and serialize only the commits.
pub(crate) enum SubstPlan {
    /// Replace `target`'s function with `cover` over `fanins`.
    Replace {
        /// Node being rewritten.
        target: NodeId,
        /// New fanin list (projected to the cover's support).
        fanins: Vec<NodeId>,
        /// New cover for `target`.
        cover: Cover,
        /// Factored-literal gain (strictly positive).
        gain: i64,
        /// Which strategy produced the rewrite.
        kind: PlanKind,
    },
    /// Extended division: create a core node and rewrite both the target
    /// and the divisor.
    Extended(ExtendedPlan),
}

impl SubstPlan {
    /// The plan's factored-literal gain (strictly positive by
    /// construction).
    pub(crate) fn gain(&self) -> i64 {
        match self {
            SubstPlan::Replace { gain, .. } => *gain,
            SubstPlan::Extended(plan) => plan.gain,
        }
    }
}

/// The read-only half of a substitution attempt: divides `target` by
/// `divisor` over the precomputed joint `space`, evaluating every division
/// strategy in the fixed order (SOP, complement-SOP, extended, POS), and
/// returns the first plan with positive factored-literal gain — without
/// mutating the network. Callers guarantee the pair already passed the
/// structural, cycle, size, and support-overlap filters, and apply the
/// plan with [`apply_plan`]. Because planning never mutates, "first
/// strategy that would be applied" and "first strategy with positive
/// gain" are the same thing.
///
/// When `sim` is given, the dividend is screened against the divisor's
/// simulation signature first and refuted strategies skip their proof
/// work. The engine always passes its filter; only the legacy `try_pair`,
/// the unscreened reference, passes none. The screen is refute-only (a
/// witness pattern is a concrete counterexample), so every skipped
/// strategy would have returned no gain anyway: the accepted rewrites —
/// and the pinned acceptance stats — are identical with and without a
/// filter.
///
/// Before any proof, [`forced_literal_bound`] may show that no SOP, `-d`
/// or POS rewrite can beat the target's literal count; those strategies
/// are then skipped, which likewise leaves the accepted rewrites as they
/// were.
///
/// `forms` carries the target's per-visit [`TargetForms`]; without them
/// (the legacy `try_pair`) the old literal count and the complement are
/// computed here, per call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_pair_core(
    net: &Network,
    target: NodeId,
    divisor: NodeId,
    space: &JointSpace,
    opts: &SubstOptions,
    stats: &mut SubstStats,
    gdc: &GdcScope<'_>,
    forms: Option<&TargetForms>,
    sim: Option<&SimFilter>,
) -> Option<SubstPlan> {
    #[cfg(feature = "chaos")]
    crate::chaos::maybe_panic(crate::chaos::PanicSite::PairEntry);
    let f = space.cover_of(net, target);
    let d = space.cover_of(net, divisor);
    stats.divisions_tried += 1;
    let old_literals = forms.map_or_else(|| target_literals(net, target), |t| t.old_literals(net));

    // Refute-only screen of the SOP dividend: per cube, a witness pattern
    // with cube = 1 ∧ d = 0 disproves containment in any divisor cube
    // (kills the kept split of basic/GDC division and the cube's vote-table
    // row); cube = 1 ∧ d = 1 disproves containment in the complement.
    let screen = sim.map(|s| {
        let t0 = Instant::now();
        let sc = s.screen_cover(net, &f, &space.vars, divisor);
        stats.sim_nanos += crate::engine::nanos(t0);
        stats.sim_pairs_screened += 1;
        sc
    });
    let skip_sop = screen
        .as_ref()
        .is_some_and(CoverScreen::refutes_containment_in_divisor);
    let skip_compl = screen
        .as_ref()
        .is_some_and(CoverScreen::refutes_containment_in_complement);
    // Forced-literal bound: when no cover F(X, x_d) with F(x, d(x)) = f(x)
    // has fewer literals than the target, the SOP (outside ext-GDC), `-d`
    // and POS strategies cannot gain and are skipped. GDC SOP uses don't
    // cares, and extended division also rewrites the divisor, so the
    // bound does not cover either. It runs before any POS work, so a
    // bounded pair always skips POS, which the screen has not seen:
    // such a pair counts as a pass of the screen, never as a refutation.
    let bounded = forced_literal_bound(&f, &d).is_some_and(|b| b as i64 >= old_literals);
    stats.local_bound_skips += usize::from(bounded);
    // Whether the screen let the pair through to a proof or to the bound;
    // a pair it never let through is a pure signature refutation.
    let mut passed = bounded;

    // --- SOP basic division (local or GDC scope) ---
    let division = if skip_sop {
        None
    } else if opts.mode == SubstMode::ExtendedGdc {
        passed = true;
        divide_in_network(
            net,
            target,
            divisor,
            space,
            &f,
            &d,
            &opts.division,
            gdc,
            stats,
        )
    } else if bounded {
        None
    } else {
        passed = true;
        let r = basic_divide_covers(&f, &d, &opts.division);
        stats.check_budget_exhausted += usize::from(r.budget_exhausted);
        r.succeeded().then_some((r.quotient, r.remainder))
    };
    if let Some((quotient, remainder)) = division {
        #[cfg(feature = "chaos")]
        let quotient = crate::chaos::corrupt_quotient(quotient);
        let (fanins, cover) = assemble(space, divisor, &quotient, &remainder, Phase::Pos);
        let gain = factored_gain(old_literals, &cover);
        if gain > 0 {
            #[cfg(feature = "chaos")]
            let cover = crate::chaos::corrupt_cover(cover);
            return Some(SubstPlan::Replace {
                target,
                fanins,
                cover,
                gain,
                kind: PlanKind::Sop,
            });
        }
    }

    // --- SOP division by the divisor's complement (the `-d` flavour) ---
    // The complement is shared with the POS attempt below; divisors are
    // capped at `MAX_DIVISOR_CUBES`, so it is the cheap one of the pair.
    let mut d_compl_cache: Option<Cover> = None;
    if !skip_compl && !bounded {
        let d_compl = &*d_compl_cache.insert(d.complement());
        if !d_compl.is_empty() && d_compl.len() <= MAX_DIVISOR_CUBES {
            passed = true;
            let r = basic_divide_covers(&f, d_compl, &opts.division);
            stats.check_budget_exhausted += usize::from(r.budget_exhausted);
            if r.succeeded() {
                let (fanins, cover) =
                    assemble(space, divisor, &r.quotient, &r.remainder, Phase::Neg);
                let gain = factored_gain(old_literals, &cover);
                if gain > 0 {
                    return Some(SubstPlan::Replace {
                        target,
                        fanins,
                        cover,
                        gain,
                        kind: PlanKind::SopCompl,
                    });
                }
            }
        }
    }

    // --- Extended division: decompose the divisor ---
    // A fully refuted dividend (skip_sop) cannot have any sos-valid
    // vote-table row, so extended division is skipped outright; otherwise
    // refuted cubes are masked out of the fault-check work.
    if opts.mode != SubstMode::Basic && !skip_sop {
        passed = true;
        let mask = screen.as_ref().map(|sc| {
            stats.sim_ext_wires_skipped += sc.wit_div0.iter().filter(|&&w| w).count();
            sc.wit_div0.as_slice()
        });
        let ext = extended_divide(&f, &d, &opts.division, CoreSelection::default(), mask);
        if let Some(ext) = ext {
            stats.check_budget_exhausted += usize::from(ext.division.budget_exhausted);
            // Core == whole divisor means basic already covered it.
            if ext.core_cube_indices.len() < d.len() && ext.division.succeeded() {
                if let Some(plan) =
                    plan_extended(net, target, divisor, space, &d, &ext, old_literals)
                {
                    return Some(SubstPlan::Extended(plan));
                }
            }
        }
    }

    // --- POS-form attempt ---
    if !bounded {
        let fc = forms.map_or_else(|| f.complement(), |t| t.complement_in(net, space));
        let dc = d_compl_cache.unwrap_or_else(|| d.complement());
        if !dc.is_empty() && dc.len() <= MAX_DIVISOR_CUBES && fc.len() <= 4 * f.len().max(4) {
            // POS divides f' by d'. A kept cube of f' must lie inside a
            // cube of d', so a witness with f'-cube = 1 ∧ d = 1 refutes it
            // (a d'-cube at 1 forces d = 0): screening f' against d with
            // the div1 witnesses screens the POS kept split exactly.
            let pos_refuted = sim.is_some_and(|s| {
                let t0 = Instant::now();
                let sc = s.screen_cover(net, &fc, &space.vars, divisor);
                stats.sim_nanos += crate::engine::nanos(t0);
                sc.refutes_containment_in_complement()
            });
            if pos_refuted {
                return finish_unhelped(stats, sim.is_some(), passed);
            }
            passed = true;
            let r = pos_divide_precomplemented(&fc, &dc, &opts.division);
            stats.check_budget_exhausted += usize::from(r.budget_exhausted);
            if r.succeeded() {
                // f = (d + q)·r ⇔ f' = d'·q̃ + r̃; rebuild f as the
                // complement of the divided complement, with x_d'.
                let new_cover =
                    times_new_var(&r.quotient_compl, &r.remainder_compl, Phase::Neg).complement();
                if new_cover.len() <= 4 * f.len().max(4) {
                    let (fanins, new_cover) =
                        project(&new_cover, &fanins_with(&space.vars, divisor));
                    let gain = factored_gain(old_literals, &new_cover);
                    if gain > 0 {
                        return Some(SubstPlan::Replace {
                            target,
                            fanins,
                            cover: new_cover,
                            gain,
                            kind: PlanKind::Pos,
                        });
                    }
                }
            }
        }
    }
    finish_unhelped(stats, sim.is_some(), passed)
}

/// The mutating half of a substitution attempt: applies a plan produced
/// by [`plan_pair_core`], books the acceptance counters, and returns the
/// gain. A typed apply error (which a healthy engine never produces) is
/// booked as an engine fault; every apply site is validate-then-mutate or
/// internally rolled back, so the network is unchanged on that path.
pub(crate) fn apply_plan(
    net: &mut Network,
    plan: SubstPlan,
    stats: &mut SubstStats,
) -> Option<i64> {
    match plan {
        SubstPlan::Replace {
            target,
            fanins,
            cover,
            gain,
            kind,
        } => {
            if net.replace_function(target, fanins, cover).is_err() {
                return fault_reject(stats);
            }
            stats.substitutions += 1;
            stats.literal_gain += gain;
            if kind == PlanKind::Pos {
                stats.pos_substitutions += 1;
            }
            #[cfg(feature = "chaos")]
            if kind == PlanKind::Sop {
                crate::chaos::maybe_panic(crate::chaos::PanicSite::PostApply);
            }
            Some(gain)
        }
        SubstPlan::Extended(plan) => {
            let gain = plan.gain;
            if plan.apply(net).is_err() {
                return fault_reject(stats);
            }
            stats.substitutions += 1;
            stats.extended_decompositions += 1;
            stats.literal_gain += gain;
            Some(gain)
        }
    }
}

/// Books a pair that produced no gain: with a filter present it counts
/// as a false pass when the screen let it through to at least one proof
/// or to the forced-literal bound, and as a pure signature refutation
/// when the screen alone rejected it.
fn finish_unhelped(stats: &mut SubstStats, screened: bool, passed: bool) -> Option<SubstPlan> {
    if screened {
        if passed {
            stats.sim_false_passes += 1;
        } else {
            stats.sim_pairs_refuted += 1;
        }
    }
    None
}

/// A planned extended-division rewrite: create the core node, re-express
/// the divisor as `rest + x_core`, substitute the core into the target as
/// `q·x_core + r`. Produced by [`plan_extended`], which scores exactly the
/// covers stored here; applied with [`ExtendedPlan::apply`]. Splitting
/// planning from application lets the sweep evaluate the gain without
/// mutating the network.
pub(crate) struct ExtendedPlan {
    /// Total factored-literal gain across target, divisor, and core
    /// (always positive — zero-gain plans are not produced).
    pub gain: i64,
    target: NodeId,
    divisor: NodeId,
    space_vars: Vec<NodeId>,
    /// The core divisor over the joint space.
    core: Cover,
    /// The new divisor and target covers over the joint space plus the
    /// core node as the last variable.
    divisor_cover: Cover,
    target_cover: Cover,
}

impl ExtendedPlan {
    /// Applies the rewrite; returns the id of the fresh core node.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`boolsubst_network::NetworkError`] if any of
    /// the three edits is inapplicable (which a healthy engine never
    /// produces). The plan is applied transactionally: on error the partial
    /// edits are undone first, so the network is left exactly as it was —
    /// a fail-stop path must not become a silent partial mutation.
    pub fn apply(self, net: &mut Network) -> Result<NodeId, boolsubst_network::NetworkError> {
        let divisor_pre = {
            let node = net.node(self.divisor);
            node.cover().map(|c| (node.fanins().to_vec(), c.clone()))
        };
        let id_bound = net.id_bound();

        // 1. Core node over its support. Nothing mutated yet on error.
        let (core_fanins, core_local) = project(&self.core, &self.space_vars);
        let name = net.fresh_name();
        let m = net.add_node(name, core_fanins, core_local)?;
        let fanins = fanins_with(&self.space_vars, m);

        // 2. Divisor = rest + x_core.
        let (kept, div_cover) = project(&self.divisor_cover, &fanins);
        if let Err(e) = net.replace_function(self.divisor, kept, div_cover) {
            // Only the fresh node exists; it has no fanouts yet.
            let _ = net.remove_node(m);
            net.truncate_dead_tail(id_bound);
            return Err(e);
        }

        // 3. Target = q·x_core + r.
        let (kept, tgt_cover) = project(&self.target_cover, &fanins);
        if let Err(e) = net.replace_function(self.target, kept, tgt_cover) {
            // Undo the divisor rewrite, then drop the now-orphaned core.
            if let Some((fanins, cover)) = divisor_pre {
                let _ = net.replace_function(self.divisor, fanins, cover);
            }
            let _ = net.remove_node(m);
            net.truncate_dead_tail(id_bound);
            return Err(e);
        }
        Ok(m)
    }
}

/// Plans an extended-division rewrite of `target` by the divisor whose
/// cover over the joint space is `d`; returns `None` when the total
/// factored-literal gain would not be positive. `target_old` is the
/// target's current factored-literal count.
fn plan_extended(
    net: &Network,
    target: NodeId,
    divisor: NodeId,
    space: &JointSpace,
    d: &Cover,
    ext: &ExtendedDivision,
    target_old: i64,
) -> Option<ExtendedPlan> {
    let n = space.len();
    // New divisor function: rest + x_core.
    let mut divisor_cover = Cover::new(n + 1);
    for (i, c) in d.cubes().iter().enumerate() {
        if !ext.core_cube_indices.contains(&i) {
            divisor_cover.push(c.extended(n + 1));
        }
    }
    let mut xc = Cube::universe(n + 1);
    xc.restrict(Lit::pos(n));
    divisor_cover.push(xc);
    // New target function: q·x_core + r.
    let target_cover = times_new_var(&ext.division.quotient, &ext.division.remainder, Phase::Pos);

    // Gain accounting (factored literals):
    //   target: old − new (new counts one literal per quotient cube for
    //           x_core);
    //   divisor: old − (rest + 1 literal for x_core);
    //   core node: −lits(core)  ... but those literals previously lived
    //   inside the divisor, so the divisor side nets to −1.
    let target_new = factored_literals(&target_cover) as i64;
    let divisor_old = factored_literals(net.node(divisor).cover()?) as i64;
    let divisor_new = factored_literals(&divisor_cover) as i64;
    let core_cost = factored_literals(&ext.core) as i64;
    let gain = (target_old - target_new) + (divisor_old - divisor_new) - core_cost;
    if gain <= 0 {
        return None;
    }

    Some(ExtendedPlan {
        gain,
        target,
        divisor,
        space_vars: space.vars.clone(),
        core: ext.core.clone(),
        divisor_cover,
        target_cover,
    })
}

/// Basic division with whole-network implication scope (the GDC mode):
/// materializes the full circuit with the target in the division
/// configuration, observes the primary outputs, and removes every provably
/// redundant region wire. The circuit comes either from a per-pair rebuild
/// or from patching a per-target shadow snapshot, per `gdc`; both produce
/// isomorphic circuits, so the removal verdicts agree.
#[allow(clippy::too_many_arguments)]
fn divide_in_network(
    net: &Network,
    target: NodeId,
    divisor: NodeId,
    space: &JointSpace,
    f: &Cover,
    d: &Cover,
    opts: &DivisionOptions,
    gdc: &GdcScope<'_>,
    stats: &mut SubstStats,
) -> Option<(Cover, Cover)> {
    let r = divide_region(f, d, opts, |kept, remainder| match gdc {
        GdcScope::Rebuild => network_region(net, target, divisor, &space.vars, kept, remainder),
        GdcScope::Shadow(base) => base.region(net, divisor, &space.vars, kept, remainder),
    });
    stats.rar_checks += r.checks;
    stats.check_budget_exhausted += usize::from(r.budget_exhausted);
    r.succeeded().then_some((r.quotient, r.remainder))
}

/// The pre-engine per-pair sweep: one pass over every (target, divisor)
/// pair, with every structural query recomputed on the spot. Kept as the
/// parity baseline the engine is pinned against (and for A/B
/// benchmarking).
pub fn boolean_substitute_legacy(net: &mut Network, opts: &SubstOptions) -> SubstStats {
    let mut stats = SubstStats::default();
    let mut targets: Vec<NodeId> = net.internal_ids().collect();
    targets
        .sort_by_key(|&id| std::cmp::Reverse(net.node(id).cover().map_or(0, Cover::literal_count)));
    for target in targets {
        if net.node_opt(target).is_none() {
            continue;
        }
        let divisors: Vec<NodeId> = net.internal_ids().collect();
        match opts.acceptance {
            Acceptance::FirstGain => {
                for divisor in divisors {
                    if net.node_opt(target).is_none() || net.node_opt(divisor).is_none() {
                        continue;
                    }
                    let _ = try_pair(net, target, divisor, opts, &mut stats);
                }
            }
            Acceptance::BestGain => {
                // Dry-run every divisor on a scratch copy, then apply
                // only the best one for real. Every other dry run books
                // its work with its acceptance counters cleared, as the
                // engine books an outranked pair; the best one is booked
                // by its real run.
                let mut best: Option<(NodeId, i64, SubstStats)> = None;
                for divisor in divisors {
                    let mut scratch = net.clone();
                    let mut dry = SubstStats::default();
                    let gain = try_pair(&mut scratch, target, divisor, opts, &mut dry);
                    dry.clear_acceptance();
                    match gain {
                        Some(gain) if best.as_ref().is_none_or(|&(_, g, _)| gain > g) => {
                            if let Some((.., outranked)) = best.replace((divisor, gain, dry)) {
                                stats.merge(&outranked);
                            }
                        }
                        _ => stats.merge(&dry),
                    }
                }
                if let Some((divisor, ..)) = best {
                    let _ = try_pair(net, target, divisor, opts, &mut stats);
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::verify::networks_equivalent;
    use boolsubst_cube::parse_sop;

    /// The paper's running example as a network: f = ab + ac + bc' with an
    /// existing node d = ab + c.
    fn paper_net() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("paper");
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
        (net, f, d)
    }

    /// Runs SOP by `d`, SOP by `d'` and POS in full (no size caps, no
    /// bound) on seeded random pairs over 1–7 variables. Every rewrite has
    /// at least as many factored literals as the forced-literal bound, so
    /// none of them gains on a pair where the bound reaches the target's
    /// count.
    #[test]
    fn forced_literal_bound_never_hides_a_gain() {
        let mut state = 0xB0_07D5_u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let opts = DivisionOptions::paper_default();
        let (mut fired, mut gains) = (0, 0);
        for round in 0..1500 {
            let n = 1 + round % 7;
            let mut random_cover = |max_cubes: usize| {
                let mut cover = Cover::new(n);
                for _ in 0..=next(max_cubes) {
                    let mut cube = Cube::universe(n);
                    for v in 0..n {
                        match next(3) {
                            0 => cube.restrict(Lit::pos(v)),
                            1 => cube.restrict(Lit::neg(v)),
                            _ => {}
                        }
                    }
                    cover.push(cube);
                }
                cover
            };
            let (f, d) = (random_cover(5), random_cover(3));
            let mut net = Network::new("bound");
            let pis: Vec<NodeId> = (0..n)
                .map(|i| net.add_input(format!("x{i}")).expect("pi"))
                .collect();
            let dn = net.add_node("d", pis.clone(), d).expect("d");
            let tn = net.add_node("t", pis, f).expect("t");
            net.add_output("d", dn).expect("od");
            net.add_output("t", tn).expect("ot");

            let space = JointSpace::union_of_fanins(&net, &[tn, dn]);
            let (f, d) = (space.cover_of(&net, tn), space.cover_of(&net, dn));
            let old = target_literals(&net, tn);
            let bound = forced_literal_bound(&f, &d).expect("within the cutoff");
            let mut rewrites = Vec::new();
            for (divisor, phase) in [(d.clone(), Phase::Pos), (d.complement(), Phase::Neg)] {
                if divisor.is_empty() {
                    continue;
                }
                let r = basic_divide_covers(&f, &divisor, &opts);
                if r.succeeded() {
                    rewrites.push(assemble(&space, dn, &r.quotient, &r.remainder, phase).1);
                }
            }
            let dc = d.complement();
            if !dc.is_empty() {
                let r = pos_divide_precomplemented(&f.complement(), &dc, &opts);
                if r.succeeded() {
                    let rebuilt = times_new_var(&r.quotient_compl, &r.remainder_compl, Phase::Neg)
                        .complement();
                    rewrites.push(project(&rebuilt, &fanins_with(&space.vars, dn)).1);
                }
            }
            fired += usize::from(bound as i64 >= old);
            for cover in &rewrites {
                let literals = factored_literals(cover);
                assert!(literals >= bound, "f = {f}, d = {d}: {cover} under {bound}");
                gains += usize::from((literals as i64) < old);
            }
        }
        assert!(fired > 100 && gains > 100, "fired {fired}, gains {gains}");
    }

    /// The per-visit forms equal the per-call ones cube for cube, also
    /// for targets whose fanins are not in id order (the complement is
    /// built over the sorted fanins and remapped monotonically).
    #[test]
    fn target_forms_match_per_call_forms() {
        let mut net = Network::new("forms");
        let ins: Vec<NodeId> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|&name| net.add_input(name).expect("input"))
            .collect();
        let f = net
            .add_node(
                "f",
                vec![ins[3], ins[0], ins[2], ins[1]],
                parse_sop(4, "ab'd + bc + a'c'd' + b'cd").expect("p"),
            )
            .expect("f");
        let g = net
            .add_node(
                "g",
                vec![ins[4], ins[2], ins[0]],
                parse_sop(3, "ab + c' + a'b'c").expect("p"),
            )
            .expect("g");
        for (target, divisor) in [(f, g), (g, f)] {
            let forms = TargetForms::new(&net, target);
            let space = JointSpace::union_of_fanins(&net, &[target, divisor]);
            assert_eq!(
                forms.complement_in(&net, &space),
                space.cover_of(&net, target).complement()
            );
            assert_eq!(forms.old_literals(&net), target_literals(&net, target));
        }
    }

    #[test]
    fn basic_substitution_beats_algebraic_on_paper_example() {
        let (mut net, f, _d) = paper_net();
        let before = net.clone();
        let stats = Session::new(&mut net, SubstOptions::basic()).run();
        assert!(stats.substitutions >= 1, "no substitution accepted");
        net.check_invariants();
        assert!(networks_equivalent(&before, &net), "function changed");
        // Paper: Boolean substitution reaches 4 literals for f
        // (f = (a + b)d), algebraic only 5.
        let f_lits = factored_literals(net.node(f).cover().expect("cover"));
        assert!(f_lits <= 4, "f has {f_lits} literals");
    }

    #[test]
    fn extended_decomposes_divisor() {
        // Paper Section I scenario: the ideal divisor ab + c does not
        // exist; instead a node d = ab + c + e does. Basic division cannot
        // exploit it (the extra cube e gets in the way), but extended
        // division extracts the core ab + c, decomposes d = core + e, and
        // rewrites f = core + z.
        let mut net = Network::new("ext");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let e = net.add_input("e").expect("e");
        let z = net.add_input("z").expect("z");
        let f = net
            .add_node(
                "f",
                vec![a, b, c, z],
                parse_sop(4, "ab + c + d").expect("p"),
            )
            .expect("f");
        let d = net
            .add_node(
                "d",
                vec![a, b, c, e],
                parse_sop(4, "ab + c + d").expect("p"),
            )
            .expect("d");
        net.add_output("f", f).expect("o");
        net.add_output("d", d).expect("o");
        let before = net.clone();
        let stats = Session::new(&mut net, SubstOptions::extended()).run();
        net.check_invariants();
        assert!(networks_equivalent(&before, &net), "function changed");
        assert!(
            stats.extended_decompositions >= 1,
            "extended decomposition not used: {stats:?}"
        );
        assert!(stats.literal_gain >= 1);
        // A fresh core node must exist now.
        assert!(net.internal_ids().count() >= 3);
    }

    #[test]
    fn pos_substitution_found() {
        // f = (a + b)(c + d) as SOP; divisor g = (a + b) i.e. a + b.
        // SOP basic division works here too, so force the POS path by a
        // divisor only useful in POS form: f = (a+b)(c+d), d = a + b.
        // Note basic SOP division of f by d: kept cubes contained by a or
        // b... every cube (ac, ad, bc, bd) is contained by a or b, so SOP
        // division succeeds as well; accept either, but the result must
        // stay equivalent and smaller.
        let mut net = Network::new("pos");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let d = net.add_input("d").expect("d");
        let f = net
            .add_node(
                "f",
                vec![a, b, c, d],
                parse_sop(4, "ac + ad + bc + bd").expect("p"),
            )
            .expect("f");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "a + b").expect("p"))
            .expect("g");
        net.add_output("f", f).expect("o");
        net.add_output("g", g).expect("o");
        let before = net.clone();
        let stats = Session::new(&mut net, SubstOptions::basic()).run();
        assert!(stats.substitutions >= 1);
        net.check_invariants();
        assert!(networks_equivalent(&before, &net));
        let f_lits = factored_literals(net.node(f).cover().expect("cover"));
        assert!(f_lits <= 3, "f has {f_lits} literals");
    }

    #[test]
    fn gdc_mode_preserves_outputs() {
        let (mut net, ..) = paper_net();
        let before = net.clone();
        let stats = Session::new(&mut net, SubstOptions::extended_gdc()).run();
        net.check_invariants();
        assert!(
            networks_equivalent(&before, &net),
            "GDC mode changed an output function"
        );
        assert!(stats.substitutions >= 1);
    }

    #[test]
    fn no_substitution_into_unrelated_nodes() {
        let mut net = Network::new("unrelated");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let d = net.add_input("d").expect("d");
        let f = net
            .add_node("f", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("f");
        let g = net
            .add_node("g", vec![c, d], parse_sop(2, "a + b").expect("p"))
            .expect("g");
        net.add_output("f", f).expect("o");
        net.add_output("g", g).expect("o");
        let stats = Session::new(&mut net, SubstOptions::extended()).run();
        assert_eq!(stats.substitutions, 0);
    }
}
