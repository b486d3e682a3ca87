//! The span/event data model: what one traced substitution run is made of.

use std::time::Instant;

/// The engine's pipeline stages, matching the five stage-nanos counters of
/// the aggregate stats block. Histogram samples and per-pair attribution
/// both use this axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Target ordering and candidate enumeration (outside pair spans).
    Enumerate,
    /// The cheap per-pair structural/cycle/size filters.
    Filter,
    /// Simulation-signature work: screening, audits, patching.
    Sim,
    /// Division proper: proofs, RAR/ATPG checks, gain evaluation.
    Divide,
    /// Committing a winner: its plan's apply, the checked-mode guard and
    /// the side-table patching (the signature patch is booked under Sim).
    Apply,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Enumerate,
        Stage::Filter,
        Stage::Sim,
        Stage::Divide,
        Stage::Apply,
    ];

    /// Stable lowercase label used by both exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Enumerate => "enumerate",
            Stage::Filter => "filter",
            Stage::Sim => "sim",
            Stage::Divide => "divide",
            Stage::Apply => "apply",
        }
    }

    /// Dense index into per-stage arrays (`0..Stage::ALL.len()`).
    #[must_use]
    pub fn idx(self) -> usize {
        match self {
            Stage::Enumerate => 0,
            Stage::Filter => 1,
            Stage::Sim => 2,
            Stage::Divide => 3,
            Stage::Apply => 4,
        }
    }
}

/// How one (target, divisor) pair attempt ended. Covers every reject
/// reason counted by the engine's stats block plus the three acceptance
/// kinds, so a funnel over outcomes reconciles exactly with the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Accepted: SOP division (direct or by the divisor's complement).
    AcceptedSop,
    /// Accepted: product-of-sums-form substitution.
    AcceptedPos,
    /// Accepted: extended division decomposed the divisor.
    AcceptedExtended,
    /// Rejected by the self-pair/existing-fanin structural filter.
    RejectedStructural,
    /// Rejected: the divisor lies in the target's transitive fanout.
    RejectedTfo,
    /// Rejected by the divisor cube-count bound.
    RejectedDivisorSize,
    /// Rejected by the joint-variable-space bound.
    RejectedJointSpace,
    /// Rejected purely by simulation-signature witnesses, no proof ran.
    RejectedSimRefuted,
    /// Survived every filter but no division strategy produced gain.
    RejectedNoGain,
    /// Best-gain only: a division strategy gained, but another divisor of
    /// the same target gained more (or as much at a lower index); the
    /// plan was dropped.
    RejectedOutranked,
    /// Accepted by division but refuted by the post-apply guard pipeline;
    /// the rewrite was rolled back and the pair given up.
    GuardRejected,
    /// The per-pair work panicked (or corrupted state was detected); the
    /// move was rolled back and the pair given up.
    EngineFault,
}

impl Outcome {
    /// Every outcome, acceptance kinds first.
    pub const ALL: [Outcome; 12] = [
        Outcome::AcceptedSop,
        Outcome::AcceptedPos,
        Outcome::AcceptedExtended,
        Outcome::RejectedStructural,
        Outcome::RejectedTfo,
        Outcome::RejectedDivisorSize,
        Outcome::RejectedJointSpace,
        Outcome::RejectedSimRefuted,
        Outcome::RejectedNoGain,
        Outcome::RejectedOutranked,
        Outcome::GuardRejected,
        Outcome::EngineFault,
    ];

    /// Number of distinct outcomes (`Outcome::ALL.len()`).
    pub const COUNT: usize = Outcome::ALL.len();

    /// Stable snake_case label used by both exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Outcome::AcceptedSop => "accept_sop",
            Outcome::AcceptedPos => "accept_pos",
            Outcome::AcceptedExtended => "accept_extended",
            Outcome::RejectedStructural => "reject_structural",
            Outcome::RejectedTfo => "reject_tfo",
            Outcome::RejectedDivisorSize => "reject_divisor_size",
            Outcome::RejectedJointSpace => "reject_joint_space",
            Outcome::RejectedSimRefuted => "reject_sim_refuted",
            Outcome::RejectedNoGain => "reject_no_gain",
            Outcome::RejectedOutranked => "reject_outranked",
            Outcome::GuardRejected => "guard_rejected",
            Outcome::EngineFault => "engine_fault",
        }
    }

    /// Inverse of [`Outcome::name`] (exporter tests, the CI validator).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Outcome> {
        Outcome::ALL.into_iter().find(|o| o.name() == name)
    }

    /// Whether the pair was accepted (a rewrite was applied).
    #[must_use]
    pub fn accepted(self) -> bool {
        matches!(
            self,
            Outcome::AcceptedSop | Outcome::AcceptedPos | Outcome::AcceptedExtended
        )
    }

    /// Dense index into per-outcome arrays (`0..Outcome::COUNT`).
    #[must_use]
    pub fn idx(self) -> usize {
        match self {
            Outcome::AcceptedSop => 0,
            Outcome::AcceptedPos => 1,
            Outcome::AcceptedExtended => 2,
            Outcome::RejectedStructural => 3,
            Outcome::RejectedTfo => 4,
            Outcome::RejectedDivisorSize => 5,
            Outcome::RejectedJointSpace => 6,
            Outcome::RejectedSimRefuted => 7,
            Outcome::RejectedNoGain => 8,
            Outcome::RejectedOutranked => 9,
            Outcome::GuardRejected => 10,
            Outcome::EngineFault => 11,
        }
    }
}

/// Per-stage nanosecond attribution of one pair span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Candidate-enumeration time (usually 0 inside a pair span).
    pub enumerate: u64,
    /// Cheap filter time.
    pub filter: u64,
    /// Simulation screen/audit/patch time.
    pub sim: u64,
    /// Division/proof time (simulation screen time already subtracted).
    pub divide: u64,
    /// Commit time: the plan's apply, the guard and the side-table patch.
    pub apply: u64,
}

impl StageNanos {
    /// Reads one stage's nanos.
    #[must_use]
    pub fn get(self, stage: Stage) -> u64 {
        match stage {
            Stage::Enumerate => self.enumerate,
            Stage::Filter => self.filter,
            Stage::Sim => self.sim,
            Stage::Divide => self.divide,
            Stage::Apply => self.apply,
        }
    }

    /// Sum over all stages, saturating.
    #[must_use]
    pub fn total(self) -> u64 {
        Stage::ALL
            .into_iter()
            .fold(0u64, |acc, s| acc.saturating_add(self.get(s)))
    }
}

/// One evaluated (target, divisor) pair: where the time went, how the
/// pair was disposed of, and every per-pair fact the engine's stats block
/// counts. The engine fills one per evaluated pair and books only it:
/// the stats block and the metrics registry fold it into their counters
/// and [`Tracer::record_pair`](crate::Tracer::record_pair) records it.
/// It carries the instant the evaluation started; the exporters measure
/// it against the tracer's epoch ([`Tracer::start_ns`](crate::Tracer::start_ns)),
/// so a record booked after its evaluation keeps the start it had on its
/// worker and every lane runs forward in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRecord {
    /// Target node id (raw slot index).
    pub target: u32,
    /// Divisor node id (raw slot index).
    pub divisor: u32,
    /// When the attempt started.
    pub start: Instant,
    /// Wall-clock duration of the attempt, measured only when traced or
    /// metered (includes untimed gaps such as GDC shadow-snapshot builds,
    /// so it can exceed the stage sum).
    pub dur_ns: u64,
    /// Per-stage attribution.
    pub stages: StageNanos,
    /// The share of `stages.sim` the signature screen spent inside the
    /// division window. The stats block's `divide_nanos` counts it too.
    pub screen_ns: u64,
    /// How the attempt ended.
    pub outcome: Outcome,
    /// Factored-literal gain of the accepted rewrite (0 on rejects).
    pub gain: i64,
    /// RAR/ATPG fault checks the GDC-mode division ran for this pair.
    pub rar_checks: u64,
    /// Division strategies whose redundancy removal stopped early on the
    /// per-pair check budget.
    pub budget_stops: u32,
    /// The pair passed every cheap filter (and the checked-mode audit),
    /// so its division proof ran.
    pub proof: bool,
    /// The simulation screen ran on the pair's dividend.
    pub screened: bool,
    /// The forced-literal bound skipped at least one division strategy.
    pub bound_skip: bool,
    /// The checked-mode signature audit ran on the pair's two rows.
    pub audited: bool,
    /// Dividend cubes whose extended-division fault checks the screen
    /// skipped.
    pub ext_wires_skipped: u32,
    /// The pair's use of the target's GDC shadow snapshot.
    pub shadow: Option<ShadowUse>,
    /// The checked-mode guard's verdict on the pair's applied rewrite.
    pub guard: Option<PairGuard>,
    /// Sweep lane the pair was evaluated on: `0` for the committer,
    /// `w` for pool worker `w`. Chrome export maps lanes to named
    /// threads.
    pub worker: u32,
}

impl PairRecord {
    /// A record of a pair whose evaluation starts at `start`: every count,
    /// time and flag zero, and the outcome [`Outcome::RejectedNoGain`]
    /// until the evaluation says otherwise.
    #[must_use]
    pub fn new(target: u32, divisor: u32, start: Instant) -> PairRecord {
        PairRecord {
            target,
            divisor,
            start,
            dur_ns: 0,
            stages: StageNanos::default(),
            screen_ns: 0,
            outcome: Outcome::RejectedNoGain,
            gain: 0,
            rar_checks: 0,
            budget_stops: 0,
            proof: false,
            screened: false,
            bound_skip: false,
            audited: false,
            ext_wires_skipped: 0,
            shadow: None,
            guard: None,
            worker: 0,
        }
    }
}

/// How a GDC pair used its target's shadow snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShadowUse {
    /// The snapshot was already built for an earlier pair.
    Hit,
    /// The pair was the snapshot's first user, which books its build.
    Miss,
}

/// The guard's verdict on one pair's applied rewrite, as its record holds
/// it (the full check is a [`TraceEvent::Guard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairGuard {
    /// Tier that produced the verdict.
    pub tier: GuardTier,
    /// Which networks the deciding compare ran on.
    pub scope: GuardScope,
    /// Tier C SAT miters the check ran.
    pub sat_runs: u32,
}

/// Which guard tier produced a verdict. Mirrors the guard crate's
/// decision taxonomy without depending on it (trace sits below guard in
/// the crate graph, so the engine maps decisions to this enum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardTier {
    /// Tier A: word-parallel simulation signatures (exhaustive or pool).
    Sim,
    /// Tier B: shared-manager BDD compare.
    Bdd,
    /// Tier C: Tseitin miter + CDCL under a conflict budget.
    Sat,
    /// No exact tier had budget; the verdict rests on the sampled pool.
    Sampled,
    /// The remaining deadline could not afford an exact verdict; the
    /// rewrite was refused.
    Deadline,
}

impl GuardTier {
    /// Every tier, in escalation order.
    pub const ALL: [GuardTier; 5] = [
        GuardTier::Sim,
        GuardTier::Bdd,
        GuardTier::Sat,
        GuardTier::Sampled,
        GuardTier::Deadline,
    ];

    /// Stable lowercase label used by both exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GuardTier::Sim => "sim",
            GuardTier::Bdd => "bdd",
            GuardTier::Sat => "sat",
            GuardTier::Sampled => "sampled",
            GuardTier::Deadline => "deadline",
        }
    }

    /// Dense index into per-tier arrays (`0..GuardTier::ALL.len()`).
    #[must_use]
    pub fn idx(self) -> usize {
        match self {
            GuardTier::Sim => 0,
            GuardTier::Bdd => 1,
            GuardTier::Sat => 2,
            GuardTier::Sampled => 3,
            GuardTier::Deadline => 4,
        }
    }
}

/// Which networks a guard verdict compared: the changed nodes over their
/// cut, or the whole network before and after the rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardScope {
    /// The changed nodes' functions of the cut leaves.
    Cut,
    /// Every primary output of the whole network.
    Network,
}

impl GuardScope {
    /// Every scope, narrowest first.
    pub const ALL: [GuardScope; 2] = [GuardScope::Cut, GuardScope::Network];

    /// Stable lowercase label used by both exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GuardScope::Cut => "cut",
            GuardScope::Network => "network",
        }
    }
}

/// Everything the ring buffer records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A completed pair attempt.
    Pair(PairRecord),
    /// A GDC shadow-circuit snapshot was built from scratch.
    ShadowBuild {
        /// Target whose cone was excluded from the snapshot.
        target: u32,
        /// Build start, nanoseconds since the tracer epoch.
        start_ns: u64,
        /// Build duration.
        dur_ns: u64,
    },
    /// A post-apply guard check of an accepted rewrite (checked mode).
    Guard {
        /// Target of the guarded rewrite.
        target: u32,
        /// Divisor of the guarded rewrite.
        divisor: u32,
        /// Tier that produced the verdict.
        tier: GuardTier,
        /// Which networks the deciding compare ran on.
        scope: GuardScope,
        /// Whether the rewrite was allowed to stand.
        passed: bool,
        /// Whether the verdict is a proof (vs. a sampled pass).
        exact: bool,
        /// Check start, nanoseconds since the tracer epoch.
        start_ns: u64,
        /// Check duration.
        dur_ns: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_names_roundtrip() {
        for o in Outcome::ALL {
            assert_eq!(Outcome::from_name(o.name()), Some(o));
        }
        assert_eq!(Outcome::from_name("nope"), None);
    }

    #[test]
    fn outcome_indices_are_dense_and_unique() {
        let mut seen = [false; Outcome::COUNT];
        for o in Outcome::ALL {
            assert!(!seen[o.idx()], "duplicate index for {o:?}");
            seen[o.idx()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn stage_nanos_attribution() {
        let mut s = StageNanos {
            sim: 12,
            divide: 100,
            ..StageNanos::default()
        };
        assert_eq!(s.get(Stage::Sim), 12);
        assert_eq!(s.get(Stage::Filter), 0);
        assert_eq!(s.total(), 112);
        s.apply = u64::MAX;
        assert_eq!(s.total(), u64::MAX, "total saturates");
    }
}
