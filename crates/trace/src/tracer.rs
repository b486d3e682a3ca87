//! The recording handle the engine threads through as `Option<&mut Tracer>`.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::time::Instant;

use crate::hist::LatencyHistogram;
use crate::report::TraceReport;
use crate::span::{GuardScope, GuardTier, Outcome, PairRecord, Stage, TraceEvent};

/// Maximum events kept in the ring buffer; older events are dropped
/// (aggregates stay exact regardless).
const RING_CAPACITY: usize = 1 << 16;
/// How many slowest pair records [`Tracer::slowest_pairs`] retains.
const TOP_K: usize = 16;
/// How many hottest targets [`Tracer::hot_targets`] returns.
const HOT_TARGETS: usize = 10;

/// Per-target aggregate across every pair attempt that targeted it.
#[derive(Debug, Clone, Copy, Default)]
pub struct TargetAgg {
    /// Pair attempts with this node as the target.
    pub pairs: u64,
    /// Accepted rewrites onto this target.
    pub accepts: u64,
    /// Total wall-clock nanos spent on this target's pairs.
    pub dur_ns: u64,
    /// Total factored-literal gain realised on this target.
    pub gain: i64,
}

/// Records one traced substitution run: a bounded event ring plus exact
/// aggregates (stage/outcome/pair histograms, outcome funnel, top-K
/// slowest pairs, per-target heat, shadow-build and guard counters).
///
/// Exported timestamps are nanoseconds since the tracer's construction
/// instant (its *epoch*); a pair record keeps its start as an `Instant`
/// until [`Tracer::start_ns`] converts it. The tracer never touches the
/// network being optimized; attaching one cannot change results.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    mode: String,
    names: Vec<String>,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
    stage_hist: [LatencyHistogram; Stage::ALL.len()],
    outcome_hist: [LatencyHistogram; Outcome::COUNT],
    pair_hist: LatencyHistogram,
    outcome_counts: [u64; Outcome::COUNT],
    pairs: u64,
    bound_skips: u64,
    slowest: Vec<PairRecord>,
    per_target: HashMap<u32, TargetAgg>,
    shadow_builds: u64,
    shadow_ns: u64,
    guard_checks: u64,
    guard_tier_counts: [u64; GuardTier::ALL.len()],
    guard_network_checks: u64,
    guard_ns: u64,
}

impl Tracer {
    /// A tracer labelled with the mode it records (e.g. `"basic"`,
    /// `"ext"`, `"ext-gdc"`).
    #[must_use]
    pub fn new(mode: &str) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            mode: mode.to_string(),
            names: Vec::new(),
            ring: VecDeque::new(),
            dropped: 0,
            stage_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            outcome_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            pair_hist: LatencyHistogram::new(),
            outcome_counts: [0; Outcome::COUNT],
            pairs: 0,
            bound_skips: 0,
            slowest: Vec::new(),
            per_target: HashMap::new(),
            shadow_builds: 0,
            shadow_ns: 0,
            guard_checks: 0,
            guard_tier_counts: [0; GuardTier::ALL.len()],
            guard_network_checks: 0,
            guard_ns: 0,
        }
    }

    /// The mode label this tracer was built with.
    #[must_use]
    pub fn mode(&self) -> &str {
        &self.mode
    }

    /// Nanoseconds since the tracer epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A pair's start in nanoseconds since the tracer epoch (0 for a
    /// record that started before the tracer existed).
    #[must_use]
    pub fn start_ns(&self, rec: &PairRecord) -> u64 {
        u64::try_from(rec.start.saturating_duration_since(self.epoch).as_nanos())
            .unwrap_or(u64::MAX)
    }

    /// Installs a node-id → name table (index = raw slot id). Used by the
    /// Chrome exporter and the report to label targets/divisors.
    pub fn set_node_names(&mut self, names: Vec<String>) {
        self.names = names;
    }

    /// The display name for a node id; falls back to `#id`.
    #[must_use]
    pub fn node_name(&self, id: u32) -> String {
        match self.names.get(id as usize) {
            Some(n) if !n.is_empty() => n.clone(),
            _ => format!("#{id}"),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() >= RING_CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Samples `ns` of `stage` work booked outside any pair span
    /// (enumeration) into the stage histogram.
    pub fn stage(&mut self, stage: Stage, ns: u64) {
        self.stage_hist[stage.idx()].record(ns);
    }

    /// Books one finished pair attempt: every stage with a non-zero share
    /// gets one histogram sample, and the outcome funnel, per-target
    /// heat, top-K and the event ring all see the record. Call in sweep
    /// order so exported spans read like the greedy sweep they record.
    pub fn record_pair(&mut self, rec: &PairRecord) {
        for stage in Stage::ALL {
            let ns = rec.stages.get(stage);
            if ns > 0 {
                self.stage_hist[stage.idx()].record(ns);
            }
        }
        self.pairs += 1;
        self.bound_skips += u64::from(rec.bound_skip);
        self.pair_hist.record(rec.dur_ns);
        self.outcome_counts[rec.outcome.idx()] += 1;
        self.outcome_hist[rec.outcome.idx()].record(rec.dur_ns);

        let agg = self.per_target.entry(rec.target).or_default();
        agg.pairs += 1;
        agg.dur_ns = agg.dur_ns.saturating_add(rec.dur_ns);
        if rec.outcome.accepted() {
            agg.accepts += 1;
            agg.gain += rec.gain;
        }

        // Keep the top-K slowest pairs, sorted by descending duration.
        let pos = self.slowest.partition_point(|s| s.dur_ns >= rec.dur_ns);
        if pos < TOP_K {
            self.slowest.insert(pos, *rec);
            self.slowest.truncate(TOP_K);
        }

        self.push(TraceEvent::Pair(*rec));
    }

    /// Records a from-scratch GDC shadow-circuit snapshot build.
    pub fn shadow_build(&mut self, target: u32, dur_ns: u64) {
        self.shadow_builds += 1;
        self.shadow_ns = self.shadow_ns.saturating_add(dur_ns);
        let start_ns = self.now_ns().saturating_sub(dur_ns);
        self.push(TraceEvent::ShadowBuild {
            target,
            start_ns,
            dur_ns,
        });
    }

    /// Records one post-apply guard check of an accepted rewrite
    /// (checked mode): which tier and scope decided, whether the rewrite
    /// stood, and whether the verdict was a proof.
    #[allow(clippy::too_many_arguments)]
    pub fn guard_check(
        &mut self,
        target: u32,
        divisor: u32,
        tier: GuardTier,
        scope: GuardScope,
        passed: bool,
        exact: bool,
        dur_ns: u64,
    ) {
        self.guard_checks += 1;
        self.guard_tier_counts[tier.idx()] += 1;
        self.guard_network_checks += u64::from(scope == GuardScope::Network);
        self.guard_ns = self.guard_ns.saturating_add(dur_ns);
        let start_ns = self.now_ns().saturating_sub(dur_ns);
        self.push(TraceEvent::Guard {
            target,
            divisor,
            tier,
            scope,
            passed,
            exact,
            start_ns,
            dur_ns,
        });
    }

    /// `(checks, total_ns)` of post-apply guard checks.
    #[must_use]
    pub fn guard_stats(&self) -> (u64, u64) {
        (self.guard_checks, self.guard_ns)
    }

    /// How many guard checks needed the whole-network compare.
    #[must_use]
    pub fn guard_network_checks(&self) -> u64 {
        self.guard_network_checks
    }

    /// How many guard checks were decided by `tier`.
    #[must_use]
    pub fn guard_tier_count(&self, tier: GuardTier) -> u64 {
        self.guard_tier_counts[tier.idx()]
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Events evicted from the ring because it was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total pair spans recorded (not bounded by the ring).
    #[must_use]
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Pair spans on which the forced-literal bound skipped a strategy
    /// (not bounded by the ring).
    #[must_use]
    pub fn bound_skips(&self) -> u64 {
        self.bound_skips
    }

    /// How many pairs ended with `outcome`.
    #[must_use]
    pub fn outcome_count(&self, outcome: Outcome) -> u64 {
        self.outcome_counts[outcome.idx()]
    }

    /// The full outcome funnel as `(outcome, count)`, acceptance first,
    /// zero-count outcomes included.
    #[must_use]
    pub fn funnel(&self) -> Vec<(Outcome, u64)> {
        Outcome::ALL
            .into_iter()
            .map(|o| (o, self.outcome_counts[o.idx()]))
            .collect()
    }

    /// Latency histogram of one pipeline stage.
    #[must_use]
    pub fn stage_histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.stage_hist[stage.idx()]
    }

    /// Latency histogram of pairs that ended with `outcome`.
    #[must_use]
    pub fn outcome_histogram(&self, outcome: Outcome) -> &LatencyHistogram {
        &self.outcome_hist[outcome.idx()]
    }

    /// Wall-clock latency histogram over all pair spans.
    #[must_use]
    pub fn pair_histogram(&self) -> &LatencyHistogram {
        &self.pair_hist
    }

    /// The top-K slowest pair records, slowest first.
    #[must_use]
    pub fn slowest_pairs(&self) -> &[PairRecord] {
        &self.slowest
    }

    /// The hottest targets by total wall-clock time, hottest first,
    /// at most ten.
    #[must_use]
    pub fn hot_targets(&self) -> Vec<(u32, TargetAgg)> {
        let mut v: Vec<(u32, TargetAgg)> = self
            .per_target
            .iter()
            .map(|(&id, &agg)| (id, agg))
            .collect();
        v.sort_by(|a, b| b.1.dur_ns.cmp(&a.1.dur_ns).then(a.0.cmp(&b.0)));
        v.truncate(HOT_TARGETS);
        v
    }

    /// `(builds, total_ns)` of from-scratch GDC shadow snapshots.
    #[must_use]
    pub fn shadow_stats(&self) -> (u64, u64) {
        (self.shadow_builds, self.shadow_ns)
    }

    /// A human-readable report borrowing this tracer.
    #[must_use]
    pub fn report(&self) -> TraceReport<'_> {
        TraceReport::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::StageNanos;

    fn run_pair(t: &mut Tracer, target: u32, divisor: u32, outcome: Outcome, gain: i64) {
        t.record_pair(&PairRecord {
            dur_ns: 100 * u64::from(divisor) + 110,
            stages: StageNanos {
                filter: 10,
                divide: 100,
                ..StageNanos::default()
            },
            outcome,
            gain,
            ..PairRecord::new(target, divisor, Instant::now())
        });
    }

    #[test]
    fn records_pairs_and_funnel() {
        let mut t = Tracer::new("basic");
        run_pair(&mut t, 3, 5, Outcome::AcceptedSop, 2);
        run_pair(&mut t, 3, 6, Outcome::RejectedNoGain, 0);
        run_pair(&mut t, 4, 5, Outcome::RejectedSimRefuted, 0);

        assert_eq!(t.pairs(), 3);
        assert_eq!(t.outcome_count(Outcome::AcceptedSop), 1);
        assert_eq!(t.outcome_count(Outcome::RejectedNoGain), 1);
        assert_eq!(t.outcome_count(Outcome::RejectedSimRefuted), 1);
        let total: u64 = t.funnel().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3);
        assert_eq!(t.stage_histogram(Stage::Filter).count(), 3);
        assert_eq!(
            t.stage_histogram(Stage::Sim).count(),
            0,
            "zero shares are not sampled"
        );
        assert_eq!(t.pair_histogram().count(), 3);

        let hot = t.hot_targets();
        assert_eq!(hot[0].0, 3, "target 3 saw two pairs");
        assert_eq!(hot[0].1.pairs, 2);
        assert_eq!(hot[0].1.accepts, 1);
        assert_eq!(hot[0].1.gain, 2);

        // Every pair event fits in the ring.
        assert_eq!(t.events().count(), 3);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_but_aggregates_stay_exact() {
        let mut t = Tracer::new("basic");
        let n = RING_CAPACITY as u64 + 3;
        for d in 0..n {
            run_pair(&mut t, 1, d as u32, Outcome::RejectedNoGain, 0);
        }
        assert_eq!(t.events().count(), RING_CAPACITY);
        assert_eq!(t.dropped(), 3);
        let Some(TraceEvent::Pair(oldest)) = t.events().next() else {
            panic!("the ring holds pair events");
        };
        assert_eq!(oldest.divisor, 3, "the three oldest were dropped");
        assert_eq!(t.pairs(), n, "aggregate count survives ring eviction");
        assert_eq!(t.outcome_count(Outcome::RejectedNoGain), n);
        assert_eq!(t.pair_histogram().count(), n);
    }

    #[test]
    fn slowest_pairs_are_sorted_and_bounded() {
        let mut t = Tracer::new("basic");
        // Durations rise with the divisor id; record them out of order.
        let n = TOP_K as u32 + 2;
        for d in (0..n).rev().step_by(2).chain((0..n).step_by(2)) {
            run_pair(&mut t, 1, d, Outcome::RejectedNoGain, 0);
        }
        let slowest: Vec<u32> = t.slowest_pairs().iter().map(|s| s.divisor).collect();
        let expected: Vec<u32> = (2..n).rev().collect();
        assert_eq!(slowest, expected, "the {TOP_K} longest, slowest first");
    }

    #[test]
    fn node_names_fall_back_to_ids() {
        let mut t = Tracer::new("ext");
        assert_eq!(t.node_name(7), "#7");
        t.set_node_names(vec!["a".into(), String::new(), "c".into()]);
        assert_eq!(t.node_name(0), "a");
        assert_eq!(t.node_name(1), "#1", "empty name falls back");
        assert_eq!(t.node_name(2), "c");
        assert_eq!(t.node_name(9), "#9");
    }
}
