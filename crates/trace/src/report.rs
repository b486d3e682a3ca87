//! Human-readable rendering of a recorded trace.

use std::fmt;

use crate::hist::bucket_floor;
use crate::span::{Outcome, Stage};
use crate::tracer::Tracer;

/// A borrow of a [`Tracer`] that `Display`s as a multi-section text
/// report: reject-reason funnel, per-stage latency summary,
/// pair wall-time histogram, slowest pairs, hottest targets, and the
/// guard verdicts and shadow-build side counters.
#[derive(Debug, Clone, Copy)]
pub struct TraceReport<'a> {
    tracer: &'a Tracer,
}

impl<'a> TraceReport<'a> {
    /// Wraps `tracer` for rendering.
    #[must_use]
    pub fn new(tracer: &'a Tracer) -> TraceReport<'a> {
        TraceReport { tracer }
    }
}

/// Compact nanosecond formatting: picks ns/µs/ms/s to keep 3-4 digits.
fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", v / 1e6)
    } else {
        format!("{:.2}s", v / 1e9)
    }
}

#[allow(clippy::cast_precision_loss)]
fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

impl fmt::Display for TraceReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.tracer;
        writeln!(f, "=== trace report: mode {} ===", t.mode())?;
        writeln!(
            f,
            "pairs traced: {}   events dropped: {}",
            t.pairs(),
            t.dropped()
        )?;

        writeln!(f, "\n-- outcome funnel --")?;
        let total = t.pairs();
        for (o, count) in t.funnel() {
            if count == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<22} {:>8}  ({:>5.1}%)  total {}",
                o.name(),
                count,
                pct(count, total),
                fmt_ns(t.outcome_histogram(o).sum_ns())
            )?;
        }
        let accepted: u64 = Outcome::ALL
            .iter()
            .filter(|o| o.accepted())
            .map(|&o| t.outcome_count(o))
            .sum();
        writeln!(
            f,
            "{:<22} {:>8}  ({:>5.1}%)",
            "=> accepted",
            accepted,
            pct(accepted, total)
        )?;
        if t.bound_skips() > 0 {
            writeln!(
                f,
                "{:<22} {:>8}  ({:>5.1}%)",
                "local-bound skips",
                t.bound_skips(),
                pct(t.bound_skips(), total)
            )?;
        }

        writeln!(f, "\n-- stage latency --")?;
        for s in Stage::ALL {
            let h = t.stage_histogram(s);
            if h.is_empty() {
                continue;
            }
            writeln!(
                f,
                "{:<10} n={:<8} total={:<9} p50<={:<9} p90<={:<9} p99<={:<9} max<={}",
                s.name(),
                h.count(),
                fmt_ns(h.sum_ns()),
                fmt_ns(h.quantile_ceil(0.5)),
                fmt_ns(h.quantile_ceil(0.9)),
                fmt_ns(h.quantile_ceil(0.99)),
                fmt_ns(h.max_ceil())
            )?;
        }

        let ph = t.pair_histogram();
        if !ph.is_empty() {
            writeln!(f, "\n-- pair wall time (log2 buckets) --")?;
            let peak = ph.nonzero_buckets().map(|(_, c)| c).max().unwrap_or(1);
            for (i, count) in ph.nonzero_buckets() {
                let width = (count * 40).div_ceil(peak) as usize;
                writeln!(
                    f,
                    ">= {:>9} {:>8} |{}",
                    fmt_ns(bucket_floor(i)),
                    count,
                    "#".repeat(width)
                )?;
            }
        }

        if !t.slowest_pairs().is_empty() {
            writeln!(f, "\n-- slowest pairs --")?;
            writeln!(
                f,
                "{:>10} {:<16} {:<16} {:<20} {:>5} {:>6}",
                "time", "target", "divisor", "outcome", "gain", "rar"
            )?;
            for p in t.slowest_pairs() {
                writeln!(
                    f,
                    "{:>10} {:<16} {:<16} {:<20} {:>5} {:>6}",
                    fmt_ns(p.dur_ns),
                    t.node_name(p.target),
                    t.node_name(p.divisor),
                    p.outcome.name(),
                    p.gain,
                    p.rar_checks
                )?;
            }
        }

        let hot = t.hot_targets();
        if !hot.is_empty() {
            writeln!(f, "\n-- hottest targets --")?;
            writeln!(
                f,
                "{:<16} {:>8} {:>8} {:>10} {:>6}",
                "target", "pairs", "accepts", "time", "gain"
            )?;
            for (id, agg) in hot {
                writeln!(
                    f,
                    "{:<16} {:>8} {:>8} {:>10} {:>6}",
                    t.node_name(id),
                    agg.pairs,
                    agg.accepts,
                    fmt_ns(agg.dur_ns),
                    agg.gain
                )?;
            }
        }

        let (guard_checks, guard_ns) = t.guard_stats();
        if guard_checks > 0 {
            writeln!(f, "\n-- guard verdicts --")?;
            for tier in crate::span::GuardTier::ALL {
                let count = t.guard_tier_count(tier);
                if count == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "{:<10} {:>8}  ({:>5.1}%)",
                    tier.name(),
                    count,
                    pct(count, guard_checks)
                )?;
            }
            writeln!(
                f,
                "checks: {guard_checks} (network {})   time: {}",
                t.guard_network_checks(),
                fmt_ns(guard_ns)
            )?;
        }

        let (shadow_builds, shadow_ns) = t.shadow_stats();
        if shadow_builds > 0 {
            writeln!(
                f,
                "\nshadow builds: {} ({})",
                shadow_builds,
                fmt_ns(shadow_ns)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{PairRecord, StageNanos};

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn report_contains_sections() {
        let mut t = Tracer::new("basic");
        t.set_node_names(vec!["a".into(), "b".into(), "c".into()]);
        let pair = |target, outcome, gain, stages| PairRecord {
            dur_ns: 1_000,
            stages,
            outcome,
            gain,
            ..PairRecord::new(target, 1, std::time::Instant::now())
        };
        t.record_pair(&pair(
            0,
            Outcome::AcceptedSop,
            3,
            StageNanos {
                filter: 50,
                divide: 900,
                ..StageNanos::default()
            },
        ));
        t.record_pair(&pair(
            2,
            Outcome::RejectedTfo,
            0,
            StageNanos {
                filter: 10,
                ..StageNanos::default()
            },
        ));

        let text = t.report().to_string();
        assert!(text.contains("mode basic"));
        assert!(text.contains("-- outcome funnel --"));
        assert!(text.contains("accept_sop"));
        assert!(text.contains("reject_tfo"));
        assert!(text.contains("=> accepted"));
        assert!(text.contains("-- stage latency --"));
        assert!(text.contains("-- slowest pairs --"));
        assert!(text.contains("-- hottest targets --"));
        assert!(text.contains('a'), "node names used");
    }
}
