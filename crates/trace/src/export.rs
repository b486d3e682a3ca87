//! Trace exporters: newline-delimited JSON pair records and the Chrome
//! trace-event format (loadable in `chrome://tracing` and Perfetto).

use std::io::{self, Write};

use crate::json::JsonObj;
use crate::span::{PairRecord, ShadowUse};
use crate::tracer::Tracer;

/// Adds a pair's guard verdict and shadow use to its JSON object, the
/// same fields on the JSONL line and in the Chrome span's args: a nested
/// `guard` object (tier, scope, whether the rewrite stood, whether it
/// was proved, the check's wall time) and `shadow` (`hit`/`miss`, plus
/// the snapshot build time `shadow_ns` on a miss). Both are absent on a
/// pair the guard or the GDC shadow never saw.
fn verdict_fields(obj: &mut JsonObj, p: &PairRecord) {
    if let (Some(g), Some(passed), Some(exact)) = (p.guard, p.guard_passed(), p.guard_exact()) {
        let guard = JsonObj::new()
            .str("tier", g.tier.name())
            .str("scope", g.scope.name())
            .bool("passed", passed)
            .bool("exact", exact)
            .u64("dur_ns", g.dur_ns)
            .finish();
        obj.raw("guard", &guard);
    }
    if let Some(shadow) = p.shadow {
        obj.str("shadow", shadow.name());
        if let ShadowUse::Miss { build_ns } = shadow {
            obj.u64("shadow_ns", build_ns);
        }
    }
}

/// Serializes one of `t`'s retained pair records as a single-line JSON
/// object.
fn pair_to_json(t: &Tracer, p: &PairRecord) -> String {
    let mut obj = JsonObj::new();
    obj.str("type", "pair")
        .u64("target", u64::from(p.target))
        .u64("divisor", u64::from(p.divisor))
        .u64("start_ns", t.start_ns(p))
        .u64("dur_ns", p.dur_ns)
        .u64("enumerate_ns", p.stages.enumerate)
        .u64("filter_ns", p.stages.filter)
        .u64("sim_ns", p.stages.sim)
        .u64("divide_ns", p.stages.divide)
        .u64("apply_ns", p.stages.apply)
        .str("outcome", p.outcome.name())
        .i64("gain", p.gain)
        .u64("rar_checks", p.rar_checks)
        .bool("bound_skip", p.bound_skip)
        .u64("worker", u64::from(p.worker));
    verdict_fields(&mut obj, p);
    obj.finish()
}

/// Writes the trace as newline-delimited JSON: one `meta` line with the
/// mode and run-level aggregates, then one line per retained pair record.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl<W: Write>(t: &Tracer, w: &mut W) -> io::Result<()> {
    let (shadow_builds, shadow_ns) = t.shadow_stats();
    let (guard_checks, guard_ns) = t.guard_stats();
    let mut meta = JsonObj::new();
    meta.str("type", "meta")
        .str("mode", t.mode())
        .u64("pairs", t.pairs())
        .u64("bound_skips", t.bound_skips())
        .u64("events_dropped", t.dropped())
        .u64("shadow_builds", shadow_builds)
        .u64("shadow_ns", shadow_ns)
        .u64("guard_checks", guard_checks)
        .u64("guard_network_checks", t.guard_network_checks())
        .u64("guard_ns", guard_ns);
    for tier in crate::span::GuardTier::ALL {
        meta.u64(&format!("guard_{}", tier.name()), t.guard_tier_count(tier));
    }
    let meta = meta.finish();
    writeln!(w, "{meta}")?;
    for p in t.records() {
        writeln!(w, "{}", pair_to_json(t, p))?;
    }
    Ok(())
}

/// [`write_jsonl`] into a `String`.
#[must_use]
pub fn jsonl_string(t: &Tracer) -> String {
    let mut buf = Vec::new();
    write_jsonl(t, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

fn micros(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let us = ns as f64 / 1000.0;
    format!("{us:.3}")
}

fn chrome_metadata(out: &mut Vec<String>, name: &str, pid: u64, tid: u64, label: &str) {
    out.push(
        JsonObj::new()
            .str("name", name)
            .str("ph", "M")
            .u64("pid", pid)
            .u64("tid", tid)
            .raw("args", JsonObj::new().str("name", label).finish().as_str())
            .finish(),
    );
}

/// Renders one or more tracers (one Chrome "process" per tracer, so
/// modes sit side by side) as a Chrome trace-event JSON array.
#[must_use]
pub fn chrome_trace_string(tracers: &[&Tracer]) -> String {
    let mut rows: Vec<String> = Vec::new();
    for (pid, t) in (0u64..).zip(tracers.iter()) {
        // A pair span sits on its sweep lane's tid: the committer's
        // (`worker == 0`) on tid 0, labelled `pairs`, and pool worker
        // `w`'s on tid `w`, labelled `worker w` when it carries spans, so
        // the viewer never shows a raw tid.
        let label = format!("boolsubst {}", t.mode());
        chrome_metadata(&mut rows, "process_name", pid, 0, &label);
        chrome_metadata(&mut rows, "thread_name", pid, 0, "pairs");
        let mut worker_lanes: Vec<u32> = t.records().map(|p| p.worker).filter(|&w| w > 0).collect();
        worker_lanes.sort_unstable();
        worker_lanes.dedup();
        for lane in worker_lanes {
            let label = format!("worker {lane}");
            chrome_metadata(&mut rows, "thread_name", pid, u64::from(lane), &label);
        }

        for p in t.records() {
            let mut args = JsonObj::new();
            args.str("target", &t.node_name(p.target))
                .str("divisor", &t.node_name(p.divisor))
                .i64("gain", p.gain)
                .u64("rar_checks", p.rar_checks)
                .u64("filter_ns", p.stages.filter)
                .u64("sim_ns", p.stages.sim)
                .u64("divide_ns", p.stages.divide)
                .u64("apply_ns", p.stages.apply);
            verdict_fields(&mut args, p);
            rows.push(
                JsonObj::new()
                    .str("name", p.outcome.name())
                    .str("cat", "pair")
                    .str("ph", "X")
                    .raw("ts", &micros(t.start_ns(p)))
                    .raw("dur", &micros(p.dur_ns))
                    .u64("pid", pid)
                    .u64("tid", u64::from(p.worker))
                    .raw("args", &args.finish())
                    .finish(),
            );
        }
    }
    crate::json::json_array_pretty(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::span::{GuardScope, GuardTier, Outcome, PairGuard, PairRecord, StageNanos};

    /// A pair record on lane `worker` with the given outcome; the stage
    /// shares are filter 3 ns, divide 40 ns.
    fn record(worker: u32, outcome: Outcome, gain: i64, rar_checks: u64) -> PairRecord {
        PairRecord {
            dur_ns: 50,
            stages: StageNanos {
                filter: 3,
                divide: 40,
                ..StageNanos::default()
            },
            outcome,
            gain,
            rar_checks,
            worker,
            ..PairRecord::new(1, 2, std::time::Instant::now())
        }
    }

    /// One accepted pair that built its target's shadow snapshot (11 ns)
    /// and passed a whole-network SAT guard check (21 ns).
    fn sample_tracer() -> Tracer {
        let mut t = Tracer::new("ext-gdc");
        t.set_node_names(vec!["n0".into(), "n1".into(), "n2".into()]);
        t.record_pair(&PairRecord {
            shadow: Some(ShadowUse::Miss { build_ns: 11 }),
            guard: Some(PairGuard {
                tier: GuardTier::Sat,
                scope: GuardScope::Network,
                sat_runs: 1,
                dur_ns: 21,
            }),
            ..record(0, Outcome::AcceptedSop, 5, 7)
        });
        t
    }

    /// The guard object and shadow use the sample pair carries.
    fn assert_sample_verdicts(v: &Json) {
        let guard = v.get("guard").expect("guard object");
        assert_eq!(guard.get("tier").and_then(Json::as_str), Some("sat"));
        assert_eq!(guard.get("scope").and_then(Json::as_str), Some("network"));
        assert_eq!(guard.get("passed").and_then(Json::as_bool), Some(true));
        assert_eq!(guard.get("exact").and_then(Json::as_bool), Some(true));
        assert_eq!(guard.get("dur_ns").and_then(Json::as_u64), Some(21));
        assert_eq!(v.get("shadow").and_then(Json::as_str), Some("miss"));
        assert_eq!(v.get("shadow_ns").and_then(Json::as_u64), Some(11));
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let t = sample_tracer();
        let text = jsonl_string(&t);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "meta + one line per pair");

        let meta = Json::parse(lines[0]).expect("meta parses");
        assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
        assert_eq!(meta.get("mode").and_then(Json::as_str), Some("ext-gdc"));
        assert_eq!(meta.get("pairs").and_then(Json::as_u64), Some(1));

        let pair = Json::parse(lines[1]).expect("pair parses");
        assert_eq!(pair.get("type").and_then(Json::as_str), Some("pair"));
        assert_eq!(pair.get("target").and_then(Json::as_u64), Some(1));
        assert_eq!(pair.get("divisor").and_then(Json::as_u64), Some(2));
        assert_eq!(pair.get("filter_ns").and_then(Json::as_u64), Some(3));
        assert_eq!(pair.get("divide_ns").and_then(Json::as_u64), Some(40));
        assert_eq!(pair.get("rar_checks").and_then(Json::as_u64), Some(7));
        assert_eq!(pair.get("bound_skip").and_then(Json::as_bool), Some(false));
        assert_eq!(pair.get("gain").and_then(Json::as_i64), Some(5));
        assert_eq!(
            pair.get("outcome").and_then(Json::as_str),
            Some("accept_sop")
        );
        assert_sample_verdicts(&pair);

        // The meta aggregates are folds of the pair records.
        for (key, value) in [
            ("shadow_builds", 1),
            ("shadow_ns", 11),
            ("guard_checks", 1),
            ("guard_network_checks", 1),
            ("guard_ns", 21),
            ("guard_sat", 1),
            ("guard_bdd", 0),
        ] {
            assert_eq!(meta.get(key).and_then(Json::as_u64), Some(value), "{key}");
        }
    }

    #[test]
    fn chrome_trace_is_valid_and_labelled() {
        let t = sample_tracer();
        let text = chrome_trace_string(&[&t]);
        let v = Json::parse(&text).expect("chrome trace parses");
        let rows = v.as_array().expect("array");
        // 2 metadata rows + 1 pair span.
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0].get("ph").and_then(Json::as_str),
            Some("M"),
            "leads with metadata"
        );
        let pair = rows
            .iter()
            .find(|r| r.get("cat").and_then(Json::as_str) == Some("pair"))
            .expect("pair event present");
        assert_eq!(pair.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(pair.get("name").and_then(Json::as_str), Some("accept_sop"));
        let args = pair.get("args").expect("args");
        assert_eq!(args.get("target").and_then(Json::as_str), Some("n1"));
        assert_eq!(args.get("divisor").and_then(Json::as_str), Some("n2"));
        assert_sample_verdicts(args);
    }

    #[test]
    fn worker_spans_get_labelled_lanes() {
        let mut t = Tracer::new("ext-gdc");
        t.set_node_names(vec!["n0".into(), "n1".into(), "n2".into()]);
        // A committer pair and two pool-worker ones (workers 1 and 3).
        for lane in [0, 1, 3] {
            t.record_pair(&record(lane, Outcome::RejectedStructural, 0, 0));
        }

        let text = jsonl_string(&t);
        let workers: Vec<u64> = text
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter(|j| j.get("type").and_then(Json::as_str) == Some("pair"))
            .filter_map(|j| j.get("worker").and_then(Json::as_u64))
            .collect();
        assert_eq!(workers, vec![0, 1, 3], "committer = 0, worker w = w");

        let v = Json::parse(&chrome_trace_string(&[&t])).expect("parses");
        let rows = v.as_array().expect("array");
        let lane_label = |label: &str| {
            rows.iter()
                .find(|r| {
                    r.get("name").and_then(Json::as_str) == Some("thread_name")
                        && r.get("args")
                            .and_then(|a| a.get("name"))
                            .and_then(Json::as_str)
                            == Some(label)
                })
                .and_then(|r| r.get("tid").and_then(Json::as_u64))
        };
        let w1 = lane_label("worker 1").expect("worker 1 lane labelled");
        let w3 = lane_label("worker 3").expect("worker 3 lane labelled");
        assert!(
            lane_label("worker 2").is_none(),
            "unused lanes stay unlabelled"
        );
        assert!(
            lane_label("worker 0").is_none(),
            "the committer's pairs sit on the pairs lane"
        );
        // Worker spans sit on their labelled lanes; the committer's on "pairs".
        let pair_tids: Vec<u64> = rows
            .iter()
            .filter(|r| r.get("cat").and_then(Json::as_str) == Some("pair"))
            .filter_map(|r| r.get("tid").and_then(Json::as_u64))
            .collect();
        assert_eq!((w1, w3), (1, 3), "worker w sits on tid w");
        assert_eq!(pair_tids, vec![0, 1, 3]);
    }

    #[test]
    fn chrome_trace_multi_process() {
        let a = sample_tracer();
        let b = sample_tracer();
        let text = chrome_trace_string(&[&a, &b]);
        let v = Json::parse(&text).expect("parses");
        let pids: std::collections::BTreeSet<u64> = v
            .as_array()
            .expect("array")
            .iter()
            .filter_map(|r| r.get("pid").and_then(Json::as_u64))
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }
}
