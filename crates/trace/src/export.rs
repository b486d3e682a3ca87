//! Trace exporters: newline-delimited JSON events and the Chrome
//! trace-event format (loadable in `chrome://tracing` and Perfetto).

use std::io::{self, Write};

use crate::json::JsonObj;
use crate::span::TraceEvent;
use crate::tracer::Tracer;

/// Serializes one of `t`'s ring-buffer events as a single-line JSON
/// object.
fn event_to_json(t: &Tracer, ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::Pair(p) => JsonObj::new()
            .str("type", "pair")
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
            .u64("worker", u64::from(p.worker))
            .finish(),
        TraceEvent::ShadowBuild {
            target,
            start_ns,
            dur_ns,
        } => JsonObj::new()
            .str("type", "shadow_build")
            .u64("target", u64::from(*target))
            .u64("start_ns", *start_ns)
            .u64("dur_ns", *dur_ns)
            .finish(),
        TraceEvent::Guard {
            target,
            divisor,
            tier,
            scope,
            passed,
            exact,
            start_ns,
            dur_ns,
        } => JsonObj::new()
            .str("type", "guard")
            .u64("target", u64::from(*target))
            .u64("divisor", u64::from(*divisor))
            .str("tier", tier.name())
            .str("scope", scope.name())
            .bool("passed", *passed)
            .bool("exact", *exact)
            .u64("start_ns", *start_ns)
            .u64("dur_ns", *dur_ns)
            .finish(),
    }
}

/// Writes the trace as newline-delimited JSON: one `meta` line with the
/// mode and run-level aggregates, then one line per retained event.
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
    for ev in t.events() {
        writeln!(w, "{}", event_to_json(t, ev))?;
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

/// Thread ids used in the Chrome export: pair spans.
const TID_PAIRS: u64 = 0;
/// Thread ids used in the Chrome export: shadow builds and guard checks.
const TID_AUX: u64 = 1;
/// The committer's pairs (`worker == 0`) sit on the `pairs` lane; a pair
/// span evaluated by pool worker `w >= 1` lands on tid `TID_AUX + w`,
/// labelled `worker w` by a `thread_name` metadata row.
fn pair_tid(worker: u32) -> u64 {
    if worker == 0 {
        TID_PAIRS
    } else {
        TID_AUX + u64::from(worker)
    }
}

#[allow(clippy::too_many_arguments)]
fn chrome_complete(
    out: &mut Vec<String>,
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    args: String,
) {
    out.push(
        JsonObj::new()
            .str("name", name)
            .str("cat", cat)
            .str("ph", "X")
            .raw("ts", &micros(start_ns))
            .raw("dur", &micros(dur_ns))
            .u64("pid", pid)
            .u64("tid", tid)
            .raw("args", &args)
            .finish(),
    );
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
        chrome_metadata(
            &mut rows,
            "process_name",
            pid,
            TID_PAIRS,
            &format!("boolsubst {}", t.mode()),
        );
        chrome_metadata(&mut rows, "thread_name", pid, TID_PAIRS, "pairs");
        chrome_metadata(&mut rows, "thread_name", pid, TID_AUX, "engine aux");
        // Label every pool-worker lane that actually carries spans, so
        // the viewer shows "worker 3" instead of a raw tid.
        let mut worker_lanes: Vec<u32> = t
            .events()
            .filter_map(|ev| match ev {
                TraceEvent::Pair(p) if p.worker > 0 => Some(p.worker),
                _ => None,
            })
            .collect();
        worker_lanes.sort_unstable();
        worker_lanes.dedup();
        for &lane in &worker_lanes {
            chrome_metadata(
                &mut rows,
                "thread_name",
                pid,
                pair_tid(lane),
                &format!("worker {lane}"),
            );
        }

        for ev in t.events() {
            match ev {
                TraceEvent::Pair(p) => {
                    let args = JsonObj::new()
                        .str("target", &t.node_name(p.target))
                        .str("divisor", &t.node_name(p.divisor))
                        .i64("gain", p.gain)
                        .u64("rar_checks", p.rar_checks)
                        .u64("filter_ns", p.stages.filter)
                        .u64("sim_ns", p.stages.sim)
                        .u64("divide_ns", p.stages.divide)
                        .u64("apply_ns", p.stages.apply)
                        .finish();
                    chrome_complete(
                        &mut rows,
                        p.outcome.name(),
                        "pair",
                        pid,
                        pair_tid(p.worker),
                        t.start_ns(p),
                        p.dur_ns,
                        args,
                    );
                }
                TraceEvent::ShadowBuild {
                    target,
                    start_ns,
                    dur_ns,
                } => {
                    let args = JsonObj::new().str("target", &t.node_name(*target)).finish();
                    chrome_complete(
                        &mut rows,
                        "shadow_build",
                        "aux",
                        pid,
                        TID_AUX,
                        *start_ns,
                        *dur_ns,
                        args,
                    );
                }
                TraceEvent::Guard {
                    target,
                    divisor,
                    tier,
                    scope,
                    passed,
                    exact,
                    start_ns,
                    dur_ns,
                } => {
                    let args = JsonObj::new()
                        .str("target", &t.node_name(*target))
                        .str("divisor", &t.node_name(*divisor))
                        .str("tier", tier.name())
                        .str("scope", scope.name())
                        .bool("passed", *passed)
                        .bool("exact", *exact)
                        .finish();
                    chrome_complete(
                        &mut rows,
                        &format!("guard_{}", tier.name()),
                        "guard",
                        pid,
                        TID_AUX,
                        *start_ns,
                        *dur_ns,
                        args,
                    );
                }
            }
        }
    }
    crate::json::json_array_pretty(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::span::{Outcome, PairRecord, StageNanos};

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

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::new("ext-gdc");
        t.set_node_names(vec!["n0".into(), "n1".into(), "n2".into()]);
        t.record_pair(&record(0, Outcome::AcceptedSop, 5, 7));
        t.shadow_build(1, 11);
        t.guard_check(
            1,
            2,
            crate::span::GuardTier::Sat,
            crate::span::GuardScope::Network,
            true,
            true,
            21,
        );
        t
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let t = sample_tracer();
        let text = jsonl_string(&t);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "meta + pair + shadow + guard");

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

        let shadow = Json::parse(lines[2]).expect("shadow parses");
        assert_eq!(
            shadow.get("type").and_then(Json::as_str),
            Some("shadow_build")
        );
        let guard = Json::parse(lines[3]).expect("guard parses");
        assert_eq!(guard.get("type").and_then(Json::as_str), Some("guard"));
        assert_eq!(guard.get("tier").and_then(Json::as_str), Some("sat"));
        assert_eq!(guard.get("scope").and_then(Json::as_str), Some("network"));
        assert_eq!(guard.get("passed").and_then(Json::as_bool), Some(true));
        assert_eq!(guard.get("exact").and_then(Json::as_bool), Some(true));
        assert_eq!(guard.get("dur_ns").and_then(Json::as_u64), Some(21));
        assert_eq!(meta.get("guard_checks").and_then(Json::as_u64), Some(1));
        assert_eq!(
            meta.get("guard_network_checks").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(meta.get("guard_sat").and_then(Json::as_u64), Some(1));
        assert_eq!(meta.get("guard_bdd").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn chrome_trace_is_valid_and_labelled() {
        let t = sample_tracer();
        let text = chrome_trace_string(&[&t]);
        let v = Json::parse(&text).expect("chrome trace parses");
        let rows = v.as_array().expect("array");
        // 3 metadata rows + 3 events.
        assert_eq!(rows.len(), 6);
        let guard = rows
            .iter()
            .find(|r| r.get("cat").and_then(Json::as_str) == Some("guard"))
            .expect("guard event present");
        assert_eq!(guard.get("name").and_then(Json::as_str), Some("guard_sat"));
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
        assert_eq!(pair_tids, vec![TID_PAIRS, w1, w3]);
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
