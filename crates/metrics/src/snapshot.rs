//! JSON snapshot sink, routed through the `boolsubst_trace::json`
//! writer so the output is parseable by the same zero-dependency
//! parser the validators use.
//!
//! Shape (one object):
//!
//! ```json
//! {"type": "metrics",
//!  "counters": {"engine.candidates_enumerated": 42, ...},
//!  "gauges": {"mem.live_bytes": 1024, ...},
//!  "histograms": {"engine.pair_ns":
//!     {"count": 3, "sum": 10, "buckets": [[0, 1], [7, 2]]}, ...}}
//! ```
//!
//! Histogram `buckets` pair each log2 bucket's inclusive upper bound
//! (ns) with its *non-cumulative* count; empty buckets are omitted.

use boolsubst_trace::{bucket_ceil, json::JsonObj};

use crate::registry::MetricsHandle;

/// Renders every registered metric as one JSON object (keys sorted).
#[must_use]
pub fn json_snapshot_string(handle: &MetricsHandle) -> String {
    let snap = handle.snapshot();
    let mut counters = String::from("{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            counters.push_str(", ");
        }
        counters.push_str(&format!("\"{k}\": {v}"));
    }
    counters.push('}');
    let mut gauges = String::from("{");
    for (i, (k, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            gauges.push_str(", ");
        }
        gauges.push_str(&format!("\"{k}\": {v}"));
    }
    gauges.push('}');
    let mut hists = String::from("{");
    for (i, (k, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            hists.push_str(", ");
        }
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(b, &c)| format!("[{}, {c}]", bucket_ceil(b)))
            .collect();
        hists.push_str(&format!(
            "\"{k}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
            h.count,
            h.sum,
            buckets.join(", ")
        ));
    }
    hists.push('}');
    let mut obj = JsonObj::new();
    obj.str("type", "metrics")
        .raw("counters", &counters)
        .raw("gauges", &gauges)
        .raw("histograms", &hists);
    let mut s = obj.finish();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prometheus::prometheus_string;
    use crate::registry::MetricsHandle;
    use boolsubst_trace::json::Json;

    fn sample() -> MetricsHandle {
        let m = MetricsHandle::new();
        m.counter("engine.pairs").add(42);
        m.counter("sweep.worker.0.proof_ns").add(9_001);
        m.gauge("engine.targets_done").set(17);
        let h = m.histogram("engine.pair_ns");
        for v in [0, 3, 900, 900, 1_000_000] {
            h.observe(v);
        }
        m
    }

    #[test]
    fn snapshot_parses_back() {
        let m = sample();
        let j = Json::parse(&json_snapshot_string(&m)).expect("valid json");
        assert_eq!(j.get("type").and_then(Json::as_str), Some("metrics"));
        let counters = j.get("counters").expect("counters");
        assert_eq!(
            counters.get("engine.pairs").and_then(Json::as_u64),
            Some(42)
        );
        let h = j
            .get("histograms")
            .and_then(|h| h.get("engine.pair_ns"))
            .expect("hist");
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(5));
        let buckets = h.get("buckets").and_then(Json::as_array).expect("buckets");
        let total: u64 = buckets
            .iter()
            .map(|p| p.as_array().expect("pair")[1].as_u64().expect("count"))
            .sum();
        assert_eq!(total, 5);
    }

    /// Tentpole satellite: the JSON and Prometheus sinks agree on
    /// every value — same counters, same gauges, same histogram
    /// count/sum, and the JSON bucket counts cumulate to exactly the
    /// Prometheus `_bucket` series.
    #[test]
    fn json_and_prometheus_snapshots_agree() {
        let m = sample();
        let j = Json::parse(&json_snapshot_string(&m)).expect("valid json");
        let prom = prometheus_string(&m);
        let line = |name: &str, v: &str| format!("{name} {v}\n");
        for (key, val) in [("engine.pairs", 42u64), ("sweep.worker.0.proof_ns", 9_001)] {
            assert_eq!(
                j.get("counters")
                    .and_then(|c| c.get(key))
                    .and_then(Json::as_u64),
                Some(val)
            );
            assert!(prom.contains(&line(&key.replace('.', "_"), &val.to_string())));
        }
        assert!(prom.contains(&line("engine_targets_done", "17")));
        let h = j
            .get("histograms")
            .and_then(|h| h.get("engine.pair_ns"))
            .expect("hist");
        let (count, sum) = (
            h.get("count").and_then(Json::as_u64).expect("count"),
            h.get("sum").and_then(Json::as_u64).expect("sum"),
        );
        assert!(prom.contains(&line("engine_pair_ns_count", &count.to_string())));
        assert!(prom.contains(&line("engine_pair_ns_sum", &sum.to_string())));
        let mut cum = 0;
        for pair in h.get("buckets").and_then(Json::as_array).expect("buckets") {
            let pair = pair.as_array().expect("pair");
            let (le, c) = (pair[0].as_u64().expect("le"), pair[1].as_u64().expect("c"));
            cum += c;
            assert!(prom.contains(&format!("engine_pair_ns_bucket{{le=\"{le}\"}} {cum}\n")));
        }
        assert_eq!(cum, count);
    }
}
