//! CI validator for the observability artifacts: checks that a JSONL
//! event log, a Chrome trace-event file and/or a Prometheus text
//! exposition are well-formed without any external tooling.
//!
//! ```bash
//! trace_validate --jsonl trace.jsonl --chrome trace.json --prom metrics.prom
//! ```
//!
//! Exits non-zero with a diagnostic on the first violation. Checks:
//!
//! * JSONL: non-empty; every line parses as a JSON object with a known
//!   `type` (`meta` or `pair`); the first line of each mode block is a
//!   `meta` line; pair lines carry a known outcome name and all five
//!   stage-nanos fields, a `guard` object (when present) a known tier and
//!   scope, `passed`/`exact` bools and `dur_ns`, and a `shadow` use (when
//!   present) `hit` or `miss`.
//! * Chrome: the whole file parses as a JSON array; every event is a
//!   `ph: "M"` metadata or `ph: "X"` complete event with numeric
//!   `ts`/`dur`; `ts` is monotonically non-decreasing per `(pid, tid)`.
//! * Prometheus: every sample line parses as `name[{labels}] value`,
//!   every series is preceded by its `# TYPE` declaration, and each
//!   histogram exposes cumulative `_bucket` series ending in `+Inf`
//!   whose final count equals `_count`.

use std::collections::HashMap;
use std::process::ExitCode;

use boolsubst_trace::json::Json;
use boolsubst_trace::{GuardScope, GuardTier, Outcome};

const STAGE_FIELDS: [&str; 5] = [
    "enumerate_ns",
    "filter_ns",
    "sim_ns",
    "divide_ns",
    "apply_ns",
];

fn validate_jsonl(text: &str) -> Result<(), String> {
    let mut lines = 0usize;
    let mut pairs = 0usize;
    let mut first = true;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        lines += 1;
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing \"type\"", i + 1))?;
        if first && ty != "meta" {
            return Err(format!("line {}: stream must open with a meta line", i + 1));
        }
        first = false;
        match ty {
            "meta" => {
                v.get("mode")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {}: meta without mode", i + 1))?;
            }
            "pair" => {
                pairs += 1;
                let name = v
                    .get("outcome")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {}: pair without outcome", i + 1))?;
                if Outcome::from_name(name).is_none() {
                    return Err(format!("line {}: unknown outcome {name:?}", i + 1));
                }
                for field in STAGE_FIELDS {
                    if v.get(field).and_then(Json::as_u64).is_none() {
                        return Err(format!("line {}: pair missing {field}", i + 1));
                    }
                }
                if let Some(guard) = v.get("guard") {
                    validate_guard(guard).map_err(|e| format!("line {}: {e}", i + 1))?;
                }
                if let Some(shadow) = v.get("shadow") {
                    if !matches!(shadow.as_str(), Some("hit" | "miss")) {
                        return Err(format!("line {}: unknown shadow use {shadow:?}", i + 1));
                    }
                }
            }
            other => return Err(format!("line {}: unknown type {other:?}", i + 1)),
        }
    }
    if lines == 0 {
        return Err("empty JSONL stream".into());
    }
    println!("jsonl ok: {lines} lines, {pairs} pair spans");
    Ok(())
}

/// A pair's nested `guard` object: a known tier and scope, the
/// `passed`/`exact` bools and the check's `dur_ns`.
fn validate_guard(guard: &Json) -> Result<(), String> {
    let tier = guard
        .get("tier")
        .and_then(Json::as_str)
        .ok_or("guard without tier")?;
    if !GuardTier::ALL.iter().any(|t| t.name() == tier) {
        return Err(format!("unknown guard tier {tier:?}"));
    }
    let scope = guard
        .get("scope")
        .and_then(Json::as_str)
        .ok_or("guard without scope")?;
    if !GuardScope::ALL.iter().any(|s| s.name() == scope) {
        return Err(format!("unknown guard scope {scope:?}"));
    }
    for field in ["passed", "exact"] {
        if guard.get(field).and_then(Json::as_bool).is_none() {
            return Err(format!("guard missing {field}"));
        }
    }
    if guard.get("dur_ns").and_then(Json::as_u64).is_none() {
        return Err("guard missing dur_ns".into());
    }
    Ok(())
}

fn validate_chrome(text: &str) -> Result<(), String> {
    let v = Json::parse(text).map_err(|e| format!("chrome trace: {e}"))?;
    let rows = v.as_array().ok_or("chrome trace is not a JSON array")?;
    if rows.is_empty() {
        return Err("chrome trace is empty".into());
    }
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut complete = 0usize;
    for (i, row) in rows.iter().enumerate() {
        let ph = row
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = row
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = row
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        match ph {
            "M" => {}
            "X" => {
                complete += 1;
                let ts = row
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X without numeric ts"))?;
                let dur = row
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X without numeric dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                let key = (pid, tid);
                if let Some(&prev) = last_ts.get(&key) {
                    if ts < prev {
                        return Err(format!(
                            "event {i}: ts {ts} < {prev} regresses on pid {pid} tid {tid}"
                        ));
                    }
                }
                last_ts.insert(key, ts);
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    if complete == 0 {
        return Err("chrome trace has no complete (ph=X) events".into());
    }
    println!("chrome ok: {} events, {complete} complete", rows.len());
    Ok(())
}

/// True iff `name` is a legal Prometheus metric/series name.
fn prom_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    first_ok
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Strips a histogram-series suffix, returning the base metric name.
fn prom_base(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

fn validate_prom(text: &str) -> Result<(), String> {
    let mut types: HashMap<String, String> = HashMap::new();
    // Per-histogram state: (last cumulative bucket count, saw +Inf,
    // _count value) so we can cross-check the series at the end.
    let mut hist_last: HashMap<String, f64> = HashMap::new();
    let mut hist_inf: HashMap<String, f64> = HashMap::new();
    let mut hist_count: HashMap<String, f64> = HashMap::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(ty), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("line {n}: malformed TYPE comment"));
            };
            if !prom_name_ok(name) {
                return Err(format!("line {n}: bad metric name {name:?}"));
            }
            if !matches!(ty, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown metric type {ty:?}"));
            }
            if types.insert(name.to_string(), ty.to_string()).is_some() {
                return Err(format!("line {n}: duplicate TYPE for {name:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments (HELP etc.) are legal
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample without value"))?;
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse()
                .map_err(|_| format!("line {n}: non-numeric value {v:?}"))?,
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, Some(labels))
            }
            None => (series, None),
        };
        if !prom_name_ok(name) {
            return Err(format!("line {n}: bad series name {name:?}"));
        }
        let base = prom_base(name);
        let ty = types
            .get(base)
            .or_else(|| types.get(name))
            .ok_or_else(|| format!("line {n}: sample {name:?} without a TYPE declaration"))?;
        if ty == "histogram" {
            if name == format!("{base}_bucket") {
                let labels = labels.ok_or_else(|| format!("line {n}: _bucket without le label"))?;
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("line {n}: _bucket labels {labels:?} are not le"))?;
                let last = hist_last.entry(base.to_string()).or_insert(0.0);
                if value < *last {
                    return Err(format!(
                        "line {n}: {base} bucket le={le} count {value} regresses below {last}"
                    ));
                }
                *last = value;
                if le == "+Inf" {
                    hist_inf.insert(base.to_string(), value);
                }
            } else if name == format!("{base}_count") {
                hist_count.insert(base.to_string(), value);
            }
        } else if labels.is_some() {
            return Err(format!("line {n}: unexpected labels on {ty} {name:?}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples".into());
    }
    for (name, ty) in &types {
        if ty == "histogram" {
            let inf = hist_inf
                .get(name)
                .ok_or_else(|| format!("histogram {name:?} has no +Inf bucket"))?;
            let count = hist_count
                .get(name)
                .ok_or_else(|| format!("histogram {name:?} has no _count"))?;
            if inf != count {
                return Err(format!(
                    "histogram {name:?}: +Inf bucket {inf} != _count {count}"
                ));
            }
        }
    }
    println!("prom ok: {} series types, {samples} samples", types.len());
    Ok(())
}

type Validator = fn(&str) -> Result<(), String>;

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut checked = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, validate): (&str, Validator) = match a.as_str() {
            "--jsonl" => ("--jsonl", validate_jsonl),
            "--chrome" => ("--chrome", validate_chrome),
            "--prom" => ("--prom", validate_prom),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let path = it.next().ok_or_else(|| format!("{flag} needs a path"))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        validate(&text).map_err(|e| format!("{path}: {e}"))?;
        checked = true;
    }
    if !checked {
        return Err(
            "usage: trace_validate [--jsonl <trace.jsonl>] [--chrome <trace.json>] \
             [--prom <metrics.prom>]"
                .into(),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("trace_validate: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair line without the stage field `omit`, ending in the
    /// pre-serialized `extra` fields.
    fn pair_line(omit: Option<&str>, extra: &str) -> String {
        let stages: Vec<String> = STAGE_FIELDS
            .iter()
            .filter(|f| Some(**f) != omit)
            .map(|f| format!(",\"{f}\":1"))
            .collect();
        format!(
            "{{\"type\":\"pair\",\"outcome\":\"{}\"{}{extra}}}",
            Outcome::AcceptedSop.name(),
            stages.concat()
        )
    }

    const META: &str = "{\"type\":\"meta\",\"mode\":\"ext\"}";

    #[test]
    fn jsonl_accepts_a_well_formed_stream() {
        let text = format!(
            "{META}\n{}\n{}\n",
            pair_line(None, ""),
            pair_line(None, ",\"shadow\":\"miss\",\"shadow_ns\":5")
        );
        assert_eq!(validate_jsonl(&text), Ok(()));
    }

    #[test]
    fn jsonl_rejects_a_pass_line() {
        let text = format!("{META}\n{{\"type\":\"pass\",\"dur_ns\":5}}\n");
        let err = validate_jsonl(&text).unwrap_err();
        assert!(err.contains("unknown type \"pass\""), "{err}");
    }

    #[test]
    fn jsonl_rejects_a_pair_missing_a_stage_field() {
        let text = format!("{META}\n{}\n", pair_line(Some("divide_ns"), ""));
        let err = validate_jsonl(&text).unwrap_err();
        assert!(err.contains("pair missing divide_ns"), "{err}");
    }

    #[test]
    fn jsonl_rejects_a_stream_without_a_leading_meta_line() {
        let err = validate_jsonl(&format!("{}\n", pair_line(None, ""))).unwrap_err();
        assert!(err.contains("meta line"), "{err}");
    }

    /// A pair line carrying a guard object of `tier` and `scope`.
    fn guard_line(tier: &str, scope: &str) -> String {
        pair_line(
            None,
            &format!(
                ",\"guard\":{{\"tier\":\"{tier}\",\"scope\":\"{scope}\",\
                 \"passed\":false,\"exact\":false,\"dur_ns\":3}}"
            ),
        )
    }

    #[test]
    fn jsonl_accepts_every_guard_tier_and_rejects_others() {
        for tier in GuardTier::ALL {
            let text = format!("{META}\n{}\n", guard_line(tier.name(), "cut"));
            assert_eq!(validate_jsonl(&text), Ok(()), "{}", tier.name());
        }
        let err =
            validate_jsonl(&format!("{META}\n{}\n", guard_line("oracle", "cut"))).unwrap_err();
        assert!(err.contains("unknown guard tier"), "{err}");
    }

    #[test]
    fn jsonl_accepts_every_guard_scope_and_rejects_others() {
        for scope in GuardScope::ALL {
            let text = format!("{META}\n{}\n", guard_line("sim", scope.name()));
            assert_eq!(validate_jsonl(&text), Ok(()), "{}", scope.name());
        }
        let err = validate_jsonl(&format!("{META}\n{}\n", guard_line("sim", "cone"))).unwrap_err();
        assert!(err.contains("unknown guard scope"), "{err}");
    }

    /// Guard verdicts and shadow builds ride on their pair's line: the
    /// old side-channel line types are unknown, and a shadow use is
    /// `hit` or `miss`.
    #[test]
    fn jsonl_rejects_side_channel_lines_and_unknown_shadow_uses() {
        for ty in ["guard", "shadow_build"] {
            let text = format!("{META}\n{{\"type\":\"{ty}\",\"dur_ns\":5}}\n");
            let err = validate_jsonl(&text).unwrap_err();
            assert!(err.contains(&format!("unknown type \"{ty}\"")), "{err}");
        }
        let line = pair_line(None, ",\"shadow\":\"built\"");
        let err = validate_jsonl(&format!("{META}\n{line}\n")).unwrap_err();
        assert!(err.contains("unknown shadow use"), "{err}");
    }

    fn chrome(ts: [u32; 2]) -> String {
        format!(
            "[{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\"}},\
             {{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":2}},\
             {{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":2}}]",
            ts[0], ts[1]
        )
    }

    #[test]
    fn chrome_accepts_monotonic_timestamps() {
        assert_eq!(validate_chrome(&chrome([10, 20])), Ok(()));
    }

    #[test]
    fn chrome_rejects_a_regressing_timestamp() {
        let err = validate_chrome(&chrome([20, 10])).unwrap_err();
        assert!(err.contains("regresses"), "{err}");
    }

    fn prom(count: u32) -> String {
        format!(
            "# TYPE jobs counter\njobs 3\n\
             # TYPE lat histogram\n\
             lat_bucket{{le=\"1\"}} 1\nlat_bucket{{le=\"+Inf\"}} 3\n\
             lat_sum 4.5\nlat_count {count}\n"
        )
    }

    #[test]
    fn prom_accepts_a_consistent_histogram() {
        assert_eq!(validate_prom(&prom(3)), Ok(()));
    }

    #[test]
    fn prom_rejects_an_inf_bucket_that_disagrees_with_count() {
        let err = validate_prom(&prom(4)).unwrap_err();
        assert!(err.contains("+Inf bucket 3 != _count 4"), "{err}");
    }

    #[test]
    fn prom_rejects_a_sample_without_a_type_declaration() {
        let err = validate_prom("jobs 3\n").unwrap_err();
        assert!(err.contains("without a TYPE"), "{err}");
    }
}
