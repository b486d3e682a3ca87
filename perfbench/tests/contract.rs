//! The benchmark's own checks: a smoke-sized run of every workload, with
//! and without tracing, must pass its output checks and print exactly
//! the metrics `BENCHMARK.json` declares, with the declared units.

use boolsubst_trace::json::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["paper-suite", "mixed-1000", "checked-arith", "serve-closed"];

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a section, sorted.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = doc
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            let name = field("name").expect("metric name");
            let better = field("better").unwrap_or_default();
            assert!(
                better == "lower" || better == "higher",
                "{name}: direction '{better}'"
            );
            (name, field("unit").expect("metric unit"))
        })
        .collect();
    out.sort();
    out
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    let doc = manifest();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(&doc, section);
        for workload in WORKLOADS {
            let result = run(workload, trace);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let mut printed: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::members)
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{workload}: {name} has no numeric value"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                    (name.clone(), unit.to_string())
                })
                .collect();
            printed.sort();
            assert_eq!(printed, want, "{workload} trace={trace}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let doc = manifest();
    for workload in WORKLOADS {
        let result = run(workload, false);
        for (name, m) in result
            .get("metrics")
            .and_then(Json::members)
            .expect("metrics")
        {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
    assert!(declared(&doc, "end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn recorded_thread_and_connection_counts_fit_the_host() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("workloads.json")).expect("JSON");
    let nproc = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    for w in doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
    {
        for key in ["sweep_threads", "traced_comparison_threads", "connections"] {
            let count = w.get(key).and_then(Json::as_u64).expect(key);
            assert!(count <= nproc, "{key} = {count} exceeds {nproc} CPU(s)");
        }
    }
}
