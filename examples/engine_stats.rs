//! Run the incremental substitution engine on a generated network with a
//! tracer attached: print the per-mode `TraceReport` (phase breakdown,
//! reject funnel, latency histograms, hottest targets), the stage-level
//! `SubstStats` tables, and the three modes' stats merged into one block.
//!
//! ```bash
//! cargo run --example engine_stats
//! # export the recorded spans as well:
//! cargo run --example engine_stats -- --trace trace.jsonl --chrome-trace trace.json
//! ```

use boolsubst::core::{Session, SubstOptions, SubstStats};
use boolsubst::trace::export::{chrome_trace_string, jsonl_string};
use boolsubst::trace::Tracer;
use boolsubst::workloads::generator::{random_network, GeneratorParams};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };

    let net = random_network(42, &GeneratorParams::default());
    let modes: [(&str, SubstOptions); 3] = [
        ("basic", SubstOptions::basic()),
        ("ext", SubstOptions::extended()),
        ("ext-gdc", SubstOptions::extended_gdc()),
    ];
    let mut tracers: Vec<Tracer> = Vec::new();
    let mut merged = SubstStats::default();
    for (name, opts) in modes {
        let mut trial = net.clone();
        let before = trial.sop_literals();
        let mut tracer = Tracer::new(name);
        let stats = Session::new(&mut trial, opts).tracer(&mut tracer).run();
        merged.merge(&stats);
        println!(
            "== {name}: SOP literals {} -> {} ==\n",
            before,
            trial.sop_literals()
        );
        println!("{stats}\n");
        println!("{}\n", tracer.report());
        tracers.push(tracer);
    }
    println!("== merged stats across modes ==\n");
    println!("{merged}");

    if let Some(path) = flag_value("--trace") {
        let text: String = tracers.iter().map(jsonl_string).collect();
        std::fs::write(path, text).expect("write JSONL trace");
        println!("wrote {path}");
    }
    if let Some(path) = flag_value("--chrome-trace") {
        let refs: Vec<&Tracer> = tracers.iter().collect();
        std::fs::write(path, chrome_trace_string(&refs)).expect("write Chrome trace");
        println!("wrote {path}");
    }
}
