//! Crossover sweep: where does *extended* division start paying for its
//! vote/clique overhead? The knob is the number of junk cubes padded onto
//! each planted divisor node — at 0 the divisor is usable as-is (basic
//! suffices); every extra cube hides the core deeper, and only divisor
//! decomposition (Section IV) can recover it.
//!
//! Prints the padding-vs-method literal table of EXPERIMENTS.md
//! ("Extension — crossover sweep"). Timings live in the `perfbench`
//! package (`BENCHMARK.json`), not here.

use boolsubst_algebraic::{algebraic_resub, network_factored_literals, ResubOptions};
use boolsubst_core::verify::networks_equivalent;
use boolsubst_core::{Session, SubstOptions};
use boolsubst_network::Network;
use boolsubst_workloads::generator::{planted_network, PlantedParams};
use boolsubst_workloads::scripts::script_a;

const SEEDS: [u64; 5] = [301, 302, 303, 304, 305];

fn main() {
    println!("Crossover sweep — divisor padding vs method (total factored literals)\n");
    println!(
        "{:<8} {:>8} | {:>7} | {:>7} | {:>7} | {:>9}",
        "padding", "initial", "resub", "basic", "ext.", "ext-basic"
    );
    for extra in 0..=3 {
        let mut initial = 0usize;
        let mut cells = [0usize; 3];
        for seed in SEEDS {
            let mut net = planted_network(
                seed,
                &PlantedParams {
                    targets: 8,
                    divisor_extra_cubes: extra,
                    ..PlantedParams::default()
                },
            );
            script_a(&mut net);
            initial += network_factored_literals(&net);
            let runs: [&dyn Fn(&mut Network); 3] = [
                &|n| {
                    algebraic_resub(n, &ResubOptions::default());
                },
                &|n| {
                    Session::new(n, SubstOptions::basic()).run();
                },
                &|n| {
                    Session::new(n, SubstOptions::extended()).run();
                },
            ];
            for (i, run) in runs.iter().enumerate() {
                let mut trial = net.clone();
                run(&mut trial);
                assert!(
                    networks_equivalent(&net, &trial),
                    "method {i} broke seed {seed} at padding {extra}"
                );
                cells[i] += network_factored_literals(&trial);
            }
        }
        let gap = cells[1] as i64 - cells[2] as i64;
        println!(
            "{:<8} {:>8} | {:>7} | {:>7} | {:>7} | {:>9}",
            extra, initial, cells[0], cells[1], cells[2], gap
        );
    }
    println!(
        "\n(ext-basic = literals extended saves beyond basic; it should grow\n\
         with padding — at 0 the two coincide, past the crossover only the\n\
         decomposing divider can reach the buried cores)"
    );
}
