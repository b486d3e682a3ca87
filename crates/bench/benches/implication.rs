//! Microbenchmarks of the implication engine: one-shot redundancy checks
//! (direct implications vs. recursive learning) on chains of growing
//! depth — the paper's run-time/quality knob — and, on a division-shaped
//! region, a sweep over every fault through one reused checker and the
//! redundancy-removal loop (truth-table screen included: the region has
//! ten inputs).

use boolsubst_atpg::{
    check_fault, remove_redundant_wires_with, CandidateWire, Circuit, Fault, FaultChecker, GateId,
    ImplyOptions, RemovalOptions, Wire,
};
use boolsubst_bench::timing::Harness;
use std::hint::black_box;

/// Builds a reconvergent ladder of `depth` stages; returns the circuit and
/// a mid-ladder wire whose fault check exercises long implication chains.
fn ladder(depth: usize) -> (Circuit, Wire) {
    let mut c = Circuit::new();
    let mut a = c.add_input();
    let b = c.add_input();
    let mut mid = None;
    for i in 0..depth {
        let x = c.add_and(vec![a, b]);
        let y = c.add_or(vec![x, a]);
        if i == depth / 2 {
            mid = Some(Wire { gate: y, pin: 0 });
        }
        a = y;
    }
    c.add_output(a);
    (c, mid.expect("depth > 0"))
}

fn main() {
    let harness = Harness::from_args();
    let mut group = harness.group("implication");
    for depth in [8usize, 32, 128] {
        let (circuit, wire) = ladder(depth);
        let fault = Fault::sa1(wire);
        group.bench(&format!("check_fault_direct/{depth}"), || {
            black_box(check_fault(
                black_box(&circuit),
                fault,
                ImplyOptions { learn_depth: 0 },
            ))
        });
        group.bench(&format!("check_fault_learning1/{depth}"), || {
            black_box(check_fault(
                black_box(&circuit),
                fault,
                ImplyOptions { learn_depth: 1 },
            ))
        });
    }

    let mut group = harness.group("region_sweep");
    for cubes in [4usize, 16, 64] {
        let mut circuit = Circuit::new();
        let inputs: Vec<GateId> = (0..10).map(|_| circuit.add_input()).collect();
        let mut cube_gates = Vec::new();
        for k in 0..cubes {
            let ins: Vec<GateId> = (0..3).map(|j| inputs[(k * 3 + j) % inputs.len()]).collect();
            cube_gates.push(circuit.add_and(ins));
        }
        let root = circuit.add_or(cube_gates.clone());
        circuit.add_output(root);
        let faults: Vec<Fault> = cube_gates
            .iter()
            .flat_map(|&g| (0..circuit.fanins(g).len()).map(move |pin| Wire { gate: g, pin }))
            .map(Fault::sa1)
            .collect();
        let candidates: Vec<CandidateWire> = cube_gates
            .iter()
            .flat_map(|&sink| {
                let literals = circuit
                    .fanins(sink)
                    .iter()
                    .map(move |&driver| CandidateWire { sink, driver });
                literals.chain([CandidateWire {
                    sink: root,
                    driver: sink,
                }])
            })
            .collect();
        let opts = RemovalOptions::default();
        group.bench(&format!("removal/{cubes}"), || {
            let mut region = circuit.clone();
            black_box(remove_redundant_wires_with(&mut region, &candidates, &opts, 3).checks)
        });
        let mut checker = FaultChecker::new(circuit);
        group.bench(&format!("all_faults/{cubes}"), || {
            let mut untestable = 0usize;
            for &fault in &faults {
                if checker.check(fault, ImplyOptions::default()).is_err() {
                    untestable += 1;
                }
            }
            black_box(untestable)
        });
    }
}
