//! Soundness of the ATPG substrate on randomized circuits: every
//! "untestable" verdict is checked against the exhaustive oracle, and
//! redundancy removal never changes an observed function. Also covers the
//! recursive-learning strengthening.
//!
//! Circuits come from seeded gate recipes drawn with the workloads
//! crate's xorshift [`Rng`], so every case is reproducible from its
//! index.

use boolsubst::atpg::{
    check_fault, is_testable_exhaustive, remove_redundant_wires, CandidateWire, Circuit, Fault,
    GateId, GateKind, ImplyOptions, Wire,
};
use boolsubst::workloads::generator::Rng;

const INPUTS: usize = 5;

/// A 5-input circuit of 3–10 random gates (AND, OR or NOT over 1–3
/// earlier signals). The last gate is an output; a second observation
/// point midway exercises multi-output dominators.
fn random_circuit(case: u64) -> Circuit {
    let mut rng = Rng::new(case + 1);
    let mut c = Circuit::new();
    let mut pool: Vec<GateId> = (0..INPUTS).map(|_| c.add_input()).collect();
    for _ in 0..3 + rng.below(8) {
        let mut ins: Vec<GateId> = Vec::new();
        for _ in 0..=rng.below(3) {
            let g = pool[rng.below(pool.len())];
            if !ins.contains(&g) {
                ins.push(g);
            }
        }
        let g = match rng.below(3) {
            0 => c.add_and(ins),
            1 => c.add_or(ins),
            _ => c.add_not(ins[0]),
        };
        pool.push(g);
    }
    let out = *pool.last().expect("nonempty");
    c.add_output(out);
    if pool.len() > INPUTS + 2 {
        c.add_output(pool[INPUTS + 1]);
    }
    c
}

/// Every output's value under every input minterm.
fn observed(c: &Circuit) -> Vec<Vec<bool>> {
    (0u32..1 << INPUTS)
        .map(|m| {
            let ins: Vec<bool> = (0..INPUTS).map(|i| (m >> i) & 1 == 1).collect();
            let vals = c.eval(&ins);
            c.outputs().iter().map(|o| vals[o.index()]).collect()
        })
        .collect()
}

/// No false redundancy claims, at any learning depth.
#[test]
fn untestable_claims_are_sound() {
    for case in 0..48 {
        let c = random_circuit(case);
        for g in c.gate_ids() {
            for pin in 0..c.fanins(g).len() {
                for stuck in [false, true] {
                    let fault = Fault {
                        wire: Wire { gate: g, pin },
                        stuck,
                    };
                    for depth in [0u8, 1] {
                        let opts = ImplyOptions { learn_depth: depth };
                        if check_fault(&c, fault, opts).is_untestable() {
                            assert!(
                                !is_testable_exhaustive(&c, fault),
                                "case {case}: unsound at depth {depth}: {fault:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Redundancy removal preserves all observed functions.
#[test]
fn removal_preserves_observed_functions() {
    for case in 0..48 {
        let mut c = random_circuit(case);
        let reference = observed(&c);
        let mut candidates = Vec::new();
        for g in c.gate_ids() {
            if matches!(c.kind(g), GateKind::And | GateKind::Or) {
                for &f in c.fanins(g) {
                    candidates.push(CandidateWire { sink: g, driver: f });
                }
            }
        }
        let _ = remove_redundant_wires(&mut c, &candidates, ImplyOptions { learn_depth: 1 }, 3);
        assert_eq!(observed(&c), reference, "case {case}: outputs changed");
    }
}

/// Learning only adds implications, never loses them: anything proven
/// untestable at depth 0 stays untestable at depth 1.
#[test]
fn learning_is_monotone() {
    for case in 0..48 {
        let c = random_circuit(case);
        for g in c.gate_ids() {
            for pin in 0..c.fanins(g).len() {
                let fault = Fault::sa1(Wire { gate: g, pin });
                let d0 = check_fault(&c, fault, ImplyOptions { learn_depth: 0 });
                if d0.is_untestable() {
                    let d1 = check_fault(&c, fault, ImplyOptions { learn_depth: 1 });
                    assert!(d1.is_untestable(), "case {case}: learning lost a proof");
                }
            }
        }
    }
}

/// The general RAR optimizer preserves all observed functions on
/// random circuits (every addition is proven redundant before being
/// kept; every removal is proven untestable).
#[test]
fn rar_optimize_preserves_functions() {
    use boolsubst::atpg::{rar_optimize, RarOptions};
    for case in 0..16 {
        let mut c = random_circuit(case);
        let reference = observed(&c);
        let _ = rar_optimize(
            &mut c,
            &RarOptions {
                max_trials: 60,
                max_passes: 1,
                ..RarOptions::default()
            },
        );
        assert_eq!(observed(&c), reference, "case {case}: outputs changed");
    }
}
