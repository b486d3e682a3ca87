//! Stuck-at fault enumeration and coverage reporting: random-vector fault
//! simulation followed by deterministic test search, classifying every
//! fault as detected, redundant, or aborted. A classic consumer of the
//! implication/search substrate, and a useful diagnostic for circuits the
//! division engine produces.

use crate::{Circuit, Fault, FaultChecker, TestSearch, Wire};

/// Enumerates every input-pin stuck-at fault of the circuit (two per
/// wire).
#[must_use]
pub fn enumerate_faults(circuit: &Circuit) -> Vec<Fault> {
    let mut out = Vec::new();
    for g in circuit.gate_ids() {
        for pin in 0..circuit.fanins(g).len() {
            let wire = Wire { gate: g, pin };
            out.push(Fault::sa0(wire));
            out.push(Fault::sa1(wire));
        }
    }
    out
}

/// Classification of one fault after the coverage run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultClass {
    /// Detected by a random vector.
    DetectedRandom(Vec<bool>),
    /// Detected by the deterministic search.
    DetectedSearch(Vec<bool>),
    /// Proven untestable — redundant hardware.
    Redundant,
    /// Undecided within the search budget.
    Aborted,
}

/// Result of [`fault_coverage`].
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Per-fault classification, aligned with [`enumerate_faults`].
    pub classes: Vec<(Fault, FaultClass)>,
    /// Number of faults detected (random + search).
    pub detected: usize,
    /// Number of redundant faults.
    pub redundant: usize,
    /// Number of aborted (undecided) faults.
    pub aborted: usize,
}

impl CoverageReport {
    /// Fault coverage over the *testable* faults:
    /// `detected / (total − redundant)`; 1.0 for a fully-tested circuit.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let testable = self.classes.len() - self.redundant;
        if testable == 0 {
            1.0
        } else {
            self.detected as f64 / testable as f64
        }
    }
}

/// Runs fault simulation with `random_vectors` deterministic-pseudorandom
/// vectors, then deterministic search (budget `search_budget` per fault)
/// on the survivors.
///
/// # Panics
///
/// Panics if the circuit has no gates.
#[must_use]
pub fn fault_coverage(
    circuit: &Circuit,
    random_vectors: usize,
    seed: u64,
    search_budget: usize,
) -> CoverageReport {
    assert!(!circuit.is_empty(), "empty circuit");
    let faults = enumerate_faults(circuit);
    let n_inputs = circuit.num_inputs();
    let mut classes: Vec<Option<FaultClass>> = vec![None; faults.len()];

    // Random phase.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for _ in 0..random_vectors {
        let mut word = next();
        let vector: Vec<bool> = (0..n_inputs)
            .map(|i| {
                if i % 64 == 0 {
                    word = next();
                }
                (word >> (i % 64)) & 1 == 1
            })
            .collect();
        let good = circuit.eval(&vector);
        for (fi, fault) in faults.iter().enumerate() {
            if classes[fi].is_some() {
                continue;
            }
            let bad = circuit.eval_faulty(&vector, fault.wire, fault.stuck);
            if circuit
                .outputs()
                .iter()
                .any(|o| good[o.index()] != bad[o.index()])
            {
                classes[fi] = Some(FaultClass::DetectedRandom(vector.clone()));
            }
        }
    }

    // Deterministic phase.
    let mut checker = FaultChecker::new(circuit.clone());
    for (fi, fault) in faults.iter().enumerate() {
        if classes[fi].is_some() {
            continue;
        }
        classes[fi] = Some(match checker.find_test(*fault, search_budget) {
            TestSearch::Testable(v) => FaultClass::DetectedSearch(v),
            TestSearch::Untestable => FaultClass::Redundant,
            TestSearch::Aborted => FaultClass::Aborted,
        });
    }

    let classes: Vec<(Fault, FaultClass)> = faults
        .into_iter()
        .zip(classes.into_iter().map(|c| c.expect("classified")))
        .collect();
    let detected = classes
        .iter()
        .filter(|(_, c)| {
            matches!(
                c,
                FaultClass::DetectedRandom(_) | FaultClass::DetectedSearch(_)
            )
        })
        .count();
    let redundant = classes
        .iter()
        .filter(|(_, c)| *c == FaultClass::Redundant)
        .count();
    let aborted = classes
        .iter()
        .filter(|(_, c)| *c == FaultClass::Aborted)
        .count();
    CoverageReport {
        classes,
        detected,
        redundant,
        aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateId;

    fn consensus() -> Circuit {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let na = c.add_not(a);
        let ab = c.add_and(vec![a, b]);
        let nac = c.add_and(vec![na, cc]);
        let bc = c.add_and(vec![b, cc]); // redundant consensus cube
        let f = c.add_or(vec![ab, nac, bc]);
        c.add_output(f);
        c
    }

    #[test]
    fn consensus_circuit_has_redundant_faults() {
        let c = consensus();
        let report = fault_coverage(&c, 32, 0xFACE, 10_000);
        assert_eq!(report.aborted, 0, "small circuit must be fully decided");
        assert!(report.redundant >= 1, "the consensus cube is redundant");
        // Every detected fault's stored vector must actually detect it.
        for (fault, class) in &report.classes {
            let v = match class {
                FaultClass::DetectedRandom(v) | FaultClass::DetectedSearch(v) => v,
                _ => continue,
            };
            let good = c.eval(v);
            let bad = c.eval_faulty(v, fault.wire, fault.stuck);
            assert!(
                c.outputs()
                    .iter()
                    .any(|o| good[o.index()] != bad[o.index()]),
                "stored vector does not detect {fault:?}"
            );
        }
        // detected + redundant == total.
        assert_eq!(report.detected + report.redundant, report.classes.len());
    }

    #[test]
    fn irredundant_circuit_reaches_full_coverage() {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let na = c.add_not(a);
        let ab = c.add_and(vec![a, b]);
        let nac = c.add_and(vec![na, cc]);
        let f = c.add_or(vec![ab, nac]);
        c.add_output(f);
        let report = fault_coverage(&c, 16, 7, 10_000);
        assert_eq!(report.redundant, 0);
        assert_eq!(report.aborted, 0);
        assert!((report.coverage() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn zero_random_vectors_still_classifies() {
        let c = consensus();
        let report = fault_coverage(&c, 0, 1, 10_000);
        assert_eq!(report.aborted, 0);
        assert_eq!(report.detected + report.redundant, report.classes.len());
    }

    #[test]
    fn fault_enumeration_counts_pins() {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let g: GateId = c.add_and(vec![a, b]);
        c.add_output(g);
        // 2 pins × 2 polarities.
        assert_eq!(enumerate_faults(&c).len(), 4);
    }
}
