//! Bounded exact test search: a backtracking ATPG (implication-pruned
//! input enumeration) that decides testability exactly when its budget
//! suffices. The paper frames implication depth as a run-time/quality
//! trade-off; this module is the exact end of that spectrum, used for
//! small cones and for cross-validating the conservative checker.

use crate::imply::Rules;
use crate::{Circuit, Fault, FaultChecker, GateId, GateKind, ImplyOptions, Value};

/// Outcome of a bounded test search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestSearch {
    /// A test was found; the vector assigns every circuit input in
    /// creation order.
    Testable(Vec<bool>),
    /// The search space was exhausted: the fault is provably untestable.
    Untestable,
    /// The node budget ran out before a decision.
    Aborted,
}

impl TestSearch {
    /// True if the search proved the fault untestable.
    #[must_use]
    pub fn is_untestable(&self) -> bool {
        matches!(self, TestSearch::Untestable)
    }
}

/// Searches for a test for `fault`, exploring at most `budget` decision
/// nodes. Mandatory assignments seed the search and the implication
/// engine prunes each branch; leaves are validated by explicit good/faulty
/// simulation, so `Testable` vectors are always genuine tests. One-shot
/// form of [`FaultChecker::find_test`].
#[must_use]
pub fn find_test(circuit: &Circuit, fault: Fault, budget: usize) -> TestSearch {
    FaultChecker::new(circuit.clone()).find_test(fault, budget)
}

/// Convenience wrapper: `Some(true)` testable, `Some(false)` untestable,
/// `None` if the budget was exhausted.
#[must_use]
pub fn check_fault_exact(circuit: &Circuit, fault: Fault, budget: usize) -> Option<bool> {
    match find_test(circuit, fault, budget) {
        TestSearch::Testable(_) => Some(true),
        TestSearch::Untestable => Some(false),
        TestSearch::Aborted => None,
    }
}

impl FaultChecker {
    /// Bounded exact test search on the checker's circuit (see
    /// [`find_test`]), seeded by the checker's mandatory assignments.
    pub fn find_test(&mut self, fault: Fault, budget: usize) -> TestSearch {
        if !self.collect_mandatory(fault) || self.imply_mandatory(ImplyOptions::default()).is_err()
        {
            return TestSearch::Untestable;
        }
        let circuit = self.circuit();
        let inputs: Vec<GateId> = circuit
            .gate_ids()
            .filter(|&g| circuit.kind(g) == GateKind::Input)
            .collect();
        let mut budget = budget;
        search(self.rules(), fault, self.values(), &inputs, &mut budget)
    }
}

fn search(
    rules: Rules<'_>,
    fault: Fault,
    values: &[Value],
    inputs: &[GateId],
    budget: &mut usize,
) -> TestSearch {
    if *budget == 0 {
        return TestSearch::Aborted;
    }
    *budget -= 1;

    // Pick the next undecided input.
    let next = inputs
        .iter()
        .copied()
        .find(|g| values[g.index()] == Value::Unknown);
    let Some(pick) = next else {
        // Fully decided: simulate and compare observation points.
        let circuit = rules.circuit;
        let assignment: Vec<bool> = inputs
            .iter()
            .map(|g| values[g.index()].to_bool().expect("decided"))
            .collect();
        let good = circuit.eval(&assignment);
        let bad = circuit.eval_faulty(&assignment, fault.wire, fault.stuck);
        let detected = circuit
            .outputs()
            .iter()
            .any(|o| good[o.index()] != bad[o.index()]);
        return if detected {
            TestSearch::Testable(assignment)
        } else {
            TestSearch::Untestable
        };
    };

    let mut aborted = false;
    let mut queue = Vec::new();
    for v in [false, true] {
        let mut trial = values.to_vec();
        queue.clear();
        if rules
            .assign(&mut trial, pick, Value::from_bool(v), &mut queue)
            .and_then(|()| rules.propagate(&mut trial, &mut queue))
            .is_err()
        {
            continue; // contradicts the mandatory assignments
        }
        match search(rules, fault, &trial, inputs, budget) {
            TestSearch::Testable(t) => return TestSearch::Testable(t),
            TestSearch::Aborted => aborted = true,
            TestSearch::Untestable => {}
        }
    }
    if aborted {
        TestSearch::Aborted
    } else {
        TestSearch::Untestable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_fault, is_testable_exhaustive, Wire};

    fn consensus_circuit() -> (Circuit, GateId, GateId) {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let na = c.add_not(a);
        let ab = c.add_and(vec![a, b]);
        let nac = c.add_and(vec![na, cc]);
        let bc = c.add_and(vec![b, cc]);
        let f = c.add_or(vec![ab, nac, bc]);
        c.add_output(f);
        (c, bc, f)
    }

    #[test]
    fn exact_search_agrees_with_oracle() {
        let (c, _bc, f) = consensus_circuit();
        for pin in 0..3 {
            for stuck in [false, true] {
                let fault = Fault {
                    wire: Wire { gate: f, pin },
                    stuck,
                };
                let want = is_testable_exhaustive(&c, fault);
                let got = check_fault_exact(&c, fault, 10_000).expect("budget suffices");
                assert_eq!(got, want, "pin {pin} stuck {stuck}");
            }
        }
    }

    #[test]
    fn found_tests_really_detect() {
        let (c, _bc, f) = consensus_circuit();
        let fault = Fault::sa0(Wire { gate: f, pin: 0 });
        match find_test(&c, fault, 10_000) {
            TestSearch::Testable(t) => {
                let good = c.eval(&t);
                let bad = c.eval_faulty(&t, fault.wire, fault.stuck);
                assert_ne!(
                    good[f.index()],
                    bad[f.index()],
                    "returned vector is not a test"
                );
            }
            other => panic!("expected a test, got {other:?}"),
        }
    }

    #[test]
    fn tiny_budget_aborts() {
        let mut c = Circuit::new();
        let inputs: Vec<GateId> = (0..12).map(|_| c.add_input()).collect();
        // Wide XOR-ish structure so implications decide nothing early.
        let mut layer = inputs.clone();
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    let n0 = c.add_not(pair[0]);
                    let n1 = c.add_not(pair[1]);
                    let x = c.add_and(vec![pair[0], n1]);
                    let y = c.add_and(vec![n0, pair[1]]);
                    next.push(c.add_or(vec![x, y]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        c.add_output(layer[0]);
        let fault = Fault::sa1(Wire {
            gate: layer[0],
            pin: 0,
        });
        assert_eq!(find_test(&c, fault, 3), TestSearch::Aborted);
    }

    #[test]
    fn exact_refines_conservative() {
        // Whatever the conservative checker proves untestable, the exact
        // search must agree (on a batch of random circuits).
        let mut seed = 0xABCDu64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let mut c = Circuit::new();
            let mut pool: Vec<GateId> = (0..4).map(|_| c.add_input()).collect();
            for _ in 0..7 {
                let k = (rnd() % 3 + 1) as usize;
                let mut ins = Vec::new();
                for _ in 0..k {
                    let g = pool[(rnd() as usize) % pool.len()];
                    if !ins.contains(&g) {
                        ins.push(g);
                    }
                }
                let g = match rnd() % 3 {
                    0 => c.add_and(ins),
                    1 => c.add_or(ins),
                    _ => c.add_not(ins[0]),
                };
                pool.push(g);
            }
            c.add_output(*pool.last().expect("nonempty"));
            for g in c.gate_ids() {
                for pin in 0..c.fanins(g).len() {
                    let fault = Fault::sa1(Wire { gate: g, pin });
                    let conservative =
                        check_fault(&c, fault, ImplyOptions::default()).is_untestable();
                    let exact = check_fault_exact(&c, fault, 100_000).expect("small");
                    if conservative {
                        assert!(!exact, "conservative said untestable but a test exists");
                    }
                    assert_eq!(exact, is_testable_exhaustive(&c, fault));
                }
            }
        }
    }
}
