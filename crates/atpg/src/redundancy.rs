//! Redundancy removal: greedy deletion of wires whose stuck-at fault is
//! proven untestable by the implication engine.

use crate::screen::TruthScreen;
use crate::{Circuit, Fault, FaultChecker, GateId, GateKind, ImplyOptions, Wire};

/// A candidate wire for removal, identified by sink gate and driver gate
/// (robust against pin shifting as other wires are deleted). The sink's
/// fanins must be distinct for the identification to be unambiguous — true
/// for the cube/term gates built by the division engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CandidateWire {
    /// Gate the wire feeds into (must be AND or OR).
    pub sink: GateId,
    /// Gate driving the wire.
    pub driver: GateId,
}

/// Options for [`remove_redundant_wires_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RemovalOptions {
    /// Implication options for the conservative untestability check.
    pub imply: ImplyOptions,
    /// When non-zero, wires the conservative check cannot decide are
    /// additionally tried with the bounded exact search ([`crate::check_fault_exact`])
    /// under this decision-node budget.
    pub exact_budget: usize,
    /// When non-zero, the removal loop stops (soundly: a less-simplified
    /// but correct circuit) once this many fault checks have run.
    pub max_checks: usize,
}

/// Statistics and results of a removal run.
#[derive(Debug, Clone, Default)]
pub struct RemovalOutcome {
    /// Wires actually removed, in removal order.
    pub removed: Vec<CandidateWire>,
    /// Number of fault checks performed.
    pub checks: usize,
    /// Whether the run stopped early because [`RemovalOptions::max_checks`]
    /// was exhausted (remaining candidates were left untried).
    pub budget_exhausted: bool,
}

/// Greedily removes candidate wires proven redundant. Iterates until a
/// pass removes nothing (bounded by `max_passes`), since each removal can
/// expose further redundancies.
///
/// For an AND sink the stuck-at-1 fault is tested (untestable ⇒ the input
/// can be treated as constant 1 ⇒ dropped); for an OR sink, stuck-at-0.
///
/// # Panics
///
/// Panics if a candidate's sink is not an AND/OR gate.
pub fn remove_redundant_wires(
    circuit: &mut Circuit,
    candidates: &[CandidateWire],
    opts: ImplyOptions,
    max_passes: usize,
) -> RemovalOutcome {
    remove_redundant_wires_with(
        circuit,
        candidates,
        &RemovalOptions {
            imply: opts,
            exact_budget: 0,
            max_checks: 0,
        },
        max_passes,
    )
}

/// Like [`remove_redundant_wires`], with an optional exact-search backstop
/// for wires the implications alone cannot decide.
///
/// # Panics
///
/// Panics if a candidate's sink is not an AND/OR gate.
pub fn remove_redundant_wires_with(
    circuit: &mut Circuit,
    candidates: &[CandidateWire],
    opts: &RemovalOptions,
    max_passes: usize,
) -> RemovalOutcome {
    let mut checker = FaultChecker::new(std::mem::take(circuit));
    let outcome = checker.remove_redundant_wires(candidates, opts, max_passes);
    *circuit = checker.into_circuit();
    outcome
}

impl FaultChecker {
    /// [`remove_redundant_wires_with`] on the checker's own circuit.
    ///
    /// On circuits with at most ten inputs an exhaustive truth-table
    /// screen runs first: a wire whose removal changes an output is
    /// testable, so the sound check could not remove it and is skipped.
    /// Screened wires still count in [`RemovalOutcome::checks`], so the
    /// budget and the verdicts are those of the plain loop.
    pub(crate) fn remove_redundant_wires(
        &mut self,
        candidates: &[CandidateWire],
        opts: &RemovalOptions,
        max_passes: usize,
    ) -> RemovalOutcome {
        let mut outcome = RemovalOutcome::default();
        let mut live: Vec<CandidateWire> = candidates.to_vec();
        let mut screen = TruthScreen::new(self.circuit());
        for _ in 0..max_passes.max(1) {
            let mut removed_this_pass = false;
            let mut still: Vec<CandidateWire> = Vec::with_capacity(live.len());
            for cand in live {
                if opts.max_checks > 0 && outcome.checks >= opts.max_checks {
                    outcome.budget_exhausted = true;
                    still.push(cand);
                    continue;
                }
                let stuck = match self.circuit().kind(cand.sink) {
                    GateKind::And => true,
                    GateKind::Or => false,
                    other => panic!("candidate sink must be AND/OR, got {other:?}"),
                };
                let Some(pin) = self
                    .circuit()
                    .fanins(cand.sink)
                    .iter()
                    .position(|&f| f == cand.driver)
                else {
                    continue; // already gone
                };
                let wire = Wire {
                    gate: cand.sink,
                    pin,
                };
                let fault = Fault { wire, stuck };
                outcome.checks += 1;
                if screen
                    .as_mut()
                    .is_some_and(|s| s.removal_is_testable(self, wire))
                {
                    still.push(cand);
                    continue;
                }
                let mut redundant = self.check(fault, opts.imply).is_err();
                if !redundant && opts.exact_budget > 0 {
                    redundant = self.find_test(fault, opts.exact_budget).is_untestable();
                }
                if redundant {
                    self.remove_wire(wire);
                    if let Some(s) = screen.as_mut() {
                        s.resimulate(self, cand.sink);
                    }
                    outcome.removed.push(cand);
                    removed_this_pass = true;
                } else {
                    still.push(cand);
                }
            }
            live = still;
            if outcome.budget_exhausted || !removed_this_pass {
                break;
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_testable_exhaustive;

    /// The paper's Lemma-1 setup in miniature: f' = ab + ac, AND-ed with a
    /// redundant copy of d = ab + c. After adding the AND, literals inside
    /// f' become redundant.
    #[test]
    fn division_region_removal() {
        // Build: d = ab + c ; f' = ab + ac ; bold = f'·d ; output bold.
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let d_ab = c.add_and(vec![a, b]);
        let d = c.add_or(vec![d_ab, cc]);
        let f_ab = c.add_and(vec![a, b]);
        let f_ac = c.add_and(vec![a, cc]);
        let fprime = c.add_or(vec![f_ab, f_ac]);
        let bold = c.add_and(vec![fprime, d]);
        c.add_output(bold);

        // Sanity: f'·d == f' here (d is an SOS of f').
        for m in 0u32..8 {
            let inputs: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let vals = c.eval(&inputs);
            assert_eq!(vals[bold.index()], vals[fprime.index()]);
        }

        // Candidates: all literal wires into f's cube ANDs and the cube
        // wires into the f' OR.
        let candidates = vec![
            CandidateWire {
                sink: f_ab,
                driver: a,
            },
            CandidateWire {
                sink: f_ab,
                driver: b,
            },
            CandidateWire {
                sink: f_ac,
                driver: a,
            },
            CandidateWire {
                sink: f_ac,
                driver: cc,
            },
            CandidateWire {
                sink: fprime,
                driver: f_ab,
            },
            CandidateWire {
                sink: fprime,
                driver: f_ac,
            },
        ];
        let before: Vec<Vec<bool>> = (0u32..8)
            .map(|m| {
                let inputs: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
                c.eval(&inputs)
            })
            .collect();
        let outcome = remove_redundant_wires(&mut c, &candidates, ImplyOptions::default(), 4);
        // The quotient should shrink: with d present, f' can drop literals
        // (the paper reaches q = a + b ... here q = a suffices: a·d =
        // a(ab + c) = ab + ac = f').
        assert!(!outcome.removed.is_empty(), "no redundancy found");
        for (m, want) in before.iter().enumerate() {
            let inputs: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let vals = c.eval(&inputs);
            assert_eq!(
                vals[bold.index()],
                want[bold.index()],
                "function changed at minterm {m}"
            );
        }
        // Everything still claimed removable must indeed be untestable.
        for w in &outcome.removed {
            // (post-hoc sanity only; wire already gone)
            let _ = w;
        }
    }

    #[test]
    fn no_false_removals_on_irredundant_circuit() {
        // f = ab + a'c is irredundant: nothing may be removed.
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let na = c.add_not(a);
        let ab = c.add_and(vec![a, b]);
        let nac = c.add_and(vec![na, cc]);
        let f = c.add_or(vec![ab, nac]);
        c.add_output(f);
        let candidates = vec![
            CandidateWire {
                sink: ab,
                driver: a,
            },
            CandidateWire {
                sink: ab,
                driver: b,
            },
            CandidateWire {
                sink: nac,
                driver: na,
            },
            CandidateWire {
                sink: nac,
                driver: cc,
            },
            CandidateWire {
                sink: f,
                driver: ab,
            },
            CandidateWire {
                sink: f,
                driver: nac,
            },
        ];
        let outcome = remove_redundant_wires(&mut c, &candidates, ImplyOptions::default(), 4);
        assert!(outcome.removed.is_empty());
    }

    #[test]
    fn removal_preserves_function_randomized() {
        let mut seed = 0xC0FF_EE00u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..25 {
            let mut c = Circuit::new();
            let inputs: Vec<GateId> = (0..5).map(|_| c.add_input()).collect();
            let mut lits = inputs.clone();
            for &i in &inputs {
                lits.push(c.add_not(i));
            }
            // Random 2-level ANDs + OR root with some duplicated literals
            // (likely redundant).
            let mut cubes = Vec::new();
            for _ in 0..5 {
                let k = (rnd() % 3 + 1) as usize;
                let mut ins: Vec<GateId> = Vec::new();
                for _ in 0..k {
                    let l = lits[(rnd() as usize) % lits.len()];
                    if !ins.contains(&l) {
                        ins.push(l);
                    }
                }
                cubes.push(c.add_and(ins));
            }
            let root = c.add_or(cubes.clone());
            c.add_output(root);
            let mut candidates = Vec::new();
            for &cube in &cubes {
                for &f in c.fanins(cube) {
                    candidates.push(CandidateWire {
                        sink: cube,
                        driver: f,
                    });
                }
                candidates.push(CandidateWire {
                    sink: root,
                    driver: cube,
                });
            }
            candidates.dedup();
            let reference: Vec<bool> = (0u32..32)
                .map(|m| {
                    let ins: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
                    c.eval(&ins)[root.index()]
                })
                .collect();
            let _ = remove_redundant_wires(&mut c, &candidates, ImplyOptions::default(), 3);
            for m in 0u32..32 {
                let ins: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
                assert_eq!(
                    c.eval(&ins)[root.index()],
                    reference[m as usize],
                    "round {round}: function changed"
                );
            }
        }
    }

    /// A check budget stops the loop early — soundly: the circuit keeps
    /// its function, the outcome reports exhaustion, and exactly
    /// `max_checks` checks ran.
    #[test]
    fn check_budget_stops_early_and_preserves_function() {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let d_ab = c.add_and(vec![a, b]);
        let d = c.add_or(vec![d_ab, cc]);
        let f_ab = c.add_and(vec![a, b]);
        let f_ac = c.add_and(vec![a, cc]);
        let fprime = c.add_or(vec![f_ab, f_ac]);
        let bold = c.add_and(vec![fprime, d]);
        c.add_output(bold);
        let candidates = vec![
            CandidateWire {
                sink: f_ab,
                driver: a,
            },
            CandidateWire {
                sink: f_ab,
                driver: b,
            },
            CandidateWire {
                sink: f_ac,
                driver: a,
            },
            CandidateWire {
                sink: f_ac,
                driver: cc,
            },
        ];
        let before: Vec<bool> = (0u32..8)
            .map(|m| {
                let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
                c.eval(&ins)[bold.index()]
            })
            .collect();
        let outcome = remove_redundant_wires_with(
            &mut c,
            &candidates,
            &RemovalOptions {
                imply: ImplyOptions::default(),
                exact_budget: 0,
                max_checks: 2,
            },
            4,
        );
        assert!(outcome.budget_exhausted, "budget must be reported");
        assert_eq!(outcome.checks, 2, "stops exactly at the budget");
        for (m, want) in before.iter().enumerate() {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(
                c.eval(&ins)[bold.index()],
                *want,
                "function changed at minterm {m}"
            );
        }

        // An unlimited budget on the same circuit reports no exhaustion.
        let outcome = remove_redundant_wires(&mut c, &candidates, ImplyOptions::default(), 4);
        assert!(!outcome.budget_exhausted);
    }

    #[test]
    fn exhaustive_oracle_agrees_after_removal() {
        // After the removal loop, re-checking removed wires (re-inserted
        // mentally) is hard; instead check that remaining candidate wires
        // reported PossiblyTestable are mostly testable in the exhaustive
        // sense — and crucially that untestable claims never lie. This is
        // covered by fault::tests::soundness_random_circuits; here we just
        // pin one concrete case.
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let nb = c.add_not(b);
        let ab = c.add_and(vec![a, b]);
        let abn = c.add_and(vec![a, nb]);
        let f = c.add_or(vec![ab, abn]);
        c.add_output(f);
        let fault = Fault::sa1(Wire { gate: ab, pin: 1 });
        assert!(!is_testable_exhaustive(&c, fault));
        let mut c2 = c.clone();
        let outcome = remove_redundant_wires(
            &mut c2,
            &[CandidateWire {
                sink: ab,
                driver: b,
            }],
            ImplyOptions::default(),
            2,
        );
        assert_eq!(outcome.removed.len(), 1);
    }
}
