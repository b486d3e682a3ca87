//! General redundancy addition and removal (the Entrena–Cheng style
//! optimization the paper builds on, §II): try adding a non-existing wire
//! that is itself redundant; if its presence lets the implication engine
//! remove *more* wires than were added, commit the trade.
//!
//! The paper's contribution specializes this loop with a configuration
//! where the added gates are redundant *a priori* (Lemma 1); this module
//! is the general, check-everything variant, useful as a standalone
//! gate-level optimizer and as the baseline the specialization improves
//! on.

use crate::{
    CandidateWire, Circuit, Fault, FaultChecker, GateId, GateKind, ImplyOptions, RemovalOptions,
    Wire,
};

/// Options for [`rar_optimize`].
#[derive(Debug, Clone, Copy)]
pub struct RarOptions {
    /// Implication options for all redundancy checks.
    pub imply: ImplyOptions,
    /// Maximum wire additions to try per pass (candidate pairs are
    /// quadratic in gate count).
    pub max_trials: usize,
    /// Maximum optimization passes.
    pub max_passes: usize,
    /// Budget for the exact-search backstop when proving the *added* wire
    /// redundant (0 = implications only; additions must then be proven by
    /// an implication conflict, which is rare — a small budget such as
    /// 10_000 is recommended).
    pub addition_budget: usize,
}

impl Default for RarOptions {
    fn default() -> RarOptions {
        RarOptions {
            imply: ImplyOptions::default(),
            max_trials: 2_000,
            max_passes: 2,
            addition_budget: 20_000,
        }
    }
}

/// Statistics from a [`rar_optimize`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RarStats {
    /// Redundant wires added and kept (each bought ≥ 2 removals).
    pub additions: usize,
    /// Wires removed in committed trades (plus directly redundant wires).
    pub removals: usize,
    /// Addition trials attempted.
    pub trials: usize,
}

/// Collects every AND/OR input wire as a removal candidate.
fn all_candidate_wires(circuit: &Circuit) -> Vec<CandidateWire> {
    let mut out = Vec::new();
    for g in circuit.gate_ids() {
        if matches!(circuit.kind(g), GateKind::And | GateKind::Or) {
            for &f in circuit.fanins(g) {
                out.push(CandidateWire { sink: g, driver: f });
            }
        }
    }
    out
}

/// Proves the fault of wire (driver → sink, stuck at the sink's
/// non-controlling value) untestable, using implications plus the bounded
/// exact search.
fn wire_is_redundant(checker: &mut FaultChecker, w: Wire, opts: &RarOptions) -> bool {
    let stuck = match checker.circuit().kind(w.gate) {
        GateKind::And => true,
        GateKind::Or => false,
        _ => return false,
    };
    let fault = Fault { wire: w, stuck };
    if checker.check(fault, opts.imply).is_err() {
        return true;
    }
    opts.addition_budget > 0
        && checker
            .find_test(fault, opts.addition_budget)
            .is_untestable()
}

/// One greedy RAR pass over the circuit: first remove directly redundant
/// wires, then try single-wire additions and commit any that enable two or
/// more removals. Returns the statistics; the circuit is modified in
/// place. All observation-point functions are preserved (every removal is
/// proven, every kept addition is proven redundant first).
pub fn rar_optimize(circuit: &mut Circuit, opts: &RarOptions) -> RarStats {
    let mut stats = RarStats::default();
    for _ in 0..opts.max_passes.max(1) {
        let before = (stats.additions, stats.removals);

        // Phase 0: plain redundancy removal.
        let candidates = all_candidate_wires(circuit);
        let outcome = crate::remove_redundant_wires_with(
            circuit,
            &candidates,
            &RemovalOptions {
                imply: opts.imply,
                exact_budget: 0,
                max_checks: 0,
            },
            2,
        );
        stats.removals += outcome.removed.len();

        // Phase 1: single-wire additions. A candidate addition connects an
        // existing gate `src` as a new input of an AND/OR gate `dst`
        // (src must precede dst to keep the DAG topological).
        let gates: Vec<GateId> = circuit.gate_ids().collect();
        let mut trials = 0usize;
        for &dst in &gates {
            if !matches!(circuit.kind(dst), GateKind::And | GateKind::Or) {
                continue;
            }
            for &src in &gates {
                if src.index() >= dst.index() || circuit.fanins(dst).contains(&src) {
                    continue;
                }
                if trials >= opts.max_trials {
                    break;
                }
                trials += 1;
                stats.trials += 1;

                // Tentatively add the wire.
                let mut trial = circuit.clone();
                trial.add_fanin(dst, src);
                let added = Wire {
                    gate: dst,
                    pin: trial.fanins(dst).len() - 1,
                };
                let mut checker = FaultChecker::new(trial);
                if !wire_is_redundant(&mut checker, added, opts) {
                    continue;
                }
                // How many *other* wires become removable?
                let others: Vec<CandidateWire> = all_candidate_wires(checker.circuit())
                    .into_iter()
                    .filter(|c| !(c.sink == dst && c.driver == src))
                    .collect();
                let outcome = checker.remove_redundant_wires(
                    &others,
                    &RemovalOptions {
                        imply: opts.imply,
                        exact_budget: 0,
                        max_checks: 0,
                    },
                    2,
                );
                if outcome.removed.len() >= 2 {
                    *circuit = checker.into_circuit();
                    stats.additions += 1;
                    stats.removals += outcome.removed.len();
                }
            }
        }
        if (stats.additions, stats.removals) == before {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1 instance: o1 = ab + ac, o2 = ab + c. RAR should discover
    /// the o2 → cube-ab addition (or an equivalent trade) on its own.
    #[test]
    fn discovers_fig1_trade() {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let d_ab = c.add_and(vec![a, b]);
        let o2 = c.add_or(vec![d_ab, cc]);
        let f_ab = c.add_and(vec![a, b]);
        let f_ac = c.add_and(vec![a, cc]);
        let o1 = c.add_or(vec![f_ab, f_ac]);
        c.add_output(o1);
        c.add_output(o2);

        let reference: Vec<Vec<bool>> = (0u32..8)
            .map(|m| {
                let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
                let v = c.eval(&ins);
                c.outputs().iter().map(|o| v[o.index()]).collect()
            })
            .collect();

        let stats = rar_optimize(&mut c, &RarOptions::default());
        assert!(stats.additions >= 1, "no addition committed: {stats:?}");
        assert!(stats.removals >= 2);

        for (m, want) in reference.iter().enumerate() {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let v = c.eval(&ins);
            let got: Vec<bool> = c.outputs().iter().map(|o| v[o.index()]).collect();
            assert_eq!(&got, want, "function changed at {m}");
        }
    }

    #[test]
    fn irredundant_single_output_untouched() {
        // f = ab + a'c alone: no profitable single-wire trade exists among
        // the few candidates; the function must be preserved regardless.
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let na = c.add_not(a);
        let ab = c.add_and(vec![a, b]);
        let nac = c.add_and(vec![na, cc]);
        let f = c.add_or(vec![ab, nac]);
        c.add_output(f);
        let reference: Vec<bool> = (0u32..8)
            .map(|m| {
                let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
                c.eval(&ins)[f.index()]
            })
            .collect();
        let _ = rar_optimize(&mut c, &RarOptions::default());
        for (m, want) in reference.iter().enumerate() {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let v = c.eval(&ins);
            let out = *c.outputs().first().expect("one output");
            assert_eq!(v[out.index()], *want, "changed at {m}");
        }
    }
}
