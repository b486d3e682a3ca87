//! Miter construction: proving two networks compute the same primary
//! outputs by asking SAT whether any input distinguishes them.
//!
//! Both networks are Tseitin-encoded over *shared* input variables by
//! one [`Encoder`], whose structural cache collapses everything the
//! two networks agree on — for the guard's pre/post pairs (a rollback
//! differs from the live network only in the rewritten cone) the miter
//! degenerates to the changed window plus one XOR per genuinely
//! differing output. Outputs whose encodings hash to the same literal
//! are discharged with zero solver work.
//!
//! For the rest — the rewritten node and everything downstream of it,
//! which the structural cache cannot collapse because the cone is
//! duplicated — a monolithic output miter is exactly the hard instance
//! BDDs already choke on. So before the output solve, the checker runs
//! a *SAT sweep*: nodes are paired by name (exact for the guard's
//! rollback pairs), and each differing pair is proved equivalent with a
//! small per-node conflict budget, in topological order, learning the
//! equality as clauses. Each proof is local — its fanin equalities are
//! already learned — so a healthy rewrite costs a few conflicts per
//! downstream node instead of one monolithic cone-duplication proof,
//! and the final output miter propagates to UNSAT almost for free.

use boolsubst_network::Network;

use crate::cnf::Lit;
use crate::solver::{SatOptions, SatResult, Solver, Stop};
use crate::tseitin::Encoder;

/// Per-node-pair conflict cap for one direction of a sweep proof. A
/// pair that exceeds it is skipped (never merged) — soundness is
/// unaffected, the output miter just gets less help.
const SWEEP_NODE_CONFLICTS: u64 = 2_000;

/// Verdict of a miter equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// UNSAT miter (or structurally identical): the networks compute
    /// identical primary-output functions.
    Equivalent,
    /// A concrete input assignment distinguishes the networks.
    Inequivalent {
        /// Name of the first differing primary output (in `a`'s order).
        output: String,
        /// The distinguishing input assignment, in primary-input order.
        inputs: Vec<bool>,
    },
    /// The two networks declare different input or output interfaces;
    /// no function comparison was attempted.
    InterfaceMismatch,
    /// The conflict budget ran out before a verdict.
    Unknown(Stop),
}

/// Solver-effort totals for one equivalence check, for the guard's
/// per-check cost attribution (`sat.*` metric keys).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Conflicts across the sweep solves and the final output solve.
    pub conflicts: u64,
    /// Luby restarts across all solves.
    pub restarts: u64,
    /// Clauses learned (units included) across all solves.
    pub learnt_clauses: u64,
}

impl SatStats {
    fn of(solver: &Solver) -> SatStats {
        SatStats {
            conflicts: solver.conflicts(),
            restarts: solver.restarts(),
            learnt_clauses: solver.learnt_clauses(),
        }
    }
}

/// Checks primary-output equivalence of `a` and `b` under a conflict
/// budget. Inputs and outputs are matched positionally, like the
/// guard's BDD tier: for rollback pairs input `i` of one *is* input
/// `i` of the other.
#[must_use]
pub fn check_equivalence(a: &Network, b: &Network, opts: SatOptions) -> EquivResult {
    check_equivalence_with_stats(a, b, opts).0
}

/// [`check_equivalence`], additionally reporting the solver effort it
/// took to reach the verdict. An `InterfaceMismatch` costs nothing and
/// reports zeros.
#[must_use]
pub fn check_equivalence_with_stats(
    a: &Network,
    b: &Network,
    opts: SatOptions,
) -> (EquivResult, SatStats) {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return (EquivResult::InterfaceMismatch, SatStats::default());
    }
    let mut enc = Encoder::new();
    let pis = enc.fresh_inputs(a.inputs().len());
    let map_a = enc.encode_network(a, &pis);
    let map_b = enc.encode_network(b, &pis);

    let mut solver = Solver::from_cnf(&enc.cnf);
    let synced = enc.cnf.clauses().len();
    let budget = opts.conflict_budget.max(1);

    // SAT sweep over internal pairs (see module docs). Pairing is by
    // node *name*: exact for the guard's rollback pairs (a clone keeps
    // every name) and robust across file round trips, where slot order
    // shifts but substitution preserves each surviving node's function.
    // Mis-pairing is harmless — only *proved* equalities are learned.
    let by_name: std::collections::HashMap<&str, Lit> = a
        .topo_order()
        .into_iter()
        .filter_map(|id| {
            map_a
                .get(id.index())
                .copied()
                .flatten()
                .map(|l| (a.node(id).name(), l))
        })
        .collect();
    for id in b.topo_order() {
        if solver.conflicts() >= budget {
            break;
        }
        let Some(&Some(lb)) = map_b.get(id.index()) else {
            continue;
        };
        let Some(&la) = by_name.get(b.node(id).name()) else {
            continue;
        };
        if la == lb || la == !lb {
            continue;
        }
        let mini = |used: u64| SatOptions {
            conflict_budget: SWEEP_NODE_CONFLICTS.min(budget.saturating_sub(used)),
        };
        // UNSAT(la ∧ ¬lb) proves la → lb; both directions give equality.
        if solver.solve(&[la, !lb], mini(solver.conflicts())) != SatResult::Unsat {
            continue;
        }
        if solver.conflicts() >= budget {
            break;
        }
        if solver.solve(&[!la, lb], mini(solver.conflicts())) != SatResult::Unsat {
            continue;
        }
        solver.add_clause(vec![!la, lb]);
        solver.add_clause(vec![la, !lb]);
    }

    // One XOR per output pair; structurally shared outputs fold to the
    // constant-false literal and are dropped on the spot.
    let mut diffs: Vec<(usize, Lit)> = Vec::new();
    let lit_false = enc.cnf.lit_false();
    for (k, ((_, oa), (_, ob))) in a.outputs().iter().zip(b.outputs()).enumerate() {
        let la = map_a[oa.index()].expect("output driver encoded");
        let lb = map_b[ob.index()].expect("output driver encoded");
        let d = enc.xor(la, lb);
        if d != lit_false {
            diffs.push((k, d));
        }
    }
    if diffs.is_empty() {
        return (EquivResult::Equivalent, SatStats::of(&solver));
    }
    // Sync the XOR gadgets (and the lazily pinned constant) minted since
    // the solver was built, then assert "some output differs".
    solver.grow_to(enc.cnf.num_vars());
    for c in &enc.cnf.clauses()[synced..] {
        solver.add_clause(c.lits().to_vec());
    }
    solver.add_clause(diffs.iter().map(|&(_, d)| d).collect());
    let remaining = budget.saturating_sub(solver.conflicts());
    if remaining == 0 {
        return (
            EquivResult::Unknown(Stop::BudgetExhausted),
            SatStats::of(&solver),
        );
    }
    let verdict = match solver.solve(
        &[],
        SatOptions {
            conflict_budget: remaining,
        },
    ) {
        SatResult::Unsat => EquivResult::Equivalent,
        SatResult::Unknown(stop) => EquivResult::Unknown(stop),
        SatResult::Sat(model) => {
            let value = |l: Lit| model[l.var().index()] != l.is_neg();
            let output = diffs
                .iter()
                .find(|&&(_, d)| value(d))
                .map(|&(k, _)| a.outputs()[k].0.clone())
                .unwrap_or_else(|| "<unattributed>".to_string());
            let inputs = pis.iter().map(|&p| value(p)).collect();
            EquivResult::Inequivalent { output, inputs }
        }
    };
    (verdict, SatStats::of(&solver))
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;
    use boolsubst_network::NodeId;

    fn two_level(n: usize, sops: &[(&str, &str)]) -> Network {
        let mut net = Network::new("m");
        let pis: Vec<NodeId> = (0..n)
            .map(|k| net.add_input(format!("x{k}")).expect("pi"))
            .collect();
        for (name, sop) in sops {
            let f = net
                .add_node(*name, pis.clone(), parse_sop(n, sop).expect("sop"))
                .expect("node");
            net.add_output(*name, f).expect("po");
        }
        net
    }

    #[test]
    fn identical_networks_are_equivalent_without_solving() {
        let a = two_level(3, &[("f", "ab + c"), ("g", "a'c")]);
        let b = two_level(3, &[("f", "ab + c"), ("g", "a'c")]);
        assert_eq!(
            check_equivalence(&a, &b, SatOptions::default()),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn semantically_equal_but_syntactically_different_pass() {
        // ab + ac == a(b + c): different covers, same function.
        let a = two_level(3, &[("f", "ab + ac")]);
        let mut b = Network::new("m");
        let pis: Vec<NodeId> = (0..3)
            .map(|k| b.add_input(format!("x{k}")).expect("pi"))
            .collect();
        let or = b
            .add_node(
                "or",
                vec![pis[1], pis[2]],
                parse_sop(2, "a + b").expect("or"),
            )
            .expect("or");
        let f = b
            .add_node("f", vec![pis[0], or], parse_sop(2, "ab").expect("and"))
            .expect("f");
        b.add_output("f", f).expect("po");
        assert_eq!(
            check_equivalence(&a, &b, SatOptions::default()),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn differing_networks_yield_a_witness() {
        let a = two_level(2, &[("f", "ab")]);
        let b = two_level(2, &[("f", "a + b")]);
        match check_equivalence(&a, &b, SatOptions::default()) {
            EquivResult::Inequivalent { output, inputs } => {
                assert_eq!(output, "f");
                assert_ne!(
                    a.eval_outputs(&inputs),
                    b.eval_outputs(&inputs),
                    "witness must actually distinguish the networks"
                );
            }
            other => panic!("expected Inequivalent, got {other:?}"),
        }
    }

    #[test]
    fn witness_names_the_differing_output() {
        let a = two_level(2, &[("same", "ab"), ("diff", "a'b'")]);
        let b = two_level(2, &[("same", "ab"), ("diff", "a' + b'")]);
        match check_equivalence(&a, &b, SatOptions::default()) {
            EquivResult::Inequivalent { output, .. } => assert_eq!(output, "diff"),
            other => panic!("expected Inequivalent, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_is_refused() {
        let a = two_level(2, &[("f", "ab")]);
        let b = two_level(3, &[("f", "ab")]);
        assert_eq!(
            check_equivalence(&a, &b, SatOptions::default()),
            EquivResult::InterfaceMismatch
        );
    }
}
