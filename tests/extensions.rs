//! Integration tests for the extensions beyond the paper: pooled
//! multi-divisor voting, the exact-search division backstop, the
//! don't-care pass, fault coverage, the fx extraction, and the full
//! Boolean flow.

use boolsubst::algebraic::{fx, network_factored_literals, FxOptions};
use boolsubst::atpg::fault_coverage;
use boolsubst::core::dontcare::{full_simplify, DontCareOptions};
use boolsubst::core::netcircuit::NetCircuit;
use boolsubst::core::verify::networks_equivalent;
use boolsubst::core::{
    basic_divide_covers, extended_divide_covers, extended_divide_pooled, DivisionOptions,
};
use boolsubst::core::{Acceptance, Session, SubstOptions};
use boolsubst::cube::parse_sop;
use boolsubst::workloads::generator::{planted_network, PlantedParams};
use boolsubst::workloads::scripts::{script_a, script_boolean};

#[test]
fn pooled_division_consistent_with_singles() {
    let f = parse_sop(6, "ab + ac + bc' + de").expect("f");
    let divisors = vec![
        parse_sop(6, "ab + c + ef").expect("d0"),
        parse_sop(6, "de + f'").expect("d1"),
        parse_sop(6, "a'b'").expect("d2"),
    ];
    let opts = DivisionOptions::paper_default();
    if let Some((idx, pooled)) = extended_divide_pooled(&f, &divisors, &opts) {
        assert!(pooled.division.verify(&f, &pooled.core));
        // The chosen divisor's individual run must produce the same cost.
        let single = extended_divide_covers(&f, &divisors[idx], &opts)
            .expect("single run agrees a core exists");
        assert_eq!(single.division.sop_cost(), pooled.division.sop_cost());
    }
}

#[test]
fn exact_budget_division_is_exact_and_never_worse() {
    for (n, fs, ds) in [
        (4, "ab + ac + bc' + a'd", "ab + c"),
        (5, "abc + abd + ae", "ab + e'"),
        (4, "ab + a'c + bc", "a + c"),
    ] {
        let f = parse_sop(n, fs).expect("f");
        let d = parse_sop(n, ds).expect("d");
        let plain = basic_divide_covers(&f, &d, &DivisionOptions::paper_default());
        let exact = basic_divide_covers(&f, &d, &DivisionOptions::exact(200_000));
        assert!(exact.verify(&f, &d), "exact division broke {fs} / {ds}");
        if plain.succeeded() && exact.succeeded() {
            assert!(
                exact.sop_cost() <= plain.sop_cost(),
                "exact search must not be worse on {fs} / {ds}"
            );
        }
    }
}

#[test]
fn full_simplify_plus_substitution_preserves_everything() {
    for seed in [71u64, 72, 73] {
        let mut net = planted_network(seed, &PlantedParams::default());
        let golden = net.clone();
        script_a(&mut net);
        Session::new(&mut net, SubstOptions::extended()).run();
        full_simplify(&mut net, &DontCareOptions::default());
        net.sweep();
        net.check_invariants();
        assert!(networks_equivalent(&golden, &net), "seed {seed}");
    }
}

#[test]
fn best_gain_never_worse_than_first_gain_on_planted() {
    let mut total_first = 0usize;
    let mut total_best = 0usize;
    for seed in [81u64, 82] {
        let mut net = planted_network(seed, &PlantedParams::default());
        script_a(&mut net);
        let mut first = net.clone();
        Session::new(&mut first, SubstOptions::extended()).run();
        let mut best = net.clone();
        Session::new(
            &mut best,
            SubstOptions::extended().with_acceptance(Acceptance::BestGain),
        )
        .run();
        assert!(networks_equivalent(&net, &first));
        assert!(networks_equivalent(&net, &best));
        total_first += network_factored_literals(&first);
        total_best += network_factored_literals(&best);
    }
    // Not guaranteed per circuit (greedy interactions), but over the batch
    // best-gain should not lose.
    assert!(
        total_best <= total_first + 2,
        "best {total_best} vs first {total_first}"
    );
}

/// Every division of a pair books a check-budget stop, not just the
/// GDC one: the local SOP, complement, extended and POS divisions are
/// the ones a per-job check budget (`x-rar-checks` in serve) caps.
#[test]
fn check_budget_stops_are_booked_for_local_divisions() {
    let net = boolsubst::workloads::full_suite()
        .into_iter()
        .next()
        .expect("nonempty suite");
    for (max_checks, stopped) in [(1, true), (0, false)] {
        let division = DivisionOptions {
            max_checks,
            ..DivisionOptions::paper_default()
        };
        let mut trial = net.clone();
        let stats =
            Session::new(&mut trial, SubstOptions::extended().with_division(division)).run();
        assert!(networks_equivalent(&net, &trial));
        assert_eq!(
            stats.check_budget_exhausted > 0,
            stopped,
            "max_checks {max_checks}: {} budget stops",
            stats.check_budget_exhausted
        );
    }
}

#[test]
fn fx_extraction_preserves_and_reduces() {
    for seed in [91u64, 92] {
        let mut net = planted_network(seed, &PlantedParams::default());
        script_a(&mut net);
        let golden = net.clone();
        let before = net.sop_literals();
        fx(&mut net, &FxOptions::default());
        net.check_invariants();
        assert!(networks_equivalent(&golden, &net), "seed {seed}");
        assert!(net.sop_literals() <= before);
    }
}

#[test]
fn optimization_reduces_redundant_faults() {
    let mut net = planted_network(95, &PlantedParams::default());
    let golden = net.clone();
    let before = {
        let c = NetCircuit::build(&net).circuit;
        fault_coverage(&c, 64, 1, 50_000).redundant
    };
    script_a(&mut net);
    Session::new(&mut net, SubstOptions::extended_gdc()).run();
    full_simplify(&mut net, &DontCareOptions::default());
    net.sweep();
    assert!(networks_equivalent(&golden, &net));
    let after = {
        let c = NetCircuit::build(&net).circuit;
        fault_coverage(&c, 64, 1, 50_000).redundant
    };
    assert!(
        after <= before,
        "redundant faults grew: {before} -> {after}"
    );
}

#[test]
fn full_boolean_flow_beats_no_flow() {
    let mut total_raw = 0usize;
    let mut total_flow = 0usize;
    for seed in [101u64, 102, 103] {
        let net = planted_network(seed, &PlantedParams::default());
        let mut flow = net.clone();
        script_boolean(&mut flow, |n| {
            Session::new(n, SubstOptions::extended()).run();
        });
        flow.check_invariants();
        assert!(networks_equivalent(&net, &flow));
        total_raw += network_factored_literals(&net);
        total_flow += network_factored_literals(&flow);
    }
    assert!(
        total_flow < total_raw,
        "flow {total_flow} vs raw {total_raw}"
    );
}
