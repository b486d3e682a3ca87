//! End-to-end pipeline tests: workload circuits through the scripts and
//! every substitution configuration, with exact BDD equivalence checking
//! at each stage.

use boolsubst::algebraic::{algebraic_resub, network_factored_literals, ResubOptions};
use boolsubst::core::verify::networks_equivalent;
use boolsubst::core::{all_configs, Session, SubstOptions};
use boolsubst::network::{parse_blif, write_blif, Network};
use boolsubst::workloads::scripts::{script_a, script_algebraic_with, script_b, script_c};
use boolsubst::workloads::{benchmarks, generator};

fn workload_sample() -> Vec<Network> {
    let mut nets = vec![
        benchmarks::ripple_adder(4),
        benchmarks::symmetric_rd(5),
        benchmarks::comparator(4),
        benchmarks::mux_tree(3),
        generator::random_network(6, &generator::GeneratorParams::default()),
        generator::planted_network(31, &generator::PlantedParams::default()),
    ];
    for n in &mut nets {
        n.check_invariants();
    }
    nets
}

#[test]
fn scripts_preserve_functionality_exactly() {
    for net in workload_sample() {
        for (name, script) in [
            ("A", script_a as fn(&mut Network)),
            ("B", script_b as fn(&mut Network)),
            ("C", script_c as fn(&mut Network)),
        ] {
            let mut prepared = net.clone();
            script(&mut prepared);
            prepared.check_invariants();
            assert!(
                networks_equivalent(&net, &prepared),
                "script {name} broke {}",
                net.name()
            );
        }
    }
}

#[test]
fn all_substitution_configs_preserve_outputs() {
    for net in workload_sample() {
        let mut prepared = net.clone();
        script_a(&mut prepared);
        for (name, opts) in ["basic", "ext", "ext-gdc"].into_iter().zip(all_configs()) {
            let mut trial = prepared.clone();
            Session::new(&mut trial, opts.clone()).run();
            trial.check_invariants();
            assert!(
                networks_equivalent(&prepared, &trial),
                "config {name} broke {}",
                net.name()
            );
            assert!(
                network_factored_literals(&trial) <= network_factored_literals(&prepared),
                "config {name} grew {}",
                net.name()
            );
        }
    }
}

#[test]
fn boolean_beats_or_matches_algebraic_on_planted_suite() {
    // The paper's headline: Boolean substitution ≥ algebraic substitution.
    let mut total_alg = 0usize;
    let mut total_bool = 0usize;
    for seed in [41u64, 42, 43, 44] {
        let mut net = generator::planted_network(seed, &generator::PlantedParams::default());
        script_a(&mut net);
        let mut alg = net.clone();
        algebraic_resub(&mut alg, &ResubOptions::default());
        let mut boo = net.clone();
        Session::new(&mut boo, SubstOptions::extended()).run();
        assert!(networks_equivalent(&net, &alg));
        assert!(networks_equivalent(&net, &boo));
        total_alg += network_factored_literals(&alg);
        total_bool += network_factored_literals(&boo);
    }
    assert!(
        total_bool <= total_alg,
        "Boolean substitution ({total_bool}) must not lose to algebraic ({total_alg})"
    );
}

#[test]
fn full_script_algebraic_flow_with_each_method() {
    let net = generator::planted_network(
        17,
        &generator::PlantedParams {
            targets: 6,
            ..Default::default()
        },
    );
    for mode in [SubstOptions::basic(), SubstOptions::extended()] {
        let mut trial = net.clone();
        script_algebraic_with(&mut trial, |n| {
            Session::new(n, mode.clone()).run();
        });
        trial.check_invariants();
        assert!(
            networks_equivalent(&net, &trial),
            "full flow broke the network"
        );
    }
}

#[test]
fn optimized_networks_roundtrip_through_blif() {
    for net in workload_sample() {
        let mut prepared = net.clone();
        script_a(&mut prepared);
        Session::new(&mut prepared, SubstOptions::extended()).run();
        let text = write_blif(&prepared);
        let back = parse_blif(&text).expect("roundtrip parse");
        assert!(
            networks_equivalent(&prepared, &back),
            "BLIF roundtrip broke {}",
            net.name()
        );
    }
}

#[test]
fn gdc_uses_observability_dont_cares_soundly() {
    // GDC mode may change individual node functions but never the
    // primary outputs.
    for seed in [51u64, 52, 53] {
        let mut net = generator::planted_network(seed, &generator::PlantedParams::default());
        script_a(&mut net);
        let mut trial = net.clone();
        Session::new(&mut trial, SubstOptions::extended_gdc()).run();
        trial.check_invariants();
        assert!(networks_equivalent(&net, &trial), "GDC broke seed {seed}");
    }
}

#[test]
fn multi_pass_substitution_converges() {
    use boolsubst::workloads::generator::{planted_network, PlantedParams};
    let mut net = planted_network(111, &PlantedParams::default());
    script_a(&mut net);
    let golden = net.clone();
    let mut two = net.clone();
    for _ in 0..3 {
        let stats = Session::new(&mut two, SubstOptions::extended()).run();
        if stats.substitutions == 0 {
            break;
        }
    }
    two.check_invariants();
    assert!(networks_equivalent(&golden, &two));
    // A fourth pass finds nothing more.
    let before = network_factored_literals(&two);
    Session::new(&mut two, SubstOptions::extended()).run();
    assert_eq!(
        network_factored_literals(&two),
        before,
        "driver did not converge"
    );
}
