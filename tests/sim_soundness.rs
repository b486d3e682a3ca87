//! Soundness of the simulation-signature pre-filter: the screen is
//! refute-only, so the engine must accept bit-identical rewrites with the
//! filter on, off, or exhaustive — and a planted false pass must leave the
//! fixed pattern pool as it was.

use boolsubst::core::subst::boolean_substitute_legacy;
use boolsubst::core::{all_configs, Session, SubstOptions};
use boolsubst::cube::parse_sop;
use boolsubst::network::{write_blif, Network, NodeId};
use boolsubst::sim::{SimConfig, SimFilter};
use boolsubst::workloads::generator::{random_network, GeneratorParams};

fn modes() -> Vec<(&'static str, SubstOptions)> {
    ["basic", "extended", "extended_gdc"]
        .into_iter()
        .zip(all_configs())
        .collect()
}

/// Runs the engine twice — filter as configured vs filter off — and
/// requires bit-identical rewrites and acceptance stats.
fn assert_filter_invisible(base: &Network, opts: &SubstOptions, label: &str) {
    let mut on_net = base.clone();
    let on = Session::new(&mut on_net, opts.clone()).run();
    let off_opts = opts.clone().with_sim(SimConfig::disabled());
    let mut off_net = base.clone();
    let off = Session::new(&mut off_net, off_opts).run();
    assert_eq!(
        write_blif(&on_net),
        write_blif(&off_net),
        "{label}: filtered engine rewrites diverged from unfiltered"
    );
    assert_eq!(
        on.substitutions, off.substitutions,
        "{label}: substitutions"
    );
    assert_eq!(on.literal_gain, off.literal_gain, "{label}: literal gain");
    assert_eq!(
        on.divisions_tried, off.divisions_tried,
        "{label}: divisions tried"
    );
    assert_eq!(
        on.pos_substitutions, off.pos_substitutions,
        "{label}: POS substitutions"
    );
    assert_eq!(
        on.extended_decompositions, off.extended_decompositions,
        "{label}: extended decompositions"
    );
    // The filter must actually have been exercised, not silently off.
    assert!(on.sim_pairs_screened > 0, "{label}: screen never ran");
    assert_eq!(off.sim_pairs_screened, 0, "{label}: disabled filter ran");
}

#[test]
fn filtered_engine_matches_unfiltered_on_random_networks() {
    for seed in [11u64, 23, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            assert_filter_invisible(&base, &opts, &format!("seed {seed} {name}"));
        }
    }
}

/// With an exhaustive pool (all `2^n` minterms) the screen is *exact*:
/// every containment that can be refuted is. Zero false refutes is then
/// equivalent to the filtered run accepting exactly the unfiltered
/// rewrites — checked deterministically on small-input networks.
#[test]
fn exhaustive_filter_never_false_refutes() {
    for seed in [3u64, 29, 71] {
        // GeneratorParams::default() is 8 inputs: 256-pattern pools.
        let base = random_network(seed, &GeneratorParams::default());
        assert!(base.inputs().len() <= 10);
        for (name, opts) in modes() {
            let opts = opts.with_sim(SimConfig::exhaustive());
            assert_filter_invisible(&base, &opts, &format!("exhaustive seed {seed} {name}"));
        }
    }
}

/// The planted false-pass network from the sim crate's unit tests, at
/// engine level: `t` is one wide cube over eight inputs and `dvr = a'`,
/// so `t = 1` forces `dvr = 0` but only the all-ones pattern witnesses
/// it — and the chosen seed misses that pattern.
fn craft() -> (Network, NodeId, NodeId) {
    let mut net = Network::new("craft");
    let pis: Vec<NodeId> = ('a'..='h')
        .map(|c| net.add_input(c.to_string()).expect("pi"))
        .collect();
    let t = net
        .add_node("t", pis.clone(), parse_sop(8, "abcdefgh").expect("p"))
        .expect("t");
    let dvr = net
        .add_node("dvr", vec![pis[0]], parse_sop(1, "a'").expect("p"))
        .expect("dvr");
    net.add_output("t", t).expect("ot");
    net.add_output("dvr", dvr).expect("od");
    (net, t, dvr)
}

/// A false pass costs one proof and nothing else: the pool stays at its
/// 64 seeded patterns and the rewrites equal the unfiltered legacy sweep.
#[test]
fn engine_refines_pool_on_false_pass() {
    let (base, t, dvr) = craft();
    let sim = SimConfig {
        words: 1,
        seed: 0x00C0_FFEE,
        ..SimConfig::default()
    };
    // Precondition: the seeded pool really misses the witness, so the
    // first (t, dvr) attempt is a false pass.
    let filter = SimFilter::new(&base, &sim);
    let cover = base.node(t).cover().expect("cover").clone();
    let fanins = base.node(t).fanins().to_vec();
    let before = filter.screen_cover(&base, &cover, &fanins, dvr);
    assert!(
        !before.refutes_containment_in_divisor(),
        "seed must miss the witness for this regression test"
    );

    let opts = SubstOptions::basic().with_sim(sim);
    let mut engine_net = base.clone();
    let stats = Session::new(&mut engine_net, opts.clone()).run();
    assert!(stats.sim_false_passes >= 1, "no false pass recorded");
    assert_eq!(stats.sim_patterns, 64, "the pattern pool must stay fixed");
    assert_eq!(stats.sim_words, 1);

    let mut legacy_net = base;
    let legacy = boolean_substitute_legacy(&mut legacy_net, &opts);
    assert_eq!(write_blif(&engine_net), write_blif(&legacy_net));
    assert_eq!(stats.substitutions, legacy.substitutions);
}
