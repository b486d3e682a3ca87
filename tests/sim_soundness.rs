//! Soundness of the simulation-signature pre-filter: the screen is
//! refute-only, so the engine, which always screens, must accept
//! bit-identical rewrites to the legacy sweep, which never does — and a
//! planted false pass must cost a proof and nothing else.

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

/// Runs the screening engine and the unscreened legacy sweep, and
/// requires bit-identical rewrites and acceptance stats.
fn assert_filter_invisible(base: &Network, opts: &SubstOptions, label: &str) {
    let mut on_net = base.clone();
    let on = Session::new(&mut on_net, opts.clone()).run();
    let mut off_net = base.clone();
    let off = boolean_substitute_legacy(&mut off_net, opts);
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
    // The filter must actually have been exercised.
    assert!(on.sim_pairs_screened > 0, "{label}: screen never ran");
    assert_eq!(off.sim_pairs_screened, 0, "{label}: legacy sweep screened");
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

/// A planted false pass at engine level: `t` is one wide cube over
/// sixteen inputs and `dvr = a'`, so `t = 1` forces `dvr = 0` but only
/// the all-ones pattern witnesses it — one pattern in 65 536, which the
/// default pool misses.
fn craft() -> (Network, NodeId, NodeId) {
    let mut net = Network::new("craft");
    let pis: Vec<NodeId> = ('a'..='p')
        .map(|c| net.add_input(c.to_string()).expect("pi"))
        .collect();
    let t = net
        .add_node(
            "t",
            pis.clone(),
            parse_sop(16, "abcdefghijklmnop").expect("p"),
        )
        .expect("t");
    let dvr = net
        .add_node("dvr", vec![pis[0]], parse_sop(1, "a'").expect("p"))
        .expect("dvr");
    net.add_output("t", t).expect("ot");
    net.add_output("dvr", dvr).expect("od");
    (net, t, dvr)
}

/// A false pass costs one proof and nothing else: the rewrites equal
/// the unfiltered legacy sweep.
#[test]
fn false_pass_matches_legacy() {
    let (base, t, dvr) = craft();
    // Precondition: the default pool really misses the witness, so the
    // first (t, dvr) attempt is a false pass.
    let filter = SimFilter::new(&base, &SimConfig::default());
    let cover = base.node(t).cover().expect("cover").clone();
    let fanins = base.node(t).fanins().to_vec();
    let before = filter.screen_cover(&base, &cover, &fanins, dvr);
    assert!(
        !before.refutes_containment_in_divisor(),
        "the default pool must miss the witness for this regression test"
    );

    let opts = SubstOptions::basic();
    let mut engine_net = base.clone();
    let stats = Session::new(&mut engine_net, opts.clone()).run();
    assert!(stats.sim_false_passes >= 1, "no false pass recorded");

    let mut legacy_net = base;
    let legacy = boolean_substitute_legacy(&mut legacy_net, &opts);
    assert_eq!(write_blif(&engine_net), write_blif(&legacy_net));
    assert_eq!(stats.substitutions, legacy.substitutions);
}

/// `t = ab + a'b'` and `d = c`: every cube of `t` meets `d = 0` and
/// `d = 1` in the pool, so the screen refutes SOP and `-d` (and POS
/// too), while `d` stays the same along every `a` and `b` edge, so the
/// forced-literal bound (4) reaches `t`'s 4 literals. The bound runs
/// before any POS work, so the pair is a pass of the screen skipped by
/// the bound, not a signature refutation. `d` reaches `t` through the
/// buffer `m`, so the reverse pair stops at the cycle filter and
/// `(t, d)` is the only pair that reaches a proof.
#[test]
fn bounded_pair_is_a_false_pass_not_a_refutation() {
    let mut net = Network::new("bounded");
    let a = net.add_input("a").expect("a");
    let b = net.add_input("b").expect("b");
    let c = net.add_input("c").expect("c");
    let d = net
        .add_node("d", vec![a, c], parse_sop(2, "b").expect("p"))
        .expect("d");
    let m = net
        .add_node("m", vec![d], parse_sop(1, "a").expect("p"))
        .expect("m");
    let t = net
        .add_node("t", vec![a, b, m], parse_sop(3, "ab + a'b'").expect("p"))
        .expect("t");
    net.add_output("t", t).expect("ot");
    net.add_output("m", m).expect("om");

    // Precondition: the pool witnesses both phases of `d` in every cube
    // of `t` and of its complement.
    let filter = SimFilter::new(&net, &SimConfig::default());
    let fanins = net.node(t).fanins().to_vec();
    let cover = net.node(t).cover().expect("cover").clone();
    let screen = filter.screen_cover(&net, &cover, &fanins, d);
    assert!(screen.refutes_containment_in_divisor(), "SOP not refuted");
    assert!(screen.refutes_containment_in_complement(), "-d not refuted");
    let pos = filter.screen_cover(&net, &cover.complement(), &fanins, d);
    assert!(pos.refutes_containment_in_complement(), "POS not refuted");

    let before = net.clone();
    let stats = Session::new(&mut net, SubstOptions::basic()).run();
    assert_eq!(write_blif(&net), write_blif(&before), "nothing can gain");
    assert_eq!(stats.discovery_proofs_run, 1, "{stats}");
    assert_eq!(stats.sim_pairs_screened, 1, "{stats}");
    assert_eq!(stats.local_bound_skips, 1, "{stats}");
    assert_eq!(stats.sim_pairs_refuted, 0, "{stats}");
    assert_eq!(stats.sim_false_passes, 1, "{stats}");
}
