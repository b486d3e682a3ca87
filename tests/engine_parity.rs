//! Pins the incremental engine behind `Session` to the legacy per-pair
//! sweep: on the
//! same input network, both paths must accept bit-identical rewrites (same
//! BLIF output), agree on the acceptance-relevant statistics, and — like
//! any substitution — preserve every primary-output function exactly.

use boolsubst::core::subst::boolean_substitute_legacy;
use boolsubst::core::{all_configs, Acceptance, Session, SubstOptions, SubstStats};
use boolsubst::network::{write_blif, Network};
use boolsubst::workloads::generator::{
    planted_network, random_network, GeneratorParams, PlantedParams,
};

fn modes() -> Vec<(&'static str, SubstOptions)> {
    ["basic", "extended", "extended_gdc"]
        .into_iter()
        .zip(all_configs())
        .collect()
}

/// Exhaustive primary-output equivalence for networks with few inputs.
fn outputs_preserved(before: &Network, after: &Network) {
    let n = before.inputs().len();
    assert!(n <= 16, "exhaustive sweep needs few inputs");
    for m in 0u32..(1 << n) {
        let ins: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
        assert_eq!(
            before.eval_outputs(&ins),
            after.eval_outputs(&ins),
            "output mismatch at input {m:b}"
        );
    }
}

#[test]
fn engine_matches_legacy_on_random_networks() {
    for seed in [11u64, 23, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let mut legacy_net = base.clone();
            let legacy = boolean_substitute_legacy(&mut legacy_net, &opts);
            let mut engine_net = base.clone();
            let engine = Session::new(&mut engine_net, opts.clone()).run();
            assert_eq!(
                write_blif(&engine_net),
                write_blif(&legacy_net),
                "seed {seed} {name}: engine and legacy rewrites diverged"
            );
            assert_eq!(
                engine.substitutions, legacy.substitutions,
                "seed {seed} {name}: substitutions"
            );
            assert_eq!(
                engine.literal_gain, legacy.literal_gain,
                "seed {seed} {name}: literal gain"
            );
            assert_eq!(
                engine.divisions_tried, legacy.divisions_tried,
                "seed {seed} {name}: divisions tried"
            );
            assert_eq!(
                engine.pos_substitutions, legacy.pos_substitutions,
                "seed {seed} {name}: POS substitutions"
            );
            assert_eq!(
                engine.extended_decompositions, legacy.extended_decompositions,
                "seed {seed} {name}: extended decompositions"
            );
        }
    }
}

#[test]
fn engine_matches_legacy_on_planted_networks() {
    for seed in [5u64, 9] {
        let base = planted_network(
            seed,
            &PlantedParams {
                inputs: 8,
                hidden: 2,
                targets: 5,
                divisor_extra_cubes: 1,
            },
        );
        for (name, opts) in modes() {
            let mut legacy_net = base.clone();
            let legacy = boolean_substitute_legacy(&mut legacy_net, &opts);
            let mut engine_net = base.clone();
            let engine = Session::new(&mut engine_net, opts.clone()).run();
            assert_eq!(
                write_blif(&engine_net),
                write_blif(&legacy_net),
                "seed {seed} {name}: rewrites diverged"
            );
            assert_eq!(
                engine.substitutions, legacy.substitutions,
                "seed {seed} {name}"
            );
            assert_eq!(
                engine.literal_gain, legacy.literal_gain,
                "seed {seed} {name}"
            );
        }
    }
}

#[test]
fn engine_preserves_output_functions_exhaustively() {
    // GeneratorParams::default() is 8 inputs / 24 nodes: 256 vectors.
    for seed in [3u64, 71] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let mut net = base.clone();
            let stats = Session::new(&mut net, opts.clone()).run();
            net.check_invariants();
            outputs_preserved(&base, &net);
            // The run must at least have examined candidates.
            assert!(
                stats.candidates_enumerated > 0,
                "seed {seed} {name}: no candidates"
            );
        }
    }
}

/// The engine's cycle filter (the level-bounded `SideTables::in_tfo`
/// walk) must agree with a fresh `net.tfo()` recomputation for every
/// (target, divisor) pair — before any edit, and again after an accepted
/// substitution rewired a node and the tables were patched.
#[test]
fn cached_tfo_filter_matches_recomputed_decisions() {
    use boolsubst::network::SideTables;
    let mut net = random_network(13, &GeneratorParams::default());
    let mut side = SideTables::build(&net);
    let check_all = |net: &Network, side: &SideTables| {
        let ids: Vec<_> = net.internal_ids().collect();
        for &t in &ids {
            let tfo = net.tfo(t);
            for &d in &ids {
                assert_eq!(
                    side.in_tfo(net, d, t),
                    tfo.contains(&d),
                    "cached reject/accept diverged for target {t}, divisor {d}"
                );
            }
        }
    };
    check_all(&net, &side);

    // Rewire one node the way an accepted substitution would (a fanin
    // swap), patch the tables, and require identical decisions again.
    let target = net
        .internal_ids()
        .find(|&id| {
            net.node(id).fanins().len() >= 2
                && net
                    .node(id)
                    .fanins()
                    .iter()
                    .any(|f| net.node(*f).is_input())
        })
        .expect("rewirable node");
    let old_fanins = net.node(target).fanins().to_vec();
    let kept: Vec<_> = old_fanins
        .iter()
        .copied()
        .filter(|f| net.node(*f).is_input())
        .collect();
    let cover = {
        // OR of the kept inputs — arity matches, function is irrelevant.
        let mut c = boolsubst::cube::Cover::new(kept.len());
        for v in 0..kept.len() {
            let mut cube = boolsubst::cube::Cube::universe(kept.len());
            cube.restrict(boolsubst::cube::Lit::pos(v));
            c.push(cube);
        }
        c
    };
    net.replace_function(target, kept, cover).expect("rewire");
    side.apply_replace(&net, target, &old_fanins);
    check_all(&net, &side);
}

/// The level-bounded cycle check is exact under every kind of patch: on
/// several random networks, `SideTables::in_tfo` equals `Network::tfo`
/// membership for every (node, of) pair, before any edit and after each
/// step of a seeded sequence of node additions (`sync_new_nodes`),
/// rewires (`apply_replace`, including onto freshly added nodes) and
/// removals (`apply_remove`).
#[test]
fn bounded_tfo_check_is_exact_under_edits() {
    use boolsubst::cube::{Cover, Cube, Lit};
    use boolsubst::network::SideTables;
    use boolsubst::workloads::generator::Rng;
    use std::collections::HashSet;

    fn assert_exact(net: &Network, side: &SideTables, label: &str) {
        let ids: Vec<_> = net.node_ids().collect();
        for &of in &ids {
            let tfo: HashSet<_> = net.tfo(of).into_iter().collect();
            for &node in &ids {
                assert_eq!(
                    side.in_tfo(net, node, of),
                    tfo.contains(&node),
                    "{label}: in_tfo({node}, {of})"
                );
            }
        }
    }
    /// The AND of `n` variables (arity matches, function is irrelevant).
    fn and_cover(n: usize) -> Cover {
        let mut cube = Cube::universe(n);
        for v in 0..n {
            cube.restrict(Lit::pos(v));
        }
        let mut c = Cover::new(n);
        c.push(cube);
        c
    }
    /// Two distinct live nodes.
    fn two_nodes(net: &Network, rng: &mut Rng) -> Vec<boolsubst::network::NodeId> {
        let ids: Vec<_> = net.node_ids().collect();
        let a = ids[rng.below(ids.len())];
        let mut b = ids[rng.below(ids.len())];
        while b == a {
            b = ids[rng.below(ids.len())];
        }
        vec![a, b]
    }

    let (mut added, mut rewired, mut removed) = (0, 0, 0);
    for seed in [3u64, 13, 29, 41] {
        let mut rng = Rng::new(seed);
        let mut net = random_network(seed, &GeneratorParams::default());
        let mut side = SideTables::build(&net);
        assert_exact(&net, &side, &format!("seed {seed} build"));
        for step in 0..24 {
            let label = format!("seed {seed} step {step}");
            match rng.below(3) {
                0 => {
                    let fanins = two_nodes(&net, &mut rng);
                    net.add_node(format!("e{step}"), fanins, and_cover(2))
                        .expect("add");
                    side.sync_new_nodes(&net);
                    added += 1;
                }
                1 => {
                    let internal: Vec<_> = net.internal_ids().collect();
                    let target = internal[rng.below(internal.len())];
                    let fanins = two_nodes(&net, &mut rng);
                    let old = net.node(target).fanins().to_vec();
                    // A rewire that would close a cycle is refused.
                    if fanins.contains(&target)
                        || net.replace_function(target, fanins, and_cover(2)).is_err()
                    {
                        continue;
                    }
                    side.apply_replace(&net, target, &old);
                    rewired += 1;
                }
                _ => {
                    let fanouts = net.fanouts();
                    let dangling: Vec<_> = net
                        .internal_ids()
                        .filter(|&id| {
                            fanouts[id.index()].is_empty()
                                && net.outputs().iter().all(|(_, o)| *o != id)
                        })
                        .collect();
                    if dangling.is_empty() {
                        continue;
                    }
                    let id = dangling[rng.below(dangling.len())];
                    let old = net.node(id).fanins().to_vec();
                    net.remove_node(id).expect("remove");
                    side.apply_remove(&net, id, &old);
                    removed += 1;
                }
            }
            assert_exact(&net, &side, &label);
        }
    }
    assert!(
        added > 0 && rewired > 0 && removed > 0,
        "edits not exercised: {added} added, {rewired} rewired, {removed} removed"
    );
}

/// Up to three one-pass runs of `run` on `net`, stopping after the first
/// run that accepts nothing; returns their summed statistics.
fn repeated_runs(net: &mut Network, mut run: impl FnMut(&mut Network) -> SubstStats) -> SubstStats {
    let mut total = SubstStats::default();
    for _ in 0..3 {
        let stats = run(net);
        total.merge(&stats);
        if stats.substitutions == 0 {
            break;
        }
    }
    total
}

/// Repeated first-gain and best-gain runs against as many repeated legacy
/// runs at every width: every configuration at 1, 2 and 4 threads,
/// unchecked and checked, on the random and planted networks.
#[test]
fn engine_matches_legacy_under_best_gain_and_multipass() {
    let mut nets: Vec<Network> = [29u64, 11, 23, 47]
        .iter()
        .map(|&seed| random_network(seed, &GeneratorParams::default()))
        .collect();
    nets.extend([5u64, 9].iter().map(|&seed| {
        planted_network(
            seed,
            &PlantedParams {
                inputs: 8,
                hidden: 2,
                targets: 5,
                divisor_extra_cubes: 1,
            },
        )
    }));
    for (i, base) in nets.iter().enumerate() {
        for (name, opts) in modes() {
            for acceptance in [Acceptance::FirstGain, Acceptance::BestGain] {
                let opts = opts.clone().with_acceptance(acceptance);
                let mut legacy_net = base.clone();
                let legacy =
                    repeated_runs(&mut legacy_net, |net| boolean_substitute_legacy(net, &opts));
                for threads in [1usize, 2, 4] {
                    for checked in [false, true] {
                        let case = format!("net {i} {name} {acceptance:?} t{threads} c{checked}");
                        let opts = opts.clone().with_threads(threads).with_checked(checked);
                        let mut engine_net = base.clone();
                        let engine = repeated_runs(&mut engine_net, |net| {
                            Session::new(net, opts.clone()).run()
                        });
                        assert_eq!(
                            write_blif(&engine_net),
                            write_blif(&legacy_net),
                            "{case}: rewrites diverged"
                        );
                        assert_eq!(engine.substitutions, legacy.substitutions, "{case}");
                        assert_eq!(engine.literal_gain, legacy.literal_gain, "{case}");
                        assert_eq!(engine.passes, legacy.passes, "{case}");
                        assert_eq!(engine.quarantined, 0, "{case}");
                    }
                }
            }
        }
    }
}

/// On a healthy engine the checked sweep accepts exactly what the
/// unchecked sweep accepts: the guards only *veto* rewrites, and a
/// correct rewrite is never vetoed, so `checked: true` must be
/// bit-identical in both the network and the acceptance counters — with
/// every failure counter at zero.
#[test]
fn checked_mode_is_bit_identical_on_healthy_engine() {
    for seed in [11u64, 23, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let mut plain_net = base.clone();
            let plain = Session::new(&mut plain_net, opts.clone()).run();
            let mut checked_net = base.clone();
            let checked_opts = opts.clone().with_checked(true);
            let checked = Session::new(&mut checked_net, checked_opts.clone()).run();
            assert_eq!(
                write_blif(&checked_net),
                write_blif(&plain_net),
                "seed {seed} {name}: checked mode changed the rewrites"
            );
            assert_eq!(
                checked.substitutions, plain.substitutions,
                "seed {seed} {name}: substitutions"
            );
            assert_eq!(
                checked.literal_gain, plain.literal_gain,
                "seed {seed} {name}: literal gain"
            );
            assert_eq!(
                checked.candidates_enumerated, plain.candidates_enumerated,
                "seed {seed} {name}: candidates"
            );
            assert_eq!(checked.guard_rejections, 0, "seed {seed} {name}");
            assert_eq!(checked.engine_faults, 0, "seed {seed} {name}");
            assert_eq!(checked.quarantined, 0, "seed {seed} {name}");
            assert!(!checked.interrupted, "seed {seed} {name}");
        }
    }
}

/// An already-expired deadline must stop the sweep before any attempt:
/// the network comes back untouched and the stats marked interrupted.
#[test]
fn expired_deadline_yields_untouched_network_marked_interrupted() {
    use std::time::Instant;
    let base = random_network(11, &GeneratorParams::default());
    let opts = SubstOptions::extended().with_deadline(Instant::now());
    let mut net = base.clone();
    let stats = Session::new(&mut net, opts.clone()).run();
    assert!(stats.interrupted, "expired deadline not reported");
    assert_eq!(stats.substitutions, 0);
    assert_eq!(
        write_blif(&net),
        write_blif(&base),
        "interrupted sweep must leave a valid (here: untouched) network"
    );
    net.check_invariants();
    outputs_preserved(&base, &net);
}

/// A deadline far in the future must be invisible: same rewrites, same
/// stats, no interruption.
#[test]
fn generous_deadline_changes_nothing() {
    use std::time::{Duration, Instant};
    let base = random_network(23, &GeneratorParams::default());
    for (name, opts) in modes() {
        let mut plain_net = base.clone();
        let plain = Session::new(&mut plain_net, opts.clone()).run();
        let mut timed_net = base.clone();
        let timed_opts = opts
            .clone()
            .with_deadline(Instant::now() + Duration::from_secs(3600));
        let timed = Session::new(&mut timed_net, timed_opts.clone()).run();
        assert!(!timed.interrupted, "{name}: generous deadline tripped");
        assert_eq!(
            write_blif(&timed_net),
            write_blif(&plain_net),
            "{name}: deadline changed the rewrites"
        );
        assert_eq!(timed.substitutions, plain.substitutions, "{name}");
        assert_eq!(timed.literal_gain, plain.literal_gain, "{name}");
    }
}

/// Candidate enumeration (the fanouts of the target's fanins) is
/// bit-identical to the legacy sweep for every configuration, at 1 and 4
/// worker threads; the proposal funnel narrows monotonically (proposed ≥
/// proofs run ≥ accepted = substitutions) and its counters are
/// thread-count independent.
#[test]
fn overlap_discovery_is_pinned_bit_identical() {
    for seed in [11u64, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let mut legacy_net = base.clone();
            let legacy = boolean_substitute_legacy(&mut legacy_net, &opts);
            let mut single: Option<(usize, usize, usize)> = None;
            for threads in [1usize, 4] {
                let opts = opts.clone().with_threads(threads);
                let mut net = base.clone();
                let stats = Session::new(&mut net, opts).run();
                assert_eq!(
                    write_blif(&net),
                    write_blif(&legacy_net),
                    "seed {seed} {name} t{threads}: rewrites diverged from legacy"
                );
                assert_eq!(
                    stats.substitutions, legacy.substitutions,
                    "seed {seed} {name} t{threads}: substitutions"
                );
                assert_eq!(
                    stats.literal_gain, legacy.literal_gain,
                    "seed {seed} {name} t{threads}: literal gain"
                );
                let funnel = (
                    stats.discovery_proposed,
                    stats.discovery_proofs_run,
                    stats.discovery_accepted,
                );
                assert!(funnel.0 > 0, "seed {seed} {name} t{threads}: empty funnel");
                assert!(
                    funnel.1 <= funnel.0,
                    "seed {seed} {name} t{threads}: more proofs than proposals"
                );
                assert!(
                    funnel.2 <= funnel.1,
                    "seed {seed} {name} t{threads}: more accepts than proofs"
                );
                assert_eq!(
                    stats.discovery_accepted, stats.substitutions,
                    "seed {seed} {name} t{threads}: accepted != substitutions"
                );
                match single {
                    None => single = Some(funnel),
                    Some(expect) => assert_eq!(
                        funnel, expect,
                        "seed {seed} {name}: funnel counters depend on thread count"
                    ),
                }
            }
        }
    }
}

/// Attaching a tracer must be pure observation: the traced engine run
/// produces a bit-identical network and identical work counters compared
/// to the untraced run (only the `*_nanos` wall-clock fields may differ).
#[test]
fn tracer_attachment_is_invisible() {
    use boolsubst::trace::Tracer;

    for seed in [11u64, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        for (name, opts) in modes() {
            let mut plain_net = base.clone();
            let plain = Session::new(&mut plain_net, opts.clone()).run();
            let mut traced_net = base.clone();
            let mut tracer = Tracer::new(name);
            let traced = Session::new(&mut traced_net, opts.clone())
                .tracer(&mut tracer)
                .run();
            assert_eq!(
                write_blif(&traced_net),
                write_blif(&plain_net),
                "seed {seed} {name}: tracer changed the rewrites"
            );
            // Compare every counter; timing fields are run-dependent.
            let mut scrubbed = traced;
            scrubbed.enumerate_nanos = plain.enumerate_nanos;
            scrubbed.filter_nanos = plain.filter_nanos;
            scrubbed.sim_nanos = plain.sim_nanos;
            scrubbed.divide_nanos = plain.divide_nanos;
            scrubbed.apply_nanos = plain.apply_nanos;
            assert_eq!(
                format!("{scrubbed:?}"),
                format!("{plain:?}"),
                "seed {seed} {name}: tracer changed the stats"
            );
            assert_eq!(
                tracer.pairs() as usize,
                traced.candidates_enumerated,
                "seed {seed} {name}: tracer missed pairs"
            );
        }
    }
}
