//! Cross-crate oracle tests for the SAT guard tier (tier C).
//!
//! Pins the three behaviours the tier exists for: the CDCL miter agrees
//! with the BDD oracle on arbitrary networks, corruption invisible to
//! both the sampled tier and the BDD budget is still caught exactly, and
//! a checked multiplier run resolves every guard decision without ever
//! degrading to `PassSampled`.

use std::time::{Duration, Instant};

use boolsubst::core::{networks_equivalent, Session, SubstOptions, SubstStats};
use boolsubst::cube::{Cover, Cube, Lit};
use boolsubst::guard::{Guard, GuardConfig, GuardDecision, TierPolicy};
use boolsubst::network::{write_blif, Network};
use boolsubst::sat::{check_equivalence, EquivResult, SatOptions};
use boolsubst::workloads::generator::{random_network, GeneratorParams, Rng};
use boolsubst::workloads::large::{large_network, Family};

/// Random cover over `n` vars: each cube restricts each var to
/// positive/negative/free with equal probability.
fn random_cover(n: usize, cubes: usize, rng: &mut Rng) -> Cover {
    let mut out = Vec::new();
    for _ in 0..cubes {
        let mut cube = Cube::universe(n);
        for v in 0..n {
            match rng.below(3) {
                0 => cube.restrict(Lit::pos(v)),
                1 => cube.restrict(Lit::neg(v)),
                _ => {}
            }
        }
        out.push(cube);
    }
    Cover::from_cubes(n, out)
}

fn single_node(n: usize, cover: Cover) -> Network {
    let mut net = Network::new("m");
    let pis: Vec<_> = (0..n)
        .map(|k| net.add_input(format!("x{k}")).expect("pi"))
        .collect();
    let f = net.add_node("f", pis, cover).expect("node");
    net.add_output("f", f).expect("po");
    net
}

/// The solver and the BDD package must agree on equivalence of random
/// two-level covers over up to 10 inputs, and every SAT witness must
/// actually distinguish the networks.
#[test]
fn solver_agrees_with_bdd_oracle_on_random_covers() {
    for seed in 0..40u64 {
        let mut rng = Rng::new(0xC0FF_EE00 + seed);
        let n = 4 + rng.below(7); // 4..=10 inputs
        let a = single_node(n, random_cover(n, 1 + rng.below(6), &mut rng));
        let b = single_node(n, random_cover(n, 1 + rng.below(6), &mut rng));
        check_agreement(&a, &b, seed);
    }
}

/// Same agreement contract on multi-level networks: a generated DAG
/// against a copy with one internal cover perturbed (sometimes a
/// redundant cube, so both verdicts occur).
#[test]
fn solver_agrees_with_bdd_oracle_on_mutated_networks() {
    for seed in 0..20u64 {
        let a = random_network(seed, &GeneratorParams::default());
        let mut b = a.clone();
        let mut rng = Rng::new(0xBEEF + seed);
        let ids: Vec<_> = b.internal_ids().collect();
        let id = ids[rng.below(ids.len())];
        let (fanins, old) = {
            let node = b.node(id);
            (node.fanins().to_vec(), node.cover().expect("cover").clone())
        };
        let k = fanins.len();
        let mut cubes = old.cubes().to_vec();
        let mut extra = Cube::universe(k);
        for v in 0..k {
            match rng.below(3) {
                0 => extra.restrict(Lit::pos(v)),
                1 => extra.restrict(Lit::neg(v)),
                _ => {}
            }
        }
        cubes.push(extra);
        b.replace_function(id, fanins, Cover::from_cubes(k, cubes))
            .expect("perturb");
        check_agreement(&a, &b, seed);
    }
}

fn check_agreement(a: &Network, b: &Network, seed: u64) {
    let oracle = networks_equivalent(a, b);
    match check_equivalence(a, b, SatOptions::default()) {
        EquivResult::Equivalent => {
            assert!(oracle, "seed {seed}: SAT proved equal, BDD disagrees");
        }
        EquivResult::Inequivalent { inputs, .. } => {
            assert!(!oracle, "seed {seed}: SAT refuted, BDD disagrees");
            assert_ne!(
                a.eval_outputs(&inputs),
                b.eval_outputs(&inputs),
                "seed {seed}: witness fails to distinguish the networks"
            );
        }
        other => panic!("seed {seed}: unexpected verdict {other:?}"),
    }
}

/// Injects corruption into a multiplier too large for the BDD tier and
/// too narrow for the sampled pool to notice: a spurious minterm over 16
/// primary inputs (one hit in 2^16) ORed onto a partial product. Tier B
/// policy silently returns `PassSampled`; the SAT tier refutes it.
#[test]
fn multiplier_corruption_caught_by_sat_tier_where_bdd_tier_samples() {
    let orig = large_network(Family::Multiplier, 5000, 7);
    assert!(
        orig.len() > GuardConfig::default().exact_node_limit,
        "premise: instance must exceed the BDD tier budget"
    );
    let mut corrupt = orig.clone();

    // A partial product: internal node whose fanins are two primary inputs.
    let pp = corrupt
        .internal_ids()
        .find(|&id| {
            let f = corrupt.node(id).fanins();
            f.len() == 2 && f.iter().all(|x| corrupt.inputs().contains(x))
        })
        .expect("multiplier has partial products");
    let old_fanins = corrupt.node(pp).fanins().to_vec();
    let old_cover = corrupt.node(pp).cover().expect("cover").clone();

    // 16 primary inputs disjoint from the node's own fanins; the spurious
    // cube fires only when all 16 are high, which the guard's 256-pattern
    // random pool essentially never samples.
    let chosen: Vec<_> = corrupt
        .inputs()
        .iter()
        .copied()
        .filter(|p| !old_fanins.contains(p))
        .take(16)
        .collect();
    assert_eq!(chosen.len(), 16);
    let arity = old_fanins.len() + chosen.len();
    let mut cubes: Vec<Cube> = old_cover
        .cubes()
        .iter()
        .map(|c| c.extended(arity))
        .collect();
    let mut spur = Cube::universe(arity);
    for v in old_fanins.len()..arity {
        spur.restrict(Lit::pos(v));
    }
    cubes.push(spur);
    let mut fanins = old_fanins;
    fanins.extend(chosen);
    corrupt
        .replace_function(pp, fanins, Cover::from_cubes(arity, cubes))
        .expect("inject corruption");

    // Tier B policy: node count blows the BDD budget, pool misses the
    // minterm — the check silently degrades.
    let mut bdd_guard = Guard::new(GuardConfig {
        tier: TierPolicy::Bdd,
        ..GuardConfig::default()
    });
    let degraded = bdd_guard.check(&orig, &corrupt);
    assert_eq!(degraded, GuardDecision::PassSampled);
    assert_eq!(degraded.tier_name(), "sampled");
    assert_eq!(bdd_guard.exact_runs(), 0);

    // Tier C (reached via Auto for the same oversized instance) refutes.
    let mut sat_guard = Guard::new(GuardConfig {
        tier: TierPolicy::Auto,
        ..GuardConfig::default()
    });
    let caught = sat_guard.check(&orig, &corrupt);
    assert!(
        matches!(caught, GuardDecision::RefutedSat { .. }),
        "expected RefutedSat, got {caught:?}"
    );
    assert_eq!(caught.tier_name(), "sat");
    assert_eq!(sat_guard.sat_runs(), 1);
}

/// Acceptance: a checked multiplier run under the SAT tier resolves
/// every guard decision exactly — zero `PassSampled` — with default
/// budgets. GDC mode keeps the whole-network compare, so tier C really
/// runs (a basic rewrite is proved on its few-leaf cut by exhaustive
/// simulation). Deadline-bounded so it holds in debug and release alike.
#[test]
fn checked_multiplier_run_has_zero_sampled_passes() {
    let mut net = large_network(Family::Multiplier, 600, 7);
    let stats = Session::new(
        &mut net,
        SubstOptions::extended_gdc()
            .with_checked(true)
            .with_guard_tier(TierPolicy::Sat)
            .with_deadline(Instant::now() + Duration::from_secs(10)),
    )
    .run();
    assert!(
        stats.substitutions >= 1,
        "run must accept at least one rewrite"
    );
    assert!(stats.guard_sat_runs >= 1, "tier C must actually run");
    assert_eq!(
        stats.guard_pass_sampled, 0,
        "no decision may degrade to sampled"
    );
    assert_eq!(
        stats.guard_rejections, 0,
        "SAT tier must confirm every rewrite"
    );
}

/// Bit-identity of the engine with the SAT tier enabled, across worker
/// counts. The instance has 20 inputs so tier A samples (no exhaustive
/// pool), and GDC mode compares whole networks, so every acceptance
/// really flows through tier C.
#[test]
fn engine_with_sat_tier_is_bit_identical_across_threads() {
    let params = GeneratorParams {
        inputs: 20,
        nodes: 48,
        ..GeneratorParams::default()
    };
    let base = random_network(91, &params);
    let run = |threads: usize| -> (Network, SubstStats) {
        let mut net = base.clone();
        let stats = Session::new(
            &mut net,
            SubstOptions::extended_gdc()
                .with_checked(true)
                .with_guard_tier(TierPolicy::Sat)
                .with_threads(threads),
        )
        .run();
        net.check_invariants();
        (net, stats)
    };
    let (seq_net, seq) = run(1);
    assert!(seq.guard_sat_runs >= 1, "instance must exercise tier C");
    assert_eq!(seq.guard_pass_sampled, 0);
    let (par_net, par) = run(4);
    assert_eq!(write_blif(&par_net), write_blif(&seq_net));
    assert_eq!(par.substitutions, seq.substitutions);
    assert_eq!(par.literal_gain, seq.literal_gain);
    assert_eq!(par.guard_sat_runs, seq.guard_sat_runs);
    assert_eq!(par.guard_pass_sampled, seq.guard_pass_sampled);
    assert_eq!(par.guard_rejections, seq.guard_rejections);
}
