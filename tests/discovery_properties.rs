//! Seeded property tests for the signature-class bucket index:
//! incremental maintenance under random network mutation must stay
//! equivalent to a from-scratch rebuild, and the proposals drawn from a
//! maintained index must match those from a fresh one.
//!
//! Networks come from the workloads generator and edits from its seeded
//! xorshift [`Rng`], so every case is reproducible from its index.

use boolsubst::cube::{Cover, Cube, Lit, Phase, VarState};
use boolsubst::network::{Network, NodeId, SideTables};
use boolsubst::sim::{SignatureBuckets, SimConfig, SimFilter};
use boolsubst::workloads::generator::{random_network, GeneratorParams, Rng};

/// A random single-output cover over `vars` fanin slots — 1–3 cubes,
/// each drawing 1–3 literals.
fn random_cover(rng: &mut Rng, vars: usize) -> Cover {
    let mut cover = Cover::new(vars);
    for _ in 0..=rng.below(3) {
        let mut cube = Cube::universe(vars);
        for _ in 0..=rng.below(3) {
            let var = rng.below(vars);
            if matches!(cube.var_state(var), VarState::DontCare) {
                let phase = if rng.below(2) == 0 {
                    Phase::Pos
                } else {
                    Phase::Neg
                };
                cube.restrict(Lit { var, phase });
            }
        }
        cover.push(cube);
    }
    cover
}

/// Internal nodes with at least three fanins: the ones [`rewrite`] can
/// re-express over three of them.
fn rewritable(net: &Network) -> Vec<NodeId> {
    net.internal_ids()
        .filter(|&id| net.node(id).fanins().len() >= 3)
        .collect()
}

/// Rewrites `target` onto its first three fanins with a random cover and
/// patches the side tables. Returns the pre-edit version, or `None` when
/// the network refuses the edit.
fn rewrite(net: &mut Network, side: &mut SideTables, rng: &mut Rng, target: NodeId) -> Option<u64> {
    let fanins = net.node(target).fanins().to_vec();
    let pre_version = net.version();
    net.replace_function(target, fanins[..3].to_vec(), random_cover(rng, 3))
        .ok()?;
    side.apply_replace(net, target, &fanins);
    Some(pre_version)
}

/// Random mutation sequence: replace a random internal node's cover,
/// patch the sim table, feed the changed rows to `apply_commit` —
/// after every step the incrementally maintained index must match a
/// from-scratch rebuild, and no step may fall back to rebuilding.
#[test]
fn incremental_buckets_match_rebuild_under_mutation() {
    let mut edits = 0;
    for case in 0..64u64 {
        let mut rng = Rng::new(case + 1);
        let mut net = random_network(1000 + case, &GeneratorParams::default());
        let mut side = SideTables::build(&net);
        let mut filter = SimFilter::new(&net, &SimConfig::default());
        let mut buckets = SignatureBuckets::new();
        buckets.ensure(&net, &filter);
        assert_eq!(buckets.rebuilds(), 1);
        assert!(buckets.matches_rebuild(&net, &filter), "case {case}");
        let ids = rewritable(&net);
        for _ in 0..=rng.below(5) {
            let target = ids[rng.below(ids.len())];
            let Some(pre_version) = rewrite(&mut net, &mut side, &mut rng, target) else {
                continue;
            };
            edits += 1;
            let changed = filter.patch(&net, &side, &[target]);
            buckets.apply_commit(&net, &filter, pre_version, &changed);
            assert_eq!(
                buckets.rebuilds(),
                1,
                "case {case}: commit with exact changed rows must apply incrementally"
            );
            assert!(
                buckets.matches_rebuild(&net, &filter),
                "case {case}: incremental index diverged from rebuild"
            );
        }
    }
    assert!(edits >= 64, "only {edits} edits applied");
}

/// Proposals from a maintained index equal those from a fresh one,
/// for every target — bucket membership is the only state, so this
/// pins the re-keying logic, not just the aggregate counts.
#[test]
fn maintained_proposals_match_fresh_index() {
    let mut edits = 0;
    for case in 0..32u64 {
        let mut rng = Rng::new(case + 1);
        let mut net = random_network(2000 + case, &GeneratorParams::default());
        let mut side = SideTables::build(&net);
        let mut filter = SimFilter::new(&net, &SimConfig::default());
        let mut maintained = SignatureBuckets::new();
        maintained.ensure(&net, &filter);
        let ids: Vec<_> = net.internal_ids().collect();
        let targets = rewritable(&net);
        let target = targets[rng.below(targets.len())];
        let Some(pre_version) = rewrite(&mut net, &mut side, &mut rng, target) else {
            continue;
        };
        edits += 1;
        let changed = filter.patch(&net, &side, &[target]);
        maintained.apply_commit(&net, &filter, pre_version, &changed);
        let mut fresh = SignatureBuckets::new();
        fresh.ensure(&net, &filter);
        let bound = net.id_bound();
        for &t in &ids {
            let a = maintained.propose(&net, &filter, t, bound, None);
            let b = fresh.propose(&net, &filter, t, bound, None);
            assert_eq!(a.divisors, b.divisors, "case {case}: target {t}");
        }
    }
    assert!(edits >= 16, "only {edits} edits applied");
}
