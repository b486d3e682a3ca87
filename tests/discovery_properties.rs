//! Property-based tests (proptest) for the signature-class bucket index:
//! incremental maintenance under random network mutation must stay
//! equivalent to a from-scratch rebuild, and the proposals drawn from a
//! maintained index must match those from a fresh one.
//!
//! Gated behind the `proptest` cargo feature so the default build stays
//! hermetic (no registry access); see CONTRIBUTING.md to enable.
#![cfg(feature = "proptest")]

use boolsubst::cube::{Cover, Cube, Lit, Phase};
use boolsubst::network::{Network, SideTables};
use boolsubst::sim::{SignatureBuckets, SimConfig, SimFilter};
use boolsubst::workloads::generator::{random_network, GeneratorParams};
use proptest::prelude::*;

/// Strategy: a random single-output cover over `vars` fanin slots —
/// 1–3 cubes, each restricting 1–3 variables.
fn cover_strategy(vars: usize) -> impl Strategy<Value = Cover> {
    proptest::collection::vec(
        proptest::collection::vec((0..vars, any::<bool>()), 1..=3),
        1..=3,
    )
    .prop_map(move |cubes| {
        let mut cover = Cover::new(vars);
        for lits in cubes {
            let mut cube = Cube::universe(vars);
            for (v, pos) in lits {
                if matches!(cube.var_state(v), boolsubst::cube::VarState::DontCare) {
                    cube.restrict(Lit {
                        var: v,
                        phase: if pos { Phase::Pos } else { Phase::Neg },
                    });
                }
            }
            cover.push(cube);
        }
        cover
    })
}

proptest! {
    /// Random mutation sequence: replace a random internal node's cover,
    /// patch the sim table, feed the changed rows to `apply_commit` —
    /// after every step the incrementally maintained index must match a
    /// from-scratch rebuild, and no step may fall back to rebuilding.
    #[test]
    fn incremental_buckets_match_rebuild_under_mutation(
        seed in 0u64..64,
        picks in proptest::collection::vec((any::<u32>(), cover_strategy(3)), 1..6),
    ) {
        let mut net = random_network(1000 + seed, &GeneratorParams::default());
        let mut side = SideTables::build(&net);
        let mut filter = SimFilter::new(&net, &SimConfig::default());
        let mut buckets = SignatureBuckets::new();
        buckets.ensure(&net, &filter);
        prop_assert_eq!(buckets.rebuilds(), 1);
        prop_assert!(buckets.matches_rebuild(&net, &filter));
        let ids: Vec<_> = net.internal_ids().collect();
        for (pick, cover) in picks {
            let target = ids[pick as usize % ids.len()];
            let fanins = net.node(target).fanins().to_vec();
            if fanins.len() < 3 {
                continue; // cover arity would not match
            }
            let kept = fanins[..3].to_vec();
            let pre_version = net.version();
            if net.replace_function(target, kept, cover.clone()).is_err() {
                continue; // e.g. the rewrite would create a cycle
            }
            side.apply_replace(&net, target, &fanins);
            let changed = filter.patch(&net, &side, &[target]);
            buckets.apply_commit(&net, &filter, pre_version, &changed);
            prop_assert_eq!(
                buckets.rebuilds(), 1,
                "commit with exact changed rows must apply incrementally"
            );
            prop_assert!(
                buckets.matches_rebuild(&net, &filter),
                "incremental index diverged from rebuild"
            );
        }
    }

    /// Proposals from a maintained index equal those from a fresh one,
    /// for every target — bucket membership is the only state, so this
    /// pins the re-keying logic, not just the aggregate counts.
    #[test]
    fn maintained_proposals_match_fresh_index(
        seed in 0u64..32,
        pick in any::<u32>(),
        cover in cover_strategy(3),
    ) {
        let mut net = random_network(2000 + seed, &GeneratorParams::default());
        let mut side = SideTables::build(&net);
        let mut filter = SimFilter::new(&net, &SimConfig::default());
        let mut maintained = SignatureBuckets::new();
        maintained.ensure(&net, &filter);
        let ids: Vec<_> = net.internal_ids().collect();
        let target = ids[pick as usize % ids.len()];
        let fanins = net.node(target).fanins().to_vec();
        prop_assume!(fanins.len() >= 3);
        let pre_version = net.version();
        prop_assume!(net.replace_function(target, fanins[..3].to_vec(), cover).is_ok());
        side.apply_replace(&net, target, &fanins);
        let changed = filter.patch(&net, &side, &[target]);
        maintained.apply_commit(&net, &filter, pre_version, &changed);
        let mut fresh = SignatureBuckets::new();
        fresh.ensure(&net, &filter);
        let bound = net.id_bound();
        for &t in &ids {
            let a = maintained.propose(&net, &filter, t, bound, None);
            let b = fresh.propose(&net, &filter, t, bound, None);
            prop_assert_eq!(a.divisors, b.divisors, "target {}", t);
        }
    }
}
