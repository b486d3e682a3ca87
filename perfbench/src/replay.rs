//! Division replay: a seeded sample of overlapping (target, divisor)
//! node pairs from a workload's input networks, both covers lifted onto
//! the union of their fanins, timed through the public division calls.

use boolsubst_core::{basic_divide_covers, extended_divide_covers, DivisionOptions};
use boolsubst_cube::Cover;
use boolsubst_network::{Network, NodeId};
use boolsubst_workloads::generator::Rng;
use std::time::Instant;

/// Pair bounds, as the sweep's defaults (`max_divisor_cubes`,
/// `max_joint_vars`).
const MAX_DIVISOR_CUBES: usize = 24;
const MAX_JOINT_VARS: usize = 48;

#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub calls: usize,
    pub basic_us: f64,
    pub extended_us: f64,
    pub checks_per_call: f64,
    pub success_ratio: f64,
}

/// `f` over the fanins of `target` and `d` over those of `divisor`, both
/// lifted onto the sorted union of the two fanin lists.
fn lift(net: &Network, target: NodeId, divisor: NodeId) -> Option<(Cover, Cover)> {
    let (t, d) = (net.node(target), net.node(divisor));
    let mut union: Vec<NodeId> = t.fanins().iter().chain(d.fanins()).copied().collect();
    union.sort_unstable();
    union.dedup();
    if union.len() > MAX_JOINT_VARS {
        return None;
    }
    let lifted = |fanins: &[NodeId], cover: &Cover| {
        let map: Vec<usize> = fanins
            .iter()
            .map(|f| union.binary_search(f).expect("fanin is in the union"))
            .collect();
        cover.remapped(union.len(), &map)
    };
    Some((
        lifted(t.fanins(), t.cover()?),
        lifted(d.fanins(), d.cover()?),
    ))
}

/// Draws up to `samples` pairs whose supports overlap (the divisor is a
/// fanout of one of the target's fanins) and times one basic and one
/// extended division of each.
pub fn replay(nets: &[Network], seed: u64, samples: usize) -> Replay {
    let mut rng = Rng::new(seed ^ 0xD1_71DE);
    let fanouts: Vec<Vec<Vec<NodeId>>> = nets.iter().map(Network::fanouts).collect();
    let internal: Vec<Vec<NodeId>> = nets.iter().map(|n| n.internal_ids().collect()).collect();
    let opts = DivisionOptions::paper_default();
    let mut out = Replay::default();
    let (mut basic_ns, mut ext_ns, mut checks, mut successes) = (0u128, 0u128, 0usize, 0usize);
    for _ in 0..samples * 20 {
        if out.calls == samples {
            break;
        }
        let k = rng.below(nets.len());
        let (net, ids) = (&nets[k], &internal[k]);
        if ids.is_empty() {
            continue;
        }
        let target = ids[rng.below(ids.len())];
        let fanins = net.node(target).fanins();
        if fanins.is_empty() {
            continue;
        }
        let shared = fanins[rng.below(fanins.len())];
        let peers = &fanouts[k][shared.index()];
        let divisor = peers[rng.below(peers.len())];
        let usable = net
            .node(divisor)
            .cover()
            .is_some_and(|c| !c.is_empty() && c.len() <= MAX_DIVISOR_CUBES);
        if divisor == target || !usable {
            continue;
        }
        let Some((f, d)) = lift(net, target, divisor) else {
            continue;
        };
        let t0 = Instant::now();
        let basic = std::hint::black_box(basic_divide_covers(&f, &d, &opts));
        basic_ns += t0.elapsed().as_nanos();
        let t1 = Instant::now();
        std::hint::black_box(extended_divide_covers(&f, &d, &opts));
        ext_ns += t1.elapsed().as_nanos();
        checks += basic.checks;
        successes += usize::from(basic.succeeded());
        out.calls += 1;
    }
    if out.calls > 0 {
        let n = out.calls as f64;
        out.basic_us = basic_ns as f64 / 1e3 / n;
        out.extended_us = ext_ns as f64 / 1e3 / n;
        out.checks_per_call = checks as f64 / n;
        out.success_ratio = successes as f64 / n;
    }
    out
}
