//! Explicit internal don't-care computation — the structures the paper's
//! implication engine exploits implicitly, materialized as covers so they
//! can drive two-level node minimization (a `full_simplify`-style pass).
//!
//! * **SDCs** (satisfiability don't cares): a fanin `y = g(x)` can never
//!   disagree with its function, so `y ⊕ g(x)` never occurs; simplifying a
//!   node in the joint (fanin + grand-fanin) space against these covers
//!   lets literals migrate between levels.
//! * **ODCs** (observability don't cares): fanin assignments under which
//!   the node's value cannot reach any primary output. Computed exactly
//!   with the BDD oracle by enumerating fanin assignments.

use crate::verify::{build_node_fns, node_bdd};
use boolsubst_bdd::{Bdd, Ref};
use boolsubst_cube::{simplify, Cover, Cube, Lit, Phase, SimplifyOptions};
use boolsubst_network::{Network, NodeId};

/// Options for the don't-care-driven simplification pass.
#[derive(Debug, Clone, Copy)]
pub struct DontCareOptions {
    /// Use observability don't cares (exact, BDD-based).
    pub use_odc: bool,
    /// Use satisfiability don't cares of the fanins (joint-space rewrite).
    pub use_sdc: bool,
    /// Skip nodes with more fanins than this for the ODC enumeration
    /// (cost is `2^fanins` BDD checks per node).
    pub max_odc_fanins: usize,
    /// Skip SDC rewrites whose joint space exceeds this many variables.
    pub max_sdc_space: usize,
}

impl Default for DontCareOptions {
    fn default() -> DontCareOptions {
        DontCareOptions {
            use_odc: true,
            use_sdc: true,
            max_odc_fanins: 8,
            max_sdc_space: 20,
        }
    }
}

/// Builds BDDs for every node over the primary inputs. Returns the
/// manager and a dense table indexed by [`NodeId::index`].
fn all_node_bdds(net: &Network) -> (Bdd, Vec<Option<Ref>>) {
    let n = net.inputs().len();
    let mut bdd = Bdd::new(n);
    let mut node_fn: Vec<Option<Ref>> = vec![None; net.id_bound()];
    for (i, &pi) in net.inputs().iter().enumerate() {
        node_fn[pi.index()] = Some(bdd.var(i));
    }
    build_node_fns(&mut bdd, net, &mut node_fn);
    (bdd, node_fn)
}

/// Observability don't-care cover for `node`, over its own fanin
/// variables: the fanin assignments `c` such that every reaching
/// primary-input assignment is insensitive to the node's value (or no
/// primary-input assignment reaches `c` at all).
///
/// Returns `None` when the node has more fanins than `max_fanins` or is a
/// primary input.
///
/// # Panics
///
/// Panics if the node id is invalid.
#[must_use]
pub fn odc_cover(net: &Network, node: NodeId, max_fanins: usize) -> Option<Cover> {
    let target = net.node(node);
    target.cover()?;
    let k = target.fanins().len();
    if k > max_fanins {
        return None;
    }
    let (mut bdd, node_fn) = all_node_bdds(net);

    // Sensitivity of the outputs to `node`: rebuild each PO function twice
    // — with the node forced to 0 and to 1 — by re-evaluating the
    // transitive fanout cone over the BDDs. External don't cares (the
    // `.exdc` network) mask each output's sensitivity.
    let care = {
        let lo = cone_with_forced(net, &mut bdd, &node_fn, node, false);
        let hi = cone_with_forced(net, &mut bdd, &node_fn, node, true);
        let exdc = external_dc_bdds(net, &mut bdd);
        // care(x) = ∃ output o: o[n=0](x) != o[n=1](x) ∧ ¬exdc_o(x)
        let mut care = bdd.zero();
        for ((name, l), (_, h)) in lo.iter().zip(&hi) {
            let mut diff = bdd.xor(*l, *h);
            if let Some(&dc) = exdc.iter().find_map(|(n, r)| (n == name).then_some(r)) {
                let ndc = bdd.not(dc);
                diff = bdd.and(diff, ndc);
            }
            care = bdd.or(care, diff);
        }
        care
    };

    // Enumerate fanin assignments; DC where no care-point maps onto them.
    let mut dc = Cover::new(k);
    let fanin_fns: Vec<Ref> = target
        .fanins()
        .iter()
        .map(|&f| node_fn[f.index()].expect("built"))
        .collect();
    for m in 0u32..(1u32 << k) {
        // reach(x) = ∧_i (G_i(x) == bit_i)
        let mut reach = bdd.one();
        for (i, &g) in fanin_fns.iter().enumerate() {
            let lit = if (m >> i) & 1 == 1 { g } else { bdd.not(g) };
            reach = bdd.and(reach, lit);
        }
        let reach_and_care = bdd.and(reach, care);
        if reach_and_care == bdd.zero() {
            let mut cube = Cube::universe(k);
            for i in 0..k {
                let phase = if (m >> i) & 1 == 1 {
                    Phase::Pos
                } else {
                    Phase::Neg
                };
                cube.restrict(Lit { var: i, phase });
            }
            dc.push(cube);
        }
    }
    dc.remove_contained_cubes();
    Some(dc)
}

/// BDDs of the external don't-care network's outputs (over the main
/// network's input ordering, matched by name). Empty when there is no
/// `.exdc` or its inputs don't line up.
fn external_dc_bdds(net: &Network, bdd: &mut Bdd) -> Vec<(String, Ref)> {
    let Some(dc) = net.exdc() else {
        return Vec::new();
    };
    let main_inputs: Vec<&str> = net.inputs().iter().map(|&i| net.node(i).name()).collect();
    let mut node_fn: Vec<Option<Ref>> = vec![None; dc.id_bound()];
    for &pi in dc.inputs() {
        let Some(pos) = main_inputs.iter().position(|n| *n == dc.node(pi).name()) else {
            return Vec::new();
        };
        node_fn[pi.index()] = Some(bdd.var(pos));
    }
    build_node_fns(bdd, dc, &mut node_fn);
    dc.outputs()
        .iter()
        .map(|(name, o)| (name.clone(), node_fn[o.index()].expect("built")))
        .collect()
}

/// Re-evaluates all primary outputs with `node` forced to a constant.
fn cone_with_forced(
    net: &Network,
    bdd: &mut Bdd,
    node_fn: &[Option<Ref>],
    node: NodeId,
    value: bool,
) -> Vec<(String, Ref)> {
    let mut forced: Vec<Option<Ref>> = node_fn.to_vec();
    forced[node.index()] = Some(if value { bdd.one() } else { bdd.zero() });
    // Re-evaluate only the transitive fanout of `node`, in topo order.
    let tfo = net.tfo(node);
    for id in net.topo_order() {
        if !tfo.contains(&id) {
            continue;
        }
        let n = net.node(id);
        if n.cover().is_some() {
            forced[id.index()] = Some(node_bdd(bdd, n, &forced));
        }
    }
    net.outputs()
        .iter()
        .map(|(name, o)| (name.clone(), forced[o.index()].expect("built")))
        .collect()
}

/// Satisfiability don't-care cover of a node's internal fanins, in the
/// joint space of (fanins ∪ their fanins). Returns the space (node list)
/// and the SDC cover, or `None` if the space would exceed `max_space`.
///
/// # Panics
///
/// Panics if the node id is invalid.
#[must_use]
pub fn sdc_space_and_cover(
    net: &Network,
    node: NodeId,
    max_space: usize,
) -> Option<(Vec<NodeId>, Cover)> {
    let target = net.node(node);
    target.cover()?;
    let mut vars: Vec<NodeId> = target.fanins().to_vec();
    for &f in target.fanins() {
        for &g in net.node(f).fanins() {
            if !vars.contains(&g) {
                vars.push(g);
            }
        }
    }
    vars.sort_unstable();
    if vars.len() > max_space {
        return None;
    }
    let n = vars.len();
    let pos = |x: NodeId| vars.binary_search(&x).expect("in space");

    let mut sdc = Cover::new(n);
    for &f in target.fanins() {
        let fnode = net.node(f);
        let Some(g) = fnode.cover() else { continue };
        // y ⊕ g : y·g' + y'·g over the joint space.
        let map: Vec<usize> = fnode.fanins().iter().map(|&x| pos(x)).collect();
        let g_joint = g.remapped(n, &map);
        let y = pos(f);
        let mut y_cube = Cube::universe(n);
        y_cube.restrict(Lit::pos(y));
        let mut ny_cube = Cube::universe(n);
        ny_cube.restrict(Lit::neg(y));
        let g_compl = g_joint.complement();
        for c in g_compl.cubes() {
            sdc.push(c.and(&y_cube)); // y = 1 while g = 0
        }
        for c in g_joint.cubes() {
            sdc.push(c.and(&ny_cube)); // y = 0 while g = 1
        }
    }
    sdc.remove_contained_cubes();
    Some((vars, sdc))
}

/// Statistics from [`full_simplify`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DontCareStats {
    /// Nodes whose cover shrank using ODCs.
    pub odc_reductions: usize,
    /// Nodes rewritten in the SDC joint space.
    pub sdc_reductions: usize,
    /// Total SOP literals saved.
    pub literals_saved: usize,
}

/// `full_simplify`-style pass: minimizes every internal node against its
/// observability and satisfiability don't cares. Primary-output functions
/// are preserved by construction (and should be re-checked with
/// [`crate::verify::networks_equivalent`] in tests).
pub fn full_simplify(net: &mut Network, opts: &DontCareOptions) -> DontCareStats {
    let mut stats = DontCareStats::default();
    let ids: Vec<NodeId> = net.internal_ids().collect();
    for id in ids {
        if net.node_opt(id).is_none() {
            continue;
        }
        // --- ODC-based, same fanin space ---
        if opts.use_odc {
            if let Some(dc) = odc_cover(net, id, opts.max_odc_fanins) {
                if !dc.is_empty() {
                    let node = net.node(id);
                    let cover = node.cover().expect("internal").clone();
                    let fanins = node.fanins().to_vec();
                    let new_cover = simplify(&cover, &dc, SimplifyOptions::default());
                    if new_cover.literal_count() < cover.literal_count() {
                        stats.literals_saved += cover.literal_count() - new_cover.literal_count();
                        stats.odc_reductions += 1;
                        let support = new_cover.support();
                        let kept: Vec<NodeId> = support.iter().map(|&v| fanins[v]).collect();
                        let mut map = vec![0usize; fanins.len()];
                        for (k, &v) in support.iter().enumerate() {
                            map[v] = k;
                        }
                        let new_cover = new_cover.remapped(kept.len(), &map);
                        net.replace_function(id, kept, new_cover)
                            .expect("odc simplification fits");
                    }
                }
            }
        }
        // --- SDC-based, joint space (literals may move across levels) ---
        if opts.use_sdc {
            if let Some((vars, sdc)) = sdc_space_and_cover(net, id, opts.max_sdc_space) {
                if !sdc.is_empty() {
                    let node = net.node(id);
                    let cover = node.cover().expect("internal").clone();
                    let fanins = node.fanins().to_vec();
                    let n = vars.len();
                    let map: Vec<usize> = fanins
                        .iter()
                        .map(|&x| vars.binary_search(&x).expect("in space"))
                        .collect();
                    let joint = cover.remapped(n, &map);
                    let new_joint = simplify(&joint, &sdc, SimplifyOptions::default());
                    if new_joint.literal_count() < cover.literal_count() {
                        // Check the rewrite does not create a cycle (a
                        // grand-fanin could pass through another path).
                        let support = new_joint.support();
                        let kept: Vec<NodeId> = support.iter().map(|&v| vars[v]).collect();
                        let tfo = net.tfo(id);
                        if kept.iter().any(|f| tfo.contains(f) || *f == id) {
                            continue;
                        }
                        let mut rmap = vec![0usize; n];
                        for (k, &v) in support.iter().enumerate() {
                            rmap[v] = k;
                        }
                        let new_cover = new_joint.remapped(kept.len(), &rmap);
                        stats.literals_saved += cover.literal_count() - new_cover.literal_count();
                        stats.sdc_reductions += 1;
                        net.replace_function(id, kept, new_cover)
                            .expect("sdc simplification fits");
                    }
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::networks_equivalent;
    use boolsubst_cube::parse_sop;

    /// g = ab feeds f = g·a: inside f, g is only observed when a = 1, so
    /// g's cover can drop the literal a via ODCs.
    #[test]
    fn odc_lets_fanin_drop_literal() {
        let mut net = Network::new("odc");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("g");
        let f = net
            .add_node("f", vec![g, a], parse_sop(2, "ab").expect("p"))
            .expect("f");
        net.add_output("f", f).expect("o");
        let dc = odc_cover(&net, g, 8).expect("small");
        // Fanin assignments with a = 0 are unobservable for g.
        assert!(
            dc.cubes()
                .iter()
                .any(|c| { matches!(c.var_state(0), boolsubst_cube::VarState::Neg) }),
            "expected a'-cubes in the ODC, got {dc}"
        );
        let golden = net.clone();
        let stats = full_simplify(&mut net, &DontCareOptions::default());
        net.check_invariants();
        assert!(networks_equivalent(&golden, &net));
        assert!(stats.literals_saved >= 1, "stats: {stats:?}");
    }

    #[test]
    fn sdc_space_contains_fanin_identities() {
        let mut net = Network::new("sdc");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("g");
        let f = net
            .add_node("f", vec![g, a], parse_sop(2, "ab'").expect("p"))
            .expect("f");
        net.add_output("f", f).expect("o");
        let (vars, sdc) = sdc_space_and_cover(&net, f, 10).expect("small");
        assert!(vars.contains(&a) && vars.contains(&b) && vars.contains(&g));
        // g ⊕ ab never happens: g·(ab)' and g'·ab are don't cares.
        assert!(!sdc.is_empty());
        // f = g·a' is actually constant 0 (g = ab implies a): full
        // simplify should discover this via the SDCs.
        let golden = net.clone();
        full_simplify(&mut net, &DontCareOptions::default());
        net.check_invariants();
        assert!(networks_equivalent(&golden, &net));
        let f_cover = net.node(f).cover().expect("internal");
        assert!(
            f_cover.is_empty() || f_cover.literal_count() < 2,
            "f should collapse, got {f_cover}"
        );
    }

    #[test]
    fn full_simplify_preserves_random_networks() {
        use boolsubst_network::random_sim_equivalent;
        for seed in [3u64, 7, 11] {
            let mut net = {
                // Small random nets via the workloads generator would add a
                // dev-dependency cycle; build a modest net inline.
                let mut net = Network::new(format!("r{seed}"));
                let a = net.add_input("a").expect("a");
                let b = net.add_input("b").expect("b");
                let c = net.add_input("c").expect("c");
                let d = net.add_input("d").expect("d");
                let g1 = net
                    .add_node("g1", vec![a, b], parse_sop(2, "ab + a'b'").expect("p"))
                    .expect("g1");
                let g2 = net
                    .add_node("g2", vec![b, c], parse_sop(2, "a + b").expect("p"))
                    .expect("g2");
                let g3 = net
                    .add_node("g3", vec![g1, g2, d], parse_sop(3, "ab + c'").expect("p"))
                    .expect("g3");
                let g4 = net
                    .add_node("g4", vec![g1, c], parse_sop(2, "ab'").expect("p"))
                    .expect("g4");
                net.add_output("g3", g3).expect("o");
                net.add_output("g4", g4).expect("o");
                net
            };
            let golden = net.clone();
            full_simplify(&mut net, &DontCareOptions::default());
            net.check_invariants();
            assert!(networks_equivalent(&golden, &net), "seed {seed}");
            assert!(random_sim_equivalent(&golden, &net, 100, seed));
        }
    }

    #[test]
    fn external_dc_enables_more_simplification() {
        use boolsubst_network::parse_blif;
        // f = ab with exdc a'b': full_simplify may expand f towards b
        // (covering the don't care) — outputs must stay equivalent modulo
        // the DC.
        let net = parse_blif(
            ".model e\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.exdc\n.names a b f\n0- 1\n.end\n",
        )
        .expect("parse");
        let golden = net.clone();
        let mut opt = net.clone();
        full_simplify(&mut opt, &DontCareOptions::default());
        opt.check_invariants();
        assert!(
            crate::verify::networks_equivalent_modulo_dc(&golden, &opt),
            "DC-aware simplification left the care envelope"
        );
        // With the whole a'-half unconstrained, f can shrink to literal b.
        let f = opt.find("f").expect("f");
        let lits = opt.node(f).cover().expect("internal").literal_count();
        assert!(lits <= 2, "expected simplification, got {lits} literals");
    }

    #[test]
    fn options_can_disable_each_mechanism() {
        let mut net = Network::new("opts");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("g");
        let f = net
            .add_node("f", vec![g, a], parse_sop(2, "ab").expect("p"))
            .expect("f");
        net.add_output("f", f).expect("o");
        let mut odc_only = net.clone();
        let s1 = full_simplify(
            &mut odc_only,
            &DontCareOptions {
                use_sdc: false,
                ..Default::default()
            },
        );
        assert_eq!(s1.sdc_reductions, 0);
        let mut sdc_only = net.clone();
        let s2 = full_simplify(
            &mut sdc_only,
            &DontCareOptions {
                use_odc: false,
                ..Default::default()
            },
        );
        assert_eq!(s2.odc_reductions, 0);
    }
}
