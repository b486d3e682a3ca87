//! Exact equivalence checking of networks through the BDD oracle.

use boolsubst_bdd::{Bdd, Ref};
use boolsubst_cube::Phase;
use boolsubst_network::{Network, Node};

/// Builds BDDs (over the primary inputs, in declaration order) for every
/// primary output of the network.
///
/// # Panics
///
/// Panics on networks whose BDDs exceed the manager's `u32` node space.
#[must_use]
pub fn network_bdds(net: &Network) -> (Bdd, Vec<(String, Ref)>) {
    let n = net.inputs().len();
    let mut bdd = Bdd::new(n);
    let mut node_fn: Vec<Option<Ref>> = vec![None; net.id_bound()];
    for (i, &pi) in net.inputs().iter().enumerate() {
        node_fn[pi.index()] = Some(bdd.var(i));
    }
    build_node_fns(&mut bdd, net, &mut node_fn);
    let outputs = net
        .outputs()
        .iter()
        .map(|(name, o)| (name.clone(), node_fn[o.index()].expect("driver built")))
        .collect();
    (bdd, outputs)
}

/// BDD of one node's cover over its fanins' functions (`node_fn` is
/// indexed by `NodeId::index`).
pub(crate) fn node_bdd(bdd: &mut Bdd, node: &Node, node_fn: &[Option<Ref>]) -> Ref {
    let cover = node.cover().expect("internal node");
    let cubes = cover.cubes().iter().map(|cube| {
        cube.lits().map(|l| {
            let f = node_fn[node.fanins()[l.var].index()].expect("topo order");
            (f, l.phase == Phase::Pos)
        })
    });
    bdd.sop(cubes, None).expect("no node limit")
}

/// Fills `node_fn` with the BDD of every internal node of `net`, in
/// topological order. The primary inputs' entries must be set.
pub(crate) fn build_node_fns(bdd: &mut Bdd, net: &Network, node_fn: &mut [Option<Ref>]) {
    for id in net.topo_order() {
        let node = net.node(id);
        if node.cover().is_some() {
            node_fn[id.index()] = Some(node_bdd(bdd, node, node_fn));
        }
    }
}

/// Exact equivalence of two networks: same primary-input names, same
/// output names, and identical BDDs per output (inputs matched by name).
///
/// # Panics
///
/// Panics if either network has duplicate output names.
#[must_use]
pub fn networks_equivalent(a: &Network, b: &Network) -> bool {
    let a_inputs: Vec<&str> = a.inputs().iter().map(|&i| a.node(i).name()).collect();
    let b_inputs: Vec<&str> = b.inputs().iter().map(|&i| b.node(i).name()).collect();
    if a_inputs.len() != b_inputs.len() {
        return false;
    }
    // Build b with inputs re-ordered to match a (by name).
    let Some(perm): Option<Vec<usize>> = a_inputs
        .iter()
        .map(|n| b_inputs.iter().position(|m| m == n))
        .collect()
    else {
        return false;
    };

    // Build both networks' functions in one shared manager, with variable
    // i meaning a's i-th input (b's inputs permuted to match by name).
    let n = a_inputs.len();
    let mut bdd = Bdd::new(n);
    let mut node_fn_a: Vec<Option<Ref>> = vec![None; a.id_bound()];
    for (i, &pi) in a.inputs().iter().enumerate() {
        node_fn_a[pi.index()] = Some(bdd.var(i));
    }
    let mut node_fn_b: Vec<Option<Ref>> = vec![None; b.id_bound()];
    for (bi, &pi) in b.inputs().iter().enumerate() {
        let ai = perm.iter().position(|&p| p == bi).expect("bijection");
        node_fn_b[pi.index()] = Some(bdd.var(ai));
    }
    build_node_fns(&mut bdd, a, &mut node_fn_a);
    build_node_fns(&mut bdd, b, &mut node_fn_b);

    let outs = |net: &Network, node_fn: &[Option<Ref>]| -> Option<Vec<(String, Ref)>> {
        let mut v: Vec<(String, Ref)> = net
            .outputs()
            .iter()
            .map(|(name, o)| (name.clone(), node_fn[o.index()].expect("built")))
            .collect();
        v.sort_by(|x, y| x.0.cmp(&y.0));
        for w in v.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate output name {}", w[0].0);
        }
        Some(v)
    };
    let (Some(oa), Some(ob)) = (outs(a, &node_fn_a), outs(b, &node_fn_b)) else {
        return false;
    };
    oa == ob
}

/// Equivalence *modulo external don't cares*: outputs may differ only on
/// input combinations marked don't-care by either network's attached
/// `.exdc` network (matched to outputs by name). Falls back to exact
/// equivalence when neither network carries don't cares.
///
/// # Panics
///
/// Panics if either network has duplicate output names.
#[must_use]
pub fn networks_equivalent_modulo_dc(a: &Network, b: &Network) -> bool {
    if a.exdc().is_none() && b.exdc().is_none() {
        return networks_equivalent(a, b);
    }
    let a_inputs: Vec<&str> = a.inputs().iter().map(|&i| a.node(i).name()).collect();
    let b_inputs: Vec<&str> = b.inputs().iter().map(|&i| b.node(i).name()).collect();
    if a_inputs.len() != b_inputs.len() {
        return false;
    }
    if !b_inputs.iter().all(|n| a_inputs.contains(n)) {
        return false;
    }
    let n = a_inputs.len();
    let mut bdd = Bdd::new(n);
    let var_of_name = |name: &str| -> usize {
        a_inputs
            .iter()
            .position(|m| *m == name)
            .expect("checked subset")
    };

    // Builds all output BDDs of `net` with inputs mapped by name.
    let build_outputs = |bdd: &mut Bdd, net: &Network| -> Option<Vec<(String, Ref)>> {
        let mut node_fn: Vec<Option<Ref>> = vec![None; net.id_bound()];
        for &pi in net.inputs() {
            let name = net.node(pi).name();
            if !a_inputs.contains(&name) {
                return None;
            }
            node_fn[pi.index()] = Some(bdd.var(var_of_name(name)));
        }
        build_node_fns(bdd, net, &mut node_fn);
        Some(
            net.outputs()
                .iter()
                .map(|(name, o)| (name.clone(), node_fn[o.index()].expect("built")))
                .collect(),
        )
    };

    let Some(oa) = build_outputs(&mut bdd, a) else {
        return false;
    };
    let Some(ob) = build_outputs(&mut bdd, b) else {
        return false;
    };
    let dc_a = a.exdc().and_then(|dc| build_outputs(&mut bdd, dc));
    let dc_b = b.exdc().and_then(|dc| build_outputs(&mut bdd, dc));
    if (a.exdc().is_some() && dc_a.is_none()) || (b.exdc().is_some() && dc_b.is_none()) {
        return false; // exdc over foreign inputs
    }

    let find = |v: &Option<Vec<(String, Ref)>>, name: &str| -> Option<Ref> {
        v.as_ref()
            .and_then(|v| v.iter().find(|(n, _)| n == name).map(|&(_, r)| r))
    };
    let mut names: Vec<&String> = oa.iter().map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    for name in names {
        let Some(fa) = find(&Some(oa.clone()), name) else {
            return false;
        };
        let Some(fb) = find(&Some(ob.clone()), name) else {
            return false;
        };
        let mut dc = bdd.zero();
        if let Some(d) = find(&dc_a, name) {
            dc = bdd.or(dc, d);
        }
        if let Some(d) = find(&dc_b, name) {
            dc = bdd.or(dc, d);
        }
        let diff = bdd.xor(fa, fb);
        let ndc = bdd.not(dc);
        let bad = bdd.and(diff, ndc);
        if bad != bdd.zero() {
            return false;
        }
    }
    // Both must expose the same output names.
    let mut na: Vec<&String> = oa.iter().map(|(n, _)| n).collect();
    let mut nb: Vec<&String> = ob.iter().map(|(n, _)| n).collect();
    na.sort();
    nb.sort();
    na == nb
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;
    use boolsubst_network::parse_blif;

    #[test]
    fn equivalent_restructurings() {
        let x = parse_blif(
            ".model x\n.inputs a b c\n.outputs f\n.names a b g\n11 1\n.names g c f\n1- 1\n-1 1\n.end\n",
        )
        .expect("x");
        // Same function, flat.
        let y =
            parse_blif(".model y\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n")
                .expect("y");
        assert!(networks_equivalent(&x, &y));
    }

    #[test]
    fn different_functions_detected() {
        let x =
            parse_blif(".model x\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n").expect("x");
        let y =
            parse_blif(".model y\n.inputs a b\n.outputs f\n.names a b f\n1- 1\n.end\n").expect("y");
        assert!(!networks_equivalent(&x, &y));
    }

    #[test]
    fn input_order_immaterial() {
        let x =
            parse_blif(".model x\n.inputs a b\n.outputs f\n.names a b f\n10 1\n.end\n").expect("x");
        let y =
            parse_blif(".model y\n.inputs b a\n.outputs f\n.names a b f\n10 1\n.end\n").expect("y");
        assert!(networks_equivalent(&x, &y));
    }

    #[test]
    fn modulo_dc_equivalence() {
        // f = ab with DC at a'b' : g = ab + a'b' is equivalent modulo DC
        // but not exactly.
        let x = parse_blif(
            ".model x\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.exdc\n.names a b f\n00 1\n.end\n",
        )
        .expect("x");
        let y = parse_blif(".model y\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 1\n.end\n")
            .expect("y");
        assert!(!networks_equivalent(&x, &y));
        assert!(networks_equivalent_modulo_dc(&x, &y));
        // A difference outside the DC is still caught.
        let z =
            parse_blif(".model z\n.inputs a b\n.outputs f\n.names a b f\n1- 1\n.end\n").expect("z");
        assert!(!networks_equivalent_modulo_dc(&x, &z));
    }

    #[test]
    fn modulo_dc_without_dc_is_exact() {
        let x = parse_blif(".model x\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n").expect("x");
        let y = parse_blif(".model y\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n").expect("y");
        assert!(networks_equivalent_modulo_dc(&x, &y));
    }

    #[test]
    fn empty_covers_are_constant_zero() {
        // A .names block with no rows is constant 0; both checkers must
        // treat it as a function, not a degenerate case.
        let x = parse_blif(".model x\n.inputs a\n.outputs f\n.names a f\n.end\n").expect("x");
        let y = parse_blif(".model y\n.inputs a\n.outputs f\n.names f\n.end\n").expect("y");
        assert!(networks_equivalent(&x, &y));
        assert!(networks_equivalent_modulo_dc(&x, &y));
        let one = parse_blif(".model o\n.inputs a\n.outputs f\n.names f\n1\n.end\n").expect("o");
        assert!(!networks_equivalent(&x, &one));
    }

    #[test]
    fn constant_nodes_compare_by_function() {
        // Constant 1 vs the tautology cover a + a' — equivalent; constant
        // 1 vs constant 0 — not.
        let one = parse_blif(".model a\n.inputs a\n.outputs f\n.names f\n1\n.end\n").expect("a");
        let taut =
            parse_blif(".model b\n.inputs a\n.outputs f\n.names a f\n1 1\n0 1\n.end\n").expect("b");
        let zero = parse_blif(".model c\n.inputs a\n.outputs f\n.names f\n.end\n").expect("c");
        assert!(networks_equivalent(&one, &taut));
        assert!(!networks_equivalent(&one, &zero));
        assert!(networks_equivalent_modulo_dc(&one, &taut));
        assert!(!networks_equivalent_modulo_dc(&one, &zero));
    }

    #[test]
    fn output_declaration_order_is_immaterial() {
        // Outputs are matched by name, so declaring them in a different
        // order must not affect the verdict.
        let x = parse_blif(
            ".model x\n.inputs a b\n.outputs f g\n.names a b f\n11 1\n.names a b g\n1- 1\n.end\n",
        )
        .expect("x");
        let y = parse_blif(
            ".model y\n.inputs a b\n.outputs g f\n.names a b f\n11 1\n.names a b g\n1- 1\n.end\n",
        )
        .expect("y");
        assert!(networks_equivalent(&x, &y));
        assert!(networks_equivalent_modulo_dc(&x, &y));
    }

    #[test]
    fn mismatched_output_names_are_not_equivalent() {
        // Same functions, different interface: must be rejected, not
        // matched positionally.
        let x =
            parse_blif(".model x\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n").expect("x");
        let y =
            parse_blif(".model y\n.inputs a b\n.outputs h\n.names a b h\n11 1\n.end\n").expect("y");
        assert!(!networks_equivalent(&x, &y));
        assert!(!networks_equivalent_modulo_dc(&x, &y));
        // Extra output on one side: also a mismatch.
        let z = parse_blif(
            ".model z\n.inputs a b\n.outputs f g\n.names a b f\n11 1\n.names a b g\n1- 1\n.end\n",
        )
        .expect("z");
        assert!(!networks_equivalent(&x, &z));
        assert!(!networks_equivalent_modulo_dc(&x, &z));
    }

    #[test]
    fn mismatched_input_interfaces_are_not_equivalent() {
        let x =
            parse_blif(".model x\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n").expect("x");
        // Different input names (even with the same output function shape).
        let y =
            parse_blif(".model y\n.inputs a c\n.outputs f\n.names a c f\n11 1\n.end\n").expect("y");
        assert!(!networks_equivalent(&x, &y));
        // Different input count.
        let z = parse_blif(".model z\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n").expect("z");
        assert!(!networks_equivalent(&x, &z));
        assert!(!networks_equivalent_modulo_dc(&x, &z));
    }

    #[test]
    fn network_bdds_match_eval() {
        let mut net = Network::new("m");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "ab' + a'b").expect("p"))
            .expect("g");
        let f = net
            .add_node("f", vec![g, c], parse_sop(2, "ab + a'b'").expect("p"))
            .expect("f");
        net.add_output("f", f).expect("o");
        let (bdd, outs) = network_bdds(&net);
        for m in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(bdd.eval(outs[0].1, &ins), net.eval_outputs(&ins)[0]);
        }
    }
}
