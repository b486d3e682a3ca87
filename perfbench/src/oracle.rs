//! The output checks: an input network and its optimized output, split
//! into independent output groups and proved equal group by group with
//! the BDD oracle (`verify::networks_equivalent`) or, where the group has
//! too many inputs for BDDs, the SAT miter
//! (`sat::check_equivalence_with_stats`). Neither shares code with the
//! sweep's own checks.
//!
//! Splitting keeps both oracles near-linear on the generated families,
//! whose blocks have disjoint inputs: one whole-network SAT miter over a
//! 25k-node adder runs for minutes, one miter per 64-bit block takes
//! milliseconds.

use crate::spans::Recorder;
use boolsubst_core::networks_equivalent;
use boolsubst_guard::Guard;
use boolsubst_network::{Network, NodeId};
use boolsubst_sat::{check_equivalence_with_stats, EquivResult, SatOptions};
use boolsubst_sim::{PatternPool, SimTable};
use std::collections::HashMap;

/// Groups with at most this many inputs go to the BDD oracle.
pub const BDD_MAX_INPUTS: usize = 24;

/// One independent output group of a pair of networks with the same
/// interface: input and output positions, ascending.
#[derive(Debug, Clone, Default)]
pub struct Group {
    pub inputs: Vec<usize>,
    pub outputs: Vec<usize>,
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb)] = ra.min(rb);
    }
}

/// Splits the outputs of `a` and `b` (same input and output names, in
/// the same order) into groups no node of either network connects.
pub fn groups(a: &Network, b: &Network) -> Vec<Group> {
    // Union-find slots: inputs by position (shared by both networks),
    // then the nodes of `a`, then those of `b`.
    let n_in = a.inputs().len();
    let slots = |net: &Network, base: usize| -> Vec<usize> {
        let mut slot: Vec<usize> = (0..net.id_bound()).map(|i| base + i).collect();
        for (k, &pi) in net.inputs().iter().enumerate() {
            slot[pi.index()] = k;
        }
        slot
    };
    let (slot_a, slot_b) = (slots(a, n_in), slots(b, n_in + a.id_bound()));
    let mut parent: Vec<usize> = (0..n_in + a.id_bound() + b.id_bound()).collect();
    for (net, slot) in [(a, &slot_a), (b, &slot_b)] {
        for id in net.internal_ids() {
            for &f in net.node(id).fanins() {
                union(&mut parent, slot[id.index()], slot[f.index()]);
            }
        }
    }
    for ((_, da), (_, db)) in a.outputs().iter().zip(b.outputs()) {
        union(&mut parent, slot_a[da.index()], slot_b[db.index()]);
    }
    let mut index: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for (k, (_, driver)) in a.outputs().iter().enumerate() {
        let root = find(&mut parent, slot_a[driver.index()]);
        let g = *index.entry(root).or_insert_with(|| {
            groups.push(Group::default());
            groups.len() - 1
        });
        groups[g].outputs.push(k);
    }
    for i in 0..n_in {
        if let Some(&g) = index.get(&find(&mut parent, i)) {
            groups[g].inputs.push(i);
        }
    }
    groups
}

/// The sub-network of `net` driving the outputs at positions `outputs`,
/// over the inputs at positions `inputs` (which must cover its support).
pub fn extract(net: &Network, topo: &[NodeId], inputs: &[usize], outputs: &[usize]) -> Network {
    let mut needed = vec![false; net.id_bound()];
    let mut stack: Vec<NodeId> = outputs.iter().map(|&k| net.outputs()[k].1).collect();
    while let Some(id) = stack.pop() {
        if !std::mem::replace(&mut needed[id.index()], true) {
            stack.extend_from_slice(net.node(id).fanins());
        }
    }
    let mut sub = Network::new(net.name());
    let mut map: Vec<Option<NodeId>> = vec![None; net.id_bound()];
    for &k in inputs {
        let pi = net.inputs()[k];
        map[pi.index()] = Some(
            sub.add_input(net.node(pi).name())
                .expect("unique input names"),
        );
    }
    for &id in topo {
        let node = net.node(id);
        let Some(cover) = node.cover().filter(|_| needed[id.index()]) else {
            continue;
        };
        let fanins = node
            .fanins()
            .iter()
            .map(|f| map[f.index()].expect("support inside the group's inputs"))
            .collect();
        map[id.index()] = Some(
            sub.add_node(node.name(), fanins, cover.clone())
                .expect("well-formed node"),
        );
    }
    for &k in outputs {
        let (name, driver) = &net.outputs()[k];
        sub.add_output(name.clone(), map[driver.index()].expect("driver built"))
            .expect("unique output names");
    }
    sub
}

/// Renames the internal nodes of `net` after the `reference` nodes that
/// simulate identically, so the SAT miter's name-paired sweep can prove
/// them equal one by one. Pairing only proposes: a wrong pair is never
/// learned, so the verdict stays exact.
pub fn pair_by_signature(reference: &Network, net: &Network) -> Network {
    let pool = PatternPool::random(reference.inputs().len(), 4, 0, 0x5EED_BE7C);
    let ref_table = SimTable::build(reference, &pool);
    let table = SimTable::build(net, &pool);
    let mut by_sig: HashMap<&[u64], &str> = HashMap::new();
    for id in reference.topo_order() {
        if reference.node(id).cover().is_some() {
            by_sig
                .entry(ref_table.sig(reference, id))
                .or_insert(reference.node(id).name());
        }
    }
    let mut out = Network::new(net.name());
    let mut map = vec![None; net.id_bound()];
    for &pi in net.inputs() {
        map[pi.index()] = Some(
            out.add_input(net.node(pi).name())
                .expect("input names are unique"),
        );
    }
    for (k, id) in net.topo_order().into_iter().enumerate() {
        let node = net.node(id);
        let Some(cover) = node.cover() else { continue };
        let fanins = node
            .fanins()
            .iter()
            .map(|f| map[f.index()].expect("topological order"))
            .collect::<Vec<_>>();
        let paired = by_sig
            .remove(table.sig(net, id))
            .filter(|name| out.find(name).is_none());
        let name = paired.map_or_else(|| format!("__unpaired{k}"), str::to_string);
        map[id.index()] = Some(
            out.add_node(name, fanins, cover.clone())
                .expect("well-formed node"),
        );
    }
    for (name, driver) in net.outputs() {
        out.add_output(name.clone(), map[driver.index()].expect("driver built"))
            .expect("output names are unique");
    }
    out
}

/// Both networks declare the same inputs and outputs, in order.
fn same_interface(a: &Network, b: &Network) -> bool {
    let names = |net: &Network| -> Vec<String> {
        net.inputs()
            .iter()
            .map(|&pi| net.node(pi).name().to_string())
            .chain(net.outputs().iter().map(|(name, _)| name.clone()))
            .collect()
    };
    a.inputs().len() == b.inputs().len() && names(a) == names(b)
}

/// The groups of `input` and `out`, each as a pair of sub-networks.
fn group_pairs(input: &Network, out: &Network) -> Result<Vec<(Group, Network, Network)>, String> {
    if !same_interface(input, out) {
        return Err("output interface differs from the input's".to_string());
    }
    let (ta, tb) = (input.topo_order(), out.topo_order());
    Ok(groups(input, out)
        .into_iter()
        .map(|g| {
            let a = extract(input, &ta, &g.inputs, &g.outputs);
            let b = extract(out, &tb, &g.inputs, &g.outputs);
            (g, a, b)
        })
        .collect())
}

/// Proves `out` equal to `input`, group by group: the BDD oracle on
/// groups with at most [`BDD_MAX_INPUTS`] inputs, the SAT miter on the
/// rest, and with `both` the SAT miter on every group as well. Returns
/// the SAT conflicts spent.
pub fn prove(
    input: &Network,
    out: &Network,
    both: bool,
    rec: &mut Recorder,
    id: u64,
) -> Result<u64, String> {
    let mut conflicts = 0;
    for (g, a, b) in group_pairs(input, out)? {
        let small = g.inputs.len() <= BDD_MAX_INPUTS;
        if small && !rec.span("bdd.verify", id, |_| networks_equivalent(&a, &b)) {
            return Err(format!("BDD oracle: outputs {:?} differ", g.outputs));
        }
        if !small || both {
            let (result, stats) = rec.span("sat.verify", id, |_| {
                let paired = pair_by_signature(&a, &b);
                check_equivalence_with_stats(
                    &a,
                    &paired,
                    SatOptions {
                        conflict_budget: 10_000_000,
                    },
                )
            });
            conflicts += stats.conflicts;
            if result != EquivResult::Equivalent {
                return Err(format!("SAT oracle: outputs {:?}: {result:?}", g.outputs));
            }
        }
    }
    Ok(conflicts)
}

/// `Guard::check` of every group of `input` against `out`, recorded as
/// `guard.check` spans annotated with the deciding tier. Returns whether
/// every check passed and how many passed without an exact tier.
pub fn guard_checks(
    guard: &mut Guard,
    input: &Network,
    out: &Network,
    rec: &mut Recorder,
    id: u64,
) -> Result<(bool, usize), String> {
    let (mut passed, mut unproved) = (true, 0);
    for (_, a, b) in group_pairs(input, out)? {
        let paired = pair_by_signature(&a, &b);
        let decision = rec.span("guard.check", id, |rec| {
            let d = guard.check(&a, &paired);
            rec.annotate(d.tier_name());
            d
        });
        passed &= decision.passed();
        unproved += usize::from(!decision.exact());
    }
    Ok((passed, unproved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_network::parse_blif;

    const TWO_BLOCKS: &str = ".model t\n.inputs a b c d\n.outputs f g\n\
        .names a b f\n11 1\n.names c d g\n1- 1\n-1 1\n.end\n";

    fn blif(text: &str) -> Network {
        parse_blif(text).expect("test BLIF parses")
    }

    /// An AND chain over `n` inputs; `last_or` turns its final gate into
    /// an OR.
    fn chain(n: usize, last_or: bool) -> Network {
        let mut text = String::from(".model c\n.inputs");
        for i in 0..n {
            text.push_str(&format!(" x{i}"));
        }
        text.push_str("\n.outputs f\n.names x0 x1 t1\n11 1\n");
        for i in 2..n {
            let gate = if last_or && i + 1 == n {
                "1- 1\n-1 1\n"
            } else {
                "11 1\n"
            };
            text.push_str(&format!(".names t{} x{i} t{i}\n{gate}", i - 1));
        }
        text.push_str(&format!(".names t{} f\n1 1\n.end\n", n - 1));
        blif(&text)
    }

    #[test]
    fn disjoint_blocks_form_separate_groups() {
        let net = blif(TWO_BLOCKS);
        let g = groups(&net, &net);
        assert_eq!(g.len(), 2);
        assert_eq!(
            (g[0].inputs.clone(), g[0].outputs.clone()),
            (vec![0, 1], vec![0])
        );
        assert_eq!(
            (g[1].inputs.clone(), g[1].outputs.clone()),
            (vec![2, 3], vec![1])
        );
    }

    #[test]
    fn bdd_groups_accept_restructuring_and_catch_a_changed_output() {
        let a = blif(TWO_BLOCKS);
        let same = blif(
            ".model t\n.inputs a b c d\n.outputs f g\n.names a b f\n11 1\n\
             .names c d g\n1- 1\n01 1\n.end\n",
        );
        let wrong = blif(
            ".model t\n.inputs a b c d\n.outputs f g\n.names a b f\n11 1\n\
             .names c d g\n11 1\n.end\n",
        );
        let mut rec = Recorder::new(false);
        assert!(prove(&a, &same, true, &mut rec, 0).is_ok());
        assert!(prove(&a, &wrong, false, &mut rec, 0).is_err());
    }

    #[test]
    fn sat_groups_catch_a_changed_output() {
        let n = BDD_MAX_INPUTS + 2;
        let mut rec = Recorder::new(false);
        assert!(prove(&chain(n, false), &chain(n, false), false, &mut rec, 0).is_ok());
        assert!(prove(&chain(n, false), &chain(n, true), false, &mut rec, 0).is_err());
    }

    #[test]
    fn a_different_interface_is_refused() {
        let mut rec = Recorder::new(false);
        assert!(prove(&chain(4, false), &chain(5, false), true, &mut rec, 0).is_err());
    }
}
