//! Structural network transformations: node collapsing (composition),
//! SIS-style `eliminate`, and `sweep`.

use crate::{Network, NetworkError, NodeId};
use boolsubst_cube::{Cover, Lit};

/// Limit on the cube count of a collapsed cover; collapses that would
/// exceed it are skipped to avoid SOP blowup (mirrors SIS behaviour of
/// refusing pathological eliminations).
pub const COLLAPSE_CUBE_LIMIT: usize = 5000;

impl Network {
    /// Composes the function of fanin `inner` into node `outer`, removing
    /// the dependency (`outer` no longer lists `inner` as a fanin).
    ///
    /// # Errors
    ///
    /// Returns an error if `inner` is not a fanin of `outer`, if either
    /// node is invalid, or if the composed cover would exceed
    /// [`COLLAPSE_CUBE_LIMIT`] cubes.
    pub fn collapse_into(&mut self, inner: NodeId, outer: NodeId) -> Result<(), NetworkError> {
        let outer_node = self.node(outer);
        let inner_node = self.node(inner);
        let inner_cover = inner_node
            .cover()
            .ok_or_else(|| NetworkError::UnknownNode("cannot collapse a primary input".into()))?
            .clone();
        let inner_fanins = inner_node.fanins().to_vec();
        let outer_cover = outer_node
            .cover()
            .ok_or_else(|| NetworkError::UnknownNode("cannot collapse into an input".into()))?
            .clone();
        let outer_fanins = outer_node.fanins().to_vec();
        let k = outer_fanins
            .iter()
            .position(|&f| f == inner)
            .ok_or_else(|| NetworkError::UnknownNode("inner is not a fanin of outer".into()))?;

        // New fanin list: outer's fanins minus `inner`, then inner's fanins
        // not already present.
        let mut new_fanins: Vec<NodeId> = outer_fanins
            .iter()
            .copied()
            .filter(|&f| f != inner)
            .collect();
        for &f in &inner_fanins {
            if !new_fanins.contains(&f) {
                new_fanins.push(f);
            }
        }
        let n_new = new_fanins.len();
        let position = |f: NodeId| new_fanins.iter().position(|&x| x == f).expect("mapped");

        // Remap outer's cover variables (minus k) into the new universe.
        let outer_map: Vec<usize> = outer_fanins
            .iter()
            .map(|&f| if f == inner { usize::MAX } else { position(f) })
            .collect();
        let remap_outer = |c: &Cover| -> Cover {
            // Variable k never appears after cofactoring, so MAX is safe.
            let map: Vec<usize> = outer_map
                .iter()
                .map(|&m| if m == usize::MAX { 0 } else { m })
                .collect();
            c.remapped(n_new, &map)
        };
        let inner_map: Vec<usize> = inner_fanins.iter().map(|&f| position(f)).collect();
        let g = inner_cover.remapped(n_new, &inner_map);

        let pos_part = remap_outer(&outer_cover.cofactor_lit(Lit::pos(k)));
        let neg_part = remap_outer(&outer_cover.cofactor_lit(Lit::neg(k)));

        let mut new_cover = pos_part.and(&g);
        if !neg_part.is_empty() {
            let g_compl = g.complement();
            new_cover.extend_cover(&neg_part.and(&g_compl));
            // Consensus term pos·neg: independent of g, absorbs the split
            // cubes when pos and neg overlap (e.g. composing into f = g + c
            // should yield ab + c, not ab + ca' + cb').
            new_cover.extend_cover(&pos_part.and(&neg_part));
        }
        new_cover.remove_contained_cubes();
        if new_cover.len() > COLLAPSE_CUBE_LIMIT {
            return Err(NetworkError::WouldCycle(format!(
                "collapse of {} into {} exceeds cube limit",
                self.node(inner).name(),
                self.node(outer).name()
            )));
        }

        // Drop fanins the new cover no longer depends on.
        let (new_fanins, new_cover) = prune_unused_fanins(new_fanins, new_cover);
        self.replace_function(outer, new_fanins, new_cover)
    }

    /// SIS-style `eliminate`: repeatedly collapses nodes whose *value*
    /// (literals saved by keeping the node factored out) is at most
    /// `threshold`. `eliminate 0` collapses single-use nodes, creating the
    /// complex nodes the paper's Script A starts from.
    ///
    /// Returns the number of nodes eliminated.
    pub fn eliminate(&mut self, threshold: i64) -> usize {
        let mut eliminated = 0;
        loop {
            let mut progress = false;
            let output_set: Vec<NodeId> = self.outputs.iter().map(|(_, o)| *o).collect();
            let candidates: Vec<NodeId> = self.internal_ids().collect();
            for id in candidates {
                if self.node_opt(id).is_none() || output_set.contains(&id) {
                    continue;
                }
                let fanouts = self.fanouts();
                let fanout_ids = fanouts[id.index()].clone();
                if fanout_ids.is_empty() {
                    continue;
                }
                let uses: usize = fanout_ids.iter().map(|&o| literal_uses(self, o, id)).sum();
                let lits = self.node(id).cover().expect("internal").literal_count() as i64;
                let value = lits * uses as i64 - lits - uses as i64;
                if value > threshold {
                    continue;
                }
                // Collapse into every fanout; on any failure (blowup) skip
                // the node entirely to keep the network consistent.
                let snapshot = self.clone();
                let mut ok = true;
                for o in &fanout_ids {
                    if self.collapse_into(id, *o).is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    ok = self.remove_node(id).is_ok();
                }
                if ok {
                    eliminated += 1;
                    progress = true;
                } else {
                    *self = snapshot;
                }
            }
            if !progress {
                return eliminated;
            }
        }
    }

    /// `sweep`: folds constant nodes into fanouts, collapses single-input
    /// nodes (buffers/inverters), prunes unused fanins, and removes dead
    /// internal nodes. Returns the number of nodes removed.
    pub fn sweep(&mut self) -> usize {
        let mut removed = 0;
        loop {
            let mut progress = false;

            // Prune fanins that no longer appear in a node's cover support.
            for id in self.internal_ids().collect::<Vec<_>>() {
                let node = self.node(id);
                let cover = node.cover().expect("internal").clone();
                let fanins = node.fanins().to_vec();
                let support = cover.support();
                if support.len() < fanins.len() {
                    let (nf, nc) = prune_unused_fanins(fanins, cover);
                    self.replace_function(id, nf, nc).expect("prune is safe");
                    progress = true;
                }
            }

            // Collapse constants and single-input nodes into fanouts.
            let output_set: Vec<NodeId> = self.outputs.iter().map(|(_, o)| *o).collect();
            for id in self.internal_ids().collect::<Vec<_>>() {
                if self.node_opt(id).is_none() || output_set.contains(&id) {
                    continue;
                }
                if self.node(id).fanins().len() > 1 {
                    continue;
                }
                let fanout_ids = self.fanouts()[id.index()].clone();
                if fanout_ids.is_empty() {
                    continue;
                }
                let mut ok = true;
                for o in &fanout_ids {
                    if self.collapse_into(id, *o).is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok && self.remove_node(id).is_ok() {
                    removed += 1;
                    progress = true;
                }
            }

            // Remove dead internal nodes (no fanout, not an output).
            let output_set: Vec<NodeId> = self.outputs.iter().map(|(_, o)| *o).collect();
            for id in self.internal_ids().collect::<Vec<_>>() {
                if output_set.contains(&id) {
                    continue;
                }
                if self.fanouts()[id.index()].is_empty() && self.remove_node(id).is_ok() {
                    removed += 1;
                    progress = true;
                }
            }

            if !progress {
                return removed;
            }
        }
    }
}

/// Counts how many literals of `target` (either phase) occur in the cover
/// of node `user`.
fn literal_uses(net: &Network, user: NodeId, target: NodeId) -> usize {
    let node = net.node(user);
    let Some(cover) = node.cover() else { return 0 };
    let Some(var) = node.fanins().iter().position(|&f| f == target) else {
        return 0;
    };
    cover
        .cubes()
        .iter()
        .filter(|c| {
            matches!(
                c.var_state(var),
                boolsubst_cube::VarState::Pos | boolsubst_cube::VarState::Neg
            )
        })
        .count()
}

/// Drops fanins whose variable never appears in the cover, compacting the
/// variable numbering.
fn prune_unused_fanins(fanins: Vec<NodeId>, cover: Cover) -> (Vec<NodeId>, Cover) {
    let support = cover.support();
    if support.len() == fanins.len() {
        return (fanins, cover);
    }
    let mut map = vec![0usize; fanins.len()];
    let mut new_fanins = Vec::with_capacity(support.len());
    for (new_idx, &v) in support.iter().enumerate() {
        map[v] = new_idx;
        new_fanins.push(fanins[v]);
    }
    let new_cover = cover.remapped(new_fanins.len(), &map);
    (new_fanins, new_cover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    /// f = g + c, g = ab — classic collapse.
    fn chain() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("chain");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("g");
        let f = net
            .add_node("f", vec![g, c], parse_sop(2, "a + b").expect("p"))
            .expect("f");
        net.add_output("f", f).expect("o");
        (net, g, f)
    }

    fn equivalent_on_all_inputs(x: &Network, y: &Network) -> bool {
        let n = x.inputs().len();
        assert_eq!(n, y.inputs().len());
        assert!(n <= 16);
        let mut sx = crate::net::EvalScratch::default();
        let mut sy = crate::net::EvalScratch::default();
        for m in 0u32..(1 << n) {
            let inputs: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            if x.eval_outputs_into(&inputs, &mut sx) != y.eval_outputs_into(&inputs, &mut sy) {
                return false;
            }
        }
        true
    }

    #[test]
    fn collapse_positive_use() {
        let (mut net, g, f) = chain();
        let before = net.clone();
        net.collapse_into(g, f).expect("collapse");
        net.check_invariants();
        assert!(equivalent_on_all_inputs(&before, &net));
        // New fanins are [c, a, b]; functionally the node is ab + c.
        let fnode = net.node(f);
        let cover = fnode.cover().expect("cover");
        assert_eq!(cover.literal_count(), 3);
        assert_eq!(fnode.fanins().len(), 3);
    }

    #[test]
    fn collapse_negative_use_takes_complement() {
        let mut net = Network::new("neg");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("g");
        let f = net
            .add_node("f", vec![g], parse_sop(1, "a'").expect("p"))
            .expect("f");
        net.add_output("f", f).expect("o");
        let before = net.clone();
        net.collapse_into(g, f).expect("collapse");
        net.check_invariants();
        assert!(equivalent_on_all_inputs(&before, &net));
        // f = (ab)' = a' + b'
        let c = net.node(f).cover().expect("cover");
        assert!(c.equivalent(&parse_sop(2, "a' + b'").expect("p")));
    }

    #[test]
    fn eliminate_zero_collapses_single_use() {
        let (mut net, ..) = chain();
        let before = net.clone();
        let k = net.eliminate(0);
        assert_eq!(k, 1);
        net.check_invariants();
        assert!(equivalent_on_all_inputs(&before, &net));
        assert_eq!(net.internal_ids().count(), 1);
    }

    #[test]
    fn eliminate_keeps_valuable_nodes() {
        // g = abc used three times: value = 3*3 - 3 - 3 = 3 > 0.
        let mut net = Network::new("keep");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let d = net.add_input("d").expect("d");
        let e = net.add_input("e").expect("e");
        let g = net
            .add_node("g", vec![a, b, c], parse_sop(3, "abc").expect("p"))
            .expect("g");
        for (i, x) in [d, e, a].iter().enumerate() {
            let name = format!("f{i}");
            let f = net
                .add_node(&name, vec![g, *x], parse_sop(2, "ab + a'b'").expect("p"))
                .expect("f");
            net.add_output(&name, f).expect("o");
        }
        let k = net.eliminate(0);
        assert_eq!(k, 0);
        assert!(net.find("g").is_some());
    }

    #[test]
    fn sweep_removes_buffers_and_dead_nodes() {
        let mut net = Network::new("sweep");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let buf = net
            .add_node("buf", vec![a], parse_sop(1, "a").expect("p"))
            .expect("buf");
        let inv = net
            .add_node("inv", vec![b], parse_sop(1, "a'").expect("p"))
            .expect("inv");
        let f = net
            .add_node("f", vec![buf, inv], parse_sop(2, "ab").expect("p"))
            .expect("f");
        let _dead = net
            .add_node("dead", vec![a, b], parse_sop(2, "a + b").expect("p"))
            .expect("dead");
        net.add_output("f", f).expect("o");
        let before = net.clone();
        let removed = net.sweep();
        assert_eq!(removed, 3);
        net.check_invariants();
        assert!(equivalent_on_all_inputs(&before, &net));
        // f is now ab' directly over the PIs.
        let c = net.node(f).cover().expect("cover");
        assert!(c.equivalent(&parse_sop(2, "ab'").expect("p")));
    }

    #[test]
    fn prune_unused_fanin() {
        let mut net = Network::new("prune");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        // f ignores b.
        let f = net
            .add_node("f", vec![a, b], parse_sop(2, "a").expect("p"))
            .expect("f");
        net.add_output("f", f).expect("o");
        net.sweep();
        // After sweeping, f should have been reduced to a single-input node
        // and then collapsed... but f is an output so it stays; its fanins
        // shrink to just `a`.
        assert_eq!(net.node(f).fanins().len(), 1);
        net.check_invariants();
    }
}
