//! Incrementally maintained structural side tables for sweep sessions.
//!
//! [`Network`] answers structural queries (`fanouts`, `tfo`, `topo_order`)
//! by recomputing them from scratch — fine for one-shot calls, quadratic
//! when a substitution sweep asks them once per candidate pair. A
//! [`SideTables`] instance is built once per session and then *patched*
//! after each accepted edit instead of rebuilt:
//!
//! - **fanout lists** are updated edge-by-edge from the fanin diff;
//! - **levels** (longest path from the inputs) are repaired with a
//!   worklist that only visits the region whose level actually changed;
//! - **transitive-fanout membership** is not cached at all: the level
//!   table bounds a backward walk from the candidate node, so
//!   [`SideTables::in_tfo`] only visits nodes between the two levels and
//!   there is nothing to invalidate after an edit.
//!
//! Staleness is a real hazard for this kind of cache, so every query
//! asserts that the tables were synchronised with the network's current
//! [`Network::version`]. Forgetting to call [`SideTables::sync_new_nodes`]
//! / [`SideTables::apply_replace`] after an edit is a panic, not a wrong
//! answer.

use crate::net::{Network, NodeId};
use std::collections::HashSet;

/// The version-checked synchronisation stamp shared by every incremental
/// side structure ([`SideTables`], the simulation signature table in
/// `boolsubst-sim`, ...).
///
/// A stamp records the [`Network::version`] its owner was last
/// synchronised with. Queries call [`VersionStamp::check`] so that a
/// forgotten patch is a panic instead of a silently wrong answer; patch
/// routines call [`VersionStamp::mark`] once the owner is up to date.
#[derive(Debug, Clone, Copy)]
pub struct VersionStamp {
    synced: u64,
}

impl VersionStamp {
    /// A stamp synchronised with the network's current state.
    #[must_use]
    pub fn new(net: &Network) -> VersionStamp {
        VersionStamp {
            synced: net.version(),
        }
    }

    /// True if no edit has happened since the last [`VersionStamp::mark`].
    #[must_use]
    pub fn is_synced(&self, net: &Network) -> bool {
        self.synced == net.version()
    }

    /// Asserts freshness; `what` names the owning structure in the panic.
    ///
    /// # Panics
    ///
    /// Panics if the network was edited since the last synchronisation.
    pub fn check(&self, net: &Network, what: &str) {
        assert_eq!(
            self.synced,
            net.version(),
            "{what} out of sync: network was edited without patching"
        );
    }

    /// Records that the owner is synchronised with the current version.
    pub fn mark(&mut self, net: &Network) {
        self.synced = net.version();
    }
}

/// Session-lifetime tables of fanouts and levels.
///
/// See the module docs for the maintenance contract. All dense tables are
/// indexed by [`NodeId::index`].
#[derive(Debug, Clone)]
pub struct SideTables {
    /// Stamp recording the `Network::version` these tables reflect.
    stamp: VersionStamp,
    fanouts: Vec<Vec<NodeId>>,
    levels: Vec<u32>,
}

// The parallel sweep shares `&SideTables` (and `&Network`) across worker
// threads; neither type may grow interior mutability without revisiting
// that design. Compile-time pin:
const _: fn() = || {
    fn sync_only<T: Sync>() {}
    sync_only::<SideTables>();
    sync_only::<Network>();
};

impl SideTables {
    /// Builds the tables from scratch for the network's current state.
    #[must_use]
    pub fn build(net: &Network) -> SideTables {
        let fanouts = net.fanouts();
        let levels = compute_levels(net, &fanouts);
        SideTables {
            stamp: VersionStamp::new(net),
            fanouts,
            levels,
        }
    }

    fn assert_synced(&self, net: &Network) {
        self.stamp.check(net, "SideTables");
    }

    /// True if no edit has happened since the last synchronisation.
    #[must_use]
    pub fn is_synced(&self, net: &Network) -> bool {
        self.stamp.is_synced(net)
    }

    /// Fanout list of `id` (nodes that list `id` as a fanin).
    ///
    /// # Panics
    ///
    /// Panics if the tables are stale.
    #[must_use]
    pub fn fanouts(&self, net: &Network, id: NodeId) -> &[NodeId] {
        self.assert_synced(net);
        &self.fanouts[id.index()]
    }

    /// Longest-path depth of `id` from the primary inputs (inputs and
    /// constant nodes are level 0). Along every edge `u -> v`,
    /// `level(u) < level(v)`, so `level(d) <= level(t)` proves `d` is not
    /// in the transitive fanout of `t`.
    ///
    /// # Panics
    ///
    /// Panics if the tables are stale.
    #[must_use]
    pub fn level(&self, net: &Network, id: NodeId) -> u32 {
        self.assert_synced(net);
        self.levels[id.index()]
    }

    /// Transitive fanout of `of` (excluding `of` itself), walked over the
    /// maintained fanout lists. Not cached: its one engine caller keeps
    /// the snapshot it builds from the set per network version.
    ///
    /// # Panics
    ///
    /// Panics if the tables are stale.
    #[must_use]
    pub fn tfo(&self, net: &Network, of: NodeId) -> HashSet<NodeId> {
        self.assert_synced(net);
        let mut seen = HashSet::new();
        let mut stack: Vec<NodeId> = self.fanouts[of.index()].clone();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(self.fanouts[n.index()].iter().copied());
            }
        }
        seen
    }

    /// True if `node` lies in the transitive fanout of `of`.
    ///
    /// Walks backward from `node` over fanins and prunes every node whose
    /// level is at or below `level(of)`: levels rise along every edge, so
    /// such a node cannot have `of` in its fanin cone. The answer is
    /// exact, and the walk only visits nodes strictly between the two
    /// levels, whatever the size of the network.
    ///
    /// # Panics
    ///
    /// Panics if the tables are stale.
    #[must_use]
    pub fn in_tfo(&self, net: &Network, node: NodeId, of: NodeId) -> bool {
        self.assert_synced(net);
        let floor = self.levels[of.index()];
        if self.levels[node.index()] <= floor {
            return false;
        }
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            for &f in net.node(n).fanins() {
                if f == of {
                    return true;
                }
                if self.levels[f.index()] > floor && seen.insert(f) {
                    stack.push(f);
                }
            }
        }
        false
    }

    /// Extends the tables over nodes created since the last
    /// synchronisation (ids at or past the previous bound). Must be called
    /// before [`SideTables::apply_replace`] when an edit both adds nodes
    /// and rewires an existing one.
    pub fn sync_new_nodes(&mut self, net: &Network) {
        let old_bound = self.fanouts.len();
        if net.id_bound() == old_bound {
            self.stamp.mark(net);
            return;
        }
        self.fanouts.resize(net.id_bound(), Vec::new());
        self.levels.resize(net.id_bound(), 0);
        for idx in old_bound..net.id_bound() {
            let id = NodeId(idx);
            let Some(node) = net.node_opt(id) else {
                continue;
            };
            for &f in node.fanins() {
                self.fanouts[f.index()].push(id);
            }
            // Fanins of a fresh node already exist, so its level is final.
            self.levels[idx] = node
                .fanins()
                .iter()
                .map(|f| self.levels[f.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        self.stamp.mark(net);
    }

    /// Patches the tables after `net.replace_function(id, ...)` succeeded.
    /// `old_fanins` is the fanin list captured *before* the edit.
    ///
    /// Repairs fanout lists from the fanin diff and relevels the affected
    /// downstream region.
    pub fn apply_replace(&mut self, net: &Network, id: NodeId, old_fanins: &[NodeId]) {
        let new_fanins = net.node(id).fanins();
        for &f in old_fanins {
            if !new_fanins.contains(&f) {
                self.fanouts[f.index()].retain(|&o| o != id);
            }
        }
        for &f in new_fanins {
            if !old_fanins.contains(&f) {
                self.fanouts[f.index()].push(id);
            }
        }
        // Relevel: only nodes whose level actually changes propagate.
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = net.node(n);
            let lvl = node
                .fanins()
                .iter()
                .map(|f| self.levels[f.index()] + 1)
                .max()
                .unwrap_or(0);
            if self.levels[n.index()] != lvl {
                self.levels[n.index()] = lvl;
                stack.extend(self.fanouts[n.index()].iter().copied());
            }
        }
        self.stamp.mark(net);
    }

    /// Patches the tables after `net.remove_node(id)` succeeded. The node
    /// had no fanouts, so only its fanins' fanout lists shrink; no other
    /// node's level changes.
    pub fn apply_remove(&mut self, net: &Network, id: NodeId, old_fanins: &[NodeId]) {
        for &f in old_fanins {
            self.fanouts[f.index()].retain(|&o| o != id);
        }
        self.stamp.mark(net);
    }
}

/// Longest-path levels via one pass over a topological order.
fn compute_levels(net: &Network, fanouts: &[Vec<NodeId>]) -> Vec<u32> {
    let mut levels = vec![0u32; net.id_bound()];
    let mut indegree = vec![0usize; net.id_bound()];
    let mut queue: Vec<NodeId> = Vec::new();
    for id in net.node_ids() {
        indegree[id.index()] = net.node(id).fanins().len();
        if indegree[id.index()] == 0 {
            queue.push(id);
        }
    }
    while let Some(id) = queue.pop() {
        for &o in &fanouts[id.index()] {
            let lvl = levels[id.index()] + 1;
            if lvl > levels[o.index()] {
                levels[o.index()] = lvl;
            }
            indegree[o.index()] -= 1;
            if indegree[o.index()] == 0 {
                queue.push(o);
            }
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    /// a, b, c inputs; g = ab; h = g + c; k = h·a.
    fn chain() -> (Network, Vec<NodeId>) {
        let mut net = Network::new("chain");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("g");
        let h = net
            .add_node("h", vec![g, c], parse_sop(2, "a + b").expect("p"))
            .expect("h");
        let k = net
            .add_node("k", vec![h, a], parse_sop(2, "ab").expect("p"))
            .expect("k");
        net.add_output("k", k).expect("out");
        (net, vec![a, b, c, g, h, k])
    }

    fn assert_matches_fresh(side: &SideTables, net: &Network) {
        let fresh = net.fanouts();
        for id in net.node_ids() {
            let mut got = side.fanouts(net, id).to_vec();
            let mut want = fresh[id.index()].clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "fanouts of {id}");
            let want_tfo: HashSet<NodeId> = net.tfo(id).into_iter().collect();
            assert_eq!(side.tfo(net, id), want_tfo, "tfo of {id}");
            for x in net.node_ids() {
                assert_eq!(
                    side.in_tfo(net, x, id),
                    want_tfo.contains(&x),
                    "in_tfo({x}, {id})"
                );
            }
        }
        // Level invariant: strictly increasing along every edge.
        for id in net.node_ids() {
            for &f in net.node(id).fanins() {
                assert!(
                    side.level(net, f) < side.level(net, id),
                    "level edge {f}->{id}"
                );
            }
        }
    }

    #[test]
    fn build_matches_recompute() {
        let (net, ids) = chain();
        let side = SideTables::build(&net);
        assert_matches_fresh(&side, &net);
        assert_eq!(side.level(&net, ids[0]), 0); // a
        assert_eq!(side.level(&net, ids[3]), 1); // g
        assert_eq!(side.level(&net, ids[4]), 2); // h
        assert_eq!(side.level(&net, ids[5]), 3); // k
    }

    #[test]
    fn stale_queries_panic() {
        let (mut net, ids) = chain();
        let side = SideTables::build(&net);
        net.replace_function(ids[3], vec![ids[0]], parse_sop(1, "a").expect("p"))
            .expect("replace");
        assert!(!side.is_synced(&net));
        let result = std::panic::catch_unwind(|| side.fanouts(&net, ids[0]).len());
        assert!(result.is_err(), "stale query must panic");
        let result = std::panic::catch_unwind(|| side.in_tfo(&net, ids[5], ids[3]));
        assert!(result.is_err(), "stale cycle check must panic");
    }

    #[test]
    fn apply_replace_matches_fresh_build() {
        let (mut net, ids) = chain();
        let (a, _b, c, g, h, _k) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let mut side = SideTables::build(&net);
        // Rewire h from {g, c} to {a, c}: drops edge g->h, adds a->h.
        let old = net.node(h).fanins().to_vec();
        net.replace_function(h, vec![a, c], parse_sop(2, "ab").expect("p"))
            .expect("replace");
        side.apply_replace(&net, h, &old);
        assert_matches_fresh(&side, &net);
        // g no longer reaches anything.
        assert!(side.tfo(&net, g).is_empty());
    }

    #[test]
    fn sync_new_nodes_extends_the_tables() {
        let (mut net, ids) = chain();
        let (a, b) = (ids[0], ids[1]);
        let mut side = SideTables::build(&net);
        let m = net
            .add_node("m", vec![a, b], parse_sop(2, "a + b").expect("p"))
            .expect("m");
        side.sync_new_nodes(&net);
        assert_matches_fresh(&side, &net);
        assert!(side.in_tfo(&net, m, a));
        assert_eq!(side.level(&net, m), 1);
    }

    #[test]
    fn apply_remove_matches_fresh_build() {
        let (mut net, ids) = chain();
        let (a, h, k) = (ids[0], ids[4], ids[5]);
        let mut side = SideTables::build(&net);
        // Detach k from the outputs is not possible; instead remove a
        // freshly added leaf node.
        let m = net
            .add_node("m", vec![a, h], parse_sop(2, "ab").expect("p"))
            .expect("m");
        side.sync_new_nodes(&net);
        let old = net.node(m).fanins().to_vec();
        net.remove_node(m).expect("remove");
        side.apply_remove(&net, m, &old);
        assert!(!side.fanouts(&net, a).contains(&m));
        assert!(!side.fanouts(&net, h).contains(&m));
        assert!(side.fanouts(&net, h).contains(&k));
        assert_matches_fresh(&side, &net);
    }
}
