//! Per-node signature table with version-checked incremental re-simulation.

use crate::pool::PatternPool;
use boolsubst_cube::Phase;
use boolsubst_network::{Network, NodeId, SideTables, VersionStamp};
use std::collections::{BTreeSet, HashMap};

/// Dense table of simulation signatures, one `words`-wide row per
/// [`NodeId::index`].
///
/// Maintenance mirrors [`SideTables`]: the table is built once per sweep
/// session and *patched* after each accepted edit ([`SimTable::patch`]
/// re-simulates only the invalidated cone, in level order, stopping where
/// signatures come out unchanged). Every query goes through the shared
/// [`VersionStamp`], so a stale read is a panic, not a wrong filter
/// decision.
#[derive(Debug, Clone)]
pub struct SimTable {
    stamp: VersionStamp,
    words: usize,
    sigs: Vec<u64>,
    /// Position of each primary input in `Network::inputs()` order.
    input_pos: HashMap<NodeId, usize>,
}

impl SimTable {
    /// Simulates the whole network over the pool's patterns.
    #[must_use]
    pub fn build(net: &Network, pool: &PatternPool) -> SimTable {
        let words = pool.words();
        let mut table = SimTable {
            stamp: VersionStamp::new(net),
            words,
            sigs: vec![0; net.id_bound() * words],
            input_pos: net
                .inputs()
                .iter()
                .enumerate()
                .map(|(k, &id)| (id, k))
                .collect(),
        };
        for id in net.topo_order() {
            table.recompute(net, pool, id);
        }
        table
    }

    /// The signature row of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the table is stale.
    #[must_use]
    pub fn sig(&self, net: &Network, id: NodeId) -> &[u64] {
        self.stamp.check(net, "SimTable");
        self.row(id)
    }

    fn row(&self, id: NodeId) -> &[u64] {
        &self.sigs[id.index() * self.words..(id.index() + 1) * self.words]
    }

    /// Word `w` of `id`'s signature derived from its fanins' cached rows
    /// (or the pool, for a primary input).
    fn derive(&self, net: &Network, pool: &PatternPool, id: NodeId, w: usize) -> u64 {
        let node = net.node(id);
        let Some(cover) = node.cover() else {
            return pool.input_sig(self.input_pos[&id])[w];
        };
        let fanins = node.fanins();
        let mut or = 0u64;
        for cube in cover.cubes() {
            // Starting from the validity mask keeps bits beyond the pool
            // zero even through complemented literals.
            let mut acc = pool.mask(w);
            for lit in cube.lits() {
                let s = self.sigs[fanins[lit.var].index() * self.words + w];
                acc &= match lit.phase {
                    Phase::Pos => s,
                    Phase::Neg => !s,
                };
                if acc == 0 {
                    break;
                }
            }
            or |= acc;
        }
        or
    }

    /// Recomputes `id`'s signature from its fanins' current rows; returns
    /// true if any word changed.
    fn recompute(&mut self, net: &Network, pool: &PatternPool, id: NodeId) -> bool {
        let base = id.index() * self.words;
        let mut changed = false;
        for w in 0..self.words {
            let v = self.derive(net, pool, id, w);
            if self.sigs[base + w] != v {
                self.sigs[base + w] = v;
                changed = true;
            }
        }
        changed
    }

    /// Integrity audit: re-derives `id`'s signature from its fanins'
    /// cached rows (or the pool, for a primary input) and compares it with
    /// the stored row, without mutating the table. Returns false when the
    /// cached row has rotted — the checked engine's defence against silent
    /// signature corruption, which the version stamp cannot see.
    ///
    /// # Panics
    ///
    /// Panics if the table is stale.
    #[must_use]
    pub fn audit(&self, net: &Network, pool: &PatternPool, id: NodeId) -> bool {
        self.stamp.check(net, "SimTable");
        let row = self.row(id);
        (0..self.words).all(|w| row[w] == self.derive(net, pool, id, w))
    }

    /// Flips one in-pool bit of `id`'s cached signature row — fault
    /// injection for the chaos suite. The version stamp is deliberately
    /// left untouched: this is exactly the silent cache rot
    /// [`SimTable::audit`] exists to catch.
    #[cfg(feature = "chaos")]
    pub fn chaos_poison(&mut self, id: NodeId, pattern: usize) {
        let base = id.index() * self.words;
        self.sigs[base + pattern / 64] ^= 1u64 << (pattern % 64);
    }

    /// Patches the table after an engine edit: extends it over freshly
    /// created nodes and re-simulates the cone downstream of `seeds` (the
    /// rewired nodes) in level order, pruning wherever a recomputed
    /// signature is unchanged. `side` must already be synchronised with
    /// the network.
    pub fn patch(
        &mut self,
        net: &Network,
        side: &SideTables,
        pool: &PatternPool,
        seeds: &[NodeId],
    ) {
        let old_bound = self.sigs.len() / self.words;
        if net.id_bound() > old_bound {
            self.sigs.resize(net.id_bound() * self.words, 0);
        }
        // (level, id) ordering guarantees every fanin is final before a
        // node is popped: insertions only ever target strictly higher
        // levels than the node being processed.
        let mut work: BTreeSet<(u32, NodeId)> = BTreeSet::new();
        for id in net.node_ids_from(old_bound) {
            work.insert((side.level(net, id), id));
        }
        for &s in seeds {
            if net.node_opt(s).is_some() {
                work.insert((side.level(net, s), s));
            }
        }
        while let Some((_, id)) = work.pop_first() {
            // A fresh node's row starts as a zero placeholder, so an
            // unchanged verdict says nothing about its fanouts: they are
            // always revisited.
            if self.recompute(net, pool, id) || id.index() >= old_bound {
                for &o in side.fanouts(net, id) {
                    work.insert((side.level(net, o), o));
                }
            }
        }
        self.stamp.mark(net);
    }

    /// True if no edit has happened since the last synchronisation.
    #[must_use]
    pub fn is_synced(&self, net: &Network) -> bool {
        self.stamp.is_synced(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;
    use boolsubst_network::EvalScratch;

    fn sample() -> Network {
        let mut net = Network::new("t");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("g");
        let h = net
            .add_node("h", vec![g, c], parse_sop(2, "a + b'").expect("p"))
            .expect("h");
        net.add_output("h", h).expect("o");
        net
    }

    /// Every signature bit must equal a scalar evaluation of the node on
    /// the corresponding pool pattern.
    fn assert_matches_eval(net: &Network, pool: &PatternPool, table: &SimTable) {
        let n = net.inputs().len();
        let mut scratch = EvalScratch::default();
        for m in 0..pool.patterns() {
            let inputs: Vec<bool> = (0..n)
                .map(|k| (pool.input_sig(k)[m / 64] >> (m % 64)) & 1 == 1)
                .collect();
            let values = net.eval_into(&inputs, &mut scratch).to_vec();
            for id in net.node_ids() {
                let bit = (table.sig(net, id)[m / 64] >> (m % 64)) & 1 == 1;
                assert_eq!(bit, values[id.index()], "node {id} pattern {m}");
            }
        }
    }

    #[test]
    fn build_matches_scalar_eval() {
        let net = sample();
        for pool in [PatternPool::random(3, 2, 0, 99), PatternPool::exhaustive(3)] {
            let table = SimTable::build(&net, &pool);
            assert_matches_eval(&net, &pool, &table);
        }
    }

    #[test]
    fn patch_matches_rebuild() {
        let mut net = sample();
        let pool = PatternPool::exhaustive(3);
        let mut side = SideTables::build(&net);
        let mut table = SimTable::build(&net, &pool);
        // Rewire h from (g, c) to (a, c) and add a new node, the way an
        // accepted substitution would.
        let a = net.inputs()[0];
        let c = net.inputs()[2];
        let h = *net
            .internal_ids()
            .collect::<Vec<_>>()
            .last()
            .expect("internal");
        let m = net
            .add_node("m", vec![a, c], parse_sop(2, "ab'").expect("p"))
            .expect("m");
        let old = net.node(h).fanins().to_vec();
        net.replace_function(h, vec![m, c], parse_sop(2, "a + b").expect("p"))
            .expect("replace");
        side.sync_new_nodes(&net);
        side.apply_replace(&net, h, &old);
        table.patch(&net, &side, &pool, &[h]);
        assert_matches_eval(&net, &pool, &table);
        let rebuilt = SimTable::build(&net, &pool);
        for id in net.node_ids() {
            assert_eq!(table.sig(&net, id), rebuilt.sig(&net, id), "node {id}");
        }
    }

    #[test]
    fn stale_query_panics() {
        let mut net = sample();
        let pool = PatternPool::exhaustive(3);
        let table = SimTable::build(&net, &pool);
        let a = net.inputs()[0];
        let g = net.internal_ids().next().expect("internal");
        net.replace_function(g, vec![a], parse_sop(1, "a'").expect("p"))
            .expect("replace");
        let result = std::panic::catch_unwind(|| table.sig(&net, a).len());
        assert!(result.is_err(), "stale sig query must panic");
    }

    #[test]
    fn audit_accepts_healthy_rows() {
        let net = sample();
        for pool in [PatternPool::random(3, 2, 0, 7), PatternPool::exhaustive(3)] {
            let table = SimTable::build(&net, &pool);
            for id in net.node_ids() {
                assert!(table.audit(&net, &pool, id), "healthy row flagged: {id}");
            }
        }
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn audit_detects_poisoned_row() {
        let net = sample();
        let pool = PatternPool::exhaustive(3);
        let mut table = SimTable::build(&net, &pool);
        let g = net.internal_ids().next().expect("internal");
        assert!(table.audit(&net, &pool, g));
        table.chaos_poison(g, 3);
        assert!(!table.audit(&net, &pool, g), "poisoned row must be caught");
        assert!(
            table.is_synced(&net),
            "poison must be invisible to the version stamp"
        );
    }
}
