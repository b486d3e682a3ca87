//! Signature-class buckets for simulation-guided divisor discovery
//! ("sim-resub", arXiv 2007.02579).
//!
//! Every internal node's masked signature row is reduced to a *canonical
//! form* — the row is complemented wholesale when its first in-pool bit is
//! set — so a function and its complement hash to the same key. Two hash
//! keys are derived per node:
//!
//! * the **equality key** over the full canonical row: nodes sharing it
//!   are (modulo hash collisions) equal or complementary on every pool
//!   pattern — prime divisor candidates;
//! * the **truncated key** over the canonical first word only: a coarser
//!   bucket inside which full-row subset tests find containment-related
//!   candidates (`t ⊆ o`, `o ⊆ t`, disjointness, and covering) without an
//!   all-pairs scan.
//!
//! The index is a pure accelerator: collisions and misses only change
//! *which* pairs get proposed, never what the division proof accepts. It
//! participates in the same invalidation discipline as [`SimTable`]: it
//! records the network version it was built against, is patched
//! incrementally from the changed-row list [`SimTable::patch`] returns,
//! and falls back to a full rebuild whenever the recorded state cannot be
//! proven current (a foreign edit such as a rollback).
//!
//! [`SimTable`]: crate::SimTable
//! [`SimTable::patch`]: crate::SimTable::patch

use std::collections::HashMap;

use boolsubst_network::{Network, NodeId};

use crate::SimFilter;

/// Divisor candidates proposed for one target, plus the funnel counter.
#[derive(Debug, Clone, Default)]
pub struct Proposal {
    /// Proposed divisor ids, sorted and deduplicated.
    pub divisors: Vec<NodeId>,
    /// Bucket members scanned to produce the proposal (equality-class
    /// peers plus truncated-bucket peers subjected to subset tests).
    pub bucket_hits: usize,
}

/// At most this many containment candidates are collected per target from
/// the truncated bucket, and at most this many equality-class peers per
/// call. Keeps a degenerate class (constant-heavy netlists, multiplier
/// partial-product arrays) from re-creating the all-pairs scan this index
/// exists to avoid: a class of `c` members costs `O(c · CAP)` proposals
/// across the sweep instead of `O(c²)`. The `cursor` resume protocol
/// still reaches every peer eventually — each re-enumeration after an
/// acceptance collects the next `CAP` past the cursor.
const CLASS_CAP: usize = 64;

/// True when the two nodes' signature rows stand in at least one of the
/// four phase relations divisor discovery cares about — `t ⊆ o`, `o ⊆ t`,
/// disjointness (`t ⊆ !o`) or covering (`!o ⊆ t`) — on every in-pool
/// pattern. Equality and complement are the two-sided special cases, so a
/// pair passing none of the tests is witnessed non-substitutable by the
/// pool and not worth a division proof as-is. [`SignatureBuckets::propose`]
/// applies this inside truncated buckets; it is exported for any caller
/// wanting the same whole-row compatibility check.
#[must_use]
pub fn sig_compatible(net: &Network, filter: &SimFilter, target: NodeId, other: NodeId) -> bool {
    let t_sig = filter.node_sig(net, target);
    let o_sig = filter.node_sig(net, other);
    let pool = filter.pool();
    let mut sub_to = true; // t & !o == 0
    let mut sub_from = true; // o & !t == 0
    let mut disjoint = true; // t & o == 0
    let mut covering = true; // !t & !o == 0
    for (w, (&t, &o)) in t_sig.iter().zip(o_sig.iter()).enumerate() {
        let m = pool.mask(w);
        sub_to &= t & !o & m == 0;
        sub_from &= o & !t & m == 0;
        disjoint &= t & o & m == 0;
        covering &= !t & !o & m == 0;
        if !(sub_to || sub_from || disjoint || covering) {
            return false;
        }
    }
    sub_to || sub_from || disjoint || covering
}

fn mix(mut h: u64, w: u64) -> u64 {
    h ^= w;
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 32;
    h.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

const EQ_SEED: u64 = 0x5167_C1A5_5E5B_0001;
const TRUNC_SEED: u64 = 0x5167_C1A5_5E5B_0002;

/// Hash index of per-node signature classes (see the module docs).
///
/// Build or refresh with [`SignatureBuckets::ensure`], carry across an
/// accepted edit with [`SignatureBuckets::apply_commit`], query with
/// [`SignatureBuckets::propose`], and audit with
/// [`SignatureBuckets::matches_rebuild`]. Every method must be handed the
/// same [`SimFilter`]: the index records only the network version, which
/// proves it current for one fixed pattern pool.
#[derive(Debug, Default)]
pub struct SignatureBuckets {
    /// Network version the index matches; `None` until first built.
    version: Option<u64>,
    /// Equality key → member ids, each vec sorted.
    eq: HashMap<u64, Vec<NodeId>>,
    /// Truncated key → member ids, each vec sorted.
    trunc: HashMap<u64, Vec<NodeId>>,
    /// Member → its (equality, truncated) keys, for O(1) re-keying.
    membership: HashMap<NodeId, (u64, u64)>,
    /// Full rebuilds performed (first build included).
    rebuilds: usize,
}

impl SignatureBuckets {
    /// An empty index; the first [`SignatureBuckets::ensure`] builds it.
    #[must_use]
    pub fn new() -> SignatureBuckets {
        SignatureBuckets::default()
    }

    /// Number of indexed nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.membership.len()
    }

    /// True when no nodes are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.membership.is_empty()
    }

    /// Full rebuilds performed so far (the first build counts).
    #[must_use]
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// True when the index provably matches `net`.
    #[must_use]
    pub fn is_current(&self, net: &Network) -> bool {
        self.version == Some(net.version())
    }

    /// Canonical (equality, truncated) keys for one node's signature.
    fn keys(&self, net: &Network, filter: &SimFilter, id: NodeId) -> (u64, u64) {
        let sig = filter.node_sig(net, id);
        let pool = filter.pool();
        // Canonical form: complement the whole row iff its first in-pool
        // bit is set, so `f` and `!f` produce identical keys.
        let mut flip = false;
        for (w, &s) in sig.iter().enumerate() {
            let m = pool.mask(w);
            if m != 0 {
                flip = s & (m & m.wrapping_neg()) != 0;
                break;
            }
        }
        let mut eq = EQ_SEED;
        let mut trunc = TRUNC_SEED;
        for (w, &s) in sig.iter().enumerate() {
            let m = pool.mask(w);
            let canon = if flip { !s & m } else { s & m };
            eq = mix(eq, canon);
            if w == 0 {
                trunc = mix(trunc, canon);
            }
        }
        (eq, trunc)
    }

    fn insert(&mut self, id: NodeId, keys: (u64, u64)) {
        let (eq, trunc) = keys;
        let v = self.eq.entry(eq).or_default();
        if let Err(pos) = v.binary_search(&id) {
            v.insert(pos, id);
        }
        let v = self.trunc.entry(trunc).or_default();
        if let Err(pos) = v.binary_search(&id) {
            v.insert(pos, id);
        }
        self.membership.insert(id, keys);
    }

    fn remove(&mut self, id: NodeId) {
        let Some((eq, trunc)) = self.membership.remove(&id) else {
            return;
        };
        for (map, key) in [(&mut self.eq, eq), (&mut self.trunc, trunc)] {
            if let Some(v) = map.get_mut(&key) {
                if let Ok(pos) = v.binary_search(&id) {
                    v.remove(pos);
                }
                if v.is_empty() {
                    map.remove(&key);
                }
            }
        }
    }

    fn rebuild(&mut self, net: &Network, filter: &SimFilter) {
        self.eq.clear();
        self.trunc.clear();
        self.membership.clear();
        for id in net.internal_ids() {
            let keys = self.keys(net, filter, id);
            self.insert(id, keys);
        }
        self.version = Some(net.version());
        self.rebuilds += 1;
    }

    /// Brings the index up to date by rebuilding unless it provably
    /// matches the current network. The cheap path across an accepted
    /// edit is [`SignatureBuckets::apply_commit`]; `ensure` is the
    /// catch-all for first use and foreign edits (rollbacks) the caller
    /// has no changed-row list for.
    ///
    /// # Panics
    ///
    /// Panics if the filter's table is stale relative to `net`.
    pub fn ensure(&mut self, net: &Network, filter: &SimFilter) {
        if !self.is_current(net) {
            self.rebuild(net, filter);
        }
    }

    /// Incrementally carries the index across one committed edit.
    /// `pre_version` is the network version before the edit and `changed`
    /// the changed-row list [`crate::SimFilter::patch`] returned for it —
    /// possibly empty, since a substitution preserves the target's
    /// function and often no signature moves at all. If the index was not
    /// exactly at `pre_version` (a rollback intervened), it rebuilds
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the filter's table is stale relative to `net`.
    pub fn apply_commit(
        &mut self,
        net: &Network,
        filter: &SimFilter,
        pre_version: u64,
        changed: &[NodeId],
    ) {
        if self.is_current(net) {
            return;
        }
        if self.version != Some(pre_version) {
            self.rebuild(net, filter);
            return;
        }
        for &id in changed {
            self.remove(id);
            if net.node_opt(id).is_some_and(|n| !n.is_input()) {
                let keys = self.keys(net, filter, id);
                self.insert(id, keys);
            }
        }
        self.version = Some(net.version());
    }

    /// Proposes divisor candidates for `target`: its equality-class peers,
    /// plus truncated-bucket peers passing [`sig_compatible`]'s full-row
    /// subset test (each capped at `CLASS_CAP` per call).
    /// Only live internal nodes with `id.index() < bound` and, when
    /// `cursor` is set, `id > cursor` are returned — the same eligibility
    /// window the overlap enumerator applies.
    ///
    /// # Panics
    ///
    /// Panics if the index is not current for `net` (call
    /// [`SignatureBuckets::ensure`] first).
    #[must_use]
    pub fn propose(
        &self,
        net: &Network,
        filter: &SimFilter,
        target: NodeId,
        bound: usize,
        cursor: Option<NodeId>,
    ) -> Proposal {
        assert!(
            self.is_current(net),
            "SignatureBuckets: sync() before propose()"
        );
        let mut out = Proposal::default();
        let Some(&(eq_key, trunc_key)) = self.membership.get(&target) else {
            return out;
        };
        let eligible = |o: NodeId| {
            o != target
                && o.index() < bound
                && cursor.is_none_or(|c| o > c)
                && net.node_opt(o).is_some()
        };
        if let Some(members) = self.eq.get(&eq_key) {
            let mut collected = 0usize;
            for &o in members {
                if collected >= CLASS_CAP {
                    break;
                }
                if o != target {
                    out.bucket_hits += 1;
                    if eligible(o) {
                        out.divisors.push(o);
                        collected += 1;
                    }
                }
            }
        }
        let mut collected = 0usize;
        if let Some(members) = self.trunc.get(&trunc_key) {
            for &o in members {
                if collected >= CLASS_CAP {
                    break;
                }
                if o == target || !eligible(o) {
                    continue;
                }
                out.bucket_hits += 1;
                if sig_compatible(net, filter, target, o) {
                    out.divisors.push(o);
                    collected += 1;
                }
            }
        }
        out.divisors.sort_unstable();
        out.divisors.dedup();
        out
    }

    /// Spot-checks the named rows against freshly computed keys: each live
    /// internal node must be filed under exactly the keys its current
    /// signature hashes to, and each dead or input id must be absent. On
    /// the first mismatch the whole index is rebuilt (self-repair) and
    /// `false` is returned so the caller can book the fault. Cost is
    /// proportional to `rows`, mirroring [`SimFilter::audit`] — the full
    /// [`SignatureBuckets::matches_rebuild`] sweep is for tests.
    pub fn audit_rows(&mut self, net: &Network, filter: &SimFilter, rows: &[NodeId]) -> bool {
        let ok = self.is_current(net)
            && rows.iter().all(|&id| {
                let live = net.node_opt(id).is_some_and(|n| !n.is_input());
                match self.membership.get(&id) {
                    Some(&(eq, trunc)) => {
                        live && {
                            let fresh = self.keys(net, filter, id);
                            fresh == (eq, trunc)
                                && self
                                    .eq
                                    .get(&eq)
                                    .is_some_and(|v| v.binary_search(&id).is_ok())
                                && self
                                    .trunc
                                    .get(&trunc)
                                    .is_some_and(|v| v.binary_search(&id).is_ok())
                        }
                    }
                    None => !live,
                }
            });
        if !ok {
            self.rebuild(net, filter);
        }
        ok
    }

    /// Compares this incrementally-maintained index against a from-scratch
    /// rebuild; `false` means the incremental protocol lost sync (the
    /// caller should rebuild and treat it as a fault).
    #[must_use]
    pub fn matches_rebuild(&self, net: &Network, filter: &SimFilter) -> bool {
        if !self.is_current(net) {
            return false;
        }
        let mut fresh = SignatureBuckets::new();
        fresh.rebuild(net, filter);
        self.membership == fresh.membership && self.eq == fresh.eq && self.trunc == fresh.trunc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use boolsubst_cube::parse_sop;
    use boolsubst_network::SideTables;

    fn propose_for(
        buckets: &SignatureBuckets,
        net: &Network,
        filter: &SimFilter,
        target: NodeId,
    ) -> Proposal {
        buckets.propose(net, filter, target, net.id_bound(), None)
    }

    /// `f` and `!f` must land in the same equality class: the canonical
    /// form complements away the phase.
    #[test]
    fn complement_shares_equality_class() {
        let mut net = Network::new("t");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let f = net
            .add_node("f", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("f");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "a' + b'").expect("p"))
            .expect("g");
        net.add_output("f", f).expect("o");
        net.add_output("g", g).expect("o");
        let filter = SimFilter::new(&net, &SimConfig::exhaustive());
        let mut buckets = SignatureBuckets::new();
        buckets.ensure(&net, &filter);
        let p = propose_for(&buckets, &net, &filter, f);
        assert!(p.divisors.contains(&g), "complement not proposed: {p:?}");
        assert!(p.bucket_hits > 0);
    }

    /// Containment detection across words: `t = g & !x6` agrees with `g`
    /// on every pattern with `x6 = 0` (the whole first word of an
    /// exhaustive 7-input pool), so they share a truncated bucket, and the
    /// full-row subset test finds `t ⊆ g`.
    #[test]
    fn containment_is_proposed_within_truncated_bucket() {
        let mut net = Network::new("t");
        let inputs: Vec<NodeId> = (0..7)
            .map(|i| net.add_input(format!("x{i}")).expect("input"))
            .collect();
        let g = net
            .add_node(
                "g",
                vec![inputs[0], inputs[1]],
                parse_sop(2, "ab").expect("p"),
            )
            .expect("g");
        let t = net
            .add_node("t", vec![g, inputs[6]], parse_sop(2, "ab'").expect("p"))
            .expect("t");
        net.add_output("g", g).expect("o");
        net.add_output("t", t).expect("o");
        let filter = SimFilter::new(&net, &SimConfig::exhaustive());
        let mut buckets = SignatureBuckets::new();
        buckets.ensure(&net, &filter);
        let p = propose_for(&buckets, &net, &filter, t);
        assert!(p.divisors.contains(&g), "contained divisor missing: {p:?}");
    }

    /// Incremental re-keying from the changed-row list must land on the
    /// same index a from-scratch rebuild produces.
    #[test]
    fn incremental_sync_matches_rebuild() {
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
        let mut side = SideTables::build(&net);
        let mut filter = SimFilter::new(&net, &SimConfig::exhaustive());
        let mut buckets = SignatureBuckets::new();
        buckets.ensure(&net, &filter);
        assert_eq!(buckets.rebuilds(), 1);
        // Rewire h and add a new node, the way an accepted substitution
        // would, then sync from the patch's changed-row list alone.
        let pre_version = net.version();
        let m = net
            .add_node("m", vec![a, c], parse_sop(2, "ab'").expect("p"))
            .expect("m");
        let old = net.node(h).fanins().to_vec();
        net.replace_function(h, vec![m, c], parse_sop(2, "a + b").expect("p"))
            .expect("replace");
        side.sync_new_nodes(&net);
        side.apply_replace(&net, h, &old);
        let changed = filter.patch(&net, &side, &[h]);
        assert!(changed.contains(&m), "fresh node must be in changed list");
        buckets.apply_commit(&net, &filter, pre_version, &changed);
        assert_eq!(buckets.rebuilds(), 1, "commit must have been incremental");
        assert!(buckets.matches_rebuild(&net, &filter));
    }
}
