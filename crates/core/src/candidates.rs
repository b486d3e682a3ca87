//! The divisor-discovery seam: [`CandidateSource`] and its two
//! implementations.
//!
//! Candidate enumeration used to be hard-wired into
//! [`crate::engine::SubstEngine`] as the support-overlap index. This
//! module extracts it behind a trait so a run can choose *how* divisors
//! are proposed — [`OverlapIndex`] reproduces the pre-redesign behaviour
//! bit-identically, while [`SignatureClasses`] proposes from the sim
//! filter's signature-class buckets ("sim-resub", arXiv 2007.02579) in a
//! near-linear pass. The strategy is selected with
//! [`crate::SubstOptions::with_discovery`]; the engine resolves
//! [`Discovery::Auto`] and the sim-filter requirement at session start
//! and reports the choice in [`crate::SubstStats::discovery`].
//!
//! # Contract
//!
//! A source only ever *proposes*; every proposed pair still runs the full
//! filter chain and division proof, so a wrong or missing proposal can
//! cost opportunity, never correctness. In exchange the engine promises:
//!
//! * [`CandidateSource::candidates`] is called with a sim filter (when
//!   one is attached) and a side table synchronised with the network;
//! * after every committed rewrite, [`CandidateSource::note_commit`] is
//!   called exactly once with the pre-commit network version and the
//!   changed signature rows, before the next `candidates` call;
//! * rollbacks (guard rejections, faults) get no notification — a source
//!   holding derived state must detect the version gap and rebuild, the
//!   same discipline [`boolsubst_sim::SimTable`] enforces with its
//!   version stamp.

use crate::subst::Discovery;
use boolsubst_network::{Network, NodeId, SideTables};
use boolsubst_sim::{SignatureBuckets, SimFilter};

/// The read-only engine state a source may consult while proposing.
///
/// Borrowed fresh for every call, so a source never holds references into
/// the engine across mutations.
pub struct SourceCtx<'a> {
    /// The network being swept.
    pub net: &'a Network,
    /// Maintained fanout lists and levels.
    pub side: &'a SideTables,
    /// The simulation filter, when [`crate::SubstOptions::sim`] enabled
    /// it.
    pub sim: Option<&'a SimFilter>,
}

/// Divisor candidates for one target, in ascending id order, plus the
/// per-source funnel observation that produced them.
#[derive(Debug)]
pub struct CandidateIter {
    inner: std::vec::IntoIter<NodeId>,
    bucket_hits: usize,
}

impl CandidateIter {
    /// Wraps an already sorted-and-deduplicated candidate list.
    #[must_use]
    pub fn new(divisors: Vec<NodeId>, bucket_hits: usize) -> CandidateIter {
        CandidateIter {
            inner: divisors.into_iter(),
            bucket_hits,
        }
    }

    /// Signature rows consulted while proposing — bucket members scanned
    /// plus structurally-enumerated candidates screened (zero for
    /// signature-free sources such as [`OverlapIndex`]).
    #[must_use]
    pub fn bucket_hits(&self) -> usize {
        self.bucket_hits
    }

    /// The remaining candidates as a plain vector.
    #[must_use]
    pub fn into_vec(self) -> Vec<NodeId> {
        self.inner.collect()
    }
}

impl Iterator for CandidateIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for CandidateIter {}

/// A divisor-discovery strategy (see the module docs for the contract).
pub trait CandidateSource {
    /// Stable label for traces and stats ("overlap", "signature").
    fn name(&self) -> &'static str;

    /// Proposes divisor candidates for `target`, restricted to ids below
    /// `bound` (the id snapshot taken at target-visit time) and, when
    /// `cursor` is set, strictly above it (the resume point after an
    /// acceptance). Candidates must come back sorted ascending — the
    /// engine's visit order and the parallel sweep's ordered-commit
    /// protocol both depend on it.
    fn candidates(
        &mut self,
        ctx: &SourceCtx<'_>,
        target: NodeId,
        bound: usize,
        cursor: Option<NodeId>,
    ) -> CandidateIter;

    /// How many eligible pairs the source skipped without proposing, for
    /// [`crate::SubstStats::filtered_by_index`]. The default claims
    /// nothing — only a source enumerating against a known universe (like
    /// [`OverlapIndex`]) can say.
    fn skipped(
        &self,
        ctx: &SourceCtx<'_>,
        proposed: usize,
        bound: usize,
        cursor: Option<NodeId>,
    ) -> usize {
        let _ = (ctx, proposed, bound, cursor);
        0
    }

    /// Called once after every committed rewrite, before the next
    /// [`CandidateSource::candidates`] call. `pre_version` is the network
    /// version the commit started from and `changed` the signature rows
    /// it moved (possibly empty — substitution preserves the target's
    /// function).
    fn note_commit(&mut self, ctx: &SourceCtx<'_>, pre_version: u64, changed: &[NodeId]) {
        let _ = (ctx, pre_version, changed);
    }

    /// Checked-mode integrity audit, called after every commit with the
    /// rows that edit touched (the rewritten pair plus the changed
    /// signature rows): `true` when the source's derived state is
    /// consistent for those rows. Cost must stay proportional to `rows` —
    /// this runs per commit, the same discipline as
    /// [`boolsubst_sim::SimFilter::audit`]. A failing source must
    /// self-repair before returning; the engine books the fault.
    fn audit(&mut self, ctx: &SourceCtx<'_>, rows: &[NodeId]) -> bool {
        let _ = (ctx, rows);
        true
    }
}

/// The pre-redesign support-overlap index: divisor candidates are the
/// fanouts of the target's fanins, which is exactly the set passing the
/// legacy support-overlap filter. Stateless; pinned bit-identical to the
/// hard-wired enumeration by `tests/engine_parity.rs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct OverlapIndex;

impl OverlapIndex {
    pub(crate) fn enumerate(
        ctx: &SourceCtx<'_>,
        target: NodeId,
        bound: usize,
        cursor: Option<NodeId>,
    ) -> Vec<NodeId> {
        let net = ctx.net;
        let mut out: Vec<NodeId> = Vec::new();
        for &f in net.node(target).fanins() {
            for &o in ctx.side.fanouts(net, f) {
                if o.index() < bound && cursor.is_none_or(|c| o > c) {
                    out.push(o);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    pub(crate) fn count_skipped(
        ctx: &SourceCtx<'_>,
        proposed: usize,
        bound: usize,
        cursor: Option<NodeId>,
    ) -> usize {
        let eligible = ctx
            .net
            .internal_ids()
            .filter(|id| id.index() < bound && cursor.is_none_or(|c| *id > c))
            .count();
        eligible.saturating_sub(proposed)
    }
}

impl CandidateSource for OverlapIndex {
    fn name(&self) -> &'static str {
        "overlap"
    }

    fn candidates(
        &mut self,
        ctx: &SourceCtx<'_>,
        target: NodeId,
        bound: usize,
        cursor: Option<NodeId>,
    ) -> CandidateIter {
        CandidateIter::new(OverlapIndex::enumerate(ctx, target, bound, cursor), 0)
    }

    fn skipped(
        &self,
        ctx: &SourceCtx<'_>,
        proposed: usize,
        bound: usize,
        cursor: Option<NodeId>,
    ) -> usize {
        OverlapIndex::count_skipped(ctx, proposed, bound, cursor)
    }
}

/// Signature-class discovery: divisors come from two complementary
/// signature-screened pools, so the division proof runs only on pairs the
/// pattern pool could not refute.
///
/// * the [`SignatureBuckets`] equal / complement / containment classes —
///   *global* candidates the support-overlap neighbourhood never sees,
///   maintained incrementally across commits and capped per class so a
///   large equality class (multiplier partial-product arrays) costs
///   `O(class · cap)` instead of `O(class²)`;
/// * the overlap neighbourhood (fanouts of the target's fanins), each
///   candidate screened cube-wise against the target's cover
///   ([`SimFilter::screen_cover`]) — the *local* algebraic-division wins
///   [`OverlapIndex`] would propose, minus the pairs whose SOP strategies
///   the engine's own refute-only screen would have killed pre-proof.
///
/// Requires an attached sim filter; without one it degrades to
/// [`OverlapIndex`] enumeration (the engine's option resolution prevents
/// that combination, but a direct trait user is not left broken).
#[derive(Debug, Default)]
pub struct SignatureClasses {
    buckets: SignatureBuckets,
}

impl SignatureClasses {
    /// An empty index; the first [`CandidateSource::candidates`] call
    /// builds it.
    #[must_use]
    pub fn new() -> SignatureClasses {
        SignatureClasses::default()
    }
}

impl CandidateSource for SignatureClasses {
    fn name(&self) -> &'static str {
        "signature"
    }

    fn candidates(
        &mut self,
        ctx: &SourceCtx<'_>,
        target: NodeId,
        bound: usize,
        cursor: Option<NodeId>,
    ) -> CandidateIter {
        let Some(sim) = ctx.sim else {
            return CandidateIter::new(OverlapIndex::enumerate(ctx, target, bound, cursor), 0);
        };
        self.buckets.ensure(ctx.net, sim);
        let p = self.buckets.propose(ctx.net, sim, target, bound, cursor);
        let mut divisors = p.divisors;
        let mut consulted = p.bucket_hits;
        let node = ctx.net.node(target);
        let cover = node.cover();
        for o in OverlapIndex::enumerate(ctx, target, bound, cursor) {
            consulted += 1;
            let keep = match cover {
                Some(cover) if o != target => {
                    let sc = sim.screen_cover(ctx.net, cover, node.fanins(), o);
                    // A pair whose kept split is refuted against both the
                    // divisor and its complement has no live SOP strategy;
                    // anything else still reaches the proof. Refute-only,
                    // so the drop can cost opportunity, never correctness.
                    !(sc.refutes_containment_in_divisor() && sc.refutes_containment_in_complement())
                }
                _ => true,
            };
            if keep {
                divisors.push(o);
            }
        }
        divisors.sort_unstable();
        divisors.dedup();
        CandidateIter::new(divisors, consulted)
    }

    fn note_commit(&mut self, ctx: &SourceCtx<'_>, pre_version: u64, changed: &[NodeId]) {
        if let Some(sim) = ctx.sim {
            self.buckets
                .apply_commit(ctx.net, sim, pre_version, changed);
        }
    }

    fn audit(&mut self, ctx: &SourceCtx<'_>, rows: &[NodeId]) -> bool {
        let Some(sim) = ctx.sim else {
            return true;
        };
        // Row-proportional spot-check; a mismatch rebuilds the index
        // (deterministic repair, mirroring the sim filter's audit path)
        // so the sweep continues on sound state.
        self.buckets.audit_rows(ctx.net, sim, rows)
    }
}

/// Boxes the source implementation for a resolved [`Discovery`] choice.
pub(crate) fn build_source(discovery: Discovery) -> Box<dyn CandidateSource> {
    match discovery {
        Discovery::Overlap | Discovery::Auto => Box::new(OverlapIndex),
        Discovery::Signature => Box::new(SignatureClasses::new()),
    }
}
