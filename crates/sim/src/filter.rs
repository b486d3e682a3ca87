//! The engine-facing filter: the refute-only cover screen.

use crate::pool::PatternPool;
use crate::table::SimTable;
use crate::SimConfig;
use boolsubst_cube::{Cover, Phase};
use boolsubst_metrics::{Counter, MetricsHandle};
use boolsubst_network::{Network, NodeId, SideTables};

/// Per-cube witness flags for one `(cover, divisor)` screen.
///
/// For cube `c` of the screened cover, `wit_div0[i]` records that some
/// pool pattern sets `c = 1` while the divisor evaluates to 0 — a
/// counterexample to "`c` is contained in a cube of the divisor", since a
/// containing cube would force the divisor on wherever `c` holds.
/// `wit_div1[i]` is the symmetric witness against containment in a cube
/// of the divisor's *complement*.
#[derive(Debug, Clone)]
pub struct CoverScreen {
    /// Witness `cube = 1 ∧ divisor = 0` found, per cube.
    pub wit_div0: Vec<bool>,
    /// Witness `cube = 1 ∧ divisor = 1` found, per cube.
    pub wit_div1: Vec<bool>,
}

impl CoverScreen {
    /// Every cube carries a `divisor = 0` witness: the whole cover is
    /// provably not contained cube-wise in the divisor, so the kept split
    /// of a basic (or extended) division against this divisor is empty.
    #[must_use]
    pub fn refutes_containment_in_divisor(&self) -> bool {
        self.wit_div0.iter().all(|&w| w)
    }

    /// Every cube carries a `divisor = 1` witness: symmetric refutation
    /// against the divisor's complement.
    #[must_use]
    pub fn refutes_containment_in_complement(&self) -> bool {
        self.wit_div1.iter().all(|&w| w)
    }
}

/// The engine's simulation filter: the fixed pattern pool and the
/// signature table over it, behind one façade.
///
/// Screening takes `&self` and is a pure function of the network and the
/// pool, so the parallel sweep's workers share one `&SimFilter`; only
/// [`SimFilter::patch`] and [`SimFilter::rebuild`], which follow network
/// edits on the committer, mutate it.
#[derive(Debug, Clone)]
pub struct SimFilter {
    pool: PatternPool,
    table: SimTable,
    /// `sim.screens`, resolved at [`SimFilter::attach_metrics`] time. The
    /// counter is atomic, so screens book through `&self`. Observation
    /// only — screen verdicts are unaffected.
    screens: Option<Counter>,
}

// Worker threads share one filter per epoch, so it must stay `Sync`.
// Compile-time pin:
const _: fn() = || {
    fn sync_only<T: Sync>() {}
    sync_only::<SimFilter>();
};

impl SimFilter {
    /// Builds the pool and simulates the network.
    ///
    /// # Panics
    ///
    /// Panics if `config.exhaustive` is set and the network has more than
    /// 16 primary inputs.
    #[must_use]
    pub fn new(net: &Network, config: &SimConfig) -> SimFilter {
        let n = net.inputs().len();
        let pool = if config.exhaustive {
            PatternPool::exhaustive(n)
        } else {
            PatternPool::random(n, config.words, 0, config.seed)
        };
        let table = SimTable::build(net, &pool);
        SimFilter {
            pool,
            table,
            screens: None,
        }
    }

    /// Attaches a metrics registry: every subsequent screen books
    /// `sim.screens`.
    pub fn attach_metrics(&mut self, handle: &MetricsHandle) {
        self.screens = Some(handle.counter("sim.screens"));
    }

    /// Patches the signature table after an engine edit; `side` must
    /// already be synchronised. `seeds` are the rewired node ids (see
    /// [`SimTable::patch`]).
    pub fn patch(&mut self, net: &Network, side: &SideTables, seeds: &[NodeId]) {
        self.table.patch(net, side, &self.pool, seeds);
    }

    /// Integrity audit (checked mode): re-derives each given node's cached
    /// signature row from its fanins' rows and compares. Returns false if
    /// any row has rotted — corruption the version-stamp protocol cannot
    /// see, because no edit happened.
    ///
    /// # Panics
    ///
    /// Panics if the table is stale.
    #[must_use]
    pub fn audit(&self, net: &Network, ids: &[NodeId]) -> bool {
        ids.iter().all(|&id| self.table.audit(net, &self.pool, id))
    }

    /// Rebuilds the signature table from scratch over the same pool
    /// (deterministic repair after a failed audit).
    pub fn rebuild(&mut self, net: &Network) {
        self.table = SimTable::build(net, &self.pool);
    }

    /// Flips one in-pool signature bit of `id` (fault injection for the
    /// chaos suite; see [`SimTable::chaos_poison`]).
    #[cfg(feature = "chaos")]
    pub fn chaos_poison_signature(&mut self, id: NodeId, pattern: usize) {
        let p = pattern % self.pool.patterns().max(1);
        self.table.chaos_poison(id, p);
    }

    /// Screens `cover` (over variables `vars`, e.g. a joint-space dividend
    /// or a node's local cover over its fanins) against `divisor`'s
    /// signature. Refute-only: a set flag is a proof, a clear flag means
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the table is stale.
    #[must_use]
    pub fn screen_cover(
        &self,
        net: &Network,
        cover: &Cover,
        vars: &[NodeId],
        divisor: NodeId,
    ) -> CoverScreen {
        if let Some(screens) = &self.screens {
            screens.inc();
        }
        let d = self.table.sig(net, divisor);
        let mut wit_div0 = vec![false; cover.len()];
        let mut wit_div1 = vec![false; cover.len()];
        for (ci, cube) in cover.cubes().iter().enumerate() {
            let mut w0 = false;
            let mut w1 = false;
            'words: for (w, &dw) in d.iter().enumerate() {
                // Start from the validity mask so complemented literals
                // cannot leak set bits beyond the pool.
                let mut acc = self.pool.mask(w);
                if acc == 0 {
                    continue;
                }
                for lit in cube.lits() {
                    let s = self.table.sig(net, vars[lit.var])[w];
                    acc &= match lit.phase {
                        Phase::Pos => s,
                        Phase::Neg => !s,
                    };
                    if acc == 0 {
                        continue 'words;
                    }
                }
                w0 |= acc & !dw != 0;
                w1 |= acc & dw != 0;
                if w0 && w1 {
                    break;
                }
            }
            wit_div0[ci] = w0;
            wit_div1[ci] = w1;
        }
        CoverScreen { wit_div0, wit_div1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    /// f is a single wide cube over eight inputs and g = a', so `f = 1`
    /// forces `g = 0`: the div0 witness exists only where all eight
    /// inputs are 1 — rare enough (1 in 256) that a small random pool
    /// plausibly misses it.
    fn craft() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("craft");
        let pis: Vec<NodeId> = ('a'..='h')
            .map(|c| net.add_input(c.to_string()).expect("pi"))
            .collect();
        let f = net
            .add_node("t", pis.clone(), parse_sop(8, "abcdefgh").expect("p"))
            .expect("t");
        let g = net
            .add_node("dvr", vec![pis[0]], parse_sop(1, "a'").expect("p"))
            .expect("dvr");
        net.add_output("t", f).expect("of");
        net.add_output("dvr", g).expect("og");
        (net, f, g)
    }

    #[test]
    fn exhaustive_screen_is_exact_on_craft() {
        let (net, f, g) = craft();
        let filter = SimFilter::new(&net, &SimConfig::exhaustive());
        let cover = net.node(f).cover().expect("cover").clone();
        let fanins = net.node(f).fanins().to_vec();
        let screen = filter.screen_cover(&net, &cover, &fanins, g);
        // abc = 1 forces g = a' = 0: the div0 witness exists, div1 cannot.
        assert!(screen.refutes_containment_in_divisor());
        assert!(!screen.refutes_containment_in_complement());
    }
}
