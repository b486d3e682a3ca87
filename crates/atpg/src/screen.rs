//! Exhaustive truth-table screen for the removal loop. On a circuit with
//! at most [`MAX_INPUTS`] inputs every gate keeps its full truth table, so
//! dropping a candidate wire and re-simulating the sink's transitive
//! fanout decides exactly whether the wire is testable. A testable wire
//! can never be proved redundant by the (sound) implication check, so the
//! removal loop skips that check for it; every other wire still goes
//! through the check, which keeps the removal verdicts unchanged.

use crate::{Circuit, FaultChecker, GateId, GateKind, Wire};

/// Largest input count the screen applies to: 2^10 patterns, i.e. 16
/// words per gate.
const MAX_INPUTS: usize = 10;

/// Word `w` of the exhaustive truth table of input variable `k`: minterm
/// `64·w + b` sits at bit `b`, and bit `k` of the minterm index is the
/// variable's value. Below six inputs the one-word patterns repeat, which
/// every gate function preserves, so comparisons stay exact. The
/// substitution engine's forced-literal bound reads its tables in the same
/// layout.
#[must_use]
pub fn input_word(k: usize, w: usize) -> u64 {
    const MASKS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match MASKS.get(k) {
        Some(&mask) => mask,
        None if (w >> (k - 6)) & 1 == 1 => !0,
        None => 0,
    }
}

/// Good and re-simulated tables, `words` per gate.
struct Tables {
    words: usize,
    good: Vec<u64>,
    /// Re-simulated values, valid only where `changed` is set.
    bad: Vec<u64>,
    changed: Vec<bool>,
}

impl Tables {
    /// The current table of gate `g`: re-simulated if it changed.
    fn row(&self, g: GateId) -> &[u64] {
        let at = g.index() * self.words;
        let table = if self.changed[g.index()] {
            &self.bad
        } else {
            &self.good
        };
        &table[at..at + self.words]
    }
}

/// The truth-table state of one removal run.
pub(crate) struct TruthScreen {
    tables: Tables,
    /// Gate evaluation scratch (`words` long).
    acc: Vec<u64>,
    /// Gates whose `changed` flag is set, to reset after each run.
    touched: Vec<GateId>,
    tfo: Vec<GateId>,
    in_tfo: Vec<bool>,
}

impl TruthScreen {
    /// Simulates every gate exhaustively; `None` if the circuit has more
    /// than [`MAX_INPUTS`] inputs.
    pub(crate) fn new(circuit: &Circuit) -> Option<TruthScreen> {
        let inputs = circuit.num_inputs();
        if inputs > MAX_INPUTS {
            return None;
        }
        let words = 1 << inputs.saturating_sub(6);
        let n = circuit.len();
        let mut screen = TruthScreen {
            tables: Tables {
                words,
                good: vec![0; n * words],
                bad: vec![0; n * words],
                changed: vec![false; n],
            },
            acc: vec![0; words],
            touched: Vec::new(),
            tfo: Vec::new(),
            in_tfo: vec![false; n],
        };
        let mut k = 0;
        for g in circuit.gate_ids() {
            if circuit.kind(g) == GateKind::Input {
                for (w, slot) in screen.acc.iter_mut().enumerate() {
                    *slot = input_word(k, w);
                }
                k += 1;
            } else {
                screen.eval(circuit, g, None);
            }
            let at = g.index() * words;
            screen.tables.good[at..at + words].copy_from_slice(&screen.acc);
        }
        Some(screen)
    }

    /// True if dropping `wire` from its (AND/OR) sink changes some
    /// observation point for some input pattern, i.e. the wire's
    /// removal fault is testable.
    pub(crate) fn removal_is_testable(&mut self, checker: &FaultChecker, wire: Wire) -> bool {
        let observed = self.propagate(checker, wire.gate, Some(wire.pin), true);
        for g in self.touched.drain(..) {
            self.tables.changed[g.index()] = false;
        }
        observed
    }

    /// Brings the tables up to date after a wire of `sink` was removed.
    pub(crate) fn resimulate(&mut self, checker: &FaultChecker, sink: GateId) {
        self.propagate(checker, sink, None, false);
        let words = self.tables.words;
        for g in self.touched.drain(..) {
            let at = g.index() * words;
            let Tables {
                good, bad, changed, ..
            } = &mut self.tables;
            good[at..at + words].copy_from_slice(&bad[at..at + words]);
            changed[g.index()] = false;
        }
    }

    /// Re-evaluates `sink` (without pin `skip`) and, if it changed, every
    /// gate of its transitive fanout with a changed fanin, recording the
    /// changes in `bad`/`changed`/`touched`. Returns true if an
    /// observation point changed; with `stop_at_output` it returns at the
    /// first one.
    fn propagate(
        &mut self,
        checker: &FaultChecker,
        sink: GateId,
        skip: Option<usize>,
        stop_at_output: bool,
    ) -> bool {
        let circuit = checker.circuit();
        if !self.update(circuit, sink, skip) {
            return false;
        }
        let mut observed = checker.is_output(sink);
        if observed && stop_at_output {
            return true;
        }
        self.collect_tfo(checker.fanouts(), sink);
        for k in 0..self.tfo.len() {
            let g = self.tfo[k];
            let dirty = circuit
                .fanins(g)
                .iter()
                .any(|f| self.tables.changed[f.index()]);
            if dirty && self.update(circuit, g, None) && checker.is_output(g) {
                observed = true;
                if stop_at_output {
                    return true;
                }
            }
        }
        observed
    }

    /// Re-evaluates `g`; if its table differs from the good one, stores
    /// it as changed and returns true.
    fn update(&mut self, circuit: &Circuit, g: GateId, skip: Option<usize>) -> bool {
        self.eval(circuit, g, skip);
        let words = self.tables.words;
        let at = g.index() * words;
        if self.acc[..] == self.tables.good[at..at + words] {
            return false;
        }
        self.tables.bad[at..at + words].copy_from_slice(&self.acc);
        self.tables.changed[g.index()] = true;
        self.touched.push(g);
        true
    }

    /// Evaluates non-input gate `g` into `acc` from its fanins' current
    /// tables, leaving out pin `skip`.
    fn eval(&mut self, circuit: &Circuit, g: GateId, skip: Option<usize>) {
        let tables = &self.tables;
        let acc = &mut self.acc;
        let fanins = circuit
            .fanins(g)
            .iter()
            .enumerate()
            .filter(|&(pin, _)| Some(pin) != skip)
            .map(|(_, &f)| tables.row(f));
        match circuit.kind(g) {
            GateKind::Input => unreachable!("inputs are never re-evaluated"),
            GateKind::Const0 => acc.fill(0),
            GateKind::Const1 => acc.fill(!0),
            kind @ (GateKind::Not | GateKind::Buf) => {
                let flip = if kind == GateKind::Not { !0 } else { 0 };
                for row in fanins {
                    for (a, &v) in acc.iter_mut().zip(row) {
                        *a = v ^ flip;
                    }
                }
            }
            GateKind::And => {
                acc.fill(!0);
                for row in fanins {
                    for (a, &v) in acc.iter_mut().zip(row) {
                        *a &= v;
                    }
                }
            }
            GateKind::Or => {
                acc.fill(0);
                for row in fanins {
                    for (a, &v) in acc.iter_mut().zip(row) {
                        *a |= v;
                    }
                }
            }
        }
    }

    /// Fills `tfo` with the transitive fanout of `from` (excluding it),
    /// in topological (index) order.
    fn collect_tfo(&mut self, fanouts: &[Vec<GateId>], from: GateId) {
        self.tfo.clear();
        self.tfo.push(from);
        let mut next = 0;
        while let Some(&g) = self.tfo.get(next) {
            next += 1;
            for &h in &fanouts[g.index()] {
                if !self.in_tfo[h.index()] {
                    self.in_tfo[h.index()] = true;
                    self.tfo.push(h);
                }
            }
        }
        self.tfo.swap_remove(0);
        self.tfo.sort_unstable();
        for g in &self.tfo {
            self.in_tfo[g.index()] = false;
        }
    }
}
