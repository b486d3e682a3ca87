//! The reusable stuck-at fault checker: built once per circuit, it owns
//! the fanout lists and every scratch buffer, so each fault check costs
//! only its transitive-fanout region plus the implications it triggers.

use crate::imply::Rules;
use crate::{
    Circuit, Conflict, Fault, GateId, GateKind, ImplyOptions, UntestableReason, Value, Wire,
};

/// `ipdom` entry of a gate that reaches no observation point.
const UNOBSERVED: usize = usize::MAX;

/// An implication-based fault checker bound to one circuit.
///
/// Build it once and call [`FaultChecker::check`] for every fault of the
/// circuit; wire removals go through [`FaultChecker::remove_wire`] so the
/// fanout lists stay in sync. Per check it runs:
///
/// * the transitive fanout (TFO) of the faulted wire's sink gate;
/// * its observability dominators, as the immediate-post-dominator chain
///   to a virtual sink behind the outputs (Cooper–Harvey–Kennedy
///   intersection over gate indices, which are topological);
/// * event-driven implications from the mandatory assignments and the
///   constant gates only, plus a full pass and recursive learning when
///   `learn_depth ≥ 1`.
///
/// The implication rules are monotone, so the closure — and whether it
/// conflicts — does not depend on evaluation order: verdicts and implied
/// values equal a full-pass evaluation of the same seeds.
#[derive(Debug)]
pub struct FaultChecker {
    circuit: Circuit,
    fanouts: Vec<Vec<GateId>>,
    is_output: Vec<bool>,
    /// Seeds of every check: constant gates and fanin-less AND/OR gates.
    constants: Vec<(GateId, Value)>,
    values: Vec<Value>,
    queue: Vec<GateId>,
    /// TFO of the last dominator query, sorted, with its membership mask.
    tfo: Vec<GateId>,
    in_tfo: Vec<bool>,
    /// Immediate post-dominator per TFO gate (`circuit.len()` = the
    /// virtual sink); valid only for the gates in `tfo`.
    ipdom: Vec<usize>,
    doms: Vec<GateId>,
    mas: Vec<(GateId, bool)>,
}

/// The value a gate holds regardless of its inputs, if any.
fn constant_value(circuit: &Circuit, g: GateId) -> Option<Value> {
    match (circuit.kind(g), circuit.fanins(g).is_empty()) {
        (GateKind::Const0, _) | (GateKind::Or, true) => Some(Value::Zero),
        (GateKind::Const1, _) | (GateKind::And, true) => Some(Value::One),
        _ => None,
    }
}

impl FaultChecker {
    /// Takes ownership of `circuit` and builds its fanout lists.
    #[must_use]
    pub fn new(circuit: Circuit) -> FaultChecker {
        let n = circuit.len();
        let mut is_output = vec![false; n];
        for &o in circuit.outputs() {
            is_output[o.index()] = true;
        }
        let constants = circuit
            .gate_ids()
            .filter_map(|g| constant_value(&circuit, g).map(|v| (g, v)))
            .collect();
        FaultChecker {
            fanouts: circuit.fanouts(),
            circuit,
            is_output,
            constants,
            values: vec![Value::Unknown; n],
            queue: Vec::new(),
            tfo: Vec::new(),
            in_tfo: vec![false; n],
            ipdom: vec![UNOBSERVED; n],
            doms: Vec::new(),
            mas: Vec::new(),
        }
    }

    /// The circuit under check.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Gives the (possibly edited) circuit back.
    #[must_use]
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// Removes wire `w` from the circuit and the fanout lists. A gate left
    /// without fanins is a constant from then on and seeds every check.
    ///
    /// # Panics
    ///
    /// Panics if the wire does not exist or its gate is not AND/OR.
    pub fn remove_wire(&mut self, w: Wire) {
        let driver = self.circuit.fanins(w.gate)[w.pin];
        self.circuit.remove_wire(w);
        let fanouts = &mut self.fanouts[driver.index()];
        let at = fanouts
            .iter()
            .position(|&g| g == w.gate)
            .expect("fanout lists in sync with the circuit");
        fanouts.swap_remove(at);
        if let Some(v) = constant_value(&self.circuit, w.gate) {
            self.constants.push((w.gate, v));
        }
    }

    /// Implication-based untestability check (see [`crate::check_fault`]).
    /// `Ok` carries the closure of mandatory assignments, one value per
    /// gate, valid until the next call.
    ///
    /// # Errors
    ///
    /// Returns why the fault is untestable, i.e. the wire is redundant.
    pub fn check(
        &mut self,
        fault: Fault,
        opts: ImplyOptions,
    ) -> Result<&[Value], UntestableReason> {
        if !self.collect_mandatory(fault) {
            return Err(UntestableReason::Unobservable);
        }
        match self.imply_mandatory(opts) {
            Ok(()) => Ok(&self.values),
            Err(_) => Err(UntestableReason::ImplicationConflict),
        }
    }

    /// Fanout lists of the current circuit, one sink entry per wire.
    pub(crate) fn fanouts(&self) -> &[Vec<GateId>] {
        &self.fanouts
    }

    /// True if `g` is an observation point.
    pub(crate) fn is_output(&self, g: GateId) -> bool {
        self.is_output[g.index()]
    }

    pub(crate) fn rules(&self) -> Rules<'_> {
        Rules {
            circuit: &self.circuit,
            fanouts: &self.fanouts,
        }
    }

    /// The value table of the last [`FaultChecker::imply_mandatory`].
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// Fills `mas` with the mandatory assignments of `fault`: activation at
    /// the source gate plus non-controlling values on the side inputs of
    /// the sink gate and of every observability dominator of the sink.
    /// False if the fault is unobservable.
    pub(crate) fn collect_mandatory(&mut self, fault: Fault) -> bool {
        let sink = fault.wire.gate;
        let fanins = self.circuit.fanins(sink);
        self.mas.clear();
        self.mas.push((fanins[fault.wire.pin], !fault.stuck));
        // The sink gate behaves like a dominator for its own side inputs
        // (the fault enters through one specific pin).
        if let Some(ctrl) = self.circuit.kind(sink).controlling() {
            for (pin, &f) in fanins.iter().enumerate() {
                if pin != fault.wire.pin {
                    self.mas.push((f, !ctrl));
                }
            }
        }
        if self.is_output[sink.index()] {
            return true;
        }
        if !self.dominators(sink) {
            return false;
        }
        for &d in &self.doms {
            let Some(ctrl) = self.circuit.kind(d).controlling() else {
                continue;
            };
            for &f in self.circuit.fanins(d) {
                // Side inputs = fanins not affected by the fault.
                if f != sink && !self.in_tfo[f.index()] {
                    self.mas.push((f, !ctrl));
                }
            }
        }
        true
    }

    /// Runs implications from the constants and `mas` into `values`.
    pub(crate) fn imply_mandatory(&mut self, opts: ImplyOptions) -> Result<(), Conflict> {
        let rules = Rules {
            circuit: &self.circuit,
            fanouts: &self.fanouts,
        };
        let values = &mut self.values;
        let queue = &mut self.queue;
        values.fill(Value::Unknown);
        queue.clear();
        let mandatory = self.mas.iter().map(|&(g, v)| (g, Value::from_bool(v)));
        for (g, v) in self.constants.iter().copied().chain(mandatory) {
            rules.assign(values, g, v, queue)?;
        }
        rules.propagate(values, queue)?;
        if opts.learn_depth > 0 {
            rules.imply(values, opts)?;
        }
        Ok(())
    }

    /// Computes `tfo`/`in_tfo` for `from` and, into `doms`, the gates
    /// through which *every* path from `from` to *any* observation point
    /// passes, in topological order (the outputs included, `from`
    /// excluded). False if no observation point is reachable.
    fn dominators(&mut self, from: GateId) -> bool {
        for g in self.tfo.drain(..) {
            self.in_tfo[g.index()] = false;
        }
        self.doms.clear();
        self.tfo.push(from);
        let mut next = 0;
        while let Some(&g) = self.tfo.get(next) {
            next += 1;
            for &h in &self.fanouts[g.index()] {
                if !self.in_tfo[h.index()] {
                    self.in_tfo[h.index()] = true;
                    self.tfo.push(h);
                }
            }
        }
        self.tfo.swap_remove(0);
        self.tfo.sort_unstable();
        // Reverse topological order: every fanout is settled before the
        // gates driving it.
        for k in (0..self.tfo.len()).rev() {
            let g = self.tfo[k];
            self.ipdom[g.index()] = self.post_dominator(g);
        }
        let mut d = self.post_dominator(from);
        if d == UNOBSERVED {
            return false;
        }
        while d != self.circuit.len() {
            self.doms.push(GateId(d));
            d = self.ipdom[d];
        }
        true
    }

    /// Nearest common post-dominator of `g`'s successors that reach an
    /// observation point (the virtual sink if `g` is an output).
    fn post_dominator(&self, g: GateId) -> usize {
        let mut acc = if self.is_output[g.index()] {
            self.circuit.len()
        } else {
            UNOBSERVED
        };
        for &h in &self.fanouts[g.index()] {
            let h = h.index();
            if self.ipdom[h] == UNOBSERVED {
                continue;
            }
            acc = if acc == UNOBSERVED {
                h
            } else {
                self.intersect(acc, h)
            };
        }
        acc
    }

    /// Cooper–Harvey–Kennedy finger walk: a post-dominator always has a
    /// larger index than the gates it dominates.
    fn intersect(&self, mut a: usize, mut b: usize) -> usize {
        while a != b {
            if a < b {
                a = self.ipdom[a];
            } else {
                b = self.ipdom[b];
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screen::TruthScreen;
    use crate::{
        is_testable_exhaustive, reference, remove_redundant_wires_with, CandidateWire, FaultStatus,
        RemovalOptions,
    };

    /// Seeded xorshift64: std-only and reproducible.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Distinct random picks from `pool`, at most `k` of them.
    fn pick(rng: &mut Rng, pool: &[GateId], k: usize) -> Vec<GateId> {
        let mut ins = Vec::new();
        for _ in 0..k {
            let g = pool[rng.below(pool.len())];
            if !ins.contains(&g) {
                ins.push(g);
            }
        }
        ins
    }

    /// A random circuit with constants, NOT/BUF gates, fanin-less AND/OR
    /// gates and one to three outputs (some of them internal).
    fn random_circuit(rng: &mut Rng) -> Circuit {
        let inputs = 2 + rng.below(4);
        random_circuit_over(rng, inputs)
    }

    /// [`random_circuit`] with `inputs` free inputs.
    fn random_circuit_over(rng: &mut Rng, inputs: usize) -> Circuit {
        let mut c = Circuit::new();
        let mut pool: Vec<GateId> = (0..inputs).map(|_| c.add_input()).collect();
        if rng.below(2) == 0 {
            pool.push(c.add_const(rng.below(2) == 0));
        }
        for _ in 0..6 + rng.below(10) {
            let g = match rng.below(8) {
                0 => c.add_not(pool[rng.below(pool.len())]),
                1 => c.add_buf(pool[rng.below(pool.len())]),
                2..=4 => {
                    let k = rng.below(4);
                    c.add_and(pick(rng, &pool, k))
                }
                _ => {
                    let k = rng.below(4);
                    c.add_or(pick(rng, &pool, k))
                }
            };
            pool.push(g);
        }
        c.add_output(*pool.last().expect("nonempty"));
        for _ in 0..rng.below(3) {
            c.add_output(pool[rng.below(pool.len())]);
        }
        c
    }

    /// Every wire fault of the circuit.
    fn all_faults(c: &Circuit) -> Vec<Fault> {
        let mut out = Vec::new();
        for gate in c.gate_ids() {
            for pin in 0..c.fanins(gate).len() {
                for stuck in [false, true] {
                    out.push(Fault {
                        wire: Wire { gate, pin },
                        stuck,
                    });
                }
            }
        }
        out
    }

    /// The checker agrees with the reference on the verdict, the reason
    /// and the implied values; its untestable claims are sound. Returns
    /// the untestability reason, if any.
    fn assert_matches_reference(
        checker: &mut FaultChecker,
        fault: Fault,
        opts: ImplyOptions,
    ) -> Option<UntestableReason> {
        let circuit = checker.circuit().clone();
        let want = reference::check_fault(&circuit, fault, opts);
        let want_mas = reference::mandatory_assignments(&circuit, fault);
        let got_mas = checker
            .collect_mandatory(fault)
            .then(|| checker.mas.clone());
        assert_eq!(got_mas, want_mas, "mandatory assignments of {fault:?}");
        match (want, checker.check(fault, opts)) {
            (FaultStatus::Untestable(want), Err(got)) => {
                assert_eq!(got, want, "{fault:?}");
                assert!(
                    !is_testable_exhaustive(&circuit, fault),
                    "unsound redundancy claim for {fault:?}"
                );
                Some(got)
            }
            (FaultStatus::PossiblyTestable(want), Ok(got)) => {
                assert_eq!(got, want.as_slice(), "implied values of {fault:?}");
                None
            }
            (want, got) => panic!("{fault:?}: reference {want:?}, checker {got:?}"),
        }
    }

    #[test]
    fn matches_reference_across_wire_removals() {
        let mut rng = Rng(0x5EED_CAFE_F00D);
        let mut verdicts = [0usize; 3];
        for _ in 0..150 {
            let mut checker = FaultChecker::new(random_circuit(&mut rng));
            for g in checker.circuit().gate_ids().collect::<Vec<_>>() {
                let want = reference::observability_dominators(checker.circuit(), g);
                let got = checker.dominators(g).then(|| checker.doms.clone());
                assert_eq!(got, want, "dominators of {g}");
            }
            for _ in 0..4 {
                for fault in all_faults(checker.circuit()) {
                    for learn_depth in [0, 1] {
                        let opts = ImplyOptions { learn_depth };
                        verdicts[match assert_matches_reference(&mut checker, fault, opts) {
                            None => 0,
                            Some(UntestableReason::Unobservable) => 1,
                            Some(UntestableReason::ImplicationConflict) => 2,
                        }] += 1;
                    }
                }
                // Remove a few AND/OR wires (sound or not: both sides see
                // the same circuit), emptying gates along the way.
                let wires: Vec<Wire> = all_faults(checker.circuit())
                    .into_iter()
                    .map(|f| f.wire)
                    .filter(|w| {
                        matches!(checker.circuit().kind(w.gate), GateKind::And | GateKind::Or)
                    })
                    .collect();
                if wires.is_empty() {
                    break;
                }
                for _ in 0..3 {
                    let w = wires[rng.below(wires.len())];
                    if w.pin < checker.circuit().fanins(w.gate).len() {
                        checker.remove_wire(w);
                    }
                }
            }
        }
        // Every verdict kind is well represented.
        assert!(verdicts.iter().all(|&n| n > 1_000), "{verdicts:?}");
    }

    #[test]
    fn dominators_of_chain() {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let x = c.add_and(vec![a, b]);
        let y = c.add_or(vec![x, a]);
        let z = c.add_and(vec![y, b]);
        c.add_output(z);
        let mut checker = FaultChecker::new(c);
        assert!(checker.dominators(x));
        assert_eq!(checker.doms, [y, z]);
        // From a there are two paths (via x and via y directly): only y, z
        // dominate.
        assert!(checker.dominators(a));
        assert_eq!(checker.doms, [y, z]);
    }

    #[test]
    fn emptied_gates_become_constants() {
        // f = a·b observed through an OR with c: once both wires of the
        // AND are gone it is constant 1, which makes c's wire redundant.
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let ab = c.add_and(vec![a, b]);
        let f = c.add_or(vec![ab, cc]);
        c.add_output(f);
        let mut checker = FaultChecker::new(c);
        let c_wire = Fault::sa0(Wire { gate: f, pin: 1 });
        assert!(checker.check(c_wire, ImplyOptions::default()).is_ok());
        checker.remove_wire(Wire { gate: ab, pin: 0 });
        checker.remove_wire(Wire { gate: ab, pin: 0 });
        assert_eq!(
            checker.check(c_wire, ImplyOptions::default()),
            Err(UntestableReason::ImplicationConflict)
        );
    }

    /// Every AND/OR wire of the circuit: the removal candidates.
    fn removable_wires(c: &Circuit) -> Vec<Wire> {
        all_faults(c)
            .into_iter()
            .filter(|f| f.stuck && matches!(c.kind(f.wire.gate), GateKind::And | GateKind::Or))
            .map(|f| f.wire)
            .collect()
    }

    /// The truth-table screen calls a removal testable exactly when
    /// exhaustive simulation finds a test for its fault, on one- and
    /// multi-word tables and across removals that empty gates into
    /// constants.
    #[test]
    fn truth_screen_matches_exhaustive_testability() {
        let mut rng = Rng(0x7AB1_E5C4_EE17);
        let mut verdicts = [0usize; 2];
        for _ in 0..120 {
            let inputs = 1 + rng.below(10);
            let mut checker = FaultChecker::new(random_circuit_over(&mut rng, inputs));
            let mut screen = TruthScreen::new(checker.circuit()).expect("at most ten inputs");
            for _ in 0..4 {
                let wires = removable_wires(checker.circuit());
                for &wire in &wires {
                    let stuck = checker.circuit().kind(wire.gate) == GateKind::And;
                    let want = is_testable_exhaustive(checker.circuit(), Fault { wire, stuck });
                    assert_eq!(
                        screen.removal_is_testable(&checker, wire),
                        want,
                        "{wire:?} over {inputs} inputs"
                    );
                    verdicts[usize::from(want)] += 1;
                }
                if wires.is_empty() {
                    break;
                }
                // Remove a few wires, sound or not; the tables follow.
                for _ in 0..3 {
                    let w = wires[rng.below(wires.len())];
                    if w.pin < checker.circuit().fanins(w.gate).len() {
                        checker.remove_wire(w);
                        screen.resimulate(&checker, w.gate);
                    }
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 200), "{verdicts:?}");
        let mut wide = Circuit::new();
        let ins: Vec<GateId> = (0..11).map(|_| wide.add_input()).collect();
        let g = wide.add_and(ins);
        wide.add_output(g);
        assert!(
            TruthScreen::new(&wide).is_none(),
            "eleven inputs are not screened"
        );
    }

    /// A random SOP division region in the paper's shape: literal gates,
    /// a divisor `d` and a dividend `f'` as AND–OR structures, and the
    /// output `f'·d`, with the literal and cube wires of `f'` as removal
    /// candidates.
    fn random_region(rng: &mut Rng) -> (Circuit, Vec<CandidateWire>) {
        let mut c = Circuit::new();
        let inputs: Vec<GateId> = (0..3 + rng.below(10)).map(|_| c.add_input()).collect();
        let mut lits = inputs.clone();
        for &i in &inputs {
            lits.push(c.add_not(i));
        }
        let cover = |c: &mut Circuit, rng: &mut Rng, cubes: usize| -> (GateId, Vec<GateId>) {
            let cubes: Vec<GateId> = (0..cubes)
                .map(|_| {
                    let k = 1 + rng.below(3);
                    c.add_and(pick(rng, &lits, k))
                })
                .collect();
            (c.add_or(cubes.clone()), cubes)
        };
        let d_cubes = 1 + rng.below(3);
        let (d, _) = cover(&mut c, rng, d_cubes);
        let f_cubes = 2 + rng.below(4);
        let (fprime, f_cubes) = cover(&mut c, rng, f_cubes);
        let bold = c.add_and(vec![fprime, d]);
        c.add_output(bold);
        let mut candidates = Vec::new();
        for &cube in &f_cubes {
            for &driver in c.fanins(cube) {
                candidates.push(CandidateWire { sink: cube, driver });
            }
            candidates.push(CandidateWire {
                sink: fprime,
                driver: cube,
            });
        }
        (c, candidates)
    }

    #[test]
    fn removal_matches_reference_on_division_regions() {
        let mut rng = Rng(0xD1_5EA5E);
        let mut removed = 0usize;
        for _ in 0..300 {
            let (circuit, candidates) = random_region(&mut rng);
            for learn_depth in [0, 1] {
                for (max_checks, exact_budget) in [(0, 0), (3, 0), (0, 64), (3, 64)] {
                    let opts = RemovalOptions {
                        imply: ImplyOptions { learn_depth },
                        exact_budget,
                        max_checks,
                    };
                    let mut want_c = circuit.clone();
                    let want =
                        reference::remove_redundant_wires_with(&mut want_c, &candidates, &opts, 3);
                    let mut got_c = circuit.clone();
                    let got = remove_redundant_wires_with(&mut got_c, &candidates, &opts, 3);
                    assert_eq!(got.removed, want.removed);
                    assert_eq!(got.checks, want.checks);
                    assert_eq!(got.budget_exhausted, want.budget_exhausted);
                    for g in circuit.gate_ids() {
                        assert_eq!(got_c.fanins(g), want_c.fanins(g));
                    }
                    removed += got.removed.len();
                }
            }
        }
        assert!(removed > 100, "regions too easy to be a pin: {removed}");
    }
}
