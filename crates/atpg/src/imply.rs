//! Event-driven three-valued implication engine with optional recursive
//! learning (Kunz–Pradhan style), the workhorse behind redundancy
//! identification.

use crate::{Circuit, GateId, GateKind};

/// Three-valued logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Value {
    /// Not (yet) determined.
    #[default]
    Unknown,
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
}

impl Value {
    /// Wraps a Boolean.
    #[must_use]
    pub fn from_bool(b: bool) -> Value {
        if b {
            Value::One
        } else {
            Value::Zero
        }
    }

    /// Unwraps to a Boolean if determined.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Value::Unknown => None,
            Value::Zero => Some(false),
            Value::One => Some(true),
        }
    }

    /// Logical negation (Unknown stays Unknown).
    #[allow(clippy::should_implement_trait)] // three-valued, not std `Not`
    #[must_use]
    pub fn not(self) -> Value {
        match self {
            Value::Unknown => Value::Unknown,
            Value::Zero => Value::One,
            Value::One => Value::Zero,
        }
    }
}

/// A contradiction discovered during implication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// The gate at which opposite values met.
    pub gate: GateId,
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "implication conflict at {}", self.gate)
    }
}

impl std::error::Error for Conflict {}

/// Options for [`Implier::imply`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ImplyOptions {
    /// Recursive-learning depth (0 = plain direct implications). Depth 1
    /// corresponds to the paper's "exhaustive" don't-care extraction knob.
    pub learn_depth: u8,
}

/// The implication engine. Holds precomputed fanout lists for a circuit.
#[derive(Debug)]
pub struct Implier<'c> {
    circuit: &'c Circuit,
    fanouts: Vec<Vec<GateId>>,
    constants: Vec<(GateId, Value)>,
}

impl<'c> Implier<'c> {
    /// Prepares an engine for `circuit`.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> Implier<'c> {
        let constants = circuit
            .gate_ids()
            .filter_map(|g| match circuit.kind(g) {
                GateKind::Const0 => Some((g, Value::Zero)),
                GateKind::Const1 => Some((g, Value::One)),
                _ => None,
            })
            .collect();
        Implier {
            circuit,
            fanouts: circuit.fanouts(),
            constants,
        }
    }

    fn rules(&self) -> Rules<'_> {
        Rules {
            circuit: self.circuit,
            fanouts: &self.fanouts,
        }
    }

    /// The circuit this engine works on.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// Runs implications to fixpoint from the given seed assignments.
    ///
    /// `values` must have one entry per gate; seeds are the non-Unknown
    /// entries. On success `values` contains the closure of forced values;
    /// on conflict the partially-updated `values` must be discarded.
    ///
    /// # Errors
    ///
    /// Returns [`Conflict`] if the seeds are contradictory.
    pub fn imply(&self, values: &mut [Value], opts: ImplyOptions) -> Result<(), Conflict> {
        self.rules().imply(values, opts)
    }

    /// Assigns `v` to gate `g` and runs implications from there.
    ///
    /// # Errors
    ///
    /// Returns [`Conflict`] on contradiction.
    pub fn assign_and_imply(
        &self,
        values: &mut [Value],
        g: GateId,
        v: bool,
        opts: ImplyOptions,
    ) -> Result<(), Conflict> {
        let rules = self.rules();
        let mut queue = Vec::new();
        // Seeding the constants conflicts only if the caller pre-assigned
        // a contradictory value.
        for &(c, cv) in &self.constants {
            rules.assign(values, c, cv, &mut queue)?;
        }
        rules.assign(values, g, Value::from_bool(v), &mut queue)?;
        rules.propagate(values, &mut queue)?;
        if opts.learn_depth > 0 {
            rules.learn(values, opts.learn_depth)?;
        }
        Ok(())
    }
}

/// The implication rules over one circuit and its gate-level fanout
/// lists. [`Implier`] and [`FaultChecker`](crate::FaultChecker) own the
/// lists and lend them here, so both run the same rules.
#[derive(Clone, Copy)]
pub(crate) struct Rules<'a> {
    pub(crate) circuit: &'a Circuit,
    pub(crate) fanouts: &'a [Vec<GateId>],
}

impl Rules<'_> {
    /// Full pass: queues every gate, propagates to fixpoint, then runs
    /// recursive learning at `opts.learn_depth`.
    pub(crate) fn imply(self, values: &mut [Value], opts: ImplyOptions) -> Result<(), Conflict> {
        assert_eq!(
            values.len(),
            self.circuit.len(),
            "value table size mismatch"
        );
        let mut queue: Vec<GateId> = self.circuit.gate_ids().collect();
        self.propagate(values, &mut queue)?;
        if opts.learn_depth > 0 {
            self.learn(values, opts.learn_depth)?;
        }
        Ok(())
    }

    /// Sets `g` to `v` and queues it with its fanouts; a no-op if `g`
    /// already holds `v`.
    pub(crate) fn assign(
        self,
        values: &mut [Value],
        g: GateId,
        v: Value,
        queue: &mut Vec<GateId>,
    ) -> Result<(), Conflict> {
        debug_assert_ne!(v, Value::Unknown);
        match values[g.index()] {
            Value::Unknown => {
                values[g.index()] = v;
                queue.push(g);
                queue.extend_from_slice(&self.fanouts[g.index()]);
                Ok(())
            }
            old if old == v => Ok(()),
            _ => Err(Conflict { gate: g }),
        }
    }

    /// Worklist fixpoint of direct (forward + backward) implications.
    pub(crate) fn propagate(
        self,
        values: &mut [Value],
        queue: &mut Vec<GateId>,
    ) -> Result<(), Conflict> {
        while let Some(g) = queue.pop() {
            self.imply_at(values, g, queue)?;
        }
        Ok(())
    }

    /// Local implication rules at gate `g`.
    fn imply_at(
        self,
        values: &mut [Value],
        g: GateId,
        queue: &mut Vec<GateId>,
    ) -> Result<(), Conflict> {
        let kind = self.circuit.kind(g);
        let fanins = self.circuit.fanins(g);
        let out = values[g.index()];

        // Forward implication: derive the output from the fanins.
        let forward = match kind {
            GateKind::Input => Value::Unknown,
            GateKind::Const0 => Value::Zero,
            GateKind::Const1 => Value::One,
            GateKind::Buf => values[fanins[0].index()],
            GateKind::Not => values[fanins[0].index()].not(),
            GateKind::And => {
                if fanins.iter().any(|f| values[f.index()] == Value::Zero) {
                    Value::Zero
                } else if fanins.iter().all(|f| values[f.index()] == Value::One) {
                    Value::One
                } else {
                    Value::Unknown
                }
            }
            GateKind::Or => {
                if fanins.iter().any(|f| values[f.index()] == Value::One) {
                    Value::One
                } else if fanins.iter().all(|f| values[f.index()] == Value::Zero) {
                    Value::Zero
                } else {
                    Value::Unknown
                }
            }
        };
        if forward != Value::Unknown {
            self.assign(values, g, forward, queue)?;
        }

        // Backward implication: derive fanin values from a known output.
        let out = if out == Value::Unknown {
            values[g.index()]
        } else {
            out
        };
        if out == Value::Unknown {
            return Ok(());
        }
        match (kind, out) {
            (GateKind::Buf, v) => {
                self.assign(values, fanins[0], v, queue)?;
            }
            (GateKind::Not, v) => {
                self.assign(values, fanins[0], v.not(), queue)?;
            }
            (GateKind::And, Value::One) => {
                for &f in fanins {
                    self.assign(values, f, Value::One, queue)?;
                }
            }
            (GateKind::Or, Value::Zero) => {
                for &f in fanins {
                    self.assign(values, f, Value::Zero, queue)?;
                }
            }
            (GateKind::And, Value::Zero) => {
                // If all fanins but one are 1, the remaining one must be 0.
                let mut unknown = None;
                let mut all_one = true;
                for &f in fanins {
                    match values[f.index()] {
                        Value::One => {}
                        Value::Zero => {
                            all_one = false;
                            unknown = None;
                            break;
                        }
                        Value::Unknown => {
                            if unknown.is_some() {
                                all_one = false;
                                unknown = None;
                                break;
                            }
                            unknown = Some(f);
                        }
                    }
                }
                if let Some(f) = unknown {
                    self.assign(values, f, Value::Zero, queue)?;
                } else if all_one && !fanins.is_empty() {
                    // All fanins 1 but output 0: contradiction (forward
                    // implication also catches this; keep for clarity).
                    return Err(Conflict { gate: g });
                } else if fanins.is_empty() {
                    return Err(Conflict { gate: g }); // AND() ≡ 1
                }
            }
            (GateKind::Or, Value::One) => {
                let mut unknown = None;
                let mut all_zero = true;
                for &f in fanins {
                    match values[f.index()] {
                        Value::Zero => {}
                        Value::One => {
                            all_zero = false;
                            unknown = None;
                            break;
                        }
                        Value::Unknown => {
                            if unknown.is_some() {
                                all_zero = false;
                                unknown = None;
                                break;
                            }
                            unknown = Some(f);
                        }
                    }
                }
                if let Some(f) = unknown {
                    self.assign(values, f, Value::One, queue)?;
                } else if all_zero && !fanins.is_empty() {
                    return Err(Conflict { gate: g });
                } else if fanins.is_empty() {
                    return Err(Conflict { gate: g }); // OR() ≡ 0
                }
            }
            (GateKind::Const0, Value::One) | (GateKind::Const1, Value::Zero) => {
                return Err(Conflict { gate: g });
            }
            _ => {}
        }
        Ok(())
    }

    /// One round of recursive learning at the given depth: for every
    /// unjustified gate, try each justification; values common to all
    /// non-conflicting branches are learned, and if every branch conflicts
    /// the current assignment is itself contradictory.
    pub(crate) fn learn(self, values: &mut [Value], depth: u8) -> Result<(), Conflict> {
        loop {
            let mut learned_any = false;
            for g in self.circuit.gate_ids() {
                let Some(options) = self.justification_options(values, g) else {
                    continue;
                };
                let mut surviving: Option<Vec<Value>> = None;
                let mut all_conflict = true;
                for (f, v) in &options {
                    let mut trial: Vec<Value> = values.to_vec();
                    let sub = ImplyOptions {
                        learn_depth: depth - 1,
                    };
                    let mut queue = Vec::new();
                    let r = self
                        .assign(&mut trial, *f, *v, &mut queue)
                        .and_then(|()| self.propagate(&mut trial, &mut queue))
                        .and_then(|()| {
                            if depth > 1 {
                                self.learn(&mut trial, sub.learn_depth)
                            } else {
                                Ok(())
                            }
                        });
                    if r.is_err() {
                        continue;
                    }
                    all_conflict = false;
                    surviving = Some(match surviving {
                        None => trial,
                        Some(prev) => prev
                            .iter()
                            .zip(&trial)
                            .map(|(&a, &b)| if a == b { a } else { Value::Unknown })
                            .collect(),
                    });
                }
                if all_conflict {
                    return Err(Conflict { gate: g });
                }
                if let Some(common) = surviving {
                    let mut queue = Vec::new();
                    for (i, &newv) in common.iter().enumerate() {
                        if newv != Value::Unknown && values[i] == Value::Unknown {
                            self.assign(values, GateId(i), newv, &mut queue)?;
                            learned_any = true;
                        }
                    }
                    self.propagate(values, &mut queue)?;
                }
            }
            if !learned_any {
                return Ok(());
            }
        }
    }

    /// If gate `g` is *unjustified* (its known output is not yet forced by
    /// its fanins), returns the list of single-fanin assignments that could
    /// justify it. Returns `None` for justified or undetermined gates.
    fn justification_options(self, values: &[Value], g: GateId) -> Option<Vec<(GateId, Value)>> {
        let out = values[g.index()].to_bool()?;
        let fanins = self.circuit.fanins(g);
        match (self.circuit.kind(g), out) {
            (GateKind::And, false) => {
                if fanins.iter().any(|f| values[f.index()] == Value::Zero) {
                    return None; // already justified
                }
                let opts: Vec<(GateId, Value)> = fanins
                    .iter()
                    .filter(|f| values[f.index()] == Value::Unknown)
                    .map(|&f| (f, Value::Zero))
                    .collect();
                (opts.len() > 1).then_some(opts)
            }
            (GateKind::Or, true) => {
                if fanins.iter().any(|f| values[f.index()] == Value::One) {
                    return None;
                }
                let opts: Vec<(GateId, Value)> = fanins
                    .iter()
                    .filter(|f| values[f.index()] == Value::Unknown)
                    .map(|&f| (f, Value::One))
                    .collect();
                (opts.len() > 1).then_some(opts)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f = (a·b) + c, g = (a·b)·d — shares the AND.
    fn shared() -> (Circuit, [GateId; 7]) {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let d = c.add_input();
        let ab = c.add_and(vec![a, b]);
        let f = c.add_or(vec![ab, cc]);
        let g = c.add_and(vec![ab, d]);
        c.add_output(f);
        c.add_output(g);
        (c, [a, b, cc, d, ab, f, g])
    }

    #[test]
    fn forward_and_backward() {
        let (c, [a, b, _cc, _d, ab, _f, g]) = shared();
        let imp = Implier::new(&c);
        let mut values = vec![Value::Unknown; c.len()];
        // g = 1 forces ab = 1, d = 1, a = 1, b = 1.
        imp.assign_and_imply(&mut values, g, true, ImplyOptions::default())
            .expect("consistent");
        assert_eq!(values[ab.index()], Value::One);
        assert_eq!(values[a.index()], Value::One);
        assert_eq!(values[b.index()], Value::One);
    }

    #[test]
    fn or_last_remaining() {
        let (c, [_a, _b, cc, _d, ab, f, _g]) = shared();
        let imp = Implier::new(&c);
        let mut values = vec![Value::Unknown; c.len()];
        imp.assign_and_imply(&mut values, f, true, ImplyOptions::default())
            .expect("consistent");
        // Not determined yet — two ways to justify f.
        assert_eq!(values[cc.index()], Value::Unknown);
        imp.assign_and_imply(&mut values, ab, false, ImplyOptions::default())
            .expect("consistent");
        assert_eq!(values[cc.index()], Value::One);
    }

    #[test]
    fn conflict_detected() {
        let (c, [a, _b, _cc, _d, ab, _f, _g]) = shared();
        let imp = Implier::new(&c);
        let mut values = vec![Value::Unknown; c.len()];
        imp.assign_and_imply(&mut values, ab, true, ImplyOptions::default())
            .expect("consistent");
        let r = imp.assign_and_imply(&mut values, a, false, ImplyOptions::default());
        assert!(r.is_err());
    }

    #[test]
    fn constants_imply() {
        let mut c = Circuit::new();
        let k0 = c.add_const(false);
        let x = c.add_input();
        let f = c.add_or(vec![k0, x]);
        c.add_output(f);
        let imp = Implier::new(&c);
        let mut values = vec![Value::Unknown; c.len()];
        imp.assign_and_imply(&mut values, f, true, ImplyOptions::default())
            .expect("consistent");
        // k0 = 0 so x must be 1.
        assert_eq!(values[x.index()], Value::One);
    }

    #[test]
    fn recursive_learning_finds_common_implication() {
        // Classic example: f = (a·b) + (a·c); f = 1 implies a = 1 only via
        // learning (each justification branch sets a = 1).
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let ab = c.add_and(vec![a, b]);
        let ac = c.add_and(vec![a, cc]);
        let f = c.add_or(vec![ab, ac]);
        c.add_output(f);
        let imp = Implier::new(&c);

        let mut plain = vec![Value::Unknown; c.len()];
        imp.assign_and_imply(&mut plain, f, true, ImplyOptions::default())
            .expect("consistent");
        assert_eq!(plain[a.index()], Value::Unknown);

        let mut learned = vec![Value::Unknown; c.len()];
        imp.assign_and_imply(&mut learned, f, true, ImplyOptions { learn_depth: 1 })
            .expect("consistent");
        assert_eq!(learned[a.index()], Value::One);
    }

    #[test]
    fn learning_detects_deep_conflict() {
        // f = (a·b) + (a·c), a = 0 and f = 1 conflict only via learning.
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let ab = c.add_and(vec![a, b]);
        let ac = c.add_and(vec![a, cc]);
        let f = c.add_or(vec![ab, ac]);
        c.add_output(f);
        let imp = Implier::new(&c);
        let mut values = vec![Value::Unknown; c.len()];
        imp.assign_and_imply(&mut values, a, false, ImplyOptions::default())
            .expect("consistent");
        let r = imp.assign_and_imply(&mut values, f, true, ImplyOptions { learn_depth: 1 });
        assert!(r.is_err(), "learning should refute f=1 under a=0");
    }
}
