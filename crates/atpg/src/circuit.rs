//! Gate-level circuit view used by the implication engine and redundancy
//! machinery. Gates are AND/OR/NOT/BUF/constants over a DAG; wires are
//! (gate, pin) pairs.

use std::fmt;

/// Identifier of a gate in a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) usize);

impl GateId {
    /// Raw index, for dense side tables.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Kind of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Free input of the circuit (primary input or cut point).
    Input,
    /// Constant 0.
    Const0,
    /// Constant 1.
    Const1,
    /// Inverter (exactly one fanin).
    Not,
    /// Buffer (exactly one fanin).
    Buf,
    /// AND of all fanins (0 fanins ⇒ constant 1).
    And,
    /// OR of all fanins (0 fanins ⇒ constant 0).
    Or,
}

impl GateKind {
    /// The controlling input value of the gate, if it has one (0 for AND,
    /// 1 for OR).
    #[must_use]
    pub fn controlling(self) -> Option<bool> {
        match self {
            GateKind::And => Some(false),
            GateKind::Or => Some(true),
            _ => None,
        }
    }
}

/// A wire: pin `pin` of gate `gate` (i.e. the connection from
/// `fanins[pin]` into `gate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wire {
    /// The sink gate.
    pub gate: GateId,
    /// The fanin position within the sink gate.
    pub pin: usize,
}

#[derive(Debug, Clone)]
struct Gate {
    kind: GateKind,
    fanins: Vec<GateId>,
}

/// A combinational gate-level circuit with designated observation points.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    gates: Vec<Gate>,
    outputs: Vec<GateId>,
}

impl Circuit {
    /// Creates an empty circuit.
    #[must_use]
    pub fn new() -> Circuit {
        Circuit::default()
    }

    /// Adds a free input gate.
    pub fn add_input(&mut self) -> GateId {
        self.push(GateKind::Input, Vec::new())
    }

    /// Adds a constant gate.
    pub fn add_const(&mut self, value: bool) -> GateId {
        self.push(
            if value {
                GateKind::Const1
            } else {
                GateKind::Const0
            },
            Vec::new(),
        )
    }

    /// Adds an inverter.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn add_not(&mut self, input: GateId) -> GateId {
        assert!(input.0 < self.gates.len(), "fanin out of range");
        self.push(GateKind::Not, vec![input])
    }

    /// Adds a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn add_buf(&mut self, input: GateId) -> GateId {
        assert!(input.0 < self.gates.len(), "fanin out of range");
        self.push(GateKind::Buf, vec![input])
    }

    /// Adds an AND gate over `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if any fanin is out of range.
    pub fn add_and(&mut self, inputs: Vec<GateId>) -> GateId {
        assert!(
            inputs.iter().all(|g| g.0 < self.gates.len()),
            "fanin out of range"
        );
        self.push(GateKind::And, inputs)
    }

    /// Adds an OR gate over `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if any fanin is out of range.
    pub fn add_or(&mut self, inputs: Vec<GateId>) -> GateId {
        assert!(
            inputs.iter().all(|g| g.0 < self.gates.len()),
            "fanin out of range"
        );
        self.push(GateKind::Or, inputs)
    }

    fn push(&mut self, kind: GateKind, fanins: Vec<GateId>) -> GateId {
        let id = GateId(self.gates.len());
        self.gates.push(Gate { kind, fanins });
        id
    }

    /// Declares a gate as an observation point (primary output).
    ///
    /// # Panics
    ///
    /// Panics if the gate is out of range.
    pub fn add_output(&mut self, gate: GateId) {
        assert!(gate.0 < self.gates.len(), "gate out of range");
        self.outputs.push(gate);
    }

    /// Observation points.
    #[must_use]
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Number of gates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if there are no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Kind of gate `g`.
    #[must_use]
    pub fn kind(&self, g: GateId) -> GateKind {
        self.gates[g.0].kind
    }

    /// Fanins of gate `g`.
    #[must_use]
    pub fn fanins(&self, g: GateId) -> &[GateId] {
        &self.gates[g.0].fanins
    }

    /// All gate ids in creation (= topological) order. Construction only
    /// allows references to existing gates, so creation order is
    /// topological by construction.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> {
        (0..self.gates.len()).map(GateId)
    }

    /// Fanout lists for every gate, as wires.
    #[must_use]
    pub fn fanout_wires(&self) -> Vec<Vec<Wire>> {
        let mut out = vec![Vec::new(); self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            for (pin, &f) in gate.fanins.iter().enumerate() {
                out[f.0].push(Wire {
                    gate: GateId(i),
                    pin,
                });
            }
        }
        out
    }

    /// Fanout lists for every gate, as sink gates (one entry per wire).
    pub(crate) fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut out = vec![Vec::new(); self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            for &f in &gate.fanins {
                out[f.0].push(GateId(i));
            }
        }
        out
    }

    /// Removes pin `w.pin` from gate `w.gate`. Later pins shift down by
    /// one. The gate's semantics must make the removal meaningful (the
    /// caller proves redundancy first).
    ///
    /// # Panics
    ///
    /// Panics if the wire does not exist or the gate is not AND/OR.
    pub fn remove_wire(&mut self, w: Wire) {
        let gate = &mut self.gates[w.gate.0];
        assert!(
            matches!(gate.kind, GateKind::And | GateKind::Or),
            "can only remove wires from AND/OR gates"
        );
        assert!(w.pin < gate.fanins.len(), "pin out of range");
        gate.fanins.remove(w.pin);
    }

    /// Appends `driver` as a new fanin of AND/OR gate `gate` (the
    /// redundancy-addition move; the caller proves the new wire redundant
    /// before keeping it).
    ///
    /// # Panics
    ///
    /// Panics if the gate is not AND/OR, the driver does not precede the
    /// gate in creation order, or the driver is already a fanin.
    pub fn add_fanin(&mut self, gate: GateId, driver: GateId) {
        assert!(driver.0 < gate.0, "driver must precede the sink gate");
        let g = &mut self.gates[gate.0];
        assert!(
            matches!(g.kind, GateKind::And | GateKind::Or),
            "can only add wires to AND/OR gates"
        );
        assert!(!g.fanins.contains(&driver), "wire already exists");
        g.fanins.push(driver);
    }

    /// Evaluates the circuit under an assignment of the [`GateKind::Input`]
    /// gates, given in creation order of the inputs. Returns all gate
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than the number of input gates.
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let mut values = vec![false; self.gates.len()];
        let mut next_input = 0;
        for (i, gate) in self.gates.iter().enumerate() {
            values[i] = match gate.kind {
                GateKind::Input => {
                    let v = inputs[next_input];
                    next_input += 1;
                    v
                }
                GateKind::Const0 => false,
                GateKind::Const1 => true,
                GateKind::Not => !values[gate.fanins[0].0],
                GateKind::Buf => values[gate.fanins[0].0],
                GateKind::And => gate.fanins.iter().all(|f| values[f.0]),
                GateKind::Or => gate.fanins.iter().any(|f| values[f.0]),
            };
        }
        values
    }

    /// Evaluates with a stuck-at fault injected on a wire: the sink gate
    /// sees `stuck` on that pin regardless of the driver value.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is too short or the wire is invalid.
    #[must_use]
    pub fn eval_faulty(&self, inputs: &[bool], fault_wire: Wire, stuck: bool) -> Vec<bool> {
        let mut values = vec![false; self.gates.len()];
        let mut next_input = 0;
        for (i, gate) in self.gates.iter().enumerate() {
            let pick = |f: GateId, pin: usize| -> bool {
                if fault_wire.gate.0 == i && fault_wire.pin == pin {
                    stuck
                } else {
                    values[f.0]
                }
            };
            values[i] = match gate.kind {
                GateKind::Input => {
                    let v = inputs[next_input];
                    next_input += 1;
                    v
                }
                GateKind::Const0 => false,
                GateKind::Const1 => true,
                GateKind::Not => !pick(gate.fanins[0], 0),
                GateKind::Buf => pick(gate.fanins[0], 0),
                GateKind::And => gate.fanins.iter().enumerate().all(|(pin, &f)| pick(f, pin)),
                GateKind::Or => gate.fanins.iter().enumerate().any(|(pin, &f)| pick(f, pin)),
            };
        }
        values
    }

    /// Number of [`GateKind::Input`] gates.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind == GateKind::Input)
            .count()
    }

    /// Transitive fanout gates of `g` (excluding `g`), as a dense boolean
    /// mask indexed by gate id.
    #[must_use]
    pub fn tfo_mask(&self, g: GateId) -> Vec<bool> {
        let fanouts = self.fanout_wires();
        let mut mask = vec![false; self.gates.len()];
        let mut stack: Vec<GateId> = fanouts[g.0].iter().map(|w| w.gate).collect();
        while let Some(x) = stack.pop() {
            if mask[x.0] {
                continue;
            }
            mask[x.0] = true;
            stack.extend(fanouts[x.0].iter().map(|w| w.gate));
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds f = (a·b) + c with outputs on f.
    fn small() -> (Circuit, GateId, GateId, GateId, GateId, GateId) {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let ab = c.add_and(vec![a, b]);
        let f = c.add_or(vec![ab, cc]);
        c.add_output(f);
        (c, a, b, cc, ab, f)
    }

    #[test]
    fn eval_good() {
        let (c, .., f) = small();
        assert!(c.eval(&[true, true, false])[f.0]);
        assert!(!c.eval(&[true, false, false])[f.0]);
        assert!(c.eval(&[false, false, true])[f.0]);
    }

    #[test]
    fn eval_faulty_wire() {
        let (c, .., ab, f) = small();
        // Fault: pin 0 of the OR (the ab wire) stuck at 1 ⇒ f constant 1.
        let w = Wire { gate: f, pin: 0 };
        let vals = c.eval_faulty(&[false, false, false], w, true);
        assert!(vals[f.0]);
        // The ab gate itself still evaluates normally.
        assert!(!vals[ab.0]);
    }

    #[test]
    fn tfo_mask_reaches_outputs() {
        let (c, a, _b, _cc, ab, f) = small();
        let mask = c.tfo_mask(a);
        assert!(mask[ab.0]);
        assert!(mask[f.0]);
        assert!(!mask[a.0]);
    }

    #[test]
    fn remove_wire_shifts_pins() {
        let (mut c, _a, _b, _cc, _ab, f) = small();
        c.remove_wire(Wire { gate: f, pin: 0 });
        assert_eq!(c.fanins(f).len(), 1);
        // f is now just c.
        assert!(c.eval(&[true, true, false]).last().copied() != Some(true));
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling(), Some(false));
        assert_eq!(GateKind::Or.controlling(), Some(true));
        assert_eq!(GateKind::Not.controlling(), None);
    }
}
