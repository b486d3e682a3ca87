//! Stuck-at faults, the one-shot implication-based untestability (=
//! redundancy) check, and an exhaustive oracle for small circuits.

use crate::{Circuit, FaultChecker, ImplyOptions, Value, Wire};

/// A single stuck-at fault on a wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The faulted wire (input pin of a gate).
    pub wire: Wire,
    /// The stuck value.
    pub stuck: bool,
}

impl Fault {
    /// Stuck-at-1 on `wire`.
    #[must_use]
    pub fn sa1(wire: Wire) -> Fault {
        Fault { wire, stuck: true }
    }

    /// Stuck-at-0 on `wire`.
    #[must_use]
    pub fn sa0(wire: Wire) -> Fault {
        Fault { wire, stuck: false }
    }
}

/// Why a fault was proven untestable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UntestableReason {
    /// The fault site cannot reach any observation point.
    Unobservable,
    /// The mandatory assignments are contradictory.
    ImplicationConflict,
}

/// Result of [`check_fault`].
#[derive(Debug, Clone)]
pub enum FaultStatus {
    /// Proven untestable — the wire is redundant.
    Untestable(UntestableReason),
    /// Not proven untestable: the closure of mandatory assignments, for
    /// callers that want to inspect implied values (e.g. the extended
    /// division vote).
    PossiblyTestable(Vec<Value>),
}

impl FaultStatus {
    /// True if the fault was proven untestable.
    #[must_use]
    pub fn is_untestable(&self) -> bool {
        matches!(self, FaultStatus::Untestable(_))
    }
}

/// Implication-based untestability check for a stuck-at fault: seeds the
/// mandatory assignments and runs the implication engine (with optional
/// recursive learning). A conflict proves the fault untestable, i.e. the
/// wire may be replaced by the stuck value.
///
/// The check is *sound but incomplete*: `PossiblyTestable` does not
/// guarantee a test exists. This is the one-shot form of
/// [`FaultChecker::check`]; callers checking several faults of one
/// circuit should build the checker once instead.
#[must_use]
pub fn check_fault(circuit: &Circuit, fault: Fault, opts: ImplyOptions) -> FaultStatus {
    match FaultChecker::new(circuit.clone()).check(fault, opts) {
        Ok(values) => FaultStatus::PossiblyTestable(values.to_vec()),
        Err(reason) => FaultStatus::Untestable(reason),
    }
}

/// Exhaustive testability oracle: simulates all `2^n` input assignments of
/// good and faulty circuits and compares the observation points. Exact but
/// exponential; used to validate [`check_fault`] in tests.
///
/// # Panics
///
/// Panics if the circuit has more than 22 inputs.
#[must_use]
pub fn is_testable_exhaustive(circuit: &Circuit, fault: Fault) -> bool {
    let n = circuit.num_inputs();
    assert!(n <= 22, "exhaustive testability limited to 22 inputs");
    let mut inputs = vec![false; n];
    for m in 0u64..(1u64 << n) {
        for (i, slot) in inputs.iter_mut().enumerate() {
            *slot = (m >> i) & 1 == 1;
        }
        let good = circuit.eval(&inputs);
        let bad = circuit.eval_faulty(&inputs, fault.wire, fault.stuck);
        if circuit
            .outputs()
            .iter()
            .any(|o| good[o.index()] != bad[o.index()])
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateId;

    /// The classical irredundant/redundant pair: f = ab + a'c, adding the
    /// consensus cube bc makes each of its wires redundant.
    fn consensus_circuit() -> (Circuit, GateId, GateId) {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cc = c.add_input();
        let na = c.add_not(a);
        let ab = c.add_and(vec![a, b]);
        let nac = c.add_and(vec![na, cc]);
        let bc = c.add_and(vec![b, cc]); // consensus cube: redundant
        let f = c.add_or(vec![ab, nac, bc]);
        c.add_output(f);
        (c, bc, f)
    }

    #[test]
    fn consensus_cube_wire_is_redundant() {
        let (c, _bc, f) = consensus_circuit();
        // Wire bc → f (pin 2) stuck-at-0: removing the consensus cube.
        let fault = Fault::sa0(Wire { gate: f, pin: 2 });
        assert!(!is_testable_exhaustive(&c, fault));
        let status = check_fault(&c, fault, ImplyOptions::default());
        assert!(
            status.is_untestable(),
            "implications should find the conflict"
        );
    }

    #[test]
    fn irredundant_wires_stay() {
        let (c, _bc, f) = consensus_circuit();
        for pin in 0..2 {
            let fault = Fault::sa0(Wire { gate: f, pin });
            assert!(is_testable_exhaustive(&c, fault));
            let status = check_fault(&c, fault, ImplyOptions::default());
            assert!(
                !status.is_untestable(),
                "pin {pin} wrongly declared redundant"
            );
        }
    }

    #[test]
    fn literal_redundancy_inside_cube() {
        // f = ab + ab'. The literal b (pin 1 of the first AND) is
        // redundant: f == a. Fault: b→ab stuck-at-1.
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let nb = c.add_not(b);
        let ab = c.add_and(vec![a, b]);
        let abn = c.add_and(vec![a, nb]);
        let f = c.add_or(vec![ab, abn]);
        c.add_output(f);
        let fault = Fault::sa1(Wire { gate: ab, pin: 1 });
        assert!(!is_testable_exhaustive(&c, fault));
        let status = check_fault(&c, fault, ImplyOptions::default());
        assert!(status.is_untestable());
    }

    #[test]
    fn unobservable_fault() {
        let mut c = Circuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let ab = c.add_and(vec![a, b]);
        let dead = c.add_or(vec![ab]); // not an output, no fanout
        let f = c.add_buf(ab);
        c.add_output(f);
        let fault = Fault::sa1(Wire { gate: dead, pin: 0 });
        let status = check_fault(&c, fault, ImplyOptions::default());
        assert!(matches!(
            status,
            FaultStatus::Untestable(UntestableReason::Unobservable)
        ));
    }

    #[test]
    fn soundness_random_circuits() {
        // Whenever check_fault says untestable, the oracle must agree.
        let mut seed = 0xDEAD_BEEFu64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..40 {
            let mut c = Circuit::new();
            let mut pool: Vec<GateId> = (0..5).map(|_| c.add_input()).collect();
            for _ in 0..8 {
                let k = (rnd() % 3 + 1) as usize;
                let mut ins = Vec::new();
                for _ in 0..k {
                    ins.push(pool[(rnd() as usize) % pool.len()]);
                }
                ins.dedup();
                let g = match rnd() % 3 {
                    0 => c.add_and(ins),
                    1 => c.add_or(ins),
                    _ => c.add_not(ins[0]),
                };
                pool.push(g);
            }
            let out = *pool.last().expect("nonempty");
            c.add_output(out);
            for g in c.gate_ids() {
                for pin in 0..c.fanins(g).len() {
                    for stuck in [false, true] {
                        let fault = Fault {
                            wire: Wire { gate: g, pin },
                            stuck,
                        };
                        let status = check_fault(&c, fault, ImplyOptions::default());
                        if status.is_untestable() {
                            assert!(
                                !is_testable_exhaustive(&c, fault),
                                "unsound redundancy claim"
                            );
                        }
                    }
                }
            }
        }
    }
}
