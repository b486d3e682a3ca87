//! The fault check as it stood before [`crate::FaultChecker`], kept
//! verbatim as the differential-test reference: per-check fanout lists, a
//! per-gate dominator bitset, and a full implication pass.

use crate::search::check_fault_exact;
use crate::{
    CandidateWire, Circuit, Fault, FaultStatus, GateId, GateKind, Implier, ImplyOptions,
    RemovalOptions, RemovalOutcome, UntestableReason, Value, Wire,
};

/// Gates through which *every* path from `from` to *any* observation point
/// passes (the observability dominators of `from`, including the sink gate
/// of each such path segment but excluding `from` itself). Returns `None`
/// if no observation point is reachable.
#[must_use]
pub(crate) fn observability_dominators(circuit: &Circuit, from: GateId) -> Option<Vec<GateId>> {
    let n = circuit.len();
    let tfo = circuit.tfo_mask(from);
    // Region: gates in TFO(from) that still reach an output, plus `from`.
    let reaches_out = {
        let fanouts = circuit.fanout_wires();
        let mut mask = vec![false; n];
        // Reverse reachability from outputs within TFO ∪ {from}.
        let mut stack: Vec<GateId> = circuit
            .outputs()
            .iter()
            .copied()
            .filter(|o| tfo[o.index()] || *o == from)
            .collect();
        for o in &stack {
            mask[o.index()] = true;
        }
        // Walk fanins backwards.
        while let Some(g) = stack.pop() {
            for &f in circuit.fanins(g) {
                if (tfo[f.index()] || f == from) && !mask[f.index()] {
                    mask[f.index()] = true;
                    stack.push(f);
                }
            }
        }
        let _ = fanouts;
        mask
    };
    if !reaches_out[from.index()] {
        return None;
    }

    // SD(g): bitset of gates on every path from `from` to g, for g in the
    // region, processed in topological (creation) order.
    let words = n.div_ceil(64);
    let full: Vec<u64> = vec![!0u64; words];
    let mut sd: Vec<Option<Vec<u64>>> = vec![None; n];
    let mut self_set = vec![0u64; words];
    self_set[from.index() / 64] |= 1 << (from.index() % 64);
    sd[from.index()] = Some(self_set);
    for g in circuit.gate_ids() {
        if g == from || !tfo[g.index()] || !reaches_out[g.index()] {
            continue;
        }
        let mut acc: Option<Vec<u64>> = None;
        for &f in circuit.fanins(g) {
            let Some(fs) = sd[f.index()].as_ref() else {
                continue;
            };
            acc = Some(match acc {
                None => fs.clone(),
                Some(mut a) => {
                    for (x, y) in a.iter_mut().zip(fs) {
                        *x &= y;
                    }
                    a
                }
            });
        }
        if let Some(mut a) = acc {
            a[g.index() / 64] |= 1 << (g.index() % 64);
            sd[g.index()] = Some(a);
        }
    }

    // Intersect SD over reachable outputs (virtual sink).
    let mut acc: Option<Vec<u64>> = None;
    for &o in circuit.outputs() {
        if o == from {
            // Fault observed directly at an output: nothing must dominate.
            return Some(Vec::new());
        }
        let Some(os) = sd[o.index()].as_ref() else {
            continue;
        };
        acc = Some(match acc {
            None => os.clone(),
            Some(mut a) => {
                for (x, y) in a.iter_mut().zip(os) {
                    *x &= y;
                }
                a
            }
        });
    }
    let acc = acc.unwrap_or(full);
    let mut doms = Vec::new();
    for g in circuit.gate_ids() {
        if g == from {
            continue;
        }
        if acc[g.index() / 64] >> (g.index() % 64) & 1 == 1 && tfo[g.index()] {
            doms.push(g);
        }
    }
    Some(doms)
}

/// Computes the mandatory assignments of a fault: activation at the source
/// gate plus non-controlling values on the side inputs of every
/// observability dominator. Returns `None` if the fault is trivially
/// untestable (unobservable).
#[must_use]
pub(crate) fn mandatory_assignments(
    circuit: &Circuit,
    fault: Fault,
) -> Option<Vec<(GateId, bool)>> {
    let source = circuit.fanins(fault.wire.gate)[fault.wire.pin];
    let mut mas = vec![(source, !fault.stuck)];

    // The sink gate of the faulted wire behaves like a dominator for its
    // own side inputs (the fault enters through one specific pin).
    let sink = fault.wire.gate;
    let tfo_sink = circuit.tfo_mask(sink);
    if let Some(ctrl) = circuit.kind(sink).controlling() {
        for (pin, &f) in circuit.fanins(sink).iter().enumerate() {
            if pin != fault.wire.pin {
                mas.push((f, !ctrl));
            }
        }
    }

    // Observability dominators of the *sink* gate (the fault effect
    // appears at the sink's output).
    if circuit.outputs().contains(&sink) {
        return Some(mas);
    }
    let doms = observability_dominators(circuit, sink)?;
    for d in doms {
        let Some(ctrl) = circuit.kind(d).controlling() else {
            continue;
        };
        for &f in circuit.fanins(d) {
            // Side inputs = fanins not affected by the fault.
            if f != sink && !tfo_sink[f.index()] {
                mas.push((f, !ctrl));
            }
        }
    }
    Some(mas)
}

/// Implication-based untestability check for a stuck-at fault: seeds the
/// mandatory assignments and runs the implication engine (with optional
/// recursive learning). A conflict proves the fault untestable, i.e. the
/// wire may be replaced by the stuck value.
///
/// The check is *sound but incomplete*: `PossiblyTestable` does not
/// guarantee a test exists.
#[must_use]
pub(crate) fn check_fault(circuit: &Circuit, fault: Fault, opts: ImplyOptions) -> FaultStatus {
    let Some(mas) = mandatory_assignments(circuit, fault) else {
        return FaultStatus::Untestable(UntestableReason::Unobservable);
    };
    let implier = Implier::new(circuit);
    let mut values = vec![Value::Unknown; circuit.len()];
    for (g, v) in mas {
        if implier
            .assign_and_imply(&mut values, g, v, ImplyOptions::default())
            .is_err()
        {
            return FaultStatus::Untestable(UntestableReason::ImplicationConflict);
        }
    }
    // One full pass with the requested learning depth.
    if implier.imply(&mut values, opts).is_err() {
        return FaultStatus::Untestable(UntestableReason::ImplicationConflict);
    }
    FaultStatus::PossiblyTestable(values)
}

/// The removal loop of [`crate::remove_redundant_wires_with`] over the
/// reference check.
pub(crate) fn remove_redundant_wires_with(
    circuit: &mut Circuit,
    candidates: &[CandidateWire],
    opts: &RemovalOptions,
    max_passes: usize,
) -> RemovalOutcome {
    let mut outcome = RemovalOutcome::default();
    let mut live: Vec<CandidateWire> = candidates.to_vec();
    for _ in 0..max_passes.max(1) {
        let mut removed_this_pass = false;
        let mut still: Vec<CandidateWire> = Vec::with_capacity(live.len());
        for cand in live {
            if opts.max_checks > 0 && outcome.checks >= opts.max_checks {
                outcome.budget_exhausted = true;
                still.push(cand);
                continue;
            }
            let kind = circuit.kind(cand.sink);
            let stuck = match kind {
                GateKind::And => true,
                GateKind::Or => false,
                other => panic!("candidate sink must be AND/OR, got {other:?}"),
            };
            let Some(pin) = circuit
                .fanins(cand.sink)
                .iter()
                .position(|&f| f == cand.driver)
            else {
                continue; // already gone
            };
            let fault = Fault {
                wire: Wire {
                    gate: cand.sink,
                    pin,
                },
                stuck,
            };
            outcome.checks += 1;
            let mut redundant = check_fault(circuit, fault, opts.imply).is_untestable();
            if !redundant && opts.exact_budget > 0 {
                redundant = check_fault_exact(circuit, fault, opts.exact_budget) == Some(false);
            }
            if redundant {
                circuit.remove_wire(Wire {
                    gate: cand.sink,
                    pin,
                });
                outcome.removed.push(cand);
                removed_this_pass = true;
            } else {
                still.push(cand);
            }
        }
        live = still;
        if outcome.budget_exhausted || !removed_this_pass {
            break;
        }
    }
    outcome
}
