//! Materializing a [`Network`] as a gate-level [`Circuit`], optionally
//! with one node rebuilt in the paper's division configuration — the
//! machinery behind the *global internal don't cares* (GDC) mode, where
//! redundancy-removal implications range over the whole circuit and the
//! observation points are the primary outputs.

use crate::division::{DivisionRegion, Rails};
use boolsubst_atpg::{Circuit, GateId};
use boolsubst_cube::{Cover, Cube, Lit};
use boolsubst_network::{Network, NodeId};
use std::collections::{HashMap, HashSet};

/// A network materialized as gates.
#[derive(Debug)]
pub struct NetCircuit {
    /// The gate-level circuit (observation points = primary outputs).
    pub circuit: Circuit,
    /// Output gate of each node, indexed by [`NodeId::index`].
    pub node_gate: Vec<Option<GateId>>,
}

/// The mutable state of circuit materialization: the circuit under
/// construction, the node → output-gate map, and the shared NOT cache.
/// Clone-able so a per-target prefix can be snapshotted once and patched
/// per division attempt (see [`ShadowBase`]).
#[derive(Debug, Clone)]
pub(crate) struct BuilderState {
    circuit: Circuit,
    node_gate: Vec<Option<GateId>>,
    not_cache: HashMap<GateId, GateId>,
}

impl BuilderState {
    fn new(net: &Network) -> BuilderState {
        let mut b = BuilderState {
            circuit: Circuit::new(),
            node_gate: vec![None; net.id_bound()],
            not_cache: HashMap::new(),
        };
        // Create input gates in primary-input declaration order so that
        // `Circuit::eval` assignments align with `Network::eval_outputs`.
        for &pi in net.inputs() {
            let g = b.circuit.add_input();
            b.node_gate[pi.index()] = Some(g);
        }
        b
    }

    /// Builds the standard AND–OR structure for a node's cover; returns
    /// the output gate. Negative literals share one NOT per gate across
    /// the whole circuit.
    fn build_node(&mut self, net: &Network, id: NodeId) -> GateId {
        let node = net.node(id);
        let Some(cover) = node.cover() else {
            return self.node_gate[id.index()].expect("inputs pre-created");
        };
        let mut rails = Rails(
            node.fanins()
                .iter()
                .map(|f| {
                    let g = self.node_gate[f.index()].expect("fanin built before use");
                    (g, self.not_cache.get(&g).copied())
                })
                .collect(),
        );
        let cube_gates = rails.cubes(&mut self.circuit, cover);
        for (g, not) in rails.0 {
            if let Some(not) = not {
                self.not_cache.insert(g, not);
            }
        }
        self.circuit.add_or(cube_gates)
    }

    /// Appends the paper's division configuration for a target,
    /// `(OR(kept) AND divisor) OR remainder`, over rails on the gates of
    /// the joint-space nodes `var_nodes`.
    fn append_division(
        &mut self,
        var_nodes: &[NodeId],
        divisor: NodeId,
        kept: &Cover,
        remainder: &Cover,
    ) -> DivisionRegion {
        let gate = |v: &NodeId| self.node_gate[v.index()].expect("joint var built first");
        let rails = Rails(var_nodes.iter().map(|v| (gate(v), None)).collect());
        let d = self.node_gate[divisor.index()].expect("divisor built before target");
        DivisionRegion::append(&mut self.circuit, rails, kept, d, remainder)
    }

    /// Observes every primary output.
    fn attach_outputs(&mut self, net: &Network) {
        for (_, o) in net.outputs() {
            let g = self.node_gate[o.index()].expect("output driver built");
            self.circuit.add_output(g);
        }
    }
}

/// Topological order of the network with the extra edge
/// `divisor → target` (callers guarantee this cannot cycle, since the
/// divisor is not in the target's transitive fanout).
fn order_with_edge(net: &Network, divisor: NodeId, target: NodeId) -> Vec<NodeId> {
    let bound = net.id_bound();
    let mut indegree = vec![0usize; bound];
    let mut live = 0usize;
    for id in net.node_ids() {
        live += 1;
        indegree[id.index()] = net.node(id).fanins().len();
    }
    indegree[target.index()] += 1; // the extra edge
    let fanouts = net.fanouts();
    let mut queue: Vec<NodeId> = net
        .node_ids()
        .filter(|id| indegree[id.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(live);
    while let Some(id) = queue.pop() {
        order.push(id);
        let relax = |o: NodeId, indegree: &mut Vec<usize>, queue: &mut Vec<NodeId>| {
            indegree[o.index()] -= 1;
            if indegree[o.index()] == 0 {
                queue.push(o);
            }
        };
        for &o in &fanouts[id.index()] {
            relax(o, &mut indegree, &mut queue);
        }
        if id == divisor {
            relax(target, &mut indegree, &mut queue);
        }
    }
    assert_eq!(order.len(), live, "extra edge created a cycle");
    order
}

/// A per-target snapshot of the materialized circuit for the GDC mode:
/// every node *except* the target and its transitive fanout, built once.
/// Each division attempt clones the snapshot and appends only the dirty
/// region — the division structure plus the target's fanout cone — instead
/// of rebuilding the whole network per (target, divisor) pair.
///
/// The snapshot stays valid as long as no node outside the target is
/// edited: accepting a plain (target-only) substitution does not
/// invalidate it, because the target is not part of the snapshot.
#[derive(Debug, Clone)]
pub struct ShadowBase {
    state: BuilderState,
    target: NodeId,
    /// The target's transitive fanout in topological order, rebuilt on
    /// every attempt (the division rewires the target, so its cone gets
    /// fresh gates).
    tfo_order: Vec<NodeId>,
}

impl ShadowBase {
    /// Builds the snapshot: all nodes outside `{target} ∪ tfo` in
    /// topological order. `tfo` must be the target's transitive fanout —
    /// its complement is fanin-closed, so every snapshot node's fanins are
    /// in the snapshot.
    #[must_use]
    pub fn prepare(net: &Network, target: NodeId, tfo: &HashSet<NodeId>) -> ShadowBase {
        let mut state = BuilderState::new(net);
        let mut tfo_order = Vec::new();
        for id in net.topo_order() {
            if id == target {
                continue;
            }
            if tfo.contains(&id) {
                tfo_order.push(id);
                continue;
            }
            let g = state.build_node(net, id);
            state.node_gate[id.index()] = Some(g);
        }
        ShadowBase {
            state,
            target,
            tfo_order,
        }
    }

    /// Materializes one division attempt on top of the snapshot: clone,
    /// append the division structure for the target, rebuild the target's
    /// fanout cone, attach the primary outputs. The result is isomorphic
    /// to [`network_region`] for the same pair (gate numbering differs;
    /// structure and therefore RAR verdicts do not).
    pub(crate) fn region(
        &self,
        net: &Network,
        divisor: NodeId,
        var_nodes: &[NodeId],
        kept: &Cover,
        remainder: &Cover,
    ) -> (Circuit, DivisionRegion) {
        let mut state = self.state.clone();
        let region = state.append_division(var_nodes, divisor, kept, remainder);
        state.node_gate[self.target.index()] = Some(region.out);
        for &id in &self.tfo_order {
            let g = state.build_node(net, id);
            state.node_gate[id.index()] = Some(g);
        }
        state.attach_outputs(net);
        (state.circuit, region)
    }
}

impl NetCircuit {
    /// Materializes the whole network; observation points are the primary
    /// outputs.
    #[must_use]
    pub fn build(net: &Network) -> NetCircuit {
        let mut b = BuilderState::new(net);
        for id in net.topo_order() {
            let g = b.build_node(net, id);
            b.node_gate[id.index()] = Some(g);
        }
        b.attach_outputs(net);
        NetCircuit {
            circuit: b.circuit,
            node_gate: b.node_gate,
        }
    }
}

/// Materializes the network with `target` rebuilt in the division
/// configuration: `target = (OR(kept) AND divisor_node) OR remainder`,
/// where `kept`/`remainder` are covers over the joint space `var_nodes`.
/// Observation points are the primary outputs, so redundancy checks see
/// the paper's *global* internal don't cares.
///
/// # Panics
///
/// Panics if `divisor` is in the transitive fanout of `target`, if a
/// joint-space variable is not buildable before `target`, or if ids are
/// invalid.
pub(crate) fn network_region(
    net: &Network,
    target: NodeId,
    divisor: NodeId,
    var_nodes: &[NodeId],
    kept: &Cover,
    remainder: &Cover,
) -> (Circuit, DivisionRegion) {
    assert!(
        !net.in_tfo(divisor, target),
        "divisor must not depend on target"
    );
    let mut b = BuilderState::new(net);
    let mut region = None;
    for id in order_with_edge(net, divisor, target) {
        let g = if id == target {
            let r = region.insert(b.append_division(var_nodes, divisor, kept, remainder));
            r.out
        } else {
            b.build_node(net, id)
        };
        b.node_gate[id.index()] = Some(g);
    }
    b.attach_outputs(net);
    (b.circuit, region.expect("target processed"))
}

/// Converts a gate-level circuit back into a [`Network`]: every gate
/// becomes a node (`AND` = one cube, `OR` = one cube per fanin, `NOT` =
/// the complemented literal), inputs become primary inputs named
/// `x0, x1, …` and observation points become outputs `z0, z1, …`.
/// Sweeping afterwards collapses the single-literal nodes this introduces.
///
/// # Panics
///
/// Panics if the circuit is malformed.
#[must_use]
pub fn network_from_circuit(circuit: &Circuit) -> Network {
    use boolsubst_atpg::GateKind;
    let mut net = Network::new("from_circuit");
    let mut node_of: Vec<Option<NodeId>> = vec![None; circuit.len()];
    let mut input_count = 0usize;
    for g in circuit.gate_ids() {
        let id = match circuit.kind(g) {
            GateKind::Input => {
                let id = net
                    .add_input(format!("x{input_count}"))
                    .expect("fresh input name");
                input_count += 1;
                id
            }
            GateKind::Const0 => net
                .add_node(format!("g{}", g.index()), Vec::new(), Cover::new(0))
                .expect("fresh node"),
            GateKind::Const1 => net
                .add_node(format!("g{}", g.index()), Vec::new(), Cover::one(0))
                .expect("fresh node"),
            kind => {
                // Distinct fanins (a gate may list one driver twice after
                // rewiring; the cover view needs unique variables).
                let mut fanins: Vec<NodeId> = Vec::new();
                let mut vars: Vec<usize> = Vec::new();
                for &f in circuit.fanins(g) {
                    let fid = node_of[f.index()].expect("topological order");
                    let v = match fanins.iter().position(|&x| x == fid) {
                        Some(v) => v,
                        None => {
                            fanins.push(fid);
                            fanins.len() - 1
                        }
                    };
                    vars.push(v);
                }
                let n = fanins.len();
                let cover = match kind {
                    GateKind::And => {
                        let mut cube = Cube::universe(n);
                        for &v in &vars {
                            cube.restrict(Lit::pos(v));
                        }
                        Cover::from_cubes(n, vec![cube])
                    }
                    GateKind::Or => {
                        let mut cover = Cover::new(n);
                        for &v in &vars {
                            let mut cube = Cube::universe(n);
                            cube.restrict(Lit::pos(v));
                            cover.push(cube);
                        }
                        cover.remove_contained_cubes();
                        cover
                    }
                    GateKind::Not => {
                        let mut cube = Cube::universe(n);
                        cube.restrict(Lit::neg(vars[0]));
                        Cover::from_cubes(n, vec![cube])
                    }
                    GateKind::Buf => {
                        let mut cube = Cube::universe(n);
                        cube.restrict(Lit::pos(vars[0]));
                        Cover::from_cubes(n, vec![cube])
                    }
                    _ => unreachable!("inputs and constants handled above"),
                };
                net.add_node(format!("g{}", g.index()), fanins, cover)
                    .expect("fresh node")
            }
        };
        node_of[g.index()] = Some(id);
    }
    for (k, &o) in circuit.outputs().iter().enumerate() {
        net.add_output(format!("z{k}"), node_of[o.index()].expect("built"))
            .expect("fresh output");
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    fn sample_net() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("s");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let d = net
            .add_node("d", vec![a, b, c], parse_sop(3, "ab + c").expect("p"))
            .expect("d");
        let f = net
            .add_node(
                "f",
                vec![a, b, c],
                parse_sop(3, "ab + ac + bc'").expect("p"),
            )
            .expect("f");
        net.add_output("f", f).expect("o");
        net.add_output("d", d).expect("o");
        (net, f, d)
    }

    #[test]
    fn circuit_network_roundtrip() {
        let (net, ..) = sample_net();
        let nc = NetCircuit::build(&net);
        let back = network_from_circuit(&nc.circuit);
        back.check_invariants();
        for m in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(
                back.eval_outputs(&ins),
                net.eval_outputs(&ins),
                "mismatch at {m:03b}"
            );
        }
    }

    #[test]
    fn whole_network_circuit_matches_eval() {
        let (net, ..) = sample_net();
        let nc = NetCircuit::build(&net);
        for m in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let want = net.eval_outputs(&ins);
            let vals = nc.circuit.eval(&ins);
            let got: Vec<bool> = nc
                .circuit
                .outputs()
                .iter()
                .map(|o| vals[o.index()])
                .collect();
            assert_eq!(got, want, "mismatch at {m:03b}");
        }
    }

    #[test]
    fn region_build_preserves_function() {
        let (net, f, d) = sample_net();
        // Joint space = {a, b, c}; kept = ab + ac, remainder = bc'.
        let vars: Vec<NodeId> = net.inputs().to_vec();
        let kept = parse_sop(3, "ab + ac").expect("p");
        let rem = parse_sop(3, "bc'").expect("p");
        let (circuit, region) = network_region(&net, f, d, &vars, &kept, &rem);
        // Before any removal, the circuit must behave like the network
        // (the bold AND is redundant by Lemma 1).
        for m in 0u32..8 {
            let ins: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let want = net.eval_outputs(&ins);
            let vals = circuit.eval(&ins);
            let got: Vec<bool> = circuit.outputs().iter().map(|o| vals[o.index()]).collect();
            assert_eq!(got, want, "mismatch at {m:03b}");
        }
        // Read-back without removals reproduces the kept cubes.
        let q = region.read_quotient(&circuit);
        assert!(q.equivalent(&kept));
    }
}
