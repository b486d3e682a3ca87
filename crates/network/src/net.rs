//! The multilevel Boolean network: named nodes carrying SOP covers over
//! their fanins, primary inputs, and primary outputs.

use boolsubst_cube::Cover;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node inside a [`Network`]. Stable across edits until the
/// node is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw slot index (for dense side tables).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The function payload of a node.
#[derive(Debug, Clone)]
pub enum NodeFunc {
    /// Primary input: no function.
    PrimaryInput,
    /// Internal node: SOP cover over the node's fanins; variable `i` of the
    /// cover corresponds to `fanins[i]`.
    Internal(Cover),
}

/// One node of the network.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) name: String,
    pub(crate) fanins: Vec<NodeId>,
    pub(crate) func: NodeFunc,
}

impl Node {
    /// Node name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fanin nodes, in cover-variable order.
    #[must_use]
    pub fn fanins(&self) -> &[NodeId] {
        &self.fanins
    }

    /// The node's SOP cover, or `None` for a primary input.
    #[must_use]
    pub fn cover(&self) -> Option<&Cover> {
        match &self.func {
            NodeFunc::PrimaryInput => None,
            NodeFunc::Internal(c) => Some(c),
        }
    }

    /// True if this node is a primary input.
    #[must_use]
    pub fn is_input(&self) -> bool {
        matches!(self.func, NodeFunc::PrimaryInput)
    }
}

/// Errors produced by network construction and editing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A node name was used twice.
    DuplicateName(String),
    /// A referenced node does not exist.
    UnknownNode(String),
    /// The edit would create a combinational cycle.
    WouldCycle(String),
    /// The cover's universe does not match the fanin count.
    ArityMismatch {
        /// The offending node's name.
        name: String,
        /// Number of declared fanins.
        fanins: usize,
        /// Number of variables in the cover.
        cover_vars: usize,
    },
    /// The fanin list contains a repeated node.
    DuplicateFanin(String),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::DuplicateName(n) => write!(f, "duplicate node name {n:?}"),
            NetworkError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            NetworkError::WouldCycle(n) => {
                write!(f, "edit on node {n:?} would create a combinational cycle")
            }
            NetworkError::ArityMismatch {
                name,
                fanins,
                cover_vars,
            } => write!(
                f,
                "node {name:?} has {fanins} fanins but its cover has {cover_vars} variables"
            ),
            NetworkError::DuplicateFanin(n) => {
                write!(f, "node {n:?} lists the same fanin twice")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// Reusable buffers for [`Network::eval_into`] / [`Network::eval_outputs_into`].
///
/// Holds the dense value table, the per-node fanin assignment buffer, and a
/// topological order cached against [`Network::version`], so repeated
/// evaluation of the same network allocates nothing after the first call.
///
/// A scratch is bound to the network it was last used with: the cached
/// order is keyed only on the version counter, so reusing one scratch
/// across *different* networks can silently evaluate in a stale order.
/// Use one scratch per network.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    values: Vec<bool>,
    assignment: Vec<bool>,
    order: Vec<NodeId>,
    order_version: Option<u64>,
}

impl EvalScratch {
    /// The value table written by the last [`Network::eval_into`] call,
    /// indexed by [`NodeId::index`]. Empty before the first evaluation.
    #[must_use]
    pub fn values(&self) -> &[bool] {
        &self.values
    }
}

/// A combinational multilevel Boolean network.
#[derive(Debug, Clone, Default)]
pub struct Network {
    pub(crate) name: String,
    pub(crate) nodes: Vec<Option<Node>>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<(String, NodeId)>,
    pub(crate) by_name: HashMap<String, NodeId>,
    pub(crate) exdc: Option<Box<Network>>,
    /// Bumped on every structural mutation (node added/removed, fanins or
    /// cover replaced). Lets side tables detect when they are stale.
    pub(crate) version: u64,
}

impl Network {
    /// Creates an empty network with the given model name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Network {
        Network {
            name: name.into(),
            ..Network::default()
        }
    }

    /// Model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The external don't-care network (BLIF `.exdc` section), if any.
    /// Its outputs, matched to this network's outputs by name, mark input
    /// combinations whose output values are unconstrained.
    #[must_use]
    pub fn exdc(&self) -> Option<&Network> {
        self.exdc.as_deref()
    }

    /// Attaches an external don't-care network.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownNode`] if the don't-care network's
    /// primary inputs are not a subset of this network's input names.
    pub fn set_exdc(&mut self, dc: Network) -> Result<(), NetworkError> {
        let my_inputs: Vec<&str> = self.inputs.iter().map(|&i| self.node(i).name()).collect();
        for &pi in dc.inputs() {
            let n = dc.node(pi).name();
            if !my_inputs.contains(&n) {
                return Err(NetworkError::UnknownNode(format!(
                    "exdc input {n:?} is not a primary input of the care network"
                )));
            }
        }
        self.exdc = Some(Box::new(dc));
        Ok(())
    }

    /// Adds a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DuplicateName`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NodeId, NetworkError> {
        let name = name.into();
        let id = self.alloc(
            Node {
                name: name.clone(),
                fanins: Vec::new(),
                func: NodeFunc::PrimaryInput,
            },
            &name,
        )?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds an internal node with the given fanins and cover.
    ///
    /// # Errors
    ///
    /// Returns an error on duplicate names, repeated fanins, or a cover
    /// whose universe does not match the fanin count.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        fanins: Vec<NodeId>,
        cover: Cover,
    ) -> Result<NodeId, NetworkError> {
        let name = name.into();
        Self::validate_function(&name, &fanins, &cover)?;
        for &f in &fanins {
            if self.node_opt(f).is_none() {
                return Err(NetworkError::UnknownNode(format!("{f}")));
            }
        }
        self.alloc(
            Node {
                name: name.clone(),
                fanins,
                func: NodeFunc::Internal(cover),
            },
            &name,
        )
    }

    fn validate_function(name: &str, fanins: &[NodeId], cover: &Cover) -> Result<(), NetworkError> {
        if cover.num_vars() != fanins.len() {
            return Err(NetworkError::ArityMismatch {
                name: name.to_string(),
                fanins: fanins.len(),
                cover_vars: cover.num_vars(),
            });
        }
        let mut sorted: Vec<NodeId> = fanins.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(NetworkError::DuplicateFanin(name.to_string()));
        }
        Ok(())
    }

    fn alloc(&mut self, node: Node, name: &str) -> Result<NodeId, NetworkError> {
        if self.by_name.contains_key(name) {
            return Err(NetworkError::DuplicateName(name.to_string()));
        }
        let id = NodeId(self.nodes.len());
        self.by_name.insert(name.to_string(), id);
        self.nodes.push(Some(node));
        self.version += 1;
        Ok(id)
    }

    /// Structural edit counter: incremented every time a node is added or
    /// removed or a function is replaced. Side tables (fanouts, levels,
    /// transitive fanouts) record the version they were synchronised at and
    /// refuse to answer queries against a newer network.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Generates a fresh internal node name (`[t<k>]`).
    #[must_use]
    pub fn fresh_name(&self) -> String {
        let mut k = self.nodes.len();
        loop {
            let candidate = format!("[t{k}]");
            if !self.by_name.contains_key(&candidate) {
                return candidate;
            }
            k += 1;
        }
    }

    /// Marks a node as a primary output under the given name.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownNode`] if the node does not exist.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        node: NodeId,
    ) -> Result<(), NetworkError> {
        if self.node_opt(node).is_none() {
            return Err(NetworkError::UnknownNode(format!("{node}")));
        }
        self.outputs.push((name.into(), node));
        Ok(())
    }

    /// Node accessor.
    ///
    /// # Panics
    ///
    /// Panics if the node has been removed.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        self.nodes[id.0].as_ref().expect("node removed")
    }

    /// Node accessor tolerating removed slots.
    #[must_use]
    pub fn node_opt(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0).and_then(Option::as_ref)
    }

    /// Looks a node up by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Primary inputs in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs as (name, driver) pairs.
    #[must_use]
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Iterates over live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids_from(0)
    }

    /// Iterates over live node ids at or above slot index `bound`, in
    /// ascending order — the nodes created since [`Network::id_bound`]
    /// read `bound`.
    pub fn node_ids_from(&self, bound: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .skip(bound)
            .filter_map(|(i, n)| n.as_ref().map(|_| NodeId(i)))
    }

    /// Iterates over live internal (non-input) node ids.
    pub fn internal_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&id| !self.node(id).is_input())
    }

    /// Number of live nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// True if the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upper bound on node ids (for dense side tables indexed by
    /// [`NodeId::index`]).
    #[must_use]
    pub fn id_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Fanout lists for every node (recomputed; index by [`NodeId::index`]).
    #[must_use]
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for id in self.node_ids() {
            for &f in self.node(id).fanins() {
                out[f.0].push(id);
            }
        }
        out
    }

    /// Replaces an internal node's fanins and cover.
    ///
    /// # Errors
    ///
    /// Returns an error on arity mismatch, repeated or unknown fanins, a
    /// primary-input target, or an edit that would create a cycle.
    pub fn replace_function(
        &mut self,
        id: NodeId,
        fanins: Vec<NodeId>,
        cover: Cover,
    ) -> Result<(), NetworkError> {
        let name = self.node(id).name().to_string();
        if self.node(id).is_input() {
            return Err(NetworkError::UnknownNode(format!(
                "{name} is a primary input"
            )));
        }
        Self::validate_function(&name, &fanins, &cover)?;
        for &f in &fanins {
            if self.node_opt(f).is_none() {
                return Err(NetworkError::UnknownNode(format!("{f}")));
            }
            if f == id {
                return Err(NetworkError::WouldCycle(name));
            }
        }
        // Cycle check. Only fanins that are not already fanins of `id` can
        // introduce a path back to it (the network was acyclic before), so
        // walk just their transitive fanins, stopping at the first hit —
        // cheaper than materialising the full fanout table per fanin.
        let old = &self.node(id).fanins;
        let fresh: Vec<NodeId> = fanins
            .iter()
            .copied()
            .filter(|f| !old.contains(f))
            .collect();
        if !fresh.is_empty() {
            let mut seen = vec![false; self.nodes.len()];
            let mut stack = fresh;
            while let Some(n) = stack.pop() {
                if n == id {
                    return Err(NetworkError::WouldCycle(name));
                }
                if seen[n.0] {
                    continue;
                }
                seen[n.0] = true;
                stack.extend(self.node(n).fanins().iter().copied());
            }
        }
        let node = self.nodes[id.0].as_mut().expect("node removed");
        node.fanins = fanins;
        node.func = NodeFunc::Internal(cover);
        self.version += 1;
        Ok(())
    }

    /// Removes a node. The caller must ensure it has no fanouts and is not
    /// a primary output (checked, returning an error otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::WouldCycle`] — reused here to signal the node
    /// is still referenced — if the node drives anything.
    pub fn remove_node(&mut self, id: NodeId) -> Result<(), NetworkError> {
        let name = self.node(id).name().to_string();
        if self.outputs.iter().any(|(_, o)| *o == id) {
            return Err(NetworkError::WouldCycle(format!(
                "{name} is a primary output"
            )));
        }
        let fanouts = self.fanouts();
        if !fanouts[id.0].is_empty() {
            return Err(NetworkError::WouldCycle(format!(
                "{name} still has fanouts"
            )));
        }
        self.by_name.remove(&name);
        if let Some(pos) = self.inputs.iter().position(|&i| i == id) {
            self.inputs.remove(pos);
        }
        self.nodes[id.0] = None;
        self.version += 1;
        Ok(())
    }

    /// Pops trailing removed slots so [`Network::id_bound`] (and therefore
    /// [`Network::fresh_name`]) shrinks back after a transactional rollback
    /// deleted freshly minted nodes at the tail. Never shrinks the slot
    /// vector below `keep`, so ids allocated before the transaction stay
    /// dense-table-compatible.
    pub fn truncate_dead_tail(&mut self, keep: usize) {
        let before = self.nodes.len();
        while self.nodes.len() > keep && self.nodes.last().is_some_and(Option::is_none) {
            self.nodes.pop();
        }
        if self.nodes.len() != before {
            self.version += 1;
        }
    }

    /// Nodes in topological order (fanins before fanouts), inputs first.
    ///
    /// # Panics
    ///
    /// Panics if the network contains a cycle (construction prevents this).
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        let bound = self.nodes.len();
        let mut indegree = vec![0usize; bound];
        let mut live = 0usize;
        for id in self.node_ids() {
            live += 1;
            indegree[id.0] = self.node(id).fanins().len();
        }
        let mut queue: Vec<NodeId> = self.node_ids().filter(|id| indegree[id.0] == 0).collect();
        let fanouts = self.fanouts();
        let mut order = Vec::with_capacity(live);
        while let Some(id) = queue.pop() {
            order.push(id);
            for &o in &fanouts[id.0] {
                indegree[o.0] -= 1;
                if indegree[o.0] == 0 {
                    queue.push(o);
                }
            }
        }
        assert_eq!(order.len(), live, "network contains a cycle");
        order
    }

    /// True when `node` lies in the transitive fanout of `of` — a directed
    /// path `of → … → node` exists. Early-exit upward walk over `node`'s
    /// fanin edges; cheaper than materialising [`Network::tfo`] when the
    /// caller only needs the membership bit. Mirrors
    /// `SideTables::in_tfo`'s argument order.
    #[must_use]
    pub fn in_tfo(&self, node: NodeId, of: NodeId) -> bool {
        if node == of {
            return false;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.node(node).fanins().to_vec();
        while let Some(n) = stack.pop() {
            if n == of {
                return true;
            }
            if seen[n.0] {
                continue;
            }
            seen[n.0] = true;
            stack.extend(self.node(n).fanins().iter().copied());
        }
        false
    }

    /// Transitive fanout of `id` (excluding `id` itself).
    #[must_use]
    pub fn tfo(&self, id: NodeId) -> Vec<NodeId> {
        let fanouts = self.fanouts();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = fanouts[id.0].clone();
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if seen[n.0] {
                continue;
            }
            seen[n.0] = true;
            out.push(n);
            stack.extend(fanouts[n.0].iter().copied());
        }
        out
    }

    /// Transitive fanin of `id` (excluding `id` itself).
    #[must_use]
    pub fn tfi(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.node(id).fanins().to_vec();
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if seen[n.0] {
                continue;
            }
            seen[n.0] = true;
            out.push(n);
            stack.extend(self.node(n).fanins().iter().copied());
        }
        out
    }

    /// Extracts the single-output cone of `root` as a standalone network:
    /// inputs are the given primary inputs of `self` (in order — they
    /// must cover the cone's input support), internal nodes are `root`'s
    /// transitive fanin, and the only output is `root`'s function under
    /// `root`'s name. Node names carry over, so cones extracted from two
    /// networks with positionally identical input lists compare
    /// positionally. Cost is proportional to the cone, not the network.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownNode`] when the cone reaches a
    /// primary input missing from `inputs`, or when `root` is itself a
    /// primary input not listed there.
    ///
    /// # Panics
    ///
    /// Panics if `root` or any id in `inputs` is invalid.
    pub fn extract_cone(&self, root: NodeId, inputs: &[NodeId]) -> Result<Network, NetworkError> {
        let mut cone = Network::new(format!("{}:cone", self.name));
        let mut map: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        for &pi in inputs {
            map[pi.0] = Some(cone.add_input(self.node(pi).name())?);
        }
        // Emit the cone's internal nodes children-first (iterative
        // post-order DFS over fanin edges; `(n, true)` is the emit
        // marker, pushed below `n`'s children so it pops after them).
        let mut open = vec![false; self.nodes.len()];
        let mut stack = vec![(root, false)];
        while let Some((n, emit)) = stack.pop() {
            if emit {
                let node = self.node(n);
                let mut fanins = Vec::with_capacity(node.fanins().len());
                for &f in node.fanins() {
                    match map[f.0] {
                        Some(m) => fanins.push(m),
                        None => return Err(NetworkError::UnknownNode(format!("{f}"))),
                    }
                }
                let cover = node.cover().expect("internal").clone();
                map[n.0] = Some(cone.add_node(node.name(), fanins, cover)?);
                continue;
            }
            if open[n.0] || map[n.0].is_some() {
                continue;
            }
            if self.node(n).cover().is_none() {
                // A primary input the caller did not list.
                return Err(NetworkError::UnknownNode(format!("{n}")));
            }
            open[n.0] = true;
            stack.push((n, true));
            for &f in self.node(n).fanins() {
                stack.push((f, false));
            }
        }
        let out = map[root.0].ok_or_else(|| NetworkError::UnknownNode(format!("{root}")))?;
        cone.add_output(self.node(root).name(), out)?;
        Ok(cone)
    }

    /// Total SOP literal count over all internal nodes (the raw metric; the
    /// paper reports *factored-form* literals, see `boolsubst-algebraic`).
    #[must_use]
    pub fn sop_literals(&self) -> usize {
        self.internal_ids()
            .map(|id| self.node(id).cover().expect("internal").literal_count())
            .sum()
    }

    /// Evaluates all nodes under a primary-input assignment, returning a
    /// dense value table indexed by [`NodeId::index`].
    ///
    /// Allocates fresh buffers (and recomputes the topological order) on
    /// every call; loops that evaluate many vectors should hold an
    /// [`EvalScratch`] and call [`Network::eval_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.inputs().len()`.
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let mut scratch = EvalScratch::default();
        self.eval_into(inputs, &mut scratch).to_vec()
    }

    /// Buffered variant of [`Network::eval`]: writes the dense value table
    /// into `scratch` (reusing its allocations and, while the network is
    /// unedited, its cached topological order) and returns it as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.inputs().len()`.
    pub fn eval_into<'s>(&self, inputs: &[bool], scratch: &'s mut EvalScratch) -> &'s [bool] {
        assert_eq!(inputs.len(), self.inputs.len(), "wrong input count");
        if scratch.order_version != Some(self.version) {
            scratch.order = self.topo_order();
            scratch.order_version = Some(self.version);
        }
        scratch.values.clear();
        scratch.values.resize(self.nodes.len(), false);
        for (&id, &v) in self.inputs.iter().zip(inputs) {
            scratch.values[id.0] = v;
        }
        for &id in &scratch.order {
            let node = self.node(id);
            if let Some(cover) = node.cover() {
                scratch.assignment.clear();
                scratch
                    .assignment
                    .extend(node.fanins().iter().map(|f| scratch.values[f.0]));
                scratch.values[id.0] = cover.eval(&scratch.assignment);
            }
        }
        &scratch.values
    }

    /// Evaluates only the primary outputs under an input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.inputs().len()`.
    #[must_use]
    pub fn eval_outputs(&self, inputs: &[bool]) -> Vec<bool> {
        let mut scratch = EvalScratch::default();
        self.eval_outputs_into(inputs, &mut scratch)
    }

    /// Buffered variant of [`Network::eval_outputs`]; see
    /// [`Network::eval_into`] for the scratch contract.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.inputs().len()`.
    pub fn eval_outputs_into(&self, inputs: &[bool], scratch: &mut EvalScratch) -> Vec<bool> {
        self.eval_into(inputs, scratch);
        self.outputs
            .iter()
            .map(|(_, id)| scratch.values[id.0])
            .collect()
    }

    /// Structural sanity check used by tests: every fanin exists, covers
    /// match arities, no cycles.
    ///
    /// # Panics
    ///
    /// Panics (with a description) if an invariant is violated.
    pub fn check_invariants(&self) {
        for id in self.node_ids() {
            let node = self.node(id);
            if let Some(cover) = node.cover() {
                assert_eq!(
                    cover.num_vars(),
                    node.fanins().len(),
                    "arity mismatch at {}",
                    node.name()
                );
            }
            for &f in node.fanins() {
                assert!(
                    self.node_opt(f).is_some(),
                    "dangling fanin at {}",
                    node.name()
                );
            }
        }
        let _ = self.topo_order(); // panics on cycles
        for (_, o) in &self.outputs {
            assert!(self.node_opt(*o).is_some(), "dangling output");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    fn tiny() -> (Network, NodeId, NodeId, NodeId, NodeId) {
        let mut net = Network::new("tiny");
        let a = net.add_input("a").expect("input a");
        let b = net.add_input("b").expect("input b");
        // g = a·b
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "ab").expect("parse"))
            .expect("node g");
        // h = g + a'
        let h = net
            .add_node("h", vec![g, a], parse_sop(2, "a + b'").expect("parse"))
            .expect("node h");
        net.add_output("h", h).expect("output");
        (net, a, b, g, h)
    }

    #[test]
    fn build_and_eval() {
        let (net, ..) = tiny();
        net.check_invariants();
        // h = g + a' where g = ab: h(a,b) = ab + a'
        assert_eq!(net.eval_outputs(&[true, true]), vec![true]);
        assert_eq!(net.eval_outputs(&[true, false]), vec![false]);
        assert_eq!(net.eval_outputs(&[false, true]), vec![true]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut net = Network::new("x");
        net.add_input("a").expect("first");
        assert!(matches!(
            net.add_input("a"),
            Err(NetworkError::DuplicateName(_))
        ));
    }

    #[test]
    fn arity_checked() {
        let mut net = Network::new("x");
        let a = net.add_input("a").expect("input");
        let r = net.add_node("f", vec![a], parse_sop(2, "ab").expect("parse"));
        assert!(matches!(r, Err(NetworkError::ArityMismatch { .. })));
    }

    #[test]
    fn cycle_rejected_on_replace() {
        let (mut net, a, _b, g, h) = tiny();
        // Make g depend on h: would cycle.
        let r = net.replace_function(g, vec![a, h], parse_sop(2, "ab").expect("parse"));
        assert!(matches!(r, Err(NetworkError::WouldCycle(_))));
    }

    #[test]
    fn topo_order_respects_edges() {
        let (net, ..) = tiny();
        let order = net.topo_order();
        let pos = |n: &str| {
            order
                .iter()
                .position(|&id| net.node(id).name() == n)
                .expect("present")
        };
        assert!(pos("a") < pos("g"));
        assert!(pos("g") < pos("h"));
    }

    #[test]
    fn tfo_tfi() {
        let (net, a, _b, _g, h) = tiny();
        let tfo_a: Vec<&str> = net.tfo(a).iter().map(|&n| net.node(n).name()).collect();
        assert!(tfo_a.contains(&"g") && tfo_a.contains(&"h"));
        let tfi_h: Vec<&str> = net.tfi(h).iter().map(|&n| net.node(n).name()).collect();
        assert!(tfi_h.contains(&"a") && tfi_h.contains(&"b") && tfi_h.contains(&"g"));
    }

    #[test]
    fn remove_requires_no_fanout() {
        let (mut net, _a, _b, g, h) = tiny();
        assert!(net.remove_node(g).is_err());
        assert!(net.remove_node(h).is_err()); // primary output
    }

    #[test]
    fn truncate_dead_tail_restores_id_bound() {
        let (mut net, a, b, _g, _h) = tiny();
        let keep = net.id_bound();
        let fresh = net
            .add_node("t0", vec![a, b], parse_sop(2, "ab").expect("parse"))
            .expect("fresh");
        assert_eq!(net.id_bound(), keep + 1);
        net.remove_node(fresh).expect("remove");
        net.truncate_dead_tail(keep);
        assert_eq!(net.id_bound(), keep);
        net.check_invariants();
        // A second call is a no-op and never shrinks below `keep`.
        let v = net.version();
        net.truncate_dead_tail(keep);
        assert_eq!(net.version(), v);
    }

    #[test]
    fn sop_literals_counts_internal_only() {
        let (net, ..) = tiny();
        assert_eq!(net.sop_literals(), 4);
    }
}
