//! Algebraic resubstitution — the SIS `resub -d` baseline of the paper's
//! tables: every internal node is tried as an (algebraic) divisor of every
//! other node, optionally also in complemented form.

use crate::division::weak_divide;
use crate::factor::factored_literals;
use crate::space::JointSpace;
use boolsubst_cube::{Cover, Lit, Phase};
use boolsubst_network::{Network, NodeId};

/// Options for [`algebraic_resub`].
#[derive(Debug, Clone, Copy)]
pub struct ResubOptions {
    /// Also try each divisor's complement (SIS `-d`).
    pub use_complement: bool,
    /// Maximum sweeps over all node pairs.
    pub max_passes: usize,
    /// Skip complements whose cover exceeds this many cubes.
    pub complement_cube_limit: usize,
}

impl Default for ResubOptions {
    fn default() -> ResubOptions {
        ResubOptions {
            use_complement: true,
            max_passes: 2,
            complement_cube_limit: 64,
        }
    }
}

/// Statistics from a resubstitution run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResubStats {
    /// Number of accepted substitutions.
    pub substitutions: usize,
    /// Total factored-literal gain.
    pub literal_gain: usize,
}

/// Outcome of a single division attempt, before it is applied.
#[derive(Debug)]
pub struct SubstitutionPlan {
    /// The target node.
    pub target: NodeId,
    /// The divisor node.
    pub divisor: NodeId,
    /// Whether the divisor is used complemented.
    pub complemented: bool,
    /// New fanins for the target.
    pub fanins: Vec<NodeId>,
    /// New cover for the target (over `fanins`).
    pub cover: Cover,
    /// Factored-literal gain (old − new).
    pub gain: i64,
}

/// Attempts the algebraic division of `target` by `divisor` (and, if
/// requested, its complement), returning the better substitution plan if
/// the quotient is non-empty. Does not modify the network.
///
/// Returns `None` when the quotient is empty, the pairing is structurally
/// invalid (inputs, identical nodes, would create a cycle, divisor already
/// a fanin), or the complement is too large.
#[must_use]
pub fn try_algebraic_substitution(
    net: &Network,
    target: NodeId,
    divisor: NodeId,
    opts: &ResubOptions,
) -> Option<SubstitutionPlan> {
    if target == divisor
        || net.node(target).is_input()
        || net.node(divisor).is_input()
        || net.node(target).fanins().contains(&divisor)
        || net.in_tfo(divisor, target)
    {
        return None;
    }
    let space = JointSpace::union_of_fanins(net, &[target, divisor]);
    // The divisor node itself must not be a variable of the space (that
    // would mean divisor is a fanin of target, excluded above) — but the
    // divisor might feed other fanins; only direct use matters here.
    let f = space.cover_of(net, target);
    let d = space.cover_of(net, divisor);
    if d.is_empty() {
        return None;
    }

    let mut best: Option<SubstitutionPlan> = None;
    let mut consider = |d_cover: &Cover, complemented: bool| {
        let division = weak_divide(&f, d_cover);
        if division.quotient.is_empty() {
            return;
        }
        // New function: q·x + r over space ∪ {divisor}.
        let n = space.len();
        let phase = if complemented { Phase::Neg } else { Phase::Pos };
        let mut new_cover = Cover::new(n + 1);
        for c in division.quotient.cubes() {
            let mut c = c.extended(n + 1);
            c.restrict(Lit { var: n, phase });
            new_cover.push(c);
        }
        new_cover.extend_cover(&division.remainder.extended(n + 1));
        let mut fanins = space.vars.clone();
        fanins.push(divisor);
        // Prune unused variables.
        let support = new_cover.support();
        let kept: Vec<NodeId> = support.iter().map(|&v| fanins[v]).collect();
        let mut map = vec![0usize; n + 1];
        for (new_idx, &v) in support.iter().enumerate() {
            map[v] = new_idx;
        }
        let new_cover = new_cover.remapped(kept.len(), &map);

        let old_lits = factored_literals(net.node(target).cover().expect("internal"));
        let new_lits = factored_literals(&new_cover);
        let gain = old_lits as i64 - new_lits as i64;
        if best.as_ref().is_none_or(|b| gain > b.gain) {
            best = Some(SubstitutionPlan {
                target,
                divisor,
                complemented,
                fanins: kept,
                cover: new_cover,
                gain,
            });
        }
    };

    consider(&d, false);
    if opts.use_complement {
        let dc = d.complement();
        if dc.len() <= opts.complement_cube_limit && !dc.is_empty() {
            consider(&dc, true);
        }
    }
    best
}

/// Applies a substitution plan to the network.
///
/// # Panics
///
/// Panics if the plan no longer fits the network (e.g. the target was
/// edited since the plan was made).
pub fn apply_substitution(net: &mut Network, plan: &SubstitutionPlan) {
    net.replace_function(plan.target, plan.fanins.clone(), plan.cover.clone())
        .expect("substitution plan must be applicable");
}

/// SIS-style `resub [-d]`: sweeps all (target, divisor) pairs, greedily
/// applying any substitution with positive factored-literal gain.
pub fn algebraic_resub(net: &mut Network, opts: &ResubOptions) -> ResubStats {
    let mut stats = ResubStats::default();
    for _ in 0..opts.max_passes.max(1) {
        let mut changed = false;
        let targets: Vec<NodeId> = net.internal_ids().collect();
        for &target in &targets {
            if net.node_opt(target).is_none() {
                continue;
            }
            let divisors: Vec<NodeId> = net.internal_ids().collect();
            for divisor in divisors {
                if net.node_opt(target).is_none() {
                    break;
                }
                let Some(plan) = try_algebraic_substitution(net, target, divisor, opts) else {
                    continue;
                };
                if plan.gain > 0 {
                    apply_substitution(net, &plan);
                    stats.substitutions += 1;
                    stats.literal_gain += plan.gain as usize;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    stats
}

/// Factored-form literal count of the whole network (the paper's metric).
#[must_use]
pub fn network_factored_literals(net: &Network) -> usize {
    net.internal_ids()
        .map(|id| factored_literals(net.node(id).cover().expect("internal")))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;
    use boolsubst_network::random_sim_equivalent;

    /// f = ac + ad + bc + bd + e over PIs, g = a + b exists.
    fn resub_fixture() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("fixture");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let d = net.add_input("d").expect("d");
        let e = net.add_input("e").expect("e");
        let f = net
            .add_node(
                "f",
                vec![a, b, c, d, e],
                parse_sop(5, "ac + ad + bc + bd + e").expect("p"),
            )
            .expect("f");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "a + b").expect("p"))
            .expect("g");
        net.add_output("f", f).expect("o");
        net.add_output("g", g).expect("o");
        (net, f, g)
    }

    #[test]
    fn finds_textbook_substitution() {
        let (net, f, g) = resub_fixture();
        let plan = try_algebraic_substitution(&net, f, g, &ResubOptions::default())
            .expect("quotient exists");
        assert!(plan.gain > 0, "gain {}", plan.gain);
        assert!(!plan.complemented);
        // New f should be g(c + d) + e : 4 factored literals.
        assert_eq!(factored_literals(&plan.cover), 4);
    }

    #[test]
    fn resub_pass_preserves_function() {
        let (mut net, ..) = resub_fixture();
        let before = net.clone();
        let stats = algebraic_resub(&mut net, &ResubOptions::default());
        assert!(stats.substitutions >= 1);
        net.check_invariants();
        assert!(random_sim_equivalent(&before, &net, 200, 42));
        assert!(network_factored_literals(&net) < network_factored_literals(&before));
    }

    #[test]
    fn complement_divisor_found() {
        // f = a'b' + c, g = a + b : f = g' + c needs the complement.
        let mut net = Network::new("compl");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let f = net
            .add_node("f", vec![a, b, c], parse_sop(3, "a'b' + c").expect("p"))
            .expect("f");
        let g = net
            .add_node("g", vec![a, b], parse_sop(2, "a + b").expect("p"))
            .expect("g");
        net.add_output("f", f).expect("o");
        net.add_output("g", g).expect("o");
        let plan = try_algebraic_substitution(&net, f, g, &ResubOptions::default())
            .expect("complement divides");
        assert!(plan.complemented);
        let before = net.clone();
        let mut after = net.clone();
        apply_substitution(&mut after, &plan);
        after.check_invariants();
        assert!(random_sim_equivalent(&before, &after, 100, 7));
    }

    #[test]
    fn rejects_cycle_creating_substitution() {
        let (net, f, g) = resub_fixture();
        // Dividing g by f would make g depend on f; f already... actually f
        // does not depend on g yet, so try the reverse direction after a
        // first substitution.
        let mut net2 = net.clone();
        let plan = try_algebraic_substitution(&net2, f, g, &ResubOptions::default()).expect("plan");
        apply_substitution(&mut net2, &plan);
        // Now f depends on g: dividing g by f must be rejected.
        assert!(try_algebraic_substitution(&net2, g, f, &ResubOptions::default()).is_none());
    }

    #[test]
    fn no_gain_no_change() {
        let mut net = Network::new("nogain");
        let a = net.add_input("a").expect("a");
        let b = net.add_input("b").expect("b");
        let c = net.add_input("c").expect("c");
        let f = net
            .add_node("f", vec![a, b], parse_sop(2, "ab").expect("p"))
            .expect("f");
        let g = net
            .add_node("g", vec![b, c], parse_sop(2, "ab").expect("p"))
            .expect("g");
        net.add_output("f", f).expect("o");
        net.add_output("g", g).expect("o");
        let stats = algebraic_resub(&mut net, &ResubOptions::default());
        assert_eq!(stats.substitutions, 0);
    }
}
