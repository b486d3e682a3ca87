//! Quick algebraic factoring, used for the *factored-form literal count* —
//! the cost metric every table of the paper reports.

use crate::division::{common_cube, divide_by_cube, make_cube_free, weak_divide};
use boolsubst_cube::{display::var_name, Cover, Cube, Lit, Phase};
use std::fmt;

/// A factored form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorTree {
    /// Constant 0.
    Zero,
    /// Constant 1.
    One,
    /// A single literal.
    Lit(Lit),
    /// Product of factors.
    And(Vec<FactorTree>),
    /// Sum of factors.
    Or(Vec<FactorTree>),
}

impl FactorTree {
    /// Number of literal leaves — the factored-form literal count.
    #[must_use]
    pub fn literal_count(&self) -> usize {
        match self {
            FactorTree::Zero | FactorTree::One => 0,
            FactorTree::Lit(_) => 1,
            FactorTree::And(xs) | FactorTree::Or(xs) => {
                xs.iter().map(FactorTree::literal_count).sum()
            }
        }
    }
}

impl fmt::Display for FactorTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorTree::Zero => write!(f, "0"),
            FactorTree::One => write!(f, "1"),
            FactorTree::Lit(l) => {
                write!(f, "{}", var_name(l.var))?;
                if l.phase == Phase::Neg {
                    write!(f, "'")?;
                }
                Ok(())
            }
            FactorTree::And(xs) => {
                for x in xs {
                    match x {
                        FactorTree::Or(_) => write!(f, "({x})")?,
                        _ => write!(f, "{x}")?,
                    }
                }
                Ok(())
            }
            FactorTree::Or(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{x}")?;
                }
                Ok(())
            }
        }
    }
}

/// Quick-factors a cover: repeatedly pulls out the most frequent literal's
/// common cube. Not optimal, but fast, deterministic, and the same metric
/// the comparison applies to every configuration.
#[must_use]
pub fn factor(f: &Cover) -> FactorTree {
    if f.is_empty() {
        return FactorTree::Zero;
    }
    if f.cubes().iter().any(Cube::is_universe) {
        return FactorTree::One;
    }

    // Pull out the common cube first.
    let (cf, cc) = make_cube_free(f);
    if !cc.is_universe() {
        let mut parts: Vec<FactorTree> = cc.lits().map(FactorTree::Lit).collect();
        parts.push(factor_cube_free(&cf));
        return flatten_and(parts);
    }
    factor_cube_free(f)
}

fn factor_cube_free(f: &Cover) -> FactorTree {
    if f.len() == 1 {
        return cube_tree(&f.cubes()[0]);
    }
    // Most frequent literal.
    let n = f.num_vars();
    let mut counts = vec![(0usize, 0usize); n];
    for c in f.cubes() {
        for l in c.lits() {
            match l.phase {
                Phase::Pos => counts[l.var].0 += 1,
                Phase::Neg => counts[l.var].1 += 1,
            }
        }
    }
    let mut best: Option<(Lit, usize)> = None;
    for (v, &(p, m)) in counts.iter().enumerate() {
        for (cnt, lit) in [(p, Lit::pos(v)), (m, Lit::neg(v))] {
            if cnt >= 2 && best.as_ref().is_none_or(|&(_, b)| cnt > b) {
                best = Some((lit, cnt));
            }
        }
    }
    let Some((lit, _)) = best else {
        // No sharing: plain sum of cubes.
        return flatten_or(f.cubes().iter().map(cube_tree).collect());
    };

    let lit_cube = Cube::from_lits(n, &[lit]);
    let by_lit = divide_by_cube(f, &lit_cube).quotient;
    if by_lit.len() >= 2 {
        // GFACTOR refinement: use the (cube-free) kernel f/lit as the
        // divisor so sums shared across the quotient are factored too,
        // e.g. adf + aef + bdf + bef → (a + b)(d + e)f.
        let (kernel, _) = make_cube_free(&by_lit);
        if kernel.len() >= 2 {
            let division = weak_divide(f, &kernel);
            if !division.quotient.is_empty() {
                let head = flatten_and(vec![factor(&kernel), factor(&division.quotient)]);
                return if division.remainder.is_empty() {
                    head
                } else {
                    flatten_or(vec![head, factor(&division.remainder)])
                };
            }
        }
    }

    // Fallback: divide by the full common cube of the cubes containing
    // `lit`.
    let with_lit: Cover = Cover::from_cubes(
        n,
        f.cubes()
            .iter()
            .filter(|c| lit_cube.contains(c))
            .cloned()
            .collect(),
    );
    let divisor = common_cube(&with_lit);
    let division = divide_by_cube(f, &divisor);
    debug_assert!(!division.quotient.is_empty());

    let mut and_parts: Vec<FactorTree> = divisor.lits().map(FactorTree::Lit).collect();
    and_parts.push(factor(&division.quotient));
    let head = flatten_and(and_parts);
    if division.remainder.is_empty() {
        head
    } else {
        flatten_or(vec![head, factor(&division.remainder)])
    }
}

fn cube_tree(c: &Cube) -> FactorTree {
    let lits: Vec<FactorTree> = c.lits().map(FactorTree::Lit).collect();
    match lits.len() {
        0 => FactorTree::One,
        1 => lits.into_iter().next().expect("one element"),
        _ => FactorTree::And(lits),
    }
}

fn flatten_and(parts: Vec<FactorTree>) -> FactorTree {
    let mut out = Vec::new();
    for p in parts {
        match p {
            FactorTree::And(xs) => out.extend(xs),
            FactorTree::One => {}
            other => out.push(other),
        }
    }
    match out.len() {
        0 => FactorTree::One,
        1 => out.into_iter().next().expect("one element"),
        _ => FactorTree::And(out),
    }
}

fn flatten_or(parts: Vec<FactorTree>) -> FactorTree {
    let mut out = Vec::new();
    for p in parts {
        match p {
            FactorTree::Or(xs) => out.extend(xs),
            FactorTree::Zero => {}
            other => out.push(other),
        }
    }
    match out.len() {
        0 => FactorTree::Zero,
        1 => out.into_iter().next().expect("one element"),
        _ => FactorTree::Or(out),
    }
}

/// Factored-form literal count of a cover.
#[must_use]
pub fn factored_literals(f: &Cover) -> usize {
    factor(f).literal_count()
}

/// A lower bound on [`factored_literals`] that needs no factoring: the
/// number of distinct literals of a cover in which no cube contains
/// another (what [`Cover::remove_contained_cubes`] leaves). Factoring such
/// a cover keeps every one of its literals at least once. Any other
/// cover — one with a universe cube among others, a duplicate or empty
/// cube, or a cube inside a larger one — gets the trivial bound 0, since
/// factoring may drop its literals (`ab + abc + d` factors to `ab + d`).
#[must_use]
pub fn factored_literals_lower_bound(f: &Cover) -> usize {
    let cubes = f.cubes();
    let irredundant = cubes.iter().enumerate().all(|(i, c)| {
        !c.is_empty()
            && cubes
                .iter()
                .enumerate()
                .all(|(j, other)| i == j || !other.contains(c))
    });
    if !irredundant {
        return 0;
    }
    let mut seen = vec![[false; 2]; f.num_vars()];
    let mut distinct = 0;
    for l in cubes.iter().flat_map(Cube::lits) {
        let slot = &mut seen[l.var][usize::from(l.phase == Phase::Neg)];
        distinct += usize::from(!*slot);
        *slot = true;
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    fn check(n: usize, s: &str) -> FactorTree {
        let f = parse_sop(n, s).expect("parse");
        let tree = factor(&f);
        // The factored form must evaluate identically to the cover.
        for m in 0u32..(1 << n) {
            let inputs: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(
                eval_tree(&tree, &inputs),
                f.eval(&inputs),
                "mismatch for {s} at {m:b}: {tree}"
            );
        }
        assert!(tree.literal_count() <= f.literal_count());
        tree
    }

    fn eval_tree(t: &FactorTree, inputs: &[bool]) -> bool {
        match t {
            FactorTree::Zero => false,
            FactorTree::One => true,
            FactorTree::Lit(l) => match l.phase {
                Phase::Pos => inputs[l.var],
                Phase::Neg => !inputs[l.var],
            },
            FactorTree::And(xs) => xs.iter().all(|x| eval_tree(x, inputs)),
            FactorTree::Or(xs) => xs.iter().any(|x| eval_tree(x, inputs)),
        }
    }

    #[test]
    fn factors_shared_literal() {
        // ab + ac = a(b + c): 3 literals.
        let tree = check(3, "ab + ac");
        assert_eq!(tree.literal_count(), 3);
    }

    #[test]
    fn factors_textbook() {
        // adf + aef + bdf + bef + cdf + cef + g = (a+b+c)(d+e)f + g : 7 lits
        let tree = check(7, "adf + aef + bdf + bef + cdf + cef + g");
        assert!(
            tree.literal_count() <= 9,
            "got {} lits: {tree}",
            tree.literal_count()
        );
    }

    #[test]
    fn constants() {
        let zero = Cover::new(2);
        assert_eq!(factor(&zero), FactorTree::Zero);
        let one = Cover::one(2);
        assert_eq!(factor(&one), FactorTree::One);
    }

    #[test]
    fn single_cube() {
        let tree = check(3, "ab'c");
        assert_eq!(tree.literal_count(), 3);
        assert_eq!(tree.to_string(), "ab'c");
    }

    #[test]
    fn no_sharing_stays_sop() {
        let tree = check(4, "ab + cd");
        assert_eq!(tree.literal_count(), 4);
    }

    #[test]
    fn display_parenthesizes_sums_inside_products() {
        let f = parse_sop(3, "ab + ac").expect("p");
        let tree = factor(&f);
        assert_eq!(tree.to_string(), "a(b + c)");
    }

    /// Seeded xorshift64: std-only and reproducible.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random cover over `n` variables; some get a universe cube, a
    /// duplicate cube or a cube inside another one.
    fn random_cover(state: &mut u64, n: usize) -> Cover {
        let mut f = Cover::new(n);
        for _ in 0..1 + next(state) % 8 {
            let mut c = Cube::universe(n);
            for v in 0..n {
                match next(state) % 4 {
                    0 => c.restrict(Lit::pos(v)),
                    1 => c.restrict(Lit::neg(v)),
                    _ => {}
                }
            }
            f.push(c);
        }
        match next(state) % 6 {
            0 => f.push(Cube::universe(n)),
            1 => f.push(f.cubes()[0].clone()),
            2 => {
                let mut inner = f.cubes()[0].clone();
                let v = (next(state) % n as u64) as usize;
                if inner.var_state(v) == boolsubst_cube::VarState::DontCare {
                    inner.restrict(Lit::pos(v));
                    f.push(inner);
                }
            }
            _ => {}
        }
        f
    }

    #[test]
    fn lower_bound_never_exceeds_factored_literals() {
        let mut state = 0xFAC7_0B0D_u64;
        let (mut tight, mut positive) = (0usize, 0usize);
        for round in 0..3000 {
            let n = 1 + round % 7;
            let f = random_cover(&mut state, n);
            let mut minimal = f.clone();
            minimal.remove_contained_cubes();
            for cover in [&f, &minimal] {
                let bound = factored_literals_lower_bound(cover);
                let lits = factored_literals(cover);
                assert!(bound <= lits, "{cover}: bound {bound} > {lits}");
            }
            // The bound is not vacuous on what the engine feeds it.
            let bound = factored_literals_lower_bound(&minimal);
            positive += usize::from(bound > 0);
            tight += usize::from(bound == factored_literals(&minimal));
        }
        assert!(positive > 1200 && tight > 1500, "{positive} {tight}");
        // A contained cube voids the bound: factoring drops literal c.
        let f = parse_sop(4, "ab + abc + d").expect("parse");
        assert_eq!(factored_literals(&f), 3);
        assert_eq!(factored_literals_lower_bound(&f), 0);
    }

    #[test]
    fn never_worse_than_sop_on_samples() {
        for (n, s) in [
            (5, "abc + abd + abe"),
            (6, "ab + ac + ad + ae + af"),
            (4, "ab'c + ab'd + a'b"),
            (5, "abcde"),
            (4, "a + b + c + d"),
        ] {
            check(n, s);
        }
    }
}
