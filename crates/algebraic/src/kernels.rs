//! Kernel and co-kernel enumeration (Brayton–McMullen recursion).

use crate::division::{divide_by_cube, make_cube_free};
use boolsubst_cube::{Cover, Cube, Lit, Phase};

/// A kernel of a cover together with its co-kernel cube.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The cube-free quotient.
    pub kernel: Cover,
    /// The cube it was divided out by.
    pub cokernel: Cube,
}

/// Enumerates all kernels of `f` (including `f` itself if cube-free, per
/// the standard definition; the trivial single-cube "kernels" are
/// excluded). Duplicate kernels from different co-kernels are kept — the
/// callers weigh them by co-kernel.
#[must_use]
pub fn kernels(f: &Cover) -> Vec<Kernel> {
    let mut out = Vec::new();
    if f.len() < 2 {
        return out;
    }
    let (cf, cc) = make_cube_free(f);
    let mut seen: Vec<Cover> = Vec::new();
    kernel_rec(&cf, 0, &cc, &mut out, &mut seen);
    out
}

/// All literals (var, phase) appearing in ≥ `min_count` cubes of `f`.
fn frequent_literals(f: &Cover, min_count: usize) -> Vec<(Lit, usize)> {
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
    let mut out = Vec::new();
    for (v, &(p, m)) in counts.iter().enumerate() {
        if p >= min_count {
            out.push((Lit::pos(v), p));
        }
        if m >= min_count {
            out.push((Lit::neg(v), m));
        }
    }
    out
}

fn kernel_rec(
    g: &Cover,
    min_lit_index: usize,
    cokernel: &Cube,
    out: &mut Vec<Kernel>,
    seen: &mut Vec<Cover>,
) {
    if g.len() >= 2 && !seen.iter().any(|s| s == g) {
        seen.push(g.clone());
        out.push(Kernel {
            kernel: g.clone(),
            cokernel: cokernel.clone(),
        });
    }
    let n = g.num_vars();
    for (lit, _) in frequent_literals(g, 2) {
        // Deterministic ordering to avoid re-generating kernels: order
        // literals by (var, phase) index.
        let lit_index = lit.var * 2 + usize::from(lit.phase == Phase::Neg);
        if lit_index < min_lit_index {
            continue;
        }
        let lit_cube = Cube::from_lits(n, &[lit]);
        let quotient = divide_by_cube(g, &lit_cube).quotient;
        if quotient.len() < 2 {
            continue;
        }
        let (cf, extra) = make_cube_free(&quotient);
        // Check no smaller-indexed literal divides all cubes of cf ∪ the
        // extracted common cube (classic pruning: skip if the co-kernel
        // grows a literal with index < lit_index).
        let mut blocked = false;
        for l in extra.lits() {
            let idx = l.var * 2 + usize::from(l.phase == Phase::Neg);
            if idx < lit_index {
                blocked = true;
                break;
            }
        }
        if blocked {
            continue;
        }
        let mut ck = cokernel.and(&lit_cube);
        ck = ck.and(&extra);
        kernel_rec(&cf, lit_index + 1, &ck, out, seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    #[test]
    fn kernels_of_textbook_example() {
        // f = adf + aef + bdf + bef + cdf + cef + g
        //   = (a + b + c)(d + e)f + g
        let f = parse_sop(7, "adf + aef + bdf + bef + cdf + cef + g").expect("p");
        let ks = kernels(&f);
        let strings: Vec<String> = ks.iter().map(|k| k.kernel.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == "a + b + c"),
            "missing a+b+c in {strings:?}"
        );
        assert!(
            strings.iter().any(|s| s == "d + e"),
            "missing d+e in {strings:?}"
        );
        // The whole (cube-free) f is a kernel of itself.
        assert!(strings.iter().any(|s| s.contains('g')));
    }

    #[test]
    fn single_cube_has_no_kernels() {
        let f = parse_sop(3, "abc").expect("p");
        assert!(kernels(&f).is_empty());
    }

    #[test]
    fn kernel_times_cokernel_stays_in_f() {
        let f = parse_sop(5, "ab + ac + ad + bc").expect("p");
        for k in kernels(&f) {
            let product = k
                .kernel
                .and(&Cover::from_cubes(5, vec![k.cokernel.clone()]));
            for c in product.cubes() {
                assert!(
                    f.cubes().iter().any(|fc| fc == c),
                    "cube {c} of kernel product not in f"
                );
            }
        }
    }
}
