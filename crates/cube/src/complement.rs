//! Cover complementation via recursive Shannon expansion, plus cube
//! complement (De Morgan) and the sharp (`\`) operation.

use crate::{Cover, Cube, Lit, Phase};

impl Cube {
    /// Complement of a single cube as a cover: one single-literal cube per
    /// literal, each with the phase flipped (De Morgan).
    #[must_use]
    pub fn complement(&self) -> Cover {
        let n = self.num_vars();
        if self.is_empty() {
            return Cover::one(n);
        }
        let mut out = Cover::new(n);
        for l in self.lits() {
            out.push(Cube::from_lits(n, &[l.negated()]));
        }
        out
    }
}

impl Cover {
    /// Complement of the cover.
    ///
    /// Recursive Shannon expansion on the most binate variable with
    /// single-cube terminal cases; the result is made minimal with respect
    /// to single-cube containment but is not otherwise optimized.
    #[must_use]
    pub fn complement(&self) -> Cover {
        let mut out = compl_rec(self);
        out.remove_contained_cubes();
        out
    }

    /// The sharp operation `self \ other` (minterms of `self` not in
    /// `other`), returned as a cover.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn sharp(&self, other: &Cover) -> Cover {
        self.and(&other.complement())
    }
}

fn compl_rec(f: &Cover) -> Cover {
    let n = f.num_vars();
    if f.is_empty() {
        return Cover::one(n);
    }
    if f.cubes().iter().any(Cube::is_universe) {
        return Cover::new(n);
    }
    if f.len() == 1 {
        return f.cubes()[0].complement();
    }

    // Pick the most binate variable (fall back to the most frequent).
    let mut counts = vec![(0u32, 0u32); n];
    for c in f.cubes() {
        for l in c.lits() {
            match l.phase {
                Phase::Pos => counts[l.var].0 += 1,
                Phase::Neg => counts[l.var].1 += 1,
            }
        }
    }
    let v = counts
        .iter()
        .enumerate()
        .filter(|(_, &(p, m))| p + m > 0)
        .max_by_key(|(_, &(p, m))| (p.min(m), p + m))
        .map(|(v, _)| v)
        .expect("nonempty non-constant cover has a used variable");

    // compl(f) = x'·compl(f|x') + x·compl(f|x)
    let mut out = Cover::new(n);
    for phase in [Phase::Pos, Phase::Neg] {
        let l = Lit { var: v, phase };
        let sub = compl_rec(&f.cofactor_lit(l));
        for c in sub.cubes() {
            let mut c = c.clone();
            c.restrict(l);
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_sop;

    fn check_complement(n: usize, s: &str) {
        let f = parse_sop(n, s).expect("parse");
        let g = f.complement();
        // f + f' tautology, f·f' empty.
        assert!(f.or(&g).is_tautology(), "f + f' not tautology for {s}");
        let mut inter = f.and(&g);
        inter.remove_contained_cubes();
        assert!(inter.is_empty(), "f·f' nonempty for {s}: {inter}");
    }

    #[test]
    fn complement_identities() {
        check_complement(3, "ab + a'c");
        check_complement(2, "ab' + a'b");
        check_complement(4, "ab + cd");
        check_complement(3, "a + b + c");
        check_complement(1, "a");
    }

    #[test]
    fn complement_of_constants() {
        let zero = Cover::new(3);
        assert!(zero.complement().is_tautology());
        let one = Cover::one(3);
        assert!(one.complement().is_empty());
    }

    #[test]
    fn cube_complement_de_morgan() {
        let c = parse_sop(3, "ab'c").expect("parse");
        let comp = c.cubes()[0].complement();
        assert_eq!(comp.to_string(), "a' + b + c'");
    }

    /// Complementing commutes with a monotone (order-preserving) remap
    /// into a larger space, cube for cube: the split variable and every
    /// tie-break keep their relative order, and the new variables are
    /// unused. The engine relies on this to complement a target once in
    /// its own fanin space and remap the result into each joint space.
    #[test]
    fn complement_commutes_with_monotone_remap() {
        let mut state = 0xC0_4B1E_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..2000 {
            let n = 1 + round % 6;
            let mut f = Cover::new(n);
            for _ in 0..next() % 7 {
                let mut c = Cube::universe(n);
                for v in 0..n {
                    match next() % 3 {
                        0 => c.restrict(Lit::pos(v)),
                        1 => c.restrict(Lit::neg(v)),
                        _ => {}
                    }
                }
                f.push(c);
            }
            // A strictly increasing map into n + extra variables.
            let extra = (next() % 5) as usize;
            let mut map = Vec::with_capacity(n);
            let mut at = 0;
            let mut spare = extra;
            for _ in 0..n {
                let skip = if spare > 0 {
                    (next() % (spare as u64 + 1)) as usize
                } else {
                    0
                };
                spare -= skip;
                at += skip;
                map.push(at);
                at += 1;
            }
            let m = n + extra;
            assert_eq!(
                f.remapped(m, &map).complement(),
                f.complement().remapped(m, &map),
                "f = {f}, map {map:?}"
            );
        }
    }

    #[test]
    fn sharp_subtracts() {
        let f = parse_sop(2, "a").expect("parse");
        let g = parse_sop(2, "ab").expect("parse");
        let d = f.sharp(&g);
        let want = parse_sop(2, "ab'").expect("parse");
        assert!(d.equivalent(&want));
    }
}
