//! Exact minterm counting for covers via disjoint decomposition — useful
//! for coverage statistics and as a cheap functional fingerprint.

use crate::{Cover, Cube, Lit, Phase, VarState};

impl Cover {
    /// Number of minterms the cover contains, computed by disjointing the
    /// cubes (recursive sharp). Exact; exponential only in pathological
    /// overlap patterns, fine for node-sized covers.
    ///
    /// # Panics
    ///
    /// Panics if the universe exceeds 127 variables (the count could
    /// overflow `u128`).
    #[must_use]
    pub fn minterm_count(&self) -> u128 {
        assert!(
            self.num_vars() <= 127,
            "minterm_count limited to 127 variables"
        );
        let mut disjoint: Vec<Cube> = Vec::new();
        for cube in self.cubes() {
            // Pieces of `cube` not covered by the already-collected
            // disjoint set.
            let mut pieces = vec![cube.clone()];
            for d in &disjoint {
                let mut next = Vec::new();
                for p in pieces {
                    next.extend(sharp_cube(&p, d));
                }
                pieces = next;
                if pieces.is_empty() {
                    break;
                }
            }
            disjoint.extend(pieces);
        }
        let n = self.num_vars() as u32;
        disjoint
            .iter()
            .map(|c| 1u128 << (n - c.literal_count() as u32))
            .sum()
    }
}

/// `a \ b` as a list of pairwise-disjoint cubes (the classical disjoint
/// sharp of two cubes).
fn sharp_cube(a: &Cube, b: &Cube) -> Vec<Cube> {
    let n = a.num_vars();
    if a.distance(b) > 0 {
        return vec![a.clone()]; // disjoint already
    }
    // For each variable where b is tighter than a, peel off the half of a
    // that b excludes; restrict a to b's phase and continue.
    let mut out = Vec::new();
    let mut rest = a.clone();
    for v in 0..n {
        let (sa, sb) = (rest.var_state(v), b.var_state(v));
        match (sa, sb) {
            (VarState::DontCare, VarState::Pos) => {
                let mut piece = rest.clone();
                piece.restrict(Lit {
                    var: v,
                    phase: Phase::Neg,
                });
                out.push(piece);
                rest.restrict(Lit {
                    var: v,
                    phase: Phase::Pos,
                });
            }
            (VarState::DontCare, VarState::Neg) => {
                let mut piece = rest.clone();
                piece.restrict(Lit {
                    var: v,
                    phase: Phase::Pos,
                });
                out.push(piece);
                rest.restrict(Lit {
                    var: v,
                    phase: Phase::Neg,
                });
            }
            _ => {}
        }
    }
    // `rest` is now contained in b: dropped.
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_sop;

    fn brute(f: &Cover) -> u128 {
        let n = f.num_vars();
        let mut count = 0u128;
        for m in 0u64..(1 << n) {
            let ins: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            if f.eval(&ins) {
                count += 1;
            }
        }
        count
    }

    #[test]
    fn counts_match_brute_force() {
        for (n, s) in [
            (3, "ab + a'c"),
            (3, "ab + ac + bc'"),
            (4, "ab + cd"),
            (2, "a + a'"),
            (4, "abcd"),
            (5, "a + b + c + d + e"),
        ] {
            let f = parse_sop(n, s).expect("parse");
            assert_eq!(f.minterm_count(), brute(&f), "mismatch on {s}");
        }
    }

    #[test]
    fn constants() {
        assert_eq!(Cover::new(4).minterm_count(), 0);
        assert_eq!(Cover::one(4).minterm_count(), 16);
    }

    #[test]
    fn overlapping_cubes_not_double_counted() {
        let f = parse_sop(3, "a + a + ab + abc").expect("parse");
        assert_eq!(f.minterm_count(), 4);
    }

    #[test]
    fn equivalent_covers_same_count() {
        let f = parse_sop(3, "ab + a'c + bc").expect("parse");
        let g = parse_sop(3, "ab + a'c").expect("parse");
        assert_eq!(f.minterm_count(), g.minterm_count());
    }
}
