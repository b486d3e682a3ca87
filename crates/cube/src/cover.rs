//! Covers: sums of products (lists of [`Cube`]s over a common universe).

use crate::{Cube, Lit};

/// A sum-of-products: an unordered list of cubes over `num_vars` variables.
///
/// The empty cover denotes the constant-0 function; a cover containing the
/// universal cube denotes constant 1 (possibly among other cubes).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cover {
    cubes: Vec<Cube>,
    num_vars: usize,
}

impl Cover {
    /// The empty (constant-0) cover over `num_vars` variables.
    #[must_use]
    pub fn new(num_vars: usize) -> Cover {
        Cover {
            cubes: Vec::new(),
            num_vars,
        }
    }

    /// The constant-1 cover (single universal cube).
    #[must_use]
    pub fn one(num_vars: usize) -> Cover {
        Cover {
            cubes: vec![Cube::universe(num_vars)],
            num_vars,
        }
    }

    /// Builds a cover from cubes, dropping empty ones as [`Cover::push`]
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if any cube's universe differs from `num_vars`.
    #[must_use]
    pub fn from_cubes(num_vars: usize, mut cubes: Vec<Cube>) -> Cover {
        for c in &cubes {
            assert_eq!(c.num_vars(), num_vars, "cube universe mismatch");
        }
        cubes.retain(|c| !c.is_empty());
        Cover { cubes, num_vars }
    }

    /// Number of variables in the universe.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cubes of the cover.
    #[must_use]
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True if the cover has no cubes (constant 0).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Total number of literals over all cubes (SOP literal count).
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Appends a cube, dropping it silently if empty.
    ///
    /// # Panics
    ///
    /// Panics if the cube's universe differs.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.num_vars(), self.num_vars, "cube universe mismatch");
        if !cube.is_empty() {
            self.cubes.push(cube);
        }
    }

    /// Appends all cubes of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn extend_cover(&mut self, other: &Cover) {
        assert_eq!(other.num_vars, self.num_vars, "cover universe mismatch");
        for c in &other.cubes {
            self.push(c.clone());
        }
    }

    /// Boolean OR: concatenation of the two covers.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn or(&self, other: &Cover) -> Cover {
        let mut out = self.clone();
        out.extend_cover(other);
        out
    }

    /// Boolean AND: pairwise cube intersections (may blow up; intended for
    /// small covers such as node functions).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn and(&self, other: &Cover) -> Cover {
        assert_eq!(other.num_vars, self.num_vars, "cover universe mismatch");
        let mut out = Cover::new(self.num_vars);
        for a in &self.cubes {
            for b in &other.cubes {
                out.push(a.and(b));
            }
        }
        out
    }

    /// True if some cube of the cover contains `cube` outright (a purely
    /// structural, single-cube containment test — *not* the full Boolean
    /// containment, for which see [`Cover::covers_cube`]).
    ///
    /// This is the containment notion used by the paper's SOS definition.
    #[must_use]
    pub fn some_cube_contains(&self, cube: &Cube) -> bool {
        self.cubes.iter().any(|c| c.contains(cube))
    }

    /// Cofactor of the cover with respect to literal `l`.
    #[must_use]
    pub fn cofactor_lit(&self, l: Lit) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .filter_map(|c| c.cofactor_lit(l))
            .collect();
        Cover {
            cubes,
            num_vars: self.num_vars,
        }
    }

    /// Cofactor of the cover with respect to cube `c`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn cofactor(&self, c: &Cube) -> Cover {
        let cubes = self.cubes.iter().filter_map(|x| x.cofactor(c)).collect();
        Cover {
            cubes,
            num_vars: self.num_vars,
        }
    }

    /// Removes cubes contained in another cube of the cover (single-cube
    /// containment minimization). Keeps the first of equal cubes.
    pub fn remove_contained_cubes(&mut self) {
        let mut keep: Vec<Cube> = Vec::with_capacity(self.cubes.len());
        'outer: for (i, c) in self.cubes.iter().enumerate() {
            if c.is_empty() {
                continue;
            }
            for k in &keep {
                if k.contains(c) {
                    continue 'outer;
                }
            }
            for later in &self.cubes[i + 1..] {
                // Strictly larger later cube supersedes c; equal cubes are
                // handled by the `keep` scan above.
                if later.contains(c) && !c.contains(later) {
                    continue 'outer;
                }
            }
            keep.push(c.clone());
        }
        self.cubes = keep;
    }

    /// Evaluates the cover on a complete input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() < num_vars`.
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.eval(inputs))
    }

    /// Set of variables appearing in at least one cube.
    #[must_use]
    pub fn support(&self) -> Vec<usize> {
        let mut seen = vec![false; self.num_vars];
        for c in &self.cubes {
            for v in c.support() {
                seen[v] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter_map(|(v, &s)| s.then_some(v))
            .collect()
    }

    /// Remaps variables through `map` into a universe of `new_num_vars`.
    /// A map that sends two variables to one can empty a cube (`ab'` by
    /// `[0, 0]`); such cubes are dropped, as [`Cover::from_cubes`] does.
    ///
    /// # Panics
    ///
    /// Panics if a mapped index is out of range.
    #[must_use]
    pub fn remapped(&self, new_num_vars: usize, map: &[usize]) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .map(|c| c.remapped(new_num_vars, map))
            .collect();
        Cover::from_cubes(new_num_vars, cubes)
    }

    /// Grows the universe to `new_num_vars`, keeping all literals.
    ///
    /// # Panics
    ///
    /// Panics if `new_num_vars < num_vars`.
    #[must_use]
    pub fn extended(&self, new_num_vars: usize) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .map(|c| c.extended(new_num_vars))
            .collect();
        Cover {
            cubes,
            num_vars: new_num_vars,
        }
    }
}

impl FromIterator<Cube> for Cover {
    /// Collects cubes into a cover; the universe is taken from the first
    /// cube (an empty iterator yields a 0-variable constant-0 cover).
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Cover {
        let mut it = iter.into_iter();
        match it.next() {
            None => Cover::new(0),
            Some(first) => {
                let mut cover = Cover::new(first.num_vars());
                cover.push(first);
                for c in it {
                    cover.push(c);
                }
                cover
            }
        }
    }
}

impl Extend<Cube> for Cover {
    fn extend<I: IntoIterator<Item = Cube>>(&mut self, iter: I) {
        for c in iter {
            self.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_sop;

    #[test]
    fn or_and_eval() {
        let f = parse_sop(3, "ab + c").expect("parse");
        let g = parse_sop(3, "a'").expect("parse");
        let h = f.and(&g);
        // (ab + c)a' = a'c
        assert!(h.eval(&[false, false, true]));
        assert!(!h.eval(&[true, true, false]));
        let o = f.or(&g);
        assert!(o.eval(&[false, false, false]));
    }

    #[test]
    fn empty_cube_dropped_on_push() {
        let mut f = Cover::new(2);
        f.push(Cube::from_lits(2, &[Lit::pos(0), Lit::neg(0)]));
        assert!(f.is_empty());
    }

    #[test]
    fn scc_removes_contained() {
        let mut f = parse_sop(3, "ab + abc + a + a").expect("parse");
        f.remove_contained_cubes();
        assert_eq!(f.to_string(), "a");
    }

    #[test]
    fn cofactor_by_lit() {
        let f = parse_sop(3, "ab + a'c").expect("parse");
        let fa = f.cofactor_lit(Lit::pos(0));
        assert_eq!(fa.to_string(), "b");
        let fan = f.cofactor_lit(Lit::neg(0));
        assert_eq!(fan.to_string(), "c");
    }

    #[test]
    fn some_cube_contains_is_structural() {
        let f = parse_sop(3, "ab + c").expect("parse");
        let abc = parse_sop(3, "abc").expect("parse");
        assert!(f.some_cube_contains(&abc.cubes()[0]));
        let ab_prime = parse_sop(3, "ab'").expect("parse");
        assert!(!f.some_cube_contains(&ab_prime.cubes()[0]));
    }

    #[test]
    fn support_lists_used_vars() {
        let f = parse_sop(5, "ac + d'").expect("parse");
        assert_eq!(f.support(), vec![0, 2, 3]);
    }
}
