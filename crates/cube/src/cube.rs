//! Single-cube (product term) representation in positional notation.
//!
//! Each variable occupies two adjacent bits of a packed `u64` array:
//! bit `2v` set means the *negative* phase of variable `v` is allowed,
//! bit `2v + 1` set means the *positive* phase is allowed. Both bits set
//! means the variable is absent from the product (don't care); both bits
//! clear makes the cube empty (it covers no minterm).

use std::fmt;

/// Phase of a literal within a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// The variable appears complemented (`x'`).
    Neg,
    /// The variable appears uncomplemented (`x`).
    Pos,
}

impl Phase {
    /// Returns the opposite phase.
    #[must_use]
    pub fn flipped(self) -> Phase {
        match self {
            Phase::Neg => Phase::Pos,
            Phase::Pos => Phase::Neg,
        }
    }
}

/// A literal: a variable index paired with a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit {
    /// Variable index.
    pub var: usize,
    /// Phase of the variable.
    pub phase: Phase,
}

impl Lit {
    /// Creates a positive literal for variable `var`.
    #[must_use]
    pub fn pos(var: usize) -> Lit {
        Lit {
            var,
            phase: Phase::Pos,
        }
    }

    /// Creates a negative literal for variable `var`.
    #[must_use]
    pub fn neg(var: usize) -> Lit {
        Lit {
            var,
            phase: Phase::Neg,
        }
    }

    /// Returns this literal with the phase flipped.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit {
            var: self.var,
            phase: self.phase.flipped(),
        }
    }
}

/// Value of a variable slot inside a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarState {
    /// Variable absent (both phases allowed).
    DontCare,
    /// Positive literal present.
    Pos,
    /// Negative literal present.
    Neg,
    /// Neither phase allowed — the cube is empty.
    Empty,
}

/// A product term over `num_vars` variables, packed two bits per variable.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    words: Vec<u64>,
    num_vars: usize,
}

pub(crate) const VARS_PER_WORD: usize = 32;

/// The low (negative-phase) bit of every slot.
pub(crate) const EVEN_BITS: u64 = 0x5555_5555_5555_5555;

/// Words per cube over `num_vars` variables (at least one).
pub(crate) fn word_count(num_vars: usize) -> usize {
    num_vars.div_ceil(VARS_PER_WORD).max(1)
}

/// Word `i` of the universal cube over `num_vars` variables: every slot
/// `11`, and the bits above the last variable clear so that equality and
/// hashing are canonical.
pub(crate) fn full_word(num_vars: usize, i: usize) -> u64 {
    match (2 * num_vars).saturating_sub(64 * i) {
        0 => 0,
        used if used >= 64 => !0,
        used => (1u64 << used) - 1,
    }
}

/// One even bit per empty (`00`) slot of `w` among the slots of `full`.
pub(crate) fn empty_slots(w: u64, full: u64) -> u64 {
    !(w | (w >> 1)) & full & EVEN_BITS
}

impl Cube {
    /// The universal cube (no literals) over `num_vars` variables.
    #[must_use]
    pub fn universe(num_vars: usize) -> Cube {
        let words = (0..word_count(num_vars))
            .map(|i| full_word(num_vars, i))
            .collect();
        Cube { words, num_vars }
    }

    /// A cube containing the given literals; duplicate literals are merged,
    /// and contradictory literals (`x` and `x'`) yield an empty cube.
    ///
    /// # Panics
    ///
    /// Panics if any literal's variable index is `>= num_vars`.
    #[must_use]
    pub fn from_lits(num_vars: usize, lits: &[Lit]) -> Cube {
        let mut c = Cube::universe(num_vars);
        for &l in lits {
            c.restrict(l);
        }
        c
    }

    /// A cube over `num_vars` variables from its packed words; the bits
    /// above the last variable must be clear.
    pub(crate) fn from_words(num_vars: usize, words: Vec<u64>) -> Cube {
        debug_assert_eq!(words.len(), word_count(num_vars));
        Cube { words, num_vars }
    }

    /// The packed words, two bits per variable.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of variables in the cube's universe.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    #[inline]
    fn slot(var: usize) -> (usize, u32) {
        (var / VARS_PER_WORD, (2 * (var % VARS_PER_WORD)) as u32)
    }

    /// State of variable `var` in this cube.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    #[must_use]
    pub fn var_state(&self, var: usize) -> VarState {
        assert!(var < self.num_vars, "variable {var} out of range");
        let (w, s) = Self::slot(var);
        match (self.words[w] >> s) & 0b11 {
            0b11 => VarState::DontCare,
            0b10 => VarState::Pos,
            0b01 => VarState::Neg,
            _ => VarState::Empty,
        }
    }

    /// Adds literal `l`, intersecting it with the current slot value.
    pub fn restrict(&mut self, l: Lit) {
        assert!(l.var < self.num_vars, "variable {} out of range", l.var);
        let (w, s) = Self::slot(l.var);
        let keep = match l.phase {
            Phase::Pos => 0b10u64 << s,
            Phase::Neg => 0b01u64 << s,
        };
        let mask = !(0b11u64 << s) | keep;
        self.words[w] &= mask;
    }

    /// Removes any literal of variable `var` (sets it to don't care).
    pub fn free_var(&mut self, var: usize) {
        assert!(var < self.num_vars, "variable {var} out of range");
        let (w, s) = Self::slot(var);
        self.words[w] |= 0b11u64 << s;
    }

    /// True if the cube covers no minterm (some variable has neither phase).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words
            .iter()
            .enumerate()
            .any(|(i, &w)| empty_slots(w, full_word(self.num_vars, i)) != 0)
    }

    /// True if the cube is the universal cube (no literals).
    #[must_use]
    pub fn is_universe(&self) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w == full_word(self.num_vars, i))
    }

    /// Number of literals in the cube. Empty slots count as two (both
    /// phases excluded); callers normally check [`Cube::is_empty`] first.
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.words
            .iter()
            .enumerate()
            .map(|(i, &w)| (full_word(self.num_vars, i) & !w).count_ones() as usize)
            .sum()
    }

    /// Iterates over the literals present in the cube.
    pub fn lits(&self) -> impl Iterator<Item = Lit> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let hi = (w >> 1) & EVEN_BITS;
            // One even bit per slot holding exactly one phase (01 or 10).
            let mut slots = (w & EVEN_BITS) ^ hi;
            std::iter::from_fn(move || {
                if slots == 0 {
                    return None;
                }
                let b = slots.trailing_zeros();
                slots &= slots - 1;
                let var = i * VARS_PER_WORD + (b / 2) as usize;
                Some(if (hi >> b) & 1 == 1 {
                    Lit::pos(var)
                } else {
                    Lit::neg(var)
                })
            })
        })
    }

    /// Variables the cube's value depends on: those with a literal. An
    /// empty cube is 0 everywhere ([`Cube::eval`]), so it has none.
    pub fn support(&self) -> impl Iterator<Item = usize> + '_ {
        let empty = self.is_empty();
        self.lits().filter(move |_| !empty).map(|l| l.var)
    }

    /// Intersection (Boolean AND) of two cubes.
    ///
    /// # Panics
    ///
    /// Panics if the cubes have different universes.
    #[must_use]
    pub fn and(&self, other: &Cube) -> Cube {
        assert_eq!(self.num_vars, other.num_vars, "cube universes differ");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Cube {
            words,
            num_vars: self.num_vars,
        }
    }

    /// True if `self` contains `other` (every minterm of `other` is in
    /// `self`). Empty cubes are contained by everything.
    ///
    /// # Panics
    ///
    /// Panics if the cubes have different universes.
    #[must_use]
    pub fn contains(&self, other: &Cube) -> bool {
        assert_eq!(self.num_vars, other.num_vars, "cube universes differ");
        if other.is_empty() {
            return true;
        }
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == *b)
    }

    /// Number of variables in which the two cubes have disjoint phases
    /// (the classical cube *distance*). Distance 0 means the cubes
    /// intersect; distance 1 means they are mergeable by consensus.
    ///
    /// # Panics
    ///
    /// Panics if the cubes have different universes.
    #[must_use]
    pub fn distance(&self, other: &Cube) -> usize {
        assert_eq!(self.num_vars, other.num_vars, "cube universes differ");
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .map(|(i, (a, b))| {
                empty_slots(a & b, full_word(self.num_vars, i)).count_ones() as usize
            })
            .sum()
    }

    /// Cofactor of this cube with respect to literal `l`: the cube with the
    /// constraint on `l.var` removed, or `None` if the cube conflicts with
    /// `l` (the cofactor is empty).
    #[must_use]
    pub fn cofactor_lit(&self, l: Lit) -> Option<Cube> {
        match (self.var_state(l.var), l.phase) {
            (VarState::Empty, _) => None,
            (VarState::Pos, Phase::Neg) | (VarState::Neg, Phase::Pos) => None,
            _ => {
                let mut c = self.clone();
                c.free_var(l.var);
                Some(c)
            }
        }
    }

    /// Generalized cofactor of this cube with respect to cube `c`
    /// (`self / c` in the Shannon sense), or `None` if disjoint.
    ///
    /// # Panics
    ///
    /// Panics if the cubes have different universes.
    #[must_use]
    pub fn cofactor(&self, c: &Cube) -> Option<Cube> {
        assert_eq!(self.num_vars, c.num_vars, "cube universes differ");
        if self.distance(c) > 0 {
            return None;
        }
        // Free every variable constrained by c.
        let mut out = self.clone();
        for v in c.support() {
            out.free_var(v);
        }
        Some(out)
    }

    /// Grows the universe to `new_num_vars`, keeping existing literals
    /// (and an empty cube empty); the new variables are don't cares.
    ///
    /// # Panics
    ///
    /// Panics if `new_num_vars < self.num_vars()`.
    #[must_use]
    pub fn extended(&self, new_num_vars: usize) -> Cube {
        assert!(new_num_vars >= self.num_vars, "cannot shrink a cube");
        let words = (0..word_count(new_num_vars))
            .map(|i| {
                let old = self.words.get(i).copied().unwrap_or(0);
                old | (full_word(new_num_vars, i) & !full_word(self.num_vars, i))
            })
            .collect();
        Cube {
            words,
            num_vars: new_num_vars,
        }
    }

    /// Remaps variables through `map` into a cube over `new_num_vars`
    /// variables; `map[v]` gives the new index of old variable `v`. Every
    /// slot that is not a don't care is intersected into its new slot, so
    /// an empty cube stays empty.
    ///
    /// # Panics
    ///
    /// Panics if a mapped index is out of range or `map` is shorter than the
    /// cube's universe.
    #[must_use]
    pub fn remapped(&self, new_num_vars: usize, map: &[usize]) -> Cube {
        let mut out = Cube::universe(new_num_vars);
        for (i, &w) in self.words.iter().enumerate() {
            // One even bit per slot other than `11`: a literal or `00`.
            let mut slots = !(w & (w >> 1)) & full_word(self.num_vars, i) & EVEN_BITS;
            while slots != 0 {
                let b = slots.trailing_zeros();
                slots &= slots - 1;
                let var = map[i * VARS_PER_WORD + (b / 2) as usize];
                assert!(var < new_num_vars, "variable {var} out of range");
                let (to, s) = Self::slot(var);
                out.words[to] &= !(0b11 << s) | (((w >> b) & 0b11) << s);
            }
        }
        out
    }

    /// Evaluates the cube on a complete input assignment (`inputs[v]` is
    /// the value of variable `v`). An empty cube is 0 everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() < num_vars`.
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> bool {
        assert!(inputs.len() >= self.num_vars, "assignment too short");
        !self.is_empty()
            && self.lits().all(|l| match l.phase {
                Phase::Pos => inputs[l.var],
                Phase::Neg => !inputs[l.var],
            })
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({self})")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "0");
        }
        if self.is_universe() {
            return write!(f, "1");
        }
        for l in self.lits() {
            write!(f, "{}", super::display::var_name(l.var))?;
            if l.phase == Phase::Neg {
                write!(f, "'")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_has_no_literals() {
        let c = Cube::universe(5);
        assert_eq!(c.literal_count(), 0);
        assert!(!c.is_empty());
        assert!(c.is_universe());
    }

    #[test]
    fn restrict_and_state() {
        let mut c = Cube::universe(4);
        c.restrict(Lit::pos(1));
        c.restrict(Lit::neg(3));
        assert_eq!(c.var_state(0), VarState::DontCare);
        assert_eq!(c.var_state(1), VarState::Pos);
        assert_eq!(c.var_state(3), VarState::Neg);
        assert_eq!(c.literal_count(), 2);
    }

    #[test]
    fn contradictory_literals_empty_cube() {
        let c = Cube::from_lits(3, &[Lit::pos(0), Lit::neg(0)]);
        assert!(c.is_empty());
        assert!(Cube::universe(3).contains(&c));
    }

    #[test]
    fn containment_is_literal_subset() {
        let ab = Cube::from_lits(3, &[Lit::pos(0), Lit::pos(1)]);
        let abc = Cube::from_lits(3, &[Lit::pos(0), Lit::pos(1), Lit::pos(2)]);
        assert!(ab.contains(&abc));
        assert!(!abc.contains(&ab));
        assert!(ab.contains(&ab));
    }

    #[test]
    fn and_intersects() {
        let a = Cube::from_lits(3, &[Lit::pos(0)]);
        let bn = Cube::from_lits(3, &[Lit::neg(1)]);
        let both = a.and(&bn);
        assert_eq!(both.var_state(0), VarState::Pos);
        assert_eq!(both.var_state(1), VarState::Neg);
        let an = Cube::from_lits(3, &[Lit::neg(0)]);
        assert!(a.and(&an).is_empty());
    }

    #[test]
    fn distance_counts_conflicts() {
        let c1 = Cube::from_lits(4, &[Lit::pos(0), Lit::pos(1)]);
        let c2 = Cube::from_lits(4, &[Lit::neg(0), Lit::neg(1), Lit::pos(2)]);
        assert_eq!(c1.distance(&c2), 2);
        assert_eq!(c1.distance(&c1), 0);
    }

    #[test]
    fn cofactor_by_literal() {
        let c = Cube::from_lits(3, &[Lit::pos(0), Lit::neg(1)]);
        let cf = c.cofactor_lit(Lit::pos(0)).expect("compatible");
        assert_eq!(cf, Cube::from_lits(3, &[Lit::neg(1)]));
        assert!(c.cofactor_lit(Lit::neg(0)).is_none());
        // Cofactor w.r.t. an unconstrained variable leaves the cube intact.
        assert_eq!(c.cofactor_lit(Lit::pos(2)).expect("free var"), c);
    }

    #[test]
    fn eval_matches_lits() {
        let c = Cube::from_lits(3, &[Lit::pos(0), Lit::neg(2)]);
        assert!(c.eval(&[true, false, false]));
        assert!(c.eval(&[true, true, false]));
        assert!(!c.eval(&[true, true, true]));
        assert!(!c.eval(&[false, true, false]));
    }

    #[test]
    fn many_vars_cross_word_boundary() {
        let n = 100;
        let mut c = Cube::universe(n);
        c.restrict(Lit::pos(63));
        c.restrict(Lit::neg(64));
        c.restrict(Lit::pos(99));
        assert_eq!(c.literal_count(), 3);
        assert_eq!(c.var_state(63), VarState::Pos);
        assert_eq!(c.var_state(64), VarState::Neg);
        assert_eq!(c.var_state(99), VarState::Pos);
        assert!(!c.is_empty());
        c.restrict(Lit::neg(99));
        assert!(c.is_empty());
    }

    #[test]
    fn extended_preserves_literals() {
        let c = Cube::from_lits(2, &[Lit::pos(1)]);
        let e = c.extended(40);
        assert_eq!(e.num_vars(), 40);
        assert_eq!(e.var_state(1), VarState::Pos);
        assert_eq!(e.literal_count(), 1);
    }

    #[test]
    fn display_forms() {
        let c = Cube::from_lits(3, &[Lit::pos(0), Lit::neg(1)]);
        assert_eq!(c.to_string(), "ab'");
        assert_eq!(Cube::universe(2).to_string(), "1");
        assert_eq!(
            Cube::from_lits(1, &[Lit::pos(0), Lit::neg(0)]).to_string(),
            "0"
        );
    }
}
