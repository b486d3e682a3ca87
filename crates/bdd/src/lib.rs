#![warn(missing_docs)]
//! # boolsubst-bdd — reduced ordered BDDs with complement edges
//!
//! A compact hash-consed ROBDD package used as the *exact equivalence
//! oracle* of the workspace: every Boolean-division rewrite can be checked
//! by building BDDs of the affected functions before and after.
//!
//! The kernel follows Brace, Rudell & Bryant, "Efficient Implementation of
//! a BDD Package" (DAC 1990):
//!
//! * **Complement edges.** The low bit of a [`Ref`] marks a complemented
//!   edge. There is a single terminal (constant one), every node's
//!   then-edge is regular, and [`Bdd::not`] is O(1).
//! * **Standard triples.** [`Bdd::ite`] normalizes its arguments (first
//!   argument and then-argument regular, symmetric forms ordered) so that
//!   equivalent calls share one computed-table key.
//! * **Unique table.** Open addressing over node indices with a
//!   multiplicative hash.
//! * **Computed table.** Direct-mapped and lossy: a colliding entry
//!   simply overwrites the old one. It is allocated on the first `ite`
//!   and sized to the node table (1 Ki entries, doubling to 64 Ki).
//!
//! [`Bdd::reset`] empties a manager but keeps its allocations, so one
//! manager can serve many independent checks. Variable order is the
//! index order of variables. Equal functions always get equal [`Ref`]s.
//!
//! ```
//! use boolsubst_bdd::Bdd;
//!
//! let mut bdd = Bdd::new(3);
//! let (a, b, c) = (bdd.var(0), bdd.var(1), bdd.var(2));
//! let ab = bdd.and(a, b);
//! let f = bdd.or(ab, c);          // ab + c
//! let g = bdd.or(c, ab);          // c + ab
//! assert_eq!(f, g);               // canonical: equal functions unify
//! assert!(bdd.eval(f, &[true, true, false]));
//! ```

use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;

#[cfg(test)]
mod differential;

/// Reference to a BDD function: a node index in the high 31 bits, and a
/// complement mark in the low bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(u32);

impl Ref {
    const ONE: Ref = Ref(0);
    const ZERO: Ref = Ref(1);

    fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    fn flip(self) -> Ref {
        Ref(self.0 ^ 1)
    }

    fn complement_if(self, c: bool) -> Ref {
        Ref(self.0 ^ u32::from(c))
    }
}

/// A decision node. `hi` is always a regular edge.
#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Ref,
    hi: Ref,
}

/// One computed-table entry: `ite(f, g, h) = r`. The terminal never
/// reaches the table as `f`, so `f == 0` marks an empty slot.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

const EMPTY_ENTRY: CacheEntry = CacheEntry {
    f: 0,
    g: 0,
    h: 0,
    r: 0,
};

const VAR_TERMINAL: u32 = u32::MAX;
/// Initial unique-table size (slots); it doubles at load 1/2.
const UNIQUE_MIN: usize = 1 << 10;
/// Computed-table size bounds (entries): it tracks the node table
/// between these.
const CACHE_MIN: usize = 1 << 10;
const CACHE_MAX: usize = 1 << 16;

/// A BDD manager: node table, unique table and computed table.
#[derive(Clone)]
pub struct Bdd {
    nodes: Vec<Node>,
    /// Open-addressed slots holding node indices; `0` (the terminal,
    /// never hashed) marks an empty slot. Length is a power of two.
    unique: Vec<u32>,
    /// Direct-mapped `ite` memo; empty until the first `ite`. Length is
    /// a power of two.
    cache: Vec<CacheEntry>,
    cache_cap: usize,
    num_vars: usize,
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bdd")
            .field("num_vars", &self.num_vars)
            .field("nodes", &self.nodes.len())
            .field("cache", &self.cache.len())
            .finish_non_exhaustive()
    }
}

/// Multiplicative hash of a triple, for the unique and computed tables.
/// Every argument must reach the low bits the table masks keep: a weak
/// hash makes the lossy computed table recompute exponentially.
#[allow(clippy::cast_possible_truncation)]
fn hash3(a: u32, b: u32, c: u32) -> usize {
    let h = u64::from(a).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(b).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ u64::from(c).wrapping_mul(0x1656_67B1_9E37_79F9);
    // Fold the well-mixed high half into the low bits.
    (h ^ (h >> 32)) as usize
}

impl Bdd {
    /// Creates a manager for `num_vars` variables (ordered by index).
    #[must_use]
    pub fn new(num_vars: usize) -> Bdd {
        Bdd {
            nodes: vec![Node {
                var: VAR_TERMINAL,
                lo: Ref::ONE,
                hi: Ref::ONE,
            }],
            unique: Vec::new(),
            cache: Vec::new(),
            cache_cap: CACHE_MAX,
            num_vars,
        }
    }

    /// Empties the manager for a fresh problem over `num_vars` variables,
    /// keeping its table allocations. Every [`Ref`] from before the reset
    /// is invalid afterwards.
    pub fn reset(&mut self, num_vars: usize) {
        self.nodes.truncate(1);
        self.unique.clear();
        self.cache.clear();
        self.num_vars = num_vars;
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The constant-0 function.
    #[must_use]
    pub fn zero(&self) -> Ref {
        Ref::ZERO
    }

    /// The constant-1 function.
    #[must_use]
    pub fn one(&self) -> Ref {
        Ref::ONE
    }

    /// The projection function of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vars`.
    pub fn var(&mut self, v: usize) -> Ref {
        assert!(v < self.num_vars, "variable {v} out of range");
        self.mk(v as u32, Ref::ZERO, Ref::ONE)
    }

    /// The complement of the projection function of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vars`.
    pub fn nvar(&mut self, v: usize) -> Ref {
        self.var(v).flip()
    }

    /// The reduced node `var ? hi : lo`, complement-normalized so the
    /// stored then-edge is regular.
    fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        if hi.is_complement() {
            return self.mk(var, lo.flip(), hi.flip()).flip();
        }
        if 2 * self.nodes.len() >= self.unique.len() {
            self.grow_unique();
        }
        let mask = self.unique.len() - 1;
        let mut slot = hash3(var, lo.0, hi.0) & mask;
        loop {
            let i = self.unique[slot];
            if i == 0 {
                break;
            }
            let n = self.nodes[i as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Ref(i << 1);
            }
            slot = (slot + 1) & mask;
        }
        let index = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i < 1 << 31)
            .expect("BDD node table overflow");
        self.nodes.push(Node { var, lo, hi });
        self.unique[slot] = index;
        Ref(index << 1)
    }

    /// Doubles the unique table (allocating it on first use) and rehashes
    /// every node into it.
    fn grow_unique(&mut self) {
        let len = (2 * self.unique.len()).max(UNIQUE_MIN);
        self.unique.clear();
        self.unique.resize(len, 0);
        let mask = len - 1;
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            let mut slot = hash3(n.var, n.lo.0, n.hi.0) & mask;
            while self.unique[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.unique[slot] = i as u32;
        }
    }

    fn var_of(&self, r: Ref) -> u32 {
        self.nodes[r.index()].var
    }

    /// Computed-table slot of a normalized triple. Grows (and thereby
    /// clears) the table whenever the node table has outgrown it.
    fn cache_slot(&mut self, f: Ref, g: Ref, h: Ref) -> usize {
        if self.nodes.len() > self.cache.len() && self.cache.len() < self.cache_cap {
            let len = self
                .nodes
                .len()
                .next_power_of_two()
                .clamp(CACHE_MIN.min(self.cache_cap), self.cache_cap);
            self.cache.clear();
            self.cache.resize(len, EMPTY_ENTRY);
        }
        hash3(f.0, g.0, h.0) & (self.cache.len() - 1)
    }

    /// If-then-else: `f·g + f'·h` — the universal BDD operation.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        if f == Ref::ONE {
            return g;
        }
        if f == Ref::ZERO {
            return h;
        }
        // An argument equal to `f` (or its complement) is a constant
        // wherever it is selected.
        let g = if g == f {
            Ref::ONE
        } else if g == f.flip() {
            Ref::ZERO
        } else {
            g
        };
        let h = if h == f {
            Ref::ZERO
        } else if h == f.flip() {
            Ref::ONE
        } else {
            h
        };
        if g == h {
            return g;
        }
        if g == Ref::ONE && h == Ref::ZERO {
            return f;
        }
        if g == Ref::ZERO && h == Ref::ONE {
            return f.flip();
        }
        // Symmetric forms put the smaller operand first, so `f·g` and
        // `g·f` (and the like) meet in one computed-table entry.
        let (f, g, h) = if g == Ref::ONE && h < f {
            (h, Ref::ONE, f) // f + h
        } else if h == Ref::ZERO && g < f {
            (g, f, Ref::ZERO) // f·g
        } else if h == Ref::ONE && g.flip() < f {
            (g.flip(), f.flip(), Ref::ONE) // f' + g
        } else if g == Ref::ZERO && h.flip() < f {
            (h.flip(), Ref::ZERO, f.flip()) // f'·h
        } else if g == h.flip() && g < f {
            (g, f, f.flip()) // f ⊙ g
        } else {
            (f, g, h)
        };
        // Standard triple: `f` and `g` regular, the complement moved to
        // the result.
        let (f, g, h) = if f.is_complement() {
            (f.flip(), h, g)
        } else {
            (f, g, h)
        };
        let negate = g.is_complement();
        let (g, h) = if negate { (g.flip(), h.flip()) } else { (g, h) };

        let slot = self.cache_slot(f, g, h);
        let e = self.cache[slot];
        if e.f == f.0 && e.g == g.0 && e.h == h.0 {
            return Ref(e.r).complement_if(negate);
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        // The recursion may have grown (and re-sized) the table.
        let slot = self.cache_slot(f, g, h);
        self.cache[slot] = CacheEntry {
            f: f.0,
            g: g.0,
            h: h.0,
            r: r.0,
        };
        r.complement_if(negate)
    }

    fn cofactors(&self, r: Ref, var: u32) -> (Ref, Ref) {
        let n = self.nodes[r.index()];
        if n.var == var {
            let c = r.is_complement();
            (n.lo.complement_if(c), n.hi.complement_if(c))
        } else {
            (r, r)
        }
    }

    /// Boolean AND.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::ZERO)
    }

    /// Boolean OR.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, Ref::ONE, g)
    }

    /// Boolean NOT (O(1): flips the complement mark).
    #[must_use]
    pub fn not(&self, f: Ref) -> Ref {
        f.flip()
    }

    /// Boolean XOR.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g.flip(), g)
    }

    /// Sum of products over literal cubes: each cube is a sequence of
    /// `(function, positive)` literals. A cube is ANDed bottom-up, its
    /// literals taken in descending order of top variable, then ORed into
    /// the result.
    ///
    /// With a `node_limit`, the build gives up with `None` as soon as the
    /// manager holds more than that many nodes after a cube, so a single
    /// wide cover cannot run far past the cap.
    pub fn sop<C, L>(&mut self, cubes: C, node_limit: Option<usize>) -> Option<Ref>
    where
        C: IntoIterator<Item = L>,
        L: IntoIterator<Item = (Ref, bool)>,
    {
        let mut acc = Ref::ZERO;
        let mut lits: Vec<Ref> = Vec::new();
        for cube in cubes {
            lits.clear();
            lits.extend(cube.into_iter().map(|(f, pos)| f.complement_if(!pos)));
            lits.sort_unstable_by_key(|&l| Reverse(self.var_of(l)));
            let mut term = Ref::ONE;
            for &l in &lits {
                term = self.and(term, l);
            }
            acc = self.or(acc, term);
            if node_limit.is_some_and(|cap| self.nodes.len() > cap) {
                return None;
            }
        }
        Some(acc)
    }

    /// Existential quantification of variable `v` from `f`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vars`.
    pub fn exists(&mut self, f: Ref, v: usize) -> Ref {
        let f_hi = self.compose_const(f, v, true);
        let f_lo = self.compose_const(f, v, false);
        self.or(f_hi, f_lo)
    }

    /// Restricts variable `v` of `f` to a constant.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vars`.
    pub fn compose_const(&mut self, f: Ref, v: usize, value: bool) -> Ref {
        assert!(v < self.num_vars, "variable {v} out of range");
        let mut memo = HashMap::new();
        self.restrict_rec(f, v as u32, value, &mut memo)
    }

    /// Restriction of `r`; `memo` is keyed by node index (the regular
    /// function), the complement applied on the way out.
    fn restrict_rec(
        &mut self,
        r: Ref,
        var: u32,
        value: bool,
        memo: &mut HashMap<usize, Ref>,
    ) -> Ref {
        let n = self.nodes[r.index()];
        if n.var > var {
            return r; // terminal, or below `var`
        }
        let out = if let Some(&m) = memo.get(&r.index()) {
            m
        } else {
            let out = if n.var == var {
                if value {
                    n.hi
                } else {
                    n.lo
                }
            } else {
                let lo = self.restrict_rec(n.lo, var, value, memo);
                let hi = self.restrict_rec(n.hi, var, value, memo);
                self.mk(n.var, lo, hi)
            };
            memo.insert(r.index(), out);
            out
        };
        out.complement_if(r.is_complement())
    }

    /// Evaluates `f` under a complete assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() < num_vars`.
    #[must_use]
    pub fn eval(&self, f: Ref, inputs: &[bool]) -> bool {
        assert!(inputs.len() >= self.num_vars, "assignment too short");
        let mut r = f;
        loop {
            let n = self.nodes[r.index()];
            if n.var == VAR_TERMINAL {
                return r == Ref::ONE;
            }
            let next = if inputs[n.var as usize] { n.hi } else { n.lo };
            r = next.complement_if(r.is_complement());
        }
    }

    /// Number of nodes allocated since the manager was created or last
    /// [`reset`](Bdd::reset), the terminal included (diagnostics and
    /// build budgets).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of satisfying assignments of `f` over all `num_vars`
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 127` (the count may not fit in `u128`).
    #[must_use]
    pub fn sat_count(&self, f: Ref) -> u128 {
        assert!(self.num_vars <= 127, "sat_count limited to 127 variables");
        let mut memo: HashMap<usize, u128> = HashMap::new();
        let below = self.count_below(f, &mut memo);
        below << self.level(f)
    }

    /// Level of a reference: its variable index, or `num_vars` for
    /// terminals.
    fn level(&self, r: Ref) -> u32 {
        let v = self.var_of(r);
        if v == VAR_TERMINAL {
            self.num_vars as u32
        } else {
            v
        }
    }

    /// Satisfying count over variables `[level(r), num_vars)`; `memo`
    /// holds the counts of regular functions by node index.
    fn count_below(&self, r: Ref, memo: &mut HashMap<usize, u128>) -> u128 {
        let level = self.level(r);
        let regular = if r.index() == 0 {
            1
        } else if let Some(&c) = memo.get(&r.index()) {
            c
        } else {
            let n = self.nodes[r.index()];
            let lo = self.count_below(n.lo, memo) << (self.level(n.lo) - level - 1);
            let hi = self.count_below(n.hi, memo) << (self.level(n.hi) - level - 1);
            memo.insert(r.index(), lo + hi);
            lo + hi
        };
        if r.is_complement() {
            (1u128 << (self.num_vars as u32 - level)) - regular
        } else {
            regular
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicity() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let ab = bdd.and(a, b);
        let ba = bdd.and(b, a);
        assert_eq!(ab, ba);
        let na = bdd.not(a);
        let nna = bdd.not(na);
        assert_eq!(a, nna);
    }

    #[test]
    fn xor_truth_table() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let x = bdd.xor(a, b);
        assert!(!bdd.eval(x, &[false, false]));
        assert!(bdd.eval(x, &[true, false]));
        assert!(bdd.eval(x, &[false, true]));
        assert!(!bdd.eval(x, &[true, true]));
    }

    #[test]
    fn tautology_collapses_to_one() {
        let mut bdd = Bdd::new(1);
        let a = bdd.var(0);
        let na = bdd.not(a);
        let t = bdd.or(a, na);
        assert_eq!(t, bdd.one());
    }

    #[test]
    fn consensus_identity() {
        // ab + a'c + bc == ab + a'c
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let ab = bdd.and(a, b);
        let na = bdd.not(a);
        let nac = bdd.and(na, c);
        let bc = bdd.and(b, c);
        let t1 = bdd.or(ab, nac);
        let lhs = bdd.or(t1, bc);
        assert_eq!(lhs, t1);
    }

    #[test]
    fn sat_count_majority() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let ab = bdd.and(a, b);
        let ac = bdd.and(a, c);
        let bc = bdd.and(b, c);
        let t = bdd.or(ab, ac);
        let maj = bdd.or(t, bc);
        assert_eq!(bdd.sat_count(maj), 4);
        let one = bdd.one();
        let zero = bdd.zero();
        assert_eq!(bdd.sat_count(one), 8);
        assert_eq!(bdd.sat_count(zero), 0);
        let just_a = bdd.var(0);
        assert_eq!(bdd.sat_count(just_a), 4);
    }

    #[test]
    fn restrict_shannon() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let ab = bdd.and(a, b);
        let f = bdd.or(ab, c); // ab + c
        let f_a1 = bdd.compose_const(f, 0, true); // b + c
        let expect = bdd.or(b, c);
        assert_eq!(f_a1, expect);
        let f_a0 = bdd.compose_const(f, 0, false); // c
        assert_eq!(f_a0, c);
    }

    #[test]
    fn exists_quantifier() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let ab = bdd.and(a, b);
        // ∃a. ab = b
        let e = bdd.exists(ab, 0);
        assert_eq!(e, b);
    }

    #[test]
    fn not_builds_no_nodes() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.xor(a, b);
        let before = bdd.node_count();
        let nf = bdd.not(f);
        assert_eq!(bdd.node_count(), before);
        let xnor = bdd.ite(a, b, bdd.not(b));
        assert_eq!(nf, xnor);
        let c = bdd.var(2);
        assert_eq!(bdd.nvar(2), bdd.not(c));
    }

    #[test]
    fn sop_budget_stops_after_the_crossing_cube() {
        // Σ x_i·x_{i+8} under the order x0 < … < x15 needs ~2^8 nodes;
        // a 40-node limit must stop the build within a cube of crossing.
        let mut bdd = Bdd::new(16);
        let vars: Vec<Ref> = (0..16).map(|v| bdd.var(v)).collect();
        let cubes = |vars: &[Ref]| -> Vec<Vec<(Ref, bool)>> {
            (0..8)
                .map(|i| vec![(vars[i], true), (vars[i + 8], true)])
                .collect()
        };
        assert_eq!(bdd.sop(cubes(&vars), Some(40)), None);
        let stopped_at = bdd.node_count();
        assert!(stopped_at > 40 && stopped_at < 120, "{stopped_at}");
        let full = bdd.sop(cubes(&vars), None).expect("no limit");
        assert!(bdd.node_count() > 4 * stopped_at);
        assert_eq!(bdd.sat_count(full), (1u128 << 16) - 3u128.pow(8));
    }
}
