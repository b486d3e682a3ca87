//! Cover complementation via recursive Shannon expansion, plus cube
//! complement (De Morgan) and the sharp (`\`) operation.

use crate::cube::{empty_slots, full_word, word_count, EVEN_BITS, VARS_PER_WORD};
use crate::{Cover, Cube};

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
        let n = self.num_vars();
        let mut k = Complementer::new(n);
        for c in self.cubes() {
            k.table.extend_from_slice(c.words());
        }
        k.rec(0);
        k.remove_contained();
        let cubes = k
            .out
            .chunks_exact(k.stride)
            .map(|w| Cube::from_words(n, w.to_vec()))
            .collect();
        Cover::from_cubes(n, cubes)
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

/// The cover complement on flat word tables: every cube is `stride`
/// consecutive words of a `Vec<u64>`, packed as in [`Cube`]. It makes the
/// same splits, in the same order, as a per-cube Shannon recursion
/// (`compl_rec` in the tests), so it returns the same cube list.
struct Complementer {
    stride: usize,
    /// The universal cube's words.
    full: Vec<u64>,
    /// The literals split on along the current branch.
    path: Vec<u64>,
    /// Per-variable (positive, negative) literal counts of one level.
    counts: Vec<(u32, u32)>,
    /// The input cover, then each open level's cofactor appended after
    /// its parent's.
    table: Vec<u64>,
    /// The complement's cubes, in emission order.
    out: Vec<u64>,
}

impl Complementer {
    fn new(num_vars: usize) -> Complementer {
        let stride = word_count(num_vars);
        let full: Vec<u64> = (0..stride).map(|i| full_word(num_vars, i)).collect();
        Complementer {
            stride,
            path: full.clone(),
            full,
            counts: vec![(0, 0); num_vars],
            table: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Appends the complement of the cover at `table[start..]`, each cube
    /// ANDed with the branch literals in `path`.
    fn rec(&mut self, start: usize) {
        let w = self.stride;
        let len = (self.table.len() - start) / w;
        let cubes = &self.table[start..];
        if len == 0 {
            // compl(0) = 1.
            self.out.extend_from_slice(&self.path);
            return;
        }
        if cubes.chunks_exact(w).any(|c| c == self.full.as_slice()) {
            return;
        }
        if len == 1 {
            self.complement_cube(start);
            return;
        }
        // Split on the most binate variable, ties to the most frequent,
        // then to the highest index.
        self.counts.fill((0, 0));
        for c in cubes.chunks_exact(w) {
            for (i, &x) in c.iter().enumerate() {
                let lo = x & EVEN_BITS;
                let hi = (x >> 1) & EVEN_BITS;
                let base = i * VARS_PER_WORD;
                for_each_slot(hi & !lo, |s| self.counts[base + s].0 += 1);
                for_each_slot(lo & !hi, |s| self.counts[base + s].1 += 1);
            }
        }
        let mut split = None;
        let mut best = (0, 0);
        for (v, &(p, m)) in self.counts.iter().enumerate() {
            let key = (p.min(m), p + m);
            if p + m > 0 && (split.is_none() || key >= best) {
                split = Some(v);
                best = key;
            }
        }
        let Some(v) = split else {
            // No cube has a literal and none is the universe: every cube
            // is empty, so the cover is 0.
            self.out.extend_from_slice(&self.path);
            return;
        };
        let (wv, sv) = (v / VARS_PER_WORD, 2 * (v % VARS_PER_WORD));
        // compl(f) = x·compl(f|x) + x'·compl(f|x')
        for keep in [0b10u64 << sv, 0b01u64 << sv] {
            let child = self.table.len();
            for i in 0..len {
                let at = start + i * w;
                if self.table[at + wv] & keep != 0 {
                    self.table.extend_from_within(at..at + w);
                    let last = self.table.len() - w + wv;
                    self.table[last] |= 0b11 << sv;
                }
            }
            let saved = self.path[wv];
            self.path[wv] &= !(0b11 << sv) | keep;
            self.rec(child);
            self.path[wv] = saved;
            self.table.truncate(child);
        }
    }

    /// Terminal case: the complement of the single cube at `table[at..]`
    /// by De Morgan, one flipped literal per cube in variable order.
    fn complement_cube(&mut self, at: usize) {
        let w = self.stride;
        let empty = self.table[at..at + w]
            .iter()
            .zip(&self.full)
            .any(|(&x, &f)| empty_slots(x, f) != 0);
        if empty {
            self.out.extend_from_slice(&self.path);
            return;
        }
        for i in 0..w {
            let x = self.table[at + i];
            // One even bit per single-phase slot, then the phase bit each
            // of those literals keeps: the one its complement clears.
            let lits = (x ^ (x >> 1)) & EVEN_BITS;
            let mut rest = x & (lits | (lits << 1));
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                rest &= rest - 1;
                let o = self.out.len();
                self.out.extend_from_slice(&self.path);
                self.out[o + i] &= !bit;
            }
        }
    }

    /// Single-cube containment on `out`, as [`Cover::remove_contained_cubes`]:
    /// a cube goes if a kept cube contains it or a later cube strictly
    /// contains it. Keeps the order and the first of equal cubes.
    fn remove_contained(&mut self) {
        let w = self.stride;
        let contains = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(&x, &y)| x & y == y);
        let len = self.out.len() / w;
        let mut kept = 0;
        for i in 0..len {
            let c = &self.out[i * w..(i + 1) * w];
            let dropped = (0..kept).any(|k| contains(&self.out[k * w..(k + 1) * w], c))
                || (i + 1..len).any(|j| {
                    let later = &self.out[j * w..(j + 1) * w];
                    contains(later, c) && !contains(c, later)
                });
            if !dropped {
                self.out.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.out.truncate(kept * w);
    }
}

/// Calls `f` with the slot index of every set even bit of `bits`.
fn for_each_slot(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f((bits.trailing_zeros() / 2) as usize);
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_sop, Lit, Phase, VarState};

    /// The per-cube Shannon recursion the flat kernel replaces, kept as its
    /// reference. It panicked on a cover of two or more empty cubes with no
    /// literal; such a cover is 0, so here it returns 1 as the kernel does.
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
            for (v, count) in counts.iter_mut().enumerate() {
                match c.var_state(v) {
                    VarState::Pos => count.0 += 1,
                    VarState::Neg => count.1 += 1,
                    _ => {}
                }
            }
        }
        let Some(v) = counts
            .iter()
            .enumerate()
            .filter(|(_, &(p, m))| p + m > 0)
            .max_by_key(|(_, &(p, m))| (p.min(m), p + m))
            .map(|(v, _)| v)
        else {
            return Cover::one(n);
        };

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

    /// A seeded xorshift64 stream.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A random cube over `n` variables with literals drawn from `vars`;
    /// one in eight gets an empty (`00`) slot.
    fn random_cube(next: &mut impl FnMut() -> u64, n: usize, vars: &[usize]) -> Cube {
        let mut c = Cube::universe(n);
        if vars.is_empty() {
            return c;
        }
        for _ in 0..next() % 5 {
            let var = vars[(next() % vars.len() as u64) as usize];
            c.restrict(if next().is_multiple_of(2) {
                Lit::pos(var)
            } else {
                Lit::neg(var)
            });
        }
        if next().is_multiple_of(8) {
            let var = vars[(next() % vars.len() as u64) as usize];
            c.restrict(Lit::pos(var));
            c.restrict(Lit::neg(var));
        }
        c
    }

    /// The flat kernels against their per-variable references over 0–70
    /// variables (one-, two- and three-word cubes), on covers that may
    /// hold empty and universal cubes: `complement` cube for cube,
    /// `lits`, `extended`, `remapped`, `is_universe`, and `eval` of a
    /// cover built with `from_cubes`.
    #[test]
    fn flat_kernels_match_per_variable_references() {
        let mut next = rng(0xF1A7_C0DE);
        for round in 0..3000u64 {
            let n = (round % 71) as usize;
            // Literals come from a few variables spread over the universe,
            // so the recursion has binate splits to make.
            let vars: Vec<usize> = (0..n.min(1 + (next() % 9) as usize))
                .map(|_| (next() % n as u64) as usize)
                .collect();
            let cubes: Vec<Cube> = (0..next() % 9)
                .map(|_| random_cube(&mut next, n, &vars))
                .collect();
            for c in &cubes {
                let scan: Vec<Lit> = (0..n)
                    .filter_map(|v| match c.var_state(v) {
                        VarState::Pos => Some(Lit::pos(v)),
                        VarState::Neg => Some(Lit::neg(v)),
                        _ => None,
                    })
                    .collect();
                assert_eq!(c.lits().collect::<Vec<_>>(), scan, "lits of {c}");
                assert_eq!(c.is_universe(), *c == Cube::universe(n), "{c}");
                let m = n + (next() % 40) as usize;
                let e = c.extended(m);
                if c.is_empty() {
                    assert!(e.is_empty(), "{c} extended to {m} is not empty");
                    assert_eq!(e.lits().collect::<Vec<_>>(), scan);
                } else {
                    assert_eq!(e, Cube::from_lits(m, &scan), "{c} extended to {m}");
                }
                // An injective map into `m` variables, slot by slot.
                let mut map: Vec<usize> = (0..m).collect();
                for k in (1..m).rev() {
                    map.swap(k, (next() % (k as u64 + 1)) as usize);
                }
                map.truncate(n);
                let mut want = Cube::universe(m);
                for (v, &to) in map.iter().enumerate() {
                    match c.var_state(v) {
                        VarState::Pos => want.restrict(Lit::pos(to)),
                        VarState::Neg => want.restrict(Lit::neg(to)),
                        VarState::Empty => {
                            want.restrict(Lit::pos(to));
                            want.restrict(Lit::neg(to));
                        }
                        VarState::DontCare => {}
                    }
                }
                let r = c.remapped(m, &map);
                assert_eq!(r, want, "{c} remapped by {map:?}");
                assert_eq!(r.is_empty(), c.is_empty(), "{c} remapped by {map:?}");
            }
            let f = Cover::from_cubes(n, cubes.clone());
            // `eval` against a slot-by-slot reading of the cubes as given,
            // empty ones included (an empty cube is 0 everywhere): every
            // minterm up to 4 variables, 16 random ones above.
            for k in 0..16u64 {
                let x: Vec<bool> = (0..n)
                    .map(|v| {
                        if n <= 4 {
                            (k >> v) & 1 == 1
                        } else {
                            next() % 2 == 1
                        }
                    })
                    .collect();
                let want = cubes.iter().any(|c| {
                    (0..n).all(|v| match c.var_state(v) {
                        VarState::DontCare => true,
                        VarState::Pos => x[v],
                        VarState::Neg => !x[v],
                        VarState::Empty => false,
                    })
                });
                assert_eq!(f.eval(&x), want, "f = {f} at {x:?}");
            }
            let mut want = compl_rec(&f);
            want.remove_contained_cubes();
            assert_eq!(f.complement(), want, "n = {n}, f = {f}");
        }
    }

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
