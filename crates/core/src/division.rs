//! Basic Boolean division `f = d·q + r` via redundancy addition and
//! removal, at the level of covers (Section III of the paper).
//!
//! The three steps:
//! 1. split the dividend into the *kept* part `f'` (cubes contained by
//!    some divisor cube) and the remainder `r` — after this, `d` is an SOS
//!    of `f'`;
//! 2. AND `f'` with `d` — redundant *a priori* by Lemma 1, no redundancy
//!    test needed;
//! 3. run ATPG-style redundancy removal inside the `f'` region; whatever
//!    survives is the quotient `q`.

use crate::sos::is_sos_of;
use boolsubst_atpg::{
    input_word, remove_redundant_wires_with, CandidateWire, Circuit, GateId, ImplyOptions,
    RemovalOptions,
};
use boolsubst_cube::{Cover, Cube, Lit, Phase};

/// Options controlling a division run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DivisionOptions {
    /// Implication options (learning depth) used during redundancy
    /// removal.
    pub imply: ImplyOptions,
    /// Extra removal passes over surviving candidate wires (each removal
    /// can expose more redundancy). 0 behaves as 1.
    pub max_passes: usize,
    /// When non-zero, undecided wires get a bounded *exact* test search
    /// with this decision budget (the extreme end of the paper's
    /// implication-effort knob).
    pub exact_budget: usize,
    /// When non-zero, redundancy removal stops after this many fault
    /// checks per division (sound early exit: the quotient is merely less
    /// simplified). 0 means unlimited.
    pub max_checks: usize,
}

impl DivisionOptions {
    /// Paper configuration: plain direct implications, two passes.
    #[must_use]
    pub fn paper_default() -> DivisionOptions {
        DivisionOptions {
            imply: ImplyOptions::default(),
            max_passes: 2,
            exact_budget: 0,
            max_checks: 0,
        }
    }

    /// Exact configuration: implications plus a bounded exact search for
    /// every undecided wire. Slowest, best quality; exact on small cones.
    #[must_use]
    pub fn exact(budget: usize) -> DivisionOptions {
        DivisionOptions {
            imply: ImplyOptions::default(),
            max_passes: 2,
            exact_budget: budget,
            max_checks: 0,
        }
    }
}

/// Result of a basic Boolean division `f = d·q + r`.
#[derive(Debug, Clone)]
pub struct DivisionResult {
    /// The quotient `q` (empty cover means the division failed — no cube
    /// of `f` was contained by a divisor cube).
    pub quotient: Cover,
    /// The remainder `r`.
    pub remainder: Cover,
    /// Number of wires removed by the RAR step.
    pub wires_removed: usize,
    /// Number of fault checks performed.
    pub checks: usize,
    /// Whether redundancy removal stopped early on the per-division check
    /// budget ([`DivisionOptions::max_checks`]).
    pub budget_exhausted: bool,
}

impl DivisionResult {
    /// True if the division produced a usable quotient.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        !self.quotient.is_empty()
    }

    /// Literal cost of the divided form: `lits(q) + |q| + lits(r)` in SOP
    /// terms, counting one literal per quotient cube for the divisor
    /// input.
    #[must_use]
    pub fn sop_cost(&self) -> usize {
        self.quotient.literal_count() + self.quotient.len() + self.remainder.literal_count()
    }

    /// Exact check that `d·q + r ≡ f` (used in tests and debug runs).
    #[must_use]
    pub fn verify(&self, f: &Cover, d: &Cover) -> bool {
        let mut rebuilt = self.quotient.and(d);
        rebuilt.extend_cover(&self.remainder);
        rebuilt.equivalent(f)
    }
}

/// Literal rails of a circuit: per variable, the gate carrying it and,
/// once built, its NOT; [`Rails::cubes`] adds a missing NOT on first
/// use. Local division and vote circuits get fresh inputs with eager
/// NOTs. The GDC region rails over network gates with no NOTs, so the
/// NOTs it adds are private to the region (removal candidates), while
/// whole-network nodes seed and feed the circuit's shared NOT cache.
pub(crate) struct Rails(pub(crate) Vec<(GateId, Option<GateId>)>);

impl Rails {
    /// `n` fresh inputs, each followed by its NOT.
    pub(crate) fn fresh(circuit: &mut Circuit, n: usize) -> Rails {
        Rails(
            (0..n)
                .map(|_| {
                    let p = circuit.add_input();
                    (p, Some(circuit.add_not(p)))
                })
                .collect(),
        )
    }

    /// The gate of an already built literal.
    pub(crate) fn gate(&self, l: Lit) -> GateId {
        let (pos, neg) = self.0[l.var];
        match l.phase {
            Phase::Pos => pos,
            Phase::Neg => neg.expect("negative literal gate"),
        }
    }

    /// One AND gate per cube of `cover`, in cube order.
    pub(crate) fn cubes(&mut self, circuit: &mut Circuit, cover: &Cover) -> Vec<GateId> {
        cover
            .cubes()
            .iter()
            .map(|c| {
                let ins = c
                    .lits()
                    .map(|l| {
                        let (pos, neg) = &mut self.0[l.var];
                        match l.phase {
                            Phase::Pos => *pos,
                            Phase::Neg => *neg.get_or_insert_with(|| circuit.add_not(*pos)),
                        }
                    })
                    .collect();
                circuit.add_and(ins)
            })
            .collect()
    }

    /// The literal a rail gate carries.
    fn lit_of(&self, g: GateId) -> Option<Lit> {
        if let Some(v) = self.0.iter().position(|&(p, _)| p == g) {
            return Some(Lit::pos(v));
        }
        self.0.iter().position(|&(_, n)| n == Some(g)).map(Lit::neg)
    }
}

/// The division configuration appended to a circuit,
/// `(OR(kept) AND d) OR remainder`, with the handles that name its
/// removal candidates and read the quotient back.
pub(crate) struct DivisionRegion {
    rails: Rails,
    /// AND gate of each kept cube, aligned with `kept.cubes()`.
    kept_gates: Vec<GateId>,
    /// OR gate over the kept cubes (`f'`).
    fprime_or: GateId,
    /// The bold AND joining `f'` and the divisor.
    bold: GateId,
    /// The region's output gate.
    pub(crate) out: GateId,
}

impl DivisionRegion {
    /// Appends the kept cubes and their OR, the bold AND with the divisor
    /// gate `d`, the remainder cubes and the output OR.
    pub(crate) fn append(
        circuit: &mut Circuit,
        mut rails: Rails,
        kept: &Cover,
        d: GateId,
        remainder: &Cover,
    ) -> DivisionRegion {
        let kept_gates = rails.cubes(circuit, kept);
        let fprime_or = circuit.add_or(kept_gates.clone());
        let bold = circuit.add_and(vec![fprime_or, d]);
        let mut out_ins = vec![bold];
        out_ins.extend(rails.cubes(circuit, remainder));
        let out = circuit.add_or(out_ins);
        DivisionRegion {
            rails,
            kept_gates,
            fprime_or,
            bold,
            out,
        }
    }

    /// Candidate wires inside the `f'` region: every literal wire into a
    /// kept cube, every cube wire into the `f'` OR, and the `f'` wire into
    /// the bold AND (its removal means `q = 1`).
    fn candidate_wires(&self, kept: &Cover) -> Vec<CandidateWire> {
        let mut out = Vec::new();
        for (cube, &gate) in kept.cubes().iter().zip(&self.kept_gates) {
            for l in cube.lits() {
                out.push(CandidateWire {
                    sink: gate,
                    driver: self.rails.gate(l),
                });
            }
            out.push(CandidateWire {
                sink: self.fprime_or,
                driver: gate,
            });
        }
        out.push(CandidateWire {
            sink: self.bold,
            driver: self.fprime_or,
        });
        out
    }

    /// Reads the simplified quotient back from `circuit`.
    pub(crate) fn read_quotient(&self, circuit: &Circuit) -> Cover {
        let num_vars = self.rails.0.len();
        // If the f' wire into the bold AND was removed, the quotient is 1.
        if !circuit.fanins(self.bold).contains(&self.fprime_or) {
            return Cover::one(num_vars);
        }
        let mut q = Cover::new(num_vars);
        for &cube_gate in circuit.fanins(self.fprime_or) {
            let mut cube = Cube::universe(num_vars);
            for &lit_in in circuit.fanins(cube_gate) {
                if let Some(l) = self.rails.lit_of(lit_in) {
                    cube.restrict(l);
                }
            }
            q.push(cube);
        }
        q.remove_contained_cubes();
        q
    }
}

/// The one division step: splits `f` by `d`, builds the circuit and its
/// division region with `build(kept, remainder)`, removes every provably
/// redundant region wire and reads the quotient back. Local division
/// builds a two-level circuit; the GDC mode builds the whole network.
pub(crate) fn divide_region(
    f: &Cover,
    d: &Cover,
    opts: &DivisionOptions,
    build: impl FnOnce(&Cover, &Cover) -> (Circuit, DivisionRegion),
) -> DivisionResult {
    let (kept, remainder) = split_remainder(f, d);
    if kept.is_empty() {
        return DivisionResult {
            quotient: Cover::new(f.num_vars()),
            remainder,
            wires_removed: 0,
            checks: 0,
            budget_exhausted: false,
        };
    }
    debug_assert!(
        is_sos_of(d, &kept),
        "divisor must be an SOS of the kept part"
    );
    let (mut circuit, region) = build(&kept, &remainder);
    let candidates = region.candidate_wires(&kept);
    let outcome = remove_redundant_wires_with(
        &mut circuit,
        &candidates,
        &RemovalOptions {
            imply: opts.imply,
            exact_budget: opts.exact_budget,
            max_checks: opts.max_checks,
        },
        opts.max_passes.max(1) + 1,
    );
    DivisionResult {
        quotient: region.read_quotient(&circuit),
        remainder,
        wires_removed: outcome.removed.len(),
        checks: outcome.checks,
        budget_exhausted: outcome.budget_exhausted,
    }
}

/// Splits `f` into (kept, remainder) with respect to divisor `d`: kept
/// cubes are those contained by at least one divisor cube, so `d` is an
/// SOS of the kept part (Lemma 1 applies).
#[must_use]
pub fn split_remainder(f: &Cover, d: &Cover) -> (Cover, Cover) {
    let n = f.num_vars();
    let mut kept = Cover::new(n);
    let mut remainder = Cover::new(n);
    for c in f.cubes() {
        if d.some_cube_contains(c) {
            kept.push(c.clone());
        } else {
            remainder.push(c.clone());
        }
    }
    (kept, remainder)
}

/// Basic Boolean division of cover `f` by divisor cover `d` in a shared
/// variable space, per Section III-B of the paper. The implications are
/// confined to the division region (the paper's local configuration).
///
/// # Panics
///
/// Panics if the universes differ or `d` is empty.
#[must_use]
pub fn basic_divide_covers(f: &Cover, d: &Cover, opts: &DivisionOptions) -> DivisionResult {
    assert_eq!(f.num_vars(), d.num_vars(), "universe mismatch");
    assert!(!d.is_empty(), "division by the empty cover");
    divide_region(f, d, opts, |kept, remainder| {
        let mut circuit = Circuit::new();
        let mut rails = Rails::fresh(&mut circuit, f.num_vars());
        let divisor_gates = rails.cubes(&mut circuit, d);
        let d_or = circuit.add_or(divisor_gates);
        let region = DivisionRegion::append(&mut circuit, rails, kept, d_or, remainder);
        circuit.add_output(region.out);
        (circuit, region)
    })
}

/// Result of a product-of-sums division `f = (d + q) · r` (both `q` and
/// `r` viewed as products of sum terms).
#[derive(Debug, Clone)]
pub struct PosDivisionResult {
    /// Sum terms of the quotient: `f = (d + q) · r` with
    /// `q = Σ` these terms... represented as the *complement-domain* SOP
    /// cover `q̃` with `q = q̃'`.
    pub quotient_compl: Cover,
    /// Complement-domain remainder `r̃` with `r = r̃'`.
    pub remainder_compl: Cover,
    /// Wires removed during the dual run.
    pub wires_removed: usize,
    /// Whether the dual run's redundancy removal stopped early on the
    /// per-division check budget ([`DivisionOptions::max_checks`]).
    pub budget_exhausted: bool,
}

impl PosDivisionResult {
    /// True if the POS division produced a usable quotient.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        !self.quotient_compl.is_empty()
    }

    /// Exact check that `(d + q)·r ≡ f` where `q = quotient_compl'` and
    /// `r = remainder_compl'`.
    #[must_use]
    pub fn verify(&self, f: &Cover, d: &Cover) -> bool {
        let q = self.quotient_compl.complement();
        let r = self.remainder_compl.complement();
        let rebuilt = d.or(&q).and(&r);
        rebuilt.equivalent(f)
    }
}

/// Product-of-sums Boolean division (the paper's POS symmetric case,
/// Lemma 2): divides `f` by `d` with both viewed in product-of-sum form,
/// producing `f = (d + q)·r`.
///
/// Implemented through the exact duality `f = (d + q)·r ⇔ f' = d'·q' +
/// r'`: complement both covers, run the SOP machinery, and interpret the
/// results in the complement domain.
///
/// # Panics
///
/// Panics if the universes differ or `d` is a tautology (whose complement
/// would be an empty divisor).
#[must_use]
pub fn pos_divide_covers(f: &Cover, d: &Cover, opts: &DivisionOptions) -> PosDivisionResult {
    pos_divide_precomplemented(&f.complement(), &d.complement(), opts)
}

/// [`pos_divide_covers`] for callers that already hold the complements
/// `fc = f'` and `dc = d'` (the substitution loop computes both to gate
/// the attempt, so re-deriving them here would double the complementation
/// cost per candidate pair).
///
/// # Panics
///
/// Panics if the universes differ or `dc` is empty (a tautological
/// divisor).
#[must_use]
pub fn pos_divide_precomplemented(
    fc: &Cover,
    dc: &Cover,
    opts: &DivisionOptions,
) -> PosDivisionResult {
    assert!(!dc.is_empty(), "POS division by a tautological divisor");
    let r = basic_divide_covers(fc, dc, opts);
    PosDivisionResult {
        quotient_compl: r.quotient,
        remainder_compl: r.remainder,
        wires_removed: r.wires_removed,
        budget_exhausted: r.budget_exhausted,
    }
}

/// Joint-space size up to which [`forced_literal_bound`] applies: 2^12
/// minterms, 64 words per truth table.
pub const LOCAL_BOUND_MAX_VARS: usize = 12;

/// A lower bound on the factored literal count of every cover `F(X, x_d)`
/// with `F(x, d(x)) = f(x)`: the SOP, `-d` and POS rewrites of `f` by
/// `d` over their joint space `X` are all such covers. `None` above
/// [`LOCAL_BOUND_MAX_VARS`] variables.
///
/// The bound is `min(dirs(f), forced(f, d) + 1)`. A direction of `f` is
/// a literal in whose sense `f` changes: `x_v` if some edge `x → x^v`
/// from `x_v = 0` raises `f`, `x_v'` if one lowers it. An AND/OR formula
/// without a literal cannot change in its sense, so a formula for `f`
/// holds every direction. `forced` counts the directions that show on an
/// edge where `d` stays the same: `x_d` stays too, so `F` moves along the
/// edge as `f` does and needs that literal as well. A cover that does
/// not read `x_d` is a formula for `f` itself; one that does spends a
/// literal on it.
///
/// # Panics
///
/// Panics if the universes differ.
#[must_use]
pub fn forced_literal_bound(f: &Cover, d: &Cover) -> Option<usize> {
    assert_eq!(f.num_vars(), d.num_vars(), "universe mismatch");
    let n = f.num_vars();
    if n > LOCAL_BOUND_MAX_VARS {
        return None;
    }
    let words = 1 << n.saturating_sub(6);
    let mut tf = [0u64; 1 << (LOCAL_BOUND_MAX_VARS - 6)];
    let mut td = tf;
    let (tf, td) = (&mut tf[..words], &mut td[..words]);
    truth_table(f, tf);
    truth_table(d, td);

    let (mut dirs, mut forced) = (0, 0);
    for v in 0..n {
        // Per phase: some edge changes f that way; some does so with d
        // unchanged. `lo` marks the minterms with x_v = 0 and `f1`, `d1`
        // carry the values at x^v on those bits.
        let (mut up, mut down, mut up_kept, mut down_kept) = (0, 0, 0, 0);
        let mut edge = |lo: u64, f0: u64, f1: u64, d0: u64, d1: u64| {
            let (rise, fall, same) = (!f0 & f1 & lo, f0 & !f1 & lo, !(d0 ^ d1));
            up |= rise;
            down |= fall;
            up_kept |= rise & same;
            down_kept |= fall & same;
        };
        if v < 6 {
            let (s, lo) = (1 << v, !input_word(v, 0));
            for (&f0, &d0) in tf.iter().zip(td.iter()) {
                edge(lo, f0, f0 >> s, d0, d0 >> s);
            }
        } else {
            let bit = 1 << (v - 6);
            for w in (0..words).filter(|w| w & bit == 0) {
                edge(!0, tf[w], tf[w | bit], td[w], td[w | bit]);
            }
        }
        dirs += usize::from(up != 0) + usize::from(down != 0);
        forced += usize::from(up_kept != 0) + usize::from(down_kept != 0);
    }
    Some(dirs.min(forced + 1))
}

/// Fills `table` with the truth table of `cover` in the
/// [`input_word`] layout. A cube is one mask within a word (its literals
/// on variables below six) on the words whose index matches its literals
/// on the higher variables.
fn truth_table(cover: &Cover, table: &mut [u64]) {
    table.fill(0);
    for cube in cover.cubes().iter().filter(|c| !c.is_empty()) {
        let (mut mask, mut care, mut value) = (!0u64, 0usize, 0usize);
        for l in cube.lits() {
            let pos = l.phase == Phase::Pos;
            if l.var < 6 {
                let m = input_word(l.var, 0);
                mask &= if pos { m } else { !m };
            } else {
                care |= 1 << (l.var - 6);
                value |= usize::from(pos) << (l.var - 6);
            }
        }
        for (w, t) in table.iter_mut().enumerate() {
            if w & care == value {
                *t |= mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_cube::parse_sop;

    fn divide(n: usize, fs: &str, ds: &str) -> (Cover, Cover, DivisionResult) {
        let f = parse_sop(n, fs).expect("f");
        let d = parse_sop(n, ds).expect("d");
        let r = basic_divide_covers(&f, &d, &DivisionOptions::paper_default());
        assert!(
            r.verify(&f, &d),
            "f != d·q + r for f={fs}, d={ds}: q={}, r={}",
            r.quotient,
            r.remainder
        );
        (f, d, r)
    }

    #[test]
    fn paper_section1_example() {
        // f = ab + ac + bc', d = ab + c. Boolean division should reach
        // f = (a + b)d + ... with 4 literals total (q = a + b, r = 0
        // after also absorbing bc'? The paper reports f = (a + b)d).
        let (_f, _d, r) = divide(3, "ab + ac + bc'", "ab + c");
        assert!(r.succeeded());
        // Known optimum: q = a + b, r = bc' absorbed? The paper's result
        // is q = a + b with remainder folded; our RAR removes enough to
        // reach cost ≤ algebraic (q=a, r=bc' : cost 1+1+2=4).
        assert!(
            r.sop_cost() <= 4,
            "cost {} too high: q={} r={}",
            r.sop_cost(),
            r.quotient,
            r.remainder
        );
    }

    #[test]
    fn fig2_walkthrough() {
        // Fig. 2: f = ab + ac (kept) with divisor d = ab + c; quotient
        // shrinks to a.
        let (_f, _d, r) = divide(3, "ab + ac", "ab + c");
        assert!(r.succeeded());
        assert_eq!(r.remainder.len(), 0);
        assert!(r.quotient.literal_count() <= 2, "q = {}", r.quotient);
    }

    #[test]
    fn division_with_remainder() {
        // f = ab + c'd', d = ab + c : cube c'd' is not contained by any
        // divisor cube → remainder.
        let (_f, _d, r) = divide(4, "ab + c'd'", "ab + c");
        assert!(r.succeeded());
        assert_eq!(r.remainder.to_string(), "c'd'");
    }

    #[test]
    fn zero_quotient_when_no_containment() {
        let f = parse_sop(3, "a'b'").expect("f");
        let d = parse_sop(3, "ab + c").expect("d");
        let r = basic_divide_covers(&f, &d, &DivisionOptions::paper_default());
        assert!(!r.succeeded());
        assert_eq!(r.remainder.to_string(), "a'b'");
    }

    #[test]
    fn divide_by_self_gives_one() {
        let (_f, _d, r) = divide(3, "ab + c", "ab + c");
        assert!(r.succeeded());
        assert!(
            r.quotient
                .cubes()
                .iter()
                .any(boolsubst_cube::Cube::is_universe),
            "quotient should be 1, got {}",
            r.quotient
        );
    }

    #[test]
    fn boolean_beats_algebraic_on_intro_example() {
        // Algebraic division of f = ab + ac + bc' by d = ab + c gives
        // q = a (5 lits with remainder). Boolean gets 4.
        let (f, d, r) = divide(3, "ab + ac + bc'", "ab + c");
        let alg = boolsubst_algebraic_weak_divide_cost(&f, &d);
        assert!(
            r.sop_cost() <= alg,
            "boolean {} vs algebraic {alg}",
            r.sop_cost()
        );
    }

    /// SOP cost of the algebraic division (for comparison in tests).
    fn boolsubst_algebraic_weak_divide_cost(f: &Cover, d: &Cover) -> usize {
        // Inline small weak division to avoid a dev-dependency cycle:
        // quotient = cubes of f containing d's cubes... use the simplest
        // correct definition via the algebraic crate is unavailable here,
        // so emulate: q = ⋂ f/di.
        let n = f.num_vars();
        let mut q: Option<Vec<boolsubst_cube::Cube>> = None;
        for dc in d.cubes() {
            let mut part = Vec::new();
            for c in f.cubes() {
                if dc.contains(c) {
                    let mut x = c.clone();
                    for v in dc.support() {
                        x.free_var(v);
                    }
                    part.push(x);
                }
            }
            q = Some(match q {
                None => part,
                Some(prev) => prev.into_iter().filter(|c| part.contains(c)).collect(),
            });
        }
        let q = Cover::from_cubes(n, q.unwrap_or_default());
        let product = q.and(d);
        let mut r = Cover::new(n);
        for c in f.cubes() {
            if !product.cubes().iter().any(|p| p == c) {
                r.push(c.clone());
            }
        }
        if q.is_empty() {
            f.literal_count()
        } else {
            q.literal_count() + q.len() + r.literal_count()
        }
    }

    #[test]
    fn pos_division_intro_example() {
        // The paper's POS example: with f and d in product-of-sum form,
        // substitution works symmetrically. Take f = (a + b)(a + c)(b + c')
        // and d = (a + b)(c): complement-domain machinery must verify.
        let f = parse_sop(3, "ab + ac + bc'").expect("f");
        let d = parse_sop(3, "ab + c").expect("d");
        let r = pos_divide_covers(&f, &d, &DivisionOptions::paper_default());
        assert!(r.verify(&f, &d), "POS reconstruction failed");
    }

    #[test]
    fn pos_division_pure_sum_terms() {
        // f = (a + b)(c + d), d = (a + b): q should be trivial, r = (c+d).
        let f = parse_sop(4, "ac + ad + bc + bd").expect("f");
        let d = parse_sop(4, "a + b").expect("d");
        let r = pos_divide_covers(&f, &d, &DivisionOptions::paper_default());
        assert!(r.succeeded());
        assert!(r.verify(&f, &d));
    }

    #[test]
    fn division_result_is_never_worse_than_trivial() {
        for (n, fs, ds) in [
            (4, "ab + ac + ad", "b + c + d"),
            (4, "abc + abd' + ab'c", "c + d'"),
            (5, "ab + cd + e", "ab + cd"),
            (3, "ab + ab' + a'b", "a + b"),
        ] {
            let f = parse_sop(n, fs).expect("f");
            let d = parse_sop(n, ds).expect("d");
            let r = basic_divide_covers(&f, &d, &DivisionOptions::paper_default());
            assert!(r.verify(&f, &d), "verify failed on {fs} / {ds}");
            if r.succeeded() {
                assert!(
                    r.sop_cost() <= f.literal_count() + d.literal_count(),
                    "pathological cost on {fs} / {ds}"
                );
            }
        }
    }

    /// A tight per-division check budget stops removal early but keeps
    /// the `f = d·q + r` identity: the quotient is merely less simplified.
    #[test]
    fn check_budget_exhaustion_is_sound_and_reported() {
        let f = parse_sop(3, "ab + ac + bc'").expect("f");
        let d = parse_sop(3, "ab + c").expect("d");
        let tight = basic_divide_covers(
            &f,
            &d,
            &DivisionOptions {
                max_checks: 1,
                ..DivisionOptions::paper_default()
            },
        );
        assert!(tight.budget_exhausted, "budget must be reported");
        assert_eq!(tight.checks, 1);
        assert!(tight.verify(&f, &d), "early-stopped division stays exact");

        let full = basic_divide_covers(&f, &d, &DivisionOptions::paper_default());
        assert!(!full.budget_exhausted);
        assert!(
            full.sop_cost() <= tight.sop_cost(),
            "the budget can only cost quality, never correctness"
        );
    }

    /// The exact-search backstop honours the same check budget.
    #[test]
    fn exact_mode_respects_check_budget() {
        let f = parse_sop(4, "ab + ac + bc' + a'd").expect("f");
        let d = parse_sop(4, "ab + c").expect("d");
        let tight = basic_divide_covers(
            &f,
            &d,
            &DivisionOptions {
                max_checks: 2,
                ..DivisionOptions::exact(64)
            },
        );
        assert!(tight.budget_exhausted);
        assert_eq!(tight.checks, 2);
        assert!(tight.verify(&f, &d));
    }

    #[test]
    fn learning_can_only_help() {
        let f = parse_sop(4, "ab + ac + bc' + a'd").expect("f");
        let d = parse_sop(4, "ab + c").expect("d");
        let plain = basic_divide_covers(&f, &d, &DivisionOptions::paper_default());
        let learned = basic_divide_covers(
            &f,
            &d,
            &DivisionOptions {
                imply: ImplyOptions { learn_depth: 1 },
                max_passes: 2,
                exact_budget: 0,
                max_checks: 0,
            },
        );
        assert!(learned.verify(&f, &d));
        assert!(learned.wires_removed >= plain.wires_removed);
    }
}
