//! Seeded property tests for the core invariants: division exactness,
//! SOS/POS lemmas, two-level minimization envelopes, factoring
//! equivalence, algebraic reconstruction and the forced-literal bound.
//!
//! Each property draws its covers from the workloads crate's seeded
//! xorshift [`Rng`], so every case is reproducible from its index and the
//! suite runs in the default, dependency-free build.

use boolsubst::algebraic::{factor, factored_literals, weak_divide, FactorTree};
use boolsubst::core::{
    basic_divide_covers, extended_divide_covers, forced_literal_bound, is_sos_of, lemma1_holds,
    pos_divide_covers, DivisionOptions, Session, SubstOptions, LOCAL_BOUND_MAX_VARS,
};
use boolsubst::cube::{parse_sop, simplify, Cover, Cube, Lit, Phase, SimplifyOptions, VarState};
use boolsubst::network::Network;
use boolsubst::workloads::generator::Rng;

const VARS: usize = 5;
const CASES: u64 = 96;

/// A random cube over `VARS` variables with 1–4 literal draws (never
/// empty: a second draw of the same variable is ignored).
fn random_cube(rng: &mut Rng) -> Cube {
    let mut cube = Cube::universe(VARS);
    for _ in 0..=rng.below(4) {
        let var = rng.below(VARS);
        if matches!(cube.var_state(var), VarState::DontCare) {
            let phase = if rng.below(2) == 0 {
                Phase::Pos
            } else {
                Phase::Neg
            };
            cube.restrict(Lit { var, phase });
        }
    }
    cube
}

/// A random non-empty cover of 1..=`max_cubes` cubes, minus contained
/// cubes.
fn random_cover(rng: &mut Rng, max_cubes: usize) -> Cover {
    let mut c = Cover::new(VARS);
    for _ in 0..=rng.below(max_cubes) {
        c.push(random_cube(rng));
    }
    c.remove_contained_cubes();
    c
}

/// Runs `property` on `CASES` seeded generators; a failure names its case.
fn for_cases(salt: u64, mut property: impl FnMut(&mut Rng, u64)) {
    for case in 0..CASES {
        let mut rng = Rng::new(salt.wrapping_mul(0x1_0000) + case + 1);
        property(&mut rng, case);
    }
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

/// Basic Boolean division is always exact: f == d·q + r.
#[test]
fn basic_division_exact() {
    for_cases(1, |rng, case| {
        let (f, d) = (random_cover(rng, 6), random_cover(rng, 4));
        let r = basic_divide_covers(&f, &d, &DivisionOptions::paper_default());
        assert!(
            r.verify(&f, &d),
            "case {case}: q={} r={}",
            r.quotient,
            r.remainder
        );
    });
}

/// POS division is always exact: f == (d + q)·r.
#[test]
fn pos_division_exact() {
    for_cases(2, |rng, case| {
        let (f, d) = (random_cover(rng, 5), random_cover(rng, 3));
        if d.is_tautology() {
            return;
        }
        let r = pos_divide_covers(&f, &d, &DivisionOptions::paper_default());
        assert!(r.verify(&f, &d), "case {case}");
    });
}

/// Extended division, when it finds a core, divides exactly by it and
/// the core is a subset of the divisor's cubes.
#[test]
fn extended_division_exact() {
    for_cases(3, |rng, case| {
        let (f, d) = (random_cover(rng, 5), random_cover(rng, 4));
        if let Some(ext) = extended_divide_covers(&f, &d, &DivisionOptions::paper_default()) {
            assert!(ext.division.verify(&f, &ext.core), "case {case}");
            for &k in &ext.core_cube_indices {
                assert!(k < d.len(), "case {case}");
            }
            assert!(!ext.core.is_empty(), "case {case}");
        }
    });
}

/// Lemma 1: whenever d is (structurally) an SOS of f, f·d == f.
#[test]
fn lemma1_property() {
    for_cases(4, |rng, case| {
        let f = random_cover(rng, 5);
        // Build an SOS of f by dropping literals from its cubes.
        let mut d = Cover::new(VARS);
        for c in f.cubes() {
            let mut weaker = c.clone();
            let first = weaker.lits().next();
            if let Some(l) = first {
                weaker.free_var(l.var);
            }
            d.push(weaker);
        }
        if d.is_empty() {
            d = Cover::one(VARS);
        }
        assert!(is_sos_of(&d, &f), "case {case}");
        assert!(lemma1_holds(&d, &f), "case {case}");
    });
}

/// The divided form never uses more SOP literals than the trivial
/// form f = d·0 + f.
#[test]
fn division_no_blowup() {
    for_cases(5, |rng, case| {
        let (f, d) = (random_cover(rng, 5), random_cover(rng, 3));
        let r = basic_divide_covers(&f, &d, &DivisionOptions::paper_default());
        if r.succeeded() {
            assert!(r.quotient.len() <= f.len() + 1, "case {case}");
            assert!(r.remainder.len() <= f.len(), "case {case}");
        }
    });
}

/// Two-level simplification: onset\dc ⊆ result ⊆ onset ∪ dc, and never
/// more literals than the input.
#[test]
fn simplify_envelope() {
    for_cases(6, |rng, case| {
        let (on, dc) = (random_cover(rng, 6), random_cover(rng, 3));
        let out = simplify(&on, &dc, SimplifyOptions::default());
        assert!(
            out.covers(&on.sharp(&dc)),
            "case {case}: lost care minterms"
        );
        assert!(
            on.or(&dc).covers(&out),
            "case {case}: left the care envelope"
        );
        assert!(out.literal_count() <= on.literal_count(), "case {case}");
    });
}

/// Factoring preserves the function and never increases literals.
#[test]
fn factor_equivalent() {
    for_cases(7, |rng, case| {
        let f = random_cover(rng, 6);
        let tree = factor(&f);
        for m in 0u32..(1 << VARS) {
            let inputs: Vec<bool> = (0..VARS).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(
                eval_tree(&tree, &inputs),
                f.eval(&inputs),
                "case {case} minterm {m}"
            );
        }
        assert!(factored_literals(&f) <= f.literal_count(), "case {case}");
    });
}

/// Weak division reconstructs: f == d·q + r as cube sets.
#[test]
fn weak_division_reconstructs() {
    for_cases(8, |rng, case| {
        let (f, d) = (random_cover(rng, 6), random_cover(rng, 3));
        let r = weak_divide(&f, &d);
        let mut rebuilt = r.quotient.and(&d);
        rebuilt.extend_cover(&r.remainder);
        assert!(rebuilt.equivalent(&f), "case {case}");
    });
}

/// Complement is exact: f + f' is a tautology and f·f' is empty.
#[test]
fn complement_exact() {
    for_cases(9, |rng, case| {
        let f = random_cover(rng, 6);
        let g = f.complement();
        assert!(f.or(&g).is_tautology(), "case {case}");
        let mut inter = f.and(&g);
        inter.remove_contained_cubes();
        for c in inter.cubes() {
            assert!(c.is_empty(), "case {case}");
        }
    });
}

/// Tautology check agrees with exhaustive evaluation.
#[test]
fn tautology_matches_exhaustive() {
    for_cases(10, |rng, case| {
        let f = random_cover(rng, 7);
        assert_eq!(
            f.is_tautology(),
            boolsubst::cube::is_tautology_exhaustive(&f),
            "case {case}"
        );
    });
}

/// The simulation screen is refute-only: whenever every dividend cube
/// carries a `divisor = 0` witness, the kept split of basic division
/// is empty (and symmetrically, complement witnesses empty the kept
/// split against the divisor's complement) — for any pattern pool.
#[test]
fn sim_screen_refutations_are_sound() {
    use boolsubst::network::Network;
    use boolsubst::sim::{SimConfig, SimFilter};
    for_cases(11, |rng, case| {
        let (f, d) = (random_cover(rng, 6), random_cover(rng, 4));
        let mut net = Network::new("prop");
        let pis: Vec<_> = (0..VARS)
            .map(|i| net.add_input(format!("x{i}")).expect("pi"))
            .collect();
        let tf = net.add_node("tf", pis.clone(), f.clone()).expect("tf");
        let td = net.add_node("td", pis.clone(), d.clone()).expect("td");
        net.add_output("tf", tf).expect("of");
        net.add_output("td", td).expect("od");
        let configs = [
            SimConfig::exhaustive(),
            SimConfig {
                words: 1,
                ..SimConfig::default()
            },
        ];
        for config in configs {
            let filter = SimFilter::new(&net, &config);
            let screen = filter.screen_cover(&net, &f, &pis, td);
            if screen.refutes_containment_in_divisor() {
                let (kept, _) = boolsubst::core::split_remainder(&f, &d);
                assert!(kept.is_empty(), "case {case}: refuted kept split non-empty");
            }
            if screen.refutes_containment_in_complement() {
                let dc = d.complement();
                if !dc.is_empty() {
                    let (kept, _) = boolsubst::core::split_remainder(&f, &dc);
                    assert!(
                        kept.is_empty(),
                        "case {case}: complement kept split non-empty"
                    );
                }
            }
        }
    });
}

/// A random cover over `n` variables: up to `max_cubes` cubes of up to
/// five literal draws each, one cube in eight made empty (`00` slot).
fn random_cover_over(rng: &mut Rng, n: usize, max_cubes: usize) -> Cover {
    let mut cover = Cover::new(n);
    for _ in 0..rng.below(max_cubes + 1) {
        let mut cube = Cube::universe(n);
        if n > 0 {
            for _ in 0..rng.below(6) {
                let var = rng.below(n);
                if rng.below(2) == 0 {
                    cube.restrict(Lit::pos(var));
                } else {
                    cube.restrict(Lit::neg(var));
                }
            }
        }
        cover.push(cube);
    }
    cover
}

/// The truth table of `cover`, one entry per minterm (bit `v` of the
/// index is variable `v`), read slot by slot.
fn minterm_table(cover: &Cover) -> Vec<bool> {
    let n = cover.num_vars();
    (0..1usize << n)
        .map(|m| {
            cover.cubes().iter().any(|c| {
                (0..n).all(|v| match c.var_state(v) {
                    VarState::DontCare => true,
                    VarState::Pos => m >> v & 1 == 1,
                    VarState::Neg => m >> v & 1 == 0,
                    VarState::Empty => false,
                })
            })
        })
        .collect()
}

/// `min(dirs(f), forced(f, d) + 1)` by walking every edge of the cube.
fn forced_bound_reference(f: &Cover, d: &Cover) -> usize {
    let n = f.num_vars();
    let (tf, td) = (minterm_table(f), minterm_table(d));
    let (mut dirs, mut forced) = (0, 0);
    for v in 0..n {
        for rising in [true, false] {
            let edges: Vec<usize> = (0..tf.len())
                .filter(|&m| m >> v & 1 == 0)
                .filter(|&m| tf[m] != rising && tf[m | 1 << v] == rising)
                .collect();
            dirs += usize::from(!edges.is_empty());
            forced += usize::from(edges.iter().any(|&m| td[m] == td[m | 1 << v]));
        }
    }
    dirs.min(forced + 1)
}

/// The word-parallel forced-literal bound equals the per-minterm
/// reference over 0–12 variables: one-word tables up to six variables,
/// 2–64 words above. Past the cutoff it declines.
#[test]
fn forced_literal_bound_matches_per_minterm_reference() {
    for_cases(12, |rng, case| {
        for n in 0..=LOCAL_BOUND_MAX_VARS {
            let f = random_cover_over(rng, n, 6);
            let d = random_cover_over(rng, n, 3);
            assert_eq!(
                forced_literal_bound(&f, &d),
                Some(forced_bound_reference(&f, &d)),
                "case {case}, n = {n}: f = {f}, d = {d}"
            );
        }
    });
    let wide = Cover::one(LOCAL_BOUND_MAX_VARS + 1);
    assert_eq!(forced_literal_bound(&wide, &wide), None);
}

/// f = abc by d = ab: a and b raise f only on edges that also raise d,
/// so only c is forced and the bound (2) stays below f's 3 literals; the
/// SOP rewrite f = d·c gains 1. Counting a and b as forced too would
/// skip that rewrite.
#[test]
fn forced_literal_bound_spares_abc_by_ab() {
    let f = parse_sop(3, "abc").expect("f");
    let d = parse_sop(3, "ab").expect("d");
    assert_eq!(forced_literal_bound(&f, &d), Some(2));

    let mut net = Network::new("abc");
    let pis: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|name| net.add_input(*name).expect("pi"))
        .collect();
    let dn = net
        .add_node("d", pis[..2].to_vec(), parse_sop(2, "ab").expect("d"))
        .expect("d");
    let tn = net.add_node("t", pis.clone(), f).expect("t");
    net.add_output("d", dn).expect("od");
    net.add_output("t", tn).expect("ot");
    let stats = Session::new(&mut net, SubstOptions::basic()).run();
    assert_eq!(stats.substitutions, 1, "{stats}");
    assert_eq!(stats.literal_gain, 1, "{stats}");
    assert!(net.node(tn).fanins().contains(&dn), "t reads d");
}
