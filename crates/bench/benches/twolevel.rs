//! Microbenchmarks of the two-level substrate everything sits on:
//! tautology checking, complementation, ESPRESSO-style simplification and
//! quick factoring.

use boolsubst_algebraic::factored_literals;
use boolsubst_bench::timing::Harness;
use boolsubst_cube::{simplify, Cover, Cube, Lit, Phase, SimplifyOptions};
use boolsubst_workloads::generator::Rng;
use std::hint::black_box;

fn random_cover(seed: u64, vars: usize, cubes: usize) -> Cover {
    let mut rng = Rng::new(seed);
    let mut cover = Cover::new(vars);
    while cover.len() < cubes {
        let mut cube = Cube::universe(vars);
        for _ in 0..(2 + rng.below(3)) {
            let phase = if rng.below(2) == 0 {
                Phase::Pos
            } else {
                Phase::Neg
            };
            cube.restrict(Lit {
                var: rng.below(vars),
                phase,
            });
        }
        if !cube.is_empty() {
            cover.push(cube);
        }
        cover.remove_contained_cubes();
    }
    cover
}

/// A two-word cover: a 12-variable random cover spread over 40 variables
/// (every third one), so its literals sit in both words of each cube, as
/// in a joint space near the 48-variable joint-space bound.
fn two_word_cover(seed: u64, cubes: usize) -> Cover {
    let map: Vec<usize> = (0..12).map(|v| 3 * v + 2).collect();
    random_cover(seed, 12, cubes).remapped(40, &map)
}

fn main() {
    let harness = Harness::from_args();
    let mut group = harness.group("twolevel");
    let covers = [(8usize, 8usize), (12, 24), (16, 48)]
        .map(|(vars, cubes)| (vars, cubes, random_cover(0xABCD + vars as u64, vars, cubes)));
    let two_word = (40, 24, two_word_cover(0xABCD + 40, 24));
    for (vars, cubes, f) in covers.iter().chain([&two_word]) {
        let label = format!("{vars}v{cubes}c");
        group.bench(&format!("tautology/{label}"), || {
            black_box(black_box(f).is_tautology())
        });
        group.bench(&format!("complement/{label}"), || {
            black_box(black_box(f).complement())
        });
        let dc = Cover::new(*vars);
        group.bench(&format!("simplify/{label}"), || {
            black_box(simplify(black_box(f), &dc, SimplifyOptions::default()))
        });
        group.bench(&format!("factor/{label}"), || {
            black_box(factored_literals(black_box(f)))
        });
    }
    // The per-cube kernels the division paths call per cube: growing a
    // cover by one variable (the substituted divisor's) and walking
    // literals.
    let (vars, cubes, f) = &two_word;
    let label = format!("{vars}v{cubes}c");
    group.bench(&format!("cube/extended/{label}"), || {
        black_box(black_box(f).extended(vars + 1))
    });
    group.bench(&format!("cube/lits/{label}"), || {
        black_box(f)
            .cubes()
            .iter()
            .map(|c| c.lits().count())
            .sum::<usize>()
    });
}
