//! Differential test of the kernel against a truth-table model: random
//! operation DAGs over at most 8 variables, every result checked by
//! `eval` on all assignments, and canonicity checked both ways.

use super::{Bdd, Ref};
use std::collections::HashMap;

/// Truth table over up to 8 variables: bit `m` is the value under the
/// assignment whose variable `i` is bit `i` of `m`.
type Table = [u64; 4];

/// Seeded xorshift64* (std-only).
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound as u64) as usize
    }
}

fn bit(t: &Table, m: usize) -> bool {
    t[m / 64] >> (m % 64) & 1 == 1
}

fn table_of(n: usize, f: impl Fn(usize) -> bool) -> Table {
    let mut t = [0u64; 4];
    for m in 0..1usize << n {
        if f(m) {
            t[m / 64] |= 1 << (m % 64);
        }
    }
    t
}

fn zip(a: &Table, b: &Table, op: impl Fn(u64, u64) -> u64) -> Table {
    std::array::from_fn(|i| op(a[i], b[i]))
}

/// Runs `ops` random operations over `n` variables in `bdd` (reset to
/// `n` first), checking every result against the model. Returns the
/// results in order.
fn run(bdd: &mut Bdd, n: usize, seed: u64, ops: usize) -> Vec<Ref> {
    bdd.reset(n);
    let mut rng = Rng(seed | 1);
    let full = table_of(n, |_| true);
    let mut pool: Vec<(Ref, Table)> = vec![(bdd.zero(), [0; 4]), (bdd.one(), full)];
    for v in 0..n {
        pool.push((bdd.var(v), table_of(n, |m| m >> v & 1 == 1)));
        pool.push((bdd.nvar(v), table_of(n, |m| m >> v & 1 == 0)));
    }
    let mut by_table: HashMap<Table, Ref> = HashMap::new();
    let mut by_ref: HashMap<Ref, Table> = HashMap::new();
    let mut out = Vec::new();
    for _ in 0..ops {
        let (f, tf) = pool[rng.below(pool.len())];
        let (g, tg) = pool[rng.below(pool.len())];
        let (h, th) = pool[rng.below(pool.len())];
        let v = rng.below(n);
        let (r, tr) = match rng.below(9) {
            0 => (bdd.and(f, g), zip(&tf, &tg, |a, b| a & b)),
            1 => (bdd.or(f, g), zip(&tf, &tg, |a, b| a | b)),
            2 => (bdd.xor(f, g), zip(&tf, &tg, |a, b| a ^ b)),
            3 => (bdd.not(f), zip(&tf, &full, |a, m| !a & m)),
            4 => (
                bdd.ite(f, g, h),
                std::array::from_fn(|i| (tf[i] & tg[i]) | (!tf[i] & th[i])),
            ),
            5 | 6 => {
                let value = rng.below(2) == 1;
                let t = table_of(n, |m| {
                    bit(&tf, if value { m | 1 << v } else { m & !(1 << v) })
                });
                (bdd.compose_const(f, v, value), t)
            }
            7 => {
                let t = table_of(n, |m| bit(&tf, m | 1 << v) || bit(&tf, m & !(1 << v)));
                (bdd.exists(f, v), t)
            }
            _ => {
                let cubes: Vec<Vec<(usize, bool)>> = (0..rng.below(4))
                    .map(|_| {
                        (0..rng.below(4))
                            .map(|_| (rng.below(pool.len()), rng.below(2) == 1))
                            .collect()
                    })
                    .collect();
                let t = table_of(n, |m| {
                    cubes
                        .iter()
                        .any(|c| c.iter().all(|&(k, pos)| bit(&pool[k].1, m) == pos))
                });
                let lits = cubes
                    .iter()
                    .map(|c| c.iter().map(|&(k, pos)| (pool[k].0, pos)));
                (bdd.sop(lits, None).expect("no limit"), t)
            }
        };
        for m in 0..1usize << n {
            let inputs: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(
                bdd.eval(r, &inputs),
                bit(&tr, m),
                "seed {seed}: eval at {m}"
            );
        }
        assert_eq!(
            bdd.sat_count(r),
            u128::from(tr.iter().map(|w| w.count_ones()).sum::<u32>()),
            "seed {seed}: sat_count"
        );
        assert_eq!(
            *by_table.entry(tr).or_insert(r),
            r,
            "seed {seed}: equal tables, unequal refs"
        );
        assert_eq!(
            *by_ref.entry(r).or_insert(tr),
            tr,
            "seed {seed}: equal refs, unequal tables"
        );
        pool.push((r, tr));
        out.push(r);
    }
    out
}

#[test]
fn random_dags_match_the_truth_table_model() {
    for seed in 1..=24u64 {
        let n = 1 + (seed as usize % 8);
        run(&mut Bdd::new(n), n, seed, 300);
    }
}

#[test]
fn reset_manager_reproduces_a_fresh_managers_refs() {
    let mut reused = Bdd::new(0);
    for seed in 1..=12u64 {
        let n = 1 + (seed as usize * 5 % 8);
        let fresh = run(&mut Bdd::new(n), n, seed, 200);
        // Leave different state behind before every reset.
        run(&mut reused, 8 - n % 8, seed ^ 0xABCD, 200);
        assert_eq!(run(&mut reused, n, seed, 200), fresh, "seed {seed}");
    }
}

#[test]
fn tiny_computed_table_gives_identical_results() {
    for seed in 1..=12u64 {
        let n = 2 + (seed as usize * 3 % 7);
        let fresh = run(&mut Bdd::new(n), n, seed, 200);
        for cap in [1, 2] {
            let mut tiny = Bdd::new(n);
            tiny.cache_cap = cap;
            assert_eq!(
                run(&mut tiny, n, seed, 200),
                fresh,
                "seed {seed}, cap {cap}"
            );
            assert_eq!(tiny.cache.len(), cap, "seed {seed}");
        }
    }
}
