//! Microbenchmarks of the division engines: RAR-based basic Boolean
//! division vs. algebraic weak division, extended division's voting and
//! clique overhead, the POS (complement-domain) path, and the
//! forced-literal bound that lets the substitution sweep skip them.

use boolsubst_algebraic::weak_divide;
use boolsubst_bench::timing::Harness;
use boolsubst_core::{
    basic_divide_covers, extended_divide_covers, forced_literal_bound, pos_divide_covers,
    DivisionOptions,
};
use boolsubst_cube::{parse_sop, Cover};
use std::hint::black_box;

/// The paper's running example plus progressively larger planted pairs.
fn cases() -> Vec<(&'static str, Cover, Cover)> {
    let paper_f = parse_sop(3, "ab + ac + bc'").expect("f");
    let paper_d = parse_sop(3, "ab + c").expect("d");
    let wide_f = parse_sop(8, "abe + abf + ace + acf + bde + bdf + gh + g'h'").expect("f");
    let wide_d = parse_sop(8, "ab + ac + bd").expect("d");
    let deep_f = parse_sop(10, "abc + abd' + ae + af + bg + bh + cij + c'ij'").expect("f");
    let deep_d = parse_sop(10, "a + b + cij").expect("d");
    vec![
        ("paper", paper_f, paper_d),
        ("wide8", wide_f, wide_d),
        ("deep10", deep_f, deep_d),
    ]
}

fn main() {
    let harness = Harness::from_args();
    let mut group = harness.group("division");
    for (name, f, d) in cases() {
        group.bench(&format!("algebraic/{name}"), || {
            black_box(weak_divide(black_box(&f), black_box(&d)))
        });
        group.bench(&format!("boolean_basic/{name}"), || {
            black_box(basic_divide_covers(
                black_box(&f),
                black_box(&d),
                &DivisionOptions::paper_default(),
            ))
        });
        group.bench(&format!("boolean_extended/{name}"), || {
            black_box(extended_divide_covers(
                black_box(&f),
                black_box(&d),
                &DivisionOptions::paper_default(),
            ))
        });
        group.bench(&format!("boolean_pos/{name}"), || {
            black_box(pos_divide_covers(
                black_box(&f),
                black_box(&d),
                &DivisionOptions::paper_default(),
            ))
        });
        group.bench(&format!("local_bound/{name}"), || {
            black_box(forced_literal_bound(black_box(&f), black_box(&d)))
        });
    }
}
