//! The golden quality ledger: what every configuration makes of a fixed
//! corpus, committed as data in `tests/golden/quality.tsv`.
//!
//! One row per circuit × `all_configs()` × {first-gain, best-gain} ×
//! {1, 2 threads}. The circuits are `full_suite()` after script A, the
//! same after script C, and four fixed-seed `large_network` instances
//! (one per family; the multiplier's smallest instance is one 3 200-gate
//! block, so it contributes the cone of one product bit). A row holds the
//! FNV-1a digest of the output BLIF, its factored literals, the accepted
//! substitutions and the RAR checks, so a change to any kernel, filter or
//! sweep that moves one rewrite anywhere in the corpus fails here, with
//! the rows it moved and their literal deltas.
//!
//! Regenerate the table after an intended quality change with
//!
//! ```text
//! cargo test --release --test golden -- --ignored regenerate
//! ```
//!
//! and list every changed row with its literal delta in CHANGES.md.

use boolsubst::algebraic::network_factored_literals;
use boolsubst::core::{all_configs, Acceptance, Session};
use boolsubst::network::{write_blif, Network};
use boolsubst::workloads::full_suite;
use boolsubst::workloads::large::{large_network, Family};
use boolsubst::workloads::scripts::{script_a, script_c};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/quality.tsv");
const HEADER: &str =
    "group\tcircuit\tconfig\tacceptance\tthreads\tblif_fnv1a\tliterals\tsubstitutions\trar_checks";
const GROUPS: [&str; 3] = ["script_a", "script_c", "large"];

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The named circuits of one group.
fn circuits(group: &str) -> Vec<(String, Network)> {
    let scripted = |script: fn(&mut Network)| {
        full_suite()
            .into_iter()
            .enumerate()
            .map(|(i, mut net)| {
                script(&mut net);
                (format!("{i:02}-{}", net.name()), net)
            })
            .collect()
    };
    match group {
        "script_a" => scripted(script_a),
        "script_c" => scripted(script_c),
        "large" => {
            let mult = large_network(Family::Multiplier, 1, 1);
            let cone = mult
                .extract_cone(mult.outputs()[9].1, mult.inputs())
                .expect("cone over all inputs");
            vec![
                ("adder".into(), large_network(Family::Adder, 200, 1)),
                ("multiplier".into(), cone),
                (
                    "controller".into(),
                    large_network(Family::Controller, 100, 1),
                ),
                ("cones".into(), large_network(Family::RandomCones, 300, 1)),
            ]
        }
        _ => unreachable!("unknown group {group}"),
    }
}

/// The group's rows, keyed by everything left of the digest column.
fn rows(group: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (circuit, net) in circuits(group) {
        for (config, opts) in ["basic", "ext", "ext-gdc"].into_iter().zip(all_configs()) {
            for (acceptance, policy) in [
                ("first", Acceptance::FirstGain),
                ("best", Acceptance::BestGain),
            ] {
                for threads in [1usize, 2] {
                    let mut trial = net.clone();
                    let opts = opts.clone().with_acceptance(policy).with_threads(threads);
                    let stats = Session::new(&mut trial, opts).run();
                    out.insert(
                        format!("{group}\t{circuit}\t{config}\t{acceptance}\t{threads}"),
                        format!(
                            "{:016x}\t{}\t{}\t{}",
                            fnv1a(write_blif(&trial).as_bytes()),
                            network_factored_literals(&trial),
                            stats.substitutions,
                            stats.rar_checks
                        ),
                    );
                }
            }
        }
    }
    out
}

/// The committed rows of one group.
fn committed(group: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(TABLE).expect("golden table is committed");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(HEADER), "{TABLE}: header");
    lines
        .filter(|line| line.split('\t').next() == Some(group))
        .map(|line| {
            let cut = line.match_indices('\t').nth(4).expect("9 columns").0;
            (line[..cut].to_string(), line[cut + 1..].to_string())
        })
        .collect()
}

fn literals(value: &str) -> i64 {
    value
        .split('\t')
        .nth(1)
        .and_then(|l| l.parse().ok())
        .expect("literals column")
}

/// Fails with every added, missing or changed row of `group`, each
/// changed row with its literal delta.
fn check(group: &str) {
    let want = committed(group);
    let got = rows(group);
    let mut diff = String::new();
    for (key, value) in &got {
        match want.get(key) {
            None => writeln!(diff, "added   {key}\t{value}").unwrap(),
            Some(old) if old != value => writeln!(
                diff,
                "changed {key}\t{old} -> {value}\t(literals {:+})",
                literals(value) - literals(old)
            )
            .unwrap(),
            Some(_) => {}
        }
    }
    for key in want.keys().filter(|k| !got.contains_key(*k)) {
        writeln!(diff, "missing {key}").unwrap();
    }
    assert!(diff.is_empty(), "golden rows of {group} moved:\n{diff}");
}

#[test]
fn suite_after_script_a_matches_golden() {
    check("script_a");
}

#[test]
fn suite_after_script_c_matches_golden() {
    check("script_c");
}

#[test]
fn large_pin_nets_match_golden() {
    check("large");
}

/// Rewrites the table from the current code (see the module docs).
#[test]
#[ignore = "writes tests/golden/quality.tsv"]
fn regenerate() {
    let mut text = format!("{HEADER}\n");
    for group in GROUPS {
        for (key, value) in rows(group) {
            writeln!(text, "{key}\t{value}").unwrap();
        }
    }
    std::fs::write(TABLE, text).expect("write golden table");
}
