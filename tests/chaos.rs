//! Fault-injection harness for the checked-apply guards (`--features
//! chaos`). Each test arms one fault class, runs a sweep (checked unless
//! it says otherwise) over random workloads, and asserts that (a) faults
//! were actually injected, (b) at least one was caught by a guard, (c) no
//! panic escaped the sweep, and (d) the final network still computes the
//! input functions — i.e. every injected fault was either benign or
//! rolled back.
#![cfg(feature = "chaos")]

use boolsubst::core::chaos::{configure, counts, disarm, ChaosConfig, ChaosCounts};
use boolsubst::core::verify::networks_equivalent;
use boolsubst::core::{Acceptance, Session, SubstOptions, SubstStats};
use boolsubst::network::Network;
use boolsubst::trace::{Outcome, Tracer};
use boolsubst::workloads::generator::{random_network, GeneratorParams};

const SEEDS: [u64; 3] = [11, 23, 47];

/// Runs a checked extended sweep over the workload seeds with `chaos`
/// armed per `config`, asserting equivalence after every run. Returns the
/// merged sweep stats and the total injection counts.
fn run_chaos_sweeps(config: ChaosConfig) -> (SubstStats, ChaosCounts) {
    let mut stats = SubstStats::default();
    let mut injected = ChaosCounts::default();
    for seed in SEEDS {
        let mut net = random_network(seed, &GeneratorParams::default());
        let golden = net.clone();
        configure(ChaosConfig { seed, ..config });
        let opts = SubstOptions::extended().with_checked(true);
        // The sweep returning at all proves no injected panic escaped it.
        let run = Session::new(&mut net, opts).run();
        let c = disarm();
        assert!(
            networks_equivalent(&golden, &net),
            "seed {seed}: network miscompiled under chaos {config:?} (injected {c:?})"
        );
        assert_outputs_named_equal(&golden, &net, seed);
        stats.merge(&run);
        injected.quotients_corrupted += c.quotients_corrupted;
        injected.covers_corrupted += c.covers_corrupted;
        injected.signatures_poisoned += c.signatures_poisoned;
        injected.panics_injected += c.panics_injected;
    }
    (stats, injected)
}

/// The BDD oracle already proves output-function equality; also pin the
/// output interface so a rollback cannot have renamed or dropped one.
fn assert_outputs_named_equal(golden: &Network, net: &Network, seed: u64) {
    let a: Vec<&str> = golden.outputs().iter().map(|(n, _)| n.as_str()).collect();
    let b: Vec<&str> = net.outputs().iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(a, b, "seed {seed}: output interface changed");
}

#[test]
fn corrupted_quotients_are_detected_and_rolled_back() {
    // Rate 1: every successful division has its quotient corrupted —
    // emulating a systematically wrong implication engine.
    let (stats, injected) = run_chaos_sweeps(ChaosConfig {
        quotient_rate: 1,
        ..ChaosConfig::default()
    });
    assert!(injected.quotients_corrupted > 0, "no quotients corrupted");
    assert!(
        stats.guard_rejections + stats.engine_faults > 0,
        "corrupted quotients went undetected: {stats:?}"
    );
    assert!(stats.quarantined > 0, "no pair was quarantined");
}

#[test]
fn corrupted_covers_are_detected_and_rolled_back() {
    let (stats, injected) = run_chaos_sweeps(ChaosConfig {
        cover_rate: 1,
        ..ChaosConfig::default()
    });
    assert!(injected.covers_corrupted > 0, "no covers corrupted");
    assert!(
        stats.guard_rejections + stats.engine_faults > 0,
        "corrupted covers went undetected: {stats:?}"
    );
    assert!(stats.quarantined > 0, "no pair was quarantined");
}

#[test]
fn poisoned_signatures_are_detected_by_the_audit() {
    let (stats, injected) = run_chaos_sweeps(ChaosConfig {
        signature_rate: 1,
        ..ChaosConfig::default()
    });
    assert!(injected.signatures_poisoned > 0, "no signatures poisoned");
    // Signature poison cannot miscompile (the screen only filters), but
    // the integrity audit must still flag the corrupted cache.
    assert!(
        stats.engine_faults > 0,
        "poisoned signatures went undetected: {stats:?}"
    );
}

#[test]
fn panics_at_pair_entry_are_isolated() {
    let (stats, injected) = run_chaos_sweeps(ChaosConfig {
        panic_entry_rate: 2,
        ..ChaosConfig::default()
    });
    assert!(injected.panics_injected > 0, "no panics injected");
    assert!(
        stats.engine_faults > 0,
        "caught panics were not recorded as faults: {stats:?}"
    );
}

/// Proof panics are isolated without checked mode too: every pair is
/// proved read-only, so a panic there leaves nothing to roll back. Each
/// caught panic is one fault and one quarantine, and the sweep returns an
/// equivalent network.
#[test]
fn unchecked_sequential_sweep_isolates_proof_panics() {
    for seed in SEEDS {
        let mut net = random_network(seed, &GeneratorParams::default());
        let golden = net.clone();
        configure(ChaosConfig {
            panic_entry_rate: 2,
            seed,
            ..ChaosConfig::default()
        });
        let opts = SubstOptions::extended().with_threads(1);
        // The sweep returning at all proves no injected panic escaped it.
        let stats = Session::new(&mut net, opts).run();
        let injected = disarm();
        assert!(injected.panics_injected > 0, "seed {seed}: no panics");
        assert!(stats.engine_faults > 0, "seed {seed}: no faults booked");
        assert_eq!(
            stats.engine_faults, stats.quarantined,
            "seed {seed}: every fault is one quarantine"
        );
        assert!(
            networks_equivalent(&golden, &net),
            "seed {seed}: network miscompiled (injected {injected:?})"
        );
    }
}

/// A best-gain evaluation that faults is counted once, as one fault, one
/// quarantined pair and one `EngineFault` span: across up to three
/// repeated runs every fault is one quarantine and one span.
#[test]
fn best_gain_dry_run_faults_are_counted_once() {
    for threads in [1usize, 4] {
        for seed in SEEDS {
            let mut net = random_network(seed, &GeneratorParams::default());
            configure(ChaosConfig {
                panic_entry_rate: 2,
                seed,
                ..ChaosConfig::default()
            });
            let opts = SubstOptions::extended()
                .with_acceptance(Acceptance::BestGain)
                .with_checked(true)
                .with_threads(threads);
            let mut stats = SubstStats::default();
            let mut fault_spans = 0;
            for _ in 0..3 {
                let mut tracer = Tracer::new("ext");
                let run = Session::new(&mut net, opts.clone())
                    .tracer(&mut tracer)
                    .run();
                stats.merge(&run);
                fault_spans += tracer.outcome_count(Outcome::EngineFault);
                if run.substitutions == 0 {
                    break;
                }
            }
            let _ = disarm();
            assert!(stats.engine_faults > 0, "seed {seed} t{threads}: no faults");
            assert_eq!(
                stats.engine_faults, stats.quarantined,
                "seed {seed} t{threads}: faults re-counted"
            );
            assert_eq!(
                fault_spans,
                u64::try_from(stats.engine_faults).expect("count"),
                "seed {seed} t{threads}: one span per fault"
            );
        }
    }
}

#[test]
fn panics_after_apply_are_isolated_and_rolled_back() {
    // Post-apply panics strike after the rewrite landed, so the rollback
    // path (not just unwinding) is what keeps the network equivalent.
    let (stats, injected) = run_chaos_sweeps(ChaosConfig {
        panic_post_apply_rate: 1,
        ..ChaosConfig::default()
    });
    assert!(
        injected.panics_injected > 0,
        "no post-apply panics injected"
    );
    assert!(
        stats.engine_faults > 0,
        "caught panics were not recorded as faults: {stats:?}"
    );
}

#[test]
fn all_fault_classes_together_never_miscompile() {
    let (stats, injected) = run_chaos_sweeps(ChaosConfig {
        quotient_rate: 2,
        cover_rate: 3,
        signature_rate: 5,
        panic_entry_rate: 17,
        panic_post_apply_rate: 7,
        ..ChaosConfig::default()
    });
    let total = injected.quotients_corrupted
        + injected.covers_corrupted
        + injected.signatures_poisoned
        + injected.panics_injected;
    assert!(total > 0, "mixed run injected nothing");
    assert!(
        stats.guard_rejections + stats.engine_faults > 0,
        "mixed faults went undetected: {stats:?}"
    );
}

#[test]
fn disarmed_chaos_leaves_checked_sweeps_clean() {
    // Sanity for the harness itself: with nothing armed, a checked sweep
    // must report zero injections and zero guard activity.
    let _ = disarm();
    let mut net = random_network(11, &GeneratorParams::default());
    let golden = net.clone();
    let opts = SubstOptions::extended().with_checked(true);
    let stats = Session::new(&mut net, opts).run();
    assert_eq!(counts(), ChaosCounts::default());
    assert_eq!(stats.guard_rejections, 0);
    assert_eq!(stats.engine_faults, 0);
    assert_eq!(stats.quarantined, 0);
    assert!(networks_equivalent(&golden, &net));
}
