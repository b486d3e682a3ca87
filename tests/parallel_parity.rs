//! Pins the determinism contract of the parallel speculative sweep: for
//! any worker count the engine must accept bit-identical rewrites (same
//! BLIF output) and agree with the sequential sweep on every statistic
//! except the wall-clock timers.

use boolsubst::core::{all_configs, Session, SubstOptions, SubstStats};
use boolsubst::network::{write_blif, Network};
use boolsubst::workloads::full_suite;
use boolsubst::workloads::generator::{random_network, GeneratorParams};
use boolsubst::workloads::scripts::script_a;

fn modes() -> Vec<(&'static str, SubstOptions)> {
    ["basic", "extended", "extended_gdc"]
        .into_iter()
        .zip(all_configs())
        .collect()
}

fn run(base: &Network, opts: SubstOptions) -> (Network, SubstStats) {
    let mut net = base.clone();
    let stats = Session::new(&mut net, opts).run();
    net.check_invariants();
    (net, stats)
}

/// Every `SubstStats` field except the run-dependent `*_nanos` timers.
fn counters(s: &SubstStats) -> String {
    format!(
        "{:?}",
        SubstStats {
            enumerate_nanos: 0,
            filter_nanos: 0,
            divide_nanos: 0,
            apply_nanos: 0,
            sim_nanos: 0,
            ..*s
        }
    )
}

/// The one width check: at 1, 2, 4 and 8 threads, every mode rewrites
/// `base` bit-identically and books the same non-timing counters —
/// screen and RAR counters included.
fn assert_width_independent(base: &Network, label: &str) {
    for (name, opts) in modes() {
        let (seq_net, seq) = run(base, opts.clone());
        for threads in [2usize, 4, 8] {
            let (par_net, par) = run(base, opts.clone().with_threads(threads));
            assert_eq!(
                write_blif(&par_net),
                write_blif(&seq_net),
                "{label} {name} threads {threads}: rewrites diverged"
            );
            assert_eq!(
                counters(&par),
                counters(&seq),
                "{label} {name} threads {threads}: counters diverged"
            );
        }
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    for seed in [11u64, 23, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        assert_width_independent(&base, &format!("seed {seed}"));
    }
}

/// The paper suite after `script_a`, whose screens see many false passes.
#[test]
fn parallel_widths_agree_on_every_counter() {
    for mut base in full_suite() {
        script_a(&mut base);
        let label = base.name().to_string();
        assert_width_independent(&base, &label);
    }
}

/// A deadline that is already expired stops a parallel sweep before any
/// epoch, exactly like the sequential engine.
#[test]
fn parallel_sweep_honors_expired_deadline() {
    use std::time::Instant;
    let base = random_network(11, &GeneratorParams::default());
    let opts = SubstOptions::extended()
        .with_threads(4)
        .with_deadline(Instant::now());
    let (net, stats) = run(&base, opts);
    assert!(stats.interrupted, "expired deadline not reported");
    assert_eq!(stats.substitutions, 0);
    assert_eq!(write_blif(&net), write_blif(&base));
}

/// Checked mode composes with the parallel sweep: on a healthy engine the
/// guards veto nothing, so the result stays bit-identical to the plain
/// sequential run with every failure counter at zero, and every pair that
/// reaches a proof is audited at any width, so the checked counters
/// (`sim_audits` included) match the checked sequential run's at 2, 4
/// and 8 threads.
#[test]
fn checked_parallel_sweep_is_bit_identical_and_clean() {
    let base = random_network(23, &GeneratorParams::default());
    for (name, opts) in modes() {
        let (seq_net, _) = run(&base, opts.clone());
        let (_, checked_seq) = run(&base, opts.clone().with_checked(true));
        assert!(checked_seq.sim_audits > 0, "{name}: no pair audited");
        for threads in [2usize, 4, 8] {
            let (par_net, par) = run(&base, opts.clone().with_checked(true).with_threads(threads));
            assert_eq!(
                write_blif(&par_net),
                write_blif(&seq_net),
                "{name} threads {threads}: checked parallel sweep changed the rewrites"
            );
            assert_eq!(
                counters(&par),
                counters(&checked_seq),
                "{name} threads {threads}: checked counters diverged"
            );
            assert_eq!(par.guard_rejections, 0, "{name} threads {threads}");
            assert_eq!(par.engine_faults, 0, "{name} threads {threads}");
            assert_eq!(par.quarantined, 0, "{name} threads {threads}");
        }
    }
}

/// Fault isolation: a panic inside a *worker thread* must be caught at
/// the speculated pair, booked as an engine fault, quarantined — and must
/// never poison the committer. The sweep finishes, the network still
/// computes the same functions.
#[cfg(feature = "chaos")]
#[test]
fn worker_panic_quarantines_the_pair_and_spares_the_committer() {
    use boolsubst::core::chaos::{configure, disarm, ChaosConfig};
    use boolsubst::core::verify::networks_equivalent;

    let mut any_faults = 0usize;
    for seed in [11u64, 23, 47] {
        let base = random_network(seed, &GeneratorParams::default());
        let mut net = base.clone();
        configure(ChaosConfig {
            panic_entry_rate: 2,
            seed,
            ..ChaosConfig::default()
        });
        // Returning at all proves no worker panic escaped the epoch.
        let stats = Session::new(
            &mut net,
            SubstOptions::extended().with_checked(true).with_threads(4),
        )
        .run();
        let _ = disarm();
        net.check_invariants();
        assert!(
            networks_equivalent(&base, &net),
            "seed {seed}: worker faults corrupted the network"
        );
        assert_eq!(
            stats.engine_faults, stats.quarantined,
            "seed {seed}: every fault must quarantine its pair"
        );
        any_faults += stats.engine_faults;
    }
    assert!(
        any_faults > 0,
        "rate-2 entry panics never fired in any worker"
    );
}
