//! Deadline expiry on the 100k-node corpus: a sweep whose wall-clock
//! budget runs out mid-flight must still return a *valid* partial
//! result — parseable, functionally equal to the input on random
//! vectors, every accepted rewrite guard-checked — at both 1 and 4
//! worker threads. This is the service daemon's per-job deadline story
//! exercised directly at the `Session` layer.

use boolsubst::core::{Session, SubstOptions};
use boolsubst::network::{ingest, write_blif, Format, Network};
use boolsubst::workloads::large::{large_network, Family};
use std::time::{Duration, Instant};

/// xorshift64* — deterministic input vectors without an RNG dependency.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Asserts `a` and `b` agree on `vectors` random input assignments.
fn assert_sim_equal(a: &Network, b: &Network, vectors: usize, seed: u64) {
    let n = a.inputs().len();
    assert_eq!(n, b.inputs().len(), "input interface changed");
    let mut state = seed | 1;
    for v in 0..vectors {
        let ins: Vec<bool> = (0..n).map(|_| next(&mut state) & 1 == 1).collect();
        assert_eq!(
            a.eval_outputs(&ins),
            b.eval_outputs(&ins),
            "outputs diverge on random vector {v}"
        );
    }
}

fn run_deadline_sweep(threads: usize) {
    let golden = large_network(Family::Controller, 100_000, 9);
    let mut net = golden.clone();
    let opts = SubstOptions::extended()
        .with_checked(true)
        .with_threads(threads)
        .with_deadline(Instant::now() + Duration::from_millis(400));
    let stats = Session::new(&mut net, opts).run();

    // 400 ms cannot finish a checked sweep over 100k nodes; the run
    // must report the interruption rather than pretending completion.
    assert!(
        stats.interrupted,
        "threads={threads}: 100k-node sweep claims completion within 400ms"
    );
    // The partial result is a valid netlist: it round-trips through
    // BLIF and still computes the input functions.
    let bytes = write_blif(&net);
    let back = ingest(bytes.as_bytes(), Format::Blif, "partial").expect("partial result parses");
    assert_sim_equal(&golden, &net, 32, 0xDEAD_117E ^ threads as u64);
    assert_sim_equal(&net, &back, 8, 0x0DD5 ^ threads as u64);
}

#[test]
fn expired_deadline_still_returns_valid_partial_result_single_thread() {
    run_deadline_sweep(1);
}

#[test]
fn expired_deadline_still_returns_valid_partial_result_four_threads() {
    run_deadline_sweep(4);
}

#[test]
fn already_expired_deadline_rewrites_nothing_and_returns_promptly() {
    let golden = large_network(Family::Controller, 100_000, 9);
    let mut net = golden.clone();
    let opts = SubstOptions::extended()
        .with_checked(true)
        .with_deadline(Instant::now());
    let t0 = Instant::now();
    let stats = Session::new(&mut net, opts).run();
    assert!(stats.interrupted);
    // `substitutions` counts every accepted rewrite, POS ones included.
    assert_eq!(
        stats.substitutions, 0,
        "a dead-on-arrival deadline must not start rewriting"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "expired deadline must return promptly"
    );
    assert_sim_equal(&golden, &net, 8, 0xF00D);
}
