//! `perfbench`: the one command `BENCHMARK.json` describes.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! Builds the workload's inputs from the seed (set-up, timed several
//! times), runs its jobs for `--seconds` with tracing off, checks every
//! output outside the timed region, and prints one JSON line with the
//! end-to-end metrics. `--trace 1` makes the same run, then a traced run
//! and the per-layer experiments, and prints the per-layer metrics
//! instead. Spans go to `.perfbench/spans-<workload>-s<seed>.jsonl`.
//! The exit code is non-zero when any job failed or any check did.

mod inputs;
mod jobs;
mod oracle;
mod replay;
mod serve;
mod spans;

use boolsubst_core::SubstStats;
use boolsubst_guard::{Guard, GuardConfig};
use boolsubst_network::{ingest, Network};
use inputs::{Inputs, Job, Size, Workload};
use jobs::{check_output, run_job, stats_faults, JobRun};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions before the measured run; one more follows each
/// measured pass or round, and `setup_s` is the fastest of them all.
const SETUP_REPS: usize = 5;
/// Sweep threads of the traced run's parallel-sweep comparison.
const PARALLEL_THREADS: usize = 2;
/// Fewest measured passes over a job list; `job_s` sums each job's
/// fastest pass.
const MIN_PASSES: usize = 3;
/// Division replay sample size.
const REPLAY_PAIRS: usize = 256;
/// Where spans and the daemon's journal go, relative to the checkout.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size takes full or smoke, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
    })
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Interquartile mean: the mean of the middle half of the sorted
/// values (the median of three, the mean of two). Robust to a slow or
/// fast outlier like a median, but continuous where samples cluster on
/// a few values, as latencies behind a polling loop do.
fn iqm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let trim = ((n + 2) / 4).min((n - 1) / 2);
    let middle = &v[trim..n - trim];
    sum(middle.iter().copied()) / middle.len() as f64
}

/// Each job's interquartile-mean time over its runs, times `scale`.
fn per_job(values: &[Vec<f64>], scale: f64) -> Vec<f64> {
    values
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| iqm(v) * scale)
        .collect()
}

/// Each job's fastest run, times `scale`. A job's work is deterministic
/// and the shared host only ever adds time to it, in bursts of a few
/// seconds that can slow a single pass by half; the fastest of a job's
/// passes is the one such a burst missed. Over 20 s windows of one
/// 150 s paper-suite run on a 2-CPU VM, the sum of these minimums moved
/// by 4 % and the sum of the medians by 12 % (interquartile range over
/// median).
fn per_job_best(values: &[Vec<f64>], scale: f64) -> Vec<f64> {
    values
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| percentile(v, 0.0) * scale)
        .collect()
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear interpolation between order statistics.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn sum(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process so far, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything a run learned: failures, counts, and the metrics to print.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failures: Vec<String>,
    metrics: Metrics,
}

/// Passes over a job list: every job's wall time in every pass, and
/// the first pass's runs.
struct Measured {
    /// `walls[k]`: job `k`'s wall seconds, one entry per completed run.
    walls: Vec<Vec<f64>>,
    passes: usize,
    attempted: usize,
    /// The first pass's run of each job (`None` where it failed).
    first: Vec<Option<JobRun>>,
}

impl Measured {
    /// Seconds for one pass: the sum over jobs of each job's fastest run.
    fn job_s(&self) -> f64 {
        sum(per_job_best(&self.walls, 1.0))
    }
}

/// Runs whole passes over `jobs`, at least `min_passes` and until
/// `seconds` have gone. A job that errors, panics, trips its own stats,
/// or whose output bytes differ from the first pass's is a failure.
fn measure(
    jobs: &[Job],
    threads: usize,
    checked: Option<bool>,
    (min_passes, seconds): (usize, f64),
    mut setup: Option<&mut Setup>,
    rec: &mut Recorder,
    failures: &mut Vec<String>,
) -> Measured {
    let mut m = Measured {
        walls: vec![Vec::new(); jobs.len()],
        passes: 0,
        attempted: 0,
        first: Vec::new(),
    };
    let start = Instant::now();
    for pass in 0u64.. {
        for (k, job) in jobs.iter().enumerate() {
            m.attempted += 1;
            match run_job(job, threads, checked, rec, pass * 100_000 + k as u64) {
                Ok(run) => {
                    m.walls[k].push(run.wall_s);
                    let guarded = job.opts.checked && checked.is_none();
                    if let Some(fault) = stats_faults(&job.label, &run.stats, guarded) {
                        failures.push(fault);
                    }
                    if pass == 0 {
                        eprintln!(
                            "perfbench:   {:<28} {:>10.3} ms (sweep {:.3} ms, {} -> {} nodes)",
                            job.label,
                            run.wall_s * 1e3,
                            run.sweep_s * 1e3,
                            run.nodes_in,
                            run.nodes_out
                        );
                        m.first.push(Some(run));
                    } else if m.first[k].as_ref().map(|r| &r.output) != Some(&run.output) {
                        failures.push(format!("{}: output differs between passes", job.label));
                    }
                }
                Err(e) => {
                    failures.push(e);
                    if pass == 0 {
                        m.first.push(None);
                    }
                }
            }
        }
        m.passes += 1;
        if let Some(Err(e)) = setup.as_deref_mut().map(Setup::again) {
            failures.push(e);
        }
        if m.passes >= min_passes && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if m.passes > 1 {
        for (job, walls) in jobs.iter().zip(&m.walls) {
            let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
            eprintln!(
                "perfbench:   {:<28} {} pass(es): min {:.3} median {:.3} max {:.3} ms",
                job.label,
                ms.len(),
                percentile(&ms, 0.0),
                median(&ms),
                percentile(&ms, 1.0)
            );
        }
    }
    m
}

/// One timed set-up: the inputs from the seed and, for serve-closed, a
/// listening daemon, with the seconds that took.
fn setup_once(
    args: &Args,
    rec: &mut Recorder,
    rep: usize,
) -> Result<(Inputs, Option<serve::Daemon>, f64), String> {
    let t0 = Instant::now();
    let inputs = inputs::build(args.workload, args.seed, args.size, rec);
    let daemon = if args.workload == Workload::ServeClosed {
        let journal =
            Path::new(OUT_DIR).join(format!("journal-{}-{rep}.jsonl", std::process::id()));
        Some(serve::Daemon::start(&journal)?)
    } else {
        None
    };
    let secs = t0.elapsed().as_secs_f64();
    // The first answer waits for the accept loop's 10 ms poll, which
    // would make a start-until-healthy time bimodal: the clock stops
    // once the daemon listens, and health is checked after.
    if let Some(daemon) = &daemon {
        daemon.wait_healthy()?;
    }
    Ok((inputs, daemon, secs))
}

/// Set-up times, taken before the measured run and again after each of
/// its passes, so that they spread over the run as the jobs' passes do.
struct Setup<'a> {
    args: &'a Args,
    times: Vec<f64>,
}

impl Setup<'_> {
    /// Sets up once more, untraced, and throws the result away.
    fn again(&mut self) -> Result<(), String> {
        let (_, daemon, secs) = setup_once(self.args, &mut Recorder::new(false), self.times.len())?;
        self.times.push(secs);
        daemon.map_or(Ok(()), serve::Daemon::stop)
    }

    /// The fastest set-up: as with a job's passes, the one the host's
    /// bursts missed.
    fn best(&self) -> f64 {
        percentile(&self.times, 0.0)
    }
}

/// Set-up, repeated [`SETUP_REPS`] times. Returns the last repetition's
/// inputs (and daemon), traced when the run is.
fn setup<'a>(
    args: &'a Args,
    rec: &mut Recorder,
) -> Result<(Inputs, Option<serve::Daemon>, Setup<'a>), String> {
    let mut setup = Setup {
        args,
        times: Vec::new(),
    };
    for _ in 1..SETUP_REPS {
        setup.again()?;
    }
    rec.set_enabled(args.trace);
    let (inputs, daemon, secs) = setup_once(args, rec, setup.times.len())?;
    rec.set_enabled(false);
    setup.times.push(secs);
    Ok((inputs, daemon, setup))
}

fn end_to_end(
    m: &mut Metrics,
    setup_s: f64,
    job_s: f64,
    latencies_ms: &[f64],
    jobs_per_s: f64,
    literals: usize,
    rss: f64,
) {
    m.put("setup_s", setup_s, "s");
    m.put("job_s", job_s, "s");
    m.put("job_p50_ms", percentile(latencies_ms, 0.5), "ms");
    m.put("job_p90_ms", percentile(latencies_ms, 0.9), "ms");
    m.put("jobs_per_s", jobs_per_s, "1/s");
    m.put("literals_out", literals as f64, "literals");
    m.put("peak_rss_mb", rss, "MiB");
}

/// Proves every first-pass output equal to its input.
fn check_all(
    jobs: &[Job],
    outputs: &[Option<&[u8]>],
    both: bool,
    rec: &mut Recorder,
    failures: &mut Vec<String>,
) -> u64 {
    let mut conflicts = 0;
    for (k, (job, out)) in jobs.iter().zip(outputs).enumerate() {
        let Some(out) = out else { continue };
        match check_output(job, out, both, rec, k as u64) {
            Ok(c) => conflicts += c,
            Err(e) => failures.push(e),
        }
    }
    conflicts
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let connections = if args.workload == Workload::ServeClosed {
        serve::CONNECTIONS
    } else {
        0
    };
    eprintln!(
        "perfbench: {} seed {} size {:?}: 1 sweep thread ({PARALLEL_THREADS} in the traced comparison), {connections} connection(s), host_cpus {nproc}",
        args.workload.name(),
        args.seed,
        args.size,
    );
    if nproc < PARALLEL_THREADS.max(connections) {
        eprintln!("perfbench: warning: more threads or connections than the {nproc} CPU(s)");
    }
    let mut rec = Recorder::new(false);
    let (inputs, daemon, mut setup) = setup(args, &mut rec)?;
    let gen_s = rec.total_s("workloads.gen");
    eprintln!(
        "perfbench: {} job(s), {} input bytes (digest {:016x}), {} AIG gates, set-up {:.3} s",
        inputs.jobs.len(),
        inputs.jobs.iter().map(|j| j.input.len()).sum::<usize>(),
        inputs
            .jobs
            .iter()
            .fold(0, |h: u64, j| h.rotate_left(5) ^ jobs::digest(&j.input)),
        inputs.aig_gates,
        setup.best(),
    );
    let mut out = match daemon {
        Some(daemon) => run_serve(args, &inputs, daemon, &mut setup, &mut rec)?,
        None => run_jobs(args, &inputs, &mut setup, &mut rec),
    };
    if args.trace {
        out.metrics.put("workloads.gen_s", gen_s, "s");
        let path = PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-s{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        rec.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} span(s) written to {}",
            rec.len(),
            path.display()
        );
    }
    Ok(out)
}

fn run_jobs(args: &Args, inputs: &Inputs, setup: &mut Setup, rec: &mut Recorder) -> Outcome {
    let jobs = &inputs.jobs;
    let mut out = Outcome::default();
    let passes = (if args.trace { 1 } else { MIN_PASSES }, args.seconds);
    let main = measure(jobs, 1, None, passes, Some(setup), rec, &mut out.failures);
    let rss = peak_rss_mb();
    out.attempted = main.attempted;
    rec.set_enabled(args.trace);
    let conflicts = check_all(
        jobs,
        &main
            .first
            .iter()
            .map(|r| r.as_ref().map(|r| r.output.as_slice()))
            .collect::<Vec<_>>(),
        args.trace,
        rec,
        &mut out.failures,
    );
    if !args.trace {
        let literals = main.first.iter().flatten().map(|r| r.literals).sum();
        let job_s = main.job_s();
        end_to_end(
            &mut out.metrics,
            setup.best(),
            job_s,
            &per_job_best(&main.walls, 1e3),
            ratio(jobs.len() as f64, job_s),
            literals,
            rss,
        );
        return out;
    }
    let traced = measure(jobs, 1, None, passes, None, rec, &mut out.failures);
    rec.set_enabled(false);
    out.attempted += traced.attempted;
    let overhead = traced.job_s() - main.job_s();
    serve_layers(&mut out.metrics, None, 0);
    layer_metrics(args, jobs, &traced, conflicts, rec, &mut out);
    out.metrics.put("trace.overhead_s", overhead, "s");
    out
}

fn run_serve(
    args: &Args,
    inputs: &Inputs,
    daemon: serve::Daemon,
    setup: &mut Setup,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let jobs = &inputs.jobs;
    let mut out = Outcome::default();
    let rounds = serve_rounds(
        &daemon,
        jobs,
        (args.seed, args.seconds),
        Some(setup),
        rec,
        &mut out,
    );
    let rss = peak_rss_mb();
    let traced = if args.trace {
        rec.set_enabled(true);
        let traced = serve_rounds(
            &daemon,
            jobs,
            (args.seed, args.seconds),
            None,
            rec,
            &mut out,
        );
        rec.set_enabled(false);
        Some(traced)
    } else {
        None
    };
    daemon.stop()?;
    rec.set_enabled(args.trace);
    let outputs: Vec<Option<&[u8]>> = rounds.first.iter().map(|o| o.as_deref()).collect();
    let conflicts = check_all(jobs, &outputs, args.trace, rec, &mut out.failures);
    rec.set_enabled(false);
    let Some(traced) = traced else {
        let literals = outputs
            .iter()
            .zip(jobs)
            .filter_map(|(o, job)| ingest(o.as_ref()?, job.format, &job.label).ok())
            .map(|net| boolsubst_algebraic::network_factored_literals(&net))
            .sum();
        let job_s = iqm(&rounds.round_s);
        end_to_end(
            &mut out.metrics,
            setup.best(),
            job_s,
            &per_job(&rounds.latencies_ms, 1.0),
            ratio(jobs.len() as f64, job_s),
            literals,
            rss,
        );
        return Ok(out);
    };
    serve_layers(&mut out.metrics, Some(&traced), rounds.shed + traced.shed);
    let overhead = iqm(&traced.round_s) - iqm(&rounds.round_s);
    // The daemon's internals are out of the benchmark's reach: replay
    // the same jobs in process, as its worker runs them, for the layers.
    rec.set_enabled(true);
    let replayed = measure(jobs, 1, None, (1, 0.0), None, rec, &mut out.failures);
    rec.set_enabled(false);
    out.attempted += replayed.attempted;
    layer_metrics(args, jobs, &replayed, conflicts, rec, &mut out);
    out.metrics.put("trace.overhead_s", overhead, "s");
    Ok(out)
}

/// The serve layer's metrics, from the traced rounds; zero on the
/// workloads that never reach the daemon.
fn serve_layers(m: &mut Metrics, traced: Option<&Rounds>, shed: usize) {
    let idle = Rounds::default();
    let r = traced.unwrap_or(&idle);
    for (p50, p90, values) in [
        ("serve.submit_ms_p50", "serve.submit_ms_p90", &r.submit_ms),
        ("serve.queue_ms_p50", "serve.queue_ms_p90", &r.queue_ms),
        ("serve.exec_ms_p50", "serve.exec_ms_p90", &r.exec_ms),
        ("serve.fetch_ms_p50", "serve.fetch_ms_p90", &r.fetch_ms),
    ] {
        m.put(p50, percentile(values, 0.5), "ms");
        m.put(p90, percentile(values, 0.9), "ms");
    }
    m.put("serve.shed", shed as f64, "count");
}

/// Timings and first outputs of the serve rounds.
#[derive(Default)]
struct Rounds {
    round_s: Vec<f64>,
    /// `latencies_ms[k]`: job `k`'s latency in each round it completed.
    latencies_ms: Vec<Vec<f64>>,
    submit_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    shed: usize,
    /// First round's output per job.
    first: Vec<Option<Vec<u8>>>,
}

/// Serve rounds until `seconds` have gone, setting up again after each
/// when `setup` is given. Each round hands the jobs out in a fresh
/// seeded order, so every job meets a range of queueing neighbours.
fn serve_rounds(
    daemon: &serve::Daemon,
    jobs: &[Job],
    (seed, seconds): (u64, f64),
    mut setup: Option<&mut Setup>,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Rounds {
    let mut r = Rounds {
        latencies_ms: vec![Vec::new(); jobs.len()],
        ..Rounds::default()
    };
    let start = Instant::now();
    for round in 0u64.. {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        inputs::shuffle(&mut order, seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (wall_s, trips) = daemon.round(jobs, &order, rec, round * 100_000);
        r.round_s.push(wall_s);
        for (k, (trip, job)) in trips.into_iter().zip(jobs).enumerate() {
            out.attempted += 1;
            r.shed += trip.shed;
            match trip.output {
                Ok(bytes) => {
                    r.latencies_ms[k].push(trip.latency_ms);
                    r.submit_ms.push(trip.submit_ms);
                    r.queue_ms.push(trip.queue_ms);
                    r.exec_ms.push(trip.exec_ms);
                    r.fetch_ms.push(trip.fetch_ms);
                    if round == 0 {
                        r.first.push(Some(bytes));
                    } else if r.first[k].as_deref() != Some(bytes.as_slice()) {
                        out.failures
                            .push(format!("{}: output differs between rounds", job.label));
                    }
                }
                Err(e) => {
                    out.failures.push(e);
                    if round == 0 {
                        r.first.push(None);
                    }
                }
            }
        }
        if let Some(Err(e)) = setup.as_deref_mut().map(Setup::again) {
            out.failures.push(e);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    r
}

fn stats_sum(runs: &[Option<JobRun>]) -> SubstStats {
    let mut total = SubstStats::default();
    for r in runs.iter().flatten() {
        total.merge(&r.stats);
    }
    total
}

fn sweep_sum(runs: &[Option<JobRun>]) -> f64 {
    sum(runs.iter().flatten().map(|r| r.sweep_s))
}

/// One pass with recording off; failures are recorded.
fn side_pass(
    jobs: &[Job],
    threads: usize,
    checked: Option<bool>,
    rec: &mut Recorder,
    failures: &mut Vec<String>,
) -> Vec<Option<JobRun>> {
    let enabled = rec.enabled();
    rec.set_enabled(false);
    let m = measure(jobs, threads, checked, (1, 0.0), None, rec, failures);
    rec.set_enabled(enabled);
    m.first
}

/// The per-layer metrics: I/O spans of the traced passes, the sweep's
/// own stage timers (from a 1-thread pass, where they partition the
/// sweep), the 1- vs 2-thread comparison, the guard experiments, the
/// oracles, and the division replay.
fn layer_metrics(
    args: &Args,
    jobs: &[Job],
    traced: &Measured,
    sat_conflicts: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let passes = traced.passes.max(1) as f64;
    let m = &mut out.metrics;
    for (name, span) in [
        ("aig.parse_s", "aig.parse"),
        ("aig.write_s", "aig.write"),
        ("network.bridge_in_s", "network.bridge_in"),
        ("network.bridge_out_s", "network.bridge_out"),
        ("network.blif_parse_s", "network.blif_parse"),
        ("network.blif_write_s", "network.blif_write"),
    ] {
        m.put(name, rec.total_s(span) / passes, "s");
    }
    m.put(
        "network.nodes_in",
        traced
            .first
            .iter()
            .flatten()
            .map(|r| r.nodes_in as f64)
            .sum(),
        "count",
    );
    m.put(
        "network.nodes_out",
        traced
            .first
            .iter()
            .flatten()
            .map(|r| r.nodes_out as f64)
            .sum(),
        "count",
    );

    // The parallel sweep on the same inputs; outputs must not change.
    let parallel = side_pass(jobs, PARALLEL_THREADS, None, rec, &mut out.failures);
    out.attempted += jobs.len();
    for ((a, b), job) in parallel.iter().zip(&traced.first).zip(jobs) {
        if let (Some(a), Some(b)) = (a, b) {
            if a.output != b.output {
                out.failures
                    .push(format!("{}: 1- and 2-thread outputs differ", job.label));
            }
        }
    }
    let one = &traced.first;
    let s = stats_sum(one);
    let secs = |ns: u64| ns as f64 / 1e9;
    let sweep_s = sweep_sum(one);
    let stages =
        secs(s.enumerate_nanos) + secs(s.filter_nanos) + secs(s.divide_nanos) + secs(s.apply_nanos);
    let m = &mut out.metrics;
    m.put("core.sweep_s", sweep_s, "s");
    m.put("core.enumerate_s", secs(s.enumerate_nanos), "s");
    m.put("core.filter_s", secs(s.filter_nanos), "s");
    m.put("core.divide_s", secs(s.divide_nanos), "s");
    m.put("core.apply_s", secs(s.apply_nanos), "s");
    m.put("core.unattributed_s", sweep_s - stages, "s");
    m.put("core.sim_s", secs(s.sim_nanos), "s");
    m.put("core.literal_gain", s.literal_gain as f64, "literals");
    m.put("core.pairs", s.candidates_enumerated as f64, "count");
    m.put("core.proposed", s.discovery_proposed as f64, "count");
    m.put("core.proofs", s.discovery_proofs_run as f64, "count");
    m.put("core.accepts", s.discovery_accepted as f64, "count");
    m.put(
        "core.accept_ratio",
        ratio(s.discovery_accepted as f64, s.discovery_proofs_run as f64),
        "ratio",
    );
    m.put("core.rar_checks", s.rar_checks as f64, "count");
    let shadow = (s.shadow_cache_hits + s.shadow_cache_misses) as f64;
    m.put(
        "core.shadow_hit_ratio",
        ratio(s.shadow_cache_hits as f64, shadow),
        "ratio",
    );
    m.put(
        "core.parallel_speedup",
        ratio(sweep_s, sweep_sum(&parallel)),
        "ratio",
    );
    m.put("sim.screened", s.sim_pairs_screened as f64, "count");
    m.put("sim.refuted", s.sim_pairs_refuted as f64, "count");
    m.put("sim.false_passes", s.sim_false_passes as f64, "count");
    m.put(
        "sim.refute_ratio",
        ratio(s.sim_pairs_refuted as f64, s.sim_pairs_screened as f64),
        "ratio",
    );

    // Guard share: the same inputs swept checked and unchecked. Skipped
    // on mixed-1000, where a checked sweep of the multiplier alone
    // outlasts the run.
    let (share, guarded) = if args.workload == Workload::Mixed {
        (0.0, SubstStats::default())
    } else {
        let checked = args.workload.checked();
        let flipped = side_pass(jobs, 1, Some(!checked), rec, &mut out.failures);
        out.attempted += jobs.len();
        let (checked_runs, unchecked_runs) = if checked {
            (one, &flipped)
        } else {
            (&flipped, one)
        };
        let (c, u) = (sweep_sum(checked_runs), sweep_sum(unchecked_runs));
        (1.0 - ratio(u, c), stats_sum(checked_runs))
    };
    let m = &mut out.metrics;
    m.put("guard.share", share, "ratio");
    m.put(
        "guard.pass_sampled",
        guarded.guard_pass_sampled as f64,
        "count",
    );
    m.put("guard.rejections", guarded.guard_rejections as f64, "count");
    m.put("guard.sat_runs", guarded.guard_sat_runs as f64, "count");

    // `Guard::check` on each input against its output, and the oracles.
    let mut guard = Guard::new(GuardConfig::default());
    let mut sampled = 0usize;
    let mut nets: Vec<Network> = Vec::new();
    for (k, (job, run)) in jobs.iter().zip(&traced.first).enumerate() {
        let Some(run) = run else { continue };
        let (Ok(input), Ok(output)) = (
            ingest(&job.input, job.format, &job.label),
            ingest(&run.output, job.format, &job.label),
        ) else {
            continue;
        };
        rec.set_enabled(true);
        let checked = oracle::guard_checks(&mut guard, &input, &output, rec, k as u64);
        rec.set_enabled(false);
        match checked {
            Ok((true, unproved)) => sampled += unproved,
            Ok((false, _)) => out
                .failures
                .push(format!("{}: Guard::check refutes the output", job.label)),
            Err(e) => out.failures.push(format!("{}: {e}", job.label)),
        }
        nets.push(input);
    }
    let m = &mut out.metrics;
    m.put("guard.check_s", rec.total_s("guard.check"), "s");
    m.put("guard.check_unproved", sampled as f64, "count");
    m.put("bdd.verify_s", rec.total_s("bdd.verify"), "s");
    m.put("sat.verify_s", rec.total_s("sat.verify"), "s");
    m.put("sat.conflicts", sat_conflicts as f64, "count");

    let r = replay::replay(&nets, args.seed, REPLAY_PAIRS);
    m.put("division.basic_us", r.basic_us, "us");
    m.put("division.extended_us", r.extended_us, "us");
    m.put("division.checks_per_call", r.checks_per_call, "count");
    m.put("division.success_ratio", r.success_ratio, "ratio");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failures.len(),
        out.metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
