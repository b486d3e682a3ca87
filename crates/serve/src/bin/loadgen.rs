//! Load generator, journal auditor, and drain driver for the daemon.
//!
//! One binary, four verbs, so the CI serve job needs no helper scripts:
//!
//! ```text
//! loadgen --addr H:P --wait-ready 10                 # block until /healthz
//! loadgen --addr H:P --jobs 50 --concurrency 8 \
//!         [--chaos] [--scrape-metrics out.prom]      # drive load, measure
//! loadgen --addr H:P --shutdown                      # graceful drain
//! loadgen --audit jobs.jsonl --expect-jobs 50        # zero-loss audit
//! ```
//!
//! Payloads are deterministic seeded BLIF netlists generated in-process
//! (~40 nodes with shared support, enough for the optimizer to find
//! gain). With `--chaos`, every fifth job carries `X-Chaos: panic`; a
//! chaos-built daemon must quarantine exactly those and keep serving.

use boolsubst_serve::client::{Client, JobRequest};
use boolsubst_serve::journal;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    jobs: usize,
    concurrency: usize,
    nodes: usize,
    chaos: bool,
    tenant: String,
    deadline_ms: u64,
    scrape_metrics: Option<String>,
    wait_ready_secs: Option<u64>,
    shutdown: bool,
    audit_path: Option<String>,
    expect_jobs: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".to_string(),
        jobs: 20,
        concurrency: 4,
        nodes: 40,
        chaos: false,
        tenant: "loadgen".to_string(),
        deadline_ms: 10_000,
        scrape_metrics: None,
        wait_ready_secs: None,
        shutdown: false,
        audit_path: None,
        expect_jobs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--concurrency" => {
                args.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|e| format!("--concurrency: {e}"))?;
            }
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
            }
            "--chaos" => args.chaos = true,
            "--tenant" => args.tenant = value("--tenant")?,
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            "--scrape-metrics" => args.scrape_metrics = Some(value("--scrape-metrics")?),
            "--wait-ready" => {
                args.wait_ready_secs = Some(
                    value("--wait-ready")?
                        .parse()
                        .map_err(|e| format!("--wait-ready: {e}"))?,
                );
            }
            "--shutdown" => args.shutdown = true,
            "--audit" => args.audit_path = Some(value("--audit")?),
            "--expect-jobs" => {
                args.expect_jobs = Some(
                    value("--expect-jobs")?
                        .parse()
                        .map_err(|e| format!("--expect-jobs: {e}"))?,
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: loadgen [--addr H:P] [--jobs N] [--concurrency C] [--chaos] \
                     [--tenant T] [--deadline-ms MS] \
                     [--scrape-metrics F] [--wait-ready SECS] [--shutdown] \
                     [--audit JOURNAL --expect-jobs N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Seeded BLIF generator: `n` inputs, a cone of 2-input nodes whose
/// covers vary with the seed, a couple of redundant reconvergences for
/// the optimizer to chew on. Deterministic per seed.
fn gen_blif(seed: u64, nodes: usize) -> Vec<u8> {
    let mut x = seed | 1;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let inputs = 6;
    let mut out = String::from(".model loadgen\n.inputs");
    for i in 0..inputs {
        out.push_str(&format!(" i{i}"));
    }
    out.push_str("\n.outputs f g\n");
    let covers = [
        "11 1\n",       // and
        "1- 1\n-1 1\n", // or
        "10 1\n01 1\n", // xor
        "0- 1\n-0 1\n", // nand
        "11 1\n00 1\n", // xnor
    ];
    let mut names: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
    for k in 0..nodes {
        let a = &names[(rand() as usize) % names.len()];
        let b = &names[(rand() as usize) % names.len()];
        let node = format!("n{k}");
        let cover = covers[(rand() as usize) % covers.len()];
        if a == b {
            out.push_str(&format!(".names {a} {node}\n1 1\n"));
        } else {
            out.push_str(&format!(".names {a} {b} {node}\n{cover}"));
        }
        names.push(node);
    }
    let f = names[names.len() - 1].clone();
    let g = names[names.len() - 2].clone();
    out.push_str(&format!(".names {f} f\n1 1\n.names {g} g\n1 1\n.end\n"));
    out.into_bytes()
}

struct Tally {
    latencies_ms: Vec<u64>,
    done: usize,
    failed: usize,
    quarantined: usize,
    shed_retries: usize,
    errors: Vec<String>,
}

fn percentile(sorted_ms: &[u64], p: f64) -> u64 {
    if sorted_ms.is_empty() {
        return 0;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

fn drive_load(args: &Args) -> Result<(), String> {
    let tally = Arc::new(Mutex::new(Tally {
        latencies_ms: Vec::new(),
        done: 0,
        failed: 0,
        quarantined: 0,
        shed_retries: 0,
        errors: Vec::new(),
    }));
    let next_job = Arc::new(Mutex::new(0usize));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..args.concurrency.max(1))
        .map(|w| {
            let tally = Arc::clone(&tally);
            let next_job = Arc::clone(&next_job);
            let addr = args.addr.clone();
            let tenant = args.tenant.clone();
            let (jobs, chaos, deadline_ms) = (args.jobs, args.chaos, args.deadline_ms);
            let nodes = args.nodes;
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                loop {
                    let k = {
                        let mut n = next_job.lock().expect("next_job");
                        if *n >= jobs {
                            return;
                        }
                        *n += 1;
                        *n - 1
                    };
                    let mut req = JobRequest::new(gen_blif(
                        0xB001_5EED ^ (k as u64).wrapping_mul(0x9E37_79B9),
                        nodes,
                    ));
                    req.tenant = tenant.clone();
                    req.deadline_ms = Some(deadline_ms);
                    if chaos && k % 5 == 4 {
                        req.chaos = Some("panic".to_string());
                    }
                    let submit_t0 = Instant::now();
                    match client.submit(&req) {
                        Ok(id) => match client.wait(id, Duration::from_secs(120)) {
                            Ok(view) => {
                                let ms = u64::try_from(submit_t0.elapsed().as_millis())
                                    .unwrap_or(u64::MAX);
                                let mut t = tally.lock().expect("tally");
                                t.latencies_ms.push(ms);
                                match view.state.as_str() {
                                    "done" => t.done += 1,
                                    "failed" => t.failed += 1,
                                    "quarantined" => t.quarantined += 1,
                                    other => t.errors.push(format!("job {id}: state {other}")),
                                }
                            }
                            Err(e) => tally
                                .lock()
                                .expect("tally")
                                .errors
                                .push(format!("wait[{w}]: {e}")),
                        },
                        Err(e) => {
                            let mut t = tally.lock().expect("tally");
                            if e.contains("shed") {
                                t.shed_retries += 1;
                            }
                            t.errors.push(format!("submit[{w}]: {e}"));
                        }
                    }
                }
            })
        })
        .collect();
    for t in workers {
        let _ = t.join();
    }
    let wall = t0.elapsed();

    let client = Client::new(args.addr.clone());
    let shed_429 = client
        .metrics_text()
        .ok()
        .and_then(|text| prom_counter(&text, "serve_shed_queue_full"))
        .unwrap_or(0)
        + client
            .metrics_text()
            .ok()
            .and_then(|text| prom_counter(&text, "serve_shed_tenant_cap"))
            .unwrap_or(0);

    let mut t = tally.lock().expect("tally");
    t.latencies_ms.sort_unstable();
    let p50 = percentile(&t.latencies_ms, 0.50);
    let p99 = percentile(&t.latencies_ms, 0.99);
    let finished = t.done + t.failed + t.quarantined;
    let throughput = finished as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "loadgen: {} jobs ({} done, {} failed, {} quarantined) in {:.2}s \
         ({throughput:.1} jobs/s) p50 {p50}ms p99 {p99}ms shed(429) {shed_429}",
        args.jobs,
        t.done,
        t.failed,
        t.quarantined,
        wall.as_secs_f64()
    );
    for e in &t.errors {
        eprintln!("loadgen: error: {e}");
    }

    if let Some(path) = &args.scrape_metrics {
        let text = client.metrics_text()?;
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("loadgen: metrics scraped to {path}");
    }

    let lost = args.jobs - finished;
    if lost > 0 {
        return Err(format!("{lost} jobs never reached a terminal state"));
    }
    Ok(())
}

/// Reads a Prometheus counter sample value from exposition text.
fn prom_counter(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find(|line| !line.starts_with('#') && line.split_whitespace().next() == Some(name))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
}

fn run_audit(path: &str, expect_jobs: Option<usize>) -> Result<(), String> {
    let report = journal::audit(path).map_err(|e| format!("read {path}: {e}"))?;
    println!(
        "audit: {} accepted, terminal {:?}, {} rejected(http), {} torn lines, {} lost",
        report.accepted,
        report.terminal,
        report.rejected,
        report.torn_lines,
        report.lost.len()
    );
    if !report.lost.is_empty() {
        return Err(format!(
            "lost jobs (accepted, never terminal): {:?}",
            report.lost
        ));
    }
    if let Some(expected) = expect_jobs {
        if report.accepted < expected {
            return Err(format!(
                "expected >= {expected} accepted jobs, journal has {}",
                report.accepted
            ));
        }
    }
    println!("audit: OK — zero lost jobs");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.audit_path {
        if let Err(e) = run_audit(path, args.expect_jobs) {
            eprintln!("loadgen: audit FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(secs) = args.wait_ready_secs {
        let client = Client::new(args.addr.clone());
        let deadline = Instant::now() + Duration::from_secs(secs);
        loop {
            if client.healthz().unwrap_or(false) {
                println!("loadgen: {} is ready", args.addr);
                break;
            }
            if Instant::now() >= deadline {
                eprintln!("loadgen: {} not ready within {secs}s", args.addr);
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        if !args.shutdown {
            return; // --wait-ready is its own verb; load is a second call
        }
    }
    if args.shutdown {
        let client = Client::new(args.addr.clone());
        match client.shutdown() {
            Ok(()) => println!("loadgen: drain requested"),
            Err(e) => {
                eprintln!("loadgen: shutdown: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Err(e) = drive_load(&args) {
        eprintln!("loadgen: FAILED: {e}");
        std::process::exit(1);
    }
}
