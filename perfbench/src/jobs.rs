//! One job from input bytes to output bytes, and the independent check
//! of its output.

use crate::inputs::Job;
use crate::oracle::prove;
use crate::spans::Recorder;
use boolsubst_aig::{parse_aiger, write_aiger_binary};
use boolsubst_algebraic::network_factored_literals;
use boolsubst_core::{Session, SubstStats};
use boolsubst_network::{
    aig_from_network, ingest, network_from_aig, parse_blif, write_blif, BridgeOptions, Format,
    Network,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What one execution of a job produced.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Input bytes to output bytes, seconds.
    pub wall_s: f64,
    pub output: Vec<u8>,
    pub stats: SubstStats,
    /// Wall time of `Session::run` alone, seconds.
    pub sweep_s: f64,
    pub nodes_in: usize,
    pub nodes_out: usize,
    /// Factored literals of the optimized network.
    pub literals: usize,
}

/// FNV-1a over `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn ingest_traced(
    bytes: &[u8],
    format: Format,
    model: &str,
    rec: &mut Recorder,
    id: u64,
) -> Result<Network, String> {
    match format {
        Format::Blif => rec.span("network.blif_parse", id, |_| {
            let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
            parse_blif(text).map_err(|e| e.to_string())
        }),
        Format::AigerAscii | Format::AigerBinary => {
            let aig = rec.span("aig.parse", id, |_| {
                parse_aiger(bytes).map_err(|e| e.to_string())
            })?;
            rec.span("network.bridge_in", id, |_| {
                network_from_aig(&aig, model, BridgeOptions::default()).map_err(|e| e.to_string())
            })
        }
    }
}

fn egress_traced(net: &Network, format: Format, rec: &mut Recorder, id: u64) -> Vec<u8> {
    match format {
        Format::Blif => rec.span("network.blif_write", id, |_| write_blif(net).into_bytes()),
        Format::AigerAscii | Format::AigerBinary => {
            let aig = rec.span("network.bridge_out", id, |_| aig_from_network(net));
            rec.span("aig.write", id, |_| write_aiger_binary(&aig))
        }
    }
}

/// Runs `job` with `threads` sweep threads (and `checked` overriding the
/// job's own setting when given). The timed region is ingest → sweep →
/// egress; the literal count is taken after it. A panic is a failure.
pub fn run_job(
    job: &Job,
    threads: usize,
    checked: Option<bool>,
    rec: &mut Recorder,
    id: u64,
) -> Result<JobRun, String> {
    let mut opts = job.opts.clone().with_threads(threads);
    if let Some(checked) = checked {
        opts = opts.with_checked(checked);
    }
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        rec.span("job", id, |rec| {
            let t0 = Instant::now();
            let mut net = ingest_traced(&job.input, job.format, &job.label, rec, id)?;
            let nodes_in = net.internal_ids().count();
            let t1 = Instant::now();
            let stats = rec.span("core.sweep", id, |_| Session::new(&mut net, opts).run());
            let sweep_s = t1.elapsed().as_secs_f64();
            let output = egress_traced(&net, job.format, rec, id);
            let wall_s = t0.elapsed().as_secs_f64();
            Ok(JobRun {
                wall_s,
                output,
                stats,
                sweep_s,
                nodes_in,
                nodes_out: net.internal_ids().count(),
                literals: network_factored_literals(&net),
            })
        })
    }));
    match attempt {
        Ok(result) => result,
        Err(_) => {
            rec.reset_stack();
            Err(format!("{}: panicked", job.label))
        }
    }
}

/// Problems a finished job's own statistics reveal: an interrupted
/// sweep and, when `guarded` (a checked workload's own sweep), a sampled
/// (unproved) guard pass or a guard rejection.
pub fn stats_faults(label: &str, stats: &SubstStats, guarded: bool) -> Option<String> {
    if stats.interrupted {
        Some(format!("{label}: sweep interrupted"))
    } else if guarded && stats.guard_pass_sampled > 0 {
        Some(format!(
            "{label}: {} sampled guard pass(es)",
            stats.guard_pass_sampled
        ))
    } else if guarded && stats.guard_rejections > 0 {
        Some(format!(
            "{label}: {} guard rejection(s)",
            stats.guard_rejections
        ))
    } else {
        None
    }
}

/// Re-ingests the output from its bytes and proves it equal to the
/// input (see [`crate::oracle::prove`]). Returns the SAT conflicts spent.
pub fn check_output(
    job: &Job,
    output: &[u8],
    both: bool,
    rec: &mut Recorder,
    id: u64,
) -> Result<u64, String> {
    let input = ingest(&job.input, job.format, &job.label)
        .map_err(|e| format!("{}: input: {e}", job.label))?;
    let out = ingest(output, job.format, &job.label)
        .map_err(|e| format!("{}: output does not re-ingest: {e}", job.label))?;
    prove(&input, &out, both, rec, id).map_err(|e| format!("{}: {e}", job.label))
}
