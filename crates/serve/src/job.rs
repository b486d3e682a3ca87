//! Job model: what one optimization request is, and every state it can
//! be in.
//!
//! The state machine is append-only and crash-oriented:
//!
//! ```text
//! accepted ─→ started ─→ done
//!    │           ├────→ failed        (typed error: bad netlist, ...)
//!    │           ├────→ quarantined   (worker panic caught)
//!    │           └────→ (crash) ─ replay ─→ requeued │ poisoned
//!    └──────→ (crash) ─ replay ─→ requeued
//! ```
//!
//! A job that was `started` when the daemon died is re-queued exactly
//! once: a second crash under the same job marks it `poisoned` instead
//! of retrying forever (the job itself is the prime suspect).

use boolsubst_core::{SubstMode, SubstStats};
use boolsubst_network::Format;

/// How many times a job may be observed `started` without a terminal
/// event before replay poisons it instead of re-queueing.
pub const MAX_STARTS: u32 = 2;

/// One accepted optimization request, exactly as journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Server-assigned id, unique for the journal's lifetime.
    pub id: u64,
    /// Admission-control bucket (`X-Tenant` header; `"default"`).
    pub tenant: String,
    /// Netlist format of both the request body and the result.
    pub format: Format,
    /// Which of the paper's configurations to run.
    pub mode: SubstMode,
    /// Per-job wall-clock deadline, milliseconds from job start. The
    /// sweep returns a valid partial result when it expires, and the
    /// guard's tier C budget is derived from the remaining time.
    pub deadline_ms: Option<u64>,
    /// Tier C SAT conflict budget (0 disables the SAT tier).
    pub sat_conflicts: u64,
    /// RAR fault-check budget per division (0 = unlimited).
    pub rar_checks: usize,
    /// Chaos directive from the `X-Chaos` header. Honoured only when the
    /// `chaos` feature is compiled in; always journaled for attribution.
    pub chaos: Option<String>,
    /// The netlist bytes to optimize.
    pub payload: Vec<u8>,
}

/// Result summary of a completed job (the optimized netlist itself stays
/// in memory — the journal records the outcome, not the artifact).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobOutcome {
    /// Accepted rewrites of every form ([`SubstStats::substitutions`]).
    pub substitutions: usize,
    /// Total factored-literal gain.
    pub literal_gain: i64,
    /// The deadline expired: the result is a valid partial optimization.
    pub interrupted: bool,
    /// Guard verdicts that degraded to a sampled pass (0 = every
    /// accepted rewrite was proved equivalence-preserving).
    pub guard_pass_sampled: usize,
    /// Wall time the job spent in its worker, milliseconds.
    pub wall_ms: u64,
}

impl JobOutcome {
    /// The summary of a finished run's `stats`, which took `wall_ms`.
    #[must_use]
    pub fn from_stats(stats: &SubstStats, wall_ms: u64) -> JobOutcome {
        JobOutcome {
            substitutions: stats.substitutions,
            literal_gain: stats.literal_gain,
            interrupted: stats.interrupted,
            guard_pass_sampled: stats.guard_pass_sampled,
            wall_ms,
        }
    }
}

/// Where a job currently is. Terminal states carry their attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// In the bounded queue, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Finished; the optimized netlist is available at `/jobs/<id>/result`.
    Done(JobOutcome),
    /// A typed failure (malformed netlist, ingest error). The daemon is
    /// healthy; the job is not.
    Failed(String),
    /// The worker panicked mid-job; the panic was caught, the worker
    /// recycled, and this job withheld from retry within the process.
    Quarantined(String),
    /// Replay saw this job crash the daemon [`MAX_STARTS`] times;
    /// retrying again would loop forever.
    Poisoned,
}

impl JobStatus {
    /// Stable lowercase label (journal events, status JSON, metrics).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
            JobStatus::Quarantined(_) => "quarantined",
            JobStatus::Poisoned => "poisoned",
        }
    }

    /// Whether the job will never run again.
    #[must_use]
    pub fn terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Parses a [`SubstMode`] from its stable [`SubstMode::name`] label.
#[must_use]
pub fn mode_from_name(name: &str) -> Option<SubstMode> {
    [
        SubstMode::Basic,
        SubstMode::Extended,
        SubstMode::ExtendedGdc,
    ]
    .into_iter()
    .find(|m| m.name() == name)
}

/// Lowercase hex encoding for journaling arbitrary payload bytes inside
/// a JSON string (binary AIGER is not UTF-8).
#[must_use]
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or non-hex digits.
#[must_use]
pub fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    let digits = text.as_bytes();
    let mut out = Vec::with_capacity(text.len() / 2);
    for pair in digits.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(u8::try_from(hi * 16 + lo).ok()?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrips_binary() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes));
        assert_eq!(hex_decode("0g"), None);
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode(""), Some(Vec::new()));
    }

    #[test]
    fn mode_names_roundtrip() {
        for m in [
            SubstMode::Basic,
            SubstMode::Extended,
            SubstMode::ExtendedGdc,
        ] {
            assert_eq!(mode_from_name(m.name()), Some(m));
        }
        assert_eq!(mode_from_name("bogus"), None);
    }

    #[test]
    fn outcome_counts_a_pos_rewrite_once() {
        let stats = SubstStats {
            substitutions: 1,
            pos_substitutions: 1,
            literal_gain: 2,
            ..SubstStats::default()
        };
        let outcome = JobOutcome::from_stats(&stats, 5);
        assert_eq!(outcome.substitutions, 1);
        assert_eq!((outcome.literal_gain, outcome.wall_ms), (2, 5));
    }

    #[test]
    fn status_labels_and_terminality() {
        assert!(!JobStatus::Queued.terminal());
        assert!(!JobStatus::Running.terminal());
        assert!(JobStatus::Done(JobOutcome::default()).terminal());
        assert!(JobStatus::Failed(String::new()).terminal());
        assert!(JobStatus::Quarantined(String::new()).terminal());
        assert!(JobStatus::Poisoned.terminal());
        assert_eq!(JobStatus::Poisoned.label(), "poisoned");
    }
}
