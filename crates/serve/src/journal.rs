//! Append-only JSONL job journal: the daemon's only durable state.
//!
//! Every admission-control and worker transition appends one line
//! (written through [`boolsubst_trace::json::JsonObj`], the same
//! single-line writer the bench tables use). The file is the write-ahead
//! log for crash-only recovery: `accepted` is appended *before* the job
//! is enqueued, so a daemon killed at any instant can replay the file
//! and re-queue everything that was accepted but never reached a
//! terminal event. A torn final line — the signature of `kill -9`
//! mid-write — is tolerated and counted, never fatal.

use crate::job::{hex_decode, hex_encode, mode_from_name, JobSpec, MAX_STARTS};
use boolsubst_network::Format;
use boolsubst_trace::json::{Json, JsonObj};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// The append handle. One line per event; `flush` after every append
/// (the line must be visible to an external auditor immediately),
/// `fsync` at drain and on demand.
#[derive(Debug)]
pub struct Journal {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if missing) the journal at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-system error.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            writer: BufWriter::new(file),
            path,
        })
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&mut self, line: &str) {
        // An unwritable journal must not take down serving: jobs still
        // run, recovery guarantees just degrade until the disk returns.
        let _ = writeln!(self.writer, "{line}");
        let _ = self.writer.flush();
    }

    /// Forces the journal to stable storage (drain path).
    ///
    /// # Errors
    ///
    /// Propagates the underlying `fsync` error.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_all()
    }

    /// Journals an accepted job, payload included (hex), so replay can
    /// re-queue it byte-identically.
    pub fn accepted(&mut self, spec: &JobSpec) {
        let mut o = JsonObj::new();
        o.str("ev", "accepted")
            .u64("id", spec.id)
            .str("tenant", &spec.tenant)
            .str("fmt", spec.format.extension())
            .str("mode", spec.mode.name())
            .u64("deadline_ms", spec.deadline_ms.unwrap_or(0))
            .u64("sat_conflicts", spec.sat_conflicts)
            .u64("rar_checks", spec.rar_checks as u64);
        if let Some(chaos) = &spec.chaos {
            o.str("chaos", chaos);
        }
        o.str("payload", &hex_encode(&spec.payload));
        self.append(&o.finish());
    }

    /// Journals a worker picking the job up (attempt is 1-based).
    pub fn started(&mut self, id: u64, attempt: u32) {
        self.append(
            &JsonObj::new()
                .str("ev", "started")
                .u64("id", id)
                .u64("attempt", u64::from(attempt))
                .finish(),
        );
    }

    /// Journals successful completion with its outcome summary.
    pub fn done(&mut self, id: u64, substitutions: usize, gain: i64, interrupted: bool) {
        self.append(
            &JsonObj::new()
                .str("ev", "done")
                .u64("id", id)
                .u64("subs", substitutions as u64)
                .i64("gain", gain)
                .bool("interrupted", interrupted)
                .finish(),
        );
    }

    /// Journals a typed job failure (the daemon is healthy).
    pub fn failed(&mut self, id: u64, error: &str) {
        self.append(
            &JsonObj::new()
                .str("ev", "failed")
                .u64("id", id)
                .str("error", error)
                .finish(),
        );
    }

    /// Journals a caught worker panic.
    pub fn quarantined(&mut self, id: u64, error: &str) {
        self.append(
            &JsonObj::new()
                .str("ev", "quarantined")
                .u64("id", id)
                .str("error", error)
                .finish(),
        );
    }

    /// Journals replay's verdict that the job has crashed the daemon too
    /// often to retry.
    pub fn poisoned(&mut self, id: u64) {
        self.append(&JsonObj::new().str("ev", "poisoned").u64("id", id).finish());
    }

    /// Journals HTTP-level malformed traffic that never earned a job id
    /// (truncated body, oversized upload, garbage request line), so
    /// hostile or broken clients are attributed too.
    pub fn rejected(&mut self, label: &str) {
        self.append(
            &JsonObj::new()
                .str("ev", "rejected")
                .str("reason", label)
                .finish(),
        );
    }
}

/// What replaying a journal found; see [`replay`].
#[derive(Debug, Default)]
pub struct Replay {
    /// Jobs accepted but not terminal, seen `started` fewer than
    /// [`MAX_STARTS`] times: re-queue these (attempts so far attached).
    pub requeue: Vec<(JobSpec, u32)>,
    /// Jobs accepted but not terminal with too many starts (attempts
    /// attached): the caller must journal these as poisoned.
    pub poison: Vec<(JobSpec, u32)>,
    /// Terminal state label per already-finished job id.
    pub terminal: BTreeMap<u64, String>,
    /// First id not yet used (`max accepted id + 1`).
    pub next_id: u64,
    /// Unparseable lines tolerated during the scan (torn tail writes).
    pub torn_lines: usize,
    /// Total `accepted` events seen.
    pub accepted: usize,
}

fn spec_from_json(j: &Json) -> Option<JobSpec> {
    let id = j.get("id")?.as_u64()?;
    let format = Format::from_extension(j.get("fmt")?.as_str()?)?;
    let mode = mode_from_name(j.get("mode")?.as_str()?)?;
    let deadline_ms = match j.get("deadline_ms")?.as_u64()? {
        0 => None,
        ms => Some(ms),
    };
    Some(JobSpec {
        id,
        tenant: j.get("tenant")?.as_str()?.to_string(),
        format,
        mode,
        deadline_ms,
        sat_conflicts: j.get("sat_conflicts")?.as_u64()?,
        rar_checks: usize::try_from(j.get("rar_checks")?.as_u64()?).ok()?,
        chaos: j.get("chaos").and_then(Json::as_str).map(String::from),
        payload: hex_decode(j.get("payload")?.as_str()?)?,
    })
}

/// Replays the journal at `path` (absent file = empty journal). Never
/// fails on content: torn or alien lines are counted and skipped, since
/// a crash-only daemon must boot from whatever the dying process left.
///
/// # Errors
///
/// Propagates file-system read errors only.
pub fn replay(path: impl AsRef<Path>) -> io::Result<Replay> {
    let path = path.as_ref();
    let mut out = Replay {
        next_id: 1,
        ..Replay::default()
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    struct Entry {
        spec: Option<JobSpec>,
        starts: u32,
        terminal: Option<String>,
    }
    let mut jobs: BTreeMap<u64, Entry> = BTreeMap::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(j) = Json::parse(line) else {
            out.torn_lines += 1;
            continue;
        };
        let Some(ev) = j.get("ev").and_then(Json::as_str) else {
            out.torn_lines += 1;
            continue;
        };
        if ev == "rejected" {
            continue;
        }
        let Some(id) = j.get("id").and_then(Json::as_u64) else {
            out.torn_lines += 1;
            continue;
        };
        let entry = jobs.entry(id).or_insert(Entry {
            spec: None,
            starts: 0,
            terminal: None,
        });
        match ev {
            "accepted" => {
                out.accepted += 1;
                out.next_id = out.next_id.max(id + 1);
                match spec_from_json(&j) {
                    Some(spec) => entry.spec = Some(spec),
                    None => out.torn_lines += 1,
                }
            }
            "started" => entry.starts += 1,
            "done" | "failed" | "quarantined" | "poisoned" => {
                entry.terminal = Some(ev.to_string());
            }
            _ => out.torn_lines += 1,
        }
    }
    for (id, entry) in jobs {
        if let Some(t) = entry.terminal {
            out.terminal.insert(id, t);
        } else if let Some(spec) = entry.spec {
            if entry.starts >= MAX_STARTS {
                out.poison.push((spec, entry.starts));
            } else {
                out.requeue.push((spec, entry.starts));
            }
        }
        // started/terminal events without a parseable accepted record
        // were already counted torn above; nothing to re-queue.
    }
    Ok(out)
}

/// Post-run audit over a journal: did every accepted job reach a
/// terminal event? Used by `loadgen --audit` and the CI serve job.
#[derive(Debug, Default)]
pub struct Audit {
    /// `accepted` events.
    pub accepted: usize,
    /// Terminal event counts by label (`done`, `failed`, ...).
    pub terminal: BTreeMap<String, usize>,
    /// Accepted ids with no terminal event — lost jobs. Empty after a
    /// clean drain.
    pub lost: Vec<u64>,
    /// Tolerated unparseable lines.
    pub torn_lines: usize,
    /// HTTP-level `rejected` events (malformed traffic, no job id).
    pub rejected: usize,
}

/// Audits the journal at `path`; see [`Audit`].
///
/// # Errors
///
/// Propagates file-system read errors only.
pub fn audit(path: impl AsRef<Path>) -> io::Result<Audit> {
    let text = std::fs::read_to_string(path.as_ref())?;
    let mut audit = Audit::default();
    let mut open: BTreeMap<u64, ()> = BTreeMap::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(j) = Json::parse(line) else {
            audit.torn_lines += 1;
            continue;
        };
        match j.get("ev").and_then(Json::as_str) {
            Some("rejected") => audit.rejected += 1,
            Some("accepted") => {
                audit.accepted += 1;
                if let Some(id) = j.get("id").and_then(Json::as_u64) {
                    open.insert(id, ());
                }
            }
            Some(ev @ ("done" | "failed" | "quarantined" | "poisoned")) => {
                *audit.terminal.entry(ev.to_string()).or_insert(0) += 1;
                if let Some(id) = j.get("id").and_then(Json::as_u64) {
                    open.remove(&id);
                }
            }
            Some("started") => {}
            _ => audit.torn_lines += 1,
        }
    }
    audit.lost = open.into_keys().collect();
    Ok(audit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec(id: u64) -> JobSpec {
        JobSpec {
            id,
            tenant: "acme".to_string(),
            format: Format::Blif,
            mode: boolsubst_core::SubstMode::Extended,
            deadline_ms: Some(250),
            sat_conflicts: 1000,
            rar_checks: 64,
            chaos: None,
            payload: b".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n".to_vec(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("boolsubst_journal_tests");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn accepted_without_terminal_is_requeued_byte_identically() {
        let path = tmp("requeue.jsonl");
        let spec = sample_spec(7);
        {
            let mut j = Journal::open(&path).expect("open");
            j.accepted(&spec);
            j.started(7, 1);
            j.sync().expect("sync");
        }
        let replayed = replay(&path).expect("replay");
        assert_eq!(replayed.requeue.len(), 1);
        assert_eq!(replayed.requeue[0].0, spec, "payload must survive hex");
        assert_eq!(replayed.requeue[0].1, 1, "one attempt already burned");
        assert_eq!(replayed.next_id, 8);
        assert_eq!(replayed.torn_lines, 0);
    }

    #[test]
    fn twice_started_job_is_poisoned_not_requeued() {
        let path = tmp("poison.jsonl");
        {
            let mut j = Journal::open(&path).expect("open");
            j.accepted(&sample_spec(3));
            j.started(3, 1);
            j.started(3, 2);
        }
        let replayed = replay(&path).expect("replay");
        assert!(replayed.requeue.is_empty());
        assert_eq!(replayed.poison, vec![(sample_spec(3), 2)]);
    }

    #[test]
    fn terminal_jobs_are_not_requeued() {
        let path = tmp("terminal.jsonl");
        {
            let mut j = Journal::open(&path).expect("open");
            j.accepted(&sample_spec(1));
            j.started(1, 1);
            j.done(1, 4, 9, false);
            j.accepted(&sample_spec(2));
            j.started(2, 1);
            j.quarantined(2, "panicked at 'chaos'");
        }
        let replayed = replay(&path).expect("replay");
        assert!(replayed.requeue.is_empty());
        assert!(replayed.poison.is_empty());
        assert_eq!(replayed.terminal.get(&1).map(String::as_str), Some("done"));
        assert_eq!(
            replayed.terminal.get(&2).map(String::as_str),
            Some("quarantined")
        );
        assert_eq!(replayed.next_id, 3);
    }

    #[test]
    fn torn_tail_line_is_tolerated_and_counted() {
        let path = tmp("torn.jsonl");
        {
            let mut j = Journal::open(&path).expect("open");
            j.accepted(&sample_spec(1));
        }
        // Simulate kill -9 mid-append: half a JSON object, no newline.
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("append");
        raw.write_all(b"{\"ev\":\"started\",\"id").expect("tear");
        drop(raw);
        let replayed = replay(&path).expect("replay");
        assert_eq!(replayed.torn_lines, 1, "the torn line is counted");
        assert_eq!(replayed.requeue.len(), 1, "the intact accepted survives");
    }

    #[test]
    fn missing_journal_is_an_empty_replay() {
        let replayed = replay(tmp("never_written.jsonl")).expect("replay");
        assert_eq!(replayed.next_id, 1);
        assert!(replayed.requeue.is_empty());
        assert_eq!(replayed.accepted, 0);
    }

    #[test]
    fn audit_flags_lost_jobs_and_counts_rejections() {
        let path = tmp("audit.jsonl");
        {
            let mut j = Journal::open(&path).expect("open");
            j.accepted(&sample_spec(1));
            j.started(1, 1);
            j.done(1, 0, 0, false);
            j.accepted(&sample_spec(2));
            j.rejected("truncated_body");
        }
        let report = audit(&path).expect("audit");
        assert_eq!(report.accepted, 2);
        assert_eq!(report.terminal.get("done"), Some(&1));
        assert_eq!(report.lost, vec![2]);
        assert_eq!(report.rejected, 1);
    }
}
