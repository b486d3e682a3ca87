//! Service tunables.

use crate::http::HttpLimits;
use std::path::PathBuf;
use std::time::Duration;

/// Everything the daemon needs to come up. Field defaults are sized for
/// a small shared box; tests shrink the queue/caps to force shedding
/// deterministically.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Use port 0 to let the OS pick (tests); the bound
    /// address is reported by `Server::local_addr`.
    pub addr: String,
    /// Worker pool size (each worker runs one `Session` at a time).
    /// `0` is allowed: jobs queue but never run — used by admission
    /// tests that need a deterministically full queue.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it shed with 429.
    pub max_queue: usize,
    /// Per-tenant in-flight (queued + running) cap; 429 beyond it.
    pub tenant_cap: usize,
    /// Path of the append-only job journal.
    pub journal_path: PathBuf,
    /// How long a graceful drain waits for in-flight jobs before giving
    /// up (the journal then shows them in-flight; the next boot
    /// re-queues them — crash-only semantics even for slow drains).
    pub drain_deadline: Duration,
    /// Deadline applied to jobs that do not send `X-Deadline-Ms`.
    /// `None` leaves them unbounded.
    pub default_deadline_ms: Option<u64>,
    /// HTTP parse bounds.
    pub http: HttpLimits,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            workers: 2,
            max_queue: 64,
            tenant_cap: 16,
            journal_path: PathBuf::from("boolsubst_jobs.jsonl"),
            drain_deadline: Duration::from_secs(30),
            default_deadline_ms: Some(60_000),
            http: HttpLimits::default(),
        }
    }
}
