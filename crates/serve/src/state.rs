//! Shared daemon state: the bounded job queue, per-job records,
//! admission control, and the worker hand-off protocol.
//!
//! One mutex guards the whole `Inner` block — contention is bounded by
//! the worker count and the admission path does no I/O beyond a single
//! journal append, so a finer lock structure would buy nothing but
//! ordering bugs. The journal append happens *before* a job becomes
//! visible in the queue: a daemon killed between the two replays the
//! accepted event and re-queues the job, so admission is never lossy.

use crate::config::ServeConfig;
use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::journal::Journal;
use boolsubst_metrics::MetricsHandle;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a submission was shed instead of accepted. Each maps to an HTTP
/// status plus a `Retry-After` hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The bounded queue is at capacity: 429.
    QueueFull,
    /// The tenant is at its in-flight cap: 429.
    TenantCap,
    /// The daemon is draining: 503.
    Draining,
}

impl Shed {
    /// HTTP status for the rejection.
    #[must_use]
    pub fn status(self) -> u16 {
        match self {
            Shed::QueueFull | Shed::TenantCap => 429,
            Shed::Draining => 503,
        }
    }

    /// `Retry-After` hint, seconds.
    #[must_use]
    pub fn retry_after_secs(self) -> u64 {
        match self {
            Shed::QueueFull | Shed::TenantCap => 1,
            Shed::Draining => 5,
        }
    }

    /// Stable label (metrics keys, JSON error bodies).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Shed::QueueFull => "queue_full",
            Shed::TenantCap => "tenant_cap",
            Shed::Draining => "draining",
        }
    }
}

/// Everything the server remembers about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The accepted request. Its payload is cleared once the job is
    /// terminal; the journal keeps the copy replay needs.
    pub spec: JobSpec,
    /// Current position in the state machine.
    pub status: JobStatus,
    /// `started` events burned so far (journal attempts + this process).
    pub attempts: u32,
    /// The optimized netlist, once done.
    pub result: Option<Vec<u8>>,
}

/// How many finished job records (with their result netlists) the daemon
/// keeps for polls. The oldest finished record is evicted first, and an
/// evicted id answers `evicted` (HTTP 410). Queued and running jobs are
/// never evicted, so a client that fetches its result soon after the job
/// finishes always finds it.
pub const MAX_FINISHED_JOBS: usize = 256;

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobRecord>,
    /// Ids of terminal records in `jobs`, oldest finish first.
    finished: VecDeque<u64>,
    tenant_inflight: HashMap<String, usize>,
    next_id: u64,
    running: usize,
    workers_alive: usize,
    draining: bool,
}

impl Inner {
    /// Files the terminal record `id` as the newest finished one and
    /// evicts the oldest past [`MAX_FINISHED_JOBS`].
    fn retire(&mut self, id: u64) {
        self.finished.push_back(id);
        while self.finished.len() > MAX_FINISHED_JOBS {
            if let Some(old) = self.finished.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }
}

/// The shared state block behind every connection handler and worker.
#[derive(Debug)]
pub struct State {
    inner: Mutex<Inner>,
    /// Signalled when the queue gains work or drain starts.
    work: Condvar,
    /// Signalled when a job finishes, a worker exits or drain starts
    /// (drain and drain-completion watchers). Kept apart from `work`, so
    /// a foreground waiter never takes a wake-up meant for a worker.
    idle: Condvar,
    /// The append-only WAL; its own lock so admission holds both for
    /// only the accepted append (journal first, queue second).
    pub journal: Mutex<Journal>,
    /// Shared registry: service gauges/counters plus whatever the
    /// optimization sessions book while running.
    pub metrics: MetricsHandle,
    /// Immutable service tunables.
    pub config: ServeConfig,
}

impl State {
    /// Builds the state block around an opened journal.
    #[must_use]
    pub fn new(config: ServeConfig, journal: Journal, next_id: u64) -> State {
        let metrics = MetricsHandle::new();
        State {
            inner: Mutex::new(Inner {
                next_id,
                ..Inner::default()
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            journal: Mutex::new(journal),
            metrics,
            config,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A worker that panics while holding the lock is a daemon bug,
        // not a job fault (job code runs outside the lock, under
        // catch_unwind). Recover the data anyway: serving degraded beats
        // deadlocking every connection.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admission control: journal + enqueue, or shed with a typed reason.
    ///
    /// # Errors
    ///
    /// Returns the [`Shed`] class when the daemon is draining, the
    /// bounded queue is full, or the tenant is at its in-flight cap.
    pub fn submit(&self, mut spec: JobSpec) -> Result<u64, Shed> {
        let mut inner = self.lock();
        if inner.draining {
            self.metrics.counter("serve.shed.draining").inc();
            return Err(Shed::Draining);
        }
        if inner.queue.len() >= self.config.max_queue {
            self.metrics.counter("serve.shed.queue_full").inc();
            return Err(Shed::QueueFull);
        }
        let inflight = inner
            .tenant_inflight
            .get(&spec.tenant)
            .copied()
            .unwrap_or(0);
        if inflight >= self.config.tenant_cap {
            self.metrics.counter("serve.shed.tenant_cap").inc();
            return Err(Shed::TenantCap);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        spec.id = id;
        // WAL discipline: the accepted event hits the journal before the
        // job is visible anywhere else.
        self.journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .accepted(&spec);
        *inner
            .tenant_inflight
            .entry(spec.tenant.clone())
            .or_insert(0) += 1;
        inner.jobs.insert(
            id,
            JobRecord {
                spec,
                status: JobStatus::Queued,
                attempts: 0,
                result: None,
            },
        );
        inner.queue.push_back(id);
        self.metrics.counter("serve.jobs.accepted").inc();
        drop(inner);
        self.work.notify_one();
        Ok(id)
    }

    /// Re-queues a job recovered from the journal (already journaled as
    /// accepted; bypasses admission control — it was admitted by the
    /// previous incarnation).
    pub fn requeue_replayed(&self, spec: JobSpec, attempts: u32) {
        let mut inner = self.lock();
        let id = spec.id;
        *inner
            .tenant_inflight
            .entry(spec.tenant.clone())
            .or_insert(0) += 1;
        inner.jobs.insert(
            id,
            JobRecord {
                spec,
                status: JobStatus::Queued,
                attempts,
                result: None,
            },
        );
        inner.queue.push_back(id);
        self.metrics.counter("serve.jobs.requeued").inc();
        drop(inner);
        self.work.notify_one();
    }

    /// Records a job replay poisoned: journaled and terminal without
    /// running, so it takes no queue slot and no tenant in-flight count.
    pub fn mark_poisoned(&self, mut spec: JobSpec, attempts: u32) {
        let id = spec.id;
        spec.payload = Vec::new();
        self.journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .poisoned(id);
        self.metrics.counter("serve.jobs.poisoned").inc();
        let mut inner = self.lock();
        inner.jobs.insert(
            id,
            JobRecord {
                spec,
                status: JobStatus::Poisoned,
                attempts,
                result: None,
            },
        );
        inner.retire(id);
    }

    /// Worker hand-off: blocks until a job is available (returning its
    /// spec and 1-based attempt number, with `started` journaled) or the
    /// daemon is draining with an empty queue (`None`: the worker exits).
    pub fn next_job(&self) -> Option<(JobSpec, u32)> {
        let mut inner = self.lock();
        loop {
            if let Some(id) = inner.queue.pop_front() {
                let record = inner.jobs.get_mut(&id).expect("queued job has a record");
                record.status = JobStatus::Running;
                record.attempts += 1;
                let attempt = record.attempts;
                let spec = record.spec.clone();
                inner.running += 1;
                drop(inner);
                self.journal
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .started(id, attempt);
                return Some((spec, attempt));
            }
            if inner.draining {
                return None;
            }
            inner = self
                .work
                .wait_timeout(inner, Duration::from_millis(200))
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    fn finish(&self, id: u64, status: JobStatus, result: Option<Vec<u8>>) {
        let mut inner = self.lock();
        if let Some(record) = inner.jobs.get_mut(&id) {
            let tenant = record.spec.tenant.clone();
            record.status = status;
            record.result = result;
            // The input is dead weight once the job is terminal: replay
            // reads the journal, not this record, and polls clone it.
            record.spec.payload = Vec::new();
            if let Some(n) = inner.tenant_inflight.get_mut(&tenant) {
                *n = n.saturating_sub(1);
            }
            inner.retire(id);
        }
        inner.running = inner.running.saturating_sub(1);
        drop(inner);
        self.idle.notify_all();
    }

    /// Terminal transition: done, with the optimized netlist.
    pub fn complete(&self, id: u64, outcome: JobOutcome, result: Vec<u8>) {
        self.journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .done(
                id,
                outcome.substitutions,
                outcome.literal_gain,
                outcome.interrupted,
            );
        self.metrics.counter("serve.jobs.done").inc();
        self.metrics
            .histogram("serve.job_ms")
            .observe(outcome.wall_ms);
        self.finish(id, JobStatus::Done(outcome), Some(result));
    }

    /// Terminal transition: typed failure (daemon healthy, job bad).
    pub fn fail(&self, id: u64, error: &str) {
        self.journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .failed(id, error);
        self.metrics.counter("serve.jobs.failed").inc();
        self.finish(id, JobStatus::Failed(error.to_string()), None);
    }

    /// Terminal transition: worker panic caught and attributed.
    pub fn quarantine(&self, id: u64, error: &str) {
        self.journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .quarantined(id, error);
        self.metrics.counter("serve.jobs.quarantined").inc();
        self.finish(id, JobStatus::Quarantined(error.to_string()), None);
    }

    /// A snapshot of one job's record.
    #[must_use]
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Whether `id` was issued but its record is gone: evicted past
    /// [`MAX_FINISHED_JOBS`], or finished by an earlier incarnation.
    #[must_use]
    pub fn evicted(&self, id: u64) -> bool {
        let inner = self.lock();
        id < inner.next_id && !inner.jobs.contains_key(&id)
    }

    /// Starts the drain: no new admissions, workers exit once the queue
    /// is empty.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.metrics.gauge("serve.draining").set(1);
        self.work.notify_all();
        self.idle.notify_all();
    }

    /// Whether drain has been requested.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Blocks until drain has been requested.
    pub fn wait_draining(&self) {
        let mut inner = self.lock();
        while !inner.draining {
            inner = self
                .idle
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Bookkeeping: a worker thread is live (called before spawn, so the
    /// count never under-reads during recycling).
    pub fn worker_spawned(&self) {
        let mut inner = self.lock();
        inner.workers_alive += 1;
        let alive = inner.workers_alive;
        drop(inner);
        self.metrics
            .gauge("serve.workers")
            .set(i64::try_from(alive).unwrap_or(i64::MAX));
    }

    /// Bookkeeping: a worker thread exited (drain or recycle).
    pub fn worker_exited(&self) {
        let mut inner = self.lock();
        inner.workers_alive = inner.workers_alive.saturating_sub(1);
        let alive = inner.workers_alive;
        drop(inner);
        self.metrics
            .gauge("serve.workers")
            .set(i64::try_from(alive).unwrap_or(i64::MAX));
        self.idle.notify_all();
    }

    /// Blocks until every worker has exited, or `deadline` passes.
    /// Returns whether the pool fully drained.
    pub fn wait_workers_exit(&self, deadline: Instant) -> bool {
        let mut inner = self.lock();
        while inner.workers_alive > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            inner = self
                .idle
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
        true
    }

    /// Refreshes the point-in-time gauges (scrape path).
    pub fn refresh_gauges(&self) {
        let inner = self.lock();
        let depth = i64::try_from(inner.queue.len()).unwrap_or(i64::MAX);
        let running = i64::try_from(inner.running).unwrap_or(i64::MAX);
        drop(inner);
        self.metrics.gauge("serve.queue_depth").set(depth);
        self.metrics.gauge("serve.running").set(running);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolsubst_core::SubstMode;
    use boolsubst_network::Format;

    /// Finished records beyond the bound are evicted oldest first; an
    /// evicted id is told apart from one never issued.
    #[test]
    fn finished_records_are_bounded_oldest_first() {
        let path = std::env::temp_dir().join(format!(
            "boolsubst-state-evict-{}.jsonl",
            std::process::id()
        ));
        let journal = Journal::open(&path).expect("journal");
        let config = ServeConfig {
            tenant_cap: usize::MAX,
            ..ServeConfig::default()
        };
        let state = State::new(config, journal, 1);
        let total = MAX_FINISHED_JOBS as u64 + 3;
        for _ in 0..total {
            let spec = JobSpec {
                id: 0,
                tenant: "t".to_string(),
                format: Format::Blif,
                mode: SubstMode::Extended,
                deadline_ms: None,
                sat_conflicts: 0,
                rar_checks: 0,
                chaos: None,
                payload: b"x".to_vec(),
            };
            let id = state.submit(spec).expect("admitted");
            let (spec, _) = state.next_job().expect("queued");
            assert_eq!(spec.id, id);
            state.fail(id, "bad netlist");
        }
        for id in 1..=3 {
            assert!(state.job(id).is_none() && state.evicted(id), "job {id}");
        }
        assert!(state.job(4).is_some() && !state.evicted(4));
        assert!(state.job(total).is_some());
        assert!(!state.evicted(total + 1), "never issued");
        let _ = std::fs::remove_file(&path);
    }
}
