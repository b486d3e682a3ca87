//! The daemon: listener, connection handling, the worker pool, and the
//! per-job fault isolation that keeps one bad netlist from taking any
//! of it down.
//!
//! Worker recycling is literal: a worker whose job panics journals the
//! quarantine, spawns a fresh replacement thread, and exits — the
//! replacement starts with no state, so nothing the panicking job may
//! have corrupted survives. No engine state carries over between jobs:
//! each job's session builds its own guard, with the job's deadline.

use crate::config::ServeConfig;
use crate::http::{read_request, write_response, Request};
use crate::job::{mode_from_name, JobOutcome, JobSpec, JobStatus};
use crate::journal::{replay, Journal};
use crate::state::State;
use boolsubst_core::{Session, SubstMode, SubstOptions};
use boolsubst_metrics::prometheus_string;
use boolsubst_network::{egress, ingest, Format};
use boolsubst_trace::json::JsonObj;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running daemon. Dropping it without [`Server::drain`] +
/// [`Server::join`] leaves threads running (crash-only: the journal is
/// the recovery story, not destructors).
#[derive(Debug)]
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Boots the daemon: replays the journal (re-queueing in-flight jobs
    /// from the previous incarnation, poisoning repeat offenders), binds
    /// the listener, and spawns the accept loop plus the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates journal and socket errors; a corrupt journal *body*
    /// is never an error (torn lines are tolerated and counted).
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let replayed = replay(&config.journal_path)?;
        let journal = Journal::open(&config.journal_path)?;
        let state = Arc::new(State::new(config, journal, replayed.next_id));
        state
            .metrics
            .counter("serve.journal.torn_lines")
            .add(replayed.torn_lines as u64);
        for (spec, attempts) in replayed.poison {
            state.mark_poisoned(spec, attempts);
        }
        for (spec, attempts) in replayed.requeue {
            state.requeue_replayed(spec, attempts);
        }

        let listener = TcpListener::bind(&state.config.addr)?;
        let addr = listener.local_addr()?;

        for slot in 0..state.config.workers {
            spawn_worker(Arc::clone(&state), slot);
        }

        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_state))
            .expect("spawn accept thread");

        Ok(Server {
            state,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0 binds).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (tests and embedding callers).
    #[must_use]
    pub fn state(&self) -> &Arc<State> {
        &self.state
    }

    /// Initiates a graceful drain: the listener stops accepting, queued
    /// and in-flight jobs finish, workers exit.
    ///
    /// The accept thread blocks in `accept()`, so this opens one
    /// loopback connection to wake it; the loop sees the drain before
    /// routing that connection and exits. Once the thread has exited the
    /// connect is refused, which is fine.
    pub fn drain(&self) {
        self.state.drain();
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Waits for drain completion under the configured drain deadline,
    /// then fsyncs the journal. Returns `true` when every worker exited
    /// in time (`false` leaves stragglers running; their jobs stay
    /// in-flight in the journal and the next boot re-queues them).
    pub fn join(mut self) -> bool {
        self.drain();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let deadline = Instant::now() + self.state.config.drain_deadline;
        let drained = self.state.wait_workers_exit(deadline);
        let _ = self
            .state
            .journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .sync();
        drained
    }

    /// Blocks until a drain is requested (e.g. via `POST /shutdown`),
    /// then completes it as [`Server::join`] does. The CLI's foreground
    /// mode.
    pub fn serve_forever(self) -> bool {
        self.state.wait_draining();
        self.join()
    }
}

/// Blocks in `accept()` and hands each connection to its own thread.
/// The drain check sits between `accept` returning and the hand-off, so
/// the connection that [`Server::drain`] opens to wake the loop is never
/// routed.
fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    loop {
        let accepted = listener.accept();
        if state.draining() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let state = Arc::clone(state);
                let _ = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || handle_connection(&state, stream));
            }
            // fd exhaustion and the like: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn json_error(message: &str) -> Vec<u8> {
    JsonObj::new().str("error", message).finish().into_bytes()
}

fn handle_connection(state: &Arc<State>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = match read_request(&stream, &state.config.http) {
        Ok(Some(request)) => request,
        Ok(None) => return, // probe connection, nothing sent
        Err(err) => {
            // Malformed traffic: typed, counted, journaled, answered.
            state
                .metrics
                .counter(&format!("serve.http.rejected.{}", err.label()))
                .inc();
            state
                .journal
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .rejected(err.label());
            write_response(
                &stream,
                err.status(),
                "application/json",
                &[],
                &json_error(&err.to_string()),
            );
            return;
        }
    };
    route(state, &stream, &request);
}

fn route(state: &Arc<State>, stream: &TcpStream, request: &Request) {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let body = JsonObj::new()
                .str("status", "ok")
                .bool("draining", state.draining())
                .finish()
                .into_bytes();
            write_response(stream, 200, "application/json", &[], &body);
        }
        ("GET", "/metrics") => {
            state.refresh_gauges();
            let body = prometheus_string(&state.metrics).into_bytes();
            write_response(stream, 200, "text/plain; version=0.0.4", &[], &body);
        }
        ("POST", "/jobs") => submit_job(state, stream, request),
        ("POST", "/shutdown") => {
            state.drain();
            let body = JsonObj::new().bool("draining", true).finish().into_bytes();
            write_response(stream, 200, "application/json", &[], &body);
        }
        ("GET", _) if path.starts_with("/jobs/") => job_status(state, stream, path),
        _ => {
            write_response(
                stream,
                404,
                "application/json",
                &[],
                &json_error("no such endpoint"),
            );
        }
    }
}

/// Parses the job-control headers into a spec (id assigned at
/// admission). `Err` is a human-readable 400 message.
fn spec_from_request(request: &Request, config: &ServeConfig) -> Result<JobSpec, String> {
    let tenant = request.header("x-tenant").unwrap_or("default").to_string();
    if tenant.is_empty() || tenant.len() > 64 {
        return Err("x-tenant must be 1..=64 bytes".to_string());
    }
    let format = match request.header("x-format") {
        None => Format::Blif,
        Some(ext) => {
            Format::from_extension(ext).ok_or_else(|| format!("unknown x-format '{ext}'"))?
        }
    };
    let mode = match request.header("x-mode") {
        None => SubstMode::Extended,
        Some(name) => mode_from_name(name).ok_or_else(|| format!("unknown x-mode '{name}'"))?,
    };
    let deadline_ms = match request.header("x-deadline-ms") {
        None => config.default_deadline_ms,
        Some(v) => match v.parse::<u64>().map_err(|_| "bad x-deadline-ms")? {
            0 => None,
            ms => Some(ms),
        },
    };
    let sat_conflicts = match request.header("x-sat-conflicts") {
        None => 2000,
        Some(v) => v.parse::<u64>().map_err(|_| "bad x-sat-conflicts")?,
    };
    let rar_checks = match request.header("x-rar-checks") {
        None => 0,
        Some(v) => v.parse::<usize>().map_err(|_| "bad x-rar-checks")?,
    };
    if request.body.is_empty() {
        return Err("empty body: send a netlist".to_string());
    }
    Ok(JobSpec {
        id: 0,
        tenant,
        format,
        mode,
        deadline_ms,
        sat_conflicts,
        rar_checks,
        chaos: request.header("x-chaos").map(String::from),
        payload: request.body.clone(),
    })
}

fn submit_job(state: &Arc<State>, stream: &TcpStream, request: &Request) {
    let spec = match spec_from_request(request, &state.config) {
        Ok(spec) => spec,
        Err(message) => {
            state.metrics.counter("serve.http.rejected.bad_param").inc();
            state
                .journal
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .rejected("bad_param");
            write_response(stream, 400, "application/json", &[], &json_error(&message));
            return;
        }
    };
    match state.submit(spec) {
        Ok(id) => {
            let body = JsonObj::new().u64("id", id).finish().into_bytes();
            write_response(stream, 202, "application/json", &[], &body);
        }
        Err(shed) => {
            write_response(
                stream,
                shed.status(),
                "application/json",
                &[("retry-after", shed.retry_after_secs().to_string())],
                &json_error(shed.label()),
            );
        }
    }
}

fn job_status(state: &Arc<State>, stream: &TcpStream, path: &str) {
    let rest = &path["/jobs/".len()..];
    let (id_text, want_result) = match rest.strip_suffix("/result") {
        Some(id_text) => (id_text, true),
        None => (rest, false),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        write_response(stream, 400, "application/json", &[], &json_error("bad id"));
        return;
    };
    let Some(record) = state.job(id) else {
        if !state.evicted(id) {
            write_response(
                stream,
                404,
                "application/json",
                &[],
                &json_error("unknown job"),
            );
        } else if want_result {
            write_response(stream, 410, "application/json", &[], &json_error("evicted"));
        } else {
            let body = JsonObj::new()
                .u64("id", id)
                .str("state", "evicted")
                .finish()
                .into_bytes();
            write_response(stream, 410, "application/json", &[], &body);
        }
        return;
    };
    if want_result {
        match (&record.status, &record.result) {
            (JobStatus::Done(_), Some(bytes)) => {
                write_response(stream, 200, "application/octet-stream", &[], bytes);
            }
            (JobStatus::Queued | JobStatus::Running, _) => {
                write_response(
                    stream,
                    202,
                    "application/json",
                    &[],
                    &json_error("not finished"),
                );
            }
            _ => {
                write_response(
                    stream,
                    410,
                    "application/json",
                    &[],
                    &json_error(record.status.label()),
                );
            }
        }
        return;
    }
    let mut body = JsonObj::new();
    body.u64("id", id)
        .str("state", record.status.label())
        .u64("attempt", u64::from(record.attempts))
        .str("tenant", &record.spec.tenant);
    match &record.status {
        JobStatus::Done(outcome) => {
            body.u64("substitutions", outcome.substitutions as u64)
                .i64("literal_gain", outcome.literal_gain)
                .bool("interrupted", outcome.interrupted)
                .u64("guard_pass_sampled", outcome.guard_pass_sampled as u64)
                .u64("wall_ms", outcome.wall_ms);
        }
        JobStatus::Failed(error) | JobStatus::Quarantined(error) => {
            body.str("error", error);
        }
        _ => {}
    }
    write_response(
        stream,
        200,
        "application/json",
        &[],
        body.finish().into_bytes().as_slice(),
    );
}

/// Spawns worker `slot`, registering it live *before* the thread starts
/// so drain watchers never observe a gap during recycling.
fn spawn_worker(state: Arc<State>, slot: usize) {
    state.worker_spawned();
    let thread_state = Arc::clone(&state);
    let spawned = std::thread::Builder::new()
        .name(format!("serve-worker-{slot}"))
        .spawn(move || worker_entry(&thread_state, slot));
    if let Err(e) = spawned {
        // Spawn failure (fd/thread exhaustion): undo the registration so
        // drain never waits on a worker that does not exist; the pool
        // runs one short rather than deadlocking.
        eprintln!("serve: worker {slot} spawn failed: {e}");
        state.worker_exited();
    }
}

fn worker_entry(state: &Arc<State>, slot: usize) {
    while let Some((spec, _attempt)) = state.next_job() {
        let id = spec.id;
        let run = catch_unwind(AssertUnwindSafe(|| run_job(state, &spec)));
        match run {
            Ok(Ok((result, outcome))) => state.complete(id, outcome, result),
            Ok(Err(message)) => state.fail(id, &message),
            Err(panic) => {
                let message = panic_message(panic.as_ref());
                state.quarantine(id, &message);
                state.metrics.counter("serve.worker_recycles").inc();
                // Recycle: replacement first, then this thread exits.
                spawn_worker(Arc::clone(state), slot);
                state.worker_exited();
                return;
            }
        }
    }
    state.worker_exited();
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (opaque payload)".to_string()
    }
}

/// Runs one job start-to-finish on the calling worker thread. Returns
/// the optimized netlist bytes and the outcome summary. Panics propagate
/// to the quarantine path above.
fn run_job(state: &Arc<State>, spec: &JobSpec) -> Result<(Vec<u8>, JobOutcome), String> {
    let t0 = Instant::now();
    chaos_hook(spec);
    let mut net = ingest(&spec.payload, spec.format, &format!("job{}", spec.id))
        .map_err(|e| format!("ingest: {e}"))?;
    let mut opts = match spec.mode {
        SubstMode::Basic => SubstOptions::basic(),
        SubstMode::Extended => SubstOptions::extended(),
        SubstMode::ExtendedGdc => SubstOptions::extended_gdc(),
    }
    .with_checked(true)
    .with_sat_conflicts(spec.sat_conflicts);
    opts.division.max_checks = spec.rar_checks;
    if let Some(ms) = spec.deadline_ms {
        opts = opts.with_deadline(t0 + Duration::from_millis(ms));
    }
    let stats = Session::new(&mut net, opts).metrics(&state.metrics).run();
    let result = egress(&net, spec.format);
    let wall_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
    let outcome = JobOutcome::from_stats(&stats, wall_ms);
    Ok((result, outcome))
}

/// Honours the job's `X-Chaos` directive when the `chaos` feature is
/// compiled in: `panic` aborts the job mid-worker (testing quarantine +
/// recycling), `sleep:<ms>` stalls it (testing queue-full storms and
/// drain deadlines). Production builds ignore the header entirely.
#[cfg(feature = "chaos")]
fn chaos_hook(spec: &JobSpec) {
    match spec.chaos.as_deref() {
        Some("panic") => panic!("chaos: injected worker panic (job {})", spec.id),
        Some(directive) => {
            if let Some(ms) = directive
                .strip_prefix("sleep:")
                .and_then(|v| v.parse::<u64>().ok())
            {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        None => {}
    }
}

#[cfg(not(feature = "chaos"))]
fn chaos_hook(_spec: &JobSpec) {}
