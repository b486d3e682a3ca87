//! The serve-closed workload: an in-process daemon and two client
//! connections in a closed loop, timed with the benchmark's own poll
//! loop over `Client::request`.

use crate::inputs::Job;
use crate::spans::Recorder;
use boolsubst_serve::{Client, ServeConfig, Server};
use boolsubst_trace::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections driving the closed loop.
pub const CONNECTIONS: usize = 2;
/// Submission attempts before a shed job counts as failed.
const MAX_SUBMITS: u32 = 8;
/// A job not terminal after this long has hit the safety deadline.
const SAFETY_DEADLINE: Duration = Duration::from_secs(60);
/// Pause between status polls of one job.
const POLL_PAUSE: Duration = Duration::from_micros(500);

/// An in-process daemon with one worker and its journal on local disk.
pub struct Daemon {
    server: Server,
    journal: PathBuf,
}

impl Daemon {
    /// Starts the daemon on an OS-picked port with its journal at
    /// `journal`. It is listening when this returns.
    pub fn start(journal: &Path) -> Result<Daemon, String> {
        if let Some(dir) = journal.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let _ = std::fs::remove_file(journal);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            journal_path: journal.to_path_buf(),
            ..ServeConfig::default()
        };
        let server = Server::start(config).map_err(|e| format!("serve: start: {e}"))?;
        Ok(Daemon {
            server,
            journal: journal.to_path_buf(),
        })
    }

    /// Waits until the daemon answers `/healthz`.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let client = Client::new(self.server.local_addr().to_string());
        let t0 = Instant::now();
        while !client.healthz().unwrap_or(false) {
            if t0.elapsed() > Duration::from_secs(10) {
                return Err("serve: not healthy within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Drains the daemon, waits for its threads, and removes the journal.
    pub fn stop(self) -> Result<(), String> {
        let drained = self.server.join();
        let _ = std::fs::remove_file(&self.journal);
        if drained {
            Ok(())
        } else {
            Err("serve: workers did not drain".to_string())
        }
    }

    /// Runs one round: every job once, handed out in `order` to
    /// [`CONNECTIONS`] clients that each submit their next job only after
    /// fetching the previous result. Returns the round's wall time and
    /// the trips by job index.
    pub fn round(
        &self,
        jobs: &[Job],
        order: &[usize],
        rec: &mut Recorder,
        span_base: u64,
    ) -> (f64, Vec<Trip>) {
        let addr = self.server.local_addr().to_string();
        let next = AtomicUsize::new(0);
        let trips: Mutex<Vec<Option<Trip>>> = Mutex::new(vec![None; jobs.len()]);
        let t0 = Instant::now();
        let recorders: Vec<Recorder> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    let mut local = rec.fork();
                    let (addr, next, trips) = (&addr, &next, &trips);
                    s.spawn(move || {
                        let client = Client::new(addr.clone());
                        while let Some(&k) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let t = trip(&client, &jobs[k], &mut local, span_base + k as u64);
                            trips.lock().expect("no client panics holding the lock")[k] = Some(t);
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        for local in recorders {
            rec.absorb(local);
        }
        let trips = trips
            .into_inner()
            .expect("client threads joined")
            .into_iter()
            .map(|t| t.expect("every job handed out"))
            .collect();
        (wall_s, trips)
    }
}

/// One job's trip through the daemon.
#[derive(Debug, Clone)]
pub struct Trip {
    /// Submit until the job is seen terminal, ms.
    pub latency_ms: f64,
    pub submit_ms: f64,
    pub queue_ms: f64,
    pub exec_ms: f64,
    pub fetch_ms: f64,
    pub shed: usize,
    pub output: Result<Vec<u8>, String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn submit(client: &Client, job: &Job, shed: &mut usize) -> Result<u64, String> {
    let headers = [
        ("x-format".to_string(), job.format.extension().to_string()),
        ("x-mode".to_string(), job.opts.mode.name().to_string()),
    ];
    for attempt in 0..MAX_SUBMITS {
        let resp = client.request("POST", "/jobs", &headers, &job.input)?;
        match resp.status {
            202 => {
                return resp
                    .json()?
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "202 without id".to_string())
            }
            429 | 503 => {
                *shed += 1;
                std::thread::sleep(Duration::from_millis(10 << attempt));
            }
            status => return Err(format!("submit: status {status}")),
        }
    }
    Err(format!("{}: shed {MAX_SUBMITS} times", job.label))
}

/// Polls until the job is terminal; returns its status document.
fn poll(client: &Client, id: u64) -> Result<Json, String> {
    let t0 = Instant::now();
    loop {
        let resp = client.request("GET", &format!("/jobs/{id}"), &[], b"")?;
        if resp.status == 200 {
            let status = resp.json()?;
            let state = status
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            if state != "queued" && state != "running" {
                return Ok(status);
            }
        }
        if t0.elapsed() > SAFETY_DEADLINE {
            return Err(format!("job {id}: safety deadline"));
        }
        std::thread::sleep(POLL_PAUSE);
    }
}

fn trip(client: &Client, job: &Job, rec: &mut Recorder, span_id: u64) -> Trip {
    let mut shed = 0;
    let t0 = Instant::now();
    let submitted = rec.span("serve.submit", span_id, |_| submit(client, job, &mut shed));
    let t1 = Instant::now();
    let mut out = Trip {
        latency_ms: 0.0,
        submit_ms: ms(t1 - t0),
        queue_ms: 0.0,
        exec_ms: 0.0,
        fetch_ms: 0.0,
        shed,
        output: Err(String::new()),
    };
    let id = match submitted {
        Ok(id) => id,
        Err(e) => {
            out.output = Err(e);
            return out;
        }
    };
    let status = rec.span("serve.poll", span_id, |_| poll(client, id));
    let t2 = Instant::now();
    out.latency_ms = ms(t2 - t0);
    let status = match status {
        Ok(status) => status,
        Err(e) => {
            out.output = Err(e);
            return out;
        }
    };
    let field = |k: &str| status.get(k).and_then(Json::as_u64).unwrap_or(0);
    out.exec_ms = field("wall_ms") as f64;
    out.queue_ms = (ms(t2 - t1) - out.exec_ms).max(0.0);
    let state = status
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let interrupted = status
        .get("interrupted")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    out.output = if state != "done" {
        Err(format!("{}: {state}", job.label))
    } else if interrupted {
        Err(format!("{}: sweep interrupted", job.label))
    } else if field("guard_pass_sampled") > 0 {
        Err(format!("{}: sampled guard pass", job.label))
    } else {
        let t3 = Instant::now();
        let fetched = rec.span("serve.fetch", span_id, |_| client.result(id));
        out.fetch_ms = ms(t3.elapsed());
        fetched
    };
    out
}
