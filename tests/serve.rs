//! End-to-end tests for the `boolsubst-serve` daemon: admission
//! control, job lifecycle, journal replay, and the metrics surface.
//! Every server binds port 0 and journals into a per-test temp file, so
//! the tests are hermetic and parallel-safe.

use boolsubst::core::verify::networks_equivalent;
use boolsubst::network::{ingest, write_blif, Format};
use boolsubst::serve::{Client, JobRequest, JobSpec, Journal, ServeConfig, Server, Shed};
use boolsubst::trace::json::Json;
use boolsubst::workloads::generator::{random_network, GeneratorParams};
use boolsubst::SubstMode;
use std::path::PathBuf;
use std::time::Duration;

/// A fresh journal path under the target-adjacent temp dir.
fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("boolsubst-serve-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(format!(
        "{tag}-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn test_config(tag: &str) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        journal_path: journal_path(tag),
        drain_deadline: Duration::from_secs(20),
        ..ServeConfig::default()
    }
}

fn payload(seed: u64) -> Vec<u8> {
    write_blif(&random_network(seed, &GeneratorParams::default())).into_bytes()
}

fn spec(tenant: &str, payload: Vec<u8>) -> JobSpec {
    JobSpec {
        id: 0,
        tenant: tenant.to_string(),
        format: Format::Blif,
        mode: SubstMode::Extended,
        deadline_ms: Some(30_000),
        sat_conflicts: 500,
        rar_checks: 0,
        chaos: None,
        payload,
    }
}

#[test]
fn end_to_end_job_roundtrip_preserves_functionality() {
    let config = test_config("e2e");
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    let mut client = Client::new(server.local_addr().to_string());

    let golden = random_network(41, &GeneratorParams::default());
    let req = JobRequest::new(write_blif(&golden).into_bytes());
    let view = client
        .submit_and_wait(&req, Duration::from_secs(60))
        .expect("job terminal");
    assert_eq!(view.state, "done", "error: {:?}", view.error);

    // The optimized netlist must parse and compute the same functions.
    let bytes = client.result(view.id).expect("result bytes");
    let optimized = ingest(&bytes, Format::Blif, "optimized").expect("parse result");
    assert!(
        networks_equivalent(&golden, &optimized),
        "daemon returned a non-equivalent netlist"
    );

    // The metrics surface carries the service counters.
    let prom = client.metrics_text().expect("metrics");
    assert!(prom.contains("serve_jobs_accepted"), "{prom}");
    assert!(prom.contains("serve_jobs_done"), "{prom}");
    assert!(prom.contains("serve_job_ms"), "{prom}");

    assert!(server.join(), "drain within deadline");
    let audit = boolsubst::serve::audit(&journal).expect("audit");
    assert!(audit.lost.is_empty(), "lost jobs: {:?}", audit.lost);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn full_queue_sheds_429_with_retry_after() {
    let config = ServeConfig {
        workers: 0, // nothing drains the queue: shedding is deterministic
        max_queue: 2,
        ..test_config("shed-queue")
    };
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    let client = Client::new(server.local_addr().to_string());

    let headers = vec![("x-tenant".to_string(), "t".to_string())];
    for _ in 0..2 {
        let resp = client
            .request("POST", "/jobs", &headers, &payload(1))
            .expect("submit");
        assert_eq!(resp.status, 202);
    }
    let resp = client
        .request("POST", "/jobs", &headers, &payload(1))
        .expect("submit");
    assert_eq!(resp.status, 429, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(String::from_utf8_lossy(&resp.body).contains("queue_full"));

    assert!(server.join());
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn tenant_cap_sheds_only_the_greedy_tenant() {
    let config = ServeConfig {
        workers: 0,
        max_queue: 64,
        tenant_cap: 1,
        ..test_config("shed-tenant")
    };
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    let state = server.state();

    assert!(state.submit(spec("greedy", payload(1))).is_ok());
    match state.submit(spec("greedy", payload(1))) {
        Err(Shed::TenantCap) => {}
        other => panic!("expected tenant-cap shed, got {other:?}"),
    }
    // A different tenant is unaffected by the greedy one's cap.
    assert!(state.submit(spec("modest", payload(1))).is_ok());

    assert!(server.join());
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn draining_daemon_sheds_503() {
    let config = ServeConfig {
        workers: 0,
        ..test_config("shed-drain")
    };
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    server.state().drain();
    match server.state().submit(spec("t", payload(1))) {
        Err(Shed::Draining) => {
            assert_eq!(Shed::Draining.status(), 503);
            assert_eq!(Shed::Draining.retry_after_secs(), 5);
        }
        other => panic!("expected draining shed, got {other:?}"),
    }
    assert!(server.join());
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn journal_replay_finishes_jobs_the_previous_daemon_left_behind() {
    let journal = journal_path("replay");

    // Incarnation 1: no workers, so the accepted job never starts. Drop
    // the server without draining — the crash-only path: the journal is
    // the only thing the next incarnation gets.
    let config1 = ServeConfig {
        workers: 0,
        addr: "127.0.0.1:0".to_string(),
        journal_path: journal.clone(),
        ..ServeConfig::default()
    };
    let server1 = Server::start(config1).expect("start 1");
    let mut client1 = Client::new(server1.local_addr().to_string());
    let golden = random_network(43, &GeneratorParams::default());
    let id = client1
        .submit(&JobRequest::new(write_blif(&golden).into_bytes()))
        .expect("accepted");
    server1.drain(); // stop the listener; the queued job stays in-flight
    drop(server1);

    // Incarnation 2 replays the journal and re-queues the job.
    let config2 = ServeConfig {
        workers: 2,
        addr: "127.0.0.1:0".to_string(),
        journal_path: journal.clone(),
        drain_deadline: Duration::from_secs(20),
        ..ServeConfig::default()
    };
    let server2 = Server::start(config2).expect("start 2");
    let client2 = Client::new(server2.local_addr().to_string());
    let view = client2
        .wait(id, Duration::from_secs(60))
        .expect("replayed job terminal");
    assert_eq!(view.state, "done", "error: {:?}", view.error);
    let bytes = client2.result(id).expect("result");
    let optimized = ingest(&bytes, Format::Blif, "optimized").expect("parse");
    assert!(networks_equivalent(&golden, &optimized));

    assert!(server2.join());
    let audit = boolsubst::serve::audit(&journal).expect("audit");
    assert_eq!(audit.accepted, 1);
    assert!(audit.lost.is_empty(), "lost: {:?}", audit.lost);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn replay_poisoned_job_answers_poisoned_not_404() {
    // A previous incarnation accepted job 3 and died twice while running
    // it: replay poisons it instead of re-queueing.
    let config = test_config("poisoned");
    {
        let mut journal = Journal::open(&config.journal_path).expect("open");
        journal.accepted(&JobSpec {
            id: 3,
            ..spec("default", payload(44))
        });
        journal.started(3, 1);
        journal.started(3, 2);
    }
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    let client = Client::new(server.local_addr().to_string());
    let resp = client.request("GET", "/jobs/3", &[], b"").expect("poll");
    assert_eq!(resp.status, 200, "a poisoned job is known");
    let view = resp.json().expect("json");
    assert_eq!(view.get("state").and_then(Json::as_str), Some("poisoned"));
    assert_eq!(view.get("attempt").and_then(Json::as_u64), Some(2));
    assert!(server.join());
    let audit = boolsubst::serve::audit(&journal).expect("audit");
    assert_eq!(audit.terminal.get("poisoned"), Some(&1));
    assert!(audit.lost.is_empty(), "lost: {:?}", audit.lost);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn finished_jobs_drop_their_payload_but_keep_result_and_journal() {
    let config = test_config("payload-drop");
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    let mut client = Client::new(server.local_addr().to_string());

    let golden = random_network(44, &GeneratorParams::default());
    let input = write_blif(&golden).into_bytes();
    let view = client
        .submit_and_wait(&JobRequest::new(input.clone()), Duration::from_secs(60))
        .expect("job terminal");
    assert_eq!(view.state, "done", "error: {:?}", view.error);

    // The finished record no longer holds the input netlist...
    let record = server.state().job(view.id).expect("record");
    assert!(
        record.spec.payload.is_empty(),
        "payload kept after completion"
    );
    // ...while GET /jobs/<id>/result still serves the optimized one.
    let bytes = client.result(view.id).expect("result bytes");
    let optimized = ingest(&bytes, Format::Blif, "optimized").expect("parse result");
    assert!(networks_equivalent(&golden, &optimized));
    assert!(server.join(), "drain within deadline");

    // Replay reads the journal: the job is terminal there...
    let replayed = boolsubst::serve::replay(&journal).expect("replay");
    assert_eq!(replayed.accepted, 1);
    assert!(replayed.requeue.is_empty());
    assert_eq!(
        replayed.terminal.get(&view.id).map(String::as_str),
        Some("done")
    );
    // ...and its accepted event still carries the full input: with the
    // later events cut off, replay re-queues the job with its payload.
    let text = std::fs::read_to_string(&journal).expect("read journal");
    let accepted_only: String = text
        .lines()
        .filter(|l| l.contains("\"accepted\""))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&journal, accepted_only).expect("rewrite journal");
    let replayed = boolsubst::serve::replay(&journal).expect("replay");
    assert_eq!(replayed.requeue.len(), 1);
    assert_eq!(replayed.requeue[0].0.payload, input);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn malformed_requests_get_typed_4xx_answers() {
    let config = test_config("http-reject");
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    let client = Client::new(server.local_addr().to_string());

    // Unknown mode: 400 with a message naming the bad parameter.
    let resp = client
        .request(
            "POST",
            "/jobs",
            &[("x-mode".to_string(), "quantum".to_string())],
            &payload(1),
        )
        .expect("roundtrip");
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("x-mode"));

    // Empty body: 400, not a queued garbage job.
    let resp = client
        .request("POST", "/jobs", &[], b"")
        .expect("roundtrip");
    assert_eq!(resp.status, 400);

    // Unknown endpoint: 404.
    let resp = client.request("GET", "/nope", &[], b"").expect("roundtrip");
    assert_eq!(resp.status, 404);

    // Unknown job id: 404.
    let resp = client
        .request("GET", "/jobs/999999", &[], b"")
        .expect("roundtrip");
    assert_eq!(resp.status, 404);

    // No jobs were admitted by any of that.
    let prom = client.metrics_text().expect("metrics");
    assert!(
        !prom.contains("serve_jobs_accepted 1"),
        "rejections must not admit jobs: {prom}"
    );
    assert!(server.join());
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn healthz_flips_when_draining() {
    let config = ServeConfig {
        workers: 0,
        ..test_config("healthz")
    };
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    let client = Client::new(server.local_addr().to_string());
    assert_eq!(client.healthz(), Ok(true));
    server.state().drain();
    // The accept loop drops every connection it accepts after the drain
    // unrouted and then closes the listener, so no probe gets through.
    let probe = client.healthz();
    assert!(probe.is_err(), "draining daemon answered {probe:?}");
    assert!(server.join());
    let _ = std::fs::remove_file(&journal);
}

/// Runs `f` on a detached helper thread, so that a hang fails the
/// caller's `recv_timeout` instead of stalling the test run; the receiver
/// yields its result.
fn spawn_watched<T: Send + 'static>(
    f: impl FnOnce() -> T + Send + 'static,
) -> std::sync::mpsc::Receiver<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx
}

#[test]
fn join_returns_without_traffic() {
    // The accept thread blocks in accept(); join must wake it itself.
    let config = ServeConfig {
        workers: 0,
        ..test_config("join-idle")
    };
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    let drained = spawn_watched(move || server.join())
        .recv_timeout(Duration::from_secs(5))
        .expect("Server::join did not return within 5 s");
    assert!(drained);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn shutdown_request_ends_serve_forever() {
    // No workers: no worker exit wakes serve_forever, only the drain.
    let config = ServeConfig {
        workers: 0,
        ..test_config("serve-forever")
    };
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    let client = Client::new(server.local_addr().to_string());
    let done = spawn_watched(move || server.serve_forever());
    client.shutdown().expect("shutdown");
    let drained = done
        .recv_timeout(Duration::from_secs(5))
        .expect("serve_forever did not return within 5 s of POST /shutdown");
    assert!(drained);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn sequential_requests_skip_the_accept_tick() {
    // One connection per request: a listener that sleep-polls makes each
    // round trip wait for its tick. The median keeps a loaded host from
    // flaking the bound.
    let config = ServeConfig {
        workers: 0,
        ..test_config("accept-tick")
    };
    let journal = config.journal_path.clone();
    let server = Server::start(config).expect("start");
    let client = Client::new(server.local_addr().to_string());
    let mut trips: Vec<Duration> = (0..21)
        .map(|_| {
            let t0 = std::time::Instant::now();
            assert_eq!(client.healthz(), Ok(true));
            t0.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median /healthz round trip {median:?}: {trips:?}"
    );
    assert!(server.join());
    let _ = std::fs::remove_file(&journal);
}
