//! A small blocking client for the daemon, with the retry discipline
//! the ISSUE prescribes: exponential backoff plus deterministic jitter
//! on 429/503 and transport errors, and an optional one-shot resubmit
//! when a result rests on a sampled (non-proved) guard verdict.

use crate::job::JobSpec;
use boolsubst_core::SubstMode;
use boolsubst_network::Format;
use boolsubst_trace::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A parsed HTTP response: status, lowercased headers, body bytes.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header, by lowercase name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body parsed as JSON (the API's error and status envelope).
    ///
    /// # Errors
    ///
    /// Returns the parser's message on non-JSON bodies.
    pub fn json(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| e.to_string())?;
        Json::parse(text)
    }
}

/// What one job submission should carry. Mirrors the `X-*` job-control
/// headers; `spec_headers` renders them.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Netlist bytes.
    pub payload: Vec<u8>,
    /// Payload format.
    pub format: Format,
    /// Optimization mode.
    pub mode: SubstMode,
    /// Tenant bucket.
    pub tenant: String,
    /// Per-job deadline, ms (`None`: server default).
    pub deadline_ms: Option<u64>,
    /// Tier C SAT conflict budget.
    pub sat_conflicts: u64,
    /// RAR fault-check budget per division (0 = unlimited).
    pub rar_checks: usize,
    /// Chaos directive (honoured only by `chaos`-feature servers).
    pub chaos: Option<String>,
}

impl JobRequest {
    /// A default-shaped request around a payload.
    #[must_use]
    pub fn new(payload: Vec<u8>) -> JobRequest {
        JobRequest {
            payload,
            format: Format::Blif,
            mode: SubstMode::Extended,
            tenant: "default".to_string(),
            deadline_ms: None,
            sat_conflicts: 2000,
            rar_checks: 0,
            chaos: None,
        }
    }
}

/// A terminal job view polled from `GET /jobs/<id>`.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Job id.
    pub id: u64,
    /// Terminal state label: `done`, `failed`, `quarantined`, `poisoned`.
    pub state: String,
    /// Substitutions (done only).
    pub substitutions: u64,
    /// Literal gain (done only).
    pub literal_gain: i64,
    /// Deadline expired mid-run (done only; the result is partial).
    pub interrupted: bool,
    /// Sampled (non-proved) guard passes — the "transient Unknown"
    /// signal the resubmit policy keys on.
    pub guard_pass_sampled: u64,
    /// Error attribution (failed/quarantined).
    pub error: Option<String>,
}

/// Deterministic xorshift64* jitter source: the client must not need a
/// clock or an RNG crate to spread its retries.
fn jitter(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Exponential backoff with jitter: `base * 2^attempt`, capped at 2 s,
/// plus up to 50% jitter.
#[must_use]
pub fn backoff_delay(base: Duration, attempt: u32, jitter_state: &mut u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(8));
    let capped = exp.min(Duration::from_secs(2));
    let jitter_ns = jitter(jitter_state) % (capped.as_nanos().max(1) / 2 + 1) as u64;
    capped + Duration::from_nanos(jitter_ns)
}

/// Blocking client for one daemon address.
#[derive(Debug)]
pub struct Client {
    addr: String,
    /// Submission attempts before giving up on shed/transport errors.
    pub max_retries: u32,
    /// Backoff base (first retry waits about this long).
    pub backoff_base: Duration,
    jitter_state: u64,
}

impl Client {
    /// A client for `addr` (`host:port`).
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            max_retries: 8,
            backoff_base: Duration::from_millis(50),
            jitter_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// One raw request/response round trip (no retries).
    ///
    /// # Errors
    ///
    /// Returns a transport-level message on connect/write/read failure
    /// or an unparseable response head.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<Response, String> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.addr,
            body.len()
        );
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        let mut message = head.into_bytes();
        message.extend_from_slice(body);
        stream
            .write_all(&message)
            .map_err(|e| format!("write: {e}"))?;
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| format!("read: {e}"))?;
        parse_response(&raw)
    }

    /// Submits a job with the full retry discipline: 429/503 responses
    /// and transport errors are retried with exponential backoff +
    /// jitter up to `max_retries` times. Returns the accepted job id.
    ///
    /// # Errors
    ///
    /// Returns a message when retries are exhausted or the server
    /// answers with a non-retryable error (e.g. 400).
    pub fn submit(&mut self, req: &JobRequest) -> Result<u64, String> {
        let mut headers = vec![
            ("x-tenant".to_string(), req.tenant.clone()),
            ("x-format".to_string(), req.format.extension().to_string()),
            ("x-mode".to_string(), req.mode.name().to_string()),
            ("x-sat-conflicts".to_string(), req.sat_conflicts.to_string()),
            ("x-rar-checks".to_string(), req.rar_checks.to_string()),
        ];
        if let Some(ms) = req.deadline_ms {
            headers.push(("x-deadline-ms".to_string(), ms.to_string()));
        }
        if let Some(chaos) = &req.chaos {
            headers.push(("x-chaos".to_string(), chaos.clone()));
        }
        let mut last_error = String::new();
        for attempt in 0..=self.max_retries {
            match self.request("POST", "/jobs", &headers, &req.payload) {
                Ok(resp) if resp.status == 202 => {
                    return resp
                        .json()?
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| "202 without id".to_string());
                }
                Ok(resp) if resp.status == 429 || resp.status == 503 => {
                    last_error = format!("shed {}", resp.status);
                }
                Ok(resp) => {
                    return Err(format!(
                        "status {}: {}",
                        resp.status,
                        String::from_utf8_lossy(&resp.body)
                    ));
                }
                Err(transport) => last_error = transport,
            }
            if attempt < self.max_retries {
                std::thread::sleep(backoff_delay(
                    self.backoff_base,
                    attempt,
                    &mut self.jitter_state,
                ));
            }
        }
        Err(format!(
            "gave up after {} attempts: {last_error}",
            self.max_retries + 1
        ))
    }

    /// Polls `GET /jobs/<id>` until the job is terminal (an evicted
    /// record, HTTP 410, reads as state `evicted`) or `timeout` passes.
    ///
    /// # Errors
    ///
    /// Returns a message on timeout or transport failure.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<JobView, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let resp = self.request("GET", &format!("/jobs/{id}"), &[], b"")?;
            if resp.status == 200 || resp.status == 410 {
                let j = resp.json()?;
                let state = j
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                if state != "queued" && state != "running" {
                    let get_u64 = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
                    return Ok(JobView {
                        id,
                        state,
                        substitutions: get_u64("substitutions"),
                        literal_gain: j.get("literal_gain").and_then(Json::as_i64).unwrap_or(0),
                        interrupted: j
                            .get("interrupted")
                            .and_then(Json::as_bool)
                            .unwrap_or(false),
                        guard_pass_sampled: get_u64("guard_pass_sampled"),
                        error: j.get("error").and_then(Json::as_str).map(String::from),
                    });
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("job {id} not terminal within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Submit + wait, with the "transient Unknown" retry: when the
    /// finished job's guard verdicts include sampled (non-proved)
    /// passes, the job is resubmitted once with a doubled SAT budget —
    /// the service-level analogue of the guard's own tier escalation.
    ///
    /// # Errors
    ///
    /// Propagates submit/wait errors.
    pub fn submit_and_wait(
        &mut self,
        req: &JobRequest,
        timeout: Duration,
    ) -> Result<JobView, String> {
        let id = self.submit(req)?;
        let view = self.wait(id, timeout)?;
        if view.state == "done" && view.guard_pass_sampled > 0 && req.sat_conflicts > 0 {
            let mut escalated = req.clone();
            escalated.sat_conflicts = req.sat_conflicts.saturating_mul(2);
            std::thread::sleep(backoff_delay(self.backoff_base, 0, &mut self.jitter_state));
            let id2 = self.submit(&escalated)?;
            let view2 = self.wait(id2, timeout)?;
            if view2.state == "done" && view2.guard_pass_sampled < view.guard_pass_sampled {
                return Ok(view2);
            }
        }
        Ok(view)
    }

    /// Fetches the optimized netlist of a done job.
    ///
    /// # Errors
    ///
    /// Returns a message when the job is not done (202/410/404) or on
    /// transport failure.
    pub fn result(&self, id: u64) -> Result<Vec<u8>, String> {
        let resp = self.request("GET", &format!("/jobs/{id}/result"), &[], b"")?;
        if resp.status == 200 {
            Ok(resp.body)
        } else {
            Err(format!(
                "status {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ))
        }
    }

    /// Scrapes `GET /metrics` (Prometheus text exposition).
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure or a non-200 answer.
    pub fn metrics_text(&self) -> Result<String, String> {
        let resp = self.request("GET", "/metrics", &[], b"")?;
        if resp.status != 200 {
            return Err(format!("status {}", resp.status));
        }
        String::from_utf8(resp.body).map_err(|e| e.to_string())
    }

    /// `GET /healthz`, `Ok(true)` when serving (false while draining).
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure.
    pub fn healthz(&self) -> Result<bool, String> {
        let resp = self.request("GET", "/healthz", &[], b"")?;
        let j = resp.json()?;
        Ok(resp.status == 200 && !j.get("draining").and_then(Json::as_bool).unwrap_or(false))
    }

    /// Requests a graceful drain (`POST /shutdown`).
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure.
    pub fn shutdown(&self) -> Result<(), String> {
        self.request("POST", "/shutdown", &[], b"").map(|_| ())
    }
}

/// Splits a raw `Connection: close` response into status, headers, body.
fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|e| e.to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line '{status_line}'"))?;
    let headers = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    Ok(Response {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    })
}

/// Renders a [`JobSpec`]-shaped summary for logs.
#[must_use]
pub fn describe(spec: &JobSpec) -> String {
    format!(
        "job {} tenant={} {} {} bytes",
        spec.id,
        spec.tenant,
        spec.mode.name(),
        spec.payload.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parsing_handles_headers_and_body() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n{\"error\":\"queue_full\"}";
        let resp = parse_response(raw).expect("parse");
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(
            resp.json()
                .expect("json")
                .get("error")
                .and_then(Json::as_str),
            Some("queue_full")
        );
    }

    #[test]
    fn backoff_grows_exponentially_and_stays_bounded() {
        let mut js = 1u64;
        let base = Duration::from_millis(50);
        let d0 = backoff_delay(base, 0, &mut js);
        let d4 = backoff_delay(base, 4, &mut js);
        let d20 = backoff_delay(base, 20, &mut js);
        assert!(d0 >= base && d0 <= base * 2, "{d0:?}");
        assert!(d4 >= Duration::from_millis(800), "{d4:?}");
        assert!(d20 <= Duration::from_secs(3), "cap holds: {d20:?}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = 7u64;
        let mut b = 7u64;
        assert_eq!(jitter(&mut a), jitter(&mut b));
        assert_ne!(jitter(&mut a), {
            let mut c = 7u64;
            jitter(&mut c)
        });
    }
}
