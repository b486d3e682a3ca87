//! A deliberately small HTTP/1.1 layer over `std::io`.
//!
//! The daemon keeps the workspace's no-external-deps posture, so this
//! module hand-rolls exactly the subset the service needs: one request
//! per connection (`Connection: close`), bounded request line, bounded
//! header block, and a `Content-Length`-framed body. Every bound
//! violation and every truncation is a *typed* [`HttpError`] so the
//! server can attribute malformed traffic in the journal instead of
//! panicking or hanging on a hostile peer.
//!
//! Parsing takes any [`Read`], so the whole grammar is testable against
//! in-memory byte slices (including truncated ones) without sockets.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Hard bounds on what one request may look like. Defaults are generous
/// for netlists but small enough that a hostile peer cannot balloon the
/// daemon's memory.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Longest accepted request line (method + path + version), bytes.
    pub max_request_line: usize,
    /// Most header lines accepted.
    pub max_headers: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_line: usize,
    /// Largest accepted `Content-Length`, bytes.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits {
            max_request_line: 8 * 1024,
            max_headers: 64,
            max_header_line: 8 * 1024,
            max_body: 64 * 1024 * 1024,
        }
    }
}

/// Why a request could not be read. Every variant maps to a 4xx status
/// (see [`HttpError::status`]) and a journal-able label.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed before a full request line arrived.
    ClosedEarly,
    /// The request line is malformed or over the line bound.
    BadRequestLine,
    /// A header line is malformed, oversized, or there are too many.
    BadHeader,
    /// `Content-Length` is missing on a method that requires a body, or
    /// is not a number.
    BadContentLength,
    /// The declared body length exceeds [`HttpLimits::max_body`].
    BodyTooLarge,
    /// The peer closed the stream before sending the declared body: a
    /// truncated upload, detected rather than hung on.
    TruncatedBody,
    /// Transport-level read failure.
    Io(String),
}

impl HttpError {
    /// The HTTP status code this error should be answered with.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BodyTooLarge => 413,
            HttpError::Io(_) => 500,
            _ => 400,
        }
    }

    /// Stable lowercase label for journal/metric attribution.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            HttpError::ClosedEarly => "closed_early",
            HttpError::BadRequestLine => "bad_request_line",
            HttpError::BadHeader => "bad_header",
            HttpError::BadContentLength => "bad_content_length",
            HttpError::BodyTooLarge => "body_too_large",
            HttpError::TruncatedBody => "truncated_body",
            HttpError::Io(_) => "io",
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            other => f.write_str(other.label()),
        }
    }
}

/// One parsed request: method, path, lowercased header map, raw body.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (no query parsing — the API doesn't use
    /// query strings).
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body (empty when the header is absent
    /// on body-less methods).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one bounded CRLF- (or LF-) terminated line. `Ok(None)` means
/// clean EOF before any byte.
fn read_line<R: BufRead>(r: &mut R, max: usize) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::ClosedEarly);
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return String::from_utf8(buf)
                        .map(Some)
                        .map_err(|_| HttpError::BadHeader);
                }
                if buf.len() >= max {
                    return Err(HttpError::BadRequestLine);
                }
                buf.push(byte[0]);
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
}

/// Parses one request from `stream`. Returns `Ok(None)` when the peer
/// closed without sending anything (a polling health checker's probe).
pub fn read_request<R: Read>(stream: R, limits: &HttpLimits) -> Result<Option<Request>, HttpError> {
    let mut r = BufReader::new(stream);
    let Some(line) = read_line(&mut r, limits.max_request_line)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if v.starts_with("HTTP/1.") => (m, p, v),
        _ => return Err(HttpError::BadRequestLine),
    };
    let _ = version;
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut r, limits.max_header_line)?.ok_or(HttpError::ClosedEarly)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::BadHeader);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadHeader);
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadContentLength)?,
        None => 0,
    };
    if content_length > limits.max_body {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::TruncatedBody),
            Ok(n) => filled += n,
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Canonical reason phrase for the status codes the daemon emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one `Connection: close` response with the given extra headers.
/// Write failures are swallowed: the peer may have hung up, and a dead
/// connection must never take the serving thread down with it.
pub fn write_response<W: Write>(
    mut stream: W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write per message: a separate small head write risks a
    // Nagle/delayed-ACK stall before the body goes out.
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    let _ = stream.write_all(&message);
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(bytes, &HttpLimits::default())
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /jobs HTTP/1.1\r\nX-Tenant: acme\r\ncontent-length: 5\r\n\r\nhello")
            .expect("parse")
            .expect("some");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("x-tenant"), Some("acme"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_bare_lf_lines_and_empty_body() {
        let req = parse(b"GET /healthz HTTP/1.1\nhost: x\n\n")
            .expect("parse")
            .expect("some");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn empty_connection_is_none() {
        assert!(parse(b"").expect("ok").is_none());
    }

    #[test]
    fn truncated_body_is_typed() {
        let err = parse(b"POST /jobs HTTP/1.1\r\ncontent-length: 100\r\n\r\nshort").unwrap_err();
        assert_eq!(err, HttpError::TruncatedBody);
        assert_eq!(err.status(), 400);
        assert_eq!(err.label(), "truncated_body");
    }

    #[test]
    fn truncated_headers_are_typed() {
        let err = parse(b"POST /jobs HTTP/1.1\r\ncontent-len").unwrap_err();
        assert_eq!(err, HttpError::ClosedEarly);
    }

    #[test]
    fn garbage_request_line_is_typed() {
        assert_eq!(
            parse(b"ZZZZ\r\n\r\n").unwrap_err(),
            HttpError::BadRequestLine
        );
        assert_eq!(
            parse(b"GET /x SPDY/9\r\n\r\n").unwrap_err(),
            HttpError::BadRequestLine
        );
    }

    #[test]
    fn oversized_body_is_rejected_before_allocation() {
        let limits = HttpLimits {
            max_body: 10,
            ..HttpLimits::default()
        };
        let err = read_request(
            &b"POST /jobs HTTP/1.1\r\ncontent-length: 11\r\n\r\n0123456789X"[..],
            &limits,
        )
        .unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge);
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn header_bounds_are_enforced() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..65 {
            raw.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(parse(&raw).unwrap_err(), HttpError::BadHeader);
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n").unwrap_err(),
            HttpError::BadHeader
        );
    }

    #[test]
    fn response_writes_status_line_and_headers() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "application/json",
            &[("retry-after", "1".to_string())],
            b"{}",
        );
        let text = String::from_utf8(out).expect("utf8");
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }
}
