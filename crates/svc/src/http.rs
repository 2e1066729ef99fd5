//! Minimal HTTP/1.1 + JSON transport over [`std::net::TcpListener`].
//!
//! This is deliberately not a web framework: one thread per
//! connection, persistent HTTP/1.1 connections (RFC 9112 §9.3), and
//! exactly the four routes the service contract needs:
//!
//! | route | meaning |
//! |---|---|
//! | `GET /v1/healthz` | liveness probe |
//! | `POST /v1/jobs` | submit a spec (body = [`ckpt_harness::ExperimentSpec`] JSON, `X-Tenant` header) → job id |
//! | `GET /v1/jobs/{id}` | poll status |
//! | `GET /v1/jobs/{id}/result` | the stored result bytes, verbatim |
//! | `GET /v1/jobs/{id}/progress` | chunked JSONL progress stream until the job is terminal |
//!
//! The result route serves the [`crate::store::JobStore`] bytes
//! unmodified, so two clients fetching the same job — or one client
//! resubmitting an identical spec — can compare responses with `cmp`.
//!
//! A connection serves requests one after another, each read to the
//! end of its `Content-Length` body, with pipelined bytes kept for the
//! next. Every request has 5 s to arrive, counted from the end of the
//! previous response, so an idle, stalled or trickling connection is
//! dropped after 5 s. The server closes the connection
//! after a response, and says `Connection: close` in it, when the
//! request said `Connection: close`, was HTTP/1.0 without
//! `keep-alive`, was refused, or asked for the chunked progress
//! stream. A request with `Transfer-Encoding` or with more than one
//! `Content-Length` is refused with 400: its body could otherwise be
//! read as the next request.

use crate::sched::{JobStatus, Scheduler};
use ckpt_harness::json::JsonValue;
use ckpt_harness::CkptError;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest request body the server will read (a spec is ~1 KiB).
const MAX_BODY: usize = 1 << 20;
/// Longest request or header line the server buffers, CRLF included.
const MAX_LINE: usize = 8 << 10;
/// Most header lines one request may carry.
const MAX_HEADERS: usize = 64;
/// Longest `X-Tenant` value. Each tenant with queued work holds its own
/// queue in the scheduler, so tenant names are kept short.
const MAX_TENANT: usize = 64;
/// Most unread bytes discarded when the server ends a connection (see
/// [`linger`]).
const DRAIN_LIMIT: u64 = 64 << 10;
/// Time allowed for that discarding.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(200);
/// Time a connection has to deliver each whole request (counted from
/// the previous response, so it also bounds an idle connection), and
/// to accept each write of a response: a client that idles, stalls or
/// trickles its request, or stops reading a response, frees its thread
/// after this long.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Poll cadence of the chunked progress stream.
const PROGRESS_POLL: Duration = Duration::from_millis(25);

/// The `ckptsim serve` listener: owns the scheduler and serves it over
/// plain TCP.
pub struct Server {
    listener: TcpListener,
    sched: Arc<Scheduler>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) in front
    /// of `sched`.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, sched: Scheduler) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            sched: Arc::new(sched),
        })
    }

    /// Shared handle to the scheduler behind this server — for
    /// embedders (and tests) that inspect the job table directly.
    #[must_use]
    pub fn scheduler(&self) -> Arc<Scheduler> {
        Arc::clone(&self.sched)
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Socket introspection failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept loop: one thread per connection, forever, each bounded
    /// by a per-request deadline and a per-write timeout. Only returns
    /// on an accept error.
    ///
    /// # Errors
    ///
    /// Fatal accept failures.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = stream?;
            let sched = Arc::clone(&self.sched);
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &sched);
            });
        }
        Ok(())
    }
}

struct Request {
    method: String,
    path: String,
    tenant: String,
    body: String,
    /// The connection ends after this request's response: it said
    /// `Connection: close`, or is HTTP/1.0 without `keep-alive`, or
    /// names no version this server keeps open.
    close: bool,
}

/// Reads one request from a connection's `reader`. A connection closed
/// before the request line yields `None`, and so does a request the
/// server refuses to read: a line longer than [`MAX_LINE`] or more than
/// [`MAX_HEADERS`] header lines is answered with 431, an `X-Tenant`
/// longer than [`MAX_TENANT`], an unparseable or repeated
/// `Content-Length`, any `Transfer-Encoding` or a body that ends before
/// its `Content-Length` with 400, and a `Content-Length` above
/// [`MAX_BODY`] with 413, so a handler never sees a cut-off request and
/// no body is ever parsed as the next request. A request not read in
/// full before the reader's deadline is a `TimedOut` error.
fn read_request(reader: &mut BufReader<Deadline>) -> std::io::Result<Option<Request>> {
    const TOO_LARGE: (u16, &str) = (431, "Request Header Fields Too Large");
    const BAD: (u16, &str) = (400, "Bad Request");
    let Some(line) = read_line(reader)? else {
        let message = format!("request line exceeds {MAX_LINE} bytes");
        return refuse(reader, TOO_LARGE, &message);
    };
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    let mut content_length = Some(0usize);
    let mut content_lengths = 0;
    let mut transfer_encoding = false;
    let (mut says_close, mut says_keep_alive) = (false, false);
    let mut tenant = "default".to_string();
    let mut headers = 0;
    loop {
        let Some(header) = read_line(reader)? else {
            let message = format!("header line exceeds {MAX_LINE} bytes");
            return refuse(reader, TOO_LARGE, &message);
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            let message = format!("more than {MAX_HEADERS} header lines");
            return refuse(reader, TOO_LARGE, &message);
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
                content_lengths += 1;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                transfer_encoding = true;
            } else if name.eq_ignore_ascii_case("connection") {
                for option in value.split(',').map(str::trim) {
                    says_close |= option.eq_ignore_ascii_case("close");
                    says_keep_alive |= option.eq_ignore_ascii_case("keep-alive");
                }
            } else if name.eq_ignore_ascii_case("x-tenant") && !value.is_empty() {
                if value.len() > MAX_TENANT {
                    let message = format!("X-Tenant exceeds {MAX_TENANT} bytes");
                    return refuse(reader, BAD, &message);
                }
                tenant = value.to_string();
            }
        }
    }
    if transfer_encoding {
        return refuse(reader, BAD, "Transfer-Encoding is not supported");
    }
    if content_lengths > 1 {
        return refuse(reader, BAD, "more than one Content-Length");
    }
    let content_length = match content_length {
        Some(n) if n <= MAX_BODY => n,
        Some(n) => {
            let message = format!("request body of {n} bytes exceeds the {MAX_BODY}-byte limit");
            return refuse(reader, (413, "Payload Too Large"), &message);
        }
        None => return refuse(reader, BAD, "unparseable Content-Length"),
    };
    let mut body = Vec::with_capacity(content_length);
    reader
        .by_ref()
        .take(content_length as u64)
        .read_to_end(&mut body)?;
    if body.len() < content_length {
        let message = format!(
            "request body ended after {} of {content_length} bytes",
            body.len()
        );
        return refuse(reader, BAD, &message);
    }
    let close = match version {
        "HTTP/1.1" => says_close,
        "HTTP/1.0" => says_close || !says_keep_alive,
        _ => true,
    };
    Ok(Some(Request {
        method,
        path,
        tenant,
        body: utf8_text(body),
        close,
    }))
}

/// A connection's read half with one deadline per request: each read
/// may block only for the time left before it, so a client sending a
/// byte at a time cannot hold the connection longer than a silent one.
struct Deadline {
    stream: TcpStream,
    at: Instant,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one line of at most [`MAX_LINE`] bytes, terminator included
/// (empty at end of stream); `None` if the line is longer.
fn read_line(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(MAX_LINE as u64)
        .read_until(b'\n', &mut line)?;
    if line.len() == MAX_LINE && line.last() != Some(&b'\n') {
        return Ok(None);
    }
    Ok(Some(utf8_text(line)))
}

/// `bytes` as text without a copy when they are UTF-8; otherwise each
/// invalid sequence becomes U+FFFD, as [`String::from_utf8_lossy`] does.
pub(crate) fn utf8_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Answers a request the server will not read to the end, and ends the
/// connection (see [`linger`]).
fn refuse(
    reader: &mut BufReader<Deadline>,
    (status, reason): (u16, &str),
    message: &str,
) -> std::io::Result<Option<Request>> {
    respond(
        &reader.get_ref().stream,
        status,
        reason,
        &error_body(message),
        true,
    )?;
    Ok(None)
}

/// Ends a connection: sends FIN, then discards what the client has
/// already sent (within [`DRAIN_LIMIT`] and [`DRAIN_TIMEOUT`]), because
/// closing a socket with unread input resets the connection, which can
/// destroy the last answer before the client reads it.
fn linger(reader: &mut BufReader<Deadline>) {
    let _ = reader.get_ref().stream.shutdown(Shutdown::Write);
    reader.get_mut().at = Instant::now() + DRAIN_TIMEOUT;
    let _ = std::io::copy(&mut reader.by_ref().take(DRAIN_LIMIT), &mut std::io::sink());
}

/// Writes one `Content-Length` response in a single `write_all`: each
/// write on a raw [`TcpStream`] is a syscall, and on loopback a segment.
/// `close` adds `Connection: close`; the caller then ends the
/// connection.
fn respond(
    mut out: &TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    let mut message = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{connection}\r\n",
        body.len()
    );
    message.push_str(body);
    out.write_all(message.as_bytes())
}

fn error_body(message: &str) -> String {
    let doc = JsonValue::Object(vec![
        ("kind".to_string(), JsonValue::from_text("error")),
        ("message".to_string(), JsonValue::from_text(message)),
    ]);
    let mut out = doc.to_json();
    out.push('\n');
    out
}

fn status_body(id: &str, status: &JobStatus) -> String {
    let mut fields = vec![
        ("kind".to_string(), JsonValue::from_text("job_status")),
        ("id".to_string(), JsonValue::from_text(id)),
    ];
    match status {
        JobStatus::Queued => {
            fields.push(("state".to_string(), JsonValue::from_text("queued")));
        }
        JobStatus::Running { completed, total } => {
            fields.push(("state".to_string(), JsonValue::from_text("running")));
            fields.push((
                "completed".to_string(),
                JsonValue::from_u64(*completed as u64),
            ));
            fields.push(("total".to_string(), JsonValue::from_u64(*total as u64)));
        }
        JobStatus::Done { cached } => {
            fields.push(("state".to_string(), JsonValue::from_text("done")));
            fields.push(("cached".to_string(), JsonValue::Bool(*cached)));
        }
        JobStatus::Failed { message } => {
            fields.push(("state".to_string(), JsonValue::from_text("failed")));
            fields.push(("message".to_string(), JsonValue::from_text(message)));
        }
    }
    let mut out = JsonValue::Object(fields).to_json();
    out.push('\n');
    out
}

fn submit_body(id: &str, cached: bool, deduplicated: bool) -> String {
    let doc = JsonValue::Object(vec![
        ("kind".to_string(), JsonValue::from_text("job_accepted")),
        ("id".to_string(), JsonValue::from_text(id)),
        ("cached".to_string(), JsonValue::Bool(cached)),
        ("deduplicated".to_string(), JsonValue::Bool(deduplicated)),
    ]);
    let mut out = doc.to_json();
    out.push('\n');
    out
}

/// Serves requests on one connection until the client closes it, a
/// response ends it (see [`Request::close`], [`refuse`] and
/// [`stream_progress`]) or a request misses its [`IO_TIMEOUT`] deadline.
/// The reader lives as long as the connection, so pipelined bytes stay
/// buffered for the next request.
fn handle_connection(stream: TcpStream, sched: &Scheduler) -> std::io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(Deadline {
        stream,
        at: Instant::now(),
    });
    loop {
        reader.get_mut().at = Instant::now() + IO_TIMEOUT;
        let Some(req) = read_request(&mut reader)? else {
            break;
        };
        if !serve(&reader.get_ref().stream, sched, &req)? {
            break;
        }
    }
    linger(&mut reader);
    Ok(())
}

/// A `Content-Length` response: status, reason phrase and body.
type Answer = (u16, &'static str, String);

/// Answers one request; says whether the connection stays open.
fn serve(out: &TcpStream, sched: &Scheduler, req: &Request) -> std::io::Result<bool> {
    let (status, reason, body) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => (
            200,
            "OK",
            "{\"kind\":\"health\",\"status\":\"ok\"}\n".to_string(),
        ),
        ("POST", "/v1/jobs") => match sched.submit_json(&req.tenant, &req.body) {
            Ok(accepted) => (
                200,
                "OK",
                submit_body(&accepted.id, accepted.cached, accepted.deduplicated),
            ),
            Err(CkptError::Spec(e)) => (400, "Bad Request", error_body(&e.to_string())),
            Err(e) => server_error(&e),
        },
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            if let Some(id) = rest.strip_suffix("/result") {
                route_result(sched, id)
            } else if let Some(id) = rest.strip_suffix("/progress") {
                if sched.progress(id, 0).is_some() {
                    stream_progress(out, sched, id)?;
                    return Ok(false);
                }
                (404, "Not Found", error_body("unknown job"))
            } else {
                route_status(sched, rest)
            }
        }
        _ => (404, "Not Found", error_body("no such route")),
    };
    respond(out, status, reason, &body, req.close)?;
    Ok(!req.close)
}

fn route_status(sched: &Scheduler, id: &str) -> Answer {
    match sched.status(id) {
        Ok(Some(status)) => (200, "OK", status_body(id, &status)),
        Ok(None) => (404, "Not Found", error_body("unknown job")),
        Err(e) => server_error(&e),
    }
}

fn route_result(sched: &Scheduler, id: &str) -> Answer {
    match sched.result(id) {
        // Verbatim stored bytes: this is the byte-identity contract.
        Ok(Some(body)) => (200, "OK", body),
        Ok(None) => (404, "Not Found", error_body("result not available")),
        Err(e) => server_error(&e),
    }
}

/// Streams the job's progress lines as chunked JSONL, polling the
/// scheduler until the job reaches a terminal state. The stream ends
/// the connection, so it says `Connection: close`.
fn stream_progress(mut out: &TcpStream, sched: &Scheduler, id: &str) -> std::io::Result<()> {
    let mut message = String::from(
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    );
    let mut cursor = 0usize;
    while let Some((lines, terminal)) = sched.progress(id, cursor) {
        for line in &lines {
            // One chunk per line: its size counts the line's newline.
            let _ = write!(message, "{:x}\r\n{line}\n\r\n", line.len() + 1);
        }
        cursor += lines.len();
        if terminal {
            break;
        }
        if !message.is_empty() {
            out.write_all(message.as_bytes())?;
            message.clear();
        }
        std::thread::sleep(PROGRESS_POLL);
    }
    message.push_str("0\r\n\r\n");
    out.write_all(message.as_bytes())
}

fn server_error(e: &CkptError) -> Answer {
    (500, "Internal Server Error", error_body(&e.to_string()))
}
