//! Minimal HTTP/1.1 + JSON transport over [`std::net::TcpListener`].
//!
//! This is deliberately not a web framework: one thread per
//! connection, one request per connection (`Connection: close`), and
//! exactly the four routes the service contract needs:
//!
//! | route | meaning |
//! |---|---|
//! | `GET /v1/healthz` | liveness probe |
//! | `POST /v1/jobs` | submit a spec (body = [`ExperimentSpec`] JSON, `X-Tenant` header) → job id |
//! | `GET /v1/jobs/{id}` | poll status |
//! | `GET /v1/jobs/{id}/result` | the stored result bytes, verbatim |
//! | `GET /v1/jobs/{id}/progress` | chunked JSONL progress stream until the job is terminal |
//!
//! The result route serves the [`crate::store::JobStore`] bytes
//! unmodified, so two clients fetching the same job — or one client
//! resubmitting an identical spec — can compare responses with `cmp`.

use crate::sched::{JobStatus, Scheduler};
use ckpt_harness::json::JsonValue;
use ckpt_harness::{CkptError, ExperimentSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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
/// Most bytes of a refused request still read and discarded (see
/// [`refuse`]).
const DRAIN_LIMIT: u64 = 64 << 10;
/// Time allowed for draining a refused request.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(200);
/// Time a connection has to deliver its whole request, and to accept
/// each write of the response: a client that stalls or trickles its
/// request, or stops reading a response, frees its thread after this
/// long.
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
    /// by a request deadline and a per-write timeout. Only returns on
    /// an accept error.
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
}

/// Reads one request. A connection closed before its request line
/// yields `None`, and so does a request the server refuses to read:
/// a line longer than [`MAX_LINE`] or more than [`MAX_HEADERS`] header
/// lines is answered with 431, an `X-Tenant` longer than
/// [`MAX_TENANT`] or an unparseable `Content-Length` with 400, and a
/// `Content-Length` above [`MAX_BODY`] with 413, so a handler never
/// sees a cut-off request. A request not read in full within
/// [`IO_TIMEOUT`] is a `TimedOut` error.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    const TOO_LARGE: (u16, &str) = (431, "Request Header Fields Too Large");
    const BAD: (u16, &str) = (400, "Bad Request");
    let mut reader = BufReader::new(Deadline {
        stream: stream.try_clone()?,
        at: Instant::now() + IO_TIMEOUT,
    });
    let Some(line) = read_line(&mut reader)? else {
        let message = format!("request line exceeds {MAX_LINE} bytes");
        return refuse(stream, &mut reader, TOO_LARGE, &message);
    };
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let mut content_length = Some(0usize);
    let mut tenant = "default".to_string();
    let mut headers = 0;
    loop {
        let Some(header) = read_line(&mut reader)? else {
            let message = format!("header line exceeds {MAX_LINE} bytes");
            return refuse(stream, &mut reader, TOO_LARGE, &message);
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            let message = format!("more than {MAX_HEADERS} header lines");
            return refuse(stream, &mut reader, TOO_LARGE, &message);
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("x-tenant") && !value.is_empty() {
                if value.len() > MAX_TENANT {
                    let message = format!("X-Tenant exceeds {MAX_TENANT} bytes");
                    return refuse(stream, &mut reader, BAD, &message);
                }
                tenant = value.to_string();
            }
        }
    }
    let content_length = match content_length {
        Some(n) if n <= MAX_BODY => n,
        Some(n) => {
            let message = format!("request body of {n} bytes exceeds the {MAX_BODY}-byte limit");
            return refuse(stream, &mut reader, (413, "Payload Too Large"), &message);
        }
        None => return refuse(stream, &mut reader, BAD, "unparseable Content-Length"),
    };
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        tenant,
        body: String::from_utf8_lossy(&body).into_owned(),
    }))
}

/// A connection's read half with one deadline for the whole request:
/// each read may block only for the time left before it, so a client
/// sending a byte at a time cannot hold the connection longer than a
/// silent one.
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
    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
}

/// Answers a request the server will not read to the end, then
/// discards what the client has already sent (within [`DRAIN_LIMIT`]
/// and [`DRAIN_TIMEOUT`]): closing a socket with unread input resets
/// the connection, which can destroy the answer before the client
/// reads it.
fn refuse(
    stream: &mut TcpStream,
    reader: &mut BufReader<Deadline>,
    (status, reason): (u16, &str),
    message: &str,
) -> std::io::Result<Option<Request>> {
    respond(stream, status, reason, &error_body(message))?;
    reader.get_mut().at = Instant::now() + DRAIN_TIMEOUT;
    let _ = std::io::copy(&mut reader.by_ref().take(DRAIN_LIMIT), &mut std::io::sink());
    Ok(None)
}

fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
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

fn handle_connection(mut stream: TcpStream, sched: &Scheduler) -> std::io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let Some(req) = read_request(&mut stream)? else {
        return Ok(());
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => respond(
            &mut stream,
            200,
            "OK",
            "{\"kind\":\"health\",\"status\":\"ok\"}\n",
        ),
        ("POST", "/v1/jobs") => match ExperimentSpec::from_json(&req.body) {
            Ok(spec) => match sched.submit(&req.tenant, &spec) {
                Ok(out) => respond(
                    &mut stream,
                    200,
                    "OK",
                    &submit_body(&out.id, out.cached, out.deduplicated),
                ),
                Err(e) => respond(
                    &mut stream,
                    500,
                    "Internal Server Error",
                    &error_body(&e.to_string()),
                ),
            },
            Err(e) => respond(&mut stream, 400, "Bad Request", &error_body(&e.to_string())),
        },
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            if let Some(id) = rest.strip_suffix("/result") {
                route_result(&mut stream, sched, id)
            } else if let Some(id) = rest.strip_suffix("/progress") {
                route_progress(&mut stream, sched, id)
            } else {
                route_status(&mut stream, sched, rest)
            }
        }
        _ => respond(&mut stream, 404, "Not Found", &error_body("no such route")),
    }
}

fn route_status(stream: &mut TcpStream, sched: &Scheduler, id: &str) -> std::io::Result<()> {
    match sched.status(id) {
        Ok(Some(status)) => respond(stream, 200, "OK", &status_body(id, &status)),
        Ok(None) => respond(stream, 404, "Not Found", &error_body("unknown job")),
        Err(e) => io_error(stream, &e),
    }
}

fn route_result(stream: &mut TcpStream, sched: &Scheduler, id: &str) -> std::io::Result<()> {
    match sched.result(id) {
        // Verbatim stored bytes: this is the byte-identity contract.
        Ok(Some(body)) => respond(stream, 200, "OK", &body),
        Ok(None) => respond(
            stream,
            404,
            "Not Found",
            &error_body("result not available"),
        ),
        Err(e) => io_error(stream, &e),
    }
}

/// Streams the job's progress lines as chunked JSONL, polling the
/// scheduler until the job reaches a terminal state.
fn route_progress(stream: &mut TcpStream, sched: &Scheduler, id: &str) -> std::io::Result<()> {
    if sched.progress(id, 0).is_none() {
        return respond(stream, 404, "Not Found", &error_body("unknown job"));
    }
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    let mut cursor = 0usize;
    while let Some((lines, terminal)) = sched.progress(id, cursor) {
        for line in &lines {
            let chunk = format!("{line}\n");
            write!(stream, "{:x}\r\n{chunk}\r\n", chunk.len())?;
        }
        cursor += lines.len();
        if terminal {
            break;
        }
        stream.flush()?;
        std::thread::sleep(PROGRESS_POLL);
    }
    write!(stream, "0\r\n\r\n")?;
    stream.flush()
}

fn io_error(stream: &mut TcpStream, e: &CkptError) -> std::io::Result<()> {
    respond(
        stream,
        500,
        "Internal Server Error",
        &error_body(&e.to_string()),
    )
}
