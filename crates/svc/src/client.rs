//! The blocking client behind `ckptsim submit/status/result`.
//!
//! Speaks the same four-route protocol as [`crate::http::Server`] over
//! a plain [`TcpStream`], and keeps one idle HTTP/1.1 connection for
//! the next request. Result bodies are returned verbatim — the client
//! never re-encodes them, so what a caller writes to disk is
//! byte-for-byte what the store holds.

use ckpt_harness::json::{parse, JsonValue};
use ckpt_harness::CkptError;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Most bytes reserved for a response body before it is read: the
/// length comes from the server, and a longer body grows as it arrives.
const RESERVE_LIMIT: usize = 1 << 20;

/// What the server said about a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReply {
    /// Job id (the spec fingerprint, 16 hex digits).
    pub id: String,
    /// Served straight from the result cache.
    pub cached: bool,
    /// Attached to an identical queued/running job.
    pub deduplicated: bool,
}

/// A client bound to one server address and tenant.
///
/// The client keeps the connection of its last finished request open
/// and sends the next request on it. A request that finds the idle
/// connection taken, because another thread is using it, opens its
/// own, so one client can stream [`Client::progress`] on one thread
/// while another polls [`Client::status`]. The server closes a
/// connection that stays idle for 5 s; a request whose reused
/// connection turns out closed (the write fails, or the connection
/// ends before any status-line byte) is sent once more on a new one.
/// That is safe because every route is idempotent: a resubmitted spec
/// is content-addressed and deduplicates.
#[derive(Debug)]
pub struct Client {
    server: String,
    tenant: String,
    idle: Mutex<Option<BufReader<TcpStream>>>,
}

/// Why a request got no response.
enum Failure {
    /// The connection was closed before the request reached the server:
    /// the write failed, or the connection ended before any byte of the
    /// status line.
    Closed(CkptError),
    /// Anything else.
    Failed(CkptError),
}

impl Clone for Client {
    /// A client for the same server and tenant, with no connection.
    fn clone(&self) -> Client {
        Client::new(&self.server, &self.tenant)
    }
}

impl Client {
    /// A client for `server` (a `host:port` address) acting as
    /// `tenant`.
    #[must_use]
    pub fn new(server: &str, tenant: &str) -> Client {
        Client {
            server: server.to_string(),
            tenant: tenant.to_string(),
            idle: Mutex::new(None),
        }
    }

    /// The server address this client talks to.
    #[must_use]
    pub fn server(&self) -> &str {
        &self.server
    }

    fn io_err(&self, message: String) -> CkptError {
        CkptError::Io {
            path: format!("http://{}", self.server),
            message,
        }
    }

    /// Sends one request, on the idle connection if there is one, and
    /// reads its response. A reused connection found closed is replaced
    /// by a new one once; a failure on a new connection is returned.
    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), CkptError> {
        let body = body.unwrap_or("");
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nX-Tenant: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.server,
            self.tenant,
            body.len()
        );
        let idle = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(conn) = idle {
            match self.exchange(conn, message.as_bytes()) {
                Err(Failure::Closed(_)) => {}
                Err(Failure::Failed(e)) => return Err(e),
                Ok(reply) => return Ok(reply),
            }
        }
        let stream =
            TcpStream::connect(&self.server).map_err(|e| self.io_err(format!("connect: {e}")))?;
        match self.exchange(BufReader::new(stream), message.as_bytes()) {
            Err(Failure::Closed(e) | Failure::Failed(e)) => Err(e),
            Ok(reply) => Ok(reply),
        }
    }

    /// One request and its response on `conn`, which goes back to the
    /// idle slot when the response was framed by `Content-Length` and
    /// did not say `Connection: close`.
    fn exchange(
        &self,
        mut conn: BufReader<TcpStream>,
        message: &[u8],
    ) -> Result<(u16, String), Failure> {
        let failed =
            |what: &str, e: std::io::Error| Failure::Failed(self.io_err(format!("{what}: {e}")));
        if let Err(e) = conn.get_mut().write_all(message) {
            return Err(Failure::Closed(self.io_err(format!("send: {e}"))));
        }
        let mut line = String::new();
        match conn.read_line(&mut line) {
            Ok(0) => {
                return Err(Failure::Closed(
                    self.io_err("connection closed before the status line".to_string()),
                ))
            }
            Err(e) if line.is_empty() && is_closed(&e) => {
                return Err(Failure::Closed(
                    self.io_err(format!("read status line: {e}")),
                ))
            }
            Err(e) => return Err(failed("read status line", e)),
            Ok(_) => {}
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Failure::Failed(self.io_err(format!("malformed response: {line:?}"))))?;
        let mut keep = line.starts_with("HTTP/1.1 ");
        let mut content_length: Option<usize> = None;
        let mut chunked = false;
        loop {
            let mut header = String::new();
            let n = conn
                .read_line(&mut header)
                .map_err(|e| failed("read headers", e))?;
            let header = header.trim_end();
            if n == 0 || header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().ok();
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.eq_ignore_ascii_case("chunked");
                } else if name.eq_ignore_ascii_case("connection") {
                    keep &= !value
                        .split(',')
                        .any(|option| option.trim().eq_ignore_ascii_case("close"));
                }
            }
        }
        let body = if chunked {
            keep = false;
            self.read_chunked(&mut conn).map_err(Failure::Failed)?
        } else if let Some(len) = content_length {
            let mut buf = Vec::with_capacity(len.min(RESERVE_LIMIT));
            conn.by_ref()
                .take(len as u64)
                .read_to_end(&mut buf)
                .map_err(|e| failed("read body", e))?;
            if buf.len() < len {
                return Err(failed("read body", ErrorKind::UnexpectedEof.into()));
            }
            crate::http::utf8_text(buf)
        } else {
            keep = false;
            let mut buf = String::new();
            conn.read_to_string(&mut buf)
                .map_err(|e| failed("read body", e))?;
            buf
        };
        if keep {
            *self.idle.lock().unwrap_or_else(PoisonError::into_inner) = Some(conn);
        }
        Ok((status, body))
    }

    fn read_chunked(&self, reader: &mut impl BufRead) -> Result<String, CkptError> {
        let mut out = String::new();
        loop {
            let mut size_line = String::new();
            reader
                .read_line(&mut size_line)
                .map_err(|e| self.io_err(format!("read chunk size: {e}")))?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| self.io_err(format!("malformed chunk size: {size_line:?}")))?;
            let mut chunk = vec![0u8; size + 2];
            reader
                .read_exact(&mut chunk)
                .map_err(|e| self.io_err(format!("read chunk: {e}")))?;
            if size == 0 {
                return Ok(out);
            }
            chunk.truncate(size);
            out.push_str(&String::from_utf8_lossy(&chunk));
        }
    }

    /// Checks the server is alive.
    ///
    /// # Errors
    ///
    /// Connection failures or a non-200 reply.
    pub fn healthz(&self) -> Result<(), CkptError> {
        let (status, body) = self.request("GET", "/v1/healthz", None)?;
        if status == 200 {
            Ok(())
        } else {
            Err(self.io_err(format!("health check failed ({status}): {}", body.trim())))
        }
    }

    /// Submits a spec (its canonical JSON) and returns the job id.
    ///
    /// # Errors
    ///
    /// Connection failures, a rejected spec, or a malformed reply.
    pub fn submit(&self, spec_json: &str) -> Result<SubmitReply, CkptError> {
        let (status, body) = self.request("POST", "/v1/jobs", Some(spec_json))?;
        if status != 200 {
            return Err(self.io_err(format!("submit rejected ({status}): {}", body.trim())));
        }
        let doc = parse(&body).map_err(|e| self.io_err(format!("malformed submit reply: {e}")))?;
        let id = doc
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| self.io_err("submit reply missing id".to_string()))?
            .to_string();
        Ok(SubmitReply {
            id,
            cached: doc.get("cached").and_then(JsonValue::as_bool) == Some(true),
            deduplicated: doc.get("deduplicated").and_then(JsonValue::as_bool) == Some(true),
        })
    }

    /// The job's status document, verbatim.
    ///
    /// # Errors
    ///
    /// Connection failures or an unknown job id.
    pub fn status(&self, id: &str) -> Result<String, CkptError> {
        let (status, body) = self.request("GET", &format!("/v1/jobs/{id}"), None)?;
        if status == 200 {
            Ok(body)
        } else {
            Err(self.io_err(format!("status failed ({status}): {}", body.trim())))
        }
    }

    /// The stored result bytes, verbatim, or `None` while the job is
    /// still running.
    ///
    /// # Errors
    ///
    /// Connection failures or server errors.
    pub fn result(&self, id: &str) -> Result<Option<String>, CkptError> {
        let (status, body) = self.request("GET", &format!("/v1/jobs/{id}/result"), None)?;
        match status {
            200 => Ok(Some(body)),
            404 => Ok(None),
            _ => Err(self.io_err(format!("result failed ({status}): {}", body.trim()))),
        }
    }

    /// Polls until the job is done and returns the result bytes
    /// verbatim; a failed job or an elapsed `timeout` is an error.
    ///
    /// # Errors
    ///
    /// Connection failures, job failure, or timeout.
    pub fn wait_result(&self, id: &str, timeout: Duration) -> Result<String, CkptError> {
        let deadline = Instant::now() + timeout;
        loop {
            let body = self.status(id)?;
            let doc =
                parse(&body).map_err(|e| self.io_err(format!("malformed status reply: {e}")))?;
            match doc.get("state").and_then(JsonValue::as_str) {
                Some("done") => {
                    return self
                        .result(id)?
                        .ok_or_else(|| self.io_err("job done but result missing".to_string()));
                }
                Some("failed") => {
                    let message = doc
                        .get("message")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("unknown failure");
                    return Err(self.io_err(format!("job failed: {message}")));
                }
                _ => {}
            }
            if Instant::now() >= deadline {
                return Err(self.io_err(format!("timed out waiting for job {id}")));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Streams the job's progress JSONL, returning the collected lines
    /// once the job is terminal.
    ///
    /// # Errors
    ///
    /// Connection failures or an unknown job id.
    pub fn progress(&self, id: &str) -> Result<Vec<String>, CkptError> {
        let (status, body) = self.request("GET", &format!("/v1/jobs/{id}/progress"), None)?;
        if status != 200 {
            return Err(self.io_err(format!("progress failed ({status}): {}", body.trim())));
        }
        Ok(body.lines().map(str::to_string).collect())
    }
}

/// Whether a read error means the peer had closed the connection.
fn is_closed(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe
    )
}
