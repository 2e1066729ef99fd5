//! End-to-end service tests: a real [`Server`] on an ephemeral port, a
//! real [`Client`] over TCP, and the cache contract the whole PR hangs
//! on — an identical spec submitted twice executes once and both
//! fetches return byte-identical bodies.

use ckpt_core::SystemConfig;
use ckpt_des::SimTime;
use ckpt_harness::ExperimentSpec;
use ckpt_svc::{Client, JobStore, Scheduler, Server, Tuning};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn spec(seed: u64, jobs: usize) -> ExperimentSpec {
    let cfg = SystemConfig::builder().processors(512).build().unwrap();
    ExperimentSpec::builder(cfg)
        .transient(SimTime::from_hours(5.0))
        .horizon(SimTime::from_hours(60.0))
        .replications(3)
        .seed(seed)
        .jobs(jobs)
        .build()
        .unwrap()
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt_svc_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(dir: &Path, tuning: Tuning) -> (SocketAddr, Arc<Scheduler>) {
    let store = JobStore::open(dir).unwrap();
    let server = Server::bind("127.0.0.1:0", Scheduler::new(store, tuning)).unwrap();
    let addr = server.local_addr().unwrap();
    let sched = server.scheduler();
    std::thread::spawn(move || {
        let _ = server.run();
    });
    (addr, sched)
}

#[test]
fn identical_specs_execute_once_and_results_are_byte_identical() {
    let dir = store_dir("once");
    let (addr, sched) = start_server(&dir, Tuning::default());
    let client = Client::new(&addr.to_string(), "alice");
    client.healthz().unwrap();

    // Different `jobs` values, same fingerprint: worker count is a
    // scheduling decision, not part of the experiment's identity.
    let first = client.submit(&spec(1, 1).to_json()).unwrap();
    assert!(!first.cached);
    let body_first = client
        .wait_result(&first.id, Duration::from_secs(120))
        .unwrap();

    let second = client.submit(&spec(1, 4).to_json()).unwrap();
    assert_eq!(second.id, first.id);
    assert!(second.cached, "identical resubmission must hit the cache");
    let body_second = client.result(&second.id).unwrap().unwrap();

    assert_eq!(body_first, body_second, "cache hits are byte-identical");
    assert_eq!(sched.executed_units(), 1, "the spec executed exactly once");

    let status = client.status(&first.id).unwrap();
    assert!(status.contains("\"state\":\"done\""), "status: {status}");

    let lines = client.progress(&first.id).unwrap();
    assert_eq!(lines.len(), 3, "one progress line per replication");
    assert!(lines.iter().all(|l| l.contains("\"kind\":\"progress\"")));
    assert!(lines[2].contains("\"completed\":3"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_cache_survives_a_server_restart() {
    let dir = store_dir("restart");
    let (addr_a, sched_a) = start_server(&dir, Tuning::default());
    let client_a = Client::new(&addr_a.to_string(), "t");
    let job = client_a.submit(&spec(7, 1).to_json()).unwrap();
    let body = client_a
        .wait_result(&job.id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(sched_a.executed_units(), 1);

    // A second server over the same store directory: the result is
    // durable, so the resubmission is a hit with zero executions.
    let (addr_b, sched_b) = start_server(&dir, Tuning::default());
    let client_b = Client::new(&addr_b.to_string(), "t");
    let again = client_b.submit(&spec(7, 1).to_json()).unwrap();
    assert!(again.cached);
    assert_eq!(client_b.result(&again.id).unwrap().unwrap(), body);
    assert_eq!(sched_b.executed_units(), 0, "nothing re-executed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tuning_changes_scheduling_but_not_the_result_bytes() {
    // Three jobs at once, so three workers really run them side by side.
    let specs = [spec(9, 2), spec(10, 1), spec(11, 2)];
    let mut published: Vec<Vec<String>> = Vec::new();
    for workers in [1, 3] {
        for snapshot_every in [0, 1] {
            let dir = store_dir(&format!("tuning_{workers}_{snapshot_every}"));
            let tuning = Tuning {
                workers,
                snapshot_every,
            };
            let (addr, sched) = start_server(&dir, tuning);
            let client = Client::new(&addr.to_string(), "t");
            let ids: Vec<String> = specs
                .iter()
                .map(|s| client.submit(&s.to_json()).unwrap().id)
                .collect();
            let bodies = ids
                .iter()
                .map(|id| client.wait_result(id, Duration::from_secs(120)).unwrap())
                .collect();
            assert_eq!(sched.executed_units(), specs.len(), "{tuning:?}");
            published.push(bodies);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for bodies in &published[1..] {
        assert_eq!(bodies, &published[0], "tuning must not change the result");
    }
}

#[test]
fn unknown_jobs_and_malformed_specs_are_rejected() {
    let dir = store_dir("reject");
    let (addr, _) = start_server(&dir, Tuning::default());
    let client = Client::new(&addr.to_string(), "t");
    assert!(client.submit("{\"not\": \"a spec\"}").is_err());
    assert!(client.status("00000000deadbeef").is_err());
    assert_eq!(client.result("00000000deadbeef").unwrap(), None);
    assert!(client.progress("00000000deadbeef").is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job answers to its canonical id only: a leading `+` or uppercase
/// digits spell the same number but are not its id.
#[test]
fn a_job_is_not_found_under_a_non_canonical_id() {
    // A seed whose id starts with `0` and holds a letter, so that both
    // the signed and the uppercase spelling parse to its number.
    let s = (0..)
        .map(|seed| spec(seed, 1))
        .find(|s| {
            let id = format!("{:016x}", s.fingerprint());
            id.starts_with('0') && id.bytes().any(|b| b.is_ascii_alphabetic())
        })
        .unwrap();
    let dir = store_dir("ids");
    let (addr, _) = start_server(&dir, Tuning::default());
    let client = Client::new(&addr.to_string(), "t");
    let id = client.submit(&s.to_json()).unwrap().id;
    client.wait_result(&id, Duration::from_secs(120)).unwrap();
    let get = |path: String| raw_exchange(addr, &format!("GET {path} HTTP/1.1\r\n\r\n"));
    assert!(get(format!("/v1/jobs/{id}")).starts_with("HTTP/1.1 200 "));
    for other in [format!("+{}", &id[1..]), id.to_uppercase()] {
        for path in [
            format!("/v1/jobs/{other}"),
            format!("/v1/jobs/{other}/result"),
        ] {
            let response = get(path.clone());
            assert!(response.starts_with("HTTP/1.1 404 "), "{path}: {response}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends `head` (request line and headers, no body) over a raw socket,
/// closes the write half, and returns the whole response.
fn raw_exchange(addr: SocketAddr, head: &str) -> String {
    raw_exchange_bytes(addr, head.as_bytes())
}

/// [`raw_exchange`] for any bytes (invalid UTF-8 in the response is
/// replaced).
fn raw_exchange_bytes(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn bad_content_lengths_are_refused_before_the_body_is_read() {
    let dir = store_dir("length");
    let (addr, _) = start_server(&dir, Tuning::default());
    // Oversized: refused with 413 rather than truncated to the limit.
    let oversized = raw_exchange(
        addr,
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
    );
    assert!(oversized.starts_with("HTTP/1.1 413 "), "{oversized}");
    // Unparseable: refused with 400 rather than read as an empty body.
    let unparseable = raw_exchange(
        addr,
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: 12x\r\n\r\n",
    );
    assert!(unparseable.starts_with("HTTP/1.1 400 "), "{unparseable}");
    assert!(unparseable.contains("Content-Length"), "{unparseable}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_body_that_ends_early_is_refused_with_400() {
    let dir = store_dir("short_body");
    let (addr, sched) = start_server(&dir, Tuning::default());
    let short = raw_exchange(
        addr,
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"a",
    );
    assert!(short.starts_with("HTTP/1.1 400 "), "{short}");
    assert!(short.contains("ended after 3 of 10 bytes"), "{short}");
    assert_eq!(sched.executed_units(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_retired_batch_means_spec_is_refused_with_400() {
    let dir = store_dir("batch_means");
    let (addr, sched) = start_server(&dir, Tuning::default());
    let body = spec(1, 1).to_json().replace(
        "\"estimation\":\"replications\"",
        "\"estimation\":{\"batch_means\":8}",
    );
    assert!(body.contains("batch_means"));
    let response = raw_exchange(
        addr,
        &format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(
        response.contains("batch-means estimation was retired"),
        "{response}"
    );
    assert_eq!(sched.executed_units(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_spec_longer_than_the_clock_resolves_is_refused_with_400() {
    let dir = store_dir("too_long");
    let (addr, sched) = start_server(&dir, Tuning::default());
    let body = spec(1, 1)
        .to_json()
        .replace("\"horizon_secs\":216000,", "\"horizon_secs\":1e300,");
    assert!(body.contains("1e300"));
    let response = raw_exchange(
        addr,
        &format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("longer than 2^53 s"), "{response}");
    assert_eq!(sched.executed_units(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The longest line the server accepts is 8 KiB, CRLF included.
const MAX_LINE: usize = 8 << 10;

#[test]
fn overlong_request_and_header_lines_are_refused_with_431() {
    let dir = store_dir("line");
    let (addr, _) = start_server(&dir, Tuning::default());
    // A header line of exactly the limit is served...
    let pad = |len: usize| format!("X-Pad: {}\r\n", "a".repeat(len - "X-Pad: \r\n".len()));
    let at_limit = raw_exchange(
        addr,
        &format!("GET /v1/healthz HTTP/1.1\r\n{}\r\n", pad(MAX_LINE)),
    );
    assert!(at_limit.starts_with("HTTP/1.1 200 "), "{at_limit}");
    // ...one byte more is refused, as is an overlong request line.
    let header = raw_exchange(
        addr,
        &format!("GET /v1/healthz HTTP/1.1\r\n{}\r\n", pad(MAX_LINE + 1)),
    );
    assert!(header.starts_with("HTTP/1.1 431 "), "{header}");
    let path = format!("/v1/jobs/{}", "0".repeat(MAX_LINE));
    let request_line = raw_exchange(addr, &format!("GET {path} HTTP/1.1\r\n\r\n"));
    assert!(request_line.starts_with("HTTP/1.1 431 "), "{request_line}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn more_than_64_headers_are_refused_with_431() {
    let dir = store_dir("headers");
    let (addr, _) = start_server(&dir, Tuning::default());
    let request = |n: usize| {
        let headers: String = (0..n).map(|i| format!("X-Pad-{i}: x\r\n")).collect();
        raw_exchange(addr, &format!("GET /v1/healthz HTTP/1.1\r\n{headers}\r\n"))
    };
    let at_limit = request(64);
    assert!(at_limit.starts_with("HTTP/1.1 200 "), "{at_limit}");
    let over = request(65);
    assert!(over.starts_with("HTTP/1.1 431 "), "{over}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlong_tenants_are_refused_with_400() {
    let dir = store_dir("tenant");
    let (addr, sched) = start_server(&dir, Tuning::default());
    let body = spec(9, 1).to_json();
    let submit = |tenant: &str| {
        raw_exchange(
            addr,
            &format!(
                "POST /v1/jobs HTTP/1.1\r\nX-Tenant: {tenant}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    };
    let over = submit(&"t".repeat(65));
    assert!(over.starts_with("HTTP/1.1 400 "), "{over}");
    assert!(over.contains("X-Tenant"), "{over}");
    assert_eq!(
        sched.executed_units(),
        0,
        "a refused submission must not run"
    );
    let at_limit = submit(&"t".repeat(64));
    assert!(at_limit.starts_with("HTTP/1.1 200 "), "{at_limit}");
    let id = format!("{:016x}", spec(9, 1).fingerprint());
    assert!(sched
        .wait(&id, Duration::from_secs(120))
        .is_some_and(|s| s.is_terminal()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stalled_request_is_dropped_and_the_server_keeps_serving() {
    let dir = store_dir("stall");
    let (addr, _) = start_server(&dir, Tuning::default());
    let mut stream = TcpStream::connect(addr).unwrap();
    // The server gives up on a request not read within 5 s; waiting
    // 10 s more bounds the test if it never does.
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    stream.write_all(b"GET /v1/hea").unwrap();
    let start = std::time::Instant::now();
    let mut rest = Vec::new();
    let closed = stream.read_to_end(&mut rest);
    assert!(
        closed.is_ok(),
        "connection still open after {:?}: {closed:?}",
        start.elapsed()
    );
    assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));
    let next = raw_exchange(addr, "GET /v1/healthz HTTP/1.1\r\n\r\n");
    assert!(next.starts_with("HTTP/1.1 200 "), "{next}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_trickled_request_is_dropped_and_the_server_keeps_serving() {
    let dir = store_dir("trickle");
    let (addr, _) = start_server(&dir, Tuning::default());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .unwrap();
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nX-Pad: ")
        .unwrap();
    // One header byte every 250 ms never leaves the server idle for
    // long, but the whole request must arrive within 5 s; sending for
    // 20 s bounds the test if the server never gives up.
    let start = std::time::Instant::now();
    let closed_after = loop {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "connection still open after {:?}",
            start.elapsed()
        );
        if stream.write_all(b"a").is_err() {
            break start.elapsed();
        }
        match stream.read(&mut [0u8; 256]) {
            Ok(0) => break start.elapsed(),
            Ok(n) => panic!("unexpected {n}-byte response to an unfinished request"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break start.elapsed(),
        }
    };
    assert!(
        (Duration::from_secs(4)..Duration::from_secs(10)).contains(&closed_after),
        "closed after {closed_after:?}"
    );
    let next = raw_exchange(addr, "GET /v1/healthz HTTP/1.1\r\n\r\n");
    assert!(next.starts_with("HTTP/1.1 200 "), "{next}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_bodies_are_refused_and_the_server_keeps_serving() {
    let dir = store_dir("nesting");
    let (addr, _) = start_server(&dir, Tuning::default());
    // 10,000 levels would overflow the parser's stack and abort the
    // process if nesting were unbounded.
    let body = "[".repeat(10_000);
    let nested = raw_exchange(
        addr,
        &format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(nested.starts_with("HTTP/1.1 400 "), "{nested}");
    assert!(nested.contains("nesting"), "{nested}");
    let next = raw_exchange(addr, "GET /v1/healthz HTTP/1.1\r\n\r\n");
    assert!(next.starts_with("HTTP/1.1 200 "), "{next}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// SplitMix64: a dependency-free byte source for the parsing property.
struct Bytes(u64);

impl Bytes {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn any_request_bytes_get_a_status_line_and_the_server_keeps_serving() {
    // The server's whole-request deadline.
    const IO_TIMEOUT: Duration = Duration::from_secs(5);
    let dir = store_dir("fuzz");
    let (addr, sched) = start_server(&dir, Tuning::default());
    // Valid requests to mutate; none of them, mutated or not, is a
    // runnable spec, so no case starts a job.
    let templates: [&[u8]; 4] = [
        b"GET /v1/healthz HTTP/1.1\r\n\r\n",
        b"GET /v1/jobs/00000000000000ff HTTP/1.1\r\nX-Tenant: t\r\n\r\n",
        b"GET /v1/jobs/00000000000000ff/result HTTP/1.1\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nX-Tenant: t\r\nContent-Length: 12\r\n\r\n{\"kind\":\"x\"}",
    ];
    let mut rng = Bytes(0x5EED);
    for case in 0..1000 {
        let input: Vec<u8> = if case % 2 == 0 {
            (0..1 + rng.below(160)).map(|_| rng.next() as u8).collect()
        } else {
            let mut bytes = templates[rng.below(templates.len())].to_vec();
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(bytes.len());
                match rng.below(3) {
                    0 => bytes[i] = rng.next() as u8,
                    1 => {
                        bytes.remove(i);
                    }
                    _ => bytes.insert(i, rng.next() as u8),
                }
            }
            bytes
        };
        if input.is_empty() {
            continue;
        }
        let start = std::time::Instant::now();
        let response = raw_exchange_bytes(addr, &input);
        let elapsed = start.elapsed();
        let status = response.lines().next().unwrap_or("");
        let code = status
            .strip_prefix("HTTP/1.1 ")
            .map(|rest| &rest.as_bytes()[..3.min(rest.len())]);
        assert!(
            code.is_some_and(|c| c.len() == 3 && c.iter().all(u8::is_ascii_digit)),
            "case {case}: {:?} got {response:?}",
            String::from_utf8_lossy(&input)
        );
        assert!(elapsed < IO_TIMEOUT, "case {case} took {elapsed:?}");
        // The same bytes after a valid request on one connection: the
        // valid request is answered first, whatever follows it.
        let mut after_healthz = templates[0].to_vec();
        after_healthz.extend_from_slice(&input);
        let start = std::time::Instant::now();
        let response = raw_exchange_bytes(addr, &after_healthz);
        let elapsed = start.elapsed();
        assert!(
            response.starts_with("HTTP/1.1 200 "),
            "case {case}: healthz then {:?} got {response:?}",
            String::from_utf8_lossy(&input)
        );
        assert!(elapsed < IO_TIMEOUT, "case {case} took {elapsed:?}");
    }
    assert_eq!(sched.executed_units(), 0, "a parsing case started a job");
    let next = raw_exchange(addr, "GET /v1/healthz HTTP/1.1\r\n\r\n");
    assert!(next.starts_with("HTTP/1.1 200 "), "{next}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends `request` without closing the write half and reads until the
/// server closes the connection; the read fails if it does not within
/// 10 s (twice the server's request deadline).
fn exchange_until_close(addr: SocketAddr, request: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok(String::from_utf8_lossy(&response).into_owned())
}

#[test]
fn pipelined_requests_on_one_connection_are_answered_in_order() {
    let dir = store_dir("pipeline");
    let (addr, _) = start_server(&dir, Tuning::default());
    let response = raw_exchange(
        addr,
        "GET /v1/healthz HTTP/1.1\r\n\r\nGET /v1/jobs/00000000deadbeef HTTP/1.1\r\n\r\n",
    );
    let statuses: Vec<&str> = response
        .lines()
        .filter(|line| line.starts_with("HTTP/1.1 "))
        .collect();
    assert_eq!(
        statuses,
        ["HTTP/1.1 200 OK", "HTTP/1.1 404 Not Found"],
        "{response}"
    );
    assert!(!response.contains("Connection: close"), "{response}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn close_and_http_1_0_requests_get_their_response_then_eof() {
    let dir = store_dir("close");
    let (addr, _) = start_server(&dir, Tuning::default());
    for request in [
        "GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        "GET /v1/healthz HTTP/1.0\r\n\r\n",
    ] {
        let response = exchange_until_close(addr, request)
            .unwrap_or_else(|e| panic!("{request:?}: no EOF after the response: {e}"));
        assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
        assert!(response.contains("\r\nConnection: close\r\n"), "{response}");
        assert!(response.ends_with("\"status\":\"ok\"}\n"), "{response}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ambiguous_request_framing_is_refused_with_400_then_eof() {
    let dir = store_dir("framing");
    let (addr, _) = start_server(&dir, Tuning::default());
    for (request, names) in [
        (
            "GET /v1/healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            "Transfer-Encoding",
        ),
        (
            "GET /v1/healthz HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n",
            "Content-Length",
        ),
    ] {
        let response = exchange_until_close(addr, request)
            .unwrap_or_else(|e| panic!("{request:?}: no EOF after the refusal: {e}"));
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        assert!(response.contains("\r\nConnection: close\r\n"), "{response}");
        assert!(response.contains(names), "{response}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_client_whose_idle_connection_was_closed_sends_on_a_new_one() {
    // A one-shot server: each connection gets one keep-alive answer and
    // is then closed, as the real server closes an idle connection.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (closed_tx, closed_rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        for _ in 0..2 {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 2 {
                line.clear();
            }
            let body = "{\"kind\":\"health\",\"status\":\"ok\"}\n";
            let response = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            reader.get_mut().write_all(response.as_bytes()).unwrap();
            drop(reader);
            closed_tx.send(()).unwrap();
        }
    });
    let client = Client::new(&addr.to_string(), "t");
    client.healthz().unwrap();
    closed_rx.recv().unwrap();
    client
        .healthz()
        .expect("a closed idle connection is replaced, and the request sent again");
    server.join().unwrap();
}

#[test]
fn one_client_streams_progress_while_another_thread_polls_status() {
    let dir = store_dir("shared_client");
    let (addr, _) = start_server(&dir, Tuning::default());
    let client = Arc::new(Client::new(&addr.to_string(), "t"));
    let job = client.submit(&spec(11, 1).to_json()).unwrap();
    let (done_tx, done_rx) = mpsc::channel();
    let streamer = {
        let (client, id, done_tx) = (Arc::clone(&client), job.id.clone(), done_tx.clone());
        std::thread::spawn(move || done_tx.send(client.progress(&id).map(|l| l.len())))
    };
    let poller = {
        let (client, id) = (Arc::clone(&client), job.id.clone());
        std::thread::spawn(move || {
            let polled = (|| loop {
                let status = client.status(&id)?;
                if status.contains("\"state\":\"done\"") {
                    return Ok(0);
                }
                std::thread::sleep(Duration::from_millis(5));
            })();
            done_tx.send(polled)
        })
    };
    for _ in 0..2 {
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("both threads finish")
            .expect("both requests succeed");
    }
    streamer.join().unwrap().unwrap();
    poller.join().unwrap().unwrap();
    assert_eq!(
        client.progress(&job.id).unwrap().len(),
        3,
        "one progress line per replication"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
