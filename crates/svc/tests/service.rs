//! End-to-end service tests: a real [`Server`] on an ephemeral port, a
//! real [`Client`] over TCP, and the cache contract the whole PR hangs
//! on — an identical spec submitted twice executes once and both
//! fetches return byte-identical bodies.

use ckpt_core::SystemConfig;
use ckpt_des::SimTime;
use ckpt_harness::ExperimentSpec;
use ckpt_svc::{Client, JobStore, Scheduler, Server, Tuning};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
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
fn sharded_tuning_changes_scheduling_but_not_the_result_bytes() {
    let dir_a = store_dir("tuning_a");
    let dir_b = store_dir("tuning_b");
    let (addr_a, _) = start_server(&dir_a, Tuning::default());
    let (addr_b, sched_b) = start_server(
        &dir_b,
        Tuning {
            workers: 3,
            shards: 3,
            batch: 1,
            snapshot_every: 1,
        },
    );
    let client_a = Client::new(&addr_a.to_string(), "t");
    let client_b = Client::new(&addr_b.to_string(), "t");
    let s = spec(9, 2);
    let a = client_a.submit(&s.to_json()).unwrap();
    let b = client_b.submit(&s.to_json()).unwrap();
    let body_a = client_a
        .wait_result(&a.id, Duration::from_secs(120))
        .unwrap();
    let body_b = client_b
        .wait_result(&b.id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(body_a, body_b, "sharding must not change the result");
    assert!(sched_b.executed_units() >= 3, "the job really was sharded");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
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

/// Sends `head` (request line and headers, no body) over a raw socket,
/// closes the write half, and returns the whole response.
fn raw_exchange(addr: SocketAddr, head: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
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
