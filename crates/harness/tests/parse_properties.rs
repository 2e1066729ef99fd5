//! Property-based robustness tests of the untrusted-input parsers: the
//! JSON parser, `ExperimentSpec::from_json`, which `POST /v1/jobs`
//! feeds request bodies into, and `SweepJournal::resume`, which reads
//! journals back from disk. Every input — random bytes, random token
//! soup, truncations and byte flips of a valid spec or journal, deep
//! nesting — must come back `Ok` or a typed error, never a panic or a
//! stack overflow; and whatever is accepted must survive a render round
//! trip. A journal cut at any byte, as a crash mid-append leaves it,
//! resumes exactly the records whose lines are complete.

use ckpt_core::{
    CachedReplication, CoordinationMode, EngineKind, Metrics, PhaseKind, ReplicationStore,
    SystemConfig,
};
use ckpt_des::SimTime;
use ckpt_harness::json::{parse, MAX_DEPTH};
use ckpt_harness::{ExperimentSpec, SnapshotError, SweepJournal};
use proptest::prelude::*;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// A valid spec exercising most keys (optional ones included).
fn valid_spec_json() -> String {
    let cfg = SystemConfig::builder()
        .processors(131_072)
        .coordination(CoordinationMode::MaxOfN)
        .timeout(Some(SimTime::from_secs(600.0)))
        .build()
        .unwrap();
    ExperimentSpec::builder(cfg)
        .engine(EngineKind::San)
        .transient(SimTime::from_hours(100.0))
        .horizon(SimTime::from_hours(2_000.0))
        .replications(3)
        .seed(7)
        .build()
        .unwrap()
        .to_json()
}

/// Feeds `text` to both parsers. Anything accepted must re-render to
/// an equal value: the parser and the writer agree.
fn check(text: &str) -> Result<(), TestCaseError> {
    if let Ok(v) = parse(text) {
        prop_assert_eq!(parse(&v.to_json()).ok(), Some(v));
    }
    if let Ok(spec) = ExperimentSpec::from_json(text) {
        prop_assert_eq!(ExperimentSpec::from_json(&spec.to_json()).ok(), Some(spec));
    }
    Ok(())
}

/// JSON-ish tokens, so random sequences reach deep into the grammar
/// instead of failing on the first byte.
const TOKENS: [&str; 20] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"k\"",
    "\"kind\"",
    "1",
    "-0.5e3",
    "1e400",
    "-",
    "true",
    "null",
    "\"\\u00e9\"",
    "\"\\ud800\"",
    "\\",
    "\"",
    " ",
    "é",
];

/// Fingerprint of the journal under test.
const JOURNAL_FP: u64 = 0x00c0_ffee_d00d_f00d;

/// A scratch directory unique to this process and `tag`.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt_parse_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The keys [`journal_bytes`] records, in recording order (not key
/// order: the file keeps completion order).
const JOURNAL_KEYS: [(u32, u32); 5] = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 3)];

/// The `i`-th replication [`journal_bytes`] records.
fn journal_record(i: usize) -> CachedReplication {
    let x = i as f64;
    let mut m = Metrics {
        window_secs: 3.6e6,
        useful_work_secs: 2.9e6 + 1234.5678 * x,
        work_lost_secs: 1.0e4 / (x + 1.0),
        ..Metrics::default()
    };
    m.counters.compute_failures = 3 + i as u64;
    m.phase_times.add(PhaseKind::Executing, 3.1e6 - x);
    m.phase_times.add(PhaseKind::Dumping, 1.0 / 3.0 + x);
    CachedReplication {
        metrics: m,
        events: 10_000 + 17 * i as u64,
    }
}

/// The bytes of a real journal: opened in a store directory, a few
/// replications of two cells recorded, then persisted. Written once:
/// the tests that use it run in parallel and would otherwise share the
/// source directory.
fn journal_bytes() -> Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES
        .get_or_init(|| {
            let dir = scratch_dir("journal_src");
            let journal = SweepJournal::open_in_dir(&dir, JOURNAL_FP, 0).unwrap();
            for (i, (cell, rep)) in JOURNAL_KEYS.into_iter().enumerate() {
                let r = journal_record(i);
                journal.record(cell, rep, &r.metrics, r.events);
            }
            journal.persist().unwrap();
            let bytes = std::fs::read(journal.path()).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        })
        .clone()
}

/// Whether `journal` holds exactly the first `k` records of
/// [`JOURNAL_KEYS`], bit for bit.
fn holds_first(journal: &SweepJournal, k: usize) -> bool {
    journal.completed() == k
        && JOURNAL_KEYS.iter().enumerate().all(|(i, &(cell, rep))| {
            let want = (i < k).then(|| journal_record(i));
            journal.cell_store(cell).lookup(rep) == want
        })
}

/// Makes `path` hold exactly `bytes`, rewriting it in place. The
/// journal cases write their file ~40,000 times; `std::fs::write`
/// truncates it to zero first, which frees its block every time, and
/// that made the file writes ~60 % of these tests' time.
fn overwrite(path: &Path, bytes: &[u8]) {
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .unwrap();
    file.write_all(bytes).unwrap();
    file.set_len(bytes.len() as u64).unwrap();
}

/// Writes `bytes` to `path` and resumes from it. A journal that loads
/// must render a document that loads back to the same rendering.
fn check_journal(path: &Path, bytes: &[u8]) -> Result<Option<String>, TestCaseError> {
    overwrite(path, bytes);
    let Ok(journal) = SweepJournal::resume(path, JOURNAL_FP, 0) else {
        return Ok(None);
    };
    let rendered = journal.render();
    overwrite(path, rendered.as_bytes());
    let again = SweepJournal::resume(path, JOURNAL_FP, 0).map(|j| j.render());
    prop_assert_eq!(again.ok(), Some(rendered.clone()));
    Ok(Some(rendered))
}

#[test]
fn truncated_and_byte_flipped_journals_are_rejected_or_round_trip() {
    let bytes = journal_bytes();
    let dir = scratch_dir("journal_damage");
    let path = dir.join("damaged.journal.json");
    // The rendering holds the file's lines, in key order.
    let intact = check_journal(&path, &bytes).unwrap().unwrap();
    let text = String::from_utf8(bytes.clone()).unwrap();
    let sorted = |s: &str| {
        let mut lines: Vec<String> = s.lines().map(str::to_string).collect();
        lines.sort();
        lines
    };
    assert_eq!(sorted(&intact), sorted(&text));
    for at in 0..bytes.len() {
        check_journal(&path, &bytes[..at]).unwrap();
    }
    // Structural characters, a digit, a sign and invalid UTF-8 at every
    // position.
    for at in 0..bytes.len() {
        for byte in [b'"', b'}', b',', b'7', b'-', 0xff] {
            let mut flipped = bytes.clone();
            flipped[at] = byte;
            check_journal(&path, &flipped).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash window of an append: a journal cut at any byte resumes,
/// without error, exactly the records whose lines are complete; the
/// torn tail is cut off before the next append, so a record added
/// after resuming is read back with all the others.
#[test]
fn every_crash_window_resumes_the_complete_records() {
    let bytes = journal_bytes();
    let dir = scratch_dir("journal_crash");
    let path = dir.join("torn.journal.json");
    let ends: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .collect();
    assert_eq!(
        ends.len(),
        1 + JOURNAL_KEYS.len(),
        "a header and one line per record"
    );
    let extra = CachedReplication {
        metrics: Metrics::default(),
        events: 7,
    };
    for at in 0..=bytes.len() {
        let complete = ends
            .iter()
            .filter(|&&end| end <= at)
            .count()
            .saturating_sub(1);
        overwrite(&path, &bytes[..at]);
        let journal = SweepJournal::resume(&path, JOURNAL_FP, 0)
            .unwrap_or_else(|e| panic!("cut at {at}: {e}"));
        assert!(holds_first(&journal, complete), "cut at {at}");

        journal.record(9, 9, &extra.metrics, extra.events);
        journal.persist().unwrap();
        drop(journal);
        let again = SweepJournal::resume(&path, JOURNAL_FP, 0)
            .unwrap_or_else(|e| panic!("cut at {at}, then appended: {e}"));
        assert_eq!(
            again.completed(),
            complete + 1,
            "cut at {at}, then appended"
        );
        assert_eq!(again.cell_store(9).lookup(9), Some(extra));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A byte changed anywhere inside a complete record line, its newline
/// aside, is a typed error: the line's checksum, or its framing, no
/// longer holds.
#[test]
fn a_flipped_byte_in_any_complete_record_line_is_an_error() {
    let bytes = journal_bytes();
    let dir = scratch_dir("journal_flip");
    let path = dir.join("flipped.journal.json");
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    for at in header_end..bytes.len() {
        if bytes[at] == b'\n' {
            continue;
        }
        for byte in [bytes[at] ^ 0x01, b'\n', b'}', b'"', 0xff] {
            if byte == bytes[at] {
                continue;
            }
            let mut flipped = bytes.clone();
            flipped[at] = byte;
            overwrite(&path, &flipped);
            let err = SweepJournal::resume(&path, JOURNAL_FP, 0).err();
            assert!(
                matches!(
                    err,
                    Some(SnapshotError::ChecksumMismatch { .. } | SnapshotError::Parse { .. })
                ),
                "byte {at} set to {byte:#04x}: {err:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `depth` containers, alternating arrays and objects, around `1`.
fn nested(depth: usize) -> String {
    let mut s = String::new();
    for d in 0..depth {
        s.push_str(if d % 2 == 0 { "[" } else { "{\"k\":" });
    }
    s.push('1');
    for d in (0..depth).rev() {
        s.push(if d % 2 == 0 { ']' } else { '}' });
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_never_panics(tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..64)) {
        let text: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        check(&text)?;
    }

    #[test]
    fn truncated_specs_are_rejected(cut in 0.0f64..1.0) {
        let json = valid_spec_json();
        let at = (cut * json.len() as f64) as usize;
        prop_assert!(json.is_char_boundary(at));
        prop_assert!(ExperimentSpec::from_json(&json[..at]).is_err());
    }

    #[test]
    fn byte_flipped_specs_never_panic(
        flips in proptest::collection::vec((0.0f64..1.0, 0u8..=255), 1..4),
    ) {
        let mut bytes = valid_spec_json().into_bytes();
        let len = bytes.len();
        for (at, byte) in flips {
            bytes[(at * len as f64) as usize] = byte;
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn digit_flips_reach_the_validators(at in 0.0f64..1.0, digit in 0usize..4) {
        // Swap one digit for a sign, exponent or zero so the document
        // still parses and the spec and config validators see it.
        let json = valid_spec_json();
        let digits: Vec<usize> = json
            .bytes()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let i = digits[(at * digits.len() as f64) as usize];
        let mut bytes = json.into_bytes();
        bytes[i] = [b'-', b'0', b'9', b'e'][digit];
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn nesting_is_accepted_up_to_the_limit_only(depth in 0usize..(4 * MAX_DEPTH)) {
        let text = nested(depth);
        prop_assert_eq!(parse(&text).is_ok(), depth <= MAX_DEPTH, "depth {}", depth);
        prop_assert!(ExperimentSpec::from_json(&text).is_err());
    }
}

#[test]
fn far_too_deep_input_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"k\":"] {
        let text = open.repeat(100_000);
        assert!(parse(&text).is_err());
        assert!(ExperimentSpec::from_json(&text).is_err());
    }
}
