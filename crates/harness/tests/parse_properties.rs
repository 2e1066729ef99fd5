//! Property-based robustness tests of the untrusted-input parsers: the
//! JSON parser, `ExperimentSpec::from_json`, which `POST /v1/jobs`
//! feeds request bodies into, and `SweepJournal::resume`, which reads
//! journals back from disk. Every input — random bytes, random token
//! soup, truncations and byte flips of a valid spec or journal, deep
//! nesting — must come back `Ok` or a typed error, never a panic or a
//! stack overflow; and whatever is accepted must survive a render round
//! trip.

use ckpt_core::{CoordinationMode, EngineKind, Metrics, PhaseKind, SystemConfig};
use ckpt_des::SimTime;
use ckpt_harness::json::{parse, MAX_DEPTH};
use ckpt_harness::{ExperimentSpec, SweepJournal};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

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

/// The bytes of a real journal: opened in a store directory, a few
/// replications of two cells recorded, then persisted.
fn journal_bytes() -> Vec<u8> {
    let dir = scratch_dir("journal_src");
    let journal = SweepJournal::open_in_dir(&dir, JOURNAL_FP, 0).unwrap();
    for (i, (cell, rep)) in [(0, 0), (0, 1), (1, 0), (0, 2), (1, 3)]
        .into_iter()
        .enumerate()
    {
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
        journal.record(cell, rep, &m, 10_000 + 17 * i as u64);
    }
    journal.persist().unwrap();
    let bytes = std::fs::read(journal.path()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Writes `bytes` to `path` and resumes from it. A journal that loads
/// must render a document that loads back to the same rendering.
fn check_journal(path: &Path, bytes: &[u8]) -> Result<Option<String>, TestCaseError> {
    std::fs::write(path, bytes).unwrap();
    let Ok(journal) = SweepJournal::resume(path, JOURNAL_FP, 0) else {
        return Ok(None);
    };
    let rendered = journal.to_json();
    std::fs::write(path, &rendered).unwrap();
    let again = SweepJournal::resume(path, JOURNAL_FP, 0).map(|j| j.to_json());
    prop_assert_eq!(again.ok(), Some(rendered.clone()));
    Ok(Some(rendered))
}

#[test]
fn truncated_and_byte_flipped_journals_are_rejected_or_round_trip() {
    let bytes = journal_bytes();
    let dir = scratch_dir("journal_damage");
    let path = dir.join("damaged.journal.json");
    // The file is the rendering plus a trailing newline.
    let intact = check_journal(&path, &bytes).unwrap();
    let text = String::from_utf8(bytes.clone()).unwrap();
    assert_eq!(intact.as_deref(), Some(text.trim_end()));
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
