//! Property-based robustness tests of the untrusted-input parsers: the
//! JSON parser and `ExperimentSpec::from_json`, which `POST /v1/jobs`
//! feeds request bodies into. Every input — random bytes, random token
//! soup, truncations and byte flips of a valid spec, deep nesting —
//! must come back `Ok` or a typed error, never a panic or a stack
//! overflow; and whatever is accepted must survive a render round trip.

use ckpt_core::{CoordinationMode, EngineKind, SystemConfig};
use ckpt_des::SimTime;
use ckpt_harness::json::{parse, MAX_DEPTH};
use ckpt_harness::ExperimentSpec;
use proptest::prelude::*;

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
