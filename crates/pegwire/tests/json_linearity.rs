//! `Json::parse` costs time linear in its input: ns per byte at 4 MB stays
//! within 3x of ns per byte at 4 KB, on the two shapes the wire carries —
//! a `matches` reply (many short strings) and one long string. A parser
//! that rescans the rest of the input per character misses this by orders
//! of magnitude, so the ratio needs no tuning. The writer's side of the
//! long string (a shard reply's column payload is one) is held to the same
//! ratio from 64 KB up: below that its per-byte cost is too close to the
//! clock's to compare.

use pegwire::Json;
use std::time::{Duration, Instant};

const SMALL: usize = 4 << 10;
const LARGE: usize = 4 << 20;

/// A `query` reply with enough matches to reach `bytes`.
fn matches_reply(bytes: usize) -> String {
    let mut text = String::from(r#"{"ok":true,"graph":"default","truncated":false,"matches":["#);
    let mut k = 0u64;
    while text.len() < bytes {
        if k > 0 {
            text.push(',');
        }
        text.push_str(&format!(
            r#"{{"nodes":[{},{},{}],"prle":0.{},"prn":0.5,"prob":0.25}}"#,
            k,
            k + 1,
            k + 2,
            k % 9973 + 1,
        ));
        k += 1;
    }
    text.push_str("]}");
    text
}

/// One string of `bytes` characters (multi-byte ones included).
fn long_string(bytes: usize) -> String {
    format!("\"{}\"", "pattern-é-".repeat(bytes / 11))
}

/// Best-of-five ns per byte of `op`, which handles `len` bytes a call,
/// over `LARGE` bytes' worth of calls per trial so every size does the
/// same total work.
fn ns_per_byte(len: usize, mut op: impl FnMut()) -> f64 {
    let reps = (LARGE / len).max(1);
    let best = (0..5)
        .map(|_| {
            let mut spent = Duration::ZERO;
            for _ in 0..reps {
                let t0 = Instant::now();
                op();
                spent += t0.elapsed();
            }
            spent
        })
        .min()
        .expect("five trials");
    best.as_nanos() as f64 / (reps * len) as f64
}

fn parse_ns_per_byte(text: &str) -> f64 {
    ns_per_byte(text.len(), || {
        let doc = Json::parse(std::hint::black_box(text));
        assert!(doc.is_ok(), "generated document parses");
    })
}

fn write_ns_per_byte(text: &str) -> f64 {
    let doc = Json::parse(text).expect("generated document parses");
    ns_per_byte(text.len(), || {
        let line = std::hint::black_box(&doc).to_string();
        assert_eq!(std::hint::black_box(line).len(), text.len());
    })
}

fn assert_linear(what: &str, cost: fn(&str) -> f64, make: fn(usize) -> String, small: usize) {
    let (at_small, at_large) = (cost(&make(small)), cost(&make(LARGE)));
    let report =
        format!("{what}: {at_small:.2} ns/B at {} KB, {at_large:.2} ns/B at 4 MB", small >> 10);
    println!("{report}");
    assert!(at_large <= 3.0 * at_small, "{report} ({:.1}x)", at_large / at_small);
}

/// One test for every shape, so the timed loops never share the machine
/// with each other.
#[test]
fn parse_time_is_linear_in_input_size() {
    assert_linear("parse matches reply", parse_ns_per_byte, matches_reply, SMALL);
    assert_linear("parse one long string", parse_ns_per_byte, long_string, SMALL);
    assert_linear("write one long string", write_ns_per_byte, long_string, 64 << 10);
}
