//! `Json::parse` costs time linear in its input: ns per byte at 4 MB stays
//! within 3x of ns per byte at 4 KB, on the two shapes the wire carries —
//! a `matches` reply (many short strings) and one long string. A parser
//! that rescans the rest of the input per character misses this by orders
//! of magnitude, so the ratio needs no tuning.

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

/// Best-of-five ns per byte, parsing `LARGE` bytes' worth of copies of
/// `text` per trial so both sizes do the same total work.
fn ns_per_byte(text: &str) -> f64 {
    let reps = (LARGE / text.len()).max(1);
    let best = (0..5)
        .map(|_| {
            let mut spent = Duration::ZERO;
            for _ in 0..reps {
                let t0 = Instant::now();
                let doc = Json::parse(std::hint::black_box(text));
                spent += t0.elapsed();
                assert!(doc.is_ok(), "generated document parses");
            }
            spent
        })
        .min()
        .expect("five trials");
    best.as_nanos() as f64 / (reps * text.len()) as f64
}

fn assert_linear(shape: &str, make: fn(usize) -> String) {
    let small = ns_per_byte(&make(SMALL));
    let large = ns_per_byte(&make(LARGE));
    let report = format!("{shape}: {small:.1} ns/B at 4 KB, {large:.1} ns/B at 4 MB");
    println!("{report}");
    assert!(large <= 3.0 * small, "{report} ({:.1}x)", large / small);
}

/// One test for both shapes, so the timed loops never share the machine
/// with each other.
#[test]
fn parse_time_is_linear_in_input_size() {
    assert_linear("matches reply", matches_reply);
    assert_linear("one long string", long_string);
}
