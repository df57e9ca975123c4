//! Property tests for the JSON codec every peg link speaks: any value the
//! writer can emit parses back to the same value with every `f64` bit
//! intact, and no damaged line — one byte overwritten, or cut short
//! anywhere — makes the parser panic.

use pegwire::Json;
use proptest::prelude::*;

/// Characters that take every branch of the string writer and parser:
/// plain ASCII, both escaped delimiters, named and `\u00XX` control
/// escapes, DEL, and 2-, 3- and 4-byte scalars.
const CHARS: [char; 14] =
    ['a', 'Z', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '→', '😀'];

fn string() -> impl Strategy<Value = String> + Clone {
    prop::collection::vec(prop::sample::select(CHARS.to_vec()), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

/// An arbitrary document, containers at most `depth` deep. Numbers come
/// from raw bit patterns (subnormals, `-0.0`, huge exponents); non-finite
/// ones are replaced because the writer has only `null` for them.
fn json(depth: usize) -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<u64>().prop_map(|bits| {
            let x = f64::from_bits(bits);
            Json::Num(if x.is_finite() { x } else { (bits % 1000) as f64 })
        }),
        string().prop_map(Json::Str),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = json(depth - 1);
    prop_oneof![
        leaf,
        prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Arr),
        prop::collection::vec((string(), inner), 0..5).prop_map(Json::Obj),
    ]
    .boxed()
}

/// `==` with numbers compared by bit pattern, so `-0.0` is not `0.0`.
fn bit_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bit_eq(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs.iter().zip(ys).all(|((kx, x), (ky, y))| kx == ky && bit_eq(x, y))
        }
        _ => a == b,
    }
}

/// A hand-written line covering what the writer never emits: `\uXXXX`
/// escapes of printable characters, a surrogate pair, `\/`, `\b`, `\f`,
/// exponents and inner whitespace.
const ESCAPED_LINE: &str =
    r#"{ "op" : "query", "s": "\u0041\ud83d\ude00\/\b\f\u00e9", "n": [ -1.5e-3, 2E+2, 0 ] }"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_documents_parse_back_bit_exactly(doc in json(4)) {
        let line = doc.to_string();
        let back = Json::parse(&line);
        prop_assert!(back.is_ok(), "{:?} on {}", back, line);
        prop_assert!(bit_eq(&back.unwrap(), &doc), "round trip changed {}", line);
    }

    /// Overwrite one byte or cut the line short; whatever is left reaches
    /// the parser the way a socket reader would hand it over (lossily
    /// decoded), and must come back as `Ok` or `Err`.
    #[test]
    fn damaged_lines_never_panic(
        line in prop_oneof![Just(ESCAPED_LINE.to_string()), json(3).prop_map(|doc| doc.to_string())],
        at in any::<usize>(),
        overwrite in prop::option::of(any::<u8>()),
    ) {
        let mut bytes = line.into_bytes();
        let at = at % bytes.len();
        match overwrite {
            Some(byte) => bytes[at] = byte,
            None => bytes.truncate(at),
        }
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn escaped_line_parses_undamaged() {
    let doc = Json::parse(ESCAPED_LINE).unwrap();
    assert_eq!(doc.get("op").and_then(Json::as_str), Some("query"));
    assert_eq!(doc.get("s").and_then(Json::as_str), Some("A😀/\u{8}\u{c}é"));
}
