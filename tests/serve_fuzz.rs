//! Protocol fuzzing: damaged request lines, pipelined on one connection,
//! each get exactly one structured reply, in order — and the connection
//! still answers afterwards.
//!
//! Every case takes a few read-only request lines (`ping`, `query`,
//! `prepare`, `explain`, `stats`), each tagged `"id":i` with its position,
//! and damages each one the way `crates/pegwire/tests/json_proptest.rs`
//! does: one byte overwritten, the line cut short, or — what that test
//! leaves out because its parser only sees decoded text — one invalid
//! UTF-8 byte inserted. Newline bytes are never written into a line, so
//! the framing is the test's to know: line `i`'s reply is the `i`-th line
//! back. That pairing is exact because a connection's requests are
//! answered in the order they arrived, and it is checked, not assumed:
//! what the server must say about each line follows from the line alone —
//! not UTF-8, not JSON, or a request whose `"id"` (when it still parses
//! as one) comes back on its reply.

use pegserve::{Client, Json, Server, ServerConfig, ServerHandle};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;

/// The read-only request lines the damage starts from; `{id}` is the
/// line's position in its case. All ASCII, so any inserted byte ≥ 0x80
/// breaks UTF-8.
const BASE: [&str; 5] = [
    r#"{"op":"ping","id":{id}}"#,
    r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.3,"limit":5,"id":{id}}"#,
    r#"{"op":"prepare","pattern":"(x:l0)-(y:l1), (y)-(z:l0)","alpha":0.2,"id":{id}}"#,
    r#"{"op":"explain","pattern":"(a:l1)-(b:l0)","alpha":0.4,"limit":3,"id":{id}}"#,
    r#"{"op":"stats","id":{id}}"#,
];

/// One way to damage a line; positions are taken modulo its length.
#[derive(Clone, Debug)]
enum Damage {
    /// Overwrite the byte at `at` (a newline becomes a space).
    Overwrite { at: usize, byte: u8 },
    /// Keep only the first `1 + at % (len - 1)` bytes.
    Truncate { at: usize },
    /// Insert `byte | 0x80` before position `at`.
    InsertNonUtf8 { at: usize, byte: u8 },
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Damage::Overwrite { at, byte }),
        any::<usize>().prop_map(|at| Damage::Truncate { at }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Damage::InsertNonUtf8 { at, byte }),
    ]
}

/// Base line `base` at position `id`, damaged.
fn damaged_line(base: usize, id: usize, damage: &Damage) -> Vec<u8> {
    let mut bytes = BASE[base].replace("{id}", &id.to_string()).into_bytes();
    let len = bytes.len();
    match *damage {
        Damage::Overwrite { at, byte } => bytes[at % len] = if byte == b'\n' { b' ' } else { byte },
        Damage::Truncate { at } => bytes.truncate(1 + at % (len - 1)),
        Damage::InsertNonUtf8 { at, byte } => bytes.insert(at % len, byte | 0x80),
    }
    bytes
}

/// One server for every case, serving until the test process exits: a
/// 200-reference synthetic graph, the only one loaded, so requests need
/// not name it.
fn server() -> SocketAddr {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    let handle = SERVER.get_or_init(|| {
        let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn();
        let load = r#"{"op":"load_graph","kind":"synthetic","size":200,"max_len":2}"#;
        let reply = Client::connect(handle.addr).unwrap().request_line(load).unwrap();
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        handle
    });
    handle.addr
}

/// What the server must answer to `line`, and whether it did: the reply
/// is JSON with a boolean `ok`; an error carries a string `error` and
/// `message`; a line that is not UTF-8 or not JSON is that `bad_request`;
/// and a request whose `"id"` reads as a u64 gets it back (any other
/// reply carries none).
fn check_reply(line: &[u8], reply: &Json) -> Result<(), TestCaseError> {
    let ok = reply.get("ok").and_then(Json::as_bool);
    prop_assert!(ok.is_some(), "no boolean ok in {}", reply);
    if ok == Some(false) {
        let code = reply.get("error").and_then(Json::as_str);
        let message = reply.get("message").and_then(Json::as_str);
        prop_assert!(code.is_some() && message.is_some(), "unstructured error {}", reply);
    }
    let message = reply.get("message").and_then(Json::as_str).unwrap_or("");
    let Ok(text) = std::str::from_utf8(line) else {
        prop_assert_eq!(message, "request line is not valid UTF-8", "reply {}", reply);
        return Ok(());
    };
    let Ok(request) = Json::parse(text.trim()) else {
        prop_assert!(message.starts_with("malformed JSON"), "{:?} answered {}", text, reply);
        return Ok(());
    };
    let want_id = request.get("id").and_then(Json::as_u64);
    prop_assert_eq!(
        reply.get("id").and_then(Json::as_u64),
        want_id,
        "{:?} answered {}",
        text,
        reply
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn damaged_lines_get_one_structured_reply_each_in_order(
        lines in prop::collection::vec((0..BASE.len(), damage()), 1..8),
    ) {
        let lines: Vec<Vec<u8>> =
            lines.iter().enumerate().map(|(id, (base, d))| damaged_line(*base, id, d)).collect();
        let mut stream = TcpStream::connect(server()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // All lines in one write: the server sees them pipelined.
        let mut wire = Vec::new();
        for line in &lines {
            wire.extend_from_slice(line);
            wire.push(b'\n');
        }
        stream.write_all(&wire).unwrap();
        let mut read_reply = || {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Json::parse(reply.trim())
        };
        for line in &lines {
            let reply = read_reply();
            prop_assert!(reply.is_ok(), "{:?} answered a non-JSON line {:?}", line, reply);
            check_reply(line, &reply.unwrap())?;
        }
        // Still in step: the next reply is the ping's.
        stream.write_all(b"{\"op\":\"ping\",\"id\":99}\n").unwrap();
        let pong = read_reply().unwrap();
        prop_assert_eq!(pong.get("pong"), Some(&Json::Bool(true)), "after the damage: {}", pong);
        prop_assert_eq!(pong.get("id").and_then(Json::as_u64), Some(99));
    }
}
