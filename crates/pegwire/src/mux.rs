//! A multiplexed line-protocol connection: many in-flight requests on one
//! socket, replies matched by request id.
//!
//! A strict one-request/one-reply exchange makes concurrent callers
//! sharing a connection queue behind each other. [`MuxConn`] removes that
//! ceiling: every request carries a connection-unique `"id"` field, the
//! peer echoes the id on its reply, and a dedicated reader thread routes
//! each reply line to whichever caller is waiting on that id. Replies may
//! arrive in any order; callers overlap freely.
//!
//! The routing table itself is [`Demux`], a pure structure (no sockets)
//! so its invariants are property-testable: a reply for an unknown or
//! already-answered id is a protocol error, registering the same id twice
//! is refused, and a reply for a *cancelled* id (the caller timed out and
//! walked away) is silently discarded — a slow peer answering late must
//! not poison the connection for everyone else.
//!
//! Failure model: any reader-side error (socket closed, a line that is not
//! UTF-8 or not JSON, missing/unknown id) marks the connection dead and
//! fails every pending and future request with the reason — a multiplexed
//! socket cannot be resynchronized once reply framing is in doubt. Callers
//! reconnect.

use crate::json::Json;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A multiplexed-exchange failure.
#[derive(Debug)]
pub enum MuxError {
    /// Socket-level failure (connect, write).
    Io(std::io::Error),
    /// The connection is dead (reader hit an error); the reason is the
    /// reader's diagnosis. All pending and future requests fail with this.
    Dead(String),
    /// The caller's per-request deadline elapsed before the reply arrived.
    Timeout,
    /// The address did not resolve to any socket address.
    BadAddr(String),
}

impl std::fmt::Display for MuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MuxError::Io(e) => write!(f, "io error: {e}"),
            MuxError::Dead(reason) => write!(f, "connection dead: {reason}"),
            MuxError::Timeout => write!(f, "reply deadline exceeded"),
            MuxError::BadAddr(a) => write!(f, "address '{a}' did not resolve"),
        }
    }
}

impl std::error::Error for MuxError {}

impl From<std::io::Error> for MuxError {
    fn from(e: std::io::Error) -> Self {
        MuxError::Io(e)
    }
}

/// What the reader delivers per reply: the parsed object and its
/// on-the-wire size (line + newline), so callers can keep byte counters
/// without re-serializing.
type Delivery = Result<(Json, u64), String>;

/// A demultiplexing error — the protocol invariant a reply violated.
#[derive(Debug, PartialEq, Eq)]
pub enum DemuxError {
    /// `register` was called with an id that is already in flight.
    DuplicateId(u64),
    /// `route` was called with an id nobody registered (and nobody
    /// cancelled): the peer invented or replayed an id.
    UnknownId(u64),
}

impl std::fmt::Display for DemuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DemuxError::DuplicateId(id) => write!(f, "request id {id} is already in flight"),
            DemuxError::UnknownId(id) => write!(f, "reply carries unknown request id {id}"),
        }
    }
}

impl std::error::Error for DemuxError {}

/// The reply-routing table: in-flight request ids mapped to the channel
/// their caller waits on, plus the set of cancelled ids whose late
/// replies must be discarded rather than treated as protocol errors.
#[derive(Default)]
pub struct Demux {
    waiting: HashMap<u64, mpsc::Sender<Delivery>>,
    /// Ids whose caller gave up (deadline): one late reply each is
    /// swallowed. Bounded — see [`Demux::cancel`].
    abandoned: HashSet<u64>,
    /// Most in-flight ids ever waiting at once (concurrency diagnostics).
    inflight_hwm: usize,
}

/// Cap on remembered cancelled ids. Each entry exists only until the
/// peer's late reply arrives (or forever, if the peer never answers); the
/// cap bounds memory against a peer that never answers anything. Evicting
/// an abandoned id means its eventual reply kills the connection — the
/// safe failure direction.
const MAX_ABANDONED: usize = 4096;

impl Demux {
    /// An empty table.
    pub fn new() -> Demux {
        Demux::default()
    }

    /// Registers `id` as in flight, returning the receiver its reply will
    /// be delivered on. Refuses an id that is already waiting.
    pub fn register(&mut self, id: u64) -> Result<mpsc::Receiver<Delivery>, DemuxError> {
        use std::collections::hash_map::Entry;
        match self.waiting.entry(id) {
            Entry::Occupied(_) => Err(DemuxError::DuplicateId(id)),
            Entry::Vacant(slot) => {
                // Re-registering a cancelled id revives it.
                self.abandoned.remove(&id);
                let (tx, rx) = mpsc::channel();
                slot.insert(tx);
                self.inflight_hwm = self.inflight_hwm.max(self.waiting.len());
                Ok(rx)
            }
        }
    }

    /// Routes one reply to its waiting caller. A cancelled id's reply is
    /// silently discarded; an id nobody is (or was) waiting on is a
    /// protocol error. Returns whether the reply was delivered.
    pub fn route(&mut self, id: u64, delivery: Delivery) -> Result<bool, DemuxError> {
        if let Some(tx) = self.waiting.remove(&id) {
            // A dropped receiver (caller gone without cancelling) is
            // equivalent to a cancelled id: discard.
            return Ok(tx.send(delivery).is_ok());
        }
        if self.abandoned.remove(&id) {
            return Ok(false);
        }
        Err(DemuxError::UnknownId(id))
    }

    /// Marks an in-flight id as walked-away-from: its eventual reply is
    /// discarded instead of poisoning the connection. No-op for ids not
    /// in flight.
    pub fn cancel(&mut self, id: u64) {
        if self.waiting.remove(&id).is_some() && self.abandoned.len() < MAX_ABANDONED {
            self.abandoned.insert(id);
        }
    }

    /// Fails every in-flight request with `reason` and clears the table.
    pub fn fail_all(&mut self, reason: &str) {
        for (_, tx) in self.waiting.drain() {
            let _ = tx.send(Err(reason.to_string()));
        }
        self.abandoned.clear();
    }

    /// In-flight request count.
    pub fn len(&self) -> usize {
        self.waiting.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    /// Abandoned-request tombstones currently held: replies the peer still
    /// owes for requests whose callers gave up. A value that stays nonzero
    /// after load drains means the peer is swallowing requests — the
    /// blind spot that made PR 6's deadlock hard to see.
    pub fn tombstones(&self) -> usize {
        self.abandoned.len()
    }

    /// Most requests ever in flight at once on this table.
    pub fn inflight_hwm(&self) -> usize {
        self.inflight_hwm
    }
}

/// State shared between callers and the reader thread.
struct Shared {
    demux: Mutex<Demux>,
    /// Set once by the reader when the connection dies; the reason every
    /// later request fails with.
    dead: Mutex<Option<String>>,
    bytes_rx: AtomicU64,
}

impl Shared {
    fn kill(&self, reason: &str) {
        let mut dead = self.dead.lock().unwrap();
        if dead.is_none() {
            *dead = Some(reason.to_string());
        }
        drop(dead);
        self.demux.lock().unwrap().fail_all(reason);
    }
}

/// Hard cap on one reply line. This is a memory backstop against a
/// malicious or broken peer streaming newline-free bytes, not a semantic
/// limit — legitimate shard replies are orders of magnitude smaller (the
/// serving layer separately caps result sizes).
const MAX_MUX_REPLY_BYTES: usize = 64 << 20;

/// A multiplexed connection. Cheap to share (`Arc`); every method takes
/// `&self`. See the module docs for the failure model.
pub struct MuxConn {
    shared: Arc<Shared>,
    /// Kept for `Shutdown` on drop (wakes the reader out of its blocking
    /// read).
    stream: TcpStream,
    writer: Mutex<TcpStream>,
    next_id: AtomicU64,
    bytes_tx: AtomicU64,
    reader: Option<std::thread::JoinHandle<()>>,
}

/// One in-flight request: wait for its reply (or give up — the reply slot
/// is cancelled so the late answer is discarded, not a protocol error).
pub struct PendingReply {
    rx: mpsc::Receiver<Delivery>,
    id: u64,
    /// Wire bytes the request occupied (line + newline).
    pub sent_bytes: u64,
    shared: Arc<Shared>,
}

impl PendingReply {
    /// The id this request went out under.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the reply arrives, the connection dies, or `timeout`
    /// elapses. Returns the reply and its on-the-wire byte count.
    pub fn wait(self, timeout: Duration) -> Result<(Json, u64), MuxError> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(reply)) => Ok(reply),
            Ok(Err(reason)) => Err(MuxError::Dead(reason)),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.shared.demux.lock().unwrap().cancel(self.id);
                Err(MuxError::Timeout)
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let reason = self.shared.dead.lock().unwrap().clone();
                Err(MuxError::Dead(reason.unwrap_or_else(|| "connection closed".into())))
            }
        }
    }
}

/// Splices `"id":N` into an already-serialized JSON object line. The
/// peer's `get("id")` scans fields last-wins, so even a hostile object
/// that already carried an `id` field is overridden, not confused.
fn splice_id(line: &str, id: u64) -> String {
    let body = line.trim_end();
    debug_assert!(body.starts_with('{') && body.ends_with('}'), "mux requests are JSON objects");
    let inner = &body[..body.len() - 1];
    if inner.trim_end().ends_with('{') {
        format!("{inner}\"id\":{id}}}")
    } else {
        format!("{inner},\"id\":{id}}}")
    }
}

impl MuxConn {
    /// Connects to `addr` within `connect_timeout` and starts the reader
    /// thread. `io_timeout` bounds each *write*; reads are unbounded on
    /// the reader side (callers bound their own waits per request via
    /// [`PendingReply::wait`]).
    pub fn connect(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Result<MuxConn, MuxError> {
        let sockaddr: SocketAddr = addr
            .to_socket_addrs()
            .map_err(MuxError::Io)?
            .next()
            .ok_or_else(|| MuxError::BadAddr(addr.to_string()))?;
        let stream = TcpStream::connect_timeout(&sockaddr, connect_timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(io_timeout))?;
        let writer = stream.try_clone()?;
        let reader_stream = stream.try_clone()?;
        let shared = Arc::new(Shared {
            demux: Mutex::new(Demux::new()),
            dead: Mutex::new(None),
            bytes_rx: AtomicU64::new(0),
        });
        let reader_shared = shared.clone();
        let reader = std::thread::Builder::new()
            .name("pegwire-mux-reader".into())
            .spawn(move || reader_loop(reader_stream, reader_shared))
            .map_err(MuxError::Io)?;
        Ok(MuxConn {
            shared,
            stream,
            writer: Mutex::new(writer),
            next_id: AtomicU64::new(1),
            bytes_tx: AtomicU64::new(0),
            reader: Some(reader),
        })
    }

    /// True until the reader thread diagnoses a dead connection.
    pub fn is_alive(&self) -> bool {
        self.shared.dead.lock().unwrap().is_none()
    }

    /// Bytes written since connect (request lines incl. newline and the
    /// spliced id field).
    pub fn bytes_tx(&self) -> u64 {
        self.bytes_tx.load(Ordering::Relaxed)
    }

    /// Bytes read since connect (reply lines incl. newline).
    pub fn bytes_rx(&self) -> u64 {
        self.shared.bytes_rx.load(Ordering::Relaxed)
    }

    /// Sends `line` (a serialized JSON object *without* an id — one is
    /// assigned and spliced in) and returns the in-flight handle. The
    /// writer lock is held only for the single framed write, so many
    /// requests stream out back to back while earlier replies are still
    /// pending — the multiplexing win.
    pub fn begin(&self, line: &str) -> Result<PendingReply, MuxError> {
        if let Some(reason) = self.shared.dead.lock().unwrap().clone() {
            return Err(MuxError::Dead(reason));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut framed = splice_id(line, id).into_bytes();
        framed.push(b'\n');
        // Register before writing: the reply cannot outrun its slot.
        let rx = self
            .shared
            .demux
            .lock()
            .unwrap()
            .register(id)
            .expect("connection-unique counter ids never collide");
        let written = {
            let mut writer = self.writer.lock().unwrap();
            writer.write_all(&framed).and_then(|()| writer.flush())
        };
        if let Err(e) = written {
            self.shared.demux.lock().unwrap().cancel(id);
            return Err(MuxError::Io(e));
        }
        self.bytes_tx.fetch_add(framed.len() as u64, Ordering::Relaxed);
        Ok(PendingReply { rx, id, sent_bytes: framed.len() as u64, shared: self.shared.clone() })
    }

    /// One full exchange: [`MuxConn::begin`] + [`PendingReply::wait`].
    pub fn call(&self, line: &str, timeout: Duration) -> Result<(Json, u64), MuxError> {
        self.begin(line)?.wait(timeout)
    }

    /// Abandoned-request tombstones currently held by the demultiplexer
    /// (see [`Demux::tombstones`]).
    pub fn tombstones(&self) -> usize {
        self.shared.demux.lock().unwrap().tombstones()
    }

    /// High-water mark of concurrently in-flight requests since connect
    /// (see [`Demux::inflight_hwm`]).
    pub fn inflight_hwm(&self) -> usize {
        self.shared.demux.lock().unwrap().inflight_hwm()
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // Wake the reader out of its blocking read, fail any stragglers,
        // and join so no detached thread outlives the connection.
        let _ = self.stream.shutdown(Shutdown::Both);
        self.shared.kill("connection closed");
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The reader: frames reply lines, parses, routes by echoed id. Any
/// error is terminal for the connection (see the module docs).
fn reader_loop(stream: TcpStream, shared: Arc<Shared>) {
    use std::io::BufRead;
    // Blocking reads: the reader parks in the kernel until bytes arrive
    // or `MuxConn::drop` shuts the socket down.
    let _ = stream.set_read_timeout(None);
    let mut reader = std::io::BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        loop {
            let available = match reader.fill_buf() {
                Ok(b) => b,
                Err(e) => {
                    shared.kill(&format!("read failed: {e}"));
                    return;
                }
            };
            if available.is_empty() {
                let reason = if line.is_empty() {
                    "peer closed the connection".to_string()
                } else {
                    "peer closed mid-reply".to_string()
                };
                shared.kill(&reason);
                return;
            }
            if let Some(pos) = available.iter().position(|&b| b == b'\n') {
                line.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                break;
            }
            line.extend_from_slice(available);
            let n = available.len();
            reader.consume(n);
            if line.len() > MAX_MUX_REPLY_BYTES {
                shared.kill("reply line exceeds the size cap");
                return;
            }
        }
        let wire_bytes = line.len() as u64 + 1;
        shared.bytes_rx.fetch_add(wire_bytes, Ordering::Relaxed);
        // Strict, not lossy: a line patched with U+FFFD would be routed as
        // if it were what the peer said.
        let Ok(text) = std::str::from_utf8(&line) else {
            shared.kill("malformed reply: invalid utf-8");
            return;
        };
        let reply = match Json::parse(text.trim_end()) {
            Ok(v) => v,
            Err(e) => {
                shared.kill(&format!("malformed reply: {e}"));
                return;
            }
        };
        let Some(id) = reply.get("id").and_then(Json::as_u64) else {
            shared.kill("reply carries no request id");
            return;
        };
        // Bind the route result before matching on it: an `if let` on the
        // locked expression would hold the demux guard through its body
        // (edition-2021 temporary lifetime), and `kill` re-locks demux —
        // a self-deadlock that also wedges every caller's timeout path.
        let routed = shared.demux.lock().unwrap().route(id, Ok((reply, wire_bytes)));
        if let Err(e) = routed {
            shared.kill(&e.to_string());
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A test peer: answers every request line with `f(request)` lines,
    /// possibly reordered by the caller-provided closure.
    fn echo_server(
        reorder: impl Fn(Vec<Json>) -> Vec<Json> + Send + 'static,
        batch: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut pending = Vec::new();
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let req = Json::parse(line.trim()).unwrap();
                let id = req.get("id").unwrap().as_u64().unwrap();
                pending.push(
                    crate::obj()
                        .field("ok", true)
                        .field("echo", req.clone())
                        .field("id", id)
                        .build(),
                );
                if pending.len() >= batch {
                    for reply in reorder(std::mem::take(&mut pending)) {
                        writeln!(writer, "{reply}").unwrap();
                    }
                    writer.flush().unwrap();
                }
            }
        });
        (addr, join)
    }

    #[test]
    fn out_of_order_replies_route_to_the_right_caller() {
        // The peer buffers 3 requests and answers them in reverse.
        let (addr, _join) = echo_server(|mut v| (v.reverse(), v).1, 3);
        let conn =
            MuxConn::connect(&addr.to_string(), Duration::from_secs(2), Duration::from_secs(2))
                .unwrap();
        let p1 = conn.begin(r#"{"op":"a"}"#).unwrap();
        let p2 = conn.begin(r#"{"op":"b"}"#).unwrap();
        let p3 = conn.begin(r#"{"op":"c"}"#).unwrap();
        // Wait in send order; replies arrived in reverse.
        let (r1, _) = p1.wait(Duration::from_secs(2)).unwrap();
        let (r2, _) = p2.wait(Duration::from_secs(2)).unwrap();
        let (r3, _) = p3.wait(Duration::from_secs(2)).unwrap();
        let op =
            |r: &Json| r.get("echo").unwrap().get("op").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(op(&r1), "a");
        assert_eq!(op(&r2), "b");
        assert_eq!(op(&r3), "c");
        assert!(conn.bytes_tx() > 0 && conn.bytes_rx() > 0);
    }

    #[test]
    fn timeout_cancels_the_slot_and_a_late_reply_is_discarded() {
        // The peer holds every reply until 2 requests queue.
        let (addr, _join) = echo_server(|v| v, 2);
        let conn =
            MuxConn::connect(&addr.to_string(), Duration::from_secs(2), Duration::from_secs(2))
                .unwrap();
        let p1 = conn.begin(r#"{"op":"slow"}"#).unwrap();
        assert!(matches!(p1.wait(Duration::from_millis(100)), Err(MuxError::Timeout)));
        // The second request releases both replies; the first (cancelled)
        // is discarded, the second routes normally — the connection
        // survives the late reply.
        let (r2, _) = conn.begin(r#"{"op":"fast"}"#).unwrap().wait(Duration::from_secs(2)).unwrap();
        assert_eq!(r2.get("echo").unwrap().get("op").and_then(Json::as_str), Some("fast"));
        assert!(conn.is_alive());
    }

    /// A peer that reads one request, answers it with `reply` (raw bytes, a
    /// newline appended) and holds the socket open, so a kill is the
    /// reader's diagnosis and not a close; returns a connection to it with
    /// that one request in flight.
    fn call_one_shot_peer(reply: &'static [u8]) -> (MuxConn, PendingReply) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            writer.write_all(reply).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(500));
        });
        let conn =
            MuxConn::connect(&addr.to_string(), Duration::from_secs(2), Duration::from_secs(2))
                .unwrap();
        let pending = conn.begin(r#"{"op":"x"}"#).unwrap();
        (conn, pending)
    }

    #[test]
    fn unknown_id_reply_kills_the_connection() {
        // Reply with an id nobody asked for.
        let (conn, p) = call_one_shot_peer(br#"{"ok":true,"id":999999}"#);
        let err = p.wait(Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, MuxError::Dead(ref r) if r.contains("unknown request id")), "{err}");
        assert!(!conn.is_alive());
        // Future requests fail fast.
        assert!(matches!(conn.begin(r#"{"op":"y"}"#), Err(MuxError::Dead(_))));
    }

    #[test]
    fn invalid_utf8_reply_kills_the_connection() {
        // Well-formed JSON for request 1 but for one byte: patched with
        // U+FFFD it would parse and route as the peer's answer.
        let (conn, p) = call_one_shot_peer(b"{\"ok\":true,\"note\":\"caf\xE9\",\"id\":1}");
        let err = p.wait(Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, MuxError::Dead(ref r) if r.contains("invalid utf-8")), "{err}");
        assert!(!conn.is_alive());
    }

    #[test]
    fn splice_id_handles_empty_and_populated_objects() {
        assert_eq!(splice_id("{}", 7), r#"{"id":7}"#);
        assert_eq!(splice_id(r#"{"op":"q"}"#, 7), r#"{"op":"q","id":7}"#);
        // The result stays parseable and the id wins a last-scan lookup.
        let v = Json::parse(&splice_id(r#"{"id":3,"op":"q"}"#, 9)).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(9));
    }

    #[test]
    fn demux_register_route_cancel_invariants() {
        let mut d = Demux::new();
        let rx = d.register(1).unwrap();
        assert_eq!(d.register(1).unwrap_err(), DemuxError::DuplicateId(1));
        assert_eq!(d.route(2, Err("x".into())).unwrap_err(), DemuxError::UnknownId(2));
        assert!(d.route(1, Ok((Json::Null, 3))).unwrap());
        assert!(rx.try_recv().is_ok());
        // Routing the same id twice is unknown the second time.
        assert_eq!(d.route(1, Ok((Json::Null, 3))).unwrap_err(), DemuxError::UnknownId(1));
        // Cancelled ids swallow exactly one reply.
        d.register(5).unwrap();
        d.cancel(5);
        assert!(!d.route(5, Ok((Json::Null, 1))).unwrap());
        assert_eq!(d.route(5, Ok((Json::Null, 1))).unwrap_err(), DemuxError::UnknownId(5));
        assert!(d.is_empty());
    }

    #[test]
    fn demux_counts_tombstones_and_inflight_high_water() {
        let mut d = Demux::new();
        let _r1 = d.register(1).unwrap();
        let _r2 = d.register(2).unwrap();
        let _r3 = d.register(3).unwrap();
        assert_eq!(d.inflight_hwm(), 3);
        assert_eq!(d.tombstones(), 0);
        d.cancel(2);
        d.cancel(3);
        assert_eq!(d.tombstones(), 2, "two callers walked away");
        // The HWM is sticky: draining does not lower it.
        assert!(d.route(1, Ok((Json::Null, 1))).unwrap());
        assert_eq!(d.inflight_hwm(), 3);
        // A late reply consumes its tombstone.
        assert!(!d.route(2, Ok((Json::Null, 1))).unwrap());
        assert_eq!(d.tombstones(), 1);
        // Reviving a cancelled id removes its tombstone too.
        let _r3b = d.register(3).unwrap();
        assert_eq!(d.tombstones(), 0);
    }
}
