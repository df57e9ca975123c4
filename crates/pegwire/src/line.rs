//! One blocking line-protocol connection: a request is one framed write,
//! its reply one buffered line read.
//!
//! Every peg link — a client to a server, a coordinator to a shard worker —
//! carries one JSON object per line in each direction, and a server
//! answers a connection's requests in order. So the next line read on a
//! [`LineConn`] is the reply to the last line written, and nothing needs
//! routing. Concurrency comes from more connections, not from request
//! ids.
//!
//! Two optional deadlines. `connect_timeout` bounds the dial;
//! `io_timeout` bounds each write and the **whole** reply: before every
//! socket read it is applied again, shrunk to what is left, so a peer
//! trickling one byte at a time cannot stretch an exchange. With neither,
//! a connection makes the same system calls as a bare socket: one write
//! per request, buffered reads.
//!
//! A reply line is capped at [`MAX_REPLY_BYTES`], checked as it
//! accumulates, and must be strict UTF-8: a line patched with U+FFFD would
//! be read as if it were what the peer said. Any error leaves the
//! connection out of step with its peer (a reply may still be on its
//! way), so the caller drops it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Hard cap on one reply line: a memory backstop against a broken or
/// hostile peer streaming newline-free bytes, not a semantic limit —
/// legitimate replies are orders of magnitude smaller (the serving layer
/// separately caps result sizes).
pub const MAX_REPLY_BYTES: usize = 64 << 20;

/// A failed exchange.
#[derive(Debug)]
pub enum LineError {
    /// Socket-level failure: connect, write or read.
    Io(std::io::Error),
    /// The peer closed the connection before its reply began.
    Closed,
    /// The reply deadline passed.
    Timeout,
    /// The reply broke the framing: over the size cap, not UTF-8, or cut
    /// short by a close.
    Malformed(&'static str),
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::Io(e) => write!(f, "io error: {e}"),
            LineError::Closed => write!(f, "peer closed the connection"),
            LineError::Timeout => write!(f, "reply deadline exceeded"),
            LineError::Malformed(why) => write!(f, "malformed reply: {why}"),
        }
    }
}

impl std::error::Error for LineError {}

impl From<std::io::Error> for LineError {
    fn from(e: std::io::Error) -> Self {
        LineError::Io(e)
    }
}

impl From<LineError> for std::io::Error {
    fn from(e: LineError) -> Self {
        use std::io::ErrorKind;
        let kind = match e {
            LineError::Io(e) => return e,
            LineError::Closed => ErrorKind::UnexpectedEof,
            LineError::Timeout => ErrorKind::TimedOut,
            LineError::Malformed(_) => ErrorKind::InvalidData,
        };
        std::io::Error::new(kind, e.to_string())
    }
}

/// A connected line-protocol peer. See the module docs for the deadlines
/// and the failure model.
pub struct LineConn {
    /// The socket, read through the buffer and written directly.
    reader: BufReader<TcpStream>,
    io_timeout: Option<Duration>,
}

impl LineConn {
    /// Dials `addr` (within `connect_timeout`, when given; then only its
    /// first resolved address is tried) with Nagle off: one line each way
    /// per exchange is the worst case for Nagle + delayed ACK.
    pub fn connect(
        addr: impl ToSocketAddrs,
        connect_timeout: Option<Duration>,
        io_timeout: Option<Duration>,
    ) -> std::io::Result<LineConn> {
        let stream = match connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(limit) => {
                let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, "address did not resolve")
                })?;
                TcpStream::connect_timeout(&addr, limit)?
            }
        };
        stream.set_nodelay(true).ok();
        if io_timeout.is_some() {
            stream.set_write_timeout(io_timeout)?;
        }
        Ok(LineConn { reader: BufReader::new(stream), io_timeout })
    }

    /// Writes one request line, newline appended, as a single write: a
    /// request split across segments invites the Nagle + delayed-ACK
    /// stall the no-Nagle socket exists to avoid.
    pub fn send(&mut self, line: &str) -> Result<(), LineError> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.reader.get_mut().write_all(&framed)?;
        Ok(())
    }

    /// Reads one reply line, without its newline.
    pub fn recv(&mut self) -> Result<String, LineError> {
        self.recv_capped(MAX_REPLY_BYTES)
    }

    /// One exchange: [`LineConn::send`], then [`LineConn::recv`].
    pub fn call(&mut self, line: &str) -> Result<String, LineError> {
        self.send(line)?;
        self.recv()
    }

    /// [`LineConn::recv`] with the line capped at `cap` bytes. The line
    /// grows only from bytes already buffered, and never past `cap + 1`:
    /// the cap bounds memory, not just the answer.
    fn recv_capped(&mut self, cap: usize) -> Result<String, LineError> {
        let deadline = self.io_timeout.map(|t| Instant::now() + t);
        let mut line = Vec::new();
        loop {
            if self.reader.buffer().is_empty() {
                if let Some(deadline) = deadline {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(LineError::Timeout);
                    }
                    self.reader.get_ref().set_read_timeout(Some(left))?;
                }
                match self.reader.fill_buf() {
                    Ok([]) if line.is_empty() => return Err(LineError::Closed),
                    Ok([]) => return Err(LineError::Malformed("peer closed mid-reply")),
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if deadline.is_some()
                            && matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                    {
                        return Err(LineError::Timeout)
                    }
                    Err(e) => return Err(LineError::Io(e)),
                }
            }
            // Limiting the take to what is buffered keeps `read_until`
            // (and its fast newline search) from issuing a read of its own.
            let room = (cap + 1 - line.len()).min(self.reader.buffer().len());
            (&mut self.reader).take(room as u64).read_until(b'\n', &mut line)?;
            if line.last() == Some(&b'\n') {
                line.pop();
                break;
            }
            if line.len() > cap {
                return Err(LineError::Malformed("reply line exceeds the size cap"));
            }
        }
        String::from_utf8(line).map_err(|_| LineError::Malformed("invalid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A peer that hands each connection it accepts to `serve` on its own
    /// thread; returns its address.
    fn peer(serve: fn(TcpStream)) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().map_while(Result::ok) {
                std::thread::spawn(move || serve(stream));
            }
        });
        addr
    }

    fn connect(addr: &str, io_timeout: Duration) -> LineConn {
        LineConn::connect(addr, Some(Duration::from_secs(2)), Some(io_timeout)).unwrap()
    }

    #[test]
    fn call_round_trips_one_line_each_way() {
        // An echo peer: each request line comes back as its reply.
        let addr = peer(|stream| {
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines().map_while(Result::ok) {
                writeln!(writer, "{line}").unwrap();
            }
        });
        for mut conn in
            [LineConn::connect(&addr, None, None).unwrap(), connect(&addr, Duration::from_secs(2))]
        {
            assert_eq!(conn.call(r#"{"op":"ping"}"#).unwrap(), r#"{"op":"ping"}"#);
            assert_eq!(conn.call(r#"{"op":"é"}"#).unwrap(), r#"{"op":"é"}"#);
        }
    }

    #[test]
    fn trickling_peer_hits_the_whole_reply_deadline() {
        // One byte every 40 ms, never a newline: each read succeeds well
        // inside a per-read timeout, so only a whole-reply deadline ends it.
        let addr = peer(|mut stream| {
            for _ in 0..100 {
                if stream.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let mut conn = connect(&addr, Duration::from_millis(300));
        let t0 = Instant::now();
        let err = conn.call("{}").unwrap_err();
        let elapsed = t0.elapsed();
        assert!(matches!(err, LineError::Timeout), "{err}");
        assert!(
            elapsed >= Duration::from_millis(250) && elapsed < Duration::from_secs(2),
            "whole-reply deadline enforced, got {elapsed:?}"
        );
    }

    #[test]
    fn closed_peer_gives_closed() {
        let addr = peer(|stream| {
            // Read the request, then hang up without a reply.
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
        });
        let mut conn = connect(&addr, Duration::from_secs(2));
        let err = conn.call("{}").unwrap_err();
        assert!(matches!(err, LineError::Closed), "{err}");
    }

    #[test]
    fn over_cap_line_errors_without_a_full_size_allocation() {
        // A peer streaming newline-free bytes for as long as anyone reads.
        let addr = peer(|mut stream| {
            let block = [b'x'; 4096];
            while stream.write_all(&block).is_ok() {}
        });
        // The cap is checked as the line grows, never after the fact, so a
        // 10 kB cap trips on the same path the 64 MiB one does without
        // anyone allocating 64 MiB.
        let mut conn = connect(&addr, Duration::from_secs(5));
        conn.send("{}").unwrap();
        let err = conn.recv_capped(10_000).unwrap_err();
        assert!(matches!(err, LineError::Malformed(why) if why.contains("size cap")), "{err}");
    }

    #[test]
    fn invalid_utf8_reply_errors() {
        // Well-formed JSON but for one byte: patched with U+FFFD it would
        // parse as the peer's answer.
        let addr = peer(|mut stream| {
            stream.write_all(b"{\"ok\":true,\"note\":\"caf\xE9\"}\n").unwrap();
            std::thread::sleep(Duration::from_millis(200));
        });
        let mut conn = connect(&addr, Duration::from_secs(2));
        let err = conn.recv().unwrap_err();
        assert!(matches!(err, LineError::Malformed(why) if why.contains("UTF-8")), "{err}");
    }
}
