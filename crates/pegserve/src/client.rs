//! A blocking line-protocol client for [`Server`](crate::server::Server).
//!
//! One request per call: write a JSON line, read the JSON reply line.
//! Requests on one connection are processed in order by a dedicated server
//! thread, so the pairing is exact. Concurrency comes from opening one
//! client per thread, which is also what gives the server's admission
//! control something to arbitrate. The connection is a
//! [`pegwire::LineConn`] without deadlines — the one the shard transport
//! uses with them.

use crate::json::{Json, JsonError};
use pegwire::LineConn;
use std::net::ToSocketAddrs;

/// A connected protocol client.
pub struct Client {
    conn: LineConn,
}

/// Client-side failure: transport or malformed reply.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's reply line was not valid JSON.
    BadReply(JsonError, String),
    /// The server closed the connection.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::BadReply(e, line) => write!(f, "bad reply ({e}): {line}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Ok(Client { conn: LineConn::connect(addr, None, None)? })
    }

    /// Sends a raw line and returns the raw reply line (no JSON handling);
    /// the scripting path `pegcli client` uses.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        let mut reply = self.conn.call(line)?;
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// Sends one request object and parses the reply.
    pub fn request(&mut self, req: &Json) -> Result<Json, ClientError> {
        let line = self.request_line(&req.to_string())?;
        Json::parse(&line).map_err(|e| ClientError::BadReply(e, line))
    }
}
