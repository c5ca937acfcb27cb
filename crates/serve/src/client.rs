//! A small blocking client for the wire protocol.
//!
//! Used by the benchmark's `wire_short` callers, the chaos suite, the
//! CI smoke, and `etsqp-serve query`. One connection, strictly
//! sequential request/response — a client wanting concurrency opens
//! more [`Client`]s.
//!
//! The client treats the server as untrusted: response bytes go through
//! the same bounded [`FrameDecoder`] and typed payload parsers the
//! server uses, so a hostile or corrupted peer produces a
//! [`ClientError::Proto`], never a panic or an unbounded allocation.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{
    decode_error, decode_result, encode_frame, FrameDecoder, FrameType, ProtoError, WireError,
    WireResult, DEFAULT_MAX_FRAME_LEN,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server broke the protocol.
    Proto(ProtoError),
    /// The connection closed before a response arrived.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// A server response: rows, or the server's typed error frame.
#[derive(Debug)]
pub enum Response {
    /// The query ran; here are its rows.
    Rows(WireResult),
    /// The server answered with a typed error (shed, timeout, SQL…).
    ServerError(WireError),
}

/// One blocking protocol connection.
pub struct Client {
    stream: TcpStream,
    dec: FrameDecoder,
}

impl Client {
    /// Connects with a default 10 s socket timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, Duration::from_secs(10))
    }

    /// Connects; `timeout` bounds every socket read and write.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            dec: FrameDecoder::new(DEFAULT_MAX_FRAME_LEN),
        })
    }

    /// Sends one SQL query and blocks for its response frame.
    pub fn query(&mut self, sql: &str) -> Result<Response, ClientError> {
        let frame = encode_frame(FrameType::Query, sql.as_bytes());
        self.stream.write_all(&frame)?;
        loop {
            match self.read_frame()? {
                (FrameType::Result, payload) => {
                    return Ok(Response::Rows(decode_result(&payload)?))
                }
                (FrameType::Error, payload) => {
                    return Ok(Response::ServerError(decode_error(&payload)?))
                }
                // Unsolicited pongs are tolerated; anything else from a
                // server is a protocol violation.
                (FrameType::Pong, _) => {}
                (FrameType::Query, _) | (FrameType::Ping, _) => {
                    return Err(ClientError::Proto(ProtoError::BadPayload(
                        "server sent a client-only frame type",
                    )))
                }
            }
        }
    }

    /// Sends a ping and waits for the pong (a liveness check).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.stream.write_all(&encode_frame(FrameType::Ping, &[]))?;
        loop {
            if let (FrameType::Pong, _) = self.read_frame()? {
                return Ok(());
            }
        }
    }

    /// The raw stream (tests use this to misbehave on purpose).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Waits for the server's next frame without sending anything:
    /// the typed farewell error, if the server sent one before closing.
    /// `None` means the connection closed (or timed out) frameless.
    pub fn query_farewell(&mut self) -> Option<WireError> {
        loop {
            match self.read_frame() {
                Ok((FrameType::Error, payload)) => return decode_error(&payload).ok(),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
    }

    fn read_frame(&mut self) -> Result<(FrameType, Vec<u8>), ClientError> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.dec.next_frame()? {
                return Ok((frame.kind, frame.payload));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => self.dec.extend(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }
}
