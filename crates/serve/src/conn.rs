//! Per-connection state machine.
//!
//! Each accepted socket gets one handler thread running a strictly
//! sequential dialogue on a *blocking* socket: read a request, answer
//! it, read the next. The thread never sleeps to poll; it is always
//! parked in exactly one wait, and the event it waits for ends that
//! wait:
//!
//! | state | blocked in | ended by | bound enforced |
//! |---|---|---|---|
//! | idle / mid-frame | `read` | request bytes, EOF, reset | `SO_RCVTIMEO` = [`IDLE_TICK`], after which drain and [`partial_frame_timeout`] are checked |
//! | query in flight | `recv_timeout` on the outcome channel | the runner's `send` | [`PROBE_TICK`], after which the socket is probed for EOF/reset and the drain deadline is checked |
//! | response owed | `write` | the peer's window taking the frame | `SO_SNDTIMEO` = [`write_stall_timeout`], summed over the frame |
//!
//! Two rules keep the blocking waits honest. The handler never enters
//! `read` while the [`FrameDecoder`] already holds a complete frame, so
//! pipelined requests are answered back to back; and a response is
//! written out before anything else happens, so a query's runner is
//! released *before* its bytes meet a slow peer. Every failure mode an
//! open network hands us therefore degrades *that connection only*:
//!
//! * **slow reader** — the handler blocks in `write` and reads no new
//!   requests (backpressure); a peer that keeps one response blocked
//!   for [`write_stall_timeout`] in total is disconnected, so a trickle
//!   reader is bounded like a dead one. It holds a handler thread,
//!   never a runner;
//! * **slow-loris writer** — a half-open frame that makes no progress
//!   for [`partial_frame_timeout`] closes the connection (complete
//!   frames arriving slowly are fine);
//! * **disconnect mid-query** — EOF or a reset seen by a probe fires the
//!   query's [`CancellationToken`], so the engine abandons it at the
//!   next morsel boundary and the runner and pool workers are reclaimed
//!   instead of computing a result nobody reads;
//! * **protocol violation** — a typed error frame is written
//!   best-effort, then the connection closes.
//!
//! One in-flight query per connection: a client wanting concurrency
//! opens more connections, which is exactly the unit the server's
//! admission control and connection cap reason about.
//!
//! [`partial_frame_timeout`]: crate::ServeConfig::partial_frame_timeout
//! [`write_stall_timeout`]: crate::ServeConfig::write_stall_timeout

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use etsqp_core::cancel::CancellationToken;
use etsqp_core::Error as CoreError;

use crate::admission::{Job, Outcome};
use crate::proto::{
    encode_core_error, encode_error, encode_frame, encode_result, ErrorCode, Frame, FrameDecoder,
    FrameType, HEADER_LEN,
};
use crate::server::Shared;

/// Read timeout of a connection with no query in flight. Request bytes
/// end the read at once; the tick only bounds how late an idle handler
/// notices a drain or a half-open frame past its timeout.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// How often a handler waiting for its query's outcome looks at the
/// socket for EOF/reset. The outcome itself ends the wait at once, so
/// queries shorter than this never probe.
const PROBE_TICK: Duration = Duration::from_millis(1);

/// What one `read` brought in.
enum Intake {
    Data,
    Quiet,
    Gone,
}

struct Conn<'a> {
    shared: &'a Shared,
    stream: TcpStream,
    dec: FrameDecoder,
    read_buf: Vec<u8>,
    last_rx: Instant,
}

/// Runs one connection to completion. Called on the connection's own
/// thread; returns when the peer is gone, misbehaves, or the server
/// drains.
pub(crate) fn handle(shared: &Shared, stream: TcpStream) {
    let cfg = &shared.cfg;
    if stream.set_read_timeout(Some(IDLE_TICK)).is_err()
        || stream
            .set_write_timeout(Some(cfg.write_stall_timeout))
            .is_err()
    {
        return;
    }
    let mut conn = Conn {
        shared,
        stream,
        dec: FrameDecoder::new(cfg.max_frame_len),
        read_buf: vec![0u8; 16 * 1024],
        last_rx: Instant::now(),
    };
    loop {
        // Buffered frames first: blocking in `read` over a complete
        // pipelined request would stall it for a whole tick.
        match conn.dec.next_frame() {
            Ok(Some(frame)) => {
                shared.stats.frames_rx.fetch_add(1, Ordering::Relaxed);
                if !conn.serve(frame) {
                    return;
                }
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                conn.farewell(&e.to_string());
                return;
            }
        }
        if shared.is_draining() {
            // A request that reached the socket before the drain did is
            // still owed a typed answer (the pool sheds it); only a
            // quiet connection is closed.
            if shared.drain_expired() || !matches!(conn.probe(), Intake::Data) {
                return;
            }
            continue;
        }
        if conn.dec.mid_frame() && conn.last_rx.elapsed() > cfg.partial_frame_timeout {
            shared
                .stats
                .slow_loris_closed
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Intake::Gone = conn.fill() {
            return;
        }
    }
}

impl Conn<'_> {
    /// One `read` into the decoder: blocking up to the socket's read
    /// timeout, or not at all under [`Conn::probe`].
    fn fill(&mut self) -> Intake {
        match self.stream.read(&mut self.read_buf) {
            Ok(0) => Intake::Gone,
            Ok(n) => {
                let stats = &self.shared.stats;
                stats.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
                self.dec.extend(&self.read_buf[..n]);
                self.last_rx = Instant::now();
                Intake::Data
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Intake::Quiet
            }
            Err(_) => Intake::Gone,
        }
    }

    /// Writes one response frame; `false` if the peer is gone or kept
    /// the write blocked for `write_stall_timeout`.
    fn send(&mut self, kind: FrameType, payload: &[u8]) -> bool {
        let frame = encode_frame(kind, payload);
        loop {
            match self.stream.write(&frame) {
                // A blocking `write` returns short only when
                // `SO_SNDTIMEO` ran out while part of the frame was
                // still waiting for the peer's window. Carrying on (as
                // `write_all` would) hands the peer a fresh timeout per
                // call: a reader draining a byte now and then could
                // hold the handler for ever.
                Ok(n) => return n == frame.len(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Counts a protocol violation, tells the peer best-effort, and
    /// reports that the connection must close.
    fn farewell(&mut self, message: &str) -> bool {
        let stats = &self.shared.stats;
        stats.proto_errors.fetch_add(1, Ordering::Relaxed);
        self.send(
            FrameType::Error,
            &encode_error(ErrorCode::Proto, 0, message),
        );
        false
    }

    /// Answers one complete, well-formed frame; `false` closes the
    /// connection.
    fn serve(&mut self, frame: Frame) -> bool {
        match frame.kind {
            FrameType::Ping => self.send(FrameType::Pong, &[]),
            FrameType::Query => {
                let Ok(sql) = String::from_utf8(frame.payload) else {
                    return self.farewell("query payload is not UTF-8");
                };
                let stats = &self.shared.stats;
                stats.queries_rx.fetch_add(1, Ordering::Relaxed);
                let ctl = match self.shared.cfg.admission.default_deadline {
                    Some(d) => CancellationToken::with_timeout(d),
                    None => CancellationToken::new(),
                };
                let (reply, rx) = channel();
                let job = Job {
                    sql,
                    ctl: ctl.clone(),
                    reply,
                };
                match self.shared.pool.submit(job) {
                    Ok(()) => match self.await_outcome(&rx, &ctl) {
                        Some((kind, payload)) => self.send(kind, &payload),
                        None => false,
                    },
                    // Shed: fail fast with the typed overload frame; the
                    // connection stays open so the client can retry
                    // after backing off.
                    Err(e) => self.send(FrameType::Error, &encode_core_error(&e)),
                }
            }
            // Server-to-client frame types are violations coming *from*
            // a client.
            FrameType::Result | FrameType::Error | FrameType::Pong => {
                self.farewell("client sent a server-only frame type")
            }
        }
    }

    /// Parks until the runner sends the query's outcome and returns the
    /// response frame it calls for. `None`: the peer vanished or the
    /// drain deadline passed first; the query has been cancelled and the
    /// connection must close.
    fn await_outcome(
        &mut self,
        rx: &Receiver<Outcome>,
        ctl: &CancellationToken,
    ) -> Option<(FrameType, Vec<u8>)> {
        let stats = &self.shared.stats;
        let error = |payload| Some((FrameType::Error, payload));
        loop {
            match rx.recv_timeout(PROBE_TICK) {
                Ok(Outcome { result: Ok(r), .. }) => {
                    let payload = encode_result(&r);
                    if payload.len() <= self.shared.cfg.max_frame_len {
                        return Some((FrameType::Result, payload));
                    }
                    stats.oversized_results.fetch_add(1, Ordering::Relaxed);
                    return error(encode_error(
                        ErrorCode::Internal,
                        0,
                        "result exceeds the frame cap; narrow the query",
                    ));
                }
                Ok(Outcome { result: Err(e), .. }) => return error(encode_core_error(&e)),
                // The runner pool dropped the job without replying
                // (drain cancelled it); tell the client.
                Err(RecvTimeoutError::Disconnected) => {
                    return error(encode_core_error(&CoreError::Cancelled))
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.peer_gone() || self.shared.drain_expired() {
                        ctl.cancel();
                        stats.disconnect_cancels.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
            }
        }
    }

    /// One `read` that does not wait.
    fn probe(&mut self) -> Intake {
        if self.stream.set_nonblocking(true).is_err() {
            return Intake::Gone;
        }
        let intake = self.fill();
        if self.stream.set_nonblocking(false).is_err() {
            return Intake::Gone;
        }
        intake
    }

    /// Whether a probe while a query is in flight finds EOF or a reset:
    /// nobody will read the answer. Pipelined bytes are kept, but intake
    /// is bounded: once the decoder holds a full frame's worth, probing
    /// pauses and TCP backpressure takes over — the client's kernel
    /// buffer fills, but no server-side allocation grows with client
    /// behaviour.
    fn peer_gone(&mut self) -> bool {
        self.dec.buffered() <= self.shared.cfg.max_frame_len + HEADER_LEN
            && matches!(self.probe(), Intake::Gone)
    }
}
