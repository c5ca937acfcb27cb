//! The accept loop, connection registry, stats surface, and graceful
//! drain.
//!
//! The accept loop is deliberately thin: one thread blocked in `accept`
//! on a blocking listener, woken by each new connection (and, once, by
//! [`ServerHandle::shutdown`] connecting to its own port). Its only
//! decisions are (a) are we draining? drop the socket and exit, (b) is
//! the connection cap reached — or no handler thread to be had? send
//! one `Overloaded` farewell frame and close, (c) otherwise register
//! the connection and hand the socket to its handler thread
//! ([`crate::conn`]). Everything stateful — admission, backpressure,
//! cancellation — lives behind those handlers, so the accept path can
//! never block on a misbehaving peer.
//!
//! Shutdown protocol ([`ServerHandle::shutdown`]):
//!
//! 1. stop accepting (drain flag, then a wake-up connection; the accept
//!    thread exits);
//! 2. the admission pool stops admitting — late queries shed typed;
//! 3. queued and in-flight queries finish (or are cancelled at the
//!    drain deadline) and their responses are written; the pool's
//!    condvar ends this wait the moment the last query lands;
//! 4. connection handlers close once idle — within one read tick, or
//!    for a handler blocked on a stalled peer, `write_stall_timeout` —
//!    and the handle joins every thread and returns the final stats
//!    snapshot.

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use etsqp_core::engine::IotDb;
use parking_lot::Mutex;

use crate::admission::{AdmissionConfig, RunnerPool};
use crate::proto::{encode_error, encode_frame, ErrorCode, FrameType, DEFAULT_MAX_FRAME_LEN};

/// Server tuning knobs. Defaults are production-shaped: bounded
/// everything, generous enough for interactive use.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission bounds (in-flight, queue, default deadline).
    pub admission: AdmissionConfig,
    /// Connection cap; past it, new sockets get an `Overloaded`
    /// farewell frame and are closed.
    pub max_connections: usize,
    /// Frame payload cap, both directions.
    pub max_frame_len: usize,
    /// How long a half-open request frame may sit without progress
    /// before the connection is closed (slow-loris bound).
    pub partial_frame_timeout: Duration,
    /// How long a peer may keep one response blocked in the handler's
    /// write before the connection is closed (slow-reader bound).
    pub write_stall_timeout: Duration,
    /// Bound on the graceful-drain phase of shutdown; in-flight queries
    /// still running past it are cancelled.
    pub drain_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            admission: AdmissionConfig::default(),
            max_connections: 2048,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            partial_frame_timeout: Duration::from_secs(2),
            write_stall_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Monotonic server counters (connection + protocol level; query-level
/// counters live on [`crate::admission::AdmissionStats`]).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted and registered.
    pub conns_accepted: AtomicU64,
    /// Connections refused at the cap (got an `Overloaded` farewell).
    pub conns_refused: AtomicU64,
    /// Complete frames received from clients.
    pub frames_rx: AtomicU64,
    /// Raw bytes received from clients.
    pub bytes_rx: AtomicU64,
    /// Query frames received.
    pub queries_rx: AtomicU64,
    /// Protocol violations observed (bad version/type/length/payload).
    pub proto_errors: AtomicU64,
    /// Connections closed by the half-open-frame (slow-loris) bound.
    pub slow_loris_closed: AtomicU64,
    /// In-flight queries cancelled because their connection vanished.
    pub disconnect_cancels: AtomicU64,
    /// Results that exceeded the frame cap and were errored instead.
    pub oversized_results: AtomicU64,
}

/// A point-in-time copy of every counter, for tests and reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSnapshot {
    /// Connections accepted and registered.
    pub conns_accepted: u64,
    /// Connections refused at the cap.
    pub conns_refused: u64,
    /// Complete frames received.
    pub frames_rx: u64,
    /// Raw bytes received.
    pub bytes_rx: u64,
    /// Query frames received.
    pub queries_rx: u64,
    /// Protocol violations.
    pub proto_errors: u64,
    /// Slow-loris closures.
    pub slow_loris_closed: u64,
    /// Disconnect-triggered query cancellations.
    pub disconnect_cancels: u64,
    /// Oversized results errored.
    pub oversized_results: u64,
    /// Queries admitted by the gate.
    pub admitted: u64,
    /// Queries shed with `Overloaded`.
    pub shed: u64,
    /// Queries finished successfully.
    pub done_ok: u64,
    /// Queries finished with a typed error.
    pub done_err: u64,
    /// Finished-with-error queries that were cancellations.
    pub cancelled: u64,
    /// Finished-with-error queries that were deadline expiries.
    pub timeouts: u64,
}

/// State shared between the accept loop, connection handlers, and the
/// handle. Crate-visible: connection handlers live in [`crate::conn`].
pub struct Shared {
    /// Tuning knobs.
    pub cfg: ServeConfig,
    /// The admission gate + runner threads.
    pub pool: RunnerPool,
    /// Connection/protocol counters.
    pub stats: ServerStats,
    draining: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
}

impl Shared {
    fn new(db: Arc<IotDb>, cfg: ServeConfig) -> Arc<Shared> {
        Arc::new(Shared {
            cfg,
            pool: RunnerPool::start(db, cfg.admission),
            stats: ServerStats::default(),
            draining: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
        })
    }

    /// Whether shutdown has begun (handlers finish and close).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Whether the graceful-drain deadline has passed.
    pub fn drain_expired(&self) -> bool {
        matches!(*self.drain_deadline.lock(), Some(d) if Instant::now() >= d)
    }

    fn snapshot(&self) -> StatsSnapshot {
        let s = &self.stats;
        let a = self.pool.stats();
        StatsSnapshot {
            conns_accepted: s.conns_accepted.load(Ordering::Relaxed),
            conns_refused: s.conns_refused.load(Ordering::Relaxed),
            frames_rx: s.frames_rx.load(Ordering::Relaxed),
            bytes_rx: s.bytes_rx.load(Ordering::Relaxed),
            queries_rx: s.queries_rx.load(Ordering::Relaxed),
            proto_errors: s.proto_errors.load(Ordering::Relaxed),
            slow_loris_closed: s.slow_loris_closed.load(Ordering::Relaxed),
            disconnect_cancels: s.disconnect_cancels.load(Ordering::Relaxed),
            oversized_results: s.oversized_results.load(Ordering::Relaxed),
            admitted: a.admitted.load(Ordering::Relaxed),
            shed: a.shed.load(Ordering::Relaxed),
            done_ok: a.done_ok.load(Ordering::Relaxed),
            done_err: a.done_err.load(Ordering::Relaxed),
            cancelled: a.cancelled.load(Ordering::Relaxed),
            timeouts: a.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] for the graceful drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of every counter.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Instantaneous (inflight, queued) gauge.
    pub fn load(&self) -> (usize, usize) {
        self.shared.pool.load()
    }

    /// Graceful drain: stop accepting, shed late arrivals, finish (or
    /// cancel at the drain deadline) in-flight queries, flush and close
    /// every connection, join every thread. Returns the final stats.
    pub fn shutdown(mut self) -> StatsSnapshot {
        {
            let mut d = self.shared.drain_deadline.lock();
            *d = Some(Instant::now() + self.shared.cfg.drain_timeout);
        }
        self.shared.draining.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            // The accept thread is blocked in `accept`: any connection
            // ends that wait, and it exits on seeing the drain flag. A
            // connect that fails (descriptor pressure, full backlog) is
            // retried until the thread is gone.
            let wake = wake_addr(self.addr);
            while !t.is_finished() && TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_err() {
                std::thread::yield_now();
            }
            let _ = t.join();
        }
        // Drain the admission pool first: queued/in-flight queries land
        // their outcomes on the connections' channels…
        self.shared.pool.drain(self.shared.cfg.drain_timeout);
        // …then the handlers write those responses and exit.
        let handles: Vec<_> = self.conn_threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.shared.snapshot()
    }
}

/// Bound on one wake-up connect of [`ServerHandle::shutdown`].
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// Where `shutdown` connects to wake the accept thread: the bound
/// address, or loopback when the listener is bound to the wildcard.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
        IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Binds `addr` and starts the accept loop over `db`.
pub fn start(
    db: Arc<IotDb>,
    addr: impl ToSocketAddrs,
    cfg: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Shared::new(db, cfg);
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_shared = Arc::clone(&shared);
    let accept_conns = Arc::clone(&conn_threads);
    let accept_thread = std::thread::Builder::new()
        .name("etsqp-accept".into())
        .spawn(move || accept_loop(&accept_shared, &listener, &accept_conns))
        .map_err(std::io::Error::other)?;

    Ok(ServerHandle {
        shared,
        addr: local,
        accept_thread: Some(accept_thread),
        conn_threads,
    })
}

/// Pause after a failed `accept` before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conn_threads: &Mutex<Vec<JoinHandle<()>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if shared.is_draining() {
                    return;
                }
                // lint:allow(no-sleep-poll) -- EMFILE/ENFILE leave the
                // pending connection queued, so `accept` fails again at
                // once instead of blocking, and no event this thread
                // could wait on announces a free descriptor.
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        if shared.is_draining() {
            return;
        }
        // A response that leaves in two writes must not wait for the
        // peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let mut conns = conn_threads.lock();
        // Opportunistically reap finished handler threads so the
        // registry does not grow with connection churn.
        conns.retain(|h| !h.is_finished());
        if conns.len() >= shared.cfg.max_connections {
            refuse(shared, stream);
        } else if let Some(h) = hand_off(shared, stream, spawn_handler) {
            conns.push(h);
        }
    }
}

type ConnTask = Box<dyn FnOnce() + Send>;

fn spawn_handler(task: ConnTask) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("etsqp-conn".into())
        .spawn(task)
}

/// Gives `stream` a handler thread and counts the connection accepted —
/// only once that thread exists. Out of threads is treated like the
/// connection cap: counted refused, and the peer gets the farewell.
fn hand_off(
    shared: &Arc<Shared>,
    stream: TcpStream,
    spawn: impl FnOnce(ConnTask) -> std::io::Result<JoinHandle<()>>,
) -> Option<JoinHandle<()>> {
    // The socket follows the thread through a channel, so a failed
    // spawn leaves it here for the farewell.
    let (tx, rx) = channel();
    let conn_shared = Arc::clone(shared);
    let task = Box::new(move || {
        if let Ok(stream) = rx.recv() {
            crate::conn::handle(&conn_shared, stream);
        }
    });
    match spawn(task) {
        Ok(h) => {
            shared.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(stream);
            Some(h)
        }
        Err(_) => {
            refuse(shared, stream);
            None
        }
    }
}

/// Sends a best-effort `Overloaded` farewell on a refused connection.
fn refuse(shared: &Shared, mut stream: TcpStream) {
    shared.stats.conns_refused.fetch_add(1, Ordering::Relaxed);
    let frame = encode_frame(
        FrameType::Error,
        &encode_error(
            ErrorCode::Overloaded,
            1_000,
            "connection limit reached; retry later",
        ),
    );
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(&frame);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use etsqp_core::engine::EngineOptions;

    #[test]
    fn failed_spawn_counts_refused_not_accepted() {
        let shared = Shared::new(
            Arc::new(IotDb::new(EngineOptions::default())),
            ServeConfig::default(),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let mut refused = Client::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let no_threads = |_task: ConnTask| Err(std::io::Error::other("out of threads"));
        assert!(hand_off(&shared, stream, no_threads).is_none());
        let s = shared.snapshot();
        assert_eq!((s.conns_accepted, s.conns_refused), (0, 1));
        let bye = refused
            .query_farewell()
            .expect("refused peer gets a farewell");
        assert_eq!(bye.code, ErrorCode::Overloaded);

        let mut served = Client::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let handler = hand_off(&shared, stream, spawn_handler).expect("spawn");
        served.ping().unwrap();
        let s = shared.snapshot();
        assert_eq!((s.conns_accepted, s.conns_refused), (1, 1));

        drop(served);
        handler.join().unwrap();
        shared.pool.drain(Duration::from_secs(5));
    }
}
