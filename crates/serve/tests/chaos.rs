//! Chaos/soak suite for the network service: hostile and unlucky client
//! behaviour must degrade the *connection*, never the server. Each
//! scenario asserts three things — the failure is typed, the shared
//! worker pool is never poisoned, and a post-chaos query still answers
//! bit-exact vs the engine queried directly (the oracle).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_serve::admission::RunnerPool;
use etsqp_serve::client::{Client, Response};
use etsqp_serve::proto::{
    decode_result, encode_frame, ErrorCode, FrameDecoder, FrameType, WireResult, VERSION,
};
use etsqp_serve::server::{self, ServerHandle};
use etsqp_serve::{AdmissionConfig, ServeConfig};

/// A db big enough that a full-scan aggregate spans many morsels in a
/// debug build (small pages = many cancellation points).
fn chaos_db() -> Arc<IotDb> {
    let db = IotDb::new(EngineOptions::default().with_page_points(512));
    db.create_series("s").unwrap();
    let n = 300_000i64;
    let ts: Vec<i64> = (0..n).map(|i| i * 10).collect();
    let vals: Vec<i64> = (0..n).map(|i| (i * 37) % 1000).collect();
    db.append_all("s", &ts, &vals).unwrap();
    db.flush().unwrap();
    Arc::new(db)
}

/// A query slow enough (multi-page scan + filter) to still be running
/// when chaos strikes.
const SLOW_SQL: &str = "SELECT SUM(s) FROM (SELECT * FROM s WHERE s > 3)";

fn start(db: Arc<IotDb>, cfg: ServeConfig) -> ServerHandle {
    server::start(db, "127.0.0.1:0", cfg).expect("bind")
}

/// The oracle check: the post-chaos answer over the wire must be
/// bit-exact vs the engine queried directly.
fn assert_oracle(handle: &ServerHandle, db: &IotDb) {
    let direct = db.query(SLOW_SQL).expect("direct query");
    let mut c = Client::connect(handle.addr()).expect("connect");
    match c.query(SLOW_SQL).expect("wire query") {
        Response::Rows(r) => {
            assert_eq!(r.rows, direct.rows, "post-chaos result drifted from oracle");
        }
        Response::ServerError(e) => panic!("post-chaos query failed: {e}"),
    }
}

#[test]
fn disconnect_mid_query_cancels_execution() {
    let db = chaos_db();
    let handle = start(
        Arc::clone(&db),
        ServeConfig {
            admission: AdmissionConfig {
                max_inflight: 2,
                max_queue: 8,
                default_deadline: None,
            },
            ..ServeConfig::default()
        },
    );

    // Fire queries and slam the connection shut. The server must notice
    // the disconnect, fire the query's token, and reclaim the runner.
    // Timing-dependent (the query may occasionally win the race), so
    // retry until at least one cancellation is observed.
    let mut saw_cancel = false;
    'attempts: for _ in 0..25 {
        let before = handle.stats();
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .write_all(&encode_frame(FrameType::Query, SLOW_SQL.as_bytes()))
            .expect("send");
        // Hold the connection until the query is actually in flight,
        // so the EOF below lands mid-query rather than pre-dispatch.
        let admit_deadline = Instant::now() + Duration::from_secs(2);
        while handle.stats().admitted <= before.admitted {
            if Instant::now() >= admit_deadline {
                panic!("query never admitted: {:?}", handle.stats());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Drop without reading the response: EOF mid-query.
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            let s = handle.stats();
            // The in-flight query either got cancelled (what we are
            // hunting) or finished before the server saw the EOF.
            if s.disconnect_cancels > before.disconnect_cancels && s.cancelled > before.cancelled {
                saw_cancel = true;
                break 'attempts;
            }
            if s.done_ok + s.done_err > before.done_ok + before.done_err {
                continue 'attempts; // finished first; retry the race
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert!(
        saw_cancel,
        "no disconnect ever cancelled a running query: {:?}",
        handle.stats()
    );

    // Runner and pool workers were reclaimed: the pool still answers,
    // bit-exact.
    assert_oracle(&handle, &db);
    let final_stats = handle.shutdown();
    assert!(final_stats.cancelled >= 1);
    assert_eq!(final_stats.proto_errors, 0);
}

#[test]
fn slow_loris_partial_frames_are_bounded() {
    let db = chaos_db();
    let handle = start(
        Arc::clone(&db),
        ServeConfig {
            partial_frame_timeout: Duration::from_millis(150),
            ..ServeConfig::default()
        },
    );

    // Three half-open frames: a lone version byte, a header missing its
    // payload, and a byte-dribble that then stalls.
    let mut lorises = Vec::new();
    for partial in [
        vec![VERSION],
        vec![VERSION, 0x01, 0xff, 0x00],
        encode_frame(FrameType::Query, b"SELECT")[..7].to_vec(),
    ] {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.write_all(&partial).expect("send partial");
        lorises.push(stream);
    }

    // Every parked connection must be closed by the half-open bound —
    // observed as EOF on our side.
    for mut stream in lorises {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut buf = [0u8; 64];
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break, // server closed us: bound enforced
                Ok(_) => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    assert!(
                        Instant::now() < deadline,
                        "slow-loris connection never closed"
                    );
                }
                Err(_) => break, // reset also counts as closed
            }
        }
    }
    let s = handle.stats();
    assert!(
        s.slow_loris_closed >= 3,
        "expected 3 slow-loris closures, got {s:?}"
    );

    // The server itself is unharmed.
    assert_oracle(&handle, &db);
    handle.shutdown();
}

#[test]
fn oversized_and_malformed_frames_rejected_typed() {
    let db = chaos_db();
    let handle = start(Arc::clone(&db), ServeConfig::default());

    // Oversized: a header declaring a payload far past the cap must be
    // rejected from the header alone (no buffering of the body).
    {
        let mut c = Client::connect(handle.addr()).expect("connect");
        let mut hdr = vec![VERSION, 0x01];
        hdr.extend_from_slice(&u32::MAX.to_le_bytes());
        c.stream().write_all(&hdr).expect("send");
        // The farewell is a typed Proto error frame, then close.
        match c.query_farewell() {
            Some(e) => assert_eq!(e.code, ErrorCode::Proto),
            None => panic!("no typed farewell for oversized frame"),
        }
    }

    // Bad version byte.
    {
        let mut c = Client::connect(handle.addr()).expect("connect");
        c.stream().write_all(&[0x7f; 8]).expect("send");
        match c.query_farewell() {
            Some(e) => assert_eq!(e.code, ErrorCode::Proto),
            None => panic!("no typed farewell for bad version"),
        }
    }

    // Non-UTF-8 query payload.
    {
        let mut c = Client::connect(handle.addr()).expect("connect");
        c.stream()
            .write_all(&encode_frame(FrameType::Query, &[0xff, 0xfe, 0x80]))
            .expect("send");
        match c.query_farewell() {
            Some(e) => assert_eq!(e.code, ErrorCode::Proto),
            None => panic!("no typed farewell for non-UTF-8 SQL"),
        }
    }

    let s = handle.stats();
    assert!(s.proto_errors >= 3, "typed proto errors missing: {s:?}");
    assert_oracle(&handle, &db);
    handle.shutdown();
}

#[test]
fn deadline_expiring_queries_return_typed_timeout() {
    let db = chaos_db();
    let handle = start(
        Arc::clone(&db),
        ServeConfig {
            admission: AdmissionConfig {
                max_inflight: 2,
                max_queue: 8,
                // Far below the multi-page scan's debug-build runtime.
                default_deadline: Some(Duration::from_millis(2)),
            },
            ..ServeConfig::default()
        },
    );

    let mut c = Client::connect(handle.addr()).expect("connect");
    match c.query(SLOW_SQL).expect("wire query") {
        Response::ServerError(e) => assert_eq!(e.code, ErrorCode::Timeout, "{e}"),
        Response::Rows(_) => panic!("a 2 ms deadline survived a 300k-row debug scan"),
    }
    let s = handle.stats();
    assert!(s.timeouts >= 1, "timeout not counted: {s:?}");

    // Same server, same pool: a query without panic damage still works
    // (it will also time out; what matters is the typed error and that
    // a fresh unbounded server answers bit-exact below).
    handle.shutdown();

    let handle2 = start(Arc::clone(&db), ServeConfig::default());
    assert_oracle(&handle2, &db);
    handle2.shutdown();
}

#[test]
fn full_queue_burst_sheds_typed_and_recovers() {
    let db = chaos_db();
    let handle = start(
        Arc::clone(&db),
        ServeConfig {
            admission: AdmissionConfig {
                max_inflight: 1,
                max_queue: 1,
                default_deadline: None,
            },
            ..ServeConfig::default()
        },
    );

    // Burst: 8 concurrent clients into capacity 1+1. Every response must
    // be either rows or a typed Overloaded with a usable retry hint, and
    // an accepted query answers within a fixed bound: it waits behind at
    // most `max_inflight + max_queue − 1` others, so shedding keeps its
    // queueing bounded however large the burst.
    let addr = handle.addr();
    let mut joins = Vec::new();
    for _ in 0..8 {
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let sent = Instant::now();
            match c.query(SLOW_SQL).expect("wire query") {
                Response::Rows(_) => {
                    let took = sent.elapsed();
                    assert!(
                        took < Duration::from_secs(5),
                        "accepted query took {took:?}"
                    );
                    (1u64, 0u64)
                }
                Response::ServerError(e) => {
                    assert_eq!(e.code, ErrorCode::Overloaded, "unexpected error: {e}");
                    assert!(e.retry_after_ms >= 1, "shed without a retry hint");
                    (0, 1)
                }
            }
        }));
    }
    let (mut rows, mut sheds) = (0, 0);
    for j in joins {
        let (r, s) = j.join().expect("client thread");
        rows += r;
        sheds += s;
    }
    assert_eq!(rows + sheds, 8);
    assert!(sheds >= 1, "burst of 8 into capacity 2 never shed");
    assert!(rows >= 1, "burst starved every client");
    let s = handle.stats();
    assert_eq!(s.shed, sheds);
    assert_eq!(s.done_ok, rows);

    // Post-chaos: the queue drains back to empty and answers bit-exact.
    assert_oracle(&handle, &db);
    handle.shutdown();
}

#[test]
fn graceful_drain_finishes_inflight_queries() {
    let db = chaos_db();
    let handle = start(
        Arc::clone(&db),
        ServeConfig {
            drain_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr();
    let direct = db.query(SLOW_SQL).expect("direct query");

    // A client mid-query while the server begins draining must still
    // get its (bit-exact) rows before the connection closes.
    let t = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.query(SLOW_SQL).expect("wire query")
    });
    // Give the query a moment to be admitted, then drain.
    std::thread::sleep(Duration::from_millis(5));
    let stats = handle.shutdown();
    match t.join().expect("client thread") {
        Response::Rows(r) => assert_eq!(r.rows, direct.rows),
        Response::ServerError(e) => {
            // Legal only if the query had not been admitted yet when the
            // drain began (then it is shed typed, never dropped).
            assert_eq!(e.code, ErrorCode::Overloaded, "{e}");
        }
    }
    assert_eq!(stats.proto_errors, 0);

    // After shutdown the port stops accepting.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "server still accepting after shutdown"
    );
}

#[test]
fn connection_cap_refuses_with_typed_farewell() {
    let db = chaos_db();
    let handle = start(
        Arc::clone(&db),
        ServeConfig {
            max_connections: 2,
            ..ServeConfig::default()
        },
    );

    // Fill the cap with idle connections (keep them alive).
    let mut keep = Vec::new();
    for _ in 0..2 {
        let mut c = Client::connect(handle.addr()).expect("connect");
        c.ping().expect("ping");
        keep.push(c);
    }
    // The next connection gets an Overloaded farewell.
    let mut refused = Client::connect(handle.addr()).expect("connect");
    match refused.query_farewell() {
        Some(e) => {
            assert_eq!(e.code, ErrorCode::Overloaded);
            assert!(e.retry_after_ms >= 1);
        }
        None => panic!("refused connection got no farewell"),
    }
    let s = handle.stats();
    assert!(s.conns_refused >= 1, "{s:?}");

    // Capped connections still serve once slots free up.
    drop(keep);
    handle.shutdown();
}

/// Reads result frames off a raw stream until `want` have arrived or the
/// stream ends (EOF, reset or read timeout); `true` if it ended by
/// timeout.
fn read_results(stream: &mut TcpStream, want: usize) -> (Vec<WireResult>, bool) {
    let mut dec = FrameDecoder::new(ServeConfig::default().max_frame_len);
    let mut buf = vec![0u8; 64 * 1024];
    let mut results = Vec::new();
    loop {
        while let Some(frame) = dec.next_frame().expect("well-formed server frame") {
            assert_eq!(frame.kind, FrameType::Result, "unexpected frame");
            results.push(decode_result(&frame.payload).expect("result payload"));
        }
        if results.len() >= want {
            return (results, false);
        }
        match stream.read(&mut buf) {
            Ok(0) => return (results, false),
            Ok(n) => dec.extend(&buf[..n]),
            Err(e) => {
                let timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                return (results, timed_out);
            }
        }
    }
}

#[test]
fn pipelined_queries_answered_in_order_back_to_back() {
    let db = chaos_db();
    let handle = start(Arc::clone(&db), ServeConfig::default());

    // Three single-page queries with three different answers, written
    // in one `write`: the server's first `read` buffers all of them.
    let sqls = [
        "SELECT COUNT(s) FROM s WHERE time >= 0 AND time <= 4000",
        "SELECT SUM(s) FROM s WHERE time >= 100000 AND time <= 104000",
        "SELECT MAX(s) FROM s WHERE time >= 200000 AND time <= 204000",
    ];
    let oracle: Vec<_> = sqls
        .iter()
        .map(|sql| db.query(sql).expect("direct query").rows)
        .collect();
    let wire: Vec<u8> = sqls
        .iter()
        .flat_map(|sql| encode_frame(FrameType::Query, sql.as_bytes()))
        .collect();

    // A handler that enters a blocking `read` while its decoder holds a
    // complete frame still answers — when its read timeout expires, tens
    // of milliseconds per frame. Back to back, three answers take a
    // fraction of that. The bound is on time, so take the best of a few
    // attempts: a busy host delays some, the wrong wait delays all.
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let sent = Instant::now();
        stream.write_all(&wire).expect("send");
        let (results, _) = read_results(&mut stream, sqls.len());
        best = best.min(sent.elapsed());
        let rows: Vec<_> = results.into_iter().map(|r| r.rows).collect();
        assert_eq!(rows, oracle, "pipelined answers missing or out of order");
    }
    assert!(
        best < Duration::from_millis(40),
        "pipelined frames waited for a read timeout: best of 5 took {best:?}"
    );

    assert_eq!(handle.shutdown().proto_errors, 0);
}

#[test]
fn stalled_reader_holds_a_handler_never_a_runner() {
    let db = chaos_db();
    let stall = Duration::from_secs(2);
    let handle = start(
        Arc::clone(&db),
        ServeConfig {
            admission: AdmissionConfig {
                // One runner: if the stalled connection held it, nobody
                // else would be served until the stall timed out.
                max_inflight: 1,
                max_queue: 8,
                default_deadline: None,
            },
            write_stall_timeout: stall,
            ..ServeConfig::default()
        },
    );

    // 40k rows: most of a MiB per answer, under the frame cap. Pipelined
    // 48 deep that is several times what the loopback socket buffers
    // hold, so a peer that never reads stalls the handler's write.
    const BIG_SQL: &str = "SELECT * FROM s WHERE time >= 0 AND time < 400000";
    const PIPELINED: usize = 48;
    let mut stalled = TcpStream::connect(handle.addr()).expect("connect");
    let frame = encode_frame(FrameType::Query, BIG_SQL.as_bytes());
    stalled.write_all(&frame.repeat(PIPELINED)).expect("send");

    // The handler submits its next query only after the previous answer
    // has left, so the stall shows as: answers produced, nothing queued
    // or running, and no further progress.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last_done = 0;
    loop {
        assert!(Instant::now() < deadline, "writer never stalled");
        std::thread::sleep(Duration::from_millis(50));
        let done = handle.stats().done_ok;
        if done > 0 && done == last_done && handle.load() == (0, 0) {
            break;
        }
        last_done = done;
    }
    assert!(
        (last_done as usize) < PIPELINED,
        "socket buffers swallowed every answer; the peer never stalled"
    );
    let stalled_at = Instant::now();

    // Meanwhile the single runner is free: a second connection's query
    // is admitted and answered long before the stall bound expires.
    assert_oracle(&handle, &db);
    assert!(
        stalled_at.elapsed() < stall,
        "second connection waited {:?} behind a stalled peer",
        stalled_at.elapsed()
    );

    // Past the bound (plus slack) the server has dropped the stalled
    // peer: reading now yields what the buffers held, then the end of
    // the stream — not the rest of the answers.
    std::thread::sleep((stall + Duration::from_secs(1)).saturating_sub(stalled_at.elapsed()));
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let (results, timed_out) = read_results(&mut stalled, PIPELINED);
    assert!(
        !timed_out,
        "stalled peer still connected after the stall bound"
    );
    assert!(
        results.len() < PIPELINED,
        "stalled peer was served all {PIPELINED} answers"
    );

    assert_oracle(&handle, &db);
    handle.shutdown();
}

#[test]
fn idle_shutdown_and_idle_drain_return_promptly() {
    let db = Arc::new(IotDb::new(EngineOptions::default()));
    let handle = start(Arc::clone(&db), ServeConfig::default());

    // 64 connections parked in their idle wait, nothing queued: every
    // handler must notice the drain by itself.
    let idle: Vec<Client> = (0..64)
        .map(|_| {
            let mut c = Client::connect(handle.addr()).expect("connect");
            c.ping().expect("ping");
            c
        })
        .collect();
    let began = Instant::now();
    let stats = handle.shutdown();
    assert!(
        began.elapsed() < Duration::from_secs(1),
        "idle shutdown took {:?}",
        began.elapsed()
    );
    assert_eq!(stats.conns_accepted, 64);
    drop(idle);

    // An idle pool has nothing to wait for.
    let pool = RunnerPool::start(db, AdmissionConfig::default());
    let began = Instant::now();
    pool.drain(Duration::from_secs(30));
    assert!(
        began.elapsed() < Duration::from_millis(50),
        "idle drain took {:?}",
        began.elapsed()
    );
}
