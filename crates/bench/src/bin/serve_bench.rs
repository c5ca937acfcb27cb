//! Network-service load generator (ISSUE 10 tentpole measurement).
//!
//! Starts an in-process `etsqp-serve` server over a synthetic series,
//! then drives closed-loop client fleets at 1 / 64 / 1024 connections
//! (queries/second and p99 latency per fleet size), plus one overload
//! cell at 2x the admission capacity that measures the shed rate and
//! the p99 of *accepted* queries beside the uncontended p99: shedding,
//! not queueing, absorbs the overload.
//!
//! JSON on stdout (redirected to `BENCH_serve.json` by
//! `scripts/bench.sh`). Scale controls:
//! `ETSQP_BENCH_SERVE_QUERIES` (total queries per fleet cell, default
//! 2000) and `ETSQP_BENCH_SERVE_MAX_CLIENTS` (cap on the fleet sizes
//! tried, default 1024).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_serve::client::{Client, Response};
use etsqp_serve::proto::ErrorCode;
use etsqp_serve::server::{self, ServerHandle};
use etsqp_serve::{AdmissionConfig, ServeConfig};

const PAGE_POINTS: usize = 256;
const PAGES: usize = 64;
const FLEETS: [usize; 3] = [1, 64, 1024];

fn build_db() -> Arc<IotDb> {
    let opts = EngineOptions::default().with_page_points(PAGE_POINTS);
    let db = IotDb::new(opts);
    db.create_series("sensor").unwrap();
    let rows = (PAGE_POINTS * PAGES) as i64;
    for i in 0..rows {
        db.append("sensor", i * 1000, 60 + (i % 25) - (i % 7))
            .unwrap();
    }
    db.flush().unwrap();
    Arc::new(db)
}

/// One short selective query, rotated over `k` so pruning and window
/// vary across the batch like independent clients.
fn sql(k: usize) -> String {
    let rows = (PAGE_POINTS * PAGES) as i64;
    let span = rows * 1000;
    let lo = (k as i64 * 37_000) % (span / 2);
    let hi = lo + span / 4;
    let func = match k % 4 {
        0 => "SUM",
        1 => "COUNT",
        2 => "MIN",
        _ => "MAX",
    };
    format!("SELECT {func}(sensor) FROM sensor WHERE time >= {lo} AND time <= {hi}")
}

fn connect_retry(addr: SocketAddr) -> Client {
    // Under a 1024-way connect burst the accept backlog can overflow;
    // retry briefly instead of failing the whole cell.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(c) => return c,
            Err(e) => {
                if Instant::now() >= deadline {
                    panic!("connect failed past deadline: {e}");
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn p99_us(lat: &mut [u64]) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    lat[(lat.len() - 1) * 99 / 100]
}

/// Closed-loop fleet: `clients` connections, `per_client` queries each,
/// retrying honestly on `Overloaded` (sleeping the server's retry hint
/// like a polite client — a big fleet legitimately exceeds the
/// admission queue). Returns (attempts, sheds, accepted qps, accepted
/// p99 us). Any error other than a typed shed fails the bench.
fn run_fleet(addr: SocketAddr, clients: usize, per_client: usize) -> (u64, u64, f64, u64) {
    let start = Instant::now();
    let joins: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = connect_retry(addr);
                let mut attempts = 0u64;
                let mut sheds = 0u64;
                let mut lat = Vec::with_capacity(per_client);
                for k in 0..per_client {
                    let q = sql(c * per_client + k);
                    // Retry until accepted; every shed is typed and
                    // carries a back-off hint we honor like a polite
                    // client would.
                    loop {
                        attempts += 1;
                        let t0 = Instant::now();
                        match client.query(&q).expect("wire query") {
                            Response::Rows(_) => {
                                lat.push(t0.elapsed().as_micros() as u64);
                                break;
                            }
                            Response::ServerError(e) if e.code == ErrorCode::Overloaded => {
                                sheds += 1;
                                assert!(e.retry_after_ms >= 1, "shed without a retry hint");
                                std::thread::sleep(Duration::from_millis(
                                    e.retry_after_ms.min(50) as u64
                                ));
                            }
                            Response::ServerError(e) => panic!("unexpected server error: {e}"),
                        }
                    }
                }
                (attempts, sheds, lat)
            })
        })
        .collect();
    let (mut attempts, mut sheds) = (0u64, 0u64);
    let mut lat: Vec<u64> = Vec::new();
    for j in joins {
        let (a, s, l) = j.join().expect("client thread");
        attempts += a;
        sheds += s;
        lat.extend(l);
    }
    let secs = start.elapsed().as_secs_f64();
    (attempts, sheds, lat.len() as f64 / secs, p99_us(&mut lat))
}

fn start_server(db: Arc<IotDb>, admission: AdmissionConfig) -> ServerHandle {
    server::start(
        db,
        "127.0.0.1:0",
        ServeConfig {
            admission,
            max_connections: 4096,
            ..ServeConfig::default()
        },
    )
    .expect("bind")
}

fn main() {
    let total: usize = std::env::var("ETSQP_BENCH_SERVE_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    let max_clients: usize = std::env::var("ETSQP_BENCH_SERVE_MAX_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024);
    let db = build_db();

    // Fleet cells: default admission (in-flight = cores, deep-enough
    // queue) — the well-provisioned regime.
    let handle = start_server(Arc::clone(&db), AdmissionConfig::default());
    let addr = handle.addr();
    run_fleet(addr, 4, 8.min(total)); // warm connections, pool, cache

    let mut cells = Vec::new();
    let mut uncontended_p99 = 0u64;
    for &clients in FLEETS.iter().filter(|&&c| c <= max_clients) {
        let per_client = (total / clients).max(1);
        let (attempts, sheds, qps, p99) = run_fleet(addr, clients, per_client);
        if clients == 1 {
            uncontended_p99 = p99;
        }
        eprintln!("clients={clients}: {qps:.0} q/s, p99 {p99} us, shed {sheds}/{attempts}");
        cells.push(format!(
            concat!(
                "    {{\"clients\": {}, \"queries\": {}, \"qps\": {:.1}, ",
                "\"p99_us\": {}, \"shed\": {}, \"attempts\": {}}}"
            ),
            clients,
            clients * per_client,
            qps,
            p99,
            sheds,
            attempts
        ));
    }
    let fleet_stats = handle.shutdown();
    assert_eq!(fleet_stats.proto_errors, 0, "clean load spoke bad protocol");

    // Overload cell: capacity small and known, offered load 2x that.
    let admission = AdmissionConfig {
        max_inflight: 2,
        max_queue: 6,
        default_deadline: None,
    };
    let capacity = admission.max_inflight + admission.max_queue;
    let overload_clients = (2 * capacity).min(max_clients.max(2));
    let handle = start_server(Arc::clone(&db), admission);
    let per_client = (total / overload_clients).max(1);
    let (attempts, sheds, _qps, accepted_p99) =
        run_fleet(handle.addr(), overload_clients, per_client);
    let stats = handle.shutdown();
    assert_eq!(stats.shed, sheds, "server and clients disagree on sheds");
    let shed_rate = sheds as f64 / attempts.max(1) as f64;
    let p99_ratio = accepted_p99 as f64 / uncontended_p99.max(1) as f64;
    eprintln!(
        "overload x2: {overload_clients} clients into capacity {capacity}, \
         shed {sheds}/{attempts} ({:.1}%), accepted p99 {accepted_p99} us \
         ({p99_ratio:.2}x uncontended)",
        shed_rate * 100.0
    );

    println!("{{");
    println!("  \"bench\": \"serve_qps_p99\",");
    println!("  \"queries_per_cell\": {total},");
    println!("  \"pages\": {PAGES},");
    println!("  \"page_points\": {PAGE_POINTS},");
    println!("  \"cells\": [");
    println!("{}", cells.join(",\n"));
    println!("  ],");
    println!("  \"overload\": {{");
    println!("    \"clients\": {overload_clients},");
    println!("    \"capacity\": {capacity},");
    println!("    \"attempts\": {attempts},");
    println!("    \"shed\": {sheds},");
    println!("    \"shed_rate\": {shed_rate:.4},");
    println!("    \"accepted_p99_us\": {accepted_p99},");
    println!("    \"uncontended_p99_us\": {uncontended_p99},");
    println!("    \"accepted_p99_vs_uncontended\": {p99_ratio:.3}");
    println!("  }}");
    println!("}}");
}
