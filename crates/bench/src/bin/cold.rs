//! The cold page: what a memo-cold whole-series `SUM` costs per value,
//! per codec, page size and thread count, in two layers — the bare fold
//! cursor over the series' pages, and `IotDb::query` with every memo
//! forgotten (`PartialCache::global().clear()`) before each query. The
//! difference between the layers is what the engine spends around the
//! fold.
//!
//! Each row fits `ns/value = page_ns / page_points + value_ns` over the
//! four page sizes by least squares: `page_ns` is the per-page intercept
//! (the toll a page pays whatever its size), `value_ns` the per-value
//! slope. `1k/64k` is the 1 024-point figure over the 65 536-point one.
//!
//! ```sh
//! cargo run --release -p etsqp-bench --bin cold            # ~1 M values per series
//! cargo run --release -p etsqp-bench --bin cold -- --quick # seconds
//! ```

use std::time::Instant;

use etsqp_core::cancel::CancellationToken;
use etsqp_core::decode_fold::FoldCursor;
use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::exec::{run_jobs, ExecStats};
use etsqp_core::partial::PartialCache;
use etsqp_core::plan::{PipelineConfig, Value};
use etsqp_encoding::Encoding;
use etsqp_storage::page::Page;

const CODECS: [(Encoding, &str); 5] = [
    (Encoding::Ts2Diff, "ts2diff"),
    (Encoding::StreamVByte, "stream_vbyte"),
    (Encoding::DeltaRle, "delta_rle"),
    (Encoding::Sprintz, "sprintz"),
    (Encoding::Gorilla, "gorilla"),
];
const PAGE_POINTS: [usize; 4] = [256, 1_024, 8_192, 65_536];
const THREADS: [usize; 2] = [1, 2];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, reps) = if quick { (1 << 18, 7) } else { (1 << 20, 31) };
    println!(
        "cold SUM, ns/value (median of {reps}), {n} values per series; host: {}, {} cpus; git {}",
        cpu_model(),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        git_revision(),
    );
    print!("{:<13}{:<7}{:>4}", "codec", "layer", "thr");
    for p in PAGE_POINTS {
        print!("{p:>9}");
    }
    println!("{:>10}{:>10}{:>9}", "page_ns", "value_ns", "1k/64k");
    for (codec, name) in CODECS {
        let vals = values(codec, n);
        let want: i128 = vals.iter().map(|&v| i128::from(v)).sum();
        let ts: Vec<i64> = (0..n as i64).map(|i| 1_000 + i * 10).collect();
        let dbs: Vec<IotDb> = PAGE_POINTS
            .iter()
            .map(|&p| {
                let db = IotDb::new(
                    EngineOptions::default()
                        .with_encodings(Encoding::Ts2Diff, codec)
                        .with_page_points(p),
                );
                db.create_series("s").unwrap();
                db.append_all("s", &ts, &vals).unwrap();
                db.flush().unwrap();
                db
            })
            .collect();
        for threads in THREADS {
            let cursor = dbs.iter().map(|db| {
                let pages = db.store().peek_pages("s").unwrap();
                median_ns(reps, || {
                    let sum = cursor_sum(&pages, threads);
                    assert_eq!(sum, want, "{name}: cursor SUM");
                })
            });
            row(name, "cursor", threads, n, cursor.collect());
            let cfg = PipelineConfig {
                threads,
                ..Default::default()
            };
            let query = dbs.iter().map(|db| {
                let ctl = CancellationToken::none();
                median_ns(reps, || {
                    PartialCache::global().clear();
                    let r = db.query_with("SELECT SUM(s) FROM s", &cfg, &ctl).unwrap();
                    assert_eq!(r.rows, vec![vec![Value::Int(want as i64)]], "{name}");
                    assert_eq!(r.stats.cache_hits, 0, "{name}: a cold query");
                })
            });
            row(name, "query", threads, n, query.collect());
        }
    }
}

/// One output row: ns/value per page size, then the fit.
fn row(codec: &str, layer: &str, threads: usize, n: usize, ns: Vec<f64>) {
    let per_value: Vec<f64> = ns.iter().map(|t| t / n as f64).collect();
    print!("{codec:<13}{layer:<7}{threads:>4}");
    for v in &per_value {
        print!("{v:>9.3}");
    }
    let (page_ns, value_ns) = fit(&per_value);
    println!(
        "{page_ns:>10.1}{value_ns:>10.3}{:>9.2}",
        per_value[1] / per_value[3]
    );
}

/// Least squares of `y = page_ns · x + value_ns` with `x = 1 / page_points`.
fn fit(per_value: &[f64]) -> (f64, f64) {
    let xs: Vec<f64> = PAGE_POINTS.iter().map(|&p| 1.0 / p as f64).collect();
    let k = xs.len() as f64;
    let (mx, my) = (
        xs.iter().sum::<f64>() / k,
        per_value.iter().sum::<f64>() / k,
    );
    let sxy: f64 = xs
        .iter()
        .zip(per_value)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let slope = sxy / sxx;
    (slope, my - slope * mx)
}

/// Median wall time of `reps` runs of `f` after one warm-up run, which
/// also verifies every page once.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}

/// The bare layer: every page's value column through a fold cursor, the
/// pages split into `threads` contiguous shares on the engine's pool.
fn cursor_sum(pages: &[std::sync::Arc<Page>], threads: usize) -> i128 {
    let share = pages.len().div_ceil(threads);
    let stats = ExecStats::default();
    let sums = run_jobs(
        pages.chunks(share).collect(),
        threads,
        &stats,
        &CancellationToken::none(),
        |pages: &[std::sync::Arc<Page>]| -> i128 {
            pages
                .iter()
                .map(|page| {
                    let h = &page.header;
                    let mut cursor = FoldCursor::open(
                        h.val_encoding,
                        &page.val_bytes,
                        Some((h.min_value, h.max_value)),
                        None,
                        true,
                        false,
                    )
                    .unwrap()
                    .expect("every harness codec has a cursor");
                    let sum = cursor.fold_range(0, h.count as usize - 1).unwrap().sum;
                    cursor.finish().unwrap();
                    sum
                })
                .sum()
        },
    )
    .unwrap();
    sums.iter().sum()
}

/// A deterministic series shaped for `codec`, as the workloads shape
/// theirs: a slow wave plus noise, runs of one delta for Delta-RLE, a
/// spike every seventh point or so for Stream VByte.
fn values(codec: Encoding, n: usize) -> Vec<i64> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let wave = |i: usize| (((i as f64) / 4_096.0).sin() * 10_000.0) as i64;
    let noise = match codec {
        Encoding::Sprintz => 128,
        Encoding::Gorilla => 4,
        _ => 32,
    };
    let mut v = 0i64;
    (0..n)
        .map(|i| match codec {
            Encoding::DeltaRle => {
                if i % 64 == 0 {
                    v = (next() % 7) as i64 - 3;
                }
                wave(i - i % 64) / 16 + v * (i % 64) as i64
            }
            Encoding::StreamVByte if next() % 7 == 0 => wave(i) + (next() % 40_001) as i64 - 20_000,
            Encoding::StreamVByte => wave(i) + (next() % 101) as i64 - 50,
            _ => wave(i) + (next() % noise) as i64,
        })
        .collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
