//! Figure 14 — ablation study of the parallel pipeline designs. The
//! engine has one fold per page and no fusion or slicing knob, so (a)
//! and (c–d) measure the arms directly on the codec and kernel layers:
//!
//! * (a) throughput vs number of fused decoders, per substrate: decode
//!   then sum (none); the Delta decoder fused into the aggregate (Delta:
//!   `fused::sum_ts2diff`, or Delta-RLE runs flattened to deltas and
//!   weighted by `Σ(n−j)·δⱼ`); both decoders fused into Delta-RLE's
//!   run-space closed form (Delta+Repeat: `fused::aggregate_delta_rle`);
//!   and for two clock-aligned Delta-RLE columns, `Σ AᵢBᵢ` by the
//!   engine's DOT (decode both, merge-join moments) against the
//!   run-fragment closed form (`etsqp_bench::dot_product_delta_rle`);
//! * (b) staged time breakdown (I/O, unpack, delta, filter, aggregate,
//!   merge, idle) of a windowed SUM through the engine;
//! * (c–d) page slices: the two-phase symbolic slice (every slice
//!   unpacked and folded with carry 0 on the pool, then stitched) against
//!   one unsliced fold and SBoost's synchronized slice chain, as the
//!   slice count grows.
//!
//! Every arm of (a) and (c–d) must give the exact SUM; the binary panics
//! otherwise.
//!
//! ```sh
//! cargo run --release -p etsqp-bench --bin fig14
//! ```

use std::sync::atomic::Ordering;
use std::sync::Arc;

use etsqp_bench::{
    custom_store, default_rows, dot_product_delta_rle, fmt_mtps, sliced_sum_ts2diff,
    sum_flattened_deltas, throughput, time_median,
};
use etsqp_core::decode::{decode_column, DecodeOptions};
use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::exec::ExecStats;
use etsqp_core::expr::{AggFunc, PairAggFunc, Plan};
use etsqp_core::fused;
use etsqp_core::plan::{PipelineConfig, Value};
use etsqp_datasets::Spec;
use etsqp_encoding::{delta_rle, ts2diff, Encoding};
use etsqp_simd::agg::sum_i64;
use etsqp_storage::page::Page;

fn main() {
    let rows = default_rows();
    part_a(rows);
    part_b(rows);
    part_cd(rows);
}

/// How many of a delta codec's decoders the SUM is fused across.
#[derive(Debug, Clone, Copy)]
enum Fused {
    None,
    Delta,
    DeltaRepeat,
}

/// What the engine's scan passes a decoder: the header's value range.
fn opts(page: &Page) -> DecodeOptions {
    DecodeOptions {
        value_range: Some((page.header.min_value, page.header.max_value)),
    }
}

/// SUM over every page's value column, the way `fused` says.
fn sum_pages(enc: Encoding, fused: Fused, pages: &[Arc<Page>], buf: &mut Vec<i64>) -> i128 {
    let mut sum = 0;
    for p in pages {
        let bytes = &p.val_bytes[..];
        sum += match (enc, fused) {
            (_, Fused::None) => {
                decode_column(enc, bytes, &opts(p), buf).expect("decodes");
                sum_i64(buf)
            }
            (Encoding::Ts2Diff, Fused::Delta) => {
                let page = ts2diff::parse(bytes).expect("parses");
                fused::sum_ts2diff(&page, &opts(p)).expect("sums").sum
            }
            (_, Fused::Delta) => {
                sum_flattened_deltas(&delta_rle::parse(bytes).expect("parses"), buf)
            }
            (_, Fused::DeltaRepeat) => {
                let page = delta_rle::parse(bytes).expect("parses");
                fused::aggregate_delta_rle(&page).expect("sums").sum
            }
        };
    }
    sum
}

/// (a) Fused decoder count.
fn part_a(rows: usize) {
    println!("Figure 14(a): throughput vs fused decoders, {rows} rows (Delta-Repeat data)\n");
    // Run-heavy values so the Repeat fusion has something to skip.
    let mut vals = Vec::with_capacity(rows);
    let mut v = 0i64;
    for i in 0..rows {
        if i % 50 == 0 {
            v += (i as i64 / 50) % 5 - 2;
        }
        v += 2;
        vals.push(v);
    }
    let want: i128 = vals.iter().map(|&v| v as i128).sum();
    let ts: Vec<i64> = (0..rows as i64).map(|i| i * 10).collect();
    // Each fusion level on the substrate whose decoders it skips: Delta
    // fusion skips TS2DIFF's accumulation; Delta+Repeat fusion skips
    // Delta-RLE's flattening too.
    let none = ("  none (decode_column + sum_i64)", Fused::None);
    for (substrate, enc, arms) in [
        (
            "TS2DIFF",
            Encoding::Ts2Diff,
            &[none, ("  Delta (fused::sum_ts2diff)", Fused::Delta)][..],
        ),
        (
            "Delta-RLE",
            Encoding::DeltaRle,
            &[
                none,
                ("  Delta (flattened runs, Σ(n−j)·δⱼ)", Fused::Delta),
                (
                    "  Delta+Repeat (fused::aggregate_delta_rle)",
                    Fused::DeltaRepeat,
                ),
            ][..],
        ),
    ] {
        let db = custom_store(&ts, &vals, enc, 4096);
        let pages = db.store().peek_pages("a").expect("pages");
        println!("value column encoded as {substrate}:");
        let mut buf = Vec::new();
        for &(name, fused) in arms {
            let d = time_median(5, || {
                let sum = sum_pages(enc, fused, &pages, &mut buf);
                assert_eq!(sum, want, "{substrate} {fused:?}: wrong SUM");
                sum
            });
            println!(
                "{name:<46} {} M tuples/s",
                fmt_mtps(throughput(rows as u64, d))
            );
        }
    }
    part_a_pair(&ts, &vals);
    println!();
}

/// (a) for the two-column form: `Σ AᵢBᵢ` over two clock-aligned Delta-RLE
/// columns, by the engine's DOT (both sides decoded, equal timestamps
/// merge-joined into moments) and by the run-fragment closed form.
fn part_a_pair(ts: &[i64], a: &[i64]) {
    // Runs of the same length as `a`'s, with a slope of their own.
    let b: Vec<i64> = (a.iter().enumerate())
        .map(|(i, &v)| 3 * v - (i as i64 / 50) % 3)
        .collect();
    let want: i128 = a.iter().zip(&b).map(|(&x, &y)| x as i128 * y as i128).sum();
    let want_cell = i64::try_from(want).map_or(Value::Float(want as f64), Value::Int);
    let db = IotDb::new(
        EngineOptions::default()
            .with_encodings(Encoding::Ts2Diff, Encoding::DeltaRle)
            .with_page_points(4096),
    );
    for (name, col) in [("a", a), ("b", &b[..])] {
        db.create_series(name).unwrap();
        db.append_all(name, ts, col).unwrap();
    }
    db.flush().unwrap();
    println!("Delta-RLE pair Σ AᵢBᵢ (two clock-aligned columns):");
    let dot = Plan::JoinAggregate {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("b")),
        func: PairAggFunc::Dot,
    };
    let cfg = PipelineConfig {
        threads: 1,
        ..Default::default()
    };
    let d = time_median(5, || {
        let r = db.execute_with(&dot, &cfg).expect("runs");
        assert_eq!(r.rows, vec![vec![want_cell]], "engine DOT: wrong Σ AᵢBᵢ");
    });
    let name = "  decode both + merge-join moments (DOT)";
    println!(
        "{name:<46} {} M tuples/s",
        fmt_mtps(throughput(ts.len() as u64, d))
    );
    let (pa, pb) = (
        db.store().peek_pages("a").unwrap(),
        db.store().peek_pages("b").unwrap(),
    );
    assert!(
        pa.len() == pb.len() && pa.iter().zip(&pb).all(|(x, y)| x.ts_bytes == y.ts_bytes),
        "pages aligned"
    );
    let d = time_median(5, || {
        let sum: i128 = (pa.iter().zip(&pb))
            .map(|(x, y)| {
                let x = delta_rle::parse(&x.val_bytes).expect("parses");
                let y = delta_rle::parse(&y.val_bytes).expect("parses");
                dot_product_delta_rle(&x, &y)
            })
            .sum();
        assert_eq!(sum, want, "closed form: wrong Σ AᵢBᵢ");
    });
    let name = "  closed form (dot_product_delta_rle)";
    println!(
        "{name:<46} {} M tuples/s",
        fmt_mtps(throughput(ts.len() as u64, d))
    );
}

/// (b) Staged time consumption.
fn part_b(rows: usize) {
    println!("Figure 14(b): staged time breakdown, Q1 on Clim, {rows} rows\n");
    let d = Spec::Climate.generate(rows);
    let db = IotDb::new(EngineOptions::default());
    db.create_series("temp").unwrap();
    db.append_all("temp", &d.timestamps, &d.columns[0].1)
        .unwrap();
    db.flush().unwrap();
    let span = d.timestamps.last().unwrap() - d.timestamps[0];
    let dt = (span / (rows as i64 / 1000).max(1)).max(1);
    let cfg = PipelineConfig {
        threads: 2,
        ..Default::default()
    };
    let plan = Plan::scan("temp").window(d.timestamps[0], dt, AggFunc::Sum);
    let r = db.execute_with(&plan, &cfg).unwrap();
    let s = r.stats;
    let stages = [
        ("I/O", s.io_ns),
        ("unpack", s.unpack_ns),
        ("delta/flatten", s.delta_ns),
        ("filter", s.filter_ns),
        ("aggregate", s.agg_ns),
        ("merge", s.merge_ns),
        ("idle", s.idle_ns),
    ];
    let total: u64 = stages.iter().map(|(_, ns)| *ns).sum();
    for (name, ns) in stages {
        println!(
            "{name:<18} {:>8.2} ms  {:>5.1}%",
            ns as f64 / 1e6,
            ns as f64 / total.max(1) as f64 * 100.0
        );
    }
    println!("(windows: {}, wall time {:?})\n", r.rows.len(), r.elapsed);
}

/// (c–d) Slice-count sweep: two-phase slices vs one fold vs SBoost.
fn part_cd(rows: usize) {
    println!("Figure 14(c-d): slices of one {rows}-row TS2DIFF page, SUM\n");
    let ts: Vec<i64> = (0..rows as i64).collect();
    let vals: Vec<i64> = (0..rows as i64).map(|i| 1000 + (i % 313) - 150).collect();
    let want: i128 = vals.iter().map(|&v| v as i128).sum();
    let db = custom_store(&ts, &vals, Encoding::Ts2Diff, rows);
    let pages = db.store().peek_pages("a").expect("pages");
    assert_eq!(pages.len(), 1, "one page");
    let page = ts2diff::parse(&pages[0].val_bytes).expect("parses");
    let d_one = time_median(5, || {
        let sum = fused::sum_ts2diff(&page, &opts(&pages[0]))
            .expect("sums")
            .sum;
        assert_eq!(sum, want, "unsliced: wrong SUM");
        sum
    });
    println!(
        "one unsliced fold (fused::sum_ts2diff): {:.3} ms\n",
        d_one.as_secs_f64() * 1e3
    );
    let sboost = etsqp_sboost::SboostEngine::from_store(db.store(), "a").unwrap();

    println!(
        "{:<8} {:>14} {:>12} {:>14} {:>14}",
        "slices", "two-phase[ms]", "idle[ms]", "sboost[ms]", "sync[ms]"
    );
    for slices in [1usize, 2, 4, 8, 16, 32] {
        let mut idle_ns = 0u64;
        let d_sliced = time_median(5, || {
            let stats = ExecStats::default();
            let sum = sliced_sum_ts2diff(&page, slices, &stats);
            assert_eq!(sum, want, "{slices} slices: wrong SUM");
            idle_ns = stats.idle_ns.load(Ordering::Relaxed);
            sum
        });
        let stats_before = sboost.stats().sync_wait_ns.load(Ordering::Relaxed);
        let d_sboost = time_median(5, || {
            let (sum, _) = sboost
                .sum_in_time_range(i64::MIN, i64::MAX, slices)
                .unwrap();
            assert_eq!(sum, want, "sboost {slices} slices: wrong SUM");
            sum
        });
        let sync_ns = sboost.stats().sync_wait_ns.load(Ordering::Relaxed) - stats_before;
        println!(
            "{slices:<8} {:>14.3} {:>12.3} {:>14.3} {:>14.3}",
            d_sliced.as_secs_f64() * 1e3,
            idle_ns as f64 / 1e6,
            d_sboost.as_secs_f64() * 1e3,
            sync_ns as f64 / 1e6 / 6.0, // 5 timed runs + warm-up
        );
    }
    println!("\n(Two-phase slices are symbolic — no slice waits for another's prefix");
    println!(" sum, and each materializes one 1 KiB unpack block; SBoost threads");
    println!(" block on the predecessor slice's prefix value.)");
}
