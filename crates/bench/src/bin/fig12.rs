//! Figure 12 — operator micro-benchmarks isolating each algorithmic
//! decision:
//!
//! * (a–b) **Delta-only** encoding vs thread count — ETSQP's scheduler vs
//!   SBoost's slice synchronization on the same data representation.
//! * (c–d) **Delta–Repeat** vs run length — fusion counts/aggregates
//!   `(Δ, run)` pairs directly; SBoost must flatten, so the gap grows
//!   with the run length.
//! * (e–f) **Delta–Repeat–Packing** vs packing width — ETSQP-prune's
//!   Proposition 5 bounds tighten as the width shrinks, cutting decode
//!   work; ETSQP and SBoost decode everything.
//!
//! ```sh
//! cargo run --release -p etsqp-bench --bin fig12
//! ```

use std::time::Instant;

use etsqp_bench::{custom_store, default_rows, fmt_mtps, throughput, time_median};
use etsqp_core::decode::DecodeOptions;
use etsqp_core::expr::{AggFunc, Plan, Predicate};
use etsqp_core::fused;
use etsqp_core::plan::PipelineConfig;
use etsqp_encoding::{delta_rle, ts2diff, Encoding};

fn main() {
    let rows = default_rows();
    part_ab(rows);
    part_cd(rows);
    part_ef(rows);
}

/// (a–b) Delta-only: time-range query (selectivity 0.5) vs threads.
fn part_ab(rows: usize) {
    println!("Figure 12(a-b): Delta-only encoding, time-range query, {rows} rows\n");
    let ts: Vec<i64> = (0..rows as i64).map(|i| i * 1000).collect();
    let vals: Vec<i64> = (0..rows as i64).map(|i| 500 + (i % 97) - 48).collect();
    let db = custom_store(&ts, &vals, Encoding::Ts2Diff, 1024);
    let (lo, hi) = (ts[rows / 4], ts[3 * rows / 4]);
    let plan = Plan::scan("a")
        .filter(Predicate::time(lo, hi))
        .aggregate(AggFunc::Sum);
    let sboost = etsqp_sboost::SboostEngine::from_store(db.store(), "a").unwrap();
    let fl = etsqp_fastlanes::FlSeries::encode(&ts, &vals);

    print!("{:<14}", "system\\threads");
    let threads = [1usize, 2, 4, 8, 16];
    for t in threads {
        print!("{t:>9}");
    }
    println!();
    for name in ["ETSQP", "SBoost", "FastLanes"] {
        print!("{name:<14}");
        for t in threads {
            let d = match name {
                "ETSQP" => time_median(3, || {
                    let cfg = PipelineConfig {
                        threads: t,
                        prune: false,
                        // Time the page pipeline, not a cached partial.
                        partial_cache: false,
                        ..Default::default()
                    };
                    db.execute_with(&plan, &cfg).unwrap().rows.len()
                }),
                "SBoost" => time_median(3, || {
                    sboost.sum_in_time_range(lo, hi, t).unwrap().1 as usize
                }),
                _ => time_median(3, || fl.sum_in_range(lo, hi, t).unwrap().1 as usize),
            };
            print!("{}", fmt_mtps(throughput(rows as u64, d)));
        }
        println!();
    }
    println!();
}

/// (c–d) Delta-Repeat: aggregation throughput vs run length.
fn part_cd(rows: usize) {
    println!("Figure 12(c-d): Delta-Repeat, aggregation vs run length, {rows} rows\n");
    print!("{:<22}", "system\\run-length");
    let run_lengths = [1usize, 4, 16, 64, 256];
    for r in run_lengths {
        print!("{r:>9}");
    }
    println!();
    let mut fused_row = String::new();
    let mut decode_row = String::new();
    for r in run_lengths {
        // Values whose deltas repeat `r` times.
        let mut vals = Vec::with_capacity(rows);
        let mut v = 0i64;
        let mut delta = 1i64;
        for i in 0..rows {
            if i % r == 0 {
                delta = ((i / r) % 7) as i64 - 3;
            }
            v += delta;
            vals.push(v);
        }
        let bytes = delta_rle::encode(&vals);
        let page = delta_rle::parse(&bytes).unwrap();
        // ETSQP: closed-form aggregation over (Δ, run) pairs.
        let d_fused = time_median(5, || fused::aggregate_delta_rle(&page).unwrap().count);
        // SBoost-style: flatten everything, then aggregate.
        let d_decode = time_median(5, || {
            let decoded = delta_rle::decode(&bytes).unwrap();
            etsqp_simd::agg::sum_i64(&decoded)
        });
        fused_row += &fmt_mtps(throughput(rows as u64, d_fused));
        decode_row += &fmt_mtps(throughput(rows as u64, d_decode));
    }
    println!("{:<22}{fused_row}", "ETSQP (fused)");
    println!("{:<22}{decode_row}", "SBoost (flatten)");
    println!("\n(larger runs → more decoding saved by fusion; SBoost flattens every tuple)\n");
}

/// (e–f) Delta-Repeat-Packing: pruning effectiveness vs packing width —
/// the data stays unvaried while the *stored* width grows (the paper's
/// "packing widths grow, meanwhile data points stay unvaried").
fn part_ef(rows: usize) {
    println!("Figure 12(e-f): pruning vs Bitpacking width (data unvaried), {rows} rows\n");
    // A descending walk (deltas in [−8, 0], needed width 4 bits). The
    // filter matches the starting band; once the walk leaves it, rule (1)
    // of Proposition 5 can stop the scan as soon as
    // D_M·remaining < (c1 − v_k) — earlier for tighter (narrower) D_M.
    let mut vals = Vec::with_capacity(rows);
    let mut v = 0i64;
    let mut state = 0x12345678u64;
    for _ in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v -= (state >> 33) as i64 % 9; // delta ∈ [−8, 0]
        vals.push(v);
    }
    let ts: Vec<i64> = (0..rows as i64).collect();
    let c1 = vals[rows / 100]; // leave the band after ~1% of the scan
    let plan = Plan::scan("a")
        .filter(Predicate::value(c1, i64::MAX))
        .aggregate(AggFunc::Count);

    print!("{:<22}", "system\\width");
    let widths = [4u8, 6, 8, 10, 12];
    for w in widths {
        print!("{w:>9}");
    }
    println!();
    let mut rows_out = [String::new(), String::new()];
    for w in widths {
        // One page; deltas re-packed at the forced width.
        let val_bytes = ts2diff::encode_with_width(&vals, 1, w);
        let parsed = ts2diff::parse(&val_bytes).unwrap();
        assert_eq!(parsed.width, w, "forced width");
        let ts_bytes = Encoding::Ts2Diff.encode_i64(&ts);
        let page = etsqp_storage::page::Page::new(
            etsqp_storage::page::PageHeader {
                count: rows as u32,
                first_ts: ts[0],
                last_ts: *ts.last().unwrap(),
                min_value: *vals.iter().min().unwrap(),
                max_value: *vals.iter().max().unwrap(),
                ts_encoding: Encoding::Ts2Diff,
                val_encoding: Encoding::Ts2Diff,
            },
            ts_bytes.into(),
            val_bytes.into(),
        );
        let store = etsqp_storage::store::SeriesStore::new(rows);
        store.insert_pages("a", vec![page]);
        let db = etsqp_core::engine::IotDb::with_store(
            store,
            etsqp_core::engine::EngineOptions::default(),
        );
        for (row, prune) in rows_out.iter_mut().zip([true, false]) {
            let cfg = PipelineConfig {
                threads: 1,
                prune,
                partial_cache: false,
                ..Default::default()
            };
            let d = time_median(5, || {
                let r = db.execute_with(&plan, &cfg).unwrap();
                r.stats.tuples_total()
            });
            *row += &fmt_mtps(throughput(rows as u64, d));
        }
    }
    println!("{:<22}{}", "ETSQP-prune", rows_out[0]);
    println!("{:<22}{}", "ETSQP", rows_out[1]);
    println!("\n(narrower stored widths → tighter D_M = base + 2^ω − 1 → earlier");
    println!(" Proposition-5 cutoffs; wider packing also inflates unpack I/O)");
    let _ = Instant::now();
    let _ = DecodeOptions::default();
}
