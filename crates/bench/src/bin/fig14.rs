//! Figure 14 — ablation study of the parallel pipeline designs:
//!
//! * (a) throughput vs number of fused decoders (none / Delta /
//!   Delta+Repeat);
//! * (b) staged time breakdown (I/O, unpack, delta, filter, aggregate,
//!   merge, idle);
//! * (c–d) page slices: execution time, worker idle time and
//!   materialized bytes as the slice count grows — ETSQP's two-phase
//!   symbolic slices vs SBoost's synchronized slice chain.
//!
//! ```sh
//! cargo run --release -p etsqp-bench --bin fig14
//! ```

use etsqp_bench::{custom_store, default_rows, fmt_mtps, throughput, time_median};
use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{AggFunc, Plan};
use etsqp_core::fused::FuseLevel;
use etsqp_core::plan::PipelineConfig;
use etsqp_datasets::Spec;
use etsqp_encoding::Encoding;

fn main() {
    let rows = default_rows();
    part_a(rows);
    part_b(rows);
    part_cd(rows);
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
    let ts: Vec<i64> = (0..rows as i64).map(|i| i * 10).collect();
    let plan = Plan::scan("a").aggregate(AggFunc::Sum);
    // Each fusion level on the substrate whose decoder it skips: Delta
    // fusion applies to TS2DIFF (skips accumulation); Delta+Repeat fusion
    // applies to Delta-RLE (skips flattening and accumulation).
    for (substrate, enc) in [
        ("TS2DIFF", Encoding::Ts2Diff),
        ("Delta-RLE", Encoding::DeltaRle),
    ] {
        let db = custom_store(&ts, &vals, enc, 4096);
        println!("value column encoded as {substrate}:");
        for (name, fuse) in [
            ("  fuse none (unpack+flatten+accumulate)", FuseLevel::None),
            ("  fuse Delta (skip accumulate)", FuseLevel::Delta),
            (
                "  fuse Delta+Repeat (skip flatten too)",
                FuseLevel::DeltaRepeat,
            ),
        ] {
            let cfg = PipelineConfig {
                threads: 1,
                fuse,
                prune: false,
                allow_slicing: false,
                // The repeats time the page pipeline, not a cached partial.
                partial_cache: false,
                ..Default::default()
            };
            let d = time_median(5, || db.execute_with(&plan, &cfg).unwrap().rows.len());
            println!(
                "{name:<42} {} M tuples/s",
                fmt_mtps(throughput(rows as u64, d))
            );
        }
    }
    println!();
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
    // Disable fusion so every stage actually runs.
    let cfg = PipelineConfig {
        fuse: FuseLevel::None,
        threads: 2,
        ..Default::default()
    };
    let plan = Plan::scan("temp").window(d.timestamps[0], dt, AggFunc::Sum);
    let r = db.execute_with(&plan, &cfg).unwrap();
    let s = r.stats;
    let stages = [
        ("I/O + distribute", s.io_ns),
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

/// (c–d) Slice-count sweep: idle vs materialization.
fn part_cd(rows: usize) {
    println!("Figure 14(c-d): slices vs idle/materialization, one page of {rows} rows\n");
    let ts: Vec<i64> = (0..rows as i64).collect();
    let vals: Vec<i64> = (0..rows as i64).map(|i| 1000 + (i % 313) - 150).collect();
    // One giant page so slicing is forced.
    let db = custom_store(&ts, &vals, Encoding::Ts2Diff, rows);
    let plan = Plan::scan("a").aggregate(AggFunc::Sum);
    let sboost = etsqp_sboost::SboostEngine::from_store(db.store(), "a").unwrap();

    println!(
        "{:<8} {:>14} {:>12} {:>14} {:>14} {:>14}",
        "slices", "etsqp[ms]", "idle[ms]", "mat[KB]", "sboost[ms]", "sync[ms]"
    );
    for threads in [1usize, 2, 4, 8, 16, 32] {
        let cfg = PipelineConfig {
            threads,
            allow_slicing: true,
            prune: false,
            partial_cache: false,
            ..Default::default()
        };
        let mut idle_ns = 0u64;
        let mut mat = 0u64;
        let d_etsqp = time_median(3, || {
            let r = db.execute_with(&plan, &cfg).unwrap();
            idle_ns = r.stats.idle_ns;
            mat = r.stats.materialized_bytes;
            r.rows.len()
        });
        let stats_before = sboost
            .stats()
            .sync_wait_ns
            .load(std::sync::atomic::Ordering::Relaxed);
        let d_sboost = time_median(3, || {
            sboost
                .sum_in_time_range(i64::MIN, i64::MAX, threads)
                .unwrap()
                .1
        });
        let sync_ns = sboost
            .stats()
            .sync_wait_ns
            .load(std::sync::atomic::Ordering::Relaxed)
            - stats_before;
        println!(
            "{threads:<8} {:>14.2} {:>12.3} {:>14.1} {:>14.2} {:>14.3}",
            d_etsqp.as_secs_f64() * 1e3,
            idle_ns as f64 / 1e6,
            mat as f64 / 1e3,
            d_sboost.as_secs_f64() * 1e3,
            sync_ns as f64 / 1e6 / 4.0, // 3 timed runs + warmup
        );
    }
    println!("\n(ETSQP slice jobs are symbolic — no waiting, no materialized vectors;");
    println!(" SBoost threads block on the predecessor slice's prefix value.)");
}
