//! Criterion bench mirroring Figure 14's ablations: fused decoder count
//! on Delta-RLE pages, pruning on/off, and two-phase slices of one page.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use etsqp_bench::{custom_store, sliced_sum_ts2diff, sum_flattened_deltas};
use etsqp_core::decode::{decode_column, DecodeOptions};
use etsqp_core::exec::ExecStats;
use etsqp_core::expr::{AggFunc, Plan, Predicate};
use etsqp_core::fused;
use etsqp_core::plan::PipelineConfig;
use etsqp_encoding::{delta_rle, ts2diff, Encoding};

const N: usize = 65_536;

fn bench(c: &mut Criterion) {
    let ts: Vec<i64> = (0..N as i64).map(|i| i * 10).collect();
    let mut vals = Vec::with_capacity(N);
    let mut v = 0i64;
    for i in 0..N {
        if i % 40 == 0 {
            v += (i / 40) as i64 % 5 - 2;
        }
        v += 2;
        vals.push(v);
    }

    let mut group = c.benchmark_group("fig14");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(500));
    group.warm_up_time(std::time::Duration::from_millis(100));
    group.throughput(Throughput::Elements(N as u64));

    // (a) Fused decoder count on Delta-RLE pages: decode then sum, runs
    // flattened to weighted deltas, the run-space closed form.
    let db = custom_store(&ts, &vals, Encoding::DeltaRle, 4096);
    let pages = db.store().peek_pages("a").unwrap();
    let mut buf = Vec::new();
    group.bench_function(BenchmarkId::new("fuse", "none"), |b| {
        b.iter(|| {
            for p in &pages {
                let opts = DecodeOptions::default();
                decode_column(Encoding::DeltaRle, &p.val_bytes, &opts, &mut buf).unwrap();
                criterion::black_box(etsqp_simd::agg::sum_i64(&buf));
            }
        })
    });
    group.bench_function(BenchmarkId::new("fuse", "delta"), |b| {
        b.iter(|| {
            for p in &pages {
                let page = delta_rle::parse(&p.val_bytes).unwrap();
                criterion::black_box(sum_flattened_deltas(&page, &mut buf));
            }
        })
    });
    group.bench_function(BenchmarkId::new("fuse", "delta_repeat"), |b| {
        b.iter(|| {
            for p in &pages {
                let page = delta_rle::parse(&p.val_bytes).unwrap();
                criterion::black_box(fused::aggregate_delta_rle(&page).unwrap().sum);
            }
        })
    });

    // Pruning on/off under a selective time filter.
    let db2 = custom_store(&ts, &vals, Encoding::Ts2Diff, 1024);
    let selective = Plan::scan("a")
        .filter(Predicate::time(ts[N / 2], ts[N / 2 + N / 50]))
        .aggregate(AggFunc::Sum);
    for (name, prune) in [("prune_on", true), ("prune_off", false)] {
        let cfg = PipelineConfig {
            threads: 1,
            prune,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("pruning", name), &cfg, |b, cfg| {
            b.iter(|| db2.execute_with(&selective, cfg).unwrap().rows.len())
        });
    }

    // (c-d) One big page: one fold vs two-phase symbolic slices.
    let db3 = custom_store(&ts, &vals, Encoding::Ts2Diff, N);
    let pages = db3.store().peek_pages("a").unwrap();
    let page = ts2diff::parse(&pages[0].val_bytes).unwrap();
    group.bench_function(BenchmarkId::new("slicing", "unsliced"), |b| {
        b.iter(|| {
            fused::sum_ts2diff(&page, &DecodeOptions::default())
                .unwrap()
                .sum
        })
    });
    for parts in [4usize, 16] {
        group.bench_with_input(BenchmarkId::new("slicing", parts), &parts, |b, &parts| {
            b.iter(|| sliced_sum_ts2diff(&page, parts, &ExecStats::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
