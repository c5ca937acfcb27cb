//! Criterion bench mirroring Figure 12's operator micro-benchmarks, plus
//! the Proposition 1 `n_v` sweep (the cost-model validation DESIGN.md
//! calls out) and the chain-layout vs straight-scan Delta ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use etsqp_bench::{decode_ts2diff_ablation, DeltaAccumulation};
use etsqp_core::fused;
use etsqp_encoding::{delta_rle, ts2diff};

const N: usize = 65_536;

fn decode_benches(c: &mut Criterion) {
    let values: Vec<i64> = (0..N as i64)
        .map(|i| 1_000_000 + i * 3 + (i % 29))
        .collect();
    let bytes = ts2diff::encode(&values, 1);
    let page = ts2diff::parse(&bytes).unwrap();
    let mut group = c.benchmark_group("fig12_decode");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(500));
    group.warm_up_time(std::time::Duration::from_millis(100));
    group.throughput(Throughput::Elements(N as u64));

    // Proposition 1 n_v sweep.
    let mut out = Vec::new();
    for nv in [1usize, 2, 4, 8] {
        let how = DeltaAccumulation::Chain(nv);
        group.bench_with_input(BenchmarkId::new("chain_nv", nv), &how, |b, &how| {
            b.iter(|| decode_ts2diff_ablation(&page, how, &mut out))
        });
    }
    // Straight-scan ablation (SBoost-style accumulation).
    group.bench_function("straight_scan", |b| {
        b.iter(|| decode_ts2diff_ablation(&page, DeltaAccumulation::StraightScan, &mut out))
    });
    // Serial reference decoder.
    group.bench_function("serial_reference", |b| {
        b.iter(|| ts2diff::decode(&bytes).unwrap())
    });
    group.finish();
}

fn fusion_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_fusion");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(500));
    group.warm_up_time(std::time::Duration::from_millis(100));
    group.throughput(Throughput::Elements(N as u64));
    for run in [1usize, 16, 256] {
        let mut vals = Vec::with_capacity(N);
        let mut v = 0i64;
        for i in 0..N {
            if i % run == 0 {
                v += (i / run) as i64 % 5 - 2;
            }
            v += 1;
            vals.push(v);
        }
        let bytes = delta_rle::encode(&vals);
        let page = delta_rle::parse(&bytes).unwrap();
        group.bench_with_input(
            BenchmarkId::new("fused_aggregate", run),
            &page,
            |b, page| b.iter(|| fused::aggregate_delta_rle(page).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("flatten_then_sum", run),
            &bytes,
            |b, bytes| {
                b.iter(|| {
                    let decoded = delta_rle::decode(bytes).unwrap();
                    etsqp_simd::agg::sum_i64(&decoded)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, decode_benches, fusion_benches);
criterion_main!(benches);
