//! Proposition 1 / Theorem 2 — cost-model validation: the modelled
//! per-value decode time for each `n_v` next to the measured decode
//! throughput, plus the Theorem 2 speedup estimate next to the measured
//! serial/vectorized ratio.
//!
//! ```sh
//! cargo run --release -p etsqp-bench --bin prop1
//! ```

use etsqp_bench::cost::{
    avg_time_per_value, choose_nv, optimal_nv_real, theorem2_speedup, CostConstants,
};
use etsqp_bench::{decode_ts2diff_ablation, default_rows, time_median, DeltaAccumulation};
use etsqp_encoding::ts2diff;

fn main() {
    let rows = default_rows();
    let c = CostConstants::default();
    println!(
        "Proposition 1: n_v cost model vs measurement ({rows} values, backend {})\n",
        etsqp_simd::backend()
    );

    for width in [4u8, 10, 25] {
        // Small real deltas (so the 32-bit relative-offset fast path stays
        // sound for the whole page) packed at the forced stored width.
        let values: Vec<i64> = (0..rows as i64)
            .scan(0i64, |acc, i| {
                *acc += (i * 2654435761) & 0x7;
                Some(*acc)
            })
            .collect();
        let bytes = ts2diff::encode_with_width(&values, 1, width);
        let page = ts2diff::parse(&bytes).unwrap();
        println!(
            "packing width {width} (stored {}): real optimum n_v* = {:.2}, chosen = {}",
            page.width,
            optimal_nv_real(width, 32, &c),
            choose_nv(width, 32, &c)
        );
        println!(
            "{:>8} {:>16} {:>18}",
            "n_v", "model[t_op/val]", "measured[Mval/s]"
        );
        let mut out = Vec::new();
        for nv in [1usize, 2, 4, 8] {
            let how = DeltaAccumulation::Chain(nv);
            let d = time_median(5, || decode_ts2diff_ablation(&page, how, &mut out));
            println!(
                "{nv:>8} {:>16.3} {:>18.1}",
                avg_time_per_value(width, 32, nv, &c),
                rows as f64 / d.as_secs_f64() / 1e6
            );
        }
        // Straight-scan ablation and the serial reference.
        let how = DeltaAccumulation::StraightScan;
        let d = time_median(5, || decode_ts2diff_ablation(&page, how, &mut out));
        assert_eq!(out, values, "the ablation decoder is exact");
        println!(
            "{:>8} {:>16} {:>18.1}",
            "scan",
            "-",
            rows as f64 / d.as_secs_f64() / 1e6
        );
        let d = time_median(5, || ts2diff::decode(&bytes).unwrap());
        println!(
            "{:>8} {:>16} {:>18.1}\n",
            "serial",
            "-",
            rows as f64 / d.as_secs_f64() / 1e6
        );
    }

    println!("Theorem 2: estimated serial→parallel speedup (10-bit TS2DIFF):");
    for threads in [1usize, 4, 16] {
        println!(
            "  {threads:>2} threads: {:.1}x",
            theorem2_speedup(10, 32, threads, &c)
        );
    }
    println!("(paper reports ≈15.3x at 16 threads/AVX2)");
}
