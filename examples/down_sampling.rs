//! Down-sampling a high-rate sensor with sliding-window aggregation —
//! the workload the paper's introduction motivates — and comparing the
//! engine configurations the evaluation studies: serial, vectorized
//! (decode-and-fold, fused where the codec allows), vectorized+pruning.
//!
//! ```sh
//! cargo run --release --example down_sampling
//! ```

use std::time::Instant;

use etsqp::core::plan::PipelineConfig;
use etsqp::{EngineOptions, IotDb, Plan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = 2_000_000usize;
    let dataset = etsqp::datasets::Spec::Climate.generate(rows);
    println!(
        "dataset: {} ({} rows, {} attrs)",
        dataset.name,
        dataset.rows(),
        dataset.attrs()
    );

    let db = IotDb::new(EngineOptions::default());
    db.create_series("temp")?;
    db.append_all("temp", &dataset.timestamps, &dataset.columns[0].1)?;
    db.flush()?;

    // Down-sample to ~1000-point windows (the paper's default window).
    let span = dataset.timestamps.last().unwrap() - dataset.timestamps[0];
    let dt = (span / 1000).max(1);
    let plan = Plan::scan("temp").window(dataset.timestamps[0], dt, etsqp::AggFunc::Avg);

    let configs: [(&str, PipelineConfig); 3] = [
        ("serial (1 thread)", EngineOptions::serial().pipeline),
        (
            "vectorized",
            PipelineConfig {
                prune: false,
                ..PipelineConfig::default()
            },
        ),
        ("vectorized + pruning", PipelineConfig::default()),
    ];

    let mut reference: Option<Vec<(f64, f64)>> = None;
    for (name, cfg) in configs {
        let start = Instant::now();
        let r = db.execute_with(&plan, &cfg)?;
        let elapsed = start.elapsed();
        let tuples = r.stats.tuples_total();
        println!(
            "{name:32} {:>8.1} ms   {:>7.1} M tuples/s   windows={}",
            elapsed.as_secs_f64() * 1e3,
            tuples as f64 / elapsed.as_secs_f64() / 1e6,
            r.rows.len()
        );
        // All configurations must agree on the answer.
        let got: Vec<(f64, f64)> = r
            .rows
            .iter()
            .map(|row| (row[0].as_f64(), row[1].as_f64()))
            .collect();
        match &reference {
            None => reference = Some(got),
            Some(want) => {
                assert_eq!(want.len(), got.len(), "{name}: window count mismatch");
                for ((wt, wv), (gt, gv)) in want.iter().zip(&got) {
                    assert_eq!(wt, gt, "{name}: window start mismatch");
                    assert!(
                        (wv - gv).abs() < 1e-6,
                        "{name}: value mismatch {wv} vs {gv}"
                    );
                }
            }
        }
    }
    println!("\nall configurations agree on every window ✔");
    Ok(())
}
