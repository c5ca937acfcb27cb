//! Float sensor columns end-to-end: ingest f64 readings under the XOR
//! codec family (Gorilla / Chimp / Elf), compare their footprints, and
//! run pruned range aggregations, through the `aggregate_f64` shim and
//! SQL alike.
//!
//! ```sh
//! cargo run --release --example float_sensors
//! ```

use etsqp::core::float::FloatRange;
use etsqp::{AggFunc, Encoding, EngineOptions, IotDb, TimeRange, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = IotDb::new(EngineOptions::default());
    let n = 200_000usize;

    // The same 2-decimal temperature trace under each float codec.
    let readings: Vec<f64> = (0..n)
        .map(|i| ((21.0 + (i as f64 * 0.001).sin() * 4.0) * 100.0).round() / 100.0)
        .collect();
    for (name, enc) in [
        ("temp_gorilla", Encoding::GorillaFloat),
        ("temp_chimp", Encoding::Chimp),
        ("temp_elf", Encoding::Elf),
    ] {
        db.create_series_f64(name, enc)?;
        for (i, &v) in readings.iter().enumerate() {
            db.append_f64(name, 1_700_000_000_000 + i as i64 * 1000, v)?;
        }
    }
    db.flush()?;

    println!(
        "storage footprint for {n} two-decimal readings (raw = {} KB):",
        n * 8 / 1000
    );
    for name in ["temp_gorilla", "temp_chimp", "temp_elf"] {
        let pages = db.store().peek_pages(name)?;
        let bytes: usize = pages.iter().map(|p| p.encoded_len()).sum();
        println!(
            "  {name:<14} {:>8} KB  ({:.1}x)",
            bytes / 1000,
            (n * 8) as f64 / bytes as f64
        );
    }

    // Range aggregations with header pruning (float min/max map into the
    // integer header domain order-preservingly).
    let avg = db.aggregate_f64("temp_elf", None, None, AggFunc::Avg)?;
    println!("\nAVG(temp_elf) over everything: {:?}", avg);
    let recent = TimeRange {
        lo: 1_700_000_000_000 + (n as i64 / 2) * 1000,
        hi: i64::MAX,
    };
    let recent_avg = db.aggregate_f64("temp_elf", Some(recent), None, AggFunc::Avg)?;
    println!("AVG(temp_elf) over the second half: {:?}", recent_avg);
    let hot = db.aggregate_f64(
        "temp_elf",
        None,
        Some(FloatRange {
            lo: 24.5,
            hi: f64::INFINITY,
        }),
        AggFunc::Count,
    )?;
    println!("COUNT(temp > 24.5): {:?}", hot);

    // The same series through SQL: hourly averages over the second half
    // (GROUP BY TIME snaps its origin to a multiple of the width). Each
    // bucket is the shim's AVG over the bucket's time range, bit for bit:
    // both sum every page's slice from zero, pages in storage order.
    let hour = 3_600_000;
    let sql = format!(
        "SELECT AVG(temp_elf) FROM temp_elf WHERE time >= {} GROUP BY TIME({hour})",
        recent.lo
    );
    let hourly = db.query(&sql)?;
    for row in &hourly.rows {
        let (Value::Int(start), Value::Float(avg)) = (row[0], row[1]) else {
            return Err(format!("malformed row {row:?}").into());
        };
        let bucket = TimeRange {
            lo: start.max(recent.lo),
            hi: start + hour - 1,
        };
        let shim = db.aggregate_f64("temp_elf", Some(bucket), None, AggFunc::Avg)?;
        assert_eq!(shim.map(f64::to_bits), Some(avg.to_bits()), "hour {start}");
    }
    println!(
        "{} hourly AVG(temp_elf) rows through SQL, each equal to the shim's ✔",
        hourly.rows.len()
    );

    // Verify all three codecs agree on every aggregate.
    for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Variance] {
        let a = db.aggregate_f64("temp_gorilla", None, None, func)?.unwrap();
        let b = db.aggregate_f64("temp_chimp", None, None, func)?.unwrap();
        let c = db.aggregate_f64("temp_elf", None, None, func)?.unwrap();
        assert!(
            (a - b).abs() < 1e-9 && (b - c).abs() < 1e-9,
            "{func:?}: {a} {b} {c}"
        );
    }
    println!("\nall float codecs agree on SUM/MIN/MAX/VARIANCE ✔");
    Ok(())
}
