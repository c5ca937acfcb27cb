//! Multi-series queries: merging and naturally joining two sensors whose
//! clocks only partially align (the Q4–Q6 shapes of Table III), plus the
//! paired aggregates over their join, with the latest readings of both
//! devices still unflushed. Every answer is checked against the naive
//! oracle (`etsqp::core::oracle`).
//!
//! ```sh
//! cargo run --release --example sensor_join
//! ```

use etsqp::core::{oracle, sql};
use etsqp::{EngineOptions, IotDb, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = IotDb::new(EngineOptions::default());

    // Two devices: one reports every 2 s, the other every 3 s. The last
    // `tail` readings of each arrive after the flush and stay in the
    // devices' hot chunks.
    db.create_series("upstream")?;
    db.create_series("downstream")?;
    let (n, tail) = (300_000i64, 1_500i64);
    let (up_n, down_n) = (n + tail, n * 2 / 3 + tail);
    let up = |i: i64| (i * 2000, 100 + (i % 41));
    let down = |i: i64| (i * 3000, 90 + (i % 37));
    for i in 0..n {
        let (t, v) = up(i);
        db.append("upstream", t, v)?;
    }
    for i in 0..(n * 2 / 3) {
        let (t, v) = down(i);
        db.append("downstream", t, v)?;
    }
    db.flush()?;
    for i in n..up_n {
        let (t, v) = up(i);
        db.append("upstream", t, v)?;
    }
    for i in (n * 2 / 3)..down_n {
        let (t, v) = down(i);
        db.append("downstream", t, v)?;
    }
    let plan = db.explain("SELECT DOT(upstream, downstream) FROM upstream, downstream")?;
    assert_eq!(
        plan.matches("hot (").count(),
        2,
        "both tails unflushed:\n{plan}"
    );

    // Runs `sql` and asserts the engine's rows are the oracle's.
    let checked = |sql: &str| -> Result<_, Box<dyn std::error::Error>> {
        let r = db.query(sql)?;
        let (_, want) = oracle::execute(&sql::parse(sql)?, db.store())?;
        assert_eq!(r.rows, want, "{sql}: engine differs from the oracle");
        Ok(r)
    };

    // Q5: time-ordered union of both streams.
    let union = checked("SELECT * FROM upstream UNION downstream ORDER BY TIME")?;
    println!(
        "UNION: {} rows in {:?} (first: {:?})",
        union.rows.len(),
        union.elapsed,
        union.rows.first()
    );
    // Sorted by time?
    let mut last = i64::MIN;
    for row in &union.rows {
        let Value::Int(t) = row[0] else { panic!() };
        assert!(t >= last, "union not time-ordered");
        last = t;
    }

    // Q6: natural join — tuples where both devices reported at the same
    // millisecond (every 6 s here).
    let join = checked("SELECT * FROM upstream, downstream")?;
    println!(
        "JOIN:  {} matched tuples in {:?}",
        join.rows.len(),
        join.elapsed
    );

    // Q4: inter-column expression over the join — flow imbalance.
    let diff = checked("SELECT upstream.A + downstream.A FROM upstream, downstream")?;
    println!("JOIN+ADD: {} rows in {:?}", diff.rows.len(), diff.elapsed);
    assert_eq!(join.rows.len(), diff.rows.len());

    // Paired aggregates over the same join.
    for func in ["DOT", "CORR"] {
        let r = checked(&format!(
            "SELECT {func}(upstream, downstream) FROM upstream, downstream"
        ))?;
        println!("{func}: {:?} in {:?}", r.rows[0][0], r.elapsed);
    }

    // Sanity: the join count is the number of shared timestamps.
    // upstream covers multiples of 2000 below 2000·up_n; downstream
    // multiples of 3000 below 3000·down_n; shared = multiples of 6000
    // below both.
    let up_max = 2000 * (up_n - 1);
    let down_max = 3000 * (down_n - 1);
    let expected = (up_max.min(down_max)) / 6000 + 1;
    assert_eq!(join.rows.len() as i64, expected);
    println!("\njoin count matches closed form ({expected}) ✔");
    Ok(())
}
