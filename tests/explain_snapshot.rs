//! Snapshot tests for `EXPLAIN`: the rendered physical pipeline for the
//! 26-query battery is pinned byte for byte against
//! `tests/snapshots/explain.snap`, through both the library entry point
//! (`IotDb::query` / `IotDb::explain`) and the `etsqp-cli` binary.
//!
//! To regenerate the snapshot after an intentional planner/render change:
//!
//! ```sh
//! UPDATE_EXPLAIN_SNAPSHOTS=1 cargo test --test explain_snapshot
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use etsqp::{Encoding, EngineOptions, IotDb};

/// Five 64-point pages per series; threads pinned so the header line and
/// partition counts are machine-independent.
const PAGE_POINTS: usize = 64;
const THREADS: usize = 4;
const ROWS: i64 = 300;

fn fixture() -> IotDb {
    let db = IotDb::new(
        EngineOptions::default()
            .with_threads(THREADS)
            .with_page_points(PAGE_POINTS),
    );
    let ts: Vec<i64> = (0..ROWS).map(|i| 1000 + i * 10).collect();
    let a: Vec<i64> = (0..ROWS).map(|i| (i * 7) % 120 - 40).collect();
    let b: Vec<i64> = (0..ROWS).map(|i| 30 - (i % 9)).collect();
    for (name, vals) in [("snap_a", &a), ("snap_b", &b)] {
        db.create_series(name).unwrap();
        db.append_all(name, &ts, vals).unwrap();
    }
    db.create_series_f64("snap_f", Encoding::Chimp).unwrap();
    for (&t, &v) in ts.iter().zip(&a) {
        db.append_f64("snap_f", t, v as f64 / 4.0).unwrap();
    }
    db.flush().unwrap();
    db
}

/// The query battery of `tests/differential.rs`, in SQL form. Ranges
/// mirror the differential fixture's quartile time band, value band, and
/// ~span/9 window width against the fixed fixture above.
fn battery() -> Vec<&'static str> {
    vec![
        "SELECT SUM(A) FROM snap_a",
        "SELECT AVG(A) FROM snap_a WHERE time >= 1750 AND time <= 3240",
        "SELECT COUNT(A) FROM snap_a WHERE A >= 10 AND A <= 60",
        "SELECT MIN(A) FROM snap_a WHERE time >= 1750 AND time <= 3240 AND A >= 10 AND A <= 60",
        "SELECT MAX(A) FROM snap_a WHERE time >= 1750 AND time <= 3240",
        "SELECT VARIANCE(A) FROM snap_a",
        "SELECT FIRST(A) FROM snap_a WHERE A >= 10 AND A <= 60",
        "SELECT LAST(A) FROM snap_a",
        "SELECT SUM(A) FROM snap_a SW(1600, 300)",
        "SELECT COUNT(A) FROM snap_a WHERE A >= 10 AND A <= 60 SW(1600, 300)",
        "SELECT * FROM snap_a WHERE time >= 1750 AND time <= 3240 AND A >= 10 AND A <= 60",
        "SELECT * FROM snap_a UNION snap_b ORDER BY TIME",
        "SELECT * FROM snap_a, snap_b WHERE snap_a.A > snap_b.A",
        "SELECT snap_a.A + snap_b.A FROM snap_a, snap_b",
        "SELECT DOT(snap_a, snap_b) FROM snap_a, snap_b",
        "SELECT CORR(snap_a, snap_b) FROM snap_a, snap_b",
        // Partial-state surface: bucketed windows, quantile sketches,
        // rate/delta, and cache-eligibility (`[cacheable]`) markings.
        // SW(1000, 640) aligns bucket boundaries with the 64-point pages
        // (dt = 10, pages start at t = 1000), so whole pages land in
        // single buckets: the planner keeps them fused and cacheable.
        // GROUP BY TIME(640) snaps the origin to the epoch instead, so
        // the same width straddles pages across buckets and falls back
        // to the decode path.
        "SELECT P95(A) FROM snap_a",
        "SELECT SUM(A) FROM snap_a SW(1000, 640)",
        "SELECT P50(A) FROM snap_a SW(1000, 640)",
        "SELECT SUM(A) FROM snap_a GROUP BY TIME(640)",
        "SELECT RATE(A) FROM snap_a WHERE time >= 1750 AND time <= 3240",
        "SELECT DELTA(A) FROM snap_a SW(1000, 640)",
        "SELECT P99(A) FROM snap_a WHERE A >= 10 AND A <= 60",
        // Value filters the headers prove: pages 1 and 3 lie inside
        // [-40, 76] and plan as unfiltered pages (no Filter[value]); the
        // other three peak at 79 and keep the filter. `A >= -40` covers
        // every page, so MAX answers from the headers.
        "SELECT SUM(A) FROM snap_a WHERE A >= -40 AND A <= 76",
        "SELECT MAX(A) FROM snap_a WHERE A >= -40",
        // A float series runs the same pipeline, on its ordered keys; its
        // pages are never `[cacheable]` (a memo would hold integer Σ).
        "SELECT SUM(snap_f) FROM snap_f WHERE time >= 1750 SW(1000, 640)",
    ]
}

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/explain.snap")
}

/// Renders the whole battery into one snapshot document.
fn render_battery(db: &IotDb) -> String {
    let mut doc = String::new();
    for sql in battery() {
        doc.push_str("== ");
        doc.push_str(sql);
        doc.push('\n');
        doc.push_str(&db.explain(sql).unwrap());
        doc.push('\n');
    }
    doc
}

#[test]
fn explain_battery_matches_snapshot() {
    let db = fixture();
    let got = render_battery(&db);
    let path = snapshot_path();
    if std::env::var_os("UPDATE_EXPLAIN_SNAPSHOTS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (run with UPDATE_EXPLAIN_SNAPSHOTS=1 to create)",
            path.display()
        )
    });
    assert!(
        got == want,
        "EXPLAIN snapshot drifted (UPDATE_EXPLAIN_SNAPSHOTS=1 to accept).\n--- want\n{want}\n--- got\n{got}"
    );
}

/// `IotDb::query("EXPLAIN …")` must return the same rendering in
/// `QueryResult::explain` (with no rows) as `IotDb::explain`.
#[test]
fn query_statement_carries_explain_text() {
    let db = fixture();
    for sql in battery() {
        let r = db.query(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(r.columns, vec!["plan".to_string()], "{sql}");
        assert!(r.rows.is_empty(), "{sql}");
        assert_eq!(
            r.explain.as_deref(),
            Some(db.explain(sql).unwrap().as_str()),
            "{sql}"
        );
        // Plain execution of the same statement returns rows, not a plan.
        let plain = db.query(sql).unwrap();
        assert!(plain.explain.is_none(), "{sql}");
    }
}

/// The CLI's `EXPLAIN <sql>` verb prints exactly the library rendering
/// for every battery query (same store via a TsFile round-trip, threads
/// pinned through `.config`).
#[test]
fn cli_explain_matches_library() {
    let db = fixture();
    let dir = std::env::temp_dir().join(format!("etsqp_explain_snap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("snap.etsqp");
    etsqp::storage::tsfile::write(db.store(), &file).unwrap();

    let mut script = format!(".config threads {THREADS}\n");
    for sql in battery() {
        script.push_str(&format!("EXPLAIN {sql}\n"));
    }
    script.push_str(".quit\n");

    let mut child = Command::new(env!("CARGO_BIN_EXE_etsqp-cli"))
        .arg(file.to_str().unwrap())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn etsqp-cli");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("cli exit");
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "cli failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout).replace("etsqp> ", "");

    for sql in battery() {
        let want = db.explain(sql).unwrap();
        assert!(
            stdout.contains(&want),
            "CLI EXPLAIN missing for {sql}:\n--- want\n{want}\n--- cli stdout\n{stdout}"
        );
    }
}
