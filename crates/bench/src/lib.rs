//! Shared benchmark support: workload construction, the five compared
//! systems of paper §VII-A, and the six benchmark queries of Table III.
//!
//! Every `fig*`/`table*` binary in `src/bin/` and every Criterion bench in
//! `benches/` builds its workloads and runs its measurements through this
//! module, so the harness and the statistical benches measure the same
//! code paths.
//!
//! Scale control: the environment variable `ETSQP_BENCH_ROWS` caps the
//! generated rows per dataset (default 200_000 for binaries; the
//! Criterion benches use smaller fixed sizes).

#![forbid(unsafe_code)]

pub mod cost;

use std::sync::Arc;
use std::time::{Duration, Instant};

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{AggFunc, Plan, Predicate};
use etsqp_core::plan::PipelineConfig;
use etsqp_datasets::{Dataset, Spec};
use etsqp_encoding::Encoding;
use etsqp_fastlanes::FlSeries;
use etsqp_sboost::SboostEngine;

/// The five compared systems of §VII-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The parallel pipeline without pruning rules.
    Etsqp,
    /// ETSQP plus the §V pruning rules.
    EtsqpPrune,
    /// Serial decode-and-aggregate pipeline.
    Serial,
    /// FastLanes FLMM1024 layout baseline.
    FastLanes,
    /// SBoost SIMD decode baseline.
    SBoost,
}

impl System {
    /// All five systems in the paper's legend order.
    pub const ALL: [System; 5] = [
        System::EtsqpPrune,
        System::Etsqp,
        System::Serial,
        System::FastLanes,
        System::SBoost,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            System::Etsqp => "ETSQP",
            System::EtsqpPrune => "ETSQP-prune",
            System::Serial => "Serial",
            System::FastLanes => "FastLanes",
            System::SBoost => "SBoost",
        }
    }
}

/// The six benchmark queries of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `SELECT SUM(A) FROM ts SW(T_min, ΔT)`.
    Q1,
    /// `SELECT AVG(A) FROM ts SW(T_min, ΔT)`.
    Q2,
    /// `SELECT SUM(A) FROM (SELECT * FROM ts WHERE A > a)`.
    Q3,
    /// `SELECT ts1.A + ts2.A FROM ts1, ts2`.
    Q4,
    /// `SELECT * FROM ts1 UNION ts2 ORDER BY TIME`.
    Q5,
    /// `SELECT * FROM ts1, ts2`.
    Q6,
}

impl Query {
    /// All six queries.
    pub const ALL: [Query; 6] = [
        Query::Q1,
        Query::Q2,
        Query::Q3,
        Query::Q4,
        Query::Q5,
        Query::Q6,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Query::Q1 => "Q1",
            Query::Q2 => "Q2",
            Query::Q3 => "Q3",
            Query::Q4 => "Q4",
            Query::Q5 => "Q5",
            Query::Q6 => "Q6",
        }
    }
}

/// A prepared benchmark workload: one dataset column in every system's
/// native representation.
pub struct Workload {
    /// Dataset label.
    pub label: &'static str,
    /// Timestamps (first column's clock).
    pub ts: Vec<i64>,
    /// Primary value column.
    pub vals: Vec<i64>,
    /// Secondary series for two-series queries (Q4–Q6): same clock family
    /// but offset, so joins and unions have realistic overlap.
    pub ts2: Vec<i64>,
    /// Secondary value column.
    pub vals2: Vec<i64>,
    /// ETSQP page store holding both series (`"a"` and `"b"`).
    pub db: IotDb,
    /// FastLanes representation of series a / b.
    pub fl_a: FlSeries,
    /// FastLanes representation of series b.
    pub fl_b: FlSeries,
    /// Default value-filter threshold (median → selectivity 0.5).
    pub value_threshold: i64,
    /// Window width giving ~10³ points per window instance.
    pub window_dt: i64,
    /// Window origin.
    pub t_min: i64,
}

/// Rows per dataset for harness binaries (`ETSQP_BENCH_ROWS` overrides).
pub fn default_rows() -> usize {
    std::env::var("ETSQP_BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000)
}

/// Builds the workload for one Table II dataset.
pub fn build_workload(spec: Spec, rows: usize) -> Workload {
    let d: Dataset = spec.generate(rows);
    let ts = d.timestamps.clone();
    let vals = d.columns[0].1.clone();
    // Secondary series: second column when present, else a shifted copy.
    let (ts2, vals2) = if d.columns.len() > 1 {
        (d.timestamps.clone(), d.columns[1].1.clone())
    } else {
        (d.timestamps.iter().map(|t| t + 1).collect(), vals.clone())
    };

    let db = IotDb::new(EngineOptions::default());
    db.create_series("a").unwrap();
    db.create_series("b").unwrap();
    db.append_all("a", &ts, &vals).unwrap();
    db.append_all("b", &ts2, &vals2).unwrap();
    db.flush().unwrap();

    let fl_a = FlSeries::encode(&ts, &vals);
    let fl_b = FlSeries::encode(&ts2, &vals2);

    let mut sorted = vals.clone();
    sorted.sort_unstable();
    let value_threshold = sorted[sorted.len() / 2];

    let span = ts.last().unwrap() - ts[0];
    let window_dt = (span / (ts.len() as i64 / 1000).max(1)).max(1);

    Workload {
        label: spec.label(),
        ts,
        vals,
        ts2,
        vals2,
        db,
        fl_a,
        fl_b,
        value_threshold,
        window_dt,
        t_min: 0,
    }
    .with_origin()
}

impl Workload {
    fn with_origin(mut self) -> Self {
        self.t_min = self.ts[0];
        self
    }

    /// Number of tuples the workload covers per query run (both series
    /// for the two-series queries).
    pub fn tuples(&self, q: Query) -> u64 {
        match q {
            Query::Q1 | Query::Q2 | Query::Q3 => self.ts.len() as u64,
            _ => (self.ts.len() + self.ts2.len()) as u64,
        }
    }
}

/// Runs one (system, query) pair once, returning a result checksum
/// (guards against dead-code elimination and cross-checks systems).
pub fn run_query(system: System, q: Query, w: &Workload, threads: usize) -> f64 {
    match system {
        System::Etsqp => run_core(w, q, core_cfg(threads, false)),
        System::EtsqpPrune => run_core(w, q, core_cfg(threads, true)),
        System::Serial => {
            let mut cfg = EngineOptions::serial().pipeline;
            cfg.threads = 1;
            run_core(w, q, cfg)
        }
        System::FastLanes => run_fastlanes(w, q, threads),
        System::SBoost => run_sboost(w, q, threads),
    }
}

fn core_cfg(threads: usize, prune: bool) -> PipelineConfig {
    PipelineConfig {
        threads,
        prune,
        ..Default::default()
    }
}

fn run_core(w: &Workload, q: Query, cfg: PipelineConfig) -> f64 {
    let plan = match q {
        Query::Q1 => Plan::scan("a").window(w.t_min, w.window_dt, AggFunc::Sum),
        Query::Q2 => Plan::scan("a").window(w.t_min, w.window_dt, AggFunc::Avg),
        Query::Q3 => Plan::scan("a")
            .filter(Predicate::value(w.value_threshold, i64::MAX))
            .aggregate(AggFunc::Sum),
        Query::Q4 => Plan::JoinExpr {
            left: Box::new(Plan::scan("a")),
            right: Box::new(Plan::scan("b")),
            op: etsqp_core::expr::BinOp::Add,
        },
        Query::Q5 => Plan::Union {
            left: Box::new(Plan::scan("a")),
            right: Box::new(Plan::scan("b")),
        },
        Query::Q6 => Plan::Join {
            left: Box::new(Plan::scan("a")),
            right: Box::new(Plan::scan("b")),
            on: None,
        },
    };
    let r = w.db.execute_with(&plan, &cfg).expect("query");
    match q {
        Query::Q1 | Query::Q2 | Query::Q3 => {
            r.rows.iter().map(|row| row.last().unwrap().as_f64()).sum()
        }
        _ => r.rows.len() as f64,
    }
}

fn run_fastlanes(w: &Workload, q: Query, threads: usize) -> f64 {
    match q {
        Query::Q1 | Query::Q2 => {
            // Window aggregation = one range sum per window instance.
            let mut acc = 0f64;
            let last = *w.ts.last().unwrap();
            let mut lo = w.t_min;
            while lo <= last {
                let hi = lo + w.window_dt - 1;
                let (sum, count) = w.fl_a.sum_in_range(lo, hi, threads).expect("fl");
                if count > 0 {
                    acc += match q {
                        Query::Q1 => sum as f64,
                        _ => sum as f64 / count as f64,
                    };
                }
                lo += w.window_dt;
            }
            acc
        }
        Query::Q3 => {
            // No pruning/fusion: decode everything, filter, sum.
            let (_, vals) = w.fl_a.decode_all().expect("fl");
            let thr = w.value_threshold;
            vals.iter().filter(|&&v| v >= thr).map(|&v| v as f64).sum()
        }
        Query::Q4 | Query::Q6 => {
            let (ta, va) = w.fl_a.decode_all().expect("fl");
            let (tb, vb) = w.fl_b.decode_all().expect("fl");
            merge_join_count(&ta, &va, &tb, &vb) as f64
        }
        Query::Q5 => {
            let (ta, _) = w.fl_a.decode_all().expect("fl");
            let (tb, _) = w.fl_b.decode_all().expect("fl");
            merge_union_count(&ta, &tb) as f64
        }
    }
}

fn run_sboost(w: &Workload, q: Query, threads: usize) -> f64 {
    let engine = SboostEngine::from_store(w.db.store(), "a").expect("sboost");
    match q {
        Query::Q1 | Query::Q2 => {
            let mut acc = 0f64;
            let last = *w.ts.last().unwrap();
            let mut lo = w.t_min;
            while lo <= last {
                let hi = lo + w.window_dt - 1;
                let (sum, count) = engine.sum_in_time_range(lo, hi, threads).expect("sboost");
                if count > 0 {
                    acc += match q {
                        Query::Q1 => sum as f64,
                        _ => sum as f64 / count as f64,
                    };
                }
                lo += w.window_dt;
            }
            acc
        }
        Query::Q3 => {
            // Decode + SIMD filter on values (their headline op), no prune.
            let pages = w.db.store().peek_pages("a").expect("pages");
            let mut total = 0i128;
            for page in pages {
                let mut vals = Vec::new();
                etsqp_sboost::decode_page_values(&page.val_bytes, &mut vals).expect("decode");
                let mut mask = etsqp_simd::filter::new_mask(vals.len().max(1));
                etsqp_simd::filter::range_mask_i64(&vals, w.value_threshold, i64::MAX, &mut mask);
                let (s, _) = etsqp_simd::agg::masked_sum_i64(&vals, &mask);
                total += s;
            }
            total as f64
        }
        Query::Q4 | Query::Q6 => {
            let (ta, va) = sboost_decode_series(w, "a");
            let (tb, vb) = sboost_decode_series(w, "b");
            merge_join_count(&ta, &va, &tb, &vb) as f64
        }
        Query::Q5 => {
            let (ta, _) = sboost_decode_series(w, "a");
            let (tb, _) = sboost_decode_series(w, "b");
            merge_union_count(&ta, &tb) as f64
        }
    }
}

fn sboost_decode_series(w: &Workload, series: &str) -> (Vec<i64>, Vec<i64>) {
    let pages = w.db.store().peek_pages(series).expect("pages");
    let mut ts = Vec::new();
    let mut vals = Vec::new();
    for page in pages {
        let mut t = Vec::new();
        let mut v = Vec::new();
        etsqp_sboost::decode_page_values(&page.ts_bytes, &mut t).expect("decode ts");
        etsqp_sboost::decode_page_values(&page.val_bytes, &mut v).expect("decode vals");
        ts.extend(t);
        vals.extend(v);
    }
    (ts, vals)
}

/// Baselines materialize the same result representation the engine
/// returns (`Vec<Vec<Value>>` rows), so Q4–Q6 compare the full pipeline
/// including result construction — not a count shortcut.
fn merge_join_count(ta: &[i64], va: &[i64], tb: &[i64], vb: &[i64]) -> u64 {
    use etsqp_core::plan::Value;
    let (mut i, mut j) = (0usize, 0usize);
    let mut rows: Vec<Vec<Value>> = Vec::new();
    while i < ta.len() && j < tb.len() {
        match ta[i].cmp(&tb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                rows.push(vec![
                    Value::Int(ta[i]),
                    Value::Int(va[i].wrapping_add(vb[j])),
                ]);
                i += 1;
                j += 1;
            }
        }
    }
    std::hint::black_box(&rows);
    rows.len() as u64
}

fn merge_union_count(ta: &[i64], tb: &[i64]) -> u64 {
    use etsqp_core::plan::Value;
    let (mut i, mut j) = (0usize, 0usize);
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(ta.len() + tb.len());
    while i < ta.len() || j < tb.len() {
        let left = match (ta.get(i), tb.get(j)) {
            (Some(&a), Some(&b)) => a <= b,
            (Some(_), None) => true,
            _ => false,
        };
        if left {
            rows.push(vec![Value::Int(ta[i]), Value::Int(0)]);
            i += 1;
        } else {
            rows.push(vec![Value::Int(tb[j]), Value::Int(0)]);
            j += 1;
        }
    }
    std::hint::black_box(&rows);
    rows.len() as u64
}

/// Times `f` over `iters` runs after one warm-up, returning the median.
pub fn time_median<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let mut samples: Vec<Duration> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// How the Delta accumulation step of [`decode_ts2diff_ablation`] runs —
/// the axis Proposition 1 and Fig. 12 sweep. The engine itself fixes
/// `Chain(8)`, the round its fold kernel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaAccumulation {
    /// Algorithm 1's chain layout with `n_v` layout vectors per round
    /// (one of `etsqp_simd::transpose::SUPPORTED_NV`).
    Chain(usize),
    /// One in-vector inclusive scan per 8 values (SBoost-style).
    StraightScan,
}

/// Algorithm 1 over a whole order-1 TS2DIFF page in five separate steps —
/// unpack, add base, accumulate as `how` says, widen — straight from the
/// `etsqp_simd` kernels, for the `prop1` / `fig12` ablations only. The
/// caller guarantees the page is inside the 32-bit path (width ≤ 32,
/// every `|v − v₀| < 2³¹`).
pub fn decode_ts2diff_ablation(
    page: &etsqp_encoding::ts2diff::Ts2DiffPage<'_>,
    how: DeltaAccumulation,
    out: &mut Vec<i64>,
) {
    use etsqp_simd::{scan, transpose, unpack, LANES32};
    assert_eq!(page.order, 1, "the ablation decodes order-1 pages");
    let n = page.num_deltas();
    let mut rel = vec![0u32; n];
    unpack::unpack_u32(page.payload, 0, page.width, &mut rel);
    let base = page.min_delta as u32;
    rel.iter_mut().for_each(|s| *s = s.wrapping_add(base));
    let mut carry = 0u32;
    let round = match how {
        DeltaAccumulation::Chain(n_v) => n_v * LANES32,
        DeltaAccumulation::StraightScan => LANES32,
    };
    let mut vs = vec![[0u32; LANES32]; round / LANES32];
    let mut rounds = rel.chunks_exact_mut(round);
    for chunk in &mut rounds {
        match how {
            DeltaAccumulation::Chain(_) => {
                transpose::layout_transpose(chunk, &mut vs);
                scan::chain_delta_decode(&mut vs, &mut carry);
                transpose::layout_untranspose(&vs, chunk);
            }
            DeltaAccumulation::StraightScan => {
                vs[0].copy_from_slice(chunk);
                scan::inclusive_scan_v32(&mut vs[0], &mut carry);
                chunk.copy_from_slice(&vs[0]);
            }
        }
    }
    for d in rounds.into_remainder() {
        carry = carry.wrapping_add(*d);
        *d = carry;
    }
    out.clear();
    out.extend(page.first.iter().take(page.count.min(1)));
    out.resize(page.count, 0);
    if n > 0 {
        scan::widen_rel_i64(page.first[0], &rel, &mut out[1..]);
    }
}

/// Fig. 14(a)'s Delta arm on a Delta-RLE page: the Repeat decoder runs
/// (runs flattened into `deltas`, one per value after the first), the
/// Delta decoder does not — `Σv = n·v₀ + Σⱼ (n−j)·δⱼ` weights each delta
/// by the values it reaches instead of prefix-summing them.
pub fn sum_flattened_deltas(
    page: &etsqp_encoding::delta_rle::DeltaRlePage<'_>,
    deltas: &mut Vec<i64>,
) -> i128 {
    deltas.clear();
    for (delta, run) in page.pairs() {
        let room = page.count.saturating_sub(1 + deltas.len());
        deltas.extend(std::iter::repeat_n(delta, room.min(run as usize)));
    }
    let n = page.count as i128;
    let weighted: i128 = (deltas.iter().enumerate())
        .map(|(j, &d)| (n - 1 - j as i128) * d as i128)
        .sum();
    n * page.first as i128 + weighted
}

/// Fig. 14(a)'s pair arm: `Σ Aᵢ·Bᵢ` over two aligned Delta-RLE pages
/// (same timestamps) without decoding — the §IV polynomial
/// `valid·AₙBₙ + Aₙ·Σ(iΔB) + Bₙ·Σ(iΔA) + ΣI²·ΔA·ΔB`, applied per
/// overlapping run fragment. Saturates per fragment, so past the `i128`
/// range it is not the engine's answer, which saturates per pair.
pub fn dot_product_delta_rle(
    a: &etsqp_encoding::delta_rle::DeltaRlePage<'_>,
    b: &etsqp_encoding::delta_rle::DeltaRlePage<'_>,
) -> i128 {
    assert_eq!(a.count, b.count, "dot product needs aligned pages");
    if a.count == 0 {
        return 0;
    }
    let mut total: i128 = a.first as i128 * b.first as i128;
    let mut pa = a.pairs();
    let mut pb = b.pairs();
    let (mut da, mut ra) = pa.next().unwrap_or((0, 0));
    let (mut db, mut rb) = pb.next().unwrap_or((0, 0));
    let mut va = a.first as i128;
    let mut vb = b.first as i128;
    loop {
        if ra == 0 {
            match pa.next() {
                Some((d, r)) => (da, ra) = (d, r),
                None => break,
            }
            continue;
        }
        if rb == 0 {
            match pb.next() {
                Some((d, r)) => (db, rb) = (d, r),
                None => break,
            }
            continue;
        }
        // Aggregate min(ra, rb) tuples in closed form (the paper's
        // `valid ≤ min(RLE₁, RLE₂)` fragmenting).
        let valid = ra.min(rb) as i128;
        let (dai, dbi) = (da as i128, db as i128);
        let tri = valid * (valid + 1) / 2;
        let sq = valid * (valid + 1) * (2 * valid + 1) / 6;
        total = total.saturating_add(
            valid
                .saturating_mul(va)
                .saturating_mul(vb)
                .saturating_add(va.saturating_mul(dbi).saturating_mul(tri))
                .saturating_add(vb.saturating_mul(dai).saturating_mul(tri))
                .saturating_add(dai.saturating_mul(dbi).saturating_mul(sq)),
        );
        va = va.saturating_add(dai.saturating_mul(valid));
        vb = vb.saturating_add(dbi.saturating_mul(valid));
        ra -= valid as u64;
        rb -= valid as u64;
    }
    total
}

/// Phase 1 of Fig. 14(c)'s two-phase slice over an order-1 TS2DIFF page
/// inside the 32-bit path: stored deltas `[lo, hi)`, unpacked a block at
/// a time at their bit offset and folded with carry 0, so every value is
/// relative to the (still unknown) value before the slice. Returns that
/// fold and the slice's total delta, which offsets the next slice.
fn slice_fold(
    page: &etsqp_encoding::ts2diff::Ts2DiffPage<'_>,
    (lo, hi): (usize, usize),
) -> (etsqp_simd::agg::RelFold, u32) {
    use etsqp_simd::agg::{fold_deltas32, DeltaXform, RelFold, FOLD_BLOCK};
    let xform = DeltaXform::AddBase(page.min_delta as u32);
    let (mut acc, mut carry) = (RelFold::new(), 0u32);
    let mut block = [0u32; FOLD_BLOCK];
    for start in (lo..hi).step_by(FOLD_BLOCK) {
        let block = &mut block[..(hi - start).min(FOLD_BLOCK)];
        let bit = start * page.width as usize;
        etsqp_simd::unpack::unpack_u32(page.payload, bit, page.width, block);
        fold_deltas32(
            block,
            xform,
            &mut carry,
            (i32::MIN, i32::MAX),
            false,
            &mut acc,
        );
    }
    (acc, carry)
}

/// Fig. 14(c–d)'s two-phase symbolic slicing of one page's SUM: `parts`
/// `slice_fold` jobs on the engine's pool (none waits for another's
/// prefix sum), then a sequential stitch in which slice `s` starts at
/// `v₀` plus the carries of the slices before it.
pub fn sliced_sum_ts2diff(
    page: &etsqp_encoding::ts2diff::Ts2DiffPage<'_>,
    parts: usize,
    stats: &etsqp_core::exec::ExecStats,
) -> i128 {
    assert!(
        page.order == 1 && page.width <= 32,
        "outside the 32-bit path"
    );
    let n = page.num_deltas();
    let parts = parts.clamp(1, n.max(1));
    let ranges: Vec<(usize, usize)> = (0..parts)
        .map(|p| (p * n / parts, (p + 1) * n / parts))
        .collect();
    let none = etsqp_core::cancel::CancellationToken::none();
    let slices = etsqp_core::exec::run_jobs(ranges, parts, stats, &none, |r| slice_fold(page, r))
        .expect("slice jobs");
    let mut start = page.first[0] as i128;
    let mut sum = if page.count == 0 { 0 } else { start };
    for (acc, carry) in slices {
        sum += acc.count as i128 * start + acc.sum;
        start += carry as i32 as i128;
    }
    sum
}

/// Tuples-per-second throughput from a duration.
pub fn throughput(tuples: u64, d: Duration) -> f64 {
    tuples as f64 / d.as_secs_f64()
}

/// Formats a throughput in M tuples/s.
pub fn fmt_mtps(t: f64) -> String {
    format!("{:8.1}", t / 1e6)
}

/// Builds a store whose value column uses a specific codec (micro-bench
/// substrate for Fig. 12).
pub fn custom_store(ts: &[i64], vals: &[i64], val_enc: Encoding, page_points: usize) -> IotDb {
    let db = IotDb::new(
        EngineOptions::default()
            .with_encodings(Encoding::Ts2Diff, val_enc)
            .with_page_points(page_points),
    );
    db.create_series("a").unwrap();
    db.append_all("a", ts, vals).unwrap();
    db.flush().unwrap();
    db
}

/// Convenience: all six dataset workloads at the harness scale.
pub fn all_workloads(rows: usize) -> Vec<Arc<Workload>> {
    Spec::ALL
        .iter()
        .map(|&s| Arc::new(build_workload(s, rows)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_agree_on_every_query() {
        let w = build_workload(Spec::Atmosphere, 12_000);
        for q in Query::ALL {
            let reference = run_query(System::Serial, q, &w, 1);
            for system in System::ALL {
                let got = run_query(system, q, &w, 2);
                let tol = reference.abs().max(1.0) * 1e-9;
                assert!(
                    (got - reference).abs() <= tol,
                    "{} on {}: {got} vs serial {reference}",
                    system.name(),
                    q.name()
                );
            }
        }
    }

    #[test]
    fn dot_product_matches_naive() {
        use etsqp_encoding::delta_rle;
        let n = 200usize;
        let a_vals: Vec<i64> = (0..n as i64).map(|i| 10 + i / 7).collect();
        let b_vals: Vec<i64> = (0..n as i64).map(|i| 500 - i / 3).collect();
        let pa_bytes = delta_rle::encode(&a_vals);
        let pb_bytes = delta_rle::encode(&b_vals);
        let pa = delta_rle::parse(&pa_bytes).unwrap();
        let pb = delta_rle::parse(&pb_bytes).unwrap();
        let want: i128 = a_vals
            .iter()
            .zip(&b_vals)
            .map(|(&a, &b)| a as i128 * b as i128)
            .sum();
        assert_eq!(dot_product_delta_rle(&pa, &pb), want);
    }

    #[test]
    fn throughput_math() {
        let t = throughput(1_000_000, Duration::from_millis(100));
        assert!((t - 1e7).abs() < 1.0);
    }
}
