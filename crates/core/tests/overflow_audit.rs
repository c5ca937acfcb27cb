//! Overflow audit regressions (§VI-C): aggregates over values near the
//! `i64` limits must match the oracle exactly on every fast path.
//!
//! Three historical wrap/crash sites, each now guarded by
//! `spread_fits_i64` (fall back to the exact decode path) or widened:
//!
//! 1. the slice-coefficient chain (since deleted with page slicing)
//!    accumulated `rel: i64` with wrapping adds, so sliced SUM over a
//!    page spanning more than `i64::MAX` was silently wrong; the same
//!    page now runs as one job on a multi-threaded config;
//! 2. the fused TS2DIFF/Delta-RLE closed forms widen *stored* deltas to
//!    `i128`, which is only exact when the deltas did not wrap at encode
//!    time;
//! 3. `sum_ts2diff` unpacked deltas with the 32-bit unpacker, which
//!    *asserts* `width <= 32` — any page with a delta spread above 2³²
//!    panicked the fused path.

use etsqp_core::expr::{AggFunc, Plan};
use etsqp_core::oracle;
use etsqp_core::plan::{execute, PipelineConfig, Value};
use etsqp_encoding::Encoding;
use etsqp_storage::store::SeriesStore;

fn store_with(codec: Encoding, ts: &[i64], vals: &[i64]) -> SeriesStore {
    let store = SeriesStore::new(1024);
    store.create_series("s", Encoding::Ts2Diff, codec);
    store.append_all("s", ts, vals).unwrap();
    store.flush("s").unwrap();
    store
}

fn run(store: &SeriesStore, plan: &Plan, cfg: &PipelineConfig) -> Vec<Vec<Value>> {
    let (ocols, orows) = oracle::execute(plan, store).unwrap();
    let got = execute(plan, store, cfg).unwrap();
    assert_eq!(got.columns, ocols);
    assert_eq!(got.rows, orows, "engine diverged from oracle under {cfg:?}");
    orows
}

/// Four threads, pruning off: one page is one job, whatever the thread
/// count.
fn threaded_cfg() -> PipelineConfig {
    PipelineConfig {
        threads: 4,
        prune: false,
        vectorized: true,
        partial_cache: true,
    }
}

/// Regression 1: SUM over a single page whose value spread exceeds
/// `i64::MAX` (deltas wrapped at encode time), on more threads than
/// pages — the shape that used to slice. The page is one job; the
/// spread guard keeps it off every closed form, and its 64-bit deltas
/// off the cursor, so it decodes exactly.
#[test]
fn one_page_sum_near_i64_extremes_does_not_wrap() {
    let ts: Vec<i64> = (0..64).map(|i| i * 10).collect();
    let vals: Vec<i64> = (0..64)
        .map(|i| {
            if i % 2 == 0 {
                i64::MIN + 7
            } else {
                i64::MAX - 7
            }
        })
        .collect();
    let store = store_with(Encoding::Ts2Diff, &ts, &vals);
    let rows = run(
        &store,
        &Plan::scan("s").aggregate(AggFunc::Sum),
        &threaded_cfg(),
    );
    // 32 pairs of (MIN+7, MAX-7): each pair sums to -1, total -32.
    assert_eq!(rows[0][0], Value::Int(-32));
}

/// Regression 2a: fused whole-page SUM with wrapped TS2DIFF deltas.
#[test]
fn fused_sum_with_wrapped_deltas_matches_oracle() {
    let ts: Vec<i64> = (0..32).map(|i| i * 10).collect();
    let vals: Vec<i64> = (0..32)
        .map(|i| {
            if i % 2 == 0 {
                i64::MIN / 2
            } else {
                i64::MAX / 2
            }
        })
        .collect();
    let store = store_with(Encoding::Ts2Diff, &ts, &vals);
    run(
        &store,
        &Plan::scan("s").aggregate(AggFunc::Sum),
        &threaded_cfg(),
    );
    run(
        &store,
        &Plan::scan("s").window(0, 40, AggFunc::Sum),
        &threaded_cfg(),
    );
}

/// Regression 2b: sums whose *result* exceeds `i64` widen to `Float`
/// (the §VI-C contract) instead of wrapping, on every path.
#[test]
fn sum_exceeding_i64_widens_to_float() {
    let ts: Vec<i64> = (0..8).map(|i| i * 10).collect();
    let vals: Vec<i64> = vec![i64::MAX - 1; 8];
    let store = store_with(Encoding::Ts2Diff, &ts, &vals);
    for cfg in [threaded_cfg(), PipelineConfig::default()] {
        let rows = run(&store, &Plan::scan("s").aggregate(AggFunc::Sum), &cfg);
        match rows[0][0] {
            Value::Float(f) => assert_eq!(f, (i64::MAX - 1) as f64 * 8.0),
            ref other => panic!("expected widened Float, got {other:?}"),
        }
    }
}

/// Regression 3: a TS2DIFF page whose delta spread exceeds 2³² needs the
/// 64-bit unpacker on the fused path (the 32-bit one asserts width ≤ 32).
/// The spread here still fits `i64`, so fusion stays enabled and must be
/// exact.
#[test]
fn fused_sum_with_wide_deltas_uses_64bit_unpack() {
    let ts: Vec<i64> = (0..48).map(|i| i * 10).collect();
    let big = 1i64 << 40; // delta spread ±2⁴⁰ → width ≈ 42 bits
    let vals: Vec<i64> = (0..48).map(|i| if i % 2 == 0 { 0 } else { big }).collect();
    let store = store_with(Encoding::Ts2Diff, &ts, &vals);
    let rows = run(
        &store,
        &Plan::scan("s").aggregate(AggFunc::Sum),
        &threaded_cfg(),
    );
    assert_eq!(rows[0][0], Value::Int(24 * big));
    run(
        &store,
        &Plan::scan("s").window(0, 45, AggFunc::Sum),
        &threaded_cfg(),
    );
}

/// Regression 5: VARIANCE of identical values near `i64::MAX` came out
/// a large *negative* number — Σx² saturates at the `i128` limit, and
/// the E[x²]−mean² finalizer in `f64` then dipped below zero. Population
/// variance is non-negative by definition, so the finalizers clamp.
#[test]
fn variance_near_i64_max_is_never_negative() {
    let ts: Vec<i64> = (0..8).map(|i| i * 10).collect();
    let vals: Vec<i64> = vec![i64::MAX - 1; 8];
    let store = store_with(Encoding::Ts2Diff, &ts, &vals);
    for cfg in [threaded_cfg(), PipelineConfig::default()] {
        let rows = run(&store, &Plan::scan("s").aggregate(AggFunc::Variance), &cfg);
        match rows[0][0] {
            Value::Float(f) => assert!(f >= 0.0, "negative variance {f} under {cfg:?}"),
            ref other => panic!("expected Float variance, got {other:?}"),
        }
    }
}

/// Regression 4: fused Delta-RLE LAST returned the page's *first* value
/// (`aggregate_delta_rle` never advanced `state.last` past the seed).
/// Found by the differential sweep:
/// `spec=Atm codec=DeltaRle query=LAST(all)`.
#[test]
fn fused_delta_rle_last_is_the_final_value() {
    let ts: Vec<i64> = (0..60).map(|i| i * 10).collect();
    let vals: Vec<i64> = (0..60).map(|i| 100 + (i / 5) * 3).collect();
    let store = store_with(Encoding::DeltaRle, &ts, &vals);
    let rows = run(
        &store,
        &Plan::scan("s").aggregate(AggFunc::Last),
        &threaded_cfg(),
    );
    assert_eq!(rows[0][0], Value::Int(*vals.last().unwrap()));
}
