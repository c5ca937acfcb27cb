//! Property tests for the partial-state algebra (`etsqp_core::partial`):
//!
//! 1. **merge associativity** — folding a series in one pass, or as any
//!    contiguous chunking merged in time order, yields bit-identical
//!    exact fields (moments, min/max, first/last, timestamp bounds);
//! 2. **empty-partial identity** — merging an empty partial into a
//!    state is a bit-for-bit no-op (and the symmetric merge adopts the
//!    non-empty side's exact fields);
//! 3. **sketch error bound** — the t-digest quantile estimate stays
//!    within [`TDigest::rank_error_bound`] of the exact rank and inside
//!    the `[min, max]` envelope under *any* chunking;
//! 4. **engine agreement** — quantile queries over every codec, with
//!    and without an unflushed hot tail, obey the same rank bound
//!    against a sorted-oracle rank (the end-to-end restatement of 3).

use etsqp_core::engine::{EngineOptions, IotDb};
use etsqp_core::expr::{AggFunc, Plan};
use etsqp_core::partial::{PartialState, TDigest};
use etsqp_core::plan::Value;
use etsqp_encoding::Encoding;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Series {
    ts: Vec<i64>,
    vals: Vec<i64>,
}

fn series_strategy() -> impl Strategy<Value = Series> {
    (
        0i64..1_000_000,
        proptest::collection::vec((1i64..500, -10_000i64..10_000), 1..500),
    )
        .prop_map(|(t0, steps)| {
            let mut ts = Vec::with_capacity(steps.len());
            let mut vals = Vec::with_capacity(steps.len());
            let mut t = t0;
            for (dt, v) in steps {
                t += dt;
                ts.push(t);
                vals.push(v);
            }
            Series { ts, vals }
        })
}

/// Folds `series[range]` into a fresh partial for `func`.
fn fold(func: AggFunc, s: &Series, lo: usize, hi: usize) -> PartialState {
    let mut p = PartialState::new(func);
    for i in lo..hi {
        p.push_tv(s.ts[i], s.vals[i]);
    }
    p
}

/// The exact (non-sketch) fields, for bit-identical comparison.
fn exact_fields(p: &PartialState) -> impl PartialEq + std::fmt::Debug {
    (p.agg, p.first_ts, p.last_ts)
}

/// Every field, floats as their bit patterns, so equality is
/// bit-for-bit: the exact fields plus the digest's count, min/max and
/// centroids in stored order.
fn all_bits(p: &PartialState) -> impl PartialEq + std::fmt::Debug {
    let digest = p.digest.as_ref().map(|d| {
        let centroids: Vec<(u64, u64)> = (d.centroids().iter())
            .map(|c| (c.mean.to_bits(), c.weight))
            .collect();
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        (d.count(), bits(d.min()), bits(d.max()), centroids)
    });
    (exact_fields(p), digest)
}

/// Rank of `est` among `sorted` (values ≤ est), for the error bound.
fn rank_of(sorted: &[i64], est: f64) -> f64 {
    sorted.partition_point(|&v| (v as f64) <= est) as f64
}

fn check_rank(sorted: &[i64], q: f64, est: f64) -> Result<(), TestCaseError> {
    let n = sorted.len();
    prop_assert!(n > 0);
    let bound = TDigest::rank_error_bound(n as u64);
    let want = q * (n as f64);
    let got = rank_of(sorted, est);
    prop_assert!(
        (got - want).abs() <= bound,
        "rank {got} vs target {want} exceeds bound {bound} (n={n}, q={q}, est={est})"
    );
    prop_assert!(
        est >= sorted[0] as f64 && est <= sorted[n - 1] as f64,
        "estimate {est} escaped the value envelope"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chunked merges agree bit-exactly on the exact fields with the
    /// single-pass fold, for every aggregate shape, and the two
    /// three-way groupings ((a⊕b)⊕c and a⊕(b⊕c)) agree with each other.
    #[test]
    fn merge_is_associative_on_exact_fields(
        s in series_strategy(),
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let n = s.ts.len();
        let (mut i, mut j) = (
            (n as f64 * cut_a.min(cut_b)) as usize,
            (n as f64 * cut_a.max(cut_b)) as usize,
        );
        i = i.min(n);
        j = j.clamp(i, n);
        for func in [
            AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max,
            AggFunc::Count, AggFunc::Variance, AggFunc::First, AggFunc::Last,
            AggFunc::Rate, AggFunc::Delta, AggFunc::P50, AggFunc::P95,
        ] {
            let whole = fold(func, &s, 0, n);
            let (a, b, c) = (fold(func, &s, 0, i), fold(func, &s, i, j), fold(func, &s, j, n));

            // (a ⊕ b) ⊕ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);

            prop_assert_eq!(exact_fields(&left), exact_fields(&whole), "{:?} left≠whole", func);
            prop_assert_eq!(exact_fields(&right), exact_fields(&whole), "{:?} right≠whole", func);
        }
    }

    /// The empty partial is a two-sided identity on the exact fields,
    /// and merging it in is a bit-for-bit no-op on every field.
    #[test]
    fn empty_partial_is_identity(s in series_strategy()) {
        for func in [AggFunc::Sum, AggFunc::P95, AggFunc::First, AggFunc::Rate] {
            let full = fold(func, &s, 0, s.ts.len());
            let empty = PartialState::new(func);

            let mut right = full.clone();
            right.merge(&empty);
            prop_assert_eq!(all_bits(&right), all_bits(&full), "{:?}: s⊕∅ ≠ s", func);

            let mut left = empty.clone();
            left.merge(&full);
            prop_assert_eq!(exact_fields(&left), exact_fields(&full), "{:?}: ∅⊕s ≠ s", func);
        }
    }

    /// Quantile estimates from any contiguous chunking stay within the
    /// documented rank error bound of the exact sorted rank.
    #[test]
    fn chunked_digest_stays_within_rank_bound(
        s in series_strategy(),
        chunks in 1usize..8,
    ) {
        let n = s.ts.len();
        let step = n.div_ceil(chunks);
        let mut merged = PartialState::new(AggFunc::P50);
        let mut lo = 0;
        while lo < n {
            let hi = (lo + step).min(n);
            merged.merge(&fold(AggFunc::P50, &s, lo, hi));
            lo = hi;
        }
        let mut sorted = s.vals.clone();
        sorted.sort_unstable();
        let d = merged.digest.as_ref().expect("quantile partial has a digest");
        for q in [0.5, 0.95, 0.99] {
            check_rank(&sorted, q, d.quantile(q))?;
        }
    }

    /// End-to-end: engine quantiles across every integer codec, with and
    /// without an unflushed hot tail, obey the same rank bound.
    #[test]
    fn engine_quantiles_within_bound_across_codecs(
        s in series_strategy(),
        enc_idx in 0usize..3,
        hot in any::<bool>(),
    ) {
        let enc = [Encoding::Ts2Diff, Encoding::DeltaRle, Encoding::StreamVByte][enc_idx];
        let db = IotDb::new(
            EngineOptions::default()
                .with_encodings(Encoding::Ts2Diff, enc)
                .with_page_points(64),
        );
        db.create_series("s").unwrap();
        let n = s.ts.len();
        let sealed = if hot { n - n / 4 } else { n };
        db.append_all("s", &s.ts[..sealed], &s.vals[..sealed]).unwrap();
        db.flush().unwrap();
        if hot {
            db.append_all("s", &s.ts[sealed..], &s.vals[sealed..]).unwrap();
        }
        let mut sorted = s.vals.clone();
        sorted.sort_unstable();
        for (func, q) in [(AggFunc::P50, 0.5), (AggFunc::P95, 0.95), (AggFunc::P99, 0.99)] {
            let r = db.execute(&Plan::scan("s").aggregate(func)).unwrap();
            let Value::Float(est) = r.rows[0][0] else {
                panic!("quantile returned {:?}", r.rows[0][0]);
            };
            check_rank(&sorted, q, est)?;
        }
    }
}
