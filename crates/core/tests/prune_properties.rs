//! Property tests for the §V suffix-pruning rules (Propositions 4–5)
//! against *real* encoded pages.
//!
//! The invariant under test: whenever [`prune_rest`] answers `StopRest`
//! at position `k`, no element after `k` matches the filter `[c1, c2]`.
//! Bounds come from the actual page (`DeltaBounds::from_*`), values from
//! the page's own decode — so the test exercises the full statistics
//! pipeline (encode → header widths → bounds → rule), not hand-picked
//! bounds.

use etsqp_core::prune::{prune_rest, DeltaBounds, PruneDecision};
use etsqp_encoding::{delta_rle, ts2diff};
use proptest::prelude::*;

/// Random (Δ, run) sequences materialized into a value vector — the
/// native shape of Delta-RLE.
fn run_length_series() -> impl Strategy<Value = Vec<i64>> {
    (
        -1_000_000i64..1_000_000,
        proptest::collection::vec((-5000i64..5000, 1usize..12), 1..40),
    )
        .prop_map(|(start, pairs)| {
            let mut v = start;
            let mut out = vec![v];
            for (delta, run) in pairs {
                for _ in 0..run {
                    v += delta;
                    out.push(v);
                }
            }
            out
        })
}

/// Filter windows drawn relative to the series' own spread so that the
/// interesting below/inside/above transitions all occur.
fn filter_for(values: &[i64], lo_off: i64, width: i64) -> (i64, i64) {
    let min = *values.iter().min().unwrap();
    let max = *values.iter().max().unwrap();
    let span = (max - min).max(1);
    let c1 = min + lo_off.rem_euclid(span);
    (c1, c1 + width.rem_euclid(span).max(1))
}

/// Simulated scan: consult `prune_rest` at every position; on StopRest,
/// every later element must fail the filter.
fn assert_sound(
    bounds: &DeltaBounds,
    values: &[i64],
    c1: i64,
    c2: i64,
) -> Result<(), TestCaseError> {
    let n = values.len();
    for (k, &v) in values.iter().enumerate() {
        if prune_rest(bounds, v, k, n, c1, c2) == PruneDecision::StopRest {
            for (j, &x) in values.iter().enumerate().skip(k + 1) {
                prop_assert!(
                    x < c1 || x > c2,
                    "StopRest at k={k} (v={v}) pruned match v[{j}]={x} within [{c1}, {c2}] \
                     bounds={bounds:?}"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Proposition 5 soundness on real Delta-RLE pages: the bounds read
    /// from the encoded page never let `prune_rest` cut a true match.
    #[test]
    fn delta_rle_prune_never_cuts_matches(
        values in run_length_series(),
        lo_off in 0i64..2_000_000,
        width in 1i64..2_000_000,
    ) {
        let bytes = delta_rle::encode(&values);
        let page = delta_rle::parse(&bytes).unwrap();
        let decoded = delta_rle::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &values);
        let bounds = DeltaBounds::from_delta_rle(&page);
        // The header-derived bounds must actually bound every delta.
        for w in values.windows(2) {
            let d = w[1] - w[0];
            prop_assert!(d >= bounds.d_min && d <= bounds.d_max,
                "delta {d} outside [{}, {}]", bounds.d_min, bounds.d_max);
        }
        let (c1, c2) = filter_for(&values, lo_off, width);
        assert_sound(&bounds, &values, c1, c2)?;
    }

    /// Proposition 4 soundness on real TS2DIFF pages (`R_M = 1`).
    #[test]
    fn ts2diff_prune_never_cuts_matches(
        values in run_length_series(),
        lo_off in 0i64..2_000_000,
        width in 1i64..2_000_000,
    ) {
        let bytes = ts2diff::encode(&values, 1);
        let page = ts2diff::parse(&bytes).unwrap();
        let bounds = DeltaBounds::from_ts2diff(&page);
        let (c1, c2) = filter_for(&values, lo_off, width);
        assert_sound(&bounds, &values, c1, c2)?;
    }

    /// The monotone shortcut (ordered sequences, Example 2) is likewise
    /// sound: strictly increasing series, filter passed — nothing later
    /// can fit.
    #[test]
    fn monotone_shortcut_sound_on_ordered_series(
        start in 0i64..1_000_000,
        steps in proptest::collection::vec(1i64..1000, 1..200),
        lo_off in 0i64..1_000_000,
        width in 1i64..1_000_000,
    ) {
        let mut v = start;
        let mut values = vec![v];
        for s in steps {
            v += s;
            values.push(v);
        }
        let bytes = ts2diff::encode(&values, 1);
        let page = ts2diff::parse(&bytes).unwrap();
        let bounds = DeltaBounds::from_ts2diff(&page);
        prop_assert!(bounds.d_min >= 0, "ordered series must give non-negative d_min");
        let (c1, c2) = filter_for(&values, lo_off, width);
        assert_sound(&bounds, &values, c1, c2)?;
    }
}

// ---------------------------------------------------------------------
// Prune-verdict validation: corrupted headers must never change answers
// ---------------------------------------------------------------------

mod verdict_validation {
    use super::run_length_series;
    use etsqp_core::expr::{AggFunc, Plan, Predicate};
    use etsqp_core::oracle;
    use etsqp_core::plan::{execute, PipelineConfig};
    use etsqp_encoding::Encoding;
    use etsqp_storage::page::Page;
    use etsqp_storage::store::SeriesStore;
    use proptest::prelude::*;

    fn pruning_cfg() -> PipelineConfig {
        PipelineConfig {
            threads: 1,
            prune: true,
            vectorized: true,
            partial_cache: true,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Propositions 4–5 are *validated*, not trusted: whatever lie a
        /// corrupted header tells (min/max steering the §V verdict,
        /// count/first/last steering layout), the engine must either
        /// reject the page or answer exactly as a full decode would —
        /// never a silently wrong pruned aggregate.
        #[test]
        fn corrupted_header_never_changes_answers(
            values in run_length_series(),
            page_points in 8usize..32,
            field in 0usize..5,
            lie in 1i64..1_000_000,
        ) {
            let store = SeriesStore::new(page_points);
            store.create_series("s", Encoding::Ts2Diff, Encoding::DeltaRle);
            for (i, &v) in values.iter().enumerate() {
                store.append("s", 1000 + i as i64 * 10, v).unwrap();
            }
            store.flush("s").unwrap();

            // A filter band inside the data's spread, so §V verdicts on
            // honest pages land on both sides.
            let (c1, c2) = super::filter_for(&values, 7, 5000);
            let plan = Plan::scan("s")
                .filter(Predicate { time: None, value: Some((c1, c2)) })
                .aggregate(AggFunc::Sum);
            let honest = oracle::execute(&plan, &store).unwrap();

            let n_pages = store.page_count("s").unwrap();
            let target = values.len() % n_pages;
            store
                .corrupt_page("s", target, |p| match field {
                    0 => p.header.min_value = p.header.min_value.wrapping_sub(lie),
                    1 => p.header.max_value = p.header.max_value.wrapping_add(lie),
                    2 => p.header.count = p.header.count.wrapping_add(lie as u32),
                    3 => p.header.first_ts = p.header.first_ts.wrapping_sub(lie),
                    _ => p.header.last_ts = p.header.last_ts.wrapping_add(lie),
                })
                .unwrap();

            match execute(&plan, &store, &pruning_cfg()) {
                Err(_) => {} // rejected: the acceptable outcome
                Ok(got) => prop_assert_eq!(
                    (got.columns, got.rows),
                    honest,
                    "corrupted header changed a pruned answer (field={}, lie={})",
                    field,
                    lie
                ),
            }
        }

        /// A serialized page image with any single bit flipped must be
        /// rejected by `Page::from_bytes` — the checksum trailer covers
        /// header bytes, both payload chunks, and itself.
        #[test]
        fn flipped_image_bit_is_rejected(
            values in run_length_series(),
            flip_pos in 0usize..1_000_000,
            bit in 0u8..8,
        ) {
            let ts: Vec<i64> = (0..values.len() as i64).map(|i| 500 + i * 5).collect();
            let page = Page::encode(&ts, &values, Encoding::Ts2Diff, Encoding::DeltaRle).unwrap();
            let mut image = page.to_bytes();
            let pos = flip_pos % image.len();
            image[pos] ^= 1 << bit;
            prop_assert!(
                Page::from_bytes(&image).is_err(),
                "bit {} of byte {}/{} flipped yet the image was accepted",
                bit, pos, image.len()
            );
        }
    }
}
