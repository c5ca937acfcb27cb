//! Segment morsels by their counters: a morsel counts its pages in a
//! stats block of its own and adds it to the query's once, and the
//! calling thread counts the pruned pages it discharges the same way;
//! what a query charges must not depend on how its pages were cut. In a
//! binary of its own, because `PartialCache::clear` forgets the memos of
//! the whole process and would turn a concurrent test's hits into misses.

use etsqp_core::expr::{AggFunc, Plan, Predicate};
use etsqp_core::partial::PartialCache;
use etsqp_core::plan::{execute, PipelineConfig};
use etsqp_encoding::Encoding;
use etsqp_storage::store::{SeriesStore, StoreOptions};

const PAGE: usize = 8;
const PAGES: usize = 150;

fn store(segment_pages: usize, codec: Encoding) -> SeriesStore {
    let n = (PAGE * PAGES) as i64;
    let ts: Vec<i64> = (0..n).map(|i| 1_000 + i * 10).collect();
    let vals: Vec<i64> = (0..n)
        .map(|i| (i / (64 * PAGE as i64)) * 1_000 + (i * 37) % 101 - 50)
        .collect();
    let opts = StoreOptions {
        page_points: PAGE,
        ..StoreOptions::default()
    };
    let store = SeriesStore::with_segment_pages(opts, segment_pages);
    store.create_series("s", Encoding::Ts2Diff, codec);
    store.append_all("s", &ts, &vals).unwrap();
    store.flush("s").unwrap();
    store
}

/// What one query charged: pages loaded and pruned, tuples scanned and
/// pruned, memo hits and misses, and the store's pages and bytes read.
type Counts = [u64; 8];

/// Runs the same query history on a fresh store of `segment_pages` at
/// `threads`: each plan cold (after `PartialCache::clear`), then warm.
fn history(segment_pages: usize, codec: Encoding, threads: usize, plans: &[Plan]) -> Vec<Counts> {
    let store = store(segment_pages, codec);
    let cfg = PipelineConfig {
        threads,
        ..Default::default()
    };
    let mut out = Vec::new();
    for (i, plan) in plans.iter().flat_map(|p| [p, p]).enumerate() {
        if i % 2 == 0 {
            PartialCache::global().clear();
        }
        store.io().reset();
        let s = execute(plan, &store, &cfg).unwrap().stats;
        out.push([
            s.pages_loaded,
            s.pages_pruned,
            s.tuples_scanned,
            s.tuples_pruned,
            s.cache_hits,
            s.cache_misses,
            store.io().pages_read(),
            store.io().bytes_read(),
        ]);
    }
    out
}

/// Whole-series and bucketed aggregates, under value filters that cut
/// pages (Stream VByte's cursor prunes suffixes of a cut page, which a
/// morsel counts locally), prune whole segments, or cover them. The
/// counts of every store and thread count are those of S = 1 at one
/// thread; a quantile's only across thread counts, since a warm one at
/// S = 64 reads a whole group's digest where smaller segments fold.
#[test]
fn counters_do_not_depend_on_the_cut() {
    let exact = [AggFunc::Sum, AggFunc::Variance, AggFunc::Min, AggFunc::Last];
    let (mut plans, mut sketch) = (Vec::new(), Vec::new());
    for func in exact.into_iter().chain([AggFunc::P95]) {
        for pred in [
            Predicate::default(),
            Predicate::value(-30, 2_030),
            Predicate::value(-20, 20),
            Predicate::value(-60, 1_060),
        ] {
            plans.push(Plan::scan("s").filter(pred).aggregate(func));
            plans.push(Plan::scan("s").filter(pred).window(1_040, 400, func));
            sketch.extend([func == AggFunc::P95; 2]);
        }
    }
    for codec in [Encoding::StreamVByte, Encoding::Ts2Diff, Encoding::DeltaRle] {
        let want = history(1, codec, 1, &plans);
        assert!(
            want.iter().any(|c| c[3] > 0),
            "{codec:?}: some tuples pruned"
        );
        assert!(want.iter().any(|c| c[4] > 0), "{codec:?}: some memo hits");
        for segment_pages in [1, 7, 64] {
            let here = history(segment_pages, codec, 1, &plans);
            for threads in [2, 8] {
                let got = history(segment_pages, codec, threads, &plans);
                assert_eq!(got, here, "{codec:?} S={segment_pages} threads={threads}");
            }
            for (i, (got, want)) in here.iter().zip(&want).enumerate() {
                let (plan, warm) = (&plans[i / 2], i % 2 == 1);
                if !(sketch[i / 2] && warm) {
                    assert_eq!(
                        got, want,
                        "{codec:?} S={segment_pages} warm={warm}: {plan:?}"
                    );
                }
            }
        }
    }
}
