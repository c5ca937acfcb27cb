//! Property tests for the binary merge layer: the planner's time
//! partitions (`merge_partitions`, surfaced through the compiled
//! [`RootNode`]) must tile the whole time axis, and partitioned execution
//! (`merge_partitioned`) must agree exactly with the naive oracle
//! for every thread count — including adversarial inputs with duplicate
//! boundary timestamps across the two series and partitions that keep no
//! pages at all.

use etsqp_core::expr::{BinOp, CmpOp, Plan, TimeRange};
use etsqp_core::oracle;
use etsqp_core::physical::node::RootNode;
use etsqp_core::physical::pipe;
use etsqp_core::plan::{execute, PipelineConfig, Value};
use etsqp_encoding::Encoding;
use etsqp_storage::store::SeriesStore;
use proptest::prelude::*;

/// Small pages → many partition cut candidates per case.
const PAGE_POINTS: usize = 16;

#[derive(Debug, Clone)]
struct Pair {
    lt: Vec<i64>,
    lv: Vec<i64>,
    rt: Vec<i64>,
    rv: Vec<i64>,
}

/// Draws two series from one shared, strictly increasing timestamp pool:
/// membership masks decide which points land in which series, so the two
/// sides share many exact timestamps (merge ties, equal page-boundary
/// `first_ts` cuts) while each side stays strictly increasing. Steps mix
/// dense runs with huge jumps so some planner partitions cover no pages.
fn pair_strategy() -> impl Strategy<Value = Pair> {
    (
        proptest::collection::vec(
            (
                prop_oneof![1i64..8, 1_000_000i64..1_000_001],
                -100i64..100,
                0u8..4,
            ),
            1..400,
        ),
        -50i64..50,
    )
        .prop_map(|(steps, v0)| {
            let mut p = Pair {
                lt: Vec::new(),
                lv: Vec::new(),
                rt: Vec::new(),
                rv: Vec::new(),
            };
            let mut t = 1_000_000i64;
            let mut v = v0;
            for (dt, dv, mask) in steps {
                t += dt;
                v += dv;
                // mask: 0 → left only, 1 → right only, 2/3 → both
                // (shared timestamps are the adversarial case, so they
                // get half the probability mass).
                if mask != 1 {
                    p.lt.push(t);
                    p.lv.push(v);
                }
                if mask != 0 {
                    p.rt.push(t);
                    p.rv.push(v.wrapping_mul(3) % 1000);
                }
            }
            p
        })
}

fn store_of(p: &Pair) -> SeriesStore {
    let store = SeriesStore::new(PAGE_POINTS);
    for (name, ts, vals) in [("l", &p.lt, &p.lv), ("r", &p.rt, &p.rv)] {
        store.create_series(name, Encoding::Ts2Diff, Encoding::Ts2Diff);
        store.append_all(name, ts, vals).unwrap();
        store.flush(name).unwrap();
    }
    store
}

fn cfg_with(threads: usize, vectorized: bool) -> PipelineConfig {
    PipelineConfig {
        threads,
        vectorized,
        ..Default::default()
    }
}

fn binary_plans() -> Vec<Plan> {
    vec![
        Plan::Union {
            left: Box::new(Plan::scan("l")),
            right: Box::new(Plan::scan("r")),
        },
        Plan::Join {
            left: Box::new(Plan::scan("l")),
            right: Box::new(Plan::scan("r")),
            on: None,
        },
        Plan::Join {
            left: Box::new(Plan::scan("l")),
            right: Box::new(Plan::scan("r")),
            on: Some(CmpOp::Gt),
        },
        Plan::JoinExpr {
            left: Box::new(Plan::scan("l")),
            right: Box::new(Plan::scan("r")),
            op: BinOp::Add,
        },
    ]
}

/// The planner's partitions must tile `[i64::MIN, i64::MAX]` exactly:
/// first lo is −∞, last hi is +∞, and consecutive ranges are adjacent
/// (disjoint with no gap). Duplicate first-timestamps across the two page
/// lists must collapse into one cut, never a zero-width or inverted range.
fn assert_partition_tiling(partitions: &[TimeRange], threads: usize) {
    assert!(!partitions.is_empty());
    assert!(
        partitions.len() <= (threads * 2).max(1),
        "{} partitions for {threads} threads",
        partitions.len()
    );
    assert_eq!(partitions[0].lo, i64::MIN);
    assert_eq!(partitions.last().unwrap().hi, i64::MAX);
    for w in partitions.windows(2) {
        assert!(w[0].hi < i64::MAX && w[1].lo == w[0].hi + 1, "gap/overlap");
    }
    for r in partitions {
        assert!(r.lo <= r.hi, "inverted partition {r:?}");
    }
}

fn partitions_of(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> Vec<TimeRange> {
    let phys = pipe::compile(plan, store, cfg).unwrap();
    match phys.root {
        RootNode::Union { partitions } | RootNode::Join { partitions, .. } => partitions,
        other => panic!("binary plan compiled to {other:?}"),
    }
}

fn rows_of(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> Vec<Vec<Value>> {
    execute(plan, store, cfg).unwrap().rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 1-thread, N-thread and serial execution all agree with the oracle
    /// on every binary operator, and every compiled partition set tiles
    /// the time axis.
    #[test]
    fn partitioned_binary_merge_agrees_with_oracle(pair in pair_strategy()) {
        let store = store_of(&pair);
        for plan in binary_plans() {
            let (_, want) = oracle::execute(&plan, &store).unwrap();
            for threads in [1usize, 3, 8] {
                let cfg = cfg_with(threads, true);
                assert_partition_tiling(&partitions_of(&plan, &store, &cfg), threads);
                prop_assert_eq!(&rows_of(&plan, &store, &cfg), &want);
            }
            // Byte-serial baseline through the same driver.
            prop_assert_eq!(&rows_of(&plan, &store, &cfg_with(1, false)), &want);
        }
    }
}

/// All points in one dense cluster: most of the planner's partitions keep
/// zero pages, and the stitched result must still be exact.
#[test]
fn empty_partitions_are_harmless() {
    let store = SeriesStore::new(PAGE_POINTS);
    for (name, base) in [("l", 0i64), ("r", 5i64)] {
        store.create_series(name, Encoding::Ts2Diff, Encoding::Ts2Diff);
        for i in 0..40i64 {
            store.append(name, base + i * 10, i).unwrap();
        }
        store.flush(name).unwrap();
    }
    for plan in binary_plans() {
        let (_, want) = oracle::execute(&plan, &store).unwrap();
        for threads in [1usize, 8] {
            let cfg = cfg_with(threads, true);
            assert_partition_tiling(&partitions_of(&plan, &store, &cfg), threads);
            assert_eq!(rows_of(&plan, &store, &cfg), want);
        }
    }
}

/// Identical series: every timestamp is a duplicate boundary timestamp.
/// Union must emit left-then-right for every tie; join matches every row.
#[test]
fn fully_duplicate_timestamps_merge_exactly() {
    let store = SeriesStore::new(PAGE_POINTS);
    let ts: Vec<i64> = (0..100).map(|i| i * 7).collect();
    for (name, mult) in [("l", 1i64), ("r", -2i64)] {
        store.create_series(name, Encoding::Ts2Diff, Encoding::Ts2Diff);
        let vals: Vec<i64> = (0..100).map(|i| i * mult).collect();
        store.append_all(name, &ts, &vals).unwrap();
        store.flush(name).unwrap();
    }
    for plan in binary_plans() {
        let (_, want) = oracle::execute(&plan, &store).unwrap();
        for threads in [1usize, 4] {
            assert_eq!(rows_of(&plan, &store, &cfg_with(threads, true)), want);
        }
    }
}

/// One side holds no pages at all: union degenerates to a scan of the
/// other side, joins to the empty result — at every thread count.
#[test]
fn one_empty_side_degenerates_cleanly() {
    let store = SeriesStore::new(PAGE_POINTS);
    store.create_series("l", Encoding::Ts2Diff, Encoding::Ts2Diff);
    store.create_series("r", Encoding::Ts2Diff, Encoding::Ts2Diff);
    for i in 0..50i64 {
        store.append("l", i * 3, i).unwrap();
    }
    store.flush("l").unwrap();
    for plan in binary_plans() {
        let (_, want) = oracle::execute(&plan, &store).unwrap();
        for threads in [1usize, 4] {
            let cfg = cfg_with(threads, true);
            assert_partition_tiling(&partitions_of(&plan, &store, &cfg), threads);
            assert_eq!(rows_of(&plan, &store, &cfg), want);
        }
    }
}
