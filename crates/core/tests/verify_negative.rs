//! Negative tests for the `etsqp-verify` IR verifier: every invariant
//! class of the catalog must reject a hand-mutated plan with a typed
//! [`VerifyError`] naming that invariant. Compiled (unmutated) plans
//! must pass both [`verify`] and [`verify_deep`].

use std::sync::Arc;

use etsqp_core::expr::{AggFunc, Plan, Predicate, TimeRange};
use etsqp_core::physical::node::{PruneVerdict, RootNode, Strategy};
use etsqp_core::physical::pipe::{compile, PhysicalPlan};
use etsqp_core::physical::verify::{verify, verify_deep, verify_explain, Invariant, VerifyResult};
use etsqp_core::plan::PipelineConfig;
use etsqp_encoding::Encoding;
use etsqp_storage::segment::Segment;
use etsqp_storage::store::SeriesStore;

const PAGE_POINTS: usize = 64;
const ROWS: i64 = 256; // four sealed pages

fn store_with(series: &[&str]) -> SeriesStore {
    let store = SeriesStore::new(PAGE_POINTS);
    for s in series {
        store.create_series(s, Encoding::Ts2Diff, Encoding::Ts2Diff);
        let ts: Vec<i64> = (0..ROWS).map(|i| i * 10).collect();
        let vals: Vec<i64> = (0..ROWS).map(|i| 100 + (i % 37)).collect();
        store.append_all(s, &ts, &vals).unwrap();
        store.flush(s).unwrap();
    }
    store
}

fn cfg() -> PipelineConfig {
    PipelineConfig {
        threads: 2,
        ..Default::default()
    }
}

fn expect_invariant(res: VerifyResult, want: Invariant) {
    match res {
        Err(e) => assert_eq!(
            e.invariant, want,
            "expected invariant {want:?}, got: {e} ({:?})",
            e.invariant
        ),
        Ok(()) => panic!("mutated plan passed the verifier (expected {want:?})"),
    }
}

fn sum_plan(series: &str) -> Plan {
    Plan::scan(series).aggregate(AggFunc::Sum)
}

#[test]
fn compiled_plans_pass_verify_and_verify_deep() {
    let store = store_with(&["a", "b"]);
    let cfg = cfg();
    let plans = [
        sum_plan("a"),
        Plan::scan("a")
            .filter(Predicate::time(0, 500))
            .aggregate(AggFunc::Min),
        Plan::scan("a").filter(Predicate::value(100, 110)),
        Plan::Union {
            left: Box::new(Plan::scan("a")),
            right: Box::new(Plan::scan("b")),
        },
        Plan::JoinAggregate {
            left: Box::new(Plan::scan("a")),
            right: Box::new(Plan::scan("b")),
            func: etsqp_core::expr::PairAggFunc::Dot,
        },
    ];
    for plan in &plans {
        let phys = compile(plan, &store, &cfg).unwrap();
        verify(&phys, &cfg).unwrap();
        verify_deep(&phys, &cfg).unwrap();
        verify_explain(&phys, &cfg, &phys.render(&cfg)).unwrap();
    }
}

#[test]
fn plan_shape_rejects_misaligned_decisions() {
    let store = store_with(&["a"]);
    let cfg = cfg();
    let mut phys = compile(&sum_plan("a"), &store, &cfg).unwrap();
    phys.pipelines[0].decisions.pop();
    expect_invariant(verify(&phys, &cfg), Invariant::PlanShape);

    // A decision whose recorded tuple count disagrees with the header.
    let mut phys = compile(&sum_plan("a"), &store, &cfg).unwrap();
    phys.pipelines[0].decisions[0].tuples += 1;
    expect_invariant(verify(&phys, &cfg), Invariant::PlanShape);
}

#[test]
fn prune_soundness_rejects_underived_verdicts() {
    let store = store_with(&["a"]);
    let cfg = cfg();
    // Verdict flipped to pruned where the header says the page overlaps.
    let mut phys = compile(&sum_plan("a"), &store, &cfg).unwrap();
    phys.pipelines[0].decisions[0].verdict = PruneVerdict::PrunedTime;
    phys.pipelines[0].decisions[0].strategy = None;
    phys.pipelines[0].decisions[0].checksum_obligation = true;
    expect_invariant(verify(&phys, &cfg), Invariant::PruneSoundness);
}

#[test]
fn prune_soundness_rejects_missing_checksum_obligation() {
    let store = store_with(&["a"]);
    let cfg = cfg();
    // Time filter covering only the first page: the rest prune.
    let plan = Plan::scan("a")
        .filter(Predicate::time(0, 100))
        .aggregate(AggFunc::Sum);
    let mut phys = compile(&plan, &store, &cfg).unwrap();
    let pruned = phys.pipelines[0]
        .decisions
        .iter()
        .position(|d| !d.verdict.kept())
        .expect("fixture must prune at least one page");
    phys.pipelines[0].decisions[pruned].checksum_obligation = false;
    expect_invariant(verify(&phys, &cfg), Invariant::PruneSoundness);
}

#[test]
fn partition_tiling_rejects_gaps_and_overlaps() {
    let store = store_with(&["a", "b"]);
    let cfg = cfg();
    let union = Plan::Union {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("b")),
    };
    let phys = compile(&union, &store, &cfg).unwrap();
    let RootNode::Union { partitions } = &phys.root else {
        panic!("union plan must compile to a union root");
    };
    assert!(partitions.len() > 1, "fixture needs multiple partitions");

    // Gap: shift the second partition's start forward.
    let mut broken = phys.clone();
    with_partitions(&mut broken, |ps| ps[1].lo += 1);
    expect_invariant(verify(&broken, &cfg), Invariant::PartitionTiling);

    // Incomplete: last partition stops short of +inf.
    let mut broken = phys.clone();
    with_partitions(&mut broken, |ps| {
        let last = ps.len() - 1;
        ps[last].hi -= 1;
    });
    expect_invariant(verify(&broken, &cfg), Invariant::PartitionTiling);

    // Empty tiling.
    let mut broken = phys.clone();
    with_partitions(&mut broken, |ps| ps.clear());
    expect_invariant(verify(&broken, &cfg), Invariant::PartitionTiling);
}

fn with_partitions(phys: &mut PhysicalPlan, f: impl FnOnce(&mut Vec<TimeRange>)) {
    match &mut phys.root {
        RootNode::Union { partitions } | RootNode::Join { partitions, .. } => f(partitions),
        _ => panic!("plan has no partitions"),
    }
}

#[test]
fn fusion_admissibility_rejects_retired_labels() {
    let store = store_with(&["a"]);
    // Every kept page plans decode; none of the four whole-page labels is
    // admitted in its place, on an aggregate or a row scan.
    let cfg = cfg();
    for plan in [
        sum_plan("a"),
        Plan::scan("a").aggregate(AggFunc::Max),
        Plan::scan("a").aggregate(AggFunc::Last),
        Plan::scan("a"),
    ] {
        let phys = compile(&plan, &store, &cfg).unwrap();
        assert!(phys.pipelines[0]
            .decisions
            .iter()
            .all(|d| d.strategy == Some(Strategy::Decode)));
        for retired in [
            Strategy::FusedTs2Diff,
            Strategy::FusedDeltaRle,
            Strategy::FusedSvb,
            Strategy::HeaderMinMax,
        ] {
            let mut phys = phys.clone();
            phys.pipelines[0].decisions[0].strategy = Some(retired);
            expect_invariant(verify(&phys, &cfg), Invariant::FusionAdmissibility);
        }
    }

    // `serial` in a vectorized plan, and `decode` in a byte-serial one.
    let mut phys = compile(&sum_plan("a"), &store, &cfg).unwrap();
    phys.pipelines[0].decisions[0].strategy = Some(Strategy::Serial);
    expect_invariant(verify(&phys, &cfg), Invariant::FusionAdmissibility);
    let serial = PipelineConfig {
        vectorized: false,
        ..cfg
    };
    let mut phys = compile(&sum_plan("a"), &store, &serial).unwrap();
    phys.pipelines[0].decisions[0].strategy = Some(Strategy::Decode);
    expect_invariant(verify(&phys, &serial), Invariant::FusionAdmissibility);
}

#[test]
fn hot_folds_last_rejects_out_of_order_hot_chunks() {
    let store = store_with(&["a"]);
    // Live tail: appended but not flushed.
    for i in 0..10i64 {
        store.append("a", ROWS * 10 + i * 10, 500 + i).unwrap();
    }
    let cfg = cfg();
    let phys = compile(&sum_plan("a"), &store, &cfg).unwrap();
    let hot = phys.pipelines[0]
        .hot
        .clone()
        .expect("fixture has a hot tail");
    verify(&phys, &cfg).unwrap();

    // Hot timestamps rewound before the sealed pages: folding the hot
    // chunk last would corrupt FIRST/LAST.
    let mut broken = phys.clone();
    let rewound: Vec<i64> = hot.ts.iter().map(|t| t - ROWS * 10).collect();
    broken.pipelines[0].hot.as_mut().unwrap().ts = Arc::new(rewound);
    expect_invariant(verify(&broken, &cfg), Invariant::HotFoldsLast);

    // Non-monotone hot timestamps.
    let mut broken = phys.clone();
    let mut shuffled: Vec<i64> = hot.ts.to_vec();
    shuffled.swap(0, 1);
    broken.pipelines[0].hot.as_mut().unwrap().ts = Arc::new(shuffled);
    expect_invariant(verify(&broken, &cfg), Invariant::HotFoldsLast);

    // A binary operator's side carries its hot tail like a unary scan;
    // rewound behind that side's sealed pages, it is rejected too.
    let union = Plan::Union {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("a")),
    };
    let mut broken = compile(&union, &store, &cfg).unwrap();
    verify(&broken, &cfg).unwrap();
    let side = broken.pipelines[1]
        .hot
        .as_mut()
        .expect("union side has the hot tail");
    side.ts = Arc::new(side.ts.iter().map(|t| t - ROWS * 10).collect());
    expect_invariant(verify(&broken, &cfg), Invariant::HotFoldsLast);
}

#[test]
fn explain_round_trip_rejects_tampered_text() {
    let store = store_with(&["a", "b"]);
    let cfg = cfg();
    let phys = compile(&sum_plan("a"), &store, &cfg).unwrap();
    let rendered = phys.render(&cfg);
    verify_explain(&phys, &cfg, &rendered).unwrap();

    // Any textual drift from the plan is a rejection.
    let tampered = rendered.replace("SUM", "MAX");
    expect_invariant(
        verify_explain(&phys, &cfg, &tampered),
        Invariant::ExplainRoundTrip,
    );

    // Text from a structurally different plan (partition lines present).
    let union = Plan::Union {
        left: Box::new(Plan::scan("a")),
        right: Box::new(Plan::scan("b")),
    };
    let other = compile(&union, &store, &cfg).unwrap();
    expect_invariant(
        verify_explain(&phys, &cfg, &other.render(&cfg)),
        Invariant::ExplainRoundTrip,
    );
}

#[test]
fn bucket_tiling_rejects_degenerate_widths() {
    let store = store_with(&["a"]);
    let cfg = cfg();
    // dt = 640 page-aligns the 64-point pages (ts step 10, t_min 0).
    let plan = Plan::scan("a").window(0, 640, AggFunc::Sum);
    let phys = compile(&plan, &store, &cfg).unwrap();
    verify(&phys, &cfg).unwrap();

    // Zero bucket width: window arithmetic would divide by zero.
    let mut broken = phys.clone();
    let RootNode::Aggregate {
        window: Some(w), ..
    } = &mut broken.root
    else {
        panic!("windowed plan must compile to a windowed aggregate root");
    };
    w.dt = 0;
    expect_invariant(verify(&broken, &cfg), Invariant::BucketTiling);
}

#[test]
fn cache_obligation_rejects_value_filtered_pages() {
    let store = store_with(&["a"]);
    let cfg = cfg();
    // A value filter the header does not prove means a page's whole-page
    // partial is not its exact contribution, so no decision may be
    // marked cacheable.
    let plan = Plan::scan("a")
        .filter(Predicate::value(100, 110))
        .aggregate(AggFunc::Sum);
    let mut phys = compile(&plan, &store, &cfg).unwrap();
    assert!(
        phys.pipelines[0].decisions.iter().all(|d| !d.cacheable),
        "value-filtered pages must not plan cacheable"
    );
    let kept = phys.pipelines[0]
        .decisions
        .iter()
        .position(|d| d.verdict.kept())
        .expect("fixture keeps at least one page");
    phys.pipelines[0].decisions[kept].cacheable = true;
    expect_invariant(verify(&phys, &cfg), Invariant::CacheObligation);
}

/// Every fixture page holds 100 ..= 136. `[100, 136]` covers each one, so
/// the header's MIN/MAX and memo answer the filtered query and the
/// planner says so (`[cacheable]`); `[100, 130]` only partly covers them,
/// and a `[cacheable]` decision there is rejected.
#[test]
fn value_filter_coverage_is_re_derived_from_the_header() {
    let store = store_with(&["a"]);
    let cfg = cfg();
    let max_under = |lo, hi| {
        Plan::scan("a")
            .filter(Predicate::value(lo, hi))
            .aggregate(AggFunc::Max)
    };
    let covered = compile(&max_under(100, 136), &store, &cfg).unwrap();
    verify(&covered, &cfg).unwrap();
    assert!(
        covered.pipelines[0]
            .decisions
            .iter()
            .all(|d| d.cacheable && d.strategy == Some(Strategy::Decode)),
        "covered pages plan as unfiltered ones"
    );

    let partly = compile(&max_under(100, 130), &store, &cfg).unwrap();
    verify(&partly, &cfg).unwrap();
    let d = &partly.pipelines[0].decisions[1];
    assert!(!d.cacheable && d.strategy == Some(Strategy::Decode));
    let mut cacheable = partly.clone();
    cacheable.pipelines[0].decisions[1].cacheable = true;
    expect_invariant(verify(&cacheable, &cfg), Invariant::CacheObligation);

    // With pruning off the header proves no value conjunct either.
    let unpruned = PipelineConfig {
        prune: false,
        ..cfg
    };
    let mut phys = compile(&max_under(100, 136), &store, &unpruned).unwrap();
    assert!(phys.pipelines[0].decisions.iter().all(|d| !d.cacheable));
    phys.pipelines[0].decisions[0].cacheable = true;
    expect_invariant(verify(&phys, &unpruned), Invariant::CacheObligation);
}

#[test]
fn partial_merge_order_rejects_out_of_order_pages() {
    let store = store_with(&["a"]);
    let cfg = cfg();
    let mut phys = compile(&sum_plan("a"), &store, &cfg).unwrap();
    // Swap the first two pages (and their decisions, repairing the
    // per-index bookkeeping so PlanShape still holds): the sequential
    // partial merge would now fold page 1's span before page 0's.
    let p = &mut phys.pipelines[0];
    let mut pages = p.segments[0].pages().to_vec();
    pages.swap(0, 1);
    p.segments[0] = Arc::new(Segment::new(pages));
    p.decisions.swap(0, 1);
    let counts: Vec<u64> = p.pages().map(|pg| pg.header.count as u64).collect();
    for (i, d) in p.decisions.iter_mut().enumerate() {
        d.index = i;
        d.tuples = counts[i];
    }
    expect_invariant(verify(&phys, &cfg), Invariant::PartialMergeOrder);
}

#[test]
fn driver_refuses_plans_without_checksum_obligations() {
    // End-to-end: the executor itself rejects a tampered plan whose
    // pruned page lost its obligation (defense in depth behind the
    // compile-time verifier hook).
    let store = store_with(&["a"]);
    let cfg = cfg();
    let plan = Plan::scan("a")
        .filter(Predicate::time(0, 100))
        .aggregate(AggFunc::Sum);
    let phys = compile(&plan, &store, &cfg).unwrap();
    assert!(
        phys.pipelines[0]
            .decisions
            .iter()
            .any(|d| !d.verdict.kept()),
        "fixture must prune"
    );
    // The normal path executes fine.
    let r = etsqp_core::plan::execute(&plan, &store, &cfg).unwrap();
    assert_eq!(r.rows.len(), 1);
}
