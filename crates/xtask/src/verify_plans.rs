//! `cargo run -p xtask -- verify-plans`: exhaustive `etsqp-verify` sweep.
//!
//! Two passes, both gating in `scripts/ci.sh`:
//!
//! 1. **Enumeration** — compiles the 21-query differential battery over
//!    every Table II dataset × value codec cell (plus the timestamp-codec,
//!    hot+sealed and float-codec cells) under the full pipeline-config
//!    cross, and runs
//!    each compiled [`PhysicalPlan`] through
//!    [`verify_deep`](etsqp_core::physical::verify::verify_deep) (which
//!    also discharges every checksum obligation) and
//!    [`verify_explain`](etsqp_core::physical::verify::verify_explain).
//!    The planner must produce zero violations across the whole space.
//!
//! 2. **Mutation** — hand-corrupts compiled plans, one corruption per
//!    invariant class of the catalog (DESIGN.md §13), and asserts the
//!    verifier rejects each with a typed error naming *that* invariant.
//!    A verifier that accepts a corrupted plan — or rejects it for the
//!    wrong reason — fails the build.

use etsqp_core::expr::{AggFunc, BinOp, CmpOp, PairAggFunc, Plan, Predicate, TimeRange};
use etsqp_core::float::FloatRange;
use etsqp_core::physical::node::{PruneVerdict, RootNode, SegmentVerdict, Strategy};
use etsqp_core::physical::pipe;
use etsqp_core::physical::verify::{verify, verify_deep, verify_explain, Invariant, VerifyResult};
use etsqp_core::plan::PipelineConfig;
use etsqp_datasets::Spec;
use etsqp_encoding::Encoding;
use etsqp_storage::page::Page;
use etsqp_storage::segment::Segment;
use etsqp_storage::store::{SeriesStore, StoreOptions};
use std::sync::Arc;

const ROWS: usize = 256;
const PAGE_POINTS: usize = 64;

/// Integer codecs usable for the value column (mirrors the differential
/// suite's cell grid so the verifier sees every plan the tests see).
const VAL_CODECS: [Encoding; 9] = [
    Encoding::Plain,
    Encoding::Ts2Diff,
    Encoding::Ts2DiffOrder2,
    Encoding::Rle,
    Encoding::DeltaRle,
    Encoding::Sprintz,
    Encoding::Rlbe,
    Encoding::Gorilla,
    Encoding::StreamVByte,
];

/// Timestamp codecs for the dedicated ts-codec cells.
const TS_CODECS: [Encoding; 6] = [
    Encoding::Plain,
    Encoding::Ts2Diff,
    Encoding::Ts2DiffOrder2,
    Encoding::DeltaRle,
    Encoding::Gorilla,
    Encoding::StreamVByte,
];

/// The full ablation cross: vectorized/serial × prune × threads ×
/// partial cache (24 configs).
fn all_configs() -> Vec<PipelineConfig> {
    let mut out = Vec::new();
    for vectorized in [true, false] {
        for prune in [true, false] {
            for threads in [1usize, 4, 8] {
                for partial_cache in [true, false] {
                    out.push(PipelineConfig {
                        threads,
                        prune,
                        vectorized,
                        partial_cache,
                    });
                }
            }
        }
    }
    out
}

/// Corner configs under which the *complete* battery runs in every cell.
fn canonical_configs() -> Vec<PipelineConfig> {
    let base = PipelineConfig {
        threads: 1,
        prune: false,
        vectorized: false,
        partial_cache: true,
    };
    vec![
        base,
        PipelineConfig {
            vectorized: true,
            prune: true,
            threads: 4,
            ..base
        },
        PipelineConfig {
            vectorized: true,
            prune: true,
            threads: 8,
            ..base
        },
        PipelineConfig {
            vectorized: false,
            threads: 4,
            prune: true,
            ..base
        },
    ]
}

fn cfg_label(cfg: &PipelineConfig) -> String {
    format!(
        "vec={} prune={} threads={} cache={}",
        cfg.vectorized, cfg.prune, cfg.threads, cfg.partial_cache
    )
}

/// Pages per segment in the cells: the four sealed pages of a series
/// make a full segment and a short one, so the verdicts over a segment's
/// union (pruned, covered, mixed) all meet the checks.
const CELL_SEGMENT_PAGES: usize = 3;

/// Builds the store for one (spec × value codec × ts codec) cell and the
/// 21-query battery derived from the generated data's actual ranges —
/// the differential oracle suite's battery plus a value filter covering
/// every page.
fn cell(
    spec: Spec,
    val_codec: Encoding,
    ts_codec: Encoding,
    hot_tail: bool,
) -> (SeriesStore, Vec<(String, Plan)>) {
    let data = spec.generate(ROWS);
    let store = SeriesStore::with_segment_pages(
        StoreOptions {
            page_points: PAGE_POINTS,
            ..StoreOptions::default()
        },
        CELL_SEGMENT_PAGES,
    );
    let a = format!("{}_a", spec.label());
    let b = format!("{}_b", spec.label());
    for (name, col_idx) in [(&a, 0usize), (&b, 1usize)] {
        store.create_series(name, ts_codec, val_codec);
        store
            .append_all(name, &data.timestamps, &data.columns[col_idx].1)
            .unwrap();
        store.flush(name).unwrap();
    }
    if hot_tail {
        // Unsealed live rows past the sealed range: plans gain a
        // `SourceHot` pipeline source in every query below.
        let tn = *data.timestamps.last().unwrap();
        for name in [&a, &b] {
            for i in 0..40i64 {
                let v = (i * 1003) % 757 - 378 + ((i % 3) << 16);
                store.append(name, tn + (i + 1) * 7, v).unwrap();
            }
        }
    }

    let t0 = *data.timestamps.first().unwrap();
    let tn = *data.timestamps.last().unwrap();
    let span = (tn - t0).max(1);
    let col = &data.columns[0].1;
    let (vmin, vmax) = col
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let vspan = (vmax - vmin).max(1);
    let t_mid = Predicate {
        time: Some(TimeRange {
            lo: t0 + span / 4,
            hi: tn - span / 4,
        }),
        value: None,
    };
    let v_band = Predicate {
        time: None,
        value: Some((vmin + vspan / 5, vmax - vspan / 5)),
    };
    let both = t_mid.and(&v_band);
    let w_min = t0 + span / 5;
    let w_dt = (span / 9).max(1);

    let scan_a = || Plan::scan(&a);
    let scan_b = || Plan::scan(&b);
    let queries: Vec<(String, Plan)> = vec![
        ("SUM(all)".into(), scan_a().aggregate(AggFunc::Sum)),
        (
            "AVG(time)".into(),
            scan_a().filter(t_mid).aggregate(AggFunc::Avg),
        ),
        (
            "COUNT(value)".into(),
            scan_a().filter(v_band).aggregate(AggFunc::Count),
        ),
        (
            "MIN(both)".into(),
            scan_a().filter(both).aggregate(AggFunc::Min),
        ),
        (
            "MAX(time)".into(),
            scan_a().filter(t_mid).aggregate(AggFunc::Max),
        ),
        (
            "VARIANCE(all)".into(),
            scan_a().aggregate(AggFunc::Variance),
        ),
        (
            "FIRST(value)".into(),
            scan_a().filter(v_band).aggregate(AggFunc::First),
        ),
        ("LAST(all)".into(), scan_a().aggregate(AggFunc::Last)),
        ("WSUM".into(), scan_a().window(w_min, w_dt, AggFunc::Sum)),
        (
            "WCOUNT(value)".into(),
            scan_a().filter(v_band).window(w_min, w_dt, AggFunc::Count),
        ),
        ("P95(all)".into(), scan_a().aggregate(AggFunc::P95)),
        // Every page inside the filter: the headers prove it, so the
        // pages plan as unfiltered ones (`[cacheable]`, MAX from the
        // header).
        (
            "MAX(vcover)".into(),
            scan_a()
                .filter(Predicate::value(vmin, vmax))
                .aggregate(AggFunc::Max),
        ),
        ("WP50".into(), scan_a().window(w_min, w_dt, AggFunc::P50)),
        (
            "WRATE(time)".into(),
            scan_a().filter(t_mid).window(w_min, w_dt, AggFunc::Rate),
        ),
        (
            "DELTA(time)".into(),
            scan_a().filter(t_mid).aggregate(AggFunc::Delta),
        ),
        ("SCAN(both)".into(), scan_a().filter(both)),
        (
            "UNION".into(),
            Plan::Union {
                left: Box::new(scan_a().filter(t_mid)),
                right: Box::new(scan_b()),
            },
        ),
        (
            "JOIN(on>)".into(),
            Plan::Join {
                left: Box::new(scan_a()),
                right: Box::new(scan_b()),
                on: Some(CmpOp::Gt),
            },
        ),
        (
            "JOINEXPR(+)".into(),
            Plan::JoinExpr {
                left: Box::new(scan_a()),
                right: Box::new(scan_b()),
                op: BinOp::Add,
            },
        ),
        (
            "JOINAGG(dot)".into(),
            Plan::JoinAggregate {
                left: Box::new(scan_a()),
                right: Box::new(scan_b()),
                func: PairAggFunc::Dot,
            },
        ),
        (
            "JOINAGG(corr)".into(),
            Plan::JoinAggregate {
                left: Box::new(scan_a().filter(t_mid)),
                right: Box::new(scan_b()),
                func: PairAggFunc::Correlation,
            },
        ),
    ];
    (store, queries)
}

/// A float cell: one series under a float codec, sealed or with a hot
/// tail, and the unary queries of the battery (a binary operator refuses
/// a float side), their value conjuncts `FloatRange` key ranges.
fn float_cell(codec: Encoding, hot_tail: bool) -> (SeriesStore, Vec<(String, Plan)>) {
    let store = SeriesStore::new(PAGE_POINTS);
    store.create_series_f64("f", Encoding::Ts2Diff, codec);
    let n = ROWS as i64 + if hot_tail { 40 } else { 0 };
    for i in 0..n {
        let v = (i as f64 * 0.37).sin() * 40.0 + (i % 7) as f64 * 0.1;
        store.append_f64("f", i * 10, v).unwrap();
        if i + 1 == ROWS as i64 {
            store.flush("f").unwrap();
        }
    }
    let t_mid = Predicate::time(ROWS as i64 * 10 / 4, ROWS as i64 * 30 / 4);
    let v_band = FloatRange {
        lo: -20.0,
        hi: 20.0,
    }
    .predicate();
    let cover = FloatRange {
        lo: -50.0,
        hi: 50.0,
    }
    .predicate();
    let (w_min, w_dt) = (ROWS as i64 * 2, ROWS as i64);
    let scan = || Plan::scan("f");
    let queries: Vec<(String, Plan)> = vec![
        ("SUM(all)".into(), scan().aggregate(AggFunc::Sum)),
        (
            "AVG(time)".into(),
            scan().filter(t_mid).aggregate(AggFunc::Avg),
        ),
        (
            "COUNT(value)".into(),
            scan().filter(v_band).aggregate(AggFunc::Count),
        ),
        (
            "MIN(both)".into(),
            scan().filter(t_mid.and(&v_band)).aggregate(AggFunc::Min),
        ),
        (
            "MAX(vcover)".into(),
            scan().filter(cover).aggregate(AggFunc::Max),
        ),
        ("VARIANCE(all)".into(), scan().aggregate(AggFunc::Variance)),
        ("LAST(all)".into(), scan().aggregate(AggFunc::Last)),
        ("WSUM".into(), scan().window(w_min, w_dt, AggFunc::Sum)),
        ("P95(all)".into(), scan().aggregate(AggFunc::P95)),
        (
            "WRATE(time)".into(),
            scan().filter(t_mid).window(w_min, w_dt, AggFunc::Rate),
        ),
        ("SCAN(both)".into(), scan().filter(t_mid.and(&v_band))),
    ];
    (store, queries)
}

/// Compile + deep-verify + EXPLAIN-round-trip one plan under one config.
fn check_one(store: &SeriesStore, plan: &Plan, cfg: &PipelineConfig) -> Result<(), String> {
    let phys = pipe::compile(plan, store, cfg).map_err(|e| format!("compile: {e}"))?;
    verify_deep(&phys, cfg).map_err(|e| e.to_string())?;
    let rendered = phys.render(cfg);
    verify_explain(&phys, cfg, &rendered).map_err(|e| e.to_string())?;
    Ok(())
}

/// Sweep outcome, surfaced by `main.rs` as the process exit code.
pub struct Report {
    /// Plans compiled and verified in the enumeration pass.
    pub plans: usize,
    /// (spec × codec) cells enumerated.
    pub cells: usize,
    /// Enumeration-pass violations (must be zero).
    pub violations: usize,
    /// Corrupted plans correctly rejected with the expected invariant.
    pub mutations_rejected: usize,
    /// Corrupted plans accepted, or rejected under the wrong invariant.
    pub mutation_escapes: usize,
}

impl Report {
    /// Whether the sweep gates CI green.
    pub fn ok(&self) -> bool {
        self.violations == 0 && self.mutation_escapes == 0
    }
}

/// Runs both passes; see the module docs.
pub fn run() -> Report {
    let mut report = Report {
        plans: 0,
        cells: 0,
        violations: 0,
        mutations_rejected: 0,
        mutation_escapes: 0,
    };
    let canon = canonical_configs();
    let cross = all_configs();

    let sweep = |spec: Spec,
                 val_codec: Encoding,
                 ts_codec: Encoding,
                 hot: bool,
                 full_cross: bool,
                 report: &mut Report| {
        let (store, queries) = cell(spec, val_codec, ts_codec, hot);
        report.cells += 1;
        let mut run_case = |qname: &str, plan: &Plan, cfg: &PipelineConfig| {
            report.plans += 1;
            if let Err(e) = check_one(&store, plan, cfg) {
                report.violations += 1;
                eprintln!(
                    "verify-plans: VIOLATION spec={} val={:?} ts={:?} hot={hot} cfg=[{}] \
                     query={qname}: {e}",
                    spec.label(),
                    val_codec,
                    ts_codec,
                    cfg_label(cfg),
                );
            }
        };
        // The complete battery under the canonical corner configs.
        for (qname, plan) in &queries {
            for cfg in &canon {
                run_case(qname, plan, cfg);
            }
        }
        // The full 24-config ablation cross, rotating deterministically
        // through the battery (every config sees several query shapes;
        // across cells every (query × config) pair is covered).
        if full_cross {
            for (ci, cfg) in cross.iter().enumerate() {
                let (qname, plan) = &queries[(ci + report.cells) % queries.len()];
                run_case(qname, plan, cfg);
            }
        }
    };

    // Every Table II dataset × every value codec.
    for spec in Spec::ALL {
        for val_codec in VAL_CODECS {
            sweep(spec, val_codec, Encoding::Ts2Diff, false, true, &mut report);
        }
    }
    // Timestamp-codec cells (the time column drives filters and windows).
    for spec in [Spec::Atmosphere, Spec::Timestamp, Spec::Tpch] {
        for ts_codec in TS_CODECS {
            sweep(spec, Encoding::Ts2Diff, ts_codec, false, false, &mut report);
        }
    }
    // Hot+sealed cells: every plan gains a `SourceHot` source, exercising
    // the hot-folds-last invariant on real compiled plans.
    for spec in [Spec::Atmosphere, Spec::Timestamp] {
        for codec in [Encoding::Ts2Diff, Encoding::StreamVByte] {
            sweep(spec, codec, codec, true, false, &mut report);
        }
    }

    // Float cells under the full cross: their pages are never
    // `[cacheable]`, whatever the configuration.
    for codec in [Encoding::GorillaFloat, Encoding::Chimp, Encoding::Elf] {
        for hot in [false, true] {
            let (store, queries) = float_cell(codec, hot);
            report.cells += 1;
            for (qname, plan) in &queries {
                for cfg in &cross {
                    report.plans += 1;
                    if let Err(e) = check_one(&store, plan, cfg) {
                        report.violations += 1;
                        eprintln!(
                            "verify-plans: VIOLATION float val={codec:?} hot={hot} cfg=[{}] \
                             query={qname}: {e}",
                            cfg_label(cfg),
                        );
                    }
                }
            }
        }
    }

    mutation_pass(&mut report);
    report
}

// ---------------------------------------------------------------------
// Mutation pass: one corruption per invariant class must be rejected.
// ---------------------------------------------------------------------

fn expect(name: &str, want: Invariant, res: VerifyResult, report: &mut Report) {
    match res {
        Err(e) if e.invariant == want => report.mutations_rejected += 1,
        Err(e) => {
            report.mutation_escapes += 1;
            eprintln!(
                "verify-plans: MUTATION {name}: rejected under the wrong invariant \
                 (expected {}, got: {e})",
                want.name()
            );
        }
        Ok(()) => {
            report.mutation_escapes += 1;
            eprintln!(
                "verify-plans: MUTATION {name}: corrupted plan accepted \
                 (expected rejection under {})",
                want.name()
            );
        }
    }
}

/// A deterministic fixture store: sealed series `m`/`n`, a series `h`
/// with a live hot tail, a series `d` whose page 2 is corrupted after
/// sealing (its checksum no longer matches), and a sealed float series
/// `fl`.
fn mutation_store() -> SeriesStore {
    let store = SeriesStore::new(PAGE_POINTS);
    let ts: Vec<i64> = (0..ROWS as i64).map(|i| i * 10).collect();
    let vals: Vec<i64> = (0..ROWS as i64).map(|i| 100 + (i % 37)).collect();
    for s in ["m", "n", "h", "d"] {
        store.create_series(s, Encoding::Ts2Diff, Encoding::Ts2Diff);
        store.append_all(s, &ts, &vals).unwrap();
        store.flush(s).unwrap();
    }
    for i in 0..10i64 {
        store
            .append("h", ROWS as i64 * 10 + i * 10, 500 + i)
            .unwrap();
    }
    store.create_series_f64("fl", Encoding::Ts2Diff, Encoding::Chimp);
    for (&t, &v) in ts.iter().zip(&vals) {
        store.append_f64("fl", t, v as f64 / 8.0).unwrap();
    }
    store.flush("fl").unwrap();
    store
        .corrupt_page("d", 2, |p| {
            let mut v = p.val_bytes.to_vec();
            v[0] ^= 0x40;
            p.val_bytes = etsqp_storage::Bytes::from(v);
        })
        .unwrap();
    store
}

fn mutation_pass(report: &mut Report) {
    let store = mutation_store();
    let cfg = PipelineConfig {
        threads: 2,
        ..Default::default()
    };
    let sum_m = Plan::scan("m").aggregate(AggFunc::Sum);

    // plan-shape: a decision list shorter than the page list.
    let mut phys = pipe::compile(&sum_m, &store, &cfg).unwrap();
    phys.pipelines[0].decisions.pop();
    expect(
        "plan-shape/decision-dropped",
        Invariant::PlanShape,
        verify(&phys, &cfg),
        report,
    );

    // prune-soundness: a verdict that does not re-derive from the header.
    let mut phys = pipe::compile(&sum_m, &store, &cfg).unwrap();
    phys.pipelines[0].decisions[0].verdict = PruneVerdict::PrunedTime;
    phys.pipelines[0].decisions[0].strategy = None;
    phys.pipelines[0].decisions[0].checksum_obligation = true;
    expect(
        "prune-soundness/verdict-flipped",
        Invariant::PruneSoundness,
        verify(&phys, &cfg),
        report,
    );

    // prune-soundness: a pruned page stripped of its checksum obligation.
    let pruning = Plan::scan("m")
        .filter(Predicate::time(0, 100))
        .aggregate(AggFunc::Sum);
    let mut phys = pipe::compile(&pruning, &store, &cfg).unwrap();
    if let Some(d) = phys.pipelines[0]
        .decisions
        .iter_mut()
        .find(|d| !d.verdict.kept())
    {
        d.checksum_obligation = false;
    }
    expect(
        "prune-soundness/obligation-stripped",
        Invariant::PruneSoundness,
        verify(&phys, &cfg),
        report,
    );

    // prune-soundness: a segment the time filter cuts claims covered —
    // its first page straddles the filter's end and the rest are pruned,
    // so whole-segment answers would count tuples outside the filter.
    let mut phys = pipe::compile(&pruning, &store, &cfg).unwrap();
    let segment = &mut phys.pipelines[0].segment_decisions[0];
    assert_eq!(
        segment.verdict,
        SegmentVerdict::Mixed,
        "fixture cuts its segment"
    );
    segment.verdict = SegmentVerdict::Covered;
    expect(
        "prune-soundness/segment-covered-over-a-straddling-page",
        Invariant::PruneSoundness,
        verify(&phys, &cfg),
        report,
    );

    // prune-soundness (deep): a pruned page whose stored bytes were
    // corrupted after sealing — only the obligation discharge catches it.
    let pruning_d = Plan::scan("d")
        .filter(Predicate::time(0, 100))
        .aggregate(AggFunc::Sum);
    let phys = pipe::compile(&pruning_d, &store, &cfg).unwrap();
    expect(
        "prune-soundness/pruned-page-corrupted",
        Invariant::PruneSoundness,
        verify_deep(&phys, &cfg),
        report,
    );

    // partition-tiling: a gap between merge partitions.
    let union = Plan::Union {
        left: Box::new(Plan::scan("m")),
        right: Box::new(Plan::scan("n")),
    };
    let mut phys = pipe::compile(&union, &store, &cfg).unwrap();
    match &mut phys.root {
        RootNode::Union { partitions } if partitions.len() > 1 => partitions[1].lo += 1,
        _ => panic!("union fixture must compile to multiple partitions"),
    }
    expect(
        "partition-tiling/gap",
        Invariant::PartitionTiling,
        verify(&phys, &cfg),
        report,
    );

    // fusion-admissibility: each label the planner no longer emits, on
    // the very page (TS2DIFF, unfiltered SUM) the first one used to label.
    for retired in [
        Strategy::FusedTs2Diff,
        Strategy::FusedDeltaRle,
        Strategy::FusedSvb,
        Strategy::HeaderMinMax,
    ] {
        let mut phys = pipe::compile(&sum_m, &store, &cfg).unwrap();
        phys.pipelines[0].decisions[0].strategy = Some(retired);
        expect(
            &format!("fusion-admissibility/retired-label/{retired}"),
            Invariant::FusionAdmissibility,
            verify(&phys, &cfg),
            report,
        );
    }

    // fusion-admissibility: a byte-serial page in a vectorized plan.
    let mut phys = pipe::compile(&sum_m, &store, &cfg).unwrap();
    phys.pipelines[0].decisions[0].strategy = Some(Strategy::Serial);
    expect(
        "fusion-admissibility/serial-in-vectorized",
        Invariant::FusionAdmissibility,
        verify(&phys, &cfg),
        report,
    );

    // hot-folds-last: hot timestamps rewound behind the sealed pages.
    let sum_h = Plan::scan("h").aggregate(AggFunc::Sum);
    let mut phys = pipe::compile(&sum_h, &store, &cfg).unwrap();
    let hot = phys.pipelines[0]
        .hot
        .as_mut()
        .expect("fixture has a hot tail");
    let rewound: Vec<i64> = hot.ts.iter().map(|t| t - ROWS as i64 * 10).collect();
    hot.ts = Arc::new(rewound);
    expect(
        "hot-folds-last/rewound-tail",
        Invariant::HotFoldsLast,
        verify(&phys, &cfg),
        report,
    );

    // hot-folds-last: the same rewound tail on a binary operator's side,
    // which carries its hot chunk as a unary scan does.
    let union_h = Plan::Union {
        left: Box::new(Plan::scan("h")),
        right: Box::new(Plan::scan("m")),
    };
    let mut phys = pipe::compile(&union_h, &store, &cfg).unwrap();
    let hot = phys.pipelines[0]
        .hot
        .as_mut()
        .expect("union side has the hot tail");
    hot.ts = Arc::new(hot.ts.iter().map(|t| t - ROWS as i64 * 10).collect());
    expect(
        "hot-folds-last/binary-side-rewound",
        Invariant::HotFoldsLast,
        verify(&phys, &cfg),
        report,
    );

    // explain-round-trip: EXPLAIN text drifted from the plan.
    let phys = pipe::compile(&sum_m, &store, &cfg).unwrap();
    let tampered = phys.render(&cfg).replace("SUM", "MAX");
    expect(
        "explain-round-trip/tampered-text",
        Invariant::ExplainRoundTrip,
        verify_explain(&phys, &cfg, &tampered),
        report,
    );

    // bucket-tiling: a windowed root whose bucket width was zeroed.
    let wsum = Plan::scan("m").window(0, 640, AggFunc::Sum);
    let mut phys = pipe::compile(&wsum, &store, &cfg).unwrap();
    match &mut phys.root {
        RootNode::Aggregate {
            window: Some(w), ..
        } => w.dt = 0,
        other => panic!("windowed fixture compiled to {other:?}"),
    }
    expect(
        "bucket-tiling/zero-width",
        Invariant::BucketTiling,
        verify(&phys, &cfg),
        report,
    );

    // cache-obligation: a page the value filter only partly covers marked
    // cacheable (a memo holds the whole page's moments, which would be
    // served as the filtered partial).
    let filtered = Plan::scan("m")
        .filter(Predicate::value(100, 130))
        .aggregate(AggFunc::Sum);
    let mut phys = pipe::compile(&filtered, &store, &cfg).unwrap();
    let d = phys.pipelines[0]
        .decisions
        .iter_mut()
        .find(|d| d.verdict.kept())
        .expect("fixture keeps at least one page");
    d.cacheable = true;
    expect(
        "cache-obligation/value-filtered",
        Invariant::CacheObligation,
        verify(&phys, &cfg),
        report,
    );

    // cache-obligation: a float page marked cacheable (its memo words
    // would be integer Σ of ordered keys, served as a real SUM).
    let mut phys = pipe::compile(&Plan::scan("fl").aggregate(AggFunc::Sum), &store, &cfg).unwrap();
    phys.pipelines[0].decisions[0].cacheable = true;
    expect(
        "cache-obligation/float-page",
        Invariant::CacheObligation,
        verify(&phys, &cfg),
        report,
    );

    // cache-obligation (deep): a cacheable segment whose all-verified
    // mark holds over a page whose bytes changed after its own mark — the
    // driver would serve the segment's memo without reading that page.
    let mut phys = pipe::compile(&sum_m, &store, &cfg).unwrap();
    {
        let p = &mut phys.pipelines[0];
        assert!(
            p.segment_decisions[0].cacheable,
            "an unfiltered SUM's segment is cacheable"
        );
        let mut pages = p.segments[0].pages().to_vec();
        let mut page = Page::clone(&pages[0]);
        page.ensure_verified().unwrap();
        let mut v = page.val_bytes.to_vec();
        v[0] ^= 0x40;
        page.val_bytes = etsqp_storage::Bytes::from(v);
        pages[0] = Arc::new(page);
        pages.iter().for_each(|pg| pg.ensure_verified().unwrap());
        let segment = Segment::new(pages);
        assert!(segment.mark_verified(), "every page object is marked");
        p.segments[0] = Arc::new(segment);
    }
    expect(
        "cache-obligation/segment-memo-over-an-unverified-page",
        Invariant::CacheObligation,
        verify_deep(&phys, &cfg),
        report,
    );

    // partial-merge-order: adjacent pages swapped (index/tuples patched
    // so PlanShape holds) — the merge chain is no longer time-ordered.
    let mut phys = pipe::compile(&sum_m, &store, &cfg).unwrap();
    {
        let p = &mut phys.pipelines[0];
        let mut pages = p.segments[0].pages().to_vec();
        assert!(pages.len() >= 2, "fixture seals multiple pages");
        pages.swap(0, 1);
        p.segments[0] = Arc::new(Segment::new(pages));
        p.decisions.swap(0, 1);
        let counts: Vec<u64> = p.pages().map(|pg| u64::from(pg.header.count)).collect();
        for (i, (d, tuples)) in p.decisions.iter_mut().zip(counts).enumerate() {
            d.index = i;
            d.tuples = tuples;
        }
    }
    expect(
        "partial-merge-order/pages-swapped",
        Invariant::PartialMergeOrder,
        verify(&phys, &cfg),
        report,
    );
}
