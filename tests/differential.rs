//! Differential correctness sweep: every engine configuration must agree
//! with the naive oracle (`etsqp::core::oracle`) on every codec, dataset
//! and query in the battery.
//!
//! On a mismatch the harness prints a single-line reproducer
//! (`DIFF spec=… codec=… cfg=… query=… rows=…`) before panicking, so a
//! failure in CI pins down the exact (codec × config × query) cell.

use etsqp::core::expr::{BinOp, CmpOp, PairAggFunc};
use etsqp::core::oracle;
use etsqp::core::physical::node::PruneVerdict;
use etsqp::core::physical::pipe;
use etsqp::core::plan::execute;
use etsqp::datasets::Spec;
use etsqp::storage::store::{SeriesStore, StoreOptions};
use etsqp::{
    AggFunc, Encoding, EngineOptions, IotDb, PipelineConfig, Plan, Predicate, TimeRange, Value,
};

const ROWS: usize = 256;
const PAGE_POINTS: usize = 64;

/// Integer codecs usable for the value column.
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

/// Timestamp codecs exercised by the dedicated ts-codec block.
const TS_CODECS: [Encoding; 6] = [
    Encoding::Plain,
    Encoding::Ts2Diff,
    Encoding::Ts2DiffOrder2,
    Encoding::DeltaRle,
    Encoding::Gorilla,
    Encoding::StreamVByte,
];

/// The full config cross: vectorized/serial × prune × threads × partial
/// cache (24 configs; the ablation axes of Fig. 10/13).
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

/// A handful of corner configs used when running the complete battery.
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

/// Engine/oracle result shape: column names plus rows of values.
type Table = (Vec<String>, Vec<Vec<Value>>);

struct Fixture {
    spec: Spec,
    codec: Encoding,
    store: SeriesStore,
    /// Registered series names (first two columns of the dataset).
    a: String,
    b: String,
    queries: Vec<(String, Plan)>,
    /// Oracle results, computed lazily per query index.
    oracle: Vec<Option<Table>>,
}

/// Builds the store for one (spec, value codec, ts codec) cell and the
/// deterministic query battery derived from the data's actual ranges.
fn fixture(spec: Spec, val_codec: Encoding, ts_codec: Encoding) -> Fixture {
    let data = spec.generate(ROWS);
    let store = SeriesStore::new(PAGE_POINTS);
    let a = format!("{}_a", spec.label());
    let b = format!("{}_b", spec.label());
    for (name, col_idx) in [(&a, 0usize), (&b, 1usize)] {
        store.create_series(name, ts_codec, val_codec);
        store
            .append_all(name, &data.timestamps, &data.columns[col_idx].1)
            .unwrap();
        store.flush(name).unwrap();
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
        // Partial-state battery (appended so earlier indices stay
        // stable for Block D): exact first/last-derived aggregates and
        // bucketed order-sensitive merges — all compare bit-exact.
        ("DELTA(all)".into(), scan_a().aggregate(AggFunc::Delta)),
        (
            "RATE(value)".into(),
            scan_a().filter(v_band).aggregate(AggFunc::Rate),
        ),
        (
            "WRATE(time)".into(),
            scan_a().filter(t_mid).window(w_min, w_dt, AggFunc::Rate),
        ),
        (
            "WDELTA".into(),
            scan_a().window(w_min, w_dt, AggFunc::Delta),
        ),
        (
            "WFIRST".into(),
            scan_a().window(w_min, w_dt, AggFunc::First),
        ),
        (
            "WLAST(time)".into(),
            scan_a().filter(t_mid).window(w_min, w_dt, AggFunc::Last),
        ),
    ];
    let n = queries.len();
    Fixture {
        spec,
        codec: val_codec,
        store,
        a,
        b,
        queries,
        oracle: vec![None; n],
    }
}

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

fn rows_eq(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(ra, rb)| ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| value_eq(x, y)))
}

/// Runs query `qi` of `fx` under `cfg` and compares against the cached
/// oracle answer. Returns 1 (a case) — panics with a one-line reproducer
/// on mismatch.
fn check(fx: &mut Fixture, qi: usize, cfg: &PipelineConfig) -> usize {
    let (qname, plan) = &fx.queries[qi];
    if fx.oracle[qi].is_none() {
        fx.oracle[qi] = Some(oracle::execute(plan, &fx.store).unwrap());
    }
    let (ocols, orows) = fx.oracle[qi].as_ref().unwrap();
    // Every oracle case also goes through the physical planner: the plan
    // must compile, and its EXPLAIN rendering must be deterministic (the
    // driver below executes this same compiled shape).
    let phys = pipe::compile(plan, &fx.store, cfg).unwrap_or_else(|e| {
        panic!(
            "DIFF spec={} codec={:?} cfg=[{}] query={}: physical compile error {e}",
            fx.spec.label(),
            fx.codec,
            cfg_label(cfg),
            qname,
        )
    });
    let rendered = phys.render(cfg);
    assert!(
        rendered.starts_with("physical plan ("),
        "query={qname}: malformed EXPLAIN header:\n{rendered}"
    );
    assert_eq!(
        rendered,
        pipe::explain(plan, &fx.store, cfg).unwrap(),
        "query={qname}: EXPLAIN not deterministic across compiles"
    );
    let got = execute(plan, &fx.store, cfg).unwrap_or_else(|e| {
        panic!(
            "DIFF spec={} codec={:?} cfg=[{}] query={} seed=rows{}: engine error {e}",
            fx.spec.label(),
            fx.codec,
            cfg_label(cfg),
            qname,
            ROWS
        )
    });
    if &got.columns != ocols || !rows_eq(&got.rows, orows) {
        // Single-line reproducer first, then the diffing payloads.
        eprintln!(
            "DIFF spec={} codec={:?} cfg=[{}] query={} seed=rows{}",
            fx.spec.label(),
            fx.codec,
            cfg_label(cfg),
            qname,
            ROWS
        );
        eprintln!("  series: {} / {}", fx.a, fx.b);
        eprintln!("  oracle: {:?} {:?}", ocols, preview(orows));
        eprintln!("  engine: {:?} {:?}", got.columns, preview(&got.rows));
        panic!("engine diverged from oracle (see DIFF line above)");
    }
    1
}

/// Appends 40 unsealed points after `tn` (mixed-sign values), leaving a
/// hot chunk beside the sealed pages; returns the appended points.
fn append_hot_tail(store: &SeriesStore, name: &str, tn: i64) -> Vec<(i64, i64)> {
    (0..40i64)
        .map(|i| {
            let (t, v) = (tn + (i + 1) * 3, (i * 907) % 511 - 200);
            store.append(name, t, v).unwrap();
            (t, v)
        })
        .collect()
}

fn preview(rows: &[Vec<Value>]) -> &[Vec<Value>] {
    &rows[..rows.len().min(8)]
}

/// Block A: the full 24-config cross on every (spec × value codec) cell,
/// rotating deterministically through the query battery.
#[test]
fn every_config_agrees_with_oracle() {
    let configs = all_configs();
    let mut cases = 0usize;
    for spec in Spec::ALL {
        for codec in VAL_CODECS {
            let mut fx = fixture(spec, codec, Encoding::Ts2Diff);
            let nq = fx.queries.len();
            for (ci, cfg) in configs.iter().enumerate() {
                let qi = (ci + cases) % nq;
                cases += check(&mut fx, qi, cfg);
            }
        }
    }
    assert!(cases >= 200, "sweep too small: {cases} cases");
    eprintln!("differential config sweep: {cases} cases, zero mismatches");
}

/// Block B: the complete query battery under the canonical corner
/// configs, on every (spec × value codec) cell.
#[test]
fn full_battery_agrees_with_oracle() {
    let configs = canonical_configs();
    let mut cases = 0usize;
    for spec in Spec::ALL {
        for codec in VAL_CODECS {
            let mut fx = fixture(spec, codec, Encoding::Ts2Diff);
            for qi in 0..fx.queries.len() {
                for cfg in &configs {
                    cases += check(&mut fx, qi, cfg);
                }
            }
        }
    }
    assert!(cases >= 200, "battery too small: {cases} cases");
    eprintln!("differential battery: {cases} cases, zero mismatches");
}

/// Block C: timestamp-codec sweep (value codec fixed to Ts2Diff) — the
/// time column drives filters, windows and joins.
#[test]
fn timestamp_codecs_agree_with_oracle() {
    let configs = canonical_configs();
    let mut cases = 0usize;
    for spec in [Spec::Atmosphere, Spec::Timestamp, Spec::Tpch] {
        for ts_codec in TS_CODECS {
            let mut fx = fixture(spec, Encoding::Ts2Diff, ts_codec);
            for qi in 0..fx.queries.len() {
                for cfg in &configs {
                    cases += check(&mut fx, qi, cfg);
                }
            }
        }
    }
    assert!(cases >= 200, "ts sweep too small: {cases} cases");
    eprintln!("differential ts-codec sweep: {cases} cases, zero mismatches");
}

/// Block E: Stream VByte under live ingestion. The fixture flushes, then
/// appends an unsealed hot tail to both series, so every query in the
/// battery runs against a mix of sealed SVB pages and the hot-chunk
/// snapshot (the `SourceHot` pipeline source) — the sealed pages'
/// cursor partials must merge correctly with the decoded hot partial.
#[test]
fn stream_vbyte_hot_and_sealed_agree_with_oracle() {
    let configs = canonical_configs();
    let mut cases = 0usize;
    for spec in [Spec::Atmosphere, Spec::Timestamp] {
        let mut fx = fixture(spec, Encoding::StreamVByte, Encoding::StreamVByte);
        // Hot tail: strictly-increasing timestamps past the sealed range,
        // values alternating sign and magnitude (1..3-byte deltas).
        let data = spec.generate(ROWS);
        let tn = *data.timestamps.last().unwrap();
        for name in [fx.a.clone(), fx.b.clone()] {
            for i in 0..40i64 {
                let v = (i * 1003) % 757 - 378 + ((i % 3) << 16);
                fx.store.append(&name, tn + (i + 1) * 7, v).unwrap();
            }
        }
        for qi in 0..fx.queries.len() {
            for cfg in &configs {
                cases += check(&mut fx, qi, cfg);
            }
        }
    }
    assert!(cases >= 100, "hot+sealed sweep too small: {cases} cases");
    eprintln!("differential hot+sealed svb sweep: {cases} cases, zero mismatches");
}

/// Block D: fault injection. Every page mutation breaks the sealed
/// checksum (`SeriesStore::corrupt_page` deliberately does not reseal),
/// so any query whose pipeline contains the page — decoded, fast-path
/// aggregated, or pruned away — must abort with a typed error. The
/// invariant under test: corruption is *never* absorbed into a silently
/// wrong aggregate, and an untouched series keeps answering correctly.
#[test]
fn corrupted_pages_abort_never_lie() {
    use etsqp::storage::page::Page;
    use etsqp::storage::Bytes;

    type Mutation = (&'static str, fn(&mut Page));
    let mutations: [Mutation; 4] = [
        ("val_payload_bitflip", |p| {
            let mut v = p.val_bytes.to_vec();
            let mid = v.len() / 2;
            v[mid] ^= 0x20;
            p.val_bytes = Bytes::from(v);
        }),
        ("ts_payload_bitflip", |p| {
            let mut v = p.ts_bytes.to_vec();
            let mid = v.len() / 2;
            v[mid] ^= 0x01;
            p.ts_bytes = Bytes::from(v);
        }),
        // Header lies: caught because the checksum covers header bytes.
        ("count_lie", |p| {
            p.header.count = p.header.count.wrapping_add(1)
        }),
        // A min/max lie tries to steer the §V verdicts into wrongly
        // excluding the page; verify-on-prune must catch it instead.
        ("minmax_lie", |p| {
            p.header.min_value = i64::MAX - 1;
            p.header.max_value = i64::MAX;
        }),
    ];

    let configs = canonical_configs();
    let mut cases = 0usize;
    for (mname, mutate) in mutations {
        // DeltaRle values + identical clocks on both series: JOINAGG(dot)
        // reads the corrupted page through its left side's row scan.
        let mut fx = fixture(Spec::Atmosphere, Encoding::DeltaRle, Encoding::Ts2Diff);
        // Clean engine baselines must exist before injection.
        for qi in [0usize, 3] {
            check(&mut fx, qi, &configs[0]);
        }
        fx.store.corrupt_page(&fx.a, 1, mutate).unwrap();
        for cfg in &configs {
            // SUM(all), MIN(both) [time+value filter under prune],
            // JOINAGG(dot) [binary side scan].
            for (qname, plan) in [&fx.queries[0], &fx.queries[3], &fx.queries[14]] {
                let got = execute(plan, &fx.store, cfg);
                assert!(
                    got.is_err(),
                    "FAULT spec=atmosphere mutation={mname} cfg=[{}] query={qname}: \
                     corrupted page produced Ok({:?})",
                    cfg_label(cfg),
                    got.as_ref().map(|r| preview(&r.rows)),
                );
                cases += 1;
            }
            // The untouched series keeps answering — corruption in `a`
            // must not poison queries that never read it.
            let healthy = Plan::scan(&fx.b).aggregate(AggFunc::Sum);
            let got = execute(&healthy, &fx.store, cfg).expect("healthy series must still answer");
            let (ocols, orows) = oracle::execute(&healthy, &fx.store).unwrap();
            assert!(
                got.columns == ocols && rows_eq(&got.rows, &orows),
                "FAULT mutation={mname} cfg=[{}]: healthy series diverged",
                cfg_label(cfg),
            );
            cases += 1;
        }
    }
    assert!(cases >= 60, "fault sweep too small: {cases} cases");
    eprintln!("differential fault injection: {cases} cases, all aborted with typed errors");
}

/// Block F: quantile sketches. The t-digest answer is approximate, so
/// this block checks the documented *rank* contract instead of equality:
/// the engine's estimate, ranked against the exact sorted qualifying
/// values of its bucket, lies within `TDigest::rank_error_bound(n)` ranks
/// of the target `q·n` — across codecs, configs (partial cache on and
/// off), whole-range and bucketed shapes, and a hot+sealed tail. Each
/// query also runs twice per config: the second run answers from the
/// partial cache and must reproduce the first bit-for-bit.
#[test]
fn quantile_sketches_stay_within_rank_bound() {
    use etsqp::core::partial::TDigest;

    let check_rank = |est: f64, bucket: &mut Vec<i64>, q: f64, label: &str| {
        bucket.sort_unstable();
        let n = bucket.len();
        assert!(n > 0, "{label}: engine answered for an empty bucket");
        let rank = bucket.partition_point(|&v| (v as f64) <= est) as f64;
        let target = q * n as f64;
        let bound = TDigest::rank_error_bound(n as u64);
        assert!(
            (rank - target).abs() <= bound,
            "{label}: est={est} rank={rank} target={target} bound={bound} n={n}"
        );
        assert!(
            est >= bucket[0] as f64 && est <= bucket[n - 1] as f64,
            "{label}: est={est} outside the exact [min, max] envelope"
        );
    };

    let mut configs = canonical_configs();
    configs.push(PipelineConfig {
        partial_cache: false,
        ..Default::default()
    });
    let mut cases = 0usize;
    for spec in [Spec::Atmosphere, Spec::Timestamp, Spec::Tpch] {
        for codec in [Encoding::Ts2Diff, Encoding::DeltaRle, Encoding::StreamVByte] {
            for hot in [false, true] {
                let data = spec.generate(ROWS);
                let store = SeriesStore::new(PAGE_POINTS);
                let name = format!("{}_q", spec.label());
                store.create_series(&name, Encoding::Ts2Diff, codec);
                store
                    .append_all(&name, &data.timestamps, &data.columns[0].1)
                    .unwrap();
                store.flush(&name).unwrap();
                let mut ts = data.timestamps.clone();
                let mut vals = data.columns[0].1.clone();
                if hot {
                    for (t, v) in append_hot_tail(&store, &name, *ts.last().unwrap()) {
                        ts.push(t);
                        vals.push(v);
                    }
                }
                let t0 = ts[0];
                let span = (*ts.last().unwrap() - t0).max(1);
                let w_dt = (span / 7).max(1);
                for (func, q) in [
                    (AggFunc::P50, 0.5),
                    (AggFunc::P95, 0.95),
                    (AggFunc::P99, 0.99),
                ] {
                    for windowed in [false, true] {
                        let plan = if windowed {
                            Plan::scan(&name).window(t0, w_dt, func)
                        } else {
                            Plan::scan(&name).aggregate(func)
                        };
                        for cfg in &configs {
                            let label = format!(
                                "spec={} codec={codec:?} hot={hot} {func:?} windowed={windowed} \
                                 cfg=[{}]",
                                spec.label(),
                                cfg_label(cfg)
                            );
                            let r = execute(&plan, &store, cfg).unwrap();
                            let again = execute(&plan, &store, cfg).unwrap();
                            assert!(
                                rows_eq(&r.rows, &again.rows),
                                "{label}: cached re-run diverged from the first answer"
                            );
                            if windowed {
                                for row in &r.rows {
                                    let (Value::Int(start), v) = (row[0], row[1]) else {
                                        panic!("{label}: malformed window row {row:?}");
                                    };
                                    let Value::Float(est) = v else {
                                        panic!("{label}: quantile cell was {v:?}");
                                    };
                                    let mut bucket: Vec<i64> = ts
                                        .iter()
                                        .zip(&vals)
                                        .filter(|(&t, _)| t >= start && t < start + w_dt)
                                        .map(|(_, &v)| v)
                                        .collect();
                                    check_rank(est, &mut bucket, q, &label);
                                    cases += 1;
                                }
                            } else {
                                let Value::Float(est) = r.rows[0][0] else {
                                    panic!("{label}: quantile cell was {:?}", r.rows[0][0]);
                                };
                                let mut bucket = vals.clone();
                                check_rank(est, &mut bucket, q, &label);
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(cases >= 200, "quantile sweep too small: {cases} cases");
    eprintln!("differential quantile sweep: {cases} cases within the rank bound");
}

/// Block G: thread-count invariance. Job outputs return in job order and
/// the merge node folds them sequentially, so the answer may not depend
/// on how many runners executed the jobs. With the partial cache off
/// (every partial is computed by this run), the whole battery plus
/// whole-range and bucketed P50/P95/P99 must give rows at
/// `threads ∈ {2, 8}` that are bit-identical to `threads = 1` —
/// equality, not the rank bound Block F holds quantiles to against the
/// oracle. The pruning counters may not depend on it either: every
/// query, binary ones included, reports the same
/// `(pages_pruned, tuples_pruned)` at every thread count, and
/// `pages_pruned` is the number of pages its compiled plan prunes.
#[test]
fn rows_are_bit_identical_across_thread_counts() {
    let serial = PipelineConfig {
        threads: 1,
        partial_cache: false,
        ..Default::default()
    };
    let mut cases = 0usize;
    for spec in [Spec::Atmosphere, Spec::Timestamp, Spec::Tpch] {
        for codec in [Encoding::Ts2Diff, Encoding::DeltaRle, Encoding::StreamVByte] {
            for hot in [false, true] {
                let mut fx = fixture(spec, codec, Encoding::Ts2Diff);
                let timestamps = spec.generate(ROWS).timestamps;
                let (t0, tn) = (timestamps[0], timestamps[ROWS - 1]);
                let w_dt = ((tn - t0) / 7).max(1);
                if hot {
                    for name in [&fx.a, &fx.b] {
                        append_hot_tail(&fx.store, name, tn);
                    }
                }
                for func in [AggFunc::P50, AggFunc::P95, AggFunc::P99] {
                    fx.queries
                        .push((format!("{func:?}"), Plan::scan(&fx.a).aggregate(func)));
                    fx.queries.push((
                        format!("W{func:?}"),
                        Plan::scan(&fx.a).window(t0, w_dt, func),
                    ));
                }
                for (qname, plan) in &fx.queries {
                    let want = execute(plan, &fx.store, &serial).unwrap();
                    let pruned = pruned_of(&want);
                    let planned = pipe::compile(plan, &fx.store, &serial).unwrap();
                    let decided = (planned.pipelines.iter())
                        .flat_map(|p| &p.decisions)
                        .filter(|d| !d.verdict.kept())
                        .count() as u64;
                    assert_eq!(
                        pruned.0,
                        decided,
                        "THREADS spec={} codec={codec:?} hot={hot} query={qname}: \
                         pages_pruned is not the plan's pruned decisions",
                        spec.label(),
                    );
                    for threads in [2usize, 8] {
                        let cfg = PipelineConfig { threads, ..serial };
                        let got = execute(plan, &fx.store, &cfg).unwrap();
                        assert!(
                            got.columns == want.columns && rows_eq(&got.rows, &want.rows),
                            "THREADS spec={} codec={codec:?} hot={hot} cfg=[{}] \
                             query={qname}: {:?} != threads=1 {:?}",
                            spec.label(),
                            cfg_label(&cfg),
                            preview(&got.rows),
                            preview(&want.rows),
                        );
                        assert_eq!(
                            pruned_of(&got),
                            pruned,
                            "THREADS spec={} codec={codec:?} hot={hot} cfg=[{}] query={qname}: \
                             (pages_pruned, tuples_pruned) differ from threads=1",
                            spec.label(),
                            cfg_label(&cfg),
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases >= 200, "thread sweep too small: {cases} cases");
    eprintln!("differential thread-count invariance: {cases} cases, all bit-identical");
}

/// Block T: binary operators over hot tails their sides' filters prune.
/// Each side of a Union / Join / JoinExpr / JoinAggregate compiles like a
/// `SELECT *` scan, hot chunk included: the left filter's time range ends
/// at the last sealed timestamp (`pruned(time)` hot tail), the right
/// filter's value band lies above every hot value (`pruned(value)`).
/// Rows equal the oracle's, and `tuples_pruned` counts each pruned page
/// and each pruned hot tail exactly once, at every thread count.
#[test]
fn binary_sides_prune_their_hot_tails_once() {
    let store = SeriesStore::new(PAGE_POINTS);
    let ts: Vec<i64> = (0..ROWS as i64).map(|i| i * 10).collect();
    let tn = *ts.last().unwrap();
    for (name, step) in [("l", 37), ("r", 53)] {
        let vals: Vec<i64> = (0..ROWS as i64).map(|i| 1000 + (i * step) % 500).collect();
        store.create_series(name, Encoding::Ts2Diff, Encoding::DeltaRle);
        store.append_all(name, &ts, &vals).unwrap();
        store.flush(name).unwrap();
        append_hot_tail(&store, name, tn);
    }
    let left = || Plan::scan("l").filter(Predicate::time(tn / 3, tn));
    let right = || Plan::scan("r").filter(Predicate::value(1000, 1400));
    let plans = [
        Plan::Union {
            left: Box::new(left()),
            right: Box::new(right()),
        },
        Plan::Join {
            left: Box::new(left()),
            right: Box::new(right()),
            on: Some(CmpOp::Gt),
        },
        Plan::JoinExpr {
            left: Box::new(left()),
            right: Box::new(right()),
            op: BinOp::Sub,
        },
        Plan::JoinAggregate {
            left: Box::new(left()),
            right: Box::new(right()),
            func: PairAggFunc::Dot,
        },
        Plan::JoinAggregate {
            left: Box::new(left()),
            right: Box::new(right()),
            func: PairAggFunc::Correlation,
        },
    ];
    let mut cases = 0usize;
    for plan in &plans {
        for vectorized in [true, false] {
            for threads in [1usize, 2, 8] {
                let cfg = PipelineConfig {
                    threads,
                    vectorized,
                    ..Default::default()
                };
                let phys = pipe::compile(plan, &store, &cfg).unwrap();
                let verdicts: Vec<_> = (phys.pipelines.iter())
                    .map(|p| p.hot.as_ref().expect("both sides have a hot tail").verdict)
                    .collect();
                assert_eq!(
                    verdicts,
                    [PruneVerdict::PrunedTime, PruneVerdict::PrunedValue]
                );
                let mut want = (0u64, 0u64);
                for p in &phys.pipelines {
                    for d in p.decisions.iter().filter(|d| !d.verdict.kept()) {
                        want = (want.0 + 1, want.1 + d.tuples);
                    }
                    want.1 += p.hot.as_ref().map_or(0, |h| h.ts.len() as u64);
                }
                let label = format!("HOTSIDES {plan:?}");
                assert_oracle(plan, &store, &cfg, &label);
                let got = execute(plan, &store, &cfg).unwrap();
                assert_eq!(pruned_of(&got), want, "{label} cfg=[{}]", cfg_label(&cfg));
                cases += 1;
            }
        }
    }
    eprintln!("differential pruned hot sides: {cases} cases");
}

/// A run's `(pages_pruned, tuples_pruned)`.
fn pruned_of(r: &etsqp::core::plan::QueryResult) -> (u64, u64) {
    (r.stats.pages_pruned, r.stats.tuples_pruned)
}

/// One sealed series on a store with `page_points`-point pages.
fn store_of(
    page_points: usize,
    name: &str,
    val_codec: Encoding,
    ts: &[i64],
    vals: &[i64],
) -> SeriesStore {
    let store = SeriesStore::new(page_points);
    store.create_series(name, Encoding::Ts2Diff, val_codec);
    store.append_all(name, ts, vals).unwrap();
    store.flush(name).unwrap();
    store
}

/// Per page of series `s`: its header's value bounds and what `func`
/// materializes on it with no value filter (the page alone, picked by a
/// time filter its header covers). A page a value filter covers is
/// aggregated as an unfiltered page, so this is what it costs then.
fn unfiltered_cost(
    store: &SeriesStore,
    func: AggFunc,
    cfg: &PipelineConfig,
) -> Vec<((i64, i64), u64)> {
    let pages = store.peek_pages("s").unwrap();
    pages
        .iter()
        .map(|p| {
            let h = p.header;
            let alone = Plan::scan("s")
                .filter(Predicate::time(h.first_ts, h.last_ts))
                .aggregate(func);
            let bytes = execute(&alone, store, cfg)
                .unwrap()
                .stats
                .materialized_bytes;
            ((h.min_value, h.max_value), bytes)
        })
        .collect()
}

/// What the value filter `[lo, hi]` materializes over the pages of
/// `yardstick`: nothing for a page it misses (pruned), the unfiltered
/// cost for a page it covers, `partial` for one it cuts.
fn filtered_cost(yardstick: &[((i64, i64), u64)], (lo, hi): (i64, i64), partial: u64) -> u64 {
    yardstick
        .iter()
        .map(|&((min, max), unfiltered)| {
            if max < lo || min > hi {
                0
            } else if lo <= min && max <= hi {
                unfiltered
            } else {
                partial
            }
        })
        .sum()
}

/// Engine rows under `cfg` equal the oracle's, with a one-line label.
fn assert_oracle(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig, label: &str) {
    let (ocols, orows) = oracle::execute(plan, store).unwrap();
    let got = execute(plan, store, cfg).unwrap_or_else(|e| panic!("{label}: engine error {e}"));
    assert!(
        got.columns == ocols && rows_eq(&got.rows, &orows),
        "{label} cfg=[{}]: engine {:?} != oracle {:?}",
        cfg_label(cfg),
        preview(&got.rows),
        preview(&orows),
    );
}

/// Block H: a sparse page under a narrow bucket. Two (or three) points
/// `10¹²` apart in one page, `GROUP BY TIME(1)`: the splitter has to step
/// from non-empty bucket to non-empty bucket — walking the 10¹² empty
/// ones in between, as the constant-interval branch did, is an
/// uncancellable loop of hours. The whole block is held to one second.
#[test]
fn sparse_page_buckets_in_bounded_time() {
    const GAP: i64 = 1_000_000_000_000;
    let started = std::time::Instant::now();
    // Two points: a constant-interval timestamp page (arithmetic clock);
    // three: a jittered one (decoded clock).
    for ts in [vec![0, GAP], vec![0, 5, GAP]] {
        let vals: Vec<i64> = (0..ts.len() as i64).map(|i| 7 + 3 * i).collect();
        let store = store_of(PAGE_POINTS, "s", Encoding::Ts2Diff, &ts, &vals);
        for func in [AggFunc::Sum, AggFunc::Max, AggFunc::P50] {
            let plan = Plan::scan("s").window(0, 1, func);
            for cfg in canonical_configs() {
                assert_oracle(
                    &plan,
                    &store,
                    &cfg,
                    &format!("SPARSE n={} {func:?}", ts.len()),
                );
            }
        }
    }
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_secs(1),
        "sparse-page queries took {took:?}: the splitter is walking empty buckets"
    );
}

/// Block I: suffix pruning under a window. A monotone TS2DIFF page and a
/// filter `v ≤ 600` stop `decode_val_column` after 769 of 1024 values,
/// so the decoded prefix is shorter than the qualifying index range; the
/// buckets are one page wide and start half a page early, so the prefix
/// itself straddles the boundary at index 512. Constant-interval and
/// jittered clocks.
#[test]
fn suffix_pruned_prefix_splits_across_misaligned_buckets() {
    const POINTS: usize = 1024;
    let vals: Vec<i64> = (0..2 * POINTS as i64).collect();
    let clocks: [(&str, Vec<i64>); 2] = [
        ("constant", (0..2 * POINTS as i64).map(|i| i * 10).collect()),
        (
            "jittered",
            (0..2 * POINTS as i64).map(|i| i * 10 + i % 3).collect(),
        ),
    ];
    let band = Predicate {
        time: None,
        value: Some((0, 600)),
    };
    for (clock, ts) in &clocks {
        let store = store_of(POINTS, "s", Encoding::Ts2Diff, ts, &vals);
        let (t_min, dt) = (-5120, 10240);
        for func in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Variance,
            AggFunc::First,
            AggFunc::Last,
            AggFunc::P95,
        ] {
            let plan = Plan::scan("s").filter(band).window(t_min, dt, func);
            for threads in [1usize, 4] {
                let cfg = PipelineConfig {
                    threads,
                    partial_cache: false,
                    ..Default::default()
                };
                if func.quantile().is_none() {
                    assert_oracle(&plan, &store, &cfg, &format!("SUFFIX {clock} {func:?}"));
                }
                let got = execute(&plan, &store, &cfg).unwrap();
                assert_eq!(
                    got.rows.len(),
                    2,
                    "{clock} {func:?}: prefix straddles one boundary"
                );
                // Page 1 (values ≥ 1024) is header-pruned; more pruned
                // tuples than that means the scan of page 0 stopped early.
                assert!(
                    got.stats.pages_pruned == 1 && got.stats.tuples_pruned > POINTS as u64,
                    "{clock} {func:?}: suffix pruning did not fire ({:?})",
                    got.stats
                );
            }
        }
        // Unfiltered, the same straddling pages fold per bucket subrange:
        // no value is materialized, and a jittered clock is decoded once
        // per page — through the accounted `decode_ts_column`, so the
        // bytes show up in the stats (a constant clock decodes nothing).
        let fused = Plan::scan("s").window(t_min, dt, AggFunc::Sum);
        let cfg = PipelineConfig {
            partial_cache: false,
            ..Default::default()
        };
        assert_oracle(&fused, &store, &cfg, &format!("SUFFIX {clock} fused"));
        let ts_bytes = execute(&fused, &store, &cfg)
            .unwrap()
            .stats
            .materialized_bytes;
        let want = if *clock == "jittered" {
            2 * POINTS as u64 * 8
        } else {
            0
        };
        assert_eq!(ts_bytes, want, "{clock}: timestamp bytes materialized");
    }
}

/// Block J: one aggregation shape. The planner emits `decode` for every
/// kept page, never one of the four retired whole-page labels; for each
/// cell × `window ∈ {none, page-aligned, straddling}` × time filter ∈
/// {none, partial pages}, the vectorized rows equal the byte-serial
/// (`Strategy::Serial`) rows bit for bit — quantiles included, since the
/// decode leg and the serial leg end in the same tuple fold — and the
/// exact aggregates also equal the oracle's.
#[test]
fn every_strategy_matches_serial_bit_for_bit() {
    use etsqp::core::physical::node::Strategy;

    let ts: Vec<i64> = (0..ROWS as i64).map(|i| 1_000 + i * 10).collect();
    let vals: Vec<i64> = (0..ROWS as i64)
        .map(|i| (i * 37) % 101 - 30 + i / 8)
        .collect();
    let page_span = PAGE_POINTS as i64 * 10;
    let windows = [
        None,
        Some((1_000, page_span)),                 // one page per bucket
        Some((1_000 - page_span / 2, page_span)), // half a page early
    ];
    let filters = [
        Predicate::default(),
        Predicate::time(1_000 + page_span / 3, 1_000 + 3 * page_span + page_span / 2),
    ];
    let cells: [(Encoding, &[AggFunc]); 4] = [
        (
            Encoding::Ts2Diff,
            &[AggFunc::Sum, AggFunc::Avg, AggFunc::Variance, AggFunc::P95],
        ),
        (
            Encoding::DeltaRle,
            &[AggFunc::Sum, AggFunc::Variance, AggFunc::Last],
        ),
        (Encoding::StreamVByte, &[AggFunc::Sum, AggFunc::Max]),
        (
            Encoding::Plain,
            &[AggFunc::Min, AggFunc::Count, AggFunc::First, AggFunc::Rate],
        ),
    ];
    let vectorized = PipelineConfig {
        threads: 4,
        partial_cache: false,
        ..Default::default()
    };
    let serial = PipelineConfig {
        vectorized: false,
        ..vectorized
    };
    let mut seen: Vec<Strategy> = Vec::new();
    let mut cases = 0usize;
    for (codec, funcs) in cells {
        let store = store_of(PAGE_POINTS, "s", codec, &ts, &vals);
        for &func in funcs {
            for window in windows {
                for pred in filters {
                    let scan = Plan::scan("s").filter(pred);
                    let plan = match window {
                        Some((t_min, dt)) => scan.window(t_min, dt, func),
                        None => scan.aggregate(func),
                    };
                    let label = format!("SHAPE {codec:?} {func:?} window={window:?} pred={pred:?}");
                    for d in
                        &pipe::compile(&plan, &store, &vectorized).unwrap().pipelines[0].decisions
                    {
                        if let Some(s) = d.strategy.filter(|s| !seen.contains(s)) {
                            seen.push(s);
                        }
                    }
                    let got = execute(&plan, &store, &vectorized).unwrap();
                    let want = execute(&plan, &store, &serial).unwrap();
                    assert!(
                        got.columns == want.columns && rows_eq(&got.rows, &want.rows),
                        "{label}: vectorized {:?} != serial {:?}",
                        preview(&got.rows),
                        preview(&want.rows),
                    );
                    if func.quantile().is_none() {
                        assert_oracle(&plan, &store, &vectorized, &label);
                    }
                    cases += 1;
                }
            }
        }
    }
    assert!(seen.contains(&Strategy::Decode), "{seen:?}");
    for s in [
        Strategy::FusedTs2Diff,
        Strategy::FusedDeltaRle,
        Strategy::FusedSvb,
        Strategy::HeaderMinMax,
    ] {
        assert!(
            !seen.contains(&s),
            "the planner emitted retired {s}: {seen:?}"
        );
    }
    eprintln!("differential shape matrix: {cases} cases, vectorized == serial bit for bit");
}

/// Block K: a window the data cannot be bucketed under. `t − t_min`
/// overflows `i64` for every non-negative timestamp when the origin is
/// `i64::MIN`; release builds used to answer with wrapped bucket starts
/// while debug builds tripped the plan verifier. Both now refuse the
/// plan with the same typed error, as they do a non-positive width.
#[test]
fn unbucketable_window_is_a_plan_error_in_every_profile() {
    use etsqp::core::Error;

    let ts: Vec<i64> = (0..ROWS as i64).map(|i| i * 10).collect();
    let vals: Vec<i64> = (0..ROWS as i64).collect();
    let store = store_of(PAGE_POINTS, "s", Encoding::Ts2Diff, &ts, &vals);
    for (t_min, dt) in [(i64::MIN, 10), (0, 0), (0, -5), (0, i64::MAX)] {
        let plan = Plan::scan("s").window(t_min, dt, AggFunc::Sum);
        for cfg in canonical_configs() {
            let compiled = pipe::compile(&plan, &store, &cfg).map(|_| ());
            let ran = execute(&plan, &store, &cfg).map(|r| r.rows.len());
            assert!(
                matches!(compiled, Err(Error::Plan(_))) && matches!(ran, Err(Error::Plan(_))),
                "SW({t_min}, {dt}) cfg=[{}]: compile {compiled:?}, execute {ran:?}",
                cfg_label(&cfg),
            );
        }
    }
    // The same origin is fine for data it can bucket.
    let early = store_of(
        PAGE_POINTS,
        "e",
        Encoding::Ts2Diff,
        &[i64::MIN + 5, -1],
        &[1, 2],
    );
    let plan = Plan::scan("e").window(i64::MIN, 10, AggFunc::Sum);
    assert_oracle(
        &plan,
        &early,
        &PipelineConfig::default(),
        "SW(i64::MIN) over negative time",
    );
}

/// Plans `plan` under `cfg` and reports whether every kept page took
/// `Strategy::Decode` — the vectorized strategy, so zero materialized
/// value bytes on such a plan means the decode-and-fold cursor ran.
fn all_kept_pages_decode(plan: &Plan, store: &SeriesStore, cfg: &PipelineConfig) -> bool {
    use etsqp::core::physical::node::Strategy;
    let phys = pipe::compile(plan, store, cfg).unwrap();
    let mut kept = phys.pipelines[0]
        .decisions
        .iter()
        .filter_map(|d| d.strategy)
        .peekable();
    kept.peek().is_some() && kept.all(|s| s == Strategy::Decode)
}

/// Whether `func` is FIRST / LAST under a value filter that leaves a
/// conjunct on some page of a column spanning `vmin ..= vmax`: such a
/// page decodes its values, since FIRST / LAST are the ends of an
/// unfiltered fold only.
fn ends_under_a_filter(
    func: AggFunc,
    value: Option<(i64, i64)>,
    cfg: &PipelineConfig,
    (vmin, vmax): (i64, i64),
) -> bool {
    matches!(func, AggFunc::First | AggFunc::Last)
        && value.is_some_and(|(lo, hi)| !cfg.prune || lo > vmin || hi < vmax)
}

/// Block L: decode-and-fold. For the three codecs whose packed deltas the
/// cursor walks × every exact aggregate × value filters that are absent,
/// one-sided, two-sided, empty and all-pass × windows that are absent,
/// page-aligned and half a page early × a time filter that cuts the
/// first and last page: the vectorized rows equal the byte-serial rows
/// and the oracle's bit for bit, and no value is ever materialized — on
/// the constant clock `materialized_bytes` is 0, on a jittered one
/// exactly the timestamp columns of the two cut pages. FIRST / LAST are
/// the ends of an unfiltered fold: with a value conjunct left on some
/// page (a filter that does not cover every value, or pruning off) they
/// decode it, as before.
#[test]
fn decode_and_fold_matches_serial_and_materializes_no_value() {
    let vals: Vec<i64> = (0..ROWS as i64)
        .map(|i| (i * 37) % 101 - 30 + i / 8)
        .collect();
    let clocks: [(&str, Vec<i64>); 2] = [
        (
            "constant",
            (0..ROWS as i64).map(|i| 1_000 + i * 10).collect(),
        ),
        (
            "jittered",
            (0..ROWS as i64).map(|i| 1_000 + i * 10 + i % 3).collect(),
        ),
    ];
    let page_span = PAGE_POINTS as i64 * 10;
    let windows = [
        None,
        Some((1_000, page_span)),
        Some((1_000 - page_span / 2, page_span)),
    ];
    let cut = Predicate::time(1_000 + page_span / 3, 1_000 + 3 * page_span + page_span / 2);
    let value_filters = [
        None,
        Some((21, i64::MAX)), // v > 20
        Some((i64::MIN, 20)), // v <= 20
        Some((0, 50)),
        Some((1_000, 2_000)),             // matches nothing
        Some((-1_000, 1_000)),            // matches everything
        Some((i64::MIN, -5_000_000_000)), // beyond i32 of v₀, nothing
        Some((-5_000_000_000, i64::MAX)), // beyond i32 of v₀, everything
    ];
    let funcs = [
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Variance,
        AggFunc::First,
        AggFunc::Last,
    ];
    let (vmin, vmax) = (*vals.iter().min().unwrap(), *vals.iter().max().unwrap());
    // Default planning, and header pruning off so that empty filters
    // reach the kernel too.
    let planned = PipelineConfig {
        threads: 4,
        partial_cache: false,
        ..Default::default()
    };
    let all_decode = PipelineConfig {
        prune: false,
        ..planned
    };
    let serial = PipelineConfig {
        vectorized: false,
        ..planned
    };
    let mut cases = 0usize;
    for codec in [Encoding::Ts2Diff, Encoding::Sprintz, Encoding::StreamVByte] {
        let mut kernel_pages = 0u64;
        for (clock, ts) in &clocks {
            let store = store_of(PAGE_POINTS, "s", codec, ts, &vals);
            for func in funcs {
                for value in value_filters {
                    for window in windows {
                        for time in [None, cut.time] {
                            let scan = Plan::scan("s").filter(Predicate { time, value });
                            let plan = match window {
                                Some((t_min, dt)) => scan.window(t_min, dt, func),
                                None => scan.aggregate(func),
                            };
                            let label = format!(
                                "FOLD {codec:?} {clock} {func:?} value={value:?} \
                                 window={window:?} time={time:?}"
                            );
                            let want = execute(&plan, &store, &serial).unwrap();
                            for cfg in [&planned, &all_decode] {
                                let got = execute(&plan, &store, cfg).unwrap();
                                assert!(
                                    got.columns == want.columns && rows_eq(&got.rows, &want.rows),
                                    "{label} cfg=[{}]: vectorized {:?} != serial {:?}",
                                    cfg_label(cfg),
                                    preview(&got.rows),
                                    preview(&want.rows),
                                );
                                assert_oracle(&plan, &store, cfg, &label);
                                // Timestamps are decoded only where an
                                // index cannot be solved from the header:
                                // never on the constant clock; on the
                                // jittered one, unwindowed, for the two
                                // pages the time filter cuts.
                                // (fewer where the value filter let
                                // the header prune a cut page).
                                let cut_pages = 2 * PAGE_POINTS as u64 * 8;
                                let ends_filtered =
                                    ends_under_a_filter(func, value, cfg, (vmin, vmax));
                                let ts_bytes = match (*clock, window, time) {
                                    _ if ends_filtered => None,
                                    ("constant", ..) | (_, None, None) => Some(0..=0),
                                    (_, None, Some(_)) if !cfg.prune => Some(cut_pages..=cut_pages),
                                    (_, None, Some(_)) => Some(0..=cut_pages),
                                    _ => None,
                                };
                                if let Some(ts_bytes) = ts_bytes {
                                    assert!(
                                        ts_bytes.contains(&got.stats.materialized_bytes),
                                        "{label} cfg=[{}]: {} bytes materialized, a value column \
                                         among them",
                                        cfg_label(cfg),
                                        got.stats.materialized_bytes,
                                    );
                                }
                                if all_kept_pages_decode(&plan, &store, cfg) {
                                    kernel_pages += got.stats.pages_loaded;
                                }
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            kernel_pages > 1_000,
            "{codec:?}: only {kernel_pages} pages went through the kernel"
        );
    }
    eprintln!("differential decode-and-fold matrix: {cases} cases, no value materialized");
}

/// Block M: what the cursor's gate rejects keeps decode-then-fold and
/// still agrees with the oracle: values spanning more than 2³¹ (and a
/// page alternating between the `i64` limits, whose *wrapped* deltas are
/// tiny), an order-2 page, a Stream VByte page whose control stream
/// allows offsets of 2³⁰ and more, a wide-mode Stream VByte page — and,
/// unfiltered, TS2DIFF / Stream VByte pages whose packing width is above
/// 32 or whose mode is 1. A column hugging an `i64` limit passes the
/// gate — the far-side filter bound is translated without wrapping —
/// except for VARIANCE, whose `Σv²` would leave `i128`. A page the value
/// filter covers is no filtered fold: it costs what it costs unfiltered.
#[test]
fn gate_rejected_pages_fall_back_and_agree_with_oracle() {
    let n = PAGE_POINTS as i64;
    let ts: Vec<i64> = (0..2 * n).map(|i| i * 10).collect();
    let alternating: Vec<i64> = (0..2 * n)
        .map(|i| {
            if i % 2 == 0 {
                i64::MIN + 7
            } else {
                i64::MAX - 7
            }
        })
        .collect();
    let rejected: [(&str, Encoding, Vec<i64>); 7] = [
        (
            "spread>2^31",
            Encoding::Ts2Diff,
            (0..2 * n).map(|i| (i % 7) * (1 << 29) - i).collect(),
        ),
        (
            "spread>2^31",
            Encoding::Sprintz,
            (0..2 * n).map(|i| (i % 7) * (1 << 29) - i).collect(),
        ),
        ("limits", Encoding::Ts2Diff, alternating.clone()),
        ("limits", Encoding::Sprintz, alternating.clone()),
        (
            "order2",
            Encoding::Ts2DiffOrder2,
            (0..2 * n).map(|i| i * i - 40 * i).collect(),
        ),
        (
            "rel_bound>=2^30",
            Encoding::StreamVByte,
            (0..2 * n).map(|i| i * 2_000_000_000).collect(),
        ),
        ("mode1", Encoding::StreamVByte, alternating),
    ];
    let cfg = PipelineConfig {
        threads: 4,
        partial_cache: false,
        ..Default::default()
    };
    let funcs = [
        AggFunc::Sum,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Variance,
    ];
    for (what, codec, vals) in &rejected {
        let store = store_of(PAGE_POINTS, "s", *codec, &ts, vals);
        let mid = vals[vals.len() / 2];
        for func in funcs {
            let yardstick = unfiltered_cost(&store, func, &cfg);
            for value in [(i64::MIN, mid), (mid.saturating_add(1), i64::MAX), (0, 0)] {
                let plan = Plan::scan("s")
                    .filter(Predicate::value(value.0, value.1))
                    .aggregate(func);
                let label = format!("GATE {what} {codec:?} {func:?} value={value:?}");
                assert_oracle(&plan, &store, &cfg, &label);
                let got = execute(&plan, &store, &cfg).unwrap();
                assert_eq!(
                    got.stats.materialized_bytes,
                    filtered_cost(&yardstick, value, PAGE_POINTS as u64 * 8),
                    "{label}: the gate should have sent every partly covered page to the decoder"
                );
            }
        }
    }
    // Unfiltered pages — no value filter, a spread inside `i64` — that
    // the walker's gate rejects all the same: a packing width above 32
    // and Stream VByte's wide mode. The closed form used to own these;
    // now they decode and fold.
    let wide: Vec<i64> = (0..2 * n).map(|i| (i % 2) << 40).collect();
    let serial = PipelineConfig {
        vectorized: false,
        ..cfg
    };
    let span = n * 10;
    let straddling = Some((-span / 2, span));
    for codec in [Encoding::Ts2Diff, Encoding::StreamVByte] {
        let store = store_of(PAGE_POINTS, "s", codec, &ts, &wide);
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Count] {
            for window in [None, Some((0, span)), straddling] {
                let plan = match window {
                    Some((t_min, dt)) => Plan::scan("s").window(t_min, dt, func),
                    None => Plan::scan("s").aggregate(func),
                };
                let label = format!("GATE wide {codec:?} {func:?} window={window:?}");
                assert!(all_kept_pages_decode(&plan, &store, &cfg), "{label}");
                let want = execute(&plan, &store, &serial).unwrap();
                let got = execute(&plan, &store, &cfg).unwrap();
                assert!(
                    got.columns == want.columns && rows_eq(&got.rows, &want.rows),
                    "{label}: vectorized {:?} != serial {:?}",
                    preview(&got.rows),
                    preview(&want.rows),
                );
                assert_oracle(&plan, &store, &cfg, &label);
                assert_eq!(
                    got.stats.materialized_bytes,
                    got.stats.pages_loaded * PAGE_POINTS as u64 * 8,
                    "{label}: the gate should have sent every loaded page to the decoder"
                );
            }
        }
    }
    for v0 in [i64::MAX - 5_000, i64::MIN + 5_000] {
        let vals: Vec<i64> = (0..2 * n).map(|i| v0 + (i * 37) % 101 - 50).collect();
        for codec in [Encoding::Ts2Diff, Encoding::Sprintz, Encoding::StreamVByte] {
            let store = store_of(PAGE_POINTS, "s", codec, &ts, &vals);
            for func in funcs {
                for value in [
                    (i64::MIN, 0),      // far side of v₀ = MAX − 5000
                    (0, i64::MAX),      // far side of v₀ = MIN + 5000
                    (v0 - 10, v0 + 10), // a band around v₀
                    (i64::MIN, i64::MAX),
                ] {
                    let plan = Plan::scan("s")
                        .filter(Predicate::value(value.0, value.1))
                        .aggregate(func);
                    let label = format!("GATE v0={v0} {codec:?} {func:?} value={value:?}");
                    assert_oracle(&plan, &store, &cfg, &label);
                    let got = execute(&plan, &store, &cfg).unwrap();
                    let decoded = got.stats.materialized_bytes > 0;
                    assert_eq!(
                        decoded,
                        func == AggFunc::Variance && got.stats.pages_loaded > 0,
                        "{label}: {:?}",
                        got.stats
                    );
                }
            }
        }
    }
}

/// Block N: run space and XOR space. The two codecs the cursor reads
/// without a packed-delta kernel — Delta-RLE as `(Δ, run)` progressions,
/// Gorilla a stack block at a time off the bit window — × every exact
/// aggregate (FIRST / LAST as in block L) × the value filters of block L × windows
/// that are absent, page-aligned and half a page early × a time filter
/// that cuts the first and last page × both clocks × `threads ∈ {1, 2,
/// 8}`: rows equal the byte-serial rows and the oracle's, and no value
/// column is materialized — `materialized_bytes` is 0 on the constant
/// clock, on the jittered one exactly the cut pages' timestamps.
#[test]
fn run_and_xor_space_folds_match_serial_and_materialize_nothing() {
    // Stairs of every slope with steps of one point among them, so runs
    // of length 1 sit beside long ones and every filter straddles some.
    let vals: Vec<i64> = (0..ROWS as i64)
        .map(|i| (i / 9) * 7 % 60 - 20 + (i % 13 == 0) as i64 * 35 + i / 50)
        .collect();
    let clocks: [(&str, Vec<i64>); 2] = [
        (
            "constant",
            (0..ROWS as i64).map(|i| 1_000 + i * 10).collect(),
        ),
        (
            "jittered",
            (0..ROWS as i64).map(|i| 1_000 + i * 10 + i % 3).collect(),
        ),
    ];
    let page_span = PAGE_POINTS as i64 * 10;
    let windows = [
        None,
        Some((1_000, page_span)),
        Some((1_000 - page_span / 2, page_span)),
    ];
    let cut = Predicate::time(1_000 + page_span / 3, 1_000 + 3 * page_span + page_span / 2);
    let value_filters = [
        None,
        Some((21, i64::MAX)),
        Some((i64::MIN, 20)),
        Some((0, 50)),
        Some((1_000, 2_000)),
        Some((-1_000, 1_000)),
        Some((i64::MIN, -5_000_000_000)),
        Some((-5_000_000_000, i64::MAX)),
    ];
    let funcs = [
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Variance,
        AggFunc::First,
        AggFunc::Last,
    ];
    let (vmin, vmax) = (*vals.iter().min().unwrap(), *vals.iter().max().unwrap());
    let serial = PipelineConfig {
        vectorized: false,
        threads: 4,
        partial_cache: false,
        ..Default::default()
    };
    let mut cases = 0usize;
    for codec in [Encoding::DeltaRle, Encoding::Gorilla] {
        let mut cursor_pages = 0u64;
        for (clock, ts) in &clocks {
            let store = store_of(PAGE_POINTS, "s", codec, ts, &vals);
            for func in funcs {
                for value in value_filters {
                    for window in windows {
                        for time in [None, cut.time] {
                            let scan = Plan::scan("s").filter(Predicate { time, value });
                            let plan = match window {
                                Some((t_min, dt)) => scan.window(t_min, dt, func),
                                None => scan.aggregate(func),
                            };
                            let label = format!(
                                "FOLD {codec:?} {clock} {func:?} value={value:?} \
                                 window={window:?} time={time:?}"
                            );
                            let want = execute(&plan, &store, &serial).unwrap();
                            for threads in [1usize, 2, 8] {
                                // Default planning, and every page forced
                                // through DecodeScan with header pruning off.
                                let planned = PipelineConfig {
                                    vectorized: true,
                                    threads,
                                    ..serial
                                };
                                let all_decode = PipelineConfig {
                                    prune: false,
                                    ..planned
                                };
                                for cfg in [&planned, &all_decode] {
                                    let got = execute(&plan, &store, cfg).unwrap();
                                    assert!(
                                        got.columns == want.columns
                                            && rows_eq(&got.rows, &want.rows),
                                        "{label} cfg=[{}]: vectorized {:?} != serial {:?}",
                                        cfg_label(cfg),
                                        preview(&got.rows),
                                        preview(&want.rows),
                                    );
                                    assert_oracle(&plan, &store, cfg, &label);
                                    // As in block L: timestamps only where
                                    // an index cannot be solved from the
                                    // header, values never.
                                    let cut_pages = 2 * PAGE_POINTS as u64 * 8;
                                    let ends_filtered =
                                        ends_under_a_filter(func, value, cfg, (vmin, vmax));
                                    let ts_bytes = match (*clock, window, time) {
                                        _ if ends_filtered => None,
                                        ("constant", ..) | (_, None, None) => Some(0..=0),
                                        (_, None, Some(_)) if !cfg.prune => {
                                            Some(cut_pages..=cut_pages)
                                        }
                                        (_, None, Some(_)) => Some(0..=cut_pages),
                                        _ => None,
                                    };
                                    if let Some(ts_bytes) = ts_bytes {
                                        assert!(
                                            ts_bytes.contains(&got.stats.materialized_bytes),
                                            "{label} cfg=[{}]: {} bytes materialized, a value \
                                             column among them",
                                            cfg_label(cfg),
                                            got.stats.materialized_bytes,
                                        );
                                    }
                                    if all_kept_pages_decode(&plan, &store, cfg) {
                                        cursor_pages += got.stats.pages_loaded;
                                    }
                                    cases += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            cursor_pages > 1_000,
            "{codec:?}: only {cursor_pages} pages went through the cursor"
        );
    }
    eprintln!("differential run/xor-space matrix: {cases} cases, no value materialized");
}

/// Block O: a page is hashed once, and corruption still aborts. Queries
/// warm every page through the kept, the pruned and the memo-hit path,
/// so that all of them carry the verified mark and a memo of every
/// group; then each page in turn is replaced by a corrupted copy
/// (`SeriesStore::corrupt_page` clones, and a clone has neither mark nor
/// memo) and every query, under every canonical config, must abort — a
/// mark or a memo on the old object, or on its neighbours, vouches for
/// nothing, and neither do header bounds narrowed into a filter's cover.
/// Last, one page inside a fully memoized segment is corrupted: a
/// segment's mark and memo vouch for its page objects alone; and so does
/// a segment's quantile digest.
#[test]
fn verified_once_still_aborts_on_corruption() {
    use etsqp::storage::page::{Page, PageMoments};
    use etsqp::storage::Bytes;

    type Mutation = (&'static str, fn(&mut Page));
    let mutations: [Mutation; 4] = [
        ("payload_flip", |p| {
            let mut v = p.val_bytes.to_vec();
            let mid = v.len() / 2;
            v[mid] ^= 0x10;
            p.val_bytes = Bytes::from(v);
        }),
        ("minmax_lie", |p| {
            p.header.min_value = i64::MAX - 1;
            p.header.max_value = i64::MAX;
        }),
        ("count_lie", |p| p.header.count += 1),
        // Bounds narrowed into the narrow band: page 1 (100 ..= 106) then
        // seems covered by 102 ..= 199, and its MAX would come from the
        // header.
        ("narrowed_bounds", |p| {
            p.header.min_value += 2;
            p.header.max_value -= 1;
        }),
    ];
    let ts: Vec<i64> = (0..ROWS as i64).map(|i| 1_000 + i * 10).collect();
    // Page p sits at level 100·p: a band over one level prunes the rest
    // and covers that level's page (served from header or memo); the
    // narrow band cuts it.
    let vals: Vec<i64> = (0..ROWS as i64)
        .map(|i| 100 * (i / PAGE_POINTS as i64) + i % 7)
        .collect();
    let whole = Plan::scan("s").aggregate(AggFunc::Sum);
    let band = Plan::scan("s")
        .filter(Predicate::value(100, 199))
        .aggregate(AggFunc::Max);
    let narrow = Plan::scan("s")
        .filter(Predicate::value(102, 199))
        .aggregate(AggFunc::Max);
    let variance = Plan::scan("s").aggregate(AggFunc::Variance);
    let last = Plan::scan("s").aggregate(AggFunc::Last);
    let warm = PipelineConfig {
        threads: 2,
        ..Default::default()
    };
    let pages = ROWS / PAGE_POINTS;
    let mut cases = 0usize;
    for codec in [Encoding::Ts2Diff, Encoding::DeltaRle, Encoding::Gorilla] {
        for page in 0..pages {
            for (mname, mutate) in mutations {
                let store = store_of(PAGE_POINTS, "s", codec, &ts, &vals);
                // Kept and memoized (Σ; Σ and Σ²; the ends), then memo
                // hits, then three pages pruned.
                for plan in [&whole, &variance, &last, &whole, &variance, &last, &band] {
                    assert_oracle(plan, &store, &warm, "warm-up");
                }
                let marked = |store: &SeriesStore| -> Vec<(bool, bool)> {
                    let pages = store.peek_pages("s").unwrap();
                    pages
                        .iter()
                        .map(|p| {
                            // An unverified page shows no memo at all.
                            let m = p.moments();
                            assert!(p.is_verified() || m == PageMoments::default(), "{m:?}");
                            let all = m.sum.is_some() && m.sum_sq.is_some() && m.ends.is_some();
                            (p.is_verified(), all)
                        })
                        .collect()
                };
                // A concurrent test's `PartialCache::clear` may have
                // forgotten the memos; then a round re-publishes them.
                let mut rounds = 0;
                while marked(&store) != vec![(true, true); pages] {
                    rounds += 1;
                    assert!(rounds < 100, "{codec:?}: warm-up never memoized all");
                    for plan in [&whole, &variance, &last] {
                        assert_oracle(plan, &store, &warm, "re-warm");
                    }
                }
                store.corrupt_page("s", page, mutate).unwrap();
                assert_eq!(
                    marked(&store)[page],
                    (false, false),
                    "{codec:?}: the copy has no mark and no memo"
                );
                for cfg in canonical_configs() {
                    for (qname, plan) in [
                        ("whole", &whole),
                        ("variance", &variance),
                        ("last", &last),
                        ("band", &band),
                        ("narrow", &narrow),
                    ] {
                        let got = execute(plan, &store, &cfg);
                        assert!(
                            got.is_err(),
                            "FAULT {codec:?} page={page} mutation={mname} cfg=[{}] query={qname}: \
                             corrupted page produced Ok({:?})",
                            cfg_label(&cfg),
                            got.as_ref().map(|r| preview(&r.rows)),
                        );
                        cases += 1;
                    }
                }
                let after = marked(&store);
                assert!(
                    after[page] == (false, false) && after.iter().all(|m| m.0 || *m == after[page]),
                    "{codec:?}: a failed check marks and memoizes nothing: {after:?}"
                );
            }
        }
    }
    // One page inside a fully memoized segment: the four pages seal one
    // full segment, warmed until its all-verified mark and its memo hold
    // every group; the corrupted copy lands in a new segment with
    // neither, so every query still aborts.
    let opts = StoreOptions {
        page_points: PAGE_POINTS,
        ..StoreOptions::default()
    };
    let store = SeriesStore::with_segment_pages(opts, pages);
    store.create_series("s", Encoding::Ts2Diff, Encoding::DeltaRle);
    store.append_all("s", &ts, &vals).unwrap();
    store.flush("s").unwrap();
    let segment = || store.snapshot("s").unwrap().segments;
    assert_eq!(segment().len(), 1, "one full segment");
    let mut rounds = 0;
    loop {
        for plan in [&whole, &variance, &last, &band] {
            assert_oracle(plan, &store, &warm, "segment warm-up");
        }
        let m = segment()[0].moments();
        if segment()[0].is_verified() && m.sum.is_some() && m.sum_sq.is_some() && m.ends.is_some() {
            break;
        }
        rounds += 1;
        assert!(rounds < 100, "warm-up never memoized the segment");
    }
    store.corrupt_page("s", 2, mutations[0].1).unwrap();
    assert!(!segment()[0].is_verified(), "the new segment has no mark");
    for cfg in canonical_configs() {
        for plan in [&whole, &variance, &last, &band, &narrow] {
            let got = execute(plan, &store, &cfg);
            assert!(
                got.is_err(),
                "FAULT memoized segment cfg=[{}] plan={plan:?}: Ok({:?})",
                cfg_label(&cfg),
                got.as_ref().map(|r| preview(&r.rows)),
            );
            cases += 1;
        }
    }
    // One page under a segment digest: P95 sets the digest of the open
    // tail segment, one merge group of four pages, then one of its pages
    // is corrupted; the next P95 returns the storage error.
    let p95 = Plan::scan("s").aggregate(AggFunc::P95);
    let store = store_of(PAGE_POINTS, "s", Encoding::Ts2Diff, &ts, &vals);
    let segment = || store.snapshot("s").unwrap().segments;
    let mut rounds = 0;
    while segment()[0].digest().is_none() {
        execute(&p95, &store, &warm).unwrap();
        rounds += 1;
        assert!(rounds < 100, "warm-up never set the segment digest");
    }
    store.corrupt_page("s", 1, mutations[0].1).unwrap();
    for threads in [1, 2, 8] {
        let cfg = PipelineConfig {
            threads,
            ..Default::default()
        };
        let got = execute(&p95, &store, &cfg);
        assert!(
            matches!(got, Err(etsqp::core::Error::Storage(_))),
            "FAULT segment digest threads={threads}: {:?}",
            got.map(|r| r.rows),
        );
        cases += 1;
    }
    assert!(cases >= 250, "fault sweep too small: {cases} cases");
    eprintln!("differential verified-once fault sweep: {cases} cases, all aborted");
}

/// Block P: what the run-space gate rejects keeps decode-then-fold and
/// agrees with the oracle — a spread beyond `i64` (deltas that wrapped
/// at encode time) under every aggregate, and values of 2⁴⁷ and up under
/// VARIANCE alone, whose `Σv²` the filtered walk could not hold exactly.
/// A page the value filter covers costs what it costs unfiltered.
#[test]
fn delta_rle_gate_rejections_materialize_and_agree_with_oracle() {
    let n = PAGE_POINTS as i64;
    let ts: Vec<i64> = (0..2 * n).map(|i| i * 10).collect();
    let cfg = PipelineConfig {
        threads: 4,
        partial_cache: false,
        ..Default::default()
    };
    let funcs = [
        AggFunc::Sum,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Variance,
    ];
    let limits: Vec<i64> = (0..2 * n)
        .map(|i| {
            if i / 8 % 2 == 0 {
                i64::MIN + 7
            } else {
                i64::MAX - 7
            }
        })
        .collect();
    let tall: Vec<i64> = (0..2 * n).map(|i| (1 << 47) + (i / 8) * 3).collect();
    for (what, vals, folds) in [
        ("spread>i64", &limits, &[][..]),
        ("|v|>=2^47", &tall, &funcs[..4]),
    ] {
        let store = store_of(PAGE_POINTS, "s", Encoding::DeltaRle, &ts, vals);
        let mid = vals[vals.len() / 2];
        for func in funcs {
            let yardstick = unfiltered_cost(&store, func, &cfg);
            for value in [(i64::MIN, mid), (mid.saturating_add(1), i64::MAX), (0, 0)] {
                let plan = Plan::scan("s")
                    .filter(Predicate::value(value.0, value.1))
                    .aggregate(func);
                let label = format!("GATE {what} DeltaRle {func:?} value={value:?}");
                assert_oracle(&plan, &store, &cfg, &label);
                let got = execute(&plan, &store, &cfg).unwrap();
                let decoded = if folds.contains(&func) {
                    0
                } else {
                    PAGE_POINTS as u64 * 8
                };
                let want = filtered_cost(&yardstick, value, decoded);
                assert_eq!(
                    got.stats.materialized_bytes, want,
                    "{label}: {:?}",
                    got.stats
                );
            }
        }
    }
}

/// Block Q: page memos. Every aggregate, P95 included, × windows that are
/// absent, page-aligned and half a page early × time filters that are
/// absent, cover every page and cut the first and last × the five delta
/// codecs × `threads ∈ {1, 2, 8}`: the rows of a memo-cold run, a
/// memo-warm re-run, a run after `PartialCache::clear`, and a run with
/// `partial_cache` off are one and the same, bit for bit and at every
/// thread count, and they are the oracle's (quantiles within the rank
/// bound of block F). Hit counts are asserted in `crates/core/tests/
/// page_memo.rs`, where no other test clears the memos under them.
#[test]
fn page_memos_answer_bit_identically_to_folds_and_the_oracle() {
    use etsqp::core::partial::{PartialCache, TDigest};

    let ts: Vec<i64> = (0..ROWS as i64).map(|i| 1_000 + i * 10).collect();
    let vals: Vec<i64> = (0..ROWS as i64)
        .map(|i| (i * 37) % 101 - 30 + i / 8 + (i % 29 == 0) as i64 * 400)
        .collect();
    let page_span = PAGE_POINTS as i64 * 10;
    let windows = [
        None,
        Some((1_000, page_span)),
        Some((1_000 - page_span / 2, page_span)),
    ];
    let times = [
        None,
        Some(TimeRange { lo: 0, hi: 1 << 40 }),
        Some(TimeRange {
            lo: 1_000 + page_span / 3,
            hi: 1_000 + 3 * page_span + page_span / 2,
        }),
    ];
    let funcs = [
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Variance,
        AggFunc::First,
        AggFunc::Last,
        AggFunc::Rate,
        AggFunc::Delta,
        AggFunc::P50,
        AggFunc::P95,
        AggFunc::P99,
    ];
    // The engine's quantile, ranked among its bucket's exact values.
    let within_rank = |est: &Value, start: i64, dt: i64, time: Option<TimeRange>, q: f64| {
        let Value::Float(est) = *est else {
            return false;
        };
        let mut bucket: Vec<i64> = ts
            .iter()
            .zip(&vals)
            .filter(|(&t, _)| t >= start && t - start < dt && time.is_none_or(|r| r.contains(t)))
            .map(|(_, &v)| v)
            .collect();
        bucket.sort_unstable();
        let rank = bucket.partition_point(|&v| (v as f64) <= est) as f64;
        (rank - q * bucket.len() as f64).abs() <= TDigest::rank_error_bound(bucket.len() as u64)
    };
    let mut cases = 0usize;
    for codec in [
        Encoding::Ts2Diff,
        Encoding::DeltaRle,
        Encoding::Sprintz,
        Encoding::StreamVByte,
        Encoding::Gorilla,
    ] {
        let store = store_of(PAGE_POINTS, "s", codec, &ts, &vals);
        for func in funcs {
            for window in windows {
                for time in times {
                    let scan = Plan::scan("s").filter(Predicate { time, value: None });
                    let plan = match window {
                        Some((t_min, dt)) => scan.window(t_min, dt, func),
                        None => scan.aggregate(func),
                    };
                    let label = format!("MEMO {codec:?} {func:?} window={window:?} time={time:?}");
                    let (ocols, orows) = oracle::execute(&plan, &store).unwrap();
                    let mut want: Option<String> = None;
                    for threads in [1usize, 2, 8] {
                        let on = PipelineConfig {
                            threads,
                            ..Default::default()
                        };
                        let off = PipelineConfig {
                            partial_cache: false,
                            ..on
                        };
                        let run = |cfg: &PipelineConfig| {
                            let got = execute(&plan, &store, cfg)
                                .unwrap_or_else(|e| panic!("{label}: engine error {e}"));
                            assert_eq!(got.columns, ocols, "{label}");
                            got.rows
                        };
                        PartialCache::global().clear();
                        let cold = run(&on);
                        let runs = [
                            ("warm", run(&on)),
                            ("cleared", {
                                PartialCache::global().clear();
                                run(&on)
                            }),
                            ("cache off", run(&off)),
                        ];
                        // Debug formatting is exact: it round-trips every
                        // float and tells -0.0 from 0.0.
                        let cold_text = format!("{cold:?}");
                        for (what, rows) in &runs {
                            assert_eq!(
                                format!("{rows:?}"),
                                cold_text,
                                "{label} threads={threads}: {what} rows differ from memo-cold"
                            );
                        }
                        assert_eq!(
                            want.get_or_insert_with(|| cold_text.clone()),
                            &cold_text,
                            "{label}: threads={threads} differs from threads=1"
                        );
                        match func.quantile() {
                            None => assert!(
                                rows_eq(&cold, &orows),
                                "{label}: engine {:?} != oracle {:?}",
                                preview(&cold),
                                preview(&orows)
                            ),
                            Some(q) => {
                                assert_eq!(cold.len(), orows.len(), "{label}: row count");
                                for row in &cold {
                                    let ok = match (window, &row[..]) {
                                        (None, [est]) => {
                                            within_rank(est, i64::MIN / 2, i64::MAX, time, q)
                                        }
                                        (Some((_, dt)), [Value::Int(start), est]) => {
                                            within_rank(est, *start, dt, time, q)
                                        }
                                        _ => false,
                                    };
                                    assert!(ok, "{label}: {row:?} outside the rank bound");
                                }
                            }
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 5 * 13 * 3 * 3 * 3);
    eprintln!("differential page-memo sweep: {cases} cases, cold = warm = cleared = off");
}

/// Block R: residual predicates. Value filters sit exactly on page
/// bounds — a page's `[min, max]`, each end moved one inward and one
/// outward, one-sided at either end — and cover every page, none, and
/// half of them. Crossed with every aggregate, P95, FIRST, LAST, RATE
/// and DELTA included × windows that are absent, page-aligned and half a
/// page early × time filters that are absent, cover every page and cut
/// the first and last × the five codecs the cursor folds plus a TS2DIFF
/// series with one gate-rejected page × `threads ∈ {1, 2, 8}`: the rows
/// of a memo-cold run (fresh page objects), a memo-warm re-run, a run
/// with `partial_cache` off and, once per plan, a run after
/// `PartialCache::clear` are one and the same, bit for bit and at every
/// thread count, and they are the oracle's (quantiles within the rank
/// bound of block F). A page whose
/// header misses the filter is pruned, and only pages the filter cuts
/// add to `tuples_pruned` beyond the pruned pages' tuples. A filter that
/// covers every page costs what no filter costs, and once memoized
/// covered pages materialize nothing.
#[test]
fn residual_predicates_fold_covered_pages_as_unfiltered_ones() {
    use etsqp::core::partial::{PartialCache, TDigest};

    let pages = ROWS / PAGE_POINTS;
    let page_span = PAGE_POINTS as i64 * 10;
    let ts: Vec<i64> = (0..ROWS as i64).map(|i| 1_000 + i * 10).collect();
    // Page p sits at its own level, a stair of three-point steps on it:
    // 0 ..= 39, 20 ..= 59, -30 ..= 9 and 70 ..= 109.
    const LEVEL: [i64; 4] = [0, 20, -30, 70];
    let vals: Vec<i64> = (0..ROWS)
        .map(|i| LEVEL[i / PAGE_POINTS] + (i % PAGE_POINTS / 3) as i64 * 13 % 41)
        .collect();
    // One spike 2³³ high packs the last page wider than the cursor's gate.
    let mut spiked = vals.clone();
    spiked[3 * PAGE_POINTS + 32] += 1 << 33;
    let cells: [(&str, Encoding, &Vec<i64>); 6] = [
        ("ts2diff", Encoding::Ts2Diff, &vals),
        ("delta_rle", Encoding::DeltaRle, &vals),
        ("sprintz", Encoding::Sprintz, &vals),
        ("stream_vbyte", Encoding::StreamVByte, &vals),
        ("gorilla", Encoding::Gorilla, &vals),
        ("gate-rejected", Encoding::Ts2Diff, &spiked),
    ];
    let windows = [
        None,
        Some((1_000, page_span)),
        Some((1_000 - page_span / 2, page_span)),
    ];
    let times = [
        None,
        Some(TimeRange { lo: 0, hi: 1 << 40 }),
        Some(TimeRange {
            lo: 1_000 + page_span / 3,
            hi: 1_000 + 3 * page_span + page_span / 2,
        }),
    ];
    let funcs = [
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Variance,
        AggFunc::First,
        AggFunc::Last,
        AggFunc::Rate,
        AggFunc::Delta,
        AggFunc::P50,
        AggFunc::P95,
        AggFunc::P99,
    ];
    let (mut cases, mut served) = (0usize, 0u64);
    for (cell, codec, vals) in cells {
        let store = store_of(PAGE_POINTS, "s", codec, &ts, vals);
        let bounds: Vec<(i64, i64)> = vals
            .chunks(PAGE_POINTS)
            .map(|c| (*c.iter().min().unwrap(), *c.iter().max().unwrap()))
            .collect();
        let all = (
            bounds.iter().map(|b| b.0).min().unwrap(),
            bounds.iter().map(|b| b.1).max().unwrap(),
        );
        let (lo, hi) = bounds[1];
        let filters = [
            all,
            (all.1 + 1, i64::MAX),
            (bounds[0].0.min(lo), bounds[0].1.max(hi)),
            (lo, hi),
            (lo - 1, hi + 1),
            (lo + 1, hi),
            (lo, hi - 1),
            (lo, i64::MAX),
            (lo + 1, i64::MAX),
            (i64::MIN, hi),
            (i64::MIN, hi - 1),
        ];
        for func in funcs {
            for window in windows {
                for time in times {
                    for value in filters {
                        let pred = Predicate {
                            time,
                            value: Some(value),
                        };
                        let scan = Plan::scan("s").filter(pred);
                        let plan = match window {
                            Some((t_min, dt)) => scan.window(t_min, dt, func),
                            None => scan.aggregate(func),
                        };
                        let label = format!(
                            "RESIDUAL {cell} {func:?} window={window:?} time={time:?} \
                             value={value:?}"
                        );
                        // Per page, from the data: missed (pruned), cut
                        // by the value filter, or covered by it.
                        let (mut pruned, mut cut) = (0u64, 0u64);
                        for (p, &(min, max)) in bounds.iter().enumerate() {
                            let (first, last) =
                                (ts[p * PAGE_POINTS], ts[(p + 1) * PAGE_POINTS - 1]);
                            let time_misses = time.is_some_and(|t| last < t.lo || first > t.hi);
                            if time_misses || max < value.0 || min > value.1 {
                                pruned += 1;
                            } else if min < value.0 || max > value.1 {
                                cut += 1;
                            }
                        }
                        let page_tuples = PAGE_POINTS as u64;
                        let (ocols, orows) = oracle::execute(&plan, &store).unwrap();
                        let mut want: Option<String> = None;
                        for threads in [1usize, 2, 8] {
                            let on = PipelineConfig {
                                threads,
                                ..Default::default()
                            };
                            let off = PipelineConfig {
                                partial_cache: false,
                                ..on
                            };
                            // Memo-cold: fresh page objects, neither
                            // marked nor memoized.
                            let store = store_of(PAGE_POINTS, "s", codec, &ts, vals);
                            let phys = pipe::compile(&plan, &store, &on).unwrap();
                            let decisions = &phys.pipelines[0].decisions;
                            let kept = decisions.iter().filter(|d| d.verdict.kept()).count();
                            let cacheable = decisions.iter().filter(|d| d.cacheable).count();
                            let run = |cfg: &PipelineConfig| {
                                let got = execute(&plan, &store, cfg)
                                    .unwrap_or_else(|e| panic!("{label}: engine error {e}"));
                                assert_eq!(got.columns, ocols, "{label}");
                                let s = &got.stats;
                                assert_eq!(s.pages_pruned, pruned, "{label}: pruned pages {s:?}");
                                let beyond = s.tuples_pruned - pruned * page_tuples;
                                assert!(
                                    s.tuples_pruned >= pruned * page_tuples
                                        && beyond <= cut * page_tuples,
                                    "{label}: a covered page pruned tuples ({cut} cut) {s:?}"
                                );
                                got
                            };
                            let cold = run(&on);
                            let warm = run(&on);
                            // A concurrent test's `PartialCache::clear`
                            // may have forgotten the memos between the two
                            // runs; only a warm run that was served every
                            // covered page shows what covered pages cost.
                            if cacheable == kept && warm.stats.cache_hits == kept as u64 {
                                assert_eq!(
                                    warm.stats.materialized_bytes, 0,
                                    "{label} threads={threads}: served covered pages materialized"
                                );
                                served += u64::from(kept > 0);
                            }
                            let mut runs = vec![("warm", warm.rows), ("cache off", run(&off).rows)];
                            // Forgetting every memo of the process (once
                            // per plan: the other tests' memos go too).
                            if threads == 1 {
                                PartialCache::global().clear();
                                runs.push(("cleared", run(&on).rows));
                            }
                            let cold_text = format!("{:?}", cold.rows);
                            for (what, rows) in &runs {
                                assert_eq!(
                                    format!("{rows:?}"),
                                    cold_text,
                                    "{label} threads={threads}: {what} rows differ from memo-cold"
                                );
                            }
                            assert_eq!(
                                want.get_or_insert_with(|| cold_text.clone()),
                                &cold_text,
                                "{label}: threads={threads} differs from threads=1"
                            );
                            // Every page covered: the filter costs nothing
                            // over no filter at all.
                            if value == all {
                                let bare = Predicate { time, value: None };
                                let scan = Plan::scan("s").filter(bare);
                                let unfiltered = match window {
                                    Some((t_min, dt)) => scan.window(t_min, dt, func),
                                    None => scan.aggregate(func),
                                };
                                let a = run(&off).stats;
                                let b = execute(&unfiltered, &store, &off).unwrap().stats;
                                let key = |s: &etsqp::core::exec::StatsSnapshot| {
                                    (
                                        s.pages_loaded,
                                        s.pages_pruned,
                                        s.tuples_scanned,
                                        s.tuples_pruned,
                                        s.materialized_bytes,
                                    )
                                };
                                assert_eq!(key(&a), key(&b), "{label}: covered != unfiltered");
                            }
                            match func.quantile() {
                                None => assert!(
                                    rows_eq(&cold.rows, &orows),
                                    "{label}: engine {:?} != oracle {:?}",
                                    preview(&cold.rows),
                                    preview(&orows)
                                ),
                                Some(q) => {
                                    assert_eq!(cold.rows.len(), orows.len(), "{label}: row count");
                                    for row in &cold.rows {
                                        let (start, dt, est) = match (window, &row[..]) {
                                            (None, [est]) => (i64::MIN / 2, i64::MAX, est),
                                            (Some((_, dt)), [Value::Int(start), est]) => {
                                                (*start, dt, est)
                                            }
                                            _ => panic!("{label}: malformed row {row:?}"),
                                        };
                                        let mut bucket: Vec<i64> = ts
                                            .iter()
                                            .zip(vals.iter())
                                            .filter(|(&t, &v)| {
                                                t >= start
                                                    && t - start < dt
                                                    && time.is_none_or(|r| r.contains(t))
                                                    && v >= value.0
                                                    && v <= value.1
                                            })
                                            .map(|(_, &v)| v)
                                            .collect();
                                        bucket.sort_unstable();
                                        let n = bucket.len() as u64;
                                        let est = match *est {
                                            Value::Float(est) if n > 0 => est,
                                            Value::Null if n == 0 => continue,
                                            _ => panic!("{label}: quantile cell {est:?} of {n}"),
                                        };
                                        // The stairs repeat values: the estimate
                                        // holds every rank among its ties.
                                        let below =
                                            bucket.partition_point(|&v| (v as f64) < est) as f64;
                                        let upto =
                                            bucket.partition_point(|&v| (v as f64) <= est) as f64;
                                        let (target, bound) =
                                            (q * n as f64, TDigest::rank_error_bound(n));
                                        assert!(
                                            below - bound <= target && target <= upto + bound,
                                            "{label}: {row:?} outside the rank bound"
                                        );
                                    }
                                }
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(pages, bounds.len());
    }
    assert_eq!(cases, 6 * 13 * 3 * 3 * 11 * 3);
    assert!(
        served > 500,
        "only {served} runs served covered pages alone"
    );
    eprintln!(
        "differential residual-predicate sweep: {cases} cases, cold = warm = cleared = off, \
         {served} served from headers and memos"
    );
}

/// A cell as its bits: floats compare bit for bit (NaN payload and the
/// sign of zero included), not by `==`.
fn cell_bits(v: &Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, *i as u64),
        Value::Float(f) => (1, f.to_bits()),
        Value::Null => (2, 0),
    }
}

/// Block S: float series. Each float codec × every aggregate × time
/// filters × `FloatRange` filters (their key ranges, through `execute`)
/// × windows that are absent, page-aligned (`SW`) and half a page early
/// × a hot tail or none × `threads ∈ {1, 2, 8}` × vectorized on and off
/// × pruning on and off. The values hold NaN, ±0.0 and ±∞. Rows equal
/// the oracle's bit for bit — the real SUM / AVG / VARIANCE in the
/// merge order that defines them — except quantiles, which stay within
/// the t-digest rank bound of the finite values. No float page is
/// `[cacheable]`. `GROUP BY TIME` runs through SQL (time filters only:
/// SQL cannot bound a float's values) against the oracle of its plan.
#[test]
fn float_series_agree_with_oracle_bit_for_bit() {
    use etsqp::core::partial::TDigest;
    use etsqp::FloatRange;

    let ts: Vec<i64> = (0..ROWS as i64).map(|i| 1_000 + i * 10 + i % 3).collect();
    let vals: Vec<f64> = (0..ROWS)
        .map(|i| match i {
            3 => f64::NAN,
            100 => -0.0,
            101 => 0.0,
            190 => f64::NEG_INFINITY,
            250 => f64::INFINITY,
            _ => (i as f64 * 0.37).sin() * 40.0 + (i % 7) as f64 * 0.1,
        })
        .collect();
    let page_span = PAGE_POINTS as i64 * 10;
    let windows = [
        None,
        Some((1_000, page_span)),
        Some((1_000 - page_span / 2, page_span)),
    ];
    let times = [
        None,
        Some(TimeRange {
            lo: ts[20],
            hi: ts[180],
        }),
    ];
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    let ranges = [
        None,
        Some(FloatRange {
            lo: -10.0,
            hi: 10.0,
        }),
        Some(FloatRange { lo: 0.0, hi: inf }),
        Some(FloatRange { lo: -inf, hi: -0.0 }),
        Some(FloatRange { lo: -0.0, hi: 0.0 }),
        Some(FloatRange { lo: nan, hi: 1.0 }),
        Some(FloatRange { lo: 5.0, hi: 1.0 }),
    ];
    let funcs = [
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Variance,
        AggFunc::First,
        AggFunc::Last,
        AggFunc::P50,
        AggFunc::P95,
        AggFunc::P99,
        AggFunc::Rate,
        AggFunc::Delta,
    ];
    let mut configs = Vec::new();
    for threads in [1usize, 2, 8] {
        for vectorized in [true, false] {
            for prune in [true, false] {
                configs.push(PipelineConfig {
                    threads,
                    vectorized,
                    prune,
                    partial_cache: true,
                });
            }
        }
    }
    let rows_bits = |rows: &[Vec<Value>]| -> Vec<Vec<(u8, u64)>> {
        rows.iter()
            .map(|r| r.iter().map(cell_bits).collect())
            .collect()
    };
    let mut cases = 0usize;
    for codec in [Encoding::GorillaFloat, Encoding::Chimp, Encoding::Elf] {
        for hot in [false, true] {
            let store = SeriesStore::new(PAGE_POINTS);
            store.create_series_f64("f", Encoding::Ts2Diff, codec);
            let sealed = if hot { ROWS - 40 } else { ROWS };
            for (i, (&t, &v)) in ts.iter().zip(&vals).enumerate() {
                store.append_f64("f", t, v).unwrap();
                if i + 1 == sealed {
                    store.flush("f").unwrap();
                }
            }
            assert_eq!(store.buffered_points("f").unwrap(), ROWS - sealed);
            for func in funcs {
                for time in times {
                    for range in ranges {
                        for window in windows {
                            let pred = Predicate {
                                time,
                                value: range.map(|r| r.keys()),
                            };
                            let scan = Plan::scan("f").filter(pred);
                            let plan = match window {
                                Some((t_min, dt)) => scan.window(t_min, dt, func),
                                None => scan.aggregate(func),
                            };
                            let label = format!(
                                "FLOAT {codec:?} hot={hot} {func:?} time={time:?} \
                                 range={:?} window={window:?}",
                                range.map(|r| (r.lo, r.hi))
                            );
                            let (ocols, orows) = oracle::execute(&plan, &store).unwrap();
                            for cfg in &configs {
                                let label = format!("{label} cfg=[{}]", cfg_label(cfg));
                                let got = execute(&plan, &store, cfg)
                                    .unwrap_or_else(|e| panic!("{label}: engine error {e}"));
                                assert_eq!(got.columns, ocols, "{label}");
                                cases += 1;
                                let Some(q) = func.quantile() else {
                                    assert_eq!(
                                        rows_bits(&got.rows),
                                        rows_bits(&orows),
                                        "{label}: engine {:?} != oracle {:?}",
                                        preview(&got.rows),
                                        preview(&orows),
                                    );
                                    continue;
                                };
                                for row in &got.rows {
                                    let (start, dt, est) = match (window, &row[..]) {
                                        (None, [est]) => (i64::MIN / 2, i64::MAX, est),
                                        (Some((_, dt)), [Value::Int(start), est]) => {
                                            (*start, dt, est)
                                        }
                                        _ => panic!("{label}: malformed row {row:?}"),
                                    };
                                    let mut bucket: Vec<f64> = (ts.iter().zip(&vals))
                                        .filter(|(&t, &v)| {
                                            t >= start
                                                && t - start < dt
                                                && time.is_none_or(|r| r.contains(t))
                                                && range.is_none_or(|r| v >= r.lo && v <= r.hi)
                                                && v.is_finite()
                                        })
                                        .map(|(_, &v)| v)
                                        .collect();
                                    bucket.sort_by(f64::total_cmp);
                                    let n = bucket.len() as u64;
                                    let est = match *est {
                                        Value::Float(est) if n > 0 => est,
                                        Value::Null if n == 0 => continue,
                                        _ => panic!("{label}: quantile cell {est:?} of {n}"),
                                    };
                                    let below = bucket.partition_point(|&v| v < est) as f64;
                                    let upto = bucket.partition_point(|&v| v <= est) as f64;
                                    let (target, bound) =
                                        (q * n as f64, TDigest::rank_error_bound(n));
                                    assert!(
                                        below - bound <= target && target <= upto + bound,
                                        "{label}: {row:?} outside the rank bound"
                                    );
                                }
                            }
                            let text = pipe::explain(&plan, &store, &configs[0]).unwrap();
                            assert!(!text.contains("[cacheable]"), "{label}:\n{text}");
                        }
                    }
                }
                // `GROUP BY TIME` and a time filter through SQL, as the
                // shell and the server run it.
                let db = IotDb::with_store(store.clone(), EngineOptions::default());
                for sql in [
                    format!("SELECT {}(f) FROM f GROUP BY TIME(300)", func.name()),
                    format!(
                        "SELECT {}(f) FROM f WHERE time >= {} AND time <= {} GROUP BY TIME(250)",
                        func.name(),
                        ts[20],
                        ts[180]
                    ),
                ] {
                    let plan = etsqp::core::sql::parse(&sql).unwrap();
                    let (_, orows) = oracle::execute(&plan, &store).unwrap();
                    let got = db.query(&sql).unwrap();
                    match func.quantile() {
                        Some(_) => assert_eq!(got.rows.len(), orows.len(), "{sql}"),
                        None => assert_eq!(rows_bits(&got.rows), rows_bits(&orows), "{sql}"),
                    }
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 3 * 2 * 13 * (2 * 7 * 3 * 12 + 2));
    eprintln!("differential float sweep: {cases} cases, bit-identical to the oracle");
}

/// Block U: segments. One integer and one float series of 150 pages of 8
/// points, on stores sealing segments of S ∈ {1, 7, 64} pages (two full
/// 64-page segments and a short tail at S = 64; every segment a page at
/// S = 1, the page-by-page engine). Integer values rise by a level per
/// 64-page segment, so a value band can prune or cover a whole segment.
/// Crossed: value and time filters that land exactly on segment and
/// page bounds, one past them, and both at once × windows that are
/// absent, aligned to 64-page segments, straddling them, aligned to
/// 7-page segments, and epoch-snapped (`GROUP BY TIME`-like) × hot tail
/// or none × memo cold (after `PartialCache::clear`) and warm ×
/// `threads ∈ {1, 2, 8}` × SUM, COUNT, MIN, VARIANCE, FIRST, LAST and
/// P95. Rows are bit for bit those of S = 1 and, but for P95 (block F
/// holds quantiles to the rank bound), the oracle's; the pruned and
/// scanned counts are those of S = 1 too, so a segment pruned or
/// answered whole charges what its pages would.
#[test]
fn segments_answer_bit_identically_to_pages_and_the_oracle() {
    use etsqp::core::partial::PartialCache;

    const PAGE: usize = 8;
    const PAGES: usize = 150;
    let n = PAGE * PAGES;
    let ts: Vec<i64> = (0..n as i64).map(|i| 1_000 + i * 10).collect();
    let level = |i: i64| (i / (64 * PAGE as i64)) * 1_000;
    let ints: Vec<i64> = (0..n as i64)
        .map(|i| level(i) + (i * 37) % 101 - 50)
        .collect();
    let floats: Vec<f64> = (0..n)
        .map(|i| level(i as i64) as f64 + (i as f64 * 0.37).sin() * 40.0)
        .collect();
    let tn = *ts.last().unwrap();
    let store = |segment_pages: usize, float: bool, hot: bool| {
        let opts = StoreOptions {
            page_points: PAGE,
            ..StoreOptions::default()
        };
        let store = SeriesStore::with_segment_pages(opts, segment_pages);
        if float {
            store.create_series_f64("s", Encoding::Ts2Diff, Encoding::Chimp);
            for (&t, &v) in ts.iter().zip(&floats) {
                store.append_f64("s", t, v).unwrap();
            }
        } else {
            store.create_series("s", Encoding::Ts2Diff, Encoding::DeltaRle);
            store.append_all("s", &ts, &ints).unwrap();
        }
        store.flush("s").unwrap();
        if hot {
            for i in 1..=20i64 {
                match float {
                    true => store.append_f64("s", tn + i * 7, i as f64 - 9.5).unwrap(),
                    false => store.append("s", tn + i * 7, 1_000 + i).unwrap(),
                }
            }
        }
        store
    };
    let seg_span = 64 * PAGE as i64 * 10;
    let windows = [
        None,
        Some((1_000, seg_span)),
        Some((1_000 - seg_span / 3, seg_span)),
        Some((1_000, 7 * PAGE as i64 * 10)),
        Some((0, seg_span / 2)),
    ];
    // One aggregate per memo group it rests on (AVG and MAX rest on
    // what SUM and MIN do), the header-only ones and a sketch.
    let funcs = [
        AggFunc::Sum,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::Variance,
        AggFunc::First,
        AggFunc::Last,
        AggFunc::P95,
    ];
    let rows_bits = |rows: &[Vec<Value>]| -> Vec<Vec<(u8, u64)>> {
        rows.iter()
            .map(|r| r.iter().map(cell_bits).collect())
            .collect()
    };
    let mut cases = 0usize;
    for float in [false, true] {
        // Filters from the S = 64 headers: segment 1's union (pages
        // 64..=127), page 70's bounds, and the S = 7 segment of pages
        // 7..=13, exactly and one past.
        let reference = store(64, float, false);
        let snap = reference.snapshot("s").unwrap();
        assert_eq!(snap.segments.len(), 3, "two full segments and a tail");
        let seg = *snap.segments[1].header();
        let pages: Vec<_> = snap.pages().map(|p| p.header).collect();
        let page = pages[70];
        let filters = [
            Predicate::default(),
            Predicate::value(seg.min_value, seg.max_value),
            Predicate::value(seg.min_value + 1, seg.max_value),
            Predicate::value(page.min_value, page.max_value),
            Predicate::value(page.min_value - 1, page.max_value + 1),
            Predicate::time(seg.first_ts, seg.last_ts),
            Predicate::time(seg.first_ts + 1, seg.last_ts),
            Predicate::time(pages[7].first_ts, pages[13].last_ts),
            Predicate::time(seg.first_ts, seg.last_ts)
                .and(&Predicate::value(seg.min_value, seg.min_value + 40)),
        ];
        for hot in [false, true] {
            let stores = [1, 7, 64].map(|s| (s, store(s, float, hot)));
            for func in funcs {
                for pred in filters {
                    for window in windows {
                        let scan = Plan::scan("s").filter(pred);
                        let plan = match window {
                            Some((t_min, dt)) => scan.window(t_min, dt, func),
                            None => scan.aggregate(func),
                        };
                        let label = format!(
                            "SEGMENTS float={float} hot={hot} {func:?} pred={pred:?} \
                             window={window:?}"
                        );
                        let mut want = None;
                        for (segment_pages, store) in &stores {
                            for threads in [1usize, 2, 8] {
                                let cfg = PipelineConfig {
                                    threads,
                                    ..Default::default()
                                };
                                let label = format!("{label} S={segment_pages} threads={threads}");
                                let run = || {
                                    let got = execute(&plan, store, &cfg)
                                        .unwrap_or_else(|e| panic!("{label}: engine error {e}"));
                                    let s = got.stats;
                                    let counts =
                                        (s.pages_pruned, s.tuples_pruned, s.tuples_scanned);
                                    (got.columns, rows_bits(&got.rows), counts)
                                };
                                PartialCache::global().clear();
                                let cold = run();
                                assert_eq!(run(), cold, "{label}: memo-warm differs from cold");
                                assert_eq!(
                                    want.get_or_insert_with(|| cold.clone()),
                                    &cold,
                                    "{label}: differs from S=1 threads=1"
                                );
                                cases += 2;
                            }
                        }
                        if func.quantile().is_none() {
                            let (ocols, orows) = oracle::execute(&plan, &stores[0].1).unwrap();
                            let (cols, rows, _) = want.unwrap();
                            assert_eq!((cols, rows), (ocols, rows_bits(&orows)), "{label}: oracle");
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 2 * 2 * 7 * 9 * 5 * 3 * 3 * 2);
    eprintln!("differential segment sweep: {cases} cases, every S = pages = oracle");
}

/// Block V: segment morsels. An integer (Stream VByte, the cursor's
/// packed path) and a float series of 150 pages of 8 points, on stores
/// sealing segments of S ∈ {1, 7, 64} pages, so a morsel is at most 1,
/// 7 or 64 pages, or the even cut of a run when runs are fewer than
/// threads. Crossed: no filter, a value band that cuts nearly every
/// page (every page folds), a narrow band that prunes two segments and
/// cuts the third, and a time range with ragged edges × windows absent,
/// of five pages starting mid-page (every bucket cut by morsel bounds),
/// epoch-snapped 48-page buckets (`GROUP BY TIME`-like, cutting 64-page
/// segments), and aligned to 64-page segments × memo cold, warm, and
/// patchy (a few pages memoized first by page-sized queries, so served
/// pages break the runs) × threads 1, 2 and 8 × SUM, AVG, VARIANCE,
/// COUNT, MIN, FIRST, LAST and P95. Rows are bit for bit those of
/// S = 1 at one thread, cold, and, but for P95 (block F holds quantiles
/// to the rank bound), the oracle's.
#[test]
fn morsels_answer_bit_identically_at_any_cut() {
    use etsqp::core::partial::PartialCache;
    use etsqp::encoding::f64_to_ordered_i64;

    const PAGE: usize = 8;
    const PAGES: usize = 150;
    let n = PAGE * PAGES;
    let ts: Vec<i64> = (0..n as i64).map(|i| 1_000 + i * 10).collect();
    let level = |i: i64| (i / (64 * PAGE as i64)) * 1_000;
    let ints: Vec<i64> = (0..n as i64)
        .map(|i| level(i) + (i * 37) % 101 - 50)
        .collect();
    let floats: Vec<f64> = (0..n)
        .map(|i| level(i as i64) as f64 + (i as f64 * 0.37).sin() * 40.0)
        .collect();
    let store = |segment_pages: usize, float: bool| {
        let opts = StoreOptions {
            page_points: PAGE,
            ..StoreOptions::default()
        };
        let store = SeriesStore::with_segment_pages(opts, segment_pages);
        if float {
            store.create_series_f64("s", Encoding::Ts2Diff, Encoding::Chimp);
            for (&t, &v) in ts.iter().zip(&floats) {
                store.append_f64("s", t, v).unwrap();
            }
        } else {
            store.create_series("s", Encoding::Ts2Diff, Encoding::StreamVByte);
            store.append_all("s", &ts, &ints).unwrap();
        }
        store.flush("s").unwrap();
        store
    };
    let span = PAGE as i64 * 10;
    let page_time = |p: i64| (1_000 + p * span, 1_000 + (p + 1) * span - 10);
    let windows = [
        None,
        Some((1_000 + span / 2, 5 * span)),
        Some((0, 48 * span)),
        Some((1_000, 64 * span)),
    ];
    let funcs = [
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Variance,
        AggFunc::Count,
        AggFunc::Min,
        AggFunc::First,
        AggFunc::Last,
        AggFunc::P95,
    ];
    // Page runs memoized before a patchy query: inside segments of every
    // size, so served pages sit between folded ones.
    let patches = [(5, 5), (20, 22), (70, 70), (100, 101)];
    let rows_bits = |rows: &[Vec<Value>]| -> Vec<Vec<(u8, u64)>> {
        rows.iter()
            .map(|r| r.iter().map(cell_bits).collect())
            .collect()
    };
    let mut cases = 0usize;
    for float in [false, true] {
        let key = |v: f64| match float {
            true => f64_to_ordered_i64(v),
            false => v as i64,
        };
        let filters = [
            Predicate::default(),
            Predicate::value(key(-30.0), key(2_030.0)),
            Predicate::value(key(-20.0), key(20.0)),
            Predicate::time(page_time(3).0 + 35, page_time(140).1 - 25),
        ];
        let stores = [1, 7, 64].map(|s| (s, store(s, float)));
        for func in funcs {
            for pred in filters {
                for window in windows {
                    let scan = Plan::scan("s").filter(pred);
                    let plan = match window {
                        Some((t_min, dt)) => scan.window(t_min, dt, func),
                        None => scan.aggregate(func),
                    };
                    let label =
                        format!("MORSELS float={float} {func:?} pred={pred:?} window={window:?}");
                    let mut want = None;
                    for (segment_pages, store) in &stores {
                        for threads in [1usize, 2, 8] {
                            let cfg = PipelineConfig {
                                threads,
                                ..Default::default()
                            };
                            let run = |state: &str| {
                                let label =
                                    format!("{label} S={segment_pages} threads={threads} {state}");
                                let got = execute(&plan, store, &cfg)
                                    .unwrap_or_else(|e| panic!("{label}: engine error {e}"));
                                (label, (got.columns, rows_bits(&got.rows)))
                            };
                            PartialCache::global().clear();
                            let cold = run("cold");
                            let warm = run("warm");
                            PartialCache::global().clear();
                            for (lo, hi) in patches {
                                let (t_lo, t_hi) = (page_time(lo).0, page_time(hi).1);
                                let patch = Plan::scan("s").filter(Predicate::time(t_lo, t_hi));
                                execute(&patch.aggregate(func), store, &cfg).unwrap();
                            }
                            let patchy = run("patchy");
                            for (label, got) in [cold, warm, patchy] {
                                let want = want.get_or_insert_with(|| got.clone());
                                assert_eq!(want, &got, "{label}: differs from S=1 threads=1 cold");
                                cases += 1;
                            }
                        }
                    }
                    if func.quantile().is_none() {
                        let (ocols, orows) = oracle::execute(&plan, &stores[0].1).unwrap();
                        let (cols, rows) = want.unwrap();
                        assert_eq!((cols, rows), (ocols, rows_bits(&orows)), "{label}: oracle");
                    }
                }
            }
        }
    }
    assert_eq!(cases, 2 * 8 * 4 * 4 * 3 * 3 * 3);

    // A quantile's morsel hands back its pages' digests one by one: over
    // 512-point pages the digest tree's merge buffer fills mid-group, so
    // digests merged inside a morsel would be compressed elsewhere.
    let big = |segment_pages: usize| {
        let n = 512 * 130;
        let opts = StoreOptions {
            page_points: 512,
            ..StoreOptions::default()
        };
        let store = SeriesStore::with_segment_pages(opts, segment_pages);
        store.create_series("s", Encoding::Ts2Diff, Encoding::StreamVByte);
        let ts: Vec<i64> = (0..n as i64).map(|i| 1_000 + i * 10).collect();
        let vals: Vec<i64> = (0..n as i64).map(|i| (i * 7_919) % 100_003).collect();
        store.append_all("s", &ts, &vals).unwrap();
        store.flush("s").unwrap();
        store
    };
    let stores = [1, 7, 64].map(|s| (s, big(s)));
    for pred in [Predicate::default(), Predicate::value(1_000, 99_000)] {
        for window in [None, Some((0, 48 * 5_120))] {
            let scan = Plan::scan("s").filter(pred);
            let plan = match window {
                Some((t_min, dt)) => scan.window(t_min, dt, AggFunc::P95),
                None => scan.aggregate(AggFunc::P95),
            };
            let mut want = None;
            for (segment_pages, store) in &stores {
                for threads in [1usize, 2, 8] {
                    let cfg = PipelineConfig {
                        threads,
                        ..Default::default()
                    };
                    PartialCache::global().clear();
                    let got = rows_bits(&execute(&plan, store, &cfg).unwrap().rows);
                    let label = format!("MORSELS P95 pred={pred:?} window={window:?} S={segment_pages} threads={threads}");
                    assert_eq!(want.get_or_insert_with(|| got.clone()), &got, "{label}");
                    cases += 1;
                }
            }
        }
    }
    eprintln!("differential morsel sweep: {cases} cases, every cut = S=1 = oracle");
}

/// Block V, errors: a corrupted page in the middle of a morsel (page 30:
/// inside the first 64-page segment, the 7-page segment of pages 28–34
/// and, at eight threads, the even cut of pages 19–37), and a second one
/// in a later morsel (page 100). Every store and thread count returns
/// the error of S = 1 at one thread, a checksum mismatch: a morsel stops
/// at its first failing page, and morsels report in page order.
#[test]
fn morsels_stop_at_the_first_corrupted_page() {
    use etsqp::storage::page::Page;
    use etsqp::storage::Bytes;

    const PAGE: usize = 8;
    let n = PAGE * 150;
    let ts: Vec<i64> = (0..n as i64).map(|i| 1_000 + i * 10).collect();
    let vals: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101 - 50).collect();
    let flip = |p: &mut Page| {
        let mut v = p.val_bytes.to_vec();
        let mid = v.len() / 2;
        v[mid] ^= 0x10;
        p.val_bytes = Bytes::from(v);
    };
    let plans = [
        Plan::scan("s").aggregate(AggFunc::Sum),
        Plan::scan("s")
            .filter(Predicate::value(-30, 30))
            .aggregate(AggFunc::Variance),
        Plan::scan("s").window(1_040, 5 * PAGE as i64 * 10, AggFunc::Max),
        Plan::scan("s").aggregate(AggFunc::P95),
    ];
    for corrupt in [&[30][..], &[30, 100]] {
        for plan in &plans {
            let mut want: Option<String> = None;
            for segment_pages in [1, 7, 64] {
                let opts = StoreOptions {
                    page_points: PAGE,
                    ..StoreOptions::default()
                };
                let store = SeriesStore::with_segment_pages(opts, segment_pages);
                store.create_series("s", Encoding::Ts2Diff, Encoding::StreamVByte);
                store.append_all("s", &ts, &vals).unwrap();
                store.flush("s").unwrap();
                for &page in corrupt {
                    store.corrupt_page("s", page, flip).unwrap();
                }
                for threads in [1usize, 2, 8] {
                    let cfg = PipelineConfig {
                        threads,
                        ..Default::default()
                    };
                    let label = format!("{corrupt:?} {plan:?} S={segment_pages} threads={threads}");
                    let err = match execute(plan, &store, &cfg) {
                        Ok(r) => panic!("{label}: corruption answered {:?}", r.rows),
                        Err(e) => format!("{e:?}"),
                    };
                    assert!(err.contains("checksum"), "{label}: {err}");
                    assert_eq!(want.get_or_insert_with(|| err.clone()), &err, "{label}");
                }
            }
        }
    }
}
