//! `etsqp-spine`: the repo's benchmark. One seeded binary, five workloads,
//! six end-to-end metrics and a kernel-to-wire layer waterfall.
//!
//! ```text
//! etsqp-spine --workload <name|all> --seed <n> --trace <0|1> [--out FILE]
//! etsqp-spine compare A.json B.json
//! ```
//!
//! The run length is fixed (`metrics::RUN_SECONDS`); `--seconds` is taken
//! only with that value, so the acceptance driver's command line parses.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that gives the per-layer
//! numbers. The last line of standard output is the result as one JSON
//! object; the exit code is non-zero when any operation failed a check.
//! See `bench/README.md` for the workloads, metrics and sizes.

mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use etsqp_core::partial::PartialCache;

use json::Json;
use metrics::RUN_SECONDS;
use report::{Measured, WorkloadReport};
use run::{RunOutput, Timing, Window};
use stats::{percentile, share, summarize, MIN_BEYOND};
use workloads::{Fixture, Kind};

/// Counted set-ups per run: at least five, and for stores that build in
/// milliseconds as many as fit in one second (at most 100), so that
/// `setup_s`, their median, is not the timing of a few 4 ms events. One
/// more set-up runs first and is not counted: it alone pays the process's
/// first page faults (half as long again on the scan stores), which with
/// five samples would sit inside the upper quartile.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Spans written per workload to the span dump, at most.
const SPAN_DUMP_LIMIT: usize = 20_000;
/// Wall time each stand-alone layer measurement of the traced run gets.
const LAYER_SLICE: Duration = Duration::from_millis(60);

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    out: Option<PathBuf>,
}

enum Mode {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

const USAGE: &str = "usage: etsqp-spine --workload <name|all> --seed <n> --trace <0|1> \
[--out FILE]\n       etsqp-spine compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv {
            [_, a, b] => Ok(Mode::Compare(a.into(), b.into())),
            _ => Err("compare takes exactly two files".into()),
        };
    }
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            // Not a knob: the driver passes `run_seconds`, nothing else fits.
            "--seconds" => {
                if value.parse() != Ok(RUN_SECONDS as f64) {
                    return Err(format!(
                        "the run length is fixed at {RUN_SECONDS} s; --seconds {value} refused"
                    ));
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out" => args.out = Some(value.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && Kind::from_name(&args.workload).is_none() {
        return Err(format!("unknown workload {}", args.workload));
    }
    Ok(Mode::Run(args))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn per_window(windows: &[Window], f: impl Fn(&Window) -> u64) -> Vec<f64> {
    windows.iter().map(|w| f(w) as f64 / w.secs).collect()
}

/// A pooled latency percentile in microseconds, with the quartiles of the
/// same percentile taken window by window.
fn latency_metric(name: &str, out: &RunOutput, pooled: &[u32], wanted: f64) -> Measured {
    let p = percentile(pooled, wanted, MIN_BEYOND);
    let by_window: Vec<f64> = out
        .tally
        .latencies_ns
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, wanted, MIN_BEYOND).value / 1e3)
        .collect();
    let s = summarize(&by_window);
    Measured {
        name: name.to_string(),
        unit: "us",
        value: p.value / 1e3,
        n: p.n,
        quartiles: Some((s.q1, s.q3)),
    }
}

/// One warm-up-then-windows measurement. Every loop starts from an empty
/// partial cache and from the head of the query list, so what the cache
/// holds when the windows open depends on the workload alone, not on
/// where an earlier loop happened to stop.
///
/// `wire_short`'s in-process reference loop (the same SQL without the
/// serve layer) runs with `dash_short`'s caller count.
fn measure_loop(fx: &Fixture, wire: bool, timing: &Timing, epoch: Option<Instant>) -> RunOutput {
    PartialCache::global().clear();
    match fx.kind {
        Kind::IngestLive => run::live_loop(fx, timing, epoch),
        Kind::WireShort if !wire => {
            run::closed_loop(fx, Kind::DashShort.clients(nproc()), false, timing, epoch)
        }
        kind => run::closed_loop(fx, kind.clients(nproc()), wire, timing, epoch),
    }
}

fn gate_notes(checks: &workloads::Checks, clients: usize, timing: &Timing) -> Vec<(String, Json)> {
    vec![
        ("clients".into(), Json::from(clients as u64)),
        ("warmup_s".into(), Json::from(timing.warmup.as_secs_f64())),
        ("window_s".into(), Json::from(timing.window.as_secs_f64())),
        ("windows".into(), Json::from(timing.windows as u64)),
        ("oracle_checks".into(), Json::from(checks.oracle_checks)),
        ("wire_checks".into(), Json::from(checks.wire_checks)),
        ("check_mismatches".into(), Json::from(checks.mismatches)),
    ]
}

/// The untraced run: repeated set-ups, the correctness gate, then the
/// measured windows. Reports every end-to-end metric.
fn end_to_end(kind: Kind, seed: u64) -> WorkloadReport {
    PartialCache::global().clear();
    let mut setup_secs = Vec::new();
    let mut fixture: Option<Fixture> = None;
    let begun = Instant::now();
    while setup_secs.len() <= MIN_SETUPS
        || (setup_secs.len() <= MAX_SETUPS && begun.elapsed() < SETUP_BUDGET)
    {
        // Drop the previous store first, so the peak holds one at a time.
        if let Some(old) = fixture.take() {
            old.teardown();
        }
        let t = Instant::now();
        let fx = workloads::setup(kind, seed);
        setup_secs.push(t.elapsed().as_secs_f64());
        fixture = Some(fx);
    }
    let mut fx = fixture.expect("at least one set-up");
    let setup_secs = &setup_secs[1..];
    let checks = workloads::verify(&mut fx);
    let timing = Timing::fixed();
    let out = measure_loop(&fx, kind == Kind::WireShort, &timing, None);
    // Read before the harness pools and sorts its latency samples: a copy
    // of a few MiB that is the benchmark's memory, not the system's.
    let peak_rss = peak_rss_mib();

    let (points, stored_bytes) = (fx.points, fx.stored_bytes);
    let server = fx.teardown();
    let proto_errors = server.map_or(0, |s| s.proto_errors);
    let pooled = out.tally.pooled_latencies();
    let p99 = percentile(&pooled, 0.99, MIN_BEYOND);

    let metrics = vec![
        Measured::from_summary("setup_s", "s", summarize(setup_secs)),
        Measured::from_summary(
            "queries_per_s",
            "queries/s",
            summarize(&per_window(&out.windows, |w| w.queries)),
        ),
        latency_metric("query_p50_us", &out, &pooled, 0.5),
        latency_metric("query_p99_us", &out, &pooled, 0.99),
        Measured::single(
            "stored_bytes_per_point",
            "bytes/point",
            stored_bytes as f64 / points as f64,
        ),
        Measured::single("peak_rss_mib", "MiB", peak_rss),
    ];
    debug_assert!(metrics
        .iter()
        .zip(&metrics::END_TO_END)
        .all(|(m, def)| m.name == def.name && m.unit == def.unit));

    let mut notes = gate_notes(&checks, kind.clients(nproc()), &timing);
    notes.push(("latency_samples".into(), Json::from(pooled.len() as u64)));
    notes.push(("p99_reported_as".into(), Json::from(p99.reported)));
    notes.push(("sheds".into(), Json::from(out.tally.sheds)));
    notes.push(("proto_errors".into(), Json::from(proto_errors)));
    WorkloadReport {
        workload: kind.name(),
        traced: false,
        attempted: out.tally.attempted + checks.oracle_checks + checks.wire_checks,
        failed: out.tally.failed + checks.mismatches + proto_errors,
        first_error: checks.first_mismatch.or(out.tally.first_error),
        notes,
        metrics,
        layers: Default::default(),
    }
}

fn median_latency_us(out: &RunOutput) -> f64 {
    percentile(&out.tally.pooled_latencies(), 0.5, MIN_BEYOND).value / 1e3
}

/// What the loops of a traced run attempted and failed, summed.
struct Gate {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

/// Median latencies of one loop run twice back to back — untraced, then
/// traced — with the untraced one's throughputs (medians over its windows)
/// and the engine counters of the traced one.
#[derive(Clone, Copy)]
struct LoopPair {
    plain_us: f64,
    traced_us: f64,
    tuples_per_s: f64,
    points_per_s: f64,
    sums: run::StageSums,
}

fn loop_pair(
    fx: &Fixture,
    wire: bool,
    timing: &Timing,
    epoch: Instant,
    tracer: &mut trace::Tracer,
    gate: &mut Gate,
) -> LoopPair {
    let plain = measure_loop(fx, wire, timing, None);
    let spanned = measure_loop(fx, wire, timing, Some(epoch));
    let pair = LoopPair {
        plain_us: median_latency_us(&plain),
        traced_us: median_latency_us(&spanned),
        tuples_per_s: summarize(&per_window(&plain.windows, |w| w.tuples)).median,
        points_per_s: summarize(&per_window(&plain.windows, |w| w.points)).median,
        sums: spanned.tally.sums,
    };
    for out in [plain, spanned] {
        gate.attempted += out.tally.attempted;
        gate.failed += out.tally.failed;
        if gate.first_error.is_none() {
            gate.first_error = out.tally.first_error;
        }
        if let Some(t) = out.tracer {
            tracer.absorb(t);
        }
    }
    pair
}

/// The traced run: each layer timed alone on the workload's own inputs,
/// then the workload's loop untraced and traced, back to back in one
/// process. Reports every per-layer metric; end-to-end metrics never
/// come from here.
fn traced(kind: Kind, seed: u64, spans_out: Option<&Path>) -> WorkloadReport {
    PartialCache::global().clear();
    let mut fx = workloads::setup(kind, seed);
    let checks = workloads::verify(&mut fx);

    let epoch = Instant::now();
    let mut tracer = trace::Tracer::new(epoch);
    let root = tracer.begin("bench.layers", None, 0);
    let mut values = layers::measure(&fx, LAYER_SLICE, &mut tracer, root);
    tracer.end(root);
    values.insert(
        "storage.load_points_per_s".into(),
        fx.points as f64 / fx.load_secs,
    );

    // Exact bytes the engine reads per query: one pass over the distinct
    // queries against the store's own I/O counters.
    let mut gate = Gate {
        attempted: checks.oracle_checks + checks.wire_checks,
        failed: checks.mismatches,
        first_error: checks.first_mismatch.clone(),
    };
    let io = fx.db.store().io();
    io.reset();
    for q in &fx.queries {
        gate.attempted += 1;
        gate.failed += u64::from(fx.db.query(&q.sql).is_err());
    }
    values.insert(
        "storage.bytes_read_per_query".into(),
        io.bytes_read() as f64 / fx.queries.len() as f64,
    );

    let timing = Timing::traced();
    let wire = kind == Kind::WireShort;
    let in_process = loop_pair(&fx, false, &timing, epoch, &mut tracer, &mut gate);
    // The workload's own path: over the wire for wire_short.
    let path = if wire {
        loop_pair(&fx, true, &timing, epoch, &mut tracer, &mut gate)
    } else {
        in_process
    };
    let sums = in_process.sums;
    values.insert("tuples_per_s".into(), path.tuples_per_s);
    values.insert("ingest_points_per_s".into(), path.points_per_s);
    values.insert(
        "core.partial.entries".into(),
        PartialCache::global().len() as f64,
    );
    let server = fx.teardown();

    let layer_totals = trace::layer_totals(tracer.spans());
    // Medians throughout, so the parts can be set against the median
    // latency: a whole-range P95 costs fifteen narrow sums and drags means.
    let execute = layer_totals
        .get("core.plan.execute")
        .copied()
        .unwrap_or_default();
    let execute_us = execute.median_ns as f64 / 1e3;
    let run_us = (execute_us - values["core.pipe.compile_us"]).max(0.0);
    values.insert("core.exec.run_us".into(), run_us);
    for (stage, ns) in metrics::STAGES.iter().zip(sums.stage_ns) {
        values.insert(
            format!("core.exec.stage_ns.{stage}"),
            share(ns, sums.queries),
        );
    }
    values.insert(
        "core.exec.steal_ratio".into(),
        share(sums.steals, sums.steals + sums.local_pops),
    );
    values.insert(
        "core.partial.hit_ratio".into(),
        share(sums.cache_hits, sums.cache_hits + sums.cache_misses),
    );
    let (shed, admitted, proto_errors) =
        server.map_or((0, 0, 0), |s| (s.shed, s.admitted, s.proto_errors));
    gate.failed += proto_errors;
    values.insert(
        "serve.admission.shed_ratio".into(),
        share(shed, shed + admitted),
    );
    values.insert("serve.admission.admitted".into(), admitted as f64);
    values.insert(
        "serve.conn.wire_overhead_us".into(),
        if wire {
            path.plain_us - in_process.plain_us
        } else {
            0.0
        },
    );
    values.insert(
        "trace.overhead_ratio".into(),
        path.traced_us / path.plain_us,
    );
    // What the separately measured layers leave unexplained of the
    // workload's median latency (base: `path_p50_us` in the notes).
    let serve_us: f64 = [
        "serve.conn.ping_rtt_us",
        "serve.proto.encode_us",
        "serve.proto.decode_us",
    ]
    .iter()
    .map(|k| values.get(*k).copied().unwrap_or(0.0))
    .sum();
    let explained =
        values["core.sql.parse_us"] + values["core.pipe.compile_us"] + run_us + serve_us;
    values.insert("trace.unreconciled_us".into(), path.plain_us - explained);
    values.insert("failed_ratio".into(), share(gate.failed, gate.attempted));

    let metrics = metrics::per_layer()
        .into_iter()
        .map(|def| {
            // A layer the workload never enters reports 0.
            let value = values.get(&def.name).copied().unwrap_or(0.0);
            Measured::single(&def.name, def.unit, value)
        })
        .collect();

    if let Some(path) = spans_out {
        let dump = trace::dump(tracer.spans(), SPAN_DUMP_LIMIT);
        if let Err(e) = write_file(path, &dump.to_string()) {
            eprintln!("etsqp-spine: {e}");
        }
    }
    let mut notes = gate_notes(&checks, kind.clients(nproc()), &timing);
    notes.push(("path_p50_us".into(), Json::from(path.plain_us)));
    notes.push(("path_p50_traced_us".into(), Json::from(path.traced_us)));
    notes.push(("in_process_p50_us".into(), Json::from(in_process.plain_us)));
    notes.push(("execute_span_median_us".into(), Json::from(execute_us)));
    notes.push(("explained_us".into(), Json::from(explained)));
    notes.push((
        "spans_recorded".into(),
        Json::from(tracer.spans().len() as u64),
    ));
    WorkloadReport {
        workload: kind.name(),
        traced: true,
        attempted: gate.attempted,
        failed: gate.failed,
        first_error: gate.first_error,
        notes,
        metrics,
        layers: layer_totals,
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn spans_path(out: &Path) -> PathBuf {
    out.with_extension("spans.json")
}

fn run_one(kind: Kind, args: &Args) -> Result<bool, String> {
    let report = if args.trace {
        let spans = args.out.as_deref().map(spans_path);
        traced(kind, args.seed, spans.as_deref())
    } else {
        end_to_end(kind, args.seed)
    };
    report.print_table();
    if let Some(path) = &args.out {
        let stamp = report::stamp(args.seed, args.trace);
        write_file(
            path,
            &report::document(stamp, vec![report.to_json()]).pretty(),
        )?;
    }
    println!("{}", report.driver_line());
    Ok(report.correct())
}

/// `--workload all`: one child process per workload — the very command
/// the acceptance driver runs, so peak memory, thread pools and caches
/// are each workload's own — merged into one document.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut entries = Vec::new();
    let mut correct = true;
    for kind in Kind::ALL {
        let part = args
            .out
            .as_ref()
            .map(|out| out.with_extension(format!("{}.json", kind.name())));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(part) = &part {
            cmd.arg("--out").arg(part);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", kind.name()))?;
        correct &= status.success();
        if let Some(part) = &part {
            let text =
                std::fs::read_to_string(part).map_err(|e| format!("{}: {e}", part.display()))?;
            let doc = Json::parse(&text)?;
            entries.extend(
                doc.get("workloads")
                    .and_then(Json::as_arr)
                    .ok_or("child wrote no workloads")?
                    .iter()
                    .cloned(),
            );
            std::fs::remove_file(part).map_err(|e| format!("{}: {e}", part.display()))?;
        }
    }
    if let Some(out) = &args.out {
        let stamp = report::stamp(args.seed, args.trace);
        write_file(out, &report::document(stamp, entries).pretty())?;
        println!("wrote {}", out.display());
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Mode::Compare(a, b)) => {
            let load = |p: &Path| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{}: {e}", p.display()))
                    .and_then(|text| {
                        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
                    })
            };
            load(&a)
                .and_then(|da| Ok((da, load(&b)?)))
                .and_then(|(da, db)| compare::compare(&da, &db))
                .map(|rows| !compare::print(&rows))
        }
        Ok(Mode::Run(args)) => match Kind::from_name(&args.workload) {
            Some(kind) => run_one(kind, &args),
            None => run_all(&args),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("etsqp-spine: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Mode, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let Ok(Mode::Run(a)) = args(&[
            "--workload",
            "wire_short",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]) else {
            panic!("must parse");
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("wire_short", 7, true)
        );
        assert!(a.out.is_none());
        assert!(matches!(
            args(&["compare", "a", "b"]),
            Ok(Mode::Compare(..))
        ));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--seconds", "20"],
            &["--rows", "5"],
            &["compare", "only-one"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` at the repo root states the same contract as
    /// `metrics.rs`; this keeps the two in step.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), metrics::END_TO_END.len());
        for (got, want) in e2e.iter().zip(&metrics::END_TO_END) {
            assert_eq!(got.get("name").and_then(Json::as_str), Some(want.name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(want.unit));
            assert_eq!(
                got.get("better").and_then(Json::as_str),
                Some(want.better.as_str())
            );
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        let defs = metrics::per_layer();
        assert_eq!(layer.len(), defs.len());
        for (got, want) in layer.iter().zip(&defs) {
            assert_eq!(
                got.get("name").and_then(Json::as_str),
                Some(want.name.as_str())
            );
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(want.unit));
            assert_eq!(
                got.get("better").and_then(Json::as_str),
                Some(want.better.as_str())
            );
        }
        for (w, def) in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&metrics::WORKLOADS)
        {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(def.why));
        }
    }

    /// The benchmark is a package of its own, so it cannot inherit the
    /// repo's release profile; it restates it, and this keeps the copy from
    /// drifting (a different profile measures different code).
    #[test]
    fn release_profile_is_the_repos() {
        let profile = |path: &str| -> Vec<String> {
            let text = std::fs::read_to_string(path).expect(path);
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split_whitespace().collect::<String>())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let own = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let repo = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(!repo.is_empty());
        assert_eq!(own, repo);
    }
}
