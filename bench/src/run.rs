//! The measured part of a run: closed-loop callers on their own threads,
//! a warm-up, then equal windows cut by the main thread.
//!
//! Every loop is closed: a caller sends its next query only after the
//! previous answer arrived, because this system's callers (dashboards,
//! `etsqp-serve query`, an ingesting gateway) wait for the reply.
//! Callers over the wire also pause for a seeded think time in between
//! (see `THINK_US`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use etsqp_core::engine::IotDb;
use etsqp_core::exec::StatsSnapshot;
use etsqp_core::plan::{QueryResult, Value};
use etsqp_core::{plan, sql};
use etsqp_serve::client::{Client, Response};
use etsqp_serve::proto::ErrorCode;

use crate::gen::SplitMix64;
use crate::metrics::RUN_SECONDS;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Fixture, LiveInput, Query, LIVE_FUNCS, LIVE_SERIES};

/// How one measurement is cut: warm-up, then `windows` windows.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub warmup: Duration,
    pub window: Duration,
    pub windows: usize,
}

impl Timing {
    /// The untraced run: a 2 s warm-up, then [`RUN_SECONDS`] windows of
    /// one second.
    pub fn fixed() -> Timing {
        Timing {
            warmup: Duration::from_secs(2),
            window: Duration::from_secs(1),
            windows: RUN_SECONDS as usize,
        }
    }

    /// The loops of the traced run: short windows, but a warm-up long
    /// enough for the caches and the serve layer's connections to settle.
    pub fn traced() -> Timing {
        Timing {
            warmup: Duration::from_millis(1500),
            window: Duration::from_millis(120),
            windows: 10,
        }
    }
}

/// Cumulative counters the callers bump and the main thread samples at
/// window edges. Statistics only, hence `Relaxed` throughout.
#[derive(Debug)]
struct Control {
    stop: AtomicBool,
    /// Index of the measured window in progress; [`NOT_MEASURING`] during
    /// warm-up and after the last window.
    window: AtomicUsize,
    queries: AtomicU64,
    tuples: AtomicU64,
    points: AtomicU64,
}

const NOT_MEASURING: usize = usize::MAX;

impl Default for Control {
    fn default() -> Self {
        Control {
            stop: AtomicBool::new(false),
            window: AtomicUsize::new(NOT_MEASURING),
            queries: AtomicU64::new(0),
            tuples: AtomicU64::new(0),
            points: AtomicU64::new(0),
        }
    }
}

/// What was completed inside one measured window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub secs: f64,
    pub queries: u64,
    pub tuples: u64,
    pub points: u64,
}

/// Sums of the engine's own per-query counters (`QueryResult.stats`).
#[derive(Debug, Default, Clone, Copy)]
pub struct StageSums {
    pub queries: u64,
    pub stage_ns: [u64; 7],
    pub steals: u64,
    pub local_pops: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl From<&StatsSnapshot> for StageSums {
    fn from(s: &StatsSnapshot) -> Self {
        StageSums {
            queries: 1,
            // Order of `metrics::STAGES`.
            stage_ns: [
                s.io_ns,
                s.unpack_ns,
                s.delta_ns,
                s.filter_ns,
                s.agg_ns,
                s.merge_ns,
                s.idle_ns,
            ],
            steals: s.steals,
            local_pops: s.local_pops,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
        }
    }
}

impl StageSums {
    fn merge(&mut self, o: &StageSums) {
        self.queries += o.queries;
        for (a, b) in self.stage_ns.iter_mut().zip(o.stage_ns) {
            *a += b;
        }
        self.steals += o.steals;
        self.local_pops += o.local_pops;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
    }
}

/// One caller's record, merged over callers when the loop ends.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Errors, sheds and changed answers — everything that is not a
    /// correct reply.
    pub failed: u64,
    pub sheds: u64,
    pub first_error: Option<String>,
    /// Latencies in nanoseconds, one list per measured window (warm-up
    /// samples are not kept).
    pub latencies_ns: Vec<Vec<u32>>,
    /// Engine counters of the measured windows' in-process queries.
    pub sums: StageSums,
}

impl Tally {
    /// Files one answered query under the window it started in; warm-up
    /// queries are dropped.
    fn record(&mut self, window: usize, latency: Duration, stats: Option<&StatsSnapshot>) {
        if window == NOT_MEASURING {
            return;
        }
        if let Some(stats) = stats {
            self.sums.merge(&StageSums::from(stats));
        }
        if self.latencies_ns.len() <= window {
            self.latencies_ns.resize_with(window + 1, Vec::new);
        }
        self.latencies_ns[window].push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
    }

    /// All measured samples pooled and sorted.
    pub fn pooled_latencies(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self.latencies_ns.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.sheds += o.sheds;
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
        if self.latencies_ns.len() < o.latencies_ns.len() {
            self.latencies_ns
                .resize_with(o.latencies_ns.len(), Vec::new);
        }
        for (mine, theirs) in self.latencies_ns.iter_mut().zip(o.latencies_ns) {
            mine.extend(theirs);
        }
        self.sums.merge(&o.sums);
    }
}

pub struct RunOutput {
    pub windows: Vec<Window>,
    pub tally: Tally,
    /// Spans of every caller, when the run was traced.
    pub tracer: Option<Tracer>,
}

/// Runs `f` under a span when tracing is on.
fn spanned<R>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u32,
    f: impl FnOnce() -> R,
) -> R {
    let id = tracer.as_mut().map(|t| t.begin(name, parent, request));
    let out = f();
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.end(id);
    }
    out
}

/// One in-process query. Untraced it is `IotDb::query`; traced it is the
/// two public calls `IotDb::query` makes, with a span around each.
fn query_in_process(
    db: &IotDb,
    sql_text: &str,
    tracer: &mut Option<Tracer>,
    root: Option<SpanId>,
    request: u32,
) -> Result<QueryResult, String> {
    if tracer.is_none() {
        return db.query(sql_text).map_err(|e| e.to_string());
    }
    let stmt = spanned(tracer, "core.sql.parse_statement", root, request, || {
        sql::parse_statement(sql_text)
    });
    let sql::Statement::Query(parsed) = stmt.map_err(|e| e.to_string())? else {
        return Err("workload SQL is not a query".into());
    };
    spanned(tracer, "core.plan.execute", root, request, || {
        plan::execute(&parsed, db.store(), &db.options().pipeline)
    })
    .map_err(|e| e.to_string())
}

/// Think time of a wire caller between an answer and its next request,
/// in microseconds, drawn uniformly and not counted in the latency.
///
/// A connection handler of `serve` sleeps 300 us whenever it has nothing
/// to do. A caller that answers at once meets that sleep in one of two
/// fixed phases, chosen by where the scheduler put the threads: the
/// request is read at once and only the result is waited for (median near
/// 390 us), or both are (near 760 us). Which one a run got, or how its
/// windows split between them, is not the program's doing. A think time
/// that spans about three of those sleeps puts every request at a
/// uniformly random phase, so one run samples the whole of the handler's
/// behaviour and its median does not jump with where the threads landed.
const THINK_US: (i64, i64) = (100, 1099);
/// Fork label of caller 0's think-time stream.
const THINK_STREAM: u64 = 0x7417_0000;

/// Tuples a query covered and, for an in-process query, the engine's
/// counters.
type Answer = (u64, Option<StatsSnapshot>);

/// One closed-loop caller: in process, or over one
/// `serve::client::Client` connection.
struct Caller<'a> {
    db: &'a IotDb,
    client: Option<Client>,
    tracer: Option<Tracer>,
    /// Seeded think times before each request; wire callers only.
    think: Option<SplitMix64>,
}

impl Caller<'_> {
    /// Issues `q` and checks the answer against the verified one.
    /// Returns the tuples the query covered and, in process, the engine's
    /// counters for it.
    fn call(&mut self, q: &Query, request: u32, tally: &mut Tally) -> Result<Answer, String> {
        let root = self
            .tracer
            .as_mut()
            .map(|t| t.begin("bench.request", None, request));
        let out = self.call_under(q, root, request, tally);
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), root) {
            t.end(id);
        }
        out
    }

    fn call_under(
        &mut self,
        q: &Query,
        root: Option<SpanId>,
        request: u32,
        tally: &mut Tally,
    ) -> Result<Answer, String> {
        let tracer = &mut self.tracer;
        let (columns, rows, answer) = match self.client.as_mut() {
            None => {
                let r = query_in_process(self.db, &q.sql, tracer, root, request)?;
                (r.columns, r.rows, (r.stats.tuples_total(), Some(r.stats)))
            }
            Some(client) => {
                let response = spanned(tracer, "serve.client.query", root, request, || {
                    client.query(&q.sql)
                });
                match response {
                    Ok(Response::Rows(r)) => (r.columns, r.rows, (q.tuples, None)),
                    // A typed shed is a failure too: the caller got no
                    // answer, and it is not retried out of the count.
                    Ok(Response::ServerError(e)) => {
                        if e.code == ErrorCode::Overloaded {
                            tally.sheds += 1;
                        }
                        return Err(format!("{}: server error: {e}", q.sql));
                    }
                    Err(e) => return Err(format!("{}: client error: {e}", q.sql)),
                }
            }
        };
        let same = spanned(tracer, "bench.check", root, request, || {
            q.accepts(&columns, &rows)
        });
        if same {
            Ok(answer)
        } else {
            Err(format!("{}: answer differs from the verified one", q.sql))
        }
    }
}

fn client_loop(
    ctl: &Control,
    queries: &[Query],
    first: usize,
    stride: u32,
    mut caller: Caller,
) -> (Tally, Option<Tracer>) {
    let mut tally = Tally::default();
    let mut k = first;
    let mut request = first as u32;
    while !ctl.stop.load(Ordering::Relaxed) {
        if let Some(rng) = caller.think.as_mut() {
            let (lo, hi) = THINK_US;
            std::thread::sleep(Duration::from_micros(rng.range(lo, hi) as u64));
        }
        let q = &queries[k % queries.len()];
        k += 1;
        request = request.wrapping_add(stride);
        let window = ctl.window.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let out = caller.call(q, request, &mut tally);
        let dt = t0.elapsed();
        tally.attempted += 1;
        match out {
            Ok((tuples, stats)) => {
                ctl.queries.fetch_add(1, Ordering::Relaxed);
                ctl.tuples.fetch_add(tuples, Ordering::Relaxed);
                tally.record(window, dt, stats.as_ref());
            }
            Err(e) => {
                tally.fail(e);
                // A broken connection fails every call; do not spin.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    (tally, caller.tracer)
}

/// Warm-up, then `timing.windows` windows; runs on the main thread while
/// the callers run. Window lengths are measured, not assumed.
fn drive_windows(ctl: &Control, timing: &Timing) -> Vec<Window> {
    let sample = || {
        (
            Instant::now(),
            ctl.queries.load(Ordering::Relaxed),
            ctl.tuples.load(Ordering::Relaxed),
            ctl.points.load(Ordering::Relaxed),
        )
    };
    std::thread::sleep(timing.warmup);
    ctl.window.store(0, Ordering::Relaxed);
    let start = Instant::now();
    let mut prev = sample();
    let mut windows = Vec::with_capacity(timing.windows);
    for i in 1..=timing.windows {
        let due = start + timing.window * i as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let now = sample();
        ctl.window.store(
            if i < timing.windows { i } else { NOT_MEASURING },
            Ordering::Relaxed,
        );
        windows.push(Window {
            secs: now.0.duration_since(prev.0).as_secs_f64(),
            queries: now.1 - prev.1,
            tuples: now.2 - prev.2,
            points: now.3 - prev.3,
        });
        prev = now;
    }
    ctl.stop.store(true, Ordering::Relaxed);
    windows
}

fn finish(
    windows: Vec<Window>,
    parts: Vec<(Tally, Option<Tracer>)>,
    epoch: Option<Instant>,
) -> RunOutput {
    let mut tally = Tally::default();
    let mut tracer = epoch.map(Tracer::new);
    for (t, tr) in parts {
        tally.merge(t);
        if let (Some(all), Some(tr)) = (tracer.as_mut(), tr) {
            all.absorb(tr);
        }
    }
    for window in &mut tally.latencies_ns {
        window.sort_unstable();
    }
    RunOutput {
        windows,
        tally,
        tracer,
    }
}

/// Runs `clients` closed-loop callers over the fixture's query list —
/// over the wire when `wire` is set, in process otherwise. Caller `c`
/// starts `c/clients` of the way into the list, so callers never march
/// in step. `trace_epoch` turns span recording on.
pub fn closed_loop(
    fx: &Fixture,
    clients: usize,
    wire: bool,
    timing: &Timing,
    trace_epoch: Option<Instant>,
) -> RunOutput {
    let ctl = Control::default();
    let addr = fx.server.as_ref().map(|s| s.addr());
    let (windows, parts) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let ctl = &ctl;
                s.spawn(move || {
                    let client = if wire {
                        let connected = addr
                            .ok_or_else(|| "no server".to_string())
                            .and_then(|a| Client::connect(a).map_err(|e| e.to_string()));
                        match connected {
                            Ok(client) => Some(client),
                            Err(e) => {
                                let mut tally = Tally {
                                    attempted: 1,
                                    ..Tally::default()
                                };
                                tally.fail(format!("connect: {e}"));
                                return (tally, None);
                            }
                        }
                    } else {
                        None
                    };
                    let caller = Caller {
                        db: &fx.db,
                        client,
                        tracer: trace_epoch.map(Tracer::new),
                        think: wire.then(|| SplitMix64::new(fx.seed).fork(THINK_STREAM + c as u64)),
                    };
                    let first = c * fx.queries.len() / clients;
                    client_loop(ctl, &fx.queries, first, clients as u32, caller)
                })
            })
            .collect();
        let windows = drive_windows(&ctl, timing);
        let parts = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect();
        (windows, parts)
    });
    finish(windows, parts, trace_epoch)
}

/// One epoch of `ingest_live`: a fresh database and how far its writer is.
struct Epoch {
    number: u64,
    db: IotDb,
    /// Points appended per series so far (published with `Release` after
    /// the appends it counts, read with `Acquire` before querying them).
    written: AtomicUsize,
}

/// Points per series between two progress publications.
const LIVE_BATCH: usize = 64;

fn live_writer(
    ctl: &Control,
    input: &LiveInput,
    current: &Mutex<Arc<Epoch>>,
    mut tracer: Option<Tracer>,
) -> (Tally, Option<Tracer>) {
    let mut tally = Tally::default();
    let n = input.points_per_series();
    let mut number = 0u64;
    'epochs: loop {
        let epoch = current.lock().expect("epoch lock").clone();
        for start in (0..n).step_by(LIVE_BATCH) {
            if ctl.stop.load(Ordering::Relaxed) {
                break 'epochs;
            }
            let end = (start + LIVE_BATCH).min(n);
            let span = tracer
                .as_mut()
                .map(|t| t.begin("storage.append", None, number as u32));
            for i in start..end {
                for (s, name) in input.names.iter().enumerate() {
                    tally.attempted += 1;
                    if let Err(e) = epoch.db.append(name, input.ts[s][i], input.vals[s][i]) {
                        tally.fail(format!("append to {name}: {e}"));
                    }
                }
            }
            let acked = ((end - start) * LIVE_SERIES) as u64;
            if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                t.end_counted(id, acked);
            }
            epoch.written.store(end, Ordering::Release);
            ctl.points.fetch_add(acked, Ordering::Relaxed);
        }
        number += 1;
        *current.lock().expect("epoch lock") = Arc::new(Epoch {
            number,
            db: input.fresh_db(),
            written: AtomicUsize::new(0),
        });
    }
    (tally, tracer)
}

fn live_querier(
    ctl: &Control,
    fx: &Fixture,
    input: &LiveInput,
    current: &Mutex<Arc<Epoch>>,
    mut tracer: Option<Tracer>,
) -> (Tally, Option<Tracer>) {
    let mut tally = Tally::default();
    let mut epoch = current.lock().expect("epoch lock").clone();
    let mut k = 0usize;
    while !ctl.stop.load(Ordering::Relaxed) {
        let latest = current.lock().expect("epoch lock").clone();
        if latest.number != epoch.number {
            // The epoch we were reading is complete and no longer
            // written: it must now answer exactly like the reference.
            // One series per epoch (its three functions), in rotation.
            let series = epoch.number as usize % LIVE_SERIES;
            for q in fx.queries.iter().skip(series).step_by(LIVE_SERIES) {
                tally.attempted += 1;
                match epoch.db.query(&q.sql) {
                    Ok(r) if q.accepts(&r.columns, &r.rows) => {}
                    Ok(_) => {
                        tally.fail(format!("{}: finished epoch differs from reference", q.sql))
                    }
                    Err(e) => tally.fail(format!("{}: {e}", q.sql)),
                }
            }
            epoch = latest;
        }
        let written = epoch.written.load(Ordering::Acquire);
        if written == 0 {
            std::thread::yield_now();
            continue;
        }
        let s = k % LIVE_SERIES;
        let func = LIVE_FUNCS[(k / LIVE_SERIES) % LIVE_FUNCS.len()];
        k += 1;
        let sql_text = input.trailing_sql(s, written, func);
        let window = ctl.window.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let root = tracer
            .as_mut()
            .map(|t| t.begin("bench.request", None, k as u32));
        let result = query_in_process(&epoch.db, &sql_text, &mut tracer, root, k as u32);
        if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
            t.end(id);
        }
        let dt = t0.elapsed();
        tally.attempted += 1;
        match result {
            Ok(r) => {
                // The writer runs on, so the answer has no fixed value;
                // COUNT at least must cover what was in when we asked.
                let floor = (written - written * 3 / 4) as i64;
                let plausible = func != "COUNT"
                    || matches!(r.rows.as_slice(), [row] if matches!(row.as_slice(), [Value::Int(c)] if *c >= floor));
                if !plausible {
                    tally.fail(format!("{sql_text}: count below the points already in"));
                    continue;
                }
                ctl.queries.fetch_add(1, Ordering::Relaxed);
                ctl.tuples
                    .fetch_add(r.stats.tuples_total(), Ordering::Relaxed);
                tally.record(window, dt, Some(&r.stats));
            }
            Err(e) => tally.fail(format!("{sql_text}: {e}")),
        }
    }
    (tally, tracer)
}

/// `ingest_live`: one writer appending single points round-robin over the
/// series into a fresh database per epoch, one querier asking for the
/// trailing quarter of whatever is in (sealed pages and the hot chunk).
pub fn live_loop(fx: &Fixture, timing: &Timing, trace_epoch: Option<Instant>) -> RunOutput {
    let input = fx.live.as_ref().expect("ingest_live fixture has input");
    let ctl = Control::default();
    let current = Mutex::new(Arc::new(Epoch {
        number: 0,
        db: input.fresh_db(),
        written: AtomicUsize::new(0),
    }));
    let (windows, parts) = std::thread::scope(|s| {
        let (ctl, current) = (&ctl, &current);
        let writer =
            s.spawn(move || live_writer(ctl, input, current, trace_epoch.map(Tracer::new)));
        let querier =
            s.spawn(move || live_querier(ctl, fx, input, current, trace_epoch.map(Tracer::new)));
        let windows = drive_windows(ctl, timing);
        let parts = [writer, querier]
            .into_iter()
            .map(|h| h.join().expect("live thread panicked"))
            .collect();
        (windows, parts)
    });
    finish(windows, parts, trace_epoch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_windows_fill_the_stated_run_length() {
        let t = Timing::fixed();
        assert_eq!(
            t.window * t.windows as u32,
            Duration::from_secs(RUN_SECONDS)
        );
    }

    #[test]
    fn windows_difference_cumulative_counters() {
        let ctl = Control::default();
        let timing = Timing {
            warmup: Duration::from_millis(1),
            window: Duration::from_millis(5),
            windows: 3,
        };
        let windows = std::thread::scope(|s| {
            s.spawn(|| {
                while !ctl.stop.load(Ordering::Relaxed) {
                    ctl.queries.fetch_add(1, Ordering::Relaxed);
                    ctl.tuples.fetch_add(10, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(100));
                }
            });
            drive_windows(&ctl, &timing)
        });
        assert_eq!(windows.len(), 3);
        for w in &windows {
            assert!(w.secs >= 0.004, "window of {} s", w.secs);
            assert!(w.queries > 0 && w.tuples > 0);
        }
        assert!(ctl.stop.load(Ordering::Relaxed));
    }
}
