//! Job scheduler and execution statistics.
//!
//! Pipeline jobs (built by Algorithm 2 in [`crate::physical::pipe`]) are
//! independent units of work: an aggregation's job is a morsel, a run of
//! one segment's pages, and a row scan's is a page. [`run_jobs`] runs
//! them morsel-driven on the process-wide persistent worker pool
//! ([`crate::pool`]): the calling thread and the pool's runner tasks
//! claim morsels from one cursor per batch. Runners never wait on each
//! other (partials are combined by a sequential merge after the
//! parallel phase), so the only blocking is the calling thread's wait
//! for the batch's last morsels, which is measured and reported as idle
//! time. A morsel counts into an [`ExecStats`] of its own and
//! [`ExecStats::absorb`]s it into the query's once, so its pages share
//! no counter's cache line with another thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::cancel::CancellationToken;
use crate::{Error, Result};

/// Stage-level counters for one query execution (Figure 14(b)'s staged
/// time breakdown and the idle/materialization accounting of 14(c-d)).
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Pages whose payloads were loaded.
    pub pages_loaded: AtomicU64,
    /// Pages skipped entirely by pruning.
    pub pages_pruned: AtomicU64,
    /// Tuples covered by loaded work items.
    pub tuples_scanned: AtomicU64,
    /// Tuples skipped by pruning (counted toward throughput per §VII-B).
    pub tuples_pruned: AtomicU64,
    /// Nanoseconds distributing pages / touching encoded bytes.
    pub io_ns: AtomicU64,
    /// Nanoseconds in bit-unpacking.
    pub unpack_ns: AtomicU64,
    /// Nanoseconds in Delta accumulation / RLE flattening.
    pub delta_ns: AtomicU64,
    /// Nanoseconds in filtering (mask generation).
    pub filter_ns: AtomicU64,
    /// Nanoseconds in aggregation.
    pub agg_ns: AtomicU64,
    /// Nanoseconds in merge nodes (sequential combine).
    pub merge_ns: AtomicU64,
    /// Nanoseconds the calling thread waited for its batch's last
    /// morsels and runner tasks (pool scheduler).
    pub idle_ns: AtomicU64,
    /// Bytes of decoded vectors materialized to memory (ablation 14(d)).
    pub materialized_bytes: AtomicU64,
    /// Morsels the calling thread claimed from its own batch (pool
    /// scheduler).
    pub local_pops: AtomicU64,
    /// Morsels a pool runner task claimed, off the calling thread's own
    /// runner.
    pub steals: AtomicU64,
    /// Pages whose partial was served from a page or segment memo.
    pub cache_hits: AtomicU64,
    /// Cache-eligible pages whose partial had to be computed (and was
    /// then memoized where a memo keeps it).
    pub cache_misses: AtomicU64,
}

/// A plain-value snapshot of [`ExecStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Pages whose payloads were loaded.
    pub pages_loaded: u64,
    /// Pages skipped entirely by pruning.
    pub pages_pruned: u64,
    /// Tuples covered by loaded work items.
    pub tuples_scanned: u64,
    /// Tuples skipped by pruning.
    pub tuples_pruned: u64,
    /// Stage nanoseconds: I/O / unpack / delta / filter / aggregate / merge.
    pub io_ns: u64,
    /// See [`ExecStats::unpack_ns`].
    pub unpack_ns: u64,
    /// See [`ExecStats::delta_ns`].
    pub delta_ns: u64,
    /// See [`ExecStats::filter_ns`].
    pub filter_ns: u64,
    /// See [`ExecStats::agg_ns`].
    pub agg_ns: u64,
    /// See [`ExecStats::merge_ns`].
    pub merge_ns: u64,
    /// See [`ExecStats::idle_ns`].
    pub idle_ns: u64,
    /// See [`ExecStats::materialized_bytes`].
    pub materialized_bytes: u64,
    /// See [`ExecStats::local_pops`].
    pub local_pops: u64,
    /// See [`ExecStats::steals`].
    pub steals: u64,
    /// See [`ExecStats::cache_hits`].
    pub cache_hits: u64,
    /// See [`ExecStats::cache_misses`].
    pub cache_misses: u64,
}

impl ExecStats {
    /// Adds `d` to a stage counter.
    pub fn add(&self, counter: &AtomicU64, d: Duration) {
        counter.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Starts a drop-guard timer charging a stage counter — see
    /// [`ScopedTimer`].
    pub fn scoped<'a>(&self, counter: &'a AtomicU64) -> ScopedTimer<'a> {
        ScopedTimer::new(counter)
    }

    /// Adds every counter of `local` (one thread's own) to these, one
    /// shared add per counter that moved.
    pub(crate) fn absorb(&self, local: &ExecStats) {
        let s = local.snapshot();
        for (counter, n) in [
            (&self.pages_loaded, s.pages_loaded),
            (&self.pages_pruned, s.pages_pruned),
            (&self.tuples_scanned, s.tuples_scanned),
            (&self.tuples_pruned, s.tuples_pruned),
            (&self.io_ns, s.io_ns),
            (&self.unpack_ns, s.unpack_ns),
            (&self.delta_ns, s.delta_ns),
            (&self.filter_ns, s.filter_ns),
            (&self.agg_ns, s.agg_ns),
            (&self.merge_ns, s.merge_ns),
            (&self.idle_ns, s.idle_ns),
            (&self.materialized_bytes, s.materialized_bytes),
            (&self.local_pops, s.local_pops),
            (&self.steals, s.steals),
            (&self.cache_hits, s.cache_hits),
            (&self.cache_misses, s.cache_misses),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            pages_loaded: self.pages_loaded.load(Ordering::Relaxed),
            pages_pruned: self.pages_pruned.load(Ordering::Relaxed),
            tuples_scanned: self.tuples_scanned.load(Ordering::Relaxed),
            tuples_pruned: self.tuples_pruned.load(Ordering::Relaxed),
            io_ns: self.io_ns.load(Ordering::Relaxed),
            unpack_ns: self.unpack_ns.load(Ordering::Relaxed),
            delta_ns: self.delta_ns.load(Ordering::Relaxed),
            filter_ns: self.filter_ns.load(Ordering::Relaxed),
            agg_ns: self.agg_ns.load(Ordering::Relaxed),
            merge_ns: self.merge_ns.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
            materialized_bytes: self.materialized_bytes.load(Ordering::Relaxed),
            local_pops: self.local_pops.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// Total tuples counted toward throughput (scanned + pruned, per the
    /// paper's throughput definition in §VII-B).
    pub fn tuples_total(&self) -> u64 {
        self.tuples_scanned + self.tuples_pruned
    }
}

/// Drop-guard stage timer: charges the elapsed time since construction to
/// an [`ExecStats`] counter when it goes out of scope.
///
/// Operator code used to bracket every stage with a manual
/// `let t = Instant::now(); … stats.add(&stats.x_ns, t.elapsed())` pair,
/// which silently lost the charge whenever a `?` returned early between
/// the two lines. The guard form cannot skip the charge: the `Drop` impl
/// runs on every exit path, including errors and panics unwinding through
/// the scope.
#[derive(Debug)]
pub struct ScopedTimer<'a> {
    counter: &'a AtomicU64,
    start: Instant,
}

impl<'a> ScopedTimer<'a> {
    /// Starts timing against `counter` (one of the `*_ns` stage counters
    /// of [`ExecStats`]).
    pub fn new(counter: &'a AtomicU64) -> Self {
        ScopedTimer {
            counter,
            start: Instant::now(),
        }
    }
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        self.counter
            .fetch_add(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Runs one job, converting a panic into [`Error::Worker`] so a single
/// bad page cannot abort the whole process.
pub(crate) fn run_one<J, R>(worker: &(impl Fn(J) -> R + Sync), job: J) -> Result<R> {
    catch_unwind(AssertUnwindSafe(|| worker(job))).map_err(|p| Error::Worker(panic_message(p)))
}

/// Runs `jobs` through `worker` on up to `threads` workers, returning
/// outputs in job order: inline on the calling thread when one thread or
/// one job makes dispatch pointless, otherwise morsel-driven on the
/// process-wide persistent pool ([`crate::pool`]), which charges the
/// caller's completion wait to `stats.idle_ns`.
///
/// A panicking worker does not abort the process: the panic payload is
/// captured and surfaced to the caller as [`Error::Worker`] (the first
/// panic in job order wins; remaining jobs still drain).
///
/// `ctl` is checked at every morsel boundary, so a cancelled or
/// deadlined query stops within one morsel — queued jobs drain as
/// [`Error::Cancelled`] / [`Error::Timeout`] without executing, and the
/// pool stays healthy for every other query.
pub fn run_jobs<J, R>(
    jobs: Vec<J>,
    threads: usize,
    stats: &ExecStats,
    ctl: &CancellationToken,
    worker: impl Fn(J) -> R + Sync,
) -> Result<Vec<R>>
where
    J: Send,
    R: Send,
{
    let threads = threads.max(1);
    let n = jobs.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if threads == 1 || n == 1 {
        return jobs
            .into_iter()
            .map(|j| {
                ctl.check()?;
                run_one(&worker, j)
            })
            .collect();
    }
    crate::pool::run_jobs_pool(jobs, threads, stats, ctl, worker)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<J: Send, R: Send>(
        jobs: Vec<J>,
        threads: usize,
        stats: &ExecStats,
        worker: impl Fn(J) -> R + Sync,
    ) -> Result<Vec<R>> {
        run_jobs(jobs, threads, stats, &CancellationToken::none(), worker)
    }

    #[test]
    fn outputs_preserve_job_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let stats = ExecStats::default();
        let out = run(jobs, 4, &stats, |j| j * 2).unwrap();
        assert_eq!(out, (0..100).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let stats = ExecStats::default();
        let out = run(vec![1, 2, 3], 1, &stats, |j| j + 1).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_jobs() {
        let stats = ExecStats::default();
        let out: Vec<i32> = run(Vec::<i32>::new(), 8, &stats, |j| j).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn scoped_timer_charges_on_early_return() {
        let stats = ExecStats::default();
        let attempt = |fail: bool| -> Result<()> {
            let _t = stats.scoped(&stats.agg_ns);
            std::thread::sleep(Duration::from_millis(2));
            if fail {
                return Err(Error::Decode("early exit"));
            }
            Ok(())
        };
        assert!(attempt(true).is_err());
        let after_err = stats.snapshot().agg_ns;
        assert!(after_err > 0, "error path must still charge the stage");
        attempt(false).unwrap();
        assert!(stats.snapshot().agg_ns > after_err);
    }

    #[test]
    fn stats_snapshot_roundtrip() {
        let stats = ExecStats::default();
        stats.pages_loaded.store(5, Ordering::Relaxed);
        stats.tuples_pruned.store(7, Ordering::Relaxed);
        stats.tuples_scanned.store(3, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.pages_loaded, 5);
        assert_eq!(snap.tuples_total(), 10);
    }

    #[test]
    fn parallel_execution_uses_multiple_workers() {
        // All jobs record their thread id; with enough slow jobs and at
        // least one pool worker beyond the caller, 2+ distinct threads
        // must participate.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let stats = ExecStats::default();
        run((0..64).collect(), 4, &stats, |_: i32| {
            std::thread::sleep(Duration::from_millis(1));
            seen.lock().unwrap().insert(std::thread::current().id());
        })
        .unwrap();
        assert!(seen.lock().unwrap().len() >= 2);
    }

    #[test]
    fn panicking_worker_surfaces_error_single_thread() {
        let stats = ExecStats::default();
        let out = run(vec![1, 2, 3], 1, &stats, |j| {
            if j == 2 {
                panic!("bad page {j}");
            }
            j
        });
        match out {
            Err(Error::Worker(msg)) => assert!(msg.contains("bad page 2"), "msg={msg}"),
            other => panic!("expected Error::Worker, got {other:?}"),
        }
    }

    #[test]
    fn panicking_worker_surfaces_error_multi_thread() {
        let stats = ExecStats::default();
        let out = run((0..32).collect::<Vec<i32>>(), 4, &stats, |j| {
            if j == 17 {
                panic!("poisoned job");
            }
            j * 10
        });
        match out {
            Err(Error::Worker(msg)) => assert!(msg.contains("poisoned job"), "msg={msg}"),
            other => panic!("expected Error::Worker, got {other:?}"),
        }
    }
}
