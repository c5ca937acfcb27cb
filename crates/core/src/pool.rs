//! Process-wide persistent worker pool with morsel-driven scheduling.
//!
//! The paper's core-level parallelism (§III-C) assumes a long-lived
//! multi-thread job scheduler: spawning and joining a thread set *per
//! query* dominates short selective queries once decode runs at memory
//! speed (11.6× at 8 threads when last measured — EXPERIMENTS.md). This
//! module is that scheduler:
//!
//! * **One pool per process**, lazily initialized on the first parallel
//!   query and sized by [`std::thread::available_parallelism`] (which
//!   follows the affinity mask and the cgroup CPU quota). Workers are
//!   detached daemon threads that park when idle; after warmup no query
//!   ever spawns or joins a thread.
//! * **One queue**: runner tasks wait in one FIFO under one mutex, which
//!   workers and helping callers pop.
//! * **Morsel-driven scheduling**: every job of a query is a morsel — an
//!   aggregation's job a segment morsel (a run of one segment's pages),
//!   a row scan's a page. The batch's runners claim morsel indices from
//!   one atomic cursor, so a straggler holds up only its own morsel
//!   while the others keep claiming. Results land in per-index slots, so
//!   outputs still return in job order and the driver's time-ordered
//!   partial merge is untouched.
//! * **Shared across concurrent queries**: runner tasks from any number
//!   of queries interleave on the same workers ([`crate::engine::IotDb`]
//!   is `Sync` and usable behind `Arc` from many OS threads). A panic in
//!   one query's worker closure is contained by
//!   [`crate::exec::run_one`] (surfacing as `Error::Worker` to that
//!   query alone) and, as a second line of defence, every pool task runs
//!   under `catch_unwind`, so a panicking query cannot poison the pool.
//! * **The caller is a runner too** — it executes morsels of its own
//!   query, and while waiting for stragglers it *helps* by running
//!   queued pool tasks. This keeps the scheduler deadlock-free even if
//!   every pool worker is busy (or the pool has a single thread), and it
//!   lets the requesting thread's core contribute on small machines.
//!
//! The caller's completion wait is charged to [`ExecStats::idle_ns`];
//! morsel provenance is counted in [`ExecStats::local_pops`] (claimed
//! by the calling thread) and [`ExecStats::steals`] (claimed by a pool
//! runner).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::cancel::CancellationToken;
use crate::exec::{run_one, ExecStats};
use crate::{Error, Result};

/// A unit of pool work: a boxed runner entry for one query's batch.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle pool worker parks before looking at the queue
/// again. Liveness needs no timeout — a worker checks the queue and
/// waits under one lock acquisition, and `submit` notifies after its
/// push (`shims/loom/tests/pool_model.rs` checks an untimed wait). The
/// timeout is kept from the deque pool because no measurement favoured
/// dropping it: on a 2 vCPU Xeon an untimed wait read 2–6 % fewer
/// `scan_fused` queries/s in some builds and 3 % more in another, on a
/// workload that dispatches no pool job, so the difference is where the
/// build placed unrelated code (EXPERIMENTS.md "One pool queue").
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// How long a waiting caller parks between help attempts.
const WAIT_TIMEOUT: Duration = Duration::from_millis(1);

/// The process-wide pool.
struct Pool {
    /// Runner tasks not yet taken by a worker or a helping caller.
    queue: Mutex<VecDeque<Task>>,
    /// Signalled once per submitted task.
    wake: Condvar,
    started: Once,
    /// Threads spawned over the pool's lifetime (stable after warmup —
    /// asserted by tests and the bench harness).
    spawned: AtomicUsize,
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    let p = POOL.get_or_init(Pool::new);
    p.ensure_started();
    p
}

/// Threads spawned by the pool since process start. Constant after the
/// first parallel query — the "no spawn/join on the hot path" invariant.
pub fn spawned_threads() -> usize {
    pool().spawned.load(Ordering::SeqCst)
}

impl Pool {
    fn new() -> Pool {
        Pool {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            started: Once::new(),
            spawned: AtomicUsize::new(0),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }

    fn ensure_started(&'static self) {
        self.started.call_once(|| {
            for i in 0..self.threads {
                let ok = std::thread::Builder::new()
                    .name(format!("etsqp-pool-{i}"))
                    .spawn(move || self.worker_loop())
                    .is_ok();
                if ok {
                    self.spawned.fetch_add(1, Ordering::SeqCst);
                }
                // A failed spawn degrades capacity, not correctness: the
                // caller always helps drain the queue itself.
            }
        });
    }

    fn worker_loop(&self) {
        loop {
            let task = {
                let mut queue = self.queue.lock();
                loop {
                    if let Some(task) = queue.pop_front() {
                        break task;
                    }
                    let _ = self.wake.wait_for(&mut queue, PARK_TIMEOUT);
                }
            };
            // Second line of defence behind `run_one`: a panic escaping
            // one query's runner must not kill a shared pool thread and
            // starve every other query.
            let _ = catch_unwind(AssertUnwindSafe(task));
        }
    }

    /// Takes the oldest queued task, if any (used by helping callers).
    fn pop(&self) -> Option<Task> {
        self.queue.lock().pop_front()
    }

    fn submit(&self, task: Task) {
        self.queue.lock().push_back(task);
        self.wake.notify_one();
    }
}

/// Completion latch for one `run_jobs` batch. Heap-allocated (`Arc`) so
/// a runner task's final signal never touches the caller's stack frame —
/// the caller may free the batch the instant the latch opens.
struct Latch {
    /// Jobs whose result slot is not yet written.
    jobs_left: AtomicUsize,
    /// Spawned runner tasks that have not finished executing. The caller
    /// must outwait these: a queued-but-unstarted runner still holds an
    /// (erased) reference to the batch on the caller's stack.
    tasks_live: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    fn new(jobs: usize, tasks: usize) -> Latch {
        Latch {
            jobs_left: AtomicUsize::new(jobs),
            tasks_live: AtomicUsize::new(tasks),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn is_open(&self) -> bool {
        self.jobs_left.load(Ordering::Acquire) == 0 && self.tasks_live.load(Ordering::Acquire) == 0
    }

    fn job_done(&self) {
        if self.jobs_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.lock.lock();
            self.cv.notify_all();
        }
    }

    fn task_exit(&self) {
        if self.tasks_live.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.lock.lock();
            self.cv.notify_all();
        }
    }

    fn wait_timeout(&self, timeout: Duration) {
        let mut guard = self.lock.lock();
        if self.is_open() {
            return;
        }
        let _ = self.cv.wait_for(&mut guard, timeout);
    }
}

/// Interior-mutable slot written exactly once by the morsel's unique
/// claimant (claim exclusivity comes from the batch's cursor).
struct SyncCell<T>(std::cell::UnsafeCell<T>);

// SAFETY: access discipline is "one writer per cell, reads only after
// the latch's Acquire/Release edge" — see `Batch`.
unsafe impl<T: Send> Sync for SyncCell<T> {}

impl<T> SyncCell<T> {
    fn new(v: T) -> SyncCell<T> {
        SyncCell(std::cell::UnsafeCell::new(v))
    }

    fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

/// One query's in-flight job batch: claim cursor, job/result slots, and
/// the worker closure. Lives on the caller's stack for the duration of
/// `run_jobs_pool`; runner tasks reference it through an erased lifetime
/// and are strictly outwaited.
struct Batch<'a, J, R, F> {
    jobs: Vec<SyncCell<Option<J>>>,
    results: Vec<SyncCell<Option<Result<R>>>>,
    /// Index of the next unclaimed morsel; a claim is one `fetch_add`,
    /// and an index past the last morsel ends the runner. It publishes
    /// nothing (every job slot is written before the batch is shared),
    /// so `Relaxed` suffices: the atomic's modification order alone
    /// hands each index out once.
    next: AtomicUsize,
    latch: Arc<Latch>,
    worker: &'a F,
    stats: &'a ExecStats,
    /// The owning query's cancellation token, checked per morsel.
    ctl: &'a CancellationToken,
}

impl<J: Send, R: Send, F: Fn(J) -> R + Sync> Batch<'_, J, R, F> {
    /// Runs morsels until the batch has none left to claim, then adds
    /// how many this runner claimed to `claimed` (one of the stats'
    /// provenance counters), once.
    fn run_runner(&self, claimed: &AtomicU64) {
        let mut count = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs.len() {
                break;
            }
            count += 1;
            // Cancellation / deadline check at the morsel boundary: once
            // the token fires, the batch's remaining morsels drain as
            // typed errors without running the worker, so the query
            // returns within one morsel and the pool moves on.
            if let Err(e) = self.ctl.check() {
                // SAFETY: morsel index `i` is claimed by exactly one
                // runner, so this result slot is written exactly once.
                unsafe { *self.results[i].0.get() = Some(Err(e)) };
                self.latch.job_done();
                continue;
            }
            // SAFETY: morsel index `i` is claimed by exactly one runner
            // (the cursor hands out each index once); the job was written
            // before the batch was shared.
            // lint:allow(no-panic-paths) -- an empty slot here means the
            // cursor handed out an index twice, a scheduler logic bug
            // that must fail loudly; the panic is contained by the
            // pool's catch_unwind and surfaces as Error::Worker to this
            // query alone.
            let job = unsafe { (*self.jobs[i].0.get()).take() }.expect("morsel claimed once");
            let out = run_one(self.worker, job);
            // SAFETY: same unique-claimant argument for the result slot;
            // the caller only reads it after `jobs_left` hits zero.
            unsafe { *self.results[i].0.get() = Some(out) };
            self.latch.job_done();
        }
        claimed.fetch_add(count, Ordering::Relaxed);
    }
}

/// Executes `jobs` on the persistent pool, morsel-driven, returning
/// outputs in job order. Parallelism is `min(threads, pool + 1, jobs)`
/// (the `+ 1` is the calling thread, which always participates).
///
/// Callers go through [`crate::exec::run_jobs`], which handles the
/// empty/serial fast paths; this function assumes `jobs.len() >= 2` and
/// `threads >= 2`.
pub(crate) fn run_jobs_pool<J, R>(
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
    let n = jobs.len();
    let pool = pool();
    // Extra runners beyond the caller. Oversubscribing a shared pool
    // with more runners than workers only queues dead tasks, so cap at
    // pool size; each runner drains morsels dynamically regardless.
    let extra = threads.min(n).min(pool.threads + 1).saturating_sub(1);
    let latch = Arc::new(Latch::new(n, extra));
    let batch = Batch {
        jobs: jobs.into_iter().map(|j| SyncCell::new(Some(j))).collect(),
        results: (0..n).map(|_| SyncCell::new(None)).collect(),
        next: AtomicUsize::new(0),
        latch: Arc::clone(&latch),
        worker: &worker,
        stats,
        ctl,
    };
    {
        let batch_ref = &batch;
        for _ in 0..extra {
            let task_latch = Arc::clone(&latch);
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                batch_ref.run_runner(&batch_ref.stats.steals);
                // Last touch is the Arc'd latch, never the caller's
                // stack: after this the task holds no batch reference.
                task_latch.task_exit();
            });
            // SAFETY: lifetime erasure for a scoped task. The closure
            // borrows `batch` (and `worker`/`stats` through it), which
            // live on this stack frame; we do not return until the latch
            // reports every spawned task has finished executing
            // (`tasks_live == 0`), so no erased reference outlives its
            // referent. This is the standard scoped-pool contract.
            let task: Task = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(task)
            };
            pool.submit(task);
        }
    }
    // The caller is always a runner for its own query.
    batch.run_runner(&stats.local_pops);
    // Wait for stragglers and stale runner tasks — helping the pool
    // while blocked, which both avoids deadlock (a nested caller can
    // drain its own sub-tasks) and lets this thread finish its own
    // just-submitted runners instead of waiting on a busy pool.
    while !latch.is_open() {
        if let Some(task) = pool.pop() {
            let _ = catch_unwind(AssertUnwindSafe(task));
            continue;
        }
        let wait_start = Instant::now();
        latch.wait_timeout(WAIT_TIMEOUT);
        stats.add(&stats.idle_ns, wait_start.elapsed());
    }
    batch
        .results
        .into_iter()
        .map(|slot| {
            // The latch protocol guarantees every result slot is written
            // before `jobs_left` reaches zero; an empty slot would mean
            // the accounting broke, which is reported as a worker error
            // rather than a panic on the caller's thread.
            slot.into_inner()
                .unwrap_or_else(|| Err(Error::Worker("result slot never written".into())))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;

    fn run_jobs<J: Send, R: Send>(
        jobs: Vec<J>,
        threads: usize,
        stats: &ExecStats,
        worker: impl Fn(J) -> R + Sync,
    ) -> Result<Vec<R>> {
        crate::exec::run_jobs(jobs, threads, stats, &CancellationToken::none(), worker)
    }

    #[test]
    fn pool_initializes_once_and_reuses_threads() {
        let stats = ExecStats::default();
        // Warmup.
        run_jobs(vec![1, 2, 3, 4], 4, &stats, |j: i32| j * 2).unwrap();
        let after_warmup = spawned_threads();
        assert!(after_warmup >= 1, "pool must have spawned workers");
        // Hundreds of short parallel queries: no further spawns.
        for _ in 0..300 {
            let out = run_jobs((0..8).collect(), 8, &stats, |j: i32| j + 1).unwrap();
            assert_eq!(out, (1..9).collect::<Vec<_>>());
        }
        assert_eq!(
            spawned_threads(),
            after_warmup,
            "hot path must not spawn threads after warmup"
        );
    }

    #[test]
    fn pool_counts_morsel_provenance() {
        let stats = ExecStats::default();
        run_jobs((0..64).collect(), 4, &stats, |j: i64| {
            std::thread::sleep(Duration::from_millis(1));
            j
        })
        .unwrap();
        let snap = stats.snapshot();
        assert_eq!(
            snap.steals + snap.local_pops,
            64,
            "every morsel is claimed exactly once: {snap:?}"
        );
        assert!(
            snap.steals >= 1,
            "a pool runner claims some of 64 ms of morsels: {snap:?}"
        );
    }

    #[test]
    fn panic_in_one_batch_does_not_poison_the_pool() {
        let stats = ExecStats::default();
        let spawned_before = {
            // Warmup so the counter is stable.
            run_jobs(vec![0, 1, 2, 3], 4, &stats, |j: i32| j).unwrap();
            spawned_threads()
        };
        for round in 0..20 {
            let out = run_jobs((0..16).collect::<Vec<i32>>(), 4, &stats, |j| {
                if j == 7 {
                    panic!("boom {round}");
                }
                j
            });
            assert!(matches!(out, Err(Error::Worker(_))));
            // The pool still answers the next, healthy batch.
            let ok = run_jobs((0..16).collect::<Vec<i32>>(), 4, &stats, |j| j * 3).unwrap();
            assert_eq!(ok, (0..16).map(|j| j * 3).collect::<Vec<_>>());
        }
        assert_eq!(spawned_threads(), spawned_before);
    }

    #[test]
    fn nested_pool_calls_complete() {
        // A runner that itself runs a parallel batch must not deadlock
        // even on a single-worker pool: waiting callers help.
        let stats = ExecStats::default();
        let out = run_jobs((0..4u64).collect(), 4, &stats, |j| {
            let inner_stats = ExecStats::default();
            let inner = run_jobs((0..6u64).collect(), 4, &inner_stats, |k| k + j).unwrap();
            inner.iter().sum::<u64>()
        })
        .unwrap();
        assert_eq!(out, vec![15, 21, 27, 33]);
    }
}
