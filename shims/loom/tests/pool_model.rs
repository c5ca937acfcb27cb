//! Model-checked interleavings of the pool's protocols: the queue a
//! worker waits on, and a batch's claim cursor and completion latch. A
//! miniature replica of `crates/core/src/pool.rs` (the pool crate sits
//! above this shim, so the protocol is replicated here rather than
//! imported).
//!
//! Run with: `cargo test -p loom --test pool_model`
//!
//! Every test drives the replica through `loom`'s cooperative scheduler,
//! exploring thread interleavings depth-first (exhaustively when the
//! space is small, bounded + seeded-random otherwise). An invariant
//! violation or a deadlock panics with the failing schedule.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use loom::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};

/// Replica of the pool's queue: `submit` pushes under the lock and then
/// notifies one waiter.
struct Queue {
    tasks: Mutex<VecDeque<usize>>,
    wake: Condvar,
}

impl Queue {
    fn new() -> Queue {
        Queue {
            tasks: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
        }
    }

    fn submit(&self, task: usize) {
        self.tasks.lock().push_back(task);
        self.wake.notify_one();
    }

    /// A worker's next task. The real worker checks for a task and waits
    /// under one lock acquisition, so a submit cannot fall between the
    /// check and the wait. `split` is the seeded lost-wakeup variant: it
    /// checks under one acquisition and waits under another, and a
    /// submit and its notify can land in between.
    fn next(&self, split: bool) -> usize {
        if split {
            loop {
                if let Some(task) = self.tasks.lock().pop_front() {
                    return task;
                }
                let mut tasks = self.tasks.lock();
                self.wake.wait(&mut tasks);
            }
        }
        let mut tasks = self.tasks.lock();
        loop {
            match tasks.pop_front() {
                Some(task) => return task,
                // Untimed on purpose: the real worker's timeout is not
                // what makes it live.
                None => self.wake.wait(&mut tasks),
            }
        }
    }
}

/// A worker takes two tasks through untimed waits while the caller
/// submits them: every task must run.
fn queue_model(split: bool) {
    let report = loom::Builder::new().check(move || {
        let queue = Arc::new(Queue::new());
        let q2 = Arc::clone(&queue);
        let worker = loom::thread::spawn(move || [q2.next(split), q2.next(split)]);
        queue.submit(1);
        queue.submit(2);
        assert_eq!(worker.join(), [1, 2], "a task was lost or reordered");
    });
    assert!(report.schedules > 10, "explored too little: {report:?}");
}

#[test]
fn model_submit_racing_an_untimed_wait_runs_every_task() {
    queue_model(false);
}

#[test]
fn model_split_check_and_wait_loses_a_wakeup() {
    let result = catch_unwind(AssertUnwindSafe(|| queue_model(true)));
    let msg = match result {
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
        Ok(()) => panic!("model missed the lost wakeup"),
    };
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

/// Replica of pool.rs's `Latch`: counts outstanding jobs and live
/// runner tasks; `wait_open` returns only when both reach zero. The
/// real latch also has a timeout so the caller can help; the model
/// drops the timeout on purpose — it proves the notify discipline
/// alone is deadlock-free (the timeout is an optimisation, not a
/// liveness crutch).
struct Latch {
    jobs_left: AtomicUsize,
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
        self.jobs_left.load(Ordering::SeqCst) == 0 && self.tasks_live.load(Ordering::SeqCst) == 0
    }

    fn job_done(&self) {
        if self.jobs_left.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Notify under the lock: pairs with the load in wait_open so
            // the transition to zero cannot slip between its check and
            // its wait (the lost-wakeup race the model would catch).
            let _g = self.lock.lock();
            self.cv.notify_all();
        }
    }

    fn task_exit(&self) {
        if self.tasks_live.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _g = self.lock.lock();
            self.cv.notify_all();
        }
    }

    fn wait_open(&self) {
        let mut g = self.lock.lock();
        while !self.is_open() {
            self.cv.wait(&mut g);
        }
    }
}

struct Batch {
    /// Index of the next unclaimed morsel, as in pool.rs.
    next: AtomicUsize,
    results: Vec<AtomicI64>,
    claims: Vec<AtomicUsize>,
    latch: Latch,
}

impl Batch {
    fn new(jobs: usize, tasks: usize) -> Batch {
        Batch {
            next: AtomicUsize::new(0),
            results: (0..jobs).map(|_| AtomicI64::new(0)).collect(),
            claims: (0..jobs).map(|_| AtomicUsize::new(0)).collect(),
            latch: Latch::new(jobs, tasks),
        }
    }

    /// What pool.rs's `run_runner` does per morsel: claim through the
    /// cursor, execute, publish the result, count the job done. `poison`
    /// marks a job whose closure panics; like `run_one`, the panic is
    /// caught and published as an error value (-1), never leaked into
    /// the latch.
    fn run_runner(&self, poison: Option<usize>) {
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.results.len() {
                break;
            }
            self.claims[i].fetch_add(1, Ordering::SeqCst);
            let result = if poison == Some(i) {
                -1 // catch_unwind'ed panic -> Err published to the slot
            } else {
                i as i64 + 1
            };
            self.results[i].store(result, Ordering::SeqCst);
            self.latch.job_done();
        }
    }
}

#[test]
fn model_pool_shutdown_with_query_in_flight() {
    // One worker task plus the caller (who helps, as in pool.rs) drain
    // a 3-morsel batch. Invariants across every interleaving:
    //   * each morsel is claimed exactly once;
    //   * the caller's wait_open returns only after the worker task has
    //     fully exited (the use-after-free guard: the batch's memory is
    //     released when wait_open returns);
    //   * every result slot is written before the caller reads it.
    let report = loom::Builder::new().check(|| {
        let batch = Arc::new(Batch::new(3, 1));
        let exited = Arc::new(AtomicUsize::new(0));
        let (b2, e2) = (Arc::clone(&batch), Arc::clone(&exited));
        loom::thread::spawn(move || {
            b2.run_runner(None);
            e2.store(1, Ordering::SeqCst);
            b2.latch.task_exit();
        });
        batch.run_runner(None); // caller helps while waiting
        batch.latch.wait_open();
        assert_eq!(
            exited.load(Ordering::SeqCst),
            1,
            "caller proceeded to teardown while the runner task was alive"
        );
        for (i, (claims, result)) in batch.claims.iter().zip(&batch.results).enumerate() {
            assert_eq!(claims.load(Ordering::SeqCst), 1, "morsel {i} claim count");
            assert_eq!(
                result.load(Ordering::SeqCst),
                i as i64 + 1,
                "morsel {i} result missing or wrong"
            );
        }
    });
    assert!(report.schedules > 10, "explored too little: {report:?}");
}

#[test]
fn model_pool_panic_recovery_still_opens_latch() {
    // A panicking job must not wedge the batch: the panic is caught at
    // the job boundary (pool.rs `run_one`), an error result is
    // published, and the latch still opens — in every interleaving.
    let report = loom::Builder::new().check(|| {
        let batch = Arc::new(Batch::new(2, 1));
        let b2 = Arc::clone(&batch);
        loom::thread::spawn(move || {
            b2.run_runner(Some(1)); // job 1 "panics" inside its closure
            b2.latch.task_exit();
        });
        batch.run_runner(Some(1));
        batch.latch.wait_open(); // deadlock here = failed recovery
        assert_eq!(batch.claims[1].load(Ordering::SeqCst), 1);
        assert_eq!(
            batch.results[1].load(Ordering::SeqCst),
            -1,
            "panicked job must publish an error result"
        );
        assert_eq!(batch.results[0].load(Ordering::SeqCst), 1);
    });
    assert!(report.schedules > 10, "explored too little: {report:?}");
}
