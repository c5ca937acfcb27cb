//! A batch submitted while every pool worker is blocked inside another
//! query's job still completes: its calling thread claims every morsel
//! and then drains its own queued runner tasks, which find nothing left.
//! In a binary of its own, because it occupies the whole process-wide
//! pool, and a concurrent test's helping caller could take one of the
//! blocking runner tasks and leave a worker free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use etsqp_core::cancel::CancellationToken;
use etsqp_core::exec::{run_jobs, ExecStats};
use etsqp_core::pool;

#[test]
fn batch_completes_while_every_worker_is_blocked() {
    let none = CancellationToken::none();
    let workers = pool::spawned_threads();
    assert!(workers >= 1, "the pool spawned no worker");
    // One morsel per runner of the blocking query: its caller and one
    // runner task per worker. Every runner blocks on its first morsel,
    // so each of the `workers` tasks is taken by a distinct worker.
    let runners = workers + 1;
    let entered = AtomicUsize::new(0);
    let gate = (Mutex::new(false), Condvar::new());
    let open_gate = || {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    };
    std::thread::scope(|s| {
        let blocking = s.spawn(|| {
            let stats = ExecStats::default();
            run_jobs(
                (0..runners).collect(),
                runners,
                &stats,
                &none,
                |j: usize| {
                    entered.fetch_add(1, Ordering::SeqCst);
                    let (open, cv) = &gate;
                    let mut open = open.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    j
                },
            )
            .unwrap()
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while entered.load(Ordering::SeqCst) < runners {
            if Instant::now() > deadline {
                open_gate();
                panic!("a runner of the blocking batch never claimed a morsel");
            }
            std::thread::yield_now();
        }

        let stats = ExecStats::default();
        let out = run_jobs((0..16u64).collect(), 4, &stats, &none, |j| j * 3);
        // Release the blocking batch before asserting, so a failure
        // reports instead of hanging the scope.
        open_gate();
        assert_eq!(blocking.join().unwrap(), (0..runners).collect::<Vec<_>>());
        assert_eq!(out.unwrap(), (0..16u64).map(|j| j * 3).collect::<Vec<_>>());
        let snap = stats.snapshot();
        assert_eq!(
            snap.local_pops, 16,
            "the caller claims every morsel: {snap:?}"
        );
        assert_eq!(snap.steals, 0, "no worker was free to claim one: {snap:?}");
    });
}
