//! Offline shim for [`loom`](https://docs.rs/loom): a deterministic
//! interleaving checker for the repo's lock and atomic protocols (the
//! pool's queue and latch, the storage segment publish).
//!
//! # What it is
//!
//! [`model`] (or [`Builder::check`]) runs a closure many times under a
//! cooperative scheduler that permits exactly one thread to run at a
//! time. Every operation on the instrumented primitives
//! ([`sync::Mutex`], [`sync::Condvar`], [`sync::atomic`],
//! [`thread::spawn`]/[`thread::JoinHandle::join`]) is a *scheduling
//! point* where the scheduler may switch threads. An execution is thus
//! fully described by the sequence of choices taken at points where more
//! than one thread was eligible, and the driver explores that choice
//! tree depth-first (exhaustively when small, bounded otherwise),
//! followed by an optional seeded-random sampling phase.
//!
//! Invariant violations surface as ordinary `assert!` panics inside the
//! closure; the driver reports the failing schedule so the interleaving
//! is reproducible. Deadlocks (every live thread blocked) and livelocks
//! (an execution exceeding the step bound) are detected and reported
//! the same way.
//!
//! # What it is not
//!
//! This is sequential-consistency model checking over *lock and atomic
//! interleavings*. Unlike real loom it does not model weak memory
//! orderings, and exploration beyond the DFS budget is sampled, not
//! exhaustive. See DESIGN.md §"Static analysis & model checking".
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod sched;
pub mod sync;
pub mod thread;

pub use sched::Choice;

use std::sync::{Mutex, Once, OnceLock};

/// Serialises model runs: the scheduler is process-global state, and
/// `cargo test` runs tests on concurrent threads.
static MODEL_SERIAL: OnceLock<Mutex<()>> = OnceLock::new();

/// Suppress panic-hook noise from the internal `Abort` unwinds used to
/// tear down model threads after a failure has already been recorded.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<sched::Abort>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Outcome of a [`Builder::check`] run that found no violation.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Number of executions (schedules) explored.
    pub schedules: usize,
    /// `true` when the DFS visited the entire schedule tree (the result
    /// is a proof over the modelled interleavings, not a sample).
    pub exhaustive: bool,
}

/// Configures schedule exploration. Defaults are overridable via the
/// `ETSQP_MODEL_SCHEDULES`, `ETSQP_MODEL_RANDOM`, `ETSQP_MODEL_SEED`
/// and `ETSQP_MODEL_MAX_STEPS` environment variables.
#[derive(Debug, Clone, Copy)]
pub struct Builder {
    /// DFS budget: maximum number of systematically explored schedules.
    pub max_schedules: usize,
    /// Extra seeded-random schedules run when DFS did not exhaust.
    pub random_schedules: usize,
    /// Seed for the random phase (fixed default keeps CI deterministic).
    pub seed: u64,
    /// Per-execution scheduling-point bound (livelock backstop).
    pub max_steps: usize,
}

impl Default for Builder {
    fn default() -> Self {
        Self::new()
    }
}

impl Builder {
    /// Builder with environment-derived defaults.
    pub fn new() -> Self {
        Builder {
            max_schedules: env_usize("ETSQP_MODEL_SCHEDULES", 4000),
            random_schedules: env_usize("ETSQP_MODEL_RANDOM", 400),
            seed: env_u64("ETSQP_MODEL_SEED", 0x5EED_CAFE),
            max_steps: env_usize("ETSQP_MODEL_MAX_STEPS", 100_000),
        }
    }

    /// Explores schedules of `f`. Panics with the failing schedule on the
    /// first invariant violation, deadlock, or livelock; otherwise
    /// returns how much of the schedule space was covered.
    pub fn check<F: Fn()>(&self, f: F) -> Report {
        let _serial = MODEL_SERIAL
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        install_quiet_hook();
        let sch = sched::global();
        let mut replay: Vec<Choice> = Vec::new();
        let mut executions = 0usize;
        let mut exhaustive = false;
        loop {
            executions += 1;
            let schedule = sch.run_once(&f, std::mem::take(&mut replay), None, self.max_steps);
            match next_replay(&schedule) {
                Some(next) => replay = next,
                None => {
                    exhaustive = true;
                    break;
                }
            }
            if executions >= self.max_schedules {
                break;
            }
        }
        if !exhaustive {
            for i in 0..self.random_schedules {
                executions += 1;
                let rng = self
                    .seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    | 1;
                sch.run_once(&f, Vec::new(), Some(rng), self.max_steps);
            }
        }
        Report {
            schedules: executions,
            exhaustive,
        }
    }
}

/// DFS backtracking: advance the deepest decision that still has an
/// unexplored alternative; `None` when the whole tree has been visited.
fn next_replay(schedule: &[Choice]) -> Option<Vec<Choice>> {
    for i in (0..schedule.len()).rev() {
        let c = schedule[i];
        if c.rank + 1 < c.alts {
            let mut next: Vec<Choice> = schedule[..i].to_vec();
            next.push(Choice {
                rank: c.rank + 1,
                alts: c.alts,
            });
            return Some(next);
        }
    }
    None
}

/// Explores schedules of `f` with default bounds (loom-compatible entry
/// point). Panics on the first invariant violation.
pub fn model<F: Fn()>(f: F) {
    let report = Builder::new().check(f);
    eprintln!(
        "loom model: {} schedules explored{}",
        report.schedules,
        if report.exhaustive {
            " (exhaustive)"
        } else {
            " (bounded)"
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_model_is_one_schedule() {
        let report = Builder::new().check(|| {
            let m = sync::Mutex::new(0);
            *m.lock() += 1;
            assert_eq!(*m.lock(), 1);
        });
        assert_eq!(report.schedules, 1);
        assert!(report.exhaustive);
    }

    #[test]
    fn two_increments_are_exhaustively_explored() {
        let counter = AtomicUsize::new(0);
        let report = Builder::new().check(|| {
            counter.fetch_add(1, Ordering::Relaxed);
            let m = sync::Arc::new(sync::Mutex::new(0));
            let m2 = sync::Arc::clone(&m);
            let h = thread::spawn(move || {
                *m2.lock() += 1;
            });
            *m.lock() += 1;
            h.join();
            assert_eq!(*m.lock(), 2);
        });
        // More than one interleaving of the two lock sections exists.
        assert!(report.schedules > 1, "got {report:?}");
        assert!(report.exhaustive);
        assert_eq!(counter.load(Ordering::Relaxed), report.schedules);
    }

    #[test]
    fn finds_lost_update_race() {
        // Classic read-modify-write race on an atomic used non-atomically:
        // both threads load, then both store load+1. The checker must find
        // the interleaving where one update is lost.
        let result = catch_unwind(AssertUnwindSafe(|| {
            Builder::new().check(|| {
                let v = sync::Arc::new(sync::atomic::AtomicU64::new(0));
                let v2 = sync::Arc::clone(&v);
                let h = thread::spawn(move || {
                    let x = v2.load(sync::atomic::Ordering::SeqCst);
                    v2.store(x + 1, sync::atomic::Ordering::SeqCst);
                });
                let x = v.load(sync::atomic::Ordering::SeqCst);
                v.store(x + 1, sync::atomic::Ordering::SeqCst);
                h.join();
                assert_eq!(v.load(sync::atomic::Ordering::SeqCst), 2);
            });
        }));
        let msg = match result {
            Err(p) => crate::tests::payload_str(p.as_ref()),
            Ok(_) => panic!("model missed the lost-update race"),
        };
        assert!(msg.contains("loom model failure"), "unexpected: {msg}");
    }

    #[test]
    fn detects_abba_deadlock() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Builder::new().check(|| {
                let a = sync::Arc::new(sync::Mutex::new(()));
                let b = sync::Arc::new(sync::Mutex::new(()));
                let (a2, b2) = (sync::Arc::clone(&a), sync::Arc::clone(&b));
                let h = thread::spawn(move || {
                    let _gb = b2.lock();
                    let _ga = a2.lock();
                });
                let _ga = a.lock();
                let _gb = b.lock();
                drop((_ga, _gb));
                h.join();
            });
        }));
        let msg = match result {
            Err(p) => crate::tests::payload_str(p.as_ref()),
            Ok(_) => panic!("model missed the AB-BA deadlock"),
        };
        assert!(msg.contains("deadlock"), "unexpected: {msg}");
    }

    #[test]
    fn condvar_handoff_is_not_lost() {
        // Producer/consumer with the notify-under-lock discipline: no
        // schedule may lose the wakeup or deadlock.
        let report = Builder::new().check(|| {
            let pair = sync::Arc::new((sync::Mutex::new(false), sync::Condvar::new()));
            let pair2 = sync::Arc::clone(&pair);
            let h = thread::spawn(move || {
                let (m, cv) = &*pair2;
                let mut ready = m.lock();
                *ready = true;
                cv.notify_one();
                drop(ready);
            });
            let (m, cv) = &*pair;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            drop(ready);
            h.join();
        });
        assert!(report.exhaustive, "got {report:?}");
    }

    #[test]
    fn a_yield_spin_sees_a_broken_two_step_publish() {
        // The waiter spins on `yield_now` until `ready`; the publisher
        // starts once the waiter has spun, then takes two steps. A
        // yielded thread runs again after any other thread's step, so it
        // can read between them: the broken order must be caught.
        let publish = |broken: bool| {
            let bounded = Builder {
                max_schedules: 200,
                random_schedules: 50,
                ..Builder::new()
            };
            bounded.check(move || {
                use sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
                let data = sync::Arc::new(AtomicU64::new(0));
                let ready = sync::Arc::new(AtomicBool::new(false));
                let spins = sync::Arc::new(AtomicU64::new(0));
                let (d, r, s) = (data.clone(), ready.clone(), spins.clone());
                let h = thread::spawn(move || {
                    while s.load(SeqCst) == 0 {}
                    if broken {
                        r.store(true, SeqCst);
                        d.store(42, SeqCst);
                    } else {
                        d.store(42, SeqCst);
                        r.store(true, SeqCst);
                    }
                });
                while !ready.load(SeqCst) {
                    spins.fetch_add(1, SeqCst);
                    thread::yield_now();
                }
                assert_eq!(data.load(SeqCst), 42, "read between the two steps");
                h.join();
            })
        };
        publish(false);
        let result = catch_unwind(AssertUnwindSafe(|| publish(true)));
        let msg = match result {
            Err(p) => crate::tests::payload_str(p.as_ref()),
            Ok(_) => panic!("model missed the broken publish"),
        };
        assert!(
            msg.contains("read between the two steps"),
            "unexpected: {msg}"
        );
    }

    pub(crate) fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            String::new()
        }
    }
}
