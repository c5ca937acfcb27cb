//! The cooperative scheduler at the heart of the model checker.
//!
//! Every instrumented primitive (mutex, condvar, atomic, spawn/join)
//! funnels through a *scheduling point*: the calling thread takes the
//! scheduler lock, picks the next thread to run, and parks until it is
//! chosen again. Exactly one model thread is runnable at any instant, so
//! an execution is fully described by the sequence of choices made at
//! points where more than one thread was eligible. The driver
//! ([`crate::Builder`]) replays recorded choice prefixes to explore the
//! schedule tree depth-first, then optionally samples random schedules.

use std::collections::HashMap;
use std::panic::panic_any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Sentinel "no thread" id.
pub(crate) const NO_THREAD: usize = usize::MAX;

/// Panic payload used to silently unwind model threads once an execution
/// has already failed (deadlock, assertion in a sibling thread, ...).
pub(crate) struct Abort;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BlockedOn {
    Mutex(usize),
    Condvar(usize),
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    Runnable,
    Blocked(BlockedOn),
    Finished,
}

struct Th {
    status: Status,
    /// Fairness bit: set by `yield_now` and failed `try_lock`; a yielded
    /// thread is not eligible again until some other thread has been
    /// scheduled (loom's rule: it prevents unbounded retry subtrees, and a
    /// spin on `yield_now` still lets the thread run between any two
    /// steps of the others).
    yielded: bool,
}

/// One recorded decision: which of `alts` eligible threads ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Choice {
    /// Index of the chosen thread within the eligible set.
    pub rank: usize,
    /// Size of the eligible set at this decision point.
    pub alts: usize,
}

#[derive(Default)]
struct Exec {
    active: bool,
    threads: Vec<Th>,
    current: usize,
    /// Logical mutex ownership: resource id -> thread id.
    owners: HashMap<usize, usize>,
    schedule: Vec<Choice>,
    replay: Vec<Choice>,
    /// `Some(rng_state)` switches choice-making from DFS to seeded random.
    random: Option<u64>,
    steps: usize,
    max_steps: usize,
    failure: Option<String>,
}

impl Default for Th {
    fn default() -> Self {
        Th {
            status: Status::Runnable,
            yielded: false,
        }
    }
}

pub(crate) struct Scheduler {
    state: Mutex<Exec>,
    cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

static SCHED: OnceLock<Scheduler> = OnceLock::new();
static NEXT_RID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Model-thread id of the calling thread, or `None` outside a model.
pub(crate) fn tid() -> Option<usize> {
    TID.with(|t| t.get())
}

pub(crate) fn set_tid(id: Option<usize>) {
    TID.with(|t| t.set(id));
}

pub(crate) fn global() -> &'static Scheduler {
    SCHED.get_or_init(|| Scheduler {
        state: Mutex::new(Exec::default()),
        cv: Condvar::new(),
        handles: Mutex::new(Vec::new()),
    })
}

/// Fresh process-wide resource id (mutexes and condvars).
pub(crate) fn next_rid() -> usize {
    NEXT_RID.fetch_add(1, Ordering::Relaxed)
}

/// Unwind the calling model thread because the execution has failed.
/// Must never be reached from destructor context: callers check
/// [`std::thread::panicking`] first and bail out instead, otherwise a
/// guard dropped during an `Abort` unwind would panic-in-panic.
fn abort_thread() -> ! {
    panic_any(Abort)
}

fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Choose the next thread to run. Must be called with the state lock held;
/// leaves `current` pointing at the chosen thread (or `NO_THREAD` when the
/// execution is over or has failed).
fn pick_next(st: &mut Exec) {
    if st.failure.is_some() {
        st.current = NO_THREAD;
        return;
    }
    let runnable: Vec<usize> = st
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status == Status::Runnable)
        .map(|(i, _)| i)
        .collect();
    if runnable.is_empty() {
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            st.current = NO_THREAD; // execution complete
        } else {
            let snapshot: Vec<(usize, Status)> = st
                .threads
                .iter()
                .enumerate()
                .map(|(i, t)| (i, t.status))
                .collect();
            st.failure = Some(format!(
                "deadlock: every live thread is blocked: {snapshot:?}"
            ));
            st.current = NO_THREAD;
        }
        return;
    }
    st.steps += 1;
    if st.steps > st.max_steps {
        st.failure = Some(format!(
            "livelock: execution exceeded {} scheduling points",
            st.max_steps
        ));
        st.current = NO_THREAD;
        return;
    }
    // Fairness: prefer threads that have not yielded since another thread
    // last took a step.
    let mut cands: Vec<usize> = runnable
        .iter()
        .copied()
        .filter(|&t| !st.threads[t].yielded)
        .collect();
    if cands.is_empty() {
        cands = runnable;
    }
    let n = cands.len();
    let rank = if n == 1 {
        0
    } else if st.schedule.len() < st.replay.len() {
        let c = st.replay[st.schedule.len()];
        if c.alts != n {
            st.failure = Some(format!(
                "nondeterministic execution: replay expected {} alternatives at \
                 decision {}, found {n} (model closures must be deterministic \
                 apart from scheduling)",
                c.alts,
                st.schedule.len()
            ));
            st.current = NO_THREAD;
            return;
        }
        c.rank.min(n - 1)
    } else if let Some(s) = &mut st.random {
        (xorshift(s) % n as u64) as usize
    } else {
        0
    };
    if n > 1 {
        st.schedule.push(Choice { rank, alts: n });
    }
    let next = cands[rank];
    // The chosen thread takes a step: every other yielded thread is
    // eligible again at the next point.
    for (t, th) in st.threads.iter_mut().enumerate() {
        th.yielded &= t == next;
    }
    st.current = next;
}

impl Scheduler {
    fn lock(&self) -> MutexGuard<'_, Exec> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Park until this thread is scheduled; aborts the thread on failure
    /// (or returns immediately when already unwinding — see
    /// [`abort_thread`]).
    fn wait_turn<'a>(&'a self, mut st: MutexGuard<'a, Exec>, me: usize) -> MutexGuard<'a, Exec> {
        loop {
            if st.failure.is_some() {
                if std::thread::panicking() {
                    return st;
                }
                drop(st);
                abort_thread();
            }
            if st.current == me {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A plain scheduling point: offer the scheduler a chance to run any
    /// other eligible thread, then continue when chosen again.
    pub(crate) fn yield_branch(&self, me: usize) {
        let mut st = self.lock();
        if st.failure.is_some() {
            drop(st);
            if std::thread::panicking() {
                return;
            }
            abort_thread();
        }
        pick_next(&mut st);
        self.cv.notify_all();
        let st = self.wait_turn(st, me);
        drop(st);
    }

    /// `yield_now`: like [`Self::yield_branch`] but deprioritises the
    /// caller until every other runnable thread has had a turn.
    pub(crate) fn thread_yield(&self, me: usize) {
        {
            let mut st = self.lock();
            st.threads[me].yielded = true;
        }
        self.yield_branch(me);
    }

    /// Acquire loop without the leading scheduling point (used after a
    /// condvar wake, where the thread was just scheduled).
    fn mutex_acquire_loop(&self, rid: usize, me: usize) {
        let mut st = self.lock();
        loop {
            if st.failure.is_some() {
                drop(st);
                abort_thread();
            }
            if let std::collections::hash_map::Entry::Vacant(e) = st.owners.entry(rid) {
                e.insert(me);
                return;
            }
            st.threads[me].status = Status::Blocked(BlockedOn::Mutex(rid));
            pick_next(&mut st);
            self.cv.notify_all();
            st = self.wait_turn(st, me);
        }
    }

    pub(crate) fn mutex_lock(&self, rid: usize, me: usize) {
        // Pre-acquire scheduling point: others may interleave between the
        // caller arriving at the lock and actually taking it.
        self.yield_branch(me);
        self.mutex_acquire_loop(rid, me);
    }

    pub(crate) fn mutex_try_lock(&self, rid: usize, me: usize) -> bool {
        self.yield_branch(me);
        let mut st = self.lock();
        if st.failure.is_some() {
            drop(st);
            abort_thread();
        }
        if let std::collections::hash_map::Entry::Vacant(e) = st.owners.entry(rid) {
            e.insert(me);
            true
        } else {
            // Deprioritise so bounded exploration is not swamped by
            // try-lock retry spam (`Steal::Retry` loops).
            st.threads[me].yielded = true;
            false
        }
    }

    pub(crate) fn mutex_release(&self, rid: usize, me: usize) {
        {
            let mut st = self.lock();
            st.owners.remove(&rid);
            for t in st.threads.iter_mut() {
                if t.status == Status::Blocked(BlockedOn::Mutex(rid)) {
                    t.status = Status::Runnable;
                }
            }
        }
        // Post-release scheduling point: a woken waiter may grab the lock
        // before the releaser proceeds.
        self.yield_branch(me);
    }

    /// Atomically release `mutex_rid`, block on condvar `cid`, and on
    /// wake-up reacquire the mutex before returning.
    pub(crate) fn condvar_wait(&self, cid: usize, mutex_rid: usize, me: usize) {
        {
            let mut st = self.lock();
            if st.failure.is_some() {
                drop(st);
                abort_thread();
            }
            st.owners.remove(&mutex_rid);
            for t in st.threads.iter_mut() {
                if t.status == Status::Blocked(BlockedOn::Mutex(mutex_rid)) {
                    t.status = Status::Runnable;
                }
            }
            st.threads[me].status = Status::Blocked(BlockedOn::Condvar(cid));
            pick_next(&mut st);
            self.cv.notify_all();
            let st = self.wait_turn(st, me);
            drop(st);
        }
        self.mutex_acquire_loop(mutex_rid, me);
    }

    pub(crate) fn condvar_notify(&self, cid: usize, me: usize, all: bool) {
        {
            let mut st = self.lock();
            for t in st.threads.iter_mut() {
                if t.status == Status::Blocked(BlockedOn::Condvar(cid)) {
                    t.status = Status::Runnable;
                    if !all {
                        break;
                    }
                }
            }
        }
        self.yield_branch(me);
    }

    /// Register a new model thread; returns its id. The thread starts
    /// runnable but only proceeds once [`Self::wait_first`] is released.
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.lock();
        st.threads.push(Th::default());
        st.threads.len() - 1
    }

    pub(crate) fn push_handle(&self, h: std::thread::JoinHandle<()>) {
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
    }

    /// Park a freshly spawned OS thread until the scheduler picks it.
    pub(crate) fn wait_first(&self, id: usize) {
        let st = self.lock();
        let st = self.wait_turn(st, id);
        drop(st);
    }

    pub(crate) fn join_wait(&self, target: usize, me: usize) {
        let mut st = self.lock();
        loop {
            if st.failure.is_some() {
                drop(st);
                abort_thread();
            }
            if st.threads[target].status == Status::Finished {
                return;
            }
            st.threads[me].status = Status::Blocked(BlockedOn::Join(target));
            pick_next(&mut st);
            self.cv.notify_all();
            st = self.wait_turn(st, me);
        }
    }

    /// Normal completion of a model thread: wake joiners, hand off.
    pub(crate) fn thread_finished(&self, id: usize) {
        let mut st = self.lock();
        st.threads[id].status = Status::Finished;
        for t in st.threads.iter_mut() {
            if t.status == Status::Blocked(BlockedOn::Join(id)) {
                t.status = Status::Runnable;
            }
        }
        pick_next(&mut st);
        self.cv.notify_all();
    }

    /// Completion after an [`Abort`] unwind: the execution has already
    /// failed; just mark the thread dead and wake everyone.
    pub(crate) fn thread_finished_quiet(&self, id: usize) {
        let mut st = self.lock();
        st.threads[id].status = Status::Finished;
        self.cv.notify_all();
    }

    /// A model thread panicked with a real payload (assertion failure in
    /// the closure under test): record it as the execution's failure.
    pub(crate) fn record_panic(&self, id: usize, payload: Box<dyn std::any::Any + Send>) {
        let msg = panic_message(payload.as_ref());
        let mut st = self.lock();
        st.threads[id].status = Status::Finished;
        if st.failure.is_none() {
            st.failure = Some(format!("thread {id} panicked: {msg}"));
        }
        st.current = NO_THREAD;
        self.cv.notify_all();
    }

    /// Run the closure once under a fresh execution. Returns the recorded
    /// schedule; panics (on the caller's thread) if the execution failed.
    pub(crate) fn run_once<F: Fn()>(
        &self,
        f: &F,
        replay: Vec<Choice>,
        random: Option<u64>,
        max_steps: usize,
    ) -> Vec<Choice> {
        {
            let mut st = self.lock();
            *st = Exec {
                active: true,
                threads: vec![Th::default()],
                current: 0,
                owners: HashMap::new(),
                schedule: Vec::new(),
                replay,
                random,
                steps: 0,
                max_steps,
                failure: None,
            };
        }
        set_tid(Some(0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        match r {
            Ok(()) => self.thread_finished(0),
            Err(p) => {
                if p.downcast_ref::<Abort>().is_some() {
                    self.thread_finished_quiet(0);
                } else {
                    self.record_panic(0, p);
                }
            }
        }
        // Wait for every spawned thread to finish (or the execution to fail).
        {
            let mut st = self.lock();
            loop {
                if st.failure.is_some() || st.threads.iter().all(|t| t.status == Status::Finished) {
                    break;
                }
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        let handles: Vec<_> = {
            let mut h = self.handles.lock().unwrap_or_else(|e| e.into_inner());
            h.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        set_tid(None);
        let (schedule, failure) = {
            let mut st = self.lock();
            st.active = false;
            (std::mem::take(&mut st.schedule), st.failure.take())
        };
        if let Some(msg) = failure {
            panic!("loom model failure: {msg}\n  schedule (rank/alts): {schedule:?}");
        }
        schedule
    }
}
