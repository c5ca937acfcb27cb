//! Instrumented synchronisation primitives (loom-style API).
//!
//! Inside a model each operation is a scheduling point; outside a model
//! every type degrades to its plain `std::sync` counterpart (poison-free),
//! so code compiled against these types still works in ordinary tests.

use crate::sched;

pub use std::sync::Arc;

/// Mutex whose lock/unlock/try_lock are scheduling points under a model.
pub struct Mutex<T> {
    rid: usize,
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]; releasing it is a scheduling point under a model.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new instrumented mutex.
    pub fn new(value: T) -> Self {
        Mutex {
            rid: sched::next_rid(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// The inner value through an exclusive borrow: no other thread can
    /// hold the lock, so this is no scheduling point.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the mutex, blocking the (model) thread until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(me) = sched::tid() {
            sched::global().mutex_lock(self.rid, me);
        }
        // Under a model the scheduler has granted logical ownership, so
        // the std lock below is uncontended by construction.
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard {
            lock: self,
            inner: Some(inner),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if let Some(me) = sched::tid() {
            if sched::global().mutex_try_lock(self.rid, me) {
                let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                Some(MutexGuard {
                    lock: self,
                    inner: Some(inner),
                })
            } else {
                None
            }
        } else {
            match self.inner.try_lock() {
                Ok(g) => Some(MutexGuard {
                    lock: self,
                    inner: Some(g),
                }),
                Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                }),
                Err(std::sync::TryLockError::WouldBlock) => None,
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Outside any scheduling: a `Debug` print takes no model step.
        match self.inner.try_lock() {
            Ok(v) => f.debug_tuple("Mutex").field(&*v).finish(),
            Err(_) => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard present until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before the logical one: once the
        // scheduler hands the mutex to another model thread, the std
        // lock must already be free.
        drop(self.inner.take());
        if let Some(me) = sched::tid() {
            sched::global().mutex_release(self.lock.rid, me);
        }
    }
}

/// Condition variable paired with [`Mutex`].
pub struct Condvar {
    cid: usize,
    inner: std::sync::Condvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Creates a new instrumented condvar.
    pub fn new() -> Self {
        Condvar {
            cid: sched::next_rid(),
            inner: std::sync::Condvar::new(),
        }
    }

    /// Releases the guard's mutex, blocks until notified, reacquires.
    /// (parking_lot-style signature: the guard is updated in place.)
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if let Some(me) = sched::tid() {
            drop(guard.inner.take());
            sched::global().condvar_wait(self.cid, guard.lock.rid, me);
            guard.inner = Some(guard.lock.inner.lock().unwrap_or_else(|e| e.into_inner()));
        } else {
            let g = guard.inner.take().expect("guard present until drop");
            let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
            guard.inner = Some(g);
        }
    }

    /// Wakes one waiter (the lowest-id blocked model thread).
    pub fn notify_one(&self) {
        if let Some(me) = sched::tid() {
            sched::global().condvar_notify(self.cid, me, false);
        } else {
            self.inner.notify_one();
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        if let Some(me) = sched::tid() {
            sched::global().condvar_notify(self.cid, me, true);
        } else {
            self.inner.notify_all();
        }
    }
}

/// Instrumented atomics: every operation is a scheduling point.
pub mod atomic {
    use crate::sched;

    pub use std::sync::atomic::Ordering;

    fn point() {
        if let Some(me) = sched::tid() {
            sched::global().yield_branch(me);
        }
    }

    macro_rules! int_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ty, $ty:ty) => {
            $(#[$doc])*
            #[derive(Default, Debug)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Creates a new atomic with the given initial value
                /// (`const`, so it can initialize a `static`).
                pub const fn new(v: $ty) -> Self {
                    Self { inner: <$std>::new(v) }
                }

                /// Exclusive access needs no scheduling point.
                pub fn get_mut(&mut self) -> &mut $ty {
                    self.inner.get_mut()
                }

                /// Instrumented fetch_update (one scheduling point, then
                /// the std retry loop, which nothing can interleave).
                pub fn fetch_update(
                    &self,
                    set: Ordering,
                    fetch: Ordering,
                    f: impl FnMut($ty) -> Option<$ty>,
                ) -> Result<$ty, $ty> {
                    point();
                    self.inner.fetch_update(set, fetch, f)
                }

                /// Instrumented load.
                pub fn load(&self, o: Ordering) -> $ty {
                    point();
                    self.inner.load(o)
                }

                /// Instrumented store.
                pub fn store(&self, v: $ty, o: Ordering) {
                    point();
                    self.inner.store(v, o)
                }

                /// Instrumented swap.
                pub fn swap(&self, v: $ty, o: Ordering) -> $ty {
                    point();
                    self.inner.swap(v, o)
                }

                /// Instrumented fetch_add.
                pub fn fetch_add(&self, v: $ty, o: Ordering) -> $ty {
                    point();
                    self.inner.fetch_add(v, o)
                }

                /// Instrumented fetch_sub.
                pub fn fetch_sub(&self, v: $ty, o: Ordering) -> $ty {
                    point();
                    self.inner.fetch_sub(v, o)
                }

                /// Instrumented compare_exchange.
                pub fn compare_exchange(
                    &self,
                    cur: $ty,
                    new: $ty,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$ty, $ty> {
                    point();
                    self.inner.compare_exchange(cur, new, ok, err)
                }
            }
        };
    }

    int_atomic!(
        /// Instrumented `AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );
    int_atomic!(
        /// Instrumented `AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    int_atomic!(
        /// Instrumented `AtomicI64`.
        AtomicI64,
        std::sync::atomic::AtomicI64,
        i64
    );

    /// Instrumented `AtomicBool`.
    #[derive(Default, Debug)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic bool (`const`, as [`AtomicU64::new`]).
        pub const fn new(v: bool) -> Self {
            Self {
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        /// Instrumented load.
        pub fn load(&self, o: Ordering) -> bool {
            point();
            self.inner.load(o)
        }

        /// Instrumented store.
        pub fn store(&self, v: bool, o: Ordering) {
            point();
            self.inner.store(v, o)
        }

        /// Instrumented swap.
        pub fn swap(&self, v: bool, o: Ordering) -> bool {
            point();
            self.inner.swap(v, o)
        }

        /// Instrumented compare_exchange.
        pub fn compare_exchange(
            &self,
            cur: bool,
            new: bool,
            ok: Ordering,
            err: Ordering,
        ) -> Result<bool, bool> {
            point();
            self.inner.compare_exchange(cur, new, ok, err)
        }
    }
}
