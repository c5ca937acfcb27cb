//! Offline shim for the subset of `crossbeam` this workspace uses:
//! [`scope`] (scoped threads, built on `std::thread::scope`) and
//! [`channel`] (MPMC `unbounded`/`bounded` queues built on
//! `Mutex<VecDeque>` + `Condvar`). See `shims/README.md`.

#![forbid(unsafe_code)]

/// Result of [`scope`]: `Err` carries a panic payload if any spawned
/// thread panicked (matching `crossbeam::scope`'s contract).
pub type ScopeResult<T> = std::thread::Result<T>;

/// A scope handle mirroring `crossbeam::thread::Scope`: `spawn` passes the
/// scope itself to the closure so spawned threads can spawn more.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Clone for Scope<'scope, 'env> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'scope, 'env> Copy for Scope<'scope, 'env> {}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread; the closure receives the scope (callers
    /// that don't re-spawn just bind it as `|_|`).
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let me = *self;
        self.inner.spawn(move || f(&me))
    }
}

/// Creates a scope for spawning borrowing threads. All threads are joined
/// before this returns; returns `Err(payload)` if the closure or any
/// spawned thread panicked.
pub fn scope<'env, F, R>(f: F) -> ScopeResult<R>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }))
}

/// Re-export layout parity with `crossbeam::thread`.
pub mod thread {
    pub use super::{scope, Scope};
}

pub mod channel {
    //! Multi-producer multi-consumer channels (`unbounded` / `bounded`).

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// gives the message back.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel is currently empty.
        Empty,
        /// Channel is empty and all senders are gone.
        Disconnected,
    }

    /// The sending half; cloneable (multi-producer).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (multi-consumer).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                drop(inner);
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                match inner.cap {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner = self.shared.not_full.wait(inner).unwrap();
                    }
                    _ => break,
                }
            }
            inner.queue.push_back(value);
            drop(inner);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Receives a value, blocking while the channel is empty and at
        /// least one sender is alive.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.shared.not_empty.wait(inner).unwrap();
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            if let Some(v) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                Ok(v)
            } else if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Drains currently available messages without blocking.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Channel with unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Channel holding at most `cap` in-flight messages (`send` blocks
    /// when full). `cap == 0` behaves as capacity 1 (no rendezvous).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_joins_and_returns() {
        let mut data = vec![1, 2, 3];
        let r = scope(|s| {
            s.spawn(|_| 41);
            data.push(4);
            7
        })
        .unwrap();
        assert_eq!(r, 7);
        assert_eq!(data, vec![1, 2, 3, 4]);
    }

    #[test]
    fn scope_reports_worker_panic() {
        let r = scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
        assert!(r.is_err());
    }

    #[test]
    fn mpmc_channel_delivers_everything() {
        let (tx, rx) = channel::unbounded::<usize>();
        let n = 1000;
        let got = scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                let rx = rx.clone();
                handles.push(s.spawn(move |_| {
                    let mut sum = 0usize;
                    while let Ok(v) = rx.recv() {
                        sum += v;
                    }
                    sum
                }));
            }
            for i in 0..n {
                tx.send(i).unwrap();
            }
            drop(tx);
            drop(rx);
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        })
        .unwrap();
        assert_eq!(got, n * (n - 1) / 2);
    }

    #[test]
    fn bounded_channel_blocks_until_drained() {
        let (tx, rx) = channel::bounded::<i64>(1);
        scope(|s| {
            s.spawn(move |_| {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..100 {
                assert_eq!(rx.recv().unwrap(), i);
            }
        })
        .unwrap();
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let (tx, rx) = channel::unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.send(9), Err(channel::SendError(9)));
    }
}
