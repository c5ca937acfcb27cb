//! Cooperative query cancellation and deadlines.
//!
//! A [`CancellationToken`] is handed to a query at submission time and
//! checked at every morsel boundary by the executors ([`crate::exec`],
//! [`crate::pool`]): a cancelled or deadlined query stops within one
//! morsel of work, surfaces as [`Error::Cancelled`] / [`Error::Timeout`],
//! and leaves the shared worker pool fully usable — remaining morsels of
//! the batch drain as errors instead of executing.
//!
//! The check is cooperative rather than preemptive on purpose: morsels
//! are bounded (one page), so the worst-case overshoot past a
//! deadline is a single page's decode, and no locks or thread state are
//! ever abandoned mid-update.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{Error, Result};

/// Why a token fired, latched on first observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fired {
    Cancelled,
    Deadline,
}

/// Token states; the first transition out of `LIVE` wins, so every
/// worker of a query reports the same cause.
const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

#[derive(Debug)]
struct Inner {
    state: AtomicU8,
    /// Absolute deadline; checked lazily by [`CancellationToken::check`].
    deadline: Option<Instant>,
}

/// A cheaply cloneable handle signalling that a query should stop.
///
/// The default token never fires and costs nothing to check, so every
/// internal executor path takes one unconditionally.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    inner: Option<Arc<Inner>>,
}

impl CancellationToken {
    /// A token that can be cancelled explicitly (no deadline).
    pub fn new() -> Self {
        CancellationToken {
            inner: Some(Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: None,
            })),
        }
    }

    /// A token that fires once `timeout` has elapsed (and can also be
    /// cancelled explicitly before that).
    pub fn with_timeout(timeout: Duration) -> Self {
        CancellationToken {
            inner: Some(Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: Instant::now().checked_add(timeout),
            })),
        }
    }

    /// A token that never fires (the default for unmanaged queries).
    pub fn none() -> Self {
        CancellationToken::default()
    }

    /// Requests cancellation. Safe to call from any thread, any number
    /// of times; in-flight morsels finish, queued ones drain as errors.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            let _ =
                inner
                    .state
                    .compare_exchange(LIVE, CANCELLED, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Whether the token has fired (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        self.fired().is_some()
    }

    fn fired(&self) -> Option<Fired> {
        let inner = self.inner.as_ref()?;
        let mut state = inner.state.load(Ordering::Acquire);
        if state == LIVE {
            if let Some(deadline) = inner.deadline {
                if Instant::now() >= deadline {
                    // Latch the cause; a concurrent explicit cancel may
                    // win the race, and then every worker reports that.
                    state = match inner.state.compare_exchange(
                        LIVE,
                        DEADLINE,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => DEADLINE,
                        Err(cur) => cur,
                    };
                }
            }
        }
        match state {
            CANCELLED => Some(Fired::Cancelled),
            DEADLINE => Some(Fired::Deadline),
            _ => None,
        }
    }

    /// The morsel-boundary check: `Ok` to keep working, or the typed
    /// error the query must surface.
    pub fn check(&self) -> Result<()> {
        match self.fired() {
            None => Ok(()),
            Some(Fired::Cancelled) => Err(Error::Cancelled),
            Some(Fired::Deadline) => Err(Error::Timeout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_fires() {
        let t = CancellationToken::none();
        assert!(t.check().is_ok());
        t.cancel(); // no-op on the inert token
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
    }

    #[test]
    fn explicit_cancel_latches() {
        let t = CancellationToken::new();
        assert!(t.check().is_ok());
        let clone = t.clone();
        clone.cancel();
        assert!(matches!(t.check(), Err(Error::Cancelled)));
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_fires_as_timeout() {
        let t = CancellationToken::with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(t.check(), Err(Error::Timeout)));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let t = CancellationToken::with_timeout(Duration::from_secs(3600));
        assert!(t.check().is_ok());
    }

    #[test]
    fn explicit_cancel_wins_over_pending_deadline() {
        let t = CancellationToken::with_timeout(Duration::from_secs(3600));
        t.cancel();
        assert!(matches!(t.check(), Err(Error::Cancelled)));
    }
}
