//! # etsqp-core — Encoded Time-Series Query Pipelines (ETSQP)
//!
//! The paper's primary contribution: a pipeline query engine that executes
//! selective aggregations *directly over encoded IoT time series*.
//!
//! Module map (paper section → module):
//!
//! | Paper | Module | What it implements |
//! |-------|--------|--------------------|
//! | §III-A, Alg. 1 | [`decode`] | column decode: the 32-bit gates, the walker's write sink or the codec's serial decoder |
//! | Alg. 1, Fig. 14(d) | [`decode_fold`] | the one walker over packed deltas: unpack → prefix → widen and write, or → filter → accumulate without materializing |
//! | §III-B | `etsqp_simd::tables` | JIT-style cached shuffle/shift/mask plans |
//! | §III-C, Fig. 8 | [`exec`], [`pool`] | one job per segment morsel of kept pages (a page for row scans), claimed from one cursor by the pool's runners (no page slicing) |
//! | §IV, Prop. 3 | [`fused`] | aggregation without decoding (Delta / Delta-Repeat) |
//! | §V, Prop. 4/5 | [`prune`] | time/value pruning from encoding statistics |
//! | §VI, Alg. 2 | [`plan`], [`expr`] | `Pipe`: logical plan → pipeline jobs + merge nodes |
//! | §VI-B | [`sql`], [`engine`] | SQL front end and the integrated database facade |
//!
//! The quickest way in is [`engine::IotDb`]:
//!
//! ```
//! use etsqp_core::engine::{EngineOptions, IotDb};
//!
//! let db = IotDb::new(EngineOptions::default());
//! db.create_series("velocity").unwrap();
//! for i in 0..10_000i64 {
//!     db.append("velocity", i * 1000, 60 + (i % 25)).unwrap();
//! }
//! db.flush().unwrap();
//! let result = db
//!     .query("SELECT AVG(velocity) FROM velocity WHERE time >= 100000 AND time <= 900000")
//!     .unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cancel;
pub mod decode;
pub mod decode_fold;
pub mod engine;
pub mod exec;
pub mod expr;
pub mod float;
pub mod fused;
pub mod oracle;
pub mod partial;
pub mod physical;
pub mod plan;
pub mod pool;
pub mod prune;
pub mod sql;

/// Errors raised by the query pipelines.
#[derive(Debug)]
pub enum Error {
    /// Underlying codec failure.
    Encoding(etsqp_encoding::Error),
    /// Storage-layer failure.
    Storage(etsqp_storage::Error),
    /// Structural decode failure inside a pipeline.
    Decode(&'static str),
    /// SQL text could not be parsed.
    Sql(String),
    /// The logical plan is not executable (unknown series, bad window…).
    Plan(String),
    /// An aggregate overflowed its checked accumulator (§VI-C).
    Overflow,
    /// The query was cancelled via its [`cancel::CancellationToken`].
    Cancelled,
    /// The query ran past its deadline (`--timeout-ms` /
    /// [`cancel::CancellationToken::with_timeout`]).
    Timeout,
    /// The service shed this query at admission because both the
    /// in-flight bound and the wait queue were full. Failing fast here
    /// is the point: stacking the query behind a saturated queue would
    /// only add latency for everyone. `retry_after_ms` is the server's
    /// estimate of when capacity frees up (clients should back off at
    /// least this long before retrying).
    Overloaded {
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A scheduler worker panicked; the payload message is preserved so
    /// one bad page aborts the query, not the process.
    Worker(String),
    /// The compiled physical plan violated the `etsqp-verify` invariant
    /// catalog ([`physical::verify`]) — a planner bug caught before the
    /// executor could act on the broken plan.
    Verify(physical::verify::VerifyError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Encoding(e) => write!(f, "encoding: {e}"),
            Error::Storage(e) => write!(f, "storage: {e}"),
            Error::Decode(what) => write!(f, "decode: {what}"),
            Error::Sql(msg) => write!(f, "sql: {msg}"),
            Error::Plan(msg) => write!(f, "plan: {msg}"),
            Error::Overflow => write!(f, "aggregate overflow"),
            Error::Cancelled => write!(f, "query cancelled"),
            Error::Timeout => write!(f, "query deadline exceeded"),
            Error::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms} ms")
            }
            Error::Worker(msg) => write!(f, "worker panicked: {msg}"),
            Error::Verify(e) => write!(f, "plan verifier: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Encoding(e) => Some(e),
            Error::Storage(e) => Some(e),
            Error::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<etsqp_encoding::Error> for Error {
    fn from(e: etsqp_encoding::Error) -> Self {
        Error::Encoding(e)
    }
}

impl From<etsqp_storage::Error> for Error {
    fn from(e: etsqp_storage::Error) -> Self {
        Error::Storage(e)
    }
}

impl Error {
    /// Whether this error traces back to rejected (corrupt or hostile)
    /// input rather than usage or transient conditions.
    pub fn is_corrupt(&self) -> bool {
        match self {
            Error::Encoding(_) | Error::Decode(_) => true,
            Error::Storage(e) => matches!(
                e,
                etsqp_storage::Error::Corrupt { .. } | etsqp_storage::Error::Encoding(_)
            ),
            _ => false,
        }
    }

    /// The process exit status for this error, shared by every binary
    /// front end (CLI and server) so scripts can react to the failure
    /// class. The table (documented in the README):
    ///
    /// | code | meaning |
    /// |------|---------|
    /// | 1    | generic failure (SQL, plan, worker, verifier, I/O…) |
    /// | 3    | corrupt input rejected (checksum, hostile header…) |
    /// | 4    | query deadline exceeded ([`Error::Timeout`]) |
    /// | 5    | shed at admission ([`Error::Overloaded`]) |
    /// | 6    | query cancelled ([`Error::Cancelled`]) |
    ///
    /// (0 is success and 2 is a usage error, per convention; neither
    /// reaches this function.)
    pub fn exit_code(&self) -> i32 {
        match self {
            _ if self.is_corrupt() => 3,
            Error::Timeout => 4,
            Error::Overloaded { .. } => 5,
            Error::Cancelled => 6,
            _ => 1,
        }
    }
}

/// Result alias for pipeline operations.
pub type Result<T> = std::result::Result<T, Error>;
