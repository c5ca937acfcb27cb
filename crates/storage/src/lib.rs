//! # etsqp-storage — page-based time-series storage
//!
//! Models how IoT databases lay out encoded series (paper §VI, Apache
//! IoTDB / TsFile): every time series is stored as a sequence of **pages**,
//! each encoded separately with a private header carrying the statistics
//! the pruning rules of §V need (first/last timestamp, min/max value,
//! element count) plus the codec tags of the timestamp and value columns.
//!
//! * [`page::Page`] — one encoded page (timestamp chunk + value chunk).
//! * [`ingest`] — the live write path: a sharded series map where each
//!   series owns a hot append chunk that seals into pages at a point or
//!   time threshold (Gorilla-style hot/sealed split).
//! * [`store::SeriesStore`] — an in-memory multi-series store with I/O
//!   accounting (pages and bytes touched), the substrate the query
//!   pipelines and benchmarks run against. Queries snapshot sealed pages
//!   plus the hot chunk atomically via [`store::SeriesStore::snapshot`].
//! * [`segment::Segment`] — sealed pages in immutable groups of
//!   [`segment::SEGMENT_PAGES`], each with the union of its page
//!   headers, an all-verified bit, a memo of whole-segment moments and a
//!   slot for its quantile digest: what a snapshot clones and a warm
//!   aggregate reads.
//! * [`tsfile::TsFile`] — a minimal on-disk container (magic, series
//!   index, length-prefixed pages) for persistence round-trips.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ingest;
pub mod page;
pub mod segment;
pub mod store;
pub mod tsfile;

// The atomics behind verified marks and memos, and the lock of a
// segment's digest slot: loom's instrumented ones under the `model`
// feature (each operation a scheduling point), std's and parking_lot's
// otherwise.
#[cfg(feature = "model")]
pub(crate) use loom::sync::{atomic, Mutex};
#[cfg(not(feature = "model"))]
pub(crate) use {parking_lot::Mutex, std::sync::atomic};

// Re-exported so downstream fault-injection tests can rebuild page
// payloads (`Page::{ts_bytes, val_bytes}`) without a direct `bytes` dep.
pub use bytes::Bytes;

/// Errors raised by storage operations.
#[derive(Debug)]
pub enum Error {
    /// Underlying codec failure.
    Encoding(etsqp_encoding::Error),
    /// Structural problem in a file or page image.
    Corrupt {
        /// Byte offset into the file or image where the problem was found.
        offset: u64,
        /// What was wrong at that offset.
        reason: &'static str,
    },
    /// A series handle was used against its declared type or lifecycle
    /// (e.g. integer append on a float series) — caller error, not
    /// corrupt data.
    Misuse(&'static str),
    /// Timestamps must be strictly increasing within a series.
    OutOfOrder {
        /// Latest timestamp already in the series.
        last: i64,
        /// The out-of-order timestamp that was rejected.
        attempted: i64,
    },
    /// The requested series does not exist.
    NoSuchSeries(String),
    /// I/O failure while reading or writing a TsFile.
    Io(std::io::Error),
}

impl Error {
    /// Builds a [`Error::Corrupt`] at a byte offset.
    pub fn corrupt(offset: u64, reason: &'static str) -> Self {
        Error::Corrupt { offset, reason }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Encoding(e) => write!(f, "encoding error: {e}"),
            Error::Corrupt { offset, reason } => {
                write!(f, "corrupt storage image at byte {offset}: {reason}")
            }
            Error::Misuse(what) => write!(f, "series misuse: {what}"),
            Error::OutOfOrder { last, attempted } => {
                write!(f, "timestamp {attempted} not after {last}")
            }
            Error::NoSuchSeries(name) => write!(f, "no such series: {name}"),
            Error::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Encoding(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<etsqp_encoding::Error> for Error {
    fn from(e: etsqp_encoding::Error) -> Self {
        Error::Encoding(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    /// Held by the unit tests that read a memo back or bump the memo
    /// epoch, so that another test's bump cannot land between their
    /// write and their read.
    pub(crate) fn memo_epoch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}
