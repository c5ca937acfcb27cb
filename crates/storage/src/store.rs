//! In-memory multi-series store with I/O accounting, built on the
//! sharded live-ingestion engine.
//!
//! The query pipelines and benchmarks consume pages through this store so
//! every experiment can report how many encoded bytes it actually touched
//! — the quantity behind the paper's I/O-bound observations (Fig. 14(b))
//! and the throughput definition of §VII-B ("tuples in loaded pages per
//! second that counts tuples of pruned pages").
//!
//! Writes go through [`crate::ingest`]: series names hash into N shards
//! (append = shard read lock + per-series mutex, no store-wide lock),
//! and each series buffers points in a hot chunk that seals into a
//! checksummed page at the configured point-count or time threshold.
//! Sealed pages are grouped into immutable [`Segment`]s. Readers call
//! [`SeriesStore::snapshot`] to get the segments plus a point-in-time
//! copy of the hot chunk as one atomic pair, so `SELECT` sees a point
//! the moment `append` returns — no `flush` required.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use etsqp_encoding::Encoding;

use crate::ingest::{HotChunk, HotSnapshot, SeriesState, ShardMap, DEFAULT_SHARDS};
use crate::page::Page;
use crate::segment::{SealedPages, Segment, SEGMENT_PAGES};
use crate::{Error, Result};

/// Counters for encoded bytes and pages handed to readers.
#[derive(Debug, Default)]
pub struct IoStats {
    bytes_read: AtomicU64,
    pages_read: AtomicU64,
}

impl IoStats {
    /// Records one page read of `bytes` encoded bytes.
    pub fn record_page(&self, bytes: usize) {
        self.record_pages(1, bytes as u64);
    }

    /// Records `pages` page reads of `bytes` encoded bytes in all.
    pub fn record_pages(&self, pages: u64, bytes: u64) {
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.pages_read.fetch_add(pages, Ordering::Relaxed);
    }

    /// Encoded bytes handed out so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Pages handed out so far.
    pub fn pages_read(&self) -> u64 {
        self.pages_read.load(Ordering::Relaxed)
    }

    /// Resets both counters (between benchmark runs).
    pub fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.pages_read.store(0, Ordering::Relaxed);
    }
}

/// Default points per sealed page.
pub const DEFAULT_PAGE_POINTS: usize = 1024;

/// Construction knobs for a [`SeriesStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Points per sealed page (the §VI page size the pipelines are tuned
    /// for). Every series created on the store seals at this count — and
    /// keeps sealing at it for the life of the series.
    pub page_points: usize,
    /// Shard count for the series map (rounded up to a power of two).
    pub shards: usize,
    /// Optional time-span seal threshold: a hot chunk whose buffered
    /// range reaches this many time units seals even when short of
    /// `page_points` (Gorilla's "2-hour block" discipline). `None`
    /// disables time-based sealing.
    pub seal_interval: Option<i64>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            page_points: DEFAULT_PAGE_POINTS,
            shards: DEFAULT_SHARDS,
            seal_interval: None,
        }
    }
}

/// An atomic view of one series: every sealed segment plus a
/// point-in-time copy of the hot chunk, captured under a single
/// series-lock hold.
///
/// Any query planned from one snapshot is consistent: it sees a prefix
/// of the series' append stream, with no torn pages and no point counted
/// twice (a point is either in `segments` or in `hot`, never both).
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Sealed, immutable, checksummed pages in time order, as shared
    /// segment handles (the last one may be short: the open tail).
    pub segments: Vec<Arc<Segment>>,
    /// The hot chunk's buffered columns; `None` when nothing is buffered.
    pub hot: Option<HotSnapshot>,
}

impl SeriesSnapshot {
    /// Every sealed page, in time order.
    pub fn pages(&self) -> impl Iterator<Item = &Arc<Page>> {
        self.segments.iter().flat_map(|s| s.pages())
    }
}

/// A named collection of series, each a vector of sealed pages plus a
/// live hot chunk.
///
/// Cloneable handles share the same underlying store (`Arc` internally),
/// so pipeline threads can read pages concurrently while ingest threads
/// append.
pub struct SeriesStore {
    map: Arc<ShardMap>,
    io: Arc<IoStats>,
    opts: StoreOptions,
    /// Pages per sealed segment: [`SEGMENT_PAGES`] but in tests.
    segment_pages: usize,
}

impl Clone for SeriesStore {
    fn clone(&self) -> Self {
        Self {
            map: Arc::clone(&self.map),
            io: Arc::clone(&self.io),
            opts: self.opts,
            segment_pages: self.segment_pages,
        }
    }
}

impl Default for SeriesStore {
    fn default() -> Self {
        Self::with_options(StoreOptions::default())
    }
}

impl SeriesStore {
    /// Creates a store sealing pages of `page_points` points (default
    /// shard count, no time-based sealing).
    pub fn new(page_points: usize) -> Self {
        Self::with_options(StoreOptions {
            page_points,
            ..StoreOptions::default()
        })
    }

    /// Creates a store with explicit sharding and sealing options.
    pub fn with_options(opts: StoreOptions) -> Self {
        Self::with_segment_pages(opts, SEGMENT_PAGES)
    }

    /// A store sealing segments of `segment_pages` pages instead of
    /// [`SEGMENT_PAGES`]: for tests that hold every segment size to the
    /// same answers.
    #[doc(hidden)]
    pub fn with_segment_pages(opts: StoreOptions, segment_pages: usize) -> Self {
        Self {
            map: Arc::new(ShardMap::new(opts.shards)),
            io: Arc::new(IoStats::default()),
            opts,
            segment_pages,
        }
    }

    /// A new series' state around its live writer (`None`: page-only).
    fn series_state(&self, hot: Option<HotChunk>) -> SeriesState {
        SeriesState {
            pages: SealedPages::new(self.segment_pages),
            hot,
        }
    }

    /// Shared I/O counters.
    pub fn io(&self) -> &IoStats {
        &self.io
    }

    /// Shard count of the underlying series map.
    pub fn shard_count(&self) -> usize {
        self.map.shard_count()
    }

    /// Registers a series with the given column codecs. Idempotent for an
    /// existing series with the same name. A float value codec makes a
    /// float series.
    pub fn create_series(&self, name: &str, ts_encoding: Encoding, val_encoding: Encoding) {
        self.map.get_or_insert(name, || {
            self.series_state(Some(HotChunk::new(
                ts_encoding,
                val_encoding,
                self.opts.page_points,
                self.opts.seal_interval,
            )))
        });
    }

    /// Registers a float-valued series (`val_encoding` must be a float
    /// codec: GorillaFloat, Chimp or Elf).
    pub fn create_series_f64(&self, name: &str, ts_encoding: Encoding, val_encoding: Encoding) {
        assert!(val_encoding.is_float(), "value codec must be a float codec");
        self.create_series(name, ts_encoding, val_encoding);
    }

    fn with_series<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut SeriesState) -> Result<R>,
    ) -> Result<R> {
        let cell = self
            .map
            .get(name)
            .ok_or_else(|| Error::NoSuchSeries(name.to_string()))?;
        let mut state = cell.state.lock();
        f(&mut state)
    }

    /// Pushes points into a series' hot chunk under one series-lock hold,
    /// sealing pages as thresholds are crossed; `float` names the value
    /// domain the caller writes (a float series takes ordered keys).
    fn push(
        &self,
        name: &str,
        float: bool,
        points: impl IntoIterator<Item = (i64, i64)>,
    ) -> Result<()> {
        self.with_series(name, |state| {
            let hot = match state.hot.as_mut() {
                Some(h) if h.is_float() == float => h,
                Some(_) if float => return Err(Error::Misuse("integer series; use append")),
                Some(_) => return Err(Error::Misuse("float series; use append_f64")),
                None => return Err(Error::Misuse("page-only series has no live writer")),
            };
            for (t, v) in points {
                if let Some(page) = hot.push(t, v)? {
                    state.pages.push(page);
                }
            }
            Ok(())
        })
    }

    /// Appends one point to a series' hot chunk. A page sealed by this
    /// append becomes visible to readers before the call returns.
    pub fn append(&self, name: &str, ts: i64, value: i64) -> Result<()> {
        self.push(name, false, [(ts, value)])
    }

    /// Appends one float point to a float series: its hot chunk buffers
    /// the value's ordered key, the one place a float becomes a key.
    pub fn append_f64(&self, name: &str, ts: i64, value: f64) -> Result<()> {
        self.push(
            name,
            true,
            [(ts, etsqp_encoding::f64_to_ordered_i64(value))],
        )
    }

    /// Bulk-appends points; pages seal as thresholds are crossed. The
    /// whole batch runs under one series-lock hold, so a concurrent
    /// `flush` can never slice a short page out of the middle of it.
    pub fn append_all(&self, name: &str, ts: &[i64], values: &[i64]) -> Result<()> {
        self.push(name, false, ts.iter().copied().zip(values.iter().copied()))
    }

    /// Force-seals the hot chunk into a (possibly short) page. Empty hot
    /// chunks are a no-op and the series stays writable either way; on a
    /// seal error the buffered points are preserved for retry.
    pub fn flush(&self, name: &str) -> Result<()> {
        self.with_series(name, |state| {
            if let Some(hot) = state.hot.as_mut() {
                if let Some(page) = hot.seal()? {
                    state.pages.push(page);
                }
            }
            Ok(())
        })
    }

    /// Names of all series, sorted.
    pub fn series_names(&self) -> Vec<String> {
        self.map.names()
    }

    /// Sealed page count of a series.
    pub fn page_count(&self, name: &str) -> Result<usize> {
        self.with_series(name, |state| Ok(state.pages.len()))
    }

    /// Points currently buffered in the hot chunk (not yet sealed).
    pub fn buffered_points(&self, name: &str) -> Result<usize> {
        self.with_series(name, |state| Ok(state.hot.as_ref().map_or(0, |h| h.len())))
    }

    /// Returns sealed page handles *without* charging I/O — used by
    /// planners that inspect headers only; readers charge I/O when they
    /// touch payloads.
    pub fn peek_pages(&self, name: &str) -> Result<Vec<Arc<Page>>> {
        self.with_series(name, |state| Ok(state.pages.pages().cloned().collect()))
    }

    /// Atomically captures the sealed segments plus the hot chunk's
    /// buffered columns under one series-lock hold. This is the read
    /// path queries plan from: the pair is a consistent prefix of the
    /// append stream, and it costs one handle per segment. No I/O is
    /// charged; executors charge pages when they decode them.
    pub fn snapshot(&self, name: &str) -> Result<SeriesSnapshot> {
        self.with_series(name, |state| {
            Ok(SeriesSnapshot {
                segments: state.pages.segments(),
                hot: state.hot.as_ref().and_then(|h| h.snapshot()),
            })
        })
    }

    /// Inserts pre-encoded pages directly (used by TsFile loading and by
    /// benchmarks that prepare data once). Creates a page-only series —
    /// no hot chunk — when the name is new.
    pub fn insert_pages(&self, name: &str, pages: Vec<Page>) {
        let cell = self.map.get_or_insert(name, || self.series_state(None));
        let mut state = cell.state.lock();
        for page in pages {
            state.pages.push(Arc::new(page));
        }
    }

    /// Fault-injection hook: replaces the `index`-th stored page of a
    /// series with a mutated copy. Tests use this to prove that queries
    /// over corrupted pages abort with a typed error instead of returning
    /// silently wrong aggregates — the mutation deliberately does *not*
    /// reseal the page checksum, exactly like real memory or disk
    /// corruption would not. The copy lands in a new segment, without
    /// the all-verified mark or a memo.
    pub fn corrupt_page(
        &self,
        name: &str,
        index: usize,
        mutate: impl FnOnce(&mut Page),
    ) -> Result<()> {
        self.with_series(name, |state| {
            let stored = state.pages.pages().nth(index);
            let mut page = Page::clone(stored.ok_or(Error::Misuse("page index out of range"))?);
            mutate(&mut page);
            state.pages.replace(index, page)
        })
    }

    /// Total number of points across all sealed pages of a series
    /// (buffered hot points are reported by [`Self::buffered_points`]).
    pub fn point_count(&self, name: &str) -> Result<u64> {
        self.with_series(name, |state| {
            Ok(state.pages.pages().map(|p| p.header.count as u64).sum())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_store() -> SeriesStore {
        let store = SeriesStore::new(100);
        store.create_series("s1", Encoding::Ts2Diff, Encoding::Ts2Diff);
        let ts: Vec<i64> = (0..250).map(|i| i * 2).collect();
        let vals: Vec<i64> = (0..250).collect();
        store.append_all("s1", &ts, &vals).unwrap();
        store.flush("s1").unwrap();
        store
    }

    #[test]
    fn create_append_flush_read() {
        let store = filled_store();
        assert_eq!(store.page_count("s1").unwrap(), 3);
        assert_eq!(store.point_count("s1").unwrap(), 250);
        let pages = store.peek_pages("s1").unwrap();
        let (ts, _) = pages[0].decode().unwrap();
        assert_eq!(ts[0], 0);
    }

    #[test]
    fn io_accounting() {
        let store = filled_store();
        let pages = store.peek_pages("s1").unwrap();
        assert_eq!(store.io().pages_read(), 0, "peek must not charge I/O");
        let expect: u64 = pages.iter().map(|p| p.encoded_len() as u64).sum();
        store.io().record_pages(pages.len() as u64, expect);
        store.io().record_page(pages[0].encoded_len());
        assert_eq!(store.io().pages_read(), 4);
        assert_eq!(
            store.io().bytes_read(),
            expect + pages[0].encoded_len() as u64
        );
        store.io().reset();
        assert_eq!(store.io().bytes_read(), 0);
        assert_eq!(store.io().pages_read(), 0);
    }

    #[test]
    fn missing_series_errors() {
        let store = SeriesStore::default();
        assert!(matches!(
            store.peek_pages("nope"),
            Err(Error::NoSuchSeries(_))
        ));
        assert!(store.append("nope", 1, 1).is_err());
    }

    #[test]
    fn append_after_flush_continues() {
        let store = filled_store();
        store.append("s1", 10_000, 1).unwrap();
        store.flush("s1").unwrap();
        assert_eq!(store.point_count("s1").unwrap(), 251);
    }

    #[test]
    fn clone_shares_state() {
        let store = filled_store();
        let clone = store.clone();
        let pages = clone.peek_pages("s1").unwrap();
        clone.io().record_pages(pages.len() as u64, 0);
        assert_eq!(store.io().pages_read(), 3);
    }

    #[test]
    fn snapshot_sees_unflushed_points() {
        let store = SeriesStore::new(100);
        store.create_series("live", Encoding::Ts2Diff, Encoding::Ts2Diff);
        store.append("live", 1, 10).unwrap();
        store.append("live", 2, 20).unwrap();
        let snap = store.snapshot("live").unwrap();
        assert!(snap.segments.is_empty());
        let hot = snap.hot.expect("buffered points visible without flush");
        assert_eq!(hot.len(), 2);
        assert_eq!(store.buffered_points("live").unwrap(), 2);
        // peek_pages still reports sealed pages only.
        assert!(store.peek_pages("live").unwrap().is_empty());
    }

    #[test]
    fn snapshot_is_atomic_pair() {
        let store = SeriesStore::new(4);
        store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
        for i in 0..10i64 {
            store.append("s", i, i).unwrap();
        }
        // 10 points at page_points=4: two sealed pages + 2 hot.
        let snap = store.snapshot("s").unwrap();
        let sealed: u64 = snap.pages().map(|p| p.header.count as u64).sum();
        let hot = snap.hot.as_ref().map_or(0, |h| h.len() as u64);
        assert_eq!(sealed, 8);
        assert_eq!(hot, 2);
    }

    #[test]
    fn a_float_value_codec_makes_a_float_series() {
        let store = SeriesStore::new(2);
        store.create_series("c", Encoding::Ts2Diff, Encoding::Chimp);
        assert!(matches!(store.append("c", 1, 1), Err(Error::Misuse(_))));
        assert!(matches!(
            store.append_all("c", &[1], &[1]),
            Err(Error::Misuse(_))
        ));
        store.append_f64("c", 1, -0.5).unwrap();
        store.append_f64("c", 2, 8.0).unwrap();
        let (_, keys) = store.peek_pages("c").unwrap()[0].decode().unwrap();
        let key = etsqp_encoding::f64_to_ordered_i64;
        assert_eq!(keys, vec![key(-0.5), key(8.0)]);
    }

    #[test]
    fn page_only_series_rejects_appends() {
        let store = SeriesStore::new(100);
        let page = Page::encode(&[1, 2], &[3, 4], Encoding::Ts2Diff, Encoding::Ts2Diff).unwrap();
        store.insert_pages("cold", vec![page]);
        assert!(matches!(store.append("cold", 5, 5), Err(Error::Misuse(_))));
        // But flush and snapshot still work on it.
        store.flush("cold").unwrap();
        let snap = store.snapshot("cold").unwrap();
        assert_eq!(snap.pages().count(), 1);
        assert!(snap.hot.is_none());
    }
}
