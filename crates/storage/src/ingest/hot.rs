//! Hot chunks: the per-series in-memory append buffer of the live
//! ingestion engine.
//!
//! A hot chunk accumulates incoming points for one series and **seals**
//! them into a checksummed [`Page`] (through the same delta-of-delta /
//! XOR codecs every flushed page uses) when either threshold is crossed:
//!
//! * **point count** — `page_points` buffered tuples (the §VI page size
//!   the pipelines are tuned for), or
//! * **time span** — the buffered range covers at least `seal_interval`
//!   time units (the Gorilla "2-hour block" discipline: bounded staleness
//!   for sealed-page pruning even on slow series).
//!
//! Unlike the old `SeriesWriter` + `drain_writer` pair, a hot chunk is
//! never consumed: sealing hands the encoded page out and keeps the
//! chunk alive with its codec configuration intact, so a store
//! configured for 100-point pages keeps producing 100-point pages
//! forever, an empty seal is a no-op rather than a tombstone, and a
//! failed seal leaves every buffered point (and the chunk itself)
//! untouched for retry.
//!
//! Queries never read the live buffers: [`HotChunk::snapshot`] clones
//! the buffered columns under the owning series lock into an immutable
//! [`HotIntSnapshot`] / [`HotFloatSnapshot`], giving readers a
//! point-in-time prefix of the append stream (see DESIGN.md §11 for the
//! consistency rules).

use std::sync::Arc;

use etsqp_encoding::{f64_to_ordered_i64, Encoding};

use crate::page::Page;
use crate::{Error, Result};

/// Checks `ts` against the newest timestamp the chunk knows about —
/// the buffered tail, or the last sealed point when the buffer is empty.
fn check_order(ts: i64, buffered_last: Option<i64>, sealed_last: Option<i64>) -> Result<()> {
    if let Some(last) = buffered_last.or(sealed_last) {
        if ts <= last {
            return Err(Error::OutOfOrder {
                last,
                attempted: ts,
            });
        }
    }
    Ok(())
}

/// Whether buffers spanning `[first, last]` with `len` points must seal.
fn should_seal(
    len: usize,
    first: i64,
    last: i64,
    page_points: usize,
    interval: Option<i64>,
) -> bool {
    if len >= page_points {
        return true;
    }
    match interval {
        // A span that overflows i64 is certainly wider than any interval.
        Some(dt) => last.checked_sub(first).is_none_or(|span| span >= dt),
        None => false,
    }
}

/// The running `(min, max)` of an empty buffer: any value widens it.
const EMPTY_BOUNDS: (i64, i64) = (i64::MAX, i64::MIN);

/// `(min, max)` widened by one value: O(1) per push.
fn widen((min, max): (i64, i64), v: i64) -> (i64, i64) {
    (min.min(v), max.max(v))
}

/// The integer-valued hot chunk.
#[derive(Debug)]
pub struct HotChunk {
    ts_encoding: Encoding,
    val_encoding: Encoding,
    page_points: usize,
    seal_interval: Option<i64>,
    ts: Vec<i64>,
    vals: Vec<i64>,
    /// Running `(min, max)` of `vals`, kept on push and reset at seal, so
    /// a snapshot under the series lock copies instead of scanning.
    bounds: (i64, i64),
    last_sealed_ts: Option<i64>,
    /// Test-only fault injection: the next seal fails *before* touching
    /// any state, proving the error path preserves the chunk.
    #[cfg(test)]
    pub(crate) fail_next_seal: bool,
}

impl HotChunk {
    /// Creates an empty chunk with the series' codec configuration.
    pub fn new(
        ts_encoding: Encoding,
        val_encoding: Encoding,
        page_points: usize,
        seal_interval: Option<i64>,
    ) -> Self {
        assert!(page_points > 0, "page size must be positive");
        HotChunk {
            ts_encoding,
            val_encoding,
            page_points,
            seal_interval,
            ts: Vec::with_capacity(page_points),
            vals: Vec::with_capacity(page_points),
            bounds: EMPTY_BOUNDS,
            last_sealed_ts: None,
            #[cfg(test)]
            fail_next_seal: false,
        }
    }

    /// Buffered (unsealed) point count.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends one point; timestamps must be strictly increasing across
    /// the whole series (buffered *and* previously sealed points).
    /// Returns the sealed page when this point crossed a threshold —
    /// already shared, so the per-point return value stays a pointer.
    pub fn push(&mut self, ts: i64, value: i64) -> Result<Option<Arc<Page>>> {
        check_order(ts, self.ts.last().copied(), self.last_sealed_ts)?;
        self.ts.push(ts);
        self.vals.push(value);
        self.bounds = widen(self.bounds, value);
        if should_seal(
            self.ts.len(),
            self.ts[0],
            ts,
            self.page_points,
            self.seal_interval,
        ) {
            return self.seal();
        }
        Ok(None)
    }

    /// Seals the buffer into a checksummed page; `None` when empty.
    /// On error the buffer and chunk state are unchanged.
    pub fn seal(&mut self) -> Result<Option<Arc<Page>>> {
        if self.ts.is_empty() {
            return Ok(None);
        }
        #[cfg(test)]
        if self.fail_next_seal {
            self.fail_next_seal = false;
            return Err(Error::Misuse("injected seal failure"));
        }
        let page = Page::encode(&self.ts, &self.vals, self.ts_encoding, self.val_encoding)?;
        self.last_sealed_ts = Some(page.header.last_ts);
        self.ts.clear();
        self.vals.clear();
        self.bounds = EMPTY_BOUNDS;
        Ok(Some(Arc::new(page)))
    }

    /// Immutable copy of the buffered columns; `None` when empty.
    pub fn snapshot(&self) -> Option<HotIntSnapshot> {
        if self.ts.is_empty() {
            return None;
        }
        Some(HotIntSnapshot {
            ts: Arc::new(self.ts.clone()),
            vals: Arc::new(self.vals.clone()),
            min_value: self.bounds.0,
            max_value: self.bounds.1,
        })
    }
}

/// The float-valued hot chunk (value codec is an XOR family codec).
#[derive(Debug)]
pub struct HotChunkF64 {
    ts_encoding: Encoding,
    val_encoding: Encoding,
    page_points: usize,
    seal_interval: Option<i64>,
    ts: Vec<i64>,
    vals: Vec<f64>,
    /// Running `(min, max)` of the values' ordered keys; see
    /// [`HotChunk`].
    bounds: (i64, i64),
    last_sealed_ts: Option<i64>,
}

impl HotChunkF64 {
    /// Creates an empty float chunk (`val_encoding` must be a float codec).
    pub fn new(
        ts_encoding: Encoding,
        val_encoding: Encoding,
        page_points: usize,
        seal_interval: Option<i64>,
    ) -> Self {
        assert!(page_points > 0, "page size must be positive");
        assert!(val_encoding.is_float(), "value codec must be a float codec");
        HotChunkF64 {
            ts_encoding,
            val_encoding,
            page_points,
            seal_interval,
            ts: Vec::with_capacity(page_points),
            vals: Vec::with_capacity(page_points),
            bounds: EMPTY_BOUNDS,
            last_sealed_ts: None,
        }
    }

    /// Buffered (unsealed) point count.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends one float point; see [`HotChunk::push`].
    pub fn push(&mut self, ts: i64, value: f64) -> Result<Option<Arc<Page>>> {
        check_order(ts, self.ts.last().copied(), self.last_sealed_ts)?;
        self.ts.push(ts);
        self.vals.push(value);
        self.bounds = widen(self.bounds, f64_to_ordered_i64(value));
        if should_seal(
            self.ts.len(),
            self.ts[0],
            ts,
            self.page_points,
            self.seal_interval,
        ) {
            return self.seal();
        }
        Ok(None)
    }

    /// Seals the buffer into a checksummed page; `None` when empty.
    pub fn seal(&mut self) -> Result<Option<Arc<Page>>> {
        if self.ts.is_empty() {
            return Ok(None);
        }
        let page = Page::encode_f64(&self.ts, &self.vals, self.ts_encoding, self.val_encoding)?;
        self.last_sealed_ts = Some(page.header.last_ts);
        self.ts.clear();
        self.vals.clear();
        self.bounds = EMPTY_BOUNDS;
        Ok(Some(Arc::new(page)))
    }

    /// Immutable copy of the buffered columns; `None` when empty.
    pub fn snapshot(&self) -> Option<HotFloatSnapshot> {
        if self.ts.is_empty() {
            return None;
        }
        Some(HotFloatSnapshot {
            ts: Arc::new(self.ts.clone()),
            vals: Arc::new(self.vals.clone()),
            min_value: self.bounds.0,
            max_value: self.bounds.1,
        })
    }
}

/// Either kind of hot chunk, as stored per series.
#[derive(Debug)]
pub enum Hot {
    /// Integer-valued series.
    Int(HotChunk),
    /// Float-valued series.
    Float(HotChunkF64),
}

impl Hot {
    /// Buffered point count of either kind.
    pub fn len(&self) -> usize {
        match self {
            Hot::Int(h) => h.len(),
            Hot::Float(h) => h.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seals either kind; `None` when empty.
    pub fn seal(&mut self) -> Result<Option<Arc<Page>>> {
        match self {
            Hot::Int(h) => h.seal(),
            Hot::Float(h) => h.seal(),
        }
    }

    /// Snapshots either kind; `None` when empty.
    pub fn snapshot(&self) -> Option<HotSnapshot> {
        match self {
            Hot::Int(h) => h.snapshot().map(HotSnapshot::Int),
            Hot::Float(h) => h.snapshot().map(HotSnapshot::Float),
        }
    }
}

/// A point-in-time copy of an integer hot chunk's buffered columns.
///
/// Cheaply cloneable (`Arc` columns); the exact `min/max` statistics
/// are the chunk's running bounds, kept on every push, so §V-style
/// pruning of the hot chunk uses true bounds, not estimates.
#[derive(Debug, Clone)]
pub struct HotIntSnapshot {
    /// Buffered timestamps (strictly increasing).
    pub ts: Arc<Vec<i64>>,
    /// Buffered values, aligned with `ts`.
    pub vals: Arc<Vec<i64>>,
    /// Exact minimum of `vals`.
    pub min_value: i64,
    /// Exact maximum of `vals`.
    pub max_value: i64,
}

impl HotIntSnapshot {
    /// Buffered point count (never zero — empty chunks snapshot to `None`).
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the snapshot is empty (never true by construction; kept
    /// for clippy's `len`-without-`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }
}

/// A point-in-time copy of a float hot chunk's buffered columns.
#[derive(Debug, Clone)]
pub struct HotFloatSnapshot {
    /// Buffered timestamps (strictly increasing).
    pub ts: Arc<Vec<i64>>,
    /// Buffered values, aligned with `ts`.
    pub vals: Arc<Vec<f64>>,
    /// Exact minimum in the order-preserving `f64 → i64` mapped domain.
    pub min_value: i64,
    /// Exact maximum in the mapped domain.
    pub max_value: i64,
}

impl HotFloatSnapshot {
    /// Buffered point count (never zero — empty chunks snapshot to `None`).
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// See [`HotIntSnapshot::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }
}

/// A snapshot of either kind of hot chunk.
#[derive(Debug, Clone)]
pub enum HotSnapshot {
    /// Integer-valued series.
    Int(HotIntSnapshot),
    /// Float-valued series.
    Float(HotFloatSnapshot),
}

impl HotSnapshot {
    /// Buffered point count of either kind.
    pub fn len(&self) -> usize {
        match self {
            HotSnapshot::Int(h) => h.len(),
            HotSnapshot::Float(h) => h.len(),
        }
    }

    /// Whether the snapshot is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(page_points: usize, interval: Option<i64>) -> HotChunk {
        HotChunk::new(Encoding::Ts2Diff, Encoding::Ts2Diff, page_points, interval)
    }

    #[test]
    fn seals_at_point_count() {
        let mut h = chunk(4, None);
        for i in 0..3i64 {
            assert!(h.push(i, i * 10).unwrap().is_none());
        }
        let page = h.push(3, 30).unwrap().expect("4th point seals");
        assert_eq!(page.header.count, 4);
        assert!(h.is_empty());
        // The chunk keeps producing 4-point pages forever (the old
        // drain_writer bug reset the size to DEFAULT_PAGE_POINTS here).
        for i in 4..7i64 {
            assert!(h.push(i, 0).unwrap().is_none());
        }
        let page = h.push(7, 0).unwrap().expect("second seal at 4 points");
        assert_eq!(page.header.count, 4);
    }

    #[test]
    fn seals_at_time_span() {
        let mut h = chunk(1_000_000, Some(100));
        assert!(h.push(0, 1).unwrap().is_none());
        assert!(h.push(50, 2).unwrap().is_none());
        // span 0..=100 >= 100 -> seal, far below the point threshold.
        let page = h.push(100, 3).unwrap().expect("interval seal");
        assert_eq!(page.header.count, 3);
        assert_eq!(page.header.last_ts, 100);
    }

    #[test]
    fn rejects_out_of_order_across_seal_boundary() {
        let mut h = chunk(2, None);
        h.push(10, 0).unwrap();
        assert!(h.push(20, 0).unwrap().is_some());
        assert!(h.is_empty());
        // Even with an empty buffer, the chunk remembers the sealed tail.
        assert!(matches!(
            h.push(20, 0),
            Err(Error::OutOfOrder {
                last: 20,
                attempted: 20
            })
        ));
        assert!(h.push(21, 0).unwrap().is_none());
    }

    #[test]
    fn empty_seal_is_noop_and_chunk_survives() {
        let mut h = chunk(8, None);
        assert!(h.seal().unwrap().is_none());
        assert!(h.seal().unwrap().is_none());
        // The old store turned this state into a permanent
        // Misuse("series sealed"); the chunk must stay writable.
        assert!(h.push(1, 1).unwrap().is_none());
        let page = h.seal().unwrap().expect("one buffered point");
        assert_eq!(page.header.count, 1);
    }

    #[test]
    fn failed_seal_preserves_buffer_and_chunk() {
        let mut h = chunk(8, None);
        h.push(1, 10).unwrap();
        h.push(2, 20).unwrap();
        h.fail_next_seal = true;
        assert!(matches!(h.seal(), Err(Error::Misuse(_))));
        // Error path: nothing lost, nothing sealed, chunk still usable.
        assert_eq!(h.len(), 2);
        assert!(h.push(3, 30).unwrap().is_none());
        let page = h.seal().unwrap().expect("retry succeeds");
        assert_eq!(page.header.count, 3);
        let (ts, vals) = page.decode().unwrap();
        assert_eq!(ts, vec![1, 2, 3]);
        assert_eq!(vals, vec![10, 20, 30]);
    }

    #[test]
    fn snapshot_is_point_in_time() {
        let mut h = chunk(100, None);
        h.push(1, 5).unwrap();
        h.push(2, -3).unwrap();
        let snap = h.snapshot().expect("non-empty");
        assert_eq!(snap.min_value, -3);
        assert_eq!(snap.max_value, 5);
        h.push(3, 100).unwrap();
        // The earlier snapshot is unaffected by later appends.
        assert_eq!(snap.len(), 2);
        assert_eq!(*snap.vals, vec![5, -3]);
        assert_eq!(h.snapshot().unwrap().len(), 3);
    }

    #[test]
    fn float_chunk_seals_and_snapshots() {
        let mut h = HotChunkF64::new(Encoding::Ts2Diff, Encoding::Chimp, 3, None);
        assert!(h.push(0, 1.5).unwrap().is_none());
        assert!(h.push(1, -2.5).unwrap().is_none());
        assert!(matches!(h.push(1, 0.0), Err(Error::OutOfOrder { .. })));
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.min_value, f64_to_ordered_i64(-2.5));
        assert_eq!(snap.max_value, f64_to_ordered_i64(1.5));
        let page = h.push(2, 9.0).unwrap().expect("3rd point seals");
        let (_, vals) = page.decode_f64().unwrap();
        assert_eq!(vals, vec![1.5, -2.5, 9.0]);
        assert!(matches!(h.push(2, 0.0), Err(Error::OutOfOrder { .. })));
    }
    /// The running bounds against a scan of what a snapshot holds.
    fn scanned(keys: impl Iterator<Item = i64>) -> (i64, i64) {
        keys.fold(EMPTY_BOUNDS, widen)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// After any push / seal sequence, through point-count seals and
        /// forced ones, the running min and max a snapshot reports are
        /// those of a scan over its values, integer and float alike.
        #[test]
        fn running_bounds_equal_a_scan(
            ops in proptest::collection::vec((0u8..4, proptest::prelude::any::<i32>()), 1..300),
            page_points in proptest::prop_oneof![
                proptest::prelude::Just(1usize),
                proptest::prelude::Just(3),
                proptest::prelude::Just(64)
            ],
        ) {
            let mut ints = chunk(page_points, None);
            let mut floats = HotChunkF64::new(Encoding::Ts2Diff, Encoding::Chimp, page_points, None);
            for (t, &(op, v)) in ops.iter().enumerate() {
                if op == 3 {
                    ints.seal().unwrap();
                    floats.seal().unwrap();
                } else {
                    ints.push(t as i64, i64::from(v) << (op * 16)).unwrap();
                    floats.push(t as i64, f64::from(v) / 7.0).unwrap();
                }
                if let Some(s) = ints.snapshot() {
                    proptest::prop_assert_eq!((s.min_value, s.max_value), scanned(s.vals.iter().copied()));
                }
                if let Some(s) = floats.snapshot() {
                    let keys = s.vals.iter().map(|&f| f64_to_ordered_i64(f));
                    proptest::prop_assert_eq!((s.min_value, s.max_value), scanned(keys));
                }
            }
        }
    }
}
