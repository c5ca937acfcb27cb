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
//! One chunk type serves both value domains. A float series buffers its
//! values as ordered keys (`etsqp_encoding::f64_to_ordered_i64`, a
//! bijection on bits), the form its pages decode to and its headers keep
//! min/max in; its float value codec turns the keys back into `f64` bits
//! when it seals ([`Encoding::encode_i64`]), so the page is the one an
//! `f64` column encoder writes.
//!
//! Queries never read the live buffers: [`HotChunk::snapshot`] clones
//! the buffered columns under the owning series lock into an immutable
//! [`HotSnapshot`], giving readers a point-in-time prefix of the append
//! stream (see DESIGN.md §11 for the consistency rules).

use std::sync::Arc;

use etsqp_encoding::Encoding;

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

/// A series' hot chunk; a float series' values are ordered keys.
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

    /// Whether the value codec is a float codec: the values are keys.
    pub fn is_float(&self) -> bool {
        self.val_encoding.is_float()
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
    pub fn snapshot(&self) -> Option<HotSnapshot> {
        if self.ts.is_empty() {
            return None;
        }
        Some(HotSnapshot {
            ts: Arc::new(self.ts.clone()),
            vals: Arc::new(self.vals.clone()),
            min_value: self.bounds.0,
            max_value: self.bounds.1,
            val_encoding: self.val_encoding,
        })
    }
}

/// A point-in-time copy of a hot chunk's buffered columns.
///
/// Cheaply cloneable (`Arc` columns); the exact `min/max` statistics
/// are the chunk's running bounds, kept on every push, so §V-style
/// pruning of the hot chunk uses true bounds, not estimates. A float
/// series' values are its ordered keys, as in its pages.
#[derive(Debug, Clone)]
pub struct HotSnapshot {
    /// Buffered timestamps (strictly increasing).
    pub ts: Arc<Vec<i64>>,
    /// Buffered values (a float series' ordered keys), aligned with `ts`.
    pub vals: Arc<Vec<i64>>,
    /// Exact minimum of `vals`.
    pub min_value: i64,
    /// Exact maximum of `vals`.
    pub max_value: i64,
    /// The chunk's value codec: a float codec marks a float series.
    pub val_encoding: Encoding,
}

impl HotSnapshot {
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

#[cfg(test)]
mod tests {
    use super::*;
    use etsqp_encoding::{f64_to_ordered_i64, ordered_i64_to_f64};

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

    /// A float chunk, as `SeriesStore::create_series_f64` makes it.
    fn float_chunk(page_points: usize) -> HotChunk {
        HotChunk::new(Encoding::Ts2Diff, Encoding::Chimp, page_points, None)
    }

    #[test]
    fn float_chunk_seals_and_snapshots() {
        let key = f64_to_ordered_i64;
        let mut h = float_chunk(3);
        assert!(h.is_float() && !chunk(3, None).is_float());
        assert!(h.push(0, key(1.5)).unwrap().is_none());
        assert!(h.push(1, key(-2.5)).unwrap().is_none());
        assert!(matches!(h.push(1, key(0.0)), Err(Error::OutOfOrder { .. })));
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.min_value, key(-2.5));
        assert_eq!(snap.max_value, key(1.5));
        assert!(snap.val_encoding.is_float());
        let page = h.push(2, key(9.0)).unwrap().expect("3rd point seals");
        let (_, vals) = page.decode().unwrap();
        let vals: Vec<f64> = vals.into_iter().map(ordered_i64_to_f64).collect();
        assert_eq!(vals, vec![1.5, -2.5, 9.0]);
        assert!(matches!(h.push(2, key(0.0)), Err(Error::OutOfOrder { .. })));
    }

    /// The running bounds against a scan of what a snapshot holds.
    fn scanned(keys: impl Iterator<Item = i64>) -> (i64, i64) {
        keys.fold(EMPTY_BOUNDS, widen)
    }

    /// Floats whose keys sit at the edges of the order: NaN with two
    /// payloads and both signs, both zeros, both infinities, a subnormal
    /// and the finite extremes.
    const SPECIAL: [f64; 11] = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff0_0000_0000_0001),
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1),
        f64::MIN,
        f64::MAX,
    ];

    /// A float page sealed from `pushed` (drained) is the page an `f64`
    /// column encoder writes.
    fn check_seal(
        page: Option<Arc<Page>>,
        pushed: &mut Vec<f64>,
    ) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
        let Some(page) = page else { return Ok(()) };
        let sealed = std::mem::take(pushed);
        let keys: Vec<i64> = sealed.iter().map(|&f| f64_to_ordered_i64(f)).collect();
        proptest::prop_assert_eq!(
            &page.val_bytes[..],
            &Encoding::Chimp.encode_f64(&sealed)[..]
        );
        proptest::prop_assert_eq!(&page.decode().unwrap().1, &keys);
        proptest::prop_assert_eq!(
            (page.header.min_value, page.header.max_value),
            scanned(keys.into_iter())
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// After any push / seal sequence, through point-count seals and
        /// forced ones, the running min and max a snapshot reports are
        /// those of a scan over its values, integer and float alike; and
        /// every sealed float page is the page an `f64` column encoder
        /// writes: its value bytes are `encode_f64` of the floats pushed,
        /// it decodes to their keys, and its header holds their extremes.
        #[test]
        fn running_bounds_equal_a_scan(
            ops in proptest::collection::vec((0u8..5, proptest::prelude::any::<i32>()), 1..300),
            page_points in proptest::prop_oneof![
                proptest::prelude::Just(1usize),
                proptest::prelude::Just(3),
                proptest::prelude::Just(64)
            ],
        ) {
            let mut ints = chunk(page_points, None);
            let mut floats = float_chunk(page_points);
            let mut pushed: Vec<f64> = Vec::new();
            for (t, &(op, v)) in ops.iter().enumerate() {
                if op == 3 {
                    ints.seal().unwrap();
                    check_seal(floats.seal().unwrap(), &mut pushed)?;
                } else {
                    ints.push(t as i64, i64::from(v) << ((op % 4) * 16)).unwrap();
                    let f = if op == 4 {
                        SPECIAL[v.unsigned_abs() as usize % SPECIAL.len()]
                    } else {
                        f64::from(v) / 7.0
                    };
                    pushed.push(f);
                    check_seal(floats.push(t as i64, f64_to_ordered_i64(f)).unwrap(), &mut pushed)?;
                }
                if let Some(s) = ints.snapshot() {
                    proptest::prop_assert_eq!((s.min_value, s.max_value), scanned(s.vals.iter().copied()));
                }
                if let Some(s) = floats.snapshot() {
                    let keys: Vec<i64> = pushed.iter().map(|&f| f64_to_ordered_i64(f)).collect();
                    proptest::prop_assert_eq!(&*s.vals, &keys);
                    proptest::prop_assert_eq!((s.min_value, s.max_value), scanned(keys.into_iter()));
                }
            }
        }
    }
}
