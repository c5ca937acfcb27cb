//! Encoded pages: the unit of storage, decoding, pruning and scheduling.

use crate::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use bytes::Bytes;
use etsqp_encoding::Encoding;

use crate::{Error, Result};

/// Statistics and codec tags stored ahead of every page's payload —
/// the header the pruning rules of paper §V read without decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageHeader {
    /// Number of (timestamp, value) tuples in the page.
    pub count: u32,
    /// First (smallest) timestamp.
    pub first_ts: i64,
    /// Last (largest) timestamp.
    pub last_ts: i64,
    /// Minimum value in the page.
    pub min_value: i64,
    /// Maximum value in the page.
    pub max_value: i64,
    /// Codec of the timestamp column.
    pub ts_encoding: Encoding,
    /// Codec of the value column.
    pub val_encoding: Encoding,
}

/// Serialized header size in bytes.
pub const HEADER_LEN: usize = 4 + 8 * 4 + 2;

/// Fast 64-bit-chunked FNV-style checksum over a page's header bytes and
/// payload chunks.
///
/// Not cryptographic — it exists to turn random on-disk or in-memory
/// corruption into a deterministic typed error instead of a silently
/// wrong aggregate. Processing eight bytes per round keeps the check
/// cheap next to the SIMD decode it guards.
pub fn page_checksum(parts: &[&[u8]]) -> u32 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in parts {
        // Length is mixed in so chunk-boundary shifts change the digest.
        h ^= chunk.len() as u64;
        h = h.wrapping_mul(PRIME);
        let mut it = chunk.chunks_exact(8);
        for w in &mut it {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            h ^= u64::from_le_bytes(b);
            h = h.wrapping_mul(PRIME);
        }
        let mut tail = [0u8; 8];
        tail[..it.remainder().len()].copy_from_slice(it.remainder());
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    (h ^ (h >> 32)) as u32
}

impl PageHeader {
    /// Serializes the header (big-endian, fixed width).
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&self.count.to_be_bytes());
        out[4..12].copy_from_slice(&self.first_ts.to_be_bytes());
        out[12..20].copy_from_slice(&self.last_ts.to_be_bytes());
        out[20..28].copy_from_slice(&self.min_value.to_be_bytes());
        out[28..36].copy_from_slice(&self.max_value.to_be_bytes());
        out[36] = self.ts_encoding.tag();
        out[37] = self.val_encoding.tag();
        out
    }

    /// Deserializes a header written by [`PageHeader::to_bytes`],
    /// rejecting structurally impossible statistics (count of zero or
    /// beyond the page cap, inverted time or value ranges) so a hostile
    /// header cannot reach the pruning rules or the decoders.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < HEADER_LEN {
            return Err(Error::corrupt(bytes.len() as u64, "page header truncated"));
        }
        let header = PageHeader {
            count: {
                let mut b = [0u8; 4];
                b.copy_from_slice(&bytes[0..4]);
                u32::from_be_bytes(b)
            },
            first_ts: i64::from_be_bytes(read8(bytes, 4)),
            last_ts: i64::from_be_bytes(read8(bytes, 12)),
            min_value: i64::from_be_bytes(read8(bytes, 20)),
            max_value: i64::from_be_bytes(read8(bytes, 28)),
            ts_encoding: Encoding::from_tag(bytes[36])
                .map_err(|_| Error::corrupt(36, "unknown timestamp encoding tag"))?,
            val_encoding: Encoding::from_tag(bytes[37])
                .map_err(|_| Error::corrupt(37, "unknown value encoding tag"))?,
        };
        if header.count == 0 {
            return Err(Error::corrupt(0, "page declares zero tuples"));
        }
        if header.count as usize > etsqp_encoding::MAX_PAGE_COUNT {
            return Err(Error::corrupt(0, "page count exceeds page cap"));
        }
        if header.first_ts > header.last_ts {
            return Err(Error::corrupt(4, "page time range inverted"));
        }
        if header.min_value > header.max_value {
            return Err(Error::corrupt(20, "page value range inverted"));
        }
        Ok(header)
    }

    /// Whether the page's time range intersects `[t_lo, t_hi]` (inclusive).
    pub fn overlaps_time(&self, t_lo: i64, t_hi: i64) -> bool {
        self.first_ts <= t_hi && self.last_ts >= t_lo
    }

    /// Whether any value in the page can satisfy `[v_lo, v_hi]` (inclusive).
    pub fn overlaps_value(&self, v_lo: i64, v_hi: i64) -> bool {
        self.min_value <= v_hi && self.max_value >= v_lo
    }
}

/// Copies eight header bytes starting at `off` (caller checked bounds).
fn read8(bytes: &[u8], off: usize) -> [u8; 8] {
    let mut out = [0u8; 8];
    let end = (off + 8).min(bytes.len());
    out[..end - off].copy_from_slice(&bytes[off..end]);
    out
}

/// One encoded page: header + timestamp chunk + value chunk.
///
/// Chunks are cheaply cloneable [`Bytes`], so pipeline jobs on different
/// threads share the underlying buffers without copying.
#[derive(Debug)]
pub struct Page {
    /// Page statistics and codec tags.
    pub header: PageHeader,
    /// Encoded timestamp column.
    pub ts_bytes: Bytes,
    /// Encoded value column.
    pub val_bytes: Bytes,
    /// Checksum over the header bytes and both chunks, fixed at encode or
    /// load time. [`Page::verify`] recomputes it before payloads are
    /// trusted; [`Page::to_bytes`] persists it as the image trailer.
    pub checksum: u32,
    /// Set by the first successful [`Page::ensure_verified`] of this very
    /// object and by nothing else; nothing clears it. The fields above are
    /// `pub`, so neither a constructor nor a clone may vouch for them.
    /// Relaxed: the mark publishes no data — a reader that misses it
    /// hashes the page again and reaches the same verdict.
    verified: AtomicBool,
    /// What whole-page folds of this object computed: see
    /// [`Page::moments`]. Obeys the mark's rules.
    memo: MomentsMemo,
}

/// Whole-page, unfiltered moments of a page's value column, one optional
/// group each: the part of IoTDB's per-page statistics the header does
/// not hold (count, min, max and the timestamp bounds it does, exactly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageMoments {
    /// `Σv`.
    pub sum: Option<i128>,
    /// `Σv²`, saturating at the `i128` limit like the engine's states.
    pub sum_sq: Option<i128>,
    /// The first and the last value in time order.
    pub ends: Option<(i64, i64)>,
}

/// The memo epoch: a memo tagged with an older one is invisible, so a
/// bump forgets every memo at once, a segment's included.
pub(crate) static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Live pages holding a memo and live segments holding a digest, of the
/// current epoch — exact unless a [`forget_all_moments`] races a fold or
/// a drop.
pub(crate) static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Forgets every page's memo and every segment's memo and digest: later
/// reads miss until a fold memoizes again. The memo analogue of clearing
/// a cache.
pub fn forget_all_moments() {
    LIVE.store(0, Ordering::Relaxed);
    EPOCH.fetch_add(1, Ordering::Release);
}

/// How many live pages hold a memo, plus how many live segments hold a
/// digest, of the current epoch.
pub fn live_memos() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// A dropped memo of `epoch` (none: no memo) leaves the count if the
/// epoch is current.
pub(crate) fn drop_memo(epoch: Option<u64>) {
    if epoch == Some(EPOCH.load(Ordering::Relaxed)) {
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }
}

/// The memo cell, 56 bytes: `state` is the epoch above a bit per group
/// published in it, `words` two per group. It needs no lock: every fold
/// of one page object computes the same moments, so a word is only ever
/// rewritten with the value it holds, and a reader loads the words of the
/// groups whose bits it saw set (acquire) after they were written
/// (release).
#[derive(Debug, Default)]
pub(crate) struct MomentsMemo {
    state: AtomicU64,
    words: [AtomicU64; 6],
}

impl MomentsMemo {
    pub(crate) fn load(&self, epoch: u64) -> PageMoments {
        let s = self.state.load(Ordering::Acquire);
        let has = |g: u32| s >> 3 == epoch && s & 1 << g != 0;
        let w = |i: usize| self.words[i].load(Ordering::Relaxed);
        let wide = |i: usize| (u128::from(w(i + 1)) << 64 | u128::from(w(i))) as i128;
        PageMoments {
            sum: has(0).then(|| wide(0)),
            sum_sq: has(1).then(|| wide(2)),
            ends: has(2).then(|| (w(4) as i64, w(5) as i64)),
        }
    }

    /// Publishes the groups of `m` the cell does not hold in `epoch`
    /// (none over a newer epoch's, none when another writer won the
    /// race); returns whether it held none before.
    pub(crate) fn store(&self, epoch: u64, m: PageMoments) -> bool {
        let s = self.state.load(Ordering::Acquire);
        let held = if s >> 3 == epoch { s & 0b111 } else { 0 };
        let wide = |v: i128| [v as u64, (v >> 64) as u64];
        let ends = m.ends.map(|(first, last)| [first as u64, last as u64]);
        let (groups, mut new) = ([m.sum.map(wide), m.sum_sq.map(wide), ends], 0);
        for (g, pair) in groups.iter().enumerate() {
            if let (Some(pair), 0) = (pair, held & 1 << g) {
                new |= 1 << g;
                self.words[2 * g].store(pair[0], Ordering::Relaxed);
                self.words[2 * g + 1].store(pair[1], Ordering::Relaxed);
            }
        }
        let next = epoch << 3 | held | new;
        new != 0
            && s >> 3 <= epoch
            && (self.state)
                .compare_exchange(s, next, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            && held == 0
    }
}

/// A dropped page leaves the count of memos.
impl Drop for Page {
    fn drop(&mut self) {
        let s = *self.memo.state.get_mut();
        drop_memo((s & 0b111 != 0).then_some(s >> 3));
    }
}

/// A clone is a new object nobody has hashed: it starts unmarked and
/// without a memo, so `SeriesStore::corrupt_page` (clone, mutate, swap
/// in) yields a page the next query verifies and folds.
impl Clone for Page {
    fn clone(&self) -> Page {
        Page::from_parts(
            self.header,
            self.ts_bytes.clone(),
            self.val_bytes.clone(),
            self.checksum,
        )
    }
}

impl Page {
    /// Assembles a page from parts, sealing it with a fresh checksum.
    pub fn new(header: PageHeader, ts_bytes: Bytes, val_bytes: Bytes) -> Page {
        let checksum = page_checksum(&[&header.to_bytes(), &ts_bytes, &val_bytes]);
        Page::from_parts(header, ts_bytes, val_bytes, checksum)
    }

    /// Assembles a page around a checksum taken as given — not recomputed,
    /// not yet verified.
    pub fn from_parts(
        header: PageHeader,
        ts_bytes: Bytes,
        val_bytes: Bytes,
        checksum: u32,
    ) -> Page {
        Page {
            header,
            ts_bytes,
            val_bytes,
            checksum,
            verified: AtomicBool::new(false),
            memo: MomentsMemo::default(),
        }
    }

    /// Recomputes the checksum and compares it against the sealed one,
    /// catching payload corruption before a decoder or a fused kernel
    /// consumes the chunk bytes. Hashes on every call; readers go through
    /// [`Page::ensure_verified`].
    pub fn verify(&self) -> Result<()> {
        let now = page_checksum(&[&self.header.to_bytes(), &self.ts_bytes, &self.val_bytes]);
        if now != self.checksum {
            return Err(Error::corrupt(0, "page checksum mismatch"));
        }
        Ok(())
    }

    /// [`Page::verify`], paid once per resident page object: the first
    /// success marks the page and later calls are one relaxed load. A
    /// failure leaves it unmarked, so every reader of a corrupt page gets
    /// the error.
    pub fn ensure_verified(&self) -> Result<()> {
        if !self.is_verified() {
            self.verify()?;
            self.verified.store(true, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Whether an [`Page::ensure_verified`] of this object has succeeded.
    pub fn is_verified(&self) -> bool {
        self.verified.load(Ordering::Relaxed)
    }

    /// The whole-page moments memoized on this object since the last
    /// [`forget_all_moments`], one group each; nothing before an
    /// [`Page::ensure_verified`] of this object succeeded.
    pub fn moments(&self) -> PageMoments {
        self.moments_in(EPOCH.load(Ordering::Acquire))
    }

    /// [`Page::moments`] as published in `epoch`: what a segment reads
    /// of each of its pages, all in the one epoch it publishes in.
    pub(crate) fn moments_in(&self, epoch: u64) -> PageMoments {
        if !self.is_verified() {
            return PageMoments::default();
        }
        self.memo.load(epoch)
    }

    /// Memoizes the groups of `m` that are present and not memoized yet.
    /// Only a fold over every tuple of this object may call it (a filter
    /// the header proves the page passes whole included), and only with
    /// the groups it computed; a group is not rewritten until
    /// the next [`forget_all_moments`]. A no-op before the object is
    /// verified.
    pub fn memoize(&self, m: PageMoments) {
        if self.is_verified() && self.memo.store(EPOCH.load(Ordering::Acquire), m) {
            LIVE.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Builds a page by encoding `(timestamps, values)` with the given
    /// codecs. Timestamps must be strictly increasing and non-empty. Under
    /// a float value codec the values are ordered keys: the header keeps
    /// their extremes, so page-level range pruning works unchanged, and
    /// the codec writes the floats they map back to.
    pub fn encode(
        timestamps: &[i64],
        values: &[i64],
        ts_encoding: Encoding,
        val_encoding: Encoding,
    ) -> Result<Page> {
        assert_eq!(timestamps.len(), values.len(), "column length mismatch");
        assert!(!timestamps.is_empty(), "empty page");
        debug_assert!(
            timestamps.windows(2).all(|w| w[0] < w[1]),
            "unsorted timestamps"
        );
        let (mut min_v, mut max_v) = (i64::MAX, i64::MIN);
        for &v in values {
            min_v = min_v.min(v);
            max_v = max_v.max(v);
        }
        Ok(Page::new(
            PageHeader {
                count: timestamps.len() as u32,
                first_ts: timestamps[0],
                // lint:allow(no-panic-paths) -- encode side: non-empty
                // is asserted above; no untrusted bytes reach here.
                last_ts: *timestamps.last().unwrap(),
                min_value: min_v,
                max_value: max_v,
                ts_encoding,
                val_encoding,
            },
            Bytes::from(ts_encoding.encode_i64(timestamps)),
            Bytes::from(val_encoding.encode_i64(values)),
        ))
    }

    /// Serial reference decode of both columns (checksum-verified, once
    /// per object: [`Page::ensure_verified`]); a float page's values come
    /// back as their ordered keys.
    pub fn decode(&self) -> Result<(Vec<i64>, Vec<i64>)> {
        self.ensure_verified()?;
        let ts = self.header.ts_encoding.decode_i64(&self.ts_bytes)?;
        let vals = self.header.val_encoding.decode_i64(&self.val_bytes)?;
        if vals.len() != ts.len() {
            return Err(Error::corrupt(0, "column lengths disagree"));
        }
        self.check_timestamps(&ts)?;
        Ok((ts, vals))
    }

    /// O(1) consistency check of a decoded timestamp column against the
    /// header statistics the §V pruning rules trusted: element count and
    /// the first/last timestamps must agree, so a header that lied about
    /// its time range cannot survive a full decode undetected.
    pub fn check_timestamps(&self, ts: &[i64]) -> Result<()> {
        if ts.len() != self.header.count as usize {
            return Err(Error::corrupt(0, "decoded count disagrees with header"));
        }
        match (ts.first(), ts.last()) {
            (Some(&first), Some(&last))
                if first == self.header.first_ts && last == self.header.last_ts =>
            {
                Ok(())
            }
            (None, _) => Ok(()),
            _ => Err(Error::corrupt(
                4,
                "decoded time range disagrees with header",
            )),
        }
    }

    /// Total encoded size (header + both chunks).
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.ts_bytes.len() + self.val_bytes.len()
    }

    /// Serializes the full page (header, chunk lengths, chunks, checksum
    /// trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() + 12);
        out.extend_from_slice(&self.header.to_bytes());
        out.extend_from_slice(&(self.ts_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&(self.val_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.ts_bytes);
        out.extend_from_slice(&self.val_bytes);
        out.extend_from_slice(&self.checksum.to_be_bytes());
        out
    }

    /// Deserializes a page written by [`Page::to_bytes`], returning the
    /// page and the number of bytes consumed. The checksum trailer must
    /// match a digest recomputed over the image, so any flipped bit in
    /// the header or either chunk is rejected here — before the header
    /// statistics can reach the pruning rules.
    pub fn from_bytes(bytes: &[u8]) -> Result<(Page, usize)> {
        let header = PageHeader::from_bytes(bytes)?;
        let mut off = HEADER_LEN;
        if bytes.len() < off + 8 {
            return Err(Error::corrupt(off as u64, "page chunk lengths truncated"));
        }
        let ts_len =
            u32::from_be_bytes(read8(bytes, off)[..4].try_into().unwrap_or([0; 4])) as usize;
        let val_len =
            u32::from_be_bytes(read8(bytes, off + 4)[..4].try_into().unwrap_or([0; 4])) as usize;
        off += 8;
        let chunks_end = off
            .checked_add(ts_len)
            .and_then(|n| n.checked_add(val_len))
            .ok_or(Error::Corrupt {
                offset: HEADER_LEN as u64,
                reason: "page chunk lengths overflow",
            })?;
        if bytes.len() < chunks_end + 4 {
            return Err(Error::corrupt(off as u64, "page chunks truncated"));
        }
        let ts_bytes = Bytes::copy_from_slice(&bytes[off..off + ts_len]);
        let val_bytes = Bytes::copy_from_slice(&bytes[off + ts_len..chunks_end]);
        let mut crc = [0u8; 4];
        crc.copy_from_slice(&bytes[chunks_end..chunks_end + 4]);
        let stored = u32::from_be_bytes(crc);
        let computed = page_checksum(&[&bytes[..HEADER_LEN], &ts_bytes, &val_bytes]);
        if stored != computed {
            return Err(Error::corrupt(chunks_end as u64, "page checksum mismatch"));
        }
        Ok((
            Page::from_parts(header, ts_bytes, val_bytes, stored),
            chunks_end + 4,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_page() -> Page {
        let ts: Vec<i64> = (0..100).map(|i| 1000 + i * 10).collect();
        let vals: Vec<i64> = (0..100).map(|i| 50 + (i % 13)).collect();
        Page::encode(&ts, &vals, Encoding::Ts2Diff, Encoding::Ts2Diff).unwrap()
    }

    #[test]
    fn header_roundtrip() {
        let page = sample_page();
        let parsed = PageHeader::from_bytes(&page.header.to_bytes()).unwrap();
        assert_eq!(parsed, page.header);
    }

    #[test]
    fn header_stats_correct() {
        let page = sample_page();
        assert_eq!(page.header.count, 100);
        assert_eq!(page.header.first_ts, 1000);
        assert_eq!(page.header.last_ts, 1990);
        assert_eq!(page.header.min_value, 50);
        assert_eq!(page.header.max_value, 62);
    }

    #[test]
    fn page_decode_roundtrip() {
        let page = sample_page();
        let (ts, vals) = page.decode().unwrap();
        assert_eq!(ts.len(), 100);
        assert_eq!(ts[0], 1000);
        assert_eq!(vals[12], 62);
    }

    #[test]
    fn page_serialization_roundtrip() {
        let page = sample_page();
        let bytes = page.to_bytes();
        let (back, consumed) = Page::from_bytes(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back.header, page.header);
        assert_eq!(back.ts_bytes, page.ts_bytes);
        assert_eq!(back.val_bytes, page.val_bytes);
    }

    #[test]
    fn overlap_predicates() {
        let page = sample_page();
        assert!(page.header.overlaps_time(1990, 5000));
        assert!(page.header.overlaps_time(0, 1000));
        assert!(!page.header.overlaps_time(2000, 5000));
        assert!(page.header.overlaps_value(60, 100));
        assert!(!page.header.overlaps_value(63, 100));
    }

    #[test]
    fn float_page_roundtrip_and_stats() {
        let ts: Vec<i64> = (0..50).map(|i| i * 10).collect();
        let vals: Vec<f64> = (0..50).map(|i| 20.0 + (i as f64) * 0.25 - 3.0).collect();
        let keys: Vec<i64> = vals
            .iter()
            .map(|&v| etsqp_encoding::f64_to_ordered_i64(v))
            .collect();
        for enc in [Encoding::GorillaFloat, Encoding::Chimp, Encoding::Elf] {
            let page = Page::encode(&ts, &keys, Encoding::Ts2Diff, enc).unwrap();
            assert_eq!(&page.val_bytes[..], &enc.encode_f64(&vals)[..]);
            let (t2, k2) = page.decode().unwrap();
            assert_eq!(t2, ts);
            let v2 = k2.into_iter().map(etsqp_encoding::ordered_i64_to_f64);
            for (a, b) in v2.zip(&vals) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", enc.name());
            }
            // Header stats map the float extremes order-preservingly.
            let lo = etsqp_encoding::ordered_i64_to_f64(page.header.min_value);
            let hi = etsqp_encoding::ordered_i64_to_f64(page.header.max_value);
            assert_eq!(lo, 17.0);
            assert_eq!(hi, 17.0 + 49.0 * 0.25);
            // Range-pruning predicate works on the mapped domain.
            let q_lo = etsqp_encoding::f64_to_ordered_i64(100.0);
            assert!(!page.header.overlaps_value(q_lo, i64::MAX));
        }
    }

    #[test]
    fn failed_verification_leaves_the_page_unmarked() {
        let good = sample_page();
        let bad = Page::from_parts(
            good.header,
            good.ts_bytes.clone(),
            good.val_bytes.slice(1..),
            good.checksum,
        );
        assert!(bad.ensure_verified().is_err());
        assert!(!bad.is_verified());
        assert!(
            bad.ensure_verified().is_err(),
            "and the next reader errs too"
        );
    }

    #[test]
    fn clone_of_a_marked_page_is_unmarked() {
        let page = sample_page();
        assert!(!page.is_verified(), "sealing does not vouch for pub fields");
        page.ensure_verified().unwrap();
        assert!(page.is_verified());
        let mut copy = page.clone();
        assert!(!copy.is_verified());
        // What `corrupt_page` does next: the copy is hashed when read.
        copy.header.count += 1;
        assert!(copy.ensure_verified().is_err());
        assert!(page.is_verified());
    }

    #[test]
    fn shared_page_is_marked_once_for_every_thread() {
        let page = std::sync::Arc::new(sample_page());
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    page.ensure_verified().unwrap();
                    assert!(page.is_verified());
                });
            }
        });
        // The mark, not the bytes, answers from here on: were the page
        // hashed again this would fail (in-memory corruption after the
        // first verification is outside the model, DESIGN.md §10).
        let mut edited = std::sync::Arc::try_unwrap(page).unwrap();
        edited.checksum ^= 1;
        assert!(edited.ensure_verified().is_ok());
        assert!(edited.verify().is_err(), "verify() still hashes");
    }

    #[test]
    fn decodes_go_through_the_mark() {
        // A checksum edited after the mark is what a re-hash would catch:
        // the decoders do not hash a marked page again, and they mark an
        // unmarked one.
        let ts: Vec<i64> = (0..50).collect();
        let keys: Vec<i64> = (ts.iter())
            .map(|&t| etsqp_encoding::f64_to_ordered_i64(t as f64 / 4.0))
            .collect();
        let float = Page::encode(&ts, &keys, Encoding::Ts2Diff, Encoding::Chimp).unwrap();
        for mut page in [sample_page(), float] {
            let decode = |p: &Page| p.decode().map(drop);
            decode(&page).unwrap();
            assert!(page.is_verified());
            page.checksum ^= 1;
            assert!(decode(&page).is_ok(), "decoded by re-hashing");
            assert!(page.clone().ensure_verified().is_err());
        }
    }

    fn moments(sum: i128) -> PageMoments {
        PageMoments {
            sum: Some(sum),
            sum_sq: Some(-sum),
            ends: Some((i64::MIN, i64::MAX)),
        }
    }

    #[test]
    fn memo_round_trips_group_by_group_and_is_written_once() {
        let _e = crate::tests::memo_epoch_lock();
        let page = sample_page();
        page.ensure_verified().unwrap();
        let sum = i128::MIN + 3;
        page.memoize(PageMoments {
            sum: Some(sum),
            ..PageMoments::default()
        });
        assert_eq!(page.moments().sum, Some(sum));
        assert_eq!(page.moments().sum_sq, None, "a group nobody computed");
        // Another fold adds what it computed; published groups stay put.
        page.memoize(moments(7));
        assert_eq!(
            page.moments(),
            PageMoments {
                sum: Some(sum),
                ..moments(7)
            }
        );
    }

    #[test]
    fn clone_of_a_memoized_page_has_no_memo() {
        let _e = crate::tests::memo_epoch_lock();
        let page = sample_page();
        page.ensure_verified().unwrap();
        page.memoize(moments(5));
        let copy = page.clone();
        copy.ensure_verified().unwrap();
        assert_eq!(copy.moments(), PageMoments::default());
        assert_eq!(page.moments(), moments(5));
    }

    #[test]
    fn an_epoch_bump_hides_every_memo() {
        let _e = crate::tests::memo_epoch_lock();
        let pages: Vec<Page> = (0..3).map(|_| sample_page()).collect();
        for (i, p) in pages.iter().enumerate() {
            p.ensure_verified().unwrap();
            p.memoize(moments(i as i128));
        }
        assert!(live_memos() >= 3);
        forget_all_moments();
        assert_eq!(live_memos(), 0);
        assert!(pages.iter().all(|p| p.moments() == PageMoments::default()));
        // The next fold publishes afresh, and a dropped page leaves the count.
        pages[0].memoize(moments(9));
        assert_eq!(pages[0].moments(), moments(9));
        assert_eq!(live_memos(), 1);
        drop(pages);
        assert_eq!(live_memos(), 0);
    }

    #[test]
    fn a_page_that_failed_verification_never_exposes_a_memo() {
        let _e = crate::tests::memo_epoch_lock();
        let good = sample_page();
        let bad = Page::from_parts(
            good.header,
            good.ts_bytes.clone(),
            good.val_bytes.slice(1..),
            good.checksum,
        );
        bad.memoize(moments(1));
        assert!(bad.ensure_verified().is_err());
        bad.memoize(moments(1));
        assert_eq!(bad.moments(), PageMoments::default());
        // Unverified is not failed: a good page's memo waits for its hash.
        good.memoize(moments(2));
        good.ensure_verified().unwrap();
        assert_eq!(
            good.moments(),
            PageMoments::default(),
            "published unverified"
        );
    }

    #[test]
    fn the_memo_adds_at_most_64_bytes_to_a_page() {
        #[allow(dead_code)]
        struct Unmemoized(PageHeader, Bytes, Bytes, u32, AtomicBool);
        let growth = std::mem::size_of::<Page>() - std::mem::size_of::<Unmemoized>();
        assert!(growth <= 64, "{growth} bytes");
    }

    #[test]
    fn truncated_page_rejected() {
        let bytes = sample_page().to_bytes();
        assert!(Page::from_bytes(&bytes[..HEADER_LEN + 4]).is_err());
        assert!(Page::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
