//! Segments: a series' sealed pages in immutable groups of
//! [`SEGMENT_PAGES`], the level above the page that TsFile's chunk
//! statistics are in IoTDB.
//!
//! A segment is built once, from its pages, and shared by every snapshot
//! that sees it, so a snapshot clones one handle per segment instead of
//! one per page. It carries the union of its pages' headers
//! ([`Segment::header`]: what a verdict over the whole segment reads
//! first) and their tuple counts in one column ([`Segment::counts`]:
//! what a uniform segment's page decisions read, without a load from
//! each page). Like a page it has a verified mark and a memo of
//! whole-segment moments, under stricter rules:
//!
//! * the mark ([`Segment::mark_verified`]) is set only once every page
//!   object under it carries its own verified mark;
//! * the memo ([`Segment::memoize`]) is published only over a marked
//!   segment, from page memos of one epoch, each group only when every
//!   page holds it; it is read ([`Segment::moments`]) only from a marked
//!   segment and only in the epoch it was published in, so
//!   [`crate::page::forget_all_moments`] forgets it with the page memos;
//! * the digest slot ([`Segment::memoize_digest`]) holds the quantile
//!   digest a query's folds of every page merged, compressed once
//!   ([`SegmentDigest`]). It is set at most once per epoch and only on a
//!   marked segment, and read ([`Segment::digest`]) under the memo's
//!   rules: from a marked segment, in the epoch it was set in.
//!
//! A segment never changes: [`SealedPages::replace`] (what
//! `SeriesStore::corrupt_page` runs) builds a new segment around the
//! replacement page, which starts without mark or memo.

use std::sync::Arc;

use etsqp_encoding::Encoding;

use crate::atomic::{AtomicBool, Ordering};
use crate::page::{drop_memo, MomentsMemo, Page, PageHeader, PageMoments, EPOCH, LIVE};
use crate::{Error, Mutex, Result};

/// Pages per full segment. One constant: a store built for tests may
/// take another ([`crate::store::SeriesStore::with_segment_pages`]).
pub const SEGMENT_PAGES: usize = 64;

/// One weighted cluster of a quantile digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Centroid {
    /// Weighted mean of the cluster's values.
    pub mean: f64,
    /// Number of values absorbed by the cluster (never zero).
    pub weight: u64,
}

/// A compressed quantile digest in plain parts, as a segment keeps it:
/// the engine's sketch is not storage's to know.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentDigest {
    /// The centroids, sorted and compressed.
    pub centroids: Vec<Centroid>,
    /// Values absorbed.
    pub count: u64,
    /// Exact minimum value.
    pub min: f64,
    /// Exact maximum value.
    pub max: f64,
}

/// An immutable run of sealed pages with the union of their headers, an
/// all-verified mark, a memo and a digest slot (see the module docs).
#[derive(Debug)]
pub struct Segment {
    pages: Vec<Arc<Page>>,
    header: PageHeader,
    counts: Vec<u32>,
    tuples: u64,
    encoded_len: u64,
    /// Set by [`Segment::mark_verified`] once every page object is
    /// marked; nothing clears it (a page mark is never cleared either).
    verified: AtomicBool,
    memo: MomentsMemo,
    /// The digest slot: the digest and the epoch it was set in.
    digest: Mutex<Option<(u64, Arc<SegmentDigest>)>>,
}

/// A dropped segment leaves the count of memos with its digest.
impl Drop for Segment {
    fn drop(&mut self) {
        drop_memo(self.digest.get_mut().as_ref().map(|(epoch, _)| *epoch));
    }
}

impl Segment {
    /// Builds a segment over `pages` (storage order), without mark or
    /// memo: the union is taken from the page headers (over no page, an
    /// empty range that every verdict prunes).
    pub fn new(pages: Vec<Arc<Page>>) -> Segment {
        let header = (pages.iter().map(|p| p.header))
            .reduce(|a, b| PageHeader {
                count: a.count.saturating_add(b.count),
                first_ts: a.first_ts.min(b.first_ts),
                last_ts: a.last_ts.max(b.last_ts),
                min_value: a.min_value.min(b.min_value),
                max_value: a.max_value.max(b.max_value),
                ..a
            })
            .unwrap_or(PageHeader {
                count: 0,
                first_ts: i64::MAX,
                last_ts: i64::MIN,
                min_value: i64::MAX,
                max_value: i64::MIN,
                ts_encoding: Encoding::Plain,
                val_encoding: Encoding::Plain,
            });
        let counts: Vec<u32> = pages.iter().map(|p| p.header.count).collect();
        Segment {
            tuples: counts.iter().map(|&c| u64::from(c)).sum(),
            counts,
            encoded_len: pages.iter().map(|p| p.encoded_len() as u64).sum(),
            pages,
            header,
            verified: AtomicBool::new(false),
            memo: MomentsMemo::default(),
            digest: Mutex::new(None),
        }
    }

    /// The pages, storage order.
    pub fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    /// Page count.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the segment holds no page (never, in a store).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The union of the page headers: exact bounds, since every bound
    /// is a page's, and the first page's codecs. Its `count` saturates;
    /// [`Segment::tuples`] is exact.
    pub fn header(&self) -> &PageHeader {
        &self.header
    }

    /// Each page's tuple count, storage order.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Tuples in all pages.
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Encoded bytes of all pages (header + chunks each).
    pub fn encoded_len(&self) -> u64 {
        self.encoded_len
    }

    /// Whether [`Segment::mark_verified`] has succeeded on this object.
    pub fn is_verified(&self) -> bool {
        self.verified.load(Ordering::Relaxed)
    }

    /// Sets the all-verified mark when every page object under the
    /// segment carries its own mark; hashes nothing. Returns the mark.
    pub fn mark_verified(&self) -> bool {
        if self.is_verified() {
            return true;
        }
        let all = self.pages.iter().all(|p| p.is_verified());
        if all {
            self.verified.store(true, Ordering::Relaxed);
        }
        all
    }

    /// The whole-segment moments memoized on this object in the current
    /// epoch, one group each; nothing before the segment is marked.
    pub fn moments(&self) -> PageMoments {
        if !self.is_verified() {
            return PageMoments::default();
        }
        self.memo.load(EPOCH.load(Ordering::Acquire))
    }

    /// Publishes the groups every page holds a memo of, all read in one
    /// epoch and tagged with it: `Σ` and `Σ²` summed in storage order
    /// (saturating, as merging the page states would), the ends of the
    /// first and the last page. A no-op until the segment is marked.
    pub fn memoize(&self) {
        let (Some(first), Some(last)) = (self.pages.first(), self.pages.last()) else {
            return;
        };
        if !self.mark_verified() {
            return;
        }
        let epoch = EPOCH.load(Ordering::Acquire);
        let (mut sum, mut sum_sq, mut ends) = (Some(0i128), Some(0i128), true);
        for page in &self.pages {
            let m = page.moments_in(epoch);
            sum = sum.zip(m.sum).map(|(a, b)| a.saturating_add(b));
            sum_sq = sum_sq.zip(m.sum_sq).map(|(a, b)| a.saturating_add(b));
            ends &= m.ends.is_some();
        }
        let (head, tail) = (first.moments_in(epoch).ends, last.moments_in(epoch).ends);
        let ends = head.zip(tail).filter(|_| ends).map(|(h, t)| (h.0, t.1));
        self.memo.store(epoch, PageMoments { sum, sum_sq, ends });
    }

    /// The digest set on this object in the current epoch; nothing
    /// before the segment is marked.
    pub fn digest(&self) -> Option<Arc<SegmentDigest>> {
        let slot = self.digest.lock();
        let (at, digest) = slot.as_ref().filter(|_| self.is_verified())?;
        (*at == EPOCH.load(Ordering::Acquire)).then(|| Arc::clone(digest))
    }

    /// Sets the digest, tagged with the current epoch, unless the slot
    /// holds one of this epoch or a newer one. Only a query that folded
    /// every page of the segment whole, and merged their digests into
    /// `digest` alone, may call it. A no-op until the segment is marked.
    pub fn memoize_digest(&self, digest: SegmentDigest) {
        let epoch = EPOCH.load(Ordering::Acquire);
        let mut slot = self.digest.lock();
        if self.mark_verified() && slot.as_ref().is_none_or(|(at, _)| *at < epoch) {
            *slot = Some((epoch, Arc::new(digest)));
            LIVE.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A series' sealed pages: full segments of the configured size, then
/// the open tail of fewer pages, which a snapshot sees as one more
/// (short) segment, built when first asked for after a seal.
#[derive(Debug)]
pub struct SealedPages {
    per_segment: usize,
    full: Vec<Arc<Segment>>,
    tail: Vec<Arc<Page>>,
    tail_segment: Option<Arc<Segment>>,
}

impl Default for SealedPages {
    fn default() -> Self {
        SealedPages::new(SEGMENT_PAGES)
    }
}

impl SealedPages {
    /// An empty page list sealing segments of `per_segment` pages (at
    /// least one).
    pub fn new(per_segment: usize) -> Self {
        SealedPages {
            per_segment: per_segment.max(1),
            full: Vec::new(),
            tail: Vec::new(),
            tail_segment: None,
        }
    }

    /// Appends a sealed page; a tail that reaches the segment size
    /// becomes a full segment.
    pub fn push(&mut self, page: Arc<Page>) {
        self.tail.push(page);
        self.tail_segment = None;
        if self.tail.len() == self.per_segment {
            let pages = std::mem::take(&mut self.tail);
            self.full.push(Arc::new(Segment::new(pages)));
        }
    }

    /// Sealed page count.
    pub fn len(&self) -> usize {
        self.full.len() * self.per_segment + self.tail.len()
    }

    /// Whether no page is sealed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every page, storage order.
    pub fn pages(&self) -> impl Iterator<Item = &Arc<Page>> {
        (self.full.iter()).flat_map(|s| s.pages()).chain(&self.tail)
    }

    /// Every segment, storage order: the full ones, then the tail's.
    pub fn segments(&mut self) -> Vec<Arc<Segment>> {
        let mut out = Vec::with_capacity(self.full.len() + 1);
        out.extend(self.full.iter().cloned());
        if !self.tail.is_empty() {
            let tail = &self.tail;
            let seg =
                (self.tail_segment).get_or_insert_with(|| Arc::new(Segment::new(tail.clone())));
            out.push(Arc::clone(seg));
        }
        out
    }

    /// Puts `page` in place of page `index`, inside a new segment.
    pub fn replace(&mut self, index: usize, page: Page) -> Result<()> {
        let page = Arc::new(page);
        let (seg, at) = (index / self.per_segment, index % self.per_segment);
        match self.full.get_mut(seg) {
            Some(full) => {
                let mut pages = full.pages.clone();
                *pages
                    .get_mut(at)
                    .ok_or(Error::Misuse("page index out of range"))? = page;
                *full = Arc::new(Segment::new(pages));
            }
            None => {
                let slot = (self.tail)
                    .get_mut(index - self.full.len() * self.per_segment)
                    .ok_or(Error::Misuse("page index out of range"))?;
                *slot = page;
                self.tail_segment = None;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{forget_all_moments, live_memos};

    fn page(at: i64) -> Arc<Page> {
        let ts: Vec<i64> = (0..8).map(|i| at + i).collect();
        let vals: Vec<i64> = (0..8).map(|i| at * 3 - i).collect();
        Arc::new(Page::encode(&ts, &vals, Encoding::Ts2Diff, Encoding::Ts2Diff).unwrap())
    }

    /// Each page verified and memoized as a whole-page fold would.
    fn fold(pages: &[Arc<Page>]) {
        for p in pages {
            let (_, vals) = p.decode().unwrap();
            p.memoize(PageMoments {
                sum: Some(vals.iter().map(|&v| i128::from(v)).sum()),
                sum_sq: Some(vals.iter().map(|&v| i128::from(v) * i128::from(v)).sum()),
                ends: Some((vals[0], vals[vals.len() - 1])),
            });
        }
    }

    #[test]
    fn the_union_comes_from_the_headers() {
        let seg = Segment::new((0..5).map(|i| page(100 * i)).collect());
        let s = seg.header();
        assert_eq!(
            (seg.tuples(), s.count, s.first_ts, s.last_ts),
            (40, 40, 0, 407)
        );
        assert_eq!(seg.counts(), [8; 5]);
        assert_eq!((s.min_value, s.max_value), (-7, 1200));
        let bytes: u64 = seg.pages().iter().map(|p| p.encoded_len() as u64).sum();
        assert_eq!(seg.encoded_len(), bytes);
    }

    #[test]
    fn the_mark_waits_for_every_page_and_the_memo_for_the_mark() {
        let _e = crate::tests::memo_epoch_lock();
        let seg = Segment::new((0..3).map(|i| page(100 * i)).collect());
        seg.pages()[0].ensure_verified().unwrap();
        seg.memoize();
        assert!(!seg.is_verified(), "two pages unverified");
        assert_eq!(seg.moments(), PageMoments::default());
        fold(seg.pages());
        seg.memoize();
        assert!(seg.is_verified());
        let m = seg.moments();
        let vals = seg.pages().iter().flat_map(|p| p.decode().unwrap().1);
        assert_eq!(m.sum, Some(vals.map(i128::from).sum()));
        assert_eq!(m.ends, Some((0, 200 * 3 - 7)));
        forget_all_moments();
        assert_eq!(
            seg.moments(),
            PageMoments::default(),
            "forgotten with the pages"
        );
        seg.memoize();
        assert_eq!(seg.moments().sum, None, "page memos are gone too");
    }

    #[test]
    fn the_digest_waits_for_the_mark_and_lives_one_epoch() {
        let _e = crate::tests::memo_epoch_lock();
        let d = |count| SegmentDigest {
            centroids: vec![Centroid {
                mean: 1.5,
                weight: count,
            }],
            count,
            min: 1.5,
            max: 1.5,
        };
        let seg = Segment::new((0..2).map(|i| page(100 * i)).collect());
        seg.memoize_digest(d(16));
        assert!(seg.digest().is_none(), "pages unverified: no digest");
        fold(seg.pages());
        forget_all_moments();
        seg.memoize_digest(d(16));
        assert_eq!(seg.digest().as_deref(), Some(&d(16)));
        assert_eq!(live_memos(), 1, "the digest counts");
        seg.memoize_digest(d(7));
        assert_eq!(seg.digest().as_deref(), Some(&d(16)), "set once per epoch");
        forget_all_moments();
        assert!(seg.digest().is_none(), "hidden by the bump");
        seg.memoize_digest(d(7));
        assert_eq!(seg.digest().as_deref(), Some(&d(7)), "set again after it");
        drop(seg);
        assert_eq!(live_memos(), 0, "a dropped segment leaves the count");
    }

    #[test]
    fn segments_fill_then_the_tail_is_a_short_one() {
        let mut sealed = SealedPages::new(4);
        for i in 0..10 {
            sealed.push(page(100 * i));
        }
        assert_eq!(sealed.len(), 10);
        let segs = sealed.segments();
        assert_eq!(segs.iter().map(|s| s.len()).collect::<Vec<_>>(), [4, 4, 2]);
        // The tail segment is shared until the next seal.
        assert!(Arc::ptr_eq(&segs[2], &sealed.segments()[2]));
        assert!(Arc::ptr_eq(&segs[0], &sealed.segments()[0]));
        sealed.push(page(1000));
        assert_eq!(sealed.segments()[2].len(), 3);
        let firsts: Vec<i64> = sealed.pages().map(|p| p.header.first_ts).collect();
        assert_eq!(firsts, (0..11).map(|i| 100 * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_replaced_page_lands_in_a_new_segment() {
        let _e = crate::tests::memo_epoch_lock();
        let mut sealed = SealedPages::new(4);
        for i in 0..6 {
            sealed.push(page(100 * i));
        }
        let before = sealed.segments();
        fold(before[0].pages());
        before[0].memoize();
        assert!(before[0].is_verified());
        for index in [1, 5] {
            let copy = (*sealed.pages().nth(index).unwrap()).as_ref().clone();
            sealed.replace(index, copy).unwrap();
        }
        let after = sealed.segments();
        assert!(!Arc::ptr_eq(&before[0], &after[0]));
        assert!(!after[0].is_verified() && !after[0].pages()[1].is_verified());
        assert!(Arc::ptr_eq(&before[0].pages()[0], &after[0].pages()[0]));
        assert!(!Arc::ptr_eq(&before[1], &after[1]));
        assert!(sealed.replace(6, (*page(0)).clone()).is_err());
    }
}
