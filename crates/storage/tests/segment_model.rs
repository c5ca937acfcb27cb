//! Model-checked segment publish: the interleavings of two folds that
//! publish a segment memo, or a segment digest, an epoch bump
//! (`forget_all_moments`, what `PartialCache::clear` runs) and a page
//! swapped in by corruption (`SealedPages::replace`, what
//! `SeriesStore::corrupt_page` runs).
//!
//! Run with: `cargo test -p etsqp-storage --features model`
//!
//! Under the `model` feature every verified mark, memo word, memo state
//! and the epoch are loom-instrumented atomics, so each of their
//! operations is a point where the scheduler may switch threads. No
//! interleaving may expose a memo over a page that is not verified, a
//! memo whose value is not its segment's, or a memo visible in an epoch
//! its pages' memos are not (a mixed-epoch memo); and no interleaving may
//! expose a digest over a page that is not verified, or one set only
//! before the last epoch bump.
#![cfg(feature = "model")]

use etsqp_encoding::Encoding;
use etsqp_storage::page::{forget_all_moments, Page, PageMoments};
use etsqp_storage::segment::{Centroid, SealedPages, Segment, SegmentDigest};
use etsqp_storage::Bytes;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};

/// Two four-point pages.
fn sealed() -> SealedPages {
    let mut sealed = SealedPages::new(2);
    for at in [0i64, 10] {
        let ts: Vec<i64> = (at..at + 4).collect();
        let vals: Vec<i64> = ts.iter().map(|t| 3 * t - 7).collect();
        let page = Page::encode(&ts, &vals, Encoding::Ts2Diff, Encoding::Ts2Diff).unwrap();
        sealed.push(std::sync::Arc::new(page));
    }
    sealed
}

/// What a whole-page fold computes, from the reference decode.
fn moments_of(page: &Page) -> Option<PageMoments> {
    let (_, vals) = page.decode().ok()?;
    let wide = |v: &i64| i128::from(*v);
    Some(PageMoments {
        sum: Some(vals.iter().map(wide).sum()),
        sum_sq: Some(vals.iter().map(|v| wide(v) * wide(v)).sum()),
        ends: Some((*vals.first()?, *vals.last()?)),
    })
}

/// What a cold query over the segment does to it: verify and memoize
/// each page (a corrupt one aborts the query), then publish the segment.
fn fold(seg: &Segment) {
    for page in seg.pages() {
        match moments_of(page) {
            Some(m) => page.memoize(m),
            None => return,
        }
    }
    seg.memoize();
}

/// The moments a segment memo must hold: Σ and Σ² over every page, the
/// first page's first value and the last page's last.
fn truth(seg: &Segment) -> Option<PageMoments> {
    let pages: Vec<PageMoments> = seg
        .pages()
        .iter()
        .map(|p| moments_of(p))
        .collect::<Option<_>>()?;
    Some(PageMoments {
        sum: pages.iter().map(|m| m.sum).sum(),
        sum_sq: pages.iter().map(|m| m.sum_sq).sum(),
        ends: Some((pages.first()?.ends?.0, pages.last()?.ends?.1)),
    })
}

/// A visible memo stands on verified pages and holds its segment's
/// moments, group by group.
fn sound(seg: &Segment) {
    let m = seg.moments();
    if m == PageMoments::default() {
        return;
    }
    assert!(
        seg.pages().iter().all(|p| p.is_verified()),
        "segment memo over an unverified page"
    );
    let want = truth(seg).expect("verified pages decode");
    assert!(m.sum.is_none_or(|s| Some(s) == want.sum), "wrong Σ: {m:?}");
    assert!(
        m.sum_sq.is_none_or(|s| Some(s) == want.sum_sq),
        "wrong Σ²: {m:?}"
    );
    assert!(
        m.ends.is_none_or(|e| Some(e) == want.ends),
        "wrong ends: {m:?}"
    );
}

/// One run of the model. The epoch bump first spends `delay` scheduling
/// points of its own (a thread's `yield_now` would park it behind every
/// thread that has not yielded, so it counts on an atomic instead): a
/// bump of two steps lands early in most random schedules, and the test
/// sweeps the delay so that it also lands between a publisher's reads of
/// the page memos and its write of the segment memo.
fn model(delay: usize) {
    let slot = Arc::new(Mutex::new(sealed()));
    let first = slot.lock().segments()[0].clone();
    // A first query folded every page: verified and memoized. Two warm
    // queries then each serve every page from its memo and publish the
    // segment (one folding again would republish the page memos the
    // epoch bump forgets, and hide a publish from the wrong epoch).
    first
        .pages()
        .iter()
        .for_each(|p| p.memoize(moments_of(p).unwrap()));
    let folds: Vec<_> = (0..2)
        .map(|_| {
            let slot = Arc::clone(&slot);
            loom::thread::spawn(move || {
                let seg = slot.lock().segments()[0].clone();
                seg.memoize();
                sound(&seg);
                seg
            })
        })
        .collect();
    let bump = loom::thread::spawn(move || {
        let clock = AtomicUsize::new(0);
        (0..delay).for_each(|_| {
            clock.fetch_add(1, Ordering::Relaxed);
        });
        forget_all_moments();
    });
    // Corruption: page 1 cloned, one payload byte flipped, swapped in.
    let corrupt = {
        let slot = Arc::clone(&slot);
        loom::thread::spawn(move || {
            let mut copy = Page::clone(&first.pages()[1]);
            let mut v = copy.val_bytes.to_vec();
            v[0] ^= 0x40;
            copy.val_bytes = Bytes::from(v);
            slot.lock().replace(1, copy).unwrap();
        })
    };
    let mut seen: Vec<_> = folds.into_iter().map(|h| h.join()).collect();
    bump.join();
    corrupt.join();
    let swapped = slot.lock().segments()[0].clone();
    fold(&swapped);
    assert!(
        !swapped.is_verified(),
        "a segment over a corrupt page is marked"
    );
    assert_eq!(swapped.moments(), PageMoments::default());
    seen.push(swapped);
    // No thread runs now: a memo visible in this epoch was published
    // from page memos of this epoch, which are still there.
    for seg in &seen {
        sound(seg);
        let m = seg.moments();
        for page in seg.pages() {
            let p = page.moments();
            assert!(
                (m.sum.is_none() || p.sum.is_some())
                    && (m.sum_sq.is_none() || p.sum_sq.is_some())
                    && (m.ends.is_none() || p.ends.is_some()),
                "segment memo {m:?} visible in an epoch its page lacks ({p:?})"
            );
        }
    }
}

#[test]
fn segment_publish_survives_epoch_bumps_and_swapped_pages() {
    for delay in 0..=24 {
        let report = loom::Builder {
            max_schedules: 100,
            random_schedules: 100,
            ..loom::Builder::new()
        }
        .check(|| model(delay));
        assert!(report.schedules > 100, "explored too little: {report:?}");
    }
}

/// A stand-in for the digest a query's folds merge over the segment's
/// pages (storage knows no sketch): a centroid per value.
fn digest_of(seg: &Segment) -> Option<SegmentDigest> {
    let mut vals = Vec::new();
    for page in seg.pages() {
        vals.extend(page.decode().ok()?.1);
    }
    let centroids = vals.iter().map(|&v| Centroid {
        mean: v as f64,
        weight: 1,
    });
    Some(SegmentDigest {
        centroids: centroids.collect(),
        count: vals.len() as u64,
        min: *vals.iter().min()? as f64,
        max: *vals.iter().max()? as f64,
    })
}

/// A visible digest stands on verified pages and is the segment's.
fn sound_digest(seg: &Segment, want: &SegmentDigest) {
    if let Some(d) = seg.digest() {
        assert!(
            seg.pages().iter().all(|p| p.is_verified()),
            "segment digest over an unverified page"
        );
        assert_eq!(*d, *want, "wrong digest");
    }
}

/// One run of the digest model. Two folds hash every page and set the
/// segment's digest while the epoch bump, after `delay` yields, and the
/// corruption swap land. A fold hands in the digest whether or not a
/// page failed its hash, so the slot's own guard is what keeps a digest
/// off an unverified page. A bump that finds both sets done must leave
/// no digest visible after it.
fn digest_model(delay: usize) {
    let slot = Arc::new(Mutex::new(sealed()));
    let first = slot.lock().segments()[0].clone();
    let want = digest_of(&first).unwrap();
    let published = Arc::new(AtomicUsize::new(0));
    let folds: Vec<_> = (0..2)
        .map(|_| {
            let (slot, want, published) = (Arc::clone(&slot), want.clone(), Arc::clone(&published));
            loom::thread::spawn(move || {
                let seg = slot.lock().segments()[0].clone();
                seg.pages().iter().for_each(|p| {
                    let _ = p.ensure_verified();
                });
                seg.memoize_digest(want.clone());
                published.fetch_add(1, Ordering::Relaxed);
                sound_digest(&seg, &want);
                seg
            })
        })
        .collect();
    let bump = {
        let published = Arc::clone(&published);
        loom::thread::spawn(move || {
            (0..delay).for_each(|_| loom::thread::yield_now());
            let before = published.load(Ordering::Relaxed);
            forget_all_moments();
            before
        })
    };
    let corrupt = {
        let slot = Arc::clone(&slot);
        let page = first.pages()[1].clone();
        loom::thread::spawn(move || {
            let mut copy = Page::clone(&page);
            let mut v = copy.val_bytes.to_vec();
            v[0] ^= 0x40;
            copy.val_bytes = Bytes::from(v);
            slot.lock().replace(1, copy).unwrap();
        })
    };
    let mut seen: Vec<_> = folds.into_iter().map(|h| h.join()).collect();
    let both_before_bump = bump.join() == 2;
    corrupt.join();
    let swapped = slot.lock().segments()[0].clone();
    swapped.memoize_digest(want.clone());
    assert!(swapped.digest().is_none(), "a digest over a corrupt page");
    seen.extend([swapped, first]);
    for seg in &seen {
        sound_digest(seg, &want);
        assert!(
            !both_before_bump || seg.digest().is_none(),
            "a digest set before the epoch bump is visible after it"
        );
    }
}

#[test]
fn segment_digest_survives_epoch_bumps_and_swapped_pages() {
    for delay in 0..=8 {
        let report = loom::Builder {
            max_schedules: 200,
            random_schedules: 200,
            ..loom::Builder::new()
        }
        .check(|| digest_model(delay));
        assert!(report.schedules > 100, "explored too little: {report:?}");
    }
}
