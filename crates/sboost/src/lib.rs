//! # etsqp-sboost — the SBoost baseline
//!
//! Reimplements the comparison system of paper §VII-A (baseline 5):
//! SBoost (Jiang & Elmore, DaMoN'18) accelerates Delta decoding and
//! filtering on columnar encodings with SIMD, but — per the paper's
//! characterization — **without unpacking-layout determination and
//! without operator fusion**:
//!
//! * bit-unpacking is vectorized, in straight order (no chain layout);
//! * Delta recovery is an in-vector prefix scan with a sequential carry
//!   (the [`etsqp_simd::scan::inclusive_scan_v32`] strategy);
//! * filters run as SIMD compares over fully *materialized* decoded
//!   vectors; aggregation follows as a separate pass;
//! * multithreading splits the data into **exactly `threads` slices**,
//!   one thread each; slices of the same page depend on the previous
//!   slice's final value to resolve the Delta prefix, so threads *wait*
//!   on their predecessor (the synchronization cost the paper's Figure 8
//!   and micro-benchmarks §VII-C attribute to SBoost).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use etsqp_encoding::ts2diff;
use etsqp_storage::page::Page;
use etsqp_storage::store::SeriesStore;

/// Synchronization statistics of one query run.
#[derive(Debug, Default)]
pub struct SyncStats {
    /// Nanoseconds threads spent blocked on a predecessor slice.
    pub sync_wait_ns: AtomicU64,
    /// Decoded values materialized (bytes).
    pub materialized_bytes: AtomicU64,
}

/// Errors from the SBoost executor.
#[derive(Debug)]
pub enum Error {
    /// Underlying codec failure.
    Encoding(etsqp_encoding::Error),
    /// Storage failure.
    Storage(etsqp_storage::Error),
    /// Unsupported page encoding for this baseline.
    Unsupported(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Encoding(e) => write!(f, "encoding: {e}"),
            Error::Storage(e) => write!(f, "storage: {e}"),
            Error::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for Error {}

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

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// SBoost-style decode of a TS2DIFF order-1 page: vectorized straight
/// unpack + scan-with-carry accumulation (no layout transposition).
pub fn decode_page_values(bytes: &[u8], out: &mut Vec<i64>) -> Result<()> {
    let page = ts2diff::parse(bytes)?;
    out.clear();
    if page.count == 0 {
        return Ok(());
    }
    out.reserve(page.count);
    out.push(page.first[0]);
    if page.order != 1 {
        // SBoost targets single-Delta formats; decode serially otherwise.
        let all = ts2diff::decode(bytes)?;
        *out = all;
        return Ok(());
    }
    let n = page.num_deltas();
    let mut stored = vec![0u32; n];
    let fits32 = page.width <= 32
        && (page.count as u128)
            * (page
                .delta_lower_bound()
                .unsigned_abs()
                .max(page.delta_upper_bound().unsigned_abs()) as u128)
            < (1 << 30);
    if fits32 {
        etsqp_simd::unpack::unpack_u32(page.payload, 0, page.width, &mut stored);
        let base32 = page.min_delta as u32;
        for s in stored.iter_mut() {
            *s = s.wrapping_add(base32);
        }
        // Straight in-vector scans with sequential carry.
        let mut carry = 0u32;
        let mut rel = vec![0u32; n];
        let mut pos = 0;
        while pos + 8 <= n {
            let mut v = [0u32; 8];
            v.copy_from_slice(&stored[pos..pos + 8]);
            etsqp_simd::scan::inclusive_scan_v32(&mut v, &mut carry);
            rel[pos..pos + 8].copy_from_slice(&v);
            pos += 8;
        }
        let mut acc = carry;
        for i in pos..n {
            acc = acc.wrapping_add(stored[i]);
            rel[i] = acc;
        }
        out.resize(1 + n, 0);
        let first = page.first[0];
        etsqp_simd::scan::widen_rel_i64(first, &rel, &mut out[1..]);
    } else {
        let mut wide = vec![0u64; n];
        etsqp_simd::unpack::unpack_u64(page.payload, 0, page.width, &mut wide);
        let mut cur = page.first[0];
        for &s in &wide {
            cur = cur.wrapping_add(page.min_delta.wrapping_add(s as i64));
            out.push(cur);
        }
    }
    Ok(())
}

/// The SBoost query executor over a series of TS2DIFF pages.
pub struct SboostEngine {
    pages: Vec<Arc<Page>>,
    stats: Arc<SyncStats>,
}

impl SboostEngine {
    /// Builds the executor over a series' flushed pages.
    pub fn from_store(store: &SeriesStore, series: &str) -> Result<Self> {
        Ok(SboostEngine {
            pages: store.peek_pages(series)?,
            stats: Arc::new(SyncStats::default()),
        })
    }

    /// Synchronization statistics of the last runs.
    pub fn stats(&self) -> &SyncStats {
        &self.stats
    }

    /// Total stored tuples.
    pub fn tuple_count(&self) -> u64 {
        self.pages.iter().map(|p| p.header.count as u64).sum()
    }

    /// SUM + COUNT of values whose timestamp falls in `[t_lo, t_hi]`.
    ///
    /// Splits all pages into ~`threads` slices; each slice thread unpacks
    /// its delta range immediately but must **wait** for the predecessor
    /// slice's final value before it can materialize absolute values —
    /// the synchronization the paper contrasts against ETSQP's
    /// page-preferring scheduler.
    pub fn sum_in_time_range(&self, t_lo: i64, t_hi: i64, threads: usize) -> Result<(i128, u64)> {
        let threads = threads.max(1);
        // Header-level time skipping (both systems read headers for free;
        // without this the comparison would be unfairly quadratic for
        // windowed workloads).
        let live: Vec<usize> = (0..self.pages.len())
            .filter(|&i| {
                let h = &self.pages[i].header;
                h.first_ts <= t_hi && h.last_ts >= t_lo
            })
            .collect();
        // Build the slice list: distribute `threads` slices over pages
        // proportionally to page sizes (at least one slice per page).
        let mut slices: Vec<(usize, usize, usize)> = Vec::new(); // (page, part, parts)
        let n_pages = live.len();
        if n_pages == 0 {
            return Ok((0, 0));
        }
        let per_page = (threads / n_pages).max(1);
        for &pi in &live {
            let page = &self.pages[pi];
            let parts = per_page.min((page.header.count as usize).max(1));
            for part in 0..parts {
                slices.push((pi, part, parts));
            }
        }
        // Per-page dependency chains: channel `part → part+1`.
        let mut senders: Vec<Vec<Option<crossbeam::channel::Sender<i64>>>> = Vec::new();
        let mut receivers: Vec<Vec<Option<crossbeam::channel::Receiver<i64>>>> = Vec::new();
        for (pi, page) in self.pages.iter().enumerate() {
            let parts = slices.iter().filter(|s| s.0 == pi).count();
            let mut tx_row = vec![None; parts];
            let mut rx_row = vec![None; parts];
            for part in 0..parts.saturating_sub(1) {
                let (tx, rx) = crossbeam::channel::bounded(1);
                tx_row[part] = Some(tx);
                rx_row[part + 1] = Some(rx);
            }
            let _ = page;
            senders.push(tx_row);
            receivers.push(rx_row);
        }
        let senders = std::sync::Mutex::new(senders);
        let receivers = std::sync::Mutex::new(receivers);

        let total_sum = std::sync::Mutex::new(0i128);
        let total_count = AtomicU64::new(0);
        let error = std::sync::Mutex::new(None::<Error>);
        let next = AtomicU64::new(0);
        crossbeam::scope(|scope| {
            for _ in 0..threads.min(slices.len()) {
                let slices = &slices;
                let senders = &senders;
                let receivers = &receivers;
                let total_sum = &total_sum;
                let total_count = &total_count;
                let error = &error;
                let next = &next;
                scope.spawn(move |_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if i >= slices.len() {
                        break;
                    }
                    let (pi, part, parts) = slices[i];
                    let tx = senders.lock().unwrap_or_else(|e| e.into_inner())[pi][part].take();
                    let rx = receivers.lock().unwrap_or_else(|e| e.into_inner())[pi][part].take();
                    match self.run_slice(pi, part, parts, t_lo, t_hi, tx, rx) {
                        Ok((s, c)) => {
                            *total_sum.lock().unwrap_or_else(|e| e.into_inner()) += s;
                            total_count.fetch_add(c, Ordering::Relaxed);
                        }
                        Err(e) => {
                            *error.lock().unwrap_or_else(|e| e.into_inner()) = Some(e);
                        }
                    }
                });
            }
        })
        // lint:allow(no-panic-paths) -- a worker panic is a bug in the slice kernel, not an input error; resuming the unwind is the only sound option in this infallible API
        .expect("sboost worker panicked");
        if let Some(e) = error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(e);
        }
        Ok((
            total_sum.into_inner().unwrap_or_else(|e| e.into_inner()),
            total_count.load(Ordering::Relaxed),
        ))
    }

    #[allow(clippy::too_many_arguments)] // slice identity + range + channel pair
    fn run_slice(
        &self,
        pi: usize,
        part: usize,
        parts: usize,
        t_lo: i64,
        t_hi: i64,
        tx: Option<crossbeam::channel::Sender<i64>>,
        rx: Option<crossbeam::channel::Receiver<i64>>,
    ) -> Result<(i128, u64)> {
        let page = &self.pages[pi];
        let parsed = ts2diff::parse(&page.val_bytes)?;
        let count = parsed.count;
        let (lo, hi) = balanced_range(count, part, parts);
        // Phase 1 (no dependency): unpack this slice's deltas and compute
        // the relative prefix.
        let mut rel = Vec::with_capacity(hi - lo);
        let mut running = 0i64;
        if lo == 0 {
            rel.push(0);
        }
        let d_lo = lo.saturating_sub(1);
        let d_hi = hi.saturating_sub(1);
        if parsed.order == 1 && d_hi > d_lo {
            let mut stored = vec![0u64; d_hi - d_lo];
            etsqp_simd::unpack::unpack_u64(
                parsed.payload,
                d_lo * parsed.width as usize,
                parsed.width,
                &mut stored,
            );
            for &s in &stored {
                running = running.wrapping_add(parsed.min_delta.wrapping_add(s as i64));
                rel.push(running);
            }
        } else if parsed.order != 1 {
            return Err(Error::Unsupported("sboost slices need order-1 delta"));
        }
        // Dependency: wait for the predecessor's absolute end value.
        let base = match rx {
            Some(rx) => {
                let wait = Instant::now();
                let v = rx
                    .recv()
                    .map_err(|_| Error::Unsupported("predecessor died"))?;
                self.stats
                    .sync_wait_ns
                    .fetch_add(wait.elapsed().as_nanos() as u64, Ordering::Relaxed);
                v
            }
            None => parsed.first[0],
        };
        if let Some(tx) = tx {
            let _ = tx.send(base.wrapping_add(running));
        }
        // Phase 2: materialize absolute values, decode timestamps for the
        // same range, SIMD-filter, aggregate.
        let vals: Vec<i64> = rel.iter().map(|&r| base.wrapping_add(r)).collect();
        self.stats
            .materialized_bytes
            .fetch_add(vals.len() as u64 * 8, Ordering::Relaxed);
        let mut ts_all = Vec::new();
        decode_page_values(&page.ts_bytes, &mut ts_all)?;
        let ts = &ts_all[lo..hi.min(ts_all.len())];
        let mut mask = etsqp_simd::filter::new_mask(ts.len().max(1));
        etsqp_simd::filter::range_mask_i64(ts, t_lo, t_hi, &mut mask);
        let (sum, count) = etsqp_simd::agg::masked_sum_i64(&vals[..ts.len()], &mask);
        Ok((sum, count))
    }
}

/// Balanced `[lo, hi)` split of `count` elements, slice `part` of
/// `parts` (the baseline stays dependency-free of the core crate).
fn balanced_range(count: usize, part: usize, parts: usize) -> (usize, usize) {
    let base = count / parts;
    let extra = count % parts;
    let lo = part * base + part.min(extra);
    (lo, lo + base + usize::from(part < extra))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsqp_encoding::Encoding;

    fn store_with(ts: &[i64], vals: &[i64], page_points: usize) -> SeriesStore {
        let store = SeriesStore::new(page_points);
        store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
        store.append_all("s", ts, vals).unwrap();
        store.flush("s").unwrap();
        store
    }

    #[test]
    fn decode_matches_reference() {
        let vals: Vec<i64> = (0..2000).map(|i| 77 + i * 5 - (i % 13)).collect();
        let bytes = ts2diff::encode(&vals, 1);
        let mut out = Vec::new();
        decode_page_values(&bytes, &mut out).unwrap();
        assert_eq!(out, vals);
    }

    #[test]
    fn decode_wide_values() {
        let vals = vec![i64::MIN, 0, i64::MAX, 5];
        let bytes = ts2diff::encode(&vals, 1);
        let mut out = Vec::new();
        decode_page_values(&bytes, &mut out).unwrap();
        assert_eq!(out, vals);
    }

    #[test]
    fn sum_in_range_matches_naive_across_threads() {
        let ts: Vec<i64> = (0..6000).map(|i| i * 10).collect();
        let vals: Vec<i64> = (0..6000).map(|i| (i % 71) - 35).collect();
        let store = store_with(&ts, &vals, 1024);
        let engine = SboostEngine::from_store(&store, "s").unwrap();
        let want: i128 = ts
            .iter()
            .zip(&vals)
            .filter(|(&t, _)| (5_000..=45_000).contains(&t))
            .map(|(_, &v)| v as i128)
            .sum();
        for threads in [1usize, 2, 4, 8] {
            let (sum, count) = engine.sum_in_time_range(5_000, 45_000, threads).unwrap();
            assert_eq!(sum, want, "threads {threads}");
            assert_eq!(count, 4001);
        }
    }

    #[test]
    fn slice_chain_synchronization_recorded() {
        // Few pages + many threads → slices with waits.
        let ts: Vec<i64> = (0..4096).collect();
        let vals: Vec<i64> = (0..4096).map(|i| i % 9).collect();
        let store = store_with(&ts, &vals, 4096); // one page
        let engine = SboostEngine::from_store(&store, "s").unwrap();
        let (sum, count) = engine.sum_in_time_range(i64::MIN, i64::MAX, 8).unwrap();
        let want: i128 = vals.iter().map(|&v| v as i128).sum();
        assert_eq!(sum, want);
        assert_eq!(count, 4096);
        // Slices after the first must have waited at least once (the
        // counter may be tiny but the channel recv path was exercised).
        assert!(engine.stats().materialized_bytes.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn empty_series() {
        let store = SeriesStore::new(64);
        store.create_series("s", Encoding::Ts2Diff, Encoding::Ts2Diff);
        let engine = SboostEngine::from_store(&store, "s").unwrap();
        assert_eq!(engine.sum_in_time_range(0, 100, 4).unwrap(), (0, 0));
    }
}
