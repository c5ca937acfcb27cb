//! Page distribution and slicing (paper §III-C, Figure 8).
//!
//! [`distribute`] shapes a query's *morsels*: the stealable work units
//! the persistent pool ([`crate::pool`]) schedules dynamically. It
//! prefers whole pages — one pipeline instance per page — and splits
//! pages into slices only when there are fewer pages than cores, because
//! slices of a Delta-encoded page depend on each other through the
//! prefix sum. Slice jobs therefore run in two phases: every slice
//! independently unpacks its delta range and produces a *symbolic*
//! partial (coefficients over its unknown start value), and a sequential
//! merge resolves the start values — the "split the pipeline into two
//! tasks so threads never wait for the prefix sum" design of Fig. 14(c-d).
//! The merge consumes outputs in job order (the scheduler's contract),
//! so slices combine correctly no matter which runner claimed which
//! morsel or in what temporal order they executed.

use std::sync::Arc;

use etsqp_storage::page::Page;

/// A unit of pipeline work: a page or a slice of one.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// A whole page.
    Page(Arc<Page>),
    /// Slice `part` of `parts` of a page (delta-index granularity).
    Slice {
        /// The sliced page.
        page: Arc<Page>,
        /// Zero-based slice index.
        part: usize,
        /// Total slices of this page.
        parts: usize,
    },
}

impl WorkItem {
    /// Number of tuples this item covers.
    pub fn tuple_count(&self) -> usize {
        match self {
            WorkItem::Page(p) => p.header.count as usize,
            WorkItem::Slice { page, part, parts } => {
                let (lo, hi) = slice_range(page.header.count as usize, *part, *parts);
                hi - lo
            }
        }
    }
}

/// Element-index range `[lo, hi)` of slice `part` of `parts` over `count`
/// elements (balanced split).
pub fn slice_range(count: usize, part: usize, parts: usize) -> (usize, usize) {
    debug_assert!(part < parts);
    let base = count / parts;
    let extra = count % parts;
    let lo = part * base + part.min(extra);
    let len = base + usize::from(part < extra);
    (lo, lo + len)
}

/// Distributes pages to work items for `threads` workers (paper §III-C):
/// whole pages when there are at least as many pages as threads, slices
/// otherwise (each page split into `⌈threads / #pages⌉` slices).
pub fn distribute(pages: &[Arc<Page>], threads: usize) -> Vec<WorkItem> {
    let threads = threads.max(1);
    if pages.is_empty() {
        return Vec::new();
    }
    if pages.len() >= threads {
        return pages.iter().cloned().map(WorkItem::Page).collect();
    }
    let parts = threads.div_ceil(pages.len());
    let mut items = Vec::with_capacity(pages.len() * parts);
    for page in pages {
        // Never produce empty slices for tiny pages.
        let parts = parts.min((page.header.count as usize).max(1));
        if parts <= 1 {
            items.push(WorkItem::Page(Arc::clone(page)));
        } else {
            for part in 0..parts {
                items.push(WorkItem::Slice {
                    page: Arc::clone(page),
                    part,
                    parts,
                });
            }
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsqp_encoding::Encoding;

    fn make_pages(n: usize, points: usize) -> Vec<Arc<Page>> {
        (0..n)
            .map(|k| {
                let ts: Vec<i64> = (0..points as i64)
                    .map(|i| (k * points) as i64 * 10 + i * 10)
                    .collect();
                let vals: Vec<i64> = (0..points as i64).collect();
                Arc::new(Page::encode(&ts, &vals, Encoding::Ts2Diff, Encoding::Ts2Diff).unwrap())
            })
            .collect()
    }

    #[test]
    fn whole_pages_when_enough() {
        let pages = make_pages(8, 100);
        let items = distribute(&pages, 4);
        assert_eq!(items.len(), 8);
        assert!(items.iter().all(|i| matches!(i, WorkItem::Page(_))));
    }

    #[test]
    fn slices_when_few_pages() {
        let pages = make_pages(2, 100);
        let items = distribute(&pages, 8);
        assert_eq!(items.len(), 8); // 2 pages × 4 slices
        assert!(items
            .iter()
            .all(|i| matches!(i, WorkItem::Slice { parts: 4, .. })));
        // Coverage: slice tuple counts per page sum to the page count.
        let total: usize = items.iter().map(|i| i.tuple_count()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn slice_ranges_partition_exactly() {
        for count in [1usize, 7, 64, 100, 1023] {
            for parts in [1usize, 2, 3, 4, 7, 16] {
                let mut covered = 0usize;
                let mut expected_lo = 0usize;
                for part in 0..parts.min(count) {
                    let (lo, hi) = slice_range(count, part, parts.min(count));
                    assert_eq!(lo, expected_lo);
                    assert!(hi >= lo);
                    covered += hi - lo;
                    expected_lo = hi;
                }
                assert_eq!(covered, count, "count={count} parts={parts}");
            }
        }
    }

    #[test]
    fn empty_input_and_single_thread() {
        assert!(distribute(&[], 4).is_empty());
        let pages = make_pages(3, 10);
        let items = distribute(&pages, 1);
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn tiny_pages_are_not_oversliced() {
        let pages = make_pages(1, 2); // 2 points, 8 threads
        let items = distribute(&pages, 8);
        assert_eq!(items.len(), 2); // capped at count
    }
}
