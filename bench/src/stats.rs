//! Summary statistics: window medians with quartiles, and pooled latency
//! percentiles under the "at least ten samples beyond" rule.

/// Median and quartiles of a set of per-window (or per-run) values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), and `statistics.median` for the middle, so the
/// numbers agree with what the acceptance driver computes. One value
/// summarizes to itself; none to zeros.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => Summary {
            n,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
        },
        1 => Summary {
            n,
            q1: v[0],
            median: v[0],
            q3: v[0],
        },
        _ => {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            let median = if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            };
            Summary {
                n,
                q1: cut(1),
                median,
                q3: cut(3),
            }
        }
    }
}

/// `part / whole` as a ratio; 0 when there was nothing to share.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A pooled percentile of latency samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the reported rank.
    pub value: f64,
    /// The percentile actually reported — `wanted`, or lower when the
    /// pool was too small to leave [`MIN_BEYOND`] samples beyond it.
    pub reported: f64,
    /// Pool size.
    pub n: usize,
}

/// Nearest-rank percentile `wanted` (in `0..1`) of `sorted`, lowered to
/// the highest rank that still has `min_beyond` samples beyond it. A pool
/// of at most `min_beyond` samples reports its median.
pub fn percentile(sorted: &[u32], wanted: f64, min_beyond: usize) -> Percentile {
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            reported: wanted,
            n,
        };
    }
    let nearest = ((wanted * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = if n > min_beyond {
        nearest.min(n - 1 - min_beyond)
    } else {
        (n - 1) / 2
    };
    Percentile {
        value: sorted[idx] as f64,
        reported: if idx == nearest {
            wanted
        } else {
            (idx + 1) as f64 / n as f64
        },
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let s = summarize(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn degenerate_inputs_summarize_without_panicking() {
        assert_eq!(summarize(&[]).median, 0.0);
        let one = summarize(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 2000 samples: nearest-rank p99 is index 1979, 20 beyond: kept.
        let big: Vec<u32> = (0..2000).collect();
        let p = percentile(&big, 0.99, MIN_BEYOND);
        assert_eq!((p.value, p.reported, p.n), (1979.0, 0.99, 2000));
        // 500 samples: p99 would leave 5 beyond, so the rank drops to the
        // highest with 10 beyond it (index 489 = p98).
        let small: Vec<u32> = (0..500).collect();
        let p = percentile(&small, 0.99, MIN_BEYOND);
        assert_eq!(p.value, 489.0);
        assert!((p.reported - 0.98).abs() < 1e-12);
        // Exactly 1000 samples leave exactly 10 beyond p99.
        let edge: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile(&edge, 0.99, MIN_BEYOND).reported, 0.99);
        // The median is never lowered in a pool this size.
        assert_eq!(percentile(&small, 0.5, MIN_BEYOND).value, 249.0);
        // A pool no larger than the tail reports its median.
        let tiny: Vec<u32> = (0..8).collect();
        assert_eq!(percentile(&tiny, 0.99, MIN_BEYOND).value, 3.0);
        assert_eq!(percentile(&[], 0.99, MIN_BEYOND).n, 0);
    }
}
