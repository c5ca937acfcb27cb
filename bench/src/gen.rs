//! Seeded input generation: a splitmix64 stream and the series shapes the
//! workloads are built from.
//!
//! `etsqp_datasets::Spec::generate` takes no seed, so the benchmark draws
//! its own inputs. Every shape is a fixed deterministic signal plus seeded
//! noise of a fixed amplitude: the seed changes the values, not the bit
//! widths, run lengths or page min/max envelopes the engine's behaviour
//! depends on, so two seeds measure the same amount of work.

use etsqp_encoding::Encoding;

/// Steele, Lea & Flood's splitmix64.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]` (inclusive) by multiply-shift.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        let r = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        lo + r as i64
    }

    /// An independent stream for one named part of the input, so adding a
    /// series never shifts the values of another.
    pub fn fork(&self, label: u64) -> SplitMix64 {
        let mut s = SplitMix64::new(self.state ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        s.next_u64();
        s
    }
}

/// Nominal sampling period of every clock, in time units.
pub const TICK: i64 = 1000;
/// Clock jitter amplitude: arrival times scatter this far around the grid.
const JITTER: i64 = 200;
/// Grid offset. With `JITTER < CLOCK_OFFSET < TICK - JITTER`, page `k` of
/// `p` points lies strictly inside `[k·p·TICK, (k+1)·p·TICK)`, so
/// epoch-aligned buckets of a multiple of `p·TICK` never split a page.
const CLOCK_OFFSET: i64 = 500;

/// Timestamp of point `i` on a jittered clock: a regular grid plus
/// bounded seeded jitter (strictly increasing because `2·JITTER < TICK`).
pub fn clock_at(i: u64, rng: &mut SplitMix64) -> i64 {
    CLOCK_OFFSET + i as i64 * TICK + rng.range(-JITTER, JITTER)
}

/// The value shapes, one per codec family the paper's Table I covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The series' own jittered timestamps as values (a monotone counter).
    Clock,
    /// Triangle wave plus uniform noise in `[-noise, noise)`.
    Sensor { noise: i64 },
    /// Sensor with a one-in-eight chance of a large spike, so Stream VByte
    /// deltas mix one- and two-byte codes.
    Spiky,
    /// Staircase: a level held for 8..64 points (run-heavy, Delta-RLE).
    Runs,
}

/// One series of a workload's store.
#[derive(Debug, Clone)]
pub struct SeriesSpec {
    pub name: String,
    pub codec: Encoding,
    pub shape: Shape,
}

impl SeriesSpec {
    pub fn new(name: &str, codec: Encoding, shape: Shape) -> Self {
        SeriesSpec {
            name: name.to_string(),
            codec,
            shape,
        }
    }
}

/// The triangle wave under every sensor shape: period `period` points,
/// values in `[-amp, amp]` with `amp = period / 4` (slope ±1 per point).
pub fn wave(i: u64, period: u64) -> i64 {
    let half = period / 2;
    let x = i % period;
    let up = if x < half { x } else { period - x };
    up as i64 - (half / 2) as i64
}

/// Amplitude of [`wave`] for a given period.
pub fn wave_amp(period: u64) -> i64 {
    (period / 4) as i64
}

/// Generates `n` points of a series: `(timestamps, values)`.
pub fn series(shape: Shape, n: usize, period: u64, rng: &SplitMix64) -> (Vec<i64>, Vec<i64>) {
    let mut clock_rng = rng.fork(1);
    let mut val_rng = rng.fork(2);
    let ts: Vec<i64> = (0..n as u64).map(|i| clock_at(i, &mut clock_rng)).collect();
    let vals = match shape {
        Shape::Clock => ts.clone(),
        Shape::Sensor { noise } => (0..n as u64)
            .map(|i| wave(i, period) + val_rng.range(-noise, noise - 1))
            .collect(),
        Shape::Spiky => (0..n as u64)
            .map(|i| {
                let spike = if val_rng.range(0, 7) == 0 {
                    val_rng.range(-20_000, 20_000)
                } else {
                    0
                };
                wave(i, period) + val_rng.range(-50, 50) + spike
            })
            .collect(),
        Shape::Runs => {
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let run = val_rng.range(8, 63) as usize;
                let level = wave(out.len() as u64, period) + val_rng.range(-16, 15);
                let end = (out.len() + run).min(n);
                out.resize(end, level);
            }
            out
        }
    };
    (ts, vals)
}

/// The value threshold `T` such that `v > T` keeps about `selectivity` of
/// a shape's points — analytic, so it does not depend on the seed.
pub fn threshold(shape: Shape, selectivity: f64, n: usize, period: u64) -> i64 {
    match shape {
        // Values are the clock: uniform over [0, n·TICK].
        Shape::Clock => ((1.0 - selectivity) * n as f64 * TICK as f64) as i64,
        // The wave is uniform over [-amp, amp]; noise is small beside it.
        _ => ((1.0 - 2.0 * selectivity) * wave_amp(period) as f64) as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Reference value of splitmix64 seeded with 0 (first output).
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn series_are_deterministic_per_seed() {
        for shape in [
            Shape::Clock,
            Shape::Sensor { noise: 32 },
            Shape::Spiky,
            Shape::Runs,
        ] {
            let a = series(shape, 5000, 4096, &SplitMix64::new(42));
            let b = series(shape, 5000, 4096, &SplitMix64::new(42));
            let c = series(shape, 5000, 4096, &SplitMix64::new(43));
            assert_eq!(a, b, "{shape:?}");
            assert_ne!(a.1, c.1, "{shape:?}");
            assert!(a.0.windows(2).all(|w| w[0] < w[1]), "clock must increase");
        }
    }

    #[test]
    fn fork_is_independent_of_sibling_draws() {
        let base = SplitMix64::new(9);
        let mut a = base.fork(1);
        let mut b = base.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
        assert_eq!(
            base.fork(1).next_u64(),
            SplitMix64::new(9).fork(1).next_u64()
        );
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            let v = r.range(-3, 4);
            assert!((-3..=4).contains(&v));
        }
    }

    #[test]
    fn pages_sit_inside_epoch_aligned_buckets() {
        let mut rng = SplitMix64::new(5);
        let page = 256u64;
        for k in 0..50u64 {
            let first = clock_at(k * page, &mut rng);
            let last = clock_at(k * page + page - 1, &mut rng);
            let lo = (k * page) as i64 * TICK;
            assert!(first >= lo && last < lo + page as i64 * TICK);
        }
    }

    #[test]
    fn thresholds_hit_their_selectivity() {
        let n = 65_536;
        let (_, vals) = series(Shape::Sensor { noise: 32 }, n, 16_384, &SplitMix64::new(3));
        for sel in [0.5, 0.05] {
            let t = threshold(Shape::Sensor { noise: 32 }, sel, n, 16_384);
            let got = vals.iter().filter(|&&v| v > t).count() as f64 / n as f64;
            assert!((got - sel).abs() < 0.01, "sel {sel}: got {got}");
        }
    }
}
