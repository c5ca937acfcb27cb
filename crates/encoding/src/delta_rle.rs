//! Delta–Repeat encoding: run-length over first-order deltas — the input
//! format of the paper's operator-fusion section (§IV), where aggregates
//! are computed from `(Δ, run)` pairs without decoding single values.
//!
//! Page layout (big-endian):
//!
//! ```text
//! u32 count
//! i64 first
//! u32 n_pairs
//! i64 min_delta
//! u8  delta_width
//! u8  run_width
//! u8[] payload            // n_pairs × (delta − min, run), byte-aligned
//! ```
//!
//! Semantics: after `first`, each pair `(Δ, r)` contributes `r` values,
//! each incrementing the running value by `Δ`, so
//! `count = 1 + Σ r` (0 for the empty page).

use crate::bitio::{bits_needed_u64, BitReader, BitWriter};
use crate::{Error, Result};

/// Parsed Delta-RLE page metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRlePage<'a> {
    /// Total decoded element count.
    pub count: usize,
    /// First raw value.
    pub first: i64,
    /// Number of `(Δ, run)` pairs.
    pub n_pairs: usize,
    /// Minimum delta (`base`).
    pub min_delta: i64,
    /// Packing width of deltas.
    pub delta_width: u8,
    /// Packing width of run lengths.
    pub run_width: u8,
    /// Packed payload.
    pub payload: &'a [u8],
}

impl<'a> DeltaRlePage<'a> {
    /// `D_M` bound of Propositions 4–5.
    pub fn delta_upper_bound(&self) -> i64 {
        if self.delta_width >= 64 {
            return i64::MAX;
        }
        self.min_delta
            .saturating_add(((1u128 << self.delta_width) - 1).min(i64::MAX as u128) as i64)
    }

    /// `D_m` bound of Propositions 4–5.
    pub fn delta_lower_bound(&self) -> i64 {
        self.min_delta
    }

    /// `R_M` bound of Proposition 4.
    pub fn run_upper_bound(&self) -> u64 {
        if self.run_width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.run_width) - 1
        }
    }

    /// Iterates the `(Δ, run)` pairs held against the declared count:
    /// what [`decode`] flattens, and what a consumer that stays in run
    /// space must walk to fail where `decode` fails. An empty page has no
    /// runs, whatever its pairs say.
    pub fn runs(&self) -> CheckedRuns<'a> {
        let mut pairs = self.pairs();
        if self.count == 0 {
            pairs.remaining = 0;
        }
        CheckedRuns {
            pairs,
            count: self.count,
            left: self.count.saturating_sub(1),
            stream_len: HEADER_BYTES + self.payload.len(),
        }
    }

    /// Iterates the `(Δ, run)` pairs.
    pub fn pairs(&self) -> DeltaRleIter<'a> {
        DeltaRleIter {
            reader: BitReader::new(self.payload),
            remaining: self.n_pairs,
            min_delta: self.min_delta,
            delta_width: self.delta_width,
            run_width: self.run_width,
        }
    }
}

/// Iterator over `(Δ, run)` pairs of a Delta-RLE page.
#[derive(Debug, Clone)]
pub struct DeltaRleIter<'a> {
    reader: BitReader<'a>,
    remaining: usize,
    min_delta: i64,
    delta_width: u8,
    run_width: u8,
}

impl Iterator for DeltaRleIter<'_> {
    type Item = (i64, u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let stored = self.reader.read_bits(self.delta_width)?;
        let run = self.reader.read_bits(self.run_width)?;
        Some((self.min_delta.wrapping_add(stored as i64), run))
    }
}

/// Bytes of the page header ahead of the packed pairs.
const HEADER_BYTES: usize = 4 + 8 + 4 + 8 + 1 + 1;

/// The pairs of a page, each run checked against what is left of the
/// declared count (`count = 1 + Σ run`); see [`DeltaRlePage::runs`].
#[derive(Debug, Clone)]
pub struct CheckedRuns<'a> {
    pairs: DeltaRleIter<'a>,
    count: usize,
    /// Values the runs still owe the declared count.
    left: usize,
    stream_len: usize,
}

impl Iterator for CheckedRuns<'_> {
    type Item = Result<(i64, usize)>;

    fn next(&mut self) -> Option<Self::Item> {
        let Some((delta, run)) = self.pairs.next() else {
            // The pairs are through: they must have covered the count.
            let short = std::mem::take(&mut self.left);
            return (short > 0).then(|| {
                Err(Error::BadCount {
                    declared: self.count as u64,
                    available: (self.count - short) as u64,
                })
            });
        };
        if run > self.left as u64 {
            self.pairs.remaining = 0;
            self.left = 0;
            return Some(Err(Error::Corrupt {
                codec: "delta_rle",
                offset: self.stream_len,
                reason: "run overflows declared count",
            }));
        }
        self.left -= run as usize;
        Some(Ok((delta, run as usize)))
    }
}

/// Encodes `values` as a first value plus run-length-compressed deltas.
pub fn encode(values: &[i64]) -> Vec<u8> {
    let mut pairs: Vec<(i64, u64)> = Vec::new();
    for w in values.windows(2) {
        let d = w[1].wrapping_sub(w[0]);
        match pairs.last_mut() {
            Some((delta, run)) if *delta == d => *run += 1,
            _ => pairs.push((d, 1)),
        }
    }
    let min_delta = pairs.iter().map(|&(d, _)| d).min().unwrap_or(0);
    let delta_width = pairs
        .iter()
        .map(|&(d, _)| bits_needed_u64(d.wrapping_sub(min_delta) as u64))
        .max()
        .unwrap_or(0);
    let run_width = pairs
        .iter()
        .map(|&(_, r)| bits_needed_u64(r))
        .max()
        .unwrap_or(0);
    let mut w = BitWriter::new();
    w.write_bits(values.len() as u64, 32);
    w.write_bits(values.first().copied().unwrap_or(0) as u64, 64);
    w.write_bits(pairs.len() as u64, 32);
    w.write_bits(min_delta as u64, 64);
    w.write_bits(delta_width as u64, 8);
    w.write_bits(run_width as u64, 8);
    for &(d, r) in &pairs {
        w.write_bits(d.wrapping_sub(min_delta) as u64, delta_width);
        w.write_bits(r, run_width);
    }
    w.finish()
}

/// Parses the page header.
pub fn parse(bytes: &[u8]) -> Result<DeltaRlePage<'_>> {
    let mut r = BitReader::new(bytes);
    let count = r
        .read_bits(32)
        .ok_or_else(|| Error::corrupt_at_bit("delta_rle", r.bit_pos(), "count"))?
        as usize;
    let first = r
        .read_bits(64)
        .ok_or_else(|| Error::corrupt_at_bit("delta_rle", r.bit_pos(), "first"))?
        as i64;
    let n_pairs = r
        .read_bits(32)
        .ok_or_else(|| Error::corrupt_at_bit("delta_rle", r.bit_pos(), "pairs"))?
        as usize;
    if count > crate::MAX_PAGE_COUNT || n_pairs > count.max(1) {
        return Err(Error::corrupt_at_bit(
            "delta_rle",
            r.bit_pos(),
            "counts exceed page cap",
        ));
    }
    let min_delta =
        r.read_bits(64)
            .ok_or_else(|| Error::corrupt_at_bit("delta_rle", r.bit_pos(), "base"))? as i64;
    let delta_width =
        r.read_bits(8)
            .ok_or_else(|| Error::corrupt_at_bit("delta_rle", r.bit_pos(), "dw"))? as u8;
    let run_width =
        r.read_bits(8)
            .ok_or_else(|| Error::corrupt_at_bit("delta_rle", r.bit_pos(), "rw"))? as u8;
    if delta_width > 64 || run_width > 64 {
        return Err(Error::BadWidth(delta_width.max(run_width)));
    }
    let payload = &bytes[r.bit_pos() / 8..];
    let need_bits = n_pairs * (delta_width as usize + run_width as usize);
    if payload.len() * 8 < need_bits {
        return Err(Error::corrupt_at_bit(
            "delta_rle",
            r.bit_pos(),
            "payload truncated",
        ));
    }
    Ok(DeltaRlePage {
        count,
        first,
        n_pairs,
        min_delta,
        delta_width,
        run_width,
        payload,
    })
}

/// Serial reference decoder.
pub fn decode(bytes: &[u8]) -> Result<Vec<i64>> {
    let page = parse(bytes)?;
    if page.count == 0 {
        return Ok(Vec::new());
    }
    // Cap the prealloc: runs expand, so `count` is not payload-bounded.
    let mut out = Vec::with_capacity(page.count.min(1 << 16));
    out.push(page.first);
    let mut cur = page.first;
    for pair in page.runs() {
        let (delta, run) = pair?;
        for _ in 0..run {
            cur = cur.wrapping_add(delta);
            out.push(cur);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_ramp_compresses_to_one_pair() {
        let vals: Vec<i64> = (0..1000).map(|i| 100 + i * 5).collect();
        let bytes = encode(&vals);
        let page = parse(&bytes).unwrap();
        assert_eq!(page.n_pairs, 1);
        assert!(bytes.len() < 40);
        assert_eq!(decode(&bytes).unwrap(), vals);
    }

    #[test]
    fn roundtrip_mixed_slopes() {
        let mut vals = Vec::new();
        let mut v = 0i64;
        for (slope, len) in [(3i64, 50usize), (-2, 30), (0, 100), (7, 1)] {
            for _ in 0..len {
                v += slope;
                vals.push(v);
            }
        }
        let bytes = encode(&vals);
        let page = parse(&bytes).unwrap();
        assert_eq!(page.n_pairs, 4);
        assert_eq!(decode(&bytes).unwrap(), vals);
    }

    #[test]
    fn empty_single_double() {
        for vals in [vec![], vec![5], vec![5, 9]] {
            assert_eq!(decode(&encode(&vals)).unwrap(), vals, "{vals:?}");
        }
    }

    #[test]
    fn bounds_from_widths() {
        let vals = vec![0i64, 2, 4, 6, 13, 20]; // deltas 2,2,2,7,7 → pairs (2,3),(7,2)
        let page_bytes = encode(&vals);
        let page = parse(&page_bytes).unwrap();
        assert_eq!(page.n_pairs, 2);
        assert_eq!(page.delta_lower_bound(), 2);
        // stored max = 5 → width 3 → D_M = 2 + 7 = 9.
        assert_eq!(page.delta_upper_bound(), 9);
        assert_eq!(page.run_upper_bound(), 3); // max run 3 → width 2
    }

    /// Pairs that disagree with the declared count: the checked walk
    /// names the fault `decode` always named, at the same offset.
    #[test]
    fn runs_are_held_to_the_declared_count() {
        let vals: Vec<i64> = (0..40).map(|i| i / 10).collect();
        let bytes = encode(&vals);
        let recount = |count: u32| {
            let mut b = bytes.clone();
            b[..4].copy_from_slice(&count.to_be_bytes());
            b
        };
        let long = recount(60);
        assert_eq!(
            decode(&long),
            Err(Error::BadCount {
                declared: 60,
                available: 40
            })
        );
        let short = recount(30);
        assert_eq!(
            decode(&short),
            Err(Error::Corrupt {
                codec: "delta_rle",
                offset: short.len(),
                reason: "run overflows declared count"
            })
        );
        // An error ends the walk.
        let page = parse(&short).unwrap();
        let mut runs = page.runs();
        assert!(runs.by_ref().any(|r| r.is_err()));
        assert!(runs.next().is_none());
        // An empty page has no runs, whatever its one allowed pair says.
        let mut ramp = encode(&[5, 6, 7, 8]);
        ramp[..4].copy_from_slice(&0u32.to_be_bytes());
        let page = parse(&ramp).unwrap();
        assert_eq!((page.n_pairs, page.runs().count()), (1, 0));
        assert_eq!(decode(&ramp), Ok(Vec::new()));
    }

    #[test]
    fn pairs_iterator_matches_decode() {
        let vals: Vec<i64> = vec![10, 13, 16, 19, 18, 17, 17, 17];
        let bytes = encode(&vals);
        let page = parse(&bytes).unwrap();
        let mut rebuilt = vec![page.first];
        let mut cur = page.first;
        for (d, r) in page.pairs() {
            for _ in 0..r {
                cur += d;
                rebuilt.push(cur);
            }
        }
        assert_eq!(rebuilt, vals);
    }
}
