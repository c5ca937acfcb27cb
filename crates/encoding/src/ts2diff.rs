//! TS2DIFF: delta (order 1) or delta-of-delta (order 2) encoding with
//! min-base subtraction and bit-packing — the widely applied IoT format
//! the paper's running example uses (Figure 1(b)).
//!
//! Page layout (all multi-byte integers big-endian):
//!
//! ```text
//! u8  order (1 or 2)
//! u32 count
//! i64 first[order]          // the first `min(order, count)` raw values
//! i64 min_delta             // the paper's `base`
//! u8  width                 // packing width ω of (delta − base)
//! u8[] payload              // (count − order) packed deltas, byte-aligned
//! ```
//!
//! The stored value for element `i` is `d_i − min_delta ≥ 0` packed in
//! `width` bits, where `d_i` is the order-`order` difference. Decoding is
//! `v_i = v_{i−1} + base + stored_i` (order 1), applied twice for order 2 —
//! exactly the `dec_Delta(Γ_{ω→ω'}(s) + base)` expression of Example 3.

use crate::bitio::{bits_needed_u64, BitReader, BitWriter};
use crate::{Error, Result};

/// Parsed TS2DIFF page metadata: everything the vectorized pipeline needs
/// to unpack and fuse without touching the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ts2DiffPage<'a> {
    /// Delta order (1 or 2).
    pub order: u8,
    /// Total number of encoded values.
    pub count: usize,
    /// The first `order` raw values (second slot unused for order 1).
    pub first: [i64; 2],
    /// The paper's `base`: minimum delta subtracted before packing.
    pub min_delta: i64,
    /// Packing width ω in bits (0 when all deltas equal `min_delta`).
    pub width: u8,
    /// Packed delta payload (starts byte-aligned).
    pub payload: &'a [u8],
}

impl<'a> Ts2DiffPage<'a> {
    /// Number of packed deltas in the payload.
    pub fn num_deltas(&self) -> usize {
        self.count.saturating_sub(self.order as usize)
    }

    /// Upper bound of any delta, derived from the packing width — the
    /// `D_M ≤ minBase + 2^ω − 1` statistic of Proposition 4/5.
    pub fn delta_upper_bound(&self) -> i64 {
        if self.width >= 64 {
            return i64::MAX;
        }
        self.min_delta
            .saturating_add(((1u128 << self.width) - 1).min(i64::MAX as u128) as i64)
    }

    /// Lower bound of any delta (`D_m ≥ minBase`).
    pub fn delta_lower_bound(&self) -> i64 {
        self.min_delta
    }
}

/// Encodes `values` with delta order 1 or 2.
///
/// ```
/// // The paper's Figure 1(b) velocity series.
/// let bytes = etsqp_encoding::ts2diff::encode(&[12, 76, 142, 205], 1);
/// let page = etsqp_encoding::ts2diff::parse(&bytes).unwrap();
/// assert_eq!(page.min_delta, 63);     // the "base"
/// assert_eq!(page.width, 2);          // 2-bit packed deltas
/// assert_eq!(etsqp_encoding::ts2diff::decode(&bytes).unwrap(),
///            vec![12, 76, 142, 205]);
/// ```
///
/// # Panics
/// If `order` is not 1 or 2.
pub fn encode(values: &[i64], order: u8) -> Vec<u8> {
    encode_with_width(values, order, 0)
}

/// Like [`encode`], but packs deltas with at least `min_width` bits —
/// the paper's Figure 12(e-f) sweeps the packing width while the data
/// stays unvaried, which widens `D_M = minBase + 2^ω − 1` and weakens
/// the pruning bounds.
///
/// # Panics
/// If `order` is not 1 or 2, or `min_width` is too small for the data
/// (narrower than the required width it is simply ignored).
#[allow(clippy::needless_range_loop)] // first[i] mirrors the format spec
pub fn encode_with_width(values: &[i64], order: u8, min_width: u8) -> Vec<u8> {
    assert!(order == 1 || order == 2, "TS2DIFF order must be 1 or 2");
    assert!(min_width <= 64);
    let count = values.len();
    let o = order as usize;
    // Compute order-`order` differences (wrapping, mod 2^64 semantics).
    let mut deltas: Vec<i64> = Vec::with_capacity(count.saturating_sub(o));
    if count > o {
        match order {
            1 => {
                for w in values.windows(2) {
                    deltas.push(w[1].wrapping_sub(w[0]));
                }
            }
            _ => {
                let mut prev_d = values[1].wrapping_sub(values[0]);
                for w in values[1..].windows(2) {
                    let d = w[1].wrapping_sub(w[0]);
                    deltas.push(d.wrapping_sub(prev_d));
                    prev_d = d;
                }
            }
        }
    }
    let min_delta = deltas.iter().copied().min().unwrap_or(0);
    let width = deltas
        .iter()
        .map(|&d| bits_needed_u64(d.wrapping_sub(min_delta) as u64))
        .max()
        .unwrap_or(0)
        .max(if deltas.is_empty() { 0 } else { min_width });
    let mut w = BitWriter::with_capacity_bits(8 * (23 + o * 8) + deltas.len() * width as usize);
    w.write_bits(order as u64, 8);
    w.write_bits(count as u64, 32);
    for i in 0..o.min(count) {
        w.write_bits(values[i] as u64, 64);
    }
    // Pad the first-value slots so the header size is order-determined.
    for _ in count..o {
        w.write_bits(0, 64);
    }
    w.write_bits(min_delta as u64, 64);
    w.write_bits(width as u64, 8);
    for &d in &deltas {
        w.write_bits(d.wrapping_sub(min_delta) as u64, width);
    }
    w.finish()
}

/// Parses the page header, returning borrowed metadata and payload.
pub fn parse(bytes: &[u8]) -> Result<Ts2DiffPage<'_>> {
    let mut r = BitReader::new(bytes);
    let order =
        r.read_bits(8)
            .ok_or_else(|| Error::corrupt_at_bit("ts2diff", r.bit_pos(), "header"))? as u8;
    if order != 1 && order != 2 {
        return Err(Error::corrupt_at_bit("ts2diff", r.bit_pos(), "order"));
    }
    let count = r
        .read_bits(32)
        .ok_or_else(|| Error::corrupt_at_bit("ts2diff", r.bit_pos(), "count"))?
        as usize;
    if count > crate::MAX_PAGE_COUNT {
        return Err(Error::corrupt_at_bit(
            "ts2diff",
            r.bit_pos(),
            "count exceeds page cap",
        ));
    }
    let mut first = [0i64; 2];
    for f in first.iter_mut().take(order as usize) {
        *f = r
            .read_bits(64)
            .ok_or_else(|| Error::corrupt_at_bit("ts2diff", r.bit_pos(), "first"))?
            as i64;
    }
    let min_delta =
        r.read_bits(64)
            .ok_or_else(|| Error::corrupt_at_bit("ts2diff", r.bit_pos(), "base"))? as i64;
    let width =
        r.read_bits(8)
            .ok_or_else(|| Error::corrupt_at_bit("ts2diff", r.bit_pos(), "width"))? as u8;
    if width > 64 {
        return Err(Error::BadWidth(width));
    }
    let header_bytes = r.bit_pos() / 8;
    let payload = &bytes[header_bytes..];
    let num_deltas = count.saturating_sub(order as usize);
    let need_bits = num_deltas * width as usize;
    if payload.len() * 8 < need_bits {
        return Err(Error::BadCount {
            declared: count as u64,
            available: if width == 0 {
                0
            } else {
                (payload.len() * 8 / width as usize) as u64
            },
        });
    }
    Ok(Ts2DiffPage {
        order,
        count,
        first,
        min_delta,
        width,
        payload,
    })
}

/// Decodes a page back to raw values (serial reference decoder — the
/// vectorized path lives in `etsqp-core`).
pub fn decode(bytes: &[u8]) -> Result<Vec<i64>> {
    decode_from_parts(&parse(bytes)?)
}

/// Serial decode of an already-parsed page.
pub fn decode_from_parts(page: &Ts2DiffPage<'_>) -> Result<Vec<i64>> {
    let mut out = Vec::with_capacity(page.count);
    let o = page.order as usize;
    for i in 0..o.min(page.count) {
        out.push(page.first[i]);
    }
    let mut r = BitReader::new(page.payload);
    match page.order {
        1 => {
            let mut prev = page.first[0];
            for _ in 0..page.num_deltas() {
                let stored = r
                    .read_bits(page.width)
                    .ok_or_else(|| Error::corrupt_at_bit("ts2diff", r.bit_pos(), "payload"))?;
                let delta = page.min_delta.wrapping_add(stored as i64);
                prev = prev.wrapping_add(delta);
                out.push(prev);
            }
        }
        _ => {
            let mut prev = page.first[1];
            let mut prev_d = page.first[1].wrapping_sub(page.first[0]);
            for _ in 0..page.num_deltas() {
                let stored = r
                    .read_bits(page.width)
                    .ok_or_else(|| Error::corrupt_at_bit("ts2diff", r.bit_pos(), "payload"))?;
                let dd = page.min_delta.wrapping_add(stored as i64);
                prev_d = prev_d.wrapping_add(dd);
                prev = prev.wrapping_add(prev_d);
                out.push(prev);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure1_example() {
        // Velocity series from Figure 1(b): 12, 76, 142, 205 with base 62.
        let values = vec![12i64, 76, 142, 205];
        let bytes = encode(&values, 1);
        let page = parse(&bytes).unwrap();
        assert_eq!(page.count, 4);
        assert_eq!(page.first[0], 12);
        assert_eq!(page.min_delta, 63); // deltas 64, 66, 63 → base 63
        assert_eq!(page.width, 2); // stored 1, 3, 0
        assert_eq!(decode(&bytes).unwrap(), values);
    }

    #[test]
    fn roundtrip_order1_and_2() {
        let values: Vec<i64> = (0..1000).map(|i| 1000 + i * 3 + (i % 7)).collect();
        for order in [1u8, 2] {
            let bytes = encode(&values, order);
            assert_eq!(decode(&bytes).unwrap(), values, "order {order}");
        }
    }

    #[test]
    fn order2_wins_on_drifting_timestamps() {
        // Linearly drifting interval (delta = 1000 + i): order-1 width is
        // nonzero while order-2 deltas are constant → width 0.
        let ts: Vec<i64> = (0..500i64)
            .map(|i| 1_700_000_000_000 + i * 1000 + i * (i - 1) / 2)
            .collect();
        let b1 = encode(&ts, 1);
        let b2 = encode(&ts, 2);
        assert!(b2.len() < b1.len());
        let page = parse(&b2).unwrap();
        assert_eq!(page.width, 0);
        assert_eq!(decode(&b2).unwrap(), ts);
    }

    #[test]
    fn short_series_edge_cases() {
        for vals in [vec![], vec![42], vec![42, 17], vec![1, 2, 3]] {
            for order in [1u8, 2] {
                let bytes = encode(&vals, order);
                assert_eq!(decode(&bytes).unwrap(), vals, "{vals:?} order {order}");
            }
        }
    }

    #[test]
    fn negative_and_extreme_values() {
        let vals = vec![i64::MIN, 0, i64::MAX, -1, 1, i64::MAX, i64::MIN];
        let bytes = encode(&vals, 1);
        assert_eq!(decode(&bytes).unwrap(), vals);
    }

    #[test]
    fn constant_series_needs_zero_width() {
        let vals = vec![7i64; 300];
        let bytes = encode(&vals, 1);
        let page = parse(&bytes).unwrap();
        assert_eq!(page.width, 0);
        assert_eq!(page.min_delta, 0);
        // 300 values in ~30 bytes of header only.
        assert!(bytes.len() < 40);
        assert_eq!(decode(&bytes).unwrap(), vals);
    }

    #[test]
    fn delta_bounds_from_width() {
        let vals = vec![0i64, 5, 9, 12, 20];
        let bytes = encode(&vals, 1);
        let page = parse(&bytes).unwrap();
        // deltas: 5,4,3,8 → base 3, stored max 5 → width 3 → D_M = 3 + 7.
        assert_eq!(page.delta_lower_bound(), 3);
        assert_eq!(page.delta_upper_bound(), 10);
    }

    #[test]
    fn corrupt_pages_rejected() {
        let bytes = encode(&[1, 2, 3, 4], 1);
        assert!(parse(&bytes[..3]).is_err());
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 1);
        // Removing payload bytes must be detected via the count check.
        let vals: Vec<i64> = (0..100).map(|i| i * 1_000_003).collect();
        let big = encode(&vals, 1);
        assert!(parse(&big[..big.len() - 20]).is_err());
    }
}
