//! Stream VByte encoding: first-order delta → ZigZag → byte-aligned
//! variable-length packing with a *separated* control stream
//! (Lemire, Kurz & Rupp, "Stream VByte: Faster Byte-Oriented Integer
//! Compression").
//!
//! Unlike the bit-packed codecs in this crate, the payload is two
//! byte streams, so a SIMD decoder can process four values per
//! `pshufb` by looking the control byte up in a 256-entry shuffle
//! table (the tables live in `etsqp-simd::tables`):
//!
//! ```text
//! u32 count               // big-endian, total decoded elements
//! i64 first               // big-endian, first raw value
//! u8  mode                // 0 = quad stream, 1 = wide fallback
//! u8[] controls           // mode 0: ceil((count−1)/4) control bytes
//! u8[] data               // mode 0: 1–4 little-endian bytes per delta
//!                         // mode 1: count × 8 big-endian raw values
//! ```
//!
//! Each control byte holds four 2-bit length codes, value `k` of the
//! quad at bits `2k` (LSB-first, the canonical Stream VByte order);
//! code `c` means the ZigZag'd delta occupies `c + 1` **little-endian**
//! bytes in the data stream. Little-endian is deliberate — it is what
//! makes the shuffle-table decode a single byte permutation — and is
//! confined to the data stream; headers stay big-endian like every
//! other codec here.
//!
//! Mode 1 is the encoder-chosen fallback when any ZigZag'd delta
//! exceeds `u32::MAX` (Stream VByte is a 32-bit format): the payload
//! is then the raw values, eight big-endian bytes each.

use crate::bitio::{BitReader, BitWriter};
use crate::zigzag::{decode_zigzag, encode_zigzag};
use crate::{Error, Result};

/// Byte length of the fixed header (`count`, `first`, `mode`).
pub const HEADER_BYTES: usize = 4 + 8 + 1;

/// Parsed Stream VByte page metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SvbPage<'a> {
    /// Total decoded element count.
    pub count: usize,
    /// First raw value.
    pub first: i64,
    /// Payload layout: 0 = control/data quad streams, 1 = wide fallback.
    pub mode: u8,
    /// Control bytes (mode 0; empty in mode 1).
    pub controls: &'a [u8],
    /// Data stream (ZigZag'd delta bytes in mode 0, raw values in mode 1).
    pub data: &'a [u8],
    /// Exact bytes of `data` the declared deltas consume (mode 0).
    pub data_len: usize,
    /// Upper bound on `|Σ deltas|` for any prefix, derived from the
    /// control stream alone: `Σ 2^(8·len_k − 1)`. Sound against hostile
    /// streams because a `len_k`-byte ZigZag value cannot exceed
    /// `2^(8·len_k)`, so the decoded delta magnitude is ≤ `2^(8·len_k − 1)`.
    pub rel_bound: u128,
}

impl SvbPage<'_> {
    /// Number of stored deltas (count − 1, saturating).
    pub fn num_deltas(&self) -> usize {
        self.count.saturating_sub(1)
    }
}

/// Encodes `values` with delta + ZigZag + Stream VByte packing.
pub fn encode(values: &[i64]) -> Vec<u8> {
    let deltas: Vec<u64> = values
        .windows(2)
        .map(|w| encode_zigzag(w[1].wrapping_sub(w[0])))
        .collect();
    let wide = deltas.iter().any(|&z| z > u32::MAX as u64);
    let mut w = BitWriter::with_capacity_bits((HEADER_BYTES + values.len() * 5) * 8);
    w.write_bits(values.len() as u64, 32);
    w.write_bits(values.first().copied().unwrap_or(0) as u64, 64);
    w.write_bits(wide as u64, 8);
    let mut out = w.finish();
    if wide {
        for &v in values {
            out.extend_from_slice(&(v as u64).to_be_bytes());
        }
        return out;
    }
    // Control stream first (its length is derivable from count alone),
    // then the data stream.
    let ctrl_at = out.len();
    out.resize(ctrl_at + deltas.len().div_ceil(4), 0);
    let mut data = Vec::with_capacity(deltas.len() * 2);
    for (k, &z) in deltas.iter().enumerate() {
        let bytes = z.to_le_bytes();
        let len = if z < 1 << 8 {
            1
        } else if z < 1 << 16 {
            2
        } else if z < 1 << 24 {
            3
        } else {
            4
        };
        data.extend_from_slice(&bytes[..len]);
        out[ctrl_at + k / 4] |= ((len - 1) as u8) << (2 * (k % 4));
    }
    out.extend_from_slice(&data);
    out
}

/// `(data bytes, Σ 2^(8·len − 1))` over the first `codes` 2-bit length
/// codes of control byte `c` — what those codes add to
/// [`SvbPage::data_len`] and [`SvbPage::rel_bound`].
const fn codes_summary(c: u8, codes: usize) -> (u8, u64) {
    let (mut len_sum, mut bound) = (0u8, 0u64);
    let mut k = 0;
    while k < codes {
        let len = ((c >> (2 * k)) & 3) + 1;
        len_sum += len;
        bound += 1u64 << (8 * len - 1);
        k += 1;
    }
    (len_sum, bound)
}

/// [`codes_summary`] of all four codes, per control byte.
const QUAD_SUMMARY: [(u8, u64); 256] = {
    let mut table = [(0u8, 0u64); 256];
    let mut c = 0;
    while c < 256 {
        table[c] = codes_summary(c as u8, 4);
        c += 1;
    }
    table
};

/// Parses the page header and splits the control/data streams,
/// validating that the data stream holds every declared delta.
pub fn parse(bytes: &[u8]) -> Result<SvbPage<'_>> {
    let mut r = BitReader::new(bytes);
    let count = r
        .read_bits(32)
        .ok_or_else(|| Error::corrupt_at_bit("stream_vbyte", r.bit_pos(), "count"))?
        as usize;
    if count > crate::MAX_PAGE_COUNT {
        return Err(Error::corrupt_at_bit(
            "stream_vbyte",
            r.bit_pos(),
            "count exceeds page cap",
        ));
    }
    let first = r
        .read_bits(64)
        .ok_or_else(|| Error::corrupt_at_bit("stream_vbyte", r.bit_pos(), "first"))?
        as i64;
    let mode = r
        .read_bits(8)
        .ok_or_else(|| Error::corrupt_at_bit("stream_vbyte", r.bit_pos(), "mode"))?
        as u8;
    if mode > 1 {
        return Err(Error::corrupt_at_bit(
            "stream_vbyte",
            r.bit_pos(),
            "unknown payload mode",
        ));
    }
    let rest = &bytes[HEADER_BYTES..];
    if mode == 1 {
        if rest.len() < count * 8 {
            return Err(Error::corrupt_at_bit(
                "stream_vbyte",
                HEADER_BYTES * 8,
                "wide payload truncated",
            ));
        }
        return Ok(SvbPage {
            count,
            first,
            mode,
            controls: &[],
            data: rest,
            data_len: count * 8,
            rel_bound: 0,
        });
    }
    let n_deltas = count.saturating_sub(1);
    let n_ctrl = n_deltas.div_ceil(4);
    if rest.len() < n_ctrl {
        return Err(Error::corrupt_at_bit(
            "stream_vbyte",
            HEADER_BYTES * 8,
            "control stream truncated",
        ));
    }
    let (controls, data) = rest.split_at(n_ctrl);
    // One pass over the control stream yields the exact data length and
    // the prefix-sum magnitude bound the SIMD fast path gates on: a table
    // lookup per full control byte, the per-code sum for the codes a
    // trailing partial byte actually declares.
    let (full, partial) = controls.split_at(n_deltas / 4);
    let (mut data_len, mut rel_bound) = (0usize, 0u128);
    for &c in full {
        let (len, bound) = QUAD_SUMMARY[c as usize];
        data_len += len as usize;
        rel_bound += bound as u128;
    }
    for &c in partial {
        let (len, bound) = codes_summary(c, n_deltas % 4);
        data_len += len as usize;
        rel_bound += bound as u128;
    }
    if data.len() < data_len {
        return Err(Error::corrupt_at_bit(
            "stream_vbyte",
            (HEADER_BYTES + n_ctrl) * 8,
            "data stream truncated",
        ));
    }
    Ok(SvbPage {
        count,
        first,
        mode,
        controls,
        data,
        data_len,
        rel_bound,
    })
}

/// Serial reference decoder.
pub fn decode(bytes: &[u8]) -> Result<Vec<i64>> {
    let page = parse(bytes)?;
    decode_from_parts(&page)
}

/// Serial decode of an already-parsed page (the scalar twin of the
/// shuffle-table SIMD path in `etsqp-core::decode`).
pub fn decode_from_parts(page: &SvbPage<'_>) -> Result<Vec<i64>> {
    if page.count == 0 {
        return Ok(Vec::new());
    }
    let mut out = Vec::with_capacity(page.count);
    if page.mode == 1 {
        for chunk in page.data[..page.count * 8].chunks_exact(8) {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            out.push(i64::from_be_bytes(b));
        }
        return Ok(out);
    }
    out.push(page.first);
    let mut cur = page.first;
    let mut pos = 0usize;
    for k in 0..page.num_deltas() {
        let len = ((page.controls[k / 4] >> (2 * (k % 4))) & 3) as usize + 1;
        // parse() checked `data_len`, so the slice is in bounds.
        let mut b = [0u8; 4];
        b[..len].copy_from_slice(&page.data[pos..pos + len]);
        pos += len;
        cur = cur.wrapping_add(decode_zigzag(u32::from_le_bytes(b) as u64));
        out.push(cur);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_magnitudes() {
        // Deltas spanning all four byte-length classes.
        let mut vals = vec![1_000_000i64];
        for (i, step) in [1i64, -200, 70_000, -9_000_000, 3, 0, 2_000_000_000]
            .iter()
            .cycle()
            .take(300)
            .enumerate()
        {
            vals.push(vals[i] + step);
        }
        let bytes = encode(&vals);
        let page = parse(&bytes).unwrap();
        assert_eq!(page.mode, 0);
        assert_eq!(decode(&bytes).unwrap(), vals);
    }

    #[test]
    fn roundtrip_extremes_uses_wide_mode() {
        let vals = vec![0i64, i64::MAX, i64::MIN, -1, 1];
        let bytes = encode(&vals);
        assert_eq!(parse(&bytes).unwrap().mode, 1);
        assert_eq!(decode(&bytes).unwrap(), vals);
    }

    #[test]
    fn empty_single_and_pair() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<i64>::new());
        assert_eq!(decode(&encode(&[-9])).unwrap(), vec![-9]);
        assert_eq!(decode(&encode(&[5, 7])).unwrap(), vec![5, 7]);
    }

    #[test]
    fn control_stream_is_separated_and_exact() {
        let vals: Vec<i64> = (0..17i64).map(|i| i * 100).collect(); // 16 deltas
        let bytes = encode(&vals);
        let page = parse(&bytes).unwrap();
        assert_eq!(page.controls.len(), 4);
        // delta 100 → zigzag 200 → 1 byte each (all length codes 0).
        assert_eq!(page.data_len, 16);
        assert_eq!(page.controls[0], 0);
    }

    #[test]
    fn truncations_are_rejected() {
        let vals: Vec<i64> = (0..100i64).map(|i| i * 3000).collect();
        let bytes = encode(&vals);
        for cut in [bytes.len() - 1, HEADER_BYTES + 3, HEADER_BYTES, 7, 0] {
            assert!(parse(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn hostile_controls_do_not_overread() {
        // Claim 4-byte deltas everywhere but supply a short data stream.
        let vals: Vec<i64> = (0..40i64).collect();
        let mut bytes = encode(&vals);
        for c in &mut bytes[HEADER_BYTES..HEADER_BYTES + 10] {
            *c = 0xff;
        }
        assert!(parse(&bytes).is_err());
    }

    #[test]
    fn control_summary_matches_per_code_definition() {
        // `data_len` and `rel_bound` gate the SIMD path against hostile
        // pages: the table-driven pass must give exactly what summing
        // code by code gives, for every control byte and every delta
        // count modulo 4 (the trailing byte's unused codes are ignored).
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for n_deltas in (0..=41usize).chain([255, 256, 1023]) {
            for fill in [Some(0x00u8), Some(0xFF), Some(0xE4), None] {
                let controls: Vec<u8> = (0..n_deltas.div_ceil(4))
                    .map(|_| {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        fill.unwrap_or((seed >> 56) as u8)
                    })
                    .collect();
                let (mut data_len, mut rel_bound) = (0usize, 0u128);
                for k in 0..n_deltas {
                    let len = ((controls[k / 4] >> (2 * (k % 4))) & 3) as usize + 1;
                    data_len += len;
                    rel_bound += 1u128 << (8 * len - 1);
                }
                let mut bytes = vec![0u8; HEADER_BYTES];
                bytes[..4].copy_from_slice(&((n_deltas + 1) as u32).to_be_bytes());
                bytes.extend_from_slice(&controls);
                bytes.resize(bytes.len() + data_len, 0xAB);
                let page = parse(&bytes).unwrap();
                assert_eq!(
                    (page.data_len, page.rel_bound),
                    (data_len, rel_bound),
                    "n_deltas={n_deltas} fill={fill:?}"
                );
                // One byte short of the declared data is still rejected.
                if data_len > 0 {
                    assert!(parse(&bytes[..bytes.len() - 1]).is_err());
                }
            }
        }
        for c in 0..=255u8 {
            assert_eq!(QUAD_SUMMARY[c as usize], codes_summary(c, 4));
        }
    }

    #[test]
    fn rel_bound_is_conservative() {
        let vals: Vec<i64> = (0..1000i64).map(|i| i * 7).collect();
        let page_bytes = encode(&vals);
        let page = parse(&page_bytes).unwrap();
        // 999 one-byte deltas → bound 999 · 2^7.
        assert_eq!(page.rel_bound, 999 * 128);
        assert!(page.rel_bound >= (vals[999] - vals[0]).unsigned_abs() as u128);
    }
}
