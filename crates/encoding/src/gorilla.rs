//! Gorilla encoding (Pelkonen et al., VLDB'15): delta-of-delta with
//! variable-length prefix buckets for integers/timestamps, and
//! leading/trailing-zero XOR compression for floats — the `±, XOR / Flag /
//! Pattern` row of Table I. The single `0` bit for a zero delta-of-delta
//! is the "Flag" repeat encoder.
//!
//! The integer side decodes through one body, [`IntValues`]: a resumable
//! iterator that keeps the unread stream in a register-resident window
//! and classifies each code by a table on its leading four bits, so the
//! dependent chain from one value to the next is window → table → shift,
//! with no load of the stream on it (what bounds bit-serial decoders:
//! Lemire & Boytsov). [`decode_i64`] collects it; the engine's fold
//! cursor fills stack blocks from it and never builds the column.

use crate::bitio::{BitReader, BitWriter};
use crate::{Error, Result};

// ---------------------------------------------------------------------------
// Integer (timestamp) side: delta-of-delta with prefix buckets.
// ---------------------------------------------------------------------------

/// Encodes integers with Gorilla delta-of-delta prefix codes.
///
/// Layout: `u32 count`, `i64 first`, `i64 second_delta_base`(first delta,
/// varint-free raw 64), then per value a bucket-coded delta-of-delta:
/// `0` → 0; `10` + 7 bits → [−63, 64]; `110` + 9 bits → [−255, 256];
/// `1110` + 12 bits → [−2047, 2048]; `1111` + 64 bits otherwise.
pub fn encode_i64(values: &[i64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(values.len() as u64, 32);
    if values.is_empty() {
        return w.finish();
    }
    w.write_bits(values[0] as u64, 64);
    if values.len() == 1 {
        return w.finish();
    }
    let first_delta = values[1].wrapping_sub(values[0]);
    w.write_bits(first_delta as u64, 64);
    let mut prev_delta = first_delta;
    for pair in values[1..].windows(2) {
        let delta = pair[1].wrapping_sub(pair[0]);
        let dod = delta.wrapping_sub(prev_delta);
        prev_delta = delta;
        if dod == 0 {
            w.write_bit(false);
        } else if (-63..=64).contains(&dod) {
            w.write_bits(0b10, 2);
            w.write_bits((dod + 63) as u64, 7);
        } else if (-255..=256).contains(&dod) {
            w.write_bits(0b110, 3);
            w.write_bits((dod + 255) as u64, 9);
        } else if (-2047..=2048).contains(&dod) {
            w.write_bits(0b1110, 4);
            w.write_bits((dod + 2047) as u64, 12);
        } else {
            w.write_bits(0b1111, 4);
            w.write_bits(dod as u64, 64);
        }
    }
    w.finish()
}

/// One delta-of-delta bucket: `prefix` flag bits, then `payload` bits
/// holding `dod + bias`.
#[derive(Clone, Copy)]
struct Bucket {
    prefix: u8,
    payload: u8,
    /// `prefix + payload`, the bits the code takes.
    used: u8,
    bias: i16,
}

/// The bucket by the next four stream bits: `0xxx`, `10xx`, `110x`,
/// `1110`, and the 64-bit escape `1111`.
const BUCKETS: [Bucket; 16] = {
    const fn b(prefix: u8, payload: u8, bias: i16) -> Bucket {
        Bucket {
            prefix,
            payload,
            used: prefix + payload,
            bias,
        }
    }
    let (zero, b7, b9, b12, esc) = (
        b(1, 0, 0),
        b(2, 7, 63),
        b(3, 9, 255),
        b(4, 12, 2047),
        b(4, 64, 0),
    );
    [
        zero, zero, zero, zero, zero, zero, zero, zero, b7, b7, b7, b7, b9, b9, b12, esc,
    ]
};

/// Resumable decoder of an [`encode_i64`] stream, one value per
/// [`Iterator::next`]; [`decode_i64`] is this collected.
///
/// The stream is read through a register-resident window: `have` unread
/// bits sit left-aligned in `window`, a refill is one unaligned 8-byte
/// load, and a value is a table lookup on the window's top four bits plus
/// two shifts — the position never goes through memory between values.
/// Only the 64-bit escape and the end of the stream leave that path.
#[derive(Debug, Clone)]
pub struct IntValues<'a> {
    src: &'a [u8],
    /// Next byte of `src` the window has not taken.
    at: usize,
    window: u64,
    have: u32,
    /// Declared values, and how many of them are still to come.
    count: usize,
    left: usize,
    cur: i64,
    delta: i64,
}

/// Parses the header of an [`encode_i64`] stream (count, first value,
/// first delta) and returns the iterator over its values.
pub fn values_i64(bytes: &[u8]) -> Result<IntValues<'_>> {
    let mut r = BitReader::new(bytes);
    let count = r
        .read_bits(32)
        .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "count"))?
        as usize;
    if count > crate::MAX_PAGE_COUNT {
        return Err(Error::corrupt_at_bit(
            "gorilla",
            r.bit_pos(),
            "count exceeds page cap",
        ));
    }
    // Every decoded element consumes at least one payload bit, so a count
    // beyond the remaining bit budget is unsatisfiable — reject before
    // anyone allocates `count` slots (hostile headers must not drive OOM).
    if count > r.remaining_bits().max(1) {
        return Err(Error::BadCount {
            declared: count as u64,
            available: r.remaining_bits() as u64,
        });
    }
    // The header carries value 0 when there is one, the first delta when
    // there are two.
    let mut head = |what, present: bool| {
        if !present {
            return Ok(0);
        }
        r.read_bits(64)
            .map(|v| v as i64)
            .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), what))
    };
    let first = head("first", count > 0)?;
    let delta = head("delta0", count > 1)?;
    let mut values = IntValues {
        src: bytes,
        at: 0,
        window: 0,
        have: 0,
        count,
        left: count,
        // Values 0 and 1 are the header's: two steps of a zero
        // delta-of-delta from one `delta` before `first`.
        cur: first.wrapping_sub(delta),
        delta,
    };
    values.seek(r.bit_pos());
    Ok(values)
}

impl IntValues<'_> {
    fn bit_pos(&self) -> usize {
        self.at * 8 - self.have as usize
    }

    /// Tops the window up to at least 56 bits, or to the end of the
    /// stream. Bits below `have` may already hold the stream's next bits
    /// (a load brings in 64 and only whole bytes are counted); the next
    /// refill lays the same bits over them.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.src.get(self.at..).and_then(|s| s.first_chunk::<8>()) {
            self.window |= u64::from_be_bytes(*word) >> self.have;
            self.at += ((63 - self.have) / 8) as usize;
            self.have |= 56;
        } else {
            while self.have <= 56 && self.at < self.src.len() {
                self.window |= (self.src[self.at] as u64) << (56 - self.have);
                self.at += 1;
                self.have += 8;
            }
        }
    }

    #[inline]
    fn seek(&mut self, bit_pos: usize) {
        (self.at, self.window, self.have) = (bit_pos / 8, 0, 0);
        self.refill();
        let skip = (bit_pos % 8) as u32;
        self.window <<= skip;
        self.have = self.have.saturating_sub(skip);
    }

    #[inline]
    fn next_dod(&mut self) -> Result<i64> {
        if self.have < 16 {
            self.refill();
        }
        let b = BUCKETS[(self.window >> 60) as usize];
        let used = b.used as u32;
        if used > self.have {
            // Nothing below takes `&mut self`: the iterator's state can
            // live in registers across the loop that drives it.
            let (dod, resume) = escape_or_short(self.src, self.bit_pos(), self.have, b)?;
            self.seek(resume);
            return Ok(dod);
        }
        // `>> 1 >> (63 − payload)`: a zero-bit payload shifts everything out.
        let stored = (self.window << b.prefix >> 1) >> (63 - b.payload);
        self.window <<= used;
        self.have -= used;
        Ok(stored as i64 - b.bias as i64)
    }

    /// Decodes the next `out.len()` values into `out` — fewer when the
    /// stream ends first — and returns how many.
    pub fn fill(&mut self, out: &mut [i64]) -> Result<usize> {
        // Through a copy, so that the window and the delta chain stay in
        // registers for the length of the block.
        let mut values = self.clone();
        let mut n = 0;
        for (slot, v) in out.iter_mut().zip(&mut values) {
            *slot = v?;
            n += 1;
        }
        *self = values;
        Ok(n)
    }
}

/// The code at bit `pos` of `src` when the window (`have` bits left of
/// the stream, or a 68-bit escape) does not hold it: the value and the
/// bit to resume at, or the error the bit-serial decoder stopped with —
/// a missing flag bit is `dod`, a short payload names its bucket.
#[cold]
fn escape_or_short(src: &[u8], pos: usize, have: u32, b: Bucket) -> Result<(i64, usize)> {
    if (b.prefix as u32) > have {
        return Err(Error::corrupt_at_bit("gorilla", pos + have as usize, "dod"));
    }
    let at = pos + b.prefix as usize;
    let what = match b.payload {
        7 => "dod7",
        9 => "dod9",
        12 => "dod12",
        _ => "dod64",
    };
    let mut r = BitReader::at(src, at);
    let stored = r
        .read_bits(b.payload)
        .ok_or_else(|| Error::corrupt_at_bit("gorilla", at, what))?;
    Ok((stored as i64 - b.bias as i64, r.bit_pos()))
}

impl Iterator for IntValues<'_> {
    type Item = Result<i64>;

    #[inline]
    fn next(&mut self) -> Option<Result<i64>> {
        if self.left == 0 {
            return None;
        }
        let dod = if self.count - self.left < 2 {
            0
        } else {
            match self.next_dod() {
                Ok(dod) => dod,
                Err(e) => {
                    // A stream that failed has no later values.
                    self.left = 0;
                    return Some(Err(e));
                }
            }
        };
        self.left -= 1;
        self.delta = self.delta.wrapping_add(dod);
        self.cur = self.cur.wrapping_add(self.delta);
        Some(Ok(self.cur))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for IntValues<'_> {}

/// Decodes a stream produced by [`encode_i64`].
pub fn decode_i64(bytes: &[u8]) -> Result<Vec<i64>> {
    let mut values = values_i64(bytes)?;
    let mut out = vec![0; values.len()];
    let n = values.fill(&mut out)?;
    debug_assert_eq!(n, out.len(), "the iterator yields its count or an error");
    Ok(out)
}

// ---------------------------------------------------------------------------
// Float (value) side: XOR with leading/trailing-zero windows.
// ---------------------------------------------------------------------------

/// Encodes floats with Gorilla XOR compression.
///
/// Per value: `0` → identical to previous; `10` → XOR fits the previous
/// leading/trailing window (write meaningful bits); `11` → new window
/// (5 bits leading count, 6 bits meaningful length, then the bits).
pub fn encode_f64(values: &[f64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(values.len() as u64, 32);
    if values.is_empty() {
        return w.finish();
    }
    let mut prev = values[0].to_bits();
    w.write_bits(prev, 64);
    let mut prev_lead = 65u32; // forces a new window on first non-zero XOR
    let mut prev_trail = 0u32;
    for &v in &values[1..] {
        let bits = v.to_bits();
        let xor = bits ^ prev;
        prev = bits;
        if xor == 0 {
            w.write_bit(false);
            continue;
        }
        w.write_bit(true);
        let lead = xor.leading_zeros().min(31);
        let trail = xor.trailing_zeros();
        if prev_lead <= lead && prev_trail <= trail {
            // Fits the previous window.
            w.write_bit(false);
            let meaningful = 64 - prev_lead - prev_trail;
            w.write_bits(xor >> prev_trail, meaningful as u8);
        } else {
            w.write_bit(true);
            let meaningful = 64 - lead - trail;
            w.write_bits(lead as u64, 5);
            // Store meaningful-1 in 6 bits (meaningful ∈ 1..=64).
            w.write_bits((meaningful - 1) as u64, 6);
            w.write_bits(xor >> trail, meaningful as u8);
            prev_lead = lead;
            prev_trail = trail;
        }
    }
    w.finish()
}

/// Decodes a stream produced by [`encode_f64`].
pub fn decode_f64(bytes: &[u8]) -> Result<Vec<f64>> {
    let mut r = BitReader::new(bytes);
    let count = r
        .read_bits(32)
        .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "f count"))?
        as usize;
    if count > crate::MAX_PAGE_COUNT {
        return Err(Error::corrupt_at_bit(
            "gorilla",
            r.bit_pos(),
            "count exceeds page cap",
        ));
    }
    if count > r.remaining_bits().max(1) {
        return Err(Error::BadCount {
            declared: count as u64,
            available: r.remaining_bits() as u64,
        });
    }
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return Ok(out);
    }
    let mut prev = r
        .read_bits(64)
        .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "f first"))?;
    out.push(f64::from_bits(prev));
    let mut lead = 0u32;
    let mut trail = 0u32;
    for _ in 1..count {
        if !r
            .read_bit()
            .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "f flag"))?
        {
            out.push(f64::from_bits(prev));
            continue;
        }
        if r.read_bit()
            .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "f flag2"))?
        {
            lead = r
                .read_bits(5)
                .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "f lead"))?
                as u32;
            let meaningful = r
                .read_bits(6)
                .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "f len"))?
                as u32
                + 1;
            // A valid window has lead + meaningful ≤ 64; a hostile stream
            // can declare up to 31 + 64 and underflow the trail count.
            if lead + meaningful > 64 {
                return Err(Error::corrupt_at_bit(
                    "gorilla",
                    r.bit_pos(),
                    "f window exceeds 64 bits",
                ));
            }
            trail = 64 - lead - meaningful;
        }
        let meaningful = 64 - lead - trail;
        let xor = r
            .read_bits(meaningful as u8)
            .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "f bits"))?
            << trail;
        prev ^= xor;
        out.push(f64::from_bits(prev));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip_regular_timestamps() {
        let ts: Vec<i64> = (0..2000).map(|i| 1_600_000_000_000 + i * 500).collect();
        let bytes = encode_i64(&ts);
        assert_eq!(decode_i64(&bytes).unwrap(), ts);
        // Regular cadence → ~1 bit per point after the header.
        assert!(bytes.len() < 20 + ts.len() / 4);
    }

    #[test]
    fn int_roundtrip_jittery() {
        let ts: Vec<i64> = (0..500)
            .scan(0i64, |acc, i| {
                *acc += 1000 + (i % 37) - 18;
                Some(*acc)
            })
            .collect();
        assert_eq!(decode_i64(&encode_i64(&ts)).unwrap(), ts);
    }

    #[test]
    fn int_roundtrip_extremes() {
        let vals = vec![i64::MIN, i64::MAX, 0, -5, 5, i64::MAX];
        assert_eq!(decode_i64(&encode_i64(&vals)).unwrap(), vals);
    }

    #[test]
    fn int_edge_counts() {
        for vals in [vec![], vec![7], vec![7, 9]] {
            assert_eq!(decode_i64(&encode_i64(&vals)).unwrap(), vals);
        }
    }

    /// The bit-serial decoder [`IntValues`] replaced, one `read_bit` per
    /// flag: the reference for values, error kinds and error offsets.
    fn decode_bit_serial(bytes: &[u8]) -> Result<Vec<i64>> {
        let mut r = BitReader::new(bytes);
        let count = r
            .read_bits(32)
            .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "count"))?
            as usize;
        if count > crate::MAX_PAGE_COUNT {
            return Err(Error::corrupt_at_bit(
                "gorilla",
                r.bit_pos(),
                "count exceeds page cap",
            ));
        }
        // Every decoded element consumes at least one payload bit, so a count
        // beyond the remaining bit budget is unsatisfiable — reject before
        // allocating `count` slots (hostile headers must not drive OOM).
        if count > r.remaining_bits().max(1) {
            return Err(Error::BadCount {
                declared: count as u64,
                available: r.remaining_bits() as u64,
            });
        }
        let mut out = Vec::with_capacity(count);
        if count == 0 {
            return Ok(out);
        }
        let first = r
            .read_bits(64)
            .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "first"))?
            as i64;
        out.push(first);
        if count == 1 {
            return Ok(out);
        }
        let mut delta = r
            .read_bits(64)
            .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "delta0"))?
            as i64;
        let mut cur = first.wrapping_add(delta);
        out.push(cur);
        for _ in 2..count {
            let dod = if !r
                .read_bit()
                .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "dod"))?
            {
                0
            } else if !r
                .read_bit()
                .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "dod"))?
            {
                r.read_bits(7)
                    .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "dod7"))?
                    as i64
                    - 63
            } else if !r
                .read_bit()
                .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "dod"))?
            {
                r.read_bits(9)
                    .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "dod9"))?
                    as i64
                    - 255
            } else if !r
                .read_bit()
                .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "dod"))?
            {
                r.read_bits(12)
                    .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "dod12"))?
                    as i64
                    - 2047
            } else {
                r.read_bits(64)
                    .ok_or_else(|| Error::corrupt_at_bit("gorilla", r.bit_pos(), "dod64"))?
                    as i64
            };
            delta = delta.wrapping_add(dod);
            cur = cur.wrapping_add(delta);
            out.push(cur);
        }
        Ok(out)
    }

    /// Streams that take every path of the windowed reader: the five
    /// buckets alone and mixed, the escape back to back, and the header
    /// shapes.
    fn int_vectors() -> Vec<Vec<i64>> {
        let mixed: Vec<i64> = (0..900i64)
            .scan((0i64, 0i64), |(v, d), i| {
                *d += [0, 1, -40, 200, -1500, 1 << 40, 0, 0, 64, -63][(i % 10) as usize];
                *v = v.wrapping_add(*d);
                Some(*v)
            })
            .collect();
        vec![
            vec![],
            vec![7],
            vec![7, 9],
            (0..2000).map(|i| 1_600_000_000_000 + i * 500).collect(), // all-zero dod
            (0..300)
                .map(|i| if i % 2 == 0 { i64::MIN } else { i64::MAX })
                .collect(), // all escape
            (0..700).map(|i| (i * i) % 97 + (i % 5) * 3).collect(),
            (0..700).map(|i| (i * 7919) % 4001 - 2000).collect(),
            vec![i64::MIN, i64::MAX, 0, -5, 5, i64::MAX],
            mixed,
        ]
    }

    fn assert_same_as_bit_serial(bytes: &[u8], what: &str) {
        let want = decode_bit_serial(bytes);
        assert_eq!(decode_i64(bytes), want, "{what}");
        // The iterator hands out the same values one at a time, ends in
        // the same error, and never yields more than the header declares.
        if let Ok(it) = values_i64(bytes) {
            let declared = it.len();
            let got: Vec<Result<i64>> = it.collect();
            assert!(got.len() <= declared.max(1), "{what}");
            assert_eq!(
                got.into_iter().collect::<Result<Vec<i64>>>(),
                want,
                "{what}"
            );
        }
    }

    #[test]
    fn windowed_reader_equals_the_bit_serial_decoder() {
        for vals in int_vectors() {
            let bytes = encode_i64(&vals);
            assert_eq!(decode_i64(&bytes).unwrap(), vals);
            assert_same_as_bit_serial(&bytes, "whole stream");
        }
    }

    #[test]
    fn stream_cut_at_any_bit_errs_like_the_bit_serial_decoder() {
        for vals in int_vectors() {
            let bytes = encode_i64(&vals);
            for cut in 0..bytes.len() * 8 {
                // Everything from bit `cut` on is gone; the cut byte keeps
                // its leading bits.
                let mut short = bytes[..cut.div_ceil(8)].to_vec();
                if cut % 8 != 0 {
                    *short.last_mut().unwrap() &= 0xFFu8 << (8 - cut % 8);
                }
                assert_same_as_bit_serial(&short, &format!("{} values, cut at {cut}", vals.len()));
                if cut % 8 == 0 {
                    assert!(decode_i64(&short).is_err(), "cut at byte {}", cut / 8);
                }
            }
        }
    }

    #[test]
    fn float_roundtrip_sensor_like() {
        let vals: Vec<f64> = (0..800)
            .map(|i| 20.0 + (i as f64 * 0.01).sin() * 2.0)
            .collect();
        let bytes = encode_f64(&vals);
        let back = decode_f64(&bytes).unwrap();
        assert_eq!(back.len(), vals.len());
        for (a, b) in back.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn float_roundtrip_repeats_and_specials() {
        let vals = vec![
            1.5,
            1.5,
            1.5,
            -0.0,
            0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            std::f64::consts::PI,
            std::f64::consts::PI,
        ];
        let back = decode_f64(&encode_f64(&vals)).unwrap();
        for (a, b) in back.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn float_empty_single() {
        assert!(decode_f64(&encode_f64(&[])).unwrap().is_empty());
        let one = decode_f64(&encode_f64(&[2.25])).unwrap();
        assert_eq!(one, vec![2.25]);
    }
}
