//! Big-endian bit-stream writer and reader.
//!
//! IoT databases flush encoded pages MSB-first ("Big-Endian" in the
//! paper's Figure 1(b)); every codec in this crate serializes through
//! these two types, and the SIMD unpack kernels of `etsqp-simd` consume
//! the same byte order.
//!
//! A read is one unaligned 8-byte big-endian load and two shifts (plus
//! the ninth byte for a field that runs past the word), whatever the
//! width; only inside the last eight bytes of a stream, where there is
//! no whole word to load, does the byte loop of
//! `etsqp_simd::scalar::read_bits_be` still run. Delta-RLE pairs, RLBE,
//! Fibonacci, Chimp, Elf and every header parse read through it.

/// Append-only big-endian bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits already used in the last byte (0..8; 0 means byte-aligned).
    used: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with reserved capacity for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits.div_ceil(8)),
            used: 0,
        }
    }

    /// Total number of bits written so far.
    pub fn len_bits(&self) -> usize {
        if self.used == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.used as usize
        }
    }

    /// Writes the low `n` bits of `v`, MSB first. `n` may be 0..=64.
    pub fn write_bits(&mut self, v: u64, n: u8) {
        debug_assert!(n <= 64);
        let mut left = n;
        while left > 0 {
            if self.used == 0 {
                self.buf.push(0);
                // `used` counts bits consumed in the freshly pushed byte.
            }
            let free = 8 - self.used;
            let take = free.min(left);
            let chunk = if left >= 64 {
                v // take the whole value (left == n == 64, take <= 8 below)
            } else {
                v & ((1u64 << left) - 1)
            };
            let shifted = (chunk >> (left - take)) as u8 & ((1u16 << take) - 1) as u8;
            // The buffer is never empty here: `used == 0` pushed a byte
            // above, and `used > 0` implies a partially filled last byte.
            if let Some(last) = self.buf.last_mut() {
                *last |= shifted << (free - take);
            }
            self.used = (self.used + take) % 8;
            left -= take;
        }
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Pads with zero bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        self.used = 0;
    }

    /// Finishes the stream, returning the bytes (zero-padded to a byte).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrowed view of the bytes written so far (last byte may be partial).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Big-endian bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader at bit position 0.
    pub fn new(src: &'a [u8]) -> Self {
        Self { src, pos: 0 }
    }

    /// Creates a reader at an arbitrary bit position.
    pub fn at(src: &'a [u8], bit_pos: usize) -> Self {
        Self { src, pos: bit_pos }
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Bits remaining in the stream.
    pub fn remaining_bits(&self) -> usize {
        (self.src.len() * 8).saturating_sub(self.pos)
    }

    /// Reads `n` bits (0..=64) MSB-first; `None` when the stream is short.
    ///
    /// One unaligned big-endian word, plus the ninth byte when the field
    /// runs past it. Within eight bytes of the end there is no whole word
    /// to load and the byte loop reads instead.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Option<u64> {
        if n == 0 {
            return Some(0);
        }
        if self.remaining_bits() < n as usize {
            return None;
        }
        let (byte, bit) = (self.pos / 8, self.pos % 8);
        let v = match self.src.get(byte..).and_then(|s| s.first_chunk::<8>()) {
            Some(word) => {
                // Bits before `pos` shifted out at the top, then the
                // field moved down.
                let v = (u64::from_be_bytes(*word) << bit) >> (64 - n as usize);
                match (bit + n as usize).checked_sub(64) {
                    Some(over @ 1..) => v | (self.src[byte + 8] >> (8 - over)) as u64,
                    _ => v,
                }
            }
            None => etsqp_simd::scalar::read_bits_be(self.src, self.pos, n as usize),
        };
        self.pos += n as usize;
        Some(v)
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b == 1)
    }

    /// Skips to the next byte boundary.
    pub fn align_byte(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Advances the cursor by `n` bits.
    pub fn skip_bits(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Minimum number of bits needed to represent `v` (0 needs 0 bits).
pub fn bits_needed_u64(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let items: Vec<(u64, u8)> = vec![
            (1, 1),
            (0b101, 3),
            (0x3FF, 10),
            (0, 7),
            (u64::MAX, 64),
            (0xDEADBEEF, 32),
            (5, 13),
        ];
        for &(v, n) in &items {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &items {
            assert_eq!(r.read_bits(n), Some(v), "width {n}");
        }
    }

    #[test]
    fn write_bits_matches_manual_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11011, 5);
        assert_eq!(w.finish(), vec![0b1011_1011]);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_byte();
        w.write_bits(0xFF, 8);
        assert_eq!(w.finish(), vec![0b1100_0000, 0xFF]);
    }

    #[test]
    fn len_bits_tracks_position() {
        let mut w = BitWriter::new();
        assert_eq!(w.len_bits(), 0);
        w.write_bits(0, 5);
        assert_eq!(w.len_bits(), 5);
        w.write_bits(0, 11);
        assert_eq!(w.len_bits(), 16);
    }

    #[test]
    fn reader_detects_exhaustion() {
        let bytes = [0xAB];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0xAB));
        assert_eq!(r.read_bits(1), None);
        assert_eq!(r.read_bits(0), Some(0));
    }

    /// The word path against the byte loop it replaced: every `pos % 8`,
    /// every width, every distance from the end of the buffer where the
    /// load, the ninth byte and the fallback trade places.
    #[test]
    fn word_reads_equal_the_byte_loop_at_every_alignment_and_tail_distance() {
        let src: Vec<u8> = (0..40u32).map(|i| (i * 151 + 89) as u8).collect();
        for n in 1..=64u8 {
            for bit in 0..8usize {
                for tail in 0..=9usize {
                    // The field's last byte sits `tail` bytes before the end.
                    let field_bytes = (bit + n as usize).div_ceil(8);
                    let Some(byte) = src.len().checked_sub(tail + field_bytes) else {
                        continue;
                    };
                    let pos = byte * 8 + bit;
                    let want = etsqp_simd::scalar::read_bits_be(&src, pos, n as usize);
                    let mut r = BitReader::at(&src, pos);
                    assert_eq!(r.read_bits(n), Some(want), "n={n} bit={bit} tail={tail}");
                    assert_eq!(r.bit_pos(), pos + n as usize);
                }
            }
        }
    }

    #[test]
    fn short_streams_read_none_and_do_not_move() {
        let src = [0xA5u8; 9];
        for pos in 0..=src.len() * 8 + 3 {
            let left = (src.len() * 8).saturating_sub(pos);
            for n in 1..=64u8 {
                let mut r = BitReader::at(&src, pos);
                let got = r.read_bits(n);
                assert_eq!(got.is_some(), n as usize <= left, "pos={pos} n={n}");
                if got.is_none() {
                    assert_eq!(r.bit_pos(), pos);
                }
            }
        }
    }

    #[test]
    fn reader_at_offset() {
        let bytes = [0b1010_1010, 0b0101_0101];
        let mut r = BitReader::at(&bytes, 4);
        assert_eq!(r.read_bits(8), Some(0b1010_0101));
    }

    #[test]
    fn bits_needed() {
        assert_eq!(bits_needed_u64(0), 0);
        assert_eq!(bits_needed_u64(1), 1);
        assert_eq!(bits_needed_u64(255), 8);
        assert_eq!(bits_needed_u64(256), 9);
        assert_eq!(bits_needed_u64(u64::MAX), 64);
    }

    #[test]
    fn write_64_bit_values_at_unaligned_positions() {
        let mut w = BitWriter::new();
        w.write_bits(1, 3);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 5);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(1));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }
}
