//! # etsqp-encoding — IoT time-series codecs
//!
//! Implements the combined Delta–Repeat–Packing encoder families of the
//! paper's Table I, all writing **big-endian bit streams** with the
//! incremental (buffer-then-flush) behaviour IoT databases need
//! (paper §I, "space efficiency" and "flexibility"):
//!
//! | Codec        | Delta | Repeat     | Packing          |
//! |--------------|-------|------------|------------------|
//! | [`ts2diff`]  | ±/±²  | none       | Bitpack          |
//! | [`rle`]      | —     | Run-length | Bitpack          |
//! | [`delta_rle`]| ±     | Run-length | Bitpack          |
//! | [`sprintz`]  | ±     | none       | ZigZag + Bitpack |
//! | [`stream_vbyte`] | ± | none       | ZigZag + StreamVByte |
//! | [`rlbe`]     | ±     | Run-length | Fibonacci        |
//! | [`gorilla`]  | ±, XOR| flag       | pattern          |
//! | [`chimp`]    | XOR   | none       | pattern          |
//! | [`elf`]      | XOR   | none       | pattern (erase)  |
//! | [`plain`]    | —     | —          | fixed 64-bit     |
//!
//! The integer codecs expose *parsed page metadata* ([`ts2diff::Ts2DiffPage`],
//! [`delta_rle::DeltaRlePage`]) so the ETSQP pipelines can drive the SIMD
//! unpack kernels directly over the packed payload without materializing
//! decoded arrays — the foundation of operator fusion (paper §IV).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitio;
pub mod chimp;
pub mod delta_rle;
pub mod elf;
pub mod fibonacci;
pub mod gorilla;
pub mod plain;
pub mod rlbe;
pub mod rle;
pub mod sprintz;
pub mod stream_vbyte;
pub mod ts2diff;
pub mod zigzag;

/// Errors raised while decoding an encoded page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The byte stream is truncated or structurally invalid.
    Corrupt {
        /// Codec that detected the corruption (e.g. `"gorilla"`).
        codec: &'static str,
        /// Byte offset into the encoded stream at the point of detection.
        offset: usize,
        /// What was wrong at that offset.
        reason: &'static str,
    },
    /// A declared bit width is outside the codec's legal range.
    BadWidth(u8),
    /// The declared element count disagrees with the payload.
    BadCount {
        /// Element count the header declares.
        declared: u64,
        /// Elements the payload can actually hold.
        available: u64,
    },
}

impl Error {
    /// Builds a [`Error::Corrupt`] from a codec name, a *bit* position in
    /// the stream (as tracked by [`bitio::BitReader`]), and a reason.
    pub fn corrupt_at_bit(codec: &'static str, bit_pos: usize, reason: &'static str) -> Self {
        Error::Corrupt {
            codec,
            offset: bit_pos / 8,
            reason,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Corrupt {
                codec,
                offset,
                reason,
            } => write!(f, "corrupt {codec} page at byte {offset}: {reason}"),
            Error::BadWidth(w) => write!(f, "illegal packing width {w}"),
            Error::BadCount {
                declared,
                available,
            } => {
                write!(
                    f,
                    "declared {declared} elements but payload holds {available}"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for decoding operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Upper bound on the element count any single encoded page may declare.
/// Pages are flushed from bounded receive buffers (paper §I), so real
/// pages are far smaller; the cap protects decoders from hostile headers.
pub const MAX_PAGE_COUNT: usize = 1 << 26;

/// Identifies the codec of an encoded column chunk (stored in page
/// headers by `etsqp-storage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Raw 64-bit big-endian values.
    Plain,
    /// First-order delta + bitpacking (IoTDB TS_2DIFF).
    Ts2Diff,
    /// Second-order delta + bitpacking (timestamp-style "two Deltas").
    Ts2DiffOrder2,
    /// Run-length over raw values.
    Rle,
    /// Run-length over deltas (the Delta–Repeat format of paper §IV).
    DeltaRle,
    /// Delta + ZigZag + bitpacking (Sprintz).
    Sprintz,
    /// Delta + ZigZag + byte-aligned Stream VByte (separated control
    /// stream, shuffle-table SIMD decode).
    StreamVByte,
    /// Delta + run-length + Fibonacci packing (RLBE).
    Rlbe,
    /// Gorilla delta-of-delta (timestamps) / XOR (values).
    Gorilla,
    /// Chimp XOR float compression.
    Chimp,
    /// Elf erased-XOR float compression.
    Elf,
    /// Gorilla XOR float compression (the value side of Gorilla).
    GorillaFloat,
}

impl Encoding {
    /// Short lowercase name used in reports and file headers.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Ts2Diff => "ts2diff",
            Encoding::Ts2DiffOrder2 => "ts2diff2",
            Encoding::Rle => "rle",
            Encoding::DeltaRle => "delta_rle",
            Encoding::Sprintz => "sprintz",
            Encoding::Rlbe => "rlbe",
            Encoding::Gorilla => "gorilla",
            Encoding::Chimp => "chimp",
            Encoding::Elf => "elf",
            Encoding::GorillaFloat => "gorilla_f",
            Encoding::StreamVByte => "stream_vbyte",
        }
    }

    /// Stable numeric tag for serialization.
    pub fn tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Ts2Diff => 1,
            Encoding::Ts2DiffOrder2 => 2,
            Encoding::Rle => 3,
            Encoding::DeltaRle => 4,
            Encoding::Sprintz => 5,
            Encoding::Rlbe => 6,
            Encoding::Gorilla => 7,
            Encoding::Chimp => 8,
            Encoding::Elf => 9,
            Encoding::GorillaFloat => 10,
            Encoding::StreamVByte => 11,
        }
    }

    /// Inverse of [`Encoding::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => Encoding::Plain,
            1 => Encoding::Ts2Diff,
            2 => Encoding::Ts2DiffOrder2,
            3 => Encoding::Rle,
            4 => Encoding::DeltaRle,
            5 => Encoding::Sprintz,
            6 => Encoding::Rlbe,
            7 => Encoding::Gorilla,
            8 => Encoding::Chimp,
            9 => Encoding::Elf,
            10 => Encoding::GorillaFloat,
            11 => Encoding::StreamVByte,
            _ => {
                return Err(Error::Corrupt {
                    codec: "header",
                    offset: 0,
                    reason: "unknown encoding tag",
                })
            }
        })
    }

    /// Encodes an integer column with this codec. A float codec takes
    /// the column as ordered keys (the inverse of [`Encoding::decode_i64`]):
    /// it encodes [`ordered_i64_to_f64`] of each with
    /// [`Encoding::encode_f64`], so the bytes are those of the floats.
    pub fn encode_i64(self, values: &[i64]) -> Vec<u8> {
        match self {
            Encoding::Plain => plain::encode(values),
            Encoding::Ts2Diff => ts2diff::encode(values, 1),
            Encoding::Ts2DiffOrder2 => ts2diff::encode(values, 2),
            Encoding::Rle => rle::encode(values),
            Encoding::DeltaRle => delta_rle::encode(values),
            Encoding::Sprintz => sprintz::encode(values),
            Encoding::StreamVByte => stream_vbyte::encode(values),
            Encoding::Rlbe => rlbe::encode(values),
            Encoding::Gorilla => gorilla::encode_i64(values),
            Encoding::Chimp | Encoding::Elf | Encoding::GorillaFloat => {
                let vals: Vec<f64> = values.iter().map(|&k| ordered_i64_to_f64(k)).collect();
                self.encode_f64(&vals)
            }
        }
    }

    /// Whether this codec stores `f64` columns.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            Encoding::Chimp | Encoding::Elf | Encoding::GorillaFloat
        )
    }

    /// Encodes a float column with this codec.
    ///
    /// # Panics
    /// For integer codecs.
    pub fn encode_f64(self, values: &[f64]) -> Vec<u8> {
        match self {
            Encoding::GorillaFloat => gorilla::encode_f64(values),
            Encoding::Chimp => chimp::encode(values),
            Encoding::Elf => elf::encode(values),
            // lint:allow(no-panic-paths) -- encode-side programmer
            // error (documented `# Panics` contract), not a decode path.
            other => panic!("{} is an integer codec; use encode_i64", other.name()),
        }
    }

    /// Decodes a float column encoded with this codec.
    ///
    /// Dispatching an integer codec here returns [`Error::Corrupt`] rather
    /// than panicking: the codec tag comes from an on-disk page header, so
    /// a class mismatch is corrupt input, not a programming error.
    pub fn decode_f64(self, bytes: &[u8]) -> Result<Vec<f64>> {
        match self {
            Encoding::GorillaFloat => gorilla::decode_f64(bytes),
            Encoding::Chimp => chimp::decode(bytes),
            Encoding::Elf => elf::decode(bytes),
            other => Err(Error::Corrupt {
                codec: other.name(),
                offset: 0,
                reason: "integer codec dispatched as float column",
            }),
        }
    }

    /// Decodes a column as integers. A float column read as integers is
    /// its ordered keys: [`Encoding::decode_f64`] mapped through
    /// [`f64_to_ordered_i64`], the order its page headers already keep
    /// min/max in. The mapping is a bijection on bits, so
    /// [`ordered_i64_to_f64`] gives every value back bit-exact.
    pub fn decode_i64(self, bytes: &[u8]) -> Result<Vec<i64>> {
        match self {
            Encoding::Plain => plain::decode(bytes),
            Encoding::Ts2Diff | Encoding::Ts2DiffOrder2 => ts2diff::decode(bytes),
            Encoding::Rle => rle::decode(bytes),
            Encoding::DeltaRle => delta_rle::decode(bytes),
            Encoding::Sprintz => sprintz::decode(bytes),
            Encoding::StreamVByte => stream_vbyte::decode(bytes),
            Encoding::Rlbe => rlbe::decode(bytes),
            Encoding::Gorilla => gorilla::decode_i64(bytes),
            Encoding::Chimp | Encoding::Elf | Encoding::GorillaFloat => {
                let vals = self.decode_f64(bytes)?;
                Ok(vals.into_iter().map(f64_to_ordered_i64).collect())
            }
        }
    }
}

/// Monotone mapping from `f64` to `i64` (IEEE-754 total order trick):
/// preserves `<`, so float min/max statistics live in integer page
/// headers and integer range pruning applies to float columns.
pub fn f64_to_ordered_i64(v: f64) -> i64 {
    let b = v.to_bits() as i64;
    // Negative floats: flip the 63 magnitude bits (arithmetic shift
    // propagates the sign into an all-ones mask, shifted to spare the
    // sign bit). Positives map to themselves.
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Inverse of [`f64_to_ordered_i64`].
pub fn ordered_i64_to_f64(v: i64) -> f64 {
    let b = v ^ (((v >> 63) as u64) >> 1) as i64;
    f64::from_bits(b as u64)
}

pub use zigzag::{decode_zigzag, encode_zigzag};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for enc in [
            Encoding::Plain,
            Encoding::Ts2Diff,
            Encoding::Ts2DiffOrder2,
            Encoding::Rle,
            Encoding::DeltaRle,
            Encoding::Sprintz,
            Encoding::Rlbe,
            Encoding::Gorilla,
            Encoding::StreamVByte,
            Encoding::Chimp,
            Encoding::Elf,
            Encoding::GorillaFloat,
        ] {
            assert_eq!(Encoding::from_tag(enc.tag()).unwrap(), enc);
        }
        assert!(Encoding::from_tag(200).is_err());
    }

    #[test]
    fn all_int_codecs_roundtrip_small_series() {
        let values: Vec<i64> = vec![12, 18, 22, 25, 27, 27, 27, 30, 17, -4, -4, 100];
        for enc in [
            Encoding::Plain,
            Encoding::Ts2Diff,
            Encoding::Ts2DiffOrder2,
            Encoding::Rle,
            Encoding::DeltaRle,
            Encoding::Sprintz,
            Encoding::Rlbe,
            Encoding::Gorilla,
            Encoding::StreamVByte,
        ] {
            let bytes = enc.encode_i64(&values);
            let back = enc
                .decode_i64(&bytes)
                .unwrap_or_else(|e| panic!("{}: {e}", enc.name()));
            assert_eq!(back, values, "codec {}", enc.name());
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = Error::BadCount {
            declared: 10,
            available: 3,
        };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn ordered_f64_mapping_is_monotone_and_invertible() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -3.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.25,
            1e300,
            f64::INFINITY,
        ];
        let mapped: Vec<i64> = vals.iter().map(|&v| f64_to_ordered_i64(v)).collect();
        // Monotone (−0.0 and 0.0 map adjacently but ordered).
        assert!(mapped.windows(2).all(|w| w[0] < w[1]), "{mapped:?}");
        for &v in &vals {
            assert_eq!(
                ordered_i64_to_f64(f64_to_ordered_i64(v)).to_bits(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn float_codec_dispatch() {
        let vals = vec![1.5, 2.25, 2.25, -7.0];
        for enc in [Encoding::GorillaFloat, Encoding::Chimp, Encoding::Elf] {
            assert!(enc.is_float());
            let bytes = enc.encode_f64(&vals);
            let back = enc.decode_f64(&bytes).unwrap();
            assert_eq!(back.len(), vals.len());
            for (a, b) in back.iter().zip(&vals) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", enc.name());
            }
            // Read as integers, a float column is its ordered keys.
            let keys = enc.decode_i64(&bytes).unwrap();
            let want: Vec<i64> = vals.iter().map(|&v| f64_to_ordered_i64(v)).collect();
            assert_eq!(keys, want, "{}", enc.name());
            let cut = &bytes[..1];
            assert_eq!(enc.decode_i64(cut).err(), enc.decode_f64(cut).err());
        }
        assert!(!Encoding::Ts2Diff.is_float());
    }
}
