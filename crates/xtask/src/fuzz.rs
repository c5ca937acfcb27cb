//! Deterministic mutational fuzzer for the untrusted-input surfaces:
//! every codec decoder, `Page::from_bytes`, `tsfile::read`, the network
//! wire-frame parser (`etsqp_serve::proto` — hostile length prefixes,
//! truncated and oversized frames, bad version bytes, lying
//! result/error payloads),
//! and the fold cursor (`etsqp_core::decode_fold`): `decode_column`
//! (the packed-delta walker's write sink, or the serial fallback) and the
//! cursor's fold over its five codecs — packed deltas, Delta-RLE in run
//! space, Gorilla off the bit window — held against the codec crate's
//! serial decoder over the same column bytes.
//!
//! ```text
//! cargo run -p xtask -- fuzz [--iters N] [--seed S] [--corpus <dir>]
//! ```
//!
//! The harness seeds a corpus from *valid* encodings of varied value
//! shapes, then mutates them (bit flips, byte overwrites, truncation,
//! extension, header splices, fully random buffers) and asserts the
//! tri-state invariant on every decode:
//!
//! 1. **panic-free** — a decoder must never panic on any byte string;
//! 2. `Ok(v)` ⇒ **round-trip**: `decode(encode(v)) == v` (the decoder
//!    accepted the stream, so the values it produced must be
//!    re-encodable losslessly — anything else is silent corruption);
//! 3. otherwise a typed `Err` — fine, that is the contract.
//!
//! A float codec's target also holds `decode_i64` to `decode_f64` mapped
//! to ordered keys: the same values, and the same error where it fails.
//!
//! Violations are greedily minimized and written to the corpus
//! directory (default `tests/corpus/`) so `tests/corruption.rs` replays
//! them forever after. The run is fully deterministic in `--seed`.
//!
//! Exit status: 0 when every iteration upheld the invariant, 1
//! otherwise. The final line is machine-readable
//! (`fuzz OK: <iters> iters, <targets> targets, <secs>s, <execs/sec>
//! execs/sec`), the figure `BENCH_fuzz.json` records.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use etsqp_core::decode::{decode_column, DecodeOptions};
use etsqp_core::decode_fold::FoldCursor;
use etsqp_core::fused::aggregate_delta_rle;
use etsqp_core::plan::Value;
use etsqp_encoding::{f64_to_ordered_i64, Encoding};
use etsqp_serve::proto::{
    self, ErrorCode, FrameDecoder, FrameType, WireResult, DEFAULT_MAX_FRAME_LEN,
};
use etsqp_storage::page::Page;
use etsqp_storage::store::SeriesStore;
use etsqp_storage::tsfile;

/// splitmix64 — tiny, deterministic, no external dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The integer codecs under test.
const INT_CODECS: [Encoding; 9] = [
    Encoding::Plain,
    Encoding::Ts2Diff,
    Encoding::Ts2DiffOrder2,
    Encoding::Rle,
    Encoding::DeltaRle,
    Encoding::Sprintz,
    Encoding::Rlbe,
    Encoding::Gorilla,
    Encoding::StreamVByte,
];

/// The float codecs under test.
const FLOAT_CODECS: [Encoding; 3] = [Encoding::Chimp, Encoding::Elf, Encoding::GorillaFloat];

/// One fuzz target: a name, a seed corpus, and the decode invariant.
enum Target {
    Int(Encoding),
    Float(Encoding),
    PageImage,
    TsFileImage,
    /// The network wire-frame grammar (`etsqp_serve::proto`): the
    /// incremental `FrameDecoder` plus the typed error/result payload
    /// parsers behind it.
    Proto,
    /// `decode_column` (the walker's write sink, or its serial fallback)
    /// and `FoldCursor` (the fold sink) against `Encoding::decode_i64`,
    /// the codec crate's serial decoder, + a value-at-a-time fold: a
    /// [`FOLD_HEAD`]-byte head (codec, flags, filter) followed by the
    /// column bytes of a TS2DIFF / Sprintz / Stream VByte / Delta-RLE /
    /// Gorilla page.
    DecodeFold,
}

/// Bytes of a `decode_fold` input before the column: a selector (codec =
/// [`fold_codec`] of bits 0, 1 and 5, bit 2 suffix pruning, bit 3 `Σv²`,
/// bit 4 pass the column's true value range) and the inclusive filter
/// `[lo, hi]`, big-endian.
const FOLD_HEAD: usize = 17;

/// The codecs the cursor reads; order 2 only ever reaches the write sink.
const FOLD_CODECS: [Encoding; 6] = [
    Encoding::Ts2Diff,
    Encoding::Sprintz,
    Encoding::StreamVByte,
    Encoding::Ts2DiffOrder2,
    Encoding::DeltaRle,
    Encoding::Gorilla,
];

/// The codec a selector byte names: bits 0–1, and bit 5 as the third
/// index bit (heads written when there were four codecs keep theirs).
fn fold_codec(selector: u8) -> Encoding {
    FOLD_CODECS[((selector & 3) | (selector >> 3 & 4)) as usize % FOLD_CODECS.len()]
}

/// The selector bits that name `FOLD_CODECS[index]`.
fn fold_selector(index: usize) -> u8 {
    (index as u8 & 3) | (index as u8 & 4) << 3
}

/// Where a column of `enc` keeps its big-endian `u32` value count: after
/// TS2DIFF's order byte, first for the others.
fn fold_count_offset(enc: Encoding) -> usize {
    usize::from(matches!(enc, Encoding::Ts2Diff | Encoding::Ts2DiffOrder2))
}

/// A `decode_fold` input: head plus column.
fn fold_input(selector: u8, (lo, hi): (i64, i64), column: &[u8]) -> Vec<u8> {
    let mut input = vec![selector];
    input.extend_from_slice(&lo.to_be_bytes());
    input.extend_from_slice(&hi.to_be_bytes());
    input.extend_from_slice(column);
    input
}

/// The `decode_fold` invariant: the codec crate's serial decoder is the
/// reference; `decode_column` must produce its values and the cursor its
/// fold under one filter, or each the same typed error (a column the
/// cursor's gate rejects has no fold to compare). Delta-RLE's gate wants
/// a known range, which a column the decoder refuses does not have, so
/// its walker is also run ungated — `fused::aggregate_delta_rle` — and
/// held to the same errors. Shared with `tests/corruption.rs` by
/// construction: the corpus files carry the head.
fn check_decode_fold(input: &[u8]) -> Result<(), String> {
    let Some((head, column)) = input.split_at_checked(FOLD_HEAD) else {
        return Ok(());
    };
    let enc = fold_codec(head[0]);
    let (prune, sum_sq, ranged) = (head[0] & 4 != 0, head[0] & 8 != 0, head[0] & 16 != 0);
    let be = |b: &[u8]| b.iter().fold(0i64, |acc, &x| (acc << 8) | x as i64);
    let (lo, hi) = (be(&head[1..9]), be(&head[9..17]));

    // A few dozen header bytes can declare 2²⁶ constant values (width 0
    // needs no payload). The codec targets already pay for decoding
    // those; two more decodes and two folds of them add nothing.
    let count_at = fold_count_offset(enc);
    let declared = column
        .get(count_at..count_at + 4)
        .map_or(0, |b| be(b) as u32);
    if declared > 1 << 20 {
        return Ok(());
    }
    let reference = enc
        .decode_i64(column)
        .map_err(|e| etsqp_core::Error::from(e).to_string());
    let range = reference
        .as_ref()
        .ok()
        .filter(|_| ranged)
        .and_then(|v| Some((*v.iter().min()?, *v.iter().max()?)));
    let mut written = Vec::new();
    let opts = DecodeOptions { value_range: range };
    let decoded = decode_column(enc, column, &opts, &mut written)
        .map(|_| written)
        .map_err(|e| e.to_string());
    if decoded != reference {
        let brief = |r: &Result<Vec<i64>, String>| r.as_ref().map(Vec::len).map_err(String::clone);
        return Err(format!(
            "decode_column {:?} (values or error), reference decoder {:?}",
            brief(&decoded),
            brief(&reference)
        ));
    }
    // Count, sum, min, max and Σv² of the values inside `[lo, hi]`.
    let fold = |values: &[i64], (lo, hi): (i64, i64), sum_sq: bool| {
        let mut want = (0u64, 0i128, None::<i64>, None::<i64>, 0i128);
        for &v in values.iter().filter(|&&v| lo <= v && v <= hi) {
            want.0 += 1;
            want.1 += v as i128;
            want.2 = Some(want.2.map_or(v, |m| m.min(v)));
            want.3 = Some(want.3.map_or(v, |m| m.max(v)));
            if sum_sq {
                want.4 = want.4.saturating_add(v as i128 * v as i128);
            }
        }
        want
    };
    if enc == Encoding::DeltaRle {
        let whole = etsqp_encoding::delta_rle::parse(column)
            .map_err(etsqp_core::Error::from)
            .and_then(|page| aggregate_delta_rle(&page))
            .map_err(|e| e.to_string());
        let overflow = etsqp_core::Error::Overflow.to_string();
        match (&whole, &reference) {
            // Deltas that wrapped `i64` at encode time: the decoder's
            // wrapping adds undo them, run space refuses them — before
            // it gets to whatever else the decoder then objects to.
            (Err(a), Err(b)) if a == b || *a == overflow => {}
            (Ok(got), Ok(values)) => {
                // The closed form's Σv² is exact below 2⁴⁷ (the cursor's gate).
                let exact_sq = values.iter().all(|v| v.unsigned_abs() < 1 << 47);
                let want = fold(values, (i64::MIN, i64::MAX), exact_sq);
                let sq = if exact_sq { got.sum_sq } else { 0 };
                if (got.count, got.sum, got.min, got.max, sq) != want
                    || (got.first, got.last) != (values.first().copied(), values.last().copied())
                {
                    return Err(format!("run-space fold {got:?}, decode-then-fold {want:?}"));
                }
            }
            (Err(a), Ok(values))
                if *a == overflow
                    && values
                        .iter()
                        .max()
                        .zip(values.iter().min())
                        .is_some_and(|(mx, mn)| mx.checked_sub(*mn).is_none()) => {}
            _ => {
                return Err(format!(
                    "run-space fold {:?}, reference decoder {:?}",
                    whole.map(|s| s.count),
                    reference.map(|v| v.len())
                ))
            }
        }
    }
    let cursor = FoldCursor::open(enc, column, range, Some((lo, hi)), prune, sum_sq)
        .map_err(|e| e.to_string());
    let folded = match cursor {
        Ok(None) => return Ok(()),
        Ok(Some(mut cursor)) => cursor.fold_range(0, usize::MAX).map_err(|e| e.to_string()),
        Err(e) => Err(e),
    };
    match (folded, reference) {
        (Err(a), Err(b)) if a == b => Ok(()),
        (Err(a), other) => Err(format!(
            "cursor refused ({a}), reference decoder said {:?}",
            other.map(|v| v.len())
        )),
        (Ok(_), Err(b)) => Err(format!(
            "cursor folded a column the reference decoder refused ({b})"
        )),
        (Ok(got), Ok(values)) => {
            // The cursor only opens for Σv² when it cannot overflow (or,
            // for Gorilla, saturates value by value like this fold).
            let want = fold(&values, (lo, hi), sum_sq);
            if (got.count, got.sum, got.min, got.max, got.sum_sq) == want {
                Ok(())
            } else {
                Err(format!("cursor folded {got:?}, decode-then-fold {want:?}"))
            }
        }
    }
}

impl Target {
    fn name(&self) -> String {
        match self {
            Target::Int(e) | Target::Float(e) => e.name().to_string(),
            Target::PageImage => "page".to_string(),
            Target::TsFileImage => "tsfile".to_string(),
            Target::Proto => "proto".to_string(),
            Target::DecodeFold => "decode_fold".to_string(),
        }
    }
}

/// Integer value shapes that exercise different codec branches.
fn int_seed_values(rng: &mut Rng) -> Vec<Vec<i64>> {
    let jitter: Vec<i64> = (0..700)
        .scan(0i64, |acc, _| {
            *acc += 100 + (rng.next() % 41) as i64 - 20;
            Some(*acc)
        })
        .collect();
    let random: Vec<i64> = (0..300).map(|_| rng.next() as i64).collect();
    vec![
        (0..1000i64).map(|i| i * 50).collect(), // regular cadence
        vec![42i64; 500],                       // constant (RLE-friendly)
        jitter,
        random,
        vec![i64::MIN, -1, 0, 1, i64::MAX],
        vec![7],
        vec![],
    ]
}

/// Float value shapes.
fn float_seed_values(rng: &mut Rng) -> Vec<Vec<f64>> {
    let noisy: Vec<f64> = (0..400)
        .map(|i| 20.0 + (i as f64 * 0.01).sin() + (rng.next() % 100) as f64 * 1e-4)
        .collect();
    vec![
        noisy,
        vec![1.5; 300],
        vec![0.0, -0.0, f64::MAX, f64::MIN_POSITIVE, std::f64::consts::PI],
        vec![2.25],
        vec![],
    ]
}

/// A representative result payload (mixed cell tags, two rows) for the
/// proto seeds and corpus.
fn sample_wire_result() -> WireResult {
    WireResult {
        columns: vec!["COUNT(s)".to_string(), "AVG(s)".to_string()],
        rows: vec![
            vec![Value::Int(20_000), Value::Float(499.5)],
            vec![Value::Null, Value::Int(-1)],
        ],
        elapsed_us: 3_808,
    }
}

/// Builds the per-target seed corpora (all *valid* encodings).
fn build_seeds(target: &Target, rng: &mut Rng, scratch: &Path) -> Vec<Vec<u8>> {
    match target {
        Target::Int(enc) => int_seed_values(rng)
            .iter()
            .map(|v| enc.encode_i64(v))
            .collect(),
        Target::Float(enc) => float_seed_values(rng)
            .iter()
            .map(|v| enc.encode_f64(v))
            .collect(),
        Target::PageImage => {
            let mut seeds = Vec::new();
            for (ts_enc, val_enc) in [
                (Encoding::Ts2Diff, Encoding::Ts2Diff),
                (Encoding::Ts2Diff, Encoding::DeltaRle),
                (Encoding::Gorilla, Encoding::Rle),
            ] {
                let ts: Vec<i64> = (0..256i64).map(|i| 1000 + i * 20).collect();
                let vals: Vec<i64> = (0..256i64).map(|i| 60 + (i % 13)).collect();
                if let Ok(p) = Page::encode(&ts, &vals, ts_enc, val_enc) {
                    seeds.push(p.to_bytes());
                }
            }
            let ts: Vec<i64> = (0..128i64).map(|i| i * 5).collect();
            let keys: Vec<i64> = (0..128)
                .map(|i| etsqp_encoding::f64_to_ordered_i64(20.0 + i as f64 * 0.25))
                .collect();
            if let Ok(p) = Page::encode(&ts, &keys, Encoding::Ts2Diff, Encoding::Chimp) {
                seeds.push(p.to_bytes());
            }
            seeds
        }
        Target::Proto => {
            // Valid frames of every type, alone and pipelined, so the
            // mutator attacks version bytes, length prefixes, error
            // codes, column counts, and cell tags from real layouts.
            let mut seeds = vec![
                proto::encode_frame(FrameType::Query, b"SELECT COUNT(s) FROM s"),
                proto::encode_frame(FrameType::Ping, &[]),
                proto::encode_frame(
                    FrameType::Error,
                    &proto::encode_error(ErrorCode::Overloaded, 250, "queue full"),
                ),
                proto::encode_frame(FrameType::Result, &sample_wire_result().encode()),
            ];
            let mut pipelined = proto::encode_frame(FrameType::Ping, &[]);
            pipelined.extend(proto::encode_frame(FrameType::Query, b"SELECT 1"));
            seeds.push(pipelined);
            seeds
        }
        Target::DecodeFold => {
            // Every value shape × codec, with a filter cut from the
            // shape's own values so that some pass and some do not.
            let mut seeds = Vec::new();
            for values in int_seed_values(rng) {
                for (codec, enc) in FOLD_CODECS.iter().enumerate() {
                    let pick = |r: &mut Rng| match values.len() {
                        0 => r.next() as i64,
                        n => values[r.below(n)],
                    };
                    let (a, b) = (pick(rng), pick(rng));
                    seeds.push(fold_input(
                        (rng.next() as u8 & !(3 | 32)) | fold_selector(codec),
                        (a.min(b), a.max(b)),
                        &enc.encode_i64(&values),
                    ));
                }
            }
            seeds
        }
        Target::TsFileImage => {
            let store = SeriesStore::new(128);
            store.create_series("a", Encoding::Ts2Diff, Encoding::Ts2Diff);
            store.create_series("b", Encoding::Gorilla, Encoding::DeltaRle);
            store.create_series_f64("f", Encoding::Ts2Diff, Encoding::Elf);
            for i in 0..500i64 {
                let _ = store.append("a", i * 10, 50 + (i % 7));
                let _ = store.append("b", i * 10, i);
                let _ = store.append_f64("f", i * 10, 20.0 + i as f64 * 0.01);
            }
            for name in ["a", "b", "f"] {
                let _ = store.flush(name);
            }
            let path = scratch.join("seed.etsqp");
            match tsfile::write(&store, &path).and_then(|_| Ok(std::fs::read(&path)?)) {
                Ok(bytes) => vec![bytes],
                Err(_) => Vec::new(),
            }
        }
    }
}

/// Applies one random mutation to `data` in place (may change length).
fn mutate(data: &mut Vec<u8>, rng: &mut Rng) {
    match rng.below(7) {
        // Flip 1..=8 random bits.
        0 => {
            if !data.is_empty() {
                for _ in 0..=rng.below(8) {
                    let i = rng.below(data.len());
                    data[i] ^= 1 << rng.below(8);
                }
            }
        }
        // Overwrite a random byte with a random value.
        1 => {
            if !data.is_empty() {
                let i = rng.below(data.len());
                data[i] = rng.next() as u8;
            }
        }
        // Truncate to a random prefix.
        2 => data.truncate(rng.below(data.len() + 1)),
        // Extend with random garbage.
        3 => {
            for _ in 0..rng.below(32) + 1 {
                data.push(rng.next() as u8);
            }
        }
        // Header splice: blast a hostile 32-bit field into the first
        // 16 bytes (targets count/length fields of every layout).
        4 => {
            if data.len() >= 4 {
                let off = rng.below(data.len().min(16).saturating_sub(3));
                let hostile: u32 = match rng.below(4) {
                    0 => u32::MAX,
                    1 => (1 << 26) + 1, // just past MAX_PAGE_COUNT
                    2 => 1 << 31,
                    _ => rng.next() as u32,
                };
                data[off..off + 4].copy_from_slice(&hostile.to_be_bytes());
            }
        }
        // Copy one region over another (self-splice).
        5 => {
            if data.len() >= 8 {
                let src = rng.below(data.len() - 4);
                let dst = rng.below(data.len() - 4);
                let len = rng.below(4) + 1;
                let tmp: Vec<u8> = data[src..src + len].to_vec();
                data[dst..dst + len].copy_from_slice(&tmp);
            }
        }
        // Replace everything with a fully random short buffer.
        _ => {
            let len = rng.below(64);
            data.clear();
            for _ in 0..len {
                data.push(rng.next() as u8);
            }
        }
    }
}

/// Outcome of driving one input through a target's decode invariant.
enum Verdict {
    /// Invariant upheld (clean decode or typed error).
    Ok,
    /// The invariant broke; the message explains how.
    Violation(String),
}

/// Runs one input through the target, asserting the tri-state invariant.
fn check(target: &Target, input: &[u8], scratch: &Path) -> Verdict {
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        match target {
            Target::Int(enc) => {
                if let Ok(values) = enc.decode_i64(input) {
                    let back = enc
                        .decode_i64(&enc.encode_i64(&values))
                        .map_err(|e| format!("accepted stream fails re-decode: {e}"))?;
                    if back != values {
                        return Err("accepted stream breaks round-trip".into());
                    }
                }
                Ok(())
            }
            Target::Float(enc) => {
                // Read as integers, a float column is its ordered keys,
                // and fails exactly where its float decode fails.
                let keys = enc.decode_i64(input);
                let want = enc
                    .decode_f64(input)
                    .map(|v| v.into_iter().map(f64_to_ordered_i64).collect::<Vec<_>>());
                if keys != want {
                    return Err(format!(
                        "decode_i64 is not the ordered keys of decode_f64: {:?} vs {:?}",
                        keys.as_ref().map(Vec::len),
                        want.as_ref().map(Vec::len)
                    ));
                }
                if let Ok(values) = enc.decode_f64(input) {
                    let back = enc
                        .decode_f64(&enc.encode_f64(&values))
                        .map_err(|e| format!("accepted stream fails re-decode: {e}"))?;
                    let same = back.len() == values.len()
                        && back
                            .iter()
                            .zip(&values)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        return Err("accepted stream breaks round-trip".into());
                    }
                }
                Ok(())
            }
            Target::PageImage => {
                if let Ok((page, _consumed)) = Page::from_bytes(input) {
                    // The checksum trailer accepted the image, so both
                    // column decodes must finish without panicking
                    // (either cleanly or as typed errors); a float page
                    // runs its float decoder.
                    let _ = page.decode();
                }
                Ok(())
            }
            Target::Proto => {
                // Drive the whole input through the incremental decoder.
                // Every complete frame must re-encode to a stream that
                // parses back identically; typed payloads (error,
                // result) must additionally round-trip canonically.
                // A typed `ProtoError` ends the stream — that is the
                // decoder's contract with hostile peers.
                let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
                dec.extend(input);
                while let Ok(Some(frame)) = dec.next_frame() {
                    let bytes = proto::encode_frame(frame.kind, &frame.payload);
                    let mut again = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
                    again.extend(&bytes);
                    match again.next_frame() {
                        Ok(Some(back)) if back == frame => {}
                        other => {
                            return Err(format!("accepted frame breaks round-trip: {other:?}"))
                        }
                    }
                    match frame.kind {
                        FrameType::Error => {
                            if let Ok(e) = proto::decode_error(&frame.payload) {
                                let canon =
                                    proto::encode_error(e.code, e.retry_after_ms, &e.message);
                                let back = proto::decode_error(&canon).map_err(|x| {
                                    format!("accepted error payload fails re-decode: {x}")
                                })?;
                                if back != e {
                                    return Err("accepted error payload breaks round-trip".into());
                                }
                            }
                        }
                        FrameType::Result => {
                            if let Ok(r) = proto::decode_result(&frame.payload) {
                                // Compare canonical bytes, not values:
                                // NaN cells are legal and NaN != NaN.
                                let canon = r.encode();
                                let back = proto::decode_result(&canon).map_err(|x| {
                                    format!("accepted result payload fails re-decode: {x}")
                                })?;
                                if back.encode() != canon {
                                    return Err("accepted result payload breaks round-trip".into());
                                }
                            }
                        }
                        _ => {}
                    }
                }
                Ok(())
            }
            Target::DecodeFold => check_decode_fold(input),
            Target::TsFileImage => {
                let path = scratch.join("fuzz.etsqp");
                if std::fs::write(&path, input).is_err() {
                    return Ok(()); // scratch unavailable — skip, not a decoder bug
                }
                if let Ok(store) = tsfile::read(&path) {
                    for name in store.series_names() {
                        if let Ok(pages) = store.peek_pages(&name) {
                            for page in pages {
                                let _ = page.decode();
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }));
    match outcome {
        Ok(Ok(())) => Verdict::Ok,
        Ok(Err(msg)) => Verdict::Violation(msg),
        Err(_) => Verdict::Violation("decoder panicked".into()),
    }
}

/// Greedily minimizes a violating input: repeatedly try shorter
/// prefixes/suffixes that still violate. Bounded, deterministic.
fn minimize(target: &Target, input: &[u8], scratch: &Path) -> Vec<u8> {
    let mut best = input.to_vec();
    let mut attempts = 0;
    loop {
        let mut improved = false;
        let mut candidates: Vec<Vec<u8>> = Vec::new();
        if best.len() > 1 {
            candidates.push(best[..best.len() / 2].to_vec());
            candidates.push(best[..best.len() - 1].to_vec());
            candidates.push(best[best.len() / 2..].to_vec());
        }
        for cand in candidates {
            attempts += 1;
            if attempts > 256 {
                return best;
            }
            if matches!(check(target, &cand, scratch), Verdict::Violation(_)) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// FNV-1a over the crasher bytes — a stable corpus file name.
fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Writes one deterministic hostile input per target into `dir`, so the
/// committed corpus regression-tests every decoder even on a machine
/// that never runs the fuzzer. Returns the number of files written.
///
/// Patterns, per target:
/// - `__truncated`: a valid encoding cut in half — exercises every
///   "stream ends mid-value" path;
/// - `__hostile_count`: the leading 32-bit count spliced to `u32::MAX`
///   — exercises the header-preflight OOM guards;
/// - `chimp__zero_sig`: the minimized crasher the fuzzer found in the
///   chimp decoder (flag `01` with a zero significant-bit count made
///   `trail` 64 and overflowed the shift) — kept as a regression;
/// - `page__payload_bitflip`: a valid page image with one payload bit
///   flipped — must be rejected by the checksum trailer;
/// - `tsfile__bad_magic` / `tsfile__truncated`: file-level corruption;
/// - `decode_fold__*`: a 17-byte head (codec, flags, filter) plus column
///   bytes for the fold cursor — truncation, a count the payload cannot
///   back, hostile Stream VByte controls, a valid TS2DIFF column whose
///   deltas wrapped `i64` at encode time, valid order-2, width-0,
///   width-32 and partial-control-byte columns, Delta-RLE pairs that run
///   over and short of the declared count and a run stepping by
///   `i64::MIN`, and a run of Gorilla escapes whole and cut mid-payload;
/// - `proto__*`: network wire-frame hostility — a bad version byte, an
///   unknown frame type, a length prefix of `u32::MAX` (must be
///   rejected from the header, never buffered), a truncated header, a
///   result payload whose column count lies, and an error payload with
///   a non-UTF-8 message.
pub fn emit_corpus(dir: &Path) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut written = 0usize;
    let mut emit = |name: String, bytes: &[u8]| -> std::io::Result<()> {
        std::fs::write(dir.join(format!("{name}.bin")), bytes)?;
        written += 1;
        Ok(())
    };

    let ints: Vec<i64> = (0..200i64).map(|i| 1000 + i * 7).collect();
    for enc in INT_CODECS {
        let valid = enc.encode_i64(&ints);
        emit(
            format!("{}__truncated", enc.name()),
            &valid[..valid.len() / 2],
        )?;
        let mut hostile = valid.clone();
        hostile[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        emit(format!("{}__hostile_count", enc.name()), &hostile)?;
    }

    let floats: Vec<f64> = (0..200).map(|i| 20.0 + i as f64 * 0.125).collect();
    for enc in FLOAT_CODECS {
        let valid = enc.encode_f64(&floats);
        emit(
            format!("{}__truncated", enc.name()),
            &valid[..valid.len() / 2],
        )?;
        let mut hostile = valid.clone();
        hostile[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        emit(format!("{}__hostile_count", enc.name()), &hostile)?;
    }

    // Stream VByte hostile control stream: a valid page whose control
    // bytes are all spliced to 0xFF (every delta claims 4 data bytes),
    // so the controls declare far more data than the stream holds — the
    // parser's exact-data-length preflight must reject it, never read
    // past the buffer.
    {
        let valid = Encoding::StreamVByte.encode_i64(&ints);
        let mut hostile = valid.clone();
        let head = etsqp_encoding::stream_vbyte::HEADER_BYTES;
        let n_controls = (ints.len() - 1).div_ceil(4);
        for b in hostile[head..head + n_controls].iter_mut() {
            *b = 0xFF;
        }
        emit("stream_vbyte__hostile_controls".to_string(), &hostile)?;
    }

    // Fuzzer-found chimp crasher, reconstructed bit-exactly: count=2,
    // first value 0.0, then flag 0b01 + lead code 000 + sig 000000.
    // MSB-first: [count:4][first:8][0b01000000, 0b00000000].
    let mut chimp_zero_sig = vec![0u8, 0, 0, 2];
    chimp_zero_sig.extend_from_slice(&[0u8; 8]);
    chimp_zero_sig.extend_from_slice(&[0b0100_0000, 0]);
    emit("chimp__zero_sig".to_string(), &chimp_zero_sig)?;

    let ts: Vec<i64> = (0..256i64).map(|i| 1000 + i * 20).collect();
    let vals: Vec<i64> = (0..256i64).map(|i| 60 + (i % 13)).collect();
    if let Ok(page) = Page::encode(&ts, &vals, Encoding::Ts2Diff, Encoding::DeltaRle) {
        let image = page.to_bytes();
        let mut flipped = image.clone();
        let mid = flipped.len() / 2; // inside a payload chunk
        flipped[mid] ^= 0x10;
        emit("page__payload_bitflip".to_string(), &flipped)?;
        emit("page__truncated".to_string(), &image[..image.len() / 2])?;
    }

    // Network wire-frame hostility. Each is a deterministic byte-level
    // attack on a different validation step of the frame grammar.
    {
        let valid = proto::encode_frame(FrameType::Query, b"SELECT COUNT(s) FROM s");
        emit("proto__truncated_header".to_string(), &valid[..3])?;
        let mut bad_version = valid.clone();
        bad_version[0] = 0xFF;
        emit("proto__bad_version".to_string(), &bad_version)?;
        let mut bad_type = valid.clone();
        bad_type[1] = 0x7F;
        emit("proto__bad_type".to_string(), &bad_type)?;
        let mut oversized = valid.clone();
        oversized[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        emit("proto__oversized_len".to_string(), &oversized)?;

        // A result payload whose column count exceeds what the bytes
        // can hold — the preflight must reject before allocating.
        let mut lying = sample_wire_result().encode();
        lying[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
        emit(
            "proto__result_hostile_ncols".to_string(),
            &proto::encode_frame(FrameType::Result, &lying),
        )?;

        // The fuzzer-found result-payload DoS, reconstructed: zero
        // columns with nrows = u32::MAX. Zero-column rows consume no
        // payload bytes, so the per-row byte preflight bounded nothing
        // and the decode loop span 4 billion iterations faulting in
        // gigabytes. Must stay a typed rejection.
        let mut zero_cols = Vec::new();
        zero_cols.extend_from_slice(&0u64.to_le_bytes()); // elapsed_us
        zero_cols.extend_from_slice(&0u16.to_le_bytes()); // ncols = 0
        zero_cols.extend_from_slice(&u32::MAX.to_le_bytes()); // nrows lie
        emit(
            "proto__result_zero_cols".to_string(),
            &proto::encode_frame(FrameType::Result, &zero_cols),
        )?;

        // An error payload whose message bytes are not UTF-8.
        let mut bad_msg = proto::encode_error(ErrorCode::Timeout, 0, "xx");
        let n = bad_msg.len();
        bad_msg[n - 2..].copy_from_slice(&[0xFF, 0xFE]);
        emit(
            "proto__error_bad_utf8".to_string(),
            &proto::encode_frame(FrameType::Error, &bad_msg),
        )?;
    }

    // Decode-and-fold: a column cut mid-payload, a count the payload
    // cannot back, and control bytes that declare more data than there
    // is must be the decoder's typed error from the cursor too; a valid
    // column alternating between the `i64` limits has small *wrapped*
    // deltas and must be left to the decoder, not folded.
    {
        let band = (1_200, 1_900);
        for (enc, name) in FOLD_CODECS.iter().zip(["ts2diff", "sprintz", "svb"]) {
            let selector = FOLD_CODECS.iter().position(|e| e == enc).unwrap_or(0) as u8 | 4 | 8;
            let valid = enc.encode_i64(&ints);
            emit(
                format!("decode_fold__{name}_truncated"),
                &fold_input(selector, band, &valid[..valid.len() / 2]),
            )?;
            let mut hostile = valid.clone();
            let count_at = fold_count_offset(*enc);
            hostile[count_at..count_at + 4].copy_from_slice(&(1u32 << 20).to_be_bytes());
            emit(
                format!("decode_fold__{name}_hostile_count"),
                &fold_input(selector | 16, band, &hostile),
            )?;
        }
        let mut controls = Encoding::StreamVByte.encode_i64(&ints);
        let head = etsqp_encoding::stream_vbyte::HEADER_BYTES;
        controls[head..head + (ints.len() - 1).div_ceil(4)].fill(0xFF);
        emit(
            "decode_fold__svb_hostile_controls".to_string(),
            &fold_input(2, band, &controls),
        )?;
        let limits: Vec<i64> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    i64::MIN + 7
                } else {
                    i64::MAX - 7
                }
            })
            .collect();
        emit(
            "decode_fold__ts2diff_wrapped_deltas".to_string(),
            &fold_input(0, (0, i64::MAX), &Encoding::Ts2Diff.encode_i64(&limits)),
        )?;
        // Valid columns at the edges of the walker's block step: two
        // prefix passes (order 2, write sink only), no payload at all
        // (width 0), the widest stored delta the 32-bit unpack takes
        // (admitted by the true value range alone), and a Stream VByte
        // page whose last control byte declares fewer than four deltas.
        let curve: Vec<i64> = (0..700i64).map(|i| 90 + i * i / 50 - 3 * i).collect();
        emit(
            "decode_fold__ts2diff_order2".to_string(),
            &fold_input(3 | 16, band, &Encoding::Ts2DiffOrder2.encode_i64(&curve)),
        )?;
        emit(
            "decode_fold__ts2diff_width0".to_string(),
            &fold_input(4, band, &Encoding::Ts2Diff.encode_i64(&ints)),
        )?;
        emit(
            "decode_fold__ts2diff_width32".to_string(),
            &fold_input(
                4 | 8 | 16,
                band,
                &etsqp_encoding::ts2diff::encode_with_width(&curve, 1, 32),
            ),
        )?;
        emit(
            "decode_fold__svb_partial_control".to_string(),
            &fold_input(
                2 | 16,
                band,
                &Encoding::StreamVByte.encode_i64(&curve[..202]),
            ),
        )?;

        // Run space: pairs that cover more and fewer values than the
        // header declares are the decoder's `Corrupt` / `BadCount` from
        // the walker too; a valid column stepping by `i64::MIN` (deltas
        // that wrapped) decodes, and run space refuses it as overflow.
        let (rle, all) = (fold_selector(4), (i64::MIN, i64::MAX));
        let stairs: Vec<i64> = (0..400i64).map(|i| 70 + i / 25 * 3).collect();
        for (name, count) in [("run_overflow", 300u32), ("short_runs", 450)] {
            let mut column = Encoding::DeltaRle.encode_i64(&stairs);
            column[..4].copy_from_slice(&count.to_be_bytes());
            emit(
                format!("decode_fold__delta_rle_{name}"),
                &fold_input(rle | 8 | 16, band, &column),
            )?;
        }
        let flips: Vec<i64> = (0..200).map(|i| (i % 2) * i64::MIN).collect();
        emit(
            "decode_fold__delta_rle_extreme_delta".to_string(),
            &fold_input(rle | 16, all, &Encoding::DeltaRle.encode_i64(&flips)),
        )?;
        // The bit window: a run of 68-bit escapes, which no window holds,
        // whole and cut inside an escape's payload.
        let gorilla = Encoding::Gorilla.encode_i64(&limits);
        emit(
            "decode_fold__gorilla_escape_run".to_string(),
            &fold_input(fold_selector(5) | 8, all, &gorilla),
        )?;
        emit(
            "decode_fold__gorilla_truncated_escape".to_string(),
            &fold_input(fold_selector(5), all, &gorilla[..gorilla.len() - 5]),
        )?;
    }

    let scratch = std::env::temp_dir().join(format!("etsqp-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let mut rng = Rng::new(1);
    let tsfile_seeds = build_seeds(&Target::TsFileImage, &mut rng, &scratch);
    if let Some(image) = tsfile_seeds.first() {
        emit("tsfile__truncated".to_string(), &image[..image.len() / 2])?;
        let mut bad_magic = image.clone();
        for b in bad_magic.iter_mut().take(4) {
            *b = !*b;
        }
        emit("tsfile__bad_magic".to_string(), &bad_magic)?;
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(written)
}

/// Fuzzer configuration parsed by `main.rs`.
pub struct FuzzConfig {
    /// Total mutation iterations across all targets.
    pub iters: u64,
    /// RNG seed; identical seeds reproduce identical runs.
    pub seed: u64,
    /// Where minimized crashers are written.
    pub corpus_dir: PathBuf,
}

/// Runs the fuzzer; returns the number of invariant violations.
pub fn run(cfg: &FuzzConfig) -> u64 {
    let start = Instant::now();
    let scratch = std::env::temp_dir().join(format!("etsqp-fuzz-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&scratch);

    let mut rng = Rng::new(cfg.seed);
    let targets: Vec<Target> = INT_CODECS
        .iter()
        .map(|&e| Target::Int(e))
        .chain(FLOAT_CODECS.iter().map(|&e| Target::Float(e)))
        .chain([
            Target::PageImage,
            Target::TsFileImage,
            Target::Proto,
            Target::DecodeFold,
        ])
        .collect();
    let seeds: Vec<Vec<Vec<u8>>> = targets
        .iter()
        .map(|t| build_seeds(t, &mut rng, &scratch))
        .collect();

    // Panics are expected to be *absent*; keep the default hook silent
    // during the run so an actual violation prints once, not 20k times.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut violations = 0u64;
    let mut executed = 0u64;
    for i in 0..cfg.iters {
        // Round-robin over targets so every decoder gets equal coverage
        // regardless of --iters.
        let t = (i % targets.len() as u64) as usize;
        let target = &targets[t];
        let mut input = if seeds[t].is_empty() || rng.below(16) == 0 {
            Vec::new() // occasionally start from scratch
        } else {
            seeds[t][rng.below(seeds[t].len())].clone()
        };
        // Stack 1..=4 mutations.
        for _ in 0..rng.below(4) + 1 {
            mutate(&mut input, &mut rng);
        }
        executed += 1;
        if std::env::var("ETSQP_FUZZ_TRACE").is_ok() {
            eprintln!("iter {i} target {} len {}", target.name(), input.len());
        }
        if let Verdict::Violation(msg) = check(target, &input, &scratch) {
            violations += 1;
            let min = minimize(target, &input, &scratch);
            let name = format!("{}__{:016x}.bin", target.name(), content_hash(&min));
            let dest = cfg.corpus_dir.join(&name);
            let _ = std::fs::create_dir_all(&cfg.corpus_dir);
            let _ = std::fs::write(&dest, &min);
            eprintln!(
                "fuzz VIOLATION [{}] iter {i}: {msg} ({} bytes, minimized to {}; saved {})",
                target.name(),
                input.len(),
                min.len(),
                dest.display()
            );
        }
    }
    std::panic::set_hook(prev_hook);
    let _ = std::fs::remove_dir_all(&scratch);

    let secs = start.elapsed().as_secs_f64();
    let rate = executed as f64 / secs.max(1e-9);
    if violations == 0 {
        println!(
            "fuzz OK: {executed} iters, {} targets, {secs:.2}s, {rate:.0} execs/sec",
            targets.len()
        );
    } else {
        println!(
            "fuzz FAILED: {violations} violations in {executed} iters ({} targets, {secs:.2}s)",
            targets.len()
        );
    }
    violations
}
