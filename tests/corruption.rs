//! Replays the minimized corruption corpus (`tests/corpus/*.bin`)
//! against every untrusted-input surface, asserting the same tri-state
//! invariant the fuzzer (`cargo run -p xtask -- fuzz`) enforces:
//!
//! 1. no decoder panics on any byte string;
//! 2. `Ok(values)` implies `decode(encode(values)) == values`
//!    (bitwise for floats) — an accepted stream must round-trip;
//! 3. otherwise a typed `Err` — the expected outcome for a crasher.
//!
//! The corpus is committed: one deterministic hostile input per codec
//! (truncations, hostile count fields) plus fuzzer-found crashers such
//! as `chimp__zero_sig.bin` (a flag-`01` code with zero significant
//! bits used to overflow a shift by 64). File names are
//! `<target>__<description>.bin`, where `<target>` is a codec name from
//! `Encoding::name()`, `page` (a `Page::to_bytes` image), `tsfile`
//! (an on-disk file image), `proto` (a network wire-frame byte stream
//! fed to `etsqp_serve::proto::FrameDecoder`), or
//! `decode_fold` (a 17-byte head — codec, flags, filter — and the column
//! bytes that `decode_column`, the fold cursor and, for Delta-RLE, the
//! ungated run-space walk are held against the codec crate's serial
//! decoder on).
//! Regenerate with `cargo run -p xtask -- fuzz --emit-corpus`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use etsqp::core::decode::{decode_column, DecodeOptions};
use etsqp::core::decode_fold::FoldCursor;
use etsqp::core::fused::aggregate_delta_rle;
use etsqp::encoding::Encoding;
use etsqp::serve::proto::{self, FrameDecoder, FrameType, DEFAULT_MAX_FRAME_LEN};
use etsqp::simd::agg::AggState;
use etsqp::storage::page::Page;
use etsqp::storage::tsfile;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

fn codec_by_name(name: &str) -> Option<Encoding> {
    const ALL: [Encoding; 12] = [
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
    ];
    ALL.into_iter().find(|e| e.name() == name)
}

/// Applies the tri-state invariant; returns a violation message or None.
fn check(target: &str, bytes: &[u8]) -> Option<String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        match target {
            "page" => {
                if let Ok((page, _)) = Page::from_bytes(bytes) {
                    let _ = page.decode();
                }
                Ok(())
            }
            "proto" => {
                // Same invariant the fuzzer's `proto` target enforces:
                // complete frames re-encode and re-parse identically,
                // typed payloads round-trip canonically, hostile bytes
                // end as a typed `ProtoError` — never a panic.
                let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
                dec.extend(bytes);
                while let Ok(Some(frame)) = dec.next_frame() {
                    let wire = proto::encode_frame(frame.kind, &frame.payload);
                    let mut again = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
                    again.extend(&wire);
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
                                if proto::decode_error(&canon).as_ref() != Ok(&e) {
                                    return Err("accepted error payload breaks round-trip".into());
                                }
                            }
                        }
                        FrameType::Result => {
                            if let Ok(r) = proto::decode_result(&frame.payload) {
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
            "decode_fold" => {
                // Same invariant as the fuzzer's `decode_fold` target: a
                // 17-byte head (codec, flags, inclusive filter), then a
                // column that `decode_column`, the cursor and the codec
                // crate's serial decoder must take to the same values,
                // the same state or the same typed error — and, for
                // Delta-RLE, the ungated run-space walk as well.
                let Some((head, column)) = bytes.split_at_checked(17) else {
                    return Ok(());
                };
                let enc = [
                    Encoding::Ts2Diff,
                    Encoding::Sprintz,
                    Encoding::StreamVByte,
                    Encoding::Ts2DiffOrder2,
                    Encoding::DeltaRle,
                    Encoding::Gorilla,
                ][((head[0] & 3) | (head[0] >> 3 & 4)) as usize % 6];
                let (prune, sum_sq, ranged) =
                    (head[0] & 4 != 0, head[0] & 8 != 0, head[0] & 16 != 0);
                let be = |b: &[u8]| b.iter().fold(0i64, |acc, &x| (acc << 8) | x as i64);
                let (lo, hi) = (be(&head[1..9]), be(&head[9..17]));
                let reference = enc
                    .decode_i64(column)
                    .map_err(|e| etsqp::core::Error::from(e).to_string());
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
                    return Err("decode_column and the reference decoder disagree".into());
                }
                let fold = |values: &[i64], (lo, hi): (i64, i64)| {
                    let mut want = AggState::new();
                    for &v in values.iter().filter(|&&v| lo <= v && v <= hi) {
                        want.push(v);
                    }
                    want
                };
                let same = |got: &AggState, want: &AggState, sq: bool| {
                    (got.count, got.sum, got.min, got.max)
                        == (want.count, want.sum, want.min, want.max)
                        && (!sq || got.sum_sq == want.sum_sq)
                };
                if enc == Encoding::DeltaRle {
                    let whole = etsqp::encoding::delta_rle::parse(column)
                        .map_err(etsqp::core::Error::from)
                        .and_then(|page| aggregate_delta_rle(&page))
                        .map_err(|e| e.to_string());
                    let overflow = etsqp::core::Error::Overflow.to_string();
                    match (&whole, &reference) {
                        // Deltas that wrapped at encode time: decodable,
                        // and refused by run space as overflow — before
                        // whatever else the decoder then objects to.
                        (Err(a), Err(b)) if a == b || *a == overflow => {}
                        (Ok(got), Ok(values)) => {
                            let want = fold(values, (i64::MIN, i64::MAX));
                            let exact_sq = values.iter().all(|v| v.unsigned_abs() < 1 << 47);
                            if !same(got, &want, exact_sq)
                                || (got.first, got.last) != (want.first, want.last)
                            {
                                return Err(format!("run space {got:?} != {want:?}"));
                            }
                        }
                        (Err(a), Ok(values))
                            if *a == overflow
                                && values
                                    .iter()
                                    .max()
                                    .zip(values.iter().min())
                                    .is_some_and(|(mx, mn)| mx.checked_sub(*mn).is_none()) => {}
                        _ => return Err("run space and the decoder disagree".into()),
                    }
                }
                let cursor = FoldCursor::open(enc, column, range, Some((lo, hi)), prune, sum_sq)
                    .map_err(|e| e.to_string());
                let folded = match cursor {
                    Ok(None) => return Ok(()),
                    Ok(Some(mut cursor)) => {
                        cursor.fold_range(0, usize::MAX).map_err(|e| e.to_string())
                    }
                    Err(e) => Err(e),
                };
                match (folded, reference) {
                    (Err(a), Err(b)) if a == b => Ok(()),
                    (Err(a), _) => Err(format!("cursor refused ({a}), the decoder did not")),
                    (Ok(_), Err(b)) => Err(format!("cursor folded, decoder refused ({b})")),
                    (Ok(got), Ok(values)) => {
                        let want = fold(&values, (lo, hi));
                        same(&got, &want, sum_sq)
                            .then_some(())
                            .ok_or_else(|| format!("cursor {got:?} != decode-then-fold {want:?}"))
                    }
                }
            }
            "tsfile" => {
                let dir =
                    std::env::temp_dir().join(format!("etsqp-corruption-{}", std::process::id()));
                std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
                let path = dir.join("replay.etsqp");
                std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
                if let Ok(store) = tsfile::read(&path) {
                    for name in store.series_names() {
                        if let Ok(pages) = store.peek_pages(&name) {
                            for page in pages {
                                let _ = page.decode();
                            }
                        }
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
                Ok(())
            }
            codec => {
                let enc = codec_by_name(codec)
                    .ok_or_else(|| format!("unknown corpus target `{codec}`"))?;
                if enc.is_float() {
                    if let Ok(values) = enc.decode_f64(bytes) {
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
                } else if let Ok(values) = enc.decode_i64(bytes) {
                    let back = enc
                        .decode_i64(&enc.encode_i64(&values))
                        .map_err(|e| format!("accepted stream fails re-decode: {e}"))?;
                    if back != values {
                        return Err("accepted stream breaks round-trip".into());
                    }
                }
                Ok(())
            }
        }
    }));
    match outcome {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(_) => Some("decoder panicked".into()),
    }
}

#[test]
fn corpus_replays_clean() {
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus/ must exist — run `cargo run -p xtask -- fuzz --emit-corpus`")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 20,
        "corpus unexpectedly small ({} files) — regenerate with \
         `cargo run -p xtask -- fuzz --emit-corpus`",
        entries.len()
    );

    let mut failures = Vec::new();
    for path in &entries {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let target = stem.split("__").next().unwrap_or("");
        let bytes = std::fs::read(path).expect("corpus file readable");
        if let Some(msg) = check(target, &bytes) {
            failures.push(format!("{stem}: {msg}"));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus violations:\n  {}",
        failures.join("\n  ")
    );
}

/// The fuzzer-found chimp crasher must stay a *typed error*: a flag-01
/// code declaring zero significant bits once drove a shift by 64.
#[test]
fn chimp_zero_sig_is_rejected() {
    let bytes = std::fs::read(corpus_dir().join("chimp__zero_sig.bin"))
        .expect("regression corpus file present");
    let result = Encoding::Chimp.decode_f64(&bytes);
    assert!(
        result.is_err(),
        "hostile chimp stream must be rejected, got {result:?}"
    );
}

/// Hostile count fields must be rejected up front (header preflight),
/// not trusted into a huge allocation.
#[test]
fn hostile_counts_are_rejected() {
    for path in std::fs::read_dir(corpus_dir())
        .unwrap()
        .filter_map(|e| e.ok())
    {
        let name = path.file_name().to_string_lossy().into_owned();
        let Some(codec_name) = name.strip_suffix("__hostile_count.bin") else {
            continue;
        };
        let Some(enc) = codec_by_name(codec_name) else {
            continue;
        };
        let bytes = std::fs::read(path.path()).unwrap();
        let rejected = if enc.is_float() {
            enc.decode_f64(&bytes).is_err()
        } else {
            enc.decode_i64(&bytes).is_err()
        };
        assert!(rejected, "{codec_name}: u32::MAX count must be rejected");
    }
}

/// A frame declaring a `u32::MAX` payload must be rejected from the
/// header alone — the decoder may never buffer toward a hostile length.
#[test]
fn proto_oversized_len_rejected() {
    let bytes = std::fs::read(corpus_dir().join("proto__oversized_len.bin"))
        .expect("proto corpus file present");
    let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
    dec.extend(&bytes);
    assert!(
        dec.next_frame().is_err(),
        "u32::MAX length prefix must be a typed ProtoError"
    );
}
