//! Decode throughput per codec × SIMD backend (ISSUE 7 measurement).
//!
//! Reports decoded ints/sec for every integer codec through the
//! vectorized column path (`etsqp_core::decode::decode_column`), the
//! float codecs through their serial reference decoders, the raw Stream
//! VByte quad-decode kernel on u32 data, and the FastLanes / SBoost
//! comparator baselines. Output is JSON on stdout (redirected to
//! `BENCH_decode.json` by `scripts/bench.sh`).
//!
//! Columns are encoded as [`PAGE_VALUES`]-value pages, the unit the
//! storage layer hands to the decoders. This matters for correctness of
//! the measurement, not just realism: the delta fast paths gate on
//! per-page prefix-sum magnitude bounds (`rel_bound`, width × count), so
//! one monolithic multi-megabyte "page" would push every codec onto its
//! serial fallback and flatten the backend comparison.
//!
//! The kernel backend is a process-wide `OnceLock`, so one process
//! cannot measure two backends: the parent re-execs itself once per
//! backend (the scalar child pinned with `ETSQP_FORCE_SCALAR=1`) under
//! `ETSQP_DECODE_BENCH_CHILD=1`, then merges the children's rows. The
//! child echoes the backend it actually resolved, and the parent asserts
//! it matches the one requested — and that decoded checksums agree
//! bit-for-bit across backends.
//!
//! Scale control: `ETSQP_BENCH_DECODE_INTS` (default 262144) sets the
//! column length.

use std::process::Command;
use std::time::Instant;

use etsqp_core::decode::{decode_column, DecodeOptions};
use etsqp_encoding::Encoding;

const CHILD_ENV: &str = "ETSQP_DECODE_BENCH_CHILD";

/// Values per encoded page (a generous but realistic page size).
const PAGE_VALUES: usize = 4096;

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

const FLOAT_CODECS: [Encoding; 3] = [Encoding::Chimp, Encoding::Elf, Encoding::GorillaFloat];

fn n_values() -> usize {
    std::env::var("ETSQP_BENCH_DECODE_INTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256 * 1024)
}

/// Delta-friendly IoT-style integer series with periodic spikes so
/// Stream VByte sees a mix of 1/2/3-byte codes.
fn int_values(n: usize) -> Vec<i64> {
    (0..n)
        .map(|i| {
            let spike = if i % 97 == 0 { 75_000 } else { 0 };
            900 + ((i as i64 * 13) % 512) - ((i as i64 % 7) * 40) + spike
        })
        .collect()
}

fn float_values(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 20.0 + ((i % 100) as f64) * 0.25 + ((i % 13) as f64) * 0.01)
        .collect()
}

/// Calibrates then times `f`, returning (iters, seconds-per-iter).
fn time_loop<F: FnMut()>(mut f: F) -> (u32, f64) {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64();
    let iters = ((0.2 / once.max(1e-9)).ceil() as u32).clamp(3, 20_000);
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    (iters, t.elapsed().as_secs_f64() / f64::from(iters))
}

struct Row {
    backend: String,
    codec: String,
    encoded_bytes: usize,
    iters: u32,
    ints_per_sec: f64,
    checksum: i64,
}

impl Row {
    fn tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:.0}\t{}",
            self.backend,
            self.codec,
            self.encoded_bytes,
            self.iters,
            self.ints_per_sec,
            self.checksum
        )
    }

    fn from_tsv(line: &str) -> Row {
        let f: Vec<&str> = line.split('\t').collect();
        assert_eq!(f.len(), 6, "malformed child row: {line:?}");
        Row {
            backend: f[0].to_string(),
            codec: f[1].to_string(),
            encoded_bytes: f[2].parse().unwrap(),
            iters: f[3].parse().unwrap(),
            ints_per_sec: f[4].parse().unwrap(),
            checksum: f[5].parse().unwrap(),
        }
    }
}

fn checksum_i64(values: &[i64]) -> i64 {
    values.iter().fold(0i64, |acc, &v| acc.wrapping_add(v))
}

/// Child mode: measure every codec on the process's pinned backend and
/// print one TSV row per codec to stdout.
fn run_child() {
    let backend = etsqp_simd::backend().to_string();
    let n = n_values();
    let ints = int_values(n);
    let floats = float_values(n);
    let opts = DecodeOptions::default();
    let mut rows = Vec::new();

    for enc in INT_CODECS {
        eprintln!("decode_bench[{backend}]: {}", enc.name());
        let pages: Vec<Vec<u8>> = ints
            .chunks(PAGE_VALUES)
            .map(|c| enc.encode_i64(c))
            .collect();
        let encoded: usize = pages.iter().map(Vec::len).sum();
        let mut out = Vec::new();
        let mut full = Vec::with_capacity(n);
        let (iters, secs) = time_loop(|| {
            full.clear();
            for page in &pages {
                decode_column(enc, page, &opts, &mut out).unwrap();
                full.extend_from_slice(&out);
            }
            std::hint::black_box(&full);
        });
        assert_eq!(full, ints, "{} decode mismatch", enc.name());
        rows.push(Row {
            backend: backend.clone(),
            codec: enc.name().to_string(),
            encoded_bytes: encoded,
            iters,
            ints_per_sec: n as f64 / secs,
            checksum: checksum_i64(&full),
        });
    }

    for enc in FLOAT_CODECS {
        eprintln!("decode_bench[{backend}]: {}", enc.name());
        let pages: Vec<Vec<u8>> = floats
            .chunks(PAGE_VALUES)
            .map(|c| enc.encode_f64(c))
            .collect();
        let encoded: usize = pages.iter().map(Vec::len).sum();
        let mut checksum = 0i64;
        let (iters, secs) = time_loop(|| {
            checksum = 0;
            for page in &pages {
                let out = enc.decode_f64(page).unwrap();
                for v in &out {
                    checksum = checksum.wrapping_add(v.to_bits() as i64);
                }
                std::hint::black_box(&out);
            }
        });
        rows.push(Row {
            backend: backend.clone(),
            codec: enc.name().to_string(),
            encoded_bytes: encoded,
            iters,
            ints_per_sec: n as f64 / secs,
            checksum,
        });
    }

    // Raw Stream VByte quad-decode kernel on u32 data — the acceptance
    // measurement for the shuffle-table path vs its scalar twin.
    {
        eprintln!("decode_bench[{backend}]: svb_kernel_u32");
        let vals: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) >> (i % 29))
            .collect();
        let mut controls = vec![0u8; n.div_ceil(4)];
        let mut data = Vec::with_capacity(n * 2);
        for (k, &v) in vals.iter().enumerate() {
            let len = (4 - v.leading_zeros() as usize / 8).max(1);
            data.extend_from_slice(&v.to_le_bytes()[..len]);
            controls[k / 4] |= ((len - 1) as u8) << (2 * (k % 4));
        }
        let mut out = vec![0u32; n];
        let (iters, secs) = time_loop(|| {
            etsqp_simd::svb::decode_quads(&controls, &data, n, &mut out);
            std::hint::black_box(&out);
        });
        assert_eq!(out, vals, "svb kernel decode mismatch");
        let checksum = out
            .iter()
            .fold(0i64, |acc, &v| acc.wrapping_add(i64::from(v)));
        rows.push(Row {
            backend: backend.clone(),
            codec: "svb_kernel_u32".to_string(),
            encoded_bytes: controls.len() + data.len(),
            iters,
            ints_per_sec: n as f64 / secs,
            checksum,
        });
    }

    // FastLanes baseline: 1024-value transposed blocks.
    {
        eprintln!("decode_bench[{backend}]: fastlanes_flmm1024");
        let blocks: Vec<Vec<u8>> = ints
            .chunks(etsqp_fastlanes::BLOCK)
            .map(|c| etsqp_fastlanes::encode_block(c).bytes.to_vec())
            .collect();
        let encoded: usize = blocks.iter().map(Vec::len).sum();
        let mut out = Vec::new();
        // decode_block appends, so the whole column lands in one vec.
        let (iters, secs) = time_loop(|| {
            out.clear();
            for b in &blocks {
                etsqp_fastlanes::decode_block(b, &mut out).unwrap();
            }
            std::hint::black_box(&out);
        });
        assert_eq!(out, ints, "fastlanes decode mismatch");
        let checksum = checksum_i64(&out);
        rows.push(Row {
            backend: backend.clone(),
            codec: "fastlanes_flmm1024".to_string(),
            encoded_bytes: encoded,
            iters,
            ints_per_sec: n as f64 / secs,
            checksum,
        });
    }

    // SBoost baseline: straight-scan decode of a TS2DIFF page.
    {
        eprintln!("decode_bench[{backend}]: sboost_ts2diff");
        let pages: Vec<Vec<u8>> = ints
            .chunks(PAGE_VALUES)
            .map(|c| Encoding::Ts2Diff.encode_i64(c))
            .collect();
        let encoded: usize = pages.iter().map(Vec::len).sum();
        let mut out = Vec::new();
        let mut full = Vec::with_capacity(n);
        let (iters, secs) = time_loop(|| {
            full.clear();
            for page in &pages {
                etsqp_sboost::decode_page_values(page, &mut out).unwrap();
                full.extend_from_slice(&out);
            }
            std::hint::black_box(&full);
        });
        assert_eq!(full, ints, "sboost decode mismatch");
        rows.push(Row {
            backend: backend.clone(),
            codec: "sboost_ts2diff".to_string(),
            encoded_bytes: encoded,
            iters,
            ints_per_sec: n as f64 / secs,
            checksum: checksum_i64(&full),
        });
    }

    for row in &rows {
        println!("{}", row.tsv());
    }
}

/// Backends this machine can run: the scalar twin always, and the CPUID
/// pick where that is AVX2.
fn backend_plan() -> Vec<&'static str> {
    let mut plan = vec!["scalar"];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        plan.push("avx2");
    }
    plan
}

/// Re-execs this binary as a measuring child; `label == "scalar"` pins
/// the one override, anything else takes the CPUID pick.
fn spawn_child(label: &str) -> Vec<Row> {
    let exe = std::env::current_exe().unwrap();
    let mut cmd = Command::new(exe);
    cmd.env(CHILD_ENV, "1");
    if label == "scalar" {
        cmd.env("ETSQP_FORCE_SCALAR", "1");
    } else {
        cmd.env_remove("ETSQP_FORCE_SCALAR");
    }
    let output = cmd.output().expect("spawn decode_bench child");
    assert!(
        output.status.success(),
        "decode_bench child failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(Row::from_tsv)
        .collect()
}

fn rate(rows: &[Row], backend: &str, codec: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.backend == backend && r.codec == codec)
        .map(|r| r.ints_per_sec)
}

fn main() {
    if std::env::var_os(CHILD_ENV).is_some() {
        run_child();
        return;
    }

    let n = n_values();
    let plan = backend_plan();
    let mut all_rows: Vec<Row> = Vec::new();
    let mut backends = Vec::new();
    for label in &plan {
        eprintln!("decode_bench: measuring backend {label}");
        let rows = spawn_child(label);
        for row in &rows {
            assert_eq!(
                row.backend, *label,
                "child resolved backend {} but {label} was requested",
                row.backend
            );
        }
        backends.push((*label).to_string());
        all_rows.extend(rows);
    }

    // Backends must agree bit-for-bit on every decoded column.
    let codecs: Vec<String> = all_rows
        .iter()
        .filter(|r| r.backend == backends[0])
        .map(|r| r.codec.clone())
        .collect();
    for codec in &codecs {
        let sums: Vec<i64> = all_rows
            .iter()
            .filter(|r| r.codec == *codec)
            .map(|r| r.checksum)
            .collect();
        assert!(
            sums.windows(2).all(|w| w[0] == w[1]),
            "{codec}: checksum differs across backends: {sums:?}"
        );
    }

    let kernel_speedup = match (
        rate(&all_rows, "avx2", "svb_kernel_u32"),
        rate(&all_rows, "scalar", "svb_kernel_u32"),
    ) {
        (Some(simd), Some(scalar)) if scalar > 0.0 => Some(simd / scalar),
        _ => None,
    };
    let column_speedup = match (
        rate(&all_rows, "avx2", "stream_vbyte"),
        rate(&all_rows, "scalar", "stream_vbyte"),
    ) {
        (Some(simd), Some(scalar)) if scalar > 0.0 => Some(simd / scalar),
        _ => None,
    };

    println!("{{");
    println!("  \"bench\": \"decode\",");
    println!("  \"values\": {n},");
    println!(
        "  \"backends\": [{}],",
        backends
            .iter()
            .map(|b| format!("\"{b}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("  \"rows\": [");
    for (i, row) in all_rows.iter().enumerate() {
        let comma = if i + 1 == all_rows.len() { "" } else { "," };
        println!(
            "    {{\"backend\": \"{}\", \"codec\": \"{}\", \"encoded_bytes\": {}, \"iters\": {}, \"ints_per_sec\": {:.0}}}{comma}",
            row.backend, row.codec, row.encoded_bytes, row.iters, row.ints_per_sec
        );
    }
    println!("  ],");
    match kernel_speedup {
        Some(s) => println!("  \"svb_kernel_speedup_avx2_vs_scalar\": {s:.2},"),
        None => println!("  \"svb_kernel_speedup_avx2_vs_scalar\": null,"),
    }
    match column_speedup {
        Some(s) => println!("  \"svb_column_speedup_avx2_vs_scalar\": {s:.2}"),
        None => println!("  \"svb_column_speedup_avx2_vs_scalar\": null"),
    }
    println!("}}");

    for label in &plan {
        if let Some(r) = rate(&all_rows, label, "stream_vbyte") {
            eprintln!(
                "decode_bench: stream_vbyte {label}: {:.1} M ints/s",
                r / 1e6
            );
        }
    }
    if let Some(s) = kernel_speedup {
        eprintln!("decode_bench: svb kernel avx2 speedup over scalar: {s:.2}x");
    }
}
