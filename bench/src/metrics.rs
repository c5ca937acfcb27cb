//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! number each is predicted to move. `BENCHMARK.json` at the repo root
//! states the same lists; a unit test keeps the two in step.

use etsqp_encoding::Encoding;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// Why this workload exists: the layers it loads and the ones it
    /// bypasses.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "scan_fused",
        why: "unfiltered SUM/AVG/COUNT over 12288 pages: fused closed forms do the work, decode none; larger than the 8192-entry partial cache",
    },
    WorkloadDef {
        name: "scan_decode",
        why: "value-filtered and misaligned aggregates: every kept page decodes; fused path and partial cache bypassed",
    },
    WorkloadDef {
        name: "dash_short",
        why: "short dashboard SQL in process on a store that fits the partial cache: parse, compile, prune, pool dispatch dominate",
    },
    WorkloadDef {
        name: "wire_short",
        why: "the dash_short store and SQL over loopback TCP, callers with seeded think times: the latency difference to dash_short is the serve layer",
    },
    WorkloadDef {
        name: "ingest_live",
        why: "single-point appends beside trailing-range queries: read-path gains bought with append-path cost show here",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Seconds one run measures: fifteen windows of one second, after a
/// two-second warm-up. `BENCHMARK.json` states the same number as `run_seconds`; it is
/// a constant, not a knob, because every length is a different benchmark.
pub const RUN_SECONDS: u64 = 15;

/// The metrics every workload reports. The timing bounds are the largest
/// the acceptance contract allows, 0.25: over ten seeds the timing metrics
/// spread up to 8 % of their median on a quiet reference host and more on
/// a busy one (`bench/README.md` has the table), so no timing metric
/// resolves finer in one comparison.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "queries/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stored_bytes_per_point",
        unit: "bytes/point",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A per-layer metric. Which end-to-end metric each one is predicted to
/// move, and on which workload, is tabled in `bench/README.md`.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    /// Stated in `BENCHMARK.json`; only the test that keeps the two in
    /// step reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

/// The codecs the layer metrics break down by.
pub const CODECS: [Encoding; 5] = [
    Encoding::Ts2Diff,
    Encoding::DeltaRle,
    Encoding::Sprintz,
    Encoding::StreamVByte,
    Encoding::Gorilla,
];

/// The three codecs with a fused closed form (paper IV).
pub const FUSED_CODECS: [Encoding; 3] =
    [Encoding::Ts2Diff, Encoding::DeltaRle, Encoding::StreamVByte];

pub const STAGES: [&str; 7] = ["io", "unpack", "delta", "filter", "agg", "merge", "idle"];

pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: String, unit, better| out.push(PerLayer { name, unit, better });
    for k in ["unpack", "svb_quads", "sum"] {
        add(format!("simd.{k}_ints_per_s"), "ints/s", Higher);
    }
    for (family, unit, better) in [
        ("encoding.decode_ints_per_s", "ints/s", Higher),
        ("encoding.encode_ints_per_s", "ints/s", Higher),
        ("encoding.bits_per_int", "bits/int", Lower),
        ("core.decode.column_ints_per_s", "ints/s", Higher),
    ] {
        for c in CODECS {
            add(format!("{family}.{}", c.name()), unit, better);
        }
    }
    for c in FUSED_CODECS {
        add(
            format!("core.fused.sum_ints_per_s.{}", c.name()),
            "ints/s",
            Higher,
        );
    }
    add("core.sql.parse_us".into(), "us", Lower);
    add("core.pipe.compile_us".into(), "us", Lower);
    add("core.pipe.pruned_page_ratio".into(), "ratio", Higher);
    for s in ["fused", "decode", "header"] {
        add(format!("core.pipe.strategy_share.{s}"), "ratio", Higher);
    }
    add("core.exec.run_us".into(), "us", Lower);
    for s in STAGES {
        add(format!("core.exec.stage_ns.{s}"), "ns/query", Lower);
    }
    add("core.exec.steal_ratio".into(), "ratio", Lower);
    add("core.partial.hit_ratio".into(), "ratio", Higher);
    add("core.partial.entries".into(), "count", Lower);
    add("storage.load_points_per_s".into(), "points/s", Higher);
    add("storage.append_points_per_s".into(), "points/s", Higher);
    add("storage.flush_us".into(), "us", Lower);
    add("storage.snapshot_us".into(), "us", Lower);
    add("storage.page_verify_bytes_per_s".into(), "bytes/s", Higher);
    add("storage.bytes_read_per_query".into(), "bytes/query", Lower);
    add("serve.proto.encode_us".into(), "us", Lower);
    add("serve.proto.decode_us".into(), "us", Lower);
    add("serve.admission.shed_ratio".into(), "ratio", Lower);
    add("serve.admission.admitted".into(), "count", Higher);
    add("serve.conn.ping_rtt_us".into(), "us", Lower);
    add("serve.conn.wire_overhead_us".into(), "us", Lower);
    add("trace.overhead_ratio".into(), "ratio", Lower);
    add("trace.unreconciled_us".into(), "us", Lower);
    // Demoted from end-to-end under their own names, because an end-to-end
    // metric is printed by every workload and may never be 0.
    // `tuples_per_s` is `queries_per_s` times the tuples one pass of the
    // fixed query list covers; `ingest_points_per_s` exists on
    // `ingest_live` alone; `failed_ratio` is 0 on a correct run, and the
    // result line's `failed` and `attempted` carry it.
    add("tuples_per_s".into(), "tuples/s", Higher);
    add("ingest_points_per_s".into(), "points/s", Higher);
    add("failed_ratio".into(), "ratio", Lower);
    out
}

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
