//! Per-layer measurements of the traced run: each public function a
//! layer metric names is timed from here, on the workload's own pages and
//! SQL, one layer at a time. Every timed pass is also a span.
//!
//! Throughputs cycle over at most [`PAGES_PER_CODEC`] pages per codec
//! (about 0.3 MB encoded at 1024-point pages: cache-resident, stated so a
//! reader can set the numbers beside Lemire & Boytsov's in-cache figures).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etsqp_core::decode::{decode_column, DecodeOptions};
use etsqp_core::fused;
use etsqp_core::physical::node::Strategy;
use etsqp_core::physical::pipe;
use etsqp_core::sql;
use etsqp_encoding::{delta_rle, stream_vbyte, ts2diff, Encoding};
use etsqp_serve::client::Client;
use etsqp_serve::proto::{self, FrameDecoder, FrameType};
use etsqp_simd::{agg, svb, unpack};
use etsqp_storage::page::Page;
use etsqp_storage::store::SeriesStore;

use crate::metrics::{CODECS, FUSED_CODECS};
use crate::stats::{share, summarize};
use crate::trace::{SpanId, Tracer};
use crate::workloads::Fixture;

pub const PAGES_PER_CODEC: usize = 256;

pub type Values = BTreeMap<String, f64>;

/// What every layer measurement needs: the time slice one metric may
/// take, where its spans go, and where its value goes.
struct Probe<'a> {
    slice: Duration,
    tracer: &'a mut Tracer,
    root: SpanId,
    out: Values,
}

impl Probe<'_> {
    /// Times passes of `f` (each a span over `items` work items) until
    /// the slice has gone by, at least three; returns the median pass time
    /// in seconds, which one preempted pass cannot drag.
    fn median_pass_secs(&mut self, span: &'static str, items: u64, mut f: impl FnMut()) -> f64 {
        let begun = Instant::now();
        let mut secs = Vec::new();
        while secs.len() < 3 || begun.elapsed() < self.slice {
            let id = self.tracer.begin(span, Some(self.root), 0);
            let t = Instant::now();
            f();
            secs.push(t.elapsed().as_secs_f64());
            self.tracer.end_counted(id, items);
        }
        summarize(&secs).median
    }

    /// Records `metric` as items per second of `f`; 0 when the workload
    /// has no such work.
    fn rate(&mut self, metric: String, span: &'static str, items: u64, f: impl FnMut()) {
        let value = if items == 0 {
            0.0
        } else {
            items as f64 / self.median_pass_secs(span, items, f)
        };
        self.out.insert(metric, value);
    }

    /// Records `metric` as microseconds per call of `f`, which makes
    /// `calls` calls per pass.
    fn micros_per_call(&mut self, metric: &str, span: &'static str, calls: u64, f: impl FnMut()) {
        let value = if calls == 0 {
            0.0
        } else {
            self.median_pass_secs(span, calls, f) * 1e6 / calls as f64
        };
        self.out.insert(metric.to_string(), value);
    }
}

/// Up to `PAGES_PER_CODEC` pages whose value column uses `codec`, taken
/// evenly across the store.
fn sample_pages(all: &[Arc<Page>], codec: Encoding) -> Vec<Arc<Page>> {
    let of: Vec<&Arc<Page>> = all
        .iter()
        .filter(|p| p.header.val_encoding == codec)
        .collect();
    let step = of.len().div_ceil(PAGES_PER_CODEC).max(1);
    of.into_iter().step_by(step).cloned().collect()
}

fn opts_for(page: &Page) -> DecodeOptions {
    // What the engine's scan passes: the header's exact value range.
    DecodeOptions {
        value_range: Some((page.header.min_value, page.header.max_value)),
        ..DecodeOptions::default()
    }
}

/// A span name for one (function, codec) pair. Span names are `'static`
/// so recording one costs no allocation; the handful of per-codec names
/// (at most 18 per process) are leaked once here instead.
fn span_name(function: &str, codec: Encoding) -> &'static str {
    Box::leak(format!("{function}.{}", codec.name()).into_boxed_str())
}

/// `simd`, `encoding`, `core::decode` and `core::fused` on the store's
/// own value columns.
fn codec_layers(probe: &mut Probe, pages: &[Arc<Page>]) {
    for codec in CODECS {
        let name = codec.name();
        let sample = sample_pages(pages, codec);
        let ints: u64 = sample.iter().map(|p| p.header.count as u64).sum();

        // Exact count over every page of the codec, not only the sample.
        let (bits, count) = pages
            .iter()
            .filter(|p| p.header.val_encoding == codec)
            .fold((0u64, 0u64), |(b, c), p| {
                (b + p.val_bytes.len() as u64 * 8, c + p.header.count as u64)
            });
        probe
            .out
            .insert(format!("encoding.bits_per_int.{name}"), share(bits, count));

        let decoded: Vec<Vec<i64>> = sample
            .iter()
            .map(|p| codec.decode_i64(&p.val_bytes).expect("stored page decodes"))
            .collect();
        probe.rate(
            format!("encoding.decode_ints_per_s.{name}"),
            span_name("encoding.decode_i64", codec),
            ints,
            || {
                for p in &sample {
                    black_box(codec.decode_i64(black_box(&p.val_bytes)).expect("decodes"));
                }
            },
        );
        probe.rate(
            format!("encoding.encode_ints_per_s.{name}"),
            span_name("encoding.encode_i64", codec),
            ints,
            || {
                for v in &decoded {
                    black_box(codec.encode_i64(black_box(v)));
                }
            },
        );
        let mut buf = Vec::new();
        probe.rate(
            format!("core.decode.column_ints_per_s.{name}"),
            span_name("core.decode.decode_column", codec),
            ints,
            || {
                for p in &sample {
                    decode_column(codec, black_box(&p.val_bytes), &opts_for(p), &mut buf)
                        .expect("decodes");
                    black_box(&buf);
                }
            },
        );
        if FUSED_CODECS.contains(&codec) {
            probe.rate(
                format!("core.fused.sum_ints_per_s.{name}"),
                span_name("core.fused.sum", codec),
                ints,
                || {
                    for p in &sample {
                        let bytes = black_box(&p.val_bytes[..]);
                        let state = match codec {
                            Encoding::Ts2Diff => ts2diff::parse(bytes)
                                .map_err(etsqp_core::Error::Encoding)
                                .and_then(|pg| fused::sum_ts2diff(&pg, &opts_for(p))),
                            Encoding::DeltaRle => delta_rle::parse(bytes)
                                .map_err(etsqp_core::Error::Encoding)
                                .and_then(|pg| fused::aggregate_delta_rle(&pg)),
                            _ => stream_vbyte::parse(bytes)
                                .map_err(etsqp_core::Error::Encoding)
                                .and_then(|pg| fused::sum_svb(&pg, &opts_for(p))),
                        };
                        black_box(state.expect("fused sum of a stored page"));
                    }
                },
            );
        }

        // The bare kernels, on the same bytes the column paths above read.
        if codec == Encoding::Ts2Diff {
            let parsed: Vec<ts2diff::Ts2DiffPage> = sample
                .iter()
                .filter_map(|p| ts2diff::parse(&p.val_bytes).ok())
                .filter(|pg| pg.width <= 32)
                .collect();
            let n: u64 = parsed.iter().map(|pg| pg.num_deltas() as u64).sum();
            let mut lanes = vec![0u32; parsed.iter().map(|pg| pg.num_deltas()).max().unwrap_or(0)];
            probe.rate(
                "simd.unpack_ints_per_s".into(),
                "simd.unpack.unpack_u32",
                n,
                || {
                    for pg in &parsed {
                        let dst = &mut lanes[..pg.num_deltas()];
                        unpack::unpack_u32(black_box(pg.payload), 0, pg.width, dst);
                        black_box(&dst);
                    }
                },
            );
            probe.rate(
                "simd.sum_ints_per_s".into(),
                "simd.agg.sum_i64",
                ints,
                || {
                    for v in &decoded {
                        black_box(agg::sum_i64(black_box(v)));
                    }
                },
            );
        }
        if codec == Encoding::StreamVByte {
            let parsed: Vec<stream_vbyte::SvbPage> = sample
                .iter()
                .filter_map(|p| stream_vbyte::parse(&p.val_bytes).ok())
                .filter(|pg| pg.mode == 0)
                .collect();
            let n: u64 = parsed.iter().map(|pg| pg.num_deltas() as u64).sum();
            let mut lanes = vec![0u32; parsed.iter().map(|pg| pg.num_deltas()).max().unwrap_or(0)];
            probe.rate(
                "simd.svb_quads_ints_per_s".into(),
                "simd.svb.decode_quads",
                n,
                || {
                    for pg in &parsed {
                        let m = pg.num_deltas();
                        black_box(svb::decode_quads(
                            black_box(pg.controls),
                            pg.data,
                            m,
                            &mut lanes[..m],
                        ));
                    }
                },
            );
        }
    }
}

/// `core::sql` and `core::physical::pipe` over the workload's distinct
/// queries; the plan decisions give the exact pruning and strategy counts.
fn planner_layers(probe: &mut Probe, fx: &Fixture) {
    let calls = fx.queries.len() as u64;
    probe.micros_per_call(
        "core.sql.parse_us",
        "core.sql.parse_statement",
        calls,
        || {
            for q in &fx.queries {
                black_box(sql::parse_statement(black_box(&q.sql)).expect("parses"));
            }
        },
    );
    let cfg = fx.db.options().pipeline;
    probe.micros_per_call(
        "core.pipe.compile_us",
        "core.physical.pipe.compile",
        calls,
        || {
            for q in &fx.queries {
                black_box(pipe::compile(&q.plan, fx.db.store(), &cfg).expect("compiles"));
            }
        },
    );
    let (mut pages, mut pruned, mut fused, mut decode, mut header) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for q in &fx.queries {
        let plan = pipe::compile(&q.plan, fx.db.store(), &cfg).expect("compiles");
        for d in plan.pipelines.iter().flat_map(|p| &p.decisions) {
            pages += 1;
            match d.strategy {
                None => pruned += 1,
                Some(Strategy::FusedTs2Diff | Strategy::FusedDeltaRle | Strategy::FusedSvb) => {
                    fused += 1
                }
                Some(Strategy::HeaderMinMax) => header += 1,
                Some(Strategy::Decode | Strategy::Serial) => decode += 1,
            }
        }
    }
    let kept = pages - pruned;
    for (metric, value) in [
        ("core.pipe.pruned_page_ratio", share(pruned, pages)),
        ("core.pipe.strategy_share.fused", share(fused, kept)),
        ("core.pipe.strategy_share.decode", share(decode, kept)),
        ("core.pipe.strategy_share.header", share(header, kept)),
    ] {
        probe.out.insert(metric.to_string(), value);
    }
}

/// `storage`: the write path on a scratch store with the workload's own
/// codecs and page size, and the read-side calls on the real store.
fn storage_layers(probe: &mut Probe, fx: &Fixture, pages: &[Arc<Page>]) {
    let store = fx.db.store();
    let names = store.series_names();
    let page_points = fx.db.options().page_points;
    // Replaying decoded pages gives appends the workload's real values.
    let columns: Vec<(String, Encoding, Vec<i64>, Vec<i64>)> = names
        .iter()
        .filter_map(|name| {
            let first = store.peek_pages(name).ok()?.into_iter().next()?;
            let (ts, vals) = first.decode().ok()?;
            Some((name.clone(), first.header.val_encoding, ts, vals))
        })
        .collect();
    let points: u64 = columns.iter().map(|c| c.2.len() as u64).sum();
    // A scratch store holding the first `take` points of every column.
    let scratch = |take: usize| {
        let s = SeriesStore::new(page_points);
        for (name, codec, ts, vals) in &columns {
            s.create_series(name, Encoding::Ts2Diff, *codec);
            for (&t, &v) in ts.iter().zip(vals).take(take) {
                s.append(name, t, v).expect("increasing clock");
            }
        }
        s
    };
    probe.rate(
        "storage.append_points_per_s".into(),
        "storage.store.append",
        points,
        || {
            black_box(scratch(usize::MAX));
        },
    );
    // Flush of a half-full hot chunk: the seal (encode + checksum) cost.
    // Only the flushes are timed, so this is not a `Probe` pass.
    let mut flush_secs = Vec::new();
    let begun = Instant::now();
    while flush_secs.len() < 3 || begun.elapsed() < probe.slice {
        let s = scratch(page_points / 2);
        let span = probe
            .tracer
            .begin("storage.store.flush", Some(probe.root), 0);
        let t = Instant::now();
        for (name, ..) in &columns {
            s.flush(name).expect("flush");
        }
        flush_secs.push(t.elapsed().as_secs_f64() / columns.len().max(1) as f64);
        probe.tracer.end_counted(span, columns.len() as u64);
    }
    probe.out.insert(
        "storage.flush_us".into(),
        summarize(&flush_secs).median * 1e6,
    );
    probe.micros_per_call(
        "storage.snapshot_us",
        "storage.store.snapshot",
        names.len() as u64,
        || {
            for name in &names {
                black_box(store.snapshot(name).expect("series exists"));
            }
        },
    );
    let sample: Vec<&Arc<Page>> = pages
        .iter()
        .step_by(pages.len().div_ceil(PAGES_PER_CODEC).max(1))
        .collect();
    let bytes: u64 = sample.iter().map(|p| p.encoded_len() as u64).sum();
    probe.rate(
        "storage.page_verify_bytes_per_s".into(),
        "storage.page.verify",
        bytes,
        || {
            for p in &sample {
                black_box(p.verify()).expect("stored page verifies");
            }
        },
    );
}

/// `serve::proto` on the workload's own queries and answers, and
/// `Client::ping` against the running server.
fn serve_layers(probe: &mut Probe, fx: &Fixture) {
    let Some(server) = &fx.server else {
        return;
    };
    let results: Vec<_> = fx
        .queries
        .iter()
        .map(|q| fx.db.query(&q.sql).expect("verified query runs"))
        .collect();
    let calls = fx.queries.len() as u64;
    let frames = || {
        fx.queries.iter().zip(&results).map(|(q, r)| {
            (
                proto::encode_frame(FrameType::Query, q.sql.as_bytes()),
                proto::encode_frame(FrameType::Result, &proto::encode_result(black_box(r))),
            )
        })
    };
    probe.micros_per_call("serve.proto.encode_us", "serve.proto.encode", calls, || {
        frames().for_each(|pair| {
            black_box(pair);
        });
    });
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames().collect();
    probe.micros_per_call("serve.proto.decode_us", "serve.proto.decode", calls, || {
        let mut dec = FrameDecoder::new(proto::DEFAULT_MAX_FRAME_LEN);
        for (query, result) in &encoded {
            dec.extend(query);
            black_box(dec.next_frame().expect("own frame"));
            dec.extend(result);
            let frame = dec.next_frame().expect("own frame").expect("complete");
            black_box(proto::decode_result(&frame.payload).expect("own payload"));
        }
    });
    // One ping per span: a round trip is the item, not a batch of them.
    let mut rtts = Vec::new();
    if let Ok(mut client) = Client::connect(server.addr()) {
        let begun = Instant::now();
        while rtts.len() < 20 || begun.elapsed() < probe.slice * 4 {
            let span = probe.tracer.begin("serve.client.ping", Some(probe.root), 0);
            let t = Instant::now();
            let ok = client.ping().is_ok();
            let secs = t.elapsed().as_secs_f64();
            probe.tracer.end(span);
            if !ok {
                break;
            }
            rtts.push(secs);
        }
    }
    probe.out.insert(
        "serve.conn.ping_rtt_us".into(),
        summarize(&rtts).median * 1e6,
    );
}

/// Every per-layer measurement that does not need the query loop; each
/// metric gets `slice` of wall time.
pub fn measure(fx: &Fixture, slice: Duration, tracer: &mut Tracer, root: SpanId) -> Values {
    let mut probe = Probe {
        slice,
        tracer,
        root,
        out: Values::new(),
    };
    let store = fx.db.store();
    let pages: Vec<Arc<Page>> = store
        .series_names()
        .iter()
        .flat_map(|name| store.peek_pages(name).expect("listed series exists"))
        .collect();
    codec_layers(&mut probe, &pages);
    planner_layers(&mut probe, fx);
    storage_layers(&mut probe, fx, &pages);
    serve_layers(&mut probe, fx);
    probe.out
}
