//! # ETSQP — SIMD-vectorized aggregation pipelines over encoded IoT data
//!
//! A Rust reproduction of *"Exploring SIMD Vectorization in Aggregation
//! Pipelines for Encoded IoT Data"* (Kang, Song, Wang — ICDE 2025).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`simd`] — AVX2/scalar kernels: bit-unpacking (Figure 3), the
//!   Algorithm 1 delta-chain layout, filters, masked aggregation.
//! * [`encoding`] — the Table I codec zoo (TS2DIFF, RLE, Delta-RLE,
//!   Sprintz, RLBE, Gorilla, Chimp, Elf) over big-endian bit streams.
//! * [`storage`] — pages with pruning statistics, series receive buffers,
//!   an I/O-accounted store and a TsFile-lite container.
//! * [`core`] — the ETSQP engine: cost model (Prop. 1/Thm. 2), vectorized
//!   decode pipelines, operator fusion (§IV), pruning (§V), the
//!   Algorithm 2 planner/scheduler, SQL, and the [`IotDb`] facade.
//! * [`serve`] — the network query service: wire protocol, admission
//!   control with typed overload shedding, per-connection backpressure,
//!   graceful drain.
//! * [`fastlanes`], [`sboost`] — the reimplemented baselines of §VII-A.
//! * [`comparators`] — MonetDB-like / Spark-like stand-ins for Fig. 13.
//! * [`datasets`] — deterministic synthetics for Table II.
//!
//! ## Quickstart
//!
//! ```
//! use etsqp::{EngineOptions, IotDb};
//!
//! let db = IotDb::new(EngineOptions::default());
//! db.create_series("velocity").unwrap();
//! for i in 0..100_000i64 {
//!     db.append("velocity", i * 1000, 60 + (i % 25)).unwrap();
//! }
//! db.flush().unwrap();
//!
//! let r = db.query("SELECT AVG(velocity) FROM velocity \
//!                   WHERE time >= 10000000 AND time <= 90000000").unwrap();
//! println!("{:?} in {:?}", r.rows[0][0], r.elapsed);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use etsqp_comparators as comparators;
pub use etsqp_core as core;
pub use etsqp_datasets as datasets;
pub use etsqp_encoding as encoding;
pub use etsqp_fastlanes as fastlanes;
pub use etsqp_sboost as sboost;
pub use etsqp_serve as serve;
pub use etsqp_simd as simd;
pub use etsqp_storage as storage;

pub use etsqp_core::engine::{EngineOptions, IotDb};
pub use etsqp_core::expr::{AggFunc, Plan, Predicate, SlidingWindow, TimeRange};
pub use etsqp_core::float::FloatRange;
pub use etsqp_core::plan::{PipelineConfig, QueryResult, Value};
pub use etsqp_encoding::Encoding;
