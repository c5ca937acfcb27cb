//! # etsqp-serve — the network query service
//!
//! Puts the [`IotDb`] engine behind a TCP service speaking a
//! length-prefixed binary protocol, turning "heavy concurrent traffic"
//! from a benchmark flag into a real operating regime. The design is
//! robustness-first (DESIGN.md §15):
//!
//! * [`proto`] — the wire-frame grammar and its hostile-input-safe
//!   parsers (fuzzed as the `proto` target, corpus-replayed forever);
//! * [`admission`] — bounded in-flight execution + bounded wait queue;
//!   the overload policy is *shed fast with a typed
//!   [`Overloaded`](etsqp_core::Error::Overloaded) carrying a
//!   retry-after hint* rather than stacking latency;
//! * [`conn`] — per-connection backpressure on a blocking socket, every
//!   wait ended by the event it waits for: a slow reader stalls only
//!   its own connection, a half-open frame (slow-loris) is bounded, and
//!   a disconnect mid-query cancels the running query so pool workers
//!   are reclaimed;
//! * [`server`] — the thin blocking accept loop, the connection cap,
//!   stats, and the graceful drain protocol;
//! * [`client`] — a small blocking client (bench, chaos suite, CLI).
//!
//! ```no_run
//! use std::sync::Arc;
//! use etsqp_core::engine::{EngineOptions, IotDb};
//! use etsqp_serve::{client::{Client, Response}, server, ServeConfig};
//!
//! let db = Arc::new(IotDb::new(EngineOptions::default()));
//! let handle = server::start(db, "127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut c = Client::connect(handle.addr()).unwrap();
//! match c.query("SELECT COUNT(s) FROM s").unwrap() {
//!     Response::Rows(r) => println!("{:?}", r.rows),
//!     Response::ServerError(e) => eprintln!("server: {e}"),
//! }
//! handle.shutdown();
//! ```
//!
//! [`IotDb`]: etsqp_core::engine::IotDb

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod conn;
pub mod proto;
pub mod server;

pub use admission::AdmissionConfig;
pub use server::{ServeConfig, ServerHandle, StatsSnapshot};
