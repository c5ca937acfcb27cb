//! The physical pipeline layer (paper §VI, Algorithm 2 / Figure 9).
//!
//! The logical [`crate::expr::Plan`] is compiled by [`pipe::compile`]
//! into a [`pipe::PhysicalPlan`] — an explicit DAG of typed nodes
//! ([`node`]) recording, as data, every decision the old interpreter
//! buried in control flow: per-page §V prune verdicts, the fused /
//! decode / serial strategy per kept page (§IV), and the time-range
//! partitions of binary merge nodes. The crate-internal `driver` module
//! then maps that DAG onto the persistent pool, one job per segment
//! morsel of kept pages (a page for row scans), and [`pipe::explain`] renders it — `EXPLAIN` output and execution
//! share one compiled artifact, so the planner cannot silently diverge
//! from the executor.
//!
//! Operator bodies live beside the IR: scan-side in `scan`, aggregation
//! in `agg`, binary merges in `merge` (all crate-internal).

pub mod node;
pub mod pipe;
pub mod verify;

pub(crate) mod agg;
pub(crate) mod driver;
pub(crate) mod merge;
pub(crate) mod scan;
pub(crate) mod verify_partial;
pub(crate) mod window;
