//! The live ingestion engine: sharded series map + per-series hot chunks.
//!
//! This module replaces the old single `RwLock<BTreeMap>` write path with
//! the two-level structure of Gorilla (Pelkonen et al., VLDB 2015):
//!
//! 1. [`shard::ShardMap`] — series names hash (FNV-1a) into one of N
//!    shards, each an independent `RwLock<BTreeMap>`; appends take a
//!    shard **read** lock plus one per-series mutex, so writers to
//!    different series never contend on a global lock.
//! 2. [`hot::HotChunk`] — each series owns a live append buffer that
//!    seals into a checksummed [`crate::page::Page`] at a point-count or
//!    time-span threshold, keeping its codec configuration for the life
//!    of the series. Integer and float series share it: a float series
//!    buffers its values' ordered keys.
//!
//! Readers get consistency from [`hot::HotChunk::snapshot`]: a query
//! takes the series mutex once, copies `(sealed pages, hot columns)` as
//! one atomic pair, and then runs entirely on immutable data. See
//! DESIGN.md §11 for the full consistency argument.

pub mod hot;
pub mod shard;

pub use hot::{HotChunk, HotSnapshot};
pub use shard::{SeriesCell, SeriesState, ShardMap, DEFAULT_SHARDS};
