//! The sharded series map: N independent `RwLock<BTreeMap>` shards keyed
//! by series-name hash, each entry a per-series mutex.
//!
//! This is the Gorilla TSmap shape (Pelkonen et al., VLDB 2015): lookups
//! take one shard **read** lock (shared — appenders to different series
//! in the same shard do not serialize on the map) plus the one
//! per-series mutex; only series creation takes a shard write lock. With
//! the default 64 shards, millions of series ingest in parallel without
//! a store-wide lock convoy — the old single `RwLock<BTreeMap>` write-
//! locked the entire store on every single `append`.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::ingest::hot::HotChunk;
use crate::segment::SealedPages;

/// Default shard count (power of two; tuned for "many cores hammering
/// many series", not memory — an empty shard is one lock and one map).
pub const DEFAULT_SHARDS: usize = 64;

/// Lockdep class of every shard-map `RwLock` (see DESIGN.md §13: the
/// declared order is shard → series → nothing).
pub const LOCK_CLASS_SHARD: &str = "storage.shard";
/// Lockdep class of every per-series state mutex.
pub const LOCK_CLASS_SERIES: &str = "storage.series";

/// Everything the store knows about one series, behind its own mutex.
#[derive(Debug, Default)]
pub struct SeriesState {
    /// Sealed, immutable, checksummed pages in time order, in segments.
    pub pages: SealedPages,
    /// The live append buffer; `None` for page-only series (loaded from
    /// a TsFile or inserted pre-encoded).
    pub hot: Option<HotChunk>,
}

/// One series entry: the mutex is held for the duration of an append
/// batch, a seal, or a snapshot — never across shard-map operations.
#[derive(Debug, Default)]
pub struct SeriesCell {
    /// The series state (pages + hot chunk).
    pub state: Mutex<SeriesState>,
}

struct Shard {
    map: RwLock<BTreeMap<String, Arc<SeriesCell>>>,
}

/// FNV-1a over the series name — stable, allocation-free, and good
/// enough to spread names across a power-of-two shard count.
fn shard_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // Fold the high bits down so masking with a small shard count still
    // sees the whole hash.
    h ^ (h >> 32)
}

/// The sharded name → series map.
pub struct ShardMap {
    shards: Box<[Shard]>,
    mask: u64,
}

impl ShardMap {
    /// Creates a map with `shards` shards (rounded up to a power of two,
    /// minimum 1).
    pub fn new(shards: usize) -> Self {
        // Seed the declared lock order: a shard guard is always dropped
        // before the series mutex is taken (see `get`), so the edge
        // would never be observed from nesting — declare it instead, so
        // an inverted series → shard acquisition anywhere panics.
        #[cfg(feature = "lockdep")]
        parking_lot::lockdep::declare_order(LOCK_CLASS_SHARD, LOCK_CLASS_SERIES);
        let n = shards.max(1).next_power_of_two();
        let shards: Vec<Shard> = (0..n)
            .map(|_| Shard {
                map: RwLock::with_class(BTreeMap::new(), LOCK_CLASS_SHARD),
            })
            .collect();
        ShardMap {
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, name: &str) -> &Shard {
        let idx = (shard_hash(name) & self.mask) as usize;
        // Masked index is always in range; avoid the panicking indexer in
        // this hot path.
        self.shards.get(idx).unwrap_or(&self.shards[0])
    }

    /// Looks up a series cell (shard read lock only).
    pub fn get(&self, name: &str) -> Option<Arc<SeriesCell>> {
        self.shard_of(name).map.read().get(name).cloned()
    }

    /// Returns the cell for `name`, inserting `init()` if absent
    /// (shard write lock; existing cells are returned untouched, making
    /// series creation idempotent).
    pub fn get_or_insert(&self, name: &str, init: impl FnOnce() -> SeriesState) -> Arc<SeriesCell> {
        let shard = self.shard_of(name);
        if let Some(cell) = shard.map.read().get(name) {
            return Arc::clone(cell);
        }
        let mut map = shard.map.write();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| {
            Arc::new(SeriesCell {
                state: Mutex::with_class(init(), LOCK_CLASS_SERIES),
            })
        }))
    }

    /// All series names, globally sorted (each shard's BTreeMap is
    /// sorted; the cross-shard collection is merged by a final sort so
    /// callers see the same deterministic order the old single map gave).
    pub fn names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.map.read().keys().cloned());
        }
        out.sort_unstable();
        out
    }
}

impl std::fmt::Debug for ShardMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMap")
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardMap::new(0).shard_count(), 1);
        assert_eq!(ShardMap::new(1).shard_count(), 1);
        assert_eq!(ShardMap::new(3).shard_count(), 4);
        assert_eq!(ShardMap::new(64).shard_count(), 64);
    }

    #[test]
    fn names_are_globally_sorted() {
        let map = ShardMap::new(8);
        for name in ["zeta", "alpha", "mid", "beta.7", "beta.12"] {
            map.get_or_insert(name, SeriesState::default);
        }
        let names = map.names();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn get_or_insert_is_idempotent() {
        let map = ShardMap::new(4);
        let a = map.get_or_insert("s", SeriesState::default);
        let b = map.get_or_insert("s", SeriesState::default);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(map.get("missing").is_none());
    }

    #[test]
    fn many_series_spread_over_shards() {
        let map = ShardMap::new(16);
        for i in 0..256 {
            map.get_or_insert(&format!("sensor.{i}"), SeriesState::default);
        }
        assert_eq!(map.names().len(), 256);
        // The hash must actually use more than one shard.
        let used: std::collections::BTreeSet<u64> = (0..256)
            .map(|i| shard_hash(&format!("sensor.{i}")) & map.mask)
            .collect();
        assert!(used.len() > 8, "hash collapsed to {} shards", used.len());
    }
}
