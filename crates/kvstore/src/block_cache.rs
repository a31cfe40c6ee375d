//! Server-side block cache — a byte-capacity-bounded LRU over store-file
//! blocks, shared by every region a region server hosts.
//!
//! Mirrors the HBase `BlockCache`: scans and gets read whole blocks, and a
//! repeated read of the same region is served from memory instead of
//! "disk". Every block here is already resident in the file that owns it, so
//! the cache holds no block: it keeps the `(file_id, block index) → bytes`
//! bookkeeping that decides whether a read is a hit or a miss and what a
//! miss evicts, and the reader borrows the block from its file. Store files
//! are immutable, so entries never go stale — a compaction simply produces
//! files with fresh ids and the dead entries age out via LRU.
//!
//! Recency is tracked with a logical tick counter under the same mutex as
//! the map, so eviction order depends only on the access sequence — no
//! wall-clock reads, keeping traces and metrics deterministic. Entries are
//! also indexed by tick, so eviction pops the index's first key instead of
//! scanning the map for the least recently used entry.

use crate::clock::Clock;
use crate::metrics::ClusterMetrics;
use crate::storefile::{Block, StoreFile};
use parking_lot::{Mutex, RwLock};
use shc_obs::events::{EventJournal, Severity};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// LRU block cache with a byte capacity, shared per region server.
pub struct BlockCache {
    capacity_bytes: usize,
    metrics: Arc<ClusterMetrics>,
    inner: Mutex<CacheInner>,
    /// Per-instance hit/miss tallies — the cluster metrics aggregate every
    /// cache in the process, these feed the owning server's `ServerLoad`.
    hits: AtomicU64,
    misses: AtomicU64,
    /// Flight recorder + cluster clock; eviction pressure leaves a
    /// journaled record when attached.
    events: RwLock<Option<(Arc<EventJournal>, Clock)>>,
}

struct CacheInner {
    map: HashMap<(u64, usize), Entry>,
    /// One `tick → key` per entry of `map`, where `tick` is the entry's
    /// `last_used` as of when it was indexed. A hit only bumps `last_used`
    /// (hits stay one hash lookup); eviction re-indexes the stale entries
    /// it pops, so the first *current* one it reaches is the true LRU —
    /// every entry still indexed was last used no earlier than its key.
    by_tick: BTreeMap<u64, (u64, usize)>,
    used_bytes: usize,
    tick: u64,
}

struct Entry {
    /// What the block counts against the capacity: its `byte_size`.
    bytes: usize,
    last_used: u64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("BlockCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("used_bytes", &inner.used_bytes)
            .field("blocks", &inner.map.len())
            .finish()
    }
}

impl BlockCache {
    /// A cache holding at most `capacity_bytes` of block payload. Zero
    /// capacity disables caching: every read is a miss and nothing is kept.
    pub fn new(capacity_bytes: usize, metrics: Arc<ClusterMetrics>) -> Self {
        BlockCache {
            capacity_bytes,
            metrics,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                by_tick: BTreeMap::new(),
                used_bytes: 0,
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            events: RwLock::new(None),
        }
    }

    /// Attach the cluster's flight recorder; evictions are journaled as
    /// `block-cache` events from then on (see
    /// [`journal_evictions`](Self::journal_evictions)).
    pub fn attach_events(&self, journal: Arc<EventJournal>, clock: Clock) {
        *self.events.write() = Some((journal, clock));
    }

    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Lifetime hits against this cache instance.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime misses against this cache instance.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn used_bytes(&self) -> usize {
        self.inner.lock().used_bytes
    }

    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Account a read of a block through the cache, counting the hit or
    /// miss — and what a miss evicted — in `tally`. Misses enter the block
    /// (when it fits at all) and evict least-recently-used entries until the
    /// capacity holds again.
    pub fn get_or_load(&self, file: &StoreFile, block_idx: usize, tally: &mut ReadTally) {
        let key = (file.file_id(), block_idx);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.last_used = tick;
            drop(guard);
            tally.hits += 1;
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.add(&self.metrics.block_cache_hits, 1);
            return;
        }
        let bytes = file.block(block_idx).byte_size();
        let mut evictions = 0u64;
        if bytes > 0 && bytes <= self.capacity_bytes {
            inner.used_bytes += bytes;
            inner.map.insert(
                key,
                Entry {
                    bytes,
                    last_used: tick,
                },
            );
            // The block just inserted is indexed only after the loop, so it
            // is never its own victim.
            while inner.used_bytes > self.capacity_bytes {
                let Some((indexed_at, victim)) = inner.by_tick.pop_first() else {
                    break;
                };
                let last_used = inner.map[&victim].last_used;
                if last_used != indexed_at {
                    inner.by_tick.insert(last_used, victim);
                    continue;
                }
                let gone = inner.map.remove(&victim).expect("indexed entry present");
                inner.used_bytes -= gone.bytes;
                evictions += 1;
            }
            inner.by_tick.insert(tick, key);
        }
        drop(guard);
        tally.misses += 1;
        tally.evictions += evictions;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.add(&self.metrics.block_cache_misses, 1);
        if evictions > 0 {
            self.metrics
                .add(&self.metrics.block_cache_evictions, evictions);
        }
    }

    /// Leave one flight-recorder event for the `evicted` blocks a read
    /// pushed out — called once per scan batch or get, not per block, so
    /// cache pressure cannot flush every other category out of the ring.
    pub fn journal_evictions(&self, evicted: u64) {
        if evicted == 0 {
            return;
        }
        if let Some((journal, clock)) = self.events.read().as_ref() {
            journal.record(
                Severity::Warn,
                "block-cache",
                clock.peek_ms(),
                format!("evicted {evicted} block(s) under capacity pressure"),
            );
        }
    }
}

/// Block reads of one scan (or get, or compaction), folded into `ScanStats`
/// when it finishes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadTally {
    pub hits: u64,
    pub misses: u64,
    /// Blocks the misses pushed out of the cache.
    pub evictions: u64,
}

/// Borrow one block of `file`, accounting the read — through the cache when
/// one is present — to `tally`. Cacheless reads count as misses: every block
/// comes from "disk".
pub fn load_block<'f>(
    file: &'f StoreFile,
    idx: usize,
    cache: Option<&BlockCache>,
    tally: &mut ReadTally,
) -> &'f Block {
    match cache {
        Some(cache) => cache.get_or_load(file, idx, tally),
        None => tally.misses += 1,
    }
    file.block(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cell, CellKey, CellType};
    use bytes::Bytes;

    fn file_with_rows(n: usize, tag: &str) -> StoreFile {
        let cells: Vec<Cell> = (0..n)
            .map(|i| Cell {
                key: CellKey {
                    row: Bytes::from(format!("{tag}-{i:05}").into_bytes()),
                    family: Bytes::from_static(b"cf"),
                    qualifier: Bytes::from_static(b"q"),
                    timestamp: 1,
                    seq: 1,
                    cell_type: CellType::Put,
                },
                value: Bytes::from_static(b"value"),
            })
            .collect();
        StoreFile::from_sorted(cells).unwrap()
    }

    /// Load through `cache` and say whether it was a hit.
    fn hit(cache: &BlockCache, file: &StoreFile, idx: usize) -> bool {
        let mut tally = ReadTally::default();
        cache.get_or_load(file, idx, &mut tally);
        assert_eq!(tally.hits + tally.misses, 1);
        tally.hits == 1
    }

    #[test]
    fn second_read_hits() {
        let metrics = ClusterMetrics::new();
        let cache = BlockCache::new(1 << 20, Arc::clone(&metrics));
        let f = file_with_rows(10, "a");
        assert!(!hit(&cache, &f, 0));
        assert!(hit(&cache, &f, 0));
        let snap = metrics.snapshot();
        assert_eq!(snap.block_cache_hits, 1);
        assert_eq!(snap.block_cache_misses, 1);
        assert_eq!(snap.block_cache_evictions, 0);
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let metrics = ClusterMetrics::new();
        let f = file_with_rows(crate::storefile::BLOCK_SIZE * 3, "a");
        let one_block = f.block(0).byte_size();
        // Room for two blocks, not three.
        let cache = BlockCache::new(one_block * 2, Arc::clone(&metrics));
        let mut tally = ReadTally::default();
        cache.get_or_load(&f, 0, &mut tally);
        cache.get_or_load(&f, 1, &mut tally);
        // Touch block 0 so block 1 is the LRU victim.
        cache.get_or_load(&f, 0, &mut tally);
        cache.get_or_load(&f, 2, &mut tally);
        assert_eq!(
            tally,
            ReadTally {
                hits: 1,
                misses: 3,
                evictions: 1
            }
        );
        assert_eq!(metrics.snapshot().block_cache_evictions, 1);
        assert!(hit(&cache, &f, 0), "recently used block survives");
        assert!(!hit(&cache, &f, 1), "LRU block was evicted");
        assert!(cache.used_bytes() <= cache.capacity_bytes());
    }

    /// The tick index must pick the victims a full scan for the minimum
    /// `last_used` would: replay a seeded access sequence against a model
    /// LRU and compare every hit/miss and the final contents.
    #[test]
    fn eviction_order_matches_a_model_lru() {
        let f = file_with_rows(crate::storefile::BLOCK_SIZE * 12, "a");
        let one_block = f.block(0).byte_size();
        let cache = BlockCache::new(one_block * 4, ClusterMetrics::new());
        let mut model: Vec<usize> = Vec::new(); // least recently used first
        let mut x = 2018u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let idx = (x >> 33) as usize % 12;
            let expect_hit = model.contains(&idx);
            model.retain(|&b| b != idx);
            model.push(idx);
            if model.len() > 4 {
                model.remove(0);
            }
            assert_eq!(hit(&cache, &f, idx), expect_hit, "block {idx}");
        }
        assert_eq!(cache.len(), model.len());
        for idx in model {
            assert!(hit(&cache, &f, idx));
        }
    }

    #[test]
    fn zero_capacity_never_caches() {
        let metrics = ClusterMetrics::new();
        let cache = BlockCache::new(0, Arc::clone(&metrics));
        let f = file_with_rows(4, "a");
        for _ in 0..3 {
            assert!(!hit(&cache, &f, 0));
        }
        assert!(cache.is_empty());
        assert_eq!(metrics.snapshot().block_cache_misses, 3);
    }

    #[test]
    fn files_do_not_collide() {
        let metrics = ClusterMetrics::new();
        let cache = BlockCache::new(1 << 20, Arc::clone(&metrics));
        let a = file_with_rows(4, "a");
        let b = file_with_rows(4, "b");
        let mut tally = ReadTally::default();
        let block = load_block(&a, 0, Some(&cache), &mut tally);
        assert_eq!(block.cell(0).row, b"a-00000");
        let block = load_block(&b, 0, Some(&cache), &mut tally);
        assert_eq!(tally.hits, 0, "different files must not share entries");
        assert_eq!(block.cell(0).row, b"b-00000");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cacheless_loads_count_as_misses() {
        let mut tally = ReadTally::default();
        let f = file_with_rows(4, "a");
        let block = load_block(&f, 0, None, &mut tally);
        assert_eq!(block.len(), 4);
        assert_eq!(tally.misses, 1);
        assert_eq!(tally.hits, 0);
    }

    #[test]
    fn evictions_are_journaled_once_per_read_with_their_count() {
        let f = file_with_rows(crate::storefile::BLOCK_SIZE * 6, "a");
        let cache = BlockCache::new(f.block(0).byte_size(), ClusterMetrics::new());
        let journal = EventJournal::new(16);
        cache.attach_events(Arc::clone(&journal), Clock::logical(5));
        let mut tally = ReadTally::default();
        for idx in 0..6 {
            cache.get_or_load(&f, idx, &mut tally);
        }
        assert_eq!(tally.evictions, 5);
        assert!(journal.is_empty(), "loading a block journals nothing");
        cache.journal_evictions(tally.evictions);
        cache.journal_evictions(0);
        let events = journal.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].category, "block-cache");
        assert!(events[0].message.starts_with("evicted 5 block(s)"));
    }
}
