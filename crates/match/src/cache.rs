//! Shared, thread-safe cache of data-graph vertex profiles.
//!
//! Every query filtered against a data graph `G` needs `all_profiles(G, r)`
//! — by far the most expensive graph-wide precomputation in the filtering
//! pipeline (a BFS per vertex for `r > 1`). The profiles depend only on
//! `(G, r)`, so across a query batch they can be computed once and shared.
//!
//! Entries are keyed by [`Graph::content_fingerprint`], not by pointer or
//! name: a graph rebuilt with any change to labels or edges hashes to a
//! different key and can never be served stale profiles (see
//! `stale_profiles_are_never_served` below). By default the cache holds an
//! unbounded list of entries — in practice one data graph × one or two
//! radii — each behind an `Arc` so concurrent readers share one
//! allocation. Long-running servers that see many distinct data graphs can
//! bound it with [`ProfileCache::with_capacity`]: over-capacity inserts
//! evict the least-recently-used entry and count it in
//! [`ProfileCache::evicted_total`].

use crate::profile::{all_profiles, ProfileTable};
use neursc_graph::Graph;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct CacheEntry {
    fingerprint: u64,
    radius: u32,
    profiles: Arc<ProfileTable>,
    /// Recency stamp from the cache-wide tick, updated on every hit (atomic
    /// so hits stay on the shared read lock).
    last_used: AtomicU64,
}

/// One exported cache entry — see [`ProfileCache::export_entries`].
#[derive(Debug, Clone)]
pub struct ProfileExport {
    /// Content fingerprint of the profiled graph.
    pub fingerprint: u64,
    /// Profile radius the entry was computed at.
    pub radius: u32,
    /// The cached profiles (shared, not copied).
    pub profiles: Arc<ProfileTable>,
}

/// Thread-safe `(graph, radius) → all_profiles` cache.
///
/// Readers take a shared lock; a miss computes outside any lock and then
/// double-checks under the write lock, so concurrent first requests for the
/// same graph do redundant work at worst, never deadlock or corruption.
#[derive(Debug, Default)]
pub struct ProfileCache {
    entries: RwLock<Vec<CacheEntry>>,
    /// Maximum number of entries; 0 = unbounded (the offline default).
    capacity: AtomicUsize,
    /// Monotonic recency clock.
    tick: AtomicU64,
    /// Total entries evicted over the cache's lifetime.
    evicted: AtomicU64,
}

impl ProfileCache {
    /// An empty, unbounded cache (the offline default — nothing is ever
    /// evicted, preserving bit-determinism of repeated runs).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to at most `capacity` entries (min 1). When
    /// an insert exceeds the bound, the least-recently-used entry is
    /// dropped and counted in [`Self::evicted_total`]; outstanding `Arc`s
    /// to an evicted value stay valid.
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = Self::default();
        cache.capacity.store(capacity.max(1), Ordering::Relaxed);
        cache
    }

    /// Changes the capacity bound (`None` = unbounded). Shrinking takes
    /// effect on the next insert; existing entries are not evicted eagerly.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        self.capacity
            .store(capacity.map_or(0, |c| c.max(1)), Ordering::Relaxed);
    }

    /// Total entries evicted since construction (0 while unbounded).
    pub fn evicted_total(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn stamp(&self, e: &CacheEntry) {
        e.last_used
            .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Returns the radius-`r` profiles of `g`, computing and memoizing them
    /// on first request.
    pub fn profiles(&self, g: &Graph, r: u32) -> Arc<ProfileTable> {
        self.profiles_traced(g, r).0
    }

    /// [`Self::profiles`] plus observability data: whether the request hit
    /// the cache, and how long a miss spent building the profiles
    /// (`build_ns`, 0 on a hit). The core layer turns these into cache
    /// hit/miss counters and a `filter.profile_build` span.
    pub fn profiles_traced(&self, g: &Graph, r: u32) -> (Arc<ProfileTable>, bool, u64) {
        let fp = g.content_fingerprint();
        if let Some(hit) = self.lookup(fp, r) {
            return (hit, true, 0);
        }
        let t0 = std::time::Instant::now();
        let computed = Arc::new(all_profiles(g, r));
        let build_ns = t0.elapsed().as_nanos() as u64;
        (self.insert_or_share(fp, r, computed), false, build_ns)
    }

    fn insert_or_share(&self, fp: u64, r: u32, computed: Arc<ProfileTable>) -> Arc<ProfileTable> {
        let mut entries = self.entries.write();
        // Another thread may have inserted while we computed; keep the
        // existing entry so all readers share one allocation.
        if let Some(e) = entries
            .iter()
            .find(|e| e.fingerprint == fp && e.radius == r)
        {
            self.stamp(e);
            return Arc::clone(&e.profiles);
        }
        let entry = CacheEntry {
            fingerprint: fp,
            radius: r,
            profiles: Arc::clone(&computed),
            last_used: AtomicU64::new(0),
        };
        self.stamp(&entry);
        entries.push(entry);
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap > 0 {
            while entries.len() > cap {
                // Evict the least-recently-used entry (smallest stamp).
                let Some(victim) = entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                    .map(|(i, _)| i)
                else {
                    break;
                };
                entries.swap_remove(victim);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        computed
    }

    /// The active capacity bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        match self.capacity.load(Ordering::Relaxed) {
            0 => None,
            c => Some(c),
        }
    }

    /// Every cached entry, least recently used first, so replaying the
    /// list through [`Self::import`] into an empty cache reproduces the
    /// same LRU ordering (and therefore the same future eviction order).
    /// Values are shared (`Arc`), not copied — this is the warm-state
    /// export half of snapshot/restore for resident servers.
    pub fn export_entries(&self) -> Vec<ProfileExport> {
        let entries = self.entries.read();
        let mut ordered: Vec<&CacheEntry> = entries.iter().collect();
        ordered.sort_by_key(|e| e.last_used.load(Ordering::Relaxed));
        ordered
            .into_iter()
            .map(|e| ProfileExport {
                fingerprint: e.fingerprint,
                radius: e.radius,
                profiles: Arc::clone(&e.profiles),
            })
            .collect()
    }

    /// Inserts a precomputed entry — the warm-state restore half of
    /// snapshot/restore. Routes through the normal insert path: an entry
    /// already present is shared rather than replaced, and the capacity
    /// bound evicts the least-recently-used entry as usual.
    pub fn import(&self, fingerprint: u64, radius: u32, profiles: Arc<ProfileTable>) {
        let _ = self.insert_or_share(fingerprint, radius, profiles);
    }

    /// Overwrites the lifetime eviction counter, so a restored server's
    /// `cache.*.evicted` series continues where the snapshot left off
    /// instead of restarting from zero.
    pub fn restore_evicted_total(&self, evicted: u64) {
        self.evicted.store(evicted, Ordering::Relaxed);
    }

    /// Whether `(g, r)` is already memoized, without computing anything.
    pub fn contains(&self, g: &Graph, r: u32) -> bool {
        self.lookup(g.content_fingerprint(), r).is_some()
    }

    fn lookup(&self, fp: u64, r: u32) -> Option<Arc<ProfileTable>> {
        self.entries
            .read()
            .iter()
            .find(|e| e.fingerprint == fp && e.radius == r)
            .map(|e| {
                self.stamp(e);
                Arc::clone(&e.profiles)
            })
    }

    /// Number of memoized `(graph, radius)` entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Drops all entries (outstanding `Arc`s stay valid).
    pub fn clear(&self) {
        self.entries.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{paper_data_graph, vertex_profile};

    #[test]
    fn second_request_is_served_from_cache() {
        let cache = ProfileCache::new();
        let g = paper_data_graph();
        let a = cache.profiles(&g, 2);
        let b = cache.profiles(&g, 2);
        assert!(Arc::ptr_eq(&a, &b), "second request recomputed");
        assert_eq!(cache.len(), 1);
        for v in g.vertices() {
            assert_eq!(a[v as usize], vertex_profile(&g, v, 2));
        }
    }

    #[test]
    fn radii_are_cached_independently() {
        let cache = ProfileCache::new();
        let g = paper_data_graph();
        let r1 = cache.profiles(&g, 1);
        let r2 = cache.profiles(&g, 2);
        assert_eq!(cache.len(), 2);
        assert_ne!(r1[3], r2[3]); // v4's 2-ball sees strictly more labels
    }

    #[test]
    fn stale_profiles_are_never_served() {
        // A "mutated" data graph (graphs are immutable, so mutation means a
        // rebuilt graph with different content) must get fresh profiles.
        let cache = ProfileCache::new();
        let g = paper_data_graph();
        let before = cache.profiles(&g, 1);

        // Same topology, one label changed (v1: A → C).
        let mut labels: Vec<u32> = g.labels().to_vec();
        labels[0] = 2;
        let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u, e.v)).collect();
        let mutated = Graph::from_edges(g.n_vertices(), &labels, &edges).unwrap();

        let after = cache.profiles(&mutated, 1);
        assert_eq!(cache.len(), 2, "mutated graph must occupy its own entry");
        assert!(!Arc::ptr_eq(&before, &after));
        // v4 is adjacent to v1, so its profile must reflect the new label.
        assert_eq!(after[3], vertex_profile(&mutated, 3, 1));
        assert_ne!(after[3], before[3]);
        // The original graph still hits its own (unchanged) entry.
        assert!(Arc::ptr_eq(&before, &cache.profiles(&g, 1)));
    }

    #[test]
    fn concurrent_first_requests_converge_to_one_entry() {
        let cache = ProfileCache::new();
        let g = paper_data_graph();
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    let p = cache.profiles(&g, 2);
                    assert_eq!(p.len(), g.n_vertices());
                });
            }
        })
        .unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = ProfileCache::with_capacity(2);
        let g = paper_data_graph();
        let r1 = cache.profiles(&g, 1);
        let _r2 = cache.profiles(&g, 2);
        // Touch radius 1 so radius 2 becomes the LRU victim.
        assert!(Arc::ptr_eq(&r1, &cache.profiles(&g, 1)));
        let _r3 = cache.profiles(&g, 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evicted_total(), 1);
        assert!(cache.contains(&g, 1), "recently-used entry survived");
        assert!(cache.contains(&g, 3), "new entry present");
        assert!(!cache.contains(&g, 2), "LRU entry evicted");
        // The evicted value is recomputed on demand, correctly.
        let fresh = cache.profiles(&g, 2);
        assert_eq!(fresh[0], vertex_profile(&g, 0, 2));
        assert_eq!(cache.evicted_total(), 2, "recompute evicted the next LRU");
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ProfileCache::new();
        let g = paper_data_graph();
        for r in 1..=6 {
            let _ = cache.profiles(&g, r);
        }
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.evicted_total(), 0);
    }

    #[test]
    fn set_capacity_takes_effect_on_next_insert() {
        let cache = ProfileCache::new();
        let g = paper_data_graph();
        let _ = cache.profiles(&g, 1);
        let _ = cache.profiles(&g, 2);
        let _ = cache.profiles(&g, 3);
        cache.set_capacity(Some(2));
        assert_eq!(cache.len(), 3, "shrink is lazy");
        let _ = cache.profiles(&g, 4);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evicted_total(), 2);
    }

    #[test]
    fn export_import_roundtrip_preserves_entries_and_lru_order() {
        let cache = ProfileCache::with_capacity(2);
        let g = paper_data_graph();
        let _ = cache.profiles(&g, 1);
        let _ = cache.profiles(&g, 2);
        let _ = cache.profiles(&g, 1); // touch r=1 → r=2 is now LRU
        let exported = cache.export_entries();
        assert_eq!(exported.len(), 2);
        assert_eq!(exported[0].radius, 2, "LRU entry exports first");
        assert_eq!(exported[1].radius, 1);

        let restored = ProfileCache::with_capacity(2);
        for e in &exported {
            restored.import(e.fingerprint, e.radius, Arc::clone(&e.profiles));
        }
        restored.restore_evicted_total(cache.evicted_total());
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.evicted_total(), cache.evicted_total());
        assert_eq!(restored.capacity(), Some(2));
        // Imported values are shared, and an insert evicts the same LRU
        // victim (r=2) the original would have chosen.
        assert!(Arc::ptr_eq(
            &exported[1].profiles,
            &restored.profiles(&g, 1)
        ));
        let _ = restored.profiles(&g, 3);
        assert!(
            !restored.contains(&g, 2),
            "restored LRU order drives eviction"
        );
        assert!(restored.contains(&g, 1));
    }

    #[test]
    fn clear_empties_but_keeps_outstanding_arcs_valid() {
        let cache = ProfileCache::new();
        let g = paper_data_graph();
        let p = cache.profiles(&g, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(p.len(), g.n_vertices()); // still readable
    }
}
