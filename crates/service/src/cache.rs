//! A small bounded LRU map for request results.
//!
//! Capacity is expected to stay in the hundreds, so eviction scans for the
//! least-recently-used entry in O(n) instead of maintaining an intrusive
//! list; the scan is far cheaper than a single query evaluation.

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded least-recently-used cache.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, Entry<V>>,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (a capacity of 0 disables
    /// caching: every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity.min(1024)),
        }
    }

    /// Looks up a key, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.last_used = tick;
            entry.value.clone()
        })
    }

    /// Inserts a value, evicting the least-recently-used entry when full.
    /// Returns the evicted key, if an insert of a new key evicted one.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let mut evicted = None;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            evicted = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone());
            if let Some(evictee) = &evicted {
                self.map.remove(evictee);
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
        evicted
    }

    /// Whether `key` is cached (does not touch its recency).
    pub fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every cached entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterates over the cached keys in arbitrary order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    /// Evicts the least-recently-used entry among those whose key passes
    /// the predicate, returning the evicted key (`None` when nothing
    /// matches). The multi-tenant registry uses this to enforce per-tenant
    /// cache shares: a tenant over its share evicts its own LRU entry, not
    /// another tenant's.
    pub fn evict_lru_where(&mut self, mut pred: impl FnMut(&K) -> bool) -> Option<K> {
        let key = self
            .map
            .iter()
            .filter(|(key, _)| pred(key))
            .min_by_key(|(_, entry)| entry.last_used)
            .map(|(key, _)| key.clone())?;
        self.map.remove(&key);
        Some(key)
    }

    /// Keeps only the entries whose key/value pass the predicate.
    ///
    /// The multi-tenant registry uses this to invalidate one tenant's
    /// entries on corpus refresh without disturbing the others; recency
    /// ranks of the survivors are unchanged.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.map.retain(|key, entry| keep(key, &entry.value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut cache: LruCache<u32, String> = LruCache::new(4);
        assert!(cache.get(&1).is_none());
        cache.insert(1, "one".to_string());
        assert_eq!(cache.get(&1).as_deref(), Some("one"));
        assert!(cache.get(&2).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Touch 1 so that 2 becomes the LRU entry.
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(3, 30);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(10));
        assert!(
            cache.get(&2).is_none(),
            "LRU entry should have been evicted"
        );
        assert_eq!(cache.get(&3), Some(30));
    }

    #[test]
    fn reinserting_updates_in_place() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), Some(20));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache: LruCache<u32, u32> = LruCache::new(0);
        cache.insert(1, 10);
        assert!(cache.get(&1).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut cache: LruCache<u32, u32> = LruCache::new(4);
        cache.insert(1, 10);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 4);
    }

    #[test]
    fn eviction_order_under_interleaved_gets_and_inserts() {
        let mut cache: LruCache<u32, u32> = LruCache::new(3);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(3, 30);
        // Recency now (oldest first): 1, 2, 3. Touch 1 and 2; 3 becomes LRU.
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.insert(4, 40), Some(3));
        assert!(cache.get(&3).is_none());
        // Recency: 1, 2, 4. Re-inserting 1 refreshes it; 2 becomes LRU.
        assert_eq!(cache.insert(1, 11), None, "an update evicts nothing");
        assert_eq!(cache.insert(5, 50), Some(2));
        assert!(cache.get(&2).is_none());
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&4), Some(40));
        assert_eq!(cache.get(&5), Some(50));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn misses_do_not_refresh_recency() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // A miss on key 1's *value space* must not count as a touch of 1.
        assert!(cache.get(&99).is_none());
        assert_eq!(cache.get(&2), Some(20));
        cache.insert(3, 30); // evicts 1 (oldest real touch)
        assert!(cache.get(&1).is_none());
        assert_eq!(cache.get(&2), Some(20));
    }

    #[test]
    fn capacity_one_keeps_only_the_latest_entry() {
        let mut cache: LruCache<u32, u32> = LruCache::new(1);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(2, 20);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&1).is_none());
        assert_eq!(cache.get(&2), Some(20));
        // Updating the resident key in place must not evict it.
        cache.insert(2, 21);
        assert_eq!(cache.get(&2), Some(21));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_never_stores_even_after_many_inserts() {
        let mut cache: LruCache<u32, u32> = LruCache::new(0);
        for i in 0..100 {
            cache.insert(i, i);
            assert!(cache.is_empty());
        }
        assert_eq!(cache.capacity(), 0);
        assert!(cache.get(&50).is_none());
    }

    #[test]
    fn retain_drops_only_matching_entries() {
        let mut cache: LruCache<u32, u32> = LruCache::new(8);
        for i in 0..8 {
            cache.insert(i, i * 10);
        }
        cache.retain(|k, _| k % 2 == 0);
        assert_eq!(cache.len(), 4);
        for i in 0..8 {
            assert_eq!(cache.get(&i).is_some(), i % 2 == 0, "key {i}");
        }
        // Survivors keep working as normal LRU entries afterwards.
        cache.insert(9, 90);
        assert_eq!(cache.get(&9), Some(90));
    }
}
