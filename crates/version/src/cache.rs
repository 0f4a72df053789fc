//! One epoch-tagged cache, used twice: the engine's map of materialized
//! historical version bodies (`vid → body`), and the network server's
//! map of wire-ready read responses (operation bytes → encoded
//! response).
//!
//! Both hold answers derived from the committed state at one commit
//! epoch, so both follow the same rules. The map holds one generation
//! at a time:
//!
//! - a lookup or fill at a **newer** epoch clears the map and moves it
//!   to that epoch (every entry is orphaned by the commit);
//! - a lookup at an **older** epoch misses and a fill at one is dropped,
//!   so a reader still holding an older sample never rolls the
//!   generation back and never evicts entries newer readers filled;
//! - at the cap, new fills are dropped (the map never outlives one
//!   epoch, so pressure resolves itself at the next commit).
//!
//! Callers sample the epoch *before* resolving the answer they fill: a
//! commit racing the fill then tags the entry with an already-stale
//! epoch, which only costs a future miss — never a stale hit. A write
//! transaction's own uncommitted edits don't move the epoch, so only
//! readers of committed state may use a cache.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Entries resolved at one epoch.
struct Generation<K, V> {
    epoch: u64,
    map: HashMap<K, V>,
}

/// A bounded map invalidated wholesale by the commit epoch, with hit
/// and miss counters.
pub struct EpochCache<K, V> {
    inner: Mutex<Generation<K, V>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> EpochCache<K, V> {
    /// A cache holding at most `cap` entries per epoch.
    pub fn new(cap: usize) -> EpochCache<K, V> {
        EpochCache {
            inner: Mutex::new(Generation {
                epoch: 0,
                map: HashMap::new(),
            }),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The value cached for `key` as of `epoch`, counting a hit or a
    /// miss.
    pub fn get<Q>(&self, epoch: u64, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut inner = self.inner.lock();
        advance(&mut inner, epoch);
        let value = if inner.epoch == epoch {
            inner.map.get(key).cloned()
        } else {
            None
        };
        drop(inner);
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Record the value `key` resolved to at `epoch`. Dropped when the
    /// cache has moved on to a newer epoch, or is full and `key` is new.
    pub fn insert(&self, epoch: u64, key: K, value: V) {
        let mut inner = self.inner.lock();
        advance(&mut inner, epoch);
        if inner.epoch == epoch && (inner.map.len() < self.cap || inner.map.contains_key(&key)) {
            inner.map.insert(key, value);
        }
    }

    /// Entries held for the current epoch.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// `(hits, misses)` since construction.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Move the generation forward to `epoch`, never back.
fn advance<K, V>(inner: &mut Generation<K, V>, epoch: u64) {
    if inner.epoch < epoch {
        inner.map.clear();
        inner.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn cache(cap: usize) -> EpochCache<u64, Vec<u8>> {
        EpochCache::new(cap)
    }

    #[test]
    fn hit_after_put_same_epoch() {
        let c = cache(8);
        assert_eq!(c.get(1, &7), None);
        c.insert(1, 7, b"body".to_vec());
        assert_eq!(c.get(1, &7).as_deref(), Some(&b"body"[..]));
        assert_eq!(c.counters(), (1, 1));
    }

    #[test]
    fn hit_after_fill_within_one_epoch() {
        // The server's shape: owned byte keys, looked up by slice.
        let c: EpochCache<Vec<u8>, Arc<[u8]>> = EpochCache::new(16);
        assert_eq!(c.get(1, &b"k"[..]), None);
        c.insert(1, b"k".to_vec(), Arc::from(&b"seven"[..]));
        assert_eq!(c.get(1, &b"k"[..]).as_deref(), Some(&b"seven"[..]));
        assert_eq!(c.counters(), (1, 1));
    }

    #[test]
    fn epoch_bump_invalidates() {
        let c = cache(8);
        c.insert(1, 7, b"old".to_vec());
        assert_eq!(c.get(2, &7), None);
        c.insert(2, 7, b"new".to_vec());
        assert_eq!(c.get(2, &7).as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn epoch_advance_invalidates_everything() {
        let c = cache(8);
        c.insert(1, 7, b"old".to_vec());
        c.insert(1, 8, b"other".to_vec());
        assert_eq!(c.get(2, &7), None);
        // The old-epoch entries cannot resurface later.
        assert_eq!(c.get(2, &7), None);
        assert_eq!(c.get(2, &8), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn bounded_by_cap() {
        let c = cache(2);
        c.insert(1, 1, vec![1]);
        c.insert(1, 2, vec![2]);
        c.insert(1, 3, vec![3]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1, &3), None);
        // Existing keys still update at capacity.
        c.insert(1, 1, vec![9]);
        assert_eq!(c.get(1, &1).as_deref(), Some(&[9u8][..]));
    }

    #[test]
    fn stale_fill_is_dropped() {
        let c = cache(8);
        assert_eq!(c.get(2, &7), None); // cache now at epoch 2
        c.insert(1, 7, b"old".to_vec()); // resolved pre-commit
        assert_eq!(c.get(2, &7), None);
    }

    #[test]
    fn an_older_read_does_not_evict_newer_entries() {
        let c = cache(8);
        c.insert(2, 7, b"new".to_vec());
        // A reader still at epoch 1 misses...
        assert_eq!(c.get(1, &7), None);
        // ...without rolling the generation back.
        assert_eq!(c.get(2, &7).as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn capacity_cap_drops_new_fills() {
        let c = cache(2);
        c.insert(1, 1, vec![1]);
        c.insert(1, 2, vec![2]);
        c.insert(1, 3, vec![3]);
        assert_eq!(c.get(1, &1).as_deref(), Some(&[1u8][..]));
        assert_eq!(c.get(1, &2).as_deref(), Some(&[2u8][..]));
        assert_eq!(c.get(1, &3), None);
    }
}
