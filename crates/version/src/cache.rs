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
//! - at the cap of entries per epoch, a fill of a new key is dropped
//!   and a fill of a key already held replaces its value; the cap
//!   bounds the map, not the bytes of its values (the map never
//!   outlives one epoch, so pressure resolves itself at the next
//!   commit).
//!
//! Hits and misses are counted in the generation, under the lock each
//! lookup takes anyway, not in atomics of their own that every lookup
//! on every thread would also write.
//!
//! [`EpochCache::with`] runs a closure on the cached value under that
//! lock, so a caller that only copies the value out (the server frames
//! a cached response straight into a connection's outbox) needs no
//! shared ownership of it; [`EpochCache::get`] is `with` that clones.
//!
//! Callers sample the epoch *before* resolving the answer they fill: a
//! commit racing the fill then tags the entry with an already-stale
//! epoch, which only costs a future miss — never a stale hit. A write
//! transaction's own uncommitted edits don't move the epoch, so only
//! readers of committed state may use a cache.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

use parking_lot::Mutex;

/// Entries resolved at one epoch, and the lookups counted so far.
struct Generation<K, V> {
    epoch: u64,
    map: HashMap<K, V>,
    hits: u64,
    misses: u64,
}

/// A bounded map invalidated wholesale by the commit epoch, with hit
/// and miss counters.
pub struct EpochCache<K, V> {
    inner: Mutex<Generation<K, V>>,
    cap: usize,
}

impl<K: Hash + Eq, V> EpochCache<K, V> {
    /// A cache holding at most `cap` entries per epoch.
    pub fn new(cap: usize) -> EpochCache<K, V> {
        EpochCache {
            inner: Mutex::new(Generation {
                epoch: 0,
                map: HashMap::new(),
                hits: 0,
                misses: 0,
            }),
            cap,
        }
    }

    /// `f` of the value cached for `key` as of `epoch`, run under the
    /// cache's lock, counting a hit or a miss: a caller that only copies
    /// the value somewhere borrows it instead of cloning it.
    pub fn with<Q, R>(&self, epoch: u64, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut inner = self.inner.lock();
        advance(&mut inner, epoch);
        let Generation {
            epoch: at,
            map,
            hits,
            misses,
        } = &mut *inner;
        let found = if *at == epoch { map.get(key) } else { None };
        match found {
            Some(value) => {
                *hits += 1;
                Some(f(value))
            }
            None => {
                *misses += 1;
                None
            }
        }
    }

    /// The value cached for `key` as of `epoch`, counting a hit or a
    /// miss.
    pub fn get<Q>(&self, epoch: u64, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        self.with(epoch, key, V::clone)
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
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
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
        // The server's shape: owned byte keys, looked up by slice, and
        // values only ever borrowed.
        let c: EpochCache<Vec<u8>, Box<[u8]>> = EpochCache::new(16);
        assert_eq!(c.with(1, &b"k"[..], |v| v.to_vec()), None);
        c.insert(1, b"k".to_vec(), Box::from(&b"seven"[..]));
        assert_eq!(
            c.with(1, &b"k"[..], |v| v.to_vec()),
            Some(b"seven".to_vec())
        );
        assert_eq!(c.counters(), (1, 1));
    }

    #[test]
    fn with_counts_hits_and_misses_exactly_as_get_does() {
        let by_get = cache(8);
        let by_with = cache(8);
        // Miss, hit, miss at an older epoch, miss at a newer one, hit.
        let script = |c: &EpochCache<u64, Vec<u8>>, look: &dyn Fn(u64, u64) -> bool| {
            let mut seen = Vec::new();
            seen.push(look(2, 7));
            c.insert(2, 7, b"body".to_vec());
            seen.push(look(2, 7));
            seen.push(look(1, 7));
            seen.push(look(3, 7));
            c.insert(3, 7, b"body".to_vec());
            seen.push(look(3, 7));
            seen
        };
        let got = script(&by_get, &|epoch, key| by_get.get(epoch, &key).is_some());
        let withs = script(&by_with, &|epoch, key| {
            by_with
                .with(epoch, &key, |v| assert_eq!(v, b"body"))
                .is_some()
        });
        assert_eq!(got, [false, true, false, false, true]);
        assert_eq!(withs, got);
        assert_eq!(by_with.counters(), (2, 3));
        assert_eq!(by_with.counters(), by_get.counters());
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
        // The same after a borrowing lookup at the newer epoch.
        assert_eq!(c.with(3, &7, |_| ()), None);
        c.insert(2, 7, b"old".to_vec());
        assert_eq!(c.len(), 0);
        assert_eq!(c.with(3, &7, |_| ()), None);
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
