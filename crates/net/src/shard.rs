//! Shard placement: which backend owns which object.
//!
//! The paper's generic references ("an object id denotes the latest
//! version") stay honest under scale-out only if every route to an
//! object resolves through a single authority. [`ShardMap`] is that
//! routing function: a pure, restart-stable map from id to shard.
//!
//! ## Shard-qualified ids
//!
//! Backend shards are stock [`crate::OdeServer`]s, each allocating
//! object and version ids from its own counter — so raw backend ids
//! collide across shards. The router therefore multiplexes the N
//! backend id-spaces into one client-visible id-space by *minting*
//! shard-qualified ids: backend id `b` on shard `s` appears to clients
//! as `b * N + s`. Placement is then the low residue, `shard_of(id) =
//! id mod N` — the hash is the identity, because the id itself carries
//! its placement. (A mixing hash would scatter ids just as stably, but
//! would make the backend id unrecoverable; with residue routing, the
//! Euclidean decomposition `(id mod N, id div N)` inverts the minting
//! exactly, for *every* u64 — including ids a client fabricated.)
//!
//! Both [`Oid`] and [`Vid`] are qualified the same way, so any request
//! that names either routes deterministically. The map depends only on
//! `(id, shard_count)`: restarting the router, or running two routers
//! side by side over the same backends, yields the identical map — the
//! property `crates/net/tests/proptest_router.rs` pins down.

use ode::{Oid, Vid};

/// The pure placement function for a tier of `N` shards.
///
/// Stateless and trivially `Copy`: every property of the map follows
/// from the shard count alone, which is what makes it stable across
/// router restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: u64,
}

impl ShardMap {
    /// A map over `shards` backends. Panics on zero — a tier with no
    /// authority for any object is a configuration error, not a state.
    pub fn new(shards: usize) -> ShardMap {
        assert!(shards > 0, "a shard map needs at least one shard");
        ShardMap {
            shards: shards as u64,
        }
    }

    /// Number of shards in the tier.
    pub fn shard_count(&self) -> usize {
        self.shards as usize
    }

    /// The shard that owns `oid`. Total over all of u64: every id —
    /// minted or fabricated — maps to exactly one shard.
    pub fn shard_of(&self, oid: Oid) -> usize {
        (oid.0 % self.shards) as usize
    }

    /// The shard that owns the object `vid` belongs to. Versions are
    /// qualified identically to objects, so a version always lives on
    /// its object's shard.
    pub fn shard_of_vid(&self, vid: Vid) -> usize {
        (vid.0 % self.shards) as usize
    }

    /// Client-visible id for backend object `b` on shard `shard`.
    pub fn client_oid(&self, b: Oid, shard: usize) -> Oid {
        Oid(b.0 * self.shards + shard as u64)
    }

    /// Client-visible id for backend version `b` on shard `shard`.
    pub fn client_vid(&self, b: Vid, shard: usize) -> Vid {
        Vid(b.0 * self.shards + shard as u64)
    }

    /// Backend-local object id of a client-visible id (its owning shard
    /// is [`ShardMap::shard_of`]).
    pub fn backend_oid(&self, oid: Oid) -> Oid {
        Oid(oid.0 / self.shards)
    }

    /// Backend-local version id of a client-visible id.
    pub fn backend_vid(&self, vid: Vid) -> Vid {
        Vid(vid.0 / self.shards)
    }

    /// Smallest backend id on `shard` whose client-visible id is `>=
    /// after` — the per-shard cursor an `ObjectsPage` scatter starts
    /// from.
    pub fn backend_cursor(&self, after: Oid, shard: usize) -> Oid {
        let s = shard as u64;
        if after.0 <= s {
            Oid(0)
        } else {
            Oid((after.0 - s).div_ceil(self.shards))
        }
    }

    /// Largest backend id on `shard` whose client-visible id is `<=
    /// upto`, if there is one — the per-shard upper bound of a
    /// client-space stamp range (stamps are version ids).
    pub fn backend_floor(&self, upto: Vid, shard: usize) -> Option<Vid> {
        let offset = upto.0.checked_sub(shard as u64)?;
        Some(Vid(offset / self.shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_is_the_identity() {
        let map = ShardMap::new(1);
        for raw in [0u64, 1, 7, u64::MAX] {
            assert_eq!(map.shard_of(Oid(raw)), 0);
            assert_eq!(map.client_oid(Oid(raw), 0), Oid(raw));
            assert_eq!(map.backend_oid(Oid(raw)), Oid(raw));
            assert_eq!(map.client_vid(Vid(raw), 0), Vid(raw));
            assert_eq!(map.backend_vid(Vid(raw)), Vid(raw));
        }
    }

    #[test]
    fn minting_and_decomposition_invert_each_other() {
        let map = ShardMap::new(4);
        for b in [0u64, 1, 2, 100, 1 << 40] {
            for s in 0..4 {
                let client = map.client_oid(Oid(b), s);
                assert_eq!(map.shard_of(client), s);
                assert_eq!(map.backend_oid(client), Oid(b));
            }
        }
        // And the other direction: any u64 decomposes and re-mints.
        for raw in [0u64, 1, 5, 0xDEAD, u64::MAX - 3] {
            let oid = Oid(raw);
            let (s, b) = (map.shard_of(oid), map.backend_oid(oid));
            assert_eq!(map.client_oid(b, s), oid);
        }
    }

    #[test]
    fn cursor_is_the_smallest_backend_id_at_or_past_after() {
        let map = ShardMap::new(4);
        for after in 0..40u64 {
            for s in 0..4usize {
                let b = map.backend_cursor(Oid(after), s);
                assert!(map.client_oid(b, s).0 >= after);
                if b.0 > 0 {
                    assert!(map.client_oid(Oid(b.0 - 1), s).0 < after);
                }
            }
        }
    }

    #[test]
    fn floor_is_the_largest_backend_id_at_or_below_upto() {
        let map = ShardMap::new(4);
        for upto in 0..40u64 {
            for s in 0..4usize {
                match map.backend_floor(Vid(upto), s) {
                    Some(b) => {
                        assert!(map.client_vid(b, s).0 <= upto);
                        assert!(map.client_vid(Vid(b.0 + 1), s).0 > upto);
                    }
                    // Even the shard's first id lies past `upto`.
                    None => assert!(map.client_vid(Vid(0), s).0 > upto),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_refused() {
        let _ = ShardMap::new(0);
    }
}
