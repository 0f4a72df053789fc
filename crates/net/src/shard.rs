//! Shard placement: which backend owns which object.
//!
//! The paper's generic references ("an object id denotes the latest
//! version") stay honest under scale-out only if every route to an
//! object resolves through a single authority. [`ShardMap`] is that
//! routing function: a pure, restart-stable map from id to shard.
//!
//! ## Shards own their id residue
//!
//! Backend shards are stock [`crate::OdeServer`]s. Shard `s` of `N`
//! issues only the ids `≡ s (mod N)`: the router claims that residue on
//! every connection it dials (the `ClaimIds` request), and the store
//! keeps the claim ([`ode::IdClaim`]), so ids never collide across
//! shards and an id is the same number to a client, the router and its
//! shard. Placement is the low residue, `shard_of(id) = id mod N` — the
//! hash is the identity, because the id itself carries its placement,
//! and it is total over every u64, including ids a client fabricated.
//!
//! Both [`Oid`] and [`Vid`] follow the rule, so any request that names
//! either routes deterministically. The map depends only on `(id,
//! shard_count)`: restarting the router, or running two routers side by
//! side over the same backends, yields the identical map — the property
//! `crates/net/tests/proptest_router.rs` pins down.

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
    /// issued or fabricated — maps to exactly one shard.
    pub fn shard_of(&self, oid: Oid) -> usize {
        (oid.0 % self.shards) as usize
    }

    /// The shard that owns the object `vid` belongs to: a shard issues
    /// its versions' ids from the same residue as its objects'.
    pub fn shard_of_vid(&self, vid: Vid) -> usize {
        (vid.0 % self.shards) as usize
    }

    /// The id the owning shard ([`ShardMap::shard_of`]) knows `oid` by:
    /// `oid` itself, since every shard issues ids from its own residue.
    /// Kept for callers that address a shard directly, such as
    /// `odebench`'s `route_collab` router-overhead probe.
    pub fn backend_oid(&self, oid: Oid) -> Oid {
        oid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode::IdClaim;

    #[test]
    fn single_shard_is_the_identity() {
        let map = ShardMap::new(1);
        for raw in [0u64, 1, 7, u64::MAX] {
            assert_eq!(map.shard_of(Oid(raw)), 0);
            assert_eq!(map.shard_of_vid(Vid(raw)), 0);
            assert_eq!(map.backend_oid(Oid(raw)), Oid(raw));
        }
    }

    #[test]
    fn minting_and_decomposition_invert_each_other() {
        // Every id a shard mints under its claim routes back to it, and
        // the shard knows it by the same number.
        let map = ShardMap::new(4);
        for s in 0..4 {
            let claim = IdClaim::new(4, s as u64).unwrap();
            let mut last = 0;
            for _ in 0..50 {
                last = claim.next_after(last);
                assert_eq!(map.shard_of(Oid(last)), s);
                assert_eq!(map.shard_of_vid(Vid(last)), s);
                assert_eq!(map.backend_oid(Oid(last)), Oid(last));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_refused() {
        let _ = ShardMap::new(0);
    }
}
