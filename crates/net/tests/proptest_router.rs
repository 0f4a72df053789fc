//! Property tests for shard routing determinism.
//!
//! The router's placement function must be a *function*: every oid
//! maps to exactly one shard, the same shard every time, on every
//! router instance over the same backend list — a router restart (or a
//! second router beside the first) may not move any object. The ids
//! each shard mints from its residue must additionally route home and
//! never collide across shards, or responses would lie.

use std::collections::HashSet;

use ode::{IdClaim, Oid, Vid};
use ode_net::ShardMap;
use proptest::prelude::*;

fn arb_shards() -> impl Strategy<Value = usize> {
    1usize..=8
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn every_oid_maps_to_exactly_one_shard(
        shards in arb_shards(),
        oids in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let map = ShardMap::new(shards);
        for raw in oids {
            let shard = map.shard_of(Oid(raw));
            prop_assert!(shard < shards);
            // Determinism on the same instance: ask again, same answer.
            prop_assert_eq!(map.shard_of(Oid(raw)), shard);
        }
    }

    #[test]
    fn the_map_is_stable_across_router_restarts(
        shards in arb_shards(),
        oids in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        // A "restart" constructs a fresh map from the same backend
        // count — the only input the placement function has. Every
        // object must land where it did before.
        let before = ShardMap::new(shards);
        let after = ShardMap::new(shards);
        for raw in oids {
            prop_assert_eq!(before.shard_of(Oid(raw)), after.shard_of(Oid(raw)));
            prop_assert_eq!(before.backend_oid(Oid(raw)), after.backend_oid(Oid(raw)));
        }
    }

    #[test]
    fn minted_ids_are_bijective_and_route_home(
        shards in arb_shards(),
        lasts in proptest::collection::vec(0u64..(1 << 56), 1..64),
    ) {
        let map = ShardMap::new(shards);
        for last in lasts {
            let mut seen = HashSet::new();
            for s in 0..shards {
                // What shard `s` mints after any id it issued before.
                let minted = IdClaim::new(shards as u64, s as u64).unwrap().next_after(last);
                prop_assert!(minted > last && minted - last <= shards as u64);
                // A minted id routes back to the shard that minted it,
                // which knows it by the same number.
                prop_assert_eq!(map.shard_of(Oid(minted)), s);
                prop_assert_eq!(map.backend_oid(Oid(minted)), Oid(minted));
                // No two shards mint the same id after the same point.
                prop_assert!(seen.insert(minted));
                // Versions are minted from the same residue.
                prop_assert_eq!(map.shard_of_vid(Vid(minted)), s);
            }
        }
    }

    #[test]
    fn any_client_id_decomposes_and_remints_to_itself(
        shards in arb_shards(),
        raw in 1u64..u64::MAX,
    ) {
        // Totality: even ids no shard ever minted (a client probing
        // random ids) route deterministically, to the one shard whose
        // residue would mint exactly that id.
        let map = ShardMap::new(shards);
        let (s, b) = (map.shard_of(Oid(raw)), map.backend_oid(Oid(raw)));
        prop_assert_eq!(b, Oid(raw));
        let claim = IdClaim::new(shards as u64, s as u64).unwrap();
        prop_assert_eq!(claim.next_after(raw - 1), raw);
    }

    #[test]
    fn page_cursors_partition_the_client_id_space(
        shards in arb_shards(),
        after in 0u64..10_000,
        ids in proptest::collection::vec(0u64..40_000, 0..32),
    ) {
        // Scattering an ObjectsPage { after } sends every shard the
        // client's cursor unchanged. Each shard holds only its residue,
        // so together the shards select exactly the ids >= after — no
        // misses, no strays, no id selected twice.
        let map = ShardMap::new(shards);
        for id in ids {
            let selecting: Vec<usize> = (0..shards)
                .filter(|&s| map.shard_of(Oid(id)) == s && id >= after)
                .collect();
            prop_assert_eq!(selecting.len(), usize::from(id >= after));
        }
    }
}
