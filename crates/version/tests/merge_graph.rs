//! Two-parent (merge) versions: DAG edges in the derived-from
//! structure, ancestor walks, LCA, and delete-splices around them.

use ode_codec::TypeTag;
use ode_storage::{Store, StoreOptions};
use ode_version::{ChainConfig, VersionError, VersionStore, VersionStoreLayout, Vid};

const TAG: TypeTag = TypeTag::from_name("test/Doc");

fn temp_store(name: &str) -> (std::path::PathBuf, Store) {
    let mut p = std::env::temp_dir();
    p.push(format!("ode-vmerge-{name}-{}", std::process::id()));
    cleanup(&p);
    let store = Store::create(&p, StoreOptions::default()).unwrap();
    (p, store)
}

fn cleanup(p: &std::path::Path) {
    let _ = std::fs::remove_file(p);
    let mut wal = p.to_path_buf().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

fn plain() -> VersionStore {
    VersionStore::new(VersionStoreLayout::default())
}

fn chained(interval: u64) -> VersionStore {
    VersionStore::with_chain(
        VersionStoreLayout::default(),
        ChainConfig::with_interval(interval),
    )
}

/// base → fork a, fork b (both derived from base), then merge(a, b).
fn fork_and_merge(
    vs: &VersionStore,
    tx: &mut ode_storage::Tx<'_>,
) -> (ode_version::Oid, Vid, Vid, Vid, Vid) {
    let (oid, base) = vs.create_object(tx, TAG, b"base".to_vec()).unwrap();
    let a = vs.new_version_from(tx, base).unwrap();
    vs.write_body(tx, a, TAG, b"side-a".to_vec()).unwrap();
    let b = vs.new_version_from(tx, base).unwrap();
    vs.write_body(tx, b, TAG, b"side-b".to_vec()).unwrap();
    let m = vs.new_merge_version(tx, a, b, b"merged".to_vec()).unwrap();
    (oid, base, a, b, m)
}

#[test]
fn merge_version_records_both_parents() {
    for vs in [plain(), chained(4)] {
        let (path, store) = temp_store("both-parents");
        let mut tx = store.begin();
        let (oid, base, a, b, m) = fork_and_merge(&vs, &mut tx);

        let meta = vs.version_meta(&mut tx, m).unwrap();
        assert!(meta.is_merge());
        assert_eq!(meta.dprev, a);
        assert_eq!(meta.dprev2, b);
        assert_eq!(meta.parents().collect::<Vec<_>>(), vec![a, b]);
        // Both parents list the merge child.
        assert!(vs.dnext(&mut tx, a).unwrap().contains(&m));
        assert!(vs.dnext(&mut tx, b).unwrap().contains(&m));
        // The merge is the new latest and reads back whole.
        assert_eq!(vs.latest(&mut tx, oid).unwrap(), m);
        assert_eq!(vs.read_body(&mut tx, m, TAG).unwrap(), b"merged");
        // Historical states still materialize byte-identically.
        assert_eq!(vs.read_body(&mut tx, base, TAG).unwrap(), b"base");
        assert_eq!(vs.read_body(&mut tx, a, TAG).unwrap(), b"side-a");
        assert_eq!(vs.read_body(&mut tx, b, TAG).unwrap(), b"side-b");
        vs.check_object(&mut tx, oid).unwrap();
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }
}

#[test]
fn merge_rejects_mismatched_inputs() {
    let (path, store) = temp_store("mismatch");
    let vs = plain();
    let mut tx = store.begin();
    let (_, v0) = vs.create_object(&mut tx, TAG, b"x".to_vec()).unwrap();
    let (_, w0) = vs.create_object(&mut tx, TAG, b"y".to_vec()).unwrap();
    assert!(matches!(
        vs.new_merge_version(&mut tx, v0, v0, vec![]),
        Err(VersionError::MergeMismatch { .. })
    ));
    assert!(matches!(
        vs.new_merge_version(&mut tx, v0, w0, vec![]),
        Err(VersionError::MergeMismatch { .. })
    ));
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn ancestors_follow_both_parents_in_descending_order() {
    let (path, store) = temp_store("ancestors");
    let vs = plain();
    let mut tx = store.begin();
    let (_, base, a, b, m) = fork_and_merge(&vs, &mut tx);

    // Linear ancestry of a fork tip.
    assert_eq!(vs.ancestors(&mut tx, a).unwrap(), vec![a, base]);
    // The merge reaches both sides; order is strictly descending vid.
    let anc = vs.ancestors(&mut tx, m).unwrap();
    assert_eq!(anc, vec![m, b, a, base]);
    assert!(anc.windows(2).all(|w| w[0] > w[1]));
    // Unknown vid errors rather than returning an empty walk.
    assert!(matches!(
        vs.ancestors(&mut tx, Vid(9999)),
        Err(VersionError::UnknownVersion(_))
    ));
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn common_ancestor_finds_the_fork_point() {
    let (path, store) = temp_store("lca");
    let vs = plain();
    let mut tx = store.begin();
    let (_, base, a, b, m) = fork_and_merge(&vs, &mut tx);

    assert_eq!(vs.common_ancestor(&mut tx, a, b).unwrap(), Some(base));
    assert_eq!(vs.common_ancestor(&mut tx, b, a).unwrap(), Some(base));
    // An ancestor of the other input is itself the LCA.
    assert_eq!(vs.common_ancestor(&mut tx, base, a).unwrap(), Some(base));
    assert_eq!(vs.common_ancestor(&mut tx, a, a).unwrap(), Some(a));
    // The merge contains both sides, so LCA(m, side) is the side.
    assert_eq!(vs.common_ancestor(&mut tx, m, a).unwrap(), Some(a));
    assert_eq!(vs.common_ancestor(&mut tx, m, b).unwrap(), Some(b));

    // After forking off the merge, two new tips meet at the merge.
    let c = vs.new_version_from(&mut tx, m).unwrap();
    let d = vs.new_version_from(&mut tx, m).unwrap();
    assert_eq!(vs.common_ancestor(&mut tx, c, d).unwrap(), Some(m));

    // Versions of different objects share nothing.
    let (_, w0) = vs.create_object(&mut tx, TAG, b"w".to_vec()).unwrap();
    assert_eq!(vs.common_ancestor(&mut tx, a, w0).unwrap(), None);
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn deleting_a_merge_parent_repoints_the_surviving_slot() {
    for vs in [plain(), chained(4)] {
        let (path, store) = temp_store("del-parent");
        let mut tx = store.begin();
        let (oid, base, a, b, m) = fork_and_merge(&vs, &mut tx);

        // Delete side a: the merge's primary slot re-points to a's own
        // parent (the fork base), which b's slot does not duplicate.
        vs.delete_version(&mut tx, a).unwrap();
        let meta = vs.version_meta(&mut tx, m).unwrap();
        assert_eq!(meta.dprev, base);
        assert_eq!(meta.dprev2, b);
        assert!(vs.dnext(&mut tx, base).unwrap().contains(&m));
        vs.check_object(&mut tx, oid).unwrap();

        // Delete side b too: now both slots would point at base — the
        // duplicate collapses and the merge degrades to a single-parent
        // version.
        vs.delete_version(&mut tx, b).unwrap();
        let meta = vs.version_meta(&mut tx, m).unwrap();
        assert_eq!(meta.dprev, base);
        assert!(meta.dprev2.is_null());
        assert!(!meta.is_merge());
        // base lists m exactly once.
        let children = vs.dnext(&mut tx, base).unwrap();
        assert_eq!(children.iter().filter(|&&v| v == m).count(), 1);
        vs.check_object(&mut tx, oid).unwrap();
        assert_eq!(vs.read_body(&mut tx, m, TAG).unwrap(), b"merged");
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }
}

#[test]
fn deleting_the_merge_version_detaches_both_parents() {
    for vs in [plain(), chained(4)] {
        let (path, store) = temp_store("del-merge");
        let mut tx = store.begin();
        let (oid, _base, a, b, m) = fork_and_merge(&vs, &mut tx);
        // Give the merge a child so the splice has work to do.
        let c = vs.new_version_from(&mut tx, m).unwrap();

        vs.delete_version(&mut tx, m).unwrap();
        // The child was adopted by the merge's primary parent only.
        let cm = vs.version_meta(&mut tx, c).unwrap();
        assert_eq!(cm.dprev, a);
        assert!(cm.dprev2.is_null());
        assert!(vs.dnext(&mut tx, a).unwrap().contains(&c));
        // The second parent simply lost the edge.
        assert!(!vs.dnext(&mut tx, b).unwrap().contains(&m));
        assert!(!vs.dnext(&mut tx, b).unwrap().contains(&c));
        vs.check_object(&mut tx, oid).unwrap();
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }
}

#[test]
fn ancestors_survive_deleted_version_splices() {
    let (path, store) = temp_store("del-splice-anc");
    let vs = plain();
    let mut tx = store.begin();
    let (oid, base, a, b, m) = fork_and_merge(&vs, &mut tx);
    let tip = vs.new_version_from(&mut tx, m).unwrap();

    // Splice the merge out of the middle of the history: the tip is
    // re-parented onto side a, so its ancestry re-roots through a.
    vs.delete_version(&mut tx, m).unwrap();
    assert_eq!(vs.ancestors(&mut tx, tip).unwrap(), vec![tip, a, base]);
    assert_eq!(vs.common_ancestor(&mut tx, tip, b).unwrap(), Some(base));

    // Splice out the fork base as well; both sides become roots and
    // the LCA of the two branches disappears.
    vs.delete_version(&mut tx, base).unwrap();
    assert_eq!(vs.ancestors(&mut tx, tip).unwrap(), vec![tip, a]);
    assert_eq!(vs.ancestors(&mut tx, b).unwrap(), vec![b]);
    assert_eq!(vs.common_ancestor(&mut tx, tip, b).unwrap(), None);
    vs.check_object(&mut tx, oid).unwrap();
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

// ----------------------------------------------------------------------
// Proptest: the one-walk LCA against the two-set definition.
// ----------------------------------------------------------------------

mod lca_reference {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[derive(Debug, Clone)]
    enum Op {
        /// Derive from the version at this index (mod live count).
        Fork(usize),
        /// Merge the versions at these indexes (skipped when equal).
        Merge(usize, usize),
        /// Delete the version at this index (never the last one).
        Delete(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            5 => (0usize..64).prop_map(Op::Fork),
            3 => ((0usize..64), (0usize..64)).prop_map(|(a, b)| Op::Merge(a, b)),
            2 => (0usize..64).prop_map(Op::Delete),
        ]
    }

    /// The definition, kept here as the reference: of the versions in
    /// both ancestor sets, the newest.
    fn reference(vs: &VersionStore, tx: &mut ode_storage::Tx<'_>, a: Vid, b: Vid) -> Option<Vid> {
        let a_set: HashSet<Vid> = vs.ancestors(tx, a).unwrap().into_iter().collect();
        vs.ancestors(tx, b)
            .unwrap()
            .into_iter()
            .filter(|v| a_set.contains(v))
            .max()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Random DAGs — forks, merges, and deletions that splice
        /// children onto grandparents or split the forest — give the
        /// same common ancestor for every pair of live versions as the
        /// two-set definition, in either argument order.
        #[test]
        fn common_ancestor_matches_the_set_definition(
            ops in proptest::collection::vec(op_strategy(), 1..40),
        ) {
            let (path, store) = temp_store(&format!("lca-{}", ops.len()));
            let vs = plain();
            let mut tx = store.begin();
            let (oid, root) = vs.create_object(&mut tx, TAG, b"r".to_vec()).unwrap();
            let mut live = vec![root];
            for op in &ops {
                match *op {
                    Op::Fork(i) => {
                        let base = live[i % live.len()];
                        live.push(vs.new_version_from(&mut tx, base).unwrap());
                    }
                    Op::Merge(i, j) => {
                        let (a, b) = (live[i % live.len()], live[j % live.len()]);
                        if a != b {
                            live.push(vs.new_merge_version(&mut tx, a, b, b"m".to_vec()).unwrap());
                        }
                    }
                    Op::Delete(i) => {
                        if live.len() > 1 {
                            let v = live.remove(i % live.len());
                            vs.delete_version(&mut tx, v).unwrap();
                        }
                    }
                }
            }
            vs.check_object(&mut tx, oid).unwrap();
            for &a in &live {
                for &b in &live {
                    let want = reference(&vs, &mut tx, a, b);
                    prop_assert_eq!(vs.common_ancestor(&mut tx, a, b).unwrap(), want, "{} {}", a, b);
                }
            }
            drop(tx);
            drop(store);
            cleanup(&path);
        }
    }
}
