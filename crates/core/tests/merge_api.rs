//! Three-way merge through the O++ surface: `Txn::merge`, ancestor
//! walks and LCA on snapshots, conflict policies, and the `Merged`
//! trigger event.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ode::{Error, Event, MergePolicy, VersionPtr, Vid};
use ode_codec::{impl_persist_struct, impl_type_name};

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    text: String,
}
impl_persist_struct!(Doc { text });
impl_type_name!(Doc = "merge-test/Doc");

fn doc(text: &str) -> Doc {
    Doc { text: text.into() }
}

/// base → two forks with same-length, non-overlapping edits. Equal
/// lengths keep the encoded length prefix identical, so the byte merge
/// sees exactly the two text edits.
fn fork_disjoint(txn: &mut ode::Txn<'_>) -> (VersionPtr<Doc>, VersionPtr<Doc>, VersionPtr<Doc>) {
    let p = txn
        .pnew(&doc("the quick brown fox jumps over the lazy dog"))
        .unwrap();
    let base = txn.current_version(&p).unwrap();
    let a = txn
        .derive_from_with(&base, |d| d.text = d.text.replace("quick", "QUICK"))
        .unwrap();
    let b = txn
        .derive_from_with(&base, |d| d.text = d.text.replace("lazy", "LAZY"))
        .unwrap();
    (base, a, b)
}

#[test]
fn merge_combines_disjoint_edits_and_records_both_parents() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let (base, a, b) = fork_disjoint(&mut txn);

    let report = txn.merge(&a, &b, MergePolicy::Fail).unwrap();
    assert!(report.conflicts.is_empty());
    let m = report.version.expect("clean merge checks in");
    assert_eq!(
        txn.deref_v(&m).unwrap().text,
        "the QUICK brown fox jumps over the LAZY dog"
    );
    // Both parents are on record; the merge base was the fork point.
    assert_eq!(txn.parents_raw(m.vid()).unwrap(), vec![a.vid(), b.vid()]);
    assert_eq!(txn.common_ancestor(&a, &b).unwrap(), Some(base));
    txn.commit().unwrap();
}

#[test]
fn merge_conflicts_respect_the_policy() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&doc("alpha beta gamma")).unwrap();
    let base = txn.current_version(&p).unwrap();
    let a = txn
        .derive_from_with(&base, |d| d.text = d.text.replace("beta", "BETA"))
        .unwrap();
    let b = txn
        .derive_from_with(&base, |d| d.text = d.text.replace("beta", "zeta"))
        .unwrap();

    // Fail: nothing checked in, the overlap is reported.
    let report = txn.merge(&a, &b, MergePolicy::Fail).unwrap();
    assert!(report.version.is_none());
    assert!(!report.conflicts.is_empty());

    // Ours: a version appears carrying side a's bytes in the overlap.
    let report = txn.merge(&a, &b, MergePolicy::Ours).unwrap();
    let m = report.version.expect("ours resolves");
    assert!(!report.conflicts.is_empty());
    assert_eq!(txn.deref_v(&m).unwrap().text, "alpha BETA gamma");
    txn.commit().unwrap();
}

#[test]
fn a_moved_block_keeps_the_other_sides_edit() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    ode::testutil::moved_block(&mut txn);
    txn.commit().unwrap();
}

#[test]
fn merge_rejects_mismatched_inputs() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&doc("x")).unwrap();
    let q = txn.pnew(&doc("y")).unwrap();
    let vp = txn.current_version(&p).unwrap();
    let vq = txn.current_version(&q).unwrap();
    assert!(matches!(
        txn.merge(&vp, &vp, MergePolicy::Fail),
        Err(Error::MergeMismatch { .. })
    ));
    assert!(matches!(
        txn.merge(&vp, &vq, MergePolicy::Fail),
        Err(Error::MergeMismatch { .. })
    ));
    txn.commit().unwrap();
}

#[test]
fn snapshot_ancestors_walk_both_parents_and_survive_splices() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let (base, a, b) = fork_disjoint(&mut txn);
    let m = txn
        .merge(&a, &b, MergePolicy::Fail)
        .unwrap()
        .version
        .unwrap();
    txn.commit().unwrap();

    // Snapshots serve the walk read-only, self first, stamps strictly
    // descending, both parents reached.
    let mut snap = db.snapshot();
    let anc: Vec<_> = snap.ancestors(&m).unwrap().collect();
    assert_eq!(anc, vec![m, b, a, base]);
    assert_eq!(snap.common_ancestor(&m, &a).unwrap(), Some(a));
    drop(snap);

    // Splice a parent out of the middle: the walk re-roots through the
    // deleted version's own parent without ever seeing the ghost.
    let mut txn = db.begin();
    txn.pdelete_version(a).unwrap();
    txn.commit().unwrap();
    let mut snap = db.snapshot();
    let anc: Vec<_> = snap.ancestors(&m).unwrap().collect();
    assert_eq!(anc, vec![m, b, base]);
    assert_eq!(snap.common_ancestor(&m, &b).unwrap(), Some(b));
    // Unknown versions error rather than walking nothing.
    assert!(snap
        .ancestors(&VersionPtr::<Doc>::from_vid(Vid(99_999)))
        .is_err());
}

#[test]
fn merged_event_fires_on_commit() {
    let db = ode::testutil::tempdb();
    let merges = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&merges);
    db.on_type::<Doc>(move |ev| {
        if let Event::Merged { vid, a, b, .. } = ev {
            assert!(*vid > *a && *vid > *b);
            seen.fetch_add(1, Ordering::SeqCst);
        }
    });

    let mut txn = db.begin();
    let (_, a, b) = fork_disjoint(&mut txn);
    txn.merge(&a, &b, MergePolicy::Fail).unwrap();
    assert_eq!(merges.load(Ordering::SeqCst), 0, "fires only on commit");
    txn.commit().unwrap();
    assert_eq!(merges.load(Ordering::SeqCst), 1);
}
