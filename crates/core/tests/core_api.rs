//! End-to-end behavioural tests of the O++ surface: pointers, versioning
//! operations, persistence, triggers, and extent queries.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ode::{Database, Error, Event, IdClaim, ObjPtr, VersionPtr};
use ode_codec::{impl_persist_struct, impl_type_name};

#[derive(Debug, Clone, PartialEq)]
struct Part {
    name: String,
    weight: u32,
}
impl_persist_struct!(Part { name, weight });
impl_type_name!(Part = "core-test/Part");

#[derive(Debug, Clone, PartialEq)]
struct Person {
    name: String,
    address: String,
}
impl_persist_struct!(Person { name, address });
impl_type_name!(Person = "core-test/Person");

/// An address book holds *generic* references so it always sees current
/// addresses — the paper's §4.3 example for dynamic binding.
#[derive(Debug, Clone, PartialEq)]
struct AddressBook {
    people: Vec<ObjPtr<Person>>,
}
impl_persist_struct!(AddressBook { people });
impl_type_name!(AddressBook = "core-test/AddressBook");

/// `Database` is shared across server worker threads behind an `Arc`,
/// and `Store` underpins that sharing — both must stay `Send + Sync`.
/// Compile-time only: losing either bound breaks this test's build.
#[test]
fn database_and_store_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<ode_storage::Store>();
    assert_send_sync::<std::sync::Arc<Database>>();
}

fn part(name: &str, weight: u32) -> Part {
    Part {
        name: name.into(),
        weight,
    }
}

#[test]
fn pnew_and_deref() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&part("alu", 7)).unwrap();
    let guard = txn.deref(&p).unwrap();
    assert_eq!(guard.name, "alu");
    assert_eq!(guard.weight, 7);
    assert_eq!(txn.version_count(&p).unwrap(), 1);
    txn.commit().unwrap();
}

#[test]
fn generic_vs_specific_binding() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&part("chip", 1)).unwrap();
    let v0 = txn.current_version(&p).unwrap();
    txn.newversion(&p).unwrap();
    txn.update(&p, |c| c.weight = 2).unwrap();

    // Generic reference: late binding — sees the new latest.
    assert_eq!(txn.deref(&p).unwrap().weight, 2);
    // Specific reference: early binding — still the old state.
    assert_eq!(txn.deref_v(&v0).unwrap().weight, 1);
    // ORef reports which version it bound to.
    let bound = txn.deref(&p).unwrap().version();
    assert_ne!(bound, v0);
    assert_eq!(bound, txn.current_version(&p).unwrap());
    txn.commit().unwrap();
}

#[test]
fn address_book_dynamic_binding_scenario() {
    // Paper §4.3: "an address-book object that keeps track of current
    // addresses requires references to the latest versions of person
    // objects to access their latest addresses".
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let alice = txn
        .pnew(&Person {
            name: "alice".into(),
            address: "1 Elm St".into(),
        })
        .unwrap();
    let book = txn
        .pnew(&AddressBook {
            people: vec![alice],
        })
        .unwrap();

    // Alice moves: version her and update the new latest version.
    txn.newversion(&alice).unwrap();
    txn.update(&alice, |p| p.address = "9 Oak Ave".into())
        .unwrap();

    // The book still holds the same generic reference, and reading
    // through it yields the *current* address.
    let people = txn.deref(&book).unwrap().people.clone();
    assert_eq!(txn.deref(&people[0]).unwrap().address, "9 Oak Ave");

    // Historical query: the old address is still reachable through the
    // version history.
    let history = txn.version_history(&alice).unwrap();
    assert_eq!(history.len(), 2);
    assert_eq!(txn.deref_v(&history[0]).unwrap().address, "1 Elm St");
    txn.commit().unwrap();
}

#[test]
fn persistence_across_reopen() {
    let mut db = ode::testutil::tempdb();
    let (p, v0) = {
        let mut txn = db.begin();
        let p = txn.pnew(&part("alu", 7)).unwrap();
        let v0 = txn.current_version(&p).unwrap();
        txn.newversion(&p).unwrap();
        txn.update(&p, |c| c.weight = 8).unwrap();
        txn.commit().unwrap();
        (p, v0)
    };
    // Objects "automatically persist across program invocations".
    db.reopen();
    let mut snap = db.snapshot();
    assert_eq!(snap.deref(&p).unwrap().weight, 8);
    assert_eq!(snap.deref_v(&v0).unwrap().weight, 7);
    assert_eq!(snap.version_count(&p).unwrap(), 2);
}

#[test]
fn aborted_transaction_leaves_no_trace() {
    let db = ode::testutil::tempdb();
    let p = {
        let mut txn = db.begin();
        let p = txn.pnew(&part("keep", 1)).unwrap();
        txn.commit().unwrap();
        p
    };
    {
        let mut txn = db.begin();
        txn.update(&p, |c| c.weight = 99).unwrap();
        let _doomed = txn.pnew(&part("doomed", 0)).unwrap();
        // Dropped uncommitted.
    }
    let mut snap = db.snapshot();
    assert_eq!(snap.deref(&p).unwrap().weight, 1);
    assert_eq!(snap.objects::<Part>().unwrap(), vec![p]);
}

#[test]
fn pdelete_object_and_version_semantics() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&part("x", 0)).unwrap();
    let v0 = txn.current_version(&p).unwrap();
    let v1 = txn.newversion(&p).unwrap();
    let v2 = txn.newversion(&p).unwrap();

    // pdelete on a version id removes exactly that version.
    txn.pdelete_version(v1).unwrap();
    assert!(!txn.version_exists(&v1).unwrap());
    assert_eq!(txn.version_history(&p).unwrap(), vec![v0, v2]);
    // v2 is re-parented onto v0.
    assert_eq!(txn.dprevious(&v2).unwrap(), Some(v0));

    // Deleting the last versions via the object id removes everything.
    txn.pdelete(p).unwrap();
    assert!(!txn.exists(&p).unwrap());
    assert!(!txn.version_exists(&v0).unwrap());
    assert!(!txn.version_exists(&v2).unwrap());
    txn.commit().unwrap();
}

#[test]
fn last_version_guard() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&part("only", 0)).unwrap();
    let v0 = txn.current_version(&p).unwrap();
    assert!(matches!(
        txn.pdelete_version(v0),
        Err(Error::LastVersion(_))
    ));
    txn.commit().unwrap();
}

#[test]
fn traversal_operators() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&part("root", 0)).unwrap();
    let v0 = txn.current_version(&p).unwrap();
    let v1 = txn.newversion_from(&v0).unwrap();
    let v2 = txn.newversion_from(&v0).unwrap(); // alternative
    let v3 = txn.newversion_from(&v1).unwrap();

    assert_eq!(txn.dprevious(&v3).unwrap(), Some(v1));
    assert_eq!(txn.dnext(&v0).unwrap(), vec![v1, v2]);
    assert_eq!(txn.tprevious(&v3).unwrap(), Some(v2));
    assert_eq!(txn.tnext(&v0).unwrap(), Some(v1));
    assert_eq!(txn.derivation_path(&v3).unwrap(), vec![v3, v1, v0]);
    assert_eq!(txn.derivation_leaves(&p).unwrap(), vec![v2, v3]);
    assert_eq!(txn.version_history(&p).unwrap(), vec![v0, v1, v2, v3]);
    txn.check_object(&p).unwrap();
    txn.commit().unwrap();
}

#[test]
fn extent_queries_by_type() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p1 = txn.pnew(&part("a", 1)).unwrap();
    let p2 = txn.pnew(&part("b", 2)).unwrap();
    let _q = txn
        .pnew(&Person {
            name: "c".into(),
            address: "d".into(),
        })
        .unwrap();
    assert_eq!(txn.objects::<Part>().unwrap(), vec![p1, p2]);
    assert_eq!(txn.objects::<Person>().unwrap().len(), 1);
    // Versioning an object does not add extent entries.
    txn.newversion(&p1).unwrap();
    assert_eq!(txn.objects::<Part>().unwrap(), vec![p1, p2]);
    txn.commit().unwrap();
}

#[test]
fn triggers_fire_after_commit_only() {
    let db = ode::testutil::tempdb();
    let p = {
        let mut txn = db.begin();
        let p = txn.pnew(&part("watched", 0)).unwrap();
        txn.commit().unwrap();
        p
    };
    let updates = Arc::new(AtomicUsize::new(0));
    let u = Arc::clone(&updates);
    db.on_object(p, move |ev| {
        if matches!(ev, Event::Updated { .. }) {
            u.fetch_add(1, Ordering::SeqCst);
        }
    });

    {
        let mut txn = db.begin();
        txn.update(&p, |c| c.weight = 1).unwrap();
        assert_eq!(updates.load(Ordering::SeqCst), 0, "not before commit");
        txn.commit().unwrap();
    }
    assert_eq!(updates.load(Ordering::SeqCst), 1);

    {
        // Aborted work fires nothing.
        let mut txn = db.begin();
        txn.update(&p, |c| c.weight = 2).unwrap();
    }
    assert_eq!(updates.load(Ordering::SeqCst), 1);
}

#[test]
fn type_triggers_and_removal() {
    let db = ode::testutil::tempdb();
    let created = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&created);
    let id = db.on_type::<Part>(move |ev| {
        if matches!(ev, Event::Created { .. }) {
            c.fetch_add(1, Ordering::SeqCst);
        }
    });
    {
        let mut txn = db.begin();
        txn.pnew(&part("a", 1)).unwrap();
        txn.pnew(&part("b", 2)).unwrap();
        txn.commit().unwrap();
    }
    assert_eq!(created.load(Ordering::SeqCst), 2);
    assert!(db.remove_trigger(id));
    {
        let mut txn = db.begin();
        txn.pnew(&part("c", 3)).unwrap();
        txn.commit().unwrap();
    }
    assert_eq!(created.load(Ordering::SeqCst), 2);
}

#[test]
fn type_mismatch_via_forged_pointer() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&part("real", 1)).unwrap();
    // Forge a Person pointer at the Part's oid.
    let forged: ObjPtr<Person> = ObjPtr::from_oid(p.oid());
    assert!(matches!(
        txn.deref(&forged),
        Err(Error::TypeMismatch { .. })
    ));
    let v = txn.current_version(&p).unwrap();
    let forged_v: VersionPtr<Person> = VersionPtr::from_vid(v.vid());
    assert!(matches!(
        txn.deref_v(&forged_v),
        Err(Error::TypeMismatch { .. })
    ));
    txn.commit().unwrap();
}

#[test]
fn update_returns_written_version() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&part("x", 1)).unwrap();
    let v = txn.update(&p, |c| c.weight = 5).unwrap();
    assert_eq!(v, txn.current_version(&p).unwrap());
    assert_eq!(txn.deref_v(&v).unwrap().weight, 5);
    // put replaces wholesale.
    txn.put(&p, &part("y", 9)).unwrap();
    assert_eq!(txn.deref(&p).unwrap().name, "y");
    // update_version targets a pinned version.
    txn.update_version(&v, |c| c.weight = 77).unwrap();
    assert_eq!(txn.deref_v(&v).unwrap().weight, 77);
    txn.commit().unwrap();
}

#[test]
fn derive_with_versions_and_edits_atomically() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&part("base", 1)).unwrap();
    let v0 = txn.current_version(&p).unwrap();
    // Revision with its edit in one call.
    let v1 = txn.derive_with(&p, |c| c.weight = 2).unwrap();
    assert_eq!(txn.deref_v(&v0).unwrap().weight, 1);
    assert_eq!(txn.deref_v(&v1).unwrap().weight, 2);
    assert_eq!(txn.deref(&p).unwrap().weight, 2);
    // Alternative branched from v0 with its own edit.
    let v2 = txn
        .derive_from_with(&v0, |c| c.name = "variant".into())
        .unwrap();
    assert_eq!(txn.deref_v(&v2).unwrap().name, "variant");
    assert_eq!(txn.deref_v(&v2).unwrap().weight, 1, "copied from v0");
    assert_eq!(txn.dnext(&v0).unwrap(), vec![v1, v2]);
    txn.check_object(&p).unwrap();
    txn.commit().unwrap();
}

#[test]
fn snapshot_is_read_only_view() {
    let db = ode::testutil::tempdb();
    let p = {
        let mut txn = db.begin();
        let p = txn.pnew(&part("s", 3)).unwrap();
        txn.commit().unwrap();
        p
    };
    let mut snap = db.snapshot();
    assert_eq!(snap.deref(&p).unwrap().weight, 3);
    assert_eq!(snap.objects::<Part>().unwrap(), vec![p]);
    assert_eq!(snap.version_count(&p).unwrap(), 1);
}

#[test]
fn many_objects_many_versions_stress() {
    let db = ode::testutil::tempdb();
    let mut ptrs = Vec::new();
    {
        let mut txn = db.begin();
        for i in 0..200u32 {
            let p = txn.pnew(&part(&format!("part-{i}"), i)).unwrap();
            for _ in 0..(i % 5) {
                txn.newversion(&p).unwrap();
            }
            ptrs.push(p);
        }
        txn.commit().unwrap();
    }
    let mut snap = db.snapshot();
    assert_eq!(snap.objects::<Part>().unwrap().len(), 200);
    for (i, p) in ptrs.iter().enumerate() {
        assert_eq!(snap.version_count(p).unwrap(), (i as u64 % 5) + 1);
        assert_eq!(snap.deref(p).unwrap().weight, i as u32);
        snap.check_object(p).unwrap();
    }
}

#[test]
fn pending_events_accumulate_in_order() {
    let db = ode::testutil::tempdb();
    let mut txn = db.begin();
    let p = txn.pnew(&part("e", 0)).unwrap();
    txn.newversion(&p).unwrap();
    txn.update(&p, |c| c.weight = 1).unwrap();
    let kinds: Vec<&str> = txn
        .pending_events()
        .iter()
        .map(|e| match e {
            Event::Created { .. } => "created",
            Event::NewVersion { .. } => "newversion",
            Event::Updated { .. } => "updated",
            Event::VersionDeleted { .. } => "vdel",
            Event::ObjectDeleted { .. } => "odel",
            Event::Merged { .. } => "merged",
        })
        .collect();
    assert_eq!(kinds, vec!["created", "newversion", "updated"]);
    txn.commit().unwrap();
}

/// A store takes one id claim and keeps it: it then issues every object
/// and version id from that residue, and refuses any other claim.
#[test]
fn a_store_issues_its_ids_from_the_one_claim_it_takes() {
    let db = ode::testutil::tempdb();
    let claim = IdClaim::new(3, 2).unwrap();
    // Checked only (a replica's way): nothing is recorded.
    assert!(
        db.admits_claim(claim).unwrap(),
        "an unclaimed store admits it"
    );
    assert!(db.admits_claim(claim).unwrap());
    db.claim_ids(claim).unwrap();
    assert!(!db.admits_claim(claim).unwrap(), "held already");
    db.claim_ids(claim).unwrap();

    let mut txn = db.begin();
    let p = txn
        .pnew(&Part {
            name: "gear".into(),
            weight: 1,
        })
        .unwrap();
    let v0 = txn.current_version(&p).unwrap();
    let v1 = txn.newversion(&p).unwrap();
    txn.commit().unwrap();
    assert_eq!((p.oid().0, v0.vid().0, v1.vid().0), (2, 2, 5));

    let other = IdClaim::new(3, 1).unwrap();
    match db.admits_claim(other) {
        Err(Error::ClaimRefused { held, asked }) => {
            assert_eq!((held, asked), (Some(claim), other))
        }
        other => panic!("expected a refusal, got {other:?}"),
    }

    // An unclaimed store that issued ids takes a dense claim only.
    let dense = ode::testutil::tempdb();
    let mut txn = dense.begin();
    txn.pnew(&Part {
        name: "bolt".into(),
        weight: 2,
    })
    .unwrap();
    txn.commit().unwrap();
    let wider = IdClaim::new(2, 0).unwrap();
    assert!(matches!(
        dense.claim_ids(wider),
        Err(Error::ClaimRefused { held: None, .. })
    ));
    dense.claim_ids(IdClaim::DENSE).unwrap();
    assert!(matches!(
        dense.admits_claim(wider),
        Err(Error::ClaimRefused {
            held: Some(IdClaim::DENSE),
            ..
        })
    ));
}
