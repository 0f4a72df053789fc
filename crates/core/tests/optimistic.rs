//! Optimistic concurrency at the O++ surface.
//!
//! `Database::begin_optimistic` hands out transactions that validate at
//! commit instead of excluding each other up front; a loser gets a
//! write-conflict error and `Database::transact` re-executes its
//! closure against fresh reads. These tests force conflicts
//! deterministically (an exclusive transaction commits an overlapping
//! update between the optimistic transaction's reads and its commit)
//! and check the retry loop's convergence, its attempt bound, `commit`
//! outside `transact` as the no-retry path, and a genuinely contended
//! multi-threaded counter.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use ode::{Database, DatabaseOptions, ObjPtr, RetryPolicy};
use ode_codec::{impl_persist_struct, impl_type_name};

#[derive(Debug, Clone, PartialEq)]
struct Counter {
    value: u64,
}
impl_persist_struct!(Counter { value });
impl_type_name!(Counter = "occ-test/Counter");

/// Hot retries: deterministic tests have no reason to sleep.
fn hot(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    }
}

fn counter_db() -> (ode::testutil::TempDb, ObjPtr<Counter>) {
    let db = ode::testutil::tempdb_with(DatabaseOptions::no_sync());
    let ptr = {
        let mut txn = db.begin();
        let ptr = txn.pnew(&Counter { value: 0 }).unwrap();
        txn.commit().unwrap();
        ptr
    };
    (db, ptr)
}

/// Commit an overlapping update through an exclusive transaction —
/// from the optimistic transaction's point of view, a concurrent
/// writer won the race for the counter's page.
fn interfere(db: &Database, ptr: &ObjPtr<Counter>) {
    let mut ex = db.begin();
    ex.update(ptr, |c| c.value += 100).unwrap();
    ex.commit().unwrap();
}

/// `transact` re-executes the closure after each forced conflict and
/// converges once the interference stops; the retry and conflict
/// counters record exactly what happened.
#[test]
fn transact_converges_after_forced_conflicts() {
    let (db, ptr) = counter_db();
    let s0 = db.storage_stats();
    let attempts = AtomicU32::new(0);

    let seen = db
        .transact(hot(8), |txn| {
            let n = attempts.fetch_add(1, Ordering::Relaxed);
            let v = txn.deref(&ptr)?.value;
            if n < 2 {
                interfere(&db, &ptr);
            }
            txn.update(&ptr, |c| c.value = v + 1)?;
            Ok(v)
        })
        .unwrap();

    // Two attempts lost to interference (+100 each), the third won.
    assert_eq!(attempts.load(Ordering::Relaxed), 3);
    assert_eq!(
        seen, 200,
        "the winning attempt read both interfering updates"
    );
    let mut txn = db.begin();
    assert_eq!(txn.deref(&ptr).unwrap().value, 201);
    drop(txn);

    let s1 = db.storage_stats();
    assert_eq!(s1.write_retries - s0.write_retries, 2);
    assert_eq!(s1.write_conflicts - s0.write_conflicts, 2);
    // Aborted attempts never count as committed writes: setup aside,
    // only the two interfering commits and the winner landed.
    assert_eq!(s1.write_txs - s0.write_txs, 3);
}

/// With interference on every attempt, `transact` gives up after
/// exactly `max_attempts` executions and surfaces the conflict.
#[test]
fn transact_stops_at_the_attempt_bound() {
    let (db, ptr) = counter_db();
    let s0 = db.storage_stats();
    let attempts = AtomicU32::new(0);

    let err = db
        .transact(hot(3), |txn| {
            attempts.fetch_add(1, Ordering::Relaxed);
            let v = txn.deref(&ptr)?.value;
            interfere(&db, &ptr);
            txn.update(&ptr, |c| c.value = v + 1)
        })
        .unwrap_err();

    assert!(
        err.is_write_conflict(),
        "expected a write conflict, got {err}"
    );
    assert_eq!(attempts.load(Ordering::Relaxed), 3);
    let s1 = db.storage_stats();
    assert_eq!(
        s1.write_retries - s0.write_retries,
        2,
        "retries, not attempts"
    );
    assert_eq!(s1.write_conflicts - s0.write_conflicts, 3);
    // Only the interference committed.
    let mut txn = db.begin();
    assert_eq!(txn.deref(&ptr).unwrap().value, 300);
}

/// `commit` outside `transact` is the no-retry path: the conflict comes
/// back to the caller instead of re-running anything.
#[test]
fn commit_once_surfaces_the_conflict() {
    let (db, ptr) = counter_db();

    let mut txn = db.begin_optimistic();
    assert!(txn.is_optimistic());
    let v = txn.deref(&ptr).unwrap().value;
    interfere(&db, &ptr);
    let err = (move || -> ode::Result<()> {
        txn.update(&ptr, |c| c.value = v + 1)?;
        txn.commit()
    })()
    .unwrap_err();
    assert!(
        err.is_write_conflict(),
        "expected a write conflict, got {err}"
    );

    // The aborted transaction left no trace.
    let mut txn = db.begin();
    assert_eq!(txn.deref(&ptr).unwrap().value, 100);
}

/// Four threads hammer one counter object through `transact`; every
/// increment must land exactly once (the classic lost-update check, at
/// the object layer rather than the page layer).
#[test]
fn contended_counter_converges_across_threads() {
    const THREADS: u64 = 4;
    const INCREMENTS: u64 = 15;
    let (db, ptr) = counter_db();
    let s0 = db.storage_stats();

    let policy = RetryPolicy {
        max_attempts: 1000,
        backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(1),
    };
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let db = db.db();
            scope.spawn(move || {
                for _ in 0..INCREMENTS {
                    db.transact(policy, |txn| txn.update(&ptr, |c| c.value += 1))
                        .unwrap();
                }
            });
        }
    });

    let mut txn = db.begin();
    assert_eq!(txn.deref(&ptr).unwrap().value, THREADS * INCREMENTS);
    drop(txn);
    let s1 = db.storage_stats();
    assert_eq!(s1.write_txs - s0.write_txs, THREADS * INCREMENTS);
    // Every failed attempt was retried (all transacts succeeded), so
    // conflicts and retries must agree exactly.
    assert_eq!(
        s1.write_conflicts - s0.write_conflicts,
        s1.write_retries - s0.write_retries
    );
}
