//! Concurrent snapshot consistency battery.
//!
//! The engine's contract: a read transaction observes exactly one
//! committed epoch — every page it resolves comes from the same
//! committed prefix, never a torn commit, and the epoch it reports
//! uniquely names that state. These tests hammer that contract with
//! parallel readers against a committing writer, and with a
//! property-based interleaving of begin/commit/abort/snapshot
//! observations against a reference model.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

use ode_storage::testutil::TempStore;
use ode_storage::{PageBuf, PageId, PageRead, PageWrite, Store, StoreOptions};
use proptest::prelude::*;

/// Commit generation `g` into every page atomically: each page gets the
/// generation plus a per-page salt, so a torn read (pages from two
/// different commits) is detectable from the values alone.
fn write_generation(store: &Store, pages: &[PageId], g: u64) {
    let mut tx = store.begin();
    for (i, &id) in pages.iter().enumerate() {
        let page = tx.page_mut(id).unwrap();
        page.write_u64(16, g);
        page.write_u64(24, g.wrapping_mul(31).wrapping_add(i as u64));
    }
    tx.commit().unwrap();
}

fn read_generation(r: &mut ode_storage::ReadTx<'_>, pages: &[PageId]) -> u64 {
    let mut gen = None;
    for (i, &id) in pages.iter().enumerate() {
        let page = r.page(id).unwrap();
        let g = page.read_u64(16);
        assert_eq!(
            page.read_u64(24),
            g.wrapping_mul(31).wrapping_add(i as u64),
            "page {id:?} internally inconsistent"
        );
        match gen {
            None => gen = Some(g),
            Some(prev) => assert_eq!(prev, g, "torn read: pages from different commits"),
        }
    }
    gen.unwrap()
}

/// N readers continuously snapshot while a writer commits multi-page
/// transactions. Every snapshot must observe a whole commit (all pages
/// agree on the generation), generations must be monotone per reader,
/// and one epoch must always denote one generation, across all readers.
#[test]
fn readers_never_observe_torn_commits() {
    let store = TempStore::with(StoreOptions {
        sync_on_commit: false,
        ..StoreOptions::default()
    });
    let pages: Vec<PageId> = {
        let mut tx = store.begin();
        let pages: Vec<PageId> = (0..4)
            .map(|_| tx.allocate(ode_storage::page::PageKind::Heap).unwrap())
            .collect();
        tx.commit().unwrap();
        pages
    };
    write_generation(&store, &pages, 0);

    const COMMITS: u64 = 300;
    let done = AtomicBool::new(false);
    let epoch_to_gen: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());

    std::thread::scope(|scope| {
        let store = &store;
        let pages = &pages;
        let done = &done;
        let epoch_to_gen = &epoch_to_gen;
        for _ in 0..4 {
            scope.spawn(move || {
                let mut last = 0u64;
                while !done.load(Ordering::Acquire) {
                    let mut r = store.read();
                    let epoch = r.epoch();
                    let g = read_generation(&mut r, pages);
                    drop(r);
                    assert!(g >= last, "generation went backwards: {last} -> {g}");
                    last = g;
                    let mut map = epoch_to_gen.lock().unwrap();
                    if let Some(&seen) = map.get(&epoch) {
                        assert_eq!(seen, g, "one epoch mapped to two states");
                    } else {
                        map.insert(epoch, g);
                    }
                }
            });
        }
        scope.spawn(move || {
            for g in 1..=COMMITS {
                write_generation(store, pages, g);
            }
            done.store(true, Ordering::Release);
        });
    });

    // Final state: the last generation, from a fresh snapshot.
    let mut r = store.read();
    assert_eq!(read_generation(&mut r, &pages), COMMITS);
    drop(r);
    let stats = store.stats();
    assert_eq!(stats.write_txs, COMMITS + 2);
    assert!(stats.read_txs > 0);
}

/// Two snapshots provably overlap in time (barrier inside both) and
/// read concurrently — the seed engine's single mutex would deadlock
/// here.
#[test]
fn snapshots_overlap_in_time() {
    let store = TempStore::new();
    let id = {
        let mut tx = store.begin();
        let id = tx.allocate(ode_storage::page::PageKind::Heap).unwrap();
        tx.page_mut(id).unwrap().write_u64(16, 77);
        tx.commit().unwrap();
        id
    };
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (store, barrier) = (&store, &barrier);
            scope.spawn(move || {
                let mut r = store.read();
                // Both threads hold open snapshots here, simultaneously.
                barrier.wait();
                assert_eq!(r.page(id).unwrap().read_u64(16), 77);
                barrier.wait();
            });
        }
    });
}

/// Readers pay no write amplification: concurrent snapshots resolving
/// the same page share one buffer-pool frame (misses ≈ distinct pages,
/// not distinct readers).
#[test]
fn concurrent_reads_share_pool_frames() {
    let store = TempStore::new();
    let id = {
        let mut tx = store.begin();
        let id = tx.allocate(ode_storage::page::PageKind::Heap).unwrap();
        tx.page_mut(id).unwrap().write_u64(16, 5);
        tx.commit().unwrap();
        id
    };
    store.checkpoint().unwrap();
    let before = store.buffer_stats();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let store = &store;
            scope.spawn(move || {
                for _ in 0..50 {
                    let mut r = store.read();
                    assert_eq!(r.page(id).unwrap().read_u64(16), 5);
                }
            });
        }
    });
    let after = store.buffer_stats();
    assert!(
        after.misses == before.misses,
        "published frame was re-read from disk: {} -> {} misses",
        before.misses,
        after.misses
    );
    assert!(after.hits >= before.hits + 400);
}

// ---------------------------------------------------------------------------
// Property-based interleavings
// ---------------------------------------------------------------------------

/// One scripted step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    /// Begin a write transaction applying these (slot, value) writes,
    /// then commit (`true`) or abort (`false`).
    Write(Vec<(u8, u64)>, bool),
    /// Open a snapshot and compare every slot against the model; also
    /// record the (epoch, model-state) observation.
    Observe,
    /// Force a checkpoint (must not change any observable state).
    Checkpoint,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (
            proptest::collection::vec((0u8..6, any::<u64>()), 0..4),
            any::<bool>(),
        )
            .prop_map(|(writes, commit)| Step::Write(writes, commit)),
        3 => Just(Step::Observe),
        1 => Just(Step::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Interleave writes, aborts, snapshots, and checkpoints; verify a
    /// snapshot always reflects exactly the committed model, aborted
    /// writes are never visible, the epoch bumps precisely on non-empty
    /// commits, and equal epochs always denote equal states.
    #[test]
    fn interleaved_commits_and_snapshots_match_model(
        steps in proptest::collection::vec(arb_step(), 1..40),
        _seed in any::<u32>(),
    ) {
        let store = TempStore::with(StoreOptions { sync_on_commit: false, ..StoreOptions::default() });
        // Six slots, each one page.
        let pages: Vec<PageId> = {
            let mut tx = store.begin();
            let pages: Vec<PageId> = (0..6)
                .map(|_| tx.allocate(ode_storage::page::PageKind::Heap).unwrap())
                .collect();
            tx.commit().unwrap();
            pages
        };
        let mut model = [0u64; 6];
        let mut epoch_states: HashMap<u64, [u64; 6]> = HashMap::new();
        let mut last_epoch = store.epoch();

        for step in steps {
            match step {
                Step::Write(writes, commit) => {
                    let nonempty = !writes.is_empty();
                    let mut tx = store.begin();
                    for &(slot, value) in &writes {
                        tx.page_mut(pages[slot as usize])
                            .unwrap()
                            .write_u64(16, value);
                    }
                    if commit {
                        tx.commit().unwrap();
                        if nonempty {
                            for (slot, value) in writes {
                                model[slot as usize] = value;
                            }
                            prop_assert_eq!(store.epoch(), last_epoch + 1,
                                "non-empty commit must bump the epoch exactly once");
                            last_epoch += 1;
                        } else {
                            prop_assert_eq!(store.epoch(), last_epoch,
                                "empty commit must not bump the epoch");
                        }
                    } else {
                        drop(tx); // abort
                        prop_assert_eq!(store.epoch(), last_epoch,
                            "abort must not bump the epoch");
                    }
                }
                Step::Observe => {
                    let mut r = store.read();
                    let epoch = r.epoch();
                    prop_assert_eq!(epoch, last_epoch,
                        "snapshot must observe the latest committed epoch");
                    let mut observed = [0u64; 6];
                    for (slot, &id) in pages.iter().enumerate() {
                        observed[slot] = r.page(id).unwrap().read_u64(16);
                    }
                    drop(r);
                    prop_assert_eq!(observed, model,
                        "snapshot state diverged from the committed model");
                    if let Some(prev) = epoch_states.insert(epoch, observed) {
                        prop_assert_eq!(prev, observed,
                            "same epoch observed with two different states");
                    }
                }
                Step::Checkpoint => {
                    store.checkpoint().unwrap();
                    prop_assert_eq!(store.epoch(), last_epoch,
                        "checkpoint must not bump the epoch");
                }
            }
        }
    }

    /// The write set is truly private: while a transaction holds
    /// uncommitted writes, a snapshot opened concurrently (same thread —
    /// legal now) sees only the committed state.
    #[test]
    fn uncommitted_state_invisible(
        committed in any::<u64>(),
        uncommitted in any::<u64>(),
        commit_after in any::<bool>(),
    ) {
        // Force distinct values (the vendored proptest has no
        // prop_assume).
        let uncommitted = if committed == uncommitted {
            uncommitted ^ 1
        } else {
            uncommitted
        };
        let store = TempStore::with(StoreOptions { sync_on_commit: false, ..StoreOptions::default() });
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(ode_storage::page::PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().write_u64(16, committed);
            tx.commit().unwrap();
            id
        };
        let mut tx = store.begin();
        tx.page_mut(id).unwrap().write_u64(16, uncommitted);
        {
            let mut r = store.read();
            prop_assert_eq!(r.page(id).unwrap().read_u64(16), committed);
        }
        let expected = if commit_after {
            tx.commit().unwrap();
            uncommitted
        } else {
            drop(tx);
            committed
        };
        let mut r = store.read();
        prop_assert_eq!(r.page(id).unwrap().read_u64(16), expected);
        drop(r);
    }
}

// ---------------------------------------------------------------------------
// Optimistic multi-writer battery (conflict matrix + interleavings)
// ---------------------------------------------------------------------------

use std::sync::atomic::AtomicU64;
use std::time::Duration;

use ode_storage::StorageError;

fn no_sync() -> StoreOptions {
    StoreOptions {
        sync_on_commit: false,
        ..StoreOptions::default()
    }
}

/// Allocate `n` heap pages in one exclusive transaction and zero their
/// value slot, so later optimistic transactions never touch the header
/// page (allocation reads+writes it and would serialize everything).
fn alloc_pages(store: &Store, n: usize) -> Vec<PageId> {
    let mut tx = store.begin();
    let pages: Vec<PageId> = (0..n)
        .map(|_| {
            let id = tx.allocate(ode_storage::page::PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().write_u64(16, 0);
            id
        })
        .collect();
    tx.commit().unwrap();
    pages
}

/// Conflict matrix, row 1: two optimistic writers with disjoint write
/// sets both commit, each bumping the epoch once.
#[test]
fn disjoint_optimistic_writers_both_commit() {
    let store = TempStore::with(no_sync());
    let pages = alloc_pages(&store, 2);
    let e0 = store.epoch();
    let s0 = store.stats();

    let mut t1 = store.begin_optimistic();
    let mut t2 = store.begin_optimistic();
    t1.page_mut(pages[0]).unwrap().write_u64(16, 11);
    t2.page_mut(pages[1]).unwrap().write_u64(16, 22);
    t1.commit().unwrap();
    // t2 validates against t1's already-published commit; the write
    // sets are disjoint, so it must win too.
    t2.commit().unwrap();

    assert_eq!(store.epoch(), e0 + 2, "each winner bumps the epoch once");
    let mut r = store.read();
    assert_eq!(r.page(pages[0]).unwrap().read_u64(16), 11);
    assert_eq!(r.page(pages[1]).unwrap().read_u64(16), 22);
    drop(r);
    let s1 = store.stats();
    assert_eq!(s1.write_conflicts, s0.write_conflicts);
    assert_eq!(s1.write_txs, s0.write_txs + 2);
}

/// Conflict matrix, row 2: two optimistic read-modify-writes of the
/// same page — exactly one commits, the loser gets `WriteConflict`,
/// leaves no trace (no epoch bump, no WAL record that survives
/// recovery), and the conflict counter records it.
#[test]
fn same_page_conflict_loses_exactly_once() {
    let mut store = TempStore::with(no_sync());
    let pages = alloc_pages(&store, 1);
    {
        let mut tx = store.begin();
        tx.page_mut(pages[0]).unwrap().write_u64(16, 5);
        tx.commit().unwrap();
    }
    let e0 = store.epoch();
    let s0 = store.stats();

    let mut t1 = store.begin_optimistic();
    let mut t2 = store.begin_optimistic();
    let v1 = t1.page(pages[0]).unwrap().read_u64(16);
    let v2 = t2.page(pages[0]).unwrap().read_u64(16);
    assert_eq!((v1, v2), (5, 5));
    t1.page_mut(pages[0]).unwrap().write_u64(16, v1 + 1);
    t2.page_mut(pages[0]).unwrap().write_u64(16, v2 + 10);
    t1.commit().unwrap();
    let err = t2.commit().unwrap_err();
    assert!(
        matches!(err, StorageError::WriteConflict),
        "loser must fail with WriteConflict, got {err}"
    );

    assert_eq!(store.epoch(), e0 + 1, "the loser must not bump the epoch");
    let s1 = store.stats();
    assert_eq!(s1.write_conflicts, s0.write_conflicts + 1);
    assert_eq!(
        s1.write_txs,
        s0.write_txs + 1,
        "an aborted commit must not count as a write transaction"
    );
    let mut r = store.read();
    assert_eq!(
        r.page(pages[0]).unwrap().read_u64(16),
        6,
        "first committer wins"
    );
    drop(r);

    // The loser aborted before touching the WAL: recovery replays the
    // log and must land on the winner's state.
    store.reopen();
    let mut r = store.read();
    assert_eq!(r.page(pages[0]).unwrap().read_u64(16), 6);
    drop(r);
}

/// A doomed optimistic transaction fails fast: once a page it already
/// read is overwritten by a committed peer, the *next* fetch reports
/// `WriteConflict` instead of handing out an incoherent mix of epochs.
#[test]
fn stale_read_fails_fast_at_next_fetch() {
    let store = TempStore::with(no_sync());
    let pages = alloc_pages(&store, 2);
    let s0 = store.stats();

    let mut t = store.begin_optimistic();
    assert_eq!(t.page(pages[0]).unwrap().read_u64(16), 0);
    {
        let mut ex = store.begin();
        ex.page_mut(pages[0]).unwrap().write_u64(16, 99);
        ex.commit().unwrap();
    }
    let err = t.page(pages[1]).unwrap_err();
    assert!(
        matches!(err, StorageError::WriteConflict),
        "stale fetch must fail fast, got {err}"
    );
    assert_eq!(store.stats().write_conflicts, s0.write_conflicts + 1);
}

/// Conflict matrix, row 3: read-only transactions never abort.
/// An optimistic transaction that only reads validates trivially and
/// commits even when unrelated pages churn underneath it; a `ReadTx`
/// opened across a conflicting commit serves its snapshot to the end.
#[test]
fn read_only_transactions_never_abort() {
    let store = TempStore::with(no_sync());
    let pages = alloc_pages(&store, 2);

    // Optimistic read-only: unrelated commits do not doom it.
    let mut t = store.begin_optimistic();
    assert_eq!(t.page(pages[0]).unwrap().read_u64(16), 0);
    {
        let mut ex = store.begin();
        ex.page_mut(pages[1]).unwrap().write_u64(16, 9);
        ex.commit().unwrap();
    }
    // The pinned page is stable, and a later fetch of the *changed*
    // page revalidates the (untouched) read set and sees the new value
    // — serializable: reads-only-a ordered after the commit to b.
    assert_eq!(t.page(pages[0]).unwrap().read_u64(16), 0);
    assert_eq!(t.page(pages[1]).unwrap().read_u64(16), 9);
    t.commit().unwrap();

    // ReadTx concurrent with a commit to the very pages it reads: the
    // snapshot gate holds the publish back, so it observes its epoch's
    // state for its whole lifetime and never errors.
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        let (store, pages, barrier) = (&store, &pages, &barrier);
        scope.spawn(move || {
            let mut r = store.read();
            assert_eq!(r.page(pages[1]).unwrap().read_u64(16), 9);
            barrier.wait(); // writer starts committing to pages[1]
                            // Still our snapshot, even with a writer waiting to publish.
            assert_eq!(r.page(pages[0]).unwrap().read_u64(16), 0);
            assert_eq!(r.page(pages[1]).unwrap().read_u64(16), 9);
        });
        barrier.wait();
        let mut ex = store.begin();
        ex.page_mut(pages[1]).unwrap().write_u64(16, 10);
        ex.commit().unwrap(); // blocks until the reader drops; no error either side
    });
    let mut r = store.read();
    assert_eq!(r.page(pages[1]).unwrap().read_u64(16), 10);
    drop(r);
}

/// Back-to-back winners inside one group-commit cohort each bump the
/// epoch exactly once: with a deliberate leader window, concurrent
/// optimistic writers on disjoint pages land in shared fsync cohorts,
/// and afterwards `epoch delta == committed transactions` must hold.
#[test]
fn cohort_winners_bump_epoch_once_each() {
    const WRITERS: usize = 4;
    const COMMITS: u64 = 25;
    let store = TempStore::with(StoreOptions {
        sync_on_commit: true,
        group_commit: true,
        group_commit_window: Duration::from_millis(1),
        ..StoreOptions::default()
    });
    let pages = alloc_pages(&store, WRITERS);
    let e0 = store.epoch();
    let s0 = store.stats();

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (store, pages) = (&store, &pages);
            scope.spawn(move || {
                for i in 1..=COMMITS {
                    let mut tx = store.begin_optimistic();
                    tx.page_mut(pages[w]).unwrap().write_u64(16, i);
                    tx.commit().unwrap(); // disjoint pages: must never conflict
                }
            });
        }
    });

    let committed = WRITERS as u64 * COMMITS;
    assert_eq!(
        store.epoch() - e0,
        committed,
        "one epoch bump per committed transaction, even inside shared cohorts"
    );
    let s1 = store.stats();
    assert_eq!(s1.write_txs - s0.write_txs, committed);
    assert_eq!(s1.write_conflicts, s0.write_conflicts);
    let mut r = store.read();
    for &id in &pages {
        assert_eq!(r.page(id).unwrap().read_u64(16), COMMITS);
    }
    drop(r);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// N model writers run concurrently with randomized page overlap,
    /// each a script of read-modify-write increments retried on
    /// conflict. Afterwards every page must hold exactly the sum a
    /// sequential reference execution produces (a single lost update —
    /// the classic OCC failure — breaks the sum), the write-transaction
    /// and epoch counters must equal the number of commits, and the
    /// conflict counter must equal the aborts the writers observed.
    #[test]
    fn concurrent_writers_match_sequential_model(
        scripts in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0usize..3, 1u64..100), 1..3),
                1..6,
            ),
            2..5,
        ),
        _seed in any::<u32>(),
    ) {
        let store = TempStore::with(no_sync());
        let pages = alloc_pages(&store, 3);
        let e0 = store.epoch();
        let s0 = store.stats();
        let aborts = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for script in &scripts {
                let (store, pages, aborts) = (&store, &pages, &aborts);
                scope.spawn(move || {
                    for writes in script {
                        // Retry the whole transaction from scratch on
                        // conflict — never resubmit a stale write set.
                        loop {
                            let mut tx = store.begin_optimistic();
                            let outcome = (|| {
                                for &(slot, inc) in writes {
                                    let v = tx.page(pages[slot])?.read_u64(16);
                                    tx.page_mut(pages[slot])?
                                        .write_u64(16, v.wrapping_add(inc));
                                }
                                Ok(())
                            })();
                            let outcome = outcome.and_then(|()| tx.commit());
                            match outcome {
                                Ok(()) => break,
                                Err(StorageError::WriteConflict) => {
                                    aborts.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!("unexpected commit error: {e}"),
                            }
                        }
                    }
                });
            }
        });

        // Sequential reference model: every script op applied once.
        let mut model = [0u64; 3];
        for script in &scripts {
            for writes in script {
                for &(slot, inc) in writes {
                    model[slot] = model[slot].wrapping_add(inc);
                }
            }
        }
        let mut r = store.read();
        for (slot, &id) in pages.iter().enumerate() {
            let got = r.page(id).unwrap().read_u64(16);
            prop_assert_eq!(got, model[slot],
                "lost or phantom update on slot {}", slot);
        }
        drop(r);

        let commits: u64 = scripts.iter().map(|s| s.len() as u64).sum();
        let s1 = store.stats();
        prop_assert_eq!(s1.write_txs - s0.write_txs, commits,
            "every script op must commit exactly once");
        prop_assert_eq!(store.epoch() - e0, commits,
            "aborted attempts must not bump the epoch");
        prop_assert_eq!(s1.write_conflicts - s0.write_conflicts,
            aborts.load(Ordering::Relaxed),
            "the conflict counter must match the aborts writers saw");
    }
}

// Keep PageBuf in the imports honest (used via trait methods above).
#[allow(dead_code)]
fn _page_type(_: &PageBuf) {}
