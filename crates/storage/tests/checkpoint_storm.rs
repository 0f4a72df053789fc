//! Regression: a store that has outgrown its buffer pool must not
//! checkpoint on every commit.
//!
//! `BufferPool::publish` used to insert a page the pool did not hold
//! without evicting anything, so once the file was larger than the pool
//! the resident count stayed above capacity for good, `over_target()`
//! read that as dirty pressure, and `Tx::commit` ran a full checkpoint
//! (flush every dirty page, fsync the file, truncate and fsync the log)
//! on most commits.

use ode_storage::heap::{Heap, RecordId};
use ode_storage::testutil::TempStore;
use ode_storage::{PageWrite, StoreOptions};

const POOL_PAGES: usize = 256;
/// One ~3 KB record per page: the heap alone is over 4× the pool.
const RECORDS: usize = 4 * POOL_PAGES + 76;
const RECORD_BYTES: usize = 3000;
const COMMITS: usize = 2000;

fn options() -> StoreOptions {
    StoreOptions {
        buffer_pages: POOL_PAGES,
        // The checkpoint trigger is the same with or without fsync.
        sync_on_commit: false,
        ..StoreOptions::default()
    }
}

fn record(i: usize, generation: u64) -> Vec<u8> {
    let mut bytes = vec![(i % 251) as u8; RECORD_BYTES];
    bytes[..8].copy_from_slice(&generation.to_le_bytes());
    bytes
}

#[test]
fn small_commits_on_a_store_larger_than_the_pool_rarely_checkpoint() {
    let mut store = TempStore::with(options());
    let (heap, rids): (Heap, Vec<RecordId>) = {
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        let rids = (0..RECORDS)
            .map(|i| heap.insert(&mut tx, &record(i, 0)).unwrap())
            .collect();
        tx.set_root(0, heap.dir.0).unwrap();
        tx.commit().unwrap();
        (heap, rids)
    };
    store.checkpoint().unwrap();

    // Each commit rewrites one record in place: one dirty page.
    let mut generations = vec![0u64; RECORDS];
    let mut checkpoints = 0usize;
    let mut wal_before = store.wal_len();
    for commit in 1..=COMMITS {
        let i = commit.wrapping_mul(2_654_435_761) % RECORDS;
        generations[i] = commit as u64;
        let mut tx = store.begin();
        let rid = heap
            .replace(&mut tx, rids[i], &record(i, commit as u64))
            .unwrap();
        assert_eq!(rid, rids[i], "same-size rewrite stays in place");
        tx.commit().unwrap();

        // A checkpoint empties the log.
        let wal_after = store.wal_len();
        if wal_after < wal_before {
            checkpoints += 1;
        }
        wal_before = wal_after;
        let resident = store.buffer_stats().resident;
        assert!(
            resident <= POOL_PAGES as u64,
            "commit {commit}: {resident} frames resident in a {POOL_PAGES}-page pool"
        );
    }
    assert!(
        checkpoints * 100 <= COMMITS,
        "{checkpoints} checkpoints in {COMMITS} one-page commits"
    );
    assert!(
        checkpoints > 0,
        "dirty pages must still be bounded by the pool"
    );

    // Crash (no shutdown checkpoint): the log tail replays to the same
    // records.
    store.crash();
    store.reopen();
    let mut r = store.read();
    for (i, &rid) in rids.iter().enumerate() {
        assert_eq!(
            heap.get(&mut r, rid).unwrap(),
            record(i, generations[i]),
            "record {i}"
        );
    }
}
