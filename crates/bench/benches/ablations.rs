//! Ablations over the implementation's own design choices (DESIGN.md §8
//! tail): B+-tree fanout, buffer-pool size and delta block size, plus a
//! probe of each CPU loop a commit runs beside its fsync, of a
//! checkpoint's write-back and of the fsync itself on a growing and on
//! a recycled log, and a three-way merge on `route_collab`'s document
//! shape.

use bench::{Blob, TempDir};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ode::{Database, DatabaseOptions};
use ode_delta::{apply, diff_with_block, DEFAULT_BLOCK};
use ode_merge::{merge, MergePolicy};
use ode_storage::btree::BTree;
use ode_storage::buffer::BufferPool;
use ode_storage::pager::Pager;
use ode_storage::wal::{page_diff_runs, push_frame, Wal, WalRecord};
use ode_storage::{crc32, PageBuf, PageId, Store, StoreOptions, PAGE_SIZE};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_btree_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_btree_fanout");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    for cap in [8usize, 32, 128, 254] {
        group.bench_function(BenchmarkId::new("insert-10k", cap), |b| {
            b.iter_with_large_drop(|| {
                let dir = TempDir::new("ab-bt");
                let store = Store::create(
                    dir.file("db"),
                    StoreOptions {
                        sync_on_commit: false,
                        ..StoreOptions::default()
                    },
                )
                .unwrap();
                {
                    let mut tx = store.begin();
                    let mut tree = BTree::create(&mut tx).unwrap().with_caps(cap, cap);
                    for k in 0..10_000u64 {
                        tree.insert(&mut tx, k.wrapping_mul(0x9E37_79B9), k)
                            .unwrap();
                    }
                    tx.commit().unwrap();
                }
                (store, dir)
            })
        });
    }
    group.finish();
}

fn bench_buffer_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_buffer_pool");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    for pool_pages in [16usize, 128, 1024] {
        let dir = TempDir::new("ab-pool");
        let options = DatabaseOptions {
            storage: StoreOptions {
                sync_on_commit: false,
                buffer_pages: pool_pages,
                ..StoreOptions::default()
            },
            ..DatabaseOptions::default()
        };
        let db = Database::create(dir.file("db"), options).unwrap();
        let ptrs: Vec<_> = {
            let mut txn = db.begin();
            let ptrs: Vec<_> = (0..500)
                .map(|i| txn.pnew(&Blob::of_size(i, 2048)).unwrap())
                .collect();
            txn.commit().unwrap();
            ptrs
        };
        db.checkpoint().unwrap();
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("scattered-reads", pool_pages), |b| {
            b.iter(|| {
                // Stride through the population to defeat small pools.
                i = (i + 97) % ptrs.len();
                let mut snap = db.snapshot();
                snap.deref(&ptrs[i]).unwrap()
            })
        });
        let stats = db.buffer_stats();
        eprintln!(
            "ablation_buffer_pool: pages={pool_pages} hits={} misses={} evictions={}",
            stats.hits, stats.misses, stats.evictions
        );
    }
    group.finish();
}

fn bench_delta_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_delta_block");
    group.sample_size(15);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    let size = 16 * 1024;
    let base: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    let mut target = base.clone();
    for k in 0..160 {
        let idx = (k * 101) % size;
        target[idx] ^= 0x5A;
    }
    eprintln!("\nablation_delta_block: delta size by block size (16 KiB object, 160 edits)");
    for block in [8usize, 32, 128, 512] {
        let d = diff_with_block(&base, &target, block);
        eprintln!(
            "  block={block:<5} encoded={:<8} literals={}",
            d.encoded_size(),
            d.literal_bytes()
        );
        group.bench_function(BenchmarkId::new("diff", block), |b| {
            b.iter(|| diff_with_block(&base, &target, block))
        });
        group.bench_function(BenchmarkId::new("apply", block), |b| {
            b.iter(|| apply(&base, &d).unwrap())
        });
    }
    group.finish();
}

/// Deterministic bytes with no structure a diff could exploit.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

/// `bytes` with two 51-byte runs rewritten: the edit `odebench`'s
/// `checkin` makes to a 2 KiB body.
fn two_rewrites(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for at in [bytes.len() / 5, bytes.len() * 3 / 5] {
        for b in &mut out[at..at + 51] {
            *b ^= 0x5A;
        }
    }
    out
}

/// The loops a commit runs on its own CPU beside the fsync, each on
/// `checkin`'s edit shape.
fn bench_commit_cpu(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_commit_cpu");
    group.sample_size(15);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    // Every page seal, page verify and WAL frame pays this checksum.
    let page = noise(PAGE_SIZE, 1);
    group.bench_function("crc32/4KiB-page", |b| b.iter(|| crc32(black_box(&page))));
    // The diff behind each WAL delta record, at the store's run gap.
    let edited = two_rewrites(&page);
    group.bench_function("page_diff_runs/two-51B-edits", |b| {
        b.iter(|| page_diff_runs(black_box(&page), black_box(&edited), 24, usize::MAX))
    });
    // The dense run of a fresh 2 KiB record written into a page's free
    // space: a new version's record, and `checkin` set-up's batches.
    let mut half_full = page.clone();
    half_full[PAGE_SIZE / 2..].fill(0);
    let mut with_record = half_full.clone();
    with_record[PAGE_SIZE / 2 - 64..PAGE_SIZE / 2 + 1984].copy_from_slice(&noise(2048, 4));
    group.bench_function("page_diff_runs/fresh-2KiB-record", |b| {
        b.iter(|| {
            page_diff_runs(
                black_box(&half_full),
                black_box(&with_record),
                24,
                usize::MAX,
            )
        })
    });
    // A checkpoint's write-back of 64 adjacent dirty pages, overwriting
    // pages the file holds (no fsync).
    let dir = TempDir::new("ab-wb");
    let pager = Pager::create(&dir.file("db")).unwrap();
    let pool = BufferPool::new(256);
    let images: Vec<Arc<PageBuf>> = (0..64)
        .map(|k| Arc::new(PageBuf::from_vec(noise(PAGE_SIZE, 10 + k)).unwrap()))
        .collect();
    let dirty_all = || {
        for (k, image) in images.iter().enumerate() {
            pool.publish(PageId(k as u64), Arc::clone(image), true);
        }
    };
    dirty_all();
    pool.flush_all(&pager).unwrap();
    group.bench_function("flush_all/64-adjacent-pages", |b| {
        b.iter_batched(
            dirty_all,
            |()| pool.flush_all(&pager).unwrap(),
            BatchSize::PerIteration,
        )
    });
    // The diff behind each chain delta.
    let body = noise(2048, 2);
    let target = two_rewrites(&body);
    group.bench_function("diff_with_block/2KiB-two-51B-rewrites", |b| {
        b.iter(|| diff_with_block(black_box(&body), black_box(&target), DEFAULT_BLOCK))
    });
    group.finish();
}

/// A commit's log write and its fsync, about the 4.5 KB a `checkin`
/// commit logs, on a log whose every generation grows the file from its
/// header and on one whose generations overwrite the blocks the file
/// already owns. Generations end at 1 MiB, outside the timed span.
fn bench_wal_fsync(c: &mut Criterion) {
    const GENERATION: u64 = 1 << 20;
    let mut group = c.benchmark_group("ablation_wal_fsync");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1500));
    let mut frame = Vec::new();
    push_frame(
        &mut frame,
        &[WalRecord::PageDelta {
            page: 1,
            ops: vec![(0, noise(4500, 3))],
        }],
    )
    .unwrap();
    for recycled in [false, true] {
        let dir = TempDir::new("ab-wal");
        let wal = RefCell::new(Wal::open(&dir.file("wal")).unwrap());
        let end_generation = || {
            let mut wal = wal.borrow_mut();
            let seed = wal.tail();
            if recycled {
                wal.recycle(seed).unwrap();
            } else {
                wal.trim(seed).unwrap();
            }
        };
        if recycled {
            // One whole generation first, so every timed write lands
            // in blocks the file owns.
            while wal.borrow().len() < GENERATION {
                wal.borrow_mut().append(&mut frame).unwrap();
            }
            end_generation();
        }
        let name = if recycled { "recycled" } else { "fresh" };
        group.bench_function(BenchmarkId::new("append+sync/4.5KB", name), |b| {
            b.iter_batched(
                || {
                    if wal.borrow().len() >= GENERATION {
                        end_generation();
                    }
                },
                |()| {
                    let mut wal = wal.borrow_mut();
                    wal.append(&mut frame).unwrap();
                    wal.sync().unwrap();
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

/// One slice of `route_collab`'s 4 KB document (three 1 360-byte slices,
/// 8-byte separators) as `writer` (0 the base, 1 ours, 2 theirs) writes
/// it: one 32-symbol alphabet per writer, as `route_collab` writes.
fn merge_slice(writer: u8, seed: u64) -> Vec<u8> {
    noise(1360, seed)
        .iter()
        .map(|b| b' ' + 32 * writer + b % 32)
        .collect()
}

/// A merge where each side rewrites its own slice: the alignment and
/// the bounded exact search behind every `Txn::merge`.
fn bench_merge_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_merge_refine");
    group.sample_size(15);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    let doc = |slices: [Vec<u8>; 3]| slices.join(&[b'\n'; 8][..]);
    let [b0, b1, b2] = [0, 1, 2].map(|s| merge_slice(0, 10 + s));
    let base = doc([b0.clone(), b1.clone(), b2.clone()]);
    assert_eq!(base.len(), 4096);
    let ours = doc([merge_slice(1, 20), b1, b2.clone()]);
    let theirs = doc([b0, merge_slice(2, 30), b2]);
    assert!(merge(&base, &ours, &theirs, MergePolicy::Theirs)
        .conflicts
        .is_empty());
    group.bench_function("4KB-one-slice-a-side", |b| {
        b.iter(|| {
            merge(
                black_box(&base),
                black_box(&ours),
                black_box(&theirs),
                MergePolicy::Theirs,
            )
        })
    });
    // The same, each side rewriting its slice in the base's own
    // alphabet (a slice that cycled back to it): the byte counts match,
    // so only the 4-gram bound refuses the search. The rewrites are the
    // first seeds whose diff is one hunk over the slice, as
    // `route_collab`'s refused gaps are: no 8-gram anchors the rewrite,
    // so the whole slice is one gap.
    let [b0, b1, b2] = [0, 1, 2].map(|s| merge_slice(0, 10 + s));
    let whole = |old: &[u8], from: u64| {
        (from..)
            .map(|seed| merge_slice(0, seed))
            .find(|new| ode_merge::hunks(old, new).len() == 1)
            .expect("a rewrite that diffs as one hunk")
    };
    let ours = doc([whole(&b0, 40), b1.clone(), b2.clone()]);
    let theirs = doc([b0, whole(&b1, 50), b2]);
    assert!(merge(&base, &ours, &theirs, MergePolicy::Theirs)
        .conflicts
        .is_empty());
    group.bench_function("4KB-one-slice-a-side-shared-alphabet", |b| {
        b.iter(|| {
            merge(
                black_box(&base),
                black_box(&ours),
                black_box(&theirs),
                MergePolicy::Theirs,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_btree_fanout,
    bench_buffer_pool,
    bench_delta_block,
    bench_commit_cpu,
    bench_wal_fsync,
    bench_merge_refine
);
criterion_main!(benches);
