//! E13 — temporal ("as-of") queries on historical databases.
//!
//! §2 motivates automatic temporal ordering with accounting/legal/
//! financial systems "that must access the past states of the
//! database".  A version's stamp is its id and the object's delta
//! chain holds every version but the latest in stamp order, so
//! `version_as_of` is one binary search over the chain directory plus
//! one vid scan of a run, at any distance into the past (the latest
//! answers alone when it is old enough).  Series: as-of lookups at
//! fixed distances from the present, across history lengths.

use std::time::Duration;

use bench::{bench_db, Blob, TempDir};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_temporal(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_temporal");
    group.sample_size(15);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    for history in [64usize, 1024, 8192] {
        let dir = TempDir::new("e13");
        let db = bench_db(&dir, "db");
        let (ptr, stamps) = {
            let mut txn = db.begin();
            let ptr = txn.pnew(&Blob::of_size(0, 128)).unwrap();
            let mut stamps = vec![txn.now_stamp().unwrap()];
            for _ in 1..history {
                txn.newversion(&ptr).unwrap();
                stamps.push(txn.now_stamp().unwrap());
            }
            txn.commit().unwrap();
            (ptr, stamps)
        };

        // Distance 1 (yesterday), mid-history, and the very beginning.
        for (label, idx) in [
            ("recent", history - 2),
            ("mid", history / 2),
            ("oldest", 0usize),
        ] {
            let stamp = stamps[idx];
            group.bench_function(BenchmarkId::new(format!("asof-{label}"), history), |b| {
                b.iter(|| {
                    let mut snap = db.snapshot();
                    snap.version_as_of(&ptr, stamp).unwrap().unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_temporal);
criterion_main!(benches);
