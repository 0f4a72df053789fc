//! E7 — Delta storage of derived-from chains (§2's SCCS/RCS remark),
//! measured on the layout the engine runs.
//!
//! One 8 KiB object evolves by ~1 % edits through 4, 16 and 64 versions
//! in a `VersionStore` whose segmented chain re-anchors every 1, 8 or 64
//! versions (interval 1 stores every version whole). Space comes from
//! `chain_stats`: the chain's records plus the latest body, which is
//! kept whole outside the chain, against one whole copy per version.
//! Timed: the check-ins that build the history (one transaction, no
//! fsync), reading the latest version, the previous one (the end of the
//! longest replay) and the oldest.

use std::rc::Rc;
use std::time::Duration;

use bench::TempDir;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ode_codec::TypeTag;
use ode_storage::{Store, StoreOptions};
use ode_version::{ChainConfig, Oid, VersionStore, VersionStoreLayout, Vid};

const TAG: TypeTag = TypeTag::from_name("e7/Blob");

/// A CAD-like evolution: 8 KiB object, each version edits ~1%.
fn evolution(n: usize) -> Vec<Vec<u8>> {
    let size = 8 * 1024;
    let mut state: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    let mut out = vec![state.clone()];
    for step in 1..n {
        for k in 0..80 {
            let idx = (step * 97 + k * 53) % size;
            state[idx] = state[idx].wrapping_add(1);
        }
        out.push(state.clone());
    }
    out
}

/// A store holding one object at its first version.
struct History {
    vs: VersionStore,
    oid: Oid,
    vids: Vec<Vid>,
    store: Store,
    _dir: TempDir,
}

impl History {
    fn start(interval: u64, first: &[u8]) -> History {
        let dir = TempDir::new("e7");
        let options = StoreOptions {
            sync_on_commit: false,
            ..StoreOptions::default()
        };
        let store = Store::create(dir.file("db"), options).unwrap();
        let vs = VersionStore::with_chain(
            VersionStoreLayout::default(),
            ChainConfig::with_interval(interval),
        );
        let mut tx = store.begin();
        let (oid, v0) = vs.create_object(&mut tx, TAG, first.to_vec()).unwrap();
        tx.commit().unwrap();
        History {
            vs,
            oid,
            vids: vec![v0],
            store,
            _dir: dir,
        }
    }

    /// Check in each of `states` as a new version of the object.
    fn check_in(&self, states: &[Vec<u8>]) -> Vec<Vid> {
        let mut tx = self.store.begin();
        let vids = states
            .iter()
            .map(|state| {
                let v = self.vs.new_version_of(&mut tx, self.oid).unwrap();
                self.vs.write_body(&mut tx, v, TAG, state.clone()).unwrap();
                v
            })
            .collect();
        tx.commit().unwrap();
        vids
    }

    fn build(interval: u64, versions: &[Vec<u8>]) -> History {
        let mut h = History::start(interval, &versions[0]);
        let rest = h.check_in(&versions[1..]);
        h.vids.extend(rest);
        h
    }

    fn read(&self, vid: Vid) -> Vec<u8> {
        let mut tx = self.store.read();
        self.vs.read_body(&mut tx, vid, TAG).unwrap()
    }
}

fn bench_delta(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_delta");
    group.sample_size(15);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    eprintln!("\ne7_delta: stored bytes (chain + latest body) by anchor interval and chain length");
    for len in [4usize, 16, 64] {
        let versions = evolution(len);
        let latest = versions[len - 1].len() as u64;
        for interval in [1u64, 8, 64] {
            let h = History::build(interval, &versions);
            for (i, v) in versions.iter().enumerate() {
                assert_eq!(&h.read(h.vids[i]), v, "interval {interval} v{i}");
            }
            let stats = {
                let mut tx = h.store.read();
                h.vs.chain_stats(&mut tx, h.oid).unwrap().expect("a chain")
            };
            eprintln!(
                "  len={len:<3} interval={interval:<3} full-copy={:<7} stored={:<7} segments={}",
                stats.materialized_bytes + latest,
                stats.encoded_bytes + latest,
                stats.segments
            );

            let id = |what: &str| BenchmarkId::new(format!("{what}-k{interval}"), len);
            let mut last: Option<Rc<History>> = None;
            group.bench_function(id("check-in"), |b| {
                b.iter_batched(
                    || {
                        // The previous history is dropped here, untimed.
                        let fresh = Rc::new(History::start(interval, &versions[0]));
                        last = Some(Rc::clone(&fresh));
                        fresh
                    },
                    |fresh| fresh.check_in(&versions[1..]),
                    BatchSize::PerIteration,
                )
            });
            let (oldest, previous, newest) = (h.vids[0], h.vids[len - 2], h.vids[len - 1]);
            group.bench_function(id("latest"), |b| b.iter(|| h.read(newest)));
            group.bench_function(id("previous"), |b| b.iter(|| h.read(previous)));
            group.bench_function(id("oldest"), |b| b.iter(|| h.read(oldest)));
        }
    }
    group.finish();
}

criterion_group!(benches, bench_delta);
criterion_main!(benches);
