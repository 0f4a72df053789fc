//! Layer probes: a seeded sample of the workload's own bodies fed
//! straight to the lower crates' public functions, so that each layer's
//! cost is known apart from the layers above it. Probes run after the
//! measured phase of a traced run, on an otherwise idle process.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use ode::{ChainConfig, Database, DatabaseOptions, MergePolicy, Oid, Vid};
use ode_delta::{apply, diff_with_block, DEFAULT_BLOCK};
use ode_net::{Request, Response};
use ode_storage::btree::BTree;
use ode_storage::heap::Heap;
use ode_storage::{Store, StoreOptions};
use ode_version::{VersionStore, VersionStoreLayout};

use crate::gen::{self, encode_text as encode, tag, Doc, Edit};
use crate::stats::percentile;
use crate::trace::now_ns;
use crate::workloads::{ratio, Ctx, Outcome};

/// Fsynced probe commits are capped: each costs a disk flush.
const MAX_COMMIT_SAMPLES: usize = 400;
const PROBE_OBJECTS: usize = 32;
/// Versions each object of the version probe receives: about the
/// chain length the chained workloads run at.
const PROBE_VERSIONS: usize = 8;

type Metrics = BTreeMap<&'static str, f64>;

/// Median in µs of samples taken in ns.
fn p50_us(mut samples_ns: Vec<u64>) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    samples_ns.sort_unstable();
    percentile(&samples_ns, 0.5) as f64 / 1e3
}

fn timed<R>(samples: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let start = now_ns();
    let out = f();
    samples.push(now_ns() - start);
    out
}

/// `ode-delta` and `ode-codec` on the sample pairs. Returns the median
/// encoded delta size, which sizes the storage probe's records.
fn delta_and_codec(m: &mut Metrics, pairs: &[(Vec<u8>, Vec<u8>)]) -> usize {
    let (mut diff_ns, mut apply_ns) = (Vec::new(), Vec::new());
    let (mut encode_ns, mut decode_ns) = (Vec::new(), Vec::new());
    let mut delta_sizes = Vec::new();
    let (mut delta_bytes, mut body_bytes) = (0u64, 0u64);
    for (base, target) in pairs {
        let delta = timed(&mut diff_ns, || {
            diff_with_block(base, target, DEFAULT_BLOCK)
        });
        let rebuilt = timed(&mut apply_ns, || apply(base, &delta)).expect("delta applies");
        assert_eq!(&rebuilt, target, "delta round trip");
        delta_sizes.push(delta.encoded_size() as u64);
        delta_bytes += delta.encoded_size() as u64;
        body_bytes += target.len() as u64;

        let doc = Doc {
            rev: 1,
            text: target.clone(),
        };
        let bytes = timed(&mut encode_ns, || ode_codec::to_bytes(black_box(&doc)));
        let back: Doc = timed(&mut decode_ns, || ode_codec::from_bytes(black_box(&bytes)))
            .expect("codec round trip");
        assert_eq!(back, doc, "codec round trip");
    }
    m.insert("delta.diff_us", p50_us(diff_ns));
    m.insert("delta.apply_us", p50_us(apply_ns));
    m.insert(
        "delta.encoded_bytes_per_body_byte",
        ratio(delta_bytes as f64, body_bytes as f64),
    );
    m.insert("codec.encode_us", p50_us(encode_ns));
    m.insert("codec.decode_us", p50_us(decode_ns));
    delta_sizes.sort_unstable();
    percentile(&delta_sizes, 0.5) as usize
}

/// `ode-net` protocol: encode the workload's read request and decode
/// its body response. Too fast to time singly, so whole passes are
/// timed and divided.
fn protocol(m: &mut Metrics, pairs: &[(Vec<u8>, Vec<u8>)]) {
    let request = Request::Deref {
        oid: Oid(17),
        tag: tag(),
    };
    let start = now_ns();
    for seq in 0..pairs.len() as u64 {
        black_box(black_box(&request).encode(seq));
    }
    let encode_ns = (now_ns() - start) as f64;

    let frames: Vec<Vec<u8>> = pairs
        .iter()
        .enumerate()
        .map(|(seq, (_, target))| {
            Response::Body {
                vid: Vid(seq as u64 + 1),
                bytes: encode(target),
            }
            .encode(seq as u64)
        })
        .collect();
    let start = now_ns();
    for frame in &frames {
        black_box(Response::decode(black_box(frame)).expect("response decodes"));
    }
    let decode_ns = (now_ns() - start) as f64;
    m.insert("net.encode_ns_per_req", encode_ns / pairs.len() as f64);
    m.insert("net.decode_ns_per_resp", decode_ns / pairs.len() as f64);
}

/// A bare `Store` under the workload's flush policy: commit cost for a
/// record the size of the median delta, and B+-tree and heap lookups
/// at the workload's key count.
fn storage(m: &mut Metrics, path: &Path, out: &Outcome, items: usize, record_bytes: usize) {
    let options = StoreOptions {
        sync_on_commit: out.probe_sync,
        ..StoreOptions::default()
    };
    let store = Store::create(path, options).expect("create probe store");
    let record = gen::text(1, record_bytes.max(16));
    let mut tx = store.begin();
    let heap = Heap::create(&mut tx).expect("heap");
    let mut tree = BTree::create(&mut tx).expect("btree");
    for key in 0..out.probe_keys as u64 {
        let rid = heap.insert(&mut tx, &record).expect("heap insert");
        tree.insert(&mut tx, key, rid.to_u64())
            .expect("btree insert");
    }
    tx.commit().expect("commit probe load");
    store.checkpoint().expect("checkpoint probe load");

    let mut commit_ns = Vec::new();
    for _ in 0..items.min(MAX_COMMIT_SAMPLES) {
        timed(&mut commit_ns, || {
            let mut tx = store.begin();
            heap.insert(&mut tx, &record).expect("heap insert");
            tx.commit().expect("probe commit");
        });
    }

    let (mut tree_ns, mut heap_ns) = (Vec::new(), Vec::new());
    let mut rtx = store.read();
    for i in 0..items as u64 {
        let key = gen::mix(i) % out.probe_keys.max(1) as u64;
        let rid = timed(&mut tree_ns, || tree.get(&mut rtx, key))
            .expect("btree get")
            .expect("loaded key");
        let got = timed(&mut heap_ns, || {
            heap.get(&mut rtx, ode_storage::heap::RecordId::from_u64(rid))
        })
        .expect("heap get");
        assert_eq!(got.len(), record.len(), "probe record");
    }
    m.insert("storage.commit_us", p50_us(commit_ns));
    m.insert("storage.btree_get_us", p50_us(tree_ns));
    m.insert("storage.heap_get_us", p50_us(heap_ns));
}

/// A bare `Store` plus `VersionStore`, chained like the workload's.
fn version(m: &mut Metrics, path: &Path, out: &Outcome) {
    let options = StoreOptions {
        sync_on_commit: false,
        ..StoreOptions::default()
    };
    let store = Store::create(path, options).expect("create probe store");
    let layout = VersionStoreLayout::default();
    let vs = match out.probe_chain {
        Some(interval) => VersionStore::with_chain(layout, ChainConfig::with_interval(interval)),
        None => VersionStore::new(layout),
    };
    let objects = (out.probe_pairs.len() / PROBE_VERSIONS).max(1);
    let mut tx = store.begin();
    let mut histories: Vec<Vec<Vid>> = Vec::new();
    for (base, _) in out.probe_pairs.iter().take(objects) {
        let (_, vid) = vs
            .create_object(&mut tx, tag(), encode(base))
            .expect("create object");
        histories.push(vec![vid]);
    }
    let mut write_ns = Vec::new();
    for (i, (_, target)) in out.probe_pairs.iter().enumerate() {
        let history = &mut histories[i % objects];
        let vid = vs
            .new_version_from(&mut tx, *history.last().expect("non-empty"))
            .expect("new version");
        let body = encode(target);
        timed(&mut write_ns, || vs.write_body(&mut tx, vid, tag(), body)).expect("write body");
        history.push(vid);
    }
    tx.commit().expect("commit probe versions");

    let (mut latest_ns, mut hist_ns) = (Vec::new(), Vec::new());
    let mut rtx = store.read();
    for i in 0..out.probe_pairs.len() {
        let history = &histories[i % histories.len()];
        let latest = *history.last().expect("non-empty");
        let older = history[gen::mix(i as u64) as usize % (history.len() - 1).max(1)];
        black_box(timed(&mut latest_ns, || vs.read_body(&mut rtx, latest, tag())).expect("read"));
        black_box(timed(&mut hist_ns, || vs.read_body(&mut rtx, older, tag())).expect("read"));
    }
    m.insert("version.write_body_us", p50_us(write_ns));
    m.insert("version.read_body_latest_us", p50_us(latest_ns));
    m.insert("version.read_body_hist_us", p50_us(hist_ns));
}

/// `ode-merge` and the common-ancestor walk, timed from outside
/// through `Txn` on an embedded copy of the workload's bodies: two
/// forks of the latest version, one edit each, merged.
fn merge(m: &mut Metrics, path: &Path, out: &Outcome, items: usize) {
    let mut options = DatabaseOptions::no_sync();
    if let Some(interval) = out.probe_chain {
        options = options.with_chain(ChainConfig::with_interval(interval));
    }
    let db = Database::create(path, options).expect("create probe database");
    let mut txn = db.begin();
    let mut docs: Vec<(Oid, Vec<u8>)> = out
        .probe_pairs
        .iter()
        .take(PROBE_OBJECTS)
        .map(|(base, _)| {
            let oid = txn.pnew_raw(tag(), encode(base)).expect("pnew").0;
            (oid, base.clone())
        })
        .collect();
    txn.commit().expect("commit probe documents");

    let (mut ancestor_ns, mut merge_ns) = (Vec::new(), Vec::new());
    for i in 0..items.min(MAX_COMMIT_SAMPLES) {
        let n = docs.len();
        let (oid, text) = &mut docs[i % n];
        let half = text.len() / 2;
        let mut txn = db.begin();
        let tip = txn.latest_raw(*oid).expect("latest");
        // Each side edits its own half of the body, so the merge is
        // clean and its result known.
        let mut forks = [tip; 2];
        let mut merged_text = text.clone();
        for (k, fork) in forks.iter_mut().enumerate() {
            let mut side = text.clone();
            let edit = Edit::new(gen::mix((i * 2 + k) as u64), half);
            edit.apply(&mut side[k * half..][..half]);
            edit.apply(&mut merged_text[k * half..][..half]);
            *fork = txn.newversion_from_raw(tip).expect("fork");
            txn.put_version_raw(*fork, tag(), encode(&side))
                .expect("edit");
        }
        let base = timed(&mut ancestor_ns, || {
            txn.common_ancestor_raw(forks[0], forks[1])
        })
        .expect("common ancestor");
        assert_eq!(base, Some(tip), "probe merge base");
        let (merged, conflicts) = timed(&mut merge_ns, || {
            txn.merge_raw(forks[0], forks[1], MergePolicy::Fail)
        })
        .expect("merge");
        assert!(conflicts.is_empty(), "edits to separate halves conflicted");
        let merged = merged.expect("clean merge checks in");
        let stored = txn.deref_version_raw(merged, tag()).expect("read merge");
        assert_eq!(stored, encode(&merged_text), "merge kept both edits");
        *text = merged_text;
        txn.commit().expect("commit probe merge");
    }
    m.insert("ode.common_ancestor_us", p50_us(ancestor_ns));
    m.insert("ode.merge_us", p50_us(merge_ns));
}

/// Run every probe on the workload's sample.
pub fn run(ctx: &Ctx, out: &Outcome) -> Metrics {
    let mut m = Metrics::new();
    let record_bytes = delta_and_codec(&mut m, &out.probe_pairs);
    protocol(&mut m, &out.probe_pairs);
    let items = ctx.probe_items();
    storage(
        &mut m,
        &ctx.dir.join("probe_storage.odb"),
        out,
        items,
        record_bytes,
    );
    version(&mut m, &ctx.dir.join("probe_version.odb"), out);
    merge(&mut m, &ctx.dir.join("probe_merge.odb"), out, items);
    m
}
