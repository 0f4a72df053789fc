//! Delta-chain storage behaviour: the store-once layout (the latest
//! version whole in its record, every older one in its object's chain),
//! byte-identical reads at every version, chain-served history queries,
//! and a model battery driving fork/edit/delete histories against an
//! in-memory list of expected bodies.

use ode_codec::TypeTag;
use ode_storage::{Store, StoreOptions};
use ode_version::{ChainConfig, VersionStore, VersionStoreLayout, Vid};

const TAG: TypeTag = TypeTag::from_name("test/Doc");

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ode-vchain-{name}-{}", std::process::id()));
    cleanup(&p);
    p
}

fn cleanup(p: &std::path::Path) {
    let _ = std::fs::remove_file(p);
    let mut wal = p.to_path_buf().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

fn chained(interval: u64) -> VersionStore {
    VersionStore::with_chain(
        VersionStoreLayout::default(),
        ChainConfig::with_interval(interval),
    )
}

/// Every vid the object's chain stores, oldest first.
fn chain_members(
    vs: &VersionStore,
    tx: &mut impl ode_storage::PageRead,
    oid: ode_version::Oid,
) -> Vec<Vid> {
    segments_of(vs, tx, oid).concat()
}

fn body(i: usize) -> Vec<u8> {
    // Evolving document: shared prefix, small point edits, some growth.
    let mut b: Vec<u8> = (0..600).map(|j| ((j * 7) % 251) as u8).collect();
    b[i % 600] = 0xEE;
    b.extend_from_slice(format!("-rev{i}").as_bytes());
    b
}

#[test]
fn chained_reads_are_byte_identical_at_every_version() {
    let mut encoded_bytes = Vec::new();
    for interval in [1, 2, 4, 16] {
        let path = temp_path(&format!("reads{interval}"));
        let store = Store::create(&path, StoreOptions::default()).unwrap();
        let vs = chained(interval);
        let mut tx = store.begin();
        let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
        let mut vids = vec![v0];
        for i in 1..24 {
            let v = vs.new_version_of(&mut tx, oid).unwrap();
            vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
            vids.push(v);
        }
        for (i, &v) in vids.iter().enumerate() {
            assert_eq!(
                vs.read_body(&mut tx, v, TAG).unwrap(),
                body(i),
                "interval {interval} version {i}"
            );
        }
        vs.check_object(&mut tx, oid).unwrap();
        // The chain holds every version but the latest, and actually
        // stores deltas (not 23 whole copies).
        let stats = vs.chain_stats(&mut tx, oid).unwrap().unwrap();
        assert_eq!(stats.versions, 23);
        if interval > 1 {
            assert!(stats.deltas > 0);
            assert!(stats.encoded_bytes < stats.materialized_bytes);
        }
        encoded_bytes.push(stats.encoded_bytes);
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }
    // The paper's space claim: at interval 16 the history costs at most
    // a third of interval 1, where every version is its own anchor.
    let (whole, sparse) = (encoded_bytes[0], encoded_bytes[3]);
    assert!(
        sparse * 3 <= whole,
        "interval 16 stores {sparse} bytes, more than a third of interval 1's {whole}"
    );
}

#[test]
fn single_version_objects_have_no_chain() {
    // Version orthogonality: an object with one version costs nothing
    // extra — no chain records at all.
    let path = temp_path("ortho");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, _) = vs.create_object(&mut tx, TAG, b"only".to_vec()).unwrap();
    assert!(vs.chain_directory(&mut tx, oid).unwrap().is_none());
    assert!(vs.chain_stats(&mut tx, oid).unwrap().is_none());
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn chain_survives_reopen() {
    let path = temp_path("reopen");
    let (oid, vids) = {
        let store = Store::create(&path, StoreOptions::default()).unwrap();
        let vs = chained(4);
        let mut tx = store.begin();
        let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
        let mut vids = vec![v0];
        for i in 1..10 {
            let v = vs.new_version_of(&mut tx, oid).unwrap();
            vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
            vids.push(v);
        }
        tx.commit().unwrap();
        (oid, vids)
    };
    let store = Store::open(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    for (i, &v) in vids.iter().enumerate() {
        assert_eq!(vs.read_body(&mut tx, v, TAG).unwrap(), body(i), "v{i}");
    }
    // And maintained: the outgoing latest appends to the chain.
    let v = vs.new_version_of(&mut tx, oid).unwrap();
    vs.write_body(&mut tx, v, TAG, body(10)).unwrap();
    assert_eq!(vs.read_body(&mut tx, v, TAG).unwrap(), body(10));
    assert_eq!(vs.read_body(&mut tx, vids[9], TAG).unwrap(), body(9));
    assert_eq!(chain_members(&vs, &mut tx, oid), vids);
    vs.check_object(&mut tx, oid).unwrap();
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn history_between_matches_walk() {
    let path = temp_path("between");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
    let mut vids = vec![v0];
    for i in 1..15 {
        let v = vs.new_version_of(&mut tx, oid).unwrap();
        vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
        vids.push(v);
    }
    // Another object interleaves stamps so ranges are not contiguous.
    let (oid2, _) = vs.create_object(&mut tx, TAG, b"x".to_vec()).unwrap();
    vs.new_version_of(&mut tx, oid2).unwrap();

    let history = vs.version_history(&mut tx, oid).unwrap();
    let stamps: Vec<u64> = history.iter().map(|v| v.0).collect();
    let lo = *stamps.first().unwrap();
    let hi = *stamps.last().unwrap();
    for from in [0, lo, lo + 3, hi] {
        for to in [lo, lo + 5, hi, hi + 10] {
            let got = vs.history_between(&mut tx, oid, from, to).unwrap();
            let want: Vec<Vid> = history
                .iter()
                .copied()
                .filter(|v| v.0 >= from && v.0 <= to)
                .collect();
            assert_eq!(got, want, "range [{from}, {to}]");
        }
    }
    assert!(vs.history_between(&mut tx, oid, hi, lo).unwrap().is_empty());
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn diff_versions_adjacent_is_served_from_the_chain() {
    let path = temp_path("diff");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(8);
    let mut tx = store.begin();
    let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
    let mut vids = vec![v0];
    for i in 1..10 {
        let v = vs.new_version_of(&mut tx, oid).unwrap();
        vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
        vids.push(v);
    }
    // Adjacent delta-linked pair: summarized straight off the chain.
    let members = chain_members(&vs, &mut tx, oid);
    assert_eq!(members, vids[..9]);
    let (a, b) = (members[1], members[2]);
    let d = vs.diff_versions(&mut tx, a, b).unwrap();
    assert!(d.stored);
    assert_eq!(d.from, a);
    assert_eq!(d.to, b);
    let b_idx = vids.iter().position(|&v| v == b).unwrap();
    assert_eq!(d.to_len as usize, body(b_idx).len());
    // The latest is not a chain member: its step from the version
    // before is computed from the two bodies.
    let d1 = vs.diff_versions(&mut tx, vids[8], vids[9]).unwrap();
    assert!(!d1.stored);
    assert_eq!(d1.to_len as usize, body(9).len());
    // Distant pair: computed, and consistent with the actual bodies.
    let d2 = vs.diff_versions(&mut tx, vids[0], vids[9]).unwrap();
    assert!(!d2.stored);
    assert_eq!(d2.to_len as usize, body(9).len());
    assert!(d2.literal_bytes < body(9).len() as u64, "mostly copies");
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn deletes_repair_the_chain_everywhere() {
    // Delete latest / an anchor / a middle delta / down to one version,
    // checking every surviving body and the invariants each time.
    let path = temp_path("deletes");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(3);
    let mut tx = store.begin();
    let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
    let mut live: Vec<(Vid, Vec<u8>)> = vec![(v0, body(0))];
    for i in 1..12 {
        let v = vs.new_version_of(&mut tx, oid).unwrap();
        vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
        live.push((v, body(i)));
    }
    // Deletion order exercises: latest, first chain entry, middles.
    while live.len() > 1 {
        let pick = if live.len().is_multiple_of(3) {
            live.len() - 1 // latest
        } else if live.len() % 3 == 1 {
            0 // oldest
        } else {
            live.len() / 2 // middle
        };
        let (vid, _) = live.remove(pick);
        vs.delete_version(&mut tx, vid).unwrap();
        for (v, b) in &live {
            assert_eq!(&vs.read_body(&mut tx, *v, TAG).unwrap(), b);
        }
        vs.check_object(&mut tx, oid).unwrap();
    }
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn historical_write_body_rewrites_the_chain_entry() {
    let path = temp_path("histwrite");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
    let mut vids = vec![v0];
    for i in 1..9 {
        let v = vs.new_version_of(&mut tx, oid).unwrap();
        vs.write_body(&mut tx, v, TAG, body(i)).unwrap();
        vids.push(v);
    }
    // Edit every historical version in turn; neighbors must not move.
    for victim in 0..9usize {
        let mut edited = body(victim);
        edited.extend_from_slice(b"+edit");
        vs.write_body(&mut tx, vids[victim], TAG, edited.clone())
            .unwrap();
        assert_eq!(vs.read_body(&mut tx, vids[victim], TAG).unwrap(), edited);
        for (i, &v) in vids.iter().enumerate() {
            if i == victim {
                continue;
            }
            let mut want = body(i);
            if i < victim {
                want.extend_from_slice(b"+edit");
            }
            assert_eq!(vs.read_body(&mut tx, v, TAG).unwrap(), want, "v{i}");
        }
        vs.check_object(&mut tx, oid).unwrap();
        // Undo for the next round (leaves earlier victims edited —
        // covered by the `want` adjustment above).
        // (Intentionally keep edits cumulative to vary chain content.)
    }
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn alternatives_from_historical_bases_chain_correctly() {
    // newversion(v) where v is a cleared chain member must materialize
    // the base off the chain for the new version's state.
    let path = temp_path("altbase");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
    let v1 = vs.new_version_from(&mut tx, v0).unwrap();
    vs.write_body(&mut tx, v1, TAG, body(1)).unwrap();
    let v2 = vs.new_version_from(&mut tx, v1).unwrap();
    vs.write_body(&mut tx, v2, TAG, body(2)).unwrap();
    // Alternative derived from v0, which by now is a chain member
    // (or pre-chain whole body, depending on creation order) — its
    // state must be body(0).
    let v3 = vs.new_version_from(&mut tx, v0).unwrap();
    assert_eq!(vs.read_body(&mut tx, v3, TAG).unwrap(), body(0));
    assert_eq!(vs.dprevious(&mut tx, v3).unwrap(), Some(v0));
    assert_eq!(vs.latest(&mut tx, oid).unwrap(), v3);
    // And an alternative from v1 (definitely a cleared chain member).
    let v4 = vs.new_version_from(&mut tx, v1).unwrap();
    assert_eq!(vs.read_body(&mut tx, v4, TAG).unwrap(), body(1));
    vs.check_object(&mut tx, oid).unwrap();
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

// ----------------------------------------------------------------------
// Segment battery: the physical layout under deletes, edits and seals.
// ----------------------------------------------------------------------

/// One object with `n` versions, each a revision of the one before,
/// version `i` holding `body(i)`.
fn linear(
    vs: &VersionStore,
    tx: &mut ode_storage::Tx<'_>,
    n: usize,
) -> (ode_version::Oid, Vec<Vid>) {
    let (oid, v0) = vs.create_object(tx, TAG, body(0)).unwrap();
    let mut vids = vec![v0];
    for i in 1..n {
        let v = vs.new_version_of(tx, oid).unwrap();
        vs.write_body(tx, v, TAG, body(i)).unwrap();
        vids.push(v);
    }
    (oid, vids)
}

/// The member vids of each segment, in directory order.
fn segments_of(
    vs: &VersionStore,
    tx: &mut impl ode_storage::PageRead,
    oid: ode_version::Oid,
) -> Vec<Vec<Vid>> {
    let dir = vs.chain_directory(tx, oid).unwrap().unwrap();
    dir.segments
        .iter()
        .map(|seg| vs.chain_segment(tx, seg).unwrap().vids().collect())
        .collect()
}

/// Records in the version store's heap.
fn heap_records(tx: &mut impl ode_storage::PageRead) -> u64 {
    ode_object::ObjectHeap::new(VersionStoreLayout::default().heap_slot)
        .len(tx)
        .unwrap()
}

fn assert_bodies(
    vs: &VersionStore,
    tx: &mut impl ode_storage::PageRead,
    vids: &[Vid],
    skip: &[usize],
) {
    for (i, &v) in vids.iter().enumerate() {
        if !skip.contains(&i) {
            assert_eq!(vs.read_body(tx, v, TAG).unwrap(), body(i), "v{i}");
        }
    }
}

#[test]
fn a_history_is_cut_into_segments_of_interval_versions() {
    let path = temp_path("cut");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, vids) = linear(&vs, &mut tx, 10);
    // The history minus the latest, four versions a segment.
    let segments = segments_of(&vs, &mut tx, oid);
    assert_eq!(
        segments,
        vec![
            vids[0..4].to_vec(),
            vids[4..8].to_vec(),
            vids[8..9].to_vec()
        ]
    );
    let stats = vs.chain_stats(&mut tx, oid).unwrap().unwrap();
    assert_eq!((stats.versions, stats.segments, stats.deltas), (9, 3, 6));
    assert_eq!((stats.open_fill, stats.interval), (1, 4));
    assert!(stats.directory_bytes > 0 && stats.directory_bytes < 64);
    // Directory + 3 anchors + 2 runs (the open segment holds only its
    // anchor), beside 10 version records and the object record.
    assert_eq!(heap_records(&mut tx), 6 + 10 + 1);
    // Only the latest keeps a whole body in its record.
    for (i, &v) in vids.iter().enumerate() {
        let stored = vs.version_meta(&mut tx, v).unwrap().body;
        assert_eq!(stored.is_empty(), i < 9, "v{i}");
    }
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn deleting_an_anchor_promotes_its_successor() {
    let path = temp_path("delanchor");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, vids) = linear(&vs, &mut tx, 10);
    vs.delete_version(&mut tx, vids[4]).unwrap();
    assert_eq!(
        segments_of(&vs, &mut tx, oid),
        vec![
            vids[0..4].to_vec(),
            vids[5..8].to_vec(),
            vids[8..9].to_vec()
        ]
    );
    assert_bodies(&vs, &mut tx, &vids, &[4]);
    vs.check_object(&mut tx, oid).unwrap();
    // The chain's very first anchor too.
    vs.delete_version(&mut tx, vids[0]).unwrap();
    assert_eq!(segments_of(&vs, &mut tx, oid)[0], vids[1..4].to_vec());
    assert_bodies(&vs, &mut tx, &vids, &[0, 4]);
    vs.check_object(&mut tx, oid).unwrap();
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn deleting_every_member_of_a_sealed_segment_frees_its_records() {
    let path = temp_path("delsegment");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, vids) = linear(&vs, &mut tx, 10);
    let before = heap_records(&mut tx);
    // Middle-out, so anchors, deltas and a last-of-segment all go.
    for i in [5, 4, 7, 6] {
        vs.delete_version(&mut tx, vids[i]).unwrap();
        vs.check_object(&mut tx, oid).unwrap();
    }
    assert_eq!(
        segments_of(&vs, &mut tx, oid),
        vec![vids[0..4].to_vec(), vids[8..9].to_vec()]
    );
    // Four version records, one anchor, one run.
    assert_eq!(heap_records(&mut tx), before - 6);
    assert_bodies(&vs, &mut tx, &vids, &[4, 5, 6, 7]);
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn deleting_the_tip_right_after_a_seal_reopens_the_segment_before() {
    let path = temp_path("deltip");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    // Ten versions: the chain's last member, the one before the tip, is
    // the lone anchor of a fresh third segment.
    let (oid, mut vids) = linear(&vs, &mut tx, 10);
    assert_eq!(segments_of(&vs, &mut tx, oid)[2], vec![vids[8]]);
    let before = heap_records(&mut tx);
    vs.delete_version(&mut tx, vids.pop().unwrap()).unwrap();
    assert_eq!(segments_of(&vs, &mut tx, oid).len(), 2);
    // The tip's version record and the popped member's anchor.
    assert_eq!(heap_records(&mut tx), before - 2);
    // The new latest got its whole body back out of the chain.
    assert_eq!(vs.latest(&mut tx, oid).unwrap(), vids[8]);
    assert_eq!(vs.version_meta(&mut tx, vids[8]).unwrap().body, body(8));
    vs.check_object(&mut tx, oid).unwrap();
    // The segment before is full, so the next check-in seals again.
    let v = vs.new_version_of(&mut tx, oid).unwrap();
    vs.write_body(&mut tx, v, TAG, body(9)).unwrap();
    assert_eq!(segments_of(&vs, &mut tx, oid)[2], vec![vids[8]]);
    vids.push(v);
    assert_bodies(&vs, &mut tx, &vids, &[]);
    vs.check_object(&mut tx, oid).unwrap();
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn editing_a_sealed_member_rewrites_only_its_segment() {
    let path = temp_path("editsealed");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let mut tx = store.begin();
    let (oid, vids) = linear(&vs, &mut tx, 10);
    let dir = vs.chain_directory(&mut tx, oid).unwrap().unwrap();
    let untouched = [
        vs.chain_segment(&mut tx, &dir.segments[0]).unwrap(),
        vs.chain_segment(&mut tx, &dir.segments[2]).unwrap(),
    ];
    // A delta member, then the anchor, of the sealed middle segment.
    for i in [5, 4] {
        let mut edited = body(i);
        edited.extend_from_slice(b"+edit");
        vs.write_body(&mut tx, vids[i], TAG, edited.clone())
            .unwrap();
        assert_eq!(vs.read_body(&mut tx, vids[i], TAG).unwrap(), edited);
        assert_bodies(&vs, &mut tx, &vids, &[4, 5]);
        vs.check_object(&mut tx, oid).unwrap();
    }
    // Same-size-or-smaller records stay put: the directory still names
    // the same records, and the other segments hold the same bytes.
    let after = vs.chain_directory(&mut tx, oid).unwrap().unwrap();
    assert_eq!(after.segments[0], dir.segments[0]);
    assert_eq!(after.segments[2], dir.segments[2]);
    assert_eq!(
        vs.chain_segment(&mut tx, &after.segments[0]).unwrap(),
        untouched[0]
    );
    assert_eq!(
        vs.chain_segment(&mut tx, &after.segments[2]).unwrap(),
        untouched[1]
    );
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn deleting_the_object_frees_every_segment_record() {
    let path = temp_path("delobject");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(2);
    let mut tx = store.begin();
    let (keep, _) = linear(&vs, &mut tx, 3);
    let before = heap_records(&mut tx);
    let (oid, _) = linear(&vs, &mut tx, 9);
    assert!(heap_records(&mut tx) > before + 9);
    vs.delete_object(&mut tx, oid).unwrap();
    assert_eq!(heap_records(&mut tx), before);
    assert!(vs.chain_directory(&mut tx, oid).unwrap().is_none());
    vs.check_object(&mut tx, keep).unwrap();
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

#[test]
fn check_object_rejects_a_directory_that_disagrees_with_its_segments() {
    use ode_storage::heap::RecordId;
    use ode_version::{RunEntry, VersionError};
    let path = temp_path("tamper");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let heap = ode_object::ObjectHeap::new(VersionStoreLayout::default().heap_slot);
    let mut tx = store.begin();
    let (oid, _) = linear(&vs, &mut tx, 10);
    vs.check_object(&mut tx, oid).unwrap();
    let dir = vs.chain_directory(&mut tx, oid).unwrap().unwrap();

    // A sealed run that lost its last delta: the members are no longer
    // the history minus the latest.
    let run_rid = RecordId::from_u64(dir.segments[1].run);
    let run: Vec<RunEntry> = heap.load(&mut tx, run_rid).unwrap();
    let mut short = run.clone();
    short.pop();
    heap.replace(&mut tx, run_rid, &short).unwrap();
    assert!(matches!(
        vs.check_object(&mut tx, oid),
        Err(VersionError::ChainCorrupt(_))
    ));
    heap.replace(&mut tx, run_rid, &run).unwrap();
    vs.check_object(&mut tx, oid).unwrap();

    // An anchor that is not the state its run was diffed against: the
    // run's deltas no longer apply to it.
    let anchor_rid = RecordId::from_u64(dir.segments[1].anchor);
    heap.replace_raw(&mut tx, anchor_rid, b"tampered").unwrap();
    assert!(matches!(
        vs.check_object(&mut tx, oid),
        Err(VersionError::ChainCorrupt(_))
    ));
    drop(tx);
    drop(store);
    cleanup(&path);
}

#[test]
fn editing_the_latest_touches_no_chain_record() {
    let path = temp_path("editlatest");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(4);
    let heap = ode_object::ObjectHeap::new(VersionStoreLayout::default().heap_slot);
    let mut tx = store.begin();
    let (oid, vids) = linear(&vs, &mut tx, 11);
    // Every chain record by id, with its stored bytes.
    let records = |tx: &mut ode_storage::Tx<'_>| {
        let dir = vs.chain_directory(tx, oid).unwrap().unwrap();
        let mut out = Vec::new();
        for seg in &dir.segments {
            assert_ne!(seg.run, 0, "every segment has a run to watch");
            for id in [seg.anchor, seg.run] {
                let rid = ode_storage::heap::RecordId::from_u64(id);
                out.push((id, heap.load_bytes(tx, rid).unwrap()));
            }
        }
        (dir, out)
    };
    let before = records(&mut tx);
    let mut edited = body(10);
    edited.extend_from_slice(&[0xAB; 300]);
    vs.write_body(&mut tx, vids[10], TAG, edited.clone())
        .unwrap();
    assert_eq!(records(&mut tx), before);
    assert_eq!(vs.read_body(&mut tx, vids[10], TAG).unwrap(), edited);
    assert_bodies(&vs, &mut tx, &vids, &[10]);
    vs.check_object(&mut tx, oid).unwrap();
    tx.commit().unwrap();
    drop(store);
    cleanup(&path);
}

/// The cost model of the segmented layout, as counts: what a check-in
/// dirties and logs does not depend on how many versions the object
/// has. Each stretch of 16 check-ins fills one segment's run from
/// empty and seals it once, so two stretches are like for like; single
/// check-ins differ by where in the run they land and by which page a
/// small record happens to fit in. (The first few segments are cheaper
/// still: the whole store fits four pages.)
#[test]
fn check_ins_cost_the_same_in_the_8th_segment_and_in_the_16th() {
    use ode_storage::wal::{Replay, Scan, Wal};
    let path = temp_path("o1");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(16);
    let oid = {
        let mut tx = store.begin();
        let (oid, _) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
        tx.commit().unwrap();
        oid
    };
    // (pages dirtied, log bytes) of check-in `k`, one transaction each.
    let mut costs = vec![(0usize, 0u64)];
    for k in 1..=256 {
        let wal_before = store.wal_len();
        let mut tx = store.begin();
        let v = vs.new_version_of(&mut tx, oid).unwrap();
        vs.write_body(&mut tx, v, TAG, body(k)).unwrap();
        tx.commit().unwrap();
        costs.push((0, store.wal_len() - wal_before));
    }
    // No checkpoint emptied the log, so it still holds every check-in.
    let mut wal_path = path.clone().into_os_string();
    wal_path.push(".wal");
    let wal = Wal::open(std::path::Path::new(&wal_path)).unwrap();
    let mut replay = Replay::new(0, wal.seed());
    replay.push(&wal.read_file().unwrap());
    let mut check_in = 0;
    while let Scan::Found(commit) = replay.next_commit().unwrap() {
        costs[check_in].0 = commit.records.len();
        check_in += 1;
    }
    assert_eq!(
        replay.next_commit().unwrap(),
        Scan::Incomplete,
        "no torn tail"
    );
    assert_eq!(check_in, 257, "the create and 256 check-ins");

    // Check-in k makes version k + 1, so check-ins 112..=127 fill the
    // eighth segment and seal it, 240..=255 the sixteenth.
    let stretch = |from: usize| {
        let cycle = &costs[from..from + 16];
        (
            cycle.iter().map(|c| c.0).sum::<usize>(),
            cycle.iter().map(|c| c.1).sum::<u64>(),
        )
    };
    let (pages_early, bytes_early) = stretch(112);
    let (pages_late, bytes_late) = stretch(240);
    assert!(
        pages_late * 4 <= pages_early * 5,
        "pages dirtied per 16 check-ins: {pages_early} early, {pages_late} late"
    );
    // Bytes swing more than pages: how often a page that a record
    // outgrew gets compacted depends on what else sits in it.
    assert!(
        bytes_late * 2 <= bytes_early * 3,
        "bytes logged per 16 check-ins: {bytes_early} early, {bytes_late} late"
    );
    // No single check-in pays for the history either: the dearest one
    // seals a segment and moves a record, all within a few pages. (At
    // the time of writing: 87 pages and 17.6 KB per 16 check-ins in the
    // eighth stretch, 83 and 25.2 KB in the sixteenth, 7 pages and
    // 6.9 KB at worst.)
    let (worst_pages, worst_bytes) = costs[1..]
        .iter()
        .fold((0, 0), |w, c| (w.0.max(c.0), w.1.max(c.1)));
    assert!(worst_pages <= 7, "a check-in dirtied {worst_pages} pages");
    assert!(worst_bytes <= 8192, "a check-in logged {worst_bytes} bytes");
    drop(store);
    cleanup(&path);
}

/// The read side of the cost model, as counts: the pages a historical
/// read fetches do not depend on how many versions the object has or
/// how far back the read goes. One object, 256 versions at interval 16
/// (sixteen segments); each read runs in a snapshot of its own, which
/// fetches a page once however often it reads it, so the count is the
/// distinct pages the read touches. DESIGN §12's read-budget table
/// records these counts.
#[test]
fn historical_reads_fetch_the_same_pages_at_any_distance() {
    use ode_version::EpochCache;
    let path = temp_path("readbudget");
    let store = Store::create(&path, StoreOptions::default()).unwrap();
    let vs = chained(16);
    let (oid, vids) = {
        let mut tx = store.begin();
        let built = linear(&vs, &mut tx, 256);
        tx.commit().unwrap();
        built
    };
    let fetches = |read: &dyn Fn(&mut ode_storage::ReadTx<'_>)| {
        let count = || {
            let s = store.buffer_stats();
            s.hits + s.misses
        };
        let before = count();
        read(&mut store.read());
        count() - before
    };
    let as_of = |at: usize| {
        fetches(&|r| {
            let got = vs.version_as_of(r, oid, vids[at].0).unwrap();
            assert_eq!(got, Some(vids[at]));
        })
    };
    let deref_v =
        |at: usize| fetches(&|r| assert_eq!(vs.read_body(r, vids[at], TAG).unwrap(), body(at)));
    // Chain members 112..=127 make the eighth segment, 240..=254 the
    // sixteenth.
    let counts = [
        ("version_as_of, oldest stamp", as_of(0)),
        ("version_as_of, recent stamp", as_of(250)),
        ("deref_v in the 8th segment", deref_v(120)),
        ("deref_v in the 16th segment", deref_v(248)),
        (
            "walk, 5 tprevious hops",
            fetches(&|r| {
                let mut at = vids[200];
                for _ in 0..5 {
                    at = vs.tprevious(r, at).unwrap().unwrap();
                }
                assert_eq!(at, vids[195]);
            }),
        ),
        (
            "history_between over 64 stamps",
            fetches(&|r| {
                let got = vs.history_between(r, oid, vids[100].0, vids[163].0);
                assert_eq!(got.unwrap(), vids[100..=163]);
            }),
        ),
    ];
    let cache = EpochCache::new(8);
    vs.read_body_cached(&mut store.read(), vids[120], TAG, Some((&cache, 1)))
        .unwrap();
    let hit = fetches(&|r| {
        let got = vs.read_body_cached(r, vids[120], TAG, Some((&cache, 1)));
        assert_eq!(got.unwrap(), body(120));
    });
    for (read, pages) in counts {
        println!("{read}: {pages} pages");
        // Header, object or version lookup, chain directory, the one
        // segment's records: none of it scales with the history.
        assert!(pages <= 8, "{read} fetched {pages} pages");
    }
    println!("deref_v, materialize cache hit: {hit} pages");
    assert!(hit <= 4, "a cache hit fetched {hit} pages");
    drop(store);
    cleanup(&path);
}

// ----------------------------------------------------------------------
// Model battery: a chained store vs an in-memory list of bodies.
// ----------------------------------------------------------------------

mod differential {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// Derive a new version from the version at this index (mod len).
        Fork(usize),
        /// Overwrite the version at this index (mod len) with new bytes.
        Edit(usize, Vec<u8>),
        /// Delete the version at this index (mod len).
        Delete(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0usize..64).prop_map(Op::Fork),
            3 => ((0usize..64), proptest::collection::vec(any::<u8>(), 0..200))
                .prop_map(|(i, b)| Op::Edit(i, b)),
            1 => (0usize..64).prop_map(Op::Delete),
        ]
    }

    /// What the store must hold: the live versions in temporal order and
    /// each one's expected body.
    struct Model {
        vids: Vec<Vid>,
        bodies: Vec<Vec<u8>>,
    }

    impl Model {
        fn new(v0: Vid, body: &[u8]) -> Model {
            Model {
                vids: vec![v0],
                bodies: vec![body.to_vec()],
            }
        }

        /// Apply `op` to the store and to the model alike.
        fn apply(&mut self, tx: &mut ode_storage::Tx<'_>, vs: &VersionStore, op: &Op) {
            let n = self.vids.len();
            match op {
                Op::Fork(i) => {
                    self.vids
                        .push(vs.new_version_from(tx, self.vids[i % n]).unwrap());
                    self.bodies.push(self.bodies[i % n].clone());
                }
                Op::Edit(i, b) => {
                    vs.write_body(tx, self.vids[i % n], TAG, b.clone()).unwrap();
                    self.bodies[i % n] = b.clone();
                }
                Op::Delete(i) => {
                    if n > 1 {
                        vs.delete_version(tx, self.vids.remove(i % n)).unwrap();
                        self.bodies.remove(i % n);
                    }
                }
            }
        }

        /// The store agrees with the model: same temporal history, every
        /// body byte-identical.
        fn assert_matches(
            &self,
            tx: &mut impl ode_storage::PageRead,
            vs: &VersionStore,
            oid: ode_version::Oid,
            context: &str,
        ) {
            assert_eq!(vs.version_history(tx, oid).unwrap(), self.vids, "{context}");
            for (v, b) in self.vids.iter().zip(&self.bodies) {
                assert_eq!(&vs.read_body(tx, *v, TAG).unwrap(), b, "{context}: {v}");
            }
            assert_as_of_matches_the_walk(tx, vs, oid, context);
        }
    }

    /// The as-of answer by the walk `version_as_of` once made: back
    /// along `tprev` from the latest to the first version created at or
    /// before `stamp`, one version record per step.
    fn as_of_by_walk(
        tx: &mut impl ode_storage::PageRead,
        vs: &VersionStore,
        oid: ode_version::Oid,
        stamp: u64,
    ) -> Option<Vid> {
        let mut cur = vs.latest(tx, oid).unwrap();
        while !cur.is_null() {
            let meta = vs.version_meta(tx, cur).unwrap();
            if meta.created <= stamp {
                return Some(cur);
            }
            cur = meta.tprev;
        }
        None
    }

    /// `version_as_of` agrees with the walk at every stamp from before
    /// the first version to one past now.
    fn assert_as_of_matches_the_walk(
        tx: &mut impl ode_storage::PageRead,
        vs: &VersionStore,
        oid: ode_version::Oid,
        context: &str,
    ) {
        for stamp in 0..=vs.now_stamp(tx).unwrap() + 1 {
            assert_eq!(
                vs.version_as_of(tx, oid, stamp).unwrap(),
                as_of_by_walk(tx, vs, oid, stamp),
                "{context}: as of {stamp}"
            );
        }
    }

    /// A scripted fork/edit/delete history long enough to seal at least
    /// three segments at every interval, checked against the model —
    /// history and every body — with the chain validated after every
    /// single operation.
    #[test]
    fn histories_crossing_segment_boundaries_match_the_oracle() {
        for interval in [1usize, 2, 4, 16] {
            let path = temp_path(&format!("sc{interval}"));
            let store = Store::create(&path, StoreOptions::default()).unwrap();
            let vs = chained(interval as u64);
            let mut tx = store.begin();
            let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
            let mut model = Model::new(v0, &body(0));

            let mut most_segments = 0;
            let mut step = |op: Op| {
                model.apply(&mut tx, &vs, &op);
                let context = format!("interval {interval} after {op:?}");
                model.assert_matches(&mut tx, &vs, oid, &context);
                vs.check_object(&mut tx, oid).unwrap();
                let dir = vs.chain_directory(&mut tx, oid).unwrap().unwrap();
                most_segments = most_segments.max(dir.segments.len());
                model.vids.len() - 1
            };

            // Revisions of the tip past three seals, with a branch off
            // the root and one off an anchor along the way.
            let mut tip = 0;
            for i in 1..=3 * interval + 3 {
                tip = step(Op::Fork(tip));
                step(Op::Edit(tip, body(i)));
            }
            tip = step(Op::Fork(0));
            step(Op::Edit(tip, body(700)));
            tip = step(Op::Fork(interval));
            step(Op::Edit(tip, body(701)));
            // Edits inside sealed segments: an anchor, a delta, the root.
            step(Op::Edit(interval, body(702)));
            step(Op::Edit(interval + 1, body(703)));
            step(Op::Edit(0, body(704)));
            // Deletes: an anchor, then every member of what was the
            // second segment, then the tip, then the oldest.
            for _ in 0..=interval {
                tip = step(Op::Delete(interval));
            }
            step(Op::Delete(tip));
            tip = step(Op::Delete(0));
            // And the history goes on after the repairs.
            for i in 0..=interval {
                tip = step(Op::Fork(tip));
                step(Op::Edit(tip, body(800 + i)));
            }
            assert!(
                most_segments >= 4,
                "interval {interval}: {most_segments} segments"
            );
            tx.commit().unwrap();
            drop(store);
            cleanup(&path);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// A chained store driven through a random fork/edit/delete
        /// history returns the model's history and byte-identical bodies
        /// for every surviving version — live, and again after a full
        /// store reopen (codec + storage round trip).
        #[test]
        fn chained_store_matches_whole_body_oracle(
            seed in proptest::collection::vec(any::<u8>(), 0..300),
            ops in proptest::collection::vec(op_strategy(), 1..40),
            interval in 1u64..9,
        ) {
            let path = temp_path(&format!("dc{interval}-{}", ops.len()));
            let vs = chained(interval);
            let (oid, model) = {
                let store = Store::create(&path, StoreOptions::default()).unwrap();
                let mut tx = store.begin();
                let (oid, v0) = vs.create_object(&mut tx, TAG, seed.clone()).unwrap();
                let mut model = Model::new(v0, &seed);
                for op in &ops {
                    model.apply(&mut tx, &vs, op);
                }
                vs.check_object(&mut tx, oid).unwrap();
                model.assert_matches(&mut tx, &vs, oid, "live");
                tx.commit().unwrap();
                (oid, model)
            };
            // Reopen the store cold and compare again.
            {
                let store = Store::open(&path, StoreOptions::default()).unwrap();
                let mut tx = store.begin();
                model.assert_matches(&mut tx, &vs, oid, "reopened");
                vs.check_object(&mut tx, oid).unwrap();
            }
            cleanup(&path);
        }

        /// `version_as_of` against the `tprev` walk after every step of
        /// a random fork/edit/delete history, deletes of the latest and
        /// of anchors included, while a second object takes stamps in
        /// between so the object's stamps have gaps.
        #[test]
        fn version_as_of_matches_the_tprev_walk(
            steps in proptest::collection::vec((op_strategy(), any::<bool>()), 1..48),
            interval in 1u64..6,
        ) {
            let path = temp_path(&format!("asof{interval}-{}", steps.len()));
            let vs = chained(interval);
            let store = Store::create(&path, StoreOptions::default()).unwrap();
            let mut tx = store.begin();
            let (oid, v0) = vs.create_object(&mut tx, TAG, body(0)).unwrap();
            let (other, _) = vs.create_object(&mut tx, TAG, body(1)).unwrap();
            let mut model = Model::new(v0, &body(0));
            for (i, (op, interleave)) in steps.iter().enumerate() {
                if *interleave {
                    vs.new_version_of(&mut tx, other).unwrap();
                }
                model.apply(&mut tx, &vs, op);
                assert_as_of_matches_the_walk(&mut tx, &vs, oid, &format!("step {i}: {op:?}"));
            }
            vs.check_object(&mut tx, oid).unwrap();
            drop(tx);
            drop(store);
            cleanup(&path);
        }
    }
}
