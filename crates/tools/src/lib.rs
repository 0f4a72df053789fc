//! # ode-tools — operational tooling for Ode databases
//!
//! The library behind the `odedump` binary: read-only inspection of a
//! database file (page census, object/version listings, graph export)
//! and a consistency checker (`fsck`) that validates every object's
//! version graph plus the storage-level structures beneath it.
//!
//! Everything here opens stores read-mostly and never mutates user
//! data; `fsck` runs recovery as a side effect of opening (as any
//! reader would).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use ode_object::{IdClaim, Oid};
use ode_storage::wal::{Replay, Scan, Wal, WalRecord, FRAME_HEADER_LEN};
use ode_storage::{PageId, PageRead, Store, StoreOptions, StoreStats};
use ode_version::{version_graph_dot, VersionStore, VersionStoreLayout};

/// Result alias reusing the version layer's error.
pub type Result<T> = ode_version::Result<T>;

/// Summary of a database file's physical layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Total pages tracked by the store header.
    pub page_count: u64,
    /// Pages by kind (unreadable pages counted under `None`).
    pub pages_by_kind: BTreeMap<Option<u8>, u64>,
    /// Current WAL length in bytes.
    pub wal_bytes: u64,
    /// Buffer-pool counters accumulated while gathering this summary
    /// (the page census reads every page, so misses ≈ cold reads and
    /// hits show re-visits).
    pub buffer: ode_storage::buffer::BufferStats,
    /// Live objects.
    pub object_count: usize,
    /// Live versions across all objects.
    pub version_count: u64,
    /// Distinct type tags with extents.
    pub type_count: usize,
    /// The residue class the store issues ids from (`None`: unclaimed,
    /// dense ids).
    pub id_claim: Option<IdClaim>,
    /// Storage-engine transaction and contention counters accumulated
    /// while gathering this summary (one long read transaction, so
    /// `read_txs` ≥ 1 and the wait counters show any gate contention —
    /// zero for this single-threaded scan).
    pub storage: StoreStats,
}

/// Per-object summary for listings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectSummary {
    /// Object id.
    pub oid: u64,
    /// Stable type tag.
    pub tag: u64,
    /// Live versions.
    pub versions: u64,
    /// Latest version id.
    pub latest: u64,
    /// Encoded size of the latest version's body in bytes.
    pub latest_body_bytes: usize,
}

/// Per-object delta-chain summary. Single-version objects have no
/// chain and are absent, so a store of them reports an empty list.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSummary {
    /// Object id.
    pub oid: u64,
    /// Versions the chain stores: the object's history minus the latest,
    /// whose body stays whole in its own record.
    pub versions: u64,
    /// Segments the chain is stored in — one anchor (full snapshot)
    /// record and at most one delta-run record each.
    pub segments: u64,
    /// Delta entries across all segments.
    pub deltas: u64,
    /// Anchor spacing the chain was built with.
    pub interval: u64,
    /// Versions in the open (last) segment; the next check-in after it
    /// reaches `interval` seals it and starts a new one.
    pub open_fill: u64,
    /// Two-parent (merge) versions in the object's history. These are
    /// the DAG joins: each one was checked in by `Txn::merge` and
    /// records a second derivation parent alongside `dprev`.
    pub merges: u64,
    /// Bytes of the per-object directory record.
    pub directory_bytes: u64,
    /// Bytes the heap actually stores for the chain: the directory
    /// plus every segment's anchor and run record.
    pub encoded_bytes: u64,
    /// Bytes one whole copy per version would hold for the same
    /// versions.
    pub materialized_bytes: u64,
    /// `encoded / materialized` (lower is better).
    pub ratio: f64,
}

/// Gather every object's delta-chain statistics. Objects without a
/// chain (single-version ones) are skipped.
pub fn chain_report(path: &Path) -> Result<Vec<ChainSummary>> {
    let (store, vs) = open(path)?;
    let mut tx = store.read();
    let mut out = Vec::new();
    for tag in all_tags(&vs, &mut tx)? {
        for oid in vs.objects_of_type(&mut tx, tag)? {
            if let Some(s) = vs.chain_stats(&mut tx, oid)? {
                let mut merges = 0u64;
                for vid in vs.version_history(&mut tx, oid)? {
                    if vs.version_meta(&mut tx, vid)?.is_merge() {
                        merges += 1;
                    }
                }
                out.push(ChainSummary {
                    oid: oid.0,
                    versions: s.versions,
                    segments: s.segments,
                    deltas: s.deltas,
                    interval: s.interval,
                    open_fill: s.open_fill,
                    merges,
                    directory_bytes: s.directory_bytes,
                    encoded_bytes: s.encoded_bytes,
                    materialized_bytes: s.materialized_bytes,
                    ratio: s.compression_ratio(),
                });
            }
        }
    }
    out.sort_by_key(|s| s.oid);
    Ok(out)
}

/// The outcome of a consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Objects examined.
    pub objects_checked: usize,
    /// Versions examined.
    pub versions_checked: u64,
    /// Problems found (empty = healthy).
    pub problems: Vec<String>,
}

impl FsckReport {
    /// Whether the store passed every check.
    pub fn is_healthy(&self) -> bool {
        self.problems.is_empty()
    }
}

fn open(path: &Path) -> Result<(Store, VersionStore)> {
    let store = Store::open(path, StoreOptions::default())?;
    Ok((store, VersionStore::new(VersionStoreLayout::default())))
}

/// Gather the physical and logical summary of a database.
pub fn store_info(path: &Path) -> Result<StoreInfo> {
    let (store, vs) = open(path)?;
    let wal_bytes = store.wal_len();
    let mut tx = store.read();
    let page_count = tx.page_count()?;
    let mut pages_by_kind: BTreeMap<Option<u8>, u64> = BTreeMap::new();
    for i in 0..page_count {
        let kind = match tx.page(PageId(i)) {
            Ok(page) => page.kind().map(|k| k as u8),
            Err(_) => None,
        };
        *pages_by_kind.entry(kind).or_insert(0) += 1;
    }
    let mut object_count = 0usize;
    let mut version_count = 0u64;
    let tags = all_tags(&vs, &mut tx)?;
    for &tag in &tags {
        for oid in vs.objects_of_type(&mut tx, tag)? {
            object_count += 1;
            version_count += vs.version_count(&mut tx, oid)?;
        }
    }
    let id_claim = vs.id_claim(&mut tx)?;
    drop(tx);
    Ok(StoreInfo {
        page_count,
        pages_by_kind,
        wal_bytes,
        buffer: store.buffer_stats(),
        object_count,
        version_count,
        type_count: tags.len(),
        id_claim,
        storage: store.stats(),
    })
}

fn all_tags(_vs: &VersionStore, tx: &mut impl PageRead) -> Result<Vec<ode_codec::TypeTag>> {
    // The extent directory is the authoritative type census; tags whose
    // extents emptied out (every object deleted) are skipped.
    let extents = ode_object::Extents::new(VersionStoreLayout::default().extent_slot);
    let mut out = Vec::new();
    for tag in extents.tags(tx)? {
        if extents.count(tx, tag)? > 0 {
            out.push(tag);
        }
    }
    Ok(out)
}

/// The storage engine's counters as text, one line per group — what
/// `ode-cli stats` prints for a server (a routed tier's are summed,
/// batch and lag maxima kept) and `odedump info` prints for its own
/// scan. Every field is named in the destructuring, so a counter added
/// to [`StoreStats`] does not compile here until it is printed.
pub fn store_stats_lines(stats: &StoreStats) -> Vec<String> {
    let StoreStats {
        read_txs,
        write_txs,
        reader_waits,
        reader_wait_nanos,
        writer_waits,
        writer_wait_nanos,
        wal_syncs,
        group_syncs,
        group_commit_txns,
        group_batch_max,
        bytes_shipped,
        replica_lag_epochs,
        failovers,
        write_conflicts,
        write_retries,
        checkpoint_failures,
    } = *stats;
    vec![
        format!("storage    : {read_txs} read txs, {write_txs} write txs"),
        format!(
            "lock waits : readers {reader_waits} ({reader_wait_nanos} ns), \
             writers {writer_waits} ({writer_wait_nanos} ns)"
        ),
        format!(
            "wal syncs  : {wal_syncs} total, {group_syncs} by group leaders \
             ({group_commit_txns} txns, max batch {group_batch_max})"
        ),
        format!("conflicts  : {write_conflicts} write conflicts, {write_retries} retries"),
        format!(
            "replication: {bytes_shipped} bytes shipped, {replica_lag_epochs} epochs of \
             replica lag, {failovers} failovers"
        ),
        format!("checkpoints: {checkpoint_failures} failed after their commit published"),
    ]
}

/// List every live object.
pub fn list_objects(path: &Path) -> Result<Vec<ObjectSummary>> {
    let (store, vs) = open(path)?;
    let mut tx = store.read();
    let mut out = Vec::new();
    for tag in all_tags(&vs, &mut tx)? {
        for oid in vs.objects_of_type(&mut tx, tag)? {
            let meta = vs.object_meta(&mut tx, oid)?;
            let latest = vs.version_meta(&mut tx, meta.latest)?;
            out.push(ObjectSummary {
                oid: oid.0,
                tag: tag.0,
                versions: meta.version_count,
                latest: meta.latest.0,
                latest_body_bytes: latest.body.len(),
            });
        }
    }
    out.sort_by_key(|s| s.oid);
    Ok(out)
}

/// Describe one object: metadata plus its full version history.
pub fn describe_object(path: &Path, oid: u64) -> Result<String> {
    let (store, vs) = open(path)?;
    let mut tx = store.read();
    let oid = Oid(oid);
    let meta = vs.object_meta(&mut tx, oid)?;
    let mut out = String::new();
    writeln!(out, "object {oid}").expect("write");
    writeln!(out, "  type tag : {:#018x}", meta.tag.0).expect("write");
    writeln!(out, "  versions : {}", meta.version_count).expect("write");
    writeln!(out, "  latest   : {}", meta.latest).expect("write");
    writeln!(out, "  root     : {}", meta.root).expect("write");
    writeln!(out, "  history (temporal order):").expect("write");
    for vid in vs.version_history(&mut tx, oid)? {
        let v = vs.version_meta(&mut tx, vid)?;
        // A merge version shows both derivation parents and is marked;
        // ordinary versions keep the single-parent format.
        let dprev = if v.is_merge() {
            format!("{}+{} (merge)", v.dprev, v.dprev2)
        } else if v.dprev.is_null() {
            "-".to_string()
        } else {
            v.dprev.to_string()
        };
        let body = vs.read_body(&mut tx, vid, v.tag)?;
        writeln!(
            out,
            "    {vid}  created={}  dprev={dprev}  children={}  body={}B",
            v.created,
            v.dnext.len(),
            body.len()
        )
        .expect("write");
    }
    Ok(out)
}

/// Export one object's version graph as Graphviz DOT.
pub fn export_object_dot(path: &Path, oid: u64) -> Result<String> {
    let (store, vs) = open(path)?;
    let mut tx = store.read();
    version_graph_dot(&vs, &mut tx, Oid(oid))
}

/// Summary of the write-ahead log's live generation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalSummary {
    /// Seed of the live generation (from the log header).
    pub seed: u32,
    /// Bytes of the live generation's frames.
    pub bytes: u64,
    /// Committed transactions: one frame each.
    pub commits: usize,
    /// Full page-image records.
    pub page_images: usize,
    /// Byte-range delta records.
    pub page_deltas: usize,
    /// Whether a torn tail was found (normal after a crash).
    pub torn_tail: bool,
}

/// Summarize the WAL that accompanies a database file (without opening
/// the store, so the log is left exactly as found — no recovery runs).
pub fn wal_summary(db_path: &Path) -> Result<WalSummary> {
    let Some(wal) = open_wal(db_path)? else {
        return Ok(WalSummary::default());
    };
    let (commits, torn) = wal_records(db_path)?;
    let records = || commits.iter().flat_map(|commit| &commit.records);
    Ok(WalSummary {
        seed: wal.seed(),
        bytes: wal.len(),
        commits: commits.len(),
        page_images: records()
            .filter(|r| matches!(r, WalRecord::Page { .. }))
            .count(),
        page_deltas: records()
            .filter(|r| matches!(r, WalRecord::PageDelta { .. }))
            .count(),
        torn_tail: torn.is_some(),
    })
}

/// One commit of the log's live generation: its frame's place in the
/// log and its page records.
///
/// Offsets count from the end of the log header, within the live
/// generation (the logical shipping coordinate adds the store's
/// in-memory base, which an offline dump cannot know); `epoch` counts
/// commits within the generation, so the commit that produced "the
/// k-th epoch since the last checkpoint" reads `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalCommitInfo {
    /// Byte offset of the commit's frame (`[len][crc][link][payload]`).
    pub offset: u64,
    /// Payload length in bytes (the frame adds a
    /// [`FRAME_HEADER_LEN`]-byte header).
    pub payload_bytes: u32,
    /// The frame's chain link.
    pub link: u32,
    /// 1-based commit index within the generation.
    pub epoch: u64,
    /// The commit's page records, in log order.
    pub records: Vec<WalRecord>,
}

/// The log beside a database file, `None` when there is none.
fn open_wal(db_path: &Path) -> Result<Option<Wal>> {
    let mut wal_path = db_path.to_path_buf().into_os_string();
    wal_path.push(".wal");
    let wal_path = std::path::PathBuf::from(wal_path);
    if !wal_path.exists() {
        return Ok(None);
    }
    Ok(Some(
        Wal::open(&wal_path).map_err(ode_version::VersionError::Storage)?,
    ))
}

/// Decode every commit of the live generation — the frames that chain
/// from the log header's seed — with its offset, sizing, link and
/// epoch index. Returns the commits plus the offset of a torn frame
/// (one whose header chains but whose payload is cut short or fails
/// its CRC), if the generation ends at one — reading the file without
/// recovery, so the log is left exactly as found. Older generations'
/// bytes past the live end are not listed.
pub fn wal_records(db_path: &Path) -> Result<(Vec<WalCommitInfo>, Option<u64>)> {
    let storage = ode_version::VersionError::Storage;
    let Some(wal) = open_wal(db_path)? else {
        return Ok((Vec::new(), None));
    };
    let data = wal.read_file().map_err(storage)?;
    let mut replay = Replay::new(0, wal.seed());
    replay.push(&data);
    let mut commits = Vec::new();
    let torn = loop {
        let offset = replay.offset();
        match replay.next_commit().map_err(storage)? {
            Scan::Found(commit) => commits.push(WalCommitInfo {
                offset,
                payload_bytes: (replay.offset() - offset) as u32 - FRAME_HEADER_LEN as u32,
                link: replay.link(),
                epoch: commits.len() as u64 + 1,
                records: commit.records,
            }),
            Scan::BadCrc => break Some(offset),
            Scan::Incomplete if data.len() as u64 - offset >= FRAME_HEADER_LEN as u64 => {
                break Some(offset)
            }
            Scan::Incomplete | Scan::Unchained => break None,
        }
    };
    Ok((commits, torn))
}

/// Check every object's version-graph invariants and that every version
/// body is readable.
pub fn fsck(path: &Path) -> Result<FsckReport> {
    let (store, vs) = open(path)?;
    let mut tx = store.read();
    let mut report = FsckReport {
        objects_checked: 0,
        versions_checked: 0,
        problems: Vec::new(),
    };
    for tag in all_tags(&vs, &mut tx)? {
        for oid in vs.objects_of_type(&mut tx, tag)? {
            report.objects_checked += 1;
            if let Err(e) = vs.check_object(&mut tx, oid) {
                report.problems.push(format!("{oid}: {e}"));
                continue;
            }
            match vs.version_history(&mut tx, oid) {
                Ok(history) => {
                    for vid in history {
                        report.versions_checked += 1;
                        match vs.version_meta(&mut tx, vid) {
                            Ok(meta) if meta.tag != tag => report
                                .problems
                                .push(format!("{vid}: tag differs from object tag")),
                            Ok(_) => {}
                            Err(e) => report.problems.push(format!("{vid}: {e}")),
                        }
                    }
                }
                Err(e) => report.problems.push(format!("{oid}: history walk: {e}")),
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode::{Database, DatabaseOptions};
    use ode_codec::{impl_persist_struct, impl_type_name};

    #[derive(Debug, Clone, PartialEq)]
    struct Gadget {
        serial: u64,
    }
    impl_persist_struct!(Gadget { serial });
    impl_type_name!(Gadget = "tools-test/Gadget");

    #[test]
    fn store_stats_lines_print_every_counter() {
        // Sixteen distinct values; each must be printed exactly once.
        let stats = StoreStats {
            read_txs: 1001,
            write_txs: 1002,
            reader_waits: 1003,
            reader_wait_nanos: 1004,
            writer_waits: 1005,
            writer_wait_nanos: 1006,
            wal_syncs: 1007,
            group_syncs: 1008,
            group_commit_txns: 1009,
            group_batch_max: 1010,
            bytes_shipped: 1011,
            replica_lag_epochs: 1012,
            failovers: 1013,
            write_conflicts: 1014,
            write_retries: 1015,
            checkpoint_failures: 1016,
        };
        let text = store_stats_lines(&stats).join("\n");
        let printed: Vec<u64> = text
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|word| word.parse().ok())
            .collect();
        for value in 1001..=1016 {
            assert_eq!(
                printed.iter().filter(|&&n| n == value).count(),
                1,
                "{value} once in:\n{text}"
            );
        }
    }

    fn build_db(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ode-tools-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = path.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
        let db = Database::create(&path, DatabaseOptions::default()).unwrap();
        let mut txn = db.begin();
        for i in 0..5u64 {
            let p = txn.pnew(&Gadget { serial: i }).unwrap();
            for _ in 0..i {
                txn.newversion(&p).unwrap();
            }
        }
        txn.commit().unwrap();
        drop(db);
        path
    }

    fn cleanup(path: &std::path::Path) {
        let _ = std::fs::remove_file(path);
        let mut wal = path.to_path_buf().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
    }

    #[test]
    fn info_reports_logical_and_physical_shape() {
        let path = build_db("info");
        let info = store_info(&path).unwrap();
        assert_eq!(info.object_count, 5);
        assert_eq!(info.version_count, 1 + 2 + 3 + 4 + 5);
        assert_eq!(info.type_count, 1);
        assert!(info.page_count > 1);
        let total: u64 = info.pages_by_kind.values().sum();
        assert_eq!(total, info.page_count);
        assert!(
            info.buffer.hits + info.buffer.misses > 0,
            "the census reads pages, so the pool must have seen traffic"
        );
        cleanup(&path);
    }

    #[test]
    fn list_and_describe() {
        let path = build_db("list");
        let objects = list_objects(&path).unwrap();
        assert_eq!(objects.len(), 5);
        assert_eq!(objects[0].versions, 1);
        assert_eq!(objects[4].versions, 5);
        let text = describe_object(&path, objects[4].oid).unwrap();
        assert!(text.contains("versions : 5"));
        assert!(text.contains("history"));
        cleanup(&path);
    }

    #[test]
    fn dot_export_through_tools() {
        let path = build_db("dot");
        let objects = list_objects(&path).unwrap();
        let dot = export_object_dot(&path, objects[2].oid).unwrap();
        assert!(dot.starts_with("digraph"));
        cleanup(&path);
    }

    #[test]
    fn fsck_healthy_store() {
        let path = build_db("fsck");
        let report = fsck(&path).unwrap();
        assert!(report.is_healthy(), "{:?}", report.problems);
        assert_eq!(report.objects_checked, 5);
        assert_eq!(report.versions_checked, 15);
        cleanup(&path);
    }

    #[test]
    fn wal_summary_counts_records() {
        let path = build_db("walsum");
        // build_db's Database was dropped cleanly → checkpoint trimmed the
        // WAL; write one more transaction without clean shutdown.
        {
            let db = Database::open(&path, DatabaseOptions::default()).unwrap();
            let mut txn = db.begin();
            txn.pnew(&Gadget { serial: 99 }).unwrap();
            txn.commit().unwrap();
            std::mem::forget(db);
        }
        let s = wal_summary(&path).unwrap();
        assert_eq!(s.commits, 1);
        assert!(s.page_images + s.page_deltas > 0);
        assert!(!s.torn_tail);
        assert!(s.bytes > 0);
        // fsck (which recovers) still passes afterwards.
        assert!(fsck(&path).unwrap().is_healthy());
        cleanup(&path);
    }

    #[test]
    fn fsck_flags_corrupted_pages() {
        use std::io::{Seek, SeekFrom, Write};
        let path = build_db("corrupt");
        // Flip bytes in the middle of several data pages.
        {
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            let len = std::fs::metadata(&path).unwrap().len();
            for page in 1..(len / 4096).min(6) {
                f.seek(SeekFrom::Start(page * 4096 + 2000)).unwrap();
                f.write_all(&[0xFF, 0xEE, 0xDD]).unwrap();
            }
        }
        // fsck must never panic: either the store refuses to open /
        // enumerate (Err) or the report lists problems.
        // An Err is acceptable too: the checksum failure surfaced at
        // open/scan instead of in the report.
        if let Ok(report) = fsck(&path) {
            assert!(!report.is_healthy(), "corruption must be flagged");
        }
        cleanup(&path);
    }

    #[test]
    fn chain_report_measures_delta_storage() {
        let mut path = std::env::temp_dir();
        path.push(format!("ode-tools-chains-{}", std::process::id()));
        cleanup(&path);
        #[derive(Debug, Clone, PartialEq)]
        struct Doc {
            text: String,
        }
        impl_persist_struct!(Doc { text });
        impl_type_name!(Doc = "tools-test/Doc");

        let options = DatabaseOptions::default().with_chain(ode::ChainConfig::with_interval(4));
        let db = Database::create(&path, options).unwrap();
        let mut txn = db.begin();
        // One versioned object (gets a chain) and one single-version
        // object (has none — version orthogonality). Bodies are large
        // with small edits, so deltas beat full copies.
        let base = "lorem ipsum ".repeat(60);
        let p = txn.pnew(&Doc { text: base.clone() }).unwrap();
        txn.pnew(&Doc {
            text: "solo".into(),
        })
        .unwrap();
        for i in 1..10u64 {
            let v = txn.newversion(&p).unwrap();
            txn.put_version(
                &v,
                &Doc {
                    text: format!("{base}-rev{i}"),
                },
            )
            .unwrap();
        }
        txn.commit().unwrap();
        drop(db);

        let report = chain_report(&path).unwrap();
        assert_eq!(report.len(), 1, "only the versioned object has a chain");
        let c = &report[0];
        // Ten versions: the chain holds all but the latest.
        assert_eq!(c.versions, 9);
        assert_eq!(c.interval, 4);
        // Nine members at interval 4: two sealed segments and an open
        // one holding just its anchor.
        assert_eq!((c.segments, c.deltas, c.open_fill), (3, 6, 1));
        assert!(c.directory_bytes > 0 && c.directory_bytes < c.encoded_bytes);
        assert!(c.encoded_bytes < c.materialized_bytes);
        assert!(c.ratio < 1.0);
        // A store of single-version objects reports no chains at all.
        let mut plain = std::env::temp_dir();
        plain.push(format!("ode-tools-nochains-{}", std::process::id()));
        cleanup(&plain);
        let db = Database::create(&plain, DatabaseOptions::default()).unwrap();
        let mut txn = db.begin();
        for i in 0..3u64 {
            txn.pnew(&Gadget { serial: i }).unwrap();
        }
        txn.commit().unwrap();
        drop(db);
        assert!(chain_report(&plain).unwrap().is_empty());
        cleanup(&plain);
        cleanup(&path);
    }

    #[test]
    fn merge_versions_are_reported_distinctly() {
        let mut path = std::env::temp_dir();
        path.push(format!("ode-tools-merges-{}", std::process::id()));
        cleanup(&path);
        #[derive(Debug, Clone, PartialEq)]
        struct Doc {
            text: String,
        }
        impl_persist_struct!(Doc { text });
        impl_type_name!(Doc = "tools-test/MergeDoc");

        let options = DatabaseOptions::default().with_chain(ode::ChainConfig::with_interval(4));
        let db = Database::create(&path, options).unwrap();
        let mut txn = db.begin();
        let p = txn
            .pnew(&Doc {
                text: "the quick brown fox jumps over the lazy dog".into(),
            })
            .unwrap();
        let base = txn.current_version(&p).unwrap();
        let a = txn
            .derive_from_with(&base, |d| d.text = d.text.replace("quick", "QUICK"))
            .unwrap();
        let b = txn
            .derive_from_with(&base, |d| d.text = d.text.replace("lazy", "LAZY"))
            .unwrap();
        let report = txn.merge(&a, &b, ode::MergePolicy::Fail).unwrap();
        let m = report.version.expect("disjoint edits merge cleanly");
        txn.commit().unwrap();
        drop(db);

        let chains = chain_report(&path).unwrap();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].merges, 1, "the merge join must be counted");
        assert_eq!(chains[0].versions, 3, "all but the latest");

        let text = describe_object(&path, chains[0].oid).unwrap();
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(&m.vid().to_string()))
            .expect("merge version listed in history");
        assert!(
            line.contains(&format!("dprev={}+{} (merge)", a.vid(), b.vid())),
            "merge version must show both parents: {line}"
        );
        // Ordinary versions keep the single-parent format.
        assert!(!text
            .lines()
            .filter(|l| !l.contains("(merge)"))
            .any(|l| l.contains('+')));

        assert!(fsck(&path).unwrap().is_healthy());
        cleanup(&path);
    }

    #[test]
    fn describe_unknown_object_errors() {
        let path = build_db("unknown");
        assert!(describe_object(&path, 9999).is_err());
        cleanup(&path);
    }
}
