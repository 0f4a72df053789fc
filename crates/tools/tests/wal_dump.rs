//! `wal_records` decodes the log of a crashed database: one entry per
//! commit — one frame — with its offset, link, epoch index and page
//! records, and a torn tail is reported by offset instead of hiding
//! the intact prefix.

use ode::{Database, DatabaseOptions};
use ode_codec::{impl_persist_struct, impl_type_name};
use ode_tools::wal_records;

#[derive(Debug, Clone, PartialEq)]
struct Note {
    text: String,
}
impl_persist_struct!(Note { text });
impl_type_name!(Note = "waldump/Note");

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ode-waldump-{name}-{}", std::process::id()));
    cleanup(&path);
    path
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.to_path_buf().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

fn wal_of(path: &std::path::Path) -> std::path::PathBuf {
    let mut wal = path.to_path_buf().into_os_string();
    wal.push(".wal");
    std::path::PathBuf::from(wal)
}

#[test]
fn records_carry_offsets_and_commit_epochs() {
    let path = temp_path("decode");
    let db = Database::create(&path, DatabaseOptions::no_sync()).unwrap();
    for i in 0..3 {
        let mut txn = db.begin();
        txn.pnew(&Note {
            text: format!("note-{i}"),
        })
        .unwrap();
        txn.commit().unwrap();
    }
    // Crash: leak the database so no shutdown checkpoint trims the log.
    std::mem::forget(db);

    let (commits, torn) = wal_records(&path).unwrap();
    assert_eq!(torn, None, "clean log has no torn tail");

    // One entry a commit, numbered 1..=k in order, each with its page
    // records. Offsets are ascending and frame-consistent: each commit
    // starts where the previous frame (12-byte header + payload) ended,
    // and no two frames share a link.
    let epochs: Vec<u64> = commits.iter().map(|c| c.epoch).collect();
    assert_eq!(epochs, vec![1, 2, 3]);
    let mut expected = 0u64;
    for c in &commits {
        assert_eq!(c.offset, expected, "frame accounting drifted: {c:?}");
        assert!(!c.records.is_empty(), "{c:?}");
        expected += 12 + u64::from(c.payload_bytes);
    }
    let mut links: Vec<u32> = commits.iter().map(|c| c.link).collect();
    links.sort_unstable();
    links.dedup();
    assert_eq!(links.len(), commits.len());

    // Garbage shorter than a frame header cannot chain: it reads as
    // the end of the log, as a zero fill or an older generation does.
    let wal_path = wal_of(&path);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let intact = bytes.len();
    bytes.extend_from_slice(&[0x55; 5]);
    std::fs::write(&wal_path, &bytes).unwrap();
    assert_eq!(wal_records(&path).unwrap(), (commits.clone(), None));

    // A torn tail (a frame whose header landed and whose payload did
    // not, after a crash) is reported at the right offset; the intact
    // prefix still decodes.
    std::fs::write(&wal_path, &bytes[..intact - 1]).unwrap();
    let (again, torn) = wal_records(&path).unwrap();
    assert_eq!(again, commits[..commits.len() - 1]);
    assert_eq!(torn, Some(commits[commits.len() - 1].offset));

    cleanup(&path);
}

#[test]
fn a_missing_wal_is_an_empty_listing() {
    let path = temp_path("absent");
    let (records, torn) = wal_records(&path).unwrap();
    assert!(records.is_empty());
    assert_eq!(torn, None);
}

#[test]
fn an_uncommitted_tail_is_listed_then_fenced_by_the_next_open() {
    let path = temp_path("uncommitted");
    let note = |text: &str| Note { text: text.into() };
    {
        let db = Database::create(&path, DatabaseOptions::default()).unwrap();
        let mut txn = db.begin();
        txn.pnew(&note("kept")).unwrap();
        txn.commit().unwrap();
    }
    // A session killed while its commit's frame landed: crash after a
    // commit, then chop the frame's last byte.
    {
        let db = Database::open(&path, DatabaseOptions::default()).unwrap();
        let mut txn = db.begin();
        txn.pnew(&note("ghost")).unwrap();
        txn.commit().unwrap();
        std::mem::forget(db);
        let wal = wal_of(&path);
        let len = std::fs::metadata(&wal).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 1).unwrap();
    }
    // The dump lists no commit and reports the torn frame at offset 0.
    let (commits, torn) = wal_records(&path).unwrap();
    assert!(commits.is_empty());
    assert_eq!(torn, Some(0));
    // fsck opens the store, so recovery runs: the ghost is gone and the
    // store is healthy ...
    let report = ode_tools::fsck(&path).unwrap();
    assert!(report.is_healthy(), "{:?}", report.problems);
    assert_eq!(report.objects_checked, 1);
    // ... and nothing of the torn frame is left in the log.
    let (commits, torn) = wal_records(&path).unwrap();
    assert!(commits.is_empty());
    assert_eq!(torn, None);
    cleanup(&path);
}
