//! Temporary-database helpers shared by tests, doctests, and examples.
//!
//! Creating a throwaway database used to mean a hand-rolled unique
//! temp path plus manual cleanup of both the database file and its
//! `.wal` sidecar; [`tempdb`] packages that dance. The returned
//! [`TempDb`] derefs to [`Database`] and removes both files on drop.
//!
//! Scripts that every deployment shape must pass alike — embedded, on
//! a server, through a router — live here too, written once over
//! [`Session`], so each surface's tests run the same script.

use std::fmt::Debug;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ode_codec::{impl_persist_struct, impl_type_name, to_bytes};

use crate::{Database, DatabaseOptions, MergePolicy, ObjPtr, RawWrite, Session};

static NEXT_DB: AtomicU64 = AtomicU64::new(0);

/// A unique, not-yet-existing path in the system temp directory.
pub fn fresh_path() -> PathBuf {
    let n = NEXT_DB.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ode-test-{}-{n}.odb", std::process::id()))
}

/// Create a temporary database with default options.
pub fn tempdb() -> TempDb {
    tempdb_with(DatabaseOptions::default())
}

/// Create a temporary database with the given options (tests that
/// hammer commits usually want [`DatabaseOptions::no_sync`]).
pub fn tempdb_with(options: DatabaseOptions) -> TempDb {
    let path = fresh_path();
    let db = Database::create(&path, options.clone()).expect("create temporary database");
    TempDb {
        db: Some(db),
        path,
        options,
    }
}

/// A [`Database`] at a unique temp path, deleted (with its WAL) on
/// drop.
pub struct TempDb {
    db: Option<Database>,
    path: PathBuf,
    options: DatabaseOptions,
}

impl TempDb {
    /// The database file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The open database. Panics after [`TempDb::close`].
    pub fn db(&self) -> &Database {
        self.db.as_ref().expect("temporary database is closed")
    }

    /// Close the database, keeping its files — for crash-recovery and
    /// reopen tests. Follow with [`TempDb::reopen`].
    pub fn close(&mut self) {
        self.db = None;
    }

    /// Reopen the (closed or open) database from its files, running
    /// recovery as a real restart would.
    pub fn reopen(&mut self) {
        self.db = None;
        let db =
            Database::open(&self.path, self.options.clone()).expect("reopen temporary database");
        self.db = Some(db);
    }
}

impl Deref for TempDb {
    type Target = Database;

    fn deref(&self) -> &Database {
        self.db()
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        self.db = None;
        let _ = std::fs::remove_file(&self.path);
        let mut wal = self.path.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(wal));
    }
}

/// Flat text, for byte-wise merge scripts.
#[derive(Debug, Clone, PartialEq)]
pub struct Text {
    pub text: String,
}
impl_persist_struct!(Text { text });
impl_type_name!(Text = "testutil/Text");

/// The moved-block merge's base, ours, theirs and merged texts: three
/// 1 360-letter slices, 8 newlines apart. Theirs moves slice 2's text
/// to slice 0 and rewrites slice 2; ours rewrites slice 1.
fn moved_block_texts() -> [String; 4] {
    let slice = |mut x: u64, first: u8| -> String {
        (0..1360)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                char::from(first + (x % 26) as u8)
            })
            .collect()
    };
    let doc = |slices: [&String; 3]| slices.map(String::as_str).join("\n\n\n\n\n\n\n\n");
    let [s0, s1, s2] = [1, 2, 3].map(|seed| slice(seed, b'a'));
    let (ours, theirs) = (slice(4, b'A'), slice(5, b'A'));
    [
        doc([&s0, &s1, &s2]),
        doc([&s0, &ours, &s2]),
        doc([&s2, &s1, &theirs]),
        doc([&s2, &ours, &theirs]),
    ]
}

/// The moved-block merge script, on any backend: fork the base twice,
/// write ours and theirs, and merge under every policy. Each must merge
/// cleanly to slice 2's text, our slice 1 and their slice 2 — no side's
/// edit lost to the move — and check the result in as the latest.
/// Panics on a failed check; returns the object for further reads.
pub fn moved_block<B: RawWrite>(s: &mut Session<B>) -> ObjPtr<Text>
where
    B::Error: Debug,
{
    let text = |text: &String| Text { text: text.clone() };
    let [base, ours, theirs, merged] = moved_block_texts();
    let p = s.pnew(&text(&base)).expect("pnew");
    let base = s.current_version(&p).expect("current_version");
    let a = s.newversion_from(&base).expect("fork a");
    s.put_version(&a, &text(&ours)).expect("edit a");
    let b = s.newversion_from(&base).expect("fork b");
    s.put_version(&b, &text(&theirs)).expect("edit b");
    for policy in [MergePolicy::Fail, MergePolicy::Ours, MergePolicy::Theirs] {
        let report = s.merge(&a, &b, policy).expect("merge");
        assert!(
            report.conflicts.is_empty(),
            "under {policy:?}: {} conflicts",
            report.conflicts.len()
        );
        let m = report.version.expect("a clean merge checks in");
        let latest = s.deref(&p).expect("deref");
        assert_eq!(latest.version(), m);
        assert_eq!(
            to_bytes(&*latest),
            to_bytes(&text(&merged)),
            "under {policy:?}"
        );
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        n: u64,
    }
    impl_persist_struct!(Probe { n });
    impl_type_name!(Probe = "testutil/Probe");

    #[test]
    fn tempdb_cleans_up_its_files() {
        let (path, wal) = {
            let db = tempdb();
            let mut txn = db.begin();
            txn.pnew(&Probe { n: 42 }).unwrap();
            txn.commit().unwrap();
            let mut wal = db.path().to_path_buf().into_os_string();
            wal.push(".wal");
            (db.path().to_path_buf(), PathBuf::from(wal))
        };
        assert!(!path.exists(), "database file should be removed on drop");
        assert!(!wal.exists(), "wal file should be removed on drop");
    }

    #[test]
    fn tempdb_survives_reopen() {
        let mut db = tempdb();
        let ptr = {
            let mut txn = db.begin();
            let ptr = txn.pnew(&Probe { n: 7 }).unwrap();
            txn.commit().unwrap();
            ptr
        };
        db.reopen();
        let mut snap = db.snapshot();
        assert_eq!(snap.deref(&ptr).unwrap().n, 7);
    }
}
