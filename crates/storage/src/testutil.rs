//! Temporary-file helpers shared by this crate's unit and integration
//! tests: the storage-level twin of `ode::testutil::TempDb`.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::store::{hdr, wal_path_for};
use crate::{PageBuf, Store, StoreOptions, PAGE_SIZE};

static NEXT_PATH: AtomicU64 = AtomicU64::new(0);

/// Rewrite the format version in the header page at the start of
/// `file` (a page file's bytes) and reseal the page: how a test makes
/// a file look as if another build wrote it.
pub fn stamp_format_version(file: &mut [u8], version: u32) {
    let mut header = PageBuf::from_vec(file[..PAGE_SIZE].to_vec()).expect("a header page");
    header.write_u32(hdr::FORMAT_VERSION, version);
    header.seal();
    file[..PAGE_SIZE].copy_from_slice(header.as_bytes());
}

/// A unique, not-yet-existing path in the system temp directory. The
/// file there and its `.wal` sidecar are removed on drop — also when
/// the test that owns it panics.
pub struct TempPath(PathBuf);

impl TempPath {
    /// Reserve a fresh path.
    pub fn new() -> TempPath {
        let n = NEXT_PATH.fetch_add(1, Ordering::Relaxed);
        let name = format!("ode-storage-test-{}-{n}.odb", std::process::id());
        TempPath(std::env::temp_dir().join(name))
    }

    /// Where a store at this path keeps its WAL.
    pub fn wal(&self) -> PathBuf {
        wal_path_for(&self.0)
    }
}

impl Default for TempPath {
    fn default() -> TempPath {
        TempPath::new()
    }
}

impl Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.wal());
    }
}

/// A [`Store`] at a [`TempPath`]: closed, then deleted, on drop.
pub struct TempStore {
    // Field order is drop order: the store checkpoints before its
    // files go.
    store: Option<Store>,
    path: TempPath,
    options: StoreOptions,
}

impl TempStore {
    /// Create a fresh store with default options.
    pub fn new() -> TempStore {
        TempStore::with(StoreOptions::default())
    }

    /// Create a fresh store with `options` (reused by every reopen).
    pub fn with(options: StoreOptions) -> TempStore {
        let path = TempPath::new();
        let store = Store::create(&path, options.clone()).expect("create temporary store");
        TempStore {
            store: Some(store),
            path,
            options,
        }
    }

    /// The store's files.
    pub fn path(&self) -> &TempPath {
        &self.path
    }

    /// Close the store cleanly (its drop checkpoints), keeping the files.
    pub fn close(&mut self) {
        self.store = None;
    }

    /// Simulate a crash: leak the open store so no shutdown checkpoint
    /// runs and the files stay exactly as the last commit left them.
    pub fn crash(&mut self) {
        std::mem::forget(self.store.take());
    }

    /// Open the store from its files, running recovery as a restart
    /// would (closing it cleanly first if it is still open).
    pub fn reopen(&mut self) {
        self.store = None;
        let store = Store::open(&self.path, self.options.clone()).expect("reopen temporary store");
        self.store = Some(store);
    }
}

impl Default for TempStore {
    fn default() -> TempStore {
        TempStore::new()
    }
}

impl Deref for TempStore {
    type Target = Store;

    fn deref(&self) -> &Store {
        self.store.as_ref().expect("temporary store is closed")
    }
}
