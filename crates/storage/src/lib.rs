//! # ode-storage — the persistent store beneath Ode
//!
//! The Ode paper's implementation rests on an in-house "persistence
//! library for C++" (the paper's reference 10) that manages persistent objects on
//! disk.  This crate is that substrate, built from scratch:
//!
//! * [`page`] — 4 KiB pages with typed headers and CRC32 checksums;
//! * [`pager`] — the database file: positional page read/write;
//! * [`buffer`] — a sharded LRU buffer pool with dirty tracking,
//!   shared lock-lightly by concurrent readers;
//! * [`wal`] — a redo-only write-ahead log with CRC-framed records and
//!   torn-tail recovery;
//! * [`gate`] — the writer-priority snapshot gate that keeps read
//!   transactions cross-page consistent while commits publish;
//! * [`store`] — the transactional facade combining all of the above:
//!   a single serialized writer (matching the paper's explicit
//!   "we do not discuss concurrency control" scope) alongside fully
//!   concurrent snapshot readers, with leader/follower WAL group
//!   commit;
//! * [`slotted`] — slotted-page record layout;
//! * [`heap`] — variable-length record storage with overflow chains;
//! * [`btree`] — a persistent B+-tree mapping `u64` keys to `u64` values,
//!   used by the object layer for object/version tables;
//! * [`testutil`] — self-deleting temporary stores for tests.
//!
//! Everything above the [`store`] API is deterministic given the same
//! sequence of transactions, which the crash-recovery tests rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btree;
pub mod buffer;
mod checksum;
mod error;
pub mod gate;
pub mod heap;
pub mod page;
pub mod pager;
pub mod slotted;
pub mod store;
pub mod testutil;
pub mod wal;

pub use checksum::crc32;
pub use error::{Result, StorageError};
pub use gate::GateStats;
pub use page::{PageBuf, PageId, PAGE_SIZE};
pub use store::{
    IngestOutcome, PageRead, PageWrite, ReadTx, ReplSnapshot, Store, StoreOptions, StoreStats, Tx,
    Waker, WalSpan,
};
