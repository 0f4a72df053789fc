//! Storage-layer error type.

use std::fmt;
use std::io;

use crate::page::PageId;

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// A page's stored checksum did not match its contents.
    ChecksumMismatch {
        /// The page whose checksum failed.
        page: PageId,
    },
    /// The database file is not an Ode store (bad magic or length).
    BadMagic,
    /// The file is an Ode store in a format this build does not read —
    /// written by another version. There is no upgrade path: the file
    /// is refused as it is.
    UnsupportedFormat {
        /// Format version in the file's header.
        found: u32,
        /// The only version this build reads
        /// ([`FORMAT_VERSION`](crate::store::FORMAT_VERSION)).
        expected: u32,
    },
    /// The write-ahead log is not empty and does not start with this
    /// build's log header — written by another version. It is refused
    /// as it is: replaying it could lose committed work.
    UnsupportedLog,
    /// A page id was outside the allocated file.
    PageOutOfBounds {
        /// The offending page id.
        page: PageId,
        /// Number of pages currently allocated.
        page_count: u64,
    },
    /// A WAL record failed its framing, chain or CRC check where the
    /// bytes must be intact (a shipped stream), or an intact frame's
    /// payload is not a record. Recovery instead ends the log at a
    /// frame that fails its checks.
    WalCorrupt {
        /// Byte offset of the bad record.
        offset: u64,
    },
    /// A commit's page records outgrow one log frame, whose length
    /// field is 32 bits. The commit is refused before any of it is
    /// appended.
    CommitTooLarge {
        /// Bytes of the records.
        bytes: u64,
    },
    /// A record id referred to a missing or deleted slot.
    RecordNotFound {
        /// Page part of the record id.
        page: PageId,
        /// Slot index part of the record id.
        slot: u16,
    },
    /// A value did not fit where it must (e.g. slotted-page insert into a
    /// full page — callers are expected to check capacity first).
    PageFull,
    /// Decoding a stored structure failed (corruption or version skew).
    Codec(ode_codec::DecodeError),
    /// Keys in a B+-tree node violated ordering (corruption guard).
    TreeCorrupt(&'static str),
    /// The operation requires an open write transaction.
    NoTransaction,
    /// An optimistic write transaction lost its validation race: a page
    /// it read or wrote was committed by another transaction after this
    /// one began (first-committer-wins). The transaction is aborted and
    /// left no trace; the caller should re-execute it from the start —
    /// its reads may be stale, so blindly re-submitting the same write
    /// set would lose the other writer's update.
    WriteConflict,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::ChecksumMismatch { page } => {
                write!(f, "checksum mismatch on page {page}")
            }
            StorageError::BadMagic => write!(f, "not an Ode database file"),
            StorageError::UnsupportedFormat { found, expected } => write!(
                f,
                "unsupported database format {found} (this build reads format {expected} only)"
            ),
            StorageError::UnsupportedLog => write!(
                f,
                "unsupported log format (the write-ahead log has no header this build reads)"
            ),
            StorageError::PageOutOfBounds { page, page_count } => {
                write!(f, "page {page} out of bounds ({page_count} pages)")
            }
            StorageError::WalCorrupt { offset } => {
                write!(f, "WAL corrupt at offset {offset}")
            }
            StorageError::CommitTooLarge { bytes } => write!(
                f,
                "commit too large: {bytes} bytes of page records do not fit one log frame"
            ),
            StorageError::RecordNotFound { page, slot } => {
                write!(f, "record not found: page {page} slot {slot}")
            }
            StorageError::PageFull => write!(f, "page full"),
            StorageError::Codec(e) => write!(f, "codec error: {e}"),
            StorageError::TreeCorrupt(msg) => write!(f, "btree corrupt: {msg}"),
            StorageError::NoTransaction => write!(f, "no open transaction"),
            StorageError::WriteConflict => {
                write!(f, "write conflict: transaction lost its validation race")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<ode_codec::DecodeError> for StorageError {
    fn from(e: ode_codec::DecodeError) -> Self {
        StorageError::Codec(e)
    }
}
