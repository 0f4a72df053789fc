//! Version-layer error type.

use std::fmt;

use ode_codec::TypeTag;
use ode_object::{IdClaim, Oid, Vid};

/// Result alias for version-layer operations.
pub type Result<T> = std::result::Result<T, VersionError>;

/// Errors produced by the version layer.
#[derive(Debug)]
pub enum VersionError {
    /// The underlying store failed.
    Storage(ode_storage::StorageError),
    /// No object with this id exists (it was never created, or was
    /// `pdelete`d).
    UnknownObject(Oid),
    /// No version with this id exists.
    UnknownVersion(Vid),
    /// The stored object's type tag did not match the requested type —
    /// an `ObjPtr<T>`/`VersionPtr<T>` was forged or decoded against the
    /// wrong `T`.
    TypeMismatch {
        /// Tag the caller asked for.
        expected: TypeTag,
        /// Tag actually stored.
        found: TypeTag,
    },
    /// Refused to delete the last remaining version of an object via
    /// `pdelete(version)`; delete the object instead (the paper's
    /// `pdelete` on a version removes *a* version from a history — an
    /// object always has at least one version).
    LastVersion(Vid),
    /// A stored delta chain is inconsistent with the version graph or
    /// fails to replay — on-disk corruption or an engine bug, never a
    /// caller mistake.
    ChainCorrupt(&'static str),
    /// `merge(a, b)` was asked to reconcile versions that cannot form a
    /// merge: they belong to different objects, or are the same
    /// version.
    MergeMismatch {
        /// First merge input.
        a: Vid,
        /// Second merge input.
        b: Vid,
    },
    /// A store was asked to issue ids from a residue class it cannot
    /// take: it holds another claim, or it is unclaimed and has already
    /// issued ids the new stride would not have.
    ClaimRefused {
        /// The store's claim; `None` while unclaimed.
        held: Option<IdClaim>,
        /// The claim asked for.
        asked: IdClaim,
    },
}

impl VersionError {
    /// Whether this error is an optimistic write conflict: the
    /// transaction lost its validation race and should be re-executed
    /// from the start against fresh reads (see `Database::transact` in
    /// `ode`).
    pub fn is_write_conflict(&self) -> bool {
        matches!(
            self,
            VersionError::Storage(ode_storage::StorageError::WriteConflict)
        )
    }
}

impl fmt::Display for VersionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionError::Storage(e) => write!(f, "storage error: {e}"),
            VersionError::UnknownObject(oid) => write!(f, "unknown object {oid}"),
            VersionError::UnknownVersion(vid) => write!(f, "unknown version {vid}"),
            VersionError::TypeMismatch { expected, found } => write!(
                f,
                "type mismatch: expected tag {:#018x}, found {:#018x}",
                expected.0, found.0
            ),
            VersionError::LastVersion(vid) => write!(
                f,
                "{vid} is the last version of its object; pdelete the object instead"
            ),
            VersionError::ChainCorrupt(msg) => write!(f, "delta chain corrupt: {msg}"),
            VersionError::MergeMismatch { a, b } => {
                write!(
                    f,
                    "cannot merge {a} with {b}: not two distinct versions of one object"
                )
            }
            VersionError::ClaimRefused { held, asked } => match held {
                Some(held) => write!(f, "ids claimed as {held}; refused claim {asked}"),
                None => write!(f, "unclaimed ids already issued; refused claim {asked}"),
            },
        }
    }
}

impl std::error::Error for VersionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VersionError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ode_storage::StorageError> for VersionError {
    fn from(e: ode_storage::StorageError) -> Self {
        VersionError::Storage(e)
    }
}

impl From<ode_codec::DecodeError> for VersionError {
    fn from(e: ode_codec::DecodeError) -> Self {
        VersionError::Storage(ode_storage::StorageError::Codec(e))
    }
}
