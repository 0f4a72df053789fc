//! The untyped interface every comparator model implements.

use std::fmt;

/// Result alias for model operations.
pub type ModelResult<T> = Result<T, ModelError>;

/// Errors from a version model.
#[derive(Debug)]
pub enum ModelError {
    /// The model's semantics do not support this operation (e.g.
    /// versioning an undeclared object in ORION).
    Unsupported(&'static str),
    /// Unknown object or version handle.
    NotFound,
    /// Substrate failure.
    Storage(ode_storage::StorageError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Unsupported(what) => write!(f, "unsupported by this model: {what}"),
            ModelError::NotFound => write!(f, "object or version not found"),
            ModelError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<ode_storage::StorageError> for ModelError {
    fn from(e: ode_storage::StorageError) -> Self {
        ModelError::Storage(e)
    }
}

impl From<ode_version::VersionError> for ModelError {
    fn from(e: ode_version::VersionError) -> Self {
        match e {
            ode_version::VersionError::Storage(s) => ModelError::Storage(s),
            ode_version::VersionError::UnknownObject(_)
            | ode_version::VersionError::UnknownVersion(_) => ModelError::NotFound,
            ode_version::VersionError::TypeMismatch { .. } => {
                ModelError::Unsupported("type mismatch")
            }
            ode_version::VersionError::LastVersion(_) => {
                ModelError::Unsupported("deleting last version")
            }
            ode_version::VersionError::ChainCorrupt(_) => {
                ModelError::Unsupported("corrupt delta chain")
            }
            ode_version::VersionError::MergeMismatch { .. } => {
                ModelError::Unsupported("merging unrelated versions")
            }
            ode_version::VersionError::ClaimRefused { .. } => {
                ModelError::Unsupported("refused id claim")
            }
        }
    }
}

/// What branching from a non-tip version produced.
///
/// Tree-model systems return a [`BranchOutcome::Version`]; linear-model
/// systems (GemStone, POSTGRES) cannot represent alternatives inside one
/// object, so they *copy* the history into a fresh object — the cost the
/// paper's "inadequate for design databases" remark points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchOutcome {
    /// A new version inside the same object.
    Version(u64),
    /// A whole new object seeded from the requested version's state.
    NewObject(u64),
}

/// A version model driven by the benchmark harness: untyped byte bodies,
/// `u64` object and version handles.
pub trait VersionModel {
    /// Human-readable model name for reports.
    fn name(&self) -> &'static str;

    /// Create a *versionable* object with an initial state.
    fn create(&mut self, body: &[u8]) -> ModelResult<u64>;

    /// Create an object with versioning off, where the model
    /// distinguishes (ORION); orthogonal models treat this as
    /// [`VersionModel::create`].
    fn create_unversioned(&mut self, body: &[u8]) -> ModelResult<u64> {
        self.create(body)
    }

    /// Make a previously unversioned object versionable. Orthogonal
    /// models: no-op. ORION/IRIS: a copying transformation.
    fn make_versionable(&mut self, _obj: u64) -> ModelResult<()> {
        Ok(())
    }

    /// Read the object's current state (whatever "current" means to the
    /// model: latest version / default version per its semantics).
    fn read_current(&mut self, obj: u64) -> ModelResult<Vec<u8>>;

    /// Handle of the current version.
    fn current_version(&mut self, obj: u64) -> ModelResult<u64>;

    /// Read one specific version's state.
    fn read_version(&mut self, obj: u64, ver: u64) -> ModelResult<Vec<u8>>;

    /// Overwrite the current version's state in place.
    fn update_current(&mut self, obj: u64, body: &[u8]) -> ModelResult<()>;

    /// Derive a new version from the current one.
    fn new_version(&mut self, obj: u64) -> ModelResult<u64>;

    /// Derive from a specific version (branch when it is not the tip).
    fn new_version_from(&mut self, obj: u64, ver: u64) -> ModelResult<BranchOutcome>;

    /// Delete the object and all its versions.
    fn delete_object(&mut self, obj: u64) -> ModelResult<()>;

    /// Number of live versions.
    fn version_count(&mut self, obj: u64) -> ModelResult<u64>;
}
