//! # ode-version — the version graph of the Ode model
//!
//! This crate implements §3–§4 of *Object Versioning in Ode*: the
//! abstract version model and its operations, independent of the
//! pointer-level API (which lives in the `ode` core crate).
//!
//! Model recap (from the paper):
//!
//! * every persistent object is a set of versions; creating an object
//!   creates its first version (**version orthogonality** — nothing is
//!   declared "versionable", and an object with one version costs no
//!   more than an unversioned object would);
//! * an **object id** logically refers to the *latest* version (the
//!   temporal head); a **version id** refers to one specific version;
//! * the system automatically maintains the **temporal** relationship
//!   (a doubly-linked creation-order chain per object) and the
//!   **derived-from** relationship (a tree: `newversion(v)` makes a
//!   revision or — when `v` already has a successor — an alternative);
//! * `pdelete` on an object id removes the object and all its versions;
//!   on a version id it removes that one version, splicing both
//!   relationships around it.
//!
//! Layout: each version is a [`VersionMeta`] record (graph links, plus
//! the encoded object body for the latest version) in an
//! `ode_object::ObjectHeap`; each object is an [`ObjectMeta`] record, and
//! every object with two or more versions has a delta chain holding the
//! state of all but the latest (see [`ChainConfig`]).  Three
//! `ode_object::KvTable`s map oid → object record, vid → version record
//! and oid → chain directory, and an `ode_object::Extents` directory
//! indexes objects by type for O++-style queries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod chain;
mod error;
pub mod export;
mod graph;
mod records;
mod segments;

pub use cache::EpochCache;
pub use chain::{
    ChainConfig, ChainDirectory, ChainStats, RunEntry, Segment, SegmentRef, VersionDiff,
};
pub use error::{Result, VersionError};
pub use export::version_graph_dot;
pub use graph::{VersionStore, VersionStoreLayout};
pub use records::{ObjectMeta, VersionMeta};

pub use ode_object::{Oid, Vid};
