//! # ode — the O++ object-versioning model in Rust
//!
//! This crate is the Rust rendition of the programming-language surface
//! of *Object Versioning in Ode* (Agrawal, Buroff, Gehani, Shasha;
//! ICDE 1991).  O++ extended C++ with persistent objects and a minimal,
//! orthogonal versioning model; this library maps each construct onto
//! idiomatic Rust:
//!
//! | O++ | here |
//! |-----|------|
//! | `pnew T(...)` | [`Session::pnew`] → [`ObjPtr<T>`] |
//! | object id (`T*`) | [`ObjPtr<T>`] — resolves to the **latest** version at each use |
//! | version id | [`VersionPtr<T>`] — pinned to one version |
//! | `*p` / `p->f` (overloaded) | [`Session::deref`] / [`Session::deref_v`] returning guards that `Deref<Target = T>` |
//! | mutation through a pointer | [`Session::put`] / [`Session::put_version`]; in place, embedded: `Txn::update` / `Txn::update_version` |
//! | `newversion(p)` | [`Session::newversion`] / [`Session::newversion_from`] |
//! | `pdelete` | [`Session::pdelete`] / [`Session::pdelete_version`] |
//! | `Dprevious` / `Tprevious` … | [`Session::dprevious`], [`Session::tprevious`], [`Session::tnext`], [`Session::dnext`] |
//! | `for x in Type` (extent query) | [`Session::objects`] |
//! | triggers | [`Database::on_object`] / [`Database::on_type`] |
//!
//! The O++ surface is written once, in two layers ([`RawRead`] and
//! [`RawWrite`]: the wire protocol's operations on ids and encoded
//! bodies; [`Session`]: the typed methods above, over any raw backend).
//! A [`Txn`] or [`Snapshot`] is a `Session` over the embedded backend
//! ([`Embedded`]), which adds the operations that need the version
//! store directly; `ode-net` makes a `Session` over its network client.
//!
//! ## Quick start
//!
//! ```
//! use ode_codec::{impl_persist_struct, impl_type_name};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! struct Part { name: String, weight: u32 }
//! impl_persist_struct!(Part { name, weight });
//! impl_type_name!(Part = "demo/Part");
//!
//! // A throwaway on-disk database, removed (with its WAL) on drop.
//! let db = ode::testutil::tempdb();
//!
//! let mut txn = db.begin();
//! // pnew: create a persistent object (its first version).
//! let p = txn.pnew(&Part { name: "alu".into(), weight: 7 }).unwrap();
//! // Pin the current version, then derive a new one.
//! let v0 = txn.current_version(&p).unwrap();
//! let v1 = txn.newversion(&p).unwrap();
//! txn.update(&p, |part| part.weight = 9).unwrap();
//!
//! // Generic reference: sees the latest version.
//! assert_eq!(txn.deref(&p).unwrap().weight, 9);
//! // Specific reference: pinned.
//! assert_eq!(txn.deref_v(&v0).unwrap().weight, 7);
//! // Derived-from traversal.
//! assert_eq!(txn.dprevious(&v1).unwrap(), Some(v0));
//! txn.commit().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod db;
mod event;
mod guard;
mod ptr;
mod session;
#[doc(hidden)]
pub mod testutil;
mod txn;

pub use db::{Database, DatabaseOptions, RetryPolicy};
pub use event::{Event, TriggerId};
pub use guard::{ORef, VRef};
pub use ptr::{ObjPtr, VersionPtr};
pub use session::{MergeReport, RawRead, RawWrite, Session};
pub use txn::{Embedded, Snapshot, Txn};

pub use ode_codec::type_tag::TypeName;
pub use ode_codec::{Persist, TypeTag};
pub use ode_merge::{MergeConflict, MergePolicy};
pub use ode_object::{IdClaim, Oid, Vid};
pub use ode_version::{
    ChainConfig, ChainStats, EpochCache, Result, VersionDiff, VersionError as Error,
};

/// The bound a type must satisfy to live in an Ode database: a stable
/// persistent name plus a binary encoding.
///
/// Version orthogonality (§3 of the paper) falls out of this design:
/// *every* `OdeType` can be versioned — there is no "versionable"
/// declaration, and no transformation step for objects that never used
/// versions.
pub trait OdeType: Persist + TypeName {}

impl<T: Persist + TypeName> OdeType for T {}
