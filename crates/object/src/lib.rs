//! # ode-object — object identity and typed record storage
//!
//! The paper builds on Ode's persistence model: "Each persistent object
//! is identified by a unique object identity" (citing Khoshafian &
//! Copeland).  This crate provides that identity layer over
//! [`ode_storage`]:
//!
//! * [`id`] — persistent id allocation ([`Oid`], [`Vid`], the generic
//!   [`id::IdAllocator`], and the [`id::IdClaim`] a shard's ids come from);
//! * [`table`] — [`table::KvTable`], a `u64 → u64` table whose B+-tree
//!   root self-persists in a store root slot;
//! * [`objheap`] — [`objheap::ObjectHeap`], typed `Persist` record
//!   storage over the byte heap;
//! * [`extent`] — per-type extents (Ode clusters objects by type; extents
//!   are what `for x in Type` iterates in O++ queries).
//!
//! The version layer (`ode-version`) composes these
//! into the paper's object/version tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extent;
pub mod id;
pub mod objheap;
pub mod table;

pub use extent::Extents;
pub use id::{IdAllocator, IdClaim, Oid, Vid};
pub use objheap::ObjectHeap;
pub use table::KvTable;
