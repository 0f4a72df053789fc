//! # ode-delta — binary diff and apply
//!
//! The paper (§2) observes that "the derived-from relationship can be
//! used to store versions by storing their 'differences' (called deltas)"
//! citing SCCS and RCS.  This crate is the difference engine only:
//! [`diff`]/[`apply`], a block-hash binary diff over encoded object
//! bodies (content-defined copy/insert operations), and the [`Delta`]
//! value they exchange.  [`apply_encoded`] applies a delta straight from
//! its encoded bytes and [`skip_encoded`] steps over one, so a reader of
//! stored deltas need not build a [`Delta`]; both feed the same apply
//! loop as [`apply`].  Where deltas are kept is the version layer's
//! business: `ode-version` stores every version but the latest in its
//! object's segmented delta chain, and `ode-merge` lowers deltas to
//! edit hunks.
//!
//! Everything here is deterministic and storage-agnostic: a [`Delta`]
//! is a `Persist` value any heap record can hold.
//!
//! ```
//! use ode_delta::{diff, apply};
//!
//! let base   = b"the quick brown fox jumps over the lazy dog".repeat(40);
//! let mut edited = base.clone();
//! edited[10] = b'Q';
//! let d = diff(&base, &edited);
//! assert_eq!(apply(&base, &d).unwrap(), edited);
//! assert!(d.encoded_size() < base.len() / 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;

pub use diff::{
    apply, apply_encoded, diff, diff_with_block, skip_encoded, ApplyError, Delta, DeltaOp,
    DEFAULT_BLOCK,
};
