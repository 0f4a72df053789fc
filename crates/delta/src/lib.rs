//! # ode-delta — delta storage for version chains
//!
//! The paper (§2) observes that "the derived-from relationship can be
//! used to store versions by storing their 'differences' (called deltas)"
//! citing SCCS and RCS.  Ode itself stores full copies; this crate
//! implements the delta alternative so the trade-off can be measured
//! (experiment E7 in DESIGN.md):
//!
//! * [`diff`]/[`apply`] — a block-hash binary diff over encoded object
//!   bodies (content-defined copy/insert operations);
//! * [`chain::ForwardChain`] — SCCS-style: the oldest version is stored
//!   whole and each newer version is a delta from its predecessor, so
//!   *old* versions are cheap and the latest costs a whole-chain replay;
//! * [`chain::ReverseChain`] — RCS-style: the *latest* version is stored
//!   whole and deltas run backwards, matching Ode's access pattern where
//!   the object id resolves to the latest version.
//!
//! Everything here is deterministic and storage-agnostic: chains are
//! `Persist` values that the version layer can put in any heap record.
//!
//! ```
//! use ode_delta::{diff, apply, ReverseChain};
//!
//! // Point diff/apply:
//! let base   = b"the quick brown fox jumps over the lazy dog".repeat(40);
//! let mut edited = base.clone();
//! edited[10] = b'Q';
//! let d = diff(&base, &edited);
//! assert_eq!(apply(&base, &d).unwrap(), edited);
//! assert!(d.encoded_size() < base.len() / 4);
//!
//! // RCS-style chain: latest is whole (Ode's hot path), older versions
//! // reconstruct through reverse deltas.
//! let mut chain = ReverseChain::new(base.clone());
//! chain.push(&edited);
//! assert_eq!(chain.latest(), &edited[..]);
//! assert_eq!(chain.materialize(0).unwrap(), base);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
mod diff;

pub use chain::full_copy_size;
pub use chain::{ForwardChain, ReverseChain};
pub use diff::{apply, diff, diff_with_block, ApplyError, Delta, DeltaOp, DEFAULT_BLOCK};
