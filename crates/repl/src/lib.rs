//! # ode-repl — per-shard WAL-shipping replication
//!
//! Primary/replica replication for a single Ode database (one shard of
//! the router tier, or a standalone server):
//!
//! * [`ReplicationHub`] runs on the **primary**. It listens on a
//!   dedicated port (separate from the client protocol), bootstraps
//!   each replica with a page-file snapshot (or resumes a live WAL
//!   position), then tails the fsynced WAL to it in chunks, tracking
//!   each replica's acknowledged position and epoch so the primary can
//!   report lag and implement semi-synchronous commit waits.
//! * [`ReplicaNode`] runs on a **replica**. It dials the primary,
//!   installs the snapshot / resumes the tail, applies every shipped
//!   commit through the storage engine's recovery path (one epoch bump
//!   per commit, exactly as the primary published it), and acks. Its
//!   `Database` stays open for epoch-gated reads the whole time.
//! * [`wire`] is the shipping channel's length-framed binary protocol.
//!
//! Failover is *driven from above* (the router, or a test harness):
//! [`ReplicaNode::promote`] stops the tail, fences the local WAL at the
//! last fully-applied commit (`truncate_tail` of the unshipped /
//! half-shipped suffix), and turns the database writable. A fenced
//! ex-primary that comes back simply starts a `ReplicaNode` pointed at
//! the new primary: its `Hello` carries a stale generation id, so the
//! new primary re-bootstraps it from a snapshot rather than trusting
//! positions from a dead lineage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hub;
mod node;
pub mod wire;

pub use hub::ReplicationHub;
pub use node::{NodeStatus, ReplicaNode};

/// Errors from the replication channel.
#[derive(Debug)]
pub enum ReplError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed or unexpected frame.
    Protocol(String),
    /// The underlying database rejected an install/apply.
    Db(ode::Error),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Io(e) => write!(f, "replication i/o error: {e}"),
            ReplError::Protocol(msg) => write!(f, "replication protocol error: {msg}"),
            ReplError::Db(e) => write!(f, "replication apply error: {e}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> ReplError {
        ReplError::Io(e)
    }
}

impl From<ode::Error> for ReplError {
    fn from(e: ode::Error) -> ReplError {
        ReplError::Db(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ReplError>;
