//! # ode-net — networked access to an Ode database
//!
//! The paper's O++ programs run *in-process* against the database; this
//! crate adds the client/server deployment shape: a TCP server
//! ([`OdeServer`]) wrapping a shared [`ode::Database`], a compact
//! binary wire protocol ([`protocol`]) carrying the full O++ operation
//! set (`pnew`, generic/specific dereference, `newversion` in both
//! forms, `pdelete` of objects and versions, the four derived-from /
//! temporal traversals, extent scans), and a blocking client
//! ([`OdeClient`]). The client is a raw backend of the O++ surface
//! ([`ode::RawRead`]/[`ode::RawWrite`], one method per wire row), so
//! [`ode::Session`] over a client is the embedded typed API itself:
//! the same [`ode::ObjPtr`] / [`ode::VersionPtr`], the same results,
//! and the generic-vs-specific reference distinction crosses the
//! network unchanged. The wire
//! carries the core's other result types as they are, too:
//! `DiffVersions` answers an [`ode::VersionDiff`], and
//! [`StatsReport::storage`] is the server's `ode_storage::StoreStats`.
//!
//! No async runtime: the server is a fixed set of threads sharing one
//! epoll poller (the vendored [`polling`] crate) over nonblocking
//! sockets, registered oneshot so each readiness event goes to one
//! thread. That thread reads the connection's frames, executes up to
//! 64 of its requests in stream order in place, flushes the responses
//! and re-arms the socket, so thread count is constant no matter how
//! many thousands of connections are open. A client that stops reading
//! is evicted once its buffered responses hit
//! [`ServerConfig::write_buffer_cap`]
//! ([`StatsReport::slow_client_evictions`] counts these). Serving must
//! not change a program's result: the server is property-tested
//! against the same requests applied in stream order to an in-process
//! [`ode::Database`], byte for byte, one connection and several at
//! once.
//! One request maps to one server-side snapshot (reads) or one
//! committed transaction (writes), so a successful write response
//! implies WAL durability, and a client reconnecting after a server
//! restart sees every version it was ever acknowledged.
//!
//! Protocol v2 makes every connection a **pipeline**: requests carry
//! client-assigned sequence ids and responses may arrive out of order
//! (a server answers one connection in order; the router interleaves
//! shards), so [`OdeClient::send`]/[`OdeClient::recv`] (and the
//! [`Pipeline`] batch API) keep many requests in flight per
//! connection. The server serves repeated reads from a
//! commit-invalidated snapshot cache ([`StatsReport::snapshot_hits`] /
//! [`StatsReport::snapshot_misses`] show its effectiveness).
//!
//! A server is also a replication primary on the same port: a replica
//! sends `Subscribe` and is answered by a stream — a snapshot in parts
//! or a resume, then a chunk of log after every commit — which it
//! applies and acks ([`ReplicaNode`], run by a replica-mode server that
//! [follows](OdeServer::follow) its primary). Shipping runs in that
//! connection's turns on the server's threads, woken through the poller
//! by a commit on any path, and while a replica is subscribed each
//! write is answered only once a replica acked it (semi-synchronous,
//! bounded by 500 ms).
//!
//! For scale-out, [`OdeRouter`] is a shard-routing front tier speaking
//! the same protocol on both sides: clients connect to it exactly as
//! to a single server while it routes each request to one of N backend
//! shards by object id ([`ShardMap`]) — see the [`router`](OdeRouter)
//! docs for the ordering and fault semantics. It runs on the server's
//! event loop, so a client session costs it no thread. [`Cluster`] and
//! [`relay::FaultRelay`] make the whole tier spawnable in-process for
//! deterministic fault-injection tests.
//!
//! ```no_run
//! use std::sync::Arc;
//! use ode::{Database, DatabaseOptions};
//! use ode_net::{ClientConfig, OdeClient, OdeServer, ServerConfig};
//!
//! let db = Arc::new(Database::create("parts.odb", DatabaseOptions::default()).unwrap());
//! let server = OdeServer::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = OdeClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
//! client.ping().unwrap();
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod cluster;
mod error;
mod event_loop;
pub mod protocol;
pub mod relay;
mod replication;
mod router;
mod server;
mod shard;

pub use client::{ClientConfig, OdeClient, Pipeline};
pub use cluster::{Cluster, ClusterConfig};
pub use error::{NetError, RemoteError, Result};
pub use protocol::{Opcode, Request, Response, StatsReport};
pub use relay::{FaultRelay, RelayPlan};
pub use replication::{NodeStatus, ReplicaNode};
pub use router::{OdeRouter, RouterConfig, RouterStatsReport, ShardMembership};
pub use server::{OdeServer, ServerConfig};
pub use shard::ShardMap;
