//! The Ode TCP server.
//!
//! [`OdeServer`] wraps an [`Arc<Database>`] and serves the wire
//! protocol from [`ServerConfig::workers`] **symmetric threads that
//! share one poller** (the vendored [`polling`] crate's epoll) over a
//! nonblocking listener and every connection's nonblocking socket.
//! Connection count is decoupled from thread count — 10k idle sessions
//! cost 10k fds and some buffers, not 10k stacks — and the thread that
//! reads a request is the thread that executes it.
//!
//! Every socket is registered **oneshot**: a readiness event is
//! delivered to exactly one waiting thread, and the socket stays
//! disarmed until that thread re-arms it. Each thread waits for one
//! event at a time, so the claimant owns the connection for one
//! **turn**:
//!
//! - **read** — unless a complete frame is still buffered from the
//!   last turn, readable bytes are pulled into an incremental
//!   [`FrameBuffer`] (partial reads leave a partial frame buffered)
//!   until it holds a complete frame or the socket runs dry;
//! - **execute** — up to [`PIPELINE_DEPTH`] frames are decoded and
//!   executed in stream order, in place. Reads are answered from the
//!   snapshot cache or a [`Database::snapshot`]; writes each run in
//!   their own [`Database::begin`] transaction, committed before the
//!   response frame is queued (a successful reply means the change is
//!   durable to the WAL). The group-commit fsync and the
//!   semi-synchronous replication barrier block only this thread; a
//!   read floor's wait blocks it at most [`FLOOR_SLICE`] per turn;
//! - **flush and re-arm** — response frames go to a per-connection
//!   write buffer flushed as far as the socket allows (partial writes
//!   keep a cursor), then the socket is re-armed: for reading while no
//!   complete frame is left over, and for writing while responses are
//!   backlogged or frames are left over (a writable socket reports at
//!   once, so leftover frames get the next turn without a read).
//!
//! A connection that sent `Subscribe` is a replica's subscription
//! (see [`crate::replication`]): its turns read acks and ship the log it
//! is owed. A commit wakes a thread through the poller to give each
//! idle subscriber a turn ([`Service::wake`]), and a write waiting at
//! the barrier does the same between looks at the acks; a subscriber is
//! re-armed under the idle lock, for writing too while log is owed, so
//! no wake is lost to a turn in progress.
//!
//! One turn per connection at a time is what keeps a connection's
//! requests in stream order at the store (pipelining is FIFO per
//! connection and read-your-writes holds by construction), while
//! different connections execute in parallel on different threads.
//! Backpressure is the turn's frame budget: a connection with frames
//! left over is not read, so the kernel's receive window fills and the
//! client blocks. A reader slower than its responses accumulates
//! backlog until [`ServerConfig::write_buffer_cap`], at which point the
//! connection is evicted (counted in `Stats` as
//! `slow_client_evictions`) rather than allowed to pin server memory.
//! A request that blocked on replication — a write at the
//! semi-synchronous barrier, or a read waiting for a floor epoch the
//! node has not applied — ends its turn, so a thread freed from such a
//! wait serves whoever has waited longest, the router's health probe
//! included, before the connection's next request. A read still below
//! its floor after a slice goes back into the read buffer, first in
//! line for the connection's next turn.
//!
//! Successful read responses are cached in an [`EpochCache`] keyed by
//! the request's *operation bytes* (the payload after the sequence id
//! varint, so every connection shares one map) and holding the encoded
//! response the same way: a hit frames the caller's sequence id and the
//! wire-ready bytes straight into the connection's outbox, under the
//! cache's lock — no snapshot, no store lock, no re-encode, no
//! allocation. Cross-connection consistency is commit-granular via the
//! database's [snapshot epoch](Database::snapshot_epoch), which
//! [`ode::Txn`]'s commit bumps before it returns.
//!
//! The per-request counters (requests per opcode, bytes in and out,
//! errors) are tallied on the turn's stack and added to the shared
//! ones once per turn ([`Tally`]): a cached read writes no cache line
//! that another thread also writes but the snapshot cache's lock.
//!
//! None of this may change what a connection is answered: the tests
//! below play pipelined request streams, split at arbitrary byte
//! boundaries, on several connections at once, and compare every
//! response frame with the one [`apply`] gives for the same request run
//! in stream order on an identically seeded in-process [`Database`].
//!
//! Shutdown is graceful and prompt: the threads are woken one after
//! another, each finishes the turn it is in (its decoded requests
//! execute; writes commit), and once all are joined every live socket
//! is shut down.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ode::{Database, EpochCache, IdClaim, RawRead, RawWrite};
use ode_codec::varint;
use parking_lot::Mutex;
use polling::Event;

use crate::error::RemoteError;
use crate::event_loop::{default_threads, Outbox, Pool, Service, Wire, PIPELINE_DEPTH};
use crate::protocol::{request_counts, split_seq, Request, Response, StatsReport, OPCODE_COUNT};
use crate::replication::{fresh_gen, NodeStatus, Peers, ReplicaNode, Subscription, SEMI_SYNC_WAIT};

/// Longest a read waits for its connection's read floor in one turn
/// (the whole wait is [`ServerConfig::read_floor_timeout`]); well under
/// the router's one-second health probe, which needs a free thread.
const FLOOR_SLICE: std::time::Duration = std::time::Duration::from_millis(100);

/// Snapshot-cache capacity in responses per epoch.
const SNAPSHOT_CACHE_ENTRIES: usize = 4096;

/// Request operation bytes → encoded response, both without their
/// sequence id varint. Values are only ever borrowed, under the cache's
/// lock, to be framed into a connection's outbox.
type SnapshotCache = EpochCache<Vec<u8>, Box<[u8]>>;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Threads that wait on the server's poller and execute the
    /// requests of the connections they claim — the storage-layer
    /// parallelism cap. Connection count is independent of this.
    pub workers: usize,
    /// Start in replica mode: writes are refused with `Unavailable`
    /// until a `Promote` request flips the node to primary. What the
    /// replica applies comes from the primary it
    /// [follows](OdeServer::follow).
    pub replica: bool,
    /// How long a read pinned by `ReadFloor` may wait for the node to
    /// apply the floor epoch before failing with `Unavailable`.
    pub read_floor_timeout: std::time::Duration,
    /// Per-connection response-backlog cap in bytes. A client that
    /// reads slower than it pipelines accumulates encoded responses in
    /// its write buffer; crossing this cap evicts the connection
    /// (`slow_client_evictions` in `Stats`) instead of letting one slow
    /// reader pin unbounded server memory. Sized so that a full
    /// pipeline of maximum-size frames fits comfortably above it.
    pub write_buffer_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: default_threads(),
            replica: false,
            read_floor_timeout: std::time::Duration::from_secs(5),
            write_buffer_cap: 64 << 20,
        }
    }
}

/// Lifetime counters, all monotone except `active_connections`. The
/// per-request ones are written once per turn, by [`Tally::publish`].
#[derive(Default)]
struct ServerStats {
    active_connections: AtomicU64,
    total_connections: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    protocol_errors: AtomicU64,
    op_errors: AtomicU64,
    slow_client_evictions: AtomicU64,
    requests: [AtomicU64; OPCODE_COUNT],
}

impl ServerStats {
    fn report(&self, cache: &SnapshotCache, db: &Database) -> StatsReport {
        let (snapshot_hits, snapshot_misses) = cache.counters();
        let (materialize_hits, materialize_misses) = db.materialize_cache_counters();
        let requests = request_counts(|op| self.requests[op as usize].load(Ordering::Relaxed));
        StatsReport {
            active_connections: self.active_connections.load(Ordering::Relaxed),
            total_connections: self.total_connections.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            op_errors: self.op_errors.load(Ordering::Relaxed),
            snapshot_hits,
            snapshot_misses,
            slow_client_evictions: self.slow_client_evictions.load(Ordering::Relaxed),
            materialize_hits,
            materialize_misses,
            requests,
            storage: db.storage_stats(),
        }
    }
}

/// One turn's per-request counts, kept by the thread in the turn and
/// added to the shared [`ServerStats`] in one go: before the turn
/// answers a `Stats` (which so counts itself and everything before it
/// on its connection) and before it flushes (so a client never holds
/// an answer that the counters do not show yet).
struct Tally {
    requests: [u64; OPCODE_COUNT],
    bytes_in: u64,
    bytes_out: u64,
    protocol_errors: u64,
    op_errors: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            requests: [0; OPCODE_COUNT],
            bytes_in: 0,
            bytes_out: 0,
            protocol_errors: 0,
            op_errors: 0,
        }
    }

    /// Queue `response` as the answer to `seq`, counting its bytes, and
    /// an op error when it is an error frame.
    fn answer(&mut self, out: &mut Outbox, seq: u64, response: &Response) {
        if let Response::Err(_) = response {
            self.op_errors += 1;
        }
        self.bytes_out += out.queue(&response.encode(seq));
    }

    /// Add the counts to `stats` and start again from zero.
    fn publish(&mut self, stats: &ServerStats) {
        let add = |counter: &AtomicU64, n: &mut u64| {
            if *n != 0 {
                counter.fetch_add(std::mem::take(n), Ordering::Relaxed);
            }
        };
        for (counter, n) in stats.requests.iter().zip(&mut self.requests) {
            add(counter, n);
        }
        add(&stats.bytes_in, &mut self.bytes_in);
        add(&stats.bytes_out, &mut self.bytes_out);
        add(&stats.protocol_errors, &mut self.protocol_errors);
        add(&stats.op_errors, &mut self.op_errors);
    }
}

/// Everything the server's threads share: the database, counters,
/// cache and replication state, the pool they wait on, and the
/// connections waiting for their next turn.
struct Node {
    db: Arc<Database>,
    stats: ServerStats,
    cache: SnapshotCache,
    /// `true` while this node is a replica (writes refused). Flipped to
    /// `false` by a successful `Promote`.
    replica: AtomicBool,
    /// The generation this server ships under.
    gen: u64,
    /// The subscribed connections and their acks, which the
    /// semi-synchronous barrier waits on.
    peers: Peers,
    /// A replica's subscription to its primary, once it follows one.
    tail: Mutex<Option<ReplicaNode>>,
    floor_timeout: std::time::Duration,
    write_cap: usize,
    pool: Pool,
    /// Every open connection that is not in a turn, by poller key. The
    /// thread that claims a connection's event takes it out for the
    /// turn and puts it back before re-arming it, so a connection is
    /// never in two turns at once.
    idle: Mutex<HashMap<usize, Conn>>,
}

/// Execute one decoded request and queue its response frame on `out`.
/// `op_bytes` is the request's payload after its sequence varint (the
/// snapshot-cache key of a read). Returns whether a write waited at
/// the replication barrier.
fn execute(
    node: &Node,
    seq: u64,
    request: Request,
    op_bytes: &[u8],
    out: &mut Outbox,
    tally: &mut Tally,
) -> bool {
    let (db, cache) = (&*node.db, &node.cache);
    let mut waited = false;
    let response = match request {
        Request::Ping => Response::Pong,
        Request::Stats => {
            tally.publish(&node.stats);
            Response::Stats(node.stats.report(cache, db))
        }
        // The router's health probe.
        Request::Epoch => Response::Count(db.snapshot_epoch()),
        request if request.is_read() => {
            // Sampled before the snapshot opens: a commit landing in
            // between tags the fill with an already-stale epoch (a
            // wasted entry, never a stale hit).
            let epoch = db.snapshot_epoch();
            // A hit is framed under the cache's lock: this caller's
            // sequence id, then the stored wire-ready bytes.
            let hit = cache.with(epoch, op_bytes, |cached| out.queue_seq(seq, cached));
            if let Some(written) = hit {
                tally.bytes_out += written;
                return false;
            }
            match apply(db, request) {
                Ok(response) => {
                    let frame = response.encode(seq);
                    let (_, body) =
                        split_seq(&frame).expect("an encoded frame starts with its seq");
                    let cached = Box::from(body);
                    cache.insert(epoch, op_bytes.to_vec(), cached);
                    tally.bytes_out += out.queue(&frame);
                    return false;
                }
                Err(e) => Response::Err(RemoteError::from(&e)),
            }
        }
        Request::Promote => {
            // Driven failover. Idempotent: promoting a primary is a
            // no-op success. The tail stops first, so nothing shipped
            // lands after the fence.
            let result = if !node.replica.load(Ordering::Acquire) {
                Ok(())
            } else {
                let tail = node.tail.lock().take();
                tail.map_or_else(|| db.promote_to_primary(), |tail| tail.promote())
            };
            match result {
                Ok(()) => {
                    node.replica.store(false, Ordering::Release);
                    Response::Unit
                }
                Err(e) => Response::Err(RemoteError::Storage(e.to_string())),
            }
        }
        Request::ClaimIds { stride, residue } => match claim_ids(node, stride, residue) {
            Ok(()) => Response::Unit,
            Err(e) => Response::Err(e),
        },
        // Replicas are read-only; the router never routes writes here,
        // so this is a client targeting the wrong node (or a promotion
        // race) — strictly not retryable on this connection.
        _ if node.replica.load(Ordering::Acquire) => Response::Err(RemoteError::Unavailable(
            "replica is read-only (writes go to the primary)".into(),
        )),
        request => apply(db, request)
            .inspect(|_| {
                // Semi-synchronous barrier: with a replica subscribed,
                // hold the response until one acked this commit's epoch.
                if node.peers.count() > 0 {
                    wait_replicated(node, db.snapshot_epoch(), SEMI_SYNC_WAIT);
                    waited = true;
                }
            })
            .unwrap_or_else(|e| Response::Err(RemoteError::from(&e))),
    };
    tally.answer(out, seq, &response);
    waited
}

/// Answer a `ClaimIds` request (sent once per router connection, so
/// kept out of line). A replica checks the claim but records nothing:
/// it inherits its primary's through the shipped log.
#[cold]
fn claim_ids(node: &Node, stride: u64, residue: u64) -> Result<(), RemoteError> {
    let refused = |e: ode::Error| RemoteError::from(&e);
    match IdClaim::new(stride, residue) {
        Some(claim) if node.replica.load(Ordering::Acquire) => {
            node.db.admits_claim(claim).map(drop).map_err(refused)
        }
        Some(claim) => node.db.claim_ids(claim).map_err(refused),
        None => Err(RemoteError::BadRequest(format!(
            "no id claim has stride {stride} residue {residue}"
        ))),
    }
}

/// Execute one operation. Reads run on a snapshot; writes run in a
/// transaction committed before returning, so the response implies
/// durability.
fn apply(db: &Database, request: Request) -> ode::Result<Response> {
    if request.is_read() {
        let mut snapshot = db.snapshot();
        let snap = snapshot.raw();
        return match request {
            Request::Deref { oid, tag } => {
                let (vid, bytes) = snap.deref_raw(oid, tag)?;
                Ok(Response::Body { vid, bytes })
            }
            Request::DerefVersion { vid, tag } => {
                let bytes = snap.deref_version_raw(vid, tag)?;
                Ok(Response::Body { vid, bytes })
            }
            Request::Dprevious { vid } => Ok(Response::MaybeVersion(snap.dprevious_raw(vid)?)),
            Request::Dnext { vid } => Ok(Response::Versions(snap.dnext_raw(vid)?)),
            Request::Tprevious { vid } => Ok(Response::MaybeVersion(snap.tprevious_raw(vid)?)),
            Request::Tnext { vid } => Ok(Response::MaybeVersion(snap.tnext_raw(vid)?)),
            Request::VersionHistory { oid } => {
                Ok(Response::Versions(snap.version_history_raw(oid)?))
            }
            Request::CurrentVersion { oid } => Ok(Response::Version(snap.latest_raw(oid)?)),
            Request::Objects { tag } => Ok(Response::Objects(snap.objects_raw(tag)?)),
            Request::ObjectsPage { tag, after, limit } => Ok(Response::Objects(
                snap.objects_page_raw(tag, after, limit as usize)?,
            )),
            Request::ObjectOf { vid } => Ok(Response::Object(snap.object_of_raw(vid)?)),
            Request::VersionCount { oid } => Ok(Response::Count(snap.version_count_raw(oid)?)),
            Request::Exists { oid } => Ok(Response::Flag(snap.exists_raw(oid)?)),
            Request::VersionExists { vid } => Ok(Response::Flag(snap.version_exists_raw(vid)?)),
            Request::HistoryBetween { oid, from, to } => {
                Ok(Response::Versions(snap.history_between_raw(oid, from, to)?))
            }
            Request::DiffVersions { from, to } => {
                Ok(Response::Diff(snap.diff_versions_raw(from, to)?))
            }
            // Ping/Stats are answered at decode; writes are handled
            // below.
            _ => unreachable!("non-read request routed to snapshot"),
        };
    }

    let mut session = db.begin();
    let txn = session.raw();
    let response = match request {
        Request::Pnew { tag, body } => {
            let (oid, vid) = txn.pnew_raw(tag, body)?;
            Response::Created { oid, vid }
        }
        Request::Update { oid, tag, body } => Response::Version(txn.put_raw(oid, tag, body)?),
        Request::UpdateVersion { vid, tag, body } => {
            txn.put_version_raw(vid, tag, body)?;
            Response::Unit
        }
        Request::NewVersion { oid } => Response::Version(txn.newversion_raw(oid)?),
        Request::NewVersionFrom { vid } => Response::Version(txn.newversion_from_raw(vid)?),
        Request::Pdelete { oid } => {
            txn.pdelete_raw(oid)?;
            Response::Unit
        }
        Request::PdeleteVersion { vid } => {
            txn.pdelete_version_raw(vid)?;
            Response::Unit
        }
        Request::Merge { a, b, policy } => {
            let (vid, conflicts) = txn.merge_raw(a, b, policy)?;
            Response::Merged { vid, conflicts }
        }
        _ => unreachable!("read request routed to transaction"),
    };
    session.commit()?;
    Ok(response)
}

// ---------------------------------------------------------------------------
// Turns
// ---------------------------------------------------------------------------

/// Per-connection state, owned by whichever thread holds its turn.
struct Conn {
    wire: Wire,
    token: usize,
    /// The connection's read floor (the `ReadFloor` opcode), applied
    /// to the reads after it.
    read_floor: u64,
    /// When the read at the head of the stream began waiting for the
    /// read floor, while it waits.
    floor_since: Option<std::time::Instant>,
    /// The log stream, once the connection sent `Subscribe` (boxed: few
    /// connections subscribe, and every connection carries the field).
    sub: Option<Box<Subscription>>,
}

/// Why a connection is being torn down.
enum Close {
    /// Clean end of session (EOF with nothing left to do, handshake
    /// refusal, frame-level protocol error).
    Done,
    /// Response backlog exceeded the write-buffer cap.
    Evicted,
}

/// A running Ode network server (threads sharing one poller).
pub struct OdeServer {
    addr: SocketAddr,
    node: Arc<Node>,
    threads: Vec<JoinHandle<()>>,
}

impl OdeServer {
    /// Bind `addr` (port 0 picks a free port) and start serving `db`.
    /// A database ships its log to the subscribers of the server bound
    /// to it last.
    pub fn bind(
        db: Arc<Database>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<OdeServer> {
        let pool = Pool::bind(addr)?;
        let addr = pool.local_addr()?;
        let node = Arc::new(Node {
            db,
            stats: ServerStats::default(),
            cache: SnapshotCache::new(SNAPSHOT_CACHE_ENTRIES),
            replica: AtomicBool::new(config.replica),
            gen: fresh_gen(),
            peers: Peers::default(),
            tail: Mutex::new(None),
            floor_timeout: config.read_floor_timeout,
            write_cap: config.write_buffer_cap.max(1),
            pool,
            idle: Mutex::new(HashMap::new()),
        });
        // A commit on any path wakes a thread to ship it, while a
        // replica is subscribed.
        let weak = Arc::downgrade(&node);
        node.db.set_ship_waker(Some(Arc::new(move || {
            if let Some(node) = weak.upgrade() {
                if node.peers.count() > 0 {
                    node.pool.notify();
                }
            }
        })));
        let threads = Pool::spawn(&node, config.workers, "ode-net");
        Ok(OdeServer {
            addr,
            node,
            threads,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether this node currently refuses writes (replica role).
    pub fn is_replica(&self) -> bool {
        self.node.replica.load(Ordering::Acquire)
    }

    /// Subscribe this replica to the primary at `primary` over its
    /// data port, replacing any earlier subscription; the server owns
    /// the tail from then on, and `Promote` stops it. Refused on a
    /// primary.
    pub fn follow(&self, primary: impl Into<String>) -> io::Result<()> {
        if !self.is_replica() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a primary follows no one",
            ));
        }
        let tail = ReplicaNode::start(Arc::clone(&self.node.db), primary.into());
        if let Some(old) = self.node.tail.lock().replace(tail) {
            old.stop();
        }
        Ok(())
    }

    /// The progress of this replica's tail, while it follows a primary.
    pub fn tail_status(&self) -> Option<NodeStatus> {
        self.node.tail.lock().as_ref().map(ReplicaNode::status)
    }

    /// Replicas currently subscribed to this server.
    pub fn replica_count(&self) -> usize {
        self.node.peers.count()
    }

    /// The semi-synchronous barrier every write passes while a replica
    /// is subscribed: whether one acked applying `epoch` within
    /// `timeout` (`false` at once with none subscribed). For a commit
    /// made on the database directly.
    pub fn wait_replicated(&self, epoch: u64, timeout: std::time::Duration) -> bool {
        wait_replicated(&self.node, epoch, timeout)
    }

    /// A snapshot of the server's counters (the same data the `Stats`
    /// opcode serves remotely).
    pub fn stats(&self) -> StatsReport {
        self.node.stats.report(&self.node.cache, &self.node.db)
    }

    /// Stop accepting, close every live connection, stop a replica's
    /// tail, and join all server threads. Requests in a turn complete
    /// first (their writes commit; undeliverable responses are
    /// discarded).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let node = &*self.node;
        if !node.pool.stop(&mut self.threads) {
            return;
        }
        node.db.set_ship_waker(None);
        if let Some(tail) = node.tail.lock().take() {
            tail.stop();
        }
        // No thread is in a turn any more: every open connection is idle.
        let open: Vec<Conn> = node.idle.lock().drain().map(|(_, conn)| conn).collect();
        for conn in open {
            close(node, conn, Close::Done);
        }
    }
}

impl Drop for OdeServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for OdeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OdeServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl Service for Node {
    fn pool(&self) -> &Pool {
        &self.pool
    }

    fn accept(&self, stream: TcpStream) {
        let stats = &self.stats;
        stats.total_connections.fetch_add(1, Ordering::Relaxed);
        let token = self.pool.next_key();
        let fd = stream.as_raw_fd();
        stats.active_connections.fetch_add(1, Ordering::Relaxed);
        let conn = Conn {
            wire: Wire::new(stream, false),
            token,
            read_floor: 0,
            floor_since: None,
            sub: None,
        };
        // Among the idle before it is armed: whoever claims its first
        // event must find it there.
        self.idle.lock().insert(token, conn);
        if self.pool.add(&fd, Event::readable(token)).is_err() {
            self.idle.lock().remove(&token);
            stats.active_connections.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn claim(&self, key: usize, scratch: &mut [u8]) {
        let claimed = self.idle.lock().remove(&key);
        let Some(conn) = claimed else {
            // A subscriber's turn may be taken out of band, by a wake or
            // a barrier waiter, whose re-arm raises this event again.
            // Any other connection is armed only while it is idle, and
            // an event is delivered once per arming.
            #[cfg(test)]
            if !self.peers.keys().contains(&key) {
                tests::BUSY_CLAIMS.fetch_add(1, Ordering::Relaxed);
            }
            return;
        };
        self.take_turn(conn, scratch);
    }

    /// A commit made log shippable: give each idle subscriber a turn.
    fn wake(&self, scratch: &mut [u8]) {
        for key in self.peers.keys() {
            let claimed = self.idle.lock().remove(&key);
            if let Some(conn) = claimed {
                self.take_turn(conn, scratch);
            }
        }
    }
}

impl Node {
    /// Run a turn of a connection taken out of the idle map, then put
    /// it back and re-arm it, or close it.
    fn take_turn(&self, mut conn: Conn, scratch: &mut [u8]) {
        let interest = match turn(self, &mut conn, scratch) {
            Ok(interest) => interest,
            Err(why) => return close(self, conn, why),
        };
        let fd = conn.wire.stream.as_raw_fd();
        let key = conn.token;
        // Back among the idle before it is armed: whoever claims the
        // next event must find it there. A subscriber is armed under
        // the idle lock, for writing too while log is owed: a commit's
        // wake either finds it idle and gives it a turn, or took the
        // lock before this, and then `owed` sees that commit's log.
        let mut idle = self.idle.lock();
        let owed = conn.sub.as_ref().map(|sub| sub.owed(&self.db));
        idle.insert(key, conn);
        let armed = match owed {
            Some(owed) => {
                let interest = Event {
                    writable: interest.writable || owed,
                    ..interest
                };
                let armed = self.pool.arm(&fd, interest);
                drop(idle);
                armed
            }
            None => {
                drop(idle);
                self.pool.arm(&fd, interest)
            }
        };
        if armed.is_err() {
            if let Some(conn) = self.idle.lock().remove(&key) {
                close(self, conn, Close::Done);
            }
        }
    }
}

/// The barrier: waiters read the subscribers' acks themselves between
/// looks, so every thread may wait at once.
fn wait_replicated(node: &Node, epoch: u64, timeout: std::time::Duration) -> bool {
    node.peers.wait_replicated(epoch, timeout, || {
        node.wake(&mut [0u8; 1024]);
    })
}

/// Tear down a connection that is out of the idle map.
fn close(node: &Node, mut conn: Conn, why: Close) {
    if let Close::Evicted = why {
        node.stats
            .slow_client_evictions
            .fetch_add(1, Ordering::Relaxed);
    }
    if conn.sub.take().is_some() {
        node.peers.ack(conn.token, None, &node.db);
    }
    // Best-effort final flush: answers queued before a fatal frame
    // should still try to reach the client.
    conn.wire.close(&node.pool);
    node.stats
        .active_connections
        .fetch_sub(1, Ordering::Relaxed);
}

/// One turn of a claimed connection: read unless a frame is left over,
/// execute up to [`PIPELINE_DEPTH`] frames, flush. Returns the interest
/// to re-arm with, or why the connection is done.
fn turn(node: &Node, conn: &mut Conn, scratch: &mut [u8]) -> Result<Event, Close> {
    if !conn.wire.rbuf.has_frame() {
        conn.wire.read_ready(scratch, &node.stats.protocol_errors);
    }
    let mut tally = Tally::new();
    let executed = execute_frames(node, conn, &mut tally).and_then(|()| match &mut conn.sub {
        Some(sub) => sub
            .ship(node.gen, &node.db, &mut conn.wire.out)
            .map(|shipped| tally.bytes_out += shipped)
            .map_err(|_| Close::Done),
        None => Ok(()),
    });
    tally.publish(&node.stats);
    executed?;
    conn.wire.flush();

    // Slow-client guard: a reader this far behind its responses is
    // evicted rather than allowed to pin server memory.
    let backlog = conn.wire.out.backlog();
    if backlog > node.write_cap {
        return Err(Close::Evicted);
    }
    // Nothing left to read, execute or write: the session is over. (A
    // partial frame cut off by the EOF can never be answered.)
    if conn.wire.peer_closed && !conn.wire.rbuf.has_frame() && backlog == 0 {
        return Err(Close::Done);
    }
    Ok(conn.wire.interest(conn.token, false))
}

/// Where a read stands against its connection's read floor.
enum Floor {
    /// Applied, or the request is not gated.
    Open,
    /// Applied after this thread waited for it.
    Waited,
    /// Not applied yet, and the read may wait longer.
    Pending,
    /// Not applied within the floor timeout.
    Missed,
}

/// The replica read gate: a pinned connection's reads wait until this
/// node has applied the floor epoch, and fail `Unavailable` (never
/// answer from older state) when it stays behind past the floor
/// timeout. The wait is taken [`FLOOR_SLICE`] at a time, one slice per
/// turn, so threads held by a lagging replica's readers still serve
/// other connections, the router's health probe included, in between.
fn wait_for_floor(node: &Node, floor: u64, since: &mut Option<std::time::Instant>) -> Floor {
    if floor == 0 || node.db.wait_for_epoch(floor, std::time::Duration::ZERO) >= floor {
        *since = None;
        return Floor::Open;
    }
    let now = std::time::Instant::now();
    let left = (*since.get_or_insert(now) + node.floor_timeout).saturating_duration_since(now);
    if node.db.wait_for_epoch(floor, left.min(FLOOR_SLICE)) >= floor {
        *since = None;
        Floor::Waited
    } else if left > FLOOR_SLICE {
        Floor::Pending
    } else {
        *since = None;
        Floor::Missed
    }
}

/// Decode and execute up to [`PIPELINE_DEPTH`] buffered frames in
/// stream order, queueing each response. A frame-level protocol error
/// (hostile length prefix) poisons the stream and ends the session.
fn execute_frames(node: &Node, conn: &mut Conn, tally: &mut Tally) -> Result<(), Close> {
    // Split borrows: frame payloads stay borrowed out of `rbuf` while
    // the other connection fields are written.
    let Conn {
        wire: Wire { rbuf, out, .. },
        read_floor,
        floor_since,
        sub,
        token,
    } = conn;
    for _ in 0..PIPELINE_DEPTH {
        let payload: &[u8] = match rbuf.next_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(_) => {
                tally.protocol_errors += 1;
                return Err(Close::Done);
            }
        };
        let decoded = Request::decode(payload);
        let floor = match &decoded {
            Ok((
                _,
                Request::Ping | Request::Stats | Request::Epoch | Request::ReadFloor { .. },
            )) => Floor::Open,
            Ok((_, request)) if request.is_read() => wait_for_floor(node, *read_floor, floor_since),
            _ => Floor::Open,
        };
        if let Floor::Pending = floor {
            // The read stays buffered, first in line for a later turn.
            rbuf.unread();
            return Ok(());
        }
        tally.bytes_in += (varint::len_u64(payload.len() as u64) + payload.len()) as u64;
        let (seq, request) = match decoded {
            Ok(decoded) => decoded,
            Err(e) => {
                // The frame was well delimited, so the stream is still
                // in sync: report under the request's sequence id (or 0
                // when even that is unreadable) and keep the session
                // alive.
                tally.protocol_errors += 1;
                let seq = Request::decode_seq(payload).unwrap_or(0);
                let refusal = Response::Err(RemoteError::BadRequest(e.to_string()));
                tally.bytes_out += out.queue(&refusal.encode(seq));
                continue;
            }
        };
        tally.requests[request.opcode() as usize] += 1;
        let waited = match (request, floor) {
            (request @ (Request::Subscribe { .. } | Request::Ack { .. }), _) => {
                replicate(node, sub, *token, seq, request, out, tally);
                false
            }
            (request, _) if sub.is_some() => {
                replicate(node, sub, *token, seq, request, out, tally);
                false
            }
            // Set here, in stream order: every read after this frame
            // sees the new floor, exactly the read-your-writes contract
            // the router relies on.
            (Request::ReadFloor { epoch }, _) => {
                *read_floor = epoch;
                tally.answer(out, seq, &Response::Unit);
                false
            }
            (_, Floor::Missed) => {
                let refusal = RemoteError::Unavailable(format!(
                    "node at epoch {} has not applied read floor {}",
                    node.db.snapshot_epoch(),
                    *read_floor
                ));
                tally.answer(out, seq, &Response::Err(refusal));
                true
            }
            (request, floor) => {
                // The sequence id as sent, so the operation bytes are
                // exact even for a non-canonical varint.
                let (_, op_bytes) = split_seq(payload).expect("a decoded payload has a seq");
                let barrier = execute(node, seq, request, op_bytes, out, tally);
                barrier || matches!(floor, Floor::Waited)
            }
        };
        // A thread just back from a replication wait serves the
        // longest-waiting connection before this one's next request.
        if waited {
            break;
        }
    }
    Ok(())
}

/// Answer a frame of a replica's subscription: `Subscribe` attaches
/// the connection (its stream follows from its turns), `Ack` records
/// the subscriber's progress; neither gets a response. A subscribed
/// connection sends nothing else.
fn replicate(
    node: &Node,
    sub: &mut Option<Box<Subscription>>,
    key: usize,
    seq: u64,
    request: Request,
    out: &mut Outbox,
    tally: &mut Tally,
) {
    let refusal = match (request, sub.is_some()) {
        (Request::Ack { epoch, .. }, true) => {
            node.peers.ack(key, Some(epoch), &node.db);
            return;
        }
        (_, true) => RemoteError::BadRequest("a subscribed connection sends only acks".into()),
        (Request::Subscribe { .. }, _) if node.replica.load(Ordering::Acquire) => {
            RemoteError::Unavailable("a replica ships no log".into())
        }
        (
            Request::Subscribe {
                gen,
                have_pos,
                have_epoch,
            },
            _,
        ) => {
            let (started, written) = Subscription::start(
                &node.peers,
                &node.db,
                (key, node.gen, seq),
                (gen, have_pos, have_epoch),
                out,
            );
            *sub = Some(Box::new(started));
            tally.bytes_out += written;
            return;
        }
        _ => RemoteError::BadRequest("an ack without a subscription".into()),
    };
    tally.answer(out, seq, &Response::Err(refusal));
}

#[cfg(test)]
mod tests {
    //! The server against its model. A connection's requests,
    //! pipelined in one burst through a [`FaultRelay`] that re-chunks
    //! the byte stream, must be answered exactly as the same requests
    //! applied one by one, in stream order, to an identically seeded
    //! in-process [`Database`]: byte-identical frames, arriving in
    //! stream order. Both databases assign oids and vids from the same
    //! deterministic counters. The model shares no code with the server
    //! but [`apply`] and never consults the snapshot cache, so a stale
    //! cache hit is a divergence. Several connections played at once,
    //! each on ids seeded for it alone, must each match their own
    //! in-order model, at one server thread and at four.

    use std::collections::BTreeSet;
    use std::io::{BufReader, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    use ode::{DatabaseOptions, MergePolicy, Oid, TypeTag, Vid};
    use ode_storage::testutil::TempPath;
    use proptest::prelude::*;
    use rand::SeedableRng;

    use std::thread;

    use super::*;
    use crate::protocol::{read_frame_into, write_frame, Opcode, MAGIC};
    use crate::relay::{FaultRelay, RelayPlan};

    /// The tag every test object carries; nothing in the differential
    /// run decodes bodies, so raw bytes under one tag exercise
    /// everything.
    const TAG: TypeTag = TypeTag(0xD1FF);

    /// Opcodes the differential leaves out: `Stats` (counters are the
    /// server's own), `Epoch`/`ReadFloor` (commit batching may group
    /// epochs differently), `Promote` (replica role only), `ClaimIds`
    /// (a router's, covered by the router battery) and `Subscribe`/`Ack`
    /// (a replica's stream, covered by the replication battery).
    const NOT_MODELLED: [Opcode; 7] = [
        Opcode::Stats,
        Opcode::Epoch,
        Opcode::ReadFloor,
        Opcode::Promote,
        Opcode::ClaimIds,
        Opcode::Subscribe,
        Opcode::Ack,
    ];

    // Ids are drawn from a tiny space so later ops hit objects earlier
    // ops created — and miss, for the error paths.
    fn arb_oid() -> impl Strategy<Value = Oid> {
        (0u64..8).prop_map(Oid)
    }

    fn arb_vid() -> impl Strategy<Value = Vid> {
        (0u64..12).prop_map(Vid)
    }

    fn arb_body() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..48)
    }

    fn arb_policy() -> impl Strategy<Value = MergePolicy> {
        prop_oneof![
            Just(MergePolicy::Fail),
            Just(MergePolicy::Ours),
            Just(MergePolicy::Theirs),
        ]
    }

    /// Every opcode whose response is fully determined by the op
    /// sequence (all but [`NOT_MODELLED`]).
    fn arb_op() -> BoxedStrategy<Request> {
        prop_oneof![
            Just(Request::Ping),
            arb_body().prop_map(|body| Request::Pnew { tag: TAG, body }),
            arb_oid().prop_map(|oid| Request::Deref { oid, tag: TAG }),
            arb_vid().prop_map(|vid| Request::DerefVersion { vid, tag: TAG }),
            (arb_oid(), arb_body()).prop_map(|(oid, body)| Request::Update {
                oid,
                tag: TAG,
                body
            }),
            (arb_vid(), arb_body()).prop_map(|(vid, body)| Request::UpdateVersion {
                vid,
                tag: TAG,
                body
            }),
            arb_oid().prop_map(|oid| Request::NewVersion { oid }),
            arb_vid().prop_map(|vid| Request::NewVersionFrom { vid }),
            arb_oid().prop_map(|oid| Request::Pdelete { oid }),
            arb_vid().prop_map(|vid| Request::PdeleteVersion { vid }),
            arb_vid().prop_map(|vid| Request::Dprevious { vid }),
            arb_vid().prop_map(|vid| Request::Dnext { vid }),
            arb_vid().prop_map(|vid| Request::Tprevious { vid }),
            arb_vid().prop_map(|vid| Request::Tnext { vid }),
            arb_oid().prop_map(|oid| Request::VersionHistory { oid }),
            arb_oid().prop_map(|oid| Request::CurrentVersion { oid }),
            Just(Request::Objects { tag: TAG }),
            (arb_oid(), 0u64..6).prop_map(|(after, limit)| Request::ObjectsPage {
                tag: TAG,
                after,
                limit
            }),
            arb_vid().prop_map(|vid| Request::ObjectOf { vid }),
            arb_oid().prop_map(|oid| Request::VersionCount { oid }),
            arb_oid().prop_map(|oid| Request::Exists { oid }),
            arb_vid().prop_map(|vid| Request::VersionExists { vid }),
            // Stamps are creation order, the same small space as vids.
            (arb_oid(), 0u64..12, 0u64..12)
                .prop_map(|(oid, from, to)| { Request::HistoryBetween { oid, from, to } }),
            (arb_vid(), arb_vid()).prop_map(|(from, to)| Request::DiffVersions { from, to }),
            (arb_vid(), arb_vid(), arb_policy()).prop_map(|(a, b, policy)| Request::Merge {
                a,
                b,
                policy
            }),
        ]
        .boxed()
    }

    /// Handshake, fire every request frame in one pipelined burst, then
    /// collect exactly one response frame per request, which must
    /// arrive in stream order.
    fn play(addr: SocketAddr, ops: &[Request]) -> Vec<(u64, Vec<u8>)> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone");
        writer.write_all(&MAGIC).expect("send magic");
        let mut reader = BufReader::new(stream);
        let mut echo = [0u8; 4];
        reader.read_exact(&mut echo).expect("handshake echo");
        assert_eq!(echo, MAGIC);

        let mut burst = Vec::new();
        for (op, seq) in ops.iter().zip(1u64..) {
            write_frame(&mut burst, &op.encode(seq)).expect("frame");
        }
        writer.write_all(&burst).expect("send burst");
        writer.flush().expect("flush");

        let mut got: Vec<(u64, Vec<u8>)> = Vec::with_capacity(ops.len());
        let mut payload = Vec::new();
        while got.len() < ops.len() {
            assert!(
                read_frame_into(&mut reader, &mut payload).expect("response frame"),
                "server closed before answering every request"
            );
            let seq = Response::decode_seq(&payload).expect("response seq");
            assert_eq!(seq, got.len() as u64 + 1, "responses out of stream order");
            got.push((seq, payload.clone()));
        }
        got
    }

    /// The model: each request applied to `db` in stream order, an
    /// error mapped to its frame the way [`execute`] maps it.
    fn in_order(db: &Database, ops: &[Request]) -> Vec<(u64, Vec<u8>)> {
        ops.iter()
            .zip(1u64..)
            .map(|(op, seq)| {
                let response = match op {
                    Request::Ping => Response::Pong,
                    op => apply(db, op.clone())
                        .unwrap_or_else(|e| Response::Err(RemoteError::from(&e))),
                };
                (seq, response.encode(seq))
            })
            .collect()
    }

    /// Play `ops` against a 2-worker [`OdeServer`] through a relay that
    /// re-chunks every hop at `chunk` bytes, assert every response
    /// frame equals the model's, and return the model's frames.
    fn run_differential(ops: &[Request], chunk: usize) -> Vec<(u64, Vec<u8>)> {
        let event_path = TempPath::new();
        let model_path = TempPath::new();
        let event_db =
            Arc::new(Database::create(&event_path, DatabaseOptions::no_sync()).expect("event db"));
        let model_db = Database::create(&model_path, DatabaseOptions::no_sync()).expect("model db");
        let config = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let server = OdeServer::bind(event_db, "127.0.0.1:0", config).expect("server");
        let plan = RelayPlan {
            chunk,
            ..RelayPlan::clean()
        };
        let relay = FaultRelay::start(server.local_addr(), vec![plan, plan]).expect("relay");

        let got = play(relay.local_addr(), ops);
        relay.shutdown();
        server.shutdown();
        let want = in_order(&model_db, ops);

        assert_matches_model(ops, &got, &want);
        want
    }

    fn assert_matches_model(ops: &[Request], got: &[(u64, Vec<u8>)], want: &[(u64, Vec<u8>)]) {
        assert_eq!(got.len(), want.len());
        for ((gseq, gbytes), (wseq, wbytes)) in got.iter().zip(want.iter()) {
            assert_eq!(gseq, wseq);
            assert_eq!(
                gbytes,
                wbytes,
                "response for seq {gseq} diverged from in-order execution (op: {:?})",
                ops[*gseq as usize - 1]
            );
        }
    }

    /// Events claimed for a connection another thread held in a turn,
    /// across every server in this test binary.
    pub(super) static BUSY_CLAIMS: AtomicU64 = AtomicU64::new(0);

    /// Connections the concurrent differential plays at once.
    const CONNS: usize = 3;

    /// The ids seeded for one connection of the concurrent differential
    /// (plus one of each kind that never exists), so its answers depend
    /// on its own requests alone.
    struct Pool {
        oids: Vec<Oid>,
        vids: Vec<Vid>,
    }

    /// Seed [`CONNS`] disjoint pools into `db` — the same ids on every
    /// database seeded this way: per pool, an object with a derived
    /// chain and a branch, and a second object.
    fn seed_pools(db: &Database) -> Vec<Pool> {
        let run = |request| apply(db, request).expect("seed request");
        (0..CONNS)
            .map(|i| {
                let body = |text: &str| format!("pool {i} {text}").into_bytes();
                let Response::Created { oid: a, vid: a1 } = run(Request::Pnew {
                    tag: TAG,
                    body: body("first"),
                }) else {
                    unreachable!("pnew answers Created")
                };
                let Response::Version(a2) = run(Request::NewVersion { oid: a }) else {
                    unreachable!("newversion answers Version")
                };
                run(Request::Update {
                    oid: a,
                    tag: TAG,
                    body: body("second"),
                });
                let Response::Version(a3) = run(Request::NewVersionFrom { vid: a1 }) else {
                    unreachable!("newversion_from answers Version")
                };
                let Response::Created { oid: b, vid: b1 } = run(Request::Pnew {
                    tag: TAG,
                    body: body("other"),
                }) else {
                    unreachable!("pnew answers Created")
                };
                let never = 1000 + i as u64;
                Pool {
                    oids: vec![a, b, Oid(never)],
                    vids: vec![a1, a2, a3, b1, Vid(never)],
                }
            })
            .collect()
    }

    /// One op of the concurrent differential: a row, numbers for its
    /// fields, and a body.
    type PoolOp = (Opcode, Vec<u64>, Vec<u8>);

    /// The rows whose answers depend on one connection's objects alone:
    /// `Ping` and every keyed row that allocates no id.
    fn arb_pool_op() -> impl Strategy<Value = PoolOp> {
        let rows: Vec<Opcode> = Opcode::ALL
            .into_iter()
            .filter(|op| op.routing() == crate::protocol::Routing::Keyed)
            .filter(|op| ![Opcode::NewVersion, Opcode::NewVersionFrom, Opcode::Merge].contains(op))
            .chain([Opcode::Ping])
            .collect();
        let words = proptest::collection::vec(0u64..12, 3);
        (0..rows.len(), words, arb_body())
            .prop_map(move |(row, words, body)| (rows[row], words, body))
    }

    /// The request of `op`'s row with every id an index into the pool's
    /// ids of its kind, every tag [`TAG`], and stamps as drawn (they
    /// are creation order, the same small space as vids).
    fn in_pool((op, words, body): &PoolOp, pool: &Pool) -> Request {
        let mut words = words.iter().cycle().map(|&w| w as usize);
        let mut word = |kind| {
            let w = words.next().expect("cycled");
            match kind {
                "oid" => pool.oids[w % pool.oids.len()].0,
                "vid" => pool.vids[w % pool.vids.len()].0,
                "tag" => TAG.0,
                _ => w as u64,
            }
        };
        Request::sample(*op, &mut word, body)
    }

    /// Play one pipelined stream per pool on [`CONNS`] connections at
    /// once against a `workers`-thread server, through relays that
    /// re-chunk each connection differently, and hold each connection's
    /// answers to its own in-order model.
    fn run_concurrent_differential(streams: &[Vec<PoolOp>], workers: usize) {
        let server_path = TempPath::new();
        let server_db = Arc::new(
            Database::create(&server_path, DatabaseOptions::no_sync()).expect("server db"),
        );
        let pools = seed_pools(&server_db);
        let streams: Vec<Vec<Request>> = streams
            .iter()
            .zip(&pools)
            .map(|(ops, pool)| ops.iter().map(|op| in_pool(op, pool)).collect())
            .collect();
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = OdeServer::bind(server_db, "127.0.0.1:0", config).expect("server");
        let plans = [1, 5, usize::MAX].map(|chunk| RelayPlan {
            chunk,
            ..RelayPlan::clean()
        });
        let relay = FaultRelay::start(server.local_addr(), plans.to_vec()).expect("relay");
        let addr = relay.local_addr();
        let players: Vec<_> = streams
            .iter()
            .cloned()
            .map(|ops| thread::spawn(move || play(addr, &ops)))
            .collect();
        let got: Vec<Vec<(u64, Vec<u8>)>> = players
            .into_iter()
            .map(|p| p.join().expect("player"))
            .collect();
        relay.shutdown();
        server.shutdown();

        for (ops, got) in streams.iter().zip(&got) {
            let model_path = TempPath::new();
            let model_db =
                Database::create(&model_path, DatabaseOptions::no_sync()).expect("model db");
            seed_pools(&model_db);
            assert_matches_model(ops, got, &in_order(&model_db, ops));
        }
        assert_eq!(
            BUSY_CLAIMS.load(Ordering::Relaxed),
            0,
            "a connection was claimed while in another thread's turn"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 24,
            ..ProptestConfig::default()
        })]

        /// Any pipelined op sequence, shredded at any byte granularity,
        /// answers byte-for-byte like the same ops run in order.
        #[test]
        fn event_loop_server_matches_in_order_oracle(
            ops in proptest::collection::vec(arb_op(), 1..24),
            chunk in prop_oneof![Just(1usize), 2usize..64, Just(usize::MAX)],
        ) {
            run_differential(&ops, chunk);
        }

        /// Several connections at once, each on its own ids: every one
        /// is answered like its own stream run in order, whether one
        /// thread serves them all or four share the poller.
        #[test]
        fn concurrent_connections_each_match_their_in_order_model(
            streams in proptest::collection::vec(
                proptest::collection::vec(arb_pool_op(), 1..40),
                CONNS,
            ),
        ) {
            for workers in [1, 4] {
                run_concurrent_differential(&streams, workers);
            }
        }
    }

    /// A new opcode cannot stay out of the differential unnoticed:
    /// `arb_op` draws every opcode but the ones it is documented to
    /// leave out.
    #[test]
    fn differential_covers_every_modelled_opcode() {
        let strategy = arb_op();
        let mut rng = proptest::TestRng::seed_from_u64(26);
        let seen: BTreeSet<Opcode> = (0..4096)
            .map(|_| strategy.generate(&mut rng).opcode())
            .collect();
        let want: BTreeSet<Opcode> = Opcode::ALL
            .into_iter()
            .filter(|op| !NOT_MODELLED.contains(op))
            .collect();
        assert_eq!(seen, want);
    }

    /// How long a health probe on a fresh connection takes to be
    /// answered (accept, handshake, `Epoch`) while two connections each
    /// pipeline `ops` behind `prefix` to `server` and every one of its
    /// threads blocks on them; and those two connections.
    fn probe_behind_pipelines(
        server: &OdeServer,
        prefix: &[Request],
        ops: &[Request],
    ) -> (Duration, Vec<TcpStream>) {
        let connections: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
                let mut burst = MAGIC.to_vec();
                for (seq, request) in (1..).zip(prefix.iter().chain(ops)) {
                    write_frame(&mut burst, &request.encode(seq)).expect("frame");
                }
                stream.write_all(&burst).expect("send burst");
                stream
            })
            .collect();
        thread::sleep(Duration::from_millis(150));

        let started = std::time::Instant::now();
        let config = crate::ClientConfig {
            read_timeout: Some(Duration::from_secs(10)),
            ..crate::ClientConfig::default()
        };
        let mut probe = crate::OdeClient::connect(server.local_addr(), config).expect("probe");
        probe.epoch().expect("epoch");
        (started.elapsed(), connections)
    }

    /// A write that waited at the replication barrier ends its turn, so
    /// a health probe is answered within about one barrier wait per
    /// step while every thread sits in the barrier on a long pipeline
    /// of writes — not after those pipelines drain (16 waits each).
    #[test]
    fn a_probe_is_answered_while_every_thread_sits_in_the_barrier() {
        const BARRIER: Duration = SEMI_SYNC_WAIT;
        let path = TempPath::new();
        let db = Arc::new(Database::create(&path, DatabaseOptions::no_sync()).expect("db"));
        let config = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let server = OdeServer::bind(db, "127.0.0.1:0", config).expect("server");
        // A subscriber that never acks: every write waits out the
        // barrier.
        let mut silent = TcpStream::connect(server.local_addr()).expect("subscriber");
        let mut burst = MAGIC.to_vec();
        let subscribe = Request::Subscribe {
            gen: 0,
            have_pos: u64::MAX,
            have_epoch: 0,
        };
        write_frame(&mut burst, &subscribe.encode(1)).expect("frame");
        silent.write_all(&burst).expect("subscribe");
        while server.replica_count() == 0 {
            thread::sleep(Duration::from_millis(5));
        }
        let pnew = Request::Pnew {
            tag: TAG,
            body: vec![7; 16],
        };
        let (waited, _writers) = probe_behind_pipelines(&server, &[], &vec![pnew; 16]);
        assert!(
            waited < 5 * BARRIER,
            "the probe waited {waited:?} behind the writers' pipelines"
        );
        server.shutdown();
    }

    /// A read waits for its connection's read floor one short slice
    /// per turn: on a replica that never reaches the floor, with every
    /// thread holding pinned readers, the probe is still answered
    /// within the router's one-second probe timeout, and each read is
    /// refused only once the whole floor timeout has passed.
    #[test]
    fn a_probe_is_answered_while_every_thread_waits_for_a_read_floor() {
        const FLOOR_WAIT: Duration = Duration::from_secs(2);
        let path = TempPath::new();
        let db = Arc::new(Database::create(&path, DatabaseOptions::no_sync()).expect("db"));
        let config = ServerConfig {
            workers: 2,
            replica: true,
            read_floor_timeout: FLOOR_WAIT,
            ..ServerConfig::default()
        };
        let server = OdeServer::bind(db, "127.0.0.1:0", config).expect("server");
        let started = std::time::Instant::now();
        let floor = Request::ReadFloor { epoch: 1 << 20 };
        let deref = Request::Deref {
            oid: Oid(1),
            tag: TAG,
        };
        let (waited, pinned) = probe_behind_pipelines(&server, &[floor], &vec![deref; 16]);
        assert!(
            waited < Duration::from_secs(1),
            "the probe waited {waited:?} behind the pinned readers' pipelines"
        );

        let mut reader = BufReader::new(pinned.into_iter().next().expect("pinned"));
        let mut magic = [0; 4];
        reader.read_exact(&mut magic).expect("handshake");
        let mut payload = Vec::new();
        let mut next = |payload: &mut Vec<u8>| {
            read_frame_into(&mut reader, payload).expect("response frame");
            Response::decode(payload).expect("response").1
        };
        assert_eq!(next(&mut payload), Response::Unit);
        assert!(
            matches!(
                next(&mut payload),
                Response::Err(RemoteError::Unavailable(_))
            ),
            "a read below its floor was answered"
        );
        assert!(
            started.elapsed() >= FLOOR_WAIT,
            "the read was refused after {:?}, inside its floor timeout",
            started.elapsed()
        );
        server.shutdown();
    }

    /// Reads of one object around each kind of write, pipelined behind
    /// them: the second and third `Deref` carry the first one's cache
    /// key, so a snapshot-cache hit across a commit answers with the
    /// old body and fails here on every run.
    #[test]
    fn reads_after_writes_are_never_served_stale() {
        let (oid, vid) = (Oid(1), Vid(1));
        let ops = [
            Request::Pnew {
                tag: TAG,
                body: b"first".to_vec(),
            },
            Request::Deref { oid, tag: TAG },
            Request::Update {
                oid,
                tag: TAG,
                body: b"second".to_vec(),
            },
            Request::Deref { oid, tag: TAG },
            Request::NewVersion { oid },
            Request::Deref { oid, tag: TAG },
            Request::DerefVersion { vid, tag: TAG },
        ];
        for chunk in [1, 7, usize::MAX] {
            let frames = run_differential(&ops, chunk);
            // The ids above are the ones a fresh database hands out.
            assert_eq!(frames[0].1, Response::Created { oid, vid }.encode(1));
        }
    }
}
