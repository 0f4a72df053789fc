//! The Ode TCP server.
//!
//! [`OdeServer`] wraps an [`Arc<Database>`] and serves the wire
//! protocol over a **readiness event loop**: one thread runs an epoll
//! poller (the vendored [`polling`] crate) over a nonblocking listener
//! and every connection's nonblocking socket, so connection count is
//! decoupled from thread count — 10k idle sessions cost 10k fds and
//! some buffers, not 10k stacks. Request *execution* stays on a small
//! worker pool ([`ServerConfig::workers`]), preserving the storage
//! engine's multi-core parallelism: only connection I/O moved off
//! dedicated threads.
//!
//! Each connection is a small state machine driven by readiness:
//!
//! - **reading-frame** — readable bytes are pulled into an incremental
//!   [`FrameBuffer`] (partial reads leave a partial frame buffered);
//!   each complete frame is decoded on the loop. `Ping`, `Stats`,
//!   `Epoch`, `ReadFloor`, and snapshot-cache hits are answered right
//!   there, ahead of queued work; everything else becomes a job in the
//!   connection's bounded inbox (the decode-ahead queue, 64 requests
//!   deep). A full inbox drops the connection's read interest —
//!   backpressure is "stop reading", and the kernel's receive window
//!   does the rest.
//! - **executing** — at most one job batch per connection is in flight
//!   on the worker pool at a time, so one connection's requests
//!   execute in decode order (pipelining stays per-connection FIFO at
//!   the store) while different connections execute in parallel.
//!   Completed responses come back to the loop over a queue + poller
//!   wake and may interleave arbitrarily across connections — the v2
//!   sequence ids make out-of-order completion safe.
//! - **writing-response** — response frames append to a per-connection
//!   write buffer flushed as far as the socket allows (partial writes
//!   keep a cursor). A non-empty buffer arms write interest; a reader
//!   slower than its responses accumulates backlog until
//!   [`ServerConfig::write_buffer_cap`], at which point the connection
//!   is evicted (counted in `Stats` as `slow_client_evictions`) rather
//!   than allowed to pin server memory.
//!
//! Read requests run on [`Database::snapshot`]s; write requests each
//! run in their own [`Database::begin`] transaction committed before
//! the response frame is sent (a successful reply means the change is
//! durable to the WAL).
//!
//! Successful read responses are cached in an [`EpochCache`] keyed by
//! the request's *operation bytes* (the payload after the sequence id
//! varint, so every connection shares one map) and holding the encoded
//! response the same way: a hit prefixes the caller's sequence id onto
//! wire-ready bytes — no snapshot, no store lock, no re-encode, no body
//! copy. The cache fast path is gated on the connection having no write
//! in flight, which preserves read-your-writes per connection;
//! cross-connection consistency is commit-granular via the database's
//! [snapshot epoch](Database::snapshot_epoch), which [`ode::Txn`]'s
//! commit bumps before it returns.
//!
//! None of this may change what a connection is answered: the tests
//! below play pipelined request streams, split at arbitrary byte
//! boundaries, and compare every response frame with the one
//! [`apply`] gives for the same request run in stream order on an
//! identically seeded in-process [`Database`].
//!
//! Shutdown is graceful and prompt: the loop is woken, every live
//! socket is shut down, queued jobs finish on the workers (writes
//! commit), and all threads are joined.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use ode::{Database, EpochCache};
use polling::{Event, Poller};

use crate::error::RemoteError;
use crate::protocol::{
    request_counts, write_frame, DiffSummary, FrameBuffer, Request, Response, StatsReport,
    StorageCounters, MAGIC, OPCODE_COUNT,
};

/// Per-connection decode-ahead depth: how many decoded requests may
/// wait in a connection's inbox before the loop stops reading its
/// socket (backpressure).
const PIPELINE_DEPTH: usize = 64;

/// Snapshot-cache capacity in responses per epoch.
const SNAPSHOT_CACHE_ENTRIES: usize = 4096;

/// Request operation bytes → encoded response, both without their
/// sequence id varint.
type SnapshotCache = EpochCache<Vec<u8>, Arc<[u8]>>;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests — the storage-layer
    /// parallelism cap. Connection count is independent of this.
    pub workers: usize,
    /// Start in replica mode: writes are refused with `Unavailable`
    /// until a `Promote` request flips the node to primary.
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
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(4, 16);
        ServerConfig {
            workers,
            replica: false,
            read_floor_timeout: std::time::Duration::from_secs(5),
            write_buffer_cap: 64 << 20,
        }
    }
}

/// Replication wiring, injected by whatever owns the node's shipping
/// role (the cluster harness, or a standalone deployment script). The
/// server itself stays ignorant of the replication transport.
#[derive(Clone, Default)]
pub struct ServerHooks {
    /// Called after every committed write with the database's commit
    /// epoch: a primary's semi-synchronous barrier (block until a
    /// replica acked the epoch). The response frame is not sent until
    /// this returns.
    pub commit_wait: Option<Arc<dyn Fn(u64) + Send + Sync>>,
    /// Called when a `Promote` request arrives on a replica, *instead
    /// of* the default `Database::promote_to_primary` — so the owner
    /// can also stop its tailing `ReplicaNode`, start a hub, etc.
    /// Returning `Err` keeps the node a replica.
    pub promote: Option<Arc<dyn Fn() -> std::result::Result<(), String> + Send + Sync>>,
}

impl std::fmt::Debug for ServerHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHooks")
            .field("commit_wait", &self.commit_wait.is_some())
            .field("promote", &self.promote.is_some())
            .finish()
    }
}

/// Lifetime counters, all monotone except `active_connections`.
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
        let storage = db.storage_stats();
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
            storage: StorageCounters {
                read_txs: storage.read_txs,
                write_txs: storage.write_txs,
                reader_waits: storage.reader_waits,
                reader_wait_nanos: storage.reader_wait_nanos,
                writer_waits: storage.writer_waits,
                writer_wait_nanos: storage.writer_wait_nanos,
                wal_syncs: storage.wal_syncs,
                group_syncs: storage.group_syncs,
                group_commit_txns: storage.group_commit_txns,
                group_batch_max: storage.group_batch_max,
                bytes_shipped: storage.bytes_shipped,
                replica_lag_epochs: storage.replica_lag_epochs,
                failovers: storage.failovers,
                write_conflicts: storage.write_conflicts,
                write_retries: storage.write_retries,
            },
        }
    }
}

/// Everything a connection needs about the node it runs on, shared by
/// the loop and all workers: the database, counters, cache, and the
/// node's replication role.
struct NodeCtx {
    db: Arc<Database>,
    stats: Arc<ServerStats>,
    cache: Arc<SnapshotCache>,
    /// `true` while this node is a replica (writes refused). Flipped to
    /// `false` by a successful `Promote`.
    replica: AtomicBool,
    hooks: ServerHooks,
    floor_timeout: std::time::Duration,
}

impl NodeCtx {
    fn new(db: Arc<Database>, config: &ServerConfig, hooks: ServerHooks) -> NodeCtx {
        NodeCtx {
            db,
            stats: Arc::new(ServerStats::default()),
            cache: Arc::new(SnapshotCache::new(SNAPSHOT_CACHE_ENTRIES)),
            replica: AtomicBool::new(config.replica),
            hooks,
            floor_timeout: config.read_floor_timeout,
        }
    }
}

/// Length in bytes of the sequence-id varint a frame payload starts
/// with — the *actual* length off the wire, so the operation bytes
/// after it are exact even for non-canonical encodings.
fn seq_prefix_len(payload: &[u8]) -> usize {
    payload.iter().take_while(|b| **b & 0x80 != 0).count() + 1
}

fn frame_prefix_len(payload_len: usize) -> u64 {
    let mut buf = Vec::with_capacity(10);
    ode_codec::varint::write_u64(&mut buf, payload_len as u64);
    buf.len() as u64
}

/// One decoded request waiting for (or in flight on) the worker pool.
struct Job {
    seq: u64,
    request: Request,
    /// Cache key (the request's operation bytes, i.e. the payload
    /// after its sequence varint) — `Some` for reads.
    key: Option<Vec<u8>>,
    /// Whether the decode path already consulted the cache and missed;
    /// execution then skips its own lookup so each request counts one
    /// hit or one miss, never both.
    looked_up: bool,
    /// The connection's read floor when this request was decoded —
    /// stream-order semantics for the `ReadFloor` opcode.
    floor: u64,
}

/// Execute one job to a wire-ready encoded response. The second return
/// is whether the job was a write (the caller clears its
/// read-your-writes gate only after the commit happened here).
fn execute_job(ctx: &NodeCtx, job: Job) -> (Vec<u8>, bool) {
    let (db, stats, cache) = (&*ctx.db, &*ctx.stats, &*ctx.cache);
    let is_write = job.key.is_none();
    let out: Vec<u8> = match job.key {
        Some(key) => {
            // Replica read gate: a pinned connection's reads wait until
            // this node has applied the floor epoch, and fail
            // `Unavailable` (never answer from older state) when it
            // stays behind past the timeout.
            let floor = job.floor;
            if floor > 0 && db.wait_for_epoch(floor, ctx.floor_timeout) < floor {
                stats.op_errors.fetch_add(1, Ordering::Relaxed);
                Response::Err(RemoteError::Unavailable(format!(
                    "node at epoch {} has not applied read floor {floor}",
                    db.snapshot_epoch()
                )))
                .encode(job.seq)
            } else {
                // Sampled before the snapshot opens: a commit landing
                // in between tags the fill with an already-stale epoch
                // (a wasted entry, never a stale hit).
                let epoch = db.snapshot_epoch();
                let cached = if job.looked_up {
                    None
                } else {
                    cache.get(epoch, &key)
                };
                match cached {
                    Some(cached) => {
                        let mut out = Vec::with_capacity(10 + cached.len());
                        ode_codec::varint::write_u64(&mut out, job.seq);
                        out.extend_from_slice(&cached);
                        out
                    }
                    None => match apply(db, job.request) {
                        Ok(response) => {
                            let out = response.encode(job.seq);
                            cache.insert(epoch, key, Arc::from(&out[seq_prefix_len(&out)..]));
                            out
                        }
                        Err(e) => {
                            stats.op_errors.fetch_add(1, Ordering::Relaxed);
                            Response::Err(RemoteError::from(&e)).encode(job.seq)
                        }
                    },
                }
            }
        }
        None if matches!(job.request, Request::Promote) => {
            // Driven failover. Idempotent: promoting a primary is a
            // no-op success.
            let result = if !ctx.replica.load(Ordering::Acquire) {
                Ok(())
            } else {
                match &ctx.hooks.promote {
                    Some(hook) => hook(),
                    None => ctx.db.promote_to_primary().map_err(|e| e.to_string()),
                }
            };
            match result {
                Ok(()) => {
                    ctx.replica.store(false, Ordering::Release);
                    Response::Unit.encode(job.seq)
                }
                Err(msg) => {
                    stats.op_errors.fetch_add(1, Ordering::Relaxed);
                    Response::Err(RemoteError::Storage(msg)).encode(job.seq)
                }
            }
        }
        None if ctx.replica.load(Ordering::Acquire) => {
            // Replicas are read-only; the router never routes writes
            // here, so this is a client targeting the wrong node (or a
            // promotion race) — strictly not retryable on this
            // connection.
            stats.op_errors.fetch_add(1, Ordering::Relaxed);
            Response::Err(RemoteError::Unavailable(
                "replica is read-only (writes go to the primary)".into(),
            ))
            .encode(job.seq)
        }
        None => apply(db, job.request)
            .inspect(|_| {
                // Semi-synchronous barrier: hold the response until a
                // replica acked this commit's epoch.
                if let Some(wait) = &ctx.hooks.commit_wait {
                    wait(db.snapshot_epoch());
                }
            })
            .unwrap_or_else(|e| {
                stats.op_errors.fetch_add(1, Ordering::Relaxed);
                Response::Err(RemoteError::from(&e))
            })
            .encode(job.seq),
    };
    (out, is_write)
}

/// Execute one operation. Reads run on a snapshot; writes run in a
/// transaction committed before returning, so the response implies
/// durability.
fn apply(db: &Database, request: Request) -> ode::Result<Response> {
    if request.is_read() {
        let mut snap = db.snapshot();
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
                let d = snap.diff_versions_raw(from, to)?;
                Ok(Response::Diff(DiffSummary {
                    from: d.from,
                    to: d.to,
                    to_len: d.to_len,
                    ops: d.ops,
                    literal_bytes: d.literal_bytes,
                    encoded_bytes: d.encoded_bytes,
                    stored: d.stored,
                }))
            }
            // Ping/Stats are answered at decode; writes are handled
            // below.
            _ => unreachable!("non-read request routed to snapshot"),
        };
    }

    let mut txn = db.begin();
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
    txn.commit()?;
    Ok(response)
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// The listener's poller key; connection tokens start above it.
const LISTENER_KEY: usize = 0;

/// One connection's batch of decoded jobs headed for the worker pool.
struct Batch {
    token: usize,
    jobs: Vec<Job>,
}

/// What a worker sends back to the loop.
enum Completion {
    /// One job's encoded response frame payload.
    Response {
        token: usize,
        out: Vec<u8>,
        is_write: bool,
    },
    /// The batch finished; the connection may dispatch its next one.
    BatchDone { token: usize },
}

/// Worker→loop completion queue. Workers push and wake the poller; the
/// loop drains on every wakeup.
struct Completions {
    queue: Mutex<VecDeque<Completion>>,
    poller: Arc<Poller>,
}

impl Completions {
    fn push(&self, c: Completion) {
        self.queue.lock().unwrap().push_back(c);
        let _ = self.poller.notify();
    }
}

/// Per-connection state machine. The `state` a connection is in is
/// encoded by its buffers and flags: bytes pending in `rbuf` =
/// reading-frame, `dispatched` = executing, bytes pending in `wbuf` =
/// writing-response; all three can hold at once (that is what
/// pipelining means).
struct Conn {
    stream: TcpStream,
    token: usize,
    /// Handshake progress: how many magic bytes have been read
    /// (sessions start in the handshake state, `got < 4`).
    magic_got: usize,
    /// Partial-read buffer: accumulates socket bytes, yields frames.
    rbuf: FrameBuffer,
    /// Decoded jobs not yet dispatched to the workers.
    inbox: VecDeque<Job>,
    /// A batch is executing on the worker pool (at most one at a time
    /// per connection — this is what keeps execution in decode order).
    dispatched: bool,
    /// Writes decoded but not yet committed: non-zero closes the
    /// snapshot-cache fast path (read-your-writes).
    pending_writes: u64,
    /// The connection's read floor (the `ReadFloor` opcode), applied
    /// to reads decoded after it.
    read_floor: u64,
    /// Partial-write buffer (`wpos` = bytes already on the wire).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Peer sent EOF: finish decoded work, then close.
    peer_closed: bool,
    /// The socket's write side failed; responses are discarded but
    /// decoded writes still execute (they were accepted off the wire).
    write_dead: bool,
    /// Interest currently armed with the poller, to skip no-op
    /// `modify` syscalls.
    armed: (bool, bool),
}

impl Conn {
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Appends one response frame to the write buffer.
    fn queue_frame(&mut self, stats: &ServerStats, payload: &[u8]) {
        queue_frame(
            &mut self.wbuf,
            &mut self.wpos,
            self.write_dead,
            stats,
            payload,
        );
    }
}

/// [`Conn::queue_frame`] over split borrows, for call sites holding a
/// frame payload borrowed out of the same connection's read buffer.
fn queue_frame(
    wbuf: &mut Vec<u8>,
    wpos: &mut usize,
    write_dead: bool,
    stats: &ServerStats,
    payload: &[u8],
) {
    if write_dead {
        return;
    }
    // Compact lazily once the sent prefix dominates.
    if *wpos > 4096 && *wpos * 2 > wbuf.len() {
        wbuf.drain(..*wpos);
        *wpos = 0;
    }
    let written = write_frame(wbuf, payload).expect("Vec write is infallible");
    stats.bytes_out.fetch_add(written, Ordering::Relaxed);
}

/// Why a connection is being torn down.
enum Close {
    /// Clean end of session (EOF with nothing left to do, handshake
    /// refusal, frame-level protocol error).
    Done,
    /// Response backlog exceeded the write-buffer cap.
    Evicted,
}

/// A running Ode network server (readiness event loop).
pub struct OdeServer {
    addr: SocketAddr,
    ctx: Arc<NodeCtx>,
    shutdown: Arc<AtomicBool>,
    poller: Arc<Poller>,
    loop_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl OdeServer {
    /// Bind `addr` (port 0 picks a free port) and start serving `db`.
    pub fn bind(
        db: Arc<Database>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<OdeServer> {
        OdeServer::bind_with(db, addr, config, ServerHooks::default())
    }

    /// [`OdeServer::bind`] with replication hooks (commit barrier,
    /// promote handler).
    pub fn bind_with(
        db: Arc<Database>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        hooks: ServerHooks,
    ) -> io::Result<OdeServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(NodeCtx::new(db, &config, hooks));
        let poller = Arc::new(Poller::new()?);
        poller.add(&listener, Event::readable(LISTENER_KEY))?;

        let (job_tx, job_rx) = mpsc::channel::<Batch>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions = Arc::new(Completions {
            queue: Mutex::new(VecDeque::new()),
            poller: Arc::clone(&poller),
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let ctx = Arc::clone(&ctx);
                let rx = Arc::clone(&job_rx);
                let completions = Arc::clone(&completions);
                thread::Builder::new()
                    .name(format!("ode-net-worker-{i}"))
                    .spawn(move || worker_loop(&ctx, &rx, &completions))
                    .expect("spawn server worker thread")
            })
            .collect();

        let loop_handle = {
            let ctx = Arc::clone(&ctx);
            let poller = Arc::clone(&poller);
            let shutdown = Arc::clone(&shutdown);
            let write_cap = config.write_buffer_cap.max(1);
            thread::Builder::new()
                .name("ode-net-loop".into())
                .spawn(move || {
                    // job_tx moves in here; dropping it on exit stops
                    // the workers once the queue drains.
                    event_loop(
                        &ctx,
                        listener,
                        &poller,
                        job_tx,
                        &completions,
                        &shutdown,
                        write_cap,
                    )
                })
                .expect("spawn server event-loop thread")
        };

        Ok(OdeServer {
            addr,
            ctx,
            shutdown,
            poller,
            loop_handle: Some(loop_handle),
            workers,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether this node currently refuses writes (replica role).
    pub fn is_replica(&self) -> bool {
        self.ctx.replica.load(Ordering::Acquire)
    }

    /// A snapshot of the server's counters (the same data the `Stats`
    /// opcode serves remotely).
    pub fn stats(&self) -> StatsReport {
        self.ctx.stats.report(&self.ctx.cache, &self.ctx.db)
    }

    /// Stop accepting, close every live connection, and join all
    /// server threads. Requests already decoded complete first (their
    /// writes commit; undeliverable responses are discarded).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.poller.notify();
        if let Some(handle) = self.loop_handle.take() {
            let _ = handle.join();
        }
        // The loop dropped job_tx on exit; workers drain what was
        // dispatched, then see the hangup and exit.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
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

fn worker_loop(ctx: &NodeCtx, rx: &Mutex<mpsc::Receiver<Batch>>, completions: &Completions) {
    loop {
        // Hold the lock only for the dequeue, not the execution.
        let next = rx.lock().unwrap().recv();
        let Ok(batch) = next else {
            return; // sender gone: server is shutting down
        };
        for job in batch.jobs {
            let (out, is_write) = execute_job(ctx, job);
            // Streamed back one by one: earlier responses in a batch
            // reach the wire while later jobs still execute.
            completions.push(Completion::Response {
                token: batch.token,
                out,
                is_write,
            });
        }
        completions.push(Completion::BatchDone { token: batch.token });
    }
}

fn event_loop(
    ctx: &NodeCtx,
    listener: TcpListener,
    poller: &Arc<Poller>,
    job_tx: mpsc::Sender<Batch>,
    completions: &Completions,
    shutdown: &AtomicBool,
    write_cap: usize,
) {
    let stats = &*ctx.stats;
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = LISTENER_KEY + 1;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    // Connections touched this wakeup, pumped once at the end so a
    // burst of completions costs one flush, not one syscall each.
    let mut touched: Vec<usize> = Vec::new();

    'run: loop {
        if poller.wait(&mut events, None).is_err() {
            break;
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        touched.clear();

        for &ev in &events {
            if ev.key == LISTENER_KEY {
                accept_ready(&listener, poller, &mut conns, &mut next_token, stats);
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue;
            };
            if ev.readable {
                read_ready(conn, ctx, &mut scratch);
            }
            if !touched.contains(&ev.key) {
                touched.push(ev.key);
            }
        }

        // Drain completions delivered by the workers.
        loop {
            let Some(c) = completions.queue.lock().unwrap().pop_front() else {
                break;
            };
            match c {
                Completion::Response {
                    token,
                    out,
                    is_write,
                } => {
                    // The connection may have been evicted while the
                    // job executed; its work stands, the frame drops.
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if is_write {
                        conn.pending_writes -= 1;
                    }
                    conn.queue_frame(stats, &out);
                    if !touched.contains(&token) {
                        touched.push(token);
                    }
                }
                Completion::BatchDone { token } => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    conn.dispatched = false;
                    if !touched.contains(&token) {
                        touched.push(token);
                    }
                }
            }
        }

        // One pump — parse, dispatch, flush, re-arm — per touched
        // connection.
        for &token in &touched {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            match pump(conn, ctx, poller, &job_tx, write_cap) {
                Ok(()) => {}
                Err(close) => {
                    if let Close::Evicted = close {
                        stats.slow_client_evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut conn = conns.remove(&token).expect("conn present");
                    // Best-effort final flush (one nonblocking pass):
                    // answers queued before a fatal frame should still
                    // try to reach the client.
                    if !conn.write_dead && conn.backlog() > 0 {
                        let wpos = conn.wpos;
                        let _ = conn.stream.write_all(&conn.wbuf[wpos..]);
                    }
                    let _ = poller.delete(&conn.stream);
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    stats.active_connections.fetch_sub(1, Ordering::Relaxed);
                }
            }
            if shutdown.load(Ordering::SeqCst) {
                break 'run;
            }
        }
    }

    // Teardown: close every socket; decoded-but-undispatched jobs are
    // flushed to the workers first so "accepted off the wire" implies
    // "executed" even across shutdown.
    for (_, mut conn) in conns.drain() {
        if !conn.inbox.is_empty() {
            let _ = job_tx.send(Batch {
                token: conn.token,
                jobs: conn.inbox.drain(..).collect(),
            });
        }
        let _ = poller.delete(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
        stats.active_connections.fetch_sub(1, Ordering::Relaxed);
    }
    drop(listener);
    // job_tx drops here: workers finish the backlog and exit.
}

fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
    stats: &ServerStats,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            // Transient accept failures (ECONNABORTED, EMFILE): leave
            // the rest for the next readiness report.
            Err(_) => break,
        };
        stats.total_connections.fetch_add(1, Ordering::Relaxed);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();
        let token = *next_token;
        *next_token += 1;
        if poller.add(&stream, Event::readable(token)).is_err() {
            continue;
        }
        stats.active_connections.fetch_add(1, Ordering::Relaxed);
        conns.insert(
            token,
            Conn {
                stream,
                token,
                magic_got: 0,
                rbuf: FrameBuffer::new(),
                inbox: VecDeque::new(),
                dispatched: false,
                pending_writes: 0,
                read_floor: 0,
                wbuf: Vec::new(),
                wpos: 0,
                peer_closed: false,
                write_dead: false,
                armed: (true, false),
            },
        );
    }
}

/// Pull whatever the kernel has into the connection's read state.
/// Stops early once the inbox is full (backpressure): unread bytes
/// stay in the kernel buffer and the read interest is dropped by the
/// subsequent pump.
fn read_ready(conn: &mut Conn, ctx: &NodeCtx, scratch: &mut [u8]) {
    while !conn.peer_closed && conn.inbox.len() < PIPELINE_DEPTH {
        let n = match conn.stream.read(scratch) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Reset mid-stream: what was decoded still executes,
                // nothing more arrives and nothing can be delivered.
                conn.peer_closed = true;
                conn.write_dead = true;
                break;
            }
        };
        let mut bytes = &scratch[..n];
        // Handshake state: expect the client's 4 magic bytes, echo
        // them back.
        if conn.magic_got < 4 {
            let take = bytes.len().min(4 - conn.magic_got);
            let (magic, rest) = bytes.split_at(take);
            if magic != &MAGIC[conn.magic_got..conn.magic_got + take] {
                ctx.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                conn.peer_closed = true;
                conn.write_dead = true;
                return;
            }
            conn.magic_got += take;
            bytes = rest;
            if conn.magic_got == 4 && !conn.write_dead {
                // The echo is raw bytes, not a frame: splice it in
                // front of the write buffer path directly.
                conn.wbuf.extend_from_slice(&MAGIC);
            }
            if bytes.is_empty() {
                continue;
            }
        }
        conn.rbuf.extend(bytes);
    }
}

/// Decode complete frames out of the connection's read buffer: answer
/// the fast-path opcodes inline, queue the rest as jobs. A frame-level
/// protocol error (hostile length prefix) poisons the stream and ends
/// the session.
fn parse_frames(conn: &mut Conn, ctx: &NodeCtx) -> Result<(), Close> {
    let (db, stats, cache) = (&*ctx.db, &*ctx.stats, &*ctx.cache);
    // Split borrows: frame payloads stay borrowed out of `rbuf` while
    // the other connection fields are written.
    let Conn {
        rbuf,
        inbox,
        pending_writes,
        read_floor,
        wbuf,
        wpos,
        write_dead,
        ..
    } = conn;
    let mut out = Vec::new();
    while inbox.len() < PIPELINE_DEPTH {
        let payload: &[u8] = match rbuf.next_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(_) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Err(Close::Done);
            }
        };
        stats.bytes_in.fetch_add(
            payload.len() as u64 + frame_prefix_len(payload.len()),
            Ordering::Relaxed,
        );

        let (seq, request) = match Request::decode(payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                // The frame was well delimited, so the stream is still
                // in sync: report under the request's sequence id (or 0
                // when even that is unreadable) and keep the session
                // alive.
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let seq = Request::decode_seq(payload).unwrap_or(0);
                let frame = Response::Err(RemoteError::BadRequest(e.to_string())).encode(seq);
                queue_frame(wbuf, wpos, *write_dead, stats, &frame);
                continue;
            }
        };
        stats.requests[request.opcode() as usize].fetch_add(1, Ordering::Relaxed);

        match request {
            // Answered in place, possibly ahead of queued work.
            Request::Ping => {
                let frame = Response::Pong.encode(seq);
                queue_frame(wbuf, wpos, *write_dead, stats, &frame);
            }
            Request::Stats => {
                let frame = Response::Stats(stats.report(cache, db)).encode(seq);
                queue_frame(wbuf, wpos, *write_dead, stats, &frame);
            }
            // The router's health probe: answered inline so a node busy
            // with queued work still reports its epoch promptly.
            Request::Epoch => {
                let frame = Response::Count(db.snapshot_epoch()).encode(seq);
                queue_frame(wbuf, wpos, *write_dead, stats, &frame);
            }
            // Set here, in stream order: every read decoded after this
            // frame sees the new floor, exactly the read-your-writes
            // contract the router relies on.
            Request::ReadFloor { epoch } => {
                *read_floor = epoch;
                let frame = Response::Unit.encode(seq);
                queue_frame(wbuf, wpos, *write_dead, stats, &frame);
            }
            request if request.is_read() => {
                // The cache key is the request's operation bytes — the
                // payload minus its sequence varint, borrowed straight
                // off the frame (no re-encode).
                let op_bytes = &payload[seq_prefix_len(payload)..];
                // Cache fast path, only when no write is in flight on
                // this connection (read-your-writes). The epoch is
                // sampled here, after the gate: any commit acknowledged
                // before this request was sent has already bumped it.
                let mut looked_up = false;
                let floor = *read_floor;
                if *pending_writes == 0 && db.snapshot_epoch() >= floor {
                    if let Some(cached) = cache.get(db.snapshot_epoch(), op_bytes) {
                        // Wire-ready bytes: this caller's sequence id
                        // prefixed onto the stored encoded response.
                        out.clear();
                        ode_codec::varint::write_u64(&mut out, seq);
                        out.extend_from_slice(&cached);
                        queue_frame(wbuf, wpos, *write_dead, stats, &out);
                        continue;
                    }
                    looked_up = true;
                }
                let key = Some(op_bytes.to_vec());
                inbox.push_back(Job {
                    seq,
                    request,
                    key,
                    looked_up,
                    floor,
                });
            }
            request => {
                *pending_writes += 1;
                inbox.push_back(Job {
                    seq,
                    request,
                    key: None,
                    looked_up: false,
                    floor: *read_floor,
                });
            }
        }
    }
    Ok(())
}

/// Advance a connection's state machine: decode, dispatch, flush, and
/// re-arm interest. `Err` means the connection is done (or evicted)
/// and must be torn down by the caller.
fn pump(
    conn: &mut Conn,
    ctx: &NodeCtx,
    poller: &Poller,
    job_tx: &mpsc::Sender<Batch>,
    write_cap: usize,
) -> Result<(), Close> {
    parse_frames(conn, ctx)?;

    // Dispatch the next batch, if none is executing.
    if !conn.dispatched && !conn.inbox.is_empty() {
        let batch = Batch {
            token: conn.token,
            jobs: conn.inbox.drain(..).collect(),
        };
        conn.dispatched = true;
        let _ = job_tx.send(batch);
    }

    // Flush as far as the socket allows.
    while conn.wpos < conn.wbuf.len() && !conn.write_dead {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.write_dead = true;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.write_dead = true;
            }
        }
    }
    if conn.write_dead {
        // Undeliverable: drop the backlog, keep executing what was
        // decoded.
        conn.wbuf.clear();
        conn.wpos = 0;
    }

    // Slow-client guard: a reader this far behind its responses is
    // evicted rather than allowed to pin server memory.
    if conn.backlog() > write_cap {
        return Err(Close::Evicted);
    }

    // Nothing left to read, execute, or write: the session is over.
    // (`parse_frames` just ran and the dispatch above drained the
    // inbox, so any bytes still in `rbuf` are a partial frame cut off
    // by the EOF, which can never be answered.)
    if conn.peer_closed
        && !conn.dispatched
        && conn.inbox.is_empty()
        && (conn.backlog() == 0 || conn.write_dead)
    {
        return Err(Close::Done);
    }

    // Re-arm interest to match the state machine: read while the inbox
    // has room, write while there is backlog.
    let want = (
        !conn.peer_closed && conn.inbox.len() < PIPELINE_DEPTH,
        conn.backlog() > 0 && !conn.write_dead,
    );
    if want != conn.armed {
        let ev = Event {
            key: conn.token,
            readable: want.0,
            writable: want.1,
        };
        if poller.modify(&conn.stream, ev).is_err() {
            return Err(Close::Done);
        }
        conn.armed = want;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! The event loop against its model. One connection's requests,
    //! pipelined in one burst through a [`FaultRelay`] that re-chunks
    //! the byte stream, must be answered exactly as the same requests
    //! applied one by one, in stream order, to an identically seeded
    //! in-process [`Database`]: byte-identical frames, matched by
    //! sequence id. Both databases assign oids and vids from the same
    //! deterministic counters. The model shares no code with the server
    //! but [`apply`] and never consults the snapshot cache, so a stale
    //! cache hit is a divergence.

    use std::collections::BTreeSet;
    use std::io::{BufReader, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    use ode::{DatabaseOptions, MergePolicy, Oid, TypeTag, Vid};
    use ode_storage::testutil::TempPath;
    use proptest::prelude::*;
    use rand::SeedableRng;

    use super::*;
    use crate::protocol::{read_frame_into, Opcode};
    use crate::relay::{FaultRelay, RelayPlan};

    /// The tag every test object carries; nothing in the differential
    /// run decodes bodies, so raw bytes under one tag exercise
    /// everything.
    const TAG: TypeTag = TypeTag(0xD1FF);

    /// Opcodes the differential leaves out: `Stats` (counters are the
    /// server's own), `Epoch`/`ReadFloor` (commit batching may group
    /// epochs differently) and `Promote` (replica role only).
    const NOT_MODELLED: [Opcode; 4] = [
        Opcode::Stats,
        Opcode::Epoch,
        Opcode::ReadFloor,
        Opcode::Promote,
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
    /// collect exactly one response frame per request, sorted by
    /// sequence id (responses may arrive in any order).
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
            got.push((seq, payload.clone()));
        }
        got.sort_by_key(|(seq, _)| *seq);
        got
    }

    /// The model: each request applied to `db` in stream order, an
    /// error mapped to its frame the way [`execute_job`] maps it.
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
        want
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
