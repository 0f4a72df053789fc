//! `ode-router` — a shard-routing front tier for ode-net.
//!
//! An [`OdeRouter`] listens on one address speaking wire-protocol v2
//! and forwards every request to one of N backend [`crate::OdeServer`]
//! shards chosen by `shard_of(oid)` (see [`crate::ShardMap`]). Clients
//! connect to the router exactly as they would to a single server:
//! same handshake, same frames, same pipelining. The router remaps
//! sequence ids per backend connection and re-stamps responses with
//! the client's original ids, so a client may keep requests to many
//! shards in flight and receive their responses in whatever order the
//! shards finish.
//!
//! ## One path
//!
//! Distribution must be invisible to a program's result, so all the
//! router may do to a frame is rename the ids in it — and where ids sit
//! in a frame is the [`crate::protocol`] module's knowledge, not this
//! one's. Every request takes one walk ([`walk_request`]) that renames
//! its ids into the owning shard's id space and, by the first id, names
//! that shard; every response takes the inverse walk
//! ([`walk_response`]). There is no per-opcode routing code and no
//! second, slower path: what a request needs beyond that walk is read
//! off its row of the wire table ([`Opcode::routing`],
//! [`Opcode::is_read`]). An id on a second shard is a `BadRequest`
//! (`DiffVersions` and `Merge` across objects fall out of that rule);
//! a frame the walk cannot follow is the `BadRequest` a server would
//! have answered, because walk and decoder are generated from the same
//! rows.
//!
//! ## Ordering guarantees
//!
//! Requests naming the *same object* always route to the same shard
//! and travel one backend connection in client send order, so the
//! per-connection read-your-writes guarantee of a single `OdeServer`
//! survives the tier per oid. Requests naming *different* objects may
//! land on different shards and complete in any order — there are no
//! cross-shard transactions and no cross-object ordering.
//!
//! ## Faults
//!
//! When a backend connection drops, every request in flight on it is
//! answered with [`RemoteError::Unavailable`] — the router never
//! retries, because a request that reached a dead shard has an unknown
//! outcome and a silent retry could double-execute a write. The shard
//! then enters a reconnect-with-backoff window (doubling from
//! [`RouterConfig::reconnect_backoff`] up to 2 s); requests for its
//! objects fail fast with `Unavailable` until a dial succeeds. Other
//! shards are unaffected throughout.
//!
//! ## Scatter requests
//!
//! `Ping` is answered by the router itself. `Stats`, `Objects`, and
//! `ObjectsPage` fan out to every shard and merge: stats counters fold
//! under the rule each declares (`sum`, or `max` for gauges and
//! high-water marks — see [`StatsReport::merge`]),
//! extent scans merge-sort by client-visible id (`ObjectsPage`
//! re-truncates to the requested limit). A scatter fails as a whole if
//! any shard is down — partial extents would be silent lies.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle, Scope};
use std::time::{Duration, Instant};

use ode::{Oid, Vid};
use ode_codec::Writer;
use parking_lot::Mutex;
use polling::{Event, Poller};

use crate::client::{ClientConfig, OdeClient};
use crate::error::RemoteError;
use crate::protocol::{
    read_frame_into, split_seq, walk_request, walk_response, write_frame, write_frame_seq,
    FrameBuffer, IdField, Opcode, Request, Response, Routing, StatsReport, MAGIC,
};
use crate::shard::ShardMap;
use crate::NetError;

/// Ceiling of a shard's reconnect-backoff window.
const RECONNECT_BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Worker threads — the maximum number of concurrently served
    /// client connections (further accepted connections wait in line).
    pub workers: usize,
    /// Dial + handshake timeout for backend connections.
    pub connect_timeout: Duration,
    /// First reconnect-backoff window after a shard connection fails;
    /// doubles per consecutive failure.
    pub reconnect_backoff: Duration,
    /// How often the health prober samples every member's epoch.
    pub probe_interval: Duration,
    /// Consecutive failed primary probes before the router drives a
    /// failover (given a live replica to promote).
    pub failover_after: u32,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            workers: 16,
            connect_timeout: Duration::from_secs(5),
            reconnect_backoff: Duration::from_millis(50),
            probe_interval: Duration::from_millis(150),
            failover_after: 3,
        }
    }
}

/// One shard's member set, as handed to
/// [`OdeRouter::bind_with_members`]: the address writes go to plus the
/// replicas tailing its WAL (possibly none).
#[derive(Debug, Clone)]
pub struct ShardMembership {
    /// The shard's current primary.
    pub primary: SocketAddr,
    /// Read-only replicas of that primary.
    pub replicas: Vec<SocketAddr>,
}

impl ShardMembership {
    /// A single-node shard (no replicas).
    pub fn solo(primary: SocketAddr) -> ShardMembership {
        ShardMembership {
            primary,
            replicas: Vec::new(),
        }
    }
}

/// One shard's live membership view, maintained by the prober.
struct MemberState {
    primary: SocketAddr,
    /// Last epoch a primary probe reported.
    primary_epoch: u64,
    /// Consecutive failed primary probes.
    primary_failures: u32,
    replicas: Vec<SocketAddr>,
    /// Last probed epoch per replica; `None` = unreachable.
    replica_epochs: Vec<Option<u64>>,
    /// Set for the promotion window: every dial to this shard fails
    /// with `Unavailable` (strictly no retry) until the new primary is
    /// installed or the attempt is abandoned.
    promoting: bool,
}

/// The router's membership table: one probed member set per shard.
struct Membership {
    shards: Vec<Mutex<MemberState>>,
    /// Round-robin cursor for spreading read connections over replicas.
    read_rr: AtomicU64,
}

impl Membership {
    fn new(members: Vec<ShardMembership>) -> Membership {
        Membership {
            shards: members
                .into_iter()
                .map(|m| {
                    let n = m.replicas.len();
                    Mutex::new(MemberState {
                        primary: m.primary,
                        primary_epoch: 0,
                        primary_failures: 0,
                        replicas: m.replicas,
                        replica_epochs: vec![None; n],
                        promoting: false,
                    })
                })
                .collect(),
            read_rr: AtomicU64::new(0),
        }
    }

    fn primary_addr(&self, shard: usize) -> SocketAddr {
        self.shards[shard].lock().primary
    }

    /// The primary's last probed epoch — the read floor pinned onto
    /// replica-read connections.
    fn primary_epoch(&self, shard: usize) -> u64 {
        self.shards[shard].lock().primary_epoch
    }

    fn promoting(&self, shard: usize) -> bool {
        self.shards[shard].lock().promoting
    }

    /// Whether any replica answered its last probe (a read connection
    /// would have somewhere to go).
    fn has_live_replica(&self, shard: usize) -> bool {
        self.shards[shard]
            .lock()
            .replica_epochs
            .iter()
            .any(Option::is_some)
    }

    /// Address for a *read* connection: a live replica round-robin,
    /// falling back to the primary when none is reachable.
    fn pick_read_addr(&self, shard: usize) -> SocketAddr {
        let ms = self.shards[shard].lock();
        let live: Vec<SocketAddr> = ms
            .replicas
            .iter()
            .zip(&ms.replica_epochs)
            .filter_map(|(a, e)| e.map(|_| *a))
            .collect();
        if live.is_empty() {
            return ms.primary;
        }
        let i = self.read_rr.fetch_add(1, Ordering::Relaxed) as usize;
        live[i % live.len()]
    }
}

/// The router's lifetime counters, each stated once: generates the
/// atomics the sessions bump and the snapshot [`OdeRouter::stats`]
/// returns.
macro_rules! router_counters {
    ($( $(#[$doc:meta])* $field:ident ),* $(,)?) => {
        /// A snapshot of the router's lifetime counters.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct RouterStatsReport {
            $( $(#[$doc])* pub $field: u64, )*
        }

        #[derive(Default)]
        struct RouterStats {
            $( $field: AtomicU64, )*
        }

        impl RouterStats {
            fn report(&self) -> RouterStatsReport {
                RouterStatsReport {
                    $( $field: self.$field.load(Ordering::Relaxed), )*
                }
            }
        }
    };
}

router_counters! {
    /// Client connections accepted over the router's lifetime.
    client_connections,
    /// Requests forwarded to a backend (scatter requests count once per
    /// shard).
    forwarded,
    /// Requests answered by the router without touching a backend
    /// (`Ping`).
    answered_locally,
    /// Scatter requests fanned out to every shard.
    gathers,
    /// Successful backend dials (including reconnects).
    backend_connects,
    /// Backend connections lost (each triggers a backoff window).
    shard_failures,
    /// `Unavailable` error frames the router answered with (a dead or
    /// backing-off shard, a failover window, a scatter that lost a
    /// part, an undecodable shard response).
    unavailable_errors,
    /// Undecodable frames, from clients or backends.
    protocol_errors,
    /// Read requests forwarded to a replica instead of a primary.
    replica_reads,
    /// Failovers this router drove to completion (a replica promoted
    /// and installed as the shard's primary).
    failovers,
}

/// State shared by every session of one router.
struct RouterShared {
    membership: Membership,
    map: ShardMap,
    config: RouterConfig,
    stats: RouterStats,
    /// Round-robin cursor for `Pnew` placement: new objects have no id
    /// yet, so the router picks their shard and the minted id then
    /// carries the placement forever.
    next_pnew_shard: AtomicU64,
    shutdown: AtomicBool,
}

type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A running shard router. See the module docs.
pub struct OdeRouter {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    conns: ConnRegistry,
    accept_handle: Option<JoinHandle<()>>,
    prober_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl OdeRouter {
    /// Bind `addr` (port 0 picks a free port) and start routing to
    /// `backends`, each a single-node shard with no replicas. The order
    /// of `backends` **is** the shard map — it must be identical on
    /// every router over the same tier.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: Vec<SocketAddr>,
        config: RouterConfig,
    ) -> io::Result<OdeRouter> {
        let members = backends.into_iter().map(ShardMembership::solo).collect();
        OdeRouter::bind_with_members(addr, members, config)
    }

    /// [`OdeRouter::bind`] with full per-shard membership: each shard
    /// has a primary plus replicas. The router probes every member's
    /// epoch on [`RouterConfig::probe_interval`], routes replica reads
    /// behind a `ReadFloor` pin, and on
    /// [`RouterConfig::failover_after`] consecutive failed primary
    /// probes promotes the most-caught-up live replica and installs it
    /// as the shard's primary.
    pub fn bind_with_members(
        addr: impl ToSocketAddrs,
        members: Vec<ShardMembership>,
        config: RouterConfig,
    ) -> io::Result<OdeRouter> {
        if members.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one backend shard",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let map = ShardMap::new(members.len());
        let shared = Arc::new(RouterShared {
            membership: Membership::new(members),
            map,
            config: config.clone(),
            stats: RouterStats::default(),
            next_pnew_shard: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let conns: ConnRegistry = Arc::new(Mutex::new(HashMap::new()));

        let (conn_tx, conn_rx) = mpsc::channel::<(u64, TcpStream)>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&conn_rx);
                let conns = Arc::clone(&conns);
                thread::Builder::new()
                    .name(format!("ode-router-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx, &conns))
                    .expect("spawn router worker thread")
            })
            .collect();

        let accept_handle = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("ode-router-accept".into())
                .spawn(move || {
                    let mut next_id = 0u64;
                    for stream in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let stream = match stream {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        shared
                            .stats
                            .client_connections
                            .fetch_add(1, Ordering::Relaxed);
                        next_id += 1;
                        if conn_tx.send((next_id, stream)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn router accept thread")
        };

        let prober_handle = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("ode-router-prober".into())
                .spawn(move || prober_loop(&shared))
                .expect("spawn router prober thread")
        };

        Ok(OdeRouter {
            addr,
            shared,
            conns,
            accept_handle: Some(accept_handle),
            prober_handle: Some(prober_handle),
            workers,
        })
    }

    /// One shard's current membership as the prober sees it: the
    /// primary address and its last probed epoch, then each replica
    /// with its last probed epoch (`None` = unreachable).
    pub fn shard_members(&self, shard: usize) -> (SocketAddr, u64, Vec<(SocketAddr, Option<u64>)>) {
        let ms = self.shared.membership.shards[shard].lock();
        (
            ms.primary,
            ms.primary_epoch,
            ms.replicas
                .iter()
                .copied()
                .zip(ms.replica_epochs.iter().copied())
                .collect(),
        )
    }

    /// Run one probe round of `shard` on the calling thread, failover
    /// included — exactly what the background prober does each
    /// [`RouterConfig::probe_interval`], for tests that step the rounds
    /// themselves instead of waiting on the clock.
    pub fn probe_now(&self, shard: usize) {
        probe_shard(&self.shared, shard);
    }

    /// The address the router is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard map this router routes by.
    pub fn shard_map(&self) -> ShardMap {
        self.shared.map
    }

    /// A snapshot of the router's counters.
    pub fn stats(&self) -> RouterStatsReport {
        self.shared.stats.report()
    }

    /// Stop accepting, close every client session (which closes its
    /// backend connections), and join all router threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.prober_handle.take() {
            let _ = handle.join();
        }
        for (_, stream) in self.conns.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for OdeRouter {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(
    shared: &RouterShared,
    rx: &Mutex<mpsc::Receiver<(u64, TcpStream)>>,
    conns: &ConnRegistry,
) {
    loop {
        let next = rx.lock().recv();
        let (id, stream) = match next {
            Ok(pair) => pair,
            Err(_) => return,
        };
        if let Ok(handle) = stream.try_clone() {
            conns.lock().insert(id, handle);
        }
        let _ = serve_session(shared, stream);
        conns.lock().remove(&id);
    }
}

// ---------------------------------------------------------------------------
// Health probing and driven failover
// ---------------------------------------------------------------------------

/// The router's health loop: sample every member's epoch each tick,
/// and drive a failover when a primary stays dead.
fn prober_loop(shared: &RouterShared) {
    loop {
        for shard in 0..shared.map.shard_count() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            probe_shard(shared, shard);
        }
        // Chunked sleep so shutdown is prompt.
        let deadline = Instant::now() + shared.config.probe_interval;
        while Instant::now() < deadline {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Dial a member and ask its applied epoch. A fresh connection per
/// probe keeps liveness honest: a wedged node fails the dial, not just
/// the request.
fn probe_epoch(addr: SocketAddr, timeout: Duration) -> Option<u64> {
    let config = ClientConfig {
        read_timeout: Some(timeout),
        write_timeout: Some(timeout),
        retry_reads: false,
    };
    let mut client = OdeClient::connect(addr, config).ok()?;
    client.epoch().ok()
}

fn probe_shard(shared: &RouterShared, shard: usize) {
    let (primary, replicas) = {
        let ms = shared.membership.shards[shard].lock();
        (ms.primary, ms.replicas.clone())
    };
    let timeout = shared.config.connect_timeout.min(Duration::from_secs(1));
    let replica_epochs: Vec<Option<u64>> = replicas
        .iter()
        .map(|&addr| probe_epoch(addr, timeout))
        .collect();
    let primary_epoch = probe_epoch(primary, timeout);
    let drive_failover = {
        let mut ms = shared.membership.shards[shard].lock();
        // Membership may have moved under us (another failover path);
        // only publish results for the set we probed.
        if ms.primary == primary && ms.replicas == replicas {
            ms.replica_epochs = replica_epochs;
            match primary_epoch {
                Some(e) => {
                    ms.primary_epoch = e;
                    ms.primary_failures = 0;
                    false
                }
                None => {
                    ms.primary_failures += 1;
                    ms.primary_failures >= shared.config.failover_after
                        && ms.replica_epochs.iter().any(Option::is_some)
                }
            }
        } else {
            false
        }
    };
    if drive_failover {
        attempt_failover(shared, shard);
    }
}

/// Promote the most-caught-up live replica and install it as the
/// shard's primary. During the promotion window every dial to the
/// shard fails `Unavailable` (strictly no retry — a request that
/// raced the old primary's death has an unknown outcome).
fn attempt_failover(shared: &RouterShared, shard: usize) {
    let (idx, addr, epoch) = {
        let mut ms = shared.membership.shards[shard].lock();
        let best = ms
            .replica_epochs
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .max_by_key(|&(_, e)| e);
        let Some((idx, epoch)) = best else { return };
        ms.promoting = true;
        (idx, ms.replicas[idx], epoch)
    };
    let timeout = shared.config.connect_timeout.min(Duration::from_secs(2));
    let promoted = (|| {
        let config = ClientConfig {
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
            retry_reads: false,
        };
        OdeClient::connect(addr, config)?.promote()
    })();
    let mut ms = shared.membership.shards[shard].lock();
    ms.promoting = false;
    if promoted.is_ok() && ms.replicas.get(idx) == Some(&addr) {
        let old = std::mem::replace(&mut ms.primary, addr);
        ms.replicas.remove(idx);
        ms.replica_epochs.remove(idx);
        // The dead ex-primary stays listed as a (currently unreachable)
        // replica: when it rejoins the shipping channel fences its
        // unshipped tail and it starts answering probes again.
        ms.replicas.push(old);
        ms.replica_epochs.push(None);
        ms.primary_epoch = epoch;
        ms.primary_failures = 0;
        shared.stats.failovers.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Routing: one walk over the frame
// ---------------------------------------------------------------------------

/// What kind of scatter a fan-out request is, and how to merge it.
#[derive(Debug, Clone, Copy)]
enum GatherKind {
    /// Counters fold under each one's declared rule.
    Stats,
    /// Extents merge ascending by client id; a page re-truncates to
    /// the limit the client asked for.
    Objects { limit: Option<u64> },
}

/// Where one client request goes.
enum Route {
    /// Answered by the router itself.
    Local(Box<Response>),
    /// Forwarded to one shard: the scratch writer holds its operation
    /// bytes, ids already in that shard's space.
    Single { shard: usize, is_read: bool },
    /// Fanned out to every shard; each part is walked again with its
    /// shard pinned.
    Gather(GatherKind),
}

/// A request's operation bytes renamed into one shard's id space.
struct Renamed {
    op: Opcode,
    /// The shard the ids live on; `None` when the request names none.
    shard: Option<usize>,
    /// Some id lives on another shard than the first one.
    stray: bool,
    /// A stamp range that no stamp minted on the shard can fall in.
    empty_range: bool,
}

/// Walk a request's operation bytes onto `out`, every id renamed into
/// the id space of the shard that owns it. `pinned` fixes that shard
/// (one part of a scatter); otherwise the first id names it. Stamps
/// are version ids, so a client-space range maps to the backend stamps
/// whose minted client stamp falls inside it — by the same residue
/// decomposition as ids and page cursors.
fn to_backend(
    body: &[u8],
    map: ShardMap,
    pinned: Option<usize>,
    out: &mut Writer,
) -> Result<Renamed, NetError> {
    // The wire table puts an id before any cursor or stamp of a keyed
    // row, and a scatter part arrives pinned.
    let home = |shard: Option<usize>| shard.expect("a cursor or stamp follows the shard's id");
    let (mut shard, mut stray, mut empty_range, mut from) = (pinned, false, false, 0);
    let op = walk_request(body, out, |field, id| match field {
        IdField::Oid | IdField::Vid => {
            let (owner, backend) = match field {
                IdField::Oid => (map.shard_of(Oid(id)), map.backend_oid(Oid(id)).0),
                _ => (map.shard_of_vid(Vid(id)), map.backend_vid(Vid(id)).0),
            };
            stray |= *shard.get_or_insert(owner) != owner;
            backend
        }
        IdField::Cursor => map.backend_cursor(Oid(id), home(shard)).0,
        IdField::StampFrom => {
            from = id;
            map.backend_cursor(Oid(id), home(shard)).0
        }
        IdField::StampTo => match map.backend_floor(Vid(id), home(shard)) {
            Some(upto) if from <= id => upto.0,
            _ => {
                empty_range = true;
                0
            }
        },
    })?;
    Ok(Renamed {
        op,
        shard,
        stray,
        empty_range,
    })
}

/// Decide a request's route; for a single-shard route `out` then holds
/// the bytes to forward. Every keyed opcode takes the same path — the
/// only per-opcode knowledge here is how scatters merge and what the
/// router answers itself.
fn route<'a>(
    payload: &'a [u8],
    map: ShardMap,
    next_pnew: &AtomicU64,
    out: &mut Writer,
) -> Result<(u64, &'a [u8], Route), NetError> {
    let (seq, body) = split_seq(payload)?;
    let refuse = |op: Opcode, why: &str| {
        let msg = format!("{}: {why}", op.name());
        Route::Local(Box::new(Response::Err(RemoteError::BadRequest(msg))))
    };
    let peeked = body.first().copied().and_then(Opcode::from_u8);
    if peeked.map(Opcode::routing) == Some(Routing::Scatter) {
        let route = match Request::decode(payload)?.1 {
            Request::Stats => Route::Gather(GatherKind::Stats),
            Request::Objects { .. } => Route::Gather(GatherKind::Objects { limit: None }),
            Request::ObjectsPage { limit, .. } => {
                Route::Gather(GatherKind::Objects { limit: Some(limit) })
            }
            other => refuse(
                other.opcode(),
                "the router has no merge rule for this scatter",
            ),
        };
        return Ok((seq, body, route));
    }
    out.clear();
    let renamed = to_backend(body, map, None, out)?;
    let op = renamed.op;
    let single = |shard| Route::Single {
        shard,
        is_read: op.is_read(),
    };
    let route = match op.routing() {
        Routing::Local if op == Opcode::Ping => Route::Local(Box::new(Response::Pong)),
        // Epochs are per shard (not comparable across the tier), read
        // floors are pinned by the router itself, and promotion is the
        // router's failover to drive.
        Routing::Local => refuse(op, "node-local request; connect to a node directly"),
        // A new object has no id yet: the router picks its shard and
        // the minted id then carries the placement forever.
        Routing::Placed => {
            let n = map.shard_count() as u64;
            single((next_pnew.fetch_add(1, Ordering::Relaxed) % n) as usize)
        }
        _ if renamed.stray => refuse(op, "ids live on different shards (different objects)"),
        // `HistoryBetween` over a range no stamp on the shard falls in.
        _ if renamed.empty_range => Route::Local(Box::new(Response::Versions(Vec::new()))),
        _ => match renamed.shard {
            Some(shard) => single(shard),
            None => refuse(op, "no id to route by"),
        },
    };
    Ok((seq, body, route))
}

/// Re-stamp a shard's response for the client: `seq`, then its result
/// bytes with every embedded id renamed into client space.
fn to_client(
    body: &[u8],
    map: ShardMap,
    shard: usize,
    seq: u64,
    out: &mut Writer,
) -> Result<(), NetError> {
    out.clear();
    out.put_varint(seq);
    walk_response(body, out, |field, id| match field {
        IdField::Vid => map.client_vid(Vid(id), shard).0,
        _ => map.client_oid(Oid(id), shard).0,
    })
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

/// One in-flight scatter: per-shard parts accumulate until every shard
/// has answered (or failed), then the merged response ships exactly
/// once.
struct Gather {
    client_seq: u64,
    kind: GatherKind,
    /// Parts answered so far, already in client id space.
    parts: Vec<Response>,
    remaining: usize,
    error: Option<RemoteError>,
}

impl Gather {
    fn new(client_seq: u64, kind: GatherKind, shards: usize) -> Gather {
        Gather {
            client_seq,
            kind,
            parts: Vec::with_capacity(shards),
            remaining: shards,
            error: None,
        }
    }

    /// Record one shard's outcome; returns the merged response when
    /// this was the last part. Late or duplicate parts are swallowed.
    fn complete_part(&mut self, part: Result<Response, RemoteError>) -> Option<Response> {
        if self.remaining == 0 {
            return None;
        }
        match part {
            Ok(Response::Err(e)) | Err(e) => {
                self.error.get_or_insert(e);
            }
            Ok(resp) => self.parts.push(resp),
        }
        self.remaining -= 1;
        if self.remaining > 0 {
            return None;
        }
        Some(match self.error.take() {
            Some(e) => Response::Err(e),
            None => self.merge(),
        })
    }

    fn merge(&mut self) -> Response {
        let mut stats = StatsReport::default();
        let mut oids = Vec::new();
        for part in self.parts.drain(..) {
            match (self.kind, part) {
                (GatherKind::Stats, Response::Stats(report)) => stats.merge(&report),
                (GatherKind::Objects { .. }, Response::Objects(extent)) => oids.extend(extent),
                (_, other) => {
                    return Response::Err(RemoteError::Unavailable(format!(
                        "shard returned a {} response to a scatter",
                        other.kind_name()
                    )))
                }
            }
        }
        match self.kind {
            GatherKind::Stats => Response::Stats(stats),
            GatherKind::Objects { limit } => {
                oids.sort_unstable_by_key(|o| o.0);
                oids.truncate(limit.map_or(usize::MAX, |limit| limit as usize));
                Response::Objects(oids)
            }
        }
    }
}

/// What a backend owes for one forwarded sequence id.
enum Pending {
    /// A single-shard request: answer the client under this seq.
    Single { client_seq: u64 },
    /// One part of a scatter.
    Part(Arc<Mutex<Gather>>),
    /// Router-internal bookkeeping (the `ReadFloor` pin sent when a
    /// replica-read connection opens): the response is swallowed.
    Internal,
}

/// The correlation half of one session's connection to one shard.
struct SlotCtl {
    alive: bool,
    /// Raw handle for tearing the connection down: shutting it makes
    /// the pump's registered dup readable (HUP), so the pump notices
    /// without being told.
    raw: Option<TcpStream>,
    /// Bumped on every successful dial. A failure report carries the
    /// generation it observed, so a stale error from a connection that
    /// has already been replaced can't tear down its successor.
    generation: u64,
    /// Next backend sequence id. Never reset across reconnects, so a
    /// bseq is unique for the session's lifetime.
    next_bseq: u64,
    /// Requests written to this backend and not yet answered.
    pending: HashMap<u64, Pending>,
    /// Consecutive connection failures (doubles the backoff).
    failures: u32,
    /// No dial is attempted before this instant.
    down_until: Option<Instant>,
}

impl SlotCtl {
    /// Count one more consecutive failure and start its backoff
    /// window: the configured base, doubled per failure, capped.
    fn back_off(&mut self, config: &RouterConfig) {
        self.failures += 1;
        let exp = self.failures.saturating_sub(1).min(16);
        let backoff = config
            .reconnect_backoff
            .saturating_mul(1u32 << exp)
            .min(RECONNECT_BACKOFF_MAX);
        self.down_until = Some(Instant::now() + backoff);
    }
}

/// One session's lazily-dialed connection to one shard.
///
/// Lock order, everywhere: `ctl` → `writer` → (gather) →
/// `client_writer`. The ctl lock is never held across a backend socket
/// write, and whichever path removes a [`Pending`] entry answers the
/// client — each client seq is answered exactly once.
struct ShardSlot {
    ctl: Mutex<SlotCtl>,
    writer: Mutex<Option<BufWriter<TcpStream>>>,
}

impl ShardSlot {
    fn new(_shard: usize) -> ShardSlot {
        ShardSlot {
            ctl: Mutex::new(SlotCtl {
                alive: false,
                raw: None,
                generation: 0,
                next_bseq: 0,
                pending: HashMap::new(),
                failures: 0,
                down_until: None,
            }),
            writer: Mutex::new(None),
        }
    }
}

/// Per-client-connection state, shared between the client-reader
/// thread and the session's single backend-pump thread.
///
/// Slots come in two banks of `shard_count` each: slot `s` is the
/// session's *write* connection to shard `s`'s primary, slot
/// `shard_count + s` its *read* connection (a replica when one is
/// live, pinned by `ReadFloor`; otherwise the primary again).
///
/// Backend responses are multiplexed: instead of one reader thread per
/// live shard connection, the session runs at most one [`backend_pump`]
/// thread that `epoll`-waits on every backend socket at once, so a
/// session costs two threads no matter how many shards it talks to.
struct Session<'a> {
    shared: &'a RouterShared,
    slots: Vec<ShardSlot>,
    /// Set once the session has written to a shard: its reads flip to
    /// the primary bank forever (read-your-writes without cross-node
    /// epoch bookkeeping).
    wrote: Vec<AtomicBool>,
    client_writer: Mutex<BufWriter<TcpStream>>,
    /// Readiness multiplexer for the backend pump.
    poller: Poller,
    /// Freshly dialed connections awaiting pump registration:
    /// `(slot, generation, pump's read half)`. Pushed *before*
    /// [`Poller::notify`], drained by the pump.
    handoff: Mutex<Vec<(usize, u64, TcpStream)>>,
    /// Tells the pump to exit (session teardown).
    hangup: AtomicBool,
    /// Whether the pump thread has been spawned yet — it starts
    /// lazily with the session's first backend dial, so sessions that
    /// never reach a shard never pay for it.
    pump_started: AtomicBool,
}

impl Session<'_> {
    /// Which slot a request for `shard` should ride. Reads from a
    /// session that has not written to the shard go to its replicas
    /// (pinned by `ReadFloor` at the primary's last probed epoch).
    /// Writes always go to the primary, and a session's first write to
    /// a shard flips its reads there too.
    fn pick_slot(&self, shard: usize, is_read: bool) -> usize {
        let n = self.shared.map.shard_count();
        if is_read
            && !self.wrote[shard].load(Ordering::Relaxed)
            && self.shared.membership.has_live_replica(shard)
        {
            n + shard
        } else {
            if !is_read {
                self.wrote[shard].store(true, Ordering::Relaxed);
            }
            shard
        }
    }

    /// Ship one response frame to the client. `flush` is the
    /// coalescing decision — callers pass `true` when they are about
    /// to block with nothing else to write.
    fn send_client(&self, seq: u64, resp: &Response, flush: bool) -> io::Result<()> {
        if matches!(resp, Response::Err(RemoteError::Unavailable(_))) {
            self.shared
                .stats
                .unavailable_errors
                .fetch_add(1, Ordering::Relaxed);
        }
        let buf = resp.encode(seq);
        self.send_client_bytes(&buf, flush)
    }

    /// Ship an already-encoded response payload to the client.
    fn send_client_bytes(&self, buf: &[u8], flush: bool) -> io::Result<()> {
        let mut w = self.client_writer.lock();
        write_frame(&mut *w, buf)?;
        if flush {
            w.flush()?;
        }
        Ok(())
    }

    /// Give one pending entry its outcome: answer the client, or
    /// complete the scatter part (answering when it was the last).
    /// Whichever path removed the entry calls this, exactly once.
    fn settle(&self, pending: Pending, outcome: Result<Response, RemoteError>) -> io::Result<()> {
        match pending {
            Pending::Single { client_seq } => {
                let resp = outcome.unwrap_or_else(Response::Err);
                self.send_client(client_seq, &resp, false)
            }
            Pending::Part(gather) => {
                let mut gather = gather.lock();
                match gather.complete_part(outcome) {
                    Some(merged) => self.send_client(gather.client_seq, &merged, false),
                    None => Ok(()),
                }
            }
            Pending::Internal => Ok(()), // nothing owed to the client
        }
    }

    /// Kill every backend connection and stop the pump (session
    /// teardown): the pump wakes from its wait and exits.
    fn shutdown_backends(&self) {
        for slot in &self.slots {
            let mut ctl = slot.ctl.lock();
            ctl.alive = false;
            if let Some(raw) = ctl.raw.take() {
                let _ = raw.shutdown(Shutdown::Both);
            }
        }
        self.hangup.store(true, Ordering::Release);
        let _ = self.poller.notify();
    }
}

// ---------------------------------------------------------------------------
// Session threads
// ---------------------------------------------------------------------------

fn serve_session(shared: &RouterShared, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);

    // Handshake: expect the client's magic, echo it back — the router
    // is indistinguishable from a single server here.
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        return Ok(());
    }
    let n = shared.map.shard_count();
    let session = Session {
        shared,
        slots: (0..n * 2).map(ShardSlot::new).collect(),
        wrote: (0..n).map(|_| AtomicBool::new(false)).collect(),
        client_writer: Mutex::new(BufWriter::new(stream)),
        poller: Poller::new()?,
        handoff: Mutex::new(Vec::new()),
        hangup: AtomicBool::new(false),
        pump_started: AtomicBool::new(false),
    };
    {
        let mut w = session.client_writer.lock();
        w.write_all(&MAGIC)?;
        w.flush()?;
    }

    thread::scope(|scope| {
        let result = client_loop(scope, &session, &mut reader);
        // Kill the backends and wake the pump; the scope joins it.
        session.shutdown_backends();
        result
    })
}

/// The session's client-facing half: decode frames, route each one,
/// and coalesce flushes — backend writers and the client writer are
/// only flushed when the client has nothing more buffered.
fn client_loop<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    session: &'env Session<'env>,
    reader: &mut BufReader<TcpStream>,
) -> io::Result<()> {
    let shared = session.shared;
    let mut dirty_slots = vec![false; session.slots.len()];
    let mut client_dirty = false;
    // Reused across frames: the inbound payload and the operation
    // bytes renamed for a backend.
    let mut payload = Vec::new();
    let mut scratch = Writer::new();
    loop {
        // Before blocking on the socket, flush everything owed: the
        // batch the client pipelined is fully forwarded, and our own
        // locally-answered frames are on their way.
        if reader.buffer().is_empty() {
            if client_dirty {
                session.client_writer.lock().flush()?;
                client_dirty = false;
            }
            for (i, dirty) in dirty_slots.iter_mut().enumerate() {
                if *dirty {
                    *dirty = false;
                    if let Some(w) = session.slots[i].writer.lock().as_mut() {
                        let _ = w.flush();
                    }
                }
            }
        }
        match read_frame_into(reader, &mut payload) {
            Ok(true) => {}
            Ok(false) => return Ok(()), // client hung up cleanly
            Err(NetError::Io(e)) => return Err(e),
            Err(_) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        };
        // One walk over the frame renames its ids and names its shard;
        // the renamed bytes are canonical, so a shard sees exactly what
        // a full decode and re-encode would have sent it.
        let routed = route(&payload, shared.map, &shared.next_pnew_shard, &mut scratch);
        let (seq, body, route) = match routed {
            Ok(routed) => routed,
            Err(e) => {
                // Well-delimited frame, bad payload: the stream is
                // still in sync, report and continue (server behavior).
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let seq = Request::decode_seq(&payload).unwrap_or(0);
                let response = Response::Err(RemoteError::BadRequest(e.to_string()));
                session.send_client(seq, &response, false)?;
                client_dirty = true;
                continue;
            }
        };
        match route {
            Route::Local(resp) => {
                shared
                    .stats
                    .answered_locally
                    .fetch_add(1, Ordering::Relaxed);
                session.send_client(seq, &resp, false)?;
                client_dirty = true;
            }
            Route::Single { shard, is_read } => {
                let slot = session.pick_slot(shard, is_read);
                let pending = Pending::Single { client_seq: seq };
                match forward(scope, session, slot, scratch.as_bytes(), pending) {
                    Sent::Forwarded => dirty_slots[slot] = true,
                    Sent::Answered => client_dirty = true,
                }
            }
            Route::Gather(kind) => {
                shared.stats.gathers.fetch_add(1, Ordering::Relaxed);
                let shards = shared.map.shard_count();
                let gather = Arc::new(Mutex::new(Gather::new(seq, kind, shards)));
                // Scatters always hit the primary bank: a merged extent
                // or stats report must not mix replica lag in.
                for (shard, dirty) in dirty_slots.iter_mut().enumerate().take(shards) {
                    let pending = Pending::Part(Arc::clone(&gather));
                    scratch.clear();
                    let sent = match to_backend(body, shared.map, Some(shard), &mut scratch) {
                        Ok(_) => forward(scope, session, shard, scratch.as_bytes(), pending),
                        Err(e) => {
                            let refused = RemoteError::BadRequest(e.to_string());
                            let _ = session.settle(pending, Err(refused));
                            Sent::Answered
                        }
                    };
                    match sent {
                        Sent::Forwarded => *dirty = true,
                        Sent::Answered => client_dirty = true,
                    }
                }
            }
        }
    }
}

/// Outcome of trying to hand a request to a shard: either it is on the
/// backend's wire (an answer will come through the slot's pending
/// table), or the client was already answered (unavailable shard).
enum Sent {
    Forwarded,
    Answered,
}

/// The one forwarding path: ensure a live connection, register the
/// pending entry, write `body` (operation bytes in the shard's id
/// space) under the assigned backend sequence id. When the request
/// never makes it onto a backend wire the entry is settled here with
/// `Unavailable`; once registered, the failure path drains it — exactly
/// one of the two answers the client.
fn forward<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    session: &'env Session<'env>,
    slot_idx: usize,
    body: &[u8],
    pending: Pending,
) -> Sent {
    let slot = &session.slots[slot_idx];
    let (bseq, generation) = {
        let mut ctl = slot.ctl.lock();
        if !ctl.alive {
            if let Err(msg) = ensure_conn(scope, session, slot_idx, &mut ctl) {
                drop(ctl);
                let _ = session.settle(pending, Err(RemoteError::Unavailable(msg)));
                return Sent::Answered;
            }
        }
        let bseq = ctl.next_bseq;
        ctl.next_bseq += 1;
        ctl.pending.insert(bseq, pending);
        (bseq, ctl.generation)
    };
    session
        .shared
        .stats
        .forwarded
        .fetch_add(1, Ordering::Relaxed);
    if slot_idx >= session.shared.map.shard_count() {
        session
            .shared
            .stats
            .replica_reads
            .fetch_add(1, Ordering::Relaxed);
    }
    // The ctl lock is released: if the connection dies right here, the
    // failure path drains our pending entry and answers the client;
    // the writer below is then gone and we silently stand down.
    let write_result = {
        let mut w = slot.writer.lock();
        match w.as_mut() {
            None => return Sent::Forwarded, // failure path owns the answer
            Some(w) => write_frame_seq(w, bseq, body),
        }
    };
    if write_result.is_err() {
        fail_slot(session, slot_idx, generation, "write to shard failed");
    }
    Sent::Forwarded
}

/// Dial a dead slot's backend, handshake, and hand the connection to
/// the session's backend pump (spawning the pump on the session's
/// first dial). Called with the slot's ctl lock held; on success the
/// slot is alive.
///
/// The address comes from the shard's *current* membership: primary
/// bank slots dial the primary, read bank slots a live replica (or the
/// primary when none is up). A read-bank connection is pinned with a
/// `ReadFloor` at the primary's last probed epoch before anything else
/// rides it, so the replica can never answer from state older than the
/// primary state the router has already observed.
fn ensure_conn<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    session: &'env Session<'env>,
    slot_idx: usize,
    ctl: &mut SlotCtl,
) -> Result<(), String> {
    let shared = session.shared;
    let shard = slot_idx % shared.map.shard_count();
    if let Some(until) = ctl.down_until {
        if Instant::now() < until {
            return Err(format!("shard {shard} is in its reconnect-backoff window"));
        }
    }
    if shared.membership.promoting(shard) {
        // The promotion window: strictly no retry, the request's
        // outcome on the dying primary is unknown.
        return Err(format!("shard {shard} is failing over"));
    }
    let read_bank = slot_idx >= shared.map.shard_count();
    let addr = if read_bank {
        shared.membership.pick_read_addr(shard)
    } else {
        shared.membership.primary_addr(shard)
    };
    let config = &shared.config;
    let dial = || -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_nodelay(true).ok();
        // Handshake under a deadline so a wedged backend can't hang
        // the whole session; cleared once the echo arrives.
        stream.set_read_timeout(Some(config.connect_timeout))?;
        let mut stream_w = stream.try_clone()?;
        stream_w.write_all(&MAGIC)?;
        stream_w.flush()?;
        let mut echo = [0u8; 4];
        (&stream).read_exact(&mut echo)?;
        if echo != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "backend handshake mismatch",
            ));
        }
        stream.set_read_timeout(None)?;
        Ok(stream)
    };
    match dial() {
        Ok(stream) => {
            let pump_half = match stream.try_clone() {
                Ok(s) => s,
                Err(e) => return Err(format!("shard {shard}: {e}")),
            };
            let writer_half = match stream.try_clone().map(BufWriter::new) {
                Ok(w) => w,
                Err(e) => return Err(format!("shard {shard}: {e}")),
            };
            *session.slots[slot_idx].writer.lock() = Some(writer_half);
            ctl.alive = true;
            ctl.raw = Some(stream);
            ctl.generation += 1;
            ctl.failures = 0;
            ctl.down_until = None;
            if read_bank {
                let floor = shared.membership.primary_epoch(shard);
                if floor > 0 {
                    let bseq = ctl.next_bseq;
                    ctl.next_bseq += 1;
                    ctl.pending.insert(bseq, Pending::Internal);
                    let frame = Request::ReadFloor { epoch: floor }.encode(bseq);
                    if let Some(w) = session.slots[slot_idx].writer.lock().as_mut() {
                        let _ = write_frame(w, &frame);
                    }
                }
            }
            shared
                .stats
                .backend_connects
                .fetch_add(1, Ordering::Relaxed);
            // Hand the read half to the pump: push *then* notify, so
            // the pump can't wake without seeing the registration.
            session
                .handoff
                .lock()
                .push((slot_idx, ctl.generation, pump_half));
            if !session.pump_started.swap(true, Ordering::SeqCst) {
                scope.spawn(move || backend_pump(session));
            }
            let _ = session.poller.notify();
            Ok(())
        }
        Err(e) => {
            ctl.back_off(config);
            shared.stats.shard_failures.fetch_add(1, Ordering::Relaxed);
            Err(format!("shard {shard} is unreachable: {e}"))
        }
    }
}

/// Tear down one slot's connection: mark it dead, start the backoff
/// clock, and answer every pending request with `Unavailable`. Safe to
/// call from any thread; only the first caller acts. `generation` is
/// the connection the caller saw fail — if the slot has already been
/// torn down *and redialed* since, the report is stale and ignored.
fn fail_slot(session: &Session<'_>, slot_idx: usize, generation: u64, why: &str) {
    let shard = slot_idx % session.shared.map.shard_count();
    let slot = &session.slots[slot_idx];
    let drained: Vec<(u64, Pending)> = {
        let mut ctl = slot.ctl.lock();
        if !ctl.alive || ctl.generation != generation {
            return; // already torn down (or a successor is up)
        }
        ctl.alive = false;
        if let Some(raw) = ctl.raw.take() {
            let _ = raw.shutdown(Shutdown::Both);
        }
        ctl.back_off(&session.shared.config);
        ctl.pending.drain().collect()
    };
    *slot.writer.lock() = None;
    session
        .shared
        .stats
        .shard_failures
        .fetch_add(1, Ordering::Relaxed);
    for (_, pending) in drained {
        let err = RemoteError::Unavailable(format!("shard {shard}: {why}; request not retried"));
        let _ = session.settle(pending, Err(err));
    }
    // The drained answers must not sit in the buffer: the client loop
    // doesn't know we wrote them.
    let _ = session.client_writer.lock().flush();
}

/// One live backend connection as the pump sees it: the read half
/// (registered with the poller under a session-unique key) and its
/// frame-reassembly buffer.
struct PumpConn {
    slot_idx: usize,
    /// The slot generation this connection was dialed under; failure
    /// reports carry it so they can't hit a successor connection.
    generation: u64,
    stream: TcpStream,
    fbuf: FrameBuffer,
}

/// What one pump step decided about a connection.
enum PumpStatus {
    /// Connection healthy, keep it registered.
    Keep,
    /// Connection faulted: fail the slot and drop the registration.
    Drop(&'static str),
    /// The *client* writer is dead — the session is tearing down, so
    /// the pump exits wholesale.
    ClientGone,
}

/// The session's backend-response pump: one thread multiplexing every
/// live shard connection through an epoll [`Poller`], replacing the
/// old reader-thread-per-backend design.
///
/// Backend sockets stay **blocking** — under level-triggered readiness
/// a single `read` per readable event cannot block (readable means at
/// least one byte, or EOF/error, is waiting), and the blocking writer
/// halves used by [`forward`] keep their simple `BufWriter` semantics.
/// New connections arrive through `Session::handoff` (pushed before a
/// [`Poller::notify`]); dead ones are noticed by the HUP their
/// shutdown causes. Each registration gets a fresh key, so a stale
/// event for a replaced connection can never be misread as its
/// successor's.
fn backend_pump(session: &Session<'_>) {
    let mut conns: HashMap<usize, PumpConn> = HashMap::new();
    let mut next_key = 0usize;
    let mut events = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    // Reused across frames: the response renamed for the client.
    let mut renamed = Writer::new();
    loop {
        if session.poller.wait(&mut events, None).is_err() {
            return;
        }
        if session.hangup.load(Ordering::Acquire) {
            return; // teardown: shutdown_backends owns the sockets
        }
        // Register connections dialed since the last round. Drained to
        // a local vec first: fail_slot takes ctl locks, and ensure_conn
        // pushes here *while holding* a ctl lock.
        let fresh: Vec<_> = session.handoff.lock().drain(..).collect();
        for (slot_idx, generation, stream) in fresh {
            let key = next_key;
            next_key += 1;
            if session.poller.add(&stream, Event::readable(key)).is_err() {
                fail_slot(session, slot_idx, generation, "pump registration failed");
                continue;
            }
            conns.insert(
                key,
                PumpConn {
                    slot_idx,
                    generation,
                    stream,
                    fbuf: FrameBuffer::new(),
                },
            );
        }
        let mut wrote = false;
        for ev in &events {
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue; // stale event for a dropped registration
            };
            match pump_step(session, conn, &mut scratch, &mut renamed, &mut wrote) {
                PumpStatus::Keep => {}
                PumpStatus::Drop(why) => {
                    let conn = conns.remove(&ev.key).expect("checked above");
                    fail_slot(session, conn.slot_idx, conn.generation, why);
                    // Deregister before the dup closes on drop.
                    let _ = session.poller.delete(&conn.stream);
                }
                PumpStatus::ClientGone => return,
            }
        }
        // One flush per readiness round: responses from every backend
        // that spoke this round share it.
        if wrote && session.client_writer.lock().flush().is_err() {
            return;
        }
    }
}

/// Service one readable event: a single `read` (safe on the blocking
/// socket — the event guarantees it won't park), then every complete
/// frame it yields.
fn pump_step(
    session: &Session<'_>,
    conn: &mut PumpConn,
    scratch: &mut [u8],
    renamed: &mut Writer,
    wrote: &mut bool,
) -> PumpStatus {
    let n = match (&conn.stream).read(scratch) {
        Ok(0) => return PumpStatus::Drop("connection lost"),
        Ok(n) => n,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return PumpStatus::Keep,
        Err(_) => return PumpStatus::Drop("connection lost"),
    };
    conn.fbuf.extend(&scratch[..n]);
    let slot_idx = conn.slot_idx;
    loop {
        match conn.fbuf.next_frame() {
            Ok(None) => return PumpStatus::Keep,
            Ok(Some(payload)) => {
                match on_backend_frame(session, slot_idx, payload, renamed, wrote) {
                    FrameVerdict::Answered => {}
                    FrameVerdict::Fault(why) => return PumpStatus::Drop(why),
                    FrameVerdict::ClientGone => return PumpStatus::ClientGone,
                }
            }
            Err(_) => {
                // A backend framing its stream wrong can't be trusted
                // for anything in flight: kill the connection, which
                // answers every pending request cleanly.
                session
                    .shared
                    .stats
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return PumpStatus::Drop("undecodable response from shard");
            }
        }
    }
}

/// What correlating one backend frame concluded.
enum FrameVerdict {
    Answered,
    Fault(&'static str),
    ClientGone,
}

/// Correlate one backend frame with its pending entry, rename its ids
/// into client space, and answer the client. `*wrote` records that the
/// client writer now holds unflushed bytes — the pump flushes once per
/// readiness round.
fn on_backend_frame(
    session: &Session<'_>,
    slot_idx: usize,
    payload: &[u8],
    renamed: &mut Writer,
    wrote: &mut bool,
) -> FrameVerdict {
    let map = session.shared.map;
    let shard = slot_idx % map.shard_count();
    let protocol_error = || {
        session
            .shared
            .stats
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    };
    let Ok((bseq, body)) = split_seq(payload) else {
        protocol_error();
        return FrameVerdict::Fault("undecodable response from shard");
    };
    let pending = session.slots[slot_idx].ctl.lock().pending.remove(&bseq);
    // The pending entry is already removed, so this frame owns the
    // answer for `bseq` — on an undecodable payload it answers with
    // the exact `Unavailable` the failure path gives everything else
    // in flight, then has the connection torn down.
    let undecodable = || {
        protocol_error();
        RemoteError::Unavailable(format!(
            "shard {shard}: undecodable response from shard; request not retried"
        ))
    };
    match pending {
        None => {
            // A response nothing asked for; ignoring it would leave
            // the correlation state suspect, so treat as a fault.
            protocol_error();
            FrameVerdict::Fault("response with unknown sequence id")
        }
        Some(Pending::Internal) => FrameVerdict::Answered, // the `ReadFloor` pin's ack
        Some(Pending::Single { client_seq }) => {
            *wrote = true;
            match to_client(body, map, shard, client_seq, renamed) {
                Ok(()) => match session.send_client_bytes(renamed.as_bytes(), false) {
                    Ok(()) => FrameVerdict::Answered,
                    Err(_) => FrameVerdict::ClientGone,
                },
                Err(_) => {
                    let _ = session.settle(Pending::Single { client_seq }, Err(undecodable()));
                    FrameVerdict::Fault("undecodable response from shard")
                }
            }
        }
        Some(part @ Pending::Part(_)) => {
            // A part is merged, so after the same walk it is decoded.
            let outcome = to_client(body, map, shard, 0, renamed)
                .and_then(|()| Response::decode(renamed.as_bytes()))
                .map(|(_, response)| response)
                .map_err(|_| undecodable());
            let failed = outcome.is_err();
            *wrote = true;
            if session.settle(part, outcome).is_err() {
                FrameVerdict::ClientGone
            } else if failed {
                FrameVerdict::Fault("undecodable response from shard")
            } else {
                FrameVerdict::Answered
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DiffSummary, StorageCounters, OPCODE_COUNT};
    use ode::{MergeConflict, MergePolicy, TypeTag};
    use proptest::prelude::*;

    /// What `route` decided, with a single-shard route's forwarded
    /// bytes decoded back into a request.
    #[derive(Debug, PartialEq)]
    enum Routed {
        Local(Response),
        Single { shard: usize, backend: Request },
        Gather,
    }

    fn routed(req: &Request, map: ShardMap, rr: &AtomicU64) -> Routed {
        let mut out = Writer::new();
        let payload = req.encode(77);
        let (seq, _, route) = route(&payload, map, rr, &mut out).expect("well-formed frame");
        assert_eq!(seq, 77);
        match route {
            Route::Local(resp) => Routed::Local(*resp),
            Route::Gather(_) => Routed::Gather,
            Route::Single { shard, is_read } => {
                assert_eq!(is_read, req.is_read());
                let mut payload = vec![0];
                payload.extend_from_slice(out.as_bytes());
                let (_, backend) = Request::decode(&payload).expect("forwarded bytes decode");
                Routed::Single { shard, backend }
            }
        }
    }

    /// A shard's response as the client sees it.
    fn client_view(resp: &Response, map: ShardMap, shard: usize) -> Response {
        let payload = resp.encode(5);
        let (_, body) = split_seq(&payload).unwrap();
        let mut out = Writer::new();
        to_client(body, map, shard, 9, &mut out).expect("well-formed response");
        let (seq, seen) = Response::decode(out.as_bytes()).expect("renamed bytes decode");
        assert_eq!(seq, 9);
        seen
    }

    fn is_bad_request(routed: &Routed) -> bool {
        matches!(
            routed,
            Routed::Local(Response::Err(RemoteError::BadRequest(_)))
        )
    }

    #[test]
    fn stats_scatter_sums_counters_and_per_opcode_counts() {
        let a = StatsReport {
            active_connections: 1,
            total_connections: 2,
            bytes_in: 10,
            bytes_out: 20,
            protocol_errors: 0,
            op_errors: 1,
            snapshot_hits: 5,
            snapshot_misses: 2,
            slow_client_evictions: 1,
            materialize_hits: 4,
            materialize_misses: 2,
            requests: vec![(Opcode::Pnew, 3), (Opcode::Deref, 4)],
            storage: StorageCounters {
                read_txs: 10,
                write_txs: 3,
                group_batch_max: 4,
                replica_lag_epochs: 2,
                write_conflicts: 2,
                write_retries: 1,
                ..Default::default()
            },
        };
        let b = StatsReport {
            active_connections: 2,
            total_connections: 3,
            bytes_in: 100,
            bytes_out: 200,
            protocol_errors: 1,
            op_errors: 0,
            snapshot_hits: 7,
            snapshot_misses: 1,
            slow_client_evictions: 2,
            materialize_hits: 1,
            materialize_misses: 3,
            requests: vec![(Opcode::Deref, 6), (Opcode::Ping, 1)],
            storage: StorageCounters {
                read_txs: 20,
                write_txs: 5,
                group_batch_max: 2,
                replica_lag_epochs: 7,
                write_conflicts: 3,
                write_retries: 2,
                ..Default::default()
            },
        };
        let mut g = Gather::new(9, GatherKind::Stats, 2);
        assert!(g.complete_part(Ok(Response::Stats(a))).is_none());
        let Some(Response::Stats(merged)) = g.complete_part(Ok(Response::Stats(b))) else {
            panic!("two stats parts merge into a stats response");
        };
        assert_eq!(merged.active_connections, 3);
        assert_eq!(merged.total_connections, 5);
        assert_eq!(merged.bytes_in, 110);
        assert_eq!(merged.bytes_out, 220);
        assert_eq!(merged.protocol_errors, 1);
        assert_eq!(merged.op_errors, 1);
        assert_eq!(merged.snapshot_hits, 12);
        assert_eq!(merged.snapshot_misses, 3);
        assert_eq!(merged.slow_client_evictions, 3);
        assert_eq!(merged.materialize_hits, 5);
        assert_eq!(merged.materialize_misses, 5);
        assert_eq!(merged.storage.read_txs, 30);
        assert_eq!(merged.storage.write_txs, 8);
        assert_eq!(merged.storage.write_conflicts, 5);
        assert_eq!(merged.storage.write_retries, 3);
        // The two `max` rules: the largest cohort any one shard saw,
        // and the worst replica lag in the tier — neither is a sum.
        assert_eq!(merged.storage.group_batch_max, 4);
        assert_eq!(merged.storage.replica_lag_epochs, 7);
        assert_eq!(merged.requests_for(Opcode::Deref), 10);
        assert_eq!(merged.requests_for(Opcode::Pnew), 3);
        assert_eq!(merged.requests_for(Opcode::Ping), 1);
        // Wire order (the order a single server reports) is preserved.
        assert_eq!(
            merged.requests,
            vec![(Opcode::Ping, 1), (Opcode::Pnew, 3), (Opcode::Deref, 10)]
        );
    }

    #[test]
    fn extent_scatter_merges_sorted_and_truncates_pages() {
        let parts = [
            vec![Oid(4), Oid(8), Oid(12)],
            vec![Oid(1), Oid(5)],
            vec![Oid(2), Oid(6), Oid(10)],
        ];
        let merge = |limit| {
            let mut g = Gather::new(9, GatherKind::Objects { limit }, 3);
            let mut merged = None;
            for part in &parts {
                assert!(merged.is_none());
                merged = g.complete_part(Ok(Response::Objects(part.clone())));
            }
            merged.expect("the last part completes the scatter")
        };
        let all = [1, 2, 4, 5, 6, 8, 10, 12].map(Oid).to_vec();
        assert_eq!(merge(None), Response::Objects(all));
        assert_eq!(
            merge(Some(3)),
            Response::Objects(vec![Oid(1), Oid(2), Oid(4)])
        );
    }

    #[test]
    fn responses_translate_every_embedded_id() {
        let map = ShardMap::new(4);
        let s = 2;
        let view = |resp| client_view(&resp, map, s);
        assert_eq!(
            view(Response::Created {
                oid: Oid(3),
                vid: Vid(5)
            }),
            Response::Created {
                oid: Oid(14),
                vid: Vid(22)
            }
        );
        assert_eq!(view(Response::Version(Vid(1))), Response::Version(Vid(6)));
        assert_eq!(
            view(Response::Body {
                vid: Vid(2),
                bytes: vec![9, 200]
            }),
            Response::Body {
                vid: Vid(10),
                bytes: vec![9, 200]
            }
        );
        assert_eq!(
            view(Response::MaybeVersion(Some(Vid(1)))),
            Response::MaybeVersion(Some(Vid(6)))
        );
        assert_eq!(
            view(Response::Versions(vec![Vid(1), Vid(2)])),
            Response::Versions(vec![Vid(6), Vid(10)])
        );
        assert_eq!(
            view(Response::Objects(vec![Oid(0), Oid(3)])),
            Response::Objects(vec![Oid(2), Oid(14)])
        );
        assert_eq!(view(Response::Object(Oid(3))), Response::Object(Oid(14)));
        assert_eq!(
            view(Response::Err(RemoteError::UnknownObject(Oid(3)))),
            Response::Err(RemoteError::UnknownObject(Oid(14)))
        );
        assert_eq!(
            view(Response::Err(RemoteError::LastVersion(Vid(1)))),
            Response::Err(RemoteError::LastVersion(Vid(6)))
        );
        // Shapes without ids pass through untouched — a type tag is
        // not an id.
        for plain in [
            Response::Unit,
            Response::Count(7),
            Response::Flag(true),
            Response::MaybeVersion(None),
            Response::Err(RemoteError::TypeMismatch {
                expected: TypeTag(3),
                found: TypeTag(5),
            }),
        ] {
            assert_eq!(view(plain.clone()), plain);
        }
        // A diff's endpoint vids are remapped; the delta metrics are
        // shard-agnostic and pass through.
        let d = DiffSummary {
            from: Vid(1),
            to: Vid(2),
            to_len: 600,
            ops: 3,
            literal_bytes: 12,
            encoded_bytes: 30,
            stored: true,
        };
        assert_eq!(
            view(Response::Diff(d)),
            Response::Diff(DiffSummary {
                from: Vid(6),
                to: Vid(10),
                ..d
            })
        );
    }

    #[test]
    fn history_and_diff_route_to_the_owning_shard() {
        let map = ShardMap::new(3);
        let rr = AtomicU64::new(0);
        let history = |oid, from, to| {
            routed(
                &Request::HistoryBetween {
                    oid: Oid(oid),
                    from,
                    to,
                },
                map,
                &rr,
            )
        };
        // Oid 7 lives on shard 1; client stamps [4, 22] on shard 1 are
        // {4, 7, 10, 13, 16, 19, 22} = backend stamps 1..=7.
        let shard_1 = |from, to| Routed::Single {
            shard: 1,
            backend: Request::HistoryBetween {
                oid: Oid(2),
                from,
                to,
            },
        };
        assert_eq!(history(7, 4, 22), shard_1(1, 7));
        // Bounds between two of the shard's stamps round inwards: 5
        // and 6 are not shard 1's, nor are 23 and 24.
        assert_eq!(history(7, 5, 24), shard_1(2, 7));
        assert_eq!(history(7, 6, 23), shard_1(2, 7));
        // A range no stamp of shard 2 can fall in answers locally, and
        // so does one that runs backwards.
        let empty = Routed::Local(Response::Versions(Vec::new()));
        assert_eq!(history(2, 0, 1), empty);
        assert_eq!(history(7, 9, 8), empty);
        // Same shard: forwarded with both vids translated.
        let diff = |from, to| {
            routed(
                &Request::DiffVersions {
                    from: Vid(from),
                    to: Vid(to),
                },
                map,
                &rr,
            )
        };
        assert_eq!(
            diff(4, 7),
            Routed::Single {
                shard: 1,
                backend: Request::DiffVersions {
                    from: Vid(1),
                    to: Vid(2),
                },
            }
        );
        // Cross-shard endpoints are refused by the router itself.
        assert!(is_bad_request(&diff(4, 8)));
    }

    #[test]
    fn merge_routes_like_diff_and_remaps_only_the_version() {
        let map = ShardMap::new(3);
        let rr = AtomicU64::new(0);
        let merge = |a, b, policy| {
            routed(
                &Request::Merge {
                    a: Vid(a),
                    b: Vid(b),
                    policy,
                },
                map,
                &rr,
            )
        };
        // Same shard: forwarded with both parent vids translated and
        // the policy untouched.
        assert_eq!(
            merge(4, 7, MergePolicy::Ours),
            Routed::Single {
                shard: 1,
                backend: Request::Merge {
                    a: Vid(1),
                    b: Vid(2),
                    policy: MergePolicy::Ours,
                },
            }
        );
        // Cross-shard parents are refused by the router itself.
        assert!(is_bad_request(&merge(4, 8, MergePolicy::Fail)));
        // Translation maps the minted vid back to client space and
        // leaves the conflict byte ranges alone.
        let conflicts = vec![MergeConflict {
            base_start: 3,
            base_end: 9,
            ours: vec![1],
            theirs: vec![2],
        }];
        assert_eq!(
            client_view(
                &Response::Merged {
                    vid: Some(Vid(2)),
                    conflicts: conflicts.clone(),
                },
                map,
                1,
            ),
            Response::Merged {
                vid: Some(Vid(7)),
                conflicts,
            }
        );
    }

    #[test]
    fn pnew_places_round_robin_and_keyed_requests_follow_their_id() {
        let map = ShardMap::new(3);
        let rr = AtomicU64::new(0);
        let pnew = Request::Pnew {
            tag: TypeTag(1),
            body: vec![7, 200],
        };
        for expect in [0usize, 1, 2, 0, 1] {
            // Placed, and forwarded as it came.
            assert_eq!(
                routed(&pnew, map, &rr),
                Routed::Single {
                    shard: expect,
                    backend: pnew.clone(),
                }
            );
        }
        // Oid 7 on 3 shards: shard 1, backend id 2.
        assert_eq!(
            routed(
                &Request::Deref {
                    oid: Oid(7),
                    tag: TypeTag(1),
                },
                map,
                &rr,
            ),
            Routed::Single {
                shard: 1,
                backend: Request::Deref {
                    oid: Oid(2),
                    tag: TypeTag(1),
                },
            }
        );
    }

    #[test]
    fn every_row_takes_the_route_its_routing_column_names() {
        let map = ShardMap::new(3);
        let rr = AtomicU64::new(0);
        for op in Opcode::ALL {
            // Every id 22: one shard (1), and a non-empty stamp range.
            let req = Request::sample(op, || 22, &[1, 2, 3]);
            let got = routed(&req, map, &rr);
            match op.routing() {
                Routing::Local if op == Opcode::Ping => {
                    assert_eq!(got, Routed::Local(Response::Pong))
                }
                // `Epoch`, `ReadFloor`, `Promote` concern one node: the
                // tier refuses them rather than guess which.
                Routing::Local => assert!(is_bad_request(&got), "{op:?} must be refused"),
                Routing::Scatter => assert_eq!(got, Routed::Gather, "{op:?}"),
                Routing::Placed => {
                    assert!(matches!(got, Routed::Single { .. }), "{op:?}")
                }
                Routing::Keyed => {
                    assert!(matches!(got, Routed::Single { shard: 1, .. }), "{op:?}")
                }
            }
        }
        let local: Vec<Opcode> = Opcode::ALL
            .into_iter()
            .filter(|op| op.routing() == Routing::Local)
            .collect();
        assert_eq!(
            local,
            [
                Opcode::Ping,
                Opcode::Epoch,
                Opcode::ReadFloor,
                Opcode::Promote
            ]
        );
    }

    #[test]
    fn a_gather_answers_exactly_once_even_with_failures() {
        let mut g = Gather::new(9, GatherKind::Objects { limit: None }, 3);
        assert!(g
            .complete_part(Ok(Response::Objects(vec![Oid(3)])))
            .is_none());
        assert!(g
            .complete_part(Err(RemoteError::Unavailable("down".into())))
            .is_none());
        let last = g.complete_part(Ok(Response::Objects(vec![Oid(2)])));
        assert_eq!(
            last,
            Some(Response::Err(RemoteError::Unavailable("down".into())))
        );
        // Late or duplicate parts after completion are swallowed.
        assert!(g.complete_part(Ok(Response::Objects(vec![]))).is_none());
    }

    // -- the walker against decode -> rename -> encode ---------------------

    /// The reference the one path is checked against: decode the
    /// request, rename its ids one variant at a time, say where it
    /// goes. `Err(())` is a refusal, `Ok(None)` a locally answered
    /// empty stamp range.
    fn reference_to_backend(
        mut req: Request,
        map: ShardMap,
    ) -> Result<Option<(usize, Request)>, ()> {
        use Request as R;
        let shard = match &mut req {
            R::Deref { oid, .. }
            | R::Update { oid, .. }
            | R::NewVersion { oid }
            | R::Pdelete { oid }
            | R::VersionHistory { oid }
            | R::CurrentVersion { oid }
            | R::VersionCount { oid }
            | R::Exists { oid } => {
                let shard = map.shard_of(*oid);
                *oid = map.backend_oid(*oid);
                shard
            }
            R::DerefVersion { vid, .. }
            | R::UpdateVersion { vid, .. }
            | R::NewVersionFrom { vid }
            | R::PdeleteVersion { vid }
            | R::Dprevious { vid }
            | R::Dnext { vid }
            | R::Tprevious { vid }
            | R::Tnext { vid }
            | R::ObjectOf { vid }
            | R::VersionExists { vid } => {
                let shard = map.shard_of_vid(*vid);
                *vid = map.backend_vid(*vid);
                shard
            }
            R::DiffVersions { from: a, to: b } | R::Merge { a, b, .. } => {
                let shard = map.shard_of_vid(*a);
                if map.shard_of_vid(*b) != shard {
                    return Err(());
                }
                *a = map.backend_vid(*a);
                *b = map.backend_vid(*b);
                shard
            }
            R::HistoryBetween { oid, from, to } => {
                let shard = map.shard_of(*oid);
                let (n, s) = (map.shard_count() as u64, shard as u64);
                // Backend stamp b is client stamp b * n + s.
                if *from > *to || *to < s {
                    return Ok(None);
                }
                *oid = map.backend_oid(*oid);
                *from = from.saturating_sub(s).div_ceil(n);
                *to = (*to - s) / n;
                shard
            }
            other => panic!("{:?} is not keyed", other.opcode()),
        };
        Ok(Some((shard, req)))
    }

    /// The reference for the way back: every id a response embeds,
    /// one variant at a time.
    fn reference_to_client(resp: Response, map: ShardMap, shard: usize) -> Response {
        let oid = |o| map.client_oid(o, shard);
        let vid = |v| map.client_vid(v, shard);
        match resp {
            Response::Created { oid: o, vid: v } => Response::Created {
                oid: oid(o),
                vid: vid(v),
            },
            Response::Version(v) => Response::Version(vid(v)),
            Response::Body { vid: v, bytes } => Response::Body { vid: vid(v), bytes },
            Response::MaybeVersion(v) => Response::MaybeVersion(v.map(vid)),
            Response::Versions(vs) => Response::Versions(vs.into_iter().map(vid).collect()),
            Response::Objects(os) => Response::Objects(os.into_iter().map(oid).collect()),
            Response::Object(o) => Response::Object(oid(o)),
            Response::Diff(d) => Response::Diff(DiffSummary {
                from: vid(d.from),
                to: vid(d.to),
                ..d
            }),
            Response::Merged { vid: v, conflicts } => Response::Merged {
                vid: v.map(vid),
                conflicts,
            },
            Response::Err(e) => Response::Err(match e {
                RemoteError::UnknownObject(o) => RemoteError::UnknownObject(oid(o)),
                RemoteError::UnknownVersion(v) => RemoteError::UnknownVersion(vid(v)),
                RemoteError::LastVersion(v) => RemoteError::LastVersion(vid(v)),
                other => other,
            }),
            other => other, // Pong, Stats, Unit, Count, Flag: no ids
        }
    }

    /// Ids small enough that minting a client id cannot overflow.
    fn arb_id() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..64, 0u64..(1 << 56)]
    }

    fn arb_body() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..300)
    }

    fn arb_response() -> BoxedStrategy<Response> {
        let vid = || arb_id().prop_map(Vid);
        let oid = || arb_id().prop_map(Oid);
        let conflict = (any::<u64>(), any::<u64>(), arb_body(), arb_body()).prop_map(
            |(base_start, base_end, ours, theirs)| MergeConflict {
                base_start,
                base_end,
                ours,
                theirs,
            },
        );
        let error = prop_oneof![
            oid().prop_map(RemoteError::UnknownObject),
            vid().prop_map(RemoteError::UnknownVersion),
            vid().prop_map(RemoteError::LastVersion),
            (any::<u64>(), any::<u64>()).prop_map(|(a, b)| RemoteError::TypeMismatch {
                expected: TypeTag(a),
                found: TypeTag(b),
            }),
            ".*".prop_map(RemoteError::Storage),
            ".*".prop_map(RemoteError::BadRequest),
            ".*".prop_map(RemoteError::Unavailable),
        ];
        let words = || any::<(u64, u64, u64, u64)>();
        let maybe_vid = || (any::<bool>(), vid()).prop_map(|(some, vid)| some.then_some(vid));
        let diff = (vid(), vid(), words(), any::<bool>()).prop_map(
            |(from, to, (to_len, ops, literal_bytes, encoded_bytes), stored)| DiffSummary {
                from,
                to,
                to_len,
                ops,
                literal_bytes,
                encoded_bytes,
                stored,
            },
        );
        let stats = (words(), 0usize..OPCODE_COUNT).prop_map(|(n, op)| StatsReport {
            bytes_in: n.0,
            op_errors: n.1,
            requests: vec![(Opcode::ALL[op], n.2)],
            storage: StorageCounters {
                replica_lag_epochs: n.3,
                ..Default::default()
            },
            ..Default::default()
        });
        prop_oneof![
            Just(Response::Pong),
            stats.prop_map(Response::Stats),
            (oid(), vid()).prop_map(|(oid, vid)| Response::Created { oid, vid }),
            vid().prop_map(Response::Version),
            (vid(), arb_body()).prop_map(|(vid, bytes)| Response::Body { vid, bytes }),
            Just(Response::Unit),
            maybe_vid().prop_map(Response::MaybeVersion),
            proptest::collection::vec(vid(), 0..40).prop_map(Response::Versions),
            proptest::collection::vec(oid(), 0..40).prop_map(Response::Objects),
            oid().prop_map(Response::Object),
            any::<u64>().prop_map(Response::Count),
            any::<bool>().prop_map(Response::Flag),
            diff.prop_map(Response::Diff),
            (maybe_vid(), proptest::collection::vec(conflict, 0..4))
                .prop_map(|(vid, conflicts)| Response::Merged { vid, conflicts }),
            error.prop_map(Response::Err),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn keyed_requests_are_renamed_exactly_as_decode_rename_encode_would(
            op in 0usize..OPCODE_COUNT,
            shards in 1usize..=8,
            words in proptest::collection::vec(prop_oneof![0u64..32, any::<u64>()], 3),
            body in arb_body(),
        ) {
            let keyed: Vec<Opcode> = Opcode::ALL
                .into_iter()
                .filter(|op| op.routing() == Routing::Keyed)
                .collect();
            let op = keyed[op % keyed.len()];
            let map = ShardMap::new(shards);
            let mut words = words.into_iter().cycle();
            let req = Request::sample(op, || words.next().unwrap(), &body);
            let mut out = Writer::new();
            let payload = req.encode(3);
            let (_, _, got) = route(&payload, map, &AtomicU64::new(0), &mut out).unwrap();
            match (reference_to_backend(req, map), got) {
                (Ok(Some((shard, backend))), Route::Single { shard: got, is_read }) => {
                    prop_assert_eq!(got, shard);
                    prop_assert_eq!(is_read, op.is_read());
                    // Seq 0 is the one leading zero byte.
                    prop_assert_eq!(out.as_bytes(), &backend.encode(0)[1..]);
                }
                (Ok(None), Route::Local(resp)) => {
                    prop_assert_eq!(*resp, Response::Versions(Vec::new()));
                }
                (Err(()), Route::Local(resp)) => {
                    prop_assert!(matches!(*resp, Response::Err(RemoteError::BadRequest(_))));
                }
                (expected, _) => prop_assert!(false, "{:?}: reference says {:?}", op, expected),
            }
        }

        #[test]
        fn responses_are_renamed_exactly_as_decode_rename_encode_would(
            resp in arb_response(),
            shards in 1usize..=8,
            shard in 0usize..8,
            seq: u64,
        ) {
            let map = ShardMap::new(shards);
            let shard = shard % shards;
            let payload = resp.encode(1);
            let (_, body) = split_seq(&payload).unwrap();
            let mut out = Writer::new();
            to_client(body, map, shard, seq, &mut out).unwrap();
            prop_assert_eq!(out.as_bytes(), reference_to_client(resp, map, shard).encode(seq));
        }

        #[test]
        fn damaged_frames_are_errors_never_panics(
            resp in arb_response(),
            op in 0usize..OPCODE_COUNT,
            words in proptest::collection::vec(any::<u64>(), 3),
            body in arb_body(),
            cut: usize,
            garbage in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let map = ShardMap::new(3);
            let rr = AtomicU64::new(0);
            let mut out = Writer::new();
            let mut words = words.into_iter().cycle();
            let request = Request::sample(Opcode::ALL[op], || words.next().unwrap(), &body);
            let request = request.encode(300);
            let response = resp.encode(300);
            // Cut anywhere before the end, a field is missing: the walk
            // must say so where a decode would.
            let cut_req = &request[..cut % request.len()];
            prop_assert_eq!(
                route(cut_req, map, &rr, &mut out).is_ok(),
                Request::decode(cut_req).is_ok()
            );
            let cut_resp = &response[..cut % response.len()];
            let walked = split_seq(cut_resp).and_then(|(_, b)| to_client(b, map, 1, 0, &mut out));
            prop_assert_eq!(walked.is_ok(), Response::decode(cut_resp).is_ok());
            // Garbage, and well-formed frames with garbage appended.
            for tail in [&garbage[..], &[request.clone(), garbage.clone()].concat()[..]] {
                prop_assert_eq!(
                    route(tail, map, &rr, &mut out).is_ok(),
                    Request::decode(tail).is_ok()
                );
            }
            for tail in [&garbage[..], &[response.clone(), garbage.clone()].concat()[..]] {
                let walked = split_seq(tail).and_then(|(_, b)| to_client(b, map, 1, 0, &mut out));
                prop_assert_eq!(walked.is_ok(), Response::decode(tail).is_ok());
            }
        }
    }
}
