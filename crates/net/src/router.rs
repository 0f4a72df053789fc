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
//! Distribution must be invisible to a program's result, so the router
//! changes nothing in a frame but its sequence id. Each shard issues
//! its ids from its own residue — shard `s` of `N` claims the ids `≡ s
//! (mod N)` with a `ClaimIds` request on every connection the router
//! dials — so an id means the same thing to a client, to the router and
//! to the shard that owns it. A request is decoded once, by the
//! server's own decoder (a frame it refuses is the `BadRequest` a
//! server would have answered); its ids ([`Request::ids`]) name the
//! shard, and the client's operation bytes go there as they came. A
//! shard's result bytes go back to the client as they came. There is
//! no per-opcode routing code: what a request needs is read off its row
//! of the wire table ([`Opcode::routing`], [`Opcode::is_read`]). An id
//! on a second shard is a `BadRequest` (`DiffVersions` and `Merge`
//! across objects fall out of that rule). A node that holds another
//! claim — a reordered backend list, a store with dense ids behind a
//! wider tier — refuses the dial, and its shard answers `Unavailable`
//! while the others serve.
//!
//! ## Threads
//!
//! The router runs on the server's event loop: a few threads (one per
//! core, 4 to 16) wait on one poller holding the listener, every client
//! socket and every backend socket, all oneshot and nonblocking, and one
//! more thread probes shard health. A session — a client and the
//! backend connections it dials — costs sockets and buffers, never a
//! thread. Whichever of its sockets an event names, the claiming thread
//! runs a turn of the whole session, under the event loop's one session
//! discipline ([`crate::event_loop`]) that runs a server connection too:
//! a thread that finds the session in another's turn leaves a note the
//! holder drains, and never waits, and a socket is re-armed when its
//! event was claimed or its interest changed.
//!
//! A shard is dialed inside the turn that first needs it (connect,
//! handshake and id claim, bounded by [`RouterConfig::connect_timeout`]),
//! blocking only that thread. Backpressure: a client is not read while
//! a backend it feeds is backlogged, and a session's backends are not
//! read while its client is backlogged, so the kernel's windows make the
//! far ends wait instead of the router's buffers growing.
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
//! high-water marks — see [`StatsReport::merge`]), extent scans
//! merge-sort by id (`ObjectsPage` sends every shard the client's
//! cursor and re-truncates to the requested limit). A scatter fails as
//! a whole if any shard is down — partial extents would be silent lies.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ode::Oid;
use parking_lot::Mutex;
use polling::Event;

use crate::client::{ClientConfig, OdeClient};
use crate::error::RemoteError;
use crate::event_loop::{default_threads, Pool, Service, Session, Wire, PIPELINE_DEPTH};
use crate::protocol::{
    handshake, read_frame, split_seq, write_frame, Request, Response, Routing, StatsReport,
};
use crate::shard::ShardMap;
use crate::NetError;

/// Ceiling of a shard's reconnect-backoff window.
const RECONNECT_BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
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

/// One turn's routing counts, added to the shared [`RouterStats`] once,
/// when the turn has routed its frames.
#[derive(Default)]
struct RouteTally {
    forwarded: u64,
    answered_locally: u64,
    gathers: u64,
    replica_reads: u64,
}

impl RouteTally {
    fn publish(self, stats: &RouterStats) {
        let counts = [
            (&stats.forwarded, self.forwarded),
            (&stats.answered_locally, self.answered_locally),
            (&stats.gathers, self.gathers),
            (&stats.replica_reads, self.replica_reads),
        ];
        for (counter, n) in counts {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// State shared by every session of one router.
struct RouterShared {
    membership: Membership,
    map: ShardMap,
    config: RouterConfig,
    stats: RouterStats,
    /// Round-robin cursor for `Pnew` placement: new objects have no id
    /// yet, so the router picks their shard and the id the shard issues
    /// from its residue then carries the placement forever.
    next_pnew_shard: AtomicU64,
    pool: Pool<SessionState>,
}

impl RouterShared {
    fn new(
        addr: impl ToSocketAddrs,
        members: Vec<ShardMembership>,
        config: RouterConfig,
    ) -> io::Result<RouterShared> {
        Ok(RouterShared {
            map: ShardMap::new(members.len()),
            membership: Membership::new(members),
            config,
            stats: RouterStats::default(),
            next_pnew_shard: AtomicU64::new(0),
            pool: Pool::bind(addr)?,
        })
    }
}

impl Service for RouterShared {
    type State = SessionState;

    fn pool(&self) -> &Pool<SessionState> {
        &self.pool
    }

    /// Open a session for an accepted client and register its socket.
    fn accept(&self, client: TcpStream) {
        let key = self.pool.next_key();
        let fd = client.as_raw_fd();
        let client = Wire::new(client, key, false);
        let session = Session::new(SessionState::new(client, self.map.shard_count()));
        if self.pool.register(key, &session, &fd).is_ok() {
            self.stats
                .client_connections
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn turn(
        &self,
        state: &mut SessionState,
        session: &Arc<Session<SessionState>>,
        fired: &[usize],
        scratch: &mut [u8],
    ) -> bool {
        state.turn(self, session, fired, scratch)
    }

    /// Close the client and every backend connection.
    fn end(&self, state: &mut SessionState) {
        for slot in &mut state.slots {
            if let Some(mut conn) = slot.conn.take() {
                conn.close(&self.pool);
            }
        }
        state.client.close(&self.pool);
    }
}

/// A running shard router. See the module docs.
pub struct OdeRouter {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    prober_handle: Option<JoinHandle<()>>,
    threads: Vec<JoinHandle<()>>,
}

impl OdeRouter {
    /// Bind `addr` (port 0 picks a free port) and start routing to
    /// `backends`, each a single-node shard with no replicas. The order
    /// of `backends` **is** the shard map: the `i`-th backend claims
    /// the ids `≡ i (mod len)` on first contact and refuses any other
    /// order afterwards.
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
        let shared = Arc::new(RouterShared::new(addr, members, config)?);
        let addr = shared.pool.local_addr()?;
        let threads = Pool::spawn(&shared, default_threads(), "ode-router");
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
            prober_handle: Some(prober_handle),
            threads,
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
        if !self.shared.stop(&mut self.threads) {
            return;
        }
        if let Some(handle) = self.prober_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OdeRouter {
    fn drop(&mut self) {
        self.stop();
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
            if shared.pool.stopping() {
                return;
            }
            probe_shard(shared, shard);
        }
        // Chunked sleep so shutdown is prompt.
        let deadline = Instant::now() + shared.config.probe_interval;
        while Instant::now() < deadline {
            if shared.pool.stopping() {
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
// Routing
// ---------------------------------------------------------------------------

/// What kind of scatter a fan-out request is, and how to merge it.
#[derive(Debug, Clone, Copy)]
enum GatherKind {
    /// Counters fold under each one's declared rule.
    Stats,
    /// Extents merge ascending by id; a page re-truncates to the limit
    /// the client asked for.
    Objects { limit: Option<u64> },
}

/// Where one client request goes.
enum Route {
    /// Answered by the router itself.
    Local(Box<Response>),
    /// Forwarded to one shard.
    Single { shard: usize, is_read: bool },
    /// Fanned out to every shard.
    Gather(GatherKind),
}

/// Decide a request's route; returns its sequence id and the operation
/// bytes to forward (the client's own). Every keyed opcode takes the
/// same path — the only per-opcode knowledge here is how scatters merge
/// and what the router answers itself.
fn route<'a>(
    payload: &'a [u8],
    map: ShardMap,
    next_pnew: &AtomicU64,
) -> Result<(u64, &'a [u8], Route), NetError> {
    let (seq, body) = split_seq(payload)?;
    let request = Request::decode(payload)?.1;
    let op = request.opcode();
    let refuse = |why: &str| {
        let msg = format!("{}: {why}", op.name());
        Route::Local(Box::new(Response::Err(RemoteError::BadRequest(msg))))
    };
    let single = |shard| Route::Single {
        shard,
        is_read: op.is_read(),
    };
    let route = match (op.routing(), request) {
        (Routing::Scatter, Request::Stats) => Route::Gather(GatherKind::Stats),
        (Routing::Scatter, Request::Objects { .. }) => {
            Route::Gather(GatherKind::Objects { limit: None })
        }
        (Routing::Scatter, Request::ObjectsPage { limit, .. }) => {
            Route::Gather(GatherKind::Objects { limit: Some(limit) })
        }
        (Routing::Scatter, _) => refuse("the router has no merge rule for this scatter"),
        (Routing::Local, Request::Ping) => Route::Local(Box::new(Response::Pong)),
        // Epochs are per shard (not comparable across the tier), read
        // floors and id claims are the router's own to send, promotion
        // is the router's failover to drive, and a log stream is one
        // node's.
        (Routing::Local, _) => refuse("node-local request; connect to a node directly"),
        // A new object has no id yet: the router picks its shard and
        // the id the shard issues then carries the placement forever.
        (Routing::Placed, _) => {
            let n = map.shard_count() as u64;
            single((next_pnew.fetch_add(1, Ordering::Relaxed) % n) as usize)
        }
        (Routing::Keyed, request) => {
            // Object and version ids share one residue rule.
            let mut shards = request.ids().into_iter().map(|id| map.shard_of(Oid(id)));
            match shards.next() {
                None => refuse("no id to route by"),
                Some(shard) if shards.all(|other| other == shard) => single(shard),
                Some(_) => refuse("ids live on different shards (different objects)"),
            }
        }
    };
    Ok((seq, body, route))
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
    /// Parts answered so far.
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
    /// One part of the session's scatter with this id.
    Part(u64),
    /// Router-internal bookkeeping (the `ReadFloor` pin sent when a
    /// replica-read connection opens): the response is swallowed.
    Internal,
}

/// One session's lazily-dialed connection to one shard.
#[derive(Default)]
struct Slot {
    conn: Option<Wire>,
    /// Next backend sequence id. Never reset across reconnects, so a
    /// bseq is unique for the session's lifetime.
    next_bseq: u64,
    /// Requests queued for this backend and not yet answered.
    pending: HashMap<u64, Pending>,
    /// Consecutive connection failures (doubles the backoff).
    failures: u32,
    /// No dial is attempted before this instant.
    down_until: Option<Instant>,
}

impl Slot {
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

    fn backlogged(&self) -> bool {
        self.conn
            .as_ref()
            .is_some_and(|conn| conn.out.backlog() > 0)
    }
}

/// Everything a turn of one session touches: one client connection
/// and the backend connections it dials.
///
/// Slots come in two banks of `shard_count` each: slot `s` is the
/// session's *write* connection to shard `s`'s primary, slot
/// `shard_count + s` its *read* connection (a replica when one is
/// live, pinned by `ReadFloor`; otherwise the primary again).
struct SessionState {
    client: Wire,
    slots: Vec<Slot>,
    /// Set once the session has written to a shard: its reads flip to
    /// the primary bank forever (read-your-writes without cross-node
    /// epoch bookkeeping).
    wrote: Vec<bool>,
    /// Scatters in flight, by the id their parts carry.
    gathers: HashMap<u64, Gather>,
    next_gather: u64,
}

impl SessionState {
    /// A session of `client` on a tier of `shards`, no backend dialed.
    fn new(client: Wire, shards: usize) -> SessionState {
        SessionState {
            client,
            slots: (0..shards * 2).map(|_| Slot::default()).collect(),
            wrote: vec![false; shards],
            gathers: HashMap::new(),
            next_gather: 0,
        }
    }

    /// One turn: read the backends that fired and answer the client
    /// from them, route up to [`PIPELINE_DEPTH`] client frames unless a
    /// backend is backlogged, flush everything, then re-arm; `false`
    /// when the session is over.
    fn turn(
        &mut self,
        shared: &RouterShared,
        session: &Arc<Session<SessionState>>,
        fired: &[usize],
        scratch: &mut [u8],
    ) -> bool {
        // Keys of closed connections match nothing.
        let client_fired = self.client.claimed(fired);
        for i in 0..self.slots.len() {
            if self.slots[i]
                .conn
                .as_mut()
                .is_some_and(|conn| conn.claimed(fired))
            {
                self.backend_turn(shared, i, scratch);
            }
        }
        if !self.slots.iter().any(Slot::backlogged) {
            if client_fired && !self.client.rbuf.has_frame() {
                self.client
                    .read_ready(scratch, &shared.stats.protocol_errors);
            }
            if !self.route_frames(shared, session) {
                return false;
            }
            for i in 0..self.slots.len() {
                if let Some(conn) = self.slots[i].conn.as_mut() {
                    conn.flush();
                    if conn.out.dead {
                        self.fail_slot(shared, i, "write to shard failed");
                    }
                }
            }
        }
        self.client.flush();
        let drained = self.client.peer_closed
            && !self.client.rbuf.has_frame()
            && self.client.out.backlog() == 0
            && self.slots.iter().all(|slot| slot.pending.is_empty());
        !self.client.out.dead && !drained && self.rearm(shared)
    }

    /// Service a backend that fired: flush what it would not take
    /// before, read what it sent, and answer every complete frame. A
    /// lost or misframing connection fails its slot after the frames
    /// that arrived before the fault.
    fn backend_turn(&mut self, shared: &RouterShared, slot_idx: usize, scratch: &mut [u8]) {
        let stats = &shared.stats;
        let Some(conn) = self.slots[slot_idx].conn.as_mut() else {
            return;
        };
        conn.flush();
        conn.read_ready(scratch, &stats.protocol_errors);
        let lost = conn.peer_closed || conn.out.dead;
        // Taken out so frames borrowed from it can be answered.
        let mut rbuf = std::mem::take(&mut conn.rbuf);
        let fault = loop {
            match rbuf.next_frame() {
                Ok(Some(payload)) => {
                    if let Err(why) = on_backend_frame(stats, self, slot_idx, payload) {
                        break Some(why);
                    }
                }
                Ok(None) => break lost.then_some("connection lost"),
                Err(_) => {
                    // A backend framing its stream wrong can't be
                    // trusted for anything in flight: kill the
                    // connection, which answers every pending request.
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    break Some("undecodable response from shard");
                }
            }
        };
        match (fault, self.slots[slot_idx].conn.as_mut()) {
            (Some(why), _) => self.fail_slot(shared, slot_idx, why),
            (None, Some(conn)) => conn.rbuf = rbuf,
            (None, None) => {}
        }
    }

    /// Route up to [`PIPELINE_DEPTH`] of the client's buffered frames in
    /// stream order. `false` when the client's framing is corrupt and
    /// the session must end.
    fn route_frames(
        &mut self,
        shared: &RouterShared,
        session: &Arc<Session<SessionState>>,
    ) -> bool {
        let stats = &shared.stats;
        // Taken out so frames borrowed from it can be forwarded.
        let mut rbuf = std::mem::take(&mut self.client.rbuf);
        let mut in_sync = true;
        let mut tally = RouteTally::default();
        for _ in 0..PIPELINE_DEPTH {
            let payload = match rbuf.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                Err(_) => {
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    in_sync = false;
                    break;
                }
            };
            match route(payload, shared.map, &shared.next_pnew_shard) {
                Err(e) => {
                    // Well-delimited frame, bad payload: the stream is
                    // still in sync, report and continue (server
                    // behavior).
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let seq = Request::decode_seq(payload).unwrap_or(0);
                    let response = Response::Err(RemoteError::BadRequest(e.to_string()));
                    self.answer(stats, seq, &response);
                }
                Ok((seq, _, Route::Local(resp))) => {
                    tally.answered_locally += 1;
                    self.answer(stats, seq, &resp);
                }
                Ok((seq, body, Route::Single { shard, is_read })) => {
                    let slot = self.pick_slot(shared, shard, is_read);
                    let pending = Pending::Single { client_seq: seq };
                    self.forward(shared, session, slot, body, pending, &mut tally);
                }
                Ok((seq, body, Route::Gather(kind))) => {
                    tally.gathers += 1;
                    let shards = shared.map.shard_count();
                    let id = self.next_gather;
                    self.next_gather += 1;
                    self.gathers.insert(id, Gather::new(seq, kind, shards));
                    // Scatters always hit the primary bank: a merged
                    // extent or stats report must not mix replica lag in.
                    for shard in 0..shards {
                        let part = Pending::Part(id);
                        self.forward(shared, session, shard, body, part, &mut tally);
                    }
                }
            }
        }
        tally.publish(stats);
        self.client.rbuf = rbuf;
        in_sync
    }

    /// Which slot a request for `shard` should ride. Reads from a
    /// session that has not written to the shard go to its replicas
    /// (pinned by `ReadFloor` at the primary's last probed epoch).
    /// Writes always go to the primary, and a session's first write to
    /// a shard flips its reads there too.
    fn pick_slot(&mut self, shared: &RouterShared, shard: usize, is_read: bool) -> usize {
        if is_read && !self.wrote[shard] && shared.membership.has_live_replica(shard) {
            shared.map.shard_count() + shard
        } else {
            if !is_read {
                self.wrote[shard] = true;
            }
            shard
        }
    }

    /// Queue one response frame of the router's own for the client.
    fn answer(&mut self, stats: &RouterStats, seq: u64, resp: &Response) {
        if matches!(resp, Response::Err(RemoteError::Unavailable(_))) {
            stats.unavailable_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.client.out.queue(&resp.encode(seq));
    }

    /// Give one pending entry its outcome: answer the client, or
    /// complete the scatter part (answering when it was the last).
    /// Whichever path removed the entry calls this, exactly once.
    fn settle(
        &mut self,
        stats: &RouterStats,
        pending: Pending,
        outcome: Result<Response, RemoteError>,
    ) {
        match pending {
            Pending::Single { client_seq } => {
                let resp = outcome.unwrap_or_else(Response::Err);
                self.answer(stats, client_seq, &resp);
            }
            Pending::Part(id) => {
                let Some(gather) = self.gathers.get_mut(&id) else {
                    return;
                };
                if let Some(merged) = gather.complete_part(outcome) {
                    let seq = gather.client_seq;
                    self.gathers.remove(&id);
                    self.answer(stats, seq, &merged);
                }
            }
            Pending::Internal => {} // nothing owed to the client
        }
    }

    /// The one forwarding path: ensure a live connection, register the
    /// pending entry, queue `body` (the client's operation bytes) under
    /// the assigned backend sequence id, and count it in `tally`. A
    /// request that cannot reach its shard is answered `Unavailable`
    /// here; once registered, a failure of the connection answers it.
    fn forward(
        &mut self,
        shared: &RouterShared,
        session: &Arc<Session<SessionState>>,
        slot_idx: usize,
        body: &[u8],
        pending: Pending,
        tally: &mut RouteTally,
    ) {
        if self.slots[slot_idx].conn.is_none() {
            if let Err(msg) = self.dial(shared, session, slot_idx) {
                self.settle(&shared.stats, pending, Err(RemoteError::Unavailable(msg)));
                return;
            }
        }
        tally.forwarded += 1;
        if slot_idx >= shared.map.shard_count() {
            tally.replica_reads += 1;
        }
        let slot = &mut self.slots[slot_idx];
        let bseq = slot.next_bseq;
        slot.next_bseq += 1;
        slot.pending.insert(bseq, pending);
        let conn = slot.conn.as_mut().expect("dialed above");
        conn.out.queue_seq(bseq, body);
    }

    /// Dial a dead slot's backend, handshake, claim the shard's id
    /// residue, and register the connection with the poller under the
    /// session. The dial blocks this thread, bounded by
    /// [`RouterConfig::connect_timeout`]. A node that refuses the claim
    /// fails the dial like an unreachable one.
    ///
    /// The address comes from the shard's *current* membership: primary
    /// bank slots dial the primary, read bank slots a live replica (or the
    /// primary when none is up). A read-bank connection is pinned with a
    /// `ReadFloor` at the primary's last probed epoch before anything else
    /// rides it, so the replica can never answer from state older than the
    /// primary state the router has already observed.
    fn dial(
        &mut self,
        shared: &RouterShared,
        session: &Arc<Session<SessionState>>,
        slot_idx: usize,
    ) -> Result<(), String> {
        let shard = slot_idx % shared.map.shard_count();
        let slot = &mut self.slots[slot_idx];
        if let Some(until) = slot.down_until {
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
        let connect = || -> io::Result<TcpStream> {
            let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
            stream.set_nodelay(true).ok();
            // Handshake under a deadline so a wedged backend can't hold
            // this thread for long.
            stream.set_read_timeout(Some(config.connect_timeout))?;
            handshake(&stream)?;
            Ok(stream)
        };
        let dialed = connect()
            .map_err(|e| format!("shard {shard} is unreachable: {e}"))
            .and_then(|stream| {
                claim_residue(&stream, shared.map, shard)?;
                let key = shared.pool.next_key();
                stream
                    .set_nonblocking(true)
                    .and_then(|()| shared.pool.register(key, session, &stream))
                    .map(|()| (stream, key))
                    .map_err(|e| format!("shard {shard}: {e}"))
            });
        let (stream, key) = match dialed {
            Ok(dialed) => dialed,
            Err(msg) => {
                slot.back_off(config);
                shared.stats.shard_failures.fetch_add(1, Ordering::Relaxed);
                return Err(msg);
            }
        };
        let mut conn = Wire::new(stream, key, true);
        slot.failures = 0;
        slot.down_until = None;
        if read_bank {
            let floor = shared.membership.primary_epoch(shard);
            if floor > 0 {
                let bseq = slot.next_bseq;
                slot.next_bseq += 1;
                slot.pending.insert(bseq, Pending::Internal);
                conn.out
                    .queue(&Request::ReadFloor { epoch: floor }.encode(bseq));
            }
        }
        slot.conn = Some(conn);
        shared
            .stats
            .backend_connects
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Tear down one slot's connection: close it, start the backoff
    /// clock, and answer every pending request with `Unavailable`.
    fn fail_slot(&mut self, shared: &RouterShared, slot_idx: usize, why: &str) {
        let shard = slot_idx % shared.map.shard_count();
        let slot = &mut self.slots[slot_idx];
        let Some(mut conn) = slot.conn.take() else {
            return;
        };
        conn.close(&shared.pool);
        slot.back_off(&shared.config);
        shared.stats.shard_failures.fetch_add(1, Ordering::Relaxed);
        let drained: Vec<Pending> = slot.pending.drain().map(|(_, pending)| pending).collect();
        for pending in drained {
            let err =
                RemoteError::Unavailable(format!("shard {shard}: {why}; request not retried"));
            self.settle(&shared.stats, pending, Err(err));
        }
    }

    /// Arm every socket for what the session can take next: backends
    /// for reading unless the client is backlogged and for writing while
    /// they are; the client per [`Wire::interest`], blocked while a
    /// backend is backlogged. `false` when the client cannot be armed.
    fn rearm(&mut self, shared: &RouterShared) -> bool {
        let client_backlogged = self.client.out.backlog() > 0;
        for i in 0..self.slots.len() {
            let Some(conn) = self.slots[i].conn.as_mut() else {
                continue;
            };
            let want = Event {
                key: conn.key,
                readable: !client_backlogged,
                writable: conn.out.backlog() > 0,
            };
            if conn.arm(&shared.pool, want).is_err() {
                self.fail_slot(shared, i, "re-arm failed");
            }
        }
        let blocked = self.slots.iter().any(Slot::backlogged);
        let want = self.client.interest(blocked);
        self.client.arm(&shared.pool, want).is_ok()
    }
}

/// Claim shard `shard`'s id residue on a freshly dialed node, before
/// anything else rides the connection: from then on every id the node
/// issues is `≡ shard (mod shard_count)`, the id clients see. A node
/// already holding the claim answers at once; one holding another (the
/// backend list was reordered, or a store with dense ids joined a wider
/// tier) refuses, and so does this dial.
fn claim_residue(stream: &TcpStream, map: ShardMap, shard: usize) -> Result<(), String> {
    let (stride, residue) = (map.shard_count() as u64, shard as u64);
    let claim = Request::ClaimIds { stride, residue }.encode(0);
    let answer = write_frame(&mut &*stream, &claim)
        .map_err(NetError::Io)
        .and_then(|_| read_frame(&mut &*stream))
        .and_then(|frame| Response::decode(&frame.unwrap_or_default()));
    match answer {
        Ok((_, Response::Unit)) => Ok(()),
        Ok((_, Response::Err(e))) => Err(format!(
            "shard {shard} refused id residue {residue} of {stride}: {e}"
        )),
        Ok((_, other)) => Err(format!(
            "shard {shard} answered its id claim with a {} response",
            other.kind_name()
        )),
        Err(e) => Err(format!("shard {shard} is unreachable: {e}")),
    }
}

/// Correlate one backend frame with its pending entry and answer the
/// client: a single request's result bytes go back as they came, behind
/// the client's sequence id (the client's strict decoder checks them);
/// a scatter part is decoded, because parts are merged. `Err` names a
/// fault that must tear the connection down.
fn on_backend_frame(
    stats: &RouterStats,
    session: &mut SessionState,
    slot_idx: usize,
    payload: &[u8],
) -> Result<(), &'static str> {
    let shard = slot_idx % session.wrote.len();
    let protocol_error = || {
        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    };
    let Ok((bseq, body)) = split_seq(payload) else {
        protocol_error();
        return Err("undecodable response from shard");
    };
    let pending = session.slots[slot_idx].pending.remove(&bseq);
    match pending {
        None => {
            // A response nothing asked for; ignoring it would leave
            // the correlation state suspect, so treat as a fault.
            protocol_error();
            Err("response with unknown sequence id")
        }
        Some(Pending::Internal) => Ok(()), // the `ReadFloor` pin's ack
        Some(Pending::Single { client_seq }) => {
            session.client.out.queue_seq(client_seq, body);
            Ok(())
        }
        Some(part @ Pending::Part(_)) => {
            // The pending entry is already removed, so this frame owns
            // the part's answer — on an undecodable payload it is the
            // exact `Unavailable` the failure path gives everything
            // else in flight, then the connection is torn down.
            let outcome = Response::decode(payload).map(|(_, response)| response);
            let failed = outcome.is_err();
            let outcome = outcome.map_err(|_| {
                protocol_error();
                RemoteError::Unavailable(format!(
                    "shard {shard}: undecodable response from shard; request not retried"
                ))
            });
            session.settle(stats, part, outcome);
            match failed {
                true => Err("undecodable response from shard"),
                false => Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use super::*;
    use crate::protocol::{Opcode, OPCODE_COUNT};
    use ode::{MergeConflict, MergePolicy, TypeTag, VersionDiff, Vid};
    use ode_storage::StoreStats;
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
        let payload = req.encode(77);
        let (seq, forwarded, route) = route(&payload, map, rr).expect("well-formed frame");
        assert_eq!(seq, 77);
        // What goes to a shard is the client's own operation bytes.
        assert!(std::ptr::eq(forwarded, split_seq(&payload).unwrap().1));
        match route {
            Route::Local(resp) => Routed::Local(*resp),
            Route::Gather(_) => Routed::Gather,
            Route::Single { shard, is_read } => {
                assert_eq!(is_read, req.is_read());
                let backend = req.clone();
                Routed::Single { shard, backend }
            }
        }
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
            storage: StoreStats {
                read_txs: 10,
                write_txs: 3,
                group_batch_max: 4,
                replica_lag_epochs: 2,
                write_conflicts: 2,
                write_retries: 1,
                checkpoint_failures: 1,
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
            storage: StoreStats {
                read_txs: 20,
                write_txs: 5,
                group_batch_max: 2,
                replica_lag_epochs: 7,
                write_conflicts: 3,
                write_retries: 2,
                checkpoint_failures: 4,
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
        assert_eq!(merged.storage.checkpoint_failures, 5);
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
    fn history_and_diff_route_to_the_owning_shard() {
        let map = ShardMap::new(3);
        let rr = AtomicU64::new(0);
        let history = |oid, from, to| {
            let req = Request::HistoryBetween {
                oid: Oid(oid),
                from,
                to,
            };
            (routed(&req, map, &rr), req)
        };
        // Oid 7 lives on shard 1, and its stamps are the shard's own
        // version ids: every range goes there as it came, an empty or
        // backwards one included — the shard answers it.
        for (from, to) in [(4, 22), (5, 24), (9, 8), (0, 1)] {
            let (got, req) = history(7, from, to);
            assert_eq!(
                got,
                Routed::Single {
                    shard: 1,
                    backend: req
                }
            );
        }
        // Same shard: forwarded as it came.
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
        assert!(matches!(diff(4, 7), Routed::Single { shard: 1, .. }));
        // Cross-shard endpoints are refused by the router itself.
        assert!(is_bad_request(&diff(4, 8)));
    }

    #[test]
    fn merge_routes_like_diff_and_forwards_its_bytes() {
        let map = ShardMap::new(3);
        let rr = AtomicU64::new(0);
        let merge = |a, b, policy| {
            let req = Request::Merge {
                a: Vid(a),
                b: Vid(b),
                policy,
            };
            (routed(&req, map, &rr), req)
        };
        // Same shard: forwarded with both parents and the policy as
        // they came.
        let (got, req) = merge(4, 7, MergePolicy::Ours);
        assert_eq!(
            got,
            Routed::Single {
                shard: 1,
                backend: req
            }
        );
        // Cross-shard parents are refused by the router itself.
        assert!(is_bad_request(&merge(4, 8, MergePolicy::Fail).0));
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
            assert_eq!(
                routed(&pnew, map, &rr),
                Routed::Single {
                    shard: expect,
                    backend: pnew.clone(),
                }
            );
        }
        // Oid 7 on 3 shards: shard 1, which issued it as 7.
        let deref = Request::Deref {
            oid: Oid(7),
            tag: TypeTag(1),
        };
        assert_eq!(
            routed(&deref, map, &rr),
            Routed::Single {
                shard: 1,
                backend: deref,
            }
        );
    }

    #[test]
    fn every_row_takes_the_route_its_routing_column_names() {
        let map = ShardMap::new(3);
        let rr = AtomicU64::new(0);
        for op in Opcode::ALL {
            // Every id 22: one shard (1).
            let req = Request::sample(op, |_| 22, &[1, 2, 3]);
            let got = routed(&req, map, &rr);
            match op.routing() {
                Routing::Local if op == Opcode::Ping => {
                    assert_eq!(got, Routed::Local(Response::Pong))
                }
                // `Epoch`, `ReadFloor`, `Promote`, `ClaimIds`,
                // `Subscribe` and `Ack` concern one node: the tier
                // refuses them rather than guess which.
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
                Opcode::Promote,
                Opcode::ClaimIds,
                Opcode::Subscribe,
                Opcode::Ack
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

    /// A client socket pair: the router's end and a reader on the
    /// client's.
    fn client_pair() -> (TcpStream, BufReader<TcpStream>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let far_end = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (router_end, _) = listener.accept().expect("accept");
        (router_end, BufReader::new(far_end))
    }

    /// Answer the client's `client_seq` with `result` from `shard`,
    /// which replies under a backend sequence id of its own, and return
    /// the frame the client reads.
    fn cross(
        state: &mut SessionState,
        client: &mut BufReader<TcpStream>,
        shard: usize,
        client_seq: u64,
        result: &Response,
    ) -> Vec<u8> {
        let backend_seq = client_seq ^ 0x5a5a;
        let pending = Pending::Single { client_seq };
        state.slots[shard].pending.insert(backend_seq, pending);
        let stats = RouterStats::default();
        let verdict = on_backend_frame(&stats, state, shard, &result.encode(backend_seq));
        assert_eq!(verdict, Ok(()), "{result:?}");
        state.client.flush();
        read_frame(client).expect("frame").expect("open")
    }

    /// The operation bytes the router forwards for a keyed request are
    /// the client's own (not a copy), sent to the shard its id names —
    /// for every keyed row, over 1–8 shards.
    #[test]
    fn keyed_requests_are_forwarded_as_the_clients_own_bytes() {
        let mut forwarded_rows = 0;
        for shards in 1..=8 {
            let map = ShardMap::new(shards);
            let keyed = Opcode::ALL
                .into_iter()
                .filter(|op| op.routing() == Routing::Keyed);
            for (op, home) in keyed.zip((0..shards).cycle()) {
                // Ids of one shard's residue, of every width.
                let mut k = 0u64;
                let mut word = |_| {
                    k = k * 1000 + 7;
                    k * shards as u64 + home as u64
                };
                let request = Request::sample(op, &mut word, b"\x00body\xff");
                let payload = request.encode(300 + forwarded_rows);
                let (seq, forwarded, route) =
                    route(&payload, map, &AtomicU64::new(0)).expect("well-formed frame");
                assert_eq!(seq, 300 + forwarded_rows);
                assert!(std::ptr::eq(forwarded, split_seq(&payload).unwrap().1));
                assert_eq!(Request::decode(&payload).unwrap().1, request, "{op:?}");
                let Route::Single { shard, .. } = route else {
                    panic!("{op:?} on {shards} shards was not forwarded");
                };
                assert_eq!(shard, home, "{op:?} on {shards} shards");
                forwarded_rows += 1;
            }
        }
        assert_eq!(forwarded_rows, 8 * 21, "every keyed row on every tier size");
    }

    /// A shard's result bytes reach the client unchanged, behind the
    /// client's sequence id rather than the backend's — on every shard
    /// of 1–8, for sequence ids of every varint width.
    #[test]
    fn responses_reach_the_client_unchanged_behind_its_seq() {
        let (router_end, mut client) = client_pair();
        let results = [
            Response::Created {
                oid: Oid(13),
                vid: Vid(21),
            },
            Response::Body {
                vid: Vid(300),
                bytes: vec![0, 255, 7],
            },
            Response::Versions(vec![Vid(5), Vid(9)]),
            Response::Err(RemoteError::UnknownVersion(Vid(1 << 40))),
            Response::Merged {
                vid: None,
                conflicts: vec![MergeConflict {
                    base_start: 3,
                    base_end: 9,
                    ours: vec![1],
                    theirs: vec![2],
                }],
            },
        ];
        let seqs = [0u64, 127, 128, 1 << 20, u64::MAX];
        for shards in 1..=8 {
            let client_end = Wire::new(router_end.try_clone().expect("clone"), 1, false);
            let mut session = SessionState::new(client_end, shards);
            for shard in 0..shards {
                for (i, result) in results.iter().enumerate() {
                    let seq = seqs[(shard + i) % seqs.len()];
                    let got = cross(&mut session, &mut client, shard, seq, result);
                    assert_eq!(got, result.encode(seq), "shard {shard} of {shards}");
                }
            }
        }
    }

    /// Every id a shard's response carries — object ids, version ids,
    /// the ids inside errors, lists and diff summaries — reaches the
    /// client as the shard wrote it: shard-issued ids are already the
    /// tier's ids, so nothing is translated on the way back.
    #[test]
    fn responses_keep_every_embedded_id() {
        let (router_end, mut client) = client_pair();
        for shards in [1, 3, 4, 8] {
            let client_end = Wire::new(router_end.try_clone().expect("clone"), 1, false);
            let mut session = SessionState::new(client_end, shards);
            for shard in 0..shards {
                // Ids of this shard's residue, narrow and wide.
                let id = |k: u64| k * shards as u64 + shard as u64;
                let with_ids = [
                    Response::Created {
                        oid: Oid(id(3)),
                        vid: Vid(id(1 << 40)),
                    },
                    Response::Version(Vid(id(1))),
                    Response::Body {
                        vid: Vid(id(2)),
                        bytes: vec![9, 200],
                    },
                    Response::MaybeVersion(Some(Vid(id(1)))),
                    Response::Versions(vec![Vid(id(1)), Vid(id(1 << 33))]),
                    Response::Objects(vec![Oid(id(0)), Oid(id(3))]),
                    Response::Object(Oid(id(3))),
                    Response::Err(RemoteError::UnknownObject(Oid(id(3)))),
                    Response::Err(RemoteError::LastVersion(Vid(id(1)))),
                    Response::Diff(VersionDiff {
                        from: Vid(id(4)),
                        to: Vid(id(5)),
                        to_len: 10,
                        ops: 2,
                        literal_bytes: 3,
                        encoded_bytes: 6,
                        stored: true,
                    }),
                    Response::Merged {
                        vid: Some(Vid(id(9))),
                        conflicts: vec![],
                    },
                ];
                for (seq, result) in (40..).zip(&with_ids) {
                    let got = cross(&mut session, &mut client, shard, seq, result);
                    assert_eq!(
                        Response::decode(&got).expect("decodes"),
                        (seq, result.clone()),
                        "shard {shard} of {shards}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn damaged_frames_are_errors_never_panics(
            op in 0usize..OPCODE_COUNT,
            words in proptest::collection::vec(any::<u64>(), 3),
            body in proptest::collection::vec(any::<u8>(), 0..300),
            cut: usize,
            garbage in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let map = ShardMap::new(3);
            let rr = AtomicU64::new(0);
            let mut words = words.into_iter().cycle();
            let request = Request::sample(Opcode::ALL[op], |_| words.next().unwrap(), &body);
            let request = request.encode(300);
            // Cut anywhere before the end, a field is missing: the
            // router must say so where a decode would.
            let cut_req = &request[..cut % request.len()];
            prop_assert_eq!(route(cut_req, map, &rr).is_ok(), Request::decode(cut_req).is_ok());
            // Garbage, and well-formed frames with garbage appended.
            for tail in [&garbage[..], &[request.clone(), garbage.clone()].concat()[..]] {
                prop_assert_eq!(route(tail, map, &rr).is_ok(), Request::decode(tail).is_ok());
            }
        }
    }
}
