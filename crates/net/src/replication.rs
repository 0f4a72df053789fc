//! Replication over the data port.
//!
//! A replica subscribes to its primary with an ordinary request on the
//! primary's own port: `Subscribe { gen, have_pos, have_epoch }` says
//! what it already holds. The answer is a stream of response frames
//! under that request's sequence id: a page-file snapshot in
//! [`CHUNK_LEN`] parts (or one `Resume` when the replica holds a live
//! position of this primary's generation), then a `Chunk` of shipped
//! log after every commit. The replica answers each applied step with
//! an `Ack { pos, epoch }`, a request that gets no response. Positions
//! are *logical* log positions, monotone across checkpoints.
//!
//! On the primary a subscriber is one more connection of the server's
//! event loop: [`Subscription::ship`] runs in that connection's turns,
//! which a commit starts through the poller (the store's ship waker),
//! whichever path committed. [`Peers`] holds every subscriber's acked
//! epoch; a write waits there, bounded by [`SEMI_SYNC_WAIT`], until one
//! replica acked it (the semi-synchronous barrier). On the replica a
//! [`ReplicaNode`] dials the primary, installs the snapshot or resumes,
//! applies every shipped commit through the storage engine's recovery
//! path (one epoch bump per commit, as the primary published it) and
//! acks.
//!
//! Generations fence lineages: each server ships under a fresh one, so
//! a replica whose positions come from another primary's log — a dead
//! one, or a fenced ex-primary rejoining — is re-bootstrapped from a
//! snapshot instead of resumed.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ode::Database;
use ode_storage::{ReplSnapshot, WalSpan};
use parking_lot::Mutex;

use crate::error::{NetError, RemoteError};
use crate::event_loop::Outbox;
use crate::protocol::{read_frame_into, write_frame, Request, Response, MAGIC};

/// Largest snapshot part or log chunk one frame carries.
pub(crate) const CHUNK_LEN: usize = 256 * 1024;

/// Bytes a subscriber's turn leaves queued at most: past this it waits
/// for the socket to drain before it reads more log.
const SHIP_BACKLOG: usize = 4 * CHUNK_LEN;

/// How long a write waits at the semi-synchronous barrier for a
/// replica's ack before it is acknowledged anyway: a downed link must
/// not wedge the primary (availability over strict durability).
pub(crate) const SEMI_SYNC_WAIT: Duration = Duration::from_millis(500);

/// How long a replica waits for its primary to take a connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a barrier waiter sleeps before it reads the subscribers'
/// acks itself again, when no other thread has read one meanwhile.
const ACK_SLICE: Duration = Duration::from_millis(1);

/// A generation no other server lifetime has had: the pid in the high
/// half, a process-local counter in the low one.
pub(crate) fn fresh_gen() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let counter = NEXT.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 32) | (counter & 0xFFFF_FFFF)
}

// ---------------------------------------------------------------------------
// Primary side
// ---------------------------------------------------------------------------

/// A primary's subscribers: each one's poller key and the epoch it
/// last acked.
#[derive(Default)]
pub(crate) struct Peers {
    acked: Mutex<Vec<(usize, u64)>>,
    /// Signalled on every ack and every departure.
    changed: Condvar,
}

impl Peers {
    /// Subscribers currently attached.
    pub(crate) fn count(&self) -> usize {
        self.acked.lock().len()
    }

    /// The poller keys of the subscribed connections.
    pub(crate) fn keys(&self) -> Vec<usize> {
        self.acked.lock().iter().map(|&(key, _)| key).collect()
    }

    /// The subscriber behind `key` applied the stream through `epoch`;
    /// `None` detaches it.
    pub(crate) fn ack(&self, key: usize, epoch: Option<u64>, db: &Database) {
        let mut acked = self.acked.lock();
        acked.retain(|&(k, _)| k != key);
        acked.extend(epoch.map(|epoch| (key, epoch)));
        let primary = db.snapshot_epoch();
        let lag = acked.iter().map(|&(_, e)| primary.saturating_sub(e)).max();
        db.set_replica_lag_epochs(lag.unwrap_or(0));
        self.changed.notify_all();
    }

    /// The semi-synchronous barrier: whether some subscriber acked
    /// `epoch` within `timeout` — `false` at once with none attached.
    /// One ack is enough for failover safety, because promotion picks
    /// the most caught-up replica. Between looks the waiter runs
    /// `drain`, which ships to the subscribers and reads their acks, so
    /// an ack never needs a thread that is not waiting here itself.
    pub(crate) fn wait_replicated(&self, epoch: u64, timeout: Duration, drain: impl Fn()) -> bool {
        let deadline = Instant::now() + timeout;
        // The answer, once it is known.
        let answer = |acked: &[(usize, u64)]| match acked {
            [] => Some(false),
            _ if acked.iter().any(|&(_, e)| e >= epoch) => Some(true),
            _ => None,
        };
        loop {
            if let Some(replicated) = answer(&self.acked.lock()) {
                return replicated;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            drain();
            let acked = self.acked.lock();
            if answer(&acked).is_none() {
                let _ = self.changed.wait_timeout(acked, ACK_SLICE.min(left));
            }
        }
    }
}

/// One subscriber's stream, owned by its connection.
pub(crate) struct Subscription {
    /// The `Subscribe` request's sequence id, which every frame of the
    /// stream carries.
    seq: u64,
    /// Logical log position of the next chunk; `u64::MAX` while the
    /// subscriber holds no position, so a snapshot is owed.
    next: u64,
    /// The shippable watermark when the log last ran dry for this
    /// subscriber: nothing is owed until it rises past this.
    dry_at: u64,
    /// A snapshot being sent, and how many of its bytes already went.
    snapshot: Option<(ReplSnapshot, usize)>,
}

impl Subscription {
    /// Attach the subscriber on connection `key`, which holds
    /// `have_pos`/`have_epoch` of generation `have_gen`. It resumes
    /// (`Resume` is queued on `out`) only from a position of this
    /// server's generation `gen`; otherwise its first turn ships a
    /// snapshot. Returns it and the bytes queued.
    pub(crate) fn start(
        peers: &Peers,
        db: &Database,
        (key, gen, seq): (usize, u64, u64),
        (have_gen, have_pos, have_epoch): (u64, u64, u64),
        out: &mut Outbox,
    ) -> (Subscription, u64) {
        let resume = have_gen == gen && have_pos != u64::MAX;
        let mut written = 0;
        if resume {
            written = out.queue(
                &Response::Resume {
                    gen,
                    from: have_pos,
                }
                .encode(seq),
            );
        }
        peers.ack(key, Some(if resume { have_epoch } else { 0 }), db);
        let sub = Subscription {
            seq,
            next: if resume { have_pos } else { u64::MAX },
            dry_at: 0,
            snapshot: None,
        };
        (sub, written)
    }

    /// Whether a turn would queue something now: a snapshot or the
    /// rest of one, or log that grew since it last ran dry.
    pub(crate) fn owed(&self, db: &Database) -> bool {
        self.snapshot.is_some()
            || self.next == u64::MAX
            || db.shippable() > self.next.max(self.dry_at)
    }

    /// Queue what the subscriber is owed — snapshot parts, then log
    /// chunks — until the log runs dry or [`SHIP_BACKLOG`] bytes wait
    /// for the socket. A position the log no longer holds (a
    /// checkpoint recycled it, or the subscriber is new) gets a fresh
    /// snapshot. Returns the bytes queued.
    pub(crate) fn ship(&mut self, gen: u64, db: &Database, out: &mut Outbox) -> ode::Result<u64> {
        let mark = db.shippable();
        let mut written = 0;
        while out.backlog() < SHIP_BACKLOG && !out.dead {
            if let Some((snap, sent)) = &mut self.snapshot {
                let end = (*sent + CHUNK_LEN).min(snap.db_bytes.len());
                let part = Response::SnapshotPart {
                    gen,
                    base_pos: snap.base_pos,
                    epoch: snap.epoch,
                    seed: snap.seed,
                    total: snap.db_bytes.len() as u64,
                    bytes: snap.db_bytes[*sent..end].to_vec(),
                };
                written += out.queue(&part.encode(self.seq));
                db.note_bytes_shipped((end - *sent) as u64);
                *sent = end;
                if end == snap.db_bytes.len() {
                    self.next = snap.base_pos;
                    self.snapshot = None;
                }
                continue;
            }
            match db.read_wal_span(self.next, CHUNK_LEN)? {
                WalSpan::Data(bytes) => {
                    let len = bytes.len() as u64;
                    let chunk = Response::Chunk {
                        start_pos: self.next,
                        bytes,
                    };
                    written += out.queue(&chunk.encode(self.seq));
                    db.note_bytes_shipped(len);
                    self.next += len;
                }
                WalSpan::AtEnd => {
                    self.dry_at = mark;
                    break;
                }
                WalSpan::SnapshotNeeded => self.snapshot = Some((db.repl_snapshot()?, 0)),
            }
        }
        Ok(written)
    }
}

// ---------------------------------------------------------------------------
// Replica side
// ---------------------------------------------------------------------------

/// A replica's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStatus {
    /// Logical log position applied through (`u64::MAX`: no state yet).
    pub pos: u64,
    /// Commit epoch applied through.
    pub epoch: u64,
}

/// What a replica has applied, from which primary generation; the
/// tail updates it as it applies and [`ReplicaNode::status`] reads it.
struct Progress {
    gen: AtomicU64,
    pos: AtomicU64,
    epoch: AtomicU64,
}

impl Progress {
    fn new() -> Progress {
        Progress {
            gen: AtomicU64::new(0),
            pos: AtomicU64::new(u64::MAX),
            epoch: AtomicU64::new(0),
        }
    }

    /// The `Subscribe` that asks for what comes after this progress.
    fn subscribe(&self) -> Request {
        Request::Subscribe {
            gen: self.gen.load(Ordering::Acquire),
            have_pos: self.pos.load(Ordering::Acquire),
            have_epoch: self.epoch.load(Ordering::Acquire),
        }
    }

    /// Apply one frame of the stream to `db`, collecting snapshot parts
    /// in `parts`; returns the ack to send, if the frame completed a
    /// step.
    fn apply(
        &self,
        db: &Database,
        parts: &mut Vec<u8>,
        frame: Response,
    ) -> crate::Result<Option<Request>> {
        let out_of_step = |what: String| Err(NetError::Protocol(what));
        let pos = self.pos.load(Ordering::Acquire);
        match frame {
            Response::SnapshotPart {
                gen,
                base_pos,
                epoch,
                seed,
                total,
                bytes,
            } => {
                parts.extend_from_slice(&bytes);
                let got = parts.len() as u64;
                if got > total {
                    return out_of_step(format!("snapshot parts hold {got} of {total} bytes"));
                }
                if got < total {
                    return Ok(None);
                }
                db.replica_install_snapshot(parts, base_pos, epoch, seed)
                    .map_err(|e| NetError::Remote(RemoteError::from(&e)))?;
                parts.clear();
                self.gen.store(gen, Ordering::Release);
                self.pos.store(base_pos, Ordering::Release);
                self.epoch.store(epoch, Ordering::Release);
                Ok(Some(Request::Ack {
                    pos: base_pos,
                    epoch,
                }))
            }
            Response::Resume { gen, from } if from == pos => {
                self.gen.store(gen, Ordering::Release);
                Ok(None)
            }
            Response::Resume { from, .. } => {
                out_of_step(format!("resumed at {from}, expected {pos}"))
            }
            Response::Chunk { start_pos, bytes } if start_pos == pos && parts.is_empty() => {
                let outcome = db
                    .replica_ingest(&bytes)
                    .map_err(|e| NetError::Remote(RemoteError::from(&e)))?;
                let pos = pos + bytes.len() as u64;
                self.pos.store(pos, Ordering::Release);
                self.epoch.store(outcome.epoch, Ordering::Release);
                Ok(Some(Request::Ack {
                    pos,
                    epoch: outcome.epoch,
                }))
            }
            Response::Chunk { start_pos, .. } => {
                out_of_step(format!("chunk at {start_pos}, expected {pos}"))
            }
            Response::Err(e) => Err(NetError::Remote(e)),
            other => out_of_step(format!(
                "unexpected {} in a subscription",
                other.kind_name()
            )),
        }
    }
}

struct Tail {
    db: Arc<Database>,
    primary: String,
    progress: Progress,
    stop: AtomicBool,
    /// The live subscription's socket, so [`ReplicaNode::stop`] can cut
    /// a blocked read short.
    stream: Mutex<Option<TcpStream>>,
}

/// The replica side of replication: a thread that subscribes to the
/// primary over the ordinary protocol, installs the snapshot or
/// resumes, applies every shipped commit and acks it. It resubscribes
/// after a lost link until [`ReplicaNode::stop`] or
/// [`ReplicaNode::promote`]; a replica-mode [`crate::OdeServer`] runs
/// one once it [follows](crate::OdeServer::follow) a primary.
pub struct ReplicaNode {
    tail: Arc<Tail>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl ReplicaNode {
    /// Start tailing the primary at `primary` into `db`, which stays
    /// readable throughout.
    pub fn start(db: Arc<Database>, primary: String) -> ReplicaNode {
        let tail = Arc::new(Tail {
            db,
            primary,
            progress: Progress::new(),
            stop: AtomicBool::new(false),
            stream: Mutex::new(None),
        });
        let run_tail = Arc::clone(&tail);
        let thread = std::thread::Builder::new()
            .name("ode-replica".into())
            .spawn(move || run(&run_tail))
            .expect("spawn replica tail");
        ReplicaNode {
            tail,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Current progress.
    pub fn status(&self) -> NodeStatus {
        let progress = &self.tail.progress;
        NodeStatus {
            pos: progress.pos.load(Ordering::Acquire),
            epoch: progress.epoch.load(Ordering::Acquire),
        }
    }

    /// The replica's database (read it under the epoch gate).
    pub fn database(&self) -> &Arc<Database> {
        &self.tail.db
    }

    /// Stop tailing. The thread is joined, so nothing is applied after
    /// this returns. Idempotent.
    pub fn stop(&self) {
        self.tail.stop.store(true, Ordering::Release);
        if let Some(s) = self.tail.stream.lock().as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }

    /// Promote this replica to primary: stop the tail (joined first, so
    /// no shipped bytes land after the fence), then truncate the log at
    /// the last fully applied commit and make the database writable.
    /// Idempotent.
    pub fn promote(&self) -> ode::Result<()> {
        self.stop();
        self.tail.db.promote_to_primary()
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.stop();
    }
}

fn run(tail: &Tail) {
    while !tail.stop.load(Ordering::Acquire) {
        match subscribe(tail) {
            Ok(()) | Err(NetError::Io(_)) => {}
            // Out of step with the stream, or the store refused what it
            // carried: forget the position so the next subscription
            // starts from a snapshot.
            Err(_) => tail.progress.pos.store(u64::MAX, Ordering::Release),
        }
        *tail.stream.lock() = None;
        if !tail.stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// One subscription: handshake, `Subscribe`, then apply and ack the
/// stream until it ends.
fn subscribe(tail: &Tail) -> crate::Result<()> {
    let addr = tail
        .primary
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| NetError::Io(io::Error::new(io::ErrorKind::NotFound, "no address")))?;
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    // Visible to `ReplicaNode::stop` before anything blocks on it; a
    // stop that came first is seen here.
    *tail.stream.lock() = Some(stream.try_clone()?);
    if tail.stop.load(Ordering::Acquire) {
        return Ok(());
    }
    let mut writer = &stream;
    writer.write_all(&MAGIC)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut echo = [0u8; 4];
    reader.read_exact(&mut echo)?;
    if echo != MAGIC {
        return Err(NetError::Protocol("bad handshake echo".into()));
    }
    write_frame(&mut writer, &tail.progress.subscribe().encode(1))?;

    let mut payload = Vec::new();
    let mut parts = Vec::new();
    while !tail.stop.load(Ordering::Acquire) {
        if !read_frame_into(&mut reader, &mut payload)? {
            return Err(NetError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
        let (_, frame) = Response::decode(&payload)?;
        if let Some(ack) = tail.progress.apply(&tail.db, &mut parts, frame)? {
            write_frame(&mut writer, &ack.encode(0))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! The stream between a subscription and a replica's progress,
    //! played in one thread: every frame the primary's side queues is
    //! applied in order and its ack fed back.

    use ode::{DatabaseOptions, ObjPtr};
    use ode_codec::{impl_persist_struct, impl_type_name};
    use ode_storage::testutil::TempPath;

    use super::*;
    use crate::protocol::FrameBuffer;

    #[derive(Debug, Clone, PartialEq)]
    struct Page {
        n: u64,
        text: String,
    }
    impl_persist_struct!(Page { n, text });
    impl_type_name!(Page = "replication/Page");

    fn write_pages(db: &Database, from: u64, count: u64) -> Vec<ObjPtr<Page>> {
        (from..from + count)
            .map(|n| {
                let mut txn = db.begin();
                let text = format!("{n:04}").repeat(512);
                let p = txn.pnew(&Page { n, text }).expect("pnew");
                txn.commit().expect("commit");
                p
            })
            .collect()
    }

    /// Ship until the subscription owes nothing, applying each frame on
    /// the replica; returns how many snapshot parts went.
    fn play(
        primary: &Database,
        peers: &Peers,
        sub: &mut Subscription,
        replica: &Database,
        progress: &Progress,
    ) -> usize {
        let mut out = Outbox::default();
        let mut frames = FrameBuffer::new();
        let mut parts = Vec::new();
        let mut snapshot_parts = 0;
        while sub.owed(primary) {
            sub.ship(7, primary, &mut out).expect("ship");
            let buf = out.buf().expect("live outbox");
            frames.extend(buf);
            buf.clear();
            while let Some(payload) = frames.next_frame().expect("frame") {
                let (seq, frame) = Response::decode(payload).expect("response");
                assert_eq!(seq, 3, "every frame rides the Subscribe's seq");
                snapshot_parts += matches!(frame, Response::SnapshotPart { .. }) as usize;
                if let Some(Request::Ack { epoch, .. }) =
                    progress.apply(replica, &mut parts, frame).expect("apply")
                {
                    peers.ack(1, Some(epoch), primary);
                }
            }
        }
        snapshot_parts
    }

    fn assert_pages(db: &Database, pages: &[ObjPtr<Page>]) {
        let mut snap = db.snapshot();
        for (n, p) in pages.iter().enumerate() {
            assert_eq!(snap.deref(p).expect("replicated page").n, n as u64);
        }
    }

    /// A page file larger than one part bootstraps in several, the log
    /// then tails; a checkpoint that recycles the log under a live
    /// subscription sends a fresh snapshot, in parts again, mid-stream.
    #[test]
    fn snapshots_cross_parts_at_bootstrap_and_at_a_mid_stream_resync() {
        let (ppath, rpath) = (TempPath::new(), TempPath::new());
        let primary = Database::create(&ppath, DatabaseOptions::no_sync()).expect("primary");
        let replica = Database::create(&rpath, DatabaseOptions::no_sync()).expect("replica");
        let mut pages = write_pages(&primary, 0, 200);
        let peers = Peers::default();
        let progress = Progress::new();
        let Request::Subscribe {
            gen,
            have_pos,
            have_epoch,
        } = progress.subscribe()
        else {
            unreachable!("a subscribe")
        };
        let (mut sub, _) = Subscription::start(
            &peers,
            &primary,
            (1, 7, 3),
            (gen, have_pos, have_epoch),
            &mut Outbox::default(),
        );

        let parts = play(&primary, &peers, &mut sub, &replica, &progress);
        assert!(parts > 1, "a {parts}-part snapshot");
        assert_pages(&replica, &pages);

        pages.extend(write_pages(&primary, 200, 10));
        assert_eq!(
            play(&primary, &peers, &mut sub, &replica, &progress),
            0,
            "tailed, not resynced"
        );
        assert_pages(&replica, &pages);
        assert_eq!(replica.snapshot_epoch(), primary.snapshot_epoch());

        pages.extend(write_pages(&primary, 210, 10));
        primary.checkpoint().expect("checkpoint");
        let parts = play(&primary, &peers, &mut sub, &replica, &progress);
        assert!(parts > 1, "a {parts}-part resync");
        assert_pages(&replica, &pages);
        assert_eq!(replica.snapshot_epoch(), primary.snapshot_epoch());
        assert!(peers.wait_replicated(primary.snapshot_epoch(), Duration::ZERO, || {}));
    }
}
