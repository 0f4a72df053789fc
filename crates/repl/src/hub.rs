//! The primary's shipping hub.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ode::Database;
use ode_storage::WalSpan;

use crate::wire::{self, Message};
use crate::Result;

/// Process-local generation counter; combined with the pid so two
/// primary lifetimes can never hand out the same generation id, even
/// across processes sharing a database directory.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

fn fresh_gen() -> u64 {
    let counter = NEXT_GEN.fetch_add(1, Ordering::Relaxed);
    ((std::process::id() as u64) << 32) | (counter & 0xFFFF_FFFF)
}

/// Largest WAL chunk shipped in one frame.
const CHUNK_LEN: usize = 256 * 1024;
/// How long a ship loop waits for new shippable bytes before
/// re-checking for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Per-replica connection state, shared between the ship thread, the
/// ack-reader thread, and hub-level observers.
struct Peer {
    stream: TcpStream,
    acked_pos: AtomicU64,
    acked_epoch: AtomicU64,
    alive: AtomicBool,
}

struct Shared {
    db: Arc<Database>,
    gen: u64,
    shutdown: AtomicBool,
    peers: Mutex<Vec<Arc<Peer>>>,
    /// Signalled on every ack and every peer death; pairs with `peers`
    /// for [`ReplicationHub::wait_replicated`].
    ack_cv: Condvar,
}

impl Shared {
    /// Recompute the worst-replica lag gauge from live peers.
    fn refresh_lag(&self) {
        let primary = self.db.snapshot_epoch();
        let peers = lock(&self.peers);
        let lag = peers
            .iter()
            .filter(|p| p.alive.load(Ordering::Acquire))
            .map(|p| primary.saturating_sub(p.acked_epoch.load(Ordering::Acquire)))
            .max()
            .unwrap_or(0);
        self.db.set_replica_lag_epochs(lag);
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The primary side of WAL shipping: accepts replica connections,
/// bootstraps each one, and streams the fsynced log.
pub struct ReplicationHub {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl ReplicationHub {
    /// Start shipping `db`'s WAL to whoever connects to `addr` (use
    /// port 0 to pick a free port; see [`ReplicationHub::local_addr`]).
    pub fn start(db: Arc<Database>, addr: &str) -> Result<ReplicationHub> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            gen: fresh_gen(),
            shutdown: AtomicBool::new(false),
            peers: Mutex::new(Vec::new()),
            ack_cv: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(accept_shared, listener));
        Ok(ReplicationHub {
            shared,
            local_addr,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The address replicas should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This primary lifetime's generation id.
    pub fn generation(&self) -> u64 {
        self.shared.gen
    }

    /// Number of currently connected replicas.
    pub fn replica_count(&self) -> usize {
        lock(&self.shared.peers)
            .iter()
            .filter(|p| p.alive.load(Ordering::Acquire))
            .count()
    }

    /// Highest epoch any live replica has acknowledged applying.
    pub fn max_acked_epoch(&self) -> u64 {
        lock(&self.shared.peers)
            .iter()
            .filter(|p| p.alive.load(Ordering::Acquire))
            .map(|p| p.acked_epoch.load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    /// Semi-synchronous commit barrier: block until at least one live
    /// replica has acknowledged applying `epoch` (true), or until no
    /// replica is connected at all / `timeout` elapses (false).
    ///
    /// Waiting for *one* ack is enough for failover safety because
    /// promotion picks the most-caught-up replica: any replica whose
    /// epoch is ≥ the acker's has applied this commit too.
    pub fn wait_replicated(&self, epoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut peers = lock(&self.shared.peers);
        loop {
            let mut any_live = false;
            for p in peers.iter() {
                if p.alive.load(Ordering::Acquire) {
                    any_live = true;
                    if p.acked_epoch.load(Ordering::Acquire) >= epoch {
                        return true;
                    }
                }
            }
            if !any_live {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .ack_cv
                .wait_timeout(peers, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            peers = guard;
        }
    }

    /// Stop shipping: close every replica channel and join the accept
    /// loop. The database itself stays open.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for p in lock(&self.shared.peers).iter() {
            let _ = p.stream.shutdown(std::net::Shutdown::Both);
        }
        // Wake the blocked accept() with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = lock(&self.accept_thread).take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicationHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let conn_shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let _ = serve_replica(conn_shared, stream);
        });
    }
}

/// Bootstrap one replica and ship to it until the connection dies.
fn serve_replica(shared: Arc<Shared>, mut stream: TcpStream) -> Result<()> {
    stream.set_nodelay(true)?;
    wire::handshake(&mut stream)?;
    let hello = match wire::read_message(&mut stream)? {
        Message::Hello {
            gen,
            have_pos,
            have_epoch,
        } => (gen, have_pos, have_epoch),
        other => {
            return Err(crate::ReplError::Protocol(format!(
                "expected Hello, got {other:?}"
            )))
        }
    };

    let peer = Arc::new(Peer {
        stream: stream.try_clone()?,
        acked_pos: AtomicU64::new(0),
        acked_epoch: AtomicU64::new(hello.2),
        alive: AtomicBool::new(true),
    });
    lock(&shared.peers).push(Arc::clone(&peer));

    // Ack reader: drains replica acks concurrently with shipping.
    let ack_shared = Arc::clone(&shared);
    let ack_peer = Arc::clone(&peer);
    let mut ack_stream = stream.try_clone()?;
    let ack_thread = std::thread::spawn(move || {
        while let Ok(msg) = wire::read_message(&mut ack_stream) {
            if let Message::Ack { pos, epoch } = msg {
                ack_peer.acked_pos.store(pos, Ordering::Release);
                ack_peer.acked_epoch.store(epoch, Ordering::Release);
                ack_shared.refresh_lag();
                let _guard = lock(&ack_shared.peers);
                ack_shared.ack_cv.notify_all();
            }
        }
        ack_peer.alive.store(false, Ordering::Release);
        ack_shared.refresh_lag();
        let _guard = lock(&ack_shared.peers);
        ack_shared.ack_cv.notify_all();
    });

    let result = ship_loop(&shared, &peer, &mut stream, hello);

    peer.alive.store(false, Ordering::Release);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = ack_thread.join();
    let mut peers = lock(&shared.peers);
    peers.retain(|p| !Arc::ptr_eq(p, &peer));
    shared.ack_cv.notify_all();
    drop(peers);
    shared.refresh_lag();
    result
}

fn ship_loop(
    shared: &Shared,
    peer: &Peer,
    stream: &mut TcpStream,
    (hello_gen, have_pos, _have_epoch): (u64, u64, u64),
) -> Result<()> {
    let db = &shared.db;
    let mut writer = BufWriter::new(stream.try_clone()?);

    // Bootstrap: resume a live position from our own generation, else
    // ship a fresh snapshot. Positions from another generation (a dead
    // primary's lineage) are never trusted — the replica re-syncs.
    let mut from = if hello_gen == shared.gen && have_pos != u64::MAX {
        wire::write_message(
            &mut writer,
            &Message::Resume {
                gen: shared.gen,
                from: have_pos,
            },
        )?;
        have_pos
    } else {
        send_snapshot(shared, &mut writer)?
    };

    loop {
        if shared.shutdown.load(Ordering::Acquire) || !peer.alive.load(Ordering::Acquire) {
            return Ok(());
        }
        match db.read_wal_span(from, CHUNK_LEN)? {
            WalSpan::Data(bytes) => {
                let len = bytes.len() as u64;
                wire::write_message(
                    &mut writer,
                    &Message::Chunk {
                        start_pos: from,
                        bytes,
                    },
                )?;
                db.note_bytes_shipped(len);
                from += len;
            }
            WalSpan::AtEnd => {
                db.wait_shippable(from, POLL_INTERVAL);
            }
            WalSpan::SnapshotNeeded => {
                from = send_snapshot(shared, &mut writer)?;
            }
        }
    }
}

/// Take a fresh snapshot of the primary and ship it; returns the
/// logical position the chunk stream continues from.
fn send_snapshot(shared: &Shared, writer: &mut BufWriter<TcpStream>) -> Result<u64> {
    let snap = shared.db.repl_snapshot()?;
    let base_pos = snap.base_pos;
    let len = snap.db_bytes.len() as u64;
    wire::write_message(
        writer,
        &Message::Snapshot {
            gen: shared.gen,
            base_pos,
            epoch: snap.epoch,
            seed: snap.seed,
            db_bytes: snap.db_bytes,
        },
    )?;
    shared.db.note_bytes_shipped(len);
    Ok(base_pos)
}
