//! The replica's tailing node.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ode::Database;

use crate::wire::{self, Message};
use crate::{ReplError, Result};

/// A snapshot of a replica's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStatus {
    /// Logical WAL position applied through (`u64::MAX` = no state yet).
    pub pos: u64,
    /// Commit epoch applied through.
    pub epoch: u64,
    /// Whether the shipping channel is currently up.
    pub connected: bool,
}

struct Shared {
    db: Arc<Database>,
    primary_addr: Mutex<String>,
    /// Generation of the primary the position below belongs to.
    gen: AtomicU64,
    pos: AtomicU64,
    epoch: AtomicU64,
    connected: AtomicBool,
    stop: AtomicBool,
    cur_stream: Mutex<Option<TcpStream>>,
}

/// The replica side of WAL shipping: dials the primary, bootstraps
/// (snapshot install or tail resume), applies every shipped commit
/// through the recovery path, and acks. Reconnects with backoff until
/// [`ReplicaNode::stop`] or [`ReplicaNode::promote`].
pub struct ReplicaNode {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl ReplicaNode {
    /// Start tailing `primary_addr` into `db`. The database must have
    /// been opened by this process (it stays readable throughout).
    pub fn start(db: Arc<Database>, primary_addr: String) -> ReplicaNode {
        let shared = Arc::new(Shared {
            db,
            primary_addr: Mutex::new(primary_addr),
            gen: AtomicU64::new(0),
            pos: AtomicU64::new(u64::MAX),
            epoch: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            cur_stream: Mutex::new(None),
        });
        let run_shared = Arc::clone(&shared);
        let thread = std::thread::spawn(move || run(run_shared));
        ReplicaNode {
            shared,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Current progress.
    pub fn status(&self) -> NodeStatus {
        NodeStatus {
            pos: self.shared.pos.load(Ordering::Acquire),
            epoch: self.shared.epoch.load(Ordering::Acquire),
            connected: self.shared.connected.load(Ordering::Acquire),
        }
    }

    /// The replica's database handle (read it under the epoch gate).
    pub fn database(&self) -> &Arc<Database> {
        &self.shared.db
    }

    /// Repoint the tail at a different primary (after a failover
    /// elsewhere promoted a sibling). Takes effect on the next
    /// (re)connect, which this forces by dropping the current channel.
    pub fn follow(&self, primary_addr: String) {
        *lock(&self.shared.primary_addr) = primary_addr;
        if let Some(s) = lock(&self.shared.cur_stream).as_ref() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Stop tailing. The apply thread is joined, so no ingest runs
    /// after this returns. Idempotent.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(s) = lock(&self.shared.cur_stream).as_ref() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = lock(&self.thread).take() {
            let _ = t.join();
        }
    }

    /// Promote this replica to primary: stop the tail (joining the
    /// apply thread first, so no shipped bytes land after the fence),
    /// then truncate the local WAL at the last fully-applied commit and
    /// make the database writable. Idempotent.
    pub fn promote(&self) -> Result<()> {
        self.stop();
        self.shared.db.promote_to_primary()?;
        Ok(())
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run(shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::Acquire) {
        match connect_and_tail(&shared) {
            Ok(()) => {}
            Err(ReplError::Db(_)) | Err(ReplError::Protocol(_)) => {
                // Lost sync with the stream (or the store rejected an
                // apply): forget our position so the next connection
                // re-bootstraps from a snapshot.
                shared.pos.store(u64::MAX, Ordering::Release);
            }
            Err(ReplError::Io(_)) => {}
        }
        shared.connected.store(false, Ordering::Release);
        *lock(&shared.cur_stream) = None;
        if !shared.stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    shared.connected.store(false, Ordering::Release);
}

fn connect_and_tail(shared: &Shared) -> Result<()> {
    let addr = lock(&shared.primary_addr).clone();
    let mut stream = TcpStream::connect(&addr)?;
    stream.set_nodelay(true)?;
    wire::handshake(&mut stream)?;
    wire::write_message(
        &mut stream,
        &Message::Hello {
            gen: shared.gen.load(Ordering::Acquire),
            have_pos: shared.pos.load(Ordering::Acquire),
            have_epoch: shared.epoch.load(Ordering::Acquire),
        },
    )?;
    *lock(&shared.cur_stream) = Some(stream.try_clone()?);
    shared.connected.store(true, Ordering::Release);

    loop {
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        match wire::read_message(&mut stream)? {
            Message::Snapshot {
                gen,
                base_pos,
                epoch,
                seed,
                db_bytes,
            } => {
                shared
                    .db
                    .replica_install_snapshot(&db_bytes, base_pos, epoch, seed)?;
                shared.gen.store(gen, Ordering::Release);
                shared.pos.store(base_pos, Ordering::Release);
                shared.epoch.store(epoch, Ordering::Release);
                wire::write_message(
                    &mut stream,
                    &Message::Ack {
                        pos: base_pos,
                        epoch,
                    },
                )?;
            }
            Message::Resume { gen, from } => {
                if from != shared.pos.load(Ordering::Acquire) {
                    return Err(ReplError::Protocol(format!(
                        "primary resumed at {from}, expected {}",
                        shared.pos.load(Ordering::Acquire)
                    )));
                }
                shared.gen.store(gen, Ordering::Release);
            }
            Message::Chunk { start_pos, bytes } => {
                let pos = shared.pos.load(Ordering::Acquire);
                if start_pos != pos {
                    return Err(ReplError::Protocol(format!(
                        "chunk at {start_pos}, expected {pos}"
                    )));
                }
                let len = bytes.len() as u64;
                let outcome = shared.db.replica_ingest(&bytes)?;
                let new_pos = pos + len;
                shared.pos.store(new_pos, Ordering::Release);
                shared.epoch.store(outcome.epoch, Ordering::Release);
                wire::write_message(
                    &mut stream,
                    &Message::Ack {
                        pos: new_pos,
                        epoch: outcome.epoch,
                    },
                )?;
            }
            other => {
                return Err(ReplError::Protocol(format!(
                    "unexpected frame from primary: {other:?}"
                )))
            }
        }
    }
}
