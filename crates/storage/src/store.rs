//! Transactional store: the facade combining pager, buffer pool, WAL,
//! snapshot gate, and group commit.
//!
//! Concurrency model: **many concurrent readers, many concurrent
//! writers (optimistic), with an exclusive-writer mode retained.**
//!
//! * A [`ReadTx`] holds the shared side of the [`SnapshotGate`] and
//!   resolves pages through the sharded buffer pool (or the pager on a
//!   miss) — it takes no exclusive lock anywhere, so read transactions
//!   run fully in parallel with each other, and they can never abort.
//! * An *exclusive* [`Tx`] ([`Store::begin`]) holds the store's write
//!   mutex for its lifetime (writers serialize, matching the paper's
//!   single-writer scope) and buffers every mutation in a **private
//!   write set**.  Nothing a transaction writes is visible to anyone
//!   until commit; abort is simply dropping the write set.
//! * An *optimistic* [`Tx`] ([`Store::begin_optimistic`]) builds the
//!   same private write set with **no lock held**, tracking the page
//!   ids it reads and writes. Commit validates that set against the
//!   commits that landed since the transaction began (a bounded
//!   commit log of recent write sets, first-committer-wins) inside a
//!   short critical section under the write mutex; a loser aborts with
//!   [`StorageError::WriteConflict`] before touching the WAL, and the
//!   caller re-executes it. Each page fetch also revalidates when the
//!   epoch has advanced, so every read view is consistent and doomed
//!   transactions fail at the first stale fetch instead of at commit.
//! * Commit appends byte-range deltas (full after-images for heavily
//!   rewritten pages) plus a commit record to the WAL in one write,
//!   then takes the snapshot gate's exclusive side
//!   for the brief *publish* step: bump the store epoch and install the
//!   after-images into the buffer pool.  Readers therefore always see a
//!   whole committed prefix — never a torn commit.
//! * With [`StoreOptions::group_commit`] enabled, the WAL fsync is
//!   amortized across concurrent committers (leader/follower): the
//!   commit publishes first and then waits until a group leader's
//!   single `fsync` covers its log position.  `commit()` never returns
//!   before the transaction is durable; the only effect of the
//!   reordering is that *other* transactions may observe data up to
//!   [`StoreOptions::group_commit_window`] before it is durable —
//!   standard early-lock-release semantics.
//!
//! Durability protocol (unchanged from the single-lock engine):
//!
//! * page 0 is the store header (magic, page count, free-list head, and
//!   sixteen named *root slots* used by higher layers);
//! * during a transaction all page mutations stay in the write set;
//! * commit appends its page changes + a commit record to the WAL (fsync
//!   governed by [`StoreOptions::sync_on_commit`]);
//! * abort (dropping a [`Tx`] uncommitted) discards the write set;
//! * checkpoint writes dirty pool pages to the database file, fsyncs,
//!   and starts a new log generation — recycling the log file in place
//!   when the store checkpoints by itself, trimming it back to its
//!   header otherwise (see [`crate::wal`]);
//! * open replays the WAL's committed transactions into the database
//!   file and trims the log — the same [`Replay`] and
//!   [`CommittedTx::apply`](crate::wal::CommittedTx::apply) a replica
//!   runs over shipped bytes.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use crate::buffer::{BufferPool, BufferStats};
use crate::gate::SnapshotGate;
use crate::page::{PageBuf, PageId, PageKind, PAGE_SIZE};
use crate::pager::Pager;
use crate::wal::{page_diff_ops, push_frame, Replay, Scan, Wal, WalRecord, WalSyncHandle};
use crate::{Result, StorageError};

/// Magic number identifying an Ode store header page.
pub const MAGIC: u32 = 0x4F44_4531; // "ODE1"
/// Current file-format version. Version 3 stores every version's state
/// once — the latest whole in its record, every older one in its
/// object's delta chain — and byte strings (every `Vec<u8>` in a
/// record: version bodies, anchors, delta inserts) as a length plus raw
/// bytes. Version 4 keeps that page file and gives the log a seeded
/// header and chained frames, so a checkpoint can recycle the log file
/// instead of truncating it (see [`crate::wal`]). Files of any other
/// version are refused with [`StorageError::UnsupportedFormat`].
pub const FORMAT_VERSION: u32 = 4;
/// Number of named root slots in the header.
pub const ROOT_SLOTS: usize = 16;

/// Header-page field offsets (bytes ≥ 16 are past the common page header).
pub(crate) mod hdr {
    pub const MAGIC: usize = 16;
    pub const FORMAT_VERSION: usize = 20;
    pub const PAGE_COUNT: usize = 24;
    pub const FREE_HEAD: usize = 32;
    pub const ROOTS: usize = 40;
}

/// Tuning and durability options for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Buffer-pool capacity in pages.
    pub buffer_pages: usize,
    /// fsync the WAL on every commit. Disable only for benchmarks where
    /// durability of the tail is irrelevant.
    pub sync_on_commit: bool,
    /// Amortize commit fsyncs across concurrent committers: the first
    /// committer to reach the sync step fsyncs once for every commit
    /// appended so far (leader/follower). Only meaningful with
    /// [`StoreOptions::sync_on_commit`]; `commit()` still returns only
    /// after the transaction is durable.
    pub group_commit: bool,
    /// How long a group-commit leader waits before fsyncing, letting
    /// more concurrent commits join its cohort. Zero (the default)
    /// means no deliberate wait — batching then comes only from commits
    /// that arrive while a previous fsync is in flight, which keeps
    /// single-writer latency unchanged.
    pub group_commit_window: Duration,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            buffer_pages: 1024,
            sync_on_commit: true,
            group_commit: true,
            group_commit_window: Duration::ZERO,
        }
    }
}

/// A commit checkpoints once the WAL has grown past this many bytes.
const CHECKPOINT_WAL_BYTES: u64 = 16 * 1024 * 1024;
/// Gap tolerance when merging changed byte runs into delta ops.
const DELTA_RUN_GAP: usize = 24;
/// The log holds a page's changed byte ranges — the storage-level
/// "small changes have small impact" — unless their payload exceeds
/// this; then it holds the full page image.
const DELTA_MAX_PAYLOAD: usize = (PAGE_SIZE * 3) / 4;

/// Contention and commit statistics (monotone totals; see
/// [`Store::stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Read transactions begun.
    pub read_txs: u64,
    /// Write transactions committed with a non-empty write set.
    pub write_txs: u64,
    /// Read transactions that blocked at the snapshot gate (behind a
    /// publishing or waiting writer).
    pub reader_waits: u64,
    /// Total nanoseconds readers spent blocked at the gate.
    pub reader_wait_nanos: u64,
    /// Writer acquisitions (write mutex or publish gate) that blocked.
    pub writer_waits: u64,
    /// Total nanoseconds writers spent blocked.
    pub writer_wait_nanos: u64,
    /// WAL fsyncs issued (inline and group-leader).
    pub wal_syncs: u64,
    /// fsyncs performed by a group-commit leader.
    pub group_syncs: u64,
    /// Commits made durable by a group-leader fsync.
    pub group_commit_txns: u64,
    /// Largest commit cohort one group fsync covered.
    pub group_batch_max: u64,
    /// WAL bytes shipped to replicas (primary side; counted by the
    /// shipping server via [`Store::note_bytes_shipped`]).
    pub bytes_shipped: u64,
    /// Current replica lag in epochs: the primary's epoch minus the
    /// slowest connected replica's acked epoch (a gauge, set by the
    /// shipping server; 0 with no replicas or when caught up).
    pub replica_lag_epochs: u64,
    /// Times this store was promoted from replica to primary.
    pub failovers: u64,
    /// Optimistic transactions aborted with
    /// [`StorageError::WriteConflict`] because a page they touched was
    /// committed by another writer after they began.
    pub write_conflicts: u64,
    /// Times a caller re-executed a conflicted transaction (counted by
    /// the retry loop above the engine via [`Store::note_write_retry`]).
    pub write_retries: u64,
}

#[derive(Default)]
struct Counters {
    read_txs: AtomicU64,
    write_txs: AtomicU64,
    writer_lock_waits: AtomicU64,
    writer_lock_wait_nanos: AtomicU64,
    wal_syncs: AtomicU64,
    group_syncs: AtomicU64,
    group_commit_txns: AtomicU64,
    group_batch_max: AtomicU64,
    bytes_shipped: AtomicU64,
    replica_lag_epochs: AtomicU64,
    failovers: AtomicU64,
    write_conflicts: AtomicU64,
    write_retries: AtomicU64,
}

/// How many recent commits the [`CommitLog`] retains for optimistic
/// validation. A transaction whose begin epoch has already been trimmed
/// conservatively conflicts — in practice that needs a transaction to
/// stay open across thousands of foreign commits.
const COMMIT_LOG_CAP: usize = 4096;

/// Bounded record of recently committed write sets, consulted by
/// optimistic transactions (see [`Store::begin_optimistic`]) to decide
/// whether any page they observed was overwritten after they observed
/// it. Appended inside every publish critical section (local commits
/// and replica applies alike), so a validator holding either the write
/// mutex or the gate's shared side sees a log exactly consistent with
/// the epoch counter.
struct CommitLog {
    inner: Mutex<CommitLogInner>,
}

struct CommitLogInner {
    /// `(epoch, written page ids)` per publish, oldest first.
    entries: VecDeque<(u64, Box<[u64]>)>,
    /// Highest epoch that has been trimmed from `entries` (or predates
    /// this log). Validation windows starting below it must
    /// conservatively report a conflict.
    horizon: u64,
}

impl CommitLog {
    fn new(horizon: u64) -> CommitLog {
        CommitLog {
            inner: Mutex::new(CommitLogInner {
                entries: VecDeque::new(),
                horizon,
            }),
        }
    }

    /// Record one published commit's write set.
    fn record(&self, epoch: u64, pages: Box<[u64]>) {
        let mut inner = self.inner.lock();
        debug_assert!(inner.entries.back().is_none_or(|(e, _)| *e < epoch));
        inner.entries.push_back((epoch, pages));
        while inner.entries.len() > COMMIT_LOG_CAP {
            let (trimmed, _) = inner.entries.pop_front().expect("len > cap");
            inner.horizon = trimmed;
        }
    }

    /// Drop everything and restart the horizon at `epoch` (snapshot
    /// install rewrites the whole store, so no prior window is valid).
    fn reset(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.horizon = epoch;
    }

    /// Whether any commit with epoch `> since` wrote a page for which
    /// `touched` returns true. Conservatively true when `since` predates
    /// the retained window.
    fn conflicts_since(&self, since: u64, touched: impl Fn(u64) -> bool) -> bool {
        let inner = self.inner.lock();
        if since < inner.horizon {
            return true;
        }
        inner
            .entries
            .iter()
            .rev()
            .take_while(|(epoch, _)| *epoch > since)
            .any(|(_, pages)| pages.iter().any(|&p| touched(p)))
    }
}

/// State reachable only through the store's write mutex.
struct WriteState {
    wal: Wal,
    /// Monotone count of logical bytes ever appended to the WAL. Unlike
    /// `wal.len()` this survives checkpoints, so it can serve as a
    /// group-commit sync target.
    logical_pos: u64,
    /// Logical position of the start of the current WAL file (invariant:
    /// `base_pos == logical_pos - wal.len()`). The shipping coordinate:
    /// a replica asking for bytes below `base_pos` needs a fresh
    /// snapshot, because a checkpoint already recycled that span.
    base_pos: u64,
    /// Monotone count of committed (non-empty) write transactions.
    commit_seq: u64,
    /// Replication apply state, present once this store has ingested
    /// shipped WAL bytes (i.e. it is acting as a replica): shipped bytes
    /// land in the local WAL verbatim and this re-frames them, in
    /// *logical* positions, so a checkpoint's new generation does not
    /// move its coordinates.
    apply: Option<Replay>,
}

impl WriteState {
    /// The chain's link at the end of the log: what the next frame, or
    /// the next generation's seed, chains from. A replica tracks the
    /// chain of the bytes it lands with its [`Replay`].
    fn chain_end(&self) -> u32 {
        self.apply
            .as_ref()
            .map_or(self.wal.tail(), Replay::committed_link)
    }
}

/// How a checkpoint leaves the log file (see [`crate::wal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogAfter {
    /// Keep the file and overwrite it from the front: the checkpoints
    /// the store takes by itself.
    Recycled,
    /// Cut the file back to its header: the checkpoints a caller asks
    /// for, and shutdown.
    Trimmed,
}

/// Result of one [`Store::replica_ingest`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Commits applied (and epochs advanced) by this ingest.
    pub commits_applied: u64,
    /// The store's epoch after applying.
    pub epoch: u64,
}

/// A point-in-time copy of the store for bootstrapping a replica.
pub struct ReplSnapshot {
    /// Raw bytes of the (just-checkpointed) page file.
    pub db_bytes: Vec<u8>,
    /// Logical WAL position the snapshot corresponds to; shipping
    /// resumes from here.
    pub base_pos: u64,
    /// Commit epoch of the snapshotted state.
    pub epoch: u64,
    /// Seed of the log generation shipping resumes in: the replica's
    /// log chains from it.
    pub seed: u32,
}

/// One answer from [`Store::read_wal_span`].
pub enum WalSpan {
    /// Raw WAL bytes starting at the requested logical position.
    Data(Vec<u8>),
    /// Nothing shippable past the requested position yet.
    AtEnd,
    /// The requested position predates the current WAL file (a
    /// checkpoint recycled it) or postdates this store's stream (a
    /// fenced ex-primary asking to resume past a divergence): the
    /// replica needs a fresh snapshot.
    SnapshotNeeded,
}

/// A callback run each time the shippable log grows (see
/// [`Store::set_ship_waker`]).
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// A monotone watermark with waiters (shipped-position and applied-epoch
/// signals): threads blocked in [`Watermark::wait_past`], and at most
/// one [`Waker`]. `Mutex<u64>` + std `Condvar` compose because the
/// vendored parking_lot guard *is* the std guard type (see the note on
/// [`GroupCommit`]).
struct Watermark {
    value: Mutex<u64>,
    cv: std::sync::Condvar,
    waker: Mutex<Option<Waker>>,
}

impl Watermark {
    fn new(value: u64) -> Watermark {
        Watermark {
            value: Mutex::new(value),
            cv: std::sync::Condvar::new(),
            waker: Mutex::new(None),
        }
    }

    fn get(&self) -> u64 {
        *self.value.lock()
    }

    /// Raise the watermark (monotone; lower values are ignored), then
    /// call the waker, outside every lock of this watermark.
    fn advance(&self, to: u64) {
        let mut v = self.value.lock();
        if to <= *v {
            return;
        }
        *v = to;
        self.cv.notify_all();
        drop(v);
        let waker = self.waker.lock().clone();
        if let Some(wake) = waker {
            wake();
        }
    }

    /// Wait until the watermark exceeds `past` or `timeout` elapses;
    /// returns the current value either way.
    fn wait_past(&self, past: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut v = self.value.lock();
        while *v <= past {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, res) = self
                .cv
                .wait_timeout(v, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            v = guard;
            if res.timed_out() {
                break;
            }
        }
        *v
    }
}

/// Leader/follower group-commit coordinator.
///
/// Commits register their `(logical_pos, commit_seq)` under the write
/// mutex, *release it*, then call [`GroupCommit::sync_to`]. The first
/// committer to arrive becomes leader: it optionally waits out the
/// window, snapshots the registered high-water mark, fsyncs the WAL
/// once through a duplicated file handle, and advances `synced_*` for
/// the whole cohort. Followers just wait for `synced_pos` to cover
/// their target. A checkpoint (which fsyncs the database file and
/// starts a new log generation) marks everything synced.
struct GroupCommit {
    state: Mutex<GcState>,
    cv: std::sync::Condvar,
    handle: WalSyncHandle,
    window: Duration,
}

#[derive(Default)]
struct GcState {
    appended_pos: u64,
    appended_seq: u64,
    synced_pos: u64,
    synced_seq: u64,
    leader_active: bool,
    /// Sticky fsync failure: every waiter (current and future) errors.
    failed: Option<std::io::ErrorKind>,
}

impl GroupCommit {
    fn new(handle: WalSyncHandle, window: Duration) -> GroupCommit {
        GroupCommit {
            state: Mutex::new(GcState::default()),
            cv: std::sync::Condvar::new(),
            handle,
            window,
        }
    }

    /// Record a commit's log position (called under the write mutex, so
    /// positions arrive strictly increasing).
    fn register(&self, pos: u64, seq: u64) {
        let mut st = self.state.lock();
        st.appended_pos = pos;
        st.appended_seq = seq;
    }

    /// Everything appended so far is durable through other means (the
    /// checkpoint fsynced the database file).
    fn mark_all_synced(&self) {
        let mut st = self.state.lock();
        st.synced_pos = st.appended_pos;
        st.synced_seq = st.appended_seq;
        self.cv.notify_all();
    }

    /// Block until the WAL is durable up to `pos`, becoming the group
    /// leader if no fsync is in flight.
    fn sync_to(&self, pos: u64, counters: &Counters) -> Result<()> {
        let mut guard = self.state.lock();
        loop {
            if let Some(kind) = guard.failed {
                return Err(StorageError::Io(std::io::Error::from(kind)));
            }
            if guard.synced_pos >= pos {
                return Ok(());
            }
            if guard.leader_active {
                // Follower: a leader's fsync is in flight; it (or the
                // next leader) will cover us.
                guard = self
                    .cv
                    .wait(guard)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            guard.leader_active = true;
            if !self.window.is_zero() {
                // Let more commits join the cohort. A spurious or early
                // wake just shortens the window, which is harmless.
                let (g, _) = self
                    .cv
                    .wait_timeout(guard, self.window)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                guard = g;
            }
            let goal_pos = guard.appended_pos;
            let goal_seq = guard.appended_seq;
            drop(guard);
            let outcome = self.handle.sync();
            guard = self.state.lock();
            guard.leader_active = false;
            match outcome {
                Ok(()) => {
                    counters.wal_syncs.fetch_add(1, Ordering::Relaxed);
                    if goal_pos > guard.synced_pos {
                        let batch = goal_seq - guard.synced_seq;
                        guard.synced_pos = goal_pos;
                        guard.synced_seq = goal_seq;
                        counters.group_syncs.fetch_add(1, Ordering::Relaxed);
                        counters
                            .group_commit_txns
                            .fetch_add(batch, Ordering::Relaxed);
                        counters.group_batch_max.fetch_max(batch, Ordering::Relaxed);
                    }
                    self.cv.notify_all();
                    // Loop: the goal covered at least our own position
                    // (we registered before calling sync_to), so the
                    // next iteration returns Ok.
                }
                Err(e) => {
                    guard.failed = Some(match &e {
                        StorageError::Io(io) => io.kind(),
                        _ => std::io::ErrorKind::Other,
                    });
                    self.cv.notify_all();
                    return Err(e);
                }
            }
        }
    }
}

// `Mutex` here is the vendored parking_lot wrapper whose `lock()` has no
// poison Result; `GcState`'s lock is used with `std::sync::Condvar`,
// which needs the std guard type — the wrapper's guard *is*
// `std::sync::MutexGuard`, so the two compose.

/// A durable, transactional page store with concurrent readers.
pub struct Store {
    pager: Pager,
    pool: BufferPool,
    write: Mutex<WriteState>,
    gate: SnapshotGate,
    group: GroupCommit,
    /// Bumped (under the gate's exclusive side) by every published
    /// commit. Readers stamp their snapshot with the value sampled
    /// after entering the gate.
    epoch: AtomicU64,
    /// Next transaction id. Atomic (not part of [`WriteState`]) so
    /// optimistic transactions can begin without touching the write
    /// mutex; ids are unique but may appear out of order in the WAL,
    /// which recovery and replica apply tolerate (both key on the id,
    /// not its ordering).
    next_tx: AtomicU64,
    /// Recently committed write sets, for optimistic validation.
    commit_log: CommitLog,
    /// Highest logical WAL position safe to ship to replicas: bytes at
    /// or below it are durable per this store's durability model
    /// (fsynced, group-synced, or merely appended when
    /// `sync_on_commit` is off — the caller opted out of durability, so
    /// shipping follows suit).
    ship: Watermark,
    /// The epoch as a waitable watermark (advanced after every publish),
    /// so a replica server can block a floor-pinned read until the apply
    /// stream catches up.
    applied: Watermark,
    counters: Counters,
    options: StoreOptions,
    db_path: PathBuf,
}

/// Read access to pages, shared by [`Tx`] and [`ReadTx`].
pub trait PageRead {
    /// Read-only view of a page.
    fn page(&mut self, id: PageId) -> Result<&PageBuf>;
    /// Read a named root slot.
    fn root(&mut self, slot: usize) -> Result<u64>;
    /// Total pages tracked by the store header.
    fn page_count(&mut self) -> Result<u64>;
}

/// Mutating access to pages, implemented by [`Tx`] only.
pub trait PageWrite: PageRead {
    /// Mutable view of a page (copied into the private write set on
    /// first touch).
    fn page_mut(&mut self, id: PageId) -> Result<&mut PageBuf>;
    /// Allocate a fresh page of `kind`.
    fn allocate(&mut self, kind: PageKind) -> Result<PageId>;
    /// Return a page to the free list.
    fn free_page(&mut self, id: PageId) -> Result<()>;
    /// Write a named root slot.
    fn set_root(&mut self, slot: usize, value: u64) -> Result<()>;
}

impl Store {
    /// Create a new store, erasing any existing files at `path` (the
    /// database file) and `path` + `".wal"`.
    pub fn create(path: impl AsRef<Path>, options: StoreOptions) -> Result<Store> {
        let db_path = path.as_ref().to_path_buf();
        let wal_path = wal_path_for(&db_path);
        let _ = std::fs::remove_file(&wal_path);
        let pager = Pager::create(&db_path)?;

        let mut header = PageBuf::new(PageKind::Header);
        header.write_u32(hdr::MAGIC, MAGIC);
        header.write_u32(hdr::FORMAT_VERSION, FORMAT_VERSION);
        header.write_u64(hdr::PAGE_COUNT, 1);
        header.write_u64(hdr::FREE_HEAD, 0);
        pager.write_page(PageId::HEADER, &mut header)?;
        pager.sync()?;

        let wal = Wal::open(&wal_path)?;
        Store::assemble(pager, wal, options, db_path)
    }

    /// Open an existing store, running crash recovery from the WAL.
    pub fn open(path: impl AsRef<Path>, options: StoreOptions) -> Result<Store> {
        let db_path = path.as_ref().to_path_buf();
        let wal_path = wal_path_for(&db_path);
        let pager = Pager::open(&db_path)?;
        // Another build's files are refused before recovery writes to
        // either; a damaged header waits for the full check below.
        if let Ok(header) = pager.read_page(PageId::HEADER) {
            check_format(&header)?;
        }
        let mut wal = Wal::open(&wal_path)?;

        // Recovery is the replica path over the local log: replay its
        // bytes, fold each committed transaction into an in-memory page
        // map (so a page touched by many transactions is read and
        // written once), write, sync, and trim the log. A short or bad
        // frame ends the generation and the replay; so does an intact
        // tail with no `Commit`, which must not outlive this open — tx
        // ids restart at 1, and a later transaction reusing the id
        // would adopt those pages. Idempotent, so a crash during
        // recovery just reruns it. No other thread can hold the store
        // yet, so plain pager writes are safe.
        let mut replay = Replay::new(0, wal.seed());
        replay.push(&wal.read_span(0, wal.len() as usize)?);
        let mut recovered = BTreeMap::new();
        while let Scan::Found(tx) = replay.next_commit()? {
            // Base = the file state (last checkpoint); a page past EOF
            // or never written starts zeroed, a damaged one fails the
            // open.
            tx.apply(&mut recovered, |id| pager.recovery_base(id))?;
        }
        for (id, mut page) in recovered {
            pager.write_page(id, &mut page)?;
        }
        if !wal.is_at_rest()? {
            pager.sync()?;
            wal.trim(wal.tail())?;
        }

        // Validate the header now that recovery has run.
        check_header(pager.read_page(PageId::HEADER)?.as_bytes())?;

        Store::assemble(pager, wal, options, db_path)
    }

    fn assemble(pager: Pager, wal: Wal, options: StoreOptions, db_path: PathBuf) -> Result<Store> {
        let handle = wal.sync_handle()?;
        let window = options.group_commit_window;
        let logical_pos = wal.len();
        Ok(Store {
            pool: BufferPool::new(options.buffer_pages),
            pager,
            write: Mutex::new(WriteState {
                logical_pos,
                wal,
                base_pos: 0,
                commit_seq: 0,
                apply: None,
            }),
            gate: SnapshotGate::new(),
            group: GroupCommit::new(handle, window),
            epoch: AtomicU64::new(1),
            next_tx: AtomicU64::new(1),
            commit_log: CommitLog::new(1),
            ship: Watermark::new(logical_pos),
            applied: Watermark::new(1),
            counters: Counters::default(),
            options,
            db_path,
        })
    }

    /// Open `path`, creating a fresh store when the file does not exist.
    pub fn open_or_create(path: impl AsRef<Path>, options: StoreOptions) -> Result<Store> {
        if path.as_ref().exists() {
            Store::open(path, options)
        } else {
            Store::create(path, options)
        }
    }

    /// Path of the database file.
    pub fn path(&self) -> &Path {
        &self.db_path
    }

    /// The current commit epoch: bumped by every published commit
    /// before that commit's `Tx::commit` returns.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Acquire the write mutex, counting the wait if it blocks.
    fn lock_write(&self) -> MutexGuard<'_, WriteState> {
        if let Some(guard) = self.write.try_lock() {
            return guard;
        }
        let start = Instant::now();
        let guard = self.write.lock();
        self.counters
            .writer_lock_waits
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .writer_lock_wait_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        guard
    }

    /// Begin an exclusive write transaction. Holds the store's write
    /// lock until commit or drop (abort); concurrent [`ReadTx`]s are
    /// unaffected. Exclusive transactions never see
    /// [`StorageError::WriteConflict`] — use this when the caller wants
    /// serialized writers with no retry loop.
    pub fn begin(&self) -> Tx<'_> {
        let guard = self.lock_write();
        let tx_id = self.next_tx.fetch_add(1, Ordering::Relaxed);
        let epoch = self.epoch.load(Ordering::Acquire);
        Tx {
            store: self,
            write: Some(guard),
            tx_id,
            validated_epoch: epoch,
            pages: HashMap::new(),
            base: HashMap::new(),
            order: Vec::new(),
            pins: HashMap::new(),
        }
    }

    /// Begin an *optimistic* write transaction: no lock is taken, so any
    /// number may build private write sets concurrently (and concurrently
    /// with one exclusive writer). Every page the transaction reads or
    /// writes is tracked; [`Tx::commit`] validates that set against the
    /// commits that landed since the transaction began, under a short
    /// critical section — first committer wins, losers abort with
    /// [`StorageError::WriteConflict`] leaving no trace (nothing reaches
    /// the WAL or the pool). The caller is expected to re-execute the
    /// whole transaction on conflict; winners flow through the same
    /// group-commit fsync batching as exclusive commits.
    ///
    /// Reads stay consistent *during* the build phase too: each page
    /// fetch revalidates the set whenever the commit epoch has advanced,
    /// so a conflicted transaction fails fast (at the fetch) rather than
    /// traversing structures torn across epochs.
    pub fn begin_optimistic(&self) -> Tx<'_> {
        let tx_id = self.next_tx.fetch_add(1, Ordering::Relaxed);
        let epoch = self.epoch.load(Ordering::Acquire);
        Tx {
            store: self,
            write: None,
            tx_id,
            validated_epoch: epoch,
            pages: HashMap::new(),
            base: HashMap::new(),
            order: Vec::new(),
            pins: HashMap::new(),
        }
    }

    /// Count one caller-level re-execution of a conflicted transaction
    /// (the engine aborts but cannot retry — only the caller can re-run
    /// the transaction body against fresh reads).
    pub fn note_write_retry(&self) {
        self.counters.write_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Begin a read-only transaction. Takes only the shared side of the
    /// snapshot gate: read transactions run concurrently with each
    /// other and with a writer's build phase, excluding only the brief
    /// publish step of a commit.
    pub fn read(&self) -> ReadTx<'_> {
        let gate = self.gate.read();
        // Sampled under the gate, so it names exactly the committed
        // prefix this transaction can observe.
        let epoch = self.epoch.load(Ordering::Acquire);
        self.counters.read_txs.fetch_add(1, Ordering::Relaxed);
        ReadTx {
            store: self,
            _gate: gate,
            epoch,
            pins: HashMap::new(),
        }
    }

    /// Shared-path page lookup (buffer pool, falling back to the file).
    fn fetch(&self, id: PageId) -> Result<Arc<PageBuf>> {
        self.pool.get(&self.pager, id)
    }

    /// Write all dirty pages to the database file and trim the WAL back
    /// to its header.
    pub fn checkpoint(&self) -> Result<()> {
        let mut ws = self.lock_write();
        self.checkpoint_locked(&mut ws, LogAfter::Trimmed)
    }

    /// Write all dirty pages to the database file, fsync it, and only
    /// then start the log's next generation, seeded by the link at the
    /// old one's end.
    fn checkpoint_locked(&self, ws: &mut WriteState, after: LogAfter) -> Result<()> {
        self.pool.flush_all(&self.pager)?;
        self.pager.sync()?;
        let seed = ws.chain_end();
        match after {
            LogAfter::Recycled => ws.wal.recycle(seed)?,
            LogAfter::Trimmed => ws.wal.trim(seed)?,
        }
        ws.base_pos = ws.logical_pos;
        debug_assert_eq!(ws.logical_pos - ws.base_pos, ws.wal.len());
        // Every appended commit is now durable via the database file.
        self.group.mark_all_synced();
        self.ship.advance(ws.logical_pos);
        Ok(())
    }

    /// Buffer-pool statistics snapshot.
    pub fn buffer_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    /// Bytes of the WAL's current generation: 0 after every checkpoint,
    /// whatever the log file's length.
    pub fn wal_len(&self) -> u64 {
        self.lock_write().wal.len()
    }

    /// Contention and commit statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        let gate = self.gate.stats();
        StoreStats {
            read_txs: self.counters.read_txs.load(Ordering::Relaxed),
            write_txs: self.counters.write_txs.load(Ordering::Relaxed),
            reader_waits: gate.reader_waits,
            reader_wait_nanos: gate.reader_wait_nanos,
            writer_waits: gate.writer_waits
                + self.counters.writer_lock_waits.load(Ordering::Relaxed),
            writer_wait_nanos: gate.writer_wait_nanos
                + self.counters.writer_lock_wait_nanos.load(Ordering::Relaxed),
            wal_syncs: self.counters.wal_syncs.load(Ordering::Relaxed),
            group_syncs: self.counters.group_syncs.load(Ordering::Relaxed),
            group_commit_txns: self.counters.group_commit_txns.load(Ordering::Relaxed),
            group_batch_max: self.counters.group_batch_max.load(Ordering::Relaxed),
            bytes_shipped: self.counters.bytes_shipped.load(Ordering::Relaxed),
            replica_lag_epochs: self.counters.replica_lag_epochs.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            write_conflicts: self.counters.write_conflicts.load(Ordering::Relaxed),
            write_retries: self.counters.write_retries.load(Ordering::Relaxed),
        }
    }

    // -- replication tap -----------------------------------------------------
    //
    // The primary side ships the WAL as an opaque byte stream
    // ([`Store::repl_snapshot`] + [`Store::read_wal_span`], woken
    // through [`Store::set_ship_waker`]); the replica side lands those
    // bytes verbatim and applies complete commits under the snapshot gate
    // ([`Store::replica_install_snapshot`] + [`Store::replica_ingest`]).
    // Promotion ([`Store::promote_to_primary`]) fences the log at the
    // last applied commit and reopens the store for writes.

    /// Checkpoint and copy the page file for bootstrapping a replica.
    /// Returns the raw file bytes plus the logical WAL position, epoch
    /// and log seed they correspond to; shipping resumes from
    /// `base_pos`.
    pub fn repl_snapshot(&self) -> Result<ReplSnapshot> {
        let mut ws = self.lock_write();
        // After the checkpoint the file alone is the whole committed
        // state and the WAL is empty, so `base_pos == logical_pos`.
        self.checkpoint_locked(&mut ws, LogAfter::Trimmed)?;
        let db_bytes = self.pager.raw_contents()?;
        Ok(ReplSnapshot {
            db_bytes,
            base_pos: ws.logical_pos,
            epoch: self.epoch(),
            seed: ws.wal.seed(),
        })
    }

    /// Read up to `max` shippable WAL bytes starting at logical
    /// position `from`. Only durable bytes (per [`StoreOptions`]) are
    /// served, so a replica can never hold commits the primary might
    /// lose in a crash.
    pub fn read_wal_span(&self, from: u64, max: usize) -> Result<WalSpan> {
        let shippable = self.ship.get();
        let mut ws = self.lock_write();
        if from < ws.base_pos || from > ws.logical_pos {
            return Ok(WalSpan::SnapshotNeeded);
        }
        let end = shippable.min(ws.logical_pos);
        if from >= end {
            return Ok(WalSpan::AtEnd);
        }
        let len = ((end - from) as usize).min(max);
        let phys = from - ws.base_pos;
        let bytes = ws.wal.read_span(phys, len)?;
        if bytes.is_empty() {
            return Ok(WalSpan::AtEnd);
        }
        Ok(WalSpan::Data(bytes))
    }

    /// The logical WAL position up to which bytes are shippable.
    pub fn shippable(&self) -> u64 {
        self.ship.get()
    }

    /// Have `waker` called each time more of the WAL becomes shippable,
    /// on whichever thread made it so: a committer after its fsync, a
    /// checkpoint, a promotion. It replaces any waker set before; `None`
    /// clears it. A waker must be brief and must not commit.
    pub fn set_ship_waker(&self, waker: Option<Waker>) {
        *self.ship.waker.lock() = waker;
    }

    /// Block until the applied epoch reaches at least `floor`, or
    /// `timeout` elapses. Returns the epoch either way. This is the
    /// server-side half of read-your-writes on a replica: a read pinned
    /// at epoch E waits here instead of returning older state.
    pub fn wait_for_epoch(&self, floor: u64, timeout: Duration) -> u64 {
        if floor == 0 {
            return self.epoch();
        }
        self.applied.wait_past(floor - 1, timeout)
    }

    /// Install a snapshot shipped from a primary, discarding this
    /// store's entire current state (both bootstrap and mid-stream
    /// resync after falling behind a checkpoint). Readers in flight
    /// keep their pinned pages; new snapshots see the installed state.
    /// A page file this build cannot read is refused — its header is
    /// checked as [`Store::open`] checks one — before anything changes.
    /// The local log restarts empty, chained from the primary's `seed`.
    pub fn replica_install_snapshot(
        &self,
        db_bytes: &[u8],
        base_pos: u64,
        epoch: u64,
        seed: u32,
    ) -> Result<()> {
        check_header(db_bytes)?;
        let mut ws = self.lock_write();
        {
            // Exclusive gate for the whole swap: a concurrent reader
            // missing to the file mid-replace would otherwise read a
            // torn page.
            let _publish = self.gate.write();
            self.pager.replace_contents(db_bytes)?;
            self.pool.purge();
            self.epoch.store(epoch, Ordering::Release);
        }
        ws.wal.trim(seed)?;
        ws.logical_pos = base_pos;
        ws.base_pos = base_pos;
        ws.apply = None;
        self.next_tx.store(1, Ordering::Relaxed);
        self.commit_log.reset(epoch);
        self.group.mark_all_synced();
        self.applied.advance(epoch);
        self.ship.advance(base_pos);
        Ok(())
    }

    /// Ingest raw shipped WAL bytes: land them in the local log
    /// verbatim, then apply every complete *commit* they finish, one
    /// epoch bump per commit, under the snapshot gate. Bytes ending
    /// mid-frame (or mid-transaction) stay buffered until the next
    /// call.
    pub fn replica_ingest(&self, bytes: &[u8]) -> Result<IngestOutcome> {
        let mut ws = self.lock_write();
        let start = ws.logical_pos;
        ws.wal.append_shipped(bytes)?;
        ws.logical_pos += bytes.len() as u64;
        if self.options.sync_on_commit {
            ws.wal.sync()?;
            self.counters.wal_syncs.fetch_add(1, Ordering::Relaxed);
        }
        let seed = ws.wal.tail();
        let replay = ws.apply.get_or_insert_with(|| Replay::new(start, seed));
        replay.push(bytes);
        let mut commits_applied = 0u64;
        loop {
            let tx = match replay.next_commit()? {
                Scan::Found(tx) => tx,
                Scan::Incomplete => break,
                // The stream is a byte-exact copy of frames the primary
                // already fsynced intact, so a bad frame means the
                // transport (not a crash) corrupted it.
                Scan::Unchained | Scan::BadCrc => {
                    let offset = replay.offset();
                    return Err(StorageError::WalCorrupt { offset });
                }
            };
            // Base = current committed image, or zeroes for a page that
            // does not exist yet.
            let mut images = BTreeMap::new();
            tx.apply(&mut images, |id| {
                Ok(self
                    .fetch(id)
                    .map_or_else(|_| PageBuf::zeroed(), |arc| (*arc).clone()))
            })?;
            self.publish(images.into_iter().collect());
            commits_applied += 1;
        }
        // Checkpoint only at a clean point (everything ingested is
        // applied): a new generation mid-frame would desync the on-disk
        // log from the replay. There the replay's committed link is the
        // link at the log's end, and seeds the recycled log.
        let clean = replay.committed_end() == ws.logical_pos;
        if clean && (ws.wal.len() > CHECKPOINT_WAL_BYTES || self.pool.over_target()) {
            self.checkpoint_locked(&mut ws, LogAfter::Recycled)?;
        }
        Ok(IngestOutcome {
            commits_applied,
            epoch: self.epoch(),
        })
    }

    /// Publish one commit's after-images as the new committed state:
    /// under the gate's exclusive side, bump the epoch, enter the write
    /// set into the commit log and install every image — one atomic
    /// step for new snapshots. Callers hold the write mutex, so local
    /// commits and replica applies pass through here serially and one
    /// epoch always names one committed state. Applied commits enter the
    /// commit log too: after a promotion, optimistic writers that began
    /// before the last applied commit must still validate against it.
    fn publish(&self, pages: Vec<(PageId, PageBuf)>) {
        let epoch = {
            let _publish = self.gate.write();
            let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
            self.commit_log
                .record(epoch, pages.iter().map(|(id, _)| id.0).collect());
            for (id, image) in pages {
                self.pool.publish(id, Arc::new(image), true, epoch);
            }
            epoch
        };
        self.applied.advance(epoch);
        self.counters.write_txs.fetch_add(1, Ordering::Relaxed);
    }

    /// Promote a replica to primary: truncate the local log at the last
    /// *applied* commit (the fencing rule — shipped-but-uncommitted
    /// bytes must not survive, or a recycled tx id could resurrect
    /// them), resume tx ids past everything seen in the stream, and
    /// count the failover. Idempotent; a store that never ingested is
    /// left unchanged.
    pub fn promote_to_primary(&self) -> Result<()> {
        let mut ws = self.lock_write();
        let Some(replay) = ws.apply.take() else {
            return Ok(());
        };
        // Saturating: a checkpoint since the last applied commit already
        // emptied the log, and whatever followed it is uncommitted.
        let fence = replay.committed_end().saturating_sub(ws.base_pos);
        ws.wal.truncate_tail(fence, replay.committed_link())?;
        ws.logical_pos = ws.base_pos + ws.wal.len();
        self.next_tx
            .fetch_max(replay.max_tx() + 1, Ordering::Relaxed);
        self.ship.advance(ws.logical_pos);
        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Whether this store currently holds replica apply state.
    pub fn is_replica_target(&self) -> bool {
        self.lock_write().apply.is_some()
    }

    /// Count WAL bytes shipped to replicas (called by the shipper).
    pub fn note_bytes_shipped(&self, n: u64) {
        self.counters.bytes_shipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Record the current worst replica lag in epochs (a gauge).
    pub fn set_replica_lag_epochs(&self, lag: u64) {
        self.counters
            .replica_lag_epochs
            .store(lag, Ordering::Relaxed);
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best-effort checkpoint so clean shutdowns reopen without replay.
        if let Some(mut ws) = self.write.try_lock() {
            let _ = self.checkpoint_locked(&mut ws, LogAfter::Trimmed);
        }
    }
}

pub(crate) fn wal_path_for(db_path: &Path) -> PathBuf {
    let mut os = db_path.as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

/// Check that `file` — a page file's bytes, or at least its first
/// page — starts with an intact header page of this build's format.
/// The one check run before a page file is trusted: by [`Store::open`]
/// on the local file, and by a replica on a shipped snapshot.
fn check_header(file: &[u8]) -> Result<()> {
    let header = file
        .get(..PAGE_SIZE)
        .and_then(|page| PageBuf::from_vec(page.to_vec()))
        .ok_or(StorageError::BadMagic)?;
    if !header.verify() {
        return Err(StorageError::ChecksumMismatch {
            page: PageId::HEADER,
        });
    }
    check_format(&header)
}

/// Check an intact header page's magic and format version.
fn check_format(header: &PageBuf) -> Result<()> {
    if header.read_u32(hdr::MAGIC) != MAGIC {
        return Err(StorageError::BadMagic);
    }
    match header.read_u32(hdr::FORMAT_VERSION) {
        FORMAT_VERSION => Ok(()),
        found => Err(StorageError::UnsupportedFormat {
            found,
            expected: FORMAT_VERSION,
        }),
    }
}

/// A write transaction (RAII guard; drop without [`Tx::commit`] aborts
/// by discarding the private write set — shared state is untouched
/// until commit, so there is nothing to roll back).
///
/// Two flavors share this type: an *exclusive* transaction
/// ([`Store::begin`]) holds the write mutex for its whole life and can
/// never conflict; an *optimistic* one ([`Store::begin_optimistic`])
/// takes no lock while building and validates its page read/write set
/// at commit, aborting with [`StorageError::WriteConflict`] when it
/// lost the race.
pub struct Tx<'a> {
    store: &'a Store,
    /// Present until commit consumes it (exclusive mode); `None` for the
    /// whole build phase of an optimistic transaction, which acquires
    /// the mutex only inside commit.
    write: Option<MutexGuard<'a, WriteState>>,
    tx_id: u64,
    /// Epoch through which this transaction's page set is known
    /// conflict-free. Optimistic fetches and the final commit move it
    /// forward by checking the span it skips against the commit log;
    /// exclusive transactions never consult it (the held mutex excludes
    /// every publish).
    validated_epoch: u64,
    /// The private write set: working images of every page this
    /// transaction has mutated.
    pages: HashMap<u64, PageBuf>,
    /// Pre-transaction image of each written page (`None` for pages
    /// freshly allocated past the old page count), used for delta
    /// logging at commit.
    base: HashMap<u64, Option<Arc<PageBuf>>>,
    /// Write-set page ids in first-touch order (the WAL append order).
    order: Vec<PageId>,
    /// Read-only pins for pages only read, so `page()` can hand out
    /// references with the transaction's lifetime.
    pins: HashMap<u64, Arc<PageBuf>>,
}

impl Tx<'_> {
    /// The transaction id (for diagnostics).
    pub fn id(&self) -> u64 {
        self.tx_id
    }

    /// Whether this transaction validates at commit instead of holding
    /// the write mutex.
    pub fn is_optimistic(&self) -> bool {
        self.write.is_none()
    }

    /// Move the conflict-free window forward to `now`, checking every
    /// page this transaction has touched against the commits published
    /// in `(validated_epoch, now]`. Callers must exclude concurrent
    /// publishes (hold the write mutex or the gate's shared side) so
    /// `now` cannot go stale mid-check.
    fn validate_to(&mut self, now: u64) -> Result<()> {
        if now == self.validated_epoch {
            return Ok(());
        }
        debug_assert!(now > self.validated_epoch, "epoch is monotone");
        let (pages, pins) = (&self.pages, &self.pins);
        let conflict = self
            .store
            .commit_log
            .conflicts_since(self.validated_epoch, |p| {
                pages.contains_key(&p) || pins.contains_key(&p)
            });
        if conflict {
            self.store
                .counters
                .write_conflicts
                .fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::WriteConflict);
        }
        self.validated_epoch = now;
        Ok(())
    }

    /// Resolve a page image coherent with everything this transaction
    /// has observed so far. Exclusive mode needs no ceremony (the held
    /// mutex excludes every publish); optimistic mode takes the gate's
    /// shared side so the epoch sample and the fetch see the same
    /// committed prefix, then revalidates if that prefix has grown.
    fn fetch_coherent(&mut self, id: PageId) -> Result<Arc<PageBuf>> {
        let store = self.store;
        if self.write.is_some() {
            return store.fetch(id);
        }
        let _gate = store.gate.read();
        let now = store.epoch.load(Ordering::Acquire);
        self.validate_to(now)?;
        store.fetch(id)
    }

    /// Copy a page into the write set on first mutation.
    fn materialize(&mut self, id: PageId) -> Result<()> {
        if self.pages.contains_key(&id.0) {
            return Ok(());
        }
        // A page already pinned for reading is coherent by construction
        // (validation would have failed otherwise) and is the image the
        // transaction has been reading — reuse it as the base.
        let current = match self.pins.remove(&id.0) {
            Some(arc) => arc,
            None => self.fetch_coherent(id)?,
        };
        self.pages.insert(id.0, (*current).clone());
        self.base.insert(id.0, Some(current));
        self.order.push(id);
        Ok(())
    }

    /// Enter a freshly allocated page (no prior state anywhere) into the
    /// write set.
    fn materialize_fresh(&mut self, id: PageId, page: PageBuf) {
        debug_assert!(
            !self.pages.contains_key(&id.0),
            "fresh page already in write set"
        );
        self.pages.insert(id.0, page);
        self.base.insert(id.0, None);
        self.order.push(id);
    }

    /// Frame this transaction's WAL records (begin, one per written
    /// page, commit) into the bytes of one log write. Pure function of
    /// the private write set, so an optimistic commit runs it *before*
    /// taking the write mutex — page diffing and checksumming are the
    /// expensive part of a commit and must not lengthen the critical
    /// section, where [`Wal::append`] fills in only the frames' links.
    fn wal_frames(&self) -> Vec<u8> {
        let tx = self.tx_id;
        let mut frames = Vec::new();
        push_frame(&mut frames, &WalRecord::Begin { tx });
        let zero = PageBuf::zeroed();
        for &id in &self.order {
            let after = self.pages.get(&id.0).expect("ordered page in write set");
            let before = match self.base.get(&id.0) {
                Some(Some(img)) => img.as_bytes(),
                // Fresh pages diff against zeroes (their content is
                // usually sparse).
                _ => zero.as_bytes(),
            };
            let ops = page_diff_ops(before, after.as_bytes(), DELTA_RUN_GAP, DELTA_MAX_PAYLOAD);
            let record = match ops {
                Some(ops) => WalRecord::PageDelta {
                    tx,
                    page: id.0,
                    ops,
                },
                None => WalRecord::Page {
                    tx,
                    page: id.0,
                    image: after.as_bytes().to_vec(),
                },
            };
            push_frame(&mut frames, &record);
        }
        push_frame(&mut frames, &WalRecord::Commit { tx });
        frames
    }

    /// Commit: log byte-range deltas (full images for heavily rewritten
    /// pages) plus a commit record in one write, publish the write set as the new committed
    /// state, and make it durable (inline fsync, or via the group-commit
    /// leader). Auto-checkpoints when the WAL or pool has grown large.
    ///
    /// An optimistic transaction validates first, under the write
    /// mutex: if any page it touched was committed by someone else
    /// after it began, nothing is appended or published and the commit
    /// returns [`StorageError::WriteConflict`] — the caller re-executes
    /// the transaction (see `Database::transact` in `ode`) rather than
    /// re-submitting the stale write set. Single attempt per call;
    /// losers leave no trace in the WAL.
    pub fn commit(mut self) -> Result<()> {
        let store = self.store;
        let optimistic = self.write.is_none();
        if optimistic && self.order.is_empty() {
            // Read-only optimistic transaction: every fetch already ran
            // incremental validation, so its reads form a consistent
            // snapshot as of `validated_epoch`. Nothing to publish.
            return Ok(());
        }
        // Build the log bytes outside the critical section (no-op cost
        // for exclusive mode, which holds the mutex anyway).
        let mut frames = if self.order.is_empty() {
            Vec::new()
        } else {
            self.wal_frames()
        };
        let mut ws = match self.write.take() {
            Some(guard) => guard,
            None => store.lock_write(),
        };
        if optimistic {
            // First-committer-wins. The write mutex excludes every
            // publish path (local commits and replica applies), so the
            // epoch cannot move past `now` during validation — after
            // this point the write set is known current.
            let now = store.epoch.load(Ordering::Acquire);
            self.validate_to(now)?;
        }
        let mut group_target = None;
        if !self.order.is_empty() {
            // One write: if it fails, neither position moves.
            ws.wal.append(&mut frames)?;
            ws.logical_pos += frames.len() as u64;
            ws.commit_seq += 1;

            let grouped = store.options.sync_on_commit && store.options.group_commit;
            if store.options.sync_on_commit && !grouped {
                ws.wal.sync()?;
                store.counters.wal_syncs.fetch_add(1, Ordering::Relaxed);
            }

            let images = self
                .order
                .iter()
                .map(|&id| {
                    let image = self.pages.remove(&id.0).expect("ordered page in write set");
                    (id, image)
                })
                .collect();
            store.publish(images);

            if grouped {
                store.group.register(ws.logical_pos, ws.commit_seq);
                group_target = Some(ws.logical_pos);
            } else {
                // Inline-synced (or durability opted out): this commit's
                // bytes are shippable right now.
                store.ship.advance(ws.logical_pos);
            }
        }
        if ws.wal.len() > CHECKPOINT_WAL_BYTES || store.pool.over_target() {
            store.checkpoint_locked(&mut ws, LogAfter::Recycled)?;
            // The checkpoint fsynced everything; no group wait needed.
            group_target = None;
        }
        debug_assert_eq!(ws.logical_pos - ws.base_pos, ws.wal.len());
        // Release the write lock *before* waiting on the group fsync —
        // that is the whole point: the next writer appends while the
        // leader's fsync is in flight, forming the next cohort.
        drop(ws);
        if let Some(target) = group_target {
            store.group.sync_to(target, &store.counters)?;
            store.ship.advance(target);
        }
        Ok(())
    }
}

impl PageRead for Tx<'_> {
    fn page(&mut self, id: PageId) -> Result<&PageBuf> {
        if self.pages.contains_key(&id.0) {
            return Ok(&self.pages[&id.0]);
        }
        if !self.pins.contains_key(&id.0) {
            let arc = self.fetch_coherent(id)?;
            self.pins.insert(id.0, arc);
        }
        Ok(&**self.pins.get(&id.0).expect("just pinned"))
    }

    fn root(&mut self, slot: usize) -> Result<u64> {
        assert!(slot < ROOT_SLOTS, "root slot out of range");
        Ok(self.page(PageId::HEADER)?.read_u64(hdr::ROOTS + slot * 8))
    }

    fn page_count(&mut self) -> Result<u64> {
        Ok(self.page(PageId::HEADER)?.read_u64(hdr::PAGE_COUNT))
    }
}

impl PageWrite for Tx<'_> {
    fn page_mut(&mut self, id: PageId) -> Result<&mut PageBuf> {
        self.materialize(id)?;
        Ok(self.pages.get_mut(&id.0).expect("just materialized"))
    }

    fn allocate(&mut self, kind: PageKind) -> Result<PageId> {
        let free_head = PageId(self.page(PageId::HEADER)?.read_u64(hdr::FREE_HEAD));
        if !free_head.is_null() {
            let next = self.page(free_head)?.link();
            self.page_mut(PageId::HEADER)?
                .write_u64(hdr::FREE_HEAD, next.0);
            // A reused free-list page has prior committed state, so it
            // enters the write set through the normal copy path (its
            // base image feeds delta logging), then gets reset.
            *self.page_mut(free_head)? = PageBuf::new(kind);
            Ok(free_head)
        } else {
            let count = self.page_count()?;
            self.page_mut(PageId::HEADER)?
                .write_u64(hdr::PAGE_COUNT, count + 1);
            let id = PageId(count);
            self.materialize_fresh(id, PageBuf::new(kind));
            Ok(id)
        }
    }

    fn free_page(&mut self, id: PageId) -> Result<()> {
        assert!(!id.is_null(), "cannot free the header page");
        let head = self.page(PageId::HEADER)?.read_u64(hdr::FREE_HEAD);
        let page = self.page_mut(id)?;
        let mut fresh = PageBuf::new(PageKind::Free);
        fresh.set_link(PageId(head));
        *page = fresh;
        self.page_mut(PageId::HEADER)?
            .write_u64(hdr::FREE_HEAD, id.0);
        Ok(())
    }

    fn set_root(&mut self, slot: usize, value: u64) -> Result<()> {
        assert!(slot < ROOT_SLOTS, "root slot out of range");
        self.page_mut(PageId::HEADER)?
            .write_u64(hdr::ROOTS + slot * 8, value);
        Ok(())
    }
}

/// A read-only transaction: a consistent snapshot of the committed
/// state as of [`ReadTx::epoch`]. Holds only the shared side of the
/// snapshot gate, so any number of read transactions run in parallel.
pub struct ReadTx<'a> {
    store: &'a Store,
    _gate: crate::gate::ReadGuard<'a>,
    epoch: u64,
    /// Pages resolved so far. Pinning the `Arc` (rather than re-fetching)
    /// both stabilizes `page()`'s returned references and keeps every
    /// observed image alive for the transaction's lifetime.
    pins: HashMap<u64, Arc<PageBuf>>,
}

impl ReadTx<'_> {
    /// The commit epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl PageRead for ReadTx<'_> {
    fn page(&mut self, id: PageId) -> Result<&PageBuf> {
        let store = self.store;
        match self.pins.entry(id.0) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(&**e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let arc = store.fetch(id)?;
                Ok(&**e.insert(arc))
            }
        }
    }

    fn root(&mut self, slot: usize) -> Result<u64> {
        assert!(slot < ROOT_SLOTS, "root slot out of range");
        Ok(self.page(PageId::HEADER)?.read_u64(hdr::ROOTS + slot * 8))
    }

    fn page_count(&mut self) -> Result<u64> {
        Ok(self.page(PageId::HEADER)?.read_u64(hdr::PAGE_COUNT))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_HEADER_LEN;
    use crate::testutil::{stamp_format_version, TempStore};
    use crate::wal::LOG_HEADER_LEN;

    /// Take the checkpoint a commit or an ingest takes by itself when
    /// the log or the pool has grown: the one that recycles the log.
    fn auto_checkpoint(store: &Store) {
        let mut ws = store.write.lock();
        store
            .checkpoint_locked(&mut ws, LogAfter::Recycled)
            .unwrap();
    }

    /// Commit `value` into page `id`'s payload.
    fn put(store: &Store, id: PageId, value: u64) {
        let mut tx = store.begin();
        tx.page_mut(id).unwrap().write_u64(40, value);
        tx.commit().unwrap();
    }

    /// The frames of a fixed transaction script hash to the digest the
    /// commit path gave before `page_diff_ops` learned to stop early:
    /// fresh pages diffed against zeroes, light rewrites, and rewrites
    /// of one contiguous range on either side of `DELTA_MAX_PAYLOAD`
    /// (a range of `len` bytes costs `len + 8` payload bytes) and far
    /// past it.
    #[test]
    fn wal_frames_are_pinned_for_a_fixed_script() {
        let store = TempStore::new();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut frames_of = |tx: Tx<'_>| {
            digest = tx.wal_frames().iter().fold(digest, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
            tx.commit().unwrap();
        };
        let lens = [
            40,
            3000,
            3063,
            3064,
            3065,
            3200,
            PAGE_SIZE - PAGE_HEADER_LEN,
        ];
        let mut tx = store.begin();
        let ids: Vec<PageId> = lens
            .iter()
            .map(|_| tx.allocate(PageKind::Heap).unwrap())
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            tx.page_mut(id)
                .unwrap()
                .write_u64(8 * i, 0x0DE0_0000 + i as u64);
        }
        frames_of(tx);
        let mut tx = store.begin();
        for &id in &ids {
            let page = tx.page_mut(id).unwrap();
            page.write_u64(100, 7);
            page.write_u64(1000, 8);
        }
        frames_of(tx);
        for round in 0..2u8 {
            let mut tx = store.begin();
            for (&id, &len) in ids.iter().zip(&lens) {
                let bytes = &mut tx.page_mut(id).unwrap().payload_mut()[..len];
                for (j, b) in bytes.iter_mut().enumerate() {
                    *b = (j as u8).wrapping_mul(31).wrapping_add(2 * round) | 1;
                }
            }
            frames_of(tx);
        }
        assert_eq!(
            digest, 0xa717_ae29_67c7_b997,
            "WAL frames changed: {digest:#018x}"
        );
    }

    /// A store holding one allocated page, and that page.
    fn one_page() -> (TempStore, PageId) {
        let store = TempStore::new();
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.commit().unwrap();
            id
        };
        (store, id)
    }

    #[test]
    fn allocate_and_read_back() {
        let store = TempStore::new();
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 42;
            tx.commit().unwrap();
            id
        };
        let mut r = store.read();
        assert_eq!(r.page(id).unwrap().payload()[0], 42);
        drop(r);
    }

    #[test]
    fn abort_rolls_back_everything() {
        let store = TempStore::new();
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 1;
            tx.commit().unwrap();
            id
        };
        {
            let mut tx = store.begin();
            tx.page_mut(id).unwrap().payload_mut()[0] = 99;
            let id2 = tx.allocate(PageKind::Heap).unwrap();
            tx.set_root(0, id2.0).unwrap();
            // Dropped without commit.
        }
        let mut r = store.read();
        assert_eq!(r.page(id).unwrap().payload()[0], 1);
        assert_eq!(r.root(0).unwrap(), 0);
        // The aborted allocation was never published: page_count still 2.
        assert_eq!(r.page_count().unwrap(), 2);
        drop(r);
    }

    #[test]
    fn uncommitted_writes_invisible_to_concurrent_reader() {
        let store = TempStore::new();
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 1;
            tx.commit().unwrap();
            id
        };
        let mut tx = store.begin();
        tx.page_mut(id).unwrap().payload_mut()[0] = 99;
        // A snapshot opened *while the writer holds uncommitted state*
        // must see the old image — the seed engine could not even open
        // one here.
        let mut r = store.read();
        assert_eq!(r.page(id).unwrap().payload()[0], 1);
        drop(r);
        tx.commit().unwrap();
        let mut r = store.read();
        assert_eq!(r.page(id).unwrap().payload()[0], 99);
        drop(r);
    }

    #[test]
    fn concurrent_read_txs_coexist() {
        let store = TempStore::new();
        {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 5;
            tx.set_root(0, id.0).unwrap();
            tx.commit().unwrap();
        }
        // Two snapshots alive at once on one thread: instant deadlock on
        // the old single-mutex engine.
        let mut a = store.read();
        let mut b = store.read();
        let id = PageId(a.root(0).unwrap());
        assert_eq!(a.page(id).unwrap().payload()[0], 5);
        assert_eq!(b.page(id).unwrap().payload()[0], 5);
        assert_eq!(a.epoch(), b.epoch());
        drop(a);
        drop(b);
        assert!(store.stats().read_txs >= 2);
    }

    #[test]
    fn epoch_advances_per_commit_and_stamps_snapshots() {
        let store = TempStore::new();
        let e0 = store.epoch();
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.commit().unwrap();
            id
        };
        assert_eq!(store.epoch(), e0 + 1);
        let r = store.read();
        assert_eq!(r.epoch(), e0 + 1);
        drop(r);
        {
            let mut tx = store.begin();
            tx.page_mut(id).unwrap().payload_mut()[0] = 9;
            tx.commit().unwrap();
        }
        assert_eq!(store.epoch(), e0 + 2);
        // An empty commit publishes nothing and does not bump the epoch.
        store.begin().commit().unwrap();
        assert_eq!(store.epoch(), e0 + 2);
    }

    /// Recovery lays a logged delta on the page the file holds. When
    /// that page fails its checksum, the open fails: the logged run laid
    /// over zeroes would be sealed as a valid page that lost "world".
    #[test]
    fn recovery_refuses_a_damaged_page_under_a_logged_delta() {
        let mut store = TempStore::new();
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            let page = tx.page_mut(id).unwrap().as_bytes_mut();
            page[..5].copy_from_slice(b"hello");
            page[100..105].copy_from_slice(b"world");
            tx.commit().unwrap();
            id
        };
        store.checkpoint().unwrap();
        {
            let mut tx = store.begin();
            tx.page_mut(id).unwrap().as_bytes_mut()[0] = b'J';
            tx.commit().unwrap();
        }
        store.crash();
        let mut file = std::fs::read(store.path()).unwrap();
        file[id.file_offset() as usize + 3000] ^= 0x40;
        std::fs::write(store.path(), &file).unwrap();
        let refused = Store::open(store.path(), StoreOptions::default()).err();
        assert!(
            matches!(refused, Some(StorageError::ChecksumMismatch { page }) if page == id),
            "expected {id:?} refused, got {refused:?}"
        );
    }

    /// A page the file never held starts from zeroes in recovery, also
    /// when a higher-numbered page reached the file first and growing
    /// the file left this one as zero bytes.
    #[test]
    fn a_fresh_page_below_a_checkpointed_one_recovers() {
        let mut store = TempStore::new();
        let (low, high) = {
            let mut tx = store.begin();
            let low = tx.allocate(PageKind::Heap).unwrap();
            let high = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(low).unwrap().payload_mut()[..3].copy_from_slice(b"low");
            tx.page_mut(high).unwrap().payload_mut()[..4].copy_from_slice(b"high");
            tx.commit().unwrap();
            (low, high)
        };
        assert!(low.0 < high.0);
        let mut image = {
            let mut r = store.read();
            PageBuf::from_vec(r.page(high).unwrap().as_bytes().to_vec()).unwrap()
        };
        store.pager.write_page(high, &mut image).unwrap();
        store.crash();
        store.reopen();
        let mut r = store.read();
        assert_eq!(&r.page(low).unwrap().payload()[..3], b"low");
        assert_eq!(&r.page(high).unwrap().payload()[..4], b"high");
    }

    #[test]
    fn committed_data_survives_reopen_without_checkpoint() {
        let mut store = TempStore::new();
        let mut tx = store.begin();
        let id = tx.allocate(PageKind::Heap).unwrap();
        tx.page_mut(id).unwrap().payload_mut()[..5].copy_from_slice(b"hello");
        tx.set_root(2, id.0).unwrap();
        tx.commit().unwrap();
        // No shutdown checkpoint: the data exists only in the WAL.
        store.crash();
        store.reopen();
        let mut r = store.read();
        assert_eq!(r.root(2).unwrap(), id.0);
        assert_eq!(&r.page(id).unwrap().payload()[..5], b"hello");
    }

    #[test]
    fn uncommitted_wal_tail_discarded_on_reopen() {
        let mut store = TempStore::new();
        {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 7;
            tx.set_root(0, id.0).unwrap();
            tx.commit().unwrap();
        }
        store.crash();
        // Append a torn record to the WAL by hand.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(store.path().wal())
                .unwrap();
            f.write_all(&[0xAB, 0xCD, 0x01]).unwrap();
        }
        store.reopen();
        let mut r = store.read();
        let id = PageId(r.root(0).unwrap());
        assert_eq!(r.page(id).unwrap().payload()[0], 7);
    }

    #[test]
    fn aborted_write_is_not_resurrected_by_a_recycled_tx_id() {
        use crate::page::PAGE_HEADER_LEN;
        // Session 0: two pages reading 1, closed cleanly (log empty).
        let mut store = TempStore::new();
        let (a, b) = {
            let mut tx = store.begin();
            let a = tx.allocate(PageKind::Heap).unwrap();
            let b = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(a).unwrap().payload_mut()[0] = 1;
            tx.page_mut(b).unwrap().payload_mut()[0] = 1;
            tx.commit().unwrap();
            (a, b)
        };
        store.close();
        // Session 1 was killed between its page records and its Commit:
        // intact frames of transaction 1, never committed.
        {
            let mut frames = Vec::new();
            push_frame(&mut frames, &WalRecord::Begin { tx: 1 });
            push_frame(
                &mut frames,
                &WalRecord::PageDelta {
                    tx: 1,
                    page: a.0,
                    ops: vec![(PAGE_HEADER_LEN as u32, vec![0xEE])],
                },
            );
            Wal::open(&store.path().wal())
                .unwrap()
                .append(&mut frames)
                .unwrap();
        }
        // Session 2 recovers, recycles id 1 for a write to `b` only, and
        // crashes after committing it.
        store.reopen();
        assert_eq!(store.read().page(a).unwrap().payload()[0], 1);
        {
            let mut tx = store.begin();
            assert_eq!(tx.id(), 1);
            tx.page_mut(b).unwrap().payload_mut()[0] = 2;
            tx.commit().unwrap();
        }
        store.crash();
        // Session 3 must replay exactly session 2's commit.
        store.reopen();
        let mut r = store.read();
        assert_eq!(r.page(b).unwrap().payload()[0], 2);
        assert_eq!(r.page(a).unwrap().payload()[0], 1);
    }

    #[test]
    fn a_zero_filled_log_tail_reads_as_the_end_of_the_log() {
        // A file system that extends a file before its data lands
        // leaves zeroes past the last frame after a crash.
        let (mut store, id) = one_page();
        put(&store, id, 7);
        store.crash();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(store.path().wal())
                .unwrap();
            f.write_all(&[0u8; 4096]).unwrap();
        }
        store.reopen();
        assert_eq!(store.read().page(id).unwrap().read_u64(40), 7);
    }

    #[test]
    fn automatic_checkpoints_recycle_the_log_and_asked_for_ones_trim_it() {
        let wal_file_len = |store: &TempStore| std::fs::metadata(store.path().wal()).unwrap().len();
        // A pool this small fills with dirty pages after a few fresh
        // ones, and the commit that notices checkpoints by itself.
        let store = TempStore::with(StoreOptions {
            buffer_pages: 1,
            ..StoreOptions::default()
        });
        let mut commits = 0;
        loop {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().write_u64(40, id.0);
            tx.commit().unwrap();
            commits += 1;
            if store.wal_len() == 0 {
                break;
            }
            assert!(commits < 1000, "no automatic checkpoint");
        }
        let recycled_len = wal_file_len(&store);
        assert!(recycled_len > LOG_HEADER_LEN, "the log file was cut");

        let (store, id) = one_page();
        for i in 0..20 {
            put(&store, id, i);
        }
        let file_len = wal_file_len(&store);
        let live = store.wal_len();
        auto_checkpoint(&store);
        assert_eq!(store.wal_len(), 0);
        assert_eq!(wal_file_len(&store), file_len);
        // Commits that fit the file's length leave it unchanged.
        let mut written = 0;
        for i in 0..10 {
            put(&store, id, 100 + i);
            assert_eq!(wal_file_len(&store), file_len, "commit {i}");
            written = store.wal_len();
        }
        assert!(written < live);
        auto_checkpoint(&store);
        assert_eq!(store.wal_len(), 0);
        // A checkpoint the caller asks for leaves the log at rest.
        put(&store, id, 200);
        store.checkpoint().unwrap();
        assert_eq!(store.wal_len(), 0);
        assert_eq!(wal_file_len(&store), LOG_HEADER_LEN);
    }

    #[test]
    fn a_checkpoint_whose_header_landed_without_new_frames_replays_nothing() {
        let (mut store, id) = one_page();
        put(&store, id, 1);
        let first_end = store.wal_len();
        put(&store, id, 2);
        // The checkpoint fsynced the page file, then wrote its header
        // over the old generation; the crash came before any new frame.
        auto_checkpoint(&store);
        store.crash();
        // Keep only the old generation's first commits: were they
        // replayed over the page file, they would roll it back to 1.
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(store.path().wal())
            .unwrap();
        f.set_len(LOG_HEADER_LEN + first_end).unwrap();
        drop(f);
        let (records, tear) = Wal::open(&store.path().wal()).unwrap().records().unwrap();
        assert!(records.is_empty());
        assert_eq!(tear, None);
        store.reopen();
        assert_eq!(store.read().page(id).unwrap().read_u64(40), 2);
    }

    #[test]
    fn a_checkpoint_whose_new_frames_landed_without_its_header_replays_nothing() {
        let (mut store, id) = one_page();
        put(&store, id, 1);
        put(&store, id, 2);
        let old_header =
            std::fs::read(store.path().wal()).unwrap()[..LOG_HEADER_LEN as usize].to_vec();
        auto_checkpoint(&store);
        // The new generation's frames overwrite the old one's front ...
        put(&store, id, 3);
        store.crash();
        // ... but the header on disk is still the old generation's.
        let mut log = std::fs::read(store.path().wal()).unwrap();
        log[..LOG_HEADER_LEN as usize].copy_from_slice(&old_header);
        std::fs::write(store.path().wal(), &log).unwrap();
        let (records, tear) = Wal::open(&store.path().wal()).unwrap().records().unwrap();
        assert!(records.is_empty());
        assert_eq!(tear, None);
        // That commit's fsync never returned, so it was never
        // acknowledged; the page file holds everything before it.
        store.reopen();
        assert_eq!(store.read().page(id).unwrap().read_u64(40), 2);
    }

    #[test]
    fn checkpoint_resets_wal() {
        let mut store = TempStore::new();
        {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 3;
            tx.commit().unwrap();
        }
        assert!(store.wal_len() > 0);
        store.checkpoint().unwrap();
        assert_eq!(store.wal_len(), 0);
        // Reopen: data must come from the database file alone.
        store.reopen();
        let mut r = store.read();
        assert_eq!(r.page(PageId(1)).unwrap().payload()[0], 3);
    }

    #[test]
    fn free_pages_are_reused_lifo() {
        let store = TempStore::new();
        let (a, b) = {
            let mut tx = store.begin();
            let a = tx.allocate(PageKind::Heap).unwrap();
            let b = tx.allocate(PageKind::Heap).unwrap();
            tx.commit().unwrap();
            (a, b)
        };
        {
            let mut tx = store.begin();
            tx.free_page(a).unwrap();
            tx.free_page(b).unwrap();
            tx.commit().unwrap();
        }
        {
            let mut tx = store.begin();
            let c = tx.allocate(PageKind::Heap).unwrap();
            let d = tx.allocate(PageKind::Heap).unwrap();
            assert_eq!(c, b); // LIFO
            assert_eq!(d, a);
            assert_eq!(tx.page_count().unwrap(), 3);
            tx.commit().unwrap();
        }
    }

    #[test]
    fn root_slots_persist() {
        let mut store = TempStore::new();
        {
            let mut tx = store.begin();
            for slot in 0..ROOT_SLOTS {
                tx.set_root(slot, (slot as u64 + 1) * 11).unwrap();
            }
            tx.commit().unwrap();
        }
        store.reopen();
        let mut r = store.read();
        for slot in 0..ROOT_SLOTS {
            assert_eq!(r.root(slot).unwrap(), (slot as u64 + 1) * 11);
        }
    }

    #[test]
    fn delta_wal_is_small_for_small_edits() {
        let store = TempStore::with(StoreOptions {
            sync_on_commit: false,
            ..StoreOptions::default()
        });
        // One big page, then many single-word edits.
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.commit().unwrap();
            id
        };
        let before = store.wal_len();
        for i in 0..50u64 {
            let mut tx = store.begin();
            tx.page_mut(id)
                .unwrap()
                .write_u64(16 + (i as usize % 100) * 8, i);
            tx.commit().unwrap();
        }
        // Full page images would be 50 × PAGE_SIZE.
        let delta_bytes = store.wal_len() - before;
        assert!(
            delta_bytes * 10 < 50 * PAGE_SIZE as u64,
            "delta WAL {delta_bytes} should be far below 50 full page images"
        );
    }

    #[test]
    fn delta_wal_recovers_identically_to_full() {
        let mut store = TempStore::new();
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().write_u64(100, 1);
            tx.commit().unwrap();
            id
        };
        // Several transactions editing the same and fresh pages.
        for i in 2..20u64 {
            let mut tx = store.begin();
            tx.page_mut(id).unwrap().write_u64(100, i);
            let extra = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(extra).unwrap().write_u64(24, i * 7);
            tx.commit().unwrap();
        }
        store.crash();
        store.reopen();
        let mut r = store.read();
        assert_eq!(r.page(id).unwrap().read_u64(100), 19);
        assert_eq!(r.page_count().unwrap(), 20);
        for extra in 2..20u64 {
            assert_eq!(r.page(PageId(extra)).unwrap().read_u64(24), extra * 7);
        }
    }

    /// Commit two transactions on a fresh store — the second edits a
    /// page the first wrote, allocates one and, if `rewrite`, rewrites a
    /// third whole — then crash, leaving both in the log. Returns the
    /// log length before the second commit, and the three pages.
    fn two_commits_in_the_log(store: &mut TempStore, rewrite: bool) -> (u64, [PageId; 3]) {
        let (a, big) = {
            let mut tx = store.begin();
            let a = tx.allocate(PageKind::Heap).unwrap();
            let big = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(a).unwrap().write_u64(40, 1);
            tx.commit().unwrap();
            (a, big)
        };
        let first = store.wal_len();
        let mut tx = store.begin();
        tx.page_mut(a).unwrap().write_u64(40, 2);
        let fresh = tx.allocate(PageKind::Heap).unwrap();
        tx.page_mut(fresh).unwrap().write_u64(200, 3);
        if rewrite {
            for (i, b) in tx
                .page_mut(big)
                .unwrap()
                .payload_mut()
                .iter_mut()
                .enumerate()
            {
                *b = (i % 251) as u8;
            }
        }
        tx.commit().unwrap();
        store.crash();
        (first, [a, fresh, big])
    }

    #[test]
    fn a_commit_is_one_write_of_its_records_frames() {
        let mut store = TempStore::new();
        let (first, [a, fresh, big]) = two_commits_in_the_log(&mut store, true);
        let (found, tear) = Wal::open(&store.path().wal()).unwrap().frames().unwrap();
        assert_eq!(tear, None);
        let (before, found): (Vec<_>, Vec<_>) = found.into_iter().partition(|f| f.offset < first);
        let mut prev = before.last().expect("the first commit's frames").link;
        let records: Vec<WalRecord> = found.into_iter().map(|f| f.record.unwrap()).collect();
        // Begin, a delta per edited page, the rewritten page whole, Commit.
        let kinds: Vec<_> = records
            .iter()
            .map(|r| match r {
                WalRecord::Begin { .. } => ("begin", 0),
                WalRecord::PageDelta { page, .. } => ("delta", *page),
                WalRecord::Page { page, .. } => ("image", *page),
                WalRecord::Commit { .. } => ("commit", 0),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                ("begin", 0),
                ("delta", a.0),
                ("delta", PageId::HEADER.0),
                ("delta", fresh.0),
                ("image", big.0),
                ("commit", 0)
            ]
        );
        // The commit's bytes are exactly its records framed one by one,
        // each linked to the one before, as the log wrote them when each
        // record was its own write.
        let mut per_record = Vec::new();
        for record in &records {
            let payload = ode_codec::to_bytes(record);
            let crc = crate::crc32(&payload);
            prev = crate::wal::link(prev, crc);
            per_record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            per_record.extend_from_slice(&crc.to_le_bytes());
            per_record.extend_from_slice(&prev.to_le_bytes());
            per_record.extend_from_slice(&payload);
        }
        let log = std::fs::read(store.path().wal()).unwrap();
        assert_eq!(per_record, log[(LOG_HEADER_LEN + first) as usize..]);
    }

    #[test]
    fn a_log_cut_anywhere_in_the_last_commit_recovers_the_commit_before() {
        let mut store = TempStore::new();
        let (first, [a, fresh, _]) = two_commits_in_the_log(&mut store, false);
        let log = std::fs::read(store.path().wal()).unwrap();
        let file = std::fs::read(store.path()).unwrap();
        // Every cut recovers the same file: the first commit's.
        let mut recovered_first = None;
        for cut in LOG_HEADER_LEN + first..log.len() as u64 {
            std::fs::write(store.path(), &file).unwrap();
            std::fs::write(store.path().wal(), &log[..cut as usize]).unwrap();
            store.reopen();
            assert_eq!(
                store.read().page(a).unwrap().read_u64(40),
                1,
                "cut at {cut}"
            );
            store.close();
            let recovered = std::fs::read(store.path()).unwrap();
            let first_commit = recovered_first.get_or_insert_with(|| recovered.clone());
            assert!(*first_commit == recovered, "cut at {cut}");
        }
        // Uncut, the last commit is there.
        std::fs::write(store.path(), &file).unwrap();
        std::fs::write(store.path().wal(), &log).unwrap();
        store.reopen();
        let mut r = store.read();
        assert_eq!(r.page(a).unwrap().read_u64(40), 2);
        assert_eq!(r.page(fresh).unwrap().read_u64(200), 3);
    }

    #[test]
    fn heavily_rewritten_pages_fall_back_to_full_images() {
        let store = TempStore::with(StoreOptions {
            sync_on_commit: false,
            ..StoreOptions::default()
        });
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.commit().unwrap();
            id
        };
        let before = store.wal_len();
        {
            let mut tx = store.begin();
            // Rewrite nearly the whole payload: delta would exceed the
            // threshold, so a full image is logged (~PAGE_SIZE).
            let page = tx.page_mut(id).unwrap();
            for (i, b) in page.payload_mut().iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
            tx.commit().unwrap();
        }
        let grew = store.wal_len() - before;
        assert!(grew >= PAGE_SIZE as u64, "full image logged, got {grew}");
    }

    #[test]
    fn many_transactions_interleaved_with_reopen() {
        let mut store = TempStore::new();
        for i in 0..20u64 {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().write_u64(16, i);
            tx.commit().unwrap();
        }
        store.reopen();
        let mut r = store.read();
        for i in 0..20u64 {
            assert_eq!(r.page(PageId(i + 1)).unwrap().read_u64(16), i);
        }
    }

    #[test]
    fn group_commit_counts_batches() {
        let store = TempStore::with(StoreOptions {
            group_commit: true,
            group_commit_window: Duration::from_millis(2),
            ..StoreOptions::default()
        });
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.commit().unwrap();
            id
        };
        std::thread::scope(|scope| {
            for w in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..10u64 {
                        let mut tx = store.begin();
                        tx.page_mut(id).unwrap().write_u64(200 + w * 8, i);
                        tx.commit().unwrap();
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.group_commit_txns, 41);
        assert!(stats.group_syncs <= stats.group_commit_txns);
        assert!(stats.group_batch_max >= 1);
    }

    /// Drive one full shipping cycle between two in-process stores:
    /// snapshot bootstrap, then tail spans in `chunk`-byte pieces.
    fn ship_all(primary: &Store, replica: &Store, from: &mut u64, chunk: usize) {
        loop {
            match primary.read_wal_span(*from, chunk).unwrap() {
                WalSpan::Data(bytes) => {
                    *from += bytes.len() as u64;
                    replica.replica_ingest(&bytes).unwrap();
                }
                WalSpan::AtEnd => break,
                WalSpan::SnapshotNeeded => {
                    let snap = primary.repl_snapshot().unwrap();
                    replica
                        .replica_install_snapshot(
                            &snap.db_bytes,
                            snap.base_pos,
                            snap.epoch,
                            snap.seed,
                        )
                        .unwrap();
                    *from = snap.base_pos;
                }
            }
        }
    }

    #[test]
    fn snapshot_and_tail_replicate_state_and_epoch() {
        let primary = TempStore::new();
        let replica = TempStore::new();
        let id = {
            let mut tx = primary.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 1;
            tx.set_root(0, id.0).unwrap();
            tx.commit().unwrap();
            id
        };
        // Bootstrap: snapshot carries the first commit.
        let snap = primary.repl_snapshot().unwrap();
        replica
            .replica_install_snapshot(&snap.db_bytes, snap.base_pos, snap.epoch, snap.seed)
            .unwrap();
        assert_eq!(replica.epoch(), primary.epoch());
        let mut pos = snap.base_pos;
        // Tail: more commits, shipped in deliberately tiny spans so
        // frames split across ingests.
        for i in 2..30u8 {
            let mut tx = primary.begin();
            tx.page_mut(id).unwrap().payload_mut()[0] = i;
            tx.commit().unwrap();
            ship_all(&primary, &replica, &mut pos, 11);
        }
        assert_eq!(replica.epoch(), primary.epoch());
        let mut r = replica.read();
        let rid = PageId(r.root(0).unwrap());
        assert_eq!(rid, id);
        assert_eq!(r.page(rid).unwrap().payload()[0], 29);
        drop(r);
    }

    #[test]
    fn checkpointed_primary_forces_snapshot_resync() {
        let primary = TempStore::new();
        let replica = TempStore::new();
        let snap = primary.repl_snapshot().unwrap();
        replica
            .replica_install_snapshot(&snap.db_bytes, snap.base_pos, snap.epoch, snap.seed)
            .unwrap();
        let mut pos = snap.base_pos;
        let id = {
            let mut tx = primary.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 7;
            tx.commit().unwrap();
            id
        };
        // The replica never sees that commit before a checkpoint
        // recycles the WAL; its position is now below base_pos.
        primary.checkpoint().unwrap();
        assert!(matches!(
            primary.read_wal_span(pos, 4096).unwrap(),
            WalSpan::SnapshotNeeded
        ));
        ship_all(&primary, &replica, &mut pos, 4096);
        assert_eq!(replica.epoch(), primary.epoch());
        let mut r = replica.read();
        assert_eq!(r.page(id).unwrap().payload()[0], 7);
        drop(r);
    }

    #[test]
    fn promotion_fences_unapplied_tail_and_resumes_writes() {
        let primary = TempStore::new();
        let mut replica = TempStore::new();
        let snap = primary.repl_snapshot().unwrap();
        replica
            .replica_install_snapshot(&snap.db_bytes, snap.base_pos, snap.epoch, snap.seed)
            .unwrap();
        let mut pos = snap.base_pos;
        let id = {
            let mut tx = primary.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 1;
            tx.commit().unwrap();
            id
        };
        ship_all(&primary, &replica, &mut pos, 4096);
        // Second commit ships only partially: the replica holds its
        // Begin+Page bytes but never the Commit.
        {
            let mut tx = primary.begin();
            tx.page_mut(id).unwrap().payload_mut()[0] = 2;
            tx.commit().unwrap();
        }
        if let WalSpan::Data(bytes) = primary.read_wal_span(pos, 4096).unwrap() {
            let half = bytes.len() / 2;
            replica.replica_ingest(&bytes[..half]).unwrap();
        } else {
            panic!("expected shippable bytes");
        }
        let pre_promote_epoch = replica.epoch();
        replica.promote_to_primary().unwrap();
        assert_eq!(replica.stats().failovers, 1);
        // The half-shipped transaction is fenced out: state and epoch
        // unchanged, and the log replays cleanly after a crash.
        assert_eq!(replica.epoch(), pre_promote_epoch);
        {
            let mut tx = replica.begin();
            tx.page_mut(id).unwrap().payload_mut()[0] = 9;
            tx.commit().unwrap();
        }
        replica.crash(); // the new primary: WAL only
        replica.reopen();
        let mut r = replica.read();
        assert_eq!(r.page(id).unwrap().payload()[0], 9);
    }

    #[test]
    fn a_format_1_file_is_refused_by_name() {
        // Format 2 too: its chains hold the latest version as well. And
        // format 3, whose log has no header.
        for old in [1, 2, 3] {
            let mut store = TempStore::new();
            store.close();
            let mut file = std::fs::read(store.path()).unwrap();
            stamp_format_version(&mut file, old);
            std::fs::write(store.path(), &file).unwrap();
            let refused = Store::open(store.path(), StoreOptions::default());
            assert!(
                matches!(
                    refused,
                    Err(StorageError::UnsupportedFormat { found, expected: FORMAT_VERSION })
                        if found == old
                ),
                "format {old}"
            );
            assert_eq!(std::fs::read(store.path()).unwrap(), file, "format {old}");
        }
    }

    #[test]
    fn a_format_3_store_is_refused_by_name() {
        // A format-3 store that crashed: its page file says 3, and its
        // log holds frames without links after no header.
        let (mut store, id) = one_page();
        put(&store, id, 5);
        store.crash();
        let (records, _) = Wal::open(&store.path().wal()).unwrap().records().unwrap();
        let mut old_log = Vec::new();
        for record in &records {
            let payload = ode_codec::to_bytes(record);
            old_log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            old_log.extend_from_slice(&crate::crc32(&payload).to_le_bytes());
            old_log.extend_from_slice(&payload);
        }
        let file = std::fs::read(store.path()).unwrap();
        let mut old_file = file.clone();
        stamp_format_version(&mut old_file, 3);
        // Open `page_file` beside the old log; whatever is refused, both
        // files are left as they were.
        let open_beside_old_log = |page_file: &[u8]| {
            std::fs::write(store.path(), page_file).unwrap();
            std::fs::write(store.path().wal(), &old_log).unwrap();
            let refused = Store::open(store.path(), StoreOptions::default()).err();
            assert_eq!(std::fs::read(store.path()).unwrap(), page_file);
            assert_eq!(std::fs::read(store.path().wal()).unwrap(), old_log);
            refused
        };
        assert!(matches!(
            open_beside_old_log(&old_file),
            Some(StorageError::UnsupportedFormat {
                found: 3,
                expected: 4
            })
        ));
        // A format-3 log beside a format-4 page file.
        assert!(matches!(
            open_beside_old_log(&file),
            Some(StorageError::UnsupportedLog)
        ));
    }

    #[test]
    fn a_snapshot_in_another_format_is_refused_before_anything_changes() {
        let primary = TempStore::new();
        let replica = TempStore::new();
        let snap = primary.repl_snapshot().unwrap();
        replica
            .replica_install_snapshot(&snap.db_bytes, snap.base_pos, snap.epoch, snap.seed)
            .unwrap();
        let mut pos = snap.base_pos;
        let id = {
            let mut tx = primary.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 1;
            tx.commit().unwrap();
            id
        };
        ship_all(&primary, &replica, &mut pos, 4096);
        {
            let mut tx = primary.begin();
            tx.page_mut(id).unwrap().payload_mut()[0] = 2;
            tx.commit().unwrap();
        }
        let file = replica.pager.raw_contents().unwrap();
        let epoch = replica.epoch();
        let wal_pos = replica.write.lock().logical_pos;

        for old in [1, 2, 3] {
            let mut foreign = primary.repl_snapshot().unwrap();
            stamp_format_version(&mut foreign.db_bytes, old);
            assert!(
                matches!(
                    replica.replica_install_snapshot(
                        &foreign.db_bytes,
                        foreign.base_pos,
                        foreign.epoch,
                        foreign.seed
                    ),
                    Err(StorageError::UnsupportedFormat { found, expected: FORMAT_VERSION })
                        if found == old
                ),
                "format {old}"
            );
            assert_eq!(replica.pager.raw_contents().unwrap(), file);
            assert_eq!(replica.epoch(), epoch);
            assert_eq!(replica.write.lock().logical_pos, wal_pos);
            assert_eq!(replica.read().page(id).unwrap().payload()[0], 1);
        }
    }

    #[test]
    fn wait_for_epoch_blocks_until_apply_catches_up() {
        let primary = TempStore::new();
        let replica = TempStore::new();
        let snap = primary.repl_snapshot().unwrap();
        replica
            .replica_install_snapshot(&snap.db_bytes, snap.base_pos, snap.epoch, snap.seed)
            .unwrap();
        let mut pos = snap.base_pos;
        {
            let mut tx = primary.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut()[0] = 3;
            tx.commit().unwrap();
        }
        let floor = primary.epoch();
        // Lagging replica times out below the floor...
        assert!(replica.wait_for_epoch(floor, Duration::from_millis(20)) < floor);
        // ...and a waiter wakes as soon as the apply stream catches up.
        std::thread::scope(|scope| {
            let replica = &replica;
            let waiter =
                scope.spawn(move || replica.wait_for_epoch(floor, Duration::from_secs(10)));
            ship_all(&primary, replica, &mut pos, 4096);
            assert!(waiter.join().unwrap() >= floor);
        });
    }

    #[test]
    fn group_commit_data_recovers_after_crash() {
        let mut store = TempStore::with(StoreOptions {
            group_commit: true,
            group_commit_window: Duration::from_millis(1),
            ..StoreOptions::default()
        });
        let id = {
            let mut tx = store.begin();
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.commit().unwrap();
            id
        };
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    let mut tx = store.begin();
                    tx.page_mut(id)
                        .unwrap()
                        .write_u64(300 + (w as usize) * 8, w + 1);
                    tx.commit().unwrap();
                });
            }
        });
        store.crash(); // WAL only
        store.reopen();
        let mut r = store.read();
        for w in 0..4u64 {
            // Every commit was acked (commit() returned), so every write
            // must be recovered.
            assert_eq!(r.page(id).unwrap().read_u64(300 + (w as usize) * 8), w + 1);
        }
    }
}
