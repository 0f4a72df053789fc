//! The database handle.

use std::path::Path;
use std::sync::Arc;

use ode_object::{IdClaim, Vid};
use ode_storage::{Store, StoreOptions, StoreStats};
use ode_version::{ChainConfig, EpochCache, Result, VersionStore, VersionStoreLayout};

use crate::event::{Event, TriggerId, TriggerRegistry};
use crate::ptr::ObjPtr;
use crate::txn::{self, Snapshot, Txn};
use crate::OdeType;

/// Bodies the materialization cache holds — enough for a hot working
/// set of historical versions without rivaling the buffer pool.
const MATERIALIZE_CACHE_CAP: usize = 1024;

/// Historical version bodies materialized from their chains, tagged
/// with the commit epoch they were read at.
pub(crate) type MaterializeCache = EpochCache<Vid, Vec<u8>>;

/// Tuning options for a [`Database`].
#[derive(Debug, Clone, Default)]
pub struct DatabaseOptions {
    /// Storage-engine options (buffer pool size, fsync policy,
    /// checkpoint threshold).
    pub storage: StoreOptions,
    /// The shape of new delta chains (default: anchor interval 8).
    /// Every version but an object's latest is stored in its object's
    /// chain: a small per-object directory record, and per segment of
    /// at most `anchor_interval` versions one anchor (full snapshot)
    /// record plus one run record of forward deltas that check-ins
    /// append to. An existing chain keeps the shape it was built with.
    pub chain: ChainConfig,
}

impl DatabaseOptions {
    /// Benchmark preset: no fsync on commit (results are still crash
    /// consistent up to the last synced commit, just not durable to the
    /// very last transaction).
    pub fn no_sync() -> DatabaseOptions {
        DatabaseOptions {
            storage: StoreOptions {
                sync_on_commit: false,
                ..StoreOptions::default()
            },
            chain: ChainConfig::default(),
        }
    }

    /// Build new delta chains with `config`.
    pub fn with_chain(mut self, config: ChainConfig) -> DatabaseOptions {
        self.chain = config;
        self
    }
}

/// How [`Database::transact`] paces re-execution after write conflicts.
///
/// The first attempt runs immediately; each retry sleeps the current
/// backoff (starting at [`RetryPolicy::backoff`], doubling up to
/// [`RetryPolicy::max_backoff`]) before re-running the closure against
/// fresh reads. Zero `backoff` retries hot, which is only sensible in
/// deterministic tests.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Sleep before the first retry.
    pub backoff: std::time::Duration,
    /// Backoff growth cap.
    pub max_backoff: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 16,
            backoff: std::time::Duration::from_micros(50),
            max_backoff: std::time::Duration::from_millis(5),
        }
    }
}

/// An Ode database: persistent, versioned objects in a single file (plus
/// its write-ahead log).
///
/// Mirrors the paper's persistence model: objects created with
/// [`Txn::pnew`] "automatically persist across program invocations" —
/// reopen the same path and every committed object and version is
/// there.
pub struct Database {
    store: Store,
    versions: VersionStore,
    triggers: TriggerRegistry,
    materialize_cache: MaterializeCache,
}

fn version_store(options: &DatabaseOptions) -> VersionStore {
    VersionStore::with_chain(VersionStoreLayout::default(), options.chain)
}

impl Database {
    /// Create a new database file at `path`, erasing any existing one.
    pub fn create(path: impl AsRef<Path>, options: DatabaseOptions) -> Result<Database> {
        let store = Store::create(path, options.storage.clone())?;
        Ok(Database {
            store,
            versions: version_store(&options),
            triggers: TriggerRegistry::default(),
            materialize_cache: MaterializeCache::new(MATERIALIZE_CACHE_CAP),
        })
    }

    /// Open an existing database (running crash recovery if needed).
    pub fn open(path: impl AsRef<Path>, options: DatabaseOptions) -> Result<Database> {
        let store = Store::open(path, options.storage.clone())?;
        Ok(Database {
            store,
            versions: version_store(&options),
            triggers: TriggerRegistry::default(),
            materialize_cache: MaterializeCache::new(MATERIALIZE_CACHE_CAP),
        })
    }

    /// Open `path`, creating it when absent.
    pub fn open_or_create(path: impl AsRef<Path>, options: DatabaseOptions) -> Result<Database> {
        let store = Store::open_or_create(path, options.storage.clone())?;
        Ok(Database {
            store,
            versions: version_store(&options),
            triggers: TriggerRegistry::default(),
            materialize_cache: MaterializeCache::new(MATERIALIZE_CACHE_CAP),
        })
    }

    /// Begin an exclusive read-write transaction. Writers serialize on
    /// the storage engine's write mutex; concurrent snapshots are
    /// unaffected, and the transaction can never hit a write conflict.
    pub fn begin(&self) -> Txn<'_> {
        txn::begin(self, self.store.begin())
    }

    /// Begin an *optimistic* read-write transaction: no lock is taken,
    /// so any number run concurrently, each building a private write
    /// set. Commit validates the pages it read and wrote against
    /// commits that landed in the meantime (first-committer-wins);
    /// a loser aborts with a [`write conflict`](crate::Error::is_write_conflict)
    /// and must be **re-executed from the start** — use
    /// [`Database::transact`] for the standard retry loop.
    pub fn begin_optimistic(&self) -> Txn<'_> {
        txn::begin(self, self.store.begin_optimistic())
    }

    /// Run `body` in an optimistic transaction, retrying with
    /// exponential backoff while it loses validation races.
    ///
    /// Each attempt gets a **fresh** transaction and re-executes the
    /// closure — re-submitting a stale write set would silently undo
    /// the winner's changes (the classic lost update), which is why
    /// [`Txn::commit`] itself never retries. Conflicts surfaced by the
    /// closure's own reads retry the same way as commit-time conflicts;
    /// every other error aborts immediately and propagates. Triggers
    /// fire once, after the attempt that commits.
    ///
    /// Returns the closure's value from the committing attempt, or the
    /// last conflict once [`RetryPolicy::max_attempts`] is exhausted.
    pub fn transact<R>(
        &self,
        policy: RetryPolicy,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<R>,
    ) -> Result<R> {
        let mut backoff = policy.backoff;
        let mut last = None;
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                self.store.note_write_retry();
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(policy.max_backoff);
                }
            }
            let mut txn = self.begin_optimistic();
            match body(&mut txn) {
                Ok(value) => match txn.commit() {
                    Ok(()) => return Ok(value),
                    Err(e) if e.is_write_conflict() => last = Some(e),
                    Err(e) => return Err(e),
                },
                Err(e) if e.is_write_conflict() => {
                    drop(txn);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("retry loop runs at least once"))
    }

    /// Whether this store may issue its ids from `claim` (see
    /// [`Database::claim_ids`]): `Ok(false)` when it holds the claim
    /// already, `Ok(true)` when it would take it,
    /// [`crate::Error::ClaimRefused`] otherwise. Writes nothing — how a
    /// replica, which inherits its primary's claim through the shipped
    /// log, answers a claim.
    pub fn admits_claim(&self, claim: IdClaim) -> Result<bool> {
        self.versions.admits_claim(&mut self.store.read(), claim)
    }

    /// Issue every object and version id from `claim` from now on — how
    /// each shard of a routed tier takes its residue, so that its ids
    /// need no renaming on the way to a client. Holding `claim` already
    /// is a no-op; an unclaimed store takes it in one commit when the
    /// stride is 1 or no id has been issued yet; anything else is
    /// [`crate::Error::ClaimRefused`].
    pub fn claim_ids(&self, claim: IdClaim) -> Result<()> {
        if !self.admits_claim(claim)? {
            return Ok(());
        }
        // Checked again under the write lock: an id issued in between
        // refuses the claim.
        let mut tx = self.store.begin();
        self.versions.claim_ids(&mut tx, claim)?;
        Ok(tx.commit()?)
    }

    /// Begin a read-only snapshot. Snapshots take no exclusive lock:
    /// any number run in parallel, with each other and with a writer's
    /// build phase.
    pub fn snapshot(&self) -> Snapshot<'_> {
        txn::snapshot(self, self.store.read())
    }

    /// Force a checkpoint (dirty pages to the database file, WAL trimmed
    /// to its header).
    pub fn checkpoint(&self) -> Result<()> {
        Ok(self.store.checkpoint()?)
    }

    /// Register a trigger on one object: `handler` runs after every
    /// committed transaction that changed it.
    pub fn on_object<T: OdeType>(
        &self,
        ptr: ObjPtr<T>,
        handler: impl Fn(&Event) + Send + Sync + 'static,
    ) -> TriggerId {
        self.triggers.on_object(ptr.oid, Arc::new(handler))
    }

    /// Register a trigger on every object of type `T`.
    pub fn on_type<T: OdeType>(
        &self,
        handler: impl Fn(&Event) + Send + Sync + 'static,
    ) -> TriggerId {
        self.triggers.on_type(ObjPtr::<T>::tag(), Arc::new(handler))
    }

    /// Remove a trigger. Returns whether it was still registered.
    pub fn remove_trigger(&self, id: TriggerId) -> bool {
        self.triggers.remove(id)
    }

    /// Number of triggers that would fire for events on this object
    /// (object-scoped plus type-scoped handlers).
    pub fn trigger_count<T: OdeType>(&self, ptr: ObjPtr<T>) -> usize {
        self.triggers.handler_count(ptr.oid, ObjPtr::<T>::tag())
    }

    pub(crate) fn versions(&self) -> &VersionStore {
        &self.versions
    }

    pub(crate) fn materialize_cache(&self) -> &MaterializeCache {
        &self.materialize_cache
    }

    /// Materialization-cache hit/miss counters: how often a snapshot
    /// read of a historical version was served from the in-memory cache
    /// vs replayed from its chain. Reads of latest versions count in
    /// neither.
    pub fn materialize_cache_counters(&self) -> (u64, u64) {
        self.materialize_cache.counters()
    }

    pub(crate) fn fire(&self, events: &[Event]) {
        self.triggers.fire(events);
    }

    /// The current snapshot epoch.
    ///
    /// Monotone; advanced by every committed write transaction before
    /// [`Txn::commit`] returns. Two equal observations bracket a span in
    /// which no transaction committed, so any data read from a snapshot
    /// opened in between is still current — the contract read-side
    /// caches (e.g. the network server's snapshot cache) rely on.
    /// Sample the epoch *before* opening the snapshot (or use
    /// [`Snapshot::epoch`], which is stamped atomically with snapshot
    /// creation): a commit racing in between then tags the cached data
    /// with an already-stale epoch, which is the safe direction.
    ///
    /// The value is the storage engine's commit epoch, bumped inside
    /// the publish step of each commit — so it agrees exactly with what
    /// concurrent snapshots can observe.
    pub fn snapshot_epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Buffer pool statistics (bench instrumentation).
    pub fn buffer_stats(&self) -> ode_storage::buffer::BufferStats {
        self.store.buffer_stats()
    }

    /// Storage-engine contention and commit statistics: read/write
    /// transaction counts, lock-wait totals for both sides of the
    /// snapshot gate, and WAL/group-commit fsync counters.
    pub fn storage_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Current WAL length in bytes (bench instrumentation).
    pub fn wal_len(&self) -> u64 {
        self.store.wal_len()
    }

    // -- replication tap (forwarded to the storage engine; used by the
    // -- `ode-net` server's shipping turns and replica tail) ----------------

    /// Checkpoint and copy the page file for bootstrapping a replica.
    pub fn repl_snapshot(&self) -> Result<ode_storage::ReplSnapshot> {
        Ok(self.store.repl_snapshot()?)
    }

    /// Read up to `max` shippable WAL bytes from logical position `from`.
    pub fn read_wal_span(&self, from: u64, max: usize) -> Result<ode_storage::WalSpan> {
        Ok(self.store.read_wal_span(from, max)?)
    }

    /// The logical WAL position up to which bytes are shippable.
    pub fn shippable(&self) -> u64 {
        self.store.shippable()
    }

    /// Have `waker` called each time more of the log becomes shippable,
    /// whichever path committed (a server write or an embedded
    /// [`crate::Txn`]); `None` clears it. See
    /// [`ode_storage::Store::set_ship_waker`].
    pub fn set_ship_waker(&self, waker: Option<ode_storage::Waker>) {
        self.store.set_ship_waker(waker)
    }

    /// Block until the applied epoch reaches `floor` (or `timeout`);
    /// returns the epoch either way.
    pub fn wait_for_epoch(&self, floor: u64, timeout: std::time::Duration) -> u64 {
        self.store.wait_for_epoch(floor, timeout)
    }

    /// Install a snapshot shipped from a primary, replacing this
    /// database's entire state; the local log restarts chained from
    /// the primary's log `seed`.
    pub fn replica_install_snapshot(
        &self,
        db_bytes: &[u8],
        base_pos: u64,
        epoch: u64,
        seed: u32,
    ) -> Result<()> {
        Ok(self
            .store
            .replica_install_snapshot(db_bytes, base_pos, epoch, seed)?)
    }

    /// Ingest raw shipped WAL bytes, applying every commit they
    /// complete.
    pub fn replica_ingest(&self, bytes: &[u8]) -> Result<ode_storage::IngestOutcome> {
        Ok(self.store.replica_ingest(bytes)?)
    }

    /// Promote a replica to primary (fence the log at the last applied
    /// commit; idempotent).
    pub fn promote_to_primary(&self) -> Result<()> {
        Ok(self.store.promote_to_primary()?)
    }

    /// Count WAL bytes shipped to replicas (shipping instrumentation).
    pub fn note_bytes_shipped(&self, n: u64) {
        self.store.note_bytes_shipped(n)
    }

    /// Record the current worst replica lag in epochs (shipping gauge).
    pub fn set_replica_lag_epochs(&self, lag: u64) {
        self.store.set_replica_lag_epochs(lag)
    }
}
