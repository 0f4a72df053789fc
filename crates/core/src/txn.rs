//! The embedded backend: snapshots and transactions on a local
//! [`Database`], their raw operations, and the operations only they
//! offer.

use ode_codec::{from_bytes, to_bytes, TypeTag};
use ode_merge::{MergeConflict, MergePolicy};
use ode_object::{Oid, Vid};
use ode_storage::store::{PageRead, ReadTx, Tx};
use ode_version::{ChainStats, Result, VersionDiff, VersionError, VersionMeta, VersionStore};

use crate::db::{Database, MaterializeCache};
use crate::event::Event;
use crate::ptr::{ObjPtr, VersionPtr};
use crate::session::{RawRead, RawWrite, Session};
use crate::OdeType;

/// The embedded raw backend: a storage transaction `X` on one
/// [`Database`] — a snapshot's [`ReadTx`] or a transaction's [`Tx`].
///
/// Besides the wire's operations ([`RawRead`], and [`RawWrite`] on a
/// [`Tx`]), the embedded handles [`Txn`] and [`Snapshot`] offer the
/// operations that reach the version store directly: the graph walks
/// (`ancestors`, `common_ancestor`, `parents_raw`, `derivation_path`,
/// `derivation_leaves`) and temporal stamps (`version_as_of`,
/// `created_stamp`, `now_stamp`), which have no wire row; the
/// diagnostics (`chain_stats_raw`, `check_object`, `export_dot`);
/// `select` and `count`; and on a [`Txn`] the read-modify-write edits
/// (`update`, `update_version`, `derive_with`, `derive_from_with`),
/// which over the wire would be two commits and could lose an update.
pub struct Embedded<'db, X> {
    db: &'db Database,
    tx: X,
    /// The materialization cache and the epoch its entries must carry:
    /// a snapshot's own epoch. `None` in a write transaction, whose
    /// uncommitted writes don't move the epoch, so cached pre-write
    /// bodies could mask them.
    cache: Option<(&'db MaterializeCache, u64)>,
    /// Events recorded by writes, fired on commit (a snapshot's stays
    /// empty).
    events: Vec<Event>,
}

/// A read-write transaction: the typed surface over an embedded
/// [`Tx`]. RAII: dropping without [`commit`](Session::commit) aborts
/// and rolls everything back (including id allocation); commit makes
/// the work durable and then fires triggers.
pub type Txn<'db> = Session<Embedded<'db, Tx<'db>>>;

/// A read-only snapshot of the database: the typed surface over an
/// embedded [`ReadTx`].
pub type Snapshot<'db> = Session<Embedded<'db, ReadTx<'db>>>;

pub(crate) fn begin<'db>(db: &'db Database, tx: Tx<'db>) -> Txn<'db> {
    Session::new(Embedded {
        db,
        tx,
        cache: None,
        events: Vec::new(),
    })
}

/// Snapshots serve chain materializations through the database's
/// epoch-invalidated cache: the snapshot's epoch names exactly the
/// committed state its reads observe.
pub(crate) fn snapshot<'db>(db: &'db Database, tx: ReadTx<'db>) -> Snapshot<'db> {
    let cache = Some((db.materialize_cache(), tx.epoch()));
    Session::new(Embedded {
        db,
        tx,
        cache,
        events: Vec::new(),
    })
}

impl<'db, X> Embedded<'db, X> {
    fn vs(&self) -> &'db VersionStore {
        self.db.versions()
    }
}

impl<X: PageRead> RawRead for Embedded<'_, X> {
    type Error = VersionError;

    fn deref_raw(&mut self, oid: Oid, tag: TypeTag) -> Result<(Vid, Vec<u8>)> {
        let vid = self.vs().latest(&mut self.tx, oid)?;
        let body = self
            .vs()
            .read_body_cached(&mut self.tx, vid, tag, self.cache)?;
        Ok((vid, body))
    }

    fn deref_version_raw(&mut self, vid: Vid, tag: TypeTag) -> Result<Vec<u8>> {
        self.vs()
            .read_body_cached(&mut self.tx, vid, tag, self.cache)
    }

    fn dprevious_raw(&mut self, vid: Vid) -> Result<Option<Vid>> {
        self.vs().dprevious(&mut self.tx, vid)
    }

    fn dnext_raw(&mut self, vid: Vid) -> Result<Vec<Vid>> {
        self.vs().dnext(&mut self.tx, vid)
    }

    fn tprevious_raw(&mut self, vid: Vid) -> Result<Option<Vid>> {
        self.vs().tprevious(&mut self.tx, vid)
    }

    fn tnext_raw(&mut self, vid: Vid) -> Result<Option<Vid>> {
        self.vs().tnext(&mut self.tx, vid)
    }

    fn version_history_raw(&mut self, oid: Oid) -> Result<Vec<Vid>> {
        self.vs().version_history(&mut self.tx, oid)
    }

    fn latest_raw(&mut self, oid: Oid) -> Result<Vid> {
        self.vs().latest(&mut self.tx, oid)
    }

    fn objects_raw(&mut self, tag: TypeTag) -> Result<Vec<Oid>> {
        self.vs().objects_of_type(&mut self.tx, tag)
    }

    fn objects_page_raw(&mut self, tag: TypeTag, after: Oid, limit: usize) -> Result<Vec<Oid>> {
        self.vs()
            .objects_of_type_from(&mut self.tx, tag, after, limit)
    }

    fn object_of_raw(&mut self, vid: Vid) -> Result<Oid> {
        self.vs().object_of(&mut self.tx, vid)
    }

    fn version_count_raw(&mut self, oid: Oid) -> Result<u64> {
        self.vs().version_count(&mut self.tx, oid)
    }

    fn exists_raw(&mut self, oid: Oid) -> Result<bool> {
        self.vs().object_exists(&mut self.tx, oid)
    }

    fn version_exists_raw(&mut self, vid: Vid) -> Result<bool> {
        self.vs().version_exists(&mut self.tx, vid)
    }

    fn history_between_raw(&mut self, oid: Oid, from: u64, to: u64) -> Result<Vec<Vid>> {
        self.vs().history_between(&mut self.tx, oid, from, to)
    }

    fn diff_versions_raw(&mut self, from: Vid, to: Vid) -> Result<VersionDiff> {
        self.vs().diff_versions(&mut self.tx, from, to)
    }
}

impl RawWrite for Embedded<'_, Tx<'_>> {
    fn pnew_raw(&mut self, tag: TypeTag, body: Vec<u8>) -> Result<(Oid, Vid)> {
        let (oid, vid) = self.vs().create_object(&mut self.tx, tag, body)?;
        self.events.push(Event::Created { oid, vid, tag });
        Ok((oid, vid))
    }

    fn put_raw(&mut self, oid: Oid, tag: TypeTag, body: Vec<u8>) -> Result<Vid> {
        let vid = self.vs().latest(&mut self.tx, oid)?;
        self.vs().write_body(&mut self.tx, vid, tag, body)?;
        self.events.push(Event::Updated { oid, vid, tag });
        Ok(vid)
    }

    fn put_version_raw(&mut self, vid: Vid, tag: TypeTag, body: Vec<u8>) -> Result<()> {
        let oid = self.vs().object_of(&mut self.tx, vid)?;
        self.vs().write_body(&mut self.tx, vid, tag, body)?;
        self.events.push(Event::Updated { oid, vid, tag });
        Ok(())
    }

    fn newversion_raw(&mut self, oid: Oid) -> Result<Vid> {
        let meta = self.vs().object_meta(&mut self.tx, oid)?;
        let vid = self.vs().new_version_from(&mut self.tx, meta.latest)?;
        self.events.push(Event::NewVersion {
            oid,
            vid,
            base: meta.latest,
            tag: meta.tag,
        });
        Ok(vid)
    }

    fn newversion_from_raw(&mut self, base: Vid) -> Result<Vid> {
        let VersionMeta { oid, tag, .. } = self.vs().version_meta(&mut self.tx, base)?;
        let vid = self.vs().new_version_from(&mut self.tx, base)?;
        self.events.push(Event::NewVersion {
            oid,
            vid,
            base,
            tag,
        });
        Ok(vid)
    }

    fn pdelete_raw(&mut self, oid: Oid) -> Result<()> {
        let tag = self.vs().object_meta(&mut self.tx, oid)?.tag;
        self.vs().delete_object(&mut self.tx, oid)?;
        self.events.push(Event::ObjectDeleted { oid, tag });
        Ok(())
    }

    fn pdelete_version_raw(&mut self, vid: Vid) -> Result<()> {
        let VersionMeta { oid, tag, .. } = self.vs().version_meta(&mut self.tx, vid)?;
        self.vs().delete_version(&mut self.tx, vid)?;
        self.events.push(Event::VersionDeleted { oid, vid, tag });
        Ok(())
    }

    fn merge_raw(
        &mut self,
        a: Vid,
        b: Vid,
        policy: MergePolicy,
    ) -> Result<(Option<Vid>, Vec<MergeConflict>)> {
        let vs = self.vs();
        let VersionMeta {
            oid: oid_a, tag, ..
        } = vs.version_meta(&mut self.tx, a)?;
        let oid_b = vs.object_of(&mut self.tx, b)?;
        if a == b || oid_a != oid_b {
            return Err(VersionError::MergeMismatch { a, b });
        }
        let base = vs.common_ancestor(&mut self.tx, a, b)?;
        let base_body = match base {
            Some(v) => vs.read_body(&mut self.tx, v, tag)?,
            None => Vec::new(),
        };
        let ours = vs.read_body(&mut self.tx, a, tag)?;
        let theirs = vs.read_body(&mut self.tx, b, tag)?;
        let outcome = ode_merge::merge(&base_body, &ours, &theirs, policy);
        let vid = match outcome.merged {
            Some(body) => {
                let vid = vs.new_merge_version(&mut self.tx, a, b, body)?;
                self.events.push(Event::Merged {
                    oid: oid_a,
                    vid,
                    a,
                    b,
                    tag,
                });
                Some(vid)
            }
            None => None,
        };
        Ok((vid, outcome.conflicts))
    }
}

/// The operations with no wire row, on both embedded handles.
impl<X: PageRead> Session<Embedded<'_, X>> {
    /// Every ancestor of `vp` in the derived-from graph — `vp` itself
    /// first, then all transitive parents (through *both* slots of
    /// merge versions) in strictly descending creation order. Served
    /// from version metadata alone: no state is ever materialized, so
    /// walking a long chained history stays cheap.
    pub fn ancestors<T: OdeType>(
        &mut self,
        vp: &VersionPtr<T>,
    ) -> Result<impl Iterator<Item = VersionPtr<T>>> {
        let e = &mut self.raw;
        Ok(e.vs()
            .ancestors(&mut e.tx, vp.vid)?
            .into_iter()
            .map(VersionPtr::from_vid))
    }

    /// The nearest (greatest-stamp) common ancestor of two versions of
    /// one object — the merge base. `None` when deletion splices have
    /// split the graph (or the versions belong to different objects).
    pub fn common_ancestor<T: OdeType>(
        &mut self,
        a: &VersionPtr<T>,
        b: &VersionPtr<T>,
    ) -> Result<Option<VersionPtr<T>>> {
        Ok(self
            .common_ancestor_raw(a.vid, b.vid)?
            .map(VersionPtr::from_vid))
    }

    /// Type-erased [`common_ancestor`](Self::common_ancestor).
    pub fn common_ancestor_raw(&mut self, a: Vid, b: Vid) -> Result<Option<Vid>> {
        let e = &mut self.raw;
        e.vs().common_ancestor(&mut e.tx, a, b)
    }

    /// Both derived-from parents of a version: one entry for an
    /// ordinary version, two for a merge, none for a root.
    pub fn parents_raw(&mut self, vid: Vid) -> Result<Vec<Vid>> {
        let e = &mut self.raw;
        Ok(e.vs().version_meta(&mut e.tx, vid)?.parents().collect())
    }

    /// The derivation path from `vp` back to a root (`vp` first) — the
    /// paper's "version history" of an alternative.
    pub fn derivation_path<T: OdeType>(
        &mut self,
        vp: &VersionPtr<T>,
    ) -> Result<Vec<VersionPtr<T>>> {
        let e = &mut self.raw;
        let vids = e.vs().derivation_path(&mut e.tx, vp.vid)?;
        Ok(vids.into_iter().map(VersionPtr::from_vid).collect())
    }

    /// Leaves of the derived-from tree: the most up-to-date version of
    /// each alternative.
    pub fn derivation_leaves<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<Vec<VersionPtr<T>>> {
        let e = &mut self.raw;
        let vids = e.vs().derivation_leaves(&mut e.tx, ptr.oid)?;
        Ok(vids.into_iter().map(VersionPtr::from_vid).collect())
    }

    /// The newest version of the object created at or before `stamp`
    /// (`None` if its oldest surviving version is newer) — the as-of
    /// temporal query of historical databases.
    pub fn version_as_of<T: OdeType>(
        &mut self,
        ptr: &ObjPtr<T>,
        stamp: u64,
    ) -> Result<Option<VersionPtr<T>>> {
        let e = &mut self.raw;
        let vid = e.vs().version_as_of(&mut e.tx, ptr.oid, stamp)?;
        Ok(vid.map(VersionPtr::from_vid))
    }

    /// A version's global creation stamp — monotone across the whole
    /// database, the basis for temporal queries (§2's
    /// historical-database motivation).
    pub fn created_stamp<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<u64> {
        let e = &mut self.raw;
        e.vs().created_stamp(&mut e.tx, vp.vid)
    }

    /// The current global stamp; capture it to name a database-wide
    /// moment for later [`version_as_of`](Self::version_as_of) queries.
    pub fn now_stamp(&mut self) -> Result<u64> {
        let e = &mut self.raw;
        e.vs().now_stamp(&mut e.tx)
    }

    /// Space/shape statistics of the object's delta chain (`None` for
    /// single-version objects, which have none).
    pub fn chain_stats_raw(&mut self, oid: Oid) -> Result<Option<ChainStats>> {
        let e = &mut self.raw;
        e.vs().chain_stats(&mut e.tx, oid)
    }

    /// Validate the structural invariants of one object's graph.
    pub fn check_object<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<()> {
        let e = &mut self.raw;
        e.vs().check_object(&mut e.tx, ptr.oid)
    }

    /// Render the object's version graph as Graphviz DOT, in the visual
    /// language of the paper's figures (solid = derived-from, dotted =
    /// temporal, double circle = latest).
    pub fn export_dot<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<String> {
        let e = &mut self.raw;
        ode_version::version_graph_dot(e.vs(), &mut e.tx, ptr.oid)
    }

    /// O++-style selection over a type's extent: decode every live
    /// object's latest version and keep those matching `pred`.
    pub fn select<T: OdeType>(
        &mut self,
        mut pred: impl FnMut(&T) -> bool,
    ) -> Result<Vec<(ObjPtr<T>, T)>> {
        let mut out = Vec::new();
        for ptr in self.objects::<T>()? {
            let value = self.deref(&ptr)?.into_inner();
            if pred(&value) {
                out.push((ptr, value));
            }
        }
        Ok(out)
    }

    /// Number of live objects of type `T`.
    pub fn count<T: OdeType>(&mut self) -> Result<usize> {
        Ok(self.objects::<T>()?.len())
    }
}

impl Snapshot<'_> {
    /// The commit epoch this snapshot observes, stamped atomically with
    /// snapshot creation. Everything read through this snapshot can be
    /// cached under this epoch: a later equal
    /// [`Database::snapshot_epoch`] observation proves the cache entry
    /// is still current.
    pub fn epoch(&self) -> u64 {
        self.raw.tx.epoch()
    }
}

impl Txn<'_> {
    /// Mutate the latest version in place through a generic reference
    /// (ordinary `p->field = x` assignment in O++ — no new version).
    pub fn update<T: OdeType>(
        &mut self,
        ptr: &ObjPtr<T>,
        f: impl FnOnce(&mut T),
    ) -> Result<VersionPtr<T>> {
        let vid = self.raw.latest_raw(ptr.oid)?;
        self.update_version(&VersionPtr::from_vid(vid), f)?;
        Ok(VersionPtr::from_vid(vid))
    }

    /// Mutate a *specific* version in place.
    pub fn update_version<T: OdeType>(
        &mut self,
        vp: &VersionPtr<T>,
        f: impl FnOnce(&mut T),
    ) -> Result<()> {
        let tag = VersionPtr::<T>::tag();
        let e = &mut self.raw;
        let mut value: T = from_bytes(&e.vs().read_body(&mut e.tx, vp.vid, tag)?)?;
        f(&mut value);
        e.put_version_raw(vp.vid, tag, to_bytes(&value))
    }

    /// The `newversion` + edit idiom in one call: derive a new version
    /// from the object's latest, apply `f` to it, and return it. The
    /// base version keeps its prior state untouched.
    pub fn derive_with<T: OdeType>(
        &mut self,
        ptr: &ObjPtr<T>,
        f: impl FnOnce(&mut T),
    ) -> Result<VersionPtr<T>> {
        let vp = self.newversion(ptr)?;
        self.update_version(&vp, f)?;
        Ok(vp)
    }

    /// Derive-and-edit from a *specific* base version (branching an
    /// alternative and giving it its changed state in one call).
    pub fn derive_from_with<T: OdeType>(
        &mut self,
        base: &VersionPtr<T>,
        f: impl FnOnce(&mut T),
    ) -> Result<VersionPtr<T>> {
        let vp = self.newversion_from(base)?;
        self.update_version(&vp, f)?;
        Ok(vp)
    }

    /// Commit the transaction, making every change durable, then fire
    /// triggers for the committed events.
    ///
    /// This is the no-retry path: an optimistic transaction that lost
    /// a validation race returns the write conflict here, for the
    /// caller to merge, give up or apply its own policy.
    /// [`Database::transact`] is the loop that re-executes instead.
    pub fn commit(self) -> Result<()> {
        let Embedded { db, tx, events, .. } = self.raw;
        // The storage engine advances the snapshot epoch inside the
        // commit's publish step, before `commit()` returns (and so
        // before any caller acknowledges this commit to anyone):
        // readers that sample the epoch after the ack are guaranteed to
        // see a value newer than any cache entry built from pre-commit
        // state.
        tx.commit()?;
        db.fire(&events);
        Ok(())
    }

    /// Whether this transaction validates optimistically at commit
    /// (begun via [`Database::begin_optimistic`]) rather than holding
    /// the exclusive write lock.
    pub fn is_optimistic(&self) -> bool {
        self.raw.tx.is_optimistic()
    }

    /// Events recorded so far (fired on commit; inspection aid).
    pub fn pending_events(&self) -> &[Event] {
        &self.raw.events
    }

    // -- forwards of raw methods the benchmark calls by name ----------------
    //
    // `odebench` calls these on a `Txn` without importing `RawRead` or
    // `RawWrite`. Each stays until the benchmark imports the trait.

    /// [`RawWrite::pnew_raw`].
    pub fn pnew_raw(&mut self, tag: TypeTag, body: Vec<u8>) -> Result<(Oid, Vid)> {
        self.raw.pnew_raw(tag, body)
    }

    /// [`RawRead::latest_raw`].
    pub fn latest_raw(&mut self, oid: Oid) -> Result<Vid> {
        self.raw.latest_raw(oid)
    }

    /// [`RawWrite::newversion_from_raw`].
    pub fn newversion_from_raw(&mut self, base: Vid) -> Result<Vid> {
        self.raw.newversion_from_raw(base)
    }

    /// [`RawWrite::put_version_raw`].
    pub fn put_version_raw(&mut self, vid: Vid, tag: TypeTag, body: Vec<u8>) -> Result<()> {
        self.raw.put_version_raw(vid, tag, body)
    }

    /// [`RawWrite::merge_raw`].
    pub fn merge_raw(
        &mut self,
        a: Vid,
        b: Vid,
        policy: MergePolicy,
    ) -> Result<(Option<Vid>, Vec<MergeConflict>)> {
        self.raw.merge_raw(a, b, policy)
    }

    /// [`RawRead::deref_version_raw`].
    pub fn deref_version_raw(&mut self, vid: Vid, tag: TypeTag) -> Result<Vec<u8>> {
        self.raw.deref_version_raw(vid, tag)
    }
}
