//! Transactions and snapshots: where the O++ operations live.

use ode_codec::{from_bytes, to_bytes};
use ode_merge::{MergeConflict, MergePolicy};
use ode_storage::store::{PageRead, ReadTx, Tx};
use ode_version::{Result, VersionDiff, VersionError, VersionStore};

use crate::db::{Database, MaterializeCache};
use crate::event::Event;
use crate::guard::{ORef, VRef};
use crate::ptr::{ObjPtr, VersionPtr};
use crate::OdeType;

/// A read-write transaction. RAII: dropping without [`Txn::commit`]
/// aborts and rolls everything back (including id allocation); commit
/// makes the work durable and then fires triggers.
pub struct Txn<'db> {
    db: &'db Database,
    tx: Tx<'db>,
    events: Vec<Event>,
}

/// A read-only snapshot of the database.
pub struct Snapshot<'db> {
    db: &'db Database,
    tx: ReadTx<'db>,
}

/// What a [`Txn::merge`] produced: the checked-in merge version (absent
/// when the policy was [`MergePolicy::Fail`] and conflicts were found)
/// plus every conflicting byte range, in base-offset order.
#[derive(Debug, Clone)]
pub struct MergeReport<T> {
    /// The new two-parent version, when one was checked in.
    pub version: Option<VersionPtr<T>>,
    /// Overlapping edits between the two sides.
    pub conflicts: Vec<MergeConflict>,
}

// ---------------------------------------------------------------------------
// Shared read-side implementation
// ---------------------------------------------------------------------------

fn read_deref<T: OdeType>(
    vs: &VersionStore,
    tx: &mut impl PageRead,
    ptr: &ObjPtr<T>,
    cache: Option<(&MaterializeCache, u64)>,
) -> Result<ORef<T>> {
    let vid = vs.latest(tx, ptr.oid)?;
    let body = vs.read_body_cached(tx, vid, ObjPtr::<T>::tag(), cache)?;
    Ok(ORef {
        value: from_bytes(&body)?,
        version: VersionPtr::from_vid(vid),
    })
}

fn read_deref_v<T: OdeType>(
    vs: &VersionStore,
    tx: &mut impl PageRead,
    vp: &VersionPtr<T>,
    cache: Option<(&MaterializeCache, u64)>,
) -> Result<VRef<T>> {
    let body = vs.read_body_cached(tx, vp.vid, VersionPtr::<T>::tag(), cache)?;
    Ok(VRef {
        value: from_bytes(&body)?,
        version: *vp,
    })
}

macro_rules! read_api {
    () => {
        /// Dereference a generic reference: decode the **latest** version
        /// (late binding happens here, at each call).
        pub fn deref<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<ORef<T>> {
            let cache = self.body_cache();
            read_deref(self.db.versions(), &mut self.tx, ptr, cache)
        }

        /// Dereference a specific reference: decode exactly that version.
        pub fn deref_v<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<VRef<T>> {
            let cache = self.body_cache();
            read_deref_v(self.db.versions(), &mut self.tx, vp, cache)
        }

        /// Pin the object's current latest version as a specific
        /// reference (generic → specific conversion).
        pub fn current_version<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<VersionPtr<T>> {
            Ok(VersionPtr::from_vid(
                self.db.versions().latest(&mut self.tx, ptr.oid)?,
            ))
        }

        /// The object a version belongs to (specific → generic).
        pub fn object_of<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<ObjPtr<T>> {
            Ok(ObjPtr::from_oid(
                self.db.versions().object_of(&mut self.tx, vp.vid)?,
            ))
        }

        /// `Dprevious`: the version `vp` was derived from.
        pub fn dprevious<T: OdeType>(
            &mut self,
            vp: &VersionPtr<T>,
        ) -> Result<Option<VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .dprevious(&mut self.tx, vp.vid)?
                .map(VersionPtr::from_vid))
        }

        /// `Dnext`: versions derived from `vp`, in creation order.
        pub fn dnext<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<Vec<VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .dnext(&mut self.tx, vp.vid)?
                .into_iter()
                .map(VersionPtr::from_vid)
                .collect())
        }

        /// `Tprevious`: the version created immediately before `vp`.
        pub fn tprevious<T: OdeType>(
            &mut self,
            vp: &VersionPtr<T>,
        ) -> Result<Option<VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .tprevious(&mut self.tx, vp.vid)?
                .map(VersionPtr::from_vid))
        }

        /// `Tnext`: the version created immediately after `vp`.
        pub fn tnext<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<Option<VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .tnext(&mut self.tx, vp.vid)?
                .map(VersionPtr::from_vid))
        }

        /// All versions of an object in temporal (creation) order.
        pub fn version_history<T: OdeType>(
            &mut self,
            ptr: &ObjPtr<T>,
        ) -> Result<Vec<VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .version_history(&mut self.tx, ptr.oid)?
                .into_iter()
                .map(VersionPtr::from_vid)
                .collect())
        }

        /// Every ancestor of `vp` in the derived-from graph — `vp`
        /// itself first, then all transitive parents (through *both*
        /// slots of merge versions) in strictly descending creation
        /// order. Served from version metadata alone: no state is ever
        /// materialized, so walking a long chained history stays cheap.
        pub fn ancestors<T: OdeType>(
            &mut self,
            vp: &VersionPtr<T>,
        ) -> Result<impl Iterator<Item = VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .ancestors(&mut self.tx, vp.vid)?
                .into_iter()
                .map(VersionPtr::from_vid))
        }

        /// Type-erased [`ancestors`](Self::ancestors).
        pub fn ancestors_raw(&mut self, vid: ode_object::Vid) -> Result<Vec<ode_object::Vid>> {
            self.db.versions().ancestors(&mut self.tx, vid)
        }

        /// The nearest (greatest-stamp) common ancestor of two versions
        /// of one object — the merge base. `None` when deletion
        /// splices have split the graph (or the versions belong to
        /// different objects).
        pub fn common_ancestor<T: OdeType>(
            &mut self,
            a: &VersionPtr<T>,
            b: &VersionPtr<T>,
        ) -> Result<Option<VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .common_ancestor(&mut self.tx, a.vid, b.vid)?
                .map(VersionPtr::from_vid))
        }

        /// Type-erased [`common_ancestor`](Self::common_ancestor).
        pub fn common_ancestor_raw(
            &mut self,
            a: ode_object::Vid,
            b: ode_object::Vid,
        ) -> Result<Option<ode_object::Vid>> {
            self.db.versions().common_ancestor(&mut self.tx, a, b)
        }

        /// Both derived-from parents of a version: one entry for an
        /// ordinary version, two for a merge, none for a root.
        pub fn parents_raw(&mut self, vid: ode_object::Vid) -> Result<Vec<ode_object::Vid>> {
            Ok(self
                .db
                .versions()
                .version_meta(&mut self.tx, vid)?
                .parents()
                .collect())
        }

        /// The derivation path from `vp` back to a root (`vp` first) —
        /// the paper's "version history" of an alternative.
        pub fn derivation_path<T: OdeType>(
            &mut self,
            vp: &VersionPtr<T>,
        ) -> Result<Vec<VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .derivation_path(&mut self.tx, vp.vid)?
                .into_iter()
                .map(VersionPtr::from_vid)
                .collect())
        }

        /// Leaves of the derived-from tree: the most up-to-date version
        /// of each alternative.
        pub fn derivation_leaves<T: OdeType>(
            &mut self,
            ptr: &ObjPtr<T>,
        ) -> Result<Vec<VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .derivation_leaves(&mut self.tx, ptr.oid)?
                .into_iter()
                .map(VersionPtr::from_vid)
                .collect())
        }

        /// Number of live versions of an object.
        pub fn version_count<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<u64> {
            self.db.versions().version_count(&mut self.tx, ptr.oid)
        }

        /// Extent query: every live object of type `T`, in id order —
        /// O++'s `for x in T` loop.
        pub fn objects<T: OdeType>(&mut self) -> Result<Vec<ObjPtr<T>>> {
            Ok(self
                .db
                .versions()
                .objects_of_type(&mut self.tx, ObjPtr::<T>::tag())?
                .into_iter()
                .map(ObjPtr::from_oid)
                .collect())
        }

        /// A page of the type's extent: up to `limit` objects with ids
        /// `>=` `after` (pass `ObjPtr::from_oid(Oid::NULL)` to start).
        /// Cursor-style iteration for extents too large to materialize;
        /// pass the last returned pointer's oid + 1 to continue.
        pub fn objects_page<T: OdeType>(
            &mut self,
            after: ode_object::Oid,
            limit: usize,
        ) -> Result<Vec<ObjPtr<T>>> {
            Ok(self
                .db
                .versions()
                .objects_of_type_from(&mut self.tx, ObjPtr::<T>::tag(), after, limit)?
                .into_iter()
                .map(ObjPtr::from_oid)
                .collect())
        }

        /// Whether the object still exists.
        pub fn exists<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<bool> {
            self.db.versions().object_exists(&mut self.tx, ptr.oid)
        }

        /// Whether the version still exists.
        pub fn version_exists<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<bool> {
            self.db.versions().version_exists(&mut self.tx, vp.vid)
        }

        /// Validate the structural invariants of one object's graph.
        pub fn check_object<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<()> {
            self.db.versions().check_object(&mut self.tx, ptr.oid)
        }

        /// A version's global creation stamp — monotone across the
        /// whole database, the basis for temporal queries (§2's
        /// historical-database motivation).
        pub fn created_stamp<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<u64> {
            self.db.versions().created_stamp(&mut self.tx, vp.vid)
        }

        /// The current global stamp; capture it to name a
        /// database-wide moment for later [`version_as_of`] queries.
        ///
        /// [`version_as_of`]: Self::version_as_of
        pub fn now_stamp(&mut self) -> Result<u64> {
            self.db.versions().now_stamp(&mut self.tx)
        }

        /// All versions of the object created in the global-stamp range
        /// `[from, to]` (inclusive), oldest first — "all versions of X
        /// between epochs". The answer is served off the chain
        /// directory and the delta runs of the segments the range
        /// overlaps, with no per-version record loads and no state
        /// materialization.
        pub fn history_between<T: OdeType>(
            &mut self,
            ptr: &ObjPtr<T>,
            from: u64,
            to: u64,
        ) -> Result<Vec<VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .history_between(&mut self.tx, ptr.oid, from, to)?
                .into_iter()
                .map(VersionPtr::from_vid)
                .collect())
        }

        /// Type-erased [`history_between`](Self::history_between).
        pub fn history_between_raw(
            &mut self,
            oid: ode_object::Oid,
            from: u64,
            to: u64,
        ) -> Result<Vec<ode_object::Vid>> {
            self.db
                .versions()
                .history_between(&mut self.tx, oid, from, to)
        }

        /// Summarize the difference between two versions' states —
        /// "diff v_a..v_b". Adjacent members of a delta chain are
        /// answered from the stored delta itself
        /// ([`VersionDiff::stored`] is `true`) without materializing
        /// any state; otherwise only the two endpoints are
        /// materialized — never the versions between them.
        pub fn diff_versions<T: OdeType>(
            &mut self,
            from: &VersionPtr<T>,
            to: &VersionPtr<T>,
        ) -> Result<VersionDiff> {
            self.db
                .versions()
                .diff_versions(&mut self.tx, from.vid, to.vid)
        }

        /// Type-erased [`diff_versions`](Self::diff_versions).
        pub fn diff_versions_raw(
            &mut self,
            from: ode_object::Vid,
            to: ode_object::Vid,
        ) -> Result<VersionDiff> {
            self.db.versions().diff_versions(&mut self.tx, from, to)
        }

        /// Space/shape statistics of the object's delta chain (`None`
        /// for single-version objects, which have none).
        pub fn chain_stats_raw(
            &mut self,
            oid: ode_object::Oid,
        ) -> Result<Option<ode_version::ChainStats>> {
            self.db.versions().chain_stats(&mut self.tx, oid)
        }

        /// The newest version of the object created at or before
        /// `stamp` (`None` if its oldest surviving version is newer) —
        /// the as-of temporal query of historical databases.
        pub fn version_as_of<T: OdeType>(
            &mut self,
            ptr: &ObjPtr<T>,
            stamp: u64,
        ) -> Result<Option<VersionPtr<T>>> {
            Ok(self
                .db
                .versions()
                .version_as_of(&mut self.tx, ptr.oid, stamp)?
                .map(VersionPtr::from_vid))
        }

        /// O++-style selection over a type's extent: decode every live
        /// object's latest version and keep those matching `pred`.
        pub fn select<T: OdeType>(
            &mut self,
            mut pred: impl FnMut(&T) -> bool,
        ) -> Result<Vec<(ObjPtr<T>, T)>> {
            let mut out = Vec::new();
            for ptr in self.objects::<T>()? {
                let cache = self.body_cache();
                let value = read_deref(self.db.versions(), &mut self.tx, &ptr, cache)?.into_inner();
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

        /// Render the object's version graph as Graphviz DOT, in the
        /// visual language of the paper's figures (solid = derived-from,
        /// dotted = temporal, double circle = latest).
        pub fn export_dot<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<String> {
            ode_version::version_graph_dot(self.db.versions(), &mut self.tx, ptr.oid)
        }

        // -- type-erased (raw-id) reads ---------------------------------
        //
        // Layers that cannot name `T` statically — network servers
        // dispatching wire requests, policy engines walking
        // heterogeneous graphs — operate on raw ids plus the stored
        // type tag. Type safety is still enforced: body reads check the
        // caller-supplied tag against the stored one.

        /// Type-erased latest-version lookup by raw object id.
        pub fn latest_raw(&mut self, oid: ode_object::Oid) -> Result<ode_object::Vid> {
            self.db.versions().latest(&mut self.tx, oid)
        }

        /// The stored type tag of an object.
        pub fn object_tag_raw(&mut self, oid: ode_object::Oid) -> Result<ode_codec::TypeTag> {
            Ok(self.db.versions().object_meta(&mut self.tx, oid)?.tag)
        }

        /// Type-erased `deref`: resolve the latest version and return
        /// its id and encoded body, checking `tag` against the stored
        /// type.
        pub fn deref_raw(
            &mut self,
            oid: ode_object::Oid,
            tag: ode_codec::TypeTag,
        ) -> Result<(ode_object::Vid, Vec<u8>)> {
            let cache = self.body_cache();
            let vid = self.db.versions().latest(&mut self.tx, oid)?;
            let body = self
                .db
                .versions()
                .read_body_cached(&mut self.tx, vid, tag, cache)?;
            Ok((vid, body))
        }

        /// Type-erased `deref_v`: one specific version's encoded body.
        pub fn deref_version_raw(
            &mut self,
            vid: ode_object::Vid,
            tag: ode_codec::TypeTag,
        ) -> Result<Vec<u8>> {
            let cache = self.body_cache();
            self.db
                .versions()
                .read_body_cached(&mut self.tx, vid, tag, cache)
        }

        /// Type-erased [`object_of`](Self::object_of).
        pub fn object_of_raw(&mut self, vid: ode_object::Vid) -> Result<ode_object::Oid> {
            self.db.versions().object_of(&mut self.tx, vid)
        }

        /// Type-erased [`dprevious`](Self::dprevious).
        pub fn dprevious_raw(&mut self, vid: ode_object::Vid) -> Result<Option<ode_object::Vid>> {
            self.db.versions().dprevious(&mut self.tx, vid)
        }

        /// Type-erased [`dnext`](Self::dnext).
        pub fn dnext_raw(&mut self, vid: ode_object::Vid) -> Result<Vec<ode_object::Vid>> {
            self.db.versions().dnext(&mut self.tx, vid)
        }

        /// Type-erased [`tprevious`](Self::tprevious).
        pub fn tprevious_raw(&mut self, vid: ode_object::Vid) -> Result<Option<ode_object::Vid>> {
            self.db.versions().tprevious(&mut self.tx, vid)
        }

        /// Type-erased [`tnext`](Self::tnext).
        pub fn tnext_raw(&mut self, vid: ode_object::Vid) -> Result<Option<ode_object::Vid>> {
            self.db.versions().tnext(&mut self.tx, vid)
        }

        /// Type-erased [`version_history`](Self::version_history).
        pub fn version_history_raw(
            &mut self,
            oid: ode_object::Oid,
        ) -> Result<Vec<ode_object::Vid>> {
            self.db.versions().version_history(&mut self.tx, oid)
        }

        /// Type-erased [`version_count`](Self::version_count).
        pub fn version_count_raw(&mut self, oid: ode_object::Oid) -> Result<u64> {
            self.db.versions().version_count(&mut self.tx, oid)
        }

        /// Type-erased extent query by stored type tag.
        pub fn objects_raw(&mut self, tag: ode_codec::TypeTag) -> Result<Vec<ode_object::Oid>> {
            self.db.versions().objects_of_type(&mut self.tx, tag)
        }

        /// Type-erased [`objects_page`](Self::objects_page).
        pub fn objects_page_raw(
            &mut self,
            tag: ode_codec::TypeTag,
            after: ode_object::Oid,
            limit: usize,
        ) -> Result<Vec<ode_object::Oid>> {
            self.db
                .versions()
                .objects_of_type_from(&mut self.tx, tag, after, limit)
        }

        /// Type-erased [`exists`](Self::exists).
        pub fn exists_raw(&mut self, oid: ode_object::Oid) -> Result<bool> {
            self.db.versions().object_exists(&mut self.tx, oid)
        }

        /// Type-erased [`version_exists`](Self::version_exists).
        pub fn version_exists_raw(&mut self, vid: ode_object::Vid) -> Result<bool> {
            self.db.versions().version_exists(&mut self.tx, vid)
        }
    };
}

impl<'db> Snapshot<'db> {
    pub(crate) fn new(db: &'db Database, tx: ReadTx<'db>) -> Snapshot<'db> {
        Snapshot { db, tx }
    }

    /// The commit epoch this snapshot observes, stamped atomically with
    /// snapshot creation. Everything read through this snapshot can be
    /// cached under this epoch: a later equal
    /// [`Database::snapshot_epoch`] observation proves the cache entry
    /// is still current.
    pub fn epoch(&self) -> u64 {
        self.tx.epoch()
    }

    /// Snapshots serve chain materializations through the database's
    /// epoch-invalidated cache: the snapshot's epoch names exactly the
    /// committed state its reads observe.
    fn body_cache(&self) -> Option<(&'db MaterializeCache, u64)> {
        Some((self.db.materialize_cache(), self.tx.epoch()))
    }

    read_api!();
}

impl<'db> Txn<'db> {
    pub(crate) fn new(db: &'db Database, tx: Tx<'db>) -> Txn<'db> {
        Txn {
            db,
            tx,
            events: Vec::new(),
        }
    }

    /// Write transactions never use the materialization cache: their
    /// own uncommitted writes don't move the commit epoch, so cached
    /// pre-write bodies could mask them.
    fn body_cache(&self) -> Option<(&'db MaterializeCache, u64)> {
        None
    }

    read_api!();

    // -- mutations ----------------------------------------------------------

    /// `pnew`: create a persistent object holding `value` as its first
    /// version. Returns the generic reference.
    pub fn pnew<T: OdeType>(&mut self, value: &T) -> Result<ObjPtr<T>> {
        let tag = ObjPtr::<T>::tag();
        let (oid, vid) = self
            .db
            .versions()
            .create_object(&mut self.tx, tag, to_bytes(value))?;
        self.events.push(Event::Created { oid, vid, tag });
        Ok(ObjPtr::from_oid(oid))
    }

    /// `newversion(p)`: derive a new version from the object's latest.
    /// The new version becomes the latest; its state starts as a copy of
    /// the base's.
    pub fn newversion<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<VersionPtr<T>> {
        let base = self.db.versions().latest(&mut self.tx, ptr.oid)?;
        let vid = self.db.versions().new_version_from(&mut self.tx, base)?;
        self.events.push(Event::NewVersion {
            oid: ptr.oid,
            vid,
            base,
            tag: ObjPtr::<T>::tag(),
        });
        Ok(VersionPtr::from_vid(vid))
    }

    /// `newversion(vp)`: derive from a *specific* version — this is how
    /// alternatives/variants are created (deriving from a non-tip
    /// version branches the derived-from tree).
    pub fn newversion_from<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<VersionPtr<T>> {
        let oid = self.db.versions().object_of(&mut self.tx, vp.vid)?;
        let vid = self.db.versions().new_version_from(&mut self.tx, vp.vid)?;
        self.events.push(Event::NewVersion {
            oid,
            vid,
            base: vp.vid,
            tag: ObjPtr::<T>::tag(),
        });
        Ok(VersionPtr::from_vid(vid))
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

    /// Mutate the latest version in place through a generic reference
    /// (ordinary `p->field = x` assignment in O++ — no new version).
    pub fn update<T: OdeType>(
        &mut self,
        ptr: &ObjPtr<T>,
        f: impl FnOnce(&mut T),
    ) -> Result<VersionPtr<T>> {
        let tag = ObjPtr::<T>::tag();
        let vid = self.db.versions().latest(&mut self.tx, ptr.oid)?;
        let body = self.db.versions().read_body(&mut self.tx, vid, tag)?;
        let mut value: T = from_bytes(&body)?;
        f(&mut value);
        self.db
            .versions()
            .write_body(&mut self.tx, vid, tag, to_bytes(&value))?;
        self.events.push(Event::Updated {
            oid: ptr.oid,
            vid,
            tag,
        });
        Ok(VersionPtr::from_vid(vid))
    }

    /// Replace the latest version's state wholesale.
    pub fn put<T: OdeType>(&mut self, ptr: &ObjPtr<T>, value: &T) -> Result<VersionPtr<T>> {
        let tag = ObjPtr::<T>::tag();
        let vid = self.db.versions().latest(&mut self.tx, ptr.oid)?;
        self.db
            .versions()
            .write_body(&mut self.tx, vid, tag, to_bytes(value))?;
        self.events.push(Event::Updated {
            oid: ptr.oid,
            vid,
            tag,
        });
        Ok(VersionPtr::from_vid(vid))
    }

    /// Mutate a *specific* version in place.
    pub fn update_version<T: OdeType>(
        &mut self,
        vp: &VersionPtr<T>,
        f: impl FnOnce(&mut T),
    ) -> Result<()> {
        let tag = VersionPtr::<T>::tag();
        let oid = self.db.versions().object_of(&mut self.tx, vp.vid)?;
        let body = self.db.versions().read_body(&mut self.tx, vp.vid, tag)?;
        let mut value: T = from_bytes(&body)?;
        f(&mut value);
        self.db
            .versions()
            .write_body(&mut self.tx, vp.vid, tag, to_bytes(&value))?;
        self.events.push(Event::Updated {
            oid,
            vid: vp.vid,
            tag,
        });
        Ok(())
    }

    /// Replace a specific version's state wholesale.
    pub fn put_version<T: OdeType>(&mut self, vp: &VersionPtr<T>, value: &T) -> Result<()> {
        let tag = VersionPtr::<T>::tag();
        let oid = self.db.versions().object_of(&mut self.tx, vp.vid)?;
        self.db
            .versions()
            .write_body(&mut self.tx, vp.vid, tag, to_bytes(value))?;
        self.events.push(Event::Updated {
            oid,
            vid: vp.vid,
            tag,
        });
        Ok(())
    }

    /// Three-way merge of two versions of one object, checked in as a
    /// new version recording **both** parents in the derived-from
    /// graph.
    ///
    /// The merge base is their nearest common ancestor
    /// ([`common_ancestor`](Self::common_ancestor)); with no surviving
    /// common ancestor the bodies are merged against an empty base, so
    /// only identical content merges cleanly. Non-overlapping edits
    /// from the two sides combine byte-exactly; overlapping edits are
    /// reported as [`MergeConflict`]s and resolved per `policy`
    /// ([`MergePolicy::Fail`] checks nothing in).
    ///
    /// The merge operates on the *encoded* bodies byte-wise — it is
    /// meaningful for flat byte-content types (documents, text); a
    /// structured encoding stitched from conflicting halves may no
    /// longer decode as `T`.
    pub fn merge<T: OdeType>(
        &mut self,
        a: &VersionPtr<T>,
        b: &VersionPtr<T>,
        policy: MergePolicy,
    ) -> Result<MergeReport<T>> {
        let (vid, conflicts) = self.merge_raw(a.vid, b.vid, policy)?;
        Ok(MergeReport {
            version: vid.map(VersionPtr::from_vid),
            conflicts,
        })
    }

    /// Type-erased [`merge`](Self::merge): the network server applies
    /// `Merge` requests through this. Returns the new version (when
    /// one was checked in) and the conflicting byte ranges.
    pub fn merge_raw(
        &mut self,
        a: ode_object::Vid,
        b: ode_object::Vid,
        policy: MergePolicy,
    ) -> Result<(Option<ode_object::Vid>, Vec<MergeConflict>)> {
        let oid_a = self.db.versions().object_of(&mut self.tx, a)?;
        let oid_b = self.db.versions().object_of(&mut self.tx, b)?;
        if a == b || oid_a != oid_b {
            return Err(VersionError::MergeMismatch { a, b });
        }
        let tag = self.db.versions().object_meta(&mut self.tx, oid_a)?.tag;
        let base = self.db.versions().common_ancestor(&mut self.tx, a, b)?;
        let base_body = match base {
            Some(v) => self.db.versions().read_body(&mut self.tx, v, tag)?,
            None => Vec::new(),
        };
        let ours = self.db.versions().read_body(&mut self.tx, a, tag)?;
        let theirs = self.db.versions().read_body(&mut self.tx, b, tag)?;
        let outcome = ode_merge::merge(&base_body, &ours, &theirs, policy);
        let vid = match outcome.merged {
            Some(body) => {
                let vid = self
                    .db
                    .versions()
                    .new_merge_version(&mut self.tx, a, b, body)?;
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

    /// Type-erased `newversion` by raw object id.
    ///
    /// Policy layers (e.g. version percolation) walk heterogeneous
    /// object graphs where the static type is unknown; this derives a
    /// new version from the object's latest using its *stored* type tag.
    pub fn newversion_raw(&mut self, oid: ode_object::Oid) -> Result<ode_object::Vid> {
        let meta = self.db.versions().object_meta(&mut self.tx, oid)?;
        let vid = self
            .db
            .versions()
            .new_version_from(&mut self.tx, meta.latest)?;
        self.events.push(Event::NewVersion {
            oid,
            vid,
            base: meta.latest,
            tag: meta.tag,
        });
        Ok(vid)
    }

    /// Type-erased `pnew`: create an object of the given stored type
    /// tag with an already-encoded first-version body. The network
    /// server uses this to apply `pnew` requests whose `T` only the
    /// remote client knows.
    pub fn pnew_raw(
        &mut self,
        tag: ode_codec::TypeTag,
        body: Vec<u8>,
    ) -> Result<(ode_object::Oid, ode_object::Vid)> {
        let (oid, vid) = self.db.versions().create_object(&mut self.tx, tag, body)?;
        self.events.push(Event::Created { oid, vid, tag });
        Ok((oid, vid))
    }

    /// Type-erased `newversion` from a *specific* base version.
    pub fn newversion_from_raw(&mut self, base: ode_object::Vid) -> Result<ode_object::Vid> {
        let oid = self.db.versions().object_of(&mut self.tx, base)?;
        let tag = self.db.versions().object_meta(&mut self.tx, oid)?.tag;
        let vid = self.db.versions().new_version_from(&mut self.tx, base)?;
        self.events.push(Event::NewVersion {
            oid,
            vid,
            base,
            tag,
        });
        Ok(vid)
    }

    /// Type-erased [`put`](Self::put): replace the latest version's
    /// body with pre-encoded bytes, checking `tag` against the stored
    /// type. Returns the version written.
    pub fn put_raw(
        &mut self,
        oid: ode_object::Oid,
        tag: ode_codec::TypeTag,
        body: Vec<u8>,
    ) -> Result<ode_object::Vid> {
        let vid = self.db.versions().latest(&mut self.tx, oid)?;
        self.db
            .versions()
            .write_body(&mut self.tx, vid, tag, body)?;
        self.events.push(Event::Updated { oid, vid, tag });
        Ok(vid)
    }

    /// Type-erased [`put_version`](Self::put_version).
    pub fn put_version_raw(
        &mut self,
        vid: ode_object::Vid,
        tag: ode_codec::TypeTag,
        body: Vec<u8>,
    ) -> Result<()> {
        let oid = self.db.versions().object_of(&mut self.tx, vid)?;
        self.db
            .versions()
            .write_body(&mut self.tx, vid, tag, body)?;
        self.events.push(Event::Updated { oid, vid, tag });
        Ok(())
    }

    /// Type-erased [`pdelete`](Self::pdelete).
    pub fn pdelete_raw(&mut self, oid: ode_object::Oid) -> Result<()> {
        let tag = self.db.versions().object_meta(&mut self.tx, oid)?.tag;
        self.db.versions().delete_object(&mut self.tx, oid)?;
        self.events.push(Event::ObjectDeleted { oid, tag });
        Ok(())
    }

    /// Type-erased [`pdelete_version`](Self::pdelete_version).
    pub fn pdelete_version_raw(&mut self, vid: ode_object::Vid) -> Result<()> {
        let oid = self.db.versions().object_of(&mut self.tx, vid)?;
        let tag = self.db.versions().object_meta(&mut self.tx, oid)?.tag;
        self.db.versions().delete_version(&mut self.tx, vid)?;
        self.events.push(Event::VersionDeleted { oid, vid, tag });
        Ok(())
    }

    /// `pdelete p`: delete the object **and all its versions**.
    pub fn pdelete<T: OdeType>(&mut self, ptr: ObjPtr<T>) -> Result<()> {
        self.db.versions().delete_object(&mut self.tx, ptr.oid)?;
        self.events.push(Event::ObjectDeleted {
            oid: ptr.oid,
            tag: ObjPtr::<T>::tag(),
        });
        Ok(())
    }

    /// `pdelete vp`: delete one specific version, splicing the temporal
    /// and derived-from relationships around it. Deleting the last
    /// version is refused ([`VersionError::LastVersion`]); use
    /// [`Txn::pdelete`].
    pub fn pdelete_version<T: OdeType>(&mut self, vp: VersionPtr<T>) -> Result<()> {
        let oid = self.db.versions().object_of(&mut self.tx, vp.vid)?;
        self.db.versions().delete_version(&mut self.tx, vp.vid)?;
        self.events.push(Event::VersionDeleted {
            oid,
            vid: vp.vid,
            tag: VersionPtr::<T>::tag(),
        });
        Ok(())
    }

    /// Commit the transaction, making every change durable, then fire
    /// triggers for the committed events.
    pub fn commit(self) -> Result<()> {
        // The storage engine advances the snapshot epoch inside the
        // commit's publish step, before `commit()` returns (and so
        // before any caller acknowledges this commit to anyone):
        // readers that sample the epoch after the ack are guaranteed to
        // see a value newer than any cache entry built from pre-commit
        // state.
        self.tx.commit()?;
        self.db.fire(&self.events);
        Ok(())
    }

    /// Commit exactly once, never retrying: the explicit escape hatch
    /// from [`Database::transact`]'s retry loop for callers that want
    /// to observe a conflict themselves (to merge, give up, or apply
    /// their own policy).
    ///
    /// For an optimistic transaction this is what [`Txn::commit`] does
    /// anyway — a conflicted transaction's reads are stale, so the
    /// engine can only abort it; re-submitting the same write set would
    /// overwrite the winning transaction's changes. The separate name
    /// exists so call sites opting out of retries say so.
    pub fn commit_once(self) -> Result<()> {
        self.commit()
    }

    /// Whether this transaction validates optimistically at commit
    /// (begun via [`Database::begin_optimistic`]) rather than holding
    /// the exclusive write lock.
    pub fn is_optimistic(&self) -> bool {
        self.tx.is_optimistic()
    }

    /// Events recorded so far (fired on commit; inspection aid).
    pub fn pending_events(&self) -> &[Event] {
        &self.events
    }
}
