//! The O++ surface in two layers, so that it is written once.
//!
//! The **raw layer** is the operation set the wire protocol carries,
//! one method per row: [`RawRead`] for the 16 read rows and
//! [`RawWrite`] for the 8 write rows. It speaks object and version ids,
//! type tags and encoded bodies. Three backends implement it: the
//! embedded snapshot and transaction ([`Embedded`]), and in `ode-net`
//! the network client, whose every method is one request.
//!
//! The **typed layer** is [`Session`], a handle over any raw backend.
//! Its methods take [`ObjPtr`]/[`VersionPtr`], encode and decode the
//! values, and return the guards [`ORef`]/[`VRef`] and
//! [`MergeReport`]. [`Txn`] and [`Snapshot`] are this handle over the
//! embedded backends, and `Session<OdeClient>` is the remote one, so a
//! program means the same thing in every deployment shape. Operations
//! with no wire row, or that need one transaction's atomicity, stay on
//! the embedded handles alone (see [`Embedded`]).
//!
//! Triggers fire under the object's *stored* type, whichever pointer
//! type a write came through: the raw layer reads the tag from the
//! object itself.
//!
//! [`Embedded`]: crate::Embedded
//! [`Txn`]: crate::Txn
//! [`Snapshot`]: crate::Snapshot

use ode_codec::{from_bytes, to_bytes, DecodeError, TypeTag};
use ode_merge::{MergeConflict, MergePolicy};
use ode_object::{Oid, Vid};
use ode_version::VersionDiff;

use crate::guard::{ORef, VRef};
use crate::ptr::{ObjPtr, VersionPtr};
use crate::OdeType;

/// The read rows of the wire protocol, type-erased: what a server
/// answers from one snapshot. Body reads check the caller's `tag`
/// against the stored type.
pub trait RawRead {
    /// What a failed operation returns: [`crate::Error`] embedded, a
    /// network error remotely. The typed layer decodes bodies into it
    /// too.
    type Error: From<DecodeError>;

    /// `Deref`: the object's latest version and its encoded body.
    fn deref_raw(&mut self, oid: Oid, tag: TypeTag) -> Result<(Vid, Vec<u8>), Self::Error>;
    /// `DerefVersion`: one version's encoded body.
    fn deref_version_raw(&mut self, vid: Vid, tag: TypeTag) -> Result<Vec<u8>, Self::Error>;
    /// `Dprevious`: the version `vid` was derived from.
    fn dprevious_raw(&mut self, vid: Vid) -> Result<Option<Vid>, Self::Error>;
    /// `Dnext`: the versions derived from `vid`, in creation order.
    fn dnext_raw(&mut self, vid: Vid) -> Result<Vec<Vid>, Self::Error>;
    /// `Tprevious`: the version of the object created just before `vid`.
    fn tprevious_raw(&mut self, vid: Vid) -> Result<Option<Vid>, Self::Error>;
    /// `Tnext`: the version of the object created just after `vid`.
    fn tnext_raw(&mut self, vid: Vid) -> Result<Option<Vid>, Self::Error>;
    /// `VersionHistory`: every version of the object, oldest first.
    fn version_history_raw(&mut self, oid: Oid) -> Result<Vec<Vid>, Self::Error>;
    /// `CurrentVersion`: the object's latest version.
    fn latest_raw(&mut self, oid: Oid) -> Result<Vid, Self::Error>;
    /// `Objects`: every live object of stored type `tag`, in id order.
    fn objects_raw(&mut self, tag: TypeTag) -> Result<Vec<Oid>, Self::Error>;
    /// `ObjectsPage`: up to `limit` objects of type `tag` with ids
    /// `>= after`, in id order.
    fn objects_page_raw(
        &mut self,
        tag: TypeTag,
        after: Oid,
        limit: usize,
    ) -> Result<Vec<Oid>, Self::Error>;
    /// `ObjectOf`: the object a version belongs to.
    fn object_of_raw(&mut self, vid: Vid) -> Result<Oid, Self::Error>;
    /// `VersionCount`: the number of live versions of the object.
    fn version_count_raw(&mut self, oid: Oid) -> Result<u64, Self::Error>;
    /// `Exists`: whether the object is live.
    fn exists_raw(&mut self, oid: Oid) -> Result<bool, Self::Error>;
    /// `VersionExists`: whether the version is live.
    fn version_exists_raw(&mut self, vid: Vid) -> Result<bool, Self::Error>;
    /// `HistoryBetween`: the object's versions whose global stamp lies
    /// in `from..=to`, oldest first.
    fn history_between_raw(
        &mut self,
        oid: Oid,
        from: u64,
        to: u64,
    ) -> Result<Vec<Vid>, Self::Error>;
    /// `DiffVersions`: how two versions' bodies differ.
    fn diff_versions_raw(&mut self, from: Vid, to: Vid) -> Result<VersionDiff, Self::Error>;
}

/// The write rows of the wire protocol, type-erased. Each records its
/// trigger event under the object's stored type tag.
pub trait RawWrite: RawRead {
    /// `Pnew`: create an object of stored type `tag` whose first version
    /// holds the encoded `body`.
    fn pnew_raw(&mut self, tag: TypeTag, body: Vec<u8>) -> Result<(Oid, Vid), Self::Error>;
    /// `Update`: replace the latest version's body, checking `tag`
    /// against the stored type; returns the version written.
    fn put_raw(&mut self, oid: Oid, tag: TypeTag, body: Vec<u8>) -> Result<Vid, Self::Error>;
    /// `UpdateVersion`: replace one version's body, checking `tag`.
    fn put_version_raw(&mut self, vid: Vid, tag: TypeTag, body: Vec<u8>)
        -> Result<(), Self::Error>;
    /// `NewVersion`: derive a new version from the object's latest.
    fn newversion_raw(&mut self, oid: Oid) -> Result<Vid, Self::Error>;
    /// `NewVersionFrom`: derive a new version from a specific one.
    fn newversion_from_raw(&mut self, base: Vid) -> Result<Vid, Self::Error>;
    /// `Pdelete`: delete the object and every version of it.
    fn pdelete_raw(&mut self, oid: Oid) -> Result<(), Self::Error>;
    /// `PdeleteVersion`: delete one version, splicing the graph around
    /// it; the last version is refused.
    fn pdelete_version_raw(&mut self, vid: Vid) -> Result<(), Self::Error>;
    /// `Merge`: three-way merge two versions of one object and check
    /// the result in under both parents (unless `policy` is
    /// [`MergePolicy::Fail`] and they conflict). Returns the new
    /// version, if any, and every conflicting byte range.
    fn merge_raw(
        &mut self,
        a: Vid,
        b: Vid,
        policy: MergePolicy,
    ) -> Result<(Option<Vid>, Vec<MergeConflict>), Self::Error>;
}

/// The typed O++ surface over a raw backend `B`.
///
/// Embedded, `B` is a local snapshot or transaction ([`Snapshot`] and
/// [`Txn`] name those handles); remotely it is `ode_net::OdeClient`.
/// The typed methods are the same in both, and so are their results.
/// [`raw`](Session::raw) reaches the backend's own methods.
///
/// [`Txn`]: crate::Txn
/// [`Snapshot`]: crate::Snapshot
pub struct Session<B> {
    pub(crate) raw: B,
}

/// What a [`Session::merge`] produced: the checked-in merge version
/// (absent when the policy was [`MergePolicy::Fail`] and conflicts were
/// found) plus every conflicting byte range, in base-offset order.
#[derive(Debug, Clone)]
pub struct MergeReport<T> {
    /// The new two-parent version, when one was checked in.
    pub version: Option<VersionPtr<T>>,
    /// Overlapping edits between the two sides.
    pub conflicts: Vec<MergeConflict>,
}

fn versions<T>(vids: Vec<Vid>) -> Vec<VersionPtr<T>> {
    vids.into_iter().map(VersionPtr::from_vid).collect()
}

fn objects<T>(oids: Vec<Oid>) -> Vec<ObjPtr<T>> {
    oids.into_iter().map(ObjPtr::from_oid).collect()
}

impl<B> Session<B> {
    /// Put the typed surface over `raw`.
    pub fn new(raw: B) -> Session<B> {
        Session { raw }
    }

    /// The raw backend: its [`RawRead`]/[`RawWrite`] methods and
    /// whatever else it offers (a client's `stats`, say).
    pub fn raw(&mut self) -> &mut B {
        &mut self.raw
    }
}

impl<B: RawRead> Session<B> {
    /// Dereference a generic reference: decode the **latest** version
    /// (late binding happens here, at each call).
    pub fn deref<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<ORef<T>, B::Error> {
        let (vid, body) = self.raw.deref_raw(ptr.oid, ObjPtr::<T>::tag())?;
        Ok(ORef {
            value: from_bytes(&body)?,
            version: VersionPtr::from_vid(vid),
        })
    }

    /// Dereference a specific reference: decode exactly that version.
    pub fn deref_v<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<VRef<T>, B::Error> {
        let body = self.raw.deref_version_raw(vp.vid, VersionPtr::<T>::tag())?;
        Ok(VRef {
            value: from_bytes(&body)?,
            version: *vp,
        })
    }

    /// Pin the object's current latest version as a specific reference
    /// (generic → specific conversion).
    pub fn current_version<T: OdeType>(
        &mut self,
        ptr: &ObjPtr<T>,
    ) -> Result<VersionPtr<T>, B::Error> {
        Ok(VersionPtr::from_vid(self.raw.latest_raw(ptr.oid)?))
    }

    /// The object a version belongs to (specific → generic).
    pub fn object_of<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<ObjPtr<T>, B::Error> {
        Ok(ObjPtr::from_oid(self.raw.object_of_raw(vp.vid)?))
    }

    /// `Dprevious`: the version `vp` was derived from.
    pub fn dprevious<T: OdeType>(
        &mut self,
        vp: &VersionPtr<T>,
    ) -> Result<Option<VersionPtr<T>>, B::Error> {
        Ok(self.raw.dprevious_raw(vp.vid)?.map(VersionPtr::from_vid))
    }

    /// `Dnext`: versions derived from `vp`, in creation order.
    pub fn dnext<T: OdeType>(
        &mut self,
        vp: &VersionPtr<T>,
    ) -> Result<Vec<VersionPtr<T>>, B::Error> {
        Ok(versions(self.raw.dnext_raw(vp.vid)?))
    }

    /// `Tprevious`: the version created immediately before `vp`.
    pub fn tprevious<T: OdeType>(
        &mut self,
        vp: &VersionPtr<T>,
    ) -> Result<Option<VersionPtr<T>>, B::Error> {
        Ok(self.raw.tprevious_raw(vp.vid)?.map(VersionPtr::from_vid))
    }

    /// `Tnext`: the version created immediately after `vp`.
    pub fn tnext<T: OdeType>(
        &mut self,
        vp: &VersionPtr<T>,
    ) -> Result<Option<VersionPtr<T>>, B::Error> {
        Ok(self.raw.tnext_raw(vp.vid)?.map(VersionPtr::from_vid))
    }

    /// All versions of an object in temporal (creation) order.
    pub fn version_history<T: OdeType>(
        &mut self,
        ptr: &ObjPtr<T>,
    ) -> Result<Vec<VersionPtr<T>>, B::Error> {
        Ok(versions(self.raw.version_history_raw(ptr.oid)?))
    }

    /// Extent query: every live object of type `T`, in id order —
    /// O++'s `for x in T` loop.
    pub fn objects<T: OdeType>(&mut self) -> Result<Vec<ObjPtr<T>>, B::Error> {
        Ok(objects(self.raw.objects_raw(ObjPtr::<T>::tag())?))
    }

    /// A page of the type's extent: up to `limit` objects with ids
    /// `>=` `after` (pass [`Oid::NULL`] to start). Cursor-style
    /// iteration for extents too large to materialize; pass the last
    /// returned pointer's oid + 1 to continue.
    pub fn objects_page<T: OdeType>(
        &mut self,
        after: Oid,
        limit: usize,
    ) -> Result<Vec<ObjPtr<T>>, B::Error> {
        Ok(objects(self.raw.objects_page_raw(
            ObjPtr::<T>::tag(),
            after,
            limit,
        )?))
    }

    /// Number of live versions of an object.
    pub fn version_count<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<u64, B::Error> {
        self.raw.version_count_raw(ptr.oid)
    }

    /// Whether the object still exists.
    pub fn exists<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<bool, B::Error> {
        self.raw.exists_raw(ptr.oid)
    }

    /// Whether the version still exists.
    pub fn version_exists<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<bool, B::Error> {
        self.raw.version_exists_raw(vp.vid)
    }

    /// All versions of the object created in the global-stamp range
    /// `[from, to]` (inclusive), oldest first — "all versions of X
    /// between epochs". The answer is served off the chain directory
    /// and the delta runs of the segments the range overlaps, with no
    /// per-version record loads and no state materialization.
    pub fn history_between<T: OdeType>(
        &mut self,
        ptr: &ObjPtr<T>,
        from: u64,
        to: u64,
    ) -> Result<Vec<VersionPtr<T>>, B::Error> {
        Ok(versions(self.raw.history_between_raw(ptr.oid, from, to)?))
    }

    /// Summarize the difference between two versions' states — "diff
    /// v_a..v_b". Adjacent members of a delta chain are answered from
    /// the stored delta itself ([`VersionDiff::stored`] is `true`)
    /// without materializing any state; otherwise only the two
    /// endpoints are materialized — never the versions between them.
    pub fn diff_versions<T: OdeType>(
        &mut self,
        from: &VersionPtr<T>,
        to: &VersionPtr<T>,
    ) -> Result<VersionDiff, B::Error> {
        self.raw.diff_versions_raw(from.vid, to.vid)
    }
}

impl<B: RawWrite> Session<B> {
    /// `pnew`: create a persistent object holding `value` as its first
    /// version. Returns the generic reference.
    pub fn pnew<T: OdeType>(&mut self, value: &T) -> Result<ObjPtr<T>, B::Error> {
        let (oid, _) = self.raw.pnew_raw(ObjPtr::<T>::tag(), to_bytes(value))?;
        Ok(ObjPtr::from_oid(oid))
    }

    /// Replace the latest version's state wholesale; returns the
    /// version written.
    pub fn put<T: OdeType>(
        &mut self,
        ptr: &ObjPtr<T>,
        value: &T,
    ) -> Result<VersionPtr<T>, B::Error> {
        let vid = self
            .raw
            .put_raw(ptr.oid, ObjPtr::<T>::tag(), to_bytes(value))?;
        Ok(VersionPtr::from_vid(vid))
    }

    /// Replace a specific version's state wholesale.
    pub fn put_version<T: OdeType>(
        &mut self,
        vp: &VersionPtr<T>,
        value: &T,
    ) -> Result<(), B::Error> {
        self.raw
            .put_version_raw(vp.vid, VersionPtr::<T>::tag(), to_bytes(value))
    }

    /// `newversion(p)`: derive a new version from the object's latest.
    /// The new version becomes the latest; its state starts as a copy
    /// of the base's.
    pub fn newversion<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<VersionPtr<T>, B::Error> {
        Ok(VersionPtr::from_vid(self.raw.newversion_raw(ptr.oid)?))
    }

    /// `newversion(vp)`: derive from a *specific* version — this is how
    /// alternatives/variants are created (deriving from a non-tip
    /// version branches the derived-from tree).
    pub fn newversion_from<T: OdeType>(
        &mut self,
        vp: &VersionPtr<T>,
    ) -> Result<VersionPtr<T>, B::Error> {
        Ok(VersionPtr::from_vid(self.raw.newversion_from_raw(vp.vid)?))
    }

    /// `pdelete p`: delete the object **and all its versions**.
    pub fn pdelete<T: OdeType>(&mut self, ptr: ObjPtr<T>) -> Result<(), B::Error> {
        self.raw.pdelete_raw(ptr.oid)
    }

    /// `pdelete vp`: delete one specific version, splicing the temporal
    /// and derived-from relationships around it. Deleting the last
    /// version is refused ([`crate::Error::LastVersion`]); use
    /// [`pdelete`](Self::pdelete).
    pub fn pdelete_version<T: OdeType>(&mut self, vp: VersionPtr<T>) -> Result<(), B::Error> {
        self.raw.pdelete_version_raw(vp.vid)
    }

    /// Three-way merge of two versions of one object, checked in as a
    /// new version recording **both** parents in the derived-from
    /// graph.
    ///
    /// The merge base is their nearest common ancestor; with no
    /// surviving common ancestor the bodies are merged against an empty
    /// base, so only identical content merges cleanly. Non-overlapping
    /// edits from the two sides combine byte-exactly; overlapping edits
    /// are reported as [`MergeConflict`]s and resolved per `policy`
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
    ) -> Result<MergeReport<T>, B::Error> {
        let (vid, conflicts) = self.raw.merge_raw(a.vid, b.vid, policy)?;
        Ok(MergeReport {
            version: vid.map(VersionPtr::from_vid),
            conflicts,
        })
    }
}
