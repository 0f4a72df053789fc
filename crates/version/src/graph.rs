//! The version graph engine: create, derive, update, delete, traverse.

use ode_codec::TypeTag;
use ode_object::{Extents, IdAllocator, KvTable, ObjectHeap, Oid, Vid};
use ode_storage::heap::RecordId;
use ode_storage::{PageRead, PageWrite};

use crate::cache::EpochCache;
use crate::chain::{
    not_in_chain, ChainConfig, ChainDirectory, ChainStats, Segment, SegmentRef, VersionDiff,
};
use crate::records::{upsert, ObjectMeta, VersionMeta};
use crate::segments::{ChainStore, CheckIn};
use crate::{Result, VersionError};

/// Root-slot assignment for a [`VersionStore`]'s seven persistent
/// components. The default occupies slots 0–6, leaving 7–15 free for the
/// embedding application.
#[derive(Debug, Clone, Copy)]
pub struct VersionStoreLayout {
    /// Slot of the oid → object-record table.
    pub obj_table_slot: usize,
    /// Slot of the vid → version-record table.
    pub ver_table_slot: usize,
    /// Slot of the record heap.
    pub heap_slot: usize,
    /// Slot of the object-id counter.
    pub oid_slot: usize,
    /// Slot of the version-id counter.
    pub vid_slot: usize,
    /// Slot of the per-type extent directory.
    pub extent_slot: usize,
    /// Slot of the oid → chain-directory-record table (one entry per
    /// object with two or more versions).
    pub chain_table_slot: usize,
}

impl Default for VersionStoreLayout {
    fn default() -> Self {
        VersionStoreLayout {
            obj_table_slot: 0,
            ver_table_slot: 1,
            heap_slot: 2,
            oid_slot: 3,
            vid_slot: 4,
            extent_slot: 5,
            chain_table_slot: 6,
        }
    }
}

/// The version graph over a transactional page store.
///
/// All operations take a storage transaction; the store itself is a cheap
/// `Copy` handle binding the root-slot layout and the [`ChainConfig`]
/// new chains are built with.
///
/// Every version's state is stored once: the latest version's whole in
/// its [`VersionMeta`], every older one in its object's delta chain
/// (see the `chain` module).
///
/// ```
/// use ode_codec::TypeTag;
/// use ode_storage::{Store, StoreOptions};
/// use ode_version::{VersionStore, VersionStoreLayout};
///
/// # let path = std::env::temp_dir().join(format!("vs-doc-{}", std::process::id()));
/// let store = Store::create(&path, StoreOptions::default()).unwrap();
/// let vs = VersionStore::new(VersionStoreLayout::default());
/// const TAG: TypeTag = TypeTag::from_name("doc/Obj");
///
/// let mut tx = store.begin();
/// let (oid, v0) = vs.create_object(&mut tx, TAG, b"state-0".to_vec()).unwrap();
/// let v1 = vs.new_version_from(&mut tx, v0).unwrap();
/// vs.write_body(&mut tx, v1, TAG, b"state-1".to_vec()).unwrap();
/// assert_eq!(vs.latest(&mut tx, oid).unwrap(), v1);
/// assert_eq!(vs.dprevious(&mut tx, v1).unwrap(), Some(v0));
/// assert_eq!(vs.read_body(&mut tx, v0, TAG).unwrap(), b"state-0");
/// vs.check_object(&mut tx, oid).unwrap();
/// tx.commit().unwrap();
/// # drop(store);
/// # let _ = std::fs::remove_file(&path);
/// # let mut w = path.into_os_string(); w.push(".wal");
/// # let _ = std::fs::remove_file(std::path::PathBuf::from(w));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct VersionStore {
    obj_table: KvTable,
    ver_table: KvTable,
    heap: ObjectHeap,
    oids: IdAllocator,
    vids: IdAllocator,
    extents: Extents,
    chains: ChainStore,
    /// The shape of chains this store starts.
    chain: ChainConfig,
}

impl VersionStore {
    /// Bind a version store to a slot layout, with the default
    /// [`ChainConfig`] for new chains.
    pub fn new(layout: VersionStoreLayout) -> VersionStore {
        VersionStore::with_chain(layout, ChainConfig::default())
    }

    /// Bind a version store to a slot layout, starting new chains with
    /// `config` (existing chains keep the shape they were built with).
    pub fn with_chain(layout: VersionStoreLayout, config: ChainConfig) -> VersionStore {
        let heap = ObjectHeap::new(layout.heap_slot);
        VersionStore {
            obj_table: KvTable::new(layout.obj_table_slot),
            ver_table: KvTable::new(layout.ver_table_slot),
            heap,
            oids: IdAllocator::new(layout.oid_slot),
            vids: IdAllocator::new(layout.vid_slot),
            extents: Extents::new(layout.extent_slot),
            chains: ChainStore::new(KvTable::new(layout.chain_table_slot), heap),
            chain: config,
        }
    }

    // ------------------------------------------------------------------
    // Record plumbing
    // ------------------------------------------------------------------

    /// Load an object record.
    pub fn object_meta(&self, tx: &mut impl PageRead, oid: Oid) -> Result<ObjectMeta> {
        let rid = self
            .obj_table
            .get(tx, oid.0)?
            .ok_or(VersionError::UnknownObject(oid))?;
        Ok(self.heap.load(tx, RecordId::from_u64(rid))?)
    }

    /// Load a version record.
    pub fn version_meta(&self, tx: &mut impl PageRead, vid: Vid) -> Result<VersionMeta> {
        let rid = self.version_rid(tx, vid)?;
        Ok(self.heap.load(tx, rid)?)
    }

    fn version_rid(&self, tx: &mut impl PageRead, vid: Vid) -> Result<RecordId> {
        let rid = self
            .ver_table
            .get(tx, vid.0)?
            .ok_or(VersionError::UnknownVersion(vid))?;
        Ok(RecordId::from_u64(rid))
    }

    /// Load a version record's identity and graph links; its body is
    /// left undecoded (empty).
    fn version_links(&self, tx: &mut impl PageRead, vid: Vid) -> Result<VersionMeta> {
        let rid = self.version_rid(tx, vid)?;
        let bytes = self.heap.load_bytes(tx, rid)?;
        Ok(VersionMeta::decode_links(&bytes)?)
    }

    fn save_object(&self, tx: &mut impl PageWrite, meta: &ObjectMeta) -> Result<RecordId> {
        upsert(&self.obj_table, &self.heap, tx, meta.oid.0, meta, None)
    }

    fn save_version(&self, tx: &mut impl PageWrite, meta: &VersionMeta) -> Result<RecordId> {
        upsert(&self.ver_table, &self.heap, tx, meta.vid.0, meta, None)
    }

    fn drop_version_record(&self, tx: &mut impl PageWrite, vid: Vid) -> Result<()> {
        if let Some(rid) = self.ver_table.remove(tx, vid.0)? {
            self.heap.delete(tx, RecordId::from_u64(rid))?;
        }
        Ok(())
    }

    /// An object's chain directory, if it has a chain: the anchor
    /// spacing plus one entry per segment.
    pub fn chain_directory(
        &self,
        tx: &mut impl PageRead,
        oid: Oid,
    ) -> Result<Option<ChainDirectory>> {
        self.chains.directory(tx, oid)
    }

    /// Load one segment of a chain whole (anchor state plus delta run).
    pub fn chain_segment(&self, tx: &mut impl PageRead, seg: &SegmentRef) -> Result<Segment> {
        self.chains.segment(tx, seg)
    }

    /// A version's state, given its meta and its object's chain: the
    /// latest version's meta body, any other's materialization off the
    /// chain.
    fn body_of(
        &self,
        tx: &mut impl PageRead,
        meta: &VersionMeta,
        dir: Option<&ChainDirectory>,
    ) -> Result<Vec<u8>> {
        if meta.is_latest() {
            return Ok(meta.body.clone());
        }
        self.chains
            .state_of(tx, dir.ok_or_else(not_in_chain)?, meta.vid)
    }

    // ------------------------------------------------------------------
    // pnew / newversion / pdelete
    // ------------------------------------------------------------------

    /// `pnew`: create a persistent object with its first version.
    pub fn create_object(
        &self,
        tx: &mut impl PageWrite,
        tag: TypeTag,
        body: Vec<u8>,
    ) -> Result<(Oid, Vid)> {
        let oid = Oid(self.oids.next(tx)?);
        let vid = Vid(self.vids.next(tx)?);
        let version = VersionMeta {
            vid,
            oid,
            tag,
            dprev: Vid::NULL,
            dprev2: Vid::NULL,
            dnext: Vec::new(),
            tprev: Vid::NULL,
            tnext: Vid::NULL,
            created: vid.0,
            body,
        };
        let object = ObjectMeta {
            oid,
            tag,
            root: vid,
            latest: vid,
            version_count: 1,
        };
        // An object's record sits beside its first version's, and later
        // versions beside their predecessors (see `check_in`): what one
        // check-in reads and writes shares pages.
        let home = self.save_version(tx, &version)?;
        upsert(&self.obj_table, &self.heap, tx, oid.0, &object, Some(home))?;
        self.extents.add(tx, tag, oid.0)?;
        Ok((oid, vid))
    }

    /// `newversion(o)` — derive from the object's latest version.
    pub fn new_version_of(&self, tx: &mut impl PageWrite, oid: Oid) -> Result<Vid> {
        let latest = self.object_meta(tx, oid)?.latest;
        self.new_version_from(tx, latest)
    }

    /// `newversion(v)` — derive a new version from a specific base.
    ///
    /// The new version starts as a copy of the base's state, becomes a
    /// derived-from child of the base, and is appended at the temporal
    /// tail (so it is the object's new latest version, regardless of
    /// where in the tree the base sits — exactly the paper's v2-from-v0
    /// "alternative" figure).
    pub fn new_version_from(&self, tx: &mut impl PageWrite, base: Vid) -> Result<Vid> {
        let mut base_meta = self.version_meta(tx, base)?;
        let object = self.object_meta(tx, base_meta.oid)?;
        let dir = self.chains.directory(tx, object.oid)?;
        let vid = Vid(self.vids.next(tx)?);

        // The base's state: its whole meta body when it is the latest,
        // else its materialization off the chain.
        let base_state = self.body_of(tx, &base_meta, dir.as_ref())?;

        let version = VersionMeta {
            vid,
            oid: object.oid,
            tag: object.tag,
            dprev: base,
            dprev2: Vid::NULL,
            dnext: Vec::new(),
            tprev: object.latest,
            tnext: Vid::NULL,
            created: vid.0,
            body: base_state,
        };

        base_meta.dnext.push(vid);
        self.check_in(tx, object, dir, &version, vec![base_meta])?;
        Ok(vid)
    }

    /// `merge(a, b)` check-in: record `body` (the reconciled state) as
    /// a new version with **both** parents — the derived-from
    /// structure's first DAG edges. The merged version becomes the
    /// object's latest, exactly like any other check-in; the policy
    /// and conflict questions live above this layer (`ode-merge`).
    ///
    /// `a` and `b` must be distinct versions of the same object.
    pub fn new_merge_version(
        &self,
        tx: &mut impl PageWrite,
        a: Vid,
        b: Vid,
        body: Vec<u8>,
    ) -> Result<Vid> {
        let mut a_meta = self.version_meta(tx, a)?;
        let mut b_meta = self.version_meta(tx, b)?;
        if a == b || a_meta.oid != b_meta.oid {
            return Err(VersionError::MergeMismatch { a, b });
        }
        let object = self.object_meta(tx, a_meta.oid)?;
        let dir = self.chains.directory(tx, object.oid)?;
        let vid = Vid(self.vids.next(tx)?);

        let version = VersionMeta {
            vid,
            oid: object.oid,
            tag: object.tag,
            dprev: a,
            dprev2: b,
            dnext: Vec::new(),
            tprev: object.latest,
            tnext: Vid::NULL,
            created: vid.0,
            body,
        };

        a_meta.dnext.push(vid);
        b_meta.dnext.push(vid);
        self.check_in(tx, object, dir, &version, vec![a_meta, b_meta])?;
        Ok(vid)
    }

    /// Append a fully-formed new version at the object's temporal tail
    /// and make it the latest. `parents` are the version's parents with
    /// their `dnext` lists already extended but not yet saved; the
    /// temporal tail is usually one of them and is then loaded and
    /// written once.
    fn check_in(
        &self,
        tx: &mut impl PageWrite,
        mut object: ObjectMeta,
        dir: Option<ChainDirectory>,
        version: &VersionMeta,
        mut parents: Vec<VersionMeta>,
    ) -> Result<()> {
        let mut tail = match parents.iter().position(|p| p.vid == object.latest) {
            Some(i) => parents.swap_remove(i),
            None => self.version_meta(tx, object.latest)?,
        };
        tail.tnext = version.vid;
        object.latest = version.vid;
        object.version_count += 1;
        let home = self.save_object(tx, &object)?;
        // The outgoing latest moves its whole body into the chain (its
        // first anchor, when the object had one version) and the new
        // version keeps its own whole in its meta.
        let outgoing = std::mem::take(&mut tail.body);
        let check_in = CheckIn {
            oid: object.oid,
            home,
            outgoing: (tail.vid, &outgoing),
        };
        self.chains.append(tx, dir, self.chain, check_in)?;
        for parent in &parents {
            self.save_version(tx, parent)?;
        }
        // The new version's record goes beside its predecessor's, which
        // this check-in rewrites anyway.
        let near = Some(self.save_version(tx, &tail)?);
        upsert(
            &self.ver_table,
            &self.heap,
            tx,
            version.vid.0,
            version,
            near,
        )?;
        Ok(())
    }

    /// `pdelete` on an object id: the object and *all* its versions go.
    pub fn delete_object(&self, tx: &mut impl PageWrite, oid: Oid) -> Result<()> {
        let object = self.object_meta(tx, oid)?;
        // Walk the temporal chain backwards from the latest version.
        let mut cur = object.latest;
        while !cur.is_null() {
            let meta = self.version_meta(tx, cur)?;
            self.drop_version_record(tx, cur)?;
            cur = meta.tprev;
        }
        if let Some(rid) = self.obj_table.remove(tx, oid.0)? {
            self.heap.delete(tx, RecordId::from_u64(rid))?;
        }
        self.chains.drop_chain(tx, oid)?;
        self.extents.remove(tx, object.tag, oid.0)?;
        Ok(())
    }

    /// `pdelete` on a version id: remove one version, splicing the
    /// temporal chain and the derived-from tree around it (children are
    /// re-parented to the deleted version's own parent).
    ///
    /// Deleting the last remaining version is refused — use
    /// [`VersionStore::delete_object`].
    pub fn delete_version(&self, tx: &mut impl PageWrite, vid: Vid) -> Result<()> {
        let meta = self.version_meta(tx, vid)?;
        let mut object = self.object_meta(tx, meta.oid)?;
        if object.version_count <= 1 {
            return Err(VersionError::LastVersion(vid));
        }

        // Chain repair. Deleting the latest pops the chain's last
        // member — its temporal predecessor — back into that version's
        // meta as the new latest's whole body; deleting an older version
        // re-bases or re-anchors its successor inside its segment. An
        // object left with one version has no chain.
        let dir = self.chains.required_directory(tx, object.oid)?;
        let promoted = if meta.is_latest() {
            let (popped, body) = self.chains.pop(tx, object.oid, dir)?;
            if popped != meta.tprev {
                return Err(not_in_chain());
            }
            Some(body)
        } else {
            self.chains.remove(tx, object.oid, dir, vid)?;
            None
        };

        // Temporal splice.
        if !meta.tprev.is_null() {
            let mut prev = self.version_meta(tx, meta.tprev)?;
            prev.tnext = meta.tnext;
            if let Some(body) = promoted {
                prev.body = body;
            }
            self.save_version(tx, &prev)?;
        }
        if !meta.tnext.is_null() {
            let mut next = self.version_meta(tx, meta.tnext)?;
            next.tprev = meta.tprev;
            self.save_version(tx, &next)?;
        }
        if object.latest == vid {
            // vid was the tail, so its tprev exists (count > 1).
            object.latest = meta.tprev;
        }

        // Derivation splice: children adopt the deleted version's
        // primary parent in place of the lost edge. A merge child may
        // lose only one of its two parent edges; if the adoption would
        // duplicate its surviving edge, the duplicate collapses and no
        // new edge is created.
        let fallback = meta.dprev;
        let mut adopted: Vec<Vid> = Vec::new();
        for &child in &meta.dnext {
            let mut c = self.version_meta(tx, child)?;
            // The child's parent slot not being re-pointed.
            let other = if c.dprev == vid { c.dprev2 } else { c.dprev };
            if !fallback.is_null() && other != fallback {
                // The child gains a genuinely new edge to the fallback
                // parent and takes over the deleted version's dnext
                // position there.
                adopted.push(child);
            }
            if c.dprev == vid {
                c.dprev = fallback;
            } else {
                c.dprev2 = fallback;
            }
            // Normalize: collapse a duplicated edge, keep the primary
            // slot occupied first.
            if !c.dprev2.is_null() {
                if c.dprev2 == c.dprev {
                    c.dprev2 = Vid::NULL;
                } else if c.dprev.is_null() {
                    c.dprev = c.dprev2;
                    c.dprev2 = Vid::NULL;
                }
            }
            self.save_version(tx, &c)?;
        }
        if !meta.dprev.is_null() {
            let mut parent = self.version_meta(tx, meta.dprev)?;
            let pos = parent
                .dnext
                .iter()
                .position(|&v| v == vid)
                .expect("parent lists child");
            // Adopted children take the deleted version's position,
            // preserving derivation order.
            parent.dnext.splice(pos..=pos, adopted.iter().copied());
            self.save_version(tx, &parent)?;
        }
        if !meta.dprev2.is_null() {
            // The deleted version was itself a merge: its second parent
            // simply loses the edge (children were spliced under the
            // primary parent above).
            let mut parent = self.version_meta(tx, meta.dprev2)?;
            parent.dnext.retain(|&v| v != vid);
            self.save_version(tx, &parent)?;
        }
        if object.root == vid {
            // The root moves to the first re-parented child, or — when
            // the deleted root was childless — to the oldest live
            // version (the temporal splices above already bypass `vid`).
            object.root = match meta.dnext.first() {
                Some(&child) => child,
                None => {
                    let mut head = object.latest;
                    loop {
                        let m = self.version_meta(tx, head)?;
                        if m.tprev.is_null() {
                            break head;
                        }
                        head = m.tprev;
                    }
                }
            };
        }

        object.version_count -= 1;
        self.save_object(tx, &object)?;
        self.drop_version_record(tx, vid)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reads and updates
    // ------------------------------------------------------------------

    /// The latest version id of an object (what a generic reference
    /// binds to *at access time*).
    pub fn latest(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Vid> {
        Ok(self.object_meta(tx, oid)?.latest)
    }

    /// The object a version belongs to.
    pub fn object_of(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Oid> {
        Ok(self.version_meta(tx, vid)?.oid)
    }

    /// Read a version's body, type-checked against `expected`.
    pub fn read_body(
        &self,
        tx: &mut impl PageRead,
        vid: Vid,
        expected: TypeTag,
    ) -> Result<Vec<u8>> {
        self.read_body_cached(tx, vid, expected, None)
    }

    /// [`read_body`](VersionStore::read_body) with an optional
    /// materialization cache keyed by commit epoch. Only chain
    /// materializations are cached (whole meta bodies are already one
    /// record load); pass `None` from write transactions — their own
    /// uncommitted edits don't move the epoch, so cached bodies could
    /// mask them.
    pub fn read_body_cached(
        &self,
        tx: &mut impl PageRead,
        vid: Vid,
        expected: TypeTag,
        cache: Option<(&EpochCache<Vid, Vec<u8>>, u64)>,
    ) -> Result<Vec<u8>> {
        let meta = self.version_meta(tx, vid)?;
        if meta.tag != expected {
            return Err(VersionError::TypeMismatch {
                expected,
                found: meta.tag,
            });
        }
        // The latest version stores its body whole: zero chain
        // overhead on the hot path.
        if meta.is_latest() {
            return Ok(meta.body);
        }
        if let Some((cache, epoch)) = cache {
            if let Some(body) = cache.get(epoch, &vid) {
                return Ok(body);
            }
        }
        let dir = self.chains.required_directory(tx, meta.oid)?;
        let state = self.chains.state_of(tx, &dir, vid)?;
        if let Some((cache, epoch)) = cache {
            cache.insert(epoch, vid, state.clone());
        }
        Ok(state)
    }

    /// Overwrite a version's body in place (no new version is created —
    /// this is ordinary mutation through a pointer in O++).
    ///
    /// The latest version's record is rewritten and no chain record is
    /// touched; an older version's delta is re-diffed (and its
    /// successor's re-based) inside its one segment.
    pub fn write_body(
        &self,
        tx: &mut impl PageWrite,
        vid: Vid,
        expected: TypeTag,
        body: Vec<u8>,
    ) -> Result<()> {
        let mut meta = self.version_links(tx, vid)?;
        if meta.tag != expected {
            return Err(VersionError::TypeMismatch {
                expected,
                found: meta.tag,
            });
        }
        if meta.is_latest() {
            meta.body = body;
            self.save_version(tx, &meta)?;
            return Ok(());
        }
        let dir = self.chains.required_directory(tx, meta.oid)?;
        self.chains.set_state(tx, meta.oid, dir, vid, &body)
    }

    // ------------------------------------------------------------------
    // Traversal (Dprevious / Tprevious and friends)
    // ------------------------------------------------------------------

    /// `Dprevious`: the version this one was derived from.
    pub fn dprevious(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Option<Vid>> {
        let v = self.version_meta(tx, vid)?.dprev;
        Ok(if v.is_null() { None } else { Some(v) })
    }

    /// `Dnext`: versions derived from this one, in creation order.
    pub fn dnext(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Vec<Vid>> {
        Ok(self.version_meta(tx, vid)?.dnext)
    }

    /// `Tprevious`: the version created immediately before this one.
    pub fn tprevious(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Option<Vid>> {
        let v = self.version_meta(tx, vid)?.tprev;
        Ok(if v.is_null() { None } else { Some(v) })
    }

    /// `Tnext`: the version created immediately after this one.
    pub fn tnext(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Option<Vid>> {
        let v = self.version_meta(tx, vid)?.tnext;
        Ok(if v.is_null() { None } else { Some(v) })
    }

    /// All versions of an object in temporal order (oldest first).
    pub fn version_history(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Vec<Vid>> {
        let object = self.object_meta(tx, oid)?;
        let mut out = Vec::with_capacity(object.version_count as usize);
        let mut cur = object.latest;
        while !cur.is_null() {
            out.push(cur);
            cur = self.version_meta(tx, cur)?.tprev;
        }
        out.reverse();
        Ok(out)
    }

    /// The derivation path from `vid` back to a root (vid first).
    pub fn derivation_path(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Vec<Vid>> {
        let mut out = vec![vid];
        let mut cur = vid;
        loop {
            let prev = self.version_meta(tx, cur)?.dprev;
            if prev.is_null() {
                return Ok(out);
            }
            out.push(prev);
            cur = prev;
        }
    }

    /// All ancestors of `vid` in the derived-from graph — `vid` itself
    /// first, then strictly descending creation order — following
    /// *both* parents of merge versions.
    ///
    /// Reads only version records (graph links); no body is ever
    /// materialized, so the walk is cheap even on chain-backed stores.
    pub fn ancestors(&self, tx: &mut impl PageRead, vid: Vid) -> Result<Vec<Vid>> {
        use std::collections::{BinaryHeap, HashSet};
        // Validate the starting vid eagerly so callers get
        // UnknownVersion rather than an empty walk.
        self.version_meta(tx, vid)?;
        let mut seen: HashSet<Vid> = HashSet::new();
        let mut heap: BinaryHeap<Vid> = BinaryHeap::new();
        seen.insert(vid);
        heap.push(vid);
        let mut out = Vec::new();
        // Max-heap by vid == by creation stamp (`created` is `vid.0`),
        // and parents are always older than children, so popping the
        // max yields strictly descending creation order.
        while let Some(v) = heap.pop() {
            out.push(v);
            let meta = self.version_meta(tx, v)?;
            for p in meta.parents() {
                if seen.insert(p) {
                    heap.push(p);
                }
            }
        }
        Ok(out)
    }

    /// The lowest common ancestor of two versions: of all versions
    /// reachable from both `a` and `b` along derived-from edges
    /// (inclusive), the one with the greatest creation stamp. `None`
    /// when the two share no ancestry (possible after version
    /// deletions split the derivation forest, or across objects).
    ///
    /// This is the merge base: the newest state both sides have seen.
    ///
    /// One descending-vid walk from both sides at once: each frontier
    /// version carries which side(s) reached it, and the first one
    /// popped with both marks is the answer — a parent is always older
    /// than its children, so no version popped later can still mark
    /// it. Only versions newer than the answer are loaded, whatever the
    /// length of the history behind it.
    pub fn common_ancestor(&self, tx: &mut impl PageRead, a: Vid, b: Vid) -> Result<Option<Vid>> {
        use std::collections::BTreeMap;
        const FROM_A: u8 = 1;
        const FROM_B: u8 = 2;
        if a == b {
            self.version_meta(tx, a)?;
            return Ok(Some(a));
        }
        // Ordered by vid == by creation stamp (`created` is `vid.0`).
        let mut frontier: BTreeMap<Vid, u8> = BTreeMap::from([(a, FROM_A), (b, FROM_B)]);
        while let Some((v, marks)) = frontier.pop_last() {
            if marks == FROM_A | FROM_B {
                return Ok(Some(v));
            }
            for p in self.version_meta(tx, v)?.parents() {
                *frontier.entry(p).or_insert(0) |= marks;
            }
        }
        Ok(None)
    }

    /// Leaves of the derived-from tree: "each leaf represents the most
    /// up-to-date version of an alternative design".
    pub fn derivation_leaves(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Vec<Vid>> {
        let mut leaves = Vec::new();
        for vid in self.version_history(tx, oid)? {
            if self.version_meta(tx, vid)?.is_derivation_leaf() {
                leaves.push(vid);
            }
        }
        Ok(leaves)
    }

    /// Number of live versions of an object.
    pub fn version_count(&self, tx: &mut impl PageRead, oid: Oid) -> Result<u64> {
        Ok(self.object_meta(tx, oid)?.version_count)
    }

    /// A version's global creation stamp (monotone across the whole
    /// database — the basis for temporal "as-of" queries in historical
    /// databases, §2).
    pub fn created_stamp(&self, tx: &mut impl PageRead, vid: Vid) -> Result<u64> {
        Ok(self.version_meta(tx, vid)?.created)
    }

    /// The newest version of `oid` created at or before `stamp`
    /// (`None` when the object's oldest surviving version is newer).
    ///
    /// Walks the temporal chain backwards from the latest version, so
    /// recent as-of points are cheap.
    pub fn version_as_of(
        &self,
        tx: &mut impl PageRead,
        oid: Oid,
        stamp: u64,
    ) -> Result<Option<Vid>> {
        let mut cur = self.object_meta(tx, oid)?.latest;
        while !cur.is_null() {
            let meta = self.version_meta(tx, cur)?;
            if meta.created <= stamp {
                return Ok(Some(cur));
            }
            cur = meta.tprev;
        }
        Ok(None)
    }

    /// The current global creation stamp (the stamp the *next* version
    /// will exceed). Capture this to name a database-wide moment.
    pub fn now_stamp(&self, tx: &mut impl PageRead) -> Result<u64> {
        Ok(self.vids.last(tx)?)
    }

    /// All versions of `oid` created in the stamp range `[from, to]`
    /// (inclusive), oldest first — "all versions of X between epochs".
    ///
    /// Answered off the chain directory and the runs of the segments
    /// the range overlaps, plus the latest version from the object
    /// record, with **no per-version record loads**. (A version's
    /// stamp is its id: `created` is `vid.0`.)
    pub fn history_between(
        &self,
        tx: &mut impl PageRead,
        oid: Oid,
        from: u64,
        to: u64,
    ) -> Result<Vec<Vid>> {
        let latest = self.object_meta(tx, oid)?.latest;
        if from > to {
            return Ok(Vec::new());
        }
        let mut out = match self.chains.directory(tx, oid)? {
            Some(dir) => self.chains.vids_between(tx, &dir, from, to)?,
            None => Vec::new(),
        };
        if (from..=to).contains(&latest.0) {
            out.push(latest);
        }
        Ok(out)
    }

    /// Summarize the difference between two versions' states —
    /// "diff v_a..v_b".
    ///
    /// When the two are adjacent members of one segment of the same
    /// object's chain, the stored delta is summarized directly
    /// (`stored = true`) with **no state materialized at all**;
    /// otherwise only the two endpoint states are materialized and
    /// diffed — never the intermediate versions between them.
    pub fn diff_versions(&self, tx: &mut impl PageRead, from: Vid, to: Vid) -> Result<VersionDiff> {
        let meta_a = self.version_meta(tx, from)?;
        let meta_b = self.version_meta(tx, to)?;
        let dir_a = self.chains.directory(tx, meta_a.oid)?;
        let dir_b_owned;
        let dir_b = if meta_b.oid == meta_a.oid {
            if let Some(dir) = &dir_a {
                if let Some(d) = self.chains.stored_delta(tx, dir, from, to)? {
                    return Ok(VersionDiff::from_delta(from, to, &d, true));
                }
            }
            dir_a.as_ref()
        } else {
            dir_b_owned = self.chains.directory(tx, meta_b.oid)?;
            dir_b_owned.as_ref()
        };
        let base = self.body_of(tx, &meta_a, dir_a.as_ref())?;
        let target = self.body_of(tx, &meta_b, dir_b)?;
        let delta = ode_delta::diff(&base, &target);
        Ok(VersionDiff::from_delta(from, to, &delta, false))
    }

    /// Space/shape statistics of an object's chain (`None` for objects
    /// without one). One full replay pass over every segment —
    /// fsck/odedump cost, not a hot path.
    pub fn chain_stats(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Option<ChainStats>> {
        match self.chains.directory(tx, oid)? {
            Some(dir) => Ok(Some(self.chains.stats(tx, &dir)?)),
            None => Ok(None),
        }
    }

    /// All live objects of a type, in oid order (the O++ extent query).
    pub fn objects_of_type(&self, tx: &mut impl PageRead, tag: TypeTag) -> Result<Vec<Oid>> {
        Ok(self
            .extents
            .members(tx, tag)?
            .into_iter()
            .map(Oid)
            .collect())
    }

    /// A page of the type's extent: up to `limit` oids `>= from`, in
    /// oid order (cursor-style iteration for extents too large to
    /// materialize).
    pub fn objects_of_type_from(
        &self,
        tx: &mut impl PageRead,
        tag: TypeTag,
        from: Oid,
        limit: usize,
    ) -> Result<Vec<Oid>> {
        Ok(self
            .extents
            .members_from(tx, tag, from.0, limit)?
            .into_iter()
            .map(Oid)
            .collect())
    }

    /// Whether an object id is live.
    pub fn object_exists(&self, tx: &mut impl PageRead, oid: Oid) -> Result<bool> {
        Ok(self.obj_table.get(tx, oid.0)?.is_some())
    }

    /// Whether a version id is live.
    pub fn version_exists(&self, tx: &mut impl PageRead, vid: Vid) -> Result<bool> {
        Ok(self.ver_table.get(tx, vid.0)?.is_some())
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests, fsck)
    // ------------------------------------------------------------------

    /// Verify the structural invariants of one object's version graph:
    /// temporal chain doubly linked with `latest` at the tail and
    /// `version_count` entries, creation stamps strictly ascending along
    /// it, derived-from links forming a forest consistent with `dnext`
    /// lists — and the body store: every version but the latest has an
    /// empty meta body, and the chain holds exactly those versions.
    pub fn check_object(&self, tx: &mut impl PageRead, oid: Oid) -> Result<()> {
        use std::collections::HashSet;
        let object = self.object_meta(tx, oid)?;
        let history = self.version_history(tx, oid)?;
        let corrupt = |msg: &'static str| -> VersionError {
            VersionError::Storage(ode_storage::StorageError::TreeCorrupt(msg))
        };
        if history.len() as u64 != object.version_count {
            return Err(corrupt("version_count mismatch"));
        }
        if *history.last().expect("non-empty history") != object.latest {
            return Err(corrupt("latest is not the temporal tail"));
        }
        let live: HashSet<Vid> = history.iter().copied().collect();
        let mut last_created = 0;
        let mut prev = Vid::NULL;
        for &vid in &history {
            let meta = self.version_meta(tx, vid)?;
            if meta.oid != oid {
                return Err(corrupt("version belongs to another object"));
            }
            if meta.tprev != prev {
                return Err(corrupt("temporal chain back-link broken"));
            }
            if meta.created <= last_created {
                return Err(corrupt("creation stamps not ascending"));
            }
            last_created = meta.created;
            if vid != object.latest && !meta.body.is_empty() {
                return Err(VersionError::ChainCorrupt(
                    "historical version still stores a whole body",
                ));
            }
            if !meta.dprev2.is_null() {
                if meta.dprev.is_null() {
                    return Err(corrupt("dprev2 set while dprev is null"));
                }
                if meta.dprev2 == meta.dprev {
                    return Err(corrupt("merge parents are not distinct"));
                }
            }
            for parent_vid in meta.parents() {
                if !live.contains(&parent_vid) {
                    return Err(corrupt("dprev points at a dead version"));
                }
                let parent = self.version_meta(tx, parent_vid)?;
                if !parent.dnext.contains(&vid) {
                    return Err(corrupt("parent does not list child"));
                }
                if parent.created >= meta.created {
                    return Err(corrupt("parent not older than child"));
                }
            }
            for &child in &meta.dnext {
                if !live.contains(&child) {
                    return Err(corrupt("dnext lists a dead version"));
                }
                let c = self.version_meta(tx, child)?;
                if c.dprev != vid && c.dprev2 != vid {
                    return Err(corrupt("child does not point at parent"));
                }
            }
            prev = vid;
        }
        if !live.contains(&object.root) {
            return Err(corrupt("root is not a live version"));
        }
        let older = &history[..history.len() - 1];
        match self.chains.directory(tx, oid)? {
            Some(dir) if !older.is_empty() => self.chains.check(tx, &dir, older),
            Some(_) => Err(VersionError::ChainCorrupt(
                "single-version object has a chain",
            )),
            None if older.is_empty() => Ok(()),
            None => Err(not_in_chain()),
        }
    }
}
