//! Physical chain storage: the directory, anchor and delta-run records
//! of the segmented layout described in [`crate::chain`], and every
//! operation that reads or rewrites them.
//!
//! Records per chained object, all in the version store's heap:
//!
//! * one **directory** ([`ChainDirectory`]), reached through the
//!   oid → record table — a few dozen bytes per segment;
//! * per segment one **anchor** record (the anchor version's state,
//!   raw) that is written once and only touched again when that very
//!   version is edited or deleted;
//! * per segment one **run** record (`Vec<RunEntry>`), absent while
//!   the segment holds only its anchor. At the usual sizes it stays
//!   inline in a heap page and `Heap::replace` rewrites it in place.
//!
//! Every operation loads the directory plus the one segment it works
//! on; only whole-chain reports ([`ChainStore::stats`],
//! [`ChainStore::check`]) and object deletion visit them all.

use ode_delta::{diff_with_block, Delta};
use ode_object::{KvTable, ObjectHeap, Oid, Vid};
use ode_storage::heap::RecordId;
use ode_storage::{PageRead, PageWrite};

use crate::chain::{
    chain_corrupt, not_in_chain, position_in_run, replay, ChainConfig, ChainDirectory, ChainStats,
    RunEntry, Segment, SegmentRef,
};
use crate::records::upsert;
use crate::Result;

/// A check-in as the chain sees it.
pub(crate) struct CheckIn<'a> {
    /// The object checked into.
    pub oid: Oid,
    /// The object's own record: a new chain's directory goes beside it.
    pub home: RecordId,
    /// The outgoing latest version and its whole state: the chain's new
    /// last member.
    pub outgoing: (Vid, &'a [u8]),
}

/// Handle on the chain records of a version store.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainStore {
    table: KvTable,
    heap: ObjectHeap,
}

impl ChainStore {
    pub fn new(table: KvTable, heap: ObjectHeap) -> ChainStore {
        ChainStore { table, heap }
    }

    // ------------------------------------------------------------------
    // Record plumbing
    // ------------------------------------------------------------------

    /// An object's chain directory, if it has a chain.
    pub fn directory(&self, tx: &mut impl PageRead, oid: Oid) -> Result<Option<ChainDirectory>> {
        match self.table.get(tx, oid.0)? {
            Some(rid) => Ok(Some(self.heap.load(tx, RecordId::from_u64(rid))?)),
            None => Ok(None),
        }
    }

    /// The directory of an object that must have a chain: one with an
    /// older version than its latest.
    pub fn required_directory(&self, tx: &mut impl PageRead, oid: Oid) -> Result<ChainDirectory> {
        self.directory(tx, oid)?.ok_or_else(not_in_chain)
    }

    /// Write an object's directory; a new one goes beside `near`.
    fn save_directory(
        &self,
        tx: &mut impl PageWrite,
        oid: Oid,
        dir: &ChainDirectory,
        near: Option<RecordId>,
    ) -> Result<()> {
        upsert(&self.table, &self.heap, tx, oid.0, dir, near)?;
        Ok(())
    }

    fn anchor(&self, tx: &mut impl PageRead, seg: &SegmentRef) -> Result<Vec<u8>> {
        Ok(self.heap.load_bytes(tx, RecordId::from_u64(seg.anchor))?)
    }

    fn run(&self, tx: &mut impl PageRead, seg: &SegmentRef) -> Result<Vec<RunEntry>> {
        if seg.run == 0 {
            return Ok(Vec::new());
        }
        Ok(self.heap.load(tx, RecordId::from_u64(seg.run))?)
    }

    /// Load one segment whole.
    pub fn segment(&self, tx: &mut impl PageRead, seg: &SegmentRef) -> Result<Segment> {
        Ok(Segment {
            first: seg.first,
            anchor: self.anchor(tx, seg)?,
            run: self.run(tx, seg)?,
        })
    }

    /// Write `run` as the segment's run record (none when empty) and
    /// bring the entry's `run` id in line with it.
    // `Persist` is implemented for `Vec<T>`, not for slices.
    #[allow(clippy::ptr_arg)]
    fn save_run(
        &self,
        tx: &mut impl PageWrite,
        seg: &mut SegmentRef,
        run: &Vec<RunEntry>,
    ) -> Result<()> {
        seg.run = match (seg.run, run.is_empty()) {
            (0, true) => 0,
            (0, false) => self.heap.store(tx, run)?.to_u64(),
            (rid, true) => {
                self.heap.delete(tx, RecordId::from_u64(rid))?;
                0
            }
            (rid, false) => self
                .heap
                .replace(tx, RecordId::from_u64(rid), run)?
                .to_u64(),
        };
        Ok(())
    }

    fn save_anchor(
        &self,
        tx: &mut impl PageWrite,
        seg: &mut SegmentRef,
        state: &[u8],
    ) -> Result<()> {
        seg.anchor = self
            .heap
            .replace_raw(tx, RecordId::from_u64(seg.anchor), state)?
            .to_u64();
        Ok(())
    }

    fn free_segment(&self, tx: &mut impl PageWrite, seg: &SegmentRef) -> Result<()> {
        self.heap.delete(tx, RecordId::from_u64(seg.anchor))?;
        if seg.run != 0 {
            self.heap.delete(tx, RecordId::from_u64(seg.run))?;
        }
        Ok(())
    }

    /// Free every record of an object's chain (no-op without one).
    pub fn drop_chain(&self, tx: &mut impl PageWrite, oid: Oid) -> Result<()> {
        let Some(rid) = self.table.remove(tx, oid.0)? else {
            return Ok(());
        };
        let dir: ChainDirectory = self.heap.load(tx, RecordId::from_u64(rid))?;
        for seg in &dir.segments {
            self.free_segment(tx, seg)?;
        }
        self.heap.delete(tx, RecordId::from_u64(rid))?;
        Ok(())
    }

    /// Write `dir` back, or — when it has no segment left — drop the
    /// directory record: an object back to one version has no chain.
    fn save_or_drop(&self, tx: &mut impl PageWrite, oid: Oid, dir: &ChainDirectory) -> Result<()> {
        if !dir.segments.is_empty() {
            return self.save_directory(tx, oid, dir, None);
        }
        if let Some(rid) = self.table.remove(tx, oid.0)? {
            self.heap.delete(tx, RecordId::from_u64(rid))?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Materialize member `vid`'s state: one segment's anchor plus the
    /// deltas up to `vid` (an anchor version reads no run at all).
    pub fn state_of(
        &self,
        tx: &mut impl PageRead,
        dir: &ChainDirectory,
        vid: Vid,
    ) -> Result<Vec<u8>> {
        let seg = &dir.segments[dir.locate(vid).ok_or_else(not_in_chain)?];
        if vid == seg.first {
            return self.anchor(tx, seg);
        }
        let run = self.run(tx, seg)?;
        let i = position_in_run(&run, vid).ok_or_else(not_in_chain)?;
        replay(&self.anchor(tx, seg)?, &run[..=i])
    }

    /// Member vids with stamps in `[from, to]`, oldest first. Loads the
    /// runs of the segments the range overlaps and nothing else.
    pub fn vids_between(
        &self,
        tx: &mut impl PageRead,
        dir: &ChainDirectory,
        from: u64,
        to: u64,
    ) -> Result<Vec<Vid>> {
        let mut out = Vec::new();
        for (i, seg) in dir.segments.iter().enumerate() {
            if seg.first.0 > to {
                break;
            }
            let ends_before = dir.segments.get(i + 1).is_some_and(|n| n.first.0 <= from);
            if ends_before {
                continue;
            }
            if seg.first.0 >= from {
                out.push(seg.first);
            }
            out.extend(
                self.run(tx, seg)?
                    .iter()
                    .map(|e| e.vid)
                    .filter(|v| v.0 >= from && v.0 <= to),
            );
        }
        Ok(out)
    }

    /// The stored delta `from → to`, when the two are adjacent members
    /// of one segment.
    pub fn stored_delta(
        &self,
        tx: &mut impl PageRead,
        dir: &ChainDirectory,
        from: Vid,
        to: Vid,
    ) -> Result<Option<Delta>> {
        let Some(idx) = dir.locate(to) else {
            return Ok(None);
        };
        let seg = &dir.segments[idx];
        if to == seg.first {
            return Ok(None);
        }
        let mut run = self.run(tx, seg)?;
        let Some(i) = position_in_run(&run, to) else {
            return Ok(None);
        };
        let before = if i == 0 { seg.first } else { run[i - 1].vid };
        Ok((before == from).then(|| run.swap_remove(i).delta))
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Record a check-in: the outgoing latest version becomes the
    /// chain's last member. An object without a chain (`dir` is `None`,
    /// so it had one version) gets one built as `config` says, anchored
    /// at that version.
    ///
    /// Otherwise the open segment's run gains one delta from its last
    /// state (the anchor with the run replayed), or, when it is full, a
    /// fresh anchor record and a directory entry are added. Never
    /// touches a sealed segment, and the directory only when a record
    /// is added or moves.
    pub fn append(
        &self,
        tx: &mut impl PageWrite,
        dir: Option<ChainDirectory>,
        config: ChainConfig,
        check_in: CheckIn<'_>,
    ) -> Result<()> {
        let CheckIn {
            oid,
            home,
            outgoing: (vid, state),
        } = check_in;
        let Some(mut dir) = dir else {
            let dir = ChainDirectory {
                interval: config.anchor_interval.max(1),
                block: config.block,
                segments: vec![self.new_segment(tx, vid, state)?],
            };
            return self.save_directory(tx, oid, &dir, Some(home));
        };
        let open = dir.segments.last_mut().expect("directory never empty");
        let mut run = self.run(tx, open)?;
        if run.len() as u64 + 1 >= dir.interval {
            let sealed_by = self.new_segment(tx, vid, state)?;
            dir.segments.push(sealed_by);
        } else {
            let last = replay(&self.anchor(tx, open)?, &run)?;
            run.push(RunEntry {
                vid,
                delta: diff_with_block(&last, state, dir.block as usize),
            });
            let run_before = open.run;
            self.save_run(tx, open, &run)?;
            if open.run == run_before {
                return Ok(());
            }
        }
        self.save_directory(tx, oid, &dir, Some(home))
    }

    fn new_segment(&self, tx: &mut impl PageWrite, first: Vid, state: &[u8]) -> Result<SegmentRef> {
        Ok(SegmentRef {
            first,
            anchor: self.heap.insert_raw(tx, state)?.to_u64(),
            run: 0,
        })
    }

    /// Replace member `vid`'s stored state. Rewrites one segment's run
    /// (and its anchor when `vid` is the anchor); the directory only if
    /// a record moved.
    pub fn set_state(
        &self,
        tx: &mut impl PageWrite,
        oid: Oid,
        mut dir: ChainDirectory,
        vid: Vid,
        state: &[u8],
    ) -> Result<()> {
        let idx = dir.locate(vid).ok_or_else(not_in_chain)?;
        let before = dir.segments[idx];
        let mut seg = self.segment(tx, &before)?;
        let pos = seg.position_of(vid).ok_or_else(not_in_chain)?;
        seg.set_state_at(pos, state, dir.block as usize)?;
        let entry = &mut dir.segments[idx];
        if pos == 0 {
            self.save_anchor(tx, entry, &seg.anchor)?;
        }
        if !seg.run.is_empty() {
            self.save_run(tx, entry, &seg.run)?;
        }
        if *entry != before {
            self.save_directory(tx, oid, &dir, None)?;
        }
        Ok(())
    }

    /// Splice member `vid` out of the chain; a chain left without
    /// members is dropped altogether.
    pub fn remove(
        &self,
        tx: &mut impl PageWrite,
        oid: Oid,
        dir: ChainDirectory,
        vid: Vid,
    ) -> Result<()> {
        let idx = dir.locate(vid).ok_or_else(not_in_chain)?;
        let seg = self.segment(tx, &dir.segments[idx])?;
        let pos = seg.position_of(vid).ok_or_else(not_in_chain)?;
        self.splice(tx, oid, dir, idx, seg, pos)
    }

    /// Take the chain's last member out and return it with its state —
    /// the body its version keeps whole once it is the latest again.
    pub fn pop(
        &self,
        tx: &mut impl PageWrite,
        oid: Oid,
        dir: ChainDirectory,
    ) -> Result<(Vid, Vec<u8>)> {
        let idx = dir.segments.len() - 1;
        let seg = self.segment(tx, &dir.segments[idx])?;
        let pos = seg.len() - 1;
        let vid = seg.vids().last().expect("segment never empty");
        let state = seg.state_at(pos)?;
        self.splice(tx, oid, dir, idx, seg, pos)?;
        Ok((vid, state))
    }

    /// Remove position `pos` of segment `idx` (loaded as `seg`) and
    /// write back what changed.
    fn splice(
        &self,
        tx: &mut impl PageWrite,
        oid: Oid,
        mut dir: ChainDirectory,
        idx: usize,
        mut seg: Segment,
        pos: usize,
    ) -> Result<()> {
        if seg.remove_at(pos, dir.block as usize)? {
            let entry = &mut dir.segments[idx];
            if pos == 0 {
                entry.first = seg.first;
                self.save_anchor(tx, entry, &seg.anchor)?;
            }
            self.save_run(tx, entry, &seg.run)?;
        } else {
            self.free_segment(tx, &dir.segments[idx])?;
            dir.segments.remove(idx);
        }
        self.save_or_drop(tx, oid, &dir)
    }

    // ------------------------------------------------------------------
    // Whole-chain reports (fsck/odedump cost, not a hot path)
    // ------------------------------------------------------------------

    /// Space/shape statistics: one replay pass over every segment.
    pub fn stats(&self, tx: &mut impl PageRead, dir: &ChainDirectory) -> Result<ChainStats> {
        let directory_bytes = ode_codec::to_bytes(dir).len() as u64;
        let mut stats = ChainStats {
            versions: 0,
            segments: dir.segments.len() as u64,
            deltas: 0,
            interval: dir.interval,
            open_fill: 0,
            directory_bytes,
            encoded_bytes: directory_bytes,
            materialized_bytes: 0,
        };
        for entry in &dir.segments {
            let seg = self.segment(tx, entry)?;
            stats.versions += seg.len() as u64;
            stats.deltas += seg.run.len() as u64;
            stats.open_fill = seg.len() as u64;
            stats.encoded_bytes += seg.anchor.len() as u64;
            if !seg.run.is_empty() {
                stats.encoded_bytes += ode_codec::to_bytes(&seg.run).len() as u64;
            }
            let mut state = seg.anchor;
            stats.materialized_bytes += state.len() as u64;
            for e in &seg.run {
                state = replay(&state, std::slice::from_ref(e))?;
                stats.materialized_bytes += state.len() as u64;
            }
        }
        Ok(stats)
    }

    /// Directory ↔ segment invariants against `members`, the versions
    /// the chain must hold (the object's history minus the latest,
    /// oldest first): the members, segment by segment, are exactly
    /// those; every segment starts at the anchor its directory entry
    /// names and never runs `interval` deltas; every delta applies.
    pub fn check(
        &self,
        tx: &mut impl PageRead,
        dir: &ChainDirectory,
        members: &[Vid],
    ) -> Result<()> {
        if dir.segments.is_empty() {
            return Err(chain_corrupt("chain directory has no segments"));
        }
        let mut expected = members.iter();
        for entry in &dir.segments {
            let seg = self.segment(tx, entry)?;
            if seg.run.len() as u64 >= dir.interval.max(1) {
                return Err(chain_corrupt("anchor interval exceeded"));
            }
            for vid in seg.vids() {
                if expected.next() != Some(&vid) {
                    return Err(chain_corrupt(
                        "chain members are not the history minus the latest",
                    ));
                }
            }
            seg.state_at(seg.len() - 1)?;
        }
        if expected.next().is_some() {
            return Err(chain_corrupt(
                "chain ends before the version before the latest",
            ));
        }
        Ok(())
    }
}
