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
//! [`ChainStore::check`]) and object deletion visit them all. Reads and
//! check-ins work on the run record's bytes ([`RunBytes`], [`Replay`]);
//! a whole [`Segment`] is decoded only by the writers that rewrite one
//! ([`ChainStore::set_state`], [`ChainStore::remove`],
//! [`ChainStore::pop`]), by [`ChainStore::check`], and for callers that
//! inspect a segment ([`ChainStore::segment`]).

use ode_delta::{diff_with_block, Delta, DEFAULT_BLOCK};
use ode_object::{KvTable, ObjectHeap, Oid, Vid};
use ode_storage::heap::RecordId;
use ode_storage::{PageRead, PageWrite};

use crate::chain::{
    append_entry, chain_corrupt, not_in_chain, ChainConfig, ChainDirectory, ChainStats, Replay,
    RunBytes, RunEntry, Segment, SegmentRef,
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

    /// The run record's bytes, undecoded; empty when the segment has
    /// no run record.
    fn run_bytes(&self, tx: &mut impl PageRead, seg: &SegmentRef) -> Result<Vec<u8>> {
        if seg.run == 0 {
            return Ok(Vec::new());
        }
        Ok(self.heap.load_bytes(tx, RecordId::from_u64(seg.run))?)
    }

    /// Load one segment whole.
    pub fn segment(&self, tx: &mut impl PageRead, seg: &SegmentRef) -> Result<Segment> {
        let run = self.run_bytes(tx, seg)?;
        Segment::from_records(seg.first, self.anchor(tx, seg)?, &run)
    }

    /// Write `run` as the segment's run record (none when empty) and
    /// bring the entry's `run` id in line with it.
    fn save_run(&self, tx: &mut impl PageWrite, seg: &mut SegmentRef, run: &[u8]) -> Result<()> {
        seg.run = match (seg.run, run.is_empty()) {
            (0, true) => 0,
            (0, false) => self.heap.insert_raw(tx, run)?.to_u64(),
            (rid, true) => {
                self.heap.delete(tx, RecordId::from_u64(rid))?;
                0
            }
            (rid, false) => self
                .heap
                .replace_raw(tx, RecordId::from_u64(rid), run)?
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

    /// Materialize member `vid`'s state: one segment's anchor with the
    /// run's encoded deltas applied in turn up to `vid` (an anchor
    /// version reads no run at all).
    pub fn state_of(
        &self,
        tx: &mut impl PageRead,
        dir: &ChainDirectory,
        vid: Vid,
    ) -> Result<Vec<u8>> {
        let seg = &dir.segments[dir.locate(vid).ok_or_else(not_in_chain)?];
        let anchor = self.anchor(tx, seg)?;
        if vid == seg.first {
            return Ok(anchor);
        }
        let run = self.run_bytes(tx, seg)?;
        let mut replay = Replay::new(anchor, &run)?;
        while let Some(member) = replay.step()? {
            if member == vid {
                return Ok(replay.into_state());
            }
        }
        Err(not_in_chain())
    }

    /// The greatest member with a stamp at or before `stamp`, if any:
    /// one directory search, then a vid scan of that segment's run.
    pub fn member_as_of(
        &self,
        tx: &mut impl PageRead,
        dir: &ChainDirectory,
        stamp: u64,
    ) -> Result<Option<Vid>> {
        let Some(idx) = dir.locate(Vid(stamp)) else {
            return Ok(None);
        };
        let seg = &dir.segments[idx];
        let run = self.run_bytes(tx, seg)?;
        let mut found = seg.first;
        for vid in RunBytes::new(&run)?.vids() {
            let vid = vid?;
            if vid.0 > stamp {
                break;
            }
            found = vid;
        }
        Ok(Some(found))
    }

    /// Member vids with stamps in `[from, to]`, oldest first. Scans the
    /// vids of the runs of the segments the range overlaps and reads
    /// nothing else.
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
            let run = self.run_bytes(tx, seg)?;
            for vid in RunBytes::new(&run)?.vids() {
                let vid = vid?;
                if vid.0 > to {
                    break;
                }
                if vid.0 >= from {
                    out.push(vid);
                }
            }
        }
        Ok(out)
    }

    /// The stored delta `from → to`, when the two are adjacent members
    /// of one segment. Decodes that one delta and steps over the rest.
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
        let bytes = self.run_bytes(tx, seg)?;
        let mut run = RunBytes::new(&bytes)?;
        let mut before = seg.first;
        while let Some(vid) = run.next_vid()? {
            if vid == to {
                return (before == from).then(|| run.take()).transpose();
            }
            if vid.0 > to.0 {
                break;
            }
            run.skip()?;
            before = vid;
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Record a check-in: the outgoing latest version becomes the
    /// chain's last member. An object without a chain (`dir` is `None`,
    /// so it had one version) gets one at `config`'s interval, anchored
    /// at that version.
    ///
    /// Otherwise the open segment's run gains one delta from its last
    /// state (the anchor with the run's encoded deltas applied), written
    /// after the old entries' bytes, or, when it is full, a fresh anchor
    /// record and a directory entry are added. Never touches a sealed
    /// segment, and the directory only when a record is added or moves.
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
                block: DEFAULT_BLOCK as u64,
                segments: vec![self.new_segment(tx, vid, state)?],
            };
            return self.save_directory(tx, oid, &dir, Some(home));
        };
        let open = dir.segments.last_mut().expect("directory never empty");
        let run = self.run_bytes(tx, open)?;
        if RunBytes::new(&run)?.left() as u64 + 1 >= dir.interval {
            let sealed_by = self.new_segment(tx, vid, state)?;
            dir.segments.push(sealed_by);
        } else {
            let mut replay = Replay::new(self.anchor(tx, open)?, &run)?;
            while replay.step()?.is_some() {}
            let entry = RunEntry {
                vid,
                delta: diff_with_block(replay.state(), state, dir.block as usize),
            };
            let run_before = open.run;
            self.save_run(tx, open, &append_entry(&run, &entry)?)?;
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
            self.save_run(tx, entry, &seg.encoded_run())?;
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
            self.save_run(tx, entry, &seg.encoded_run())?;
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
            let anchor = self.anchor(tx, entry)?;
            let run = self.run_bytes(tx, entry)?;
            stats.encoded_bytes += (anchor.len() + run.len()) as u64;
            let mut replay = Replay::new(anchor, &run)?;
            let mut members = 1;
            stats.materialized_bytes += replay.state().len() as u64;
            while replay.step()?.is_some() {
                members += 1;
                stats.materialized_bytes += replay.state().len() as u64;
            }
            stats.versions += members;
            stats.deltas += members - 1;
            stats.open_fill = members;
        }
        Ok(stats)
    }

    /// Directory ↔ segment invariants against `members`, the versions
    /// the chain must hold (the object's history minus the latest,
    /// oldest first): the members, segment by segment, are exactly
    /// those; every segment starts at the anchor its directory entry
    /// names and never runs `interval` deltas; every delta applies; and
    /// the byte reader that serves reads sees the same vids and states
    /// in every run as the full decode.
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
            let run = self.run_bytes(tx, entry)?;
            let seg = Segment::from_records(entry.first, self.anchor(tx, entry)?, &run)?;
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
            seg.check_reader(&run)?;
        }
        if expected.next().is_some() {
            return Err(chain_corrupt(
                "chain ends before the version before the latest",
            ));
        }
        Ok(())
    }
}
