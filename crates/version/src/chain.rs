//! Delta-chain body storage: the logical model and its in-memory
//! segment arithmetic.
//!
//! The paper's §2 observation — versions can be stored as *differences*
//! along the derived-from relationship — is how every version body is
//! stored, under one invariant: **a version's state is kept in exactly
//! one place.**
//!
//! * the **latest** version keeps its body whole in its
//!   [`VersionMeta`](crate::VersionMeta), so `latest()` reads and edits
//!   of the latest never touch the chain;
//! * every **older** version lives only in the object's *chain*, its
//!   meta body empty. The chain's members are the object's temporal
//!   history minus the latest, oldest first; a single-version object
//!   has no chain at all;
//! * the chain is cut into **segments**: each starts with an *anchor*
//!   (a full snapshot) followed by a *run* of forward deltas, and holds
//!   at most `interval` versions, so materializing **any** version
//!   applies at most `interval - 1` deltas and reads one segment.
//!
//! Physically (see `segments.rs`) a chain is a small per-object
//! [`ChainDirectory`] record plus, per segment, one anchor record and
//! one delta-run record.  Only the last segment is *open*: a check-in
//! appends the outgoing latest version to its run as one delta, or —
//! when it is full — seals it and starts the next with a fresh anchor.
//! Sealed segments are never read or rewritten by a check-in, and the
//! directory only when a segment is added, which is what makes a
//! check-in cost what the edit costs and not what the object's history
//! costs.
//!
//! Version ids are allocated monotonically and members are appended in
//! allocation order, so segments (by first vid) and the entries of a
//! run are sorted by vid and membership is a binary search.

use ode_codec::impl_persist_struct;
use ode_delta::{apply, diff_with_block, Delta};
use ode_object::Vid;

use crate::{Result, VersionError};

/// The shape new chains are built with: their anchor spacing.
///
/// Every store chains; the config only sets the interval a chain is
/// created with (at its object's second version), and new chains diff
/// with `ode_delta::DEFAULT_BLOCK`. An existing chain keeps the
/// interval and block recorded in its directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Maximum spacing between anchors: any version materializes in at
    /// most `anchor_interval - 1` delta applications. Default 8; minimum
    /// 1 (every version its own anchor, i.e. a whole copy).
    pub anchor_interval: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig { anchor_interval: 8 }
    }
}

impl ChainConfig {
    /// A config with the given anchor interval.
    pub fn with_interval(anchor_interval: u64) -> ChainConfig {
        ChainConfig {
            anchor_interval: anchor_interval.max(1),
        }
    }
}

/// One segment's entry in a [`ChainDirectory`]: where its vid range
/// starts and where its two records live. How many versions the
/// segment holds is the run's business, so that a check-in appending
/// to the open run leaves the directory untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef {
    /// The segment's anchor version (its oldest member).
    pub first: Vid,
    /// Packed id of the anchor record (the anchor version's state,
    /// raw).
    pub anchor: u64,
    /// Packed id of the delta-run record; 0 while the segment holds
    /// only its anchor.
    pub run: u64,
}

impl_persist_struct!(SegmentRef { first, anchor, run });

/// The per-object chain directory record: chain parameters plus one
/// [`SegmentRef`] per segment, in temporal order. The last segment is
/// the open one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainDirectory {
    /// Anchor spacing this chain was built with.
    pub interval: u64,
    /// Diff block size.
    pub block: u64,
    /// Segments in temporal order (first vids ascending), never empty.
    pub segments: Vec<SegmentRef>,
}

impl_persist_struct!(ChainDirectory {
    interval,
    block,
    segments
});

impl ChainDirectory {
    /// Index of the segment whose vid range covers `vid`, if the chain
    /// reaches back that far. Deleted vids inside the range resolve to
    /// a segment too; membership is settled by the segment itself.
    pub fn locate(&self, vid: Vid) -> Option<usize> {
        self.segments
            .partition_point(|s| s.first.0 <= vid.0)
            .checked_sub(1)
    }
}

/// One delta of a segment's run: the version it reconstructs and the
/// forward delta from the previous member's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEntry {
    /// The version this entry stores.
    pub vid: Vid,
    /// Forward delta from the previous segment member's state.
    pub delta: Delta,
}

impl_persist_struct!(RunEntry { vid, delta });

pub(crate) fn chain_corrupt(msg: &'static str) -> VersionError {
    VersionError::ChainCorrupt(msg)
}

/// A version that is not the latest is not where the invariant puts it.
pub(crate) fn not_in_chain() -> VersionError {
    chain_corrupt("historical version missing from its object's chain")
}

/// A segment loaded whole: the anchor's state and the delta run.
/// Position 0 is the anchor, position `i > 0` is `run[i - 1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The anchor version.
    pub first: Vid,
    /// The anchor version's state.
    pub anchor: Vec<u8>,
    /// Forward deltas, vids ascending.
    pub run: Vec<RunEntry>,
}

impl Segment {
    /// Versions stored in the segment.
    pub fn len(&self) -> usize {
        1 + self.run.len()
    }

    /// Always false: a segment holds at least its anchor.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The member vids in temporal order.
    pub fn vids(&self) -> impl Iterator<Item = Vid> + '_ {
        std::iter::once(self.first).chain(self.run.iter().map(|e| e.vid))
    }

    /// Position of `vid` in the segment, if stored here.
    pub fn position_of(&self, vid: Vid) -> Option<usize> {
        if vid == self.first {
            return Some(0);
        }
        position_in_run(&self.run, vid).map(|i| i + 1)
    }

    /// Materialize the state at `pos`: the anchor with the first `pos`
    /// deltas applied (≤ `interval - 1` by construction).
    pub fn state_at(&self, pos: usize) -> Result<Vec<u8>> {
        replay(&self.anchor, &self.run[..pos])
    }

    /// Replace the state at `pos` with `state`, re-diffing its own
    /// delta and its successor's, which was based on the old state.
    /// Members further away are unaffected: the successor is re-based
    /// onto the new state and everything after it chains from there
    /// unchanged. (The next segment starts at an anchor, so nothing
    /// outside this segment ever needs re-basing.)
    pub fn set_state_at(&mut self, pos: usize, state: &[u8], block: usize) -> Result<()> {
        // The successor must be replayed before `pos` changes.
        let rebased_next = if pos < self.run.len() {
            let next_state = self.state_at(pos + 1)?;
            Some(diff_with_block(state, &next_state, block))
        } else {
            None
        };
        if pos == 0 {
            self.anchor = state.to_vec();
        } else {
            let prev = self.state_at(pos - 1)?;
            self.run[pos - 1].delta = diff_with_block(&prev, state, block);
        }
        if let Some(delta) = rebased_next {
            self.run[pos].delta = delta;
        }
        Ok(())
    }

    /// Remove the member at `pos`, repairing the neighborhood: a
    /// successor delta is re-based onto the previous surviving state,
    /// and a successor losing its anchor is promoted to the anchor
    /// itself (runs only ever shrink, so the `interval - 1` bound
    /// survives any delete sequence). Returns `false` when the segment
    /// held only that member and is now gone.
    pub fn remove_at(&mut self, pos: usize, block: usize) -> Result<bool> {
        if pos == 0 {
            if self.run.is_empty() {
                return Ok(false);
            }
            self.anchor = self.state_at(1)?;
            self.first = self.run.remove(0).vid;
            return Ok(true);
        }
        if pos < self.run.len() {
            let prev = self.state_at(pos - 1)?;
            let next_state = self.state_at(pos + 1)?;
            self.run[pos].delta = diff_with_block(&prev, &next_state, block);
        }
        self.run.remove(pos - 1);
        Ok(true)
    }
}

/// Index of `vid`'s entry in a run.
pub(crate) fn position_in_run(run: &[RunEntry], vid: Vid) -> Option<usize> {
    run.binary_search_by_key(&vid.0, |e| e.vid.0).ok()
}

/// `anchor` with `deltas` applied in order.
pub(crate) fn replay(anchor: &[u8], deltas: &[RunEntry]) -> Result<Vec<u8>> {
    let mut state = anchor.to_vec();
    for entry in deltas {
        state = apply(&state, &entry.delta)
            .map_err(|_| chain_corrupt("delta chain entry failed to apply"))?;
    }
    Ok(state)
}

/// Space and shape statistics for one object's chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStats {
    /// Versions stored in the chain.
    pub versions: u64,
    /// Segments, sealed and open — one anchor (full snapshot) each.
    pub segments: u64,
    /// Delta entries across all runs.
    pub deltas: u64,
    /// Anchor spacing the chain was built with.
    pub interval: u64,
    /// Versions in the open (last) segment; it seals at `interval`.
    pub open_fill: u64,
    /// Encoded size of the directory record in bytes.
    pub directory_bytes: u64,
    /// Encoded size of the directory plus every anchor and run record
    /// (what the heap actually stores for the chain), in bytes.
    pub encoded_bytes: u64,
    /// Sum of every stored version's materialized state length — what
    /// one whole copy per version would hold for the same versions.
    pub materialized_bytes: u64,
}

impl ChainStats {
    /// Chain bytes as a fraction of whole-copy bytes (lower is better;
    /// 1.0 when the chain stores nothing smaller than full copies).
    pub fn compression_ratio(&self) -> f64 {
        if self.materialized_bytes == 0 {
            1.0
        } else {
            self.encoded_bytes as f64 / self.materialized_bytes as f64
        }
    }
}

/// Summary of the difference between two versions' states — the wire-
/// and CLI-facing result of `diff v_a..v_b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionDiff {
    /// Base version.
    pub from: Vid,
    /// Target version.
    pub to: Vid,
    /// Length of the target state in bytes.
    pub to_len: u64,
    /// Number of copy/insert instructions.
    pub ops: u64,
    /// Bytes of literal (inserted) data — the part that does not dedupe
    /// against the base.
    pub literal_bytes: u64,
    /// Encoded size of the delta in bytes.
    pub encoded_bytes: u64,
    /// `true` when the delta came straight off the stored chain
    /// (adjacent versions) with no state materialized at all.
    pub stored: bool,
}

impl_persist_struct!(VersionDiff {
    from,
    to,
    to_len,
    ops,
    literal_bytes,
    encoded_bytes,
    stored,
});

impl VersionDiff {
    /// Build a summary from a computed (or stored) delta.
    pub fn from_delta(from: Vid, to: Vid, delta: &Delta, stored: bool) -> VersionDiff {
        VersionDiff {
            from,
            to,
            to_len: delta.target_len,
            ops: delta.ops.len() as u64,
            literal_bytes: delta.literal_bytes() as u64,
            encoded_bytes: delta.encoded_size() as u64,
            stored,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: usize = ode_delta::DEFAULT_BLOCK;

    fn evolution(n: usize, size: usize) -> Vec<Vec<u8>> {
        let mut state: Vec<u8> = (0..size).map(|i| (i % 249) as u8).collect();
        let mut out = vec![state.clone()];
        for step in 1..n {
            let idx = (step * 113) % size;
            state[idx] = state[idx].wrapping_add(step as u8);
            out.push(state.clone());
        }
        out
    }

    /// One segment holding `states` as vids 1..=n.
    fn build(states: &[Vec<u8>]) -> Segment {
        Segment {
            first: Vid(1),
            anchor: states[0].clone(),
            run: states
                .windows(2)
                .enumerate()
                .map(|(i, pair)| RunEntry {
                    vid: Vid(i as u64 + 2),
                    delta: diff_with_block(&pair[0], &pair[1], BLOCK),
                })
                .collect(),
        }
    }

    #[test]
    fn every_member_materializes() {
        let states = evolution(9, 900);
        let seg = build(&states);
        assert_eq!(seg.len(), 9);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(&seg.state_at(i).unwrap(), s, "v{i}");
            assert_eq!(seg.position_of(Vid(i as u64 + 1)), Some(i));
        }
        assert_eq!(seg.position_of(Vid(10)), None);
        assert_eq!(seg.vids().count(), 9);
    }

    #[test]
    fn single_version_chains() {
        // A segment of one (every chain's first, every seal's new one)
        // is its anchor and no run.
        let seg = build(&[b"solo".to_vec()]);
        assert_eq!(seg.len(), 1);
        assert!(seg.run.is_empty());
        assert_eq!(seg.state_at(0).unwrap(), b"solo");
        assert_eq!(seg.vids().collect::<Vec<_>>(), vec![Vid(1)]);
    }

    #[test]
    fn chains_beat_full_copies_on_space() {
        // Twenty point-edited versions of a 4 000-byte object: the
        // anchor plus the encoded run take under a quarter of twenty
        // whole copies.
        let states = evolution(20, 4000);
        let seg = build(&states);
        let stored = seg.anchor.len() + ode_codec::to_bytes(&seg.run).len();
        let full: usize = states.iter().map(Vec::len).sum();
        assert!(stored < full / 4, "segment {stored} vs whole copies {full}");
    }

    #[test]
    fn chains_round_trip_codec() {
        // A run record decodes to the same entries, which still replay
        // every member from the anchor.
        let states = evolution(5, 500);
        let seg = build(&states);
        let run: Vec<RunEntry> = ode_codec::from_bytes(&ode_codec::to_bytes(&seg.run)).unwrap();
        assert_eq!(run, seg.run);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(&replay(&seg.anchor, &run[..i]).unwrap(), s, "v{i}");
        }
    }

    #[test]
    fn set_state_preserves_neighbors() {
        let states = evolution(10, 700);
        for victim in 0..10usize {
            let mut seg = build(&states);
            let mut edited = states[victim].clone();
            edited[3] ^= 0x5A;
            edited.extend_from_slice(b"tail");
            seg.set_state_at(victim, &edited, BLOCK).unwrap();
            for (i, s) in states.iter().enumerate() {
                let want = if i == victim { &edited } else { s };
                assert_eq!(&seg.state_at(i).unwrap(), want, "victim {victim} v{i}");
            }
        }
    }

    #[test]
    fn remove_repairs_every_position() {
        let states = evolution(12, 500);
        for victim in 0..12usize {
            let mut seg = build(&states);
            assert!(seg.remove_at(victim, BLOCK).unwrap());
            assert_eq!(seg.len(), 11);
            let survivors = (0..12).filter(|&i| i != victim);
            for (pos, orig) in survivors.enumerate() {
                assert_eq!(seg.state_at(pos).unwrap(), states[orig], "victim {victim}");
                assert_eq!(seg.position_of(Vid(orig as u64 + 1)), Some(pos));
            }
            assert_eq!(seg.position_of(Vid(victim as u64 + 1)), None);
        }
    }

    #[test]
    fn removing_the_sole_member_empties_the_segment() {
        let states = evolution(2, 100);
        let mut seg = build(&states);
        assert!(seg.remove_at(0, BLOCK).unwrap());
        assert_eq!(seg.first, Vid(2));
        assert_eq!(seg.anchor, states[1]);
        assert!(!seg.remove_at(0, BLOCK).unwrap());
    }

    #[test]
    fn directory_locates_segments_by_first_vid() {
        let seg = |first: u64| SegmentRef {
            first: Vid(first),
            anchor: 1 << 16,
            run: 2 << 16,
        };
        let dir = ChainDirectory {
            interval: 4,
            block: 32,
            segments: vec![seg(5), seg(9), seg(20)],
        };
        assert_eq!(dir.locate(Vid(4)), None);
        assert_eq!(dir.locate(Vid(5)), Some(0));
        assert_eq!(dir.locate(Vid(8)), Some(0));
        assert_eq!(dir.locate(Vid(9)), Some(1));
        assert_eq!(dir.locate(Vid(99)), Some(2));
        let back: ChainDirectory = ode_codec::from_bytes(&ode_codec::to_bytes(&dir)).unwrap();
        assert_eq!(back, dir);
    }

    #[test]
    fn version_diff_round_trips() {
        let d = ode_delta::diff(b"hello world", b"hello brave world");
        let vd = VersionDiff::from_delta(Vid(3), Vid(7), &d, true);
        let back: VersionDiff = ode_codec::from_bytes(&ode_codec::to_bytes(&vd)).unwrap();
        assert_eq!(back, vd);
        assert!(back.stored);
        assert_eq!(back.to_len, 17);
    }
}
