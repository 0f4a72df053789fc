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
//! run are sorted by vid. A version's creation stamp is its vid, so the
//! directory is also the chain's temporal index: one binary search over
//! first vids finds the segment holding any stamp.
//!
//! Reads never decode a run into [`RunEntry`] values. [`RunBytes`] walks
//! a run record's encoded bytes entry by entry: a vid scan steps over
//! each delta by its lengths, and [`Replay`] applies each encoded delta
//! to the state before it in two reused buffers, stopping at the member
//! it wants. A check-in appends the new entry's bytes after the old ones
//! ([`append_entry`]). Only writers that rewrite a whole segment (edit
//! or delete of a member, popping the last one) and the fsck check,
//! which holds the reader to the full decode, build a [`Segment`].

use ode_codec::{impl_persist_struct, Persist, Reader, Writer};
use ode_delta::{apply, apply_encoded, diff_with_block, skip_encoded, ApplyError, Delta};
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

/// A stored delta that does not apply: undecodable bytes are a codec
/// error like any unreadable record, the rest a corrupt chain.
fn apply_failed(e: ApplyError) -> VersionError {
    match e {
        ApplyError::Malformed(e) => e.into(),
        _ => chain_corrupt("delta chain entry failed to apply"),
    }
}

/// A run record read in place from its encoded bytes (`Vec<RunEntry>`
/// as the codec writes it: an entry count, then per entry its vid and
/// its delta). Entries come one at a time, vid first; the caller then
/// consumes the delta after it with exactly one of [`RunBytes::skip`],
/// [`RunBytes::apply`] or [`RunBytes::take`]. Empty bytes stand for a
/// segment without a run record.
pub(crate) struct RunBytes<'a> {
    r: Reader<'a>,
    left: usize,
}

impl<'a> RunBytes<'a> {
    pub fn new(run: &'a [u8]) -> Result<RunBytes<'a>> {
        let mut r = Reader::new(run);
        let left = if run.is_empty() { 0 } else { r.get_count()? };
        Ok(RunBytes { r, left })
    }

    /// Entries not read yet.
    pub fn left(&self) -> usize {
        self.left
    }

    /// The next entry's vid; its delta is next in the input.
    pub fn next_vid(&mut self) -> Result<Option<Vid>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        Ok(Some(Vid::decode(&mut self.r)?))
    }

    /// Step over the current delta, reading only its lengths.
    pub fn skip(&mut self) -> Result<()> {
        Ok(skip_encoded(&mut self.r)?)
    }

    /// Apply the current delta to `base`, into `out`.
    pub fn apply(&mut self, base: &[u8], out: &mut Vec<u8>) -> Result<()> {
        apply_encoded(base, &mut self.r, out).map_err(apply_failed)
    }

    /// Decode the current delta.
    pub fn take(&mut self) -> Result<Delta> {
        Ok(Delta::decode(&mut self.r)?)
    }

    /// The remaining entries' vids, oldest first, each delta skipped.
    /// Ends after the first error.
    pub fn vids(mut self) -> impl Iterator<Item = Result<Vid>> + 'a {
        std::iter::from_fn(move || {
            let next = self.next_vid().transpose()?;
            let vid = next.and_then(|vid| self.skip().map(|()| vid));
            if vid.is_err() {
                self.left = 0;
            }
            Some(vid)
        })
    }
}

/// A segment replayed from its anchor through its encoded run, one
/// member at a time: each step applies one encoded delta to the state
/// before it, swapping two buffers that are reused throughout.
pub(crate) struct Replay<'a> {
    run: RunBytes<'a>,
    state: Vec<u8>,
    spare: Vec<u8>,
}

impl<'a> Replay<'a> {
    /// Start at the anchor's state.
    pub fn new(anchor: Vec<u8>, run: &'a [u8]) -> Result<Replay<'a>> {
        Ok(Replay {
            run: RunBytes::new(run)?,
            state: anchor,
            spare: Vec::new(),
        })
    }

    /// Move to the next member and return its vid; [`Replay::state`] is
    /// then that member's state. `None` past the last member.
    pub fn step(&mut self) -> Result<Option<Vid>> {
        let Some(vid) = self.run.next_vid()? else {
            return Ok(None);
        };
        self.run.apply(&self.state, &mut self.spare)?;
        std::mem::swap(&mut self.state, &mut self.spare);
        Ok(Some(vid))
    }

    /// The current member's state (the anchor's before the first step).
    pub fn state(&self) -> &[u8] {
        &self.state
    }

    /// The current member's state, by value.
    pub fn into_state(self) -> Vec<u8> {
        self.state
    }
}

/// The bytes of `run` (a run record, empty for none) with `entry`
/// appended: the old entries' bytes are copied as they are and only
/// the count before them is re-encoded. The result is byte for byte
/// the encoding of the longer `Vec<RunEntry>`.
pub(crate) fn append_entry(run: &[u8], entry: &RunEntry) -> Result<Vec<u8>> {
    let old = RunBytes::new(run)?;
    let entries = &run[run.len() - old.r.remaining()..];
    let mut w = Writer::with_capacity(run.len() + 64);
    w.put_varint(old.left as u64 + 1);
    w.put_raw(entries);
    entry.encode(&mut w);
    Ok(w.into_bytes())
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
    /// Decode a segment from its two records: the anchor's state and
    /// the run record's bytes (empty for none).
    pub(crate) fn from_records(first: Vid, anchor: Vec<u8>, run: &[u8]) -> Result<Segment> {
        let run = if run.is_empty() {
            Vec::new()
        } else {
            ode_codec::from_bytes(run)?
        };
        Ok(Segment { first, anchor, run })
    }

    /// The run record's bytes (empty when the segment holds only its
    /// anchor and so has no run record).
    pub(crate) fn encoded_run(&self) -> Vec<u8> {
        if self.run.is_empty() {
            Vec::new()
        } else {
            ode_codec::to_bytes(&self.run)
        }
    }

    /// Check that the in-place reader of `run`, the bytes this segment
    /// was decoded from, sees what the decode sees: the same member
    /// vids and, applying every delta, the same state at each member.
    pub(crate) fn check_reader(&self, run: &[u8]) -> Result<()> {
        let disagree = || chain_corrupt("run reader and run decode disagree");
        let vids = RunBytes::new(run)?.vids().collect::<Result<Vec<_>>>()?;
        if !vids.into_iter().eq(self.run.iter().map(|e| e.vid)) {
            return Err(disagree());
        }
        let mut replay = Replay::new(self.anchor.clone(), run)?;
        let mut state = self.anchor.clone();
        for entry in &self.run {
            state = apply(&state, &entry.delta).map_err(apply_failed)?;
            if replay.step()? != Some(entry.vid) || replay.state() != state {
                return Err(disagree());
            }
        }
        Ok(())
    }

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
        let i = self.run.binary_search_by_key(&vid.0, |e| e.vid.0).ok()?;
        Some(i + 1)
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

/// `anchor` with `deltas` applied in order.
fn replay(anchor: &[u8], deltas: &[RunEntry]) -> Result<Vec<u8>> {
    let mut state = anchor.to_vec();
    for entry in deltas {
        state = apply(&state, &entry.delta).map_err(apply_failed)?;
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
        build_at(1, states)
    }

    /// One segment holding `states` as vids `first`, `first + 1`, ...
    fn build_at(first: u64, states: &[Vec<u8>]) -> Segment {
        Segment {
            first: Vid(first),
            anchor: states[0].clone(),
            run: states
                .windows(2)
                .enumerate()
                .map(|(i, pair)| RunEntry {
                    vid: Vid(first + i as u64 + 1),
                    delta: diff_with_block(&pair[0], &pair[1], BLOCK),
                })
                .collect(),
        }
    }

    /// Every member's state as the byte reader replays it, anchor first.
    fn byte_states(seg: &Segment, run: &[u8]) -> Vec<Vec<u8>> {
        let mut replay = Replay::new(seg.anchor.clone(), run).unwrap();
        let mut out = vec![replay.state().to_vec()];
        while replay.step().unwrap().is_some() {
            out.push(replay.state().to_vec());
        }
        out
    }

    #[test]
    fn appending_entry_bytes_equals_encoding_the_longer_run() {
        let states = evolution(20, 300);
        let seg = build(&states);
        let mut run = Vec::new();
        for n in 0..seg.run.len() {
            run = append_entry(&run, &seg.run[n]).unwrap();
            assert_eq!(run, ode_codec::to_bytes(&seg.run[..=n].to_vec()), "{n}");
        }
        assert_eq!(run, seg.encoded_run());
        seg.check_reader(&run).unwrap();
    }

    #[test]
    fn corrupt_counts_and_lengths_allocate_nothing() {
        let states = evolution(3, 400);
        let mut seg = build(&states);
        // A delta claiming a terabyte of output: refused, and the buffer
        // it was applied into reserved no more than base plus input.
        seg.run[0].delta.target_len = 1 << 40;
        let run = seg.encoded_run();
        let mut bytes = RunBytes::new(&run).unwrap();
        assert_eq!(bytes.next_vid().unwrap(), Some(Vid(2)));
        let input_left = bytes.r.remaining();
        let mut out = Vec::new();
        assert!(matches!(
            bytes.apply(&seg.anchor, &mut out),
            Err(VersionError::ChainCorrupt(_))
        ));
        assert!(out.capacity() <= seg.anchor.len() + input_left);
        // An entry count, and an op count, past the input.
        let mut w = Writer::new();
        w.put_varint(1 << 30);
        assert!(RunBytes::new(w.as_bytes()).is_err());
        let mut w = Writer::new();
        for v in [1, 2, 5, 1 << 30] {
            w.put_varint(v);
        }
        let mut bytes = RunBytes::new(w.as_bytes()).unwrap();
        bytes.next_vid().unwrap();
        assert!(matches!(
            bytes.apply(b"", &mut out),
            Err(VersionError::Storage(_))
        ));
    }

    mod byte_reader {
        use super::*;
        use proptest::prelude::*;

        /// A random evolution: a start state and edits, each replacing
        /// a span at a position with new bytes, one state per edit.
        fn random_evolution() -> impl Strategy<Value = Vec<Vec<u8>>> {
            let edit = (
                any::<u16>(),
                0usize..48,
                proptest::collection::vec(any::<u8>(), 0..48),
            );
            (
                proptest::collection::vec(any::<u8>(), 0..400),
                proptest::collection::vec(edit, 0..40),
            )
                .prop_map(|(start, edits)| {
                    let mut state = start;
                    let mut out = vec![state.clone()];
                    for (at, cut, with) in edits {
                        let at = at as usize % (state.len() + 1);
                        let end = (at + cut).min(state.len());
                        state.splice(at..end, with);
                        out.push(state.clone());
                    }
                    out
                })
        }

        /// The byte reader against an entry-by-entry decode of the same
        /// bytes: both fail at the same member, or both give the same
        /// vid and state there, and a state is always its delta's
        /// declared length.
        fn assert_reader_matches_decode(anchor: &[u8], bytes: &[u8]) {
            let Ok(mut replay) = Replay::new(anchor.to_vec(), bytes) else {
                return;
            };
            let mut r = Reader::new(bytes);
            let mut left = if bytes.is_empty() {
                0
            } else {
                r.get_count().unwrap()
            };
            let mut state = anchor.to_vec();
            loop {
                let want = (left > 0).then(|| {
                    left -= 1;
                    let entry = RunEntry::decode(&mut r).ok()?;
                    let next = apply(&state, &entry.delta).ok()?;
                    assert_eq!(next.len() as u64, entry.delta.target_len);
                    Some((entry.vid, next))
                });
                match (replay.step(), want) {
                    (Ok(None), None) => return,
                    (Err(_), Some(None)) => return,
                    (Ok(Some(vid)), Some(Some((want_vid, next)))) => {
                        assert_eq!(vid, want_vid);
                        assert_eq!(replay.state(), &next[..]);
                        state = next;
                    }
                    (got, want) => panic!("reader {got:?}, decode {want:?}"),
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            /// Cut into segments at each interval, every member the byte
            /// reader replays is the state the decoded segment gives,
            /// and its vid scan is the segment's member list.
            #[test]
            fn byte_replay_and_vid_scan_equal_the_decoded_segment(
                states in random_evolution(),
            ) {
                for interval in [1usize, 2, 4, 16] {
                    for (n, chunk) in states.chunks(interval).enumerate() {
                        let seg = build_at(1 + (n * interval) as u64, chunk);
                        let run = seg.encoded_run();
                        let want: Vec<Vec<u8>> =
                            (0..seg.len()).map(|i| seg.state_at(i).unwrap()).collect();
                        prop_assert_eq!(byte_states(&seg, &run), want);
                        let vids: Vec<Vid> = std::iter::once(seg.first)
                            .chain(RunBytes::new(&run).unwrap().vids().map(Result::unwrap))
                            .collect();
                        prop_assert_eq!(vids, seg.vids().collect::<Vec<_>>());
                        seg.check_reader(&run).unwrap();
                    }
                }
            }

            /// Hostile run bytes: every strict prefix and every byte
            /// flipped (three ways) either fails or reads exactly what
            /// decoding the same bytes reads. Nothing panics.
            #[test]
            fn truncated_and_flipped_runs_fail_or_read_as_decoded(
                states in random_evolution(),
            ) {
                let seg = build(&states[..states.len().min(6)]);
                let run = seg.encoded_run();
                for end in 0..run.len() {
                    assert_reader_matches_decode(&seg.anchor, &run[..end]);
                }
                for i in 0..run.len() {
                    for mask in [0x01, 0x80, 0xFF] {
                        let mut flipped = run.clone();
                        flipped[i] ^= mask;
                        assert_reader_matches_decode(&seg.anchor, &flipped);
                    }
                }
            }
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
