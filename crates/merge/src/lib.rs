//! # ode-merge — byte-range three-way merge
//!
//! Reconciles two divergent states of one object against their common
//! base (the version-graph LCA, computed by `ode-version`): each side
//! is aligned with the base as one chain of common runs, so a moved
//! block is a deletion plus an insertion, and the gaps are its **edit
//! hunks**; non-overlapping hunks from the two sides are interleaved,
//! and overlapping ones become structured [`MergeConflict`]s resolved
//! by a pluggable [`MergePolicy`].
//!
//! The overlap rule (documented in DESIGN.md §13): two non-empty base
//! spans conflict iff they strictly overlap (`s1 < e2 && s2 < e1`); a
//! pure insertion at `p` conflicts with the other side's span `[s, e)`
//! when it lands inside it *or touches it* (`s ≤ p ≤ e`), and with the
//! other side's insertion when both insert different bytes at the same
//! point. Identical hunks from both sides apply once. Hunks start and
//! end on bytes that differ — but an insertion next to a span the other
//! side rewrote is part of that rewrite's conflict, so a resolved merge
//! never keeps bytes from both sides there.
//!
//! A gap no anchor splits gets an exact Myers search only where an O(n)
//! lower bound on the edit distance leaves it a chance to finish.
//!
//! ```
//! use ode_merge::{merge, MergePolicy};
//!
//! let base = b"the quick brown fox jumps over the lazy dog".to_vec();
//! let ours = b"the quick RED fox jumps over the lazy dog".to_vec();
//! let theirs = b"the quick brown fox jumps over the SLEEPY dog".to_vec();
//! let out = merge(&base, &ours, &theirs, MergePolicy::Fail);
//! assert!(out.conflicts.is_empty());
//! assert_eq!(
//!     out.merged.unwrap(),
//!     b"the quick RED fox jumps over the SLEEPY dog"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ode_codec::{impl_persist_struct, DecodeError, Persist, Reader, Writer};

/// One edit against the base: replace `base[base_start..base_end]`
/// with `replacement`. `base_start == base_end` is a pure insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hunk {
    /// First base byte the edit covers.
    pub base_start: u64,
    /// One past the last base byte the edit covers.
    pub base_end: u64,
    /// Bytes that take the span's place.
    pub replacement: Vec<u8>,
}

impl Hunk {
    fn is_insertion(&self) -> bool {
        self.base_start == self.base_end
    }
}

/// What to do when the two sides edited overlapping byte ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Report the conflicts and produce no merged state.
    #[default]
    Fail = 0,
    /// Take the first side's bytes for every conflicted range (the
    /// conflicts are still reported).
    Ours = 1,
    /// Take the second side's bytes for every conflicted range (the
    /// conflicts are still reported).
    Theirs = 2,
}

/// One raw byte, the variant's number; any other byte is refused.
impl Persist for MergePolicy {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(MergePolicy::Fail),
            1 => Ok(MergePolicy::Ours),
            2 => Ok(MergePolicy::Theirs),
            b => Err(DecodeError::InvalidDiscriminant {
                type_name: "MergePolicy",
                discriminant: b.into(),
            }),
        }
    }
}

impl MergePolicy {
    /// Lower-case policy name (`fail` / `ours` / `theirs`).
    pub fn name(self) -> &'static str {
        match self {
            MergePolicy::Fail => "fail",
            MergePolicy::Ours => "ours",
            MergePolicy::Theirs => "theirs",
        }
    }

    /// Parse [`MergePolicy::name`].
    pub fn from_name(s: &str) -> Option<MergePolicy> {
        match s {
            "fail" => Some(MergePolicy::Fail),
            "ours" => Some(MergePolicy::Ours),
            "theirs" => Some(MergePolicy::Theirs),
            _ => None,
        }
    }
}

/// One conflicted base range: both sides edited `[base_start,
/// base_end)` and want different bytes there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeConflict {
    /// First base byte of the conflicted range.
    pub base_start: u64,
    /// One past the last base byte of the conflicted range.
    pub base_end: u64,
    /// Bytes the first side wants in the range.
    pub ours: Vec<u8>,
    /// Bytes the second side wants in the range.
    pub theirs: Vec<u8>,
}

impl_persist_struct!(MergeConflict {
    base_start,
    base_end,
    ours,
    theirs,
});

/// Result of a three-way merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The reconciled state. `None` iff there were conflicts and the
    /// policy was [`MergePolicy::Fail`].
    pub merged: Option<Vec<u8>>,
    /// Every conflicted range, in base order — reported even when the
    /// policy resolved them.
    pub conflicts: Vec<MergeConflict>,
}

// ----------------------------------------------------------------------
// Alignment → hunks
// ----------------------------------------------------------------------

/// The edit hunks turning `base` into `target`, in base order.
///
/// Hunks are the gaps of one monotone alignment: a chain of maximal
/// common runs that cross in neither input, chosen to match the most
/// bytes (DESIGN.md §13). A block that moved is a deletion plus an
/// insertion, so every hunk sits where its edit happened — in a merge,
/// a hunk's position is what it means. Applying the hunks in order
/// reconstructs the target byte for byte.
pub fn hunks(base: &[u8], target: &[u8]) -> Vec<Hunk> {
    let mut out = Vec::new();
    align(base, target, 0, 0, &mut out);
    out
}

/// Anchor length: one `u64`.
const GRAM: usize = 8;

/// Nesting past which a gap is not searched for anchors again.
const MAX_DEPTH: u32 = 8;

/// Effort bound for the exact search in a gap no anchor splits: gaps
/// needing more edit steps than this stay one hunk (they are one dense
/// edit anyway).
const REFINE_MAX_D: usize = 256;

/// Shortest surviving-byte run that counts as a split point between
/// two edits. Anything shorter is treated as part of one dense edit:
/// byte-level minimal scripts otherwise align on accidental one-byte
/// coincidences and shred a rewrite into nonsense fragments.
const REFINE_MIN_SPLIT: u64 = 3;

/// Push the hunks turning `a`, which starts at base offset `at`, into
/// `b`: strip the common ends, chain the runs through the anchors of
/// what is left and align each gap between them again. A region with
/// no anchor is one gap for the bounded exact search.
fn align(a: &[u8], b: &[u8], at: usize, depth: u32, out: &mut Vec<Hunk>) {
    let prefix = common_prefix(a, b);
    let (a, b, at) = (&a[prefix..], &b[prefix..], at + prefix);
    let suffix = common_suffix(a, b);
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    let chain = heaviest_chain(runs(a, b, depth));
    if chain.is_empty() {
        // No anchor: the exact minimal edit script where the bounded
        // search can finish, else one hunk.
        let exact = !a.is_empty()
            && !b.is_empty()
            && !distance_exceeds(a, b, REFINE_MAX_D)
            && !grams_exceed(a, b, REFINE_MAX_D)
            && myers_hunks(a, b, REFINE_MAX_D, at, out);
        if !exact && a.len() + b.len() > 0 {
            out.push(Hunk {
                base_start: at as u64,
                base_end: (at + a.len()) as u64,
                replacement: b.to_vec(),
            });
        }
        return;
    }
    let (mut x, mut y) = (0, 0);
    for r in chain {
        align(&a[x..r.a], &b[y..r.b], at + x, depth + 1, out);
        (x, y) = (r.a + r.len, r.b + r.len);
    }
    align(&a[x..], &b[y..], at + x, depth + 1, out);
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

/// A common run: `a[a..a + len] == b[b..b + len]`.
#[derive(Clone, Copy)]
struct Run {
    a: usize,
    b: usize,
    len: usize,
}

/// Whether the sampler keeps an 8-gram: the top three bits of its
/// Fibonacci hash are zero, one gram in eight on unstructured bytes.
/// The choice depends on the gram alone, so every occurrence of a kept
/// gram is kept, and uniqueness among kept grams is exact.
fn kept(gram: u64) -> bool {
    gram.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 == 0
}

/// The maximal common runs through the anchors: kept grams that occur
/// once in `a` and once in `b`. Each run is extended once; an anchor
/// inside a run on its own diagonal adds nothing. None at `MAX_DEPTH`.
fn runs(a: &[u8], b: &[u8], depth: u32) -> Vec<Run> {
    if depth == MAX_DEPTH {
        return Vec::new();
    }
    // Kept grams of both sides, sorted (never hashed, so no body makes
    // this worse than O(n log n)): an anchor is a group of two, one
    // from each side.
    let grams = |s: &[u8], side| {
        let gram = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("a window is one gram"));
        let kept_at = |(i, g)| kept(g).then_some((g, side, i));
        s.windows(GRAM)
            .map(gram)
            .enumerate()
            .filter_map(kept_at)
            .collect::<Vec<_>>()
    };
    let mut all = [grams(a, 0), grams(b, 1)].concat();
    all.sort_unstable();
    let mut anchors: Vec<(usize, usize)> = all
        .chunk_by(|p, q| p.0 == q.0)
        .filter_map(|g| match g {
            [(_, 0, i), (_, 1, j)] => Some((*i, *j)),
            _ => None,
        })
        .collect();
    // By diagonal, then along it: the last run pushed is the one an
    // anchor may already lie in.
    anchors.sort_unstable_by_key(|&(i, j)| (i + b.len() - j, i));
    let mut runs: Vec<Run> = Vec::new();
    for (i, j) in anchors {
        if matches!(runs.last(), Some(r) if r.a + j == i + r.b && i < r.a + r.len) {
            continue;
        }
        let back = common_suffix(&a[..i], &b[..j]);
        let len = back + common_prefix(&a[i..], &b[j..]);
        runs.push(Run {
            a: i - back,
            b: j - back,
            len,
        });
    }
    runs
}

/// The chain of runs with the most matched bytes, in order: each run
/// starts at or after the previous one's end in both inputs.
///
/// Runs are visited by their start in `a`. Once the sweep passes a
/// run's end in `a`, the run is offered to later ones through a
/// Fenwick tree over ends in `b` that keeps the heaviest chain ending
/// at or before each; a run extends the heaviest chain ending at or
/// before its start in `b`. O(r log r) for r runs.
fn heaviest_chain(mut runs: Vec<Run>) -> Vec<Run> {
    runs.sort_unstable_by_key(|r| (r.a, r.b));
    let mut ends: Vec<usize> = runs.iter().map(|r| r.b + r.len).collect();
    ends.sort_unstable();
    ends.dedup();
    let mut by_end: Vec<usize> = (0..runs.len()).collect();
    by_end.sort_unstable_by_key(|&k| runs[k].a + runs[k].len);
    let mut offers = by_end.into_iter().peekable();
    // (matched bytes, last run) of the heaviest chain: per run, the one
    // it ends; per tree node, the best over the ends the node covers.
    let mut best: Vec<(usize, Option<usize>)> = Vec::with_capacity(runs.len());
    let mut tree = vec![(0, None); ends.len() + 1];
    for r in &runs {
        while let Some(p) = offers.next_if(|&p| runs[p].a + runs[p].len <= r.a) {
            let mut i = ends.partition_point(|&e| e < runs[p].b + runs[p].len) + 1;
            while i < tree.len() {
                if best[p].0 > tree[i].0 {
                    tree[i] = (best[p].0, Some(p));
                }
                i += i & i.wrapping_neg();
            }
        }
        let (mut i, mut prev) = (ends.partition_point(|&e| e <= r.b), (0, None));
        while i > 0 {
            if tree[i].0 > prev.0 {
                prev = tree[i];
            }
            i &= i - 1;
        }
        best.push((prev.0 + r.len, prev.1));
    }
    let last = (0..runs.len()).max_by_key(|&k| best[k].0);
    let mut chain: Vec<Run> = std::iter::successors(last, |&k| best[k].1)
        .map(|k| runs[k])
        .collect();
    chain.reverse();
    chain
}

/// Whether the insert/delete distance `D = n + m - 2·LCS` between `a`
/// and `b` provably exceeds `max_d`: the LCS keeps at most
/// `min(cnt_a[c], cnt_b[c])` copies of each byte value `c`, so
/// `D ≥ n + m - 2·Σ_c min(cnt_a[c], cnt_b[c])`. O(n + m).
fn distance_exceeds(a: &[u8], b: &[u8], max_d: usize) -> bool {
    let (mut ca, mut cb) = ([0usize; 256], [0usize; 256]);
    a.iter().for_each(|&x| ca[x as usize] += 1);
    b.iter().for_each(|&x| cb[x as usize] += 1);
    let common: usize = ca.iter().zip(&cb).map(|(x, y)| x.min(y)).sum();
    a.len() + b.len() - 2 * common > max_d
}

/// Whether `D` provably exceeds `max_d` by the 4-byte windows `a` and
/// `b` share, for pairs whose byte counts match (a slice rewritten in
/// the alphabet it had before). Every window of `a` that avoids the
/// deleted bytes and the gaps where bytes were inserted is a window of
/// `b` too, and one insert or delete spoils at most four windows; so
/// with `common` the size of the two window multisets' intersection,
/// `common ≥ n − 3 − 4·D`, and the same for `m`. The windows are
/// sorted and walked, not hashed, so no input can make this worse than
/// O((n + m) log(n + m)).
fn grams_exceed(a: &[u8], b: &[u8], max_d: usize) -> bool {
    let longest = a.len().max(b.len());
    if longest <= 3 + 4 * max_d {
        return false;
    }
    let windows = |s: &[u8]| {
        let mut w: Vec<u32> = s
            .windows(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
            .collect();
        w.sort_unstable();
        w
    };
    let (wa, wb) = (windows(a), windows(b));
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < wa.len() && j < wb.len() {
        match wa[i].cmp(&wb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    longest - 3 - common > 4 * max_d
}

/// Myers O(ND) minimal edit script between `a` and `b`, grouped into
/// hunks over `a`, which starts at base offset `at`, and pushed onto
/// `out`. False, with nothing pushed, when more than `max_d` edit steps
/// would be needed.
fn myers_hunks(a: &[u8], b: &[u8], max_d: usize, at: usize, out: &mut Vec<Hunk>) -> bool {
    let n = a.len() as isize;
    let m = b.len() as isize;
    let max_d = max_d.min((n + m) as usize) as isize;
    let offset = max_d;
    let width = (2 * max_d + 1) as usize;
    let mut v = vec![0isize; width];
    // `v` over diagonals -d..=d before each step d, one step after the
    // other: the backtrack reads no other entries.
    let mut trace: Vec<isize> = Vec::new();
    let mut found_d = None;
    'search: for d in 0..=max_d {
        trace.extend_from_slice(&v[(offset - d) as usize..=(offset + d) as usize]);
        let mut k = -d;
        while k <= d {
            let idx = (k + offset) as usize;
            let mut x = if k == -d || (k != d && v[idx - 1] < v[idx + 1]) {
                v[idx + 1]
            } else {
                v[idx - 1] + 1
            };
            let mut y = x - k;
            while x < n && y < m && a[x as usize] == b[y as usize] {
                x += 1;
                y += 1;
            }
            v[idx] = x;
            if x >= n && y >= m {
                found_d = Some(d);
                break 'search;
            }
            k += 2;
        }
    }
    let Some(mut d) = found_d else { return false };
    // Backtrack, collecting single-byte edits (descending positions).
    let (mut x, mut y) = (n, m);
    let mut dels: Vec<(isize, isize)> = Vec::new(); // (a_pos, b_pos)
    let mut inss: Vec<(isize, isize)> = Vec::new();
    while d > 0 {
        // Step d's slice starts after steps 0..d, d² entries.
        let vd = &trace[(d * d) as usize..];
        let k = x - y;
        let idx = (k + d) as usize;
        let go_down = k == -d || (k != d && vd[idx - 1] < vd[idx + 1]);
        let prev_k = if go_down { k + 1 } else { k - 1 };
        let prev_x = vd[(prev_k + d) as usize];
        let prev_y = prev_x - prev_k;
        if go_down {
            inss.push((prev_x, prev_y)); // b[prev_y] inserted at a-pos prev_x
        } else {
            dels.push((prev_x, prev_y)); // a[prev_x] deleted
        }
        x = prev_x;
        y = prev_y;
        d -= 1;
    }
    // Merge the two edit streams ascending and group contiguous runs
    // into (a-range, b-range) groups.
    dels.reverse();
    inss.reverse();
    let mut groups: Vec<(isize, isize, isize, isize)> = Vec::new(); // (as, ae, bs, be)
    let (mut di, mut ii) = (0usize, 0usize);
    while di < dels.len() || ii < inss.len() {
        // Deletions and insertions interleave in (a_pos, b_pos) order.
        let take_del = match (dels.get(di), inss.get(ii)) {
            (Some(&d0), Some(&i0)) => d0 <= i0,
            (Some(_), None) => true,
            _ => false,
        };
        let (a_pos, b_pos) = if take_del { dels[di] } else { inss[ii] };
        match groups.last_mut() {
            Some(g) if g.1 == a_pos && g.3 == b_pos => {}
            _ => groups.push((a_pos, a_pos, b_pos, b_pos)),
        }
        let g = groups.last_mut().expect("just pushed");
        if take_del {
            g.1 += 1;
            di += 1;
        } else {
            g.3 += 1;
            ii += 1;
        }
    }
    // Accidental short matches between random content are alignment
    // noise, not surviving bytes: coalesce groups whose separating
    // matched run is shorter than REFINE_MIN_SPLIT.
    let mut coalesced: Vec<(isize, isize, isize, isize)> = Vec::new();
    for g in groups {
        match coalesced.last_mut() {
            Some(prev) if (g.0 - prev.1) < REFINE_MIN_SPLIT as isize => {
                prev.1 = g.1;
                prev.3 = g.3;
            }
            _ => coalesced.push(g),
        }
    }
    out.extend(coalesced.into_iter().map(|(a_s, a_e, b_s, b_e)| Hunk {
        base_start: (at + a_s as usize) as u64,
        base_end: (at + a_e as usize) as u64,
        replacement: b[b_s as usize..b_e as usize].to_vec(),
    }));
    true
}

/// Apply base-ordered, non-overlapping hunks to the base.
pub fn apply_hunks(base: &[u8], hunks: &[Hunk]) -> Vec<u8> {
    let mut out = Vec::with_capacity(base.len());
    let mut cur = 0usize;
    for h in hunks {
        out.extend_from_slice(&base[cur..h.base_start as usize]);
        out.extend_from_slice(&h.replacement);
        cur = h.base_end as usize;
    }
    out.extend_from_slice(&base[cur..]);
    out
}

// ----------------------------------------------------------------------
// Three-way merge
// ----------------------------------------------------------------------

/// Whether two hunks (one from each side) edit overlapping bytes.
/// Identical hunks never conflict — both sides made the same edit.
fn conflicting(x: &Hunk, y: &Hunk) -> bool {
    if x == y {
        return false;
    }
    match (x.is_insertion(), y.is_insertion()) {
        // Differing insertions conflict only at the same point.
        (true, true) => x.base_start == y.base_start,
        // An insertion conflicts when inside the other span or at
        // either of its ends: placed beside a rewrite, its bytes would
        // survive whichever side the conflict resolves to.
        (true, false) => y.base_start <= x.base_start && x.base_start <= y.base_end,
        (false, true) => x.base_start <= y.base_start && y.base_start <= x.base_end,
        // Non-empty spans conflict iff they strictly overlap.
        (false, false) => x.base_start < y.base_end && y.base_start < x.base_end,
    }
}

/// Whether a hunk belongs to a conflict cluster spanning `[cs, ce)`.
fn joins_cluster(h: &Hunk, cs: u64, ce: u64) -> bool {
    if h.is_insertion() {
        // An insertion joins when inside the cluster or at either end.
        cs <= h.base_start && h.base_start <= ce
    } else {
        h.base_start < ce && cs < h.base_end
    }
}

/// A side's proposed bytes for the cluster range `[cs, ce)`: the base
/// with that side's cluster hunks applied, restricted to the range.
fn side_bytes(base: &[u8], hunks: &[&Hunk], cs: u64, ce: u64) -> Vec<u8> {
    let mut out = Vec::new();
    let mut cur = cs as usize;
    for h in hunks {
        out.extend_from_slice(&base[cur..h.base_start as usize]);
        out.extend_from_slice(&h.replacement);
        cur = h.base_end as usize;
    }
    out.extend_from_slice(&base[cur..ce as usize]);
    out
}

/// Three-way merge of two hunk lists against a shared base.
///
/// Returns the merged hunk list (conflicted clusters resolved per
/// policy; empty under [`MergePolicy::Fail`] with conflicts) plus the
/// conflict report.
pub fn merge_hunks(
    base: &[u8],
    ours: &[Hunk],
    theirs: &[Hunk],
    policy: MergePolicy,
) -> (Vec<Hunk>, Vec<MergeConflict>) {
    let mut merged: Vec<Hunk> = Vec::new();
    let mut conflicts: Vec<MergeConflict> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < ours.len() && j < theirs.len() {
        let (ha, hb) = (&ours[i], &theirs[j]);
        if ha == hb {
            // Both sides made the same edit: apply once.
            merged.push(ha.clone());
            i += 1;
            j += 1;
            continue;
        }
        if !conflicting(ha, hb) {
            let a_first = (ha.base_start, ha.base_end) <= (hb.base_start, hb.base_end);
            if a_first {
                merged.push(ha.clone());
                i += 1;
            } else {
                merged.push(hb.clone());
                j += 1;
            }
            continue;
        }
        // Conflict: grow the cluster until neither side's next hunk
        // touches its range (a wide edit can chain several of the
        // other side's hunks into one cluster).
        let mut cs = ha.base_start.min(hb.base_start);
        let mut ce = ha.base_end.max(hb.base_end);
        let mut ca: Vec<&Hunk> = vec![ha];
        let mut cb: Vec<&Hunk> = vec![hb];
        i += 1;
        j += 1;
        loop {
            if i < ours.len() && joins_cluster(&ours[i], cs, ce) {
                cs = cs.min(ours[i].base_start);
                ce = ce.max(ours[i].base_end);
                ca.push(&ours[i]);
                i += 1;
                continue;
            }
            if j < theirs.len() && joins_cluster(&theirs[j], cs, ce) {
                cs = cs.min(theirs[j].base_start);
                ce = ce.max(theirs[j].base_end);
                cb.push(&theirs[j]);
                j += 1;
                continue;
            }
            break;
        }
        let ours_bytes = side_bytes(base, &ca, cs, ce);
        let theirs_bytes = side_bytes(base, &cb, cs, ce);
        let resolved = match policy {
            MergePolicy::Fail => None,
            MergePolicy::Ours => Some(ours_bytes.clone()),
            MergePolicy::Theirs => Some(theirs_bytes.clone()),
        };
        conflicts.push(MergeConflict {
            base_start: cs,
            base_end: ce,
            ours: ours_bytes,
            theirs: theirs_bytes,
        });
        if let Some(replacement) = resolved {
            merged.push(Hunk {
                base_start: cs,
                base_end: ce,
                replacement,
            });
        }
    }
    merged.extend(ours[i..].iter().cloned());
    merged.extend(theirs[j..].iter().cloned());
    if policy == MergePolicy::Fail && !conflicts.is_empty() {
        return (Vec::new(), conflicts);
    }
    (merged, conflicts)
}

/// Three-way merge: reconcile `ours` and `theirs` against their common
/// `base`. Non-overlapping edits combine; overlapping ones are
/// reported as [`MergeConflict`]s and resolved per `policy`
/// ([`MergePolicy::Fail`] produces no merged state).
pub fn merge(base: &[u8], ours: &[u8], theirs: &[u8], policy: MergePolicy) -> MergeOutcome {
    // Trivial reconciliations first: unchanged sides and identical
    // edits need no hunk work.
    if ours == theirs {
        return MergeOutcome {
            merged: Some(ours.to_vec()),
            conflicts: Vec::new(),
        };
    }
    if ours == base {
        return MergeOutcome {
            merged: Some(theirs.to_vec()),
            conflicts: Vec::new(),
        };
    }
    if theirs == base {
        return MergeOutcome {
            merged: Some(ours.to_vec()),
            conflicts: Vec::new(),
        };
    }
    let ha = hunks(base, ours);
    let hb = hunks(base, theirs);
    let (merged, conflicts) = merge_hunks(base, &ha, &hb, policy);
    let merged = if policy == MergePolicy::Fail && !conflicts.is_empty() {
        None
    } else {
        Some(apply_hunks(base, &merged))
    };
    MergeOutcome { merged, conflicts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn hunks_round_trip_the_diff() {
        let base = b"the quick brown fox jumps over the lazy dog".repeat(20);
        let mut target = base.clone();
        target[40] = b'X';
        target.splice(200..230, b"replaced!".iter().copied());
        target.extend_from_slice(b"tail");
        let hs = hunks(&base, &target);
        assert_eq!(apply_hunks(&base, &hs), target);
        // Hunks are sorted and non-overlapping.
        for w in hs.windows(2) {
            assert!(w[0].base_end <= w[1].base_start);
        }
    }

    #[test]
    fn hunks_are_byte_precise() {
        let base: Vec<u8> = (0..2000).map(|i| (i % 251) as u8).collect();
        let mut target = base.clone();
        target[1000] ^= 0xFF;
        let hs = hunks(&base, &target);
        assert_eq!(hs.len(), 1);
        assert_eq!((hs[0].base_start, hs[0].base_end), (1000, 1001));
    }

    #[test]
    fn disjoint_edits_merge_cleanly() {
        let base: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let mut ours = base.clone();
        ours[100] = 0xAA;
        ours.splice(900..910, [0xBB; 4]);
        let mut theirs = base.clone();
        theirs[2000] = 0xCC;
        theirs.extend_from_slice(&[0xDD; 8]);
        let out = merge(&base, &ours, &theirs, MergePolicy::Fail);
        assert!(out.conflicts.is_empty());
        // Oracle: both edit scripts applied to the base in base
        // coordinates.
        let mut expect = Vec::new();
        expect.extend_from_slice(&base[..100]);
        expect.push(0xAA);
        expect.extend_from_slice(&base[101..900]);
        expect.extend_from_slice(&[0xBB; 4]);
        expect.extend_from_slice(&base[910..2000]);
        expect.push(0xCC);
        expect.extend_from_slice(&base[2001..]);
        expect.extend_from_slice(&[0xDD; 8]);
        assert_eq!(out.merged.unwrap(), expect);
    }

    #[test]
    fn overlapping_edits_conflict_with_exact_ranges() {
        let base: Vec<u8> = (0..2048).map(|i| (i % 251) as u8).collect();
        let mut ours = base.clone();
        for b in &mut ours[500..520] {
            *b = 0xAA;
        }
        let mut theirs = base.clone();
        for b in &mut theirs[510..530] {
            *b = 0xBB;
        }
        let out = merge(&base, &ours, &theirs, MergePolicy::Fail);
        assert!(out.merged.is_none());
        assert_eq!(out.conflicts.len(), 1);
        let c = &out.conflicts[0];
        assert_eq!((c.base_start, c.base_end), (500, 530));
        assert_eq!(&c.ours[..20], &[0xAA; 20]);
        assert_eq!(&c.theirs[10..], &[0xBB; 20]);
    }

    #[test]
    fn policies_resolve_but_still_report() {
        let base = b"conflict target zone".repeat(10);
        let mut ours = base.clone();
        ours[5..15].copy_from_slice(b"OURS-BYTES");
        let mut theirs = base.clone();
        theirs[10..20].copy_from_slice(b"THEIRBYTES");
        for (policy, winner) in [(MergePolicy::Ours, &ours), (MergePolicy::Theirs, &theirs)] {
            let out = merge(&base, &ours, &theirs, policy);
            assert_eq!(out.conflicts.len(), 1);
            assert_eq!(out.merged.as_ref().unwrap(), winner);
        }
    }

    #[test]
    fn an_insertion_touching_a_rewritten_span_joins_the_conflict() {
        // Ours rewrites base[10..20) as one hunk; theirs rewrites the
        // same bytes so that a 3-byte match splits its edit into a span
        // plus an insertion at one end of ours' span: at 20 ("789XYZ"
        // keeps "789"), or at 10 ("XYZ012" keeps "012").
        let base = b"..........0123456789..........";
        let ours = b"..........QQQQQQQQQQ..........";
        for theirs in [
            &b"..........abcdefg789XYZ.........."[..],
            &b"..........XYZ012abcdefg.........."[..],
        ] {
            let side = String::from_utf8_lossy(theirs);
            for (policy, winner) in [
                (MergePolicy::Ours, &ours[..]),
                (MergePolicy::Theirs, theirs),
            ] {
                let out = merge(base, ours, theirs, policy);
                assert_eq!(out.conflicts.len(), 1, "{side} under {policy:?}");
                assert_eq!(
                    String::from_utf8_lossy(out.merged.as_deref().unwrap()),
                    String::from_utf8_lossy(winner),
                    "{side} under {policy:?}"
                );
            }
        }
    }

    #[test]
    fn identical_edits_apply_once() {
        let base = b"shared shared shared shared shared!".repeat(8);
        let mut both = base.clone();
        both[17] = b'#';
        let out = merge(&base, &both, &both, MergePolicy::Fail);
        assert!(out.conflicts.is_empty());
        assert_eq!(out.merged.unwrap(), both);
    }

    #[test]
    fn unchanged_side_yields_the_other() {
        let base = b"some document body".repeat(16);
        let mut edited = base.clone();
        edited.splice(0..0, b"prefix ".iter().copied());
        let out = merge(&base, &base.clone(), &edited, MergePolicy::Fail);
        assert_eq!(out.merged.unwrap(), edited);
        let out = merge(&base, &edited, &base.clone(), MergePolicy::Fail);
        assert_eq!(out.merged.unwrap(), edited);
    }

    #[test]
    fn co_located_insertions_conflict() {
        let base = b"left|right".repeat(12);
        let mut ours = base.clone();
        ours.splice(24..24, b"AAAA".iter().copied());
        let mut theirs = base.clone();
        theirs.splice(24..24, b"BBBB".iter().copied());
        let out = merge(&base, &ours, &theirs, MergePolicy::Fail);
        assert!(out.merged.is_none());
        assert_eq!(out.conflicts.len(), 1);
        assert_eq!(out.conflicts[0].base_start, out.conflicts[0].base_end);
    }

    #[test]
    fn empty_base_both_sides_insert() {
        let out = merge(b"", b"alpha", b"beta", MergePolicy::Fail);
        assert!(out.merged.is_none());
        assert_eq!(out.conflicts.len(), 1);
        let out = merge(b"", b"alpha", b"alpha", MergePolicy::Fail);
        assert_eq!(out.merged.unwrap(), b"alpha");
        let out = merge(b"", b"", b"beta", MergePolicy::Theirs);
        assert_eq!(out.merged.unwrap(), b"beta");
    }

    #[test]
    fn wide_delete_vs_point_edits_clusters() {
        let base: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        // Ours deletes a wide range; theirs makes two point edits
        // inside it — one cluster, one conflict.
        let mut ours = base.clone();
        ours.drain(1000..2000);
        let mut theirs = base.clone();
        theirs[1200] ^= 0x55;
        theirs[1800] ^= 0x55;
        let out = merge(&base, &ours, &theirs, MergePolicy::Fail);
        assert!(out.merged.is_none());
        assert_eq!(out.conflicts.len(), 1);
        let c = &out.conflicts[0];
        assert!(c.base_start <= 1000 && c.base_end >= 2000);
        assert!(c.ours.is_empty());
    }

    #[test]
    fn policy_codec_round_trips() {
        for (byte, p) in [MergePolicy::Fail, MergePolicy::Ours, MergePolicy::Theirs]
            .into_iter()
            .enumerate()
        {
            assert_eq!(ode_codec::to_bytes(&p), [byte as u8]);
            assert_eq!(ode_codec::from_bytes::<MergePolicy>(&[byte as u8]), Ok(p));
            assert_eq!(MergePolicy::from_name(p.name()), Some(p));
        }
        // Unknown bytes, and a varint-shaped `80 00`, are refused.
        assert!(ode_codec::from_bytes::<MergePolicy>(&[3]).is_err());
        assert!(ode_codec::from_bytes::<MergePolicy>(&[0x80, 0]).is_err());
        assert_eq!(MergePolicy::from_name("merge"), None);
    }

    #[test]
    fn conflict_record_round_trips_codec() {
        let c = MergeConflict {
            base_start: 10,
            base_end: 20,
            ours: vec![1, 2, 3],
            theirs: vec![],
        };
        let bytes = ode_codec::to_bytes(&c);
        assert_eq!(ode_codec::from_bytes::<MergeConflict>(&bytes).unwrap(), c);
    }

    /// Insert/delete distance by a Myers search with no step bound.
    fn edit_distance(a: &[u8], b: &[u8]) -> usize {
        let (n, m) = (a.len() as isize, b.len() as isize);
        let offset = n + m;
        let mut v = vec![0isize; (2 * offset + 2) as usize];
        for d in 0..=offset {
            for k in (-d..=d).step_by(2) {
                let idx = (k + offset) as usize;
                let mut x = if k == -d || (k != d && v[idx - 1] < v[idx + 1]) {
                    v[idx + 1]
                } else {
                    v[idx - 1] + 1
                };
                let mut y = x - k;
                while x < n && y < m && a[x as usize] == b[y as usize] {
                    x += 1;
                    y += 1;
                }
                v[idx] = x;
                if x >= n && y >= m {
                    return d as usize;
                }
            }
        }
        unreachable!("the distance is at most n + m")
    }

    /// Seeded random texts for the refinement tests.
    struct Stream(StdRng);

    impl Stream {
        fn new(seed: u64) -> Stream {
            Stream(StdRng::seed_from_u64(seed))
        }

        fn next(&mut self, below: usize) -> usize {
            self.0.random_range(0..below)
        }

        /// `len` symbols `first..first + alphabet`.
        fn text(&mut self, len: usize, first: u8, alphabet: usize) -> Vec<u8> {
            (0..len)
                .map(|_| first + self.next(alphabet) as u8)
                .collect()
        }

        /// Space-separated words from a 55-word vocabulary, `len` bytes.
        fn words(&mut self, len: usize) -> Vec<u8> {
            const VOCABULARY: &str = "the of and to in is that it for as was with be by on \
                not he this are or his from at which but have an they you were her she there \
                been one all we their has would when if so no what can more out other \
                about up said them some time";
            let vocabulary: Vec<&str> = VOCABULARY.split_whitespace().collect();
            assert_eq!(vocabulary.len(), 55);
            let mut out = Vec::with_capacity(len + 8);
            while out.len() < len {
                out.extend_from_slice(vocabulary[self.next(vocabulary.len())].as_bytes());
                out.push(b' ');
            }
            out.truncate(len);
            out
        }

        /// `a` after `edits` random one-byte deletions and insertions
        /// drawn from `first..first + alphabet`.
        fn mutate(&mut self, a: &[u8], edits: usize, first: u8, alphabet: usize) -> Vec<u8> {
            let mut b = a.to_vec();
            for _ in 0..edits {
                if !b.is_empty() && self.next(2) == 0 {
                    b.remove(self.next(b.len()));
                } else {
                    let at = self.next(b.len() + 1);
                    b.insert(at, first + self.next(alphabet) as u8);
                }
            }
            b
        }
    }

    #[test]
    fn a_refused_search_could_not_have_finished() {
        let mut s = Stream::new(0x5EED_0001);
        let mut refused = [0usize; 8];
        // Refusals the byte bound let through and the gram bound made.
        let mut by_grams_alone = [0usize; 8];
        let mut check = |family: usize, a: &[u8], b: &[u8]| {
            let by_bytes = distance_exceeds(a, b, REFINE_MAX_D);
            let by_grams = grams_exceed(a, b, REFINE_MAX_D);
            if by_bytes || by_grams {
                refused[family] += 1;
                by_grams_alone[family] += usize::from(!by_bytes);
                let d = edit_distance(a, b);
                assert!(
                    d > REFINE_MAX_D,
                    "a bound (bytes {by_bytes}, grams {by_grams}) refused a pair {} / {} \
                     bytes apart by {d} edits",
                    a.len(),
                    b.len()
                );
            }
        };
        for alphabet in [2, 4, 32, 60] {
            for _ in 0..6 {
                let (n, m) = (1 + s.next(1500), 1 + s.next(1500));
                let (a, b) = (s.text(n, b'!', alphabet), s.text(m, b'!', alphabet));
                check(0, &a, &b);
                // Related pairs, 150 to 450 edits apart, inserting bytes
                // from outside the alphabet: the bound reads about the
                // edit count, on either side of the limit.
                let (n, edits) = (1000 + s.next(500), 150 + s.next(300));
                let a = s.text(n, b'!', alphabet);
                let b = s.mutate(&a, edits, b'!' + alphabet as u8, 32);
                check(1, &a, &b);
            }
        }
        for _ in 0..4 {
            let (n, m) = (1 + s.next(1500), 1 + s.next(1500));
            check(2, &s.text(n, b'A', 32), &s.text(m, b'a', 32));
            let (n, m, edits) = (1 + s.next(1500), 1 + s.next(1500), 150 + s.next(250));
            let (a, b) = (s.words(n), s.words(m));
            check(3, &a, &b);
            let b = s.mutate(&a, edits, b'a', 26);
            check(3, &a, &b);
        }
        // Pairs where the bound reads D exactly, near the limit.
        let a = s.text(1500, 0, 256);
        for k in [200, 250, 256, 257, 300] {
            check(4, &a, &spaced_deletions(&a, k));
        }
        // Same-alphabet rewrites, the slices that cycle back to an
        // alphabet: unrelated texts whose byte counts nearly match, over
        // 32-symbol alphabets and 55-word text (whose shared words keep
        // many windows common, so neither bound refuses it often).
        for _ in 0..6 {
            let (n, m) = (1100 + s.next(400), 1100 + s.next(400));
            check(5, &s.text(n, b'!', 32), &s.text(m, b'!', 32));
            check(6, &s.words(n), &s.words(m));
        }
        // Related same-alphabet pairs, 300 to 1 300 one-byte edits
        // apart. Scattered edits share windows, so the gram bound reads
        // well under D here and refuses only the heavily edited pairs.
        for _ in 0..8 {
            let (n, edits) = (1100 + s.next(400), 300 + s.next(1000));
            let a = s.text(n, b'!', 32);
            let b = s.mutate(&a, edits, b'!', 32);
            check(7, &a, &b);
        }
        assert!(
            refused.iter().all(|&r| r > 0),
            "some family never refused: {refused:?}"
        );
        assert!(
            by_grams_alone[5] > 0 && by_grams_alone[7] > 0,
            "the gram bound refused no same-alphabet pair on its own: {by_grams_alone:?}"
        );
    }

    /// A 256 KiB pair built against the sampler: every 8-gram of the
    /// base is kept, and the target differs in one byte in twelve, so
    /// the common runs are 11 bytes and every one of them anchors.
    #[test]
    fn a_pair_built_against_the_sampler_aligns_every_run() {
        const LEN: usize = 256 << 10;
        const PERIOD: usize = 12;
        let mut s = Stream::new(0x5EED_0003);
        let kept_end = |t: &[u8]| {
            t.len() < GRAM || kept(u64::from_le_bytes(t[t.len() - GRAM..].try_into().unwrap()))
        };
        // Each byte is the first from a random start that keeps the gram
        // it ends: the new byte is the gram's top byte, so 32 of the 256
        // do.
        let mut base = Vec::with_capacity(LEN);
        while base.len() < LEN {
            let from = s.next(256);
            base.push(from as u8);
            while !kept_end(&base) {
                *base.last_mut().unwrap() = base.last().unwrap().wrapping_add(1);
            }
        }
        assert!(base.windows(GRAM).all(kept_end));
        let mut target = base.clone();
        for x in target.iter_mut().step_by(PERIOD) {
            *x ^= 1 + s.next(255) as u8;
        }
        let hs = hunks(&base, &target);
        assert_eq!(apply_hunks(&base, &hs), target);
        assert_eq!(hs.len(), LEN.div_ceil(PERIOD));
        for (n, h) in hs.iter().enumerate() {
            assert_eq!(
                (h.base_start, h.base_end),
                ((n * PERIOD) as u64, (n * PERIOD + 1) as u64)
            );
        }
    }

    /// `a` less `k` bytes `a.len() / k` apart: `b` is a subsequence of
    /// `a`, so D is exactly `k`, and so is the byte bound.
    fn spaced_deletions(a: &[u8], k: usize) -> Vec<u8> {
        let stride = a.len() / k;
        a.iter()
            .enumerate()
            .filter(|&(i, _)| i % stride != 0 || i / stride >= k)
            .map(|(_, &x)| x)
            .collect()
    }

    #[test]
    fn the_byte_bound_is_exact_on_deletions_and_spares_close_pairs() {
        let mut s = Stream::new(0x5EED_0002);
        let a = s.text(1500, 0, 256);
        for k in [REFINE_MAX_D, REFINE_MAX_D + 1] {
            let b = spaced_deletions(&a, k);
            assert_eq!(edit_distance(&a, &b), k);
            assert_eq!(distance_exceeds(&a, &b, REFINE_MAX_D), k > REFINE_MAX_D);
        }
        // Disjoint alphabets: no byte in common.
        let (a, b) = (s.text(300, b'A', 16), s.text(300, b'a', 16));
        assert!(distance_exceeds(&a, &b, REFINE_MAX_D));
        // A close pair is never refused.
        let a = s.text(1360, b'!', 32);
        let b = s.mutate(&a, 100, b'!', 32);
        assert!(!distance_exceeds(&a, &b, REFINE_MAX_D));
    }
}
