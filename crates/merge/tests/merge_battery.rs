//! Differential merge battery: random fork/edit histories against an
//! oracle. Non-overlapping edit scripts must always merge cleanly and
//! byte-match the oracle (both scripts applied to the base);
//! overlapping scripts must always surface a `MergeConflict` naming
//! the hunk ranges — never silent corruption.

use ode_merge::{merge, MergeConflict, MergePolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted edit in base coordinates: replace `[s, e)` with `repl`.
#[derive(Clone)]
struct Edit {
    s: usize,
    e: usize,
    repl: Vec<u8>,
}

/// Apply base-ordered, disjoint edits to the base — the oracle.
fn apply_edits(base: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut cur = 0usize;
    for ed in edits {
        out.extend_from_slice(&base[cur..ed.s]);
        out.extend_from_slice(&ed.repl);
        cur = ed.e;
    }
    out.extend_from_slice(&base[cur..]);
    out
}

fn random_body(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut b = vec![0u8; len];
    rng.fill_bytes(&mut b);
    b
}

/// Disjoint windows over `[0, len)`, each separated by at least one
/// untouched byte.
fn windows(rng: &mut StdRng, len: usize, n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let stride = (len / (n + 1)).max(8);
    let mut cursor = 0usize;
    for _ in 0..n {
        let gap = rng.random_range(1..stride / 2);
        let width = rng.random_range(1..stride / 2);
        if cursor + gap + width >= len {
            break;
        }
        out.push((cursor + gap, cursor + gap + width));
        cursor += gap + width;
    }
    out
}

/// A random edit inside a window: replacement, deletion, or insertion.
fn edit_in(rng: &mut StdRng, (s, e): (usize, usize)) -> Edit {
    match rng.random_range(0..3u32) {
        0 => {
            // Replace the window with random bytes of random length.
            let mut repl = vec![0u8; rng.random_range(0..(e - s) * 2 + 1)];
            rng.fill_bytes(&mut repl);
            Edit { s, e, repl }
        }
        1 => Edit {
            s,
            e,
            repl: Vec::new(), // deletion
        },
        _ => {
            // Pure insertion strictly inside the window.
            let p = rng.random_range(s..e + 1);
            let mut repl = vec![0u8; rng.random_range(1..24)];
            rng.fill_bytes(&mut repl);
            Edit { s: p, e: p, repl }
        }
    }
}

#[test]
fn disjoint_random_edits_always_merge_to_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..200 {
        let len = rng.random_range(256..4096usize);
        let base = random_body(&mut rng, len);
        let n = rng.random_range(2..10);
        let wins = windows(&mut rng, len, n);
        if wins.len() < 2 {
            continue;
        }
        // Alternate windows between the two sides, so neither side's
        // edits touch the other's bytes.
        let mut ours_edits = Vec::new();
        let mut theirs_edits = Vec::new();
        for (i, &w) in wins.iter().enumerate() {
            let ed = edit_in(&mut rng, w);
            if i % 2 == 0 {
                ours_edits.push(ed);
            } else {
                theirs_edits.push(ed);
            }
        }
        let ours = apply_edits(&base, &ours_edits);
        let theirs = apply_edits(&base, &theirs_edits);
        // Oracle: both scripts interleaved in base order.
        let mut all = [ours_edits.as_slice(), theirs_edits.as_slice()].concat();
        all.sort_by_key(|e| (e.s, e.e));
        let oracle = apply_edits(&base, &all);

        let out = merge(&base, &ours, &theirs, MergePolicy::Fail);
        assert!(
            out.conflicts.is_empty(),
            "case {case}: disjoint edits reported conflicts: {:?}",
            out.conflicts
                .iter()
                .map(|c| (c.base_start, c.base_end))
                .collect::<Vec<_>>()
        );
        assert_eq!(out.merged.unwrap(), oracle, "case {case}: merge != oracle");
    }
}

#[test]
fn overlapping_random_edits_always_conflict_and_never_corrupt() {
    let mut rng = StdRng::seed_from_u64(0xBADC0DE);
    for case in 0..200 {
        let len = rng.random_range(256..4096usize);
        let base = random_body(&mut rng, len);
        // One guaranteed overlap: both sides rewrite ranges sharing at
        // least one byte, with bytes that differ from the base and
        // from each other at every position.
        let s1 = rng.random_range(0..len - 32);
        let e1 = s1 + rng.random_range(8..32);
        let s2 = rng.random_range(s1..e1); // starts inside [s1, e1)
        let e2 = s2 + rng.random_range(8..32.min(len - s2));
        let mut ours = base.clone();
        for b in &mut ours[s1..e1] {
            *b ^= 0x55;
        }
        let mut theirs = base.clone();
        for b in &mut theirs[s2..e2.min(len)] {
            *b ^= 0xAA;
        }

        let out = merge(&base, &ours, &theirs, MergePolicy::Fail);
        assert!(
            !out.conflicts.is_empty(),
            "case {case}: overlap [{s1},{e1})x[{s2},{e2}) went undetected"
        );
        // Fail policy: no merged state, ever — no silent corruption.
        assert!(out.merged.is_none(), "case {case}: Fail produced a body");
        // The reported ranges name the overlap.
        let overlap_s = s2 as u64;
        let overlap_e = (e1.min(e2).min(len)) as u64;
        assert!(
            out.conflicts
                .iter()
                .any(|c| c.base_start <= overlap_s && c.base_end >= overlap_e),
            "case {case}: no conflict covers the overlap [{overlap_s}, {overlap_e})"
        );
        // Resolution policies still produce a state and keep reporting.
        for (policy, winner) in [(MergePolicy::Ours, &ours), (MergePolicy::Theirs, &theirs)] {
            let resolved = merge(&base, &ours, &theirs, policy);
            assert_eq!(resolved.conflicts.len(), out.conflicts.len());
            let merged = resolved.merged.expect("policy resolves");
            // Within the conflicted range the winner's bytes prevail.
            let c = &resolved.conflicts[0];
            let take = if policy == MergePolicy::Ours {
                &c.ours
            } else {
                &c.theirs
            };
            let at = merged
                .windows(take.len().max(1))
                .position(|w| w == &take[..]);
            assert!(
                take.is_empty() || at.is_some(),
                "case {case}: winner bytes missing from resolution"
            );
            let _ = winner;
        }
    }
}

#[test]
fn mixed_histories_either_merge_exactly_or_conflict() {
    // Random windows for both sides *without* the disjointness
    // guarantee: whatever happens must be one of the two contracted
    // outcomes — a clean merge equal to some interleaving, or a
    // reported conflict with no body under Fail.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut conflicted = 0usize;
    let mut clean = 0usize;
    for _ in 0..200 {
        let len = rng.random_range(256..2048usize);
        let base = random_body(&mut rng, len);
        let mut sides = Vec::new();
        for _ in 0..2 {
            let n = rng.random_range(1..6);
            let wins = windows(&mut rng, len, n);
            let edits: Vec<Edit> = wins.iter().map(|&w| edit_in(&mut rng, w)).collect();
            sides.push(apply_edits(&base, &edits));
        }
        let out = merge(&base, &sides[0], &sides[1], MergePolicy::Fail);
        match out.merged {
            Some(_) => {
                clean += 1;
                assert!(out.conflicts.is_empty());
            }
            None => {
                conflicted += 1;
                assert!(!out.conflicts.is_empty());
                for c in &out.conflicts {
                    assert!(c.base_start <= c.base_end);
                    assert!(c.base_end <= len as u64);
                }
            }
        }
    }
    // Both outcomes must actually occur over 200 random histories.
    assert!(clean > 0, "no clean merges in the mixed battery");
    assert!(conflicted > 0, "no conflicts in the mixed battery");
}

/// `route_collab`'s document: three 1 360-byte slices (one per client,
/// then the one both share) with 8-byte separators, 4 096 bytes.
const SLICE: usize = 1360;
const SEPARATOR: &[u8; 8] = b"\n\n\n\n\n\n\n\n";
const SHARED: usize = 2;

fn slice_range(slice: usize) -> std::ops::Range<usize> {
    let start = slice * (SLICE + SEPARATOR.len());
    start..start + SLICE
}

#[derive(Clone, Copy, Debug)]
enum Content {
    DisjointAlphabets,
    SharedAlphabet,
    WordText,
}

/// A slice's text as `writer` (0 the base, 1 ours, 2 theirs) writes it.
/// Texts of two writers share no 3-byte substring and differ in their
/// first and last bytes. A rewrite then diffs as one hunk over the whole
/// slice: the block diffs need a 4-byte match, and refinement coalesces
/// edits that fewer than 3 kept bytes separate.
fn slice_text(content: Content, writer: u8, rng: &mut StdRng) -> Vec<u8> {
    match content {
        // One 32-symbol alphabet per writer, as in `route_collab`.
        Content::DisjointAlphabets => (0..SLICE)
            .map(|_| b' ' + 32 * writer + rng.random_range(0..32u8))
            .collect(),
        // A walk over one 32-symbol alphabet whose steps come from ten
        // owned by the writer, so each byte pair names its writer; only
        // the last pair, which ends on the writer's own symbol, may not.
        Content::SharedAlphabet => {
            let mut at = writer;
            let mut out = Vec::with_capacity(SLICE);
            for _ in 1..SLICE {
                out.push(b'@' + at);
                at = (at + 1 + 10 * writer + rng.random_range(0..10u8)) % 32;
            }
            out.push(b'@' + 31 - writer);
            out
        }
        // Words of consonant-vowel syllables, one space apart: vowels
        // and spaces are shared, consonants belong to one writer, and
        // every 3 bytes hold a consonant. The slice ends on one.
        Content::WordText => {
            let consonants = [b"bcdfghj", b"klmnpqr", b"stvwxyz"][writer as usize];
            let mut out = Vec::with_capacity(SLICE + 8);
            while out.len() < SLICE {
                for _ in 0..rng.random_range(1..4) {
                    out.push(consonants[rng.random_range(0..consonants.len())]);
                    out.push(b"aeiou"[rng.random_range(0..5)]);
                }
                out.push(b' ');
            }
            out.truncate(SLICE);
            out[SLICE - 1] = consonants[0];
            out
        }
    }
}

/// The document with `slices` laid out in order.
fn document(slices: &[Vec<u8>]) -> Vec<u8> {
    slices.join(&SEPARATOR[..])
}

#[test]
fn slice_rewrites_merge_to_known_bytes_and_conflict_ranges() {
    let mut rng = StdRng::seed_from_u64(0x51_1CE5);
    for content in [
        Content::DisjointAlphabets,
        Content::SharedAlphabet,
        Content::WordText,
    ] {
        let base_slices: Vec<Vec<u8>> = (0..3).map(|_| slice_text(content, 0, &mut rng)).collect();
        let base = document(&base_slices);
        assert_eq!(base.len(), 4096);
        let (ours_text, theirs_text) = (
            slice_text(content, 1, &mut rng),
            slice_text(content, 2, &mut rng),
        );

        // Each side rewrites its own slice: both rewrites merge.
        let mut ours = base_slices.clone();
        ours[0] = ours_text.clone();
        let mut theirs = base_slices.clone();
        theirs[1] = theirs_text.clone();
        let mut both = base_slices.clone();
        both[0] = ours_text.clone();
        both[1] = theirs_text.clone();
        for policy in [MergePolicy::Fail, MergePolicy::Ours, MergePolicy::Theirs] {
            let out = merge(&base, &document(&ours), &document(&theirs), policy);
            assert!(
                out.conflicts.is_empty(),
                "{content:?} own slices under {policy:?}"
            );
            assert_eq!(
                out.merged,
                Some(document(&both)),
                "{content:?} own slices under {policy:?}"
            );
        }

        // Theirs moves slice 2's text to slice 0 and rewrites slice 2,
        // ours rewrites slice 1: the moved block is a deletion plus an
        // insertion, and ours' rewrite between them survives.
        let ours = document(&[
            base_slices[0].clone(),
            ours_text.clone(),
            base_slices[2].clone(),
        ]);
        let theirs = document(&[
            base_slices[2].clone(),
            base_slices[1].clone(),
            theirs_text.clone(),
        ]);
        let merged = document(&[
            base_slices[2].clone(),
            ours_text.clone(),
            theirs_text.clone(),
        ]);
        for policy in [MergePolicy::Fail, MergePolicy::Ours, MergePolicy::Theirs] {
            let out = merge(&base, &ours, &theirs, policy);
            assert!(
                out.conflicts.is_empty(),
                "{content:?} moved block under {policy:?}"
            );
            assert_eq!(
                out.merged.as_ref(),
                Some(&merged),
                "{content:?} moved block under {policy:?}"
            );
        }

        // Both rewrite the shared slice: one conflict, exactly the slice.
        let mut ours = base_slices.clone();
        ours[SHARED] = ours_text.clone();
        let mut theirs = base_slices.clone();
        theirs[SHARED] = theirs_text.clone();
        let (ours, theirs) = (document(&ours), document(&theirs));
        let range = slice_range(SHARED);
        let conflict = MergeConflict {
            base_start: range.start as u64,
            base_end: range.end as u64,
            ours: ours_text,
            theirs: theirs_text,
        };
        for (policy, merged) in [
            (MergePolicy::Fail, None),
            (MergePolicy::Ours, Some(&ours)),
            (MergePolicy::Theirs, Some(&theirs)),
        ] {
            let out = merge(&base, &ours, &theirs, policy);
            assert_eq!(
                out.conflicts,
                std::slice::from_ref(&conflict),
                "{content:?} shared slice under {policy:?}"
            );
            assert_eq!(
                out.merged.as_ref(),
                merged,
                "{content:?} shared slice under {policy:?}"
            );
        }
    }
}

/// The first merge `route_collab --seed 4904` got wrong, as the shard
/// handed it to `merge` (policy theirs): three encoded documents, each a
/// 3-byte header and then the text. Theirs rewrote slice 0 to the
/// base's slice 2 and rewrote slice 2; ours rewrote slice 1. Aligning
/// the moved block deleted slices 0 and 1 in one hunk, and ours'
/// rewrite fell inside that conflict and was lost.
#[test]
fn a_recorded_merge_with_a_moved_block_keeps_both_sides_edits() {
    let base = include_bytes!("fixtures/route_collab_4904_base.bin");
    let ours = include_bytes!("fixtures/route_collab_4904_ours.bin");
    let theirs = include_bytes!("fixtures/route_collab_4904_theirs.bin");
    let slice =
        |doc: &[u8], s: usize| doc[3 + slice_range(s).start..3 + slice_range(s).end].to_vec();
    assert_eq!(slice(theirs, 0), slice(base, 2), "theirs moved slice 2");
    let changed = |doc: &[u8]| {
        (0..3)
            .filter(|&s| slice(doc, s) != slice(base, s))
            .collect::<Vec<_>>()
    };
    assert_eq!((changed(ours), changed(theirs)), (vec![1], vec![0, 2]));
    // Each slice from the side that changed it.
    let mut expected = theirs.to_vec();
    let r = slice_range(1);
    expected[3 + r.start..3 + r.end].copy_from_slice(&slice(ours, 1));
    for policy in [MergePolicy::Fail, MergePolicy::Ours, MergePolicy::Theirs] {
        let out = merge(base, ours, theirs, policy);
        assert!(out.conflicts.is_empty(), "under {policy:?}");
        assert_eq!(out.merged.as_ref(), Some(&expected), "under {policy:?}");
    }
}
