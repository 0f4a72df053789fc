//! `hunks` and `merge` pinned byte for byte over a seeded corpus.
//!
//! The digest pins the first side's hunks and the merges, which align
//! both sides the same way: the chain of maximal common runs, through
//! 8-grams unique to both sides, that crosses in neither input and
//! matches the most bytes, with a moved block a deletion plus an
//! insertion; each gap no anchor splits gets the bounded exact search
//! or stays one hunk. The effort bounds in front of the exact search
//! (the byte and 4-gram bounds) may only skip work whose result was
//! already known: the same code with the search run on every gap gives
//! this digest.
//! The test hashes the `Debug` form of every hunk list and merge
//! outcome over 4 000 generated triples. Each triple is a base and two
//! sides with one to three slices rewritten, over five kinds of
//! content: random bytes, a 4-symbol alphabet, rewrites in an alphabet
//! disjoint from the base's, rewrites in the base's own alphabet (the
//! case the 4-gram bound exists for), and word text.

use ode_merge::{hunks, merge, MergePolicy};

/// Xorshift64: the corpus must not move with a dependency's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn text(&mut self, len: usize, first: u8, alphabet: usize) -> Vec<u8> {
        (0..len)
            .map(|_| first + self.below(alphabet) as u8)
            .collect()
    }

    fn words(&mut self, len: usize) -> Vec<u8> {
        const VOCABULARY: &[&str] = &[
            "the", "of", "and", "to", "in", "is", "that", "it", "for", "as", "was", "with", "be",
            "by", "on", "not",
        ];
        let mut out = Vec::new();
        while out.len() < len {
            out.extend_from_slice(VOCABULARY[self.below(VOCABULARY.len())].as_bytes());
            out.push(b' ');
        }
        out.truncate(len);
        out
    }
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn hunks_and_merges_are_pinned_over_a_seeded_corpus() {
    let mut r = Rng(0x5EED_4000);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for case in 0..4000 {
        let kind = case % 5;
        let n = 1 + r.below(4200);
        let (first, alphabet) = match kind {
            0 => (0, 256),
            1 => (b'a', 4),
            2 => (b' ', 32),
            3 => (b'!', 32),
            _ => (0, 0),
        };
        let gen = |r: &mut Rng, len: usize, first: u8, alphabet: usize| {
            if kind == 4 {
                r.words(len)
            } else {
                r.text(len, first, alphabet)
            }
        };
        let base = gen(&mut r, n, first, alphabet);
        let mut sides = Vec::new();
        for side in 0..2u8 {
            let mut t = base.clone();
            for _ in 0..1 + r.below(3) {
                let at = r.below(t.len() + 1);
                let len = r.below(1400);
                let end = (at + len).min(t.len());
                // Kind 2 rewrites each side in its own alphabet, kind 3
                // in the base's.
                let f = if kind == 2 {
                    b' ' + 32 * (side + 1)
                } else {
                    first
                };
                let flen = r.below(1400);
                let fresh = gen(&mut r, flen, f, alphabet.max(1));
                t.splice(at..end, fresh);
            }
            sides.push(t);
        }
        let h = hunks(&base, &sides[0]);
        digest = fnv(digest, format!("{h:?}").as_bytes());
        for policy in [MergePolicy::Fail, MergePolicy::Ours, MergePolicy::Theirs] {
            let out = merge(&base, &sides[0], &sides[1], policy);
            digest = fnv(
                digest,
                format!("{:?}{:?}", out.merged, out.conflicts).as_bytes(),
            );
        }
    }
    assert_eq!(format!("{digest:016x}"), "ead8efeb4ab8a486");
}
