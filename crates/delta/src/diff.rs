//! Binary diff: block-hash matching with greedy extension.
//!
//! The base is indexed in fixed-size blocks by hash; the target is
//! scanned left to right, and whenever the next block of target bytes
//! matches a base block the match is extended greedily in both
//! directions.  Unmatched bytes become inserts.  The block hash is a
//! rolling polynomial, so stepping the scan one byte costs O(1)
//! whatever the block size.  This is the same
//! family of algorithm as rsync's delta encoding — O(n) in practice,
//! and effective on the "small change to a large object" workloads the
//! paper's CAD setting implies.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

use ode_codec::{impl_persist_enum, impl_persist_struct, DecodeError, Reader};

/// Default block size for base indexing.
pub const DEFAULT_BLOCK: usize = 32;

/// One instruction of a [`Delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes from `offset` in the base.
    Copy {
        /// Byte offset into the base.
        offset: u64,
        /// Number of bytes to copy.
        len: u64,
    },
    /// Emit literal bytes.
    Insert(Vec<u8>),
}

impl_persist_enum!(DeltaOp {
    Copy { offset, len },
    Insert(bytes),
});

/// A delta transforming one byte string into another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Length of the target the delta reconstructs (integrity check).
    pub target_len: u64,
    /// The instruction stream.
    pub ops: Vec<DeltaOp>,
}

impl_persist_struct!(Delta { target_len, ops });

impl Delta {
    /// Approximate stored size in bytes (codec-encoded length).
    pub fn encoded_size(&self) -> usize {
        ode_codec::to_bytes(self).len()
    }

    /// Total bytes of literal (insert) data — the part that does not
    /// dedupe against the base.
    pub fn literal_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Insert(b) => b.len(),
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }
}

/// Error applying a delta to a base it was not produced from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// A copy op referenced past the end of the base.
    CopyOutOfRange {
        /// Offset requested.
        offset: u64,
        /// Length requested.
        len: u64,
        /// Base length available.
        base_len: usize,
    },
    /// The reconstructed length disagreed with `target_len`.
    LengthMismatch {
        /// Declared target length.
        expected: u64,
        /// Length produced: the whole output, or the output up to the
        /// op that outgrew `expected` (applying stops there).
        produced: usize,
    },
    /// An encoded delta could not be read: truncated or corrupt input.
    Malformed(DecodeError),
}

impl From<DecodeError> for ApplyError {
    fn from(e: DecodeError) -> Self {
        ApplyError::Malformed(e)
    }
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::CopyOutOfRange {
                offset,
                len,
                base_len,
            } => write!(
                f,
                "copy [{offset}, +{len}) out of range for base of {base_len} bytes"
            ),
            ApplyError::LengthMismatch { expected, produced } => {
                write!(f, "delta produced {produced} bytes, expected {expected}")
            }
            ApplyError::Malformed(e) => write!(f, "malformed delta: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// Multiplier of the block hash: odd, so no byte's contribution is
/// ever multiplied away.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Polynomial hash of one block: `Σ block[i] · HASH_MUL^(len−1−i)`,
/// wrapping. Sliding the window one byte is [`roll`], O(1).
fn block_hash(block: &[u8]) -> u64 {
    block.iter().fold(0u64, |h, &b| {
        h.wrapping_mul(HASH_MUL).wrapping_add(u64::from(b))
    })
}

/// The hash of the window one byte on: `out` leaves it, `new` enters,
/// `top` is `HASH_MUL^(block−1)`.
fn roll(h: u64, out: u8, new: u8, top: u64) -> u64 {
    h.wrapping_sub(u64::from(out).wrapping_mul(top))
        .wrapping_mul(HASH_MUL)
        .wrapping_add(u64::from(new))
}

/// Hasher for the block index, whose keys are block hashes already:
/// splitmix64's multiply-xorshift finalizer where SipHash would hash
/// them a second time. Every key bit reaches the bits the table
/// indexes by, and the random seed keeps a body crafted to crowd its
/// blocks into one bucket from knowing which keys would.
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = self.0 ^ v;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`MixHasher`]s that all start from one random seed.
struct MixState(u64);

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        MixHasher(self.0)
    }
}

/// Compute a delta that rewrites `base` into `target`, using `block`-byte
/// granularity for match discovery (see [`DEFAULT_BLOCK`]).
pub fn diff_with_block(base: &[u8], target: &[u8], block: usize) -> Delta {
    let block = block.max(4);
    let mut ops: Vec<DeltaOp> = Vec::new();
    let mut pending: Vec<u8> = Vec::new();

    // Index base blocks by hash (last occurrence wins; collisions are
    // verified byte-wise below).
    let seed = RandomState::new().hash_one(0u64);
    let mut index = HashMap::with_capacity_and_hasher(base.len() / block, MixState(seed));
    if base.len() >= block {
        for start in (0..=base.len() - block).step_by(block) {
            index.insert(block_hash(&base[start..start + block]), start);
        }
    }
    let top = (1..block).fold(1u64, |p, _| p.wrapping_mul(HASH_MUL));

    let flush = |pending: &mut Vec<u8>, ops: &mut Vec<DeltaOp>| {
        if !pending.is_empty() {
            ops.push(DeltaOp::Insert(std::mem::take(pending)));
        }
    };

    let mut pos = 0usize;
    // `(p, hash of target[p..p + block])` for the window one byte on:
    // what `pos` reads when it steps one byte, and stale once a match
    // jumps it further.
    let mut window: Option<(usize, u64)> = None;
    while pos < target.len() {
        if pos + block <= target.len() {
            let h = match window {
                Some((at, h)) if at == pos => h,
                _ => block_hash(&target[pos..pos + block]),
            };
            if let Some(&new) = target.get(pos + block) {
                window = Some((pos + 1, roll(h, target[pos], new, top)));
            }
            if let Some(&base_start) = index.get(&h) {
                if base[base_start..base_start + block] == target[pos..pos + block] {
                    // Extend the match forward.
                    let mut len = block;
                    while base_start + len < base.len()
                        && pos + len < target.len()
                        && base[base_start + len] == target[pos + len]
                    {
                        len += 1;
                    }
                    // Extend backward into pending literals.
                    let mut back = 0usize;
                    while back < pending.len()
                        && back < base_start
                        && base[base_start - back - 1] == pending[pending.len() - back - 1]
                    {
                        back += 1;
                    }
                    pending.truncate(pending.len() - back);
                    flush(&mut pending, &mut ops);
                    let offset = (base_start - back) as u64;
                    let total = (len + back) as u64;
                    // Merge with a preceding contiguous copy.
                    if let Some(DeltaOp::Copy {
                        offset: po,
                        len: pl,
                    }) = ops.last_mut()
                    {
                        if *po + *pl == offset {
                            *pl += total;
                            pos += len;
                            continue;
                        }
                    }
                    ops.push(DeltaOp::Copy { offset, len: total });
                    pos += len;
                    continue;
                }
            }
        }
        pending.push(target[pos]);
        pos += 1;
    }
    flush(&mut pending, &mut ops);

    Delta {
        target_len: target.len() as u64,
        ops,
    }
}

/// Compute a delta with the default block size.
pub fn diff(base: &[u8], target: &[u8]) -> Delta {
    diff_with_block(base, target, DEFAULT_BLOCK)
}

/// Apply a delta to its base, reconstructing the target.
pub fn apply(base: &[u8], delta: &Delta) -> Result<Vec<u8>, ApplyError> {
    let mut out = Vec::new();
    let ops = delta.ops.iter().map(|op| {
        Ok(match op {
            DeltaOp::Copy { offset, len } => Op::Copy {
                offset: *offset,
                len: *len,
            },
            DeltaOp::Insert(bytes) => Op::Insert(bytes),
        })
    });
    let bound = base.len() + delta.literal_bytes();
    apply_ops(base, delta.target_len, bound, ops, &mut out)?;
    Ok(out)
}

/// Apply the delta encoded at the front of `r` (the bytes `ode_codec`
/// writes for a [`Delta`]) to `base`, writing the target into `out`
/// (cleared first) and leaving `r` just past the delta.
///
/// No [`Delta`] or [`DeltaOp`] is built: each op is read from the input
/// and applied in turn. Truncated or corrupt input is
/// [`ApplyError::Malformed`]. A corrupt `target_len` or op count
/// allocates nothing on its own: the op count must fit the input, and
/// `out` reserves at most `base.len()` plus the input left.
pub fn apply_encoded(base: &[u8], r: &mut Reader<'_>, out: &mut Vec<u8>) -> Result<(), ApplyError> {
    let target_len = r.get_varint()?;
    let bound = base.len() + r.remaining();
    apply_ops(base, target_len, bound, encoded_ops(r)?, out)
}

/// Move `r` past the delta encoded at its front, reading only the
/// lengths it needs to find the end.
pub fn skip_encoded(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    r.get_varint()?;
    for op in encoded_ops(r)? {
        op?;
    }
    Ok(())
}

/// One instruction as the apply loop sees it: borrowed from a
/// [`DeltaOp`] or read straight from a delta's encoding.
enum Op<'a> {
    Copy { offset: u64, len: u64 },
    Insert(&'a [u8]),
}

/// The ops of an encoded delta (after its `target_len`), read one at a
/// time. Follows the layout `impl_persist_enum!` gives [`DeltaOp`]: a
/// discriminant in listing order (0 `Copy`, 1 `Insert`), then the
/// fields.
fn encoded_ops<'r, 'a>(
    r: &'r mut Reader<'a>,
) -> Result<impl Iterator<Item = Result<Op<'a>, DecodeError>> + 'r, DecodeError> {
    let mut left = r.get_count()?;
    Ok(std::iter::from_fn(move || {
        left = left.checked_sub(1)?;
        Some(read_op(r))
    }))
}

fn read_op<'a>(r: &mut Reader<'a>) -> Result<Op<'a>, DecodeError> {
    Ok(match r.get_varint()? {
        0 => Op::Copy {
            offset: r.get_varint()?,
            len: r.get_varint()?,
        },
        1 => Op::Insert(r.get_bytes()?),
        discriminant => {
            return Err(DecodeError::InvalidDiscriminant {
                type_name: "DeltaOp",
                discriminant,
            })
        }
    })
}

/// The one apply loop: `ops` applied to `base`, into `out` (cleared
/// first). It reserves at most `bound` bytes up front whatever
/// `target_len` claims, and stops at the first op that would take the
/// output past `target_len`, so a corrupt length drives no allocation.
fn apply_ops<'a>(
    base: &[u8],
    target_len: u64,
    bound: usize,
    ops: impl Iterator<Item = Result<Op<'a>, DecodeError>>,
    out: &mut Vec<u8>,
) -> Result<(), ApplyError> {
    out.clear();
    out.reserve(target_len.min(bound as u64) as usize);
    for op in ops {
        let bytes = match op? {
            Op::Copy { offset, len } => match offset.checked_add(len) {
                Some(end) if end <= base.len() as u64 => &base[offset as usize..end as usize],
                _ => {
                    return Err(ApplyError::CopyOutOfRange {
                        offset,
                        len,
                        base_len: base.len(),
                    })
                }
            },
            Op::Insert(bytes) => bytes,
        };
        let produced = out.len() + bytes.len();
        if produced as u64 > target_len {
            return Err(ApplyError::LengthMismatch {
                expected: target_len,
                produced,
            });
        }
        out.extend_from_slice(bytes);
    }
    if out.len() as u64 != target_len {
        return Err(ApplyError::LengthMismatch {
            expected: target_len,
            produced: out.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(base: &[u8], target: &[u8]) -> Delta {
        let d = diff(base, target);
        assert_eq!(apply(base, &d).unwrap(), target, "round trip");
        d
    }

    #[test]
    fn identical_inputs_are_one_copy() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let d = rt(&data, &data);
        assert_eq!(d.ops.len(), 1);
        assert!(matches!(
            d.ops[0],
            DeltaOp::Copy {
                offset: 0,
                len: 1000
            }
        ));
        assert_eq!(d.literal_bytes(), 0);
    }

    #[test]
    fn small_edit_in_large_object_is_small_delta() {
        let base: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let mut target = base.clone();
        target[5000] ^= 0xFF; // one byte changed
        let d = rt(&base, &target);
        assert!(
            d.encoded_size() < base.len() / 10,
            "delta {} vs base {}",
            d.encoded_size(),
            base.len()
        );
        assert!(d.literal_bytes() <= 2 * DEFAULT_BLOCK);
    }

    #[test]
    fn insertion_and_deletion() {
        let base =
            b"the quick brown fox jumps over the lazy dog, repeatedly and verbosely".to_vec();
        let mut target = base.clone();
        target.splice(10..10, b"extremely ".iter().copied());
        rt(&base, &target);
        let mut target2 = base.clone();
        target2.drain(4..15);
        rt(&base, &target2);
    }

    #[test]
    fn disjoint_inputs_are_pure_insert() {
        let base = vec![0u8; 500];
        let target: Vec<u8> = (0..500).map(|i| (i % 250 + 1) as u8).collect();
        let d = rt(&base, &target);
        assert_eq!(d.literal_bytes(), 500);
    }

    #[test]
    fn empty_edge_cases() {
        rt(b"", b"");
        rt(b"", b"nonempty");
        rt(b"nonempty", b"");
        rt(b"short", b"sh");
    }

    #[test]
    fn reordered_blocks_still_copy() {
        let a: Vec<u8> = (0..500).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..500).map(|i| ((i * 7) % 251) as u8).collect();
        let mut base = a.clone();
        base.extend_from_slice(&b);
        let mut target = b;
        target.extend_from_slice(&a);
        let d = rt(&base, &target);
        // Both halves should be found as copies.
        assert!(d.literal_bytes() < 100, "literals: {}", d.literal_bytes());
    }

    #[test]
    fn corrupt_delta_rejected() {
        let d = Delta {
            target_len: 4,
            ops: vec![DeltaOp::Copy { offset: 10, len: 4 }],
        };
        assert!(matches!(
            apply(b"short", &d),
            Err(ApplyError::CopyOutOfRange { .. })
        ));
        let d2 = Delta {
            target_len: 99,
            ops: vec![DeltaOp::Insert(vec![1, 2, 3])],
        };
        assert!(matches!(
            apply(b"", &d2),
            Err(ApplyError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn copy_overflow_guarded() {
        let d = Delta {
            target_len: 1,
            ops: vec![DeltaOp::Copy {
                offset: u64::MAX,
                len: 2,
            }],
        };
        assert!(matches!(
            apply(b"xy", &d),
            Err(ApplyError::CopyOutOfRange { .. })
        ));
    }

    #[test]
    fn delta_round_trips_codec() {
        let base: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let mut target = base.clone();
        target.extend_from_slice(&base);
        target[7] = 99;
        let d = diff(&base, &target);
        let bytes = ode_codec::to_bytes(&d);
        let back: Delta = ode_codec::from_bytes(&bytes).unwrap();
        assert_eq!(d, back);
        assert_eq!(apply(&base, &back).unwrap(), target);
    }

    #[test]
    fn encoded_apply_matches_apply_and_stops_at_the_delta_end() {
        let base: Vec<u8> = (0..700).map(|i| (i % 241) as u8).collect();
        let mut target = base[100..].to_vec();
        target.extend_from_slice(b"appended literal");
        let d = diff(&base, &target);
        let mut bytes = ode_codec::to_bytes(&d);
        bytes.extend_from_slice(b"next");
        let mut r = Reader::new(&bytes);
        let mut out = b"stale".to_vec();
        apply_encoded(&base, &mut r, &mut out).unwrap();
        assert_eq!(out, apply(&base, &d).unwrap());
        assert_eq!(r.get_raw(4).unwrap(), b"next");
        let mut r = Reader::new(&bytes);
        skip_encoded(&mut r).unwrap();
        assert_eq!(r.remaining(), 4);
    }

    #[test]
    fn corrupt_lengths_allocate_nothing() {
        // A target length of a petabyte over a three-byte insert: the
        // reservation is bounded by the input, not by the claim.
        let huge = Delta {
            target_len: 1 << 50,
            ops: vec![DeltaOp::Insert(vec![1, 2, 3])],
        };
        assert!(matches!(
            apply(b"base", &huge),
            Err(ApplyError::LengthMismatch { produced: 3, .. })
        ));
        let bytes = ode_codec::to_bytes(&huge);
        let mut out = Vec::new();
        let err = apply_encoded(b"base", &mut Reader::new(&bytes), &mut out).unwrap_err();
        assert!(matches!(err, ApplyError::LengthMismatch { .. }));
        assert!(out.capacity() <= 4 + bytes.len(), "{}", out.capacity());
        // An op count past the input is refused before any op is read.
        let mut w = ode_codec::Writer::new();
        w.put_varint(3);
        w.put_varint(1 << 40);
        let err = apply_encoded(b"", &mut Reader::new(w.as_bytes()), &mut out).unwrap_err();
        assert!(matches!(
            err,
            ApplyError::Malformed(DecodeError::LengthTooLarge { .. })
        ));
        // Output past the declared length stops at the op that overruns.
        let short = Delta {
            target_len: 2,
            ops: vec![
                DeltaOp::Copy { offset: 0, len: 2 },
                DeltaOp::Copy { offset: 0, len: 4 },
            ],
        };
        assert_eq!(
            apply(b"base", &short),
            Err(ApplyError::LengthMismatch {
                expected: 2,
                produced: 6
            })
        );
    }

    /// `diff_with_block` before its block hash rolled: FNV-1a over
    /// every window, looked up through SipHash. The reference the
    /// rolling version's ops must equal.
    fn diff_with_fnv_blocks(base: &[u8], target: &[u8], block: usize) -> Delta {
        let fnv = |window: &[u8]| {
            window.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        };
        let block = block.max(4);
        let mut ops: Vec<DeltaOp> = Vec::new();
        let mut pending: Vec<u8> = Vec::new();
        let mut index: HashMap<u64, usize> = HashMap::new();
        if base.len() >= block {
            for start in (0..=base.len() - block).step_by(block) {
                index.insert(fnv(&base[start..start + block]), start);
            }
        }
        let mut pos = 0usize;
        while pos < target.len() {
            if pos + block <= target.len() {
                if let Some(&base_start) = index.get(&fnv(&target[pos..pos + block])) {
                    if base[base_start..base_start + block] == target[pos..pos + block] {
                        let mut len = block;
                        while base_start + len < base.len()
                            && pos + len < target.len()
                            && base[base_start + len] == target[pos + len]
                        {
                            len += 1;
                        }
                        let mut back = 0usize;
                        while back < pending.len()
                            && back < base_start
                            && base[base_start - back - 1] == pending[pending.len() - back - 1]
                        {
                            back += 1;
                        }
                        pending.truncate(pending.len() - back);
                        if !pending.is_empty() {
                            ops.push(DeltaOp::Insert(std::mem::take(&mut pending)));
                        }
                        let offset = (base_start - back) as u64;
                        let total = (len + back) as u64;
                        match ops.last_mut() {
                            Some(DeltaOp::Copy {
                                offset: po,
                                len: pl,
                            }) if *po + *pl == offset => *pl += total,
                            _ => ops.push(DeltaOp::Copy { offset, len: total }),
                        }
                        pos += len;
                        continue;
                    }
                }
            }
            pending.push(target[pos]);
            pos += 1;
        }
        if !pending.is_empty() {
            ops.push(DeltaOp::Insert(pending));
        }
        Delta {
            target_len: target.len() as u64,
            ops,
        }
    }

    /// Seeded xorshift: the cases below repeat exactly.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        /// `len` bytes over an alphabet of `letters` symbols.
        fn text(&mut self, len: usize, letters: usize) -> Vec<u8> {
            (0..len).map(|_| self.below(letters) as u8).collect()
        }
    }

    #[test]
    fn rolling_hash_diff_equals_the_fnv_diff() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        for block in [4, 8, 32] {
            for letters in [2, 3, 4, 256] {
                for case in 0..200 {
                    let n = rng.below(1_500);
                    let base = rng.text(n, letters);
                    let mut target = base.clone();
                    for _ in 0..rng.below(5) {
                        let at = rng.below(target.len() + 1);
                        let len = rng.below(60);
                        match rng.below(10) {
                            0..=2 => {
                                let end = (at + len).min(target.len());
                                let fresh = rng.text(end - at, letters);
                                target[at..end].copy_from_slice(&fresh);
                            }
                            3..=5 => {
                                let fresh = rng.text(len, letters);
                                target.splice(at..at, fresh);
                            }
                            6..=8 => {
                                target.drain(at..(at + len).min(target.len()));
                            }
                            _ => target = rng.text(n, letters),
                        }
                    }
                    let got = diff_with_block(&base, &target, block);
                    assert_eq!(
                        got,
                        diff_with_fnv_blocks(&base, &target, block),
                        "block {block}, {letters} letters, case {case}"
                    );
                    assert_eq!(apply(&base, &got).unwrap(), target);
                }
            }
        }
    }

    #[test]
    fn block_size_trade_off() {
        let base: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let mut target = base.clone();
        target[100] ^= 1;
        target[3000] ^= 1;
        let fine = diff_with_block(&base, &target, 8);
        let coarse = diff_with_block(&base, &target, 256);
        assert_eq!(apply(&base, &fine).unwrap(), target);
        assert_eq!(apply(&base, &coarse).unwrap(), target);
        // Finer blocks find tighter matches around point edits.
        assert!(fine.literal_bytes() <= coarse.literal_bytes());
    }
}
