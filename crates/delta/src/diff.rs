//! Binary diff: block-hash matching with greedy extension.
//!
//! The base is indexed in fixed-size blocks by hash; the target is
//! scanned left to right, and whenever the next block of target bytes
//! matches a base block the match is extended greedily in both
//! directions.  Unmatched bytes become inserts.  This is the same
//! family of algorithm as rsync's delta encoding — O(n) in practice,
//! and effective on the "small change to a large object" workloads the
//! paper's CAD setting implies.

use std::collections::HashMap;
use std::fmt;

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

fn block_hash(block: &[u8]) -> u64 {
    // FNV-1a over the block.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in block {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Compute a delta that rewrites `base` into `target`, using `block`-byte
/// granularity for match discovery (see [`DEFAULT_BLOCK`]).
pub fn diff_with_block(base: &[u8], target: &[u8], block: usize) -> Delta {
    let block = block.max(4);
    let mut ops: Vec<DeltaOp> = Vec::new();
    let mut pending: Vec<u8> = Vec::new();

    // Index base blocks by hash (last occurrence wins; collisions are
    // verified byte-wise below).
    let mut index: HashMap<u64, usize> = HashMap::new();
    if base.len() >= block {
        for start in (0..=base.len() - block).step_by(block) {
            index.insert(block_hash(&base[start..start + block]), start);
        }
    }

    let flush = |pending: &mut Vec<u8>, ops: &mut Vec<DeltaOp>| {
        if !pending.is_empty() {
            ops.push(DeltaOp::Insert(std::mem::take(pending)));
        }
    };

    let mut pos = 0usize;
    while pos < target.len() {
        if pos + block <= target.len() {
            let h = block_hash(&target[pos..pos + block]);
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
