//! Property tests for the delta layer: `apply(base, diff(base, t)) == t`
//! for arbitrary inputs and block sizes, and `apply` never panics.

use ode_delta::DeltaOp;
use ode_delta::{apply, diff};
use proptest::prelude::*;

/// The adversarial corner classes the byte merge leans on, stated
/// explicitly instead of left to random chance: empty base (pure
/// insertion), empty target (pure deletion), a target shorter than one
/// diff block (the block hasher never fires), base == target (pure
/// copy), and a near-identical pair (single flipped byte).
fn adversarial_pairs() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..600).prop_map(|t| (Vec::new(), t)),
        proptest::collection::vec(any::<u8>(), 0..600).prop_map(|b| (b, Vec::new())),
        (
            proptest::collection::vec(any::<u8>(), 0..2048),
            proptest::collection::vec(any::<u8>(), 0..ode_delta::DEFAULT_BLOCK),
        ),
        proptest::collection::vec(any::<u8>(), 0..1024).prop_map(|b| (b.clone(), b)),
        (
            proptest::collection::vec(any::<u8>(), 1..1024),
            any::<u16>()
        )
            .prop_map(|(b, pos)| {
                let mut t = b.clone();
                let i = pos as usize % t.len();
                t[i] ^= 0x5A;
                (b, t)
            }),
    ]
}

proptest! {
    #[test]
    fn adversarial_inputs_round_trip((base, target) in adversarial_pairs()) {
        // At the default block size and at the small one the merge
        // layer's refinement pass uses.
        let d = diff(&base, &target);
        prop_assert_eq!(apply(&base, &d).unwrap(), target.clone());
        let d4 = ode_delta::diff_with_block(&base, &target, 4);
        prop_assert_eq!(apply(&base, &d4).unwrap(), target);
    }

    /// `base == target` must cost nothing: one whole-buffer copy when
    /// there is at least a block to index, a single short literal below
    /// that.
    #[test]
    fn identical_inputs_are_pure_copy(b in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let d = diff(&b, &b);
        let expected_literals = if b.len() >= ode_delta::DEFAULT_BLOCK { 0 } else { b.len() };
        prop_assert_eq!(d.literal_bytes(), expected_literals);
        prop_assert_eq!(apply(&b, &d).unwrap(), b);
    }

    #[test]
    fn diff_apply_round_trip(base: Vec<u8>, target: Vec<u8>) {
        let d = diff(&base, &target);
        prop_assert_eq!(apply(&base, &d).unwrap(), target);
    }

    #[test]
    fn diff_apply_with_any_block(
        base in proptest::collection::vec(any::<u8>(), 0..2000),
        target in proptest::collection::vec(any::<u8>(), 0..2000),
        block in 4usize..512,
    ) {
        let d = ode_delta::diff_with_block(&base, &target, block);
        prop_assert_eq!(apply(&base, &d).unwrap(), target);
    }

    /// Related inputs (target derived from base by edits) must produce
    /// deltas whose literal bytes are bounded by the edit size plus
    /// block-boundary slop.
    #[test]
    fn related_inputs_dedupe(
        base in proptest::collection::vec(any::<u8>(), 500..3000),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        let mut target = base.clone();
        for (pos, val) in &edits {
            let idx = *pos as usize % target.len();
            target[idx] = *val;
        }
        let d = diff(&base, &target);
        prop_assert_eq!(apply(&base, &d).unwrap(), target);
        // Each point edit can cost at most ~2 blocks of literals.
        prop_assert!(d.literal_bytes() <= edits.len() * 2 * ode_delta::DEFAULT_BLOCK + 64);
    }

    /// The applier must never panic on arbitrary (possibly corrupt)
    /// delta structures.
    #[test]
    fn apply_never_panics(
        base: Vec<u8>,
        target_len in 0u64..10_000,
        raw_ops in proptest::collection::vec(
            prop_oneof![
                (any::<u64>(), 0u64..10_000).prop_map(|(o, l)| (0u8, o, l, vec![])),
                proptest::collection::vec(any::<u8>(), 0..100).prop_map(|b| (1u8, 0, 0, b)),
            ],
            0..10,
        ),
    ) {
        let ops: Vec<DeltaOp> = raw_ops
            .into_iter()
            .map(|(kind, offset, len, bytes)| if kind == 0 {
                DeltaOp::Copy { offset, len }
            } else {
                DeltaOp::Insert(bytes)
            })
            .collect();
        let delta = ode_delta::Delta { target_len, ops };
        let _ = apply(&base, &delta); // may error, must not panic
    }
}
