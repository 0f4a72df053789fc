//! Literal bytes of the records the version layer stores. These are the
//! on-disk format (`FORMAT_VERSION` 2): a change here is a format change
//! and must bump the version, not slip out through a codec edit.

use ode_codec::{from_bytes, to_bytes, Persist, TypeTag};
use ode_delta::{Delta, DeltaOp};
use ode_version::{ChainDirectory, Oid, RunEntry, SegmentRef, VersionMeta, Vid};

fn golden<T: Persist + PartialEq + std::fmt::Debug>(record: T, bytes: &[u8]) {
    assert_eq!(to_bytes(&record), bytes);
    assert_eq!(from_bytes::<T>(bytes).unwrap(), record);
}

#[test]
fn version_meta_body_is_length_plus_raw_bytes() {
    golden(
        VersionMeta {
            vid: Vid(9),
            oid: Oid(7),
            tag: TypeTag(0x0102_0304_0506_0708),
            dprev: Vid(3),
            dprev2: Vid::NULL,
            dnext: vec![Vid(11), Vid(300)],
            tprev: Vid(8),
            tnext: Vid::NULL,
            created: 42,
            body: vec![0x80, 0xFF, 0x01],
        },
        &[
            9, // vid
            7, // oid
            8, 7, 6, 5, 4, 3, 2, 1, // tag, fixed-width little-endian
            3, // dprev
            0, // dprev2
            2, 11, 0xAC, 0x02, // dnext: count, then varints
            8,    // tprev
            0,    // tnext
            42,   // created
            3, 0x80, 0xFF, 0x01, // body: length, then the bytes
        ],
    );
}

#[test]
fn run_entry_delta_ops() {
    golden(
        RunEntry {
            vid: Vid(12),
            delta: Delta {
                target_len: 200,
                ops: vec![
                    DeltaOp::Copy {
                        offset: 0,
                        len: 130,
                    },
                    DeltaOp::Insert(vec![0xFF, b'a']),
                ],
            },
        },
        &[
            12, // vid
            0xC8, 0x01, // target_len
            2,    // op count
            0, 0, 0x82, 0x01, // Copy { offset, len }
            1, 2, 0xFF, b'a', // Insert: length, then the bytes
        ],
    );
}

#[test]
fn chain_directory_segments() {
    golden(
        ChainDirectory {
            interval: 8,
            block: 32,
            segments: vec![
                SegmentRef {
                    first: Vid(1),
                    anchor: 0x1234,
                    run: 0,
                },
                SegmentRef {
                    first: Vid(9),
                    anchor: 5,
                    run: 6,
                },
            ],
        },
        &[
            8,  // interval
            32, // block
            2,  // segment count
            1, 0xB4, 0x24, 0, // first, anchor, run (none yet)
            9, 5, 6,
        ],
    );
}
