//! Golden frames: one literal payload per opcode and per response kind,
//! captured from the commit *before* the wire table replaced the
//! hand-written codec. "The wire format did not change" is checked
//! here byte for byte, not asserted. Every payload carries sequence id
//! 300 (`ac 02`), so the two-byte varint case is in every frame.
//!
//! These literals are the format. A change that makes this test fail
//! changes what is on the wire and needs a new protocol version, not a
//! new literal. One literal has grown since it was captured: the
//! `Stats` frame ends in `StoreStats::checkpoint_failures`, one varint
//! after the parent commit's last byte; an operator's report, not an
//! operation, so it was appended rather than versioned.

use ode::{MergeConflict, MergePolicy, Oid, TypeTag, VersionDiff, Vid};
use ode_net::protocol::{Opcode, StatsReport};
use ode_net::{RemoteError, Request, Response};
use ode_storage::StoreStats;

const SEQ: u64 = 300;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

#[test]
fn every_request_frame_is_the_parent_commits_bytes() {
    let frames = [
        (
            Request::Ping,
            "ac0200",
        ),
        (
            Request::Stats,
            "ac0201",
        ),
        (
            Request::Pnew { tag: TypeTag(0xDEAD_BEEF), body: vec![1, 200, 255] },
            "ac0202effdb6f50d0301c8ff",
        ),
        (
            Request::Deref { oid: Oid(7), tag: TypeTag(u64::MAX) },
            "ac020307ffffffffffffffffff01",
        ),
        (
            Request::DerefVersion { vid: Vid(300), tag: TypeTag(1) },
            "ac0204ac0201",
        ),
        (
            Request::Update { oid: Oid(129), tag: TypeTag(2), body: vec![] },
            "ac020581010200",
        ),
        (
            Request::UpdateVersion { vid: Vid(3), tag: TypeTag(4), body: vec![255; 130] },
            "ac020603048201ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        ),
        (
            Request::NewVersion { oid: Oid(1) },
            "ac020701",
        ),
        (
            Request::NewVersionFrom { vid: Vid(2) },
            "ac020802",
        ),
        (
            Request::Pdelete { oid: Oid(3) },
            "ac020903",
        ),
        (
            Request::PdeleteVersion { vid: Vid(4) },
            "ac020a04",
        ),
        (
            Request::Dprevious { vid: Vid(5) },
            "ac020b05",
        ),
        (
            Request::Dnext { vid: Vid(6) },
            "ac020c06",
        ),
        (
            Request::Tprevious { vid: Vid(7) },
            "ac020d07",
        ),
        (
            Request::Tnext { vid: Vid(8) },
            "ac020e08",
        ),
        (
            Request::VersionHistory { oid: Oid(9) },
            "ac020f09",
        ),
        (
            Request::CurrentVersion { oid: Oid(10) },
            "ac02100a",
        ),
        (
            Request::Objects { tag: TypeTag(11) },
            "ac02110b",
        ),
        (
            Request::ObjectsPage { tag: TypeTag(12), after: Oid(13), limit: 14 },
            "ac02120c0d0e",
        ),
        (
            Request::ObjectOf { vid: Vid(15) },
            "ac02130f",
        ),
        (
            Request::VersionCount { oid: Oid(16) },
            "ac021410",
        ),
        (
            Request::Exists { oid: Oid(17) },
            "ac021511",
        ),
        (
            Request::VersionExists { vid: Vid(18) },
            "ac021612",
        ),
        (
            Request::Epoch,
            "ac0217",
        ),
        (
            Request::ReadFloor { epoch: 19 },
            "ac021813",
        ),
        (
            Request::Promote,
            "ac0219",
        ),
        (
            Request::HistoryBetween { oid: Oid(20), from: 3, to: u64::MAX },
            "ac021a1403ffffffffffffffffff01",
        ),
        (
            Request::DiffVersions { from: Vid(21), to: Vid(22) },
            "ac021b1516",
        ),
        (
            Request::Merge { a: Vid(23), b: Vid(24), policy: MergePolicy::Fail },
            "ac021c171800",
        ),
        (
            Request::Merge { a: Vid(23), b: Vid(24), policy: MergePolicy::Ours },
            "ac021c171801",
        ),
        (
            Request::Merge { a: Vid(23), b: Vid(24), policy: MergePolicy::Theirs },
            "ac021c171802",
        ),
        // Row 29 is newer than the table; its literal was written from
        // the row (opcode byte, then each field as a varint).
        (
            Request::ClaimIds { stride: 4, residue: 300 },
            "ac021d04ac02",
        ),
        // Rows 30 and 31 likewise.
        (
            Request::Subscribe { gen: 5, have_pos: u64::MAX, have_epoch: 300 },
            "ac021e05ffffffffffffffffff01ac02",
        ),
        (
            Request::Ack { pos: 4096, epoch: 9 },
            "ac021f802009",
        ),
    ];
    for (request, golden) in &frames {
        assert_eq!(hex(&request.encode(SEQ)), *golden, "{request:?}");
        assert_eq!(
            Request::decode(&unhex(golden)).expect("golden frame decodes"),
            (SEQ, request.clone())
        );
    }
    // One frame per opcode at least: a new row needs a literal too.
    for op in Opcode::ALL {
        assert!(
            frames.iter().any(|(request, _)| request.opcode() == op),
            "no golden frame for {op:?}"
        );
    }
}

#[test]
fn every_response_frame_is_the_parent_commits_bytes() {
    let frames = [
        (Response::Pong, "ac0200"),
        (
            Response::Stats(StatsReport {
                active_connections: 1,
                total_connections: 9,
                bytes_in: 1000,
                bytes_out: 2000,
                protocol_errors: 1,
                op_errors: 2,
                snapshot_hits: 41,
                snapshot_misses: 12,
                slow_client_evictions: 3,
                materialize_hits: 17,
                materialize_misses: 5,
                requests: vec![(Opcode::Ping, 3), (Opcode::Pnew, 400), (Opcode::Merge, 1)],
                storage: StoreStats {
                    read_txs: 100,
                    write_txs: 20,
                    reader_waits: 3,
                    reader_wait_nanos: 4500,
                    writer_waits: 2,
                    writer_wait_nanos: 800,
                    wal_syncs: 12,
                    group_syncs: 5,
                    group_commit_txns: 18,
                    group_batch_max: 6,
                    bytes_shipped: 4096,
                    replica_lag_epochs: 2,
                    failovers: 1,
                    write_conflicts: 7,
                    write_retries: 6,
                    checkpoint_failures: 9,
                },
            }),
            // The bytes as captured, then `09`: checkpoint_failures.
            "ac02010109e807d00f0102290c0311050300030290031c01641403942302a0060c05120680200201070609",
        ),
        (
            Response::Created {
                oid: Oid(1),
                vid: Vid(200),
            },
            "ac020201c801",
        ),
        (Response::Version(Vid(3)), "ac020303"),
        (
            Response::Body {
                vid: Vid(4),
                bytes: vec![9, 128, 255],
            },
            "ac020404030980ff",
        ),
        (Response::Unit, "ac0205"),
        (Response::MaybeVersion(None), "ac020600"),
        (Response::MaybeVersion(Some(Vid(5))), "ac02060105"),
        (
            Response::Versions(vec![Vid(1), Vid(2), Vid(300)]),
            "ac0207030102ac02",
        ),
        (Response::Objects(vec![Oid(4), Oid(5)]), "ac0208020405"),
        (Response::Object(Oid(6)), "ac020906"),
        (Response::Count(7), "ac020a07"),
        (Response::Flag(true), "ac020b01"),
        (Response::Flag(false), "ac020b00"),
        (
            Response::Diff(VersionDiff {
                from: Vid(8),
                to: Vid(9),
                to_len: 600,
                ops: 5,
                literal_bytes: 48,
                encoded_bytes: 70,
                stored: true,
            }),
            "ac020c0809d80405304601",
        ),
        (
            Response::Merged {
                vid: Some(Vid(10)),
                conflicts: vec![],
            },
            "ac020d010a00",
        ),
        (
            Response::Merged {
                vid: None,
                conflicts: vec![
                    MergeConflict {
                        base_start: 5,
                        base_end: 9,
                        ours: vec![1, 2, 3],
                        theirs: vec![],
                    },
                    MergeConflict {
                        base_start: 40,
                        base_end: 40,
                        ours: vec![7],
                        theirs: vec![200; 3],
                    },
                ],
            },
            "ac020d0002050903010203002828010703c8c8c8",
        ),
        // Kinds 14 to 16 are newer than the table; their literals were
        // written from the rows (kind byte, then each field as a varint,
        // bytes length-prefixed).
        (
            Response::SnapshotPart {
                gen: 5,
                base_pos: 4096,
                epoch: 9,
                seed: 0xC0FF_EE01,
                total: 3,
                bytes: vec![1, 2, 3],
            },
            "ac020e0580200981dcff870c0303010203",
        ),
        (Response::Resume { gen: 5, from: 4096 }, "ac020f058020"),
        (
            Response::Chunk {
                start_pos: 4096,
                bytes: vec![7, 8],
            },
            "ac02108020020708",
        ),
        (
            Response::Err(RemoteError::UnknownObject(Oid(1))),
            "ac02ff01010000",
        ),
        (
            Response::Err(RemoteError::UnknownVersion(Vid(2))),
            "ac02ff02020000",
        ),
        (
            Response::Err(RemoteError::TypeMismatch {
                expected: TypeTag(3),
                found: TypeTag(4),
            }),
            "ac02ff03030400",
        ),
        (
            Response::Err(RemoteError::LastVersion(Vid(5))),
            "ac02ff04050000",
        ),
        (
            Response::Err(RemoteError::Storage("disk on fire".into())),
            "ac02ff0500000c6469736b206f6e2066697265",
        ),
        (
            Response::Err(RemoteError::BadRequest("garbage".into())),
            "ac02ff0600000767617262616765",
        ),
        (
            Response::Err(RemoteError::Unavailable("shard 2 is reconnecting".into())),
            "ac02ff0700001773686172642032206973207265636f6e6e656374696e67",
        ),
    ];
    for (response, golden) in &frames {
        assert_eq!(hex(&response.encode(SEQ)), *golden, "{response:?}");
        assert_eq!(
            Response::decode(&unhex(golden)).expect("golden frame decodes"),
            (SEQ, response.clone())
        );
    }
    // One frame per response kind: the kind byte follows the two
    // sequence-id bytes.
    let mut kinds: Vec<u8> = frames.iter().map(|(_, g)| unhex(g)[2]).collect();
    kinds.dedup();
    assert_eq!(kinds, (0..=16).chain([255]).collect::<Vec<u8>>());
}

#[test]
fn the_handshake_magic_is_unchanged() {
    assert_eq!(ode_net::protocol::MAGIC, *b"ODE\x02");
}
