//! Property tests for the wire protocol: every `Request`/`Response`
//! shape round-trips through encode/decode with any sequence id, and
//! the decoders never panic on corrupted bytes — truncation, flipped
//! bits, garbage payloads, and hostile frame length prefixes all come
//! back as `Err`, never as UB, OOM, or a panic.

use std::io::Cursor;

use ode::{MergeConflict, Oid, TypeTag, VersionDiff, Vid};
use ode_net::protocol::{
    read_frame, write_frame, Opcode, StatsReport, MAX_FRAME_LEN, OPCODE_COUNT,
};
use ode_net::{RemoteError, Request, Response};
use ode_storage::StoreStats;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn arb_oid() -> impl Strategy<Value = Oid> {
    any::<u64>().prop_map(Oid)
}

fn arb_vid() -> impl Strategy<Value = Vid> {
    any::<u64>().prop_map(Vid)
}

fn arb_tag() -> impl Strategy<Value = TypeTag> {
    any::<u64>().prop_map(TypeTag)
}

fn arb_conflict() -> impl Strategy<Value = MergeConflict> {
    (any::<u64>(), any::<u64>(), arb_body(), arb_body()).prop_map(
        |(base_start, base_end, ours, theirs)| MergeConflict {
            base_start,
            base_end,
            ours,
            theirs,
        },
    )
}

fn arb_body() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..200)
}

/// Any request of any opcode, built by the wire table's own per-row
/// constructor — so a new row is covered the moment it exists.
fn arb_request() -> BoxedStrategy<Request> {
    (
        0..OPCODE_COUNT,
        proptest::collection::vec(any::<u64>(), 3),
        arb_body(),
    )
        .prop_map(|(op, words, body)| {
            let mut words = words.into_iter().cycle();
            Request::sample(Opcode::ALL[op], |_| words.next().expect("cycled"), &body)
        })
        .boxed()
}

fn arb_diff() -> impl Strategy<Value = VersionDiff> {
    (
        (arb_vid(), arb_vid(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(|(a, b)| {
            let (from, to, to_len, ops) = a;
            let (literal_bytes, encoded_bytes, stored) = b;
            VersionDiff {
                from,
                to,
                to_len,
                ops,
                literal_bytes,
                encoded_bytes,
                stored,
            }
        })
}

/// Every `StoreStats` field drawn on its own; the struct literal has
/// no `..`, so a field added to `StoreStats` is drawn here too.
fn arb_store_stats() -> impl Strategy<Value = StoreStats> {
    proptest::collection::vec(any::<u64>(), 16).prop_map(|words| {
        let [
            read_txs,
            write_txs,
            reader_waits,
            reader_wait_nanos,
            writer_waits,
            writer_wait_nanos,
            wal_syncs,
            group_syncs,
            group_commit_txns,
            group_batch_max,
            bytes_shipped,
            replica_lag_epochs,
            failovers,
            write_conflicts,
            write_retries,
            checkpoint_failures,
        ] = <[u64; 16]>::try_from(words).expect("sixteen words");
        StoreStats {
            read_txs,
            write_txs,
            reader_waits,
            reader_wait_nanos,
            writer_waits,
            writer_wait_nanos,
            wal_syncs,
            group_syncs,
            group_commit_txns,
            group_batch_max,
            bytes_shipped,
            replica_lag_epochs,
            failovers,
            write_conflicts,
            write_retries,
            checkpoint_failures,
        }
    })
}

fn arb_stats() -> impl Strategy<Value = StatsReport> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec((0u8..Opcode::ALL.len() as u8, any::<u64>()), 0..8),
        arb_store_stats(),
    )
        .prop_map(|(connections, errors, raw_requests, storage)| {
            let (active_connections, total_connections, bytes_in, bytes_out) = connections;
            let (protocol_errors, op_errors, snapshot_hits, snapshot_misses) = errors;
            // Unique opcodes, wire order — the shape the server emits.
            let mut requests: Vec<(Opcode, u64)> = Vec::new();
            for (op, n) in raw_requests {
                let op = Opcode::from_u8(op).expect("in-range opcode");
                if !requests.iter().any(|(o, _)| *o == op) {
                    requests.push((op, n));
                }
            }
            requests.sort_by_key(|(op, _)| *op as u8);
            StatsReport {
                active_connections,
                total_connections,
                bytes_in,
                bytes_out,
                protocol_errors,
                op_errors,
                snapshot_hits,
                snapshot_misses,
                slow_client_evictions: snapshot_hits ^ snapshot_misses,
                materialize_hits: snapshot_hits.wrapping_add(3),
                materialize_misses: snapshot_misses.wrapping_mul(7),
                requests,
                storage,
            }
        })
}

fn arb_remote_error() -> BoxedStrategy<RemoteError> {
    prop_oneof![
        arb_oid().prop_map(RemoteError::UnknownObject),
        arb_vid().prop_map(RemoteError::UnknownVersion),
        (arb_tag(), arb_tag())
            .prop_map(|(expected, found)| RemoteError::TypeMismatch { expected, found }),
        arb_vid().prop_map(RemoteError::LastVersion),
        ".*".prop_map(|s| RemoteError::Storage(s.to_string())),
        ".*".prop_map(|s| RemoteError::BadRequest(s.to_string())),
        ".*".prop_map(|s| RemoteError::Unavailable(s.to_string())),
    ]
    .boxed()
}

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![
        Just(Response::Pong),
        arb_stats().prop_map(Response::Stats),
        (arb_oid(), arb_vid()).prop_map(|(oid, vid)| Response::Created { oid, vid }),
        arb_vid().prop_map(Response::Version),
        (arb_vid(), arb_body()).prop_map(|(vid, bytes)| Response::Body { vid, bytes }),
        Just(Response::Unit),
        Just(Response::MaybeVersion(None)),
        arb_vid().prop_map(|v| Response::MaybeVersion(Some(v))),
        proptest::collection::vec(arb_vid(), 0..32).prop_map(Response::Versions),
        proptest::collection::vec(arb_oid(), 0..32).prop_map(Response::Objects),
        arb_oid().prop_map(Response::Object),
        any::<u64>().prop_map(Response::Count),
        any::<bool>().prop_map(Response::Flag),
        arb_diff().prop_map(Response::Diff),
        (
            any::<Option<u64>>(),
            proptest::collection::vec(arb_conflict(), 0..4)
        )
            .prop_map(|(vid, conflicts)| Response::Merged {
                vid: vid.map(Vid),
                conflicts
            }),
        arb_remote_error().prop_map(Response::Err),
    ]
    .boxed()
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn request_round_trips_with_any_seq(req in arb_request(), seq: u64) {
        let bytes = req.encode(seq);
        prop_assert_eq!(Request::decode_seq(&bytes).unwrap(), seq);
        let (got_seq, got) = Request::decode(&bytes).unwrap();
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got, req);
    }

    #[test]
    fn response_round_trips_with_any_seq(resp in arb_response(), seq: u64) {
        let bytes = resp.encode(seq);
        let (got_seq, got) = Response::decode(&bytes).unwrap();
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got, resp);
    }

    #[test]
    fn framed_request_survives_the_stream(req in arb_request(), seq: u64) {
        let mut buf = Vec::new();
        let reported = write_frame(&mut buf, &req.encode(seq)).unwrap();
        prop_assert_eq!(reported as usize, buf.len());
        let mut cursor = Cursor::new(buf);
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(Request::decode(&payload).unwrap(), (seq, req));
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    // -- corruption: decode must error, never panic ------------------------

    #[test]
    fn truncated_request_never_panics(req in arb_request(), seq: u64, cut: u64) {
        let bytes = req.encode(seq);
        if bytes.len() > 1 {
            let cut = 1 + (cut as usize % (bytes.len() - 1));
            // Whatever it returns, it must return (shorter payloads can
            // legitimately decode to a smaller request).
            let _ = Request::decode(&bytes[..cut]);
        }
    }

    #[test]
    fn truncated_response_never_panics(resp in arb_response(), seq: u64, cut: u64) {
        let bytes = resp.encode(seq);
        if bytes.len() > 1 {
            let cut = 1 + (cut as usize % (bytes.len() - 1));
            let _ = Response::decode(&bytes[..cut]);
        }
    }

    #[test]
    fn bit_flipped_payloads_never_panic(
        req in arb_request(),
        seq: u64,
        flips in proptest::collection::vec((any::<u64>(), 0u8..8), 1..8),
    ) {
        let mut bytes = req.encode(seq);
        for (pos, bit) in flips {
            let pos = (pos as usize) % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn arbitrary_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = Request::decode_seq(&bytes);
        // And straight off a stream: arbitrary bytes as [frame, ...].
        let mut cursor = Cursor::new(bytes);
        while let Ok(Some(payload)) = read_frame(&mut cursor) {
            let _ = Request::decode(&payload);
        }
    }

    #[test]
    fn corrupted_length_prefixes_never_allocate_unboundedly(
        len: u64,
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        // A frame whose varint length prefix promises up to u64::MAX
        // bytes. Anything over MAX_FRAME_LEN must be rejected before
        // the payload allocation; in-range lengths must hit EOF cleanly.
        let mut buf = Vec::new();
        let mut v = len;
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                buf.push(byte);
                break;
            }
            buf.push(byte | 0x80);
        }
        buf.extend_from_slice(&tail);
        let mut cursor = Cursor::new(buf);
        match read_frame(&mut cursor) {
            Ok(Some(payload)) => assert!(payload.len() as u64 == len && len <= MAX_FRAME_LEN as u64),
            Ok(None) => panic!("a length prefix was written; EOF-at-boundary is impossible"),
            Err(_) => {} // oversized or truncated: rejected without panic
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------------

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let mut buf = Vec::new();
    let huge = (MAX_FRAME_LEN as u64) + 1;
    let mut v = huge;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
    let mut cursor = Cursor::new(buf);
    assert!(read_frame(&mut cursor).is_err());
}

#[test]
fn length_varint_with_too_many_continuation_bytes_is_rejected() {
    // 11 continuation bytes can encode > 64 bits; must error, not wrap.
    let buf = vec![0xFFu8; 16];
    let mut cursor = Cursor::new(buf);
    assert!(read_frame(&mut cursor).is_err());
}

#[test]
fn empty_payload_is_a_clean_decode_error() {
    assert!(Request::decode(&[]).is_err());
    assert!(Response::decode(&[]).is_err());
    assert!(Request::decode_seq(&[]).is_err());
}
