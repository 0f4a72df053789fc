//! End-to-end tests: real TCP on loopback, real database files, real
//! WAL recovery — the network path exercised exactly as a deployment
//! would.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread;

use ode::{Database, DatabaseOptions, ObjPtr, Oid, VersionPtr};
use ode_codec::{impl_persist_struct, impl_type_name, varint};
use ode_net::{
    ClientConfig, NetError, OdeClient, OdeServer, Opcode, RemoteError, Request, Response,
    ServerConfig,
};
use ode_storage::testutil::TempPath;

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    title: String,
    revision: u64,
}
impl_persist_struct!(Doc { title, revision });
impl_type_name!(Doc = "net-test/Doc");

/// A type the server has never stored — for type-mismatch tests.
#[derive(Debug, Clone, PartialEq)]
struct Imposter {
    n: u64,
}
impl_persist_struct!(Imposter { n });
impl_type_name!(Imposter = "net-test/Imposter");

fn start_server(path: &Path, workers: usize) -> (Arc<Database>, OdeServer) {
    let db = Arc::new(Database::create(path, DatabaseOptions::no_sync()).expect("create db"));
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", config).expect("bind server");
    (db, server)
}

fn client(addr: SocketAddr) -> OdeClient {
    OdeClient::connect(addr, ClientConfig::default()).expect("connect client")
}

/// The acceptance flow, runnable concurrently from many threads: create
/// an object, derive from latest and from a pinned version, read
/// through both reference kinds, traverse, delete a version, and check
/// latest-version resolution throughout.
fn full_versioning_flow(client: &mut OdeClient, who: &str) {
    let doc = Doc {
        title: who.to_string(),
        revision: 0,
    };
    let p = client.pnew(&doc).expect("pnew");
    let v0 = client.current_version(&p).expect("current_version");

    // Derivation 1: from the latest (v0); becomes latest, then edit it.
    let v1 = client.newversion(&p).expect("newversion");
    let rev1 = Doc {
        title: who.to_string(),
        revision: 1,
    };
    let wrote = client.put(&p, &rev1).expect("put");
    assert_eq!(wrote, v1, "put through a generic ref writes the latest");

    // Derivation 2: from the *pinned* v0 — branches the derived-from
    // tree and becomes the new latest.
    let v2 = client.newversion_from(&v0).expect("newversion_from");

    // Generic reference: late binding resolves to v2 (whose state was
    // copied from v0, untouched by the v1 edit).
    let (latest_doc, latest_vid) = client.deref(&p).expect("deref");
    assert_eq!(latest_vid, v2);
    assert_eq!(latest_doc, doc);

    // Specific references: pinned, regardless of later versions.
    assert_eq!(client.deref_v(&v0).expect("deref_v v0"), doc);
    assert_eq!(client.deref_v(&v1).expect("deref_v v1"), rev1);

    // Derived-from traversals: both children hang off v0.
    assert_eq!(client.dprevious(&v1).expect("dprevious v1"), Some(v0));
    assert_eq!(client.dprevious(&v2).expect("dprevious v2"), Some(v0));
    assert_eq!(client.dprevious(&v0).expect("dprevious v0"), None);
    assert_eq!(client.dnext(&v0).expect("dnext v0"), vec![v1, v2]);

    // Temporal traversals.
    assert_eq!(client.tprevious(&v2).expect("tprevious v2"), Some(v1));
    assert_eq!(client.tnext(&v1).expect("tnext v1"), Some(v2));
    assert_eq!(
        client.version_history(&p).expect("history"),
        vec![v0, v1, v2]
    );

    // Delete the middle version; temporal chain splices around it and
    // the object id still resolves to v2.
    client.pdelete_version(v1).expect("pdelete_version");
    assert!(!client.version_exists(&v1).expect("version_exists"));
    assert_eq!(
        client.tprevious(&v2).expect("tprevious after del"),
        Some(v0)
    );
    assert_eq!(client.version_history(&p).expect("history"), vec![v0, v2]);
    assert_eq!(client.version_count(&p).expect("version_count"), 2);
    let (after_del, after_vid) = client.deref(&p).expect("deref after delete");
    assert_eq!(after_vid, v2);
    assert_eq!(after_del, doc);

    // Round trips that tie both pointer kinds together.
    assert_eq!(client.object_of(&v2).expect("object_of"), p);
    assert!(client.exists(&p).expect("exists"));
}

#[test]
fn end_to_end_acceptance_flow_with_concurrent_clients() {
    let path = TempPath::new();
    let (db, server) = start_server(&path, 8);
    let addr = server.local_addr();

    // Once single-threaded (easier failure diagnosis) ...
    full_versioning_flow(&mut client(addr), "solo");

    // ... then the same full flow from 6 concurrent client threads,
    // each over its own TCP connection.
    let handles: Vec<_> = (0..6)
        .map(|i| {
            thread::spawn(move || {
                let mut c = client(addr);
                full_versioning_flow(&mut c, &format!("thread-{i}"));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread must not panic");
    }

    // Every object the flows created is intact under the embedded API.
    let mut snap = db.snapshot();
    let objects = snap.objects::<Doc>().expect("objects");
    assert_eq!(objects.len(), 7);
    for p in &objects {
        snap.check_object(p).expect("invariants hold");
    }
    drop(snap);

    // Stats: per-opcode counters are non-zero for everything the flow
    // used, and nothing went wrong at the protocol level.
    let mut c = client(addr);
    let stats = c.stats().expect("stats");
    for op in [
        Opcode::Pnew,
        Opcode::Deref,
        Opcode::DerefVersion,
        Opcode::Update,
        Opcode::NewVersion,
        Opcode::NewVersionFrom,
        Opcode::PdeleteVersion,
        Opcode::Dprevious,
        Opcode::Dnext,
        Opcode::Tprevious,
        Opcode::Tnext,
        Opcode::VersionHistory,
        Opcode::CurrentVersion,
        Opcode::ObjectOf,
        Opcode::VersionCount,
        Opcode::Exists,
        Opcode::VersionExists,
        Opcode::Stats,
    ] {
        assert!(
            stats.requests_for(op) > 0,
            "opcode {} should have been counted",
            op.name()
        );
    }
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.op_errors, 0);
    assert!(stats.total_connections >= 8);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);

    server.shutdown();
}

/// Tiny deterministic PRNG so the mixed workload needs no external
/// crates and replays identically.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn concurrent_mixed_workload_preserves_version_graph_invariants() {
    const THREADS: u64 = 6;
    const OPS: u64 = 40;

    let path = TempPath::new();
    let (db, server) = start_server(&path, 8);
    let addr = server.local_addr();

    // Four shared objects all threads gang up on.
    let mut setup = client(addr);
    let shared: Vec<ObjPtr<Doc>> = (0..4)
        .map(|i| {
            setup
                .pnew(&Doc {
                    title: format!("shared-{i}"),
                    revision: 0,
                })
                .expect("pnew shared")
        })
        .collect();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let shared = shared.clone();
            thread::spawn(move || {
                let mut rng = XorShift(0x9E37_79B9 ^ (t + 1));
                let mut c = client(addr);
                for _ in 0..OPS {
                    let p = shared[(rng.next() % shared.len() as u64) as usize];
                    match rng.next() % 6 {
                        0 => {
                            c.newversion(&p).expect("newversion");
                        }
                        1 => {
                            // Branch from a random existing version.
                            let history = c.version_history(&p).expect("history");
                            let base = history[(rng.next() % history.len() as u64) as usize];
                            c.newversion_from(&base).expect("newversion_from");
                        }
                        2 => {
                            c.put(
                                &p,
                                &Doc {
                                    title: format!("t{t}"),
                                    revision: rng.next(),
                                },
                            )
                            .expect("put");
                        }
                        3 => {
                            let (_, vid) = c.deref(&p).expect("deref");
                            assert!(c.version_exists(&vid).expect("version_exists"));
                        }
                        4 => {
                            let v = c.current_version(&p).expect("current_version");
                            assert_eq!(c.object_of(&v).expect("object_of"), p);
                        }
                        _ => {
                            let history = c.version_history(&p).expect("history");
                            assert!(!history.is_empty());
                            // The derivation parent of any version must
                            // itself be a live version of the object.
                            let probe = history[(rng.next() % history.len() as u64) as usize];
                            if let Some(parent) = c.dprevious(&probe).expect("dprevious") {
                                assert!(history.contains(&parent));
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("workload thread must not panic");
    }

    // Full structural validation of every shared object over the wire.
    // (A `Snapshot` pins the store mutex, so the embedded-API pass
    // below must not overlap with network calls into the same process.)
    let mut c = client(addr);
    for p in &shared {
        let history = c.version_history(p).expect("history");
        assert_eq!(c.version_count(p).expect("count"), history.len() as u64);

        // The temporal chain must thread the whole history in order.
        for pair in history.windows(2) {
            assert_eq!(c.tnext(&pair[0]).expect("tnext"), Some(pair[1]));
            assert_eq!(c.tprevious(&pair[1]).expect("tprevious"), Some(pair[0]));
        }
        // The generic reference resolves to the temporal tail.
        let (_, latest) = c.deref(p).expect("deref");
        assert_eq!(Some(&latest), history.last());
    }

    // And once more against the embedded API.
    let mut snap = db.snapshot();
    for p in &shared {
        snap.check_object(p).expect("check_object");
    }
    drop(snap);

    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 0, "no protocol-level failures");
    assert_eq!(stats.op_errors, 0, "no operation should have failed");
    server.shutdown();
}

#[test]
fn server_restart_recovers_all_committed_versions_over_the_network() {
    let path = TempPath::new();

    // Sync on commit: this test is about durability.
    let db = Arc::new(Database::create(&path, DatabaseOptions::default()).expect("create db"));
    let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("bind server");
    let addr = server.local_addr();

    let mut c = client(addr);
    let p = c
        .pnew(&Doc {
            title: "durable".into(),
            revision: 0,
        })
        .expect("pnew");
    let v0 = c.current_version(&p).expect("current_version");
    let v1 = c.newversion(&p).expect("newversion");
    c.put(
        &p,
        &Doc {
            title: "durable".into(),
            revision: 1,
        },
    )
    .expect("put");
    let v2 = c.newversion_from(&v0).expect("newversion_from");

    // Kill the server without any orderly database shutdown: the Arc is
    // leaked, so no checkpoint runs and reopening must replay the WAL —
    // exactly what a crashed server process would leave behind.
    server.shutdown();
    std::mem::forget(db);

    // Same address, fresh database handle recovered from the files.
    let db2 = Arc::new(Database::open(&path, DatabaseOptions::default()).expect("recover db"));
    let _server2 =
        OdeServer::bind(Arc::clone(&db2), addr, ServerConfig::default()).expect("rebind server");

    // The ORIGINAL client instance: its connection died with the old
    // server, so this read exercises retry-once-on-reconnect.
    let history = c.version_history(&p).expect("history after restart");
    assert_eq!(history, vec![v0, v1, v2]);

    let (latest, vid) = c.deref(&p).expect("deref after restart");
    assert_eq!(vid, v2);
    assert_eq!(latest.revision, 0, "v2 branched from v0's state");
    assert_eq!(c.deref_v(&v1).expect("deref_v v1").revision, 1);
    assert_eq!(c.dprevious(&v2).expect("dprevious"), Some(v0));
}

#[test]
fn operation_failures_come_back_as_error_frames_and_sessions_survive() {
    let path = TempPath::new();
    let (_db, server) = start_server(&path, 4);
    let mut c = client(server.local_addr());

    // Unknown object.
    let ghost: ObjPtr<Doc> = ObjPtr::from_oid(Oid(0xDEAD));
    match c.deref(&ghost) {
        Err(NetError::Remote(RemoteError::UnknownObject(oid))) => assert_eq!(oid, Oid(0xDEAD)),
        other => panic!("expected UnknownObject, got {other:?}"),
    }

    // Type mismatch: read a Doc as an Imposter.
    let p = c
        .pnew(&Doc {
            title: "real".into(),
            revision: 0,
        })
        .expect("pnew");
    let wrong: ObjPtr<Imposter> = ObjPtr::from_oid(p.oid());
    match c.deref(&wrong) {
        Err(NetError::Remote(RemoteError::TypeMismatch { expected, found })) => {
            assert_eq!(expected, ObjPtr::<Imposter>::tag());
            assert_eq!(found, ObjPtr::<Doc>::tag());
        }
        other => panic!("expected TypeMismatch, got {other:?}"),
    }

    // Deleting the only version is refused.
    let only = c.current_version(&p).expect("current_version");
    match c.pdelete_version(only) {
        Err(NetError::Remote(RemoteError::LastVersion(vid))) => assert_eq!(vid, only.vid()),
        other => panic!("expected LastVersion, got {other:?}"),
    }

    // After three error frames the same connection still works.
    c.ping().expect("session survives error frames");
    assert_eq!(c.deref(&p).expect("deref").0.title, "real");

    let stats = server.stats();
    assert_eq!(stats.op_errors, 3);
    assert_eq!(stats.protocol_errors, 0);
    server.shutdown();
}

#[test]
fn malformed_frames_get_error_replies_without_killing_the_session() {
    use std::io::{Read, Write};

    let path = TempPath::new();
    let (_db, server) = start_server(&path, 4);

    // Speak the protocol by hand: handshake, then a garbage opcode.
    let mut s = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    s.write_all(b"ODE\x02").expect("send magic");
    let mut echo = [0u8; 4];
    s.read_exact(&mut echo).expect("read magic");
    assert_eq!(&echo, b"ODE\x02");

    // Frame: length 2, payload = seq 9 + opcode 200 (unknown).
    s.write_all(&[2, 9, 200]).expect("send garbage");
    let mut prefix = [0u8; 1];
    s.read_exact(&mut prefix).expect("read reply length");
    let mut reply = vec![0u8; prefix[0] as usize];
    s.read_exact(&mut reply).expect("read reply");
    assert_eq!(reply[0], 9, "error frame echoes the sequence id");
    assert_eq!(reply[1], 255, "reply must be an error frame");

    // The session is still alive: a well-formed ping round-trips.
    s.write_all(&[2, 10, 0]).expect("send ping");
    s.read_exact(&mut prefix).expect("read pong length");
    assert_eq!(prefix[0], 2);
    let mut pong = [0u8; 2];
    s.read_exact(&mut pong).expect("read pong");
    assert_eq!(pong[0], 10, "pong echoes the sequence id");
    assert_eq!(pong[1], 0, "pong response kind");

    assert!(server.stats().protocol_errors > 0);
    server.shutdown();
}

#[test]
fn extent_scans_and_pagination_over_the_wire() {
    let path = TempPath::new();
    let (_db, server) = start_server(&path, 4);
    let mut c = client(server.local_addr());

    let created: Vec<ObjPtr<Doc>> = (0..10)
        .map(|i| {
            c.pnew(&Doc {
                title: format!("doc-{i}"),
                revision: i,
            })
            .expect("pnew")
        })
        .collect();

    let all = c.objects::<Doc>().expect("objects");
    assert_eq!(all, created);

    // Cursor pagination: three pages of 4/4/2.
    let mut after = Oid::NULL;
    let mut paged: Vec<ObjPtr<Doc>> = Vec::new();
    loop {
        let page = c.objects_page::<Doc>(after, 4).expect("objects_page");
        if page.is_empty() {
            break;
        }
        assert!(page.len() <= 4);
        after = Oid(page.last().unwrap().oid().0 + 1);
        paged.extend(page);
    }
    assert_eq!(paged, created);

    // pdelete removes from the extent.
    c.pdelete(created[3]).expect("pdelete");
    let remaining = c.objects::<Doc>().expect("objects");
    assert_eq!(remaining.len(), 9);
    assert!(!remaining.contains(&created[3]));
    assert!(!c.exists(&created[3]).expect("exists"));

    server.shutdown();
}

/// A connection's requests execute in stream order on the thread that
/// reads them: a write stuck behind an embedded snapshot holds back the
/// ping sent after it on the same connection, and nobody else's.
#[test]
fn a_stuck_write_holds_back_only_its_own_connection() {
    let path = TempPath::new();
    let (db, server) = start_server(&path, 4);
    let mut c = client(server.local_addr());

    let p = c
        .pnew(&Doc {
            title: "ooo".into(),
            revision: 0,
        })
        .expect("pnew");

    // An embedded snapshot blocks the write's publish step.
    let snap = db.snapshot();
    let w_seq = c
        .send(&Request::NewVersion { oid: p.oid() })
        .expect("send write");
    let p_seq = c.send(&Request::Ping).expect("send ping");
    // Another connection is claimed by another thread meanwhile.
    let mut other = client(server.local_addr());
    other.ping().expect("a second connection is served");

    // Release the store: the write's response, then the ping's.
    drop(snap);
    let (first_seq, first) = c.recv().expect("recv write response");
    assert_eq!(first_seq, w_seq, "the write answers first");
    assert!(
        matches!(first, Response::Version(_)),
        "expected a version response, got {first:?}"
    );
    let (second_seq, second) = c.recv().expect("recv ping response");
    assert_eq!(second_seq, p_seq);
    assert_eq!(second, Response::Pong);
    assert_eq!(c.version_count(&p).expect("count"), 2);
    server.shutdown();
}

#[test]
fn pipeline_batch_returns_responses_in_request_order() {
    let path = TempPath::new();
    let (_db, server) = start_server(&path, 4);
    let mut c = client(server.local_addr());

    let docs: Vec<ObjPtr<Doc>> = (0..20)
        .map(|i| {
            c.pnew(&Doc {
                title: format!("batch-{i}"),
                revision: i,
            })
            .expect("pnew")
        })
        .collect();

    // Sequential ground truth.
    let expected: Vec<(ode::Vid, Vec<u8>)> = docs
        .iter()
        .map(|p| c.deref_raw(p.oid(), ObjPtr::<Doc>::tag()).expect("deref"))
        .collect();

    // The same reads as one pipelined batch.
    let mut pipe = c.pipeline();
    for p in &docs {
        pipe.push(&Request::Deref {
            oid: p.oid(),
            tag: ObjPtr::<Doc>::tag(),
        })
        .expect("push");
    }
    assert_eq!(pipe.len(), docs.len());
    let responses = pipe.run().expect("run");
    assert_eq!(responses.len(), docs.len());
    for (response, (vid, bytes)) in responses.iter().zip(&expected) {
        assert_eq!(
            response,
            &Response::Body {
                vid: *vid,
                bytes: bytes.clone()
            },
            "batch responses come back in request order"
        );
    }
    server.shutdown();
}

#[test]
fn snapshot_cache_serves_repeats_and_invalidates_on_commit() {
    let path = TempPath::new();
    let (_db, server) = start_server(&path, 4);
    let addr = server.local_addr();
    let mut a = client(addr);
    let mut b = client(addr);

    let p = a
        .pnew(&Doc {
            title: "cached".into(),
            revision: 1,
        })
        .expect("pnew");

    // First read misses and fills; repeats are served from the cache.
    let first = a.deref(&p).expect("deref 1");
    let hits_before = server.stats().snapshot_hits;
    for _ in 0..5 {
        assert_eq!(a.deref(&p).expect("repeat deref"), first);
    }
    let stats = server.stats();
    assert!(
        stats.snapshot_hits >= hits_before + 5,
        "repeated identical reads must hit the cache ({} -> {})",
        hits_before,
        stats.snapshot_hits
    );
    assert!(stats.snapshot_misses >= 1);

    // A commit on ANOTHER connection invalidates: the next read on the
    // original connection must observe the new latest version.
    let v2 = b
        .put(
            &p,
            &Doc {
                title: "cached".into(),
                revision: 2,
            },
        )
        .expect("put from other connection");
    let (doc, vid) = a.deref(&p).expect("deref after foreign commit");
    assert_eq!(vid, v2);
    assert_eq!(doc.revision, 2, "no stale generic-reference reads");

    // Remote stats carry the cache counters too.
    let remote = a.stats().expect("stats over the wire");
    assert!(remote.snapshot_hits >= 5);
    assert!(remote.snapshot_misses >= 1);
    server.shutdown();
}

/// A server's counters are exact whatever turn its requests land in: on
/// one connection, a warm-up `Deref`, then `cached` more of it (snapshot
/// hits), one read that misses, one write and a `Stats`, pipelined in
/// one burst. The `Stats` counts every request before it and itself, and
/// its byte counts are the frames the client wrote (its own included,
/// like its request count) and the answers it read before it. With 100
/// cached reads the burst spans two turns of at most 64 frames.
#[test]
fn stats_count_a_pipelined_batch_exactly() {
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    use ode_net::protocol::{read_frame_into, write_frame, MAGIC};

    for cached in [8u64, 100] {
        let path = TempPath::new();
        let (db, server) = start_server(&path, 2);
        let (oid, vid) = {
            let mut txn = db.begin();
            let p = txn
                .pnew(&Doc {
                    title: "counted".into(),
                    revision: 0,
                })
                .expect("pnew");
            let vid = txn.current_version(&p).expect("current version").vid();
            txn.commit().expect("commit");
            (p.oid(), vid)
        };
        let tag = ObjPtr::<Doc>::tag();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&MAGIC).expect("magic");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut echo = [0u8; 4];
        reader.read_exact(&mut echo).expect("handshake");

        let mut wrote = 0u64;
        let mut read = 0u64;
        let mut payload = Vec::new();
        let mut round_trip = |requests: &[Request], seq: &mut u64| {
            let mut burst = Vec::new();
            for request in requests {
                wrote += write_frame(&mut burst, &request.encode(*seq)).expect("frame");
                *seq += 1;
            }
            stream.write_all(&burst).expect("send");
            let mut answers = Vec::new();
            for _ in requests {
                assert!(read_frame_into(&mut reader, &mut payload).expect("answer"));
                let (_, response) = Response::decode(&payload).expect("decode");
                if !matches!(response, Response::Stats(_)) {
                    read += (payload.len() + varint::len_u64(payload.len() as u64)) as u64;
                }
                answers.push(response);
            }
            answers
        };
        let deref = Request::Deref { oid, tag };
        let mut seq = 1;
        round_trip(std::slice::from_ref(&deref), &mut seq);
        let mut burst = vec![deref; cached as usize];
        burst.push(Request::DerefVersion { vid, tag });
        burst.push(Request::Update {
            oid,
            tag,
            body: ode_codec::to_bytes(&Doc {
                title: "counted".into(),
                revision: 1,
            }),
        });
        burst.push(Request::Stats);
        let answers = round_trip(&burst, &mut seq);
        let Some(Response::Stats(stats)) = answers.last() else {
            panic!("no stats answer: {:?}", answers.last());
        };
        assert_eq!(stats.requests_for(Opcode::Deref), cached + 1);
        assert_eq!(stats.requests_for(Opcode::DerefVersion), 1);
        assert_eq!(stats.requests_for(Opcode::Update), 1);
        assert_eq!(stats.requests_for(Opcode::Stats), 1, "Stats counts itself");
        assert_eq!(stats.total_requests(), cached + 4);
        assert_eq!((stats.snapshot_hits, stats.snapshot_misses), (cached, 2));
        assert_eq!(stats.bytes_in, wrote, "every frame written, Stats included");
        assert_eq!(stats.bytes_out, read, "every answer read before Stats");
        assert_eq!((stats.op_errors, stats.protocol_errors), (0, 0));
        // Published by the turn before it flushed: the in-process view
        // agrees once the answers are in.
        let local = server.stats();
        assert_eq!(local.total_requests(), cached + 4);
        assert_eq!(local.bytes_in, wrote);
        server.shutdown();
    }
}

#[test]
fn read_pipelined_behind_a_write_observes_that_write() {
    let path = TempPath::new();
    let (_db, server) = start_server(&path, 4);
    let mut c = client(server.local_addr());

    let p = c
        .pnew(&Doc {
            title: "ryw".into(),
            revision: 1,
        })
        .expect("pnew");
    let tag = ObjPtr::<Doc>::tag();

    // Seed the cache with the pre-write answer, so a stale entry exists
    // for the gate to protect against.
    let (_, stale_bytes) = c.deref_raw(p.oid(), tag).expect("prefill");
    let _ = c.deref_raw(p.oid(), tag).expect("cache hit on old value");

    // One batch: [update, deref]. The deref is pipelined behind the
    // write on the same connection, so it must see revision 2 even
    // though the cache still holds revision 1 when it is decoded.
    for round in 2..10u64 {
        let mut pipe = c.pipeline();
        let body = ode_codec::to_bytes(&Doc {
            title: "ryw".into(),
            revision: round,
        });
        pipe.push(&Request::Update {
            oid: p.oid(),
            tag,
            body: body.clone(),
        })
        .expect("push update");
        pipe.push(&Request::Deref { oid: p.oid(), tag })
            .expect("push deref");
        let responses = pipe.run().expect("run");
        match (&responses[0], &responses[1]) {
            (Response::Version(_), Response::Body { bytes, .. }) => {
                assert_ne!(bytes, &stale_bytes, "round {round}: stale cached read");
                assert_eq!(bytes, &body, "round {round}: read-your-writes");
            }
            other => panic!("unexpected responses {other:?}"),
        }
    }
    server.shutdown();
}

/// Re-exec helper, not a test of its own: when the crash-recovery test
/// spawns the test binary with `ODE_NET_CRASH_CHILD` set, this runs a
/// real server process that the parent SIGKILLs mid-pipeline. Without
/// the env var it is a no-op.
#[test]
fn child_server_process() {
    let Ok(db_path) = std::env::var("ODE_NET_CRASH_CHILD") else {
        return;
    };
    let port_file = std::env::var("ODE_NET_CRASH_PORT_FILE").expect("port file env var");
    // Durable commits: the parent's invariant is "acknowledged implies
    // recovered", which needs fsync-on-commit.
    let db = Arc::new(Database::create(&db_path, DatabaseOptions::default()).expect("create db"));
    let server =
        OdeServer::bind(db, "127.0.0.1:0", ServerConfig::default()).expect("bind child server");
    let tmp = format!("{port_file}.tmp");
    std::fs::write(&tmp, server.local_addr().to_string()).expect("write port file");
    std::fs::rename(&tmp, &port_file).expect("publish port file");
    // Serve until the parent kills this process.
    loop {
        thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Kills the child process (SIGKILL — no cleanup, no WAL checkpoint) on
/// drop, so a panicking assertion can't leak a server process.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sigkill_mid_pipeline_recovers_exactly_the_acknowledged_writes() {
    use std::time::{Duration, Instant};

    let path = TempPath::new();
    let port_file = ode::testutil::fresh_path();

    // Spawn this same test binary as the server process.
    let exe = std::env::current_exe().expect("current_exe");
    let child = std::process::Command::new(exe)
        .args(["child_server_process", "--exact", "--nocapture"])
        .env("ODE_NET_CRASH_CHILD", &*path)
        .env("ODE_NET_CRASH_PORT_FILE", &port_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child server");
    let mut child = KillOnDrop(child);

    let deadline = Instant::now() + Duration::from_secs(30);
    let addr: SocketAddr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            break s.trim().parse().expect("parse child address");
        }
        assert!(Instant::now() < deadline, "child server never came up");
        thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_file(&port_file);

    // Pipeline a burst of creates. Each body carries a unique marker in
    // `revision`, so the database contents identify exactly which
    // writes survived.
    const SENT: u64 = 50;
    const ACKED_BEFORE_KILL: u64 = 10;
    let mut c = client(addr);
    let mut seqs = Vec::new();
    for i in 0..SENT {
        let body = ode_codec::to_bytes(&Doc {
            title: "crash".into(),
            revision: i,
        });
        let seq = c
            .send(&Request::Pnew {
                tag: ObjPtr::<Doc>::tag(),
                body,
            })
            .expect("send pnew");
        seqs.push((i, seq));
    }

    // Collect the first few acknowledgements, then SIGKILL the server
    // with the rest of the pipeline still in flight.
    let mut acked: Vec<u64> = Vec::new();
    for &(marker, seq) in seqs.iter().take(ACKED_BEFORE_KILL as usize) {
        match c.recv_for(seq).expect("ack before kill") {
            Response::Created { .. } => acked.push(marker),
            other => panic!("expected created, got {other:?}"),
        }
    }
    child.0.kill().expect("SIGKILL child");
    child.0.wait().expect("reap child");

    // Drain whatever still arrives; the connection must surface a clean
    // error (not hang, not panic) once the stream dies. The server may
    // have flushed every response before the kill — then the dead
    // stream shows up on the next request instead.
    let mut saw_error = false;
    for &(marker, seq) in seqs.iter().skip(ACKED_BEFORE_KILL as usize) {
        match c.recv_for(seq) {
            Ok(Response::Created { .. }) => acked.push(marker),
            Ok(other) => panic!("expected created, got {other:?}"),
            Err(NetError::Io(_)) => {
                saw_error = true;
                break;
            }
            Err(other) => panic!("expected an I/O error, got {other:?}"),
        }
    }
    if !saw_error {
        let outcome = c.send(&Request::Ping).and_then(|seq| c.recv_for(seq));
        match outcome {
            Err(NetError::Io(_)) => saw_error = true,
            other => panic!("expected an I/O error after the kill, got {other:?}"),
        }
    }
    assert!(saw_error, "the killed connection must error out");

    // Recover the database the way a restarted server would and read
    // back the markers that survived.
    let db = Database::open(&path, DatabaseOptions::default()).expect("recover db");
    let mut snap = db.snapshot();
    let mut recovered: Vec<u64> = snap
        .objects::<Doc>()
        .expect("objects")
        .iter()
        .map(|p| snap.deref(p).expect("deref recovered").revision)
        .collect();
    recovered.sort_unstable();

    // Exactly the acknowledged writes are guaranteed: every ack is
    // recovered (durability), and nothing outside the sent set appears.
    // Unacknowledged writes may or may not have committed — that's the
    // crash window — but the acknowledged prefix is a hard floor.
    for marker in &acked {
        assert!(
            recovered.contains(marker),
            "acknowledged write {marker} lost by the crash (recovered: {recovered:?})"
        );
    }
    assert!(acked.len() as u64 >= ACKED_BEFORE_KILL);
    for marker in &recovered {
        assert!(*marker < SENT, "recovered a write that was never sent");
    }
}

#[test]
fn versions_travel_between_embedded_and_network_apis() {
    // Objects created through the embedded API are visible over the
    // wire and vice versa — same file, same ids.
    let path = TempPath::new();
    let (db, server) = start_server(&path, 4);

    let p_embedded = {
        let mut txn = db.begin();
        let p = txn
            .pnew(&Doc {
                title: "embedded".into(),
                revision: 7,
            })
            .expect("pnew");
        txn.commit().expect("commit");
        p
    };

    let mut c = client(server.local_addr());
    let (doc, _) = c.deref(&p_embedded).expect("deref embedded object");
    assert_eq!(doc.title, "embedded");

    let p_net = c
        .pnew(&Doc {
            title: "networked".into(),
            revision: 8,
        })
        .expect("pnew over wire");
    let mut snap = db.snapshot();
    let doc = snap.deref(&p_net).expect("deref network object locally");
    assert_eq!(doc.title, "networked");
    drop(snap);

    // A VersionPtr obtained remotely dereferences locally too.
    let v: VersionPtr<Doc> = c.current_version(&p_net).expect("current_version");
    let mut snap = db.snapshot();
    assert_eq!(snap.deref_v(&v).expect("deref_v").revision, 8);

    server.shutdown();
}

#[test]
fn history_and_diff_are_served_over_the_wire_from_the_chain() {
    // A chain-enabled database: version bodies are stored as deltas,
    // and the two new read ops answer from the chain.
    let path = TempPath::new();
    let db = Arc::new(
        Database::create(
            &path,
            DatabaseOptions::no_sync().with_chain(ode::ChainConfig::default()),
        )
        .expect("create db"),
    );
    let server =
        OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut c = client(server.local_addr());

    let p = c
        .pnew(&Doc {
            title: "chained".repeat(40),
            revision: 0,
        })
        .expect("pnew");
    let mut vids = vec![c.current_version(&p).expect("current_version")];
    for rev in 1..=8u64 {
        let v = c.newversion(&p).expect("newversion");
        c.put_version(
            &v,
            &Doc {
                title: "chained".repeat(40),
                revision: rev,
            },
        )
        .expect("put_version");
        vids.push(v);
    }

    // The full stamp range returns the whole temporal history.
    let all = c.history_between(&p, 0, u64::MAX).expect("history_between");
    assert_eq!(all, vids);
    // A sub-range clips both ends.
    let mid = c
        .history_between(&p, vids[2].vid().0, vids[5].vid().0)
        .expect("history_between");
    assert_eq!(mid, vids[2..=5].to_vec());

    // Adjacent versions diff straight off the stored chain; the edit
    // is tiny next to the body, so the delta is too.
    let d = c.diff_versions(&vids[3], &vids[4]).expect("diff_versions");
    assert_eq!((d.from, d.to), (vids[3].vid(), vids[4].vid()));
    assert!(
        d.stored,
        "adjacent chained versions must use the stored delta"
    );
    assert!(
        d.encoded_bytes < d.to_len / 3,
        "delta ({} bytes) should be far smaller than the body ({} bytes)",
        d.encoded_bytes,
        d.to_len
    );
    // Non-adjacent versions still diff (computed on demand).
    let d = c.diff_versions(&vids[1], &vids[7]).expect("diff_versions");
    assert!(!d.stored);
    assert_eq!(
        d.to_len,
        ode_codec::to_bytes(&Doc {
            title: "chained".repeat(40),
            revision: 7
        })
        .len() as u64
    );
    // The wire answers with the embedded API's own `VersionDiff`, equal
    // to what a local snapshot computes.
    let local = db.snapshot().diff_versions(&vids[1], &vids[7]);
    assert_eq!(d, local.expect("local diff_versions"));

    // A historical read over the wire replays the chain and fills the
    // materialization cache; the counters travel in Stats. Repeating
    // the request would not reach that cache: the server's snapshot
    // cache is keyed by operation bytes and shared by every
    // connection, so it answers repeats first.
    let doc = c.deref_v(&vids[2]).expect("deref_v historical");
    assert_eq!(doc.revision, 2);
    let stats = c.stats().expect("stats");
    assert!(
        stats.materialize_misses >= 1,
        "the first historical read must replay the chain"
    );

    // Embedded snapshots read through the materialization cache
    // directly: a repeat at the same epoch is a hit, and a read after
    // a commit is a miss.
    let historical = vids[2];
    let read = || {
        let before = db.materialize_cache_counters();
        let doc = db.snapshot().deref_v(&historical).expect("deref_v");
        assert_eq!(doc.revision, 2);
        let (hits, misses) = db.materialize_cache_counters();
        (hits - before.0, misses - before.1)
    };
    read();
    assert_eq!(read(), (1, 0), "a repeat at the same epoch must hit");
    c.put_version(
        &vids[8],
        &Doc {
            title: "chained".repeat(40),
            revision: 9,
        },
    )
    .expect("put_version");
    assert_eq!(read(), (0, 1), "a read after a commit must miss");

    server.shutdown();
}
