//! Integration tests for the `ode-router` shard tier.
//!
//! Five angles: cross-topology conformance (a 1-shard router must be
//! byte-indistinguishable from a direct server), full typed flows
//! through a 4-shard tier (placement, residue ids, scatter merges,
//! read-your-writes per oid), reconnect-with-backoff after a shard
//! restart, the id claims a router makes of its shards, and sessions
//! sharing the router's threads (a wedged dial, a pipelined burst).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ode::{Database, DatabaseOptions, ObjPtr, Oid, VersionPtr};
use ode_codec::{impl_persist_struct, impl_type_name, to_bytes};
use ode_net::protocol::{read_frame_into, write_frame, MAGIC};
use ode_net::{
    ClientConfig, Cluster, ClusterConfig, NetError, OdeClient, OdeRouter, OdeServer, RemoteError,
    Request, Response, RouterConfig, ServerConfig,
};
use ode_storage::testutil::TempPath;

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    title: String,
    revision: u64,
}
impl_persist_struct!(Doc { title, revision });
impl_type_name!(Doc = "router-test/Doc");

fn doc(title: &str, revision: u64) -> Doc {
    Doc {
        title: title.into(),
        revision,
    }
}

fn tag() -> ode::TypeTag {
    ObjPtr::<Doc>::tag()
}

// ---------------------------------------------------------------------------
// Cross-topology conformance
// ---------------------------------------------------------------------------

/// Run the same request sequence against a direct server and a 1-shard
/// router in lockstep, asserting every response frame is byte-identical
/// (sequence ids included — both clients count from zero). Shards
/// issue the ids clients see, so the tier must be invisible: same ids,
/// same bodies, same errors, same extent order.
#[test]
fn one_shard_router_is_byte_identical_to_a_direct_server() {
    let direct_path = TempPath::new();
    let direct_db = Arc::new(
        Database::create(&direct_path, DatabaseOptions::no_sync()).expect("create direct db"),
    );
    let direct_server = OdeServer::bind(
        Arc::clone(&direct_db),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind direct server");

    let routed_path = TempPath::new();
    let routed_db = Arc::new(
        Database::create(&routed_path, DatabaseOptions::no_sync()).expect("create routed db"),
    );
    let routed_server = OdeServer::bind(
        Arc::clone(&routed_db),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind routed server");
    let router = OdeRouter::bind(
        "127.0.0.1:0",
        vec![routed_server.local_addr()],
        RouterConfig::default(),
    )
    .expect("bind 1-shard router");

    let mut direct =
        OdeClient::connect(direct_server.local_addr(), ClientConfig::default()).expect("direct");
    let mut routed =
        OdeClient::connect(router.local_addr(), ClientConfig::default()).expect("routed");

    let mut step = |req: Request| -> Response {
        let ds = direct.send(&req).expect("send direct");
        let rs = routed.send(&req).expect("send routed");
        assert_eq!(ds, rs, "clients must assign identical sequence ids");
        let dr = direct.recv_for(ds).expect("recv direct");
        let rr = routed.recv_for(rs).expect("recv routed");
        assert_eq!(
            dr.encode(ds),
            rr.encode(rs),
            "response bytes diverged on {:?}: direct={dr:?} routed={rr:?}",
            req.opcode()
        );
        dr
    };

    // The read/write/version scenario set from the server tests,
    // replayed at the wire level. (Stats is excluded: its counters
    // describe the serving process, not the data, so a front tier
    // legitimately reports different plumbing.)
    let created = step(Request::Pnew {
        tag: tag(),
        body: to_bytes(&doc("conformance", 1)),
    });
    let (oid, v1) = match created {
        Response::Created { oid, vid } => (oid, vid),
        other => panic!("expected created, got {other:?}"),
    };
    step(Request::Ping);
    step(Request::Deref { oid, tag: tag() });
    step(Request::CurrentVersion { oid });
    let v2 = match step(Request::NewVersion { oid }) {
        Response::Version(vid) => vid,
        other => panic!("expected version, got {other:?}"),
    };
    step(Request::Update {
        oid,
        tag: tag(),
        body: to_bytes(&doc("conformance", 2)),
    });
    step(Request::Deref { oid, tag: tag() });
    step(Request::DerefVersion {
        vid: v1,
        tag: tag(),
    });
    step(Request::VersionHistory { oid });
    step(Request::Dprevious { vid: v2 });
    step(Request::Dnext { vid: v1 });
    step(Request::Tprevious { vid: v2 });
    step(Request::Tnext { vid: v1 });
    step(Request::VersionCount { oid });
    step(Request::Exists { oid });
    step(Request::VersionExists { vid: v1 });
    step(Request::ObjectOf { vid: v2 });

    // A second object so extent scans have something to order.
    step(Request::Pnew {
        tag: tag(),
        body: to_bytes(&doc("second", 1)),
    });
    step(Request::Objects { tag: tag() });
    step(Request::ObjectsPage {
        tag: tag(),
        after: Oid(0),
        limit: 1,
    });
    step(Request::ObjectsPage {
        tag: tag(),
        after: oid,
        limit: 10,
    });

    // Error conformance: unknown ids, wrong tags, refused deletions.
    step(Request::Deref {
        oid: Oid(9999),
        tag: tag(),
    });
    step(Request::Deref {
        oid,
        tag: ode::TypeTag(0xBAD),
    });
    step(Request::PdeleteVersion { vid: v1 });
    step(Request::PdeleteVersion { vid: v2 }); // now the last one: refused
    step(Request::Pdelete { oid });
    step(Request::Exists { oid });
    // An empty stamp range on an unknown object: the shard's answer.
    step(Request::HistoryBetween {
        oid: Oid(9999),
        from: 2,
        to: 1,
    });

    drop(routed);
    drop(direct);
    router.shutdown();
    routed_server.shutdown();
    direct_server.shutdown();
}

// ---------------------------------------------------------------------------
// Four-shard typed flows
// ---------------------------------------------------------------------------

/// A client connected straight to one shard, bypassing the router.
fn connect_to_shard(cluster: &Cluster, shard: usize) -> OdeClient {
    OdeClient::connect(cluster.shard_members(shard).0, ClientConfig::default()).expect("shard")
}

#[test]
fn full_versioning_flow_through_a_four_shard_tier() {
    let mut config = ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    };
    config.router.reconnect_backoff = Duration::from_millis(10);
    let server_config = config.server.clone();
    let mut cluster = Cluster::start(config);
    let map = cluster.shard_map();
    let mut c =
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect");

    // Round-robin placement: four creations land on four shards.
    let ptrs: Vec<ObjPtr<Doc>> = (0..4)
        .map(|i| c.pnew(&doc(&format!("doc-{i}"), 1)).expect("pnew"))
        .collect();
    let shards: Vec<usize> = ptrs.iter().map(|p| map.shard_of(p.oid())).collect();
    let mut sorted = shards.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2, 3], "round-robin must hit every shard");

    // Per-object versioning semantics survive the tier.
    let p = ptrs[0];
    let v1 = c.current_version(&p).expect("current_version");
    let v2 = c.newversion(&p).expect("newversion");
    assert_ne!(v1, v2);
    let (body, at) = c.deref(&p).expect("deref");
    assert_eq!(at, v2);
    assert_eq!(body.revision, 1);
    let v3 = c.put(&p, &doc("doc-0", 2)).expect("put");
    assert_eq!(v3, v2, "put overwrites the latest version in place");
    let (body, _) = c.deref(&p).expect("deref after put");
    assert_eq!(body.revision, 2);
    assert_eq!(
        c.version_history(&p).expect("history"),
        vec![v1, v2],
        "history is the object's, in the ids its shard issued"
    );
    assert_eq!(c.dprevious(&v2).expect("dprevious"), Some(v1));
    assert_eq!(c.dnext(&v1).expect("dnext"), vec![v2]);
    assert_eq!(c.tnext(&v1).expect("tnext"), Some(v2));
    assert_eq!(c.tprevious(&v2).expect("tprevious"), Some(v1));
    assert_eq!(c.object_of(&v2).expect("object_of"), p);
    assert_eq!(c.version_count(&p).expect("version_count"), 2);
    assert!(c.exists(&p).expect("exists"));
    assert!(c.version_exists(&v1).expect("version_exists"));

    // Every version id of an object lives on the object's shard.
    assert_eq!(map.shard_of_vid(v1.vid()), shards[0]);
    assert_eq!(map.shard_of_vid(v2.vid()), shards[0]);

    // Each shard issued its ids from its own residue: the id the tier
    // returned is the id the owning shard answers to, directly.
    for (ptr, &shard) in ptrs.iter().zip(&shards) {
        assert_eq!(ptr.oid().0 % 4, shard as u64, "{ptr:?}");
        let mut direct = connect_to_shard(&cluster, shard);
        assert_eq!(
            direct.deref(ptr).expect("direct deref"),
            c.deref(ptr).expect("deref")
        );
    }
    for v in [v1, v2] {
        assert_eq!(v.vid().0 % 4, shards[0] as u64, "{v:?}");
    }

    // Scatter: the extent merges all four shards in ascending id order.
    let all = c.objects::<Doc>().expect("objects");
    let mut ids: Vec<u64> = all.iter().map(|p| p.oid().0).collect();
    assert_eq!(all.len(), 4);
    let mut sorted_ids = ids.clone();
    sorted_ids.sort_unstable();
    assert_eq!(ids, sorted_ids, "merged extent must be ascending");
    for ptr in &ptrs {
        assert!(all.contains(ptr), "{ptr:?} missing from merged extent");
    }

    // Paging walks the same merged order, across shard boundaries.
    let mut paged: Vec<u64> = Vec::new();
    let mut after = Oid(0);
    loop {
        let page = c.objects_page::<Doc>(after, 3).expect("objects_page");
        if page.is_empty() {
            break;
        }
        paged.extend(page.iter().map(|p| p.oid().0));
        after = Oid(page.last().expect("non-empty page").oid().0 + 1);
        if page.len() < 3 {
            break;
        }
    }
    ids.sort_unstable();
    assert_eq!(paged, ids, "paging must reproduce the full merged extent");

    // Merged stats count the tier's work: four pnews total, spread out.
    let stats = c.stats().expect("stats");
    assert_eq!(stats.requests_for(ode_net::Opcode::Pnew), 4);

    // Errors name the id the client asked about: the shard knows it by
    // the same number.
    let ghost: ObjPtr<Doc> = ObjPtr::from_oid(Oid(4242));
    match c.deref(&ghost) {
        Err(NetError::Remote(RemoteError::UnknownObject(oid))) => assert_eq!(oid, Oid(4242)),
        other => panic!("expected unknown-object, got {other:?}"),
    }

    // Deletion through the tier.
    c.pdelete_version(v1).expect("pdelete_version");
    assert_eq!(c.version_count(&p).expect("count after delete"), 1);
    match c.pdelete_version(v2) {
        Err(NetError::Remote(RemoteError::LastVersion(vid))) => assert_eq!(vid, v2.vid()),
        other => panic!("expected last-version refusal, got {other:?}"),
    }
    c.pdelete(p).expect("pdelete");
    assert!(!c.exists(&p).expect("exists after pdelete"));
    assert_eq!(c.objects::<Doc>().expect("objects after delete").len(), 3);

    // The claim is the shard's, on disk: restarted, it still issues
    // ids from its residue.
    let restarted = shards[1];
    cluster.kill_shard(restarted);
    cluster.restart_shard(restarted, server_config);
    let deadline = Instant::now() + Duration::from_secs(10);
    while let Err(NetError::Remote(RemoteError::Unavailable(_))) = c.exists(&ptrs[1]) {
        assert!(
            Instant::now() < deadline,
            "shard {restarted} never came back"
        );
        thread::sleep(Duration::from_millis(20));
    }
    let fresh: Vec<ObjPtr<Doc>> = (0..4)
        .map(|i| {
            c.pnew(&doc(&format!("fresh-{i}"), 1))
                .expect("pnew after restart")
        })
        .collect();
    let mut direct = connect_to_shard(&cluster, restarted);
    let placed: Vec<&ObjPtr<Doc>> = fresh
        .iter()
        .filter(|p| direct.exists(p).expect("direct exists"))
        .collect();
    assert_eq!(
        placed.len(),
        1,
        "round-robin placed one of four on each shard"
    );
    assert_eq!(placed[0].oid().0 % 4, restarted as u64, "{placed:?}");
}

#[test]
fn pipelined_requests_fan_out_and_read_your_writes_holds_per_oid() {
    let config = ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config);
    let mut c =
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect");

    let ptrs: Vec<ObjPtr<Doc>> = (0..8)
        .map(|i| c.pnew(&doc(&format!("p{i}"), 0)).expect("pnew"))
        .collect();

    // A write followed by a pipelined read of the same oid must observe
    // the write: same shard, same backend connection, send order.
    let target = ptrs[3];
    let wseq = c
        .send(&Request::Update {
            oid: target.oid(),
            tag: tag(),
            body: to_bytes(&doc("p3", 77)),
        })
        .expect("send update");
    let rseq = c
        .send(&Request::Deref {
            oid: target.oid(),
            tag: tag(),
        })
        .expect("send deref");
    // Collect the read first — the router must still answer both.
    match c.recv_for(rseq).expect("recv deref") {
        Response::Body { bytes, .. } => {
            let read: Doc = ode_codec::from_bytes(&bytes).expect("decode");
            assert_eq!(read.revision, 77, "read-your-writes per oid");
        }
        other => panic!("expected body, got {other:?}"),
    }
    match c.recv_for(wseq).expect("recv update") {
        Response::Version(_) => {}
        other => panic!("expected version, got {other:?}"),
    }

    // A batch spanning all shards: every request answered under its own
    // sequence id, in request order regardless of shard timing.
    let mut pipe = c.pipeline();
    for ptr in &ptrs {
        pipe.push(&Request::Deref {
            oid: ptr.oid(),
            tag: tag(),
        })
        .expect("push");
    }
    let responses = pipe.run().expect("cross-shard pipeline");
    assert_eq!(responses.len(), 8);
    for (i, resp) in responses.iter().enumerate() {
        match resp {
            Response::Body { bytes, .. } => {
                let read: Doc = ode_codec::from_bytes(bytes).expect("decode");
                let want = if i == 3 { 77 } else { 0 };
                assert_eq!(read.revision, want, "slot {i} answered with wrong body");
            }
            other => panic!("slot {i}: expected body, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Reconnect with backoff
// ---------------------------------------------------------------------------

#[test]
fn a_restarted_shard_comes_back_with_its_data() {
    let mut config = ClusterConfig {
        shards: 2,
        ..ClusterConfig::default()
    };
    config.router.reconnect_backoff = Duration::from_millis(10);
    config.router.connect_timeout = Duration::from_secs(1);
    let server_config = config.server.clone();
    let mut cluster = Cluster::start(config);
    let map = cluster.shard_map();
    let mut c =
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect");

    let a = c.pnew(&doc("on-shard-a", 1)).expect("pnew a");
    let b = c.pnew(&doc("on-shard-b", 1)).expect("pnew b");
    let (sa, sb) = (map.shard_of(a.oid()), map.shard_of(b.oid()));
    assert_ne!(sa, sb, "round-robin spread the two objects");

    cluster.kill_shard(sa);

    // The killed shard's objects fail cleanly; the response may be the
    // in-flight drain (connection died under the request) or the
    // backoff fast-fail — both are Unavailable, never a hang.
    match c.deref(&a) {
        Err(NetError::Remote(RemoteError::Unavailable(_))) => {}
        Err(NetError::Io(_)) => panic!("shard loss must not kill the client connection"),
        other => panic!("expected unavailable, got {other:?}"),
    }
    // The other shard is untouched, same client connection.
    let (body, _) = c.deref(&b).expect("healthy shard still serves");
    assert_eq!(body.title, "on-shard-b");
    // Still unavailable while down (backoff or dial failure, repeatedly).
    for _ in 0..3 {
        match c.deref(&a) {
            Err(NetError::Remote(RemoteError::Unavailable(_))) => {}
            other => panic!("expected unavailable while down, got {other:?}"),
        }
    }

    // Restart on a fresh port behind the same relay address; the
    // router's next dial after the backoff window finds it, and the
    // WAL-recovered data is all there.
    cluster.restart_shard(sa, server_config);
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        match c.deref(&a) {
            Ok(pair) => break pair,
            Err(NetError::Remote(RemoteError::Unavailable(_))) if Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected recovery, got {other:?}"),
        }
    };
    assert_eq!(recovered.0.title, "on-shard-a");
    assert_eq!(recovered.0.revision, 1);
    // And writes flow again.
    c.put(&a, &doc("on-shard-a", 2))
        .expect("write after recovery");
    assert_eq!(c.deref(&a).expect("reread").0.revision, 2);

    let stats = cluster.router_stats();
    assert!(
        stats.shard_failures >= 1,
        "the kill must be counted: {stats:?}"
    );
    assert!(
        stats.backend_connects >= 3,
        "initial dials plus at least one reconnect: {stats:?}"
    );
    assert!(
        stats.unavailable_errors >= 4,
        "each refusal counted: {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// Id claims
// ---------------------------------------------------------------------------

/// A served store on a fresh temp file.
fn shard_server(path: &TempPath) -> (Arc<Database>, OdeServer) {
    let db = Arc::new(Database::create(path, DatabaseOptions::no_sync()).expect("create shard"));
    let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("bind shard");
    (db, server)
}

/// What a refused shard answers through the router.
fn unavailable(result: Result<(Doc, VersionPtr<Doc>), NetError>) -> String {
    match result {
        Err(NetError::Remote(RemoteError::Unavailable(msg))) => msg,
        other => panic!("expected unavailable, got {other:?}"),
    }
}

#[test]
fn a_reordered_backend_list_is_refused_and_the_router_stays_up() {
    let (path_a, path_b) = (TempPath::new(), TempPath::new());
    let (_db_a, a) = shard_server(&path_a);
    let (_db_b, b) = shard_server(&path_b);
    let config = RouterConfig {
        reconnect_backoff: Duration::from_millis(10),
        ..RouterConfig::default()
    };
    let first = OdeRouter::bind(
        "127.0.0.1:0",
        vec![a.local_addr(), b.local_addr()],
        config.clone(),
    )
    .expect("router over a, b");
    let mut c = OdeClient::connect(first.local_addr(), ClientConfig::default()).expect("connect");
    let on_a = c.pnew(&doc("on a", 1)).expect("pnew on a");
    let on_b = c.pnew(&doc("on b", 1)).expect("pnew on b");
    assert_eq!((on_a.oid().0 % 2, on_b.oid().0 % 2), (0, 1));
    drop(c);
    first.shutdown();

    // The same stores, swapped: each now holds the other's residue.
    let swapped = OdeRouter::bind("127.0.0.1:0", vec![b.local_addr(), a.local_addr()], config)
        .expect("router over b, a");
    let mut c = OdeClient::connect(swapped.local_addr(), ClientConfig::default()).expect("connect");
    let msg = unavailable(c.deref(&on_a));
    assert!(msg.contains("residue 0 of 2"), "{msg}");
    assert!(
        msg.contains("stride 2 residue 1"),
        "names the claim it holds: {msg}"
    );
    let msg = unavailable(c.deref(&on_b));
    assert!(msg.contains("residue 1 of 2"), "{msg}");
    // Nothing was written, and the router stays up.
    c.ping().expect("the router answers for itself");
    assert!(swapped.stats().shard_failures >= 2);
    let mut direct = OdeClient::connect(a.local_addr(), ClientConfig::default()).expect("a");
    assert_eq!(direct.deref(&on_a).expect("still on a").0, doc("on a", 1));
    drop(c);
    swapped.shutdown();
}

#[test]
fn a_store_with_dense_ids_is_refused_behind_a_wider_tier() {
    let (dense_path, fresh_path) = (TempPath::new(), TempPath::new());
    let (_dense_db, dense) = shard_server(&dense_path);
    let (_fresh_db, fresh) = shard_server(&fresh_path);
    let mut direct =
        OdeClient::connect(dense.local_addr(), ClientConfig::default()).expect("dense");
    let old = direct
        .pnew(&doc("dense", 1))
        .expect("pnew without a router");
    assert_eq!(old.oid(), Oid(1), "an unclaimed store issues dense ids");
    match direct.claim_ids(2, 0) {
        Err(NetError::Remote(RemoteError::BadRequest(msg))) => {
            assert!(msg.contains("refused claim stride 2 residue 0"), "{msg}")
        }
        other => panic!("expected a refused claim, got {other:?}"),
    }

    let config = RouterConfig {
        reconnect_backoff: Duration::from_millis(10),
        ..RouterConfig::default()
    };
    let router = OdeRouter::bind(
        "127.0.0.1:0",
        vec![dense.local_addr(), fresh.local_addr()],
        config,
    )
    .expect("router");
    let mut c = OdeClient::connect(router.local_addr(), ClientConfig::default()).expect("connect");
    // Oid 1 is the dense store's, but routes to shard 1, the fresh
    // store, which never issued it.
    match c.deref(&old) {
        Err(NetError::Remote(RemoteError::UnknownObject(oid))) => assert_eq!(oid, Oid(1)),
        other => panic!("expected unknown object, got {other:?}"),
    }
    let msg = unavailable(c.deref(&ObjPtr::from_oid(Oid(2))));
    assert!(msg.contains("residue 0 of 2"), "{msg}");
    assert!(msg.contains("unclaimed ids already issued"), "{msg}");
    // The fresh store took its residue and serves.
    let placed: Vec<Result<ObjPtr<Doc>, NetError>> =
        (0..2).map(|i| c.pnew(&doc("placed", i))).collect();
    assert!(
        placed
            .iter()
            .any(|p| matches!(p, Ok(p) if p.oid().0 % 2 == 1)),
        "{placed:?}"
    );
    assert!(placed
        .iter()
        .any(|p| matches!(p, Err(NetError::Remote(RemoteError::Unavailable(_))))));
    drop(c);
    router.shutdown();

    // Alone behind a one-shard router, the dense store is welcome.
    let router = OdeRouter::bind(
        "127.0.0.1:0",
        vec![dense.local_addr()],
        RouterConfig::default(),
    )
    .expect("one-shard router");
    let mut c = OdeClient::connect(router.local_addr(), ClientConfig::default()).expect("connect");
    assert_eq!(c.deref(&old).expect("dense ids serve").0, doc("dense", 1));
    assert_eq!(c.pnew(&doc("next", 2)).expect("pnew").oid(), Oid(2));
    drop(c);
    router.shutdown();
}

// ---------------------------------------------------------------------------
// Sessions on shared threads
// ---------------------------------------------------------------------------

/// A raw handshaken connection to `addr` that reads with `timeout`.
fn raw_session(addr: std::net::SocketAddr, timeout: Duration) -> std::net::TcpStream {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(timeout)).expect("timeout");
    stream.write_all(&MAGIC).expect("magic");
    let mut echo = [0u8; 4];
    stream.read_exact(&mut echo).expect("handshake echo");
    assert_eq!(echo, MAGIC);
    stream
}

/// Send one request frame in one write and read its answer.
fn call(stream: &mut std::net::TcpStream, seq: u64, request: &Request) -> Response {
    use std::io::Write;
    let mut frame = Vec::new();
    write_frame(&mut frame, &request.encode(seq)).expect("frame");
    stream.write_all(&frame).expect("send");
    let mut payload = Vec::new();
    assert!(read_frame_into(stream, &mut payload).expect("answer"));
    let (got, response) = Response::decode(&payload).expect("response");
    assert_eq!(got, seq);
    response
}

/// A shard that accepts connections and never echoes the handshake
/// holds only the thread dialing it: while one session waits out its
/// dial, another session's requests to the healthy shard are answered
/// promptly.
#[test]
fn a_wedged_shard_stalls_only_its_own_dial() {
    let path = TempPath::new();
    let (_db, healthy) = shard_server(&path);
    // Connections queue in its backlog; nothing ever answers them.
    let wedged = std::net::TcpListener::bind("127.0.0.1:0").expect("wedged shard");
    let config = RouterConfig {
        connect_timeout: Duration::from_secs(2),
        ..RouterConfig::default()
    };
    let router = OdeRouter::bind(
        "127.0.0.1:0",
        vec![healthy.local_addr(), wedged.local_addr().expect("addr")],
        config,
    )
    .expect("router");
    let tag = tag();

    let mut a = raw_session(router.local_addr(), Duration::from_secs(10));
    let mut b = raw_session(router.local_addr(), Duration::from_secs(10));
    let stalled = thread::spawn(move || {
        let started = Instant::now();
        let answer = call(&mut a, 1, &Request::Deref { oid: Oid(1), tag });
        (answer, started.elapsed())
    });
    // B runs for longer than A's dial, alternating a ping and a deref
    // of an even oid (the healthy shard's, never issued).
    let started = Instant::now();
    let mut worst = Duration::ZERO;
    let mut seq = 0;
    while started.elapsed() < Duration::from_millis(2500) {
        seq += 1;
        let (request, oid) = if seq % 2 == 1 {
            (Request::Ping, None)
        } else {
            let oid = Oid(2 * seq);
            (Request::Deref { oid, tag }, Some(oid))
        };
        let sent = Instant::now();
        let answer = call(&mut b, seq, &request);
        worst = worst.max(sent.elapsed());
        match (answer, oid) {
            (Response::Pong, None) => {}
            (Response::Err(RemoteError::UnknownObject(got)), Some(oid)) => assert_eq!(got, oid),
            (other, _) => panic!("request {seq} answered {other:?}"),
        }
        thread::sleep(Duration::from_millis(20));
    }
    assert!(
        worst < Duration::from_millis(500),
        "the healthy shard's session waited {worst:?} behind the wedged dial"
    );
    let (answer, waited) = stalled.join().expect("session A");
    assert!(
        matches!(answer, Response::Err(RemoteError::Unavailable(_))),
        "{answer:?}"
    );
    assert!(
        waited >= Duration::from_millis(1500) && waited < Duration::from_secs(5),
        "the wedged dial was answered after {waited:?}"
    );
    router.shutdown();
}

/// One client writes thousands of pipelined requests — far more bytes
/// of answers than the sockets between it and the shards buffer —
/// before it reads a single answer. Every answer arrives under its own
/// seq with the body it should carry, and a read after a write to the
/// same oid sees that write.
#[test]
fn a_pipelined_burst_larger_than_the_socket_buffers_is_answered_in_full() {
    use std::io::{BufReader, Write};

    let cluster = Cluster::start(ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    });
    let body = |oid: usize, revision: usize| {
        let mut bytes = format!("oid {oid} revision {revision} ").into_bytes();
        bytes.resize(2048, b'a' + (revision % 26) as u8);
        bytes
    };
    const OBJECTS: usize = 16;
    let mut c =
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect");
    let oids: Vec<Oid> = (0..OBJECTS)
        .map(|i| c.pnew_raw(tag(), body(i, 0)).expect("pnew").0)
        .collect();
    let shards: std::collections::HashSet<usize> = oids
        .iter()
        .map(|&oid| cluster.shard_map().shard_of(oid))
        .collect();
    assert_eq!(shards.len(), 4, "the objects span every shard");

    // Every 50th request rewrites one of the first four objects; the
    // rest read objects round-robin. `want` is each seq's answer.
    const REQUESTS: usize = 8000;
    let mut current: Vec<usize> = vec![0; OBJECTS];
    let mut burst = Vec::new();
    let mut want: Vec<Option<Vec<u8>>> = Vec::with_capacity(REQUESTS);
    for seq in 0..REQUESTS {
        let request = if seq % 50 == 49 {
            let i = (seq / 50) % 4;
            current[i] = seq;
            want.push(None);
            Request::Update {
                oid: oids[i],
                tag: tag(),
                body: body(i, seq),
            }
        } else {
            let i = seq % OBJECTS;
            want.push(Some(body(i, current[i])));
            Request::Deref {
                oid: oids[i],
                tag: tag(),
            }
        };
        write_frame(&mut burst, &request.encode(seq as u64)).expect("frame");
    }

    let mut stream = raw_session(cluster.router_addr(), Duration::from_secs(60));
    stream
        .set_write_timeout(Some(Duration::from_secs(60)))
        .expect("write timeout");
    stream
        .write_all(&burst)
        .expect("the router took the whole burst");
    let mut reader = BufReader::new(stream);
    let mut answered = vec![false; REQUESTS];
    let mut payload = Vec::new();
    for _ in 0..REQUESTS {
        assert!(read_frame_into(&mut reader, &mut payload).expect("answer"));
        let (seq, response) = Response::decode(&payload).expect("response");
        let seq = seq as usize;
        assert!(
            !std::mem::replace(&mut answered[seq], true),
            "seq {seq} twice"
        );
        match (&want[seq], response) {
            (Some(expected), Response::Body { bytes, .. }) => {
                assert!(&bytes == expected, "seq {seq} read a stale or foreign body")
            }
            (None, Response::Version(_)) => {}
            (_, other) => panic!("seq {seq} answered {other:?}"),
        }
    }
    drop(reader);
}

/// A log subscription concerns one node: through the router `Subscribe`
/// and `Ack` are refused with `BadRequest`, never forwarded to a shard
/// and never answered with a stream.
#[test]
fn the_router_refuses_subscriptions_and_acks() {
    let paths = [TempPath::new(), TempPath::new()];
    let shards: Vec<(Arc<Database>, OdeServer)> = paths.iter().map(shard_server).collect();
    let backends = shards.iter().map(|(_, s)| s.local_addr()).collect();
    let router = OdeRouter::bind("127.0.0.1:0", backends, RouterConfig::default()).expect("router");
    let mut stream = raw_session(router.local_addr(), Duration::from_millis(300));

    let subscribe = Request::Subscribe {
        gen: 0,
        have_pos: u64::MAX,
        have_epoch: 0,
    };
    let ack = Request::Ack { pos: 0, epoch: 0 };
    for (seq, request) in [(5, subscribe), (6, ack)] {
        match call(&mut stream, seq, &request) {
            Response::Err(RemoteError::BadRequest(_)) => {}
            other => panic!("{request:?} answered {other:?}"),
        }
    }
    assert_eq!(call(&mut stream, 7, &Request::Ping), Response::Pong);
    // Nothing more arrives: no stream follows the refusal.
    let mut payload = Vec::new();
    match read_frame_into(&mut stream, &mut payload) {
        Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::TimedOut => {}
        other => panic!("a frame followed the refusals: {other:?} {payload:?}"),
    }
    for (_, shard) in &shards {
        let stats = shard.stats();
        assert_eq!(stats.requests_for(ode_net::Opcode::Subscribe), 0);
        assert_eq!(stats.requests_for(ode_net::Opcode::Ack), 0);
        assert_eq!(shard.replica_count(), 0);
    }
    router.shutdown();
}
