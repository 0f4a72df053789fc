//! Integration tests for the `ode-router` shard tier.
//!
//! Three angles: cross-topology conformance (a 1-shard router must be
//! byte-indistinguishable from a direct server), full typed flows
//! through a 4-shard tier (placement, translation, scatter merges,
//! read-your-writes per oid), and reconnect-with-backoff after a shard
//! restart.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ode::{Database, DatabaseOptions, Oid};
use ode_codec::{impl_persist_struct, impl_type_name, to_bytes};
use ode_net::{
    ClientConfig, ClientObjPtr, Cluster, ClusterConfig, NetError, OdeClient, OdeRouter, OdeServer,
    RemoteError, Request, Response, RouterConfig, ServerConfig,
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
    ClientObjPtr::<Doc>::tag()
}

// ---------------------------------------------------------------------------
// Cross-topology conformance
// ---------------------------------------------------------------------------

/// Run the same request sequence against a direct server and a 1-shard
/// router in lockstep, asserting every response frame is byte-identical
/// (sequence ids included — both clients count from zero). With one
/// shard the id translation is the identity, so the tier must be
/// invisible: same ids, same bodies, same errors, same extent order.
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

    drop(routed);
    drop(direct);
    router.shutdown();
    routed_server.shutdown();
    direct_server.shutdown();
}

// ---------------------------------------------------------------------------
// Four-shard typed flows
// ---------------------------------------------------------------------------

#[test]
fn full_versioning_flow_through_a_four_shard_tier() {
    let config = ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config);
    let map = cluster.shard_map();
    let mut c =
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect");

    // Round-robin placement: four creations land on four shards.
    let ptrs: Vec<ClientObjPtr<Doc>> = (0..4)
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
        "history is the object's, translated back to client ids"
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

    // Errors translate their ids back: the client sees the id it asked
    // about, not the backend-local one.
    let ghost: ClientObjPtr<Doc> = ClientObjPtr::from_oid(Oid(4242));
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

    let ptrs: Vec<ClientObjPtr<Doc>> = (0..8)
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
