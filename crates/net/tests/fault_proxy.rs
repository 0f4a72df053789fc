//! Fault injection: a chaos TCP relay ([`FaultRelay`]) sits between
//! client and server, splitting streams at arbitrary byte boundaries,
//! delaying delivery, and cutting connections mid-pipeline. The
//! protocol must shrug off fragmentation, surface connection loss as a
//! clean error, and never silently retry a write.
//!
//! The second half is the cluster battery: the same faults pointed at
//! one shard of a 4-shard tier. Killing a shard mid-pipeline must fail
//! exactly that shard's requests — cleanly, per request — while the
//! rest of the batch completes, and a write whose response is lost in
//! the cut must execute exactly once, never silently retried by any
//! layer.
//!
//! Deterministic by construction: the relay's byte budgets make
//! connection death exact to the byte (no timers to race), and the
//! router's round-robin placement makes shard assignment exact from a
//! fresh cluster. Run under `RUST_TEST_THREADS=1` in CI.

use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ode::{Database, DatabaseOptions, ObjPtr, RawRead, Session};
use ode_codec::{impl_persist_struct, impl_type_name};
use ode_net::protocol::write_frame;
use ode_net::{
    ClientConfig, Cluster, ClusterConfig, FaultRelay, NetError, OdeClient, OdeServer, Opcode,
    RelayPlan, RemoteError, Request, Response, ServerConfig,
};
use ode_storage::testutil::TempPath;

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    title: String,
    revision: u64,
}
impl_persist_struct!(Doc { title, revision });
impl_type_name!(Doc = "fault-test/Doc");

fn start_server(path: &Path) -> (Arc<Database>, OdeServer) {
    let db = Arc::new(Database::create(path, DatabaseOptions::no_sync()).expect("create db"));
    let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("bind server");
    (db, server)
}

// ---------------------------------------------------------------------------
// Single server behind the relay
// ---------------------------------------------------------------------------

#[test]
fn frames_split_at_every_byte_boundary_still_work() {
    let path = TempPath::new();
    let (_db, server) = start_server(&path);
    // One byte at a time with a delay: every frame arrives maximally
    // fragmented in both directions.
    let plan = RelayPlan {
        chunk: 1,
        delay: Duration::from_micros(50),
        ..RelayPlan::clean()
    };
    let relay = FaultRelay::start(server.local_addr(), vec![plan]).expect("start relay");

    let mut c = Session::new(
        OdeClient::connect(relay.local_addr(), ClientConfig::default()).expect("connect via relay"),
    );
    let p = c
        .pnew(&Doc {
            title: "fragmented".into(),
            revision: 1,
        })
        .expect("pnew through 1-byte chunks");
    let v1 = c.current_version(&p).expect("current_version");
    let v2 = c.newversion(&p).expect("newversion");
    let doc = c.deref(&p).expect("deref");
    let vid = doc.version();
    assert_eq!(vid, v2);
    assert_eq!(doc.revision, 1);
    assert_eq!(c.version_history(&p).expect("history"), vec![v1, v2]);

    // A pipelined batch through the same shredded connection.
    let mut pipe = c.raw().pipeline();
    for _ in 0..5 {
        pipe.push(&Request::Deref {
            oid: p.oid(),
            tag: ObjPtr::<Doc>::tag(),
        })
        .expect("push");
    }
    let responses = pipe.run().expect("pipelined batch over fragments");
    for r in responses {
        match r {
            Response::Body { vid: got, .. } => assert_eq!(got, v2.vid()),
            other => panic!("expected body, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn connection_cut_mid_pipeline_surfaces_a_clean_error() {
    let path = TempPath::new();
    let (_db, server) = start_server(&path);
    // First connection: the handshake echo (4 bytes) plus a handful of
    // response bytes pass, then the stream dies mid-frame. Later
    // connections are clean.
    let plan = RelayPlan {
        s2c_budget: 4 + 9,
        ..RelayPlan::clean()
    };
    let relay = FaultRelay::start(server.local_addr(), vec![plan]).expect("start relay");

    let mut c = Session::new(
        OdeClient::connect(relay.local_addr(), ClientConfig::default()).expect("connect via relay"),
    );
    let tag = ObjPtr::<Doc>::tag();

    // Pipeline enough reads that the response stream necessarily blows
    // past the budget.
    let mut pipe = c.raw().pipeline();
    for _ in 0..10 {
        pipe.push(&Request::Exists { oid: ode::Oid(1) })
            .expect("push");
    }
    match pipe.run() {
        Err(NetError::Io(_)) => {} // the clean surface we demand
        Ok(_) => panic!("the cut connection cannot deliver every response"),
        Err(other) => panic!("expected an I/O error, got {other:?}"),
    }

    // The client recovers on a fresh (clean) connection.
    let p = c
        .pnew(&Doc {
            title: "after the cut".into(),
            revision: 0,
        })
        .expect("pnew after reconnect");
    let (_, bytes) = c
        .raw()
        .deref_raw(p.oid(), tag)
        .expect("deref after reconnect");
    assert!(!bytes.is_empty());
    server.shutdown();
}

#[test]
fn writes_are_never_silently_retried() {
    let path = TempPath::new();
    let (_db, server) = start_server(&path);
    // First connection: the 4-byte handshake echo plus ONE more byte
    // reach the client. That extra byte can only be the start of a
    // response frame — proof the server processed the request — and
    // then the stream dies mid-frame, so the response itself is lost.
    // Exactly the ambiguous-outcome window.
    let plan = RelayPlan {
        s2c_budget: 4 + 1,
        ..RelayPlan::clean()
    };
    let relay = FaultRelay::start(server.local_addr(), vec![plan]).expect("start relay");

    let mut c = Session::new(
        OdeClient::connect(relay.local_addr(), ClientConfig::default()).expect("connect via relay"),
    );
    match c.pnew(&Doc {
        title: "ambiguous".into(),
        revision: 0,
    }) {
        Err(NetError::Io(_)) => {} // outcome unknown, surfaced to the caller
        Ok(_) => panic!("no response can have arrived through a 4-byte budget"),
        Err(other) => panic!("expected an I/O error, got {other:?}"),
    }

    // The server executed the write exactly once: one Pnew counted, one
    // object in the extent. A silent retry would show two of each.
    // (Reads, by contrast, reconnect freely — `objects` succeeding on a
    // fresh connection right after the failure is that asymmetry.)
    let objects = c.objects::<Doc>().expect("objects on a fresh connection");
    assert_eq!(objects.len(), 1, "exactly one execution of the lost write");
    assert_eq!(server.stats().requests_for(Opcode::Pnew), 1);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Cluster battery: the same faults against one shard of a 4-shard tier
// ---------------------------------------------------------------------------

fn doc(title: &str, revision: u64) -> Doc {
    Doc {
        title: title.into(),
        revision,
    }
}

#[test]
fn a_killed_shard_fails_only_its_own_requests_and_never_replays_a_write() {
    let mut cluster = Cluster::start(ClusterConfig::default());
    let map = cluster.shard_map();
    let mut c = Session::new(
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect"),
    );

    // Two objects per shard, placed by round-robin from a fresh router.
    let ptrs: Vec<ObjPtr<Doc>> = (0..8)
        .map(|i| c.pnew(&doc(&format!("m{i}"), i)).expect("pnew"))
        .collect();

    // Baseline: the full batch succeeds.
    let mut pipe = c.raw().pipeline();
    for ptr in &ptrs {
        pipe.push(&Request::Deref {
            oid: ptr.oid(),
            tag: ObjPtr::<Doc>::tag(),
        })
        .expect("push");
    }
    for r in pipe.run().expect("baseline batch") {
        assert!(matches!(r, Response::Body { .. }), "baseline slot: {r:?}");
    }

    let victim = map.shard_of(ptrs[1].oid());
    cluster.kill_shard(victim);

    // The same batch again: the dead shard's slots fail with a clean
    // per-request Unavailable error frame; every other slot still gets
    // its body, on the same client connection, in request order.
    let mut pipe = c.raw().pipeline();
    for ptr in &ptrs {
        pipe.push(&Request::Deref {
            oid: ptr.oid(),
            tag: ObjPtr::<Doc>::tag(),
        })
        .expect("push");
    }
    for (i, result) in pipe.run_each().into_iter().enumerate() {
        let response = result.expect("the client connection must survive a shard loss");
        if map.shard_of(ptrs[i].oid()) == victim {
            match response {
                Response::Err(RemoteError::Unavailable(_)) => {}
                other => panic!("slot {i} (dead shard): expected unavailable, got {other:?}"),
            }
        } else {
            assert!(
                matches!(response, Response::Body { .. }),
                "slot {i} (live shard) must be untouched: {response:?}"
            );
        }
    }

    // A write aimed at the dead shard is refused, not queued: the
    // Unavailable contract says it was never executed.
    match c.put(&ptrs[1], &doc("m1", 1000)) {
        Err(NetError::Remote(RemoteError::Unavailable(_))) => {}
        other => panic!("expected unavailable write refusal, got {other:?}"),
    }
    // Writes to live shards are unaffected.
    c.put(&ptrs[2], &doc("m2", 2000)).expect("live-shard write");

    // Bring the shard back and prove the refused write never happened —
    // and was never silently replayed by the router or the client. The
    // restarted server's counters start at zero, so any replay would
    // show up as an Update it never received from us.
    cluster.restart_shard(victim, ServerConfig::default());
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        match c.deref(&ptrs[1]) {
            Ok(body) => break body.into_inner(),
            Err(NetError::Remote(RemoteError::Unavailable(_))) if Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected recovery, got {other:?}"),
        }
    };
    assert_eq!(recovered.revision, 1, "the refused write must not exist");
    assert_eq!(
        cluster.shard_stats(victim).requests_for(Opcode::Update),
        0,
        "nothing may replay the refused write after restart"
    );
    c.put(&ptrs[1], &doc("m1", 3000))
        .expect("write after recovery");
    assert_eq!(cluster.shard_stats(victim).requests_for(Opcode::Update), 1);
}

#[test]
fn a_write_whose_response_dies_in_the_cut_executes_exactly_once() {
    let mut config = ClusterConfig::default();
    // Fast reconnect so the post-fault verification doesn't dawdle.
    config.router.reconnect_backoff = Duration::from_millis(10);
    let cluster = Cluster::start(config);
    let map = cluster.shard_map();

    // Seed through one client, then drop it: the next backend
    // connection each shard's relay accepts belongs to the next client.
    let target = {
        let mut seeder = Session::new(
            OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("seeder"),
        );
        let ptrs: Vec<ObjPtr<Doc>> = (0..4)
            .map(|i| seeder.pnew(&doc(&format!("s{i}"), 1)).expect("pnew"))
            .collect();
        ptrs[0]
    };
    let victim = map.shard_of(target.oid());

    // The victim relay's next connection forwards the router→shard
    // handshake echo (4 bytes) and the answer to the router's id claim
    // (one frame), plus ONE byte of the first response, then dies
    // mid-frame: the shard *has executed* the request, the router can
    // never read the outcome. Budgets make this exact — no timing
    // involved.
    let mut claim_answer = Vec::new();
    write_frame(&mut claim_answer, &Response::Unit.encode(0)).expect("frame");
    cluster.relay(victim).set_plans(vec![RelayPlan {
        s2c_budget: 4 + claim_answer.len() + 1,
        ..RelayPlan::clean()
    }]);

    let mut c = Session::new(
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect"),
    );
    match c.put(&target, &doc("s0", 99)) {
        Err(NetError::Remote(RemoteError::Unavailable(_))) => {}
        other => panic!("expected unavailable (outcome unknown), got {other:?}"),
    }

    // The shard executed it exactly once; nothing retried it.
    assert_eq!(cluster.shard_stats(victim).requests_for(Opcode::Update), 1);

    // After the budgeted connection died, the next dial is clean (the
    // plan list is spent) — the write's effect is there, once.
    let deadline = Instant::now() + Duration::from_secs(10);
    let body = loop {
        match c.deref(&target) {
            Ok(body) => break body.into_inner(),
            Err(NetError::Remote(RemoteError::Unavailable(_))) if Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected eventual reconnect, got {other:?}"),
        }
    };
    assert_eq!(body.revision, 99, "the executed write must be visible");
    assert_eq!(
        cluster.shard_stats(victim).requests_for(Opcode::Update),
        1,
        "no layer may have silently retried the write"
    );
}

/// The relays re-send each frame in several writes; with Nagle left on
/// every multi-segment frame stalled ~40 ms on the peer's delayed ACK,
/// which made `Cluster` an order of magnitude slower per routed round
/// than the tier it stands in for.
#[test]
fn a_clean_relay_adds_no_delayed_ack_stall_to_a_multi_segment_frame() {
    let cluster = Cluster::start(ClusterConfig::default());
    let mut c = Session::new(
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect"),
    );
    let ptr = c.pnew(&doc(&"x".repeat(4096), 1)).expect("pnew");
    let mut round_trips: Vec<Duration> = (0..9)
        .map(|_| {
            let start = std::time::Instant::now();
            let got = c.deref(&ptr).expect("deref through the relay");
            assert_eq!(got.title.len(), 4096);
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "4 KB Deref round trips through a clean relay: median {median:?}, all {round_trips:?}"
    );
}
