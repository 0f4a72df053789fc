//! The replicated tier end to end: replica reads behind the epoch
//! gate, sticky read-your-writes, driven failover after a primary
//! crash, lost-tail semantics, and kill-mid-ship recovery — all
//! through a real router over real sockets, with faults injected by
//! the cluster harness relays.
//!
//! (Fenced ex-primary *rejoin* is covered one layer down —
//! `tests/replication.rs` — where both lineages' disks are
//! directly observable.)

use std::thread;
use std::time::{Duration, Instant};

use ode::ObjPtr;
use ode_codec::{impl_persist_struct, impl_type_name};
use ode_net::{ClientConfig, Cluster, ClusterConfig, NetError, OdeClient, RelayPlan, RemoteError};

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    title: String,
    revision: u64,
}
impl_persist_struct!(Doc { title, revision });
impl_type_name!(Doc = "repl-tier/Doc");

fn doc(title: &str, revision: u64) -> Doc {
    Doc {
        title: title.into(),
        revision,
    }
}

/// A cluster config with a prompt prober, for fast failover tests.
fn repl_config(shards: usize, replicas: usize) -> ClusterConfig {
    let mut config = ClusterConfig {
        shards,
        replicas,
        ..ClusterConfig::default()
    };
    config.router.probe_interval = Duration::from_millis(20);
    config.router.failover_after = 3;
    config.router.reconnect_backoff = Duration::from_millis(10);
    config.router.connect_timeout = Duration::from_secs(1);
    config
}

/// Poll `check` until it passes or the deadline trips.
fn wait_until(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// Wait until the router's prober has seen every replica of `shard`
/// alive and caught up to the primary's current epoch.
fn wait_router_sees_caught_up(cluster: &Cluster, shard: usize) {
    let target = cluster.primary_epoch(shard);
    wait_until("router sees caught-up replicas", || {
        let (_, primary_epoch, replicas) = cluster.shard_members(shard);
        primary_epoch >= target
            && !replicas.is_empty()
            && replicas.iter().all(|(_, e)| e.is_some_and(|e| e >= target))
    });
}

fn connect(cluster: &Cluster) -> OdeClient {
    OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect")
}

// ---------------------------------------------------------------------------
// Replica reads
// ---------------------------------------------------------------------------

#[test]
fn reads_are_served_from_replicas_and_writes_flip_a_session_to_the_primary() {
    let cluster = Cluster::start(repl_config(2, 1));
    let mut writer = connect(&cluster);

    let ptrs: Vec<ObjPtr<Doc>> = (0..6)
        .map(|i| writer.pnew(&doc(&format!("doc-{i}"), i)).expect("pnew"))
        .collect();
    for shard in 0..2 {
        wait_router_sees_caught_up(&cluster, shard);
    }

    // The writer session wrote to both shards: its reads stay on the
    // primaries (sticky read-your-writes), so replica deref counts
    // don't move.
    let replica_derefs_before: u64 = (0..2)
        .map(|s| {
            cluster
                .replica_stats(s, 0)
                .requests_for(ode_net::Opcode::Deref)
        })
        .sum();
    for (i, p) in ptrs.iter().enumerate() {
        let (body, _) = writer.deref(p).expect("writer deref");
        assert_eq!(body.revision, i as u64);
    }
    let replica_derefs_after: u64 = (0..2)
        .map(|s| {
            cluster
                .replica_stats(s, 0)
                .requests_for(ode_net::Opcode::Deref)
        })
        .sum();
    assert_eq!(
        replica_derefs_before, replica_derefs_after,
        "a session that wrote must read from the primary"
    );

    // A fresh session that never wrote reads from the replicas, pinned
    // at the primary epoch the router last probed — same values.
    let mut reader = connect(&cluster);
    for (i, p) in ptrs.iter().enumerate() {
        let (body, _) = reader.deref(p).expect("replica deref");
        assert_eq!(body.revision, i as u64);
        assert_eq!(body.title, format!("doc-{i}"));
    }
    let stats = cluster.router_stats();
    assert!(
        stats.replica_reads >= 6,
        "reads must have hit the replica bank: {stats:?}"
    );
    let replica_derefs_final: u64 = (0..2)
        .map(|s| {
            cluster
                .replica_stats(s, 0)
                .requests_for(ode_net::Opcode::Deref)
        })
        .sum();
    assert!(
        replica_derefs_final >= replica_derefs_after + 6,
        "the replica servers must have answered the reader"
    );

    // Merged tier stats surface the shipping counters from every
    // primary; nothing failed over.
    let merged = reader.stats().expect("stats");
    assert!(merged.storage.bytes_shipped > 0, "{merged:?}");
    assert_eq!(merged.storage.failovers, 0);
}

#[test]
fn a_replica_refuses_writes() {
    let cluster = Cluster::start(repl_config(1, 1));
    let (_, _, replicas) = cluster.shard_members(0);
    let mut direct =
        OdeClient::connect(replicas[0].0, ClientConfig::default()).expect("connect replica");
    match direct.pnew(&doc("nope", 1)) {
        Err(NetError::Remote(RemoteError::Unavailable(msg))) => {
            assert!(msg.contains("read-only"), "unexpected message: {msg}")
        }
        other => panic!("expected unavailable, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// The epoch gate
// ---------------------------------------------------------------------------

#[test]
fn a_lagging_replica_never_serves_state_older_than_the_pinned_epoch() {
    let cluster = Cluster::start(repl_config(1, 1));
    let mut writer = connect(&cluster);

    let p = writer.pnew(&doc("gated", 1)).expect("pnew");
    wait_router_sees_caught_up(&cluster, 0);

    // Cut the shipping channel, then advance the primary: the replica
    // is now stale at revision 1 while the primary (and soon the
    // router's probed epoch) is at revision 2.
    cluster.partition_replica(0, 0, true);
    wait_until("the primary notices the dead subscription", || {
        cluster.primary(0).replica_count() == 0
    });
    writer.put(&p, &doc("gated", 2)).expect("put");
    let advanced = cluster.primary_epoch(0);
    wait_until("router probes the advanced primary", || {
        cluster.shard_members(0).1 >= advanced
    });

    // A fresh reader dials the replica with its floor pinned at the
    // probed primary epoch. The replica hasn't applied it, so the gate
    // must hold the read — never answer revision 1 — until the channel
    // heals and the tail arrives.
    let handle = thread::spawn({
        let addr = cluster.router_addr();
        move || {
            let mut reader = OdeClient::connect(addr, ClientConfig::default()).expect("reader");
            reader.deref(&p).expect("gated deref").0
        }
    });
    thread::sleep(Duration::from_millis(300));
    cluster.partition_replica(0, 0, false);
    let body = handle.join().expect("reader thread");
    assert_eq!(
        body.revision, 2,
        "the gate must never expose pre-floor state"
    );
}

// ---------------------------------------------------------------------------
// Driven failover
// ---------------------------------------------------------------------------

#[test]
fn the_router_promotes_a_replica_when_the_primary_dies() {
    // The test is the prober: the background one fires once at start-up
    // and then sleeps out the hour, and a failed connection may be
    // redialled at once, so nothing below waits on a clock.
    let mut config = repl_config(1, 1);
    config.router.probe_interval = Duration::from_secs(3600);
    config.router.reconnect_backoff = Duration::ZERO;
    let failover_after = config.router.failover_after;
    let mut cluster = Cluster::start(config);
    // The start-up round must have published before the test steps
    // rounds itself: one still in flight when the primary dies would
    // count a failed probe of its own.
    wait_until("the start-up probe round", || {
        cluster.shard_members(0).2[0].1.is_some()
    });
    let mut c = connect(&cluster);

    let ptrs: Vec<ObjPtr<Doc>> = (0..10)
        .map(|i| c.pnew(&doc(&format!("acked-{i}"), i)).expect("pnew"))
        .collect();
    // Semi-sync is best-effort under load, so wait for the apply stream
    // itself; one probe round then shows the router a caught-up replica.
    let target = cluster.primary_epoch(0);
    wait_until("replica applies every acked write", || {
        cluster.replica_status(0, 0).epoch >= target
    });
    cluster.probe(0);
    let (old_primary, _, replicas) = cluster.shard_members(0);
    let replica_addr = replicas[0].0;
    assert!(replicas[0].1.is_some_and(|e| e >= target), "{replicas:?}");

    cluster.kill_primary(0);

    // Writes fail `Unavailable` (strict no-retry) for as long as the
    // dead primary is the shard's primary: through every failed probe
    // round short of `failover_after`.
    for round in 1..failover_after {
        cluster.probe(0);
        assert_eq!(cluster.shard_members(0).0, old_primary, "round {round}");
        match c.pnew(&doc("too-early", 666)) {
            Err(NetError::Remote(RemoteError::Unavailable(_))) => {}
            other => panic!("round {round}: expected unavailable, got {other:?}"),
        }
    }
    assert_eq!(cluster.router_stats().failovers, 0);

    // The round that reaches `failover_after` promotes, synchronously;
    // the same session's next write lands on the promoted replica.
    cluster.probe(0);
    let (new_primary, _, new_replicas) = cluster.shard_members(0);
    assert_eq!(new_primary, replica_addr, "the replica must be primary");
    assert_eq!(
        new_replicas[0].0, old_primary,
        "the dead primary is kept as a (unreachable) replica"
    );
    let after = c.pnew(&doc("after-failover", 777)).expect("write after");

    // Every acknowledged write survived onto the promoted node, and
    // the tier keeps serving both old and new data.
    for (i, p) in ptrs.iter().enumerate() {
        let (body, _) = c.deref(p).expect("acked read after failover");
        assert_eq!(body.revision, i as u64, "acked write lost in failover");
    }
    assert_eq!(c.deref(&after).expect("new write").0.revision, 777);

    assert_eq!(cluster.router_stats().failovers, 1);
    let merged = c.stats().expect("stats");
    assert_eq!(
        merged.storage.failovers, 1,
        "the promoted node reports its promotion: {merged:?}"
    );
}

#[test]
fn a_promoted_replica_issues_ids_from_its_shards_residue() {
    // Stepped like the failover test above: nothing waits on a clock.
    let mut config = repl_config(2, 1);
    config.router.probe_interval = Duration::from_secs(3600);
    config.router.reconnect_backoff = Duration::ZERO;
    let failover_after = config.router.failover_after;
    let mut cluster = Cluster::start(config);
    let mut c = connect(&cluster);

    // Shard 1 claims residue 1 of 2 on first contact; the claim ships
    // to its replica with the objects after it.
    let before: Vec<ObjPtr<Doc>> = (0..4)
        .map(|i| c.pnew(&doc("before", i)).expect("pnew"))
        .collect();
    let target = cluster.primary_epoch(1);
    wait_until("shard 1's replica applies every acked write", || {
        cluster.replica_status(1, 0).epoch >= target
    });
    cluster.probe(1);
    cluster.kill_primary(1);
    for _ in 0..failover_after {
        cluster.probe(1);
    }
    assert_eq!(cluster.router_stats().failovers, 1);

    // Round-robin placement puts one of the next two objects on the
    // promoted node, which issues its id from shard 1's residue.
    let after: Vec<ObjPtr<Doc>> = (0..2)
        .map(|i| c.pnew(&doc("after", i)).expect("pnew after failover"))
        .collect();
    let promoted = cluster.shard_members(1).0;
    let mut direct = OdeClient::connect(promoted, ClientConfig::default()).expect("promoted");
    let on_promoted: Vec<&ObjPtr<Doc>> = after
        .iter()
        .filter(|p| direct.exists(p).expect("direct exists"))
        .collect();
    assert_eq!(on_promoted.len(), 1, "{after:?}");
    let p = on_promoted[0];
    assert_eq!(p.oid().0 % 2, 1, "{p:?}");
    assert!(before.iter().all(|b| b.oid() != p.oid()), "a fresh id");
    let v = c.newversion(p).expect("newversion on the promoted node");
    assert_eq!(v.vid().0 % 2, 1, "{v:?}");
}

#[test]
fn a_lost_tail_is_fenced_never_resurrected() {
    let mut cluster = Cluster::start(repl_config(1, 1));
    let mut c = connect(&cluster);

    let shared: Vec<ObjPtr<Doc>> = (0..4)
        .map(|i| c.pnew(&doc(&format!("shared-{i}"), i)).expect("pnew"))
        .collect();
    wait_router_sees_caught_up(&cluster, 0);

    // Partition the shipping channel, then write more: these commits
    // are acknowledged (semi-sync degrades after its bounded wait) but
    // never shipped — the lost tail.
    cluster.partition_replica(0, 0, true);
    wait_until("the primary notices the dead subscription", || {
        cluster.primary(0).replica_count() == 0
    });
    let lost: Vec<ObjPtr<Doc>> = (0..2)
        .map(|i| c.pnew(&doc("lost", 900 + i)).expect("pnew lost"))
        .collect();

    // The primary dies; the router promotes the replica, whose state
    // ends at the last shipped commit.
    cluster.partition_replica(0, 0, false);
    cluster.kill_primary(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match c.pnew(&doc("new-lineage", 4242)) {
            Ok(_) => break,
            Err(NetError::Remote(RemoteError::Unavailable(_))) if Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected eventual success, got {other:?}"),
        }
    }

    // The shared prefix survived; the lost tail is unobservable. (Its
    // oids may be re-allocated by the new lineage, so the assertion is
    // "never the lost value", not "necessarily unknown".)
    for (i, p) in shared.iter().enumerate() {
        assert_eq!(c.deref(p).expect("shared read").0.revision, i as u64);
    }
    for p in &lost {
        match c.deref(p) {
            Ok((body, _)) => {
                assert_ne!(body.title, "lost", "lost-tail write resurrected: {body:?}")
            }
            Err(NetError::Remote(RemoteError::UnknownObject(_))) => {}
            other => panic!("unexpected outcome for fenced oid: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Kill-mid-ship
// ---------------------------------------------------------------------------

#[test]
fn shipping_survives_repeated_mid_chunk_cuts() {
    let cluster = Cluster::start(repl_config(1, 1));
    let mut writer = connect(&cluster);

    // The first few subscriptions die mid-chunk (primary→replica is
    // the relay's server→client direction); later ones are clean. The
    // replica must re-bootstrap or resume each time without applying a
    // torn commit.
    cluster.repl_relay(0, 0).set_plans(vec![
        RelayPlan {
            s2c_budget: 1200,
            chunk: 193,
            ..RelayPlan::clean()
        },
        RelayPlan {
            s2c_budget: 2800,
            chunk: 389,
            ..RelayPlan::clean()
        },
    ]);
    cluster.repl_relay(0, 0).cut_all();

    let ptrs: Vec<ObjPtr<Doc>> = (0..30)
        .map(|i| {
            writer
                .pnew(&doc(&format!("churn-{i}"), i))
                .expect("pnew under shipping faults")
        })
        .collect();

    wait_until("replica converges through the cuts", || {
        cluster.replica_status(0, 0).epoch >= cluster.primary_epoch(0)
    });
    wait_router_sees_caught_up(&cluster, 0);

    // A fresh reader (replica bank) sees every committed value.
    let mut reader = connect(&cluster);
    for (i, p) in ptrs.iter().enumerate() {
        let (body, _) = reader.deref(p).expect("read after convergence");
        assert_eq!(body.revision, i as u64);
    }
    assert!(cluster.router_stats().replica_reads > 0);
}
