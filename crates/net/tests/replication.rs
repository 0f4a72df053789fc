//! End-to-end shipping over real sockets: a replica subscribes on the
//! primary server's data port — snapshot bootstrap, WAL tail, semi-sync
//! acks, promotion fencing, and fenced-ex-primary rejoin — all against
//! loopback TCP with real databases.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ode::{Database, DatabaseOptions, ObjPtr, Session};
use ode_codec::{impl_persist_struct, impl_type_name};
use ode_net::{ClientConfig, OdeClient, OdeServer, ReplicaNode, ServerConfig};

#[derive(Debug, Clone, PartialEq)]
struct Account {
    balance: u64,
    note: String,
}
impl_persist_struct!(Account { balance, note });
impl_type_name!(Account = "repl/Account");

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ode-replication-{name}-{}", std::process::id()));
    cleanup(&path);
    path
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.to_path_buf().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

fn options() -> DatabaseOptions {
    DatabaseOptions::no_sync()
}

/// Poll `check` until it passes or the deadline trips.
fn wait_until(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn write_account(db: &Database, balance: u64) -> ObjPtr<Account> {
    let mut txn = db.begin();
    let p = txn
        .pnew(&Account {
            balance,
            note: format!("acct-{balance}"),
        })
        .unwrap();
    txn.commit().unwrap();
    p
}

fn read_balance(db: &Database, p: &ObjPtr<Account>) -> u64 {
    let mut snap = db.snapshot();
    snap.deref(p).unwrap().balance
}

#[test]
fn snapshot_bootstrap_then_continuous_tail() {
    let ppath = temp_path("tail-p");
    let rpath = temp_path("tail-r");

    let primary = Arc::new(Database::create(&ppath, options()).unwrap());
    let mut ptrs: Vec<ObjPtr<Account>> = (0..10).map(|i| write_account(&primary, i)).collect();

    let server =
        OdeServer::bind(Arc::clone(&primary), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let replica = Arc::new(Database::create(&rpath, options()).unwrap());
    let node = ReplicaNode::start(Arc::clone(&replica), server.local_addr().to_string());

    // Bootstrap: the replica converges on the pre-existing state.
    let target = primary.snapshot_epoch();
    wait_until("bootstrap catch-up", || node.status().epoch >= target);
    for (i, p) in ptrs.iter().enumerate() {
        assert_eq!(read_balance(&replica, p), i as u64);
    }
    assert_eq!(replica.snapshot_epoch(), primary.snapshot_epoch());

    // Continuous tail: new commits arrive without re-bootstrapping.
    for i in 10..25 {
        ptrs.push(write_account(&primary, i));
    }
    let target = primary.snapshot_epoch();
    wait_until("tail catch-up", || node.status().epoch >= target);
    for (i, p) in ptrs.iter().enumerate() {
        assert_eq!(read_balance(&replica, p), i as u64);
    }
    assert!(primary.storage_stats().bytes_shipped > 0);
    assert_eq!(server.replica_count(), 1);

    // The semi-sync barrier observes the already-acked epoch.
    assert!(server.wait_replicated(target, Duration::from_secs(5)));

    node.stop();
    server.shutdown();
    cleanup(&ppath);
    cleanup(&rpath);
}

#[test]
fn wait_replicated_without_replicas_fails_fast() {
    let ppath = temp_path("nowait-p");
    let primary = Arc::new(Database::create(&ppath, options()).unwrap());
    write_account(&primary, 1);
    let server =
        OdeServer::bind(Arc::clone(&primary), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let start = Instant::now();
    assert!(!server.wait_replicated(primary.snapshot_epoch(), Duration::from_secs(5)));
    // No replica connected: returns immediately, not at the timeout.
    assert!(start.elapsed() < Duration::from_secs(2));
    server.shutdown();
    cleanup(&ppath);
}

#[test]
fn promotion_after_primary_death_keeps_acked_commits() {
    let ppath = temp_path("promo-p");
    let rpath = temp_path("promo-r");

    let primary = Arc::new(Database::create(&ppath, options()).unwrap());
    let server =
        OdeServer::bind(Arc::clone(&primary), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let replica = Arc::new(Database::create(&rpath, options()).unwrap());
    let node = ReplicaNode::start(Arc::clone(&replica), server.local_addr().to_string());

    wait_until("replica channel up", || server.replica_count() == 1);
    let ptrs: Vec<ObjPtr<Account>> = (0..20).map(|i| write_account(&primary, i * 100)).collect();
    let acked_epoch = primary.snapshot_epoch();
    assert!(server.wait_replicated(acked_epoch, Duration::from_secs(10)));

    // Primary dies: channel down, process state gone (leak = no
    // shutdown checkpoint, like a crash).
    server.shutdown();
    std::mem::forget(primary);

    // Driven failover: promote the replica and keep serving.
    node.promote().unwrap();
    assert_eq!(replica.snapshot_epoch(), acked_epoch);
    for (i, p) in ptrs.iter().enumerate() {
        assert_eq!(read_balance(&replica, p), (i * 100) as u64);
    }
    assert_eq!(replica.storage_stats().failovers, 1);

    // The promoted node accepts writes.
    let p = write_account(&replica, 777_777);
    assert_eq!(read_balance(&replica, &p), 777_777);

    // promote() is idempotent.
    node.promote().unwrap();
    assert_eq!(replica.storage_stats().failovers, 1);

    cleanup(&ppath);
    cleanup(&rpath);
}

#[test]
fn fenced_ex_primary_rejoins_as_replica_without_divergence() {
    let ppath = temp_path("rejoin-p");
    let rpath = temp_path("rejoin-r");

    let primary = Arc::new(Database::create(&ppath, options()).unwrap());
    let server =
        OdeServer::bind(Arc::clone(&primary), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let replica = Arc::new(Database::create(&rpath, options()).unwrap());
    let node = ReplicaNode::start(Arc::clone(&replica), server.local_addr().to_string());

    wait_until("replica channel up", || server.replica_count() == 1);
    let shared: Vec<ObjPtr<Account>> = (0..8).map(|i| write_account(&primary, i)).collect();
    assert!(server.wait_replicated(primary.snapshot_epoch(), Duration::from_secs(10)));

    // Partition the replica away, then commit more on the (doomed)
    // primary: these commits are never shipped — the lost tail.
    node.stop();
    let lost = write_account(&primary, 999);
    server.shutdown();
    std::mem::forget(primary);

    // Promote the replica; it becomes the new lineage.
    node.promote().unwrap();
    let new_primary = Arc::clone(node.database());
    let new_server = OdeServer::bind(
        Arc::clone(&new_primary),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let diverged = write_account(&new_primary, 4242);

    // The ex-primary restarts (recovering its lost tail locally) and
    // rejoins as a replica. Its generation doesn't match the new
    // primary's, so it's re-bootstrapped from a snapshot — the lost
    // tail is discarded, not merged: no divergence.
    let ex_primary = Arc::new(Database::open(&ppath, options()).unwrap());
    {
        let mut snap = ex_primary.snapshot();
        assert_eq!(snap.deref(&lost).unwrap().balance, 999);
    }
    let rejoined = ReplicaNode::start(Arc::clone(&ex_primary), new_server.local_addr().to_string());
    let target = new_primary.snapshot_epoch();
    wait_until("rejoin catch-up", || rejoined.status().epoch >= target);

    let mut snap = ex_primary.snapshot();
    for (i, p) in shared.iter().enumerate() {
        assert_eq!(snap.deref(p).unwrap().balance, i as u64);
        snap.check_object(p).unwrap();
    }
    assert_eq!(snap.deref(&diverged).unwrap().balance, 4242);
    // The unshipped suffix of the old lineage is unobservable: its oid
    // either no longer exists or was re-allocated by the new lineage
    // (both ptrs were the ninth object of their respective timelines).
    if let Ok(acct) = snap.deref(&lost) {
        assert_ne!(acct.balance, 999);
    }
    drop(snap);

    rejoined.stop();
    new_server.shutdown();
    cleanup(&ppath);
    cleanup(&rpath);
}

#[test]
fn a_page_file_larger_than_one_snapshot_part_bootstraps_then_tails() {
    let ppath = temp_path("parts-p");
    let rpath = temp_path("parts-r");

    // 2 KiB notes: 200 of them take the page file past the 256 KiB a
    // snapshot part carries.
    let primary = Arc::new(Database::create(&ppath, options()).unwrap());
    let write = |balance: u64| {
        let mut txn = primary.begin();
        let note = format!("{balance:08}").repeat(256);
        let p = txn.pnew(&Account { balance, note }).unwrap();
        txn.commit().unwrap();
        p
    };
    let mut ptrs: Vec<ObjPtr<Account>> = (0..200).map(write).collect();

    let server =
        OdeServer::bind(Arc::clone(&primary), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let replica = Arc::new(Database::create(&rpath, options()).unwrap());
    let node = ReplicaNode::start(Arc::clone(&replica), server.local_addr().to_string());
    let target = primary.snapshot_epoch();
    wait_until("bootstrap catch-up", || node.status().epoch >= target);
    assert!(primary.storage_stats().bytes_shipped > 256 * 1024);

    ptrs.extend((200..220).map(write));
    let target = primary.snapshot_epoch();
    wait_until("tail catch-up", || node.status().epoch >= target);
    for (i, p) in ptrs.iter().enumerate() {
        assert_eq!(read_balance(&replica, p), i as u64);
    }
    assert_eq!(replica.snapshot_epoch(), primary.snapshot_epoch());

    node.stop();
    server.shutdown();
    cleanup(&ppath);
    cleanup(&rpath);
}

/// Every server write waits at the semi-synchronous barrier while a
/// replica is subscribed. With more writers than server threads every
/// thread sits there at once, and still each write is acknowledged
/// only once the replica holds it, well inside the barrier's 500 ms
/// bound: the waiters read the replica's acks themselves.
#[test]
fn more_semi_sync_writers_than_threads_are_each_acked_by_the_replica() {
    const WORKERS: usize = 2;
    const WRITERS: usize = 6;
    const WRITES: usize = 20;
    let ppath = temp_path("semisync-p");
    let rpath = temp_path("semisync-r");

    let primary = Arc::new(Database::create(&ppath, options()).unwrap());
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let server = OdeServer::bind(Arc::clone(&primary), "127.0.0.1:0", config).unwrap();
    let replica = Arc::new(Database::create(&rpath, options()).unwrap());
    let node = ReplicaNode::start(Arc::clone(&replica), server.local_addr().to_string());
    wait_until("replica subscribed", || server.replica_count() == 1);

    let addr = server.local_addr();
    let slowest = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let replica = &replica;
                scope.spawn(move || {
                    let mut client =
                        Session::new(OdeClient::connect(addr, ClientConfig::default()).unwrap());
                    let mut slowest = Duration::ZERO;
                    for i in 0..WRITES {
                        let started = Instant::now();
                        let balance = (w * WRITES + i) as u64;
                        let p = client
                            .pnew(&Account {
                                balance,
                                note: format!("writer {w}"),
                            })
                            .expect("write acknowledged");
                        slowest = slowest.max(started.elapsed());
                        // Acknowledged means replicated.
                        let mut snap = replica.snapshot();
                        assert!(
                            snap.exists(&p).unwrap(),
                            "write {balance} not on the replica"
                        );
                    }
                    slowest
                })
            })
            .collect();
        writers
            .into_iter()
            .map(|w| w.join().unwrap())
            .max()
            .unwrap()
    });
    assert!(
        slowest < Duration::from_millis(500),
        "a write waited {slowest:?}, out to the barrier's bound"
    );
    assert_eq!(replica.snapshot_epoch(), primary.snapshot_epoch());

    node.stop();
    server.shutdown();
    cleanup(&ppath);
    cleanup(&rpath);
}
