//! Failover regression at the process level: a primary in a *separate
//! OS process* ships its WAL to a replica in this process, which
//! subscribes on the primary server's data port, and only
//! acknowledges a commit once the replica acked it (semi-sync). The
//! primary is then SIGKILLed mid-stream — no shutdown checkpoint, no
//! warning, exactly like a machine loss — and the replica is promoted.
//! Every acknowledged commit must be present on the promoted replica:
//! acked ⊆ surviving state.

use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ode::{Database, DatabaseOptions, ObjPtr, Oid};
use ode_codec::{impl_persist_struct, impl_type_name};
use ode_net::{OdeServer, ReplicaNode, ServerConfig};

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    seq: u64,
}
impl_persist_struct!(Entry { seq });
impl_type_name!(Entry = "failover/Entry");

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ode-failover-{name}-{}", std::process::id()));
    cleanup(&path);
    path
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.to_path_buf().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

/// The child half: a primary writing entries as fast as acks allow.
/// Runs only when re-executed with `ODE_FAILOVER_CHILD` set; prints
/// one line per *replicated* commit (`ACK <seq> <oid>`), so every
/// printed line is a promise the replica already holds that entry.
/// Never exits on its own — the parent SIGKILLs it mid-stream.
#[test]
fn child_replicated_writer() {
    let Ok(db_path) = std::env::var("ODE_FAILOVER_CHILD") else {
        return;
    };
    let db = Arc::new(
        Database::create(std::path::Path::new(&db_path), DatabaseOptions::no_sync())
            .expect("child create db"),
    );
    let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("child bind server");
    println!("ADDR {}", server.local_addr());

    let deadline = Instant::now() + Duration::from_secs(30);
    while server.replica_count() == 0 {
        assert!(Instant::now() < deadline, "no replica connected");
        std::thread::sleep(Duration::from_millis(5));
    }

    let stdout = std::io::stdout();
    for seq in 0..1_000_000u64 {
        let mut txn = db.begin();
        let ptr = txn.pnew(&Entry { seq }).expect("child pnew");
        txn.commit().expect("child commit");
        if server.wait_replicated(db.snapshot_epoch(), Duration::from_secs(5)) {
            let mut out = stdout.lock();
            writeln!(out, "ACK {seq} {}", ptr.oid().0).expect("child write ack");
            out.flush().expect("child flush ack");
        }
    }
}

#[test]
fn acked_writes_survive_a_sigkilled_primary() {
    let ppath = temp_path("primary");
    let rpath = temp_path("replica");

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .args(["child_replicated_writer", "--exact", "--nocapture"])
        .env("ODE_FAILOVER_CHILD", &ppath)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child primary");
    let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();

    // The test harness prints its own banner (and a non-newline-
    // terminated "test ... " prefix) around the child's output; scan
    // for the address marker anywhere in a line.
    let addr = loop {
        let line = lines
            .next()
            .expect("child ended before printing its address")
            .expect("read child line");
        if let Some(idx) = line.find("ADDR ") {
            break line[idx + 5..].to_string();
        }
    };

    let replica = Arc::new(Database::create(&rpath, DatabaseOptions::no_sync()).unwrap());
    let node = ReplicaNode::start(Arc::clone(&replica), addr);

    // Collect acknowledged commits until there are enough to make the
    // kill land mid-stream, then SIGKILL the primary.
    let mut acked: Vec<(u64, u64)> = Vec::new();
    for line in lines.by_ref() {
        let line = line.expect("read child ack");
        if let Some(idx) = line.find("ACK ") {
            let mut parts = line[idx + 4..].split(' ');
            let seq: u64 = parts.next().unwrap().parse().unwrap();
            let oid: u64 = parts.next().unwrap().parse().unwrap();
            acked.push((seq, oid));
        }
        if acked.len() >= 50 {
            break;
        }
    }
    child.kill().expect("SIGKILL primary");
    child.wait().expect("reap primary");
    assert!(acked.len() >= 50, "child died before 50 acked commits");

    // Promote: the replica fences its log and becomes the primary.
    node.promote().expect("promote replica");
    assert_eq!(replica.storage_stats().failovers, 1);

    // Every acknowledged entry survived the failover intact.
    let mut snap = replica.snapshot();
    for (seq, oid) in &acked {
        let ptr: ObjPtr<Entry> = ObjPtr::from_oid(Oid(*oid));
        let entry = snap
            .deref(&ptr)
            .unwrap_or_else(|e| panic!("acked entry {seq} lost in failover: {e:?}"));
        assert_eq!(entry.seq, *seq, "acked entry {seq} corrupted");
    }
    drop(snap);

    // And the promoted node accepts new writes on the surviving state.
    let mut txn = replica.begin();
    let p = txn.pnew(&Entry { seq: u64::MAX }).unwrap();
    txn.commit().unwrap();
    let mut snap = replica.snapshot();
    assert_eq!(snap.deref(&p).unwrap().seq, u64::MAX);
    drop(snap);

    cleanup(&ppath);
    cleanup(&rpath);
}
