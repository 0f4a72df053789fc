//! Crash-recovery at the full-stack level: committed versioning work
//! survives simulated crashes (no shutdown checkpoint, torn WAL tails),
//! and uncommitted work vanishes completely.

use ode::{Database, DatabaseOptions};
use ode_codec::{impl_persist_struct, impl_type_name};

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    rev: u32,
    text: String,
}
impl_persist_struct!(Doc { rev, text });
impl_type_name!(Doc = "crash/Doc");

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ode-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut wal = path.clone().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
    path
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.to_path_buf().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

fn wal_of(path: &std::path::Path) -> std::path::PathBuf {
    let mut wal = path.to_path_buf().into_os_string();
    wal.push(".wal");
    std::path::PathBuf::from(wal)
}

/// "Crash" a database: leak it so neither Drop-checkpoint nor WAL reset
/// runs.
fn crash(db: Database) {
    std::mem::forget(db);
}

#[test]
fn committed_version_graph_survives_crash() {
    let path = temp_path("graph");
    let (p, v0, v1, v2);
    {
        let db = Database::create(&path, DatabaseOptions::default()).unwrap();
        let mut txn = db.begin();
        p = txn
            .pnew(&Doc {
                rev: 0,
                text: "root".into(),
            })
            .unwrap();
        v0 = txn.current_version(&p).unwrap();
        v1 = txn.newversion(&p).unwrap();
        txn.update(&p, |d| d.rev = 1).unwrap();
        v2 = txn.newversion_from(&v0).unwrap();
        txn.update_version(&v2, |d| d.text = "variant".into())
            .unwrap();
        txn.commit().unwrap();
        crash(db);
    }
    let db = Database::open(&path, DatabaseOptions::default()).unwrap();
    let mut snap = db.snapshot();
    assert_eq!(snap.version_history(&p).unwrap(), vec![v0, v1, v2]);
    assert_eq!(snap.deref_v(&v1).unwrap().rev, 1);
    assert_eq!(snap.deref_v(&v2).unwrap().text, "variant");
    assert_eq!(snap.dnext(&v0).unwrap(), vec![v1, v2]);
    snap.check_object(&p).unwrap();
    drop(snap);
    drop(db);
    cleanup(&path);
}

#[test]
fn uncommitted_transaction_vanishes_on_crash() {
    let path = temp_path("uncommitted");
    let p;
    {
        let db = Database::create(&path, DatabaseOptions::default()).unwrap();
        {
            let mut txn = db.begin();
            p = txn
                .pnew(&Doc {
                    rev: 0,
                    text: "keep".into(),
                })
                .unwrap();
            txn.commit().unwrap();
        }
        {
            // This transaction crashes mid-flight (never committed).
            let mut txn = db.begin();
            txn.newversion(&p).unwrap();
            txn.update(&p, |d| d.text = "lost".into()).unwrap();
            txn.pnew(&Doc {
                rev: 9,
                text: "ghost".into(),
            })
            .unwrap();
            std::mem::forget(txn); // don't even run abort rollback
            crash(db);
        }
    }
    let db = Database::open(&path, DatabaseOptions::default()).unwrap();
    let mut snap = db.snapshot();
    assert_eq!(snap.objects::<Doc>().unwrap(), vec![p]);
    assert_eq!(snap.version_count(&p).unwrap(), 1);
    assert_eq!(snap.deref(&p).unwrap().text, "keep");
    drop(snap);
    drop(db);
    cleanup(&path);
}

#[test]
fn a_torn_pnew_is_not_resurrected_by_a_later_commit() {
    use ode_storage::wal::{Replay, Scan, Wal};
    let path = temp_path("resurrect");
    let doc = |text: &str| Doc {
        rev: 0,
        text: text.into(),
    };
    // Session 0 closes cleanly: its checkpoint leaves the log empty.
    let kept = {
        let db = Database::create(&path, DatabaseOptions::default()).unwrap();
        let mut txn = db.begin();
        let kept = txn.pnew(&doc("kept")).unwrap();
        txn.commit().unwrap();
        kept
    };
    // Session 1 is killed while the frame of its first commit lands:
    // chop the frame's last 10 bytes off an otherwise whole log.
    {
        let db = Database::open(&path, DatabaseOptions::default()).unwrap();
        let mut txn = db.begin();
        for i in 0..3 {
            txn.pnew(&doc(&format!("ghost-{i}-{}", "boo ".repeat(40))))
                .unwrap();
        }
        txn.commit().unwrap();
        crash(db);
        let wal = wal_of(&path);
        let len = std::fs::metadata(&wal).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        // The log holds one frame, torn: its header chains, its payload
        // is cut short, and no commit is left.
        let wal = Wal::open(&wal).unwrap();
        assert!(wal.is_empty());
        let mut replay = Replay::new(0, wal.seed());
        replay.push(&wal.read_file().unwrap());
        assert_eq!(replay.next_commit().unwrap(), Scan::Incomplete);
    }
    // Session 2 recovers, commits a smaller change where the torn frame
    // began, and crashes.
    {
        let db = Database::open(&path, DatabaseOptions::default()).unwrap();
        assert_eq!(db.snapshot().objects::<Doc>().unwrap(), vec![kept]);
        let mut txn = db.begin();
        txn.update(&kept, |d| d.text = "edited".into()).unwrap();
        txn.commit().unwrap();
        crash(db);
    }
    // Session 3 must see exactly sessions 0 and 2.
    let db = Database::open(&path, DatabaseOptions::default()).unwrap();
    let mut snap = db.snapshot();
    assert_eq!(snap.objects::<Doc>().unwrap(), vec![kept]);
    assert_eq!(snap.deref(&kept).unwrap().text, "edited");
    snap.check_object(&kept).unwrap();
    drop(snap);
    drop(db);
    cleanup(&path);
}

#[test]
fn torn_wal_tail_truncated_to_last_commit() {
    let path = temp_path("torn");
    let p;
    {
        let db = Database::create(&path, DatabaseOptions::default()).unwrap();
        let mut txn = db.begin();
        p = txn
            .pnew(&Doc {
                rev: 0,
                text: "solid".into(),
            })
            .unwrap();
        txn.commit().unwrap();
        crash(db);
    }
    // Corrupt the WAL tail byte-wise (a torn final write).
    {
        use std::io::Write;
        let wal = wal_of(&path);
        let len = std::fs::metadata(&wal).unwrap().len();
        // Chop a few bytes, then append garbage.
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len.saturating_sub(2)).unwrap();
        drop(f);
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[0xDE, 0xAD]).unwrap();
    }
    // The damaged record belonged to the committed txn, so that txn's
    // commit frame is gone: recovery keeps only whole committed txns.
    let db = Database::open(&path, DatabaseOptions::default()).unwrap();
    let mut snap = db.snapshot();
    // Either the object survived (damage hit padding) or the store is
    // consistently empty — never a half-applied state. Both are valid;
    // what matters is that open succeeded and reads are coherent.
    let objects = snap.objects::<Doc>().unwrap();
    for obj in &objects {
        snap.deref(obj).unwrap();
        snap.check_object(obj).unwrap();
    }
    drop(snap);
    drop(db);
    let _ = p;
    cleanup(&path);
}

#[test]
fn repeated_crash_recover_cycles_accumulate_state() {
    let path = temp_path("cycles");
    {
        let db = Database::create(&path, DatabaseOptions::default()).unwrap();
        crash(db);
    }
    let mut expected = 0u64;
    for round in 0..5 {
        let db = Database::open(&path, DatabaseOptions::default()).unwrap();
        {
            let mut snap = db.snapshot();
            assert_eq!(snap.objects::<Doc>().unwrap().len() as u64, expected);
        }
        let mut txn = db.begin();
        for i in 0..3 {
            txn.pnew(&Doc {
                rev: round,
                text: format!("r{round}-{i}"),
            })
            .unwrap();
        }
        txn.commit().unwrap();
        expected += 3;
        crash(db);
    }
    let db = Database::open(&path, DatabaseOptions::default()).unwrap();
    let mut snap = db.snapshot();
    assert_eq!(snap.objects::<Doc>().unwrap().len() as u64, expected);
    drop(snap);
    drop(db);
    cleanup(&path);
}

#[test]
fn checkpoint_then_crash_needs_no_wal() {
    let path = temp_path("ckpt");
    let p;
    {
        let db = Database::create(&path, DatabaseOptions::default()).unwrap();
        let mut txn = db.begin();
        p = txn
            .pnew(&Doc {
                rev: 1,
                text: "flushed".into(),
            })
            .unwrap();
        txn.commit().unwrap();
        db.checkpoint().unwrap();
        crash(db);
    }
    // The WAL is empty after checkpoint; blow it away entirely to prove
    // the database file alone carries the state.
    std::fs::remove_file(wal_of(&path)).unwrap();
    let db = Database::open(&path, DatabaseOptions::default()).unwrap();
    let mut snap = db.snapshot();
    assert_eq!(snap.deref(&p).unwrap().text, "flushed");
    drop(snap);
    drop(db);
    cleanup(&path);
}

// ---------------------------------------------------------------------------
// SIGKILL mid-group-commit: the acknowledged cohort — exactly — recovers
// ---------------------------------------------------------------------------

/// Re-exec helper, not a test of its own: when the group-commit crash
/// test spawns this test binary with `ODE_CRASH_GROUP_CHILD` set, this
/// runs concurrent committers against a group-commit database and
/// durably logs every *acknowledged* marker until the parent SIGKILLs
/// the process. Without the env var it is a no-op.
#[test]
fn child_group_commit_writer() {
    let Ok(db_path) = std::env::var("ODE_CRASH_GROUP_CHILD") else {
        return;
    };
    let ack_dir = std::env::var("ODE_CRASH_GROUP_ACK_DIR").expect("ack dir env var");

    // Durability on (the default), group commit on with a real window so
    // fsyncs are amortized across the four writers below — the code path
    // under test.
    let mut options = DatabaseOptions::default();
    options.storage.group_commit = true;
    options.storage.group_commit_window = std::time::Duration::from_millis(2);
    let db = Database::create(&db_path, options).expect("create db");

    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let db = &db;
            let ack_path = format!("{ack_dir}/acks-{w}");
            scope.spawn(move || {
                use std::io::Write;
                let mut acks = std::fs::File::create(&ack_path).expect("create ack log");
                for i in 0.. {
                    let marker = w * 1_000_000 + i;
                    let mut txn = db.begin();
                    txn.pnew(&Doc {
                        rev: marker as u32,
                        text: format!("w{w}-{i}"),
                    })
                    .expect("pnew");
                    txn.commit().expect("commit");
                    // The commit was acknowledged (group fsync covered
                    // it). Only now does the marker enter the durable
                    // ack log — so every logged marker MUST survive the
                    // kill.
                    acks.write_all(format!("{marker}\n").as_bytes())
                        .expect("log ack");
                    acks.sync_data().expect("sync ack log");
                }
            });
        }
    });
}

#[test]
fn sigkill_mid_group_commit_recovers_every_acknowledged_txn() {
    use std::time::{Duration, Instant};

    let path = temp_path("groupkill");
    let ack_dir = {
        let mut d = std::env::temp_dir();
        d.push(format!("ode-crash-groupkill-acks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create ack dir");
        d
    };

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .args(["child_group_commit_writer", "--exact", "--nocapture"])
        .env("ODE_CRASH_GROUP_CHILD", &path)
        .env("ODE_CRASH_GROUP_ACK_DIR", &ack_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child writer");

    // Let the writers race until a healthy number of commits have been
    // acknowledged, then SIGKILL mid-flight: some cohort is very likely
    // half-formed (appended, not yet fsynced) at that instant.
    let deadline = Instant::now() + Duration::from_secs(60);
    let collect_acked = |dir: &std::path::Path| -> Vec<u64> {
        let mut acked = Vec::new();
        for w in 0..4 {
            if let Ok(text) = std::fs::read_to_string(dir.join(format!("acks-{w}"))) {
                acked.extend(text.lines().filter_map(|l| l.parse::<u64>().ok()));
            }
        }
        acked
    };
    loop {
        if collect_acked(&ack_dir).len() >= 40 {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("child writer exited early: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "child never reached 40 acknowledged commits"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");

    // A marker whose final newline was mid-write when the kill landed is
    // not a completed ack; a trailing partial line parses to garbage or
    // not at all, and `lines()` + parse filtering drops it safely. Every
    // *complete* logged marker was acknowledged before the kill.
    let acked = collect_acked(&ack_dir);
    assert!(acked.len() >= 40, "lost the ack log itself?");

    // Recover the way a restarted process would and read back every
    // object: the acknowledged set must be a subset of what recovered.
    let db = Database::open(&path, DatabaseOptions::default()).expect("recover after SIGKILL");
    let mut snap = db.snapshot();
    let recovered: std::collections::HashSet<u32> = snap
        .objects::<Doc>()
        .expect("list objects")
        .iter()
        .map(|p| snap.deref(p).expect("deref recovered object").rev)
        .collect();
    drop(snap);
    let missing: Vec<u64> = acked
        .iter()
        .copied()
        .filter(|m| !recovered.contains(&(*m as u32)))
        .collect();
    assert!(
        missing.is_empty(),
        "{} acknowledged commits lost after SIGKILL: {missing:?}",
        missing.len()
    );

    drop(db);
    let _ = std::fs::remove_dir_all(&ack_dir);
    cleanup(&path);
}

// ---------------------------------------------------------------------------
// SIGKILL mid-checkin on a chain-storage database
// ---------------------------------------------------------------------------

/// The body each checked-in revision carries: a long shared prefix with
/// a marker suffix, so consecutive revisions are near-identical and the
/// chain really stores deltas. Used by the child to write and by the
/// parent to verify recovered bodies byte-for-byte.
fn chain_text(marker: u64) -> String {
    format!("{}::checkin-{marker}", "the quick brown fox ".repeat(40))
}

/// Re-exec helper for the delta-chain variant: four writers each own
/// one object in a chain-storage database and loop pure check-ins
/// (`newversion` + `put_version`) until the parent SIGKILLs the
/// process. At anchor interval 2 every other check-in seals the open
/// segment and starts the next (a new anchor record plus a directory
/// rewrite), the rest rewrite the open run, so with four writers in
/// flight the kill all but surely lands on a segment roll.
/// Acknowledged markers are durably logged after each commit. No-op
/// without the env var.
#[test]
fn child_chained_checkin_writer() {
    let Ok(db_path) = std::env::var("ODE_CRASH_CHAIN_CHILD") else {
        return;
    };
    let ack_dir = std::env::var("ODE_CRASH_CHAIN_ACK_DIR").expect("ack dir env var");

    let mut options = DatabaseOptions::default().with_chain(ode::ChainConfig::with_interval(2));
    options.storage.group_commit = true;
    options.storage.group_commit_window = std::time::Duration::from_millis(2);
    let db = Database::create(&db_path, options).expect("create db");

    // One object per writer, committed up front, so every commit in the
    // race below is a pure check-in appending to that object's chain.
    let ptrs: Vec<_> = {
        let mut txn = db.begin();
        let ptrs = (0..4u64)
            .map(|w| {
                let marker = w * 1_000_000;
                txn.pnew(&Doc {
                    rev: marker as u32,
                    text: chain_text(marker),
                })
                .expect("pnew")
            })
            .collect();
        txn.commit().expect("commit seed");
        ptrs
    };

    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let db = &db;
            let ptr = &ptrs[w as usize];
            let ack_path = format!("{ack_dir}/acks-{w}");
            scope.spawn(move || {
                use std::io::Write;
                let mut acks = std::fs::File::create(&ack_path).expect("create ack log");
                for i in 1.. {
                    let marker = w * 1_000_000 + i;
                    let mut txn = db.begin();
                    let v = txn.newversion(ptr).expect("newversion");
                    txn.put_version(
                        &v,
                        &Doc {
                            rev: marker as u32,
                            text: chain_text(marker),
                        },
                    )
                    .expect("put_version");
                    txn.commit().expect("commit");
                    acks.write_all(format!("{marker}\n").as_bytes())
                        .expect("log ack");
                    acks.sync_data().expect("sync ack log");
                }
            });
        }
    });
}

/// SIGKILL lands while four writers are mid-checkin on a chain-storage
/// database. Recovery (opened *without* the chain config, proving old
/// and new readers decode the same records) must surface every
/// acknowledged revision with a byte-identical body, and the recovered
/// chains must still validate — directory against segments, segments
/// against the version graph — and still hold deltas: a half-rolled
/// segment never survives.
#[test]
fn sigkill_mid_checkin_chained_store_recovers_acknowledged_versions() {
    use std::time::{Duration, Instant};

    let path = temp_path("chainkill");
    let ack_dir = {
        let mut d = std::env::temp_dir();
        d.push(format!("ode-crash-chainkill-acks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create ack dir");
        d
    };

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .args(["child_chained_checkin_writer", "--exact", "--nocapture"])
        .env("ODE_CRASH_CHAIN_CHILD", &path)
        .env("ODE_CRASH_CHAIN_ACK_DIR", &ack_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child writer");

    let deadline = Instant::now() + Duration::from_secs(60);
    let collect_acked = |dir: &std::path::Path| -> Vec<u64> {
        let mut acked = Vec::new();
        for w in 0..4 {
            if let Ok(text) = std::fs::read_to_string(dir.join(format!("acks-{w}"))) {
                acked.extend(text.lines().filter_map(|l| l.parse::<u64>().ok()));
            }
        }
        acked
    };
    loop {
        if collect_acked(&ack_dir).len() >= 40 {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("child writer exited early: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "child never reached 40 acknowledged check-ins"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");

    let acked = collect_acked(&ack_dir);
    assert!(acked.len() >= 40, "lost the ack log itself?");

    // Recover with plain options: chain records must decode without the
    // writer's config.
    let db = Database::open(&path, DatabaseOptions::default()).expect("recover after SIGKILL");
    let mut snap = db.snapshot();
    let mut recovered = std::collections::HashMap::new();
    let mut chains_seen = 0usize;
    let mut segments_seen = 0u64;
    for p in snap.objects::<Doc>().expect("list objects") {
        snap.check_object(&p).expect("recovered object validates");
        for v in snap.version_history(&p).expect("history") {
            let doc = snap.deref_v(&v).expect("deref recovered version");
            recovered.insert(doc.rev, doc.text.clone());
        }
        // An object with committed check-ins must have kept its chain
        // through recovery — with real deltas, not just anchors.
        if let Some(stats) = snap.chain_stats_raw(p.oid()).expect("chain stats") {
            assert!(stats.versions >= 2);
            assert!(stats.deltas > 0, "recovered chain holds no deltas");
            chains_seen += 1;
            segments_seen += stats.segments;
        }
    }
    assert!(chains_seen > 0, "no delta chain survived recovery");
    // 40 acknowledged check-ins at interval 2 rolled a segment every
    // other time, whichever writers made them.
    assert!(
        segments_seen >= 20,
        "only {segments_seen} segments recovered"
    );
    drop(snap);

    // Acked ⊆ recovered, byte-identical: every acknowledged check-in
    // materializes exactly the body that was written.
    for marker in &acked {
        match recovered.get(&(*marker as u32)) {
            Some(text) => assert_eq!(
                *text,
                chain_text(*marker),
                "marker {marker} recovered with a different body"
            ),
            None => panic!("acknowledged check-in {marker} lost after SIGKILL"),
        }
    }

    drop(db);
    let _ = std::fs::remove_dir_all(&ack_dir);
    cleanup(&path);
}

// ---------------------------------------------------------------------------
// SIGKILL mid-merge-checkin: two-parent versions survive recovery
// ---------------------------------------------------------------------------

/// Body carried by the merge-crash writers: a long shared filler plus
/// two fixed-width marker fields. Each iteration forks the latest
/// version twice — one fork rewrites the `L` field, the other the `R`
/// field — and merges the forks, so the committed merge version has
/// `left == right` and exactly two parents.
fn merge_text(left: u64, right: u64) -> String {
    format!(
        "{}::L-{left:010}::R-{right:010}",
        "the quick brown fox ".repeat(40)
    )
}

/// Re-exec helper for the merge variant: four writers each own one
/// object in a chain-storage database and loop fork/fork/merge
/// check-ins until the parent SIGKILLs the process. A marker is durably
/// logged only after the commit that made its merge version durable.
/// No-op without the env var.
#[test]
fn child_merge_checkin_writer() {
    let Ok(db_path) = std::env::var("ODE_CRASH_MERGE_CHILD") else {
        return;
    };
    let ack_dir = std::env::var("ODE_CRASH_MERGE_ACK_DIR").expect("ack dir env var");

    let mut options = DatabaseOptions::default().with_chain(ode::ChainConfig::with_interval(4));
    options.storage.group_commit = true;
    options.storage.group_commit_window = std::time::Duration::from_millis(2);
    let db = Database::create(&db_path, options).expect("create db");

    let ptrs: Vec<_> = {
        let mut txn = db.begin();
        let ptrs = (0..4u64)
            .map(|w| {
                let marker = w * 1_000_000;
                txn.pnew(&Doc {
                    rev: w as u32,
                    text: merge_text(marker, marker),
                })
                .expect("pnew")
            })
            .collect();
        txn.commit().expect("commit seed");
        ptrs
    };

    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let db = &db;
            let ptr = &ptrs[w as usize];
            let ack_path = format!("{ack_dir}/acks-{w}");
            scope.spawn(move || {
                use std::io::Write;
                let mut acks = std::fs::File::create(&ack_path).expect("create ack log");
                for i in 1.. {
                    let marker = w * 1_000_000 + i;
                    let prev = marker - 1;
                    let mut txn = db.begin();
                    let base = txn.current_version(ptr).expect("current_version");
                    let a = txn
                        .derive_from_with(&base, |d| d.text = merge_text(marker, prev))
                        .expect("fork a");
                    let b = txn
                        .derive_from_with(&base, |d| d.text = merge_text(prev, marker))
                        .expect("fork b");
                    let report = txn.merge(&a, &b, ode::MergePolicy::Fail).expect("merge");
                    assert!(
                        report.conflicts.is_empty(),
                        "disjoint field edits conflicted: {:?}",
                        report.conflicts
                    );
                    report.version.expect("clean merge checks in");
                    txn.commit().expect("commit");
                    acks.write_all(format!("{marker}\n").as_bytes())
                        .expect("log ack");
                    acks.sync_data().expect("sync ack log");
                }
            });
        }
    });
}

/// SIGKILL lands while four writers are mid-merge on a chain-storage
/// database. Recovery — opened **without** the chain config — must
/// surface every acknowledged merge version with a byte-identical
/// merged body, both parents on record, and walkable ancestry.
#[test]
fn sigkill_mid_merge_checkin_recovers_two_parent_versions() {
    use std::time::{Duration, Instant};

    let path = temp_path("mergekill");
    let ack_dir = {
        let mut d = std::env::temp_dir();
        d.push(format!("ode-crash-mergekill-acks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create ack dir");
        d
    };

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .args(["child_merge_checkin_writer", "--exact", "--nocapture"])
        .env("ODE_CRASH_MERGE_CHILD", &path)
        .env("ODE_CRASH_MERGE_ACK_DIR", &ack_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child writer");

    let deadline = Instant::now() + Duration::from_secs(60);
    let collect_acked = |dir: &std::path::Path| -> Vec<u64> {
        let mut acked = Vec::new();
        for w in 0..4 {
            if let Ok(text) = std::fs::read_to_string(dir.join(format!("acks-{w}"))) {
                acked.extend(text.lines().filter_map(|l| l.parse::<u64>().ok()));
            }
        }
        acked
    };
    loop {
        if collect_acked(&ack_dir).len() >= 40 {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("child writer exited early: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "child never reached 40 acknowledged merges"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");

    let acked = collect_acked(&ack_dir);
    assert!(acked.len() >= 40, "lost the ack log itself?");

    // Recover with plain options: merge metadata and chain records must
    // decode without the writer's config.
    let db = Database::open(&path, DatabaseOptions::default()).expect("recover after SIGKILL");
    let mut snap = db.snapshot();
    // text → (vid, parent count) for every recovered version.
    let mut recovered = std::collections::HashMap::new();
    for p in snap.objects::<Doc>().expect("list objects") {
        snap.check_object(&p).expect("recovered object validates");
        for v in snap.version_history(&p).expect("history") {
            let doc = snap.deref_v(&v).expect("deref recovered version");
            let parents = snap.parents_raw(v.vid()).expect("parents");
            recovered.insert(doc.text.clone(), (v, parents.len()));
        }
    }

    // Every acknowledged merge recovered byte-identically, as a
    // two-parent version whose ancestry walks back to the seed root.
    for marker in &acked {
        let (v, parent_count) = recovered
            .get(&merge_text(*marker, *marker))
            .unwrap_or_else(|| panic!("acknowledged merge {marker} lost after SIGKILL"));
        assert_eq!(
            *parent_count, 2,
            "recovered merge {marker} lost a parent edge"
        );
        let ancestors: Vec<_> = snap.ancestors(v).expect("ancestors").collect();
        assert!(
            !ancestors.is_empty(),
            "merge {marker} has no walkable ancestry"
        );
    }
    drop(snap);

    drop(db);
    let _ = std::fs::remove_dir_all(&ack_dir);
    cleanup(&path);
}

// ---------------------------------------------------------------------------
// SIGKILL with optimistic multi-writers racing through group commit
// ---------------------------------------------------------------------------

/// Re-exec helper for the optimistic variant: four writers drive
/// `Database::transact` loops — every `pnew` touches the shared header
/// and catalog pages, so the writers conflict and retry constantly
/// while their winners flow through group commit. Acknowledged markers
/// are durably logged only after `transact` returns. No-op without the
/// env var.
#[test]
fn child_multi_writer() {
    let Ok(db_path) = std::env::var("ODE_CRASH_MULTI_CHILD") else {
        return;
    };
    let ack_dir = std::env::var("ODE_CRASH_MULTI_ACK_DIR").expect("ack dir env var");

    let mut options = DatabaseOptions::default();
    options.storage.group_commit = true;
    options.storage.group_commit_window = std::time::Duration::from_millis(2);
    let db = Database::create(&db_path, options).expect("create db");

    // Conflicts are expected by design here; the policy must be generous
    // enough that a writer never gives up mid-run.
    let policy = ode::RetryPolicy {
        max_attempts: 100_000,
        backoff: std::time::Duration::from_micros(50),
        max_backoff: std::time::Duration::from_millis(1),
    };
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let db = &db;
            let ack_path = format!("{ack_dir}/acks-{w}");
            scope.spawn(move || {
                use std::io::Write;
                let mut acks = std::fs::File::create(&ack_path).expect("create ack log");
                for i in 0.. {
                    let marker = w * 1_000_000 + i;
                    // Each retry re-executes the closure in a fresh
                    // optimistic transaction, so a marker can commit at
                    // most once no matter how many attempts it takes.
                    db.transact(policy, |txn| {
                        txn.pnew(&Doc {
                            rev: marker as u32,
                            text: format!("w{w}-{i}"),
                        })
                        .map(|_| ())
                    })
                    .expect("transact");
                    acks.write_all(format!("{marker}\n").as_bytes())
                        .expect("log ack");
                    acks.sync_data().expect("sync ack log");
                }
            });
        }
    });
}

/// Four *optimistic* writers race each other (validation, retries) and
/// the group-commit leader (shared fsync cohorts) until a SIGKILL lands
/// mid-flight. Recovery must surface every acknowledged marker exactly
/// once — a conflict-aborted or unacknowledged attempt must never
/// resurrect as a duplicate object.
#[test]
fn sigkill_multi_writer_recovers_every_acknowledged_txn() {
    use std::time::{Duration, Instant};

    let path = temp_path("multikill");
    let ack_dir = {
        let mut d = std::env::temp_dir();
        d.push(format!("ode-crash-multikill-acks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create ack dir");
        d
    };

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .args(["child_multi_writer", "--exact", "--nocapture"])
        .env("ODE_CRASH_MULTI_CHILD", &path)
        .env("ODE_CRASH_MULTI_ACK_DIR", &ack_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child writer");

    let deadline = Instant::now() + Duration::from_secs(60);
    let collect_acked = |dir: &std::path::Path| -> Vec<u64> {
        let mut acked = Vec::new();
        for w in 0..4 {
            if let Ok(text) = std::fs::read_to_string(dir.join(format!("acks-{w}"))) {
                acked.extend(text.lines().filter_map(|l| l.parse::<u64>().ok()));
            }
        }
        acked
    };
    loop {
        if collect_acked(&ack_dir).len() >= 40 {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("child writer exited early: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "child never reached 40 acknowledged commits"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");

    let acked = collect_acked(&ack_dir);
    assert!(acked.len() >= 40, "lost the ack log itself?");

    let db = Database::open(&path, DatabaseOptions::default()).expect("recover after SIGKILL");
    let mut snap = db.snapshot();
    let mut recovered: Vec<u32> = snap
        .objects::<Doc>()
        .expect("list objects")
        .iter()
        .map(|p| snap.deref(p).expect("deref recovered object").rev)
        .collect();
    drop(snap);

    // Acked ⊆ recovered: every acknowledged commit survived the kill.
    let recovered_set: std::collections::HashSet<u32> = recovered.iter().copied().collect();
    let missing: Vec<u64> = acked
        .iter()
        .copied()
        .filter(|m| !recovered_set.contains(&(*m as u32)))
        .collect();
    assert!(
        missing.is_empty(),
        "{} acknowledged commits lost after SIGKILL: {missing:?}",
        missing.len()
    );
    // No marker committed twice: retries re-execute, they never replay a
    // stale write set, so each marker appears at most once.
    recovered.sort_unstable();
    let before = recovered.len();
    recovered.dedup();
    assert_eq!(
        before,
        recovered.len(),
        "a retried transaction committed the same marker twice"
    );

    drop(db);
    let _ = std::fs::remove_dir_all(&ack_dir);
    cleanup(&path);
}
