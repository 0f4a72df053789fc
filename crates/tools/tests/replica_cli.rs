//! The replicated shape as it is deployed: two `ode-served` processes,
//! the second started `--replica-of` the first, driven by `ode-cli`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use ode_storage::testutil::TempPath;

/// A running `ode-served`, killed when dropped.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `ode-served` on a free port; returns it and the address it
/// printed.
fn serve(db: &Path, extra: &[&str]) -> (Served, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ode-served"))
        .arg(db)
        .args(["127.0.0.1:0", "--no-sync"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ode-served");
    let stdout = child.stdout.take().expect("stdout");
    let served = Served(child);
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("ode-served line");
        if let Some((_, addr)) = line.split_once(" on ") {
            return (served, addr.to_string());
        }
    }
    panic!("ode-served ended before it served");
}

fn cli(addr: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ode-cli"))
        .arg(addr)
        .args(args)
        .output()
        .expect("run ode-cli")
}

fn stdout_of(output: &Output) -> String {
    assert!(output.status.success(), "ode-cli failed: {output:?}");
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// `put` through `addr`; returns the new object's id.
fn put(addr: &str, text: &str) -> String {
    let created = stdout_of(&cli(addr, &["put", text]));
    // "created oid:N (latest vid:M)"
    let oid = created.split_once("oid:").expect("an oid").1;
    oid.split_whitespace()
        .next()
        .expect("oid digits")
        .to_string()
}

#[test]
fn a_replica_served_from_the_command_line_follows_its_primary_then_takes_over() {
    let (primary_db, replica_db) = (TempPath::new(), TempPath::new());
    let (_primary, primary) = serve(&primary_db, &[]);
    let (_replica, replica) = serve(&replica_db, &["--replica-of", &primary]);

    let oid = put(&primary, "hello");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = cli(&replica, &["get", &oid]);
        if got.status.success() {
            assert!(stdout_of(&got).ends_with(": hello\n"), "{got:?}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the replica never applied the write: {got:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        !cli(&replica, &["put", "refused"]).status.success(),
        "a replica took a write"
    );

    assert_eq!(stdout_of(&cli(&replica, &["promote"])), "promoted\n");
    let after = put(&replica, "after failover");
    assert!(stdout_of(&cli(&replica, &["get", &oid, &after])).contains(": after failover\n"));
}
