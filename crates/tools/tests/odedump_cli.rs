//! The `odedump` binary end to end: how it ends when its reader goes
//! away early, and what it says about a file of another format.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

use ode::{Database, DatabaseOptions};
use ode_codec::{impl_persist_struct, impl_type_name};
use ode_storage::testutil::{stamp_format_version, TempPath, TempStore};

#[derive(Debug, Clone, PartialEq)]
struct Note {
    text: String,
}
impl_persist_struct!(Note { text });
impl_type_name!(Note = "odedump-cli/Note");

fn odedump(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_odedump"));
    cmd.args(args);
    cmd
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn a_closed_pipe_ends_the_dump_quietly() {
    // Enough objects that the listing outgrows the pipe's buffer, so
    // odedump is still writing when the reader leaves.
    let path = TempPath::new();
    {
        let db = Database::create(&path, DatabaseOptions::no_sync()).unwrap();
        let mut txn = db.begin();
        for i in 0..4000 {
            txn.pnew(&Note {
                text: format!("note-{i}"),
            })
            .unwrap();
        }
        txn.commit().unwrap();
    }
    let mut child = odedump(&["objects", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("oid"), "{first:?}");
    // The reader is dropped: the read end of the pipe is closed.
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "{:?}", output.status);
    assert_eq!(stderr_of(&output), "");
}

#[test]
fn a_format_1_file_is_named_as_such() {
    for old in [1, 2, 3] {
        let mut store = TempStore::new();
        store.close();
        let mut file = std::fs::read(store.path()).unwrap();
        stamp_format_version(&mut file, old);
        std::fs::write(store.path(), &file).unwrap();

        let output = odedump(&["info", store.path().to_str().unwrap()])
            .output()
            .unwrap();
        assert!(!output.status.success());
        assert!(
            stderr_of(&output).contains(&format!("unsupported database format {old}")),
            "{}",
            stderr_of(&output)
        );
        assert_eq!(std::fs::read(store.path()).unwrap(), file, "format {old}");
    }
}
