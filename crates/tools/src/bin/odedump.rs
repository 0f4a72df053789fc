//! `odedump` — inspect an Ode database from the command line.
//!
//! ```text
//! odedump info    <db>          physical + logical summary
//! odedump objects <db>          list live objects
//! odedump object  <db> <oid>    one object's metadata and history
//! odedump chains  <db>          per-object delta-chain statistics
//! odedump dot     <db> <oid>    Graphviz export of a version graph
//! odedump wal     <db>          list WAL commits (offsets, links, epochs, page records)
//! odedump fsck    <db>          consistency check
//! ```

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use ode_storage::wal::WalRecord;
use ode_version::VersionError;

fn usage() -> ExitCode {
    eprintln!(
        "usage: odedump <command> <db> [args]\n\
         commands:\n\
         \x20 info    <db>          physical + logical summary\n\
         \x20 objects <db>          list live objects\n\
         \x20 object  <db> <oid>    one object's metadata and history\n\
         \x20 chains  <db>          per-object delta-chain statistics\n\
         \x20 dot     <db> <oid>    Graphviz export of a version graph\n\
         \x20 wal     <db>          list WAL commits (offsets, links, epochs, page records) + summary\n\
         \x20 fsck    <db>          consistency check"
    );
    ExitCode::from(2)
}

/// Why a command stopped before printing everything.
enum Stop {
    /// The arguments do not name a command.
    Usage,
    /// The database could not be read.
    Db(VersionError),
    /// Writing the output failed.
    Out(io::Error),
}

impl From<VersionError> for Stop {
    fn from(e: VersionError) -> Stop {
        Stop::Db(e)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        Stop::Out(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    match run(command, rest, &mut io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader has gone (`odedump info | head -1`) and has all it
        // wanted: not a failure.
        Err(Stop::Out(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Stop::Usage) => usage(),
        Err(Stop::Db(e)) => {
            eprintln!("odedump: {e}");
            ExitCode::FAILURE
        }
        Err(Stop::Out(e)) => {
            eprintln!("odedump: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str, rest: &[String], out: &mut impl Write) -> Result<(), Stop> {
    let db = PathBuf::from(rest.first().ok_or(Stop::Usage)?);
    let oid_arg =
        || -> Result<u64, Stop> { rest.get(1).and_then(|s| s.parse().ok()).ok_or(Stop::Usage) };

    match command {
        "info" => {
            let info = ode_tools::store_info(&db)?;
            writeln!(out, "pages      : {}", info.page_count)?;
            for (kind, count) in &info.pages_by_kind {
                let name = match kind {
                    Some(1) => "header",
                    Some(2) => "free",
                    Some(3) => "heap",
                    Some(4) => "overflow",
                    Some(5) => "btree-inner",
                    Some(6) => "btree-leaf",
                    Some(7) => "heap-dir",
                    _ => "unreadable",
                };
                writeln!(out, "  {name:<12}: {count}")?;
            }
            writeln!(out, "wal bytes  : {}", info.wal_bytes)?;
            writeln!(out, "objects    : {}", info.object_count)?;
            writeln!(out, "versions   : {}", info.version_count)?;
            writeln!(out, "types      : {}", info.type_count)?;
            match info.id_claim {
                Some(claim) => writeln!(out, "ids        : {claim}")?,
                None => writeln!(out, "ids        : unclaimed")?,
            }
            writeln!(out, "buffer pool (during this scan):")?;
            writeln!(out, "  hits      : {}", info.buffer.hits)?;
            writeln!(out, "  misses    : {}", info.buffer.misses)?;
            writeln!(out, "  evictions : {}", info.buffer.evictions)?;
            writeln!(out, "  writebacks: {}", info.buffer.writebacks)?;
            writeln!(out, "storage engine (during this scan):")?;
            for line in ode_tools::store_stats_lines(&info.storage) {
                writeln!(out, "  {line}")?;
            }
        }
        "objects" => {
            let objects = ode_tools::list_objects(&db)?;
            writeln!(
                out,
                "{:<8} {:<20} {:>8} {:>8} {:>10}",
                "oid", "tag", "versions", "latest", "body(B)"
            )?;
            for o in objects {
                writeln!(
                    out,
                    "{:<8} {:<#20x} {:>8} {:>8} {:>10}",
                    o.oid, o.tag, o.versions, o.latest, o.latest_body_bytes
                )?;
            }
        }
        "object" => {
            let text = ode_tools::describe_object(&db, oid_arg()?)?;
            write!(out, "{text}")?;
        }
        "chains" => {
            let chains = ode_tools::chain_report(&db)?;
            if chains.is_empty() {
                writeln!(
                    out,
                    "no delta chains (store holds single-version objects only)"
                )?;
            } else {
                writeln!(
                    out,
                    "{:<8} {:>8} {:>8} {:>6} {:>9} {:>6} {:>6} {:>11} {:>12} {:>6}",
                    "oid",
                    "versions",
                    "segments",
                    "delta",
                    "open-fill",
                    "merges",
                    "dir(B)",
                    "encoded(B)",
                    "full-copy(B)",
                    "ratio"
                )?;
                let (mut encoded, mut materialized, mut merges) = (0u64, 0u64, 0u64);
                for c in &chains {
                    encoded += c.encoded_bytes;
                    materialized += c.materialized_bytes;
                    merges += c.merges;
                    writeln!(
                        out,
                        "{:<8} {:>8} {:>8} {:>6} {:>9} {:>6} {:>6} {:>11} {:>12} {:>6.3}",
                        c.oid,
                        c.versions,
                        c.segments,
                        c.deltas,
                        format!("{}/{}", c.open_fill, c.interval),
                        c.merges,
                        c.directory_bytes,
                        c.encoded_bytes,
                        c.materialized_bytes,
                        c.ratio
                    )?;
                }
                let ratio = if materialized == 0 {
                    1.0
                } else {
                    encoded as f64 / materialized as f64
                };
                writeln!(
                    out,
                    "total: {encoded} B encoded vs {materialized} B as full copies (ratio {ratio:.3})"
                )?;
                if merges > 0 {
                    writeln!(
                        out,
                        "merge joins: {merges} two-parent version(s) across the store"
                    )?;
                }
            }
        }
        "dot" => {
            let dot = ode_tools::export_object_dot(&db, oid_arg()?)?;
            write!(out, "{dot}")?;
        }
        "wal" => {
            let (commits, torn) = ode_tools::wal_records(&db)?;
            if !commits.is_empty() {
                writeln!(
                    out,
                    "{:>10} {:>9} {:>10} {:>7}  page records",
                    "offset", "bytes", "link", "epoch"
                )?;
            }
            // One line a page record; a commit's frame heads its first.
            for c in &commits {
                for (k, record) in c.records.iter().enumerate() {
                    let frame = if k == 0 {
                        format!(
                            "{:>10} {:>9} {:#010x} {:>7}",
                            c.offset,
                            c.payload_bytes,
                            c.link,
                            format!("+{}", c.epoch)
                        )
                    } else {
                        String::new()
                    };
                    let desc = match record {
                        WalRecord::Page { page, image } => {
                            format!("page-image  page={page} bytes={}", image.len())
                        }
                        WalRecord::PageDelta { page, ops } => {
                            let bytes: usize = ops.iter().map(|(_, b)| b.len()).sum();
                            format!("page-delta  page={page} runs={} bytes={bytes}", ops.len())
                        }
                    };
                    writeln!(out, "{frame:<39}  {desc}")?;
                }
            }
            if let Some(offset) = torn {
                writeln!(out, "torn tail at offset {offset} (expected after a crash)")?;
            }
            let s = ode_tools::wal_summary(&db)?;
            writeln!(out, "seed       : {:#010x}", s.seed)?;
            writeln!(out, "bytes      : {}", s.bytes)?;
            writeln!(out, "commits    : {}", s.commits)?;
            writeln!(out, "page images: {}", s.page_images)?;
            writeln!(out, "page deltas: {}", s.page_deltas)?;
            writeln!(out, "torn tail  : {}", s.torn_tail)?;
        }
        "fsck" => {
            let report = ode_tools::fsck(&db)?;
            writeln!(
                out,
                "checked {} objects / {} versions",
                report.objects_checked, report.versions_checked
            )?;
            if report.is_healthy() {
                writeln!(out, "store is healthy")?;
            } else {
                for p in &report.problems {
                    writeln!(out, "PROBLEM: {p}")?;
                }
            }
        }
        _ => return Err(Stop::Usage),
    }
    Ok(out.flush()?)
}
