//! `odedump` — inspect an Ode database from the command line.
//!
//! ```text
//! odedump info    <db>          physical + logical summary
//! odedump objects <db>          list live objects
//! odedump object  <db> <oid>    one object's metadata and history
//! odedump chains  <db>          per-object delta-chain statistics
//! odedump dot     <db> <oid>    Graphviz export of a version graph
//! odedump wal     <db>          decode WAL records (offsets, epochs)
//! odedump fsck    <db>          consistency check
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: odedump <command> <db> [args]\n\
         commands:\n\
         \x20 info    <db>          physical + logical summary\n\
         \x20 objects <db>          list live objects\n\
         \x20 object  <db> <oid>    one object's metadata and history\n\
         \x20 chains  <db>          per-object delta-chain statistics\n\
         \x20 dot     <db> <oid>    Graphviz export of a version graph\n\
         \x20 wal     <db>          decode WAL records (offsets, epochs) + summary\n\
         \x20 fsck    <db>          consistency check"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return usage(),
    };
    let db: PathBuf = match rest.first() {
        Some(path) => PathBuf::from(path),
        None => return usage(),
    };
    let oid_arg = || -> Option<u64> { rest.get(1).and_then(|s| s.parse().ok()) };

    let outcome = match command {
        "info" => ode_tools::store_info(&db).map(|info| {
            println!("pages      : {}", info.page_count);
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
                println!("  {name:<12}: {count}");
            }
            println!("wal bytes  : {}", info.wal_bytes);
            println!("objects    : {}", info.object_count);
            println!("versions   : {}", info.version_count);
            println!("types      : {}", info.type_count);
            println!("buffer pool (during this scan):");
            println!("  hits      : {}", info.buffer.hits);
            println!("  misses    : {}", info.buffer.misses);
            println!("  evictions : {}", info.buffer.evictions);
            println!("  writebacks: {}", info.buffer.writebacks);
            println!("storage engine (during this scan):");
            println!("  read txs  : {}", info.storage.read_txs);
            println!("  write txs : {}", info.storage.write_txs);
            println!(
                "  reader waits: {} ({} ns)",
                info.storage.reader_waits, info.storage.reader_wait_nanos
            );
            println!(
                "  writer waits: {} ({} ns)",
                info.storage.writer_waits, info.storage.writer_wait_nanos
            );
            println!(
                "  write conflicts: {} ({} retries)",
                info.storage.write_conflicts, info.storage.write_retries
            );
        }),
        "objects" => ode_tools::list_objects(&db).map(|objects| {
            println!(
                "{:<8} {:<20} {:>8} {:>8} {:>10}",
                "oid", "tag", "versions", "latest", "body(B)"
            );
            for o in objects {
                println!(
                    "{:<8} {:<#20x} {:>8} {:>8} {:>10}",
                    o.oid, o.tag, o.versions, o.latest, o.latest_body_bytes
                );
            }
        }),
        "object" => match oid_arg() {
            Some(oid) => ode_tools::describe_object(&db, oid).map(|text| print!("{text}")),
            None => return usage(),
        },
        "chains" => ode_tools::chain_report(&db).map(|chains| {
            if chains.is_empty() {
                println!("no delta chains (store holds whole-body versions only)");
                return;
            }
            println!(
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
            );
            let (mut encoded, mut materialized, mut merges) = (0u64, 0u64, 0u64);
            for c in &chains {
                encoded += c.encoded_bytes;
                materialized += c.materialized_bytes;
                merges += c.merges;
                println!(
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
                );
            }
            let ratio = if materialized == 0 {
                1.0
            } else {
                encoded as f64 / materialized as f64
            };
            println!(
                "total: {encoded} B encoded vs {materialized} B as full copies (ratio {ratio:.3})"
            );
            if merges > 0 {
                println!("merge joins: {merges} two-parent version(s) across the store");
            }
        }),
        "dot" => match oid_arg() {
            Some(oid) => ode_tools::export_object_dot(&db, oid).map(|dot| print!("{dot}")),
            None => return usage(),
        },
        "wal" => ode_tools::wal_records(&db).and_then(|(records, torn)| {
            if !records.is_empty() {
                println!("{:>10} {:>9} {:>7}  record", "offset", "bytes", "epoch");
                for r in &records {
                    let epoch = match r.epoch {
                        Some(e) => format!("+{e}"),
                        None => "-".into(),
                    };
                    println!(
                        "{:>10} {:>9} {:>7}  {}",
                        r.offset, r.payload_bytes, epoch, r.desc
                    );
                }
            }
            if let Some(offset) = torn {
                println!("torn tail at offset {offset} (expected after a crash)");
            }
            ode_tools::wal_summary(&db).map(|s| {
                println!("bytes      : {}", s.bytes);
                println!("begins     : {}", s.begins);
                println!("commits    : {}", s.commits);
                println!("page images: {}", s.page_images);
                println!("page deltas: {}", s.page_deltas);
                println!("torn tail  : {}", s.torn_tail);
            })
        }),
        "fsck" => ode_tools::fsck(&db).map(|report| {
            println!(
                "checked {} objects / {} versions",
                report.objects_checked, report.versions_checked
            );
            if report.is_healthy() {
                println!("store is healthy");
            } else {
                for p in &report.problems {
                    println!("PROBLEM: {p}");
                }
            }
        }),
        _ => return usage(),
    };

    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("odedump: {e}");
            ExitCode::FAILURE
        }
    }
}
