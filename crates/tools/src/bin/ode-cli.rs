//! `ode-cli` — poke a running `ode-served` instance.
//!
//! ```text
//! ode-cli <addr> ping
//! ode-cli <addr> stats
//! ode-cli <addr> put <text>                 create a Note object
//! ode-cli <addr> get <oid>...               latest version of each Note
//! ode-cli <addr> get --pipeline <oid>...    same, batched in one pipeline
//! ode-cli <addr> get-version <vid>          one pinned version
//! ode-cli <addr> set <oid> <text>           overwrite the latest version
//! ode-cli <addr> newversion <oid>           derive from the latest
//! ode-cli <addr> newversion-from <vid>      derive from a pinned version
//! ode-cli <addr> history <oid> [from to]    all versions, temporal order
//!                                           (optionally only stamps in
//!                                           from..=to, chain-served)
//! ode-cli <addr> history <oid> --json       same, as a JSON array with
//!                                           stable field ordering
//! ode-cli <addr> diff <vid> <vid>           delta summary between versions
//! ode-cli <addr> merge <vid> <vid> [--ours|--theirs]
//!                                           three-way merge two versions
//!                                           of one object
//! ode-cli <addr> objects                    every Note on the server
//! ode-cli <addr> delete <oid>               pdelete the object
//! ode-cli <addr> delete-version <vid>       pdelete one version
//! ode-cli <addr> promote                    turn a replica into a primary
//! ```
//!
//! The CLI works with one concrete type, `Note { text }` — enough to
//! demonstrate every versioning operation end to end from a shell.

use std::process::ExitCode;

use ode::{MergePolicy, ObjPtr, Oid, Session, VersionPtr, Vid};
use ode_codec::{from_bytes, impl_persist_struct, impl_type_name};
use ode_net::{ClientConfig, NetError, OdeClient, Request, Response};

/// `println!` that exits quietly when stdout is gone (output piped
/// into `head`, say) instead of panicking on the broken pipe.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// The CLI's object type. Any process (CLI or library) that declares
/// the same persistent name and layout can read these objects.
#[derive(Debug, Clone, PartialEq)]
struct Note {
    text: String,
}
impl_persist_struct!(Note { text });
impl_type_name!(Note = "ode-cli/Note");

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_escape(s: &str) -> String {
    let mut escaped = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    escaped
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ode-cli <addr> <command> [args]\n\
         commands:\n\
         \x20 ping\n\
         \x20 stats\n\
         \x20 put <text>               create a Note, print its ids\n\
         \x20 get [--pipeline] <oid>...\n\
         \x20                          latest text of each Note; with\n\
         \x20                          --pipeline all requests share one\n\
         \x20                          in-flight batch\n\
         \x20 get-version <vid>        one pinned version's text\n\
         \x20 set <oid> <text>         overwrite the latest version\n\
         \x20 newversion <oid>         derive a version from the latest\n\
         \x20 newversion-from <vid>    derive from a pinned version\n\
         \x20 history <oid> [from to]  list all versions, or only those\n\
         \x20                          whose stamp falls in from..=to;\n\
         \x20                          --json emits a JSON array with\n\
         \x20                          stable field ordering\n\
         \x20 diff <vid> <vid>         delta summary between two versions\n\
         \x20 merge <vid> <vid>        three-way merge two versions of one\n\
         \x20                          object against their common ancestor;\n\
         \x20                          --ours/--theirs resolves conflicting\n\
         \x20                          ranges instead of failing\n\
         \x20 objects                  list every Note\n\
         \x20 delete <oid>             delete object + versions\n\
         \x20 delete-version <vid>     delete one version\n\
         \x20 promote                  turn a replica into a primary"
    );
    ExitCode::from(2)
}

/// Fetch every oid's latest version in one pipelined batch: all
/// requests go out before the first response is awaited, so the whole
/// list costs roughly one round trip instead of one per object.
fn get_pipelined(client: &mut OdeClient, oids: &[u64]) -> ode_net::Result<()> {
    let tag = ObjPtr::<Note>::tag();
    let mut pipe = client.pipeline();
    for &oid in oids {
        pipe.push(&Request::Deref { oid: Oid(oid), tag })?;
    }
    let responses = pipe.run()?;
    for (&oid, response) in oids.iter().zip(responses) {
        match response {
            Response::Body { vid, bytes } => {
                let note: Note = from_bytes(&bytes)?;
                out!("{} @ {}: {}", Oid(oid), vid, note.text);
            }
            Response::Err(e) => out!("{}: error: {e}", Oid(oid)),
            other => {
                return Err(NetError::Protocol(format!(
                    "expected a body response, got {}",
                    other.kind_name()
                )))
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, command, rest) = match args.split_first() {
        Some((addr, rest)) => match rest.split_first() {
            Some((command, rest)) => (addr.clone(), command.clone(), rest.to_vec()),
            None => return usage(),
        },
        None => return usage(),
    };
    let id_arg = || -> Option<u64> { rest.first().and_then(|s| s.parse().ok()) };
    let obj = |oid: u64| -> ObjPtr<Note> { ObjPtr::from_oid(Oid(oid)) };
    let ver = |vid: u64| -> VersionPtr<Note> { VersionPtr::from_vid(Vid(vid)) };

    let mut client = match OdeClient::connect(addr.as_str(), ClientConfig::default()) {
        Ok(client) => Session::new(client),
        Err(e) => {
            eprintln!("ode-cli: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let outcome = match command.as_str() {
        "ping" => client.raw().ping().map(|()| out!("pong")),
        "promote" => client.raw().promote().map(|()| out!("promoted")),
        "stats" => client.raw().stats().map(|stats| {
            out!(
                "connections: {} total, {} active",
                stats.total_connections,
                stats.active_connections
            );
            out!(
                "bytes      : {} in, {} out",
                stats.bytes_in,
                stats.bytes_out
            );
            out!(
                "errors     : {} op, {} protocol",
                stats.op_errors,
                stats.protocol_errors
            );
            out!(
                "evictions  : {} slow clients over the write-buffer cap",
                stats.slow_client_evictions
            );
            out!(
                "snapshots  : {} cache hits, {} misses",
                stats.snapshot_hits,
                stats.snapshot_misses
            );
            out!(
                "materialize: {} cache hits, {} misses (historical chain reads)",
                stats.materialize_hits,
                stats.materialize_misses
            );
            for line in ode_tools::store_stats_lines(&stats.storage) {
                out!("{line}");
            }
            out!("requests   : {}", stats.total_requests());
            for (op, n) in &stats.requests {
                out!("  {:<16} {n}", op.name());
            }
        }),
        "put" => match rest.first() {
            Some(text) => client
                .pnew(&Note { text: text.clone() })
                .and_then(|p| client.current_version(&p).map(|v| (p, v)))
                .map(|(p, v)| out!("created {} (latest {})", p.oid(), v.vid())),
            None => return usage(),
        },
        "get" => {
            let pipelined = rest.iter().any(|a| a == "--pipeline");
            let oids: Option<Vec<u64>> = rest
                .iter()
                .filter(|a| *a != "--pipeline")
                .map(|s| s.parse().ok())
                .collect();
            match oids {
                Some(oids) if !oids.is_empty() => {
                    if pipelined {
                        get_pipelined(client.raw(), &oids)
                    } else {
                        oids.iter().try_for_each(|&oid| {
                            client.deref(&obj(oid)).map(|note| {
                                out!("{} @ {}: {}", Oid(oid), note.version().vid(), note.text)
                            })
                        })
                    }
                }
                _ => return usage(),
            }
        }
        "get-version" => match id_arg() {
            Some(vid) => client
                .deref_v(&ver(vid))
                .map(|note| out!("{}: {}", Vid(vid), note.text)),
            None => return usage(),
        },
        "set" => match (id_arg(), rest.get(1)) {
            (Some(oid), Some(text)) => client
                .put(&obj(oid), &Note { text: text.clone() })
                .map(|v| out!("updated {} (latest {})", Oid(oid), v.vid())),
            _ => return usage(),
        },
        "newversion" => match id_arg() {
            Some(oid) => client
                .newversion(&obj(oid))
                .map(|v| out!("derived {}", v.vid())),
            None => return usage(),
        },
        "newversion-from" => match id_arg() {
            Some(vid) => client
                .newversion_from(&ver(vid))
                .map(|v| out!("derived {} from {}", v.vid(), Vid(vid))),
            None => return usage(),
        },
        "history" => {
            let json = rest.iter().any(|a| a == "--json");
            let args: Vec<&String> = rest.iter().filter(|a| *a != "--json").collect();
            match args
                .split_first()
                .and_then(|(o, b)| o.parse::<u64>().ok().map(|oid| (oid, b.to_vec())))
            {
                Some((oid, bounds)) => (|| {
                    let p = obj(oid);
                    let history = match bounds.as_slice() {
                        [from, to] => match (from.parse::<u64>(), to.parse::<u64>()) {
                            (Ok(from), Ok(to)) => client.history_between(&p, from, to)?,
                            _ => {
                                return Err(NetError::Protocol(
                                    "history range bounds must be integers".into(),
                                ))
                            }
                        },
                        _ => client.version_history(&p)?,
                    };
                    let latest = client.current_version(&p)?;
                    if json {
                        // Machine-readable history. Field order is part
                        // of the contract — always vid, from, latest,
                        // text — so line-oriented consumers can diff two
                        // runs without re-serialising.
                        out!("[");
                        for (i, v) in history.iter().enumerate() {
                            let note = client.deref_v(v)?;
                            let from = match client.dprevious(v)? {
                                Some(b) => b.vid().0.to_string(),
                                None => "null".to_string(),
                            };
                            let comma = if i + 1 < history.len() { "," } else { "" };
                            out!(
                                "  {{\"vid\":{},\"from\":{from},\"latest\":{},\"text\":\"{}\"}}{comma}",
                                v.vid().0,
                                *v == latest,
                                json_escape(&note.text)
                            );
                        }
                        out!("]");
                        return Ok(());
                    }
                    for v in history {
                        let note = client.deref_v(&v)?;
                        let dprev = client.dprevious(&v)?;
                        let marker = if v == latest { "  <- latest" } else { "" };
                        let from = match dprev {
                            Some(b) => format!(" (from {})", b.vid()),
                            None => String::new(),
                        };
                        out!("{}{from}: {}{marker}", v.vid(), note.text);
                    }
                    Ok(())
                })(),
                None => return usage(),
            }
        }
        "diff" => match (id_arg(), rest.get(1).and_then(|s| s.parse::<u64>().ok())) {
            (Some(a), Some(b)) => client.diff_versions(&ver(a), &ver(b)).map(|d| {
                out!("diff {}..{}", d.from, d.to);
                out!("  target state : {} B", d.to_len);
                out!(
                    "  instructions : {} ops, {} literal bytes",
                    d.ops,
                    d.literal_bytes
                );
                out!("  encoded delta: {} B", d.encoded_bytes);
                out!(
                    "  stored form  : {}",
                    if d.stored {
                        "chain delta (adjacent versions, served as stored)"
                    } else {
                        "computed on demand"
                    }
                );
            }),
            _ => return usage(),
        },
        "merge" => {
            let policy = if rest.iter().any(|a| a == "--ours") {
                MergePolicy::Ours
            } else if rest.iter().any(|a| a == "--theirs") {
                MergePolicy::Theirs
            } else {
                MergePolicy::Fail
            };
            let ids: Vec<u64> = rest
                .iter()
                .filter(|a| !a.starts_with("--"))
                .filter_map(|s| s.parse().ok())
                .collect();
            match ids.as_slice() {
                [a, b] => client.merge(&ver(*a), &ver(*b), policy).map(|report| {
                    for c in &report.conflicts {
                        out!(
                            "conflict [{}, {}): ours {:?}, theirs {:?}",
                            c.base_start,
                            c.base_end,
                            String::from_utf8_lossy(&c.ours),
                            String::from_utf8_lossy(&c.theirs)
                        );
                    }
                    match report.version {
                        Some(v) => out!("merged as {} (policy: {})", v.vid(), policy.name()),
                        None => out!(
                            "not merged: {} conflicting range(s); re-run with --ours or --theirs to resolve",
                            report.conflicts.len()
                        ),
                    }
                }),
                _ => return usage(),
            }
        }
        "objects" => client.objects::<Note>().and_then(|objects| {
            for p in objects {
                let note = client.deref(&p)?;
                let n = client.version_count(&p)?;
                out!(
                    "{} ({n} versions, latest {}): {}",
                    p.oid(),
                    note.version().vid(),
                    note.text
                );
            }
            Ok(())
        }),
        "delete" => match id_arg() {
            Some(oid) => client
                .pdelete(obj(oid))
                .map(|()| out!("deleted {}", Oid(oid))),
            None => return usage(),
        },
        "delete-version" => match id_arg() {
            Some(vid) => client
                .pdelete_version(ver(vid))
                .map(|()| out!("deleted {}", Vid(vid))),
            None => return usage(),
        },
        _ => return usage(),
    };

    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ode-cli: {e}");
            ExitCode::FAILURE
        }
    }
}
