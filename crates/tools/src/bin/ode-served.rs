//! `ode-served` — serve an Ode database over TCP.
//!
//! ```text
//! ode-served <db-path> <addr> [--workers N] [--no-sync] [--chain N]
//!            [--stats-every SECS] [--replica-of ADDR]
//! ```
//!
//! Opens (or creates) the database at `<db-path>` and serves the
//! `ode-net` wire protocol on `<addr>` (e.g. `127.0.0.1:4807`; port 0
//! picks a free port and prints it). Runs until killed; every
//! committed write is WAL-durable before its response is sent, so a
//! `SIGKILL` loses nothing that was acknowledged.
//!
//! With `--replica-of ADDR` the server is a replica of the primary
//! serving on `ADDR`: it subscribes on that port, applies the primary's
//! log into `<db-path>` (replacing what the file held), serves reads
//! and refuses writes until promoted (`ode-cli <addr> promote`). A
//! primary holds each write's answer until a subscribed replica has
//! applied it, for at most half a second.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use ode::{ChainConfig, Database, DatabaseOptions};
use ode_net::{OdeServer, ServerConfig};

/// `println!` that ignores a closed stdout: losing the log pipe must
/// never take the server down with a broken-pipe panic.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ode-served <db-path> <addr> [options]\n\
         options:\n\
         \x20 --workers N        worker threads (default: CPU count, 4..=16)\n\
         \x20 --no-sync          skip fsync on commit (benchmarking only)\n\
         \x20 --chain N          anchor interval of new delta chains (default 8;\n\
         \x20                    historical reads cost at most N-1 delta\n\
         \x20                    applications, 1 stores whole copies)\n\
         \x20 --stats-every SECS print server stats periodically\n\
         \x20 --replica-of ADDR  replicate the primary serving on ADDR"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, addr) = match (args.first(), args.get(1)) {
        (Some(p), Some(a)) if !p.starts_with("--") && !a.starts_with("--") => {
            (p.clone(), a.clone())
        }
        _ => return usage(),
    };

    let mut config = ServerConfig::default();
    let mut no_sync = false;
    let mut chain = ChainConfig::default();
    let mut stats_every: Option<Duration> = None;
    let mut primary: Option<String> = None;
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--workers" => match rest.next().and_then(|s| s.parse().ok()) {
                Some(n) => config.workers = n,
                None => return usage(),
            },
            "--no-sync" => no_sync = true,
            "--chain" => match rest.next().and_then(|s| s.parse().ok()) {
                Some(n) => chain = ChainConfig::with_interval(n),
                None => return usage(),
            },
            "--stats-every" => match rest.next().and_then(|s| s.parse().ok()) {
                Some(secs) => stats_every = Some(Duration::from_secs(secs)),
                None => return usage(),
            },
            "--replica-of" => match rest.next() {
                Some(addr) => primary = Some(addr.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let options = if no_sync {
        DatabaseOptions::no_sync()
    } else {
        DatabaseOptions::default()
    }
    .with_chain(chain);

    let db = match Database::open_or_create(&path, options) {
        Ok(db) => Arc::new(db),
        Err(e) => {
            eprintln!("ode-served: cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    config.replica = primary.is_some();
    let server = match OdeServer::bind(db, addr.as_str(), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ode-served: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(primary) = primary {
        if let Err(e) = server.follow(primary.as_str()) {
            eprintln!("ode-served: cannot follow {primary}: {e}");
            return ExitCode::FAILURE;
        }
        out!("ode-served: replica of {primary}");
    }
    out!("ode-served: serving {path} on {}", server.local_addr());

    // Serve until the process is killed. With --stats-every, wake up
    // periodically to print counters; otherwise just park.
    loop {
        match stats_every {
            Some(interval) => {
                std::thread::sleep(interval);
                let stats = server.stats();
                out!(
                    "stats: {} conns ({} active), {} reqs, {} B in, {} B out, {} op errors, {} protocol errors",
                    stats.total_connections,
                    stats.active_connections,
                    stats.total_requests(),
                    stats.bytes_in,
                    stats.bytes_out,
                    stats.op_errors,
                    stats.protocol_errors,
                );
                for (op, n) in &stats.requests {
                    out!("  {:<16} {n}", op.name());
                }
            }
            None => std::thread::park(),
        }
    }
}
