//! `ode-routerd` — front a fleet of `ode-served` shards with one
//! address.
//!
//! ```text
//! ode-routerd <addr> <backend>... [--stats-every SECS]
//! ```
//!
//! Binds `<addr>` (e.g. `127.0.0.1:4806`; port 0 picks a free port and
//! prints it) and speaks the `ode-net` wire protocol to clients exactly
//! as a single `ode-served` would, while routing every request to one
//! of the listed backends by object id. Backend order **is** the shard
//! map: the `i`-th backend claims the ids `≡ i (mod count)` on first
//! contact and keeps that claim on disk, so list the same backends in
//! the same order on every router and every restart — a shard listed in
//! another place refuses the router's dial and answers `Unavailable`.
//! The router serves any number of clients from a few threads (one per
//! core, 4 to 16). Runs until killed; the router holds no state worth
//! saving — all durability lives in the shards.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Duration;

use ode_net::{OdeRouter, RouterConfig};

/// `println!` that ignores a closed stdout: losing the log pipe must
/// never take the router down with a broken-pipe panic.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ode-routerd <addr> <backend>... [options]\n\
         \x20 <addr>             address to serve clients on\n\
         \x20 <backend>...       shard addresses, in shard-map order\n\
         options:\n\
         \x20 --stats-every SECS print router stats periodically"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")).cloned() else {
        return usage();
    };

    let mut stats_every: Option<Duration> = None;
    let mut backends: Vec<SocketAddr> = Vec::new();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--stats-every" => match rest.next().and_then(|s| s.parse().ok()) {
                Some(secs) => stats_every = Some(Duration::from_secs(secs)),
                None => return usage(),
            },
            backend if !backend.starts_with("--") => {
                match backend.to_socket_addrs().ok().and_then(|mut it| it.next()) {
                    Some(resolved) => backends.push(resolved),
                    None => {
                        eprintln!("ode-routerd: cannot resolve backend {backend}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            _ => return usage(),
        }
    }
    if backends.is_empty() {
        return usage();
    }

    let shards = backends.len();
    let router = match OdeRouter::bind(addr.as_str(), backends, RouterConfig::default()) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("ode-routerd: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    out!(
        "ode-routerd: routing {} shard{} on {}",
        shards,
        if shards == 1 { "" } else { "s" },
        router.local_addr()
    );

    // Route until the process is killed. With --stats-every, wake up
    // periodically to print counters; otherwise just park.
    loop {
        match stats_every {
            Some(interval) => {
                std::thread::sleep(interval);
                let stats = router.stats();
                out!(
                    "stats: {} conns, {} forwarded, {} local, {} gathers, {} backend dials, {} shard failures, {} unavailable, {} protocol errors",
                    stats.client_connections,
                    stats.forwarded,
                    stats.answered_locally,
                    stats.gathers,
                    stats.backend_connects,
                    stats.shard_failures,
                    stats.unavailable_errors,
                    stats.protocol_errors,
                );
            }
            None => std::thread::park(),
        }
    }
}
