//! `net_bench` — loopback throughput of `ode-net`: sequential vs
//! pipelined reads, then connection scaling.
//!
//! ```text
//! net_bench [clients] [reads_per_client] [batch] [objects] [max_scaling_conns]
//! ```
//!
//! One in-process server on 127.0.0.1, `clients` client threads, each
//! performing `reads_per_client` Deref reads over a shared pool of
//! `objects` seeded objects. Three phases:
//!
//! - **sequential** — one request, one round trip, `call()` at a time
//!   (the PR 1 client model);
//! - **pipelined** — the same reads pushed in `batch`-sized
//!   [`Pipeline`](ode_net::Pipeline) batches, so a whole batch costs
//!   roughly one round trip;
//! - **connection_scaling** — pipelined reads spread over 64, 1 000,
//!   and 10 000 (capped at `max_scaling_conns`) concurrent
//!   connections. The driving client is a re-exec'd subprocess
//!   (`--scaling-client`, hidden) running its own epoll loop, so each
//!   process holds only one end of every socket pair and neither side
//!   spawns a thread per connection. Each point records the server
//!   process's thread count and RSS with every connection open — the
//!   claim under test is that both stay flat.
//!
//! The report (JSON on stdout, the shape checked into BENCH_net.json)
//! includes the server's snapshot-cache hit/miss counters per phase:
//! a read-only workload settles into one epoch, so nearly every read
//! after the first touch of each object is a cache hit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use ode::{Database, DatabaseOptions, Oid, RawRead, TypeTag};
use ode_net::protocol::{write_frame, FrameBuffer, MAGIC};
use ode_net::{ClientConfig, OdeClient, OdeServer, Request, Response, ServerConfig};
use polling::{Event, Poller};

const TAG: TypeTag = TypeTag(0x6e65745f62656e63); // "net_benc"

struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut wal = self.0.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
    }
}

struct PhaseResult {
    elapsed_secs: f64,
    ops_per_sec: f64,
    snapshot_hits: u64,
    snapshot_misses: u64,
}

/// Run one phase: every thread performs `reads` Derefs over `oids`,
/// round-robin from a per-thread offset. Returns aggregate throughput
/// and the snapshot-cache counters accumulated *during* the phase.
fn run_phase(
    addr: std::net::SocketAddr,
    clients: usize,
    reads: usize,
    batch: usize,
    oids: &[Oid],
    pipelined: bool,
) -> PhaseResult {
    let mut stats_client = OdeClient::connect(addr, ClientConfig::default()).expect("connect");
    let before = stats_client.stats().expect("stats");
    let barrier = Arc::new(Barrier::new(clients + 1));
    let start = Instant::now();
    thread::scope(|scope| {
        for t in 0..clients {
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut c = OdeClient::connect(addr, ClientConfig::default()).expect("connect");
                barrier.wait();
                let mut i = t; // offset per thread so the pool interleaves
                if pipelined {
                    let mut done = 0usize;
                    while done < reads {
                        let n = batch.min(reads - done);
                        let mut pipe = c.pipeline();
                        for _ in 0..n {
                            let oid = oids[i % oids.len()];
                            i += 1;
                            pipe.push(&Request::Deref { oid, tag: TAG }).expect("push");
                        }
                        for r in pipe.run().expect("pipeline") {
                            assert!(matches!(r, Response::Body { .. }));
                        }
                        done += n;
                    }
                } else {
                    for _ in 0..reads {
                        let oid = oids[i % oids.len()];
                        i += 1;
                        c.deref_raw(oid, TAG).expect("deref");
                    }
                }
            });
        }
        barrier.wait();
    });
    let elapsed = start.elapsed().as_secs_f64();
    let after = stats_client.stats().expect("stats");
    let total_ops = (clients * reads) as f64;
    PhaseResult {
        elapsed_secs: elapsed,
        ops_per_sec: total_ops / elapsed,
        snapshot_hits: after.snapshot_hits - before.snapshot_hits,
        snapshot_misses: after.snapshot_misses - before.snapshot_misses,
    }
}

/// A numeric field from `/proc/self/status` (`Threads:` is a count,
/// `VmRSS:` arrives in kB).
fn self_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"))
        .trim()
        .trim_end_matches(" kB")
        .parse()
        .expect("numeric /proc field")
}

/// One connection driven by the scaling client's event loop:
/// stop-and-wait windows of pipelined Derefs, so at most `window`
/// responses are ever in flight per connection and the burst writes
/// (a few hundred bytes) never fill the socket's send buffer.
struct ScalingConn {
    stream: TcpStream,
    fbuf: FrameBuffer,
    /// Responses still expected from the current window.
    awaiting: usize,
    /// Operations left to issue after the current window completes.
    remaining: usize,
}

/// The hidden `--scaling-client` mode: open `conns` connections to
/// `addr`, then drive `ops_per_conn` Derefs through each in `window`-
/// sized bursts, multiplexing every response stream over one epoll
/// loop in this single thread. Prints `CONNECTED` once every session
/// is handshaken (the parent samples its own threads/RSS on that
/// signal) and `OPS <n> ELAPSED <secs>` when the work is done.
///
/// Sockets stay blocking: under level-triggered readiness one `read`
/// per event can't park, and bursts are sent only when the previous
/// window is fully drained, so writes can't jam either.
fn scaling_client(args: &[String]) {
    let addr: SocketAddr = args[0].parse().expect("addr");
    let conns: usize = args[1].parse().expect("conns");
    let ops_per_conn: usize = args[2].parse().expect("ops_per_conn");
    let window: usize = args[3].parse().expect("window");
    let oid = Oid(args[4].parse().expect("oid"));
    polling::raise_nofile_limit().expect("raise RLIMIT_NOFILE");

    let poller = Poller::new().expect("poller");
    let mut sessions: Vec<ScalingConn> = (0..conns)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            stream.write_all(&MAGIC).expect("magic");
            let mut echo = [0u8; 4];
            stream.read_exact(&mut echo).expect("echo");
            assert_eq!(echo, MAGIC);
            poller
                .add(&stream, Event::readable(i))
                .expect("register conn");
            ScalingConn {
                stream,
                fbuf: FrameBuffer::new(),
                awaiting: 0,
                remaining: ops_per_conn,
            }
        })
        .collect();
    println!("CONNECTED");

    // One window burst, reused: every request is the same Deref, only
    // the sequence ids differ — and ids may repeat across windows.
    let mut burst = Vec::new();
    for seq in 0..window as u64 {
        let payload = Request::Deref { oid, tag: TAG }.encode(seq);
        write_frame(&mut burst, &payload).expect("frame");
    }
    let send_window = |s: &mut ScalingConn| {
        let n = s.remaining.min(window);
        let take: usize = (0..n).map(|i| frame_len_of(&burst, i)).sum();
        s.stream.write_all(&burst[..take]).expect("send window");
        s.awaiting = n;
        s.remaining -= n;
    };

    let started = Instant::now();
    for s in sessions.iter_mut() {
        send_window(s);
    }
    let mut done = 0usize;
    let total = conns;
    let mut events = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    while done < total {
        poller.wait(&mut events, None).expect("wait");
        for ev in &events {
            let s = &mut sessions[ev.key];
            if s.awaiting == 0 && s.remaining == 0 {
                continue;
            }
            let n = match s.stream.read(&mut scratch) {
                Ok(0) => panic!("server closed a scaling connection"),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("scaling read: {e}"),
            };
            s.fbuf.extend(&scratch[..n]);
            while let Some(payload) = s.fbuf.next_frame().expect("response frame") {
                let (_, resp) = Response::decode(payload).expect("response");
                assert!(matches!(resp, Response::Body { .. }), "got {resp:?}");
                s.awaiting -= 1;
            }
            if s.awaiting == 0 {
                if s.remaining > 0 {
                    send_window(s);
                } else {
                    done += 1;
                }
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!("OPS {} ELAPSED {elapsed}", conns * ops_per_conn);
}

/// Length of the `i`th frame in a concatenated burst (varint length
/// prefix + payload).
fn frame_len_of(burst: &[u8], mut skip: usize) -> usize {
    let mut at = 0usize;
    loop {
        let mut len = 0u64;
        let mut shift = 0;
        let start = at;
        loop {
            let b = burst[at];
            at += 1;
            len |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        at += len as usize;
        if skip == 0 {
            return at - start;
        }
        skip -= 1;
    }
}

struct ScalePoint {
    connections: usize,
    total_ops: usize,
    ops_per_sec: f64,
    server_threads: u64,
    server_rss_mb: f64,
}

/// Run one connection-scaling point: spawn the re-exec'd scaling
/// client against `addr`, sample this (server) process's thread count
/// and RSS while every connection is open and idle, then collect the
/// throughput once the client reports in.
fn run_scaling_point(addr: SocketAddr, conns: usize, oid: Oid) -> ScalePoint {
    // ~128k ops total, at least 8 per connection, window 8.
    let ops_per_conn = (131_072 / conns).max(8);
    let window = ops_per_conn.min(8);
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .arg("--scaling-client")
        .arg(addr.to_string())
        .arg(conns.to_string())
        .arg(ops_per_conn.to_string())
        .arg(window.to_string())
        .arg(oid.0.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn scaling client");
    let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();
    let ready = lines.next().expect("CONNECTED line").expect("read child");
    assert_eq!(ready, "CONNECTED", "unexpected scaling-client output");
    // Every connection is open right now: this is the load the claim
    // is about — threads and memory must not scale with it.
    let server_threads = self_status("Threads:");
    let server_rss_mb = self_status("VmRSS:") as f64 / 1024.0;
    let report = lines.next().expect("OPS line").expect("read child");
    let status = child.wait().expect("child exit");
    assert!(status.success(), "scaling client failed");
    let mut fields = report.split_whitespace();
    assert_eq!(fields.next(), Some("OPS"));
    let total_ops: usize = fields.next().expect("ops").parse().expect("ops");
    assert_eq!(fields.next(), Some("ELAPSED"));
    let elapsed: f64 = fields.next().expect("elapsed").parse().expect("elapsed");
    ScalePoint {
        connections: conns,
        total_ops,
        ops_per_sec: total_ops as f64 / elapsed,
        server_threads,
        server_rss_mb,
    }
}

fn main() {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    if raw_args.first().map(String::as_str) == Some("--scaling-client") {
        scaling_client(&raw_args[1..]);
        return;
    }
    let args: Vec<usize> = raw_args
        .iter()
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let clients = args.first().copied().unwrap_or(8);
    let reads = args.get(1).copied().unwrap_or(20_000);
    let batch = args.get(2).copied().unwrap_or(32);
    let objects = args.get(3).copied().unwrap_or(64);
    let max_conns = args.get(4).copied().unwrap_or(10_000);

    let path = std::env::temp_dir().join(format!("ode-net-bench-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let scratch = Scratch(path);
    let db = Arc::new(Database::create(&scratch.0, DatabaseOptions::no_sync()).expect("create db"));
    // Server threads execute requests in place: one per client (plus
    // the seeder and the per-phase stats connection) lets every
    // client's reads run at once, whatever the host's CPU count.
    // Connections themselves never wait for a thread.
    let config = ServerConfig {
        workers: clients + 2,
        ..ServerConfig::default()
    };
    let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let mut seeder = OdeClient::connect(addr, ClientConfig::default()).expect("connect");
    let body = vec![0xABu8; 128];
    let oids: Vec<Oid> = (0..objects)
        .map(|_| seeder.pnew_raw(TAG, body.clone()).expect("seed").0)
        .collect();

    // Warm-up: touch every object once so both phases start from a
    // fully resolved store (the first phase would otherwise pay the
    // cold-path cost alone).
    for &oid in &oids {
        seeder.deref_raw(oid, TAG).expect("warm");
    }

    let sequential = run_phase(addr, clients, reads, batch, &oids, false);
    let pipelined = run_phase(addr, clients, reads, batch, &oids, true);
    let speedup = pipelined.ops_per_sec / sequential.ops_per_sec;

    // Connection scaling: the same server, held at 64 / 1k / 10k open
    // connections (capped by the CLI) by a subprocess client, so the
    // two processes split the fd budget and neither needs a thread per
    // connection.
    polling::raise_nofile_limit().expect("raise RLIMIT_NOFILE");
    let mut scale_conns: Vec<usize> = [64usize, 1_000, 10_000]
        .iter()
        .map(|&c| c.min(max_conns.max(1)))
        .collect();
    scale_conns.dedup();
    let scaling: Vec<ScalePoint> = scale_conns
        .iter()
        .map(|&conns| run_scaling_point(addr, conns, oids[0]))
        .collect();
    server.shutdown();

    println!("{{");
    println!("  \"benchmark\": \"net_loopback_reads\",");
    println!("  \"clients\": {clients},");
    println!("  \"reads_per_client\": {reads},");
    println!("  \"batch\": {batch},");
    println!("  \"objects\": {objects},");
    println!("  \"sequential\": {{");
    println!("    \"ops_per_sec\": {:.0},", sequential.ops_per_sec);
    println!("    \"elapsed_secs\": {:.3},", sequential.elapsed_secs);
    println!("    \"snapshot_hits\": {},", sequential.snapshot_hits);
    println!("    \"snapshot_misses\": {}", sequential.snapshot_misses);
    println!("  }},");
    println!("  \"pipelined\": {{");
    println!("    \"ops_per_sec\": {:.0},", pipelined.ops_per_sec);
    println!("    \"elapsed_secs\": {:.3},", pipelined.elapsed_secs);
    println!("    \"snapshot_hits\": {},", pipelined.snapshot_hits);
    println!("    \"snapshot_misses\": {}", pipelined.snapshot_misses);
    println!("  }},");
    println!("  \"pipelined_over_sequential\": {speedup:.2},");
    println!("  \"connection_scaling\": [");
    for (i, p) in scaling.iter().enumerate() {
        let comma = if i + 1 < scaling.len() { "," } else { "" };
        println!(
            "    {{ \"connections\": {}, \"total_ops\": {}, \"ops_per_sec\": {:.0}, \
             \"server_threads\": {}, \"server_rss_mb\": {:.1} }}{comma}",
            p.connections, p.total_ops, p.ops_per_sec, p.server_threads, p.server_rss_mb
        );
    }
    println!("  ]");
    println!("}}");
}
