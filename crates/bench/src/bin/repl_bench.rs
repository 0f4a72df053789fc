//! `repl_bench` — aggregate read throughput of replica reads.
//!
//! ```text
//! repl_bench [clients] [reads_per_client] [batch] [objects] [repeats] [replicas]
//! ```
//!
//! Two topologies over the same pipelined-read workload, both behind a
//! router (so the hop and the epoch bookkeeping are priced equally):
//!
//! - **primary_only** — one shard, no replicas: every read lands on
//!   the primary, the pre-replication ceiling;
//! - **replicated** — the same shard with `replicas` (default 2)
//!   WAL-shipped replicas: read-only sessions are spread across the
//!   replica bank by the router, each read pinned at the router's last
//!   probed primary epoch (the read-your-writes gate is in the
//!   measured path, not bypassed).
//!
//! Each session reads its own slice of the working set (sessions are
//! how real read traffic partitions). The whole set (default 6144
//! objects) exceeds one server's snapshot-cache capacity (4096), so
//! the primary-only topology thrashes its cache and pays the decode
//! path on most reads — while the router spreads read-only sessions
//! across replicas, each of which caches only the slices it serves.
//! Replicas thus add serving capacity (cache + decode) without moving
//! any data off the shard. Each topology is measured `repeats` times
//! warm and the fastest phase reported: on a small machine scheduler
//! noise across sub-second phases dwarfs the topology difference, and
//! the phases are read-only, so the repeat maximum is the stable
//! estimator of what each topology sustains. The report (JSON on
//! stdout, shape checked into BENCH_net.json) ends with
//! `replicated_over_primary`, the aggregate read speedup replicas buy.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use ode::{Database, DatabaseOptions, Oid, TypeTag};
use ode_net::{
    ClientConfig, OdeClient, OdeRouter, OdeServer, Request, Response, RouterConfig, ServerConfig,
    ShardMembership,
};
use ode_repl::{ReplicaNode, ReplicationHub};

const TAG: TypeTag = TypeTag(0x7265706c625f5f5f); // "replb___"

struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let path =
            std::env::temp_dir().join(format!("ode-repl-bench-{}-{label}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

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
    replica_reads: u64,
}

fn seed(addr: SocketAddr, objects: usize) -> Vec<Oid> {
    let mut seeder = OdeClient::connect(addr, ClientConfig::default()).expect("connect seeder");
    let body = vec![0xABu8; 128];
    let oids: Vec<Oid> = (0..objects)
        .map(|_| seeder.pnew_raw(TAG, body.clone()).expect("seed").0)
        .collect();
    for &oid in &oids {
        seeder.deref_raw(oid, TAG).expect("warm");
    }
    oids
}

/// Every thread is a fresh, read-only session (so the router routes it
/// to the replica bank) performing `reads` pipelined Derefs over its
/// own slice of the pool.
fn run_phase(
    router: &OdeRouter,
    clients: usize,
    reads: usize,
    batch: usize,
    oids: &[Oid],
) -> PhaseResult {
    let addr = router.local_addr();
    let before = router.stats().replica_reads;
    let barrier = Arc::new(Barrier::new(clients + 1));
    let start = Instant::now();
    thread::scope(|scope| {
        for t in 0..clients {
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut c = OdeClient::connect(addr, ClientConfig::default()).expect("connect");
                let lo = t * oids.len() / clients;
                let hi = ((t + 1) * oids.len() / clients).max(lo + 1);
                let slice = &oids[lo..hi];
                barrier.wait();
                let mut i = 0usize;
                let mut done = 0usize;
                while done < reads {
                    let n = batch.min(reads - done);
                    let mut pipe = c.pipeline();
                    for _ in 0..n {
                        let oid = slice[i % slice.len()];
                        i += 1;
                        pipe.push(&Request::Deref { oid, tag: TAG }).expect("push");
                    }
                    for r in pipe.run().expect("pipeline") {
                        assert!(matches!(r, Response::Body { .. }));
                    }
                    done += n;
                }
            });
        }
        barrier.wait();
    });
    let elapsed = start.elapsed().as_secs_f64();
    PhaseResult {
        elapsed_secs: elapsed,
        ops_per_sec: (clients * reads) as f64 / elapsed,
        replica_reads: router.stats().replica_reads - before,
    }
}

fn best_phase(
    router: &OdeRouter,
    clients: usize,
    reads: usize,
    batch: usize,
    oids: &[Oid],
    repeats: usize,
) -> PhaseResult {
    (0..repeats.max(1))
        .map(|_| run_phase(router, clients, reads, batch, oids))
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("at least one phase")
}

fn run_topology(
    label: &str,
    replicas: usize,
    clients: usize,
    reads: usize,
    batch: usize,
    objects: usize,
    repeats: usize,
) -> PhaseResult {
    let pscratch = Scratch::new(&format!("{label}-p"));
    let pdb = Arc::new(
        Database::create(&pscratch.0, DatabaseOptions::no_sync()).expect("create primary"),
    );
    let hub = (replicas > 0)
        .then(|| ReplicationHub::start(Arc::clone(&pdb), "127.0.0.1:0").expect("start hub"));
    let server_config = ServerConfig {
        workers: clients + 2,
        ..ServerConfig::default()
    };
    let pserver =
        OdeServer::bind(Arc::clone(&pdb), "127.0.0.1:0", server_config.clone()).expect("bind");

    let rscratches: Vec<Scratch> = (0..replicas)
        .map(|i| Scratch::new(&format!("{label}-r{i}")))
        .collect();
    let mut rnodes = Vec::new();
    let mut rservers = Vec::new();
    for scratch in &rscratches {
        let db =
            Arc::new(Database::create(&scratch.0, DatabaseOptions::no_sync()).expect("replica db"));
        let node = ReplicaNode::start(
            Arc::clone(&db),
            hub.as_ref().expect("hub").local_addr().to_string(),
        );
        let config = ServerConfig {
            replica: true,
            ..server_config.clone()
        };
        let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", config).expect("bind replica");
        rnodes.push((db, node));
        rservers.push(server);
    }

    let members = vec![ShardMembership {
        primary: pserver.local_addr(),
        replicas: rservers.iter().map(|s| s.local_addr()).collect(),
    }];
    let router_config = RouterConfig {
        probe_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    };
    let router =
        OdeRouter::bind_with_members("127.0.0.1:0", members, router_config).expect("bind router");

    let oids = seed(router.local_addr(), objects);

    // Replicas must be caught up and probed before measuring, or the
    // epoch gate stalls the first reads instead of serving them.
    if replicas > 0 {
        let target = pdb.snapshot_epoch();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (_, _, probed) = router.shard_members(0);
            if probed.len() == replicas
                && probed.iter().all(|(_, e)| e.is_some_and(|e| e >= target))
            {
                break;
            }
            assert!(Instant::now() < deadline, "replicas never caught up");
            thread::sleep(Duration::from_millis(10));
        }
    }

    let result = best_phase(&router, clients, reads, batch, &oids, repeats);

    router.shutdown();
    for (_, node) in &rnodes {
        node.stop();
    }
    for server in rservers {
        server.shutdown();
    }
    if let Some(hub) = hub {
        hub.shutdown();
    }
    pserver.shutdown();
    result
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let clients = args.first().copied().unwrap_or(8);
    let reads = args.get(1).copied().unwrap_or(20_000);
    let batch = args.get(2).copied().unwrap_or(128);
    let objects = args.get(3).copied().unwrap_or(6_144);
    let repeats = args.get(4).copied().unwrap_or(5);
    let replicas = args.get(5).copied().unwrap_or(2);

    let primary_only = run_topology("p", 0, clients, reads, batch, objects, repeats);
    let replicated = run_topology("r", replicas, clients, reads, batch, objects, repeats);
    let speedup = replicated.ops_per_sec / primary_only.ops_per_sec;
    assert!(
        replicated.replica_reads > 0,
        "the replicated phase must actually read from replicas"
    );

    println!("{{");
    println!("  \"benchmark\": \"replicated_reads\",");
    println!("  \"clients\": {clients},");
    println!("  \"reads_per_client\": {reads},");
    println!("  \"batch\": {batch},");
    println!("  \"objects\": {objects},");
    println!("  \"repeats\": {repeats},");
    println!("  \"replicas\": {replicas},");
    for (name, phase, comma) in [
        ("primary_only", &primary_only, ","),
        ("replicated", &replicated, ","),
    ] {
        println!("  \"{name}\": {{");
        println!("    \"ops_per_sec\": {:.0},", phase.ops_per_sec);
        println!("    \"elapsed_secs\": {:.3},", phase.elapsed_secs);
        println!("    \"replica_reads\": {}", phase.replica_reads);
        println!("  }}{comma}");
    }
    println!("  \"replicated_over_primary\": {speedup:.2}");
    println!("}}");
}
