//! An in-process sharded tier for deterministic cluster-fault tests.
//!
//! [`Cluster`] spins up N backend [`OdeServer`] shards, fronts each
//! with a [`FaultRelay`], and parks an [`OdeRouter`] on the relay
//! addresses. Tests drive the tier through an ordinary
//! [`crate::OdeClient`] pointed at the router, and inject faults
//! through the relays: [`Cluster::kill_shard`] downs one shard
//! mid-pipeline, [`Cluster::restart_shard`] brings it back on a fresh
//! port — the relay's stable address absorbs the move, which is
//! exactly why the router dials relays rather than shards.
//!
//! With [`ClusterConfig::replicas`] > 0 each shard becomes a
//! replication group: the primary runs an `ode-repl`
//! [`ReplicationHub`] shipping its WAL, and every replica is a
//! [`ReplicaNode`] applying that stream plus a replica-mode
//! [`OdeServer`] serving epoch-gated reads. Both the client channel
//! and the *shipping* channel of every replica pass through their own
//! relays, so tests can [`Cluster::partition_replica`] the WAL stream
//! (lag, kill-mid-ship) independently of client traffic, and
//! [`Cluster::kill_primary`] crash-kills a primary (no shutdown
//! checkpoint) to exercise the router's driven failover.
//!
//! Everything is in-process and panics on setup failure: this is a
//! test harness, not a deployment tool (that is `ode-routerd`).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ode::{Database, DatabaseOptions};
use ode_repl::{HubOptions, NodeStatus, ReplicaNode, ReplicationHub};

use crate::client::{ClientConfig, OdeClient};
use crate::protocol::StatsReport;
use crate::relay::FaultRelay;
use crate::router::{OdeRouter, RouterConfig, RouterStatsReport, ShardMembership};
use crate::server::{OdeServer, ServerConfig, ServerHooks};
use crate::shard::ShardMap;

/// How long a semi-sync primary waits for a replica ack before
/// acknowledging the client anyway (replication is best-effort when
/// the channel is down — availability over strict durability).
const SEMI_SYNC_WAIT: Duration = Duration::from_millis(500);

/// Cluster tuning: how many shards, and the config handed to each
/// backend server and to the router.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of backend shards.
    pub shards: usize,
    /// Replicas per shard. `0` reproduces the unreplicated tier.
    pub replicas: usize,
    /// When replicas exist, hold each write acknowledgement until a
    /// replica acked its epoch (bounded by [`SEMI_SYNC_WAIT`]).
    pub semi_sync: bool,
    /// Config for every backend `OdeServer`.
    pub server: ServerConfig,
    /// Config for the router.
    pub router: RouterConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shards: 4,
            replicas: 0,
            semi_sync: true,
            server: ServerConfig::default(),
            router: RouterConfig::default(),
        }
    }
}

/// One replica of a shard: its own database, the `ode-repl` apply
/// node, a read-only server, and two relays — client-facing and
/// shipping-channel.
struct ReplicaUnit {
    path: PathBuf,
    db: Arc<Database>,
    node: Arc<ReplicaNode>,
    server: Option<OdeServer>,
    /// Router-facing relay (reads, and writes after promotion).
    relay: FaultRelay,
    /// Relay on the replica → hub WAL-shipping channel.
    repl_relay: FaultRelay,
}

struct ShardNode {
    path: PathBuf,
    /// `None` while the shard is killed.
    db: Option<Arc<Database>>,
    server: Option<OdeServer>,
    relay: FaultRelay,
    /// WAL-shipping hub, present when the shard has replicas.
    hub: Option<Arc<ReplicationHub>>,
    replicas: Vec<ReplicaUnit>,
}

/// A running in-process tier: N shards (each optionally a replication
/// group), a relay per node, one router.
pub struct Cluster {
    nodes: Vec<ShardNode>,
    router: Option<OdeRouter>,
}

impl Cluster {
    /// Start a tier per `config`. Shard databases are fresh temp files
    /// (removed on drop), WAL-durable but unsynced for test speed.
    pub fn start(config: ClusterConfig) -> Cluster {
        assert!(config.shards > 0, "a cluster needs at least one shard");
        let nodes: Vec<ShardNode> = (0..config.shards)
            .map(|i| Cluster::start_shard(i, &config))
            .collect();
        let members: Vec<ShardMembership> = nodes
            .iter()
            .map(|n| ShardMembership {
                primary: n.relay.local_addr(),
                replicas: n.replicas.iter().map(|r| r.relay.local_addr()).collect(),
            })
            .collect();
        let router = OdeRouter::bind_with_members("127.0.0.1:0", members, config.router)
            .expect("bind cluster router");
        Cluster {
            nodes,
            router: Some(router),
        }
    }

    fn start_shard(i: usize, config: &ClusterConfig) -> ShardNode {
        let path = ode::testutil::fresh_path();
        let db = Arc::new(
            Database::create(&path, DatabaseOptions::no_sync())
                .unwrap_or_else(|e| panic!("create shard {i} db: {e}")),
        );
        let hub = if config.replicas > 0 {
            Some(Arc::new(
                ReplicationHub::start(Arc::clone(&db), "127.0.0.1:0", HubOptions::default())
                    .unwrap_or_else(|e| panic!("start shard {i} hub: {e}")),
            ))
        } else {
            None
        };
        let mut hooks = ServerHooks::default();
        if config.semi_sync {
            if let Some(hub) = &hub {
                let hub = Arc::clone(hub);
                hooks.commit_wait = Some(Arc::new(move |epoch| {
                    // Best-effort: a downed channel must not wedge the
                    // tier, so the ack proceeds after the bounded wait.
                    let _ = hub.wait_replicated(epoch, SEMI_SYNC_WAIT);
                }));
            }
        }
        let server =
            OdeServer::bind_with(Arc::clone(&db), "127.0.0.1:0", config.server.clone(), hooks)
                .unwrap_or_else(|e| panic!("bind shard {i}: {e}"));
        let relay = FaultRelay::start(server.local_addr(), vec![])
            .unwrap_or_else(|e| panic!("start relay {i}: {e}"));
        let hub_addr = hub.as_ref().map(|h| h.local_addr());
        let replicas = (0..config.replicas)
            .map(|r| {
                Cluster::start_replica(i, r, hub_addr.expect("hub exists with replicas"), config)
            })
            .collect();
        ShardNode {
            path,
            db: Some(db),
            server: Some(server),
            relay,
            hub,
            replicas,
        }
    }

    fn start_replica(
        shard: usize,
        idx: usize,
        hub_addr: SocketAddr,
        config: &ClusterConfig,
    ) -> ReplicaUnit {
        let path = ode::testutil::fresh_path();
        let db = Arc::new(
            Database::create(&path, DatabaseOptions::no_sync())
                .unwrap_or_else(|e| panic!("create shard {shard} replica {idx} db: {e}")),
        );
        // The shipping channel gets its own relay so a test can cut the
        // WAL stream without touching client traffic.
        let repl_relay = FaultRelay::start(hub_addr, vec![])
            .unwrap_or_else(|e| panic!("start shard {shard} replica {idx} repl relay: {e}"));
        let node = Arc::new(ReplicaNode::start(
            Arc::clone(&db),
            repl_relay.local_addr().to_string(),
        ));
        let hook_node = Arc::clone(&node);
        let hooks = ServerHooks {
            commit_wait: None,
            // Driven failover lands here: the router's `Promote` stops
            // the apply loop and fences the unapplied WAL tail before
            // the server flips to accepting writes.
            promote: Some(Arc::new(move || {
                hook_node.promote().map_err(|e| e.to_string())
            })),
        };
        let server_config = ServerConfig {
            replica: true,
            ..config.server.clone()
        };
        let server = OdeServer::bind_with(Arc::clone(&db), "127.0.0.1:0", server_config, hooks)
            .unwrap_or_else(|e| panic!("bind shard {shard} replica {idx}: {e}"));
        let relay = FaultRelay::start(server.local_addr(), vec![])
            .unwrap_or_else(|e| panic!("start shard {shard} replica {idx} relay: {e}"));
        ReplicaUnit {
            path,
            db,
            node,
            server: Some(server),
            relay,
            repl_relay,
        }
    }

    /// The router address — point clients here.
    pub fn router_addr(&self) -> SocketAddr {
        self.router.as_ref().expect("router running").local_addr()
    }

    /// The tier's shard map (for asserting placement in tests).
    pub fn shard_map(&self) -> ShardMap {
        self.router.as_ref().expect("router running").shard_map()
    }

    /// The router's counters.
    pub fn router_stats(&self) -> RouterStatsReport {
        self.router.as_ref().expect("router running").stats()
    }

    /// The router's current view of one shard's membership:
    /// `(primary, probed primary epoch, [(replica, last probed epoch)])`.
    pub fn shard_members(&self, shard: usize) -> (SocketAddr, u64, Vec<(SocketAddr, Option<u64>)>) {
        self.router
            .as_ref()
            .expect("router running")
            .shard_members(shard)
    }

    /// Run one router probe round of `shard` synchronously (see
    /// [`OdeRouter::probe_now`]): with [`RouterConfig::probe_interval`]
    /// set long, the test is the prober and failover happens on the
    /// round it chooses.
    pub fn probe(&self, shard: usize) {
        self.router
            .as_ref()
            .expect("router running")
            .probe_now(shard);
    }

    /// One shard's server counters. Panics if the shard is killed.
    pub fn shard_stats(&self, shard: usize) -> StatsReport {
        self.nodes[shard]
            .server
            .as_ref()
            .expect("shard is down")
            .stats()
    }

    /// One replica's server counters.
    pub fn replica_stats(&self, shard: usize, idx: usize) -> StatsReport {
        self.nodes[shard].replicas[idx]
            .server
            .as_ref()
            .expect("replica is down")
            .stats()
    }

    /// The fault relay in front of one shard, for finer-grained
    /// mistreatment than kill/restart.
    pub fn relay(&self, shard: usize) -> &FaultRelay {
        &self.nodes[shard].relay
    }

    /// The relay on one replica's WAL-shipping channel (replica →
    /// primary hub), for lag and kill-mid-ship faults.
    pub fn repl_relay(&self, shard: usize, idx: usize) -> &FaultRelay {
        &self.nodes[shard].replicas[idx].repl_relay
    }

    /// The primary's applied commit epoch. Panics if killed.
    pub fn primary_epoch(&self, shard: usize) -> u64 {
        self.nodes[shard]
            .db
            .as_ref()
            .expect("shard is down")
            .snapshot_epoch()
    }

    /// One replica's apply progress (WAL position, epoch, liveness of
    /// its shipping connection).
    pub fn replica_status(&self, shard: usize, idx: usize) -> NodeStatus {
        self.nodes[shard].replicas[idx].node.status()
    }

    /// One replica's database (read-only until promoted).
    pub fn replica_db(&self, shard: usize, idx: usize) -> &Arc<Database> {
        &self.nodes[shard].replicas[idx].db
    }

    /// The primary's WAL-shipping hub. Panics without replicas.
    pub fn hub(&self, shard: usize) -> &ReplicationHub {
        self.nodes[shard].hub.as_ref().expect("shard has no hub")
    }

    /// Cut (`true`) or heal (`false`) the WAL-shipping channel between
    /// one replica and its primary. Client traffic is untouched: a cut
    /// replica keeps serving reads, just increasingly stale ones —
    /// which the router's epoch gate must absorb.
    pub fn partition_replica(&self, shard: usize, idx: usize, cut: bool) {
        let relay = &self.nodes[shard].replicas[idx].repl_relay;
        relay.set_down(cut);
        if cut {
            relay.cut_all();
        }
    }

    /// Kill one shard: cut every live connection mid-frame, refuse new
    /// ones, and stop the backend server. In-flight requests on that
    /// shard surface as `Unavailable`; other shards are untouched.
    pub fn kill_shard(&mut self, shard: usize) {
        let node = &mut self.nodes[shard];
        node.relay.set_down(true);
        node.relay.cut_all();
        if let Some(hub) = node.hub.take() {
            hub.shutdown();
        }
        if let Some(server) = node.server.take() {
            server.shutdown();
        }
        node.db = None; // release the database before a reopen
    }

    /// Crash-kill one shard's primary: like [`Cluster::kill_shard`]
    /// but the database is *leaked*, not dropped, so no shutdown
    /// checkpoint runs — on-disk state is exactly what the WAL fsynced,
    /// as after SIGKILL. The shipping hub dies with it, so replicas
    /// keep only what was shipped: the setup for driven failover.
    pub fn kill_primary(&mut self, shard: usize) {
        let node = &mut self.nodes[shard];
        node.relay.set_down(true);
        node.relay.cut_all();
        if let Some(hub) = node.hub.take() {
            hub.shutdown();
        }
        if let Some(server) = node.server.take() {
            server.shutdown();
        }
        if let Some(db) = node.db.take() {
            std::mem::forget(db);
        }
    }

    /// Manually promote one replica (the router's driven failover does
    /// this itself; tests use this for split-brain setups). Goes
    /// through the wire like the router would.
    pub fn promote(&self, shard: usize, idx: usize) {
        let addr = self.nodes[shard].replicas[idx].relay.local_addr();
        let mut client = OdeClient::connect(addr, ClientConfig::default())
            .unwrap_or_else(|e| panic!("connect for promote: {e}"));
        client
            .promote()
            .unwrap_or_else(|e| panic!("promote shard {shard} replica {idx}: {e}"));
    }

    /// Restart a killed shard from its on-disk state (WAL recovery
    /// included) on a fresh port, re-pointing the relay at it. Only
    /// meaningful for unreplicated shards: a replicated ex-primary
    /// rejoins as a replica instead (fenced by the generation check in
    /// `ode-repl`).
    pub fn restart_shard(&mut self, shard: usize, server_config: ServerConfig) {
        let node = &mut self.nodes[shard];
        assert!(node.server.is_none(), "shard {shard} is already running");
        let db = Arc::new(
            Database::open(&node.path, DatabaseOptions::no_sync())
                .unwrap_or_else(|e| panic!("reopen shard {shard} db: {e}")),
        );
        let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", server_config)
            .unwrap_or_else(|e| panic!("rebind shard {shard}: {e}"));
        node.relay.set_upstream(server.local_addr());
        node.relay.set_down(false);
        node.db = Some(db);
        node.server = Some(server);
    }
}

fn remove_db_files(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let mut wal = path.clone().into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(wal));
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for node in &mut self.nodes {
            if let Some(hub) = node.hub.take() {
                hub.shutdown();
            }
            for replica in &mut node.replicas {
                replica.node.stop();
                replica.repl_relay.shutdown();
                replica.relay.shutdown();
                if let Some(server) = replica.server.take() {
                    server.shutdown();
                }
                remove_db_files(&replica.path);
            }
            node.relay.shutdown();
            if let Some(server) = node.server.take() {
                server.shutdown();
            }
            node.db = None;
            remove_db_files(&node.path);
        }
    }
}
