//! `serve_hot` — the wire path on a hot set that fits every cache: two
//! client threads, one connection each, pipeline 32 `Deref` requests at
//! a time against one in-process `OdeServer`.
//!
//! Why: `ode-net` framing, decode-ahead, event loop and flush
//! coalescing do nearly all the work; the snapshot cache answers every
//! read, so `ode-storage` and `ode-version` idle. A storage change
//! must not move it and a delivery-path change must.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use ode::{Database, DatabaseOptions, Oid, Vid};
use ode_net::{ClientConfig, OdeClient, OdeServer, Request, Response, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::{self, tag, Digest, Doc, Edit, DATA_SEED};
use crate::layers::{net_metrics, storage_metrics, StorageSample};
use crate::run::{measure, Client};
use crate::trace::{Name, Tracer};
use crate::workloads::{db_and_wal_bytes, file_bytes, repeat_setup, Ctx, Outcome, DIGEST_OPS};

const OBJECTS: usize = 256;
const BODY_BYTES: usize = 256;
const CLIENTS: usize = 2;
pub const PIPELINE: usize = 32;
/// Round trips per client after which `peak_rss_mb` is read.
const RSS_UNITS: usize = 50_000;

struct Built {
    // Declared first so the server stops before the database closes.
    server: OdeServer,
    db: Arc<Database>,
    /// Per object: id, the one version's id, checksum of the stored
    /// bytes.
    objects: Vec<(Oid, Vid, u64)>,
    user_bytes: u64,
    stored_bytes: u64,
}

fn setup(ctx: &Ctx, path: &Path) -> Built {
    let db = Database::create(path, DatabaseOptions::default()).expect("create serve_hot store");
    let mut objects = Vec::new();
    let mut user_bytes = 0u64;
    let mut txn = db.begin();
    for obj in 0..ctx.scale(OBJECTS) {
        let doc = Doc {
            rev: obj as u64,
            text: gen::text(gen::mix(DATA_SEED) ^ obj as u64, BODY_BYTES),
        };
        let bytes = ode_codec::to_bytes(&doc);
        user_bytes += bytes.len() as u64;
        let ptr = txn.pnew(&doc).expect("pnew");
        let vid = txn.current_version(&ptr).expect("current version").vid();
        objects.push((ptr.oid(), vid, gen::checksum(&bytes)));
    }
    txn.commit().expect("commit hot set");
    db.checkpoint().expect("checkpoint hot set");
    let stored_bytes = db_and_wal_bytes(path);
    let db = Arc::new(db);
    let server = OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("bind server");
    Built {
        server,
        db,
        objects,
        user_bytes,
        stored_bytes,
    }
}

struct HotClient<'a> {
    built: &'a Built,
    conn: OdeClient,
    rng: StdRng,
    batch: Vec<usize>,
    first_seq: u64,
    got: Vec<(u64, Response)>,
}

impl<'a> HotClient<'a> {
    fn connect(built: &'a Built, seed: u64, index: usize) -> HotClient<'a> {
        let conn = OdeClient::connect(built.server.local_addr(), ClientConfig::default())
            .expect("connect client");
        HotClient {
            built,
            conn,
            rng: StdRng::seed_from_u64(gen::mix(seed ^ (index as u64 + 1) << 32)),
            batch: Vec::with_capacity(PIPELINE),
            first_seq: 0,
            got: Vec::with_capacity(PIPELINE),
        }
    }

    fn next_batch(rng: &mut StdRng, objects: usize, batch: &mut Vec<usize>) {
        batch.clear();
        batch.extend((0..PIPELINE).map(|_| rng.random_range(0..objects)));
    }
}

impl Client for HotClient<'_> {
    fn prepare(&mut self) {
        HotClient::next_batch(&mut self.rng, self.built.objects.len(), &mut self.batch);
    }

    fn unit(&mut self, t: &mut Tracer) -> Result<(), String> {
        let (conn, built) = (&mut self.conn, self.built);
        self.got.clear();
        let sent: Result<Vec<u64>, _> = t.time(Name::Send, || {
            self.batch
                .iter()
                .map(|&obj| {
                    conn.send(&Request::Deref {
                        oid: built.objects[obj].0,
                        tag: tag(),
                    })
                })
                .collect()
        });
        self.first_seq = sent.map_err(|e| format!("send: {e}"))?[0];
        // The first receive flushes the batch and waits for the server;
        // the rest mostly drain what has already arrived.
        let first = t.time(Name::Wait, || conn.recv());
        self.got.push(first.map_err(|e| format!("recv: {e}"))?);
        let got = &mut self.got;
        t.time(Name::Recv, || {
            for _ in 1..PIPELINE {
                got.push(conn.recv().map_err(|e| format!("recv: {e}"))?);
            }
            Ok::<(), String>(())
        })
    }

    fn check(&mut self) -> Result<(), String> {
        let mut seen = [false; PIPELINE];
        for (seq, response) in &self.got {
            let slot = (seq - self.first_seq) as usize;
            if slot >= PIPELINE || std::mem::replace(&mut seen[slot], true) {
                return Err(format!("unexpected sequence id {seq}"));
            }
            let (_, vid, sum) = self.built.objects[self.batch[slot]];
            match response {
                Response::Body { vid: v, bytes } if *v == vid && gen::checksum(bytes) == sum => {}
                other => return Err(format!("slot {slot}: wrong answer {}", other.kind_name())),
            }
        }
        Ok(())
    }
}

fn input_digest(seed: u64, objects: usize) -> u64 {
    let mut d = Digest::default();
    for index in 0..CLIENTS {
        let mut rng = StdRng::seed_from_u64(gen::mix(seed ^ (index as u64 + 1) << 32));
        let mut batch = Vec::new();
        for _ in 0..DIGEST_OPS / PIPELINE {
            HotClient::next_batch(&mut rng, objects, &mut batch);
            batch.iter().for_each(|&obj| d.u64(obj as u64));
        }
    }
    d.finish()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path = ctx.dir.join("serve_hot.odb");
    let (built, setup_s) = repeat_setup(ctx, || {
        let built = setup(ctx, &path);
        // Warm-up: every client reads the whole hot set once, which
        // fills the snapshot cache and the buffer pool.
        for index in 0..CLIENTS {
            let mut client = HotClient::connect(&built, ctx.seed, index);
            let mut off = Tracer::new(false);
            for chunk in (0..built.objects.len())
                .collect::<Vec<_>>()
                .chunks(PIPELINE)
            {
                client.batch = chunk.iter().cycle().take(PIPELINE).copied().collect();
                client.unit(&mut off).expect("warm-up batch");
                client.check().expect("warm-up batch verifies");
            }
        }
        built
    });

    let clients: Vec<HotClient> = (0..CLIENTS)
        .map(|index| HotClient::connect(&built, ctx.seed, index))
        .collect();
    let before = (StorageSample::of_db(&built.db), [built.server.stats()]);
    let (log, clients) = measure(clients, ctx.seconds, ctx.traced, RSS_UNITS);
    let after = (StorageSample::of_db(&built.db), [built.server.stats()]);
    drop(clients);

    let mut layer = BTreeMap::new();
    storage_metrics(&mut layer, &before.0, &after.0, log.units.len() as u64);
    net_metrics(&mut layer, &before.1, &after.1);
    layer.insert("storage.file_bytes", file_bytes(&path) as f64);

    let probe_pairs = (0..ctx.probe_items())
        .map(|i| {
            let base = gen::text(
                gen::mix(DATA_SEED) ^ (i % built.objects.len()) as u64,
                BODY_BYTES,
            );
            let mut edited = base.clone();
            Edit::new(gen::mix(ctx.seed ^ i as u64), BODY_BYTES).apply(&mut edited);
            (base, edited)
        })
        .collect();
    Outcome {
        setup_s,
        probe_keys: built.objects.len(),
        probe_sync: true,
        probe_chain: None,
        user_bytes: built.user_bytes,
        stored_bytes: built.stored_bytes,
        // Every response was checked as it arrived.
        verify_attempted: 0,
        verify_failed: 0,
        verify_errors: Vec::new(),
        layer,
        input_digest: input_digest(ctx.seed, built.objects.len()),
        exact: vec![
            ("stored_bytes", built.stored_bytes as f64),
            ("user_bytes", built.user_bytes as f64),
        ],
        probe_pairs,
        log,
    }
}
