//! `route_collab` — writes beside reads through the router: two
//! clients fork, edit and merge 64 shared 4 KB documents on two
//! fsyncing shard servers behind one `OdeRouter`, and read back across
//! both shards after every merge.
//!
//! Why: the only workload where the router, `ode-merge` and the
//! common-ancestor walk do work, and the only one where commits
//! invalidate the snapshot cache `serve_hot` always hits while another
//! client reads. A net-tier gain for cached reads that costs the
//! write/invalidate path shows here.
//!
//! Each client works like a designer with a checked-out copy: it forks
//! from the version it last saw, rewrites one slice of the body (its
//! own, or with probability 0.25 the slice both clients share), and
//! merges the fork into the document's head, policy "theirs". The
//! other client's work since the last look is the "their" side, so the
//! three-way merge has two real sides whenever both touched the
//! document.
//!
//! The head of a document is the last merge result either client
//! published, kept with the text it must hold in a table the two
//! clients share; a client holds the document's entry locked from
//! reading the head to publishing its own merge — an application-level
//! check-in lock. It is not what
//! `current_version` answers: a fork is the object's latest version
//! from the moment it is created, before its owner has edited it, and
//! merging against a body that is still going to change loses that
//! change without any conflict. Merge results are never edited and the
//! heads form one line, so every merge has final inputs and its base
//! is the client's own copy.

use std::collections::BTreeMap;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ode::{Database, DatabaseOptions, MergePolicy, Oid, Vid};
use ode_net::{
    ClientConfig, OdeClient, OdeRouter, OdeServer, Request, Response, RouterConfig,
    RouterStatsReport, ServerConfig, StatsReport,
};
use ode_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Documents are stored with `rev` 0 (`encode_text`): the merge works on
// encoded bytes, and a counter both sides bump would conflict in every
// round.
use crate::gen::{self, encode_text as encode, tag, Digest, Doc, DATA_SEED};
use crate::layers::{net_metrics, storage_metrics, StorageSample};
use crate::run::{measure, Client};
use crate::stats::percentile;
use crate::trace::{now_ns, Name, Tracer};
use crate::workloads::{
    self, db_and_wal_bytes, note, ratio, repeat_setup, Ctx, Outcome, DIGEST_OPS,
};

const SHARDS: usize = 2;
const CLIENTS: usize = 2;
const DOCS: usize = 64;
const ZIPF_THETA: f64 = 0.9;
const SHARED_EDIT_PROBABILITY: f64 = 0.25;
pub const READBACK: usize = 16;
const WARMUP_ROUNDS: usize = 32;
/// Rounds per client after which `peak_rss_mb` is read.
const RSS_UNITS: usize = 500;
/// Requests a client sends per round: four single calls and the batch.
const REQUESTS_PER_ROUND: u64 = 4 + READBACK as u64;

// Body layout: one slice per client, then the shared slice, 8-byte
// separators between them. 3 * 1360 + 2 * 8 = 4096 bytes.
const SLICES: usize = CLIENTS + 1;
const SHARED: usize = CLIENTS;
const SLICE_BYTES: usize = 1360;
const SEPARATOR: [u8; 8] = [b'\n'; 8];
pub const TEXT_BYTES: usize = SLICES * SLICE_BYTES + (SLICES - 1) * SEPARATOR.len();

// A slice is written in one of three disjoint 32-symbol alphabets, and
// a rewrite always switches alphabet. Old and new content then share
// no byte, so the rewrite diffs as exactly one hunk covering the slice.
// High-entropy content does not: `ode-merge` splits a rewrite wherever
// three or four bytes happen to survive, and when such a fragment is an
// insertion touching a span the other side also rewrote, the conflict
// resolution keeps both sides' bytes. The workload keeps clear of that;
// it is noted in the README for a later issue. All symbols are below
// 128, so the codec stores each in one byte.
const ALPHABETS: u8 = 3;
const SYMBOLS: u8 = 32;
/// Symbols that spell a `u64`, five bits each.
const WORD_SYMBOLS: usize = 13;

fn slice_range(slice: usize) -> std::ops::Range<usize> {
    let start = slice * (SLICE_BYTES + SEPARATOR.len());
    start..start + SLICE_BYTES
}

fn symbol(alphabet: u8, value: u8) -> u8 {
    b' ' + alphabet * SYMBOLS + value % SYMBOLS
}

fn spell(word: u64, alphabet: u8, out: &mut [u8]) {
    for (i, b) in out.iter_mut().enumerate() {
        *b = symbol(alphabet, (word >> (5 * i)) as u8);
    }
}

fn unspell(symbols: &[u8]) -> u64 {
    symbols.iter().enumerate().fold(0, |word, (i, b)| {
        word | u64::from((b - b' ') % SYMBOLS) << (5 * i)
    })
}

/// The alphabet a slice is written in, from its first symbol.
fn alphabet_of(text: &[u8], slice: usize) -> u8 {
    (text[slice_range(slice).start].saturating_sub(b' ') / SYMBOLS) % ALPHABETS
}

/// A slice is its stamp, a payload only that stamp produces, and a
/// checksum over both, so a slice stitched from two writes is
/// detectable from the bytes alone.
fn write_slice(text: &mut [u8], slice: usize, stamp: u64, alphabet: u8) {
    let out = &mut text[slice_range(slice)];
    let (head, tail) = (WORD_SYMBOLS, SLICE_BYTES - WORD_SYMBOLS);
    spell(stamp, alphabet, &mut out[..head]);
    gen::fill(gen::mix(stamp), &mut out[head..tail]);
    for b in &mut out[head..tail] {
        *b = symbol(alphabet, *b);
    }
    let sum = gen::checksum(&out[..tail]);
    spell(sum, alphabet, &mut out[tail..]);
}

/// Rewrite a slice in an alphabet other than the one it is in.
fn rewrite_slice(text: &mut [u8], slice: usize, stamp: u64) {
    let next = (alphabet_of(text, slice) + 1 + (stamp >> 1 & 1) as u8) % ALPHABETS;
    write_slice(text, slice, stamp, next);
}

/// The stamp of a whole slice, `None` for a torn one.
fn read_slice(text: &[u8], slice: usize) -> Option<u64> {
    let s = &text[slice_range(slice)];
    let tail = SLICE_BYTES - WORD_SYMBOLS;
    let alphabet = alphabet_of(text, slice);
    let whole = s
        .iter()
        .all(|&b| symbol(alphabet, b.wrapping_sub(b' ')) == b)
        && unspell(&s[tail..]) == gen::checksum(&s[..tail]);
    whole.then(|| unspell(&s[..WORD_SYMBOLS]))
}

/// The text a document is created with. The same for every seed.
fn initial_text(doc: usize) -> Vec<u8> {
    let mut text = vec![0u8; TEXT_BYTES];
    for slice in 0..SLICES {
        let stamp = gen::mix(DATA_SEED ^ (doc * SLICES + slice) as u64);
        write_slice(
            &mut text,
            slice,
            stamp,
            (stamp % u64::from(ALPHABETS)) as u8,
        );
        if slice > 0 {
            let at = slice_range(slice).start - SEPARATOR.len();
            text[at..at + SEPARATOR.len()].copy_from_slice(&SEPARATOR);
        }
    }
    text
}

/// What merging `fork` into `head` with policy theirs must produce when
/// both descend from `base`: slice by slice, the side that changed it,
/// and the head's where both did — the head is the "their" side. The
/// flag says whether both changed some slice, which is a conflict.
fn expected_merge(base: &[u8], fork: &[u8], head: &[u8]) -> (Vec<u8>, bool) {
    let mut text = head.to_vec();
    let mut conflict = false;
    for r in (0..SLICES).map(slice_range) {
        let fork_changed = fork[r.clone()] != base[r.clone()];
        let head_changed = head[r.clone()] != base[r.clone()];
        if fork_changed && !head_changed {
            text[r.clone()].copy_from_slice(&fork[r]);
        } else if fork_changed && fork[r.clone()] != head[r] {
            conflict = true;
        }
    }
    (text, conflict)
}

/// Decode a stored document and check that every slice is whole.
fn decode(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let doc: Doc = ode_codec::from_bytes(bytes).map_err(|e| format!("undecodable body: {e}"))?;
    if doc.text.len() != TEXT_BYTES {
        return Err(format!("body of {} bytes", doc.text.len()));
    }
    match (0..SLICES).find(|&s| read_slice(&doc.text, s).is_none()) {
        Some(s) => Err(format!("slice {s} is torn")),
        None => Ok(doc.text),
    }
}

/// One generated round.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Round {
    doc: usize,
    /// Which slice this round rewrites: the client's own or the shared.
    slice: usize,
    stamp: u64,
    /// The 15 other documents read back after the merge.
    reads: Vec<usize>,
}

struct RoundStream {
    client: usize,
    zipf: Zipf,
    rng: StdRng,
    rounds: u64,
}

impl RoundStream {
    fn new(seed: u64, client: usize, docs: usize) -> RoundStream {
        let salt = (client as u64 + 1) << 40;
        RoundStream {
            client,
            zipf: Zipf::new(docs, ZIPF_THETA, gen::mix(seed ^ salt)),
            rng: StdRng::seed_from_u64(gen::mix(seed ^ salt ^ 0xC0)),
            rounds: 0,
        }
    }

    fn next_round(&mut self, docs: usize) -> Round {
        self.rounds += 1;
        let shared = self.rng.random_bool(SHARED_EDIT_PROBABILITY);
        Round {
            doc: self.zipf.sample(),
            slice: if shared { SHARED } else { self.client },
            // Odd/even low bit keeps the two clients' stamps apart.
            stamp: (gen::mix(self.rounds ^ (self.client as u64) << 50) << 1) | self.client as u64,
            reads: (1..READBACK)
                .map(|_| self.rng.random_range(0..docs))
                .collect(),
        }
    }
}

fn input_digest(seed: u64, docs: usize) -> u64 {
    let mut d = Digest::default();
    for client in 0..CLIENTS {
        let mut stream = RoundStream::new(seed, client, docs);
        for _ in 0..DIGEST_OPS / CLIENTS {
            let r = stream.next_round(docs);
            d.u64(r.doc as u64);
            d.u64(r.slice as u64);
            d.u64(r.stamp);
            r.reads.iter().for_each(|&x| d.u64(x as u64));
        }
    }
    d.finish()
}

fn call(conn: &mut OdeClient, request: &Request) -> Result<Response, String> {
    let seq = conn.send(request).map_err(|e| format!("send: {e}"))?;
    match conn.recv_for(seq).map_err(|e| format!("recv: {e}"))? {
        Response::Err(e) => Err(format!("{:?}: {e}", request.opcode())),
        other => Ok(other),
    }
}

/// The tier `ode-routerd` and `ode-served` deploy, in process: one
/// router in front of [`SHARDS`] servers, each over its own store with
/// default options (fsync every commit). `ode_net::Cluster` is not used:
/// it places a `FaultRelay` between router and shard, and the relay's
/// sockets leave Nagle's algorithm on, which stalls every frame longer
/// than one segment (all of this workload's bodies) for a 40 ms
/// delayed ACK.
struct Tier {
    // Field order is drop order: the router goes first, then each
    // server before its database.
    router: OdeRouter,
    shards: Vec<(OdeServer, Arc<Database>, PathBuf)>,
}

impl Tier {
    fn start(dir: &std::path::Path) -> Tier {
        let shards: Vec<_> = (0..SHARDS)
            .map(|s| {
                let path = dir.join(format!("shard{s}.odb"));
                let db = Database::create(&path, DatabaseOptions::default()).expect("create shard");
                let db = Arc::new(db);
                let server =
                    OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
                        .expect("bind shard server");
                (server, db, path)
            })
            .collect();
        let backends = shards
            .iter()
            .map(|(server, ..)| server.local_addr())
            .collect();
        let router =
            OdeRouter::bind("127.0.0.1:0", backends, RouterConfig::default()).expect("bind router");
        Tier { router, shards }
    }

    fn addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    fn shard_reports(&self) -> Vec<StatsReport> {
        self.shards
            .iter()
            .map(|(server, ..)| server.stats())
            .collect()
    }

    /// Storage counters summed over the shards' databases.
    fn storage_sample(&self) -> StorageSample {
        let mut sum = StorageSample::default();
        for (_, db, _) in &self.shards {
            sum.add(&StorageSample::of_db(db));
        }
        sum
    }
}

struct Built {
    tier: Tier,
    /// Per document: its id and the version and text set-up created.
    docs: Vec<(Oid, Vid, Vec<u8>)>,
    heads: Heads,
    user_bytes: u64,
}

/// Per document: the last published merge, as its version id and the
/// text the merges so far must have produced.
type Heads = Arc<Vec<Mutex<(Vid, Vec<u8>)>>>;

fn setup(ctx: &Ctx) -> Built {
    let tier = Tier::start(&ctx.dir);
    let mut conn =
        OdeClient::connect(tier.addr(), ClientConfig::default()).expect("connect to router");
    let mut user_bytes = 0u64;
    let docs: Vec<_> = (0..ctx.scale(DOCS))
        .map(|doc| {
            let text = initial_text(doc);
            let body = encode(&text);
            user_bytes += body.len() as u64;
            let (oid, vid) = conn.pnew_raw(tag(), body).expect("create document");
            (oid, vid, text)
        })
        .collect();
    let heads = Arc::new(
        docs.iter()
            .map(|(_, vid, text)| Mutex::new((*vid, text.clone())))
            .collect(),
    );
    Built {
        tier,
        docs,
        heads,
        user_bytes,
    }
}

/// What a round's wire calls returned, kept for the untimed check.
struct RoundResult {
    latest: Vid,
    known_head: Vid,
    merged: Option<Vid>,
    conflicts: usize,
    /// What the merge must have produced, and whether with a conflict.
    expected: (Vec<u8>, bool),
    bodies: Vec<Vec<u8>>,
}

struct Collaborator {
    conn: OdeClient,
    oids: Vec<Oid>,
    heads: Heads,
    /// The checked-out copy of every document: the version this client
    /// last saw and its text.
    copies: Vec<(Vid, Vec<u8>)>,
    stream: RoundStream,
    /// The prepared round, the edited text and its encoded body.
    round: Option<(Round, Vec<u8>, Vec<u8>)>,
    result: Option<RoundResult>,
    user_bytes: u64,
}

impl Collaborator {
    fn connect(built: &Built, seed: u64, client: usize) -> Collaborator {
        Collaborator {
            conn: OdeClient::connect(built.tier.addr(), ClientConfig::default())
                .expect("connect to router"),
            oids: built.docs.iter().map(|d| d.0).collect(),
            heads: Arc::clone(&built.heads),
            copies: built.docs.iter().map(|d| (d.1, d.2.clone())).collect(),
            stream: RoundStream::new(seed, client, built.docs.len()),
            round: None,
            result: None,
            user_bytes: 0,
        }
    }

    /// Read every document's latest version.
    fn read_all(&mut self) -> Result<Vec<(Vid, Vec<u8>)>, String> {
        self.oids
            .clone()
            .iter()
            .map(
                |&oid| match call(&mut self.conn, &Request::Deref { oid, tag: tag() })? {
                    Response::Body { vid, bytes } => Ok((vid, bytes)),
                    other => Err(format!("deref answered {}", other.kind_name())),
                },
            )
            .collect()
    }
}

impl Client for Collaborator {
    fn prepare(&mut self) {
        let round = self.stream.next_round(self.oids.len());
        let mut edited = self.copies[round.doc].1.clone();
        rewrite_slice(&mut edited, round.slice, round.stamp);
        let body = encode(&edited);
        self.user_bytes += body.len() as u64;
        self.round = Some((round, edited, body));
    }

    fn unit(&mut self, t: &mut Tracer) -> Result<(), String> {
        let (round, edited, body) = self.round.as_mut().expect("prepared");
        let body = std::mem::take(body);
        let conn = &mut self.conn;
        let oid = self.oids[round.doc];
        let seen = self.copies[round.doc].0;

        let known_head = self.heads[round.doc]
            .lock()
            .expect("no client panics holding a head")
            .0;
        let latest = match t.time(Name::CurrentVersion, || {
            call(conn, &Request::CurrentVersion { oid })
        })? {
            Response::Version(vid) => vid,
            other => return Err(format!("current_version answered {}", other.kind_name())),
        };
        let fork = match t.time(Name::Fork, || {
            call(conn, &Request::NewVersionFrom { vid: seen })
        })? {
            Response::Version(vid) => vid,
            other => return Err(format!("newversion_from answered {}", other.kind_name())),
        };
        let edit = Request::UpdateVersion {
            vid: fork,
            tag: tag(),
            body,
        };
        match t.time(Name::Edit, || call(conn, &edit))? {
            Response::Unit => {}
            other => return Err(format!("put_version answered {}", other.kind_name())),
        }
        // The check-in lock: held from reading the head to publishing
        // the merge that replaces it.
        let mut head_entry = self.heads[round.doc]
            .lock()
            .expect("no client panics holding a head");
        let merge = Request::Merge {
            a: fork,
            b: head_entry.0,
            policy: MergePolicy::Theirs,
        };
        let (merged, conflicts) = match t.time(Name::MergeCall, || call(conn, &merge))? {
            Response::Merged { vid, conflicts } => (vid, conflicts.len()),
            other => return Err(format!("merge answered {}", other.kind_name())),
        };
        let expected = expected_merge(&self.copies[round.doc].1, edited, &head_entry.1);
        if let Some(merged) = merged {
            *head_entry = (merged, expected.0.clone());
        }
        drop(head_entry);

        // Read back the merge result and 15 other documents' latest
        // versions in one pipelined batch; the documents are spread
        // over both shards.
        let bodies = t.time(Name::Readback, || {
            let mut pipeline = conn.pipeline();
            pipeline
                .push(&Request::DerefVersion {
                    vid: merged.unwrap_or(fork),
                    tag: tag(),
                })
                .map_err(|e| format!("send: {e}"))?;
            for &doc in &round.reads {
                let deref = Request::Deref {
                    oid: self.oids[doc],
                    tag: tag(),
                };
                pipeline.push(&deref).map_err(|e| format!("send: {e}"))?;
            }
            pipeline
                .run()
                .map_err(|e| format!("readback: {e}"))?
                .into_iter()
                .map(|response| match response {
                    Response::Body { bytes, .. } => Ok(bytes),
                    other => Err(format!("readback answered {}", other.kind_name())),
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        self.result = Some(RoundResult {
            latest,
            known_head,
            merged,
            conflicts,
            expected,
            bodies,
        });
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let (round, ..) = self.round.take().expect("prepared");
        let result = self.result.take().expect("unit ran");
        let merged = result.merged.ok_or("policy theirs checked nothing in")?;
        // Version ids only grow, and the head this client knew of was a
        // version before it asked.
        if result.latest.0 < result.known_head.0 {
            return Err(format!(
                "document {}: current_version answered {:?}, older than {:?}",
                round.doc, result.latest, result.known_head
            ));
        }
        let mut texts = result.bodies.iter().enumerate().map(|(slot, b)| {
            decode(b).map_err(|e| format!("document {} read-back {slot}: {e}", round.doc))
        });
        let merged_text = texts.next().expect("merge result was read back")?;
        for text in texts {
            text?;
        }
        // Both sides' edits survive the merge, the head's where they
        // collide, and only a collision is reported as a conflict.
        let (expected, expect_conflict) = result.expected;
        if let Some(slice) = (0..SLICES)
            .map(slice_range)
            .position(|r| merged_text[r.clone()] != expected[r])
        {
            return Err(format!(
                "document {}: merge of an edit to slice {} has the wrong slice {slice}",
                round.doc, round.slice
            ));
        }
        if (result.conflicts > 0) != expect_conflict {
            return Err(format!(
                "document {}: {} conflicts reported, expected {}",
                round.doc,
                result.conflicts,
                if expect_conflict { "one" } else { "none" }
            ));
        }
        self.user_bytes += result.bodies[0].len() as u64;
        self.copies[round.doc] = (merged, merged_text);
        Ok(())
    }
}

/// p50 of a 16-read batch through the router minus the same batch sent
/// straight to the shard that owns the documents.
fn router_overhead_us(built: &Built, items: usize) -> f64 {
    let map = built.tier.router.shard_map();
    let on_shard: Vec<Oid> = built
        .docs
        .iter()
        .map(|d| d.0)
        .filter(|&oid| map.shard_of(oid) == 0)
        .collect();
    if on_shard.is_empty() {
        return 0.0;
    }
    let via_router: Vec<Oid> = on_shard.iter().cycle().take(READBACK).copied().collect();
    let direct: Vec<Oid> = via_router.iter().map(|&oid| map.backend_oid(oid)).collect();
    let connect = |addr| OdeClient::connect(addr, ClientConfig::default()).expect("probe connect");
    let mut routes = [
        (connect(built.tier.addr()), via_router, Vec::new()),
        (
            connect(built.tier.router.shard_members(0).0),
            direct,
            Vec::new(),
        ),
    ];
    for _ in 0..items {
        for (conn, oids, samples) in &mut routes {
            let start = now_ns();
            let mut pipeline = conn.pipeline();
            for &oid in oids.iter() {
                pipeline
                    .push(&Request::Deref { oid, tag: tag() })
                    .expect("probe send");
            }
            let answers = pipeline.run().expect("probe batch");
            samples.push(now_ns() - start);
            assert!(
                answers.iter().all(|r| matches!(r, Response::Body { .. })),
                "probe read failed"
            );
        }
    }
    let p50 = |samples: &mut Vec<u64>| {
        samples.sort_unstable();
        percentile(samples, 0.5) as f64 / 1e3
    };
    let [(_, _, routed), (_, _, straight)] = &mut routes;
    p50(routed) - p50(straight)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (built, setup_s) = repeat_setup(ctx, || {
        let built = setup(ctx);
        for client in 0..CLIENTS {
            // Warm-up rounds use a stream of their own, so the measured
            // stream is the same whatever the warm-up length.
            let mut c = Collaborator::connect(&built, DATA_SEED, client);
            let mut off = Tracer::new(false);
            for _ in 0..ctx.scale(WARMUP_ROUNDS) {
                c.prepare();
                c.unit(&mut off).expect("warm-up round");
                c.check().expect("warm-up round verifies");
            }
        }
        built
    });
    let docs = built.docs.len();

    let mut clients: Vec<Collaborator> = (0..CLIENTS)
        .map(|client| Collaborator::connect(&built, ctx.seed, client))
        .collect();
    // The warm-up moved the documents on: check out what is latest now.
    for c in &mut clients {
        let latest = c.read_all().expect("check out documents");
        c.copies = latest
            .into_iter()
            .map(|(vid, bytes)| (vid, decode(&bytes).expect("warm-up left whole documents")))
            .collect();
    }

    let tier = &built.tier;
    let sample = || {
        (
            tier.shard_reports(),
            tier.router.stats(),
            tier.storage_sample(),
        )
    };
    let before = sample();
    let (log, mut clients) = measure(clients, ctx.seconds, ctx.traced, RSS_UNITS);
    let after = sample();
    let units = log.units.len() as u64;

    let mut layer = BTreeMap::new();
    storage_metrics(&mut layer, &before.2, &after.2, units);
    net_metrics(&mut layer, &before.0, &after.0);
    let requests = (units * REQUESTS_PER_ROUND) as f64;
    let d = |f: fn(&RouterStatsReport) -> u64| (f(&after.1) - f(&before.1)) as f64;
    layer.insert(
        "router.forwarded_per_req",
        ratio(d(|r| r.forwarded), requests),
    );
    layer.insert("router.gathers", d(|r| r.gathers));
    layer.insert("router.unavailable_errors", d(|r| r.unavailable_errors));
    layer.insert("router.shard_failures", d(|r| r.shard_failures));
    layer.insert("router.protocol_errors", d(|r| r.protocol_errors));
    let per_shard: Vec<f64> = (0..SHARDS)
        .map(|s| (after.0[s].total_requests() - before.0[s].total_requests()) as f64)
        .collect();
    let mean = per_shard.iter().sum::<f64>() / SHARDS as f64;
    layer.insert(
        "router.shard_skew",
        ratio(per_shard.iter().copied().fold(0.0, f64::max), mean),
    );
    if ctx.traced {
        layer.insert(
            "router.overhead_us",
            router_overhead_us(&built, ctx.probe_items()),
        );
    }

    // Convergence: with both clients quiet, their reads of every
    // document must agree byte for byte, and be the last published head
    // with the text the merges must have led to.
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    let views: Vec<_> = clients.iter_mut().map(|c| c.read_all()).collect();
    match (&views[0], &views[1]) {
        (Ok(a), Ok(b)) => {
            for (doc, (x, y)) in a.iter().zip(b).enumerate() {
                attempted += 1;
                if x != y {
                    note(&mut errors, &mut failed, || {
                        format!("document {doc}: the two clients read different bytes")
                    });
                    continue;
                }
                let head = built.heads[doc].lock().expect("clients are done");
                match decode(&x.1) {
                    Err(e) => note(&mut errors, &mut failed, || format!("document {doc}: {e}")),
                    Ok(text) if x.0 != head.0 || text != head.1 => {
                        note(&mut errors, &mut failed, || {
                            format!("document {doc}: the latest version is not the published head")
                        })
                    }
                    Ok(_) => {}
                }
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            attempted += docs as u64;
            failed += docs as u64;
            errors.push(format!("final read: {e}"));
        }
    }
    let user_bytes = built.user_bytes + clients.iter().map(|c| c.user_bytes).sum::<u64>();
    drop(clients);

    let (mut stored_bytes, mut file_bytes) = (0u64, 0u64);
    for (_, db, path) in &tier.shards {
        db.checkpoint().expect("final checkpoint");
        stored_bytes += db_and_wal_bytes(path);
        file_bytes += workloads::file_bytes(path);
    }
    layer.insert("storage.file_bytes", file_bytes as f64);

    let probe_pairs = (0..ctx.probe_items())
        .map(|i| {
            let base = initial_text(i % docs);
            let mut target = base.clone();
            rewrite_slice(&mut target, i % SLICES, gen::mix(ctx.seed ^ i as u64));
            (base, target)
        })
        .collect();

    Outcome {
        setup_s,
        probe_keys: docs,
        probe_sync: true,
        probe_chain: None,
        user_bytes,
        stored_bytes,
        verify_attempted: attempted,
        verify_failed: failed,
        verify_errors: errors,
        layer,
        input_digest: input_digest(ctx.seed, docs),
        exact: Vec::new(),
        probe_pairs,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_tell_whole_from_torn() {
        let mut text = initial_text(0);
        assert_eq!(text.len(), 4096);
        assert!(decode(&encode(&text)).is_ok());
        // One stored byte per symbol: rewrites keep the encoded length.
        assert_eq!(encode(&text).len(), 4096 + 3);
        let before = text.clone();
        rewrite_slice(&mut text, 1, 42);
        assert_eq!(read_slice(&text, 1), Some(42));
        // A rewrite shares no byte with what it replaces.
        let r = slice_range(1);
        assert!(text[r.clone()]
            .iter()
            .all(|b| !before[r.clone()].contains(b)));
        // Half of another write stitched in: the checksum catches it.
        let mut other = text.clone();
        write_slice(&mut other, 1, 43, alphabet_of(&text, 1));
        let mid = r.start + SLICE_BYTES / 2;
        text[mid..r.end].copy_from_slice(&other[mid..r.end]);
        assert_eq!(read_slice(&text, 1), None);
        assert!(decode(&encode(&text)).is_err());
    }

    #[test]
    fn the_round_stream_is_a_function_of_the_seed() {
        assert_eq!(input_digest(1, 64), input_digest(1, 64));
        assert_ne!(input_digest(1, 64), input_digest(2, 64));
        let mut a = RoundStream::new(3, 0, 64);
        let mut b = RoundStream::new(3, 1, 64);
        let (ra, rb) = (a.next_round(64), b.next_round(64));
        assert_ne!(ra.stamp & 1, rb.stamp & 1);
        assert!(ra.slice == 0 || ra.slice == SHARED);
        assert_eq!(ra.reads.len(), READBACK - 1);
    }

    /// The property the slice alphabets exist for: merging a fork into
    /// a head that rewrote the same slice resolves to the head's whole
    /// slice, and rewrites of different slices both survive.
    #[test]
    fn merges_of_slice_rewrites_stay_whole() {
        let dir = std::env::temp_dir().join(format!("odebench-merge-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = Database::create(dir.join("doc.odb"), DatabaseOptions::no_sync()).unwrap();
        let base = initial_text(0);
        let mut txn = db.begin();
        let (_, v0) = txn.pnew_raw(tag(), encode(&base)).unwrap();
        txn.commit().unwrap();
        let mut copies = [(v0, base.clone()), (v0, base.clone())];
        let mut head = (v0, base);
        let mut streams = [RoundStream::new(1, 0, 1), RoundStream::new(1, 1, 1)];
        let mut rng = StdRng::seed_from_u64(5);
        let mut conflicted = 0;
        for _ in 0..200 {
            let c = rng.random_range(0..CLIENTS);
            let round = streams[c].next_round(1);
            let (seen, mut text) = copies[c].clone();
            rewrite_slice(&mut text, round.slice, round.stamp);
            let mut txn = db.begin();
            let fork = txn.newversion_from_raw(seen).unwrap();
            txn.put_version_raw(fork, tag(), encode(&text)).unwrap();
            assert_eq!(txn.common_ancestor_raw(fork, head.0).unwrap(), Some(seen));
            let (merged, conflicts) = txn.merge_raw(fork, head.0, MergePolicy::Theirs).unwrap();
            let merged = merged.unwrap();
            let body = decode(&txn.deref_version_raw(merged, tag()).unwrap()).unwrap();
            let (expected, expect_conflict) = expected_merge(&copies[c].1, &text, &head.1);
            assert_eq!(body, expected);
            assert_eq!(!conflicts.is_empty(), expect_conflict);
            if expect_conflict {
                assert_eq!(round.slice, SHARED, "only the shared slice is contended");
                conflicted += 1;
            } else {
                assert_eq!(read_slice(&body, round.slice), Some(round.stamp));
            }
            txn.commit().unwrap();
            copies[c] = (merged, body.clone());
            head = (merged, body);
        }
        assert!(conflicted > 0, "no round contended the shared slice");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
