//! `history` — the read side of the layers `checkin` writes, embedded
//! and read-only: one reader thread dereferences historical and latest
//! versions, walks `tprevious`/`dprevious`, and asks temporal queries,
//! Zipf-skewed over objects, on a working set larger than both the
//! materialize cache and the buffer pool.
//!
//! Why: chain materialisation, `ode-delta::apply`, buffer pool and
//! B+-tree, with no WAL and no fsync. A change that buys check-in
//! speed or space with historical read cost shows here as a loss.

use std::collections::BTreeMap;
use std::path::Path;

use ode::{ChainConfig, Database, DatabaseOptions, ObjPtr, VersionPtr, Vid};
use ode_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::{self, Digest, Doc, Edit, DATA_SEED};
use crate::layers::{chain_compression_ratio, storage_metrics, StorageSample};
use crate::run::{measure, Client};
use crate::trace::{Name, Tracer};
use crate::workloads::checkin::{ANCHOR_INTERVAL, BODY_BYTES};
use crate::workloads::{db_and_wal_bytes, file_bytes, repeat_setup, Ctx, Outcome, DIGEST_OPS};

const OBJECTS: usize = 384;
const VERSIONS: usize = 32;
const ZIPF_THETA: f64 = 0.9;
/// Reads one unit makes through one snapshot.
const SESSION_READS: usize = 16;
/// Untimed units before the measured phase, so both caches are at
/// their steady state when timing starts.
const WARMUP_UNITS: usize = 1024;
/// Sessions after which `peak_rss_mb` is read.
const RSS_UNITS: usize = 4000;
const WALK_HOPS: usize = 5;
/// `history_between` asks for a quarter of an object's stamp range.
const BETWEEN_SPAN: usize = VERSIONS / 4;

fn options() -> DatabaseOptions {
    DatabaseOptions::no_sync().with_chain(ChainConfig::with_interval(ANCHOR_INTERVAL))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadOp {
    /// `deref_v` of historical version `j` (never the latest).
    DerefV { obj: usize, j: usize },
    /// `deref` of the latest version through the generic reference.
    Deref { obj: usize },
    /// Five hops back from version `j`, alternating `tprevious` and
    /// `dprevious`.
    Walk { obj: usize, j: usize },
    /// `history_between` from version `j`'s stamp over a quarter of
    /// the object's stamp range.
    Between { obj: usize, j: usize },
    /// `version_as_of` version `j`'s stamp.
    AsOf { obj: usize, j: usize },
}

struct OpStream {
    zipf: Zipf,
    rng: StdRng,
}

impl OpStream {
    fn new(seed: u64, objects: usize) -> OpStream {
        OpStream {
            zipf: Zipf::new(objects, ZIPF_THETA, gen::mix(seed)),
            rng: StdRng::seed_from_u64(gen::mix(seed ^ 0x0415)),
        }
    }

    fn next_op(&mut self) -> ReadOp {
        let obj = self.zipf.sample();
        match self.rng.random_range(0..100u32) {
            0..40 => ReadOp::DerefV {
                obj,
                j: self.rng.random_range(0..VERSIONS - 1),
            },
            40..70 => ReadOp::Deref { obj },
            70..85 => ReadOp::Walk {
                obj,
                j: self.rng.random_range(WALK_HOPS..VERSIONS),
            },
            85..95 => ReadOp::Between {
                obj,
                j: self.rng.random_range(0..VERSIONS - BETWEEN_SPAN),
            },
            _ => ReadOp::AsOf {
                obj,
                j: self.rng.random_range(0..VERSIONS),
            },
        }
    }
}

fn input_digest(seed: u64, objects: usize) -> u64 {
    let mut stream = OpStream::new(seed, objects);
    let mut d = Digest::default();
    for _ in 0..DIGEST_OPS {
        let (kind, obj, j) = match stream.next_op() {
            ReadOp::DerefV { obj, j } => (0, obj, j),
            ReadOp::Deref { obj } => (1, obj, 0),
            ReadOp::Walk { obj, j } => (2, obj, j),
            ReadOp::Between { obj, j } => (3, obj, j),
            ReadOp::AsOf { obj, j } => (4, obj, j),
        };
        d.u64(kind);
        d.u64(obj as u64);
        d.u64(j as u64);
    }
    d.finish()
}

/// The linear history of one object: each version edits its
/// predecessor. The same for every seed.
fn version_texts(obj: usize) -> Vec<Vec<u8>> {
    let mut texts = vec![gen::text(gen::mix(DATA_SEED) ^ obj as u64, BODY_BYTES)];
    for j in 1..VERSIONS {
        let mut text = texts[j - 1].clone();
        let edit = gen::mix(DATA_SEED ^ ((obj * VERSIONS + j) as u64) << 16);
        Edit::new(edit, BODY_BYTES).apply(&mut text);
        texts.push(text);
    }
    texts
}

/// The store plus what set-up recorded to check reads against.
struct Built {
    db: Database,
    ptrs: Vec<ObjPtr<Doc>>,
    /// Version ids per object in creation order; a version's stamp is
    /// read back from the store at set-up.
    vids: Vec<Vec<Vid>>,
    stamps: Vec<Vec<u64>>,
    /// Checksum of every version's text.
    sums: Vec<Vec<u64>>,
    user_bytes: u64,
    stored_bytes: u64,
}

fn setup(ctx: &Ctx, path: &Path) -> Built {
    let objects = ctx.scale(OBJECTS);
    let db = Database::create(path, options()).expect("create history store");
    let (mut ptrs, mut vids, mut stamps, mut sums) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut user_bytes = 0u64;
    for obj in 0..objects {
        let texts = version_texts(obj);
        let mut txn = db.begin();
        let (mut obj_vids, mut obj_stamps) = (Vec::new(), Vec::new());
        let mut ptr = None;
        for (j, text) in texts.iter().enumerate() {
            let doc = Doc {
                rev: j as u64,
                text: text.clone(),
            };
            user_bytes += ode_codec::to_bytes(&doc).len() as u64;
            let vp = match ptr {
                None => {
                    let p = txn.pnew(&doc).expect("pnew");
                    ptr = Some(p);
                    txn.current_version(&p).expect("current version")
                }
                Some(p) => {
                    let vp = txn.newversion(&p).expect("newversion");
                    txn.put(&p, &doc).expect("put");
                    vp
                }
            };
            obj_stamps.push(txn.created_stamp(&vp).expect("stamp"));
            obj_vids.push(vp.vid());
        }
        txn.commit().expect("commit object history");
        ptrs.push(ptr.expect("object created"));
        vids.push(obj_vids);
        stamps.push(obj_stamps);
        sums.push(texts.iter().map(|t| gen::checksum(t)).collect());
    }
    db.checkpoint().expect("checkpoint built history");
    let stored_bytes = db_and_wal_bytes(path);
    // Reopen, so the measured phase starts from the file, not from the
    // pages set-up left in the buffer pool.
    drop(db);
    let db = Database::open(path, options()).expect("reopen history store");
    let built = Built {
        db,
        ptrs,
        vids,
        stamps,
        sums,
        user_bytes,
        stored_bytes,
    };
    let mut reader = Reader::new(&built, ctx.seed);
    let mut off = Tracer::new(false);
    for _ in 0..ctx.scale(WARMUP_UNITS) {
        reader.prepare();
        reader.unit(&mut off).expect("warm-up read");
        reader.check().expect("warm-up read verifies");
    }
    built
}

/// What a unit returned, kept for the untimed check.
enum Got {
    Body { vid: Vid, doc: Doc },
    Version(Option<Vid>),
    Versions(Vec<Vid>),
}

/// One reader. Its unit is a *session*: a fresh snapshot and
/// [`SESSION_READS`] reads through it, the way an application reads a
/// consistent set of versions. A single read's latency is multi-modal
/// (cache hit, cache miss, metadata only), which makes its median jump
/// between modes from run to run; a session's is not.
struct Reader<'a> {
    built: &'a Built,
    stream: OpStream,
    ops: Vec<ReadOp>,
    got: Vec<Got>,
}

impl<'a> Reader<'a> {
    fn new(built: &'a Built, seed: u64) -> Reader<'a> {
        Reader {
            built,
            stream: OpStream::new(seed, built.ptrs.len()),
            ops: Vec::with_capacity(SESSION_READS),
            got: Vec::with_capacity(SESSION_READS),
        }
    }
}

fn read(
    b: &Built,
    snap: &mut ode::Snapshot<'_>,
    op: ReadOp,
    t: &mut Tracer,
) -> Result<Got, ode::Error> {
    let vp = |obj: usize, j: usize| VersionPtr::<Doc>::from_vid(b.vids[obj][j]);
    let body = |vid: Vid, doc: Doc| Got::Body { vid, doc };
    Ok(match op {
        ReadOp::DerefV { obj, j } => {
            let r = t.time(Name::DerefV, || snap.deref_v(&vp(obj, j)))?;
            body(r.version().vid(), r.into_inner())
        }
        ReadOp::Deref { obj } => {
            let r = t.time(Name::Deref, || snap.deref(&b.ptrs[obj]))?;
            body(r.version().vid(), r.into_inner())
        }
        ReadOp::Walk { obj, j } => t.time(Name::Walk, || {
            let mut at = Some(vp(obj, j));
            for hop in 0..WALK_HOPS {
                let Some(v) = at else { break };
                at = if hop % 2 == 0 {
                    snap.tprevious(&v)?
                } else {
                    snap.dprevious(&v)?
                };
            }
            Ok::<_, ode::Error>(Got::Version(at.map(|v| v.vid())))
        })?,
        ReadOp::Between { obj, j } => {
            let (from, to) = (b.stamps[obj][j], b.stamps[obj][j + BETWEEN_SPAN]);
            let vs = t.time(Name::HistoryBetween, || {
                snap.history_between(&b.ptrs[obj], from, to)
            })?;
            Got::Versions(vs.into_iter().map(|v| v.vid()).collect())
        }
        ReadOp::AsOf { obj, j } => {
            let v = t.time(Name::VersionAsOf, || {
                snap.version_as_of(&b.ptrs[obj], b.stamps[obj][j])
            })?;
            Got::Version(v.map(|v| v.vid()))
        }
    })
}

fn right_answer(b: &Built, op: ReadOp, got: Got) -> bool {
    let body_is = |obj: usize, j: usize, vid: Vid, doc: &Doc| {
        vid == b.vids[obj][j] && doc.rev == j as u64 && gen::checksum(&doc.text) == b.sums[obj][j]
    };
    match (op, got) {
        (ReadOp::DerefV { obj, j }, Got::Body { vid, doc }) => body_is(obj, j, vid, &doc),
        (ReadOp::Deref { obj }, Got::Body { vid, doc }) => body_is(obj, VERSIONS - 1, vid, &doc),
        (ReadOp::Walk { obj, j }, Got::Version(v)) => v == Some(b.vids[obj][j - WALK_HOPS]),
        (ReadOp::Between { obj, j }, Got::Versions(vs)) => vs == b.vids[obj][j..=j + BETWEEN_SPAN],
        (ReadOp::AsOf { obj, j }, Got::Version(v)) => v == Some(b.vids[obj][j]),
        _ => false,
    }
}

impl Client for Reader<'_> {
    fn prepare(&mut self) {
        self.ops.clear();
        self.ops
            .extend((0..SESSION_READS).map(|_| self.stream.next_op()));
    }

    fn unit(&mut self, t: &mut Tracer) -> Result<(), String> {
        self.got.clear();
        let mut snap = t.time(Name::Snapshot, || self.built.db.snapshot());
        for &op in &self.ops {
            let got = read(self.built, &mut snap, op, t).map_err(|e| format!("{op:?}: {e}"))?;
            self.got.push(got);
        }
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        for (&op, got) in self.ops.iter().zip(self.got.drain(..)) {
            if !right_answer(self.built, op, got) {
                return Err(format!("{op:?}: wrong answer"));
            }
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path = ctx.dir.join("history.odb");
    let (built, setup_s) = repeat_setup(ctx, || setup(ctx, &path));
    let objects = built.ptrs.len();

    let before = StorageSample::of_db(&built.db);
    // The measured stream continues where a fresh stream would be after
    // the warm-up: the same operations for the same seed, every run.
    let mut reader = Reader::new(&built, ctx.seed);
    for _ in 0..ctx.scale(WARMUP_UNITS) {
        reader.prepare();
    }
    let (log, _) = measure(vec![reader], ctx.seconds, ctx.traced, RSS_UNITS);
    let after = StorageSample::of_db(&built.db);

    let mut layer = BTreeMap::new();
    storage_metrics(&mut layer, &before, &after, log.units.len() as u64);
    layer.insert("storage.file_bytes", file_bytes(&path) as f64);
    let compression = chain_compression_ratio(&built.db, built.ptrs.iter().map(|p| p.oid()));
    layer.insert("version.chain_compression_ratio", compression);

    let texts = version_texts(0);
    let probe_pairs = (0..ctx.probe_items())
        .map(|i| {
            let j = 1 + i % (VERSIONS - 1);
            (texts[j - 1].clone(), texts[j].clone())
        })
        .collect();

    Outcome {
        setup_s,
        probe_keys: objects * VERSIONS,
        probe_sync: false,
        probe_chain: Some(ANCHOR_INTERVAL),
        user_bytes: built.user_bytes,
        stored_bytes: built.stored_bytes,
        // Every read was checked as it was made.
        verify_attempted: 0,
        verify_failed: 0,
        verify_errors: Vec::new(),
        layer,
        input_digest: input_digest(ctx.seed, objects),
        exact: vec![
            ("stored_bytes", built.stored_bytes as f64),
            ("user_bytes", built.user_bytes as f64),
            ("version.chain_compression_ratio", compression),
        ],
        probe_pairs,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_operation_stream_is_a_function_of_the_seed() {
        assert_eq!(input_digest(1, 64), input_digest(1, 64));
        assert_ne!(input_digest(1, 64), input_digest(2, 64));
        let ops = |seed| {
            let mut s = OpStream::new(seed, 64);
            (0..500).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(4), ops(4));
        // Every generated index is one the checks can look up.
        for op in ops(4) {
            match op {
                ReadOp::DerefV { j, .. } => assert!(j < VERSIONS - 1),
                ReadOp::Walk { j, .. } => assert!((WALK_HOPS..VERSIONS).contains(&j)),
                ReadOp::Between { j, .. } => assert!(j + BETWEEN_SPAN < VERSIONS),
                ReadOp::AsOf { j, .. } => assert!(j < VERSIONS),
                ReadOp::Deref { .. } => {}
            }
        }
    }
}
