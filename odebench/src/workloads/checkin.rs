//! `checkin` — the write path, embedded: one writer thread checks in
//! revisions and branches of 2 KB documents, one fsynced transaction
//! each, into a store with anchored delta chains.
//!
//! Why: `ode-storage` (WAL, fsync, checkpoint) and `ode-version` chain
//! append with `ode-delta::diff` do nearly all the work and `ode-net`
//! none. It is the only workload where `stored_bytes_per_user_byte`
//! moves.

use std::collections::BTreeMap;
use std::path::Path;

use ode::{ChainConfig, Database, DatabaseOptions, ObjPtr, Txn, VersionPtr, Vid};
use ode_workloads::{DesignOp, DesignTrace, DesignTraceConfig};

use crate::gen::{self, Digest, Doc, Edit, DATA_SEED};
use crate::layers::{chain_compression_ratio, storage_metrics, StorageSample, WalMeter};
use crate::run::{measure, Client};
use crate::trace::{now_ns, Name, Tracer};
use crate::workloads::{
    db_and_wal_bytes, file_bytes, note, ratio, repeat_setup, Ctx, Outcome, DIGEST_OPS,
};

const OBJECTS: usize = 1024;
pub const BODY_BYTES: usize = 2048;
pub const ANCHOR_INTERVAL: u64 = 16;
/// Operations `DesignTrace` materialises at a time.
const TRACE_CHUNK: usize = 16 * 1024;
/// Set-up revises one object in this many: the designs that already
/// have a history when the measured phase starts.
const SETUP_OBJECTS_SHARE: usize = 4;
/// Check-ins set-up makes, unsynced, [`SETUP_BATCH`] to a transaction.
/// They give each object set-up revises a chain of about 21 versions,
/// past its second anchor; the rest start with their first version. The
/// store's size after them is the workload's
/// `stored_bytes_per_user_byte`.
const SETUP_UNITS: usize = 20 * OBJECTS / SETUP_OBJECTS_SHARE;
const SETUP_BATCH: usize = 64;
/// Check-ins after which `peak_rss_mb` is read.
const RSS_UNITS: usize = 4000;
const NO_PARENT: u32 = u32::MAX;

fn chained(options: DatabaseOptions) -> DatabaseOptions {
    options.with_chain(ChainConfig::with_interval(ANCHOR_INTERVAL))
}

/// One generated check-in: derive from `base` (`None` = the object's
/// latest version) and store the edited body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckinOp {
    pub obj: usize,
    pub base: Option<u32>,
}

/// The generator's own record of every version it asked for: enough to
/// rebuild any body without keeping the bodies.
pub struct Model {
    /// Seeds the operation stream: [`DATA_SEED`] during set-up, the
    /// run's seed after [`Model::reseed`].
    seed: u64,
    /// The operation stream draws from the first `drawn` objects: one
    /// in [`SETUP_OBJECTS_SHARE`] during set-up, all of them after
    /// [`Model::reseed`].
    drawn: usize,
    /// Per object and version: the version it was derived from and the
    /// edit applied on top.
    lineage: Vec<Vec<(u32, Edit)>>,
    /// Text of each object's most recently created version.
    tips: Vec<Vec<u8>>,
    // `DesignTrace` state: the current chunk, the cursor into it, and
    // each object's chunk-local version numbering.
    chunk: Vec<DesignOp>,
    cursor: usize,
    chunks_made: u64,
    local_versions: Vec<Vec<u32>>,
    ops_made: u64,
}

impl Model {
    pub fn new(objects: usize) -> Model {
        let root = Edit::new(0, BODY_BYTES);
        Model {
            seed: DATA_SEED,
            drawn: (objects / SETUP_OBJECTS_SHARE).max(1),
            lineage: vec![vec![(NO_PARENT, root)]; objects],
            tips: (0..objects).map(Model::root_text).collect(),
            chunk: Vec::new(),
            cursor: 0,
            chunks_made: 0,
            local_versions: Vec::new(),
            ops_made: 0,
        }
    }

    fn root_text(obj: usize) -> Vec<u8> {
        gen::text(gen::mix(DATA_SEED) ^ obj as u64, BODY_BYTES)
    }

    /// Start the operation stream `seed` names, over every object, on
    /// the history made so far.
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.drawn = self.lineage.len();
        self.chunks_made = 0;
        self.cursor = self.chunk.len();
    }

    /// Revise the tip 80 %, branch from an earlier version 20 %:
    /// `DesignTrace` decides, one chunk of operations at a time. A
    /// chunk numbers versions from the object's tip at the chunk's
    /// start, so branches reach back as far as the chunk does.
    fn refill(&mut self) {
        let trace = DesignTrace::generate(&DesignTraceConfig {
            objects: self.drawn,
            operations: TRACE_CHUNK,
            alternative_ratio: 0.2,
            derive_ratio: 1.0,
            read_ratio: 0.0,
            seed: gen::mix(self.seed ^ self.chunks_made.wrapping_mul(0x51ED)),
        });
        self.chunks_made += 1;
        self.chunk = trace.ops;
        self.cursor = self.drawn; // skip the Create operations
        self.local_versions = self
            .lineage
            .iter()
            .map(|l| vec![l.len() as u32 - 1])
            .collect();
    }

    /// Generate the next check-in and apply it to the model.
    pub fn next_op(&mut self) -> (CheckinOp, Doc) {
        if self.cursor >= self.chunk.len() {
            self.refill();
        }
        let (obj, base) = match &self.chunk[self.cursor] {
            DesignOp::Revise { obj } => (*obj, None),
            DesignOp::Branch { obj, version } => (*obj, Some(self.local_versions[*obj][*version])),
            other => unreachable!("derive-only trace produced {other:?}"),
        };
        self.cursor += 1;
        self.ops_made += 1;
        let edit = Edit::new(gen::mix(self.seed ^ (self.ops_made << 20)), BODY_BYTES);

        let mut text = match base {
            None => std::mem::take(&mut self.tips[obj]),
            Some(v) => self.text_of(obj, v),
        };
        edit.apply(&mut text);
        let parent = base.unwrap_or(self.lineage[obj].len() as u32 - 1);
        let index = self.lineage[obj].len() as u32;
        self.lineage[obj].push((parent, edit));
        self.local_versions[obj].push(index);
        self.tips[obj] = text.clone();
        (
            CheckinOp { obj, base },
            Doc {
                rev: u64::from(index),
                text,
            },
        )
    }

    /// Rebuild one version's text from the root along its derivation.
    fn text_of(&self, obj: usize, version: u32) -> Vec<u8> {
        let lineage = &self.lineage[obj];
        let mut path = Vec::new();
        let mut v = version;
        while v != 0 {
            path.push(lineage[v as usize].1);
            v = lineage[v as usize].0;
        }
        let mut text = Model::root_text(obj);
        for edit in path.iter().rev() {
            edit.apply(&mut text);
        }
        text
    }

    /// Every version's text of one object, in creation order.
    fn all_texts(&self, obj: usize) -> Vec<Vec<u8>> {
        let mut texts: Vec<Vec<u8>> = vec![Model::root_text(obj)];
        for (parent, edit) in &self.lineage[obj][1..] {
            let mut text = texts[*parent as usize].clone();
            edit.apply(&mut text);
            texts.push(text);
        }
        texts
    }
}

/// Hash of the first [`DIGEST_OPS`] operations `seed` generates.
pub fn input_digest(seed: u64, objects: usize) -> u64 {
    let mut model = Model::new(objects);
    model.reseed(seed);
    let mut d = Digest::default();
    for _ in 0..DIGEST_OPS {
        let (op, doc) = model.next_op();
        d.u64(op.obj as u64);
        d.u64(op.base.map_or(u64::MAX, u64::from));
        d.u64(gen::checksum(&doc.text));
    }
    d.finish()
}

struct Built {
    db: Database,
    ptrs: Vec<ObjPtr<Doc>>,
    writer: WriterState,
    /// Size of the store and of the bodies in it when set-up ended.
    stored_bytes: u64,
    setup_user_bytes: u64,
}

/// What the writer carries from set-up into the measured phase.
struct WriterState {
    model: Model,
    /// Acknowledged version ids, aligned with `model.lineage`.
    vids: Vec<Vec<Vid>>,
    user_bytes: u64,
}

impl WriterState {
    /// The version a check-in derives from; `None` for the latest.
    fn base_of(&self, op: &CheckinOp) -> Option<VersionPtr<Doc>> {
        op.base
            .map(|v| VersionPtr::from_vid(self.vids[op.obj][v as usize]))
    }

    /// Record a committed check-in: from here the version must survive
    /// a reopen.
    fn acknowledge(&mut self, op: &CheckinOp, vid: Vid, bytes: u64) {
        self.vids[op.obj].push(vid);
        self.user_bytes += bytes;
    }
}

/// One check-in inside `txn`: derive a version, store the body.
fn check_in(
    txn: &mut Txn<'_>,
    ptr: &ObjPtr<Doc>,
    base: Option<VersionPtr<Doc>>,
    doc: &Doc,
    t: &mut Tracer,
) -> Result<Vid, String> {
    let derived = t.time(Name::NewVersion, || match &base {
        None => txn.newversion(ptr),
        Some(base) => txn.newversion_from(base),
    });
    let vp = derived.map_err(|e| format!("newversion: {e}"))?;
    t.time(Name::Put, || txn.put(ptr, doc))
        .map_err(|e| format!("put: {e}"))?;
    Ok(vp.vid())
}

fn encoded_len(doc: &Doc) -> u64 {
    ode_codec::to_bytes(doc).len() as u64
}

fn setup(ctx: &Ctx, path: &Path) -> Built {
    let objects = ctx.scale(OBJECTS);
    // Built without fsync: set-up is not what the workload measures.
    let db = Database::create(path, chained(DatabaseOptions::no_sync())).expect("create store");
    let model = Model::new(objects);
    let mut ptrs = Vec::with_capacity(objects);
    let mut vids = Vec::with_capacity(objects);
    let mut user_bytes = 0;
    for batch in (0..objects).collect::<Vec<_>>().chunks(64) {
        let mut txn = db.begin();
        for &obj in batch {
            let doc = Doc {
                rev: 0,
                text: model.tips[obj].clone(),
            };
            user_bytes += encoded_len(&doc);
            let ptr = txn.pnew(&doc).expect("pnew");
            vids.push(vec![txn.current_version(&ptr).expect("current").vid()]);
            ptrs.push(ptr);
        }
        txn.commit().expect("commit seed batch");
    }
    let mut writer = WriterState {
        model,
        vids,
        user_bytes,
    };
    let mut off = Tracer::new(false);
    for _ in 0..ctx.scale(SETUP_UNITS) / SETUP_BATCH {
        let mut txn = db.begin();
        for _ in 0..SETUP_BATCH {
            let (op, doc) = writer.model.next_op();
            let vid = check_in(&mut txn, &ptrs[op.obj], writer.base_of(&op), &doc, &mut off)
                .expect("set-up check-in");
            writer.acknowledge(&op, vid, encoded_len(&doc));
        }
        txn.commit().expect("commit set-up batch");
    }
    db.checkpoint().expect("checkpoint set-up history");
    let stored_bytes = db_and_wal_bytes(path);
    // The measured phase runs on the same files with the default
    // options: fsync every commit, group commit on, zero window.
    drop(db);
    let db = Database::open(path, chained(DatabaseOptions::default())).expect("reopen store");
    writer.model.reseed(ctx.seed);
    Built {
        db,
        ptrs,
        setup_user_bytes: writer.user_bytes,
        writer,
        stored_bytes,
    }
}

struct Writer<'a> {
    db: &'a Database,
    ptrs: &'a [ObjPtr<Doc>],
    state: &'a mut WriterState,
    /// The prepared check-in and its body's encoded length.
    next: Option<(CheckinOp, Doc, u64)>,
    // Read only in traced slices, at the same boundaries as the spans.
    wal: WalMeter,
    traced_user_bytes: u64,
    checkpoint_stall_ns_max: u64,
}

impl<'a> Writer<'a> {
    fn new(db: &'a Database, ptrs: &'a [ObjPtr<Doc>], state: &'a mut WriterState) -> Writer<'a> {
        Writer {
            db,
            ptrs,
            state,
            next: None,
            wal: WalMeter::default(),
            traced_user_bytes: 0,
            checkpoint_stall_ns_max: 0,
        }
    }
}

impl Client for Writer<'_> {
    fn prepare(&mut self) {
        if self.next.is_none() {
            let (op, doc) = self.state.model.next_op();
            let bytes = encoded_len(&doc);
            self.next = Some((op, doc, bytes));
        }
    }

    fn unit(&mut self, t: &mut Tracer) -> Result<(), String> {
        let (op, doc, bytes) = self.next.take().expect("prepared");
        let db = self.db;
        let ptr = self.ptrs[op.obj];
        let traced = t.is_on();
        if traced {
            self.wal.resync(db.wal_len());
        }
        let mut txn = t.time(Name::Begin, || db.begin());
        let vid = check_in(&mut txn, &ptr, self.state.base_of(&op), &doc, t)?;
        let commit_start = now_ns();
        t.time(Name::Commit, || txn.commit())
            .map_err(|e| format!("commit: {e}"))?;
        if traced {
            let commit_ns = now_ns() - commit_start;
            if self.wal.observe(db.wal_len()) {
                self.checkpoint_stall_ns_max = self.checkpoint_stall_ns_max.max(commit_ns);
            }
            self.traced_user_bytes += bytes;
        }
        self.state.acknowledge(&op, vid, bytes);
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path = ctx.dir.join("checkin.odb");
    let (mut built, setup_s) = repeat_setup(ctx, || setup(ctx, &path));
    let objects = built.ptrs.len();

    let before = StorageSample::of_db(&built.db);
    let writer = Writer::new(&built.db, &built.ptrs, &mut built.writer);
    let (log, mut writers) = measure(vec![writer], ctx.seconds, ctx.traced, RSS_UNITS);
    let writer = writers.pop().expect("one writer");
    let (wal, traced_user_bytes, stall_ns) = (
        writer.wal,
        writer.traced_user_bytes,
        writer.checkpoint_stall_ns_max,
    );
    let after = StorageSample::of_db(&built.db);

    let mut layer = BTreeMap::new();
    storage_metrics(&mut layer, &before, &after, log.units.len() as u64);
    layer.insert(
        "storage.wal_bytes_per_user_byte",
        ratio(wal.grown as f64, traced_user_bytes as f64),
    );
    layer.insert("storage.checkpoints", wal.resets as f64);
    layer.insert("storage.checkpoint_stall_us_max", stall_ns as f64 / 1e3);

    // Recovery check. Forgetting the handle skips the checkpoint a
    // clean drop would run, so the reopen replays the WAL as it would
    // after a crash: every acknowledged version must come back
    // byte-identical.
    let Built {
        db,
        ptrs,
        writer,
        stored_bytes,
        setup_user_bytes,
    } = built;
    std::mem::forget(db);
    let db = Database::open(&path, chained(DatabaseOptions::default())).expect("reopen store");
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    for obj in 0..ptrs.len() {
        let mut snap = db.snapshot();
        let texts = writer.model.all_texts(obj);
        for (j, (vid, text)) in writer.vids[obj].iter().zip(texts).enumerate() {
            attempted += 1;
            let want = Doc {
                rev: j as u64,
                text,
            };
            match snap.deref_v(&VersionPtr::<Doc>::from_vid(*vid)) {
                Ok(got) if *got == want => {}
                Ok(_) => note(&mut errors, &mut failed, || {
                    format!("object {obj} version {j}: body differs after reopen")
                }),
                Err(e) => note(&mut errors, &mut failed, || {
                    format!("object {obj} version {j}: {e}")
                }),
            }
        }
    }
    db.checkpoint().expect("final checkpoint");
    layer.insert("storage.file_bytes", file_bytes(&path) as f64);
    layer.insert(
        "version.chain_compression_ratio",
        chain_compression_ratio(&db, ptrs.iter().map(|p| p.oid())),
    );

    let mut probe_model = Model::new(objects.min(64));
    probe_model.reseed(ctx.seed);
    let probe_pairs = (0..ctx.probe_items())
        .map(|_| {
            let (op, doc) = probe_model.next_op();
            let parent = probe_model.lineage[op.obj][doc.rev as usize].0;
            (probe_model.text_of(op.obj, parent), doc.text)
        })
        .collect();

    Outcome {
        setup_s,
        probe_keys: writer.vids.iter().map(Vec::len).sum(),
        probe_sync: true,
        probe_chain: Some(ANCHOR_INTERVAL),
        // Space is measured on the fixed history set-up built: the same
        // check-ins whatever the seed and however many units the
        // measured phase had time for.
        user_bytes: setup_user_bytes,
        stored_bytes,
        verify_attempted: attempted,
        verify_failed: failed,
        verify_errors: errors,
        layer,
        input_digest: input_digest(ctx.seed, objects),
        exact: vec![
            ("stored_bytes", stored_bytes as f64),
            ("user_bytes", setup_user_bytes as f64),
        ],
        probe_pairs,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generator_is_a_function_of_the_seed() {
        assert_eq!(input_digest(5, 32), input_digest(5, 32));
        assert_ne!(input_digest(5, 32), input_digest(6, 32));
        let ops = |seed| {
            let mut m = Model::new(16);
            m.reseed(seed);
            (0..200).map(|_| m.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(9), ops(9));
    }

    #[test]
    fn rebuilt_texts_match_the_bodies_that_were_generated() {
        let mut model = Model::new(8);
        model.reseed(3);
        let mut made: Vec<Vec<Vec<u8>>> = (0..8).map(|o| vec![model.tips[o].clone()]).collect();
        let mut branches = 0;
        for _ in 0..400 {
            let (op, doc) = model.next_op();
            branches += usize::from(op.base.is_some());
            assert_eq!(doc.rev as usize, made[op.obj].len());
            made[op.obj].push(doc.text);
        }
        assert!(branches > 20, "only {branches} branches in 400 operations");
        for (obj, texts) in made.iter().enumerate() {
            assert_eq!(&model.all_texts(obj), texts);
            let last = texts.len() as u32 - 1;
            assert_eq!(model.text_of(obj, last), texts[last as usize]);
        }
    }
}
