//! `version_bench` — delta-chain version storage vs whole copies.
//!
//! ```text
//! version_bench [objects] [versions-per-object] [body-bytes] [read-rounds]
//! ```
//!
//! Builds identical version histories (evolving documents: shared
//! prefix, point edits, slight growth per revision) in three engines —
//! chains at anchor interval 1 (every version its own anchor: a whole
//! copy each), 4 and 16 — then reports, as JSON on stdout (the shape checked into
//! `BENCH_core.json` under `version_bench`):
//!
//! - **space** — bytes the store holds per engine, and the chain/whole
//!   ratio. The paper's claim is that at ≥ 20 versions per object the
//!   chain stores at most a third of the whole-copy bytes.
//! - **latest reads** — ns per `deref` of the newest version. The chain
//!   keeps the newest body whole, so this must stay within noise of the
//!   whole-copy engine (the acceptance bar is 10%).
//! - **historical reads** — ns per `deref_v` of a non-latest version,
//!   cold (every vid read once: true materialization cost, at most
//!   `interval − 1` delta applications) and warm (second pass served by
//!   the materialization cache), with the cache's hit/miss counters.

use std::time::Instant;

use ode::{ChainConfig, Database, DatabaseOptions, ObjPtr, VersionPtr};
use ode_codec::{impl_persist_struct, impl_type_name};

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    rev: u64,
    text: Vec<u8>,
}
impl_persist_struct!(Doc { rev, text });
impl_type_name!(Doc = "bench/version/Doc");

struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut wal = self.0.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
    }
}

/// Revision `rev` of object `obj`: a mostly-stable body with a few
/// point edits and a short appended suffix per revision — the shape
/// delta compression exists for.
fn body(obj: usize, rev: usize, bytes: usize) -> Vec<u8> {
    let mut b: Vec<u8> = (0..bytes)
        .map(|j| ((j * 31 + obj * 7) % 251) as u8)
        .collect();
    for k in 0..4 {
        let at = (rev * 97 + k * 53) % bytes.max(1);
        b[at] = (rev + k) as u8;
    }
    b.extend_from_slice(format!("-o{obj}r{rev}").as_bytes());
    b
}

struct Built {
    _scratch: Scratch,
    db: Database,
    objects: Vec<ObjPtr<Doc>>,
    versions: Vec<Vec<VersionPtr<Doc>>>,
    /// Sum of encoded body bytes as written — what one whole copy per
    /// version holds for this history.
    whole_bytes: u64,
    /// Encoded bytes of every object's latest body, which its version
    /// record keeps whole outside the chain.
    latest_bytes: u64,
}

fn build(
    name: &str,
    options: DatabaseOptions,
    objects: usize,
    versions: usize,
    body_bytes: usize,
) -> Built {
    let mut path = std::env::temp_dir();
    path.push(format!("ode-version-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let db = Database::create(&path, options).expect("create bench db");
    let mut ptrs = Vec::with_capacity(objects);
    let mut vids = Vec::with_capacity(objects);
    let mut whole_bytes = 0u64;
    let mut latest_bytes = 0u64;
    let mut txn = db.begin();
    for o in 0..objects {
        let doc = Doc {
            rev: 0,
            text: body(o, 0, body_bytes),
        };
        whole_bytes += ode_codec::to_bytes(&doc).len() as u64;
        let p = txn.pnew(&doc).expect("pnew");
        let mut history = vec![txn.current_version(&p).expect("current")];
        let mut last = ode_codec::to_bytes(&doc).len() as u64;
        for r in 1..versions {
            let v = txn.newversion(&p).expect("newversion");
            let doc = Doc {
                rev: r as u64,
                text: body(o, r, body_bytes),
            };
            last = ode_codec::to_bytes(&doc).len() as u64;
            whole_bytes += last;
            txn.put_version(&v, &doc).expect("put_version");
            history.push(v);
        }
        latest_bytes += last;
        ptrs.push(p);
        vids.push(history);
    }
    txn.commit().expect("commit");
    Built {
        _scratch: Scratch(path),
        db,
        objects: ptrs,
        versions: vids,
        whole_bytes,
        latest_bytes,
    }
}

/// Bytes the store actually holds for version bodies: every chain's
/// records plus the latest bodies kept whole beside them.
fn stored_bytes(b: &Built) -> u64 {
    let mut snap = b.db.snapshot();
    let mut total = b.latest_bytes;
    for p in &b.objects {
        if let Some(s) = snap.chain_stats_raw(p.oid()).expect("chain stats") {
            total += s.encoded_bytes;
        }
    }
    total
}

/// ns per latest-version read: fresh snapshot + `deref` per iteration,
/// the network tier's serving pattern.
fn latest_ns(b: &Built, rounds: usize) -> f64 {
    let start = Instant::now();
    let mut reads = 0u64;
    for _ in 0..rounds {
        for p in &b.objects {
            let mut snap = b.db.snapshot();
            let doc = snap.deref(p).expect("deref");
            assert!(!doc.text.is_empty());
            reads += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / reads as f64
}

/// ns per historical (non-latest) read, visiting every historical vid
/// exactly once per call — the first call after a commit is all
/// materialization-cache misses, a repeat call is all hits.
fn historical_ns(b: &Built) -> f64 {
    let start = Instant::now();
    let mut reads = 0u64;
    for history in &b.versions {
        for v in &history[..history.len() - 1] {
            let mut snap = b.db.snapshot();
            let doc = snap.deref_v(v).expect("deref_v");
            assert!(!doc.text.is_empty());
            reads += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / reads as f64
}

fn json_f(v: f64) -> String {
    format!("{:.1}", v)
}

fn engine_block(b: &Built, whole_bytes: u64, interval: Option<u64>, rounds: usize) -> String {
    let bytes = stored_bytes(b);
    let latest = latest_ns(b, rounds);
    let (h0, m0) = b.db.materialize_cache_counters();
    let cold = historical_ns(b);
    let warm = historical_ns(b);
    let (h1, m1) = b.db.materialize_cache_counters();
    let chain_fields = match interval {
        Some(i) => format!(
            ", \"max_delta_applies\": {}, \"materialize_hits\": {}, \"materialize_misses\": {}",
            i - 1,
            h1 - h0,
            m1 - m0
        ),
        None => String::new(),
    };
    format!(
        "{{\"stored_bytes\": {bytes}, \"space_ratio\": {:.3}, \"latest_ns_per_read\": {}, \
         \"historical_cold_ns_per_read\": {}, \"historical_warm_ns_per_read\": {}{chain_fields}}}",
        bytes as f64 / whole_bytes.max(1) as f64,
        json_f(latest),
        json_f(cold),
        json_f(warm),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let objects: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(32);
    let versions: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(24);
    let body_bytes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2048);
    let rounds: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(64);

    let whole = build(
        "whole",
        DatabaseOptions::no_sync().with_chain(ChainConfig::with_interval(1)),
        objects,
        versions,
        body_bytes,
    );
    let chain4 = build(
        "chain4",
        DatabaseOptions::no_sync().with_chain(ChainConfig::with_interval(4)),
        objects,
        versions,
        body_bytes,
    );
    let chain16 = build(
        "chain16",
        DatabaseOptions::no_sync().with_chain(ChainConfig::with_interval(16)),
        objects,
        versions,
        body_bytes,
    );
    assert_eq!(whole.whole_bytes, chain4.whole_bytes);
    assert_eq!(whole.whole_bytes, chain16.whole_bytes);
    let whole_bytes = whole.whole_bytes;

    let whole_block = engine_block(&whole, whole_bytes, None, rounds);
    let c4_block = engine_block(&chain4, whole_bytes, Some(4), rounds);
    let c16_block = engine_block(&chain16, whole_bytes, Some(16), rounds);

    let whole_latest = latest_ns(&whole, rounds);
    let c16_latest = latest_ns(&chain16, rounds);
    let overhead_pct = (c16_latest - whole_latest) / whole_latest.max(1.0) * 100.0;
    let ratio16 = stored_bytes(&chain16) as f64 / whole_bytes.max(1) as f64;

    println!("{{");
    println!("  \"benchmark\": \"version_delta_storage\",");
    println!("  \"objects\": {objects},");
    println!("  \"versions_per_object\": {versions},");
    println!("  \"body_bytes\": {body_bytes},");
    println!("  \"read_rounds\": {rounds},");
    println!("  \"whole_copy\": {whole_block},");
    println!("  \"chain_interval_4\": {c4_block},");
    println!("  \"chain_interval_16\": {c16_block},");
    println!("  \"headline\": {{");
    println!("    \"space_ratio_interval_16\": {:.3},", ratio16);
    println!("    \"latest_read_overhead_pct\": {}", json_f(overhead_pct));
    println!("  }}");
    println!("}}");
}
