//! The four workloads. Each builds its inputs from the seed, drives
//! the system through public functions only, and verifies every output.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::run::RunLog;

pub mod checkin;
pub mod history;
pub mod route_collab;
pub mod serve_hot;

/// Operations hashed into `input_digest`: a fixed prefix of the
/// generated stream, so the digest does not depend on how many units
/// the run had time for.
pub const DIGEST_OPS: usize = 4096;

/// What one invocation asks of a workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Data sets cut to an eighth, one set-up, short probes.
    pub smoke: bool,
    /// Scratch directory for stores; the caller removes it.
    pub dir: PathBuf,
}

impl Ctx {
    /// A data-set size, cut down under `--smoke`.
    pub fn scale(&self, full: usize) -> usize {
        if self.smoke {
            (full / 8).max(4)
        } else {
            full
        }
    }

    /// Items in each layer probe's sample.
    pub fn probe_items(&self) -> usize {
        if self.smoke {
            100
        } else {
            2000
        }
    }
}

/// What a workload hands back for reporting.
pub struct Outcome {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    pub log: RunLog,
    /// Body bytes checked in (set-up included).
    pub user_bytes: u64,
    /// Database file + WAL bytes after a final checkpoint.
    pub stored_bytes: u64,
    /// Checks made after the measured phase, and how many failed.
    pub verify_attempted: u64,
    pub verify_failed: u64,
    pub verify_errors: Vec<String>,
    /// Per-layer metrics from counters read around the measured phase.
    pub layer: BTreeMap<&'static str, f64>,
    /// Hash of the first [`DIGEST_OPS`] generated operations.
    pub input_digest: u64,
    /// Counts that repeat exactly for a seed.
    pub exact: Vec<(&'static str, f64)>,
    /// (base, target) body pairs the layer probes replay.
    pub probe_pairs: Vec<(Vec<u8>, Vec<u8>)>,
    /// Keys the storage probe's B+-tree and heap are loaded with: the
    /// number of versions the workload's store holds.
    pub probe_keys: usize,
    /// Whether the workload's store fsyncs commits.
    pub probe_sync: bool,
    /// The workload's anchor interval; `None` for whole-body storage.
    pub probe_chain: Option<u64>,
}

/// The workload `BENCHMARK.json` knows by `name`.
pub fn runner(name: &str) -> Option<fn(&Ctx) -> Outcome> {
    Some(match name {
        "checkin" => checkin::run,
        "history" => history::run,
        "serve_hot" => serve_hot::run,
        "route_collab" => route_collab::run,
        _ => return None,
    })
}

/// Set-ups per full run. The driver's contract asks for several, with
/// `setup_s` their median, so that one disturbed set-up does not read
/// as a regression.
const SETUP_REPS: usize = 3;

/// Run `setup` [`SETUP_REPS`] times (once under `--smoke`), dropping
/// each result before the next is built, and return the last with every
/// repetition's wall time.
pub fn repeat_setup<S>(ctx: &Ctx, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..if ctx.smoke { 1 } else { SETUP_REPS } {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("set-up ran"), times)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of one file; 0 when it does not exist.
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Size of a database file plus its WAL.
pub fn db_and_wal_bytes(db_path: &Path) -> u64 {
    let mut wal = db_path.as_os_str().to_owned();
    wal.push(".wal");
    file_bytes(db_path) + file_bytes(Path::new(&wal))
}

/// Record a failed check, keeping the first few messages.
pub fn note(errors: &mut Vec<String>, failed: &mut u64, msg: impl FnOnce() -> String) {
    *failed += 1;
    if errors.len() < 3 {
        errors.push(msg());
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
