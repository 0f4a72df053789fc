//! Per-layer metrics derived from the public counters the storage
//! engine and the servers expose, read before and after the measured
//! phase.

use std::collections::BTreeMap;

use ode::Database;
use ode_net::StatsReport;

use crate::workloads::ratio;

/// The storage counters the per-layer metrics use, read from a
/// `Database` the harness holds (embedded, or behind its own servers).
#[derive(Debug, Default, Clone, Copy)]
pub struct StorageSample {
    pub write_txs: u64,
    pub reader_wait_nanos: u64,
    pub writer_wait_nanos: u64,
    pub wal_syncs: u64,
    pub group_batch_max: u64,
    pub write_conflicts: u64,
    pub write_retries: u64,
    pub buffer_hits: u64,
    pub buffer_misses: u64,
    pub buffer_evictions: u64,
    pub materialize_hits: u64,
    pub materialize_misses: u64,
}

impl StorageSample {
    pub fn of_db(db: &Database) -> StorageSample {
        let s = db.storage_stats();
        let b = db.buffer_stats();
        let (materialize_hits, materialize_misses) = db.materialize_cache_counters();
        StorageSample {
            write_txs: s.write_txs,
            reader_wait_nanos: s.reader_wait_nanos,
            writer_wait_nanos: s.writer_wait_nanos,
            wal_syncs: s.wal_syncs,
            group_batch_max: s.group_batch_max,
            write_conflicts: s.write_conflicts,
            write_retries: s.write_retries,
            buffer_hits: b.hits,
            buffer_misses: b.misses,
            buffer_evictions: b.evictions,
            materialize_hits,
            materialize_misses,
        }
    }

    /// Add another store's counters (a tier of several shards).
    pub fn add(&mut self, other: &StorageSample) {
        self.write_txs += other.write_txs;
        self.reader_wait_nanos += other.reader_wait_nanos;
        self.writer_wait_nanos += other.writer_wait_nanos;
        self.wal_syncs += other.wal_syncs;
        self.group_batch_max = self.group_batch_max.max(other.group_batch_max);
        self.write_conflicts += other.write_conflicts;
        self.write_retries += other.write_retries;
        self.buffer_hits += other.buffer_hits;
        self.buffer_misses += other.buffer_misses;
        self.buffer_evictions += other.buffer_evictions;
        self.materialize_hits += other.materialize_hits;
        self.materialize_misses += other.materialize_misses;
    }
}

/// `storage.*` and `version.materialize_hit_ratio` over the measured
/// phase of `units` units.
pub fn storage_metrics(
    layer: &mut BTreeMap<&'static str, f64>,
    before: &StorageSample,
    after: &StorageSample,
    units: u64,
) {
    let d = |f: fn(&StorageSample) -> u64| (f(after) - f(before)) as f64;
    let units = units as f64;
    let hits = d(|s| s.buffer_hits);
    let misses = d(|s| s.buffer_misses);
    layer.insert(
        "storage.wal_syncs_per_commit",
        ratio(d(|s| s.wal_syncs), d(|s| s.write_txs)),
    );
    layer.insert("storage.group_batch_max", after.group_batch_max as f64);
    layer.insert("storage.buffer_hit_ratio", ratio(hits, hits + misses));
    layer.insert("storage.buffer_evictions", d(|s| s.buffer_evictions));
    layer.insert("storage.pages_per_op", ratio(hits + misses, units));
    layer.insert(
        "storage.reader_wait_ns_per_op",
        ratio(d(|s| s.reader_wait_nanos), units),
    );
    layer.insert(
        "storage.writer_wait_ns_per_op",
        ratio(d(|s| s.writer_wait_nanos), units),
    );
    layer.insert("storage.write_conflicts", d(|s| s.write_conflicts));
    layer.insert("storage.write_retries", d(|s| s.write_retries));
    let m_hits = d(|s| s.materialize_hits);
    layer.insert(
        "version.materialize_hit_ratio",
        ratio(m_hits, m_hits + d(|s| s.materialize_misses)),
    );
}

/// `version.chain_compression_ratio`: the chain records' encoded bytes
/// over the bytes whole copies of the same versions would take, summed
/// over `oids`. 0 when none of them is chained.
pub fn chain_compression_ratio(db: &Database, oids: impl Iterator<Item = ode::Oid>) -> f64 {
    let mut snap = db.snapshot();
    let (mut encoded, mut materialized) = (0u64, 0u64);
    for oid in oids {
        if let Ok(Some(stats)) = snap.chain_stats_raw(oid) {
            encoded += stats.encoded_bytes;
            materialized += stats.materialized_bytes;
        }
    }
    ratio(encoded as f64, materialized as f64)
}

/// `net.*` counters of one or more servers over the measured phase.
pub fn net_metrics(
    layer: &mut BTreeMap<&'static str, f64>,
    before: &[StatsReport],
    after: &[StatsReport],
) {
    let d = |f: fn(&StatsReport) -> u64| {
        let sum = |rs: &[StatsReport]| rs.iter().map(f).sum::<u64>();
        (sum(after) - sum(before)) as f64
    };
    let requests = d(|r| r.total_requests());
    let hits = d(|r| r.snapshot_hits);
    layer.insert("net.bytes_in_per_req", ratio(d(|r| r.bytes_in), requests));
    layer.insert("net.bytes_out_per_req", ratio(d(|r| r.bytes_out), requests));
    layer.insert(
        "net.snapshot_hit_ratio",
        ratio(hits, hits + d(|r| r.snapshot_misses)),
    );
    layer.insert("net.op_errors", d(|r| r.op_errors));
    layer.insert("net.protocol_errors", d(|r| r.protocol_errors));
    layer.insert("net.slow_client_evictions", d(|r| r.slow_client_evictions));
}

/// WAL growth summed commit by commit. The log is reset to empty by a
/// checkpoint, so a length below the previous one is a reset: the
/// commit's own bytes were flushed with it, and only what the log
/// holds afterwards can be counted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalMeter {
    last: u64,
    pub grown: u64,
    pub resets: u64,
}

impl WalMeter {
    /// Set the length growth is next measured from, counting nothing.
    pub fn resync(&mut self, len: u64) {
        self.last = len;
    }

    /// Count growth up to `len`; `true` when the log was reset since
    /// the previous observation.
    pub fn observe(&mut self, len: u64) -> bool {
        let reset = len < self.last;
        if reset {
            self.resets += 1;
            self.grown += len;
        } else {
            self.grown += len - self.last;
        }
        self.last = len;
        reset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_growth_is_summed_across_a_checkpoint_reset() {
        let mut m = WalMeter::default();
        m.resync(100);
        assert!(!m.observe(160));
        assert!(!m.observe(250));
        // A checkpoint emptied the log; 40 bytes were appended since.
        assert!(m.observe(40));
        assert!(!m.observe(90));
        assert_eq!((m.grown, m.resets), (60 + 90 + 40 + 50, 1));
        // An untraced stretch in between is skipped, not counted.
        m.resync(500);
        assert!(!m.observe(520));
        assert_eq!(m.grown, 260);
    }
}
