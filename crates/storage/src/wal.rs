//! Redo-only write-ahead log.
//!
//! Commit protocol: at transaction commit the store appends the full
//! after-image of every page the transaction dirtied, then a commit
//! record, then (optionally) fsyncs.  The database file itself is only
//! updated at checkpoints, after which the log is reset.
//!
//! Framing: every record is `[u32 len][u32 crc32(payload)][payload]`.
//! Replay stops at the first frame that fails its length or CRC check —
//! that is the torn tail left by a crash mid-append, and everything
//! before it is intact by construction.
//!
//! Recovery applies the page images of *committed* transactions, in log
//! order, to the database file.  Uncommitted trailing transactions are
//! simply never applied.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use ode_codec::{from_bytes, to_bytes, DecodeError, Persist, Reader, Writer};

use crate::page::PageId;
use crate::{crc32, Result, StorageError};

/// One logical record in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction began. Purely informational; replay keys off
    /// `Commit`.
    Begin {
        /// Transaction id (unique within one log generation).
        tx: u64,
    },
    /// Full after-image of one page written by transaction `tx`.
    Page {
        /// Owning transaction.
        tx: u64,
        /// Page the image belongs to.
        page: u64,
        /// The complete `PAGE_SIZE` image.
        image: Vec<u8>,
    },
    /// Transaction `tx` committed; its page images are now durable.
    Commit {
        /// Committing transaction.
        tx: u64,
    },
    /// Changed byte ranges of one page (delta logging: the storage-level
    /// "small changes have small impact"). The base is the page's state
    /// as of the previous record for it in this log generation, or the
    /// database file (= last checkpoint) if none.
    PageDelta {
        /// Owning transaction.
        tx: u64,
        /// Page the delta applies to.
        page: u64,
        /// `(offset, bytes)` write runs, ascending and non-overlapping.
        ops: Vec<(u32, Vec<u8>)>,
    },
}

// Hand-written rather than `impl_persist_enum!`: page bytes go out as
// length-prefixed raw runs. The generic `Vec<u8>` encoding writes one
// varint per byte, which grows a page image by half and costs a
// branch per byte on the commit path, where every byte is also
// checksummed, written and fsynced.
impl Persist for WalRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            WalRecord::Begin { tx } => {
                w.put_varint(0);
                w.put_varint(*tx);
            }
            WalRecord::Page { tx, page, image } => {
                w.put_varint(1);
                w.put_varint(*tx);
                w.put_varint(*page);
                w.put_bytes(image);
            }
            WalRecord::Commit { tx } => {
                w.put_varint(2);
                w.put_varint(*tx);
            }
            WalRecord::PageDelta { tx, page, ops } => {
                w.put_varint(3);
                w.put_varint(*tx);
                w.put_varint(*page);
                w.put_varint(ops.len() as u64);
                for (offset, bytes) in ops {
                    w.put_varint(u64::from(*offset));
                    w.put_bytes(bytes);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, DecodeError> {
        let kind = r.get_varint()?;
        let tx = r.get_varint()?;
        Ok(match kind {
            0 => WalRecord::Begin { tx },
            1 => WalRecord::Page {
                tx,
                page: r.get_varint()?,
                image: r.get_bytes()?.to_vec(),
            },
            2 => WalRecord::Commit { tx },
            3 => {
                let page = r.get_varint()?;
                let count = r.get_count()?;
                let mut ops = Vec::with_capacity(count);
                for _ in 0..count {
                    let offset = u32::try_from(r.get_varint()?)
                        .map_err(|_| DecodeError::Invalid("page offset out of range"))?;
                    ops.push((offset, r.get_bytes()?.to_vec()));
                }
                WalRecord::PageDelta { tx, page, ops }
            }
            _ => return Err(DecodeError::Invalid("unknown WAL record kind")),
        })
    }
}

/// Append-only log writer/reader over a single file.
pub struct Wal {
    file: File,
    /// Append position (end of the last intact record).
    write_pos: u64,
}

impl Wal {
    /// Open (or create) the log at `path`. Does not replay — see
    /// [`Wal::records`].
    pub fn open(path: &Path) -> Result<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let write_pos = file.metadata()?.len();
        Ok(Wal { file, write_pos })
    }

    /// Current log size in bytes.
    pub fn len(&self) -> u64 {
        self.write_pos
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.write_pos == 0
    }

    /// Append one record (not yet durable; call [`Wal::sync`]).
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        let payload = to_bytes(record);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.seek(SeekFrom::Start(self.write_pos))?;
        self.file.write_all(&frame)?;
        self.write_pos += frame.len() as u64;
        Ok(())
    }

    /// Append raw, already-framed log bytes (replication apply path: a
    /// replica receives byte-exact spans of the primary's log and lands
    /// them verbatim, so both logs agree on every frame boundary and
    /// physical position). The bytes are not validated here — the
    /// receiver parses them with a [`FrameScanner`] before trusting
    /// their contents.
    pub fn append_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.seek(SeekFrom::Start(self.write_pos))?;
        self.file.write_all(bytes)?;
        self.write_pos += bytes.len() as u64;
        Ok(())
    }

    /// Read up to `max` raw bytes of the log starting at `offset`
    /// (clamped to the current append position). Used by the shipping
    /// path to stream the log as an opaque byte sequence; frame
    /// boundaries are irrelevant here because the receiver reassembles
    /// them with a [`FrameScanner`].
    pub fn read_span(&mut self, offset: u64, max: usize) -> Result<Vec<u8>> {
        if offset >= self.write_pos {
            return Ok(Vec::new());
        }
        let len = ((self.write_pos - offset) as usize).min(max);
        let mut buf = vec![0u8; len];
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// fsync the log.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// A duplicated handle to the log file that can fsync it without
    /// holding the `Wal` itself. This is what makes group commit work:
    /// the leader fsyncs through the handle while other committers keep
    /// appending through the store's write lock. Safe because the two
    /// handles share one open file description (same durability
    /// semantics as syncing `self.file`), and the log file is never
    /// replaced — [`Wal::reset`]/[`Wal::truncate_tail`] only `set_len`.
    pub fn sync_handle(&self) -> Result<WalSyncHandle> {
        Ok(WalSyncHandle {
            file: self.file.try_clone()?,
        })
    }

    /// Read every intact record from the start of the log.
    ///
    /// Returns the records and the byte offset of the torn tail, if any
    /// (i.e. the offset where a corrupt or truncated frame was found).
    /// A torn tail is *expected* after a crash and is not an error.
    pub fn records(&mut self) -> Result<(Vec<WalRecord>, Option<u64>)> {
        let file_len = self.file.metadata()?.len();
        let mut data = Vec::with_capacity(file_len as usize);
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut data)?;

        let mut records = Vec::new();
        let mut pos: usize = 0;
        loop {
            if pos == data.len() {
                return Ok((records, None));
            }
            if pos + 8 > data.len() {
                return Ok((records, Some(pos as u64)));
            }
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
            let body_start = pos + 8;
            let body_end = match body_start.checked_add(len) {
                Some(e) if e <= data.len() => e,
                _ => return Ok((records, Some(pos as u64))),
            };
            let payload = &data[body_start..body_end];
            if crc32(payload) != crc {
                return Ok((records, Some(pos as u64)));
            }
            match from_bytes::<WalRecord>(payload) {
                Ok(rec) => records.push(rec),
                // Framing was intact but the payload didn't parse: that is
                // real corruption, not a torn tail.
                Err(_) => return Err(StorageError::WalCorrupt { offset: pos as u64 }),
            }
            pos = body_end;
        }
    }

    /// Discard the whole log (after a checkpoint made its contents
    /// redundant).
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.write_pos = 0;
        Ok(())
    }

    /// Truncate the log at `offset`, discarding a torn tail found by
    /// [`Wal::records`] so later appends start from a clean frame
    /// boundary.
    pub fn truncate_tail(&mut self, offset: u64) -> Result<()> {
        self.file.set_len(offset)?;
        self.file.sync_data()?;
        self.write_pos = offset;
        Ok(())
    }
}

/// A standalone fsync handle for the log (see [`Wal::sync_handle`]).
pub struct WalSyncHandle {
    file: File,
}

impl WalSyncHandle {
    /// fsync the log through this handle.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// Incremental frame parser over a log byte stream.
///
/// A replica feeds raw shipped spans in with [`FrameScanner::push`] and
/// drains complete records with [`FrameScanner::next_record`]; a span
/// ending mid-frame simply leaves a partial tail buffered until the
/// next push. Unlike [`Wal::records`], a CRC mismatch on a *complete*
/// frame is a hard error here: the stream is a byte-exact copy of
/// frames the primary already fsynced intact, so a bad frame means the
/// transport (not a crash) corrupted it.
#[derive(Debug, Default)]
pub struct FrameScanner {
    buf: Vec<u8>,
    /// Bytes consumed as complete frames since construction.
    consumed: u64,
}

impl FrameScanner {
    /// A scanner with nothing buffered.
    pub fn new() -> FrameScanner {
        FrameScanner::default()
    }

    /// Buffer more stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Total bytes consumed as complete frames (the scanner's position
    /// in the stream, counting from where it started).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Bytes buffered but not yet part of a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Parse the next complete record off the front of the buffer, or
    /// `None` if only a partial frame is buffered.
    pub fn next_record(&mut self) -> Result<Option<WalRecord>> {
        if self.buf.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes"));
        let frame_len = match len.checked_add(8) {
            Some(l) => l,
            None => {
                return Err(StorageError::WalCorrupt {
                    offset: self.consumed,
                })
            }
        };
        if self.buf.len() < frame_len {
            return Ok(None);
        }
        let payload = &self.buf[8..frame_len];
        if crc32(payload) != crc {
            return Err(StorageError::WalCorrupt {
                offset: self.consumed,
            });
        }
        let record = from_bytes::<WalRecord>(payload).map_err(|_| StorageError::WalCorrupt {
            offset: self.consumed,
        })?;
        self.buf.drain(..frame_len);
        self.consumed += frame_len as u64;
        Ok(Some(record))
    }
}

/// One page mutation from a committed transaction, in log order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommittedChange<'a> {
    /// Replace the whole page.
    Image(PageId, &'a Vec<u8>),
    /// Apply byte-range writes onto the page's prior state.
    Delta(PageId, &'a Vec<(u32, Vec<u8>)>),
}

/// Filter a log to the page changes of *committed* transactions, in the
/// order they must be applied.
pub fn committed_changes(records: &[WalRecord]) -> Vec<CommittedChange<'_>> {
    use std::collections::HashSet;
    let committed: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Commit { tx } => Some(*tx),
            _ => None,
        })
        .collect();
    records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Page { tx, page, image } if committed.contains(tx) => {
                Some(CommittedChange::Image(PageId(*page), image))
            }
            WalRecord::PageDelta { tx, page, ops } if committed.contains(tx) => {
                Some(CommittedChange::Delta(PageId(*page), ops))
            }
            _ => None,
        })
        .collect()
}

/// Compute the changed byte runs between two page images, merging runs
/// separated by fewer than `gap` identical bytes (run-header amortization).
pub fn page_diff_ops(before: &[u8], after: &[u8], gap: usize) -> Vec<(u32, Vec<u8>)> {
    debug_assert_eq!(before.len(), after.len());
    let mut ops: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut i = 0usize;
    let n = after.len();
    while i < n {
        if before[i] == after[i] {
            i += 1;
            continue;
        }
        // Start of a changed run; extend until `gap` unchanged bytes.
        let start = i;
        let mut end = i + 1;
        let mut same = 0usize;
        let mut j = end;
        while j < n && same < gap {
            if before[j] == after[j] {
                same += 1;
            } else {
                end = j + 1;
                same = 0;
            }
            j += 1;
        }
        ops.push((start as u32, after[start..end].to_vec()));
        i = end;
    }
    ops
}

/// Total payload bytes of a delta op list.
pub fn delta_payload_len(ops: &[(u32, Vec<u8>)]) -> usize {
    ops.iter().map(|(_, b)| b.len() + 8).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ode-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { tx: 1 },
            WalRecord::Page {
                tx: 1,
                page: 3,
                image: vec![1, 2, 3],
            },
            WalRecord::Commit { tx: 1 },
            WalRecord::Begin { tx: 2 },
            WalRecord::Page {
                tx: 2,
                page: 4,
                image: vec![9, 9],
            },
        ]
    }

    #[test]
    fn record_bytes_are_the_log_format() {
        // Literal bytes of one record of each kind: varint kind, varint
        // ids, page bytes as length-prefixed raw runs. The log format
        // must not move when the codec behind it does.
        let cases: [(WalRecord, &[u8]); 4] = [
            (WalRecord::Begin { tx: 7 }, &[0, 7]),
            (
                WalRecord::Page {
                    tx: 300,
                    page: 5,
                    image: vec![0xAA, 0xFF, 0x00],
                },
                &[1, 0xAC, 0x02, 5, 3, 0xAA, 0xFF, 0x00],
            ),
            (WalRecord::Commit { tx: 1 }, &[2, 1]),
            (
                WalRecord::PageDelta {
                    tx: 9,
                    page: 2,
                    ops: vec![(513, vec![0x80, 0xFF]), (0, vec![])],
                },
                &[3, 9, 2, 2, 0x81, 0x04, 2, 0x80, 0xFF, 0, 0],
            ),
        ];
        for (record, bytes) in cases {
            assert_eq!(to_bytes(&record), bytes);
            assert_eq!(from_bytes::<WalRecord>(bytes).unwrap(), record);
        }
    }

    #[test]
    fn append_and_replay() {
        let path = temp_path("replay");
        let mut wal = Wal::open(&path).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let (records, tear) = wal.records().unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(tear, None);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn committed_filter_drops_uncommitted() {
        let records = sample_records();
        let changes = committed_changes(&records);
        // tx 2 never committed: only tx 1's page survives.
        assert_eq!(changes.len(), 1);
        assert!(matches!(changes[0], CommittedChange::Image(PageId(3), _)));
    }

    #[test]
    fn delta_records_round_trip_and_filter() {
        let path = temp_path("delta");
        let mut wal = Wal::open(&path).unwrap();
        let rec = WalRecord::PageDelta {
            tx: 1,
            page: 7,
            ops: vec![(4, vec![1, 2]), (100, vec![9])],
        };
        wal.append(&rec).unwrap();
        wal.append(&WalRecord::Commit { tx: 1 }).unwrap();
        let (records, tear) = wal.records().unwrap();
        assert_eq!(tear, None);
        assert_eq!(records[0], rec);
        let changes = committed_changes(&records);
        assert!(matches!(changes[0], CommittedChange::Delta(PageId(7), _)));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn page_diff_ops_finds_runs() {
        let before = vec![0u8; 64];
        let mut after = before.clone();
        after[3] = 1;
        after[4] = 2;
        after[30] = 3;
        // Small gap: two separate runs.
        let ops = page_diff_ops(&before, &after, 4);
        assert_eq!(ops, vec![(3, vec![1, 2]), (30, vec![3])]);
        // Huge gap: merged into one run spanning the unchanged middle.
        let ops = page_diff_ops(&before, &after, 64);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, 3);
        assert_eq!(ops[0].1.len(), 28);
        // Identical images: no ops.
        assert!(page_diff_ops(&before, &before, 4).is_empty());
        // Reconstruction: applying ops to `before` yields `after`.
        let mut rebuilt = before.clone();
        for (off, bytes) in page_diff_ops(&before, &after, 4) {
            rebuilt[off as usize..off as usize + bytes.len()].copy_from_slice(&bytes);
        }
        assert_eq!(rebuilt, after);
    }

    #[test]
    fn torn_tail_detected_and_truncatable() {
        let path = temp_path("torn");
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
        }
        // Chop off the last 3 bytes, simulating a crash mid-append.
        let full_len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full_len - 3).unwrap();
        drop(f);

        let mut wal = Wal::open(&path).unwrap();
        let (records, tear) = wal.records().unwrap();
        assert_eq!(records.len(), sample_records().len() - 1);
        let tear = tear.expect("torn tail reported");
        wal.truncate_tail(tear).unwrap();
        // After truncation the log replays cleanly and appends work.
        let (records2, tear2) = wal.records().unwrap();
        assert_eq!(records2, records);
        assert_eq!(tear2, None);
        wal.append(&WalRecord::Commit { tx: 2 }).unwrap();
        let (records3, _) = wal.records().unwrap();
        assert_eq!(records3.len(), records.len() + 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn bitflip_in_payload_is_torn_tail() {
        let path = temp_path("bitflip");
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
        }
        // Flip a byte in the last record's payload.
        let len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new()
            .write(true)
            .read(true)
            .open(&path)
            .unwrap();
        f.seek(SeekFrom::Start(len - 1)).unwrap();
        let mut b = [0u8];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(len - 1)).unwrap();
        f.write_all(&[b[0] ^ 0xFF]).unwrap();
        drop(f);

        let mut wal = Wal::open(&path).unwrap();
        let (records, tear) = wal.records().unwrap();
        assert_eq!(records.len(), sample_records().len() - 1);
        assert!(tear.is_some());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reset_empties_log() {
        let path = temp_path("reset");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Begin { tx: 1 }).unwrap();
        assert!(!wal.is_empty());
        wal.reset().unwrap();
        assert!(wal.is_empty());
        let (records, tear) = wal.records().unwrap();
        assert!(records.is_empty());
        assert_eq!(tear, None);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn torn_final_record_at_every_cut_point() {
        // A crash can land anywhere inside the final frame: inside the
        // 8-byte header, inside the payload, or right at the frame
        // boundary. Every cut short of a full frame must replay the
        // prefix and report the tear at the final frame's start.
        let intact = temp_path("cuts-intact");
        let intact_len = {
            let mut wal = Wal::open(&intact).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            wal.len()
        };
        let probe_path = temp_path("cuts-probe");
        let before_last = {
            let mut wal = Wal::open(&intact).unwrap();
            let mut probe = Wal::open(&probe_path).unwrap();
            let all = sample_records();
            for r in &all[..all.len() - 1] {
                probe.append(r).unwrap();
            }
            let len = probe.len();
            let (records, tear) = wal.records().unwrap();
            assert_eq!(records, all);
            assert_eq!(tear, None);
            len
        };
        // Cutting exactly at the boundary is a clean (shorter) log, not
        // a tear — start one byte past it.
        for cut in before_last + 1..intact_len {
            let path = temp_path("cuts");
            std::fs::copy(&intact, &path).unwrap();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let mut wal = Wal::open(&path).unwrap();
            let (records, tear) = wal.records().unwrap();
            assert_eq!(records, sample_records()[..sample_records().len() - 1]);
            assert_eq!(tear, Some(before_last), "cut at byte {cut}");
            std::fs::remove_file(path).unwrap();
        }
        std::fs::remove_file(intact).unwrap();
        std::fs::remove_file(probe_path).unwrap();
    }

    #[test]
    fn truncate_then_append_round_trips() {
        // Repeatedly tear the tail, truncate at the reported offset,
        // and append fresh records: every cycle must leave a log that
        // replays cleanly with the pre-tear prefix + the new records.
        let path = temp_path("truncate-cycles");
        let mut expected: Vec<WalRecord> = Vec::new();
        for cycle in 0..4u64 {
            {
                let mut wal = Wal::open(&path).unwrap();
                let keep = WalRecord::Commit { tx: cycle };
                wal.append(&keep).unwrap();
                expected.push(keep);
                wal.append(&WalRecord::Page {
                    tx: cycle,
                    page: cycle,
                    image: vec![cycle as u8; 32],
                })
                .unwrap();
            }
            // Tear 5 bytes off the record we do not intend to keep.
            let len = std::fs::metadata(&path).unwrap().len();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len - 5).unwrap();
            drop(f);
            let mut wal = Wal::open(&path).unwrap();
            let (records, tear) = wal.records().unwrap();
            assert_eq!(records, expected, "cycle {cycle}");
            let tear = tear.expect("torn tail reported");
            wal.truncate_tail(tear).unwrap();
            assert_eq!(wal.len(), tear);
            let (records2, tear2) = wal.records().unwrap();
            assert_eq!(records2, expected);
            assert_eq!(tear2, None);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn truncate_tail_at_intact_boundary_drops_suffix() {
        // Fencing uses truncate_tail at an *intact* frame boundary to
        // drop a fully written but unwanted suffix (an ex-primary's
        // unshipped records), not just crash debris.
        let path = temp_path("fence");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Begin { tx: 1 }).unwrap();
        wal.append(&WalRecord::Commit { tx: 1 }).unwrap();
        let keep = wal.len();
        wal.append(&WalRecord::Begin { tx: 2 }).unwrap();
        wal.append(&WalRecord::Commit { tx: 2 }).unwrap();
        wal.truncate_tail(keep).unwrap();
        let (records, tear) = wal.records().unwrap();
        assert_eq!(
            records,
            vec![WalRecord::Begin { tx: 1 }, WalRecord::Commit { tx: 1 }]
        );
        assert_eq!(tear, None);
        // Appends continue from the fenced position.
        wal.append(&WalRecord::Begin { tx: 3 }).unwrap();
        let (records, _) = wal.records().unwrap();
        assert_eq!(records.len(), 3);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn read_span_and_append_raw_round_trip() {
        let src = temp_path("span-src");
        let dst = temp_path("span-dst");
        let mut wal = Wal::open(&src).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        // Ship the whole log in small spans into a second log.
        let mut replica = Wal::open(&dst).unwrap();
        let mut pos = 0u64;
        loop {
            let span = wal.read_span(pos, 7).unwrap();
            if span.is_empty() {
                break;
            }
            pos += span.len() as u64;
            replica.append_raw(&span).unwrap();
        }
        assert_eq!(replica.len(), wal.len());
        let (records, tear) = replica.records().unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(tear, None);
        // Past-the-end reads are empty, not errors.
        assert!(wal.read_span(wal.len(), 64).unwrap().is_empty());
        assert!(wal.read_span(wal.len() + 100, 64).unwrap().is_empty());
        std::fs::remove_file(src).unwrap();
        std::fs::remove_file(dst).unwrap();
    }

    #[test]
    fn frame_scanner_reassembles_across_pushes() {
        let path = temp_path("scanner");
        let mut wal = Wal::open(&path).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let bytes = wal.read_span(0, wal.len() as usize).unwrap();
        // Feed one byte at a time: records must pop out exactly at
        // frame boundaries, with consumed() tracking them.
        let mut scanner = FrameScanner::new();
        let mut got = Vec::new();
        for b in &bytes {
            scanner.push(std::slice::from_ref(b));
            while let Some(rec) = scanner.next_record().unwrap() {
                got.push(rec);
            }
        }
        assert_eq!(got, sample_records());
        assert_eq!(scanner.consumed(), bytes.len() as u64);
        assert_eq!(scanner.pending(), 0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn frame_scanner_rejects_corrupt_complete_frame() {
        let path = temp_path("scanner-corrupt");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Begin { tx: 1 }).unwrap();
        let mut bytes = wal.read_span(0, wal.len() as usize).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut scanner = FrameScanner::new();
        scanner.push(&bytes);
        assert!(matches!(
            scanner.next_record(),
            Err(StorageError::WalCorrupt { offset: 0 })
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let path = temp_path("reopen");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Begin { tx: 1 }).unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Commit { tx: 1 }).unwrap();
            let (records, _) = wal.records().unwrap();
            assert_eq!(records.len(), 2);
        }
        std::fs::remove_file(path).unwrap();
    }
}
