//! Redo-only write-ahead log.
//!
//! Commit protocol: at transaction commit the store frames a `Begin`,
//! the changed byte ranges (or, for a heavily rewritten page, the full
//! after-image) of every page the transaction dirtied and a `Commit`
//! into one buffer, appends that buffer with one write, then
//! (optionally) fsyncs. The database file itself is only updated at
//! checkpoints, after which the log is reset.
//!
//! Framing: every record is `[u32 len][u32 crc32(payload)][payload]`
//! ([`push_frame`]). [`Wal::append`] is the log's only writer: a
//! commit's frames and a replica's shipped spans go through it alike.
//!
//! The read side is one path in three steps, shared by crash recovery,
//! replica apply and `odedump wal`: [`parse_frame`] checks one frame,
//! [`Replay`] assembles frames into committed transactions, and
//! [`CommittedTx::apply`] lays logged changes onto base images. A
//! frame that is short or fails its CRC is reported, never judged, here:
//! over a local log it is the torn tail a crash mid-append leaves (and
//! everything before it is intact by construction), over a shipped
//! stream it is transport corruption. Transactions without a `Commit`
//! are simply never yielded.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use ode_codec::{from_bytes, impl_persist_enum, to_bytes};

use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::{crc32, Result, StorageError};

/// One logical record in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction began. Replay forgets anything logged under the
    /// same id before it: ids restart with every log generation, so an
    /// earlier holder of the id that never committed must not lend its
    /// pages to this one.
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

impl WalRecord {
    /// The transaction the record belongs to.
    pub fn tx(&self) -> u64 {
        match self {
            WalRecord::Begin { tx }
            | WalRecord::Page { tx, .. }
            | WalRecord::Commit { tx }
            | WalRecord::PageDelta { tx, .. } => *tx,
        }
    }
}

// Varint kind and ids; page bytes are byte strings (length-prefixed
// raw runs), so this is the log format byte for byte.
impl_persist_enum!(WalRecord {
    Begin { tx },
    Page { tx, page, image },
    Commit { tx },
    PageDelta { tx, page, ops },
});

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

    /// Append already-framed log bytes with one write (not yet durable;
    /// call [`Wal::sync`]): a commit's frames built by [`push_frame`],
    /// or a byte-exact span of a primary's log landing on a replica, so
    /// both logs agree on every frame boundary and physical position.
    /// The bytes are not validated here — a reader parses them with a
    /// [`Replay`] before trusting their contents.
    ///
    /// On error the append position does not move, and the file is cut
    /// back to it (best effort), so a failed write leaves no partial
    /// frames for the next append to land behind.
    pub fn append(&mut self, frames: &[u8]) -> Result<()> {
        let written = self
            .file
            .seek(SeekFrom::Start(self.write_pos))
            .and_then(|_| self.file.write_all(frames));
        if let Err(e) = written {
            let _ = self.file.set_len(self.write_pos);
            return Err(e.into());
        }
        self.write_pos += frames.len() as u64;
        Ok(())
    }

    /// Read up to `max` raw bytes of the log starting at `offset`
    /// (clamped to the current append position). Used by the shipping
    /// path to stream the log as an opaque byte sequence; frame
    /// boundaries are irrelevant here because the receiver reassembles
    /// them with a [`Replay`].
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
        let data = self.read_span(0, self.write_pos as usize)?;
        let (found, tear) = frames(&data);
        // Framing intact but the payload does not parse: that is real
        // corruption, not a torn tail.
        let records = found
            .into_iter()
            .map(|(offset, _, record)| record.ok_or(StorageError::WalCorrupt { offset }))
            .collect::<Result<_>>()?;
        Ok((records, tear))
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

/// What reading one item — a frame, or a committed transaction — off
/// a run of log bytes found.
#[derive(Debug, PartialEq, Eq)]
pub enum Scan<T> {
    /// The whole item.
    Found(T),
    /// The bytes end before the item does.
    Incomplete,
    /// A whole frame's payload fails its CRC.
    BadCrc,
}

/// Frame `record` onto the end of `out`: `[u32 len][u32 crc32(payload)]
/// [payload]`, the payload being the record's codec bytes. The log's
/// only frame encoder, the inverse of [`parse_frame`].
pub fn push_frame(out: &mut Vec<u8>, record: &WalRecord) {
    let payload = to_bytes(record);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Check the frame at the start of `buf`: its payload length (the
/// frame is 8 header bytes longer) and decoded payload, `None` when
/// that is not a [`WalRecord`]. This is the log's only frame parser;
/// what a short or bad frame *means* is the caller's call (see the
/// module docs).
pub fn parse_frame(buf: &[u8]) -> Scan<(u32, Option<WalRecord>)> {
    let Some((header, rest)) = buf.split_first_chunk::<8>() else {
        return Scan::Incomplete;
    };
    let payload_len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let Some(payload) = rest.get(..payload_len as usize) else {
        return Scan::Incomplete;
    };
    if crc32(payload) != crc {
        return Scan::BadCrc;
    }
    Scan::Found((payload_len, from_bytes(payload).ok()))
}

/// One intact frame of a log image: `(offset, payload length, record)`.
pub type FrameAt = (u64, u32, Option<WalRecord>);

/// Walk a whole log image: every intact frame, then the offset of the
/// first short or bad frame — `None` when the image ends on a frame
/// boundary.
pub fn frames(data: &[u8]) -> (Vec<FrameAt>, Option<u64>) {
    let mut found = Vec::new();
    let mut pos = 0usize;
    loop {
        match parse_frame(&data[pos..]) {
            Scan::Found((payload_len, record)) => {
                found.push((pos as u64, payload_len, record));
                pos += 8 + payload_len as usize;
            }
            Scan::Incomplete if pos == data.len() => return (found, None),
            Scan::Incomplete | Scan::BadCrc => return (found, Some(pos as u64)),
        }
    }
}

/// One committed transaction: its `Page`/`PageDelta` records in log
/// order, each with the stream offset of its frame.
#[derive(Debug, PartialEq, Eq)]
pub struct CommittedTx(Vec<(u64, WalRecord)>);

impl CommittedTx {
    /// Lay the transaction's changes onto `pages`, the after-images
    /// built so far. A delta to a page not yet among them starts from
    /// `base(page)` — the caller's current image of it, or zeroes for a
    /// page that does not exist yet (fresh allocations diff against
    /// zero when logged). A change that does not fit a page is reported
    /// at its frame's offset.
    pub fn apply(
        self,
        pages: &mut BTreeMap<PageId, PageBuf>,
        base: impl Fn(PageId) -> PageBuf,
    ) -> Result<()> {
        for (offset, record) in self.0 {
            let corrupt = StorageError::WalCorrupt { offset };
            match record {
                WalRecord::Page { page, image, .. } => {
                    pages.insert(PageId(page), PageBuf::from_vec(image).ok_or(corrupt)?);
                }
                WalRecord::PageDelta { page, ops, .. } => {
                    let page = pages
                        .entry(PageId(page))
                        .or_insert_with(|| base(PageId(page)));
                    for (at, bytes) in ops {
                        let start = at as usize;
                        let end = start + bytes.len();
                        if end > PAGE_SIZE {
                            return Err(corrupt);
                        }
                        page.as_bytes_mut()[start..end].copy_from_slice(&bytes);
                    }
                }
                WalRecord::Begin { .. } | WalRecord::Commit { .. } => {
                    unreachable!("replay keeps page records only")
                }
            }
        }
        Ok(())
    }
}

/// The log's transaction assembler: push log bytes in pieces of any
/// size, pull out committed transactions.
///
/// `Begin` opens *and resets* a transaction's record list, `Page` and
/// `PageDelta` append to it, `Commit` yields it. Frames of transactions
/// that never commit are parsed and dropped.
#[derive(Debug, Default)]
pub struct Replay {
    buf: Vec<u8>,
    /// Start of the first unparsed frame within `buf`.
    head: usize,
    /// Stream offset of that frame.
    offset: u64,
    open: HashMap<u64, Vec<(u64, WalRecord)>>,
    committed_end: u64,
    max_tx: u64,
}

impl Replay {
    /// A replay whose first pushed byte sits at stream offset `start`.
    pub fn new(start: u64) -> Replay {
        Replay {
            offset: start,
            committed_end: start,
            ..Replay::default()
        }
    }

    /// Buffer more stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.head);
        self.head = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Stream offset of the first frame not yet parsed — after
    /// [`Scan::BadCrc`], of the bad frame.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Stream offset just past the last yielded commit. Everything from
    /// here on belongs to no committed transaction — the point a log is
    /// fenced at before it takes new appends.
    pub fn committed_end(&self) -> u64 {
        self.committed_end
    }

    /// Highest transaction id seen in any parsed record.
    pub fn max_tx(&self) -> u64 {
        self.max_tx
    }

    /// Parse on to the next `Commit` and yield that transaction. A bad
    /// frame stays at the front, so asking again answers the same; an
    /// intact frame whose payload is not a record is an error wherever
    /// the bytes came from.
    pub fn next_commit(&mut self) -> Result<Scan<CommittedTx>> {
        loop {
            let offset = self.offset;
            let (payload_len, record) = match parse_frame(&self.buf[self.head..]) {
                Scan::Found(frame) => frame,
                Scan::Incomplete => return Ok(Scan::Incomplete),
                Scan::BadCrc => return Ok(Scan::BadCrc),
            };
            let record = record.ok_or(StorageError::WalCorrupt { offset })?;
            self.head += 8 + payload_len as usize;
            self.offset += 8 + u64::from(payload_len);
            let tx = record.tx();
            self.max_tx = self.max_tx.max(tx);
            match record {
                WalRecord::Begin { .. } => {
                    self.open.insert(tx, Vec::new());
                }
                WalRecord::Commit { .. } => {
                    self.committed_end = self.offset;
                    let records = self.open.remove(&tx).unwrap_or_default();
                    return Ok(Scan::Found(CommittedTx(records)));
                }
                page_record => self.open.entry(tx).or_default().push((offset, page_record)),
            }
        }
    }
}

/// Compute the changed byte runs between two page images, merging runs
/// separated by fewer than `gap` identical bytes (run-header amortization).
pub fn page_diff_ops(before: &[u8], after: &[u8], gap: usize) -> Vec<(u32, Vec<u8>)> {
    debug_assert_eq!(before.len(), after.len());
    let word =
        |page: &[u8], at: usize| u64::from_ne_bytes(page[at..at + 8].try_into().expect("8 bytes"));
    let mut ops: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut i = 0usize;
    let n = after.len();
    while i < n {
        // Unchanged bytes start no run: pass them a word at a time.
        if i + 8 <= n && word(before, i) == word(after, i) {
            i += 8;
            continue;
        }
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
    use crate::testutil::TempPath;

    /// Frame `record` and append it alone: the per-record append the
    /// log made before a commit became one write.
    fn append(wal: &mut Wal, record: &WalRecord) {
        let mut frame = Vec::new();
        push_frame(&mut frame, record);
        wal.append(&frame).unwrap();
    }

    /// A log holding `records`, and its bytes.
    fn log_of(records: &[WalRecord]) -> (TempPath, Wal, Vec<u8>) {
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        for r in records {
            append(&mut wal, r);
        }
        let bytes = wal.read_span(0, wal.len() as usize).unwrap();
        (path, wal, bytes)
    }

    /// The page records of every commit `replay` can yield now, in order.
    fn drain(replay: &mut Replay) -> Vec<WalRecord> {
        let mut changes = Vec::new();
        while let Scan::Found(tx) = replay.next_commit().unwrap() {
            changes.extend(tx.0.into_iter().map(|(_, record)| record));
        }
        changes
    }

    fn replayed_changes(records: &[WalRecord]) -> Vec<WalRecord> {
        let mut replay = Replay::new(0);
        replay.push(&log_of(records).2);
        drain(&mut replay)
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
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        for r in sample_records() {
            append(&mut wal, &r);
        }
        let (records, tear) = wal.records().unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(tear, None);
    }

    #[test]
    fn committed_filter_drops_uncommitted() {
        let changes = replayed_changes(&sample_records());
        // tx 2 never committed: only tx 1's page survives.
        assert_eq!(changes, sample_records()[1..2]);
    }

    #[test]
    fn delta_records_round_trip_and_filter() {
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        let rec = WalRecord::PageDelta {
            tx: 1,
            page: 7,
            ops: vec![(4, vec![1, 2]), (100, vec![9])],
        };
        append(&mut wal, &rec);
        append(&mut wal, &WalRecord::Commit { tx: 1 });
        let (records, tear) = wal.records().unwrap();
        assert_eq!(tear, None);
        assert_eq!(records[0], rec);
        assert_eq!(replayed_changes(&records), [rec]);
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

    /// The byte loop `page_diff_ops` replaced: the reference it must
    /// match on every pair of pages.
    fn page_diff_ops_bytewise(before: &[u8], after: &[u8], gap: usize) -> Vec<(u32, Vec<u8>)> {
        let mut ops: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut i = 0usize;
        let n = after.len();
        while i < n {
            if before[i] == after[i] {
                i += 1;
                continue;
            }
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

    #[test]
    fn page_diff_ops_equals_the_byte_loop_at_the_edges() {
        let gap = 24;
        let before: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        let edited = |at: &[usize]| {
            let mut after = before.clone();
            for &i in at {
                after[i] ^= 0x5A;
            }
            after
        };
        let cases = [
            // Identical pages.
            vec![],
            // The last 7 bytes, which no whole word covers (each one
            // alone is checked below).
            vec![PAGE_SIZE - 7],
            vec![PAGE_SIZE - 1],
            vec![PAGE_SIZE - 9, PAGE_SIZE - 2],
            // First byte, and two edits exactly `gap` and `gap + 1` apart.
            vec![0],
            vec![100, 100 + gap],
            vec![100, 101 + gap],
            vec![7, 8, 15, 16],
        ];
        for at in cases {
            let after = edited(&at);
            assert_eq!(
                page_diff_ops(&before, &after, gap),
                page_diff_ops_bytewise(&before, &after, gap),
                "edits at {at:?}"
            );
        }
        for at in PAGE_SIZE - 7..PAGE_SIZE {
            let after = edited(&[at]);
            assert_eq!(
                page_diff_ops(&before, &after, gap),
                [(at as u32, vec![after[at]])]
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn page_diff_ops_equals_the_byte_loop(
            seed: u64,
            edits in proptest::collection::vec((0..PAGE_SIZE, 1usize..80, proptest::any::<u8>()), 0..12),
            gap in 1usize..40,
        ) {
            let mut state = seed | 1;
            let before: Vec<u8> = (0..PAGE_SIZE)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 3) as u8
                })
                .collect();
            let mut after = before.clone();
            for (at, len, byte) in edits {
                after[at..(at + len).min(PAGE_SIZE)].fill(byte);
            }
            proptest::prop_assert_eq!(
                page_diff_ops(&before, &after, gap),
                page_diff_ops_bytewise(&before, &after, gap)
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_leaves_the_log_where_it_was() {
        // Every write to /dev/full fails with ENOSPC.
        let mut wal = Wal::open(Path::new("/dev/full")).unwrap();
        let before = wal.len();
        let mut frames = Vec::new();
        push_frame(&mut frames, &WalRecord::Begin { tx: 1 });
        push_frame(&mut frames, &WalRecord::Commit { tx: 1 });
        assert!(wal.append(&frames).is_err());
        assert_eq!(wal.len(), before);
    }

    #[test]
    fn torn_tail_detected_and_truncatable() {
        let path = TempPath::new();
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in sample_records() {
                append(&mut wal, &r);
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
        append(&mut wal, &WalRecord::Commit { tx: 2 });
        let (records3, _) = wal.records().unwrap();
        assert_eq!(records3.len(), records.len() + 1);
    }

    #[test]
    fn bitflip_in_payload_is_torn_tail() {
        let path = TempPath::new();
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in sample_records() {
                append(&mut wal, &r);
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
    }

    #[test]
    fn reset_empties_log() {
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        append(&mut wal, &WalRecord::Begin { tx: 1 });
        assert!(!wal.is_empty());
        wal.reset().unwrap();
        assert!(wal.is_empty());
        let (records, tear) = wal.records().unwrap();
        assert!(records.is_empty());
        assert_eq!(tear, None);
    }

    #[test]
    fn torn_final_record_at_every_cut_point() {
        // A crash can land anywhere inside the final frame: inside the
        // 8-byte header, inside the payload, or right at the frame
        // boundary. Every cut short of a full frame must replay the
        // prefix and report the tear at the final frame's start.
        let intact = TempPath::new();
        let intact_len = {
            let mut wal = Wal::open(&intact).unwrap();
            for r in sample_records() {
                append(&mut wal, &r);
            }
            wal.len()
        };
        let probe_path = TempPath::new();
        let before_last = {
            let mut wal = Wal::open(&intact).unwrap();
            let mut probe = Wal::open(&probe_path).unwrap();
            let all = sample_records();
            for r in &all[..all.len() - 1] {
                append(&mut probe, r);
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
            let path = TempPath::new();
            std::fs::copy(&intact, &path).unwrap();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let mut wal = Wal::open(&path).unwrap();
            let (records, tear) = wal.records().unwrap();
            assert_eq!(records, sample_records()[..sample_records().len() - 1]);
            assert_eq!(tear, Some(before_last), "cut at byte {cut}");
        }
    }

    #[test]
    fn truncate_then_append_round_trips() {
        // Repeatedly tear the tail, truncate at the reported offset,
        // and append fresh records: every cycle must leave a log that
        // replays cleanly with the pre-tear prefix + the new records.
        let path = TempPath::new();
        let mut expected: Vec<WalRecord> = Vec::new();
        for cycle in 0..4u64 {
            {
                let mut wal = Wal::open(&path).unwrap();
                let keep = WalRecord::Commit { tx: cycle };
                append(&mut wal, &keep);
                expected.push(keep);
                append(
                    &mut wal,
                    &WalRecord::Page {
                        tx: cycle,
                        page: cycle,
                        image: vec![cycle as u8; 32],
                    },
                );
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
    }

    #[test]
    fn truncate_tail_at_intact_boundary_drops_suffix() {
        // Fencing uses truncate_tail at an *intact* frame boundary to
        // drop a fully written but unwanted suffix (an ex-primary's
        // unshipped records), not just crash debris.
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        append(&mut wal, &WalRecord::Begin { tx: 1 });
        append(&mut wal, &WalRecord::Commit { tx: 1 });
        let keep = wal.len();
        append(&mut wal, &WalRecord::Begin { tx: 2 });
        append(&mut wal, &WalRecord::Commit { tx: 2 });
        wal.truncate_tail(keep).unwrap();
        let (records, tear) = wal.records().unwrap();
        assert_eq!(
            records,
            vec![WalRecord::Begin { tx: 1 }, WalRecord::Commit { tx: 1 }]
        );
        assert_eq!(tear, None);
        // Appends continue from the fenced position.
        append(&mut wal, &WalRecord::Begin { tx: 3 });
        let (records, _) = wal.records().unwrap();
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn read_span_and_append_raw_round_trip() {
        let src = TempPath::new();
        let dst = TempPath::new();
        let mut wal = Wal::open(&src).unwrap();
        for r in sample_records() {
            append(&mut wal, &r);
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
            replica.append(&span).unwrap();
        }
        assert_eq!(replica.len(), wal.len());
        let (records, tear) = replica.records().unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(tear, None);
        // Past-the-end reads are empty, not errors.
        assert!(wal.read_span(wal.len(), 64).unwrap().is_empty());
        assert!(wal.read_span(wal.len() + 100, 64).unwrap().is_empty());
    }

    #[test]
    fn replay_reassembles_across_pushes() {
        let (_path, _wal, bytes) = log_of(&sample_records());
        let (_p, _w, committed_prefix) = log_of(&sample_records()[..3]);
        // Feed one byte at a time: the commit must pop out exactly when
        // its last byte arrives, whatever the frame boundaries.
        let mut replay = Replay::new(0);
        let mut got = Vec::new();
        for (fed, b) in bytes.iter().enumerate() {
            replay.push(std::slice::from_ref(b));
            got.extend(drain(&mut replay));
            assert_eq!(got.is_empty(), fed + 1 < committed_prefix.len());
        }
        assert_eq!(got, replayed_changes(&sample_records()));
        assert_eq!(replay.committed_end(), committed_prefix.len() as u64);
        assert_eq!(replay.max_tx(), 2);
        // tx 2's frames were consumed and held: its commit completes it.
        replay.push(&log_of(&[WalRecord::Commit { tx: 2 }]).2);
        assert_eq!(drain(&mut replay), sample_records()[4..]);
        assert_eq!(replay.committed_end(), bytes.len() as u64 + 10);
    }

    #[test]
    fn replay_reports_corrupt_complete_frame() {
        let (_path, _wal, mut bytes) = log_of(&[WalRecord::Begin { tx: 1 }]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut replay = Replay::new(0);
        replay.push(&bytes);
        // Reported at its offset, and again on every later call: whether
        // it is a tear or corruption is the caller's to say.
        for _ in 0..2 {
            assert_eq!(replay.next_commit().unwrap(), Scan::BadCrc);
            assert_eq!(replay.offset(), 0);
        }
    }

    #[test]
    fn begin_resets_a_recycled_transaction_id() {
        // An earlier holder of id 1 logged a page and never committed; a
        // later transaction reusing the id must not inherit it.
        let records = [
            WalRecord::Begin { tx: 1 },
            WalRecord::Page {
                tx: 1,
                page: 3,
                image: vec![0xEE],
            },
            WalRecord::Begin { tx: 1 },
            WalRecord::Page {
                tx: 1,
                page: 4,
                image: vec![2],
            },
            WalRecord::Commit { tx: 1 },
        ];
        assert_eq!(replayed_changes(&records), records[3..4]);
    }

    #[test]
    fn apply_rejects_out_of_page_changes_at_their_frame() {
        let records = [
            WalRecord::Begin { tx: 1 },
            WalRecord::PageDelta {
                tx: 1,
                page: 2,
                ops: vec![(PAGE_SIZE as u32 - 1, vec![7, 7])],
            },
            WalRecord::Commit { tx: 1 },
        ];
        let mut replay = Replay::new(0);
        replay.push(&log_of(&records).2);
        let Scan::Found(tx) = replay.next_commit().unwrap() else {
            panic!("one committed transaction");
        };
        let offset = log_of(&records[..1]).2.len() as u64;
        assert!(matches!(
            tx.apply(&mut BTreeMap::new(), |_| PageBuf::zeroed()),
            Err(StorageError::WalCorrupt { offset: at }) if at == offset
        ));
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let path = TempPath::new();
        {
            let mut wal = Wal::open(&path).unwrap();
            append(&mut wal, &WalRecord::Begin { tx: 1 });
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            append(&mut wal, &WalRecord::Commit { tx: 1 });
            let (records, _) = wal.records().unwrap();
            assert_eq!(records.len(), 2);
        }
    }
}
