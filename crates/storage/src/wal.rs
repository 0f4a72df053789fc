//! Redo-only write-ahead log.
//!
//! **Commits.** One commit is one frame. At transaction commit the
//! store lays a record of every page the transaction dirtied — its
//! changed byte ranges or, for a heavily rewritten page, its full
//! after-image — end to end into one frame, appends that frame with one
//! write, then (optionally) fsyncs. An intact frame is a committed
//! transaction; a frame that did not land whole ends the log, so a
//! commit is in the log entirely or not at all, and no record names
//! the transaction it belongs to. The database file itself is only
//! updated at checkpoints, each of which starts a new *generation* of
//! the log.
//!
//! **File.** A 16-byte header — magic, version, seed, and a CRC of the
//! three ([`LOG_HEADER_LEN`]) — then the generation's frames. An empty
//! file is an empty log; its first append writes the header. So is a
//! file whose header is all zeroes: a header that never landed, under
//! which no frame was ever acknowledged. A file that starts with
//! anything else but the header is another build's log, and
//! [`Wal::open`] refuses it with [`StorageError::UnsupportedLog`].
//!
//! **Frames.** Every frame is `[u32 len][u32 crc32(payload)][u32 link]
//! [payload]`, the payload being the commit's [`WalRecord`]s back to
//! back ([`open_frame`], [`push_page_frame`], [`close_frame`]). The
//! links chain: `link = crc32(previous link ‖ this frame's payload
//! crc)`, and the generation's first frame chains from the header's
//! seed. A frame is intact only if its length is not zero, its payload
//! matches its CRC and its link matches, and parsing stops at the first
//! frame that is not. Because a link depends on every frame since the
//! seed, that one rule ends the log at a torn tail, at a zero fill, and
//! at any older generation's bytes alike — even an older frame this
//! generation rewrote byte for byte in its payload cannot lend its
//! successors a matching link. Payload CRCs are computed by
//! [`close_frame`], outside the store's write mutex; [`Wal::append`]
//! fills in only the link.
//!
//! **Generations.** A checkpoint makes the log's contents redundant and
//! starts a generation whose seed is the link at the old one's end. It
//! leaves the file in one of two ways:
//! * [`Wal::recycle`] keeps the file and writes the new header over the
//!   old: the next commits overwrite blocks the file already owns, so
//!   their fsync flushes data and journals no new size. The store's own
//!   automatic checkpoints recycle.
//! * [`Wal::trim`] also cuts the file back to its header: the at-rest
//!   shape, used by checkpoints a caller asks for, by `Drop`, by
//!   recovery, by snapshot install and by a replica's promotion fence.
//!
//! **Crash ordering.** A checkpoint fsyncs the page file *before* it
//! writes the new header, and fsyncs the header before the next frame
//! is written. A crash between the two leaves the new header over the
//! old generation's frames, which do not chain from the new seed: the
//! log reads empty, and the page file already holds everything. The
//! header's own fsync is what keeps a half-landed later write safe:
//! without it, frames of the new generation could reach the disk in a
//! later block while the old header and the old generation's first
//! blocks stayed, and recovery would replay a prefix of the old
//! generation over the page file — rolling back what that generation
//! did later. With it, old frames never chain again.
//!
//! [`Wal::append`] is the writer of local commits and
//! [`Wal::append_shipped`] lands a primary's already-linked bytes
//! verbatim, so a replica's log agrees with its primary's on every
//! frame boundary and link.
//!
//! The read side is one path in three steps: [`parse_frame`] checks one
//! frame, [`Replay`] decodes each intact frame into a committed
//! transaction, and [`CommittedTx::apply`] lays logged changes onto
//! base images. [`Wal::open`] takes the first step only, to find where
//! the generation ends; crash recovery, replica apply and `odedump wal`
//! take the first two through a [`Replay`]. A frame that is short or
//! not intact is reported, never judged, here: over a local log it is
//! the end of the generation (everything before it is intact by
//! construction), over a shipped stream it is transport corruption.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::ops::Range;
use std::path::Path;

use ode_codec::{impl_persist_enum, to_bytes, varint, Persist, Reader};

use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::pager::{read_exact_at, write_all_at};
use crate::{crc32, Result, StorageError};

/// Bytes of the log file's header: magic, version, seed, and a CRC of
/// the three. Frame offsets count from its end.
pub const LOG_HEADER_LEN: u64 = 16;
/// Bytes of a frame's header: payload length, payload CRC, link.
pub const FRAME_HEADER_LEN: usize = 12;
/// "ODEW", little-endian.
const LOG_MAGIC: u32 = u32::from_le_bytes(*b"ODEW");
/// Version of the log format: one chained frame per commit after a
/// seeded header. Version 1 framed each record apart, between `Begin`
/// and `Commit` records naming a transaction id.
const LOG_VERSION: u32 = 2;

/// The log file's header for a generation chained from `seed`.
fn log_header(seed: u32) -> [u8; LOG_HEADER_LEN as usize] {
    let mut header = [0u8; LOG_HEADER_LEN as usize];
    header[..4].copy_from_slice(&LOG_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&LOG_VERSION.to_le_bytes());
    header[8..12].copy_from_slice(&seed.to_le_bytes());
    let crc = crc32(&header[..12]);
    header[12..].copy_from_slice(&crc.to_le_bytes());
    header
}

/// The little-endian `u32` at byte `at` of `bytes`.
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// The seed in an intact header of this log format, `None` otherwise.
fn parse_log_header(bytes: &[u8]) -> Option<u32> {
    let header = bytes.get(..LOG_HEADER_LEN as usize)?;
    let word = |at| le_u32(header, at);
    let intact = word(0) == LOG_MAGIC && word(4) == LOG_VERSION && word(12) == crc32(&header[..12]);
    intact.then(|| word(8))
}

/// The link of a frame whose payload CRC is `payload_crc`, following a
/// frame (or seed) whose link is `prev`.
pub fn link(prev: u32, payload_crc: u32) -> u32 {
    let mut chained = [0u8; 8];
    chained[..4].copy_from_slice(&prev.to_le_bytes());
    chained[4..].copy_from_slice(&payload_crc.to_le_bytes());
    crc32(&chained)
}

/// One page's change in a commit's frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Full after-image of one page.
    Page {
        /// Page the image belongs to.
        page: u64,
        /// The complete `PAGE_SIZE` image.
        image: Vec<u8>,
    },
    /// Changed byte ranges of one page (delta logging: the storage-level
    /// "small changes have small impact"). The base is the page's state
    /// as of the previous record for it in this log generation, or the
    /// database file (= last checkpoint) if none.
    PageDelta {
        /// Page the delta applies to.
        page: u64,
        /// `(offset, bytes)` write runs, ascending and non-overlapping.
        ops: Vec<(u32, Vec<u8>)>,
    },
}

// Varint kind and page id; page bytes are byte strings (length-prefixed
// raw runs), so this is the log format byte for byte.
impl_persist_enum!(WalRecord {
    Page { page, image },
    PageDelta { page, ops },
});

/// The log file: a header and the current generation's frames.
pub struct Wal {
    file: File,
    /// The current generation's seed.
    seed: u32,
    /// Link of the last frame [`Wal::append`] wrote or [`Wal::open`]
    /// found (the seed in a generation without frames).
    tail: u32,
    /// Bytes of the current generation's frames: the append position,
    /// counted from the end of the header.
    len: u64,
    /// Whether the file holds a header yet. An empty file, or one whose
    /// header bytes are all zero, is an empty log without one.
    headed: bool,
}

impl Wal {
    /// Open (or create) the log at `path` and find the end of its
    /// current generation: the first frame that is not intact. Writes
    /// nothing, and decodes and replays nothing — see [`Replay`]. A
    /// file that starts with anything but this format's header (or a
    /// header of zeroes that never landed) is refused with
    /// [`StorageError::UnsupportedLog`].
    pub fn open(path: &Path) -> Result<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut wal = Wal {
            file,
            seed: 0,
            tail: 0,
            len: 0,
            headed: false,
        };
        let mut header = Vec::new();
        (&wal.file).take(LOG_HEADER_LEN).read_to_end(&mut header)?;
        // A header of zeroes never landed: a file system extended the
        // file before its data reached the disk. No frame after it was
        // ever acknowledged (the fsync that would have acknowledged one
        // covers the header too), so the log is empty.
        wal.headed = header.iter().any(|&b| b != 0);
        if wal.headed {
            wal.seed = parse_log_header(&header).ok_or(StorageError::UnsupportedLog)?;
            let data = wal.read_file()?;
            let (mut end, mut tail) = (0, wal.seed);
            while let Scan::Found((payload, link)) = parse_frame(&data[end..], tail) {
                end += FRAME_HEADER_LEN + payload.len();
                tail = link;
            }
            wal.len = end as u64;
            wal.tail = tail;
        }
        Ok(wal)
    }

    /// Bytes of the current generation's frames.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the current generation holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current generation's seed.
    pub fn seed(&self) -> u32 {
        self.seed
    }

    /// Link of the last frame appended by [`Wal::append`] (or found by
    /// [`Wal::open`], or the seed when the generation has no frames).
    /// [`Wal::append_shipped`] does not move it: whoever lands shipped
    /// bytes tracks their chain with a [`Replay`].
    pub fn tail(&self) -> u32 {
        self.tail
    }

    /// Whether the file is exactly an empty log: no frames and nothing
    /// past the header (or no header at all).
    pub fn is_at_rest(&self) -> Result<bool> {
        let rest = if self.headed { LOG_HEADER_LEN } else { 0 };
        Ok(self.len == 0 && self.file.metadata()?.len() == rest)
    }

    /// Link `frame` — one commit's frame, closed by [`close_frame`] —
    /// onto the end of the log and append it with one write (not yet
    /// durable; call [`Wal::sync`]). On error neither the append
    /// position nor the tail link moves; any bytes the failed write
    /// left do not chain past the next append's frame.
    pub fn append(&mut self, frame: &mut [u8]) -> Result<()> {
        debug_assert_eq!(frame.len(), FRAME_HEADER_LEN + le_u32(frame, 0) as usize);
        let tail = link(self.tail, le_u32(frame, 4));
        frame[8..FRAME_HEADER_LEN].copy_from_slice(&tail.to_le_bytes());
        self.write(frame)?;
        self.tail = tail;
        Ok(())
    }

    /// Append a byte-exact span of a primary's log, already linked,
    /// with one write — so both logs agree on every frame boundary,
    /// link and position. The bytes are not validated here: a reader
    /// parses them with a [`Replay`] before trusting their contents.
    pub fn append_shipped(&mut self, bytes: &[u8]) -> Result<()> {
        self.write(bytes)
    }

    /// Write `bytes` at the append position (after a header written in
    /// the same call, if the file has none yet).
    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        if self.headed {
            write_all_at(&self.file, bytes, LOG_HEADER_LEN + self.len)?;
        } else {
            let mut headed = log_header(self.seed).to_vec();
            headed.extend_from_slice(bytes);
            write_all_at(&self.file, &headed, 0)?;
            self.headed = true;
        }
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Read up to `max` raw bytes of the current generation starting at
    /// frame offset `offset` (clamped to the append position). Used by
    /// the shipping path to stream the log as an opaque byte sequence;
    /// frame boundaries are irrelevant here because the receiver
    /// reassembles them with a [`Replay`].
    pub fn read_span(&self, offset: u64, max: usize) -> Result<Vec<u8>> {
        if offset >= self.len {
            return Ok(Vec::new());
        }
        let len = ((self.len - offset) as usize).min(max);
        let mut buf = vec![0u8; len];
        read_exact_at(&self.file, &mut buf, LOG_HEADER_LEN + offset)?;
        Ok(buf)
    }

    /// Everything the file holds past its header, as it lies: the
    /// current generation's frames, then whatever follows them — a torn
    /// frame, a zero fill, an older generation, or nothing. Empty for a
    /// file without a header. A [`Replay`] from [`Wal::seed`] reads the
    /// generation out of it; `odedump wal` lists a log that way without
    /// recovering it.
    pub fn read_file(&self) -> Result<Vec<u8>> {
        let mut data = Vec::new();
        if self.headed {
            let len = self.file.metadata()?.len().saturating_sub(LOG_HEADER_LEN);
            data.resize(len as usize, 0);
            read_exact_at(&self.file, &mut data, LOG_HEADER_LEN)?;
        }
        Ok(data)
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
    /// replaced — generations only rewrite its header and `set_len`.
    pub fn sync_handle(&self) -> Result<WalSyncHandle> {
        Ok(WalSyncHandle {
            file: self.file.try_clone()?,
        })
    }

    /// Start a generation chained from `seed` in the file as it is: the
    /// header is rewritten and fsynced, the old frames stay where they
    /// are and no longer chain. The caller has made them redundant (a
    /// checkpoint fsynced the page file first).
    pub fn recycle(&mut self, seed: u32) -> Result<()> {
        self.restart(seed)
    }

    /// Start a generation chained from `seed` and cut the file back to
    /// its header: the log at rest. The file is emptied before the
    /// header is written, not cut to the header's length: on ext4 a
    /// large log cut to a partial block made every later append's fsync
    /// about three times slower.
    pub fn trim(&mut self, seed: u32) -> Result<()> {
        self.file.set_len(0)?;
        self.restart(seed)
    }

    /// Write and fsync the header of a generation chained from `seed`.
    fn restart(&mut self, seed: u32) -> Result<()> {
        write_all_at(&self.file, &log_header(seed), 0)?;
        self.file.sync_data()?;
        self.headed = true;
        self.seed = seed;
        self.tail = seed;
        self.len = 0;
        Ok(())
    }

    /// Cut the log at frame offset `offset`, where the chain's link is
    /// `link`: a fence at the end of the last applied commit, so later
    /// appends start from a clean frame boundary.
    pub fn truncate_tail(&mut self, offset: u64, link: u32) -> Result<()> {
        let header = if self.headed { LOG_HEADER_LEN } else { 0 };
        self.file.set_len(header + offset)?;
        self.file.sync_data()?;
        self.len = offset;
        self.tail = link;
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
    /// A frame header that does not chain — a zero length, or a link
    /// other than the one the previous frame (or the seed) calls for:
    /// not a frame of this generation.
    Unchained,
    /// A frame whose header chains but whose payload fails its CRC.
    BadCrc,
}

/// Start a commit's frame at the end of `out`: a header that
/// [`close_frame`] fills in once the commit's records follow it.
/// Returns where the frame starts.
pub fn open_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    at
}

/// Fill in the length and CRC of the frame at `at`, whose payload runs
/// to the end of `out`; the link stays zero for [`Wal::append`]. A
/// payload too long for the length field is refused with
/// [`StorageError::CommitTooLarge`], so nothing of it is appended.
pub fn close_frame(out: &mut [u8], at: usize) -> Result<()> {
    let payload = &out[at + FRAME_HEADER_LEN..];
    let (len, crc) = (frame_payload_len(payload.len())?, crc32(payload));
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// The length field of a frame whose payload is `len` bytes.
fn frame_payload_len(len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| StorageError::CommitTooLarge { bytes: len as u64 })
}

/// Frame `records` — one commit — onto the end of `out`, each record
/// in its codec bytes: with [`parse_frame`] and [`Replay`], the round
/// trip of the log format for records already built.
pub fn push_frame(out: &mut Vec<u8>, records: &[WalRecord]) -> Result<()> {
    let at = open_frame(out);
    for record in records {
        out.extend_from_slice(&to_bytes(record));
    }
    close_frame(out, at)
}

/// Encode the record of page `page` onto the frame open at the end of
/// `out`, straight from `after`: a [`WalRecord::PageDelta`] of
/// `after`'s bytes in `runs`, or with no runs a [`WalRecord::Page`] of
/// all of it. The bytes are the owned record's codec bytes; only the
/// copies into that record are skipped.
pub fn push_page_frame(out: &mut Vec<u8>, page: u64, after: &[u8], runs: Option<&[Range<usize>]>) {
    // The codec's enum tags: variants count from 0 in declaration order.
    const PAGE: u64 = 0;
    const PAGE_DELTA: u64 = 1;
    match runs {
        Some(runs) => {
            for word in [PAGE_DELTA, page, runs.len() as u64] {
                varint::write_u64(out, word);
            }
            for run in runs {
                varint::write_u64(out, run.start as u64);
                varint::write_u64(out, run.len() as u64);
                out.extend_from_slice(&after[run.clone()]);
            }
        }
        None => {
            for word in [PAGE, page, after.len() as u64] {
                varint::write_u64(out, word);
            }
            out.extend_from_slice(after);
        }
    }
}

/// Check the frame at the start of `buf` against the link `prev` of
/// the frame before it (or the seed): its payload (the frame is
/// [`FRAME_HEADER_LEN`] bytes longer) and its link. The header is
/// judged before the payload is waited for, so bytes that are not this
/// generation's are rejected whatever length they claim. This is the
/// log's only frame parser; what a short or bad frame *means* is the
/// caller's call (see the module docs).
pub fn parse_frame(buf: &[u8], prev: u32) -> Scan<(&[u8], u32)> {
    let Some((header, rest)) = buf.split_first_chunk::<FRAME_HEADER_LEN>() else {
        return Scan::Incomplete;
    };
    let (payload_len, crc, chained) = (le_u32(header, 0), le_u32(header, 4), le_u32(header, 8));
    if payload_len == 0 || chained != link(prev, crc) {
        return Scan::Unchained;
    }
    let Some(payload) = rest.get(..payload_len as usize) else {
        return Scan::Incomplete;
    };
    if crc32(payload) != crc {
        return Scan::BadCrc;
    }
    Scan::Found((payload, chained))
}

/// One committed transaction: the page records of one intact frame.
#[derive(Debug, PartialEq, Eq)]
pub struct CommittedTx {
    /// Stream offset of the frame.
    pub offset: u64,
    /// Its `Page`/`PageDelta` records, in log order.
    pub records: Vec<WalRecord>,
}

impl CommittedTx {
    /// Lay the transaction's changes onto `pages`, the after-images
    /// built so far. A delta to a page not yet among them starts from
    /// `base(page)` — the caller's current image of it, or zeroes for a
    /// page that does not exist yet (fresh allocations diff against
    /// zero when logged); a base the caller cannot give fails the
    /// apply. A full image needs no base. A change that does not fit a
    /// page is reported at its frame's offset.
    pub fn apply(
        self,
        pages: &mut BTreeMap<PageId, PageBuf>,
        base: impl Fn(PageId) -> Result<PageBuf>,
    ) -> Result<()> {
        let corrupt = || StorageError::WalCorrupt {
            offset: self.offset,
        };
        for record in self.records {
            match record {
                WalRecord::Page { page, image } => {
                    pages.insert(PageId(page), PageBuf::from_vec(image).ok_or_else(corrupt)?);
                }
                WalRecord::PageDelta { page, ops } => {
                    let page = match pages.entry(PageId(page)) {
                        Entry::Occupied(image) => image.into_mut(),
                        Entry::Vacant(slot) => slot.insert(base(PageId(page))?),
                    };
                    for (at, bytes) in ops {
                        let start = at as usize;
                        let end = start + bytes.len();
                        if end > PAGE_SIZE {
                            return Err(corrupt());
                        }
                        page.as_bytes_mut()[start..end].copy_from_slice(&bytes);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The log's reader: push log bytes in pieces of any size, pull out
/// committed transactions, one per intact frame.
#[derive(Debug, Default)]
pub struct Replay {
    buf: Vec<u8>,
    /// Start of the first unparsed frame within `buf`.
    head: usize,
    /// Stream offset of that frame.
    offset: u64,
    /// Link of the last parsed frame (the seed before the first).
    link: u32,
}

impl Replay {
    /// A replay whose first pushed byte sits at stream offset `start`,
    /// a frame boundary where the chain's link is `seed`.
    pub fn new(start: u64, seed: u32) -> Replay {
        Replay {
            offset: start,
            link: seed,
            ..Replay::default()
        }
    }

    /// Buffer more stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.head);
        self.head = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Stream offset of the first frame not yet parsed: the end of the
    /// last yielded commit, the point a log is fenced at before it takes
    /// new appends. After [`Scan::Unchained`] or [`Scan::BadCrc`], the
    /// bad frame's offset.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The chain's link at [`Replay::offset`] (the seed before the
    /// first commit): what the next frame chains from, and the seed of
    /// a generation started there.
    pub fn link(&self) -> u32 {
        self.link
    }

    /// Parse the next frame and yield its transaction. A bad frame
    /// stays at the front, so asking again answers the same; an intact
    /// frame whose payload is not a run of records is an error wherever
    /// the bytes came from.
    pub fn next_commit(&mut self) -> Result<Scan<CommittedTx>> {
        let offset = self.offset;
        let (records, frame_len, link) = match parse_frame(&self.buf[self.head..], self.link) {
            Scan::Found((payload, link)) => (
                decode_records(payload).ok_or(StorageError::WalCorrupt { offset })?,
                FRAME_HEADER_LEN + payload.len(),
                link,
            ),
            Scan::Incomplete => return Ok(Scan::Incomplete),
            Scan::Unchained => return Ok(Scan::Unchained),
            Scan::BadCrc => return Ok(Scan::BadCrc),
        };
        self.head += frame_len;
        self.offset += frame_len as u64;
        self.link = link;
        Ok(Scan::Found(CommittedTx { offset, records }))
    }
}

/// The records laid end to end in a frame's payload, `None` unless it
/// is exactly a run of them.
fn decode_records(payload: &[u8]) -> Option<Vec<WalRecord>> {
    let mut reader = Reader::new(payload);
    let mut records = Vec::new();
    while !reader.is_empty() {
        records.push(WalRecord::decode(&mut reader).ok()?);
    }
    Some(records)
}

/// The little-endian `u64` at byte `at` of `bytes`: in a XOR of two
/// such words, byte `k` of the pages is byte `k` of the word.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Every byte's low seven bits set.
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// The first index at or after `from` where `a` and `b` differ, or
/// their length. Equal 32-byte blocks pass four words at a time, then
/// words one at a time; a differing word names its first differing
/// byte by its lowest set bit.
fn first_difference(a: &[u8], b: &[u8], from: usize) -> usize {
    let n = a.len();
    let mut i = from;
    while i + 32 <= n {
        let x = (le_u64(a, i) ^ le_u64(b, i))
            | (le_u64(a, i + 8) ^ le_u64(b, i + 8))
            | (le_u64(a, i + 16) ^ le_u64(b, i + 16))
            | (le_u64(a, i + 24) ^ le_u64(b, i + 24));
        if x != 0 {
            break;
        }
        i += 32;
    }
    while i + 8 <= n {
        let x = le_u64(a, i) ^ le_u64(b, i);
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    (i..n).find(|&k| a[k] != b[k]).unwrap_or(n)
}

/// Where the changed run reaching up to `from` ends, given that byte
/// `from - 1` differs: at the start of the first stretch of `gap` equal
/// bytes from `from` on, or of the equal bytes that reach the end of
/// the page. Words whose bytes are all equal extend the current stretch
/// whole. In any other word, a byte's high bit, set from its low seven
/// without a carry between bytes, marks it as differing; the equal bytes
/// below the first such byte close the stretch, the ones above the last
/// start the next. Stretches inside the word matter only to a `gap`
/// under 8, which checks that word a byte at a time.
fn run_end(a: &[u8], b: &[u8], from: usize, gap: usize) -> usize {
    let n = a.len();
    let mut stretch = from;
    let mut i = from;
    while i + 8 <= n {
        let x = le_u64(a, i) ^ le_u64(b, i);
        if x == 0 {
            if i + 8 - stretch >= gap {
                return stretch;
            }
        } else if gap < 8 {
            for k in i..i + 8 {
                if a[k] != b[k] {
                    if k - stretch >= gap {
                        return stretch;
                    }
                    stretch = k + 1;
                }
            }
        } else {
            let differing = ((x & LOW7).wrapping_add(LOW7) | x) & !LOW7;
            if i + (differing.trailing_zeros() / 8) as usize - stretch >= gap {
                return stretch;
            }
            stretch = i + 8 - (differing.leading_zeros() / 8) as usize;
        }
        i += 8;
    }
    for k in i..n {
        if a[k] != b[k] {
            if k - stretch >= gap {
                return stretch;
            }
            stretch = k + 1;
        }
    }
    stretch
}

/// Compute the changed byte runs between two page images, merging runs
/// separated by fewer than `gap` identical bytes (run-header amortization).
/// `None` as soon as the runs' payload — each run's bytes plus an 8-byte
/// header — passes `max_payload`: the caller logs the full image then,
/// so the rest of the diff would be wasted.
///
/// The runs are those of the byte loop that compares one position at a
/// time and ends a run once `gap` equal bytes follow its last changed
/// one (so with `gap` 0 every changed byte is a run of its own). This
/// one looks at a word at a time instead: it skips equal blocks to the
/// next changed byte, then follows the run's stretches of equal bytes
/// until one is `gap` long. A run is a range of positions; its bytes
/// are `after`'s there ([`push_page_frame`] logs them from `after`).
pub fn page_diff_runs(
    before: &[u8],
    after: &[u8],
    gap: usize,
    max_payload: usize,
) -> Option<Vec<Range<usize>>> {
    debug_assert_eq!(before.len(), after.len());
    let n = after.len();
    let mut runs = Vec::new();
    let mut payload = 0usize;
    let mut start = first_difference(before, after, 0);
    while start < n {
        let end = run_end(before, after, start + 1, gap);
        payload += end - start + 8;
        if payload > max_payload {
            return None;
        }
        runs.push(start..end);
        start = first_difference(before, after, end);
    }
    Some(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempPath;
    use ode_codec::from_bytes;
    use std::io::{Seek, SeekFrom, Write};

    /// The seed of a log file that has never had a checkpoint.
    const FRESH: u32 = 0;

    /// [`page_diff_runs`] with each run's bytes, as a record logs them.
    fn page_diff_ops(
        before: &[u8],
        after: &[u8],
        gap: usize,
        max_payload: usize,
    ) -> Option<Vec<(u32, Vec<u8>)>> {
        let runs = page_diff_runs(before, after, gap, max_payload)?;
        Some(
            runs.into_iter()
                .map(|run| (run.start as u32, after[run].to_vec()))
                .collect(),
        )
    }

    /// Frame `records` as one commit and append it.
    fn append(wal: &mut Wal, records: &[WalRecord]) {
        let mut frame = Vec::new();
        push_frame(&mut frame, records).unwrap();
        wal.append(&mut frame).unwrap();
    }

    /// A log holding `commits`, and its bytes.
    fn log_of(commits: &[Vec<WalRecord>]) -> (TempPath, Wal, Vec<u8>) {
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        for commit in commits {
            append(&mut wal, commit);
        }
        let bytes = wal.read_span(0, wal.len() as usize).unwrap();
        (path, wal, bytes)
    }

    /// The records of every commit `replay` can yield now, in order.
    fn drain(replay: &mut Replay) -> Vec<Vec<WalRecord>> {
        let mut commits = Vec::new();
        while let Scan::Found(tx) = replay.next_commit().unwrap() {
            commits.push(tx.records);
        }
        commits
    }

    /// The commits of `wal`'s generation as its file holds them, and
    /// the offset of a torn frame — one whose header chains but whose
    /// payload is cut short or fails its CRC — if the generation ends
    /// at one: the file read as `odedump wal` reads it.
    fn commits_in(wal: &Wal) -> (Vec<Vec<WalRecord>>, Option<u64>) {
        let data = wal.read_file().unwrap();
        let mut replay = Replay::new(0, wal.seed());
        replay.push(&data);
        let commits = drain(&mut replay);
        let at = replay.offset();
        let torn = match replay.next_commit().unwrap() {
            Scan::BadCrc => Some(at),
            Scan::Incomplete => (data.len() as u64 - at >= FRAME_HEADER_LEN as u64).then_some(at),
            Scan::Unchained | Scan::Found(_) => None,
        };
        (commits, torn)
    }

    /// Two commits: one page image, then an image and a delta.
    fn sample_commits() -> Vec<Vec<WalRecord>> {
        vec![
            vec![WalRecord::Page {
                page: 3,
                image: vec![1, 2, 3],
            }],
            vec![
                WalRecord::Page {
                    page: 4,
                    image: vec![9, 9],
                },
                WalRecord::PageDelta {
                    page: 3,
                    ops: vec![(1, vec![7])],
                },
            ],
        ]
    }

    /// Cut `n` bytes off the end of the file at `path`.
    fn chop(path: &Path, n: u64) {
        let f = OpenOptions::new().write(true).open(path).unwrap();
        f.set_len(f.metadata().unwrap().len() - n).unwrap();
    }

    #[test]
    fn record_bytes_are_the_log_format() {
        // Literal bytes of one record of each kind: varint kind, varint
        // page id, page bytes as length-prefixed raw runs. The log
        // format must not move when the codec behind it does.
        let cases: [(WalRecord, &[u8]); 2] = [
            (
                WalRecord::Page {
                    page: 300,
                    image: vec![0xAA, 0xFF, 0x00],
                },
                &[0, 0xAC, 0x02, 3, 0xAA, 0xFF, 0x00],
            ),
            (
                WalRecord::PageDelta {
                    page: 2,
                    ops: vec![(513, vec![0x80, 0xFF]), (0, vec![])],
                },
                &[1, 2, 2, 0x81, 0x04, 2, 0x80, 0xFF, 0, 0],
            ),
        ];
        for (record, bytes) in cases {
            assert_eq!(to_bytes(&record), bytes);
            assert_eq!(from_bytes::<WalRecord>(bytes).unwrap(), record);
        }
    }

    #[test]
    fn frame_bytes_are_the_log_format() {
        // Literal bytes of a log file: the header (magic "ODEW", version
        // 2, seed, CRC of the three), then two commits, each one frame
        // `[len][crc][link][payload]` whose payload is its records back
        // to back, the first chained from the seed and the second from
        // the first. The frame format must not move when the code
        // behind it does.
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        wal.trim(0x0BAD_5EED).unwrap();
        let commits = [
            vec![WalRecord::PageDelta {
                page: 2,
                ops: vec![(1, vec![7])],
            }],
            vec![
                WalRecord::Page {
                    page: 3,
                    image: vec![9],
                },
                WalRecord::PageDelta {
                    page: 4,
                    ops: vec![(0, vec![1, 2])],
                },
            ],
        ];
        for commit in &commits {
            append(&mut wal, commit);
        }
        let header: &[u8] = &[
            b'O', b'D', b'E', b'W', 2, 0, 0, 0, 0xED, 0x5E, 0xAD, 0x0B, 0xD6, 0xE2, 0x7A, 0xBD,
        ];
        let first: &[u8] = &[
            6, 0, 0, 0, 0xD6, 0x88, 0x5F, 0x3E, 0x5F, 0xBE, 0x14, 0xCC, 1, 2, 1, 1, 1, 7,
        ];
        let second: &[u8] = &[
            11, 0, 0, 0, 0x96, 0xE1, 0x93, 0x7C, 0x88, 0xAF, 0x18, 0x1E, 0, 3, 1, 9, 1, 4, 1, 0, 2,
            1, 2,
        ];
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [header, first, second].concat()
        );
        let mut replay = Replay::new(0, wal.seed());
        replay.push(&[first, second].concat());
        let mut links = Vec::new();
        while let Scan::Found(tx) = replay.next_commit().unwrap() {
            assert_eq!(tx.records, commits[links.len()]);
            links.push(replay.link());
        }
        assert_eq!(
            links,
            [
                link(0x0BAD_5EED, crc32(&first[12..])),
                link(links[0], crc32(&second[12..]))
            ]
        );
        assert_eq!(replay.offset(), (first.len() + second.len()) as u64);
        assert_eq!(wal.tail(), links[1]);
    }

    #[test]
    fn append_and_replay() {
        let (_path, wal, _) = log_of(&sample_commits());
        assert_eq!(commits_in(&wal), (sample_commits(), None));
        assert_eq!(replayed(&sample_commits()), sample_commits());
    }

    /// The commits a replay reads back from a log holding `commits`.
    fn replayed(commits: &[Vec<WalRecord>]) -> Vec<Vec<WalRecord>> {
        let mut replay = Replay::new(0, FRESH);
        replay.push(&log_of(commits).2);
        drain(&mut replay)
    }

    #[test]
    fn committed_filter_drops_uncommitted() {
        // A commit whose frame lost its last byte never committed: only
        // the first commit survives, and the tear is reported.
        let (path, wal, bytes) = log_of(&sample_commits());
        let first_end = log_of(&sample_commits()[..1]).2.len() as u64;
        drop(wal);
        chop(&path, 1);
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.len(), first_end);
        assert_eq!(
            commits_in(&wal),
            (sample_commits()[..1].to_vec(), Some(first_end))
        );
        let mut replay = Replay::new(0, FRESH);
        replay.push(&bytes[..bytes.len() - 1]);
        assert_eq!(drain(&mut replay), sample_commits()[..1]);
        assert_eq!(replay.offset(), first_end);
    }

    #[test]
    fn delta_records_round_trip_and_filter() {
        let delta = vec![WalRecord::PageDelta {
            page: 7,
            ops: vec![(4, vec![1, 2]), (100, vec![9])],
        }];
        let torn = vec![WalRecord::PageDelta {
            page: 8,
            ops: vec![(0, vec![3; 40])],
        }];
        let (path, wal, _) = log_of(&[delta.clone(), torn]);
        drop(wal);
        chop(&path, 20);
        let wal = Wal::open(&path).unwrap();
        let (commits, tear) = commits_in(&wal);
        assert_eq!(commits, [delta]);
        assert_eq!(tear, Some(wal.len()));
    }

    #[test]
    fn push_page_frame_frames_the_owned_record_byte_for_byte() {
        let mut after: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7 % 251) as u8).collect();
        after[200..700].fill(0);
        let many: Vec<Range<usize>> = (0..40).map(|k| k * 100..k * 100 + 1 + k).collect();
        let shapes: [Option<Vec<Range<usize>>>; 5] = [
            Some(vec![]),
            Some(vec![0..1, 9..10]),
            Some(vec![3..70, 200..2300, PAGE_SIZE - 5..PAGE_SIZE]),
            Some(many),
            None,
        ];
        let records: Vec<WalRecord> = shapes
            .iter()
            .enumerate()
            .map(|(k, runs)| {
                let page = 1 << (10 * k);
                match runs {
                    Some(runs) => WalRecord::PageDelta {
                        page,
                        ops: runs
                            .iter()
                            .map(|run| (run.start as u32, after[run.clone()].to_vec()))
                            .collect(),
                    },
                    None => WalRecord::Page {
                        page,
                        image: after.clone(),
                    },
                }
            })
            .collect();
        // Each shape alone, then all of them in one commit's frame.
        let n = shapes.len();
        for commit in (0..n).map(|k| k..k + 1).chain(std::iter::once(0..n)) {
            let (runs, records) = (&shapes[commit.clone()], &records[commit]);
            let (mut want, mut got) = (b"prefix".to_vec(), b"prefix".to_vec());
            push_frame(&mut want, records).unwrap();
            let at = open_frame(&mut got);
            for (runs, record) in runs.iter().zip(records) {
                let (WalRecord::Page { page, .. } | WalRecord::PageDelta { page, .. }) = record;
                push_page_frame(&mut got, *page, &after, runs.as_deref());
            }
            close_frame(&mut got, at).unwrap();
            assert_eq!(got, want, "{runs:?}");
        }
    }

    #[test]
    fn a_commit_too_large_for_one_frame_is_refused() {
        // The length field is 32 bits: a payload one byte past it would
        // be truncated, and the log would end at that commit.
        assert_eq!(frame_payload_len(u32::MAX as usize).unwrap(), u32::MAX);
        assert!(matches!(
            frame_payload_len(u32::MAX as usize + 1),
            Err(StorageError::CommitTooLarge { bytes }) if bytes == 1 << 32
        ));
    }

    #[test]
    fn page_diff_ops_finds_runs() {
        let before = vec![0u8; 64];
        let mut after = before.clone();
        after[3] = 1;
        after[4] = 2;
        after[30] = 3;
        // Small gap: two separate runs.
        let ops = page_diff_ops(&before, &after, 4, usize::MAX).unwrap();
        assert_eq!(ops, vec![(3, vec![1, 2]), (30, vec![3])]);
        // Huge gap: merged into one run spanning the unchanged middle.
        let ops = page_diff_ops(&before, &after, 64, usize::MAX).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, 3);
        assert_eq!(ops[0].1.len(), 28);
        // Identical images: no ops.
        assert!(page_diff_ops(&before, &before, 4, usize::MAX)
            .unwrap()
            .is_empty());
        // Reconstruction: applying ops to `before` yields `after`.
        let mut rebuilt = before.clone();
        for (off, bytes) in page_diff_ops(&before, &after, 4, usize::MAX).unwrap() {
            rebuilt[off as usize..off as usize + bytes.len()].copy_from_slice(&bytes);
        }
        assert_eq!(rebuilt, after);
    }

    /// The byte loop `page_diff_ops` replaced: the reference it must
    /// match on every pair of pages, budget included.
    fn page_diff_ops_bytewise(
        before: &[u8],
        after: &[u8],
        gap: usize,
        max_payload: usize,
    ) -> Option<Vec<(u32, Vec<u8>)>> {
        let mut ops: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut payload = 0usize;
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
            payload += end - start + 8;
            if payload > max_payload {
                return None;
            }
            ops.push((start as u32, after[start..end].to_vec()));
            i = end;
        }
        Some(ops)
    }

    /// The gaps the diff is checked at: 0 (every changed byte its own
    /// run), 1, 8 (the least that skips a word's inner stretches), the
    /// store's 24, and one longer than two words.
    const GAPS: [usize; 5] = [0, 1, 8, 24, 64];

    /// `page_diff_ops` and the byte loop agree on `before` → `after` at
    /// every gap in [`GAPS`], without a budget and with one at, and one
    /// byte under, the payload after each run.
    fn assert_diff_matches(before: &[u8], after: &[u8], what: &str) {
        for gap in GAPS {
            let want = page_diff_ops_bytewise(before, after, gap, usize::MAX);
            assert_eq!(
                page_diff_ops(before, after, gap, usize::MAX),
                want,
                "{what}, gap {gap}"
            );
            let mut payload = 0;
            for (_, run) in want.iter().flatten().take(4) {
                payload += run.len() + 8;
                for budget in [payload, payload - 1] {
                    assert_eq!(
                        page_diff_ops(before, after, gap, budget),
                        page_diff_ops_bytewise(before, after, gap, budget),
                        "{what}, gap {gap}, budget {budget}"
                    );
                }
            }
        }
    }

    /// A page of structured bytes, and a copy with every byte of each
    /// `start..end` range changed.
    fn with_dense_runs(runs: &[(usize, usize)]) -> (Vec<u8>, Vec<u8>) {
        with_runs_xored(runs, |_| 0x5A)
    }

    /// A page of structured bytes, and a copy with byte `k` of each
    /// `start..end` range XORed by `mask(k)`.
    fn with_runs_xored(runs: &[(usize, usize)], mask: impl Fn(usize) -> u8) -> (Vec<u8>, Vec<u8>) {
        let before: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        let mut after = before.clone();
        for &(start, end) in runs {
            for (k, b) in after[start..end].iter_mut().enumerate() {
                *b ^= mask(k);
            }
        }
        (before, after)
    }

    /// A byte whose XOR is 0x80 has nothing in its low seven bits, so
    /// only its own high bit marks it as differing inside a word.
    #[test]
    fn page_diff_ops_sees_bytes_that_differ_in_the_high_bit_alone() {
        type Mask = fn(usize) -> u8;
        let masks: [(&str, Mask); 4] = [
            ("every byte 0x80", |_| 0x80),
            (
                "0x80 and equal bytes",
                |k| if k % 3 == 0 { 0x80 } else { 0 },
            ),
            ("0x80 beside 0x01", |k| if k % 2 == 0 { 0x80 } else { 0x01 }),
            ("0x80 with 7 equal bytes between", |k| {
                if k % 8 == 0 {
                    0x80
                } else {
                    0
                }
            }),
        ];
        for (what, mask) in masks {
            for run in [(0, 64), (5, 200), (100, 2148), (PAGE_SIZE - 77, PAGE_SIZE)] {
                let (before, after) = with_runs_xored(&[run], mask);
                assert_diff_matches(&before, &after, &format!("{what} over {run:?}"));
            }
        }
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
            assert_diff_matches(&before, &after, &format!("edits at {at:?}"));
        }
        for at in PAGE_SIZE - 7..PAGE_SIZE {
            let after = edited(&[at]);
            assert_eq!(
                page_diff_ops(&before, &after, gap, usize::MAX).unwrap(),
                [(at as u32, vec![after[at]])]
            );
        }
        // Dense runs from 1 byte to the whole page (every length up to
        // 80, then a stride that meets every residue mod 8 and 32),
        // from the first byte and ending on the last.
        let lens = (1..=80)
            .chain((81..PAGE_SIZE).step_by(37))
            .chain([PAGE_SIZE]);
        for len in lens {
            for run in [(0, len), (PAGE_SIZE - len, PAGE_SIZE)] {
                let (before, after) = with_dense_runs(&[run]);
                for gap in GAPS {
                    assert_eq!(
                        page_diff_ops(&before, &after, gap, usize::MAX),
                        page_diff_ops_bytewise(&before, &after, gap, usize::MAX),
                        "dense run {run:?}, gap {gap}"
                    );
                }
            }
        }
        // Runs that start and end on either side of word and block
        // boundaries, and in the last 7 bytes; alone, and beside a
        // second run at every distance the gaps tell apart.
        let mut edges: Vec<usize> = [8, 32, 64, 96, 2048]
            .iter()
            .flat_map(|&b| [b - 1, b, b + 1])
            .collect();
        edges.extend(PAGE_SIZE - 8..=PAGE_SIZE);
        for &start in &edges {
            for &end in edges.iter().filter(|&&end| end > start) {
                let (before, after) = with_dense_runs(&[(start, end)]);
                assert_diff_matches(&before, &after, &format!("run {start}..{end}"));
                if end + 1 < PAGE_SIZE {
                    for distance in [1, 7, 8, 24, 25, 32, 33, 64, 65] {
                        let next = (end + distance).min(PAGE_SIZE - 1);
                        let (before, after) = with_dense_runs(&[(start, end), (next, next + 1)]);
                        for gap in GAPS {
                            assert_eq!(
                                page_diff_ops(&before, &after, gap, usize::MAX),
                                page_diff_ops_bytewise(&before, &after, gap, usize::MAX),
                                "runs {start}..{end} and {next}, gap {gap}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn page_diff_ops_equals_the_byte_loop_over_seeded_pages() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for pair in 0..300 {
            // Few byte values, so changed runs hold equal bytes too.
            let before: Vec<u8> = (0..PAGE_SIZE).map(|_| next(3) as u8).collect();
            let mut after = before.clone();
            for _ in 0..next(16) {
                let at = next(PAGE_SIZE);
                let longest = if next(4) == 0 { 2048 } else { 64 };
                let len = 1 + next(longest);
                let byte = next(3) as u8;
                after[at..(at + len).min(PAGE_SIZE)].fill(byte);
            }
            assert_diff_matches(&before, &after, &format!("pair {pair}"));
        }
    }

    proptest::proptest! {
        #[test]
        fn page_diff_ops_equals_the_byte_loop(
            seed: u64,
            // Fill bytes from the page's own alphabet and one beside it,
            // so changed runs hold equal bytes as well as differing ones,
            // or any byte, so a changed byte's XOR takes every value.
            edits in proptest::collection::vec(
                (
                    0..PAGE_SIZE,
                    1usize..80,
                    proptest::prop_oneof![0u8..4, proptest::prelude::any::<u8>()],
                ),
                0..12,
            ),
            gap in 0usize..70,
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
                page_diff_ops(&before, &after, gap, usize::MAX),
                page_diff_ops_bytewise(&before, &after, gap, usize::MAX)
            );
        }

        /// The budget only ever cuts a diff whose whole payload passes
        /// it; under it, the runs are the unbudgeted ones.
        #[test]
        fn page_diff_ops_gives_up_exactly_past_its_budget(
            edits in proptest::collection::vec((0..PAGE_SIZE, 1usize..600), 0..12),
            budget in 0usize..PAGE_SIZE,
        ) {
            let before = vec![0u8; PAGE_SIZE];
            let mut after = before.clone();
            for (at, len) in edits {
                after[at..(at + len).min(PAGE_SIZE)].fill(0xA5);
            }
            let full = page_diff_ops_bytewise(&before, &after, 24, usize::MAX).unwrap();
            let payload: usize = full.iter().map(|(_, run)| run.len() + 8).sum();
            let want = (payload <= budget).then_some(full);
            proptest::prop_assert_eq!(page_diff_ops(&before, &after, 24, budget), want);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_leaves_the_log_where_it_was() {
        // Every write to /dev/full fails with ENOSPC.
        let mut wal = Wal::open(Path::new("/dev/full")).unwrap();
        let (len, tail) = (wal.len(), wal.tail());
        let mut frame = Vec::new();
        push_frame(&mut frame, &sample_commits()[1]).unwrap();
        assert!(wal.append(&mut frame).is_err());
        assert_eq!((wal.len(), wal.tail()), (len, tail));
    }

    #[test]
    fn torn_tail_detected_and_truncatable() {
        let (path, wal, _) = log_of(&sample_commits());
        drop(wal);
        // Chop off the last 3 bytes, simulating a crash mid-append.
        chop(&path, 3);
        let mut wal = Wal::open(&path).unwrap();
        let (commits, tear) = commits_in(&wal);
        assert_eq!(commits, sample_commits()[..1]);
        let tear = tear.expect("torn tail reported");
        assert_eq!(tear, wal.len());
        wal.truncate_tail(tear, wal.tail()).unwrap();
        // After truncation the log replays cleanly and appends work.
        assert_eq!(commits_in(&wal), (commits.clone(), None));
        append(&mut wal, &sample_commits()[1]);
        assert_eq!(commits_in(&wal), (sample_commits(), None));
    }

    #[test]
    fn bitflip_in_payload_is_torn_tail() {
        let (path, wal, _) = log_of(&sample_commits());
        drop(wal);
        // Flip a byte in the last commit's payload.
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

        let wal = Wal::open(&path).unwrap();
        let (commits, tear) = commits_in(&wal);
        assert_eq!(commits, sample_commits()[..1]);
        assert_eq!(tear, Some(wal.len()));
    }

    #[test]
    fn reset_empties_log() {
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        append(&mut wal, &sample_commits()[0]);
        assert!(!wal.is_empty());
        wal.trim(wal.tail()).unwrap();
        assert!(wal.is_empty());
        assert!(wal.is_at_rest().unwrap());
        assert_eq!(commits_in(&wal), (Vec::new(), None));
    }

    #[test]
    fn torn_final_record_at_every_cut_point() {
        // A crash can land anywhere inside the final frame: inside the
        // 12-byte header, inside the payload, or right at the frame
        // boundary. Every cut short of a full frame must replay the
        // commits before it. A cut inside the payload leaves a header
        // that chains, so the tear is reported at the final frame's
        // start; a cut inside the header leaves too little to tell from
        // a zero fill or an older generation, and the log simply ends
        // there.
        let all = sample_commits();
        let (intact, wal, bytes) = log_of(&all);
        let before_last = log_of(&all[..1]).2.len() as u64;
        assert_eq!(commits_in(&wal), (all.clone(), None));
        // Cutting exactly at the boundary is a clean (shorter) log, not
        // a tear — start one byte past it.
        for cut in before_last + 1..bytes.len() as u64 {
            let path = TempPath::new();
            std::fs::copy(&intact, &path).unwrap();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(LOG_HEADER_LEN + cut).unwrap();
            drop(f);
            let wal = Wal::open(&path).unwrap();
            let header_whole = cut - before_last >= FRAME_HEADER_LEN as u64;
            assert_eq!(
                commits_in(&wal),
                (all[..1].to_vec(), header_whole.then_some(before_last)),
                "cut at byte {cut}"
            );
            assert_eq!(wal.len(), before_last, "cut at byte {cut}");
        }
    }

    #[test]
    fn truncate_then_append_round_trips() {
        // Repeatedly tear the tail, truncate at the reported offset,
        // and append fresh commits: every cycle must leave a log that
        // replays cleanly with the pre-tear prefix + the new commits.
        let path = TempPath::new();
        let mut expected: Vec<Vec<WalRecord>> = Vec::new();
        for cycle in 0..4u64 {
            {
                let mut wal = Wal::open(&path).unwrap();
                let keep = vec![WalRecord::PageDelta {
                    page: cycle,
                    ops: vec![(0, vec![cycle as u8])],
                }];
                append(&mut wal, &keep);
                expected.push(keep);
                append(
                    &mut wal,
                    &[WalRecord::Page {
                        page: cycle,
                        image: vec![cycle as u8; 32],
                    }],
                );
            }
            // Tear 5 bytes off the commit we do not intend to keep.
            chop(&path, 5);
            let mut wal = Wal::open(&path).unwrap();
            let (commits, tear) = commits_in(&wal);
            assert_eq!(commits, expected, "cycle {cycle}");
            let tear = tear.expect("torn tail reported");
            wal.truncate_tail(tear, wal.tail()).unwrap();
            assert_eq!(wal.len(), tear);
            assert_eq!(commits_in(&wal), (expected.clone(), None));
        }
    }

    #[test]
    fn truncate_tail_at_intact_boundary_drops_suffix() {
        // Fencing uses truncate_tail at an *intact* frame boundary to
        // drop a fully written but unwanted suffix (an ex-primary's
        // unshipped commits), not just crash debris.
        let [first, second] = <[_; 2]>::try_from(sample_commits()).unwrap();
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        append(&mut wal, &first);
        let (keep, keep_link) = (wal.len(), wal.tail());
        append(&mut wal, &second);
        wal.truncate_tail(keep, keep_link).unwrap();
        assert_eq!(commits_in(&wal), (vec![first.clone()], None));
        // Appends continue from the fenced position.
        append(&mut wal, &second);
        assert_eq!(commits_in(&wal), (vec![first, second], None));
    }

    #[test]
    fn read_span_and_append_raw_round_trip() {
        let (_src, wal, _) = log_of(&sample_commits());
        let dst = TempPath::new();
        // Ship the whole log in small spans into a second log.
        let mut replica = Wal::open(&dst).unwrap();
        let mut pos = 0u64;
        loop {
            let span = wal.read_span(pos, 7).unwrap();
            if span.is_empty() {
                break;
            }
            pos += span.len() as u64;
            replica.append_shipped(&span).unwrap();
        }
        assert_eq!(replica.len(), wal.len());
        assert_eq!(commits_in(&replica), (sample_commits(), None));
        // Past-the-end reads are empty, not errors.
        assert!(wal.read_span(wal.len(), 64).unwrap().is_empty());
        assert!(wal.read_span(wal.len() + 100, 64).unwrap().is_empty());
    }

    #[test]
    fn replay_reassembles_across_pushes() {
        let all = sample_commits();
        let (_path, _wal, bytes) = log_of(&all);
        let ends = [log_of(&all[..1]).2.len(), bytes.len()];
        // Feed one byte at a time: each commit must pop out exactly when
        // its frame's last byte arrives, and the offset then moves to
        // that frame's end.
        let mut replay = Replay::new(0, FRESH);
        let mut got = Vec::new();
        for (fed, b) in bytes.iter().enumerate() {
            replay.push(std::slice::from_ref(b));
            got.extend(drain(&mut replay));
            let reached: Vec<usize> = ends.into_iter().filter(|&end| end <= fed + 1).collect();
            assert_eq!(got.len(), reached.len(), "byte {fed}");
            assert_eq!(replay.offset(), reached.last().map_or(0, |&end| end as u64));
        }
        assert_eq!(got, all);
        assert_eq!(replay.link(), log_of(&all).1.tail());
    }

    #[test]
    fn replay_reports_corrupt_complete_frame() {
        let (_path, _wal, mut bytes) = log_of(&sample_commits()[..1]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut replay = Replay::new(0, FRESH);
        replay.push(&bytes);
        // Reported at its offset, and again on every later call: whether
        // it is a tear or corruption is the caller's to say.
        for _ in 0..2 {
            assert_eq!(replay.next_commit().unwrap(), Scan::BadCrc);
            assert_eq!(replay.offset(), 0);
        }
        // An intact frame whose payload is not a run of records (here a
        // record kind that does not exist) is an error, at its offset,
        // wherever the bytes came from.
        let mut frame = Vec::new();
        let at = open_frame(&mut frame);
        frame.push(7);
        close_frame(&mut frame, at).unwrap();
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&mut frame).unwrap();
        let mut replay = Replay::new(0, FRESH);
        replay.push(&frame);
        for _ in 0..2 {
            assert!(matches!(
                replay.next_commit(),
                Err(StorageError::WalCorrupt { offset: 0 })
            ));
        }
    }

    #[test]
    fn a_torn_commit_lends_no_pages_to_the_next_one() {
        // A commit of page 3 was torn by a crash; the next session's
        // commit of page 4 overwrites the torn frame's start, and the
        // rest of the torn frame still lies behind it. Replay yields
        // page 4 alone: the torn bytes no longer chain.
        let torn = vec![WalRecord::Page {
            page: 3,
            image: vec![0xEE; 200],
        }];
        let next = vec![WalRecord::Page {
            page: 4,
            image: vec![2],
        }];
        let (path, wal, _) = log_of(&[torn]);
        drop(wal);
        chop(&path, 1);
        let mut wal = Wal::open(&path).unwrap();
        assert!(wal.is_empty());
        append(&mut wal, &next);
        let file_len = std::fs::metadata(&path).unwrap().len();
        assert!(file_len > LOG_HEADER_LEN + wal.len(), "torn bytes remain");
        assert_eq!(commits_in(&wal), (vec![next.clone()], None));
        let reopened = Wal::open(&path).unwrap();
        assert_eq!((reopened.len(), reopened.tail()), (wal.len(), wal.tail()));
    }

    #[test]
    fn apply_rejects_out_of_page_changes_at_their_frame() {
        let commits = [
            sample_commits()[0].clone(),
            vec![
                WalRecord::PageDelta {
                    page: 1,
                    ops: vec![(0, vec![1])],
                },
                WalRecord::PageDelta {
                    page: 2,
                    ops: vec![(PAGE_SIZE as u32 - 1, vec![7, 7])],
                },
            ],
        ];
        let mut replay = Replay::new(0, FRESH);
        replay.push(&log_of(&commits).2);
        let Scan::Found(_) = replay.next_commit().unwrap() else {
            panic!("the first commit");
        };
        let offset = replay.offset();
        let Scan::Found(tx) = replay.next_commit().unwrap() else {
            panic!("the second commit");
        };
        assert_eq!(tx.offset, offset);
        assert!(matches!(
            tx.apply(&mut BTreeMap::new(), |_| Ok(PageBuf::zeroed())),
            Err(StorageError::WalCorrupt { offset: at }) if at == offset
        ));
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let [first, second] = <[_; 2]>::try_from(sample_commits()).unwrap();
        let path = TempPath::new();
        append(&mut Wal::open(&path).unwrap(), &first);
        let mut wal = Wal::open(&path).unwrap();
        append(&mut wal, &second);
        assert_eq!(commits_in(&wal), (sample_commits(), None));
    }

    #[test]
    fn a_generation_that_rewrites_an_older_first_commit_does_not_revive_its_later_frames() {
        // Generation A logs two commits. Generation B, recycled from A's
        // end, logs A's first commit again — the same records, so the
        // same payload and CRC byte for byte — and the log ends there:
        // A's second commit still sits intact right behind it.
        let commits = sample_commits();
        let (path, mut wal, _) = log_of(&commits);
        let a_len = wal.len();
        let a_seed = wal.seed();
        wal.recycle(wal.tail()).unwrap();
        assert_ne!(wal.seed(), a_seed);
        append(&mut wal, &commits[0]);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            LOG_HEADER_LEN + a_len
        );
        // Only B's frame chains; A's second commit is not this log's.
        let wal = Wal::open(&path).unwrap();
        assert_eq!(commits_in(&wal), (commits[..1].to_vec(), None));
        let mut replay = Replay::new(0, wal.seed());
        replay.push(&std::fs::read(&path).unwrap()[LOG_HEADER_LEN as usize..]);
        assert_eq!(drain(&mut replay), commits[..1]);
        assert_eq!(replay.next_commit().unwrap(), Scan::Unchained);
    }

    #[test]
    fn recycle_keeps_the_file_and_trim_cuts_it_to_the_header() {
        let (path, mut wal, _) = log_of(&sample_commits());
        let file_len = std::fs::metadata(&path).unwrap().len();
        wal.recycle(wal.tail()).unwrap();
        assert!(wal.is_empty());
        assert!(!wal.is_at_rest().unwrap());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), file_len);
        // The old generation's bytes read as the end of the new one.
        assert_eq!(commits_in(&wal), (Vec::new(), None));
        append(&mut wal, &sample_commits()[0]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), file_len);
        let reopened = Wal::open(&path).unwrap();
        assert_eq!((reopened.len(), reopened.tail()), (wal.len(), wal.tail()));
        wal.trim(wal.tail()).unwrap();
        assert!(wal.is_at_rest().unwrap());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), LOG_HEADER_LEN);
    }

    #[test]
    fn a_zero_frame_ends_the_log_even_where_its_zero_link_would_chain() {
        // After this link, a frame whose payload CRC is 0 links to 0: an
        // all-zero frame header carries exactly the link that chains, and
        // `crc32` of its empty payload is 0 too. Only the rule that a
        // frame is never empty ends the log at a zero fill there.
        const CHAINS_TO_ZERO: u32 = 0x101B_2F50;
        assert_eq!(link(CHAINS_TO_ZERO, 0), 0);
        assert_eq!(parse_frame(&[0; 64], CHAINS_TO_ZERO), Scan::Unchained);
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        wal.trim(CHAINS_TO_ZERO).unwrap();
        std::fs::write(
            &path,
            [&log_header(CHAINS_TO_ZERO)[..], &[0; 4096]].concat(),
        )
        .unwrap();
        let wal = Wal::open(&path).unwrap();
        assert!(wal.is_empty());
        assert_eq!(commits_in(&wal), (Vec::new(), None));
    }

    #[test]
    fn a_log_without_the_header_is_refused_and_left_as_it_is() {
        // A format-3 log: records framed `[len][crc][payload]`, with no
        // header.
        let path = TempPath::new();
        let mut old = Vec::new();
        for record in sample_commits().concat() {
            let payload = to_bytes(&record);
            old.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            old.extend_from_slice(&crc32(&payload).to_le_bytes());
            old.extend_from_slice(&payload);
        }
        // The previous build's log: the header at version 1, then one
        // chained frame per record — `Begin { tx: 1 }` (kind 0), a page
        // image (kind 1) and `Commit { tx: 1 }` (kind 2).
        let mut version_1 = vec![
            b'O', b'D', b'E', b'W', 1, 0, 0, 0, 0xED, 0x5E, 0xAD, 0x0B, 0x35, 0xE5, 0xF5, 0x33,
        ];
        let mut prev = 0x0BAD_5EED;
        for payload in [&[0, 1][..], &[1, 1, 3, 2, 9, 9], &[2, 1]] {
            let crc = crc32(payload);
            prev = link(prev, crc);
            for word in [payload.len() as u32, crc, prev] {
                version_1.extend_from_slice(&word.to_le_bytes());
            }
            version_1.extend_from_slice(payload);
        }
        for refused in [&old, &version_1] {
            std::fs::write(&path, refused).unwrap();
            assert!(matches!(
                Wal::open(&path),
                Err(StorageError::UnsupportedLog)
            ));
            assert_eq!(&std::fs::read(&path).unwrap(), refused);
        }
        // A header of zeroes never landed: whatever follows it, the log
        // is empty, and not at rest until something trims it.
        std::fs::write(&path, [&[0; LOG_HEADER_LEN as usize][..], &old].concat()).unwrap();
        let wal = Wal::open(&path).unwrap();
        assert_eq!(commits_in(&wal), (Vec::new(), None));
        assert!(!wal.is_at_rest().unwrap());
        // An empty file is an empty log; its first append writes the header.
        std::fs::write(&path, []).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert!(wal.is_at_rest().unwrap());
        append(&mut wal, &sample_commits()[0]);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(parse_log_header(&bytes), Some(FRESH));
    }
}
