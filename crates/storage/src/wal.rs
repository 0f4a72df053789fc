//! Redo-only write-ahead log.
//!
//! Commit protocol: at transaction commit the store frames a `Begin`,
//! the changed byte ranges (or, for a heavily rewritten page, the full
//! after-image) of every page the transaction dirtied and a `Commit`
//! into one buffer, appends that buffer with one write, then
//! (optionally) fsyncs. The database file itself is only updated at
//! checkpoints, each of which starts a new *generation* of the log.
//!
//! **File.** A 16-byte header — magic, version, seed, and a CRC of the
//! three ([`LOG_HEADER_LEN`]) — then the generation's frames. An empty
//! file is an empty log; its first append writes the header. So is a
//! file whose header is all zeroes: a header that never landed, under
//! which no frame was ever acknowledged. A file that starts with
//! anything else but the header is another build's log, and
//! [`Wal::open`] refuses it with [`StorageError::UnsupportedLog`].
//!
//! **Frames.** Every record is `[u32 len][u32 crc32(payload)][u32 link]
//! [payload]` ([`push_frame`]). The links chain: `link =
//! crc32(previous link ‖ this frame's payload crc)`, and the
//! generation's first frame chains from the header's seed. A frame is
//! intact only if its length is not zero, its payload matches its CRC
//! and its link matches, and parsing stops at the first frame that is
//! not. Because a link depends on every frame since the seed, that one
//! rule ends the log at a torn tail, at a zero fill, and at any older
//! generation's bytes alike — even an older frame this generation
//! rewrote byte for byte in its payload cannot lend its successors a
//! matching link. Payload CRCs are computed by [`push_frame`], outside
//! the store's write mutex; [`Wal::append`] fills in only the links.
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
//! The read side is one path in three steps, shared by crash recovery,
//! replica apply and `odedump wal`: [`parse_frame`] checks one frame,
//! [`Replay`] assembles frames into committed transactions, and
//! [`CommittedTx::apply`] lays logged changes onto base images. A
//! frame that is short or not intact is reported, never judged, here:
//! over a local log it is the end of the generation (everything before
//! it is intact by construction), over a shipped stream it is
//! transport corruption. Transactions without a `Commit` are simply
//! never yielded.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;

use ode_codec::{from_bytes, impl_persist_enum, to_bytes, varint};

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
/// Version of the log format (chained frames after a seeded header).
const LOG_VERSION: u32 = 1;

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

/// Fill in the links of whole frames built by [`push_frame`], chaining
/// from `prev`; returns the last frame's link (`prev` for no frames).
fn link_frames(frames: &mut [u8], mut prev: u32) -> u32 {
    let mut pos = 0;
    while pos < frames.len() {
        let (payload_len, crc) = (le_u32(frames, pos) as usize, le_u32(frames, pos + 4));
        prev = link(prev, crc);
        frames[pos + 8..pos + 12].copy_from_slice(&prev.to_le_bytes());
        pos += FRAME_HEADER_LEN + payload_len;
    }
    prev
}

/// One logical record in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction began. Replay forgets anything logged under the
    /// same id before it: ids restart with every open, so an earlier
    /// holder of the id that never committed must not lend its pages
    /// to this one.
    Begin {
        /// Transaction id (unique within one session).
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
    /// current generation. Writes nothing and does not replay — see
    /// [`Wal::records`]. A file that starts with anything but this
    /// format's header (or a header of zeroes that never landed) is
    /// refused with [`StorageError::UnsupportedLog`].
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
            wal.tail = wal.seed;
            if let Some(last) = wal.frames()?.0.last() {
                wal.len = last.offset + (FRAME_HEADER_LEN as u64) + u64::from(last.payload_len);
                wal.tail = last.link;
            }
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

    /// Link `frames` — whole frames built by [`push_frame`] — onto the
    /// end of the log and append them with one write (not yet durable;
    /// call [`Wal::sync`]). On error neither the append position nor
    /// the tail link moves; any bytes the failed write left do not
    /// chain past the next append's frames.
    pub fn append(&mut self, frames: &mut [u8]) -> Result<()> {
        let tail = link_frames(frames, self.tail);
        self.write(frames)?;
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

    /// Every intact frame of the current generation, read from the file
    /// itself, then the offset of a torn frame, if any (see [`frames`]).
    pub fn frames(&mut self) -> Result<(Vec<FrameAt>, Option<u64>)> {
        let mut data = Vec::new();
        if self.headed {
            self.file.seek(SeekFrom::Start(LOG_HEADER_LEN))?;
            self.file.read_to_end(&mut data)?;
        }
        Ok(frames(&data, self.seed))
    }

    /// Read every intact record of the current generation.
    ///
    /// Returns the records and the frame offset of a torn frame, if any
    /// (see [`frames`]). A torn tail is *expected* after a crash and is
    /// not an error.
    pub fn records(&mut self) -> Result<(Vec<WalRecord>, Option<u64>)> {
        let (found, tear) = self.frames()?;
        // Framing intact but the payload does not parse: that is real
        // corruption, not a torn tail.
        let records = found
            .into_iter()
            .map(|frame| {
                frame.record.ok_or(StorageError::WalCorrupt {
                    offset: frame.offset,
                })
            })
            .collect::<Result<_>>()?;
        Ok((records, tear))
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
    /// `link`: a torn tail found by [`Wal::records`], or a fence, so
    /// later appends start from a clean frame boundary.
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

/// Frame `record` onto the end of `out`: `[u32 len][u32 crc32(payload)]
/// [u32 link][payload]`, the payload being the record's codec bytes.
/// The link is left zero for [`Wal::append`] to fill in. With
/// [`push_page_frame`], the log's only frame encoder, the inverse of
/// [`parse_frame`].
pub fn push_frame(out: &mut Vec<u8>, record: &WalRecord) {
    let at = open_frame(out);
    out.extend_from_slice(&to_bytes(record));
    close_frame(out, at);
}

/// Frame the record of page `page` in transaction `tx` onto the end of
/// `out`, encoding it straight from `after`: a [`WalRecord::PageDelta`]
/// of `after`'s bytes in `runs`, or with no runs a [`WalRecord::Page`]
/// of all of it. The bytes are [`push_frame`]'s for the owned record;
/// only the copies into that record are skipped.
pub fn push_page_frame(
    out: &mut Vec<u8>,
    tx: u64,
    page: u64,
    after: &[u8],
    runs: Option<&[Range<usize>]>,
) {
    // The codec's enum tags: variants count from 0 in declaration order.
    const PAGE: u64 = 1;
    const PAGE_DELTA: u64 = 3;
    let at = open_frame(out);
    match runs {
        Some(runs) => {
            for word in [PAGE_DELTA, tx, page, runs.len() as u64] {
                varint::write_u64(out, word);
            }
            for run in runs {
                varint::write_u64(out, run.start as u64);
                varint::write_u64(out, run.len() as u64);
                out.extend_from_slice(&after[run.clone()]);
            }
        }
        None => {
            for word in [PAGE, tx, page, after.len() as u64] {
                varint::write_u64(out, word);
            }
            out.extend_from_slice(after);
        }
    }
    close_frame(out, at);
}

/// Start a frame at the end of `out`: a header to be filled in by
/// [`close_frame`] once the payload follows it. Returns where it starts.
fn open_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    at
}

/// Fill in the length and CRC of the frame at `at`, whose payload runs
/// to the end of `out`; the link stays zero.
fn close_frame(out: &mut [u8], at: usize) {
    let payload = &out[at + FRAME_HEADER_LEN..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Check the frame at the start of `buf` against the link `prev` of
/// the frame before it (or the seed): its payload length (the frame is
/// [`FRAME_HEADER_LEN`] bytes longer), its link and its decoded
/// payload, `None` when that is not a [`WalRecord`]. The header is
/// judged before the payload is waited for, so bytes that are not this
/// generation's are rejected whatever length they claim. This is the
/// log's only frame parser; what a short or bad frame *means* is the
/// caller's call (see the module docs).
pub fn parse_frame(buf: &[u8], prev: u32) -> Scan<(u32, u32, Option<WalRecord>)> {
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
    Scan::Found((payload_len, chained, from_bytes(payload).ok()))
}

/// One intact frame of a log image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameAt {
    /// Offset of the frame from the end of the log header.
    pub offset: u64,
    /// Payload bytes (the frame adds [`FRAME_HEADER_LEN`]).
    pub payload_len: u32,
    /// The frame's link.
    pub link: u32,
    /// The decoded payload, `None` when it is not a [`WalRecord`].
    pub record: Option<WalRecord>,
}

/// Walk the frames of a generation chained from `seed` (the bytes after
/// the log header): every intact frame, then the offset of a *torn*
/// frame — one whose header chains but whose payload is cut short or
/// fails its CRC — if the walk ended at one. Anything else that ends
/// the walk (no bytes, too few for a header, a header that does not
/// chain) is the end of the generation and reads `None`: a zero fill
/// or an older generation's bytes are not damage.
pub fn frames(data: &[u8], seed: u32) -> (Vec<FrameAt>, Option<u64>) {
    let mut found = Vec::new();
    let (mut pos, mut prev) = (0usize, seed);
    loop {
        match parse_frame(&data[pos..], prev) {
            Scan::Found((payload_len, link, record)) => {
                found.push(FrameAt {
                    offset: pos as u64,
                    payload_len,
                    link,
                    record,
                });
                pos += FRAME_HEADER_LEN + payload_len as usize;
                prev = link;
            }
            Scan::Incomplete if data.len() - pos >= FRAME_HEADER_LEN => {
                return (found, Some(pos as u64))
            }
            Scan::BadCrc => return (found, Some(pos as u64)),
            Scan::Incomplete | Scan::Unchained => return (found, None),
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
    /// zero when logged); a base the caller cannot give fails the
    /// apply. A full image needs no base. A change that does not fit a
    /// page is reported at its frame's offset.
    pub fn apply(
        self,
        pages: &mut BTreeMap<PageId, PageBuf>,
        base: impl Fn(PageId) -> Result<PageBuf>,
    ) -> Result<()> {
        for (offset, record) in self.0 {
            let corrupt = StorageError::WalCorrupt { offset };
            match record {
                WalRecord::Page { page, image, .. } => {
                    pages.insert(PageId(page), PageBuf::from_vec(image).ok_or(corrupt)?);
                }
                WalRecord::PageDelta { page, ops, .. } => {
                    let page = match pages.entry(PageId(page)) {
                        Entry::Occupied(image) => image.into_mut(),
                        Entry::Vacant(slot) => slot.insert(base(PageId(page))?),
                    };
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
    /// Link of the last parsed frame (the seed before the first).
    link: u32,
    open: HashMap<u64, Vec<(u64, WalRecord)>>,
    committed_end: u64,
    committed_link: u32,
    max_tx: u64,
}

impl Replay {
    /// A replay whose first pushed byte sits at stream offset `start`,
    /// a frame boundary where the chain's link is `seed`.
    pub fn new(start: u64, seed: u32) -> Replay {
        Replay {
            offset: start,
            link: seed,
            committed_end: start,
            committed_link: seed,
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
    /// [`Scan::Unchained`] or [`Scan::BadCrc`], of the bad frame.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Stream offset just past the last yielded commit. Everything from
    /// here on belongs to no committed transaction — the point a log is
    /// fenced at before it takes new appends.
    pub fn committed_end(&self) -> u64 {
        self.committed_end
    }

    /// The chain's link at [`Replay::committed_end`]: what the next
    /// frame after the fence chains from, and the seed of a generation
    /// started there.
    pub fn committed_link(&self) -> u32 {
        self.committed_link
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
            let (payload_len, link, record) = match parse_frame(&self.buf[self.head..], self.link) {
                Scan::Found(frame) => frame,
                Scan::Incomplete => return Ok(Scan::Incomplete),
                Scan::Unchained => return Ok(Scan::Unchained),
                Scan::BadCrc => return Ok(Scan::BadCrc),
            };
            let record = record.ok_or(StorageError::WalCorrupt { offset })?;
            let frame_len = FRAME_HEADER_LEN + payload_len as usize;
            self.head += frame_len;
            self.offset += frame_len as u64;
            self.link = link;
            let tx = record.tx();
            self.max_tx = self.max_tx.max(tx);
            match record {
                WalRecord::Begin { .. } => {
                    self.open.insert(tx, Vec::new());
                }
                WalRecord::Commit { .. } => {
                    self.committed_end = self.offset;
                    self.committed_link = link;
                    let records = self.open.remove(&tx).unwrap_or_default();
                    return Ok(Scan::Found(CommittedTx(records)));
                }
                page_record => self.open.entry(tx).or_default().push((offset, page_record)),
            }
        }
    }
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
    use std::io::Write;

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

    /// Frame `record` and append it alone: the per-record append the
    /// log made before a commit became one write.
    fn append(wal: &mut Wal, record: &WalRecord) {
        let mut frame = Vec::new();
        push_frame(&mut frame, record);
        wal.append(&mut frame).unwrap();
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
        let mut replay = Replay::new(0, FRESH);
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
    fn frame_bytes_are_the_log_format() {
        // Literal bytes of a log file: the header (magic "ODEW", version
        // 1, seed, CRC of the three), then two frames `[len][crc][link]
        // [payload]`, the first chained from the seed and the second
        // from the first. The frame format must not move when the code
        // behind it does.
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        wal.trim(0x0BAD_5EED).unwrap();
        append(&mut wal, &WalRecord::Begin { tx: 7 });
        append(&mut wal, &WalRecord::Commit { tx: 7 });
        let header: &[u8] = &[
            b'O', b'D', b'E', b'W', 1, 0, 0, 0, 0xED, 0x5E, 0xAD, 0x0B, 0x35, 0xE5, 0xF5, 0x33,
        ];
        let begin: &[u8] = &[
            2, 0, 0, 0, 0x5C, 0x87, 0xBD, 0xDF, 0xBD, 0xEC, 0xE9, 0xFE, 0, 7,
        ];
        let commit: &[u8] = &[
            2, 0, 0, 0, 0xDE, 0xE5, 0x8B, 0xED, 0xAE, 0x77, 0xF0, 0x45, 2, 7,
        ];
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [header, begin, commit].concat()
        );
        let (frames, tear) = wal.frames().unwrap();
        assert_eq!(tear, None);
        let links: Vec<u32> = frames.iter().map(|f| f.link).collect();
        assert_eq!(
            links,
            [
                link(0x0BAD_5EED, crc32(&[0, 7])),
                link(links[0], crc32(&[2, 7]))
            ]
        );
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
        for (tx, runs) in shapes.iter().enumerate() {
            let (tx, page) = (tx as u64 * 1000, 1 << (10 * tx));
            let record = match runs {
                Some(runs) => WalRecord::PageDelta {
                    tx,
                    page,
                    ops: runs
                        .iter()
                        .map(|run| (run.start as u32, after[run.clone()].to_vec()))
                        .collect(),
                },
                None => WalRecord::Page {
                    tx,
                    page,
                    image: after.clone(),
                },
            };
            let (mut want, mut got) = (b"prefix".to_vec(), b"prefix".to_vec());
            push_frame(&mut want, &record);
            push_page_frame(&mut got, tx, page, &after, runs.as_deref());
            assert_eq!(got, want, "{runs:?}");
        }
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
        let before = wal.len();
        let mut frames = Vec::new();
        push_frame(&mut frames, &WalRecord::Begin { tx: 1 });
        push_frame(&mut frames, &WalRecord::Commit { tx: 1 });
        assert!(wal.append(&mut frames).is_err());
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
        wal.truncate_tail(tear, wal.tail()).unwrap();
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
        wal.trim(wal.tail()).unwrap();
        assert!(wal.is_empty());
        assert!(wal.is_at_rest().unwrap());
        let (records, tear) = wal.records().unwrap();
        assert!(records.is_empty());
        assert_eq!(tear, None);
    }

    #[test]
    fn torn_final_record_at_every_cut_point() {
        // A crash can land anywhere inside the final frame: inside the
        // 12-byte header, inside the payload, or right at the frame
        // boundary. Every cut short of a full frame must replay the
        // prefix. A cut inside the payload leaves a header that chains,
        // so the tear is reported at the final frame's start; a cut
        // inside the header leaves too little to tell from a zero fill
        // or an older generation, and the log simply ends there.
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
            f.set_len(LOG_HEADER_LEN + cut).unwrap();
            drop(f);
            let mut wal = Wal::open(&path).unwrap();
            let (records, tear) = wal.records().unwrap();
            assert_eq!(records, sample_records()[..sample_records().len() - 1]);
            let header_whole = cut - before_last >= FRAME_HEADER_LEN as u64;
            assert_eq!(
                tear,
                header_whole.then_some(before_last),
                "cut at byte {cut}"
            );
            assert_eq!(wal.len(), before_last, "cut at byte {cut}");
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
            wal.truncate_tail(tear, wal.tail()).unwrap();
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
        let (keep, keep_link) = (wal.len(), wal.tail());
        append(&mut wal, &WalRecord::Begin { tx: 2 });
        append(&mut wal, &WalRecord::Commit { tx: 2 });
        wal.truncate_tail(keep, keep_link).unwrap();
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
            replica.append_shipped(&span).unwrap();
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
        let mut replay = Replay::new(0, FRESH);
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
        let mut records = sample_records();
        records.push(WalRecord::Commit { tx: 2 });
        let (_p, _w, with_commit) = log_of(&records);
        replay.push(&with_commit[bytes.len()..]);
        assert_eq!(drain(&mut replay), sample_records()[4..]);
        assert_eq!(replay.committed_end(), bytes.len() as u64 + 14);
        assert_eq!(replay.committed_end(), with_commit.len() as u64);
    }

    #[test]
    fn replay_reports_corrupt_complete_frame() {
        let (_path, _wal, mut bytes) = log_of(&[WalRecord::Begin { tx: 1 }]);
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
        let mut replay = Replay::new(0, FRESH);
        replay.push(&log_of(&records).2);
        let Scan::Found(tx) = replay.next_commit().unwrap() else {
            panic!("one committed transaction");
        };
        let offset = log_of(&records[..1]).2.len() as u64;
        assert!(matches!(
            tx.apply(&mut BTreeMap::new(), |_| Ok(PageBuf::zeroed())),
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

    /// Two committed transactions, each `Begin`, one page, `Commit`.
    fn two_commits() -> Vec<WalRecord> {
        (1..=2u64)
            .flat_map(|tx| {
                [
                    WalRecord::Begin { tx },
                    WalRecord::Page {
                        tx,
                        page: tx,
                        image: vec![tx as u8; 5],
                    },
                    WalRecord::Commit { tx },
                ]
            })
            .collect()
    }

    #[test]
    fn a_generation_that_rewrites_an_older_first_commit_does_not_revive_its_later_frames() {
        // Generation A logs two commits. Generation B, recycled from A's
        // end, logs A's first commit again — the same records, so the
        // same payloads and CRCs byte for byte — and the log ends there:
        // A's second commit still sits intact right behind it.
        let records = two_commits();
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        for r in &records {
            append(&mut wal, r);
        }
        let a_len = wal.len();
        let a_seed = wal.seed();
        wal.recycle(wal.tail()).unwrap();
        assert_ne!(wal.seed(), a_seed);
        for r in &records[..3] {
            append(&mut wal, r);
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            LOG_HEADER_LEN + a_len
        );
        // Only B's frames chain; A's second commit is not this log's.
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.records().unwrap(), (records[..3].to_vec(), None));
        let mut replay = Replay::new(0, wal.seed());
        replay.push(&std::fs::read(&path).unwrap()[LOG_HEADER_LEN as usize..]);
        assert_eq!(drain(&mut replay), records[1..2]);
        assert_eq!(replay.next_commit().unwrap(), Scan::Unchained);
    }

    #[test]
    fn recycle_keeps_the_file_and_trim_cuts_it_to_the_header() {
        let path = TempPath::new();
        let mut wal = Wal::open(&path).unwrap();
        for r in &two_commits() {
            append(&mut wal, r);
        }
        let file_len = std::fs::metadata(&path).unwrap().len();
        wal.recycle(wal.tail()).unwrap();
        assert!(wal.is_empty());
        assert!(!wal.is_at_rest().unwrap());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), file_len);
        // The old generation's bytes read as the end of the new one.
        assert_eq!(wal.records().unwrap(), (Vec::new(), None));
        append(&mut wal, &WalRecord::Begin { tx: 9 });
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
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.records().unwrap(), (Vec::new(), None));
    }

    #[test]
    fn a_log_without_the_header_is_refused_and_left_as_it_is() {
        // A format-3 log: the same records framed `[len][crc][payload]`,
        // with no header.
        let path = TempPath::new();
        let mut old = Vec::new();
        for r in &two_commits() {
            let payload = to_bytes(r);
            old.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            old.extend_from_slice(&crc32(&payload).to_le_bytes());
            old.extend_from_slice(&payload);
        }
        std::fs::write(&path, &old).unwrap();
        assert!(matches!(
            Wal::open(&path),
            Err(StorageError::UnsupportedLog)
        ));
        assert_eq!(std::fs::read(&path).unwrap(), old);
        // A header of zeroes never landed: whatever follows it, the log
        // is empty, and not at rest until something trims it.
        std::fs::write(&path, [&[0; LOG_HEADER_LEN as usize][..], &old].concat()).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.records().unwrap(), (Vec::new(), None));
        assert!(!wal.is_at_rest().unwrap());
        // An empty file is an empty log; its first append writes the header.
        std::fs::write(&path, []).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert!(wal.is_at_rest().unwrap());
        append(&mut wal, &WalRecord::Begin { tx: 1 });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(parse_log_header(&bytes), Some(FRESH));
    }
}
