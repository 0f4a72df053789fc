//! Raw page file: page-granular reads and writes with checksums.
//!
//! The pager knows nothing about allocation, free lists, or transactions —
//! that logic lives in [`crate::store`], which keeps the store header
//! (page 0) in the buffer pool like any other page.  The pager's only
//! responsibilities are positioned I/O, checksum sealing/verification,
//! and growing the file when a page beyond EOF is written (recovery may
//! apply write-ahead-log images out of order).
//!
//! All I/O is *positional* (`pread`/`pwrite`-style), so every method
//! takes `&self`: concurrent readers never contend on a shared file
//! cursor, which is what lets the buffer pool above serve cache misses
//! without an exclusive lock.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::{Result, StorageError};

#[cfg(unix)]
use std::os::unix::fs::FileExt;
#[cfg(not(unix))]
use std::sync::PoisonError;

/// File-backed page manager.
pub struct Pager {
    file: File,
    /// Number of whole pages physically present in the file.
    file_pages: AtomicU64,
    /// Cursor lock for the non-`pread` fallback; unused on unix.
    #[cfg(not(unix))]
    cursor: std::sync::Mutex<()>,
}

impl Pager {
    /// Create a new, empty page file (truncating any existing one).
    pub fn create(path: &Path) -> Result<Pager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Pager {
            file,
            file_pages: AtomicU64::new(0),
            #[cfg(not(unix))]
            cursor: std::sync::Mutex::new(()),
        })
    }

    /// Open an existing page file. The length must be page-aligned; a
    /// ragged tail means the file is not an Ode store (the WAL protects
    /// page writes, so torn pages inside the file are caught by
    /// checksums, not length checks).
    pub fn open(path: &Path) -> Result<Pager> {
        Pager::from_file(OpenOptions::new().read(true).write(true).open(path)?)
    }

    /// Open an existing page file for reading only, so every write to
    /// it fails: a test aid for the paths a failed write-back takes.
    #[cfg(test)]
    pub(crate) fn open_refusing_writes(path: &Path) -> Result<Pager> {
        Pager::from_file(OpenOptions::new().read(true).open(path)?)
    }

    fn from_file(file: File) -> Result<Pager> {
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::BadMagic);
        }
        Ok(Pager {
            file,
            file_pages: AtomicU64::new(len / PAGE_SIZE as u64),
            #[cfg(not(unix))]
            cursor: std::sync::Mutex::new(()),
        })
    }

    /// Number of whole pages physically in the file.
    pub fn file_pages(&self) -> u64 {
        self.file_pages.load(Ordering::Acquire)
    }

    /// Read a page, verifying its checksum.
    pub fn read_page(&self, id: PageId) -> Result<PageBuf> {
        let file_pages = self.file_pages();
        if id.0 >= file_pages {
            return Err(StorageError::PageOutOfBounds {
                page: id,
                page_count: file_pages,
            });
        }
        let page = self.read_unverified(id)?;
        if !page.verify() {
            return Err(StorageError::ChecksumMismatch { page: id });
        }
        Ok(page)
    }

    /// The image recovery lays a page's logged changes on: the page as
    /// stored, or zeroes for a page past the end of the file or one
    /// never written (all zero bytes: a gap `set_len` left). Any other
    /// page that fails its checksum — a torn checkpoint write, bit rot —
    /// is refused, because the logged runs over zeroes would be sealed
    /// as a valid page.
    pub(crate) fn recovery_base(&self, id: PageId) -> Result<PageBuf> {
        if id.0 >= self.file_pages() {
            return Ok(PageBuf::zeroed());
        }
        let page = self.read_unverified(id)?;
        if page.verify() || page.as_bytes().iter().all(|&b| b == 0) {
            Ok(page)
        } else {
            Err(StorageError::ChecksumMismatch { page: id })
        }
    }

    fn read_unverified(&self, id: PageId) -> Result<PageBuf> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.read_exact_at(&mut buf, id.file_offset())?;
        Ok(PageBuf::from_vec(buf).expect("page-sized buffer"))
    }

    /// Write a page image, sealing its checksum. Writing beyond EOF grows
    /// the file; any gap pages are zero-filled (and will fail checksum
    /// verification if ever read before being written, which is the
    /// desired corruption signal).
    ///
    /// Writers are externally serialized (recovery, then the store's
    /// checkpoint path, both run under the store's write lock); `&self`
    /// here only grants lock-free *reads* alongside them.
    pub fn write_page(&self, id: PageId, page: &mut PageBuf) -> Result<()> {
        page.seal();
        self.write_sealed_run(id, page.as_bytes())
    }

    /// Write `images` — whole page images, each already sealed — as the
    /// pages from `first` on, with one positional write. A run that
    /// reaches past EOF grows the file by that write alone; only a run
    /// that starts past EOF needs the gap before it zero-filled first,
    /// with the same meaning as in [`Pager::write_page`]. A failed write
    /// leaves the file a whole number of pages long. Serialized like
    /// [`Pager::write_page`].
    pub fn write_sealed_run(&self, first: PageId, images: &[u8]) -> Result<()> {
        debug_assert!(images.len().is_multiple_of(PAGE_SIZE));
        let file_pages = self.file_pages();
        if first.0 > file_pages {
            self.file.set_len(first.file_offset())?;
            self.file_pages.fetch_max(first.0, Ordering::AcqRel);
        }
        let end = first.0 + (images.len() / PAGE_SIZE) as u64;
        if let Err(e) = self.write_all_at(images, first.file_offset()) {
            // A write that failed past EOF may have grown the file by a
            // part of a page; cut it back to whole pages, or the next
            // open would refuse the ragged length.
            if end > self.file_pages() {
                let _ = self.file.set_len(self.file_pages() * PAGE_SIZE as u64);
            }
            return Err(e.into());
        }
        self.file_pages.fetch_max(end, Ordering::AcqRel);
        Ok(())
    }

    /// Replace the whole file with `bytes` (a snapshot of another
    /// store's page file, installed by replication). The caller holds
    /// the store's write lock *and* the snapshot gate exclusively, so
    /// no reader can observe the half-replaced file.
    pub fn replace_contents(&self, bytes: &[u8]) -> Result<()> {
        if !bytes.len().is_multiple_of(PAGE_SIZE) {
            return Err(StorageError::BadMagic);
        }
        self.file.set_len(bytes.len() as u64)?;
        if !bytes.is_empty() {
            self.write_all_at(bytes, 0)?;
        }
        self.file_pages
            .store((bytes.len() / PAGE_SIZE) as u64, Ordering::Release);
        self.file.sync_data()?;
        Ok(())
    }

    /// Read the raw bytes of the whole file (the shipping side of
    /// [`Pager::replace_contents`]). The caller serializes against
    /// writers; concurrent positional reads are unaffected.
    pub fn raw_contents(&self) -> Result<Vec<u8>> {
        let len = (self.file_pages() as usize) * PAGE_SIZE;
        let mut buf = vec![0u8; len];
        if len > 0 {
            self.read_exact_at(&mut buf, 0)?;
        }
        Ok(buf)
    }

    /// fsync the file.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(not(unix))]
        let _cursor = self.cursor.lock().unwrap_or_else(PoisonError::into_inner);
        read_exact_at(&self.file, buf, offset)
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        #[cfg(not(unix))]
        let _cursor = self.cursor.lock().unwrap_or_else(PoisonError::into_inner);
        write_all_at(&self.file, buf, offset)
    }
}

/// Fill `buf` from `offset` of `file` with positional reads (`pread`),
/// leaving the file's cursor where it was. The fallback off unix seeks
/// first, so a caller that shares the file between threads there holds
/// a lock around the call, as [`Pager`] does.
#[cfg(unix)]
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    file.read_exact_at(buf, offset)
}

/// Write all of `buf` at `offset` of `file` with positional writes
/// (`pwrite`); off unix, a seek and a write, as for [`read_exact_at`].
#[cfg(unix)]
pub(crate) fn write_all_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    file.write_all_at(buf, offset)
}

#[cfg(not(unix))]
pub(crate) fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(not(unix))]
pub(crate) fn write_all_at(mut file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;
    use crate::testutil::TempPath;

    #[test]
    fn write_read_round_trip() {
        let path = TempPath::new();
        let pager = Pager::create(&path).unwrap();
        let mut page = PageBuf::new(PageKind::Heap);
        page.payload_mut()[..4].copy_from_slice(b"data");
        pager.write_page(PageId(0), &mut page).unwrap();
        let back = pager.read_page(PageId(0)).unwrap();
        assert_eq!(&back.payload()[..4], b"data");
    }

    #[test]
    fn write_beyond_eof_grows_file() {
        let path = TempPath::new();
        let pager = Pager::create(&path).unwrap();
        let mut page = PageBuf::new(PageKind::Heap);
        pager.write_page(PageId(5), &mut page).unwrap();
        assert_eq!(pager.file_pages(), 6);
        // The zero-filled gap page fails its checksum if read.
        assert!(matches!(
            pager.read_page(PageId(3)),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    /// `count` sealed heap pages stamped `first..first + count`.
    fn sealed_run(first: u64, count: u64) -> Vec<u8> {
        let mut run = Vec::new();
        for k in first..first + count {
            let mut page = PageBuf::new(PageKind::Heap);
            page.write_u64(16, k);
            page.seal();
            run.extend_from_slice(page.as_bytes());
        }
        run
    }

    #[test]
    fn a_run_across_eof_grows_the_file_by_its_write() {
        let path = TempPath::new();
        let pager = Pager::create(&path).unwrap();
        pager
            .write_sealed_run(PageId(0), &sealed_run(0, 2))
            .unwrap();
        pager
            .write_sealed_run(PageId(1), &sealed_run(1, 3))
            .unwrap();
        assert_eq!(pager.file_pages(), 4);
        assert_eq!(
            std::fs::metadata(&*path).unwrap().len(),
            4 * PAGE_SIZE as u64
        );
        for k in 0..4 {
            assert_eq!(pager.read_page(PageId(k)).unwrap().read_u64(16), k);
        }
    }

    #[test]
    fn a_run_past_eof_zero_fills_the_gap() {
        let path = TempPath::new();
        let pager = Pager::create(&path).unwrap();
        pager
            .write_sealed_run(PageId(0), &sealed_run(0, 2))
            .unwrap();
        pager
            .write_sealed_run(PageId(5), &sealed_run(5, 2))
            .unwrap();
        assert_eq!(pager.file_pages(), 7);
        assert_eq!(
            std::fs::metadata(&*path).unwrap().len(),
            7 * PAGE_SIZE as u64
        );
        for k in 2..5 {
            let gap = pager.read_unverified(PageId(k)).unwrap();
            assert!(gap.as_bytes().iter().all(|&b| b == 0));
            assert!(matches!(
                pager.read_page(PageId(k)),
                Err(StorageError::ChecksumMismatch { .. })
            ));
        }
        for k in [0, 1, 5, 6] {
            assert_eq!(pager.read_page(PageId(k)).unwrap().read_u64(16), k);
        }
    }

    #[test]
    fn reopen_preserves_pages() {
        let path = TempPath::new();
        {
            let pager = Pager::create(&path).unwrap();
            let mut page = PageBuf::new(PageKind::Heap);
            page.payload_mut()[0] = 7;
            pager.write_page(PageId(2), &mut page).unwrap();
            pager.sync().unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        assert_eq!(pager.file_pages(), 3);
        assert_eq!(pager.read_page(PageId(2)).unwrap().payload()[0], 7);
    }

    #[test]
    fn ragged_file_rejected() {
        let path = TempPath::new();
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 17]).unwrap();
        assert!(matches!(Pager::open(&path), Err(StorageError::BadMagic)));
    }

    #[test]
    fn corruption_detected() {
        let path = TempPath::new();
        {
            let pager = Pager::create(&path).unwrap();
            let mut page = PageBuf::new(PageKind::Heap);
            pager.write_page(PageId(0), &mut page).unwrap();
        }
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(100)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        let pager = Pager::open(&path).unwrap();
        assert!(matches!(
            pager.read_page(PageId(0)),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let path = TempPath::new();
        let pager = Pager::create(&path).unwrap();
        assert!(matches!(
            pager.read_page(PageId(5)),
            Err(StorageError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn concurrent_positional_reads() {
        let path = TempPath::new();
        let pager = Pager::create(&path).unwrap();
        for i in 0..16u64 {
            let mut page = PageBuf::new(PageKind::Heap);
            page.write_u64(16, i * 3);
            pager.write_page(PageId(i), &mut page).unwrap();
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..16u64 {
                        let page = pager.read_page(PageId(i)).unwrap();
                        assert_eq!(page.read_u64(16), i * 3);
                    }
                });
            }
        });
    }
}
