//! Heap record storage: variable-length records addressed by stable
//! [`RecordId`]s, with overflow chains for values larger than a page.
//!
//! A heap is identified by its *directory page*, which holds the head of
//! the data-page chain, an insert hint, and a short list of *roomy*
//! pages — ones a delete or a relocation left more than half empty —
//! that inserts fill again before the heap grows.  [`Heap::replace`]
//! rewrites a record **in place** (same id, only its own page and its
//! overflow chain written) whenever the new cell still fits its page —
//! which an overflow stub always does; only an inline value that
//! outgrew its page moves, and the object layer remaps its table entry
//! to the new record id.
//! The in-place path matters for the optimistic-concurrency engine:
//! it keeps updates of records on different pages from ever touching a
//! shared page (the directory's record count only moves on insert and
//! delete), so they validate cleanly against each other.
//!
//! Record cell encoding:
//!
//! ```text
//! [0x00][data...]                       inline record
//! [0x01][u32 total_len][u64 first_pg]   overflow stub
//! ```
//!
//! Overflow pages use the common header link word for the chain and store
//! `[u32 chunk_len]` at the start of their payload.

use crate::page::{PageId, PageKind, PAGE_HEADER_LEN, PAGE_SIZE};
use crate::slotted;
use crate::store::{PageRead, PageWrite};
use crate::{Result, StorageError};

/// Directory-page payload offsets.
mod dir {
    use crate::page::PAGE_HEADER_LEN;
    pub const FIRST: usize = PAGE_HEADER_LEN;
    pub const HINT: usize = PAGE_HEADER_LEN + 8;
    pub const RECORD_COUNT: usize = PAGE_HEADER_LEN + 16;
    /// Entries in use in the roomy-page list (0 in heaps written
    /// before the list existed: their directory tail is zeroed).
    pub const ROOMY_LEN: usize = PAGE_HEADER_LEN + 24;
    /// The roomy-page list: page ids, in no particular order.
    pub const ROOMY: usize = PAGE_HEADER_LEN + 32;
    pub const ROOMY_CAP: usize = 256;
}

/// Roomy-list entries an insert examines before falling back to a
/// fresh page.
const ROOMY_PROBES: usize = 8;
/// A page is roomy while more than this much of it is reclaimable; an
/// insert that finds a listed page below it drops the page from the
/// list.
const ROOMY_FLOOR: usize = PAGE_SIZE / 2;

const TAG_INLINE: u8 = 0x00;
const TAG_OVERFLOW: u8 = 0x01;
const OVERFLOW_STUB_LEN: usize = 1 + 4 + 8;
/// Payload bytes available per overflow page.
const OVERFLOW_CHUNK: usize = PAGE_SIZE - PAGE_HEADER_LEN - 4;
/// Records up to this size are stored inline in a slotted cell.
pub const INLINE_MAX: usize = slotted::MAX_CELL - 1;

/// Stable identifier of a heap record: page and slot, packed into a u64
/// (48-bit page, 16-bit slot) for storage in B+-tree values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Page holding the record's slot.
    pub page: PageId,
    /// Slot index within the page.
    pub slot: u16,
}

impl RecordId {
    /// Pack into a u64 (page in the high 48 bits).
    pub fn to_u64(self) -> u64 {
        debug_assert!(self.page.0 < (1 << 48), "page id exceeds 48 bits");
        (self.page.0 << 16) | self.slot as u64
    }

    /// Unpack from [`RecordId::to_u64`].
    pub fn from_u64(v: u64) -> RecordId {
        RecordId {
            page: PageId(v >> 16),
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// A heap handle: the directory page id.
///
/// ```
/// use ode_storage::heap::Heap;
/// use ode_storage::{Store, StoreOptions};
///
/// let path = std::env::temp_dir().join(format!("heap-doc-{}", std::process::id()));
/// let store = Store::create(&path, StoreOptions::default()).unwrap();
/// let mut tx = store.begin();
/// let heap = Heap::create(&mut tx).unwrap();
/// let rid = heap.insert(&mut tx, b"record bytes").unwrap();
/// assert_eq!(heap.get(&mut tx, rid).unwrap(), b"record bytes");
/// // Large records transparently use overflow page chains.
/// let big = vec![7u8; 20_000];
/// let rid2 = heap.insert(&mut tx, &big).unwrap();
/// assert_eq!(heap.get(&mut tx, rid2).unwrap(), big);
/// tx.commit().unwrap();
/// # drop(store);
/// # let _ = std::fs::remove_file(&path);
/// # let mut w = path.into_os_string(); w.push(".wal");
/// # let _ = std::fs::remove_file(std::path::PathBuf::from(w));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heap {
    /// The heap's directory page.
    pub dir: PageId,
}

impl Heap {
    /// Create a new, empty heap.
    pub fn create(tx: &mut impl PageWrite) -> Result<Heap> {
        let dir_id = tx.allocate(PageKind::HeapDir)?;
        let page = tx.page_mut(dir_id)?;
        page.write_u64(dir::FIRST, 0);
        page.write_u64(dir::HINT, 0);
        page.write_u64(dir::RECORD_COUNT, 0);
        page.write_u64(dir::ROOMY_LEN, 0);
        Ok(Heap { dir: dir_id })
    }

    /// Open an existing heap by its directory page.
    pub fn open(dir: PageId) -> Heap {
        Heap { dir }
    }

    /// Number of live records.
    pub fn len(&self, tx: &mut impl PageRead) -> Result<u64> {
        Ok(tx.page(self.dir)?.read_u64(dir::RECORD_COUNT))
    }

    /// Whether the heap holds no records.
    pub fn is_empty(&self, tx: &mut impl PageRead) -> Result<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Insert a record of any size, returning its stable id.
    pub fn insert(&self, tx: &mut impl PageWrite, data: &[u8]) -> Result<RecordId> {
        let cell = self.build_cell(tx, data)?;
        let rid = self.place_cell(tx, &cell)?;
        self.bump_count(tx, 1)?;
        Ok(rid)
    }

    /// [`Heap::insert`] with a placement preference: the record goes
    /// into the page holding `near` when its cell fits there, so that
    /// records read and written together (an object's record and its
    /// versions') share pages; otherwise wherever `insert` would put
    /// it.
    pub fn insert_near(
        &self,
        tx: &mut impl PageWrite,
        near: RecordId,
        data: &[u8],
    ) -> Result<RecordId> {
        let cell = self.build_cell(tx, data)?;
        let page = tx.page(near.page)?;
        let rid = if page.kind() == Some(PageKind::Heap) && slotted::can_insert(page, cell.len()) {
            let slot = slotted::insert(tx.page_mut(near.page)?, &cell)?;
            RecordId {
                page: near.page,
                slot,
            }
        } else {
            self.place_cell(tx, &cell)?
        };
        self.bump_count(tx, 1)?;
        Ok(rid)
    }

    /// The slotted cell for `data`: the bytes inline, or — past
    /// [`INLINE_MAX`] — a stub pointing at a freshly written overflow
    /// chain.
    fn build_cell(&self, tx: &mut impl PageWrite, data: &[u8]) -> Result<Vec<u8>> {
        if data.len() <= INLINE_MAX {
            let mut cell = Vec::with_capacity(data.len() + 1);
            cell.push(TAG_INLINE);
            cell.extend_from_slice(data);
            Ok(cell)
        } else {
            let first = self.write_overflow_chain(tx, data)?;
            let mut cell = Vec::with_capacity(OVERFLOW_STUB_LEN);
            cell.push(TAG_OVERFLOW);
            cell.extend_from_slice(&(data.len() as u32).to_le_bytes());
            cell.extend_from_slice(&first.0.to_le_bytes());
            Ok(cell)
        }
    }

    /// Put a cell into some data page with room for it.
    fn place_cell(&self, tx: &mut impl PageWrite, cell: &[u8]) -> Result<RecordId> {
        let page = self.page_for_insert(tx, cell.len())?;
        let slot = slotted::insert(tx.page_mut(page)?, cell)?;
        Ok(RecordId { page, slot })
    }

    /// Free the overflow chain a cell points at, if it is a stub.
    fn free_chain_of(&self, tx: &mut impl PageWrite, cell: &[u8]) -> Result<()> {
        if cell.first().copied() == Some(TAG_OVERFLOW) && cell.len() == OVERFLOW_STUB_LEN {
            let mut next = PageId(u64::from_le_bytes(cell[5..13].try_into().expect("8 bytes")));
            while !next.is_null() {
                let after = tx.page(next)?.link();
                tx.free_page(next)?;
                next = after;
            }
        }
        Ok(())
    }

    /// Tombstone a record's slot.
    fn remove_cell(&self, tx: &mut impl PageWrite, rid: RecordId) -> Result<()> {
        slotted::delete(tx.page_mut(rid.page)?, rid.slot);
        self.note_room(tx, rid.page)
    }

    /// After space was reclaimed in `page`: if that left it roomy, make
    /// it the insert hint and list it (unless the list is full, in
    /// which case plenty of room is on record already).
    fn note_room(&self, tx: &mut impl PageWrite, page: PageId) -> Result<()> {
        if slotted::free_space(tx.page(page)?) > ROOMY_FLOOR {
            let dir_page = tx.page_mut(self.dir)?;
            dir_page.write_u64(dir::HINT, page.0);
            let len = roomy_len(dir_page);
            let listed = (0..len).any(|i| roomy_at(dir_page, i) == page);
            if !listed && len < dir::ROOMY_CAP {
                dir_page.write_u64(dir::ROOMY + len * 8, page.0);
                dir_page.write_u64(dir::ROOMY_LEN, len as u64 + 1);
            }
        }
        Ok(())
    }

    /// A record's cell bytes, if the record exists.
    fn cell(&self, tx: &mut impl PageRead, rid: RecordId) -> Result<Option<Vec<u8>>> {
        let page = tx.page(rid.page)?;
        if page.kind() != Some(PageKind::Heap) {
            return Ok(None);
        }
        Ok(slotted::get(page, rid.slot).map(<[u8]>::to_vec))
    }

    /// Read a record.
    pub fn get(&self, tx: &mut impl PageRead, rid: RecordId) -> Result<Vec<u8>> {
        let page = tx.page(rid.page)?;
        if page.kind() != Some(PageKind::Heap) {
            return Err(StorageError::RecordNotFound {
                page: rid.page,
                slot: rid.slot,
            });
        }
        let cell = slotted::get(page, rid.slot).ok_or(StorageError::RecordNotFound {
            page: rid.page,
            slot: rid.slot,
        })?;
        match cell.first().copied() {
            Some(TAG_INLINE) => Ok(cell[1..].to_vec()),
            Some(TAG_OVERFLOW) => {
                if cell.len() != OVERFLOW_STUB_LEN {
                    return Err(StorageError::TreeCorrupt("bad overflow stub"));
                }
                let total = u32::from_le_bytes(cell[1..5].try_into().expect("4 bytes")) as usize;
                let first = PageId(u64::from_le_bytes(cell[5..13].try_into().expect("8 bytes")));
                self.read_overflow_chain(tx, first, total)
            }
            _ => Err(StorageError::TreeCorrupt("bad record tag")),
        }
    }

    /// Delete a record, freeing any overflow pages. Returns whether it
    /// existed.
    pub fn delete(&self, tx: &mut impl PageWrite, rid: RecordId) -> Result<bool> {
        let Some(cell) = self.cell(tx, rid)? else {
            return Ok(false);
        };
        self.free_chain_of(tx, &cell)?;
        self.remove_cell(tx, rid)?;
        self.bump_count(tx, -1)?;
        Ok(true)
    }

    /// Replace a record's contents under the **same id** whenever the
    /// new cell fits the record's page (in place or after compaction):
    /// only that page and the value's own overflow chain are written —
    /// no directory-page write, so concurrent optimistic transactions
    /// replacing records on different pages do not conflict. An
    /// overflow value's cell is a fixed-size stub, so records that are
    /// or become larger than a page always keep their id; their old
    /// chain's pages go back to the free list first and are the ones
    /// the new chain takes. Only an inline value that outgrew its page
    /// moves, returning the new id; callers own remapping any
    /// references (see module docs).
    pub fn replace(&self, tx: &mut impl PageWrite, rid: RecordId, data: &[u8]) -> Result<RecordId> {
        let Some(old) = self.cell(tx, rid)? else {
            return Err(StorageError::RecordNotFound {
                page: rid.page,
                slot: rid.slot,
            });
        };
        self.free_chain_of(tx, &old)?;
        let cell = self.build_cell(tx, data)?;
        match slotted::update(tx.page_mut(rid.page)?, rid.slot, &cell) {
            // A value moving out into an overflow chain (whose pages
            // the transaction allocated anyway) may leave its page
            // roomy; no other in-place rewrite touches the directory.
            Ok(()) if cell[0] == TAG_OVERFLOW && old[0] == TAG_INLINE => {
                self.note_room(tx, rid.page)?;
                Ok(rid)
            }
            Ok(()) => Ok(rid),
            // Doesn't fit even after compaction: relocate.
            Err(StorageError::PageFull) => {
                self.remove_cell(tx, rid)?;
                self.place_cell(tx, &cell)
            }
            Err(e) => Err(e),
        }
    }

    /// Collect every live record (id, bytes), in page-chain order.
    ///
    /// This materializes the result: scans are used by extent iteration in
    /// the object layer, which decodes records immediately anyway.
    pub fn scan(&self, tx: &mut impl PageRead) -> Result<Vec<(RecordId, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut page_id = PageId(tx.page(self.dir)?.read_u64(dir::FIRST));
        while !page_id.is_null() {
            let page = tx.page(page_id)?;
            let next = page.link();
            let slots: Vec<u16> = slotted::live_slots(page).collect();
            for slot in slots {
                let rid = RecordId {
                    page: page_id,
                    slot,
                };
                let data = self.get(tx, rid)?;
                out.push((rid, data));
            }
            page_id = next;
        }
        Ok(out)
    }

    fn bump_count(&self, tx: &mut impl PageWrite, delta: i64) -> Result<()> {
        let count = tx.page(self.dir)?.read_u64(dir::RECORD_COUNT);
        let new = count
            .checked_add_signed(delta)
            .expect("record count underflow");
        tx.page_mut(self.dir)?.write_u64(dir::RECORD_COUNT, new);
        Ok(())
    }

    /// Find (or allocate) a data page that can hold a cell of `len`
    /// bytes: the hint, then the newest few roomy pages (forgetting the
    /// ones that filled up), then the chain head, then a fresh page.
    fn page_for_insert(&self, tx: &mut impl PageWrite, len: usize) -> Result<PageId> {
        let hint = PageId(tx.page(self.dir)?.read_u64(dir::HINT));
        if !hint.is_null() && slotted::can_insert(tx.page(hint)?, len) {
            return Ok(hint);
        }
        let mut listed = roomy_len(tx.page(self.dir)?);
        for i in (0..listed).rev().take(ROOMY_PROBES) {
            let candidate = roomy_at(tx.page(self.dir)?, i);
            let page = tx.page(candidate)?;
            if slotted::can_insert(page, len) {
                tx.page_mut(self.dir)?.write_u64(dir::HINT, candidate.0);
                return Ok(candidate);
            }
            if slotted::free_space(page) <= ROOMY_FLOOR {
                // Swap-remove: the list is unordered.
                listed -= 1;
                let dir_page = tx.page_mut(self.dir)?;
                let last = roomy_at(dir_page, listed);
                dir_page.write_u64(dir::ROOMY + i * 8, last.0);
                dir_page.write_u64(dir::ROOMY_LEN, listed as u64);
            }
        }
        let first = PageId(tx.page(self.dir)?.read_u64(dir::FIRST));
        if !first.is_null() && slotted::can_insert(tx.page(first)?, len) {
            return Ok(first);
        }
        // Allocate a fresh data page at the chain head.
        let new_id = tx.allocate(PageKind::Heap)?;
        {
            let page = tx.page_mut(new_id)?;
            slotted::init(page);
            page.set_link(first);
        }
        let dir_page = tx.page_mut(self.dir)?;
        dir_page.write_u64(dir::FIRST, new_id.0);
        dir_page.write_u64(dir::HINT, new_id.0);
        Ok(new_id)
    }

    fn write_overflow_chain(&self, tx: &mut impl PageWrite, data: &[u8]) -> Result<PageId> {
        // Build the chain back-to-front so each page links to its
        // successor at allocation time.
        let mut next = PageId::NULL;
        let chunks: Vec<&[u8]> = data.chunks(OVERFLOW_CHUNK).collect();
        for chunk in chunks.into_iter().rev() {
            let id = tx.allocate(PageKind::Overflow)?;
            let page = tx.page_mut(id)?;
            page.set_link(next);
            page.write_u32(PAGE_HEADER_LEN, chunk.len() as u32);
            let start = PAGE_HEADER_LEN + 4;
            page.as_bytes_mut()[start..start + chunk.len()].copy_from_slice(chunk);
            next = id;
        }
        Ok(next)
    }

    fn read_overflow_chain(
        &self,
        tx: &mut impl PageRead,
        first: PageId,
        total: usize,
    ) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(total);
        let mut cur = first;
        while !cur.is_null() {
            let page = tx.page(cur)?;
            if page.kind() != Some(PageKind::Overflow) {
                return Err(StorageError::TreeCorrupt("overflow chain broken"));
            }
            let len = page.read_u32(PAGE_HEADER_LEN) as usize;
            if len > OVERFLOW_CHUNK {
                return Err(StorageError::TreeCorrupt("overflow chunk too long"));
            }
            let start = PAGE_HEADER_LEN + 4;
            out.extend_from_slice(&page.as_bytes()[start..start + len]);
            cur = page.link();
        }
        if out.len() != total {
            return Err(StorageError::TreeCorrupt("overflow length mismatch"));
        }
        Ok(out)
    }
}

fn roomy_len(dir_page: &crate::page::PageBuf) -> usize {
    (dir_page.read_u64(dir::ROOMY_LEN) as usize).min(dir::ROOMY_CAP)
}

fn roomy_at(dir_page: &crate::page::PageBuf, i: usize) -> PageId {
    PageId(dir_page.read_u64(dir::ROOMY + i * 8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempStore;

    #[test]
    fn record_id_packing() {
        let rid = RecordId {
            page: PageId(0x0000_1234_5678_9ABC),
            slot: 0xFEDC,
        };
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
    }

    #[test]
    fn insert_get_delete_small() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        let rid = heap.insert(&mut tx, b"hello heap").unwrap();
        assert_eq!(heap.get(&mut tx, rid).unwrap(), b"hello heap");
        assert_eq!(heap.len(&mut tx).unwrap(), 1);
        assert!(heap.delete(&mut tx, rid).unwrap());
        assert!(!heap.delete(&mut tx, rid).unwrap());
        assert_eq!(heap.len(&mut tx).unwrap(), 0);
        assert!(heap.get(&mut tx, rid).is_err());
        tx.commit().unwrap();
    }

    #[test]
    fn large_records_use_overflow() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        // 3 pages worth of data plus a ragged tail.
        let data: Vec<u8> = (0..3 * OVERFLOW_CHUNK + 123)
            .map(|i| (i % 251) as u8)
            .collect();
        let rid = heap.insert(&mut tx, &data).unwrap();
        assert_eq!(heap.get(&mut tx, rid).unwrap(), data);
        let pages_before = tx.page_count().unwrap();
        assert!(heap.delete(&mut tx, rid).unwrap());
        // Deleting frees all 4 overflow pages (they return to the free
        // list rather than shrinking the file).
        assert_eq!(tx.page_count().unwrap(), pages_before);
        // Re-inserting reuses them instead of growing the file.
        let rid2 = heap.insert(&mut tx, &data).unwrap();
        assert_eq!(tx.page_count().unwrap(), pages_before);
        assert_eq!(heap.get(&mut tx, rid2).unwrap(), data);
        tx.commit().unwrap();
    }

    #[test]
    fn replace_changes_rid_and_preserves_data() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        let rid = heap.insert(&mut tx, b"v0").unwrap();
        let rid2 = heap.replace(&mut tx, rid, b"v1-much-longer").unwrap();
        assert_eq!(heap.get(&mut tx, rid2).unwrap(), b"v1-much-longer");
        assert_eq!(heap.len(&mut tx).unwrap(), 1);
        tx.commit().unwrap();
    }

    #[test]
    fn replace_in_place_keeps_rid_and_touches_one_page() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        let rid = heap.insert(&mut tx, &[1u8; 64]).unwrap();
        tx.commit().unwrap();

        // Same-size, shrinking, and growing (within the page) rewrites
        // all stay at the same record id.
        let mut tx = store.begin();
        assert_eq!(heap.replace(&mut tx, rid, &[2u8; 64]).unwrap(), rid);
        assert_eq!(heap.replace(&mut tx, rid, &[3u8; 16]).unwrap(), rid);
        assert_eq!(heap.replace(&mut tx, rid, &[4u8; 512]).unwrap(), rid);
        assert_eq!(heap.get(&mut tx, rid).unwrap(), vec![4u8; 512]);
        assert_eq!(heap.len(&mut tx).unwrap(), 1);
        tx.commit().unwrap();

        // An in-place replace's write set is the record's page alone —
        // the directory page is only read. Checked through the
        // optimistic engine: two concurrent replaces of records on
        // different pages must not conflict (a directory write would
        // make them).
        let mut setup = store.begin();
        // Fill past one page so the second record lands elsewhere.
        let filler: Vec<RecordId> = (0..6)
            .map(|_| heap.insert(&mut setup, &[9u8; 700]).unwrap())
            .collect();
        setup.commit().unwrap();
        let other = filler[5];
        assert_ne!(rid.page, other.page, "records must sit on different pages");
        let mut a = store.begin_optimistic();
        let mut b = store.begin_optimistic();
        assert_eq!(heap.replace(&mut a, rid, &[5u8; 64]).unwrap(), rid);
        assert_eq!(heap.replace(&mut b, other, &[6u8; 700]).unwrap(), other);
        a.commit().unwrap();
        b.commit().unwrap();
        let mut check = store.begin();
        assert_eq!(heap.get(&mut check, rid).unwrap(), vec![5u8; 64]);
        assert_eq!(heap.get(&mut check, other).unwrap(), vec![6u8; 700]);
    }

    #[test]
    fn replace_relocates_when_page_cannot_hold_growth() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        // Nearly fill one page so growing the first record must move it.
        let rid = heap.insert(&mut tx, &[1u8; 800]).unwrap();
        let mut sibling = rid;
        while sibling.page == rid.page {
            sibling = heap.insert(&mut tx, &[2u8; 800]).unwrap();
        }
        let records = heap.len(&mut tx).unwrap();
        let grown = vec![7u8; 3000];
        let new_rid = heap.replace(&mut tx, rid, &grown).unwrap();
        assert_ne!(new_rid, rid, "growth past the page must relocate");
        assert_eq!(heap.get(&mut tx, new_rid).unwrap(), grown);
        // Overflow-sized values never relocate: the slot becomes a
        // fixed-size stub pointing at a fresh chain, rewritten on every
        // later replace, and shrinks back to an inline cell in place.
        let huge = vec![8u8; 20_000];
        assert_eq!(heap.replace(&mut tx, new_rid, &huge).unwrap(), new_rid);
        assert_eq!(heap.get(&mut tx, new_rid).unwrap(), huge);
        let pages = tx.page_count().unwrap();
        let huge2 = vec![9u8; 19_000];
        assert_eq!(heap.replace(&mut tx, new_rid, &huge2).unwrap(), new_rid);
        assert_eq!(heap.get(&mut tx, new_rid).unwrap(), huge2);
        assert_eq!(
            tx.page_count().unwrap(),
            pages,
            "the old chain's pages are reused"
        );
        assert_eq!(heap.replace(&mut tx, new_rid, b"small").unwrap(), new_rid);
        assert_eq!(heap.get(&mut tx, new_rid).unwrap(), b"small");
        assert_eq!(heap.len(&mut tx).unwrap(), records);
        tx.commit().unwrap();
    }

    #[test]
    fn pages_emptied_by_deletes_are_refilled_before_the_heap_grows() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        // One 3000-byte record per page.
        let rids: Vec<RecordId> = (0..3)
            .map(|_| heap.insert(&mut tx, &[1u8; 3000]).unwrap())
            .collect();
        assert_ne!(rids[0].page, rids[1].page);
        assert_ne!(rids[1].page, rids[2].page);
        // Two pages emptied: the later one is the hint, both are listed.
        heap.delete(&mut tx, rids[0]).unwrap();
        heap.delete(&mut tx, rids[1]).unwrap();
        let pages = tx.page_count().unwrap();
        let a = heap.insert(&mut tx, &[2u8; 3000]).unwrap();
        let b = heap.insert(&mut tx, &[3u8; 3000]).unwrap();
        assert_eq!(a.page, rids[1].page, "the hint page first");
        assert_eq!(b.page, rids[0].page, "then the other listed page");
        assert_eq!(tx.page_count().unwrap(), pages, "no fresh page needed");
        // Both full again: the next one does grow the heap.
        heap.insert(&mut tx, &[4u8; 3000]).unwrap();
        assert_eq!(tx.page_count().unwrap(), pages + 1);
        tx.commit().unwrap();
    }

    #[test]
    fn insert_near_shares_the_page_while_it_has_room() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        let home = heap.insert(&mut tx, &[1u8; 100]).unwrap();
        // Fill other pages so the hint moves away from `home`'s page.
        for _ in 0..6 {
            heap.insert(&mut tx, &[2u8; 3000]).unwrap();
        }
        let far = heap.insert(&mut tx, &[3u8; 100]).unwrap();
        assert_ne!(far.page, home.page);
        let near = heap.insert_near(&mut tx, home, &[4u8; 100]).unwrap();
        assert_eq!(near.page, home.page);
        assert_eq!(heap.get(&mut tx, near).unwrap(), vec![4u8; 100]);
        // No room beside `home`: placed like any insert, still readable.
        let big = heap.insert_near(&mut tx, home, &[5u8; 3990]).unwrap();
        assert_ne!(big.page, home.page);
        assert_eq!(heap.get(&mut tx, big).unwrap(), vec![5u8; 3990]);
        assert_eq!(heap.len(&mut tx).unwrap(), 10);
        tx.commit().unwrap();
    }

    #[test]
    fn scan_returns_all_live_records() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        let mut expected = Vec::new();
        for i in 0..500u32 {
            let data = format!("record-{i}").into_bytes();
            let rid = heap.insert(&mut tx, &data).unwrap();
            expected.push((rid, data));
        }
        // Delete a third of them.
        for (rid, _) in expected.iter().step_by(3) {
            heap.delete(&mut tx, *rid).unwrap();
        }
        let kept: Vec<_> = expected
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, e)| e.clone())
            .collect();
        let mut scanned = heap.scan(&mut tx).unwrap();
        scanned.sort();
        let mut kept_sorted = kept.clone();
        kept_sorted.sort();
        assert_eq!(scanned, kept_sorted);
        assert_eq!(heap.len(&mut tx).unwrap(), kept.len() as u64);
        tx.commit().unwrap();
    }

    #[test]
    fn many_records_span_many_pages() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        let data = vec![0xAAu8; 1000];
        let rids: Vec<RecordId> = (0..100)
            .map(|_| heap.insert(&mut tx, &data).unwrap())
            .collect();
        let distinct_pages: std::collections::HashSet<u64> =
            rids.iter().map(|r| r.page.0).collect();
        assert!(distinct_pages.len() > 20, "1000-byte records spread pages");
        for rid in rids {
            assert_eq!(heap.get(&mut tx, rid).unwrap(), data);
        }
        tx.commit().unwrap();
    }

    #[test]
    fn heap_persists_across_reopen() {
        let mut store = TempStore::new();
        let (heap_dir, rid) = {
            let mut tx = store.begin();
            let heap = Heap::create(&mut tx).unwrap();
            let rid = heap.insert(&mut tx, b"durable").unwrap();
            tx.set_root(0, heap.dir.0).unwrap();
            tx.commit().unwrap();
            (heap.dir, rid)
        };
        store.reopen();
        let mut r = store.read();
        assert_eq!(r.root(0).unwrap(), heap_dir.0);
        let heap = Heap::open(heap_dir);
        assert_eq!(heap.get(&mut r, rid).unwrap(), b"durable");
    }

    #[test]
    fn empty_record_round_trips() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        let rid = heap.insert(&mut tx, b"").unwrap();
        assert_eq!(heap.get(&mut tx, rid).unwrap(), b"");
        tx.commit().unwrap();
    }
}
