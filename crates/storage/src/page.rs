//! Fixed-size pages and their common header.
//!
//! Every page begins with an 16-byte header:
//!
//! ```text
//! offset  size  field
//! 0       4     crc32 of bytes [4..PAGE_SIZE] (computed at flush time)
//! 4       1     page kind
//! 5       3     reserved (zero)
//! 8       8     kind-specific word (e.g. overflow "next" pointer)
//! ```
//!
//! The checksum is only valid for pages at rest in the database file; the
//! in-memory image may have a stale CRC until flushed.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Size of every page, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Byte offset where the page payload (after the common header) begins.
pub const PAGE_HEADER_LEN: usize = 16;

/// Identifier of a page within the database file (its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl PageId {
    /// The header page of the database file.
    pub const HEADER: PageId = PageId(0);

    /// Sentinel meaning "no page" (used for list terminators). Page 0 is
    /// always the store header, so it can double as the null sentinel in
    /// link fields.
    pub const NULL: PageId = PageId(0);

    /// Whether this id is the null sentinel.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Byte offset of this page in the database file.
    pub fn file_offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A map keyed by page number: a transaction's write set, base images
/// and pins, and the buffer pool's frames. Hashed by [`IdHasher`]
/// rather than SipHash, which is built to resist keys an attacker
/// picks; page numbers are the store's own.
pub(crate) type PageMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Hashes a `u64` id the program hands out itself (a page number, a
/// client's request sequence id) with the splitmix64 finalizer. A
/// mixing hash, not a bare multiply: the pool shards pages by their low
/// four bits, so every key in one shard's map shares them, and every
/// input bit has to reach the bits the table picks its bucket and tag
/// from.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach this hasher; fold anything else in.
        self.0 = bytes
            .iter()
            .fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// What a page is used for. Stored in the page header and checked by each
/// layer before interpreting the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageKind {
    /// The store header (page 0 only).
    Header = 1,
    /// A page on the free list.
    Free = 2,
    /// A slotted page holding heap records.
    Heap = 3,
    /// Continuation of a large record.
    Overflow = 4,
    /// B+-tree interior node.
    BTreeInner = 5,
    /// B+-tree leaf node.
    BTreeLeaf = 6,
    /// Heap directory page (head of a heap's page chain).
    HeapDir = 7,
}

impl PageKind {
    /// Parse a stored kind byte.
    pub fn from_u8(v: u8) -> Option<PageKind> {
        Some(match v {
            1 => PageKind::Header,
            2 => PageKind::Free,
            3 => PageKind::Heap,
            4 => PageKind::Overflow,
            5 => PageKind::BTreeInner,
            6 => PageKind::BTreeLeaf,
            7 => PageKind::HeapDir,
            _ => return None,
        })
    }
}

/// Store the checksum of the page image `bytes` (`PAGE_SIZE` long) in
/// its first four bytes: what [`PageBuf::seal`] does, for an image that
/// sits in a larger buffer.
pub(crate) fn seal_image(bytes: &mut [u8]) {
    debug_assert_eq!(bytes.len(), PAGE_SIZE);
    let crc = crate::crc32(&bytes[4..]);
    bytes[0..4].copy_from_slice(&crc.to_le_bytes());
}

/// An owned, heap-allocated page image.
#[derive(Clone)]
pub struct PageBuf {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageBuf(kind={:?})", self.kind())
    }
}

impl Default for PageBuf {
    fn default() -> Self {
        PageBuf::zeroed()
    }
}

impl PageBuf {
    /// An all-zero page.
    pub fn zeroed() -> Self {
        PageBuf {
            bytes: vec![0u8; PAGE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("PAGE_SIZE boxed slice"),
        }
    }

    /// A fresh page of the given kind with a zeroed payload.
    pub fn new(kind: PageKind) -> Self {
        let mut page = PageBuf::zeroed();
        page.set_kind(kind);
        page
    }

    /// Construct from a raw page-sized byte vector.
    pub fn from_vec(v: Vec<u8>) -> Option<Self> {
        if v.len() != PAGE_SIZE {
            return None;
        }
        Some(PageBuf {
            bytes: v.into_boxed_slice().try_into().ok()?,
        })
    }

    /// The full page image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..]
    }

    /// The full mutable page image.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[..]
    }

    /// The payload after the common header.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[PAGE_HEADER_LEN..]
    }

    /// The mutable payload after the common header.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[PAGE_HEADER_LEN..]
    }

    /// This page's kind, if the kind byte is valid.
    pub fn kind(&self) -> Option<PageKind> {
        PageKind::from_u8(self.bytes[4])
    }

    /// Set the page kind byte.
    pub fn set_kind(&mut self, kind: PageKind) {
        self.bytes[4] = kind as u8;
    }

    /// The kind-specific header word (e.g. "next page" links).
    pub fn link(&self) -> PageId {
        PageId(u64::from_le_bytes(
            self.bytes[8..16].try_into().expect("8-byte header word"),
        ))
    }

    /// Set the kind-specific header word.
    pub fn set_link(&mut self, link: PageId) {
        self.bytes[8..16].copy_from_slice(&link.0.to_le_bytes());
    }

    /// Recompute and store the page checksum (done at flush time).
    pub fn seal(&mut self) {
        seal_image(&mut self.bytes[..]);
    }

    /// Verify the stored checksum against the contents.
    pub fn verify(&self) -> bool {
        let stored = u32::from_le_bytes(self.bytes[0..4].try_into().expect("4-byte crc"));
        stored == crate::crc32(&self.bytes[4..])
    }

    /// Read a little-endian u16 at `offset`.
    pub fn read_u16(&self, offset: usize) -> u16 {
        u16::from_le_bytes(self.bytes[offset..offset + 2].try_into().expect("2 bytes"))
    }

    /// Write a little-endian u16 at `offset`.
    pub fn write_u16(&mut self, offset: usize, v: u16) {
        self.bytes[offset..offset + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian u32 at `offset`.
    pub fn read_u32(&self, offset: usize) -> u32 {
        u32::from_le_bytes(self.bytes[offset..offset + 4].try_into().expect("4 bytes"))
    }

    /// Write a little-endian u32 at `offset`.
    pub fn write_u32(&mut self, offset: usize, v: u32) {
        self.bytes[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian u64 at `offset`.
    pub fn read_u64(&self, offset: usize) -> u64 {
        u64::from_le_bytes(self.bytes[offset..offset + 8].try_into().expect("8 bytes"))
    }

    /// Write a little-endian u64 at `offset`.
    pub fn write_u64(&mut self, offset: usize, v: u64) {
        self.bytes[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_layout() {
        let mut p = PageBuf::new(PageKind::Heap);
        assert_eq!(p.kind(), Some(PageKind::Heap));
        p.set_link(PageId(42));
        assert_eq!(p.link(), PageId(42));
        assert_eq!(p.payload().len(), PAGE_SIZE - PAGE_HEADER_LEN);
    }

    #[test]
    fn seal_and_verify() {
        let mut p = PageBuf::new(PageKind::Heap);
        p.payload_mut()[0] = 7;
        p.seal();
        assert!(p.verify());
        p.payload_mut()[0] = 8;
        assert!(!p.verify());
        p.seal();
        assert!(p.verify());
    }

    #[test]
    fn checksum_ignores_crc_field_itself() {
        let mut p = PageBuf::new(PageKind::Free);
        p.seal();
        let crc1 = p.read_u32(0);
        // Re-sealing an unchanged page must be stable.
        p.seal();
        assert_eq!(p.read_u32(0), crc1);
    }

    #[test]
    fn scalar_accessors() {
        let mut p = PageBuf::zeroed();
        p.write_u16(100, 0xBEEF);
        p.write_u32(200, 0xDEAD_BEEF);
        p.write_u64(300, u64::MAX - 1);
        assert_eq!(p.read_u16(100), 0xBEEF);
        assert_eq!(p.read_u32(200), 0xDEAD_BEEF);
        assert_eq!(p.read_u64(300), u64::MAX - 1);
    }

    #[test]
    fn invalid_kind_is_none() {
        let p = PageBuf::zeroed();
        assert_eq!(p.kind(), None);
    }

    #[test]
    fn from_vec_enforces_size() {
        assert!(PageBuf::from_vec(vec![0; PAGE_SIZE]).is_some());
        assert!(PageBuf::from_vec(vec![0; PAGE_SIZE - 1]).is_none());
    }
}
