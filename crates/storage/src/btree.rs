//! Persistent B+-tree mapping `u64` keys to `u64` values.
//!
//! The object layer uses these trees for its object and version tables
//! (object id → record id, version id → record id).  Values are fixed
//! eight-byte words, which keeps nodes simple and fanout high (~254).
//!
//! Node layouts (offsets relative to the page start; the first 16 bytes
//! are the common page header):
//!
//! ```text
//! leaf :  [u16 nkeys] [key u64, val u64]*      link = next leaf
//! inner:  [u16 nkeys] [child0 u64] [key u64, child u64]*
//! ```
//!
//! Invariants: keys within a node are strictly ascending; `child0` covers
//! keys `< key[0]`; `child[i]` covers `[key[i], key[i+1])`; separators
//! equal the smallest key of their right subtree.  Deletion is lazy (no
//! rebalancing) except that a root with a single child collapses; this
//! trades some space for simplicity and is exercised by the property
//! tests against a `BTreeMap` model.

use crate::page::{PageBuf, PageId, PageKind, PAGE_HEADER_LEN};
use crate::store::{PageRead, PageWrite};
use crate::{Result, StorageError};

const NKEYS_OFF: usize = PAGE_HEADER_LEN;
const LEAF_ENTRIES_OFF: usize = PAGE_HEADER_LEN + 2;
const INNER_CHILD0_OFF: usize = PAGE_HEADER_LEN + 2;
const INNER_ENTRIES_OFF: usize = PAGE_HEADER_LEN + 10;

/// Maximum entries per leaf given the page size.
pub const MAX_LEAF_CAP: usize = (crate::PAGE_SIZE - LEAF_ENTRIES_OFF) / 16;
/// Maximum separator/child pairs per inner node given the page size.
pub const MAX_INNER_CAP: usize = (crate::PAGE_SIZE - INNER_ENTRIES_OFF) / 16;

/// A B+-tree handle. The root page id is owned by the caller (stored in
/// a root slot or another record); mutating operations update
/// [`BTree::root`], which the caller must persist if it changed.
///
/// ```
/// use ode_storage::btree::BTree;
/// use ode_storage::{Store, StoreOptions, PageWrite, PageRead};
///
/// let path = std::env::temp_dir().join(format!("btree-doc-{}", std::process::id()));
/// let store = Store::create(&path, StoreOptions::default()).unwrap();
/// let mut tx = store.begin();
/// let mut tree = BTree::create(&mut tx).unwrap();
/// for k in 0..1000u64 {
///     tree.insert(&mut tx, k, k * 2).unwrap();
/// }
/// assert_eq!(tree.get(&mut tx, 500).unwrap(), Some(1000));
/// assert_eq!(tree.remove(&mut tx, 500).unwrap(), Some(1000));
/// assert_eq!(tree.scan_from(&mut tx, 499, 2).unwrap(), vec![(499, 998), (501, 1002)]);
/// tree.check(&mut tx).unwrap();
/// tx.commit().unwrap();
/// # drop(store);
/// # let _ = std::fs::remove_file(&path);
/// # let mut w = path.into_os_string(); w.push(".wal");
/// # let _ = std::fs::remove_file(std::path::PathBuf::from(w));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTree {
    /// Current root page.
    pub root: PageId,
    leaf_cap: usize,
    inner_cap: usize,
}

impl BTree {
    /// Create an empty tree (a single empty leaf).
    pub fn create(tx: &mut impl PageWrite) -> Result<BTree> {
        let root = tx.allocate(PageKind::BTreeLeaf)?;
        tx.page_mut(root)?.write_u16(NKEYS_OFF, 0);
        Ok(BTree {
            root,
            leaf_cap: MAX_LEAF_CAP,
            inner_cap: MAX_INNER_CAP,
        })
    }

    /// Open an existing tree by its root page.
    pub fn open(root: PageId) -> BTree {
        BTree {
            root,
            leaf_cap: MAX_LEAF_CAP,
            inner_cap: MAX_INNER_CAP,
        }
    }

    /// Override node capacities (testing and fanout-ablation benches).
    /// Must be consistent across every handle that touches this tree.
    pub fn with_caps(mut self, leaf_cap: usize, inner_cap: usize) -> BTree {
        assert!((2..=MAX_LEAF_CAP).contains(&leaf_cap));
        assert!((2..=MAX_INNER_CAP).contains(&inner_cap));
        self.leaf_cap = leaf_cap;
        self.inner_cap = inner_cap;
        self
    }

    // -- node accessors ----------------------------------------------------

    fn nkeys(page: &PageBuf) -> usize {
        page.read_u16(NKEYS_OFF) as usize
    }

    fn leaf_key(page: &PageBuf, i: usize) -> u64 {
        page.read_u64(LEAF_ENTRIES_OFF + i * 16)
    }

    fn leaf_val(page: &PageBuf, i: usize) -> u64 {
        page.read_u64(LEAF_ENTRIES_OFF + i * 16 + 8)
    }

    fn inner_key(page: &PageBuf, i: usize) -> u64 {
        page.read_u64(INNER_ENTRIES_OFF + i * 16)
    }

    fn inner_child(page: &PageBuf, i: usize) -> PageId {
        // child index 0 is child0; i >= 1 pairs with key[i-1].
        if i == 0 {
            PageId(page.read_u64(INNER_CHILD0_OFF))
        } else {
            PageId(page.read_u64(INNER_ENTRIES_OFF + (i - 1) * 16 + 8))
        }
    }

    /// Binary search a leaf; Ok(i) = found at i, Err(i) = insert position.
    fn leaf_search(page: &PageBuf, key: u64) -> std::result::Result<usize, usize> {
        let n = Self::nkeys(page);
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = Self::leaf_key(page, mid);
            if k < key {
                lo = mid + 1;
            } else if k > key {
                hi = mid;
            } else {
                return Ok(mid);
            }
        }
        Err(lo)
    }

    /// Child index to descend into for `key`.
    fn inner_route(page: &PageBuf, key: u64) -> usize {
        let n = Self::nkeys(page);
        let mut lo = 0usize;
        let mut hi = n;
        // Find the number of separators <= key.
        while lo < hi {
            let mid = (lo + hi) / 2;
            if Self::inner_key(page, mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    // -- public operations --------------------------------------------------

    /// Look up `key`.
    pub fn get(&self, tx: &mut impl PageRead, key: u64) -> Result<Option<u64>> {
        let mut page_id = self.root;
        loop {
            let page = tx.page(page_id)?;
            match page.kind() {
                Some(PageKind::BTreeInner) => {
                    let idx = Self::inner_route(page, key);
                    page_id = Self::inner_child(page, idx);
                }
                Some(PageKind::BTreeLeaf) => {
                    return Ok(match Self::leaf_search(page, key) {
                        Ok(i) => Some(Self::leaf_val(page, i)),
                        Err(_) => None,
                    });
                }
                _ => return Err(StorageError::TreeCorrupt("unexpected page kind")),
            }
        }
    }

    /// Insert or overwrite; returns the previous value if any.
    pub fn insert(&mut self, tx: &mut impl PageWrite, key: u64, val: u64) -> Result<Option<u64>> {
        // Descend, recording the path of (inner page, child index).
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut page_id = self.root;
        loop {
            let page = tx.page(page_id)?;
            match page.kind() {
                Some(PageKind::BTreeInner) => {
                    let idx = Self::inner_route(page, key);
                    let child = Self::inner_child(page, idx);
                    path.push((page_id, idx));
                    page_id = child;
                }
                Some(PageKind::BTreeLeaf) => break,
                _ => return Err(StorageError::TreeCorrupt("unexpected page kind")),
            }
        }

        // Leaf insert.
        let (found, pos) = match Self::leaf_search(tx.page(page_id)?, key) {
            Ok(i) => (true, i),
            Err(i) => (false, i),
        };
        if found {
            let page = tx.page_mut(page_id)?;
            let old = Self::leaf_val(page, pos);
            page.write_u64(LEAF_ENTRIES_OFF + pos * 16 + 8, val);
            return Ok(Some(old));
        }

        let n = Self::nkeys(tx.page(page_id)?);
        if n < self.leaf_cap {
            Self::leaf_insert_at(tx.page_mut(page_id)?, pos, key, val);
            return Ok(None);
        }

        // Split the leaf: right half moves to a new page.
        let split = n / 2;
        let new_leaf = tx.allocate(PageKind::BTreeLeaf)?;
        {
            // Copy entries [split..n] into the new leaf.
            let (entries, old_link) = {
                let page = tx.page(page_id)?;
                let mut v = Vec::with_capacity(n - split);
                for i in split..n {
                    v.push((Self::leaf_key(page, i), Self::leaf_val(page, i)));
                }
                (v, page.link())
            };
            let right = tx.page_mut(new_leaf)?;
            right.write_u16(NKEYS_OFF, entries.len() as u16);
            for (i, (k, v)) in entries.iter().enumerate() {
                right.write_u64(LEAF_ENTRIES_OFF + i * 16, *k);
                right.write_u64(LEAF_ENTRIES_OFF + i * 16 + 8, *v);
            }
            right.set_link(old_link);
            let left = tx.page_mut(page_id)?;
            left.write_u16(NKEYS_OFF, split as u16);
            left.set_link(new_leaf);
        }
        let sep = Self::leaf_key(tx.page(new_leaf)?, 0);
        // Insert the pending key into the proper half.
        if key < sep {
            let pos = match Self::leaf_search(tx.page(page_id)?, key) {
                Err(i) => i,
                Ok(_) => unreachable!("key was absent"),
            };
            Self::leaf_insert_at(tx.page_mut(page_id)?, pos, key, val);
        } else {
            let pos = match Self::leaf_search(tx.page(new_leaf)?, key) {
                Err(i) => i,
                Ok(_) => unreachable!("key was absent"),
            };
            Self::leaf_insert_at(tx.page_mut(new_leaf)?, pos, key, val);
        }

        self.propagate_split(tx, path, sep, new_leaf)?;
        Ok(None)
    }

    /// Remove `key`; returns its value if present.
    ///
    /// Underflowing nodes (below half occupancy) borrow from or merge
    /// with a sibling, so space is reclaimed and non-root nodes stay at
    /// least half full — checked by [`BTree::check`].
    pub fn remove(&mut self, tx: &mut impl PageWrite, key: u64) -> Result<Option<u64>> {
        // Descend, recording (parent page, child index) like insert.
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut page_id = self.root;
        loop {
            let page = tx.page(page_id)?;
            match page.kind() {
                Some(PageKind::BTreeInner) => {
                    let idx = Self::inner_route(page, key);
                    let child = Self::inner_child(page, idx);
                    path.push((page_id, idx));
                    page_id = child;
                }
                Some(PageKind::BTreeLeaf) => break,
                _ => return Err(StorageError::TreeCorrupt("unexpected page kind")),
            }
        }
        let pos = match Self::leaf_search(tx.page(page_id)?, key) {
            Ok(i) => i,
            Err(_) => return Ok(None),
        };
        let page = tx.page_mut(page_id)?;
        let old = Self::leaf_val(page, pos);
        let n = Self::nkeys(page);
        // Shift entries left over the removed one.
        for i in pos..n - 1 {
            let k = Self::leaf_key(page, i + 1);
            let v = Self::leaf_val(page, i + 1);
            page.write_u64(LEAF_ENTRIES_OFF + i * 16, k);
            page.write_u64(LEAF_ENTRIES_OFF + i * 16 + 8, v);
        }
        page.write_u16(NKEYS_OFF, (n - 1) as u16);

        self.rebalance_after_delete(tx, page_id, path)?;
        Ok(Some(old))
    }

    // -- deletion rebalancing ------------------------------------------------

    fn leaf_min(&self) -> usize {
        self.leaf_cap / 2
    }

    fn inner_min(&self) -> usize {
        self.inner_cap / 2
    }

    /// Restore occupancy invariants from `node` upwards along `path`.
    fn rebalance_after_delete(
        &mut self,
        tx: &mut impl PageWrite,
        mut node: PageId,
        mut path: Vec<(PageId, usize)>,
    ) -> Result<()> {
        loop {
            let (kind, nkeys) = {
                let page = tx.page(node)?;
                (page.kind(), Self::nkeys(page))
            };
            let min = match kind {
                Some(PageKind::BTreeLeaf) => self.leaf_min(),
                Some(PageKind::BTreeInner) => self.inner_min(),
                _ => return Err(StorageError::TreeCorrupt("unexpected page kind")),
            };
            let Some((parent, child_idx)) = path.pop() else {
                // Root: collapse an empty inner root onto its child.
                return self.collapse_root(tx);
            };
            if nkeys >= min {
                return Ok(());
            }
            // Prefer the left sibling (keeps the leaf chain simple).
            let parent_keys = Self::nkeys(tx.page(parent)?);
            let (sib_idx, node_is_left) = if child_idx > 0 {
                (child_idx - 1, false)
            } else {
                (child_idx + 1, true)
            };
            debug_assert!(sib_idx <= parent_keys);
            let sibling = Self::inner_child(tx.page(parent)?, sib_idx);
            let sib_keys = Self::nkeys(tx.page(sibling)?);
            // The separator between the left and right child of the pair.
            let sep_idx = if node_is_left { child_idx } else { sib_idx };
            let (left, right) = if node_is_left {
                (node, sibling)
            } else {
                (sibling, node)
            };

            if sib_keys > min {
                // Borrow one entry through the parent.
                match kind {
                    Some(PageKind::BTreeLeaf) => {
                        self.leaf_borrow(tx, left, right, parent, sep_idx, node_is_left)?
                    }
                    _ => self.inner_borrow(tx, left, right, parent, sep_idx, node_is_left)?,
                }
                return Ok(());
            }

            // Merge right into left, drop the separator from the parent.
            match kind {
                Some(PageKind::BTreeLeaf) => self.leaf_merge(tx, left, right, parent, sep_idx)?,
                _ => self.inner_merge(tx, left, right, parent, sep_idx)?,
            }
            node = parent;
        }
    }

    fn leaf_borrow(
        &mut self,
        tx: &mut impl PageWrite,
        left: PageId,
        right: PageId,
        parent: PageId,
        sep_idx: usize,
        node_is_left: bool,
    ) -> Result<()> {
        if node_is_left {
            // Move the right sibling's first entry to the left's end.
            let (k, v) = {
                let page = tx.page(right)?;
                (Self::leaf_key(page, 0), Self::leaf_val(page, 0))
            };
            let ln = Self::nkeys(tx.page(left)?);
            {
                let page = tx.page_mut(left)?;
                page.write_u64(LEAF_ENTRIES_OFF + ln * 16, k);
                page.write_u64(LEAF_ENTRIES_OFF + ln * 16 + 8, v);
                page.write_u16(NKEYS_OFF, (ln + 1) as u16);
            }
            {
                let page = tx.page_mut(right)?;
                let rn = Self::nkeys(page);
                for i in 0..rn - 1 {
                    let k = Self::leaf_key(page, i + 1);
                    let v = Self::leaf_val(page, i + 1);
                    page.write_u64(LEAF_ENTRIES_OFF + i * 16, k);
                    page.write_u64(LEAF_ENTRIES_OFF + i * 16 + 8, v);
                }
                page.write_u16(NKEYS_OFF, (rn - 1) as u16);
            }
            let new_sep = Self::leaf_key(tx.page(right)?, 0);
            tx.page_mut(parent)?
                .write_u64(INNER_ENTRIES_OFF + sep_idx * 16, new_sep);
        } else {
            // Move the left sibling's last entry to the right's front.
            let ln = Self::nkeys(tx.page(left)?);
            let (k, v) = {
                let page = tx.page(left)?;
                (Self::leaf_key(page, ln - 1), Self::leaf_val(page, ln - 1))
            };
            tx.page_mut(left)?.write_u16(NKEYS_OFF, (ln - 1) as u16);
            {
                let page = tx.page_mut(right)?;
                let rn = Self::nkeys(page);
                for i in (0..rn).rev() {
                    let mk = Self::leaf_key(page, i);
                    let mv = Self::leaf_val(page, i);
                    page.write_u64(LEAF_ENTRIES_OFF + (i + 1) * 16, mk);
                    page.write_u64(LEAF_ENTRIES_OFF + (i + 1) * 16 + 8, mv);
                }
                page.write_u64(LEAF_ENTRIES_OFF, k);
                page.write_u64(LEAF_ENTRIES_OFF + 8, v);
                page.write_u16(NKEYS_OFF, (rn + 1) as u16);
            }
            tx.page_mut(parent)?
                .write_u64(INNER_ENTRIES_OFF + sep_idx * 16, k);
        }
        Ok(())
    }

    fn leaf_merge(
        &mut self,
        tx: &mut impl PageWrite,
        left: PageId,
        right: PageId,
        parent: PageId,
        sep_idx: usize,
    ) -> Result<()> {
        // Append right's entries to left; splice the leaf chain.
        let (entries, right_link) = {
            let page = tx.page(right)?;
            let rn = Self::nkeys(page);
            let mut v = Vec::with_capacity(rn);
            for i in 0..rn {
                v.push((Self::leaf_key(page, i), Self::leaf_val(page, i)));
            }
            (v, page.link())
        };
        {
            let page = tx.page_mut(left)?;
            let ln = Self::nkeys(page);
            for (i, (k, v)) in entries.iter().enumerate() {
                page.write_u64(LEAF_ENTRIES_OFF + (ln + i) * 16, *k);
                page.write_u64(LEAF_ENTRIES_OFF + (ln + i) * 16 + 8, *v);
            }
            page.write_u16(NKEYS_OFF, (ln + entries.len()) as u16);
            page.set_link(right_link);
        }
        tx.free_page(right)?;
        Self::inner_remove_separator(tx.page_mut(parent)?, sep_idx);
        Ok(())
    }

    fn inner_borrow(
        &mut self,
        tx: &mut impl PageWrite,
        left: PageId,
        right: PageId,
        parent: PageId,
        sep_idx: usize,
        node_is_left: bool,
    ) -> Result<()> {
        let sep = Self::inner_key(tx.page(parent)?, sep_idx);
        if node_is_left {
            // Rotate left: separator comes down to left's end; right's
            // first child moves over; right's first key goes up.
            let (up, child0) = {
                let page = tx.page(right)?;
                (Self::inner_key(page, 0), Self::inner_child(page, 0))
            };
            {
                let page = tx.page_mut(left)?;
                let ln = Self::nkeys(page);
                page.write_u64(INNER_ENTRIES_OFF + ln * 16, sep);
                page.write_u64(INNER_ENTRIES_OFF + ln * 16 + 8, child0.0);
                page.write_u16(NKEYS_OFF, (ln + 1) as u16);
            }
            {
                let page = tx.page_mut(right)?;
                let rn = Self::nkeys(page);
                // child0 = old child1; keys/children shift left by one.
                let new_child0 = Self::inner_child(page, 1);
                page.write_u64(INNER_CHILD0_OFF, new_child0.0);
                for i in 0..rn - 1 {
                    let k = Self::inner_key(page, i + 1);
                    let c = page.read_u64(INNER_ENTRIES_OFF + (i + 1) * 16 + 8);
                    page.write_u64(INNER_ENTRIES_OFF + i * 16, k);
                    page.write_u64(INNER_ENTRIES_OFF + i * 16 + 8, c);
                }
                page.write_u16(NKEYS_OFF, (rn - 1) as u16);
            }
            tx.page_mut(parent)?
                .write_u64(INNER_ENTRIES_OFF + sep_idx * 16, up);
        } else {
            // Rotate right: separator comes down to right's front;
            // left's last child moves over; left's last key goes up.
            let ln = Self::nkeys(tx.page(left)?);
            let (up, moved_child) = {
                let page = tx.page(left)?;
                (Self::inner_key(page, ln - 1), Self::inner_child(page, ln))
            };
            tx.page_mut(left)?.write_u16(NKEYS_OFF, (ln - 1) as u16);
            {
                let page = tx.page_mut(right)?;
                let rn = Self::nkeys(page);
                // Shift keys/children right by one; old child0 pairs
                // with the descending separator.
                let old_child0 = Self::inner_child(page, 0);
                for i in (0..rn).rev() {
                    let k = Self::inner_key(page, i);
                    let c = page.read_u64(INNER_ENTRIES_OFF + i * 16 + 8);
                    page.write_u64(INNER_ENTRIES_OFF + (i + 1) * 16, k);
                    page.write_u64(INNER_ENTRIES_OFF + (i + 1) * 16 + 8, c);
                }
                page.write_u64(INNER_ENTRIES_OFF, sep);
                page.write_u64(INNER_ENTRIES_OFF + 8, old_child0.0);
                page.write_u64(INNER_CHILD0_OFF, moved_child.0);
                page.write_u16(NKEYS_OFF, (rn + 1) as u16);
            }
            tx.page_mut(parent)?
                .write_u64(INNER_ENTRIES_OFF + sep_idx * 16, up);
        }
        Ok(())
    }

    fn inner_merge(
        &mut self,
        tx: &mut impl PageWrite,
        left: PageId,
        right: PageId,
        parent: PageId,
        sep_idx: usize,
    ) -> Result<()> {
        let sep = Self::inner_key(tx.page(parent)?, sep_idx);
        let (keys, children) = {
            let page = tx.page(right)?;
            let rn = Self::nkeys(page);
            let keys: Vec<u64> = (0..rn).map(|i| Self::inner_key(page, i)).collect();
            let children: Vec<PageId> = (0..=rn).map(|i| Self::inner_child(page, i)).collect();
            (keys, children)
        };
        {
            let page = tx.page_mut(left)?;
            let ln = Self::nkeys(page);
            // Separator descends, then right's keys/children append.
            page.write_u64(INNER_ENTRIES_OFF + ln * 16, sep);
            page.write_u64(INNER_ENTRIES_OFF + ln * 16 + 8, children[0].0);
            for (i, k) in keys.iter().enumerate() {
                page.write_u64(INNER_ENTRIES_OFF + (ln + 1 + i) * 16, *k);
                page.write_u64(INNER_ENTRIES_OFF + (ln + 1 + i) * 16 + 8, children[i + 1].0);
            }
            page.write_u16(NKEYS_OFF, (ln + 1 + keys.len()) as u16);
        }
        tx.free_page(right)?;
        Self::inner_remove_separator(tx.page_mut(parent)?, sep_idx);
        Ok(())
    }

    /// Remove key[sep_idx] and child[sep_idx + 1] from an inner node.
    fn inner_remove_separator(page: &mut PageBuf, sep_idx: usize) {
        let n = Self::nkeys(page);
        for i in sep_idx..n - 1 {
            let k = Self::inner_key(page, i + 1);
            let c = page.read_u64(INNER_ENTRIES_OFF + (i + 1) * 16 + 8);
            page.write_u64(INNER_ENTRIES_OFF + i * 16, k);
            page.write_u64(INNER_ENTRIES_OFF + i * 16 + 8, c);
        }
        page.write_u16(NKEYS_OFF, (n - 1) as u16);
    }

    /// Collect up to `limit` entries with keys `>= start`, in key order.
    pub fn scan_from(
        &self,
        tx: &mut impl PageRead,
        start: u64,
        limit: usize,
    ) -> Result<Vec<(u64, u64)>> {
        let mut page_id = self.root;
        loop {
            let page = tx.page(page_id)?;
            match page.kind() {
                Some(PageKind::BTreeInner) => {
                    let idx = Self::inner_route(page, start);
                    page_id = Self::inner_child(page, idx);
                }
                Some(PageKind::BTreeLeaf) => break,
                _ => return Err(StorageError::TreeCorrupt("unexpected page kind")),
            }
        }
        let mut out = Vec::new();
        let mut pos = match Self::leaf_search(tx.page(page_id)?, start) {
            Ok(i) | Err(i) => i,
        };
        while out.len() < limit {
            let page = tx.page(page_id)?;
            let n = Self::nkeys(page);
            while pos < n && out.len() < limit {
                out.push((Self::leaf_key(page, pos), Self::leaf_val(page, pos)));
                pos += 1;
            }
            if out.len() >= limit {
                break;
            }
            let next = page.link();
            if next.is_null() {
                break;
            }
            page_id = next;
            pos = 0;
        }
        Ok(out)
    }

    /// Collect every entry in key order.
    pub fn scan_all(&self, tx: &mut impl PageRead) -> Result<Vec<(u64, u64)>> {
        self.scan_from(tx, 0, usize::MAX)
    }

    /// Number of entries (walks the leaf chain).
    pub fn len(&self, tx: &mut impl PageRead) -> Result<usize> {
        Ok(self.scan_all(tx)?.len())
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self, tx: &mut impl PageRead) -> Result<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Height of the tree (1 = just a root leaf). Diagnostic.
    pub fn height(&self, tx: &mut impl PageRead) -> Result<usize> {
        let mut h = 1;
        let mut page_id = self.root;
        loop {
            let page = tx.page(page_id)?;
            match page.kind() {
                Some(PageKind::BTreeInner) => {
                    page_id = Self::inner_child(page, 0);
                    h += 1;
                }
                Some(PageKind::BTreeLeaf) => return Ok(h),
                _ => return Err(StorageError::TreeCorrupt("unexpected page kind")),
            }
        }
    }

    // -- internals -----------------------------------------------------------

    fn leaf_insert_at(page: &mut PageBuf, pos: usize, key: u64, val: u64) {
        let n = Self::nkeys(page);
        // Shift entries right to open a gap.
        for i in (pos..n).rev() {
            let k = Self::leaf_key(page, i);
            let v = Self::leaf_val(page, i);
            page.write_u64(LEAF_ENTRIES_OFF + (i + 1) * 16, k);
            page.write_u64(LEAF_ENTRIES_OFF + (i + 1) * 16 + 8, v);
        }
        page.write_u64(LEAF_ENTRIES_OFF + pos * 16, key);
        page.write_u64(LEAF_ENTRIES_OFF + pos * 16 + 8, val);
        page.write_u16(NKEYS_OFF, (n + 1) as u16);
    }

    /// Insert separator `sep` (pointing at `right`) into the parents on
    /// `path`, splitting inner nodes as needed; grows a new root if the
    /// split reaches the top.
    fn propagate_split(
        &mut self,
        tx: &mut impl PageWrite,
        mut path: Vec<(PageId, usize)>,
        mut sep: u64,
        mut right: PageId,
    ) -> Result<()> {
        loop {
            let (parent_id, child_idx) = match path.pop() {
                Some(p) => p,
                None => {
                    // Split reached the root: grow the tree.
                    let new_root = tx.allocate(PageKind::BTreeInner)?;
                    let old_root = self.root;
                    let page = tx.page_mut(new_root)?;
                    page.write_u16(NKEYS_OFF, 1);
                    page.write_u64(INNER_CHILD0_OFF, old_root.0);
                    page.write_u64(INNER_ENTRIES_OFF, sep);
                    page.write_u64(INNER_ENTRIES_OFF + 8, right.0);
                    self.root = new_root;
                    return Ok(());
                }
            };

            let n = Self::nkeys(tx.page(parent_id)?);
            if n < self.inner_cap {
                Self::inner_insert_at(tx.page_mut(parent_id)?, child_idx, sep, right);
                return Ok(());
            }

            // Split the inner node. Gather its (key, child) pairs plus the
            // pending separator, then redistribute around a middle key
            // that moves up.
            let (mut keys, mut children) = {
                let page = tx.page(parent_id)?;
                let mut keys = Vec::with_capacity(n + 1);
                let mut children = Vec::with_capacity(n + 2);
                children.push(Self::inner_child(page, 0));
                for i in 0..n {
                    keys.push(Self::inner_key(page, i));
                    children.push(Self::inner_child(page, i + 1));
                }
                (keys, children)
            };
            keys.insert(child_idx, sep);
            children.insert(child_idx + 1, right);

            let mid = keys.len() / 2;
            let up_key = keys[mid];
            let right_keys: Vec<u64> = keys[mid + 1..].to_vec();
            let right_children: Vec<PageId> = children[mid + 1..].to_vec();
            let left_keys: Vec<u64> = keys[..mid].to_vec();
            let left_children: Vec<PageId> = children[..mid + 1].to_vec();

            let new_inner = tx.allocate(PageKind::BTreeInner)?;
            Self::write_inner(tx.page_mut(new_inner)?, &right_keys, &right_children);
            Self::write_inner(tx.page_mut(parent_id)?, &left_keys, &left_children);

            sep = up_key;
            right = new_inner;
        }
    }

    fn inner_insert_at(page: &mut PageBuf, child_idx: usize, sep: u64, right: PageId) {
        let n = Self::nkeys(page);
        // Keys at indexes >= child_idx shift right; same for children
        // beyond child_idx + 1.
        for i in (child_idx..n).rev() {
            let k = Self::inner_key(page, i);
            let c = page.read_u64(INNER_ENTRIES_OFF + i * 16 + 8);
            page.write_u64(INNER_ENTRIES_OFF + (i + 1) * 16, k);
            page.write_u64(INNER_ENTRIES_OFF + (i + 1) * 16 + 8, c);
        }
        page.write_u64(INNER_ENTRIES_OFF + child_idx * 16, sep);
        page.write_u64(INNER_ENTRIES_OFF + child_idx * 16 + 8, right.0);
        page.write_u16(NKEYS_OFF, (n + 1) as u16);
    }

    fn write_inner(page: &mut PageBuf, keys: &[u64], children: &[PageId]) {
        debug_assert_eq!(children.len(), keys.len() + 1);
        page.write_u16(NKEYS_OFF, keys.len() as u16);
        page.write_u64(INNER_CHILD0_OFF, children[0].0);
        for (i, k) in keys.iter().enumerate() {
            page.write_u64(INNER_ENTRIES_OFF + i * 16, *k);
            page.write_u64(INNER_ENTRIES_OFF + i * 16 + 8, children[i + 1].0);
        }
    }

    /// If the root is an inner node with no separators, its single child
    /// becomes the root (the only rebalancing deletion performs).
    fn collapse_root(&mut self, tx: &mut impl PageWrite) -> Result<()> {
        loop {
            let page = tx.page(self.root)?;
            if page.kind() == Some(PageKind::BTreeInner) && Self::nkeys(page) == 0 {
                let child = Self::inner_child(page, 0);
                let old = self.root;
                self.root = child;
                tx.free_page(old)?;
            } else {
                return Ok(());
            }
        }
    }

    /// Validate structural invariants (tests and the `fsck` example).
    pub fn check(&self, tx: &mut impl PageRead) -> Result<()> {
        self.check_node(tx, self.root, None, None)?;
        // Leaf chain must be globally sorted.
        let all = self.scan_all(tx)?;
        for w in all.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(StorageError::TreeCorrupt("leaf chain out of order"));
            }
        }
        Ok(())
    }

    fn check_node(
        &self,
        tx: &mut impl PageRead,
        page_id: PageId,
        lower: Option<u64>,
        upper: Option<u64>,
    ) -> Result<()> {
        let (kind, keys, children) = {
            let page = tx.page(page_id)?;
            let kind = page.kind();
            match kind {
                Some(PageKind::BTreeLeaf) => {
                    let n = Self::nkeys(page);
                    let keys: Vec<u64> = (0..n).map(|i| Self::leaf_key(page, i)).collect();
                    (kind, keys, Vec::new())
                }
                Some(PageKind::BTreeInner) => {
                    let n = Self::nkeys(page);
                    let keys: Vec<u64> = (0..n).map(|i| Self::inner_key(page, i)).collect();
                    let children: Vec<PageId> =
                        (0..=n).map(|i| Self::inner_child(page, i)).collect();
                    (kind, keys, children)
                }
                _ => return Err(StorageError::TreeCorrupt("unexpected page kind")),
            }
        };
        for w in keys.windows(2) {
            if w[0] >= w[1] {
                return Err(StorageError::TreeCorrupt("node keys out of order"));
            }
        }
        for &k in &keys {
            if lower.is_some_and(|lo| k < lo) || upper.is_some_and(|hi| k >= hi) {
                return Err(StorageError::TreeCorrupt("key outside separator bounds"));
            }
        }
        // Occupancy: non-root nodes stay at least half full (deletion
        // rebalancing maintains this).
        if page_id != self.root {
            let min = match kind {
                Some(PageKind::BTreeLeaf) => self.leaf_min(),
                _ => self.inner_min(),
            };
            if keys.len() < min {
                return Err(StorageError::TreeCorrupt("node under-occupied"));
            }
        }
        if kind == Some(PageKind::BTreeInner) {
            if keys.is_empty() && page_id != self.root {
                return Err(StorageError::TreeCorrupt("empty non-root inner node"));
            }
            for i in 0..children.len() {
                let lo = if i == 0 { lower } else { Some(keys[i - 1]) };
                let hi = if i == keys.len() {
                    upper
                } else {
                    Some(keys[i])
                };
                self.check_node(tx, children[i], lo, hi)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempStore;

    #[test]
    fn insert_get_basic() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let mut t = BTree::create(&mut tx).unwrap();
        assert_eq!(t.insert(&mut tx, 5, 50).unwrap(), None);
        assert_eq!(t.insert(&mut tx, 3, 30).unwrap(), None);
        assert_eq!(t.insert(&mut tx, 5, 55).unwrap(), Some(50));
        assert_eq!(t.get(&mut tx, 5).unwrap(), Some(55));
        assert_eq!(t.get(&mut tx, 3).unwrap(), Some(30));
        assert_eq!(t.get(&mut tx, 4).unwrap(), None);
        tx.commit().unwrap();
    }

    #[test]
    fn splits_with_sequential_keys() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let mut t = BTree::create(&mut tx).unwrap().with_caps(4, 4);
        for k in 0..200u64 {
            t.insert(&mut tx, k, k * 10).unwrap();
        }
        t.check(&mut tx).unwrap();
        assert!(t.height(&mut tx).unwrap() >= 3);
        for k in 0..200u64 {
            assert_eq!(t.get(&mut tx, k).unwrap(), Some(k * 10), "key {k}");
        }
        assert_eq!(t.len(&mut tx).unwrap(), 200);
        tx.commit().unwrap();
    }

    #[test]
    fn splits_with_reverse_and_interleaved_keys() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let mut t = BTree::create(&mut tx).unwrap().with_caps(4, 4);
        for k in (0..100u64).rev() {
            t.insert(&mut tx, k * 2, k).unwrap();
        }
        for k in 0..100u64 {
            t.insert(&mut tx, k * 2 + 1, k + 1000).unwrap();
        }
        t.check(&mut tx).unwrap();
        assert_eq!(t.len(&mut tx).unwrap(), 200);
        assert_eq!(t.get(&mut tx, 7).unwrap(), Some(1003));
        tx.commit().unwrap();
    }

    #[test]
    fn remove_and_lazy_deletion() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let mut t = BTree::create(&mut tx).unwrap().with_caps(4, 4);
        for k in 0..100u64 {
            t.insert(&mut tx, k, k).unwrap();
        }
        for k in (0..100u64).filter(|k| k % 2 == 0) {
            assert_eq!(t.remove(&mut tx, k).unwrap(), Some(k));
        }
        assert_eq!(t.remove(&mut tx, 0).unwrap(), None);
        t.check(&mut tx).unwrap();
        for k in 0..100u64 {
            let expect = if k % 2 == 1 { Some(k) } else { None };
            assert_eq!(t.get(&mut tx, k).unwrap(), expect);
        }
        assert_eq!(t.len(&mut tx).unwrap(), 50);
        tx.commit().unwrap();
    }

    #[test]
    fn root_collapses_when_emptied() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let mut t = BTree::create(&mut tx).unwrap().with_caps(4, 4);
        for k in 0..50u64 {
            t.insert(&mut tx, k, k).unwrap();
        }
        assert!(t.height(&mut tx).unwrap() > 1);
        for k in 0..50u64 {
            t.remove(&mut tx, k).unwrap();
        }
        t.check(&mut tx).unwrap();
        assert_eq!(t.len(&mut tx).unwrap(), 0);
        tx.commit().unwrap();
    }

    #[test]
    fn deletion_merges_reclaim_pages() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let mut t = BTree::create(&mut tx).unwrap().with_caps(4, 4);
        for k in 0..500u64 {
            t.insert(&mut tx, k, k).unwrap();
        }
        let grown = tx.page_count().unwrap();
        for k in 0..500u64 {
            t.remove(&mut tx, k).unwrap();
        }
        t.check(&mut tx).unwrap();
        assert_eq!(t.len(&mut tx).unwrap(), 0);
        assert_eq!(t.height(&mut tx).unwrap(), 1, "tree shrinks to one leaf");
        // The freed nodes go to the free list: re-inserting must not
        // grow the file.
        for k in 0..500u64 {
            t.insert(&mut tx, k, k).unwrap();
        }
        assert_eq!(tx.page_count().unwrap(), grown);
        t.check(&mut tx).unwrap();
        tx.commit().unwrap();
    }

    #[test]
    fn interleaved_insert_delete_stays_balanced() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let mut t = BTree::create(&mut tx).unwrap().with_caps(4, 4);
        // Waves of inserts and deletes with different strides.
        for wave in 0..6u64 {
            for k in 0..200u64 {
                t.insert(&mut tx, k * 7 + wave, k).unwrap();
            }
            for k in (0..200u64).filter(|k| k % 3 != 0) {
                t.remove(&mut tx, k * 7 + wave).unwrap();
            }
            t.check(&mut tx).unwrap();
        }
        // Survivors are exactly the k % 3 == 0 entries of each wave.
        for wave in 0..6u64 {
            for k in 0..200u64 {
                let expect = if k % 3 == 0 { Some(k) } else { None };
                assert_eq!(t.get(&mut tx, k * 7 + wave).unwrap(), expect);
            }
        }
        tx.commit().unwrap();
    }

    #[test]
    fn scan_from_and_limits() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let mut t = BTree::create(&mut tx).unwrap().with_caps(4, 4);
        for k in (0..100u64).map(|k| k * 3) {
            t.insert(&mut tx, k, k + 1).unwrap();
        }
        let got = t.scan_from(&mut tx, 10, 5).unwrap();
        assert_eq!(got, vec![(12, 13), (15, 16), (18, 19), (21, 22), (24, 25)]);
        let all = t.scan_all(&mut tx).unwrap();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        // Scan past the end.
        assert!(t.scan_from(&mut tx, 10_000, 10).unwrap().is_empty());
        tx.commit().unwrap();
    }

    #[test]
    fn persists_across_reopen() {
        let mut store = TempStore::new();
        let root = {
            let mut tx = store.begin();
            let mut t = BTree::create(&mut tx).unwrap();
            for k in 0..1000u64 {
                t.insert(&mut tx, k * 7, k).unwrap();
            }
            tx.set_root(1, t.root.0).unwrap();
            tx.commit().unwrap();
            t.root
        };
        store.reopen();
        let mut r = store.read();
        assert_eq!(r.root(1).unwrap(), root.0);
        let t = BTree::open(root);
        for k in 0..1000u64 {
            assert_eq!(t.get(&mut r, k * 7).unwrap(), Some(k));
        }
        t.check(&mut r).unwrap();
    }

    #[test]
    fn full_capacity_nodes() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let mut t = BTree::create(&mut tx).unwrap();
        // Enough to split max-capacity leaves (254 entries) several times.
        for k in 0..2000u64 {
            t.insert(&mut tx, k, !k).unwrap();
        }
        t.check(&mut tx).unwrap();
        assert_eq!(t.height(&mut tx).unwrap(), 2);
        assert_eq!(t.len(&mut tx).unwrap(), 2000);
        tx.commit().unwrap();
    }

    #[test]
    fn boundary_keys() {
        let store = TempStore::new();
        let mut tx = store.begin();
        let mut t = BTree::create(&mut tx).unwrap();
        t.insert(&mut tx, 0, 1).unwrap();
        t.insert(&mut tx, u64::MAX, 2).unwrap();
        assert_eq!(t.get(&mut tx, 0).unwrap(), Some(1));
        assert_eq!(t.get(&mut tx, u64::MAX).unwrap(), Some(2));
        tx.commit().unwrap();
    }
}
