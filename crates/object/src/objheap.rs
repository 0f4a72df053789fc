//! Typed record storage: `Persist` values over the byte heap.
//!
//! An [`ObjectHeap`] is the storage home of every object version in a
//! database.  Like [`crate::table::KvTable`] it self-roots in a store
//! root slot, creating its underlying heap lazily.

use ode_codec::Persist;
use ode_storage::heap::{Heap, RecordId};
use ode_storage::{PageId, PageRead, PageWrite, Result};

/// A typed record store rooted in a store root slot.
#[derive(Debug, Clone, Copy)]
pub struct ObjectHeap {
    slot: usize,
}

impl ObjectHeap {
    /// Bind to root `slot`; the heap is created on first write.
    pub fn new(slot: usize) -> ObjectHeap {
        ObjectHeap { slot }
    }

    fn heap(&self, tx: &mut impl PageRead) -> Result<Option<Heap>> {
        let dir = tx.root(self.slot)?;
        Ok(if dir == 0 {
            None
        } else {
            Some(Heap::open(PageId(dir)))
        })
    }

    fn heap_mut(&self, tx: &mut impl PageWrite) -> Result<Heap> {
        match self.heap(tx)? {
            Some(h) => Ok(h),
            None => {
                let h = Heap::create(tx)?;
                tx.set_root(self.slot, h.dir.0)?;
                Ok(h)
            }
        }
    }

    /// Store a value, returning its record id.
    pub fn store<T: Persist>(&self, tx: &mut impl PageWrite, value: &T) -> Result<RecordId> {
        let bytes = ode_codec::to_bytes(value);
        let heap = self.heap_mut(tx)?;
        heap.insert(tx, &bytes)
    }

    /// Store a value in the page holding `near` when it fits there
    /// (see `Heap::insert_near`), returning its record id.
    pub fn store_near<T: Persist>(
        &self,
        tx: &mut impl PageWrite,
        near: RecordId,
        value: &T,
    ) -> Result<RecordId> {
        let bytes = ode_codec::to_bytes(value);
        let heap = self.heap_mut(tx)?;
        heap.insert_near(tx, near, &bytes)
    }

    /// Load a value by record id.
    pub fn load<T: Persist>(&self, tx: &mut impl PageRead, rid: RecordId) -> Result<T> {
        let heap = self
            .heap(tx)?
            .ok_or(ode_storage::StorageError::RecordNotFound {
                page: rid.page,
                slot: rid.slot,
            })?;
        let bytes = heap.get(tx, rid)?;
        Ok(ode_codec::from_bytes(&bytes)?)
    }

    /// Load the raw encoded bytes of a record (used by the delta layer,
    /// which diffs encodings rather than values).
    pub fn load_bytes(&self, tx: &mut impl PageRead, rid: RecordId) -> Result<Vec<u8>> {
        let heap = self
            .heap(tx)?
            .ok_or(ode_storage::StorageError::RecordNotFound {
                page: rid.page,
                slot: rid.slot,
            })?;
        heap.get(tx, rid)
    }

    /// Store raw bytes directly (callers that manage their own encoding).
    pub fn insert_raw(&self, tx: &mut impl PageWrite, bytes: &[u8]) -> Result<RecordId> {
        let heap = self.heap_mut(tx)?;
        heap.insert(tx, bytes)
    }

    /// Replace a record with raw bytes; returns its id, which changes
    /// only when an inline value outgrew its page.
    pub fn replace_raw(
        &self,
        tx: &mut impl PageWrite,
        rid: RecordId,
        bytes: &[u8],
    ) -> Result<RecordId> {
        let heap = self.heap_mut(tx)?;
        heap.replace(tx, rid, bytes)
    }

    /// Replace a record with a new value; returns its id, which changes
    /// only when an inline value outgrew its page.
    pub fn replace<T: Persist>(
        &self,
        tx: &mut impl PageWrite,
        rid: RecordId,
        value: &T,
    ) -> Result<RecordId> {
        let bytes = ode_codec::to_bytes(value);
        let heap = self.heap_mut(tx)?;
        heap.replace(tx, rid, &bytes)
    }

    /// Delete a record. Returns whether it existed.
    pub fn delete(&self, tx: &mut impl PageWrite, rid: RecordId) -> Result<bool> {
        let heap = match self.heap(tx)? {
            Some(h) => h,
            None => return Ok(false),
        };
        heap.delete(tx, rid)
    }

    /// Number of live records.
    pub fn len(&self, tx: &mut impl PageRead) -> Result<u64> {
        match self.heap(tx)? {
            Some(h) => h.len(tx),
            None => Ok(0),
        }
    }

    /// Whether no records exist.
    pub fn is_empty(&self, tx: &mut impl PageRead) -> Result<bool> {
        Ok(self.len(tx)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_codec::impl_persist_struct;
    use ode_storage::{Store, StoreOptions};

    #[derive(Debug, Clone, PartialEq)]
    struct Part {
        name: String,
        qty: u32,
        tags: Vec<String>,
    }
    impl_persist_struct!(Part { name, qty, tags });

    fn temp_store(name: &str) -> (std::path::PathBuf, Store) {
        let mut p = std::env::temp_dir();
        p.push(format!("ode-objheap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let mut wal = p.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
        let store = Store::create(&p, StoreOptions::default()).unwrap();
        (p, store)
    }

    fn cleanup(p: &std::path::Path) {
        let _ = std::fs::remove_file(p);
        let mut wal = p.to_path_buf().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
    }

    fn sample() -> Part {
        Part {
            name: "alu".into(),
            qty: 4,
            tags: vec!["cpu".into(), "v1".into()],
        }
    }

    #[test]
    fn store_load_round_trip() {
        let (path, store) = temp_store("rt");
        let oh = ObjectHeap::new(6);
        let mut tx = store.begin();
        let rid = oh.store(&mut tx, &sample()).unwrap();
        let back: Part = oh.load(&mut tx, rid).unwrap();
        assert_eq!(back, sample());
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn replace_and_delete() {
        let (path, store) = temp_store("replace");
        let oh = ObjectHeap::new(6);
        let mut tx = store.begin();
        let rid = oh.store(&mut tx, &sample()).unwrap();
        let mut v2 = sample();
        v2.qty = 9;
        let rid2 = oh.replace(&mut tx, rid, &v2).unwrap();
        assert_eq!(oh.load::<Part>(&mut tx, rid2).unwrap().qty, 9);
        assert!(oh.delete(&mut tx, rid2).unwrap());
        assert!(!oh.delete(&mut tx, rid2).unwrap());
        assert!(oh.is_empty(&mut tx).unwrap());
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn type_confusion_is_detected() {
        let (path, store) = temp_store("confusion");
        let oh = ObjectHeap::new(6);
        let mut tx = store.begin();
        let rid = oh.store(&mut tx, &"just a string".to_string()).unwrap();
        // Decoding as Part must error, not panic or succeed silently.
        assert!(oh.load::<Part>(&mut tx, rid).is_err());
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn load_from_unbound_heap_errors() {
        let (path, store) = temp_store("unbound");
        let oh = ObjectHeap::new(6);
        let mut r = store.read();
        let rid = RecordId {
            page: PageId(3),
            slot: 0,
        };
        assert!(oh.load::<Part>(&mut r, rid).is_err());
        drop(r);
        drop(store);
        cleanup(&path);
    }
}
