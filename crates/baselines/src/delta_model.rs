//! Delta-chain storage model (the EXODUS-flavoured comparator).
//!
//! §7 notes that "the EXODUS storage manager provides a general
//! mechanism for implementing a variety of versioning schemes … versions
//! of large objects share common pages."  Page sharing is below our
//! record-level substrate, so this model reproduces the *storage
//! signature* at record granularity: each object's history is a single
//! record holding an RCS-style reverse chain — the latest version is
//! whole (cheap current reads, like Ode), older versions share storage
//! through deltas (cheap space), and every derivation rewrites the
//! chain record (append cost grows with the diff, and old-version reads
//! pay delta replay).  Histories are linear; branching copies, as in
//! the linear model.

use std::path::Path;

use ode_codec::impl_persist_struct;
use ode_delta::{apply, diff, ApplyError, Delta};
use ode_object::{IdAllocator, KvTable, ObjectHeap};
use ode_storage::heap::RecordId;
use ode_storage::{PageRead, PageWrite, Store, StoreOptions};

use crate::model::{BranchOutcome, ModelError, ModelResult, VersionModel};

/// RCS-style chain: the newest state whole, deltas running backward.
#[derive(Debug, Clone, PartialEq)]
struct ReverseChain {
    /// The newest version's full state.
    head: Vec<u8>,
    /// `deltas[i]` turns version `i + 1` into version `i`: the newest
    /// step sits at the end, so an append is a plain push.
    deltas: Vec<Delta>,
}
impl_persist_struct!(ReverseChain { head, deltas });

impl ReverseChain {
    fn new(initial: Vec<u8>) -> ReverseChain {
        ReverseChain {
            head: initial,
            deltas: Vec::new(),
        }
    }

    /// Versions stored.
    fn len(&self) -> usize {
        self.deltas.len() + 1
    }

    /// Append a version: `state` becomes the head and a delta back to
    /// the old head is pushed.
    fn push(&mut self, state: &[u8]) {
        self.deltas.push(diff(state, &self.head));
        self.head = state.to_vec();
    }

    /// Version `index` (0 = oldest): `len() - 1 - index` applications.
    fn materialize(&self, index: usize) -> Result<Vec<u8>, ApplyError> {
        let mut state = self.head.clone();
        for d in self.deltas[index..].iter().rev() {
            state = apply(&state, d)?;
        }
        Ok(state)
    }

    /// Replace the newest state in place. The last delta rebuilds the
    /// previous version *from the head*, so it is re-diffed against
    /// the new one.
    fn set_head(&mut self, state: &[u8]) -> Result<(), ApplyError> {
        if let Some(i) = self.deltas.len().checked_sub(1) {
            let prev = self.materialize(i)?;
            self.deltas[i] = diff(state, &prev);
        }
        self.head = state.to_vec();
        Ok(())
    }
}

/// Per-object record: the delta chain plus the handle of its newest
/// version (so `current_version` is O(1)).
#[derive(Debug, Clone, PartialEq)]
struct DeltaObject {
    chain: ReverseChain,
    latest_handle: u64,
}
impl_persist_struct!(DeltaObject {
    chain,
    latest_handle
});

/// The delta-chain comparator model.
pub struct DeltaModel {
    store: Store,
    /// obj → chain record id.
    objects: KvTable,
    /// version handle → (obj << 20) | chain index.
    versions: KvTable,
    heap: ObjectHeap,
    oids: IdAllocator,
    vids: IdAllocator,
}

const INDEX_BITS: u64 = 20;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

impl DeltaModel {
    /// Create a fresh model store (fsync disabled: benchmark preset).
    pub fn create(path: &Path) -> ModelResult<DeltaModel> {
        let store = Store::create(
            path,
            StoreOptions {
                sync_on_commit: false,
                ..StoreOptions::default()
            },
        )?;
        Ok(DeltaModel {
            store,
            objects: KvTable::new(0),
            versions: KvTable::new(1),
            heap: ObjectHeap::new(2),
            oids: IdAllocator::new(3),
            vids: IdAllocator::new(4),
        })
    }

    fn load_chain(&self, tx: &mut impl PageRead, obj: u64) -> ModelResult<DeltaObject> {
        let rid = self.objects.get(tx, obj)?.ok_or(ModelError::NotFound)?;
        Ok(self.heap.load(tx, RecordId::from_u64(rid))?)
    }

    fn save_chain(
        &self,
        tx: &mut impl PageWrite,
        obj: u64,
        chain: &DeltaObject,
    ) -> ModelResult<()> {
        match self.objects.get(tx, obj)? {
            Some(rid) => {
                let new = self.heap.replace(tx, RecordId::from_u64(rid), chain)?;
                if new.to_u64() != rid {
                    self.objects.put(tx, obj, new.to_u64())?;
                }
            }
            None => {
                let rid = self.heap.store(tx, chain)?;
                self.objects.put(tx, obj, rid.to_u64())?;
            }
        }
        Ok(())
    }

    fn register_version(
        &self,
        tx: &mut impl PageWrite,
        obj: u64,
        index: usize,
    ) -> ModelResult<u64> {
        let ver = self.vids.next(tx)?;
        self.versions
            .put(tx, ver, (obj << INDEX_BITS) | index as u64)?;
        Ok(ver)
    }

    fn locate(&self, tx: &mut impl PageRead, ver: u64) -> ModelResult<(u64, usize)> {
        let packed = self.versions.get(tx, ver)?.ok_or(ModelError::NotFound)?;
        Ok((packed >> INDEX_BITS, (packed & INDEX_MASK) as usize))
    }
}

impl VersionModel for DeltaModel {
    fn name(&self) -> &'static str {
        "delta"
    }

    fn create(&mut self, body: &[u8]) -> ModelResult<u64> {
        let mut tx = self.store.begin();
        let obj = self.oids.next(&mut tx)?;
        let handle = self.register_version(&mut tx, obj, 0)?;
        let record = DeltaObject {
            chain: ReverseChain::new(body.to_vec()),
            latest_handle: handle,
        };
        self.save_chain(&mut tx, obj, &record)?;
        tx.commit()?;
        Ok(obj)
    }

    fn read_current(&mut self, obj: u64) -> ModelResult<Vec<u8>> {
        let mut tx = self.store.read();
        Ok(self.load_chain(&mut tx, obj)?.chain.head)
    }

    fn current_version(&mut self, obj: u64) -> ModelResult<u64> {
        let mut tx = self.store.read();
        Ok(self.load_chain(&mut tx, obj)?.latest_handle)
    }

    fn read_version(&mut self, _obj: u64, ver: u64) -> ModelResult<Vec<u8>> {
        let mut tx = self.store.read();
        let (obj, index) = self.locate(&mut tx, ver)?;
        let record = self.load_chain(&mut tx, obj)?;
        record
            .chain
            .materialize(index)
            .map_err(|_| ModelError::Unsupported("corrupt delta chain"))
    }

    fn update_current(&mut self, obj: u64, body: &[u8]) -> ModelResult<()> {
        let mut tx = self.store.begin();
        let mut record = self.load_chain(&mut tx, obj)?;
        record
            .chain
            .set_head(body)
            .map_err(|_| ModelError::Unsupported("corrupt delta chain"))?;
        self.save_chain(&mut tx, obj, &record)?;
        tx.commit()?;
        Ok(())
    }

    fn new_version(&mut self, obj: u64) -> ModelResult<u64> {
        let mut tx = self.store.begin();
        let mut record = self.load_chain(&mut tx, obj)?;
        let state = record.chain.head.clone();
        record.chain.push(&state);
        let index = record.chain.len() - 1;
        let ver = self.register_version(&mut tx, obj, index)?;
        record.latest_handle = ver;
        self.save_chain(&mut tx, obj, &record)?;
        tx.commit()?;
        Ok(ver)
    }

    fn new_version_from(&mut self, obj: u64, ver: u64) -> ModelResult<BranchOutcome> {
        let current = {
            let mut tx = self.store.read();
            let (owner, index) = self.locate(&mut tx, ver)?;
            // The handle may point into an earlier branch copy; only a
            // handle at the tip of *this* object's chain extends it.
            let record = self.load_chain(&mut tx, owner)?;
            owner == obj && index == record.chain.len() - 1
        };
        if current {
            return Ok(BranchOutcome::Version(self.new_version(obj)?));
        }
        // Linear chains cannot branch: copy, like GemStone/POSTGRES.
        let state = self.read_version(obj, ver)?;
        Ok(BranchOutcome::NewObject(self.create(&state)?))
    }

    fn delete_object(&mut self, obj: u64) -> ModelResult<()> {
        let mut tx = self.store.begin();
        let rid = self
            .objects
            .remove(&mut tx, obj)?
            .ok_or(ModelError::NotFound)?;
        self.heap.delete(&mut tx, RecordId::from_u64(rid))?;
        // Drop this object's version handles.
        let last = self.vids.last(&mut tx)?;
        for ver in 1..=last {
            if let Some(packed) = self.versions.get(&mut tx, ver)? {
                if packed >> INDEX_BITS == obj {
                    self.versions.remove(&mut tx, ver)?;
                }
            }
        }
        tx.commit()?;
        Ok(())
    }

    fn version_count(&mut self, obj: u64) -> ModelResult<u64> {
        let mut tx = self.store.read();
        Ok(self.load_chain(&mut tx, obj)?.chain.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Twelve 2 000-byte states, each a point edit of the last, growing
    /// every fourth step.
    fn evolution() -> Vec<Vec<u8>> {
        let mut state: Vec<u8> = (0..2000).map(|i| (i % 251) as u8).collect();
        let mut versions = vec![state.clone()];
        for step in 1..12usize {
            let idx = (step * 97) % state.len();
            state[idx] = state[idx].wrapping_add(step as u8);
            if step % 4 == 0 {
                state.extend_from_slice(&[step as u8; 16]);
            }
            versions.push(state.clone());
        }
        versions
    }

    fn chain_of(versions: &[Vec<u8>]) -> ReverseChain {
        let mut chain = ReverseChain::new(versions[0].clone());
        for v in &versions[1..] {
            chain.push(v);
        }
        chain
    }

    #[test]
    fn reverse_chain_materializes_every_version() {
        let versions = evolution();
        let chain = chain_of(&versions);
        assert_eq!(chain.len(), 12);
        assert_eq!(chain.head, versions[11]);
        for (i, v) in versions.iter().enumerate() {
            assert_eq!(&chain.materialize(i).unwrap(), v, "version {i}");
        }
        let back: ReverseChain = ode_codec::from_bytes(&ode_codec::to_bytes(&chain)).unwrap();
        assert_eq!(back, chain);
    }

    #[test]
    fn set_head_preserves_older_versions() {
        let versions = evolution();
        let mut chain = chain_of(&versions[..6]);
        let mut edited = versions[5].clone();
        edited[10] ^= 0xFF;
        edited.extend_from_slice(b"suffix");
        chain.set_head(&edited).unwrap();
        assert_eq!(chain.head, edited);
        for (i, v) in versions.iter().enumerate().take(5) {
            assert_eq!(&chain.materialize(i).unwrap(), v, "version {i}");
        }
        // A single-version chain has no delta to re-diff.
        let mut solo = ReverseChain::new(b"one".to_vec());
        solo.set_head(b"two").unwrap();
        assert_eq!(solo.materialize(0).unwrap(), b"two");
    }
}
