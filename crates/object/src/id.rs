//! Persistent identifiers.
//!
//! The paper distinguishes *object ids* (logically denoting the latest
//! version of an object) from *version ids* (denoting one specific
//! version).  Both are allocated here from persistent counters held in
//! store root slots, so identity survives program invocations — the core
//! of Ode's "objects automatically persist" model.
//!
//! A store may also hold an [`IdClaim`]: the residue class its ids come
//! from. The shards of a routed tier each claim one residue of the same
//! stride, so every id a shard issues is also the id a client names the
//! object or version by, whichever shard it lives on.

use std::fmt;

use ode_codec::{DecodeError, Persist, Reader, Writer};
use ode_storage::{PageRead, PageWrite, Result};

/// A persistent object identity.
///
/// An `Oid` never changes for the lifetime of its object and — following
/// the paper — *logically refers to the latest version* of the object.
/// Ids start at 1; 0 is reserved as a null sentinel in stored links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid(pub u64);

/// A persistent version identity, denoting one specific version of one
/// object. Ids start at 1; 0 is the null sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vid(pub u64);

impl Oid {
    /// The null sentinel (no object).
    pub const NULL: Oid = Oid(0);

    /// Whether this is the null sentinel.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl Vid {
    /// The null sentinel (no version).
    pub const NULL: Vid = Vid(0);

    /// Whether this is the null sentinel.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oid:{}", self.0)
    }
}

impl fmt::Display for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vid:{}", self.0)
    }
}

impl Persist for Oid {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, DecodeError> {
        Ok(Oid(r.get_varint()?))
    }
}

impl Persist for Vid {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, DecodeError> {
        Ok(Vid(r.get_varint()?))
    }
}

/// The ids a store issues: those `≡ residue (mod stride)`.
///
/// Held in one root slot as `stride << 32 | residue`; a zero slot is
/// *unclaimed* and issues like [`IdClaim::DENSE`], so a store that never
/// claimed anything allocates 1, 2, 3, ….
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdClaim {
    stride: u64,
    residue: u64,
}

impl IdClaim {
    /// Every id: what an unclaimed store issues.
    pub const DENSE: IdClaim = IdClaim {
        stride: 1,
        residue: 0,
    };

    /// The ids `≡ residue (mod stride)`; `None` unless `residue <
    /// stride < 2³²`.
    pub fn new(stride: u64, residue: u64) -> Option<IdClaim> {
        (residue < stride && stride <= u64::from(u32::MAX)).then_some(IdClaim { stride, residue })
    }

    /// The smallest id greater than `last` in this claim.
    pub fn next_after(self, last: u64) -> u64 {
        let next = last + 1;
        next + (self.residue + self.stride - next % self.stride) % self.stride
    }

    /// The claim a root slot holds; `None` while unclaimed.
    pub fn from_slot(slot: u64) -> Option<IdClaim> {
        (slot != 0).then(|| IdClaim {
            stride: slot >> 32,
            residue: slot & u64::from(u32::MAX),
        })
    }

    /// The root-slot value that holds this claim (never zero).
    pub fn to_slot(self) -> u64 {
        (self.stride << 32) | self.residue
    }
}

impl fmt::Display for IdClaim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stride {} residue {}", self.stride, self.residue)
    }
}

/// A persistent monotone counter stored in a store root slot.
///
/// The slot holds the *last issued* id, so a fresh store (all-zero
/// slots) starts issuing from 1, leaving 0 as the null sentinel. An
/// allocator bound to a claim slot issues the next id of the store's
/// [`IdClaim`] instead of the next integer.
#[derive(Debug, Clone, Copy)]
pub struct IdAllocator {
    slot: usize,
    claim_slot: Option<usize>,
}

impl IdAllocator {
    /// Allocator backed by root `slot`, issuing dense ids.
    pub fn new(slot: usize) -> IdAllocator {
        IdAllocator {
            slot,
            claim_slot: None,
        }
    }

    /// Allocator backed by root `slot`, issuing the ids of the
    /// [`IdClaim`] held in root `claim_slot`.
    pub fn claimed(slot: usize, claim_slot: usize) -> IdAllocator {
        IdAllocator {
            slot,
            claim_slot: Some(claim_slot),
        }
    }

    /// Issue the next id.
    pub fn next(&self, tx: &mut impl PageWrite) -> Result<u64> {
        let claim = match self.claim_slot {
            Some(slot) => IdClaim::from_slot(tx.root(slot)?).unwrap_or(IdClaim::DENSE),
            None => IdClaim::DENSE,
        };
        let id = claim.next_after(tx.root(self.slot)?);
        tx.set_root(self.slot, id)?;
        Ok(id)
    }

    /// The most recently issued id (0 when none issued yet).
    pub fn last(&self, tx: &mut impl PageRead) -> Result<u64> {
        tx.root(self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_storage::{Store, StoreOptions};

    fn temp_store(name: &str) -> (std::path::PathBuf, Store) {
        let mut p = std::env::temp_dir();
        p.push(format!("ode-id-{name}-{}", std::process::id()));
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

    #[test]
    fn ids_start_at_one_and_are_dense() {
        let (path, store) = temp_store("dense");
        let alloc = IdAllocator::new(5);
        let mut tx = store.begin();
        assert_eq!(alloc.next(&mut tx).unwrap(), 1);
        assert_eq!(alloc.next(&mut tx).unwrap(), 2);
        assert_eq!(alloc.next(&mut tx).unwrap(), 3);
        assert_eq!(alloc.last(&mut tx).unwrap(), 3);
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn counter_survives_reopen() {
        let (path, store) = temp_store("survive");
        let alloc = IdAllocator::new(5);
        {
            let mut tx = store.begin();
            for _ in 0..10 {
                alloc.next(&mut tx).unwrap();
            }
            tx.commit().unwrap();
        }
        drop(store);
        let store = Store::open(&path, StoreOptions::default()).unwrap();
        let mut tx = store.begin();
        assert_eq!(alloc.next(&mut tx).unwrap(), 11);
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn aborted_allocations_roll_back() {
        let (path, store) = temp_store("abort");
        let alloc = IdAllocator::new(5);
        {
            let mut tx = store.begin();
            assert_eq!(alloc.next(&mut tx).unwrap(), 1);
            tx.commit().unwrap();
        }
        {
            let mut tx = store.begin();
            assert_eq!(alloc.next(&mut tx).unwrap(), 2);
            // aborted
        }
        let mut tx = store.begin();
        // Id 2 is reissued because the allocating transaction aborted.
        assert_eq!(alloc.next(&mut tx).unwrap(), 2);
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn a_claim_issues_the_next_id_of_its_residue() {
        let claim = IdClaim::new(4, 3).unwrap();
        let mut last = 0;
        let issued: Vec<u64> = (0..4)
            .map(|_| {
                last = claim.next_after(last);
                last
            })
            .collect();
        assert_eq!(issued, [3, 7, 11, 15]);
        // Residue 0 never issues the null sentinel; dense is 1, 2, 3.
        assert_eq!(IdClaim::new(4, 0).unwrap().next_after(0), 4);
        assert_eq!(IdClaim::DENSE.next_after(2), 3);
        // From dense ids already issued, the next one in the residue.
        assert_eq!(claim.next_after(5), 7);
        assert_eq!(claim.next_after(7), 11);
        assert_eq!(IdClaim::new(2, 2), None);
        assert_eq!(IdClaim::new(1 << 32, 0), None);
        assert_eq!(IdClaim::from_slot(0), None);
        for claim in [
            IdClaim::DENSE,
            claim,
            IdClaim::new(u32::MAX.into(), 9).unwrap(),
        ] {
            assert_eq!(IdClaim::from_slot(claim.to_slot()), Some(claim));
        }
    }

    #[test]
    fn a_claimed_allocator_reads_its_claim_from_the_store() {
        let (path, store) = temp_store("claimed");
        let alloc = IdAllocator::claimed(5, 7);
        let mut tx = store.begin();
        assert_eq!(alloc.next(&mut tx).unwrap(), 1, "unclaimed is dense");
        tx.set_root(7, IdClaim::new(3, 2).unwrap().to_slot())
            .unwrap();
        assert_eq!(alloc.next(&mut tx).unwrap(), 2);
        assert_eq!(alloc.next(&mut tx).unwrap(), 5);
        tx.commit().unwrap();
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn null_sentinels() {
        assert!(Oid::NULL.is_null());
        assert!(Vid::NULL.is_null());
        assert!(!Oid(1).is_null());
        assert!(!Vid(1).is_null());
    }

    #[test]
    fn ids_round_trip_codec() {
        let o = Oid(123_456);
        let v = Vid(987_654);
        assert_eq!(
            ode_codec::from_bytes::<Oid>(&ode_codec::to_bytes(&o)).unwrap(),
            o
        );
        assert_eq!(
            ode_codec::from_bytes::<Vid>(&ode_codec::to_bytes(&v)).unwrap(),
            v
        );
    }
}
