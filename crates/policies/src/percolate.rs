//! Version percolation — the policy the paper refused to make a
//! primitive.
//!
//! §2: "we do not provide version percolation because creating a new
//! version can lead to the automatic creation of a large number of
//! versions of other objects.  Users may implement version percolation
//! as a policy by using other O++ facilities."  This module is that user
//! implementation: a persistent registry of composite (child → parents)
//! edges, and a percolate operation that, given a changed child, derives
//! a new version of every transitive ancestor.
//!
//! Experiment E4 measures exactly the fan-out cost the paper warns
//! about.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ode::{ObjPtr, OdeType, RawWrite, Result, Txn};
use ode::{Oid, Vid};
use ode_codec::{impl_persist_struct, impl_type_name};

/// Persistent composite structure: child oid → parent oids.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompositeRegistry {
    /// Upward edges of the composition DAG.
    pub parents: BTreeMap<u64, Vec<u64>>,
}

impl_persist_struct!(CompositeRegistry { parents });
impl_type_name!(CompositeRegistry = "ode-policies/CompositeRegistry");

/// A typed handle over a persistent [`CompositeRegistry`] object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryHandle {
    ptr: ObjPtr<CompositeRegistry>,
}

impl RegistryHandle {
    /// Create a new, empty registry.
    pub fn create(txn: &mut Txn<'_>) -> Result<RegistryHandle> {
        let ptr = txn.pnew(&CompositeRegistry::default())?;
        Ok(RegistryHandle { ptr })
    }

    /// Re-attach to an existing registry object.
    pub fn attach(ptr: ObjPtr<CompositeRegistry>) -> RegistryHandle {
        RegistryHandle { ptr }
    }

    /// The underlying persistent object.
    pub fn ptr(&self) -> ObjPtr<CompositeRegistry> {
        self.ptr
    }

    /// Record that `child` is a component of `parent`.
    pub fn add_edge<C: OdeType, P: OdeType>(
        &self,
        txn: &mut Txn<'_>,
        parent: ObjPtr<P>,
        child: ObjPtr<C>,
    ) -> Result<()> {
        txn.update(&self.ptr, |reg| {
            let entry = reg.parents.entry(child.oid().0).or_default();
            if !entry.contains(&parent.oid().0) {
                entry.push(parent.oid().0);
            }
        })?;
        Ok(())
    }

    /// The transitive ancestors of `child`, breadth-first, deduplicated.
    pub fn ancestors<C: OdeType>(&self, txn: &mut Txn<'_>, child: ObjPtr<C>) -> Result<Vec<Oid>> {
        let reg = txn.deref(&self.ptr)?;
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut queue: VecDeque<u64> = VecDeque::new();
        queue.push_back(child.oid().0);
        let mut out = Vec::new();
        while let Some(cur) = queue.pop_front() {
            if let Some(parents) = reg.parents.get(&cur) {
                for &p in parents {
                    if seen.insert(p) {
                        out.push(Oid(p));
                        queue.push_back(p);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Percolate: derive a new version of **every transitive ancestor**
    /// of `child` (the child itself is assumed already versioned by the
    /// caller).  Returns the (ancestor, new version) pairs — whose
    /// length is the fan-out cost the paper warns about.
    pub fn percolate<C: OdeType>(
        &self,
        txn: &mut Txn<'_>,
        child: ObjPtr<C>,
    ) -> Result<Vec<(Oid, Vid)>> {
        let ancestors = self.ancestors(txn, child)?;
        let mut created = Vec::with_capacity(ancestors.len());
        for oid in ancestors {
            let vid = txn.raw().newversion_raw(oid)?;
            created.push((oid, vid));
        }
        Ok(created)
    }

    /// Number of registered edges.
    pub fn edge_count(&self, txn: &mut Txn<'_>) -> Result<usize> {
        Ok(txn.deref(&self.ptr)?.parents.values().map(Vec::len).sum())
    }
}
