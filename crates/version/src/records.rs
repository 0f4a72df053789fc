//! On-disk records of the version graph.

use ode_codec::{impl_persist_struct, DecodeError, Persist, Reader, TypeTag};
use ode_object::{KvTable, ObjectHeap, Oid, Vid};
use ode_storage::heap::RecordId;
use ode_storage::PageWrite;

use crate::Result;

/// Write `value` as the record `table` maps `key` to: replaced under
/// its id when it exists (the table follows if the record had to
/// move), else inserted — beside `near` when given — and entered into
/// the table. Returns the record's id.
pub(crate) fn upsert<T: Persist>(
    table: &KvTable,
    heap: &ObjectHeap,
    tx: &mut impl PageWrite,
    key: u64,
    value: &T,
    near: Option<RecordId>,
) -> Result<RecordId> {
    let old = table.get(tx, key)?.map(RecordId::from_u64);
    let rid = match (old, near) {
        (Some(old), _) => heap.replace(tx, old, value)?,
        (None, Some(near)) => heap.store_near(tx, near, value)?,
        (None, None) => heap.store(tx, value)?,
    };
    if old != Some(rid) {
        table.put(tx, key, rid.to_u64())?;
    }
    Ok(rid)
}

/// Per-object record: identity, type, and the ends of the temporal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// The object's identity.
    pub oid: Oid,
    /// Stable type tag of the object's Rust type.
    pub tag: TypeTag,
    /// The first version ever created (root of the derived-from tree).
    pub root: Vid,
    /// The temporal head — what the object id resolves to (the paper:
    /// "an object id ... logically refers to the latest version").
    pub latest: Vid,
    /// Number of live versions.
    pub version_count: u64,
}

impl_persist_struct!(ObjectMeta {
    oid,
    tag,
    root,
    latest,
    version_count,
});

/// Per-version record: graph links plus the encoded object state.
///
/// `dprev` records the **derived-from** relationship (solid arrows in the
/// paper's figures); `tprev`/`tnext` record the **temporal** relationship
/// (dotted arrows).  `dnext` lists derived children so `Dnext` traversal
/// and leaf enumeration need no scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionMeta {
    /// This version's identity.
    pub vid: Vid,
    /// Owning object.
    pub oid: Oid,
    /// Type tag, duplicated from [`ObjectMeta`] so specific-version reads
    /// can type-check with a single record fetch.
    pub tag: TypeTag,
    /// Version this one was derived from (`NULL` for the first version).
    pub dprev: Vid,
    /// Second derived-from parent. `NULL` for ordinary versions; merge
    /// versions record both merged parents here, giving the
    /// derived-from structure its DAG edges. Never set while `dprev`
    /// is `NULL`.
    pub dprev2: Vid,
    /// Versions derived from this one, in creation order.
    pub dnext: Vec<Vid>,
    /// Temporal predecessor within the object (`NULL` for the oldest).
    pub tprev: Vid,
    /// Temporal successor within the object (`NULL` for the latest).
    pub tnext: Vid,
    /// Monotone creation stamp (global sequence; preserved across
    /// deletions, unlike chain position).
    pub created: u64,
    /// The object state, encoded with `ode_codec`, for the latest
    /// version; empty for every older one, whose state lives in the
    /// object's delta chain.
    pub body: Vec<u8>,
}

impl_persist_struct!(VersionMeta {
    vid,
    oid,
    tag,
    dprev,
    dprev2,
    dnext,
    tprev,
    tnext,
    created,
    body,
});

impl VersionMeta {
    /// Decode a stored record's identity and graph links, leaving
    /// `body` empty: the body is encoded last and is most of the
    /// record, so a caller about to replace it need not decode it.
    pub(crate) fn decode_links(bytes: &[u8]) -> std::result::Result<VersionMeta, DecodeError> {
        let r = &mut Reader::new(bytes);
        // Field order is the encoding order.
        Ok(VersionMeta {
            vid: Persist::decode(r)?,
            oid: Persist::decode(r)?,
            tag: Persist::decode(r)?,
            dprev: Persist::decode(r)?,
            dprev2: Persist::decode(r)?,
            dnext: Persist::decode(r)?,
            tprev: Persist::decode(r)?,
            tnext: Persist::decode(r)?,
            created: Persist::decode(r)?,
            body: Vec::new(),
        })
    }

    /// Whether this is its object's latest version (the temporal
    /// tail) — the one version whose `body` holds its state.
    pub fn is_latest(&self) -> bool {
        self.tnext.is_null()
    }

    /// Whether this version is a leaf of the derived-from tree (an
    /// "alternative's most up-to-date version" in the paper's terms).
    pub fn is_derivation_leaf(&self) -> bool {
        self.dnext.is_empty()
    }

    /// Whether this version is a merge (records two derived-from
    /// parents).
    pub fn is_merge(&self) -> bool {
        !self.dprev2.is_null()
    }

    /// The derived-from parents, primary first, `NULL` slots skipped.
    pub fn parents(&self) -> impl Iterator<Item = Vid> {
        [self.dprev, self.dprev2]
            .into_iter()
            .filter(|v| !v.is_null())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_codec::{from_bytes, to_bytes};

    #[test]
    fn object_meta_round_trips() {
        let m = ObjectMeta {
            oid: Oid(7),
            tag: TypeTag::from_name("x/Y"),
            root: Vid(1),
            latest: Vid(9),
            version_count: 4,
        };
        assert_eq!(from_bytes::<ObjectMeta>(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn version_meta_round_trips() {
        let m = VersionMeta {
            vid: Vid(9),
            oid: Oid(7),
            tag: TypeTag::from_name("x/Y"),
            dprev: Vid(3),
            dprev2: Vid::NULL,
            dnext: vec![Vid(11), Vid(12)],
            tprev: Vid(8),
            tnext: Vid::NULL,
            created: 42,
            body: vec![1, 2, 3],
        };
        assert_eq!(from_bytes::<VersionMeta>(&to_bytes(&m)).unwrap(), m);
        let links = VersionMeta {
            body: vec![],
            ..m.clone()
        };
        assert_eq!(VersionMeta::decode_links(&to_bytes(&m)).unwrap(), links);
        assert!(!m.is_derivation_leaf());
        assert!(!m.is_merge());
        assert_eq!(m.parents().collect::<Vec<_>>(), vec![Vid(3)]);
        let leaf = VersionMeta { dnext: vec![], ..m };
        assert!(leaf.is_derivation_leaf());
    }

    #[test]
    fn merge_version_meta_round_trips() {
        let m = VersionMeta {
            vid: Vid(20),
            oid: Oid(7),
            tag: TypeTag::from_name("x/Y"),
            dprev: Vid(5),
            dprev2: Vid(9),
            dnext: vec![],
            tprev: Vid(19),
            tnext: Vid::NULL,
            created: 20,
            body: vec![4, 5, 6],
        };
        assert_eq!(from_bytes::<VersionMeta>(&to_bytes(&m)).unwrap(), m);
        assert!(m.is_merge());
        assert_eq!(m.parents().collect::<Vec<_>>(), vec![Vid(5), Vid(9)]);
    }
}
