//! Dereference guards: the Rust analogue of O++'s overloaded `->`/`*`.
//!
//! The paper: "By overloading the definitions of the `->` and `*`
//! operators we were able to define class VersionPtr in such a way that
//! its objects could be manipulated just like normal pointers."  Rust's
//! equivalent is the [`Deref`] trait: [`Txn::deref`](crate::Txn::deref)
//! and [`Txn::deref_v`](crate::Txn::deref_v) return these guards, so
//! field access reads exactly like pointer use: `txn.deref(&p)?.weight`.
//!
//! A guard owns a decoded copy of the version state, pinned at the
//! moment of dereference (the paper's semantics: a generic reference is
//! re-bound to the latest version *at each dereference*, not
//! continuously).  [`ORef::version`] reports which version a generic
//! dereference actually bound to.
//!
//! Because a guard is an owned copy, it is fully detached from the
//! storage engine's locks: holding an [`ORef`]/[`VRef`] does not pin a
//! snapshot, block a committing writer at the snapshot gate, or keep a
//! buffer-pool frame alive.  Guards are `Send + Sync` whenever `T` is,
//! so results read under one snapshot can be handed to other threads
//! freely (the concurrency tests assert this statically).

use std::ops::Deref;

use crate::ptr::VersionPtr;

/// Guard from dereferencing a generic reference ([`ObjPtr`]) — the
/// object state as of its latest version at dereference time.
///
/// [`ObjPtr`]: crate::ObjPtr
#[derive(Debug, Clone, PartialEq)]
pub struct ORef<T> {
    pub(crate) value: T,
    pub(crate) version: VersionPtr<T>,
}

/// Guard from dereferencing a specific reference ([`VersionPtr`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VRef<T> {
    pub(crate) value: T,
    pub(crate) version: VersionPtr<T>,
}

impl<T> ORef<T> {
    /// The specific version this dereference bound to (latest at the
    /// time of the call).
    pub fn version(&self) -> VersionPtr<T> {
        self.version
    }

    /// Unwrap into the owned value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> VRef<T> {
    /// Assemble a guard from an already-decoded value and the version
    /// it was decoded from (policy layers converting an [`ORef`] they
    /// resolved themselves).
    pub fn from_parts(value: T, version: VersionPtr<T>) -> VRef<T> {
        VRef { value, version }
    }

    /// The version this guard reads.
    pub fn version(&self) -> VersionPtr<T> {
        self.version
    }

    /// Unwrap into the owned value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for ORef<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> Deref for VRef<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> AsRef<T> for ORef<T> {
    fn as_ref(&self) -> &T {
        &self.value
    }
}

impl<T> AsRef<T> for VRef<T> {
    fn as_ref(&self) -> &T {
        &self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_object::Vid;

    #[test]
    fn guards_are_send_sync_when_t_is() {
        fn assert_send_sync<G: Send + Sync>() {}
        assert_send_sync::<ORef<String>>();
        assert_send_sync::<VRef<Vec<u8>>>();
    }

    #[test]
    fn guards_deref_to_inner() {
        let guard = ORef {
            value: String::from("hello"),
            version: VersionPtr::from_vid(Vid(1)),
        };
        // Method calls pass straight through Deref, like `p->len()`.
        assert_eq!(guard.len(), 5);
        assert_eq!(guard.version().vid(), Vid(1));
        assert_eq!(guard.into_inner(), "hello");

        let guard = VRef {
            value: vec![1, 2, 3],
            version: VersionPtr::<Vec<i32>>::from_vid(Vid(2)),
        };
        assert_eq!(guard[1], 2);
        assert_eq!(guard.as_ref().len(), 3);
    }
}
