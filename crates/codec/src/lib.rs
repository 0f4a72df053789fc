//! # ode-codec — the binary serialization substrate of the Ode reproduction
//!
//! The original Ode system compiled O++ to C++ against an in-house
//! persistence library that defined its own binary object layout.  This
//! crate plays that role: it defines the [`Persist`] trait, a compact
//! varint-based binary encoding, and helper macros for deriving `Persist`
//! on user structs and enums without procedural macros.
//!
//! Design goals, in order:
//!
//! 1. **Round-trip fidelity** — `decode(encode(x)) == x` for every
//!    implementation, enforced by property tests.
//! 2. **Compactness** — integers are LEB128 varints (signed values are
//!    zigzag-coded), collections are length-prefixed, no per-field tags;
//!    a byte string (`Vec<u8>`, like `String`) is its length and then
//!    its raw bytes.
//! 3. **Self-containment** — no serde format crate is required; the
//!    encoding is fully specified by this crate.
//!
//! The encoding is *not* self-describing: readers must know the type they
//! are decoding, which mirrors the paper's model where an object id is
//! typed (`ObjPtr<T>`).  Type identity across program runs is provided by
//! [`type_tag::TypeTag`], a stable hash of a user-chosen type name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod impls;
#[macro_use]
mod macros;
mod reader;
pub mod type_tag;
pub mod varint;
mod writer;

pub use error::DecodeError;
pub use reader::Reader;
pub use type_tag::TypeTag;
pub use writer::Writer;

/// A value that can be stored in, and reconstructed from, the Ode
/// persistent store.
///
/// This is the Rust analogue of "a class compiled against the Ode
/// persistence library".  Implementations must guarantee that
/// [`Persist::decode`] reverses [`Persist::encode`] exactly.
///
/// Use [`impl_persist_struct!`](crate::impl_persist_struct) /
/// [`impl_persist_enum!`](crate::impl_persist_enum) to derive
/// implementations for your own types.
pub trait Persist: Sized {
    /// Serialize `self` onto the writer.
    fn encode(&self, w: &mut Writer);

    /// Deserialize a value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Serialize `items` back to back, with no length prefix. Sequence
    /// containers call this, so it is the codec's one per-element loop;
    /// `u8` overrides it with a single copy, which makes `Vec<u8>` a
    /// byte string.
    fn encode_slice(items: &[Self], w: &mut Writer) {
        for item in items {
            item.encode(w);
        }
    }

    /// Deserialize the `count` values [`Persist::encode_slice`] wrote.
    /// Callers bound `count` by the remaining input first (see
    /// [`Reader::get_count`]), but one input byte can claim an element
    /// many bytes wide, so at most 4 096 are reserved up front and the
    /// rest as they decode.
    fn decode_vec(r: &mut Reader<'_>, count: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(count.min(PREALLOC_MAX));
        for _ in 0..count {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

/// The most elements a decoder reserves room for before it has decoded
/// them. A count is only checked against the bytes left, and hostile
/// input can claim one wide element per byte it holds; past this many,
/// a container grows as its elements actually arrive.
pub(crate) const PREALLOC_MAX: usize = 4096;

/// Encode a value to a fresh byte vector.
pub fn to_bytes<T: Persist>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decode a value from a byte slice, requiring that every byte be consumed.
///
/// Trailing garbage is an error: the store hands each object exactly its
/// own record, so leftover bytes always indicate corruption or a type
/// mismatch.
pub fn from_bytes<T: Persist>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(DecodeError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(value)
}

/// Decode a value from the front of a byte slice, returning the value and
/// the number of bytes consumed.
pub fn from_bytes_prefix<T: Persist>(bytes: &[u8]) -> Result<(T, usize), DecodeError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    let consumed = bytes.len() - r.remaining();
    Ok((value, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_to_bytes() {
        let v: Vec<u32> = vec![1, 2, 3, u32::MAX];
        let bytes = to_bytes(&v);
        let back: Vec<u32> = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u8);
        bytes.push(0xFF);
        let err = from_bytes::<u8>(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn prefix_reports_consumed() {
        let mut bytes = to_bytes(&300u32);
        let len = bytes.len();
        bytes.extend_from_slice(&[1, 2, 3]);
        let (v, consumed) = from_bytes_prefix::<u32>(&bytes).unwrap();
        assert_eq!(v, 300);
        assert_eq!(consumed, len);
    }
}
