//! `Persist` implementations for standard library types.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::time::Duration;

use crate::{DecodeError, Persist, Reader, Writer, PREALLOC_MAX};

// ---------------------------------------------------------------------------
// Integers
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            fn encode(&self, w: &mut Writer) {
                w.put_varint(u64::from(*self));
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let v = r.get_varint()?;
                <$t>::try_from(v).map_err(|_| DecodeError::Invalid(concat!(
                    "value out of range for ", stringify!($t)
                )))
            }
        }
    )*};
}

impl_unsigned!(u16, u32, u64);

// One byte alone is a varint like any unsigned integer; a run of bytes
// is the bytes themselves, so `Vec<u8>` is a varint length plus raw
// bytes — the layout of `Writer::put_bytes` and `String`.
impl Persist for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(u64::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        u8::try_from(r.get_varint()?).map_err(|_| DecodeError::Invalid("value out of range for u8"))
    }
    fn encode_slice(items: &[u8], w: &mut Writer) {
        w.put_raw(items);
    }
    fn decode_vec(r: &mut Reader<'_>, count: usize) -> Result<Vec<u8>, DecodeError> {
        Ok(r.get_raw(count)?.to_vec())
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            fn encode(&self, w: &mut Writer) {
                w.put_varint_signed(i64::from(*self));
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let v = r.get_varint_signed()?;
                <$t>::try_from(v).map_err(|_| DecodeError::Invalid(concat!(
                    "value out of range for ", stringify!($t)
                )))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64);

impl Persist for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = r.get_varint()?;
        usize::try_from(v).map_err(|_| DecodeError::Invalid("value out of range for usize"))
    }
}

impl Persist for isize {
    fn encode(&self, w: &mut Writer) {
        w.put_varint_signed(*self as i64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = r.get_varint_signed()?;
        isize::try_from(v).map_err(|_| DecodeError::Invalid("value out of range for isize"))
    }
}

impl Persist for u128 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
        w.put_varint((*self >> 64) as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let lo = r.get_varint()? as u128;
        let hi = r.get_varint()? as u128;
        Ok(lo | (hi << 64))
    }
}

impl Persist for i128 {
    fn encode(&self, w: &mut Writer) {
        (*self as u128).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u128::decode(r)? as i128)
    }
}

// ---------------------------------------------------------------------------
// Other scalars
// ---------------------------------------------------------------------------

impl Persist for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::InvalidBool(other)),
        }
    }
}

impl Persist for f32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32_le(self.to_bits());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f32::from_bits(r.get_u32_le()?))
    }
}

impl Persist for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64_le(self.to_bits());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(r.get_u64_le()?))
    }
}

impl Persist for char {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(u64::from(u32::from(*self)));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let scalar = u32::decode(r)?;
        char::from_u32(scalar).ok_or(DecodeError::InvalidChar(scalar))
    }
}

impl Persist for () {
    fn encode(&self, _w: &mut Writer) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl Persist for String {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bytes = r.get_bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl Persist for Duration {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.as_secs());
        w.put_varint(u64::from(self.subsec_nanos()));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let secs = r.get_varint()?;
        let nanos = u32::decode(r)?;
        if nanos >= 1_000_000_000 {
            return Err(DecodeError::Invalid("Duration nanos >= 1e9"));
        }
        Ok(Duration::new(secs, nanos))
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

impl<T: Persist> Persist for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(DecodeError::InvalidBool(other)),
        }
    }
}

impl<T: Persist> Persist for Box<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        T::encode_slice(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = r.get_count()?;
        T::decode_vec(r, count)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        let (front, back) = self.as_slices();
        T::encode_slice(front, w);
        T::encode_slice(back, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn encode(&self, w: &mut Writer) {
        T::encode_slice(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        T::decode_vec(r, N)?
            .try_into()
            .map_err(|_| DecodeError::Invalid("array length mismatch"))
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = r.get_count()?;
        let mut out = BTreeMap::new();
        for _ in 0..count {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Persist + Ord> Persist for BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = r.get_count()?;
        let mut out = BTreeSet::new();
        for _ in 0..count {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K, V, S> Persist for HashMap<K, V, S>
where
    K: Persist + Eq + Hash + Ord,
    V: Persist,
    S: BuildHasher + Default,
{
    fn encode(&self, w: &mut Writer) {
        // Sort keys so equal maps always encode identically (needed for
        // content-hash based deduplication in the delta layer).
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.put_varint(entries.len() as u64);
        for (k, v) in entries {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = r.get_count()?;
        let mut out = HashMap::with_capacity_and_hasher(count.min(PREALLOC_MAX), S::default());
        for _ in 0..count {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T, S> Persist for HashSet<T, S>
where
    T: Persist + Eq + Hash + Ord,
    S: BuildHasher + Default,
{
    fn encode(&self, w: &mut Writer) {
        let mut entries: Vec<&T> = self.iter().collect();
        entries.sort();
        w.put_varint(entries.len() as u64);
        for item in entries {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = r.get_count()?;
        let mut out = HashSet::with_capacity_and_hasher(count.min(PREALLOC_MAX), S::default());
        for _ in 0..count {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                $(self.$idx.encode(w);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    fn rt<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn scalars_round_trip() {
        rt(0u8);
        rt(255u8);
        rt(u16::MAX);
        rt(u32::MAX);
        rt(u64::MAX);
        rt(i8::MIN);
        rt(i16::MIN);
        rt(i32::MIN);
        rt(i64::MIN);
        rt(usize::MAX);
        rt(isize::MIN);
        rt(u128::MAX);
        rt(i128::MIN);
        rt(true);
        rt(false);
        rt('ß');
        rt('\u{10FFFF}');
        rt(());
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for v in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, f64::INFINITY] {
            let bytes = to_bytes(&v);
            let back: f64 = from_bytes(&bytes).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
        let nan = f32::NAN;
        let back: f32 = from_bytes(&to_bytes(&nan)).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn strings_round_trip() {
        rt(String::new());
        rt("hello Ode".to_string());
        rt("snowman ☃ and friends 🦀".to_string());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let err = from_bytes::<String>(&w.into_bytes()).unwrap_err();
        assert_eq!(err, DecodeError::InvalidUtf8);
    }

    #[test]
    fn containers_round_trip() {
        rt(Some(42u32));
        rt(Option::<u32>::None);
        rt(Box::new("boxed".to_string()));
        rt(vec![1u64, 2, 3]);
        rt(Vec::<String>::new());
        rt([1u8, 2, 3]);
        rt(VecDeque::from(vec![1i32, -2, 3]));
        rt(BTreeMap::from([
            (1u32, "a".to_string()),
            (2, "b".to_string()),
        ]));
        rt(BTreeSet::from([3u8, 1, 2]));
        rt(HashMap::from([(1u32, 2u32), (3, 4)]));
        rt(HashSet::from([9i64, -8, 7]));
        rt(Duration::new(5, 999_999_999));
    }

    #[test]
    fn byte_vectors_are_length_plus_raw_bytes() {
        // A 2-byte length, then the bytes. One varint per byte would
        // double every byte >= 128: 4 098.
        assert_eq!(to_bytes(&vec![0xFFu8; 2048]).len(), 2050);
        assert_eq!(to_bytes(&vec![0x80u8, 7, 0xFF]), [3, 0x80, 7, 0xFF]);
        assert_eq!(to_bytes(&[0xFFu8, 1]), [0xFF, 1]);
        assert_eq!(to_bytes(&VecDeque::from(vec![0xFEu8])), [1, 0xFE]);
        rt(vec![0u8, 0x80, 0xFF]);
        rt([0xFFu8; 3]);
        // A deque wrapped around its buffer encodes both halves in order.
        let mut wrapped = VecDeque::from(vec![1u8, 2]);
        wrapped.push_front(0xFF);
        assert_eq!(to_bytes(&wrapped), [3, 0xFF, 1, 2]);
        rt(wrapped);
        // A lone byte stays a varint, like every other integer.
        assert_eq!(to_bytes(&0xFFu8), [0xFF, 0x01]);
    }

    #[test]
    fn hashmap_encoding_is_deterministic() {
        let a: HashMap<u32, u32> = (0..64).map(|i| (i, i * 2)).collect();
        let b: HashMap<u32, u32> = (0..64).rev().map(|i| (i, i * 2)).collect();
        assert_eq!(to_bytes(&a), to_bytes(&b));
    }

    #[test]
    fn tuples_round_trip() {
        rt((1u8,));
        rt((1u8, "x".to_string()));
        rt((1u8, 2u16, 3u32, 4u64, 5i8, 6i16, 7i32, 8i64));
    }

    #[test]
    fn nested_containers() {
        rt(vec![Some(vec![(1u8, "a".to_string())]), None]);
    }

    #[test]
    fn bad_duration_rejected() {
        let mut w = Writer::new();
        w.put_varint(1);
        w.put_varint(1_000_000_000); // nanos out of range
        assert!(from_bytes::<Duration>(&w.into_bytes()).is_err());
    }

    #[test]
    fn range_narrowing_rejected() {
        // Encode a u64 too large for u8.
        let bytes = to_bytes(&300u64);
        assert!(from_bytes::<u8>(&bytes).is_err());
    }
}
