//! Property tests: every `Persist` implementation round-trips exactly and
//! the decoder never panics on arbitrary input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use ode_codec::{from_bytes, impl_persist_enum, impl_persist_struct, to_bytes, Persist, Writer};
use proptest::prelude::*;

fn check_rt<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = to_bytes(v);
    let back: T = from_bytes(&bytes).expect("round-trip decode");
    assert_eq!(*v, back);
}

/// The system allocator, remembering the largest single request this
/// thread made since [`largest_allocation_during`] last reset it.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|largest| largest.set(largest.get().max(layout.size())));
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST.with(|largest| largest.set(0));
    f();
    LARGEST.with(Cell::get)
}

/// Every strict prefix of `value`'s encoding fails to decode — no
/// panic — and no allocation exceeds one `slot`-byte element per input
/// byte left.
fn truncations_fail<T: Persist>(value: &T, slot: usize) {
    let bytes = to_bytes(value);
    for cut in 0..bytes.len() {
        let mut result = None;
        let largest = largest_allocation_during(|| result = Some(from_bytes::<T>(&bytes[..cut])));
        assert!(result.unwrap().is_err(), "prefix of {cut} bytes decoded");
        assert!(
            largest <= cut * slot,
            "{largest}-byte allocation from a {cut}-byte prefix"
        );
    }
}

/// An element as wide as `ode_merge::MergeConflict`: 64 bytes in
/// memory, from as little as one byte of input.
#[derive(Debug, PartialEq)]
struct Wide {
    base_start: u64,
    base_end: u64,
    ours: Vec<u8>,
    theirs: Vec<u8>,
}
impl_persist_struct!(Wide {
    base_start,
    base_end,
    ours,
    theirs
});

/// A count equal to the bytes left passes the count check, and a first
/// element whose varint overflows fails at once, so all a decoder
/// allocates is the room it reserves up front. Sized like an 8 MiB
/// `Merged` frame claiming 8 Mi conflicts: 512 MiB if the count sized
/// the reservation, 256 KiB at 4 096 elements.
#[test]
fn a_claimed_count_reserves_at_most_4096_elements() {
    const CLAIMED: usize = 8 << 20;
    assert_eq!(std::mem::size_of::<Wide>(), 64);
    let mut w = Writer::new();
    w.put_varint(CLAIMED as u64);
    let mut bytes = w.into_bytes();
    bytes.resize(bytes.len() + CLAIMED, 0xFF);

    let mut list = None;
    let largest = largest_allocation_during(|| list = Some(from_bytes::<Vec<Wide>>(&bytes)));
    assert!(list.unwrap().is_err());
    assert!(largest < 1 << 20, "a Vec decode reserved {largest} bytes");

    let mut map = None;
    let largest =
        largest_allocation_during(|| map = Some(from_bytes::<HashMap<u64, Wide>>(&bytes)));
    assert!(map.unwrap().is_err());
    assert!(
        largest < 1 << 20,
        "a HashMap decode reserved {largest} bytes"
    );
}

proptest! {
    #[test]
    fn rt_u64(v: u64) { check_rt(&v); }

    #[test]
    fn rt_i64(v: i64) { check_rt(&v); }

    #[test]
    fn rt_u128(v: u128) { check_rt(&v); }

    #[test]
    fn rt_f64_bits(v: u64) {
        let f = f64::from_bits(v);
        let back: f64 = from_bytes(&to_bytes(&f)).unwrap();
        prop_assert_eq!(f.to_bits(), back.to_bits());
    }

    #[test]
    fn rt_string(v in ".*") { check_rt(&v.to_string()); }

    #[test]
    fn rt_vec_u32(v: Vec<u32>) { check_rt(&v); }

    #[test]
    fn rt_option_string(v: Option<String>) { check_rt(&v); }

    #[test]
    fn rt_btreemap(v: BTreeMap<u32, String>) { check_rt(&v); }

    #[test]
    fn rt_btreeset(v: BTreeSet<i32>) { check_rt(&v); }

    #[test]
    fn rt_hashmap(v: HashMap<u16, u16>) { check_rt(&v); }

    #[test]
    fn rt_nested(v: Vec<(u8, Option<Vec<String>>)>) { check_rt(&v); }

    /// The decoder must return an error — never panic, never allocate
    /// unboundedly — on arbitrary garbage input.
    #[test]
    fn decoder_never_panics(bytes: Vec<u8>) {
        let _ = from_bytes::<Vec<String>>(&bytes);
        let _ = from_bytes::<BTreeMap<u64, Vec<u8>>>(&bytes);
        let _ = from_bytes::<(u64, String, Option<i32>)>(&bytes);
    }

    /// A `Vec<u8>` is a byte string: exactly `Writer::put_bytes` of it,
    /// and for UTF-8 content exactly the `String` encoding.
    #[test]
    fn byte_vec_is_put_bytes(v in collection::vec(any::<u8>(), 0..4096), s in ".*") {
        let mut w = Writer::new();
        w.put_bytes(&v);
        prop_assert_eq!(to_bytes(&v), w.into_bytes());
        if let Ok(text) = std::str::from_utf8(&v) {
            prop_assert_eq!(to_bytes(&v), to_bytes(&text.to_owned()));
        }
        prop_assert_eq!(to_bytes(&s.as_bytes().to_vec()), to_bytes(&s));
        check_rt(&v);
    }

    #[test]
    fn rt_nested_byte_vecs(v: Vec<Vec<u8>>, o: Option<Vec<u8>>) {
        check_rt(&v);
        check_rt(&o);
    }

    /// Cutting an encoding short anywhere is an error, never a panic,
    /// and never reserves more than the bytes left could hold.
    #[test]
    fn byte_vec_truncations_fail(
        v in collection::vec(any::<u8>(), 0..300),
        vv: Vec<Vec<u8>>,
        o: Option<Vec<u8>>,
    ) {
        truncations_fail(&v, 1);
        truncations_fail(&vv, std::mem::size_of::<Vec<u8>>());
        truncations_fail(&o, 1);
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Design {
    name: String,
    cells: Vec<u32>,
    meta: BTreeMap<String, String>,
    state: State,
}
impl_persist_struct!(Design {
    name,
    cells,
    meta,
    state
});

#[derive(Debug, Clone, PartialEq)]
enum State {
    Draft,
    Review { by: String },
    Released(u64, bool),
}
impl_persist_enum!(State {
    Draft,
    Review { by },
    Released(t0, t1),
});

fn arb_state() -> impl Strategy<Value = State> {
    prop_oneof![
        Just(State::Draft),
        ".*".prop_map(|by| State::Review { by }),
        (any::<u64>(), any::<bool>()).prop_map(|(a, b)| State::Released(a, b)),
    ]
}

fn arb_design() -> impl Strategy<Value = Design> {
    (
        ".*",
        proptest::collection::vec(any::<u32>(), 0..32),
        proptest::collection::btree_map(".*", ".*", 0..8),
        arb_state(),
    )
        .prop_map(|(name, cells, meta, state)| Design {
            name,
            cells,
            meta,
            state,
        })
}

proptest! {
    #[test]
    fn rt_macro_derived(design in arb_design()) {
        check_rt(&design);
    }
}
