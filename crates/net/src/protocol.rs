//! The Ode wire protocol.
//!
//! A connection starts with a 4-byte handshake: the client sends
//! [`MAGIC`] (`"ODE"` plus a protocol-version byte) and the server
//! echoes it back. After that the stream is a sequence of
//! **length-prefixed frames** in each direction: a LEB128 varint byte
//! count followed by that many payload bytes. Requests and responses
//! use the same framing; every request frame is answered by exactly one
//! response frame, **matched by sequence id, not by order** — but for
//! a replica's `Subscribe`, answered by a stream of frames under its
//! sequence id, and its `Ack`, answered by none.
//!
//! Protocol version 2 (the `\x02` in [`MAGIC`]) made the connection a
//! *pipeline*: every request payload starts with a client-assigned
//! varint sequence id, echoed back as the first field of its response
//! payload. A client may keep any number of requests in flight, and a
//! server may answer them out of order; the sequence id is the only
//! correlation between the two streams. ([`crate::OdeServer`] answers
//! each connection in stream order, but clients must not rely on it.)
//!
//! After the sequence id, a request payload is an opcode byte followed
//! by the operation's fields; a response payload is a response-kind
//! byte followed by the result fields. All integers (ids, tags, counts,
//! lengths) are LEB128 varints via [`ode_codec`]'s writer/reader;
//! object bodies travel as length-prefixed byte strings holding their
//! normal [`ode_codec`] `Persist` encoding — the server never decodes
//! bodies, it stores and serves the client's bytes and only checks the
//! type tag.
//!
//! ## The wire table
//!
//! Every frame layout is stated **once**, in three tables in this file,
//! and everything that must agree with a layout is generated from its
//! row: the request table (one row per opcode: number, stats label,
//! variant, fields tagged by kind, `read | write`, and how a router
//! treats it) generates [`Opcode`], [`Request`], their encoder and
//! decoder and [`Request::ids`]; the response table generates
//! [`Response`] with its encoder and decoder; the counter tables
//! generate [`StatsReport`] / [`StorageCounters`], their
//! encoding and the rule that merges the reports of several shards. The
//! generated code is straight-line `match`es — nothing is interpreted
//! per request. DESIGN.md ("The wire table") has the row grammar and
//! the three places a new opcode touches; the README's opcode table
//! mirrors the request table and a test holds it to that.

use std::io::{self, Read, Write};

use ode::{MergeConflict, MergePolicy, Oid, TypeTag, Vid};
use ode_codec::{varint, Reader, Writer};

use crate::error::{NetError, RemoteError, Result};

/// Connection handshake: `"ODE"` + protocol version byte. Version 2
/// added pipelining (sequence-id-prefixed payloads); a v1 peer fails
/// the handshake rather than misparsing frames.
pub const MAGIC: [u8; 4] = *b"ODE\x02";

/// Upper bound on a single frame's payload, guarding both sides
/// against allocating unbounded memory on a corrupt length prefix.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Split a payload into its leading sequence id and the operation (or
/// result) bytes after it — the part a peer can still echo or
/// correlate when the rest of the payload is garbage.
pub fn split_seq(payload: &[u8]) -> Result<(u64, &[u8])> {
    let (seq, len) = varint::read_u64(payload)?;
    Ok((seq, &payload[len..]))
}

/// Strictness shared by every decoder: bytes left over after
/// the last field are a protocol error.
fn finish(r: &Reader<'_>, name: &str, what: &str) -> Result<()> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(NetError::Protocol(format!(
            "{n} trailing bytes after {name} {what}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Field types
// ---------------------------------------------------------------------------

/// One field type of the wire format: its encoding and its decoding,
/// stated here once. The tables below only compose them.
trait Wire: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Result<Self>;
}

macro_rules! wire_varint_newtype {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                w.put_varint(self.0);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok($ty(r.get_varint()?))
            }
        }
    )*};
}

wire_varint_newtype!(Oid, Vid, TypeTag);

impl Wire for u64 {
    fn put(&self, w: &mut Writer) {
        w.put_varint(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.get_varint()?)
    }
}

impl Wire for u32 {
    fn put(&self, w: &mut Writer) {
        w.put_varint(u64::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let v = r.get_varint()?;
        u32::try_from(v).map_err(|_| NetError::Protocol(format!("{v} overflows a u32")))
    }
}

impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.get_u8()? != 0)
    }
}

/// A byte string: a length, then the bytes verbatim.
impl Wire for Vec<u8> {
    fn put(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.get_bytes()?.to_vec())
    }
}

impl Wire for MergePolicy {
    fn put(&self, w: &mut Writer) {
        w.put_u8(self.as_u8());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let p = r.get_u8()?;
        MergePolicy::from_u8(p)
            .ok_or_else(|| NetError::Protocol(format!("unknown merge policy byte {p}")))
    }
}

impl Wire for Opcode {
    fn put(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let op = r.get_u8()?;
        Opcode::from_u8(op).ok_or_else(|| NetError::Protocol(format!("unknown opcode {op}")))
    }
}

/// An option's leading byte: 0 for none, 1 for a value that follows.
fn get_present(r: &mut Reader<'_>) -> Result<bool> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(NetError::Protocol(format!("bad option discriminant {b}"))),
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        w.put_u8(self.is_some() as u8);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(if get_present(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// A list: a count, then each element. The count is checked against
/// the bytes that remain, so a corrupt one cannot size an allocation.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.get_count()?;
        let mut items = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// One entry of a stats report's per-opcode request counts.
impl Wire for (Opcode, u64) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok((Opcode::get(r)?, u64::get(r)?))
    }
}

/// A conflict: its byte range in the merge base's body, then both
/// sides' replacement bytes.
impl Wire for MergeConflict {
    fn put(&self, w: &mut Writer) {
        w.put_varint(self.base_start);
        w.put_varint(self.base_end);
        w.put_bytes(&self.ours);
        w.put_bytes(&self.theirs);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(MergeConflict {
            base_start: r.get_varint()?,
            base_end: r.get_varint()?,
            ours: r.get_bytes()?.to_vec(),
            theirs: r.get_bytes()?.to_vec(),
        })
    }
}

/// An error frame is `code a b message` for every kind, unused slots
/// zero or empty.
impl Wire for RemoteError {
    fn put(&self, w: &mut Writer) {
        w.put_u8(self.code());
        let (a, b, msg) = match self {
            RemoteError::UnknownObject(oid) => (oid.0, 0, ""),
            RemoteError::UnknownVersion(vid) | RemoteError::LastVersion(vid) => (vid.0, 0, ""),
            RemoteError::TypeMismatch { expected, found } => (expected.0, found.0, ""),
            RemoteError::Storage(msg)
            | RemoteError::BadRequest(msg)
            | RemoteError::Unavailable(msg) => (0, 0, msg.as_str()),
        };
        w.put_varint(a);
        w.put_varint(b);
        w.put_bytes(msg.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let code = r.get_u8()?;
        let a = r.get_varint()?;
        let b = r.get_varint()?;
        let msg = String::from_utf8_lossy(r.get_bytes()?).into_owned();
        Ok(match code {
            1 => RemoteError::UnknownObject(Oid(a)),
            2 => RemoteError::UnknownVersion(Vid(a)),
            3 => RemoteError::TypeMismatch {
                expected: TypeTag(a),
                found: TypeTag(b),
            },
            4 => RemoteError::LastVersion(Vid(a)),
            5 => RemoteError::Storage(msg),
            6 => RemoteError::BadRequest(msg),
            7 => RemoteError::Unavailable(msg),
            c => return Err(NetError::Protocol(format!("unknown remote error code {c}"))),
        })
    }
}

/// A struct that travels as its fields in declaration order.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $ty:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $ty {
            $( $(#[$fmeta])* pub $field: $fty, )*
        }

        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                $( self.$field.put(w); )*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok($ty { $( $field: Wire::get(r)?, )* })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// The request table
// ---------------------------------------------------------------------------

/// How a routing tier treats an opcode — the last column of the
/// request table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Goes, byte for byte, to the shard its ids name; every id in it
    /// must live on that one shard.
    Keyed,
    /// Names no id yet: the router places it (round-robin) and the id
    /// the shard issues from its residue carries the placement from
    /// then on.
    Placed,
    /// Fans out to every shard; the answers are merged.
    Scatter,
    /// Concerns one node, not the tier: the router answers it itself.
    Local,
}

/// The Rust type of a field kind.
macro_rules! wire_type {
    (oid) => { Oid };
    (vid) => { Vid };
    (tag) => { TypeTag };
    (u64) => { u64 };
    (bytes) => { Vec<u8> };
    (policy) => { MergePolicy };
}

/// A field's value if its kind is an id, for [`Request::ids`].
macro_rules! wire_id {
    (oid, $field:ident) => {
        Some($field.0)
    };
    (vid, $field:ident) => {
        Some($field.0)
    };
    ($kind:ident, $field:ident) => {{
        let _ = $field;
        None
    }};
}

macro_rules! wire_sample {
    (oid, $word:ident, $body:ident) => {
        Oid($word("oid"))
    };
    (vid, $word:ident, $body:ident) => {
        Vid($word("vid"))
    };
    (tag, $word:ident, $body:ident) => {
        TypeTag($word("tag"))
    };
    (u64, $word:ident, $body:ident) => {
        $word("u64")
    };
    (bytes, $word:ident, $body:ident) => {
        $body.to_vec()
    };
    (policy, $word:ident, $body:ident) => {
        MergePolicy::from_u8(($word("policy") % 3) as u8).expect("policy bytes are 0, 1 and 2")
    };
}

macro_rules! wire_is_read {
    (read) => {
        true
    };
    (write) => {
        false
    };
}

macro_rules! wire_routing {
    (keyed) => {
        Routing::Keyed
    };
    (placed) => {
        Routing::Placed
    };
    (scatter) => {
        Routing::Scatter
    };
    (local) => {
        Routing::Local
    };
}

/// One row per opcode: `number "stats label" Variant { field: kind, … }
/// read|write keyed|placed|scatter|local;`. Generates [`Opcode`],
/// [`Request`], their codec, and [`Request::ids`].
macro_rules! wire_table {
    ($(
        $(#[$doc:meta])*
        $num:literal $name:literal $variant:ident
        $({ $( $(#[$fdoc:meta])* $field:ident : $kind:ident ),+ $(,)? })?
        $access:ident $routing:ident;
    )*) => {
        /// Request opcodes — the first byte of every request payload.
        ///
        /// The numeric values are the wire encoding and also index the
        /// server's per-opcode request counters; they are append-only.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum Opcode {
            $( $(#[$doc])* $variant = $num, )*
        }

        /// Number of opcodes (size of the server's per-opcode counter array).
        pub const OPCODE_COUNT: usize = [$($num),*].len();

        impl Opcode {
            /// Every opcode, in wire order.
            pub const ALL: [Opcode; OPCODE_COUNT] = [$(Opcode::$variant),*];

            /// Decode a wire byte.
            pub fn from_u8(b: u8) -> Option<Opcode> {
                Opcode::ALL.get(b as usize).copied()
            }

            /// Human-readable name (stats displays, CLI output).
            pub fn name(self) -> &'static str {
                match self {
                    $( Opcode::$variant => $name, )*
                }
            }

            /// Whether requests of this opcode only read — readable
            /// from a snapshot or a replica, and safe for the client to
            /// retry once over a fresh connection.
            pub fn is_read(self) -> bool {
                match self {
                    $( Opcode::$variant => wire_is_read!($access), )*
                }
            }

            /// How a routing tier treats this opcode.
            pub fn routing(self) -> Routing {
                match self {
                    $( Opcode::$variant => wire_routing!($routing), )*
                }
            }
        }

        /// One request frame's decoded payload.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Request {
            $(
                $(#[$doc])*
                $variant $({ $( $(#[$fdoc])* $field: wire_type!($kind), )+ })?,
            )*
        }

        impl Request {
            /// This request's opcode.
            pub fn opcode(&self) -> Opcode {
                match self {
                    $( Request::$variant { .. } => Opcode::$variant, )*
                }
            }

            /// Encode into a frame payload (no length prefix), stamped
            /// with the client-assigned sequence id the response will
            /// echo.
            pub fn encode(&self, seq: u64) -> Vec<u8> {
                let mut w = Writer::new();
                w.put_varint(seq);
                self.opcode().put(&mut w);
                match self {
                    $( Request::$variant $({ $($field),+ })? => {
                        $($( $field.put(&mut w); )+)?
                    } )*
                }
                w.into_bytes()
            }

            /// Decode a frame payload into its sequence id and request.
            /// Strict: unknown opcodes and trailing bytes are protocol
            /// errors.
            pub fn decode(payload: &[u8]) -> Result<(u64, Request)> {
                let mut r = Reader::new(payload);
                let seq = r.get_varint()?;
                let op = Opcode::get(&mut r)?;
                let request = match op {
                    $( Opcode::$variant => Request::$variant $({
                        $( $field: Wire::get(&mut r)?, )+
                    })?, )*
                };
                finish(&r, op.name(), "request")?;
                Ok((seq, request))
            }

            /// The request of `op` built field by field as its row
            /// declares them: each numeric field takes the next
            /// `word(kind)`, told its kind as the row names it (`"oid"`,
            /// `"vid"`, `"tag"`, `"u64"`, `"policy"`), each byte field a
            /// copy of `body`. Lets tests and tools cover every row
            /// without naming one.
            pub fn sample(
                op: Opcode,
                mut word: impl FnMut(&'static str) -> u64,
                body: &[u8],
            ) -> Request {
                match op {
                    $( Opcode::$variant => Request::$variant $({
                        $( $field: wire_sample!($kind, word, body), )+
                    })?, )*
                }
            }

            /// The object and version ids this request names, in field
            /// order — what a router places a keyed request by. Every
            /// shard issues ids from its own residue, so an id means
            /// the same thing on every side of the router.
            pub fn ids(&self) -> Vec<u64> {
                match self {
                    $( Request::$variant $({ $($field),+ })? => {
                        let ids: &[Option<u64>] = &[$($( wire_id!($kind, $field) ),+)?];
                        ids.iter().flatten().copied().collect()
                    } )*
                }
            }
        }
    };
}

wire_table! {
    /// Liveness probe.
    0 "ping" Ping read local;
    /// Server statistics snapshot.
    1 "stats" Stats read scatter;
    /// `pnew`: create an object whose first version holds `body`
    /// (already `Persist`-encoded by the client).
    2 "pnew" Pnew {
        /// Stored type tag of the object's type.
        tag: tag,
        /// Encoded first-version body.
        body: bytes,
    } write placed;
    /// Dereference a generic reference: the latest version's body of
    /// `oid`, type-checked against `tag`.
    3 "deref" Deref {
        /// Object to dereference.
        oid: oid,
        /// Expected type tag.
        tag: tag,
    } read keyed;
    /// Dereference a specific version, type-checked against `tag`.
    4 "deref_version" DerefVersion {
        /// Version to dereference.
        vid: vid,
        /// Expected type tag.
        tag: tag,
    } read keyed;
    /// Replace the latest version's body.
    5 "update" Update {
        /// Object whose latest version to overwrite.
        oid: oid,
        /// Expected type tag.
        tag: tag,
        /// New encoded body.
        body: bytes,
    } write keyed;
    /// Replace a specific version's body.
    6 "update_version" UpdateVersion {
        /// Version to overwrite.
        vid: vid,
        /// Expected type tag.
        tag: tag,
        /// New encoded body.
        body: bytes,
    } write keyed;
    /// Derive a new version from the object's latest.
    7 "newversion" NewVersion {
        /// Object to version.
        oid: oid,
    } write keyed;
    /// Derive a new version from a specific base version.
    8 "newversion_from" NewVersionFrom {
        /// Base version.
        vid: vid,
    } write keyed;
    /// Delete an object and all its versions.
    9 "pdelete" Pdelete {
        /// Object to delete.
        oid: oid,
    } write keyed;
    /// Delete one specific version.
    10 "pdelete_version" PdeleteVersion {
        /// Version to delete.
        vid: vid,
    } write keyed;
    /// Derived-from predecessor of `vid`.
    11 "dprevious" Dprevious {
        /// Version to traverse from.
        vid: vid,
    } read keyed;
    /// Derived-from successors of `vid`.
    12 "dnext" Dnext {
        /// Version to traverse from.
        vid: vid,
    } read keyed;
    /// Temporal predecessor of `vid`.
    13 "tprevious" Tprevious {
        /// Version to traverse from.
        vid: vid,
    } read keyed;
    /// Temporal successor of `vid`.
    14 "tnext" Tnext {
        /// Version to traverse from.
        vid: vid,
    } read keyed;
    /// All versions of `oid` in temporal order.
    15 "version_history" VersionHistory {
        /// Object to list.
        oid: oid,
    } read keyed;
    /// Pin `oid`'s current latest version.
    16 "current_version" CurrentVersion {
        /// Object to pin.
        oid: oid,
    } read keyed;
    /// Extent scan: all live objects tagged `tag`.
    17 "objects" Objects {
        /// Type tag of the extent.
        tag: tag,
    } read scatter;
    /// Extent page: up to `limit` objects tagged `tag` with ids `>=
    /// after`.
    18 "objects_page" ObjectsPage {
        /// Type tag of the extent.
        tag: tag,
        /// Cursor: smallest id to return.
        after: oid,
        /// Maximum number of objects.
        limit: u64,
    } read scatter;
    /// The object `vid` belongs to.
    19 "object_of" ObjectOf {
        /// Version to resolve.
        vid: vid,
    } read keyed;
    /// Number of live versions of `oid`.
    20 "version_count" VersionCount {
        /// Object to count.
        oid: oid,
    } read keyed;
    /// Whether `oid` exists.
    21 "exists" Exists {
        /// Object to probe.
        oid: oid,
    } read keyed;
    /// Whether `vid` exists.
    22 "version_exists" VersionExists {
        /// Version to probe.
        vid: vid,
    } read keyed;
    /// The node's applied commit epoch (the router's health probe).
    23 "epoch" Epoch read local;
    /// Read-your-writes gate for replica reads: pin this connection's
    /// reads at `epoch` — they wait until the node has applied it.
    24 "read_floor" ReadFloor {
        /// Minimum applied epoch subsequent reads require (0 clears).
        epoch: u64,
    } read local;
    /// Promote this node from replica to primary (driven failover;
    /// idempotent).
    25 "promote" Promote write local;
    /// All versions of `oid` whose global stamp lies in `from..=to`,
    /// oldest first — served from the object's delta chain when it has
    /// one, without materializing any bodies.
    26 "history_between" HistoryBetween {
        /// Object whose history to slice.
        oid: oid,
        /// Smallest global stamp to include.
        from: u64,
        /// Largest global stamp to include.
        to: u64,
    } read keyed;
    /// Summary of the byte difference between two versions' states.
    27 "diff_versions" DiffVersions {
        /// Base version.
        from: vid,
        /// Target version.
        to: vid,
    } read keyed;
    /// Three-way merge `a` and `b` (two versions of one object) against
    /// their common ancestor, checking the result in as a new version
    /// with both parents recorded.
    28 "merge" Merge {
        /// First parent ("ours").
        a: vid,
        /// Second parent ("theirs").
        b: vid,
        /// Conflict policy.
        policy: policy,
    } write keyed;
    /// Issue this node's object and version ids as `k·stride +
    /// residue` from now on — how a router gives each shard its own
    /// residue. Refused (`BadRequest`) when the node holds another
    /// claim, or has already issued ids the claim would not have.
    29 "claim_ids" ClaimIds {
        /// Number of shards in the tier.
        stride: u64,
        /// This node's shard index.
        residue: u64,
    } write local;
    /// Subscribe this connection to the node's log (replication). The
    /// answer is a stream of frames under this request's sequence id:
    /// `SnapshotPart`s or one `Resume`, then a `Chunk` of shipped log
    /// after every commit, for as long as the connection lasts. Only a
    /// position of the node's own generation is resumed.
    30 "subscribe" Subscribe {
        /// Generation the positions below belong to (0: none).
        gen: u64,
        /// Logical log position applied through (`u64::MAX`: no state).
        have_pos: u64,
        /// Commit epoch applied through.
        have_epoch: u64,
    } write local;
    /// A subscriber has applied the stream through `pos`, reaching
    /// `epoch`. Answered by nothing.
    31 "ack" Ack {
        /// Logical log position received and applied through.
        pos: u64,
        /// The subscriber's commit epoch after applying.
        epoch: u64,
    } write local;
}

// `from_u8` indexes `ALL` by the wire byte, so the numbers in the table
// must be exactly 0, 1, 2, … in row order.
const _: () = {
    let mut i = 0;
    while i < OPCODE_COUNT {
        assert!(
            Opcode::ALL[i] as usize == i,
            "opcode numbers must be dense and in row order"
        );
        i += 1;
    }
};

impl Request {
    /// Whether this request only reads (see [`Opcode::is_read`]).
    pub fn is_read(&self) -> bool {
        self.opcode().is_read()
    }

    /// Decode just the sequence id from a request payload — the part a
    /// server can still echo in an error frame when the rest of the
    /// payload is garbage.
    pub fn decode_seq(payload: &[u8]) -> Result<u64> {
        Ok(split_seq(payload)?.0)
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// How a field of a stats report folds across the shards of a tier.
macro_rules! stats_merge {
    (sum, $into:expr, $from:expr) => {
        $into += $from
    };
    (max, $into:expr, $from:expr) => {
        $into = $into.max($from)
    };
    (each, $into:expr, $from:expr) => {
        $into.merge(&$from)
    };
    (per_opcode, $into:expr, $from:expr) => {
        merge_requests(&mut $into, &$from)
    };
}

/// A [`wire_struct!`] of counters, each declaring after `=>` the rule
/// that folds it across shards: `sum` for counts, `max` for gauges and
/// high-water marks, `each` for a nested table, `per_opcode` for the
/// request counts.
macro_rules! stats_table {
    (
        $(#[$meta:meta])*
        pub struct $ty:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $fty:ty => $rule:ident ),* $(,)?
        }
    ) => {
        wire_struct! {
            $(#[$meta])*
            pub struct $ty {
                $( $(#[$fmeta])* pub $field: $fty, )*
            }
        }

        impl $ty {
            /// Fold another node's report into this one, each field
            /// under its declared rule.
            pub fn merge(&mut self, other: &$ty) {
                $( stats_merge!($rule, self.$field, other.$field); )*
            }
        }
    };
}

/// A report's per-opcode request counts from a count per opcode: wire
/// order, only non-zero entries listed.
pub(crate) fn request_counts(count: impl Fn(Opcode) -> u64) -> Vec<(Opcode, u64)> {
    let counted = Opcode::ALL.into_iter().map(|op| (op, count(op)));
    counted.filter(|&(_, n)| n != 0).collect()
}

/// Sum two per-opcode count lists into one in the same form.
fn merge_requests(into: &mut Vec<(Opcode, u64)>, from: &[(Opcode, u64)]) {
    let mut per_op = [0u64; OPCODE_COUNT];
    for (op, n) in into.iter().chain(from) {
        per_op[*op as usize] += n;
    }
    *into = request_counts(|op| per_op[op as usize]);
}

stats_table! {
    /// Storage-engine contention and commit counters, nested inside
    /// [`StatsReport`] — the server-side view of
    /// `ode_storage::StoreStats`, so operators can watch reader/writer
    /// lock waits and group-commit batching over the wire.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StorageCounters {
        /// Read transactions (snapshots) begun.
        pub read_txs: u64 => sum,
        /// Write transactions committed with a non-empty write set.
        pub write_txs: u64 => sum,
        /// Snapshot acquisitions that blocked at the snapshot gate.
        pub reader_waits: u64 => sum,
        /// Total nanoseconds readers spent blocked.
        pub reader_wait_nanos: u64 => sum,
        /// Writer acquisitions (write mutex or publish gate) that blocked.
        pub writer_waits: u64 => sum,
        /// Total nanoseconds writers spent blocked.
        pub writer_wait_nanos: u64 => sum,
        /// WAL fsyncs issued (inline and group-leader).
        pub wal_syncs: u64 => sum,
        /// fsyncs performed by a group-commit leader.
        pub group_syncs: u64 => sum,
        /// Commits made durable by a group-leader fsync.
        pub group_commit_txns: u64 => sum,
        /// Largest commit cohort one group fsync covered.
        pub group_batch_max: u64 => max,
        /// WAL + snapshot bytes shipped to replicas.
        pub bytes_shipped: u64 => sum,
        /// Worst replica lag behind the primary, in commit epochs (gauge).
        pub replica_lag_epochs: u64 => max,
        /// Replica-to-primary promotions this node has performed.
        pub failovers: u64 => sum,
        /// Optimistic transactions aborted by first-committer-wins
        /// validation (each one re-executed by the retry loop or surfaced
        /// to the client).
        pub write_conflicts: u64 => sum,
        /// Re-executions of conflicted transactions.
        pub write_retries: u64 => sum,
    }
}

stats_table! {
    /// Server statistics, shipped by the `Stats` opcode.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StatsReport {
        /// Connections currently in a session (post-handshake).
        pub active_connections: u64 => sum,
        /// Connections accepted over the server's lifetime.
        pub total_connections: u64 => sum,
        /// Frame payload bytes received (length prefixes included).
        pub bytes_in: u64 => sum,
        /// Frame payload bytes sent (length prefixes included).
        pub bytes_out: u64 => sum,
        /// Frames that violated the protocol (bad opcode, bad payload).
        pub protocol_errors: u64 => sum,
        /// Requests that executed and failed (error frames sent).
        pub op_errors: u64 => sum,
        /// Read requests answered from the server's snapshot cache without
        /// touching the store.
        pub snapshot_hits: u64 => sum,
        /// Read requests that had to open a fresh database snapshot.
        pub snapshot_misses: u64 => sum,
        /// Connections evicted because their response backlog exceeded the
        /// server's write-buffer cap (a slow or stalled reader).
        pub slow_client_evictions: u64 => sum,
        /// Historical reads answered from the materialization cache
        /// (delta-chain states rebuilt earlier this commit epoch).
        pub materialize_hits: u64 => sum,
        /// Historical reads that had to replay the delta chain.
        pub materialize_misses: u64 => sum,
        /// Per-opcode request counts; only non-zero entries are listed.
        pub requests: Vec<(Opcode, u64)> => per_opcode,
        /// Storage-engine contention and commit counters.
        pub storage: StorageCounters => each,
    }
}

impl StatsReport {
    /// The count recorded for one opcode.
    pub fn requests_for(&self, op: Opcode) -> u64 {
        self.requests
            .iter()
            .find(|(o, _)| *o == op)
            .map_or(0, |(_, n)| *n)
    }

    /// Total requests across every opcode.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(|(_, n)| *n).sum()
    }
}

// ---------------------------------------------------------------------------
// The response table
// ---------------------------------------------------------------------------

wire_struct! {
    /// A version-to-version difference summary, the reply to
    /// `DiffVersions` — the wire view of the core's `VersionDiff`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DiffSummary {
        /// Base version.
        pub from: Vid,
        /// Target version.
        pub to: Vid,
        /// Length of the target state in bytes.
        pub to_len: u64,
        /// Number of copy/insert ops in the delta.
        pub ops: u64,
        /// Bytes the delta carries literally (not copied from the base).
        pub literal_bytes: u64,
        /// Encoded size of the delta in bytes.
        pub encoded_bytes: u64,
        /// Whether this delta was served straight from the object's stored
        /// chain (adjacent versions) rather than computed on demand.
        pub stored: bool,
    }
}

/// One row per response shape: `kind-byte "name" Variant`, then its one
/// unnamed field as `(binder: Type)` or its named fields as `{ field:
/// Type, … }`. Generates [`Response`] and its codec.
macro_rules! response_table {
    ($(
        $(#[$doc:meta])*
        $num:literal $name:literal $variant:ident
        $(( $tbind:ident : $tty:ty ))?
        $({ $( $(#[$fdoc:meta])* $field:ident : $fty:ty ),+ $(,)? })?
        ;
    )*) => {
        /// One response frame's decoded payload.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Response {
            $(
                $(#[$doc])*
                $variant $(($tty))? $({ $( $(#[$fdoc])* $field: $fty, )+ })?,
            )*
        }

        impl Response {
            /// Short name of this response's shape (protocol-error messages).
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $( Response::$variant { .. } => $name, )*
                }
            }

            /// Encode into a frame payload (no length prefix), echoing
            /// the sequence id of the request this response answers.
            pub fn encode(&self, seq: u64) -> Vec<u8> {
                let mut w = Writer::new();
                w.put_varint(seq);
                match self {
                    $( Response::$variant $(($tbind))? $({ $($field),+ })? => {
                        w.put_u8($num);
                        $( $tbind.put(&mut w); )?
                        $($( $field.put(&mut w); )+)?
                    } )*
                }
                w.into_bytes()
            }

            /// Decode a frame payload into the echoed sequence id and
            /// the response. Strict: unknown kinds, unknown error
            /// codes, and trailing bytes are protocol errors.
            pub fn decode(payload: &[u8]) -> Result<(u64, Response)> {
                let mut r = Reader::new(payload);
                let seq = r.get_varint()?;
                let response = match r.get_u8()? {
                    $( $num => Response::$variant
                        $(( <$tty as Wire>::get(&mut r)? ))?
                        $({ $( $field: Wire::get(&mut r)?, )+ })?, )*
                    k => return Err(unknown_kind(k)),
                };
                finish(&r, response.kind_name(), "response")?;
                Ok((seq, response))
            }
        }
    };
}

fn unknown_kind(k: u8) -> NetError {
    NetError::Protocol(format!("unknown response kind byte {k}"))
}

response_table! {
    /// Reply to `Ping`.
    0 "pong" Pong;
    /// Reply to `Stats`.
    1 "stats" Stats(report: StatsReport);
    /// Reply to `Pnew`: the new object and its first version.
    2 "created" Created {
        /// New object id.
        oid: Oid,
        /// Its first version.
        vid: Vid,
    };
    /// A single version id (`NewVersion`, `NewVersionFrom`, `Update`,
    /// `CurrentVersion`).
    3 "version" Version(vid: Vid);
    /// An encoded body plus the version it came from (`Deref`,
    /// `DerefVersion`).
    4 "body" Body {
        /// The version the body belongs to (for `Deref`, the resolved
        /// latest).
        vid: Vid,
        /// `Persist`-encoded object state.
        bytes: Vec<u8>,
    };
    /// Success with nothing to return (`UpdateVersion`, `Pdelete`,
    /// `PdeleteVersion`).
    5 "unit" Unit;
    /// An optional version id (the four traversals).
    6 "maybe_version" MaybeVersion(vid: Option<Vid>);
    /// A list of version ids (`Dnext`, `VersionHistory`).
    7 "versions" Versions(vids: Vec<Vid>);
    /// A list of object ids (`Objects`, `ObjectsPage`).
    8 "objects" Objects(oids: Vec<Oid>);
    /// A single object id (`ObjectOf`).
    9 "object" Object(oid: Oid);
    /// A count (`VersionCount`).
    10 "count" Count(n: u64);
    /// A boolean (`Exists`, `VersionExists`).
    11 "flag" Flag(flag: bool);
    /// A version-difference summary (`DiffVersions`).
    12 "diff" Diff(summary: DiffSummary);
    /// The outcome of a `Merge`: the checked-in two-parent version
    /// (`None` when the `Fail` policy met conflicts) and every
    /// conflicting byte range.
    13 "merged" Merged {
        /// The new merge version, when one was checked in.
        vid: Option<Vid>,
        /// Overlapping edits between the two sides.
        conflicts: Vec<MergeConflict>,
    };
    /// One part of a snapshot in a `Subscribe` stream: the page file's
    /// bytes from where the last part ended. Once it holds `total`
    /// bytes the subscriber installs the copy and applies the log from
    /// `base_pos`.
    14 "snapshot_part" SnapshotPart {
        /// The shipping node's generation.
        gen: u64,
        /// Logical log position the snapshot is consistent at.
        base_pos: u64,
        /// Commit epoch the snapshot is consistent at.
        epoch: u64,
        /// Seed of the log generation the chunks continue.
        seed: u32,
        /// Length of the whole page file.
        total: u64,
        /// This part's bytes.
        bytes: Vec<u8>,
    };
    /// The start of a `Subscribe` stream whose position is live: chunks
    /// follow from `from`.
    15 "resume" Resume {
        /// The shipping node's generation.
        gen: u64,
        /// Logical log position the chunks start at.
        from: u64,
    };
    /// Shipped log bytes in a `Subscribe` stream.
    16 "chunk" Chunk {
        /// Logical log position of the first byte.
        start_pos: u64,
        /// Log frames, byte for byte as the node wrote them.
        bytes: Vec<u8>,
    };
    /// The operation failed on the server.
    255 "err" Err(error: RemoteError);
}

impl Response {
    /// Decode just the echoed sequence id from a response payload — the
    /// part a client can still correlate when the rest of the payload
    /// is garbage (see [`crate::OdeClient::recv`] on per-request decode
    /// errors).
    pub fn decode_seq(payload: &[u8]) -> Result<u64> {
        Ok(split_seq(payload)?.0)
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Write one length-prefixed frame. Returns the total bytes written
/// (prefix + payload). The caller flushes.
///
/// The prefix and the payload go to `w` as one vectored write, so a
/// sink that gathers (a socket, a `BufWriter`, a `Vec`) takes each
/// frame in one call — on an unbuffered socket without `TCP_NODELAY`
/// a frame sent in two writes waits out the peer's delayed ACK — and a
/// `Vec` copies the payload once, straight into place.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    let mut prefix = Vec::with_capacity(varint::MAX_VARINT_LEN);
    varint::write_u64(&mut prefix, payload.len() as u64);
    write_parts(w, &prefix, payload)?;
    Ok((prefix.len() + payload.len()) as u64)
}

/// Write one frame whose payload is `seq` followed by `body` — how a
/// router re-stamps the operation bytes it forwards without copying
/// them into a payload first. One vectored write, like
/// [`write_frame`]. The caller flushes.
pub fn write_frame_seq(w: &mut impl Write, seq: u64, body: &[u8]) -> io::Result<()> {
    // Built as `seq len`, then rotated to `len seq`: the length prefix
    // counts the sequence id's own bytes.
    let mut head = Vec::with_capacity(2 * varint::MAX_VARINT_LEN);
    varint::write_u64(&mut head, seq);
    let seq_len = head.len();
    varint::write_u64(&mut head, (seq_len + body.len()) as u64);
    head.rotate_left(seq_len);
    write_parts(w, &head, body)
}

/// `head` then `body`, each written whole, with as few calls as `w`
/// allows: one, when it takes both slices in one vectored write.
fn write_parts(w: &mut impl Write, mut head: &[u8], mut body: &[u8]) -> io::Result<()> {
    while !head.is_empty() {
        match w.write_vectored(&[io::IoSlice::new(head), io::IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) if n < head.len() => head = &head[n..],
            Ok(n) => {
                body = &body[n - head.len()..];
                head = &[];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.write_all(body)
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// *at a frame boundary* (the peer hung up between frames); EOF inside
/// a frame is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// Parse a frame's varint length prefix from the bytes received so
/// far: `Ok(None)` when the prefix is still incomplete, otherwise the
/// prefix's width and the payload length it declares. An overflowing
/// varint or a length over [`MAX_FRAME_LEN`] is an error as soon as it
/// can be seen — before anything is allocated for it.
fn frame_len(avail: &[u8]) -> Result<Option<(usize, usize)>> {
    let mut len: u64 = 0;
    for (i, &byte) in avail.iter().enumerate() {
        let shift = 7 * i as u32;
        if shift > 63 || (shift == 63 && byte > 1) {
            return Err(NetError::Protocol("frame length varint overflow".into()));
        }
        len |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            if len > MAX_FRAME_LEN as u64 {
                return Err(NetError::Protocol(format!(
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
                )));
            }
            return Ok(Some((i + 1, len as usize)));
        }
    }
    Ok(None)
}

/// Like [`read_frame`], but reads the payload into `buf` (cleared
/// first), so a hot receive loop can reuse one allocation across
/// frames. Returns `Ok(false)` on clean EOF before the first length
/// byte.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<bool> {
    // Varint length prefix, byte by byte off the stream.
    let mut prefix = [0u8; varint::MAX_VARINT_LEN];
    let mut got = 0;
    let len = loop {
        match r.read_exact(&mut prefix[got..got + 1]) {
            Ok(()) => got += 1,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && got == 0 => return Ok(false),
            Err(e) => return Err(NetError::Io(e)),
        }
        if let Some((_, len)) = frame_len(&prefix[..got])? {
            break len;
        }
    };
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Incremental frame decoder for nonblocking sockets.
///
/// Bytes arrive in arbitrary splits (a readiness loop reads whatever
/// the kernel has); [`FrameBuffer::extend`] accumulates them and
/// [`FrameBuffer::next_frame`] yields each complete payload without
/// ever blocking. Frame-level corruption — a varint length prefix
/// that overflows or exceeds [`MAX_FRAME_LEN`] — is an error exactly
/// where [`read_frame_into`] would fail, and poisons the buffer (the
/// stream has no recoverable framing past that point).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes before `start` belong to already-yielded frames.
    start: usize,
    /// Where the last frame yielded began (see [`FrameBuffer::unread`]).
    yielded: usize,
    poisoned: bool,
}

impl FrameBuffer {
    /// An empty accumulator.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: only once the dead prefix dominates, so a
        // busy connection isn't memmoving on every frame.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
            self.yielded = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether [`FrameBuffer::next_frame`] would yield something other
    /// than `Ok(None)` — a complete frame, or the framing error — without
    /// consuming it.
    pub(crate) fn has_frame(&self) -> bool {
        self.poisoned
            || match frame_len(&self.buf[self.start..]) {
                Ok(Some((prefix, len))) => self.pending() >= prefix + len,
                Ok(None) => false,
                Err(_) => true,
            }
    }

    /// Puts back the frame the last [`FrameBuffer::next_frame`] yielded,
    /// so that the next call yields it again. Only valid with no
    /// [`FrameBuffer::extend`] in between.
    pub(crate) fn unread(&mut self) {
        self.start = self.yielded;
    }

    /// The next complete frame payload, or `Ok(None)` if more bytes
    /// are needed.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>> {
        if self.poisoned {
            return Err(NetError::Protocol("frame stream already corrupt".into()));
        }
        let avail = &self.buf[self.start..];
        let (prefix, len) = match frame_len(avail) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => return Ok(None),
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        let total = prefix + len;
        if avail.len() < total {
            return Ok(None);
        }
        let payload_start = self.start + prefix;
        self.yielded = self.start;
        self.start += total;
        Ok(Some(&self.buf[payload_start..payload_start + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        for seq in [0, 1, 300, u64::MAX] {
            let bytes = req.encode(seq);
            assert_eq!(Request::decode_seq(&bytes).unwrap(), seq);
            assert_eq!(Request::decode(&bytes).unwrap(), (seq, req.clone()));
        }
    }

    fn round_trip_response(resp: Response) {
        for seq in [0, 1, 300, u64::MAX] {
            let bytes = resp.encode(seq);
            assert_eq!(Response::decode(&bytes).unwrap(), (seq, resp.clone()));
        }
    }

    #[test]
    fn every_row_round_trips_and_answers_for_itself() {
        let mut names = std::collections::HashSet::new();
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
            assert!(names.insert(op.name()), "{} labels two rows", op.name());
            // Small, multi-byte and extreme field values; byte fields
            // with bytes a varint-per-byte codec would widen.
            for (word, body) in [
                (0u64, &[][..]),
                (300, &[1, 200, 255]),
                (u64::MAX, &[255; 300]),
            ] {
                let mut next = word;
                let req = Request::sample(
                    op,
                    |_| {
                        next = next.wrapping_add(1);
                        next
                    },
                    body,
                );
                assert_eq!(req.opcode(), op);
                assert_eq!(req.is_read(), op.is_read());
                round_trip_request(req);
            }
        }
        assert_eq!(Opcode::from_u8(OPCODE_COUNT as u8), None);
    }

    #[test]
    fn ids_names_each_id_in_field_order() {
        assert_eq!(
            Request::Update {
                oid: Oid(5),
                tag: TypeTag(6),
                body: vec![7],
            }
            .ids(),
            [5],
            "a tag is not an id"
        );
        let merge = Request::Merge {
            a: Vid(1),
            b: Vid(2),
            policy: MergePolicy::Theirs,
        };
        assert_eq!(merge.ids(), [1, 2]);
        let history = Request::HistoryBetween {
            oid: Oid(1),
            from: 2,
            to: 3,
        };
        assert_eq!(history.ids(), [1], "stamps are not ids");
        assert_eq!(
            Request::ReadFloor { epoch: 8 }.ids(),
            [],
            "an epoch is not an id"
        );
        let claim = Request::ClaimIds {
            stride: 4,
            residue: 1,
        };
        assert_eq!(claim.ids(), []);
        // Every keyed row names an id to be routed by.
        for op in Opcode::ALL
            .into_iter()
            .filter(|op| op.routing() == Routing::Keyed)
        {
            assert!(!Request::sample(op, |_| 7, &[]).ids().is_empty(), "{op:?}");
        }
    }

    /// The README's opcode table is documentation of the request table
    /// above; this holds it to every column.
    #[test]
    fn the_readme_opcode_table_mirrors_the_wire_table() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<Vec<&str>> = readme
            .lines()
            .filter(|line| line.starts_with("| ") && line.contains('`'))
            .map(|line| line.trim_matches('|').split('|').map(str::trim).collect())
            .filter(|cells: &Vec<&str>| cells.len() == 6 && cells[0].parse::<u8>().is_ok())
            .collect();
        assert_eq!(rows.len(), OPCODE_COUNT, "one README row per opcode");
        for (row, op) in rows.iter().zip(Opcode::ALL) {
            let access = if op.is_read() { "read" } else { "write" };
            let routing = format!("{:?}", op.routing()).to_lowercase();
            assert_eq!(
                row[..4],
                [
                    &(op as u8).to_string()[..],
                    &format!("`{}`", op.name())[..],
                    access,
                    &routing[..],
                ],
                "README row for {op:?}"
            );
        }
    }

    #[test]
    fn merge_is_a_write() {
        assert!(!Request::Merge {
            a: Vid(1),
            b: Vid(2),
            policy: MergePolicy::Fail
        }
        .is_read());
    }

    #[test]
    fn unknown_merge_policy_is_a_protocol_error() {
        let mut bytes = Request::Merge {
            a: Vid(1),
            b: Vid(2),
            policy: MergePolicy::Fail,
        }
        .encode(0);
        *bytes.last_mut().unwrap() = 9;
        assert!(matches!(
            Request::decode(&bytes),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn history_and_diff_are_reads() {
        assert!(Request::HistoryBetween {
            oid: Oid(1),
            from: 0,
            to: 10
        }
        .is_read());
        assert!(Request::DiffVersions {
            from: Vid(1),
            to: Vid(2)
        }
        .is_read());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Pong);
        round_trip_response(Response::Stats(StatsReport {
            active_connections: 1,
            total_connections: 9,
            bytes_in: 1000,
            bytes_out: 2000,
            protocol_errors: 1,
            op_errors: 2,
            snapshot_hits: 41,
            snapshot_misses: 12,
            slow_client_evictions: 3,
            materialize_hits: 17,
            materialize_misses: 5,
            requests: vec![(Opcode::Ping, 3), (Opcode::Pnew, 4)],
            storage: StorageCounters {
                read_txs: 100,
                write_txs: 20,
                reader_waits: 3,
                reader_wait_nanos: 4500,
                writer_waits: 2,
                writer_wait_nanos: 800,
                wal_syncs: 12,
                group_syncs: 5,
                group_commit_txns: 18,
                group_batch_max: 6,
                bytes_shipped: 4096,
                replica_lag_epochs: 2,
                failovers: 1,
                write_conflicts: 7,
                write_retries: 6,
            },
        }));
        round_trip_response(Response::Created {
            oid: Oid(1),
            vid: Vid(2),
        });
        round_trip_response(Response::Version(Vid(3)));
        round_trip_response(Response::Body {
            vid: Vid(4),
            bytes: vec![9; 17],
        });
        round_trip_response(Response::Unit);
        round_trip_response(Response::MaybeVersion(None));
        round_trip_response(Response::MaybeVersion(Some(Vid(5))));
        round_trip_response(Response::Versions(vec![Vid(1), Vid(2), Vid(3)]));
        round_trip_response(Response::Objects(vec![Oid(4), Oid(5)]));
        round_trip_response(Response::Object(Oid(6)));
        round_trip_response(Response::Count(7));
        round_trip_response(Response::Flag(true));
        round_trip_response(Response::Flag(false));
        round_trip_response(Response::Diff(DiffSummary {
            from: Vid(8),
            to: Vid(9),
            to_len: 600,
            ops: 5,
            literal_bytes: 48,
            encoded_bytes: 70,
            stored: true,
        }));
        round_trip_response(Response::Diff(DiffSummary {
            from: Vid(0),
            to: Vid(0),
            to_len: 0,
            ops: 0,
            literal_bytes: 0,
            encoded_bytes: 0,
            stored: false,
        }));
        round_trip_response(Response::Merged {
            vid: Some(Vid(10)),
            conflicts: vec![],
        });
        round_trip_response(Response::Merged {
            vid: None,
            conflicts: vec![
                MergeConflict {
                    base_start: 5,
                    base_end: 9,
                    ours: vec![1, 2, 3],
                    theirs: vec![],
                },
                MergeConflict {
                    base_start: 40,
                    base_end: 40,
                    ours: vec![7],
                    theirs: vec![8; 300],
                },
            ],
        });
        for err in [
            RemoteError::UnknownObject(Oid(1)),
            RemoteError::UnknownVersion(Vid(2)),
            RemoteError::TypeMismatch {
                expected: TypeTag(3),
                found: TypeTag(4),
            },
            RemoteError::LastVersion(Vid(5)),
            RemoteError::Storage("disk on fire".into()),
            RemoteError::BadRequest("garbage".into()),
            RemoteError::Unavailable("shard 2 is reconnecting".into()),
        ] {
            round_trip_response(Response::Err(err));
        }
    }

    #[test]
    fn response_seq_is_recoverable_from_an_undecodable_payload() {
        // Valid seq varint followed by an unknown kind byte: the full
        // decode fails, the seq alone still comes back.
        let mut bytes = Writer::new();
        bytes.put_varint(300);
        bytes.put_u8(200);
        let bytes = bytes.into_bytes();
        assert!(Response::decode(&bytes).is_err());
        assert_eq!(Response::decode_seq(&bytes).unwrap(), 300);
    }

    #[test]
    fn unknown_opcode_is_a_protocol_error() {
        // Seq 0, then an out-of-range opcode byte.
        let err = Request::decode(&[0, 200]).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)));
    }

    #[test]
    fn trailing_bytes_are_a_protocol_error() {
        let mut bytes = Request::Ping.encode(7);
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(NetError::Protocol(_))
        ));
        let mut bytes = Response::Unit.encode(7);
        bytes.push(0);
        assert!(matches!(
            Response::decode(&bytes),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        let n1 = write_frame(&mut buf, b"hello").unwrap();
        let n2 = write_frame(&mut buf, &[]).unwrap();
        assert_eq!(n1, 6);
        assert_eq!(n2, 1);
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), Vec::<u8>::new());
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    /// A socket-like sink: each `write` or `write_vectored` call is one
    /// system call, taking at most `cap` bytes across its slices.
    struct CountingSink {
        bytes: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut took = 0;
            for buf in bufs {
                let n = buf.len().min(self.cap - took);
                self.bytes.extend_from_slice(&buf[..n]);
                took += n;
            }
            Ok(took)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_to_a_gathering_sink() {
        let body = vec![9u8; 300];
        let sink = |cap| CountingSink {
            bytes: Vec::new(),
            calls: 0,
            cap,
        };
        let mut whole = sink(usize::MAX);
        write_frame(&mut whole, &body).unwrap();
        write_frame_seq(&mut whole, 300, &body).unwrap();
        assert_eq!(whole.calls, 2, "one write per frame");

        let mut cursor = io::Cursor::new(whole.bytes.clone());
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), body);
        let restamped = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(split_seq(&restamped).unwrap(), (300, &body[..]));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);

        // A sink that takes a few bytes per call still gets every byte,
        // in order.
        let mut trickle = sink(7);
        write_frame(&mut trickle, &body).unwrap();
        write_frame_seq(&mut trickle, 300, &body).unwrap();
        assert_eq!(trickle.bytes, whole.bytes);
    }

    #[test]
    fn eof_inside_a_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(3); // length prefix + partial payload
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(NetError::Io(_))));
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, (MAX_FRAME_LEN as u64) + 1);
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn frame_buffer_reassembles_byte_split_frames() {
        let mut wire = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], vec![1; 300], b"tail".to_vec()];
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        // Feed one byte at a time: every frame still comes out whole,
        // in order, and never early.
        let mut fb = FrameBuffer::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(fb.pending(), 0);
        // And coalesced in one blob: identical result.
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        let mut got: Vec<Vec<u8>> = Vec::new();
        while let Some(frame) = fb.next_frame().unwrap() {
            got.push(frame.to_vec());
        }
        assert_eq!(got, payloads);
    }

    #[test]
    fn frame_buffer_rejects_hostile_length_prefixes() {
        // Over the cap.
        let mut wire = Vec::new();
        varint::write_u64(&mut wire, (MAX_FRAME_LEN as u64) + 1);
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        assert!(fb.next_frame().is_err());
        // Poisoned: stays an error even after more bytes arrive.
        fb.extend(&[0; 16]);
        assert!(fb.next_frame().is_err());

        // Varint overflow (ten 0xFF continuation bytes).
        let mut fb = FrameBuffer::new();
        fb.extend(&[0xFF; 10]);
        assert!(fb.next_frame().is_err());

        // An incomplete prefix is just "need more bytes".
        let mut fb = FrameBuffer::new();
        fb.extend(&[0x80]);
        assert!(fb.next_frame().unwrap().is_none());
        fb.extend(&[0x01]); // length 128, no payload yet
        assert!(fb.next_frame().unwrap().is_none());
        fb.extend(&[0xAB; 128]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), &[0xAB; 128][..]);
    }
}
