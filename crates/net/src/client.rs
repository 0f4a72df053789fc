//! The blocking Ode client.
//!
//! [`OdeClient`] speaks the wire protocol over one reused TCP
//! connection and exposes typed methods mirroring the embedded
//! [`ode::Txn`] API: values are encoded/decoded locally with
//! [`ode_codec`], and references are the embedded API's own
//! [`ObjPtr`] (generic, late-bound) and [`VersionPtr`] (specific,
//! early-bound), so a pointer moves between a [`ode::Txn`] and an
//! `OdeClient` with no conversion.
//!
//! The connection is a **pipeline**: every request carries a
//! client-assigned sequence id and the server may answer out of order,
//! so [`OdeClient::send`] / [`OdeClient::recv`] keep any number of
//! requests in flight, with [`OdeClient::pipeline`] batching a whole
//! group in one flush. The typed methods are all one-request
//! conveniences over the same machinery.
//!
//! The connection is lazily (re)established. Idempotent reads are
//! retried once on a fresh connection when the old one turns out to be
//! dead (a server restart, an idle-timeout close) — and only when
//! nothing else was in flight, so a retry can never reorder around
//! other requests; writes are never retried — an I/O error on a write
//! leaves its outcome unknown and is surfaced to the caller.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use ode::{
    MergeConflict, MergePolicy, ObjPtr, OdeType, Oid, TypeTag, VersionDiff, VersionPtr, Vid,
};
use ode_codec::{from_bytes, to_bytes};
use ode_storage::page::IdHasher;

use crate::error::{NetError, Result};
use crate::protocol::{handshake, read_frame_into, write_frame, Request, Response, StatsReport};

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket read timeout (`None` blocks forever).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout (`None` blocks forever).
    pub write_timeout: Option<Duration>,
    /// Retry an idempotent read once on a fresh connection after an
    /// I/O failure.
    pub retry_reads: bool,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            retry_reads: true,
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Largest frame buffer a client keeps between frames.
const KEPT_FRAME_CAPACITY: usize = 1 << 20;

/// Sequence ids are the client's own, so they skip SipHash.
type SeqHash = BuildHasherDefault<IdHasher>;

/// A blocking client for one Ode server.
///
/// Its typed methods mirror [`ode::Txn`]'s and use the same pointer
/// types, so an [`ObjPtr`] or [`VersionPtr`] obtained here also
/// dereferences in a local transaction on the same database, and the
/// other way round.
///
/// ```no_run
/// use ode::{ObjPtr, VersionPtr};
/// use ode_codec::{impl_persist_struct, impl_type_name};
/// use ode_net::{ClientConfig, OdeClient};
///
/// struct Part { name: String, weight: u32 }
/// impl_persist_struct!(Part { name, weight });
/// impl_type_name!(Part = "demo/Part");
///
/// # fn main() -> ode_net::Result<()> {
/// let mut client = OdeClient::connect("127.0.0.1:4807", ClientConfig::default())?;
/// let p: ObjPtr<Part> = client.pnew(&Part { name: "alu".into(), weight: 7 })?;
/// let v0: VersionPtr<Part> = client.current_version(&p)?;
/// client.newversion(&p)?;
/// client.put(&p, &Part { name: "alu".into(), weight: 9 })?;
/// assert_eq!(client.deref(&p)?.0.weight, 9); // generic ref: latest
/// assert_eq!(client.deref_v(&v0)?.weight, 7); // specific ref: pinned
/// # Ok(())
/// # }
/// ```
pub struct OdeClient {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    conn: Option<Conn>,
    /// Next sequence id to stamp on a request. Connection-independent:
    /// ids never repeat across reconnects, so a late response from a
    /// dead connection can never be confused with a live request's.
    next_seq: u64,
    /// Sequence ids sent but not yet answered.
    inflight: HashSet<u64, SeqHash>,
    /// Results that arrived while waiting for a different sequence id.
    /// An `Err` entry is a frame that arrived for this sequence id but
    /// would not decode — the error is surfaced to whoever collects
    /// that id, without poisoning the rest of the pipeline (frames are
    /// length-delimited, so one bad payload leaves the stream in sync).
    backlog: HashMap<u64, Result<Response>, SeqHash>,
    /// The payload of the frame being sent or received: one buffer
    /// reused for every frame.
    frame: Vec<u8>,
}

impl OdeClient {
    /// Connect to a server (handshake included), so configuration
    /// errors surface here rather than on the first operation.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<OdeClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )));
        }
        let mut client = OdeClient {
            addrs,
            config,
            conn: None,
            next_seq: 0,
            inflight: HashSet::default(),
            backlog: HashMap::default(),
            frame: Vec::new(),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Drop the current connection; the next operation dials anew.
    /// Responses to anything still in flight are abandoned.
    pub fn disconnect(&mut self) {
        self.poison();
    }

    /// Forget the connection and everything that was in flight on it.
    fn poison(&mut self) {
        self.conn = None;
        self.inflight.clear();
        self.backlog.clear();
    }

    fn reconnect(&mut self) -> Result<()> {
        self.poison();
        let stream = TcpStream::connect(&self.addrs[..])?;
        stream.set_read_timeout(self.config.read_timeout)?;
        stream.set_write_timeout(self.config.write_timeout)?;
        stream.set_nodelay(true).ok();
        handshake(&stream)?;
        let writer = BufWriter::new(stream.try_clone()?);
        let reader = BufReader::new(stream);
        self.conn = Some(Conn { reader, writer });
        Ok(())
    }

    // -- pipelined core ------------------------------------------------------

    /// Send one request without waiting for its response; returns the
    /// sequence id to pass to [`OdeClient::recv_for`]. The request is
    /// buffered — it reaches the wire at the next `recv`/`recv_for`
    /// (which flush before reading), keeping a burst of sends in one
    /// write.
    pub fn send(&mut self, request: &Request) -> Result<u64> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.release_huge_frame();
        request.encode_into(seq, &mut self.frame);
        let conn = self.conn.as_mut().expect("connection just established");
        match write_frame(&mut conn.writer, &self.frame) {
            Ok(_) => {
                self.inflight.insert(seq);
                Ok(seq)
            }
            Err(e) => {
                self.poison();
                Err(NetError::Io(e))
            }
        }
    }

    /// Receive the next response the server sends (order unspecified —
    /// responses backlogged while waiting for other sequence ids are
    /// drained first). Errors when nothing is in flight. A frame that
    /// arrived for a known sequence id but would not decode surfaces
    /// here as `Err` after removing that id from flight; other in-flight
    /// requests are unaffected.
    pub fn recv(&mut self) -> Result<(u64, Response)> {
        if let Some(&seq) = self.backlog.keys().next() {
            let result = self.backlog.remove(&seq).expect("key just seen");
            return result.map(|response| (seq, response));
        }
        let (seq, result) = self.read_one()?;
        result.map(|response| (seq, response))
    }

    /// Receive the response for one specific sequence id, buffering any
    /// other responses that arrive first. An undecodable frame for a
    /// *different* in-flight id is backlogged as that id's error; only
    /// `seq`'s own bad frame errors this call.
    pub fn recv_for(&mut self, seq: u64) -> Result<Response> {
        loop {
            if let Some(result) = self.backlog.remove(&seq) {
                return result;
            }
            if !self.inflight.contains(&seq) {
                return Err(NetError::Protocol(format!(
                    "sequence id {seq} is not in flight"
                )));
            }
            let (got, result) = self.read_one()?;
            if got == seq {
                return result;
            }
            self.backlog.insert(got, result);
        }
    }

    /// Start a batch of pipelined requests on this connection.
    pub fn pipeline(&mut self) -> Pipeline<'_> {
        Pipeline {
            client: self,
            seqs: Vec::new(),
        }
    }

    /// Flush buffered requests and read one frame off the socket.
    ///
    /// Stream-level failures (I/O, a frame whose sequence id is
    /// unknown or unreadable) poison the connection — everything in
    /// flight is lost. A well-delimited frame that decodes its sequence
    /// id but not its payload is a *per-request* failure: the stream is
    /// still in sync, so only that request's result becomes the decode
    /// error and the rest of the pipeline proceeds.
    fn read_one(&mut self) -> Result<(u64, Result<Response>)> {
        if self.inflight.is_empty() {
            return Err(NetError::Protocol("no requests in flight".into()));
        }
        self.release_huge_frame();
        let conn = self
            .conn
            .as_mut()
            .expect("in-flight requests imply a connection");
        let frame = &mut self.frame;
        let received = (|| {
            conn.writer.flush()?;
            match read_frame_into(&mut conn.reader, frame)? {
                true => Ok(()),
                false => Err(NetError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))),
            }
        })();
        if let Err(e) = received {
            self.poison();
            return Err(e);
        }
        let frame = &self.frame;
        match Response::decode(frame) {
            Ok((seq, response)) => {
                if !self.inflight.remove(&seq) {
                    self.poison();
                    return Err(NetError::Protocol(format!(
                        "response for unknown sequence id {seq}"
                    )));
                }
                Ok((seq, Ok(response)))
            }
            Err(e) => match Response::decode_seq(frame) {
                Ok(seq) if self.inflight.remove(&seq) => Ok((seq, Err(e))),
                _ => {
                    self.poison();
                    Err(e)
                }
            },
        }
    }

    /// Let go of a frame buffer that one huge frame grew, so that it
    /// does not stay allocated for the rest of the session.
    fn release_huge_frame(&mut self) {
        if self.frame.capacity() > KEPT_FRAME_CAPACITY {
            self.frame = Vec::new();
        }
    }

    fn call_once(&mut self, request: &Request) -> Result<Response> {
        let seq = self.send(request)?;
        self.recv_for(seq)
    }

    fn call(&mut self, request: &Request) -> Result<Response> {
        // Only an idle connection may retry: with other requests in
        // flight a reconnect would abandon them, and the retry could
        // slip past a write queued ahead of it.
        let idle = self.inflight.is_empty() && self.backlog.is_empty();
        match self.call_once(request) {
            Err(NetError::Io(_)) if idle && request.is_read() && self.config.retry_reads => {
                self.call_once(request)
            }
            other => other,
        }
    }

    // -- liveness & stats ---------------------------------------------------

    /// Round-trip a ping.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Fetch the server's statistics counters.
    pub fn stats(&mut self) -> Result<StatsReport> {
        match self.call(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            other => Err(unexpected("stats", &other)),
        }
    }

    // -- replication role ---------------------------------------------------

    /// The node's applied commit epoch — the freshness token a reader
    /// pins with [`OdeClient::read_floor`] on another connection.
    /// Answered inline by the server (like `Ping`), so it doubles as a
    /// health probe that stays prompt under load.
    pub fn epoch(&mut self) -> Result<u64> {
        match self.call(&Request::Epoch)? {
            Response::Count(epoch) => Ok(epoch),
            other => Err(unexpected("count", &other)),
        }
    }

    /// Pin this connection's reads at `epoch`: the node holds each
    /// subsequent read until it has applied at least that epoch, and
    /// fails it `Unavailable` (never answers from older state) if it
    /// stays behind past the server's floor timeout.
    pub fn read_floor(&mut self, epoch: u64) -> Result<()> {
        match self.call(&Request::ReadFloor { epoch })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("unit", &other)),
        }
    }

    /// Promote the node from replica to primary (driven failover):
    /// fences the unapplied WAL tail and starts accepting writes.
    /// Idempotent — promoting a primary is a no-op success.
    pub fn promote(&mut self) -> Result<()> {
        match self.call(&Request::Promote)? {
            Response::Unit => Ok(()),
            other => Err(unexpected("unit", &other)),
        }
    }

    /// Have the node issue every object and version id as `k·stride +
    /// residue` from now on ([`ode::Database::claim_ids`]; a router
    /// sends this to each of its shards). A node holding another claim,
    /// or one that already issued ids outside it, refuses with
    /// `BadRequest`.
    pub fn claim_ids(&mut self, stride: u64, residue: u64) -> Result<()> {
        match self.call(&Request::ClaimIds { stride, residue })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("unit", &other)),
        }
    }

    // -- typed operations (mirror ode::Txn) ---------------------------------

    /// `pnew`: create a persistent object on the server.
    pub fn pnew<T: OdeType>(&mut self, value: &T) -> Result<ObjPtr<T>> {
        let response = self.call(&Request::Pnew {
            tag: ObjPtr::<T>::tag(),
            body: to_bytes(value),
        })?;
        match response {
            Response::Created { oid, .. } => Ok(ObjPtr::from_oid(oid)),
            other => Err(unexpected("created", &other)),
        }
    }

    /// Dereference a generic reference: the latest version's value plus
    /// a pinned pointer to the version it came from.
    pub fn deref<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<(T, VersionPtr<T>)> {
        let response = self.call(&Request::Deref {
            oid: ptr.oid(),
            tag: ObjPtr::<T>::tag(),
        })?;
        match response {
            Response::Body { vid, bytes } => Ok((from_bytes(&bytes)?, VersionPtr::from_vid(vid))),
            other => Err(unexpected("body", &other)),
        }
    }

    /// Dereference a specific reference.
    pub fn deref_v<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<T> {
        let response = self.call(&Request::DerefVersion {
            vid: vp.vid(),
            tag: VersionPtr::<T>::tag(),
        })?;
        match response {
            Response::Body { bytes, .. } => Ok(from_bytes(&bytes)?),
            other => Err(unexpected("body", &other)),
        }
    }

    /// Replace the latest version's state; returns the version written.
    pub fn put<T: OdeType>(&mut self, ptr: &ObjPtr<T>, value: &T) -> Result<VersionPtr<T>> {
        let response = self.call(&Request::Update {
            oid: ptr.oid(),
            tag: ObjPtr::<T>::tag(),
            body: to_bytes(value),
        })?;
        match response {
            Response::Version(vid) => Ok(VersionPtr::from_vid(vid)),
            other => Err(unexpected("version", &other)),
        }
    }

    /// Replace a specific version's state.
    pub fn put_version<T: OdeType>(&mut self, vp: &VersionPtr<T>, value: &T) -> Result<()> {
        let response = self.call(&Request::UpdateVersion {
            vid: vp.vid(),
            tag: VersionPtr::<T>::tag(),
            body: to_bytes(value),
        })?;
        match response {
            Response::Unit => Ok(()),
            other => Err(unexpected("unit", &other)),
        }
    }

    /// `newversion(p)`: derive a new version from the object's latest.
    pub fn newversion<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<VersionPtr<T>> {
        match self.call(&Request::NewVersion { oid: ptr.oid() })? {
            Response::Version(vid) => Ok(VersionPtr::from_vid(vid)),
            other => Err(unexpected("version", &other)),
        }
    }

    /// `newversion(vp)`: derive from a specific base version.
    pub fn newversion_from<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<VersionPtr<T>> {
        match self.call(&Request::NewVersionFrom { vid: vp.vid() })? {
            Response::Version(vid) => Ok(VersionPtr::from_vid(vid)),
            other => Err(unexpected("version", &other)),
        }
    }

    /// `pdelete p`: delete the object and all its versions.
    pub fn pdelete<T: OdeType>(&mut self, ptr: ObjPtr<T>) -> Result<()> {
        match self.call(&Request::Pdelete { oid: ptr.oid() })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("unit", &other)),
        }
    }

    /// `pdelete vp`: delete one specific version.
    pub fn pdelete_version<T: OdeType>(&mut self, vp: VersionPtr<T>) -> Result<()> {
        match self.call(&Request::PdeleteVersion { vid: vp.vid() })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("unit", &other)),
        }
    }

    /// `Dprevious`: the version `vp` was derived from.
    pub fn dprevious<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<Option<VersionPtr<T>>> {
        self.maybe_version(&Request::Dprevious { vid: vp.vid() })
    }

    /// `Dnext`: versions derived from `vp`, in creation order.
    pub fn dnext<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<Vec<VersionPtr<T>>> {
        self.versions(&Request::Dnext { vid: vp.vid() })
    }

    /// `Tprevious`: the version created immediately before `vp`.
    pub fn tprevious<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<Option<VersionPtr<T>>> {
        self.maybe_version(&Request::Tprevious { vid: vp.vid() })
    }

    /// `Tnext`: the version created immediately after `vp`.
    pub fn tnext<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<Option<VersionPtr<T>>> {
        self.maybe_version(&Request::Tnext { vid: vp.vid() })
    }

    /// All versions of an object in temporal (creation) order.
    pub fn version_history<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<Vec<VersionPtr<T>>> {
        self.versions(&Request::VersionHistory { oid: ptr.oid() })
    }

    /// Pin the object's current latest version.
    pub fn current_version<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<VersionPtr<T>> {
        match self.call(&Request::CurrentVersion { oid: ptr.oid() })? {
            Response::Version(vid) => Ok(VersionPtr::from_vid(vid)),
            other => Err(unexpected("version", &other)),
        }
    }

    /// The object a version belongs to.
    pub fn object_of<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<ObjPtr<T>> {
        match self.call(&Request::ObjectOf { vid: vp.vid() })? {
            Response::Object(oid) => Ok(ObjPtr::from_oid(oid)),
            other => Err(unexpected("object", &other)),
        }
    }

    /// Extent query: every live object of type `T` on the server.
    pub fn objects<T: OdeType>(&mut self) -> Result<Vec<ObjPtr<T>>> {
        match self.call(&Request::Objects {
            tag: ObjPtr::<T>::tag(),
        })? {
            Response::Objects(oids) => Ok(oids.into_iter().map(ObjPtr::from_oid).collect()),
            other => Err(unexpected("objects", &other)),
        }
    }

    /// A page of the type's extent: up to `limit` objects with ids
    /// `>= after` (pass [`Oid::NULL`] to start).
    pub fn objects_page<T: OdeType>(&mut self, after: Oid, limit: u64) -> Result<Vec<ObjPtr<T>>> {
        match self.call(&Request::ObjectsPage {
            tag: ObjPtr::<T>::tag(),
            after,
            limit,
        })? {
            Response::Objects(oids) => Ok(oids.into_iter().map(ObjPtr::from_oid).collect()),
            other => Err(unexpected("objects", &other)),
        }
    }

    /// Number of live versions of an object.
    pub fn version_count<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<u64> {
        match self.call(&Request::VersionCount { oid: ptr.oid() })? {
            Response::Count(n) => Ok(n),
            other => Err(unexpected("count", &other)),
        }
    }

    /// Whether the object still exists.
    pub fn exists<T: OdeType>(&mut self, ptr: &ObjPtr<T>) -> Result<bool> {
        match self.call(&Request::Exists { oid: ptr.oid() })? {
            Response::Flag(b) => Ok(b),
            other => Err(unexpected("flag", &other)),
        }
    }

    /// Whether the version still exists.
    pub fn version_exists<T: OdeType>(&mut self, vp: &VersionPtr<T>) -> Result<bool> {
        match self.call(&Request::VersionExists { vid: vp.vid() })? {
            Response::Flag(b) => Ok(b),
            other => Err(unexpected("flag", &other)),
        }
    }

    /// All versions of an object whose global stamp lies in
    /// `from..=to`, oldest first — served from the object's delta chain
    /// when it has one, without materializing any bodies.
    pub fn history_between<T: OdeType>(
        &mut self,
        ptr: &ObjPtr<T>,
        from: u64,
        to: u64,
    ) -> Result<Vec<VersionPtr<T>>> {
        self.versions(&Request::HistoryBetween {
            oid: ptr.oid(),
            from,
            to,
        })
    }

    /// Summary of the byte difference between two versions of the same
    /// object (how much changed, and how compactly it deltas) — the
    /// [`VersionDiff`] a local snapshot's `diff_versions` returns.
    pub fn diff_versions<T: OdeType>(
        &mut self,
        from: &VersionPtr<T>,
        to: &VersionPtr<T>,
    ) -> Result<VersionDiff> {
        match self.call(&Request::DiffVersions {
            from: from.vid(),
            to: to.vid(),
        })? {
            Response::Diff(d) => Ok(d),
            other => Err(unexpected("diff", &other)),
        }
    }

    /// Three-way merge two versions of one object on the server; the
    /// result (when the policy resolves) is checked in as a new version
    /// with both parents recorded. Returns the new version, if any,
    /// plus every conflicting byte range.
    pub fn merge<T: OdeType>(
        &mut self,
        a: &VersionPtr<T>,
        b: &VersionPtr<T>,
        policy: MergePolicy,
    ) -> Result<(Option<VersionPtr<T>>, Vec<MergeConflict>)> {
        let (vid, conflicts) = self.merge_raw(a.vid(), b.vid(), policy)?;
        Ok((vid.map(VersionPtr::from_vid), conflicts))
    }

    // -- raw (type-erased) operations ---------------------------------------

    /// Type-erased [`merge`](Self::merge).
    pub fn merge_raw(
        &mut self,
        a: Vid,
        b: Vid,
        policy: MergePolicy,
    ) -> Result<(Option<Vid>, Vec<MergeConflict>)> {
        match self.call(&Request::Merge { a, b, policy })? {
            Response::Merged { vid, conflicts } => Ok((vid, conflicts)),
            other => Err(unexpected("merged", &other)),
        }
    }

    /// Type-erased `pnew` from an already-encoded body.
    pub fn pnew_raw(&mut self, tag: TypeTag, body: Vec<u8>) -> Result<(Oid, Vid)> {
        match self.call(&Request::Pnew { tag, body })? {
            Response::Created { oid, vid } => Ok((oid, vid)),
            other => Err(unexpected("created", &other)),
        }
    }

    /// Type-erased `deref`: the latest version id and encoded body.
    pub fn deref_raw(&mut self, oid: Oid, tag: TypeTag) -> Result<(Vid, Vec<u8>)> {
        match self.call(&Request::Deref { oid, tag })? {
            Response::Body { vid, bytes } => Ok((vid, bytes)),
            other => Err(unexpected("body", &other)),
        }
    }

    fn maybe_version<T>(&mut self, request: &Request) -> Result<Option<VersionPtr<T>>> {
        match self.call(request)? {
            Response::MaybeVersion(vid) => Ok(vid.map(VersionPtr::from_vid)),
            other => Err(unexpected("maybe_version", &other)),
        }
    }

    fn versions<T>(&mut self, request: &Request) -> Result<Vec<VersionPtr<T>>> {
        match self.call(request)? {
            Response::Versions(vids) => Ok(vids.into_iter().map(VersionPtr::from_vid).collect()),
            other => Err(unexpected("versions", &other)),
        }
    }
}

/// A batch of requests kept in flight together on one [`OdeClient`]
/// connection.
///
/// [`push`](Pipeline::push) buffers requests without waiting;
/// [`run`](Pipeline::run) flushes them as one write and collects every
/// response, returned in **request order** regardless of the order the
/// server answered. Nothing in a pipeline is ever retried — the first
/// failure surfaces immediately and abandons the rest of the batch
/// (their outcomes, like any failed write's, are unknown).
/// [`run_each`](Pipeline::run_each) collects a result *per request*
/// instead, so one bad response frame cannot poison its siblings.
pub struct Pipeline<'a> {
    client: &'a mut OdeClient,
    seqs: Vec<u64>,
}

impl Pipeline<'_> {
    /// Queue one request; returns its sequence id.
    pub fn push(&mut self, request: &Request) -> Result<u64> {
        let seq = self.client.send(request)?;
        self.seqs.push(seq);
        Ok(seq)
    }

    /// Number of requests queued so far.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the batch is still empty.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Collect every queued response, in the order the requests were
    /// pushed. The first failure wins and the remaining results are
    /// dropped (a response that would not decode only fails its own
    /// request — the connection survives, and siblings stay
    /// collectable via [`OdeClient::recv_for`] when collected through
    /// [`Pipeline::run_each`] instead).
    pub fn run(self) -> Result<Vec<Response>> {
        let mut responses = Vec::with_capacity(self.seqs.len());
        for seq in self.seqs {
            responses.push(self.client.recv_for(seq)?);
        }
        Ok(responses)
    }

    /// Collect a result per queued request, in the order the requests
    /// were pushed. One request's failure (an error frame that would
    /// not decode, a response of the wrong shape) is confined to its
    /// own slot; siblings before *and after* it in the batch still get
    /// their responses. Connection-level failures (the socket dying
    /// mid-batch) still fail every not-yet-collected slot, because
    /// their responses can no longer arrive.
    pub fn run_each(self) -> Vec<Result<Response>> {
        let Pipeline { client, seqs } = self;
        seqs.into_iter().map(|seq| client.recv_for(seq)).collect()
    }
}

/// Fold an error frame into [`NetError::Remote`]; anything else of the
/// wrong shape is a protocol violation.
fn unexpected(wanted: &str, got: &Response) -> NetError {
    match got {
        Response::Err(e) => NetError::Remote(e.clone()),
        other => NetError::Protocol(format!(
            "expected a {wanted} response, got {}",
            other.kind_name()
        )),
    }
}
