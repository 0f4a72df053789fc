//! The blocking Ode client.
//!
//! [`OdeClient`] speaks the wire protocol over one reused TCP
//! connection. It is a raw backend of the O++ surface: it implements
//! [`RawRead`] and [`RawWrite`], each method one request and one
//! response match. The typed API is [`ode::Session`] over a client,
//! the same code an embedded [`ode::Txn`] runs: values are encoded and
//! decoded locally with [`ode_codec`], references are the embedded
//! API's own [`ode::ObjPtr`] and [`ode::VersionPtr`], and results come
//! back in the embedded shapes.
//!
//! The connection is a **pipeline**: every request carries a
//! client-assigned sequence id and the server may answer out of order,
//! so [`OdeClient::send`] / [`OdeClient::recv`] keep any number of
//! requests in flight, with [`OdeClient::pipeline`] batching a whole
//! group in one flush. The raw methods are all one-request
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

use ode::{MergeConflict, MergePolicy, Oid, RawRead, RawWrite, TypeTag, VersionDiff, Vid};
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
/// Wrapped in an [`ode::Session`], it offers the typed O++ surface of
/// an embedded [`ode::Txn`], with the same pointer types, so an
/// [`ode::ObjPtr`] or [`ode::VersionPtr`] obtained here also
/// dereferences in a local transaction on the same database, and the
/// other way round. Each write commits on its own.
///
/// ```no_run
/// use ode::{ObjPtr, Session, VersionPtr};
/// use ode_codec::{impl_persist_struct, impl_type_name};
/// use ode_net::{ClientConfig, OdeClient};
///
/// struct Part { name: String, weight: u32 }
/// impl_persist_struct!(Part { name, weight });
/// impl_type_name!(Part = "demo/Part");
///
/// # fn main() -> ode_net::Result<()> {
/// let client = OdeClient::connect("127.0.0.1:4807", ClientConfig::default())?;
/// let mut s = Session::new(client);
/// let p: ObjPtr<Part> = s.pnew(&Part { name: "alu".into(), weight: 7 })?;
/// let v0: VersionPtr<Part> = s.current_version(&p)?;
/// s.newversion(&p)?;
/// s.put(&p, &Part { name: "alu".into(), weight: 9 })?;
/// assert_eq!(s.deref(&p)?.weight, 9); // generic ref: latest
/// assert_eq!(s.deref_v(&v0)?.weight, 7); // specific ref: pinned
/// s.raw().ping()?; // the client's own methods
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

    /// Type-erased `pnew` from an already-encoded body:
    /// [`RawWrite::pnew_raw`], kept callable without importing the
    /// trait because the `odebench` benchmark calls it by name. It stays
    /// until the benchmark imports the trait.
    pub fn pnew_raw(&mut self, tag: TypeTag, body: Vec<u8>) -> Result<(Oid, Vid)> {
        <OdeClient as RawWrite>::pnew_raw(self, tag, body)
    }
}

/// Each wire read row is one request and one response match.
impl RawRead for OdeClient {
    type Error = NetError;

    fn deref_raw(&mut self, oid: Oid, tag: TypeTag) -> Result<(Vid, Vec<u8>)> {
        match self.call(&Request::Deref { oid, tag })? {
            Response::Body { vid, bytes } => Ok((vid, bytes)),
            other => Err(unexpected("body", &other)),
        }
    }

    fn deref_version_raw(&mut self, vid: Vid, tag: TypeTag) -> Result<Vec<u8>> {
        match self.call(&Request::DerefVersion { vid, tag })? {
            Response::Body { bytes, .. } => Ok(bytes),
            other => Err(unexpected("body", &other)),
        }
    }

    fn dprevious_raw(&mut self, vid: Vid) -> Result<Option<Vid>> {
        match self.call(&Request::Dprevious { vid })? {
            Response::MaybeVersion(vid) => Ok(vid),
            other => Err(unexpected("maybe_version", &other)),
        }
    }

    fn dnext_raw(&mut self, vid: Vid) -> Result<Vec<Vid>> {
        match self.call(&Request::Dnext { vid })? {
            Response::Versions(vids) => Ok(vids),
            other => Err(unexpected("versions", &other)),
        }
    }

    fn tprevious_raw(&mut self, vid: Vid) -> Result<Option<Vid>> {
        match self.call(&Request::Tprevious { vid })? {
            Response::MaybeVersion(vid) => Ok(vid),
            other => Err(unexpected("maybe_version", &other)),
        }
    }

    fn tnext_raw(&mut self, vid: Vid) -> Result<Option<Vid>> {
        match self.call(&Request::Tnext { vid })? {
            Response::MaybeVersion(vid) => Ok(vid),
            other => Err(unexpected("maybe_version", &other)),
        }
    }

    fn version_history_raw(&mut self, oid: Oid) -> Result<Vec<Vid>> {
        match self.call(&Request::VersionHistory { oid })? {
            Response::Versions(vids) => Ok(vids),
            other => Err(unexpected("versions", &other)),
        }
    }

    fn latest_raw(&mut self, oid: Oid) -> Result<Vid> {
        match self.call(&Request::CurrentVersion { oid })? {
            Response::Version(vid) => Ok(vid),
            other => Err(unexpected("version", &other)),
        }
    }

    fn objects_raw(&mut self, tag: TypeTag) -> Result<Vec<Oid>> {
        match self.call(&Request::Objects { tag })? {
            Response::Objects(oids) => Ok(oids),
            other => Err(unexpected("objects", &other)),
        }
    }

    fn objects_page_raw(&mut self, tag: TypeTag, after: Oid, limit: usize) -> Result<Vec<Oid>> {
        let limit = limit as u64;
        match self.call(&Request::ObjectsPage { tag, after, limit })? {
            Response::Objects(oids) => Ok(oids),
            other => Err(unexpected("objects", &other)),
        }
    }

    fn object_of_raw(&mut self, vid: Vid) -> Result<Oid> {
        match self.call(&Request::ObjectOf { vid })? {
            Response::Object(oid) => Ok(oid),
            other => Err(unexpected("object", &other)),
        }
    }

    fn version_count_raw(&mut self, oid: Oid) -> Result<u64> {
        match self.call(&Request::VersionCount { oid })? {
            Response::Count(n) => Ok(n),
            other => Err(unexpected("count", &other)),
        }
    }

    fn exists_raw(&mut self, oid: Oid) -> Result<bool> {
        match self.call(&Request::Exists { oid })? {
            Response::Flag(b) => Ok(b),
            other => Err(unexpected("flag", &other)),
        }
    }

    fn version_exists_raw(&mut self, vid: Vid) -> Result<bool> {
        match self.call(&Request::VersionExists { vid })? {
            Response::Flag(b) => Ok(b),
            other => Err(unexpected("flag", &other)),
        }
    }

    fn history_between_raw(&mut self, oid: Oid, from: u64, to: u64) -> Result<Vec<Vid>> {
        match self.call(&Request::HistoryBetween { oid, from, to })? {
            Response::Versions(vids) => Ok(vids),
            other => Err(unexpected("versions", &other)),
        }
    }

    fn diff_versions_raw(&mut self, from: Vid, to: Vid) -> Result<VersionDiff> {
        match self.call(&Request::DiffVersions { from, to })? {
            Response::Diff(d) => Ok(d),
            other => Err(unexpected("diff", &other)),
        }
    }
}

/// Each wire write row is one request, committed on its own by the
/// server, and one response match.
impl RawWrite for OdeClient {
    fn pnew_raw(&mut self, tag: TypeTag, body: Vec<u8>) -> Result<(Oid, Vid)> {
        match self.call(&Request::Pnew { tag, body })? {
            Response::Created { oid, vid } => Ok((oid, vid)),
            other => Err(unexpected("created", &other)),
        }
    }

    fn put_raw(&mut self, oid: Oid, tag: TypeTag, body: Vec<u8>) -> Result<Vid> {
        match self.call(&Request::Update { oid, tag, body })? {
            Response::Version(vid) => Ok(vid),
            other => Err(unexpected("version", &other)),
        }
    }

    fn put_version_raw(&mut self, vid: Vid, tag: TypeTag, body: Vec<u8>) -> Result<()> {
        match self.call(&Request::UpdateVersion { vid, tag, body })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("unit", &other)),
        }
    }

    fn newversion_raw(&mut self, oid: Oid) -> Result<Vid> {
        match self.call(&Request::NewVersion { oid })? {
            Response::Version(vid) => Ok(vid),
            other => Err(unexpected("version", &other)),
        }
    }

    fn newversion_from_raw(&mut self, vid: Vid) -> Result<Vid> {
        match self.call(&Request::NewVersionFrom { vid })? {
            Response::Version(vid) => Ok(vid),
            other => Err(unexpected("version", &other)),
        }
    }

    fn pdelete_raw(&mut self, oid: Oid) -> Result<()> {
        match self.call(&Request::Pdelete { oid })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("unit", &other)),
        }
    }

    fn pdelete_version_raw(&mut self, vid: Vid) -> Result<()> {
        match self.call(&Request::PdeleteVersion { vid })? {
            Response::Unit => Ok(()),
            other => Err(unexpected("unit", &other)),
        }
    }

    fn merge_raw(
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
