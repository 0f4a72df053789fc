//! Session-scaling test for the router: many more client sessions than
//! router threads, every one of them served, at a **constant thread
//! count** — a session costs sockets and buffers, never a thread.
//!
//! Run alone in its binary: the assertion counts the process's
//! threads, so concurrent sibling tests would pollute it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ode::{Database, DatabaseOptions, Oid, TypeTag};
use ode_net::protocol::{read_frame_into, write_frame, MAGIC};
use ode_net::{
    OdeRouter, OdeServer, RemoteError, Request, Response, RouterConfig, ServerConfig, ShardMap,
};
use ode_storage::testutil::TempPath;

/// This process's live thread count, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// A raw handshaken session with the router.
struct RawSession(TcpStream);

impl RawSession {
    fn open(addr: SocketAddr) -> RawSession {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream.write_all(&MAGIC).expect("magic");
        let mut echo = [0u8; 4];
        stream.read_exact(&mut echo).expect("handshake echo");
        assert_eq!(echo, MAGIC);
        RawSession(stream)
    }

    fn call(&mut self, seq: u64, request: &Request) -> Response {
        let mut frame = Vec::new();
        write_frame(&mut frame, &request.encode(seq)).expect("request frame");
        self.0.write_all(&frame).expect("send request");
        let mut payload = Vec::new();
        assert!(
            read_frame_into(&mut self.0, &mut payload).expect("response frame"),
            "the router closed the session"
        );
        let (got, response) = Response::decode(&payload).expect("response");
        assert_eq!(got, seq);
        response
    }

    /// A `Ping` the router answers itself, then a `Deref` that only
    /// `oid`'s shard can answer (it never issued the id).
    fn serve(&mut self, oid: Oid) {
        assert_eq!(self.call(1, &Request::Ping), Response::Pong);
        let tag = TypeTag(0x5CA1);
        match self.call(2, &Request::Deref { oid, tag }) {
            Response::Err(RemoteError::UnknownObject(got)) => assert_eq!(got, oid),
            other => panic!("deref of {oid:?} answered {other:?}"),
        }
    }
}

#[test]
fn two_hundred_sessions_cost_the_router_no_threads() {
    // 200 sessions hold 4 fds each in this process: client, router
    // side, router-to-shard, shard side.
    polling::raise_nofile_limit().expect("raise RLIMIT_NOFILE");

    let paths = [TempPath::new(), TempPath::new()];
    let shards: Vec<OdeServer> = paths
        .iter()
        .map(|path| {
            let db = Arc::new(Database::create(path, DatabaseOptions::no_sync()).expect("db"));
            OdeServer::bind(db, "127.0.0.1:0", ServerConfig::default()).expect("shard")
        })
        .collect();
    let backends = shards.iter().map(OdeServer::local_addr).collect();
    let router = OdeRouter::bind("127.0.0.1:0", backends, RouterConfig::default()).expect("router");
    let map = ShardMap::new(2);

    // Session `i` derefs an id of shard `i % 2`.
    let oid = |i: u64| Oid(1000 + i);
    assert_eq!(map.shard_of(oid(0)), 0);
    assert_eq!(map.shard_of(oid(1)), 1);

    const SESSIONS: u64 = 200;
    let mut sessions = vec![RawSession::open(router.local_addr())];
    sessions[0].serve(oid(0));
    let after_first = thread_count();
    for i in 1..SESSIONS {
        let mut session = RawSession::open(router.local_addr());
        session.serve(oid(i));
        sessions.push(session);
    }
    let after_all = thread_count();
    assert!(
        after_all <= after_first + 2,
        "{SESSIONS} sessions took {after_all} threads, one took {after_first}"
    );
    assert_eq!(router.stats().client_connections, SESSIONS);
    assert_eq!(router.stats().backend_connects, SESSIONS);

    // The first session is still served after the last one opened.
    sessions[0].serve(oid(2));
    drop(sessions);
    router.shutdown();
}
