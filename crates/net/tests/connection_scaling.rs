//! Connection-scaling smoke test: the event-loop server must hold a
//! thousand idle sessions at a **constant thread count** (no
//! thread-per-connection anywhere) while eight active clients pump
//! pipelined work through it — and the idle sessions must stay
//! responsive the whole time.
//!
//! Run alone in its binary: the assertion counts the process's
//! threads, so concurrent sibling tests would pollute it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ode::{Database, DatabaseOptions, TypeTag};
use ode_net::protocol::{read_frame_into, write_frame, Response, MAGIC};
use ode_net::{ClientConfig, OdeClient, OdeServer, Request, ServerConfig};
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

/// A raw handshaken connection that sends nothing until poked.
struct IdleConn(TcpStream);

impl IdleConn {
    fn open(addr: SocketAddr) -> IdleConn {
        let mut stream = TcpStream::connect(addr).expect("connect idle");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream.write_all(&MAGIC).expect("magic");
        let mut echo = [0u8; 4];
        stream.read_exact(&mut echo).expect("echo");
        assert_eq!(echo, MAGIC);
        IdleConn(stream)
    }

    /// One raw Ping round trip, proving the session still gets served.
    fn ping(&mut self, seq: u64) {
        let payload = Request::Ping.encode(seq);
        write_frame(&mut self.0, &payload).expect("ping frame");
        let mut response = Vec::new();
        assert!(
            read_frame_into(&mut self.0, &mut response).expect("pong frame"),
            "idle session was closed by the server"
        );
        let (got_seq, resp) = Response::decode(&response).expect("pong");
        assert_eq!(got_seq, seq);
        assert!(
            matches!(resp, Response::Pong),
            "expected Pong, got {resp:?}"
        );
    }
}

#[test]
fn a_thousand_idle_sessions_cost_no_threads_and_stay_responsive() {
    // CI runners commonly default to 1024 fds; 1000 sessions need
    // 2000 in this process (client + server end of each pair).
    polling::raise_nofile_limit().expect("raise RLIMIT_NOFILE");

    let path = TempPath::new();
    let db = Arc::new(Database::create(&path, DatabaseOptions::no_sync()).expect("db"));
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = OdeServer::bind(db, "127.0.0.1:0", config).expect("server");
    let addr = server.local_addr();

    let baseline = thread_count();

    const IDLE: usize = 1000;
    let mut idles: Vec<IdleConn> = (0..IDLE).map(|_| IdleConn::open(addr)).collect();
    assert_eq!(server.stats().active_connections, IDLE as u64);
    assert_eq!(
        thread_count(),
        baseline,
        "idle connections must not cost threads"
    );

    // Eight active clients hammer pipelined batches through the same
    // loop the idle thousand are parked on.
    const ACTIVE: usize = 8;
    const BATCHES: usize = 20;
    const BATCH: usize = 32;
    let tag = TypeTag(0xBEEF);
    let workers: Vec<_> = (0..ACTIVE)
        .map(|who| {
            thread::spawn(move || {
                let mut c = OdeClient::connect(addr, ClientConfig::default()).expect("active");
                let (oid, _) = c
                    .pnew_raw(tag, format!("active-{who}").into_bytes())
                    .expect("pnew");
                for _ in 0..BATCHES {
                    let mut pipe = c.pipeline();
                    for _ in 0..BATCH {
                        pipe.push(&Request::Deref { oid, tag }).expect("push");
                    }
                    for r in pipe.run().expect("batch") {
                        assert!(matches!(r, Response::Body { .. }), "got {r:?}");
                    }
                }
            })
        })
        .collect();

    // While they work, sampled idle sessions still answer promptly.
    for i in (0..IDLE).step_by(100) {
        idles[i].ping(1);
    }
    for w in workers {
        w.join().expect("active client");
    }
    assert_eq!(
        server.stats().requests_for(ode_net::Opcode::Deref),
        (ACTIVE * BATCHES * BATCH) as u64,
        "every pipelined read must have completed"
    );

    // Still flat after the storm, and the idles are all still live.
    assert_eq!(
        thread_count(),
        baseline,
        "the active burst must not leave threads behind"
    );
    for i in (0..IDLE).step_by(250) {
        idles[i].ping(2);
    }
    drop(idles);
    server.shutdown();
}
