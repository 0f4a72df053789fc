//! Subscriber-scaling test for the primary: a replica subscribed on
//! the data port costs it no thread — 0, 1 and 4 raw subscribers, each
//! caught up on a commit, leave the process at one thread count.
//!
//! Run alone in its binary: the assertion counts the process's
//! threads, so concurrent sibling tests would pollute it.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ode::{Database, DatabaseOptions, TypeTag};
use ode_net::protocol::{read_frame_into, write_frame, MAGIC};
use ode_net::{OdeServer, Request, Response, ServerConfig};
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

/// A subscription read by this thread: it follows the stream's
/// positions and acks each step, without applying anything.
struct RawSubscriber {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Logical log position the stream has delivered through.
    pos: u64,
    /// Snapshot bytes received toward the current snapshot.
    parts: u64,
}

impl RawSubscriber {
    fn open(addr: SocketAddr) -> RawSubscriber {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(&MAGIC).expect("magic");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut echo = [0u8; 4];
        reader.read_exact(&mut echo).expect("echo");
        assert_eq!(echo, MAGIC);
        let subscribe = Request::Subscribe {
            gen: 0,
            have_pos: u64::MAX,
            have_epoch: 0,
        };
        write_frame(&mut stream, &subscribe.encode(1)).expect("subscribe");
        RawSubscriber {
            stream,
            reader,
            pos: u64::MAX,
            parts: 0,
        }
    }

    /// Read the stream until it has delivered the log through `target`.
    fn catch_up(&mut self, target: u64) {
        let mut payload = Vec::new();
        while self.pos == u64::MAX || self.pos < target {
            assert!(
                read_frame_into(&mut self.reader, &mut payload).expect("stream frame"),
                "the primary ended the subscription"
            );
            let (seq, frame) = Response::decode(&payload).expect("stream response");
            assert_eq!(seq, 1, "the stream rides the Subscribe's seq");
            let epoch = match frame {
                Response::SnapshotPart {
                    base_pos,
                    epoch,
                    total,
                    bytes,
                    ..
                } => {
                    self.parts += bytes.len() as u64;
                    if self.parts < total {
                        continue;
                    }
                    self.parts = 0;
                    self.pos = base_pos;
                    epoch
                }
                Response::Chunk { start_pos, bytes } => {
                    assert_eq!(start_pos, self.pos, "chunks follow on");
                    self.pos += bytes.len() as u64;
                    0
                }
                other => panic!("unexpected {other:?}"),
            };
            let ack = Request::Ack {
                pos: self.pos,
                epoch,
            };
            write_frame(&mut self.stream, &ack.encode(0)).expect("ack");
        }
    }
}

#[test]
fn subscribers_cost_the_primary_no_threads() {
    let path = TempPath::new();
    let db = Arc::new(Database::create(&path, DatabaseOptions::no_sync()).expect("db"));
    let server =
        OdeServer::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).expect("primary");
    let commit = || {
        let mut txn = db.begin();
        txn.pnew_raw(TypeTag(0x5CA1), vec![7; 64]).expect("pnew");
        txn.commit().expect("commit");
    };

    let mut subscribers: Vec<RawSubscriber> = Vec::new();
    let mut counts = Vec::new();
    for attached in [0, 1, 4] {
        while subscribers.len() < attached {
            subscribers.push(RawSubscriber::open(server.local_addr()));
        }
        commit();
        for subscriber in &mut subscribers {
            subscriber.catch_up(db.shippable());
        }
        assert_eq!(server.replica_count(), attached);
        counts.push((attached, thread_count()));
    }
    assert!(
        counts.iter().all(|&(_, n)| n == counts[0].1),
        "thread counts by subscribers attached: {counts:?}"
    );
    drop(subscribers);
    server.shutdown();
}
