//! Robustness of the event-loop server's per-connection state machine:
//! a connection feeding the server arbitrary garbage after the
//! handshake must never take the server down — a fresh connection
//! afterwards always gets its Pong.
//!
//! (The differential property — the event loop against the same
//! requests applied in stream order to an in-process database — lives
//! with the server, in `server::tests`, because its model calls the
//! crate-private `apply`.)

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use ode::{Database, DatabaseOptions};
use ode_net::protocol::MAGIC;
use ode_net::{ClientConfig, OdeClient, OdeServer, ServerConfig};
use ode_storage::testutil::TempPath;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Garbage after a valid handshake must never crash or wedge the
    /// server: the offending connection dies (or is ignored), and a
    /// fresh client still gets service.
    #[test]
    fn garbage_bytes_never_panic_the_server(garbage in proptest::collection::vec(any::<u8>(), 1..512)) {
        let path = TempPath::new();
        let db = Arc::new(Database::create(&path, DatabaseOptions::no_sync()).expect("db"));
        let server =
            OdeServer::bind(db, "127.0.0.1:0", ServerConfig::default()).expect("server");

        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&MAGIC).expect("magic");
        let mut echo = [0u8; 4];
        stream.read_exact(&mut echo).expect("echo");
        // Hostile payload: whatever proptest dreamed up, then hang up.
        let _ = stream.write_all(&garbage);
        drop(stream);

        let mut c =
            OdeClient::connect(server.local_addr(), ClientConfig::default()).expect("fresh client");
        c.ping().expect("server must still answer after garbage");
        server.shutdown();
    }
}
