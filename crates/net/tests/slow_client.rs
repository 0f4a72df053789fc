//! Slow-client backpressure: a client that drains its responses a
//! byte at a time (then not at all) while megabytes are queued for it
//! must not stall anyone else — its responses pile up in its own
//! per-connection write buffer until the buffer crosses
//! [`ServerConfig::write_buffer_cap`], at which point the server
//! evicts exactly that connection (counted in
//! `StatsReport::slow_client_evictions`) and everyone else never
//! notices.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ode::{Database, DatabaseOptions, TypeTag};
use ode_net::protocol::{write_frame, Response, MAGIC};
use ode_net::{ClientConfig, OdeClient, OdeServer, Request, ServerConfig};
use ode_storage::testutil::TempPath;

#[test]
fn a_slow_reader_is_evicted_at_the_write_buffer_cap_without_stalling_others() {
    let path = TempPath::new();
    let db = Arc::new(Database::create(&path, DatabaseOptions::no_sync()).expect("db"));
    let config = ServerConfig {
        workers: 2,
        // Small enough that the pipelined responses below must blow
        // through it even after the kernel's socket buffers fill.
        write_buffer_cap: 1 << 20,
        ..ServerConfig::default()
    };
    let server = OdeServer::bind(db, "127.0.0.1:0", config).expect("server");
    let addr = server.local_addr();

    // Seed one fat object (256 KiB) and one small one.
    let fat_tag = TypeTag(0xFA7);
    let small_tag = TypeTag(0x51);
    let mut seeder = OdeClient::connect(addr, ClientConfig::default()).expect("seeder");
    let (fat_oid, _) = seeder
        .pnew_raw(fat_tag, vec![0xAB; 256 << 10])
        .expect("fat");
    let (small_oid, _) = seeder
        .pnew_raw(small_tag, b"small".to_vec())
        .expect("small");

    // The slow client: pipeline 64 fat derefs (~16 MiB of responses),
    // then sip one byte every 10 ms before giving up reading entirely.
    let mut slow = TcpStream::connect(addr).expect("slow connect");
    slow.set_read_timeout(Some(Duration::from_secs(30))).ok();
    slow.write_all(&MAGIC).expect("magic");
    let mut echo = [0u8; 4];
    slow.read_exact(&mut echo).expect("echo");
    let mut burst = Vec::new();
    for seq in 0..64u64 {
        let payload = Request::Deref {
            oid: fat_oid,
            tag: fat_tag,
        }
        .encode(seq);
        write_frame(&mut burst, &payload).expect("frame");
    }
    slow.write_all(&burst).expect("send burst");
    let mut byte = [0u8; 1];
    for _ in 0..30 {
        slow.read_exact(&mut byte).expect("a slow sip");
        thread::sleep(Duration::from_millis(10));
    }
    // ...and now it stops reading altogether.

    // Meanwhile a fast client on the same server must sail through.
    let fast = thread::spawn(move || {
        let mut c = OdeClient::connect(addr, ClientConfig::default()).expect("fast");
        let started = Instant::now();
        for _ in 0..50 {
            let mut pipe = c.pipeline();
            for _ in 0..8 {
                pipe.push(&Request::Deref {
                    oid: small_oid,
                    tag: small_tag,
                })
                .expect("push");
            }
            for r in pipe.run().expect("fast batch") {
                assert!(matches!(r, Response::Body { .. }), "got {r:?}");
            }
        }
        started.elapsed()
    });
    let fast_elapsed = fast.join().expect("fast client");
    assert!(
        fast_elapsed < Duration::from_secs(10),
        "fast client stalled behind the slow one: {fast_elapsed:?}"
    );

    // The slow connection crosses the cap and is evicted — exactly
    // once, and visible in the stats.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let evictions = server.stats().slow_client_evictions;
        if evictions == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never evicted the slow client (evictions: {evictions})"
        );
        thread::sleep(Duration::from_millis(20));
    }

    // The evicted connection is closed cleanly from the server side:
    // draining it ends in EOF, not a hang.
    let mut sink = [0u8; 64 << 10];
    loop {
        match slow.read(&mut sink) {
            Ok(0) => break, // EOF — the eviction's clean shutdown
            Ok(_) => {}
            Err(e) => panic!("expected EOF after eviction, got {e}"),
        }
    }

    // Nobody else was touched.
    let stats = seeder.stats().expect("stats");
    assert_eq!(stats.slow_client_evictions, 1);
    server.shutdown();
}
