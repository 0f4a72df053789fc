//! Property test for the replica read gate: over arbitrary
//! interleavings of primary commits, replica WAL applies, and
//! floor-pinned reads, a read pinned at epoch E either waits until the
//! replica has applied E (and answers from ≥ E state) or fails
//! `Unavailable` — it never answers from state older than E.
//!
//! The replication transport is bypassed: the test drives the storage
//! tap directly (`read_wal_span` → `replica_ingest`), so the
//! interleaving is fully deterministic and single-threaded. The
//! epoch gate itself is exercised over the real wire (a replica-mode
//! `OdeServer` and an `OdeClient` pinning `ReadFloor`).

use std::sync::Arc;
use std::time::Duration;

use ode::{Database, DatabaseOptions, Session};
use ode_codec::{impl_persist_struct, impl_type_name};
use ode_net::{ClientConfig, NetError, OdeClient, OdeServer, RemoteError, ServerConfig};
use ode_storage::testutil::TempPath;
use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq)]
struct Counter {
    value: u64,
}
impl_persist_struct!(Counter { value });
impl_type_name!(Counter = "repl-gate/Counter");

/// One step of the interleaving.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Commit on the primary (the counter increments).
    Commit,
    /// Ship and apply the next available WAL span to the replica.
    Apply,
    /// Pin the floor at the primary's current epoch and read through
    /// the replica server.
    Read,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(Step::Commit),
            3 => Just(Step::Apply),
            2 => Just(Step::Read),
        ],
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn a_pinned_read_never_observes_pre_floor_state(steps in arb_steps()) {
        let ppath = TempPath::new();
        let rpath = TempPath::new();
        let primary = Database::create(&ppath, DatabaseOptions::no_sync()).unwrap();
        let replica = Arc::new(Database::create(&rpath, DatabaseOptions::no_sync()).unwrap());

        // The counter exists before the bootstrap snapshot, so the
        // replica always knows the object; only its value lags.
        let mut txn = primary.begin();
        let ptr = txn.pnew(&Counter { value: 0 }).unwrap();
        txn.commit().unwrap();
        let mut value = 0u64;

        let snap = primary.repl_snapshot().unwrap();
        replica
            .replica_install_snapshot(&snap.db_bytes, snap.base_pos, snap.epoch, snap.seed)
            .unwrap();
        let mut pos = snap.base_pos;

        // A short gate timeout keeps lagging reads cheap: the replica
        // can't catch up mid-wait in this single-threaded test, so a
        // too-low floor resolves to `Unavailable` after 30ms.
        let config = ServerConfig {
            replica: true,
            read_floor_timeout: Duration::from_millis(30),
            ..ServerConfig::default()
        };
        let server = OdeServer::bind(Arc::clone(&replica), "127.0.0.1:0", config).unwrap();
        let mut client =
            Session::new(OdeClient::connect(server.local_addr(), ClientConfig::default()).unwrap());

        for step in steps {
            match step {
                Step::Commit => {
                    value += 1;
                    let mut txn = primary.begin();
                    txn.update(&ptr, |c| c.value = value).unwrap();
                    txn.commit().unwrap();
                }
                Step::Apply => match primary.read_wal_span(pos, 1 << 20).unwrap() {
                    ode_storage::WalSpan::Data(bytes) => {
                        replica.replica_ingest(&bytes).unwrap();
                        pos += bytes.len() as u64;
                    }
                    ode_storage::WalSpan::AtEnd => {}
                    ode_storage::WalSpan::SnapshotNeeded => {
                        let snap = primary.repl_snapshot().unwrap();
                        replica
                            .replica_install_snapshot(&snap.db_bytes, snap.base_pos, snap.epoch, snap.seed)
                            .unwrap();
                        pos = snap.base_pos;
                    }
                },
                Step::Read => {
                    let floor = primary.snapshot_epoch();
                    let floor_value = value;
                    client.raw().read_floor(floor).unwrap();
                    match client.deref(&ptr) {
                        Ok(body) => prop_assert!(
                            body.value >= floor_value,
                            "gate leaked pre-floor state: read {} pinned at {}",
                            body.value,
                            floor_value,
                        ),
                        Err(NetError::Remote(RemoteError::Unavailable(_))) => {
                            // The replica genuinely lags the floor —
                            // refusing is the other legal outcome.
                            prop_assert!(replica.snapshot_epoch() < floor);
                        }
                        Err(other) => panic!("unexpected read outcome: {other:?}"),
                    }
                }
            }
        }

        server.shutdown();
    }
}
