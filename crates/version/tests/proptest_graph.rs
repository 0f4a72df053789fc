//! Property test: random operation sequences against an in-memory model.
//!
//! The model tracks, per object, the temporal order (a `Vec<Vid>`), each
//! version's body and derivation parent.  After every operation the
//! store must agree with the model *and* pass the structural invariant
//! checker.  The store chains at anchor interval 1, 2, 4 or 16: at the
//! small intervals a 120-operation sequence seals segment after
//! segment, so forks, edits and deletes land on anchors, inside sealed
//! segments and on the open one.

use std::collections::HashMap;

use ode_codec::TypeTag;
use ode_storage::{Store, StoreOptions};
use ode_version::{ChainConfig, Oid, VersionStore, VersionStoreLayout, Vid};
use proptest::prelude::*;

const TAG: TypeTag = TypeTag::from_name("prop/Obj");

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    /// Derive from the version at (object pick, version pick).
    NewVersion(u8, u8),
    Update(u8, u8, u8),
    DeleteVersion(u8, u8),
    DeleteObject(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => any::<u8>().prop_map(Op::Create),
        4 => (any::<u8>(), any::<u8>()).prop_map(|(o, v)| Op::NewVersion(o, v)),
        3 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(o, v, b)| Op::Update(o, v, b)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(o, v)| Op::DeleteVersion(o, v)),
        1 => any::<u8>().prop_map(Op::DeleteObject),
    ]
}

#[derive(Debug, Default, Clone)]
struct ModelObject {
    /// Temporal order, oldest first.
    history: Vec<Vid>,
    body: HashMap<Vid, Vec<u8>>,
    parent: HashMap<Vid, Option<Vid>>,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn store_matches_model(
        ops in proptest::collection::vec(arb_op(), 1..120),
        interval in prop_oneof![Just(1u64), Just(2), Just(4), Just(16)],
        seed: u64,
    ) {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "ode-vprop-{seed}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut wal = path.clone().into_os_string();
        wal.push(".wal");
        let wal = std::path::PathBuf::from(wal);
        let _ = std::fs::remove_file(&wal);

        let store = Store::create(&path, StoreOptions::default()).unwrap();
        let vs = VersionStore::with_chain(
            VersionStoreLayout::default(),
            ChainConfig::with_interval(interval),
        );
        let mut tx = store.begin();
        let mut model: HashMap<Oid, ModelObject> = HashMap::new();
        let mut oids: Vec<Oid> = Vec::new();

        for op in ops {
            match op {
                Op::Create(b) => {
                    let (oid, vid) = vs.create_object(&mut tx, TAG, vec![b]).unwrap();
                    let mut m = ModelObject::default();
                    m.history.push(vid);
                    m.body.insert(vid, vec![b]);
                    m.parent.insert(vid, None);
                    model.insert(oid, m);
                    oids.push(oid);
                }
                Op::NewVersion(o, v) => {
                    if oids.is_empty() { continue; }
                    let oid = oids[o as usize % oids.len()];
                    let m = model.get_mut(&oid).unwrap();
                    let base = m.history[v as usize % m.history.len()];
                    let vid = vs.new_version_from(&mut tx, base).unwrap();
                    m.history.push(vid);
                    let body = m.body[&base].clone();
                    m.body.insert(vid, body);
                    m.parent.insert(vid, Some(base));
                }
                Op::Update(o, v, b) => {
                    if oids.is_empty() { continue; }
                    let oid = oids[o as usize % oids.len()];
                    let m = model.get_mut(&oid).unwrap();
                    let vid = m.history[v as usize % m.history.len()];
                    vs.write_body(&mut tx, vid, TAG, vec![b, b]).unwrap();
                    m.body.insert(vid, vec![b, b]);
                }
                Op::DeleteVersion(o, v) => {
                    if oids.is_empty() { continue; }
                    let oid = oids[o as usize % oids.len()];
                    let m = model.get_mut(&oid).unwrap();
                    if m.history.len() <= 1 { continue; }
                    let vid = m.history[v as usize % m.history.len()];
                    vs.delete_version(&mut tx, vid).unwrap();
                    m.history.retain(|&x| x != vid);
                    m.body.remove(&vid);
                    let parent = m.parent.remove(&vid).unwrap();
                    for p in m.parent.values_mut() {
                        if *p == Some(vid) {
                            *p = parent;
                        }
                    }
                }
                Op::DeleteObject(o) => {
                    if oids.is_empty() { continue; }
                    let idx = o as usize % oids.len();
                    let oid = oids.remove(idx);
                    vs.delete_object(&mut tx, oid).unwrap();
                    model.remove(&oid);
                }
            }

            // Full agreement check after every operation.
            for (&oid, m) in &model {
                prop_assert_eq!(vs.version_history(&mut tx, oid).unwrap(), m.history.clone());
                prop_assert_eq!(
                    vs.latest(&mut tx, oid).unwrap(),
                    *m.history.last().unwrap()
                );
                for &vid in &m.history {
                    prop_assert_eq!(
                        &vs.read_body(&mut tx, vid, TAG).unwrap(),
                        &m.body[&vid]
                    );
                    prop_assert_eq!(
                        vs.dprevious(&mut tx, vid).unwrap(),
                        m.parent[&vid]
                    );
                }
                vs.check_object(&mut tx, oid).unwrap();
            }
        }
        tx.commit().unwrap();
        drop(store);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
    }
}
