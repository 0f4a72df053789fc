//! Cross-crate integration: core + policies + dms + delta chains working
//! against one database, exercising the full stack from the public API
//! down to pages on disk.

use ode::{Database, DatabaseOptions, ObjPtr};
use ode_codec::{impl_persist_struct, impl_type_name};
use ode_dms::{bootstrap, AluDesign, Cell};
use ode_policies::config::ConfigHandle;
use ode_policies::context::ContextHandle;
use ode_policies::environment::{EnvHandle, VersionState};
use ode_policies::notify::Notifier;

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    text: String,
}
impl_persist_struct!(Doc { text });
impl_type_name!(Doc = "integration/Doc");

struct TempDb {
    path: std::path::PathBuf,
}

impl TempDb {
    fn new(name: &str) -> TempDb {
        let mut path = std::env::temp_dir();
        path.push(format!("ode-int-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = path.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
        TempDb { path }
    }
    fn create(&self) -> Database {
        Database::create(&self.path, DatabaseOptions::default()).unwrap()
    }
    fn open(&self) -> Database {
        Database::open(&self.path, DatabaseOptions::default()).unwrap()
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        let mut wal = self.path.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
    }
}

/// A full design session: DMS design + environment + notifier + context,
/// all in one database, surviving reopen.
#[test]
fn full_design_session() {
    let tmp = TempDb::new("session");
    let (design_ptr, env, ctx) = {
        let db = tmp.create();
        let mut notifier = Notifier::new();
        notifier.watch_type::<ode_dms::SchematicData>(&db);

        let design = bootstrap(&db, "alu").unwrap();
        let mut txn = db.begin();
        let chip = design.chip(&mut txn).unwrap();

        // Track the initial schematic version and freeze it.
        let v0 = txn.current_version(&chip.schematic).unwrap();
        let env = EnvHandle::create(&mut txn, "milestones").unwrap();
        env.track(&mut txn, v0).unwrap();
        env.transition(&mut txn, v0, VersionState::Valid).unwrap();
        env.transition(&mut txn, v0, VersionState::Frozen).unwrap();

        // A context pinning the schematic to v0 for legacy tools.
        let ctx = ContextHandle::create(&mut txn, "legacy").unwrap();
        ctx.set_default(&mut txn, chip.schematic, v0).unwrap();

        // Evolve the design.
        design
            .revise_schematic(&mut txn, |s| {
                s.cells.push(Cell {
                    kind: "INV".into(),
                    x: 1,
                    y: 1,
                })
            })
            .unwrap();
        txn.commit().unwrap();

        // The notifier saw the schematic evolution (newversion+update).
        assert!(notifier.pending() >= 2);

        // Frozen version refuses guarded edits.
        let mut txn = db.begin();
        assert!(!env
            .update_guarded(&mut txn, v0, |s| s.cells.clear())
            .unwrap());
        // Context still resolves the pinned state.
        assert_eq!(
            ctx.resolve(&mut txn, chip.schematic).unwrap().cells.len(),
            4
        );
        // Live reference sees the evolution.
        assert_eq!(txn.deref(&chip.schematic).unwrap().cells.len(), 5);
        txn.commit().unwrap();
        (design.ptr, env.ptr(), ctx.ptr())
    };

    // Reopen: everything — design, environment, context — persists.
    let db = tmp.open();
    let design = AluDesign::attach(design_ptr);
    let env = EnvHandle::attach(env);
    let ctx = ContextHandle::attach(ctx);
    let mut txn = db.begin();
    let chip = design.chip(&mut txn).unwrap();
    let v0 = txn.version_history(&chip.schematic).unwrap()[0];
    assert_eq!(
        env.state_of(&mut txn, v0).unwrap(),
        Some(VersionState::Frozen)
    );
    assert_eq!(
        ctx.resolve(&mut txn, chip.schematic).unwrap().cells.len(),
        4
    );
    assert_eq!(txn.deref(&chip.schematic).unwrap().cells.len(), 5);
    txn.check_object(&chip.schematic).unwrap();
    txn.commit().unwrap();
}

/// Delta chains are how Ode stores history: every version but the
/// latest lives only in its object's segmented chain, reads back
/// byte-identical, and costs far less than whole copies.
#[test]
fn delta_chains_mirror_version_history() {
    let tmp = TempDb::new("delta");
    let db = tmp.create();
    let mut txn = db.begin();
    let doc = txn
        .pnew(&Doc {
            text: "the quick brown fox jumps over the lazy dog".repeat(20),
        })
        .unwrap();

    // Evolve with small edits, remembering each version's bytes.
    let mut states = vec![ode_codec::to_bytes(&txn.deref(&doc).unwrap().into_inner())];
    for i in 0..10 {
        txn.newversion(&doc).unwrap();
        txn.update(&doc, |d| d.text.push_str(&format!(" edit-{i}")))
            .unwrap();
        states.push(ode_codec::to_bytes(&txn.deref(&doc).unwrap().into_inner()));
    }
    txn.commit().unwrap();

    // Every version reads back exactly, the ten older ones from the
    // chain, in a fresh transaction.
    let mut txn = db.begin();
    let history = txn.version_history(&doc).unwrap();
    assert_eq!(history.len(), 11);
    for (i, vp) in history.iter().enumerate() {
        let stored = ode_codec::to_bytes(&txn.deref_v(vp).unwrap().into_inner());
        assert_eq!(stored, states[i], "v{i}");
    }
    // The chain holds all but the latest, in much less than whole copies.
    let stats = txn.chain_stats_raw(doc.oid()).unwrap().expect("a chain");
    assert_eq!(stats.versions, 10);
    assert!(
        stats.encoded_bytes < stats.materialized_bytes / 2,
        "chain {} bytes vs whole copies {}",
        stats.encoded_bytes,
        stats.materialized_bytes
    );
    txn.check_object(&doc).unwrap();
    txn.commit().unwrap();
}

/// Inter-object references stored in the database: a configuration
/// holding pointers into an evolving design, rebuilt across reopen.
#[test]
fn stored_pointers_survive_and_rebind() {
    let tmp = TempDb::new("pointers");
    let (cfg, part): (ConfigHandle, ObjPtr<Doc>) = {
        let db = tmp.create();
        let mut txn = db.begin();
        let part = txn.pnew(&Doc { text: "v0".into() }).unwrap();
        let cfg = ConfigHandle::create(&mut txn, "refs").unwrap();
        cfg.bind_dynamic(&mut txn, "doc", part).unwrap();
        txn.commit().unwrap();
        (cfg, part)
    };
    {
        let db = tmp.open();
        let mut txn = db.begin();
        txn.newversion(&part).unwrap();
        txn.put(&part, &Doc { text: "v1".into() }).unwrap();
        // The stored dynamic binding follows the new latest.
        assert_eq!(cfg.resolve::<Doc>(&mut txn, "doc").unwrap().text, "v1");
        txn.commit().unwrap();
    }
}

/// Sustained mixed workload across many transactions with periodic
/// checkpoints, then a full-extent verification pass.
#[test]
fn sustained_workload_with_checkpoints() {
    let tmp = TempDb::new("sustained");
    let db = tmp.create();
    let mut ptrs = Vec::new();
    for batch in 0..10 {
        let mut txn = db.begin();
        for i in 0..20 {
            let p = txn
                .pnew(&Doc {
                    text: format!("doc-{batch}-{i}"),
                })
                .unwrap();
            ptrs.push(p);
        }
        // Version and edit a stride of the existing population.
        for p in ptrs.iter().step_by(7) {
            txn.newversion(p).unwrap();
            txn.update(p, |d| d.text.push('!')).unwrap();
        }
        txn.commit().unwrap();
        if batch % 3 == 0 {
            db.checkpoint().unwrap();
        }
    }
    let mut snap = db.snapshot();
    let all = snap.objects::<Doc>().unwrap();
    assert_eq!(all.len(), 200);
    for p in &all {
        let _state = snap.deref(p).unwrap();
        snap.check_object(p).unwrap();
    }
}
