//! k-client collaboration through the router: several clients fork one
//! object, edit their forks independently, and merge back through the
//! wire until a single version remains. Disjoint edits must converge
//! byte-identically on every client; overlapping edits must surface
//! `MergeConflict`s through the tier instead of corrupting anything.

use ode::{MergePolicy, ObjPtr, VersionPtr};
use ode_codec::{impl_persist_struct, impl_type_name, to_bytes};
use ode_net::{ClientConfig, Cluster, ClusterConfig, NetError, OdeClient, RemoteError};

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    text: String,
}
impl_persist_struct!(Doc { text });
impl_type_name!(Doc = "merge-collab/Doc");

fn doc(text: &str) -> Doc {
    Doc { text: text.into() }
}

/// The shared base every client forks from. Four single-word edit
/// targets; each replacement below keeps its word's length, so the
/// encoded body's length prefix is untouched and every merge result
/// still decodes as a `Doc`.
const BASE: &str = "quick brown sober happy merge demo";
const WORDS: [&str; 4] = ["quick", "brown", "sober", "happy"];
const EDITS: [&str; 4] = ["QUICK", "BROWN", "SOBER", "HAPPY"];

/// The moved-block merge: three 1 360-letter slices, 8 newlines apart.
/// Theirs moves slice 2's text to slice 0 and rewrites slice 2; ours
/// rewrites slice 1. Returns the base, ours, theirs and merged texts.
fn moved_block_script() -> [String; 4] {
    let slice = |mut x: u64, first: u8| -> String {
        (0..1360)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                char::from(first + (x % 26) as u8)
            })
            .collect()
    };
    let doc = |slices: [&String; 3]| slices.map(String::as_str).join("\n\n\n\n\n\n\n\n");
    let [s0, s1, s2] = [1, 2, 3].map(|seed| slice(seed, b'a'));
    let (ours, theirs) = (slice(4, b'A'), slice(5, b'A'));
    [
        doc([&s0, &s1, &s2]),
        doc([&s0, &ours, &s2]),
        doc([&s2, &s1, &theirs]),
        doc([&s2, &ours, &theirs]),
    ]
}

#[test]
fn four_clients_converge_byte_identically_through_the_router() {
    let cluster = Cluster::start(ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    });
    let mut clients: Vec<OdeClient> = (0..4)
        .map(|_| {
            OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect")
        })
        .collect();

    // Client 0 creates the shared object; its shard issued the id from
    // its own residue, so every client sees the same ids.
    let ptr: ObjPtr<Doc> = clients[0].pnew(&doc(BASE)).expect("pnew");
    let base = clients[0].current_version(&ptr).expect("current_version");

    // Each client forks from the same base and uppercases its own
    // word — four disjoint edits against one common ancestor.
    let mut forks: Vec<VersionPtr<Doc>> = Vec::new();
    for (i, c) in clients.iter_mut().enumerate() {
        let fork = c.newversion_from(&base).expect("newversion_from");
        c.put_version(&fork, &doc(&BASE.replace(WORDS[i], EDITS[i])))
            .expect("put_version");
        forks.push(fork);
    }

    // Merge tree: (0,1) and (2,3), then the two inner merges. All
    // edits are disjoint, so the strict policy must resolve cleanly.
    let mut merge_clean = |c: usize, a: &VersionPtr<Doc>, b: &VersionPtr<Doc>| {
        let (vid, conflicts) = clients[c].merge(a, b, MergePolicy::Fail).expect("merge");
        assert!(
            conflicts.is_empty(),
            "disjoint edits conflicted: {conflicts:?}"
        );
        vid.expect("clean merge must produce a version")
    };
    let left = merge_clean(1, &forks[0], &forks[1]);
    let right = merge_clean(2, &forks[2], &forks[3]);
    let root = merge_clean(3, &left, &right);

    // Convergence: every client reads the same final version and the
    // same bytes, and those bytes carry all four edits.
    let oracle = to_bytes(&doc("QUICK BROWN SOBER HAPPY merge demo"));
    for c in clients.iter_mut() {
        assert_eq!(c.current_version(&ptr).expect("current"), root);
        let (body, at) = c.deref(&ptr).expect("deref");
        assert_eq!(at, root);
        assert_eq!(to_bytes(&body), oracle, "clients diverged after merge");
    }

    // The merge version remembers both parents through the tier: it
    // derives from `left`, and walking dprev reaches the base.
    let c0 = &mut clients[0];
    assert_eq!(c0.dprevious(&root).expect("dprevious"), Some(left));
}

#[test]
fn a_moved_block_keeps_the_other_sides_edit_through_the_router() {
    let [base, ours, theirs, merged] = moved_block_script();
    let cluster = Cluster::start(ClusterConfig {
        shards: 2,
        ..ClusterConfig::default()
    });
    let mut client =
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect");
    let ptr: ObjPtr<Doc> = client.pnew(&doc(&base)).expect("pnew");
    let base = client.current_version(&ptr).expect("current_version");
    let a = client.newversion_from(&base).expect("fork a");
    client.put_version(&a, &doc(&ours)).expect("edit a");
    let b = client.newversion_from(&base).expect("fork b");
    client.put_version(&b, &doc(&theirs)).expect("edit b");
    for policy in [MergePolicy::Fail, MergePolicy::Ours, MergePolicy::Theirs] {
        let (vid, conflicts) = client.merge(&a, &b, policy).expect("merge");
        assert!(
            conflicts.is_empty(),
            "under {policy:?}: {} conflicts",
            conflicts.len()
        );
        let vid = vid.expect("a clean merge checks in");
        let (body, at) = client.deref(&ptr).expect("deref");
        assert_eq!(at, vid);
        assert_eq!(to_bytes(&body), to_bytes(&doc(&merged)), "under {policy:?}");
    }
}

#[test]
fn overlapping_edits_report_conflicts_through_the_wire() {
    let cluster = Cluster::start(ClusterConfig {
        shards: 2,
        ..ClusterConfig::default()
    });
    let mut ours =
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect");
    let mut theirs =
        OdeClient::connect(cluster.router_addr(), ClientConfig::default()).expect("connect");

    let ptr: ObjPtr<Doc> = ours.pnew(&doc(BASE)).expect("pnew");
    let base = ours.current_version(&ptr).expect("current_version");

    // Both sides rewrite the same word to different same-length text.
    let a = ours.newversion_from(&base).expect("fork a");
    ours.put_version(&a, &doc(&BASE.replace("merge", "MERGE")))
        .expect("edit a");
    let b = theirs.newversion_from(&base).expect("fork b");
    theirs
        .put_version(&b, &doc(&BASE.replace("merge", "forge")))
        .expect("edit b");

    // Strict policy: no version, conflicts name the contested bytes.
    let (vid, conflicts) = ours.merge(&a, &b, MergePolicy::Fail).expect("merge fail");
    assert!(vid.is_none(), "overlapping edits must not merge under Fail");
    assert!(!conflicts.is_empty(), "the overlap must be reported");
    for c in &conflicts {
        assert!(c.base_end >= c.base_start);
        assert_ne!(c.ours, c.theirs, "a conflict must carry both sides");
    }

    // Theirs-policy: resolves, still reports, and the loser's bytes
    // are gone from the result on every client.
    let (vid, conflicts) = theirs
        .merge(&a, &b, MergePolicy::Theirs)
        .expect("merge theirs");
    let vid = vid.expect("theirs policy must resolve");
    assert!(
        !conflicts.is_empty(),
        "resolution must still report the overlap"
    );
    for c in [&mut ours, &mut theirs] {
        let (body, at) = c.deref(&ptr).expect("deref");
        assert_eq!(at, vid);
        assert!(
            body.text.contains("forge"),
            "winner bytes missing: {body:?}"
        );
        assert!(
            !body.text.contains("MERGE"),
            "loser bytes survived: {body:?}"
        );
    }

    // Cross-object merges are refused with the ids the client sent.
    let other: ObjPtr<Doc> = ours.pnew(&doc("elsewhere")).expect("pnew other");
    let ov = ours.current_version(&other).expect("current other");
    match ours.merge(&a, &ov, MergePolicy::Fail) {
        Err(NetError::Remote(RemoteError::BadRequest(_))) => {}
        other => panic!("expected bad-request for cross-object merge, got {other:?}"),
    }
}
