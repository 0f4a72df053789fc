//! Model-based property tests for the storage substrate.
//!
//! * the B+-tree must behave exactly like `BTreeMap<u64, u64>` under any
//!   operation sequence, with structural invariants intact throughout;
//! * the slotted page must behave like a `HashMap<slot, bytes>` model;
//! * the heap must round-trip arbitrary record sizes, including overflow;
//! * crash recovery, replica apply and a ten-line model must agree on
//!   every page byte over any log.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use ode_storage::btree::BTree;
use ode_storage::heap::Heap;
use ode_storage::page::PageKind;
use ode_storage::slotted;
use ode_storage::testutil::{TempPath, TempStore};
use ode_storage::wal::{push_frame, Wal, WalRecord, LOG_HEADER_LEN};
use ode_storage::{PageBuf, PageRead, PageWrite, StorageError, Store, StoreOptions, PAGE_SIZE};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    // A small key space forces overwrite/remove collisions.
    prop_oneof![
        3 => (0u64..200, any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        1 => (0u64..200).prop_map(TreeOp::Remove),
        1 => (0u64..200).prop_map(TreeOp::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(arb_tree_op(), 1..300)) {
        let store = TempStore::new();
        let mut tx = store.begin();
        // Tiny caps so even short sequences split nodes.
        let mut tree = BTree::create(&mut tx).unwrap().with_caps(4, 4);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                TreeOp::Insert(k, v) => {
                    let old = tree.insert(&mut tx, k, v).unwrap();
                    prop_assert_eq!(old, model.insert(k, v));
                }
                TreeOp::Remove(k) => {
                    let old = tree.remove(&mut tx, k).unwrap();
                    prop_assert_eq!(old, model.remove(&k));
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(tree.get(&mut tx, k).unwrap(), model.get(&k).copied());
                }
            }
        }
        tree.check(&mut tx).unwrap();
        let scanned = tree.scan_all(&mut tx).unwrap();
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(scanned, expected);
        tx.commit().unwrap();
    }

    #[test]
    fn slotted_matches_model(ops in proptest::collection::vec(
        prop_oneof![
            3 => proptest::collection::vec(any::<u8>(), 0..300).prop_map(Some),
            1 => Just(None),
        ],
        1..80,
    )) {
        let mut page = PageBuf::new(PageKind::Heap);
        slotted::init(&mut page);
        let mut model: BTreeMap<u16, Vec<u8>> = BTreeMap::new();
        let mut live: Vec<u16> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Some(data) => {
                    if slotted::can_insert(&page, data.len()) {
                        let slot = slotted::insert(&mut page, &data).unwrap();
                        model.insert(slot, data);
                        live.push(slot);
                    }
                }
                None => {
                    if !live.is_empty() {
                        let slot = live.remove(i % live.len());
                        prop_assert!(slotted::delete(&mut page, slot));
                        model.remove(&slot);
                    }
                }
            }
            // Every live record must still read back exactly.
            for (&slot, data) in &model {
                prop_assert_eq!(slotted::get(&page, slot), Some(&data[..]));
            }
            prop_assert_eq!(slotted::live_count(&page), model.len());
        }
    }

    #[test]
    fn heap_round_trips_any_size(sizes in proptest::collection::vec(0usize..20_000, 1..12)) {
        let store = TempStore::new();
        let mut tx = store.begin();
        let heap = Heap::create(&mut tx).unwrap();
        let mut rids = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let data: Vec<u8> = (0..*size).map(|j| ((i + j) % 251) as u8).collect();
            let rid = heap.insert(&mut tx, &data).unwrap();
            rids.push((rid, data));
        }
        for (rid, data) in &rids {
            prop_assert_eq!(&heap.get(&mut tx, *rid).unwrap(), data);
        }
        tx.commit().unwrap();
    }

    /// Data committed before a simulated crash (store leaked, WAL intact)
    /// is fully recovered; an uncommitted transaction leaves no trace.
    #[test]
    fn recovery_preserves_exactly_committed_state(
        committed in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..100), 1..8),
        uncommitted in proptest::collection::vec(any::<u8>(), 1..100),
    ) {
        let mut store = TempStore::new();
        let heap = {
            let mut tx = store.begin();
            let heap = Heap::create(&mut tx).unwrap();
            tx.set_root(0, heap.dir.0).unwrap();
            tx.commit().unwrap();
            heap
        };
        let mut expected = Vec::new();
        for data in &committed {
            let mut tx = store.begin();
            let rid = heap.insert(&mut tx, data).unwrap();
            tx.commit().unwrap();
            expected.push((rid, data.clone()));
        }
        {
            // This transaction never commits.
            let mut tx = store.begin();
            let _ = heap.insert(&mut tx, &uncommitted).unwrap();
        }
        store.crash(); // skip Drop's checkpoint
        store.reopen();
        let mut r = store.read();
        let heap = Heap::open(ode_storage::PageId(r.root(0).unwrap()));
        let mut scanned = heap.scan(&mut r).unwrap();
        scanned.sort();
        expected.sort();
        prop_assert_eq!(scanned, expected);
    }
}

// ---------------------------------------------------------------------------
// Recovery ≡ replica ingest ≡ model, over arbitrary logs
// ---------------------------------------------------------------------------

/// How one generated transaction changes one page.
#[derive(Debug, Clone)]
enum Body {
    Image(u8),
    Delta(Vec<(u16, Vec<u8>)>),
}

/// One generated transaction: the pages it logs, whether its `Commit`
/// is written, and — when it is not — whether the next transaction
/// recycles its id (what a restart does) or takes a fresh one.
#[derive(Debug, Clone)]
struct TxPlan {
    pages: BTreeMap<u64, Body>,
    commits: bool,
    recycle: bool,
}

fn arb_tx() -> impl Strategy<Value = TxPlan> {
    let body = prop_oneof![
        1 => any::<u8>().prop_map(Body::Image),
        3 => proptest::collection::vec(
            (0u16..4000, proptest::collection::vec(any::<u8>(), 1..40)),
            1..4,
        )
        .prop_map(Body::Delta),
    ];
    // Pages 1..=8 of a file that holds 0..=4: deltas land on stored
    // pages and on ones that do not exist yet. Page 0 (the header)
    // stays out so the store still opens.
    let pages = proptest::collection::btree_map(1u64..9, body, 1..7);
    (pages, 0u8..4, any::<bool>()).prop_map(|(pages, commits, recycle)| TxPlan {
        pages,
        commits: commits > 0,
        recycle,
    })
}

fn records_of(plan: &[TxPlan]) -> Vec<WalRecord> {
    let mut records = Vec::new();
    let mut tx = 1u64;
    for t in plan {
        records.push(WalRecord::Begin { tx });
        for (&page, body) in &t.pages {
            records.push(match body {
                Body::Image(fill) => WalRecord::Page {
                    tx,
                    page,
                    image: vec![*fill; PAGE_SIZE],
                },
                Body::Delta(ops) => WalRecord::PageDelta {
                    tx,
                    page,
                    ops: ops
                        .iter()
                        .map(|(at, b)| (u32::from(*at), b.clone()))
                        .collect(),
                },
            });
        }
        if t.commits {
            records.push(WalRecord::Commit { tx });
        }
        if t.commits || !t.recycle {
            tx += 1;
        }
    }
    records
}

/// The page file every case starts from: header plus four data pages,
/// checkpointed, log empty.
fn base_file() -> &'static [u8] {
    static FILE: OnceLock<Vec<u8>> = OnceLock::new();
    FILE.get_or_init(|| {
        let mut store = TempStore::new();
        let mut tx = store.begin();
        for i in 0..4u8 {
            let id = tx.allocate(PageKind::Heap).unwrap();
            tx.page_mut(id).unwrap().payload_mut().fill(0x10 + i);
        }
        tx.commit().unwrap();
        store.close();
        std::fs::read(store.path()).unwrap()
    })
}

/// The reference: apply only committed transactions, in commit order,
/// each page starting from the file's image or zeroes. Returns the
/// expected page file and the number of commits.
fn model(file: &[u8], records: &[WalRecord]) -> (Vec<u8>, u64) {
    let (mut file, mut commits) = (file.to_vec(), 0);
    let mut open: HashMap<u64, Vec<&WalRecord>> = HashMap::new();
    for record in records {
        match record {
            WalRecord::Begin { tx } => drop(open.insert(*tx, Vec::new())),
            WalRecord::Commit { tx } => {
                commits += 1;
                for change in open.remove(tx).unwrap_or_default() {
                    let (page, image) = match change {
                        WalRecord::Page { page, image, .. } => (*page as usize, image.clone()),
                        WalRecord::PageDelta { page, ops, .. } => {
                            let page = *page as usize;
                            file.resize(file.len().max((page + 1) * PAGE_SIZE), 0);
                            let mut image = file[page * PAGE_SIZE..][..PAGE_SIZE].to_vec();
                            for (at, bytes) in ops {
                                image[*at as usize..][..bytes.len()].copy_from_slice(bytes);
                            }
                            (page, image)
                        }
                        _ => unreachable!(),
                    };
                    // The file holds sealed pages: every write reseals.
                    let mut sealed = PageBuf::from_vec(image).unwrap();
                    sealed.seal();
                    file.resize(file.len().max((page + 1) * PAGE_SIZE), 0);
                    file[page * PAGE_SIZE..][..PAGE_SIZE].copy_from_slice(sealed.as_bytes());
                }
            }
            page_record => open.entry(page_record.tx()).or_default().push(page_record),
        }
    }
    (file, commits)
}

/// What a log file holds past the point a crash cut its live
/// generation.
#[derive(Debug, Clone, Copy)]
enum Behind {
    /// Nothing: the file ends at the cut.
    Nothing,
    /// Zeroes, as a file system that extends a file before its data
    /// lands leaves them.
    Zeros,
    /// A longer, older generation from another seed, holding the same
    /// records (so the same payloads, byte for byte).
    Older,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Over any log — uncommitted transactions, recycled ids, a cut at
    /// any byte, a flipped bit in the last whole frame, and behind the
    /// cut nothing, zero fill or an older generation — (a) `Store::open`
    /// on file + log, (b) a replica installed from the file, fed the
    /// live bytes in arbitrary pieces and promoted, and (c) the model
    /// above reach the same page file, and (a) and (b) keep no log past
    /// the last commit. The one sanctioned difference: a whole frame
    /// failing its checks ends the log for (a), which stops there, and
    /// is transport corruption to (b), which refuses it with
    /// `WalCorrupt` at that frame's offset — both having applied
    /// exactly the commits before.
    #[test]
    fn recovery_and_replica_ingest_agree_with_the_model(
        plan in proptest::collection::vec(arb_tx(), 1..13),
        cut: u64,
        flip in prop_oneof![Just(None), (any::<u64>(), 0u8..8).prop_map(Some)],
        chunks in proptest::collection::vec(1usize..600, 1..24),
        behind in prop_oneof![Just(Behind::Nothing), Just(Behind::Zeros), Just(Behind::Older)],
    ) {
        let file = base_file();
        let records = records_of(&plan);
        // Frame the records with the real writer, noting where each ends
        // — after an older generation of the same records twice over,
        // when one is to lie behind the cut.
        let scratch = TempPath::new();
        let mut wal = Wal::open(&scratch).unwrap();
        let append = |wal: &mut Wal, record: &WalRecord| {
            let mut frame = Vec::new();
            push_frame(&mut frame, record);
            wal.append(&mut frame).unwrap();
        };
        let mut older = Vec::new();
        if let Behind::Older = behind {
            for record in records.iter().chain(&records) {
                append(&mut wal, record);
            }
            older = std::fs::read(&*scratch).unwrap();
            wal.recycle(wal.tail()).unwrap();
        }
        let seed = wal.seed();
        let mut ends = Vec::new();
        for record in &records {
            append(&mut wal, record);
            ends.push(wal.len() as usize);
        }
        let mut log = wal.read_span(0, wal.len() as usize).unwrap();
        log.truncate((cut % (log.len() as u64 + 1)) as usize);
        // Frames wholly inside the cut, then minus the flipped one.
        let mut whole = ends.iter().take_while(|&&end| end <= log.len()).count();
        let mut bad_frame = None;
        if let (Some((at, bit)), true) = (flip, whole > 0) {
            whole -= 1;
            let start = if whole == 0 { 0 } else { ends[whole - 1] };
            // Past the length field, so the frame stays whole.
            let span = ends[whole] - start - 4;
            log[start + 4 + (at % span as u64) as usize] ^= 1 << bit;
            bad_frame = Some(start as u64);
        }
        let (expected, commits) = model(file, &records[..whole]);
        let committed_end = records[..whole]
            .iter()
            .rposition(|r| matches!(r, WalRecord::Commit { .. }))
            .map_or(0, |i| ends[i] as u64);

        // (a) crash recovery, over the header, the log up to the cut, and
        // what lies behind it.
        let header = &std::fs::read(&*scratch).unwrap()[..LOG_HEADER_LEN as usize];
        let rest = LOG_HEADER_LEN as usize + log.len();
        let behind: &[u8] = match behind {
            Behind::Nothing => &[],
            Behind::Zeros => &[0; 4096],
            Behind::Older => &older[rest..],
        };
        let a = TempPath::new();
        std::fs::write(&a, file).unwrap();
        std::fs::write(a.wal(), [header, &log, behind].concat()).unwrap();
        let store = Store::open(&a, StoreOptions::default()).unwrap();
        prop_assert_eq!(store.wal_len(), 0);
        drop(store);
        prop_assert!(std::fs::read(&a).unwrap() == expected, "recovery differs from the model");

        // (b) replica ingest, then promotion.
        let mut b = TempStore::new();
        b.replica_install_snapshot(file, 0, 1, seed).unwrap();
        let (mut fed, mut refused) = (0, None);
        for chunk in chunks.iter().cycle() {
            if fed == log.len() {
                break;
            }
            let end = log.len().min(fed + chunk);
            match b.replica_ingest(&log[fed..end]) {
                Ok(_) => fed = end,
                Err(StorageError::WalCorrupt { offset }) => {
                    refused = Some(offset);
                    break;
                }
                Err(e) => panic!("unexpected ingest error: {e}"),
            }
        }
        prop_assert_eq!(refused, bad_frame);
        // The snapshot installed epoch 1; every applied commit bumps it.
        prop_assert_eq!(b.epoch() - 1, commits);
        b.promote_to_primary().unwrap();
        prop_assert_eq!(b.wal_len(), committed_end);
        b.close();
        prop_assert!(std::fs::read(b.path()).unwrap() == expected, "replica differs from the model");
    }
}
