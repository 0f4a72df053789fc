//! Buffer pool: a sharded, concurrently readable cache of page images
//! between the transactional store and the pager.
//!
//! The pool is the single source of truth for a page once loaded: reads
//! and writes go through it, and dirty pages are only written back to the
//! database file at checkpoint time (the WAL provides durability between
//! checkpoints).  Dirty pages are therefore **never evicted** — eviction
//! only reclaims clean frames, and every insert (a miss *or* a
//! published page the pool did not hold) first reclaims room for
//! itself.  If every frame of a shard is dirty the shard grows past its
//! share of the target capacity until the next checkpoint, which is
//! safe but flagged by [`BufferPool::over_target`] so the committer
//! checkpoints; the checkpoint then trims the pool back to its target.
//!
//! Concurrency: frames live in `SHARDS` independent hash maps, each
//! behind its own `RwLock`, and hold their page image as an
//! `Arc<PageBuf>`.  A cache hit takes one shard *read* lock just long
//! enough to clone the `Arc` — readers never block other readers, and a
//! reader of shard A never touches shard B's lock.  A miss reads the
//! page from the file *outside* any lock (the pager is positional), then
//! takes the shard write lock only to insert.  Writers publish committed
//! after-images with [`BufferPool::publish`], which replaces the frame
//! wholesale: any reader still holding the old `Arc` keeps its
//! consistent old image (the store's snapshot gate decides *when*
//! publishing is allowed; the pool just makes it safe).
//!
//! The dirty-pages-are-never-evicted rule doubles as the torn-read
//! guard: a page whose latest committed image has not reached the file
//! is always resident, so no reader can miss to the file and observe a
//! half-written page while a checkpoint is streaming it out.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::page::{seal_image, PageBuf, PageId, PageMap, PAGE_SIZE};
use crate::pager::Pager;
use crate::Result;

/// Number of independent shard locks. Power of two so the shard pick is
/// a mask; 16 is plenty for the thread counts a single store sees.
const SHARDS: usize = 16;

/// Most pages one checkpoint write carries: runs of adjacent dirty
/// pages longer than this are written in pieces, so the buffer they are
/// sealed in stays at 64 KiB however large the checkpoint.
pub const WRITE_BACK_PAGES: usize = 16;

/// Split `pages`, ascending by id, into the runs [`BufferPool::flush_all`]
/// writes: adjacent ids, at most [`WRITE_BACK_PAGES`] to a run.
fn write_runs<T>(pages: &[(PageId, T)]) -> impl Iterator<Item = &[(PageId, T)]> {
    let mut rest = pages;
    std::iter::from_fn(move || {
        let first = rest.first()?.0;
        let len = rest
            .iter()
            .take(WRITE_BACK_PAGES)
            .enumerate()
            .take_while(|(k, (id, _))| id.0 == first.0 + *k as u64)
            .count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

/// Statistics maintained by the pool (exposed for benches and tests).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Lookups satisfied from the pool.
    pub hits: u64,
    /// Lookups that had to read from the file.
    pub misses: u64,
    /// Clean frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back during checkpoints.
    pub writebacks: u64,
    /// Frames resident right now (a gauge, not a total).
    pub resident: u64,
}

struct Frame {
    page: Arc<PageBuf>,
    dirty: bool,
    /// Store epoch at which this image was published (0 for images
    /// loaded from the file, which are older than any live commit).
    epoch: u64,
    /// LRU clock: larger is more recent. Atomic so hits can touch it
    /// under the shard *read* lock.
    last_used: AtomicU64,
}

#[derive(Default)]
struct Shard {
    frames: PageMap<Frame>,
}

/// A sharded LRU page cache over a [`Pager`].
pub struct BufferPool {
    shards: Vec<RwLock<Shard>>,
    /// Target capacity in pages across all shards.
    capacity: usize,
    /// Total resident frames (kept outside the shard locks).
    resident: AtomicUsize,
    /// Set when some shard's dirty frames alone outgrew its share of
    /// the capacity; cleared by [`BufferPool::flush_all`]. A hint
    /// (Relaxed): it guards no other data.
    dirty_pressure: AtomicBool,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

impl BufferPool {
    /// Create a pool holding up to `capacity` pages (minimum 4 per shard
    /// so tiny configurations still behave).
    pub fn new(capacity: usize) -> BufferPool {
        BufferPool {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            capacity: capacity.max(4 * SHARDS),
            resident: AtomicUsize::new(0),
            dirty_pressure: AtomicBool::new(false),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        }
    }

    fn shard(&self, id: PageId) -> &RwLock<Shard> {
        &self.shards[(id.0 as usize) & (SHARDS - 1)]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current statistics.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            resident: self.len() as u64,
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Whether the pool holds no pages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether dirty frames have outgrown the target: some shard needed
    /// room and had only dirty frames to give (a hint that a checkpoint
    /// is due). Clean frames never count — they are evicted instead.
    pub fn over_target(&self) -> bool {
        self.dirty_pressure.load(Ordering::Relaxed)
    }

    /// Shared lookup: return the page's current image, loading it from
    /// the file on miss. Hits take one shard read lock; misses do the
    /// file read outside any lock and only take the shard write lock to
    /// insert.
    pub fn get(&self, pager: &Pager, id: PageId) -> Result<Arc<PageBuf>> {
        {
            let shard = self.shard(id).read();
            if let Some(frame) = shard.frames.get(&id.0) {
                frame.last_used.store(self.next_tick(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&frame.page));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let loaded = Arc::new(pager.read_page(id)?);
        let mut shard = self.shard(id).write();
        // Another thread may have loaded (or a writer published) the page
        // while we read the file; theirs is at least as new — keep it.
        if let Some(frame) = shard.frames.get(&id.0) {
            frame.last_used.store(self.next_tick(), Ordering::Relaxed);
            return Ok(Arc::clone(&frame.page));
        }
        self.evict_from(&mut shard, 1);
        shard.frames.insert(
            id.0,
            Frame {
                page: Arc::clone(&loaded),
                dirty: false,
                epoch: 0,
                last_used: AtomicU64::new(self.next_tick()),
            },
        );
        self.resident.fetch_add(1, Ordering::Relaxed);
        Ok(loaded)
    }

    /// Publish a committed page image, replacing any resident frame.
    /// Readers holding the old `Arc` keep their old image. Called by the
    /// store's commit path (under its snapshot gate) and by recovery.
    pub fn publish(&self, id: PageId, page: Arc<PageBuf>, dirty: bool, epoch: u64) {
        let mut shard = self.shard(id).write();
        let tick = self.next_tick();
        if let Some(frame) = shard.frames.get_mut(&id.0) {
            frame.page = page;
            frame.dirty = dirty;
            frame.epoch = epoch;
            frame.last_used.store(tick, Ordering::Relaxed);
            return;
        }
        // A page the pool does not hold (freshly allocated, or evicted
        // since the writer read it) takes a frame like any miss does.
        self.evict_from(&mut shard, 1);
        shard.frames.insert(
            id.0,
            Frame {
                page,
                dirty,
                epoch,
                last_used: AtomicU64::new(tick),
            },
        );
        self.resident.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop a page from the pool without write-back (used when a page is
    /// freed: its contents are dead).
    pub fn discard(&self, id: PageId) {
        let mut shard = self.shard(id).write();
        if shard.frames.remove(&id.0).is_some() {
            self.resident.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Whether a page is resident and dirty.
    pub fn is_dirty(&self, id: PageId) -> bool {
        self.shard(id)
            .read()
            .frames
            .get(&id.0)
            .is_some_and(|f| f.dirty)
    }

    /// Epoch stamped on the page's resident frame, if any.
    pub fn frame_epoch(&self, id: PageId) -> Option<u64> {
        self.shard(id).read().frames.get(&id.0).map(|f| f.epoch)
    }

    /// Ids of all dirty resident pages, ascending.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.dirty_images().into_iter().map(|(id, _)| id).collect()
    }

    /// Every dirty resident page and its image, ascending by id.
    fn dirty_images(&self) -> Vec<(PageId, Arc<PageBuf>)> {
        let mut v = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            v.extend(
                shard
                    .frames
                    .iter()
                    .filter(|(_, f)| f.dirty)
                    .map(|(&id, f)| (PageId(id), Arc::clone(&f.page))),
            );
        }
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }

    /// Write all dirty pages back to the file and mark them clean
    /// (checkpoint). The caller (the store) serializes checkpoints under
    /// its write lock, so no frame changes while this runs; concurrent
    /// *readers* are unaffected because images are only sealed in a
    /// copy. Each run of adjacent ids goes out as one write of at most
    /// [`WRITE_BACK_PAGES`] pages, sealed in one buffer that every run
    /// reuses. Afterwards every frame is clean, so shards that grew past
    /// their share are trimmed back. On error the pages already written
    /// are clean and the rest stay dirty.
    pub fn flush_all(&self, pager: &Pager) -> Result<()> {
        let dirty = self.dirty_images();
        let mut buf = Vec::with_capacity(WRITE_BACK_PAGES.min(dirty.len()) * PAGE_SIZE);
        for run in write_runs(&dirty) {
            buf.clear();
            for (_, image) in run {
                buf.extend_from_slice(image.as_bytes());
            }
            for image in buf.chunks_exact_mut(PAGE_SIZE) {
                seal_image(image);
            }
            pager.write_sealed_run(run[0].0, &buf)?;
            self.writebacks
                .fetch_add(run.len() as u64, Ordering::Relaxed);
            for (id, _) in run {
                if let Some(f) = self.shard(*id).write().frames.get_mut(&id.0) {
                    f.dirty = false;
                }
            }
        }
        self.dirty_pressure.store(false, Ordering::Relaxed);
        for shard in &self.shards {
            self.evict_from(&mut shard.write(), 0);
        }
        Ok(())
    }

    /// Drop every frame, dirty or clean, without write-back. Used when
    /// the underlying file is wholesale replaced (a replica installing
    /// a shipped snapshot): all cached state — including dirty pages —
    /// describes the discarded store. The caller holds the snapshot
    /// gate exclusively, so no reader can miss to the file mid-swap.
    pub fn purge(&self) {
        for shard in &self.shards {
            let mut shard = shard.write();
            let n = shard.frames.len();
            shard.frames.clear();
            self.resident.fetch_sub(n, Ordering::Relaxed);
        }
        self.dirty_pressure.store(false, Ordering::Relaxed);
    }

    /// Remove everything from the pool (test aid; dirty pages must have
    /// been flushed first).
    pub fn clear(&self) {
        debug_assert!(self.dirty_pages().is_empty(), "clearing dirty pool");
        for shard in &self.shards {
            let mut shard = shard.write();
            let n = shard.frames.len();
            shard.frames.clear();
            self.resident.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Evict clean LRU frames until this shard plus `incoming` new
    /// frames fits its share of the pool capacity. Dirty frames are
    /// never evicted (see module docs); running out of clean ones
    /// raises the dirty-pressure flag instead.
    fn evict_from(&self, shard: &mut Shard, incoming: usize) {
        let per_shard = self.capacity / SHARDS;
        while shard.frames.len() + incoming > per_shard {
            let victim = shard
                .frames
                .iter()
                .filter(|(_, f)| !f.dirty)
                .min_by_key(|(_, f)| f.last_used.load(Ordering::Relaxed))
                .map(|(&id, _)| id);
            match victim {
                Some(id) => {
                    shard.frames.remove(&id);
                    self.resident.fetch_sub(1, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // All frames dirty: allow temporary growth (see module doc).
                None => {
                    self.dirty_pressure.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;
    use crate::testutil::TempPath;

    /// A fresh page file; it is deleted when the path drops.
    fn temp_pager() -> (TempPath, Pager) {
        let path = TempPath::new();
        let pager = Pager::create(&path).unwrap();
        (path, pager)
    }

    /// Write `n` fresh heap pages to the file, returning their ids.
    fn seed_pages(pager: &Pager, n: u64) -> Vec<PageId> {
        (0..n)
            .map(|i| {
                let id = PageId(i);
                let mut page = PageBuf::new(PageKind::Heap);
                page.write_u64(16, i);
                pager.write_page(id, &mut page).unwrap();
                id
            })
            .collect()
    }

    #[test]
    fn hit_miss_accounting() {
        let (_path, pager) = temp_pager();
        let id = seed_pages(&pager, 1)[0];
        let pool = BufferPool::new(8);
        pool.get(&pager, id).unwrap();
        assert_eq!(pool.stats().misses, 1);
        pool.get(&pager, id).unwrap();
        pool.get(&pager, id).unwrap();
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn publish_replaces_but_old_pins_survive() {
        let (_path, pager) = temp_pager();
        let id = seed_pages(&pager, 1)[0];
        let pool = BufferPool::new(64);
        let old = pool.get(&pager, id).unwrap();
        assert_eq!(old.read_u64(16), 0);
        let mut new_img = PageBuf::new(PageKind::Heap);
        new_img.write_u64(16, 99);
        pool.publish(id, Arc::new(new_img), true, 7);
        // The pin still sees the old image; a fresh lookup sees the new.
        assert_eq!(old.read_u64(16), 0);
        assert_eq!(pool.get(&pager, id).unwrap().read_u64(16), 99);
        assert!(pool.is_dirty(id));
        assert_eq!(pool.frame_epoch(id), Some(7));
    }

    #[test]
    fn dirty_pages_survive_eviction_pressure() {
        let (_path, pager) = temp_pager();
        // All ids in one shard (multiples of SHARDS) so they contend for
        // the same per-shard budget.
        let pool = BufferPool::new(0); // floor: 4 per shard
        let ids: Vec<PageId> = (0..8).map(|i| PageId(i * SHARDS as u64)).collect();
        for &id in &ids {
            let mut page = PageBuf::new(PageKind::Heap);
            page.write_u64(16, id.0);
            pager.write_page(id, &mut page).unwrap();
        }
        for &id in &ids[..4] {
            let mut dirty_img = PageBuf::new(PageKind::Heap);
            dirty_img.write_u64(16, id.0 + 1000);
            pool.publish(id, Arc::new(dirty_img), true, 1);
        }
        // Four dirty frames fill the shard's share; loading more clean
        // pages must not evict them.
        for &id in &ids[4..] {
            pool.get(&pager, id).unwrap();
        }
        for &id in &ids[..4] {
            assert!(pool.is_dirty(id));
            assert_eq!(pool.get(&pager, id).unwrap().read_u64(16), id.0 + 1000);
        }
    }

    #[test]
    fn publishing_an_absent_page_evicts_a_clean_frame() {
        let (_path, pager) = temp_pager();
        let pool = BufferPool::new(0); // floor: 4 per shard
        let ids: Vec<PageId> = (0..6).map(|i| PageId(i * SHARDS as u64)).collect();
        for &id in &ids {
            let mut page = PageBuf::new(PageKind::Heap);
            pager.write_page(id, &mut page).unwrap();
        }
        // Fill the shard's share with clean frames, then publish two
        // pages the pool does not hold: clean frames make room, the
        // shard stays within its share and nothing asks for a checkpoint.
        for &id in &ids[..4] {
            pool.get(&pager, id).unwrap();
        }
        for &id in &ids[4..] {
            pool.publish(id, Arc::new(PageBuf::new(PageKind::Heap)), true, 1);
        }
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.stats().evictions, 2);
        assert!(!pool.over_target());
        assert!(pool.is_dirty(ids[4]) && pool.is_dirty(ids[5]));
    }

    #[test]
    fn over_target_means_dirty_frames_outgrew_a_share() {
        let (_path, pager) = temp_pager();
        let pool = BufferPool::new(0); // floor: 4 per shard
        let ids: Vec<PageId> = (0..6).map(|i| PageId(i * SHARDS as u64)).collect();
        for &id in &ids[..4] {
            pool.publish(id, Arc::new(PageBuf::new(PageKind::Heap)), true, 1);
        }
        // A full share of dirty frames is not yet pressure ...
        assert!(!pool.over_target());
        // ... the next frame finding only dirty ones to evict is.
        pool.publish(ids[4], Arc::new(PageBuf::new(PageKind::Heap)), true, 2);
        pool.publish(ids[5], Arc::new(PageBuf::new(PageKind::Heap)), true, 2);
        assert!(pool.over_target());
        assert_eq!(pool.len(), 6);
        // A checkpoint writes them back, trims the shard to its share
        // and withdraws the hint.
        pool.flush_all(&pager).unwrap();
        assert!(!pool.over_target());
        assert_eq!(pool.len(), 4);
        assert!(pool.dirty_pages().is_empty());
    }

    #[test]
    fn flush_all_writes_back_and_cleans() {
        let (_path, pager) = temp_pager();
        let id = seed_pages(&pager, 1)[0];
        let pool = BufferPool::new(64);
        let mut img = PageBuf::new(PageKind::Heap);
        img.write_u64(16, 0xAB);
        pool.publish(id, Arc::new(img), true, 1);
        pool.flush_all(&pager).unwrap();
        assert!(!pool.is_dirty(id));
        assert_eq!(pool.stats().writebacks, 1);
        // Verify via a fresh read from the file.
        let back = pager.read_page(id).unwrap();
        assert_eq!(back.read_u64(16), 0xAB);
    }

    #[test]
    fn write_runs_are_adjacent_and_at_most_sixteen_pages() {
        let ids: Vec<(PageId, ())> = (0..40)
            .chain([42])
            .chain(44..61)
            .chain([100])
            .map(|k| (PageId(k), ()))
            .collect();
        let runs: Vec<Vec<u64>> = write_runs(&ids)
            .map(|run| run.iter().map(|(id, _)| id.0).collect())
            .collect();
        let from = |r: std::ops::Range<u64>| r.collect::<Vec<u64>>();
        assert_eq!(
            runs,
            [
                from(0..16),
                from(16..32),
                from(32..40),
                vec![42],
                from(44..60),
                vec![60],
                vec![100],
            ]
        );
        assert!(write_runs::<()>(&[]).next().is_none());
    }

    #[test]
    fn flush_all_writes_runs_across_and_past_eof() {
        let (path, pager) = temp_pager();
        seed_pages(&pager, 3);
        let pool = BufferPool::new(256);
        let dirty: Vec<u64> = (1..20).chain(30..33).collect();
        for &k in &dirty {
            let mut page = PageBuf::new(PageKind::Heap);
            page.write_u64(16, k + 1000);
            pool.publish(PageId(k), Arc::new(page), true, 1);
        }
        pool.flush_all(&pager).unwrap();
        assert_eq!(pool.stats().writebacks, dirty.len() as u64);
        assert!(pool.dirty_pages().is_empty());
        assert_eq!(pager.file_pages(), 33);
        assert_eq!(
            std::fs::metadata(&*path).unwrap().len(),
            33 * PAGE_SIZE as u64
        );
        assert_eq!(pager.read_page(PageId(0)).unwrap().read_u64(16), 0);
        for &k in &dirty {
            assert_eq!(pager.read_page(PageId(k)).unwrap().read_u64(16), k + 1000);
        }
        // The pages no run wrote, between the old end and page 30, are
        // zeroes that fail their checksum.
        for k in 20..30 {
            assert!(matches!(
                pager.read_page(PageId(k)),
                Err(crate::StorageError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn concurrent_readers_share_one_load() {
        let (_path, pager) = temp_pager();
        let ids = seed_pages(&pager, 32);
        let pool = BufferPool::new(256);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        for &id in &ids {
                            let page = pool.get(&pager, id).unwrap();
                            assert_eq!(page.read_u64(16), id.0);
                        }
                    }
                });
            }
        });
        // Every page was loaded at most a handful of times (racing
        // first-loads), then served from cache.
        let stats = pool.stats();
        assert!(stats.misses <= 32 * 4);
        assert!(stats.hits >= 4 * 50 * 32 - stats.misses);
    }
}
