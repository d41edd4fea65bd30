//! LRU buffer pool caching decoded nodes above the pager.
//!
//! The paper's experiments use "an LRU memory buffer with default size 2%
//! of the tree size"; all reported I/O numbers are physical accesses that
//! miss this buffer. [`BufferPool`] implements exactly that: one bounded
//! cache of decoded nodes with O(1) least-recently-used eviction
//! (hash map + intrusive doubly-linked list), write-back of dirty pages,
//! and the [`IoStats`] counters.
//!
//! # Locking
//!
//! One mutex guards the frames, the map, the LRU list, the capacity, the
//! counters and the page scratch. The store sits behind a lock of its
//! own, always taken after the frame lock. A hit takes the frame lock
//! alone, so a checkpoint's fsync, which holds only the store lock,
//! does not stall it; a miss reads its page under both locks, so it
//! waits out the fsync and every access queues behind it meanwhile.
//!
//! Nodes are handed out as `Arc<Node>` clones so read paths never copy
//! node payloads; writers install fresh nodes with [`BufferPool::put`].
//!
//! A page an in-flight tree mutation has superseded stays readable (a
//! pinned snapshot may still walk it) but no longer counts against the
//! capacity, and eviction passes it over: the mutation frees it at
//! publish unless a reader still holds it, so writing it back or
//! evicting a live page for it would both be waste. Publish settles it
//! back into the count (see [`crate::tree`]).

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, RwLock};

use crate::lock;
use crate::node::Node;
use crate::pager::{PageId, PageStore};
use crate::stats::IoStats;

const NIL: usize = usize::MAX;

struct Frame {
    pid: u32,
    node: Arc<Node>,
    dirty: bool,
    /// Superseded by the in-flight mutation: resident, but outside the
    /// capacity and never an eviction victim.
    superseded: bool,
    prev: usize,
    next: usize,
}

/// Everything the frame lock guards.
struct Lru {
    map: HashMap<u32, usize>,
    frames: Vec<Frame>,
    free_slots: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    /// Resident frames marked superseded.
    superseded: usize,
    stats: IoStats,
    /// Dirty write-backs that failed at the store. Each failure leaves
    /// the frame resident and dirty (possibly over-admitting it past
    /// the capacity) so no committed data is lost; a later
    /// [`BufferPool::flush`] or eviction retries the write.
    write_failures: u64,
    scratch: Vec<u8>,
}

/// A thread-safe LRU buffer pool over any [`PageStore`] (in-memory
/// [`crate::pager::MemPager`] or file-backed [`crate::disk::DiskPager`]).
///
/// All node traffic of an [`crate::RTree`] flows through this type, which
/// is what makes the I/O accounting exact: `logical` counts every request,
/// `physical_reads` counts misses, `physical_writes` counts dirty
/// write-backs (and a disk-backed store contributes its `disk_*` device
/// counters). See the [module docs](self) for the locking model.
pub struct BufferPool {
    store: RwLock<Box<dyn PageStore>>,
    dim: usize,
    page_size: usize,
    lru: Mutex<Lru>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity())
            .field("resident", &self.resident())
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// Create a pool over `store` caching up to `capacity` nodes of a
    /// `dim`-dimensional tree. Capacities below 1 are clamped to 1.
    pub fn new<S: PageStore + 'static>(store: S, dim: usize, capacity: usize) -> BufferPool {
        BufferPool::with_boxed_store(Box::new(store), dim, capacity)
    }

    /// Like [`BufferPool::new`] but taking an already-boxed store, so a
    /// tree built over a caller's store does not box it twice.
    pub(crate) fn with_boxed_store(
        store: Box<dyn PageStore>,
        dim: usize,
        capacity: usize,
    ) -> BufferPool {
        let page = store.page_size();
        BufferPool {
            store: RwLock::new(store),
            dim,
            page_size: page,
            lru: Mutex::new(Lru {
                map: HashMap::new(),
                frames: Vec::new(),
                free_slots: Vec::new(),
                head: NIL,
                tail: NIL,
                capacity: capacity.max(1),
                superseded: 0,
                stats: IoStats::default(),
                write_failures: 0,
                scratch: vec![0u8; page],
            }),
        }
    }

    /// Flush and unwrap the underlying store, so a test can read the
    /// page images the pool wrote.
    #[cfg(test)]
    pub(crate) fn into_store(self) -> Box<dyn PageStore> {
        let _ = self.flush();
        lock(self.store.into_inner())
    }

    /// Fetch a node, reading and decoding the page on a miss.
    ///
    /// # Panics
    /// Panics if the store fails the physical read — a read that can
    /// return neither cached nor device bytes has no sound value to
    /// produce. Callers that must survive device loss catch the unwind
    /// at the evaluation boundary (the service worker does).
    pub fn get(&self, pid: PageId) -> Arc<Node> {
        self.get_probe(pid).0
    }

    /// Like [`BufferPool::get`], but also reports whether the request
    /// missed the buffer (i.e. cost a physical read). Used by run-scoped
    /// I/O sessions to attribute the miss to the requesting run.
    ///
    /// # Panics
    /// See [`BufferPool::get`].
    pub(crate) fn get_probe(&self, pid: PageId) -> (Arc<Node>, bool) {
        let mut g = lock(self.lru.lock());
        g.stats.logical += 1;
        if let Some(&slot) = g.map.get(&pid.0) {
            g.touch(slot);
            return (Arc::clone(&g.frames[slot].node), false);
        }
        g.stats.physical_reads += 1;
        let node = Arc::new(self.read(pid, &mut g.scratch));
        g.install(pid, Arc::clone(&node), false, &self.store);
        (node, true)
    }

    /// Read a node without admitting it: a resident frame is shared as
    /// it is, otherwise the page is decoded straight from the store. The
    /// LRU order and the pool's counters stay as they were (a disk
    /// store still counts the reads it makes), so a full scan neither
    /// evicts the working set nor shows up as query I/O.
    ///
    /// # Panics
    /// See [`BufferPool::get`].
    pub(crate) fn peek(&self, pid: PageId) -> Arc<Node> {
        let mut g = lock(self.lru.lock());
        if let Some(&slot) = g.map.get(&pid.0) {
            return Arc::clone(&g.frames[slot].node);
        }
        Arc::new(self.read(pid, &mut g.scratch))
    }

    /// Read and decode `pid` from the store through `scratch`.
    fn read(&self, pid: PageId, scratch: &mut [u8]) -> Node {
        lock(self.store.read())
            .read_into(pid, scratch)
            .unwrap_or_else(|e| panic!("unserviceable read of page {pid}: {e}"));
        Node::decode(self.dim, scratch)
    }

    /// Install a (possibly new) node image for `pid`, marking it dirty.
    pub fn put(&self, pid: PageId, node: Node) {
        let mut g = lock(self.lru.lock());
        g.stats.logical += 1;
        let node = Arc::new(node);
        if let Some(&slot) = g.map.get(&pid.0) {
            g.frames[slot].node = node;
            g.frames[slot].dirty = true;
            g.touch(slot);
            return;
        }
        g.install(pid, node, true, &self.store);
    }

    /// Allocate a fresh page in the underlying store.
    pub fn allocate(&self) -> PageId {
        lock(self.store.write()).allocate()
    }

    /// Append `run` — page images back to back, see
    /// [`PageStore::append_run`] — to the store as fresh pages from id
    /// `first` on, leaving the cache untouched. The bulk loader's path:
    /// its pages are written once and never read back before the pool is
    /// emptied, so caching them would only buy an LRU install and an
    /// eviction each. A page whose write failed is kept as a resident
    /// dirty frame (over-admitted past the capacity) for a later flush
    /// to retry.
    ///
    /// # Panics
    /// Panics if the store's next fresh page is not `first`: the run's
    /// inner nodes name their children by id.
    pub(crate) fn append_run(&self, first: PageId, run: Vec<u8>) {
        let pages = run.len() / self.page_size;
        let mut failed = Vec::new();
        {
            let mut store = lock(self.store.write());
            assert_eq!(store.page_bound(), first.0, "run encoded for another id");
            store.append_run(run, &mut |pid, page| {
                failed.push((pid, Node::decode(self.dim, page)))
            });
        }
        let mut g = lock(self.lru.lock());
        g.stats.physical_writes += (pages - failed.len()) as u64;
        g.write_failures += failed.len() as u64;
        for (pid, node) in failed {
            g.force_install(pid, Arc::new(node), true);
        }
    }

    /// Drop any cached copy of `pid` (without write-back) and free the
    /// page in the pager.
    pub fn free(&self, pid: PageId) {
        let mut g = lock(self.lru.lock());
        if let Some(&slot) = g.map.get(&pid.0) {
            g.drop_frame(slot);
            g.frames[slot].node = Arc::new(Node::Leaf(crate::node::LeafNode::new(1)));
        }
        lock(self.store.write()).free(pid);
    }

    /// Mark `pid`'s frame, if resident, as superseded by the in-flight
    /// mutation (see the [module docs](self)).
    pub(crate) fn supersede(&self, pid: PageId) {
        let mut g = lock(self.lru.lock());
        if let Some(&slot) = g.map.get(&pid.0) {
            if !std::mem::replace(&mut g.frames[slot].superseded, true) {
                g.superseded += 1;
            }
        }
    }

    /// Count `pid`'s frame, if still resident and superseded, against the
    /// capacity again, evicting down to it: its mutation has published,
    /// and a reader still holds the page.
    pub(crate) fn settle(&self, pid: PageId) {
        let mut g = lock(self.lru.lock());
        let Some(&slot) = g.map.get(&pid.0) else {
            return;
        };
        if std::mem::replace(&mut g.frames[slot].superseded, false) {
            g.superseded -= 1;
            g.trim(&self.store);
        }
    }

    /// Write back all dirty frames (counted as physical writes). Every
    /// frame is attempted; the first store error is returned and the
    /// frames that failed **stay resident and dirty**, so a later flush
    /// can retry once the device recovers.
    pub fn flush(&self) -> io::Result<()> {
        let mut g = lock(self.lru.lock());
        let slots: Vec<usize> = g.map.values().copied().collect();
        let mut first_err = None;
        for slot in slots {
            if let Err(e) = g.write_back(slot, &self.store) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Flush, then drop every cached frame (a "cold" buffer), leaving
    /// the stats untouched. Useful before measuring a query from a cold
    /// start. A dirty frame whose write-back fails is **not** dropped
    /// (that would lose the only copy); it stays resident for a later
    /// retry, so under an injected store outage the pool may remain
    /// warm.
    pub fn clear(&self) {
        let mut g = lock(self.lru.lock());
        let slots: Vec<usize> = g.map.values().copied().collect();
        for slot in slots {
            if g.write_back(slot, &self.store).is_ok() {
                g.drop_frame(slot);
            }
        }
        if g.map.is_empty() {
            g.frames.clear();
            g.free_slots.clear();
            g.head = NIL;
            g.tail = NIL;
        }
    }

    /// Change the capacity (clamped to ≥ 1), evicting LRU victims until
    /// the pool is within the new bound (unless unwritable dirty frames
    /// force over-admission; see [`BufferPool::flush`]).
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut g = lock(self.lru.lock());
        g.capacity = capacity.max(1);
        g.trim(&self.store);
    }

    /// Dirty write-backs that have failed at the store so far (each one
    /// left its frame resident and dirty for a retry).
    #[cfg(test)]
    pub(crate) fn write_failures(&self) -> u64 {
        lock(self.lru.lock()).write_failures
    }

    /// Current capacity in nodes/pages.
    pub fn capacity(&self) -> usize {
        lock(self.lru.lock()).capacity
    }

    /// Number of nodes currently resident.
    pub fn resident(&self) -> usize {
        lock(self.lru.lock()).map.len()
    }

    /// Number of live pages in the store (i.e., size of the tree on
    /// disk, in pages).
    pub fn live_pages(&self) -> usize {
        lock(self.store.read()).live_pages()
    }

    /// Page size of the underlying store, in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Snapshot of the I/O counters: buffer traffic plus the store's
    /// device counters (`disk_*`, zero for in-memory stores).
    pub fn stats(&self) -> IoStats {
        let buffered = lock(self.lru.lock()).stats;
        buffered + lock(self.store.read()).disk_stats()
    }

    /// Zero the I/O counters (e.g., after bulk loading, so experiments
    /// measure query cost only).
    pub fn reset_stats(&self) {
        lock(self.lru.lock()).stats = IoStats::default();
        lock(self.store.read()).reset_disk_stats();
    }

    /// Flush every dirty frame and checkpoint the underlying store with
    /// `meta` as its recovery metadata (a no-op for in-memory stores).
    /// If any write-back fails the checkpoint is **not** attempted: a
    /// header must never commit a page image that is not fully on disk.
    pub fn checkpoint(&self, meta: &[u8]) -> std::io::Result<()> {
        self.flush()?;
        lock(self.store.write()).checkpoint(meta)
    }

    /// Seed the store's free list after recovery (see
    /// [`PageStore::seed_free`]).
    pub(crate) fn seed_free(&self, free: &[u32]) {
        lock(self.store.write()).seed_free(free);
    }

    /// One past the highest page id ever allocated in the store.
    pub fn page_bound(&self) -> u32 {
        lock(self.store.read()).page_bound()
    }
}

impl Lru {
    /// Resident frames that count against the capacity.
    fn counted(&self) -> usize {
        self.map.len() - self.superseded
    }

    /// Take the frame in `slot` out of the map and the LRU list.
    fn drop_frame(&mut self, slot: usize) {
        let frame = &self.frames[slot];
        self.superseded -= usize::from(frame.superseded);
        let pid = frame.pid;
        self.map.remove(&pid);
        self.unlink(slot);
        self.free_slots.push(slot);
    }

    fn push_front(&mut self, slot: usize) {
        self.frames[slot].prev = NIL;
        self.frames[slot].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.frames[slot].prev, self.frames[slot].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Evict down to the capacity, as far as eviction can go.
    fn trim(&mut self, store: &RwLock<Box<dyn PageStore>>) {
        while self.counted() > self.capacity && self.evict_one(store) {}
    }

    fn install(
        &mut self,
        pid: PageId,
        node: Arc<Node>,
        dirty: bool,
        store: &RwLock<Box<dyn PageStore>>,
    ) {
        // If every candidate victim is dirty and unwritable, the newcomer
        // is admitted beyond the capacity rather than losing data or
        // refusing the caller. Later evictions retry the victims.
        while self.counted() >= self.capacity && self.evict_one(store) {}
        self.force_install(pid, node, dirty);
    }

    /// Insert a frame without evicting (used on over-admission).
    fn force_install(&mut self, pid: PageId, node: Arc<Node>, dirty: bool) {
        let frame = Frame {
            pid: pid.0,
            node,
            dirty,
            superseded: false,
            prev: NIL,
            next: NIL,
        };
        let slot = if let Some(s) = self.free_slots.pop() {
            self.frames[s] = frame;
            s
        } else {
            self.frames.push(frame);
            self.frames.len() - 1
        };
        self.map.insert(pid.0, slot);
        self.push_front(slot);
    }

    /// Evict one frame, scanning victims from the LRU tail toward the
    /// head. A superseded frame is passed over, and so is a dirty victim
    /// whose write-back fails (it stays resident so the data survives);
    /// returns `false` if no frame could be evicted.
    fn evict_one(&mut self, store: &RwLock<Box<dyn PageStore>>) -> bool {
        debug_assert!(self.tail != NIL, "evict called on an empty pool");
        let mut victim = self.tail;
        while victim != NIL {
            if !self.frames[victim].superseded && self.write_back(victim, store).is_ok() {
                self.drop_frame(victim);
                return true;
            }
            victim = self.frames[victim].prev;
        }
        false
    }

    /// Write the frame in `slot` to the store if it is dirty. A failure
    /// is counted and leaves the frame dirty.
    fn write_back(&mut self, slot: usize, store: &RwLock<Box<dyn PageStore>>) -> io::Result<()> {
        let frame = &self.frames[slot];
        if !frame.dirty {
            return Ok(());
        }
        // `encode` sets every byte of the prefix it reports and the
        // store zero-fills the page past it.
        frame.node.encode(&mut self.scratch);
        let len = frame.node.encoded_len();
        if let Err(e) = lock(store.write()).write(PageId(frame.pid), &self.scratch[..len]) {
            self.write_failures += 1;
            return Err(e);
        }
        self.frames[slot].dirty = false;
        self.stats.physical_writes += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafNode;
    use crate::pager::MemPager;

    fn leaf_node(dim: usize, seed: f64) -> Node {
        let mut n = LeafNode::new(dim);
        n.push(&vec![seed; dim], seed as u64);
        Node::Leaf(n)
    }

    fn pool(cap: usize) -> (BufferPool, Vec<PageId>) {
        let pool = BufferPool::new(MemPager::new(256), 2, cap);
        let mut pids = Vec::new();
        for i in 0..5 {
            let pid = pool.allocate();
            pool.put(pid, leaf_node(2, i as f64 * 0.1));
            pids.push(pid);
        }
        pool.flush().unwrap();
        (pool, pids)
    }

    #[test]
    fn hit_does_not_cost_physical_read() {
        let (pool, pids) = pool(8);
        pool.reset_stats();
        let a = pool.get(pids[0]);
        let b = pool.get(pids[0]);
        assert!(Arc::ptr_eq(&a, &b));
        let s = pool.stats();
        assert_eq!(s.logical, 2);
        assert_eq!(s.physical_reads, 0, "both were buffer hits");
    }

    #[test]
    fn miss_after_eviction_costs_read() {
        let (pool, pids) = pool(2);
        pool.clear();
        pool.reset_stats();
        pool.get(pids[0]);
        pool.get(pids[1]);
        pool.get(pids[2]); // evicts pids[0]
        pool.get(pids[0]); // miss again
        let s = pool.stats();
        assert_eq!(s.physical_reads, 4);
    }

    #[test]
    fn lru_order_protects_recently_used() {
        let (pool, pids) = pool(2);
        pool.clear();
        pool.reset_stats();
        pool.get(pids[0]);
        pool.get(pids[1]);
        pool.get(pids[0]); // touch 0 so 1 is the LRU victim
        pool.get(pids[2]); // evicts 1
        pool.get(pids[0]); // still resident -> hit
        let s = pool.stats();
        assert_eq!(s.physical_reads, 3, "pids[0] stayed hot");
    }

    #[test]
    fn a_peek_admits_nothing_and_counts_nothing() {
        let (pool, pids) = pool(2);
        pool.clear();
        pool.get(pids[0]);
        pool.get(pids[1]);
        pool.put(pids[1], leaf_node(2, 0.75)); // dirty: only the frame is current
        pool.reset_stats();
        for &pid in &pids {
            pool.peek(pid);
        }
        assert_eq!(pool.peek(pids[1]).as_leaf().point(0), &[0.75, 0.75]);
        assert_eq!(pool.peek(pids[4]).as_leaf().point(0), &[0.4, 0.4]);
        assert_eq!(pool.stats(), IoStats::default());
        assert_eq!(pool.resident(), 2);
        // pids[0] is still the LRU victim: peeking did not touch it.
        pool.peek(pids[0]);
        pool.get(pids[2]);
        pool.get(pids[1]);
        assert_eq!(pool.stats().physical_reads, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let pager = MemPager::new(256);
        let pool = BufferPool::new(pager, 2, 1);
        let a = pool.allocate();
        let b = pool.allocate();
        pool.put(a, leaf_node(2, 0.25)); // dirty
        pool.put(b, leaf_node(2, 0.5)); // evicts a -> must write it
        let s = pool.stats();
        assert_eq!(s.physical_writes, 1);
        // a round-trips through the pager correctly
        let back = pool.get(a);
        assert_eq!(back.as_leaf().point(0), &[0.25, 0.25]);
    }

    #[test]
    fn flush_writes_all_dirty_frames_once() {
        let (pool, pids) = pool(8);
        pool.reset_stats();
        pool.put(pids[0], leaf_node(2, 0.9));
        pool.put(pids[1], leaf_node(2, 0.8));
        pool.flush().unwrap();
        assert_eq!(pool.stats().physical_writes, 2);
        pool.flush().unwrap(); // now clean: no extra writes
        assert_eq!(pool.stats().physical_writes, 2);
    }

    #[test]
    fn set_capacity_evicts_down_to_bound() {
        let (pool, _pids) = pool(8);
        assert_eq!(pool.resident(), 5);
        pool.set_capacity(2);
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.capacity(), 2);
    }

    /// A superseded frame stays readable but outside the share, and no
    /// eviction picks it; settled, it counts again and the pool trims
    /// back to its capacity.
    #[test]
    fn a_superseded_frame_is_outside_the_share_until_settled() {
        let (pool, pids) = pool(2);
        pool.clear();
        pool.get(pids[0]);
        pool.get(pids[1]);
        pool.put(pids[0], leaf_node(2, 0.9)); // dirty
        pool.get(pids[1]); // pids[0] is the LRU tail
        pool.supersede(pids[0]);
        pool.reset_stats();
        pool.get(pids[2]); // room without evicting anyone
        assert_eq!(pool.resident(), 3);
        pool.get(pids[3]); // evicts pids[1], passing over pids[0]
        assert_eq!(pool.get(pids[0]).as_leaf().point(0), &[0.9, 0.9]);
        let s = pool.stats();
        assert_eq!((s.physical_reads, s.physical_writes), (2, 0));
        pool.settle(pids[0]);
        assert_eq!(pool.resident(), 2);
        pool.free(pids[2]);
        pool.free(pids[3]);
        pool.get(pids[1]);
        pool.get(pids[4]);
        assert_eq!(pool.resident(), 2, "the count survives frees");
    }

    #[test]
    fn free_drops_frame_without_write_back() {
        let (pool, pids) = pool(8);
        pool.reset_stats();
        pool.put(pids[3], leaf_node(2, 0.7)); // dirty
        pool.free(pids[3]);
        assert_eq!(pool.stats().physical_writes, 0);
        assert_eq!(pool.resident(), 4);
    }

    #[test]
    fn clear_leaves_pool_cold_but_consistent() {
        let (pool, pids) = pool(8);
        pool.clear();
        assert_eq!(pool.resident(), 0);
        pool.reset_stats();
        pool.get(pids[4]);
        assert_eq!(pool.stats().physical_reads, 1);
    }

    /// Four threads mix `get` and `put` over 32 pages through a pool of
    /// 8. Each thread owns 8 pages, so the image it last put on a page
    /// is the one every later `get` of that page must return.
    #[test]
    fn concurrent_gets_and_puts_stay_bounded_exact_and_current() {
        const THREADS: usize = 4;
        const OWN: usize = 8;
        const OPS: usize = 600;
        let pool = BufferPool::new(MemPager::new(256), 2, 8);
        let pids: Vec<PageId> = (0..THREADS * OWN).map(|_| pool.allocate()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            pool.put(pid, leaf_node(2, i as f64));
        }
        pool.clear();
        pool.reset_stats();
        std::thread::scope(|s| {
            for (t, own) in pids.chunks(OWN).enumerate() {
                let pool = &pool;
                s.spawn(move || {
                    let mut last: Vec<f64> = (0..OWN).map(|j| (t * OWN + j) as f64).collect();
                    for i in 0..OPS {
                        let j = (i * 5 + t) % OWN;
                        if i % 3 == 0 {
                            last[j] = (1_000 * (t + 1) + i) as f64;
                            pool.put(own[j], leaf_node(2, last[j]));
                        } else {
                            let got = pool.get(own[j]).as_leaf().point(0)[0];
                            assert_eq!(got, last[j], "thread {t}, page {j}, op {i}");
                        }
                        assert!(pool.resident() <= pool.capacity());
                    }
                });
            }
        });
        assert_eq!(
            pool.stats().logical,
            (THREADS * OPS) as u64,
            "every call is counted"
        );
        assert!(pool.resident() <= pool.capacity());
    }

    // ------------------------------------------------------------------
    // Failure resilience (injected store faults)
    // ------------------------------------------------------------------

    use crate::fault::{FaultInjector, FaultKind, FaultOp, FaultPageStore};

    fn faulty_pool(cap: usize) -> (BufferPool, Arc<FaultInjector>) {
        let inj = FaultInjector::shared();
        let store = FaultPageStore::new(MemPager::new(256), Arc::clone(&inj));
        (BufferPool::new(store, 2, cap), inj)
    }

    #[test]
    fn failed_flush_keeps_frames_dirty_for_retry() {
        let (pool, inj) = faulty_pool(8);
        let a = pool.allocate();
        pool.put(a, leaf_node(2, 0.25));
        inj.fail_from(FaultOp::PageWrite, 0, FaultKind::Error);
        assert!(pool.flush().is_err());
        assert!(pool.write_failures() >= 1);
        assert_eq!(pool.resident(), 1, "failed frame stays resident");
        // Device recovers: the retry succeeds and the data lands.
        inj.clear();
        pool.flush().unwrap();
        pool.clear();
        let back = pool.get(a);
        assert_eq!(back.as_leaf().point(0), &[0.25, 0.25]);
    }

    #[test]
    fn clear_never_drops_an_unwritable_dirty_frame() {
        let (pool, inj) = faulty_pool(8);
        let a = pool.allocate();
        pool.put(a, leaf_node(2, 0.75));
        inj.fail_from(FaultOp::PageWrite, 0, FaultKind::Enospc);
        pool.clear();
        assert_eq!(pool.resident(), 1, "dirty frame must survive clear");
        inj.clear();
        pool.flush().unwrap();
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.get(a).as_leaf().point(0), &[0.75, 0.75]);
    }

    #[test]
    fn eviction_over_admits_rather_than_losing_data() {
        let (pool, inj) = faulty_pool(1);
        let a = pool.allocate();
        let b = pool.allocate();
        pool.put(a, leaf_node(2, 0.1)); // dirty, resident
        inj.fail_from(FaultOp::PageWrite, 0, FaultKind::Error);
        pool.put(b, leaf_node(2, 0.2)); // wants to evict a; write-back fails
        assert_eq!(pool.resident(), 2, "over-admitted past capacity 1");
        inj.clear();
        pool.flush().unwrap();
        pool.clear();
        assert_eq!(pool.get(a).as_leaf().point(0), &[0.1, 0.1]);
        assert_eq!(pool.get(b).as_leaf().point(0), &[0.2, 0.2]);
    }

    #[test]
    fn checkpoint_is_refused_while_pages_cannot_be_flushed() {
        let (pool, inj) = faulty_pool(4);
        let a = pool.allocate();
        pool.put(a, leaf_node(2, 0.3));
        inj.fail_from(FaultOp::PageWrite, 0, FaultKind::Error);
        assert!(pool.checkpoint(b"meta").is_err());
        inj.clear();
        pool.checkpoint(b"meta").unwrap();
    }
}
