//! Sharded LRU buffer pool caching decoded nodes above the pager.
//!
//! The paper's experiments use "an LRU memory buffer with default size 2%
//! of the tree size"; all reported I/O numbers are physical accesses that
//! miss this buffer. [`BufferPool`] implements exactly that: a bounded
//! cache of decoded nodes with O(1) least-recently-used eviction
//! (hash map + intrusive doubly-linked list), write-back of dirty pages,
//! and the [`IoStats`] counters.
//!
//! # Sharding
//!
//! A long-lived engine serves many concurrent evaluations from one tree,
//! and with a single lock every node access of every thread funnels
//! through the same mutex. The pool is therefore split into `N` **lock
//! shards keyed by page id** (`pid % N`): concurrent `get` calls on
//! pages of different shards never contend, and the pager below is an
//! `RwLock`, so cache misses on distinct pages decode concurrently too.
//!
//! Sharding changes *synchronization*, not *semantics*:
//!
//! * the **capacity is a global bound** — per-shard LRU bounds sum to
//!   exactly the configured capacity (shard `i` gets `cap/N`, with the
//!   remainder spread over the first `cap % N` shards), and
//!   `BufferPool::set_capacity` / [`BufferPool::clear`] evict down to
//!   the global bound across every shard;
//! * the [`IoStats`] counters are kept per shard and summed on read, so
//!   whole-pool accounting stays exact;
//! * with one shard (the [`BufferPool::new`] default) the pool is
//!   bit-for-bit the classic single-LRU of the paper's experiments —
//!   eviction order, counters, everything.
//!
//! A shard whose capacity share is zero (more shards than buffer pages)
//! caches nothing: reads on it are served straight from the pager and
//! writes go through immediately. Eviction is LRU *within* a shard; with
//! `N > 1` the global reference order is only approximated, which is the
//! usual trade sharded caches make.
//!
//! Nodes are handed out as `Arc<Node>` clones so read paths never copy
//! node payloads; writers install fresh nodes with [`BufferPool::put`].
//!
//! A page an in-flight tree mutation has superseded stays readable (a
//! pinned snapshot may still walk it) but no longer counts against its
//! shard's share, and eviction passes it over: the mutation frees it at
//! publish unless a reader still holds it, so writing it back or
//! evicting a live page for it would both be waste. Publish settles it
//! back into the count (see [`crate::tree`]).

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// share and never an eviction victim.
    superseded: bool,
    prev: usize,
    next: usize,
}

struct Shard {
    map: HashMap<u32, usize>,
    frames: Vec<Frame>,
    free_slots: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    /// Resident frames marked superseded.
    superseded: usize,
    stats: IoStats,
    scratch: Vec<u8>,
}

/// A thread-safe, sharded LRU buffer pool over any [`PageStore`]
/// (in-memory [`crate::pager::MemPager`] or file-backed
/// [`crate::disk::DiskPager`]).
///
/// All node traffic of an [`crate::RTree`] flows through this type, which
/// is what makes the I/O accounting exact: `logical` counts every request,
/// `physical_reads` counts misses, `physical_writes` counts dirty
/// write-backs (and a disk-backed store contributes its `disk_*` device
/// counters). See the [module docs](self) for the sharding model.
pub struct BufferPool {
    store: RwLock<Box<dyn PageStore>>,
    dim: usize,
    page_size: usize,
    cap: AtomicUsize,
    shards: Box<[Mutex<Shard>]>,
    /// Dirty write-backs that failed at the store. Each failure leaves
    /// the frame resident and dirty (possibly over-admitting its shard
    /// past the capacity share) so no committed data is lost; a later
    /// [`BufferPool::flush`] or eviction retries the write.
    write_failures: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity())
            .field("shards", &self.shards.len())
            .field("resident", &self.resident())
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// Create a single-shard pool over `store` caching up to `capacity`
    /// nodes of a `dim`-dimensional tree — the classic one-lock LRU.
    /// Capacities below 1 are clamped to 1.
    pub fn new<S: PageStore + 'static>(store: S, dim: usize, capacity: usize) -> BufferPool {
        BufferPool::with_shards(store, dim, capacity, 1)
    }

    /// Create a pool with `shards` lock shards (clamped to ≥ 1). The
    /// `capacity` is the **global** bound across all shards.
    pub(crate) fn with_shards<S: PageStore + 'static>(
        store: S,
        dim: usize,
        capacity: usize,
        shards: usize,
    ) -> BufferPool {
        BufferPool::with_boxed_store(Box::new(store), dim, capacity, shards)
    }

    /// Like [`BufferPool::with_shards`] but taking an already-boxed store
    /// (avoids double boxing when a pool is rebuilt around an existing
    /// store, e.g. on re-sharding).
    pub(crate) fn with_boxed_store(
        store: Box<dyn PageStore>,
        dim: usize,
        capacity: usize,
        shards: usize,
    ) -> BufferPool {
        let page = store.page_size();
        let n = shards.max(1);
        let shards = (0..n)
            .map(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    frames: Vec::new(),
                    free_slots: Vec::new(),
                    head: NIL,
                    tail: NIL,
                    superseded: 0,
                    stats: IoStats::default(),
                    scratch: vec![0u8; page],
                })
            })
            .collect();
        BufferPool {
            store: RwLock::new(store),
            dim,
            page_size: page,
            cap: AtomicUsize::new(capacity.max(1)),
            shards,
            write_failures: AtomicU64::new(0),
        }
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, pid: PageId) -> usize {
        pid.0 as usize % self.shards.len()
    }

    /// Capacity share of shard `i`: `cap/N` plus one of the `cap % N`
    /// remainder pages. Shares sum to exactly the global capacity.
    #[inline]
    fn share(&self, i: usize) -> usize {
        let cap = self.cap.load(Ordering::Relaxed);
        let n = self.shards.len();
        cap / n + usize::from(i < cap % n)
    }

    /// Flush every shard and unwrap the underlying store (used when the
    /// pool is rebuilt with a different shard count). Intended for
    /// healthy stores: a frame whose write-back still fails here is
    /// dropped with the pool.
    pub(crate) fn into_store(self) -> Box<dyn PageStore> {
        let _ = self.flush();
        lock(self.store.into_inner())
    }

    /// Seed the aggregate I/O counters (credited to shard 0). Used when a
    /// pool is rebuilt so re-sharding never loses accounting history. The
    /// `disk_*` fields are stripped: the store travels with the rebuild
    /// and keeps its own device counters.
    pub(crate) fn seed_stats(&self, stats: IoStats) {
        lock(self.shards[0].lock()).stats = IoStats {
            disk_reads: 0,
            disk_writes: 0,
            fsyncs: 0,
            ..stats
        };
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
        let si = self.shard_of(pid);
        let mut g = lock(self.shards[si].lock());
        g.stats.logical += 1;
        if let Some(&slot) = g.map.get(&pid.0) {
            g.touch(slot);
            return (Arc::clone(&g.frames[slot].node), false);
        }
        g.stats.physical_reads += 1;
        let node = {
            let store = lock(self.store.read());
            store
                .read_into(pid, &mut g.scratch)
                .unwrap_or_else(|e| panic!("unserviceable read of page {pid}: {e}"));
            drop(store);
            Arc::new(Node::decode(self.dim, &g.scratch))
        };
        let share = self.share(si);
        if share > 0 {
            g.install(
                pid,
                Arc::clone(&node),
                false,
                share,
                &self.store,
                &self.write_failures,
            );
        }
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
        let mut g = lock(self.shards[self.shard_of(pid)].lock());
        if let Some(&slot) = g.map.get(&pid.0) {
            return Arc::clone(&g.frames[slot].node);
        }
        lock(self.store.read())
            .read_into(pid, &mut g.scratch)
            .unwrap_or_else(|e| panic!("unserviceable read of page {pid}: {e}"));
        Arc::new(Node::decode(self.dim, &g.scratch))
    }

    /// Install a (possibly new) node image for `pid`, marking it dirty.
    /// On a shard with a zero capacity share the page is written through
    /// to the pager instead of cached — unless that write fails, in
    /// which case the frame is cached anyway (over-admitted) so the
    /// update survives for a later flush to retry.
    pub fn put(&self, pid: PageId, node: Node) {
        let si = self.shard_of(pid);
        let mut g = lock(self.shards[si].lock());
        g.stats.logical += 1;
        let node = Arc::new(node);
        if let Some(&slot) = g.map.get(&pid.0) {
            g.frames[slot].node = node;
            g.frames[slot].dirty = true;
            g.touch(slot);
            return;
        }
        let share = self.share(si);
        if share > 0 {
            g.install(pid, node, true, share, &self.store, &self.write_failures);
        } else if g.write_through(pid, &node, &self.store).is_err() {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            g.force_install(pid, node, true);
        }
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
    /// dirty frame (over-admitted, like a failed zero-share
    /// write-through in [`BufferPool::put`]) for a later flush to retry.
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
        lock(self.shards[0].lock()).stats.physical_writes += (pages - failed.len()) as u64;
        for (pid, node) in failed {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            let mut shard = lock(self.shards[self.shard_of(pid)].lock());
            shard.force_install(pid, Arc::new(node), true);
        }
    }

    /// Drop any cached copy of `pid` (without write-back) and free the
    /// page in the pager.
    pub fn free(&self, pid: PageId) {
        let si = self.shard_of(pid);
        let mut g = lock(self.shards[si].lock());
        if let Some(&slot) = g.map.get(&pid.0) {
            g.drop_frame(slot);
            g.frames[slot].node = Arc::new(Node::Leaf(crate::node::LeafNode::new(1)));
        }
        lock(self.store.write()).free(pid);
    }

    /// Mark `pid`'s frame, if resident, as superseded by the in-flight
    /// mutation (see the [module docs](self)).
    pub(crate) fn supersede(&self, pid: PageId) {
        let mut g = lock(self.shards[self.shard_of(pid)].lock());
        if let Some(&slot) = g.map.get(&pid.0) {
            if !std::mem::replace(&mut g.frames[slot].superseded, true) {
                g.superseded += 1;
            }
        }
    }

    /// Count `pid`'s frame, if still resident and superseded, against its
    /// shard's share again, evicting down to the share: its mutation has
    /// published, and a reader still holds the page.
    pub(crate) fn settle(&self, pid: PageId) {
        let si = self.shard_of(pid);
        let mut g = lock(self.shards[si].lock());
        let Some(&slot) = g.map.get(&pid.0) else {
            return;
        };
        if std::mem::replace(&mut g.frames[slot].superseded, false) {
            g.superseded -= 1;
            let share = self.share(si);
            while g.counted() > share && g.evict_one(&self.store, &self.write_failures) {}
        }
    }

    /// Write back all dirty frames (counted as physical writes). Every
    /// frame is attempted; the first store error is returned and the
    /// frames that failed **stay resident and dirty**, so a later flush
    /// can retry once the device recovers.
    pub fn flush(&self) -> io::Result<()> {
        let mut first_err = None;
        for shard in self.shards.iter() {
            let mut g = lock(shard.lock());
            let slots: Vec<usize> = g.map.values().copied().collect();
            for slot in slots {
                if let Err(e) = g.write_back(slot, &self.store) {
                    self.write_failures.fetch_add(1, Ordering::Relaxed);
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Flush, then drop every cached frame in every shard (a "cold"
    /// buffer), leaving the stats untouched. Useful before measuring a
    /// query from a cold start. A dirty frame whose write-back fails is
    /// **not** dropped (that would lose the only copy); it stays
    /// resident for a later retry, so under an injected store outage the
    /// pool may remain warm.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut g = lock(shard.lock());
            let slots: Vec<usize> = g.map.values().copied().collect();
            let mut kept = false;
            for slot in slots {
                if g.write_back(slot, &self.store).is_err() {
                    self.write_failures.fetch_add(1, Ordering::Relaxed);
                    kept = true;
                    continue;
                }
                g.drop_frame(slot);
            }
            if !kept && g.map.is_empty() {
                g.frames.clear();
                g.free_slots.clear();
                g.head = NIL;
                g.tail = NIL;
            }
        }
    }

    /// Change the **global** capacity (clamped to ≥ 1), evicting LRU
    /// victims in every shard until the pool is within the new bound:
    /// each shard is trimmed to its share of the global capacity, so the
    /// total resident count never exceeds the bound (unless unwritable
    /// dirty frames force over-admission; see [`BufferPool::flush`]).
    pub(crate) fn set_capacity(&self, capacity: usize) {
        self.cap.store(capacity.max(1), Ordering::Relaxed);
        for (i, shard) in self.shards.iter().enumerate() {
            let share = self.share(i);
            let mut g = lock(shard.lock());
            while g.counted() > share {
                if !g.evict_one(&self.store, &self.write_failures) {
                    break;
                }
            }
        }
    }

    /// Dirty write-backs that have failed at the store so far (each one
    /// left its frame resident and dirty for a retry).
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }

    /// Current global capacity in nodes/pages.
    pub fn capacity(&self) -> usize {
        self.cap.load(Ordering::Relaxed)
    }

    /// Number of nodes currently resident across all shards.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| lock(s.lock()).map.len()).sum()
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

    /// Snapshot of the I/O counters: buffer traffic summed across shards,
    /// plus the store's device counters (`disk_*`, zero for in-memory
    /// stores).
    pub fn stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for shard in self.shards.iter() {
            total += lock(shard.lock()).stats;
        }
        total + lock(self.store.read()).disk_stats()
    }

    /// Zero the I/O counters (e.g., after bulk loading, so experiments
    /// measure query cost only).
    pub fn reset_stats(&self) {
        for shard in self.shards.iter() {
            lock(shard.lock()).stats = IoStats::default();
        }
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

impl Shard {
    /// Resident frames that count against the shard's share.
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

    fn install(
        &mut self,
        pid: PageId,
        node: Arc<Node>,
        dirty: bool,
        share: usize,
        store: &RwLock<Box<dyn PageStore>>,
        failures: &AtomicU64,
    ) {
        debug_assert!(share > 0, "zero-share shards must not cache");
        while self.counted() >= share {
            if !self.evict_one(store, failures) {
                // Every candidate victim is dirty and unwritable: admit
                // the newcomer beyond the share rather than lose data or
                // refuse the caller. Later evictions retry the victims.
                break;
            }
        }
        self.force_install(pid, node, dirty);
    }

    /// Insert a frame without evicting (used on over-admission).
    fn force_install(&mut self, pid: PageId, node: Arc<Node>, dirty: bool) {
        let slot = if let Some(s) = self.free_slots.pop() {
            self.frames[s] = Frame {
                pid: pid.0,
                node,
                dirty,
                superseded: false,
                prev: NIL,
                next: NIL,
            };
            s
        } else {
            self.frames.push(Frame {
                pid: pid.0,
                node,
                dirty,
                superseded: false,
                prev: NIL,
                next: NIL,
            });
            self.frames.len() - 1
        };
        self.map.insert(pid.0, slot);
        self.push_front(slot);
    }

    /// Evict one frame, scanning victims from the LRU tail toward the
    /// head. A superseded frame is passed over, and so is a dirty victim
    /// whose write-back fails (it stays resident so the data survives);
    /// returns `false` if no frame could be evicted.
    fn evict_one(&mut self, store: &RwLock<Box<dyn PageStore>>, failures: &AtomicU64) -> bool {
        debug_assert!(self.tail != NIL, "evict called on empty shard");
        let mut victim = self.tail;
        while victim != NIL {
            if self.frames[victim].superseded {
                victim = self.frames[victim].prev;
                continue;
            }
            match self.write_back(victim, store) {
                Ok(()) => {
                    self.drop_frame(victim);
                    return true;
                }
                Err(_) => {
                    failures.fetch_add(1, Ordering::Relaxed);
                    victim = self.frames[victim].prev;
                }
            }
        }
        false
    }

    fn write_back(&mut self, slot: usize, store: &RwLock<Box<dyn PageStore>>) -> io::Result<()> {
        if !self.frames[slot].dirty {
            return Ok(());
        }
        let pid = PageId(self.frames[slot].pid);
        let node = Arc::clone(&self.frames[slot].node);
        self.encode_and_write(pid, &node, store)?;
        self.frames[slot].dirty = false;
        self.stats.physical_writes += 1;
        Ok(())
    }

    /// Uncached write of `node` to `pid` (zero-share shards).
    fn write_through(
        &mut self,
        pid: PageId,
        node: &Node,
        store: &RwLock<Box<dyn PageStore>>,
    ) -> io::Result<()> {
        self.encode_and_write(pid, node, store)?;
        self.stats.physical_writes += 1;
        Ok(())
    }

    fn encode_and_write(
        &mut self,
        pid: PageId,
        node: &Node,
        store: &RwLock<Box<dyn PageStore>>,
    ) -> io::Result<()> {
        // `encode` sets every byte of the prefix it reports and the
        // store zero-fills the page past it.
        node.encode(&mut self.scratch);
        let len = node.encoded_len();
        lock(store.write()).write(pid, &self.scratch[..len])
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
        pool_sharded(cap, 1)
    }

    fn pool_sharded(cap: usize, shards: usize) -> (BufferPool, Vec<PageId>) {
        let pager = MemPager::new(256);
        let pool = BufferPool::with_shards(pager, 2, cap, shards);
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

    // ------------------------------------------------------------------
    // Sharded-pool behavior
    // ------------------------------------------------------------------

    #[test]
    fn sharded_pool_round_trips_all_pages() {
        let (pool, pids) = pool_sharded(8, 3);
        assert_eq!(pool.shard_count(), 3);
        for (i, &pid) in pids.iter().enumerate() {
            let node = pool.get(pid);
            assert_eq!(node.as_leaf().point(0), &[i as f64 * 0.1, i as f64 * 0.1]);
        }
    }

    #[test]
    fn shard_shares_sum_to_global_capacity() {
        // cap 5 over 3 shards: shares 2, 2, 1.
        let (pool, _) = pool_sharded(5, 3);
        let shares: Vec<usize> = (0..3).map(|i| pool.share(i)).collect();
        assert_eq!(shares, vec![2, 2, 1]);
        assert_eq!(shares.iter().sum::<usize>(), pool.capacity());
    }

    #[test]
    fn sharded_resident_never_exceeds_global_capacity() {
        // Regression for the shard-boundary semantics: 5 sequential pids
        // over 2 shards (pids 0,2,4 -> shard 0; 1,3 -> shard 1) with
        // global cap 3 (shares 2 + 1). Warming every page must leave
        // exactly share-many residents per shard: 2 + 1 = 3 — the global
        // bound, not a per-shard bound of 3 each.
        let (pool, pids) = pool_sharded(3, 2);
        pool.clear();
        for &pid in &pids {
            pool.get(pid);
        }
        assert_eq!(pool.resident(), 3);
        // shard 0 holds the 2 most recent of {0,2,4}; shard 1 holds 3
        assert!(
            !pool.shards.iter().any(|s| lock(s.lock()).map.len() > 2),
            "no shard may exceed its share"
        );
    }

    #[test]
    fn set_capacity_trims_across_shards_to_global_bound() {
        // 5 pages over 4 shards; pids 0..5 land on shards 0,1,2,3,0.
        let (pool, pids) = pool_sharded(8, 4);
        pool.clear();
        for &pid in &pids {
            pool.get(pid);
        }
        assert_eq!(pool.resident(), 5);
        // Global cap 5 -> shares (2,1,1,1): shard 0 keeps both its pages.
        pool.set_capacity(5);
        assert_eq!(pool.resident(), 5);
        // Global cap 2 -> shares (1,1,0,0): shards 2 and 3 fully evict.
        pool.set_capacity(2);
        assert_eq!(pool.resident(), 2, "evicted to the global bound");
        // And a dirty page trimmed away must have been written back.
        pool.reset_stats();
        for &pid in &pids {
            let n = pool.get(pid);
            let _ = n;
        }
        assert!(pool.stats().physical_reads >= 3, "trimmed pages are cold");
    }

    #[test]
    fn zero_share_shard_serves_uncached_reads_and_writes() {
        // cap 1 over 2 shards: shard 1 has share 0 and caches nothing.
        let pager = MemPager::new(256);
        let pool = BufferPool::with_shards(pager, 2, 1, 2);
        let a = pool.allocate(); // pid 0 -> shard 0 (share 1)
        let b = pool.allocate(); // pid 1 -> shard 1 (share 0)
        pool.put(a, leaf_node(2, 0.3));
        pool.put(b, leaf_node(2, 0.6)); // write-through
        assert_eq!(pool.resident(), 1, "only the share-1 shard caches");
        pool.reset_stats();
        let n1 = pool.get(b);
        let n2 = pool.get(b);
        assert_eq!(n1.as_leaf().point(0), &[0.6, 0.6]);
        assert_eq!(n2.as_leaf().point(0), &[0.6, 0.6]);
        let s = pool.stats();
        assert_eq!(s.physical_reads, 2, "share-0 shard never caches");
    }

    #[test]
    fn sharded_clear_leaves_every_shard_cold() {
        let (pool, pids) = pool_sharded(8, 3);
        for &pid in &pids {
            pool.get(pid);
        }
        pool.clear();
        assert_eq!(pool.resident(), 0);
        pool.reset_stats();
        for &pid in &pids {
            pool.get(pid);
        }
        assert_eq!(pool.stats().physical_reads, 5, "all shards were cold");
    }

    #[test]
    fn sharded_stats_sum_exactly() {
        let (pool, pids) = pool_sharded(16, 4);
        pool.clear();
        pool.reset_stats();
        for &pid in &pids {
            pool.get(pid); // 5 misses
        }
        for &pid in &pids {
            pool.get(pid); // 5 hits
        }
        let s = pool.stats();
        assert_eq!(s.logical, 10);
        assert_eq!(s.physical_reads, 5);
    }

    #[test]
    fn concurrent_gets_on_distinct_shards_stay_consistent() {
        use std::sync::Arc as StdArc;
        let (pool, pids) = pool_sharded(8, 4);
        pool.clear();
        pool.reset_stats();
        let pool = StdArc::new(pool);
        let mut handles = Vec::new();
        for t in 0..4usize {
            let pool = StdArc::clone(&pool);
            let pids = pids.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let pid = pids[(t + i) % pids.len()];
                    let node = pool.get(pid);
                    assert!(!node.as_leaf().is_empty());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.logical, 4 * 200, "every access is counted");
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
    fn zero_share_write_through_failure_caches_the_frame() {
        // cap 1 over 2 shards: shard 1 has share 0 and writes through.
        let inj = FaultInjector::shared();
        let store = FaultPageStore::new(MemPager::new(256), Arc::clone(&inj));
        let pool = BufferPool::with_shards(store, 2, 1, 2);
        let _a = pool.allocate(); // pid 0 -> shard 0
        let b = pool.allocate(); // pid 1 -> shard 1 (share 0)
        inj.fail_from(FaultOp::PageWrite, 0, FaultKind::Error);
        pool.put(b, leaf_node(2, 0.6)); // write-through fails -> cached
        assert_eq!(pool.resident(), 1, "update must be retained in memory");
        assert_eq!(pool.get(b).as_leaf().point(0), &[0.6, 0.6]);
        inj.clear();
        pool.flush().unwrap();
        pool.clear();
        assert_eq!(pool.get(b).as_leaf().point(0), &[0.6, 0.6]);
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
