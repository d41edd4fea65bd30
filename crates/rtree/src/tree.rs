//! The paged R\*-tree.
//!
//! [`RTree`] ties the substrate together: nodes live on pages
//! ([`crate::pager`]), all traffic flows through the LRU buffer pool
//! ([`crate::buffer`]), construction uses STR packing ([`crate::bulk`]),
//! overflow handling uses the R\* topological split ([`crate::split`]),
//! and deletion uses Guttman's condense-tree with re-insertion.
//!
//! The tree stores points (objects with `D` attributes in `[0,1]`), keyed
//! by a `u64` object id. Duplicate points and duplicate ids are allowed;
//! a deletion removes the entry matching both the coordinates and the id.
//!
//! # Copy-on-write epochs
//!
//! Mutations take `&self` and never overwrite a live page. Instead the
//! writer *path-copies*: every node touched by an insert or delete is
//! rewritten to a freshly allocated page, parents are rewired
//! (`InnerNode::set_child`) up to a new root, and the new
//! root is published atomically as the next **epoch**. Readers pin a
//! [`Snapshot`] (see [`RTree::snapshot`]) and traverse a frozen root;
//! in-flight readers on older epochs keep seeing their version while
//! writers advance. Pages superseded by a mutation are *retired*, not
//! freed — they are reclaimed only once no pinned snapshot is old enough
//! to reference them (epoch-based reclamation).
//!
//! Writers are serialized by an internal lock; readers never block
//! writers and vice versa (beyond per-page buffer-pool latching).
//!
//! One mutation is one epoch: [`RTree::apply`] removes an entry, inserts
//! one, or both, in one copy-on-write pass, and publishes the result
//! once. A page the pass itself allocated is invisible to readers, so
//! when the pass comes back to it, it is rewritten in place rather than
//! copied again. Each epoch carries a caller's **stamp** beside its root
//! (an engine stamps its inventory version), so a reader that pins an
//! epoch learns which version it holds under the same lock. The stamp
//! is not persisted: a reopened tree starts at 0.
//!
//! # Persistence
//!
//! Any [`PageStore`] can back the tree. With a
//! [`crate::disk::DiskPager`], [`RTree::checkpoint`] flushes all dirty
//! pages and durably commits the current root/epoch (plus caller
//! metadata, e.g. a WAL sequence number) into the store's header;
//! [`RTree::open`] recovers that state, then walks the tree from the
//! recovered root to re-seed the store's free list with every
//! unreachable page — no free list needs to be persisted, and the walk
//! doubles as a structural validation of the recovered tree.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::{Arc, Mutex};

use crate::buffer::BufferPool;
use crate::bulk::{sort_key, str_bulk_load, thread_budget, Layout};
use crate::geometry::{enlargement, rect_area, rect_contains_point, rect_overlap, Mbr};
use crate::lock;
use crate::node::{InnerNode, LeafNode, Node};
use crate::pager::{MemPager, PageId, PageStore};
use crate::points::PointSet;
use crate::split::{rstar_split, SplitEntry};
use crate::stats::IoStats;

/// Construction parameters for an [`RTree`].
#[derive(Debug, Clone)]
pub struct RTreeParams {
    /// Page (node) size in bytes. The paper uses 4096.
    pub page_size: usize,
    /// Minimum node fill as a fraction of capacity (R\* default 0.4).
    pub min_fill_ratio: f64,
    /// Buffer-pool capacity in pages. Experiments typically override this
    /// to 2% of the tree size after bulk loading
    /// (see [`RTree::set_buffer_capacity`]).
    pub buffer_capacity: usize,
}

impl Default for RTreeParams {
    fn default() -> Self {
        RTreeParams {
            page_size: 4096,
            min_fill_ratio: 0.4,
            buffer_capacity: 128,
        }
    }
}

/// The published tree version: root page, shape, epoch, and the
/// caller's stamp.
#[derive(Debug, Clone, Copy)]
struct TreeState {
    root: PageId,
    height: u32,
    len: u64,
    epoch: u64,
    stamp: u64,
}

/// Epoch bookkeeping: which epochs have pinned readers, and which retired
/// pages await reclamation.
#[derive(Default)]
struct Epochs {
    /// Pinned reader count per epoch.
    active: BTreeMap<u64, usize>,
    /// `(retire_epoch, page)`: the page was superseded when
    /// `retire_epoch` was published, so readers pinned at epochs `<
    /// retire_epoch` may still need it. Freed once the minimum pinned
    /// epoch reaches `retire_epoch`.
    retired: Vec<(u64, PageId)>,
}

/// A pinned, immutable view of one tree epoch.
///
/// While a snapshot is alive, every page reachable from its root stays
/// allocated even if concurrent writers supersede them — traversals from
/// [`Snapshot::root_page`] are stable. Dropping the snapshot unpins the
/// epoch and lets deferred reclamation free superseded pages.
pub struct Snapshot<'t> {
    tree: &'t RTree,
    state: TreeState,
}

impl Snapshot<'_> {
    /// Root page of the pinned epoch.
    #[inline]
    pub fn root_page(&self) -> PageId {
        self.state.root
    }

    /// Tree height of the pinned epoch (1 = the root is a leaf).
    #[inline]
    pub fn height(&self) -> u32 {
        self.state.height
    }

    /// Number of indexed points in the pinned epoch.
    #[inline]
    pub fn len(&self) -> u64 {
        self.state.len
    }

    /// True iff the pinned epoch holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.state.len == 0
    }

    /// The epoch this snapshot pins.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The caller's stamp published with the pinned epoch (see
    /// [`RTree::apply`]).
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.state.stamp
    }
}

impl Drop for Snapshot<'_> {
    fn drop(&mut self) {
        self.tree.unpin(self.state.epoch);
    }
}

/// Scratch state of one in-flight mutation: the working (unpublished)
/// root/shape, pages allocated by this mutation (invisible to readers —
/// freed immediately if superseded again), and live pages it superseded
/// (retired at publish).
struct MutCtx {
    root: PageId,
    height: u32,
    len: u64,
    fresh: HashSet<u32>,
    retired: Vec<PageId>,
}

impl MutCtx {
    fn from_state(st: TreeState) -> MutCtx {
        MutCtx {
            root: st.root,
            height: st.height,
            len: st.len,
            fresh: HashSet::new(),
            retired: Vec::new(),
        }
    }
}

/// A paged R\*-tree over `D`-dimensional points, mutable in place with
/// copy-on-write epoch snapshots.
///
/// See the [crate docs](crate) for an example.
pub struct RTree {
    dim: usize,
    leaf_cap: usize,
    inner_cap: usize,
    leaf_min: usize,
    inner_min: usize,
    min_fill_ratio: f64,
    buf: BufferPool,
    state: Mutex<TreeState>,
    /// Serializes mutators; readers never take this.
    writer: Mutex<()>,
    epochs: Mutex<Epochs>,
}

impl std::fmt::Debug for RTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = *lock(self.state.lock());
        f.debug_struct("RTree")
            .field("dim", &self.dim)
            .field("len", &st.len)
            .field("height", &st.height)
            .field("epoch", &st.epoch)
            .field("pages", &self.buf.live_pages())
            .finish()
    }
}

/// An entry waiting to be (re-)inserted at a specific level.
#[derive(Debug, Clone)]
enum Pending {
    Point { p: Box<[f64]>, oid: u64 },
    Child { pid: PageId, level: u8, mbr: Mbr },
}

impl Pending {
    /// Level of the node that should *host* this entry.
    fn host_level(&self) -> u8 {
        match self {
            Pending::Point { .. } => 0,
            Pending::Child { level, .. } => level + 1,
        }
    }

    fn lo(&self) -> &[f64] {
        match self {
            Pending::Point { p, .. } => p,
            Pending::Child { mbr, .. } => &mbr.lo,
        }
    }

    fn hi(&self) -> &[f64] {
        match self {
            Pending::Point { p, .. } => p,
            Pending::Child { mbr, .. } => &mbr.hi,
        }
    }
}

struct RecResult {
    /// Copy-on-write replacement page of the visited node.
    new_pid: PageId,
    /// Tight MBR of the visited node after the insertion.
    mbr: Mbr,
    /// Set when the visited node split: the new sibling and its MBR.
    split: Option<(Mbr, PageId)>,
}

/// Fixed prefix of the checkpoint metadata: dim, root, height, reserved,
/// len, epoch, min_fill_ratio (all little-endian).
const TREE_META_LEN: usize = 40;

fn encode_tree_meta(dim: usize, ratio: f64, st: TreeState, extra: &[u8]) -> Vec<u8> {
    let mut m = Vec::with_capacity(TREE_META_LEN + extra.len());
    m.extend_from_slice(&(dim as u32).to_le_bytes());
    m.extend_from_slice(&st.root.0.to_le_bytes());
    m.extend_from_slice(&st.height.to_le_bytes());
    m.extend_from_slice(&0u32.to_le_bytes());
    m.extend_from_slice(&st.len.to_le_bytes());
    m.extend_from_slice(&st.epoch.to_le_bytes());
    m.extend_from_slice(&ratio.to_le_bytes());
    m.extend_from_slice(extra);
    m
}

fn decode_tree_meta(meta: &[u8]) -> io::Result<(usize, TreeState, f64, Vec<u8>)> {
    if meta.len() < TREE_META_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checkpoint metadata too short for a tree header",
        ));
    }
    let u32_at = |o: usize| u32::from_le_bytes(meta[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(meta[o..o + 8].try_into().unwrap());
    let dim = u32_at(0) as usize;
    let st = TreeState {
        root: PageId(u32_at(4)),
        height: u32_at(8),
        len: u64_at(16),
        epoch: u64_at(24),
        stamp: 0,
    };
    let ratio = f64::from_le_bytes(meta[32..40].try_into().unwrap());
    if dim == 0 || !st.root.is_valid() || st.height == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checkpoint metadata describes an impossible tree",
        ));
    }
    if !(0.0..=0.5).contains(&ratio) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checkpoint metadata has an out-of-range min fill ratio",
        ));
    }
    Ok((dim, st, ratio, meta[TREE_META_LEN..].to_vec()))
}

impl RTree {
    /// Create an empty tree on an in-memory store.
    ///
    /// # Panics
    /// Panics if `dim == 0` or the page size cannot hold at least two
    /// entries per node.
    pub fn new(dim: usize, params: RTreeParams) -> RTree {
        let (leaf_cap, inner_cap) = Self::capacities(params.page_size, dim);
        let buf = BufferPool::new(MemPager::new(params.page_size), dim, params.buffer_capacity);
        let root = buf.allocate();
        buf.put(root, Node::Leaf(LeafNode::new(dim)));
        let (leaf_min, inner_min) = Self::min_fills(leaf_cap, inner_cap, params.min_fill_ratio);
        RTree {
            dim,
            leaf_cap,
            inner_cap,
            leaf_min,
            inner_min,
            min_fill_ratio: params.min_fill_ratio,
            buf,
            state: Mutex::new(TreeState {
                root,
                height: 1,
                len: 0,
                epoch: 1,
                stamp: 0,
            }),
            writer: Mutex::new(()),
            epochs: Mutex::new(Epochs::default()),
        }
    }

    /// Build a tree over `points` with STR bulk loading on an in-memory
    /// store. Object ids are the point indices. The buffer is flushed,
    /// emptied and the I/O counters reset afterwards, so subsequent
    /// queries are measured from a cold buffer.
    pub fn bulk_load(points: &PointSet, params: RTreeParams) -> RTree {
        RTree::bulk_load_in(MemPager::new(params.page_size), points, params)
    }

    /// Like [`RTree::bulk_load`], but into a caller-provided store (e.g.
    /// a [`crate::disk::DiskPager`] for a disk-backed tree).
    ///
    /// # Panics
    /// Panics if `store.page_size() != params.page_size` or on more than
    /// [`crate::bulk::MAX_BULK_LEN`] points.
    pub fn bulk_load_in<S: PageStore + 'static>(
        store: S,
        points: &PointSet,
        params: RTreeParams,
    ) -> RTree {
        let mut keys: Vec<u128> = (0..points.len()).map(|i| sort_key(points, i)).collect();
        RTree::bulk_load_keys(Box::new(store), points, &mut keys, params)
    }

    /// [`RTree::bulk_load_in`] over the points of `points` that `keys`
    /// names — one [`sort_key`] each, in any order — each indexed under
    /// its index in `points`. The tree is, page for page, the one a load
    /// of a set holding only those points would build, but the set needs
    /// no copy of them: an id space with holes (a reopened inventory's
    /// live ids) loads as it is. Everything the load writes to is
    /// allocated here, by the caller, before it starts, and it shares the
    /// cores (see [`crate::bulk`]). `keys` is the load's scratch and
    /// comes back permuted.
    ///
    /// # Panics
    /// See [`RTree::bulk_load_in`]; also panics on a key naming no point.
    pub fn bulk_load_keys(
        store: Box<dyn PageStore>,
        points: &PointSet,
        keys: &mut [u128],
        params: RTreeParams,
    ) -> RTree {
        let dim = points.dim();
        let (leaf_cap, inner_cap) = Self::capacities(params.page_size, dim);
        let (leaf_min, inner_min) = Self::min_fills(leaf_cap, inner_cap, params.min_fill_ratio);
        assert_eq!(
            store.page_size(),
            params.page_size,
            "store page size must match params.page_size"
        );
        let buf = BufferPool::with_boxed_store(store, dim, params.buffer_capacity);
        let layout = Layout {
            leaf_cap,
            inner_cap,
            page_size: params.page_size,
        };
        let res = str_bulk_load(&buf, points, keys, layout, thread_budget());
        // Pages went straight to the store: only one whose write failed
        // is resident (dirty), and `clear` retries it.
        buf.clear();
        buf.reset_stats();
        RTree {
            dim,
            leaf_cap,
            inner_cap,
            leaf_min,
            inner_min,
            min_fill_ratio: params.min_fill_ratio,
            buf,
            state: Mutex::new(TreeState {
                root: res.root,
                height: res.height,
                len: res.len,
                epoch: 1,
                stamp: 0,
            }),
            writer: Mutex::new(()),
            epochs: Mutex::new(Epochs::default()),
        }
    }

    /// Reopen a tree from a store's most recent checkpoint. Returns the
    /// tree plus the caller metadata (`extra`) that was passed to the
    /// matching [`RTree::checkpoint`].
    ///
    /// Recovery walks the inner nodes from the checkpointed root — the
    /// checkpointed height says which level holds the leaves, so no leaf
    /// is read — and hands every unreachable page back to the store's
    /// free list, so no free list is persisted and leaked pages cannot
    /// accumulate across restarts. The buffer restarts cold with zeroed
    /// I/O counters.
    pub fn open<S: PageStore + 'static>(
        store: S,
        buffer_capacity: usize,
    ) -> io::Result<(RTree, Vec<u8>)> {
        let meta = store.meta().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "store holds no checkpoint metadata",
            )
        })?;
        let (dim, st, ratio, extra) = decode_tree_meta(&meta)?;
        let (leaf_cap, inner_cap) = Self::capacities(store.page_size(), dim);
        let (leaf_min, inner_min) = Self::min_fills(leaf_cap, inner_cap, ratio);
        let buf = BufferPool::new(store, dim, buffer_capacity.max(1));
        let tree = RTree {
            dim,
            leaf_cap,
            inner_cap,
            leaf_min,
            inner_min,
            min_fill_ratio: ratio,
            buf,
            state: Mutex::new(st),
            writer: Mutex::new(()),
            epochs: Mutex::new(Epochs::default()),
        };
        let mut reachable = HashSet::new();
        tree.collect_reachable(st.root, st.height, &mut reachable);
        let free: Vec<u32> = (0..tree.buf.page_bound())
            .filter(|i| !reachable.contains(i))
            .collect();
        tree.buf.seed_free(&free);
        tree.buf.clear();
        tree.buf.reset_stats();
        Ok((tree, extra))
    }

    /// Mark `pid`, a node `level` levels above the ground (1 = leaf),
    /// and everything below it. A leaf has no children to learn of, so
    /// it is marked without being read.
    fn collect_reachable(&self, pid: PageId, level: u32, out: &mut HashSet<u32>) {
        if !out.insert(pid.0) || level <= 1 {
            return;
        }
        let node = self.buf.get(pid);
        if let Node::Inner(inner) = &*node {
            for i in 0..inner.len() {
                self.collect_reachable(inner.child(i), level - 1, out);
            }
        }
    }

    /// Flush all dirty pages and durably commit the current epoch into
    /// the store's header, together with `extra` caller metadata (the
    /// engine stores its WAL high-water mark here). A no-op commit for
    /// in-memory stores.
    pub fn checkpoint(&self, extra: &[u8]) -> io::Result<()> {
        let _w = lock(self.writer.lock());
        let st = *lock(self.state.lock());
        let meta = encode_tree_meta(self.dim, self.min_fill_ratio, st, extra);
        self.buf.checkpoint(&meta)
    }

    fn capacities(page_size: usize, dim: usize) -> (usize, usize) {
        assert!(dim > 0, "dimensionality must be positive");
        let leaf_cap = (page_size - 8) / (8 * dim + 8);
        let inner_cap = (page_size - 8) / (16 * dim + 4);
        assert!(
            leaf_cap >= 2 && inner_cap >= 2,
            "page size {page_size} too small for dimensionality {dim}"
        );
        (leaf_cap, inner_cap)
    }

    fn min_fills(leaf_cap: usize, inner_cap: usize, ratio: f64) -> (usize, usize) {
        assert!(
            (0.0..=0.5).contains(&ratio),
            "min fill ratio must be in [0, 0.5]"
        );
        let lf = ((leaf_cap as f64 * ratio) as usize).max(1);
        let inf = ((inner_cap as f64 * ratio) as usize).max(1);
        (lf, inf)
    }

    // ------------------------------------------------------------------
    // Snapshots & epochs
    // ------------------------------------------------------------------

    /// Pin the current epoch and return an immutable view of it. Pages of
    /// the pinned version stay allocated until the snapshot drops, even
    /// while concurrent mutations publish newer epochs.
    pub fn snapshot(&self) -> Snapshot<'_> {
        // Pin while still holding the `state` guard: a `publish` landing
        // between the read and the pin would see no pinned reader and
        // reclaim the very pages this snapshot is about to traverse.
        // Lock order `state -> epochs` is safe: `publish` releases
        // `state` before taking `epochs`, and `unpin`/`reclaim_locked`
        // never take `state`.
        let guard = lock(self.state.lock());
        let st = *guard;
        *lock(self.epochs.lock()).active.entry(st.epoch).or_insert(0) += 1;
        drop(guard);
        Snapshot {
            tree: self,
            state: st,
        }
    }

    fn unpin(&self, epoch: u64) {
        let mut ep = lock(self.epochs.lock());
        if let Some(c) = ep.active.get_mut(&epoch) {
            *c -= 1;
            if *c == 0 {
                ep.active.remove(&epoch);
            }
        }
        self.reclaim_locked(&mut ep);
    }

    /// Free every retired page no pinned snapshot can still reference.
    fn reclaim_locked(&self, ep: &mut Epochs) {
        let min_active = ep.active.keys().next().copied().unwrap_or(u64::MAX);
        let mut i = 0;
        while i < ep.retired.len() {
            if ep.retired[i].0 <= min_active {
                let (_, pid) = ep.retired.swap_remove(i);
                self.buf.free(pid);
            } else {
                i += 1;
            }
        }
    }

    /// Install the mutation's root as the next epoch, stamped `stamp`,
    /// and queue its superseded pages for reclamation. A superseded page
    /// a reader still pins counts against the buffer again from here.
    fn publish(&self, ctx: MutCtx, stamp: u64) {
        let epoch;
        {
            let mut st = lock(self.state.lock());
            epoch = st.epoch + 1;
            *st = TreeState {
                root: ctx.root,
                height: ctx.height,
                len: ctx.len,
                epoch,
                stamp,
            };
        }
        let mut ep = lock(self.epochs.lock());
        ep.retired
            .extend(ctx.retired.iter().map(|&pid| (epoch, pid)));
        self.reclaim_locked(&mut ep);
        drop(ep);
        for pid in ctx.retired {
            self.buf.settle(pid);
        }
    }

    /// Allocate a page invisible to readers (it belongs to the
    /// in-flight mutation until publish).
    fn alloc_fresh(&self, ctx: &mut MutCtx) -> PageId {
        let pid = self.buf.allocate();
        ctx.fresh.insert(pid.0);
        pid
    }

    /// Supersede `pid`: pages of the published version are retired until
    /// reclamation, and stop counting against the buffer until publish;
    /// pages this same mutation allocated were never visible and are
    /// freed on the spot.
    fn retire_page(&self, ctx: &mut MutCtx, pid: PageId) {
        if ctx.fresh.remove(&pid.0) {
            self.buf.free(pid);
        } else {
            ctx.retired.push(pid);
            self.buf.supersede(pid);
        }
    }

    /// Write `node` as the new image of `pid`: in place if this mutation
    /// allocated `pid` (no reader can see it), else to a fresh page that
    /// supersedes it. Returns the page now holding `node`.
    fn rewrite(&self, ctx: &mut MutCtx, pid: PageId, node: Node) -> PageId {
        let target = if ctx.fresh.contains(&pid.0) {
            pid
        } else {
            self.retire_page(ctx, pid);
            self.alloc_fresh(ctx)
        };
        self.buf.put(target, node);
        target
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Dimensionality of the indexed space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed points (in the current epoch).
    #[inline]
    pub fn len(&self) -> u64 {
        lock(self.state.lock()).len
    }

    /// True iff the tree holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of levels (1 = the root is a leaf).
    #[inline]
    pub fn height(&self) -> u32 {
        lock(self.state.lock()).height
    }

    /// Root page id of the current epoch (for external traversals such
    /// as BBS skyline). With concurrent writers, prefer
    /// [`RTree::snapshot`], which keeps the returned root's pages alive.
    #[inline]
    pub fn root_page(&self) -> PageId {
        lock(self.state.lock()).root
    }

    /// The current epoch; each published mutation increments it.
    #[inline]
    pub fn epoch(&self) -> u64 {
        lock(self.state.lock()).epoch
    }

    /// The stamp published with the current epoch (see [`RTree::apply`]).
    #[inline]
    pub fn stamp(&self) -> u64 {
        lock(self.state.lock()).stamp
    }

    /// Stamp the current epoch, before the tree is shared: an owner
    /// that names its versions starts the tree at its first.
    pub fn set_stamp(&mut self, stamp: u64) {
        lock(self.state.get_mut()).stamp = stamp;
    }

    /// Maximum entries per leaf node.
    #[inline]
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_cap
    }

    /// Number of live pages ("size of the tree on disk").
    pub fn page_count(&self) -> usize {
        self.buf.live_pages()
    }

    /// Fetch a node through the buffer pool (costs I/O on a miss). This
    /// is the access path external algorithms (skyline, ranked search)
    /// must use so their page accesses are accounted.
    #[inline]
    pub fn read_node(&self, pid: PageId) -> Arc<Node> {
        self.buf.get(pid)
    }

    /// Like [`RTree::read_node`], additionally reporting whether the
    /// access missed the buffer. This is the hook run-scoped
    /// [`crate::IoSession`] accounting builds on.
    #[inline]
    pub(crate) fn read_node_probe(&self, pid: PageId) -> (Arc<Node>, bool) {
        self.buf.get_probe(pid)
    }

    /// Snapshot of the I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.buf.stats()
    }

    /// Zero the I/O counters.
    pub fn reset_io_stats(&self) {
        self.buf.reset_stats();
    }

    /// Resize the LRU buffer. The paper sizes it at 2% of the tree:
    /// `tree.set_buffer_capacity((tree.page_count() as f64 * 0.02) as usize)`.
    pub fn set_buffer_capacity(&self, pages: usize) {
        self.buf.set_capacity(pages);
    }

    /// Flush dirty pages and drop all cached frames (cold buffer).
    pub fn clear_buffer(&self) {
        self.buf.clear();
    }

    /// Current buffer capacity in pages.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Collect all `(oid, point)` entries whose point lies in the
    /// rectangle `[lo, hi]` (inclusive).
    pub fn range(&self, lo: &[f64], hi: &[f64]) -> Vec<(u64, Box<[f64]>)> {
        assert_eq!(lo.len(), self.dim);
        assert_eq!(hi.len(), self.dim);
        let snap = self.snapshot();
        let mut out = Vec::new();
        self.range_rec(snap.root_page(), lo, hi, &mut out);
        out
    }

    fn range_rec(&self, pid: PageId, lo: &[f64], hi: &[f64], out: &mut Vec<(u64, Box<[f64]>)>) {
        let node = self.buf.get(pid);
        match &*node {
            Node::Leaf(leaf) => {
                for (oid, p) in leaf.iter() {
                    if rect_contains_point(lo, hi, p) {
                        out.push((oid, p.into()));
                    }
                }
            }
            Node::Inner(inner) => {
                for i in 0..inner.len() {
                    if crate::geometry::rects_intersect(inner.lo(i), inner.hi(i), lo, hi) {
                        self.range_rec(inner.child(i), lo, hi, out);
                    }
                }
            }
        }
    }

    /// True iff the exact entry `(p, oid)` is indexed.
    pub fn contains(&self, p: &[f64], oid: u64) -> bool {
        let snap = self.snapshot();
        let mut path = Vec::new();
        self.find_leaf(snap.root_page(), p, oid, &mut path)
            .is_some()
    }

    /// Visit every `(oid, point)` entry (full scan). The scan runs on a
    /// pinned snapshot, so a concurrent mutation cannot tear it, and
    /// reads its pages past the buffer pool: it evicts nothing and is no
    /// query I/O (only a disk store's own read counter sees it).
    pub fn for_each_point(&self, mut f: impl FnMut(u64, &[f64])) {
        let snap = self.snapshot();
        self.scan_rec(snap.root_page(), &mut f);
    }

    fn scan_rec(&self, pid: PageId, f: &mut impl FnMut(u64, &[f64])) {
        let node = self.buf.peek(pid);
        match &*node {
            Node::Leaf(leaf) => {
                for (oid, p) in leaf.iter() {
                    f(oid, p);
                }
            }
            Node::Inner(inner) => {
                for i in 0..inner.len() {
                    self.scan_rec(inner.child(i), f);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Apply one mutation of the entries of `oid` — remove `(old, oid)`,
    /// insert `(new, oid)`, or both — in one copy-on-write pass, and
    /// publish it as one epoch stamped `stamp`: a reader pins the tree
    /// before the mutation or after it, never between its halves.
    /// Returns `false` if `old` named an entry the tree did not hold (an
    /// insert still happens); a mutation that changed nothing publishes
    /// nothing.
    ///
    /// # Panics
    /// Panics if a point's length is not `self.dim()` or a coordinate of
    /// `new` is not finite.
    pub fn apply(&self, oid: u64, old: Option<&[f64]>, new: Option<&[f64]>, stamp: u64) -> bool {
        for p in old.iter().chain(&new) {
            assert_eq!(p.len(), self.dim, "point dimensionality mismatch");
        }
        assert!(
            new.iter().flat_map(|p| p.iter()).all(|c| c.is_finite()),
            "point coordinates must be finite"
        );
        let _w = lock(self.writer.lock());
        let mut ctx = MutCtx::from_state(*lock(self.state.lock()));
        let removed = old.is_some_and(|p| self.remove_in(&mut ctx, p, oid));
        if let Some(p) = new {
            self.insert_pending(&mut ctx, Pending::Point { p: p.into(), oid });
            ctx.len += 1;
        }
        if removed || new.is_some() {
            self.publish(ctx, stamp);
        }
        removed || old.is_none()
    }

    /// Insert a point with the given object id, publishing a new epoch
    /// under the current stamp. Concurrent readers on pinned snapshots
    /// are unaffected.
    ///
    /// # Panics
    /// See [`RTree::apply`].
    pub fn insert(&self, p: &[f64], oid: u64) {
        self.apply(oid, None, Some(p), self.stamp());
    }

    fn insert_pending(&self, ctx: &mut MutCtx, ent: Pending) {
        let res = self.insert_rec(ctx, ctx.root, &ent);
        if let Some((smbr, spid)) = res.split {
            let level = self.buf.get(res.new_pid).level();
            let mut root = InnerNode::new(self.dim, level + 1);
            root.push(&res.mbr.lo, &res.mbr.hi, res.new_pid);
            root.push(&smbr.lo, &smbr.hi, spid);
            let new_pid = self.alloc_fresh(ctx);
            self.buf.put(new_pid, Node::Inner(root));
            ctx.root = new_pid;
            ctx.height += 1;
        } else {
            ctx.root = res.new_pid;
        }
    }

    fn insert_rec(&self, ctx: &mut MutCtx, pid: PageId, ent: &Pending) -> RecResult {
        let node_arc = self.buf.get(pid);
        let host = ent.host_level();
        debug_assert!(node_arc.level() >= host, "descended below host level");
        if node_arc.level() == host {
            let mut node = (*node_arc).clone();
            drop(node_arc);
            match (&mut node, ent) {
                (Node::Leaf(leaf), Pending::Point { p, oid }) => leaf.push(p, *oid),
                (Node::Inner(inner), Pending::Child { pid: cpid, mbr, .. }) => {
                    inner.push(&mbr.lo, &mbr.hi, *cpid)
                }
                _ => unreachable!("host level and entry kind disagree"),
            }
            let cap = match &node {
                Node::Leaf(_) => self.leaf_cap,
                Node::Inner(_) => self.inner_cap,
            };
            if node.len() > cap {
                self.split_node(ctx, pid, node)
            } else {
                let mbr = node.mbr();
                RecResult {
                    new_pid: self.rewrite(ctx, pid, node),
                    mbr,
                    split: None,
                }
            }
        } else {
            let (ci, child_pid) = {
                let inner = node_arc.as_inner();
                let ci = self.choose_subtree(inner, ent);
                (ci, inner.child(ci))
            };
            let res = self.insert_rec(ctx, child_pid, ent);
            let mut node = (*node_arc).clone();
            drop(node_arc);
            let inner = node.as_inner_mut();
            inner.set_child(ci, res.new_pid);
            inner.set_mbr(ci, &res.mbr.lo, &res.mbr.hi);
            if let Some((smbr, spid)) = res.split {
                inner.push(&smbr.lo, &smbr.hi, spid);
                if inner.len() > self.inner_cap {
                    return self.split_node(ctx, pid, node);
                }
            }
            let mbr = node.mbr();
            RecResult {
                new_pid: self.rewrite(ctx, pid, node),
                mbr,
                split: None,
            }
        }
    }

    /// R\* subtree choice: minimal overlap enlargement directly above the
    /// host level, minimal area enlargement higher up.
    fn choose_subtree(&self, inner: &InnerNode, ent: &Pending) -> usize {
        let (elo, ehi) = (ent.lo(), ent.hi());
        let n = inner.len();
        debug_assert!(n > 0, "choose_subtree on empty node");
        if inner.level() == ent.host_level() + 1 {
            // children host the entry: minimize overlap enlargement
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for j in 0..n {
                let mut enlarged = Mbr {
                    lo: inner.lo(j).into(),
                    hi: inner.hi(j).into(),
                };
                enlarged.union_rect(elo, ehi);
                let mut d_overlap = 0.0;
                for k in 0..n {
                    if k == j {
                        continue;
                    }
                    d_overlap += rect_overlap(&enlarged.lo, &enlarged.hi, inner.lo(k), inner.hi(k))
                        - rect_overlap(inner.lo(j), inner.hi(j), inner.lo(k), inner.hi(k));
                }
                let d_area = enlargement(inner.lo(j), inner.hi(j), elo, ehi);
                let area = rect_area(inner.lo(j), inner.hi(j));
                let key = (d_overlap, d_area, area);
                if key < best_key {
                    best_key = key;
                    best = j;
                }
            }
            best
        } else {
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for j in 0..n {
                let d_area = enlargement(inner.lo(j), inner.hi(j), elo, ehi);
                let area = rect_area(inner.lo(j), inner.hi(j));
                let key = (d_area, area);
                if key < best_key {
                    best_key = key;
                    best = j;
                }
            }
            best
        }
    }

    /// Split an overflowing node: the left group is `pid`'s new image
    /// (see [`RTree::rewrite`]) and the right one lands on a fresh page
    /// (copy-on-write — an old image stays readable for pinned
    /// snapshots).
    fn split_node(&self, ctx: &mut MutCtx, pid: PageId, node: Node) -> RecResult {
        let (left, right, left_mbr, right_mbr) = match node {
            Node::Leaf(leaf) => {
                let entries: Vec<SplitEntry> = (0..leaf.len())
                    .map(|i| SplitEntry::from_point(leaf.point(i)))
                    .collect();
                let (li, ri) = rstar_split(&entries, self.leaf_min);
                let mut l = LeafNode::new(self.dim);
                let mut r = LeafNode::new(self.dim);
                let mut lm = Mbr::empty(self.dim);
                let mut rm = Mbr::empty(self.dim);
                for &i in &li {
                    l.push(leaf.point(i), leaf.oid(i));
                    lm.union_point(leaf.point(i));
                }
                for &i in &ri {
                    r.push(leaf.point(i), leaf.oid(i));
                    rm.union_point(leaf.point(i));
                }
                (Node::Leaf(l), Node::Leaf(r), lm, rm)
            }
            Node::Inner(inner) => {
                let entries: Vec<SplitEntry> = (0..inner.len())
                    .map(|i| SplitEntry::from_rect(inner.lo(i), inner.hi(i)))
                    .collect();
                let (li, ri) = rstar_split(&entries, self.inner_min);
                let mut l = InnerNode::new(self.dim, inner.level());
                let mut r = InnerNode::new(self.dim, inner.level());
                let mut lm = Mbr::empty(self.dim);
                let mut rm = Mbr::empty(self.dim);
                for &i in &li {
                    l.push(inner.lo(i), inner.hi(i), inner.child(i));
                    lm.union_rect(inner.lo(i), inner.hi(i));
                }
                for &i in &ri {
                    r.push(inner.lo(i), inner.hi(i), inner.child(i));
                    rm.union_rect(inner.lo(i), inner.hi(i));
                }
                (Node::Inner(l), Node::Inner(r), lm, rm)
            }
        };
        let left_pid = self.rewrite(ctx, pid, left);
        let right_pid = self.alloc_fresh(ctx);
        self.buf.put(right_pid, right);
        RecResult {
            new_pid: left_pid,
            mbr: left_mbr,
            split: Some((right_mbr, right_pid)),
        }
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Delete the entry matching both `p` and `oid`, publishing a new
    /// epoch under the current stamp. Returns `true` if an entry was
    /// removed; a failed delete publishes nothing.
    ///
    /// # Panics
    /// Panics if `p.len() != self.dim()`.
    pub fn delete(&self, p: &[f64], oid: u64) -> bool {
        self.apply(oid, Some(p), None, self.stamp())
    }

    /// Remove the entry `(p, oid)` inside the mutation `ctx`. Underflowing
    /// nodes are dissolved and their entries re-inserted (Guttman's
    /// condense-tree). `false` if the tree holds no such entry.
    fn remove_in(&self, ctx: &mut MutCtx, p: &[f64], oid: u64) -> bool {
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let Some(leaf_pid) = self.find_leaf(ctx.root, p, oid, &mut path) else {
            return false;
        };

        let leaf_arc = self.buf.get(leaf_pid);
        let mut leaf = leaf_arc.as_leaf().clone();
        drop(leaf_arc);
        let ei = leaf
            .find(p, oid)
            .expect("find_leaf returned a leaf without the entry");
        leaf.swap_remove(ei);
        ctx.len -= 1;

        let mut orphans: Vec<Pending> = Vec::new();
        let mut child_old = leaf_pid;
        let mut child_node = Node::Leaf(leaf);

        for &(ppid, cidx) in path.iter().rev() {
            let parent_arc = self.buf.get(ppid);
            let mut parent = parent_arc.as_inner().clone();
            drop(parent_arc);
            debug_assert_eq!(parent.child(cidx), child_old, "stale deletion path");
            let underflow = match &child_node {
                Node::Leaf(l) => l.len() < self.leaf_min,
                Node::Inner(n) => n.len() < self.inner_min,
            };
            if underflow {
                parent.swap_remove(cidx);
                match &child_node {
                    Node::Leaf(l) => {
                        for (o, pt) in l.iter() {
                            orphans.push(Pending::Point {
                                p: pt.into(),
                                oid: o,
                            });
                        }
                    }
                    Node::Inner(n) => {
                        for i in 0..n.len() {
                            orphans.push(Pending::Child {
                                pid: n.child(i),
                                level: n.level() - 1,
                                mbr: Mbr {
                                    lo: n.lo(i).into(),
                                    hi: n.hi(i).into(),
                                },
                            });
                        }
                    }
                }
                self.retire_page(ctx, child_old);
            } else {
                let mbr = child_node.mbr();
                let new_child = self.rewrite(ctx, child_old, child_node);
                parent.set_child(cidx, new_child);
                parent.set_mbr(cidx, &mbr.lo, &mbr.hi);
            }
            child_old = ppid;
            child_node = Node::Inner(parent);
        }
        // Install the copy-on-write image of the root.
        ctx.root = self.rewrite(ctx, child_old, child_node);

        // A root left with no children can only host points again.
        {
            let root_arc = self.buf.get(ctx.root);
            let emptied = matches!(&*root_arc, Node::Inner(n) if n.is_empty());
            drop(root_arc);
            if emptied {
                // The fresh root page is invisible to readers; rewrite it
                // in place as an empty leaf.
                self.buf.put(ctx.root, Node::Leaf(LeafNode::new(self.dim)));
                ctx.height = 1;
                // all surviving data is in `orphans`; demote subtrees to points
                let mut points: Vec<Pending> = Vec::new();
                for o in orphans {
                    match o {
                        Pending::Point { .. } => points.push(o),
                        Pending::Child { pid, .. } => self.drain_subtree(ctx, pid, &mut points),
                    }
                }
                orphans = points;
            }
        }

        // Re-insert orphans, subtrees before points so host levels exist.
        orphans.sort_by_key(|e| std::cmp::Reverse(e.host_level()));
        for ent in orphans {
            self.insert_pending(ctx, ent);
        }

        // Collapse chains of single-child roots.
        loop {
            let root_arc = self.buf.get(ctx.root);
            match &*root_arc {
                Node::Inner(n) if n.len() == 1 => {
                    let child = n.child(0);
                    drop(root_arc);
                    let old_root = ctx.root;
                    self.retire_page(ctx, old_root);
                    ctx.root = child;
                    ctx.height -= 1;
                }
                _ => break,
            }
        }
        true
    }

    /// Read all points under `pid` into `out` and supersede the
    /// subtree's pages (used only on the degenerate empty-root path).
    fn drain_subtree(&self, ctx: &mut MutCtx, pid: PageId, out: &mut Vec<Pending>) {
        let node = self.buf.get(pid);
        match &*node {
            Node::Leaf(l) => {
                for (o, pt) in l.iter() {
                    out.push(Pending::Point {
                        p: pt.into(),
                        oid: o,
                    });
                }
            }
            Node::Inner(n) => {
                let children: Vec<PageId> = (0..n.len()).map(|i| n.child(i)).collect();
                drop(node);
                for c in children {
                    self.drain_subtree(ctx, c, out);
                }
                self.retire_page(ctx, pid);
                return;
            }
        }
        drop(node);
        self.retire_page(ctx, pid);
    }

    fn find_leaf(
        &self,
        pid: PageId,
        p: &[f64],
        oid: u64,
        path: &mut Vec<(PageId, usize)>,
    ) -> Option<PageId> {
        let node = self.buf.get(pid);
        match &*node {
            Node::Leaf(leaf) => {
                if leaf.find(p, oid).is_some() {
                    Some(pid)
                } else {
                    None
                }
            }
            Node::Inner(inner) => {
                for i in 0..inner.len() {
                    if rect_contains_point(inner.lo(i), inner.hi(i), p) {
                        path.push((pid, i));
                        if let Some(found) = self.find_leaf(inner.child(i), p, oid, path) {
                            return Some(found);
                        }
                        path.pop();
                    }
                }
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Validation (for tests)
    // ------------------------------------------------------------------

    /// Exhaustively verify structural invariants: level consistency,
    /// capacity bounds, exact (tight) parent MBRs, and the entry count.
    /// Panics on violation; intended for tests.
    pub fn check_invariants(&self) {
        let snap = self.snapshot();
        let root_pid = snap.root_page();
        let root = self.buf.get(root_pid);
        assert_eq!(
            root.level() as u32 + 1,
            snap.height(),
            "height does not match root level"
        );
        let (_, count) = self.check_rec(root_pid, root.level(), root_pid);
        assert_eq!(count, snap.len(), "entry count mismatch");
    }

    fn check_rec(&self, pid: PageId, expected_level: u8, root_pid: PageId) -> (Mbr, u64) {
        let node = self.buf.get(pid);
        assert_eq!(node.level(), expected_level, "level mismatch at {pid}");
        match &*node {
            Node::Leaf(leaf) => {
                assert!(leaf.len() <= self.leaf_cap, "leaf overflow at {pid}");
                (node.mbr(), leaf.len() as u64)
            }
            Node::Inner(inner) => {
                assert!(inner.len() <= self.inner_cap, "inner overflow at {pid}");
                assert!(!inner.is_empty() || pid == root_pid, "empty inner node");
                let mut count = 0;
                for i in 0..inner.len() {
                    let (child_mbr, child_count) =
                        self.check_rec(inner.child(i), expected_level - 1, root_pid);
                    assert_eq!(
                        inner.lo(i),
                        &*child_mbr.lo,
                        "stale lo MBR at {pid} entry {i}"
                    );
                    assert_eq!(
                        inner.hi(i),
                        &*child_mbr.hi,
                        "stale hi MBR at {pid} entry {i}"
                    );
                    count += child_count;
                }
                (node.mbr(), count)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskPager;

    fn small_params() -> RTreeParams {
        RTreeParams {
            page_size: 256, // tiny pages force deep trees on small data
            min_fill_ratio: 0.4,
            buffer_capacity: 64,
        }
    }

    fn seeded_points(n: usize, dim: usize, seed: u64) -> PointSet {
        // xorshift-style deterministic pseudo-random points
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ps = PointSet::with_capacity(dim, n);
        for _ in 0..n {
            let p: Vec<f64> = (0..dim).map(|_| next()).collect();
            ps.push(&p);
        }
        ps
    }

    #[test]
    fn incremental_inserts_match_linear_scan_range() {
        let ps = seeded_points(500, 2, 42);
        let tree = RTree::new(2, small_params());
        for (i, p) in ps.iter() {
            tree.insert(p, i as u64);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 500);

        let lo = [0.2, 0.3];
        let hi = [0.7, 0.9];
        let mut expect: Vec<u64> = ps
            .iter()
            .filter(|(_, p)| p[0] >= lo[0] && p[0] <= hi[0] && p[1] >= lo[1] && p[1] <= hi[1])
            .map(|(i, _)| i as u64)
            .collect();
        expect.sort_unstable();
        let mut got: Vec<u64> = tree.range(&lo, &hi).into_iter().map(|(o, _)| o).collect();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn bulk_load_matches_linear_scan_range() {
        let ps = seeded_points(2000, 3, 7);
        let tree = RTree::bulk_load(&ps, small_params());
        tree.check_invariants();
        let lo = [0.1, 0.1, 0.1];
        let hi = [0.6, 0.8, 0.9];
        let mut expect: Vec<u64> = ps
            .iter()
            .filter(|(_, p)| {
                p.iter()
                    .zip(lo.iter().zip(hi.iter()))
                    .all(|(&x, (&l, &h))| l <= x && x <= h)
            })
            .map(|(i, _)| i as u64)
            .collect();
        expect.sort_unstable();
        let mut got: Vec<u64> = tree.range(&lo, &hi).into_iter().map(|(o, _)| o).collect();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn delete_removes_exactly_the_requested_entry() {
        let ps = seeded_points(300, 2, 3);
        let tree = RTree::bulk_load(&ps, small_params());
        assert!(tree.contains(ps.get(17), 17));
        assert!(tree.delete(ps.get(17), 17));
        assert!(!tree.contains(ps.get(17), 17));
        assert!(!tree.delete(ps.get(17), 17), "double delete must fail");
        assert_eq!(tree.len(), 299);
        tree.check_invariants();
    }

    #[test]
    fn delete_everything_empties_the_tree() {
        let ps = seeded_points(200, 2, 11);
        let tree = RTree::bulk_load(&ps, small_params());
        for (i, p) in ps.iter() {
            assert!(tree.delete(p, i as u64), "entry {i} vanished early");
            if i % 37 == 0 {
                tree.check_invariants();
            }
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        tree.check_invariants();
    }

    #[test]
    fn interleaved_inserts_and_deletes_stay_consistent() {
        let ps = seeded_points(400, 2, 99);
        let tree = RTree::new(2, small_params());
        for (i, p) in ps.iter().take(200) {
            tree.insert(p, i as u64);
        }
        for (i, p) in ps.iter().take(100) {
            assert!(tree.delete(p, i as u64));
        }
        for (i, p) in ps.iter().skip(200) {
            tree.insert(p, i as u64);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 300);
        // remaining = 100..400
        let mut seen = Vec::new();
        tree.for_each_point(|oid, _| seen.push(oid));
        seen.sort_unstable();
        let expect: Vec<u64> = (100..400).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn duplicate_points_with_distinct_ids_coexist() {
        let tree = RTree::new(2, small_params());
        for i in 0..50 {
            tree.insert(&[0.5, 0.5], i);
        }
        assert_eq!(tree.len(), 50);
        assert!(tree.delete(&[0.5, 0.5], 17));
        assert!(!tree.contains(&[0.5, 0.5], 17));
        assert!(tree.contains(&[0.5, 0.5], 18));
        tree.check_invariants();
    }

    #[test]
    fn queries_cost_io_and_buffer_absorbs_repeats() {
        let ps = seeded_points(5000, 2, 5);
        let tree = RTree::bulk_load(
            &ps,
            RTreeParams {
                page_size: 512,
                min_fill_ratio: 0.4,
                buffer_capacity: 4096,
            },
        );
        tree.reset_io_stats();
        let _ = tree.range(&[0.0, 0.0], &[1.0, 1.0]); // full scan, cold
        let cold = tree.io_stats();
        assert!(cold.physical_reads > 0);
        let _ = tree.range(&[0.0, 0.0], &[1.0, 1.0]); // warm: all hits
        let warm = tree.io_stats().since(cold);
        assert_eq!(warm.physical_reads, 0, "warm scan should be all hits");
        assert!(warm.logical > 0);
    }

    #[test]
    fn empty_tree_behaves() {
        let tree = RTree::new(3, small_params());
        assert!(tree.is_empty());
        assert_eq!(tree.range(&[0.0; 3], &[1.0; 3]), vec![]);
        assert!(!tree.delete(&[0.5; 3], 0));
        tree.check_invariants();
    }

    // ------------------------------------------------------------------
    // Epoch snapshots
    // ------------------------------------------------------------------

    /// A move is one epoch carrying the caller's stamp: a snapshot sees
    /// the entry at its old point or at its new one, never nowhere, and
    /// the one-sided wrappers carry the stamp over.
    #[test]
    fn a_move_is_one_epoch_stamped_once() {
        let ps = seeded_points(300, 2, 5);
        let tree = RTree::bulk_load(&ps, small_params());
        let (e0, p7) = (tree.epoch(), ps.get(7).to_vec());
        assert_eq!(tree.stamp(), 0);
        let before = tree.snapshot();
        assert!(tree.apply(7, Some(&p7), Some(&[0.99, 0.01]), 41));
        assert_eq!((tree.epoch(), tree.stamp()), (e0 + 1, 41));
        assert_eq!((before.epoch(), before.stamp()), (e0, 0));
        assert!(!tree.contains(&p7, 7) && tree.contains(&[0.99, 0.01], 7));
        assert_eq!(tree.len(), 300);
        tree.check_invariants();
        drop(before);

        tree.insert(&[0.5, 0.5], 1_000);
        assert!(tree.delete(&[0.5, 0.5], 1_000));
        assert_eq!((tree.epoch(), tree.stamp()), (e0 + 3, 41));
        // A remove that finds nothing still inserts, and says so.
        assert!(!tree.apply(8, Some(&[0.5, 0.5]), Some(&[0.4, 0.4]), 42));
        assert_eq!((tree.len(), tree.stamp()), (301, 42));
        let snap = tree.snapshot();
        assert_eq!((snap.len(), snap.stamp()), (301, 42));
    }

    #[test]
    fn mutations_bump_the_epoch() {
        let tree = RTree::new(2, small_params());
        let e0 = tree.epoch();
        tree.insert(&[0.1, 0.2], 1);
        assert_eq!(tree.epoch(), e0 + 1);
        tree.insert(&[0.3, 0.4], 2);
        assert_eq!(tree.epoch(), e0 + 2);
        tree.delete(&[0.1, 0.2], 1);
        assert_eq!(tree.epoch(), e0 + 3);
        // a failed delete publishes nothing
        tree.delete(&[0.9, 0.9], 777);
        assert_eq!(tree.epoch(), e0 + 3);
    }

    #[test]
    fn pinned_snapshot_sees_the_old_version_across_mutations() {
        let ps = seeded_points(800, 2, 31);
        let tree = RTree::bulk_load(&ps, small_params());
        let snap = tree.snapshot();
        let len_before = snap.len();

        // Mutate heavily while the snapshot is pinned.
        for (i, p) in ps.iter().take(400) {
            assert!(tree.delete(p, i as u64));
        }
        for i in 0..100u64 {
            tree.insert(&[0.5, 0.5], 10_000 + i);
        }
        assert_eq!(tree.len(), 500);

        // The pinned snapshot still traverses its frozen version.
        let mut count = 0u64;
        let mut stack = vec![snap.root_page()];
        while let Some(pid) = stack.pop() {
            let node = tree.read_node(pid);
            match &*node {
                Node::Leaf(l) => count += l.len() as u64,
                Node::Inner(n) => {
                    for i in 0..n.len() {
                        stack.push(n.child(i));
                    }
                }
            }
        }
        assert_eq!(count, len_before, "snapshot traversal must be frozen");
        drop(snap);

        // After the pin drops, retired pages are reclaimed: the live page
        // count reflects only the current version.
        tree.check_invariants();
        let live = tree.page_count();
        let rebuilt = {
            let mut ps2 = PointSet::with_capacity(2, 500);
            tree.for_each_point(|_, p| {
                ps2.push(p);
            });
            RTree::bulk_load(&ps2, small_params())
        };
        // A packed bulk-loaded tree is denser; COW trees may be sparser,
        // but not wildly so (retired pages must actually be freed).
        assert!(
            live < rebuilt.page_count() * 4 + 8,
            "retired pages were not reclaimed: {live} live vs {} packed",
            rebuilt.page_count()
        );
    }

    #[test]
    fn dropping_the_last_pin_frees_retired_pages() {
        let tree = RTree::new(2, small_params());
        for i in 0..200u64 {
            tree.insert(&[(i as f64) / 200.0, 0.5], i);
        }
        let pages_settled = tree.page_count();
        let snap = tree.snapshot();
        for i in 0..100u64 {
            assert!(tree.delete(&[(i as f64) / 200.0, 0.5], i));
        }
        let pinned_pages = tree.page_count();
        drop(snap);
        let after = tree.page_count();
        assert!(
            after < pinned_pages,
            "unpinning must reclaim retired pages ({pinned_pages} -> {after})"
        );
        assert!(after <= pages_settled, "shrunken tree must not hold more");
        tree.check_invariants();
    }

    // ------------------------------------------------------------------
    // Disk persistence
    // ------------------------------------------------------------------

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mpq_tree_disk_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn checkpoint_and_open_round_trip_on_disk() {
        let path = tmp("round_trip.pages");
        let ps = seeded_points(700, 2, 77);
        {
            let store = DiskPager::create(&path, 256).unwrap();
            let tree = RTree::bulk_load_in(
                store,
                &ps,
                RTreeParams {
                    page_size: 256,
                    min_fill_ratio: 0.4,
                    buffer_capacity: 64,
                },
            );
            tree.insert(&[0.25, 0.75], 9_001);
            assert!(tree.delete(ps.get(3), 3));
            tree.checkpoint(b"wal=42").unwrap();
        }
        let store = DiskPager::open(&path, 256).unwrap();
        let (tree, extra) = RTree::open(store, 64).unwrap();
        assert_eq!(extra, b"wal=42");
        assert_eq!(tree.len(), 700); // 700 bulk + 1 insert - 1 delete
        assert!(tree.contains(&[0.25, 0.75], 9_001));
        assert!(!tree.contains(ps.get(3), 3));
        tree.check_invariants();

        // Every point survives bit-identically.
        let mut seen: Vec<(u64, Vec<f64>)> = Vec::new();
        tree.for_each_point(|o, p| seen.push((o, p.to_vec())));
        seen.sort_by_key(|(o, _)| *o);
        let mut expect: Vec<(u64, Vec<f64>)> = ps
            .iter()
            .filter(|(i, _)| *i != 3)
            .map(|(i, p)| (i as u64, p.to_vec()))
            .collect();
        expect.push((9_001, vec![0.25, 0.75]));
        expect.sort_by_key(|(o, _)| *o);
        assert_eq!(seen, expect);
    }

    #[test]
    fn open_recovers_the_free_list_from_reachability() {
        let path = tmp("free_list.pages");
        let ps = seeded_points(500, 2, 13);
        let live_at_checkpoint;
        {
            let store = DiskPager::create(&path, 256).unwrap();
            let tree = RTree::bulk_load_in(
                store,
                &ps,
                RTreeParams {
                    page_size: 256,
                    min_fill_ratio: 0.4,
                    buffer_capacity: 64,
                },
            );
            // Mutate so retired pages pile up in the file...
            for (i, p) in ps.iter().take(100) {
                assert!(tree.delete(p, i as u64));
            }
            live_at_checkpoint = tree.page_count();
            tree.checkpoint(&[]).unwrap();
        }
        let store = DiskPager::open(&path, 256).unwrap();
        let (tree, _) = RTree::open(store, 64).unwrap();
        // ...and reopening frees everything unreachable: page bound may
        // exceed live pages, but live pages match the checkpoint.
        assert_eq!(tree.page_count(), live_at_checkpoint);
        // New allocations recycle recovered free ids rather than growing
        // the file.
        let bound_before = tree.buf.page_bound();
        tree.insert(&[0.5, 0.5], 55_555);
        assert_eq!(tree.buf.page_bound(), bound_before);
        tree.check_invariants();
    }

    #[test]
    fn open_reads_no_leaf() {
        use crate::fault::{FaultInjector, FaultOp, FaultPageStore};
        let path = tmp("open_reads.pages");
        let ps = seeded_points(2_000, 2, 17);
        let params = RTreeParams {
            page_size: 256,
            min_fill_ratio: 0.4,
            buffer_capacity: 64,
        };
        let (pages, leaves) = {
            let store = DiskPager::create(&path, 256).unwrap();
            let tree = RTree::bulk_load_in(store, &ps, params);
            tree.checkpoint(&[]).unwrap();
            assert!(tree.height() >= 3, "inner levels above the leaf parents");
            let mut leaves = 0u64;
            let mut stack = vec![tree.snapshot().root_page()];
            while let Some(pid) = stack.pop() {
                match &*tree.buf.get(pid) {
                    Node::Leaf(_) => leaves += 1,
                    Node::Inner(inner) => stack.extend((0..inner.len()).map(|i| inner.child(i))),
                }
            }
            (tree.page_count() as u64, leaves)
        };
        let reads = FaultInjector::shared();
        let store = FaultPageStore::new(DiskPager::open(&path, 256).unwrap(), Arc::clone(&reads));
        let (tree, _) = RTree::open(store, 64).unwrap();
        assert_eq!(reads.count(FaultOp::PageRead), pages - leaves);
        assert_eq!(tree.page_count() as u64, pages);
        tree.check_invariants();
    }

    #[test]
    fn uncheckpointed_mutations_roll_back_to_the_last_checkpoint() {
        let path = tmp("rollback.pages");
        let ps = seeded_points(300, 2, 21);
        {
            let store = DiskPager::create(&path, 256).unwrap();
            let tree = RTree::bulk_load_in(
                store,
                &ps,
                RTreeParams {
                    page_size: 256,
                    min_fill_ratio: 0.4,
                    buffer_capacity: 64,
                },
            );
            tree.checkpoint(b"v1").unwrap();
            // Post-checkpoint mutations are never committed...
            tree.insert(&[0.5, 0.5], 777);
            assert!(tree.delete(ps.get(0), 0));
            // (no checkpoint; simulated crash)
        }
        let store = DiskPager::open(&path, 256).unwrap();
        let (tree, extra) = RTree::open(store, 64).unwrap();
        assert_eq!(extra, b"v1");
        assert_eq!(tree.len(), 300, "uncheckpointed mutations discarded");
        assert!(tree.contains(ps.get(0), 0));
        assert!(!tree.contains(&[0.5, 0.5], 777));
        tree.check_invariants();
    }
}
