//! Per-run I/O attribution over a shared tree.
//!
//! [`crate::RTree`] keeps one global [`IoStats`] counter in its buffer
//! pool. That is the right granularity when every query owns its tree,
//! but a long-lived engine serves *many* concurrent evaluations from the
//! same index: diffing global snapshots around a run would silently mix
//! in every other thread's page traffic.
//!
//! [`IoSession`] is the run-scoped view: a lightweight handle that
//! forwards reads to the shared tree (global counters still advance, so
//! whole-system accounting keeps working) while attributing each logical
//! access — and each buffer miss it caused — to the session itself.
//! Algorithms that traverse the tree are generic over [`NodeSource`], so
//! the same code path runs against a bare [`crate::RTree`] or against a
//! session.
//!
//! A hit/miss verdict depends on the shared LRU buffer state, so the
//! *physical* counts of one session are affected by concurrent sessions
//! warming or evicting pages (exactly like two queries on one database).
//! The *logical* counts are deterministic per run.
//!
//! ## Several trees, one source
//!
//! Ranked search and BBS need a priority queue of entries, not a single
//! tree. A [`Forest`] makes `K >= 1` sources one [`NodeSource`]: its
//! root is a *virtual* inner node listing the `K` roots under the
//! full-space rectangle — it is no page, so reading it costs nothing,
//! and every real root has to be expanded anyway — and a page id names
//! its part in the top eight bits. A child's id is read from its
//! parent's node, where it carries no part, so traversals ask the source
//! for it ([`NodeSource::child_page`]): a single tree answers with the
//! id itself, a forest adds the parent's part. Part 0's ids are
//! themselves, and a forest of one part has no virtual root and tags
//! nothing: it reads exactly what its one source would.

use std::cell::Cell;
use std::sync::Arc;

use crate::node::{InnerNode, Node};
use crate::pager::PageId;
use crate::stats::IoStats;
use crate::topk::{RankedHit, RankedIter};
use crate::tree::{RTree, Snapshot};

/// Read access to an R-tree's nodes, with I/O accounting.
///
/// Implemented by [`RTree`] itself (accounting goes to the tree's global
/// counters) and by [`IoSession`] (accounting additionally goes to the
/// session). Traversal algorithms — ranked search, BBS skyline — are
/// generic over this trait so callers choose the attribution scope.
pub trait NodeSource {
    /// Dimensionality of the indexed space.
    fn dim(&self) -> usize;

    /// Page id of the root node.
    fn root_page(&self) -> PageId;

    /// Number of indexed points.
    fn len(&self) -> u64;

    /// True iff the tree holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a node through the buffer pool, charging the access to this
    /// source's accounting scope.
    fn read_node(&self, pid: PageId) -> Arc<Node>;

    /// What to pass to [`NodeSource::read_node`] for `child`, an id the
    /// inner node at `parent` lists: the id itself in a single tree. A
    /// [`Forest`] adds the part `parent` lives in, so every traversal
    /// takes its child ids through here.
    #[inline]
    fn child_page(&self, parent: PageId, child: PageId) -> PageId {
        let _ = parent;
        child
    }

    /// Snapshot of the I/O counters of this accounting scope.
    fn io_snapshot(&self) -> IoStats;
}

impl NodeSource for RTree {
    #[inline]
    fn dim(&self) -> usize {
        RTree::dim(self)
    }

    #[inline]
    fn root_page(&self) -> PageId {
        RTree::root_page(self)
    }

    #[inline]
    fn len(&self) -> u64 {
        RTree::len(self)
    }

    #[inline]
    fn read_node(&self, pid: PageId) -> Arc<Node> {
        RTree::read_node(self, pid)
    }

    #[inline]
    fn io_snapshot(&self) -> IoStats {
        self.io_stats()
    }
}

impl<T: NodeSource + ?Sized> NodeSource for &T {
    #[inline]
    fn dim(&self) -> usize {
        (**self).dim()
    }

    #[inline]
    fn root_page(&self) -> PageId {
        (**self).root_page()
    }

    #[inline]
    fn len(&self) -> u64 {
        (**self).len()
    }

    #[inline]
    fn read_node(&self, pid: PageId) -> Arc<Node> {
        (**self).read_node(pid)
    }

    #[inline]
    fn child_page(&self, parent: PageId, child: PageId) -> PageId {
        (**self).child_page(parent, child)
    }

    #[inline]
    fn io_snapshot(&self) -> IoStats {
        (**self).io_snapshot()
    }
}

/// A run-scoped I/O accounting handle over a shared [`RTree`].
///
/// Every read issued through the session advances both the tree's global
/// counters and the session's private ones; [`IoSession::stats`] then
/// reports exactly the traffic this run caused, no matter how many other
/// sessions hammer the same tree concurrently (each from its own
/// thread — the session itself is single-threaded and `!Sync`).
///
/// Opening a session pins a [`Snapshot`] of the current epoch: the whole
/// run traverses one frozen version of the tree, unaffected by
/// concurrent mutations, and pages of that version stay allocated until
/// the session drops.
pub struct IoSession<'t> {
    tree: &'t RTree,
    snap: Snapshot<'t>,
    logical: Cell<u64>,
    physical_reads: Cell<u64>,
}

impl<'t> IoSession<'t> {
    /// Open a session over `tree` with zeroed counters, pinned to the
    /// tree's current epoch.
    pub fn new(tree: &'t RTree) -> IoSession<'t> {
        IoSession {
            tree,
            snap: tree.snapshot(),
            logical: Cell::new(0),
            physical_reads: Cell::new(0),
        }
    }

    /// The epoch this session is pinned to.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    /// The underlying shared tree.
    #[inline]
    pub fn tree(&self) -> &'t RTree {
        self.tree
    }

    /// I/O charged to this session so far. Sessions never write (they
    /// are read-only views), so `physical_writes` is always zero.
    pub fn stats(&self) -> IoStats {
        IoStats {
            logical: self.logical.get(),
            physical_reads: self.physical_reads.get(),
            ..IoStats::default()
        }
    }

    /// Incremental ranked search (descending `weights · point`) charged
    /// to this session.
    ///
    /// # Panics
    /// Panics if `weights.len() != self.tree().dim()`.
    pub(crate) fn ranked_iter<'s>(&'s self, weights: &'s [f64]) -> RankedIter<'s, Self> {
        assert_eq!(
            weights.len(),
            self.tree.dim(),
            "weight vector dimensionality mismatch"
        );
        RankedIter::over(self, weights)
    }

    /// The single best point under `weights` (`None` on an empty tree).
    pub fn top1(&self, weights: &[f64]) -> Option<RankedHit> {
        self.ranked_iter(weights).next()
    }
}

impl NodeSource for IoSession<'_> {
    #[inline]
    fn dim(&self) -> usize {
        self.tree.dim()
    }

    #[inline]
    fn root_page(&self) -> PageId {
        self.snap.root_page()
    }

    #[inline]
    fn len(&self) -> u64 {
        self.snap.len()
    }

    fn read_node(&self, pid: PageId) -> Arc<Node> {
        let (node, missed) = self.tree.read_node_probe(pid);
        self.logical.set(self.logical.get() + 1);
        if missed {
            self.physical_reads.set(self.physical_reads.get() + 1);
        }
        node
    }

    #[inline]
    fn io_snapshot(&self) -> IoStats {
        self.stats()
    }
}

/// Low bits of a [`Forest`] page id: the page's id within its part. The
/// bits above them number the part.
const PAGE_BITS: u32 = 24;
const PAGE_MASK: u32 = (1 << PAGE_BITS) - 1;

/// The virtual root of a forest of several parts: the one id of part 0
/// that [`Forest::MAX_PART_PAGES`] keeps free.
const VIRTUAL_ROOT: PageId = PageId(PAGE_MASK);

/// Why sources cannot be read as one [`Forest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForestError {
    /// More parts than a page id has part numbers for.
    TooManyParts {
        /// Number of parts offered.
        got: usize,
        /// Most parts one forest takes: 256.
        max: usize,
    },
    /// A part whose page ids do not fit beside a part number.
    PartTooLarge {
        /// One past the part's highest page id.
        pages: u32,
        /// Most pages a part of several may span: 2^24 - 1, less the
        /// room a part that is about to grow keeps free.
        max: u32,
    },
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::TooManyParts { got, max } => {
                write!(f, "{got} trees, one forest takes at most {max}")
            }
            ForestError::PartTooLarge { pages, max } => write!(
                f,
                "a tree of {pages} pages, a forest of several takes at most {max} a tree"
            ),
        }
    }
}

impl std::error::Error for ForestError {}

/// `K >= 1` node sources read as one (see the [module docs](self)):
/// ranked search and BBS over a forest visit the `K` trees in one
/// best-first order, so an entry of one tree prunes subtrees of another
/// before they are read.
///
/// The parts must share a dimensionality and index points of the unit
/// space `[0, 1]^dim` — the rectangle the virtual root claims for every
/// part — as every tree of this workspace does.
#[derive(Debug)]
pub struct Forest<R> {
    parts: Vec<R>,
    /// Lists the parts' roots, tagged; `None` in a forest of one part,
    /// whose root is the part's own.
    root: Option<Arc<Node>>,
}

impl<R: NodeSource> Forest<R> {
    /// Most parts one forest takes.
    const MAX_PARTS: usize = 1 << (32 - PAGE_BITS);

    /// Most pages a part of a forest of several may span (one past its
    /// highest page id).
    const MAX_PART_PAGES: u32 = PAGE_MASK;

    /// Can `parts` trees of these page bounds (one past the highest
    /// page id each) be read as one forest? One tree always can: its
    /// ids are not tagged.
    pub fn check(
        parts: usize,
        page_bounds: impl IntoIterator<Item = u32>,
    ) -> Result<(), ForestError> {
        if parts > Self::MAX_PARTS {
            return Err(ForestError::TooManyParts {
                got: parts,
                max: Self::MAX_PARTS,
            });
        }
        let mut bounds = page_bounds.into_iter();
        match bounds.find(|&pages| pages > Self::MAX_PART_PAGES) {
            Some(pages) if parts > 1 => Err(ForestError::PartTooLarge {
                pages,
                max: Self::MAX_PART_PAGES,
            }),
            _ => Ok(()),
        }
    }

    /// Pages a part of several keeps free for the mutation it is about
    /// to take. One mutation rewrites a root-to-leaf path and re-inserts
    /// what the nodes it dissolved held — hundreds of pages on the
    /// deepest tree that fits — and a removal recycles what the one
    /// before it freed, so a part that stops growing here stays
    /// readable however long it is shrunk.
    const MUTATION_ROOM: u32 = 1 << 16;

    /// Can a part spanning `pages` (one past its highest page id) of a
    /// forest of `parts` grow by one more mutation and still be read?
    /// [`check`](Forest::check) for a tree that is about to change: the
    /// owner of the parts refuses the insert, where it can, rather than
    /// let a later traversal meet a page id it cannot tag.
    pub fn check_room(parts: usize, pages: u32) -> Result<(), ForestError> {
        let max = Self::MAX_PART_PAGES - Self::MUTATION_ROOM;
        if parts > 1 && pages > max {
            return Err(ForestError::PartTooLarge { pages, max });
        }
        Ok(())
    }

    /// The forest of `parts`, in part order. Their page bounds are the
    /// caller's to [`check`](Forest::check) where it can still refuse
    /// them; a traversal that meets a page id too large to tag panics
    /// rather than read another part's page.
    ///
    /// # Panics
    /// Panics if `parts` is empty, holds more than [`check`](Forest::check)
    /// allows or mixes dimensionalities.
    pub fn new(parts: Vec<R>) -> Forest<R> {
        assert!(parts.len() <= Self::MAX_PARTS, "unchecked part count");
        let dim = parts.first().expect("a forest has a part").dim();
        assert!(parts.iter().all(|part| part.dim() == dim));
        let root = (parts.len() > 1).then(|| {
            let mut root = InnerNode::new(dim, u8::MAX);
            let (lo, hi) = (vec![0.0; dim], vec![1.0; dim]);
            for (part, src) in parts.iter().enumerate() {
                root.push(&lo, &hi, tag(src.root_page(), part as u32));
            }
            Arc::new(Node::Inner(root))
        });
        Forest { parts, root }
    }

    /// The parts, in part order.
    pub fn parts(&self) -> &[R] {
        &self.parts
    }
}

/// Page `page` of part `part` as a forest names it.
fn tag(page: PageId, part: u32) -> PageId {
    assert!(
        page.0 < PAGE_MASK,
        "page {page} does not fit beside a part number"
    );
    PageId(page.0 | part << PAGE_BITS)
}

impl<R: NodeSource> NodeSource for Forest<R> {
    #[inline]
    fn dim(&self) -> usize {
        self.parts[0].dim()
    }

    #[inline]
    fn root_page(&self) -> PageId {
        match self.root {
            None => self.parts[0].root_page(),
            Some(_) => VIRTUAL_ROOT,
        }
    }

    fn len(&self) -> u64 {
        self.parts.iter().map(NodeSource::len).sum()
    }

    #[inline]
    fn read_node(&self, pid: PageId) -> Arc<Node> {
        match &self.root {
            None => self.parts[0].read_node(pid),
            Some(root) if pid == VIRTUAL_ROOT => Arc::clone(root),
            Some(_) => {
                let part = &self.parts[(pid.0 >> PAGE_BITS) as usize];
                part.read_node(PageId(pid.0 & PAGE_MASK))
            }
        }
    }

    #[inline]
    fn child_page(&self, parent: PageId, child: PageId) -> PageId {
        // The virtual root lists ids that are tagged already.
        if self.root.is_none() || parent == VIRTUAL_ROOT {
            child
        } else {
            tag(child, parent.0 >> PAGE_BITS)
        }
    }

    fn io_snapshot(&self) -> IoStats {
        let snapshots = self.parts.iter().map(NodeSource::io_snapshot);
        snapshots.fold(IoStats::default(), |sum, io| sum + io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::PointSet;
    use crate::tree::RTreeParams;

    fn seeded_points(n: usize, dim: usize, seed: u64) -> PointSet {
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

    fn tree() -> RTree {
        RTree::bulk_load(
            &seeded_points(3_000, 2, 17),
            RTreeParams {
                page_size: 256,
                min_fill_ratio: 0.4,
                buffer_capacity: 32,
            },
        )
    }

    #[test]
    fn session_reads_advance_both_scopes() {
        let t = tree();
        let global_before = t.io_stats();
        let s = IoSession::new(&t);
        let hit = s.top1(&[0.5, 0.5]).unwrap();
        assert!(hit.score > 0.0);
        let local = s.stats();
        assert!(local.logical > 0);
        assert!(local.physical_reads > 0, "cold buffer: misses expected");
        let global = t.io_stats().since(global_before);
        assert_eq!(global.logical, local.logical);
        assert_eq!(global.physical_reads, local.physical_reads);
    }

    #[test]
    fn two_sessions_account_independently() {
        let t = tree();
        let a = IoSession::new(&t);
        let b = IoSession::new(&t);
        let _ = a.top1(&[0.9, 0.1]);
        let after_a = a.stats();
        let _ = b.top1(&[0.1, 0.9]);
        assert_eq!(a.stats(), after_a, "b's reads must not leak into a");
        assert!(b.stats().logical > 0);
    }

    #[test]
    fn session_results_match_tree_results() {
        let t = tree();
        let s = IoSession::new(&t);
        for w in [[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]] {
            let via_session: Vec<u64> = s.ranked_iter(&w).take(20).map(|h| h.oid).collect();
            let via_tree: Vec<u64> = t.ranked_iter(&w).take(20).map(|h| h.oid).collect();
            assert_eq!(via_session, via_tree);
        }
    }

    #[test]
    fn logical_counts_are_deterministic_physical_depend_on_buffer() {
        let t = tree();
        let s1 = IoSession::new(&t);
        let _ = s1.ranked_iter(&[0.5, 0.5]).take(50).count();
        let s2 = IoSession::new(&t);
        let _ = s2.ranked_iter(&[0.5, 0.5]).take(50).count();
        assert_eq!(s1.stats().logical, s2.stats().logical);
        // the second run found a warmer buffer
        assert!(s2.stats().physical_reads <= s1.stats().physical_reads);
    }

    #[test]
    fn session_is_pinned_across_concurrent_mutations() {
        let t = tree();
        let s = IoSession::new(&t);
        let before: Vec<u64> = s.ranked_iter(&[0.5, 0.5]).take(10).map(|h| h.oid).collect();
        // Delete the session's current best and insert a dominating point.
        let top = s.top1(&[0.5, 0.5]).unwrap();
        assert!(t.delete(&top.point, top.oid));
        t.insert(&[1.0, 1.0], 999_999);
        // The pinned session still answers from its frozen epoch...
        let after: Vec<u64> = s.ranked_iter(&[0.5, 0.5]).take(10).map(|h| h.oid).collect();
        assert_eq!(before, after);
        // ...while a fresh session sees the new version.
        let s2 = IoSession::new(&t);
        assert_eq!(s2.top1(&[0.5, 0.5]).unwrap().oid, 999_999);
        assert!(s2.epoch() > s.epoch());
    }

    // ------------------------------------------------------------------
    // Forest
    // ------------------------------------------------------------------

    fn small_pages() -> RTreeParams {
        RTreeParams {
            page_size: 256,
            min_fill_ratio: 0.4,
            buffer_capacity: 32,
        }
    }

    /// `points` cut `k` ways into trees that index them under their ids
    /// in `points`: the first seven go to part 0 — a root leaf beside
    /// trees of several levels — the rest round-robin over the parts up
    /// to the last, which past two parts stays **empty**.
    fn cut(points: &PointSet, k: usize) -> Vec<RTree> {
        let trees: Vec<RTree> = (0..k)
            .map(|_| RTree::new(points.dim(), small_pages()))
            .collect();
        for (i, p) in points.iter() {
            let part = match k {
                1 => 0,
                _ if i < 7 => 0,
                2 => 1,
                _ => 1 + i % (k - 2),
            };
            trees[part].insert(p, i as u64);
        }
        trees
    }

    /// 2 000 points, a tenth of them repeated, so equal scores abound.
    fn points_with_twins() -> PointSet {
        let mut points = seeded_points(2_000, 2, 23);
        for i in 0..200 {
            let twin: Vec<f64> = points.get(i * 7).to_vec();
            points.push(&twin);
        }
        points
    }

    #[test]
    fn a_forest_ranks_like_one_tree() {
        let points = points_with_twins();
        let ranking = |src: &Forest<&RTree>, w: &[f64]| -> Vec<(u64, u64)> {
            let hits = RankedIter::over(src, w);
            hits.map(|h| (h.oid, h.score.to_bits())).collect()
        };
        let one = cut(&points, 1);
        let one = Forest::new(one.iter().collect());
        for k in [1, 2, 5] {
            let trees = cut(&points, k);
            let heights: Vec<u32> = trees.iter().map(RTree::height).collect();
            if k > 1 {
                assert!(heights[0] < heights[1], "trees of different heights");
                assert_eq!(trees[k - 1].len(), u64::from(k == 2) * 2_193);
            }
            let forest = Forest::new(trees.iter().collect());
            assert_eq!(forest.len(), 2_200);
            assert_eq!(forest.dim(), 2);
            for w in [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.3, 0.7], [0.9, 0.1]] {
                let ranked = ranking(&forest, &w);
                assert_eq!(ranked.len(), 2_200);
                assert_eq!(ranked, ranking(&one, &w), "K={k}, weights {w:?}");
                let ordered = |pair: &[(u64, u64)]| {
                    let (a, b) = (pair[0], pair[1]);
                    f64::from_bits(a.1) > f64::from_bits(b.1) || (a.1 == b.1 && a.0 < b.0)
                };
                assert!(ranked.windows(2).all(ordered), "ties by ascending id");
            }
        }
    }

    #[test]
    fn a_forest_reads_what_its_parts_read() {
        let points = points_with_twins();
        let trees = cut(&points, 5);
        let forest = Forest::new(trees.iter().map(IoSession::new).collect());
        let top: Vec<u64> = RankedIter::over(&forest, &[0.4, 0.6])
            .take(300)
            .map(|h| h.oid)
            .collect();
        assert_eq!(top.len(), 300);
        let parts = forest.parts().iter().map(IoSession::stats);
        let sum = parts.fold(IoStats::default(), |sum, io| sum + io);
        assert_eq!(forest.io_snapshot(), sum, "the virtual root is no page");
        assert!(forest.parts().iter().all(|part| part.stats().logical >= 1));
        let pages: usize = trees.iter().map(RTree::page_count).sum();
        assert!(
            (sum.logical as usize) < pages,
            "a ranked search, not a scan"
        );
    }

    #[test]
    fn a_forest_of_one_is_its_tree() {
        let t = tree();
        let forest = Forest::new(vec![&t]);
        assert_eq!(forest.root_page(), t.root_page());
        let child = PageId(u32::MAX - 1);
        assert_eq!(forest.child_page(t.root_page(), child), child, "untagged");
        let reads = |search: &dyn Fn() -> Vec<u64>| {
            let before = t.io_stats().logical;
            (search(), t.io_stats().logical - before)
        };
        let w = [0.5, 0.5];
        let through = reads(&|| {
            let hits = RankedIter::over(&forest, &w);
            hits.take(40).map(|h| h.oid).collect()
        });
        let bare = reads(&|| t.ranked_iter(&w).take(40).map(|h| h.oid).collect());
        assert_eq!(through, bare, "same hits from the same number of reads");
    }

    #[test]
    fn what_does_not_fit_a_forest_is_refused() {
        type F<'t> = Forest<&'t RTree>;
        assert_eq!(F::check(F::MAX_PARTS, []), Ok(()));
        assert_eq!(
            F::check(F::MAX_PARTS + 1, []),
            Err(ForestError::TooManyParts { got: 257, max: 256 })
        );
        let most = F::MAX_PART_PAGES;
        assert_eq!(F::check(2, [5, most]), Ok(()));
        assert_eq!(
            F::check(2, [5, most + 1]),
            Err(ForestError::PartTooLarge {
                pages: most + 1,
                max: (1 << 24) - 1
            })
        );
        assert_eq!(F::check(1, [u32::MAX]), Ok(()), "one tree is not tagged");

        // A part that is about to grow keeps room for what it may add.
        let most_growing = most - (1 << 16);
        assert_eq!(F::check_room(2, most_growing), Ok(()));
        assert_eq!(
            F::check_room(2, most_growing + 1),
            Err(ForestError::PartTooLarge {
                pages: most_growing + 1,
                max: most_growing
            })
        );
        assert_eq!(F::check_room(1, u32::MAX), Ok(()));

        // The last page id that fits is tagged; the next one — the
        // virtual root's own — is no page of any part.
        let trees = cut(&seeded_points(40, 2, 5), 3);
        let forest = Forest::new(trees.iter().collect());
        let parent = forest.read_node(forest.root_page()).as_inner().child(2);
        assert_eq!(parent.0 >> 24, 2, "a root of part 2");
        let last = PageId(most - 1);
        assert_eq!(forest.child_page(parent, last), PageId(2 << 24 | last.0));
        let wrapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            forest.child_page(parent, PageId(most))
        }));
        assert!(wrapped.is_err(), "refused, not read as another part's page");
    }
}
