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

use std::cell::Cell;
use std::sync::Arc;

use crate::node::Node;
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

    /// The caller's stamp published with the pinned epoch (see
    /// [`RTree::apply`]): read under the same lock as the root, so it
    /// names exactly the version this session reads.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.snap.stamp()
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
}
