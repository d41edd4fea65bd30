//! Branch-and-bound ranked search over the R-tree ("BRS", Tao et al.,
//! Information Systems 32(3), 2007).
//!
//! Given a linear scoring function with non-negative weights, the score
//! of any point inside an MBR is upper-bounded by the score of the MBR's
//! *upper corner*. A best-first traversal that expands entries in
//! decreasing bound order therefore emits points in exact descending
//! score order: when a point reaches the top of the priority queue, no
//! unexpanded subtree can contain anything better.
//!
//! This module provides the one-shot [`crate::RTree::top1`] /
//! [`crate::RTree::top_k`] and the incremental [`RankedIter`] used by the
//! Brute Force and Chain matchers of the paper.
//!
//! Ties are resolved deterministically: equal-bound inner entries are
//! expanded before equal-score points are emitted, and equal-score points
//! are emitted in ascending object id order. This makes every matcher in
//! the workspace produce identical assignments even on tie-heavy data.

use std::collections::BinaryHeap;

use crate::geometry::{dot, upper_score};
use crate::node::Node;
use crate::pager::PageId;
use crate::session::NodeSource;
use crate::tree::RTree;

/// One result of a ranked search.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedHit {
    /// Object id of the point.
    pub oid: u64,
    /// Its score under the query weights.
    pub score: f64,
    /// The point itself.
    pub point: Box<[f64]>,
}

#[derive(Debug)]
enum Cand {
    Node { pid: u32 },
    Point { oid: u64, point: Box<[f64]> },
}

#[derive(Debug)]
struct HeapItem {
    bound: f64,
    cand: Cand,
}

impl HeapItem {
    /// Rank for tie-breaking at equal bound: nodes first (so ties hiding
    /// in subtrees are surfaced before a point is emitted), then points
    /// by ascending id.
    fn tie_rank(&self) -> (u8, u64) {
        match &self.cand {
            Cand::Node { pid } => (1, *pid as u64),
            Cand::Point { oid, .. } => (0, *oid),
        }
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: larger = popped first.
        self.bound.total_cmp(&other.bound).then_with(|| {
            let (ka, ia) = self.tie_rank();
            let (kb, ib) = other.tie_rank();
            // nodes (rank 1) before points (rank 0), then smaller ids first
            ka.cmp(&kb).then_with(|| ib.cmp(&ia))
        })
    }
}

/// Reusable frontier storage for [`RankedIter`].
///
/// Every ranked search keeps a priority queue of candidate entries; a
/// matcher that issues thousands of short top-1 searches (Brute Force
/// restart, Chain) otherwise allocates and drops that queue thousands of
/// times. A `SearchBuf` owns the queue's backing storage across
/// searches: pass it to [`RankedIter::over_reusing`], and take it back
/// with [`RankedIter::recycle`] when the search is done. The buffer is
/// opaque and starts every search empty — reuse affects allocation only,
/// never results.
#[derive(Default)]
pub struct SearchBuf(Vec<HeapItem>);

impl SearchBuf {
    /// An empty buffer (no allocation until first use).
    pub fn new() -> SearchBuf {
        SearchBuf::default()
    }

    /// Number of heap entries the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

impl std::fmt::Debug for SearchBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchBuf")
            .field("capacity", &self.0.capacity())
            .finish()
    }
}

/// Incremental top-k iterator: each [`RankedIter::next`] call returns the
/// next-best point in descending `weights · point` order, reading tree
/// pages lazily. The weights are borrowed for the whole search.
///
/// Generic over the node access path ([`NodeSource`]): searches run
/// against a bare [`RTree`] (the default) or a run-scoped
/// [`crate::IoSession`], which attributes the page traffic to one run.
pub struct RankedIter<'t, Src: NodeSource = RTree> {
    src: &'t Src,
    weights: &'t [f64],
    heap: BinaryHeap<HeapItem>,
}

impl<'t, Src: NodeSource> RankedIter<'t, Src> {
    /// Ranked search under `weights` over any [`NodeSource`] — a bare
    /// tree or a run-scoped [`crate::IoSession`].
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite (the upper-corner
    /// bound would be inadmissible).
    pub fn over(src: &'t Src, weights: &'t [f64]) -> RankedIter<'t, Src> {
        Self::over_reusing(src, weights, SearchBuf::new())
    }

    /// Like [`RankedIter::over`], but reusing the frontier storage of an
    /// earlier search (see [`SearchBuf`]). Recover the storage with
    /// [`RankedIter::recycle`].
    pub fn over_reusing(src: &'t Src, weights: &'t [f64], buf: SearchBuf) -> RankedIter<'t, Src> {
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "ranked search requires finite, non-negative weights"
        );
        let mut storage = buf.0;
        storage.clear();
        let root_page = src.root_page();
        let root = src.read_node(root_page);
        let mut it = RankedIter {
            src,
            weights,
            heap: BinaryHeap::from(storage),
        };
        // Seed with the root's entries (reading the root costs 1 logical
        // access, matching how the paper counts a query's first page).
        it.expand(root_page, &root);
        it
    }

    /// Abandon the search, keeping the frontier's backing allocation for
    /// the next one.
    pub fn recycle(self) -> SearchBuf {
        SearchBuf(self.heap.into_vec())
    }

    /// Number of entries currently held in the search frontier (the
    /// priority queue). Persistent incremental searches — as used by the
    /// paper's Brute Force matcher — keep one frontier per query; this
    /// accessor lets callers account for that memory.
    pub fn frontier_len(&self) -> usize {
        self.heap.len()
    }

    fn expand(&mut self, pid: PageId, node: &Node) {
        match node {
            Node::Leaf(leaf) => {
                for (oid, p) in leaf.iter() {
                    self.heap.push(HeapItem {
                        bound: dot(self.weights, p),
                        cand: Cand::Point {
                            oid,
                            point: p.into(),
                        },
                    });
                }
            }
            Node::Inner(inner) => {
                for i in 0..inner.len() {
                    self.heap.push(HeapItem {
                        bound: upper_score(self.weights, inner.hi(i)),
                        cand: Cand::Node {
                            pid: self.src.child_page(pid, inner.child(i)).0,
                        },
                    });
                }
            }
        }
    }
}

impl<Src: NodeSource> Iterator for RankedIter<'_, Src> {
    type Item = RankedHit;

    fn next(&mut self) -> Option<RankedHit> {
        while let Some(item) = self.heap.pop() {
            match item.cand {
                Cand::Point { oid, point } => {
                    return Some(RankedHit {
                        oid,
                        score: item.bound,
                        point,
                    });
                }
                Cand::Node { pid } => {
                    let node = self.src.read_node(PageId(pid));
                    self.expand(PageId(pid), &node);
                }
            }
        }
        None
    }
}

impl RTree {
    /// Incremental ranked search: yields points in descending
    /// `weights · point` order.
    pub(crate) fn ranked_iter<'t>(&'t self, weights: &'t [f64]) -> RankedIter<'t> {
        assert_eq!(
            weights.len(),
            self.dim(),
            "weight vector dimensionality mismatch"
        );
        RankedIter::over(self, weights)
    }

    /// The single best point under the given weights (`None` on an empty
    /// tree). Equal scores resolve to the smallest object id.
    pub fn top1(&self, weights: &[f64]) -> Option<RankedHit> {
        self.ranked_iter(weights).next()
    }

    /// The `k` best points in descending score order (fewer if the tree
    /// holds fewer points).
    pub fn top_k(&self, weights: &[f64], k: usize) -> Vec<RankedHit> {
        self.ranked_iter(weights).take(k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::PointSet;
    use crate::tree::RTreeParams;

    fn params() -> RTreeParams {
        RTreeParams {
            page_size: 256,
            min_fill_ratio: 0.4,
            buffer_capacity: 1024,
        }
    }

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

    fn brute_top_k(ps: &PointSet, w: &[f64], k: usize) -> Vec<(u64, f64)> {
        let mut scored: Vec<(u64, f64)> = ps.iter().map(|(i, p)| (i as u64, dot(w, p))).collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    #[test]
    fn top_k_matches_brute_force_on_random_data() {
        let ps = seeded_points(800, 3, 21);
        let tree = RTree::bulk_load(&ps, params());
        for w in [
            [1.0, 0.0, 0.0],
            [0.0, 0.5, 0.5],
            [0.2, 0.3, 0.5],
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ] {
            let got: Vec<(u64, f64)> = tree
                .top_k(&w, 25)
                .into_iter()
                .map(|h| (h.oid, h.score))
                .collect();
            let expect = brute_top_k(&ps, &w, 25);
            for (g, e) in got.iter().zip(expect.iter()) {
                assert_eq!(g.0, e.0, "rank order mismatch for weights {w:?}");
                assert!((g.1 - e.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn iterator_emits_monotonically_decreasing_scores() {
        let ps = seeded_points(500, 2, 8);
        let tree = RTree::bulk_load(&ps, params());
        let mut last = f64::INFINITY;
        let mut n = 0;
        for hit in tree.ranked_iter(&[0.6, 0.4]) {
            assert!(hit.score <= last + 1e-15);
            last = hit.score;
            n += 1;
        }
        assert_eq!(n, 500, "iterator must eventually emit every point");
    }

    #[test]
    fn equal_scores_emit_in_ascending_oid_order() {
        let mut ps = PointSet::new(2);
        // four points with identical score 0.5 under w = (0.5, 0.5)
        ps.push(&[0.5, 0.5]);
        ps.push(&[0.6, 0.4]);
        ps.push(&[0.4, 0.6]);
        ps.push(&[0.3, 0.7]);
        ps.push(&[0.9, 0.8]); // clearly best, score 0.85
        let tree = RTree::bulk_load(&ps, params());
        let hits = tree.top_k(&[0.5, 0.5], 5);
        assert_eq!(hits[0].oid, 4);
        let rest: Vec<u64> = hits[1..].iter().map(|h| h.oid).collect();
        assert_eq!(rest, vec![0, 1, 2, 3], "ties must break by ascending oid");
    }

    #[test]
    fn top1_on_empty_tree_is_none() {
        let tree = RTree::new(2, params());
        assert!(tree.top1(&[0.5, 0.5]).is_none());
    }

    #[test]
    fn top1_respects_deletions() {
        let ps = seeded_points(300, 2, 77);
        let tree = RTree::bulk_load(&ps, params());
        let w = [0.7, 0.3];
        let first = tree.top1(&w).unwrap();
        assert!(tree.delete(&first.point, first.oid));
        let second = tree.top1(&w).unwrap();
        assert_ne!(first.oid, second.oid);
        assert!(second.score <= first.score);
        let expect = brute_top_k(&ps, &w, 2)[1];
        assert_eq!(second.oid, expect.0);
    }

    #[test]
    fn zero_weights_are_allowed() {
        let ps = seeded_points(100, 3, 5);
        let tree = RTree::bulk_load(&ps, params());
        let hit = tree.top1(&[0.0, 0.0, 1.0]).unwrap();
        let expect = brute_top_k(&ps, &[0.0, 0.0, 1.0], 1)[0];
        assert_eq!(hit.oid, expect.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_are_rejected() {
        let ps = seeded_points(10, 2, 1);
        let tree = RTree::bulk_load(&ps, params());
        let _ = tree.top1(&[-0.5, 1.5]);
    }

    #[test]
    fn reused_search_buf_matches_fresh_searches_and_keeps_capacity() {
        let ps = seeded_points(800, 2, 47);
        let tree = RTree::bulk_load(&ps, params());
        let mut buf = SearchBuf::new();
        let mut grown = 0usize;
        for w in [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9], [0.7, 0.3]] {
            let mut it = RankedIter::over_reusing(&tree, &w, buf);
            let hit = it.next().unwrap();
            let fresh = tree.top1(&w).unwrap();
            assert_eq!(hit.oid, fresh.oid);
            assert_eq!(hit.score, fresh.score);
            buf = it.recycle();
            grown = grown.max(buf.capacity());
            assert!(buf.capacity() > 0, "storage survives recycling");
        }
        assert_eq!(buf.capacity(), grown, "allocation is reused, not redone");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn borrowing_scorer_rejects_negative_weights() {
        let tree = RTree::new(2, params());
        let _ = RankedIter::over(&tree, &[0.5, -0.1]);
    }

    #[test]
    fn ranked_search_reads_few_pages() {
        // Best-first search should touch a small fraction of a large tree.
        let ps = seeded_points(20_000, 2, 13);
        let tree = RTree::bulk_load(
            &ps,
            RTreeParams {
                page_size: 4096,
                min_fill_ratio: 0.4,
                buffer_capacity: 10_000,
            },
        );
        tree.reset_io_stats();
        let _ = tree.top1(&[0.5, 0.5]).unwrap();
        let io = tree.io_stats();
        let total_pages = tree.page_count() as u64;
        assert!(
            io.physical_reads * 10 < total_pages,
            "top-1 search read {}/{} pages",
            io.physical_reads,
            total_pages
        );
    }
}
