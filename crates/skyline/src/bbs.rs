//! One-shot Branch-and-Bound Skyline (BBS) computation.
//!
//! This is the standalone variant of the traversal inside
//! [`crate::maintain::SkylineMaintainer`], without plist bookkeeping. It
//! exists as an independently testable reference for the maintainer:
//! [`SkylineMaintainer::build`](crate::SkylineMaintainer::build) and
//! [`SkylineMaintainer::build_hiding`](crate::SkylineMaintainer::build_hiding)
//! must find its skyline, in its order, reading its pages.
//!
//! [`compute_skyline_excluding`] treats a caller-chosen set of object ids
//! as absent: excluded points neither enter the skyline nor prune other
//! entries, which is exactly the semantics needed when objects have been
//! assigned but not physically deleted from the tree.

use std::collections::BinaryHeap;

use mpq_rtree::geometry::mindist_to_best;
use mpq_rtree::pager::PageId;
use mpq_rtree::{Node, NodeSource};

use crate::dominance::dominates_or_equal;

enum Cand {
    Point { oid: u64, point: Box<[f64]> },
    Subtree { pid: PageId, hi: Box<[f64]> },
}

impl Cand {
    fn hi(&self) -> &[f64] {
        match self {
            Cand::Point { point, .. } => point,
            Cand::Subtree { hi, .. } => hi,
        }
    }
}

struct Item {
    key: f64,
    kind: u8,
    id: u64,
    cand: Cand,
}

impl Item {
    fn new(cand: Cand) -> Item {
        let key = mindist_to_best(cand.hi());
        let (kind, id) = match &cand {
            Cand::Subtree { pid, .. } => (0u8, pid.0 as u64),
            Cand::Point { oid, .. } => (1u8, *oid),
        };
        Item {
            key,
            kind,
            id,
            cand,
        }
    }
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Item {}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.kind.cmp(&self.kind))
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Skyline of every object in the tree, as `(oid, point)` pairs in BBS
/// discovery order (ascending L1 distance to the best corner).
///
/// Generic over the node access path: pass a `&RTree` directly, or a
/// run-scoped [`mpq_rtree::IoSession`] to attribute the page traffic.
pub fn compute_skyline<R: NodeSource>(tree: &R) -> Vec<(u64, Box<[f64]>)> {
    compute_skyline_excluding(tree, |_| false)
}

/// Skyline of the objects for which `excluded(oid)` is `false`.
///
/// Excluded objects are invisible: they are skipped when popped and never
/// used for pruning, so objects dominated *only* by excluded objects are
/// reported.
pub fn compute_skyline_excluding<R: NodeSource>(
    tree: &R,
    excluded: impl Fn(u64) -> bool,
) -> Vec<(u64, Box<[f64]>)> {
    let mut heap = BinaryHeap::new();
    heap.push(Item::new(Cand::Subtree {
        pid: tree.root_page(),
        hi: vec![1.0; tree.dim()].into(),
    }));
    let mut sky: Vec<(u64, Box<[f64]>)> = Vec::new();

    let dominated =
        |sky: &[(u64, Box<[f64]>)], x: &[f64]| sky.iter().any(|(_, p)| dominates_or_equal(p, x));

    while let Some(item) = heap.pop() {
        if dominated(&sky, item.cand.hi()) {
            continue;
        }
        match item.cand {
            Cand::Point { oid, point } => {
                // exclusion was checked before pushing; defensive re-check
                if !excluded(oid) {
                    sky.push((oid, point));
                }
            }
            Cand::Subtree { pid, .. } => {
                let node = tree.read_node(pid);
                match &*node {
                    Node::Leaf(leaf) => {
                        for (oid, p) in leaf.iter() {
                            if excluded(oid) || dominated(&sky, p) {
                                continue;
                            }
                            heap.push(Item::new(Cand::Point {
                                oid,
                                point: p.into(),
                            }));
                        }
                    }
                    Node::Inner(inner) => {
                        for i in 0..inner.len() {
                            if dominated(&sky, inner.hi(i)) {
                                continue;
                            }
                            heap.push(Item::new(Cand::Subtree {
                                pid: inner.child(i),
                                hi: inner.hi(i).into(),
                            }));
                        }
                    }
                }
            }
        }
    }
    sky
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::{SkylineColumns, SkylineMaintainer};
    use crate::naive::naive_skyline_excluding;
    use mpq_datagen::Distribution;
    use mpq_rtree::{PointSet, RTree, RTreeParams};
    use std::collections::HashSet;

    fn params() -> RTreeParams {
        RTreeParams {
            page_size: 256,
            min_fill_ratio: 0.4,
            buffer_capacity: 4096,
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

    #[test]
    fn bbs_matches_naive_reference() {
        for seed in [5, 6] {
            let ps = seeded_points(700, 3, seed);
            let tree = RTree::bulk_load(&ps, params());
            let mut got: Vec<u64> = compute_skyline(&tree).into_iter().map(|(o, _)| o).collect();
            got.sort_unstable();
            assert_eq!(got, naive_skyline_excluding(&ps, &HashSet::new()));
        }
    }

    /// The maintainer's BBS with hidden objects skipped is this one:
    /// over a hidden set that grows as an SB-rescan run's does — the
    /// first members of each skyline, and objects no skyline held — it
    /// finds the same members in the same order from the same page
    /// reads, on columns recycled from build to build.
    #[test]
    fn build_hiding_reads_what_bbs_reads() {
        for distribution in [Distribution::Independent, Distribution::AntiCorrelated] {
            for (dim, page_size) in [(2, 256), (3, 4096), (4, 256)] {
                let ps = distribution.generate(1500, dim, 23);
                let tree = RTree::bulk_load(
                    &ps,
                    RTreeParams {
                        page_size,
                        ..params()
                    },
                );
                let mut hidden: HashSet<u64> = HashSet::new();
                let mut columns = SkylineColumns::default();
                for round in 0..12 {
                    let label = format!(
                        "{} dim {dim} page {page_size} round {round}",
                        distribution.name()
                    );
                    tree.reset_io_stats();
                    let bbs = compute_skyline_excluding(&tree, |o| hidden.contains(&o));
                    let reads = tree.io_stats().logical;
                    tree.reset_io_stats();
                    let m =
                        SkylineMaintainer::build_hiding(&tree, |o| hidden.contains(&o), columns);
                    assert_eq!(tree.io_stats().logical, reads, "{label}");
                    assert_eq!(m.stats().nodes_expanded, reads, "{label}");
                    let members = m.iter().map(|e| (e.oid, e.point));
                    assert!(
                        members.eq(bbs.iter().map(|(oid, p)| (*oid, &p[..]))),
                        "{label}"
                    );
                    hidden.extend(bbs.iter().take(1 + round % 5).map(|&(oid, _)| oid));
                    hidden.extend((0..3).map(|i| (round * 97 + i * 31) as u64 % 1500));
                    columns = m.into_columns();
                }
            }
        }
    }

    #[test]
    fn bbs_emits_in_mindist_order() {
        let ps = seeded_points(500, 2, 18);
        let tree = RTree::bulk_load(&ps, params());
        let sky = compute_skyline(&tree);
        let dists: Vec<f64> = sky
            .iter()
            .map(|(_, p)| p.iter().map(|&c| 1.0 - c).sum())
            .collect();
        assert!(
            dists.windows(2).all(|w| w[0] <= w[1] + 1e-12),
            "BBS must be progressive (ascending mindist)"
        );
    }

    #[test]
    fn exclusion_reveals_second_layer() {
        let ps = seeded_points(800, 2, 20);
        let tree = RTree::bulk_load(&ps, params());
        let first: HashSet<u64> = compute_skyline(&tree).into_iter().map(|(o, _)| o).collect();
        let mut second: Vec<u64> = compute_skyline_excluding(&tree, |o| first.contains(&o))
            .into_iter()
            .map(|(o, _)| o)
            .collect();
        second.sort_unstable();
        assert_eq!(second, naive_skyline_excluding(&ps, &first));
        assert!(second.iter().all(|o| !first.contains(o)));
    }

    #[test]
    fn standalone_bbs_agrees_with_maintainer() {
        let ps = seeded_points(600, 4, 21);
        let tree = RTree::bulk_load(&ps, params());
        let m = SkylineMaintainer::build(&tree);
        let mut a: Vec<u64> = m.iter().map(|e| e.oid).collect();
        a.sort_unstable();
        let mut b: Vec<u64> = compute_skyline(&tree).into_iter().map(|(o, _)| o).collect();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_tree_has_empty_skyline() {
        let tree = RTree::new(3, params());
        assert!(compute_skyline(&tree).is_empty());
    }
}
