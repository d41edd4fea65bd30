//! Stress and property tests for the R-tree substrate beyond the
//! per-module unit tests: codec round-trips over arbitrary values,
//! pathological buffer capacities, minimum-fanout pages, and large
//! mixed-operation sequences.

use proptest::prelude::*;

use mpq_rtree::node::{InnerNode, LeafNode, Node};
use mpq_rtree::pager::PageId;
use mpq_rtree::{PointSet, RTree, RTreeParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn leaf_codec_roundtrip(
        rows in proptest::collection::vec(
            (proptest::collection::vec(-1e9f64..1e9, 3), any::<u64>()),
            0..40,
        )
    ) {
        let mut leaf = LeafNode::new(3);
        for (p, oid) in &rows {
            leaf.push(p, *oid);
        }
        let node = Node::Leaf(leaf);
        let mut page = vec![0u8; node.encoded_len()];
        node.encode(&mut page);
        prop_assert_eq!(Node::decode(3, &page), node);
    }

    #[test]
    fn inner_codec_roundtrip(
        rows in proptest::collection::vec(
            (
                proptest::collection::vec(0f64..1.0, 2),
                proptest::collection::vec(0f64..1.0, 2),
                any::<u32>(),
            ),
            0..40,
        ),
        level in 1u8..10,
    ) {
        let mut inner = InnerNode::new(2, level);
        for (lo, hi, child) in &rows {
            // normalize so lo <= hi
            let l: Vec<f64> = lo.iter().zip(hi.iter()).map(|(&a, &b)| a.min(b)).collect();
            let h: Vec<f64> = lo.iter().zip(hi.iter()).map(|(&a, &b)| a.max(b)).collect();
            inner.push(&l, &h, PageId(*child));
        }
        let node = Node::Inner(inner);
        let mut page = vec![0u8; node.encoded_len()];
        node.encode(&mut page);
        prop_assert_eq!(Node::decode(2, &page), node);
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
fn buffer_capacity_one_still_correct() {
    // every access evicts: maximal thrash, identical results
    let ps = seeded_points(2_000, 2, 1);
    let tree = RTree::bulk_load(
        &ps,
        RTreeParams {
            page_size: 512,
            min_fill_ratio: 0.4,
            buffer_capacity: 1,
        },
    );
    tree.check_invariants();
    let hits = tree.top_k(&[0.5, 0.5], 50);
    assert_eq!(hits.len(), 50);
    assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    let io = tree.io_stats();
    assert!(
        io.physical_reads as f64 > io.logical as f64 * 0.9,
        "capacity-1 buffer should miss almost always"
    );
}

#[test]
fn minimum_fanout_page_size_works() {
    // page so small that nodes hold only a handful of entries: maximal
    // height, splits and condenses everywhere
    let ps = seeded_points(500, 2, 2);
    let tree = RTree::new(
        2,
        RTreeParams {
            page_size: 128, // leaf cap (128-8)/24 = 5, inner cap (128-8)/36 = 3
            min_fill_ratio: 0.4,
            buffer_capacity: 64,
        },
    );
    for (i, p) in ps.iter() {
        tree.insert(p, i as u64);
        if i % 100 == 0 {
            tree.check_invariants();
        }
    }
    assert!(tree.height() >= 4, "tiny pages must force a tall tree");
    for (i, p) in ps.iter() {
        assert!(tree.delete(p, i as u64));
    }
    tree.check_invariants();
    assert!(tree.is_empty());
}

#[test]
fn alternating_insert_delete_churn() {
    let ps = seeded_points(3_000, 3, 3);
    let tree = RTree::new(
        3,
        RTreeParams {
            page_size: 256,
            min_fill_ratio: 0.4,
            buffer_capacity: 128,
        },
    );
    // insert evens, then alternate: delete an even, insert an odd
    for (i, p) in ps.iter() {
        if i % 2 == 0 {
            tree.insert(p, i as u64);
        }
    }
    for (i, p) in ps.iter() {
        if i % 2 == 1 {
            tree.insert(p, i as u64);
            let j = i - 1;
            assert!(tree.delete(ps.get(j), j as u64));
        }
    }
    tree.check_invariants();
    assert_eq!(tree.len(), 1_500);
    let mut seen: Vec<u64> = Vec::new();
    tree.for_each_point(|oid, _| seen.push(oid));
    seen.sort_unstable();
    let expect: Vec<u64> = (0..3_000).filter(|i| i % 2 == 1).collect();
    assert_eq!(seen, expect);
}

#[test]
fn bulk_load_scales_and_stays_valid() {
    let ps = seeded_points(60_000, 4, 4);
    let tree = RTree::bulk_load(&ps, RTreeParams::default());
    tree.check_invariants();
    assert_eq!(tree.len(), 60_000);
    // a handful of spot queries against scans
    let w = [0.1, 0.2, 0.3, 0.4];
    let top = tree.top1(&w).unwrap();
    let best_scan = ps
        .iter()
        .map(|(i, p)| (i as u64, w.iter().zip(p).map(|(a, b)| a * b).sum::<f64>()))
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
        .unwrap();
    assert_eq!(top.oid, best_scan.0);
}

#[test]
fn io_stats_are_deterministic_for_identical_runs() {
    let ps = seeded_points(10_000, 2, 5);
    let run = || {
        let tree = RTree::bulk_load(
            &ps,
            RTreeParams {
                page_size: 1024,
                min_fill_ratio: 0.4,
                buffer_capacity: 16,
            },
        );
        for k in 0..50 {
            let w = [k as f64 / 50.0, 1.0 - k as f64 / 50.0];
            let _ = tree.top_k(&w, 10);
        }
        tree.io_stats()
    };
    assert_eq!(run(), run());
}

/// Regression for the snapshot epoch-pin race: `snapshot()` used to copy
/// the tree state, drop that lock, and only then pin the epoch, so a
/// `publish` in between saw no pinned reader and freed the root the
/// snapshot was about to read. Readers pin and fully scan while a writer
/// churns a small tree (every mutation rewrites the root path); every
/// snapshot must yield exactly `snapshot.len()` points.
#[test]
fn snapshots_stay_readable_while_a_writer_publishes() {
    use std::sync::atomic::{AtomicBool, Ordering};

    fn count(tree: &RTree, pid: PageId) -> u64 {
        match &*tree.read_node(pid) {
            Node::Leaf(leaf) => leaf.len() as u64,
            Node::Inner(inner) => (0..inner.len()).map(|i| count(tree, inner.child(i))).sum(),
        }
    }

    let ps = seeded_points(200, 2, 6);
    let tree = RTree::bulk_load(
        &ps,
        RTreeParams {
            page_size: 256,
            min_fill_ratio: 0.4,
            buffer_capacity: 64,
        },
    );
    let done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let snap = tree.snapshot();
                    assert_eq!(count(&tree, snap.root_page()), snap.len());
                }
            });
        }
        start.wait();
        for round in 0..4_000usize {
            let i = round % ps.len();
            assert!(tree.delete(ps.get(i), i as u64));
            tree.insert(ps.get(i), i as u64);
        }
        done.store(true, Ordering::Release);
    });
    tree.check_invariants();
    assert_eq!(tree.len(), 200);
}
