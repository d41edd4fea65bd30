//! Property-based tests for the substrates: the paged R-tree against
//! linear scans, BBS/maintained skylines against the naive quadratic
//! reference, and TA reverse top-1 against exhaustive scoring.

use std::collections::HashSet;

use proptest::prelude::*;

use mpq::rtree::geometry::dot;
use mpq::rtree::{PointSet, RTree, RTreeParams};
use mpq::skyline::naive::naive_skyline_excluding;
use mpq::skyline::{compute_skyline, SkylineMaintainer};
use mpq::ta::{FunctionSet, ReverseTopOne};

fn tiny_params() -> RTreeParams {
    RTreeParams {
        page_size: 256, // force multi-level trees on small inputs
        min_fill_ratio: 0.4,
        buffer_capacity: 1024,
    }
}

fn grid_points(dim: usize, max_len: usize) -> impl Strategy<Value = PointSet> {
    proptest::collection::vec(proptest::collection::vec(0u8..=8, dim), 0..max_len).prop_map(
        move |rows| {
            let mut ps = PointSet::new(dim);
            for r in rows {
                let p: Vec<f64> = r.iter().map(|&v| v as f64 / 8.0).collect();
                ps.push(&p);
            }
            ps
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn rtree_range_matches_scan(
        ps in grid_points(3, 120),
        lo in proptest::collection::vec(0u8..=8, 3),
        hi in proptest::collection::vec(0u8..=8, 3),
    ) {
        let lo: Vec<f64> = lo.iter().map(|&v| v as f64 / 8.0).collect();
        let hi: Vec<f64> = hi.iter().map(|&v| v as f64 / 8.0).collect();
        let tree = RTree::bulk_load(&ps, tiny_params());
        tree.check_invariants();
        let mut got: Vec<u64> = tree.range(&lo, &hi).into_iter().map(|(o, _)| o).collect();
        got.sort_unstable();
        let mut expect: Vec<u64> = ps
            .iter()
            .filter(|(_, p)| p.iter().zip(lo.iter().zip(hi.iter())).all(|(&x, (&l, &h))| l <= x && x <= h))
            .map(|(i, _)| i as u64)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn rtree_topk_matches_sorted_scan(
        ps in grid_points(2, 100),
        w in proptest::collection::vec(0u8..=8, 2),
        k in 1usize..20,
    ) {
        prop_assume!(w.iter().any(|&x| x > 0));
        let w: Vec<f64> = w.iter().map(|&v| v as f64).collect();
        let tree = RTree::bulk_load(&ps, tiny_params());
        let got: Vec<(u64, f64)> = tree
            .top_k(&w, k)
            .into_iter()
            .map(|h| (h.oid, h.score))
            .collect();
        let mut expect: Vec<(u64, f64)> = ps
            .iter()
            .map(|(i, p)| (i as u64, dot(&w, p)))
            .collect();
        expect.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        expect.truncate(k);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn rtree_survives_random_deletions(
        ps in grid_points(2, 80),
        delete_mask in proptest::collection::vec(any::<bool>(), 80),
    ) {
        let tree = RTree::bulk_load(&ps, tiny_params());
        let mut remaining: Vec<u64> = Vec::new();
        for (i, p) in ps.iter() {
            if delete_mask.get(i).copied().unwrap_or(false) {
                prop_assert!(tree.delete(p, i as u64), "entry {i} must exist");
            } else {
                remaining.push(i as u64);
            }
        }
        tree.check_invariants();
        let mut seen: Vec<u64> = Vec::new();
        tree.for_each_point(|oid, _| seen.push(oid));
        seen.sort_unstable();
        prop_assert_eq!(seen, remaining);
    }

    #[test]
    fn bbs_skyline_matches_naive_as_point_set(ps in grid_points(3, 120)) {
        // id for id: of a group of duplicates both keep the smallest
        let tree = RTree::bulk_load(&ps, tiny_params());
        let mut got: Vec<u64> = compute_skyline(&tree).into_iter().map(|(oid, _)| oid).collect();
        got.sort_unstable();
        prop_assert_eq!(got, naive_skyline_excluding(&ps, &HashSet::new()));
    }

    #[test]
    fn maintained_skyline_matches_naive_through_removals(
        ps in grid_points(2, 100),
        removals in 0usize..30,
    ) {
        prop_assume!(!ps.is_empty());
        let tree = RTree::bulk_load(&ps, tiny_params());
        let mut m = SkylineMaintainer::build(&tree);
        let mut removed: HashSet<u64> = HashSet::new();
        for _ in 0..removals {
            let Some(victim) = m.iter().next().map(|e| e.oid) else { break };
            removed.insert(victim);
            m.remove(&[victim], &tree);
            // id for id (of duplicates, the smallest left), each with
            // its object's coordinates
            let mut got: Vec<u64> = Vec::new();
            for e in m.iter() {
                prop_assert_eq!(ps.get(e.oid as usize), e.point);
                got.push(e.oid);
            }
            got.sort_unstable();
            prop_assert_eq!(got, naive_skyline_excluding(&ps, &removed));
        }
    }

    #[test]
    fn ta_reverse_top1_matches_scan(
        rows in proptest::collection::vec(proptest::collection::vec(1u8..=9, 3), 1..40),
        objects in grid_points(3, 20),
    ) {
        let rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| v as f64).collect())
            .collect();
        let fs = FunctionSet::from_rows(3, &rows);
        let mut rt1 = ReverseTopOne::build(&fs);
        for (_, o) in objects.iter() {
            prop_assert_eq!(rt1.best_for(&fs, o), fs.scan_best(o));
        }
    }

    #[test]
    fn ta_survives_interleaved_removals(
        rows in proptest::collection::vec(proptest::collection::vec(1u8..=9, 2), 2..30),
        removal_order in proptest::collection::vec(any::<u16>(), 0..30),
    ) {
        let rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| v as f64).collect())
            .collect();
        let mut fs = FunctionSet::from_rows(2, &rows);
        let mut rt1 = ReverseTopOne::build(&fs);
        let probe = [0.3, 0.7];
        for r in removal_order {
            prop_assert_eq!(rt1.best_for(&fs, &probe), fs.scan_best(&probe));
            if fs.n_alive() == 0 {
                break;
            }
            // remove an arbitrary alive function
            let alive: Vec<u32> = fs.iter_alive().map(|(f, _)| f).collect();
            fs.remove(alive[r as usize % alive.len()]);
        }
    }
}
