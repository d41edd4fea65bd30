//! R\*-tree node split (Beckmann et al., SIGMOD 1990).
//!
//! When a node overflows, its `cap + 1` entries are partitioned into two
//! groups by the topological split heuristic:
//!
//! 1. **Choose axis** — for every axis, sort the entries by lower and by
//!    upper MBR coordinate and sum the margins of every legal
//!    "first k vs. rest" distribution; pick the axis with the smallest
//!    margin sum.
//! 2. **Choose distribution** — along the chosen axis, pick the
//!    distribution with minimum overlap between the two group MBRs,
//!    breaking ties by minimum total area.
//!
//! The implementation is generic over the node kind: callers describe
//! entries as bare MBRs and receive an index partition back.

use crate::geometry::{rect_area, rect_margin, rect_overlap, Mbr};

/// An entry to be partitioned: its MBR (a point entry uses `lo == hi`).
#[derive(Debug, Clone)]
pub(crate) struct SplitEntry {
    /// Lower corner.
    pub lo: Box<[f64]>,
    /// Upper corner.
    pub hi: Box<[f64]>,
}

impl SplitEntry {
    /// Entry for a point (degenerate MBR).
    pub(crate) fn from_point(p: &[f64]) -> SplitEntry {
        SplitEntry {
            lo: p.into(),
            hi: p.into(),
        }
    }

    /// Entry for a rectangle.
    pub(crate) fn from_rect(lo: &[f64], hi: &[f64]) -> SplitEntry {
        SplitEntry {
            lo: lo.into(),
            hi: hi.into(),
        }
    }
}

/// Partition `entries` (length ≥ 2) into two groups, each of size at least
/// `min_fill`, using the R\* topological split. Returns the entry indices
/// of the two groups; the first group always contains at least one entry,
/// as does the second.
///
/// # Panics
/// Panics if `entries.len() < 2` or `min_fill` makes a legal split
/// impossible (`2 * min_fill > entries.len()`).
pub(crate) fn rstar_split(entries: &[SplitEntry], min_fill: usize) -> (Vec<usize>, Vec<usize>) {
    let n = entries.len();
    assert!(n >= 2, "cannot split fewer than two entries");
    let min_fill = min_fill.max(1);
    assert!(
        2 * min_fill <= n,
        "min_fill {min_fill} leaves no legal distribution for {n} entries"
    );
    let dim = entries[0].lo.len();

    // Axis selection: minimize the sum of margins over all distributions
    // and both sort orders.
    let mut best_axis = 0;
    let mut best_axis_margin = f64::INFINITY;
    for axis in 0..dim {
        let mut margin_sum = 0.0;
        for sort_by_hi in [false, true] {
            let order = sorted_order(entries, axis, sort_by_hi);
            margin_sum += distributions_margin_sum(entries, &order, min_fill);
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = axis;
        }
    }

    // Distribution selection on the chosen axis: min overlap, tie by area.
    let mut best: Option<(f64, f64, Vec<usize>, usize)> = None; // (overlap, area, order, k)
    for sort_by_hi in [false, true] {
        let order = sorted_order(entries, best_axis, sort_by_hi);
        let (prefix, suffix) = sweep_mbrs(entries, &order);
        for k in min_fill..=(n - min_fill) {
            let g1 = &prefix[k - 1];
            let g2 = &suffix[k];
            let overlap = rect_overlap(&g1.lo, &g1.hi, &g2.lo, &g2.hi);
            let area = rect_area(&g1.lo, &g1.hi) + rect_area(&g2.lo, &g2.hi);
            let better = match &best {
                None => true,
                Some((bo, ba, _, _)) => overlap < *bo || (overlap == *bo && area < *ba),
            };
            if better {
                best = Some((overlap, area, order.clone(), k));
            }
        }
    }

    let (_, _, order, k) = best.expect("at least one distribution exists");
    let left = order[..k].to_vec();
    let right = order[k..].to_vec();
    (left, right)
}

/// Entry indices sorted along `axis` by lower (or upper) coordinate, with
/// the other coordinate and the index as deterministic tie-breakers.
fn sorted_order(entries: &[SplitEntry], axis: usize, by_hi: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        let (pa, sa) = (entries[a].lo[axis], entries[a].hi[axis]);
        let (pb, sb) = (entries[b].lo[axis], entries[b].hi[axis]);
        let (ka, kb) = if by_hi { (sa, sb) } else { (pa, pb) };
        ka.total_cmp(&kb)
            .then_with(|| sa.total_cmp(&sb))
            .then_with(|| a.cmp(&b))
    });
    order
}

/// Sum of `margin(G1) + margin(G2)` over every legal distribution of the
/// given order.
fn distributions_margin_sum(entries: &[SplitEntry], order: &[usize], min_fill: usize) -> f64 {
    let n = order.len();
    let (prefix, suffix) = sweep_mbrs(entries, order);
    let mut sum = 0.0;
    for k in min_fill..=(n - min_fill) {
        let g1 = &prefix[k - 1];
        let g2 = &suffix[k];
        sum += rect_margin(&g1.lo, &g1.hi) + rect_margin(&g2.lo, &g2.hi);
    }
    sum
}

/// `prefix[i]` = MBR of `order[0..=i]`; `suffix[i]` = MBR of `order[i..]`.
fn sweep_mbrs(entries: &[SplitEntry], order: &[usize]) -> (Vec<Mbr>, Vec<Mbr>) {
    let n = order.len();
    let dim = entries[0].lo.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = Mbr::empty(dim);
    for &i in order {
        acc.union_rect(&entries[i].lo, &entries[i].hi);
        prefix.push(acc.clone());
    }
    let mut suffix = vec![Mbr::empty(dim); n];
    let mut acc = Mbr::empty(dim);
    for pos in (0..n).rev() {
        let i = order[pos];
        acc.union_rect(&entries[i].lo, &entries[i].hi);
        suffix[pos] = acc.clone();
    }
    (prefix, suffix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(ps: &[[f64; 2]]) -> Vec<SplitEntry> {
        ps.iter().map(|p| SplitEntry::from_point(p)).collect()
    }

    #[test]
    fn split_partitions_all_entries_exactly_once() {
        let es = points(&[
            [0.1, 0.1],
            [0.2, 0.2],
            [0.8, 0.8],
            [0.9, 0.9],
            [0.15, 0.15],
            [0.85, 0.85],
        ]);
        let (l, r) = rstar_split(&es, 2);
        assert_eq!(l.len() + r.len(), es.len());
        let mut all: Vec<usize> = l.iter().chain(r.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        assert!(l.len() >= 2 && r.len() >= 2);
    }

    #[test]
    fn split_separates_two_obvious_clusters() {
        let es = points(&[
            [0.0, 0.0],
            [0.05, 0.05],
            [0.1, 0.0],
            [0.9, 0.9],
            [0.95, 1.0],
            [1.0, 0.95],
        ]);
        let (l, r) = rstar_split(&es, 2);
        // whichever side holds index 0 must hold exactly the low cluster
        let low: Vec<usize> = vec![0, 1, 2];
        let mut l = l;
        let mut r = r;
        l.sort_unstable();
        r.sort_unstable();
        if l.contains(&0) {
            assert_eq!(l, low);
        } else {
            assert_eq!(r, low);
        }
    }

    #[test]
    fn split_respects_min_fill() {
        // 10 collinear points, min fill 4: both sides must have >= 4
        let es: Vec<SplitEntry> = (0..10)
            .map(|i| SplitEntry::from_point(&[i as f64 / 10.0, 0.5]))
            .collect();
        let (l, r) = rstar_split(&es, 4);
        assert!(l.len() >= 4 && r.len() >= 4);
    }

    #[test]
    fn split_handles_rect_entries() {
        let es = vec![
            SplitEntry::from_rect(&[0.0, 0.0], &[0.2, 0.2]),
            SplitEntry::from_rect(&[0.1, 0.0], &[0.3, 0.1]),
            SplitEntry::from_rect(&[0.7, 0.8], &[0.9, 1.0]),
            SplitEntry::from_rect(&[0.8, 0.7], &[1.0, 0.9]),
        ];
        let (l, r) = rstar_split(&es, 1);
        assert_eq!(l.len() + r.len(), 4);
        // clusters {0,1} and {2,3} should not be mixed
        let side_of = |i: usize| l.contains(&i);
        assert_eq!(side_of(0), side_of(1));
        assert_eq!(side_of(2), side_of(3));
        assert_ne!(side_of(0), side_of(2));
    }

    #[test]
    fn split_of_identical_entries_is_balanced_enough() {
        let es = points(&[[0.5, 0.5]; 8]);
        let (l, r) = rstar_split(&es, 3);
        assert!(l.len() >= 3 && r.len() >= 3);
        assert_eq!(l.len() + r.len(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn split_rejects_single_entry() {
        let es = points(&[[0.5, 0.5]]);
        let _ = rstar_split(&es, 1);
    }
}
