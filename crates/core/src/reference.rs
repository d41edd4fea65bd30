//! Exact reference matcher: sort all `|F|·|O|` pairs by the canonical
//! order and sweep greedily. Quadratic space — test-sized inputs only.

use mpq_rtree::PointSet;
use mpq_ta::FunctionSet;

use crate::matching::Pair;

/// The unique stable matching under the canonical tie-broken order,
/// computed exactly. Pairs are returned in assignment (descending) order.
///
/// Complexity: `O(|F|·|O| log(|F|·|O|))` time and `O(|F|·|O|)` space —
/// this is ground truth for tests, not a competitor algorithm.
pub fn reference_matching(objects: &PointSet, functions: &FunctionSet) -> Vec<Pair> {
    reference_matching_excluding(objects, functions, &|_| false)
}

/// [`reference_matching`] over the objects for which `excluded(oid)` is
/// `false` (ground truth for a reloaded stream's later batches, after
/// earlier batches consumed part of the inventory).
pub fn reference_matching_excluding(
    objects: &PointSet,
    functions: &FunctionSet,
    excluded: &dyn Fn(u64) -> bool,
) -> Vec<Pair> {
    let mut all: Vec<Pair> = Vec::with_capacity(objects.len() * functions.n_alive());
    let mut n_objects = 0usize;
    for (i, _) in objects.iter() {
        if !excluded(i as u64) {
            n_objects += 1;
        }
    }
    for (fid, _) in functions.iter_alive() {
        for (i, p) in objects.iter() {
            if excluded(i as u64) {
                continue;
            }
            all.push(Pair {
                fid,
                oid: i as u64,
                score: functions.score(fid, p),
            });
        }
    }
    all.sort_unstable();

    let budget = functions.n_alive().min(n_objects);
    let mut out = Vec::with_capacity(budget);
    let mut f_taken = vec![false; functions.len()];
    let mut o_taken = vec![false; objects.len()];
    for p in all {
        if out.len() == budget {
            break;
        }
        if f_taken[p.fid as usize] || o_taken[p.oid as usize] {
            continue;
        }
        f_taken[p.fid as usize] = true;
        o_taken[p.oid as usize] = true;
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn objects(pts: &[[f64; 2]]) -> PointSet {
        let mut ps = PointSet::new(2);
        for p in pts {
            ps.push(p);
        }
        ps
    }

    #[test]
    fn single_function_gets_its_top_object() {
        let ps = objects(&[[0.1, 0.1], [0.9, 0.9], [0.5, 0.5]]);
        let fs = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
        let m = reference_matching(&ps, &fs);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].oid, 1);
    }

    #[test]
    fn competing_functions_get_first_and_second_best() {
        let ps = objects(&[[0.9, 0.9], [0.8, 0.8], [0.1, 0.1]]);
        // both want object 0; fid 0 wins the tie-free higher score...
        let fs = FunctionSet::from_rows(2, &[vec![0.6, 0.4], vec![0.5, 0.5]]);
        let m = reference_matching(&ps, &fs);
        assert_eq!(m.len(), 2);
        // f0(o0) = 0.9, f1(o0) = 0.9 (tie) -> f0 takes o0, f1 takes o1
        assert_eq!((m[0].fid, m[0].oid), (0, 0));
        assert_eq!((m[1].fid, m[1].oid), (1, 1));
    }

    #[test]
    fn matching_size_is_min_of_sides() {
        let ps = objects(&[[0.5, 0.5], [0.4, 0.4]]);
        let fs = FunctionSet::from_rows(
            2,
            &[
                vec![0.5, 0.5],
                vec![0.3, 0.7],
                vec![0.9, 0.1],
                vec![0.2, 0.8],
            ],
        );
        let m = reference_matching(&ps, &fs);
        assert_eq!(m.len(), 2, "only two objects exist");
        // objects each appear once
        assert_ne!(m[0].oid, m[1].oid);
    }

    #[test]
    fn scores_are_non_increasing() {
        let ps = objects(&[[0.9, 0.1], [0.1, 0.9], [0.6, 0.6], [0.3, 0.2]]);
        let fs = FunctionSet::from_rows(
            2,
            &[
                vec![0.8, 0.2],
                vec![0.2, 0.8],
                vec![0.5, 0.5],
                vec![0.4, 0.6],
            ],
        );
        let m = reference_matching(&ps, &fs);
        assert!(m.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn removed_functions_are_ignored() {
        let ps = objects(&[[0.9, 0.9]]);
        let mut fs = FunctionSet::from_rows(2, &[vec![0.5, 0.5], vec![0.6, 0.4]]);
        fs.remove(0);
        let m = reference_matching(&ps, &fs);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].fid, 1);
    }

    #[test]
    fn empty_inputs_give_empty_matching() {
        let ps = PointSet::new(2);
        let fs = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
        assert!(reference_matching(&ps, &fs).is_empty());
        let ps2 = objects(&[[0.5, 0.5]]);
        let fs2 = FunctionSet::new(2);
        assert!(reference_matching(&ps2, &fs2).is_empty());
    }
}
