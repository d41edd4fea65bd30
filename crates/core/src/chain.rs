//! The Chain algorithm — adaptation of Wong et al., "On Efficient
//! Spatial Matching" (VLDB 2007), as described in §V of the paper; what
//! a request runs under [`Algorithm::Chain`](crate::Algorithm::Chain).
//!
//! The functions are indexed by a **main-memory R-tree built on their
//! weight vectors**; the nearest-neighbor module of the spatial chain
//! algorithm is replaced by top-1 ranked search in the corresponding
//! tree (for a function, the best object; for an object, the best
//! function — both are linear maximizations, because
//! `f(o) = Σ αᵢ·oᵢ` is linear in `α` for fixed `o` too).
//!
//! A *chain* grows from an arbitrary unassigned function: each element's
//! best partner is stacked until two consecutive elements are each
//! other's best — a mutually-best, hence stable, pair. The pair is
//! emitted, both elements are removed, and the chain resumes from the
//! element below.
//!
//! The object index is the engine's **shared** tree, so assigned objects
//! are masked from the ranked searches rather than physically deleted
//! (the paper's standalone variant deleted them). The function tree is
//! request-local and still shrinks by deletion, keeping its searches
//! cheap as the batch drains.
//!
//! Chain performs even more top-1 searches than Brute Force (every chain
//! step is a search, and the function R-tree is ineffective because
//! normalized weights are inherently anti-correlated), which is why the
//! paper shows it losing on both I/O and CPU.

use std::time::Instant;

use mpq_rtree::{NodeSource, PointSet, RTree, RTreeParams, RankedIter};
use mpq_ta::FunctionSet;

use crate::brute_force::masked_top1;
use crate::matching::{IndexConfig, Matching, Pair, RunMetrics};
use crate::scratch::{Assigned, Scratch};

/// A chain element: a function or an object (with its point, needed for
/// searching the function tree).
#[derive(Debug, Clone)]
enum Elem {
    F(u32),
    O(u64, Box<[f64]>),
}

/// Chain matching over any node source. Objects in `excluded` (sorted)
/// are invisible (masked from every object-side search). Both sides'
/// top-1 search storms reuse the scratch's frontier storage; the working
/// function set and assigned-object column come from the scratch too.
pub(crate) fn run_chain_on<R: NodeSource>(
    index: &IndexConfig,
    src: &R,
    functions: &FunctionSet,
    excluded: &[u64],
    scratch: &mut Scratch,
) -> Matching {
    scratch.fs.copy_from(functions);
    let fs = &mut scratch.fs;
    let search = &mut scratch.search;
    let mut metrics = RunMetrics::default();
    let start = Instant::now();
    let io_start = src.io_snapshot();

    // The function R-tree lives in main memory: same page structure,
    // but the buffer holds the whole tree, so it contributes CPU and
    // `fun_io` counters, not paper-metric I/O.
    let mut fun_points = PointSet::new(fs.dim());
    let mut fid_of_row: Vec<u32> = Vec::with_capacity(fs.n_alive());
    let mut row_of_fid: Vec<usize> = vec![usize::MAX; fs.len()];
    for (fid, w) in fs.iter_alive() {
        row_of_fid[fid as usize] = fun_points.len();
        fun_points.push(w);
        fid_of_row.push(fid);
    }
    let fun_tree = RTree::bulk_load(
        &fun_points,
        RTreeParams {
            page_size: index.page_size,
            min_fill_ratio: 0.4,
            buffer_capacity: 64,
        },
    );
    fun_tree.set_buffer_capacity(fun_tree.page_count() + 16);

    let available = (src.len() as usize).saturating_sub(excluded.len());
    let budget = fs.n_alive().min(available);
    let mut pairs: Vec<Pair> = Vec::with_capacity(budget);
    let mut assigned = Assigned::new(excluded, &mut scratch.assigned);
    let mut stack: Vec<Elem> = Vec::new();

    'outer: for &start_fid in &fid_of_row {
        if !fs.is_alive(start_fid) {
            continue;
        }
        debug_assert!(stack.is_empty());
        stack.push(Elem::F(start_fid));

        while let Some(top) = stack.last().cloned() {
            metrics.loops += 1;
            match top {
                Elem::F(fid) => {
                    let hit = masked_top1(src, fs.weights(fid), &assigned, search, &mut metrics);
                    let Some(hit) = hit else {
                        // objects exhausted: remaining functions stay
                        // unmatched
                        break 'outer;
                    };
                    let mutual = matches!(
                        stack.len().checked_sub(2).map(|i| &stack[i]),
                        Some(Elem::O(oid, _)) if *oid == hit.oid
                    );
                    if mutual {
                        pairs.push(Pair {
                            fid,
                            oid: hit.oid,
                            score: hit.score,
                        });
                        stack.pop(); // the function
                        stack.pop(); // its partner object
                        fs.remove(fid);
                        let row = row_of_fid[fid as usize];
                        fun_tree.delete(fun_points.get(row), fid as u64);
                        assigned.insert(hit.oid);
                    } else {
                        stack.push(Elem::O(hit.oid, hit.point));
                    }
                }
                Elem::O(oid, ref opoint) => {
                    metrics.fun_top1_searches += 1;
                    let hit = {
                        let mut it =
                            RankedIter::over_reusing(&fun_tree, opoint, std::mem::take(search));
                        let hit = it.next();
                        *search = it.recycle();
                        hit
                    };
                    let Some(hit) = hit else {
                        // no functions left: abandon the chain
                        stack.clear();
                        break;
                    };
                    let best_fid = hit.oid as u32;
                    let mutual = matches!(
                        stack.len().checked_sub(2).map(|i| &stack[i]),
                        Some(Elem::F(f)) if *f == best_fid
                    );
                    if mutual {
                        pairs.push(Pair {
                            fid: best_fid,
                            oid,
                            score: hit.score,
                        });
                        stack.pop(); // the object
                        stack.pop(); // its partner function
                        fs.remove(best_fid);
                        fun_tree.delete(&hit.point, best_fid as u64);
                        assigned.insert(oid);
                    } else {
                        stack.push(Elem::F(best_fid));
                    }
                }
            }
        }
    }

    metrics.elapsed = start.elapsed();
    metrics.io = src.io_snapshot().since(io_start);
    metrics.fun_io = fun_tree.io_stats();
    Matching::new(pairs, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, Engine};
    use crate::reference::reference_matching;
    use crate::verify::verify_stable;
    use mpq_datagen::{Distribution, WorkloadBuilder};

    fn tiny_index() -> IndexConfig {
        IndexConfig {
            page_size: 256,
            buffer_fraction: 0.1,
            min_buffer_pages: 4,
        }
    }

    fn run(objects: &PointSet, functions: &FunctionSet) -> Matching {
        let engine = Engine::builder()
            .index(tiny_index())
            .objects(objects)
            .build()
            .unwrap();
        engine
            .request(functions)
            .algorithm(Algorithm::Chain)
            .evaluate()
            .unwrap()
    }

    fn sorted(pairs: &[Pair]) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = pairs.iter().map(|p| (p.fid, p.oid)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_reference_pair_set() {
        let w = WorkloadBuilder::new()
            .objects(250)
            .functions(40)
            .dim(3)
            .seed(17)
            .build();
        let m = run(&w.objects, &w.functions);
        let expect = reference_matching(&w.objects, &w.functions);
        // Chain emits pairs in chain order, not score order: compare sets
        assert_eq!(sorted(m.pairs()), sorted(&expect));
        verify_stable(&w.objects, &w.functions, m.pairs()).unwrap();
    }

    #[test]
    fn anticorrelated_workload_is_stable_too() {
        let w = WorkloadBuilder::new()
            .objects(200)
            .functions(60)
            .dim(4)
            .distribution(Distribution::AntiCorrelated)
            .seed(23)
            .build();
        let m = run(&w.objects, &w.functions);
        verify_stable(&w.objects, &w.functions, m.pairs()).unwrap();
        assert_eq!(
            sorted(m.pairs()),
            sorted(&reference_matching(&w.objects, &w.functions))
        );
    }

    #[test]
    fn more_functions_than_objects() {
        let w = WorkloadBuilder::new()
            .objects(15)
            .functions(40)
            .dim(2)
            .seed(31)
            .build();
        let m = run(&w.objects, &w.functions);
        assert_eq!(m.len(), 15);
        verify_stable(&w.objects, &w.functions, m.pairs()).unwrap();
    }

    #[test]
    fn chain_uses_both_trees_and_never_writes_the_shared_one() {
        let w = WorkloadBuilder::new()
            .objects(300)
            .functions(50)
            .dim(2)
            .seed(37)
            .build();
        let m = run(&w.objects, &w.functions);
        let met = m.metrics();
        assert!(met.top1_searches >= 50);
        assert!(met.fun_top1_searches >= 50);
        assert!(met.io.physical_reads > 0);
        assert_eq!(
            met.io.physical_writes, 0,
            "the shared object index is read-only; assignment masks, not deletes"
        );
        // the function tree is fully buffered: reads happen only on the
        // cold first touch of each page
        assert!(met.fun_io.logical > 0);
    }

    #[test]
    fn tie_heavy_grid_matches_reference() {
        // integer grid coordinates create many exact score ties
        let mut ps = PointSet::new(2);
        for x in 0..6 {
            for y in 0..6 {
                ps.push(&[x as f64 / 5.0, y as f64 / 5.0]);
            }
        }
        let fs = FunctionSet::from_rows(
            2,
            &[
                vec![0.5, 0.5],
                vec![0.5, 0.5],
                vec![0.25, 0.75],
                vec![0.75, 0.25],
                vec![0.4, 0.6],
            ],
        );
        let m = run(&ps, &fs);
        assert_eq!(sorted(m.pairs()), sorted(&reference_matching(&ps, &fs)));
        verify_stable(&ps, &fs, m.pairs()).unwrap();
    }
}
