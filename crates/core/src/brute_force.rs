//! The Brute Force algorithm (§III-A of the paper) — what a request
//! runs under [`Algorithm::BruteForce`](crate::Algorithm::BruteForce).
//!
//! One top-1 ranked query per function seeds a global max-heap of
//! candidate pairs. The heap top with a still-available object is
//! guaranteed stable (it is the globally best remaining pair: the object
//! is its function's favourite, and no other function can score that
//! object higher).
//!
//! Two re-search strategies are provided:
//!
//! * [`BfStrategy::Incremental`] (default, the paper's adaptation of the
//!   branch-and-bound ranked search of Tao et al.): every function
//!   keeps its **incremental top-k iterator** alive; when a popped
//!   candidate's object has been assigned, the iterator simply resumes
//!   to the next-best object. Cheap per re-search, but the per-function
//!   search frontiers stay in memory — this is exactly why the paper
//!   reports Brute Force exceeding 4 GB on anti-correlated `D = 6` data
//!   (we track the frontier size in
//!   [`crate::matching::RunMetrics::peak_frontier`]).
//! * [`BfStrategy::Restart`]: an invalidated function re-runs a fresh
//!   top-1 search from the root, skipping assigned objects. No
//!   persistent state, but popular objects trigger storms of full
//!   searches.
//!
//! Both strategies read the shared engine index without mutating it:
//! assigned objects are masked per run (the paper's variant physically
//! deleted them, which would make the index unshareable across
//! concurrent requests). Both produce the identical stable matching.

use std::collections::BinaryHeap;
use std::time::Instant;

use mpq_rtree::{NodeSource, RankedHit, RankedIter, SearchBuf};
use mpq_ta::FunctionSet;

use crate::matching::{Matching, Pair, RunMetrics};
use crate::scratch::{Assigned, Scratch};

/// Candidate heap entry, ordered so the canonically first [`Pair`] is
/// popped first (max-heap: the reverse of the canonical `Ord`).
#[derive(Debug)]
struct Cand(Pair);

impl Cand {
    /// Function `fid` with `hit`, its best object left.
    fn of(fid: u32, hit: RankedHit) -> Cand {
        let (oid, score) = (hit.oid, hit.score);
        Cand(Pair { fid, oid, score })
    }
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Canonical order says Less = assigned first; BinaryHeap pops the
        // max, so reverse it.
        self.0.cmp(&other.0).reverse()
    }
}

/// How an invalidated function finds its next-best object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BfStrategy {
    /// Persistent incremental ranked iterators (the paper's method).
    #[default]
    Incremental,
    /// Fresh top-1 search (skipping assigned objects) per invalidation.
    Restart,
}

/// Incremental Brute Force over any node source. Objects in `excluded`
/// (sorted) are invisible, as if assigned. The working function set and
/// the assigned-object column come from `scratch`; the per-function search
/// frontiers are inherently per-run state (they all live concurrently —
/// this is the memory footprint the paper reports) and stay run-local.
pub(crate) fn run_incremental_on<R: NodeSource>(
    src: &R,
    functions: &FunctionSet,
    excluded: &[u64],
    scratch: &mut Scratch,
) -> Matching {
    scratch.fs.copy_from(functions);
    let fs = &mut scratch.fs;
    let mut metrics = RunMetrics::default();
    let start = Instant::now();
    let io_start = src.io_snapshot();

    let available = (src.len() as usize).saturating_sub(excluded.len());
    let budget = fs.n_alive().min(available);
    let mut pairs: Vec<Pair> = Vec::with_capacity(budget);
    let mut assigned_objects = Assigned::new(excluded, &mut scratch.assigned);

    // One persistent incremental iterator per function. `iters[i]`
    // belongs to the i-th alive function.
    let fids: Vec<u32> = fs.iter_alive().map(|(fid, _)| fid).collect();
    let mut iters: Vec<Option<RankedIter<'_, R>>> = Vec::with_capacity(fids.len());
    let mut iter_of_fid = vec![usize::MAX; fs.len()];
    let mut heap: BinaryHeap<Cand> = BinaryHeap::with_capacity(fids.len());
    let mut frontier_sizes: Vec<usize> = vec![0; fids.len()];
    let mut frontier_total: usize = 0;
    let mut peak_frontier: usize = 0;

    for (i, &fid) in fids.iter().enumerate() {
        let mut it = RankedIter::over(src, functions.weights(fid));
        metrics.top1_searches += 1;
        let first = it.by_ref().find(|hit| !assigned_objects.contains(hit.oid));
        heap.extend(first.map(|hit| Cand::of(fid, hit)));
        frontier_total += it.frontier_len();
        frontier_sizes[i] = it.frontier_len();
        iter_of_fid[fid as usize] = i;
        iters.push(Some(it));
    }
    peak_frontier = peak_frontier.max(frontier_total);

    while let Some(Cand(pair)) = heap.pop() {
        metrics.loops += 1;
        let slot = iter_of_fid[pair.fid as usize];
        if assigned_objects.contains(pair.oid) {
            // Resume this function's iterator to its next available
            // object; scores decrease monotonically, so re-inserting
            // keeps the global heap correct.
            metrics.top1_searches += 1;
            let it = iters[slot].as_mut().expect("iterator alive");
            let next = it.by_ref().find(|hit| !assigned_objects.contains(hit.oid));
            frontier_total -= frontier_sizes[slot];
            frontier_sizes[slot] = it.frontier_len();
            frontier_total += frontier_sizes[slot];
            peak_frontier = peak_frontier.max(frontier_total);
            heap.extend(next.map(|hit| Cand::of(pair.fid, hit)));
            continue;
        }
        // Fresh: globally best remaining pair -> stable.
        pairs.push(pair);
        fs.remove(pair.fid);
        assigned_objects.insert(pair.oid);
        frontier_total -= frontier_sizes[slot];
        frontier_sizes[slot] = 0;
        iters[slot] = None; // drop the finished function's frontier
    }

    metrics.elapsed = start.elapsed();
    metrics.io = src.io_snapshot().since(io_start);
    metrics.peak_frontier = peak_frontier as u64;
    Matching::new(pairs, metrics)
}

/// One masked top-1 ranked search, reusing `buf` as frontier storage so
/// search storms (restart Brute Force, Chain) stop churning the
/// allocator.
pub(crate) fn masked_top1<R: NodeSource>(
    src: &R,
    weights: &[f64],
    assigned: &Assigned<'_>,
    buf: &mut SearchBuf,
    metrics: &mut RunMetrics,
) -> Option<RankedHit> {
    metrics.top1_searches += 1;
    let mut it = RankedIter::over_reusing(src, weights, std::mem::take(buf));
    let hit = it.by_ref().find(|h| !assigned.contains(h.oid));
    *buf = it.recycle();
    hit
}

/// Restart Brute Force over any node source: no persistent frontiers; an
/// invalidated function re-runs a fresh masked top-1 search (on the
/// scratch's reused frontier storage).
pub(crate) fn run_restart_on<R: NodeSource>(
    src: &R,
    functions: &FunctionSet,
    excluded: &[u64],
    scratch: &mut Scratch,
) -> Matching {
    scratch.fs.copy_from(functions);
    let fs = &mut scratch.fs;
    let mut assigned_objects = Assigned::new(excluded, &mut scratch.assigned);
    let search = &mut scratch.search;
    let mut metrics = RunMetrics::default();
    let start = Instant::now();
    let io_start = src.io_snapshot();

    let available = (src.len() as usize).saturating_sub(excluded.len());
    let budget = fs.n_alive().min(available);
    let mut pairs: Vec<Pair> = Vec::with_capacity(budget);

    let mut heap: BinaryHeap<Cand> = BinaryHeap::with_capacity(fs.n_alive());
    let fids: Vec<u32> = fs.iter_alive().map(|(fid, _)| fid).collect();
    for fid in fids {
        let weights = fs.weights(fid);
        let hit = masked_top1(src, weights, &assigned_objects, search, &mut metrics);
        heap.extend(hit.map(|hit| Cand::of(fid, hit)));
    }

    while let Some(Cand(pair)) = heap.pop() {
        metrics.loops += 1;
        if assigned_objects.contains(pair.oid) {
            // stale: the object was taken since this search ran; the
            // stored score upper-bounds the function's current best, so
            // a fresh search re-inserts it at the right position.
            let weights = fs.weights(pair.fid);
            let hit = masked_top1(src, weights, &assigned_objects, search, &mut metrics);
            heap.extend(hit.map(|hit| Cand::of(pair.fid, hit)));
            continue;
        }
        pairs.push(pair);
        fs.remove(pair.fid);
        assigned_objects.insert(pair.oid);
    }
    metrics.elapsed = start.elapsed();
    metrics.io = src.io_snapshot().since(io_start);
    Matching::new(pairs, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, Engine};
    use crate::error::MpqError;
    use crate::matching::IndexConfig;
    use crate::reference::reference_matching;
    use crate::verify::verify_stable;
    use mpq_datagen::{Distribution, WorkloadBuilder};
    use mpq_rtree::PointSet;

    fn tiny_index() -> IndexConfig {
        IndexConfig {
            page_size: 256,
            buffer_fraction: 0.1,
            min_buffer_pages: 4,
        }
    }

    fn run(strategy: BfStrategy, objects: &PointSet, functions: &FunctionSet) -> Matching {
        let engine = Engine::builder()
            .index(tiny_index())
            .objects(objects)
            .build()
            .unwrap();
        engine
            .request(functions)
            .algorithm(Algorithm::BruteForce)
            .bf_strategy(strategy)
            .evaluate()
            .unwrap()
    }

    #[test]
    fn both_strategies_match_reference_on_random_workload() {
        let w = WorkloadBuilder::new()
            .objects(300)
            .functions(40)
            .dim(3)
            .seed(11)
            .build();
        let expect = reference_matching(&w.objects, &w.functions);
        for strategy in [BfStrategy::Incremental, BfStrategy::Restart] {
            let m = run(strategy, &w.objects, &w.functions);
            assert_eq!(
                m.pairs(),
                &expect[..],
                "{strategy:?} must equal the greedy reference"
            );
            verify_stable(&w.objects, &w.functions, m.pairs()).unwrap();
        }
    }

    #[test]
    fn emits_pairs_in_descending_score_order() {
        let w = WorkloadBuilder::new()
            .objects(200)
            .functions(30)
            .dim(2)
            .distribution(Distribution::AntiCorrelated)
            .seed(3)
            .build();
        let m = run(BfStrategy::Incremental, &w.objects, &w.functions);
        assert!(m.pairs().windows(2).all(|p| p[0].score >= p[1].score));
    }

    #[test]
    fn more_functions_than_objects_assigns_every_object() {
        let w = WorkloadBuilder::new()
            .objects(10)
            .functions(25)
            .dim(2)
            .seed(7)
            .build();
        for strategy in [BfStrategy::Incremental, BfStrategy::Restart] {
            let m = run(strategy, &w.objects, &w.functions);
            assert_eq!(m.len(), 10, "{strategy:?}");
            verify_stable(&w.objects, &w.functions, m.pairs()).unwrap();
        }
    }

    #[test]
    fn incremental_tracks_frontier_and_costs_no_writes() {
        let w = WorkloadBuilder::new()
            .objects(400)
            .functions(50)
            .dim(2)
            .seed(9)
            .build();
        let m = run(BfStrategy::Incremental, &w.objects, &w.functions);
        let met = m.metrics();
        assert!(met.peak_frontier > 0, "frontier memory must be tracked");
        assert_eq!(met.io.physical_writes, 0, "BF never mutates the index");
        assert!(met.top1_searches >= 50);
    }

    #[test]
    fn restart_re_searches_without_mutating_the_index() {
        let w = WorkloadBuilder::new()
            .objects(400)
            .functions(50)
            .dim(2)
            .seed(9)
            .build();
        let m = run(BfStrategy::Restart, &w.objects, &w.functions);
        let met = m.metrics();
        assert_eq!(
            met.io.physical_writes, 0,
            "restart masks assigned objects instead of deleting them"
        );
        assert_eq!(met.peak_frontier, 0, "restart keeps no frontiers");
        assert!(met.top1_searches >= 50);
    }

    #[test]
    fn empty_function_set_is_rejected_by_the_engine() {
        let w = WorkloadBuilder::new()
            .objects(20)
            .functions(1)
            .dim(2)
            .build();
        let fs = mpq_ta::FunctionSet::new(2);
        let engine = Engine::builder().objects(&w.objects).build().unwrap();
        for strategy in [BfStrategy::Incremental, BfStrategy::Restart] {
            let err = engine
                .request(&fs)
                .algorithm(Algorithm::BruteForce)
                .bf_strategy(strategy)
                .evaluate()
                .unwrap_err();
            assert_eq!(err, MpqError::EmptyFunctions, "{strategy:?}");
        }
    }

    #[test]
    fn tie_heavy_grid_matches_reference() {
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
            ],
        );
        let expect = reference_matching(&ps, &fs);
        for strategy in [BfStrategy::Incremental, BfStrategy::Restart] {
            let m = run(strategy, &ps, &fs);
            assert_eq!(m.pairs(), &expect[..], "{strategy:?}");
        }
    }
}
