//! The paper's qualitative experimental claims, asserted at test scale.
//!
//! The full-scale numbers live in the `mpq-bench` harness (see
//! EXPERIMENTS.md); these tests pin the *shape* of every claim so a
//! regression that flips a comparison fails CI:
//!
//! 1. §V / Fig. 2–3: SB incurs orders of magnitude fewer I/Os than
//!    Brute Force; Brute Force beats Chain.
//! 2. §IV-B: incremental skyline maintenance is far cheaper than
//!    recomputing BBS per loop.
//! 3. §IV-A: the tight threshold scans fewer list positions than the
//!    naive TA threshold.
//! 4. §IV-C: multi-pair reporting reduces the number of SB loops.
//! 5. §III-A: Brute Force's incremental frontiers hold substantial
//!    memory on anti-correlated high-dimensional data (the paper's OOM
//!    note).

use mpq_core::{Algorithm, BfStrategy, Engine, MaintenanceMode, MatchRequest, Matching};
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_ta::{FunctionSet, ReverseTopOne, ThresholdMode};

fn workload(dist: Distribution, n: usize, f: usize, dim: usize) -> mpq_datagen::Workload {
    WorkloadBuilder::new()
        .objects(n)
        .functions(f)
        .dim(dim)
        .distribution(dist)
        .seed(2009)
        .build()
}

/// One engine per workload: the index is built once and shared by every
/// configuration under comparison (the engine API's whole point).
fn engine(w: &mpq_datagen::Workload) -> Engine {
    Engine::builder().objects(&w.objects).build().unwrap()
}

/// One configuration: the knobs it turns on a default request.
type Knobs = for<'e, 'f> fn(MatchRequest<'e, 'f>) -> MatchRequest<'e, 'f>;

const SB: Knobs = |r| r;
const BF: Knobs = |r| r.algorithm(Algorithm::BruteForce);
const CHAIN: Knobs = |r| r.algorithm(Algorithm::Chain);

fn run(knobs: Knobs, e: &Engine, fs: &FunctionSet) -> Matching {
    // cold buffer per method: the I/O comparisons stay order-independent
    // even though the methods share one engine
    e.tree().clear_buffer();
    knobs(e.request(fs)).evaluate().unwrap()
}

#[test]
fn sb_beats_brute_force_beats_chain_in_io() {
    for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
        let w = workload(dist, 20_000, 500, 3);
        let e = engine(&w);
        let sb = run(SB, &e, &w.functions);
        let bf = run(BF, &e, &w.functions);
        let ch = run(CHAIN, &e, &w.functions);

        let (sb_io, bf_io, ch_io) = (
            sb.metrics().io.physical(),
            bf.metrics().io.physical(),
            ch.metrics().io.physical(),
        );
        // the gap widens with scale (2.5–3 orders of magnitude at the
        // paper's 100K/5K configuration; see EXPERIMENTS.md) — at test
        // scale assert at least one order of magnitude
        assert!(
            sb_io * 10 < bf_io,
            "{}: SB ({sb_io}) must be at least an order of magnitude below BF ({bf_io})",
            dist.name()
        );
        assert!(
            bf_io < ch_io,
            "{}: BF ({bf_io}) must beat Chain ({ch_io}) in I/O",
            dist.name()
        );
        // all agree on the outcome
        assert_eq!(sb.sorted_pairs(), bf.sorted_pairs());
        assert_eq!(sb.sorted_pairs(), ch.sorted_pairs());
    }
}

#[test]
fn io_grows_with_dimensionality() {
    let mut last = 0u64;
    for dim in [2usize, 4, 6] {
        let w = workload(Distribution::Independent, 10_000, 200, dim);
        let sb = run(SB, &engine(&w), &w.functions);
        let io = sb.metrics().io.physical();
        assert!(
            io > last,
            "dimensionality curse: I/O at D={dim} ({io}) must exceed D-2 ({last})"
        );
        last = io;
    }
}

#[test]
fn incremental_maintenance_beats_rescan() {
    let w = workload(Distribution::Independent, 8_000, 300, 3);
    let e = engine(&w);
    let incr = run(SB, &e, &w.functions);
    let rescan = run(|r| r.maintenance(MaintenanceMode::Rescan), &e, &w.functions);
    assert_eq!(incr.sorted_pairs(), rescan.sorted_pairs());
    let (a, b) = (incr.metrics().io.logical, rescan.metrics().io.logical);
    assert!(
        a * 5 < b,
        "incremental maintenance ({a} logical accesses) must be far below \
         per-loop recomputation ({b})"
    );
}

#[test]
fn tight_threshold_scans_less_than_naive() {
    let w = workload(Distribution::Independent, 64, 4_000, 4);
    let fs: FunctionSet = w.functions;
    let mut tight = ReverseTopOne::build(&fs);
    let mut naive = ReverseTopOne::build(&fs);
    for (_, point) in w.objects.iter() {
        let a = tight.best_for_with(&fs, point, ThresholdMode::Tight);
        let b = naive.best_for_with(&fs, point, ThresholdMode::Naive);
        assert_eq!(a, b);
    }
    let (ta, tn) = (
        tight.stats().positions_advanced,
        naive.stats().positions_advanced,
    );
    assert!(
        ta < tn,
        "tight threshold ({ta} positions) must terminate before naive ({tn})"
    );
}

#[test]
fn multi_pair_reduces_loops_substantially() {
    let w = workload(Distribution::Independent, 20_000, 1_000, 3);
    let e = engine(&w);
    let multi = run(SB, &e, &w.functions);
    let single = run(|r| r.multi_pair(false), &e, &w.functions);
    assert_eq!(single.metrics().loops, 1_000);
    assert!(
        multi.metrics().loops * 2 < single.metrics().loops,
        "multi-pair ({} loops) must at least halve the loop count (vs {})",
        multi.metrics().loops,
        single.metrics().loops
    );
}

#[test]
fn bf_frontier_memory_explodes_on_anticorrelated_data() {
    // the paper: BF exceeded 4 GB on anti-correlated D = 6; at test
    // scale the per-function incremental frontiers must already dwarf
    // the skyline-based state
    let independent = workload(Distribution::Independent, 10_000, 300, 3);
    let anti = workload(Distribution::AntiCorrelated, 10_000, 300, 6);
    let bf_ind = run(BF, &engine(&independent), &independent.functions);
    let bf_anti = run(BF, &engine(&anti), &anti.functions);
    assert!(
        bf_anti.metrics().peak_frontier > 4 * bf_ind.metrics().peak_frontier,
        "anti-correlated D=6 frontiers ({}) must dwarf independent D=3 ({})",
        bf_anti.metrics().peak_frontier,
        bf_ind.metrics().peak_frontier
    );
}

#[test]
fn no_algorithm_writes_to_the_shared_index() {
    // The engine's index is shared across requests, so every algorithm
    // masks assigned objects instead of physically deleting them; the
    // restart strategy pays with extra top-1 searches instead.
    let w = workload(Distribution::Independent, 5_000, 100, 3);
    let e = engine(&w);
    let sb = run(SB, &e, &w.functions);
    assert_eq!(sb.metrics().io.physical_writes, 0);
    let incr = run(BF, &e, &w.functions);
    let restart = run(|r| BF(r).bf_strategy(BfStrategy::Restart), &e, &w.functions);
    assert_eq!(incr.metrics().io.physical_writes, 0);
    assert_eq!(restart.metrics().io.physical_writes, 0);
    assert_eq!(incr.sorted_pairs(), restart.sorted_pairs());
    assert!(
        restart.metrics().io.logical >= incr.metrics().io.logical,
        "restart re-reads from the root, incremental resumes its frontier"
    );
}

#[test]
fn zillow_skew_hurts_top1_searchers_more_than_sb() {
    // Fig. 3 discussion: skew worsens BF/Chain (their top-1 searches
    // focus on a crowded score region) but not SB
    let w = WorkloadBuilder::new()
        .objects(20_000)
        .functions(500)
        .distribution(Distribution::Zillow)
        .seed(2009)
        .build();
    let e = engine(&w);
    let sb = run(SB, &e, &w.functions);
    let bf = run(BF, &e, &w.functions);
    let ratio = bf.metrics().io.physical() as f64 / sb.metrics().io.physical().max(1) as f64;
    assert!(
        ratio > 50.0,
        "on skewed data the SB advantage must be large (got {ratio:.1}x)"
    );
}
