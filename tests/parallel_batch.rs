//! Parallel batch evaluation acceptance tests.
//!
//! The contract of [`Engine::evaluate_batch`]: results arrive **in input
//! order** and are **pair-for-pair identical** to evaluating the same
//! requests sequentially, whatever the thread count or shard count —
//! concurrency may only change buffer hit/miss counts, never matchings
//! and never the (deterministic) logical I/O of a run.

use std::collections::HashSet;

use mpq::core::{reference_matching, verify_stable, Algorithm, Scratch};
use mpq::datagen::{Distribution, WorkloadBuilder};
use mpq::prelude::*;
use mpq::rtree::IoStats;
use mpq::ta::FunctionSet;

/// A small stream of distinct requests: each has its own function set.
fn request_functions(n_requests: usize, per_request: usize, dim: usize) -> Vec<FunctionSet> {
    (0..n_requests)
        .map(|i| {
            WorkloadBuilder::new()
                .objects(1)
                .functions(per_request)
                .dim(dim)
                .seed(1000 + i as u64)
                .build()
                .functions
        })
        .collect()
}

/// Byte-level identity: same pairs, same order, same score bits.
fn assert_identical(a: &Matching, b: &Matching, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: pair count");
    for (x, y) in a.pairs().iter().zip(b.pairs()) {
        assert_eq!(x.fid, y.fid, "{ctx}: fid");
        assert_eq!(x.oid, y.oid, "{ctx}: oid");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{ctx}: score must be byte-identical"
        );
    }
}

#[test]
fn batch_matches_sequential_on_1_2_and_8_threads() {
    let w = WorkloadBuilder::new()
        .objects(2_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::Independent)
        .seed(77)
        .build();
    let engine = Engine::builder()
        .objects(&w.objects)
        .buffer_shards(8)
        .build()
        .unwrap();
    let function_sets = request_functions(12, 25, 3);
    let requests: Vec<MatchRequest> = function_sets.iter().map(|fs| engine.request(fs)).collect();

    // sequential baseline + its per-run I/O sum
    let mut sequential = Vec::new();
    let mut seq_io = IoStats::default();
    for r in &requests {
        let m = r.evaluate().unwrap();
        seq_io += m.metrics().io;
        sequential.push(m);
    }

    for threads in [1usize, 2, 8] {
        let outcome = engine.evaluate_batch(&requests, threads).unwrap();
        assert_eq!(outcome.len(), requests.len());
        let mut par_io = IoStats::default();
        for (i, (par, seq)) in outcome.matchings().iter().zip(&sequential).enumerate() {
            assert_identical(par, seq, &format!("t={threads} req={i}"));
            par_io += par.metrics().io;
        }
        // Logical node requests are deterministic per run — sharing the
        // tree cannot change *what* a run reads, only whether a read
        // hits the buffer.
        assert_eq!(
            par_io.logical, seq_io.logical,
            "t={threads}: summed logical I/O must equal sequential"
        );
        // Physical counts depend on buffer warmth under concurrent
        // interleaving; they must stay within the sane envelope: never
        // more than the logical request count, and not wildly off the
        // sequential cost.
        assert!(
            par_io.physical_reads <= par_io.logical,
            "t={threads}: reads cannot exceed requests"
        );
        assert!(
            par_io.physical_reads <= seq_io.physical_reads * 3 + 100,
            "t={threads}: physical reads {} vs sequential {} exceed \
             buffer-warmth tolerance",
            par_io.physical_reads,
            seq_io.physical_reads
        );
    }
}

#[test]
fn batch_results_arrive_in_input_order() {
    let w = WorkloadBuilder::new()
        .objects(600)
        .functions(1)
        .dim(2)
        .seed(5)
        .build();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    let function_sets = request_functions(9, 10, 2);
    let requests: Vec<MatchRequest> = function_sets.iter().map(|fs| engine.request(fs)).collect();
    let outcome = engine.evaluate_batch(&requests, 4).unwrap();
    for (i, (m, fs)) in outcome.matchings().iter().zip(&function_sets).enumerate() {
        let expect = engine.request(fs).evaluate().unwrap();
        assert_identical(m, &expect, &format!("slot {i}"));
        verify_stable(&w.objects, fs, m.pairs()).unwrap();
    }
}

#[test]
fn batch_reports_first_error_in_input_order() {
    let w = WorkloadBuilder::new()
        .objects(200)
        .functions(5)
        .dim(3)
        .seed(6)
        .build();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    let good = w.functions.clone();
    let wrong_dim = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
    let empty = FunctionSet::new(3);
    let requests = vec![
        engine.request(&good),
        engine.request(&wrong_dim), // first failure in input order
        engine.request(&empty),
    ];
    let err = engine.evaluate_batch(&requests, 2).unwrap_err();
    assert_eq!(
        err,
        MpqError::DimensionMismatch {
            engine: 3,
            functions: 2
        }
    );
}

#[test]
fn batch_metrics_aggregate_per_request_costs() {
    let w = WorkloadBuilder::new()
        .objects(1_500)
        .functions(1)
        .dim(2)
        .seed(7)
        .build();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    let function_sets = request_functions(6, 15, 2);
    let requests: Vec<MatchRequest> = function_sets.iter().map(|fs| engine.request(fs)).collect();
    let outcome = engine.evaluate_batch(&requests, 3).unwrap();
    let met = outcome.metrics();
    assert_eq!(met.requests, 6);
    assert!(met.threads >= 1 && met.threads <= 3);
    assert!(met.wall.as_nanos() > 0);
    assert!(met.requests_per_sec() > 0.0);

    let mut io = IoStats::default();
    let mut loops = 0;
    let mut rtop1 = 0;
    for m in outcome.matchings() {
        io += m.metrics().io;
        loops += m.metrics().loops;
        rtop1 += m.metrics().reverse_top1_calls;
    }
    assert_eq!(met.io, io, "batch io must be the sum of per-request io");
    assert_eq!(met.loops, loops);
    assert_eq!(met.reverse_top1_calls, rtop1);
}

#[test]
fn empty_batch_is_fine() {
    let w = WorkloadBuilder::new()
        .objects(50)
        .functions(1)
        .dim(2)
        .seed(8)
        .build();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    let outcome = engine.evaluate_batch(&[], 4).unwrap();
    assert!(outcome.is_empty());
    assert_eq!(outcome.metrics().requests, 0);
}

#[test]
fn scratch_reuse_across_algorithms_and_requests_changes_nothing() {
    let w = WorkloadBuilder::new()
        .objects(800)
        .functions(1)
        .dim(3)
        .distribution(Distribution::AntiCorrelated)
        .seed(9)
        .build();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    let function_sets = request_functions(5, 20, 3);

    // one scratch, hammered across every (request, algorithm) pair in
    // sequence — results must equal fresh-scratch evaluations
    let mut scratch = Scratch::new();
    for fs in &function_sets {
        for algo in [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain] {
            let reused = engine
                .request(fs)
                .algorithm(algo)
                .evaluate_with(&mut scratch)
                .unwrap();
            let fresh = engine.request(fs).algorithm(algo).evaluate().unwrap();
            assert_identical(&reused, &fresh, &format!("{algo} scratch reuse"));
            assert_eq!(
                sortable(reused.pairs()),
                sortable(&reference_matching(&w.objects, fs)),
                "{algo} must still match the reference"
            );
        }
    }
}

fn sortable(pairs: &[Pair]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = pairs.iter().map(|p| (p.fid, p.oid)).collect();
    v.sort_unstable();
    v
}

#[test]
fn exclusions_and_masking_survive_batch_evaluation() {
    let w = WorkloadBuilder::new()
        .objects(400)
        .functions(1)
        .dim(2)
        .seed(11)
        .build();
    let engine = Engine::builder()
        .objects(&w.objects)
        .buffer_shards(4)
        .build()
        .unwrap();
    let fs = request_functions(1, 12, 2).remove(0);
    // mask the unconstrained winners, batch-evaluate the masked request
    let unmasked = engine.request(&fs).evaluate().unwrap();
    let masked_oids: HashSet<u64> = unmasked.pairs().iter().take(3).map(|p| p.oid).collect();
    let requests = vec![
        engine.request(&fs),
        engine.request(&fs).exclude(masked_oids.iter().copied()),
    ];
    let outcome = engine.evaluate_batch(&requests, 2).unwrap();
    assert_identical(&outcome.matchings()[0], &unmasked, "unmasked slot");
    for p in outcome.matchings()[1].pairs() {
        assert!(
            !masked_oids.contains(&p.oid),
            "masked object {} must not be assigned",
            p.oid
        );
    }
}
