//! Cross-algorithm agreement: every [`Algorithm`] — SB, its ablations,
//! Brute Force (both strategies) and Chain — and SB reporting one pair
//! a loop must produce the identical stable matching on every workload,
//! and that matching must equal the exact reference and pass the
//! Property-1 verifier.
//!
//! Every evaluation is a `Variant` of one request: one engine (one
//! index build) per workload serves all configurations.

use mpq::core::{reference_matching, verify_stable, Algorithm, Engine, Matching, Pair};
use mpq::datagen::{Distribution, FunctionStyle, WorkloadBuilder};
use mpq::ta::FunctionSet;

fn sorted(pairs: &[Pair]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = pairs.iter().map(|p| (p.fid, p.oid)).collect();
    v.sort_unstable();
    v
}

/// Every configuration that must yield the one stable matching: an
/// algorithm and whether the request reports every mutually-best pair
/// of a loop.
const ALL_CONFIGS: [(Algorithm, bool); 8] = [
    (Algorithm::Sb, true),
    (Algorithm::Sb, false),
    (Algorithm::SbScan, true),
    (Algorithm::SbNaiveThreshold, true),
    (Algorithm::SbRescan, true),
    (Algorithm::BruteForce, true),
    (Algorithm::BruteForceRestart, true),
    (Algorithm::Chain, true),
];

/// Evaluate `functions` on `engine` under one configuration.
fn run(engine: &Engine, functions: &FunctionSet, config: (Algorithm, bool)) -> Matching {
    let (algorithm, multi_pair) = config;
    let request = engine.request(functions).multi_pair(multi_pair);
    request.algorithm(algorithm).evaluate().unwrap()
}

fn check_workload(dist: Distribution, n: usize, f: usize, dim: usize, seed: u64) {
    let w = WorkloadBuilder::new()
        .objects(n)
        .functions(f)
        .dim(dim)
        .distribution(dist)
        .seed(seed)
        .build();
    let expect = reference_matching(&w.objects, &w.functions);
    let expect_sorted = sorted(&expect);
    // One shared engine: the index is built once for all configurations.
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    for config in ALL_CONFIGS {
        let got = run(&engine, &w.functions, config);
        assert_eq!(
            sorted(got.pairs()),
            expect_sorted,
            "{config:?} diverged on {} n={n} f={f} dim={dim} seed={seed}",
            dist.name()
        );
        verify_stable(&w.objects, &w.functions, got.pairs())
            .unwrap_or_else(|e| panic!("{config:?} unstable: {e}"));
    }
}

#[test]
fn independent_workloads() {
    check_workload(Distribution::Independent, 400, 60, 3, 1);
    check_workload(Distribution::Independent, 200, 35, 2, 2);
}

#[test]
fn anti_correlated_workloads() {
    check_workload(Distribution::AntiCorrelated, 300, 50, 3, 3);
    check_workload(Distribution::AntiCorrelated, 150, 25, 5, 4);
}

#[test]
fn correlated_and_clustered_workloads() {
    check_workload(Distribution::Correlated, 300, 40, 3, 5);
    check_workload(Distribution::Clustered { clusters: 5 }, 300, 40, 3, 6);
}

#[test]
fn zillow_workload() {
    check_workload(Distribution::Zillow, 400, 60, 5, 7);
}

#[test]
fn skewed_functions() {
    let w = WorkloadBuilder::new()
        .objects(250)
        .functions(40)
        .dim(4)
        .function_style(FunctionStyle::Skewed)
        .seed(8)
        .build();
    let expect = sorted(&reference_matching(&w.objects, &w.functions));
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    for config in ALL_CONFIGS {
        let got = run(&engine, &w.functions, config);
        assert_eq!(sorted(got.pairs()), expect, "{config:?}");
    }
}

#[test]
fn demand_exceeds_supply() {
    // |F| > |O|: every object is assigned, some users go home empty
    check_workload(Distribution::Independent, 30, 90, 3, 9);
    check_workload(Distribution::AntiCorrelated, 20, 100, 2, 10);
}

#[test]
fn single_object_and_single_function() {
    check_workload(Distribution::Independent, 1, 10, 2, 11);
    check_workload(Distribution::Independent, 50, 1, 2, 12);
    check_workload(Distribution::Independent, 1, 1, 2, 13);
}

#[test]
fn one_dimensional_degenerate_case() {
    check_workload(Distribution::Independent, 120, 30, 1, 14);
}
