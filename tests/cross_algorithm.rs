//! Cross-algorithm agreement: SB (in every ablation configuration),
//! Brute Force (both strategies) and Chain must produce the identical
//! stable matching on every workload, and that matching must equal the
//! exact reference and pass the Property-1 verifier.
//!
//! Every evaluation is routed through the engine's `MatchRequest` path:
//! one engine (one index build) per workload serves all configurations.

use mpq::core::{
    reference_matching, verify_stable, Algorithm, BestPairMode, BfStrategy, Engine,
    MaintenanceMode, MatchRequest, Pair,
};
use mpq::datagen::{Distribution, FunctionStyle, WorkloadBuilder};

fn sorted(pairs: &[Pair]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = pairs.iter().map(|p| (p.fid, p.oid)).collect();
    v.sort_unstable();
    v
}

/// One configuration: the knobs it turns on a default request.
type Knobs = for<'e, 'f> fn(MatchRequest<'e, 'f>) -> MatchRequest<'e, 'f>;

/// Every configuration that must yield the one stable matching.
const ALL_CONFIGS: [(&str, Knobs); 8] = [
    ("SB", |r| r),
    ("SB single-pair", |r| r.multi_pair(false)),
    ("SB scan", |r| r.best_pair(BestPairMode::Scan)),
    ("SB ta-naive", |r| {
        r.best_pair(BestPairMode::TaNaiveThreshold)
    }),
    ("SB-rescan", |r| r.maintenance(MaintenanceMode::Rescan)),
    ("BruteForce", |r| r.algorithm(Algorithm::BruteForce)),
    ("BruteForce-restart", |r| {
        r.algorithm(Algorithm::BruteForce)
            .bf_strategy(BfStrategy::Restart)
    }),
    ("Chain", |r| r.algorithm(Algorithm::Chain)),
];

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
    for (label, knobs) in ALL_CONFIGS {
        let got = knobs(engine.request(&w.functions)).evaluate().unwrap();
        assert_eq!(
            sorted(got.pairs()),
            expect_sorted,
            "{label} diverged on {} n={n} f={f} dim={dim} seed={seed}",
            dist.name()
        );
        verify_stable(&w.objects, &w.functions, got.pairs())
            .unwrap_or_else(|e| panic!("{label} unstable: {e}"));
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
    for (label, knobs) in ALL_CONFIGS {
        let got = knobs(engine.request(&w.functions)).evaluate().unwrap();
        assert_eq!(sorted(got.pairs()), expect, "{label}");
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
