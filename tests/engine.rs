//! Engine API acceptance tests: one shared index serving all three
//! algorithms, concurrent evaluation with independent per-run metrics,
//! inventory masking, capacities, and boundary validation (unit tests +
//! proptests) with typed [`MpqError`]s.

use std::collections::HashSet;

use proptest::prelude::*;

use mpq::core::capacity::reference_capacity_matching;
use mpq::core::{reference_matching, verify_stable, Algorithm, BestPairMode, BfStrategy};
use mpq::datagen::{Distribution, WorkloadBuilder};
use mpq::prelude::*;
use mpq::ta::WeightError;

fn sorted(pairs: &[Pair]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = pairs.iter().map(|p| (p.fid, p.oid)).collect();
    v.sort_unstable();
    v
}

#[test]
fn one_engine_serves_all_three_algorithms() {
    let w = WorkloadBuilder::new()
        .objects(500)
        .functions(80)
        .dim(3)
        .distribution(Distribution::AntiCorrelated)
        .seed(71)
        .build();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    let expect = sorted(&reference_matching(&w.objects, &w.functions));
    for algo in [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain] {
        let m = engine
            .request(&w.functions)
            .algorithm(algo)
            .evaluate()
            .unwrap();
        assert_eq!(sorted(m.pairs()), expect, "{algo} diverged");
        verify_stable(&w.objects, &w.functions, m.pairs()).unwrap();
        assert_eq!(
            m.metrics().io.physical_writes,
            0,
            "{algo} must not mutate the shared index"
        );
    }
}

#[test]
fn concurrent_requests_report_independent_metrics() {
    let w = WorkloadBuilder::new()
        .objects(3_000)
        .functions(150)
        .dim(3)
        .seed(72)
        .build();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();

    // Single-threaded baselines: logical I/O is deterministic per
    // algorithm (it does not depend on buffer warmth).
    let sb_logical = engine
        .request(&w.functions)
        .evaluate()
        .unwrap()
        .metrics()
        .io
        .logical;
    let bf_logical = engine
        .request(&w.functions)
        .algorithm(Algorithm::BruteForce)
        .evaluate()
        .unwrap()
        .metrics()
        .io
        .logical;
    assert_ne!(
        sb_logical, bf_logical,
        "the two algorithms must have distinguishable I/O signatures \
         for this test to mean anything"
    );

    // Two threads hammer the same engine with different algorithms. If
    // per-run accounting leaked across runs, each thread's counters
    // would include (some of) the other thread's page traffic.
    std::thread::scope(|scope| {
        let sb_thread = scope.spawn(|| {
            let mut out = Vec::new();
            for _ in 0..4 {
                out.push(engine.request(&w.functions).evaluate().unwrap());
            }
            out
        });
        let bf_thread = scope.spawn(|| {
            let mut out = Vec::new();
            for _ in 0..4 {
                out.push(
                    engine
                        .request(&w.functions)
                        .algorithm(Algorithm::BruteForce)
                        .evaluate()
                        .unwrap(),
                );
            }
            out
        });
        let sb_runs = sb_thread.join().unwrap();
        let bf_runs = bf_thread.join().unwrap();
        let expect = sorted(&reference_matching(&w.objects, &w.functions));
        for m in &sb_runs {
            assert_eq!(m.metrics().io.logical, sb_logical);
            assert_eq!(sorted(m.pairs()), expect);
        }
        for m in &bf_runs {
            assert_eq!(m.metrics().io.logical, bf_logical);
            assert_eq!(sorted(m.pairs()), expect);
        }
    });
}

#[test]
fn excluded_objects_are_invisible_to_every_algorithm() {
    let w = WorkloadBuilder::new()
        .objects(300)
        .functions(60)
        .dim(2)
        .distribution(Distribution::AntiCorrelated)
        .seed(73)
        .build();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();

    // Reserve whatever a first batch would take.
    let first = engine.request(&w.functions).evaluate().unwrap();
    let reserved: HashSet<u64> = first.pairs().iter().map(|p| p.oid).collect();

    let expect = sorted(&mpq::core::reference_matching_excluding(
        &w.objects,
        &w.functions,
        &|o| reserved.contains(&o),
    ));
    for algo in [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain] {
        let m = engine
            .request(&w.functions)
            .algorithm(algo)
            .exclude(reserved.iter().copied())
            .evaluate()
            .unwrap();
        assert_eq!(sorted(m.pairs()), expect, "{algo} diverged under masking");
        assert!(m.pairs().iter().all(|p| !reserved.contains(&p.oid)));
    }
    // SB rescan ablation honours the mask too
    let rescan = engine
        .request(&w.functions)
        .maintenance(mpq::core::MaintenanceMode::Rescan)
        .exclude(reserved.iter().copied())
        .evaluate()
        .unwrap();
    assert_eq!(sorted(rescan.pairs()), expect);
}

#[test]
fn excluded_objects_promoted_mid_run_stay_invisible() {
    // Regression: an excluded object hidden *behind* a dominator is not
    // on the initial skyline; assigning the dominator promotes it
    // mid-run, and the incremental SB stream used to fold it into its
    // caches and assign it. The mask must hold through promotions.
    let mut objects = PointSet::new(2);
    objects.push(&[0.9, 0.9]); // oid 0: dominates everything
    objects.push(&[0.8, 0.8]); // oid 1: excluded, surfaces when 0 is taken
    objects.push(&[0.2, 0.3]); // oid 2: the only legal second choice
    let functions = FunctionSet::from_rows(2, &[vec![0.5, 0.5], vec![0.6, 0.4]]);
    let engine = Engine::builder().objects(&objects).build().unwrap();

    let expect = sorted(&mpq::core::reference_matching_excluding(
        &objects,
        &functions,
        &|o| o == 1,
    ));
    assert!(
        expect.iter().all(|&(_, oid)| oid != 1),
        "sanity: the reference never assigns the reserved object"
    );
    for algo in [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain] {
        let m = engine
            .request(&functions)
            .algorithm(algo)
            .exclude([1u64])
            .evaluate()
            .unwrap();
        assert_eq!(sorted(m.pairs()), expect, "{algo} assigned a masked object");
    }
    // the progressive stream shares the incremental path: same contract
    let streamed: Vec<Pair> = engine
        .request(&functions)
        .exclude([1u64])
        .stream()
        .unwrap()
        .collect();
    assert_eq!(sorted(&streamed), expect);

    // chains of masked promotions: exclude a whole dominance ladder
    let mut ladder = PointSet::new(2);
    ladder.push(&[0.9, 0.9]); // 0: assigned first
    ladder.push(&[0.8, 0.8]); // 1: excluded
    ladder.push(&[0.7, 0.7]); // 2: excluded, surfaces only after 1 peels
    ladder.push(&[0.6, 0.6]); // 3: excluded
    ladder.push(&[0.1, 0.1]); // 4: the only legal leftover
    let eng2 = Engine::builder().objects(&ladder).build().unwrap();
    let m = eng2
        .request(&functions)
        .exclude([1u64, 2, 3])
        .evaluate()
        .unwrap();
    let got = sorted(m.pairs());
    assert!(got.iter().all(|&(_, oid)| oid == 0 || oid == 4), "{got:?}");
    assert_eq!(got.len(), 2);
}

#[test]
fn capacities_reject_unimplemented_sb_ablations() {
    let w = WorkloadBuilder::new()
        .objects(40)
        .functions(10)
        .dim(2)
        .seed(76)
        .build();
    let caps: Vec<u32> = (0..40).map(|i| i % 3).collect();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    let err = engine
        .request(&w.functions)
        .capacities(&caps)
        .maintenance(mpq::core::MaintenanceMode::Rescan)
        .evaluate()
        .unwrap_err();
    assert!(matches!(err, MpqError::UnsupportedRequest(_)));
    // The best-pair ablations are the same round with another search
    // for an object's best function: units are taken all the same.
    let expect = reference_capacity_matching(&w.objects, &w.functions, &caps);
    for mode in [BestPairMode::Scan, BestPairMode::TaNaiveThreshold] {
        let request = engine.request(&w.functions).capacities(&caps);
        let m = request.best_pair(mode).evaluate().unwrap();
        assert_eq!(m.sorted_pairs(), expect, "{mode:?}");
    }
}

#[test]
fn request_options_cover_the_ablations() {
    let w = WorkloadBuilder::new()
        .objects(250)
        .functions(40)
        .dim(3)
        .seed(74)
        .build();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    let baseline = engine.request(&w.functions).evaluate().unwrap();
    for m in [
        engine
            .request(&w.functions)
            .best_pair(BestPairMode::Scan)
            .evaluate()
            .unwrap(),
        engine
            .request(&w.functions)
            .best_pair(BestPairMode::TaNaiveThreshold)
            .evaluate()
            .unwrap(),
        engine
            .request(&w.functions)
            .multi_pair(false)
            .evaluate()
            .unwrap(),
        engine
            .request(&w.functions)
            .algorithm(Algorithm::BruteForce)
            .bf_strategy(BfStrategy::Restart)
            .evaluate()
            .unwrap(),
    ] {
        assert_eq!(sorted(m.pairs()), sorted(baseline.pairs()));
    }
}

#[test]
fn capacities_via_request_match_the_capacity_reference() {
    use mpq::core::capacity::{reference_capacity_matching, verify_capacity_stable};
    let w = WorkloadBuilder::new()
        .objects(80)
        .functions(50)
        .dim(2)
        .seed(75)
        .build();
    let caps: Vec<u32> = (0..w.objects.len()).map(|i| (i % 3) as u32).collect();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    let m = engine
        .request(&w.functions)
        .capacities(&caps)
        .evaluate()
        .unwrap();
    let expect = reference_capacity_matching(&w.objects, &w.functions, &caps);
    assert_eq!(sorted(m.pairs()), sorted(&expect));
    verify_capacity_stable(&w.objects, &w.functions, &caps, m.pairs()).unwrap();

    // capacity vector must cover every object
    let err = engine
        .request(&w.functions)
        .capacities(&caps[1..])
        .evaluate()
        .unwrap_err();
    assert!(matches!(err, MpqError::CapacityMismatch { .. }));

    // capacities only combine with SB
    let err = engine
        .request(&w.functions)
        .algorithm(Algorithm::Chain)
        .capacities(&caps)
        .evaluate()
        .unwrap_err();
    assert!(matches!(err, MpqError::UnsupportedRequest(_)));
}

#[test]
fn builder_rejects_malformed_inventories() {
    // empty
    let empty = PointSet::new(2);
    assert_eq!(
        Engine::builder().objects(&empty).build().unwrap_err(),
        MpqError::EmptyObjects
    );
    // no objects at all
    assert_eq!(
        Engine::builder().build().unwrap_err(),
        MpqError::EmptyObjects
    );
    // NaN coordinate
    let mut nan = PointSet::new(2);
    nan.push(&[0.5, 0.5]);
    nan.push(&[f64::NAN, 0.5]);
    assert!(matches!(
        Engine::builder().objects(&nan).build().unwrap_err(),
        MpqError::NonFiniteCoordinate { oid: 1, dim: 0, .. }
    ));
    // infinite coordinate
    let mut inf = PointSet::new(2);
    inf.push(&[0.5, f64::INFINITY]);
    assert!(matches!(
        Engine::builder().objects(&inf).build().unwrap_err(),
        MpqError::NonFiniteCoordinate { oid: 0, dim: 1, .. }
    ));
    // out of the [0,1] preference space
    let mut range = PointSet::new(2);
    range.push(&[0.5, 1.5]);
    assert!(matches!(
        Engine::builder().objects(&range).build().unwrap_err(),
        MpqError::CoordinateOutOfRange { oid: 0, dim: 1, .. }
    ));
}

#[test]
fn requests_reject_malformed_functions() {
    let mut objects = PointSet::new(2);
    objects.push(&[0.4, 0.6]);
    objects.push(&[0.7, 0.2]);
    let engine = Engine::builder().objects(&objects).build().unwrap();

    // empty function set
    assert_eq!(
        engine.request(&FunctionSet::new(2)).evaluate().unwrap_err(),
        MpqError::EmptyFunctions
    );
    // dimension mismatch
    let fs3 = FunctionSet::from_rows(3, &[vec![0.2, 0.3, 0.5]]);
    assert_eq!(
        engine.request(&fs3).evaluate().unwrap_err(),
        MpqError::DimensionMismatch {
            engine: 2,
            functions: 3
        }
    );
    // raw weight rows with NaN / negative / all-zero entries become
    // typed errors instead of panics
    let err = engine
        .functions_from_rows(&[vec![0.5, 0.5], vec![f64::NAN, 1.0]])
        .unwrap_err();
    assert!(matches!(
        err,
        MpqError::InvalidFunction {
            index: 1,
            source: WeightError::InvalidWeight { dim: 0, .. }
        }
    ));
    let err = engine.functions_from_rows(&[vec![-0.1, 0.9]]).unwrap_err();
    assert!(matches!(
        err,
        MpqError::InvalidFunction {
            index: 0,
            source: WeightError::InvalidWeight { .. }
        }
    ));
    let err = engine.functions_from_rows(&[vec![0.0, 0.0]]).unwrap_err();
    assert!(matches!(
        err,
        MpqError::InvalidFunction {
            index: 0,
            source: WeightError::AllZero
        }
    ));
}

// ---------------------------------------------------------------------
// Property-based boundary validation
// ---------------------------------------------------------------------

/// A weight value that is definitely invalid: NaN, ±inf, or negative.
fn invalid_weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        -1e9..-1e-9f64,
    ]
}

fn small_engine() -> Engine {
    let mut objects = PointSet::new(3);
    objects.push(&[0.2, 0.5, 0.9]);
    objects.push(&[0.8, 0.4, 0.1]);
    objects.push(&[0.5, 0.5, 0.5]);
    Engine::builder().objects(&objects).build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_rejects_any_non_finite_or_out_of_range_coordinate(
        prefix in proptest::collection::vec(proptest::collection::vec(0.0..=1.0f64, 3), 0..5),
        bad in prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (1.0f64..1e9).prop_map(|v| 1.0 + v), // strictly above 1
            (-1e9..0.0f64).prop_filter("strictly negative", |v| *v < 0.0),
        ],
        dim in 0usize..3,
    ) {
        let mut ps = PointSet::new(3);
        for row in &prefix {
            ps.push(row);
        }
        let mut row = [0.5f64; 3];
        row[dim] = bad;
        ps.push(&row);
        let err = Engine::builder().objects(&ps).build().unwrap_err();
        let expect_oid = prefix.len() as u64;
        // NaN != NaN under PartialEq: compare fields, value by bit pattern
        match err {
            MpqError::CoordinateOutOfRange { oid, dim: d, value } => {
                prop_assert!(bad.is_finite(), "finite values map to OutOfRange");
                prop_assert_eq!((oid, d, value.to_bits()), (expect_oid, dim, bad.to_bits()));
            }
            MpqError::NonFiniteCoordinate { oid, dim: d, value } => {
                prop_assert!(!bad.is_finite(), "non-finite values map to NonFinite");
                prop_assert_eq!((oid, d, value.to_bits()), (expect_oid, dim, bad.to_bits()));
            }
            other => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    #[test]
    fn invalid_weight_rows_yield_typed_errors_never_panics(
        good in proptest::collection::vec(proptest::collection::vec(0.01..=1.0f64, 3), 0..4),
        bad_at in 0usize..3,
        bad in invalid_weight(),
    ) {
        let engine = small_engine();
        let mut rows: Vec<Vec<f64>> = good.clone();
        let mut bad_row = vec![0.5f64; 3];
        bad_row[bad_at] = bad;
        rows.push(bad_row);
        let err = engine.functions_from_rows(&rows).unwrap_err();
        prop_assert!(matches!(
            err,
            MpqError::InvalidFunction {
                index,
                source: WeightError::InvalidWeight { dim, .. }
            } if index == good.len() && dim == bad_at
        ));
    }

    #[test]
    fn mismatched_dimensions_are_always_rejected(
        dim in 1usize..6,
        rows in proptest::collection::vec(proptest::collection::vec(0.01..=1.0f64, 4), 1..4),
    ) {
        prop_assume!(dim != 3);
        let engine = small_engine(); // dim 3
        // a valid set of the wrong dimensionality is rejected at request time
        let wrong: Vec<Vec<f64>> = rows.iter().map(|r| r[..dim.min(4)].to_vec()).collect();
        if let Ok(fs) = FunctionSet::try_from_rows(dim, &wrong) {
            if fs.n_alive() > 0 {
                let err = engine.request(&fs).evaluate().unwrap_err();
                prop_assert_eq!(
                    err,
                    MpqError::DimensionMismatch { engine: 3, functions: dim }
                );
            }
        }
    }

    #[test]
    fn valid_inputs_always_evaluate(
        rows in proptest::collection::vec(proptest::collection::vec(0.01..=1.0f64, 3), 1..6),
    ) {
        let engine = small_engine();
        let fs = engine.functions_from_rows(&rows).unwrap();
        let m = engine.request(&fs).evaluate().unwrap();
        prop_assert_eq!(m.len(), fs.n_alive().min(engine.n_objects()));
    }
}
