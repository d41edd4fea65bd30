//! Property-based tests for the matchers on adversarial inputs:
//! grid-valued coordinates force massive score ties and duplicate
//! points, which is exactly where naive tie handling breaks.
//!
//! With strictly positive weights the stable matching under the
//! canonical tie-broken order is unique, duplicates included: Brute
//! Force and Chain see every individual object, and the skyline-based
//! matcher sees of each duplicate group the smallest id left (see the
//! duplicate-semantics note in `mpq_skyline::maintain`), which is the
//! one the canonical order would hand out next — so every algorithm, on
//! one tree or four, reproduces the reference exactly.
//!
//! The capacitated request gets continuous coordinates instead — no
//! duplicate objects — so its contract is checked exactly: either
//! `multi_pair`, both engines, streamed and resumed, against the
//! capacity oracle.

use proptest::prelude::*;

use mpq::core::capacity::{reference_capacity_matching, verify_capacity_stable};
use mpq::core::{
    reference_matching, verify_stable, verify_weakly_stable, Algorithm, Engine, MatchRequest, Pair,
    Scratch,
};
use mpq::rtree::PointSet;
use mpq::ta::FunctionSet;

fn sorted(pairs: &[Pair]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = pairs.iter().map(|p| (p.fid, p.oid)).collect();
    v.sort_unstable();
    v
}

/// Objects on a coarse grid: duplicates and ties abound.
fn grid_objects(dim: usize) -> impl Strategy<Value = PointSet> {
    proptest::collection::vec(proptest::collection::vec(0u8..=6, dim), 1..50).prop_map(
        move |rows| {
            let mut ps = PointSet::new(dim);
            for r in rows {
                let p: Vec<f64> = r.iter().map(|&v| v as f64 / 6.0).collect();
                ps.push(&p);
            }
            ps
        },
    )
}

/// Strictly positive integer weights (normalized by FunctionSet).
fn positive_functions(dim: usize) -> impl Strategy<Value = FunctionSet> {
    proptest::collection::vec(proptest::collection::vec(1u8..=9, dim), 1..16).prop_map(
        move |rows| {
            let rows: Vec<Vec<f64>> = rows
                .iter()
                .map(|r| r.iter().map(|&v| v as f64).collect())
                .collect();
            FunctionSet::from_rows(dim, &rows)
        },
    )
}

/// Objects with continuous coordinates: no two alike.
fn continuous_objects(dim: usize) -> impl Strategy<Value = PointSet> {
    proptest::collection::vec(proptest::collection::vec(0.0..1.0f64, dim), 8..80).prop_map(
        move |rows| {
            let mut ps = PointSet::new(dim);
            for r in rows {
                ps.push(&r);
            }
            ps
        },
    )
}

/// The capacitated contract on one backend (a macro: `stream()` is
/// per engine type): for either `multi_pair` the matching
/// is the reference's over the visible capacities, bit for bit, and
/// passes the verifier; one pair a round reproduces the reference's
/// order; the stream and a seeded resume reproduce the evaluation. Then
/// the two query-modification rules: more room in an object that did
/// not fill changes nothing, and no room at all is an exclusion.
macro_rules! check_capacitated {
    ($backend:expr, $objects:expr, $functions:expr, $caps:expr, $excluded:expr) => {{
        let (objects, functions, caps, excluded) = ($objects, $functions, $caps, $excluded);
        let mut visible = caps.to_vec();
        for &oid in excluded.iter().filter(|&&oid| oid < caps.len() as u64) {
            visible[oid as usize] = 0;
        }
        let expect = reference_capacity_matching(objects, functions, &visible);
        let request = || {
            let request = $backend.request(functions).capacities(caps);
            request.exclude(excluded.iter().copied())
        };
        for multi_pair in [true, false] {
            let request = request().multi_pair(multi_pair);
            let label = format!("multi_pair {multi_pair}");
            let mut scratch = Scratch::new();
            let (got, seed) = request.evaluate_seeded(&mut scratch, None).unwrap();
            prop_assert_eq!(got.sorted_pairs(), expect.clone(), "{}", label);
            if let Err(e) = verify_capacity_stable(objects, functions, &visible, got.pairs()) {
                panic!("{label}: unstable capacitated matching: {e}");
            }
            if !multi_pair {
                prop_assert_eq!(got.pairs(), &expect[..], "{}: greedy order", label);
            }
            let streamed: Vec<Pair> = request.stream().unwrap().collect();
            prop_assert_eq!(&streamed[..], got.pairs(), "{}: streamed", label);
            prop_assert!(seed.is_some(), "{}: a cold run captures", label);
            let resumed = request.evaluate_seeded(&mut scratch, seed.as_ref());
            let (resumed, _) = resumed.unwrap();
            prop_assert_eq!(resumed.pairs(), got.pairs(), "{}: resumed", label);
        }

        let base = request().evaluate().unwrap();
        let mut roomier = caps.to_vec();
        for (oid, units) in roomier.iter_mut().enumerate() {
            let residents = base.pairs().iter().filter(|p| p.oid == oid as u64).count();
            if residents < visible[oid] as usize {
                *units += 2;
            }
        }
        let raised = request().capacities(&roomier).evaluate().unwrap();
        prop_assert_eq!(raised.pairs(), base.pairs(), "room nobody wanted");
        let zeroed = $backend.request(functions).capacities(&visible);
        let zeroed = zeroed.evaluate().unwrap();
        prop_assert_eq!(zeroed.pairs(), base.pairs(), "no room is an exclusion");
    }};
}

/// One configuration: the knobs it turns on a default request.
type Knobs = for<'e, 'f> fn(MatchRequest<'e, 'f>) -> MatchRequest<'e, 'f>;

const SB_SINGLE_PAIR: Knobs = |r| r.multi_pair(false);

fn check_all(objects: &PointSet, functions: &FunctionSet) -> Result<(), TestCaseError> {
    let expect = reference_matching(objects, functions);
    let expect_sorted = sorted(&expect);
    // one index build serves every configuration below
    let engine = Engine::builder().objects(objects).build().unwrap();

    // Every algorithm agrees with the reference exactly, duplicate
    // identities included: Brute Force and Chain examine every
    // individual object, and SB's ablations keep its skyline.
    let exact = [
        Algorithm::SbNaiveThreshold,
        Algorithm::SbScan,
        Algorithm::SbRescan,
        Algorithm::BruteForce,
        Algorithm::BruteForceRestart,
        Algorithm::Chain,
    ];
    for algorithm in exact {
        let got = engine.request(functions).algorithm(algorithm);
        let got = got.evaluate().unwrap();
        prop_assert_eq!(
            sorted(got.pairs()),
            expect_sorted.clone(),
            "{} diverged",
            algorithm
        );
        if let Err(e) = verify_stable(objects, functions, got.pairs()) {
            panic!("{algorithm} produced an unstable matching: {e}");
        }
    }

    // SB: the skyline holds the smallest id left at each point, so the
    // reference exactly as well.
    let skyline: [(&str, Knobs); 2] = [("SB", |r| r), ("SB single-pair", SB_SINGLE_PAIR)];
    for (label, knobs) in skyline {
        let got = knobs(engine.request(functions)).evaluate().unwrap();
        prop_assert_eq!(
            sorted(got.pairs()),
            expect_sorted.clone(),
            "{} diverged",
            label
        );
        if let Err(e) = verify_stable(objects, functions, got.pairs()) {
            panic!("{label} produced an unstable matching: {e}");
        }
    }

    // single-pair SB reproduces the greedy score sequence exactly
    let seq = SB_SINGLE_PAIR(engine.request(functions))
        .evaluate()
        .unwrap();
    let got_scores: Vec<u64> = seq.pairs().iter().map(|p| p.score.to_bits()).collect();
    let expect_scores: Vec<u64> = expect.iter().map(|p| p.score.to_bits()).collect();
    prop_assert_eq!(got_scores, expect_scores);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tie_heavy_2d((objects, functions) in (grid_objects(2), positive_functions(2))) {
        check_all(&objects, &functions)?;
    }

    #[test]
    fn tie_heavy_3d((objects, functions) in (grid_objects(3), positive_functions(3))) {
        check_all(&objects, &functions)?;
    }

    #[test]
    fn tie_heavy_4d((objects, functions) in (grid_objects(4), positive_functions(4))) {
        check_all(&objects, &functions)?;
    }

    #[test]
    fn capacitated_requests_keep_the_contract(
        (objects, functions) in (continuous_objects(3), positive_functions(3)),
        caps in proptest::collection::vec(0u32..=3, 80),
        excluded in proptest::collection::vec(0u64..80, 0..6),
    ) {
        let caps = &caps[..objects.len()];
        let engine = Engine::builder().objects(&objects).build().unwrap();
        check_capacitated!(engine, &objects, &functions, caps, &excluded);
    }

    #[test]
    fn matching_invariants_hold(
        (objects, functions) in (grid_objects(3), positive_functions(3))
    ) {
        let engine = Engine::builder().objects(&objects).build().unwrap();
        let m = engine.request(&functions).evaluate().unwrap();
        // size = min(|F|, |O|)
        prop_assert_eq!(m.len(), functions.n_alive().min(objects.len()));
        // 1-1
        let mut fids: Vec<u32> = m.pairs().iter().map(|p| p.fid).collect();
        let mut oids: Vec<u64> = m.pairs().iter().map(|p| p.oid).collect();
        fids.sort_unstable();
        fids.dedup();
        oids.sort_unstable();
        oids.dedup();
        prop_assert_eq!(fids.len(), m.len());
        prop_assert_eq!(oids.len(), m.len());
        // nobody would trade up, by score alone
        prop_assert_eq!(verify_weakly_stable(&objects, &functions, m.pairs()), Ok(()));
        // scores recompute exactly
        for p in m.pairs() {
            let s = functions.score(p.fid, objects.get(p.oid as usize));
            prop_assert_eq!(s.to_bits(), p.score.to_bits());
        }
    }
}
