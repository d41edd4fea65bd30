//! Workspace-wiring canary: run all three matchers on one small, fixed,
//! tie-heavy 2-D workload and require identical matchings plus
//! stability. This is the fastest test that exercises every crate
//! (rtree → skyline → ta → core, via the facade's prelude), so a
//! refactor that breaks inter-crate wiring or the deterministic
//! tie-break contract fails here first and loudly.

use mpq::core::{reference_matching, verify_stable};
use mpq::prelude::*;

fn engine(objects: &PointSet) -> Engine {
    Engine::builder().objects(objects).build().unwrap()
}

/// 5×5 grid restricted to a diagonal band: many exact score ties under
/// the balanced function, plus one duplicate point.
fn fixed_objects() -> PointSet {
    let mut ps = PointSet::new(2);
    for p in [
        [0.00, 1.00],
        [0.25, 0.75],
        [0.50, 0.50],
        [0.50, 0.50], // duplicate — exercises duplicate-group handling
        [0.75, 0.25],
        [1.00, 0.00],
        [0.25, 0.25],
        [0.75, 0.75],
    ] {
        ps.push(&p);
    }
    ps
}

fn fixed_functions() -> FunctionSet {
    FunctionSet::from_rows(
        2,
        &[
            vec![0.5, 0.5], // balanced: ties across the whole band
            vec![0.5, 0.5], // identical twin: fid tie-break decides
            vec![0.8, 0.2],
            vec![0.2, 0.8],
            vec![0.6, 0.4],
        ],
    )
}

const ALGORITHMS: [Algorithm; 3] = [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain];

fn run(algorithm: Algorithm, engine: &Engine, functions: &FunctionSet) -> Matching {
    engine
        .request(functions)
        .algorithm(algorithm)
        .evaluate()
        .unwrap()
}

fn pair_set(pairs: &[Pair]) -> Vec<(u32, u64, u64)> {
    let mut v: Vec<(u32, u64, u64)> = pairs
        .iter()
        .map(|p| (p.fid, p.oid, p.score.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// Like [`pair_set`] but identifying objects by coordinates, the
/// duplicate-insensitive view under which all matchers must agree (the
/// skyline matcher keeps one representative per duplicate group).
fn pair_set_by_point(pairs: &[Pair], objects: &PointSet) -> Vec<(u32, Vec<u64>, u64)> {
    let mut v: Vec<(u32, Vec<u64>, u64)> = pairs
        .iter()
        .map(|p| {
            let pt: Vec<u64> = objects
                .get(p.oid as usize)
                .iter()
                .map(|c| c.to_bits())
                .collect();
            (p.fid, pt, p.score.to_bits())
        })
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn all_matchers_agree_on_fixed_workload() {
    let objects = fixed_objects();
    let functions = fixed_functions();

    let expect = reference_matching(&objects, &functions);
    assert_eq!(
        expect.len(),
        functions.n_alive().min(objects.len()),
        "every function must be matched on this workload"
    );

    let eng = engine(&objects);
    let [sb, bf, chain] = ALGORITHMS.map(|a| run(a, &eng, &functions));

    // Brute Force and Chain see every individual object: exact agreement.
    assert_eq!(
        pair_set(bf.pairs()),
        pair_set(&expect),
        "BruteForce diverged"
    );
    assert_eq!(pair_set(chain.pairs()), pair_set(&expect), "Chain diverged");

    // SB agrees modulo duplicate-point substitution.
    assert_eq!(
        pair_set_by_point(sb.pairs(), &objects),
        pair_set_by_point(&expect, &objects),
        "SB diverged modulo duplicates"
    );

    for (name, m) in [("SB", &sb), ("BruteForce", &bf), ("Chain", &chain)] {
        if let Err(e) = verify_stable(&objects, &functions, m.pairs()) {
            panic!("{name} produced an unstable matching: {e}");
        }
    }

    // The facade's documented ordering contract (`Matching::pairs`):
    // one pair a round is the greedy's own, descending order.
    let one_by_one = eng.request(&functions).multi_pair(false);
    let one_by_one = one_by_one.evaluate().unwrap();
    assert!(
        one_by_one.pairs().windows(2).all(|w| w[0].beats(&w[1])),
        "single-pair SB must emit in descending canonical order"
    );
}

#[test]
fn matchers_are_deterministic_across_runs() {
    let objects = fixed_objects();
    let functions = fixed_functions();
    let eng = engine(&objects);
    for _ in 0..3 {
        assert_eq!(
            pair_set(run(Algorithm::Sb, &eng, &functions).pairs()),
            pair_set(run(Algorithm::Sb, &eng, &functions).pairs()),
        );
        assert_eq!(
            pair_set(run(Algorithm::BruteForce, &eng, &functions).pairs()),
            pair_set(run(Algorithm::Chain, &eng, &functions).pairs()),
            "BruteForce and Chain must agree bit-for-bit on every run"
        );
    }
}
