//! Property tests for seeded evaluation: priming an evaluation from
//! the inventory's [`EvalSeed`] must be **bit-identical** to running it
//! cold, whatever the request — exclusion flips, function weight
//! tweaks, capacities on and off — including across interleaved inventory
//! mutations (which stale the seed: the evaluation must detect that,
//! fall back cold and capture the new inventory's seed).
//!
//! Object points repeat: the generation grid is coarse enough for
//! coordinate-identical objects, and inserts land on the grid too. The
//! comparison is still full pair equality — fid, oid and score bits —
//! because every history keeps the smallest id left at a point on the
//! skyline (both BBS heaps pop subtrees before points at equal keys), so
//! a seeded run reports the very objects a cold one does.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mpq::prelude::*;
use mpq::ta::FunctionSet;

/// One randomized refinement step: toggle up to 3 exclusions, maybe
/// rewrite one function row, maybe mutate the inventory, and evaluate
/// with or without capacities.
type Round = (Vec<u64>, Vec<u8>, u64, u64, bool);

/// 2-d points on a grid, repeats kept; every id is live.
fn points(rows: &[Vec<u16>]) -> (PointSet, Vec<u64>) {
    let mut ps = PointSet::new(2);
    for r in rows {
        ps.push(&[r[0] as f64 / 8.0, r[1] as f64 / 8.0]);
    }
    let live = (0..ps.len() as u64).collect();
    (ps, live)
}

fn check(
    obj_rows: &[Vec<u16>],
    fn_rows: &[Vec<u8>],
    caps: &[u32],
    rounds: &[Round],
) -> Result<(), TestCaseError> {
    let (objects, mut live) = points(obj_rows);
    let mut fn_rows: Vec<Vec<f64>> = fn_rows
        .iter()
        .map(|r| r.iter().map(|&v| v as f64).collect())
        .collect();
    prop_assume!(live.len() > fn_rows.len() + 6);

    let engine = Engine::builder().objects(&objects).build().unwrap();

    let mut excl: BTreeSet<u64> = BTreeSet::new();
    let mut seed: Option<EvalSeed> = None;
    let mut scratch = Scratch::new();

    for (step, (flips, tweak_row, tweak_sel, mut_sel, capacitated)) in rounds.iter().enumerate() {
        // Exclusion flips (≤ 3), bounded so the matching stays total.
        for f in flips {
            let oid = live[(*f as usize) % live.len()];
            if !excl.remove(&oid) && excl.len() + fn_rows.len() + 2 < live.len() {
                excl.insert(oid);
            }
        }
        // Maybe rewrite one function row (a "weight tweak").
        if tweak_sel % 2 == 1 {
            let i = ((tweak_sel / 2) as usize) % fn_rows.len();
            fn_rows[i] = tweak_row.iter().map(|&v| v as f64).collect();
        }
        // Maybe mutate the inventory — this mints a new version,
        // so the carried seed goes stale and must be declined.
        match mut_sel % 3 {
            1 => {
                // On the generation grid: often a copy of a live point.
                let p = [(mut_sel % 9) as f64 / 8.0, (mut_sel / 9 % 9) as f64 / 8.0];
                live.push(engine.insert_object(&p).unwrap());
            }
            2 if live.len() > fn_rows.len() + excl.len() + 8 => {
                let i = ((mut_sel / 3) as usize) % live.len();
                let oid = live.swap_remove(i);
                excl.remove(&oid);
                engine.remove_object(oid).unwrap();
            }
            _ => {}
        }

        let functions = FunctionSet::from_rows(2, &fn_rows);
        // `caps` repeated over the id space: units 0..=3 per object.
        let capacities: Vec<u32> = (0..engine.oid_bound() as usize)
            .map(|oid| caps[oid % caps.len()])
            .collect();
        let request = || {
            let request = engine.request(&functions).exclude(excl.iter().copied());
            if *capacitated {
                request.capacities(&capacities)
            } else {
                request
            }
        };
        let cold = request().evaluate().unwrap();
        let carried_usable = seed
            .as_ref()
            .is_some_and(|s| s.usable_at(engine.inventory_version()));
        let (warm, captured) = request()
            .evaluate_seeded(&mut scratch, seed.as_ref())
            .unwrap();

        prop_assert_eq!(
            cold.len(),
            warm.len(),
            "round {}: seeded pair count diverged",
            step
        );
        for (c, w) in cold.sorted_pairs().iter().zip(warm.sorted_pairs()) {
            prop_assert_eq!(c.fid, w.fid, "round {}: fid", step);
            prop_assert_eq!(c.oid, w.oid, "round {}: oid", step);
            prop_assert_eq!(
                c.score.to_bits(),
                w.score.to_bits(),
                "round {}: seeded score must be bit-identical to cold",
                step
            );
        }
        // One seed per inventory version: a run that resumed captures
        // nothing, a run that could not captures the new version's.
        prop_assert_eq!(
            captured.is_some(),
            !carried_usable,
            "round {}: capture exactly when the carried seed was unusable",
            step
        );
        seed = captured.or(seed);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn seeded_is_bit_identical_to_cold_under_random_deltas(
        obj_rows in proptest::collection::vec(proptest::collection::vec(0u16..=8, 2), 28..72),
        fn_rows in proptest::collection::vec(proptest::collection::vec(1u8..=9, 2), 3..8),
        caps in proptest::collection::vec(0u32..=3, 1..4),
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u64>(), 0..=3),
                proptest::collection::vec(1u8..=9, 2),
                any::<u64>(),
                any::<u64>(),
                any::<bool>(),
            ),
            1..5,
        ),
    ) {
        check(&obj_rows, &fn_rows, &caps, &rounds)?;
    }
}

/// One warm [`Scratch`] carried from engine to engine and back — from
/// an anti-correlated inventory whose skyline has 2 849 members to a
/// 3-d independent one of a few dozen and back twice, each run resumed
/// from its engine's seed, with exclusions, with and without an
/// all-ones capacity vector —
/// leaves nothing behind that changes a matching: every one equals a
/// cold run on a fresh scratch, fid, oid and score bits.
#[test]
fn one_warm_scratch_serves_any_engine() {
    use mpq::datagen::{functions::uniform_weights, Distribution, WorkloadBuilder};
    use mpq::skyline::SkylineMaintainer;

    let inventory = |objects, dim, distribution| {
        let w = WorkloadBuilder::new()
            .objects(objects)
            .functions(0)
            .dim(dim);
        w.distribution(distribution).seed(2009).build().objects
    };
    let anti = inventory(100_000, 4, Distribution::AntiCorrelated);
    let independent = inventory(5_000, 3, Distribution::Independent);
    let engines =
        [&anti, &independent].map(|objects| Engine::builder().objects(objects).build().unwrap());
    assert_eq!(SkylineMaintainer::build(engines[0].tree()).len(), 2_849);
    let functions = [uniform_weights(200, 4, 5), uniform_weights(40, 3, 6)];

    let mut seeds: [Option<EvalSeed>; 2] = [None, None];
    let mut scratch = Scratch::new();
    let visits = [(0, false), (1, true), (0, true), (1, false)];
    for (visit, (e, capacitated)) in visits.into_iter().enumerate() {
        let engine = &engines[e];
        let bound = engine.oid_bound();
        let excluded: Vec<u64> = (0..4)
            .map(|k| (visit as u64 * 7 + k * 131) % bound)
            .collect();
        let ones = vec![1; bound as usize];
        let request = || {
            let request = engine
                .request(&functions[e])
                .exclude(excluded.iter().copied());
            if capacitated {
                request.capacities(&ones)
            } else {
                request
            }
        };
        let cold = request().evaluate().unwrap();
        let (warm, captured) = request()
            .evaluate_seeded(&mut scratch, seeds[e].as_ref())
            .unwrap();
        assert_eq!(captured.is_some(), seeds[e].is_none(), "visit {visit}");
        seeds[e] = captured.or(seeds[e].take());
        let bits = |m: &Matching| -> Vec<(u32, u64, u64)> {
            m.pairs()
                .iter()
                .map(|p| (p.fid, p.oid, p.score.to_bits()))
                .collect()
        };
        assert_eq!(bits(&cold), bits(&warm), "visit {visit}");
        assert_eq!(warm.len(), functions[e].len(), "every function is matched");
    }
}
