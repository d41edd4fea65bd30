//! Property tests for the TA index: `top_m_for` must return the exact
//! prefix of the full `(score desc, fid asc)` ranking, under arbitrary
//! weights (including degenerate equal-weight populations, which create
//! bitwise score ties) and interleaved removals.

use proptest::prelude::*;

use mpq_ta::{FunctionSet, ReverseTopOne, ThresholdMode};

fn full_ranking(fs: &FunctionSet, point: &[f64]) -> Vec<(u32, f64)> {
    let mut all: Vec<(u32, f64)> = fs
        .iter_alive()
        .map(|(fid, _)| (fid, fs.score(fid, point)))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all
}

/// `top_m_for` into a fresh row of `m`, as a list.
fn top_m(
    rt1: &mut ReverseTopOne,
    fs: &FunctionSet,
    point: &[f64],
    m: usize,
    mode: ThresholdMode,
) -> Vec<(u32, f64)> {
    let (mut fids, mut scores) = (vec![u32::MAX; m], vec![-1.0; m]);
    let found = rt1.top_m_for(fs, point, mode, &mut fids, &mut scores);
    fids.into_iter().zip(scores).take(found).collect()
}

fn functions_strategy(dim: usize) -> impl Strategy<Value = FunctionSet> {
    proptest::collection::vec(proptest::collection::vec(1u32..=1000, dim), 1..60).prop_map(
        move |rows| {
            let rows: Vec<Vec<f64>> = rows
                .iter()
                .map(|r| r.iter().map(|&v| v as f64).collect())
                .collect();
            FunctionSet::from_rows(dim, &rows)
        },
    )
}

fn point_strategy(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u32..=100, dim)
        .prop_map(|v| v.iter().map(|&x| x as f64 / 100.0).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn top_m_is_exact_ranking_prefix(
        fs in functions_strategy(3),
        point in point_strategy(3),
        m in 1usize..12,
    ) {
        let mut rt1 = ReverseTopOne::build(&fs);
        for mode in [ThresholdMode::Tight, ThresholdMode::Naive] {
            let got = top_m(&mut rt1, &fs, &point, m, mode);
            let mut expect = full_ranking(&fs, &point);
            expect.truncate(m);
            prop_assert_eq!(&got, &expect, "mode {:?}", mode);
        }
    }

    #[test]
    fn identical_functions_tie_break_by_id(
        weights in proptest::collection::vec(1u32..=9, 2),
        copies in 2usize..20,
        point in point_strategy(2),
    ) {
        let row: Vec<f64> = weights.iter().map(|&v| v as f64).collect();
        let rows: Vec<Vec<f64>> = (0..copies).map(|_| row.clone()).collect();
        let fs = FunctionSet::from_rows(2, &rows);
        let mut rt1 = ReverseTopOne::build(&fs);
        let got = top_m(&mut rt1, &fs, &point, copies, ThresholdMode::Tight);
        let ids: Vec<u32> = got.iter().map(|&(f, _)| f).collect();
        let expect: Vec<u32> = (0..copies as u32).collect();
        prop_assert_eq!(ids, expect, "identical functions must rank by id");
    }

    #[test]
    fn removals_never_desynchronize_the_index(
        fs in functions_strategy(2),
        point in point_strategy(2),
        removal_seed in any::<u64>(),
    ) {
        let mut fs = fs;
        let mut rt1 = ReverseTopOne::build(&fs);
        let mut state = removal_seed | 1;
        while fs.n_alive() > 0 {
            let got = rt1.best_for(&fs, &point);
            let expect = full_ranking(&fs, &point).first().copied();
            prop_assert_eq!(got, expect);
            // remove a pseudo-random alive function
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let alive: Vec<u32> = fs.iter_alive().map(|(f, _)| f).collect();
            fs.remove(alive[(state % alive.len() as u64) as usize]);
        }
        prop_assert_eq!(rt1.best_for(&fs, &point), None);
    }
}
