//! Stable matching for **arbitrary monotone** preference functions.
//!
//! §II of the paper: "*F may contain any monotone function; for ease of
//! presentation, however, we focus on linear functions*". This module
//! implements the general case. The skyline observation holds for any
//! monotone (non-decreasing per attribute) scoring function — the top-1
//! object of every such function is a skyline object — so the SB loop
//! carries over verbatim: [`Engine::evaluate_monotone`] is the one SB
//! run of [`crate::sb`] over the engine's pins, at any shard count, with
//! both rank-list caches. What changes is the function side: the sorted
//! coefficient lists of the TA (§IV-A) exist only for linear functions,
//! so a skyline object's best functions are found by a scan of `F` —
//! exactly the fallback the paper's TA replaces. A scan certifies the
//! whole of what it ranks, so it fills the same top-`M` lists the TA
//! does.
//!
//! Functions are supplied as implementations of [`MonotoneFunction`];
//! ready-made forms cover the common non-linear preference shapes:
//! weighted L^p norms ([`WeightedPower`]), minimum/fairness scoring
//! ([`MinAttribute`]), and Cobb–Douglas / weighted geometric means
//! ([`CobbDouglas`]).

use std::time::Instant;

use mpq_rtree::PointSet;
use mpq_ta::TaStats;

use crate::capacity::Mask;
use crate::engine::Engine;
use crate::error::MpqError;
use crate::matching::{Matching, Pair};
use crate::sb::{insert_ranked, FunctionSide, SbRun, FBEST_RANKS};
use crate::scratch::Scratch;

/// A preference function that is monotone non-decreasing in every
/// attribute.
///
/// # Contract
/// If `a[i] >= b[i]` for every `i`, then `eval(a) >= eval(b)`. The
/// skyline-based matcher silently relies on this; a non-monotone
/// function yields an arbitrary (non-stable) result.
pub trait MonotoneFunction {
    /// Score of an object (larger is better).
    fn eval(&self, point: &[f64]) -> f64;
}

impl<F: Fn(&[f64]) -> f64> MonotoneFunction for F {
    fn eval(&self, point: &[f64]) -> f64 {
        self(point)
    }
}

/// Weighted power mean score `Σᵢ wᵢ·pᵢ^k` (for `k > 0`); `k = 1` is the
/// paper's linear function, `k > 1` emphasizes strong attributes,
/// `0 < k < 1` rewards balance.
#[derive(Debug, Clone)]
pub struct WeightedPower {
    /// Non-negative attribute weights.
    pub weights: Vec<f64>,
    /// Positive exponent.
    pub k: f64,
}

impl MonotoneFunction for WeightedPower {
    fn eval(&self, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.weights.len());
        self.weights
            .iter()
            .zip(point.iter())
            .map(|(&w, &p)| w * p.powf(self.k))
            .sum()
    }
}

/// Fairness scoring: the minimum attribute value (maximin preference).
#[derive(Debug, Clone, Copy)]
pub struct MinAttribute;

impl MonotoneFunction for MinAttribute {
    fn eval(&self, point: &[f64]) -> f64 {
        point.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// Cobb–Douglas utility `Πᵢ (pᵢ + ε)^{wᵢ}` with non-negative exponents
/// (a weighted geometric mean; `ε` keeps zero attributes from
/// annihilating the product).
#[derive(Debug, Clone)]
pub struct CobbDouglas {
    /// Non-negative exponents.
    pub exponents: Vec<f64>,
    /// Smoothing added to every attribute (default 1e-3).
    pub epsilon: f64,
}

impl MonotoneFunction for CobbDouglas {
    fn eval(&self, point: &[f64]) -> f64 {
        debug_assert_eq!(point.len(), self.exponents.len());
        self.exponents
            .iter()
            .zip(point.iter())
            .map(|(&e, &p)| (p + self.epsilon).powf(e))
            .product()
    }
}

/// The function side of a monotone request: the functions by id, each
/// skyline object's best found by a scan of the alive ones.
struct Scanned<'f> {
    functions: &'f [&'f dyn MonotoneFunction],
    alive: Vec<bool>,
    n_alive: usize,
}

impl FunctionSide for Scanned<'_> {
    fn len(&self) -> usize {
        self.functions.len()
    }

    fn n_alive(&self) -> usize {
        self.n_alive
    }

    fn is_alive(&self, fid: u32) -> bool {
        self.alive[fid as usize]
    }

    fn remove(&mut self, fid: u32) {
        self.alive[fid as usize] = false;
        self.n_alive -= 1;
    }

    fn score(&self, fid: u32, point: &[f64]) -> f64 {
        self.functions[fid as usize].eval(point)
    }

    fn best_functions(&mut self, point: &[f64], list: &mut Vec<(u32, f64)>) {
        list.clear();
        for (fid, f) in self.functions.iter().enumerate() {
            if self.alive[fid] {
                insert_ranked(list, FBEST_RANKS, fid as u32, f.eval(point));
            }
        }
    }

    fn ta_stats(&self) -> Option<TaStats> {
        None
    }
}

impl Engine {
    /// The stable matching between the inventory and monotone
    /// `functions` (function ids are the slice indices): the one SB run
    /// over the forest of the engine's pins — any shard count, built or
    /// reopened — with each skyline object's best functions found by a
    /// scan (see the [module docs](crate::monotone)).
    ///
    /// Every mutually-best pair of a round belongs to the greedy
    /// matching whatever the score function (§IV-C), so all of them are
    /// reported; [`Matching::sorted_pairs`] is the greedy's own order,
    /// that of [`reference_monotone_matching`]. An empty slice is
    /// refused with [`MpqError::EmptyFunctions`].
    pub fn evaluate_monotone(
        &self,
        functions: &[&dyn MonotoneFunction],
    ) -> Result<Matching, MpqError> {
        if functions.is_empty() {
            return Err(MpqError::EmptyFunctions);
        }
        let start = Instant::now();
        let side = Scanned {
            functions,
            alive: vec![true; functions.len()],
            n_alive: functions.len(),
        };
        let (pins, scratch) = (self.pin().0, Scratch::new());
        let mut run = SbRun::new(pins, scratch, side, Mask::default(), true, None);
        let pairs = run.drain();
        let mut metrics = run.metrics();
        metrics.elapsed = start.elapsed();
        Ok(Matching::new(pairs, metrics))
    }
}

/// Exact reference for monotone matching (greedy over all pairs).
pub fn reference_monotone_matching(
    objects: &PointSet,
    functions: &[&dyn MonotoneFunction],
) -> Vec<Pair> {
    let mut all: Vec<Pair> = Vec::with_capacity(objects.len() * functions.len());
    for (fid, f) in functions.iter().enumerate() {
        for (i, p) in objects.iter() {
            all.push(Pair {
                fid: fid as u32,
                oid: i as u64,
                score: f.eval(p),
            });
        }
    }
    all.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.fid.cmp(&b.fid))
            .then_with(|| a.oid.cmp(&b.oid))
    });
    let budget = functions.len().min(objects.len());
    let mut out = Vec::with_capacity(budget);
    let mut f_taken = vec![false; functions.len()];
    let mut o_taken = vec![false; objects.len()];
    for p in all {
        if out.len() == budget {
            break;
        }
        if f_taken[p.fid as usize] || o_taken[p.oid as usize] {
            continue;
        }
        f_taken[p.fid as usize] = true;
        o_taken[p.oid as usize] = true;
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::IndexConfig;
    use mpq_datagen::{Distribution, WorkloadBuilder};

    /// Small pages, so test-sized inventories span several levels.
    const INDEX: IndexConfig = IndexConfig {
        page_size: 256,
        buffer_fraction: 0.1,
        min_buffer_pages: 4,
    };

    fn engine(objects: &PointSet, shards: usize) -> Engine {
        let builder = Engine::builder().index(INDEX).objects(objects);
        builder.shards(shards).build().unwrap()
    }

    /// `(fid, oid, score bits)`: equal to the bit, or not at all.
    fn exact(pairs: &[Pair]) -> Vec<(u32, u64, u64)> {
        let bits = |p: &Pair| (p.fid, p.oid, p.score.to_bits());
        pairs.iter().map(bits).collect()
    }

    /// 3-d inventories, independent and anti-correlated.
    fn inventories(n: usize) -> [PointSet; 2] {
        [
            (Distribution::Independent, 41),
            (Distribution::AntiCorrelated, 42),
        ]
        .map(|(d, seed)| {
            let w = WorkloadBuilder::new().objects(n).functions(1).dim(3);
            w.distribution(d).seed(seed).build().objects
        })
    }

    /// Every form, in several shapes each, and closures: multi-pair
    /// rounds, and `sorted_pairs()` the reference's greedy sequence to
    /// the bit.
    #[test]
    fn mixed_monotone_functions_match_reference() {
        let mut fns: Vec<Box<dyn MonotoneFunction>> = Vec::new();
        for i in 1..=12 {
            let w = |j: usize| ((i * 7 + j * 3) % 10 + 1) as f64 / 10.0;
            let k = [0.5, 1.0, 2.0, 3.0][i % 4];
            fns.push(Box::new(WeightedPower {
                weights: vec![w(0), w(1), w(2)],
                k,
            }));
            fns.push(Box::new(CobbDouglas {
                exponents: vec![w(2), w(0), w(1)],
                epsilon: 1e-3,
            }));
            let c = w(1);
            fns.push(Box::new(move |p: &[f64]| c * p[0] + p[1].min(p[2])));
        }
        fns.push(Box::new(MinAttribute));
        fns.push(Box::new(|p: &[f64]| 0.9 * p[0] + 0.1 * p[2].sqrt()));
        let fns: Vec<&dyn MonotoneFunction> = fns.iter().map(|f| &**f).collect();
        for objects in inventories(800) {
            let expect = reference_monotone_matching(&objects, &fns);
            assert_eq!(expect.len(), fns.len());
            for k in [1, 4] {
                let got = engine(&objects, k).evaluate_monotone(&fns).unwrap();
                assert_eq!(exact(&got.sorted_pairs()), exact(&expect), "K={k}");
                assert!(got.metrics().loops < fns.len() as u64, "multi-pair rounds");
            }
        }
    }

    /// Linear functions as closures, over the normalized weights so the
    /// scores are the same bits: the same run as the linear request, in
    /// pairs, order and counts.
    #[test]
    fn linear_special_case_agrees_with_linear_matcher() {
        let fs = WorkloadBuilder::new().objects(1).functions(40).dim(3);
        let fs = fs.seed(43).build().functions;
        let closures: Vec<_> = (fs.iter_alive())
            .map(|(_, w)| {
                let w = w.to_vec();
                move |p: &[f64]| w[0] * p[0] + w[1] * p[1] + w[2] * p[2]
            })
            .collect();
        let fns: Vec<&dyn MonotoneFunction> = (closures.iter())
            .map(|c| c as &dyn MonotoneFunction)
            .collect();
        for objects in inventories(800) {
            for k in [1, 4] {
                let engine = engine(&objects, k);
                let linear = engine.request(&fs).evaluate().unwrap();
                let general = engine.evaluate_monotone(&fns).unwrap();
                assert_eq!(exact(general.pairs()), exact(linear.pairs()), "K={k}");
                let (got, want) = (general.metrics(), linear.metrics());
                assert_eq!(got.loops, want.loops);
                assert_eq!(got.reverse_top1_calls, want.reverse_top1_calls);
            }
        }
    }

    #[test]
    fn more_monotone_functions_than_objects() {
        let objects = &inventories(4)[0];
        let f2 = WeightedPower {
            weights: vec![1.0, 0.5, 0.5],
            k: 1.0,
        };
        let f3 = WeightedPower {
            weights: vec![0.5, 1.0, 0.5],
            k: 1.0,
        };
        let f4 = CobbDouglas {
            exponents: vec![1.0, 1.0, 1.0],
            epsilon: 1e-3,
        };
        let fns: Vec<&dyn MonotoneFunction> =
            vec![&MinAttribute, &f2, &f3, &f4, &MinAttribute, &MinAttribute];
        let expect = reference_monotone_matching(objects, &fns);
        for k in [1, 4] {
            let got = engine(objects, k).evaluate_monotone(&fns).unwrap();
            assert_eq!(got.len(), 4, "objects are the scarce side");
            assert_eq!(exact(&got.sorted_pairs()), exact(&expect));
        }
    }

    #[test]
    fn min_attribute_prefers_balanced_objects() {
        let mut ps = PointSet::new(2);
        ps.push(&[0.95, 0.1]); // extreme
        ps.push(&[0.6, 0.55]); // balanced
        ps.push(&[0.1, 0.95]); // extreme
        for k in [1, 4] {
            let got = engine(&ps, k).evaluate_monotone(&[&MinAttribute]).unwrap();
            assert_eq!(got.pairs()[0].oid, 1, "maximin picks the balanced object");
        }
    }

    /// The run pins whatever the engine holds: an engine reopened from
    /// disk, on one tree or four, matches as the one it was built as.
    #[test]
    fn a_reopened_engine_matches_alike() {
        let objects = &inventories(600)[1];
        let power = WeightedPower {
            weights: vec![0.2, 0.5, 0.3],
            k: 2.0,
        };
        let fns: Vec<&dyn MonotoneFunction> = vec![&MinAttribute, &power, &MinAttribute];
        for k in [1, 4] {
            let name = format!("mpq-monotone-reopen-{}-{k}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            let _ = std::fs::remove_dir_all(&dir);
            let built = Engine::builder().index(INDEX).objects(objects).shards(k);
            let built = built.data_dir(&dir).build().unwrap();
            let want = built.evaluate_monotone(&fns).unwrap();
            drop(built);
            let reopened = Engine::open_with(&dir, INDEX).unwrap();
            assert_eq!(reopened.shard_count(), k);
            let got = reopened.evaluate_monotone(&fns).unwrap();
            assert_eq!(exact(got.pairs()), exact(want.pairs()), "K={k}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn an_empty_request_is_refused() {
        let engine = engine(&inventories(10)[0], 1);
        let err = engine.evaluate_monotone(&[]).unwrap_err();
        assert_eq!(err, MpqError::EmptyFunctions);
    }

    /// Each evaluation pins the inventory as it is: an inserted object
    /// that dominates everything is taken first, and once removed it is
    /// no one's — on one tree and four.
    #[test]
    fn each_evaluation_matches_the_inventory_it_pins() {
        let objects = &inventories(300)[0];
        let fns: Vec<&dyn MonotoneFunction> = vec![&MinAttribute, &MinAttribute];
        for k in [1, 4] {
            let engine = engine(objects, k);
            let before = engine.evaluate_monotone(&fns).unwrap();
            let best = engine.insert_object(&[1.0, 1.0, 1.0]).unwrap();
            let with = engine.evaluate_monotone(&fns).unwrap();
            assert_eq!((with.pairs()[0].fid, with.pairs()[0].oid), (0, best));
            assert_eq!(with.pairs()[1].oid, before.pairs()[0].oid, "K={k}");
            engine.remove_object(best).unwrap();
            let after = engine.evaluate_monotone(&fns).unwrap();
            assert_eq!(exact(after.pairs()), exact(before.pairs()), "K={k}");
            let metrics = after.metrics();
            assert!(metrics.skyline.is_some() && metrics.ta.is_none());
        }
    }

    /// The pairs taken one at a time, in the greedy's order: a round
    /// reports several, and `sorted_pairs()` puts them back in the
    /// sequence the reference takes them, score bits included.
    #[test]
    fn single_pair_mode_is_greedy_sequence() {
        let ps = WorkloadBuilder::new().objects(150).functions(1).dim(3);
        let ps = ps.seed(53).build().objects;
        let f1 = WeightedPower {
            weights: vec![0.4, 0.4, 0.2],
            k: 3.0,
        };
        let fns: Vec<&dyn MonotoneFunction> = vec![&f1, &MinAttribute];
        let expect = reference_monotone_matching(&ps, &fns);
        assert_eq!(expect.len(), 2);
        for k in [1, 4] {
            let got = engine(&ps, k).evaluate_monotone(&fns).unwrap();
            assert_eq!(exact(&got.sorted_pairs()), exact(&expect), "K={k}");
        }
    }
}
