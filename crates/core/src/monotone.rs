//! Stable matching for **arbitrary monotone** preference functions.
//!
//! §II of the paper: "*F may contain any monotone function; for ease of
//! presentation, however, we focus on linear functions*". This module
//! implements the general case. The skyline observation holds for any
//! monotone (non-decreasing per attribute) scoring function — the top-1
//! object of every such function is a skyline object — so the SB loop
//! carries over verbatim. What changes is the best-pair module: the
//! sorted coefficient lists of the TA (§IV-A) exist only for linear
//! functions, so the best function for a skyline object is found by a
//! scan of `F`, exactly the fallback the paper's TA replaces.
//!
//! Functions are supplied as implementations of [`MonotoneFunction`];
//! ready-made forms cover the common non-linear preference shapes:
//! weighted L^p norms ([`WeightedPower`]), minimum/fairness scoring
//! ([`MinAttribute`]), and Cobb–Douglas / weighted geometric means
//! ([`CobbDouglas`]).

use std::collections::HashMap;
use std::time::Instant;

use mpq_rtree::PointSet;
use mpq_skyline::SkylineMaintainer;

use crate::matching::{IndexConfig, Matching, Pair, RunMetrics};

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

/// Skyline-based stable matcher for arbitrary monotone functions.
///
/// Same loop as [`Algorithm::Sb`](crate::Algorithm::Sb) with a
/// scan-based best-pair module (no TA lists exist for non-linear functions). Outputs follow
/// the canonical `(score desc, fid asc, oid asc)` tie-break.
#[derive(Debug, Clone, Default)]
pub struct MonotoneSkylineMatcher {
    /// Object R-tree construction/buffering parameters.
    pub index: IndexConfig,
    /// Report all mutually-best pairs per loop (§IV-C).
    pub multi_pair: bool,
}

impl MonotoneSkylineMatcher {
    /// Compute the stable matching between `objects` and the monotone
    /// `functions` (function ids are the slice indices).
    pub fn run(&self, objects: &PointSet, functions: &[&dyn MonotoneFunction]) -> Matching {
        let tree = self.index.build_tree(objects);
        let start = Instant::now();
        let mut metrics = RunMetrics::default();
        let mut maintainer = SkylineMaintainer::build(&tree);

        let mut alive: Vec<bool> = vec![true; functions.len()];
        let mut n_alive = functions.len();
        let budget = n_alive.min(objects.len());
        let mut pairs: Vec<Pair> = Vec::with_capacity(budget);
        // oid -> (fid, score): valid until the function is assigned
        let mut fbest: HashMap<u64, (u32, f64)> = HashMap::new();

        while n_alive > 0 && !maintainer.is_empty() {
            metrics.loops += 1;

            // best alive function per skyline object (scan; no TA for
            // general monotone functions)
            for e in maintainer.iter() {
                let stale = fbest
                    .get(&e.oid)
                    .is_none_or(|(fid, _)| !alive[*fid as usize]);
                if stale {
                    metrics.reverse_top1_calls += 1;
                    let mut best: Option<(u32, f64)> = None;
                    for (fid, f) in functions.iter().enumerate() {
                        if !alive[fid] {
                            continue;
                        }
                        let s = f.eval(e.point);
                        if best.is_none_or(|(_, bs)| s > bs) {
                            best = Some((fid as u32, s));
                        }
                    }
                    fbest.insert(e.oid, best.expect("n_alive > 0"));
                }
            }

            // best skyline object per candidate function
            let mut obest: HashMap<u32, (u64, f64)> = HashMap::new();
            for e in maintainer.iter() {
                let (fid, _) = fbest[&e.oid];
                if obest.contains_key(&fid) {
                    continue;
                }
                let f = functions[fid as usize];
                let mut best: Option<(u64, f64)> = None;
                for o in maintainer.iter() {
                    let s = f.eval(o.point);
                    let better = match best {
                        None => true,
                        Some((bo, bs)) => s > bs || (s == bs && o.oid < bo),
                    };
                    if better {
                        best = Some((o.oid, s));
                    }
                }
                obest.insert(fid, best.expect("skyline non-empty"));
            }

            // mutually-best pairs (Property 1)
            let mut loop_pairs: Vec<Pair> = Vec::new();
            for (&fid, &(oid, score)) in &obest {
                if fbest[&oid].0 == fid {
                    loop_pairs.push(Pair { fid, oid, score });
                }
            }
            loop_pairs.sort_unstable();
            if !self.multi_pair {
                loop_pairs.truncate(1);
            }
            assert!(!loop_pairs.is_empty(), "global best pair is mutually best");

            let removed_oids: Vec<u64> = loop_pairs.iter().map(|p| p.oid).collect();
            for p in &loop_pairs {
                alive[p.fid as usize] = false;
                n_alive -= 1;
                fbest.remove(&p.oid);
            }
            maintainer.remove(&removed_oids, &tree);
            pairs.extend(loop_pairs);
        }

        metrics.elapsed = start.elapsed();
        metrics.io = tree.io_stats();
        metrics.skyline = Some(maintainer.stats());
        Matching::new(pairs, metrics)
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
    use mpq_datagen::WorkloadBuilder;

    fn tiny_index() -> IndexConfig {
        IndexConfig {
            page_size: 256,
            buffer_fraction: 0.1,
            min_buffer_pages: 4,
        }
    }

    fn matcher() -> MonotoneSkylineMatcher {
        MonotoneSkylineMatcher {
            index: tiny_index(),
            multi_pair: true,
        }
    }

    fn sorted(pairs: &[Pair]) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = pairs.iter().map(|p| (p.fid, p.oid)).collect();
        v.sort_unstable();
        v
    }

    fn objects(n: usize, dim: usize, seed: u64) -> PointSet {
        WorkloadBuilder::new()
            .objects(n)
            .functions(1)
            .dim(dim)
            .seed(seed)
            .build()
            .objects
    }

    #[test]
    fn mixed_monotone_functions_match_reference() {
        let ps = objects(300, 3, 41);
        let f1 = WeightedPower {
            weights: vec![0.5, 0.3, 0.2],
            k: 2.0,
        };
        let f2 = WeightedPower {
            weights: vec![0.2, 0.2, 0.6],
            k: 0.5,
        };
        let f3 = MinAttribute;
        let f4 = CobbDouglas {
            exponents: vec![0.5, 0.25, 0.25],
            epsilon: 1e-3,
        };
        let f5 = |p: &[f64]| 0.9 * p[0] + 0.1 * p[2].sqrt();
        let fns: Vec<&dyn MonotoneFunction> = vec![&f1, &f2, &f3, &f4, &f5];

        let got = matcher().run(&ps, &fns);
        let expect = reference_monotone_matching(&ps, &fns);
        assert_eq!(sorted(got.pairs()), sorted(&expect));
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn linear_special_case_agrees_with_linear_matcher() {
        use mpq_ta::FunctionSet;
        let ps = objects(200, 2, 43);
        let rows = [vec![0.7, 0.3], vec![0.4, 0.6], vec![0.55, 0.45]];
        let fs = FunctionSet::from_rows(2, rows.as_ref());
        let engine = crate::Engine::builder()
            .index(tiny_index())
            .objects(&ps)
            .build()
            .unwrap();
        let linear = engine.request(&fs).evaluate().unwrap();

        // the same functions as monotone closures, using the normalized
        // weights so scores are bitwise identical
        let w0 = fs.weights(0).to_vec();
        let w1 = fs.weights(1).to_vec();
        let w2 = fs.weights(2).to_vec();
        let c0 = move |p: &[f64]| w0[0] * p[0] + w0[1] * p[1];
        let c1 = move |p: &[f64]| w1[0] * p[0] + w1[1] * p[1];
        let c2 = move |p: &[f64]| w2[0] * p[0] + w2[1] * p[1];
        let fns: Vec<&dyn MonotoneFunction> = vec![&c0, &c1, &c2];
        let general = matcher().run(&ps, &fns);
        assert_eq!(sorted(general.pairs()), sorted(linear.pairs()).clone());
    }

    #[test]
    fn min_attribute_prefers_balanced_objects() {
        let mut ps = PointSet::new(2);
        ps.push(&[0.95, 0.1]); // extreme
        ps.push(&[0.6, 0.55]); // balanced
        ps.push(&[0.1, 0.95]); // extreme
        let f = MinAttribute;
        let fns: Vec<&dyn MonotoneFunction> = vec![&f];
        let got = matcher().run(&ps, &fns);
        assert_eq!(got.pairs()[0].oid, 1, "maximin picks the balanced object");
    }

    #[test]
    fn more_monotone_functions_than_objects() {
        let ps = objects(4, 2, 47);
        let f1 = MinAttribute;
        let f2 = WeightedPower {
            weights: vec![1.0, 0.0],
            k: 1.0,
        };
        let f3 = WeightedPower {
            weights: vec![0.0, 1.0],
            k: 1.0,
        };
        let f4 = CobbDouglas {
            exponents: vec![1.0, 1.0],
            epsilon: 1e-3,
        };
        let f5 = MinAttribute;
        let f6 = MinAttribute;
        let fns: Vec<&dyn MonotoneFunction> = vec![&f1, &f2, &f3, &f4, &f5, &f6];
        let got = matcher().run(&ps, &fns);
        assert_eq!(got.len(), 4, "objects are the scarce side");
        let expect = reference_monotone_matching(&ps, &fns);
        assert_eq!(sorted(got.pairs()), sorted(&expect));
    }

    #[test]
    fn single_pair_mode_is_greedy_sequence() {
        let ps = objects(150, 3, 53);
        let f1 = WeightedPower {
            weights: vec![0.4, 0.4, 0.2],
            k: 3.0,
        };
        let f2 = MinAttribute;
        let fns: Vec<&dyn MonotoneFunction> = vec![&f1, &f2];
        let got = MonotoneSkylineMatcher {
            index: tiny_index(),
            multi_pair: false,
        }
        .run(&ps, &fns);
        let expect = reference_monotone_matching(&ps, &fns);
        assert_eq!(got.pairs(), &expect[..]);
    }
}
