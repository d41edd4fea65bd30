//! Threshold computation for the reverse top-1 TA scan.
//!
//! After a scan round, let `lᵢ` be the last (smallest-so-far) coefficient
//! seen in sorted list `i`. Any *unseen* function `f` has `f.αᵢ ≤ lᵢ` in
//! every dimension, so its score on object `o` is bounded by:
//!
//! * the **naive** TA bound `T = Σᵢ lᵢ·oᵢ`, which ignores normalization
//!   and can even exceed `max oᵢ` (e.g. when every `lᵢ` is still large);
//! * the **tight** bound of the paper, `T_tight = Σᵢ βᵢ·oᵢ` where `β`
//!   maximizes the score subject to `Σᵢ βᵢ = 1` and `βᵢ ≤ lᵢ`. The
//!   optimum spends the unit budget greedily on the dimensions where `o`
//!   is largest — a fractional-knapsack argument.
//!
//! If `Σᵢ lᵢ < 1`, no normalized unseen function can exist at all (every
//! function's coefficients sum to 1 but appear at or below `lᵢ` in each
//! list); the greedy then runs out of budget headroom and the resulting
//! partial `Σβᵢ < 1` bound is still a valid upper bound for the (empty)
//! set of unseen functions, so termination is unaffected.

/// Naive TA threshold `Σᵢ lᵢ·oᵢ`.
#[inline]
pub(crate) fn naive_threshold(last_seen: &[f64], object: &[f64]) -> f64 {
    debug_assert_eq!(last_seen.len(), object.len());
    last_seen
        .iter()
        .zip(object.iter())
        .map(|(&l, &o)| l * o)
        .sum()
}

/// The paper's tight threshold: greedy unit-budget allocation over
/// dimensions in descending object-value order, capped per-dimension by
/// `last_seen`.
///
/// `order` must hold the dimension indices sorted by `object` value
/// descending; it is precomputed once per reverse-top-1 call since the
/// object does not change between rounds.
pub(crate) fn tight_threshold(last_seen: &[f64], object: &[f64], order: &[usize]) -> f64 {
    debug_assert_eq!(last_seen.len(), object.len());
    debug_assert_eq!(order.len(), object.len());
    let mut budget = 1.0_f64;
    let mut t = 0.0;
    for &i in order {
        if budget <= 0.0 {
            break;
        }
        let beta = budget.min(last_seen[i]);
        t += beta * object[i];
        budget -= beta;
    }
    t
}

/// Fill `order` with the dimension indices sorted by object value
/// descending (ties by index, for determinism).
pub(crate) fn descending_order(object: &[f64], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..object.len());
    order.sort_unstable_by(|&a, &b| object[b].total_cmp(&object[a]).then(a.cmp(&b)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descending(object: &[f64]) -> Vec<usize> {
        let mut order = vec![9]; // overwritten, not appended to
        descending_order(object, &mut order);
        order
    }

    #[test]
    fn tight_never_exceeds_naive_when_budget_binds() {
        let l = [0.9, 0.8, 0.7];
        let o = [0.5, 0.6, 0.7];
        let order = descending(&o);
        let tight = tight_threshold(&l, &o, &order);
        let naive = naive_threshold(&l, &o);
        assert!(tight <= naive + 1e-15);
        // here budget binds: l sums to 2.4 > 1, so tight is strictly less
        assert!(tight < naive);
    }

    #[test]
    fn tight_spends_budget_on_largest_object_dims() {
        // object largest in dim 2; l caps dim 2 at 0.6, remaining 0.4
        // goes to dim 0 (next largest object value)
        let l = [1.0, 1.0, 0.6];
        let o = [0.5, 0.2, 0.9];
        let order = descending(&o);
        let t = tight_threshold(&l, &o, &order);
        let expect = 0.6 * 0.9 + 0.4 * 0.5;
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    fn tight_equals_best_possible_function_value() {
        // with no list progress (l = 1 everywhere), the best conceivable
        // normalized function puts all weight on the largest coordinate
        let l = [1.0, 1.0];
        let o = [0.3, 0.8];
        let order = descending(&o);
        assert!((tight_threshold(&l, &o, &order) - 0.8).abs() < 1e-15);
    }

    #[test]
    fn exhausted_lists_give_partial_budget_bound() {
        // l sums to 0.5 < 1: no unseen normalized function can exist;
        // the bound degrades gracefully to sub-unit budget
        let l = [0.25, 0.25];
        let o = [1.0, 1.0];
        let order = descending(&o);
        assert!((tight_threshold(&l, &o, &order) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn descending_order_is_stable_on_ties() {
        assert_eq!(descending(&[0.5, 0.9, 0.5]), vec![1, 0, 2]);
    }

    #[test]
    fn upper_bound_property_random() {
        // brute-force check: for random l and o, every feasible beta
        // (β ≤ l, Σβ = 1) scores no more than the tight threshold
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let d = 3;
            let l: Vec<f64> = (0..d).map(|_| next()).collect();
            let o: Vec<f64> = (0..d).map(|_| next()).collect();
            if l.iter().sum::<f64>() < 1.0 {
                continue; // no feasible beta
            }
            let order = descending(&o);
            let t = tight_threshold(&l, &o, &order);
            // sample random feasible betas by scaling a random direction
            for _ in 0..20 {
                let mut beta: Vec<f64> = (0..d).map(|i| next() * l[i]).collect();
                let s: f64 = beta.iter().sum();
                if s <= 0.0 {
                    continue;
                }
                // scale toward sum 1 while respecting caps; if scaling up
                // violates a cap, clamp and skip (not feasible that way)
                let scale = 1.0 / s;
                for b in beta.iter_mut() {
                    *b *= scale;
                }
                if beta.iter().zip(l.iter()).any(|(&b, &cap)| b > cap + 1e-12) {
                    continue;
                }
                let score: f64 = beta.iter().zip(o.iter()).map(|(&b, &x)| b * x).sum();
                assert!(
                    score <= t + 1e-9,
                    "feasible beta scored {score} above tight threshold {t}"
                );
            }
        }
    }
}
