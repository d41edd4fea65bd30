//! Distribution primitives built on `rand`'s uniform source.
//!
//! The approved dependency set does not include `rand_distr`, so the few
//! distributions the generators need — Gaussian (Box–Muller), log-normal,
//! exponential, and weighted discrete choice — are implemented here
//! directly.

use rand::Rng;

/// Standard normal variate via the Box–Muller transform.
pub(crate) fn std_normal(rng: &mut impl Rng) -> f64 {
    // avoid ln(0)
    let u1: f64 = loop {
        let u = rng.gen::<f64>();
        if u > 1e-300 {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Normal variate with the given mean and standard deviation.
#[inline]
pub fn normal(rng: &mut impl Rng, mean: f64, sd: f64) -> f64 {
    mean + sd * std_normal(rng)
}

/// Log-normal variate: `exp(N(mu, sigma))`.
#[inline]
pub(crate) fn log_normal(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Exponential variate with rate 1.
#[inline]
pub(crate) fn exponential(rng: &mut impl Rng) -> f64 {
    let u: f64 = loop {
        let u = rng.gen::<f64>();
        if u > 1e-300 {
            break u;
        }
    };
    -u.ln()
}

/// Index drawn from the (unnormalized, non-negative) `weights`.
///
/// # Panics
/// Panics if `weights` is empty or sums to zero.
pub(crate) fn discrete(rng: &mut impl Rng, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "discrete distribution needs weights");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "discrete weights must not sum to zero");
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// Uniform sample from the standard simplex (`Σxᵢ = 1, xᵢ ≥ 0`) — the
/// Dirichlet(1, …, 1) distribution, via normalized exponentials.
pub(crate) fn simplex_uniform(rng: &mut impl Rng, dim: usize, out: &mut Vec<f64>) {
    out.clear();
    let mut sum = 0.0;
    for _ in 0..dim {
        let e = exponential(rng);
        out.push(e);
        sum += e;
    }
    for x in out.iter_mut() {
        *x /= sum;
    }
}

/// Clamp to the unit interval.
#[inline]
pub(crate) fn unit_clamp(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn std_normal_moments() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| std_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn exponential_mean_is_one() {
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 50_000;
        let mean = (0..n).map(|_| exponential(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn discrete_respects_weights() {
        let mut rng = SmallRng::seed_from_u64(3);
        let w = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[discrete(&mut rng, &w)] += 1;
        }
        let f1 = counts[1] as f64 / 30_000.0;
        let f2 = counts[2] as f64 / 30_000.0;
        assert!((f1 - 0.3).abs() < 0.02, "P(1) = {f1}");
        assert!((f2 - 0.6).abs() < 0.02, "P(2) = {f2}");
    }

    #[test]
    fn simplex_sums_to_one() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut buf = Vec::new();
        for _ in 0..100 {
            simplex_uniform(&mut rng, 5, &mut buf);
            assert!((buf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(buf.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn log_normal_is_positive_and_skewed() {
        let mut rng = SmallRng::seed_from_u64(5);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| log_normal(&mut rng, 0.0, 1.0))
            .collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[xs.len() / 2];
        assert!(mean > median, "log-normal mean must exceed median");
    }
}
