//! Dominance tests under the larger-is-better convention.
//!
//! Object `a` *dominates* `b` iff `a[i] >= b[i]` in every dimension and
//! `a != b`. The paper's skyline definition excludes objects for which an
//! "equal or better" object exists, so duplicate points keep exactly one
//! representative in the skyline; pruning therefore uses the weak test
//! `dominates_or_equal`.

/// `a[i] >= b[i]` for every `i`, with strict inequality somewhere.
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for i in 0..a.len() {
        if a[i] < b[i] {
            return false;
        }
        if a[i] > b[i] {
            strict = true;
        }
    }
    strict
}

/// `a[i] >= b[i]` for every `i` (equality allowed everywhere). This is
/// the pruning test: a skyline point prunes an R-tree entry when it
/// dominates-or-equals the entry's *upper corner*, because every point
/// inside the entry is then equal-or-worse in all dimensions.
///
/// Branch-free: the conjunction of all comparisons, with no early exit —
/// at the dimensionalities skylines are computed in, a mispredicted
/// branch costs more than the comparisons it would skip.
#[inline]
pub(crate) fn dominates_or_equal(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    (a.iter().zip(b.iter())).fold(true, |all, (&x, &y)| all & (x >= y))
}

/// The first row of `points` — rows of `x.len()` coordinates, back to
/// back, one `live` flag each — that is live and
/// [dominates-or-equals](dominates_or_equal) `x`, with the number of
/// rows tested (the live ones up to and including the hit). This is the
/// scan under every dominance question the maintainer asks; small
/// dimensionalities get a loop of their own with the row length a
/// constant.
pub(crate) fn first_dominator(
    points: &[f64],
    x: &[f64],
    live: impl Iterator<Item = bool>,
) -> (Option<usize>, u64) {
    match x.len() {
        2 => scan(points, 2, x, live),
        3 => scan(points, 3, x, live),
        4 => scan(points, 4, x, live),
        5 => scan(points, 5, x, live),
        6 => scan(points, 6, x, live),
        dim => scan(points, dim, x, live),
    }
}

/// [`first_dominator`]'s loop; inlined into each arm so that `dim` is a
/// constant there.
#[inline(always)]
fn scan(
    points: &[f64],
    dim: usize,
    x: &[f64],
    live: impl Iterator<Item = bool>,
) -> (Option<usize>, u64) {
    let x = &x[..dim];
    let mut tested = 0;
    for (row, (p, live)) in points.chunks_exact(dim).zip(live).enumerate() {
        tested += live as u64;
        if live & dominates_or_equal(p, x) {
            return (Some(row), tested);
        }
    }
    (None, tested)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_dominance_requires_one_strict_coordinate() {
        assert!(dominates(&[0.5, 0.5], &[0.5, 0.4]));
        assert!(dominates(&[0.6, 0.6], &[0.5, 0.5]));
        assert!(
            !dominates(&[0.5, 0.5], &[0.5, 0.5]),
            "equal points do not dominate"
        );
        assert!(!dominates(&[0.5, 0.4], &[0.4, 0.5]), "incomparable points");
        assert!(!dominates(&[0.4, 0.5], &[0.5, 0.4]));
    }

    #[test]
    fn weak_dominance_includes_equality() {
        assert!(dominates_or_equal(&[0.5, 0.5], &[0.5, 0.5]));
        assert!(dominates_or_equal(&[0.5, 0.6], &[0.5, 0.5]));
        assert!(!dominates_or_equal(&[0.5, 0.4], &[0.5, 0.5]));
    }

    #[test]
    fn dominance_is_antisymmetric_on_distinct_points() {
        let a = [0.7, 0.3, 0.9];
        let b = [0.6, 0.3, 0.8];
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }
}
