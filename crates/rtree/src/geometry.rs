//! Minimum bounding rectangles (MBRs) and the geometric primitives used by
//! tree construction, ranked search, and skyline pruning.
//!
//! All primitives are written against plain `&[f64]` slices so that they
//! work both on the owned `Mbr` type and on the flat, stride-packed MBR
//! arrays stored inside [`crate::node::InnerNode`] without copying.

/// An owned, axis-aligned minimum bounding rectangle.
///
/// `lo[i] <= hi[i]` holds for every dimension `i`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Mbr {
    /// Lower corner (component-wise minimum).
    pub lo: Box<[f64]>,
    /// Upper corner (component-wise maximum).
    pub hi: Box<[f64]>,
}

impl Mbr {
    /// An "empty" MBR that acts as the identity for union: every union
    /// with it yields the other operand.
    pub fn empty(dim: usize) -> Mbr {
        Mbr {
            lo: vec![f64::INFINITY; dim].into(),
            hi: vec![f64::NEG_INFINITY; dim].into(),
        }
    }

    /// Dimensionality of the rectangle.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Grow this MBR to cover `p`.
    pub(crate) fn union_point(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.dim());
        rect_cover(&mut self.lo, &mut self.hi, p, p);
    }

    /// Grow this MBR to cover the rectangle `(lo, hi)`.
    pub(crate) fn union_rect(&mut self, lo: &[f64], hi: &[f64]) {
        rect_cover(&mut self.lo, &mut self.hi, lo, hi);
    }
}

/// Grow the rectangle `(lo, hi)` to cover the rectangle `(other_lo,
/// other_hi)` (a point is the rectangle of its two equal corners).
#[inline]
pub(crate) fn rect_cover(lo: &mut [f64], hi: &mut [f64], other_lo: &[f64], other_hi: &[f64]) {
    for d in 0..lo.len() {
        if other_lo[d] < lo[d] {
            lo[d] = other_lo[d];
        }
        if other_hi[d] > hi[d] {
            hi[d] = other_hi[d];
        }
    }
}

/// True iff the rectangle `(lo, hi)` contains point `p` (inclusive).
#[inline]
pub(crate) fn rect_contains_point(lo: &[f64], hi: &[f64], p: &[f64]) -> bool {
    debug_assert_eq!(lo.len(), p.len());
    p.iter()
        .zip(lo.iter().zip(hi.iter()))
        .all(|(&x, (&l, &h))| l <= x && x <= h)
}

/// True iff rectangles `(alo, ahi)` and `(blo, bhi)` intersect (inclusive).
#[inline]
pub(crate) fn rects_intersect(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> bool {
    alo.iter()
        .zip(ahi.iter())
        .zip(blo.iter().zip(bhi.iter()))
        .all(|((&al, &ah), (&bl, &bh))| al <= bh && bl <= ah)
}

/// Hyper-volume of rectangle `(lo, hi)`.
#[inline]
pub(crate) fn rect_area(lo: &[f64], hi: &[f64]) -> f64 {
    lo.iter()
        .zip(hi.iter())
        .map(|(&l, &h)| (h - l).max(0.0))
        .product()
}

/// Margin (sum of edge lengths) of rectangle `(lo, hi)`; the R\*-tree split
/// heuristic minimizes this quantity when choosing a split axis.
#[inline]
pub(crate) fn rect_margin(lo: &[f64], hi: &[f64]) -> f64 {
    lo.iter()
        .zip(hi.iter())
        .map(|(&l, &h)| (h - l).max(0.0))
        .sum()
}

/// Hyper-volume of the intersection of two rectangles (0 if disjoint).
#[inline]
pub(crate) fn rect_overlap(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    let mut v = 1.0;
    for i in 0..alo.len() {
        let l = alo[i].max(blo[i]);
        let h = ahi[i].min(bhi[i]);
        if h <= l {
            return 0.0;
        }
        v *= h - l;
    }
    v
}

/// Area increase required for rectangle `(lo, hi)` to absorb `(plo, phi)`.
#[inline]
pub(crate) fn enlargement(lo: &[f64], hi: &[f64], plo: &[f64], phi: &[f64]) -> f64 {
    let mut enlarged = 1.0;
    for i in 0..lo.len() {
        enlarged *= (hi[i].max(phi[i]) - lo[i].min(plo[i])).max(0.0);
    }
    enlarged - rect_area(lo, hi)
}

/// Upper bound of the linear score `w · x` over all points `x` in the
/// rectangle `(lo, hi)`, assuming non-negative weights: the score of the
/// upper corner. This is the bound used by branch-and-bound ranked search.
#[inline]
pub(crate) fn upper_score(w: &[f64], hi: &[f64]) -> f64 {
    debug_assert_eq!(w.len(), hi.len());
    dot(w, hi)
}

/// Inner product `w · p`.
#[inline]
pub fn dot(w: &[f64], p: &[f64]) -> f64 {
    debug_assert_eq!(w.len(), p.len());
    let mut s = 0.0;
    for i in 0..w.len() {
        s += w[i] * p[i];
    }
    s
}

/// L1 distance from the *upper corner* of a rectangle to the best corner
/// of the data space (`(1, ..., 1)` under the larger-is-better
/// convention). This is the BBS priority: entries closest to the best
/// corner are expanded first, which guarantees progressive skyline output.
#[inline]
pub fn mindist_to_best(hi: &[f64]) -> f64 {
    hi.iter().map(|&h| 1.0 - h).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_point_grows_in_both_directions() {
        let mut m = Mbr::empty(2);
        m.union_point(&[0.5, 0.5]);
        m.union_point(&[0.2, 0.9]);
        assert_eq!(&*m.lo, &[0.2, 0.5]);
        assert_eq!(&*m.hi, &[0.5, 0.9]);
    }

    #[test]
    fn empty_mbr_is_union_identity() {
        let mut m = Mbr::empty(3);
        m.union_point(&[0.1, 0.2, 0.3]);
        assert_eq!(&*m.lo, &[0.1, 0.2, 0.3]);
        assert_eq!(&*m.hi, &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn union_rect_covers_both() {
        let mut m = Mbr::empty(2);
        m.union_point(&[0.4, 0.4]);
        m.union_rect(&[0.1, 0.5], &[0.2, 0.9]);
        assert_eq!(&*m.lo, &[0.1, 0.4]);
        assert_eq!(&*m.hi, &[0.4, 0.9]);
    }

    #[test]
    fn contains_point_is_inclusive() {
        let (lo, hi) = ([0.0, 0.0], [1.0, 1.0]);
        assert!(rect_contains_point(&lo, &hi, &[0.0, 1.0]));
        assert!(rect_contains_point(&lo, &hi, &[0.5, 0.5]));
        assert!(!rect_contains_point(&lo, &hi, &[1.1, 0.5]));
    }

    #[test]
    fn area_and_margin() {
        let lo = [0.0, 0.0, 0.0];
        let hi = [2.0, 3.0, 4.0];
        assert_eq!(rect_area(&lo, &hi), 24.0);
        assert_eq!(rect_margin(&lo, &hi), 9.0);
    }

    #[test]
    fn degenerate_rect_has_zero_area() {
        assert_eq!(rect_area(&[0.5, 0.5], &[0.5, 0.9]), 0.0);
    }

    #[test]
    fn overlap_of_disjoint_rects_is_zero() {
        assert_eq!(rect_overlap(&[0.0], &[1.0], &[2.0], &[3.0]), 0.0);
        assert_eq!(rect_overlap(&[0.0], &[1.0], &[1.0], &[3.0]), 0.0); // touching
    }

    #[test]
    fn overlap_of_nested_rects_is_inner_area() {
        let v = rect_overlap(&[0.0, 0.0], &[4.0, 4.0], &[1.0, 1.0], &[2.0, 3.0]);
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let e = enlargement(&[0.0, 0.0], &[2.0, 2.0], &[0.5, 0.5], &[1.0, 1.0]);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn enlargement_positive_when_outside() {
        let e = enlargement(&[0.0, 0.0], &[1.0, 1.0], &[2.0, 0.0], &[2.0, 1.0]);
        assert!((e - 1.0).abs() < 1e-12); // grows to [0,2]x[0,1], area 2 from 1
    }

    #[test]
    fn upper_score_is_dot_with_upper_corner() {
        assert!((upper_score(&[0.3, 0.7], &[1.0, 0.5]) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn mindist_to_best_is_l1_gap() {
        assert!((mindist_to_best(&[1.0, 1.0]) - 0.0).abs() < 1e-12);
        assert!((mindist_to_best(&[0.25, 0.5]) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn intersect_detects_touching_edges() {
        assert!(rects_intersect(&[0.0], &[1.0], &[1.0], &[2.0]));
        assert!(!rects_intersect(&[0.0], &[0.9], &[1.0], &[2.0]));
    }
}
