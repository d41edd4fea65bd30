//! The in-memory set of linear preference functions.
//!
//! The paper keeps `F` in memory (it is small relative to `O`), so this
//! container optimizes for score evaluation and cheap logical deletion:
//! coefficients live in one flat buffer with stride `D`, and removal is a
//! tombstone flip (the sorted lists of [`crate::reverse`] skip dead
//! entries and compact themselves when the dead fraction grows).
//!
//! Functions are stored **normalized**: `Σᵢ αᵢ = 1`. The constructor
//! rescales whatever it is given, which both matches the paper's model
//! ("no function is favored over another") and is what makes the tight
//! threshold of [`crate::threshold`] a valid bound.

/// Why a weight row was rejected by [`FunctionSet::try_from_rows`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightError {
    /// The row's length does not match the set's dimensionality.
    DimensionMismatch {
        /// Dimensionality of the set.
        expected: usize,
        /// Length of the offending row.
        got: usize,
    },
    /// A weight is NaN, infinite, or negative.
    InvalidWeight {
        /// Index of the offending weight within its row.
        dim: usize,
        /// The offending value.
        value: f64,
    },
    /// Every weight in the row is zero, so the function scores nothing.
    AllZero,
}

impl std::fmt::Display for WeightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightError::DimensionMismatch { expected, got } => {
                write!(f, "weight row has {got} entries, expected {expected}")
            }
            WeightError::InvalidWeight { dim, value } => {
                write!(
                    f,
                    "weight {value} at dimension {dim} is not finite and non-negative"
                )
            }
            WeightError::AllZero => write!(f, "weights must not be all zero"),
        }
    }
}

impl std::error::Error for WeightError {}

/// A set of linear preference functions over `D` non-negative weights.
///
/// Function ids are dense `u32` indices in insertion order and remain
/// stable across removals.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSet {
    dim: usize,
    coefs: Vec<f64>,
    alive: Vec<bool>,
    n_alive: usize,
}

impl FunctionSet {
    /// An empty set of `dim`-ary functions.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> FunctionSet {
        assert!(dim > 0, "function dimensionality must be positive");
        FunctionSet {
            dim,
            coefs: Vec::new(),
            alive: Vec::new(),
            n_alive: 0,
        }
    }

    /// Build from one weight row per function. Rows are normalized to
    /// sum to 1.
    pub fn from_rows(dim: usize, rows: &[Vec<f64>]) -> FunctionSet {
        let mut fs = FunctionSet::new(dim);
        for r in rows {
            fs.push(r);
        }
        fs
    }

    /// Build from a flat buffer with stride `dim` (each row normalized).
    pub fn from_flat(dim: usize, flat: &[f64]) -> FunctionSet {
        assert_eq!(
            flat.len() % dim,
            0,
            "flat buffer length not a multiple of dim"
        );
        let mut fs = FunctionSet::new(dim);
        for row in flat.chunks_exact(dim) {
            fs.push(row);
        }
        fs
    }

    /// Append a function; its weights are normalized to sum to 1.
    /// Returns the new function id.
    ///
    /// # Panics
    /// Panics if the weights are not finite and non-negative, or all zero.
    pub fn push(&mut self, weights: &[f64]) -> u32 {
        match self.try_push(weights) {
            Ok(fid) => fid,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking [`FunctionSet::push`]: append a function, rejecting
    /// malformed rows with a [`WeightError`] instead of panicking. On
    /// error the set is unchanged.
    pub fn try_push(&mut self, weights: &[f64]) -> Result<u32, WeightError> {
        if weights.len() != self.dim {
            return Err(WeightError::DimensionMismatch {
                expected: self.dim,
                got: weights.len(),
            });
        }
        for (dim, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(WeightError::InvalidWeight { dim, value: w });
            }
        }
        let sum: f64 = weights.iter().sum();
        if sum <= 0.0 {
            return Err(WeightError::AllZero);
        }
        let fid = self.alive.len() as u32;
        self.coefs.extend(weights.iter().map(|&w| w / sum));
        self.alive.push(true);
        self.n_alive += 1;
        Ok(fid)
    }

    /// Non-panicking [`FunctionSet::from_rows`]: build a set, rejecting
    /// the first malformed row with its index and the [`WeightError`].
    pub fn try_from_rows(
        dim: usize,
        rows: &[Vec<f64>],
    ) -> Result<FunctionSet, (usize, WeightError)> {
        let mut fs = FunctionSet::new(dim);
        for (i, r) in rows.iter().enumerate() {
            fs.try_push(r).map_err(|e| (i, e))?;
        }
        Ok(fs)
    }

    /// Dimensionality of the functions.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of functions ever added (including removed ones).
    #[inline]
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// True iff no function was ever added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Number of functions not yet removed.
    #[inline]
    pub fn n_alive(&self) -> usize {
        self.n_alive
    }

    /// True iff `fid` exists and has not been removed.
    #[inline]
    pub fn is_alive(&self, fid: u32) -> bool {
        self.alive.get(fid as usize).copied().unwrap_or(false)
    }

    /// The (normalized) weight vector of function `fid`.
    ///
    /// # Panics
    /// Panics if `fid` is out of range (removed functions remain
    /// readable).
    #[inline]
    pub fn weights(&self, fid: u32) -> &[f64] {
        let i = fid as usize;
        &self.coefs[i * self.dim..(i + 1) * self.dim]
    }

    /// Score of `point` under function `fid`: `Σᵢ αᵢ·pᵢ`.
    ///
    /// # Panics
    /// Panics if dimensions mismatch or `fid` is out of range.
    #[inline]
    pub fn score(&self, fid: u32, point: &[f64]) -> f64 {
        let w = self.weights(fid);
        debug_assert_eq!(point.len(), w.len());
        let mut s = 0.0;
        for i in 0..w.len() {
            s += w[i] * point[i];
        }
        s
    }

    /// Overwrite `self` with a copy of `src`, **reusing** this set's
    /// existing buffer allocations (a derived `clone` would allocate
    /// fresh ones). This is the backbone of scratch-based evaluation:
    /// every matcher run needs a private, mutable working copy of the
    /// request's functions, and a reused scratch set makes that copy
    /// allocation-free once the buffers have grown to the workload's
    /// size.
    pub fn copy_from(&mut self, src: &FunctionSet) {
        self.dim = src.dim;
        self.coefs.clear();
        self.coefs.extend_from_slice(&src.coefs);
        self.alive.clear();
        self.alive.extend_from_slice(&src.alive);
        self.n_alive = src.n_alive;
    }

    /// Tombstone function `fid`.
    ///
    /// # Panics
    /// Panics if `fid` does not exist or was already removed — the
    /// matchers assign each function exactly once, so a double removal is
    /// a caller bug.
    pub fn remove(&mut self, fid: u32) {
        let slot = self
            .alive
            .get_mut(fid as usize)
            .unwrap_or_else(|| panic!("function {fid} does not exist"));
        assert!(*slot, "function {fid} was already removed");
        *slot = false;
        self.n_alive -= 1;
    }

    /// Iterate over `(fid, weights)` of alive functions.
    pub fn iter_alive(&self) -> impl Iterator<Item = (u32, &[f64])> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(move |(i, _)| (i as u32, &self.coefs[i * self.dim..(i + 1) * self.dim]))
    }

    /// Linear-scan argmax of `f(point)` over alive functions, with ties
    /// broken toward the smaller function id. This is the brute-force
    /// baseline for the TA-based reverse top-1 (ablation A3) and the
    /// reference implementation in tests.
    pub fn scan_best(&self, point: &[f64]) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        for (fid, _) in self.iter_alive() {
            let s = self.score(fid, point);
            let better = match best {
                None => true,
                Some((_, bs)) => s > bs,
            };
            if better {
                best = Some((fid, s));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_normalizes_weights() {
        let mut fs = FunctionSet::new(3);
        let fid = fs.push(&[2.0, 1.0, 1.0]);
        let w = fs.weights(fid);
        assert!((w[0] - 0.5).abs() < 1e-15);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn score_is_weighted_sum() {
        let fs = FunctionSet::from_rows(2, &[vec![0.25, 0.75]]);
        let s = fs.score(0, &[0.4, 0.8]);
        assert!((s - (0.25 * 0.4 + 0.75 * 0.8)).abs() < 1e-15);
    }

    #[test]
    fn remove_tombstones_but_keeps_weights_readable() {
        let mut fs = FunctionSet::from_rows(2, &[vec![0.5, 0.5], vec![0.9, 0.1]]);
        fs.remove(0);
        assert!(!fs.is_alive(0));
        assert!(fs.is_alive(1));
        assert_eq!(fs.n_alive(), 1);
        assert_eq!(fs.weights(0), &[0.5, 0.5]); // still readable
        let alive: Vec<u32> = fs.iter_alive().map(|(f, _)| f).collect();
        assert_eq!(alive, vec![1]);
    }

    #[test]
    fn copy_from_reuses_buffers_and_equals_clone() {
        let mut scratch = FunctionSet::from_rows(3, &vec![vec![0.2, 0.3, 0.5]; 40]);
        scratch.remove(7);
        let cap_before = scratch.coefs.capacity();
        let src = {
            let mut s = FunctionSet::from_rows(3, &vec![vec![0.5, 0.25, 0.25]; 10]);
            s.remove(3);
            s
        };
        scratch.copy_from(&src);
        assert_eq!(scratch, src.clone());
        assert_eq!(
            scratch.coefs.capacity(),
            cap_before,
            "copy_from must reuse the existing allocation"
        );
        // dimensionality follows the source
        let src2 = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
        scratch.copy_from(&src2);
        assert_eq!(scratch.dim(), 2);
        assert_eq!(scratch.weights(0), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_remove_panics() {
        let mut fs = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
        fs.remove(0);
        fs.remove(0);
    }

    #[test]
    #[should_panic(expected = "all zero")]
    fn zero_weight_vector_rejected() {
        let mut fs = FunctionSet::new(2);
        fs.push(&[0.0, 0.0]);
    }

    #[test]
    fn scan_best_prefers_smaller_fid_on_ties() {
        let fs = FunctionSet::from_rows(2, &[vec![0.5, 0.5], vec![0.5, 0.5]]);
        let (fid, _) = fs.scan_best(&[0.3, 0.3]).unwrap();
        assert_eq!(fid, 0);
    }

    #[test]
    fn scan_best_on_empty_set_is_none() {
        let fs = FunctionSet::new(4);
        assert!(fs.scan_best(&[0.1, 0.2, 0.3, 0.4]).is_none());
    }

    #[test]
    fn scan_best_skips_removed() {
        let mut fs = FunctionSet::from_rows(2, &[vec![1.0, 0.0], vec![0.0, 1.0]]);
        // object strong in dim 0: function 0 wins
        assert_eq!(fs.scan_best(&[0.9, 0.1]).unwrap().0, 0);
        fs.remove(0);
        assert_eq!(fs.scan_best(&[0.9, 0.1]).unwrap().0, 1);
    }
}
