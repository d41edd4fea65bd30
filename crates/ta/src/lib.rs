//! # mpq-ta — reverse top-1 search over linear preference functions
//!
//! Section IV-A of the paper: given an object `o`, find the preference
//! function `f ∈ F` maximizing `f(o)` *without* scoring every function.
//! The functions' coefficients are organized as `D` descending sorted
//! lists (one per dimension), and an adaptation of Fagin's **Threshold
//! Algorithm** scans them round-robin, maintaining the best function seen
//! so far and an upper bound ("threshold") on the score of any unseen
//! function.
//!
//! The paper's twist is the **tight threshold** `T_tight`: the naive TA
//! bound `Σᵢ lᵢ·oᵢ` (with `lᵢ` the last coefficient seen in list `i`)
//! ignores that every function is normalized (`Σᵢ f.αᵢ = 1`). The tight
//! bound instead maximizes `Σᵢ βᵢ·oᵢ` subject to `Σᵢ βᵢ = 1` and
//! `βᵢ ≤ lᵢ`, solved greedily by spending the unit budget on the
//! dimensions where `o` is largest. `T_tight ≤ T_naive`, so scans
//! terminate earlier; the `ablations` benchmark quantifies the gap.
//!
//! ```
//! use mpq_ta::{FunctionSet, ReverseTopOne};
//!
//! let fs = FunctionSet::from_rows(2, &[
//!     vec![0.9, 0.1],
//!     vec![0.5, 0.5],
//!     vec![0.1, 0.9],
//! ]);
//! let mut rt1 = ReverseTopOne::build(&fs);
//! // For an object strong in dimension 0, the dimension-0-heavy function wins:
//! let (fid, score) = rt1.best_for(&fs, &[0.8, 0.1]).unwrap();
//! assert_eq!(fid, 0);
//! assert!((score - (0.9 * 0.8 + 0.1 * 0.1)).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod functions;
pub mod reverse;
pub mod threshold;

pub use functions::{linear_score, FunctionSet, WeightError};
pub use reverse::{ReverseTopOne, TaStats, ThresholdMode};
