//! # mpq-skyline — BBS skyline computation with incremental maintenance
//!
//! The skyline of an object set `O` (larger-is-better convention) is the
//! maximal subset of objects not dominated by any other object. The
//! observation driving the paper's SB matcher is that *the top-1 object
//! of every monotone preference function lies in the skyline*, so the
//! stable-matching loop only ever needs the skyline of the remaining
//! objects.
//!
//! This crate implements:
//!
//! * [`dominance`] — dominance tests under the larger-is-better
//!   convention.
//! * [`bbs`] — **Branch-and-Bound Skyline** (Papadias et al., TODS 2005)
//!   over the paged R-tree of [`mpq_rtree`], expanding entries in
//!   ascending L1 distance to the best corner of the space.
//! * [`maintain`] — the paper's §IV-B **incremental maintenance**: every
//!   entry pruned during BBS is remembered in the *pruned list* (`plist`)
//!   of exactly one dominating skyline object; when a skyline object is
//!   removed (assigned to a user), its plist entries are either re-homed
//!   to another dominator or fed back into the BBS heap, and the
//!   traversal resumes. Only the fraction of the tree that becomes
//!   *newly undominated* is ever read again.
//! * [`naive`] — quadratic reference implementations used by tests.
//!
//! ```
//! use mpq_rtree::{PointSet, RTree, RTreeParams};
//! use mpq_skyline::SkylineMaintainer;
//!
//! let mut ps = PointSet::new(2);
//! for p in [[0.9_f64, 0.2], [0.2, 0.9], [0.6, 0.6], [0.3, 0.3], [0.5, 0.55]] {
//!     ps.push(&p);
//! }
//! let tree = RTree::bulk_load(&ps, RTreeParams::default());
//! let mut sky = SkylineMaintainer::build(&tree);
//! let mut ids: Vec<u64> = sky.iter().map(|e| e.oid).collect();
//! ids.sort_unstable();
//! assert_eq!(ids, vec![0, 1, 2]); // (0.3,0.3) and (0.5,0.55) are dominated by (0.6,0.6)
//!
//! // Assigning object 2 promotes (0.5,0.55), which only (0.6,0.6) dominated:
//! sky.remove(&[2], &tree);
//! let mut ids: Vec<u64> = sky.iter().map(|e| e.oid).collect();
//! ids.sort_unstable();
//! assert_eq!(ids, vec![0, 1, 4]);
//! ```

#![warn(missing_docs)]

pub mod bbs;
pub mod dominance;
pub mod maintain;
pub mod naive;

pub use bbs::{
    compute_skyline, compute_skyline_excluding, compute_skyline_excluding_with, BbsScratch,
};
pub use maintain::{SkylineEntry, SkylineMaintainer, SkylineStats};
