//! Shared vocabulary of the algorithms: assignment pairs, run metrics,
//! and index construction defaults.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::Duration;

use mpq_rtree::{IoStats, PointSet, RTree, RTreeParams};
use mpq_skyline::SkylineStats;
use mpq_ta::TaStats;

/// One stable assignment: function `fid` gets object `oid` at `score`.
///
/// Pairs are totally ordered by the **canonical order** every matcher
/// uses for tie-breaking: higher score first ([`f64::total_cmp`]), then
/// smaller function id, then smaller object id. [`Ord`] follows that
/// order, so sorting a `Vec<Pair>` ascending yields assignment
/// (descending-score) order; equality is `total_cmp`-based, making the
/// order total even on non-finite scores.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// The assigned preference function (user).
    pub fid: u32,
    /// The object assigned to it.
    pub oid: u64,
    /// The score `f(o)` of the pair.
    pub score: f64,
}

impl Pair {
    /// `true` iff `self` precedes `other` in the canonical order (see
    /// the type-level docs). Equivalent to `self < other`.
    #[inline]
    pub fn beats(&self, other: &Pair) -> bool {
        self.cmp(other) == std::cmp::Ordering::Less
    }
}

impl PartialEq for Pair {
    #[inline]
    fn eq(&self, other: &Pair) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Pair {}

impl PartialOrd for Pair {
    #[inline]
    fn partial_cmp(&self, other: &Pair) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pair {
    /// The canonical order: `Less` means `self` is assigned first.
    #[inline]
    fn cmp(&self, other: &Pair) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.fid.cmp(&other.fid))
            .then_with(|| self.oid.cmp(&other.oid))
    }
}

/// Cost counters for one matcher run. The object-tree `io` counters are
/// the paper's "I/O accesses"; everything else is introspection.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunMetrics {
    /// Object R-tree page traffic during matching (build excluded).
    pub io: IoStats,
    /// Wall-clock time of the matching phase (index build excluded).
    pub elapsed: Duration,
    /// Algorithm outer loops (SB loops, BF pops, chain steps).
    pub loops: u64,
    /// Top-1 ranked searches against the *object* tree (BF, Chain).
    pub top1_searches: u64,
    /// Top-1 searches against the in-memory *function* tree (Chain only).
    pub fun_top1_searches: u64,
    /// Page traffic of the in-memory function tree (Chain only; not part
    /// of `io` because the paper keeps `F` in memory).
    pub fun_io: IoStats,
    /// Reverse top-1 (TA) invocations (SB only).
    pub reverse_top1_calls: u64,
    /// Peak total size of persistent search frontiers (incremental
    /// Brute Force only) — the memory footprint that makes the paper's
    /// BF run out of memory on anti-correlated `D = 6` data.
    pub peak_frontier: u64,
    /// Time in the *discover* half of SB's rounds: refreshing the rank
    /// lists, reverse top-1 scans included (SB only).
    pub discover: Duration,
    /// Time in skyline maintenance — removing assigned or masked objects
    /// and promoting what they uncover; the BBS build is not in it (SB
    /// only).
    pub maintain: Duration,
    /// Skyline computation/maintenance counters (SB only). A run resumed
    /// from a seed counts from the resume: the seed's build is not its
    /// work — unless the run built that seed itself.
    pub skyline: Option<SkylineStats>,
    /// TA scan counters (SB only).
    pub ta: Option<TaStats>,
}

/// The result of a matcher run: the stable pairs in the order the
/// algorithm emitted them, plus cost metrics.
#[derive(Debug, Clone, Default)]
pub struct Matching {
    pairs: Vec<Pair>,
    metrics: RunMetrics,
}

impl Matching {
    /// Assemble a result (used by the matcher implementations).
    pub fn new(pairs: Vec<Pair>, metrics: RunMetrics) -> Matching {
        Matching { pairs, metrics }
    }

    /// The stable pairs, in emission order. The one statement of that
    /// order for SB, evaluated or streamed, capacitated or not: the
    /// pairs of a round come out in canonical order (see [`Pair`]), and
    /// the rounds' *first* pairs descend — each is the best pair left —
    /// but the list as a whole need not: under the default
    /// `multi_pair(true)` a later round's best pair can outscore an
    /// earlier round's second. It is globally descending from
    /// `.multi_pair(false)` (one pair a round: the greedy's own order)
    /// and from [`sorted_pairs`](Matching::sorted_pairs).
    pub fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// Number of assignments made.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff no assignment was made.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Cost metrics of the run.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Sum of all pair scores (the "social welfare" of the assignment).
    pub fn total_score(&self) -> f64 {
        self.pairs.iter().map(|p| p.score).sum()
    }

    /// Pairs sorted into the canonical order (for set comparisons).
    pub fn sorted_pairs(&self) -> Vec<Pair> {
        let mut v = self.pairs.clone();
        v.sort_unstable();
        v
    }

    /// Approximate heap footprint of this matching — what a
    /// [`ResultCache`](crate::ResultCache) entry holding it costs
    /// against the cache's byte bound.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Matching>() + self.pairs.len() * std::mem::size_of::<Pair>()
    }
}

/// How matchers build and buffer the object R-tree.
///
/// Defaults follow the paper's setup: 4 KiB pages and an LRU buffer
/// sized at 2% of the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfig {
    /// Page size in bytes.
    pub page_size: usize,
    /// Buffer capacity as a fraction of the tree's page count.
    pub buffer_fraction: f64,
    /// Lower bound on the buffer capacity, in pages.
    pub min_buffer_pages: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            page_size: 4096,
            buffer_fraction: 0.02,
            min_buffer_pages: 8,
        }
    }
}

/// Process-wide count of object R-tree bulk loads: one per engine
/// build (see [`index_build_count`]).
static INDEX_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide number of object R-tree bulk loads performed so far.
///
/// Diagnostic: lets deployments (and tests) assert that a shared
/// [`Engine`](crate::Engine) really amortizes index construction — N
/// requests against one engine advance this counter by exactly 1.
pub fn index_build_count() -> u64 {
    INDEX_BUILDS.load(AtomicOrdering::Relaxed)
}

impl IndexConfig {
    /// Bulk-load the object tree into `store`: the objects of `objects`
    /// that `keys` names (one `bulk::sort_key` each), indexed under their
    /// indices (see [`RTree::bulk_load_keys`]), with the buffer sized for
    /// the tree's page count and its I/O counters at zero. Counts one
    /// index build. `keys` comes back permuted.
    pub(crate) fn build_tree_in(
        &self,
        store: Box<dyn mpq_rtree::PageStore>,
        objects: &PointSet,
        keys: &mut [u128],
    ) -> RTree {
        INDEX_BUILDS.fetch_add(1, AtomicOrdering::Relaxed);
        let params = RTreeParams {
            page_size: self.page_size,
            min_fill_ratio: 0.4,
            buffer_capacity: self.min_buffer_pages.max(1),
        };
        let tree = RTree::bulk_load_keys(store, objects, keys, params);
        tree.set_buffer_capacity(self.buffer_pages_for(tree.page_count()));
        tree
    }

    /// The buffer capacity this configuration prescribes for a tree of
    /// `page_count` pages. Rounds to the nearest page: truncation
    /// under-sizes the buffer by up to one page, which is visible at the
    /// paper's 2% default on small trees.
    pub(crate) fn buffer_pages_for(&self, page_count: usize) -> usize {
        ((page_count as f64 * self.buffer_fraction).round() as usize).max(self.min_buffer_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    /// An engine of one tree over `objects`, built under `cfg`.
    fn engine(cfg: IndexConfig, objects: &PointSet) -> Engine {
        Engine::builder()
            .index(cfg)
            .objects(objects)
            .build()
            .unwrap()
    }

    #[test]
    fn pair_order_breaks_ties_by_fid_then_oid() {
        let a = Pair {
            fid: 1,
            oid: 5,
            score: 0.9,
        };
        let b = Pair {
            fid: 2,
            oid: 1,
            score: 0.9,
        };
        let c = Pair {
            fid: 1,
            oid: 6,
            score: 0.9,
        };
        let d = Pair {
            fid: 0,
            oid: 0,
            score: 0.8,
        };
        assert!(a.beats(&b), "same score: smaller fid wins");
        assert!(a.beats(&c), "same score+fid: smaller oid wins");
        assert!(a.beats(&d), "higher score wins regardless of ids");
        assert!(!d.beats(&a));
    }

    #[test]
    fn matching_total_score_and_sorting() {
        let m = Matching::new(
            vec![
                Pair {
                    fid: 2,
                    oid: 2,
                    score: 0.5,
                },
                Pair {
                    fid: 1,
                    oid: 1,
                    score: 0.7,
                },
            ],
            RunMetrics::default(),
        );
        assert!((m.total_score() - 1.2).abs() < 1e-12);
        let sorted = m.sorted_pairs();
        assert_eq!(sorted[0].fid, 1);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn index_config_sizes_buffer_as_fraction() {
        let mut ps = PointSet::new(2);
        let mut state = 1u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((state >> 33) as f64) / (1u64 << 31) as f64;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = ((state >> 33) as f64) / (1u64 << 31) as f64;
            ps.push(&[a, b]);
        }
        let engine = engine(IndexConfig::default(), &ps);
        let tree = engine.tree();
        let expect = ((tree.page_count() as f64 * 0.02).round() as usize).max(8);
        assert_eq!(tree.buffer_capacity(), expect);
        assert_eq!(
            tree.io_stats(),
            IoStats::default(),
            "build I/O must be reset"
        );
    }

    #[test]
    fn buffer_sizing_rounds_the_fractional_page() {
        // Pin the rounding boundary: a fractional product of exactly
        // k + 0.5 pages must round up to k + 1, not truncate to k.
        let mut ps = PointSet::new(2);
        let mut state = 7u64;
        for _ in 0..5_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((state >> 33) as f64) / (1u64 << 31) as f64;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = ((state >> 33) as f64) / (1u64 << 31) as f64;
            ps.push(&[a, b]);
        }
        let probe = IndexConfig {
            page_size: 512,
            buffer_fraction: 0.02,
            min_buffer_pages: 1,
        };
        let pages = engine(probe, &ps).page_count();
        assert!(pages > 20, "need a multi-page tree for the boundary case");
        let cfg = IndexConfig {
            page_size: 512,
            buffer_fraction: 8.5 / pages as f64,
            min_buffer_pages: 1,
        };
        let engine = engine(cfg, &ps);
        assert_eq!(
            engine.tree().buffer_capacity(),
            9,
            "8.5 pages must round up to 9, not truncate to 8"
        );
    }

    #[test]
    fn build_tree_advances_the_build_counter() {
        let mut ps = PointSet::new(2);
        ps.push(&[0.5, 0.5]);
        ps.push(&[0.2, 0.8]);
        let before = index_build_count();
        let _ = engine(IndexConfig::default(), &ps);
        assert!(index_build_count() > before);
    }
}
