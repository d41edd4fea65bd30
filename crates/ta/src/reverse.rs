//! The reverse top-1 scan: Threshold Algorithm over sorted coefficient
//! lists.
//!
//! [`ReverseTopOne`] holds `D` lists of `(coefficient, function id)`
//! pairs, each sorted descending. [`ReverseTopOne::best_for`] scans them
//! round-robin for a given object, scoring each newly encountered
//! function, and stops as soon as the best score found strictly exceeds
//! the threshold bound on all unseen functions. With the paper's tight
//! threshold this typically touches a small prefix of each list.
//!
//! Function removals are tombstones in the [`FunctionSet`]; the scan
//! skips dead entries and the lists compact themselves automatically
//! once the dead fraction grows past one half (amortized O(1) per
//! removal).

use crate::functions::FunctionSet;
use crate::threshold::{descending_order, naive_threshold, tight_threshold};

/// Slack added to the threshold before declaring termination.
///
/// The threshold bounds the *real* score of unseen functions, but a
/// computed score `Σ wᵢ·oᵢ` can exceed the computed threshold by a few
/// ulps because the two are evaluated with different term orderings
/// (the tight threshold ranks dimensions by object value). Without
/// slack, a function whose rounded score lands just above the rounded
/// threshold could end the scan while a bitwise-greater (or equal with
/// smaller id) competitor is still unseen, breaking exact agreement
/// with a linear scan. Scores are sums of at most `D ≤ 64` products of
/// values in `[0, 1]`, so the accumulated rounding gap is below 1e-13;
/// 1e-12 is comfortably safe and costs a negligible amount of extra
/// scanning.
const TERMINATION_SLACK: f64 = 1e-12;

/// Which threshold bound terminates the scan (ablation A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdMode {
    /// The paper's normalized bound (§IV-A): `max Σβᵢoᵢ, Σβᵢ = 1, βᵢ ≤ lᵢ`.
    #[default]
    Tight,
    /// Classic TA bound `Σlᵢoᵢ` (looser: scans further before stopping).
    Naive,
}

/// Cumulative work counters for reverse top-1 scans.
#[derive(Debug, Default, Clone, Copy)]
pub struct TaStats {
    /// Number of `best_for` invocations.
    pub calls: u64,
    /// Round-robin rounds executed.
    pub rounds: u64,
    /// Distinct functions scored.
    pub functions_scored: u64,
    /// Sorted-list positions consumed (including tombstone skips).
    pub positions_advanced: u64,
}

/// Reverse top-1 index: per-dimension descending coefficient lists.
#[derive(Debug, Clone)]
pub struct ReverseTopOne {
    dim: usize,
    lists: Vec<Vec<(f64, u32)>>,
    /// Per-function visit stamp (avoids clearing a bitmap every call).
    visited: Vec<u32>,
    stamp: u32,
    /// Buffers of one scan, kept so that a scan allocates nothing: the
    /// point's dimensions in descending order, the position reached in
    /// each list and the coefficient last seen there.
    order: Vec<usize>,
    cursors: Vec<usize>,
    last: Vec<f64>,
    stats: TaStats,
}

impl ReverseTopOne {
    /// Build the sorted lists for the (alive) functions of `fs`.
    pub fn build(fs: &FunctionSet) -> ReverseTopOne {
        let dim = fs.dim();
        let mut lists: Vec<Vec<(f64, u32)>> = vec![Vec::with_capacity(fs.n_alive()); dim];
        for (fid, w) in fs.iter_alive() {
            for d in 0..dim {
                lists[d].push((w[d], fid));
            }
        }
        for l in lists.iter_mut() {
            l.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        }
        ReverseTopOne {
            dim,
            lists,
            visited: vec![0; fs.len()],
            stamp: 0,
            order: Vec::new(),
            cursors: Vec::new(),
            last: Vec::new(),
            stats: TaStats::default(),
        }
    }

    /// The function maximizing `f(point)` with the default (tight)
    /// threshold. Ties break toward the smaller function id, exactly as
    /// [`FunctionSet::scan_best`] does.
    pub fn best_for(&mut self, fs: &FunctionSet, point: &[f64]) -> Option<(u32, f64)> {
        self.best_for_with(fs, point, ThresholdMode::Tight)
    }

    /// [`ReverseTopOne::best_for`] with an explicit threshold mode.
    pub fn best_for_with(
        &mut self,
        fs: &FunctionSet,
        point: &[f64],
        mode: ThresholdMode,
    ) -> Option<(u32, f64)> {
        let (mut fid, mut score) = ([0], [0.0]);
        let found = self.top_m_for(fs, point, mode, &mut fid, &mut score);
        (found == 1).then_some((fid[0], score[0]))
    }

    /// The `m` best functions for `point`, `m` the length of the row
    /// `fids` / `scores` (one column each, of equal length), certified
    /// by the threshold bound and sorted by `(score desc, fid asc)`:
    /// written over the row's first entries, their number returned.
    /// Fewer than `m` are written only when fewer alive functions exist.
    ///
    /// Certified top-`m` results let callers amortize one TA scan over
    /// several function removals: as long as at least one entry is still
    /// alive, the first alive entry *is* the current reverse top-1
    /// (removals can only delete prefix ranks). The SB matcher exploits
    /// this to cut its reverse-top-1 call count several-fold.
    pub fn top_m_for(
        &mut self,
        fs: &FunctionSet,
        point: &[f64],
        mode: ThresholdMode,
        fids: &mut [u32],
        scores: &mut [f64],
    ) -> usize {
        assert_eq!(point.len(), self.dim, "object dimensionality mismatch");
        let m = fids.len();
        assert!(m >= 1, "m must be at least 1");
        assert_eq!(scores.len(), m, "a row's columns have one length");
        if fs.n_alive() == 0 {
            return 0;
        }
        self.maybe_compact(fs);
        self.stats.calls += 1;

        // fresh visit stamp (reset on the rare u32 wrap)
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.visited.fill(0);
            self.stamp = 1;
        }
        if self.visited.len() < fs.len() {
            self.visited.resize(fs.len(), 0);
        }

        descending_order(point, &mut self.order);
        let (order, cursors, last) = (&self.order, &mut self.cursors, &mut self.last);
        cursors.clear();
        cursors.resize(self.dim, 0);
        // before any list progress every coefficient is bounded by 1
        last.clear();
        last.resize(self.dim, 1.0);
        // the row's first `found` entries are the candidates, sorted by
        // (score desc, fid asc)
        let mut found = 0;
        let mut scored = 0u64;
        let mut advanced = 0u64;

        loop {
            let mut exhausted = false;
            for d in 0..self.dim {
                let list = &self.lists[d];
                let mut c = cursors[d];
                while c < list.len() && !fs.is_alive(list[c].1) {
                    c += 1;
                    advanced += 1;
                }
                if c >= list.len() {
                    cursors[d] = c;
                    exhausted = true;
                    continue;
                }
                let (coef, fid) = list[c];
                cursors[d] = c + 1;
                last[d] = coef;
                advanced += 1;
                if self.visited[fid as usize] != self.stamp {
                    self.visited[fid as usize] = self.stamp;
                    let s = fs.score(fid, point);
                    scored += 1;
                    insert_top(fids, scores, &mut found, fid, s);
                }
            }
            self.stats.rounds += 1;
            if exhausted {
                // some list ran out: every alive function has been seen
                break;
            }
            if found == m {
                let worst = scores[m - 1];
                let t = match mode {
                    ThresholdMode::Tight => tight_threshold(last, point, order),
                    ThresholdMode::Naive => naive_threshold(last, point),
                };
                // Strict inequality with rounding slack: at `worst == t`
                // an unseen function could still tie with a smaller id,
                // and within the slack a computed score could exceed the
                // computed threshold (see TERMINATION_SLACK).
                if worst > t + TERMINATION_SLACK {
                    break;
                }
            }
        }
        self.stats.functions_scored += scored;
        self.stats.positions_advanced += advanced;
        found
    }

    /// Cumulative counters.
    pub fn stats(&self) -> TaStats {
        self.stats
    }

    /// Zero the counters.
    pub fn reset_stats(&mut self) {
        self.stats = TaStats::default();
    }

    /// Rebuild the lists without tombstones once more than half the
    /// entries are dead.
    fn maybe_compact(&mut self, fs: &FunctionSet) {
        let total = self.lists[0].len();
        if total >= 64 && total > 2 * fs.n_alive() {
            for l in self.lists.iter_mut() {
                l.retain(|&(_, fid)| fs.is_alive(fid));
            }
        }
    }
}

/// Insert `(fid, s)` into the sorted top-`m` candidates — the first
/// `found` entries of the row `fids` / `scores`, `m` its length — the
/// last one falling off a full row.
#[inline]
fn insert_top(fids: &mut [u32], scores: &mut [f64], found: &mut usize, fid: u32, s: f64) {
    let m = fids.len();
    if *found == m && (s < scores[m - 1] || (s == scores[m - 1] && fid > fids[m - 1])) {
        return;
    }
    let pos = (0..*found)
        .position(|i| s > scores[i] || (s == scores[i] && fid < fids[i]))
        .unwrap_or(*found);
    let kept = (*found).min(m - 1);
    fids.copy_within(pos..kept, pos + 1);
    scores.copy_within(pos..kept, pos + 1);
    fids[pos] = fid;
    scores[pos] = s;
    *found = kept + 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn random_functions(n: usize, dim: usize, seed: u64) -> FunctionSet {
        let mut next = rng(seed);
        let mut fs = FunctionSet::new(dim);
        for _ in 0..n {
            let w: Vec<f64> = (0..dim).map(|_| next() + 1e-9).collect();
            fs.push(&w);
        }
        fs
    }

    #[test]
    fn ta_matches_linear_scan_on_random_input() {
        for dim in [2, 3, 5] {
            let fs = random_functions(300, dim, dim as u64);
            let mut rt1 = ReverseTopOne::build(&fs);
            let mut next = rng(99);
            for _ in 0..50 {
                let o: Vec<f64> = (0..dim).map(|_| next()).collect();
                let got = rt1.best_for(&fs, &o);
                let expect = fs.scan_best(&o);
                assert_eq!(
                    got.map(|x| x.0),
                    expect.map(|x| x.0),
                    "dim {dim} object {o:?}"
                );
                let (gs, es) = (got.unwrap().1, expect.unwrap().1);
                assert_eq!(gs.to_bits(), es.to_bits(), "scores must be identical");
            }
        }
    }

    #[test]
    fn ta_matches_scan_after_removals() {
        let mut fs = random_functions(200, 3, 7);
        let mut rt1 = ReverseTopOne::build(&fs);
        let mut next = rng(13);
        for round in 0..150 {
            let o: Vec<f64> = (0..3).map(|_| next()).collect();
            let got = rt1.best_for(&fs, &o);
            let expect = fs.scan_best(&o);
            assert_eq!(got, expect, "round {round}");
            if let Some((fid, _)) = got {
                fs.remove(fid);
            }
        }
        assert_eq!(fs.n_alive(), 50);
    }

    #[test]
    fn ta_exhausts_gracefully_when_all_removed() {
        let mut fs = random_functions(10, 2, 3);
        let mut rt1 = ReverseTopOne::build(&fs);
        for fid in 0..10 {
            fs.remove(fid);
        }
        assert_eq!(rt1.best_for(&fs, &[0.5, 0.5]), None);
    }

    #[test]
    fn tight_threshold_terminates_earlier_than_naive() {
        let fs = random_functions(2000, 4, 17);
        let mut tight = ReverseTopOne::build(&fs);
        let mut naive = ReverseTopOne::build(&fs);
        let mut next = rng(21);
        for _ in 0..30 {
            let o: Vec<f64> = (0..4).map(|_| next()).collect();
            let a = tight.best_for_with(&fs, &o, ThresholdMode::Tight);
            let b = naive.best_for_with(&fs, &o, ThresholdMode::Naive);
            assert_eq!(a, b, "both modes must return the same winner");
        }
        assert!(
            tight.stats().positions_advanced < naive.stats().positions_advanced,
            "tight {} vs naive {}",
            tight.stats().positions_advanced,
            naive.stats().positions_advanced
        );
    }

    #[test]
    fn ties_resolve_to_smallest_fid() {
        // identical functions: any object ties across all of them
        let rows: Vec<Vec<f64>> = (0..20).map(|_| vec![0.5, 0.5]).collect();
        let fs = FunctionSet::from_rows(2, &rows);
        let mut rt1 = ReverseTopOne::build(&fs);
        let (fid, _) = rt1.best_for(&fs, &[0.4, 0.8]).unwrap();
        assert_eq!(fid, 0);
    }

    #[test]
    fn extreme_objects_pick_extreme_functions() {
        let fs = FunctionSet::from_rows(
            3,
            &[
                vec![1.0, 0.0, 0.0],
                vec![0.0, 1.0, 0.0],
                vec![0.0, 0.0, 1.0],
            ],
        );
        let mut rt1 = ReverseTopOne::build(&fs);
        assert_eq!(rt1.best_for(&fs, &[0.9, 0.0, 0.1]).unwrap().0, 0);
        assert_eq!(rt1.best_for(&fs, &[0.0, 0.9, 0.1]).unwrap().0, 1);
        assert_eq!(rt1.best_for(&fs, &[0.1, 0.0, 0.9]).unwrap().0, 2);
    }

    #[test]
    fn compaction_preserves_correctness() {
        let mut fs = random_functions(500, 3, 31);
        let mut rt1 = ReverseTopOne::build(&fs);
        // remove 80% to trigger compaction
        for fid in 0..400 {
            fs.remove(fid);
        }
        let mut next = rng(41);
        for _ in 0..20 {
            let o: Vec<f64> = (0..3).map(|_| next()).collect();
            assert_eq!(rt1.best_for(&fs, &o), fs.scan_best(&o));
        }
        // lists must have shrunk
        assert!(rt1.lists[0].len() <= 2 * fs.n_alive());
    }

    #[test]
    fn zero_coordinate_objects_work() {
        let fs = random_functions(100, 3, 51);
        let mut rt1 = ReverseTopOne::build(&fs);
        assert_eq!(
            rt1.best_for(&fs, &[0.0, 0.0, 0.0]).map(|x| x.0),
            fs.scan_best(&[0.0, 0.0, 0.0]).map(|x| x.0)
        );
    }

    /// [`ReverseTopOne::top_m_for`] into a fresh row of `m`, as a list.
    fn top_m(rt1: &mut ReverseTopOne, fs: &FunctionSet, o: &[f64], m: usize) -> Vec<(u32, f64)> {
        let (mut fids, mut scores) = (vec![u32::MAX; m], vec![-1.0; m]);
        let found = rt1.top_m_for(fs, o, ThresholdMode::Tight, &mut fids, &mut scores);
        fids.into_iter().zip(scores).take(found).collect()
    }

    #[test]
    fn top_m_matches_sorted_scan() {
        let fs = random_functions(300, 3, 71);
        let mut rt1 = ReverseTopOne::build(&fs);
        let mut next = rng(72);
        for _ in 0..30 {
            let o: Vec<f64> = (0..3).map(|_| next()).collect();
            let got = top_m(&mut rt1, &fs, &o, 5);
            // reference: score everything, sort, take 5
            let mut all: Vec<(u32, f64)> = fs
                .iter_alive()
                .map(|(fid, _)| (fid, fs.score(fid, &o)))
                .collect();
            all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            all.truncate(5);
            assert_eq!(got, all);
        }
    }

    #[test]
    fn top_m_with_fewer_alive_functions_returns_all() {
        let mut fs = random_functions(4, 2, 73);
        fs.remove(1);
        let mut rt1 = ReverseTopOne::build(&fs);
        let (mut fids, mut scores) = ([7; 10], [0.5; 10]); // overwritten
        let found = rt1.top_m_for(
            &fs,
            &[0.5, 0.5],
            ThresholdMode::Tight,
            &mut fids,
            &mut scores,
        );
        assert_eq!(found, 3);
        let got: Vec<(u32, f64)> = fids.into_iter().zip(scores).take(found).collect();
        assert!(got.iter().all(|&(fid, _)| fid != 1 && fid < 4));
        // sorted by score descending
        assert!(got.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn top_m_prefix_property() {
        // the top-1 of a top-m result equals best_for
        let fs = random_functions(500, 4, 74);
        let mut a = ReverseTopOne::build(&fs);
        let mut b = ReverseTopOne::build(&fs);
        let mut next = rng(75);
        for _ in 0..20 {
            let o: Vec<f64> = (0..4).map(|_| next()).collect();
            let m = top_m(&mut a, &fs, &o, 4);
            let one = b.best_for(&fs, &o).unwrap();
            assert_eq!(m[0], one);
        }
    }

    #[test]
    fn stats_accumulate() {
        let fs = random_functions(100, 2, 61);
        let mut rt1 = ReverseTopOne::build(&fs);
        let _ = rt1.best_for(&fs, &[0.5, 0.5]);
        let s1 = rt1.stats();
        assert_eq!(s1.calls, 1);
        assert!(s1.functions_scored > 0);
        let _ = rt1.best_for(&fs, &[0.2, 0.8]);
        assert_eq!(rt1.stats().calls, 2);
        rt1.reset_stats();
        assert_eq!(rt1.stats().calls, 0);
    }
}
