//! The Skyline-Based (SB) algorithm — the paper's contribution (§III-B,
//! implemented with the optimizations of §IV), and what a request runs
//! under the default [`Algorithm::Sb`](crate::Algorithm::Sb).
//!
//! Key facts exploited:
//!
//! 1. The top-1 object of every monotone preference function lies in the
//!    **skyline** of the remaining objects, so the best-pair search only
//!    has to look at skyline objects (§III-B).
//! 2. The skyline can be maintained **incrementally** under removals via
//!    pruned-entry lists, instead of recomputed per loop (§IV-B,
//!    [`mpq_skyline::SkylineMaintainer`]).
//! 3. The best function for a skyline object is found by a **reverse
//!    top-1 TA scan with tight thresholds** instead of scanning `F`
//!    (§IV-A, [`mpq_ta::ReverseTopOne`]).
//! 4. *All* mutually-best pairs of a loop can be reported at once,
//!    reducing the number of maintenance rounds (§IV-C).
//!
//! Beyond the paper's text, this implementation memoizes across loops
//! with *rank-list caches*:
//!
//! * per skyline object, the certified top-`M` functions from one TA
//!   scan ([`mpq_ta::ReverseTopOne::top_m_for`]). Functions are only
//!   ever removed from `F`, so after dropping dead prefix entries the
//!   first alive entry is the current reverse top-1 — one scan survives
//!   up to `M` invalidations;
//! * per function, the top-`K` skyline objects. Skyline objects are
//!   removed (assigned) or promoted; removals delete prefix ranks (the
//!   surviving head remains the true maximum), and promotions are folded
//!   in by insertion, so a full skyline rescan is needed only when all
//!   `K` entries die.
//!
//! Neither cache changes the output (asserted by tests); they only
//! remove redundant reverse-top-1 calls and skyline scans.
//!
//! [`SbStream`] exposes the algorithm *progressively*: stable pairs are
//! yielded as soon as they are identified, which is the paper's
//! motivating deployment (a booking site confirming reservations while
//! the rest of the batch is still being matched).

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use mpq_rtree::{IoStats, NodeSource};
use mpq_skyline::bbs::compute_skyline_excluding_with;
use mpq_skyline::SkylineMaintainer;
use mpq_ta::{FunctionSet, ReverseTopOne, ThresholdMode};

use crate::engine::RequestOptions;
use crate::matching::{Matching, Pair, RunMetrics};
use crate::scratch::Scratch;
use crate::seed::{PeeledLog, SeedPart};

/// Certified reverse-top-`M` cached per skyline object. Deeper lists
/// amortize one TA scan over more function removals; the marginal scan
/// depth is small because the threshold, not the rank count, dominates
/// termination (measured sweet spot on the paper's workloads: 8).
const FBEST_RANKS: usize = 8;
/// Top-`K` skyline objects cached per function.
const OBEST_RANKS: usize = 8;

/// How the best function for a skyline object is located (ablation A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BestPairMode {
    /// Reverse top-1 TA scan over sorted coefficient lists (§IV-A).
    #[default]
    Ta,
    /// TA with the classic (loose) threshold instead of the tight one.
    TaNaiveThreshold,
    /// Linear scan of all alive functions (the brute-force inner loop
    /// the paper's TA replaces).
    Scan,
}

/// How the skyline is kept current across loops (ablation A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// Incremental maintenance with plists (§IV-B).
    #[default]
    Incremental,
    /// Recompute BBS from scratch every loop — the strawman the paper
    /// calls "unacceptably expensive".
    Rescan,
}

/// Round-local buffers of the SB matching loop, reused across rounds
/// (and, through [`Scratch`], across runs) so a round allocates nothing.
///
/// Every field is cleared before use; the buffers carry capacity, never
/// state, between rounds.
#[derive(Debug, Default)]
pub(crate) struct RoundBufs {
    /// This round's mutually-best pairs — the round's *output*, read by
    /// the caller after [`sb_loop_round`] returns.
    pub(crate) pairs: Vec<Pair>,
    /// Functions that are some skyline object's current best.
    fbest_fns: HashSet<u32>,
    /// Functions assigned this round.
    removed_fids: HashSet<u32>,
    /// Objects assigned this round (in pair order).
    removed_oids: Vec<u64>,
    /// Same objects as a set, for the cache retain pass.
    removed_oid_set: HashSet<u64>,
    /// Masked promotions peeled during skyline maintenance.
    masked: Vec<u64>,
    /// Per-loop best function per skyline object (SB-rescan only).
    rescan_best: HashMap<u64, (u32, f64)>,
}

/// Remove every masked (`excluded`) object from the maintained skyline.
/// Peeling can promote further masked objects — their dominator just
/// left — so iterate until the skyline is clean. `buf` is scratch
/// storage for the per-wave removal list. When `peeled` is provided,
/// every removed object is logged with its point — the seed-capture
/// journal that lets a later request re-admit it without a tree read.
fn peel_masked<R: NodeSource>(
    maintainer: &mut SkylineMaintainer,
    src: &R,
    excluded: &HashSet<u64>,
    buf: &mut Vec<u64>,
    mut peeled: Option<&mut PeeledLog>,
) {
    if excluded.is_empty() {
        return;
    }
    buf.clear();
    buf.extend(
        maintainer
            .iter()
            .filter(|e| excluded.contains(&e.oid))
            .map(|e| e.oid),
    );
    if let Some(log) = peeled.as_deref_mut() {
        for &oid in buf.iter() {
            let point = maintainer.get(oid).expect("member being peeled");
            log.push((oid, point.into()));
        }
    }
    while !buf.is_empty() {
        let promoted = maintainer.remove(buf, src);
        buf.clear();
        for (oid, point) in promoted {
            if excluded.contains(&oid) {
                buf.push(oid);
                if let Some(log) = peeled.as_deref_mut() {
                    log.push((oid, point));
                }
            }
        }
    }
}

/// Prime a maintainer for a run: cold (BBS over the whole tree) or
/// resumed from a [`SeedPart`] — clone the snapshot, re-admit the
/// objects the seed had peeled that this request no longer excludes,
/// then peel this request's own exclusions. Either way the returned
/// maintainer holds exactly the skyline of the non-excluded inventory,
/// so the matching loop downstream cannot tell the histories apart.
/// When `peeled` is provided (seed capture), it receives the exact
/// removed-object journal for the returned state.
fn prime_maintainer<R: NodeSource>(
    src: &R,
    excluded: &HashSet<u64>,
    seed: Option<&SeedPart>,
    buf: &mut Vec<u64>,
    mut peeled: Option<&mut PeeledLog>,
) -> SkylineMaintainer {
    let mut maintainer = match seed {
        None => SkylineMaintainer::build(src),
        Some(part) => {
            let mut m = part.sky.clone();
            for (oid, point) in &part.peeled {
                if excluded.contains(oid) {
                    // Still excluded: stays peeled, carries over into
                    // the capture journal.
                    if let Some(log) = peeled.as_deref_mut() {
                        log.push((*oid, point.clone()));
                    }
                } else {
                    m.insert(*oid, point.clone());
                }
            }
            m
        }
    };
    peel_masked(&mut maintainer, src, excluded, buf, peeled);
    maintainer
}

/// Build a progressive SB stream over a node source the stream *owns*
/// (a run-scoped I/O session). The request's excluded objects are
/// invisible: removed from the initial skyline along with every excluded
/// promotion they uncover. Reads `best_pair`, `multi_pair` and `exclude`
/// from `options`; the request path has already checked that the rest
/// describe a streamable request.
pub(crate) fn stream_on<R: NodeSource>(
    src: R,
    functions: &FunctionSet,
    options: &RequestOptions,
) -> SbStream<R> {
    let io_start = src.io_snapshot();
    let mut scratch = Scratch::new();
    scratch.fs.copy_from(functions);
    scratch.seed_assigned(&options.exclude);
    let rt1 = match options.best_pair {
        BestPairMode::Scan => None,
        _ => Some(ReverseTopOne::build(&scratch.fs)),
    };
    let maintainer = prime_maintainer(
        &src,
        &scratch.assigned,
        None,
        &mut scratch.round.masked,
        None,
    );
    SbStream {
        src,
        rt1,
        maintainer,
        best_pair: options.best_pair,
        multi_pair: options.multi_pair,
        scratch,
        pending: VecDeque::new(),
        metrics: RunMetrics::default(),
        io_start,
        done: false,
    }
}

/// Non-streaming SB evaluation over any node source, serving its entire
/// per-run state — working function set, rank-list caches, round
/// buffers — from a reusable [`Scratch`]. This is the engine's
/// [`evaluate`](crate::MatchRequest::evaluate) path: after the first
/// request on a warm scratch, a run makes no per-round allocations and
/// no per-run `FunctionSet`/exclusion-set clones (the request's
/// exclusion set is borrowed for the whole run instead of copied).
///
/// Produces exactly the pairs the progressive [`SbStream`] would, in the
/// same order (asserted by tests).
///
/// Seed-capable: `seed`
/// resumes from a prior request's post-peel skyline snapshot instead of
/// running BBS from scratch, and a `capture` slot receives this run's
/// own snapshot (taken after priming, before the matching loop consumes
/// the skyline) so refinement chains keep seeding. Pass `None, None`
/// for a plain cold run. Both paths run the identical round body over
/// content-identical skylines, so seeded matchings are
/// score-bit-identical to cold ones (pinned by `tests/seed_identity.rs`).
pub(crate) fn run_sb_seeded<R: NodeSource>(
    src: &R,
    functions: &FunctionSet,
    options: &RequestOptions,
    scratch: &mut Scratch,
    seed: Option<&SeedPart>,
    capture: Option<&mut Option<SeedPart>>,
) -> Matching {
    let excluded = &options.exclude;
    let start = Instant::now();
    let io_start = src.io_snapshot();
    let mut metrics = RunMetrics::default();
    scratch.fs.copy_from(functions);
    let mut rt1 = match options.best_pair {
        BestPairMode::Scan => None,
        _ => Some(ReverseTopOne::build(&scratch.fs)),
    };
    let mut peeled_log = PeeledLog::new();
    let capturing = capture.is_some();
    let mut maintainer = prime_maintainer(
        src,
        excluded,
        seed,
        &mut scratch.round.masked,
        capturing.then_some(&mut peeled_log),
    );
    if let Some(slot) = capture {
        *slot = Some(SeedPart {
            sky: maintainer.clone(),
            peeled: peeled_log,
        });
    }
    scratch.fbest.clear();
    scratch.obest.clear();

    let budget = scratch.fs.n_alive().min(src.len() as usize);
    let mut pairs: Vec<Pair> = Vec::with_capacity(budget);
    while scratch.fs.n_alive() > 0 && !maintainer.is_empty() {
        sb_loop_round(
            src,
            &mut maintainer,
            &mut scratch.fs,
            &mut rt1,
            &mut scratch.fbest,
            &mut scratch.obest,
            &mut scratch.round,
            excluded,
            options.best_pair,
            options.multi_pair,
            &mut metrics,
        );
        pairs.extend_from_slice(&scratch.round.pairs);
    }

    metrics.elapsed = start.elapsed();
    metrics.io = src.io_snapshot().since(io_start);
    metrics.skyline = Some(maintainer.stats());
    if let Some(rt1) = &rt1 {
        metrics.ta = Some(rt1.stats());
    }
    Matching::new(pairs, metrics)
}

/// The §IV-B strawman: full BBS recomputation per loop, no rank-list
/// caches — but still scratch-served, so the per-loop BBS heap, skyline
/// buffer, and pair buffers are reused instead of reallocated. The
/// request's excluded objects are invisible throughout.
pub(crate) fn run_rescan_on<R: NodeSource>(
    src: &R,
    functions: &FunctionSet,
    options: &RequestOptions,
    scratch: &mut Scratch,
) -> Matching {
    let start = Instant::now();
    let io_start = src.io_snapshot();
    scratch.fs.copy_from(functions);
    scratch.seed_assigned(&options.exclude);
    let fs = &mut scratch.fs;
    let assigned = &mut scratch.assigned;
    let bufs = &mut scratch.round;
    let mut rt1 = match options.best_pair {
        BestPairMode::Scan => None,
        _ => Some(ReverseTopOne::build(fs)),
    };
    let mut metrics = RunMetrics::default();
    let mut pairs: Vec<Pair> = Vec::new();

    while fs.n_alive() > 0 {
        compute_skyline_excluding_with(
            src,
            |o| assigned.contains(&o),
            &mut scratch.bbs,
            &mut scratch.sky,
        );
        let sky = &scratch.sky;
        if sky.is_empty() {
            break;
        }
        metrics.loops += 1;

        // best function per skyline object
        bufs.rescan_best.clear();
        for (oid, point) in sky {
            metrics.reverse_top1_calls += 1;
            let best = best_function(&mut rt1, fs, point, options.best_pair)
                .expect("functions remain alive");
            bufs.rescan_best.insert(*oid, best);
        }
        mutual_pairs(
            sky,
            &bufs.rescan_best,
            fs,
            options.multi_pair,
            &mut bufs.fbest_fns,
            &mut bufs.pairs,
        );
        debug_assert!(!bufs.pairs.is_empty(), "each loop must emit a pair");
        for p in &bufs.pairs {
            fs.remove(p.fid);
            assigned.insert(p.oid);
        }
        pairs.extend_from_slice(&bufs.pairs);
    }

    metrics.elapsed = start.elapsed();
    metrics.io = src.io_snapshot().since(io_start);
    if let Some(rt1) = &rt1 {
        metrics.ta = Some(rt1.stats());
    }
    Matching::new(pairs, metrics)
}

/// Best alive function for `point` under the configured mode.
fn best_function(
    rt1: &mut Option<ReverseTopOne>,
    fs: &FunctionSet,
    point: &[f64],
    mode: BestPairMode,
) -> Option<(u32, f64)> {
    match mode {
        BestPairMode::Ta => rt1.as_mut().expect("TA mode has an index").best_for_with(
            fs,
            point,
            ThresholdMode::Tight,
        ),
        BestPairMode::TaNaiveThreshold => rt1
            .as_mut()
            .expect("TA mode has an index")
            .best_for_with(fs, point, ThresholdMode::Naive),
        BestPairMode::Scan => fs.scan_best(point),
    }
}

/// Certified top-`M` alive functions for `point` (rank-list cache fill).
/// Scan mode certifies only the top-1, so its lists hold one entry.
pub(crate) fn best_functions(
    rt1: &mut Option<ReverseTopOne>,
    fs: &FunctionSet,
    point: &[f64],
    mode: BestPairMode,
) -> Vec<(u32, f64)> {
    match mode {
        BestPairMode::Ta => rt1.as_mut().expect("TA mode has an index").top_m_for(
            fs,
            point,
            FBEST_RANKS,
            ThresholdMode::Tight,
        ),
        BestPairMode::TaNaiveThreshold => rt1.as_mut().expect("TA mode has an index").top_m_for(
            fs,
            point,
            FBEST_RANKS,
            ThresholdMode::Naive,
        ),
        BestPairMode::Scan => fs.scan_best(point).into_iter().collect(),
    }
}

/// Given the current skyline and each skyline object's best function,
/// compute the mutually-best pairs of this loop (Property 1): for every
/// function `f` that is the best of some object, find its best skyline
/// object `f.obest`; report `(f, f.obest)` iff `fbest(f.obest) == f`.
/// With `multi_pair == false`, only the canonical best pair is kept.
/// `fbest_fns` is scratch storage; the pairs are written into `out`
/// (cleared first).
fn mutual_pairs(
    sky: &[(u64, Box<[f64]>)],
    fbest: &HashMap<u64, (u32, f64)>,
    fs: &FunctionSet,
    multi_pair: bool,
    fbest_fns: &mut HashSet<u32>,
    out: &mut Vec<Pair>,
) {
    fbest_fns.clear();
    fbest_fns.extend(fbest.values().map(|&(f, _)| f));
    out.clear();
    for &fid in fbest_fns.iter() {
        // obest by full scan (the rescan path has no caches)
        let mut best: Option<(u64, f64)> = None;
        for (oid, point) in sky {
            let s = fs.score(fid, point);
            let better = match best {
                None => true,
                Some((bo, bs)) => s > bs || (s == bs && *oid < bo),
            };
            if better {
                best = Some((*oid, s));
            }
        }
        let (oid, score) = best.expect("skyline is non-empty");
        if fbest[&oid].0 == fid {
            out.push(Pair { fid, oid, score });
        }
    }
    finalize_loop_pairs(out, multi_pair);
}

/// Sort a loop's pairs canonically in place (the [`Pair`] `Ord`);
/// truncate to the single best pair when multi-pair reporting is
/// disabled.
pub(crate) fn finalize_loop_pairs(pairs: &mut Vec<Pair>, multi_pair: bool) {
    pairs.sort_unstable();
    if !multi_pair {
        pairs.truncate(1);
    }
}

/// Progressive SB evaluation (see [`crate::MatchRequest::stream`]).
///
/// Implements [`Iterator`]: each item is the next stable pair. Pairs
/// within one internal loop are yielded in canonical order; across loops
/// scores are non-increasing.
///
/// Generic over the node source it *owns*: an [`mpq_rtree::IoSession`]
/// when streaming from a shared [`Engine`](crate::Engine) (per-run I/O
/// attribution).
pub struct SbStream<R: NodeSource> {
    src: R,
    rt1: Option<ReverseTopOne>,
    maintainer: SkylineMaintainer,
    best_pair: BestPairMode,
    multi_pair: bool,
    /// The run's working state — working function-set copy, masked
    /// objects (`assigned`, peeled from the initial skyline and every
    /// mid-run promotion wave), fbest/obest rank-list caches, and the
    /// round-local buffers.
    scratch: Scratch,
    pending: VecDeque<Pair>,
    metrics: RunMetrics,
    io_start: IoStats,
    done: bool,
}

impl<R: NodeSource> SbStream<R> {
    /// Metrics accumulated so far (typically read after exhaustion).
    /// `elapsed` is not populated by the stream — callers time their own
    /// consumption (see [`crate::MatchRequest::evaluate`]).
    pub fn metrics(&self) -> RunMetrics {
        let mut m = self.metrics;
        m.io = self.src.io_snapshot().since(self.io_start);
        m.skyline = Some(self.maintainer.stats());
        if let Some(rt1) = &self.rt1 {
            m.ta = Some(rt1.stats());
        }
        m
    }

    /// Consume the stream, returning the final metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics()
    }

    /// Number of objects currently on the maintained skyline.
    pub fn skyline_len(&self) -> usize {
        self.maintainer.len()
    }

    /// Number of functions still awaiting assignment.
    pub fn unassigned_functions(&self) -> usize {
        self.scratch.fs.n_alive()
    }

    /// One SB loop (Algorithm 1 lines 3–9): refresh caches, find the
    /// mutually-best pairs, apply the removals, and queue the pairs.
    fn loop_once(&mut self) {
        let scratch = &mut self.scratch;
        if scratch.fs.n_alive() == 0 || self.maintainer.is_empty() {
            self.done = true;
            return;
        }
        sb_loop_round(
            &self.src,
            &mut self.maintainer,
            &mut scratch.fs,
            &mut self.rt1,
            &mut scratch.fbest,
            &mut scratch.obest,
            &mut scratch.round,
            &scratch.assigned,
            self.best_pair,
            self.multi_pair,
            &mut self.metrics,
        );
        self.pending.extend(scratch.round.pairs.iter().copied());
    }

    /// Test-only invariant check: every current skyline object scoring
    /// above an obest list's stored minimum must be in that list.
    #[cfg(test)]
    fn check_obest_invariant(&self) {
        let scratch = &self.scratch;
        for (fid, list) in &scratch.obest {
            if list.is_empty() {
                continue;
            }
            let (mo, ms) = *list.last().unwrap();
            for e in self.maintainer.iter() {
                let s = scratch.fs.score(*fid, e.point);
                let better = s > ms || (s == ms && e.oid < mo);
                if better && !list.iter().any(|&(o, _)| o == e.oid) {
                    panic!(
                        "loop {}: J violated for fid={fid}: skyline oid={} score={s} \
                         beats stored min ({mo}, {ms}) but is missing; list={list:?}",
                        self.metrics.loops, e.oid
                    );
                }
            }
        }
    }
}

/// One SB matching round (Algorithm 1 lines 3–9) over shared cache
/// state: refresh the fbest/obest rank lists, report this round's
/// mutually-best pairs (canonically sorted, left in `bufs.pairs` for the
/// caller), and apply the removals — function tombstones, cache drops,
/// and skyline maintenance with masked-promotion peeling. The single
/// implementation behind the progressive [`SbStream`], the scratch-based
/// [`run_sb_seeded`] evaluation, and the engine's persistent
/// [`crate::MatchSession`] batches.
///
/// All round-local collections live in `bufs`, so a round performs no
/// heap allocation once the buffers are warm.
///
/// Preconditions: `fs.n_alive() > 0` and a non-empty skyline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sb_loop_round<R: NodeSource>(
    src: &R,
    maintainer: &mut SkylineMaintainer,
    fs: &mut FunctionSet,
    rt1: &mut Option<ReverseTopOne>,
    fbest: &mut HashMap<u64, Vec<(u32, f64)>>,
    obest: &mut HashMap<u32, Vec<(u64, f64)>>,
    bufs: &mut RoundBufs,
    excluded: &HashSet<u64>,
    best_pair: BestPairMode,
    multi_pair: bool,
    metrics: &mut RunMetrics,
) {
    metrics.loops += 1;

    // 1. Every skyline object needs a valid best function: drain dead
    // prefix entries from its rank list; if the list empties, re-run
    // the (top-M) reverse search. A surviving head entry is the true
    // reverse top-1 because removals can only have deleted
    // better-ranked functions.
    for e in maintainer.iter() {
        let list = fbest.entry(e.oid).or_default();
        while let Some(&(fid, _)) = list.first() {
            if fs.is_alive(fid) {
                break;
            }
            list.remove(0);
        }
        if list.is_empty() {
            metrics.reverse_top1_calls += 1;
            *list = best_functions(rt1, fs, e.point, best_pair);
            debug_assert!(!list.is_empty(), "fs.n_alive() > 0");
        }
    }

    // 2. For each function that is some object's best, ensure a valid
    // best-object rank list: drain entries that left the skyline; a
    // surviving head is the true maximum (better-ranked objects were
    // all assigned, and promotions were folded in); empty ⇒ full
    // skyline rescan.
    bufs.fbest_fns.clear();
    bufs.fbest_fns
        .extend(maintainer.iter().map(|e| fbest[&e.oid][0].0));
    for &fid in &bufs.fbest_fns {
        let list = obest.entry(fid).or_default();
        while let Some(&(oid, _)) = list.first() {
            if maintainer.contains(oid) {
                break;
            }
            list.remove(0);
        }
        if list.is_empty() {
            for e in maintainer.iter() {
                let s = fs.score(fid, e.point);
                insert_ranked(list, OBEST_RANKS, e.oid, s);
            }
            debug_assert!(!list.is_empty(), "skyline is non-empty");
        }
    }

    // 3. Mutually-best pairs (Property 1).
    bufs.pairs.clear();
    for &fid in &bufs.fbest_fns {
        let (oid, score) = obest[&fid][0];
        if fbest[&oid][0].0 == fid {
            bufs.pairs.push(Pair { fid, oid, score });
        }
    }
    finalize_loop_pairs(&mut bufs.pairs, multi_pair);
    assert!(
        !bufs.pairs.is_empty(),
        "SB invariant violated: the globally best remaining pair is always \
         mutually best, so every loop must emit at least one pair"
    );

    // 4. Apply removals and maintain the caches.
    bufs.removed_fids.clear();
    bufs.removed_fids.extend(bufs.pairs.iter().map(|p| p.fid));
    bufs.removed_oids.clear();
    bufs.removed_oids.extend(bufs.pairs.iter().map(|p| p.oid));
    for &fid in &bufs.removed_fids {
        fs.remove(fid);
    }
    bufs.removed_oid_set.clear();
    bufs.removed_oid_set
        .extend(bufs.removed_oids.iter().copied());

    // Assigned objects never return: drop their fbest lists. Dead
    // functions inside surviving lists are drained lazily in step 1.
    let removed_oid_set = &bufs.removed_oid_set;
    fbest.retain(|oid, _| !removed_oid_set.contains(oid));
    // Assigned functions never return: drop their obest lists. Dead
    // objects inside surviving lists are drained lazily in step 2.
    for fid in &bufs.removed_fids {
        obest.remove(fid);
    }

    // Skyline maintenance (§IV-B): promotions are folded into every
    // cached obest rank list to preserve its "nothing better than the
    // stored minimum is missing" invariant. An assignment can promote a
    // *masked* object (its dominator just left); peel those immediately
    // — each peel wave can surface further masked objects — so they
    // never reach the caches or the skyline.
    let mut promoted = maintainer.remove(&bufs.removed_oids, src);
    while !excluded.is_empty() {
        bufs.masked.clear();
        bufs.masked.extend(
            promoted
                .iter()
                .filter(|(oid, _)| excluded.contains(oid))
                .map(|(oid, _)| *oid),
        );
        if bufs.masked.is_empty() {
            break;
        }
        promoted.retain(|(oid, _)| !excluded.contains(oid));
        promoted.extend(maintainer.remove(&bufs.masked, src));
    }
    for (oid, point) in &promoted {
        for (fid, list) in obest.iter_mut() {
            let s = fs.score(*fid, point);
            fold_promotion(list, OBEST_RANKS, *oid, s);
        }
    }
}

/// Insert `(oid, s)` into a rank list sorted by `(score desc, oid asc)`,
/// keeping at most `k` entries. Used only while *building* a list by a
/// full scan, where lowering the current minimum is correct.
#[inline]
pub(crate) fn insert_ranked(list: &mut Vec<(u64, f64)>, k: usize, oid: u64, s: f64) {
    if list.len() == k {
        let (wo, ws) = list[k - 1];
        if s < ws || (s == ws && oid > wo) {
            return;
        }
    }
    let pos = list
        .iter()
        .position(|&(o, v)| s > v || (s == v && oid < o))
        .unwrap_or(list.len());
    list.insert(pos, (oid, s));
    list.truncate(k);
}

/// Fold a *promotion* into an existing rank list. Unlike
/// [`insert_ranked`], the stored minimum acts as the list's **coverage
/// bound**: objects canonically below it may have been excluded when the
/// list was built, so accepting a new entry below the minimum would
/// silently widen the list's claimed coverage and make a stale head look
/// authoritative (the very bug that truncated matchings on tie-heavy
/// Zillow data). A promotion is therefore inserted only if it beats the
/// stored minimum; the minimum never decreases.
#[inline]
pub(crate) fn fold_promotion(list: &mut Vec<(u64, f64)>, k: usize, oid: u64, s: f64) {
    let Some(&(mo, ms)) = list.last() else {
        return; // empty ⇒ the next access rescans anyway
    };
    if s < ms || (s == ms && oid > mo) {
        return;
    }
    let pos = list
        .iter()
        .position(|&(o, v)| s > v || (s == v && oid < o))
        .unwrap_or(list.len());
    list.insert(pos, (oid, s));
    list.truncate(k);
}

impl<R: NodeSource> Iterator for SbStream<R> {
    type Item = Pair;

    fn next(&mut self) -> Option<Pair> {
        loop {
            if let Some(p) = self.pending.pop_front() {
                return Some(p);
            }
            if self.done {
                return None;
            }
            self.loop_once();
            if self.pending.is_empty() && !self.done {
                // loop_once always emits or finishes; defensive guard
                self.done = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, MatchRequest};
    use crate::matching::IndexConfig;
    use crate::reference::reference_matching;
    use crate::verify::verify_stable;
    use mpq_datagen::{Distribution, WorkloadBuilder};
    use mpq_rtree::PointSet;

    /// One SB configuration: the knobs it turns on a default request.
    type Knobs = for<'e, 'f> fn(MatchRequest<'e, 'f>) -> MatchRequest<'e, 'f>;

    /// The paper's SB with every option at its default.
    const SB: Knobs = |r| r;
    const SINGLE_PAIR: Knobs = |r| r.multi_pair(false);

    /// An engine over small pages, so test-sized inventories still span
    /// several tree levels.
    fn engine(objects: &PointSet) -> Engine {
        let index = IndexConfig {
            page_size: 256,
            buffer_fraction: 0.1,
            min_buffer_pages: 4,
        };
        Engine::builder()
            .index(index)
            .objects(objects)
            .build()
            .unwrap()
    }

    /// Evaluate one request (index built once per call here; the engine
    /// tests cover multi-request sharing).
    fn run(knobs: Knobs, objects: &PointSet, functions: &FunctionSet) -> Matching {
        knobs(engine(objects).request(functions))
            .evaluate()
            .unwrap()
    }

    fn sorted(pairs: &[Pair]) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = pairs.iter().map(|p| (p.fid, p.oid)).collect();
        v.sort_unstable();
        v
    }

    /// Drain a stream loop by loop, checking the obest rank-list
    /// invariant after every loop.
    fn drain_checking_obest<R: NodeSource>(mut stream: SbStream<R>) -> Vec<Pair> {
        let mut pairs = Vec::new();
        while !stream.done {
            stream.loop_once();
            stream.check_obest_invariant();
            pairs.extend(stream.pending.drain(..));
        }
        pairs
    }

    #[test]
    fn matches_reference_on_random_workload() {
        for (dist, seed) in [
            (Distribution::Independent, 41),
            (Distribution::AntiCorrelated, 42),
            (Distribution::Correlated, 43),
            (Distribution::Clustered { clusters: 4 }, 44),
        ] {
            let w = WorkloadBuilder::new()
                .objects(300)
                .functions(45)
                .dim(3)
                .distribution(dist)
                .seed(seed)
                .build();
            let m = run(SB, &w.objects, &w.functions);
            let expect = reference_matching(&w.objects, &w.functions);
            assert_eq!(sorted(m.pairs()), sorted(&expect), "distribution {dist:?}");
            verify_stable(&w.objects, &w.functions, m.pairs()).unwrap();
        }
    }

    #[test]
    fn single_pair_mode_reproduces_exact_greedy_sequence() {
        let w = WorkloadBuilder::new()
            .objects(200)
            .functions(30)
            .dim(2)
            .seed(51)
            .build();
        let m = run(SINGLE_PAIR, &w.objects, &w.functions);
        let expect = reference_matching(&w.objects, &w.functions);
        assert_eq!(m.pairs(), &expect[..], "single-pair SB is exactly greedy");
    }

    #[test]
    fn all_ablation_configs_agree() {
        let w = WorkloadBuilder::new()
            .objects(250)
            .functions(35)
            .dim(3)
            .distribution(Distribution::AntiCorrelated)
            .seed(53)
            .build();
        let baseline = run(SB, &w.objects, &w.functions);
        let configs: [(&str, Knobs); 4] = [
            ("scan", |r| r.best_pair(BestPairMode::Scan)),
            ("ta-naive", |r| r.best_pair(BestPairMode::TaNaiveThreshold)),
            ("rescan", |r| r.maintenance(MaintenanceMode::Rescan)),
            ("single-pair", SINGLE_PAIR),
        ];
        for (label, knobs) in configs {
            let m = run(knobs, &w.objects, &w.functions);
            assert_eq!(
                sorted(m.pairs()),
                sorted(baseline.pairs()),
                "config {label} diverged"
            );
        }
    }

    #[test]
    fn streaming_yields_pairs_progressively() {
        let w = WorkloadBuilder::new()
            .objects(300)
            .functions(25)
            .dim(2)
            .seed(57)
            .build();
        let engine = engine(&w.objects);
        let mut stream = engine.stream(&w.functions).unwrap();
        let first = stream.next().expect("at least one pair");
        // the very first pair is the global best
        let expect = reference_matching(&w.objects, &w.functions);
        assert_eq!((first.fid, first.oid), (expect[0].fid, expect[0].oid));
        assert!(stream.unassigned_functions() < 25);
        let rest = drain_checking_obest(stream);
        assert_eq!(rest.len(), 24);
        // the stream yields exactly the pairs of the non-streaming path,
        // in the same order
        let whole = engine.request(&w.functions).evaluate().unwrap();
        let streamed: Vec<Pair> = std::iter::once(first).chain(rest).collect();
        assert_eq!(streamed, whole.pairs());
    }

    #[test]
    fn multi_pair_reduces_loop_count() {
        let w = WorkloadBuilder::new()
            .objects(400)
            .functions(60)
            .dim(3)
            .seed(61)
            .build();
        let multi = run(SB, &w.objects, &w.functions);
        let single = run(SINGLE_PAIR, &w.objects, &w.functions);
        assert!(multi.metrics().loops <= single.metrics().loops);
        assert_eq!(single.metrics().loops, 60, "one loop per pair");
    }

    #[test]
    fn sb_does_not_write_to_the_tree() {
        let w = WorkloadBuilder::new()
            .objects(500)
            .functions(40)
            .dim(2)
            .seed(67)
            .build();
        let m = run(SB, &w.objects, &w.functions);
        assert_eq!(
            m.metrics().io.physical_writes,
            0,
            "SB never deletes from the R-tree"
        );
    }

    #[test]
    fn more_functions_than_objects_exhausts_objects() {
        let w = WorkloadBuilder::new()
            .objects(12)
            .functions(30)
            .dim(2)
            .seed(71)
            .build();
        let m = run(SB, &w.objects, &w.functions);
        assert_eq!(m.len(), 12);
        verify_stable(&w.objects, &w.functions, m.pairs()).unwrap();
    }

    #[test]
    fn duplicate_objects_resolve_canonically() {
        let mut ps = PointSet::new(2);
        for _ in 0..5 {
            ps.push(&[0.8, 0.8]);
        }
        ps.push(&[0.2, 0.9]);
        let fs = FunctionSet::from_rows(2, &[vec![0.5, 0.5], vec![0.6, 0.4], vec![0.4, 0.6]]);
        let m = run(SB, &ps, &fs);
        let expect = reference_matching(&ps, &fs);
        assert_eq!(sorted(m.pairs()), sorted(&expect));
        verify_stable(&ps, &fs, m.pairs()).unwrap();
    }

    #[test]
    fn tie_heavy_grid_with_positive_weights_matches_reference() {
        let mut ps = PointSet::new(2);
        for x in 0..5 {
            for y in 0..5 {
                ps.push(&[x as f64 / 4.0, y as f64 / 4.0]);
            }
        }
        let fs = FunctionSet::from_rows(
            2,
            &[
                vec![0.5, 0.5],
                vec![0.5, 0.5],
                vec![0.3, 0.7],
                vec![0.7, 0.3],
            ],
        );
        let m = run(SB, &ps, &fs);
        assert_eq!(sorted(m.pairs()), sorted(&reference_matching(&ps, &fs)));
        verify_stable(&ps, &fs, m.pairs()).unwrap();
    }

    #[test]
    fn zillow_tie_heavy_data_regression() {
        // Regression for a coverage bug in the obest rank-list fold:
        // on the skewed, tie-heavy Zillow surrogate the stream used to
        // terminate after a fraction of the pairs. The full matching
        // must come out and equal the reference.
        use mpq_datagen::functions::uniform_weights;
        use mpq_datagen::zillow_preference_space;
        let objects = zillow_preference_space(800, 1234);
        let functions = uniform_weights(120, 5, 99);
        let m = run(SB, &objects, &functions);
        assert_eq!(m.len(), 120, "every buyer must be assigned");
        let expect = reference_matching(&objects, &functions);
        assert_eq!(sorted(m.pairs()), sorted(&expect));
        verify_stable(&objects, &functions, m.pairs()).unwrap();
        let engine = engine(&objects);
        let streamed = drain_checking_obest(engine.stream(&functions).unwrap());
        assert_eq!(sorted(&streamed), sorted(&expect));
    }

    #[test]
    fn metrics_are_populated() {
        let w = WorkloadBuilder::new()
            .objects(300)
            .functions(30)
            .dim(3)
            .seed(73)
            .build();
        let m = run(SB, &w.objects, &w.functions);
        let met = m.metrics();
        assert!(met.loops >= 1);
        assert!(met.reverse_top1_calls >= 30);
        assert!(met.skyline.is_some());
        assert!(met.ta.is_some());
        assert!(met.io.logical > 0);
        assert!(met.elapsed.as_nanos() > 0);
    }
}
