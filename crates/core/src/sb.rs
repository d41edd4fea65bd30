//! The Skyline-Based (SB) algorithm — the paper's contribution (§III-B,
//! implemented with the optimizations of §IV), and what every served
//! request runs; its ablations are [`Algorithm`](crate::Algorithm)s of
//! a [`Variant`](crate::Variant).
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
//! Both are columns of rows indexed by dense ids, never hash tables:
//! the fbest lists by skyline member number
//! ([`mpq_skyline::SkylineEntry::member`] — members are only appended,
//! never renumbered, so a departed member's row is simply never read
//! again), the obest lists by fid. An obest entry carries its object's
//! member number beside the oid, so a list's head finds its object's
//! fbest row directly; ties still break on `(score desc, oid asc)`. A
//! promotion is folded only into rows that hold a list, and an assigned
//! function's row is emptied. The rows live in the [`Scratch`]: a run
//! empties them and keeps their capacity, so a warm scratch fills them
//! without allocating.
//!
//! ## One run state, one round
//!
//! Everything above lives once, in the crate-private `SbRun`: one
//! pinned node source — the engine's tree — the skyline maintained over
//! it, the function side, both rank-list caches
//! and the counters. The function side is what a round asks of `F`
//! (`FunctionSide`): a linear request's working function set with its
//! reverse top-1 index, or — §II admits "any monotone function" —
//! monotone functions found by a scan ([`crate::monotone`]).
//! `SbRun::new` takes the functions and the request's mask and primes
//! the skyline — cold by BBS, or cloned from the inventory's seed
//! ([`crate::seed`]) — then peels off the objects the run must not
//! see. The run owns the mask from then on: the exclusions and what is
//! left of the capacities, one predicate, so a request's exclusions and
//! a capacitated request's exhausted objects take the same path
//! ([`crate::capacity`]). `SbRun::round` is the only loop body
//! (Algorithm 1 lines 3–9) and takes no argument: three steps, the
//! first and the last its private halves, which nothing else calls.
//!
//! * **discover** refreshes the rank lists against the skyline and
//!   reports the round's mutually-best pairs in canonical order — all
//!   of them, or with `multi_pair` off only the first. It changes
//!   nothing a matching depends on.
//! * Each pair takes one unit of its object — the only unit, unless
//!   the request carries capacities ([`crate::capacity`], which also
//!   says why every pair of the round may take one).
//! * **retire** applies the round: functions are tombstoned, and each
//!   object whose last unit went leaves the skyline (§IV-B
//!   maintenance, masked promotions peeled before they reach a cache).
//!   An object with a unit left stays where it is.
//!
//! Two callers run it until the run is done, and do nothing else to
//! the run: the evaluation (`run_sb_seeded`, and
//! [`Engine::evaluate_monotone`](crate::Engine::evaluate_monotone) over
//! the same run with monotone functions) and the progressive
//! [`SbStream`].
//!
//! [`SbStream`] exposes the algorithm *progressively*: stable pairs are
//! yielded as soon as they are identified, which is the paper's
//! motivating deployment (a booking site confirming reservations while
//! the rest of the batch is still being matched). Query batches that
//! arrive over time against one inventory (§I) are one stream
//! [reloaded](SbStream::load) batch after batch: the maintained skyline
//! with its plists survives, so each batch pays only for its own
//! best-pair search plus the maintenance its assignments cause — where
//! the alternative would run BBS again for every batch.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use mpq_rtree::{IoStats, NodeSource};
use mpq_skyline::bbs::compute_skyline_excluding_with;
use mpq_skyline::{SkylineMaintainer, SkylineStats};
use mpq_ta::{FunctionSet, ReverseTopOne, TaStats, ThresholdMode};

use crate::capacity::Mask;
use crate::engine::{validate_functions, RequestOptions};
use crate::error::MpqError;
use crate::matching::{Matching, Pair, RunMetrics};
use crate::scratch::{Assigned, Scratch};
use crate::seed::EvalSeed;

/// Certified reverse-top-`M` cached per skyline object. Deeper lists
/// amortize one TA scan over more function removals; the marginal scan
/// depth is small because the threshold, not the rank count, dominates
/// termination (measured sweet spot on the paper's workloads: 8).
pub(crate) const FBEST_RANKS: usize = 8;
/// Top-`K` skyline objects cached per function.
const OBEST_RANKS: usize = 8;

/// The threshold of a served request's reverse top-1 scans: §IV-A's
/// tight one. The naive threshold and the scan of `F` (`None`) are
/// ablations a [`Variant`](crate::Variant) asks for.
pub(crate) const SERVED_THRESHOLD: Option<ThresholdMode> = Some(ThresholdMode::Tight);

/// Round-local buffers of the SB matching loop, reused across rounds
/// (and, through [`Scratch`], across runs) so a round allocates nothing.
///
/// Every field is cleared before use; the buffers carry capacity, never
/// state, between rounds.
#[derive(Debug, Default)]
pub(crate) struct RoundBufs {
    /// This round's mutually-best pairs — what `SbRun::discover` leaves
    /// behind.
    pairs: Vec<Pair>,
    /// The objects among them whose last unit this round took.
    departed: Vec<u64>,
    /// By fid: is the function some skyline object's current best?
    fbest_fns: Vec<bool>,
    /// The objects one skyline removal takes out (see [`peel_masked`]).
    wave: Vec<u64>,
    /// The promotions that removal leaves on the skyline.
    promoted: Vec<u64>,
    /// Per-loop best function per skyline object, by its position in
    /// the loop's skyline (SB-rescan only).
    rescan_best: Vec<(u32, f64)>,
}

/// Remove the objects in `bufs.wave` from the maintained skyline, then
/// every object that removal promotes — its dominator just left — and
/// the `mask` hides, wave after wave until the skyline is clean, so a
/// masked object never reaches the caches. The promotions that stay are
/// left in `bufs.promoted`; `bufs.wave` comes back empty. The time spent
/// is added to `spent`.
fn peel_masked<R: NodeSource>(
    maintainer: &mut SkylineMaintainer,
    src: &R,
    bufs: &mut RoundBufs,
    mask: &Mask,
    spent: &mut Duration,
) {
    let start = Instant::now();
    bufs.promoted.clear();
    while !bufs.wave.is_empty() {
        let promoted = maintainer.remove(&bufs.wave, src);
        bufs.wave.clear();
        for &oid in promoted {
            if mask.invisible(oid) {
                bufs.wave.push(oid);
            } else {
                bufs.promoted.push(oid);
            }
        }
    }
    *spent += start.elapsed();
}

/// What a round asks of the functions `F` (see the [module
/// docs](self)). Function ids are dense and only ever die.
pub(crate) trait FunctionSide {
    /// Functions, assigned or not: the ids are `0..len`.
    fn len(&self) -> usize;

    /// Functions not assigned yet.
    fn n_alive(&self) -> usize;

    /// Is `fid` not assigned yet?
    fn is_alive(&self, fid: u32) -> bool;

    /// Assign `fid`, for good.
    fn remove(&mut self, fid: u32);

    /// `fid`'s score of `point`.
    fn score(&self, fid: u32, point: &[f64]) -> f64;

    /// Certified top alive functions for `point` — the best one at
    /// least, sorted by `(score desc, fid asc)` — written over `list`
    /// (rank-list cache fill).
    fn best_functions(&mut self, point: &[f64], list: &mut Vec<(u32, f64)>);

    /// The reverse top-1 scans' counters, where there is an index.
    fn ta_stats(&self) -> Option<TaStats>;
}

/// A linear request's function side: the working copy of its
/// [`FunctionSet`] and, unless the run scans `F`, the copy's reverse
/// top-1 index.
struct Linear {
    fs: FunctionSet,
    rt1: Option<ReverseTopOne>,
    /// The scans' threshold; `None` scans `F` instead.
    threshold: Option<ThresholdMode>,
}

impl Linear {
    /// `functions`, copied into the buffers of `scratch`'s working set
    /// (`SbRun::into_scratch` hands them back).
    fn new(
        scratch: &mut Scratch,
        functions: &FunctionSet,
        threshold: Option<ThresholdMode>,
    ) -> Linear {
        let fs = std::mem::replace(&mut scratch.fs, FunctionSet::new(1));
        let mut side = Linear {
            fs,
            rt1: None,
            threshold,
        };
        side.load(functions);
        side
    }

    /// Replace the working copy with `functions` (buffers reused) and
    /// build its reverse top-1 index.
    fn load(&mut self, functions: &FunctionSet) {
        self.fs.copy_from(functions);
        self.rt1 = self.threshold.map(|_| ReverseTopOne::build(&self.fs));
    }
}

impl FunctionSide for Linear {
    fn len(&self) -> usize {
        self.fs.len()
    }

    #[inline]
    fn n_alive(&self) -> usize {
        self.fs.n_alive()
    }

    #[inline]
    fn is_alive(&self, fid: u32) -> bool {
        self.fs.is_alive(fid)
    }

    #[inline]
    fn remove(&mut self, fid: u32) {
        self.fs.remove(fid);
    }

    #[inline]
    fn score(&self, fid: u32, point: &[f64]) -> f64 {
        self.fs.score(fid, point)
    }

    /// Scan mode certifies only the top-1, so its lists hold one entry.
    fn best_functions(&mut self, point: &[f64], list: &mut Vec<(u32, f64)>) {
        match (&mut self.rt1, self.threshold) {
            (Some(rt1), Some(t)) => rt1.top_m_for(&self.fs, point, FBEST_RANKS, t, list),
            _ => {
                list.clear();
                list.extend(self.fs.scan_best(point));
            }
        }
    }

    fn ta_stats(&self) -> Option<TaStats> {
        self.rt1.as_ref().map(ReverseTopOne::stats)
    }
}

/// The state of one SB run — the only SB state machine in the crate
/// (see the [module docs](self)).
pub(crate) struct SbRun<R: NodeSource, F> {
    src: R,
    io_start: IoStats,
    /// The maintainer's counters when the run took it over: a resumed
    /// run does not report the seed's BBS as its own work.
    sky_start: SkylineStats,
    skyline: SkylineMaintainer,
    functions: F,
    /// What the run must not see, for its whole life.
    mask: Mask,
    /// Report every mutually-best pair of a round, or the first alone.
    multi_pair: bool,
    /// The fbest/obest rank-list caches and the round-local buffers.
    scratch: Scratch,
    metrics: RunMetrics,
}

impl<R: NodeSource, F: FunctionSide> SbRun<R, F> {
    /// Start a run of `functions` over `src`: prime the skyline —
    /// cold (BBS over the whole source) or cloned from `seed`, the same
    /// source's BBS snapshot — and peel every object the `mask` hides
    /// off it. Either way the run holds exactly the skyline of its
    /// inventory, so the matching loop downstream cannot tell the
    /// histories apart. Every clone shares what BBS recorded (the build
    /// ends frozen, see `mpq_skyline::maintain`): none copies a member
    /// or a plist.
    pub(crate) fn new(
        src: R,
        mut scratch: Scratch,
        functions: F,
        mask: Mask,
        multi_pair: bool,
        seed: Option<&SkylineMaintainer>,
    ) -> SbRun<R, F> {
        scratch.reset_rank_lists(functions.len());
        let io_start = src.io_snapshot();
        let sky_start = seed.map(SkylineMaintainer::stats).unwrap_or_default();
        let mut skyline = match seed {
            Some(snapshot) => snapshot.clone(),
            None => SkylineMaintainer::build(&src),
        };
        let mut metrics = RunMetrics::default();
        let bufs = &mut scratch.round;
        bufs.wave.clear();
        let members = skyline.iter().map(|e| e.oid);
        bufs.wave.extend(members.filter(|&oid| mask.invisible(oid)));
        peel_masked(&mut skyline, &src, bufs, &mask, &mut metrics.maintain);
        SbRun {
            src,
            io_start,
            sky_start,
            skyline,
            functions,
            mask,
            multi_pair,
            scratch,
            metrics,
        }
    }

    /// True once every function is assigned or the skyline drained (it
    /// can never refill).
    pub(crate) fn is_done(&self) -> bool {
        self.functions.n_alive() == 0 || self.skyline.is_empty()
    }

    /// Every counter since the pin, or since the last
    /// [`load`](SbRun::load). `elapsed` is left to the caller, who
    /// knows what it is timing.
    pub(crate) fn metrics(&self) -> RunMetrics {
        let mut m = self.metrics;
        m.io = self.src.io_snapshot().since(self.io_start);
        let since = |now, then| now - then;
        m.skyline = Some(zip_stats(self.skyline.stats(), self.sky_start, since));
        m.ta = self.functions.ta_stats();
        m
    }

    /// Run rounds until the run is done; their pairs, in emission
    /// order.
    pub(crate) fn drain(&mut self) -> Vec<Pair> {
        let budget = self.functions.n_alive().min(self.src.len() as usize);
        let mut pairs: Vec<Pair> = Vec::with_capacity(budget);
        while !self.is_done() {
            pairs.extend_from_slice(self.round());
        }
        pairs
    }

    /// One whole round (Algorithm 1 lines 3–9), the only loop body:
    /// discover the mutually-best pairs, let each take one unit of its
    /// object — an object of an un-capacitated request has exactly the
    /// one — and retire the functions together with the objects whose
    /// last unit went. What retiring them promotes is masked by the
    /// run's one predicate, read *after* the round's takes.
    pub(crate) fn round(&mut self) -> &[Pair] {
        self.discover();
        let pairs = std::mem::take(&mut self.scratch.round.pairs);
        let mut departed = std::mem::take(&mut self.scratch.round.departed);
        departed.clear();
        let mask = &mut self.mask;
        departed.extend(pairs.iter().map(|p| p.oid).filter(|&oid| mask.take(oid)));
        self.retire(&pairs, &departed);
        self.scratch.round.departed = departed;
        self.scratch.round.pairs = pairs;
        &self.scratch.round.pairs
    }

    /// First half of a round: refresh the fbest/obest rank lists
    /// against the skyline and leave this round's
    /// mutually-best pairs, canonically sorted, in the round buffers
    /// (only the first without `multi_pair`). Changes nothing a matching
    /// depends on, so asking twice answers the same.
    ///
    /// All round-local collections live in the scratch, so a round
    /// performs no heap allocation once the buffers are warm.
    ///
    /// Precondition: the run is not [done](SbRun::is_done).
    fn discover(&mut self) {
        let Scratch {
            fbest,
            obest,
            round: bufs,
            ..
        } = &mut self.scratch;
        let fs = &mut self.functions;
        let skyline = &self.skyline;
        let start = Instant::now();
        self.metrics.loops += 1;

        // 1. Every skyline object needs a valid best function: drain dead
        // prefix entries from its rank list; if the list empties, re-run
        // the (top-M) reverse search. A surviving head entry is the true
        // reverse top-1 because removals can only have deleted
        // better-ranked functions.
        for e in skyline.iter() {
            if e.member >= fbest.len() {
                fbest.resize_with(e.member + 1, Vec::new);
            }
            let list = &mut fbest[e.member];
            let dead = list.iter().take_while(|&&(fid, _)| !fs.is_alive(fid));
            list.drain(..dead.count());
            if list.is_empty() {
                self.metrics.reverse_top1_calls += 1;
                fs.best_functions(e.point, list);
                debug_assert!(!list.is_empty(), "fs.n_alive() > 0");
            }
        }

        // 2. For each function that is some object's best, ensure a valid
        // best-object rank list: drain entries that left the skyline; a
        // surviving head is the true maximum (better-ranked objects were
        // all assigned, and promotions were folded in); empty ⇒ full
        // skyline rescan.
        bufs.fbest_fns.clear();
        bufs.fbest_fns.resize(obest.len(), false);
        for e in skyline.iter() {
            bufs.fbest_fns[fbest[e.member][0].0 as usize] = true;
        }
        for (fid, list) in obest.iter_mut().enumerate() {
            if !bufs.fbest_fns[fid] {
                continue;
            }
            let gone = list
                .iter()
                .take_while(|&&((oid, _), _)| !skyline.contains(oid));
            list.drain(..gone.count());
            if list.is_empty() {
                // Filling a list inserts before it truncates.
                list.reserve(OBEST_RANKS + 1);
                for e in skyline.iter() {
                    let s = fs.score(fid as u32, e.point);
                    insert_ranked(list, OBEST_RANKS, (e.oid, e.member), s);
                }
                debug_assert!(!list.is_empty(), "skyline is non-empty");
            }
        }

        // 3. Mutually-best pairs (Property 1); an obest entry names its
        // object's fbest row.
        bufs.pairs.clear();
        for (fid, list) in obest.iter().enumerate() {
            if !bufs.fbest_fns[fid] {
                continue;
            }
            let ((oid, member), score) = list[0];
            let fid = fid as u32;
            if fbest[member][0].0 == fid {
                bufs.pairs.push(Pair { fid, oid, score });
            }
        }
        finalize_loop_pairs(&mut bufs.pairs, self.multi_pair);
        assert!(
            !bufs.pairs.is_empty(),
            "SB invariant violated: the globally best remaining pair is always \
             mutually best, so every loop must emit at least one pair"
        );
        self.metrics.discover += start.elapsed();
    }

    /// Second half of a round: the functions of `pairs` are assigned and
    /// the `departed` objects have no unit left — tombstone, empty the
    /// obest rows of the assigned functions, maintain the skyline. An
    /// object that keeps a unit stays on the skyline; the function it
    /// just took heads its fbest list and is drained like any other dead
    /// one. A departed member's fbest row is never read again: member
    /// numbers are not reused.
    fn retire(&mut self, pairs: &[Pair], departed: &[u64]) {
        let Scratch {
            obest, round: bufs, ..
        } = &mut self.scratch;
        let fs = &mut self.functions;
        // Assigned functions never return: empty their obest rows. Dead
        // functions inside fbest lists are drained lazily in step 1.
        for p in pairs {
            fs.remove(p.fid);
            obest[p.fid as usize].clear();
        }
        bufs.wave.clear();
        bufs.wave.extend_from_slice(departed);
        // Skyline maintenance (§IV-B): promotions are folded into every
        // cached obest rank list to preserve its "nothing better than the
        // stored minimum is missing" invariant. Dead objects inside obest
        // lists are drained lazily in step 2.
        let spent = &mut self.metrics.maintain;
        peel_masked(&mut self.skyline, &self.src, bufs, &self.mask, spent);
        for &oid in &bufs.promoted {
            let e = self.skyline.get(oid).expect("a kept promotion");
            let cached = obest
                .iter_mut()
                .enumerate()
                .filter(|(_, list)| !list.is_empty());
            for (fid, list) in cached {
                let s = fs.score(fid as u32, e.point);
                fold_promotion(list, OBEST_RANKS, (oid, e.member), s);
            }
        }
    }
}

impl<R: NodeSource> SbRun<R, Linear> {
    /// Match `functions` against what is left of the skyline. The
    /// caches go with the old functions; every counter restarts; the
    /// mask stays.
    fn load(&mut self, functions: &FunctionSet) {
        self.functions.load(functions);
        self.scratch.reset_rank_lists(functions.len());
        self.io_start = self.src.io_snapshot();
        self.sky_start = self.skyline.stats();
        self.metrics = RunMetrics::default();
    }

    /// Hand the working state back for the next run.
    fn into_scratch(self) -> Scratch {
        let mut scratch = self.scratch;
        scratch.fs = self.functions.fs;
        scratch
    }
}

/// Build a progressive SB stream over a node source the stream *owns*
/// (the engine's run-scoped pins). The objects the request
/// cannot see — excluded, or without a unit of capacity — are removed
/// from the initial skyline along with every such promotion they
/// uncover. Every knob of `options` carries over to the stream.
pub(crate) fn stream_on<R: NodeSource>(
    src: R,
    functions: &FunctionSet,
    options: &RequestOptions,
) -> SbStream<R> {
    let mut scratch = Scratch::new();
    let linear = Linear::new(&mut scratch, functions, SERVED_THRESHOLD);
    let mask = Mask::new(options);
    let run = SbRun::new(src, scratch, linear, mask, options.multi_pair, None);
    SbStream {
        run,
        pending: VecDeque::new(),
    }
}

/// Non-streaming SB evaluation of one request over `pins`: the pinned
/// source and the one committed inventory version it reads (see
/// `Engine::pin`). `threshold` is the
/// reverse top-1 scans' — [`SERVED_THRESHOLD`] for every served
/// request; the naive one, or `None` to scan `F`, for the §IV-A
/// ablations. The entire
/// per-run state —
/// working function set, rank-list caches, round buffers — is served
/// from a reusable [`Scratch`] (lent to the run, handed back at the
/// end): after the first request on a warm scratch, a run makes no
/// per-round allocations, no per-run `FunctionSet` clone and no rank
/// list of its own; what it copies is its mask — the request's
/// exclusions and capacities, if it has any.
///
/// Produces exactly the pairs the progressive [`SbStream`] would, in the
/// same order (asserted by tests), capacitated or not: both drive
/// `SbRun::round` and nothing else.
///
/// Seed-capable, and the one place that decides it. A seed primes the
/// run only if its version equals the one the pins read — its pruned
/// entries reference pages of exactly that epoch: `seed` if it is at
/// that version, else `cell`, the seed cell of that
/// version, which the run fills by capturing BBS over its own pins
/// (`EvalSeed::capture`) if nobody has yet, and waits on if another run
/// is filling it. A run that filled the cell reports that BBS as its
/// own work, I/O and time, as a cold run does. Pass `None, None` for a
/// plain cold run. Every path runs the identical round body over
/// content-identical skylines, so seeded matchings are
/// score-bit-identical to cold ones (pinned by
/// `tests/seed_identity.rs`). The flag beside the matching says whether
/// the run resumed from a seed it did not build.
pub(crate) fn run_sb_seeded<R: NodeSource>(
    (src, version): (R, u64),
    functions: &FunctionSet,
    options: &RequestOptions,
    threshold: Option<ThresholdMode>,
    scratch: &mut Scratch,
    seed: Option<&EvalSeed>,
    cell: Option<&OnceLock<EvalSeed>>,
) -> (Matching, bool) {
    let start = Instant::now();
    let io_start = src.io_snapshot();
    let mut built = false;
    let seed = seed.filter(|s| s.usable_at(version)).or_else(|| {
        Some(cell?.get_or_init(|| {
            built = true;
            EvalSeed::capture(&src, version)
        }))
    });
    let mut lent = std::mem::take(scratch);
    let linear = Linear::new(&mut lent, functions, threshold);
    let mut run = SbRun::new(
        src,
        lent,
        linear,
        Mask::new(options),
        options.multi_pair,
        seed.map(|s| &s.skyline),
    );
    if built {
        run.io_start = io_start;
        run.sky_start = SkylineStats::default();
    }
    let pairs = run.drain();
    let mut metrics = run.metrics();
    metrics.elapsed = start.elapsed();
    *scratch = run.into_scratch();
    (Matching::new(pairs, metrics), seed.is_some() && !built)
}

/// The §IV-B strawman: full BBS recomputation per loop, no rank-list
/// caches — but still scratch-served, so the per-loop BBS heap, skyline
/// buffer, and pair buffers are reused instead of reallocated. The
/// request's excluded objects are invisible throughout; best functions
/// are found by tight-threshold TA scans, as a served request finds
/// them.
pub(crate) fn run_rescan_on<R: NodeSource>(
    src: &R,
    functions: &FunctionSet,
    options: &RequestOptions,
    scratch: &mut Scratch,
) -> Matching {
    let start = Instant::now();
    let io_start = src.io_snapshot();
    scratch.fs.copy_from(functions);
    let fs = &mut scratch.fs;
    let mut assigned = Assigned::new(&options.exclude, &mut scratch.assigned);
    let bufs = &mut scratch.round;
    let mut rt1 = ReverseTopOne::build(fs);
    let mut metrics = RunMetrics::default();
    let mut pairs: Vec<Pair> = Vec::new();

    while fs.n_alive() > 0 {
        compute_skyline_excluding_with(
            src,
            |o| assigned.contains(o),
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
        for (_, point) in sky {
            metrics.reverse_top1_calls += 1;
            let best = rt1.best_for_with(fs, point, ThresholdMode::Tight);
            bufs.rescan_best.push(best.expect("functions remain alive"));
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
    metrics.ta = Some(rt1.stats());
    Matching::new(pairs, metrics)
}

/// `op` applied counter by counter.
fn zip_stats(a: SkylineStats, b: SkylineStats, op: impl Fn(u64, u64) -> u64) -> SkylineStats {
    SkylineStats {
        nodes_expanded: op(a.nodes_expanded, b.nodes_expanded),
        entries_pruned: op(a.entries_pruned, b.entries_pruned),
        entries_rehomed: op(a.entries_rehomed, b.entries_rehomed),
        entries_reheaped: op(a.entries_reheaped, b.entries_reheaped),
        points_promoted: op(a.points_promoted, b.points_promoted),
        dominance_checks: op(a.dominance_checks, b.dominance_checks),
    }
}

/// Given the current skyline and each skyline object's best function
/// (`fbest[i]` is `sky[i]`'s), compute the mutually-best pairs of this
/// loop (Property 1): for every function `f` that is the best of some
/// object, find its best skyline object `f.obest`; report
/// `(f, f.obest)` iff `fbest(f.obest) == f`. With `multi_pair == false`,
/// only the canonical best pair is kept. `fbest_fns` is scratch storage,
/// by fid; the pairs are written into `out` (cleared first).
fn mutual_pairs(
    sky: &[(u64, Box<[f64]>)],
    fbest: &[(u32, f64)],
    fs: &FunctionSet,
    multi_pair: bool,
    fbest_fns: &mut Vec<bool>,
    out: &mut Vec<Pair>,
) {
    fbest_fns.clear();
    fbest_fns.resize(fs.len(), false);
    for &(fid, _) in fbest {
        fbest_fns[fid as usize] = true;
    }
    out.clear();
    for fid in (0..fs.len() as u32).filter(|&fid| fbest_fns[fid as usize]) {
        // obest by full scan (the rescan path has no caches)
        let mut best: Option<(usize, f64)> = None;
        for (at, (oid, point)) in sky.iter().enumerate() {
            let s = fs.score(fid, point);
            let better = match best {
                None => true,
                Some((b, bs)) => s > bs || (s == bs && *oid < sky[b].0),
            };
            if better {
                best = Some((at, s));
            }
        }
        let (at, score) = best.expect("skyline is non-empty");
        if fbest[at].0 == fid {
            let oid = sky[at].0;
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
/// Implements [`Iterator`]: each item is the next stable pair, in the
/// order [`Matching::pairs`] documents — the evaluation's, pair for
/// pair, capacitated or not.
///
/// Generic over the node source it *owns*: an
/// [`mpq_rtree::IoSession`] when streaming from a shared
/// [`Engine`](crate::Engine) (per-run I/O attribution).
pub struct SbStream<R: NodeSource> {
    run: SbRun<R, Linear>,
    pending: VecDeque<Pair>,
}

impl<R: NodeSource> SbStream<R> {
    /// Metrics accumulated so far (typically read after exhaustion).
    /// `elapsed` is not populated by the stream — callers time their own
    /// consumption (see [`crate::MatchRequest::evaluate`]).
    pub fn metrics(&self) -> RunMetrics {
        self.run.metrics()
    }

    /// Consume the stream, returning the final metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics()
    }

    /// Number of objects currently on the maintained skyline.
    pub fn skyline_len(&self) -> usize {
        self.run.skyline.len()
    }

    /// Number of functions still awaiting assignment.
    pub fn unassigned_functions(&self) -> usize {
        self.run.functions.n_alive()
    }

    /// Match the next batch of `functions` against what the stream left
    /// of the inventory — query batches arriving over time (§I). What
    /// carries over is the skyline with its plists, the request's
    /// exclusions and what is left of its capacities: every object an
    /// earlier batch took stays taken. The functions are replaced, and
    /// every counter of [`metrics`](SbStream::metrics) restarts, so once
    /// the batch is drained they report that batch alone. The stream
    /// keeps its `multi_pair`.
    ///
    /// Refused — with the stream untouched — for an empty or
    /// mismatched batch ([`MpqError::EmptyFunctions`],
    /// [`MpqError::DimensionMismatch`]) and, with
    /// [`MpqError::UnsupportedRequest`], before the stream is drained:
    /// a batch is matched only once the one before it is done.
    ///
    /// ```
    /// use mpq_core::Engine;
    /// use mpq_rtree::PointSet;
    /// use mpq_ta::FunctionSet;
    ///
    /// let mut inventory = PointSet::new(2);
    /// for p in [[0.9_f64, 0.2], [0.2, 0.9], [0.7, 0.7], [0.4, 0.4]] {
    ///     inventory.push(&p);
    /// }
    /// let engine = Engine::builder().objects(&inventory).build().unwrap();
    /// let balanced = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
    ///
    /// // the first customer batch takes the best match...
    /// let mut stream = engine.stream(&balanced).unwrap();
    /// assert_eq!(stream.next().unwrap().oid, 2); // (0.7, 0.7) wins
    /// assert_eq!(stream.next(), None);
    ///
    /// // ...the next batch sees only what is left
    /// stream.load(&balanced).unwrap();
    /// assert_eq!(stream.next().unwrap().oid, 0);
    /// ```
    pub fn load(&mut self, functions: &FunctionSet) -> Result<(), MpqError> {
        validate_functions(self.run.src.dim(), functions)?;
        if !self.pending.is_empty() || !self.run.is_done() {
            return Err(MpqError::UnsupportedRequest(
                "a stream loads its next batch once drained",
            ));
        }
        self.run.load(functions);
        Ok(())
    }

    /// One SB round, its pairs queued.
    fn loop_once(&mut self) {
        self.pending.extend(self.run.round());
    }

    /// Test-only invariant check: every current skyline object scoring
    /// above an obest list's stored minimum must be in that list.
    #[cfg(test)]
    fn check_obest_invariant(&self) {
        for (fid, list) in self.run.scratch.obest.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            let ((mo, _), ms) = *list.last().unwrap();
            for e in self.run.skyline.iter() {
                let s = self.run.functions.score(fid as u32, e.point);
                let better = s > ms || (s == ms && e.oid < mo);
                if better && !list.iter().any(|&(o, _)| o == (e.oid, e.member)) {
                    panic!(
                        "loop {}: J violated for fid={fid}: skyline oid={} score={s} \
                         beats stored min ({mo}, {ms}) but is missing; list={list:?}",
                        self.run.metrics.loops, e.oid
                    );
                }
            }
        }
    }
}

/// Insert `(id, s)` into a rank list sorted by `(score desc, id asc)`,
/// keeping at most `k` entries. Used only while *building* a list by a
/// full scan, where lowering the current minimum is correct.
#[inline]
pub(crate) fn insert_ranked<I: Copy + Ord>(list: &mut Vec<(I, f64)>, k: usize, id: I, s: f64) {
    if list.len() == k {
        let (wo, ws) = list[k - 1];
        if s < ws || (s == ws && id > wo) {
            return;
        }
    }
    let pos = list
        .iter()
        .position(|&(o, v)| s > v || (s == v && id < o))
        .unwrap_or(list.len());
    list.insert(pos, (id, s));
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
pub(crate) fn fold_promotion<I: Copy + Ord>(list: &mut Vec<(I, f64)>, k: usize, oid: I, s: f64) {
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
        if self.pending.is_empty() && !self.run.is_done() {
            self.loop_once();
        }
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, Engine, MatchRequest};
    use crate::matching::IndexConfig;
    use crate::reference::{reference_matching, reference_matching_excluding};
    use crate::verify::verify_stable;
    use mpq_datagen::{Distribution, WorkloadBuilder};
    use mpq_rtree::PointSet;
    use std::collections::BTreeSet;

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
        while !stream.run.is_done() {
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
        let single = run(SINGLE_PAIR, &w.objects, &w.functions);
        assert_eq!(sorted(single.pairs()), sorted(baseline.pairs()));
        let engine = engine(&w.objects);
        for algorithm in [
            Algorithm::SbScan,
            Algorithm::SbNaiveThreshold,
            Algorithm::SbRescan,
        ] {
            let m = engine.request(&w.functions).algorithm(algorithm);
            assert_eq!(
                sorted(m.evaluate().unwrap().pairs()),
                sorted(baseline.pairs()),
                "{algorithm} diverged"
            );
        }
    }

    /// What a stream reports between pairs is the state of the
    /// inventory's skyline: a stream that has retired some objects holds
    /// the skyline a fresh one would start from with those objects
    /// excluded.
    #[test]
    fn a_half_drained_stream_reports_the_skyline() {
        let w = WorkloadBuilder::new().objects(400).functions(12).dim(3);
        let w = w.seed(37).build();
        let engine = engine(&w.objects);
        let request = || engine.request(&w.functions).multi_pair(false);
        let mut stream = request().stream().unwrap();
        let skyline = SkylineMaintainer::build(engine.tree()).len();
        assert_eq!(stream.skyline_len(), skyline);
        assert_eq!(stream.unassigned_functions(), 12);

        // One pair per round, so nothing is retired ahead of what was
        // yielded.
        let drained: Vec<Pair> = stream.by_ref().take(6).collect();
        assert_eq!(stream.unassigned_functions(), 6);
        let gone = drained.iter().map(|p| p.oid);
        let fresh = request().exclude(gone).stream().unwrap();
        assert_eq!(
            stream.skyline_len(),
            fresh.skyline_len(),
            "the skyline of what is left"
        );
        let whole = request().evaluate().unwrap();
        let streamed: Vec<Pair> = drained.into_iter().chain(stream).collect();
        assert_eq!(streamed, whole.pairs());
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

    /// The order contract of [`Matching::pairs`], on a request that
    /// shows why it is worded as it is: canonical within a round, round
    /// heads descending, the whole list not.
    #[test]
    fn multi_pair_emission_is_canonical_per_round_only() {
        let w = WorkloadBuilder::new()
            .objects(3000)
            .functions(120)
            .dim(3)
            .seed(97)
            .build();
        let engine = engine(&w.objects);
        let whole = engine.request(&w.functions).evaluate().unwrap();
        let inversions = |pairs: &[Pair]| pairs.windows(2).filter(|w| w[1].beats(&w[0])).count();
        assert_eq!(whole.len(), 120);
        assert_eq!(inversions(whole.pairs()), 23, "not globally descending");

        let mut stream = engine.stream(&w.functions).unwrap();
        let (mut streamed, mut heads) = (Vec::new(), Vec::new());
        while !stream.run.is_done() {
            stream.loop_once();
            let round: Vec<Pair> = stream.pending.drain(..).collect();
            assert_eq!(inversions(&round), 0, "canonical within a round");
            heads.push(round[0]);
            streamed.extend(round);
        }
        assert_eq!(streamed, whole.pairs(), "the stream inverts alike");
        assert_eq!(inversions(&heads), 0, "round heads descend");

        let one_by_one = engine.request(&w.functions).multi_pair(false);
        let one_by_one = one_by_one.evaluate().unwrap();
        assert_eq!(one_by_one.pairs(), whole.sorted_pairs());
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

    /// A resumed run counts its own skyline work, from the resume: the
    /// seed's BBS — which it skipped — is exactly what it reports less
    /// than the same request run cold.
    #[test]
    fn a_seeded_run_does_not_report_the_seeds_build() {
        let w = WorkloadBuilder::new()
            .objects(2000)
            .functions(40)
            .dim(3)
            .distribution(Distribution::AntiCorrelated)
            .seed(79)
            .build();
        let engine = engine(&w.objects);
        let mut scratch = Scratch::new();
        let request = || engine.request(&w.functions);
        let (cold, seed) = request().evaluate_seeded(&mut scratch, None).unwrap();
        let seed = seed.expect("a cold run captures");
        let (seeded, _) = request()
            .evaluate_seeded(&mut scratch, Some(&seed))
            .unwrap();
        assert_eq!(cold.pairs(), seeded.pairs());

        let build = SkylineMaintainer::build(engine.tree()).stats();
        let cold = cold.metrics().skyline.unwrap();
        let seeded = seeded.metrics().skyline.unwrap();
        assert!(seeded.nodes_expanded < cold.nodes_expanded);
        assert!(seeded.dominance_checks < cold.dominance_checks);
        let skipped = zip_stats(cold, seeded, |cold, seeded| cold - seeded);
        assert_eq!(skipped.nodes_expanded, build.nodes_expanded);
        assert_eq!(skipped.dominance_checks, build.dominance_checks);
        assert_eq!(skipped.points_promoted, build.points_promoted);
        assert_eq!(skipped.entries_pruned, build.entries_pruned);
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
        assert!(met.discover.as_nanos() > 0 && met.maintain.as_nanos() > 0);
        assert!(met.discover + met.maintain <= met.elapsed);
    }

    /// `functions` cut into batches of `size`, in function-id order.
    fn batches(functions: &FunctionSet, size: usize) -> Vec<FunctionSet> {
        let rows: Vec<Vec<f64>> = (functions.iter_alive())
            .map(|(_, weights)| weights.to_vec())
            .collect();
        let batch = |rows: &[Vec<f64>]| FunctionSet::from_rows(functions.dim(), rows);
        rows.chunks(size).map(batch).collect()
    }

    /// The pairs of a stream's current batch, drained.
    fn next_batch<R: NodeSource>(stream: &mut SbStream<R>) -> Vec<Pair> {
        stream.by_ref().collect()
    }

    #[test]
    fn single_batch_equals_offline_sb() {
        let w = WorkloadBuilder::new()
            .objects(300)
            .functions(40)
            .dim(3)
            .seed(91)
            .build();
        let eng = engine(&w.objects);
        let offline = eng.request(&w.functions).evaluate().unwrap();
        let online = next_batch(&mut eng.stream(&w.functions).unwrap());
        assert_eq!(sorted(&online), sorted(offline.pairs()));
    }

    #[test]
    fn batches_consume_inventory_sequentially() {
        let w = WorkloadBuilder::new()
            .objects(400)
            .functions(60)
            .dim(2)
            .distribution(Distribution::AntiCorrelated)
            .seed(92)
            .build();
        let batches = batches(&w.functions, 20);
        let eng = engine(&w.objects);
        let mut stream = eng.stream(&batches[0]).unwrap();
        let mut consumed: BTreeSet<u64> = BTreeSet::new();
        for batch in &batches {
            if !consumed.is_empty() {
                stream.load(batch).unwrap();
            }
            let got = next_batch(&mut stream);
            // ground truth: reference matching over the remaining objects
            let expect =
                reference_matching_excluding(&w.objects, batch, &|o| consumed.contains(&o));
            assert_eq!(sorted(&got), sorted(&expect));
            for p in got {
                assert!(consumed.insert(p.oid), "object reserved twice");
            }
        }
        assert_eq!(consumed.len(), 60);
    }

    #[test]
    fn inventory_exhaustion_across_batches() {
        let w = WorkloadBuilder::new()
            .objects(15)
            .functions(30)
            .dim(2)
            .seed(93)
            .build();
        let rows: Vec<Vec<f64>> = (w.functions.iter_alive())
            .map(|(_, weights)| weights.to_vec())
            .collect();
        let eng = engine(&w.objects);
        let mut stream = eng.stream(&FunctionSet::from_rows(2, &rows[..10])).unwrap();
        assert_eq!(next_batch(&mut stream).len(), 10);
        stream
            .load(&FunctionSet::from_rows(2, &rows[10..]))
            .unwrap();
        assert_eq!(
            next_batch(&mut stream).len(),
            5,
            "only 5 objects remain for 20 users"
        );
        assert_eq!(stream.skyline_len(), 0);
        stream.load(&FunctionSet::from_rows(2, &rows[..3])).unwrap();
        assert!(
            next_batch(&mut stream).is_empty(),
            "an empty inventory matches nobody"
        );
    }

    /// The first batch counts from the pin, its BBS included, as every
    /// evaluation does; a loaded batch counts its own work alone.
    #[test]
    fn later_batches_cost_less_io_than_the_initial_skyline() {
        let w = WorkloadBuilder::new()
            .objects(5_000)
            .functions(100)
            .dim(3)
            .seed(94)
            .build();
        let batches = batches(&w.functions, 50);
        let eng = engine(&w.objects);
        let init = mpq_rtree::IoSession::new(eng.tree());
        SkylineMaintainer::build(&init);
        let init_io = init.stats().logical; // the initial BBS

        let mut stream = eng.stream(&batches[0]).unwrap();
        let b1 = next_batch(&mut stream).len();
        let b1_io = stream.metrics().io.logical;
        stream.load(&batches[1]).unwrap();
        let b2 = next_batch(&mut stream).len();
        assert_eq!(b1 + b2, 100);
        assert!(b1_io >= init_io, "the first batch paid for the skyline");
        // a later batch's own I/O is small relative to the initial
        // skyline computation: the point of keeping the stream alive
        assert!(stream.metrics().io.logical < init_io);
    }

    #[test]
    fn a_stream_rejects_mismatched_batches() {
        let w = WorkloadBuilder::new()
            .objects(30)
            .functions(5)
            .dim(2)
            .seed(95)
            .build();
        let eng = engine(&w.objects);
        let mut stream = eng.stream(&w.functions).unwrap();
        let err = stream.load(&FunctionSet::new(3)).unwrap_err();
        assert_eq!(err, MpqError::EmptyFunctions);
        let err = stream
            .load(&FunctionSet::from_rows(3, &[vec![0.3, 0.3, 0.4]]))
            .unwrap_err();
        assert!(matches!(err, MpqError::DimensionMismatch { .. }));
    }

    /// A batch is loaded once the one before it is drained — not while
    /// a pair of it is still queued — and a refused load leaves the
    /// stream as it was.
    #[test]
    fn a_stream_loads_only_once_drained() {
        let w = WorkloadBuilder::new()
            .objects(300)
            .functions(30)
            .dim(3)
            .seed(96)
            .build();
        let batches = batches(&w.functions, 15);
        let eng = engine(&w.objects);
        let whole = next_batch(&mut eng.stream(&batches[0]).unwrap());
        let mut stream = eng.stream(&batches[0]).unwrap();
        let mut got = vec![stream.next().unwrap()];
        let refused = MpqError::UnsupportedRequest("a stream loads its next batch once drained");
        assert_eq!(stream.load(&batches[1]), Err(refused.clone()));
        got.extend(stream.by_ref().take(whole.len() - 2));
        assert_eq!(
            stream.load(&batches[1]),
            Err(refused),
            "one pair still queued"
        );
        got.extend(stream.by_ref());
        assert_eq!(got, whole);
        stream.load(&batches[1]).unwrap();
        assert_eq!(next_batch(&mut stream).len(), 15);
    }

    /// Every counter restarts at a load: three batches' metrics add up
    /// to what the run did since the pin, and a loaded batch's skyline
    /// work is its maintenance alone — not the opening BBS again.
    #[test]
    fn a_loaded_batch_reports_its_own_work() {
        let w = WorkloadBuilder::new()
            .objects(5_000)
            .functions(90)
            .dim(3)
            .distribution(Distribution::AntiCorrelated)
            .seed(97)
            .build();
        let eng = engine(&w.objects);
        let opening = SkylineMaintainer::build(eng.tree()).stats();
        let mut stream = eng.stream(&batches(&w.functions, 30)[0]).unwrap();
        let mut per_batch = Vec::new();
        for (b, batch) in batches(&w.functions, 30).iter().enumerate() {
            if b > 0 {
                stream.load(batch).unwrap();
            }
            assert_eq!(next_batch(&mut stream).len(), 30);
            per_batch.push(stream.metrics());
        }
        for loaded in &per_batch[1..] {
            let sky = loaded.skyline.unwrap();
            assert!(sky.nodes_expanded < opening.nodes_expanded, "{sky:?}");
        }
        let sum = |count: fn(&RunMetrics) -> u64| per_batch.iter().map(count).sum::<u64>();
        let total = stream.run.skyline.stats();
        assert_eq!(
            sum(|m| m.skyline.unwrap().nodes_expanded),
            total.nodes_expanded
        );
        assert_eq!(
            sum(|m| m.skyline.unwrap().dominance_checks),
            total.dominance_checks
        );
        assert_eq!(sum(|m| m.io.logical), stream.run.src.io_snapshot().logical);
        for m in &per_batch {
            assert_eq!(m.ta.unwrap().calls, m.reverse_top1_calls, "a fresh index");
        }
    }

    /// A stream keeps its knobs across loads: one pair a round, so each
    /// batch in the greedy's own order over what the earlier ones left.
    #[test]
    fn a_reloaded_single_pair_stream_is_the_greedy_batch_by_batch() {
        let w = WorkloadBuilder::new()
            .objects(500)
            .functions(60)
            .dim(3)
            .seed(99)
            .build();
        let batches = batches(&w.functions, 20);
        let eng = engine(&w.objects);
        let request = eng.request(&batches[0]).multi_pair(false);
        let mut stream = request.stream().unwrap();
        let mut taken: BTreeSet<u64> = BTreeSet::new();
        for (b, batch) in batches.iter().enumerate() {
            if b > 0 {
                stream.load(batch).unwrap();
            }
            let got = next_batch(&mut stream);
            let expect = reference_matching_excluding(&w.objects, batch, &|o| taken.contains(&o));
            assert_eq!(got, expect, "batch {b}");
            assert_eq!(stream.metrics().loops, 20, "one pair a round");
            taken.extend(got.iter().map(|p| p.oid));
        }
    }

    /// The deployment of the hotel example: room types fill up over the
    /// day. Exclusions and capacities are the request's, carried by the
    /// stream: each batch is the capacitated matching over the units the
    /// earlier ones left.
    #[test]
    fn exclusions_and_capacities_carry_across_batches() {
        use crate::capacity::{reference_capacity_matching, verify_capacity_stable};
        let w = WorkloadBuilder::new()
            .objects(80)
            .functions(90)
            .dim(3)
            .seed(98)
            .build();
        let eng = engine(&w.objects);
        // 79 units, 76 of them visible: the third batch finds 16.
        let caps: Vec<u32> = (0..80).map(|i| (i % 3) as u32).collect();
        let excluded = [3u64, 7, 41];
        let mut visible = caps.clone();
        for oid in excluded {
            visible[oid as usize] = 0;
        }
        let batches = batches(&w.functions, 30);
        let request = eng.request(&batches[0]).exclude(excluded);
        let mut stream = request.capacities(&caps).stream().unwrap();
        for (b, batch) in batches.iter().enumerate() {
            if b > 0 {
                stream.load(batch).unwrap();
            }
            let mut got = next_batch(&mut stream);
            verify_capacity_stable(&w.objects, batch, &visible, &got).unwrap();
            got.sort_unstable();
            let expect = reference_capacity_matching(&w.objects, batch, &visible);
            assert_eq!(got, expect, "batch {b}");
            for p in &got {
                visible[p.oid as usize] -= 1;
            }
        }
        assert_eq!(
            visible.iter().sum::<u32>(),
            0,
            "the last batch fills the rest"
        );
    }
}
