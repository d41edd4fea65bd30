//! Reusable per-run working state for engine evaluations.
//!
//! Every matcher run needs private mutable state: a working copy of the
//! request's [`FunctionSet`] (functions are tombstoned as they are
//! assigned), the objects it has assigned, the SB run's skyline columns
//! (what a run resumed from the inventory's seed writes), the SB
//! rank-list caches, and the per-round buffers of the matching loop. Allocating all of that
//! from scratch per request is invisible for one request and dominant
//! for a high-throughput stream: each worker thread of an
//! [`EngineService`](crate::EngineService) owns one [`Scratch`] and
//! serves its entire request stream from it, so after the first request
//! the per-run state is built by reuse — `clear()` + `copy_from` on warm
//! buffers — instead of fresh heap allocations.
//!
//! Every id a run keys state by is dense, so that state is kept in
//! columns indexed by the id, never in hash tables: the SB rank lists —
//! fixed-stride rows, one column of ids and one of scores — by skyline
//! member number and by function id, the assigned objects of Brute
//! Force and Chain by object id. A run empties the rows it
//! inherits and keeps the columns, so a warm scratch serves the rank
//! lists of a request like the last one without allocating.
//!
//! The skyline columns are `mpq_skyline`'s
//! [`SkylineColumns`]: the tombstones, the tails, the run's own slot
//! arena and members, the link column over the seed's slots and the
//! private scan index. Resuming from a seed copies into them and the run
//! hands them back at its end, so on a warm scratch a resume allocates
//! none of them — whichever engine, inventory or dimensionality the
//! scratch served last. Ablation A2 (SB-rescan) keeps no second BBS and
//! no buffer of its own: its every skyline is the maintainer's BBS
//! written into these columns, and while a run holds them it keeps the
//! last rebuild's here, for the next.
//!
//! A `Scratch` carries **no results**: it never affects what a run
//! computes (asserted by the determinism tests), only how often the
//! allocator is hit. Reuse it across any sequence of requests, engines,
//! and algorithms; it is `Send`, so it can hop worker threads, but it is
//! deliberately not shared (`&mut` everywhere) — one scratch per thread.

use mpq_rtree::SearchBuf;
use mpq_skyline::SkylineColumns;
use mpq_ta::FunctionSet;

use crate::sb::{RankRows, RoundBufs, FBEST_RANKS, OBEST_RANKS};

/// Reusable working state for [`MatchRequest::evaluate_with`]
/// (see the [module docs](self)).
///
/// [`MatchRequest::evaluate_with`]: crate::MatchRequest::evaluate_with
#[derive(Debug)]
pub struct Scratch {
    /// Working copy of the request's functions, refreshed per run with
    /// [`FunctionSet::copy_from`].
    pub(crate) fs: FunctionSet,
    /// The objects assigned so far (Brute Force, Chain), by
    /// oid — ids a tree holds, so the column is as long as the
    /// inventory's id bound at most (see [`Assigned`]).
    pub(crate) assigned: Vec<bool>,
    /// Frontier storage for the short ranked searches of the Brute Force
    /// restart and Chain matchers.
    pub(crate) search: SearchBuf,
    /// The SB run's skyline columns: what a run resumed from a seed
    /// (or from its own BBS) writes — tombstones, tails, its own slot
    /// arena and members, the link column, its private scan index.
    pub(crate) skyline: SkylineColumns,
    /// SB rank-list cache, by skyline member number: the member's
    /// certified top-`M` alive functions.
    pub(crate) fbest: RankRows<u32>,
    /// SB rank-list cache, by fid: the function's top-`K` current
    /// skyline objects, each `(oid, member)`.
    pub(crate) obest: RankRows<(u64, u32)>,
    /// Round-local buffers of the SB matching loop.
    pub(crate) round: RoundBufs,
}

impl Scratch {
    /// An empty scratch. Buffers grow to the workload's size on first
    /// use and are reused afterwards.
    pub fn new() -> Scratch {
        Scratch {
            // placeholder dimensionality; copy_from adopts the source's
            fs: FunctionSet::new(1),
            assigned: Vec::new(),
            search: SearchBuf::new(),
            skyline: SkylineColumns::default(),
            fbest: RankRows::new(FBEST_RANKS),
            obest: RankRows::new(OBEST_RANKS),
            round: RoundBufs::default(),
        }
    }

    /// Empty every rank list, keeping the rows, and give each of
    /// `functions` ids an obest row.
    pub(crate) fn reset_rank_lists(&mut self, functions: usize) {
        self.fbest.reset(0);
        self.obest.reset(functions);
    }
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch::new()
    }
}

/// What a Brute Force or Chain run must skip: the request's
/// exclusions — sorted, and honoured whatever the id — and the objects
/// the run has assigned, marked in the scratch's column by oid.
pub(crate) struct Assigned<'r> {
    excluded: &'r [u64],
    taken: &'r mut Vec<bool>,
}

impl<'r> Assigned<'r> {
    /// A run's view: nothing assigned yet.
    pub(crate) fn new(excluded: &'r [u64], taken: &'r mut Vec<bool>) -> Assigned<'r> {
        taken.clear();
        Assigned { excluded, taken }
    }

    /// Excluded, or assigned by this run?
    pub(crate) fn contains(&self, oid: u64) -> bool {
        self.taken.get(oid as usize).is_some_and(|&taken| taken)
            || self.excluded.binary_search(&oid).is_ok()
    }

    /// Assign `oid`, an object the run's source holds.
    pub(crate) fn insert(&mut self, oid: u64) {
        let at = oid as usize;
        if at >= self.taken.len() {
            self.taken.resize(at + 1, false);
        }
        self.taken[at] = true;
    }
}
