//! Evaluation seeds: the inventory's skyline at one version, kept
//! once and resumed by every request against that inventory.
//!
//! SB rests on one fact (§III-B of the paper): the top-1 object of
//! *every* monotone function lies in the skyline of the remaining
//! objects. The BBS skyline an evaluation starts from therefore depends
//! on the inventory and on nothing in the request — not on the function
//! rows (they never enter a dominance test), and on the exclusions or
//! capacities only through the objects the run peels off *after* the
//! build. In the terms of Chomicki's query modification it is the part
//! of the answer that survives **any** change of a monotone preference.
//!
//! An [`EvalSeed`] is that part: the
//! [`SkylineMaintainer`] exactly as BBS left it, before anything was
//! peeled. A cold run captures it right after the build; any later run
//! against the same inventory — whatever its functions, exclusions or
//! capacities — *resumes*: clone the snapshot, peel what this request
//! must not see, and run the unchanged matching loop. The clone
//! **shares** everything BBS left — member points, the id lookup, the
//! dominance-scan index and every pruned list, frozen behind one `Arc`
//! — and **owns** only what the run will change: a tombstone per
//! member, the members it promotes, the entries it reads from pages
//! itself, and the links of the chains it appends to. An entry of the
//! seed that the run re-homes or puts back in its heap stays where BBS
//! wrote it: the run links the seed's slot through a `u32` column of its
//! own, and never copies the entry (see `mpq_skyline::maintain`).
//! Resuming therefore costs two small allocations whatever the
//! skyline's size, the run that captured a seed goes on sharing with
//! it, and nothing a seed shares is ever written or copied.
//! Capture and resume are one function — the priming step of
//! [`crate::sb`]'s run state — whatever the shard count. A cold run
//! hands its capture over the moment BBS is done, before its first
//! round: the serving layer installs it in the result cache there and
//! then, and a worker takes the seed when it *claims* a job, so one cold
//! BBS runs per inventory version (see [`crate::service`]).
//! A run that resumed captures nothing: it would only reproduce the
//! seed it was handed.
//!
//! Because the loop's output is determined entirely by skyline
//! *content* (the rank-list caches are canonical under the total order
//! `(score desc, id asc)` and promotion folding is order-independent),
//! a seeded evaluation produces the matching of a cold one, pair for
//! pair: the same fids, the same oids and `f64::to_bits`-identical
//! scores. Coordinate-identical objects are no exception. Every
//! maintenance history keeps the smallest id left at a point on the
//! skyline — both BBS heaps pop subtrees before points at equal keys
//! (see `mpq_skyline::maintain`) — so a resume that peels and promotes
//! reports the very object a cold run does (pinned, duplicates
//! included, by `tests/seed_identity.rs`).
//!
//! Seeds are **pinned to the exact inventory**: the snapshot's pruned
//! entries reference R-tree pages of the inventory version it was
//! captured at, so a seed is only usable while the engine is at
//! [`EvalSeed::version`]. The result cache keeps at most one — a seed is
//! a property of the inventory, not of a cached request — and hands it
//! to every miss claimed at exactly that version. The evaluation
//! primes from it only if its pins read that version, committed, on
//! both sides: a mutation marks the version in flux before it changes
//! a tree and stores its new version after, so a run whose pins may
//! hold a half-applied mutation runs cold and captures nothing. It
//! reports whether it primed.

use mpq_skyline::SkylineMaintainer;

/// The inventory's skyline at one inventory version, from which any
/// evaluation against the *same* inventory can resume (see the
/// [module docs](self)).
///
/// Opaque by design: obtain one from
/// [`MatchRequest::evaluate_seeded`](crate::MatchRequest::evaluate_seeded),
/// or let the serving layer capture and apply it transparently through
/// the result cache.
#[derive(Clone)]
pub struct EvalSeed {
    /// The inventory version at capture time. The seed is valid only
    /// while the engine is at it.
    pub(crate) version: u64,
    /// The un-peeled BBS snapshot over the forest of the shards.
    pub(crate) skyline: SkylineMaintainer,
}

impl std::fmt::Debug for EvalSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSeed")
            .field("version", &self.version)
            .field("members", &self.skyline.len())
            .field("approx_bytes", &self.approx_bytes())
            .finish()
    }
}

impl EvalSeed {
    /// The inventory version the seed was captured at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True iff the seed may prime an evaluation against an engine
    /// currently at `version` — requires equality, because the
    /// snapshot's pruned entries reference pages of that exact epoch.
    pub fn usable_at(&self, version: u64) -> bool {
        self.version == version
    }

    /// Approximate heap footprint, for cache byte accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(&self.version) + self.skyline.approx_bytes()
    }
}
