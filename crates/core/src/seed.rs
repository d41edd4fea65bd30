//! Evaluation seeds: resumable skyline state for incremental reuse
//! across similar requests (Chomicki-style query *modification*).
//!
//! A cold SB evaluation spends most of its budget computing the initial
//! skyline (BBS over the whole tree) and peeling the request's excluded
//! objects. Two requests whose exclusion sets differ by a handful of
//! objects repeat almost all of that work. An [`EvalSeed`] captures the
//! reusable part — the post-peel [`SkylineMaintainer`] snapshot plus the
//! exact set of objects that were peeled out of it — so a later request
//! at small delta can *resume*: clone the snapshot, re-admit the peeled
//! objects it no longer excludes ([`SkylineMaintainer::insert`]), peel
//! the ones it newly excludes, and run the unchanged matching loop.
//! Capture and resume are one function — the priming step of
//! [`crate::sb`]'s run state — whichever engine, shard or stream asks.
//!
//! Because the loop's output is determined entirely by skyline
//! *content* (the rank-list caches are canonical under the total order
//! `(score desc, id asc)` and promotion folding is order-independent),
//! a seeded evaluation produces matchings whose scores are
//! `f64::to_bits`-identical to a cold one. With coordinate-identical
//! duplicate objects the chosen representative — and therefore the
//! reported `oid` of equal-score pairs — may differ, exactly as it
//! already does between maintenance histories (see
//! `mpq_skyline::maintain`); scores never do.
//!
//! Seeds are **pinned to the exact inventory**: the snapshot's pruned
//! entries reference R-tree pages of the version vector it was captured
//! at, so a seed is only usable while the backend's versions are
//! bit-equal to [`EvalSeed::versions`]. The result cache enforces this
//! (a revalidated entry keeps its matching but drops its seed), and the
//! evaluation path re-checks before priming.

use mpq_skyline::SkylineMaintainer;

/// A journal of objects peeled from a skyline snapshot: (oid, point)
/// in peel order, point kept so re-admission needs no tree read.
pub(crate) type PeeledLog = Vec<(u64, Box<[f64]>)>;

/// The per-shard slice of an [`EvalSeed`]: the post-peel skyline
/// snapshot and the objects peeled from it (with their points, so they
/// can be re-admitted without touching the tree).
#[derive(Clone)]
pub(crate) struct SeedPart {
    /// Maintainer state after the seed request's exclusions were peeled.
    pub(crate) sky: SkylineMaintainer,
    /// Exactly the objects removed from `sky` relative to the full
    /// inventory, in peel order.
    pub(crate) peeled: PeeledLog,
}

impl SeedPart {
    /// Approximate heap footprint, for cache byte accounting.
    pub(crate) fn approx_bytes(&self) -> usize {
        let peeled: usize = self
            .peeled
            .iter()
            .map(|(_, p)| std::mem::size_of::<(u64, Box<[f64]>)>() + p.len() * 8)
            .sum();
        self.sky.approx_bytes() + peeled
    }
}

/// A resumable evaluation state captured from one SB evaluation and
/// usable to prime another against the *same* inventory (see the
/// [module docs](self)).
///
/// Opaque by design: obtain one from
/// [`MatchRequest::evaluate_seeded`](crate::MatchRequest::evaluate_seeded)
/// (or its sharded twin), or let the serving layer capture and apply
/// seeds transparently through the result cache's near-miss lookup.
#[derive(Clone)]
pub struct EvalSeed {
    /// Per-shard inventory version vector at capture time (one
    /// component for an unsharded engine). The seed is valid only while
    /// the backend's vector is bit-equal.
    pub(crate) versions: Vec<u64>,
    /// One part per shard, in shard order.
    pub(crate) parts: Vec<SeedPart>,
}

impl std::fmt::Debug for EvalSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSeed")
            .field("versions", &self.versions)
            .field("parts", &self.parts.len())
            .field("approx_bytes", &self.approx_bytes())
            .finish()
    }
}

impl EvalSeed {
    /// The per-shard inventory version vector the seed was captured at.
    pub fn versions(&self) -> &[u64] {
        &self.versions
    }

    /// Number of per-shard parts (1 for an unsharded engine).
    pub fn parts(&self) -> usize {
        self.parts.len()
    }

    /// True iff the seed may prime an evaluation against a backend
    /// currently at `versions` — requires bit-equality, because the
    /// snapshot's pruned entries reference pages of that exact epoch.
    pub fn usable_at(&self, versions: &[u64]) -> bool {
        self.versions == versions
    }

    /// Approximate heap footprint, for cache byte accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<EvalSeed>()
            + self.versions.len() * 8
            + self.parts.iter().map(SeedPart::approx_bytes).sum::<usize>()
    }
}
