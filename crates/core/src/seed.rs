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
//! peeled. The first run at a version captures it by BBS; any run
//! against the same inventory — whatever its functions, exclusions or
//! capacities — *resumes*: start from the snapshot, peel what this
//! request must not see, and run the unchanged matching loop. The run
//! **shares** everything BBS left — member points, the id lookup, the
//! dominance-scan index and every pruned list, frozen behind one `Arc`
//! — and **owns** only what it will change: a tombstone per member, the
//! members it promotes, the entries it reads from pages itself, and the
//! links of the chains it appends to. An entry of the seed that the run
//! re-homes or puts back in its heap stays where BBS wrote it: the run
//! links the seed's slot through a `u32` column of its own, and never
//! copies the entry (see `mpq_skyline::maintain`). What the run owns
//! lives in the skyline columns of the worker's [`Scratch`]: a resume
//! copies the seed's tombstones and empty tails into them and the run
//! hands them back at its end, so resuming allocates nothing once the
//! worker's scratch is warm, whatever the skyline's size, and nothing a
//! seed shares is ever written or copied.
//!
//! A seed holds that base, one tombstone and one empty tail per member,
//! and nothing else: the build releases BBS's drained candidate heap
//! and its traversal buffers when it freezes, and an entry id is one
//! word beside a kind bit. [`EvalSeed::approx_bytes`] counts all of it,
//! as the bytes the seed frees when it drops.
//!
//! [`Scratch`]: crate::Scratch
//! Capture and resume are one priming step of [`crate::sb`]'s run
//! state: a run that has no seed at its
//! version captures one with `EvalSeed::capture` — BBS over its own
//! pins — and resumes from that, exactly as from a seed it was handed.
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
//! ## The one rule
//!
//! A pin reads one committed version, and a seed primes it only if its
//! version is equal. Seeds are **pinned to the exact inventory**: the
//! snapshot's pruned entries reference R-tree pages of the version it
//! was captured at. Every mutation is one tree epoch that publishes its
//! version beside the root, so the version a pin reads and the pages it
//! walks are one committed inventory, never half of a mutation. Beyond
//! that:
//!
//! * **Where it lives.** A service with its cache on keeps one
//!   `SeedSlot` beside (not inside) its result cache: one cell for the
//!   newest inventory version a worker has pinned. The seed's bytes are
//!   not the cache's; `cache_max_bytes` bounds results alone.
//! * **Who builds it.** The first worker whose pin reads a version the
//!   slot has no seed for builds it, inside the cell's `OnceLock`, and
//!   reports that BBS as its own work, as any cold run does.
//! * **Who waits.** Every other worker at that version blocks on the
//!   cell until the seed is there, then resumes from it. A builder that
//!   panics leaves the cell empty, and the next worker builds instead.
//! * **Why an older pin runs cold.** The slot's cell is replaced only
//!   by a strictly newer version, so a worker whose pin reads an older
//!   version (it pinned before a mutation committed) gets no cell: it
//!   runs cold and leaves the newer seed to the current workers.
//!
//! A cache-off service keeps no slot and runs every request cold. A caller can also carry a
//! seed by hand ([`MatchRequest::evaluate_seeded`](crate::MatchRequest::evaluate_seeded)).

use std::sync::{Arc, Mutex, OnceLock};

use mpq_rtree::NodeSource;
use mpq_skyline::SkylineMaintainer;

/// The inventory's skyline at one inventory version, from which any
/// evaluation against the *same* inventory can resume (see the
/// [module docs](self)).
///
/// Opaque by design: obtain one from
/// [`MatchRequest::evaluate_seeded`](crate::MatchRequest::evaluate_seeded),
/// or let the serving layer capture and apply it transparently.
#[derive(Clone)]
pub struct EvalSeed {
    /// The inventory version at capture time. The seed is valid only
    /// while the engine is at it.
    pub(crate) version: u64,
    /// The un-peeled BBS snapshot over the engine's tree.
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
    /// BBS over `pins`, which read the committed inventory `version`.
    pub(crate) fn capture<R: NodeSource>(pins: &R, version: u64) -> EvalSeed {
        let skyline = SkylineMaintainer::build(pins);
        EvalSeed { version, skyline }
    }

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

    /// The seed's heap footprint: what it frees when it drops (the
    /// shared base counted in full), plus its version.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(&self.version) + self.skyline.approx_bytes()
    }
}

/// The seed cell of one inventory version.
pub(crate) type SeedCell = Arc<(u64, OnceLock<EvalSeed>)>;

/// A service's one seed: the cell of the newest inventory version a
/// worker has asked for (see the [module docs](self)).
#[derive(Default)]
pub(crate) struct SeedSlot(Mutex<Option<SeedCell>>);

impl SeedSlot {
    /// The cell for `version`: the resident one if it is at `version`,
    /// a new empty one in its place if it is older (or there is none),
    /// and `None` if it is newer.
    pub(crate) fn cell(&self, version: u64) -> Option<SeedCell> {
        let mut slot = crate::service::lock(&self.0);
        if let Some(cell) = slot.as_ref().filter(|cell| cell.0 >= version) {
            return (cell.0 == version).then(|| Arc::clone(cell));
        }
        let cell = slot.insert(Arc::new((version, OnceLock::new())));
        Some(Arc::clone(cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in seed at `version`: the skyline of an empty tree.
    fn stub(version: u64) -> EvalSeed {
        let empty = mpq_rtree::RTree::new(2, mpq_rtree::RTreeParams::default());
        EvalSeed::capture(&empty, version)
    }

    #[test]
    fn an_older_pin_gets_no_cell_and_leaves_the_newer_one() {
        let slot = SeedSlot::default();
        let five = slot.cell(5).expect("an empty slot takes any version");
        five.1.get_or_init(|| stub(5));
        assert!(slot.cell(4).is_none());
        let again = slot.cell(5).expect("the resident version");
        assert!(Arc::ptr_eq(&five, &again));
        assert_eq!(again.1.get().map(EvalSeed::version), Some(5));
    }

    #[test]
    fn a_newer_version_replaces_the_cell() {
        let slot = SeedSlot::default();
        let five = slot.cell(5).unwrap();
        five.1.get_or_init(|| stub(5));
        let six = slot.cell(6).expect("a newer version");
        assert!(six.1.get().is_none(), "the new cell starts empty");
        assert!(slot.cell(5).is_none(), "and the old one is gone");
        // ... but lives on in the hands of a run still holding it.
        assert_eq!(five.1.get().map(EvalSeed::version), Some(5));
    }

    #[test]
    fn a_builder_that_panics_leaves_the_cell_to_the_next_caller() {
        let slot = SeedSlot::default();
        let cell = slot.cell(7).unwrap();
        let panicked = std::panic::catch_unwind(|| {
            cell.1.get_or_init(|| panic!("BBS failed"));
        });
        assert!(panicked.is_err());
        assert!(cell.1.get().is_none(), "nothing was stored");

        let mut built = 0;
        let retry = slot.cell(7).unwrap();
        retry.1.get_or_init(|| {
            built += 1;
            stub(7)
        });
        retry.1.get_or_init(|| unreachable!("the cell is full"));
        assert_eq!((built, cell.1.get().map(EvalSeed::version)), (1, Some(7)));
    }
}
