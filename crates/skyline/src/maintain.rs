//! Incremental skyline maintenance with pruned-entry lists (§IV-B of the
//! paper).
//!
//! [`SkylineMaintainer`] runs BBS once over the R-tree and remembers, for
//! every entry it prunes, *which* skyline object pruned it (each entry is
//! kept in the `plist` of exactly one dominator, bounding memory by the
//! number of pruned entries). When skyline objects are removed — because
//! the SB matcher assigned them to users — their plist entries are
//! re-homed to another dominating skyline object where possible;
//! exclusively-dominated entries go back into the BBS priority queue
//! (`Scand` in the paper) and the traversal resumes, reading only pages
//! that have become potentially undominated.
//!
//! ## Dominance-scan acceleration
//!
//! Dominance tests against the skyline are the CPU hot spot of BBS-style
//! algorithms. Two standard devices are used (neither affects results):
//!
//! * a skyline object whose *coordinate sum* is smaller than the
//!   candidate's cannot dominate it (componentwise ≥ implies sum ≥), so
//!   objects are scanned in descending-sum order and the scan stops at
//!   the first object whose sum falls below the candidate's (minus an
//!   f64 rounding slack);
//! * skyline objects live in a stable slab (tombstoned on removal), so
//!   plist ownership survives removals without index fix-ups, and the
//!   descending-sum order array is rebuilt only after enough changes
//!   accumulate.
//!
//! ## Plist layout and snapshots
//!
//! A plist is stored column-wise: one vector of entry ids (an object id
//! or a subtree's page id) and one vector of upper corners, contiguous
//! at stride `dim`, entry `i` owning `corners[i * dim..(i + 1) * dim]`.
//! No entry owns a heap allocation — a dominated child's corner is
//! written straight from the node's slice into its owner's columns —
//! so copying a plist is two `memcpy`s and dropping it two frees,
//! however many entries it holds. Entries are only ever appended, and
//! a removed object's entries are re-homed in the order they were
//! recorded, so the sequence of dominance tests and page reads is a
//! function of the removal sequence alone.
//!
//! That is what makes a maintainer cheap to snapshot ([`Clone`]): the
//! clone copies the slab, the lookup map and the order index —
//! O(skyline) — and *shares* every plist behind its `Arc`. Either side
//! copies a plist only when it first appends to it; removing an object
//! merely reads its (possibly shared) plist and drops the reference.
//! The serving layer keeps one such snapshot per inventory version and
//! resumes every evaluation from it (see `mpq_core::seed`).

use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::Arc;

use mpq_rtree::geometry::mindist_to_best;
use mpq_rtree::pager::PageId;
use mpq_rtree::{Node, NodeSource};

use crate::dominance::dominates_or_equal;

/// Tolerance for the coordinate-sum fast path in dominance scans: an
/// object whose coordinate sum is smaller than the candidate's (beyond
/// accumulated f64 rounding) cannot dominate it.
const SUM_SLACK: f64 = 1e-9;

/// A borrowed view of one skyline member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkylineEntry<'a> {
    /// Object id.
    pub oid: u64,
    /// The object's attribute vector.
    pub point: &'a [f64],
}

/// Counters describing the work done by skyline computation/maintenance.
#[derive(Debug, Default, Clone, Copy)]
pub struct SkylineStats {
    /// R-tree nodes expanded (each expansion costs one logical page read).
    pub nodes_expanded: u64,
    /// Entries placed into some skyline object's plist.
    pub entries_pruned: u64,
    /// plist entries moved to a new owner during maintenance.
    pub entries_rehomed: u64,
    /// plist entries pushed back into the candidate heap during
    /// maintenance (exclusively dominated by removed objects).
    pub entries_reheaped: u64,
    /// Points promoted into the skyline.
    pub points_promoted: u64,
    /// Point-vs-point / point-vs-corner dominance tests performed.
    pub dominance_checks: u64,
}

/// What a pruned entry names: an object, or an unexpanded subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryId {
    Point(u64),
    Subtree(PageId),
}

/// The entries one skyline object pruned, column-wise (see the
/// [module docs](self)): entry `i` is `ids[i]` with upper corner — the
/// best point the entry could contain — `corners[i * dim..][..dim]`.
#[derive(Debug, Clone, Default)]
struct Plist {
    ids: Vec<EntryId>,
    corners: Vec<f64>,
}

impl Plist {
    fn push(&mut self, id: EntryId, hi: &[f64]) {
        self.ids.push(id);
        self.corners.extend_from_slice(hi);
    }

    /// The entries in recording order.
    fn iter(&self, dim: usize) -> impl Iterator<Item = (EntryId, &[f64])> + '_ {
        self.ids.iter().copied().zip(self.corners.chunks_exact(dim))
    }
}

/// Candidate-heap entry, popped in ascending `key` (L1 mindist to the
/// best corner), with deterministic tie-breaking: points before subtrees,
/// then ascending id. Unlike a plist entry it owns its corner: a point
/// that survives the heap moves it into the slab.
#[derive(Debug)]
struct HeapEntry {
    key: f64,
    id: EntryId,
    hi: Box<[f64]>,
}

impl HeapEntry {
    fn new(id: EntryId, hi: &[f64]) -> HeapEntry {
        HeapEntry {
            key: mindist_to_best(hi),
            id,
            hi: hi.into(),
        }
    }

    /// Tie-break rank behind `key`.
    fn rank(&self) -> (u8, u64) {
        match self.id {
            EntryId::Point(oid) => (0, oid),
            EntryId::Subtree(pid) => (1, pid.0 as u64),
        }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted: BinaryHeap pops the max, we want the min key.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.rank().cmp(&self.rank()))
    }
}

#[derive(Debug, Clone)]
struct SkyObj {
    oid: u64,
    point: Box<[f64]>,
    /// Cached coordinate sum for the dominance fast path.
    sum: f64,
    /// Entries this object pruned (it is their exclusive owner). Behind
    /// an `Arc` so snapshot clones share the pruned entries —
    /// collectively O(inventory) — copy-on-write: a clone is
    /// O(skyline), and only the plists a later append touches are ever
    /// copied.
    plist: Arc<Plist>,
}

/// The maintained skyline of an R-tree-indexed object set.
///
/// Build it once with [`SkylineMaintainer::build`], then call
/// [`SkylineMaintainer::remove`] as objects get assigned; the structure
/// incrementally promotes newly undominated objects.
///
/// The maintainer does not hold a borrow of the tree: the methods that
/// traverse pages take the node source per call, so the same maintainer
/// state can be driven through a bare `&RTree` or a run-scoped
/// [`mpq_rtree::IoSession`] owned alongside it. Callers must pass a
/// source backed by the same tree across calls (page ids recorded in the
/// plists are meaningless in any other tree).
pub struct SkylineMaintainer {
    /// Dimensionality of the indexed points (the plist corner stride).
    dim: usize,
    /// Stable slab: `None` = removed. plist owners are slab indices.
    slab: Vec<Option<SkyObj>>,
    alive: usize,
    by_oid: HashMap<u64, usize>,
    /// Slab indices sorted by coordinate sum descending (may contain
    /// tombstones; excludes entries promoted after the last rebuild).
    order: Vec<u32>,
    /// Slab indices promoted since the last `order` rebuild.
    fresh: Vec<u32>,
    /// Removals since the last rebuild (tombstones inside `order`).
    stale: usize,
    heap: BinaryHeap<HeapEntry>,
    /// Objects that entered the skyline since the last [`Self::remove`]
    /// call drained it (promotions and duplicate-representative swaps).
    entered: Vec<(u64, Box<[f64]>)>,
    stats: SkylineStats,
}

/// Snapshotting support for seeded evaluation: between calls the
/// candidate heap is always drained (every public mutator ends in the
/// internal BBS drain), so a clone only has to copy the slab, the
/// lookup map and the order index — never in-flight heap entries.
/// The plists are shared copy-on-write, so the copy is O(skyline).
impl Clone for SkylineMaintainer {
    fn clone(&self) -> SkylineMaintainer {
        debug_assert!(
            self.heap.is_empty(),
            "maintainer cloned with a non-drained candidate heap"
        );
        SkylineMaintainer {
            dim: self.dim,
            slab: self.slab.clone(),
            alive: self.alive,
            by_oid: self.by_oid.clone(),
            order: self.order.clone(),
            fresh: self.fresh.clone(),
            stale: self.stale,
            heap: BinaryHeap::new(),
            entered: self.entered.clone(),
            stats: self.stats,
        }
    }
}

impl SkylineMaintainer {
    /// Compute the initial skyline of the whole tree (BBS), recording
    /// pruned entries for later maintenance.
    pub fn build<R: NodeSource>(tree: &R) -> SkylineMaintainer {
        let mut m = SkylineMaintainer {
            dim: tree.dim(),
            slab: Vec::new(),
            alive: 0,
            by_oid: HashMap::new(),
            order: Vec::new(),
            fresh: Vec::new(),
            stale: 0,
            heap: BinaryHeap::new(),
            entered: Vec::new(),
            stats: SkylineStats::default(),
        };
        m.heap.push(HeapEntry::new(
            EntryId::Subtree(tree.root_page()),
            &vec![1.0; tree.dim()],
        ));
        m.run(tree);
        m.rebuild_order();
        m.entered.clear(); // build's "entries" are the initial skyline
        m
    }

    /// Number of current skyline objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.alive
    }

    /// True iff the skyline is empty (the object set is exhausted).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.alive == 0
    }

    /// True iff `oid` is currently a skyline object.
    pub fn contains(&self, oid: u64) -> bool {
        self.by_oid.contains_key(&oid)
    }

    /// The attribute vector of skyline object `oid`, if present.
    pub fn get(&self, oid: u64) -> Option<&[f64]> {
        self.by_oid
            .get(&oid)
            .and_then(|&i| self.slab[i].as_ref())
            .map(|o| &*o.point)
    }

    /// Iterate over the current skyline. Use [`SkylineMaintainer::len`]
    /// for the count.
    pub fn iter(&self) -> impl Iterator<Item = SkylineEntry<'_>> + '_ {
        self.slab.iter().filter_map(|slot| {
            slot.as_ref().map(|o| SkylineEntry {
                oid: o.oid,
                point: &o.point,
            })
        })
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> SkylineStats {
        self.stats
    }

    /// Remove assigned skyline objects and restore the skyline property
    /// over the remaining set, reading any newly undominated pages
    /// through `tree`. Returns the objects *promoted into* the skyline
    /// by this removal (in promotion order).
    ///
    /// # Panics
    /// Panics if any of the `oids` is not currently in the skyline —
    /// removing a non-skyline object through the maintainer is a logic
    /// error in the caller (the SB algorithm only assigns skyline
    /// objects).
    pub fn remove<R: NodeSource>(&mut self, oids: &[u64], tree: &R) -> Vec<(u64, Box<[f64]>)> {
        // The removed objects' plists are only read from here on, so one
        // a snapshot still shares is never copied.
        let mut orphaned: Vec<Arc<Plist>> = Vec::with_capacity(oids.len());
        for &oid in oids {
            let idx = self
                .by_oid
                .remove(&oid)
                .unwrap_or_else(|| panic!("object {oid} is not in the skyline"));
            let obj = self.slab[idx].take().expect("slab and by_oid in sync");
            self.alive -= 1;
            self.stale += 1;
            orphaned.push(obj.plist);
        }

        // Re-home entries still dominated by a surviving skyline object;
        // the rest become candidates (the paper's `Scand`).
        let dim = self.dim;
        for (id, hi) in orphaned.iter().flat_map(|plist| plist.iter(dim)) {
            if let Some(owner) = self.find_dominator(hi) {
                self.stats.entries_rehomed += 1;
                self.assign_to_owner(owner, id, hi);
            } else {
                self.stats.entries_reheaped += 1;
                self.heap.push(HeapEntry::new(id, hi));
            }
        }

        self.run(tree);
        std::mem::take(&mut self.entered)
    }

    /// Approximate heap footprint of the maintained state (slab,
    /// plists, lookup maps), for cache byte accounting of snapshots.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<SkylineMaintainer>()
            + self.slab.capacity() * std::mem::size_of::<Option<SkyObj>>()
            + (self.order.capacity() + self.fresh.capacity()) * std::mem::size_of::<u32>()
            + self.by_oid.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<usize>());
        for obj in self.slab.iter().flatten() {
            bytes += obj.point.len() * std::mem::size_of::<f64>()
                + obj.plist.ids.capacity() * std::mem::size_of::<EntryId>()
                + obj.plist.corners.capacity() * std::mem::size_of::<f64>();
        }
        bytes
    }

    /// Put a pruned entry into a skyline object's plist.
    ///
    /// Note on duplicates: when several objects share identical
    /// coordinates, exactly one of them represents the group in the
    /// skyline, but *which* one is implementation-defined — a duplicate
    /// may be hidden inside an unexpanded subtree whose upper corner
    /// equals the representative, so a smallest-id convention cannot be
    /// maintained without defeating the lazy plist design. Removing the
    /// representative eventually surfaces the remaining duplicates.
    fn assign_to_owner(&mut self, owner: usize, id: EntryId, hi: &[f64]) {
        let plist = &mut self.slab[owner].as_mut().expect("owner is alive").plist;
        Arc::make_mut(plist).push(id, hi);
    }

    /// Drain the candidate heap: standard BBS with plist recording.
    fn run<R: NodeSource>(&mut self, tree: &R) {
        while let Some(e) = self.heap.pop() {
            if let Some(owner) = self.find_dominator(&e.hi) {
                self.stats.entries_pruned += 1;
                self.assign_to_owner(owner, e.id, &e.hi);
                continue;
            }
            match e.id {
                EntryId::Point(oid) => self.promote(oid, e.hi),
                EntryId::Subtree(pid) => {
                    let node = tree.read_node(pid);
                    self.stats.nodes_expanded += 1;
                    self.expand(&node);
                }
            }
        }
    }

    /// Push a node's children into the heap, pruning what the current
    /// skyline already dominates (with plist recording).
    fn expand(&mut self, node: &Node) {
        match node {
            Node::Leaf(leaf) => {
                for (oid, p) in leaf.iter() {
                    self.admit(EntryId::Point(oid), p);
                }
            }
            Node::Inner(inner) => {
                for i in 0..inner.len() {
                    self.admit(EntryId::Subtree(inner.child(i)), inner.hi(i));
                }
            }
        }
    }

    /// One child of an expanded node: into its dominator's plist, or —
    /// undominated so far — into the candidate heap.
    fn admit(&mut self, id: EntryId, hi: &[f64]) {
        if let Some(owner) = self.find_dominator(hi) {
            self.stats.entries_pruned += 1;
            self.assign_to_owner(owner, id, hi);
        } else {
            self.heap.push(HeapEntry::new(id, hi));
        }
    }

    fn promote(&mut self, oid: u64, point: Box<[f64]>) {
        self.stats.points_promoted += 1;
        self.alive += 1;
        let sum = point.iter().sum();
        let idx = self.slab.len();
        self.by_oid.insert(oid, idx);
        self.entered.push((oid, point.clone()));
        self.slab.push(Some(SkyObj {
            oid,
            point,
            sum,
            plist: Arc::default(),
        }));
        self.fresh.push(idx as u32);
    }

    /// First skyline object (slab index) that dominates-or-equals `x`,
    /// if any. Scans recent promotions linearly, then the descending-sum
    /// order with early exit once sums fall below the candidate's.
    fn find_dominator(&mut self, x: &[f64]) -> Option<usize> {
        self.maybe_rebuild_order();
        let x_sum: f64 = x.iter().sum();
        let cutoff = x_sum - SUM_SLACK;
        for &i in &self.fresh {
            let Some(obj) = self.slab[i as usize].as_ref() else {
                continue;
            };
            if obj.sum < cutoff {
                continue;
            }
            self.stats.dominance_checks += 1;
            if dominates_or_equal(&obj.point, x) {
                return Some(i as usize);
            }
        }
        for &i in &self.order {
            let Some(obj) = self.slab[i as usize].as_ref() else {
                continue;
            };
            if obj.sum < cutoff {
                break; // sorted descending: nothing below can dominate
            }
            self.stats.dominance_checks += 1;
            if dominates_or_equal(&obj.point, x) {
                return Some(i as usize);
            }
        }
        None
    }

    fn maybe_rebuild_order(&mut self) {
        let churn = self.fresh.len() + self.stale;
        if churn > 64 && churn * 4 > self.alive {
            self.rebuild_order();
        }
    }

    fn rebuild_order(&mut self) {
        self.order.clear();
        self.order.extend(
            self.slab
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(i, _)| i as u32),
        );
        let slab = &self.slab;
        self.order.sort_by(|&a, &b| {
            let sa = slab[a as usize].as_ref().expect("alive").sum;
            let sb = slab[b as usize].as_ref().expect("alive").sum;
            sb.total_cmp(&sa).then(a.cmp(&b))
        });
        self.fresh.clear();
        self.stale = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_skyline_excluding;
    use mpq_rtree::{PointSet, RTree, RTreeParams};
    use std::collections::HashSet;

    fn params() -> RTreeParams {
        RTreeParams {
            page_size: 256,
            min_fill_ratio: 0.4,
            buffer_capacity: 4096,
        }
    }

    fn seeded_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ps = PointSet::with_capacity(dim, n);
        for _ in 0..n {
            let p: Vec<f64> = (0..dim).map(|_| next()).collect();
            ps.push(&p);
        }
        ps
    }

    fn sky_ids(m: &SkylineMaintainer) -> Vec<u64> {
        let mut v: Vec<u64> = m.iter().map(|e| e.oid).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn initial_skyline_matches_naive() {
        for seed in [1, 2, 3] {
            for dim in [2, 3, 4] {
                let ps = seeded_points(400, dim, seed);
                let tree = RTree::bulk_load(&ps, params());
                let m = SkylineMaintainer::build(&tree);
                let expect = naive_skyline_excluding(&ps, &HashSet::new());
                assert_eq!(sky_ids(&m), expect, "seed {seed} dim {dim}");
                assert_eq!(m.len(), expect.len());
            }
        }
    }

    #[test]
    fn maintenance_tracks_naive_through_removals() {
        let ps = seeded_points(600, 3, 9);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let mut removed: HashSet<u64> = HashSet::new();
        // repeatedly remove the first two skyline objects
        for round in 0..60 {
            let victims: Vec<u64> = m.iter().take(2).map(|e| e.oid).collect();
            if victims.is_empty() {
                break;
            }
            for &v in &victims {
                removed.insert(v);
            }
            m.remove(&victims, &tree);
            let expect = naive_skyline_excluding(&ps, &removed);
            assert_eq!(sky_ids(&m), expect, "round {round}");
        }
    }

    #[test]
    fn remove_returns_exactly_the_promotions() {
        let ps = seeded_points(500, 2, 4);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let before: HashSet<u64> = m.iter().map(|e| e.oid).collect();
        let victim = m.iter().next().unwrap().oid;
        let promoted = m.remove(&[victim], &tree);
        let after: HashSet<u64> = m.iter().map(|e| e.oid).collect();
        let mut expected_new: Vec<u64> = after.difference(&before).copied().collect();
        expected_new.sort_unstable();
        let mut got_new: Vec<u64> = promoted.iter().map(|(o, _)| *o).collect();
        got_new.sort_unstable();
        assert_eq!(got_new, expected_new);
        // promoted points carry correct coordinates
        for (oid, p) in &promoted {
            assert_eq!(&**p, ps.get(*oid as usize));
        }
    }

    #[test]
    fn duplicates_keep_one_representative() {
        let mut ps = PointSet::new(2);
        ps.push(&[0.9, 0.9]);
        ps.push(&[0.9, 0.9]);
        ps.push(&[0.9, 0.9]);
        ps.push(&[0.1, 0.1]);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        assert_eq!(m.len(), 1, "duplicates must collapse to one skyline object");
        // removing the representative promotes the next duplicate
        let rep = m.iter().next().unwrap().oid;
        m.remove(&[rep], &tree);
        assert_eq!(m.len(), 1);
        assert!(!m.contains(rep));
        // removing both remaining duplicates exposes the dominated point
        let rep2 = m.iter().next().unwrap().oid;
        m.remove(&[rep2], &tree);
        let rep3 = m.iter().next().unwrap().oid;
        m.remove(&[rep3], &tree);
        assert_eq!(sky_ids(&m), vec![3]);
    }

    #[test]
    fn exhausting_the_skyline_empties_the_set() {
        let ps = seeded_points(120, 2, 6);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let mut total = 0usize;
        while !m.is_empty() {
            let victim = m.iter().next().unwrap().oid;
            m.remove(&[victim], &tree);
            total += 1;
            assert!(total <= 120, "more removals than objects");
        }
        assert_eq!(total, 120, "every object must eventually surface");
    }

    #[test]
    #[should_panic(expected = "not in the skyline")]
    fn removing_non_skyline_object_panics() {
        let ps = seeded_points(50, 2, 10);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        m.remove(&[u64::MAX], &tree);
    }

    #[test]
    fn multi_removal_equals_sequential_removals() {
        let ps = seeded_points(400, 3, 12);
        let tree = RTree::bulk_load(&ps, params());
        let mut a = SkylineMaintainer::build(&tree);

        let tree2 = RTree::bulk_load(&ps, params());
        let mut b = SkylineMaintainer::build(&tree2);

        let victims: Vec<u64> = a.iter().take(3).map(|e| e.oid).collect();
        a.remove(&victims, &tree);
        for &v in &victims {
            b.remove(&[v], &tree2);
        }
        assert_eq!(sky_ids(&a), sky_ids(&b));
    }

    #[test]
    fn incremental_maintenance_reads_less_than_recompute() {
        use crate::bbs::compute_skyline_excluding;
        let ps = seeded_points(4000, 3, 33);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);

        // Remove 20 skyline objects one at a time, totaling the
        // incremental maintenance cost (in logical accesses, which are
        // buffer-independent).
        let mut removed: HashSet<u64> = HashSet::new();
        tree.reset_io_stats();
        for _ in 0..20 {
            let victim = m.iter().next().unwrap().oid;
            removed.insert(victim);
            m.remove(&[victim], &tree);
        }
        let maint_logical = tree.io_stats().logical;

        // The alternative the paper rejects: recompute BBS from scratch
        // after each removal. Measure just the final recompute — a single
        // from-scratch pass already dwarfs all 20 incremental updates.
        tree.reset_io_stats();
        let _ = compute_skyline_excluding(&tree, |o| removed.contains(&o));
        let recompute_logical = tree.io_stats().logical;

        assert!(
            maint_logical < recompute_logical,
            "20 incremental updates ({maint_logical} accesses) should cost less than \
             one from-scratch recompute ({recompute_logical} accesses)"
        );
    }

    /// Every plist of `m`, by owner, down to the corner bits.
    fn plist_dump(m: &SkylineMaintainer) -> Vec<(u64, Vec<EntryId>, Vec<u64>)> {
        m.slab
            .iter()
            .flatten()
            .map(|o| {
                let corners = o.plist.corners.iter().map(|c| c.to_bits()).collect();
                (o.oid, o.plist.ids.clone(), corners)
            })
            .collect()
    }

    #[test]
    fn clone_snapshots_diverge_independently() {
        let ps = seeded_points(400, 3, 7);
        let tree = RTree::bulk_load(&ps, params());
        let mut a = SkylineMaintainer::build(&tree);
        let baseline = sky_ids(&a);
        let plists = plist_dump(&a);
        assert!(plists.iter().any(|(_, ids, _)| !ids.is_empty()));
        let mut b = a.clone();
        assert_eq!(sky_ids(&b), baseline);
        assert!(b.approx_bytes() > 0);

        // The clone removes half the skyline — re-homing into plists it
        // shares with the snapshot, re-heaping, promoting — and tracks
        // the naive skyline; the snapshot's members and plists stay
        // byte for byte what they were.
        let mut removed = HashSet::new();
        for &victim in baseline.iter().step_by(2) {
            removed.insert(victim);
            b.remove(&[victim], &tree);
            assert_eq!(sky_ids(&b), naive_skyline_excluding(&ps, &removed));
        }
        assert_eq!(sky_ids(&a), baseline);
        assert_eq!(plist_dump(&a), plists);

        // ... and it still maintains correctly on its own.
        let victim_a = a.iter().nth(1).unwrap().oid;
        a.remove(&[victim_a], &tree);
        let mut removed_a = HashSet::new();
        removed_a.insert(victim_a);
        assert_eq!(sky_ids(&a), naive_skyline_excluding(&ps, &removed_a));
    }

    #[test]
    fn anticorrelated_line_is_all_skyline() {
        // points on the anti-diagonal dominate nothing pairwise
        let mut ps = PointSet::new(2);
        for i in 0..50 {
            let x = i as f64 / 49.0;
            ps.push(&[x, 1.0 - x]);
        }
        let tree = RTree::bulk_load(&ps, params());
        let m = SkylineMaintainer::build(&tree);
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn heavy_churn_keeps_order_index_consistent() {
        // stress the rebuild policy: interleave removals and promotions
        let ps = seeded_points(2000, 3, 55);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let mut removed: HashSet<u64> = HashSet::new();
        for round in 0..40 {
            let victims: Vec<u64> = m.iter().take(5).map(|e| e.oid).collect();
            if victims.is_empty() {
                break;
            }
            for &v in &victims {
                removed.insert(v);
            }
            m.remove(&victims, &tree);
            if round % 10 == 0 {
                assert_eq!(
                    sky_ids(&m),
                    naive_skyline_excluding(&ps, &removed),
                    "round {round}"
                );
            }
        }
    }
}
