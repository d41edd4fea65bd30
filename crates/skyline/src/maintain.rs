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
//! "Which member dominates this corner?" is the CPU hot spot of BBS and
//! of every maintenance call — one function, `find_dominator`, under the
//! build, under every removal and therefore inside every evaluation
//! that resumes from a snapshot. Members are kept as *columns* — ids,
//! points at stride `dim`, coordinate sums, a tombstone per member — and
//! the scan never chases a pointer:
//!
//! * The scan index holds one **cut** per axis plus one for the
//!   coordinate sum: the members in descending order of that key, with
//!   their points copied alongside *in that order*. A dominator of `x`
//!   is at least `x` on every axis and (componentwise ≥ implies sum ≥)
//!   in sum, so it sits in the prefix `key ≥ x's key` of **every** cut.
//!   A binary search per cut finds the prefix lengths (one probe instead,
//!   for a cut that reaches past the shortest found so far); only the
//!   shortest prefix is scanned. The sum cut is what independent data
//!   wants and what anti-correlated data defeats (all sums are nearly
//!   equal); an axis cut does not depend on the distribution. The sum
//!   comparison carries an f64 rounding slack, the axis comparisons are
//!   exact.
//! * The scan is the branch-free conjunction of `dim` comparisons over
//!   contiguous rows (`crate::dominance::first_dominator`, small `dim`
//!   specialised), with the tombstone looked up per row.
//! * Members promoted since the index was last built are scanned
//!   linearly first; the index is rebuilt only after enough promotions
//!   and removals accumulate.
//!
//! The scan returns *a* dominator, not a canonical one, and any will do:
//! an entry is re-examined only when its owner leaves, and goes back to
//! the candidate heap exactly when no surviving member dominates it —
//! which member held it in between changes neither the skyline after any
//! removal, nor the promotions and their order, nor one page read (pinned
//! by a test against an oracle that always picks the *last* dominator).
//!
//! ## Plist layout and snapshots
//!
//! Entries live in the slots of an arena, column-wise: one vector of
//! entry ids (an object id or a subtree's page id), one of upper
//! corners, contiguous at stride `dim`, and one of links. A plist is a
//! chain of slots; so is nothing else — a candidate waiting in the heap
//! just holds its slot. No entry owns a heap allocation: a dominated
//! child's corner is written straight from the node's slice into a
//! slot, pruning a candidate or re-homing an entry links the slot it
//! already has, and a consumed entry's slot is recycled. Chains are
//! only ever appended to, and a removed object's entries are re-homed
//! in the order they were recorded, so the sequence of heap pushes and
//! page reads is a function of the removal sequence alone.
//!
//! A member's plist is an immutable **base** plus a private **tail**.
//! [`SkylineMaintainer::build`] ends by *freezing*: member columns, the
//! id lookup, the scan index and the arena with every plist as BBS
//! recorded it move — nothing is copied — behind one `Arc`. A [`Clone`]
//! bumps that `Arc` and copies what a run owns: the tombstones, the
//! members promoted since, and the chains of the tails appended since —
//! empty in a snapshot nobody maintained. Removing a member reads its
//! base chain, then its tail.
//!
//! Slots are numbered across both arenas: the base's `B` slots are
//! `0..B`, the run's own arena holds slots `B..`, and an id or corner
//! read dispatches on that range. A run's own arena only ever holds
//! entries it read from pages itself. A base entry that a departure
//! re-homes or re-heaps stays where BBS wrote it: the run links the
//! base slot itself, through a link column of its own over the base's
//! slots (`u32` per slot, allocated at the first such link), and never
//! copies its id or corner. Only own slots are recycled; a consumed
//! base slot is simply never linked again. Nothing orders by slot
//! number — the heap orders by key and id — so the numbering changes no
//! push, no page read and no promotion. A run that rebuilds its scan
//! index builds a private one. Nothing behind the `Arc` is written after
//! the freeze, so the run that built a snapshot, the snapshot and every
//! run resumed from it share it for as long as any of them lives. The
//! serving layer keeps one such snapshot per inventory version and
//! resumes every evaluation from it (see `mpq_core::seed`).

use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::Arc;

use mpq_rtree::geometry::mindist_to_best;
use mpq_rtree::pager::PageId;
use mpq_rtree::{Node, NodeSource};

use crate::dominance::first_dominator;

/// Tolerance for the coordinate-sum cut in dominance scans: an object
/// whose coordinate sum is smaller than the candidate's (beyond
/// accumulated f64 rounding) cannot dominate it.
const SUM_SLACK: f64 = 1e-9;

/// A borrowed view of one skyline member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkylineEntry<'a> {
    /// Object id.
    pub oid: u64,
    /// The member's number: members are numbered in the order they
    /// entered the skyline, from 0, and only ever appended — a
    /// maintainer never renumbers one, and a clone keeps the numbers of
    /// what it copies — so it indexes per-member state for as long as
    /// the maintainer lives.
    pub member: usize,
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

/// Candidate-heap entry, popped in ascending `key` (L1 mindist to the
/// best corner), with deterministic tie-breaking: subtrees before points,
/// then ascending id — so of coordinate-identical objects the smallest
/// id is promoted (see [`SkylineMaintainer::settle`]). The entry itself
/// waits in a slot, the base's or the run's.
#[derive(Debug)]
struct HeapEntry {
    key: f64,
    id: EntryId,
    slot: u32,
}

impl HeapEntry {
    /// Tie-break rank behind `key`.
    fn rank(&self) -> (u8, u64) {
        match self.id {
            EntryId::Subtree(pid) => (0, pid.0 as u64),
            EntryId::Point(oid) => (1, oid),
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

/// "No slot": the end of a chain, an empty chain.
const NONE: u32 = u32::MAX;

/// Entries — pruned ones on plists, candidates in the heap — as slots
/// of an arena, column-wise (see the [module docs](self)): slot `s` is
/// entry `ids[s]` with upper corner — the best point the entry could
/// contain — `corners[s * dim..][..dim]`. A plist is a chain of slots
/// in recording order, so pruning a candidate or re-homing an entry
/// *links* its slot to the new owner and copies nothing; slots of
/// consumed entries are recycled through a free list, so recording
/// allocates nothing once the arena has grown. Indices here are the
/// arena's own; the maintainer numbers a run's arena after the base's.
#[derive(Debug, Clone, Default)]
struct Slots {
    ids: Vec<EntryId>,
    corners: Vec<f64>,
    /// The slot after this one in its chain.
    next: Vec<u32>,
    free: Vec<u32>,
    /// Per member, the first and last slot of its chain.
    chains: Vec<[u32; 2]>,
}

impl Slots {
    fn store(&mut self, id: EntryId, hi: &[f64]) -> usize {
        match self.free.pop() {
            Some(slot) => {
                let at = slot as usize * hi.len();
                self.ids[slot as usize] = id;
                self.corners[at..at + hi.len()].copy_from_slice(hi);
                slot as usize
            }
            None => {
                self.ids.push(id);
                self.corners.extend_from_slice(hi);
                self.next.push(NONE);
                self.next.len() - 1
            }
        }
    }

    fn corner(&self, at: usize, dim: usize) -> &[f64] {
        &self.corners[at * dim..][..dim]
    }

    fn bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<EntryId>()
            + self.corners.capacity() * 8
            + (self.next.capacity() + self.free.capacity()) * 4
            + self.chains.capacity() * 8
    }
}

/// Skyline members as columns: row `r` is object `ids[r]` at
/// `points[r * dim..][..dim]` with coordinate sum `sums[r]`.
#[derive(Debug, Clone, Default)]
struct Members {
    ids: Vec<u64>,
    points: Vec<f64>,
    sums: Vec<f64>,
    rows: HashMap<u64, u32>,
}

impl Members {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn push(&mut self, oid: u64, point: &[f64]) {
        self.rows.insert(oid, self.ids.len() as u32);
        self.ids.push(oid);
        self.points.extend_from_slice(point);
        self.sums.push(point.iter().sum());
    }

    /// The rows as entries, row `r` numbered member `first + r`.
    fn iter(&self, dim: usize, first: usize) -> impl Iterator<Item = SkylineEntry<'_>> + '_ {
        let rows = self
            .ids
            .iter()
            .zip(first..)
            .zip(self.points.chunks_exact(dim));
        rows.map(|((&oid, member), point)| SkylineEntry { oid, member, point })
    }

    fn bytes(&self) -> usize {
        (self.ids.capacity() + self.points.capacity() + self.sums.capacity()) * 8
            + self.rows.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }
}

/// One cut of the scan index: members in descending `keys` order (one
/// axis, or the coordinate sum), their points copied in that order so a
/// scan of a prefix reads contiguous memory.
#[derive(Debug, Clone, Default)]
struct Cut {
    keys: Vec<f64>,
    members: Vec<u32>,
    points: Vec<f64>,
}

impl Cut {
    fn bytes(&self) -> usize {
        (self.keys.capacity() + self.points.capacity()) * 8 + self.members.capacity() * 4
    }
}

/// The frozen part of a maintainer (see the [module docs](self)):
/// written once by [`SkylineMaintainer::freeze`], shared by every clone.
#[derive(Debug, Default)]
struct Base {
    members: Members,
    /// One cut per axis, then the coordinate-sum cut.
    index: Vec<Cut>,
    /// Every member's plist as BBS recorded it.
    plists: Slots,
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
    /// Dimensionality of the indexed points (the stride of every point
    /// and corner column).
    dim: usize,
    /// What the last freeze shared: members `0..base.members.len()`.
    base: Arc<Base>,
    /// Members promoted since the freeze: member `base.members.len() + r`
    /// is row `r`.
    own: Members,
    /// Tombstone per member, base and own.
    dead: Vec<bool>,
    alive: usize,
    /// Per member, base and own: the tail of entries linked to it since
    /// the freeze; and the run's own arena, slots `B..` (see the
    /// [module docs](self)).
    slots: Slots,
    /// Per base slot, the slot after it in this run's chains: a base
    /// entry is re-homed by linking it where it lies. Empty until the
    /// first such link.
    relinked: Vec<u32>,
    /// The scan index this run rebuilt for itself; `None` = the base's.
    index: Option<Vec<Cut>>,
    /// Members `0..indexed` are in the scan index (tombstones included);
    /// the rest were promoted since it was built.
    indexed: usize,
    /// Removals since the scan index was built (tombstones inside it).
    stale: usize,
    heap: BinaryHeap<HeapEntry>,
    /// The corner of the slot being processed.
    corner: Vec<f64>,
    /// Members whose plists the current [`Self::remove`] re-homes.
    departed: Vec<usize>,
    /// Objects that entered the skyline during the last
    /// [`Self::remove`], in promotion order.
    entered: Vec<u64>,
    stats: SkylineStats,
    /// Test oracle: take the *last* live dominator in member order, by
    /// a plain scan (see `ownership_does_not_change_what_is_read`).
    #[cfg(test)]
    last_dominator_oracle: bool,
}

/// Snapshotting support for seeded evaluation: between calls the
/// candidate heap is always drained (every public mutator ends in the
/// internal BBS drain), so a clone shares the frozen base and copies
/// only what the run owns (see the [module docs](self)) — never
/// in-flight heap entries.
impl Clone for SkylineMaintainer {
    fn clone(&self) -> SkylineMaintainer {
        debug_assert!(
            self.heap.is_empty(),
            "maintainer cloned with a non-drained candidate heap"
        );
        SkylineMaintainer {
            dim: self.dim,
            base: Arc::clone(&self.base),
            own: self.own.clone(),
            dead: self.dead.clone(),
            alive: self.alive,
            slots: self.slots.clone(),
            relinked: self.relinked.clone(),
            index: self.index.clone(),
            indexed: self.indexed,
            stale: self.stale,
            heap: BinaryHeap::new(),
            corner: Vec::new(),
            departed: Vec::new(),
            entered: Vec::new(),
            stats: self.stats,
            #[cfg(test)]
            last_dominator_oracle: self.last_dominator_oracle,
        }
    }
}

impl SkylineMaintainer {
    /// Compute the initial skyline of the whole tree (BBS), recording
    /// pruned entries for later maintenance.
    pub fn build<R: NodeSource>(tree: &R) -> SkylineMaintainer {
        let mut m = SkylineMaintainer::empty(tree.dim());
        m.bbs(tree);
        m
    }

    /// [`Self::build`] on an empty maintainer.
    fn bbs<R: NodeSource>(&mut self, tree: &R) {
        self.admit(EntryId::Subtree(tree.root_page()), &vec![1.0; self.dim]);
        self.run(tree);
        self.freeze();
        self.entered.clear(); // build's "entries" are the initial skyline
    }

    fn empty(dim: usize) -> SkylineMaintainer {
        SkylineMaintainer {
            dim,
            base: Arc::new(Base {
                index: vec![Cut::default(); dim + 1],
                ..Base::default()
            }),
            own: Members::default(),
            dead: Vec::new(),
            alive: 0,
            slots: Slots::default(),
            relinked: Vec::new(),
            index: None,
            indexed: 0,
            stale: 0,
            heap: BinaryHeap::new(),
            corner: Vec::new(),
            departed: Vec::new(),
            entered: Vec::new(),
            stats: SkylineStats::default(),
            #[cfg(test)]
            last_dominator_oracle: false,
        }
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
        self.member(oid).is_some()
    }

    /// Skyline object `oid`, if present.
    pub fn get(&self, oid: u64) -> Option<SkylineEntry<'_>> {
        let member = self.member(oid)?;
        let point = self.point(member);
        Some(SkylineEntry { oid, member, point })
    }

    /// Iterate over the current skyline, in member order. Use
    /// [`SkylineMaintainer::len`] for the count.
    pub fn iter(&self) -> impl Iterator<Item = SkylineEntry<'_>> + '_ {
        let members = self.base.members.iter(self.dim, 0);
        let own = self.own.iter(self.dim, self.base.members.len());
        (members.chain(own).zip(&self.dead)).filter_map(|(e, &dead)| (!dead).then_some(e))
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> SkylineStats {
        self.stats
    }

    /// Remove assigned skyline objects and restore the skyline property
    /// over the remaining set, reading any newly undominated pages
    /// through `tree`. Returns the objects *promoted into* the skyline
    /// by this removal, in promotion order; their points are
    /// [`get`](Self::get)'s.
    ///
    /// # Panics
    /// Panics if any of the `oids` is not currently in the skyline —
    /// removing a non-skyline object through the maintainer is a logic
    /// error in the caller (the SB algorithm only assigns skyline
    /// objects).
    pub fn remove<R: NodeSource>(&mut self, oids: &[u64], tree: &R) -> &[u64] {
        self.entered.clear();
        let mut departed = std::mem::take(&mut self.departed);
        departed.clear();
        for &oid in oids {
            let m = self
                .member(oid)
                .unwrap_or_else(|| panic!("object {oid} is not in the skyline"));
            self.dead[m] = true;
            self.alive -= 1;
            self.stale += 1;
            departed.push(m);
        }

        // Re-home entries still dominated by a surviving skyline object;
        // the rest become candidates (the paper's `Scand`). The base
        // chain of a departed member is only read: its slots are linked
        // where they lie, so a snapshot keeps sharing them and nothing is
        // copied. The slots of its tail move as they are.
        let (base, dim) = (Arc::clone(&self.base), self.dim);
        let mut corner = std::mem::take(&mut self.corner);
        for &m in &departed {
            let mut slot = base.plists.chains.get(m).map_or(NONE, |&[first, _]| first);
            while slot != NONE {
                let at = slot as usize;
                self.rehome(slot, base.plists.corner(at, dim));
                slot = base.plists.next[at];
            }
            let [mut slot, _] = std::mem::replace(&mut self.slots.chains[m], [NONE; 2]);
            while slot != NONE {
                let next = self.next(slot);
                corner.clear();
                corner.extend_from_slice(self.corner(slot));
                self.rehome(slot, &corner);
                slot = next;
            }
        }
        self.corner = corner;
        self.departed = departed;

        self.run(tree);
        &self.entered
    }

    /// Approximate heap footprint of the maintained state (member
    /// columns, scan index, plists, lookup maps) with the shared base
    /// counted in full, for cache byte accounting of snapshots.
    pub fn approx_bytes(&self) -> usize {
        let cuts = |index: &[Cut]| index.iter().map(Cut::bytes).sum::<usize>();
        std::mem::size_of::<SkylineMaintainer>()
            + std::mem::size_of::<Base>()
            + self.base.members.bytes()
            + cuts(&self.base.index)
            + self.base.plists.bytes()
            + self.own.bytes()
            + self.dead.capacity()
            + self.slots.bytes()
            + self.relinked.capacity() * 4
            + self.index.as_deref().map_or(0, cuts)
    }

    /// `slot`'s index in the run's own arena; `None` for a base slot
    /// (see the [module docs](self)).
    fn own(&self, slot: u32) -> Option<usize> {
        (slot as usize).checked_sub(self.base.plists.next.len())
    }

    /// Where `slot` lives: the base's arena or the run's, and its index
    /// there.
    fn arena(&self, slot: u32) -> (&Slots, usize) {
        match self.own(slot) {
            None => (&self.base.plists, slot as usize),
            Some(own) => (&self.slots, own),
        }
    }

    fn entry(&self, slot: u32) -> EntryId {
        let (arena, at) = self.arena(slot);
        arena.ids[at]
    }

    fn corner(&self, slot: u32) -> &[f64] {
        let (arena, at) = self.arena(slot);
        arena.corner(at, self.dim)
    }

    /// The slot after `slot` in this run's chains.
    fn next(&self, slot: u32) -> u32 {
        match self.own(slot) {
            None => self.relinked[slot as usize],
            Some(own) => self.slots.next[own],
        }
    }

    fn next_mut(&mut self, slot: u32) -> &mut u32 {
        match self.own(slot) {
            None => {
                if self.relinked.is_empty() {
                    self.relinked = vec![NONE; self.base.plists.next.len()];
                }
                &mut self.relinked[slot as usize]
            }
            Some(own) => &mut self.slots.next[own],
        }
    }

    /// Append `slot` to `owner`'s tail.
    fn link(&mut self, owner: usize, slot: u32) {
        *self.next_mut(slot) = NONE;
        match self.slots.chains[owner][1] {
            NONE => self.slots.chains[owner][0] = slot,
            last => *self.next_mut(last) = slot,
        }
        self.slots.chains[owner][1] = slot;
    }

    /// A slot of the run's own arena holding `id` at corner `hi`.
    fn store(&mut self, id: EntryId, hi: &[f64]) -> u32 {
        (self.base.plists.next.len() + self.slots.store(id, hi)) as u32
    }

    /// Give back the slot of a consumed entry: an own slot is recycled,
    /// a base slot is simply never linked again.
    fn release(&mut self, slot: u32) {
        if let Some(own) = self.own(slot) {
            self.slots.free.push(own as u32);
        }
    }

    /// The live member holding `oid` (most are the base's: look there
    /// first).
    fn member(&self, oid: u64) -> Option<usize> {
        let m = match self.base.members.rows.get(&oid) {
            Some(&row) => row as usize,
            None => self.base.members.len() + *self.own.rows.get(&oid)? as usize,
        };
        (!self.dead[m]).then_some(m)
    }

    /// The columns holding `member`, and its row there.
    fn row(&self, member: usize) -> (&Members, usize) {
        match member.checked_sub(self.base.members.len()) {
            None => (&self.base.members, member),
            Some(row) => (&self.own, row),
        }
    }

    fn point(&self, member: usize) -> &[f64] {
        let (members, row) = self.row(member);
        &members.points[row * self.dim..][..self.dim]
    }

    /// Member `member`'s key in cut `cut`: coordinate `cut`, or past the
    /// last axis the coordinate sum.
    fn key(&self, member: usize, cut: usize) -> f64 {
        let (members, row) = self.row(member);
        if cut < self.dim {
            members.points[row * self.dim + cut]
        } else {
            members.sums[row]
        }
    }

    /// Move everything recorded so far behind a fresh shared base —
    /// member columns, lookup, scan index and the plists, arena and all;
    /// nothing is copied. Called once, by [`Self::build`], on a
    /// maintainer that has removed nothing.
    fn freeze(&mut self) {
        debug_assert!(self.base.members.len() == 0 && self.stale == 0);
        self.reindex();
        let chains = vec![[NONE; 2]; self.slots.chains.len()];
        let mut plists = std::mem::replace(
            &mut self.slots,
            Slots {
                chains,
                ..Slots::default()
            },
        );
        plists.free = Vec::new();
        plists.ids.shrink_to_fit();
        plists.corners.shrink_to_fit();
        plists.next.shrink_to_fit();
        self.base = Arc::new(Base {
            members: std::mem::take(&mut self.own),
            index: self.index.take().expect("just reindexed"),
            plists,
        });
    }

    /// Settle the entry in `slot`, whose corner is `hi`: onto the tail of
    /// a member that dominates it, or — none does — into the candidate
    /// heap. True iff it was pruned.
    ///
    /// Note on duplicates: when several objects share identical
    /// coordinates, exactly one of them represents the group in the
    /// skyline — the one with the smallest id among those left, whatever
    /// pages (or trees of a forest) hold them. That is the heap order's
    /// doing, not this function's: at equal keys subtrees pop before
    /// points, and a subtree that could hold a duplicate of a candidate
    /// has a key no larger, so when the first of the group pops the
    /// others are points in the heap beside it and fall to it by id —
    /// unless a member dominates them all, and they wait on plists.
    /// Removing the representative promotes the next.
    fn settle(&mut self, slot: u32, hi: &[f64]) -> bool {
        let owner = self.find_dominator(hi);
        match owner {
            Some(owner) => self.link(owner, slot),
            None => self.heap.push(HeapEntry {
                key: mindist_to_best(hi),
                id: self.entry(slot),
                slot,
            }),
        }
        owner.is_some()
    }

    /// One entry of a departed member's plist: to another dominator, or
    /// — none survives — back into the candidate heap.
    fn rehome(&mut self, slot: u32, hi: &[f64]) {
        if self.settle(slot, hi) {
            self.stats.entries_rehomed += 1;
        } else {
            self.stats.entries_reheaped += 1;
        }
    }

    /// Drain the candidate heap: standard BBS with plist recording.
    fn run<R: NodeSource>(&mut self, tree: &R) {
        let mut hi = std::mem::take(&mut self.corner);
        while let Some(e) = self.heap.pop() {
            hi.clear();
            hi.extend_from_slice(self.corner(e.slot));
            if let Some(owner) = self.find_dominator(&hi) {
                self.stats.entries_pruned += 1;
                self.link(owner, e.slot);
                continue;
            }
            self.release(e.slot);
            match e.id {
                EntryId::Point(oid) => self.promote(oid, &hi),
                EntryId::Subtree(pid) => {
                    let node = tree.read_node(pid);
                    self.stats.nodes_expanded += 1;
                    self.expand(tree, pid, &node);
                }
            }
        }
        self.corner = hi;
    }

    /// Push the children of `node`, read from `pid`, into the heap,
    /// pruning what the current skyline already dominates (with plist
    /// recording).
    fn expand<R: NodeSource>(&mut self, tree: &R, pid: PageId, node: &Node) {
        match node {
            Node::Leaf(leaf) => {
                for (oid, p) in leaf.iter() {
                    self.admit(EntryId::Point(oid), p);
                }
            }
            Node::Inner(inner) => {
                for i in 0..inner.len() {
                    let child = tree.child_page(pid, inner.child(i));
                    self.admit(EntryId::Subtree(child), inner.hi(i));
                }
            }
        }
    }

    /// One child of an expanded node: into its dominator's plist, or —
    /// undominated so far — into the candidate heap.
    fn admit(&mut self, id: EntryId, hi: &[f64]) {
        let slot = self.store(id, hi);
        if self.settle(slot, hi) {
            self.stats.entries_pruned += 1;
        }
    }

    fn promote(&mut self, oid: u64, point: &[f64]) {
        self.stats.points_promoted += 1;
        self.alive += 1;
        self.own.push(oid, point);
        self.dead.push(false);
        self.slots.chains.push([NONE; 2]);
        self.entered.push(oid);
    }

    /// A live member that dominates-or-equals `x`, if any (see
    /// "Dominance-scan acceleration" in the [module docs](self)): the
    /// members promoted since the index was built, then the shortest
    /// prefix among the cuts.
    fn find_dominator(&mut self, x: &[f64]) -> Option<usize> {
        #[cfg(test)]
        if self.last_dominator_oracle {
            return self.last_dominator(x);
        }
        self.maybe_reindex();
        let cutoff = x.iter().sum::<f64>() - SUM_SLACK;

        let first_fresh = self.indexed - self.base.members.len();
        let (dead, sums) = (&self.dead[self.indexed..], &self.own.sums[first_fresh..]);
        let points = &self.own.points[first_fresh * self.dim..];
        let live = dead
            .iter()
            .zip(sums)
            .map(|(&dead, &sum)| !dead & (sum >= cutoff));
        let (hit, tested) = first_dominator(points, x, live);
        self.stats.dominance_checks += tested;
        if let Some(r) = hit {
            return Some(self.indexed + r);
        }

        // The shortest prefix `key >= x's key` among the cuts (the first
        // of equals). A cut whose key at the shortest length so far still
        // qualifies reaches past it: one probe rules it out, and the
        // others are searched only up to that length.
        let index = self.index.as_ref().unwrap_or(&self.base.index);
        let (mut cut, mut len) = (&index[0], usize::MAX);
        for (other, &key) in index.iter().zip(x.iter().chain([&cutoff])) {
            if other.keys.get(len).is_some_and(|&k| k >= key) {
                continue;
            }
            let within = &other.keys[..len.min(other.keys.len())];
            let shorter = within.partition_point(|&k| k >= key);
            if shorter < len {
                (cut, len) = (other, shorter);
            }
        }
        let members = &cut.members[..len];
        let live = members.iter().map(|&m| !self.dead[m as usize]);
        let (hit, tested) = first_dominator(&cut.points[..len * self.dim], x, live);
        self.stats.dominance_checks += tested;
        hit.map(|r| members[r] as usize)
    }

    fn maybe_reindex(&mut self) {
        let churn = self.dead.len() - self.indexed + self.stale;
        if churn > 64 && churn * 4 > self.alive {
            self.reindex();
        }
    }

    /// Build this run a scan index over its live members. Each cut
    /// starts from the one in use, already in order, so the stable sort
    /// only has to merge the members promoted since into it.
    fn reindex(&mut self) {
        let in_use = self.index.as_ref().unwrap_or(&self.base.index);
        let index = (in_use.iter().enumerate())
            .map(|(c, old)| {
                let indexed = old.keys.iter().copied().zip(old.members.iter().copied());
                let fresh = (self.indexed..self.dead.len()).map(|m| (self.key(m, c), m as u32));
                let mut rows: Vec<(f64, u32)> = (indexed.chain(fresh))
                    .filter(|&(_, m)| !self.dead[m as usize])
                    .collect();
                rows.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut cut = Cut {
                    keys: rows.iter().map(|&(key, _)| key).collect(),
                    members: rows.iter().map(|&(_, m)| m).collect(),
                    points: Vec::with_capacity(rows.len() * self.dim),
                };
                for &m in &cut.members {
                    cut.points.extend_from_slice(self.point(m as usize));
                }
                cut
            })
            .collect();
        self.index = Some(index);
        self.indexed = self.dead.len();
        self.stale = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates_or_equal;
    use crate::naive::naive_skyline_excluding;
    use mpq_datagen::Distribution;
    use mpq_rtree::{Forest, IoStats, PointSet, RTree, RTreeParams};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::HashSet;

    impl SkylineMaintainer {
        /// `find_dominator` of the ownership oracle: the *last* live
        /// member in `iter()` order that dominates-or-equals `x`, by a
        /// plain scan of every member — no index, no cut, no early exit.
        pub(super) fn last_dominator(&self, x: &[f64]) -> Option<usize> {
            (0..self.dead.len())
                .rev()
                .find(|&m| !self.dead[m] && dominates_or_equal(self.point(m), x))
        }

        /// The slots of `member`'s plist: the base chain as BBS
        /// recorded it, then this run's tail.
        fn plist(&self, member: usize) -> impl Iterator<Item = u32> + '_ {
            let slot = |slot: u32| (slot != NONE).then_some(slot);
            let base = &self.base.plists;
            let recorded = base.chains.get(member).and_then(|&[first, _]| slot(first));
            let recorded = std::iter::successors(recorded, move |&s| slot(base.next[s as usize]));
            let tail = slot(self.slots.chains[member][0]);
            recorded.chain(std::iter::successors(tail, move |&s| slot(self.next(s))))
        }
    }

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
        let mut promoted = m.remove(&[victim], &tree).to_vec();
        let after: HashSet<u64> = m.iter().map(|e| e.oid).collect();
        let mut expected_new: Vec<u64> = after.difference(&before).copied().collect();
        expected_new.sort_unstable();
        promoted.sort_unstable();
        assert_eq!(promoted, expected_new);
        // promoted points carry correct coordinates
        for oid in promoted {
            assert_eq!(m.get(oid).map(|e| e.point), Some(ps.get(oid as usize)));
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
        // the smallest id stands for them; removing it promotes the next
        assert_eq!(sky_ids(&m), vec![0]);
        m.remove(&[0], &tree);
        assert_eq!(sky_ids(&m), vec![1]);
        // removing both remaining duplicates exposes the dominated point
        m.remove(&[1], &tree);
        assert_eq!(sky_ids(&m), vec![2]);
        m.remove(&[2], &tree);
        assert_eq!(sky_ids(&m), vec![3]);
    }

    /// A member keeps its number for good — through removals and in
    /// every clone — and a promotion takes the next unused number, never
    /// a departed member's: per-member state indexed by it stays valid
    /// for the maintainer's life.
    #[test]
    fn members_keep_their_numbers() {
        let ps = seeded_points(800, 3, 21);
        let tree = RTree::bulk_load(&ps, params());
        let mut m = SkylineMaintainer::build(&tree);
        let mut numbers: Vec<(u64, usize)> = m.iter().map(|e| (e.oid, e.member)).collect();
        assert!(numbers
            .iter()
            .enumerate()
            .all(|(i, &(_, member))| member == i));
        for _ in 0..30 {
            let victims: Vec<u64> = m.iter().take(2).map(|e| e.oid).collect();
            let promoted = m.remove(&victims, &tree).to_vec();
            for oid in promoted {
                let member = m.get(oid).unwrap().member;
                assert_eq!(member, numbers.len(), "object {oid}");
                numbers.push((oid, member));
            }
            let copy = m.clone();
            for e in m.iter().chain(copy.iter()) {
                assert_eq!(numbers[e.member], (e.oid, e.member));
                assert_eq!(m.get(e.oid), Some(e));
            }
        }
        assert!(numbers.len() > 80, "{} members", numbers.len());
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

    /// Every live member's plist — what the base recorded, then the
    /// tail — by owner, down to the corner bits.
    fn plist_dump(m: &SkylineMaintainer) -> Vec<(u64, Vec<EntryId>, Vec<u64>)> {
        let oids = m.base.members.ids.iter().chain(&m.own.ids);
        (oids.enumerate())
            .filter(|&(member, _)| !m.dead[member])
            .map(|(member, &oid)| {
                let (mut ids, mut corners) = (Vec::new(), Vec::new());
                for slot in m.plist(member) {
                    ids.push(m.entry(slot));
                    corners.extend(m.corner(slot).iter().map(|c| c.to_bits()));
                }
                (oid, ids, corners)
            })
            .collect()
    }

    #[test]
    fn clone_snapshots_diverge_independently() {
        let ps = Distribution::AntiCorrelated.generate(1500, 3, 7);
        let tree = RTree::bulk_load(&ps, params());
        let mut a = SkylineMaintainer::build(&tree);
        let baseline = sky_ids(&a);
        let plists = plist_dump(&a);
        assert!(plists.iter().any(|(_, ids, _)| !ids.is_empty()));
        let frozen = format!("{:?}", a.base);
        let mut b = a.clone();
        assert_eq!(sky_ids(&b), baseline);
        assert!(b.approx_bytes() > 0);
        // A frozen capture shares with the run that made it.
        assert!(Arc::ptr_eq(&a.base, &b.base));

        // The clone removes half the skyline — re-homing onto plists it
        // shares with the snapshot, re-heaping, promoting, rebuilding its
        // scan index — and tracks the naive skyline ...
        let mut removed = HashSet::new();
        for &victim in baseline.iter().step_by(2) {
            removed.insert(victim);
            b.remove(&[victim], &tree);
            if removed.len() % 16 == 0 {
                assert_eq!(sky_ids(&b), naive_skyline_excluding(&ps, &removed));
            }
        }
        assert_eq!(sky_ids(&b), naive_skyline_excluding(&ps, &removed));
        assert!(b.own.len() > 0 && b.index.is_some());
        // ... while the snapshot's members and plists stay bit for bit
        // what they were, behind a base that was never written and that
        // the clone still shares: nothing was copied to diverge.
        assert_eq!(sky_ids(&a), baseline);
        assert_eq!(plist_dump(&a), plists);
        assert_eq!(format!("{:?}", a.base), frozen);
        assert!(Arc::ptr_eq(&a.base, &b.base));
        assert_eq!(Arc::strong_count(&a.base), 2);

        // ... and it still maintains correctly on its own.
        let victim_a = a.iter().nth(1).unwrap().oid;
        a.remove(&[victim_a], &tree);
        let mut removed_a = HashSet::new();
        removed_a.insert(victim_a);
        assert_eq!(sky_ids(&a), naive_skyline_excluding(&ps, &removed_a));
        assert_eq!(format!("{:?}", b.base), frozen);
    }

    /// A resumed run re-homes and re-heaps the base's entries where they
    /// lie: its own arena grows only by entries it read from pages after
    /// the clone, never by a copy of one the base holds.
    #[test]
    fn a_resumed_run_links_base_entries_in_place() {
        let ps = Distribution::AntiCorrelated.generate(1500, 3, 7);
        let tree = RTree::bulk_load(&ps, params());
        let seed = SkylineMaintainer::build(&tree);
        let src = Recording {
            tree: &tree,
            reads: RefCell::default(),
        };
        let mut run = seed.clone();
        for victim in sky_ids(&seed).into_iter().step_by(2) {
            run.remove(&[victim], &src);
        }
        let moved = run.stats().entries_rehomed + run.stats().entries_reheaped;

        let mut read = Vec::new();
        for &pid in src.reads.borrow().iter() {
            match &*tree.read_node(pid) {
                Node::Leaf(leaf) => read.extend(leaf.iter().map(|(oid, _)| EntryId::Point(oid))),
                Node::Inner(inner) => read.extend(
                    (0..inner.len())
                        .map(|i| EntryId::Subtree(tree.child_page(pid, inner.child(i)))),
                ),
            }
        }
        let own = &run.slots;
        assert!(own.ids.iter().all(|id| read.contains(id)));
        assert!(own.ids.len() <= read.len(), "{} slots", own.ids.len());
        assert_eq!(own.corners.len(), own.ids.len() * 3);
        assert!(
            moved > own.ids.len() as u64,
            "{moved} entries moved, {} own slots",
            own.ids.len()
        );
        // The base entries were linked through the run's column ...
        assert_eq!(run.relinked.len(), seed.base.plists.ids.len());
        assert!(seed.relinked.is_empty() && seed.slots.ids.is_empty());
        // ... and the run still holds the skyline of what is left.
        let removed: HashSet<u64> = sky_ids(&seed).into_iter().step_by(2).collect();
        assert_eq!(sky_ids(&run), naive_skyline_excluding(&ps, &removed));
    }

    /// A node source that records the pages read through it, in order.
    struct Recording<R> {
        tree: R,
        reads: RefCell<Vec<PageId>>,
    }

    impl<R: NodeSource> NodeSource for Recording<R> {
        fn dim(&self) -> usize {
            self.tree.dim()
        }
        fn root_page(&self) -> PageId {
            self.tree.root_page()
        }
        fn len(&self) -> u64 {
            self.tree.len()
        }
        fn read_node(&self, pid: PageId) -> Arc<Node> {
            self.reads.borrow_mut().push(pid);
            self.tree.read_node(pid)
        }
        fn child_page(&self, parent: PageId, child: PageId) -> PageId {
            self.tree.child_page(parent, child)
        }
        fn io_snapshot(&self) -> IoStats {
            self.tree.io_snapshot()
        }
    }

    /// BBS and maintenance over a forest are BBS and maintenance over
    /// the union of its trees: the skyline of the whole point set at the
    /// build, through a wave of removals, and — the plists are sound —
    /// after the removal of any one member, by either BBS. On a grid,
    /// where points repeat, that is id for id the smallest one left at
    /// each point, however the objects are cut into trees.
    #[test]
    fn a_forest_has_the_skyline_of_its_union() {
        use crate::bbs::compute_skyline_excluding;
        let mut grid = PointSet::new(3);
        for (_, p) in seeded_points(900, 3, 61).iter() {
            let cell: Vec<f64> = p.iter().map(|v| (v * 6.0).floor() / 6.0).collect();
            grid.push(&cell);
        }
        let workloads = [
            (
                "independent",
                Distribution::Independent.generate(900, 2, 47),
            ),
            ("anti", Distribution::AntiCorrelated.generate(900, 3, 47)),
            ("grid", grid),
        ];
        for (name, ps) in workloads {
            for k in [1, 2, 5] {
                // Dealt round-robin, and one part that holds nothing.
                let mut trees: Vec<RTree> =
                    (0..k).map(|_| RTree::new(ps.dim(), params())).collect();
                for (i, p) in ps.iter() {
                    trees[i % k].insert(p, i as u64);
                }
                trees.push(RTree::new(ps.dim(), params()));
                let forest = Forest::new(trees.iter().collect());
                let label = format!("{name} K={k}");
                let without = |gone: &HashSet<u64>| naive_skyline_excluding(&ps, gone);
                let rescan = |gone: &HashSet<u64>| {
                    let sky = compute_skyline_excluding(&forest, |oid| gone.contains(&oid));
                    let mut ids: Vec<u64> = sky.into_iter().map(|(oid, _)| oid).collect();
                    ids.sort_unstable();
                    ids
                };

                let built = SkylineMaintainer::build(&forest);
                let mut gone = HashSet::new();
                assert_eq!(sky_ids(&built), without(&gone), "{label}");
                assert_eq!(rescan(&gone), without(&gone), "{label}");
                for member in sky_ids(&built) {
                    let mut m = built.clone();
                    m.remove(&[member], &forest);
                    let gone = HashSet::from([member]);
                    assert_eq!(sky_ids(&m), without(&gone), "{label}, without {member}");
                }

                let mut m = built;
                for wave in 0..12 {
                    let victims: Vec<u64> = sky_ids(&m).into_iter().step_by(3).collect();
                    m.remove(&victims, &forest);
                    gone.extend(victims);
                    assert_eq!(sky_ids(&m), without(&gone), "{label}, wave {wave}");
                    assert_eq!(rescan(&gone), without(&gone), "{label}, wave {wave}");
                }
            }
        }
    }

    /// A forest of one part is its tree: the build and every removal
    /// read the very pages, in the very order, the bare source reads.
    #[test]
    fn a_one_part_forest_reads_what_its_tree_reads() {
        let ps = Distribution::AntiCorrelated.generate(1_500, 3, 53);
        let tree = RTree::bulk_load(&ps, params());
        let bare = Recording {
            tree: &tree,
            reads: RefCell::default(),
        };
        let through = Recording {
            tree: Forest::new(vec![&tree]),
            reads: RefCell::default(),
        };
        let mut on_bare = SkylineMaintainer::build(&bare);
        let mut on_forest = SkylineMaintainer::build(&through);
        for round in 0..30 {
            assert_eq!(*bare.reads.borrow(), *through.reads.borrow(), "{round}");
            assert!(on_bare.iter().eq(on_forest.iter()), "round {round}");
            let victims: Vec<u64> = sky_ids(&on_bare).into_iter().take(1 + round % 5).collect();
            let promoted = on_bare.remove(&victims, &bare).to_vec();
            assert_eq!(promoted, on_forest.remove(&victims, &through));
        }
        assert!(bare.reads.borrow().len() > 100);
    }

    /// `find_dominator` may hand an entry to *any* dominator. Against an
    /// oracle that always picks the last one in `iter()` order — as far
    /// from the indexed scan's choice as a policy gets — the skyline,
    /// the promotions and their order, the expansions and the very
    /// sequence of pages read agree after every removal.
    #[test]
    fn ownership_does_not_change_what_is_read() {
        let workloads = [
            (Distribution::Independent, 2, 600),
            (Distribution::Independent, 4, 1200),
            (Distribution::AntiCorrelated, 3, 1200),
            (Distribution::Clustered { clusters: 3 }, 5, 800),
        ];
        for (distribution, dim, n) in workloads {
            let ps = distribution.generate(n, dim, 31);
            let tree = RTree::bulk_load(&ps, params());
            let recording = || Recording {
                tree: &tree,
                reads: RefCell::default(),
            };
            let (src, oracle_src) = (recording(), recording());
            let mut m = SkylineMaintainer::build(&src);
            let mut oracle = SkylineMaintainer::empty(dim);
            oracle.last_dominator_oracle = true;
            oracle.bbs(&oracle_src);

            let mut owners_differed = false;
            for round in 0.. {
                let label = format!("{} dim {dim} round {round}", distribution.name());
                assert!(m.iter().eq(oracle.iter()), "{label}: skyline");
                let (s, o) = (m.stats(), oracle.stats());
                assert_eq!(s.nodes_expanded, o.nodes_expanded, "{label}");
                assert_eq!(s.points_promoted, o.points_promoted, "{label}");
                assert_eq!(*src.reads.borrow(), *oracle_src.reads.borrow(), "{label}");
                owners_differed |= plist_dump(&m) != plist_dump(&oracle);

                let victims: Vec<u64> = sky_ids(&m).into_iter().take(1 + round % 8).collect();
                if victims.is_empty() || round == 60 {
                    break;
                }
                let promoted = m.remove(&victims, &src).to_vec();
                assert_eq!(promoted, oracle.remove(&victims, &oracle_src), "{label}");
            }
            assert!(owners_differed, "the oracle must disagree on ownership");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// After any interleaving of removals — through promotions,
        /// tombstones and index rebuilds, on the specialised and the
        /// generic scan — `find_dominator` answers `Some(m)` only for a
        /// live member that dominates-or-equals the probe and `None`
        /// only when a linear scan over `iter()` finds none either.
        #[test]
        fn find_dominator_agrees_with_a_linear_scan(
            dim in prop_oneof![Just(2usize), Just(3usize), Just(4usize), Just(5usize), Just(7usize)],
            rows in proptest::collection::vec(proptest::collection::vec(0u8..=16, 7), 40..400),
            removals in proptest::collection::vec((1usize..=8, any::<u64>()), 0..40),
            probes in proptest::collection::vec(proptest::collection::vec(0u8..=17, 7), 1..24),
        ) {
            // A coarse grid: ties on every axis, equal sums, duplicates.
            let on_grid = |row: &Vec<u8>| -> Vec<f64> {
                row[..dim].iter().map(|&c| c as f64 / 16.0).collect()
            };
            let mut ps = PointSet::new(dim);
            for row in &rows {
                ps.push(&on_grid(row));
            }
            let tree = RTree::bulk_load(&ps, params());
            let mut m = SkylineMaintainer::build(&tree);
            for step in 0..=removals.len() {
                for probe in &probes {
                    let x = on_grid(probe);
                    let dominated = m.iter().any(|e| dominates_or_equal(e.point, &x));
                    match m.find_dominator(&x) {
                        Some(member) => {
                            prop_assert!(!m.dead[member], "member {} is dead", member);
                            prop_assert!(dominates_or_equal(m.point(member), &x));
                        }
                        None => prop_assert!(!dominated, "missed a dominator of {:?}", x),
                    }
                }
                let live = sky_ids(&m);
                let Some(&(batch, pick)) = removals.get(step).filter(|_| !live.is_empty()) else {
                    break;
                };
                let victims: Vec<u64> = (0..batch.min(live.len()))
                    .map(|k| live[(pick as usize + k) % live.len()])
                    .collect();
                m.remove(&victims, &tree);
            }
        }
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
