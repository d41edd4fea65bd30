//! The writers' index: object id → point, as two flat columns, for the
//! mutations that must find an object's point before they can touch it.
//!
//! Every evaluation reads the inventory through the R-tree alone, the
//! paper's one index over the objects. Only a remove or an update needs
//! the reverse lookup — a tree delete names the entry by its point — so
//! an engine holds no table until its first remove or update fills one
//! from its tree ([`ObjectTable::from_tree`]), and a tenant that only
//! reads and inserts never holds one. From then on every mutation keeps
//! it current.
//!
//! A map of boxed points would cost `n` allocations and more bytes than
//! the pages it mirrors. Ids are minted in increasing order, so a sorted
//! `Vec<u64>` beside one contiguous `Vec<f64>` holds the same mapping: a
//! fill is two walks and a sort of the ids, a mint appends, a lookup is
//! a binary search, and an out-of-order id would be a `memmove`.
//!
//! A build starts here too: [`validated_keys`] validates an inventory
//! and fills the key buffer the bulk load sorts.

use mpq_rtree::bulk::{side_by_side, sort_key, thread_budget};
use mpq_rtree::{PointSet, RTree};

use crate::engine::{check_inventory_len, validate_point};
use crate::error::MpqError;

/// Fewest objects worth a thread of their own in [`validated_keys`]'
/// pass: a second thread from 65 536 objects on. The pass reads every
/// coordinate and writes a key an object, mostly into fresh pages, and
/// spawns and joins its threads (20-60 µs a thread on the two-vCPU
/// build container). Whole 4-d builds on two threads against one, when a
/// third pass also copied the points out: 0.48 against 0.27 ms at 4 000
/// objects, 0.78 / 0.61 at 8 000, 1.83 / 1.56 at 16 000, 2.77 / 2.84 at
/// 32 000 (even), 5.36 / 5.82 at 64 000, 16.5 / 20.1 at 200 000.
const CUT_MIN_OBJECTS: usize = 32 * 1024;

/// Validate `objects` and fill the key buffer a build sorts: one
/// [`sort_key`] per object, in id order.
///
/// Everything a build refuses an inventory for — empty, more than a
/// bulk load takes, a point off the preference space — is reported
/// here, naming the first bad object in id order, before anything is
/// allocated for the build, let alone written. The key buffer is
/// allocated once, at its final size, on this thread; the cores share
/// the filling, each taking a range of ids.
pub(crate) fn validated_keys(objects: &PointSet) -> Result<Vec<u128>, MpqError> {
    let (n, dim) = (objects.len(), objects.dim());
    if n == 0 {
        return Err(MpqError::EmptyObjects);
    }
    check_inventory_len(n)?;
    // Threads that share a pass, each taking `per_lane` consecutive ids.
    let lanes = thread_budget().min(n / CUT_MIN_OBJECTS).max(1);
    let per_lane = n.div_ceil(lanes);
    let mut keys = vec![0u128; n];
    let checked = side_by_side(keys.chunks_mut(per_lane).enumerate(), |(lane, keys)| {
        let ids = lane * per_lane..lane * per_lane + keys.len();
        // One branch-free sweep says whether any coordinate is off the
        // preference space (a NaN is in no range); only then is the
        // first one looked for.
        let coords = &objects.as_flat()[ids.start * dim..ids.end * dim];
        if !coords
            .iter()
            .fold(true, |ok, v| ok & (0.0..=1.0).contains(v))
        {
            for i in ids.clone() {
                validate_point(i as u64, dim, objects.get(i))?;
            }
        }
        for (key, i) in keys.iter_mut().zip(ids) {
            *key = sort_key(objects, i);
        }
        Ok(())
    });
    checked.into_iter().collect::<Result<(), MpqError>>()?;
    Ok(keys)
}

/// Object id → point for the objects of an engine.
///
/// Slots are kept in ascending id order. A removed object leaves a
/// tombstone behind, and the table is compacted once tombstones
/// outnumber the live slots, so a removal costs O(log n) amortised.
#[derive(Debug)]
pub(crate) struct ObjectTable {
    dim: usize,
    /// Id of every slot, tombstones included, strictly ascending.
    oids: Vec<u64>,
    /// Slot `i`'s point at `coords[i * dim..(i + 1) * dim]`.
    coords: Vec<f64>,
    /// Slot `i` is a tombstone.
    dead: Vec<bool>,
    live: usize,
}

/// Slot counts below this are never worth compacting.
const COMPACT_MIN_SLOTS: usize = 64;

impl ObjectTable {
    /// The table of every object `tree` holds, in two walks of its
    /// leaves read past the buffer pool (see [`RTree::for_each_point`]):
    /// the first lists the ids, which are sorted in place, the second
    /// puts each point in its id's slot. Nothing is allocated but the
    /// table itself, so a fill costs no more memory at its peak than it
    /// keeps. The tree must not change in between: the engine fills
    /// under its mutator lock.
    pub(crate) fn from_tree(tree: &RTree) -> ObjectTable {
        let dim = tree.dim();
        // The count sizes the id column, capped by what the pages could
        // hold in case a header said otherwise.
        let n = (tree.len() as usize).min(tree.page_count() * tree.leaf_capacity());
        let mut oids = Vec::with_capacity(n);
        tree.for_each_point(|oid, _| oids.push(oid));
        oids.sort_unstable();
        let mut coords = vec![0.0; oids.len() * dim];
        tree.for_each_point(|oid, p| {
            let slot = (oids.binary_search(&oid)).expect("the second walk meets the first's ids");
            coords[slot * dim..(slot + 1) * dim].copy_from_slice(p);
        });
        ObjectTable {
            dim,
            live: oids.len(),
            dead: vec![false; oids.len()],
            oids,
            coords,
        }
    }

    fn slot(&self, oid: u64) -> Option<usize> {
        self.oids
            .binary_search(&oid)
            .ok()
            .filter(|&slot| !self.dead[slot])
    }

    /// The point stored for `oid`, if it is live.
    pub fn get(&self, oid: u64) -> Option<&[f64]> {
        self.slot(oid)
            .map(|slot| &self.coords[slot * self.dim..(slot + 1) * self.dim])
    }

    /// Store `point` under `oid`, replacing whatever the id held.
    pub fn insert(&mut self, oid: u64, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "point dimensionality mismatch");
        if self.oids.last().is_none_or(|&last| last < oid) {
            self.oids.push(oid);
            self.coords.extend_from_slice(point);
            self.dead.push(false);
            self.live += 1;
            return;
        }
        match self.oids.binary_search(&oid) {
            Ok(slot) => {
                self.coords[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(point);
                self.live += usize::from(std::mem::take(&mut self.dead[slot]));
            }
            Err(slot) => {
                self.oids.insert(slot, oid);
                self.dead.insert(slot, false);
                let at = slot * self.dim;
                self.coords.splice(at..at, point.iter().copied());
                self.live += 1;
            }
        }
    }

    /// Drop `oid`; false if it was not live.
    pub fn remove(&mut self, oid: u64) -> bool {
        let Some(slot) = self.slot(oid) else {
            return false;
        };
        self.dead[slot] = true;
        self.live -= 1;
        if self.oids.len() >= COMPACT_MIN_SLOTS && self.live < self.oids.len() / 2 {
            self.compact();
        }
        true
    }

    /// Squeeze the tombstones out, keeping slot order.
    fn compact(&mut self) {
        let mut kept = 0;
        for slot in 0..self.oids.len() {
            if self.dead[slot] {
                continue;
            }
            self.oids[kept] = self.oids[slot];
            self.coords
                .copy_within(slot * self.dim..(slot + 1) * self.dim, kept * self.dim);
            kept += 1;
        }
        self.oids.truncate(kept);
        self.coords.truncate(kept * self.dim);
        self.dead.clear();
        self.dead.resize(kept, false);
    }

    /// Live `(oid, point)` pairs in ascending id order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (u64, &[f64])> + '_ {
        self.oids
            .iter()
            .zip(self.coords.chunks_exact(self.dim))
            .zip(&self.dead)
            .filter(|(_, &dead)| !dead)
            .map(|((&oid, point), _)| (oid, point))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use mpq_rtree::RTreeParams;

    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Everything observable about the table against a map model.
    fn assert_matches(table: &ObjectTable, model: &BTreeMap<u64, Vec<f64>>, probes: u64) {
        assert_eq!(table.live, model.len());
        let listed: Vec<(u64, Vec<f64>)> = table.iter().map(|(o, p)| (o, p.to_vec())).collect();
        let want: Vec<(u64, Vec<f64>)> = model.iter().map(|(&o, p)| (o, p.clone())).collect();
        assert_eq!(listed, want, "ascending iteration");
        for probe in 0..probes {
            assert_eq!(table.get(probe), model.get(&probe).map(Vec::as_slice));
        }
    }

    #[test]
    fn table_tracks_a_btreemap_model_under_a_seeded_schedule() {
        for (seed, dim) in [(1u64, 1usize), (2009, 3), (4242, 4)] {
            let mut state = seed;
            let point = |state: &mut u64| -> Vec<f64> {
                (0..dim)
                    .map(|_| (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64)
                    .collect()
            };
            // Start from a tree holding explicit, unsorted ids.
            let tree = RTree::new(dim, RTreeParams::default());
            let mut model = BTreeMap::new();
            for oid in [9u64, 2, 30, 4, 17] {
                let p = point(&mut state);
                tree.insert(&p, oid);
                model.insert(oid, p);
            }
            let mut table = ObjectTable::from_tree(&tree);
            // The engine's mint: one past the highest id handed out.
            let mut mint = 31;
            assert_matches(&table, &model, mint + 3);

            let mut compactions = 0;
            for step in 0..1200 {
                let r = xorshift(&mut state);
                // Alternate growth and decay so tombstones overtake the
                // live slots several times.
                let shrinking = (step / 200) % 2 == 1;
                match r % 10 {
                    // append: mint the next id
                    0..=3 if !shrinking => {
                        let p = point(&mut state);
                        table.insert(mint, &p);
                        model.insert(mint, p);
                        mint += 1;
                    }
                    // out-of-order insert below the mint (new, live or
                    // tombstoned id alike), or a gap above it
                    4 => {
                        let oid = (r >> 8) % (mint + 4);
                        let p = point(&mut state);
                        table.insert(oid, &p);
                        model.insert(oid, p);
                        mint = mint.max(oid + 1);
                    }
                    // update a live id in place
                    5 => {
                        if let Some(&oid) = model.keys().nth((r >> 8) as usize % model.len().max(1))
                        {
                            let p = point(&mut state);
                            table.insert(oid, &p);
                            model.insert(oid, p);
                        }
                    }
                    // remove: a live id, or a miss
                    _ => {
                        let oid = (r >> 8) % (mint + 2);
                        let slots = table.oids.len();
                        assert_eq!(table.remove(oid), model.remove(&oid).is_some());
                        compactions += usize::from(table.oids.len() < slots);
                    }
                }
                assert_matches(&table, &model, mint + 3);
            }
            assert!(compactions >= 2, "schedule must compact: {compactions}");
        }
    }

    /// A filled table holds exactly what the tree holds, after inserts
    /// and deletes, and the walks that filled it left the buffer pool as
    /// they found it; an empty tree fills an empty table.
    #[test]
    fn a_table_filled_from_a_tree_is_the_trees_inventory() {
        let empty = ObjectTable::from_tree(&RTree::new(2, RTreeParams::default()));
        assert_matches(&empty, &BTreeMap::new(), 4);

        let mut state = 77u64;
        let mut points = PointSet::new(3);
        for _ in 0..500 {
            let p: Vec<f64> = (0..3)
                .map(|_| (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64)
                .collect();
            points.push(&p);
        }
        let params = RTreeParams {
            page_size: 512,
            buffer_capacity: 4,
            ..RTreeParams::default()
        };
        let tree = RTree::bulk_load(&points, params);
        let mut model: BTreeMap<u64, Vec<f64>> =
            points.iter().map(|(i, p)| (i as u64, p.to_vec())).collect();
        for oid in (0..500u64).step_by(7) {
            assert!(tree.delete(points.get(oid as usize), oid));
            model.remove(&oid);
        }
        for oid in 600..640u64 {
            let p = [0.25, (oid % 10) as f64 / 10.0, 0.5];
            tree.insert(&p, oid);
            model.insert(oid, p.to_vec());
        }
        let before = tree.io_stats();
        let table = ObjectTable::from_tree(&tree);
        assert_eq!(tree.io_stats(), before, "the walks are no query I/O");
        assert_matches(&table, &model, 650);
    }
}
