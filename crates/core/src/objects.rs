//! The engine's record of its live inventory: object id → point, as
//! two flat columns.
//!
//! A map of boxed points would cost `n` allocations and as many random
//! tree inserts on every build and reopen, and more bytes than the page
//! file it mirrors. Ids are minted in increasing order, so a sorted
//! `Vec<u64>` beside one contiguous `Vec<f64>` holds the same mapping:
//! a build fills it with one copy, a mint appends, a lookup is a binary
//! search, and an out-of-order id (a shard takes whatever id the engine
//! minted and routed to it, and those do ascend) would be a `memmove`.
//!
//! A build starts here too: a [`Cut`] validates an inventory and cuts it
//! into the key buffer the bulk loads sort and one table a shard.

use mpq_rtree::bulk::{side_by_side, sort_key, thread_budget};
use mpq_rtree::PointSet;

use crate::engine::{check_inventory_len, validate_point};
use crate::error::MpqError;

/// An inventory, validated and cut into parts: what an engine's shards
/// are built from — first the key buffer their bulk loads sort
/// ([`Cut::keys`]), then, once the trees stand and that buffer is done
/// with, one table a part ([`Cut::into_tables`]).
pub(crate) struct Cut<'o, P> {
    objects: &'o PointSet,
    part_of: P,
    /// Threads that share a pass, each taking `per_lane` consecutive ids.
    lanes: usize,
    per_lane: usize,
    /// `counts[lane * parts + part]`: the lane's objects of the part.
    counts: Vec<usize>,
    /// One [`sort_key`] per object, part after part.
    pub keys: Vec<u128>,
    /// Part `j`'s keys are `keys[bounds[j]..bounds[j + 1]]`.
    pub bounds: Vec<usize>,
}

/// Fewest objects worth a thread of their own in a [`Cut`]'s passes: a
/// second thread from 65 536 objects on. The three passes write 56 bytes
/// an object, mostly into fresh pages, about 25 ns an object in all, and
/// each spawns and joins its threads (20-60 µs a thread on the two-vCPU
/// build container). Whole 4-d builds on two threads against one: 0.48
/// against 0.27 ms at 4 000 objects, 0.78 / 0.61 at 8 000, 1.83 / 1.56
/// at 16 000, 2.77 / 2.84 at 32 000 (even), 5.36 / 5.82 at 64 000,
/// 16.5 / 20.1 at 200 000.
const CUT_MIN_OBJECTS: usize = 32 * 1024;

impl<'o, P: Fn(u64) -> usize + Sync> Cut<'o, P> {
    /// Validate `objects` and cut its keys `parts` ways, object `i` going
    /// to part `part_of(i)`.
    ///
    /// Everything a build refuses an inventory for — empty, more than a
    /// bulk load takes, a point off the preference space — is reported
    /// here, naming the first bad object in id order, before anything is
    /// allocated for the build, let alone written. What is allocated is
    /// allocated once, at its final size, on this thread; the cores
    /// share the filling, each taking a range of ids.
    pub(crate) fn new(
        objects: &'o PointSet,
        parts: usize,
        part_of: P,
    ) -> Result<Cut<'o, P>, MpqError> {
        let (n, dim) = (objects.len(), objects.dim());
        if n == 0 {
            return Err(MpqError::EmptyObjects);
        }
        check_inventory_len(n)?;
        let lanes = thread_budget().min(n / CUT_MIN_OBJECTS).max(1);
        let mut cut = Cut {
            objects,
            part_of,
            lanes,
            per_lane: n.div_ceil(lanes),
            counts: Vec::new(),
            keys: Vec::new(),
            bounds: Vec::with_capacity(parts + 1),
        };

        // Validate, and count every lane's share of every part.
        let mut counts = vec![0; lanes * parts];
        let checked = side_by_side(counts.chunks_mut(parts).enumerate(), |(lane, counts)| {
            let ids = cut.ids_of(lane);
            // One branch-free sweep says whether any coordinate is off
            // the preference space (a NaN is in no range); only then is
            // the first one looked for.
            let coords = &objects.as_flat()[ids.start * dim..ids.end * dim];
            if !coords
                .iter()
                .fold(true, |ok, v| ok & (0.0..=1.0).contains(v))
            {
                for i in ids.clone() {
                    validate_point(i as u64, dim, objects.get(i))?;
                }
            }
            for i in ids {
                counts[(cut.part_of)(i as u64)] += 1;
            }
            Ok(())
        });
        checked.into_iter().collect::<Result<(), MpqError>>()?;
        cut.counts = counts;

        cut.bounds.push(0);
        for part in 0..parts {
            let size: usize = cut.counts.iter().skip(part).step_by(parts).sum();
            cut.bounds.push(cut.bounds[part] + size);
        }
        let mut keys = vec![0u128; n];
        let parts_of_keys = (cut.bounds.windows(2)).scan(&mut keys[..], |rest, part| {
            Some(take(rest, part[1] - part[0]))
        });
        let runs = cut.runs(parts_of_keys, 1);
        side_by_side(runs.into_iter().enumerate(), |(lane, mut runs)| {
            for i in cut.ids_of(lane) {
                take(&mut runs[(cut.part_of)(i as u64)], 1)[0] = sort_key(objects, i);
            }
        });
        cut.keys = keys;
        Ok(cut)
    }

    /// The ids lane `lane` takes.
    fn ids_of(&self, lane: usize) -> std::ops::Range<usize> {
        lane * self.per_lane..self.objects.len().min((lane + 1) * self.per_lane)
    }

    /// Cut every part's column, `width` items an object, into the runs
    /// the lanes write, `runs[lane][part]`: within a part ids ascend, so a
    /// lane's objects are one run of the part's column, lane after lane.
    fn runs<'c, T>(
        &self,
        columns: impl Iterator<Item = &'c mut [T]>,
        width: usize,
    ) -> Vec<Vec<&'c mut [T]>> {
        let parts = self.bounds.len() - 1;
        let mut runs: Vec<Vec<&mut [T]>> =
            (0..self.lanes).map(|_| Vec::with_capacity(parts)).collect();
        for (part, mut column) in columns.enumerate() {
            for (lane, runs) in runs.iter_mut().enumerate() {
                runs.push(take(&mut column, self.counts[lane * parts + part] * width));
            }
        }
        runs
    }

    /// One table a part, each holding the part's objects under their
    /// indices in the inventory. The key buffer goes first: the tables'
    /// columns, allocated here at their final size, can take its place.
    pub(crate) fn into_tables(mut self) -> Vec<ObjectTable> {
        self.keys = Vec::new();
        let (objects, dim) = (self.objects, self.objects.dim());
        let mut columns: Vec<(Vec<u64>, Vec<f64>)> = (self.bounds.windows(2))
            .map(|part| {
                (
                    vec![0; part[1] - part[0]],
                    vec![0.0; (part[1] - part[0]) * dim],
                )
            })
            .collect();
        let (oids, coords): (Vec<_>, Vec<_>) = (columns.iter_mut())
            .map(|(oids, coords)| (&mut oids[..], &mut coords[..]))
            .unzip();
        let runs =
            (self.runs(oids.into_iter(), 1).into_iter()).zip(self.runs(coords.into_iter(), dim));
        side_by_side(runs.enumerate(), |(lane, (mut oids, mut coords))| {
            for i in self.ids_of(lane) {
                let part = (self.part_of)(i as u64);
                take(&mut oids[part], 1)[0] = i as u64;
                take(&mut coords[part], dim).copy_from_slice(objects.get(i));
            }
        });
        (columns.into_iter())
            .map(|(oids, coords)| ObjectTable::from_columns(dim, oids, coords))
            .collect()
    }
}

/// Split the first `n` items off `rest`.
fn take<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    head
}

/// Object id → point for one engine, plus the engine's id bound.
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
    /// One past the highest id ever stored. Never decreases: a removed
    /// id stays spent.
    bound: u64,
}

/// Slot counts below this are never worth compacting.
const COMPACT_MIN_SLOTS: usize = 64;

impl ObjectTable {
    /// The table holding `oids[i]` at `coords[i * dim..(i + 1) * dim]`.
    /// Columns already in ascending id order are adopted as they are;
    /// otherwise they are sorted once. Ids must be distinct.
    pub(crate) fn from_columns(
        dim: usize,
        mut oids: Vec<u64>,
        mut coords: Vec<f64>,
    ) -> ObjectTable {
        assert_eq!(oids.len() * dim, coords.len(), "ragged object columns");
        if !oids.windows(2).all(|w| w[0] < w[1]) {
            let mut order: Vec<(u64, usize)> = oids.iter().copied().zip(0..).collect();
            order.sort_unstable();
            debug_assert!(order.windows(2).all(|w| w[0].0 < w[1].0), "duplicate oid");
            oids = order.iter().map(|&(oid, _)| oid).collect();
            coords = order
                .iter()
                .flat_map(|&(_, at)| &coords[at * dim..(at + 1) * dim])
                .copied()
                .collect();
        }
        ObjectTable {
            dim,
            bound: oids.last().map_or(0, |&last| last.saturating_add(1)),
            live: oids.len(),
            dead: vec![false; oids.len()],
            oids,
            coords,
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff no object is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// One past the highest id the table ever held.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Declare every id below `bound` spent (recovery: an id the log or
    /// a checkpoint has seen must not be minted again).
    pub(crate) fn raise_bound(&mut self, bound: u64) {
        self.bound = self.bound.max(bound);
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

    /// Store `point` under `oid`, replacing whatever the id held, and
    /// raise the bound past it.
    pub fn insert(&mut self, oid: u64, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "point dimensionality mismatch");
        self.raise_bound(oid.saturating_add(1));
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

    /// Drop `oid`; false if it was not live. Its id stays spent.
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

    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Everything observable about the table against a map model.
    fn assert_matches(table: &ObjectTable, model: &BTreeMap<u64, Vec<f64>>, bound: u64) {
        assert_eq!(table.len(), model.len());
        assert_eq!(table.is_empty(), model.is_empty());
        assert_eq!(table.bound(), bound);
        let listed: Vec<(u64, Vec<f64>)> = table.iter().map(|(o, p)| (o, p.to_vec())).collect();
        let want: Vec<(u64, Vec<f64>)> = model.iter().map(|(&o, p)| (o, p.clone())).collect();
        assert_eq!(listed, want, "ascending iteration");
        for probe in 0..bound + 3 {
            assert_eq!(table.get(probe), model.get(&probe).map(Vec::as_slice));
            assert_eq!(table.get(probe).is_some(), model.contains_key(&probe));
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
            // Start from explicit, unsorted ids, as a reopen does.
            let ids = [9u64, 2, 30, 4, 17];
            let coords: Vec<Vec<f64>> = ids.iter().map(|_| point(&mut state)).collect();
            let mut table = ObjectTable::from_columns(dim, ids.to_vec(), coords.concat());
            let mut model: BTreeMap<u64, Vec<f64>> = ids.iter().copied().zip(coords).collect();
            let mut bound = 31;
            assert_matches(&table, &model, bound);

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
                        table.insert(bound, &p);
                        model.insert(bound, p);
                        bound += 1;
                    }
                    // out-of-order insert below the bound (new, live or
                    // tombstoned id alike), or a gap above it
                    4 => {
                        let oid = (r >> 8) % (bound + 4);
                        let p = point(&mut state);
                        table.insert(oid, &p);
                        model.insert(oid, p);
                        bound = bound.max(oid + 1);
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
                        let oid = (r >> 8) % (bound + 2);
                        let slots = table.oids.len();
                        assert_eq!(table.remove(oid), model.remove(&oid).is_some());
                        compactions += usize::from(table.oids.len() < slots);
                    }
                }
                assert_matches(&table, &model, bound);
            }
            assert!(compactions >= 2, "schedule must compact: {compactions}");
        }
    }

    #[test]
    fn sorted_columns_are_adopted_and_the_bound_only_rises() {
        let mut table = ObjectTable::from_columns(2, vec![0, 1, 2], vec![0.0; 6]);
        assert_eq!(table.bound(), 3);
        table.raise_bound(2);
        assert_eq!(table.bound(), 3);
        table.raise_bound(10);
        assert!(table.remove(2));
        assert_eq!(table.bound(), 10);
        assert_eq!(
            ObjectTable::from_columns(2, Vec::new(), Vec::new()).bound(),
            0
        );
    }
}
