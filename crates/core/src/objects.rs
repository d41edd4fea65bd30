//! The engine's record of its live inventory: object id → point, as
//! two flat columns.
//!
//! A map of boxed points would cost `n` allocations and as many random
//! tree inserts on every build and reopen, and more bytes than the page
//! file it mirrors. Ids are minted in increasing order, so a sorted
//! `Vec<u64>` beside one contiguous `Vec<f64>` holds the same mapping:
//! a build fills it with one copy, a mint appends, a lookup is a binary
//! search, and the rare out-of-order id (a point-routed partitioner
//! moving an object back to a shard it left) is a `memmove`.

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
    pub fn from_columns(dim: usize, mut oids: Vec<u64>, mut coords: Vec<f64>) -> ObjectTable {
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
    pub fn raise_bound(&mut self, bound: u64) {
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

    /// Is `oid` live?
    pub fn contains(&self, oid: u64) -> bool {
        self.slot(oid).is_some()
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
            assert_eq!(table.contains(probe), model.contains_key(&probe));
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
