//! Capacity extension: objects that can serve more than one user.
//!
//! The paper's model assigns each object to at most one function. Real
//! booking inventories often have *types* — a hotel lists one "deluxe
//! double" object with 7 identical rooms. This module generalizes the
//! stable assignment to per-object capacities (the hospitals/residents
//! variant with symmetric score preferences): the greedy process picks
//! the globally best `(f, o)` pair among unassigned functions and
//! objects with remaining capacity, and an object leaves the skyline
//! bookkeeping only when its capacity is exhausted.
//!
//! A capacitated request runs the one SB round of [`crate::sb`]
//! (`SbRun::round`), multi-pair reporting (§IV-C) included, because the
//! paper's argument never uses unit capacities. Let `o`, with a unit
//! left, be `f`'s best object and `f` be `o`'s best unassigned function.
//! No pair the greedy takes earlier can use up `f` — it would have to
//! outscore `(f, o)` on `f` — nor `o`'s last unit — it would have to
//! outscore it on `o`; and two mutually-best pairs of one round never
//! share an object, since an object has one best function. So every
//! pair of a round belongs to the matching, one unit each: the round
//! takes one unit per pair and retires the functions together with the
//! objects whose last unit went. An un-capacitated request carries no
//! units at all — every object has the one unit that assignment takes —
//! and is otherwise the same run.
//!
//! The units live in the run's one `Mask`, beside the request's
//! exclusions: the run is handed the mask when it starts and keeps it
//! — across [reloads](crate::SbStream::load) too — and every object it
//! peels, at the start or as a promotion, is one the mask's
//! `invisible` predicate names. An exclusion is an object with no unit
//! from the start.
//!
//! The contract, for either `multi_pair`, evaluated or streamed, cold or
//! resumed: [`Matching::sorted_pairs`] is
//! `to_bits`-equal to [`reference_capacity_matching`] over the visible
//! capacities (an excluded object has none) and passes
//! [`verify_capacity_stable`]. Emission order is per-round canonical,
//! as [`Matching::pairs`] states it for any request: with
//! `.multi_pair(false)` it is the reference's order pair for pair, and
//! with every capacity 1 the run is the un-capacitated one, count for
//! count, at either setting (all asserted by tests).

use std::collections::HashMap;

use mpq_rtree::PointSet;
use mpq_ta::FunctionSet;

use crate::engine::RequestOptions;
use crate::matching::{Matching, Pair, RunMetrics};

/// Result of a capacitated run: assignment pairs in emission order and
/// the per-object resident lists.
#[derive(Debug, Clone, Default)]
pub struct CapacityMatching {
    /// Pairs in emission order (see [`Matching::pairs`]).
    pub pairs: Vec<Pair>,
    /// For each object id, the functions assigned to it.
    pub residents: HashMap<u64, Vec<u32>>,
    /// Cost metrics.
    pub metrics: RunMetrics,
}

impl CapacityMatching {
    /// Reconstruct the per-object resident lists from a pair list in
    /// assignment order (as produced by the engine's capacity path).
    pub fn from_matching(matching: Matching) -> CapacityMatching {
        let metrics = *matching.metrics();
        let pairs = matching.pairs().to_vec();
        let mut residents: HashMap<u64, Vec<u32>> = HashMap::new();
        for p in &pairs {
            residents.entry(p.oid).or_default().push(p.fid);
        }
        CapacityMatching {
            pairs,
            residents,
            metrics,
        }
    }
}

/// What an SB run must not see, given to the run once (`SbRun::new`)
/// and owned by it from then on: the request's exclusions and, if the
/// request is capacitated, what is left of its capacities.
///
/// The exclusions stay the request's sorted, deduplicated list of ids
/// as given ([`MatchRequest::exclude`](crate::MatchRequest::exclude)),
/// searched by bisection, and not a bitset over the id bound: an id not
/// minted yet must be honoured, and an id read off the wire must not
/// size an allocation.
///
/// Remaining units are kept by global oid. The request's vector was
/// validated against the engine's id bound *before* any snapshot was
/// pinned, so a racing insert can put an object into a snapshot whose
/// oid lies past its end: the caller's vector predates it, and it has no
/// units — invisible, like an exclusion.
#[derive(Default)]
pub(crate) struct Mask {
    exclude: Vec<u64>,
    units: Option<Vec<u32>>,
}

impl Mask {
    /// The mask of a request.
    pub(crate) fn new(options: &RequestOptions) -> Mask {
        Mask {
            exclude: options.exclude.clone(),
            units: options.capacities.clone(),
        }
    }

    /// The one "invisible object" test of a run: excluded by the
    /// request, or capacitated with no unit left. An un-capacitated
    /// object has its one unit until it is assigned, and assignment
    /// takes it off the skyline for good, so nothing is stored for it.
    pub(crate) fn invisible(&self, oid: u64) -> bool {
        let spent = |units: &Vec<u32>| units.get(oid as usize).is_none_or(|&left| left == 0);
        self.exclude.binary_search(&oid).is_ok() || self.units.as_ref().is_some_and(spent)
    }

    /// Hide `oid` from now on, as if the request had excluded it: how
    /// ablation A2, which rebuilds its skyline by BBS every round, keeps
    /// what it assigned out of the next one.
    pub(crate) fn hide(&mut self, oid: u64) {
        if let Err(at) = self.exclude.binary_search(&oid) {
            self.exclude.insert(at, oid);
        }
    }

    /// Consume one unit of `oid`; true iff that was its last — always,
    /// without capacities.
    pub(crate) fn take(&mut self, oid: u64) -> bool {
        let left = self.units.as_mut().and_then(|u| u.get_mut(oid as usize));
        left.is_none_or(|left| {
            *left -= 1;
            *left == 0
        })
    }
}

/// Exact reference for the capacitated matching: greedy over all pairs.
pub fn reference_capacity_matching(
    objects: &PointSet,
    functions: &FunctionSet,
    capacities: &[u32],
) -> Vec<Pair> {
    assert_eq!(capacities.len(), objects.len());
    let mut all: Vec<Pair> = Vec::new();
    for (fid, _) in functions.iter_alive() {
        for (i, p) in objects.iter() {
            all.push(Pair {
                fid,
                oid: i as u64,
                score: functions.score(fid, p),
            });
        }
    }
    all.sort_unstable();
    let mut remaining = capacities.to_vec();
    let mut f_taken = vec![false; functions.len()];
    let mut out = Vec::new();
    for p in all {
        if f_taken[p.fid as usize] || remaining[p.oid as usize] == 0 {
            continue;
        }
        f_taken[p.fid as usize] = true;
        remaining[p.oid as usize] -= 1;
        out.push(p);
    }
    out
}

/// Verify that `pairs` is the capacitated stable matching of
/// `(objects, functions)` under `capacities` — what
/// [`verify_stable`](crate::verify_stable) checks, with "an object at
/// most once" read as "at most its capacity":
///
/// 1. there is one capacity per object, every pair references an alive
///    function (at most once) and an existing object, and no object
///    hosts more pairs than its capacity;
/// 2. stored scores equal the recomputed `f(o)` bit-for-bit;
/// 3. the matching is maximal: `min(|F|, Σ capacities)` pairs;
/// 4. no blocking pair exists: no function strictly prefers an object
///    that either has spare capacity or hosts a strictly worse resident.
///
/// Returns a human-readable description of the first violation.
pub fn verify_capacity_stable(
    objects: &PointSet,
    functions: &FunctionSet,
    capacities: &[u32],
    pairs: &[Pair],
) -> Result<(), String> {
    if capacities.len() != objects.len() {
        return Err(format!(
            "{} capacities for {} objects",
            capacities.len(),
            objects.len()
        ));
    }
    let mut f_match: HashMap<u32, &Pair> = HashMap::new();
    let mut residents: HashMap<u64, Vec<&Pair>> = HashMap::new();
    for p in pairs {
        if !functions.is_alive(p.fid) {
            return Err(format!("pair uses unknown/removed function {}", p.fid));
        }
        if p.oid as usize >= objects.len() {
            return Err(format!("pair uses unknown object {}", p.oid));
        }
        if f_match.insert(p.fid, p).is_some() {
            return Err(format!("function {} assigned twice", p.fid));
        }
        let expect = functions.score(p.fid, objects.get(p.oid as usize));
        if expect.to_bits() != p.score.to_bits() {
            return Err(format!(
                "pair ({}, {}) stores score {} but f(o) = {}",
                p.fid, p.oid, p.score, expect
            ));
        }
        residents.entry(p.oid).or_default().push(p);
    }
    for (&oid, rs) in &residents {
        if rs.len() > capacities[oid as usize] as usize {
            return Err(format!("object {oid} exceeds its capacity"));
        }
    }
    let units: u64 = capacities.iter().map(|&c| u64::from(c)).sum();
    let budget = (functions.n_alive() as u64).min(units);
    if pairs.len() as u64 != budget {
        return Err(format!(
            "matching has {} pairs but min(|F|, sum of capacities) = {budget}",
            pairs.len()
        ));
    }
    for (fid, _) in functions.iter_alive() {
        for (i, point) in objects.iter() {
            let oid = i as u64;
            let cand = Pair {
                fid,
                oid,
                score: functions.score(fid, point),
            };
            let f_prefers = match f_match.get(&fid) {
                None => true,
                Some(assigned) => cand.beats(assigned),
            };
            if !f_prefers {
                continue;
            }
            let o_accepts = match residents.get(&oid) {
                None => capacities[oid as usize] > 0,
                Some(rs) => {
                    rs.len() < capacities[oid as usize] as usize || rs.iter().any(|r| cand.beats(r))
                }
            };
            if o_accepts {
                return Err(format!(
                    "blocking pair: function {fid} and object {oid} (score {})",
                    cand.score
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::matching::IndexConfig;
    use crate::reference::reference_matching;
    use mpq_datagen::WorkloadBuilder;

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

    fn run(objects: &PointSet, functions: &FunctionSet, capacities: &[u32]) -> CapacityMatching {
        let matching = engine(objects)
            .request(functions)
            .capacities(capacities)
            .evaluate()
            .unwrap();
        CapacityMatching::from_matching(matching)
    }

    fn sorted(pairs: &[Pair]) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = pairs.iter().map(|p| (p.fid, p.oid)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn an_exclusion_past_the_id_bound_is_honoured() {
        let w = WorkloadBuilder::new()
            .objects(20)
            .functions(3)
            .dim(2)
            .seed(79)
            .build();
        let engine = engine(&w.objects);
        let bound = engine.oid_bound();
        // The next id, a later one, and two no engine will mint soon.
        let excluded = [bound, bound + 7, 1 << 60, u64::MAX];
        let hidden = |units: &Option<Vec<u32>>, oid| {
            let (exclude, units) = (excluded.to_vec(), units.clone());
            Mask { exclude, units }.invisible(oid)
        };
        assert!(!hidden(&None, 0));
        for oid in excluded {
            assert!(hidden(&None, oid), "{oid} is excluded");
        }
        assert!(!hidden(&None, bound + 1), "in the snapshot, not excluded");

        let units = Some(vec![1; bound as usize]);
        assert!(!hidden(&units, 0));
        for oid in [bound, bound + 7, bound + 1] {
            assert!(hidden(&units, oid), "the capacity vector predates {oid}");
        }

        // The run: everyone's favourite arrives after the request named
        // its id. The ids are kept as given: their order and repeats do
        // not reach the key, minting one does not change it, and
        // dropping the hostile two does.
        let shuffled = [u64::MAX, bound + 7, 1 << 60, bound, u64::MAX];
        let request = engine.request(&w.functions).exclude(excluded);
        let key = request.cache_key();
        let again = engine.request(&w.functions).exclude(shuffled);
        assert_eq!(again.cache_key(), key);
        let minted_soon = engine.request(&w.functions).exclude([bound, bound + 7]);
        assert_ne!(minted_soon.cache_key(), key);
        let before = request.evaluate().unwrap();
        assert_eq!(engine.insert_object(&[0.99, 0.99]), Ok(bound));
        assert_eq!(request.evaluate().unwrap().pairs(), before.pairs());
        assert_eq!(request.cache_key(), key);
        let seen = engine.request(&w.functions).evaluate().unwrap();
        assert_eq!(seen.pairs()[0].oid, bound, "visible unless excluded");
    }

    /// All ones is the un-capacitated request: the same round takes the
    /// one unit every object has anyway.
    #[test]
    fn unit_capacities_count_like_single_pair_sb() {
        let w = WorkloadBuilder::new()
            .objects(3000)
            .functions(120)
            .dim(3)
            .seed(97)
            .build();
        let engine = engine(&w.objects);
        let units = vec![1; engine.oid_bound() as usize];
        for multi_pair in [true, false] {
            let request = || engine.request(&w.functions).multi_pair(multi_pair);
            let unit = request().capacities(&units).evaluate().unwrap();
            let plain = request().evaluate().unwrap();
            assert_eq!(unit.pairs(), plain.pairs());
            let (unit, plain) = (unit.metrics(), plain.metrics());
            assert_eq!(unit.loops, plain.loops);
            assert_eq!(unit.reverse_top1_calls, plain.reverse_top1_calls);
            assert_eq!(plain.loops == 120, !multi_pair, "one loop per pair");
        }
    }

    #[test]
    fn unit_capacities_reduce_to_one_to_one() {
        let w = WorkloadBuilder::new()
            .objects(150)
            .functions(30)
            .dim(3)
            .seed(81)
            .build();
        let caps = vec![1u32; w.objects.len()];
        let expect = reference_matching(&w.objects, &w.functions);
        let engine = engine(&w.objects);
        let request = || engine.request(&w.functions).capacities(&caps);
        let m = request().evaluate().unwrap();
        assert_eq!(m.sorted_pairs(), expect, "capacity-1 is the 1-1 matching");
        let single = request().multi_pair(false).evaluate().unwrap();
        assert_eq!(single.pairs(), expect, "pair for pair, one per round");
    }

    #[test]
    fn matches_capacity_reference_and_is_stable() {
        let w = WorkloadBuilder::new()
            .objects(60)
            .functions(40)
            .dim(2)
            .seed(83)
            .build();
        let caps: Vec<u32> = (0..w.objects.len()).map(|i| (i % 3) as u32).collect();
        let engine = engine(&w.objects);
        // Then again without two objects the first run filled: the mask
        // is the exclusions and the exhausted capacities together.
        let mut exclude: Vec<u64> = Vec::new();
        for _ in 0..2 {
            let m = engine
                .request(&w.functions)
                .capacities(&caps)
                .exclude(exclude.iter().copied())
                .evaluate()
                .unwrap();
            let mut visible = caps.clone();
            for &oid in &exclude {
                visible[oid as usize] = 0;
            }
            let expect = reference_capacity_matching(&w.objects, &w.functions, &visible);
            assert_eq!(sorted(m.pairs()), sorted(&expect));
            verify_capacity_stable(&w.objects, &w.functions, &visible, m.pairs()).unwrap();
            exclude = vec![m.pairs()[0].oid, m.pairs()[5].oid];
        }
    }

    #[test]
    fn popular_object_fills_to_capacity() {
        let mut ps = PointSet::new(2);
        ps.push(&[0.95, 0.95]); // everyone's favourite
        ps.push(&[0.3, 0.3]);
        let fs = FunctionSet::from_rows(2, &[vec![0.5, 0.5], vec![0.6, 0.4], vec![0.4, 0.6]]);
        let m = run(&ps, &fs, &[2, 5]);
        assert_eq!(m.residents[&0].len(), 2, "object 0 fills its 2 slots");
        assert_eq!(m.residents[&1].len(), 1, "last user overflows to object 1");
    }

    #[test]
    fn zero_capacity_objects_are_never_assigned() {
        let w = WorkloadBuilder::new()
            .objects(40)
            .functions(10)
            .dim(2)
            .seed(87)
            .build();
        let mut caps = vec![1u32; 40];
        for c in caps.iter_mut().take(20) {
            *c = 0;
        }
        let m = run(&w.objects, &w.functions, &caps);
        assert!(m.pairs.iter().all(|p| p.oid >= 20));
        verify_capacity_stable(&w.objects, &w.functions, &caps, &m.pairs).unwrap();
    }

    #[test]
    fn capacity_exhaustion_limits_assignments() {
        let w = WorkloadBuilder::new()
            .objects(5)
            .functions(30)
            .dim(2)
            .seed(89)
            .build();
        let caps = vec![2u32; 5]; // 10 slots for 30 users
        let m = run(&w.objects, &w.functions, &caps);
        assert_eq!(m.pairs.len(), 10);
        verify_capacity_stable(&w.objects, &w.functions, &caps, &m.pairs).unwrap();
    }

    /// Each way a pair list can fail to be the capacitated matching is
    /// an `Err` naming it — never a panic.
    #[test]
    fn the_verifier_reports_every_violation() {
        let mut ps = PointSet::new(2);
        for p in [[0.9, 0.8], [0.5, 0.6], [0.2, 0.2]] {
            ps.push(&p);
        }
        let mut fs = FunctionSet::from_rows(2, &[vec![0.6, 0.4], vec![0.4, 0.6], vec![0.5, 0.5]]);
        let pair = |fid: u32, oid: u64| Pair {
            fid,
            oid,
            score: fs.score(fid, ps.get(oid as usize)),
        };
        // Object 0 seats its two best users, object 1 the third.
        let caps = [2, 1, 0];
        let good = [pair(0, 0), pair(2, 0), pair(1, 1)];
        assert_eq!(reference_capacity_matching(&ps, &fs, &caps), good);
        verify_capacity_stable(&ps, &fs, &caps, &good).unwrap();

        let broken = |pairs: &[Pair], caps: &[u32], violation: &str| {
            let err = verify_capacity_stable(&ps, &fs, caps, pairs).unwrap_err();
            assert!(err.contains(violation), "{violation}: got {err}");
        };
        let (ghost, nowhere) = (Pair { fid: 9, ..good[0] }, Pair { oid: 3, ..good[0] });
        let cheap = Pair {
            score: 0.5,
            ..good[0]
        };
        broken(&[ghost, good[1], good[2]], &caps, "removed function 9");
        broken(&[nowhere, good[1], good[2]], &caps, "unknown object 3");
        broken(&[good[0], good[0], good[2]], &caps, "function 0 assigned");
        broken(&[cheap, good[1], good[2]], &caps, "stores score 0.5");
        broken(&good[..2], &caps, "has 2 pairs but min");
        broken(&good, &caps[..2], "2 capacities for 3 objects");
        broken(&good, &[1, 2, 0], "object 0 exceeds its capacity");
        let swapped = [pair(0, 0), pair(1, 0), pair(2, 1)];
        broken(&swapped, &caps, "blocking pair: function 2 and object 0");

        fs.remove(2);
        let err = verify_capacity_stable(&ps, &fs, &caps, &good).unwrap_err();
        assert!(err.contains("removed function 2"), "got {err}");
    }
}
