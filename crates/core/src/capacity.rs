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
//! With every capacity equal to 1 this reduces exactly to the 1-1
//! matching — the same pairs in the same order from the same number of
//! loops and reverse top-1 searches as single-pair SB (asserted by
//! tests), because it *is* single-pair SB: a capacitated request is the
//! one SB evaluation of [`crate::sb`] (`run_sb_seeded`) with the other
//! loop body. Each round *discovers* the best pair, takes one of the
//! object's `Units` — the remaining units of the request — and
//! *retires* the function, and the object with it only once its last
//! unit went. That holds on an [`Engine`](crate::Engine) and on a
//! [`ShardedEngine`](crate::ShardedEngine) alike, which run it over one
//! part and over one part per shard. An un-capacitated request carries
//! no `Units` at all: every object has the one unit that assignment
//! takes.

use std::collections::{HashMap, HashSet};

use mpq_rtree::PointSet;
use mpq_ta::FunctionSet;

use crate::matching::{Matching, Pair, RunMetrics};

/// Result of a capacitated run: assignment pairs in emission order and
/// the per-object resident lists.
#[derive(Debug, Clone, Default)]
pub struct CapacityMatching {
    /// Pairs in assignment (descending canonical) order.
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

/// Remaining units of a capacitated request, by global oid.
///
/// The request's vector was validated against the backend's id bound
/// *before* any snapshot was pinned, so a racing insert can put an
/// object into a snapshot whose oid lies past its end: the caller's
/// vector predates it, and it has no units — invisible, like an
/// exclusion.
pub(crate) struct Units(pub(crate) Vec<u32>);

impl Units {
    /// Units object `oid` can still take.
    fn left(&self, oid: u64) -> u32 {
        self.0.get(oid as usize).copied().unwrap_or(0)
    }

    /// Consume one unit of `oid`; true iff that exhausted it.
    pub(crate) fn take(&mut self, oid: u64) -> bool {
        self.0.get_mut(oid as usize).is_none_or(|units| {
            *units -= 1;
            *units == 0
        })
    }
}

/// The one "invisible object" test of a run: excluded by the request,
/// or capacitated with no unit left. An un-capacitated object has its
/// one unit until it is assigned, and assignment takes it off the
/// skyline for good, so nothing is stored for it.
pub(crate) fn invisible(excluded: &HashSet<u64>, units: &Option<Units>, oid: u64) -> bool {
    excluded.contains(&oid) || units.as_ref().is_some_and(|u| u.left(oid) == 0)
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

/// Verify capacitated stability: no function strictly prefers an object
/// that either has spare capacity or hosts a strictly worse resident.
pub fn verify_capacity_stable(
    objects: &PointSet,
    functions: &FunctionSet,
    capacities: &[u32],
    pairs: &[Pair],
) -> Result<(), String> {
    let mut f_match: HashMap<u32, &Pair> = HashMap::new();
    let mut residents: HashMap<u64, Vec<&Pair>> = HashMap::new();
    for p in pairs {
        if f_match.insert(p.fid, p).is_some() {
            return Err(format!("function {} assigned twice", p.fid));
        }
        residents.entry(p.oid).or_default().push(p);
    }
    for (&oid, rs) in &residents {
        if rs.len() > capacities[oid as usize] as usize {
            return Err(format!("object {oid} exceeds its capacity"));
        }
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
    use crate::backend::EvalBackend;
    use crate::engine::Engine;
    use crate::matching::IndexConfig;
    use crate::reference::reference_matching;
    use crate::shard::ShardedEngine;
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
        let excluded: HashSet<u64> = [bound, bound + 7].into();
        let hidden = |units: &Option<Units>, oid| invisible(&excluded, units, oid);
        assert!(!hidden(&None, 0));
        assert!(hidden(&None, bound));
        assert!(hidden(&None, bound + 7));
        assert!(!hidden(&None, bound + 1), "in the snapshot, not excluded");

        let units = Some(Units(vec![1; bound as usize]));
        assert!(!hidden(&units, 0));
        for oid in [bound, bound + 7, bound + 1] {
            assert!(hidden(&units, oid), "the capacity vector predates {oid}");
        }

        // The run: everyone's favourite arrives after the request named
        // its id, on one tree and behind two.
        let sharded = ShardedEngine::builder().objects(&w.objects).shards(2);
        let sharded = sharded.build().unwrap();
        let backends: [&dyn EvalBackend; 2] = [&engine, &sharded];
        for backend in backends {
            let request = backend
                .request(&w.functions)
                .exclude(excluded.iter().copied());
            let before = request.evaluate().unwrap();
            assert_eq!(backend.insert_object(&[0.99, 0.99]), Ok(bound));
            assert_eq!(request.evaluate().unwrap().pairs(), before.pairs());
            let seen = backend.request(&w.functions).evaluate().unwrap();
            assert_eq!(seen.pairs()[0].oid, bound, "visible unless excluded");
        }
    }

    #[test]
    fn unit_capacities_count_like_single_pair_sb() {
        let w = WorkloadBuilder::new()
            .objects(3000)
            .functions(120)
            .dim(3)
            .seed(97)
            .build();
        let engine = engine(&w.objects);
        let request = || engine.request(&w.functions);
        let units = vec![1; engine.oid_bound() as usize];
        let unit = request().capacities(&units).evaluate().unwrap();
        let single = request().multi_pair(false).evaluate().unwrap();
        assert_eq!(unit.pairs(), single.pairs());
        let (unit, single) = (unit.metrics(), single.metrics());
        assert_eq!(unit.loops, single.loops);
        assert_eq!(unit.reverse_top1_calls, single.reverse_top1_calls);
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
        let m = run(&w.objects, &w.functions, &caps);
        let expect = reference_matching(&w.objects, &w.functions);
        assert_eq!(m.pairs, expect, "capacity-1 must equal the 1-1 matching");
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
}
