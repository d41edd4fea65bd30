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
//! tests), because it *is* single-pair SB: the crate-private
//! `GreedyProbe` is the shared SB run of [`crate::sb`] plus `Units`, the
//! remaining units of a capacitated request. Its `probe` is the
//! *discover* half of an SB round, its `assign` the *retire* half, with
//! the object retired only once its last unit went. An [`Engine`]
//! answers a capacitated request by draining one probe over its tree;
//! the [`crate::shard`] merge drives one probe per shard and picks the
//! best of their candidates each round. Its un-capacitated requests
//! carry no `Units` at all: every object has the one unit that
//! assignment takes.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use mpq_rtree::{IoSession, PointSet};
use mpq_skyline::SkylineMaintainer;
use mpq_ta::FunctionSet;

use crate::engine::{Engine, RequestOptions};
use crate::matching::{Matching, Pair, RunMetrics};
use crate::sb::{BestPairMode, SbRun};
use crate::scratch::Scratch;

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
pub(crate) struct Units(Vec<u32>);

impl Units {
    /// Units object `oid` can still take.
    fn left(&self, oid: u64) -> u32 {
        self.0.get(oid as usize).copied().unwrap_or(0)
    }

    /// Consume one unit of `oid`; true iff that exhausted it.
    fn take(&mut self, oid: u64) -> bool {
        self.0.get_mut(oid as usize).is_none_or(|units| {
            *units -= 1;
            *units == 0
        })
    }
}

/// The one "invisible object" test of a probe: excluded by the request,
/// or capacitated with no unit left. An un-capacitated object has its
/// one unit until it is assigned, and assignment takes it off the
/// skyline for good, so nothing is stored for it.
fn invisible(excluded: &HashSet<u64>, units: &Option<Units>, oid: u64) -> bool {
    excluded.contains(&oid) || units.as_ref().is_some_and(|u| u.left(oid) == 0)
}

/// The canonical greedy over one pinned inventory snapshot: the shared
/// SB run of [`crate::sb`] in single-pair mode, plus the request's
/// exclusions and capacity units. [`Engine`]'s capacitated requests
/// drain one ([`GreedyProbe::run`]); the K-shard merge in
/// [`crate::shard`] drives one per shard, learning from it through
/// candidate [`Pair`] messages and teaching it through assignment
/// broadcasts.
pub(crate) struct GreedyProbe<'e> {
    run: SbRun<IoSession<'e>>,
    excluded: HashSet<u64>,
    /// A shard consults only its own slice of the id space; a full
    /// copy per shard is just the simplest container.
    units: Option<Units>,
}

impl<'e> GreedyProbe<'e> {
    /// Build a probe cold or primed from this engine's part of a seed.
    ///
    /// `seed` is `(snapshot, version)` — the snapshot is honored only
    /// when the engine pinned exactly that version (see [`Engine::pin`]:
    /// its pruned entries reference pages of exactly that epoch). A
    /// probe that ran cold leaves its own BBS snapshot in `capture`,
    /// stamped with the pinned version — again only when no mutation
    /// straddled the pin. The snapshot predates every peel, so a
    /// capacitated request resumes and captures like any other: its
    /// spent objects are masked off the clone exactly as off a fresh
    /// BBS.
    pub(crate) fn new(
        engine: &'e Engine,
        functions: &FunctionSet,
        options: &RequestOptions,
        seed: Option<(&SkylineMaintainer, u64)>,
        capture: Option<&mut Option<(SkylineMaintainer, u64)>>,
    ) -> GreedyProbe<'e> {
        let (io, version) = engine.pin();
        let excluded = options.exclude.clone();
        let units = options.capacities.clone().map(Units);
        let part = seed.filter(|&(_, v)| version == Some(v)).map(|(p, _)| p);
        let mut captured = None;
        let slot = (capture.is_some() && version.is_some()).then_some(&mut captured);
        let masked = |oid| invisible(&excluded, &units, oid);
        let scratch = Scratch::new();
        let run = SbRun::new(io, scratch, functions, BestPairMode::Ta, masked, part, slot);
        if let Some(out) = capture {
            *out = captured.zip(version);
        }
        GreedyProbe {
            run,
            excluded,
            units,
        }
    }

    /// Scatter message: the best candidate pair of this snapshot — the
    /// first half of an SB round. `None` means the probe is exhausted —
    /// no function is left, or its skyline is empty and can never
    /// refill.
    pub(crate) fn probe(&mut self) -> Option<Pair> {
        if self.run.is_done() {
            return None;
        }
        self.run.discover(false);
        self.run.pairs().first().copied()
    }

    /// Assignment broadcast: the global winner is `pair` — the second
    /// half of an SB round. Every probe retires the assigned function;
    /// the owner additionally consumes one capacity unit and retires
    /// the object when exhausted. Returns true iff this probe owned the
    /// object.
    pub(crate) fn assign(&mut self, pair: &Pair) -> bool {
        let owned = self.run.skyline().contains(pair.oid);
        let spent = owned && self.units.as_mut().is_none_or(|u| u.take(pair.oid));
        self.run.retire(&[*pair], spent, |oid| {
            invisible(&self.excluded, &self.units, oid)
        });
        owned
    }

    /// True once every function is assigned.
    pub(crate) fn functions_exhausted(&self) -> bool {
        self.run.functions().n_alive() == 0
    }

    /// Counters and I/O on the pinned snapshot since the probe was
    /// built; `loops` counts probes.
    pub(crate) fn metrics(&self) -> RunMetrics {
        self.run.metrics()
    }

    /// The whole matching of one request over `engine`'s current
    /// snapshot ([`Engine`] takes this path for capacitated requests),
    /// seeded and captured as by [`GreedyProbe::new`].
    pub(crate) fn run(
        engine: &'e Engine,
        functions: &FunctionSet,
        options: &RequestOptions,
        seed: Option<(&SkylineMaintainer, u64)>,
        capture: Option<&mut Option<(SkylineMaintainer, u64)>>,
    ) -> Matching {
        let start = Instant::now();
        let mut probe = GreedyProbe::new(engine, functions, options, seed, capture);
        let mut pairs = Vec::new();
        while let Some(pair) = probe.probe() {
            probe.assign(&pair);
            pairs.push(pair);
        }
        let mut metrics = probe.metrics();
        metrics.elapsed = start.elapsed();
        Matching::new(pairs, metrics)
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
        let hidden = |probe: &GreedyProbe, oid| invisible(&probe.excluded, &probe.units, oid);
        let request = engine.request(&w.functions).exclude([bound, bound + 7]);
        let (functions, options) = request.parts();
        let probe = GreedyProbe::new(&engine, functions, options, None, None);
        assert!(!hidden(&probe, 0));
        assert!(hidden(&probe, bound));
        assert!(hidden(&probe, bound + 7));
        assert!(!hidden(&probe, bound + 1), "in the snapshot, not excluded");

        let request = request.capacities(&vec![1; bound as usize]);
        let (functions, options) = request.parts();
        let probe = GreedyProbe::new(&engine, functions, options, None, None);
        assert!(!hidden(&probe, 0));
        for oid in [bound, bound + 7, bound + 1] {
            assert!(hidden(&probe, oid), "the capacity vector predates {oid}");
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
