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
//! matching (asserted by tests).
//!
//! That greedy is written once, as the crate-private `GreedyProbe`: an
//! [`Engine`] answers a capacitated request by draining one probe over
//! its tree, and the [`crate::shard`] merge — whose un-capacitated
//! requests are the all-ones case — drives one probe per shard and
//! picks the best of their candidates each round.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use mpq_rtree::{IoSession, IoStats, PointSet};
use mpq_skyline::SkylineMaintainer;
use mpq_ta::{FunctionSet, ReverseTopOne};

use crate::backend::EvalBackend;
use crate::engine::{Engine, RequestOptions};
use crate::matching::{Matching, Pair, RunMetrics};
use crate::seed::{PeeledLog, SeedPart};

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

/// Capacity units by global oid, as one request sees them.
///
/// The vector is sized from the backend's id bound *before* any
/// snapshot is pinned, so a racing insert can put an object into a
/// snapshot whose oid lies past its end. Such an object has `uncovered`
/// units: 1 for an un-capacitated request (it is in the snapshot, so
/// the matching over that snapshot may assign it), 0 for a capacitated
/// one (the caller's vector predates it — invisible, like an exclusion)
/// — unless the request excluded that very id, which `excluded_past`
/// remembers.
#[derive(Clone)]
pub(crate) struct Units {
    remaining: Vec<u32>,
    uncovered: u32,
    /// Excluded ids at or past the end of `remaining`, sorted.
    excluded_past: Vec<u64>,
}

impl Units {
    /// The request's capacities (one unit per object below the id bound
    /// without them), zeroed for its excluded objects.
    pub(crate) fn for_request<B: EvalBackend + ?Sized>(
        backend: &B,
        options: &RequestOptions,
    ) -> Units {
        let (mut remaining, uncovered) = match &options.capacities {
            Some(caps) => (caps.clone(), 0),
            None => (vec![1; backend.oid_bound() as usize], 1),
        };
        let mut excluded_past = Vec::new();
        for &oid in &options.exclude {
            match remaining.get_mut(oid as usize) {
                Some(slot) => *slot = 0,
                None => excluded_past.push(oid),
            }
        }
        excluded_past.sort_unstable();
        Units {
            remaining,
            uncovered,
            excluded_past,
        }
    }

    /// Units object `oid` can still take.
    fn left(&self, oid: u64) -> u32 {
        match self.remaining.get(oid as usize) {
            Some(&units) => units,
            None if self.excluded_past.binary_search(&oid).is_ok() => 0,
            None => self.uncovered,
        }
    }

    /// Consume one unit of `oid`; true iff that exhausted it (an
    /// uncovered object had its one unit).
    fn take(&mut self, oid: u64) -> bool {
        self.remaining.get_mut(oid as usize).is_none_or(|units| {
            *units -= 1;
            *units == 0
        })
    }
}

/// The canonical greedy over one pinned inventory snapshot: a working
/// function-set copy, reverse top-1 index, skyline maintainer, cached
/// best-function table and capacity view. [`Engine`]'s capacitated
/// requests drain one ([`GreedyProbe::run`]); the K-shard merge in
/// [`crate::shard`] drives one per shard, learning from it through
/// candidate [`Pair`] messages and teaching it through assignment
/// broadcasts.
pub(crate) struct GreedyProbe<'e> {
    io: IoSession<'e>,
    io_start: IoStats,
    fs: FunctionSet,
    rt1: ReverseTopOne,
    sky: SkylineMaintainer,
    /// A shard consults only its own slice of the id space; a full
    /// copy per shard is just the simplest container.
    units: Units,
    fbest: HashMap<u64, (u32, f64)>,
    reverse_top1_calls: u64,
}

impl<'e> GreedyProbe<'e> {
    /// Build a probe cold or primed from this shard's [`SeedPart`].
    ///
    /// `seed` is `(part, version)` — the part is honored only when the
    /// shard's inventory version still equals `version` on both sides
    /// of the I/O-session pin (the part's snapshot references pages of
    /// exactly that epoch). `capture` receives this probe's own
    /// post-peel snapshot, stamped with the pinned version — again only
    /// when no mutation straddled the pin.
    pub(crate) fn new(
        engine: &'e Engine,
        functions: &FunctionSet,
        units: Units,
        seed: Option<(&SeedPart, u64)>,
        mut capture: Option<&mut Option<(SeedPart, u64)>>,
    ) -> GreedyProbe<'e> {
        let v_before = engine.inventory_version();
        let io = IoSession::new(engine.tree());
        let stable = engine.inventory_version() == v_before;
        if !stable {
            capture = None;
        }
        let io_start = io.stats();
        let mut peeled_log: Vec<(u64, Box<[f64]>)> = Vec::new();
        let capturing = capture.is_some();
        let sky = match seed.filter(|&(_, v)| stable && v == v_before) {
            None => SkylineMaintainer::build(&io),
            Some((part, _)) => {
                // Resume: re-admit the seed's peeled objects this
                // request still wants, carry the rest into the capture
                // journal (the maintainer's content afterwards is what
                // a cold build over the available inventory yields).
                let mut m = part.sky.clone();
                for (oid, point) in &part.peeled {
                    if units.left(*oid) == 0 {
                        if capturing {
                            peeled_log.push((*oid, point.clone()));
                        }
                    } else {
                        m.insert(*oid, point.clone());
                    }
                }
                m
            }
        };
        let mut probe = GreedyProbe {
            io,
            io_start,
            fs: functions.clone(),
            rt1: ReverseTopOne::build(functions),
            sky,
            units,
            fbest: HashMap::new(),
            reverse_top1_calls: 0,
        };
        // Objects unavailable from the start (zero capacity / excluded)
        // must leave the skyline before the first probe; removal can
        // promote other unavailable objects, so iterate.
        let dead: Vec<u64> = probe
            .sky
            .iter()
            .filter(|e| probe.units.left(e.oid) == 0)
            .map(|e| e.oid)
            .collect();
        if capturing {
            for &oid in &dead {
                let point = probe.sky.get(oid).expect("member being peeled");
                peeled_log.push((oid, point.into()));
            }
        }
        probe.peel(dead, capturing.then_some(&mut peeled_log));
        if let Some(slot) = capture {
            *slot = Some((
                SeedPart {
                    sky: probe.sky.clone(),
                    peeled: peeled_log,
                },
                v_before,
            ));
        }
        probe
    }

    /// Remove exhausted objects from the skyline, peeling promoted
    /// objects that are themselves exhausted. When `peeled` is provided
    /// (seed capture), it receives every object this call removes.
    fn peel(&mut self, mut to_remove: Vec<u64>, mut peeled: Option<&mut PeeledLog>) {
        while !to_remove.is_empty() {
            let promoted = self.sky.remove(&to_remove, &self.io);
            to_remove.clear();
            for (oid, point) in promoted {
                if self.units.left(oid) == 0 {
                    to_remove.push(oid);
                    if let Some(log) = peeled.as_deref_mut() {
                        log.push((oid, point));
                    }
                }
            }
        }
    }

    /// Scatter message: compute (or serve from the `fbest` cache) the
    /// best candidate pair of this snapshot. `None` means the probe is
    /// exhausted — no function is left, or its skyline is empty and can
    /// never refill.
    pub(crate) fn probe(&mut self) -> Option<Pair> {
        if self.fs.n_alive() == 0 {
            return None;
        }
        let mut best: Option<Pair> = None;
        for e in self.sky.iter() {
            let &mut (fid, score) = match self.fbest.entry(e.oid) {
                Entry::Occupied(o) => o.into_mut(),
                Entry::Vacant(v) => {
                    self.reverse_top1_calls += 1;
                    let b = self
                        .rt1
                        .best_for(&self.fs, e.point)
                        .expect("functions remain");
                    v.insert(b)
                }
            };
            let cand = Pair {
                fid,
                oid: e.oid,
                score,
            };
            if best.as_ref().is_none_or(|b| cand.beats(b)) {
                best = Some(cand);
            }
        }
        best
    }

    /// Assignment broadcast: the global winner is `pair`. Every probe
    /// retires the assigned function; the owner additionally consumes
    /// one capacity unit and retires the object when exhausted. Returns
    /// true iff this probe owned the object.
    pub(crate) fn assign(&mut self, pair: &Pair) -> bool {
        self.fs.remove(pair.fid);
        // cached candidates computed against the retired function are
        // stale
        self.fbest.retain(|_, (fid, _)| *fid != pair.fid);
        let owned = self.sky.contains(pair.oid);
        if owned && self.units.take(pair.oid) {
            self.fbest.remove(&pair.oid);
            self.peel(vec![pair.oid], None);
        }
        owned
    }

    /// True once every function is assigned.
    pub(crate) fn functions_exhausted(&self) -> bool {
        self.fs.n_alive() == 0
    }

    /// I/O on the pinned snapshot since the probe was built.
    pub(crate) fn io(&self) -> IoStats {
        self.io.stats().since(self.io_start)
    }

    /// Reverse top-1 searches issued so far.
    pub(crate) fn reverse_top1_calls(&self) -> u64 {
        self.reverse_top1_calls
    }

    /// The whole matching of one request over `engine`'s current
    /// snapshot ([`Engine`] takes this path for capacitated requests).
    pub(crate) fn run(
        engine: &'e Engine,
        functions: &FunctionSet,
        options: &RequestOptions,
    ) -> Matching {
        let start = Instant::now();
        let units = Units::for_request(engine, options);
        let mut probe = GreedyProbe::new(engine, functions, units, None, None);
        let mut pairs = Vec::new();
        while let Some(pair) = probe.probe() {
            probe.assign(&pair);
            pairs.push(pair);
        }
        let metrics = RunMetrics {
            elapsed: start.elapsed(),
            io: probe.io(),
            loops: pairs.len() as u64,
            reverse_top1_calls: probe.reverse_top1_calls,
            skyline: Some(probe.sky.stats()),
            ta: Some(probe.rt1.stats()),
            ..RunMetrics::default()
        };
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
        let request = engine.request(&w.functions).exclude([bound, bound + 7]);
        let (_, options) = request.parts();
        let units = Units::for_request(&engine, options);
        assert_eq!(units.left(0), 1);
        assert_eq!(units.left(bound), 0);
        assert_eq!(units.left(bound + 7), 0);
        assert_eq!(units.left(bound + 1), 1, "in the snapshot, not excluded");

        let request = request.capacities(&vec![1; bound as usize]);
        let (_, options) = request.parts();
        let units = Units::for_request(&engine, options);
        assert_eq!(units.left(0), 1);
        for oid in [bound, bound + 7, bound + 1] {
            assert_eq!(units.left(oid), 0, "the capacity vector predates {oid}");
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
        let m = run(&w.objects, &w.functions, &caps);
        let expect = reference_capacity_matching(&w.objects, &w.functions, &caps);
        assert_eq!(sorted(&m.pairs), sorted(&expect));
        verify_capacity_stable(&w.objects, &w.functions, &caps, &m.pairs).unwrap();
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
