//! Hosting acceptance: every path that hosts the one engine — direct
//! evaluation and the service with its cache and seed — serves the
//! reference matching bit for bit; a service evaluates only what was
//! built against its own engine; the durability schedule of a
//! persistent engine is pinned op for op; and an invalid inventory is
//! refused before anything is written.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mpq_core::{
    reference_matching, reference_matching_excluding, verify_stable, Algorithm, Engine,
    EngineService, IndexConfig, Matching, MpqError, Pair, ServiceConfig, Ticket,
};
use mpq_rtree::{FaultInjector, FaultOp, PointSet};
use mpq_ta::FunctionSet;

/// A fresh per-test scratch directory (unique per call so parallel
/// tests never collide).
fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mpq_hosting_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seeded_points(n: usize, dim: usize, seed: u64) -> PointSet {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut points = PointSet::new(dim);
    let mut p = vec![0.0; dim];
    for _ in 0..n {
        for v in p.iter_mut() {
            *v = next();
        }
        points.push(&p);
    }
    points
}

fn functions(dim: usize, n: usize, seed: u64) -> FunctionSet {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        0.05 + 0.9 * ((state >> 11) as f64 / (1u64 << 53) as f64)
    };
    let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect();
    FunctionSet::from_rows(dim, &rows)
}

const ALGORITHMS: [Algorithm; 3] = [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain];

/// Bit-exact pair comparison: scores via `to_bits`, not epsilon.
fn exact(pairs: &[Pair]) -> Vec<(u32, u64, u64)> {
    pairs
        .iter()
        .map(|p| (p.fid, p.oid, p.score.to_bits()))
        .collect()
}

fn sorted_exact(mut pairs: Vec<Pair>) -> Vec<(u32, u64, u64)> {
    pairs.sort_unstable();
    exact(&pairs)
}

/// An in-memory engine over `objects`.
fn engine(objects: &PointSet) -> Engine {
    Engine::builder().objects(objects).build().unwrap()
}

/// One body, every path: direct evaluation (all three algorithms) and
/// the service (cold, cached, seeded miss) — with
/// exclusions and capacities — must produce the reference matching bit
/// for bit, and the service's metrics report the index it serves.
#[test]
fn the_engine_serves_the_reference_matching_on_every_path() {
    let objects = seeded_points(160, 3, 0x0B0D);
    let fs = functions(3, 12, 0x1DEA);
    let exclude: Vec<u64> = vec![3, 17, 42, 99, 140];
    // 0/1 capacities are exclusions by another name, so the exact
    // reference covers them.
    let caps: Vec<u32> = (0..objects.len() as u64)
        .map(|oid| u32::from(oid % 4 != 0))
        .collect();
    let want_plain = sorted_exact(reference_matching(&objects, &fs));
    let reference_without = |gone: &dyn Fn(u64) -> bool| {
        sorted_exact(reference_matching_excluding(&objects, &fs, gone))
    };
    let want_masked = reference_without(&|oid| exclude.contains(&oid));
    let want_caps = reference_without(&|oid| caps[oid as usize] == 0);
    let want_refined = reference_without(&|oid| oid == exclude[0]);

    let hosted = Arc::new(engine(&objects));
    let plain = || hosted.request(&fs);
    let masked = || plain().exclude(exclude.iter().copied());
    let capped = || hosted.request(&fs).capacities(&caps);
    let got = |m: &Matching| exact(&m.sorted_pairs());

    // Direct evaluation, every algorithm.
    for alg in ALGORITHMS {
        let direct = plain().algorithm(alg).evaluate().unwrap();
        assert_eq!(got(&direct), want_plain, "{alg:?}, direct");
        verify_stable(&objects, &fs, direct.pairs()).unwrap_or_else(|e| panic!("{alg:?}: {e}"));
        let direct = masked().algorithm(alg).evaluate().unwrap();
        assert_eq!(got(&direct), want_masked, "{alg:?}, masked");
    }
    let direct = capped().evaluate().unwrap();
    assert_eq!(got(&direct), want_caps, "capacities");

    // The service: cold, then cached.
    let service = EngineService::spawn(Arc::clone(&hosted), ServiceConfig::default().workers(2));
    let client = service.client();
    let serve = |request| client.submit(request).unwrap().wait().unwrap();
    let cold = serve(plain());
    assert_eq!(got(&cold), want_plain, "cold ticket");
    let hits = client.metrics().cache.hits;
    let cached = serve(plain());
    assert_eq!(got(&cached), want_plain, "cached ticket");
    assert_eq!(client.metrics().cache.hits, hits + 1);
    assert_eq!(got(&serve(masked())), want_masked, "masked ticket");
    assert_eq!(got(&serve(capped())), want_caps, "capacities");

    // A request the cache has not seen: an exact miss, evaluated
    // seeded from the skyline the first cold run left there.
    let seeded = client.metrics().cache.seeded_hits;
    let refined = serve(hosted.request(&fs).exclude([exclude[0]]));
    assert_eq!(got(&refined), want_refined, "seeded miss");
    assert_eq!(client.metrics().cache.seeded_hits, seeded + 1);

    // The gauges of the one index.
    let metrics = client.metrics();
    assert_eq!(metrics.objects, objects.len(), "gauges cover the inventory");
    assert_eq!(metrics.tree_height, hosted.tree().height());
    let json = metrics.to_json();
    let storage = json.get("storage").expect("storage sub-object");
    assert_eq!(
        storage.get("objects").and_then(|v| v.as_f64()),
        Some(objects.len() as f64)
    );
    assert!(json.get("shards").is_none());
    service.shutdown();
}

/// Scoped invalidation: a mutation that provably cannot change a cached
/// matching (a dominated insert) must not cost a re-evaluation — the
/// engine's mutation log revalidates the entry. A mutation that *can*
/// change the result (a dominating insert) must re-evaluate.
#[test]
fn a_dominated_insert_revalidates_and_a_dominating_one_reevaluates() {
    let objects = seeded_points(80, 2, 0xCACE);
    let fs = functions(2, 6, 0x77);
    let hosted = Arc::new(engine(&objects));
    let service = EngineService::spawn(Arc::clone(&hosted), ServiceConfig::default().workers(1));
    let client = service.client();
    let submit = || client.submit(hosted.request(&fs)).unwrap().wait().unwrap();
    let first = submit();
    assert_eq!(submit().sorted_pairs(), first.sorted_pairs());
    assert_eq!(
        client.metrics().cache.hits,
        1,
        "identical resubmission must be a cache hit"
    );

    // A deeply dominated insert mints a new version; the log proves the
    // matching unchanged and the entry is restamped, not evicted.
    let version = hosted.inventory_version();
    hosted.insert_object(&[0.001, 0.001]).unwrap();
    assert!(hosted.inventory_version() > version);
    assert_eq!(submit().sorted_pairs(), first.sorted_pairs());
    let cache = client.metrics().cache;
    assert_eq!(
        (cache.hits, cache.revalidations),
        (2, 1),
        "a dominated insert must not evict the cached matching"
    );

    // A dominating insert can win a greedy round: the entry must fall
    // back to a real re-evaluation (and the result changes).
    hosted.insert_object(&[0.999, 0.999]).unwrap();
    let after = submit();
    assert_eq!(
        client.metrics().cache.hits,
        2,
        "a result-changing mutation must re-evaluate"
    );
    assert_ne!(after.sorted_pairs(), first.sorted_pairs());
}

/// A request is only ever evaluated by the engine it was built
/// against: a service refuses one built on any other engine — another
/// instance over the very same objects — with one message.
#[test]
fn services_refuse_requests_built_on_another_engine() {
    let objects = seeded_points(100, 3, 0x5E4E);
    let fs = functions(3, 10, 0x42);
    let build = || Arc::new(engine(&objects));
    let (first, other_first, second, other_second) = (build(), build(), build(), build());
    let first_service = Arc::clone(&first).serve(ServiceConfig::default().workers(1));
    let second_service = Arc::clone(&second).serve(ServiceConfig::default().workers(1));
    let (to_first, to_second) = (first_service.client(), second_service.client());

    let refused = |submitted: Result<Ticket, MpqError>| {
        assert_eq!(
            submitted.unwrap_err(),
            MpqError::UnsupportedRequest(
                "request was built against a different engine than this service serves"
            )
        );
    };
    refused(to_first.submit(second.request(&fs)));
    refused(to_second.submit(first.request(&fs)));
    refused(to_first.submit(other_first.request(&fs)));
    refused(to_second.submit(other_second.request(&fs)));
    refused(to_first.submit(to_second.engine().request(&fs)));
    refused(to_second.submit_with(to_first.engine().request(&fs), Duration::MAX));

    let direct = second.request(&fs).evaluate().unwrap();
    for ticket in [
        to_first.submit(first.request(&fs)),
        to_first.submit(to_first.engine().request(&fs)),
        to_second.submit(second.request(&fs)),
        to_second.submit(to_second.engine().request(&fs)),
    ] {
        let served = ticket.unwrap().wait().unwrap();
        assert_eq!(exact(&served.sorted_pairs()), exact(&direct.sorted_pairs()));
    }
}

/// Page writes, page syncs, WAL appends and WAL syncs a persistent
/// engine has issued after its build, after each of seven mutations, a
/// checkpoint and one more insert. The page writes are those of one
/// tree epoch per mutation, whose superseded pages hold no share of the
/// buffer until it publishes. The crash-point sweep of `chaos.rs` walks
/// exactly this schedule.
const DURABILITY_OPS: [[u64; 4]; 10] = [
    [8, 2, 0, 1],
    [8, 2, 1, 2],
    [11, 2, 2, 3],
    [14, 2, 3, 4],
    [15, 2, 4, 5],
    [16, 2, 5, 6],
    [17, 2, 6, 7],
    [22, 2, 7, 8],
    [25, 4, 7, 9],
    [25, 4, 8, 10],
];

#[test]
fn a_persistent_engine_schedules_the_durability_ops_it_always_did() {
    let dir = tmp_dir("schedule");
    let objects = seeded_points(90, 2, 404);
    let config = IndexConfig {
        page_size: 512,
        buffer_fraction: 0.05,
        min_buffer_pages: 2,
    };
    let inj = FaultInjector::shared();
    let ops = [
        FaultOp::PageWrite,
        FaultOp::PageSync,
        FaultOp::WalWrite,
        FaultOp::WalSync,
    ];
    let mut schedule = Vec::new();
    let mut record = || schedule.push(ops.map(|op| inj.count(op)));
    let builder = Engine::builder().objects(&objects).index(config);
    let builder = builder.data_dir(&dir).fault_injector(Arc::clone(&inj));
    let engine = builder.build().unwrap();
    record();
    for (_, p) in seeded_points(4, 2, 0xC0FFEE).iter() {
        engine.insert_object(p).unwrap();
        record();
    }
    engine.remove_object(2).unwrap();
    record();
    for (i, (_, p)) in seeded_points(2, 2, 0xFACADE).iter().enumerate() {
        engine.update_object(5 + i as u64, p).unwrap();
        record();
    }
    engine.checkpoint().unwrap();
    record();
    engine.insert_object(&[0.5, 0.5]).unwrap();
    record();
    assert_eq!(schedule, DURABILITY_OPS);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A build validates the whole inventory first, naming the first bad
/// object in id order, and an invalid inventory writes nothing.
#[test]
fn an_invalid_inventory_is_refused_naming_its_first_bad_object_and_leaves_no_debris() {
    // Enough objects for the validation pass to take two threads where
    // there are two cores: the bad ones in either thread's half.
    let objects = seeded_points(70_000, 3, 91);
    let (a, b) = (30_017, 35_011);
    let with = |bad: [(usize, f64); 2]| {
        let mut flat = objects.as_flat().to_vec();
        for (i, v) in bad {
            flat[i * 3 + 1] = v;
        }
        PointSet::from_flat(3, flat)
    };
    for bad in [
        with([(a, f64::NAN), (b, 1.5)]),
        with([(a, -0.25), (b, f64::INFINITY)]),
    ] {
        // (a NaN is not equal to itself: errors compare as printed)
        let want = Engine::builder().objects(&bad).build().unwrap_err();
        assert!(
            matches!(
                want,
                MpqError::NonFiniteCoordinate { oid, .. } | MpqError::CoordinateOutOfRange { oid, .. }
                    if oid == a as u64
            ),
            "the first bad object is {a}: {want:?}"
        );
        let dir = tmp_dir("invalid");
        let got = (Engine::builder().objects(&bad).data_dir(&dir).build()).unwrap_err();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        let debris = std::fs::read_dir(&dir).map_or(0, Iterator::count);
        assert_eq!(debris, 0, "an invalid inventory creates no file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
