//! Allocation behaviour of a *served* evaluation — one that resumes
//! from the inventory's seed on a warm [`Scratch`], which is what every
//! cache miss of the serving layer runs.
//!
//! Pinned with a counting global allocator, on a 3 000-object × 120-
//! function request (independent 3-d data, seeds 2009 / 7):
//!
//! | the second seeded `evaluate_seeded`                      | allocations |
//! |----------------------------------------------------------|------------:|
//! | boxed members, copy-on-write plists, TA `Vec`s           |       4 664 |
//! | shared base + slot arena, in-place TA lists              |         616 |
//! | rank lists in rows by member and fid, kept by the scratch |         252 |
//! | the same with an all-ones capacity vector                |         253 |
//! | the seed's entries linked where they lie, never copied   |         245 |
//! | the same with an all-ones capacity vector                |         246 |
//! | pinned under one version stamp, no version `Vec` per pin |         244 |
//! | the same with an all-ones capacity vector                |         245 |
//! | one tree, one `IoSession` pin, no `Vec` of pins          |         243 |
//! | the same with an all-ones capacity vector                |         244 |
//!
//! What went first: one box per member and per promotion point, a plist
//! copy at the first append to each shared plist and its doublings after
//! that, one box per candidate-heap entry, and five `Vec`s per reverse
//! top-1 scan. What went next: one rank list per skyline object and per
//! function (364 of the 616), which hash maps keyed by oid and fid
//! dropped between runs; the rows are now indexed by skyline member
//! number and by fid, and a run empties them but keeps their capacity.
//! What went third: the doublings of the run's own slot arena, which
//! copied every base entry a departure re-homed (`Slots::store`); the
//! run now links the base's slot itself through one link column.
//! What went fourth: the version vector a pin collected, one `Vec` per
//! evaluation; a pin now reads the engine's one version stamp. What went
//! last: the `Vec` of per-shard sessions a pin collected into a forest;
//! a pin is now the one tree's `IoSession`.
//! The asserted bound is the count + 25 %, under half the count with
//! hashed rank lists. A capacitated request is that run and its one
//! copy of the vector: the objects a round's pairs exhaust are listed in
//! a round buffer, so the count is also held below the plain one plus
//! the number of rounds.
//!
//! Live bytes are counted too: the measured run's peak over what was
//! live before it, against the seed's `approx_bytes` (59 588 B):
//!
//! | the second seeded `evaluate_seeded`            | peak      |
//! |------------------------------------------------|----------:|
//! | re-homed base entries copied into the run      | 173 600 B |
//! | base entries linked where they lie             | 108 300 B |
//! | the same over one `IoSession` pin              | 108 244 B |
//!
//! That is 2.9× the seed before and 1.8× now. What is left is mostly the
//! run's own arena — entries of pages the seed never expanded, read by
//! this run — and the function side. The asserted bound is twice the
//! seed.
//!
//! An exclusion is an id kept as given in a sorted list, never a bit
//! over the id bound: excluding `u64::MAX` allocates no more than
//! excluding 3.
//!
//! Resuming must also cost the same however large the skyline is: the
//! seeded arm of `sb.rs`'s priming is a clone of the snapshot, and that
//! is a reference-count bump on the shared base plus one tombstone
//! column and one column of (empty) tail chains.
//!
//! A cache hit served through the service — one `submit` + `wait` of
//! the same request against a warm one-worker service — is counted
//! too:
//!
//! | a cache-hit `submit` + `wait`                                  | allocations |
//! |----------------------------------------------------------------|------------:|
//! | the function set detached before the lookup, dropped on a hit  |           6 |
//! | the key built from the borrowed request, detached only to queue |           4 |
//!
//! What is left: the key, the ticket's oneshot, the matching's copy out
//! of the cache and one node of the cache's recency map.
//!
//! The counter is process-global, so the tests take turns: each holds
//! [`SERIAL`] while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mpq::core::ServiceConfig;
use mpq::datagen::{Distribution, WorkloadBuilder};
use mpq::prelude::*;
use mpq::rtree::{RTree, RTreeParams};
use mpq::skyline::SkylineMaintainer;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not freed, and their high-water mark.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note(grown: i64) {
    let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        note(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        note(-(layout.size() as i64));
        note(new_size as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Held by each test while it runs, so no other test allocates into
/// its counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What running a closure cost.
#[derive(Debug, Clone, Copy)]
struct Cost {
    allocations: u64,
    /// Most bytes live at once while it ran, over what was live before.
    peak: i64,
}

/// The cost of `f`, plus its result.
fn counting<T>(f: impl FnOnce() -> T) -> (Cost, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let value = f();
    let cost = Cost {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before,
        peak: PEAK.load(Ordering::Relaxed) - start,
    };
    (cost, value)
}

/// The second seeded evaluation's allocations with boxed members, with
/// hashed rank lists, and with rank lists in rows (see the module docs).
const PARENT_ALLOCATIONS: u64 = 4_664;
const HASHED_ALLOCATIONS: u64 = 616;
const STORE_ALLOCATIONS: u64 = 252;
/// ... with the seed's entries linked where they lie, with one version
/// stamp read by the pin, and with the pin one `IoSession`.
const LINKED_ALLOCATIONS: u64 = 245;
const STAMPED_ALLOCATIONS: u64 = 244;
const ONE_PIN_ALLOCATIONS: u64 = 243;
/// The same request with an all-ones capacity vector: the plain run
/// and its one copy of the vector.
const CAPACITATED_ALLOCATIONS: u64 = 244;
/// A cache-hit `submit` + `wait` when the function set was detached
/// before the lookup, and now.
const DETACHED_HIT_ALLOCATIONS: u64 = 6;
const HIT_ALLOCATIONS: u64 = 4;
/// A served evaluation's peak live bytes, over its start, stay below
/// this many times the seed's `approx_bytes`.
const PEAK_OVER_SEED: usize = 2;

/// A served evaluation holds at its peak less than [`PEAK_OVER_SEED`]
/// seeds' worth of bytes beyond what was live before it.
fn assert_peak_under_the_seed(cost: Cost, seed: &EvalSeed, label: &str) {
    let bound = PEAK_OVER_SEED * seed.approx_bytes();
    assert!(
        cost.peak < bound as i64,
        "{label}: a served evaluation peaked {} B over its start; the seed is {} B",
        cost.peak,
        seed.approx_bytes()
    );
}

/// The 3 000-object inventory and the 120-function request every test
/// here runs.
fn workload() -> (PointSet, FunctionSet) {
    let w = WorkloadBuilder::new()
        .objects(3_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::Independent)
        .seed(2009)
        .build();
    let functions = WorkloadBuilder::new()
        .objects(1)
        .functions(120)
        .dim(3)
        .seed(7)
        .build()
        .functions;
    (w.objects, functions)
}

#[test]
fn a_served_evaluation_allocates_a_fraction_and_resuming_a_constant() {
    let _serial = serial();
    let (objects, functions) = workload();
    let engine = Engine::builder().objects(&objects).build().unwrap();

    // Cold run: warms the scratch and the page buffer, captures the seed.
    let mut scratch = Scratch::new();
    let (cold, seed) = engine
        .request(&functions)
        .evaluate_seeded(&mut scratch, None)
        .unwrap();
    let seed = seed.expect("a cold run captures the inventory's seed");
    // First seeded run, then the measured second one.
    let served = |scratch: &mut Scratch| {
        let (matching, captured) = engine
            .request(&functions)
            .evaluate_seeded(scratch, Some(&seed))
            .unwrap();
        assert!(captured.is_none(), "a resumed run captures nothing");
        matching
    };
    let first = served(&mut scratch);
    let (cost, second) = counting(|| served(&mut scratch));
    let plain = cost.allocations;

    assert_eq!(cold.pairs(), first.pairs());
    assert_eq!(cold.pairs(), second.pairs());
    assert!(
        plain <= ONE_PIN_ALLOCATIONS + ONE_PIN_ALLOCATIONS / 4,
        "a served evaluation made {plain} allocations, recorded {ONE_PIN_ALLOCATIONS}"
    );
    assert!(plain * 4 <= PARENT_ALLOCATIONS);
    assert!(plain * 2 <= HASHED_ALLOCATIONS);
    const { assert!(ONE_PIN_ALLOCATIONS < STAMPED_ALLOCATIONS) };
    const { assert!(STAMPED_ALLOCATIONS < LINKED_ALLOCATIONS) };
    const { assert!(LINKED_ALLOCATIONS < STORE_ALLOCATIONS) };
    const { assert!(ONE_PIN_ALLOCATIONS + ONE_PIN_ALLOCATIONS / 4 < HASHED_ALLOCATIONS) };
    assert_peak_under_the_seed(cost, &seed, "a served evaluation");

    // One excluded id costs what any other does, the largest included:
    // the list holds it as given, and no column is sized by it.
    let excluding = |scratch: &mut Scratch, oid: u64| {
        let request = engine.request(&functions).exclude([oid]);
        request.evaluate_seeded(scratch, Some(&seed)).unwrap().0
    };
    let mut costs = [3, u64::MAX].map(|oid| {
        excluding(&mut scratch, oid);
        counting(|| excluding(&mut scratch, oid)).0.allocations
    });
    assert!(
        costs[1] <= costs[0],
        "excluding u64::MAX made {} allocations, excluding 3 made {}",
        costs[1],
        costs[0]
    );
    costs.sort_unstable();
    assert!(
        costs[1] <= plain + 4,
        "{costs:?} against {plain} without exclusions"
    );

    // The same request with a capacity of one everywhere is the same
    // run plus its copy of the vector: what a round's pairs take from
    // it is listed in a round buffer, not in a fresh `Vec` per round.
    let units = vec![1; objects.len()];
    let request = engine.request(&functions).capacities(&units);
    let mut served = || {
        request
            .evaluate_seeded(&mut scratch, Some(&seed))
            .unwrap()
            .0
    };
    let first = served();
    let (cost, second) = counting(served);
    let allocations = cost.allocations;
    assert_eq!(cold.pairs(), first.pairs());
    assert_eq!(cold.pairs(), second.pairs());
    assert!(
        allocations <= CAPACITATED_ALLOCATIONS + CAPACITATED_ALLOCATIONS / 4,
        "a served capacitated evaluation made {allocations} allocations, recorded {CAPACITATED_ALLOCATIONS}"
    );
    let rounds = second.metrics().loops;
    assert!(
        allocations < plain + rounds,
        "{allocations} allocations against {plain} without capacities: one a round ({rounds})?"
    );

    // Resuming — cloning the snapshot — costs the same on a skyline of
    // dozens and on one of hundreds.
    let clone_allocations = |distribution, objects| {
        let points = WorkloadBuilder::new()
            .objects(objects)
            .functions(1)
            .dim(3)
            .distribution(distribution)
            .seed(11)
            .build()
            .objects;
        let tree = RTree::bulk_load(&points, RTreeParams::default());
        let snapshot = SkylineMaintainer::build(&tree);
        let (cost, resumed) = counting(|| snapshot.clone());
        assert_eq!(resumed.len(), snapshot.len());
        (cost.allocations, snapshot.len())
    };
    let (small, few) = clone_allocations(Distribution::Independent, 500);
    let (large, many) = clone_allocations(Distribution::AntiCorrelated, 5_000);
    assert!(many > 8 * few, "skylines of {few} and {many} members");
    assert_eq!(small, large, "resuming must not allocate per member");
    assert!(large <= 4, "resuming made {large} allocations");
}

#[test]
fn a_cache_hit_copies_no_function_set() {
    let _serial = serial();
    let (objects, functions) = workload();
    let engine = Arc::new(Engine::builder().objects(&objects).build().unwrap());
    let service = Arc::clone(&engine).serve(ServiceConfig::default().workers(1));
    let client = service.client();
    let submit = || {
        let ticket = client.submit(engine.request(&functions)).unwrap();
        ticket.wait().unwrap()
    };
    // The miss evaluates and publishes before its ticket resolves; a
    // first hit warms the service's latency window.
    let evaluated = submit();
    submit();
    let (cost, hit) = counting(submit);
    assert_eq!(hit.pairs(), evaluated.pairs());
    assert!(
        cost.allocations <= HIT_ALLOCATIONS,
        "a cache hit made {} allocations, recorded {HIT_ALLOCATIONS}",
        cost.allocations
    );
    const { assert!(HIT_ALLOCATIONS < DETACHED_HIT_ALLOCATIONS) };
    service.shutdown();
}
