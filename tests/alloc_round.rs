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
//! | skyline columns and rank rows kept by the scratch         |          19 |
//! | the same with an all-ones capacity vector                |          20 |
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
//! fifth: the `Vec` of per-shard sessions a pin collected into a forest;
//! a pin is now the one tree's `IoSession`. What went last (224 of the
//! 243): everything the run's skyline writes — tombstones, tails, its
//! own slot arena and members, the link column over the seed's slots,
//! its private scan index, its candidate heap — which a resume
//! allocated afresh and a re-index rebuilt into new `Vec`s, and one
//! `Vec` per rank list. The skyline's columns now live in the scratch
//! and a resume copies into them, and the rank lists are fixed-stride
//! rows of one column each. What is left is the function side's
//! reverse top-1 index, the mask and the matching.
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
//! | skyline columns and rank rows in the scratch   |   9 544 B |
//!
//! That was 2.9× the seed, then 1.8×, and is now a fifth of the seed
//! (50 232 B): the run's own arena — entries of pages the seed never
//! expanded, read by this run — lives in the scratch's columns, which a
//! warm scratch already holds. The asserted bounds are the recorded
//! peak + 25 %, and twice the seed.
//!
//! An exclusion is an id kept as given in a sorted list, never a bit
//! over the id bound: excluding `u64::MAX` allocates no more than
//! excluding 3.
//!
//! Resuming must also cost the same however large the skyline is: the
//! seeded arm of `sb.rs`'s priming resumes the snapshot into the
//! scratch's skyline columns — a reference-count bump on the shared base
//! plus a copy of its tombstone column and its column of (empty) tail
//! chains — which allocates nothing once the columns are warm, and two
//! columns into fresh ones (a clone).
//!
//! A seed's `approx_bytes` is what it holds: within 5 % of the bytes
//! freed when it drops, on an independent and an anti-correlated
//! inventory (it missed 15 % on the ledger's `batch_anti` inventory
//! while it left out the drained BBS heap the seed still kept).
//!
//! A cache hit served through the service — one `submit` + `wait` of
//! the same request against a warm one-worker service — is counted
//! too:
//!
//! | a cache-hit `submit` + `wait`                                  | allocations |
//! |----------------------------------------------------------------|------------:|
//! | the function set detached before the lookup, dropped on a hit  |           6 |
//! | the key built from the borrowed request, detached only to queue |           4 |
//! | the key's material sized exactly, not shrunk after it is built  |           3 |
//!
//! What is left: the key's material, the ticket's oneshot and the
//! matching rebuilt from the entry's columns.
//!
//! A cache entry's counted bytes are the heap it frees: exactly, on a
//! 1 000-function 4-d request (the ledger's batch shape) and a
//! 40-function 3-d one, with object ids that fit a `u32` and with ids
//! that do not. The entries hold 48 208 B and 1 688 B (52 208 B and
//! 1 848 B with `u64` ids), where the key with a word per tombstone and
//! 24-byte pairs counted 64 368 B and 2 608 B.
//!
//! The counter is process-global, so the tests take turns: each holds
//! [`SERIAL`] while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mpq::core::{ResultCache, ServiceConfig};
use mpq::datagen::{Distribution, WorkloadBuilder};
use mpq::prelude::*;
use mpq::rtree::{RTree, RTreeParams};
use mpq::skyline::{SkylineColumns, SkylineMaintainer};

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
/// stamp read by the pin, with the pin one `IoSession`, and with the
/// skyline columns and rank rows kept by the scratch.
const LINKED_ALLOCATIONS: u64 = 245;
const STAMPED_ALLOCATIONS: u64 = 244;
const ONE_PIN_ALLOCATIONS: u64 = 243;
const COLUMNS_ALLOCATIONS: u64 = 19;
/// The same request with an all-ones capacity vector: the plain run
/// and its one copy of the vector.
const CAPACITATED_ALLOCATIONS: u64 = 20;
/// A cache-hit `submit` + `wait` when the function set was detached
/// before the lookup, when the key was shrunk after it was built, and
/// now.
const DETACHED_HIT_ALLOCATIONS: u64 = 6;
const HIT_ALLOCATIONS: u64 = 4;
const SIZED_KEY_HIT_ALLOCATIONS: u64 = 3;
/// What a cache entry of the 1 000-function, 4-d request and of the
/// 40-function, 3-d one frees, and counts. They counted 64 368 B and
/// 2 608 B while the key spent a word per tombstone and the entry held
/// a `Matching` of 24-byte pairs.
const ENTRY_BYTES_1000X4: usize = 48_208;
const ENTRY_BYTES_40X3: usize = 1_688;
/// A served evaluation's peak live bytes, over its start, stay below
/// this many times the seed's `approx_bytes` ...
const PEAK_OVER_SEED: usize = 2;
/// ... and within a quarter of the recorded peak, which was 108 244 B
/// while the run allocated its skyline columns.
const COLUMNS_PEAK: i64 = 9_544;
/// A seed's `approx_bytes` is within this share of what it frees.
const SEED_BYTES_TOLERANCE: f64 = 0.05;

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
        plain <= COLUMNS_ALLOCATIONS + COLUMNS_ALLOCATIONS / 4,
        "a served evaluation made {plain} allocations, recorded {COLUMNS_ALLOCATIONS}"
    );
    assert!(plain * 4 <= PARENT_ALLOCATIONS);
    assert!(plain * 2 <= HASHED_ALLOCATIONS);
    const { assert!(COLUMNS_ALLOCATIONS * 8 < ONE_PIN_ALLOCATIONS) };
    const { assert!(ONE_PIN_ALLOCATIONS < STAMPED_ALLOCATIONS) };
    const { assert!(STAMPED_ALLOCATIONS < LINKED_ALLOCATIONS) };
    const { assert!(LINKED_ALLOCATIONS < STORE_ALLOCATIONS) };
    const { assert!(ONE_PIN_ALLOCATIONS + ONE_PIN_ALLOCATIONS / 4 < HASHED_ALLOCATIONS) };
    assert_peak_under_the_seed(cost, &seed, "a served evaluation");
    assert!(
        cost.peak <= COLUMNS_PEAK + COLUMNS_PEAK / 4,
        "a served evaluation peaked {} B over its start, recorded {COLUMNS_PEAK} B",
        cost.peak
    );

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

    // Resuming costs the same on a skyline of dozens and on one of
    // hundreds: two columns into fresh columns (a clone), nothing into
    // warm ones — here those of the other skyline's run.
    let mut columns = SkylineColumns::default();
    let mut resume_allocations = |distribution, objects| {
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
        // A run that grew the columns, then one resumed into them.
        let mut run = snapshot.resume(std::mem::take(&mut columns));
        let victims: Vec<u64> = snapshot.iter().map(|e| e.oid).step_by(2).collect();
        run.remove(&victims, &tree);
        let (warm, resumed) = counting(|| snapshot.resume(run.into_columns()));
        assert_eq!(resumed.len(), snapshot.len());
        columns = resumed.into_columns();
        (cost.allocations, warm.allocations, snapshot.len())
    };
    let (small, _, few) = resume_allocations(Distribution::Independent, 500);
    let (large, warm, many) = resume_allocations(Distribution::AntiCorrelated, 5_000);
    let (_, warm_again, _) = resume_allocations(Distribution::Independent, 500);
    assert!(many > 8 * few, "skylines of {few} and {many} members");
    assert_eq!(small, large, "resuming must not allocate per member");
    assert!(
        large <= 2,
        "resuming into fresh columns made {large} allocations"
    );
    assert_eq!(
        (warm, warm_again),
        (0, 0),
        "resuming into warm columns allocates"
    );
}

/// A seed's `approx_bytes` against the bytes it frees when it drops.
#[test]
fn a_seeds_approx_bytes_are_what_it_frees() {
    let _serial = serial();
    let (independent, functions) = workload();
    let anti = WorkloadBuilder::new()
        .objects(20_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::AntiCorrelated)
        .seed(11)
        .build()
        .objects;
    for (label, objects) in [("independent", independent), ("anti-correlated", anti)] {
        let engine = Engine::builder().objects(&objects).build().unwrap();
        let mut scratch = Scratch::new();
        let request = engine.request(&functions);
        let (matching, seed) = request.evaluate_seeded(&mut scratch, None).unwrap();
        let seed = seed.expect("a cold run captures the inventory's seed");
        drop(matching);
        let approx = seed.approx_bytes();
        let live = LIVE.load(Ordering::Relaxed);
        drop(seed);
        let freed = live - LIVE.load(Ordering::Relaxed);
        let error = (approx as f64 - freed as f64).abs() / freed as f64;
        assert!(
            error <= SEED_BYTES_TOLERANCE,
            "{label}: approx_bytes {approx} B, the seed freed {freed} B"
        );
    }
}

/// A cache entry's counted bytes against the heap it frees when a
/// stale lookup drops it: a 1 000-function, 4-d request (the ledger's
/// batch shape) and a 40-function, 3-d one (its refinement shape), each
/// with its evaluated matching and with the same pairs moved past the
/// `u32` ids.
#[test]
fn a_cache_entrys_approx_bytes_are_what_it_frees() {
    let _serial = serial();
    for (functions, dim, objects, narrow_bound) in [
        (1_000, 4, 2_000, ENTRY_BYTES_1000X4),
        (40, 3, 500, ENTRY_BYTES_40X3),
    ] {
        let label = format!("{functions} x {dim}-d");
        let objects = WorkloadBuilder::new()
            .objects(objects)
            .functions(1)
            .dim(dim)
            .seed(2009)
            .build()
            .objects;
        let functions = WorkloadBuilder::new()
            .objects(1)
            .functions(functions)
            .dim(dim)
            .seed(7)
            .build()
            .functions;
        let engine = Engine::builder().objects(&objects).build().unwrap();
        let request = engine.request(&functions);
        let key = request.cache_key();
        let evaluated = request.evaluate().unwrap();
        let wide_pairs = (evaluated.pairs().iter())
            .map(|p| Pair {
                oid: p.oid + (1 << 40),
                ..*p
            })
            .collect();
        let wide = Matching::new(wide_pairs, *evaluated.metrics());
        let version = engine.inventory_version();
        let mut sizes = Vec::new();
        for matching in [&evaluated, &wide] {
            let mut cache = ResultCache::new(1, 1 << 30);
            cache.insert_vec_seeded(&key, &[version], matching, None);
            let hit = cache.get(&key, version).expect("stored");
            assert_eq!(hit.pairs(), matching.pairs(), "{label}: rebuilt pairs");
            drop(hit);
            let counted = cache.bytes();
            let live = LIVE.load(Ordering::Relaxed);
            assert!(cache.get(&key, version + 1).is_none(), "a stale lookup");
            let freed = live - LIVE.load(Ordering::Relaxed);
            assert!(cache.is_empty(), "{label}: the stale entry left");
            assert_eq!(
                counted as i64, freed,
                "{label}: the entry counted {counted} B and freed {freed} B"
            );
            sizes.push(counted);
        }
        // Four more bytes a pair once an id needs a `u64`.
        assert_eq!(sizes[1] - sizes[0], 4 * evaluated.len(), "{label}");
        assert!(
            sizes[0] <= narrow_bound,
            "{label}: an entry of {} B, recorded {narrow_bound} B",
            sizes[0]
        );
    }
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
        cost.allocations <= SIZED_KEY_HIT_ALLOCATIONS,
        "a cache hit made {} allocations, recorded {SIZED_KEY_HIT_ALLOCATIONS}",
        cost.allocations
    );
    const { assert!(SIZED_KEY_HIT_ALLOCATIONS < HIT_ALLOCATIONS) };
    const { assert!(HIT_ALLOCATIONS < DETACHED_HIT_ALLOCATIONS) };
    service.shutdown();
}
