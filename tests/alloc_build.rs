//! Where a cold start allocates: on the thread that called `build`,
//! once, at final size — and what it keeps is the pages.
//!
//! Counted with a global allocator that also notes whether the
//! allocating thread is the caller, over `Engine::builder()..build()`
//! of 20 000 and of 100 000 4-d objects (independent, seed 2009), on the
//! two-core build container. "Kept" is what the built engine holds;
//! "peak" is the most bytes live at once during the build, over that:
//!
//! | objects (pages, height) | allocations, kept, peak | with an object table         |
//! |-------------------------|-------------------------|------------------------------|
//! | 20 000 (265, 3)         | 35, 1.09 MB, +0.35 MB   | 58, 1.91 MB, +0.3 KB         |
//! | 100 000 (1 105, 3)      | 40, 4.53 MB, +1.72 MB   | 76, 8.63 MB, +0.3 KB         |
//!
//! (47 and 58 allocations at one shard while a build could cut the
//! inventory into several: the per-part vectors of the cut, the loader
//! and the engine, and a second pass of the cut; 36 and 41 while the
//! buffer pool kept its lock shards in a boxed slice.)
//!
//! No allocation is ever made off the caller. A build allocates what it
//! keeps — the page run, 45 B an object at 100 000 — plus one key
//! buffer, the plan (node boundaries and an MBR vector per level) and
//! what spawning a thread costs the spawner; on one core (`taskset -c
//! 0`, which CI runs) the count is 24: `9 + 9 + 2 height`, whatever the
//! page count (25 with the pool's boxed slice of lock shards, 36 =
//! `21 + 9 + 2 height` with the shard cut). The key
//! buffer and the plan are what is live beside the pages at the peak.
//! The object table a build used to fill as well (41 B an object at dim
//! 4, three allocations) is left to the first remove or update, which
//! fills it from the tree.
//!
//! Thread budgets: the budget is the machine's (`thread_budget()`), so
//! this file sees one core under `taskset -c 0` and the machine's
//! otherwise; the entry points that took a thread count are gone, and
//! the loader's own tests cover 1, 2, 3 and 8 threads for layout. That
//! no thread but the caller spawns — at any budget — is structural:
//! every fan-out goes through `mpq_rtree::bulk::side_by_side`.
//!
//! One `#[test]` only: the counters are process-global, and a second
//! concurrently-running test would pollute them. (`alloc_round.rs` has
//! its own file for the same reason.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use mpq::datagen::{Distribution, WorkloadBuilder};
use mpq::prelude::*;
use mpq::rtree::bulk::thread_budget;

struct CountingAllocator;

/// Set while a build is being measured.
static MEASURING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static OFF_CALLER: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not freed, and their high-water mark.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// The test thread sets this; no other thread does. Initialised
    /// `const`, so reading it never allocates (`thread::current()` may).
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

fn note(grown: i64) {
    let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
    PEAK.fetch_max(live, Ordering::Relaxed);
    if grown > 0 && MEASURING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if !IS_CALLER.try_with(Cell::get).unwrap_or(false) {
            OFF_CALLER.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(-(layout.size() as i64));
        note(new_size.max(1) as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What a build cost.
#[derive(Debug, Clone, Copy)]
struct Cost {
    allocations: u64,
    off_caller: u64,
    /// Most bytes live at once during the build, over what was live
    /// before it.
    peak: i64,
    /// Bytes the built engine keeps.
    kept: i64,
}

fn measure<T>(build: impl FnOnce() -> T) -> (Cost, T) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    ALLOCATIONS.store(0, Ordering::Relaxed);
    OFF_CALLER.store(0, Ordering::Relaxed);
    MEASURING.store(true, Ordering::SeqCst);
    let built = build();
    MEASURING.store(false, Ordering::SeqCst);
    let cost = Cost {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        off_caller: OFF_CALLER.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed) - before,
        kept: LIVE.load(Ordering::Relaxed) - before,
    };
    (cost, built)
}

#[test]
fn a_build_allocates_on_the_caller_a_constant_number_of_times_and_no_copy() {
    IS_CALLER.with(|c| c.set(true));
    let threads = thread_budget() as u64;
    for n in [20_000usize, 100_000] {
        let objects = WorkloadBuilder::new()
            .objects(n)
            .functions(0)
            .dim(4)
            .distribution(Distribution::Independent)
            .seed(2009)
            .build()
            .objects;
        let key_buffer = (n * std::mem::size_of::<u128>()) as i64;
        // (the engine is leaked: dropping it is not part of the build)
        let (cost, (pages, height)) = measure(|| {
            let e = Engine::builder().objects(&objects).build().unwrap();
            let shape = (e.page_count(), e.tree().height() as u64);
            std::mem::forget(e);
            shape
        });
        let case = format!("{n} objects, {threads} threads: {pages} pages, {cost:?}");
        eprintln!("{case}"); // shown by `--nocapture`: the probe of the verify skill
        assert_eq!(
            cost.off_caller, 0,
            "allocations off the calling thread: {case}"
        );
        // What one core allocates, and six allocations for every
        // thread a fan-out spawns: the pass of the key fill, the tile
        // and a level's emission at most.
        let bound = 12 + (9 + 2 * height) + 6 * (threads - 1) * (2 + height);
        assert!(
            cost.allocations <= bound,
            "over {bound} allocations: {case}"
        );
        // The engine keeps its page run, a live flag a page and a few
        // KiB (the pool's page buffer, locks, counters): no copy of the
        // objects, which would be 41 B each here.
        let pages_kept = (pages * (4096 + 1)) as i64;
        assert!(
            (pages_kept..=pages_kept + 8192).contains(&cost.kept),
            "kept more than the pages: {case}"
        );
        // Beside them, while the load runs: the key buffer and the
        // plan — node bounds and an MBR a node, the tile order of the
        // leaves — under 16 B a coordinate and 64 B a page.
        let plans = (pages * (16 * 4 + 64)) as i64;
        assert!(
            cost.peak <= cost.kept + key_buffer + plans,
            "more live than what is kept, the key buffer and the plan: {case}"
        );
    }
}
