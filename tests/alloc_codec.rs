//! Allocation behaviour of the wire codec: what decoding an `n`-function
//! `/match` body, and encoding an `n`-pair matching and decoding its
//! pairs, cost as `n` grows.
//!
//! Pinned with a counting global allocator at `n` = 40 and `n` = 1 000
//! (4-d weight rows):
//!
//! | allocations                         | value trees, 40 / 1 000 | scanned, 40 / 1 000 |
//! |-------------------------------------|------------------------:|--------------------:|
//! | `decode_match_request`              |             100 / 2 032 |             12 / 20 |
//! | `encode_matching(..).render()`      |             215 / 5 020 |               1 / 1 |
//! | the same + `decode_pairs`           |             386 / 9 035 |              6 / 10 |
//!
//! The trees cost about two allocations per weight row (a `Json::Arr`
//! and a `Vec<f64>`) and four per pair (an object and its three keys)
//! each way. Scanned, what is left grows only with the output buffers:
//! the function set's two columns and the pairs' `Vec` double as they
//! fill, and the response text is one buffer sized for its pairs.
//!
//! The counter is per thread: the codec runs on its caller, and the test
//! harness's own threads allocate while a test runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpq::core::{Matching, Pair};
use mpq::net::{decode_match_request, decode_pairs, encode_matching};

struct CountingAllocator;

thread_local! {
    /// Allocations this thread has made. A const-initialised `Cell`
    /// allocates nothing and needs no destructor, so the allocator may
    /// touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The allocations `f` makes on this thread, its result dropped
/// uncounted.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    let counted = ALLOCATIONS.with(Cell::get) - before;
    drop(value);
    counted
}

const SMALL: usize = 40;
const LARGE: usize = 1_000;
/// How many more times a buffer doubles holding `LARGE` items than
/// holding `SMALL`: ⌈log₂(1 000 / 40)⌉.
const MORE_DOUBLINGS: u64 = 5;

fn request_body(n: usize) -> String {
    let rows: Vec<String> = (0..n)
        .map(|i| format!("[0.{},0.3,0.2,0.1]", i + 1))
        .collect();
    format!(r#"{{"functions":[{}],"priority":1}}"#, rows.join(","))
}

fn matching(n: usize) -> Matching {
    let pairs = (0..n)
        .map(|i| Pair {
            fid: i as u32,
            oid: (i * 197) as u64,
            score: 0.1 + i as f64 / 7.0,
        })
        .collect();
    Matching::new(pairs, Default::default())
}

#[test]
fn decoding_a_request_allocates_only_as_its_function_set_grows() {
    let cost = |n: usize| {
        let body = request_body(n);
        allocations(|| decode_match_request(body.as_bytes()).unwrap())
    };
    let (small, large) = (cost(SMALL), cost(LARGE));
    // The set's coefficient and liveness columns, the row buffer, the
    // exclusion list; then the columns' doublings.
    assert!(small <= 16, "{SMALL} functions: {small} allocations");
    assert!(
        large <= small + 2 * MORE_DOUBLINGS,
        "{SMALL} functions: {small} allocations, {LARGE}: {large}"
    );
}

#[test]
fn a_matching_crosses_the_wire_in_its_output_buffers() {
    let encode = |n: usize| {
        let m = matching(n);
        allocations(|| encode_matching(&m).render())
    };
    assert_eq!((encode(SMALL), encode(LARGE)), (1, 1));
    let round_trip = |n: usize| {
        let m = matching(n);
        allocations(|| decode_pairs(encode_matching(&m).render().as_bytes()).unwrap())
    };
    let (small, large) = (round_trip(SMALL), round_trip(LARGE));
    assert!(small <= 8, "{SMALL} pairs: {small} allocations");
    assert!(
        large <= small + MORE_DOUBLINGS,
        "{SMALL} pairs: {small} allocations, {LARGE}: {large}"
    );
}
