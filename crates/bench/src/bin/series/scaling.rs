//! `scaling` — requests/sec of a request list vs. thread count × algorithm,
//! against the sequential request loop (`BENCH_pr3.json`, schema
//! `mpq.bench.scaling/1`).
//!
//! The workload is fig2-style (independent distribution, `D = 3`, 4 KiB
//! pages, LRU buffer at 2% of the tree) — one shared engine, a stream of
//! independent requests each carrying its own preference-function
//! batch. Every parallel cell is checked **pair-for-pair, bit-for-bit**
//! against the sequential evaluation of the same requests; a mismatch
//! aborts the run. Every thread count shares the engine's one buffer
//! pool: one LRU under one lock.
//!
//! Every algorithm's parallel cells run one harness: a plain
//! scoped-thread pool, one `Scratch` a worker, request indices taken
//! from one counter, each request a `Variant` of its algorithm
//! (`request.algorithm(Algorithm::Sb)` for SB). No cell goes through the
//! service's queue and tickets, so the speedups of SB, Brute Force and
//! Chain compare the algorithms alone.
//!
//! Each cell repeats its batch, from a cold buffer every time, until it
//! has run [`MIN_REPEATS`] times and for the size's `min_cell_secs` in
//! all, and reports the median repeat: a single pass of the full size
//! lasted 0.05–0.2 s, and SB at 8 threads read 769–977 req/s across
//! runs of one binary. Every repeat is checked against the sequential
//! matchings, so `identical_to_sequential` holds for all of them.
//!
//! Speedup is machine-dependent: the `host.cores` field records how many
//! cores the measurement actually had. The acceptance target (≥ 2× at
//! ≥ 4 threads) is only reachable on a ≥ 4-core host; on fewer cores the
//! series still measures and records honestly and `acceptance.achieved`
//! reports `null` (not applicable) rather than a fake pass/fail.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mpq_bench::identical_matchings;
use mpq_bench::json::Json;
use mpq_core::{Algorithm, Engine, Matching, Scratch, Variant};
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_ta::FunctionSet;

use crate::artifact::{Must, Rule, Series};

const ACCEPT_THREADS: usize = 4;
const ACCEPT_SPEEDUP: f64 = 2.0;
const DIM: usize = 3;
const ALGORITHMS: [Algorithm; 3] = [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain];
/// The fewest repeats a cell's median is taken over.
const MIN_REPEATS: usize = 3;

struct Size {
    objects: usize,
    requests: usize,
    functions_per_request: usize,
    threads: &'static [usize],
    /// The least wall time a cell's repeats add up to.
    min_cell_secs: f64,
}

const QUICK: Size = Size {
    objects: 4_000,
    requests: 12,
    functions_per_request: 20,
    threads: &[1, 2, 4],
    min_cell_secs: 0.25,
};

const FULL: Size = Size {
    objects: 30_000,
    requests: 48,
    functions_per_request: 50,
    threads: &[1, 2, 4, 8],
    min_cell_secs: 1.0,
};

pub const SERIES: Series = Series {
    name: "scaling",
    schema: "mpq.bench.scaling/1",
    default_out: "BENCH_pr3.json",
    run,
    rules: &[
        Rule("workload.objects", Must::Num),
        Rule("workload.requests", Must::Num),
        Rule("workload.functions_per_request", Must::Num),
        Rule("workload.dim", Must::Num),
        Rule(
            "series",
            Must::Rows(
                1,
                &[
                    Rule("algorithm", Must::Str),
                    Rule("mode", Must::OneOf(&["sequential", "batch"])),
                    Rule("threads", Must::Min(0.0)),
                    Rule("requests", Must::Min(0.0)),
                    Rule("wall_secs", Must::Min(0.0)),
                    Rule("requests_per_sec", Must::Min(0.0)),
                    Rule("speedup_vs_sequential", Must::Min(0.0)),
                    Rule("identical_to_sequential", Must::True),
                ],
            ),
        ),
        Rule("acceptance.threshold_speedup", Must::Num),
    ],
    summary: &["series", "acceptance.best_speedup_at_threshold"],
};

fn run(quick: bool, cores: usize) -> Vec<(&'static str, Json)> {
    let cfg = if quick { &QUICK } else { &FULL };
    println!(
        "scaling: |O|={} requests={} |F|/req={} D={DIM} threads={:?} cores={cores}",
        cfg.objects, cfg.requests, cfg.functions_per_request, cfg.threads
    );

    // fig2-style objects, one shared engine
    let w = WorkloadBuilder::new()
        .objects(cfg.objects)
        .functions(1)
        .dim(DIM)
        .distribution(Distribution::Independent)
        .seed(2009)
        .build();
    let build_start = Instant::now();
    let engine = Engine::builder()
        .objects(&w.objects)
        .build()
        .expect("workload objects are valid");
    let build_secs = build_start.elapsed().as_secs_f64();

    // one independent preference batch per request
    let function_sets: Vec<FunctionSet> = (0..cfg.requests)
        .map(|i| {
            WorkloadBuilder::new()
                .objects(1)
                .functions(cfg.functions_per_request)
                .dim(DIM)
                .seed(40_000 + i as u64)
                .build()
                .functions
        })
        .collect();

    let mut series: Vec<Json> = Vec::new();
    let mut accept_best: Option<f64> = None;

    for algo in ALGORITHMS {
        let variants: Vec<Variant> = function_sets
            .iter()
            .map(|fs| engine.request(fs).algorithm(algo))
            .collect();

        // sequential baseline: one request after another
        let (sequential, seq_wall, repeats) = timed_cell(&engine, cfg, algo, None, || {
            let start = Instant::now();
            let matchings = variants
                .iter()
                .map(|v| v.evaluate().expect("valid request"))
                .collect();
            (matchings, start.elapsed().as_secs_f64())
        });
        let seq_rps = cfg.requests as f64 / seq_wall;
        println!(
            "  {:<12} sequential: {:>8.2} req/s ({:.3}s, median of {repeats})",
            algo.name(),
            seq_rps,
            seq_wall
        );
        series.push(cell(
            algo,
            "sequential",
            1,
            cfg,
            seq_wall,
            seq_rps,
            1.0,
            true,
        ));

        for &threads in cfg.threads {
            let (_, wall, repeats) = timed_cell(&engine, cfg, algo, Some(&sequential), || {
                pool(&variants, threads)
            });
            let rps = cfg.requests as f64 / wall;
            let speedup = if seq_rps > 0.0 { rps / seq_rps } else { 0.0 };
            println!(
                "  {:<12} t={:<2}      : {:>8.2} req/s  speedup {:>5.2}x  identical=true (median of {repeats})",
                algo.name(),
                threads,
                rps,
                speedup,
            );
            if threads >= ACCEPT_THREADS {
                accept_best = Some(accept_best.map_or(speedup, |b: f64| b.max(speedup)));
            }
            series.push(cell(algo, "batch", threads, cfg, wall, rps, speedup, true));
        }
    }

    // acceptance verdict: only meaningful with enough cores to scale
    let acceptance = Json::obj([
        ("threshold_speedup", Json::Num(ACCEPT_SPEEDUP)),
        ("at_threads", Json::Num(ACCEPT_THREADS as f64)),
        (
            "best_speedup_at_threshold",
            accept_best.map_or(Json::Null, Json::Num),
        ),
        (
            "achieved",
            if cores < ACCEPT_THREADS {
                Json::Null // not measurable on this host
            } else {
                Json::Bool(accept_best.unwrap_or(0.0) >= ACCEPT_SPEEDUP)
            },
        ),
    ]);

    let workload = Json::obj([
        ("style", Json::Str("fig2".into())),
        ("distribution", Json::Str("independent".into())),
        ("objects", Json::Num(cfg.objects as f64)),
        ("requests", Json::Num(cfg.requests as f64)),
        (
            "functions_per_request",
            Json::Num(cfg.functions_per_request as f64),
        ),
        ("dim", Json::Num(DIM as f64)),
        ("build_secs", Json::Num(build_secs)),
    ]);
    vec![
        ("workload", workload),
        ("series", Json::Arr(series)),
        ("acceptance", acceptance),
    ]
}

/// Time one cell: run it from a cold buffer until it has run
/// [`MIN_REPEATS`] times and for `cfg.min_cell_secs` in all. Every
/// repeat's matchings must be identical to `reference`, or with none
/// given to the first repeat's; a mismatch aborts the run. Returns the
/// first repeat's matchings, the median repeat's wall seconds and the
/// number of repeats.
fn timed_cell(
    engine: &Engine,
    cfg: &Size,
    algo: Algorithm,
    reference: Option<&[Matching]>,
    mut run: impl FnMut() -> (Vec<Matching>, f64),
) -> (Vec<Matching>, f64, usize) {
    let mut first: Option<Vec<Matching>> = None;
    let mut walls = Vec::new();
    while walls.len() < MIN_REPEATS || walls.iter().sum::<f64>() < cfg.min_cell_secs {
        engine.tree().clear_buffer();
        let (matchings, wall) = run();
        let expected = reference.or(first.as_deref()).unwrap_or(&matchings);
        let identical = matchings.len() == expected.len()
            && matchings
                .iter()
                .zip(expected)
                .all(|(a, b)| identical_matchings(a, b));
        assert!(
            identical,
            "{algo}: repeat {} diverged from sequential — this is a bug",
            walls.len()
        );
        first.get_or_insert(matchings);
        walls.push(wall);
    }
    walls.sort_by(f64::total_cmp);
    let median = walls[walls.len() / 2];
    (first.expect("at least one repeat"), median, walls.len())
}

/// A parallel cell of any algorithm: `threads` scoped workers, one
/// [`Scratch`] each, taking request indices from one counter. Returns the
/// matchings in input order and the wall time in seconds.
fn pool(variants: &[Variant<'_, '_>], threads: usize) -> (Vec<Matching>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut slots: Vec<Option<Matching>> = vec![None; variants.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = Scratch::new();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(variant) = variants.get(i) else {
                            return done;
                        };
                        let m = variant.evaluate_with(&mut scratch);
                        done.push((i, m.expect("valid request")));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (i, m) in worker.join().expect("a pool worker panicked") {
                slots[i] = Some(m);
            }
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let matchings = slots.into_iter().map(|m| m.expect("every index taken"));
    (matchings.collect(), wall)
}

#[allow(clippy::too_many_arguments)]
fn cell(
    algo: Algorithm,
    mode: &str,
    threads: usize,
    cfg: &Size,
    wall: f64,
    rps: f64,
    speedup: f64,
    identical: bool,
) -> Json {
    Json::obj([
        ("algorithm", Json::Str(algo.name().into())),
        ("mode", Json::Str(mode.into())),
        ("threads", Json::Num(threads as f64)),
        ("requests", Json::Num(cfg.requests as f64)),
        ("wall_secs", Json::Num(wall)),
        ("requests_per_sec", Json::Num(rps)),
        ("speedup_vs_sequential", Json::Num(speedup)),
        ("identical_to_sequential", Json::Bool(identical)),
    ])
}
