//! Repeat-heavy workload harness: throughput of the
//! [`mpq_core::EngineService`] with and without the cross-request
//! result cache, across repeat ratios × algorithm.
//!
//! Extends the perf-trajectory series (`BENCH_pr3.json` scaling,
//! `BENCH_pr4.json` service latency) with a machine-readable
//! `BENCH_pr5.json` (schema `mpq.bench.cache/1`) that CI validates and
//! archives **alongside** — not instead of — the earlier artifacts.
//!
//! ```text
//! cargo run --release -p mpq_bench --bin cache                 # full run
//! cargo run --release -p mpq_bench --bin cache -- --quick      # CI smoke
//! cargo run --release -p mpq_bench --bin cache -- --out results.json
//! cargo run -p mpq_bench --bin cache -- --validate BENCH_pr5.json
//! MPQ_OBJECTS=50000 MPQ_REQUESTS=64 ...                        # env overrides
//! ```
//!
//! The workload models real multi-user traffic: a pool of *distinct*
//! function sets is replayed as a request stream whose **repeat ratio**
//! controls how much of the stream is re-submissions of an earlier
//! request (0% = every request unique, 100% = one request repeated).
//! Each cell runs the same stream twice through a 1-worker service —
//! once with `cache_capacity(0)` (every submission pays its own
//! evaluation) and once with the cache on — and reports the wall-clock
//! speedup plus the service's own hit/attach counters and the *actual*
//! evaluation count ([`mpq_core::Engine::evaluation_count`] delta, the
//! honest "how many times did we really run the matcher" number).
//!
//! Every served matching — cached, deduped or evaluated — is checked
//! **pair-for-pair, bit-for-bit** against a fresh sequential evaluation
//! of the same request; a mismatch aborts the run. The acceptance bar
//! (`acceptance.achieved`) is a ≥ 5× wall-clock speedup on the 100%
//! repeat stream for every algorithm, recorded honestly from the
//! measured minimum.

use std::sync::Arc;
use std::time::Instant;

use mpq_bench::json::Json;
use mpq_bench::{env_flag, env_usize, identical_matchings};
use mpq_core::{Algorithm, Engine, Matching, ServiceConfig};
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_ta::FunctionSet;

const SCHEMA: &str = "mpq.bench.cache/1";
const TARGET_SPEEDUP: f64 = 5.0;

struct Config {
    objects: usize,
    requests: usize,
    functions_per_request: usize,
    dim: usize,
    repeat_ratios: Vec<f64>,
    algorithms: Vec<Algorithm>,
    out: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_pr5.json");
        match validate_file(path) {
            Ok(summary) => println!("{path}: OK ({summary})"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let quick = args.iter().any(|a| a == "--quick") || env_flag("MPQ_QUICK");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr5.json".to_string());

    let cfg = Config {
        objects: env_usize("MPQ_OBJECTS", if quick { 4_000 } else { 20_000 }),
        requests: env_usize("MPQ_REQUESTS", if quick { 16 } else { 64 }),
        functions_per_request: env_usize("MPQ_FUNCTIONS", if quick { 20 } else { 40 }),
        dim: env_usize("MPQ_DIM", 3),
        repeat_ratios: vec![0.0, 0.5, 1.0],
        algorithms: vec![Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain],
        out,
    };
    run(&cfg);
}

/// The request stream of one cell: `uniques` distinct function sets,
/// replayed round-robin over `requests` submissions. `repeat_ratio = 0`
/// makes every request unique; `1.0` repeats a single request.
fn stream_of(cfg: &Config, ratio: f64) -> (usize, Vec<FunctionSet>) {
    let uniques = (((cfg.requests as f64) * (1.0 - ratio)).round() as usize).clamp(1, cfg.requests);
    let pool: Vec<FunctionSet> = (0..uniques)
        .map(|i| {
            WorkloadBuilder::new()
                .objects(1)
                .functions(cfg.functions_per_request)
                .dim(cfg.dim)
                .seed(50_000 + i as u64)
                .build()
                .functions
        })
        .collect();
    (uniques, pool)
}

/// Submit the whole stream through a service and wait for every ticket;
/// returns (wall seconds, served matchings in stream order, the cache
/// counters, evaluations actually run).
fn serve_stream(
    engine: &Arc<Engine>,
    algo: Algorithm,
    pool: &[FunctionSet],
    requests: usize,
    cache_entries: usize,
) -> (f64, Vec<Matching>, mpq_core::CacheMetrics, u64) {
    engine.tree().clear_buffer();
    let evals_before = engine.evaluation_count();
    let service = engine.clone().serve(
        ServiceConfig::default()
            .workers(1)
            .queue_capacity(requests.max(1))
            .latency_window(requests.max(1))
            .cache_capacity(cache_entries),
    );
    let client = service.client();
    let wall_start = Instant::now();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            client
                .submit(
                    client
                        .backend()
                        .request(&pool[i % pool.len()])
                        .algorithm(algo),
                )
                .expect("queue sized to the stream")
        })
        .collect();
    let served: Vec<Matching> = tickets
        .into_iter()
        .map(|t| t.wait().expect("valid request"))
        .collect();
    let wall = wall_start.elapsed().as_secs_f64();
    let metrics = service.metrics();
    service.shutdown();
    let evaluations = engine.evaluation_count() - evals_before;
    (wall, served, metrics.cache, evaluations)
}

fn run(cfg: &Config) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "cache harness: |O|={} requests={} |F|/req={} D={} ratios={:?} cores={}",
        cfg.objects, cfg.requests, cfg.functions_per_request, cfg.dim, cfg.repeat_ratios, cores
    );

    let w = WorkloadBuilder::new()
        .objects(cfg.objects)
        .functions(1)
        .dim(cfg.dim)
        .distribution(Distribution::Independent)
        .seed(2009)
        .build();
    let build_start = Instant::now();
    let engine = Arc::new(
        Engine::builder()
            .objects(&w.objects)
            .build()
            .expect("workload objects are valid"),
    );
    let build_secs = build_start.elapsed().as_secs_f64();

    let mut series: Vec<Json> = Vec::new();
    let mut min_full_repeat_speedup = f64::INFINITY;

    for &algo in &cfg.algorithms {
        for &ratio in &cfg.repeat_ratios {
            let (uniques, pool) = stream_of(cfg, ratio);

            // Fresh sequential ground truth, one evaluation per unique
            // request: what every served result must be bit-identical to.
            engine.tree().clear_buffer();
            let fresh: Vec<Matching> = pool
                .iter()
                .map(|fs| {
                    engine
                        .request(fs)
                        .algorithm(algo)
                        .evaluate()
                        .expect("valid request")
                })
                .collect();

            let (wall_off, served_off, _, evals_off) =
                serve_stream(&engine, algo, &pool, cfg.requests, 0);
            let (wall_on, served_on, cache, evals_on) =
                serve_stream(&engine, algo, &pool, cfg.requests, cfg.requests.max(16));
            let (hits, attaches) = (cache.hits, cache.attaches);

            for (name, served) in [("uncached", &served_off), ("cached", &served_on)] {
                for (i, m) in served.iter().enumerate() {
                    assert!(
                        identical_matchings(m, &fresh[i % uniques]),
                        "{algo} ratio={ratio} {name} request {i}: served matching \
                         diverged from fresh evaluation — this is a bug"
                    );
                }
            }
            assert_eq!(
                evals_off, cfg.requests as u64,
                "uncached run must evaluate every submission"
            );

            let rps_off = cfg.requests as f64 / wall_off.max(f64::MIN_POSITIVE);
            let rps_on = cfg.requests as f64 / wall_on.max(f64::MIN_POSITIVE);
            let speedup = wall_off / wall_on.max(f64::MIN_POSITIVE);
            let hit_rate = cache.hit_rate();
            if (ratio - 1.0).abs() < f64::EPSILON {
                min_full_repeat_speedup = min_full_repeat_speedup.min(speedup);
            }
            println!(
                "  {:<12} repeat={:>3.0}%: uncached {:>8.2} req/s | cached {:>8.2} req/s  \
                 speedup {:>6.2}x  hits={hits} attaches={attaches} evals {}→{}",
                algo.name(),
                ratio * 100.0,
                rps_off,
                rps_on,
                speedup,
                evals_off,
                evals_on,
            );
            series.push(Json::obj([
                ("algorithm", Json::Str(algo.name().into())),
                ("repeat_ratio", Json::Num(ratio)),
                ("unique_requests", Json::Num(uniques as f64)),
                ("requests", Json::Num(cfg.requests as f64)),
                ("uncached_wall_secs", Json::Num(wall_off)),
                ("cached_wall_secs", Json::Num(wall_on)),
                ("uncached_requests_per_sec", Json::Num(rps_off)),
                ("cached_requests_per_sec", Json::Num(rps_on)),
                ("speedup_cached_vs_uncached", Json::Num(speedup)),
                ("cache_hits", Json::Num(hits as f64)),
                ("dedupe_attaches", Json::Num(attaches as f64)),
                ("hit_rate", Json::Num(hit_rate)),
                ("evaluations_uncached", Json::Num(evals_off as f64)),
                ("evaluations_cached", Json::Num(evals_on as f64)),
                ("identical_to_fresh", Json::Bool(true)),
            ]));
        }
    }

    let achieved = min_full_repeat_speedup.is_finite() && min_full_repeat_speedup >= TARGET_SPEEDUP;
    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("host", Json::obj([("cores", Json::Num(cores as f64))])),
        (
            "workload",
            Json::obj([
                ("style", Json::Str("repeat-heavy".into())),
                ("distribution", Json::Str("independent".into())),
                ("objects", Json::Num(cfg.objects as f64)),
                ("requests", Json::Num(cfg.requests as f64)),
                (
                    "functions_per_request",
                    Json::Num(cfg.functions_per_request as f64),
                ),
                ("dim", Json::Num(cfg.dim as f64)),
                ("build_secs", Json::Num(build_secs)),
            ]),
        ),
        ("series", Json::Arr(series)),
        (
            "acceptance",
            Json::obj([
                (
                    "criterion",
                    Json::Str(format!(
                        ">= {TARGET_SPEEDUP}x wall-clock speedup on the 100% repeat \
                         stream, every algorithm, served results bit-identical"
                    )),
                ),
                ("target_speedup", Json::Num(TARGET_SPEEDUP)),
                (
                    "measured_min_speedup",
                    Json::Num(if min_full_repeat_speedup.is_finite() {
                        min_full_repeat_speedup
                    } else {
                        0.0
                    }),
                ),
                ("achieved", Json::Bool(achieved)),
            ]),
        ),
    ]);

    std::fs::write(&cfg.out, doc.render() + "\n").expect("write benchmark artifact");
    println!(
        "wrote {} (min 100%-repeat speedup {:.2}x, target {TARGET_SPEEDUP}x, achieved={achieved})",
        cfg.out,
        if min_full_repeat_speedup.is_finite() {
            min_full_repeat_speedup
        } else {
            0.0
        }
    );
    match validate_file(&cfg.out) {
        Ok(summary) => println!("self-validation: OK ({summary})"),
        Err(e) => {
            eprintln!("self-validation FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// Validate a `BENCH_pr5.json` artifact: parse, check the schema tag and
/// the shape every series entry must have. Returns a one-line summary.
fn validate_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = Json::parse(&text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema'")?;
    if schema != SCHEMA {
        return Err(format!("schema '{schema}' != '{SCHEMA}'"));
    }
    doc.get("host")
        .and_then(|h| h.get("cores"))
        .and_then(Json::as_f64)
        .ok_or("missing 'host.cores'")?;
    let workload = doc.get("workload").ok_or("missing 'workload'")?;
    for key in ["objects", "requests", "functions_per_request", "dim"] {
        workload
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric 'workload.{key}'"))?;
    }
    let series = doc
        .get("series")
        .and_then(Json::as_arr)
        .ok_or("missing 'series' array")?;
    if series.is_empty() {
        return Err("empty 'series'".to_string());
    }
    let mut identical = 0usize;
    for (i, entry) in series.iter().enumerate() {
        entry
            .get("algorithm")
            .and_then(Json::as_str)
            .ok_or(format!("series[{i}]: missing 'algorithm'"))?;
        for key in [
            "repeat_ratio",
            "unique_requests",
            "requests",
            "uncached_wall_secs",
            "cached_wall_secs",
            "uncached_requests_per_sec",
            "cached_requests_per_sec",
            "speedup_cached_vs_uncached",
            "cache_hits",
            "dedupe_attaches",
            "hit_rate",
            "evaluations_uncached",
            "evaluations_cached",
        ] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("series[{i}]: missing numeric '{key}'"))?;
            if v < 0.0 {
                return Err(format!("series[{i}]: negative '{key}'"));
            }
        }
        let ratio = entry.get("repeat_ratio").and_then(Json::as_f64).unwrap();
        let rate = entry.get("hit_rate").and_then(Json::as_f64).unwrap();
        if !(0.0..=1.0).contains(&ratio) || !(0.0..=1.0).contains(&rate) {
            return Err(format!("series[{i}]: ratio/rate outside [0, 1]"));
        }
        let evals_on = entry
            .get("evaluations_cached")
            .and_then(Json::as_f64)
            .unwrap();
        let evals_off = entry
            .get("evaluations_uncached")
            .and_then(Json::as_f64)
            .unwrap();
        if evals_on > evals_off {
            return Err(format!(
                "series[{i}]: cached run evaluated more than uncached"
            ));
        }
        if entry
            .get("identical_to_fresh")
            .and_then(Json::as_bool)
            .ok_or(format!("series[{i}]: missing 'identical_to_fresh'"))?
        {
            identical += 1;
        }
    }
    if identical != series.len() {
        return Err(format!(
            "{} of {} series entries were not identical to fresh evaluation",
            series.len() - identical,
            series.len()
        ));
    }
    let acceptance = doc.get("acceptance").ok_or("missing 'acceptance'")?;
    acceptance
        .get("target_speedup")
        .and_then(Json::as_f64)
        .ok_or("missing 'acceptance.target_speedup'")?;
    acceptance
        .get("measured_min_speedup")
        .and_then(Json::as_f64)
        .ok_or("missing 'acceptance.measured_min_speedup'")?;
    let achieved = acceptance
        .get("achieved")
        .and_then(Json::as_bool)
        .ok_or("missing boolean 'acceptance.achieved'")?;
    Ok(format!(
        "{} series entries, all identical to fresh; acceptance.achieved={achieved}",
        series.len()
    ))
}
