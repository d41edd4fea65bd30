//! Service latency/throughput harness: requests/sec and p50/p99
//! submit→resolve latency of the [`mpq_core::EngineService`] submission queue
//! worker count × algorithm, against the sequential request loop.
//!
//! Extends the perf-trajectory series started by `BENCH_pr3.json` (the
//! scaling harness): it emits a machine-readable `BENCH_pr4.json`
//! (schema `mpq.bench.service/1`) that CI validates and archives
//! **alongside** — not instead of — the PR 3 artifact.
//!
//! ```text
//! cargo run --release -p mpq_bench --bin service                 # full run
//! cargo run --release -p mpq_bench --bin service -- --quick      # CI smoke
//! cargo run --release -p mpq_bench --bin service -- --out results.json
//! cargo run -p mpq_bench --bin service -- --validate BENCH_pr4.json
//! MPQ_OBJECTS=50000 MPQ_REQUESTS=64 MPQ_WORKERS=1,2,4,8 ...     # env overrides
//! ```
//!
//! The workload is the same fig2 style as the scaling harness — one
//! shared engine, a stream of independent `MatchRequest`s — but instead
//! of a pre-collected `evaluate_batch` call, every request is
//! **submitted** through a `ServiceClient` and waited on via its
//! `Ticket`, the way a network front-end would drive the engine. Every
//! served cell is checked **pair-for-pair, bit-for-bit** against the
//! sequential evaluation of the same requests; a mismatch aborts the
//! run. Latency percentiles come from the service's own rolling
//! [`mpq_core::ServiceMetrics`] window (sized to cover the whole run).

use std::sync::Arc;
use std::time::Instant;

use mpq_bench::json::Json;
use mpq_bench::{env_flag, env_usize, identical_matchings};
use mpq_core::{Algorithm, Engine, Matching, ServiceConfig};
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_ta::FunctionSet;

const SCHEMA: &str = "mpq.bench.service/1";

struct Config {
    objects: usize,
    requests: usize,
    functions_per_request: usize,
    dim: usize,
    workers: Vec<usize>,
    algorithms: Vec<Algorithm>,
    queue_capacity: usize,
    out: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_pr4.json");
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
        .unwrap_or_else(|| "BENCH_pr4.json".to_string());

    let cfg = Config {
        objects: env_usize("MPQ_OBJECTS", if quick { 4_000 } else { 30_000 }),
        requests: env_usize("MPQ_REQUESTS", if quick { 12 } else { 48 }),
        functions_per_request: env_usize("MPQ_FUNCTIONS", if quick { 20 } else { 50 }),
        dim: env_usize("MPQ_DIM", 3),
        workers: parse_workers(&std::env::var("MPQ_WORKERS").unwrap_or_default(), quick),
        algorithms: vec![Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain],
        queue_capacity: env_usize("MPQ_QUEUE_CAP", 256),
        out,
    };
    run(&cfg);
}

fn parse_workers(spec: &str, quick: bool) -> Vec<usize> {
    let parsed: Vec<usize> = spec
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&t| t >= 1)
        .collect();
    if !parsed.is_empty() {
        return parsed;
    }
    if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

fn run(cfg: &Config) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let max_workers = cfg.workers.iter().copied().max().unwrap_or(1);
    println!(
        "service harness: |O|={} requests={} |F|/req={} D={} workers={:?} queue_cap={} cores={}",
        cfg.objects,
        cfg.requests,
        cfg.functions_per_request,
        cfg.dim,
        cfg.workers,
        cfg.queue_capacity,
        cores
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
            .buffer_shards(max_workers)
            .build()
            .expect("workload objects are valid"),
    );
    let build_secs = build_start.elapsed().as_secs_f64();

    let function_sets: Vec<FunctionSet> = (0..cfg.requests)
        .map(|i| {
            WorkloadBuilder::new()
                .objects(1)
                .functions(cfg.functions_per_request)
                .dim(cfg.dim)
                .seed(40_000 + i as u64)
                .build()
                .functions
        })
        .collect();

    let mut series: Vec<Json> = Vec::new();

    for &algo in &cfg.algorithms {
        // sequential baseline (the pre-service serving loop)
        engine.tree().clear_buffer();
        let seq_start = Instant::now();
        let sequential: Vec<Matching> = function_sets
            .iter()
            .map(|fs| {
                engine
                    .request(fs)
                    .algorithm(algo)
                    .evaluate()
                    .expect("valid request")
            })
            .collect();
        let seq_wall = seq_start.elapsed().as_secs_f64();
        let seq_rps = cfg.requests as f64 / seq_wall.max(f64::MIN_POSITIVE);
        println!(
            "  {:<12} sequential: {:>8.2} req/s ({:.3}s)",
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
            0.0,
            0.0,
            true,
        ));

        for &workers in &cfg.workers {
            engine.tree().clear_buffer();
            let service = engine.clone().serve(
                ServiceConfig::default()
                    .workers(workers)
                    .queue_capacity(cfg.queue_capacity.max(cfg.requests))
                    .latency_window(cfg.requests.max(1)),
            );
            let client = service.client();
            let wall_start = Instant::now();
            let tickets: Vec<_> = function_sets
                .iter()
                .map(|fs| {
                    client
                        .submit(client.backend().request(fs).algorithm(algo))
                        .expect("queue sized to the run")
                })
                .collect();
            let served: Vec<Matching> = tickets
                .into_iter()
                .map(|t| t.wait().expect("valid request"))
                .collect();
            let wall = wall_start.elapsed().as_secs_f64();
            let metrics = service.metrics();
            service.shutdown();

            let identical = served
                .iter()
                .zip(&sequential)
                .all(|(a, b)| identical_matchings(a, b));
            assert!(
                identical,
                "{algo}: served matchings diverged from sequential — this is a bug"
            );
            assert_eq!(metrics.completed, cfg.requests as u64);

            let rps = cfg.requests as f64 / wall.max(f64::MIN_POSITIVE);
            let speedup = if seq_rps > 0.0 { rps / seq_rps } else { 0.0 };
            let p50_ms = metrics.p50_latency.as_secs_f64() * 1e3;
            let p99_ms = metrics.p99_latency.as_secs_f64() * 1e3;
            println!(
                "  {:<12} w={:<2}      : {:>8.2} req/s  speedup {:>5.2}x  \
                 p50 {:>8.3}ms  p99 {:>8.3}ms  identical={}",
                algo.name(),
                workers,
                rps,
                speedup,
                p50_ms,
                p99_ms,
                identical
            );
            series.push(cell(
                algo, "service", workers, cfg, wall, rps, speedup, p50_ms, p99_ms, identical,
            ));
        }
    }

    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("host", Json::obj([("cores", Json::Num(cores as f64))])),
        (
            "workload",
            Json::obj([
                ("style", Json::Str("fig2".into())),
                ("distribution", Json::Str("independent".into())),
                ("objects", Json::Num(cfg.objects as f64)),
                ("requests", Json::Num(cfg.requests as f64)),
                (
                    "functions_per_request",
                    Json::Num(cfg.functions_per_request as f64),
                ),
                ("dim", Json::Num(cfg.dim as f64)),
                ("queue_capacity", Json::Num(cfg.queue_capacity as f64)),
                ("build_secs", Json::Num(build_secs)),
                (
                    "buffer_shards",
                    Json::Num(engine.tree().buffer_shards() as f64),
                ),
            ]),
        ),
        ("series", Json::Arr(series)),
    ]);

    std::fs::write(&cfg.out, doc.render() + "\n").expect("write benchmark artifact");
    println!("wrote {}", cfg.out);
    match validate_file(&cfg.out) {
        Ok(summary) => println!("self-validation: OK ({summary})"),
        Err(e) => {
            eprintln!("self-validation FAILED: {e}");
            std::process::exit(1);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn cell(
    algo: Algorithm,
    mode: &str,
    workers: usize,
    cfg: &Config,
    wall: f64,
    rps: f64,
    speedup: f64,
    p50_ms: f64,
    p99_ms: f64,
    identical: bool,
) -> Json {
    Json::obj([
        ("algorithm", Json::Str(algo.name().into())),
        ("mode", Json::Str(mode.into())),
        ("workers", Json::Num(workers as f64)),
        ("requests", Json::Num(cfg.requests as f64)),
        ("wall_secs", Json::Num(wall)),
        ("requests_per_sec", Json::Num(rps)),
        ("speedup_vs_sequential", Json::Num(speedup)),
        ("latency_p50_ms", Json::Num(p50_ms)),
        ("latency_p99_ms", Json::Num(p99_ms)),
        ("identical_to_sequential", Json::Bool(identical)),
    ])
}

/// Validate a `BENCH_pr4.json` artifact: parse, check the schema tag and
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
    for key in [
        "objects",
        "requests",
        "functions_per_request",
        "dim",
        "queue_capacity",
    ] {
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
        let mode = entry
            .get("mode")
            .and_then(Json::as_str)
            .ok_or(format!("series[{i}]: missing 'mode'"))?;
        if mode != "sequential" && mode != "service" {
            return Err(format!("series[{i}]: bad mode '{mode}'"));
        }
        for key in [
            "workers",
            "requests",
            "wall_secs",
            "requests_per_sec",
            "speedup_vs_sequential",
            "latency_p50_ms",
            "latency_p99_ms",
        ] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("series[{i}]: missing numeric '{key}'"))?;
            if v < 0.0 {
                return Err(format!("series[{i}]: negative '{key}'"));
            }
        }
        // the rolling window covers the whole run, so p50 ≤ p99 must hold
        let p50 = entry.get("latency_p50_ms").and_then(Json::as_f64).unwrap();
        let p99 = entry.get("latency_p99_ms").and_then(Json::as_f64).unwrap();
        if p50 > p99 {
            return Err(format!("series[{i}]: p50 {p50} > p99 {p99}"));
        }
        if entry
            .get("identical_to_sequential")
            .and_then(Json::as_bool)
            .ok_or(format!("series[{i}]: missing 'identical_to_sequential'"))?
        {
            identical += 1;
        }
    }
    if identical != series.len() {
        return Err(format!(
            "{} of {} series entries were not identical to sequential",
            series.len() - identical,
            series.len()
        ));
    }
    Ok(format!(
        "{} series entries, all identical to sequential",
        series.len()
    ))
}
