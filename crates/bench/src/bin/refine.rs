//! Refinement-stream harness: the cost of re-evaluating a request
//! after a small delta, cold versus *seeded* from the previous
//! evaluation's captured [`mpq_core::EvalSeed`] (PR 10).
//!
//! Extends the perf-trajectory series (`BENCH_pr3.json` ..
//! `BENCH_pr9.json`) with a machine-readable `BENCH_pr10.json`
//! (schema `mpq.bench.refine/1`) that CI validates and archives
//! **alongside** — not instead of — the earlier artifacts.
//!
//! ```text
//! cargo run --release -p mpq_bench --bin refine                 # full run
//! cargo run --release -p mpq_bench --bin refine -- --quick      # CI smoke
//! cargo run --release -p mpq_bench --bin refine -- --out results.json
//! cargo run -p mpq_bench --bin refine -- --validate BENCH_pr10.json
//! MPQ_OBJECTS=50000 MPQ_CHAIN=12 MPQ_DIST=independent ...       # env overrides
//! ```
//!
//! The workload models a user iterating on one request: an initial
//! evaluation (untimed — both modes pay it) followed by a **chain** of
//! refinement steps, each one small delta away from the last —
//! excluding the previously matched winner ("that one's taken, redo"),
//! or tweaking one function's weights. Each step is evaluated twice:
//! **cold** (`evaluate()`, rebuilding the skyline from the R-tree) and
//! **seeded** (`evaluate_seeded(prev)`, priming the skyline from the
//! previous step's captured state). The chain runs on the unsharded
//! engine (K = 1) and through the sharded scatter-gather merge (K = 4,
//! per-shard seed slices).
//!
//! Every seeded matching is checked **pair-for-pair, bit-for-bit**
//! against its cold twin; a mismatch aborts the run. The acceptance bar
//! (`acceptance.achieved`) is a ≥ 5× wall-clock speedup of the seeded
//! chain over the cold chain in every series, recorded honestly from
//! the measured minimum.

use std::time::Instant;

use mpq_bench::json::Json;
use mpq_bench::{env_flag, env_usize, identical_matchings};
use mpq_core::{Engine, EvalBackend, Scratch, ShardedEngine};
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_rtree::RTree;
use mpq_ta::FunctionSet;

const SCHEMA: &str = "mpq.bench.refine/1";
const TARGET_SPEEDUP: f64 = 5.0;

struct Config {
    objects: usize,
    functions: usize,
    dim: usize,
    chain: usize,
    distribution: Distribution,
    out: String,
}

/// Which request component each refinement step perturbs.
#[derive(Clone, Copy)]
enum DeltaAxis {
    /// Exclude the previous step's best-matched object.
    Exclusions,
    /// Rewrite one function's weight row.
    Weights,
}

impl DeltaAxis {
    fn name(self) -> &'static str {
        match self {
            DeltaAxis::Exclusions => "exclusions",
            DeltaAxis::Weights => "weights",
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_pr10.json");
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
        .unwrap_or_else(|| "BENCH_pr10.json".to_string());

    let cfg = Config {
        objects: env_usize("MPQ_OBJECTS", if quick { 16_000 } else { 60_000 }),
        functions: env_usize("MPQ_FUNCTIONS", 6),
        dim: env_usize("MPQ_DIM", 3),
        chain: env_usize("MPQ_CHAIN", if quick { 6 } else { 12 }),
        distribution: match std::env::var("MPQ_DIST").as_deref() {
            Ok("independent") => Distribution::Independent,
            Ok("correlated") => Distribution::Correlated,
            _ => Distribution::AntiCorrelated,
        },
        out,
    };
    run(&cfg);
}

/// Run one refinement chain; returns the series JSON entry.
fn run_chain(cfg: &Config, shards: usize, axis: DeltaAxis) -> Json {
    let w = WorkloadBuilder::new()
        .objects(cfg.objects)
        .functions(cfg.functions)
        .dim(cfg.dim)
        .distribution(cfg.distribution)
        .seed(2010 + shards as u64)
        .build();
    // The engine under test, unsharded or sharded, behind the one
    // backend trait; `trees` is what a cold start has to clear.
    let (single, sharded);
    let (backend, trees): (&dyn EvalBackend, Vec<&RTree>) = if shards == 1 {
        single = Engine::builder()
            .objects(&w.objects)
            .build()
            .expect("workload objects are valid");
        (&single, vec![single.tree()])
    } else {
        sharded = ShardedEngine::builder()
            .objects(&w.objects)
            .shards(shards)
            .build()
            .expect("workload objects are valid");
        (
            &sharded,
            sharded.shards().iter().map(Engine::tree).collect(),
        )
    };
    let clear_buffers = || trees.iter().for_each(|t| t.clear_buffer());
    let mut scratch = Scratch::new();

    let mut fn_rows: Vec<Vec<f64>> = (0..cfg.functions)
        .map(|i| w.functions.weights(i as u32).to_vec())
        .collect();
    let mut excl: Vec<u64> = Vec::new();
    let mut fs = FunctionSet::from_rows(cfg.dim, &fn_rows);

    // The priming evaluation: both modes start from its captured seed,
    // so it is outside the timed window.
    let (first, seed) = backend
        .request(&fs)
        .evaluate_seeded(&mut scratch, None)
        .expect("valid initial request");
    let mut seed = Some(seed.expect("uncapacitated SB must capture a seed"));
    let mut top_oid = first.pairs().first().map_or(0, |p| p.oid);

    let (mut cold_wall, mut seeded_wall) = (0.0f64, 0.0f64);
    let mut seeds_captured = 0usize;
    for step in 0..cfg.chain {
        match axis {
            DeltaAxis::Exclusions => excl.push(top_oid),
            DeltaAxis::Weights => {
                let i = step % fn_rows.len();
                let row = &mut fn_rows[i];
                row.rotate_right(1);
                row[0] += 0.1 * (step + 1) as f64;
                fs = FunctionSet::from_rows(cfg.dim, &fn_rows);
            }
        }

        let request = || backend.request(&fs).exclude(excl.iter().copied());
        clear_buffers();
        let t = Instant::now();
        let cold = request().evaluate().expect("valid refinement");
        cold_wall += t.elapsed().as_secs_f64();

        clear_buffers();
        let t = Instant::now();
        let (warm, captured) = request()
            .evaluate_seeded(&mut scratch, seed.as_ref())
            .expect("valid refinement");
        seeded_wall += t.elapsed().as_secs_f64();

        assert!(
            identical_matchings(&cold, &warm),
            "shards={shards} axis={} step {step}: seeded matching diverged \
             from cold — this is a bug",
            axis.name()
        );
        let captured = captured.expect("every refinement step re-captures");
        seeds_captured += 1;
        seed = Some(captured);
        top_oid = warm
            .pairs()
            .iter()
            .map(|p| p.oid)
            .find(|o| !excl.contains(o))
            .unwrap_or(top_oid);
    }

    let speedup = cold_wall / seeded_wall.max(f64::MIN_POSITIVE);
    println!(
        "  K={shards} axis={:<10}: cold {:>8.2} ms | seeded {:>8.2} ms  speedup {:>6.2}x  \
         ({} steps, {} seeds captured)",
        axis.name(),
        cold_wall * 1e3,
        seeded_wall * 1e3,
        speedup,
        cfg.chain,
        seeds_captured,
    );
    Json::obj([
        ("shards", Json::Num(shards as f64)),
        ("delta_axis", Json::Str(axis.name().into())),
        ("chain_steps", Json::Num(cfg.chain as f64)),
        ("cold_wall_secs", Json::Num(cold_wall)),
        ("seeded_wall_secs", Json::Num(seeded_wall)),
        (
            "cold_steps_per_sec",
            Json::Num(cfg.chain as f64 / cold_wall.max(f64::MIN_POSITIVE)),
        ),
        (
            "seeded_steps_per_sec",
            Json::Num(cfg.chain as f64 / seeded_wall.max(f64::MIN_POSITIVE)),
        ),
        ("speedup_seeded_vs_cold", Json::Num(speedup)),
        ("seeds_captured", Json::Num(seeds_captured as f64)),
        ("identical_to_cold", Json::Bool(true)),
    ])
}

fn run(cfg: &Config) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "refine harness: |O|={} |F|={} D={} chain={} cores={}",
        cfg.objects, cfg.functions, cfg.dim, cfg.chain, cores
    );

    let mut series = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for (shards, axis) in [
        (1, DeltaAxis::Exclusions),
        (1, DeltaAxis::Weights),
        (4, DeltaAxis::Exclusions),
    ] {
        let entry = run_chain(cfg, shards, axis);
        min_speedup = min_speedup.min(
            entry
                .get("speedup_seeded_vs_cold")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
        series.push(entry);
    }

    let achieved = min_speedup.is_finite() && min_speedup >= TARGET_SPEEDUP;
    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("host", Json::obj([("cores", Json::Num(cores as f64))])),
        (
            "workload",
            Json::obj([
                ("style", Json::Str("refinement-stream".into())),
                ("distribution", Json::Str(cfg.distribution.name().into())),
                ("objects", Json::Num(cfg.objects as f64)),
                ("functions", Json::Num(cfg.functions as f64)),
                ("dim", Json::Num(cfg.dim as f64)),
                ("chain_steps", Json::Num(cfg.chain as f64)),
            ]),
        ),
        ("series", Json::Arr(series)),
        (
            "acceptance",
            Json::obj([
                (
                    "criterion",
                    Json::Str(format!(
                        ">= {TARGET_SPEEDUP}x wall-clock speedup of seeded refinement \
                         over cold, every series, matchings bit-identical"
                    )),
                ),
                ("target_speedup", Json::Num(TARGET_SPEEDUP)),
                (
                    "measured_min_speedup",
                    Json::Num(if min_speedup.is_finite() {
                        min_speedup
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
        "wrote {} (min speedup {:.2}x, target {TARGET_SPEEDUP}x, achieved={achieved})",
        cfg.out,
        if min_speedup.is_finite() {
            min_speedup
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

/// Validate a `BENCH_pr10.json` artifact: parse, check the schema tag
/// and the shape every series entry must have. Returns a one-line
/// summary.
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
    for key in ["objects", "functions", "dim", "chain_steps"] {
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
    let mut sharded = 0usize;
    let mut identical = 0usize;
    for (i, entry) in series.iter().enumerate() {
        entry
            .get("delta_axis")
            .and_then(Json::as_str)
            .ok_or(format!("series[{i}]: missing 'delta_axis'"))?;
        for key in [
            "shards",
            "chain_steps",
            "cold_wall_secs",
            "seeded_wall_secs",
            "cold_steps_per_sec",
            "seeded_steps_per_sec",
            "speedup_seeded_vs_cold",
            "seeds_captured",
        ] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("series[{i}]: missing numeric '{key}'"))?;
            if v < 0.0 {
                return Err(format!("series[{i}]: negative '{key}'"));
            }
        }
        let k = entry.get("shards").and_then(Json::as_f64).unwrap();
        if k > 1.0 {
            sharded += 1;
        }
        let steps = entry.get("chain_steps").and_then(Json::as_f64).unwrap();
        let captured = entry.get("seeds_captured").and_then(Json::as_f64).unwrap();
        if captured < steps {
            return Err(format!(
                "series[{i}]: only {captured} of {steps} steps captured a seed"
            ));
        }
        if entry
            .get("identical_to_cold")
            .and_then(Json::as_bool)
            .ok_or(format!("series[{i}]: missing 'identical_to_cold'"))?
        {
            identical += 1;
        }
    }
    if identical != series.len() {
        return Err(format!(
            "{} of {} series entries were not identical to cold evaluation",
            series.len() - identical,
            series.len()
        ));
    }
    if sharded == 0 {
        return Err("no series exercises the sharded engine".to_string());
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
        "{} series entries ({sharded} sharded), all identical to cold; \
         acceptance.achieved={achieved}",
        series.len()
    ))
}
