//! Warm-restart harness for the disk-backed storage engine: how fast
//! does a persisted engine come back, and what survives the restart?
//!
//! Extends the perf-trajectory series (`BENCH_pr3.json` scaling,
//! `BENCH_pr4.json` service latency, `BENCH_pr5.json` caching) with a
//! machine-readable `BENCH_pr6.json` (schema `mpq.bench.persist/1`)
//! that CI validates and archives **alongside** the earlier artifacts.
//!
//! ```text
//! cargo run --release -p mpq_bench --bin persist                 # full run
//! cargo run --release -p mpq_bench --bin persist -- --quick      # CI smoke
//! cargo run --release -p mpq_bench --bin persist -- --out results.json
//! cargo run -p mpq_bench --bin persist -- --validate BENCH_pr6.json
//! MPQ_OBJECTS=50000 MPQ_MUTATIONS=5000 ...                       # env overrides
//! ```
//!
//! Three measurements:
//!
//! 1. **Open paths** — cold bulk build into a fresh data directory,
//!    versus [`mpq_core::Engine::open`] with a WAL tail to replay,
//!    versus open after [`mpq_core::Engine::checkpoint`] (replays
//!    nothing). All three engines must serve **bit-identical** matchings
//!    for every algorithm (SB, BF, Chain).
//! 2. **Mutation throughput** — a deterministic insert/update/remove mix
//!    applied through the WAL (append + fsync per mutation).
//! 3. **Cache survival across an epoch bump** — fill the service's
//!    result cache with distinct requests, apply one provably-irrelevant
//!    mutation (a dominated insert), resubmit the same stream, and
//!    report how many entries revalidated instead of re-evaluating
//!    ([`mpq_core::Engine::evaluation_count`] delta — the honest
//!    number).

use std::sync::Arc;
use std::time::Instant;

use mpq_bench::json::Json;
use mpq_bench::{env_flag, env_usize, identical_matchings};
use mpq_core::{Algorithm, Engine, Matching, ServiceConfig};
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_rtree::PointSet;
use mpq_ta::FunctionSet;

const SCHEMA: &str = "mpq.bench.persist/1";
const TARGET_SURVIVAL: f64 = 0.9;

struct Config {
    objects: usize,
    mutations: usize,
    functions_per_request: usize,
    pool: usize,
    dim: usize,
    out: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_pr6.json");
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
        .unwrap_or_else(|| "BENCH_pr6.json".to_string());

    let cfg = Config {
        objects: env_usize("MPQ_OBJECTS", if quick { 4_000 } else { 20_000 }),
        mutations: env_usize("MPQ_MUTATIONS", if quick { 300 } else { 3_000 }),
        functions_per_request: env_usize("MPQ_FUNCTIONS", if quick { 20 } else { 40 }),
        pool: env_usize("MPQ_POOL", if quick { 16 } else { 32 }),
        dim: env_usize("MPQ_DIM", 3),
        out,
    };
    run(&cfg);
}

/// The matchings every open path must reproduce bit-for-bit.
fn matchings_of(engine: &Engine, fs: &FunctionSet) -> Vec<Matching> {
    [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain]
        .into_iter()
        .map(|algo| {
            engine
                .request(fs)
                .algorithm(algo)
                .evaluate()
                .expect("valid request")
        })
        .collect()
}

fn run(cfg: &Config) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "persist harness: |O|={} mutations={} |F|/req={} pool={} D={} cores={}",
        cfg.objects, cfg.mutations, cfg.functions_per_request, cfg.pool, cfg.dim, cores
    );

    let dir = std::env::temp_dir().join(format!("mpq_bench_persist_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One point stream feeds both the initial inventory and the insert
    // half of the mutation mix, so the run is fully deterministic.
    let w = WorkloadBuilder::new()
        .objects(cfg.objects + cfg.mutations)
        .functions(cfg.functions_per_request)
        .dim(cfg.dim)
        .distribution(Distribution::Independent)
        .seed(2009)
        .build();
    let mut base = PointSet::with_capacity(cfg.dim, cfg.objects);
    let mut extra: Vec<Vec<f64>> = Vec::with_capacity(cfg.mutations);
    for (i, p) in w.objects.iter() {
        if i < cfg.objects {
            base.push(p);
        } else {
            extra.push(p.to_vec());
        }
    }
    let functions = w.functions;

    // 1a. Cold build: bulk-load straight into the page file.
    let t = Instant::now();
    let engine = Engine::builder()
        .objects(&base)
        .data_dir(&dir)
        .build()
        .expect("workload objects are valid");
    let cold_build_secs = t.elapsed().as_secs_f64();

    // 2. Mutation mix through the WAL: one insert/update/remove rotation
    // per step, every step an fsync'd append.
    let mut inserted: Vec<u64> = Vec::new();
    let mut next_extra = 0usize;
    let t = Instant::now();
    for i in 0..cfg.mutations {
        match i % 3 {
            0 => {
                let oid = engine
                    .insert_object(&extra[next_extra])
                    .expect("valid point");
                next_extra += 1;
                inserted.push(oid);
            }
            1 => {
                let oid = (i % cfg.objects) as u64;
                engine
                    .update_object(oid, &extra[next_extra])
                    .expect("base object exists");
                next_extra += 1;
            }
            _ => {
                // Remove the oldest surviving insert (never the base
                // inventory, so update targets stay valid).
                if let Some(oid) = inserted.pop() {
                    engine.remove_object(oid).expect("inserted object exists");
                }
            }
        }
    }
    let mutation_secs = t.elapsed().as_secs_f64();
    let mutations_per_sec = cfg.mutations as f64 / mutation_secs.max(f64::MIN_POSITIVE);
    let wal_bytes = engine.wal_bytes();
    let n_after = engine.n_objects();
    let reference = matchings_of(&engine, &functions);
    drop(engine);

    // 1b. Reopen with the whole mutation tail still in the WAL.
    let t = Instant::now();
    let engine = Engine::open(&dir).expect("reopen replaying the WAL");
    let replay_open_secs = t.elapsed().as_secs_f64();
    let replay_identical = matchings_of(&engine, &functions)
        .iter()
        .zip(&reference)
        .all(|(a, b)| identical_matchings(a, b));

    // 1c. Checkpoint, then reopen with nothing to replay.
    engine.checkpoint().expect("checkpoint succeeds");
    assert_eq!(engine.wal_bytes(), 0, "checkpoint truncates the WAL");
    drop(engine);
    let t = Instant::now();
    let engine = Arc::new(Engine::open(&dir).expect("reopen after checkpoint"));
    let checkpointed_open_secs = t.elapsed().as_secs_f64();
    let checkpoint_identical = matchings_of(&engine, &functions)
        .iter()
        .zip(&reference)
        .all(|(a, b)| identical_matchings(a, b));
    let identical = replay_identical && checkpoint_identical;
    println!(
        "  open paths: cold build {cold_build_secs:.3}s | WAL replay {replay_open_secs:.3}s \
         | checkpointed {checkpointed_open_secs:.3}s  (identical={identical})"
    );
    println!(
        "  mutations: {} in {mutation_secs:.3}s = {mutations_per_sec:.0}/s, wal {wal_bytes} bytes",
        cfg.mutations
    );

    // 3. Cache survival across an epoch bump, on the reopened engine.
    let pool: Vec<FunctionSet> = (0..cfg.pool)
        .map(|i| {
            WorkloadBuilder::new()
                .objects(1)
                .functions(cfg.functions_per_request)
                .dim(cfg.dim)
                .seed(60_000 + i as u64)
                .build()
                .functions
        })
        .collect();
    let service = engine.clone().serve(
        ServiceConfig::default()
            .workers(1)
            .queue_capacity(cfg.pool.max(1))
            .cache_capacity(cfg.pool.max(16)),
    );
    let client = service.client();
    let submit_all = |pool: &[FunctionSet]| {
        let tickets: Vec<_> = pool
            .iter()
            .map(|fs| client.submit(client.backend().request(fs)).expect("queued"))
            .collect();
        for t in tickets {
            t.wait().expect("valid request");
        }
    };
    submit_all(&pool);
    let evals_before = engine.evaluation_count();
    let hits_before = service.metrics().cache.hits;

    // A dominated insert: scores ~0 under every non-negative weight
    // vector, so no cached assignment can be displaced — every entry
    // should revalidate rather than re-evaluate.
    engine
        .insert_object(&vec![0.001; cfg.dim])
        .expect("valid point");
    submit_all(&pool);
    let metrics = service.metrics();
    service.shutdown();
    let re_evaluated = engine.evaluation_count() - evals_before;
    let hits_after_bump = metrics.cache.hits - hits_before;
    let survival_rate = 1.0 - re_evaluated as f64 / cfg.pool as f64;
    println!(
        "  cache survival: {}/{} entries survived the epoch bump \
         (hits {hits_after_bump}, revalidations {}, re-evaluated {re_evaluated})",
        cfg.pool - re_evaluated as usize,
        cfg.pool,
        metrics.cache.revalidations,
    );

    let achieved = identical && survival_rate >= TARGET_SURVIVAL;
    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("host", Json::obj([("cores", Json::Num(cores as f64))])),
        (
            "workload",
            Json::obj([
                ("style", Json::Str("warm-restart".into())),
                ("distribution", Json::Str("independent".into())),
                ("objects", Json::Num(cfg.objects as f64)),
                ("mutations", Json::Num(cfg.mutations as f64)),
                (
                    "functions_per_request",
                    Json::Num(cfg.functions_per_request as f64),
                ),
                ("pool", Json::Num(cfg.pool as f64)),
                ("dim", Json::Num(cfg.dim as f64)),
            ]),
        ),
        (
            "opens",
            Json::obj([
                ("cold_build_secs", Json::Num(cold_build_secs)),
                ("replay_open_secs", Json::Num(replay_open_secs)),
                ("checkpointed_open_secs", Json::Num(checkpointed_open_secs)),
                ("wal_bytes_replayed", Json::Num(wal_bytes as f64)),
                ("objects_after_mutations", Json::Num(n_after as f64)),
                ("identical_across_opens", Json::Bool(identical)),
            ]),
        ),
        (
            "mutations",
            Json::obj([
                ("count", Json::Num(cfg.mutations as f64)),
                ("wall_secs", Json::Num(mutation_secs)),
                ("mutations_per_sec", Json::Num(mutations_per_sec)),
                ("wal_bytes_after", Json::Num(wal_bytes as f64)),
            ]),
        ),
        (
            "cache_survival",
            Json::obj([
                ("entries", Json::Num(cfg.pool as f64)),
                ("hits_after_epoch_bump", Json::Num(hits_after_bump as f64)),
                (
                    "revalidations",
                    Json::Num(metrics.cache.revalidations as f64),
                ),
                ("re_evaluated", Json::Num(re_evaluated as f64)),
                ("survival_rate", Json::Num(survival_rate)),
            ]),
        ),
        (
            "acceptance",
            Json::obj([
                (
                    "criterion",
                    Json::Str(format!(
                        "all open paths serve bit-identical matchings for SB/BF/Chain \
                         and >= {TARGET_SURVIVAL} of cache entries survive an \
                         irrelevant-mutation epoch bump"
                    )),
                ),
                ("target_survival_rate", Json::Num(TARGET_SURVIVAL)),
                ("measured_survival_rate", Json::Num(survival_rate)),
                ("achieved", Json::Bool(achieved)),
            ]),
        ),
    ]);

    std::fs::write(&cfg.out, doc.render() + "\n").expect("write benchmark artifact");
    println!(
        "wrote {} (survival {survival_rate:.2}, target {TARGET_SURVIVAL}, achieved={achieved})",
        cfg.out
    );
    let _ = std::fs::remove_dir_all(&dir);
    match validate_file(&cfg.out) {
        Ok(summary) => println!("self-validation: OK ({summary})"),
        Err(e) => {
            eprintln!("self-validation FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// Validate a `BENCH_pr6.json` artifact: parse, check the schema tag and
/// the shape of every section. Returns a one-line summary.
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
        "mutations",
        "functions_per_request",
        "pool",
        "dim",
    ] {
        workload
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric 'workload.{key}'"))?;
    }
    let opens = doc.get("opens").ok_or("missing 'opens'")?;
    for key in [
        "cold_build_secs",
        "replay_open_secs",
        "checkpointed_open_secs",
        "wal_bytes_replayed",
        "objects_after_mutations",
    ] {
        let v = opens
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric 'opens.{key}'"))?;
        if v < 0.0 {
            return Err(format!("negative 'opens.{key}'"));
        }
    }
    if !opens
        .get("identical_across_opens")
        .and_then(Json::as_bool)
        .ok_or("missing boolean 'opens.identical_across_opens'")?
    {
        return Err("open paths served divergent matchings".to_string());
    }
    let mutations = doc.get("mutations").ok_or("missing 'mutations'")?;
    for key in ["count", "wall_secs", "mutations_per_sec", "wal_bytes_after"] {
        let v = mutations
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric 'mutations.{key}'"))?;
        if v < 0.0 {
            return Err(format!("negative 'mutations.{key}'"));
        }
    }
    let survival = doc
        .get("cache_survival")
        .ok_or("missing 'cache_survival'")?;
    for key in [
        "entries",
        "hits_after_epoch_bump",
        "revalidations",
        "re_evaluated",
        "survival_rate",
    ] {
        survival
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric 'cache_survival.{key}'"))?;
    }
    let rate = survival
        .get("survival_rate")
        .and_then(Json::as_f64)
        .unwrap();
    if !(0.0..=1.0).contains(&rate) {
        return Err("cache_survival.survival_rate outside [0, 1]".to_string());
    }
    let acceptance = doc.get("acceptance").ok_or("missing 'acceptance'")?;
    acceptance
        .get("target_survival_rate")
        .and_then(Json::as_f64)
        .ok_or("missing 'acceptance.target_survival_rate'")?;
    acceptance
        .get("measured_survival_rate")
        .and_then(Json::as_f64)
        .ok_or("missing 'acceptance.measured_survival_rate'")?;
    let achieved = acceptance
        .get("achieved")
        .and_then(Json::as_bool)
        .ok_or("missing boolean 'acceptance.achieved'")?;
    Ok(format!(
        "opens identical, survival {rate:.2}; acceptance.achieved={achieved}"
    ))
}
