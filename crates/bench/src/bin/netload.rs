//! Open-loop network overload harness: offered-load sweeps against the
//! `mpq_net` HTTP front-end, emitting `BENCH_pr7.json` (schema
//! `mpq.bench.net/1`).
//!
//! ```text
//! cargo run --release -p mpq_bench --bin netload                 # full run
//! cargo run --release -p mpq_bench --bin netload -- --quick      # CI smoke
//! cargo run --release -p mpq_bench --bin netload -- --out results.json
//! cargo run -p mpq_bench --bin netload -- --validate BENCH_pr7.json
//! MPQ_OBJECTS=20000 MPQ_FUNCTIONS=48 MPQ_CLIENTS=16 ...         # env overrides
//! ```
//!
//! Unlike the closed-loop harnesses (`service`, `scaling`), arrivals
//! here are **rate-driven**: request *i* is scheduled at `i / rate`
//! seconds after the start of the point regardless of how many earlier
//! requests have completed, and latency is measured **from the
//! scheduled arrival instant** — so queueing delay caused by a
//! saturated server shows up in the percentiles instead of silently
//! throttling the generator (no coordinated omission).
//!
//! The run measures three things:
//!
//! 1. **Capacity** — a closed-loop calibration of the primary tenant's
//!    single worker (req/s with zero think time).
//! 2. **Offered-load sweep** — open-loop points at multiples of that
//!    capacity, recording goodput (200s/sec), shed load (429s) and
//!    p50/p99/p999. The acceptance bar: at the overload point (the
//!    first multiplier past capacity) goodput must stay within 10% of
//!    the pre-overload plateau, i.e. admission control sheds excess
//!    load instead of collapsing. Deeper overload multipliers stay in
//!    the series as data — on a single-core host the load generator
//!    itself competes with the worker there, which is generator
//!    interference, not an admission-control verdict.
//! 3. **Isolation** — a second tenant's steady cache-hit probe, sampled
//!    alone and again while the primary tenant is flooded at 2×
//!    capacity; both series land in the artifact.
//!
//! One request is also round-tripped over the wire and compared
//! bit-for-bit against a direct `Engine::evaluate` of the same raw
//! weight rows (`wire_identical`), pinning the codec's f64 fidelity.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mpq_bench::json::Json;
use mpq_bench::{env_flag, env_usize};
use mpq_core::Algorithm;
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_net::{decode_pairs, HttpClient, Server, ServerConfig, TenantConfig, TenantRegistry};
use mpq_ta::FunctionSet;

const SCHEMA: &str = "mpq.bench.net/1";

/// `exclude` salts start far beyond any object id: they make every
/// request's dedupe key unique without actually excluding anything, so
/// all requests do identical work and the worker never short-circuits.
const SALT_BASE: u64 = 1 << 40;

struct Config {
    objects: usize,
    functions_per_request: usize,
    dim: usize,
    multipliers: Vec<f64>,
    point_secs: f64,
    clients: usize,
    queue_capacity: usize,
    calibration_requests: usize,
    out: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_pr7.json");
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
        .unwrap_or_else(|| "BENCH_pr7.json".to_string());

    let multipliers = if quick {
        vec![0.5, 1.0, 2.0]
    } else {
        vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    };
    let queue_capacity = env_usize("MPQ_QUEUE_CAP", 16);
    // The pool must out-number everything the server can hold (queue +
    // in-flight) at the highest offered load, or the generator goes
    // closed-loop before the server's queue ever fills and the sweep
    // measures the client, not admission control.
    let max_mult = multipliers.iter().cloned().fold(1.0f64, f64::max);
    let default_clients = ((max_mult.ceil() as usize) * queue_capacity + 8).min(64);
    let cfg = Config {
        objects: env_usize("MPQ_OBJECTS", if quick { 10_000 } else { 20_000 }),
        functions_per_request: env_usize("MPQ_FUNCTIONS", if quick { 32 } else { 48 }),
        dim: env_usize("MPQ_DIM", 3),
        multipliers,
        point_secs: env_usize("MPQ_POINT_SECS", if quick { 2 } else { 4 }) as f64,
        clients: env_usize("MPQ_CLIENTS", default_clients),
        queue_capacity,
        calibration_requests: if quick { 64 } else { 128 },
        out,
    };
    run(&cfg);
}

/// Deterministic raw (un-normalized) weight rows via xorshift; the wire
/// codec and the direct path normalize the same inputs identically.
fn raw_rows(dim: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| (0..dim).map(|_| 0.05 + next()).collect())
        .collect()
}

fn rows_json(rows: &[Vec<f64>]) -> String {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(|w| Json::Num(*w)).collect()))
            .collect(),
    )
    .render()
}

fn salted_body(rows: &str, salt: u64) -> String {
    format!(r#"{{"functions":{rows},"algorithm":"sb","exclude":[{salt}]}}"#)
}

/// Outcome of one measured load point.
struct PointStats {
    requests: usize,
    ok: usize,
    rejected: usize,
    errors: usize,
    wall_secs: f64,
    /// Sorted 200-response latencies, milliseconds, measured from the
    /// scheduled arrival instant.
    lat_ms: Vec<f64>,
}

impl PointStats {
    fn goodput(&self) -> f64 {
        self.ok as f64 / self.wall_secs.max(f64::MIN_POSITIVE)
    }
    fn achieved(&self) -> f64 {
        self.requests as f64 / self.wall_secs.max(f64::MIN_POSITIVE)
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 * q).ceil() as usize)
        .saturating_sub(1)
        .min(sorted_ms.len() - 1);
    sorted_ms[idx]
}

/// Drive `n` requests at `rate` req/s through a pool of persistent
/// connections. Arrival *i* fires at `i / rate` seconds after a common
/// epoch; a pool thread that falls behind fires late, and the lateness
/// is charged to the request's latency (open-loop accounting).
fn run_open_loop(
    addr: SocketAddr,
    path: &str,
    rows: &Arc<String>,
    n: usize,
    rate: f64,
    clients: usize,
    salt_base: u64,
) -> PointStats {
    let idx = Arc::new(AtomicUsize::new(0));
    // A short runway so every pool thread is connected and parked on
    // the schedule before the first arrival is due.
    let epoch = Instant::now() + Duration::from_millis(150);
    let mut handles = Vec::new();
    for _ in 0..clients {
        let idx = Arc::clone(&idx);
        let rows = Arc::clone(&rows.clone());
        let path = path.to_string();
        handles.push(thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect load client");
            client.set_timeout(Some(Duration::from_secs(30))).ok();
            let (mut ok, mut rejected, mut errors) = (0usize, 0usize, 0usize);
            let mut lat_ms = Vec::new();
            let mut last_done = Duration::ZERO;
            loop {
                let i = idx.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let target = epoch + Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if target > now {
                    thread::sleep(target - now);
                }
                let body = salted_body(&rows, salt_base + i as u64);
                match client.post_json(&path, &body) {
                    Ok(resp) => {
                        let done = Instant::now();
                        last_done = done.saturating_duration_since(epoch);
                        let lat = done.saturating_duration_since(target);
                        match resp.status {
                            200 => {
                                ok += 1;
                                lat_ms.push(lat.as_secs_f64() * 1e3);
                            }
                            429 => rejected += 1,
                            _ => errors += 1,
                        }
                    }
                    Err(_) => {
                        errors += 1;
                        // One reconnect attempt keeps a dropped
                        // keep-alive from wedging the whole thread.
                        match HttpClient::connect(addr) {
                            Ok(c) => client = c,
                            Err(_) => break,
                        }
                    }
                }
            }
            (ok, rejected, errors, lat_ms, last_done)
        }));
    }

    let (mut ok, mut rejected, mut errors) = (0usize, 0usize, 0usize);
    let mut lat_ms = Vec::new();
    let mut wall = Duration::ZERO;
    for h in handles {
        let (o, r, e, l, last) = h.join().expect("load thread");
        ok += o;
        rejected += r;
        errors += e;
        lat_ms.extend(l);
        wall = wall.max(last);
    }
    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PointStats {
        requests: n,
        ok,
        rejected,
        errors,
        wall_secs: wall.as_secs_f64(),
        lat_ms,
    }
}

/// Closed-loop capacity calibration: a few zero-think-time connections
/// so request formatting and socket I/O pipeline with the evaluation —
/// a single connection serializes them and under-reports the worker.
fn closed_loop_capacity(addr: SocketAddr, path: &str, rows: &Arc<String>, n: usize) -> f64 {
    let connections = 4.min(n);
    let per_conn = n / connections;
    // Warm the tree buffer so the measured rate is the steady state.
    let mut warm = HttpClient::connect(addr).expect("connect calibration client");
    for salt in 0..3u64 {
        let resp = warm
            .post_json(path, &salted_body(rows, SALT_BASE + salt))
            .expect("calibration request");
        assert_eq!(resp.status, 200, "calibration: {}", resp.text());
    }
    let start = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let rows = Arc::clone(rows);
            let path = path.to_string();
            thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect calibration client");
                for i in 0..per_conn as u64 {
                    let salt = SALT_BASE + 100 + (c as u64) * per_conn as u64 + i;
                    let resp = client
                        .post_json(&path, &salted_body(&rows, salt))
                        .expect("calibration request");
                    // A shed request still counts toward served work;
                    // with 4 connections vs queue 16 none should shed.
                    assert_eq!(resp.status, 200, "calibration: {}", resp.text());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("calibration thread");
    }
    (connections * per_conn) as f64 / start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE)
}

/// Steadily probe the neighbor tenant (identical body → cache-hit path)
/// for `duration`, returning sorted latencies in ms. Every probe must
/// answer 200: the neighbor's queue is otherwise idle.
fn probe_neighbor(addr: SocketAddr, body: &str, duration: Duration) -> Vec<f64> {
    let mut client = HttpClient::connect(addr).expect("connect probe client");
    let stop_at = Instant::now() + duration;
    let mut lat_ms = Vec::new();
    while Instant::now() < stop_at {
        let t = Instant::now();
        let resp = client
            .post_json("/t/neighbor/match", body)
            .expect("probe request");
        assert_eq!(resp.status, 200, "neighbor probe shed: {}", resp.text());
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        thread::sleep(Duration::from_millis(10));
    }
    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    lat_ms
}

fn run(cfg: &Config) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "netload harness: |O|={} |F|/req={} D={} multipliers={:?} point={}s clients={} \
         queue_cap={} cores={}",
        cfg.objects,
        cfg.functions_per_request,
        cfg.dim,
        cfg.multipliers,
        cfg.point_secs,
        cfg.clients,
        cfg.queue_capacity,
        cores
    );

    // Two tenants behind one listener. The primary runs cache-off with
    // a single worker so capacity is deterministic and every request is
    // a real evaluation; the neighbor keeps its defaults (cache on).
    let primary = WorkloadBuilder::new()
        .objects(cfg.objects)
        .functions(1)
        .dim(cfg.dim)
        .distribution(Distribution::Independent)
        .seed(2009)
        .build();
    let neighbor = WorkloadBuilder::new()
        .objects(2_000)
        .functions(1)
        .dim(cfg.dim)
        .distribution(Distribution::Independent)
        .seed(3007)
        .build();

    let mut registry = TenantRegistry::new();
    registry
        .add_objects(
            "primary",
            &primary.objects,
            TenantConfig {
                workers: 1,
                queue_capacity: cfg.queue_capacity,
                cache_capacity: 0,
                ..TenantConfig::default()
            },
        )
        .expect("primary tenant");
    registry
        .add_objects("neighbor", &neighbor.objects, TenantConfig::default())
        .expect("neighbor tenant");
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let rows = raw_rows(cfg.dim, cfg.functions_per_request, 4242);
    let rows_str = Arc::new(rows_json(&rows));
    let neighbor_rows = raw_rows(cfg.dim, 8, 555);
    let neighbor_body = format!(r#"{{"functions":{}}}"#, rows_json(&neighbor_rows));

    // Wire fidelity: one request over the socket, bit-compared against
    // a direct evaluation of the same raw rows on the hosted engine.
    let wire_identical = {
        let mut client = HttpClient::connect(addr).expect("connect");
        let body = format!(r#"{{"functions":{},"algorithm":"sb"}}"#, rows_str);
        let resp = client.post_json("/t/primary/match", &body).expect("match");
        assert_eq!(resp.status, 200, "wire check: {}", resp.text());
        let wire_pairs = decode_pairs(&resp.body).expect("decode pairs");
        let fs = FunctionSet::try_from_rows(cfg.dim, &rows).expect("rows are valid");
        let engine = server.registry().get("primary").expect("tenant").backend();
        let direct = engine
            .request(&fs)
            .algorithm(Algorithm::Sb)
            .evaluate()
            .expect("direct evaluation");
        wire_pairs.len() == direct.len()
            && wire_pairs.iter().zip(direct.pairs()).all(|(w, d)| {
                w.fid == d.fid && w.oid == d.oid && w.score.to_bits() == d.score.to_bits()
            })
    };
    assert!(
        wire_identical,
        "wire round-trip drifted from direct evaluation"
    );
    println!("  wire round-trip: bit-identical to direct evaluation");

    let capacity = closed_loop_capacity(
        addr,
        "/t/primary/match",
        &rows_str,
        cfg.calibration_requests,
    );
    println!("  closed-loop capacity: {capacity:.1} req/s (1 worker)");

    // Offered-load sweep.
    let mut series = Vec::new();
    let mut pre_overload_goodput: f64 = 0.0;
    let mut overload: Option<(f64, f64, f64, usize)> = None; // (mult, offered, goodput, shed)
    for (p, &mult) in cfg.multipliers.iter().enumerate() {
        let rate = (capacity * mult).max(1.0);
        let n = ((rate * cfg.point_secs).ceil() as usize).clamp(20, 4_000);
        let salt_base = SALT_BASE + ((p as u64 + 1) << 24);
        let stats = run_open_loop(
            addr,
            "/t/primary/match",
            &rows_str,
            n,
            rate,
            cfg.clients,
            salt_base,
        );
        let (p50, p99, p999) = (
            percentile(&stats.lat_ms, 0.50),
            percentile(&stats.lat_ms, 0.99),
            percentile(&stats.lat_ms, 0.999),
        );
        println!(
            "  x{mult:<4} offered {rate:>7.1} req/s  n={n:<5} goodput {:>7.1}/s  \
             429s {:>4}  p50 {p50:>8.2}ms  p99 {p99:>8.2}ms  p999 {p999:>8.2}ms",
            stats.goodput(),
            stats.rejected,
        );
        if mult <= 1.0 {
            pre_overload_goodput = pre_overload_goodput.max(stats.goodput());
        } else if overload.is_none() {
            // The acceptance point: just past saturation. Deeper points
            // remain in the series but on small hosts they increasingly
            // measure generator/server CPU contention.
            overload = Some((mult, rate, stats.goodput(), stats.rejected));
        }
        series.push(Json::obj([
            ("multiplier", Json::Num(mult)),
            ("offered_rps", Json::Num(rate)),
            ("requests", Json::Num(stats.requests as f64)),
            ("wall_secs", Json::Num(stats.wall_secs)),
            ("achieved_rps", Json::Num(stats.achieved())),
            ("goodput_rps", Json::Num(stats.goodput())),
            ("ok", Json::Num(stats.ok as f64)),
            ("rejected", Json::Num(stats.rejected as f64)),
            ("errors", Json::Num(stats.errors as f64)),
            ("latency_p50_ms", Json::Num(p50)),
            ("latency_p99_ms", Json::Num(p99)),
            ("latency_p999_ms", Json::Num(p999)),
        ]));
    }

    let (overload_mult, overload_offered, overload_goodput, overload_shed) =
        overload.expect("multipliers include an overload point (> 1.0)");
    let retained = overload_goodput / pre_overload_goodput.max(f64::MIN_POSITIVE);
    let within = retained >= 0.9;
    println!(
        "  overload x{overload_mult}: goodput {overload_goodput:.1}/s vs plateau \
         {pre_overload_goodput:.1}/s — retained {:.1}% ({})",
        retained * 100.0,
        if within { "OK" } else { "COLLAPSED" }
    );

    // Isolation: the neighbor's cache-hit probe, alone and then while
    // the primary tenant is flooded at 2× capacity.
    let probe_duration = Duration::from_secs_f64(cfg.point_secs.max(1.0));
    // Warm the neighbor's cache so both series ride the same path.
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        let resp = client
            .post_json("/t/neighbor/match", &neighbor_body)
            .expect("warm");
        assert_eq!(resp.status, 200, "neighbor warm-up: {}", resp.text());
    }
    let alone = probe_neighbor(addr, &neighbor_body, probe_duration);
    let flood_rate = capacity * 2.0;
    let flood_n = ((flood_rate * probe_duration.as_secs_f64()).ceil() as usize).clamp(20, 4_000);
    let flood = {
        let rows_str = Arc::clone(&rows_str);
        let clients = cfg.clients;
        thread::spawn(move || {
            run_open_loop(
                addr,
                "/t/primary/match",
                &rows_str,
                flood_n,
                flood_rate,
                clients,
                SALT_BASE + (1 << 40),
            )
        })
    };
    let contended = probe_neighbor(addr, &neighbor_body, probe_duration);
    let flood_stats = flood.join().expect("flood thread");
    let (alone_p50, alone_p99) = (percentile(&alone, 0.50), percentile(&alone, 0.99));
    let (cont_p50, cont_p99) = (percentile(&contended, 0.50), percentile(&contended, 0.99));
    println!(
        "  isolation: neighbor p99 {alone_p99:.2}ms alone → {cont_p99:.2}ms under a 2x \
         flood of primary ({} shed)",
        flood_stats.rejected
    );

    server.shutdown();

    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("host", Json::obj([("cores", Json::Num(cores as f64))])),
        (
            "workload",
            Json::obj([
                ("style", Json::Str("open-loop".into())),
                ("distribution", Json::Str("independent".into())),
                ("objects", Json::Num(cfg.objects as f64)),
                (
                    "functions_per_request",
                    Json::Num(cfg.functions_per_request as f64),
                ),
                ("dim", Json::Num(cfg.dim as f64)),
                ("algorithm", Json::Str("sb".into())),
                ("queue_capacity", Json::Num(cfg.queue_capacity as f64)),
                ("clients", Json::Num(cfg.clients as f64)),
                ("point_secs", Json::Num(cfg.point_secs)),
                ("tenants", Json::Num(2.0)),
            ]),
        ),
        ("wire_identical", Json::Bool(wire_identical)),
        (
            "capacity",
            Json::obj([
                ("closed_loop_rps", Json::Num(capacity)),
                ("requests", Json::Num(cfg.calibration_requests as f64)),
            ]),
        ),
        ("series", Json::Arr(series)),
        (
            "overload",
            Json::obj([
                ("multiplier", Json::Num(overload_mult)),
                ("offered_rps", Json::Num(overload_offered)),
                ("goodput_rps", Json::Num(overload_goodput)),
                ("rejected", Json::Num(overload_shed as f64)),
                ("plateau_goodput_rps", Json::Num(pre_overload_goodput)),
                ("retained_frac", Json::Num(retained)),
                ("goodput_within_10pct", Json::Bool(within)),
            ]),
        ),
        (
            "isolation",
            Json::obj([
                ("probe_interval_ms", Json::Num(10.0)),
                ("alone_probes", Json::Num(alone.len() as f64)),
                ("alone_p50_ms", Json::Num(alone_p50)),
                ("alone_p99_ms", Json::Num(alone_p99)),
                ("contended_probes", Json::Num(contended.len() as f64)),
                ("contended_p50_ms", Json::Num(cont_p50)),
                ("contended_p99_ms", Json::Num(cont_p99)),
                ("flood_multiplier", Json::Num(2.0)),
                ("flood_rejected", Json::Num(flood_stats.rejected as f64)),
                ("all_ok", Json::Bool(true)), // probe asserts every 200
            ]),
        ),
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

/// Validate a `BENCH_pr7.json` artifact: schema tag, series shape
/// (ordered percentiles, request accounting), the overload acceptance
/// bar, wire fidelity, and the isolation section. Returns a summary.
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
        "functions_per_request",
        "dim",
        "queue_capacity",
        "clients",
        "point_secs",
        "tenants",
    ] {
        workload
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric 'workload.{key}'"))?;
    }
    if doc.get("wire_identical").and_then(Json::as_bool) != Some(true) {
        return Err("'wire_identical' is not true".to_string());
    }
    let capacity = doc
        .get("capacity")
        .and_then(|c| c.get("closed_loop_rps"))
        .and_then(Json::as_f64)
        .ok_or("missing 'capacity.closed_loop_rps'")?;
    if capacity <= 0.0 {
        return Err("non-positive capacity".to_string());
    }

    let series = doc
        .get("series")
        .and_then(Json::as_arr)
        .ok_or("missing 'series' array")?;
    if series.len() < 2 {
        return Err("series needs at least a pre-overload and an overload point".to_string());
    }
    let mut saw_overload = false;
    for (i, entry) in series.iter().enumerate() {
        let num = |key: &str| {
            entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("series[{i}]: missing numeric '{key}'"))
        };
        let mult = num("multiplier")?;
        saw_overload |= mult > 1.0;
        for key in ["offered_rps", "wall_secs", "goodput_rps", "achieved_rps"] {
            if num(key)? <= 0.0 {
                return Err(format!("series[{i}]: non-positive '{key}'"));
            }
        }
        let (requests, ok) = (num("requests")?, num("ok")?);
        let (rejected, errors) = (num("rejected")?, num("errors")?);
        if ok + rejected + errors != requests {
            return Err(format!(
                "series[{i}]: ok {ok} + rejected {rejected} + errors {errors} != requests \
                 {requests}"
            ));
        }
        if ok < 1.0 {
            return Err(format!("series[{i}]: no successful requests"));
        }
        let (p50, p99, p999) = (
            num("latency_p50_ms")?,
            num("latency_p99_ms")?,
            num("latency_p999_ms")?,
        );
        if p50 > p99 || p99 > p999 {
            return Err(format!(
                "series[{i}]: percentiles out of order ({p50} / {p99} / {p999})"
            ));
        }
    }
    if !saw_overload {
        return Err("no series point beyond 1.0x capacity".to_string());
    }

    let overload = doc.get("overload").ok_or("missing 'overload'")?;
    let retained = overload
        .get("retained_frac")
        .and_then(Json::as_f64)
        .ok_or("missing 'overload.retained_frac'")?;
    if overload.get("goodput_within_10pct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "overload goodput collapsed: retained {:.1}% of the pre-overload plateau",
            retained * 100.0
        ));
    }
    if retained < 0.9 {
        return Err(format!(
            "'goodput_within_10pct' is true but retained_frac {retained} < 0.9"
        ));
    }
    // An overload point that never shed anything did not overload the
    // server — the generator saturated first and the sweep is invalid.
    let shed = overload
        .get("rejected")
        .and_then(Json::as_f64)
        .ok_or("missing 'overload.rejected'")?;
    if shed < 1.0 {
        return Err("overload point shed no load (429s == 0)".to_string());
    }

    let isolation = doc.get("isolation").ok_or("missing 'isolation'")?;
    for key in [
        "alone_probes",
        "alone_p50_ms",
        "alone_p99_ms",
        "contended_probes",
        "contended_p50_ms",
        "contended_p99_ms",
    ] {
        isolation
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric 'isolation.{key}'"))?;
    }
    if isolation.get("all_ok").and_then(Json::as_bool) != Some(true) {
        return Err("'isolation.all_ok' is not true".to_string());
    }

    Ok(format!(
        "{} load points, overload retained {:.1}% of plateau goodput",
        series.len(),
        retained * 100.0
    ))
}
