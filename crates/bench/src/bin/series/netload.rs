//! `netload` — open-loop offered-load sweeps against the `mpq_net`
//! HTTP front-end (`BENCH_pr7.json`, schema `mpq.bench.net/1`).
//!
//! Unlike the closed-loop ledger and `scaling`, arrivals here are
//! **rate-driven**: request *i* is scheduled at `i / rate`
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
use mpq_core::Algorithm;
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_net::{decode_pairs, HttpClient, Server, ServerConfig, TenantConfig, TenantRegistry};
use mpq_ta::FunctionSet;

use crate::artifact::{Must, Rule, Series};

/// `exclude` salts start far beyond any object id: they make every
/// request's dedupe key unique without actually excluding anything, so
/// all requests do identical work and the worker never short-circuits.
const SALT_BASE: u64 = 1 << 40;
const DIM: usize = 3;
const QUEUE_CAPACITY: usize = 16;

struct Size {
    objects: usize,
    functions_per_request: usize,
    multipliers: &'static [f64],
    point_secs: f64,
    calibration_requests: usize,
}

const QUICK: Size = Size {
    objects: 10_000,
    functions_per_request: 32,
    multipliers: &[0.5, 1.0, 2.0],
    point_secs: 2.0,
    calibration_requests: 64,
};

const FULL: Size = Size {
    objects: 20_000,
    functions_per_request: 48,
    multipliers: &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
    point_secs: 4.0,
    calibration_requests: 128,
};

pub const SERIES: Series = Series {
    name: "netload",
    schema: "mpq.bench.net/1",
    default_out: "BENCH_pr7.json",
    run,
    rules: &[
        Rule("workload.objects", Must::Num),
        Rule("workload.functions_per_request", Must::Num),
        Rule("workload.dim", Must::Num),
        Rule("workload.queue_capacity", Must::Num),
        Rule("workload.clients", Must::Num),
        Rule("workload.point_secs", Must::Num),
        Rule("workload.tenants", Must::Num),
        Rule("wire_identical", Must::True),
        Rule("capacity.closed_loop_rps", Must::Above(0.0)),
        // at least a pre-overload and an overload point
        Rule(
            "series",
            Must::Rows(
                2,
                &[
                    Rule("multiplier", Must::Num),
                    Rule("offered_rps", Must::Above(0.0)),
                    Rule("wall_secs", Must::Above(0.0)),
                    Rule("goodput_rps", Must::Above(0.0)),
                    Rule("achieved_rps", Must::Above(0.0)),
                    Rule("requests", Must::SumOf(&["ok", "rejected", "errors"])),
                    Rule("ok", Must::Min(1.0)),
                    Rule("latency_p50_ms", Must::NoMoreThan("latency_p99_ms")),
                    Rule("latency_p99_ms", Must::NoMoreThan("latency_p999_ms")),
                ],
            ),
        ),
        Rule("series", Must::SomeRowAbove("multiplier", 1.0)),
        // The acceptance bar: goodput just past saturation stays within
        // 10% of the pre-overload plateau — and that point really shed
        // load, or the generator saturated first and the sweep is void.
        Rule("overload.goodput_within_10pct", Must::True),
        Rule("overload.retained_frac", Must::Min(0.9)),
        Rule("overload.rejected", Must::Min(1.0)),
        Rule("isolation.alone_probes", Must::Num),
        Rule("isolation.alone_p50_ms", Must::Num),
        Rule("isolation.alone_p99_ms", Must::Num),
        Rule("isolation.contended_probes", Must::Num),
        Rule("isolation.contended_p50_ms", Must::Num),
        Rule("isolation.contended_p99_ms", Must::Num),
        Rule("isolation.all_ok", Must::True),
    ],
    summary: &["series", "overload.retained_frac"],
};

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

fn run(quick: bool, cores: usize) -> Vec<(&'static str, Json)> {
    let cfg = if quick { &QUICK } else { &FULL };
    // The pool must out-number everything the server can hold (queue +
    // in-flight) at the highest offered load, or the generator goes
    // closed-loop before the server's queue ever fills and the sweep
    // measures the client, not admission control.
    let max_mult = cfg.multipliers.iter().cloned().fold(1.0f64, f64::max);
    let clients = ((max_mult.ceil() as usize) * QUEUE_CAPACITY + 8).min(64);
    println!(
        "netload: |O|={} |F|/req={} D={DIM} multipliers={:?} point={}s clients={clients} \
         queue_cap={QUEUE_CAPACITY} cores={cores}",
        cfg.objects, cfg.functions_per_request, cfg.multipliers, cfg.point_secs,
    );

    // Two tenants behind one listener. The primary runs cache-off with
    // a single worker so capacity is deterministic and every request is
    // a real evaluation; the neighbor keeps its defaults (cache on).
    let primary = WorkloadBuilder::new()
        .objects(cfg.objects)
        .functions(1)
        .dim(DIM)
        .distribution(Distribution::Independent)
        .seed(2009)
        .build();
    let neighbor = WorkloadBuilder::new()
        .objects(2_000)
        .functions(1)
        .dim(DIM)
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
                queue_capacity: QUEUE_CAPACITY,
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

    let rows = raw_rows(DIM, cfg.functions_per_request, 4242);
    let rows_str = Arc::new(rows_json(&rows));
    let neighbor_rows = raw_rows(DIM, 8, 555);
    let neighbor_body = format!(r#"{{"functions":{}}}"#, rows_json(&neighbor_rows));

    // Wire fidelity: one request over the socket, bit-compared against
    // a direct evaluation of the same raw rows on the hosted engine.
    let wire_identical = {
        let mut client = HttpClient::connect(addr).expect("connect");
        let body = format!(r#"{{"functions":{},"algorithm":"sb"}}"#, rows_str);
        let resp = client.post_json("/t/primary/match", &body).expect("match");
        assert_eq!(resp.status, 200, "wire check: {}", resp.text());
        let wire_pairs = decode_pairs(&resp.body).expect("decode pairs");
        let fs = FunctionSet::try_from_rows(DIM, &rows).expect("rows are valid");
        let engine = server.registry().get("primary").expect("tenant").engine();
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
            clients,
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

    let workload = Json::obj([
        ("style", Json::Str("open-loop".into())),
        ("distribution", Json::Str("independent".into())),
        ("objects", Json::Num(cfg.objects as f64)),
        (
            "functions_per_request",
            Json::Num(cfg.functions_per_request as f64),
        ),
        ("dim", Json::Num(DIM as f64)),
        ("algorithm", Json::Str("sb".into())),
        ("queue_capacity", Json::Num(QUEUE_CAPACITY as f64)),
        ("clients", Json::Num(clients as f64)),
        ("point_secs", Json::Num(cfg.point_secs)),
        ("tenants", Json::Num(2.0)),
    ]);
    vec![
        ("workload", workload),
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
    ]
}
