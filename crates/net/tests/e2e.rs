//! End-to-end: real sockets against a two-tenant server.
//!
//! The acceptance bar of the networking PR lives here:
//!
//! * N concurrent HTTP clients get matchings **bit-identical** to
//!   direct `Engine::evaluate` on the same engine,
//! * a full queue answers `429` with a `Retry-After` header,
//! * a saturated tenant does not disturb an idle tenant (isolation),
//! * deadlines map to `504`, unknown tenants to `404` (as does a
//!   `/match` or `/mutate` that names no tenant in its path), an `algorithm`
//!   other than SB to `400`, and a client that hangs up gets its
//!   queued request cancelled,
//! * `capacities` is a per-object vector: the capacitated matching
//!   crosses the wire bit-identically, from one tree and from four,
//! * reads that overlap a stream of writes each get a whole matching.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mpq_core::capacity::reference_capacity_matching;
use mpq_core::json::Json;
use mpq_core::{Engine, IndexConfig};
use mpq_datagen::WorkloadBuilder;
use mpq_net::{
    decode_pairs, HttpClient, ParserLimits, Server, ServerConfig, TenantConfig, TenantRegistry,
};
use mpq_rtree::{FaultInjector, FaultKind, FaultOp, PointSet};
use mpq_ta::FunctionSet;

/// Render a FunctionSet as the wire `functions` field. JSON numbers
/// round-trip f64 exactly (shortest-form rendering), so the server
/// rebuilds a bit-identical FunctionSet from this.
fn functions_json(fs: &FunctionSet) -> String {
    let rows: Vec<Json> = (0..fs.len() as u32)
        .map(|fid| Json::Arr(fs.weights(fid).iter().map(|w| Json::Num(*w)).collect()))
        .collect();
    Json::Arr(rows).render()
}

fn match_body(fs: &FunctionSet) -> String {
    format!(r#"{{"functions":{}}}"#, functions_json(fs))
}

/// Deterministic raw (un-normalized) weight rows via xorshift — the
/// common input both the wire path and the direct path normalize.
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

/// Poll a tenant's `/metrics` until `pred` holds (or panic after 10s).
fn wait_for_metrics(
    addr: std::net::SocketAddr,
    tenant: &str,
    what: &str,
    pred: impl Fn(&Json) -> bool,
) {
    let mut client = HttpClient::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client.get(&format!("/t/{tenant}/metrics")).unwrap();
        assert_eq!(resp.status, 200);
        let metrics = Json::parse(&resp.text()).unwrap();
        if pred(&metrics) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last metrics: {}",
            metrics.render()
        );
        thread::sleep(Duration::from_millis(10));
    }
}

fn metric(m: &Json, key: &str) -> f64 {
    m.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
}

#[test]
fn concurrent_clients_get_bit_identical_matchings() {
    let alpha = WorkloadBuilder::new()
        .objects(800)
        .functions(1)
        .dim(2)
        .seed(11)
        .build();
    let beta = WorkloadBuilder::new()
        .objects(600)
        .functions(1)
        .dim(3)
        .seed(22)
        .build();

    let mut registry = TenantRegistry::new();
    registry
        .add_objects("alpha", &alpha.objects, TenantConfig::default())
        .unwrap();
    registry
        .add_objects("beta", &beta.objects, TenantConfig::default())
        .unwrap();
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Direct ground truth per (tenant, seed): same engines the server
    // hosts, evaluated without the wire in between. Both paths start
    // from the same *raw* weight rows — the server normalizes them
    // exactly like `FunctionSet::try_from_rows` does locally, and JSON
    // numbers round-trip f64 bits, so the results must be bit-equal.
    let server = Arc::new(server);
    let n_clients = 8;
    let requests_per_client = 3;
    let mut handles = Vec::new();
    for c in 0..n_clients {
        let server = Arc::clone(&server);
        handles.push(thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            for r in 0..requests_per_client {
                let (tenant, dim) = if (c + r) % 2 == 0 {
                    ("alpha", 2)
                } else {
                    ("beta", 3)
                };
                let rows = raw_rows(dim, 6, 1000 + (c * 31 + r) as u64);
                let body = format!(r#"{{"functions":{}}}"#, rows_json(&rows));
                let resp = client
                    .post_json(&format!("/t/{tenant}/match"), &body)
                    .unwrap();
                assert_eq!(resp.status, 200, "body: {}", resp.text());
                let wire_pairs = decode_pairs(&resp.body).unwrap();

                let fs = FunctionSet::try_from_rows(dim, &rows).unwrap();
                let engine = server.registry().get(tenant).unwrap().engine();
                let direct = engine.request(&fs).evaluate().unwrap();
                assert_eq!(wire_pairs.len(), direct.len());
                for (w, d) in wire_pairs.iter().zip(direct.pairs()) {
                    assert_eq!(w.fid, d.fid);
                    assert_eq!(w.oid, d.oid);
                    assert_eq!(
                        w.score.to_bits(),
                        d.score.to_bits(),
                        "score drifted across the wire"
                    );
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Reads that overlap writes: one connection inserts, updates and
/// removes objects without pause while another asks for matchings. Every
/// read is a whole matching of the inventory at some version — `200`,
/// one pair per function, no object twice — never a torn one.
#[test]
fn reads_overlapping_writes_see_whole_matchings() {
    const OBJECTS: usize = 600;
    const READS: u64 = 2_000;
    let w = WorkloadBuilder::new()
        .objects(OBJECTS)
        .functions(0)
        .dim(2)
        .seed(41)
        .build();
    let mut registry = TenantRegistry::new();
    registry
        .add_objects("t", &w.objects, TenantConfig::default())
        .unwrap();
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let reading = Arc::new(std::sync::atomic::AtomicBool::new(true));

    let writer = {
        let reading = Arc::clone(&reading);
        thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            let mut live: std::collections::VecDeque<u64> = (0..OBJECTS as u64).collect();
            let mut mutations = 0u64;
            while reading.load(std::sync::atomic::Ordering::Relaxed) {
                let p = &raw_rows(2, 1, mutations)[0];
                let point = format!("[{},{}]", p[0] / 1.1, p[1] / 1.1);
                let body = match mutations % 3 {
                    0 => format!(r#"{{"op":"insert","point":{point}}}"#),
                    1 => {
                        let oid = live[mutations as usize % live.len()];
                        format!(r#"{{"op":"update","oid":{oid},"point":{point}}}"#)
                    }
                    _ => {
                        let oid = live.pop_front().unwrap();
                        format!(r#"{{"op":"remove","oid":{oid}}}"#)
                    }
                };
                let resp = client.post_json("/t/t/mutate", &body).unwrap();
                assert_eq!(resp.status, 200, "{body}: {}", resp.text());
                let ack = Json::parse(&resp.text()).unwrap();
                if let Some(oid) = ack.get("oid").and_then(Json::as_f64) {
                    live.push_back(oid as u64);
                }
                mutations += 1;
            }
            mutations
        })
    };

    let mut client = HttpClient::connect(addr).unwrap();
    for i in 0..READS {
        let body = format!(
            r#"{{"functions":{}}}"#,
            rows_json(&raw_rows(2, 4, 7_000 + i))
        );
        let resp = client.post_json("/t/t/match", &body).unwrap();
        assert_eq!(resp.status, 200, "read {i}: {}", resp.text());
        let pairs = decode_pairs(&resp.body).unwrap();
        let mut oids: Vec<u64> = pairs.iter().map(|p| p.oid).collect();
        oids.sort_unstable();
        oids.dedup();
        assert_eq!(
            (pairs.len(), oids.len()),
            (4, 4),
            "read {i}: {}",
            resp.text()
        );
    }
    reading.store(false, std::sync::atomic::Ordering::Relaxed);
    let mutations = writer.join().unwrap();
    assert!(mutations > 0, "no write overlapped the reads");
    server.shutdown();
}

#[test]
fn routing_health_and_metrics_endpoints() {
    let w = WorkloadBuilder::new()
        .objects(200)
        .functions(4)
        .dim(2)
        .seed(5)
        .build();
    let mut registry = TenantRegistry::new();
    registry
        .add_objects("solo", &w.objects, TenantConfig::default())
        .unwrap();
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let resp = client.get("/healthz").unwrap();
    assert_eq!(resp.status, 200);
    let health = Json::parse(&resp.text()).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health
            .get("tenants")
            .and_then(|t| t.get("solo"))
            .and_then(Json::as_str),
        Some("healthy")
    );

    // A tenant is reached by its path; the repeat is a cache hit.
    for _ in 0..2 {
        let resp = client
            .post_json("/t/solo/match", &match_body(&w.functions))
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(decode_pairs(&resp.body).unwrap().len(), 4);
    }

    // Unknown tenant and unknown routes are 404; bad method is 405.
    assert_eq!(
        client.post_json("/t/ghost/match", "{}").unwrap().status,
        404
    );
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(
        client
            .request("DELETE", "/healthz", &[], b"")
            .unwrap()
            .status,
        405
    );

    // Malformed body is a 400 with a reason.
    let resp = client
        .post_json("/t/solo/match", "{\"functions\":[]}")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("must not be empty"));

    // The server runs SB alone: another algorithm is a 400 naming the
    // field, never a silent SB answer.
    let body = format!(
        r#"{{"functions":{},"algorithm":"bf"}}"#,
        functions_json(&w.functions)
    );
    let resp = client.post_json("/t/solo/match", &body).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("'algorithm'"), "{}", resp.text());

    // Aggregate metrics parse and contain the tenant with pinned gauges.
    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.text()).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("mpq.metrics/1"));
    let solo = doc.get("tenants").unwrap().get("solo").unwrap();
    assert!(metric(solo, "completed") >= 2.0);
    assert!(metric(solo, "workers") >= 1.0);

    server.shutdown();
}

/// `POST /match` and `POST /mutate` name no tenant, so they are no
/// route — on a one-tenant server as on a two-tenant one, and whether or
/// not an `X-Mpq-Tenant` header names a hosted tenant — and a mutation
/// sent there changes nothing.
#[test]
fn a_tenant_is_reached_by_its_path_alone() {
    let w = WorkloadBuilder::new()
        .objects(100)
        .functions(2)
        .dim(2)
        .seed(6)
        .build();
    let bodies = [
        ("/match", match_body(&w.functions)),
        (
            "/mutate",
            r#"{"op":"insert","point":[0.5,0.5]}"#.to_string(),
        ),
    ];
    for names in [&["solo"][..], &["alpha", "beta"]] {
        let mut registry = TenantRegistry::new();
        for name in names {
            registry
                .add_objects(name, &w.objects, TenantConfig::default())
                .unwrap();
        }
        let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        for (path, body) in &bodies {
            for header in [None, Some(names[0])] {
                let headers: Vec<(&str, &str)> = header
                    .map(|name| ("X-Mpq-Tenant", name))
                    .into_iter()
                    .collect();
                let resp = client
                    .request("POST", path, &headers, body.as_bytes())
                    .unwrap();
                assert_eq!(
                    (resp.status, resp.text().as_str()),
                    (404, "no such route\n"),
                    "{names:?} {path} {headers:?}"
                );
            }
        }
        for name in names {
            let tenant = server.registry().get(name).unwrap();
            assert_eq!(tenant.engine().n_objects(), 100, "{name}");
            let resp = client
                .post_json(&format!("/t/{name}/match"), &match_body(&w.functions))
                .unwrap();
            assert_eq!(resp.status, 200, "{name}: {}", resp.text());
        }
        server.shutdown();
    }
}

/// The largest bodies the parser admits, nearly all of it one string,
/// are answered in one pass over their bytes, on `/match` and on
/// `/mutate`: each took minutes of a connection thread when every
/// character of a string re-validated the rest of the body.
#[test]
fn four_mebibyte_strings_are_answered_promptly() {
    let w = WorkloadBuilder::new()
        .objects(200)
        .functions(1)
        .dim(2)
        .seed(5)
        .build();
    let mut registry = TenantRegistry::new();
    registry
        .add_objects("t", &w.objects, TenantConfig::default())
        .unwrap();
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();
    let limit = ParserLimits::default().max_body_bytes;
    let fill = |head: &str, tail: &str| {
        let pad = "\u{e9}".repeat((limit - head.len() - tail.len()) / 2);
        format!("{head}{pad}{tail}")
    };
    let start = Instant::now();
    for (path, body, status) in [
        (
            "/t/t/match",
            fill(r#"{"functions":[[0.5,0.5]],"note":""#, r#""}"#),
            200,
        ),
        ("/t/t/match", fill(r#"{"functions":""#, r#""}"#), 400),
        (
            "/t/t/mutate",
            fill(r#"{"op":"insert","point":[0.5,0.5],"note":""#, r#""}"#),
            200,
        ),
        ("/t/t/mutate", fill(r#"{"op":""#, r#""}"#), 400),
    ] {
        assert!(body.len() <= limit);
        let resp = client.post_json(path, &body).unwrap();
        assert_eq!(resp.status, status, "{path}: {}", resp.text());
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "four 4 MiB bodies took {elapsed:?}"
    );
    server.shutdown();
}

/// An engine over `objects` whose page reads all reach an injected
/// store (a one-page buffer), and the injector: a test delays reads to
/// hold a worker for as long as it needs to watch the queue behind it.
fn injected_engine(objects: &PointSet) -> (Arc<Engine>, Arc<FaultInjector>) {
    let injector = FaultInjector::shared();
    let index = IndexConfig {
        page_size: 512,
        buffer_fraction: 0.0,
        min_buffer_pages: 1,
    };
    let engine = Engine::builder()
        .objects(objects)
        .index(index)
        .fault_injector(Arc::clone(&injector))
        .build()
        .unwrap();
    (Arc::new(engine), injector)
}

/// A "slow" tenant: one worker, cache off, and every page read delayed,
/// so an evaluation holds the worker while queueing behind it is
/// observed deterministically (we poll `/metrics` rather than sleep).
fn slow_tenant_registry(queue_cap: usize) -> (TenantRegistry, FunctionSet) {
    let w = WorkloadBuilder::new()
        .objects(4_000)
        .functions(48)
        .dim(3)
        .seed(77)
        .build();
    let (engine, injector) = injected_engine(&w.objects);
    injector.fail_from(
        FaultOp::PageRead,
        0,
        FaultKind::Delay(Duration::from_millis(10)),
    );
    let mut registry = TenantRegistry::new();
    registry
        .add_engine(
            "slow",
            engine,
            TenantConfig {
                workers: 1,
                queue_capacity: queue_cap,
                cache_capacity: 0, // identical requests must not short-circuit
                ..TenantConfig::default()
            },
        )
        .unwrap();
    (registry, w.functions)
}

fn slow_body(fs: &FunctionSet, salt: u64) -> String {
    // Distinct `exclude` per request keeps in-flight dedupe from
    // collapsing the flood into one evaluation.
    format!(
        r#"{{"functions":{},"exclude":[{salt}]}}"#,
        functions_json(fs)
    )
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    let (registry, fs) = slow_tenant_registry(2);
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Occupy the single worker...
    let mut occupier = HttpClient::connect(addr).unwrap();
    occupier
        .fire_and_forget("POST", "/t/slow/match", slow_body(&fs, 1).as_bytes())
        .unwrap();
    wait_for_metrics(addr, "slow", "worker busy", |m| {
        metric(m, "in_flight") >= 1.0
    });

    // ...fill the queue...
    let mut fillers = Vec::new();
    for salt in 2..4u64 {
        let mut filler = HttpClient::connect(addr).unwrap();
        filler
            .fire_and_forget("POST", "/t/slow/match", slow_body(&fs, salt).as_bytes())
            .unwrap();
        fillers.push(filler);
    }
    wait_for_metrics(addr, "slow", "queue full", |m| {
        metric(m, "queue_depth") >= 2.0
    });

    // ...and the next submission is shed, not parked.
    let mut client = HttpClient::connect(addr).unwrap();
    let t = Instant::now();
    let resp = client
        .post_json("/t/slow/match", &slow_body(&fs, 99))
        .unwrap();
    assert_eq!(resp.status, 429, "body: {}", resp.text());
    let retry_after: u64 = resp
        .header("retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!((1..=30).contains(&retry_after));
    // Shedding is immediate — it must not wait on the busy worker.
    assert!(t.elapsed() < Duration::from_secs(2));

    server.shutdown();
}

#[test]
fn queued_deadline_maps_to_504() {
    let (registry, fs) = slow_tenant_registry(8);
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut occupier = HttpClient::connect(addr).unwrap();
    occupier
        .fire_and_forget("POST", "/t/slow/match", slow_body(&fs, 1).as_bytes())
        .unwrap();
    wait_for_metrics(addr, "slow", "worker busy", |m| {
        metric(m, "in_flight") >= 1.0
    });

    // With the worker occupied, a 1ms queueing deadline cannot be met.
    let mut client = HttpClient::connect(addr).unwrap();
    let body = format!(
        r#"{{"functions":{},"exclude":[50],"deadline_ms":1}}"#,
        functions_json(&fs)
    );
    let resp = client.post_json("/t/slow/match", &body).unwrap();
    assert_eq!(resp.status, 504, "body: {}", resp.text());

    server.shutdown();
}

#[test]
fn disconnected_client_gets_cancelled() {
    let (registry, fs) = slow_tenant_registry(8);
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut occupier = HttpClient::connect(addr).unwrap();
    occupier
        .fire_and_forget("POST", "/t/slow/match", slow_body(&fs, 1).as_bytes())
        .unwrap();
    wait_for_metrics(addr, "slow", "worker busy", |m| {
        metric(m, "in_flight") >= 1.0
    });

    // Queue a request, then vanish without reading the response.
    {
        let mut quitter = HttpClient::connect(addr).unwrap();
        quitter
            .fire_and_forget("POST", "/t/slow/match", slow_body(&fs, 2).as_bytes())
            .unwrap();
        wait_for_metrics(addr, "slow", "request queued", |m| {
            metric(m, "queue_depth") >= 1.0
        });
    } // drop = TCP close

    wait_for_metrics(addr, "slow", "cancellation observed", |m| {
        metric(m, "cancelled") >= 1.0
    });

    server.shutdown();
}

/// Saturating tenant `noisy` must not disturb tenant `quiet`: quiet's
/// requests keep answering `200` promptly while noisy's queue sheds
/// load. (Quiet's p99 asserts a generous absolute bound so the test is
/// robust on a single-core CI runner, where *some* CPU interference is
/// physical reality rather than an isolation bug.)
#[test]
fn saturating_one_tenant_leaves_the_other_responsive() {
    let noisy = WorkloadBuilder::new()
        .objects(4000)
        .functions(48)
        .dim(3)
        .seed(77)
        .build();
    let quiet = WorkloadBuilder::new()
        .objects(400)
        .functions(4)
        .dim(2)
        .seed(88)
        .build();

    // Every page read of noisy's engine takes 2 ms: an evaluation far
    // outlasts a loopback round trip, so four flooders keep its one
    // worker and two queue slots full.
    let (noisy_engine, injector) = injected_engine(&noisy.objects);
    injector.fail_from(
        FaultOp::PageRead,
        0,
        FaultKind::Delay(Duration::from_millis(2)),
    );
    let mut registry = TenantRegistry::new();
    registry
        .add_engine(
            "noisy",
            noisy_engine,
            TenantConfig {
                workers: 1,
                queue_capacity: 2,
                cache_capacity: 0,
                ..TenantConfig::default()
            },
        )
        .unwrap();
    // Quiet keeps its cache: its repeated probe is the cache-hit fast
    // path, exactly how a healthy tenant rides out a noisy neighbour.
    registry
        .add_objects("quiet", &quiet.objects, TenantConfig::default())
        .unwrap();
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Warm quiet's cache once.
    let mut probe = HttpClient::connect(addr).unwrap();
    let quiet_body = match_body(&quiet.functions);
    assert_eq!(
        probe
            .post_json("/t/quiet/match", &quiet_body)
            .unwrap()
            .status,
        200
    );

    // Flood noisy from 4 threads for a fixed wall-clock budget.
    let stop_at = Instant::now() + Duration::from_secs(2);
    let mut floods = Vec::new();
    let noisy_fs = Arc::new(noisy.functions);
    for t in 0..4u64 {
        let noisy_fs = Arc::clone(&noisy_fs);
        floods.push(thread::spawn(move || {
            let mut shed = 0u64;
            let mut salt = t * 1_000_000;
            let mut client = HttpClient::connect(addr).unwrap();
            while Instant::now() < stop_at {
                salt += 1;
                match client.post_json("/t/noisy/match", &slow_body(&noisy_fs, salt)) {
                    Ok(resp) if resp.status == 429 => shed += 1,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            shed
        }));
    }

    // Meanwhile quiet serves its (cached) request steadily.
    let mut quiet_latencies = Vec::new();
    while Instant::now() < stop_at {
        let t = Instant::now();
        let resp = probe.post_json("/t/quiet/match", &quiet_body).unwrap();
        assert_eq!(resp.status, 200, "quiet tenant must never be shed");
        quiet_latencies.push(t.elapsed());
        thread::sleep(Duration::from_millis(20));
    }
    let shed: u64 = floods.into_iter().map(|h| h.join().unwrap()).sum();

    assert!(
        shed > 0,
        "the noisy tenant was never saturated — flood too weak"
    );
    quiet_latencies.sort();
    let p99 = quiet_latencies[(quiet_latencies.len() * 99 / 100).min(quiet_latencies.len() - 1)];
    assert!(
        p99 < Duration::from_secs(2),
        "quiet tenant p99 {p99:?} — isolation failed"
    );

    server.shutdown();
}

#[test]
fn oversized_and_malformed_requests_close_cleanly() {
    let w = WorkloadBuilder::new()
        .objects(100)
        .functions(2)
        .dim(2)
        .seed(9)
        .build();
    let mut registry = TenantRegistry::new();
    registry
        .add_objects("t", &w.objects, TenantConfig::default())
        .unwrap();
    let config = ServerConfig {
        limits: ParserLimits {
            max_head_bytes: 512,
            max_body_bytes: 2048,
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    // Oversized declared body → 413.
    let mut client = HttpClient::connect(addr).unwrap();
    let resp = client
        .request("POST", "/t/t/match", &[], &vec![b'x'; 4096])
        .unwrap();
    assert_eq!(resp.status, 413);

    // Oversized headers → 431.
    let mut client = HttpClient::connect(addr).unwrap();
    let resp = client
        .request("GET", "/healthz", &[("X-Big", &"y".repeat(1024))], b"")
        .unwrap();
    assert_eq!(resp.status, 431);

    // Garbage request line → 400, connection closed after the answer.
    let mut client = HttpClient::connect(addr).unwrap();
    let resp = client.request("WHAT EVEN", "/x", &[], b"").unwrap();
    assert_eq!(resp.status, 400);

    // The server survives all of that and still answers.
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    server.shutdown();
}

/// A refinement over the wire — the same functions with one more
/// excluded object — must be served *seeded* from the skyline the first
/// request left in the tenant's cache (visible in `/metrics`) and stay
/// bit-identical to a direct cold evaluation of the refined request.
#[test]
fn near_miss_refinement_over_the_wire_is_seeded_and_identical() {
    let w = WorkloadBuilder::new()
        .objects(400)
        .functions(6)
        .dim(2)
        .seed(77)
        .build();
    let mut registry = TenantRegistry::new();
    registry
        .add_objects("solo", &w.objects, TenantConfig::default())
        .unwrap();
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // The unrefined request runs cold and leaves the inventory's seed.
    let resp = client
        .post_json("/t/solo/match", &match_body(&w.functions))
        .unwrap();
    assert_eq!(resp.status, 200);

    // One flipped exclusion: an exact miss, resumed from that seed.
    let body = format!(
        r#"{{"functions":{},"exclude":[9]}}"#,
        functions_json(&w.functions)
    );
    let resp = client.post_json("/t/solo/match", &body).unwrap();
    assert_eq!(resp.status, 200);
    let wire_pairs = decode_pairs(&resp.body).unwrap();

    let engine = server.registry().get("solo").unwrap().engine();
    let direct = engine
        .request(&w.functions)
        .exclude([9u64])
        .evaluate()
        .unwrap();
    assert_eq!(wire_pairs.len(), direct.len());
    for (a, b) in wire_pairs.iter().zip(direct.pairs()) {
        assert_eq!(a.fid, b.fid);
        assert_eq!(a.oid, b.oid);
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "seeded wire result drifted from cold"
        );
    }

    let resp = client.get("/t/solo/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.text()).unwrap();
    let cache = doc.get("cache").expect("metrics carry the cache block");
    assert_eq!(metric(cache, "seeded_hits"), 1.0);
    assert_eq!(metric(cache, "misses"), 2.0);

    server.shutdown();
}

/// `capacities` is indexed by object id and spans the tenant's id
/// bound: the capacitated matching over HTTP is the reference's, cold
/// and from the cache; any other length is a `400` that says which
/// length was expected.
#[test]
fn capacitated_requests_cross_the_wire_bit_identically() {
    let w = WorkloadBuilder::new()
        .objects(400)
        .functions(1)
        .dim(3)
        .seed(33)
        .build();
    let mut registry = TenantRegistry::new();
    let config = TenantConfig::default();
    registry.add_objects("one", &w.objects, config).unwrap();
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Object `i` seats `i mod 3` users; 30 users for ~400 seats.
    let rows = raw_rows(3, 30, 4242);
    let functions = FunctionSet::try_from_rows(3, &rows).unwrap();
    let caps: Vec<u32> = (0..400).map(|i| i % 3).collect();
    let expect = reference_capacity_matching(&w.objects, &functions, &caps);
    let body = |caps: &[u32]| {
        let caps = Json::Arr(caps.iter().map(|&c| Json::Num(c.into())).collect());
        let (rows, caps) = (rows_json(&rows), caps.render());
        format!(r#"{{"functions":{rows},"capacities":{caps}}}"#)
    };
    for served in ["cold", "from the cache"] {
        let resp = client.post_json("/t/one/match", &body(&caps)).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.text());
        let mut pairs = decode_pairs(&resp.body).unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, expect, "{served}");
    }
    let resp = client.get("/t/one/metrics").unwrap();
    let doc = Json::parse(&resp.text()).unwrap();
    let cache = doc.get("cache").expect("metrics carry the cache block");
    assert_eq!(metric(cache, "hits"), 1.0, "the repeat hit");

    let resp = client
        .post_json("/t/one/match", &body(&caps[..30]))
        .unwrap();
    assert_eq!(resp.status, 400, "one capacity per *function*");
    let why = resp.text();
    assert!(why.contains("30 entries") && why.contains("400"), "{why}");
    server.shutdown();
}
