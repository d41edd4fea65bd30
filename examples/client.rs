//! The network loop end to end, in one process: start a two-tenant
//! [`mpq::net::Server`] on a loopback port, then talk to it over a real
//! socket with the bundled [`mpq::net::HttpClient`] — match requests,
//! load shedding with `Retry-After`, and the `/metrics` endpoint.
//!
//! In production the two halves are separate processes: the server side
//! of this file is `mpq serve --listen 0.0.0.0:8080 --tenant ...`, and
//! the client side is any HTTP client (`curl` included).
//!
//! ```text
//! cargo run --release --example client
//! ```

use std::thread;

use mpq::core::json::Json;
use mpq::net::decode_pairs;
use mpq::prelude::*;

fn main() {
    // --- server side -----------------------------------------------------
    // Two inventories behind one listener. Each tenant owns its own
    // service (queue, workers, cache): "hotels" is a normal tenant,
    // "kiosk" is deliberately tiny — one worker, a two-slot queue, no
    // cache — so we can watch it shed load later.
    let hotels = WorkloadBuilder::new()
        .objects(2_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::Independent)
        .seed(2009)
        .build();
    let kiosk = WorkloadBuilder::new()
        .objects(4_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::Independent)
        .seed(777)
        .build();

    let mut registry = TenantRegistry::new();
    registry
        .add_objects("hotels", &hotels.objects, TenantConfig::default())
        .expect("hotels tenant");
    registry
        .add_objects(
            "kiosk",
            &kiosk.objects,
            TenantConfig {
                workers: 1,
                queue_capacity: 2,
                cache_capacity: 0,
                ..TenantConfig::default()
            },
        )
        .expect("kiosk tenant");
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    println!("serving 2 tenants on http://{addr}");

    // --- client side -----------------------------------------------------
    // A matching over the wire: POST raw weight rows, get pairs back.
    // JSON numbers render in shortest-roundtrip form, so the scores are
    // bit-identical to a direct `engine.request(..).evaluate()`.
    let mut client = HttpClient::connect(addr).expect("connect");
    let body = r#"{"functions":[[0.7,0.2,0.1],[0.1,0.3,0.6],[0.4,0.3,0.3]]}"#;
    let resp = client.post_json("/t/hotels/match", body).expect("match");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let pairs = decode_pairs(&resp.body).expect("pairs");
    println!("\nPOST /t/hotels/match -> {} pairs", pairs.len());
    for p in &pairs {
        println!(
            "  user {} gets hotel {} (score {:.4})",
            p.fid, p.oid, p.score
        );
    }

    // Flood the kiosk tenant from a few threads. Its two-slot queue
    // fills and the excess answers `429 Too Many Requests` with a
    // `Retry-After` estimate — load shedding, not a stalled socket.
    // The hotels tenant is completely unaffected (own queue, own
    // workers): that is the multi-tenant isolation contract.
    let mut floods = Vec::new();
    for t in 0..4u64 {
        floods.push(thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect flood");
            let (mut served, mut shed) = (0u32, 0u32);
            let mut retry_after = None;
            for i in 0..25u64 {
                // Distinct `exclude` values defeat in-flight dedupe so
                // every request really occupies a queue slot.
                let body = format!(
                    r#"{{"functions":[[0.5,0.3,0.2]],"exclude":[{}]}}"#,
                    1_000_000 + t * 1_000 + i
                );
                let resp = client.post_json("/t/kiosk/match", &body).expect("flood");
                match resp.status {
                    200 => served += 1,
                    429 => {
                        shed += 1;
                        retry_after = resp.header("retry-after").map(str::to_string);
                    }
                    s => panic!("unexpected status {s}: {}", resp.text()),
                }
            }
            (served, shed, retry_after)
        }));
    }
    let (mut served, mut shed, mut retry_after) = (0, 0, None);
    for f in floods {
        let (ok, dropped, ra) = f.join().expect("flood thread");
        served += ok;
        shed += dropped;
        retry_after = ra.or(retry_after);
    }
    println!("\nflooded /t/kiosk/match: {served} served, {shed} shed with 429");
    if let Some(ra) = retry_after {
        println!("  last 429 said Retry-After: {ra}s");
    }

    // Metrics for every tenant, one JSON document.
    let resp = client.get("/metrics").expect("metrics");
    let doc = Json::parse(&resp.text()).expect("metrics json");
    println!(
        "\nGET /metrics (schema {:?}):",
        doc.get("schema").unwrap().as_str().unwrap()
    );
    for name in ["hotels", "kiosk"] {
        let t = doc.get("tenants").unwrap().get(name).unwrap();
        let n = |k: &str| t.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  {name:<7} completed={:<4} rejected={:<4} p50={:.2}ms",
            n("completed"),
            n("rejected"),
            n("latency_p50_ms"),
        );
    }

    server.shutdown(); // drains connections; Drop would do the same
    println!("\nserver drained and stopped.");
}
