//! Network chaos: misbehaving peers and failing storage against a live
//! server.
//!
//! * a slow-loris peer (bytes trickling in forever) is answered `408`
//!   and reaped, so it cannot pin a connection slot,
//! * disconnects mid-body and mid-response neither wedge the
//!   connection slot nor the server,
//! * a tenant whose storage fails degrades gracefully end-to-end:
//!   mutations get `503` + `Retry-After`, reads keep serving, `/healthz`
//!   and `/metrics` report the engine's state, and the tenant's repair
//!   loop restores `healthy` without operator action,
//! * a clean storage failure fails only its own mutation.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mpq_core::json::Json;
use mpq_core::Engine;
use mpq_datagen::WorkloadBuilder;
use mpq_net::{HttpClient, Server, ServerConfig, TenantConfig, TenantRegistry};
use mpq_rtree::{FaultInjector, FaultKind, FaultOp};
use mpq_ta::FunctionSet;

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mpq_netchaos_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn functions_json(fs: &FunctionSet) -> String {
    let rows: Vec<Json> = (0..fs.len() as u32)
        .map(|fid| Json::Arr(fs.weights(fid).iter().map(|w| Json::Num(*w)).collect()))
        .collect();
    Json::Arr(rows).render()
}

fn match_body(fs: &FunctionSet) -> String {
    format!(r#"{{"functions":{}}}"#, functions_json(fs))
}

/// A server whose only tenant serves `w`; short poll interval so reap
/// and disconnect detection are fast enough to assert on.
fn chaos_config() -> ServerConfig {
    ServerConfig {
        request_read_timeout: Duration::from_millis(200),
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    }
}

#[test]
fn slow_loris_is_answered_408_and_reaped() {
    let w = WorkloadBuilder::new()
        .objects(40)
        .functions(3)
        .dim(2)
        .seed(1)
        .build();
    let mut registry = TenantRegistry::new();
    registry
        .add_objects("t", &w.objects, TenantConfig::default())
        .unwrap();
    let config = ServerConfig {
        max_connections: 1,
        ..chaos_config()
    };
    let server = Server::bind("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    // The loris takes the only slot and trickles an unfinishable head.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .write_all(b"POST /match HTTP/1.1\r\nHost: x\r\n")
        .unwrap();
    let started = Instant::now();
    let trickler = {
        let mut loris = loris.try_clone().unwrap();
        thread::spawn(move || {
            // One header byte per 50 ms, forever (until the server
            // closes on us). Each byte resets any naive idle clock.
            for b in b"X-Slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
                .iter()
                .cycle()
            {
                if loris.write_all(&[*b]).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(50));
            }
        })
    };

    // While the loris holds the slot, other connections are shed.
    {
        let mut probe = TcpStream::connect(addr).unwrap();
        let mut resp = Vec::new();
        probe.read_to_end(&mut resp).unwrap();
        let resp = String::from_utf8_lossy(&resp).into_owned();
        assert!(
            resp.starts_with("HTTP/1.1 503"),
            "expected shed, got {resp:?}"
        );
    }

    // The loris gets 408 and EOF within the read-timeout bound.
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut resp = Vec::new();
    loris.read_to_end(&mut resp).unwrap();
    let resp = String::from_utf8_lossy(&resp).into_owned();
    assert!(resp.starts_with("HTTP/1.1 408"), "got {resp:?}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "reap took {:?}",
        started.elapsed()
    );
    trickler.join().unwrap();

    // The slot is free again: a real client gets real service.
    let mut client = HttpClient::connect(addr).unwrap();
    let resp = client
        .post_json("/t/t/match", &match_body(&w.functions))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    server.shutdown();
}

#[test]
fn mid_body_disconnect_frees_the_slot() {
    let w = WorkloadBuilder::new()
        .objects(40)
        .functions(3)
        .dim(2)
        .seed(2)
        .build();
    let mut registry = TenantRegistry::new();
    registry
        .add_objects("t", &w.objects, TenantConfig::default())
        .unwrap();
    let config = ServerConfig {
        max_connections: 1,
        ..chaos_config()
    };
    let server = Server::bind("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    // Declare a 100-byte body, send 10 bytes, vanish.
    {
        let mut half = TcpStream::connect(addr).unwrap();
        half.write_all(
            b"POST /match HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"functions",
        )
        .unwrap();
    } // dropped: FIN mid-body

    // The slot must come back without waiting out any keep-alive or
    // request timeout (the server sees EOF, not silence).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut client = match HttpClient::connect(addr) {
            Ok(c) => c,
            Err(_) => {
                assert!(Instant::now() < deadline, "slot never freed");
                thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        match client.post_json("/t/t/match", &match_body(&w.functions)) {
            Ok(resp) if resp.status == 200 => break,
            Ok(resp) => assert_eq!(resp.status, 503, "unexpected {}", resp.text()),
            Err(_) => {} // shed inline before our request: retry
        }
        assert!(Instant::now() < deadline, "slot never freed");
        thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn peer_reset_mid_response_does_not_kill_the_server() {
    let w = WorkloadBuilder::new()
        .objects(60)
        .functions(4)
        .dim(2)
        .seed(3)
        .build();
    let mut registry = TenantRegistry::new();
    registry
        .add_objects("t", &w.objects, TenantConfig::default())
        .unwrap();
    let server = Server::bind("127.0.0.1:0", registry, chaos_config()).unwrap();
    let addr = server.local_addr();

    // Fire requests and hang up before reading the responses — some
    // die queued (cancelled), some die while the response is being
    // written (reset under the server's pen).
    for _ in 0..8 {
        let mut client = HttpClient::connect(addr).unwrap();
        client
            .fire_and_forget("POST", "/t/t/match", match_body(&w.functions).as_bytes())
            .unwrap();
        // drop without reading
    }

    // The server shrugs: a polite client still gets a full answer.
    let mut client = HttpClient::connect(addr).unwrap();
    let resp = client
        .post_json("/t/t/match", &match_body(&w.functions))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    server.shutdown();
}

#[test]
fn storage_failure_degrades_gracefully_end_to_end() {
    let w = WorkloadBuilder::new()
        .objects(80)
        .functions(5)
        .dim(2)
        .seed(4)
        .build();
    let dir = tmp_dir("degraded");
    let inj = FaultInjector::shared();
    let engine = Engine::builder()
        .objects(&w.objects)
        .data_dir(&dir)
        .fault_injector(Arc::clone(&inj))
        .build()
        .unwrap();
    let mut registry = TenantRegistry::new();
    registry
        .add_engine("t", Arc::new(engine), TenantConfig::default())
        .unwrap();
    let server = Server::bind("127.0.0.1:0", registry, chaos_config()).unwrap();
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).unwrap();

    // Healthy: mutations commit and are acked with the new version.
    let resp = client
        .post_json("/t/t/mutate", r#"{"op":"insert","point":[0.5,0.5]}"#)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let ack = Json::parse(&resp.text()).unwrap();
    assert!(ack.get("oid").is_some(), "{}", resp.text());
    let resp = client.get("/healthz").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains(r#""t":"healthy""#), "{}", resp.text());

    // Break the WAL so the next commit fails AND cannot roll back: the
    // engine wedges, the tenant degrades.
    inj.fail_nth(FaultOp::WalSync, 0, FaultKind::Error);
    inj.fail_nth(FaultOp::WalRollback, 0, FaultKind::Error);
    let resp = client
        .post_json("/t/t/mutate", r#"{"op":"insert","point":[0.6,0.6]}"#)
        .unwrap();
    assert_eq!(resp.status, 503, "{}", resp.text());
    let retry_after: u64 = resp
        .header("retry-after")
        .expect("503 must carry Retry-After")
        .parse()
        .unwrap();
    assert!((1..=30).contains(&retry_after));

    // Degraded is a refusal state, not an error state: the next
    // mutation is turned away up front.
    let resp = client
        .post_json("/t/t/mutate", r#"{"op":"remove","oid":0}"#)
        .unwrap();
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(resp.text().contains("degraded"), "{}", resp.text());

    // Reads keep serving from the pinned snapshot…
    let resp = client
        .post_json("/t/t/match", &match_body(&w.functions))
        .unwrap();
    assert_eq!(
        resp.status,
        200,
        "reads must survive degradation: {}",
        resp.text()
    );

    // …and both health surfaces report the truth. (The repair loop
    // may already have repaired the engine by the time we look — only
    // assert degradation if it is still in effect, via /metrics.)
    let resp = client.get("/t/t/metrics").unwrap();
    let health = Json::parse(&resp.text())
        .unwrap()
        .get("health")
        .and_then(|h| h.as_str().map(str::to_string))
        .expect("metrics carry health");
    assert!(health == "degraded" || health == "healthy", "{health}");

    // The engine's repair (a due checkpoint, paced with backoff) restores
    // healthy service without any operator action.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200, "healthz stays 200 throughout");
        if resp.text().contains(r#""t":"healthy""#) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "probe never recovered: {}",
            resp.text()
        );
        thread::sleep(Duration::from_millis(20));
    }
    let resp = client
        .post_json("/t/t/mutate", r#"{"op":"insert","point":[0.6,0.6]}"#)
        .unwrap();
    assert_eq!(
        resp.status,
        200,
        "recovered tenant accepts mutations: {}",
        resp.text()
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean storage failure, one the WAL rolled back, fails only its own
/// mutation: it gets `503` with a `Retry-After`, the tenant stays
/// `healthy`, and the immediate retry commits.
#[test]
fn a_clean_failure_fails_only_its_own_mutation() {
    let w = WorkloadBuilder::new()
        .objects(60)
        .functions(3)
        .dim(2)
        .seed(6)
        .build();
    let dir = tmp_dir("clean");
    let inj = FaultInjector::shared();
    let engine = Engine::builder()
        .objects(&w.objects)
        .data_dir(&dir)
        .fault_injector(Arc::clone(&inj))
        .build()
        .unwrap();
    let mut registry = TenantRegistry::new();
    registry
        .add_engine("t", Arc::new(engine), TenantConfig::default())
        .unwrap();
    let server = Server::bind("127.0.0.1:0", registry, chaos_config()).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    inj.fail_nth(FaultOp::WalWrite, 0, FaultKind::Enospc);
    let insert = r#"{"op":"insert","point":[0.4,0.6]}"#;
    let resp = client.post_json("/t/t/mutate", insert).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.text());
    let retry_after: u64 = resp
        .header("retry-after")
        .expect("503 must carry Retry-After")
        .parse()
        .unwrap();
    assert!((1..=30).contains(&retry_after));
    let resp = client.get("/healthz").unwrap();
    assert!(resp.text().contains(r#""t":"healthy""#), "{}", resp.text());

    let resp = client.post_json("/t/t/mutate", insert).unwrap();
    assert_eq!(resp.status, 200, "the retry commits: {}", resp.text());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
