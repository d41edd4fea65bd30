//! `mpq serve --listen` over a real socket: the server starts, serves
//! matchings, hosts multiple tenants (persistent ones included), and
//! shuts down cleanly when dropped.

use std::fs;
use std::net::TcpStream;
use std::time::Duration;

use mpq_cli::{run_cli, start_server};
use mpq_net::HttpClient;

fn args(s: &[&str]) -> Vec<String> {
    s.iter().map(|x| x.to_string()).collect()
}

/// A unique scratch dir per test (temp_dir is shared across runs).
fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpq_listen_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_objects_csv(dir: &std::path::Path, name: &str, seed: u64) -> String {
    let csv = run_cli(&args(&[
        "generate",
        "--distribution",
        "independent",
        "--objects",
        "300",
        "--dim",
        "2",
        "--seed",
        &seed.to_string(),
    ]))
    .unwrap();
    let path = dir.join(name);
    fs::write(&path, &csv).unwrap();
    path.to_str().unwrap().to_string()
}

const BODY: &str = r#"{"functions":[[0.7,0.3],[0.4,0.6]]}"#;

#[test]
fn single_tenant_serves_over_a_real_socket() {
    let dir = tmp_dir("single");
    let objects = write_objects_csv(&dir, "objects.csv", 41);

    let server = start_server(&args(&[
        "--listen",
        "127.0.0.1:0",
        "--tenant",
        &format!("default={objects},workers=1"),
    ]))
    .unwrap();
    let addr = server.local_addr();

    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    // The tenant is reached by its path alone, even as the only one.
    let resp = client.post_json("/t/default/match", BODY).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let pairs = mpq_net::decode_pairs(&resp.body).unwrap();
    assert_eq!(pairs.len(), 2);
    assert_eq!(client.post_json("/match", BODY).unwrap().status, 404);

    server.shutdown();
}

#[test]
fn multi_tenant_specs_route_independently_and_persist() {
    let dir = tmp_dir("multi");
    let hotels = write_objects_csv(&dir, "hotels.csv", 42);
    let rooms = write_objects_csv(&dir, "rooms.csv", 43);
    let store = dir.join("rooms_store");
    let store_str = store.to_str().unwrap().to_string();

    {
        let server = start_server(&args(&[
            "--listen",
            "127.0.0.1:0",
            "--tenant",
            &format!("hotels={hotels},workers=1,queue-cap=8"),
            "--tenant",
            &format!("rooms={rooms},data-dir={store_str},workers=1"),
        ]))
        .unwrap();
        let addr = server.local_addr();
        let mut client = HttpClient::connect(addr).unwrap();

        for tenant in ["hotels", "rooms"] {
            let resp = client
                .post_json(&format!("/t/{tenant}/match"), BODY)
                .unwrap();
            assert_eq!(resp.status, 200, "{tenant}: {}", resp.text());
        }
        // Plain /match names no tenant: no route.
        assert_eq!(client.post_json("/match", BODY).unwrap().status, 404);
        // Drop: clean shutdown, flushing the persistent tenant.
    }

    // The rooms store persisted — reopen it WITHOUT the CSV (empty
    // objects part in the spec).
    let server = start_server(&args(&[
        "--listen",
        "127.0.0.1:0",
        "--tenant",
        &format!("rooms=,data-dir={store_str}"),
    ]))
    .unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let resp = client.post_json("/t/rooms/match", BODY).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    server.shutdown();
}

/// A persisted tenant outlives its server: restarted from its data dir
/// alone (an empty objects part), it holds what was written to the
/// store meanwhile and serves the matching a direct evaluation gives.
#[test]
fn serve_with_data_dir_persists_across_restarts() {
    let dir = tmp_dir("persist");
    let objects = run_cli(&args(&[
        "generate",
        "--objects",
        "100",
        "--dim",
        "2",
        "--seed",
        "7",
    ]))
    .unwrap();
    let objects_csv = dir.join("objects.csv");
    fs::write(&objects_csv, objects).unwrap();
    let store = dir.join("store");
    let store_str = store.to_str().unwrap();

    // The first server builds the tenant from the CSV and persists it.
    drop(
        start_server(&args(&[
            "--listen",
            "127.0.0.1:0",
            "--tenant",
            &format!("default={},data-dir={store_str}", objects_csv.display()),
        ]))
        .unwrap(),
    );

    // Mutate the store out of band: the WAL carries the insert.
    let engine = mpq_core::Engine::open(&store).unwrap();
    engine.insert_object(&[0.99, 0.99]).unwrap();
    drop(engine);

    // The second reopens it from disk, with no objects CSV.
    let spec = format!("default=,data-dir={store_str}");
    let server = start_server(&args(&["--listen", "127.0.0.1:0", "--tenant", &spec])).unwrap();
    let tenants: Vec<_> = server.registry().iter().collect();
    assert_eq!(tenants.len(), 1);
    let engine = tenants[0].engine();
    assert_eq!(engine.n_objects(), 101);

    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let resp = client.post_json("/t/default/match", BODY).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let served = mpq_net::decode_pairs(&resp.body).unwrap();
    let functions = mpq_ta::FunctionSet::from_rows(2, &[vec![0.7, 0.3], vec![0.4, 0.6]]);
    let direct = engine.request(&functions).evaluate().unwrap();
    let key = |p: &mpq_core::Pair| (p.fid, p.oid, p.score.to_bits());
    let mut served: Vec<_> = served.iter().map(key).collect();
    let mut direct: Vec<_> = direct.pairs().iter().map(key).collect();
    served.sort_unstable();
    direct.sort_unstable();
    assert_eq!(served, direct);
    server.shutdown();
}

#[test]
fn dropping_the_server_closes_the_listener() {
    let dir = tmp_dir("drop");
    let objects = write_objects_csv(&dir, "objects.csv", 44);

    let spec = format!("default={objects}");
    let server = start_server(&args(&["--listen", "127.0.0.1:0", "--tenant", &spec])).unwrap();
    let addr = server.local_addr();

    // Alive: a request round-trips.
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    drop(server);

    // Dead: new connections are refused (or immediately closed — the
    // OS may briefly accept into a dying backlog).
    match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
        Err(_) => {}
        Ok(stream) => {
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            use std::io::{Read, Write};
            let mut s = stream;
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = [0u8; 64];
            // A live server would answer; a dead one EOFs or errors.
            match s.read(&mut buf) {
                Ok(0) => {}
                Ok(_) => panic!("server still answering after drop"),
                Err(_) => {}
            }
        }
    }
}

#[test]
fn listen_mode_usage_errors() {
    // No tenants at all.
    let err = start_server(&args(&["--listen", "127.0.0.1:0"])).unwrap_err();
    assert_eq!(err.code, 2);
    assert!(err.message.contains("--tenant"), "{}", err.message);

    // Malformed tenant specs.
    for bad in [
        "nospec",
        "name=,",               // no objects, no data-dir
        "n=o.csv,workers",      // option without value
        "n=o.csv,bogus=1",      // unknown option
        "n=o.csv,workers=many", // non-integer
    ] {
        let err = start_server(&args(&["--listen", "127.0.0.1:0", "--tenant", bad])).unwrap_err();
        assert_eq!(err.code, 2, "spec {bad:?} should be a usage error");
    }

    // A flag serve does not read is named, not ignored: a tenant is
    // declared by --tenant alone (its spec's keys set what the old
    // single-tenant flags did, and `cache=N` too), a served request is
    // SB alone, and there is no request count — with --tenant or
    // without.
    for named in [
        "--objects",
        "--data-dir",
        "--workers",
        "--queue-cap",
        "--algo",
        "--algorithm",
        "--cache",
        "--requests",
    ] {
        for tenant in [&["--tenant", "n=o.csv"][..], &[]] {
            let argv = [&["--listen", "127.0.0.1:0"][..], tenant, &[named, "1"]].concat();
            let err = start_server(&args(&argv)).unwrap_err();
            assert_eq!(err.code, 2, "{argv:?}");
            let message = format!("does not read '{named}'");
            assert!(err.message.contains(&message), "{argv:?}: {}", err.message);
        }
    }

    // A tenant whose CSV does not exist is a runtime error.
    let err = start_server(&args(&[
        "--listen",
        "127.0.0.1:0",
        "--tenant",
        "ghost=/definitely/not/here.csv",
    ]))
    .unwrap_err();
    assert_eq!(err.code, 1);
}
