//! The timed run of one workload: set-up, warm-up, measured window over
//! loopback HTTP against an in-process [`Server`], then — outside every
//! clock — the correctness checks that feed `failed_share`.
//!
//! Closed loop: each connection sends its next request only after the
//! previous reply is parsed, because the callers modelled (a booking
//! front-end submitting a batch of user queries and waiting for the
//! assignment) each wait for their reply.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mpq_core::json::Json;
use mpq_core::{verify_stable, Engine, Pair, Scratch};
use mpq_net::{decode_pairs, HttpClient, Server, ServerConfig, TenantConfig, TenantRegistry};
use mpq_rtree::PointSet;

use crate::gen::{
    digest_pairs, inventory, read_pool, ClientStream, Kind, MatchReq, Mutation, Op, RequestChain,
};
use crate::spec::{Stream, WorkloadSpec, END_TO_END, REQUEST_TIMEOUT_S};
use crate::stats::{cpu_seconds, peak_rss_mib, percentile, supports};

/// The one tenant every workload hosts.
const MATCH_PATH: &str = "/t/t/match";
const MUTATE_PATH: &str = "/t/t/mutate";
const METRICS_PATH: &str = "/t/t/metrics";

/// Of `interactive`'s repeats and new sets (every near-miss is) and of
/// `mutate_mix`'s reads, one in this many is re-evaluated.
const SAMPLE_ONE_IN: usize = 50;

/// `clients = workers = min(2, cores)`: one generator thread per
/// keep-alive connection and nothing else, so the load generator never
/// outnumbers the cores it shares with the server.
pub fn default_clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub window_s: f64,
    pub warmup_s: f64,
    /// Set-ups timed per run; the last one serves the window.
    /// `setup_s` is the **fastest** of them: the build container's
    /// vCPUs are contended for seconds at a time with no steal time
    /// reported, which only ever adds time, so the fastest repeat is the
    /// set-up's cost and the median is the machine's mood — between
    /// seven runs of one commit the fastest of fifteen moved by
    /// 13–20 %, their median by 22–55 % (RUNS.md).
    pub setup_repeats: usize,
    /// Connections, and the tenant's worker threads. `mutate_mix` runs
    /// on one of each whatever this says ([`measure`]).
    pub clients: usize,
    /// Re-evaluated matchings that additionally pass `verify_stable`
    /// (O(|F|·|O|) each, seconds on the batch workloads).
    pub stable_checks: usize,
}

impl RunConfig {
    /// 3 s of warm-up before a full 24 s window, 1 s before a quick one.
    pub fn new(seed: u64, window_s: f64) -> RunConfig {
        RunConfig {
            seed,
            window_s,
            warmup_s: (window_s / 8.0).clamp(1.0, 3.0),
            setup_repeats: 15,
            clients: default_clients(),
            stable_checks: 8,
        }
    }
}

/// `ledger-state/` beside the executable: inside the build's target
/// directory, so on the repository's filesystem rather than a tmpfs
/// `/tmp`, and ignored by git. Span files go here.
pub fn state_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let root = exe
        .parent()
        .expect("executable has a directory")
        .join("ledger-state");
    std::fs::create_dir_all(&root).expect("create state directory");
    root
}

/// A fresh directory under [`state_root`] for disk-backed state.
pub fn state_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = state_root()
        .join(std::process::id().to_string())
        .join(format!("{label}-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).expect("create state directory");
    dir
}

/// Remove a [`state_dir`], and the process's directory once it is empty.
pub fn remove_state_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(of_process) = dir.parent() {
        let _ = std::fs::remove_dir(of_process);
    }
}

pub fn tenant_config(spec: &WorkloadSpec, workers: usize) -> TenantConfig {
    // Everything else stays at its default: the program receives
    // generated inputs, not benchmark-specific tuning.
    TenantConfig {
        workers,
        shards: spec.shards,
        ..TenantConfig::default()
    }
}

/// Build the tenant and bind the server; `data_dir` makes it persistent.
pub fn host(
    spec: &WorkloadSpec,
    objects: &PointSet,
    workers: usize,
    data_dir: Option<&Path>,
) -> Result<Server, String> {
    let mut registry = TenantRegistry::new();
    let config = tenant_config(spec, workers);
    match data_dir {
        Some(dir) => registry.add_persistent("t", Some(objects), dir.to_path_buf(), config),
        None => registry.add_objects("t", objects, config),
    }
    .map_err(|e| format!("hosting tenant: {e}"))?;
    Server::bind("127.0.0.1:0", registry, ServerConfig::default())
        .map_err(|e| format!("binding server: {e}"))
}

pub fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    let mut http = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    http.set_timeout(Some(Duration::from_secs(REQUEST_TIMEOUT_S)))
        .map_err(|e| format!("set timeout: {e}"))?;
    Ok(http)
}

/// What a successful exchange returned, reduced to what the checks need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Pairs { digest: u64, len: usize },
    Ack { oid: Option<u64>, version: u64 },
}

/// One request a client sent, warm-up included.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub measured: bool,
    pub is_match: bool,
    pub latency_s: f64,
    /// Completion time, seconds since the phase started.
    pub done_s: f64,
    pub outcome: Result<Reply, String>,
}

fn exchange(
    http: &mut HttpClient,
    path: &str,
    body: &str,
    is_match: bool,
) -> Result<Parsed, String> {
    let resp = http
        .post_json(path, body)
        .map_err(|e| format!("transport: {e}"))?;
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.text().trim()));
    }
    if is_match {
        return decode_pairs(&resp.body).map(Parsed::Pairs);
    }
    let ack = Json::parse(&resp.text()).map_err(|e| format!("ack: {e}"))?;
    let version = ack
        .get("inventory_version")
        .and_then(Json::as_f64)
        .ok_or("ack lacks inventory_version")?;
    Ok(Parsed::Ack {
        oid: ack.get("oid").and_then(Json::as_f64).map(|o| o as u64),
        version: version as u64,
    })
}

enum Parsed {
    Pairs(Vec<Pair>),
    Ack { oid: Option<u64>, version: u64 },
}

impl Parsed {
    /// Digesting happens here, after the latency clock has stopped.
    fn reply(self) -> Reply {
        match self {
            Parsed::Pairs(pairs) => Reply::Pairs {
                digest: digest_pairs(&pairs),
                len: pairs.len(),
            },
            Parsed::Ack { oid, version } => Reply::Ack { oid, version },
        }
    }
}

struct Client {
    stream: ClientStream,
    http: HttpClient,
    chain: RequestChain,
    log: Vec<OpRecord>,
}

impl Client {
    fn run_until(&mut self, start: Instant, deadline: Instant, measured: bool) {
        while Instant::now() < deadline {
            // The body is generated before this request's clock starts.
            let op = self.stream.next();
            let body = op.body();
            self.chain.push(&body);
            let is_match = matches!(op, Op::Match(_));
            let path = if is_match { MATCH_PATH } else { MUTATE_PATH };
            let sent = Instant::now();
            let parsed = exchange(&mut self.http, path, &body, is_match);
            let done = Instant::now();
            let outcome = parsed.map(Parsed::reply);
            if outcome.is_err() {
                // Framing is unknown after a failed exchange.
                let _ = self.http.reconnect();
            }
            self.log.push(OpRecord {
                measured,
                is_match,
                latency_s: (done - sent).as_secs_f64(),
                done_s: (done - start).as_secs_f64(),
                outcome,
            });
        }
    }
}

fn drive(clients: &mut [Client], seconds: f64, measured: bool) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            s.spawn(move || client.run_until(start, deadline, measured));
        }
    });
}

/// The counters of `GET /t/t/metrics` the ledger reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantCounters {
    pub physical_reads: f64,
    pub hits: f64,
    pub misses: f64,
    pub seeded_hits: f64,
    pub revalidations: f64,
    pub evictions: f64,
    pub entries: f64,
    pub bytes: f64,
}

/// On a connection of its own: an idle keep-alive one would be closed
/// by the server during a window longer than its 30 s timeout.
fn tenant_counters(addr: SocketAddr) -> Result<TenantCounters, String> {
    let resp = connect(addr)?
        .get(METRICS_PATH)
        .map_err(|e| format!("metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("metrics: status {}", resp.status));
    }
    let doc = Json::parse(&resp.text()).map_err(|e| format!("metrics: {e}"))?;
    let num = |section: &str, key: &str| {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metrics lack {section}.{key}"))
    };
    Ok(TenantCounters {
        physical_reads: num("storage", "physical_reads")?,
        hits: num("cache", "hits")?,
        misses: num("cache", "misses")?,
        seeded_hits: num("cache", "seeded_hits")?,
        revalidations: num("cache", "revalidations")?,
        evictions: num("cache", "evictions")?,
        entries: num("cache", "entries")?,
        bytes: num("cache", "bytes")?,
    })
}

/// `mutate_mix` after its window: the server is dropped without a
/// checkpoint and the engine reopened from the WAL tail.
#[derive(Debug, Clone)]
pub struct Reopened {
    pub open_s: f64,
    pub n_objects: usize,
    pub pool_digests: Vec<u64>,
}

/// Everything the window produced, before any check has run.
pub struct Measured {
    pub spec: WorkloadSpec,
    pub cfg: RunConfig,
    pub objects: PointSet,
    pub setup_s: Vec<f64>,
    /// Per client, warm-up then window, in send order.
    pub logs: Vec<Vec<OpRecord>>,
    pub chains: Vec<Vec<u64>>,
    pub cpu_s: f64,
    pub before: TenantCounters,
    pub after: TenantCounters,
    pub peak_rss_mib: f64,
    /// `mutate_mix`: the pool answered over HTTP once the writer stopped.
    pub pool_after_window: Vec<Result<Reply, String>>,
    pub reopened: Option<Result<Reopened, String>>,
}

/// Time `setup_repeats` set-ups and keep the last one.
fn set_up(
    spec: &WorkloadSpec,
    cfg: &RunConfig,
) -> Result<(PointSet, Server, Option<PathBuf>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(cfg.setup_repeats);
    let mut last = None;
    for _ in 0..cfg.setup_repeats.max(1) {
        // Tearing the previous set-up down is not part of the next one.
        if let Some((_, server, dir)) = last.take() {
            drop(server);
            remove_dir(dir);
        }
        let data_dir = spec.persistent.then(|| state_dir(spec.name));
        let start = Instant::now();
        let objects = inventory(spec, cfg.seed);
        let server = host(spec, &objects, cfg.clients, data_dir.as_deref())?;
        times.push(start.elapsed().as_secs_f64());
        // The first `200` from `/healthz` is checked outside the clock:
        // the accept loop polls every 25 ms and a first connect races
        // its first poll, which made the small workloads' set-up a coin
        // flip between 15 and 40 ms.
        let health = connect(server.local_addr())?
            .get("/healthz")
            .map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz: status {}", health.status));
        }
        last = Some((objects, server, data_dir));
    }
    let (objects, server, data_dir) = last.expect("at least one set-up ran");
    Ok((objects, server, data_dir, times))
}

fn remove_dir(dir: Option<PathBuf>) {
    if let Some(dir) = dir {
        remove_state_dir(&dir);
    }
}

/// Set up, warm up and measure. No correctness check has run yet.
pub fn measure(spec: &WorkloadSpec, cfg: &RunConfig) -> Result<Measured, String> {
    // A read that overlaps a mutation can see a freed root and answer
    // `200` with an empty matching (`RTree::snapshot` copies the tree
    // state under one lock and pins its epoch under another): once in
    // ~30 000 reads on 200 objects, once in 1.3 M operations at
    // `mutate_mix`'s 40 000. A benchmark workload must not fail, and no
    // library file may change here, so until that is fixed mutation and
    // read alternate on one connection and never overlap.
    let cfg = &RunConfig {
        clients: if spec.stream == Stream::MutateMix {
            1
        } else {
            cfg.clients
        },
        ..cfg.clone()
    };
    let (objects, server, data_dir, setup_s) = set_up(spec, cfg)?;
    let addr = server.local_addr();
    let mut clients = (0..cfg.clients)
        .map(|c| {
            Ok(Client {
                stream: ClientStream::new(spec, cfg.seed, c),
                http: connect(addr)?,
                chain: RequestChain::new(),
                log: Vec::new(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    drive(&mut clients, cfg.warmup_s, false);
    let before = tenant_counters(addr)?;
    let cpu_before = cpu_seconds();
    drive(&mut clients, cfg.window_s, true);
    let cpu_s = cpu_seconds() - cpu_before;
    let after = tenant_counters(addr)?;
    let peak_rss_mib = peak_rss_mib();

    let mut pool_after_window = Vec::new();
    let mut reopened = None;
    if spec.stream == Stream::MutateMix {
        let pool = read_pool(spec, cfg.seed);
        let mut control = connect(addr)?;
        pool_after_window = pool
            .iter()
            .map(|req| exchange(&mut control, MATCH_PATH, &req.body(), true).map(Parsed::reply))
            .collect();
        // Dropped, not checkpointed: every acknowledged mutation is in
        // the WAL tail and nowhere else.
        drop(control);
        drop(server);
        let dir = data_dir.as_deref().expect("mutate_mix is persistent");
        reopened = Some(reopen(dir, &pool));
    } else {
        drop(server);
    }
    remove_dir(data_dir);

    let (logs, chains) = clients
        .into_iter()
        .map(|c| (c.log, c.chain.checkpoints))
        .unzip();
    Ok(Measured {
        spec: *spec,
        cfg: cfg.clone(),
        objects,
        setup_s,
        logs,
        chains,
        cpu_s,
        before,
        after,
        peak_rss_mib,
        pool_after_window,
        reopened,
    })
}

fn reopen(dir: &Path, pool: &[MatchReq]) -> Result<Reopened, String> {
    let start = Instant::now();
    let engine = Engine::open(dir).map_err(|e| format!("reopen: {e}"))?;
    let open_s = start.elapsed().as_secs_f64();
    let pool_digests = pool
        .iter()
        .map(|req| evaluate(&engine, req, &mut Scratch::new()).map(|pairs| digest_pairs(&pairs)))
        .collect::<Result<_, _>>()?;
    Ok(Reopened {
        open_s,
        n_objects: engine.n_objects(),
        pool_digests,
    })
}

/// The reference answer: the request evaluated directly on `engine`.
fn evaluate(engine: &Engine, req: &MatchReq, scratch: &mut Scratch) -> Result<Vec<Pair>, String> {
    let fs = engine
        .functions_from_rows(&req.rows)
        .map_err(|e| format!("reference functions: {e}"))?;
    let matching = engine
        .request(&fs)
        .exclude(req.exclude.iter().copied())
        .evaluate_with(scratch)
        .map_err(|e| format!("reference evaluation: {e}"))?;
    Ok(matching.pairs().to_vec())
}

fn reference_engine(objects: &PointSet) -> Result<Engine, String> {
    Engine::builder()
        .objects(objects)
        .build()
        .map_err(|e| format!("reference engine: {e}"))
}

/// What the checks did, for the report.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Responses re-evaluated on the reference engine.
    pub reevaluated: usize,
    /// Of those, matchings that also passed `verify_stable`.
    pub stable_checked: usize,
    /// Checks beyond the window's own requests (pool after window,
    /// reopen), each counted as one attempted operation.
    pub extra_attempted: usize,
    pub extra_failures: Vec<String>,
}

/// Run every correctness check. A window request that fails one has its
/// outcome replaced by the error, so it counts as failed and drops out
/// of every latency sample.
pub fn verify(m: &mut Measured) -> Verdict {
    let mut verdict = Verdict::default();
    match reference_engine(&m.objects) {
        Err(e) => {
            verdict.extra_attempted += 1;
            verdict.extra_failures.push(e);
        }
        Ok(reference) if m.spec.stream == Stream::MutateMix => {
            verify_mutate_mix(m, &reference, &mut verdict)
        }
        Ok(reference) => verify_matches(m, &reference, &mut verdict),
    }
    verdict
}

fn verify_matches(m: &mut Measured, reference: &Engine, verdict: &mut Verdict) {
    let (spec, cfg, objects) = (&m.spec, &m.cfg, &m.objects);
    // One verifier thread per client's log, as many as drove the window.
    let counts: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = m
            .logs
            .iter_mut()
            .enumerate()
            .map(|(c, log)| s.spawn(move || verify_client(spec, cfg, c, log, reference, objects)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread"))
            .collect()
    });
    verdict.reevaluated = counts.iter().map(|c| c.0).sum();
    verdict.stable_checked = counts.iter().map(|c| c.1).sum();
}

/// Replay client `c`'s stream beside its log and re-evaluate what the
/// workload samples. Returns (re-evaluated, of those `verify_stable`d).
fn verify_client(
    spec: &WorkloadSpec,
    cfg: &RunConfig,
    c: usize,
    log: &mut [OpRecord],
    reference: &Engine,
    objects: &PointSet,
) -> (usize, usize) {
    let stable_quota = cfg.stable_checks.div_ceil(cfg.clients);
    let mut replay = ClientStream::new(spec, cfg.seed, c);
    let mut scratch = Scratch::new();
    let (mut reevaluated, mut stable) = (0, 0);
    for (i, rec) in log.iter_mut().enumerate() {
        let Op::Match(req) = replay.next() else {
            unreachable!("match-only stream")
        };
        let sampled =
            spec.stream == Stream::Batch || req.kind == Kind::NearMiss || i % SAMPLE_ONE_IN == 0;
        let Ok(Reply::Pairs { digest, len }) = rec.outcome else {
            continue;
        };
        if !(rec.measured && sampled) {
            continue;
        }
        reevaluated += 1;
        let check = evaluate(reference, &req, &mut scratch).and_then(|pairs| {
            if (digest_pairs(&pairs), pairs.len()) != (digest, len) {
                return Err("response differs from the reference".to_string());
            }
            if stable < stable_quota && req.exclude.is_empty() {
                stable += 1;
                let fs = reference
                    .functions_from_rows(&req.rows)
                    .map_err(|e| e.to_string())?;
                verify_stable(objects, &fs, &pairs)?;
            }
            Ok(())
        });
        if let Err(e) = check {
            rec.outcome = Err(format!("client {c} request {i}: {e}"));
        }
    }
    (reevaluated, stable)
}

fn verify_mutate_mix(m: &mut Measured, reference: &Engine, verdict: &mut Verdict) {
    let (spec, cfg) = (m.spec, m.cfg.clone());
    let mut acked = 0usize;
    let mut scratch = Scratch::new();
    // Replay exactly the acknowledged mutations, in ack order, checking
    // each ack on the way: versions strictly increase, inserts got the
    // id the generator predicted.
    for (c, log) in m.logs.iter_mut().enumerate() {
        let mut replay = ClientStream::new(&spec, cfg.seed, c);
        let mut last_version = 0u64;
        for (i, rec) in log.iter_mut().enumerate() {
            let mutation = match replay.next() {
                Op::Mutate(mutation) => mutation,
                Op::Match(req) => {
                    // A read follows the mutation before it on the same
                    // connection, so the reference engine is the
                    // inventory it was answered from: every pair count
                    // is checked, one read in fifty re-evaluated.
                    let Ok(Reply::Pairs { digest, len }) = rec.outcome else {
                        continue;
                    };
                    let check = if len != spec.functions.min(spec.objects) {
                        Err(format!("{len} pairs"))
                    } else if rec.measured && (i / 2) % SAMPLE_ONE_IN == 0 {
                        verdict.reevaluated += 1;
                        evaluate(reference, &req, &mut scratch).and_then(|pairs| {
                            if digest_pairs(&pairs) == digest {
                                Ok(())
                            } else {
                                Err("response differs from the reference".to_string())
                            }
                        })
                    } else {
                        Ok(())
                    };
                    if let Err(e) = check {
                        rec.outcome = Err(format!("client {c} request {i}: {e}"));
                    }
                    continue;
                }
            };
            let Ok(Reply::Ack { oid, version }) = rec.outcome else {
                continue;
            };
            acked += 1;
            let applied = match &mutation {
                Mutation::Insert { oid: expect, point } => reference
                    .insert_object(point)
                    .map_err(|e| e.to_string())
                    .and_then(|got| {
                        if Some(got) == oid && got == *expect {
                            Ok(())
                        } else {
                            Err(format!("insert acked oid {oid:?}, expected {expect}"))
                        }
                    }),
                Mutation::Update { oid, point } => reference
                    .update_object(*oid, point)
                    .map_err(|e| e.to_string()),
                Mutation::Remove { oid } => {
                    reference.remove_object(*oid).map_err(|e| e.to_string())
                }
            };
            let monotone = if version > last_version {
                Ok(())
            } else {
                Err(format!("inventory_version {version} after {last_version}"))
            };
            last_version = version;
            if let Err(e) = applied.and(monotone) {
                rec.outcome = Err(format!("client {c} mutation {i}: {e}"));
            }
        }
    }

    let pool = read_pool(&spec, cfg.seed);
    let expected: Vec<Result<u64, String>> = pool
        .iter()
        .map(|req| evaluate(reference, req, &mut Scratch::new()).map(|p| digest_pairs(&p)))
        .collect();
    let mut check = |what: String, ok: Result<bool, String>| {
        verdict.extra_attempted += 1;
        match ok {
            Ok(true) => {}
            Ok(false) => verdict
                .extra_failures
                .push(format!("{what}: differs from the reference")),
            Err(e) => verdict.extra_failures.push(format!("{what}: {e}")),
        }
    };
    for (i, (got, want)) in m.pool_after_window.iter().zip(&expected).enumerate() {
        let same = match (got, want) {
            (Ok(Reply::Pairs { digest, .. }), Ok(want)) => Ok(digest == want),
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            (Ok(Reply::Ack { .. }), _) => Err("an ack answered a match".to_string()),
        };
        check(format!("pool request {i} after the window"), same);
    }
    verdict.reevaluated += m.pool_after_window.len();
    match m.reopened.as_ref().expect("mutate_mix reopens") {
        Err(e) => check("reopen".to_string(), Err(e.clone())),
        Ok(reopened) => {
            check(
                format!(
                    "{} objects after reopen, {acked} mutations replayed",
                    reopened.n_objects
                ),
                Ok(reopened.n_objects == reference.n_objects()),
            );
            for (i, (got, want)) in reopened.pool_digests.iter().zip(&expected).enumerate() {
                check(
                    format!("pool request {i} after reopen"),
                    want.clone().map(|want| *got == want),
                );
            }
        }
    }
}

/// One workload's report: the twelve end-to-end metrics (`None` is
/// `null`), the layer numbers only the timed window can give, and the
/// failure ledger.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub spec: WorkloadSpec,
    pub cfg: RunConfig,
    pub metrics: BTreeMap<&'static str, Option<f64>>,
    pub window_layers: BTreeMap<&'static str, f64>,
    pub match_samples: usize,
    pub mutate_samples: usize,
    pub ops_attempted: usize,
    pub ops_failed: usize,
    pub failures: Vec<String>,
    pub verdict: Verdict,
    pub setup_s: Vec<f64>,
    pub chains: Vec<Vec<u64>>,
}

struct Side {
    latencies_ms: Vec<f64>,
    per_s: f64,
}

fn side(logs: &[Vec<OpRecord>], is_match: bool) -> Side {
    let mut latencies_ms = Vec::new();
    let mut per_s = 0.0;
    for log in logs {
        let window: Vec<&OpRecord> = log.iter().filter(|r| r.measured).collect();
        // A closed-loop client's rate is its completions over the time
        // they took; summing clients avoids counting the idle tail of
        // whichever connection finished its last request first.
        let span = window.iter().map(|r| r.done_s).fold(0.0, f64::max);
        let ok = window
            .iter()
            .filter(|r| r.is_match == is_match && r.outcome.is_ok());
        let before = latencies_ms.len();
        latencies_ms.extend(ok.map(|r| r.latency_s * 1e3));
        if span > 0.0 {
            per_s += (latencies_ms.len() - before) as f64 / span;
        }
    }
    latencies_ms.sort_by(f64::total_cmp);
    Side {
        latencies_ms,
        per_s,
    }
}

pub fn summarize(m: &Measured, verdict: Verdict) -> WorkloadReport {
    let matches = side(&m.logs, true);
    let mutations = side(&m.logs, false);
    let window: Vec<&OpRecord> = m.logs.iter().flatten().filter(|r| r.measured).collect();
    let mut failures: Vec<String> = window
        .iter()
        .filter_map(|r| r.outcome.as_ref().err().cloned())
        .collect();
    failures.extend(verdict.extra_failures.iter().cloned());
    let ops_attempted = window.len() + verdict.extra_attempted;
    let ops_failed = failures.len();

    let n_match = matches.latencies_ms.len();
    let n_mutate = mutations.latencies_ms.len();
    let pct =
        |s: &Side, q: f64| (!s.latencies_ms.is_empty()).then(|| percentile(&s.latencies_ms, q));
    let per_match = |total: f64, n: usize| (n > 0).then(|| total / n as f64);
    let is_mutate_mix = m.spec.stream == Stream::MutateMix;
    let reopen_us_per_rec = m
        .reopened
        .as_ref()
        .and_then(|r| r.as_ref().ok())
        .and_then(|r| {
            let acked = m
                .logs
                .iter()
                .flatten()
                .filter(|r| !r.is_match && r.outcome.is_ok())
                .count();
            per_match(r.open_s * 1e6, acked)
        });

    let mut metrics = BTreeMap::new();
    for (name, value) in [
        (
            "setup_s",
            Some(m.setup_s.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("match_p50_ms", pct(&matches, 0.5)),
        ("match_p90_ms", pct(&matches, 0.9)),
        ("match_per_s", (n_match > 0).then_some(matches.per_s)),
        (
            "mutate_p50_ms",
            pct(&mutations, 0.5).filter(|_| is_mutate_mix),
        ),
        (
            "mutate_p90_ms",
            pct(&mutations, 0.9).filter(|_| is_mutate_mix),
        ),
        (
            "mutate_per_s",
            (is_mutate_mix && n_mutate > 0).then_some(mutations.per_s),
        ),
        ("reopen_us_per_rec", reopen_us_per_rec),
        (
            "io_per_match",
            per_match(m.after.physical_reads - m.before.physical_reads, n_match),
        ),
        (
            "cpu_ms_per_match",
            per_match(m.cpu_s * 1e3, n_match + n_mutate),
        ),
        ("peak_rss_mb", Some(m.peak_rss_mib)),
        (
            "failed_share",
            Some(ops_failed as f64 / ops_attempted.max(1) as f64),
        ),
    ] {
        metrics.insert(name, value);
    }
    debug_assert!(END_TO_END.iter().all(|e| metrics.contains_key(e.name)));

    let lookups = (m.after.hits - m.before.hits) + (m.after.misses - m.before.misses);
    let share = |n: f64| if lookups > 0.0 { n / lookups } else { 0.0 };
    let window_layers = BTreeMap::from([
        ("cache.hit_rate", share(m.after.hits - m.before.hits)),
        (
            "cache.seeded_rate",
            share(m.after.seeded_hits - m.before.seeded_hits),
        ),
        (
            "cache.revalidations",
            m.after.revalidations - m.before.revalidations,
        ),
        ("cache.evictions", m.after.evictions - m.before.evictions),
        (
            "cache.bytes_per_entry",
            if m.after.entries > 0.0 {
                m.after.bytes / m.after.entries
            } else {
                0.0
            },
        ),
        ("server.match_p99_ms", pct(&matches, 0.99).unwrap_or(0.0)),
        ("server.samples", n_match as f64),
    ]);

    WorkloadReport {
        spec: m.spec,
        cfg: m.cfg.clone(),
        metrics,
        window_layers,
        match_samples: n_match,
        mutate_samples: n_mutate,
        ops_attempted,
        ops_failed,
        failures,
        verdict,
        setup_s: m.setup_s.clone(),
        chains: m.chains.clone(),
    }
}

/// Measure, check, summarize.
pub fn run_workload(spec: &WorkloadSpec, cfg: &RunConfig) -> Result<WorkloadReport, String> {
    let mut measured = measure(spec, cfg)?;
    let verdict = verify(&mut measured);
    Ok(summarize(&measured, verdict))
}

impl WorkloadReport {
    /// A run is correct when nothing failed and every metric the
    /// workload owes is a positive number.
    pub fn problems(&self) -> Vec<String> {
        let mut problems: Vec<String> = self.failures.iter().take(5).cloned().collect();
        for e in &END_TO_END {
            let owed = e.everywhere || self.spec.stream == Stream::MutateMix;
            match self.metrics[e.name] {
                Some(v) if v.is_finite() && (v > 0.0 || e.name == "failed_share") => {}
                None if !owed => {}
                other => problems.push(format!("{} is {other:?}", e.name)),
            }
        }
        problems
    }

    pub fn to_json(&self) -> Json {
        let metrics = END_TO_END
            .iter()
            .map(|e| {
                let value = self.metrics[e.name].map_or(Json::Null, Json::Num);
                let entry = Json::obj([
                    ("value", value),
                    ("unit", Json::Str(e.unit.into())),
                    ("better", Json::Str(e.better.as_str().into())),
                    ("bound", e.bound.map_or(Json::Null, Json::Num)),
                ]);
                (e.name.to_string(), entry)
            })
            .collect();
        let layers = self
            .window_layers
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect();
        let hex = |chain: &Vec<u64>| {
            Json::Arr(
                chain
                    .iter()
                    .map(|d| Json::Str(format!("{d:016x}")))
                    .collect(),
            )
        };
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        Json::obj([
            ("name", Json::Str(self.spec.name.into())),
            ("why", Json::Str(self.spec.why.into())),
            (
                "inventory",
                Json::obj([
                    ("objects", Json::Num(self.spec.objects as f64)),
                    ("dim", Json::Num(self.spec.dim as f64)),
                    (
                        "distribution",
                        Json::Str(self.spec.distribution.name().into()),
                    ),
                    ("shards", Json::Num(self.spec.shards as f64)),
                    ("persistent", Json::Bool(self.spec.persistent)),
                ]),
            ),
            (
                "functions_per_request",
                Json::Num(self.spec.functions as f64),
            ),
            ("seed", Json::Num(self.cfg.seed as f64)),
            ("clients", Json::Num(self.cfg.clients as f64)),
            ("workers", Json::Num(self.cfg.clients as f64)),
            ("warmup_s", Json::Num(self.cfg.warmup_s)),
            ("window_s", Json::Num(self.cfg.window_s)),
            ("metrics", Json::Obj(metrics)),
            (
                "samples",
                Json::obj([
                    ("match", Json::Num(self.match_samples as f64)),
                    ("mutate", Json::Num(self.mutate_samples as f64)),
                    ("setup", Json::Num(self.setup_s.len() as f64)),
                    (
                        "match_p90_has_10_beyond",
                        Json::Bool(supports(self.match_samples, 0.9)),
                    ),
                ]),
            ),
            ("setup_samples_s", nums(&self.setup_s)),
            ("ops_attempted", Json::Num(self.ops_attempted as f64)),
            ("ops_failed", Json::Num(self.ops_failed as f64)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .take(5)
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            ),
            (
                "checks",
                Json::obj([
                    ("reevaluated", Json::Num(self.verdict.reevaluated as f64)),
                    (
                        "verify_stable",
                        Json::Num(self.verdict.stable_checked as f64),
                    ),
                    (
                        "beyond_window",
                        Json::Num(self.verdict.extra_attempted as f64),
                    ),
                ]),
            ),
            ("window_layers", Json::Obj(layers)),
            (
                "request_digests",
                Json::Arr(self.chains.iter().map(hex).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn smoke(spec: &WorkloadSpec) -> (WorkloadSpec, RunConfig) {
        let spec = WorkloadSpec {
            objects: 200,
            functions: spec.functions.min(12),
            ..*spec
        };
        let cfg = RunConfig {
            warmup_s: 0.05,
            setup_repeats: 1,
            clients: 2,
            ..RunConfig::new(11, 0.2)
        };
        (spec, cfg)
    }

    /// A 200-object smoke of one workload: every metric it owes is
    /// there and nothing failed. One test per workload, so they overlap.
    fn smoke_runs_clean(name: &str) {
        let (spec, cfg) = smoke(crate::spec::workload(name).unwrap());
        let report = run_workload(&spec, &cfg).expect(name);
        // 200 objects fit the buffer pool's 8-page floor: no reads.
        let problems: Vec<String> = report
            .problems()
            .into_iter()
            .filter(|p| p != "io_per_match is Some(0.0)")
            .collect();
        assert_eq!(problems, Vec::<String>::new());
        assert_eq!(report.metrics["failed_share"], Some(0.0));
        assert!(report.verdict.reevaluated > 0);
        let is_mix = spec.stream == Stream::MutateMix;
        assert_eq!(report.metrics["mutate_p50_ms"].is_some(), is_mix);
        assert_eq!(report.metrics["reopen_us_per_rec"].is_some(), is_mix);
        assert_eq!(report.verdict.stable_checked > 0, !is_mix);
    }

    #[test]
    fn batch_indep_smokes_clean() {
        smoke_runs_clean("batch_indep");
    }

    #[test]
    fn batch_anti_smokes_clean() {
        smoke_runs_clean("batch_anti");
    }

    #[test]
    fn sharded_k4_smokes_clean() {
        smoke_runs_clean("sharded_k4");
    }

    #[test]
    fn interactive_smokes_clean() {
        smoke_runs_clean("interactive");
    }

    #[test]
    fn mutate_mix_smokes_clean() {
        smoke_runs_clean("mutate_mix");
    }

    /// The checks are really executed: one corrupted response digest
    /// turns a clean run into a failed one.
    #[test]
    fn a_corrupted_digest_fails_the_run() {
        let (spec, cfg) = smoke(&WORKLOADS[0]);
        let cfg = RunConfig {
            window_s: 0.05,
            ..cfg
        };
        let mut measured = measure(&spec, &cfg).unwrap();
        let victim = measured.logs[1]
            .iter_mut()
            .find(|r| r.measured)
            .expect("client 1 sent a request in the window");
        let Ok(Reply::Pairs { digest, len }) = victim.outcome else {
            panic!("smoke request failed: {:?}", victim.outcome)
        };
        victim.outcome = Ok(Reply::Pairs {
            digest: digest ^ 1,
            len,
        });
        let verdict = verify(&mut measured);
        let report = summarize(&measured, verdict);
        assert_eq!(report.ops_failed, 1);
        assert!(report.metrics["failed_share"].unwrap() > 0.0);
        assert!(report.problems()[0].contains("differs from the reference"));
    }

    /// Same check for the write path: an ack whose version does not
    /// advance is caught. The stream's first operation is a mutation
    /// and every phase sends at least one, so the victim exists however
    /// slow the disk is; counting the warm-up as measured keeps it in
    /// the failure ledger.
    #[test]
    fn a_stale_ack_version_fails_the_run() {
        let (spec, cfg) = smoke(&WORKLOADS[4]);
        let cfg = RunConfig {
            window_s: 0.05,
            ..cfg
        };
        let mut measured = measure(&spec, &cfg).unwrap();
        for rec in &mut measured.logs[0] {
            rec.measured = true;
        }
        let victim = &mut measured.logs[0][0];
        let Ok(Reply::Ack { oid, .. }) = victim.outcome else {
            panic!("the first mutation is acknowledged: {:?}", victim.outcome)
        };
        victim.outcome = Ok(Reply::Ack { oid, version: 0 });
        let verdict = verify(&mut measured);
        let report = summarize(&measured, verdict);
        assert!(report.ops_failed >= 1);
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("inventory_version")));
    }
}
