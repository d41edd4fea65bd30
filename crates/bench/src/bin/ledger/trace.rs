//! The traced pass: one thread, sequential, fixed op counts drawn from
//! `--seed`, timing the calls into each layer's public functions on the
//! workload's own inventory and requests. Counts repeat exactly between
//! runs of one seed; timings are medians over the fixed ops.
//!
//! Spans are recorded here, around the calls, and written out when the
//! pass ends (spans *inside* the program are a later change). Nesting
//! is by construction, not by time: per request id the harness runs the
//! stack bottom-up on the same input — `sb` → `engine` → `service` →
//! `server` — one call after the other, and `parent` names the layer a
//! real request would have entered this one from. A layer's own cost is
//! therefore the difference of two medians (`*.over_*`), "what this
//! layer adds over the one below it".

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mpq_core::json::Json;
use mpq_core::service::ServiceConfig;
use mpq_core::wal::{Wal, WalRecord};
use mpq_core::{Algorithm, Engine, ResultCache, Scratch, ShardedEngine};
use mpq_net::{
    decode_match_request, decode_pairs, encode_matching, HttpClient, ParserLimits, RequestParser,
    Response, Server, ServerConfig, TenantConfig, TenantRegistry,
};
use mpq_rtree::PointSet;
use mpq_skyline::SkylineMaintainer;
use mpq_ta::{FunctionSet, ReverseTopOne};

use crate::gen::{digest_pairs, inventory, ClientStream, MatchReq, Mutation, MutationGen, Op};
use crate::spec::{WorkloadSpec, PER_LAYER, TRACE_MUTATIONS};
use crate::stats::median;
use crate::timed::{connect, remove_state_dir, state_dir, state_root, tenant_config};

/// Skyline members removed one at a time for `skyline.remove_us`.
const SKYLINE_REMOVALS: usize = 64;
/// Weight rows probed for `rtree.top1_us`.
const TOP1_PROBES: usize = 256;
const HEALTHZ_PROBES: usize = 64;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    request_id: usize,
    start_ns: u64,
    end_ns: u64,
    parent: Option<&'static str>,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Durations per span name, seconds.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        request_id: usize,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = self.epoch.elapsed();
        let value = call();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            request_id,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
        });
        self.samples
            .entry(name)
            .or_default()
            .push((end - start).as_secs_f64());
        value
    }

    /// Median duration of the spans called `name`, in `1/scale` seconds.
    fn median(&self, name: &str, scale: f64) -> f64 {
        median(&self.samples[name]) * scale
    }
}

const MS: f64 = 1e3;
const US: f64 = 1e6;

pub struct Outcome {
    pub workload: &'static str,
    pub metrics: BTreeMap<&'static str, f64>,
    pub table: String,
    pub problems: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    spans_path: String,
    quick: bool,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        let metrics = PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let entry = Json::obj([
                    ("value", Json::Num(self.metrics[name])),
                    ("unit", Json::Str((*unit).into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Json::obj([
            ("name", Json::Str(self.workload.into())),
            ("quick", Json::Bool(self.quick)),
            ("per_layer", Json::Obj(metrics)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(
                    self.problems
                        .iter()
                        .take(5)
                        .map(|p| Json::Str(p.clone()))
                        .collect(),
                ),
            ),
            ("spans_file", Json::Str(self.spans_path.clone())),
            (
                "tracing_overhead",
                Json::obj([
                    (
                        "traced_roundtrip_ms",
                        Json::Num(self.metrics["server.roundtrip_ms"]),
                    ),
                    (
                        "untraced_roundtrip_ms",
                        Json::Num(self.metrics["server.untraced_roundtrip_ms"]),
                    ),
                    (
                        "ratio_traced_over_untraced",
                        Json::Num(
                            self.metrics["server.roundtrip_ms"]
                                / self.metrics["server.untraced_roundtrip_ms"],
                        ),
                    ),
                ]),
            ),
            ("table", Json::Str(self.table.clone())),
        ])
    }
}

/// A traced request with everything the layers need precomputed
/// outside their clocks.
struct Traced {
    req: MatchReq,
    fs: FunctionSet,
    body: String,
}

struct Pass<'a> {
    spec: &'a WorkloadSpec,
    rec: Recorder,
    m: BTreeMap<&'static str, f64>,
    checks: usize,
    problems: Vec<String>,
}

impl Pass<'_> {
    /// Every path that answers request `id` must produce the same pairs.
    fn same(&mut self, what: &str, id: usize, want: u64, got: u64) {
        self.checks += 1;
        if want != got {
            self.problems
                .push(format!("{what}: request {id} differs from sb's matching"));
        }
    }

    fn fail(&mut self, what: impl Into<String>) {
        self.checks += 1;
        self.problems.push(what.into());
    }

    fn set_median(&mut self, metric: &'static str, span: &str, scale: f64) {
        self.m.insert(metric, self.rec.median(span, scale));
    }
}

fn request<'e, 'f>(engine: &'e Engine, t: &'f Traced) -> mpq_core::MatchRequest<'e, 'f> {
    engine.request(&t.fs).exclude(t.req.exclude.iter().copied())
}

/// The match requests the pass replays: the head of a reading client's
/// stream, exactly what the timed run sends first.
fn traced_requests(spec: &WorkloadSpec, seed: u64, n: usize) -> Vec<MatchReq> {
    let mut stream = ClientStream::new(spec, seed, 0);
    std::iter::repeat_with(|| stream.next())
        .filter_map(|op| match op {
            Op::Match(req) => Some(req),
            Op::Mutate(_) => None,
        })
        .take(n)
        .collect()
}

/// Host `engine` as tenant `t` and connect one client to it.
fn serve(engine: &Arc<Engine>, config: TenantConfig) -> Result<(Server, HttpClient), String> {
    let mut registry = TenantRegistry::new();
    registry
        .add_engine("t", Arc::clone(engine), config)
        .map_err(|e| format!("hosting tenant: {e}"))?;
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default())
        .map_err(|e| format!("binding server: {e}"))?;
    let http = connect(server.local_addr())?;
    Ok((server, http))
}

fn apply(engine: &Engine, mutation: &Mutation) -> Result<(), String> {
    match mutation {
        Mutation::Insert { point, .. } => engine.insert_object(point).map(|_| ()),
        Mutation::Update { oid, point } => engine.update_object(*oid, point),
        Mutation::Remove { oid } => engine.remove_object(*oid),
    }
    .map_err(|e| format!("{mutation:?}: {e}"))
}

/// The traced pass of `spec`; `quick` runs it at a quarter of the op
/// counts.
pub fn run(spec: &'static WorkloadSpec, seed: u64, quick: bool) -> Result<Outcome, String> {
    let scale = if quick { 4 } else { 1 };
    let n_requests = (spec.trace_requests / scale).max(2);
    let n_mutations = TRACE_MUTATIONS / scale;

    let mut p = Pass {
        spec,
        rec: Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
        },
        m: BTreeMap::new(),
        checks: 0,
        problems: Vec::new(),
    };
    // datagen, rtree bulk load
    let mut objects = PointSet::new(spec.dim);
    for i in 0..3 {
        objects = p
            .rec
            .time("datagen.generate", None, i, || inventory(spec, seed));
    }
    p.set_median("datagen.generate_ms", "datagen.generate", MS);
    let engine = p.rec.time("rtree.bulk_load", None, 0, || {
        Engine::builder().objects(&objects).build()
    });
    let engine = Arc::new(engine.map_err(|e| format!("engine: {e}"))?);
    p.set_median("rtree.bulk_load_ms", "rtree.bulk_load", MS);
    p.m.insert("rtree.pages", engine.tree().page_count() as f64);

    // the requests, and a scratch SB has already run on
    let mut scratch = Scratch::new();
    let mut traced = Vec::with_capacity(n_requests);
    for (id, req) in traced_requests(spec, seed, n_requests)
        .into_iter()
        .enumerate()
    {
        let fs = p
            .rec
            .time(
                "engine.functions_from_rows",
                Some("engine.evaluate"),
                id,
                || engine.functions_from_rows(&req.rows),
            )
            .map_err(|e| format!("functions: {e}"))?;
        let body = req.body();
        traced.push(Traced { req, fs, body });
    }
    p.set_median(
        "engine.functions_from_rows_us",
        "engine.functions_from_rows",
        US,
    );
    request(&engine, &traced[0])
        .evaluate_with(&mut scratch)
        .map_err(|e| format!("warming the scratch: {e}"))?;

    top1_probes(&mut p, &engine, &traced);
    let skyline_points = skyline(&mut p, &engine);
    reverse_top1(&mut p, &traced, &skyline_points);
    stack(&mut p, &engine, &objects, &traced, &mut scratch)?;
    let mutations = {
        let mut gen = MutationGen::new(spec, seed);
        // A quarter more than the engine sections apply directly: the
        // tail goes over HTTP for `server.mutate_roundtrip_us`.
        std::iter::repeat_with(|| gen.next())
            .take(n_mutations + n_mutations / 4)
            .collect::<Vec<_>>()
    };
    in_memory_mutations(&mut p, &objects, &mutations[..n_mutations])?;
    wal(&mut p, &mutations[..n_mutations])?;
    durable(&mut p, &objects, &mutations, n_mutations)?;

    p.m.insert(
        "sb.over_bbs_ms",
        p.m["sb.match_ms"] - p.m["skyline.bbs_build_ms"],
    );
    p.m.insert(
        "engine.mutate_over_wal_us",
        p.m["engine.mutate_us"] - p.m["wal.append_sync_us"],
    );
    p.m.insert("trace.spans", p.rec.spans.len() as f64);
    p.m.insert("trace.requests", n_requests as f64);
    p.m.insert("trace.mutations", mutations.len() as f64);

    if let Some((lost, ..)) = PER_LAYER
        .iter()
        .find(|(name, ..)| !p.m.get(name).is_some_and(|v| v.is_finite()))
    {
        return Err(format!("{lost} was not measured"));
    }
    let spans_path = write_spans(&p, seed)?;
    let table = table(&p, seed, n_requests);
    Ok(Outcome {
        workload: spec.name,
        table,
        attempted: p.checks,
        failed: p.problems.len(),
        problems: p.problems,
        metrics: p.m,
        spans_path,
        quick,
    })
}

/// `rtree.top1_*`: one ranked probe per weight row, node reads from the
/// tree's own counters.
fn top1_probes(p: &mut Pass, engine: &Engine, traced: &[Traced]) {
    let tree = engine.tree();
    let mut reads = Vec::new();
    let rows = traced
        .iter()
        .flat_map(|t| (0..t.fs.len() as u32).map(move |f| t.fs.weights(f)))
        .take(TOP1_PROBES);
    for (i, weights) in rows.enumerate() {
        let before = tree.io_stats();
        let hit = p
            .rec
            .time("rtree.top1", Some("bf.match"), i, || tree.top1(weights));
        reads.push(tree.io_stats().since(before).logical as f64);
        if hit.is_none() {
            p.fail(format!("rtree.top1: probe {i} found nothing"));
        }
    }
    p.set_median("rtree.top1_us", "rtree.top1", US);
    p.m.insert("rtree.top1_node_reads", median(&reads));
}

/// `skyline.*`: BBS over the whole tree, then members removed one at a
/// time. Returns the initial skyline, by oid, for the TA section.
fn skyline(p: &mut Pass, engine: &Engine) -> Vec<Vec<f64>> {
    let tree = engine.tree();
    let mut sky = SkylineMaintainer::build(tree);
    for i in 0..3 {
        sky = p.rec.time("skyline.bbs_build", Some("sb.match"), i, || {
            SkylineMaintainer::build(tree)
        });
    }
    p.set_median("skyline.bbs_build_ms", "skyline.bbs_build", MS);
    let stats = sky.stats();
    p.m.insert("skyline.size", sky.len() as f64);
    p.m.insert("skyline.dominance_checks", stats.dominance_checks as f64);
    p.m.insert("skyline.nodes_expanded", stats.nodes_expanded as f64);

    let mut members: Vec<(u64, Vec<f64>)> = sky.iter().map(|e| (e.oid, e.point.to_vec())).collect();
    members.sort_by_key(|(oid, _)| *oid);
    for (i, (oid, _)) in members.iter().take(SKYLINE_REMOVALS).enumerate() {
        p.rec.time("skyline.remove", Some("sb.match"), i, || {
            sky.remove(&[*oid], tree)
        });
    }
    p.set_median("skyline.remove_us", "skyline.remove", US);
    members.into_iter().map(|(_, point)| point).collect()
}

/// `ta.*`: the reverse top-1 index of each request, probed with every
/// initial skyline point (SB's first round).
fn reverse_top1(p: &mut Pass, traced: &[Traced], skyline: &[Vec<f64>]) {
    let (mut calls, mut rounds, mut scored) = (0u64, 0u64, 0u64);
    let mut per_call_us = Vec::new();
    for (id, t) in traced.iter().enumerate() {
        let mut index = p.rec.time("ta.build", Some("sb.match"), id, || {
            ReverseTopOne::build(&t.fs)
        });
        let start = Instant::now();
        p.rec.time(
            "ta.best_for_each_skyline_point",
            Some("sb.match"),
            id,
            || {
                for point in skyline {
                    std::hint::black_box(index.best_for(&t.fs, point));
                }
            },
        );
        per_call_us.push(start.elapsed().as_secs_f64() * US / skyline.len().max(1) as f64);
        let stats = index.stats();
        calls += stats.calls;
        rounds += stats.rounds;
        scored += stats.functions_scored;
    }
    p.set_median("ta.build_us", "ta.build", US);
    p.m.insert("ta.best_for_us", median(&per_call_us));
    p.m.insert("ta.rounds_per_call", rounds as f64 / calls.max(1) as f64);
    p.m.insert(
        "ta.functions_scored_per_call",
        scored as f64 / calls.max(1) as f64,
    );
}

/// Everything that answers a match request, run **per request id, one
/// path after the other on the same input**: SB on a warmed scratch,
/// the paper's baselines, `engine.evaluate`, the seeded refinement, the
/// cache, a service ticket cold and cached, codec and HTTP framing, the
/// loopback round trip traced and untraced, the K=1 and K=4 shards.
/// Running the stack request by request keeps the paths of one request
/// within a second of each other, so what a layer adds over the one
/// below (`*.over_*`, `*_x`) is the median of per-request differences
/// and does not inherit the machine's minute-scale drift.
fn stack(
    p: &mut Pass,
    engine: &Arc<Engine>,
    objects: &PointSet,
    traced: &[Traced],
    scratch: &mut Scratch,
) -> Result<(), String> {
    let one_worker = ServiceConfig::default().workers(1);
    let cold = Arc::clone(engine).serve(one_worker.clone().cache_capacity(0));
    let cached = Arc::clone(engine).serve(one_worker);
    let (cold_client, cached_client) = (cold.client(), cached.client());
    let mut cache = ResultCache::new(256, 32 << 20);
    let versions = [engine.inventory_version()];

    // 1 client, 1 worker, cache off: the wire and nothing else.
    let config = TenantConfig {
        workers: 1,
        cache_capacity: 0,
        ..TenantConfig::default()
    };
    let (_server, mut http) = serve(engine, config)?;

    let build_shards = |p: &mut Pass, k, span| {
        p.rec
            .time(span, None, 0, || {
                ShardedEngine::builder().objects(objects).shards(k).build()
            })
            .map_err(|e| format!("{span}: {e}"))
    };
    let k1 = build_shards(p, 1, "shard.build_k1")?;
    let k4 = build_shards(p, 4, "shard.build_k4")?;
    let skipped_before = k4.skipped_shards();

    let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut count = |name: &'static str, value: f64| counts.entry(name).or_default().push(value);
    let mut untraced = Vec::new();
    for (id, t) in traced.iter().enumerate() {
        let base = request(engine, t);
        // Untimed first touch of this request: every timed path below
        // finds the CPU caches and the buffer pool as warm as the next.
        // It also captures the seed the refinement resumes from.
        let (matching, seed) = base
            .evaluate_seeded(scratch, None)
            .map_err(|e| format!("seed capture: {e}"))?;

        let sb = p
            .rec
            .time("sb.match", Some("engine.evaluate"), id, || {
                base.evaluate_with(scratch)
            })
            .map_err(|e| format!("sb: {e}"))?;
        let digest = digest_pairs(sb.pairs());
        count("sb.loops", sb.metrics().loops as f64);
        count("sb.rtop1_calls", sb.metrics().reverse_top1_calls as f64);

        for (algorithm, span, searches) in [
            (Algorithm::BruteForce, "bf.match", "bf.top1_searches"),
            (Algorithm::Chain, "chain.match", "chain.top1_searches"),
        ] {
            let m = p
                .rec
                .time(span, None, id, || {
                    request(engine, t)
                        .algorithm(algorithm)
                        .evaluate_with(scratch)
                })
                .map_err(|e| format!("{span}: {e}"))?;
            p.same(span, id, digest, digest_pairs(m.pairs()));
            count(searches, m.metrics().top1_searches as f64);
        }

        let m = p
            .rec
            .time("engine.evaluate", Some("service.ticket"), id, || {
                base.evaluate()
            })
            .map_err(|e| format!("engine: {e}"))?;
        p.same("engine.evaluate", id, digest, digest_pairs(m.pairs()));
        let io = m.metrics().io;
        count("rtree.logical_reads", io.logical as f64);
        count("rtree.physical_reads", io.physical_reads as f64);
        count("rtree.buffer_hit_ratio", io.hit_ratio());

        // The request refined by excluding two objects its answer had
        // assigned — a user declining two offers — resumed from the
        // seed the unrefined evaluation captured.
        let declined = matching.pairs().iter().take(2).map(|pair| pair.oid);
        let refined = request(engine, t).exclude(declined);
        p.rec
            .time("seed.evaluate_seeded", Some("service.ticket"), id, || {
                refined.evaluate_seeded(scratch, seed.as_ref())
            })
            .map_err(|e| format!("seeded: {e}"))?;

        let key = p
            .rec
            .time("cache.key", Some("service.ticket"), id, || base.cache_key());
        let seed = seed.map(Arc::new);
        p.rec.time("cache.insert", Some("service.ticket"), id, || {
            cache.insert_vec_seeded(&key, &versions, &matching, seed)
        });
        let hit = p.rec.time("cache.get_hit", Some("service.ticket"), id, || {
            cache.get(&key, versions[0])
        });
        match hit {
            Some(hit) => p.same("cache.get", id, digest, digest_pairs(hit.pairs())),
            None => p.fail(format!(
                "cache.get: request {id} missed right after its insert"
            )),
        }
        let refined_key = refined.cache_key();
        p.rec
            .time("cache.near_miss", Some("service.ticket"), id, || {
                cache.near_miss(&refined_key, &versions, 16)
            });

        let m = p
            .rec
            .time("service.ticket", Some("server.roundtrip"), id, || {
                cold_client.submit(request(engine, t))?.wait()
            })
            .map_err(|e| format!("service: {e}"))?;
        p.same("service.ticket", id, digest, digest_pairs(m.pairs()));
        let resubmit = || cached_client.submit(request(engine, t))?.wait();
        resubmit().map_err(|e| format!("service: {e}"))?;
        let m = p
            .rec
            .time("service.hit_ticket", Some("server.roundtrip"), id, resubmit)
            .map_err(|e| format!("service: {e}"))?;
        p.same("service.hit_ticket", id, digest, digest_pairs(m.pairs()));

        p.rec
            .time("codec.decode", Some("server.roundtrip"), id, || {
                decode_match_request(t.body.as_bytes())
            })
            .map_err(|e| format!("codec.decode: {e}"))?;
        let rendered = p
            .rec
            .time("codec.encode", Some("server.roundtrip"), id, || {
                encode_matching(&sb).render()
            });
        count("codec.request_bytes", t.body.len() as f64);
        count("codec.response_bytes", rendered.len() as f64);
        let framed = format!(
            "POST /t/t/match HTTP/1.1\r\nHost: mpq\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            t.body.len(),
            t.body
        );
        let mut parser = RequestParser::new(ParserLimits::default());
        let parsed = p.rec.time("http.parse", Some("server.roundtrip"), id, || {
            parser
                .feed(framed.as_bytes())
                .map(|()| parser.take_request())
        });
        if !matches!(parsed, Ok(Some(_))) {
            p.fail(format!("http.parse: request {id} did not parse"));
        }
        p.rec.time("http.write", Some("server.roundtrip"), id, || {
            Response::json(200, rendered).write_to(true)
        });

        let resp = p
            .rec
            .time("server.roundtrip", None, id, || {
                http.post_json("/t/t/match", &t.body)
            })
            .map_err(|e| format!("server: {e}"))?;
        match decode_pairs(&resp.body) {
            Ok(pairs) if resp.status == 200 => {
                p.same("server.roundtrip", id, digest, digest_pairs(&pairs))
            }
            _ => p.fail(format!(
                "server.roundtrip: request {id}: status {}",
                resp.status
            )),
        }
        // The same request again with no span recorded: the difference
        // between the two medians is what tracing costs.
        let start = Instant::now();
        let resp = http.post_json("/t/t/match", &t.body);
        untraced.push(start.elapsed().as_secs_f64() * MS);
        if !resp.is_ok_and(|r| r.status == 200) {
            p.fail("server.untraced_roundtrip: request failed");
        }

        for (sharded, span) in [(&k1, "shard.evaluate_k1"), (&k4, "shard.evaluate_k4")] {
            let m = p
                .rec
                .time(span, None, id, || sharded.evaluate(&t.fs))
                .map_err(|e| format!("{span}: {e}"))?;
            // `ShardedEngine::evaluate` takes no exclusions, so only a
            // request without them asks the shards the same question.
            if t.req.exclude.is_empty() {
                p.same(span, id, digest, digest_pairs(m.pairs()));
            }
        }
    }
    for i in 0..HEALTHZ_PROBES {
        let resp = p
            .rec
            .time("server.healthz", None, i, || http.get("/healthz"));
        if !resp.is_ok_and(|r| r.status == 200) {
            p.fail("server.healthz: not 200");
        }
    }
    let skipped = (k4.skipped_shards() - skipped_before) as f64 / traced.len() as f64;
    cold.shutdown();
    cached.shutdown();

    for (metric, span, scale) in [
        ("sb.match_ms", "sb.match", MS),
        ("bf.match_ms", "bf.match", MS),
        ("chain.match_ms", "chain.match", MS),
        ("engine.evaluate_ms", "engine.evaluate", MS),
        ("seed.evaluate_seeded_ms", "seed.evaluate_seeded", MS),
        ("cache.key_us", "cache.key", US),
        ("cache.insert_us", "cache.insert", US),
        ("cache.get_hit_us", "cache.get_hit", US),
        ("cache.near_miss_us", "cache.near_miss", US),
        ("service.ticket_ms", "service.ticket", MS),
        ("service.hit_ticket_us", "service.hit_ticket", US),
        ("codec.decode_us", "codec.decode", US),
        ("codec.encode_us", "codec.encode", US),
        ("http.parse_us", "http.parse", US),
        ("http.write_us", "http.write", US),
        ("server.roundtrip_ms", "server.roundtrip", MS),
        ("server.healthz_us", "server.healthz", US),
        ("shard.build_ms", "shard.build_k4", MS),
        ("shard.evaluate_k1_ms", "shard.evaluate_k1", MS),
        ("shard.evaluate_k4_ms", "shard.evaluate_k4", MS),
    ] {
        p.set_median(metric, span, scale);
    }
    for (name, values) in &counts {
        p.m.insert(name, median(values));
    }
    p.m.insert("server.untraced_roundtrip_ms", median(&untraced));
    p.m.insert("shard.skipped_per_match", skipped);

    // What a layer adds over the one below: per request, then the median.
    let s = &p.rec.samples;
    let paired = |f: &dyn Fn(usize) -> f64| median(&(0..traced.len()).map(f).collect::<Vec<_>>());
    let wire_s = |i: usize| {
        s["codec.decode"][i] + s["codec.encode"][i] + s["http.parse"][i] + s["http.write"][i]
    };
    let derived = [
        (
            "engine.over_sb_ms",
            paired(&|i| s["engine.evaluate"][i] - s["sb.match"][i]) * MS,
        ),
        (
            "service.over_engine_ms",
            paired(&|i| s["service.ticket"][i] - s["engine.evaluate"][i]) * MS,
        ),
        (
            "server.over_service_ms",
            paired(&|i| s["server.roundtrip"][i] - s["service.ticket"][i] - wire_s(i)) * MS,
        ),
        (
            "seed.speedup_x",
            paired(&|i| s["engine.evaluate"][i] / s["seed.evaluate_seeded"][i]),
        ),
        (
            "shard.k4_over_engine_x",
            paired(&|i| s["shard.evaluate_k4"][i] / s["engine.evaluate"][i]),
        ),
    ];
    p.m.extend(derived);
    Ok(())
}

/// `rtree.insert_us`, `rtree.remove_us`: the copy-on-write mutation
/// path with no WAL under it.
fn in_memory_mutations(
    p: &mut Pass,
    objects: &PointSet,
    mutations: &[Mutation],
) -> Result<(), String> {
    let engine = Engine::builder()
        .objects(objects)
        .build()
        .map_err(|e| e.to_string())?;
    for (i, mutation) in mutations.iter().enumerate() {
        let span = match mutation {
            Mutation::Insert { .. } => "rtree.insert",
            Mutation::Remove { .. } => "rtree.remove",
            Mutation::Update { .. } => "rtree.update",
        };
        p.rec
            .time(span, Some("engine.mutate"), i, || apply(&engine, mutation))?;
    }
    p.set_median("rtree.insert_us", "rtree.insert", US);
    p.set_median("rtree.remove_us", "rtree.remove", US);
    Ok(())
}

/// `wal.*`: append + fsync per record on a scratch file, then reopen.
fn wal(p: &mut Pass, mutations: &[Mutation]) -> Result<(), String> {
    let dir = state_dir("trace-wal");
    let path = dir.join("wal.mpq");
    let io = |e: std::io::Error| format!("wal: {e}");
    let (mut wal, _) = Wal::open(&path).map_err(io)?;
    for (i, mutation) in mutations.iter().enumerate() {
        // The log does not interpret records; any well-formed one of
        // the workload's dimensionality costs the same to append.
        let (oid, point) = match mutation {
            Mutation::Insert { oid, point } | Mutation::Update { oid, point } => {
                (*oid, point.clone())
            }
            Mutation::Remove { oid } => (*oid, vec![0.5; p.spec.dim]),
        };
        let record = WalRecord::Insert {
            oid,
            point: point.into(),
        };
        p.rec
            .time("wal.append_sync", Some("engine.mutate"), i, || {
                wal.append_sync(&record)
            })
            .map_err(io)?;
    }
    let bytes = wal.len_bytes();
    drop(wal);
    let (_, replayed) = p
        .rec
        .time("wal.open_replay", Some("engine.open_replay"), 0, || {
            Wal::open(&path)
        })
        .map_err(io)?;
    if replayed.len() != mutations.len() {
        p.fail(format!(
            "wal: replayed {} of {} records",
            replayed.len(),
            mutations.len()
        ));
    }
    let n = mutations.len() as f64;
    p.set_median("wal.append_sync_us", "wal.append_sync", US);
    p.m.insert("wal.bytes_per_record", bytes as f64 / n);
    p.m.insert(
        "wal.open_replay_us_per_rec",
        p.rec.median("wal.open_replay", US) / n,
    );
    remove_state_dir(&dir);
    Ok(())
}

/// The durable engine: mutations through WAL and page file, an
/// un-checkpointed reopen, a checkpoint, a checkpointed reopen — and
/// the tail of the mutations over HTTP.
fn durable(
    p: &mut Pass,
    objects: &PointSet,
    mutations: &[Mutation],
    direct: usize,
) -> Result<(), String> {
    let dir = state_dir("trace-durable");
    let engine = Engine::builder()
        .objects(objects)
        .data_dir(&dir)
        .build()
        .map_err(|e| format!("durable engine: {e}"))?;
    let before = engine.storage_stats();
    for (i, mutation) in mutations[..direct].iter().enumerate() {
        p.rec
            .time("engine.mutate", Some("server.mutate_roundtrip"), i, || {
                apply(&engine, mutation)
            })?;
    }
    let io = engine.storage_stats().since(before);
    p.set_median("engine.mutate_us", "engine.mutate", US);
    p.m.insert("wal.fsyncs_per_mutation", io.fsyncs as f64 / direct as f64);
    p.m.insert(
        "rtree.disk_writes_per_mutation",
        io.disk_writes as f64 / direct as f64,
    );

    let engine = Arc::new(engine);
    let (server, mut http) = serve(&engine, tenant_config(p.spec, 1))?;
    for (i, mutation) in mutations[direct..].iter().enumerate() {
        let body = mutation.body();
        let resp = p.rec.time("server.mutate_roundtrip", None, i, || {
            http.post_json("/t/t/mutate", &body)
        });
        if !resp.is_ok_and(|r| r.status == 200) {
            p.fail(format!(
                "server.mutate_roundtrip: mutation {i} not acknowledged"
            ));
        }
    }
    p.set_median("server.mutate_roundtrip_us", "server.mutate_roundtrip", US);
    let expected = engine.n_objects();
    drop(http);
    drop(server);
    drop(engine);

    let open = |p: &mut Pass, span| {
        p.rec
            .time(span, None, 0, || Engine::open(&dir))
            .map_err(|e| format!("{span}: {e}"))
    };
    let reopened = open(p, "engine.open_replay")?;
    if reopened.n_objects() != expected {
        p.fail(format!(
            "engine.open_replay: {} objects, {expected} before the restart",
            reopened.n_objects()
        ));
    }
    p.rec
        .time("engine.checkpoint", None, 0, || reopened.checkpoint())
        .map_err(|e| format!("checkpoint: {e}"))?;
    drop(reopened);
    drop(open(p, "engine.open_checkpointed")?);
    p.set_median("engine.open_replay_ms", "engine.open_replay", MS);
    p.set_median("engine.checkpoint_ms", "engine.checkpoint", MS);
    p.set_median(
        "engine.open_checkpointed_ms",
        "engine.open_checkpointed",
        MS,
    );
    remove_state_dir(&dir);
    Ok(())
}

fn write_spans(p: &Pass, seed: u64) -> Result<String, String> {
    let path = state_root().join(format!("trace-{}.json", p.spec.name));
    let spans = p
        .rec
        .spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.into())),
                ("workload", Json::Str(p.spec.name.into())),
                ("request_id", Json::Num(s.request_id as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |n| Json::Str(n.into())),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("schema", Json::Str("mpq.bench.ledger.spans/1".into())),
        ("workload", Json::Str(p.spec.name.into())),
        ("seed", Json::Num(seed as f64)),
        ("spans", Json::Arr(spans)),
    ]);
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// The ledger table: layer · absolute · over the layer below · share of
/// `server.roundtrip_ms`.
fn table(p: &Pass, seed: u64, n_requests: usize) -> String {
    let m = &p.m;
    let codec_ms = (m["codec.decode_us"] + m["codec.encode_us"]) / 1e3;
    let http_ms = (m["http.parse_us"] + m["http.write_us"]) / 1e3;
    let total = m["server.roundtrip_ms"];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ledger · {} · seed {seed} · medians over {n_requests} requests, 1 thread",
        p.spec.name
    );
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>14} {:>8}",
        "layer", "absolute ms", "over below ms", "share"
    );
    let stack = [
        (
            "skyline.bbs_build",
            m["skyline.bbs_build_ms"],
            m["skyline.bbs_build_ms"],
        ),
        ("sb.match", m["sb.match_ms"], m["sb.over_bbs_ms"]),
        (
            "engine.evaluate",
            m["engine.evaluate_ms"],
            m["engine.over_sb_ms"],
        ),
        (
            "service.ticket",
            m["service.ticket_ms"],
            m["service.over_engine_ms"],
        ),
        ("codec decode+encode", codec_ms, codec_ms),
        ("http parse+write", http_ms, http_ms),
        ("server.roundtrip", total, m["server.over_service_ms"]),
    ];
    for (layer, absolute, over) in stack {
        let _ = writeln!(
            out,
            "{layer:<24} {absolute:>12.4} {over:>14.4} {:>7.1}%",
            100.0 * over / total
        );
    }
    let _ = writeln!(out, "beside the stack (ms; x = times engine.evaluate):");
    for (layer, value, note) in [
        (
            "seed.evaluate_seeded",
            m["seed.evaluate_seeded_ms"],
            format!("{:.2}x faster", m["seed.speedup_x"]),
        ),
        (
            "service.hit_ticket",
            m["service.hit_ticket_us"] / 1e3,
            String::new(),
        ),
        (
            "shard.evaluate_k1",
            m["shard.evaluate_k1_ms"],
            String::new(),
        ),
        (
            "shard.evaluate_k4",
            m["shard.evaluate_k4_ms"],
            format!("{:.2}x", m["shard.k4_over_engine_x"]),
        ),
        ("bf.match", m["bf.match_ms"], String::new()),
        ("chain.match", m["chain.match_ms"], String::new()),
        (
            "engine.mutate",
            m["engine.mutate_us"] / 1e3,
            format!("{:.4} over the WAL", m["engine.mutate_over_wal_us"] / 1e3),
        ),
        (
            "server.untraced_roundtrip",
            m["server.untraced_roundtrip_ms"],
            "tracing off".to_string(),
        ),
    ] {
        let _ = writeln!(out, "{layer:<24} {value:>12.4}   {note}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// Two passes of one seed agree on every count; timings may differ.
    #[test]
    fn counts_repeat_exactly() {
        let spec: &'static WorkloadSpec = Box::leak(Box::new(WorkloadSpec {
            objects: 300,
            functions: 8,
            trace_requests: 8,
            ..WORKLOADS[3]
        }));
        let (a, b) = (counts_of(spec), counts_of(spec));
        assert_eq!(a, b);
        assert!(a["sb.loops"] > 0.0 && a["skyline.size"] > 0.0);
    }

    fn counts_of(spec: &'static WorkloadSpec) -> BTreeMap<&'static str, f64> {
        let outcome = run(spec, 5, true).expect("traced pass");
        assert_eq!(outcome.problems, Vec::<String>::new());
        assert!(outcome.attempted > 0);
        PER_LAYER
            .iter()
            .filter(|(_, unit, _)| ["count", "bytes"].contains(unit))
            .map(|(name, ..)| (*name, outcome.metrics[name]))
            .collect()
    }
}
