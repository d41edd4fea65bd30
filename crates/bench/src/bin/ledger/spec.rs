//! The ledger's fixed tables: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metric names. These names are the
//! contract later PRs are judged by (`BENCHMARK.json` mirrors them and a
//! unit test below asserts the two agree name for name), so they never
//! change once merged.

use mpq_core::json::Json;
use mpq_datagen::Distribution;

use Better::{Higher, Lower};

/// Output schema tag of `ledger run` / `ledger trace` documents.
pub const SCHEMA: &str = "mpq.bench.ledger/1";

/// Default `--seed`; acceptance also uses 4242.
pub const DEFAULT_SEED: u64 = 2009;

/// Measured window of a full `ledger run`, seconds.
pub const FULL_WINDOW_S: f64 = 24.0;
/// Measured window under `--quick`, seconds.
pub const QUICK_WINDOW_S: f64 = 3.0;

/// A failed request never returns later than this.
pub const REQUEST_TIMEOUT_S: u64 = 120;

/// How a workload's request stream is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Every request a fresh function set; never repeats.
    Batch,
    /// Per-client refinement stream: 40 % repeat / 40 % near-miss /
    /// 20 % new over the client's last 16 requests.
    Interactive,
    /// One connection alternates a mutation and a read from a fixed
    /// pool of 8.
    MutateMix,
}

/// One benchmark workload. Sizes are fixed; only the seed varies.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub objects: usize,
    pub dim: usize,
    pub distribution: Distribution,
    /// Functions per match request.
    pub functions: usize,
    /// `TenantConfig::shards`.
    pub shards: usize,
    /// Host through `add_persistent` (WAL + page file).
    pub persistent: bool,
    pub stream: Stream,
    /// Requests the traced pass replays through every layer.
    pub trace_requests: usize,
}

/// Mutations the traced pass applies in its write-path sections.
pub const TRACE_MUTATIONS: usize = 512;

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "batch_indep",
        why: "large |F| on independent data: reverse-top-1 TA scans and skyline maintenance do nearly all the work; service, net and cache are under 2 % and must not move",
        objects: 200_000,
        dim: 4,
        distribution: Distribution::Independent,
        functions: 1000,
        shards: 1,
        persistent: false,
        stream: Stream::Batch,
        trace_requests: 16,
    },
    WorkloadSpec {
        name: "batch_anti",
        why: "anti-correlated data: a skyline of thousands makes BBS build and dominance checks about half the evaluation, so a skyline gain shows here and a TA gain on batch_indep",
        objects: 100_000,
        dim: 4,
        distribution: Distribution::AntiCorrelated,
        functions: 200,
        shards: 1,
        persistent: false,
        stream: Stream::Batch,
        trace_requests: 16,
    },
    WorkloadSpec {
        name: "sharded_k4",
        why: "same inventory and requests as batch_indep behind 4 shards: the difference between the two is the cost of the scatter-gather merge alone",
        objects: 200_000,
        dim: 4,
        distribution: Distribution::Independent,
        functions: 1000,
        shards: 4,
        persistent: false,
        stream: Stream::Batch,
        trace_requests: 16,
    },
    WorkloadSpec {
        name: "interactive",
        why: "refinement stream (40 % repeat, 40 % near-miss, 20 % new) of 40-function requests: service, cache, seed, codec, http and server do most of the work, the index little",
        objects: 40_000,
        dim: 3,
        distribution: Distribution::Independent,
        functions: 40,
        shards: 1,
        persistent: false,
        stream: Stream::Interactive,
        trace_requests: 256,
    },
    WorkloadSpec {
        name: "mutate_mix",
        why: "a mutation before every read on a persistent tenant: WAL fsync, COW R-tree mutation, cache revalidation, then an un-checkpointed reopen; a read gain that taxes writes shows here",
        objects: 40_000,
        dim: 3,
        distribution: Distribution::Independent,
        functions: 40,
        shards: 1,
        persistent: true,
        stream: Stream::MutateMix,
        trace_requests: 64,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and its one regression bound. `ledger compare`
/// and the pipeline (`BENCHMARK.json`, rendered by [`benchmark_json`])
/// both read this table and nothing else.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the base's median by which the metric may worsen.
    /// `None`: **demoted** — reported by every run, gated nowhere,
    /// because reruns of one commit on the build container move it by
    /// more than any bound the pipeline allows (README, "What is
    /// gated", and RUNS.md for the runs behind each demotion).
    pub bound: Option<f64>,
    /// Absolute slack in the metric's unit, applied by `compare` beside
    /// the share (a worsening must exceed both): set-ups are tens of
    /// milliseconds, where a share alone gates scheduler noise. The
    /// pipeline has no such field; there the share stands alone.
    pub floor: f64,
    /// Reported by every workload; the others are `null` outside
    /// `mutate_mix`.
    pub everywhere: bool,
    /// Listed in `BENCHMARK.json`'s `end_to_end`, with the same bound.
    /// The pipeline compares medians over runs of *different* seeds and
    /// wants a non-zero number on every workload, so a gated metric
    /// stays out when it is `null` somewhere, when it is 0 on a clean
    /// run (`failed_share`: its verdict travels in the result line's
    /// `failed` key), or when it is a property of the seed's inventory
    /// (`io_per_match` repeats to 2 % for one seed and differs by a
    /// quarter between seeds: `compare`, which takes one seed only, can
    /// hold it to its bound; the pipeline cannot).
    pub pipeline: bool,
}

/// The widest bound the pipeline allows, which must also exceed the
/// spread between ten runs of different seeds.
const WIDEST: Option<f64> = Some(0.25);
const DEMOTED: Option<f64> = None;

/// The twelve end-to-end metrics, in report order. `failed_share` has
/// bound 0: any increase is a regression.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Lower, WIDEST, 0.05, true, true),
    e2e("match_p50_ms", "ms", Lower, DEMOTED, 0.0, true, false),
    e2e("match_p90_ms", "ms", Lower, DEMOTED, 0.0, true, false),
    e2e("match_per_s", "1/s", Higher, DEMOTED, 0.0, true, false),
    e2e("mutate_p50_ms", "ms", Lower, DEMOTED, 0.0, false, false),
    e2e("mutate_p90_ms", "ms", Lower, DEMOTED, 0.0, false, false),
    e2e("mutate_per_s", "1/s", Higher, DEMOTED, 0.0, false, false),
    e2e("reopen_us_per_rec", "us", Lower, DEMOTED, 0.0, false, false),
    e2e("io_per_match", "pages", Lower, Some(0.05), 0.0, true, false),
    e2e("cpu_ms_per_match", "ms", Lower, DEMOTED, 0.0, true, false),
    e2e("peak_rss_mb", "MiB", Lower, WIDEST, 0.0, true, true),
    e2e("failed_share", "ratio", Lower, Some(0.0), 0.0, true, false),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    floor: f64,
    everywhere: bool,
    pipeline: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
        everywhere,
        pipeline,
    }
}

/// Per-layer metrics of the traced pass, `<layer>.<metric>`, with unit
/// and direction. Every workload's traced pass emits every one of them
/// as a number: the pipeline's `--trace 1` line must carry each, so a
/// section runs on a workload's inventory even where the workload's own
/// traffic never enters that layer.
pub const PER_LAYER: [(&str, &str, Better); 68] = [
    ("datagen.generate_ms", "ms", Lower),
    ("rtree.bulk_load_ms", "ms", Lower),
    ("rtree.pages", "count", Lower),
    ("rtree.top1_us", "us", Lower),
    ("rtree.top1_node_reads", "count", Lower),
    ("rtree.buffer_hit_ratio", "ratio", Higher),
    ("rtree.logical_reads", "count", Lower),
    ("rtree.physical_reads", "count", Lower),
    ("rtree.insert_us", "us", Lower),
    ("rtree.remove_us", "us", Lower),
    ("skyline.bbs_build_ms", "ms", Lower),
    ("skyline.size", "count", Lower),
    ("skyline.dominance_checks", "count", Lower),
    ("skyline.nodes_expanded", "count", Lower),
    ("skyline.remove_us", "us", Lower),
    ("ta.build_us", "us", Lower),
    ("ta.best_for_us", "us", Lower),
    ("ta.rounds_per_call", "count", Lower),
    ("ta.functions_scored_per_call", "count", Lower),
    ("sb.match_ms", "ms", Lower),
    ("sb.loops", "count", Lower),
    ("sb.rtop1_calls", "count", Lower),
    ("sb.over_bbs_ms", "ms", Lower),
    ("bf.match_ms", "ms", Lower),
    ("bf.top1_searches", "count", Lower),
    ("chain.match_ms", "ms", Lower),
    ("chain.top1_searches", "count", Lower),
    ("engine.functions_from_rows_us", "us", Lower),
    ("engine.evaluate_ms", "ms", Lower),
    ("engine.over_sb_ms", "ms", Lower),
    ("seed.evaluate_seeded_ms", "ms", Lower),
    ("seed.speedup_x", "x", Higher),
    ("cache.key_us", "us", Lower),
    ("cache.get_hit_us", "us", Lower),
    ("cache.insert_us", "us", Lower),
    ("cache.near_miss_us", "us", Lower),
    ("service.ticket_ms", "ms", Lower),
    ("service.over_engine_ms", "ms", Lower),
    ("service.hit_ticket_us", "us", Lower),
    ("shard.build_ms", "ms", Lower),
    ("shard.evaluate_k1_ms", "ms", Lower),
    ("shard.evaluate_k4_ms", "ms", Lower),
    ("shard.k4_over_engine_x", "x", Lower),
    ("shard.skipped_per_match", "count", Higher),
    ("wal.append_sync_us", "us", Lower),
    ("wal.bytes_per_record", "bytes", Lower),
    ("wal.open_replay_us_per_rec", "us", Lower),
    ("engine.mutate_us", "us", Lower),
    ("engine.mutate_over_wal_us", "us", Lower),
    ("wal.fsyncs_per_mutation", "count", Lower),
    ("rtree.disk_writes_per_mutation", "count", Lower),
    ("engine.checkpoint_ms", "ms", Lower),
    ("engine.open_replay_ms", "ms", Lower),
    ("engine.open_checkpointed_ms", "ms", Lower),
    ("codec.decode_us", "us", Lower),
    ("codec.encode_us", "us", Lower),
    ("codec.request_bytes", "bytes", Lower),
    ("codec.response_bytes", "bytes", Lower),
    ("http.parse_us", "us", Lower),
    ("http.write_us", "us", Lower),
    ("server.roundtrip_ms", "ms", Lower),
    ("server.untraced_roundtrip_ms", "ms", Lower),
    ("server.over_service_ms", "ms", Lower),
    ("server.healthz_us", "us", Lower),
    // One acknowledged `POST /mutate` against a persistent copy of the
    // workload's inventory, 1 client: the write path as the server sees it.
    ("server.mutate_roundtrip_us", "us", Lower),
    ("trace.spans", "count", Higher),
    ("trace.requests", "count", Higher),
    ("trace.mutations", "count", Higher),
];

/// What the pipeline measures in one run, seconds (`--seconds`).
pub const PIPELINE_RUN_S: f64 = 10.0;

/// `BENCHMARK.json`, rendered from the tables above (`ledger spec`
/// prints it; a unit test holds the committed file to it).
pub fn benchmark_json() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str((*s).into())).collect());
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::Str(name.into())),
            ("unit", Json::Str(unit.into())),
            ("better", Json::Str(better.as_str().into())),
        ]
    };
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "crates/bench/src/bin/ledger/Cargo.toml",
                "--",
                "bench",
            ]),
        ),
        ("paths", strs(&["crates/bench/src/bin/ledger"])),
        ("run_seconds", Json::Num(PIPELINE_RUN_S)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.pipeline)
                    .map(|m| {
                        let mut entry = named(m.name, m.unit, m.better);
                        let bound = m.bound.expect("a pipeline metric is gated");
                        entry.push(("bound", Json::Num(bound)));
                        Json::obj(entry)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| Json::obj(named(name, unit, *better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json` is what the tables render to:
    /// name for name, unit for unit, bound for bound.
    #[test]
    fn benchmark_json_matches_the_tables() {
        // The repo root is above this package's manifest, whichever of
        // the two packages holding this file is being tested.
        let text = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find_map(|dir| std::fs::read_to_string(dir.join("BENCHMARK.json")).ok())
            .expect("BENCHMARK.json at the repo root");
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json(), "regenerate with `ledger spec`");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|(n, ..)| *n));
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        for name in all {
            assert!(name.len() <= 64);
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        // The pipeline caps a bound at a quarter, needs `setup_s`, and
        // takes only non-zero numbers every workload reports.
        assert!(END_TO_END.iter().filter_map(|m| m.bound).all(|b| b <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.pipeline));
        for m in END_TO_END.iter().filter(|m| m.pipeline) {
            assert!(
                m.everywhere && m.bound.is_some_and(|b| b > 0.0),
                "{}",
                m.name
            );
        }
    }
}
