//! `chaos` — fault survival, degraded-mode goodput and recovery time
//! (`BENCH_pr8.json`, schema `mpq.bench.chaos/1`):
//!
//! 1. **Fault-survival matrix** — a targeted fault (error, torn write,
//!    ENOSPC, bit flip) is injected into each durability op class
//!    (WAL write, WAL fsync, page write, page fsync) mid-workload; the
//!    engine is reopened and must serve matchings bit-identical to an
//!    in-memory reference that applied exactly the acknowledged
//!    mutations. No injected fault may panic.
//! 2. **Crash-point sweep** — a simulated crash (torn op + every later
//!    durability op failing) at sampled scheduled durability ops, with
//!    the same recovered-equals-acked bar.
//! 3. **Degraded-mode goodput** — read throughput over live HTTP
//!    against a healthy tenant versus the same tenant wedged into
//!    degraded mode (mutations 503, reads serving); the target is
//!    degraded >= 50% of healthy.
//! 4. **Recovery time** — once the storage heals, how long until the
//!    engine, repaired by a due checkpoint of the tenant's repair loop,
//!    reports `healthy` again and mutations commit.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpq_bench::identical_matchings;
use mpq_bench::json::Json;
use mpq_core::{Engine, Matching, MpqError};
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_net::{HttpClient, Server, ServerConfig, TenantConfig, TenantRegistry};
use mpq_rtree::{FaultInjector, FaultKind, FaultOp, PointSet};
use mpq_ta::FunctionSet;

use crate::artifact::{Must, Rule, Series};

const TARGET_GOODPUT_RATIO: f64 = 0.5;
const DIM: usize = 3;
const MUTATIONS: usize = 12;

struct Size {
    objects: usize,
    functions_per_request: usize,
    sweep_points: usize,
    read_requests: usize,
}

const QUICK: Size = Size {
    objects: 2_000,
    functions_per_request: 12,
    sweep_points: 12,
    read_requests: 60,
};

const FULL: Size = Size {
    objects: 10_000,
    functions_per_request: 24,
    sweep_points: 48,
    read_requests: 300,
};

pub const SERIES: Series = Series {
    name: "chaos",
    schema: "mpq.bench.chaos/1",
    default_out: "BENCH_pr8.json",
    run,
    rules: &[
        Rule("workload.objects", Must::Num),
        Rule("workload.mutations", Must::Num),
        Rule("workload.functions_per_request", Must::Num),
        Rule("workload.read_requests", Must::Num),
        Rule("workload.dim", Must::Num),
        Rule(
            "fault_matrix.cells",
            Must::Rows(
                1,
                &[
                    Rule("op", Must::Str),
                    Rule("kind", Must::Str),
                    Rule("survived", Must::Bool),
                    Rule("panicked", Must::Bool),
                ],
            ),
        ),
        Rule(
            "fault_matrix.survived",
            Must::NoLessThan("fault_matrix.total"),
        ),
        Rule("crash_sweep.scheduled_durability_ops", Must::Num),
        Rule(
            "crash_sweep.recovered",
            Must::NoLessThan("crash_sweep.sampled"),
        ),
        Rule("degraded_mode.healthy_goodput_rps", Must::Min(0.0)),
        Rule("degraded_mode.degraded_goodput_rps", Must::Min(0.0)),
        Rule("degraded_mode.recovery_secs", Must::Min(0.0)),
        Rule("degraded_mode.mutation_503_with_retry_after", Must::True),
        Rule("degraded_mode.recovered", Must::True),
        Rule("degraded_mode.mutations_after_recovery", Must::True),
        Rule(
            "degraded_mode.goodput_ratio",
            Must::NoLessThan("acceptance.target_goodput_ratio"),
        ),
        // an injected fault that panics a worker is a failed run
        Rule("acceptance.injected_panics", Must::Max(0.0)),
        Rule("acceptance.achieved", Must::Bool),
    ],
    summary: &[
        "fault_matrix.survived",
        "fault_matrix.total",
        "crash_sweep.recovered",
        "crash_sweep.sampled",
        "degraded_mode.goodput_ratio",
        "acceptance.achieved",
    ],
};

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mpq_bench_chaos_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic mutation workload both phases replay: an
/// insert/update/remove rotation over a private point stream.
struct MutationWorkload {
    extra: Vec<Vec<f64>>,
}

impl MutationWorkload {
    fn new() -> MutationWorkload {
        let w = WorkloadBuilder::new()
            .objects(MUTATIONS)
            .functions(1)
            .dim(DIM)
            .distribution(Distribution::Independent)
            .seed(777)
            .build();
        MutationWorkload {
            extra: w.objects.iter().map(|(_, p)| p.to_vec()).collect(),
        }
    }

    /// Apply op `i` to `engine`. Targets only pre-existing base oids
    /// and this workload's own inserts, so any acknowledged prefix is
    /// replayable on a reference engine.
    fn apply(&self, engine: &Engine, i: usize) -> Result<(), MpqError> {
        match i % 3 {
            0 | 1 => engine.insert_object(&self.extra[i]).map(|_| ()),
            _ => engine.remove_object((i / 3) as u64),
        }
    }

    /// Run ops 0..n, tolerating failures; returns the indices of the
    /// acknowledged (committed) ops, in order. A one-shot mid-workload
    /// fault leaves a hole (later ops commit again); a crash fails
    /// every op from the crash point on. `checkpoint` folds the WAL
    /// into the page file at the end — the matrix trials skip it so
    /// reopening exercises WAL replay, not the checkpoint.
    fn run(&self, engine: &Engine, n: usize, checkpoint: bool) -> Vec<usize> {
        let mut acked = Vec::new();
        for i in 0..n {
            if self.apply(engine, i).is_ok() {
                acked.push(i);
            }
        }
        if checkpoint {
            let _ = engine.checkpoint();
        }
        acked
    }
}

fn reference_matching(
    base: &PointSet,
    workload: &MutationWorkload,
    acked: &[usize],
    fs: &FunctionSet,
) -> Matching {
    let engine = Engine::builder()
        .objects(base)
        .build()
        .expect("valid base objects");
    for &i in acked {
        workload.apply(&engine, i).expect("reference replay");
    }
    engine.request(fs).evaluate().expect("valid request")
}

/// One survival trial: build a disk engine, arm `arm`, run the
/// workload, reopen, compare to the acked-prefix reference. Returns
/// `(acked, survived, panicked)`.
///
/// `exact` demands the reopened state equal exactly the acked ops. The
/// one fault that legitimately cannot meet that bar is a **silent**
/// WAL corruption (bit flip the device acknowledged): replay truncates
/// the log at the bad CRC, so later acked ops are lost — there the bar
/// is `exact = false`: the reopened state must equal *some* prefix of
/// the acked ops (nothing reordered, nothing invented, no garbage
/// served).
fn survival_trial(
    base: &PointSet,
    workload: &MutationWorkload,
    fs: &FunctionSet,
    checkpoint: bool,
    exact: bool,
    arm: impl FnOnce(&FaultInjector),
) -> (usize, bool, bool) {
    let dir = tmp_dir("trial");
    let inj = FaultInjector::shared();
    let engine = Engine::builder()
        .objects(base)
        .data_dir(&dir)
        .fault_injector(Arc::clone(&inj))
        .build()
        .expect("valid base objects");
    inj.reset();
    arm(&inj);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        workload.run(&engine, MUTATIONS, checkpoint)
    }));
    drop(engine);
    inj.clear();
    let (acked, panicked) = match outcome {
        Ok(acked) => (acked, false),
        Err(_) => (Vec::new(), true),
    };
    let survived = !panicked
        && match Engine::open(&dir) {
            Ok(reopened) => {
                let got = reopened.request(fs).evaluate().expect("valid request");
                if exact {
                    identical_matchings(&got, &reference_matching(base, workload, &acked, fs))
                } else {
                    (0..=acked.len()).rev().any(|n| {
                        identical_matchings(
                            &got,
                            &reference_matching(base, workload, &acked[..n], fs),
                        )
                    })
                }
            }
            Err(_) => false,
        };
    let _ = std::fs::remove_dir_all(&dir);
    (acked.len(), survived, panicked)
}

fn run(quick: bool, cores: usize) -> Vec<(&'static str, Json)> {
    let cfg = if quick { &QUICK } else { &FULL };
    println!(
        "chaos: |O|={} mutations={MUTATIONS} |F|/req={} sweep={} reads={} D={DIM} cores={cores}",
        cfg.objects, cfg.functions_per_request, cfg.sweep_points, cfg.read_requests,
    );

    let w = WorkloadBuilder::new()
        .objects(cfg.objects)
        .functions(cfg.functions_per_request)
        .dim(DIM)
        .distribution(Distribution::Independent)
        .seed(2009)
        .build();
    let base = w.objects;
    let fs = w.functions;
    let workload = MutationWorkload::new();

    // 1. Fault-survival matrix: one targeted fault per durability op
    // class x fault kind, armed mid-workload.
    let mid = (MUTATIONS / 2) as u64;
    let matrix_cells: Vec<(&str, &str, FaultOp, FaultKind)> = vec![
        ("wal_write", "error", FaultOp::WalWrite, FaultKind::Error),
        ("wal_write", "torn", FaultOp::WalWrite, FaultKind::Torn),
        ("wal_write", "enospc", FaultOp::WalWrite, FaultKind::Enospc),
        (
            "wal_write",
            "bit_flip",
            FaultOp::WalWrite,
            FaultKind::BitFlip,
        ),
        ("wal_sync", "error", FaultOp::WalSync, FaultKind::Error),
        ("page_write", "error", FaultOp::PageWrite, FaultKind::Error),
        ("page_write", "torn", FaultOp::PageWrite, FaultKind::Torn),
        (
            "page_write",
            "enospc",
            FaultOp::PageWrite,
            FaultKind::Enospc,
        ),
        ("page_sync", "error", FaultOp::PageSync, FaultKind::Error),
    ];
    let mut matrix = Vec::new();
    let mut matrix_survived = 0usize;
    let mut panics = 0usize;
    let t = Instant::now();
    for (op_name, kind_name, op, kind) in &matrix_cells {
        let exact = !matches!(kind, FaultKind::BitFlip);
        let (acked, survived, panicked) =
            survival_trial(&base, &workload, &fs, false, exact, |inj| {
                inj.fail_nth(*op, mid, *kind);
            });
        if survived {
            matrix_survived += 1;
        }
        if panicked {
            panics += 1;
        }
        println!(
            "  matrix {op_name}/{kind_name}: acked {acked}/{} survived={survived}",
            MUTATIONS
        );
        matrix.push(Json::obj([
            ("op", Json::Str((*op_name).into())),
            ("kind", Json::Str((*kind_name).into())),
            ("acked", Json::Num(acked as f64)),
            ("survived", Json::Bool(survived)),
            ("panicked", Json::Bool(panicked)),
        ]));
    }
    let matrix_secs = t.elapsed().as_secs_f64();

    // 2. Crash-point sweep over sampled durability-op ordinals.
    let total_ops = {
        let dir = tmp_dir("dry");
        let inj = FaultInjector::shared();
        let engine = Engine::builder()
            .objects(&base)
            .data_dir(&dir)
            .fault_injector(Arc::clone(&inj))
            .build()
            .expect("valid base objects");
        inj.reset();
        workload.run(&engine, MUTATIONS, true);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        inj.durability_ops()
    };
    let points = cfg.sweep_points.max(1).min(total_ops as usize);
    let stride = (total_ops as usize / points).max(1);
    let mut sweep_survived = 0usize;
    let mut sweep_tried = 0usize;
    let t = Instant::now();
    for k in (0..total_ops).step_by(stride) {
        let (_, survived, panicked) = survival_trial(&base, &workload, &fs, true, true, |inj| {
            inj.crash_at(k);
        });
        sweep_tried += 1;
        if survived {
            sweep_survived += 1;
        }
        if panicked {
            panics += 1;
        }
    }
    let sweep_secs = t.elapsed().as_secs_f64();
    println!(
        "  crash sweep: {sweep_survived}/{sweep_tried} sampled crash points recovered \
         (of {total_ops} scheduled durability ops) in {sweep_secs:.2}s"
    );

    // 3 + 4. Degraded-mode goodput and recovery over live HTTP.
    let dir = tmp_dir("http");
    let inj = FaultInjector::shared();
    let engine = Engine::builder()
        .objects(&base)
        .data_dir(&dir)
        .fault_injector(Arc::clone(&inj))
        .build()
        .expect("valid base objects");
    let mut registry = TenantRegistry::new();
    registry
        .add_engine("bench", Arc::new(engine), TenantConfig::default())
        .expect("valid tenant");
    let server = Server::bind(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            poll_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).expect("connect");

    // A pool of distinct requests, reused identically in both phases
    // (the result cache is part of the serving path by design).
    let pool: Vec<String> = (0..8)
        .map(|i| {
            let fs = WorkloadBuilder::new()
                .objects(1)
                .functions(cfg.functions_per_request)
                .dim(DIM)
                .seed(60_000 + i as u64)
                .build()
                .functions;
            let rows: Vec<Json> = (0..fs.len() as u32)
                .map(|fid| Json::Arr(fs.weights(fid).iter().map(|w| Json::Num(*w)).collect()))
                .collect();
            format!(r#"{{"functions":{}}}"#, Json::Arr(rows).render())
        })
        .collect();
    let read_phase = |client: &mut HttpClient, label: &str| -> f64 {
        let t = Instant::now();
        for i in 0..cfg.read_requests {
            let resp = client
                .post_json("/t/bench/match", &pool[i % pool.len()])
                .expect("read request");
            assert_eq!(resp.status, 200, "{label} read failed: {}", resp.text());
        }
        cfg.read_requests as f64 / t.elapsed().as_secs_f64().max(f64::MIN_POSITIVE)
    };
    let healthy_goodput = read_phase(&mut client, "healthy");

    // Wedge the engine (append + rollback both fail) and keep the
    // repair failing too, so the tenant stays degraded while we measure.
    inj.fail_nth(FaultOp::WalSync, 0, FaultKind::Error);
    inj.fail_nth(FaultOp::WalRollback, 0, FaultKind::Error);
    inj.fail_from(FaultOp::PageSync, 0, FaultKind::Error);
    let resp = client
        .post_json(
            "/t/bench/mutate",
            r#"{"op":"insert","point":[0.5,0.5,0.5]}"#,
        )
        .expect("mutate request");
    let degraded_503 = resp.status == 503 && resp.header("retry-after").is_some();
    let degraded_goodput = read_phase(&mut client, "degraded");
    let goodput_ratio = degraded_goodput / healthy_goodput.max(f64::MIN_POSITIVE);
    println!(
        "  goodput: healthy {healthy_goodput:.0}/s degraded {degraded_goodput:.0}/s \
         ratio {goodput_ratio:.2} (mutation 503+Retry-After={degraded_503})"
    );

    // Heal the device; the next repair the engine paces (a checkpoint
    // the tenant's repair loop runs when due) must restore healthy
    // service on its own.
    inj.clear();
    let t = Instant::now();
    let recovery_deadline = Instant::now() + Duration::from_secs(30);
    let recovered = loop {
        let resp = client.get("/healthz").expect("healthz");
        if resp.text().contains(r#""bench":"healthy""#) {
            break true;
        }
        if Instant::now() > recovery_deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let recovery_secs = t.elapsed().as_secs_f64();
    let resp = client
        .post_json(
            "/t/bench/mutate",
            r#"{"op":"insert","point":[0.5,0.5,0.5]}"#,
        )
        .expect("mutate request");
    let mutations_after_recovery = resp.status == 200;
    println!(
        "  recovery: healthy after {recovery_secs:.2}s, \
         mutations accepted again={mutations_after_recovery}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let achieved = matrix_survived == matrix_cells.len()
        && sweep_survived == sweep_tried
        && panics == 0
        && degraded_503
        && goodput_ratio >= TARGET_GOODPUT_RATIO
        && recovered
        && mutations_after_recovery;
    let workload = Json::obj([
        ("style", Json::Str("fault-injection".into())),
        ("distribution", Json::Str("independent".into())),
        ("objects", Json::Num(cfg.objects as f64)),
        ("mutations", Json::Num(MUTATIONS as f64)),
        (
            "functions_per_request",
            Json::Num(cfg.functions_per_request as f64),
        ),
        ("read_requests", Json::Num(cfg.read_requests as f64)),
        ("dim", Json::Num(DIM as f64)),
    ]);
    vec![
        ("workload", workload),
        (
            "fault_matrix",
            Json::obj([
                ("cells", Json::Arr(matrix)),
                ("survived", Json::Num(matrix_survived as f64)),
                ("total", Json::Num(matrix_cells.len() as f64)),
                ("wall_secs", Json::Num(matrix_secs)),
            ]),
        ),
        (
            "crash_sweep",
            Json::obj([
                ("scheduled_durability_ops", Json::Num(total_ops as f64)),
                ("sampled", Json::Num(sweep_tried as f64)),
                ("recovered", Json::Num(sweep_survived as f64)),
                ("wall_secs", Json::Num(sweep_secs)),
            ]),
        ),
        (
            "degraded_mode",
            Json::obj([
                ("healthy_goodput_rps", Json::Num(healthy_goodput)),
                ("degraded_goodput_rps", Json::Num(degraded_goodput)),
                ("goodput_ratio", Json::Num(goodput_ratio)),
                ("mutation_503_with_retry_after", Json::Bool(degraded_503)),
                ("recovery_secs", Json::Num(recovery_secs)),
                ("recovered", Json::Bool(recovered)),
                (
                    "mutations_after_recovery",
                    Json::Bool(mutations_after_recovery),
                ),
            ]),
        ),
        (
            "acceptance",
            Json::obj([
                (
                    "criterion",
                    Json::Str(format!(
                        "every injected fault survives with acked-prefix recovery and \
                         no panics; degraded read goodput >= {TARGET_GOODPUT_RATIO} of \
                         healthy; the engine's repair restores mutations"
                    )),
                ),
                ("target_goodput_ratio", Json::Num(TARGET_GOODPUT_RATIO)),
                ("measured_goodput_ratio", Json::Num(goodput_ratio)),
                ("injected_panics", Json::Num(panics as f64)),
                ("achieved", Json::Bool(achieved)),
            ]),
        ),
    ]
}
