//! `ledger` — the repo's one benchmark: five seeded workloads driven
//! over loopback HTTP against an in-process `mpq_net::Server`, twelve
//! end-to-end metrics, and a single-threaded traced pass that times the
//! calls into each layer on the same inputs. See `README.md` beside this
//! file for what each workload and metric is for.
//!
//! ```text
//! ledger run     [--seed N] [--workload NAME] [--quick | --seconds S]
//! ledger trace   [--seed N] [--workload NAME] [--quick]
//! ledger compare BASE.json[,BASE2.json…] NEW.json[,NEW2.json…]
//! ledger bench   --workload NAME --seed N --seconds S --trace 0|1
//! ledger spec
//! ```
//!
//! `bench` is the pipeline's entry point (`BENCHMARK.json`): one
//! workload per process, one result line as the last line of stdout.
//! `spec` prints `BENCHMARK.json` as the tables in `spec.rs` render it.

mod compare;
mod gen;
mod spec;
mod stats;
mod timed;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use mpq_core::json::Json;

use spec::{WorkloadSpec, DEFAULT_SEED, FULL_WINDOW_S, QUICK_WINDOW_S, SCHEMA, WORKLOADS};
use timed::RunConfig;

const USAGE: &str = "usage: ledger run|trace [--seed N] [--workload NAME] [--quick] [--seconds S]
       ledger compare BASE.json[,…] NEW.json[,…]
       ledger bench --workload NAME --seed N --seconds S --trace 0|1
       ledger spec";

/// The flags shared by `run`, `trace` and `bench`.
struct Flags {
    seed: u64,
    workload: Option<&'static WorkloadSpec>,
    quick: bool,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        seed: DEFAULT_SEED,
        workload: None,
        quick: false,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            flags.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--workload" => {
                flags.workload = Some(spec::workload(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                flags.seconds = Some(s);
            }
            "--trace" => flags.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

impl Flags {
    fn window_s(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_WINDOW_S
        } else {
            FULL_WINDOW_S
        })
    }

    /// A document is only comparable at full length.
    fn is_quick(&self) -> bool {
        self.quick || self.window_s() < FULL_WINDOW_S
    }
}

fn document(flags: &Flags, kind: &str, workloads: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("kind", Json::Str(kind.into())),
        ("seed", Json::Num(flags.seed as f64)),
        ("quick", Json::Bool(flags.is_quick())),
        ("window_s", Json::Num(flags.window_s())),
        (
            "host",
            Json::obj([("cores", Json::Num(timed::cores() as f64))]),
        ),
        ("clients", Json::Num(timed::default_clients() as f64)),
        ("workers", Json::Num(timed::default_clients() as f64)),
        (
            "load",
            Json::Str("closed loop, one keep-alive connection per client".into()),
        ),
        (
            "flush_policy",
            Json::Str("one WAL fsync per acknowledged mutation (the engine's only policy)".into()),
        ),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// Re-execute this binary for one workload, so `peak_rss_mb` and
/// `cpu_ms_per_match` belong to that workload alone.
fn child(mode: &str, spec: &WorkloadSpec, flags: &Flags) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        mode,
        "--workload",
        spec.name,
        "--seed",
        &flags.seed.to_string(),
    ]);
    cmd.args(["--seconds", &flags.window_s().to_string()]);
    if flags.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", spec.name))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", spec.name))?;
    let entry = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .and_then(|w| w.first())
        .ok_or_else(|| format!("{}: no workload in the child's document", spec.name))?;
    Ok(entry.clone())
}

/// `sharded_k4 − batch_indep` is the cost of the merge only if both
/// were sent the same requests: compare the chained request digests at
/// the last checkpoint both runs reached.
fn same_requests(workloads: &[Json]) -> Option<bool> {
    let digests = |name: &str| {
        workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|w| w.get("request_digests"))
            .and_then(Json::as_arr)
    };
    let (a, b) = (digests("batch_indep")?, digests("sharded_k4")?);
    Some(
        a.len() == b.len()
            && a.iter().zip(b).all(|(a, b)| {
                let (a, b) = (a.as_arr().unwrap_or(&[]), b.as_arr().unwrap_or(&[]));
                let common = a.len().min(b.len());
                common > 0 && a[common - 1] == b[common - 1]
            }),
    )
}

fn failed_ops(entry: &Json) -> f64 {
    entry
        .get("ops_failed")
        .and_then(Json::as_f64)
        .unwrap_or(1.0)
}

fn run(flags: &Flags) -> Result<bool, String> {
    if let Some(spec) = flags.workload {
        let cfg = RunConfig::new(flags.seed, flags.window_s());
        let report = timed::run_workload(spec, &cfg)?;
        let problems = report.problems();
        for problem in &problems {
            eprintln!("ledger: {}: {problem}", spec.name);
        }
        let ok = problems.is_empty();
        println!(
            "{}",
            document(flags, "run", vec![report.to_json()]).render()
        );
        return Ok(ok);
    }
    let mut entries = Vec::new();
    for spec in &WORKLOADS {
        eprintln!("ledger: running {}", spec.name);
        entries.push(child("run", spec, flags)?);
    }
    let mut ok = entries.iter().all(|e| failed_ops(e) == 0.0);
    let same = same_requests(&entries);
    if same != Some(true) {
        eprintln!("ledger: sharded_k4 and batch_indep were not sent the same requests");
        ok = false;
    }
    let Json::Obj(mut doc) = document(flags, "run", entries) else {
        unreachable!()
    };
    doc.insert(
        "sharded_k4_requests_equal_batch_indep".into(),
        Json::Bool(same == Some(true)),
    );
    println!("{}", Json::Obj(doc).render());
    Ok(ok)
}

fn trace(flags: &Flags) -> Result<bool, String> {
    if let Some(spec) = flags.workload {
        let outcome = trace::run(spec, flags.seed, flags.quick)?;
        eprint!("{}", outcome.table);
        let ok = outcome.problems.is_empty();
        for problem in &outcome.problems {
            eprintln!("ledger: {}: {problem}", spec.name);
        }
        println!(
            "{}",
            document(flags, "trace", vec![outcome.to_json()]).render()
        );
        return Ok(ok);
    }
    let mut entries = Vec::new();
    for spec in &WORKLOADS {
        eprintln!("ledger: tracing {}", spec.name);
        entries.push(child("trace", spec, flags)?);
    }
    let ok = entries.iter().all(|e| failed_ops(e) == 0.0);
    println!("{}", document(flags, "trace", entries).render());
    Ok(ok)
}

fn metric_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, Json>,
) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The pipeline's contract: one workload, one process, one JSON line.
/// `--trace 0` prints the end-to-end metrics the pipeline gates,
/// `--trace 1` every per-layer metric (the traced pass at its quick op
/// counts; `--seconds` sizes the timed window of `--trace 0` only).
/// Once a result line is out the exit code is 0: the line's `correct`
/// and `failed` carry the verdict of the checks. A run that could not
/// produce every metric prints no line and exits non-zero.
fn bench(flags: &Flags) -> Result<bool, String> {
    let spec = flags.workload.ok_or("bench needs --workload")?;
    let seconds = flags.seconds.ok_or("bench needs --seconds")?;
    if flags.trace {
        let outcome = trace::run(spec, flags.seed, true)?;
        eprint!("{}", outcome.table);
        for problem in &outcome.problems {
            eprintln!("ledger: {}: {problem}", spec.name);
        }
        let metrics = spec::PER_LAYER
            .iter()
            .map(|(name, unit, _)| (name.to_string(), metric(outcome.metrics[name], unit)))
            .collect();
        let ok = outcome.problems.is_empty();
        println!(
            "{}",
            metric_line(ok, outcome.attempted, outcome.failed, metrics)
        );
        return Ok(true);
    }
    // The pipeline makes over a hundred runs inside a fixed budget, and
    // one `verify_stable` of 1000 functions over 200 000 objects takes
    // seconds: two per run here, eight in `ledger run`.
    let cfg = RunConfig {
        stable_checks: 2,
        ..RunConfig::new(flags.seed, seconds)
    };
    let report = timed::run_workload(spec, &cfg)?;
    let problems = report.problems();
    for problem in &problems {
        eprintln!("ledger: {}: {problem}", spec.name);
    }
    let metrics = spec::END_TO_END
        .iter()
        .filter(|e| e.pipeline)
        .map(|e| {
            let value = report.metrics[e.name]
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("{}: {} was not measured", spec.name, e.name))?;
            Ok((e.name.to_string(), metric(value, e.unit)))
        })
        .collect::<Result<_, String>>()?;
    println!(
        "{}",
        metric_line(
            problems.is_empty(),
            report.ops_attempted,
            report.ops_failed,
            metrics
        )
    );
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match mode.as_str() {
        "compare" => compare::main(rest),
        "spec" if rest.is_empty() => {
            println!("{}", spec::benchmark_json().render());
            Ok(true)
        }
        "run" | "trace" | "bench" => parse_flags(rest).and_then(|flags| match mode.as_str() {
            "run" => run(&flags),
            "trace" => trace(&flags),
            _ => bench(&flags),
        }),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
