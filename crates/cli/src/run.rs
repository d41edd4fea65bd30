//! The `mpq` command-line pipeline: parse arguments, load CSVs, run a
//! matcher, emit the assignment as CSV on stdout and metrics on stderr.
//!
//! ```text
//! mpq match --objects rooms.csv --functions users.csv [--algo sb|bf|chain]
//!           [--output out.csv] [--no-normalize-check]
//! mpq generate --distribution independent|correlated|anti-correlated|zillow
//!              --objects N --dim D [--seed S]   # emits an objects CSV
//! mpq serve --objects rooms.csv --functions users.csv
//!           [--requests R] [--workers N]
//!           [--queue-cap M] [--cache N] [--data-dir DIR]
//!           # replay R copies through the EngineService submission
//!           # queue and report ServiceMetrics (repeat-heavy: the
//!           # replay exercises the result cache; --cache 0 disables).
//!           # A full queue sheds a copy; the report counts them.
//!           # With --data-dir the engine is disk-backed: a directory
//!           # already holding a persisted engine is reopened (no
//!           # --objects needed), an empty one is populated from the CSV.
//!           # One layout is read: pages.mpq + wal.mpq. A directory in
//!           # an older form — K shards under a shards.mpq manifest, or a
//!           # page file checkpointed without the id bound — is refused
//!           # untouched; `mpq compact` at commit cd313ab converts it
//! mpq serve --listen ADDR [--tenant NAME=objects.csv[,KEY=VALUE...]]...
//!           # HTTP mode: host one or more tenants behind a std-only
//!           # HTTP/1.1 listener (see the `mpq_net` crate). Without
//!           # --tenant, --objects [--data-dir DIR] forms a single
//!           # tenant named "default". Stop with Ctrl-C (the process
//!           # exits; persisted tenants reopen cleanly from their WAL)
//! mpq compact --data-dir DIR
//!           # checkpoint a persisted engine: fold the WAL into the page
//!           # file so the next open replays nothing (an older layout
//!           # is refused, as by serve)
//! ```
//!
//! Object attribute values are expected in `[0, 1]` larger-is-better
//! space (use `mpq generate` for synthetic inputs, or normalize your
//! data upstream — see the `real_estate` example for a normalization
//! recipe). Function rows are weights; they are normalized to sum to 1.

use std::fs;
use std::sync::Arc;

use mpq_core::{Algorithm, Engine, EngineService, MpqError, ServiceConfig};
use mpq_datagen::Distribution;
use mpq_rtree::PointSet;
use mpq_ta::FunctionSet;

use crate::csv::{parse, write_rows, Table};

/// A user-facing CLI failure (message + process exit code).
#[derive(Debug)]
pub struct CliError {
    /// Human-readable description.
    pub message: String,
    /// Suggested process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 2,
        }
    }

    fn runtime(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 1,
        }
    }
}

/// Entry point used by `main` and by the tests. `args` excludes the
/// program name. Returns the stdout payload.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("match") => cmd_match(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("--help" | "-h" | "help") | None => Err(CliError::usage(USAGE)),
        Some(other) => Err(CliError::usage(format!(
            "unknown command '{other}'\n{USAGE}"
        ))),
    }
}

const USAGE: &str = "usage:
  mpq match --objects <objects.csv> --functions <functions.csv>
            [--algo sb|bf|chain] [--output <file>]
  mpq generate --distribution <independent|correlated|anti-correlated|clustered|zillow>
               --objects <N> --dim <D> [--seed <S>]
  mpq serve --objects <objects.csv> --functions <functions.csv>
            [--requests <R>] [--workers <N>]
            [--queue-cap <M>] [--cache <N>] [--data-dir <dir>]
            # replay R copies of the request through the EngineService
            # worker pool and report ServiceMetrics (a full queue sheds
            # a copy, and the report counts it); --cache N bounds the
            # result cache to N entries (0 disables caching + dedupe);
            # --data-dir persists the engine (or reopens one already
            # persisted there, in which case --objects is not needed);
            # a directory in an older layout (K shards under shards.mpq,
            # or a checkpoint without the id bound) is refused untouched:
            # run `mpq compact` at commit cd313ab on it first
  mpq serve --listen <addr> [--tenant NAME=objects.csv[,KEY=VALUE]...]...
            # HTTP mode: serve match requests over a real socket.
            # Tenant spec keys: data-dir=DIR (persist/reopen; an empty
            # objects.csv part reopens an existing store), workers=N,
            # queue-cap=M, cache=N. Without --tenant, --objects
            # [--data-dir DIR] hosts a single tenant named
            # 'default'. Routes: POST /t/NAME/match, GET /t/NAME/metrics,
            # GET /metrics, GET /healthz
  mpq compact --data-dir <dir>
            # checkpoint a persisted engine: fold the WAL into the page
            # file so the next open replays nothing. A store in an
            # older layout (K shards under shards.mpq, or a checkpoint
            # without the id bound) is refused untouched; commit cd313ab
            # is the last whose compact converts it";

fn arg_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The value of a flag the command cannot do without.
fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, CliError> {
    arg_value(args, name).ok_or_else(|| CliError::usage(format!("{name} is required\n{USAGE}")))
}

/// The integer after flag `name`, or `default` where the flag is absent.
fn int_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, CliError> {
    arg_value(args, name).map_or(Ok(default), |value| {
        let bad = |_| CliError::usage(format!("{name} must be an integer"));
        value.parse().map_err(bad)
    })
}

/// `--algo` is canonical; `--algorithm` stays accepted.
fn parse_algorithm(args: &[String]) -> Result<Algorithm, CliError> {
    let name = arg_value(args, "--algo").or_else(|| arg_value(args, "--algorithm"));
    name.unwrap_or("sb").parse().map_err(CliError::usage)
}

/// `serve` runs the served request, which is SB alone: any other
/// `--algo` is a usage error that points at `mpq match`.
fn require_sb(args: &[String]) -> Result<(), CliError> {
    match parse_algorithm(args)? {
        Algorithm::Sb => Ok(()),
        other => Err(CliError::usage(format!(
            "a served request is SB alone; run {other} with `mpq match --algo`"
        ))),
    }
}

fn read_table(path: &str) -> Result<Table, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    parse(&text).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

/// The objects of the CSV at `path`, every attribute in `[0, 1]`, and
/// their row identifiers.
fn read_objects(path: &str) -> Result<(PointSet, Vec<String>), CliError> {
    let table = read_table(path)?;
    let mut objects = PointSet::with_capacity(table.columns.len(), table.rows());
    for i in 0..table.rows() {
        let row = table.row(i);
        if row.iter().any(|v| !(0.0..=1.0).contains(v)) {
            return Err(CliError::runtime(format!(
                "{path}: object '{}' has attributes outside [0,1]; normalize your data \
                 to larger-is-better unit scale first",
                table.ids[i]
            )));
        }
        objects.push(row);
    }
    Ok((objects, table.ids))
}

/// The weight rows of the CSV at `path`, one function each over `dim`
/// attributes — as many as the objects' CSV or a reopened engine has —
/// and their row identifiers.
fn read_functions(path: &str, dim: usize) -> Result<(FunctionSet, Vec<String>), CliError> {
    let table = read_table(path)?;
    if table.columns.len() != dim {
        return Err(CliError::runtime(format!(
            "dimensionality mismatch: objects have {dim} attributes, functions have {}",
            table.columns.len()
        )));
    }
    let mut functions = FunctionSet::new(dim);
    for i in 0..table.rows() {
        let row = table.row(i);
        if row.iter().any(|&v| v < 0.0) || row.iter().all(|&v| v == 0.0) {
            return Err(CliError::runtime(format!(
                "{path}: function '{}' must have non-negative, not-all-zero weights",
                table.ids[i]
            )));
        }
        functions.push(row);
    }
    Ok((functions, table.ids))
}

fn cmd_match(args: &[String]) -> Result<String, CliError> {
    let objects_path = required(args, "--objects")?;
    let functions_path = required(args, "--functions")?;
    let algorithm = parse_algorithm(args)?;
    let (objects, object_ids) = read_objects(objects_path)?;
    let (functions, function_ids) = read_functions(functions_path, objects.dim())?;

    let matching = Engine::builder()
        .objects(&objects)
        .build()
        .and_then(|engine| engine.request(&functions).algorithm(algorithm).evaluate())
        .map_err(cli_from_mpq)?;
    let met = matching.metrics();
    eprintln!(
        "{}: {} pairs, {:.3}s matching, {} physical I/Os ({} loops)",
        algorithm.name(),
        matching.len(),
        met.elapsed.as_secs_f64(),
        met.io.physical(),
        met.loops
    );

    let rows: Vec<Vec<String>> = matching
        .sorted_pairs()
        .iter()
        .map(|p| {
            vec![
                function_ids[p.fid as usize].clone(),
                object_ids[p.oid as usize].clone(),
                format!("{:.6}", p.score),
            ]
        })
        .collect();
    let out = write_rows(&["function", "object", "score"], &rows);

    if let Some(path) = arg_value(args, "--output") {
        fs::write(path, &out)
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
        Ok(format!("wrote {} assignments to {path}\n", rows.len()))
    } else {
        Ok(out)
    }
}

/// Engine-boundary validation errors become runtime CLI failures.
fn cli_from_mpq(e: MpqError) -> CliError {
    CliError::runtime(e.to_string())
}

/// Async-serving demo: load one `(objects, functions)` pair, spawn an
/// [`EngineService`] worker pool over the shared engine, replay `R`
/// copies of the request through the submission queue, wait for all
/// tickets, and print the rolling [`ServiceMetrics`]. Every served
/// result is verified bit-identical to a sequential evaluation before
/// anything is reported.
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    require_sb(args)?;
    if arg_value(args, "--listen").is_some() {
        return cmd_serve_listen(args);
    }
    let requests: usize = int_flag(args, "--requests", 32)?;
    let mut config = ServiceConfig::default();
    config.workers = int_flag(args, "--workers", config.workers)?; // 0 = one worker per core
    config.queue_capacity = int_flag(args, "--queue-cap", config.queue_capacity)?;
    config.cache_capacity = int_flag(args, "--cache", config.cache_capacity)?; // entries; 0 disables
    let data_dir = arg_value(args, "--data-dir").map(std::path::PathBuf::from);

    // A directory already holding a persisted inventory is reopened —
    // page file plus WAL replay — so mutations from earlier runs are
    // visible; otherwise build from the objects CSV (persisting to
    // `--data-dir` when given).
    let reopened = data_dir.as_deref().is_some_and(Engine::persisted_at);
    let objects = if reopened {
        None
    } else {
        Some(read_objects(required(args, "--objects")?)?.0)
    };
    let mut builder = Engine::builder();
    if let Some(objects) = &objects {
        builder = builder.objects(objects);
    }
    let storage = match &data_dir {
        Some(dir) => {
            builder = builder.data_dir(dir);
            let verb = if reopened {
                "opened from"
            } else {
                "persisted to"
            };
            format!(", {verb} {}", dir.display())
        }
        None => String::new(),
    };
    let engine = builder.open_or_build().map_err(cli_from_mpq)?;
    let (functions, _) = read_functions(required(args, "--functions")?, engine.dim())?;
    let expected = engine
        .request(&functions)
        .evaluate()
        .map_err(cli_from_mpq)?
        .sorted_pairs();

    let queue_cap = config.queue_capacity;
    let service = EngineService::spawn(Arc::clone(&engine), config);
    let client = service.client();
    let mut tickets = Vec::with_capacity(requests);
    let mut rejected = 0usize;
    for _ in 0..requests {
        match client.submit(engine.request(&functions)) {
            Ok(t) => tickets.push(t),
            Err(MpqError::Overloaded) => rejected += 1,
            Err(e) => return Err(cli_from_mpq(e)),
        }
    }
    // Every served matching equals a direct `evaluate()` on the engine.
    for ticket in tickets {
        let served = ticket.wait().map_err(cli_from_mpq)?;
        if served.sorted_pairs() != expected {
            return Err(CliError::runtime(
                "served result diverged from direct evaluation".to_string(),
            ));
        }
    }
    // Snapshot after the drain: the joined workers have retired every
    // job, so the queue/in-flight gauges are deterministically zero.
    service.shutdown();
    let metrics = client.metrics();

    Ok(format!(
        "SB x{requests} requests over {} objects via EngineService \
         (queue cap {queue_cap}{}{storage})\n{metrics}\n\
         all served matchings identical to sequential\n",
        engine.n_objects(),
        if rejected > 0 {
            format!(", {rejected} rejected")
        } else {
            String::new()
        },
    ))
}

/// One `--tenant NAME=objects.csv[,KEY=VALUE...]` specification.
#[derive(Debug)]
struct TenantSpec {
    name: String,
    objects_csv: Option<String>,
    data_dir: Option<std::path::PathBuf>,
    config: mpq_net::TenantConfig,
}

/// Parse a tenant spec. Grammar: `NAME=OBJECTS[,KEY=VALUE]...` where
/// `OBJECTS` may be empty when `data-dir` points at a persisted store.
fn parse_tenant_spec(spec: &str) -> Result<TenantSpec, CliError> {
    let (name, rest) = spec.split_once('=').ok_or_else(|| {
        CliError::usage(format!(
            "--tenant '{spec}': expected NAME=objects.csv[,KEY=VALUE...]"
        ))
    })?;
    let mut parts = rest.split(',');
    let objects = parts.next().unwrap_or_default();
    let mut out = TenantSpec {
        name: name.to_string(),
        objects_csv: (!objects.is_empty()).then(|| objects.to_string()),
        data_dir: None,
        config: mpq_net::TenantConfig::default(),
    };
    for part in parts {
        let (key, value) = part.split_once('=').ok_or_else(|| {
            CliError::usage(format!(
                "--tenant '{spec}': option '{part}' is not KEY=VALUE"
            ))
        })?;
        let int = |what: &str| -> Result<usize, CliError> {
            value.parse().map_err(|_| {
                CliError::usage(format!("--tenant '{spec}': {what} must be an integer"))
            })
        };
        match key {
            "data-dir" => out.data_dir = Some(std::path::PathBuf::from(value)),
            "workers" => out.config.workers = int("workers")?,
            "queue-cap" => out.config.queue_capacity = int("queue-cap")?,
            "cache" => out.config.cache_capacity = int("cache")?,
            other => {
                return Err(CliError::usage(format!(
                    "--tenant '{spec}': unknown option '{other}' \
                     (known: data-dir, workers, queue-cap, cache)"
                )))
            }
        }
    }
    if out.objects_csv.is_none() && out.data_dir.is_none() {
        return Err(CliError::usage(format!(
            "--tenant '{spec}': needs an objects.csv, a data-dir with a \
             persisted store, or both"
        )));
    }
    Ok(out)
}

/// Build the tenant registry from `--tenant` specs (or the single
/// `--objects`/`--data-dir` default tenant) and bind the HTTP server.
/// Shared with the CLI tests, which bind port 0 and drive the server
/// over a real socket; dropping the returned server is the clean
/// shutdown path (Ctrl-C on a foreground `mpq serve --listen` kills the
/// process, and persisted tenants recover from their WAL on reopen).
pub fn start_server(args: &[String]) -> Result<mpq_net::Server, CliError> {
    let listen = required(args, "--listen")?;

    let mut specs = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tenant" {
            let spec = args
                .get(i + 1)
                .ok_or_else(|| CliError::usage("--tenant needs a value"))?;
            specs.push(parse_tenant_spec(spec)?);
            i += 2;
        } else {
            i += 1;
        }
    }
    if specs.is_empty() {
        // Single-tenant shorthand: --objects [--data-dir DIR].
        let objects_csv = arg_value(args, "--objects").map(str::to_string);
        let data_dir = arg_value(args, "--data-dir").map(std::path::PathBuf::from);
        if objects_csv.is_none() && data_dir.is_none() {
            return Err(CliError::usage(format!(
                "serve --listen needs --tenant specs or --objects\n{USAGE}"
            )));
        }
        let mut config = mpq_net::TenantConfig::default();
        config.workers = int_flag(args, "--workers", config.workers)?;
        config.queue_capacity = int_flag(args, "--queue-cap", config.queue_capacity)?;
        specs.push(TenantSpec {
            name: "default".to_string(),
            objects_csv,
            data_dir,
            config,
        });
    }

    let mut registry = mpq_net::TenantRegistry::new();
    for spec in specs {
        let objects = match &spec.objects_csv {
            Some(path) => Some(read_objects(path)?.0),
            None => None,
        };
        let added = match spec.data_dir {
            Some(dir) => registry.add_persistent(&spec.name, objects.as_ref(), dir, spec.config),
            None => {
                let objects = objects.expect("checked by parse_tenant_spec");
                registry.add_objects(&spec.name, &objects, spec.config)
            }
        };
        added.map_err(|e| CliError::runtime(format!("tenant '{}': {e}", spec.name)))?;
    }

    mpq_net::Server::bind(listen, registry, mpq_net::ServerConfig::default())
        .map_err(|e| CliError::runtime(format!("cannot listen on {listen}: {e}")))
}

/// `mpq serve --listen`: start the server and block until the process
/// is killed. The bound address goes to stderr immediately (stdout is
/// reserved for command output), so scripts can scrape it even with
/// `--listen 127.0.0.1:0`.
fn cmd_serve_listen(args: &[String]) -> Result<String, CliError> {
    let server = start_server(args)?;
    let tenants: Vec<String> = server
        .registry()
        .iter()
        .map(|t| t.name().to_string())
        .collect();
    eprintln!(
        "mpq: listening on {} serving {} tenant(s): {}",
        server.local_addr(),
        tenants.len(),
        tenants.join(", ")
    );
    // Serve until killed: the accept loop runs on its own thread, and
    // there is nothing useful for this one to do but wait.
    loop {
        std::thread::park();
    }
}

/// Checkpoint a persisted engine: reopen it (replaying the WAL), fold
/// the recovered state into the page file, and truncate the WAL — the
/// next `serve --data-dir` opens instantly, replaying nothing. A
/// directory in a layout the open refuses is reported as refused.
fn cmd_compact(args: &[String]) -> Result<String, CliError> {
    let dir = required(args, "--data-dir")?;
    let engine = Engine::open(dir).map_err(|e| match e {
        MpqError::Io(_) if !Engine::persisted_at(dir) => CliError::runtime(format!(
            "no persisted engine under {dir} (run `mpq serve --data-dir` first)"
        )),
        e => cli_from_mpq(e),
    })?;
    let wal_before = engine.wal_bytes();
    engine.checkpoint().map_err(cli_from_mpq)?;
    let wal_after = engine.wal_bytes();
    Ok(format!(
        "compacted {dir}: {} objects over {} pages, wal {wal_before} -> {wal_after} bytes\n",
        engine.n_objects(),
        engine.page_count(),
    ))
}

fn cmd_generate(args: &[String]) -> Result<String, CliError> {
    let dist = match arg_value(args, "--distribution").unwrap_or("independent") {
        "independent" => Distribution::Independent,
        "correlated" => Distribution::Correlated,
        "anti-correlated" => Distribution::AntiCorrelated,
        "clustered" => Distribution::Clustered { clusters: 10 },
        "zillow" => Distribution::Zillow,
        other => return Err(CliError::usage(format!("unknown distribution '{other}'"))),
    };
    let n: usize = int_flag(args, "--objects", 1000)?;
    let zillow = dist == Distribution::Zillow;
    let dim: usize = int_flag(args, "--dim", if zillow { 5 } else { 3 })?;
    let seed: u64 = int_flag(args, "--seed", 0)?;

    let ps = dist.generate(n, dim, seed);
    let header: Vec<String> = (0..dim).map(|d| format!("attr{d}")).collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = ps
        .iter()
        .map(|(_, p)| p.iter().map(|v| format!("{v:.6}")).collect())
        .collect();
    Ok(write_rows(&header_refs, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert_eq!(run_cli(&[]).unwrap_err().code, 2);
        assert_eq!(run_cli(&args(&["bogus"])).unwrap_err().code, 2);
        // Many requests run through `serve`; there is no batch command.
        let err = run_cli(&args(&["throughput"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown command 'throughput'"));
        assert!(run_cli(&args(&["--help"]))
            .unwrap_err()
            .message
            .contains("usage"));
    }

    #[test]
    fn generate_then_match_end_to_end() {
        let dir = std::env::temp_dir().join("mpq_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let objects_csv = run_cli(&args(&[
            "generate",
            "--distribution",
            "independent",
            "--objects",
            "200",
            "--dim",
            "3",
            "--seed",
            "5",
        ]))
        .unwrap();
        let opath = dir.join("objects.csv");
        fs::write(&opath, &objects_csv).unwrap();

        let fpath = dir.join("functions.csv");
        fs::write(
            &fpath,
            "user,w0,w1,w2\nana,0.7,0.2,0.1\nboris,0.1,0.1,0.8\nchloe,0.33,0.33,0.34\n",
        )
        .unwrap();

        for algo in ["sb", "bf", "chain"] {
            let out = run_cli(&args(&[
                "match",
                "--objects",
                opath.to_str().unwrap(),
                "--functions",
                fpath.to_str().unwrap(),
                "--algorithm",
                algo,
            ]))
            .unwrap();
            let lines: Vec<&str> = out.trim().lines().collect();
            assert_eq!(lines[0], "function,object,score");
            assert_eq!(lines.len(), 4, "3 users must be matched ({algo})");
            assert!(lines[1].starts_with("ana,") || lines[1].contains("boris"));
        }
    }

    #[test]
    fn all_algorithms_agree_on_csv_input() {
        let dir = std::env::temp_dir().join("mpq_cli_agree");
        fs::create_dir_all(&dir).unwrap();
        let objects_csv = run_cli(&args(&[
            "generate",
            "--distribution",
            "anti-correlated",
            "--objects",
            "300",
            "--dim",
            "2",
            "--seed",
            "9",
        ]))
        .unwrap();
        let opath = dir.join("objects.csv");
        fs::write(&opath, &objects_csv).unwrap();
        let fpath = dir.join("functions.csv");
        let mut fcsv = String::from("w0,w1\n");
        for i in 0..20 {
            fcsv.push_str(&format!("0.{:02},0.{:02}\n", 30 + i, 70 - i));
        }
        fs::write(&fpath, &fcsv).unwrap();

        let run = |algo: &str| {
            let mut out: Vec<String> = run_cli(&args(&[
                "match",
                "--objects",
                opath.to_str().unwrap(),
                "--functions",
                fpath.to_str().unwrap(),
                "--algorithm",
                algo,
            ]))
            .unwrap()
            .trim()
            .lines()
            .skip(1)
            .map(str::to_string)
            .collect();
            out.sort();
            out
        };
        let sb = run("sb");
        assert_eq!(sb, run("bf"));
        assert_eq!(sb, run("chain"));
    }

    #[test]
    fn serving_commands_refuse_a_non_sb_algorithm() {
        let err = run_cli(&args(&[
            "serve",
            "--objects",
            "x.csv",
            "--functions",
            "y.csv",
            "--algo",
            "bf",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("mpq match"), "{}", err.message);
    }

    #[test]
    fn serve_replays_workload_through_the_service() {
        let dir = std::env::temp_dir().join("mpq_cli_serve");
        fs::create_dir_all(&dir).unwrap();
        let objects_csv = run_cli(&args(&[
            "generate",
            "--distribution",
            "independent",
            "--objects",
            "400",
            "--dim",
            "2",
            "--seed",
            "17",
        ]))
        .unwrap();
        let opath = dir.join("objects.csv");
        fs::write(&opath, &objects_csv).unwrap();
        let fpath = dir.join("functions.csv");
        fs::write(&fpath, "w0,w1\n0.7,0.3\n0.4,0.6\n0.5,0.5\n").unwrap();

        let out = run_cli(&args(&[
            "serve",
            "--objects",
            opath.to_str().unwrap(),
            "--functions",
            fpath.to_str().unwrap(),
            "--requests",
            "8",
            "--workers",
            "2",
            "--queue-cap",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("via EngineService"), "{out}");
        assert!(out.contains("workers 2"), "{out}");
        assert!(out.contains("submitted 8"), "{out}");
        assert!(out.contains("completed 8"), "{out}");
        assert!(out.contains("latency p50"), "{out}");
        // The replay is 8 copies of one request: with the default cache
        // on, all but the first are hits or in-flight attaches.
        assert!(out.contains("cache hits"), "{out}");
        assert!(
            out.contains("all served matchings identical to sequential"),
            "{out}"
        );
    }

    #[test]
    fn serve_cache_flag_disables_caching() {
        let dir = std::env::temp_dir().join("mpq_cli_serve_nocache");
        fs::create_dir_all(&dir).unwrap();
        let objects_csv = run_cli(&args(&[
            "generate",
            "--distribution",
            "independent",
            "--objects",
            "300",
            "--dim",
            "2",
            "--seed",
            "19",
        ]))
        .unwrap();
        let opath = dir.join("objects.csv");
        fs::write(&opath, &objects_csv).unwrap();
        let fpath = dir.join("functions.csv");
        fs::write(&fpath, "w0,w1\n0.7,0.3\n0.4,0.6\n").unwrap();

        let out = run_cli(&args(&[
            "serve",
            "--objects",
            opath.to_str().unwrap(),
            "--functions",
            fpath.to_str().unwrap(),
            "--requests",
            "4",
            "--workers",
            "1",
            "--cache",
            "0",
        ]))
        .unwrap();
        assert!(out.contains("cache disabled"), "{out}");
        assert!(out.contains("completed 4"), "{out}");
        assert!(
            out.contains("all served matchings identical to sequential"),
            "{out}"
        );
    }

    #[test]
    fn serve_reject_mode_sheds_load_but_still_reports() {
        let dir = std::env::temp_dir().join("mpq_cli_serve_reject");
        fs::create_dir_all(&dir).unwrap();
        let objects_csv = run_cli(&args(&[
            "generate",
            "--distribution",
            "anti-correlated",
            "--objects",
            "2000",
            "--dim",
            "3",
            "--seed",
            "23",
        ]))
        .unwrap();
        let opath = dir.join("objects.csv");
        fs::write(&opath, &objects_csv).unwrap();
        let fpath = dir.join("functions.csv");
        let mut fcsv = String::from("w0,w1,w2\n");
        for i in 0..40 {
            fcsv.push_str(&format!("0.{:02},0.{:02},0.20\n", 20 + i, 60 - i));
        }
        fs::write(&fpath, &fcsv).unwrap();

        // 1 worker + tiny queue + a burst: the service sheds what does
        // not fit, and the report stays truthful about it. Caching is
        // off — the replayed requests are identical, and the default
        // cache would (correctly) dedupe them instead of shedding.
        let out = run_cli(&args(&[
            "serve",
            "--objects",
            opath.to_str().unwrap(),
            "--functions",
            fpath.to_str().unwrap(),
            "--requests",
            "16",
            "--workers",
            "1",
            "--queue-cap",
            "1",
            "--cache",
            "0",
        ]))
        .unwrap();
        // The metrics line counts the shed copies, the header repeats
        // the count, and every copy was either served or shed.
        let counter = |name: &str| -> u64 {
            let at = out.find(&format!("{name} ")).expect(name) + name.len() + 1;
            let digits: String = out[at..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        let (completed, rejected) = (counter("completed"), counter("rejected"));
        assert!(rejected >= 1, "a 16-copy burst into one slot sheds: {out}");
        assert_eq!(completed + rejected, 16, "{out}");
        assert!(out.contains(&format!(", {rejected} rejected)")), "{out}");
        assert!(
            out.contains("all served matchings identical to sequential"),
            "{out}"
        );
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let dir = std::env::temp_dir().join("mpq_cli_dim");
        fs::create_dir_all(&dir).unwrap();
        let opath = dir.join("objects.csv");
        fs::write(&opath, "a,b\n0.5,0.5\n").unwrap();
        let fpath = dir.join("functions.csv");
        fs::write(&fpath, "a,b,c\n0.3,0.3,0.4\n").unwrap();
        let err = run_cli(&args(&[
            "match",
            "--objects",
            opath.to_str().unwrap(),
            "--functions",
            fpath.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.message.contains("dimensionality mismatch"));
    }

    #[test]
    fn out_of_range_objects_are_rejected() {
        let dir = std::env::temp_dir().join("mpq_cli_range");
        fs::create_dir_all(&dir).unwrap();
        let opath = dir.join("objects.csv");
        fs::write(&opath, "a,b\n1.5,0.5\n").unwrap();
        let fpath = dir.join("functions.csv");
        fs::write(&fpath, "a,b\n0.5,0.5\n").unwrap();
        let err = run_cli(&args(&[
            "match",
            "--objects",
            opath.to_str().unwrap(),
            "--functions",
            fpath.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.message.contains("outside [0,1]"), "{}", err.message);
    }

    #[test]
    fn serve_with_data_dir_persists_across_invocations() {
        let dir = std::env::temp_dir().join("mpq_cli_persist");
        let store = dir.join("store");
        let _ = fs::remove_dir_all(&store);
        fs::create_dir_all(&dir).unwrap();
        let objects_csv = run_cli(&args(&[
            "generate",
            "--distribution",
            "independent",
            "--objects",
            "100",
            "--dim",
            "2",
            "--seed",
            "7",
        ]))
        .unwrap();
        let opath = dir.join("objects.csv");
        fs::write(&opath, &objects_csv).unwrap();
        let fpath = dir.join("functions.csv");
        fs::write(&fpath, "w0,w1\n0.8,0.2\n0.2,0.8\n").unwrap();

        // First run builds the engine from the CSV and persists it.
        let first = run_cli(&args(&[
            "serve",
            "--objects",
            opath.to_str().unwrap(),
            "--functions",
            fpath.to_str().unwrap(),
            "--data-dir",
            store.to_str().unwrap(),
            "--requests",
            "4",
            "--workers",
            "1",
        ]))
        .unwrap();
        assert!(first.contains("over 100 objects"), "{first}");
        assert!(first.contains("persisted to"), "{first}");

        // Mutate the persisted engine out of band: the WAL carries it.
        let engine = Engine::open(&store).unwrap();
        engine.insert_object(&[0.99, 0.99]).unwrap();
        drop(engine);

        // Second run reopens from disk — no --objects — and sees the
        // mutated inventory.
        let second = run_cli(&args(&[
            "serve",
            "--functions",
            fpath.to_str().unwrap(),
            "--data-dir",
            store.to_str().unwrap(),
            "--requests",
            "4",
            "--workers",
            "1",
        ]))
        .unwrap();
        assert!(second.contains("opened from"), "{second}");
        assert!(second.contains("over 101 objects"), "{second}");
        assert!(
            second.contains("all served matchings identical"),
            "{second}"
        );
    }

    #[test]
    fn compact_checkpoints_the_wal_and_preserves_the_matching() {
        let store = std::env::temp_dir().join("mpq_cli_compact").join("store");
        let _ = fs::remove_dir_all(&store);

        let mut objects = mpq_rtree::PointSet::new(2);
        for p in [[0.9_f64, 0.1], [0.1, 0.9], [0.5, 0.5]] {
            objects.push(&p);
        }
        let engine = Engine::builder()
            .objects(&objects)
            .data_dir(&store)
            .build()
            .unwrap();
        engine.insert_object(&[0.7, 0.7]).unwrap();
        engine.insert_object(&[0.2, 0.6]).unwrap();
        engine.remove_object(2).unwrap();
        assert!(engine.wal_bytes() > 0);
        let functions = mpq_ta::FunctionSet::from_rows(2, &[vec![0.8, 0.2], vec![0.2, 0.8]]);
        let expected = engine
            .request(&functions)
            .evaluate()
            .unwrap()
            .sorted_pairs();
        drop(engine);

        let report = run_cli(&args(&["compact", "--data-dir", store.to_str().unwrap()])).unwrap();
        assert!(report.contains("-> 0 bytes"), "{report}");

        let reopened = Engine::open(&store).unwrap();
        assert_eq!(reopened.wal_bytes(), 0, "WAL folded into the page file");
        let served = reopened
            .request(&functions)
            .evaluate()
            .unwrap()
            .sorted_pairs();
        assert_eq!(served, expected);

        // Compacting an empty directory is a clean runtime error.
        let missing = std::env::temp_dir().join("mpq_cli_compact").join("nope");
        let err =
            run_cli(&args(&["compact", "--data-dir", missing.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("no persisted engine"),
            "{}",
            err.message
        );

        // A directory in the K-shard layout is refused as such, untouched.
        let sharded = std::env::temp_dir().join(format!("mpq_cli_sharded_{}", std::process::id()));
        std::fs::create_dir_all(&sharded).unwrap();
        std::fs::write(
            sharded.join("shards.mpq"),
            "mpq-shard-manifest/1\nshards=1\n",
        )
        .unwrap();
        let err =
            run_cli(&args(&["compact", "--data-dir", sharded.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("K-shard layout"), "{}", err.message);
        assert_eq!(std::fs::read_dir(&sharded).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&sharded);
    }
}
