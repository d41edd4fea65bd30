//! Ablation studies for the design choices of the paper's §IV:
//!
//! * `multipair`   — §IV-C: multi-pair reporting vs one pair per loop.
//! * `maintenance` — §IV-B: incremental plist maintenance vs BBS
//!   recomputation per loop.
//! * `threshold`   — §IV-A: tight vs naive TA threshold vs linear scan.
//! * `buffer`      — LRU buffer size sensitivity (1%–16% of the tree).
//! * `functions`   — scalability in `|F|` (1K–20K).
//! * `bf`          — Brute Force: incremental iterators vs restart.
//!
//! ```text
//! cargo run --release -p mpq-bench --bin ablation -- multipair
//! cargo run --release -p mpq-bench --bin ablation -- all
//! ```

use mpq_bench::{build_engine, env_usize, print_cell, print_header, run_cell_on};
use mpq_core::{
    index_build_count, Algorithm, BestPairMode, BfStrategy, IndexConfig, MaintenanceMode,
};
use mpq_datagen::{Distribution, Workload, WorkloadBuilder};

fn workload(n: usize, f: usize, dim: usize) -> Workload {
    WorkloadBuilder::new()
        .objects(n)
        .functions(f)
        .dim(dim)
        .distribution(Distribution::Independent)
        .seed(env_usize("MPQ_SEED", 2009) as u64)
        .build()
}

fn multipair() {
    let w = workload(
        env_usize("MPQ_OBJECTS", 100_000),
        env_usize("MPQ_FUNCTIONS", 5_000),
        4,
    );
    let engine = build_engine(&w, IndexConfig::default());
    print_header("A1 multi-pair per loop (independent, D=4)");
    for (label, multi) in [("multi/", true), ("single/", false)] {
        let request = engine.request(&w.functions).multi_pair(multi);
        print_cell(label, &run_cell_on("SB", &engine, request));
    }
}

fn maintenance() {
    // rescan recomputes BBS per loop: keep the workload small enough
    let w = workload(
        env_usize("MPQ_OBJECTS", 20_000),
        env_usize("MPQ_FUNCTIONS", 1_000),
        4,
    );
    let engine = build_engine(&w, IndexConfig::default());
    print_header("A2 skyline maintenance (independent, D=4, reduced scale)");
    for (label, method, mode) in [
        ("incremental/", "SB", MaintenanceMode::Incremental),
        ("rescan/", "SB-rescan", MaintenanceMode::Rescan),
    ] {
        let request = engine.request(&w.functions).maintenance(mode);
        print_cell(label, &run_cell_on(method, &engine, request));
    }
}

fn threshold() {
    let w = workload(
        env_usize("MPQ_OBJECTS", 100_000),
        env_usize("MPQ_FUNCTIONS", 5_000),
        4,
    );
    let engine = build_engine(&w, IndexConfig::default());
    print_header("A3 best-pair search (independent, D=4)");
    for (label, mode) in [
        ("ta-tight/", BestPairMode::Ta),
        ("ta-naive/", BestPairMode::TaNaiveThreshold),
        ("scan/", BestPairMode::Scan),
    ] {
        let request = engine.request(&w.functions).best_pair(mode);
        print_cell(label, &run_cell_on("SB", &engine, request));
    }
}

fn buffer() {
    let w = workload(
        env_usize("MPQ_OBJECTS", 100_000),
        env_usize("MPQ_FUNCTIONS", 5_000),
        4,
    );
    print_header("A4 LRU buffer size (independent, D=4, BruteForce + SB)");
    for frac in [0.01, 0.02, 0.04, 0.08, 0.16] {
        // the buffer fraction is the engine's: one engine per fraction
        // serves both methods
        let engine = build_engine(
            &w,
            IndexConfig {
                buffer_fraction: frac,
                ..IndexConfig::default()
            },
        );
        let label = format!("{:>4.0}%/", frac * 100.0);
        for algorithm in [Algorithm::Sb, Algorithm::BruteForce] {
            let request = engine.request(&w.functions).algorithm(algorithm);
            print_cell(&label, &run_cell_on(algorithm.name(), &engine, request));
        }
    }
}

fn functions() {
    let n = env_usize("MPQ_OBJECTS", 100_000);
    print_header("A5 |F| sweep (independent, D=4, SB)");
    for f in [1_000, 2_000, 5_000, 10_000, 20_000] {
        // each |F| is a workload of its own
        let w = workload(n, f, 4);
        let engine = build_engine(&w, IndexConfig::default());
        let request = engine.request(&w.functions);
        print_cell(&format!("F={f}/"), &run_cell_on("SB", &engine, request));
    }
}

fn bf() {
    let w = workload(
        env_usize("MPQ_OBJECTS", 50_000),
        env_usize("MPQ_FUNCTIONS", 2_000),
        4,
    );
    let engine = build_engine(&w, IndexConfig::default());
    print_header("A6 Brute Force strategy (independent, D=4)");
    for (method, strategy) in [
        ("BruteForce", BfStrategy::Incremental),
        ("BruteForce-restart", BfStrategy::Restart),
    ] {
        let request = engine
            .request(&w.functions)
            .algorithm(Algorithm::BruteForce)
            .bf_strategy(strategy);
        print_cell("", &run_cell_on(method, &engine, request));
    }
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "multipair" => multipair(),
        "maintenance" => maintenance(),
        "threshold" => threshold(),
        "buffer" => buffer(),
        "functions" => functions(),
        "bf" => bf(),
        "all" => {
            multipair();
            maintenance();
            threshold();
            buffer();
            functions();
            bf();
        }
        other => {
            eprintln!(
                "unknown ablation '{other}'; expected one of: multipair, maintenance, \
                 threshold, buffer, functions, bf, all"
            );
            std::process::exit(2);
        }
    }
    eprintln!("({} index bulk loads)", index_build_count());
}
