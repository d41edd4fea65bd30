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

use mpq_bench::{env_usize, print_cell, print_header, run_cell};
use mpq_core::{
    BestPairMode, BfStrategy, BruteForceMatcher, IndexConfig, MaintenanceMode, SkylineMatcher,
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
    print_header("A1 multi-pair per loop (independent, D=4)");
    print_cell("multi/", &run_cell(&SkylineMatcher::default(), &w));
    print_cell(
        "single/",
        &run_cell(
            &SkylineMatcher {
                multi_pair: false,
                ..SkylineMatcher::default()
            },
            &w,
        ),
    );
}

fn maintenance() {
    // rescan recomputes BBS per loop: keep the workload small enough
    let w = workload(
        env_usize("MPQ_OBJECTS", 20_000),
        env_usize("MPQ_FUNCTIONS", 1_000),
        4,
    );
    print_header("A2 skyline maintenance (independent, D=4, reduced scale)");
    print_cell("incremental/", &run_cell(&SkylineMatcher::default(), &w));
    print_cell(
        "rescan/",
        &run_cell(
            &SkylineMatcher {
                maintenance: MaintenanceMode::Rescan,
                ..SkylineMatcher::default()
            },
            &w,
        ),
    );
}

fn threshold() {
    let w = workload(
        env_usize("MPQ_OBJECTS", 100_000),
        env_usize("MPQ_FUNCTIONS", 5_000),
        4,
    );
    print_header("A3 best-pair search (independent, D=4)");
    for (label, mode) in [
        ("ta-tight/", BestPairMode::Ta),
        ("ta-naive/", BestPairMode::TaNaiveThreshold),
        ("scan/", BestPairMode::Scan),
    ] {
        print_cell(
            label,
            &run_cell(
                &SkylineMatcher {
                    best_pair: mode,
                    ..SkylineMatcher::default()
                },
                &w,
            ),
        );
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
        let index = IndexConfig {
            buffer_fraction: frac,
            ..IndexConfig::default()
        };
        print_cell(
            &format!("{:>4.0}%/", frac * 100.0),
            &run_cell(
                &SkylineMatcher {
                    index: index.clone(),
                    ..SkylineMatcher::default()
                },
                &w,
            ),
        );
        print_cell(
            &format!("{:>4.0}%/", frac * 100.0),
            &run_cell(
                &BruteForceMatcher {
                    index,
                    strategy: BfStrategy::Incremental,
                },
                &w,
            ),
        );
    }
}

fn functions() {
    let n = env_usize("MPQ_OBJECTS", 100_000);
    print_header("A5 |F| sweep (independent, D=4, SB)");
    for f in [1_000, 2_000, 5_000, 10_000, 20_000] {
        let w = workload(n, f, 4);
        print_cell(
            &format!("F={f}/"),
            &run_cell(&SkylineMatcher::default(), &w),
        );
    }
}

fn bf() {
    let w = workload(
        env_usize("MPQ_OBJECTS", 50_000),
        env_usize("MPQ_FUNCTIONS", 2_000),
        4,
    );
    print_header("A6 Brute Force strategy (independent, D=4)");
    for strategy in [BfStrategy::Incremental, BfStrategy::Restart] {
        print_cell(
            "",
            &run_cell(
                &BruteForceMatcher {
                    index: IndexConfig::default(),
                    strategy,
                },
                &w,
            ),
        );
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
}
