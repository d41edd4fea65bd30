//! Shared infrastructure of the figure binaries: evaluate one request
//! against one prepared engine, collect the metrics the paper plots, and
//! print aligned tables.
//!
//! Every figure of the paper has a binary in `src/bin/` that regenerates
//! its series (`fig2`, `fig3`, `ablation`; each binary's module docs say
//! which). Beside them live `series` — the thread-sweep, open-loop and
//! fault-matrix artifacts — and the ledger, the repo's one benchmark,
//! which links none of this library.

use mpq_core::{Algorithm, Engine, IndexConfig, MatchRequest, Matching};
use mpq_datagen::Workload;
use mpq_ta::FunctionSet;

/// Re-export of the dependency-free JSON machinery, which moved down to
/// [`mpq_core::json`] when the network front-end started sharing it for
/// its wire codec and `/metrics` endpoint.
pub use mpq_core::json;

/// One experiment cell: a request's cost on one workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Method label ("SB", "SB-rescan", "BruteForce",
    /// "BruteForce-restart", "Chain").
    pub method: String,
    /// Physical I/O accesses on the object tree (the paper's metric).
    pub io: u64,
    /// Logical node requests (buffer-independent).
    pub logical: u64,
    /// CPU (wall) seconds of the matching phase.
    pub cpu_secs: f64,
    /// Number of stable pairs produced.
    pub pairs: usize,
    /// Algorithm loop count.
    pub loops: u64,
    /// Top-1 searches on the object tree (BF/Chain).
    pub top1: u64,
    /// Reverse top-1 calls (SB).
    pub rtop1: u64,
    /// Checksum of the matching (sum of scores) to confirm all methods
    /// agree.
    pub total_score: f64,
}

/// Byte-level identity of two matchings, the acceptance bar of the
/// `series` binary: same pairs, same emission order, same score
/// **bits** (`f64::to_bits`, so `-0.0 != 0.0` and NaNs never sneak
/// through a `==`).
pub fn identical_matchings(a: &Matching, b: &Matching) -> bool {
    a.len() == b.len()
        && a.pairs().iter().zip(b.pairs()).all(|(x, y)| {
            x.fid == y.fid && x.oid == y.oid && x.score.to_bits() == y.score.to_bits()
        })
}

/// Build an engine over the workload's objects. Build it **once** per
/// workload (and per index configuration, for the A4 buffer-size sweep)
/// and pass it to every [`run_cell_on`] so the cells measure matching,
/// never index builds.
pub fn build_engine(w: &Workload, index: IndexConfig) -> Engine {
    Engine::builder()
        .index(index)
        .objects(&w.objects)
        .build()
        .expect("workload objects are valid")
}

/// Evaluate `request` — built against `engine` — and collect a [`Cell`]
/// labeled `method`.
///
/// The shared LRU buffer is **cold-started before the run**, so cells
/// are order-independent and match the paper's cold-buffer methodology
/// (without the reset, method N+1 would read pages method N left hot).
/// Consequently this is a sequential measurement harness — do not share
/// the engine with concurrent requests while cells run.
pub fn run_cell_on(method: &str, engine: &Engine, request: MatchRequest<'_, '_>) -> Cell {
    engine.tree().clear_buffer();
    let m: Matching = request.evaluate().expect("workload inputs are valid");
    let met = m.metrics();
    Cell {
        method: method.to_string(),
        io: met.io.physical(),
        logical: met.io.logical,
        cpu_secs: met.elapsed.as_secs_f64(),
        pairs: m.len(),
        loops: met.loops,
        top1: met.top1_searches,
        rtop1: met.reverse_top1_calls,
        total_score: m.total_score(),
    }
}

/// One series of a figure: SB, Brute Force and Chain against one
/// engine, a row each (`MPQ_SKIP_BF` / `MPQ_SKIP_CHAIN` drop the slow
/// competitors).
pub fn print_methods(engine: &Engine, functions: &FunctionSet) {
    for algorithm in [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain] {
        let skip = match algorithm {
            Algorithm::Sb => false,
            Algorithm::BruteForce => env_flag("MPQ_SKIP_BF"),
            Algorithm::Chain => env_flag("MPQ_SKIP_CHAIN"),
        };
        if !skip {
            let request = engine.request(functions).algorithm(algorithm);
            print_cell("", &run_cell_on(algorithm.name(), engine, request));
        }
    }
}

/// Print a table header for a series of cells.
pub fn print_header(title: &str) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>12} {:>12} {:>10} {:>8} {:>9} {:>9} {:>9} {:>14}",
        "method", "io", "logical", "cpu(s)", "pairs", "loops", "top1", "rtop1", "score-sum"
    );
}

/// Print one cell as a table row.
pub fn print_cell(label: &str, c: &Cell) {
    println!(
        "{:<22} {:>12} {:>12} {:>10.3} {:>8} {:>9} {:>9} {:>9} {:>14.4}",
        format!("{label}{}", c.method),
        c.io,
        c.logical,
        c.cpu_secs,
        c.pairs,
        c.loops,
        c.top1,
        c.rtop1,
        c.total_score
    );
}

/// Read an environment override (used to scale experiments up/down
/// without recompiling), e.g. `MPQ_OBJECTS=100000`.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `true` iff the named env toggle is set to a truthy value.
fn env_flag(name: &str) -> bool {
    matches!(
        std::env::var(name).ok().as_deref(),
        Some("1") | Some("true") | Some("yes")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_datagen::WorkloadBuilder;

    #[test]
    fn run_cell_populates_metrics() {
        let w = WorkloadBuilder::new()
            .objects(500)
            .functions(20)
            .dim(2)
            .seed(1)
            .build();
        let engine = build_engine(&w, IndexConfig::default());
        let c = run_cell_on("SB", &engine, engine.request(&w.functions));
        assert_eq!(c.method, "SB");
        assert_eq!(c.pairs, 20);
        assert!(c.logical > 0);
        assert!(c.total_score > 0.0);
    }

    #[test]
    fn env_parsing() {
        std::env::set_var("MPQ_TEST_KNOB", "123");
        assert_eq!(env_usize("MPQ_TEST_KNOB", 5), 123);
        assert_eq!(env_usize("MPQ_TEST_KNOB_MISSING", 5), 5);
        std::env::set_var("MPQ_TEST_FLAG", "1");
        assert!(env_flag("MPQ_TEST_FLAG"));
        assert!(!env_flag("MPQ_TEST_FLAG_MISSING"));
    }
}
