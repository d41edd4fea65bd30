//! Figure 2 of the paper: effect of dimensionality `D ∈ {3,4,5,6}` on
//! I/O accesses and CPU time, for independent and anti-correlated object
//! sets. Base configuration: `|O|` = 100 K, `|F|` = 5 K, 4 KiB pages,
//! LRU buffer = 2% of the tree.
//!
//! ```text
//! cargo run --release -p mpq-bench --bin fig2
//! MPQ_OBJECTS=20000 MPQ_FUNCTIONS=1000 cargo run --release -p mpq-bench --bin fig2
//! MPQ_SKIP_CHAIN=1 ... # drop the slowest competitor
//! ```
//!
//! Expected shape (paper): SB incurs 2–3 orders of magnitude fewer I/Os
//! than Brute Force; Brute Force beats Chain; I/O grows with `D` for all
//! methods; SB also wins CPU, with Chain slowest.

use mpq_bench::{build_engine, env_usize, print_header, print_methods};
use mpq_core::IndexConfig;
use mpq_datagen::{Distribution, WorkloadBuilder};

fn main() {
    let n_objects = env_usize("MPQ_OBJECTS", 100_000);
    let n_functions = env_usize("MPQ_FUNCTIONS", 5_000);
    let seed = env_usize("MPQ_SEED", 2009) as u64;

    println!("Figure 2 reproduction: |O| = {n_objects}, |F| = {n_functions}, D = 3..6");
    println!("(io = physical page accesses on the object R-tree, 4KiB pages, LRU = 2%)");

    for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
        for dim in 3..=6 {
            let w = WorkloadBuilder::new()
                .objects(n_objects)
                .functions(n_functions)
                .dim(dim)
                .distribution(dist)
                .seed(seed)
                .build();
            print_header(&format!("{} D={dim}", dist.name()));
            // one index build serves every method in this series
            let engine = build_engine(&w, IndexConfig::default());
            print_methods(&engine, &w.functions);
        }
    }
    println!("\n(figure 2(a)/(b) = io column; figure 2(c)/(d) = cpu column)");
}
