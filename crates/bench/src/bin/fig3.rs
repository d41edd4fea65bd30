//! Figure 3 of the paper: scalability in `|O|` on the (surrogate) Zillow
//! real-estate dataset — `|O| ∈ {10K, 50K, 100K, 200K, 400K}` subsets
//! matched with `|F|` = 5 K functions over the 5 Zillow attributes.
//!
//! ```text
//! cargo run --release -p mpq-bench --bin fig3
//! MPQ_FUNCTIONS=1000 MPQ_MAX_OBJECTS=100000 cargo run --release -p mpq-bench --bin fig3
//! ```
//!
//! Expected shape (paper): SB wins I/O by orders of magnitude, and its
//! CPU advantage is even larger than on synthetic data because Zillow is
//! highly skewed, which hurts the top-1-search-based competitors but not
//! the skyline-based SB.

use mpq_bench::{build_engine, env_usize, print_header, print_methods};
use mpq_core::IndexConfig;
use mpq_datagen::functions::uniform_weights;
use mpq_datagen::{zillow_preference_space, Workload};

fn main() {
    let n_functions = env_usize("MPQ_FUNCTIONS", 5_000);
    let max_objects = env_usize("MPQ_MAX_OBJECTS", 400_000);
    let seed = env_usize("MPQ_SEED", 2009) as u64;

    println!(
        "Figure 3 reproduction: Zillow surrogate, |O| in 10K..{}K, |F| = {n_functions}, D = 5",
        max_objects / 1000
    );

    // One generation pass; subsets are prefixes (the paper samples
    // random subsets of one crawl — prefixes of one random stream are
    // exactly that).
    let full = zillow_preference_space(max_objects, seed);

    let functions = uniform_weights(n_functions, 5, seed ^ 0xF00D_F00D_F00D_F00D);

    for n in [10_000, 50_000, 100_000, 200_000, 400_000] {
        if n > max_objects {
            break;
        }
        let mut objects = full.clone();
        objects.truncate(n);
        let w = Workload {
            objects,
            functions: functions.clone(),
        };
        print_header(&format!("zillow |O| = {}K", n / 1000));
        // one index build serves every method in this series
        let engine = build_engine(&w, IndexConfig::default());
        print_methods(&engine, &w.functions);
    }
    println!("\n(figure 3(a) = io column; figure 3(b) = cpu column)");
}
