//! Online operation: preference-query batches arriving over time
//! against a persistent inventory — the paper's motivating deployment.
//! One stream serves the day: the R-tree and the incrementally-maintained
//! skyline live across batches, each batch is loaded once the one before
//! it is drained, and pays only for its own matching plus the skyline
//! maintenance its reservations cause.
//!
//! ```text
//! cargo run --release --example online_batches
//! ```

use std::collections::HashSet;
use std::time::Instant;

use mpq::core::{Engine, Pair};
use mpq::datagen::functions::uniform_weights;
use mpq::datagen::objects::independent;

fn main() {
    // Monday morning: 200,000 rooms are listed. The engine validates
    // the inventory and builds the index exactly once.
    let inventory = independent(200_000, 4, 11);
    let engine = Engine::builder().objects(&inventory).build().unwrap();
    println!(
        "inventory indexed: {} objects, {} pages",
        inventory.len(),
        engine.page_count()
    );

    // Batches of users arrive through the day; the first one opens the
    // stream, which computes the skyline once.
    let day = [(9, 800), (11, 1_500), (14, 2_500), (18, 4_000), (21, 1_200)];
    let batches: Vec<_> = (day.iter())
        .map(|&(hour, users)| uniform_weights(users, 4, hour))
        .collect();
    let mut stream = engine.stream(&batches[0]).unwrap();
    println!(
        "initial skyline: {} objects ({} page reads)\n",
        stream.skyline_len(),
        stream.metrics().io.physical_reads
    );

    let mut reserved: HashSet<u64> = HashSet::new();
    for (i, (&(hour, users), batch)) in day.iter().zip(&batches).enumerate() {
        let start = Instant::now();
        if i > 0 {
            stream.load(batch).unwrap();
        }
        let mut pairs: Vec<Pair> = stream.by_ref().collect();
        let elapsed = start.elapsed();
        let met = stream.metrics();
        println!(
            "{hour:>2}:00  {users:>5} users -> {:>5} rooms reserved \
             ({:>6.3}s, {:>5} physical I/Os, {:>4} loops, skyline now {:>4}, \
             {} rooms left)",
            pairs.len(),
            elapsed.as_secs_f64(),
            met.io.physical(),
            met.loops,
            stream.skyline_len(),
            inventory.len() - reserved.len() - pairs.len(),
        );

        // Each batch is the stable matching over what the earlier ones
        // left: a stateless request that excludes their rooms agrees.
        let rest = engine.request(batch).exclude(reserved.iter().copied());
        pairs.sort_unstable();
        assert_eq!(pairs, rest.evaluate().unwrap().sorted_pairs());
        reserved.extend(pairs.iter().map(|p| p.oid));
    }

    println!(
        "\nday's total: {} batches, {} rooms reserved, {} remaining \
         (every batch equal to a stateless request over the rooms left ✓)",
        day.len(),
        reserved.len(),
        inventory.len() - reserved.len()
    );
}
