//! Beyond linear preferences: the paper's model admits *any* monotone
//! scoring function (§II). This example matches users with non-linear
//! utilities — maximin fairness, Cobb–Douglas, and power-law emphasis —
//! against the same inventory, through the engine's one skyline-based
//! run with a scan in place of the reverse top-1 TA.
//!
//! ```text
//! cargo run --release --example monotone_preferences
//! ```

use mpq::core::monotone::{
    reference_monotone_matching, CobbDouglas, MinAttribute, MonotoneFunction, WeightedPower,
};
use mpq::core::Engine;
use mpq::datagen::objects::independent;

fn main() {
    // 20,000 apartments scored on (space, location, condition).
    let apartments = independent(20_000, 3, 77);
    let engine = Engine::builder().objects(&apartments).build().unwrap();

    // Six tenants with structurally different utilities.
    let balanced = MinAttribute; // "my worst attribute decides"
    let space_power = WeightedPower {
        weights: vec![0.8, 0.1, 0.1],
        k: 2.0, // strongly rewards outstanding space
    };
    let location_power = WeightedPower {
        weights: vec![0.1, 0.8, 0.1],
        k: 2.0,
    };
    let cobb = CobbDouglas {
        exponents: vec![0.4, 0.4, 0.2],
        epsilon: 1e-3, // classic diminishing-returns utility
    };
    let sqrt_mix = |p: &[f64]| 0.5 * p[0].sqrt() + 0.3 * p[1].sqrt() + 0.2 * p[2].sqrt();
    let linearish = |p: &[f64]| 0.2 * p[0] + 0.3 * p[1] + 0.5 * p[2];

    let names = [
        "maximin (balanced)",
        "space^2 enthusiast",
        "location^2 enthusiast",
        "cobb-douglas",
        "sqrt-mix (risk averse)",
        "linear",
    ];
    let tenants: Vec<&dyn MonotoneFunction> = vec![
        &balanced,
        &space_power,
        &location_power,
        &cobb,
        &sqrt_mix,
        &linearish,
    ];

    let matching = engine.evaluate_monotone(&tenants).unwrap();

    println!("stable assignment over {} apartments:", apartments.len());
    for pair in matching.pairs() {
        let apt = apartments.get(pair.oid as usize);
        println!(
            "  {:<24} -> apartment {:>5} (space {:.2}, location {:.2}, condition {:.2}; \
             utility {:.4})",
            names[pair.fid as usize], pair.oid, apt[0], apt[1], apt[2], pair.score
        );
    }
    let met = matching.metrics();
    println!(
        "\n{} loops, {} physical page accesses, {:.3}s",
        met.loops,
        met.io.physical(),
        met.elapsed.as_secs_f64()
    );

    // exactness check against the quadratic reference: the same pairs,
    // scores to the bit, in the greedy's own order
    let expect = reference_monotone_matching(&apartments, &tenants);
    let bits = |p: &mpq::core::Pair| (p.fid, p.oid, p.score.to_bits());
    let got: Vec<_> = matching.sorted_pairs().iter().map(bits).collect();
    assert_eq!(got, expect.iter().map(bits).collect::<Vec<_>>());
    println!("matches the exhaustive reference ✓");
}
