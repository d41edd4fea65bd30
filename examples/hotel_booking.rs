//! The paper's motivating scenario at booking-site scale: thousands of
//! users simultaneously searching for hotel rooms, where room *types*
//! have limited inventory (the capacity extension of `mpq-core`).
//!
//! ```text
//! cargo run --release --example hotel_booking
//! ```

use std::time::Instant;

use mpq::core::capacity::{verify_capacity_stable, CapacityMatching};
use mpq::core::{Engine, Matching};
use mpq::datagen::functions::skewed_weights;
use mpq::datagen::objects::clustered;

fn main() {
    // 2,000 room types across ~40 hotels (clusters in attribute space:
    // rooms of one hotel resemble each other). Attributes: size, price
    // attractiveness, beach distance attractiveness, rating.
    let n_room_types = 2_000;
    let rooms = clustered(n_room_types, 4, 40, 42);

    // Each room type has 1–8 physical rooms.
    let capacities: Vec<u32> = (0..n_room_types).map(|i| 1 + (i as u32 * 7) % 8).collect();
    let total_inventory: u32 = capacities.iter().sum();

    // 5,000 users; most shoppers care predominantly about one attribute
    // (price hunters, beach lovers, ...), which `skewed_weights` models.
    let users = skewed_weights(5_000, 4, 7);

    println!(
        "inventory: {n_room_types} room types, {total_inventory} rooms; demand: {} users",
        users.n_alive()
    );

    // Bookings are confirmed as the stream identifies them: every
    // mutually-best (user, room type) pair of a round is final, and a
    // room type stays on offer until its last room went.
    let engine = Engine::builder().objects(&rooms).build().unwrap();
    let start = Instant::now();
    let request = engine.request(&users).capacities(&capacities);
    let mut stream = request.stream().unwrap();
    let mut confirmed = Vec::new();
    for booking in stream.by_ref() {
        if confirmed.len() < 3 {
            let (user, room, score) = (booking.fid, booking.oid, booking.score);
            println!("confirmed: user {user:>4} -> room type {room:>4} (score {score:.4})");
        }
        confirmed.push(booking);
    }
    let mut metrics = stream.into_metrics();
    metrics.elapsed = start.elapsed();
    let result = CapacityMatching::from_matching(Matching::new(confirmed, metrics));

    println!(
        "assigned {} users in {} loops ({:.2}s matching, {} physical I/Os)",
        result.pairs.len(),
        result.metrics.loops,
        result.metrics.elapsed.as_secs_f64(),
        result.metrics.io.physical(),
    );

    // How contended was the inventory?
    let mut fill: Vec<(u64, usize, u32)> = result
        .residents
        .iter()
        .map(|(&oid, fids)| (oid, fids.len(), capacities[oid as usize]))
        .collect();
    fill.sort_by_key(|&(_, n, _)| std::cmp::Reverse(n));
    println!("\nmost contended room types:");
    for (oid, n, cap) in fill.iter().take(5) {
        println!("  room type {oid:>5}: {n}/{cap} rooms booked");
    }

    let full: usize = fill.iter().filter(|&&(_, n, c)| n == c as usize).count();
    println!(
        "\n{} room types fully booked; {} users served of {} rooms available",
        full,
        result.pairs.len(),
        total_inventory
    );

    // The assignment is provably fair: no user and no hotel would both
    // prefer a different pairing.
    verify_capacity_stable(&rooms, &users, &capacities, &result.pairs)
        .expect("assignment must be stable");
    println!("stability verified ✓");
}
