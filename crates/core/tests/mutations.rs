//! Incremental mutations and scoped cache invalidation.
//!
//! The engine mutates in place (COW epochs under the hood) and the
//! service's [`ResultCache`](mpq_core::ResultCache) invalidates by
//! *argument*, not wholesale: after a mutation, an entry is dropped only
//! when the mutated object could actually change its matching. The
//! observable is [`Engine::evaluation_count`] — a surviving entry keeps
//! serving hits without paying an evaluation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mpq_core::capacity::verify_capacity_stable;
use mpq_core::{reference_matching, verify_stable, Engine, MpqError, Pair, ServiceConfig};
use mpq_datagen::WorkloadBuilder;
use mpq_rtree::PointSet;
use mpq_ta::FunctionSet;

/// Four objects in 2-D: two clear winners, one middling, one dominated.
fn base_objects() -> PointSet {
    let mut objects = PointSet::new(2);
    for p in [[0.9_f64, 0.1], [0.1, 0.9], [0.5, 0.5], [0.05, 0.05]] {
        objects.push(&p);
    }
    objects
}

/// Two orthogonal-leaning users: the stable matching assigns object 0
/// to function 0 and object 1 to function 1; objects 2 and 3 stay free.
fn base_functions() -> FunctionSet {
    FunctionSet::from_rows(2, &[vec![0.9, 0.1], vec![0.1, 0.9]])
}

#[test]
fn mutations_are_reflected_in_subsequent_evaluations() {
    let engine = Engine::builder().objects(&base_objects()).build().unwrap();
    let fs = base_functions();
    let before = engine.request(&fs).evaluate().unwrap();
    assert_eq!(
        before
            .sorted_pairs()
            .iter()
            .map(|p| p.oid)
            .collect::<Vec<_>>(),
        vec![0, 1]
    );

    // A new object that function 0 prefers over everything.
    let oid = engine.insert_object(&[0.99, 0.2]).unwrap();
    assert_eq!(oid, 4);
    let after = engine.request(&fs).evaluate().unwrap();
    assert!(after.sorted_pairs().iter().any(|p| p.oid == oid));

    // Remove it again: back to the original assignment.
    engine.remove_object(oid).unwrap();
    let reverted = engine.request(&fs).evaluate().unwrap();
    assert_eq!(reverted.sorted_pairs(), before.sorted_pairs());

    // Moving object 1 out of contention hands function 1 the runner-up.
    engine.update_object(1, &[0.02, 0.03]).unwrap();
    let moved = engine.request(&fs).evaluate().unwrap();
    assert!(moved.sorted_pairs().iter().all(|p| p.oid != 1));
}

#[test]
fn mutation_errors_leave_the_engine_unchanged() {
    let engine = Engine::builder().objects(&base_objects()).build().unwrap();
    let v = engine.inventory_version();

    assert!(matches!(
        engine.insert_object(&[0.5]).unwrap_err(),
        mpq_core::MpqError::PointDimensionMismatch {
            engine: 2,
            point: 1
        }
    ));
    assert!(matches!(
        engine.insert_object(&[0.5, 1.5]).unwrap_err(),
        mpq_core::MpqError::CoordinateOutOfRange { .. }
    ));
    assert!(matches!(
        engine.remove_object(99).unwrap_err(),
        mpq_core::MpqError::UnknownObject { oid: 99 }
    ));
    assert!(matches!(
        engine.update_object(99, &[0.5, 0.5]).unwrap_err(),
        mpq_core::MpqError::UnknownObject { oid: 99 }
    ));
    assert_eq!(
        engine.inventory_version(),
        v,
        "failed mutations mint no version"
    );
    assert_eq!(engine.n_objects(), 4);
}

#[test]
fn removing_the_last_object_is_refused() {
    let mut objects = PointSet::new(2);
    objects.push(&[0.5, 0.5]);
    let engine = Engine::builder().objects(&objects).build().unwrap();
    let err = engine.remove_object(0).unwrap_err();
    assert!(matches!(err, mpq_core::MpqError::UnsupportedRequest(_)));
    assert_eq!(engine.n_objects(), 1);
}

/// Acceptance: after a single-object mutation, cache entries whose
/// matching the mutation provably cannot change still hit — no full
/// invalidation — pinned through [`Engine::evaluation_count`].
#[test]
fn unrelated_cache_entries_survive_a_mutation() {
    let engine = Arc::new(Engine::builder().objects(&base_objects()).build().unwrap());
    let service = Arc::clone(&engine).serve(ServiceConfig::default().workers(1));
    let client = service.client();
    let fs = base_functions();

    let submit = |fs: &FunctionSet| {
        client
            .submit(client.engine().request(fs))
            .unwrap()
            .wait()
            .unwrap()
    };

    let first = submit(&fs);
    assert_eq!(engine.evaluation_count(), 1);
    assert_eq!(submit(&fs).sorted_pairs(), first.sorted_pairs());
    assert_eq!(engine.evaluation_count(), 1, "repeat submission hits");

    // Mutation 1: remove the dominated, *unassigned* object 3. The
    // cached matching never touched it; the entry must revalidate.
    engine.remove_object(3).unwrap();
    assert_eq!(submit(&fs).sorted_pairs(), first.sorted_pairs());
    assert_eq!(
        engine.evaluation_count(),
        1,
        "removing an unassigned object must not flush the entry"
    );

    // Mutation 2: insert an object both functions rank strictly below
    // their assigned pair. Still no re-evaluation.
    let dominated = engine.insert_object(&[0.03, 0.04]).unwrap();
    assert_eq!(submit(&fs).sorted_pairs(), first.sorted_pairs());
    assert_eq!(engine.evaluation_count(), 1);
    let metrics = service.metrics();
    assert!(
        metrics.cache.revalidations >= 2,
        "survivals are restamps, not re-evaluations: {metrics}"
    );

    // Mutation 3: insert an object function 0 prefers over its assigned
    // pair — the entry can no longer be proven current and must drop.
    let winner = engine.insert_object(&[0.99, 0.2]).unwrap();
    let changed = submit(&fs);
    assert_eq!(engine.evaluation_count(), 2, "affected entry re-evaluates");
    assert!(changed.sorted_pairs().iter().any(|p| p.oid == winner));

    // Mutation 4: removing an *assigned* object likewise drops it.
    engine.remove_object(winner).unwrap();
    let reverted = submit(&fs);
    assert_eq!(engine.evaluation_count(), 3);
    assert_eq!(reverted.sorted_pairs(), first.sorted_pairs());

    let _ = dominated;
    service.shutdown();
}

/// A request that excludes an object is immune to mutations of that
/// object: exclusion removes it from the request's world entirely.
#[test]
fn entries_excluding_the_mutated_object_survive() {
    let engine = Arc::new(Engine::builder().objects(&base_objects()).build().unwrap());
    let service = Arc::clone(&engine).serve(ServiceConfig::default().workers(1));
    let client = service.client();
    let fs = base_functions();

    let submit_excluding = || {
        client
            .submit(client.engine().request(&fs).exclude([2u64]))
            .unwrap()
            .wait()
            .unwrap()
    };
    let first = submit_excluding();
    assert_eq!(engine.evaluation_count(), 1);

    // Move the excluded object somewhere that would beat everything:
    // irrelevant to a request that cannot see it.
    engine.update_object(2, &[1.0, 1.0]).unwrap();
    assert_eq!(submit_excluding().sorted_pairs(), first.sorted_pairs());
    assert_eq!(
        engine.evaluation_count(),
        1,
        "mutating an excluded object must not drop the entry"
    );
    service.shutdown();
}

/// The eager sweep at publish time keeps the `entries`/`bytes` gauges
/// honest: entries a mutation killed stop being counted as cached the
/// next time any result is published.
#[test]
fn stale_entries_are_swept_out_of_the_metrics() {
    let engine = Arc::new(Engine::builder().objects(&base_objects()).build().unwrap());
    let service = Arc::clone(&engine).serve(ServiceConfig::default().workers(1));
    let client = service.client();
    let fs = base_functions();

    client
        .submit(client.engine().request(&fs))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(service.metrics().cache.entries, 1);

    // Kill the entry's validity, then publish a different request: the
    // sweep must reclaim the dead entry rather than leave it counted.
    engine.insert_object(&[0.99, 0.99]).unwrap();
    let other = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
    client
        .submit(client.engine().request(&other))
        .unwrap()
        .wait()
        .unwrap();
    let metrics = service.metrics();
    assert_eq!(
        metrics.cache.entries, 1,
        "swept cache must hold only the fresh entry: {metrics}"
    );
    service.shutdown();
}

/// `(fid, oid, score bits)` of every pair, sorted — what
/// `to_bits`-identity compares.
fn bits(pairs: &[Pair]) -> Vec<(u32, u64, u64)> {
    let mut bits: Vec<_> = (pairs.iter())
        .map(|p| (p.fid, p.oid, p.score.to_bits()))
        .collect();
    bits.sort_unstable();
    bits
}

/// Readers pin their epoch: evaluations racing a mutator never observe
/// a half-applied mutation, and every evaluation is the reference
/// matching, to the bit, of one of the inventories the mutator commits
/// in a round: the racer at its first point, at its second, or gone.
#[test]
fn concurrent_evaluations_race_mutations_safely() {
    let engine = Arc::new(Engine::builder().objects(&base_objects()).build().unwrap());
    let fs = base_functions();
    let n = base_objects().len() as u64;
    let inventories: Vec<Vec<(u32, u64, u64)>> = [None, Some([0.8, 0.8]), Some([0.2, 0.9])]
        .iter()
        .map(|racer| {
            let mut objects = base_objects();
            if let Some(p) = racer {
                objects.push(p);
            }
            bits(&reference_matching(&objects, &fs))
        })
        .collect();
    std::thread::scope(|scope| {
        let e = Arc::clone(&engine);
        let mutator = scope.spawn(move || {
            for _ in 0..50 {
                let oid = e.insert_object(&[0.8, 0.8]).unwrap();
                e.update_object(oid, &[0.2, 0.9]).unwrap();
                e.remove_object(oid).unwrap();
            }
        });
        for _ in 0..2 {
            let e = Arc::clone(&engine);
            let (fs, inventories) = (fs.clone(), &inventories);
            scope.spawn(move || {
                for _ in 0..50 {
                    let m = e.request(&fs).evaluate().unwrap();
                    // The racer of any round stands where the reference
                    // puts the one extra object: at index `n`.
                    let pairs: Vec<Pair> = (m.pairs().iter())
                        .map(|p| Pair {
                            oid: p.oid.min(n),
                            ..*p
                        })
                        .collect();
                    let got = bits(&pairs);
                    assert!(
                        inventories.contains(&got),
                        "{got:?} is no committed inventory's matching"
                    );
                }
            });
        }
        mutator.join().unwrap();
    });
    // The inventory is back to its original four objects.
    assert_eq!(engine.n_objects(), 4);
    let final_matching = engine.request(&fs).evaluate().unwrap();
    assert_eq!(bits(final_matching.pairs()), inventories[0]);
}

/// Run `evaluations` while a second thread keeps calling `mutate`.
fn racing(mutate: impl Fn() + Sync, evaluations: impl FnOnce() + Send) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                mutate();
            }
        });
        // Join before stopping the mutator, and stop it even when an
        // evaluation panicked, or the scope would never end.
        let outcome = scope.spawn(evaluations).join();
        stop.store(true, Ordering::Relaxed);
        outcome.expect("an evaluation racing a mutation panicked");
    });
}

/// Run `evaluations` while a second thread keeps inserting and removing
/// `racer`.
fn racing_an_insert(engine: &Engine, racer: &[f64], evaluations: impl FnOnce() + Send) {
    let mutate = || {
        let oid = engine.insert_object(racer).unwrap();
        engine.remove_object(oid).unwrap();
    };
    racing(mutate, evaluations);
}

/// An update is one epoch. Object 2 is the one function's top-1 at
/// both points a second thread moves it between, so every evaluation
/// assigns it, and the engine never counts fewer than three objects:
/// no reader pins the removal without the insert that completes it.
#[test]
fn an_update_is_never_seen_half_applied() {
    const RACE: std::time::Duration = std::time::Duration::from_millis(500);
    let mut objects = PointSet::new(2);
    for p in [[0.1_f64, 0.2], [0.2, 0.2], [0.9, 0.9]] {
        objects.push(&p);
    }
    let engine = Engine::builder().objects(&objects).build().unwrap();
    let fs = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
    let moved = std::sync::atomic::AtomicU64::new(0);
    let mutate = || {
        let to: &[f64] = match moved.fetch_add(1, Ordering::Relaxed) % 2 {
            0 => &[0.8, 0.95],
            _ => &[0.9, 0.9],
        };
        engine.update_object(2, to).unwrap();
    };
    let mut evaluations = 0;
    racing(mutate, || {
        let start = std::time::Instant::now();
        while start.elapsed() < RACE {
            let matching = engine.request(&fs).evaluate().unwrap();
            let oids: Vec<u64> = matching.pairs().iter().map(|p| p.oid).collect();
            assert_eq!(
                oids,
                [2],
                "evaluation {evaluations} saw a half-applied update"
            );
            assert_eq!(engine.n_objects(), 3, "evaluation {evaluations}");
            evaluations += 1;
        }
    });
    assert!(moved.load(Ordering::Relaxed) > 1, "the updates never raced");
    assert!(evaluations > 0);
}

/// Per-object vectors — a request's capacities — are sized from
/// `oid_bound()` before the
/// evaluation pins its snapshot, so a racing insert can put an object
/// into the snapshot that the vector does not cover. That object is
/// available to an un-capacitated request and invisible to a
/// capacitated one; it must never be an index out of bounds. And an
/// exclusion that names its id holds, although the id
/// lies past the vector.
#[test]
fn evaluations_racing_an_insert_stay_inside_their_vectors() {
    const EVALUATIONS: usize = 2_000;
    const CAPACITY: u32 = 2;
    let w = WorkloadBuilder::new()
        .objects(200)
        .functions(3)
        .dim(2)
        .seed(14)
        .build();
    // The racing object beats the whole inventory for every function.
    // One pin holds at most one incarnation of it: `inventories[r]` is
    // the base inventory plus `r` racers.
    let racer = [0.99, 0.99];
    let mut with_racer = w.objects.clone();
    with_racer.push(&racer);
    let inventories = [w.objects.clone(), with_racer];
    let n = w.objects.len() as u64;
    let engine = || Arc::new(Engine::builder().objects(&w.objects).build().unwrap());
    let engines: [(Arc<Engine>, bool); 2] = [(engine(), true), (engine(), false)];
    for (engine, capacitated) in engines {
        let evaluate = || {
            let caps = vec![CAPACITY; engine.oid_bound() as usize];
            let request = engine.request(&w.functions);
            if capacitated {
                request.capacities(&caps).evaluate()
            } else {
                request.evaluate()
            }
        };
        racing_an_insert(&engine, &racer, || {
            for _ in 0..EVALUATIONS {
                let matching = match evaluate() {
                    Ok(matching) => matching,
                    // the id bound moved between sizing and validation
                    Err(MpqError::CapacityMismatch { .. }) if capacitated => continue,
                    Err(e) => panic!("untyped failure under a racing insert: {e}"),
                };
                // Ids are never recycled: fold the racers this
                // matching saw onto the slots after the base ids.
                let mut racers: Vec<u64> = matching
                    .pairs()
                    .iter()
                    .map(|p| p.oid)
                    .filter(|&oid| oid >= n)
                    .collect();
                racers.sort_unstable();
                racers.dedup();
                assert!(racers.len() <= 1);
                let pairs: Vec<Pair> = matching
                    .pairs()
                    .iter()
                    .map(|p| Pair {
                        oid: racers
                            .binary_search(&p.oid)
                            .map_or(p.oid, |slot| n + slot as u64),
                        ..*p
                    })
                    .collect();
                let objects = &inventories[racers.len()];
                if capacitated {
                    let caps = vec![CAPACITY; objects.len()];
                    verify_capacity_stable(objects, &w.functions, &caps, &pairs).unwrap();
                } else {
                    verify_stable(objects, &w.functions, &pairs).unwrap();
                }
            }
        });

        assert_eq!(engine.n_objects(), w.objects.len());
        let fresh = Engine::builder().objects(&w.objects).build().unwrap();
        let request = fresh.request(&w.functions);
        let reference = if capacitated {
            request.capacities(&vec![CAPACITY; w.objects.len()])
        } else {
            request
        };
        assert_eq!(
            bits(evaluate().unwrap().pairs()),
            bits(reference.evaluate().unwrap().pairs()),
            "quiescent matching differs from a fresh build"
        );
    }

    // A request may exclude ids the engine has not minted yet (it read
    // `oid_bound()` first): the racer that then takes one of them is in
    // the snapshot, past every vector, and still excluded.
    const AHEAD: u64 = 64;
    let engine = engine();
    racing_an_insert(&engine, &racer, || {
        for _ in 0..EVALUATIONS {
            let bound = engine.oid_bound();
            let excluded = bound..bound + AHEAD;
            let matching = engine
                .request(&w.functions)
                .exclude(excluded.clone())
                .evaluate()
                .unwrap();
            for p in matching.pairs() {
                assert!(
                    !excluded.contains(&p.oid),
                    "{engine:?} assigned object {}, excluded as one of {excluded:?}",
                    p.oid
                );
            }
        }
    });
}
