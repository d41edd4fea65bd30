//! Partitioned-engine acceptance: a [`ShardedEngine`] must be an
//! invisible optimization. For every algorithm, shard count, exclusion
//! set, capacity vector and interleaved mutation schedule, the
//! run over the shards must produce matchings **bit-identical** to an
//! unsharded [`Engine`] over the same objects — at one shard the very
//! same run, count for count — and a sharded data
//! directory must reopen (per-shard WAL replay included) to the same
//! state. The result cache is stamped with a per-shard version vector,
//! so a mutation on one shard must not evict entries whose matching
//! only other shards' mutations could change.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpq_core::{
    reference_matching, reference_matching_excluding, verify_stable, Algorithm, Engine,
    EngineService, EvalBackend, Matching, MpqError, Pair, Scratch, ServiceConfig, ShardedEngine,
    SubmitOptions, Ticket,
};
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_rtree::{FaultInjector, Node, PageId, PointSet};
use mpq_skyline::SkylineMaintainer;
use mpq_ta::FunctionSet;
use proptest::prelude::*;

/// A fresh per-test scratch directory (unique per call so parallel
/// tests never collide).
fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mpq_shard_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seeded_points(n: usize, dim: usize, seed: u64) -> PointSet {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut points = PointSet::new(dim);
    let mut p = vec![0.0; dim];
    for _ in 0..n {
        for v in p.iter_mut() {
            *v = next();
        }
        points.push(&p);
    }
    points
}

fn functions(dim: usize, n: usize, seed: u64) -> FunctionSet {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        0.05 + 0.9 * ((state >> 11) as f64 / (1u64 << 53) as f64)
    };
    let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect();
    FunctionSet::from_rows(dim, &rows)
}

const ALGORITHMS: [Algorithm; 3] = [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain];

/// Bit-exact pair comparison: scores via `to_bits`, not epsilon.
fn exact(pairs: &[Pair]) -> Vec<(u32, u64, u64)> {
    pairs
        .iter()
        .map(|p| (p.fid, p.oid, p.score.to_bits()))
        .collect()
}

/// The tentpole acceptance matrix: SB/BF/Chain × K ∈ {1, 2, 4, 8} ×
/// {plain, exclusions, capacities}. Every cell must be bit-identical to
/// the unsharded engine's answer.
#[test]
fn sharded_matches_unsharded_for_all_algorithms_and_options() {
    let objects = seeded_points(240, 3, 0xA11CE);
    let fs = functions(3, 24, 0xB0B);
    let single = Engine::builder().objects(&objects).build().unwrap();
    let exclude: Vec<u64> = vec![3, 17, 42, 99, 140];
    let capacities: Vec<u32> = (0..objects.len() as u64)
        .map(|oid| (oid % 3) as u32)
        .collect();

    for k in [1usize, 2, 4, 8] {
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(k)
            .build()
            .unwrap();
        for alg in ALGORITHMS {
            // Plain.
            let want = single.request(&fs).algorithm(alg).evaluate().unwrap();
            let got = sharded.request(&fs).algorithm(alg).evaluate().unwrap();
            assert_eq!(
                exact(&got.sorted_pairs()),
                exact(&want.sorted_pairs()),
                "plain, K={k}, {alg:?}"
            );

            // Exclusions.
            let want = single
                .request(&fs)
                .algorithm(alg)
                .exclude(exclude.iter().copied())
                .evaluate()
                .unwrap();
            let got = sharded
                .request(&fs)
                .algorithm(alg)
                .exclude(exclude.iter().copied())
                .evaluate()
                .unwrap();
            assert_eq!(
                exact(&got.sorted_pairs()),
                exact(&want.sorted_pairs()),
                "excluded, K={k}, {alg:?}"
            );
        }

        // Capacities (SB only, same restriction as the unsharded engine).
        let want = single
            .request(&fs)
            .capacities(&capacities)
            .evaluate()
            .unwrap();
        let got = sharded
            .request(&fs)
            .capacities(&capacities)
            .evaluate()
            .unwrap();
        assert_eq!(
            exact(&got.sorted_pairs()),
            exact(&want.sorted_pairs()),
            "capacities, K={k}"
        );
        let err = sharded
            .request(&fs)
            .algorithm(Algorithm::BruteForce)
            .capacities(&capacities)
            .evaluate()
            .unwrap_err();
        assert!(matches!(err, MpqError::UnsupportedRequest(_)), "{err:?}");
    }
}

/// A shard count that is no power of two, on two-dimensional data,
/// slices differently but must still be invisible.
#[test]
fn five_hash_shards_are_bit_identical_too() {
    let objects = seeded_points(180, 2, 0xCAFE);
    let fs = functions(2, 15, 0xF00D);
    let single = Engine::builder().objects(&objects).build().unwrap();
    let sharded = ShardedEngine::builder()
        .objects(&objects)
        .shards(5)
        .build()
        .unwrap();
    for alg in ALGORITHMS {
        let want = single.request(&fs).algorithm(alg).evaluate().unwrap();
        let got = sharded.request(&fs).algorithm(alg).evaluate().unwrap();
        assert_eq!(exact(&got.sorted_pairs()), exact(&want.sorted_pairs()));
    }
}

/// 3 000 objects × 120 functions in three dimensions: deep enough for
/// several tree levels, multi-pair rounds and promotions.
fn paper_shaped(distribution: Distribution, seed: u64) -> (PointSet, FunctionSet) {
    let w = WorkloadBuilder::new()
        .objects(3_000)
        .functions(120)
        .dim(3)
        .distribution(distribution)
        .seed(seed)
        .build();
    (w.objects, w.functions)
}

/// What two runs of one loop must agree on: the pairs in emission
/// order, the rounds, the reverse top-1 scans, the page reads and the
/// BBS expansions.
fn counts(m: &Matching) -> (Vec<(u32, u64, u64)>, [u64; 4]) {
    let met = m.metrics();
    let expanded = met.skyline.expect("an SB run").nodes_expanded;
    let work = [met.loops, met.reverse_top1_calls, met.io.logical, expanded];
    (exact(m.pairs()), work)
}

/// A 1-shard evaluation *is* the engine's: not only the same matching
/// but the same run — cold, resumed, with exclusions, capacitated.
#[test]
fn one_shard_is_the_engine_by_counts() {
    for distribution in [Distribution::Independent, Distribution::AntiCorrelated] {
        let (objects, fs) = paper_shaped(distribution, 2009);
        let single = Engine::builder().objects(&objects).build().unwrap();
        let sharded = ShardedEngine::builder().objects(&objects).shards(1);
        let sharded = sharded.build().unwrap();
        let units = vec![1; objects.len()];

        let shapes = |backend: &dyn EvalBackend| {
            let mut scratch = Scratch::new();
            let request = || backend.request(&fs);
            let (cold, seed) = request().evaluate_seeded(&mut scratch, None).unwrap();
            let seed = seed.expect("a cold run captures");
            let resume = request().evaluate_seeded(&mut scratch, Some(&seed));
            let (seeded, captured) = resume.unwrap();
            assert!(captured.is_none(), "a resumed run captures nothing");
            let taken = cold.pairs().iter().step_by(7).map(|p| p.oid);
            let excluded = request().exclude(taken).evaluate().unwrap();
            let unit = request().capacities(&units).evaluate().unwrap();
            assert_eq!(counts(&unit), counts(&cold), "{distribution:?}");
            [cold, seeded, excluded, unit].map(|m| counts(&m))
        };
        assert_eq!(shapes(&single), shapes(&sharded), "{distribution:?}");
    }
}

/// K shards run the engine's rounds: the union of the shards' skylines
/// contains the skyline, and nothing outside the skyline is ever
/// mutually best, so every round reports the engine's pairs.
#[test]
fn any_shard_count_runs_the_engines_rounds() {
    for (distribution, seed) in [
        (Distribution::Independent, 2009),
        (Distribution::AntiCorrelated, 7),
        (Distribution::Correlated, 97),
    ] {
        let (objects, fs) = paper_shaped(distribution, seed);
        let single = Engine::builder().objects(&objects).build().unwrap();
        let want = single.request(&fs).evaluate().unwrap();
        assert!(want.metrics().loops < 120, "multi-pair rounds");
        for k in [2usize, 4, 8] {
            let sharded = ShardedEngine::builder().objects(&objects).shards(k);
            let got = sharded.build().unwrap().evaluate(&fs).unwrap();
            let context = format!("{distribution:?}, K={k}");
            assert_eq!(exact(got.pairs()), exact(want.pairs()), "{context}");
            assert_eq!(got.metrics().loops, want.metrics().loops, "{context}");
            assert!(
                got.metrics().reverse_top1_calls >= want.metrics().reverse_top1_calls,
                "{context}: the union is no smaller than the skyline"
            );
        }
    }
}

/// One seed for K shards: captured once by a cold run, resumed by the
/// next — which skips exactly the K BBS builds — and declined as a
/// whole once any shard has moved on.
#[test]
fn a_sharded_seed_resumes_every_shard_or_none() {
    let (objects, fs) = paper_shaped(Distribution::AntiCorrelated, 2009);
    let sharded = ShardedEngine::builder().objects(&objects).shards(4);
    let sharded = sharded.build().unwrap();
    let mut scratch = Scratch::new();
    let expanded = |m: &Matching| m.metrics().skyline.unwrap().nodes_expanded;

    let request = sharded.request(&fs);
    let (cold, seed) = request.evaluate_seeded(&mut scratch, None).unwrap();
    let seed = seed.expect("a cold run over stable pins captures");
    assert_eq!(seed.parts(), 4);
    assert_eq!(seed.versions(), sharded.version_vector());
    let (seeded, captured) = request.evaluate_seeded(&mut scratch, Some(&seed)).unwrap();
    assert!(captured.is_none(), "a resumed run captures nothing");
    assert_eq!(exact(seeded.pairs()), exact(cold.pairs()));
    assert!(expanded(&seeded) < expanded(&cold));
    let builds = sharded.shards().iter().map(|shard| {
        SkylineMaintainer::build(shard.tree())
            .stats()
            .nodes_expanded
    });
    assert_eq!(expanded(&cold) - expanded(&seeded), builds.sum::<u64>());

    // A dominated insert lands on one shard and changes no matching,
    // but the seed is now stale in one component: nothing resumes.
    sharded.insert_object(&[0.001, 0.001, 0.001]).unwrap();
    let moved = seed.versions().iter().zip(sharded.version_vector());
    assert_eq!(moved.filter(|(then, now)| *then != now).count(), 1);
    let (stale, recaptured) = request.evaluate_seeded(&mut scratch, Some(&seed)).unwrap();
    let (fresh, _) = request.evaluate_seeded(&mut scratch, None).unwrap();
    assert_eq!(exact(stale.pairs()), exact(cold.pairs()));
    assert_eq!(expanded(&stale), expanded(&fresh), "every shard ran cold");
    let recaptured = recaptured.expect("a declined seed is replaced");
    assert_eq!(recaptured.versions(), sharded.version_vector());
}

/// The same interleaved mutation schedule applied to both engines:
/// both mint the same oids (insertion order fixes them), so every
/// intermediate inventory must produce the same matchings.
#[test]
fn interleaved_mutations_preserve_bit_identity() {
    let objects = seeded_points(120, 3, 0x5EED);
    let fs = functions(3, 18, 0x1234);
    let single = Engine::builder().objects(&objects).build().unwrap();
    let sharded = ShardedEngine::builder()
        .objects(&objects)
        .shards(4)
        .build()
        .unwrap();

    let compare = |step: &str| {
        for alg in ALGORITHMS {
            let want = single.request(&fs).algorithm(alg).evaluate().unwrap();
            let got = sharded.request(&fs).algorithm(alg).evaluate().unwrap();
            assert_eq!(
                exact(&got.sorted_pairs()),
                exact(&want.sorted_pairs()),
                "{step}, {alg:?}"
            );
        }
    };

    compare("initial");
    let extra = seeded_points(8, 3, 0xADD);
    for (_, p) in extra.iter() {
        let a = single.insert_object(p).unwrap();
        let b = sharded.insert_object(p).unwrap();
        assert_eq!(a, b, "both engines must mint the same oid");
    }
    compare("after inserts");
    for oid in [2u64, 55, 119, 121] {
        single.remove_object(oid).unwrap();
        sharded.remove_object(oid).unwrap();
    }
    compare("after removes");
    let moved = seeded_points(5, 3, 0x30DE);
    for (i, (_, p)) in moved.iter().enumerate() {
        let oid = 10 + 20 * i as u64;
        single.update_object(oid, p).unwrap();
        sharded.update_object(oid, p).unwrap();
    }
    compare("after updates");
}

/// Crash-shaped recovery: build a persistent sharded engine, mutate it
/// (no checkpoint — the per-shard WAL tails carry everything), drop it
/// without any shutdown grace, and reopen the directory. The reopened
/// engine must match an in-memory unsharded reference that applied the
/// same mutations, bit-for-bit, for all three algorithms.
#[test]
fn sharded_reopen_replays_per_shard_wals_to_bit_identity() {
    let dir = tmp_dir("reopen");
    let objects = seeded_points(150, 3, 0xD15C);
    let fs = functions(3, 20, 0x9);

    let reference = Engine::builder().objects(&objects).build().unwrap();
    let mutate = |insert: &mut dyn FnMut(&[f64]) -> u64,
                  remove: &mut dyn FnMut(u64),
                  update: &mut dyn FnMut(u64, &[f64])| {
        let extra = seeded_points(6, 3, 0xE17A);
        for (_, p) in extra.iter() {
            insert(p);
        }
        remove(3);
        remove(78);
        let moved = seeded_points(2, 3, 0x1B);
        for (i, (_, p)) in moved.iter().enumerate() {
            update(40 + i as u64, p);
        }
    };
    mutate(
        &mut |p| reference.insert_object(p).unwrap(),
        &mut |oid| reference.remove_object(oid).unwrap(),
        &mut |oid, p| reference.update_object(oid, p).unwrap(),
    );

    {
        let disk = ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .data_dir(&dir)
            .build()
            .unwrap();
        mutate(
            &mut |p| disk.insert_object(p).unwrap(),
            &mut |oid| disk.remove_object(oid).unwrap(),
            &mut |oid, p| disk.update_object(oid, p).unwrap(),
        );
        assert!(disk.wal_bytes() > 0, "mutations must hit the shard WALs");
        // Dropped here: no checkpoint, recovery is WAL replay alone.
    }

    assert!(ShardedEngine::persisted_at(&dir));
    let reopened = ShardedEngine::open(&dir).unwrap();
    assert_eq!(reopened.shard_count(), 4, "manifest preserves the layout");
    assert_eq!(reopened.n_objects(), reference.n_objects());
    for alg in ALGORITHMS {
        let want = reference.request(&fs).algorithm(alg).evaluate().unwrap();
        let got = reopened.request(&fs).algorithm(alg).evaluate().unwrap();
        assert_eq!(
            exact(&got.sorted_pairs()),
            exact(&want.sorted_pairs()),
            "{alg:?}"
        );
    }
}

/// No shard consults a fault injector, so hosting shards with one is
/// refused — building them, and reopening a directory that holds them,
/// where a chaos schedule would otherwise inject nothing and pass.
#[test]
fn hosting_shards_with_a_fault_injector_is_refused() {
    let dir = tmp_dir("injector");
    let objects = seeded_points(60, 3, 0xFA17);
    let host = |shards| {
        Engine::builder()
            .objects(&objects)
            .data_dir(&dir)
            .fault_injector(FaultInjector::shared())
            .open_or_build(shards)
            .map(|backend| backend.n_objects())
    };
    let refused = Err(MpqError::UnsupportedRequest(
        "fault injection is only supported on an unsharded engine",
    ));
    assert_eq!(host(2), refused, "building");
    assert!(!mpq_core::persisted_at(&dir), "refused before any file");
    let builder = ShardedEngine::builder().objects(&objects).shards(2);
    drop(builder.data_dir(&dir).build().unwrap());
    assert_eq!(host(1), refused, "reopening: the directory decides");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(host(1), Ok(60), "one tree takes the injector");
}

/// `(FNV-1a over the page images in page-id order, as `mpq_rtree`'s
/// `bulk_layout.rs` hashes a tree; pages; root; height)`.
type IndexImage = (u64, usize, u32, u32);

/// The [`IndexImage`] of an engine's index.
fn index_image(engine: &Engine) -> IndexImage {
    let tree = engine.tree();
    let mut page = vec![0u8; 4096];
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for pid in 0..tree.page_count() as u32 {
        page.fill(0);
        tree.read_node(PageId(pid)).encode(&mut page);
        for &b in &page {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (hash, tree.page_count(), tree.root_page().0, tree.height())
}

/// [`index_image`] of every shard of a `K`-shard build of 20 000 4-d
/// objects (`WorkloadBuilder`, seed 2009), captured from the **parent
/// commit's** builder — which copied each shard's objects out and
/// bulk-loaded the copy under explicit ids — by running
/// `index_image` there; not regenerated from the builder under test.
#[rustfmt::skip]
const SHARD_IMAGES: [(Distribution, usize, &[IndexImage]); 8] = [
    (Distribution::Independent, 1, &[(14893964470603184496, 265, 264, 3)]),
    (Distribution::Independent, 2, &[(1053212461801167387, 111, 110, 3), (16829426457523182214, 111, 110, 3)]),
    (Distribution::Independent, 4, &[(11121258401293276384, 55, 54, 2), (11955463655933831730, 55, 54, 2), (17049035854579767248, 55, 54, 2), (12219998042092678593, 55, 54, 2)]),
    (Distribution::Independent, 8, &[(16330308302444849398, 25, 24, 2), (2394000452755212344, 37, 36, 2), (10414981187465801163, 37, 36, 2), (10212147107417460841, 37, 36, 2), (9169831103859036534, 37, 36, 2), (6820014035614941866, 37, 36, 2), (7452370170638590255, 37, 36, 2), (17723314108245151662, 37, 36, 2)]),
    (Distribution::AntiCorrelated, 1, &[(430285871828012940, 265, 264, 3)]),
    (Distribution::AntiCorrelated, 2, &[(12675625870215435274, 111, 110, 3), (10590514517028413846, 111, 110, 3)]),
    (Distribution::AntiCorrelated, 4, &[(8641979062071256666, 55, 54, 2), (16434861648782568041, 55, 54, 2), (13888921196175271364, 55, 54, 2), (6995916939793031126, 55, 54, 2)]),
    (Distribution::AntiCorrelated, 8, &[(17489144907226492729, 25, 24, 2), (15159781867671376772, 37, 36, 2), (11786296231212867372, 37, 36, 2), (377587935662188104, 37, 36, 2), (7427099499325460908, 37, 36, 2), (2628575296973569778, 37, 36, 2), (37571922917182518, 37, 36, 2), (10953811740892140565, 37, 36, 2)]),
];

/// One key buffer cut `K` ways is `K` independent loads. Every shard's
/// index is, byte for byte, the one the parent commit built from a copy
/// of the shard's objects; it is the tree an [`Engine`] over just those
/// objects builds, with each leaf entry under its global id; and its
/// object table holds exactly the shard's objects.
#[test]
fn every_shard_is_the_index_its_objects_alone_would_load() {
    for (distribution, k, images) in SHARD_IMAGES {
        let objects = WorkloadBuilder::new()
            .objects(20_000)
            .functions(0)
            .dim(4)
            .distribution(distribution)
            .seed(2009)
            .build()
            .objects;
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(k)
            .build()
            .unwrap();
        let case = format!("{distribution:?}, K = {k}");
        let built: Vec<_> = sharded.shards().iter().map(index_image).collect();
        assert_eq!(built, images, "{case}");

        let owners = membership(&sharded);
        for (s, shard) in sharded.shards().iter().enumerate() {
            let ids: Vec<u64> = (0..objects.len() as u64)
                .filter(|&oid| owners[oid as usize] == [s as u64])
                .collect();
            assert_eq!(shard.n_objects(), ids.len(), "{case}, shard {s}");
            assert_eq!(shard.oid_bound(), ids.last().map_or(0, |last| last + 1));
            let mut alone = PointSet::new(4);
            for &oid in &ids {
                assert_eq!(
                    shard.object_point(oid).as_deref(),
                    Some(objects.get(oid as usize)),
                    "{case}, shard {s}, object {oid}"
                );
                alone.push(objects.get(oid as usize));
            }
            let alone = Engine::builder().objects(&alone).build().unwrap();
            let (tree, tree_alone) = (shard.tree(), alone.tree());
            assert_eq!(tree.page_count(), tree_alone.page_count());
            assert_eq!(tree.root_page(), tree_alone.root_page());
            for pid in (0..tree.page_count() as u32).map(PageId) {
                match (&*tree.read_node(pid), &*tree_alone.read_node(pid)) {
                    (Node::Leaf(global), Node::Leaf(local)) => {
                        assert_eq!(global.len(), local.len());
                        for i in 0..local.len() {
                            assert_eq!(global.point(i), local.point(i));
                            assert_eq!(global.oid(i), ids[local.oid(i) as usize]);
                        }
                    }
                    (global, local) => assert_eq!(global, local, "{case}, shard {s}, {pid}"),
                }
            }
        }
    }
}

/// A `K`-shard build validates as an [`Engine`] build does: the whole
/// inventory, first, naming the first bad object in id order — not the
/// first one in shard order, after building the shards before it — and
/// an invalid inventory writes nothing.
#[test]
fn an_invalid_inventory_is_refused_as_an_engine_refuses_it_and_leaves_no_debris() {
    let objects = seeded_points(400, 3, 91);
    // Two ids in id order whose shards are in the opposite order.
    let owners = membership(
        &ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .build()
            .unwrap(),
    );
    let (a, b) = (0..objects.len())
        .flat_map(|a| (a + 1..objects.len()).map(move |b| (a, b)))
        .find(|&(a, b)| owners[a] > owners[b])
        .unwrap();
    let with = |bad: [(usize, f64); 2]| {
        let mut flat = objects.as_flat().to_vec();
        for (i, v) in bad {
            flat[i * 3 + 1] = v;
        }
        PointSet::from_flat(3, flat)
    };
    for bad in [
        with([(a, f64::NAN), (b, 1.5)]),
        with([(a, -0.25), (b, f64::INFINITY)]),
    ] {
        // (a NaN is not equal to itself: errors compare as printed)
        let want = Engine::builder().objects(&bad).build().unwrap_err();
        assert!(
            matches!(
                want,
                MpqError::NonFiniteCoordinate { oid, .. } | MpqError::CoordinateOutOfRange { oid, .. }
                    if oid == a as u64
            ),
            "an engine names object {a}: {want:?}"
        );
        for k in [1, 4] {
            let got = ShardedEngine::builder().objects(&bad).shards(k).build();
            assert_eq!(
                format!("{:?}", got.unwrap_err()),
                format!("{want:?}"),
                "K = {k}"
            );
        }
        let dir = tmp_dir("invalid");
        let got = ShardedEngine::builder()
            .objects(&bad)
            .shards(4)
            .data_dir(&dir)
            .build();
        assert_eq!(
            format!("{:?}", got.unwrap_err()),
            format!("{want:?}"),
            "persistent"
        );
        let debris = std::fs::read_dir(&dir).map_or(0, Iterator::count);
        assert_eq!(debris, 0, "an invalid inventory creates no file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Which shard holds each oid, by probing every shard's index.
fn membership(sharded: &ShardedEngine) -> Vec<Vec<u64>> {
    (0..sharded.oid_bound())
        .map(|oid| {
            (0..sharded.shard_count())
                .filter(|&s| sharded.shards()[s].object_point(oid).is_some())
                .map(|s| s as u64)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hash partitioner is a true partition: every object lands in
    /// exactly one shard (disjoint + covering), for any object count,
    /// dimensionality and shard count.
    #[test]
    fn hash_partition_is_disjoint_and_covering(
        n in 1usize..160,
        dim in 2usize..5,
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let objects = seeded_points(n, dim, seed);
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(k)
            .build()
            .unwrap();
        prop_assert_eq!(sharded.n_objects(), n);
        let per_shard: usize = sharded.shards().iter().map(Engine::n_objects).sum();
        prop_assert_eq!(per_shard, n, "shard sizes must sum to the total");
        for (oid, owners) in membership(&sharded).iter().enumerate() {
            prop_assert_eq!(
                owners.len(), 1,
                "oid {} must live in exactly one shard, found {:?}", oid, owners
            );
        }
    }
}

/// The partition is a pure function of the oid, so persisting and
/// reopening a sharded store must put every object back in the same
/// shard — otherwise routed mutations would corrupt the layout.
#[test]
fn hash_partition_is_stable_across_reopen() {
    let dir = tmp_dir("stable");
    let objects = seeded_points(90, 3, 0x57AB);
    let before = {
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(6)
            .data_dir(&dir)
            .build()
            .unwrap();
        membership(&sharded)
    };
    let reopened = ShardedEngine::open(&dir).unwrap();
    assert_eq!(membership(&reopened), before);
}

/// Every hosting path runs on every backend: the unsharded engine and
/// the sharded engine at K = 1 and K = 4, each with the number of
/// per-shard gauge rows its service must report.
fn backends(objects: &PointSet) -> Vec<(&'static str, Arc<dyn EvalBackend>, usize)> {
    let sharded = |k| {
        ShardedEngine::builder()
            .objects(objects)
            .shards(k)
            .build()
            .unwrap()
    };
    vec![
        (
            "engine",
            Arc::new(Engine::builder().objects(objects).build().unwrap()),
            0,
        ),
        ("sharded K=1", Arc::new(sharded(1)), 1),
        ("sharded K=4", Arc::new(sharded(4)), 4),
    ]
}

fn sorted_exact(mut pairs: Vec<Pair>) -> Vec<(u32, u64, u64)> {
    pairs.sort_unstable();
    exact(&pairs)
}

/// One body, every backend, behind `&dyn EvalBackend`: direct
/// evaluation, the batch path and the service (cold, cached, seeded
/// miss) — all three algorithms, exclusions and capacities — must
/// produce the reference matching bit for bit.
#[test]
fn every_backend_serves_the_reference_matching_on_every_path() {
    let objects = seeded_points(160, 3, 0x0B0D);
    let fs = functions(3, 12, 0x1DEA);
    let exclude: Vec<u64> = vec![3, 17, 42, 99, 140];
    // 0/1 capacities are exclusions by another name, so the exact
    // reference covers them (multi-unit capacities are compared across
    // engines in `sharded_matches_unsharded_for_all_algorithms_and_options`).
    let caps: Vec<u32> = (0..objects.len() as u64)
        .map(|oid| u32::from(oid % 4 != 0))
        .collect();
    let want_plain = sorted_exact(reference_matching(&objects, &fs));
    let reference_without = |gone: &dyn Fn(u64) -> bool| {
        sorted_exact(reference_matching_excluding(&objects, &fs, gone))
    };
    let want_masked = reference_without(&|oid| exclude.contains(&oid));
    let want_caps = reference_without(&|oid| caps[oid as usize] == 0);
    let want_refined = reference_without(&|oid| oid == exclude[0]);

    for (name, backend, gauge_rows) in backends(&objects) {
        let plain = |alg| backend.request(&fs).algorithm(alg);
        let masked = |alg| plain(alg).exclude(exclude.iter().copied());
        let capped = || backend.request(&fs).capacities(&caps);
        let got = |m: &Matching| exact(&m.sorted_pairs());

        // Direct evaluation and the batch path.
        for alg in ALGORITHMS {
            let direct = plain(alg).evaluate().unwrap();
            assert_eq!(got(&direct), want_plain, "{name}, {alg:?}, direct");
            verify_stable(&objects, &fs, direct.pairs())
                .unwrap_or_else(|e| panic!("{name}, {alg:?}: {e}"));
            let direct = masked(alg).evaluate().unwrap();
            assert_eq!(got(&direct), want_masked, "{name}, {alg:?}, masked");

            let batch = backend
                .evaluate_batch(&[plain(alg), masked(alg)], 2)
                .unwrap();
            assert_eq!(got(&batch.matchings()[0]), want_plain, "{name}, {alg:?}");
            assert_eq!(got(&batch.matchings()[1]), want_masked, "{name}, {alg:?}");
        }
        let direct = capped().evaluate().unwrap();
        assert_eq!(got(&direct), want_caps, "{name}, capacities");

        // The service: cold, then cached.
        let service =
            EngineService::spawn(Arc::clone(&backend), ServiceConfig::default().workers(2));
        let client = service.client();
        let serve = |request| client.submit(request).unwrap().wait().unwrap();
        for alg in ALGORITHMS {
            let cold = serve(plain(alg));
            assert_eq!(got(&cold), want_plain, "{name}, {alg:?}, cold ticket");
            let hits = client.metrics().cache.hits;
            let cached = serve(plain(alg));
            assert_eq!(got(&cached), want_plain, "{name}, {alg:?}, cached ticket");
            assert_eq!(client.metrics().cache.hits, hits + 1, "{name}, {alg:?}");
            assert_eq!(got(&serve(masked(alg))), want_masked, "{name}, {alg:?}");
        }
        assert_eq!(got(&serve(capped())), want_caps, "{name}, capacities");

        // A request the cache has not seen: an exact miss, evaluated
        // seeded from the skyline the first cold run left there.
        let seeded = client.metrics().cache.seeded_hits;
        let refined = serve(backend.request(&fs).exclude([exclude[0]]));
        assert_eq!(got(&refined), want_refined, "{name}, seeded miss");
        assert_eq!(client.metrics().cache.seeded_hits, seeded + 1, "{name}");

        // Per-shard gauges surface exactly when there are shards.
        let metrics = client.metrics();
        assert_eq!(metrics.shards.len(), gauge_rows, "{name}");
        if gauge_rows > 0 {
            let covered: usize = metrics.shards.iter().map(|s| s.objects).sum();
            assert_eq!(covered, objects.len(), "{name}: gauges cover the inventory");
        }
        let json = metrics.to_json();
        assert!(json.get("shards").is_some());
        service.shutdown();
    }
}

/// The version-vector cache audit, on every backend: a mutation that
/// provably cannot change a cached matching (a dominated insert, which
/// lands on exactly one shard) must not cost a re-evaluation — the
/// per-shard mutation logs revalidate the entry component-wise. A
/// mutation that *can* change the result must re-evaluate.
#[test]
fn cache_entries_survive_mutations_scoped_to_other_shards() {
    let objects = seeded_points(80, 2, 0xCACE);
    let fs = functions(2, 6, 0x77);
    for (name, backend, _) in backends(&objects) {
        let service =
            EngineService::spawn(Arc::clone(&backend), ServiceConfig::default().workers(1));
        let client = service.client();
        let submit = || client.submit(backend.request(&fs)).unwrap().wait().unwrap();
        let first = submit();
        assert_eq!(submit().sorted_pairs(), first.sorted_pairs());
        assert_eq!(
            client.metrics().cache.hits,
            1,
            "{name}: identical resubmission must be a cache hit"
        );

        // A deeply dominated insert bumps exactly one component of the
        // version vector; the logs prove the matching unchanged and the
        // entry is restamped, not evicted.
        let versions_before = backend.version_vector();
        backend.insert_object(&[0.001, 0.001]).unwrap();
        let versions_after = backend.version_vector();
        assert_eq!(
            versions_before
                .iter()
                .zip(&versions_after)
                .filter(|(a, b)| a != b)
                .count(),
            1,
            "{name}: one mutation bumps exactly one shard's version"
        );
        assert_eq!(submit().sorted_pairs(), first.sorted_pairs());
        let cache = client.metrics().cache;
        assert_eq!(
            (cache.hits, cache.revalidations),
            (2, 1),
            "{name}: a dominated insert must not evict the cached matching"
        );

        // A dominating insert can win a greedy round: the entry must
        // fall back to a real re-evaluation (and the result changes).
        backend.insert_object(&[0.999, 0.999]).unwrap();
        let after = submit();
        assert_eq!(
            client.metrics().cache.hits,
            2,
            "{name}: a result-changing mutation must re-evaluate"
        );
        assert_ne!(after.sorted_pairs(), first.sorted_pairs());
    }
}

/// A request is only ever evaluated by the backend it was built
/// against: a service refuses one built on any other backend — of the
/// other kind (in both directions) or another instance of its own kind —
/// with one message, and accepts its own backend's requests whether
/// they were built through the concrete engine or the trait object.
#[test]
fn services_refuse_requests_built_on_another_backend() {
    let objects = seeded_points(100, 3, 0x5E4E);
    let fs = functions(3, 10, 0x42);
    let build_single = || Arc::new(Engine::builder().objects(&objects).build().unwrap());
    let build_sharded = || {
        let builder = ShardedEngine::builder().objects(&objects).shards(3);
        Arc::new(builder.build().unwrap())
    };
    let (single, other_single) = (build_single(), build_single());
    let (sharded, other_sharded) = (build_sharded(), build_sharded());
    let single_service = Arc::clone(&single).serve(ServiceConfig::default().workers(1));
    let sharded_service = Arc::clone(&sharded).serve(ServiceConfig::default().workers(1));
    let (to_single, to_sharded) = (single_service.client(), sharded_service.client());

    let refused = |submitted: Result<Ticket, MpqError>| {
        assert_eq!(
            submitted.unwrap_err(),
            MpqError::UnsupportedRequest(
                "request was built against a different engine than this service serves"
            )
        );
    };
    refused(to_single.submit(sharded.request(&fs)));
    refused(to_sharded.submit(single.request(&fs)));
    refused(to_single.submit(other_single.request(&fs)));
    refused(to_sharded.submit(other_sharded.request(&fs)));
    refused(to_single.submit(to_sharded.backend().request(&fs)));
    refused(to_sharded.submit_with(to_single.backend().request(&fs), SubmitOptions::default()));

    let direct = sharded.request(&fs).evaluate().unwrap();
    for ticket in [
        to_single.submit(single.request(&fs)),
        to_single.submit(to_single.backend().request(&fs)),
        to_sharded.submit(sharded.request(&fs)),
        to_sharded.submit(to_sharded.backend().request(&fs)),
    ] {
        let served = ticket.unwrap().wait().unwrap();
        assert_eq!(exact(&served.sorted_pairs()), exact(&direct.sorted_pairs()));
    }
}
