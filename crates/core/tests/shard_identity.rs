//! Shard-count acceptance: partitioning must be invisible. For every
//! algorithm and knob, shard count, exclusion set, capacity vector and
//! interleaved mutation schedule, an [`Engine`] of `K` shards must
//! produce matchings **bit-identical** to the one-shard engine over the
//! same objects — by the same run, count for count, and with the
//! algorithm the request names, not a stand-in — and a data directory
//! in either layout must reopen (per-shard WAL replay included) to the
//! same state. The result cache is stamped with a per-shard version
//! vector, so a mutation on one shard must not evict entries whose
//! matching only other shards' mutations could change.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpq_core::capacity::verify_capacity_stable;
use mpq_core::{
    reference_matching, reference_matching_excluding, verify_stable, Algorithm, BestPairMode,
    BfStrategy, Engine, EngineService, IndexConfig, MaintenanceMode, MatchRequest, Matching,
    MpqError, Pair, Scratch, ServiceConfig, ShardedEngine, SubmitOptions, Ticket,
};
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_rtree::{FaultInjector, FaultOp, Forest, Node, NodeSource, PageId, PointSet, RTree};
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

/// An in-memory engine over `objects` on `k` shards.
fn engine(objects: &PointSet, k: usize) -> Engine {
    Engine::builder()
        .objects(objects)
        .shards(k)
        .build()
        .unwrap()
}

/// The acceptance matrix: SB/BF/Chain × K ∈ {1, 2, 4, 8} × {plain,
/// exclusions, capacities}. Every cell must be bit-identical to the
/// one-tree engine's answer.
#[test]
fn sharded_matches_unsharded_for_all_algorithms_and_options() {
    let objects = seeded_points(240, 3, 0xA11CE);
    let fs = functions(3, 24, 0xB0B);
    let single = engine(&objects, 1);
    let exclude: Vec<u64> = vec![3, 17, 42, 99, 140];
    let capacities: Vec<u32> = (0..objects.len() as u64)
        .map(|oid| (oid % 3) as u32)
        .collect();

    for k in [1usize, 2, 4, 8] {
        let sharded = engine(&objects, k);
        for alg in ALGORITHMS {
            let plain = |engine: &Engine| engine.request(&fs).algorithm(alg).evaluate().unwrap();
            assert_eq!(
                exact(&plain(&sharded).sorted_pairs()),
                exact(&plain(&single).sorted_pairs()),
                "plain, K={k}, {alg:?}"
            );
            let masked = |engine: &Engine| {
                let request = engine.request(&fs).algorithm(alg);
                request.exclude(exclude.iter().copied()).evaluate().unwrap()
            };
            assert_eq!(
                exact(&masked(&sharded).sorted_pairs()),
                exact(&masked(&single).sorted_pairs()),
                "excluded, K={k}, {alg:?}"
            );
        }

        // Capacities (SB only, at every shard count).
        let capped = |engine: &Engine| engine.request(&fs).capacities(&capacities).evaluate();
        assert_eq!(
            exact(&capped(&sharded).unwrap().sorted_pairs()),
            exact(&capped(&single).unwrap().sorted_pairs()),
            "capacities, K={k}"
        );
    }
}

/// A shard count that is no power of two, on two-dimensional data,
/// slices differently but must still be invisible.
#[test]
fn five_hash_shards_are_bit_identical_too() {
    let objects = seeded_points(180, 2, 0xCAFE);
    let fs = functions(2, 15, 0xF00D);
    let (single, sharded) = (engine(&objects, 1), engine(&objects, 5));
    for alg in ALGORITHMS {
        let want = single.request(&fs).algorithm(alg).evaluate().unwrap();
        let got = sharded.request(&fs).algorithm(alg).evaluate().unwrap();
        assert_eq!(exact(&got.sorted_pairs()), exact(&want.sorted_pairs()));
    }
}

/// One request configuration: the knobs it turns on a default request.
type Knobs = for<'e, 'f> fn(MatchRequest<'e, 'f>) -> MatchRequest<'e, 'f>;

/// Every request an engine evaluates with another loop, or the SB loop
/// with another knob, than the default. `true`: an SB run, whose pairs
/// come in the one-shard engine's order from its number of rounds and
/// reverse top-1 scans.
const CONFIGURATIONS: [(&str, Knobs, bool); 8] = [
    ("bf", |r| r.algorithm(Algorithm::BruteForce), false),
    (
        "bf-restart",
        |r| {
            r.algorithm(Algorithm::BruteForce)
                .bf_strategy(BfStrategy::Restart)
        },
        false,
    ),
    ("chain", |r| r.algorithm(Algorithm::Chain), false),
    ("rescan", |r| r.maintenance(MaintenanceMode::Rescan), true),
    (
        "ta-naive",
        |r| r.best_pair(BestPairMode::TaNaiveThreshold),
        true,
    ),
    ("scan", |r| r.best_pair(BestPairMode::Scan), true),
    ("single-pair", |r| r.multi_pair(false), true),
    ("excluded", |r| r.exclude((0..600).step_by(7)), true),
];

/// The knobs mean on `K` shards what they mean on one: every algorithm,
/// maintenance mode, strategy and stream, reloaded or not, runs — itself, as its
/// own counters show, not the default SB run in its place — over the
/// forest of the shards and reports the one-shard engine's matching,
/// score bit for score bit; and what an engine refuses, it refuses in
/// the same words at every shard count.
#[test]
fn every_algorithm_runs_on_every_shard_count() {
    for (distribution, seed) in [
        (Distribution::Independent, 2009),
        (Distribution::AntiCorrelated, 7),
        (Distribution::Correlated, 97),
    ] {
        let w = WorkloadBuilder::new()
            .objects(1_500)
            .functions(45)
            .dim(3)
            .distribution(distribution)
            .seed(seed)
            .build();
        let (objects, fs) = (w.objects, w.functions);
        let single = engine(&objects, 1);
        let default = single.request(&fs).evaluate().unwrap();
        verify_stable(&objects, &fs, default.pairs()).unwrap();
        let caps: Vec<u32> = (0..objects.len()).map(|i| (i % 3) as u32).collect();
        let batches: Vec<FunctionSet> = (0..3)
            .map(|b| {
                let rows: Vec<Vec<f64>> = (fs.iter_alive().skip(15 * b).take(15))
                    .map(|(_, w)| w.to_vec())
                    .collect();
                FunctionSet::from_rows(3, &rows)
            })
            .collect();
        let reloaded = |engine: &Engine| -> Vec<Vec<(u32, u64, u64)>> {
            let mut stream = engine.request(&batches[0]).stream().unwrap();
            let mut served = Vec::new();
            for batch in &batches {
                if !served.is_empty() {
                    stream.load(batch).unwrap();
                }
                served.push(exact(&stream.by_ref().collect::<Vec<Pair>>()));
            }
            served
        };
        let refusals = |engine: &Engine| -> Vec<MpqError> {
            let request = || engine.request(&fs);
            let capped = || request().capacities(&caps);
            vec![
                capped().algorithm(Algorithm::BruteForce).evaluate().err(),
                capped().algorithm(Algorithm::Chain).evaluate().err(),
                capped()
                    .maintenance(MaintenanceMode::Rescan)
                    .evaluate()
                    .err(),
                request().algorithm(Algorithm::Chain).stream().err(),
                request()
                    .maintenance(MaintenanceMode::Rescan)
                    .stream()
                    .err(),
            ]
            .into_iter()
            .map(|refusal| refusal.expect("refused"))
            .collect()
        };
        let refused = refusals(&single);
        let unsupported = MpqError::UnsupportedRequest;
        assert_eq!(
            refused,
            [
                unsupported("capacities are only supported with Algorithm::Sb"),
                unsupported("capacities are only supported with Algorithm::Sb"),
                unsupported("capacities do not support the rescan maintenance ablation"),
                unsupported("streaming is only supported with Algorithm::Sb"),
                unsupported("streaming requires incremental skyline maintenance"),
            ]
        );

        for k in [1usize, 2, 4, 5, 8] {
            let sharded = engine(&objects, k);
            let case = |name: &str| format!("{distribution:?}, K={k}, {name}");
            for (name, knobs, sb) in CONFIGURATIONS {
                let want = knobs(single.request(&fs)).evaluate().unwrap();
                let got = knobs(sharded.request(&fs)).evaluate().unwrap();
                let (met, want_met) = (got.metrics(), want.metrics());
                assert_eq!(
                    exact(&got.sorted_pairs()),
                    exact(&want.sorted_pairs()),
                    "{}",
                    case(name)
                );
                if name != "excluded" {
                    assert_eq!(exact(&got.sorted_pairs()), exact(&default.sorted_pairs()));
                }
                if sb {
                    assert_eq!(exact(got.pairs()), exact(want.pairs()), "{}", case(name));
                    let rounds = [met.loops, met.reverse_top1_calls];
                    let want_rounds = [want_met.loops, want_met.reverse_top1_calls];
                    assert_eq!(rounds, want_rounds, "{}", case(name));
                    assert_eq!(met.top1_searches, 0, "{}", case(name));
                } else {
                    assert!(met.top1_searches >= 45, "{}", case(name));
                    assert_eq!(met.top1_searches, want_met.top1_searches, "{}", case(name));
                    assert!(met.skyline.is_none(), "{}: no skyline", case(name));
                }
            }

            // Rescan is one BBS a loop, not a maintained skyline: it
            // reads every root again each round.
            let rescan = sharded.request(&fs).maintenance(MaintenanceMode::Rescan);
            let rescan = rescan.evaluate().unwrap();
            let incremental = sharded.request(&fs).evaluate().unwrap();
            assert!(rescan.metrics().skyline.is_none(), "{}", case("rescan"));
            assert!(rescan.metrics().io.logical >= rescan.metrics().loops * k as u64);
            assert!(rescan.metrics().io.logical > incremental.metrics().io.logical);

            let capped = sharded.request(&fs).capacities(&caps).evaluate().unwrap();
            let want = single.request(&fs).capacities(&caps).evaluate().unwrap();
            assert_eq!(
                exact(capped.pairs()),
                exact(want.pairs()),
                "{}",
                case("caps")
            );
            verify_capacity_stable(&objects, &fs, &caps, capped.pairs()).unwrap();

            let streamed: Vec<Pair> = sharded.stream(&fs).unwrap().collect();
            assert_eq!(
                exact(&streamed),
                exact(default.pairs()),
                "{}",
                case("stream")
            );
            assert_eq!(reloaded(&sharded), reloaded(&single), "{}", case("reload"));
            assert_eq!(refusals(&sharded), refused, "{}", case("refusals"));
        }
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

/// One shard is one tree, under either name of the engine: not only the
/// same matching but the same run — cold, resumed, with exclusions,
/// capacitated — down to the page reads: a forest of one part reads
/// what its tree would.
#[test]
fn one_shard_is_the_engine_by_counts() {
    for distribution in [Distribution::Independent, Distribution::AntiCorrelated] {
        let (objects, fs) = paper_shaped(distribution, 2009);
        let single = Engine::builder().objects(&objects).build().unwrap();
        let sharded = ShardedEngine::builder().objects(&objects).shards(1);
        let sharded = sharded.build().unwrap();
        let units = vec![1; objects.len()];

        let shapes = |engine: &Engine| {
            let mut scratch = Scratch::new();
            let request = || engine.request(&fs);
            let (cold, seed) = request().evaluate_seeded(&mut scratch, None).unwrap();
            let seed = seed.expect("a cold run captures");
            let resume = request().evaluate_seeded(&mut scratch, Some(&seed));
            let (seeded, captured) = resume.unwrap();
            assert!(captured.is_none(), "a resumed run captures nothing");
            let taken = cold.pairs().iter().step_by(7).map(|p| p.oid);
            let excluded = request().exclude(taken).evaluate().unwrap();
            let unit = request().capacities(&units).evaluate().unwrap();
            assert_eq!(counts(&unit), counts(&cold), "{distribution:?}");

            // The run over the bare tree, no engine or forest between.
            let tree = engine.tree();
            let before = tree.io_stats().logical;
            let built = SkylineMaintainer::build(tree).stats().nodes_expanded;
            assert_eq!(tree.io_stats().logical - before, built);
            let cold_expanded = cold.metrics().skyline.unwrap().nodes_expanded;
            let seeded_expanded = seeded.metrics().skyline.unwrap().nodes_expanded;
            assert_eq!(cold_expanded - seeded_expanded, built, "{distribution:?}");
            [cold, seeded, excluded, unit].map(|m| counts(&m))
        };
        assert_eq!(shapes(&single), shapes(&sharded), "{distribution:?}");
    }
}

/// BBS over the forest of `engine`'s trees, run directly: the nodes it
/// expanded — the forest's virtual root, which is no page, among them —
/// and the pages it read.
fn forest_bbs(engine: &Engine) -> (SkylineMaintainer, u64) {
    let forest = Forest::new(engine.trees().collect());
    let before = forest.io_snapshot().logical;
    let skyline = SkylineMaintainer::build(&forest);
    (skyline, forest.io_snapshot().logical - before)
}

/// K shards run the one-shard engine's rounds over the one-shard
/// engine's skyline: the same pairs in the same order from the same
/// rounds and reverse top-1 scans, a stream that holds the skyline — not
/// a union of per-shard skylines — before and after pairs left it, and
/// a BBS that reads no more pages than the shards' own would, because
/// an object of one shard prunes subtrees of another.
#[test]
fn any_shard_count_runs_the_engines_rounds() {
    for (distribution, seed) in [
        (Distribution::Independent, 2009),
        (Distribution::AntiCorrelated, 7),
        (Distribution::Correlated, 97),
    ] {
        let (objects, fs) = paper_shaped(distribution, seed);
        let single = engine(&objects, 1);
        let want = single.request(&fs).evaluate().unwrap();
        assert!(want.metrics().loops < 120, "multi-pair rounds");
        let skyline_sizes = |engine: &Engine| {
            let mut stream = engine.request(&fs).multi_pair(false).stream().unwrap();
            let at_start = stream.skyline_len();
            assert_eq!(stream.by_ref().take(6).count(), 6);
            [at_start, stream.skyline_len()]
        };
        let want_sizes = skyline_sizes(&single);
        assert_eq!(want_sizes[0], SkylineMaintainer::build(single.tree()).len());
        for k in [2usize, 4, 8] {
            let sharded = engine(&objects, k);
            let got = sharded.evaluate(&fs).unwrap();
            let context = format!("{distribution:?}, K={k}");
            assert_eq!(exact(got.pairs()), exact(want.pairs()), "{context}");
            let rounds = |m: &Matching| [m.metrics().loops, m.metrics().reverse_top1_calls];
            assert_eq!(rounds(&got), rounds(&want), "{context}");
            assert_eq!(skyline_sizes(&sharded), want_sizes, "{context}");

            let alone = |tree: &RTree| SkylineMaintainer::build(tree).stats().nodes_expanded;
            let per_shard: u64 = sharded.trees().map(alone).sum();
            let (skyline, pages_read) = forest_bbs(&sharded);
            assert_eq!(skyline.len(), want_sizes[0], "{context}");
            assert_eq!(skyline.stats().nodes_expanded, pages_read + 1, "{context}");
            assert!(
                pages_read <= per_shard,
                "{context}: {pages_read} pages read, {per_shard} by the shards alone"
            );
        }
    }
}

/// One seed for K shards — one snapshot, of the one skyline, stamped
/// with the K versions: captured by a cold run, resumed by the next —
/// which skips exactly the forest's BBS — and declined as a whole once
/// any shard has moved on.
#[test]
fn a_sharded_seed_resumes_every_shard_or_none() {
    let (objects, fs) = paper_shaped(Distribution::AntiCorrelated, 2009);
    let sharded = engine(&objects, 4);
    let mut scratch = Scratch::new();
    let expanded = |m: &Matching| m.metrics().skyline.unwrap().nodes_expanded;

    let request = sharded.request(&fs);
    let (cold, seed) = request.evaluate_seeded(&mut scratch, None).unwrap();
    let seed = seed.expect("a cold run over stable pins captures");
    assert_eq!(seed.versions().len(), 4);
    assert_eq!(seed.versions(), sharded.version_vector());
    let (seeded, captured) = request.evaluate_seeded(&mut scratch, Some(&seed)).unwrap();
    assert!(captured.is_none(), "a resumed run captures nothing");
    assert_eq!(exact(seeded.pairs()), exact(cold.pairs()));
    let bbs = forest_bbs(&sharded).0.stats().nodes_expanded;
    assert_eq!(expanded(&cold) - expanded(&seeded), bbs);
    assert_eq!(
        cold.metrics().io.logical - seeded.metrics().io.logical,
        bbs - 1,
        "every node but the virtual root is a page"
    );

    // A dominated insert lands on one shard and changes no matching,
    // but the seed is now stale in one component: nothing resumes.
    sharded.insert_object(&[0.001, 0.001, 0.001]).unwrap();
    let moved = seed.versions().iter().zip(sharded.version_vector());
    assert_eq!(moved.filter(|(then, now)| *then != now).count(), 1);
    let (stale, recaptured) = request.evaluate_seeded(&mut scratch, Some(&seed)).unwrap();
    let (fresh, _) = request.evaluate_seeded(&mut scratch, None).unwrap();
    assert_eq!(exact(stale.pairs()), exact(cold.pairs()));
    assert_eq!(expanded(&stale), expanded(&fresh), "the run was cold");
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
    let (single, sharded) = (engine(&objects, 1), engine(&objects, 4));

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

/// The mutations of the recovery tests, through any engine's three
/// entry points.
fn mutate(engine: &Engine) {
    let extra = seeded_points(6, 3, 0xE17A);
    for (_, p) in extra.iter() {
        engine.insert_object(p).unwrap();
    }
    engine.remove_object(3).unwrap();
    engine.remove_object(78).unwrap();
    let moved = seeded_points(2, 3, 0x1B);
    for (i, (_, p)) in moved.iter().enumerate() {
        engine.update_object(40 + i as u64, p).unwrap();
    }
}

/// All three algorithms' matchings on `engine`, bit-exact.
fn matchings(engine: &Engine, fs: &FunctionSet) -> Vec<Vec<(u32, u64, u64)>> {
    let evaluate = |alg| engine.request(fs).algorithm(alg).evaluate().unwrap();
    ALGORITHMS
        .map(|alg| exact(&evaluate(alg).sorted_pairs()))
        .into()
}

/// Crash-shaped recovery: build a persistent sharded engine, mutate it
/// (no checkpoint — the per-shard WAL tails carry everything), drop it
/// without any shutdown grace, and reopen the directory. The reopened
/// engine must match an in-memory one-shard reference that applied the
/// same mutations, bit-for-bit, for all three algorithms.
#[test]
fn sharded_reopen_replays_per_shard_wals_to_bit_identity() {
    let dir = tmp_dir("reopen");
    let objects = seeded_points(150, 3, 0xD15C);
    let fs = functions(3, 20, 0x9);

    let reference = engine(&objects, 1);
    mutate(&reference);
    {
        let disk = Engine::builder().objects(&objects).shards(4);
        let disk = disk.data_dir(&dir).build().unwrap();
        mutate(&disk);
        assert!(disk.wal_bytes() > 0, "mutations must hit the shard WALs");
        // Dropped here: no checkpoint, recovery is WAL replay alone.
    }

    assert!(Engine::persisted_at(&dir));
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(reopened.shard_count(), 4, "manifest preserves the layout");
    assert_eq!(reopened.n_objects(), reference.n_objects());
    assert_eq!(matchings(&reopened, &fs), matchings(&reference, &fs));
}

/// Both on-disk layouts reopen through the one `open`, and the layout
/// on disk decides: a bare page file is one shard, a manifest names its
/// `shard-i/` — one of them too, as older builders wrote it — and
/// `open_or_build` brings back what is there whatever `shards` asks
/// for. A fresh build supersedes whatever layout the directory held.
#[test]
fn both_layouts_reopen_and_the_disk_decides() {
    let objects = seeded_points(150, 3, 0xD15C);
    let fs = functions(3, 20, 0x9);
    let reference = engine(&objects, 1);
    mutate(&reference);
    let want = matchings(&reference, &fs);
    let persist = |dir: &PathBuf, k: usize| {
        let builder = Engine::builder().objects(&objects).shards(k);
        mutate(&builder.data_dir(dir).build().unwrap());
    };
    let files = |dir: &PathBuf| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };

    for (built_on, asked_for) in [(1usize, 4usize), (4, 1), (3, 8)] {
        let dir = tmp_dir("layout");
        persist(&dir, built_on);
        if built_on == 1 {
            assert_eq!(files(&dir), ["pages.mpq", "wal.mpq"], "the bare layout");
        } else {
            assert!(files(&dir).contains(&"shards.mpq".to_string()));
        }
        let reopened = Engine::open(&dir).unwrap();
        assert_eq!(reopened.shard_count(), built_on);
        assert_eq!(matchings(&reopened, &fs), want, "K={built_on}");
        drop(reopened);
        let hosted = Engine::builder().data_dir(&dir).shards(asked_for);
        let hosted = hosted.open_or_build().unwrap();
        assert_eq!(hosted.shard_count(), built_on, "the disk wins");
        assert_eq!(hosted.n_objects(), reference.n_objects());
        assert_eq!(matchings(&hosted, &fs), want, "K={built_on}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // What a one-shard sharded engine wrote before there was one type.
    let dir = tmp_dir("old_manifest");
    persist(&dir.join("shard-0"), 1);
    let manifest = "mpq-shard-manifest/1\nshards=1\npartitioner=hash\n";
    std::fs::write(dir.join("shards.mpq"), manifest).unwrap();
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(reopened.shard_count(), 1);
    assert_eq!(matchings(&reopened, &fs), want, "old shards=1 manifest");
    reopened.insert_object(&[0.5, 0.5, 0.5]).unwrap();
    drop(reopened);
    assert_eq!(files(&dir), ["shard-0", "shards.mpq"], "it stays as it was");
    assert_eq!(Engine::open(&dir).unwrap().n_objects(), 155);

    // A fresh one-shard build there is what the next open sees.
    let fresh = Engine::builder().objects(&objects).data_dir(&dir);
    drop(fresh.build().unwrap());
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(reopened.n_objects(), 150, "not the superseded shard-0");
    let _ = std::fs::remove_dir_all(&dir);

    // More shards than a forest numbers: a typed refusal, nothing built.
    let dir = tmp_dir("too_many");
    let refused = Engine::builder().objects(&objects).shards(257);
    let refused = refused.data_dir(&dir).build().unwrap_err();
    assert!(matches!(refused, MpqError::Forest(_)), "{refused:?}");
    assert!(!dir.exists(), "refused before any file");
    assert!(engine(&objects, 256).evaluate(&fs).is_ok());
}

/// `buffer_shards` reaches every shard's buffer pool, of an engine built
/// and of one reopened: the one shard constructor applies it.
#[test]
fn buffer_shards_reach_every_shard_built_or_reopened() {
    let objects = seeded_points(400, 3, 0xB0FF);
    for k in [1usize, 4] {
        let dir = tmp_dir("buffer_shards");
        let host = || {
            let builder = Engine::builder().objects(&objects).shards(k);
            builder.buffer_shards(4).data_dir(&dir).open_or_build()
        };
        for pass in ["built", "reopened"] {
            let engine = host().unwrap();
            assert_eq!(engine.shard_count(), k);
            let lock_shards: Vec<usize> = engine.trees().map(RTree::buffer_shards).collect();
            assert_eq!(lock_shards, vec![4; k], "K={k}, {pass}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Page writes, page syncs, WAL appends and WAL syncs a persistent
/// one-shard engine has issued after its build, after each of seven
/// mutations, a checkpoint and one more insert — recorded at the commit
/// before engines of one shard and of several became one type. The
/// crash-point sweep of `chaos.rs` walks exactly this schedule.
const ONE_SHARD_DURABILITY_OPS: [[u64; 4]; 10] = [
    [8, 2, 0, 1],
    [8, 2, 1, 2],
    [11, 2, 2, 3],
    [14, 2, 3, 4],
    [16, 2, 4, 5],
    [18, 2, 5, 6],
    [22, 2, 6, 7],
    [36, 2, 7, 8],
    [39, 4, 7, 9],
    [39, 4, 8, 10],
];

#[test]
fn one_shard_schedules_the_durability_ops_it_always_did() {
    let dir = tmp_dir("schedule");
    let objects = seeded_points(90, 2, 404);
    let config = IndexConfig {
        page_size: 512,
        buffer_fraction: 0.05,
        min_buffer_pages: 2,
    };
    let inj = FaultInjector::shared();
    let ops = [
        FaultOp::PageWrite,
        FaultOp::PageSync,
        FaultOp::WalWrite,
        FaultOp::WalSync,
    ];
    let mut schedule = Vec::new();
    let mut record = || schedule.push(ops.map(|op| inj.count(op)));
    let builder = Engine::builder().objects(&objects).index(config);
    let builder = builder.data_dir(&dir).fault_injector(Arc::clone(&inj));
    let engine = builder.build().unwrap();
    record();
    for (_, p) in seeded_points(4, 2, 0xC0FFEE).iter() {
        engine.insert_object(p).unwrap();
        record();
    }
    engine.remove_object(2).unwrap();
    record();
    for (i, (_, p)) in seeded_points(2, 2, 0xFACADE).iter().enumerate() {
        engine.update_object(5 + i as u64, p).unwrap();
        record();
    }
    engine.checkpoint().unwrap();
    record();
    engine.insert_object(&[0.5, 0.5]).unwrap();
    record();
    assert_eq!(schedule, ONE_SHARD_DURABILITY_OPS);
    let _ = std::fs::remove_dir_all(&dir);
}

/// No shard of several consults a fault injector, so hosting them with
/// one is refused — building them, and reopening a directory that holds
/// them, where a chaos schedule would otherwise inject nothing and pass.
#[test]
fn hosting_shards_with_a_fault_injector_is_refused() {
    let dir = tmp_dir("injector");
    let objects = seeded_points(60, 3, 0xFA17);
    let host = |shards| {
        Engine::builder()
            .objects(&objects)
            .shards(shards)
            .data_dir(&dir)
            .fault_injector(FaultInjector::shared())
            .open_or_build()
            .map(|engine| engine.n_objects())
    };
    let refused = Err(MpqError::UnsupportedRequest(
        "fault injection is only supported on an unsharded engine",
    ));
    assert_eq!(host(2), refused, "building");
    assert!(!Engine::persisted_at(&dir), "refused before any file");
    let builder = Engine::builder().objects(&objects).shards(2);
    drop(builder.data_dir(&dir).build().unwrap());
    assert_eq!(host(1), refused, "reopening: the directory decides");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(host(1), Ok(60), "one tree takes the injector");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(FNV-1a over the page images in page-id order, as `mpq_rtree`'s
/// `bulk_layout.rs` hashes a tree; pages; root; height)`.
type IndexImage = (u64, usize, u32, u32);

/// The [`IndexImage`] of an index.
fn index_image(tree: &RTree) -> IndexImage {
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
/// objects (`WorkloadBuilder`, seed 2009), captured from the PR 22
/// builder — which copied each shard's objects out and bulk-loaded the
/// copy under explicit ids — by running `index_image` there; not
/// regenerated from the builder under test.
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
/// index is, byte for byte, the one the PR 22 builder built from a copy
/// of the shard's objects; it is the tree an engine over just those
/// objects builds, with each leaf entry under its global id; and the
/// engine finds every object where its tree holds it.
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
        let sharded = engine(&objects, k);
        let case = format!("{distribution:?}, K = {k}");
        let built: Vec<_> = sharded.trees().map(index_image).collect();
        assert_eq!(built, images, "{case}");

        let owners = membership(&sharded);
        let gauges = sharded.shard_gauges();
        for (s, tree) in sharded.trees().enumerate() {
            let ids: Vec<u64> = (0..objects.len() as u64)
                .filter(|&oid| owners[oid as usize] == [s as u64])
                .collect();
            assert_eq!(tree.len(), ids.len() as u64, "{case}, shard {s}");
            assert_eq!(gauges[s].objects, ids.len(), "{case}, shard {s}");
            let mut alone = PointSet::new(4);
            for &oid in &ids {
                alone.push(objects.get(oid as usize));
            }
            let alone = engine(&alone, 1);
            let tree_alone = alone.tree();
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

/// A `K`-shard build validates the whole inventory, first, naming the
/// first bad object in id order — not the first one in shard order,
/// after building the shards before it — and an invalid inventory
/// writes nothing.
#[test]
fn an_invalid_inventory_is_refused_as_an_engine_refuses_it_and_leaves_no_debris() {
    let objects = seeded_points(400, 3, 91);
    // Two ids in id order whose shards are in the opposite order.
    let owners = membership(&engine(&objects, 4));
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
            "one shard names object {a}: {want:?}"
        );
        let dir = tmp_dir("invalid");
        for builder in [
            Engine::builder().objects(&bad).shards(4),
            Engine::builder().objects(&bad).shards(4).data_dir(&dir),
        ] {
            let got = builder.build().unwrap_err();
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        let debris = std::fs::read_dir(&dir).map_or(0, Iterator::count);
        assert_eq!(debris, 0, "an invalid inventory creates no file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Which shards' trees hold each oid below the engine's id bound.
fn membership(engine: &Engine) -> Vec<Vec<u64>> {
    let mut owners = vec![Vec::new(); engine.oid_bound() as usize];
    for (s, tree) in engine.trees().enumerate() {
        tree.for_each_point(|oid, _| owners[oid as usize].push(s as u64));
    }
    owners
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
        let sharded = engine(&objects, k);
        prop_assert_eq!(sharded.n_objects(), n);
        let per_shard: u64 = sharded.trees().map(RTree::len).sum();
        prop_assert_eq!(per_shard, n as u64, "shard sizes must sum to the total");
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
        let builder = Engine::builder().objects(&objects).shards(6);
        membership(&builder.data_dir(&dir).build().unwrap())
    };
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(membership(&reopened), before);
}

/// Every hosting path runs at every shard count: one tree — built
/// through either name of the engine — and four.
fn engines(objects: &PointSet) -> Vec<(&'static str, Arc<Engine>)> {
    let alias = ShardedEngine::builder().objects(objects).shards(1);
    vec![
        ("K=1", Arc::new(engine(objects, 1))),
        ("K=1, by its old name", Arc::new(alias.build().unwrap())),
        ("K=4", Arc::new(engine(objects, 4))),
    ]
}

fn sorted_exact(mut pairs: Vec<Pair>) -> Vec<(u32, u64, u64)> {
    pairs.sort_unstable();
    exact(&pairs)
}

/// One body, every shard count: direct evaluation, the batch path and
/// the service (cold, cached, seeded miss) — all three algorithms,
/// exclusions and capacities — must produce the reference matching bit
/// for bit.
#[test]
fn every_backend_serves_the_reference_matching_on_every_path() {
    let objects = seeded_points(160, 3, 0x0B0D);
    let fs = functions(3, 12, 0x1DEA);
    let exclude: Vec<u64> = vec![3, 17, 42, 99, 140];
    // 0/1 capacities are exclusions by another name, so the exact
    // reference covers them (multi-unit capacities are compared across
    // shard counts in `sharded_matches_unsharded_for_all_algorithms_and_options`).
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

    for (name, hosted) in engines(&objects) {
        let plain = |alg| hosted.request(&fs).algorithm(alg);
        let masked = |alg| plain(alg).exclude(exclude.iter().copied());
        let capped = || hosted.request(&fs).capacities(&caps);
        let got = |m: &Matching| exact(&m.sorted_pairs());

        // Direct evaluation and the batch path.
        for alg in ALGORITHMS {
            let direct = plain(alg).evaluate().unwrap();
            assert_eq!(got(&direct), want_plain, "{name}, {alg:?}, direct");
            verify_stable(&objects, &fs, direct.pairs())
                .unwrap_or_else(|e| panic!("{name}, {alg:?}: {e}"));
            let direct = masked(alg).evaluate().unwrap();
            assert_eq!(got(&direct), want_masked, "{name}, {alg:?}, masked");

            let batch = hosted
                .evaluate_batch(&[plain(alg), masked(alg)], 2)
                .unwrap();
            assert_eq!(got(&batch.matchings()[0]), want_plain, "{name}, {alg:?}");
            assert_eq!(got(&batch.matchings()[1]), want_masked, "{name}, {alg:?}");
        }
        let direct = capped().evaluate().unwrap();
        assert_eq!(got(&direct), want_caps, "{name}, capacities");

        // The service: cold, then cached.
        let service =
            EngineService::spawn(Arc::clone(&hosted), ServiceConfig::default().workers(2));
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
        let refined = serve(hosted.request(&fs).exclude([exclude[0]]));
        assert_eq!(got(&refined), want_refined, "{name}, seeded miss");
        assert_eq!(client.metrics().cache.seeded_hits, seeded + 1, "{name}");

        // One gauge row a shard.
        let metrics = client.metrics();
        assert_eq!(metrics.shards.len(), hosted.shard_count(), "{name}");
        let covered: usize = metrics.shards.iter().map(|s| s.objects).sum();
        assert_eq!(covered, objects.len(), "{name}: gauges cover the inventory");
        let json = metrics.to_json();
        assert!(json.get("shards").is_some());
        service.shutdown();
    }
}

/// The version-vector cache audit, at every shard count: a mutation that
/// provably cannot change a cached matching (a dominated insert, which
/// lands on exactly one shard) must not cost a re-evaluation — the
/// per-shard mutation logs revalidate the entry component-wise. A
/// mutation that *can* change the result must re-evaluate.
#[test]
fn cache_entries_survive_mutations_scoped_to_other_shards() {
    let objects = seeded_points(80, 2, 0xCACE);
    let fs = functions(2, 6, 0x77);
    for (name, hosted) in engines(&objects) {
        let service =
            EngineService::spawn(Arc::clone(&hosted), ServiceConfig::default().workers(1));
        let client = service.client();
        let submit = || client.submit(hosted.request(&fs)).unwrap().wait().unwrap();
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
        let versions_before = hosted.version_vector();
        hosted.insert_object(&[0.001, 0.001]).unwrap();
        let versions_after = hosted.version_vector();
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
        hosted.insert_object(&[0.999, 0.999]).unwrap();
        let after = submit();
        assert_eq!(
            client.metrics().cache.hits,
            2,
            "{name}: a result-changing mutation must re-evaluate"
        );
        assert_ne!(after.sorted_pairs(), first.sorted_pairs());
    }
}

/// A request is only ever evaluated by the engine it was built
/// against: a service refuses one built on any other engine — of
/// another shard count (in both directions) or another instance of its
/// own — with one message.
#[test]
fn services_refuse_requests_built_on_another_backend() {
    let objects = seeded_points(100, 3, 0x5E4E);
    let fs = functions(3, 10, 0x42);
    let build = |k| Arc::new(engine(&objects, k));
    let (single, other_single) = (build(1), build(1));
    let (sharded, other_sharded) = (build(3), build(3));
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
    refused(to_single.submit(to_sharded.engine().request(&fs)));
    refused(to_sharded.submit_with(to_single.engine().request(&fs), SubmitOptions::default()));

    let direct = sharded.request(&fs).evaluate().unwrap();
    for ticket in [
        to_single.submit(single.request(&fs)),
        to_single.submit(to_single.engine().request(&fs)),
        to_sharded.submit(sharded.request(&fs)),
        to_sharded.submit(to_sharded.engine().request(&fs)),
    ] {
        let served = ticket.unwrap().wait().unwrap();
        assert_eq!(exact(&served.sorted_pairs()), exact(&direct.sorted_pairs()));
    }
}
