//! Partitioned storage: how an [`Engine`](crate::Engine) of `K > 1`
//! shards is laid out, routed and read.
//!
//! 1. **Partition** (once, at build). Object `oid` lives in shard
//!    `splitmix64(oid) % K` for as long as it lives — routing never
//!    looks at the point, so an update is in place, every mutation is
//!    one record in one WAL, and no id is ever in two shards. Each shard
//!    has its own bulk-loaded R-tree, buffer pool, WAL segment and epoch
//!    snapshots, and indexes **global** object ids natively.
//! 2. **Pin.** Every shard is pinned at its current epoch; each is read
//!    at that one epoch for the whole evaluation.
//! 3. **One source.** The pins are read as one [`Forest`]: a node
//!    source whose root lists the
//!    `K` roots. Ranked search and BBS need a priority queue of entries,
//!    not a single tree, so every algorithm — SB in both maintenance
//!    modes, Brute Force in both strategies, Chain, streams reloaded or
//!    not, monotone requests — runs over `K` trees as it runs over one,
//!    and an object of one shard prunes subtrees of another before they
//!    are read. There is one skyline, the inventory's, whatever `K` is.
//!
//! So a `K`-shard engine reports the one-shard engine's pairs round for
//! round: the same matching in the same order from the same number of
//! loops and reverse top-1 scans, for every `K` (asserted by
//! `tests/shard_identity.rs`), and at `K = 1` — where the forest is its
//! one tree, with no virtual root — the same page reads to the count.
//! Objects at the very same point are no exception: the one skyline
//! holds the smallest id left among them wherever their pages lie (see
//! the note on duplicates in `mpq_skyline::maintain`), which is the one
//! Brute Force, Chain and the reference hand out next.
//!
//! ## What `K > 1` costs, and what it is for
//!
//! Nothing in the loop. Exact counts on 200 000 × 4-d objects and
//! 1 000 functions (`WorkloadBuilder`, seed 2009): independent data,
//! a skyline of 407 and 13 221 `reverse_top1_calls` at `K` = 1 / 2 /
//! 4 / 8 alike; anti-correlated, 3 660 and 51 222. (While every shard
//! kept a skyline of its own the run ranked 632 / 1 032 / 1 646 and
//! 5 801 / 9 321 / 14 711 candidates, and scanned 24 323 and 109 998
//! times at `K = 4`.) What grows is the index under the loop: `K`
//! small trees cover the space less tightly than one, so a cold run
//! reads 356 → 447 / 520 / 622 pages and its BBS makes 0.46 → 0.51 /
//! 0.59 / 0.57 M dominance checks (967 → 1 243 / 1 277 / 1 541 pages
//! and 17.0 → 18.1 / 26.1 / 27.9 M checks anti-correlated) — fewer
//! than the shards' own BBS runs would between them (611 and 1 444
//! pages at `K = 4`), because one shard's object prunes another's
//! subtrees. That one BBS runs on the evaluating thread, where four
//! per-shard builds used to share the cores: at `K = 4`, best of 9 on
//! the 2-core container, 7 ms on the independent inventory and 118 ms
//! on the anti-correlated one, against 5 and 55 ms for the four builds
//! on scoped threads (8 and 113 ms of CPU between them). A service
//! pays it once per inventory version — every later miss resumes from
//! the seed, reading 68 and 128 pages — and on the benchmark's
//! `batch_indep` and `batch_anti` workloads (three alternating `ledger
//! trace` runs a side, PR 24) `shard.evaluate_k4_ms` is 0.92–1.10× and
//! 1.14–1.41× the same run's `engine.evaluate_ms` (1.56–1.84× and
//! 1.51–1.65× over per-shard skylines), `shard.evaluate_k1_ms`
//! 0.91–1.13× and 0.96–1.15×. So on one host sharding is still **not**
//! a throughput feature. What it buys is independence of storage and of cached
//! work: a WAL segment, a buffer pool and a version-vector component
//! per shard, so a mutation appends to one shard's log and moves one
//! component of the cache stamp, leaving what was cached against the
//! other shards valid.
//!
//! ## On disk
//!
//! One shard keeps `pages.mpq` + `wal.mpq` in the data directory itself.
//! `K > 1` shards keep theirs in `shard-i/`, beside a `shards.mpq`
//! manifest that records `K` and the routing rule; a manifest that says
//! `shards=1` (older builders wrote one) names `shard-0/`. Whichever
//! layout a directory holds decides how it reopens.
//!
//! ## Versioning under sharding
//!
//! A single global version stamp would invalidate cached results for
//! *every* shard on *any* mutation. The engine instead exposes
//! [`Engine::version_vector`](crate::Engine::version_vector) — one
//! version component per shard — and the [`crate::ResultCache`] stamps
//! entries with the whole vector: a mutation on shard A leaves a cached
//! result's shard-B components untouched, and the per-shard
//! mutation logs prove irrelevant shard-A mutations harmless
//! component-wise.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

use mpq_rtree::{Forest, RTree};

use crate::engine::PAGE_FILE;
use crate::error::MpqError;
use crate::service::lock;

/// Manifest file name inside a sharded data directory.
pub(crate) const MANIFEST_FILE: &str = "shards.mpq";
/// First line of a sharded data-dir manifest.
const MANIFEST_MAGIC: &str = "mpq-shard-manifest/1";

/// The manifest's name for the one routing rule, [`shard_of`].
const PARTITIONER: &str = "hash";

/// SplitMix64 finalizer — a fixed, documented mix so the partition is
/// stable across processes, platforms and reopens.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The one shard of `k >= 1` that holds object `oid`, for as long as
/// the object lives: routing looks at the id alone, so an update never
/// moves an object between shards, every mutation is one record in one
/// WAL, and no two shards can hold the same id.
pub(crate) fn shard_of(oid: u64, k: usize) -> usize {
    if k == 1 {
        return 0; // nothing to mix: a one-shard build routes at no cost
    }
    let mixed = splitmix64(oid);
    // The same remainder without the 64-bit division where a mask gives
    // it: a build routes every object three times (200 000 objects: 0.8
    // ms a pass with the division, 0.4 ms without, at K = 4).
    if k.is_power_of_two() {
        (mixed & (k as u64 - 1)) as usize
    } else {
        (mixed % k as u64) as usize
    }
}

/// `make(0), .., make(k - 1)` in shard order, computed by `workers`
/// threads — the caller and `workers - 1` scoped ones — that draw shard
/// numbers from a shared counter. The first error in shard order wins;
/// a panicking worker resurfaces from the scope.
///
/// Only a reopen fans out this way, and its shards allocate on the
/// thread that opens them. A build does not (see
/// [`EngineBuilder::build`](crate::EngineBuilder::build)): what a
/// shard's reopen allocates is a decoded node for every inner page its
/// free-list walk reads and an insert for every WAL record it replays,
/// which nothing sized on the caller would take off the workers —
/// replaying as one bulk load would, and is ROADMAP item 5(ii). No
/// ledger workload reopens more than one shard.
pub(crate) fn for_each_shard<T: Send>(
    k: usize,
    workers: usize,
    make: impl Fn(usize) -> Result<T, MpqError> + Sync,
) -> Result<Vec<T>, MpqError> {
    if workers <= 1 {
        return (0..k).map(make).collect();
    }
    let next = AtomicUsize::new(0);
    let made: Vec<Mutex<Option<Result<T, MpqError>>>> = (0..k).map(|_| Mutex::new(None)).collect();
    let draw = || loop {
        let s = next.fetch_add(1, AtomicOrdering::Relaxed);
        if s >= k {
            break;
        }
        *lock(&made[s]) = Some(make(s));
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(draw);
        }
        draw();
    });
    // Every number below k was drawn, so every slot is filled.
    made.into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or(Err(MpqError::WorkerPanicked))
        })
        .collect()
}

/// The data directory of shard `s` under a sharded root.
fn shard_dir(root: &Path, s: usize) -> PathBuf {
    root.join(format!("shard-{s}"))
}

/// Where the `k` shards of a fresh build under `root` keep their files,
/// in shard order: `root` itself for one shard, `shard-i/` for more;
/// nowhere in memory.
pub(crate) fn fresh_shard_dirs(root: Option<&Path>, k: usize) -> Vec<Option<PathBuf>> {
    match root {
        Some(root) if k == 1 => vec![Some(root.to_path_buf())],
        Some(root) => (0..k).map(|s| Some(shard_dir(root, s))).collect(),
        None => vec![None; k],
    }
}

/// Where the shards of the inventory persisted under `root` keep their
/// files, in shard order, if one is: the `shard-i/` a manifest counts,
/// else `root` itself when it holds a bare page file.
pub(crate) fn persisted_shard_dirs(root: &Path) -> Result<Option<Vec<PathBuf>>, MpqError> {
    if root.join(MANIFEST_FILE).is_file() {
        let k = read_manifest(root)?;
        Forest::<RTree>::check(k, [])?; // before anything is sized by it
        Ok(Some((0..k).map(|s| shard_dir(root, s)).collect()))
    } else if root.join(PAGE_FILE).is_file() {
        Ok(Some(vec![root.to_path_buf()]))
    } else {
        Ok(None)
    }
}

/// Write the sharded data-dir manifest (idempotent, overwrites).
pub(crate) fn write_manifest(dir: &Path, k: usize) -> Result<(), MpqError> {
    let body = format!("{MANIFEST_MAGIC}\nshards={k}\npartitioner={PARTITIONER}\n");
    std::fs::write(dir.join(MANIFEST_FILE), body)?;
    Ok(())
}

/// Parse a sharded data-dir manifest into its shard count. A manifest
/// that names any partitioner but [`PARTITIONER`] is refused: its
/// objects are not where [`shard_of`] would look for them.
fn read_manifest(dir: &Path) -> Result<usize, MpqError> {
    let body = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let mut lines = body.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(MpqError::Io(format!(
            "not a shard manifest: {}",
            dir.join(MANIFEST_FILE).display()
        )));
    }
    let mut k = None;
    let mut partitioned = false;
    for line in lines {
        if let Some(v) = line.strip_prefix("shards=") {
            k = v.parse::<usize>().ok();
        } else if let Some(id) = line.strip_prefix("partitioner=") {
            if id != PARTITIONER {
                return Err(MpqError::Io(format!(
                    "shard manifest names unknown partitioner '{id}'"
                )));
            }
            partitioned = true;
        }
    }
    match k {
        Some(k) if k >= 1 && partitioned => Ok(k),
        _ => Err(MpqError::Io(format!(
            "malformed shard manifest: {}",
            dir.join(MANIFEST_FILE).display()
        ))),
    }
}

/// Per-shard operator gauges (object count, tree height, buffer hit
/// rate, WAL bytes) surfaced by
/// [`ServiceMetrics`](crate::service::ServiceMetrics) and `/metrics` so
/// partition skew is visible.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardGauges {
    /// Live objects in the shard.
    pub objects: usize,
    /// Height of the shard's R-tree (levels; 1 = root leaf).
    pub tree_height: u32,
    /// Buffer-pool hit ratio of the shard's tree, in `[0, 1]`.
    pub buffer_hit_rate: f64,
    /// Current WAL segment size in bytes (0 for in-memory shards).
    pub wal_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, Engine};
    use crate::matching::Pair;
    use crate::sb::MaintenanceMode;
    use mpq_datagen::WorkloadBuilder;
    use mpq_rtree::PointSet;
    use mpq_skyline::SkylineMaintainer;
    use mpq_ta::FunctionSet;

    fn workload(objects: usize, functions: usize, seed: u64) -> (PointSet, FunctionSet) {
        let w = WorkloadBuilder::new()
            .objects(objects)
            .functions(functions)
            .dim(3)
            .seed(seed)
            .build();
        (w.objects, w.functions)
    }

    fn sharded(objects: &PointSet, k: usize) -> Engine {
        Engine::builder()
            .objects(objects)
            .shards(k)
            .build()
            .unwrap()
    }

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        for oid in 0..500u64 {
            for k in [1usize, 2, 4, 8] {
                assert!(shard_of(oid, k) < k);
            }
        }
        // Pinned: a reopened directory must find every object where
        // the build put it.
        let homes: Vec<usize> = (0..8).map(|oid| shard_of(oid, 4)).collect();
        assert_eq!(homes, [3, 1, 2, 1, 2, 2, 0, 3]);
    }

    #[test]
    fn a_manifest_naming_another_partitioner_is_refused() {
        let dir = std::env::temp_dir().join(format!("mpq-shard-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_manifest(&dir, 3).unwrap();
        assert_eq!(read_manifest(&dir), Ok(3));
        let written = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(
            written,
            "mpq-shard-manifest/1\nshards=3\npartitioner=hash\n"
        );
        for (body, complaint) in [
            (
                "shards=3\npartitioner=grid:1\n",
                "unknown partitioner 'grid:1'",
            ),
            (
                "shards=3\npartitioner=mystery\n",
                "unknown partitioner 'mystery'",
            ),
            ("shards=3\n", "malformed shard manifest"),
        ] {
            std::fs::write(dir.join(MANIFEST_FILE), format!("{MANIFEST_MAGIC}\n{body}")).unwrap();
            match Engine::open(&dir) {
                Err(MpqError::Io(message)) => assert!(message.contains(complaint), "{message}"),
                other => panic!("{body:?} opened as {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_rejects_zero_shards_and_empty_objects() {
        let (objects, _) = workload(10, 4, 1);
        let err = Engine::builder().objects(&objects).shards(0).build();
        assert!(matches!(err, Err(MpqError::UnsupportedRequest(_))));
        let empty = PointSet::new(3);
        let err = Engine::builder().objects(&empty).shards(2).build();
        assert_eq!(err.unwrap_err(), MpqError::EmptyObjects);
    }

    #[test]
    fn shards_cover_all_objects_disjointly() {
        let (objects, _) = workload(200, 8, 7);
        for k in [1usize, 3, 8] {
            let engine = sharded(&objects, k);
            assert_eq!(engine.shard_count(), k);
            assert_eq!(engine.n_objects(), 200);
            for (oid, point) in objects.iter() {
                let holders = engine
                    .trees()
                    .filter(|tree| tree.contains(point, oid as u64));
                assert_eq!(holders.count(), 1, "oid {oid}");
            }
            assert_eq!(engine.trees().map(|tree| tree.len()).sum::<u64>(), 200);
        }
    }

    #[test]
    fn sharded_matches_unsharded_canonical_result() {
        let (objects, functions) = workload(300, 24, 11);
        let want = sharded(&objects, 1).evaluate(&functions).unwrap();
        for k in [2usize, 4, 8] {
            let got = sharded(&objects, k).evaluate(&functions).unwrap();
            assert_eq!(got.pairs(), want.pairs(), "K={k} diverged");
        }
    }

    #[test]
    fn stream_yields_the_matching_progressively() {
        let (objects, functions) = workload(120, 10, 31);
        let engine = sharded(&objects, 3);
        let eager = engine.evaluate(&functions).unwrap();
        let streamed: Vec<Pair> = engine.stream(&functions).unwrap().collect();
        assert_eq!(streamed, eager.pairs().to_vec());
    }

    /// What a stream reports between pairs is the state of the
    /// inventory's one skyline, however many trees it spans: a stream
    /// that has retired some objects holds the skyline a fresh one would
    /// start from with those objects excluded.
    #[test]
    fn a_half_drained_stream_reports_the_skyline() {
        let (objects, functions) = workload(400, 12, 37);
        let engine = sharded(&objects, 3);
        let one_tree = sharded(&objects, 1);
        let request = || engine.request(&functions).multi_pair(false);
        let mut stream = request().stream().unwrap();
        let skyline = SkylineMaintainer::build(one_tree.tree()).len();
        assert_eq!(stream.skyline_len(), skyline);
        assert_eq!(stream.unassigned_functions(), 12);

        // One pair per round, so nothing is retired ahead of what was
        // yielded.
        let drained: Vec<Pair> = stream.by_ref().take(6).collect();
        assert_eq!(stream.unassigned_functions(), 6);
        let gone = || drained.iter().map(|p| p.oid);
        for fresh in [request(), one_tree.request(&functions)] {
            assert_eq!(
                stream.skyline_len(),
                fresh.exclude(gone()).stream().unwrap().skyline_len(),
                "the skyline of what is left, however it was reached"
            );
        }
        let whole = request().evaluate().unwrap();
        let streamed: Vec<Pair> = drained.into_iter().chain(stream).collect();
        assert_eq!(streamed, whole.pairs());
    }

    /// One list of what a stream accepts, and every knob it accepts is
    /// honoured, at every shard count.
    #[test]
    fn every_shard_count_streams_the_same_requests() {
        let (objects, functions) = workload(300, 20, 43);
        // A capacitated stream is the capacitated evaluation, pair for
        // pair: object `i` takes `i mod 3` users, so some objects stay
        // on the skyline between rounds and some never enter it.
        let caps: Vec<u32> = (0..objects.len()).map(|i| (i % 3) as u32).collect();
        let one_tree = sharded(&objects, 1);
        let whole = one_tree.request(&functions).capacities(&caps);
        let whole = whole.evaluate().unwrap();
        let unsupported = |why| Some(MpqError::UnsupportedRequest(why));
        for k in [1, 4] {
            let engine = sharded(&objects, k);
            let request = || engine.request(&functions);
            let refused = [
                request()
                    .maintenance(MaintenanceMode::Rescan)
                    .stream()
                    .err(),
                request().algorithm(Algorithm::BruteForce).stream().err(),
                request().multi_pair(false).stream().err(),
            ];
            let expected = [
                unsupported("streaming requires incremental skyline maintenance"),
                unsupported("streaming is only supported with Algorithm::Sb"),
                None,
            ];
            assert_eq!(refused, expected, "K={k}");

            let stream = request().capacities(&caps).stream().unwrap();
            assert_eq!(stream.collect::<Vec<Pair>>(), whole.pairs(), "K={k}");

            let one_by_one: Vec<Pair> = request().multi_pair(false).stream().unwrap().collect();
            assert_eq!(one_by_one.len(), 20);
            assert!(
                one_by_one.windows(2).all(|w| w[0].beats(&w[1])),
                "single-pair rounds yield the canonical greedy order"
            );
            let rounds: Vec<Pair> = engine.stream(&functions).unwrap().collect();
            assert!(!rounds.windows(2).all(|w| w[0].beats(&w[1])));
        }
    }

    #[test]
    fn mutations_route_to_exactly_one_shard() {
        let (objects, _) = workload(50, 4, 41);
        let engine = sharded(&objects, 4);
        let before = engine.version_vector();
        let oid = engine.insert_object(&[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(oid, 50);
        let after = engine.version_vector();
        let bumped = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert_eq!(bumped, 1, "an insert must bump exactly one component");
        assert_eq!(engine.n_objects(), 51);
        engine.remove_object(oid).unwrap();
        assert_eq!(engine.n_objects(), 50);
        assert!(matches!(
            engine.remove_object(999),
            Err(MpqError::UnknownObject { oid: 999 })
        ));
    }

    #[test]
    fn sharded_engine_persists_and_reopens() {
        let dir = std::env::temp_dir().join(format!(
            "mpq-shard-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (objects, functions) = workload(90, 12, 67);
        let want = {
            let builder = Engine::builder().objects(&objects).shards(3);
            let engine = builder.data_dir(&dir).build().unwrap();
            assert!(Engine::persisted_at(&dir));
            engine.insert_object(&[0.4, 0.4, 0.4]).unwrap();
            engine.evaluate(&functions).unwrap().sorted_pairs()
        };
        let reopened = Engine::open(&dir).unwrap();
        assert_eq!(reopened.shard_count(), 3);
        assert_eq!(reopened.n_objects(), 91);
        assert_eq!(reopened.oid_bound(), 91);
        assert_eq!(reopened.evaluate(&functions).unwrap().sorted_pairs(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gauges_cover_every_shard() {
        let (objects, _) = workload(64, 4, 71);
        let gauges = sharded(&objects, 4).shard_gauges();
        assert_eq!(gauges.len(), 4);
        assert_eq!(gauges.iter().map(|g| g.objects).sum::<usize>(), 64);
        assert!(gauges.iter().all(|g| g.tree_height >= 1));
    }
}
