//! Partitioned engine: per-shard R-trees, one SB run over the union of
//! their skylines.
//!
//! SB rests on one fact (§III-B of the paper): every monotone
//! function's top-1 lies in the skyline of the remaining objects. The
//! fact needs only a candidate set that *contains* the skyline, and a
//! partitioned inventory supplies one for free: the skyline is the set
//! of maximal elements of the dominance order (Chomicki's winnow), and
//! for any strict partial order the maximal elements of a union lie
//! among the maximal elements of its parts. So the union of `K`
//! per-shard skylines is a set SB's round (Algorithm 1, §IV-C's
//! multi-pair reporting included) is already correct over, and a
//! [`ShardedEngine`] evaluates a request in three steps:
//!
//! 1. **Partition** (once, at build). Object `oid` lives in shard
//!    `splitmix64(oid) % K` for as long as it lives — routing never
//!    looks at the point, so an update is in place, every mutation is
//!    one record in one WAL, and no id is ever in two shards. Each shard
//!    is a full [`Engine`]: its own bulk-loaded R-tree, buffer pool, WAL
//!    segment and epoch snapshots, indexing **global** object ids
//!    natively.
//! 2. **Pin.** Every shard is pinned at its current epoch, exactly as an
//!    [`Engine`] pins its one tree; each shard is read at one epoch for
//!    the whole evaluation.
//! 3. **One run over the union.** The pins go to the very function an
//!    [`Engine`] evaluates with (`run_sb_seeded` of [`crate::sb`]),
//!    whose run state holds one part per pin: *discover* ranks
//!    functions against the union of the parts' skylines, *retire*
//!    hands each assigned object to the one part that holds it and
//!    folds that part's promotions back into the union. Rounds, rank
//!    lists, the caller's `Scratch`, exclusions, capacities, seeds and
//!    streams work on `K` shards because they work on one.
//!
//! Nothing outside the skyline is ever *mutually* best, so a `K`-shard
//! run reports the engine's pairs round for round: the same matching in
//! the same order from the same number of loops, for every `K`, and at
//! `K = 1` the same reverse top-1 scans and page reads to the count
//! (asserted by `tests/shard_identity.rs`). Because the canonical
//! stable matching is *unique* (deterministic tie-breaks end to end),
//! that one run serves all three algorithms, under exclusions and
//! capacities alike.
//!
//! ## What `K > 1` costs, and what it is for
//!
//! The union is larger than the skyline, and every extra member costs
//! reverse top-1 scans without ever being matched. Exact counts on
//! 200 000 × 4-d objects and 1 000 functions (`WorkloadBuilder`, seed
//! 2009): independent data, skyline 407, union 632 / 1 032 / 1 646 at
//! `K` = 2 / 4 / 8, and `reverse_top1_calls` 13 221 → 24 323 at
//! `K = 4`; anti-correlated, skyline 3 660 against 5 801 / 9 321 /
//! 14 711, and 51 222 → 109 998. Page reads grow with the number of
//! trees (356 → 611 and 967 → 1 444 logical reads at `K = 4`). That is
//! the only cost — there is no merge left to pay for — but it is a
//! cost. On the benchmark's `batch_indep` and `batch_anti` workloads
//! (three alternating `ledger trace` runs a side, 2-core container,
//! PR 20) `shard.evaluate_k4_ms` is 1.64–1.86× and 1.34–1.48× the same
//! run's `engine.evaluate_ms` (2.25–2.46× and 1.62–2.10× with the
//! best-pair merge this run replaced), while `shard.evaluate_k1_ms` is
//! 0.95–1.14× and 0.87–1.04× (from 1.92–2.10× and 1.40–1.46×). So on
//! one host sharding is **not** a throughput feature. What it buys is
//! independence of storage and of cached work: a WAL segment, a buffer
//! pool and a version-vector component per shard, so a mutation
//! appends to one shard's log and moves one component of the cache
//! stamp, leaving what was cached or seeded against the other shards
//! valid.
//!
//! ## One hosting path
//!
//! Nothing above the engines forks on the shard count. A
//! [`ShardedEngine`] is one more [`EvalBackend`]: requests are the same
//! [`MatchRequest`] an [`Engine`] takes
//! (`sharded.request(&fs).exclude(..).evaluate()`), batches and the
//! [`EngineService`] run it through the scheduling core they run an
//! [`Engine`] through, and
//! [`EngineBuilder::open_or_build`](crate::EngineBuilder::open_or_build)
//! alone decides when an inventory is hosted sharded (`K > 1`, or a
//! `shards.mpq` manifest on disk). One shard builds an [`Engine`]
//! there, not because a 1-shard run is slower — it is the same run —
//! but because a bare [`Engine`] also hosts the Brute Force, Chain and
//! rescan paths the paper's comparisons need.
//!
//! ## Versioning under sharding
//!
//! A single global [`Engine::inventory_version`] stamp would invalidate
//! cached results for *every* shard on *any* mutation. The sharded
//! engine instead exposes [`ShardedEngine::version_vector`] — one
//! version component per shard — and the [`crate::ResultCache`] stamps
//! entries with the whole vector: a mutation on shard A leaves a cached
//! result's shard-B components untouched, and the per-shard
//! [`MutationLog`]s prove irrelevant shard-A mutations harmless
//! component-wise (see [`crate::ResultCache::get_with_logs`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use mpq_rtree::bulk::thread_budget;
use mpq_rtree::{IoSession, IoStats, PointSet};
use mpq_ta::FunctionSet;

use crate::backend::{evaluate_batch_on, EvalBackend};
use crate::cache::MutationLog;
use crate::engine::{
    build_engines, validate_request, BatchOutcome, Engine, MatchRequest, RequestOptions,
};
use crate::error::MpqError;
use crate::matching::{IndexConfig, Matching};
use crate::sb::{run_sb_seeded, SbStream};
use crate::scratch::Scratch;
use crate::seed::EvalSeed;
use crate::service::{lock, EngineService, ServiceConfig};

/// Manifest file name inside a sharded data directory.
const MANIFEST_FILE: &str = "shards.mpq";
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
fn shard_of(oid: u64, k: usize) -> usize {
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

/// Builder for [`ShardedEngine`]: configure the partition count and
/// the per-shard index, then split and bulk-load once.
pub struct ShardedEngineBuilder<'o> {
    index: IndexConfig,
    objects: Option<&'o PointSet>,
    shards: usize,
    data_dir: Option<PathBuf>,
}

impl Default for ShardedEngineBuilder<'_> {
    fn default() -> Self {
        ShardedEngineBuilder {
            index: IndexConfig::default(),
            objects: None,
            shards: 1,
            data_dir: None,
        }
    }
}

impl<'o> ShardedEngineBuilder<'o> {
    /// Index construction/buffering parameters, applied to every shard.
    pub fn index(mut self, config: IndexConfig) -> ShardedEngineBuilder<'o> {
        self.index = config;
        self
    }

    /// The object inventory to partition and index. Object `i` of the
    /// set gets global id `i`, exactly as in the unsharded engine.
    pub fn objects(mut self, objects: &'o PointSet) -> ShardedEngineBuilder<'o> {
        self.objects = Some(objects);
        self
    }

    /// Number of shards `K >= 1` (default 1 — a degenerate but valid
    /// partition, which evaluates exactly as an [`Engine`] does).
    pub fn shards(mut self, k: usize) -> ShardedEngineBuilder<'o> {
        self.shards = k;
        self
    }

    /// Persist every shard under `dir`: shard `i` lives in
    /// `dir/shard-i/` as a full engine data directory (its own
    /// `pages.mpq` + `wal.mpq`), and a manifest records the shard count
    /// so [`ShardedEngine::open`] can reassemble the partition.
    pub fn data_dir(mut self, dir: impl AsRef<Path>) -> ShardedEngineBuilder<'o> {
        self.data_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Validate, partition and bulk-load all `K` per-shard R-trees.
    ///
    /// The inventory is validated whole and first, exactly as
    /// [`Engine::builder`] validates it: the same error for the same
    /// input, before anything is allocated or written. Then one key
    /// buffer is cut `K` ways by the routing rule and every shard is loaded
    /// from its share of it against the one `objects` — no shard holds a
    /// copy of its points while it is built — into stores and tables
    /// this thread allocated: the cores share the sorting and the
    /// encoding (see `mpq_rtree::bulk`), never the allocating.
    pub fn build(self) -> Result<ShardedEngine, MpqError> {
        if self.shards == 0 {
            return Err(MpqError::UnsupportedRequest(
                "a sharded engine needs at least one shard",
            ));
        }
        let objects = self.objects.ok_or(MpqError::EmptyObjects)?;
        let k = self.shards;
        let builders = (0..k)
            .map(|s| {
                let builder = Engine::builder().index(self.index.clone());
                match &self.data_dir {
                    None => builder,
                    Some(dir) => builder.data_dir(shard_dir(dir, s)),
                }
            })
            .collect();
        let shards = build_engines(builders, objects, |oid| shard_of(oid, k))?;
        if let Some(dir) = &self.data_dir {
            write_manifest(dir, k)?;
        }
        Ok(ShardedEngine {
            dim: objects.dim(),
            shards,
            next_oid: AtomicU64::new(objects.len() as u64),
            data_dir: self.data_dir,
            evaluations: AtomicU64::new(0),
            mutator: Mutex::new(()),
        })
    }
}

/// `make(0), .., make(k - 1)` in shard order, computed by `workers`
/// threads — the caller and `workers - 1` scoped ones — that draw shard
/// numbers from a shared counter. The first error in shard order wins;
/// a panicking worker resurfaces from the scope.
///
/// Only a reopen fans out this way, and its shards allocate on the
/// thread that opens them. A build does not (see
/// [`ShardedEngineBuilder::build`]): what a shard's reopen allocates is a
/// decoded node for every page it reads back and an insert for every
/// WAL record it replays, which no table sized on the caller would take
/// off the workers — replaying as one bulk load would, and is ROADMAP
/// item 7(a). No ledger workload reopens more than one shard.
fn for_each_shard<T: Send>(
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

/// Write the sharded data-dir manifest (idempotent, overwrites).
fn write_manifest(dir: &Path, k: usize) -> Result<(), MpqError> {
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

/// A partitioned matching engine: `K` independent [`Engine`] shards
/// (each with its own R-tree, buffer pool, WAL segment and epoch
/// snapshots) behind the familiar evaluation surface, evaluated by the
/// one SB run over the union of their skylines (see the
/// [module docs](self)).
///
/// `ShardedEngine` is `Sync` exactly like [`Engine`]: share it behind
/// an `Arc` and evaluate requests concurrently; mutations are
/// serialized internally and route to exactly one shard's WAL.
pub struct ShardedEngine {
    dim: usize,
    shards: Vec<Engine>,
    /// Global id mint: ids `>= next_oid` have never been assigned, in
    /// any shard. Removal never recycles an id.
    next_oid: AtomicU64,
    data_dir: Option<PathBuf>,
    /// Evaluations actually run (see
    /// [`ShardedEngine::evaluation_count`]).
    evaluations: AtomicU64,
    /// Serializes mutations (id minting + routing must be atomic).
    mutator: Mutex<()>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("dim", &self.dim)
            .field("shards", &self.shards.len())
            .field("objects", &self.n_objects())
            .field("data_dir", &self.data_dir)
            .finish()
    }
}

impl ShardedEngine {
    /// Start building a sharded engine.
    pub fn builder<'o>() -> ShardedEngineBuilder<'o> {
        ShardedEngineBuilder::default()
    }

    /// Dimensionality of the indexed preference space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards `K`.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines, in shard order (read access for metrics
    /// and tests; mutate through the sharded engine only, so routing
    /// and id minting stay consistent).
    pub fn shards(&self) -> &[Engine] {
        &self.shards
    }

    /// Total live objects across all shards.
    pub fn n_objects(&self) -> usize {
        self.shards.iter().map(Engine::n_objects).sum()
    }

    /// One past the highest global object id ever assigned (ids are
    /// never recycled — the same contract as [`Engine::oid_bound`]).
    #[inline]
    pub fn oid_bound(&self) -> u64 {
        self.next_oid.load(AtomicOrdering::Acquire)
    }

    /// The point currently stored for `oid`, if the inventory holds it.
    pub fn object_point(&self, oid: u64) -> Option<Box<[f64]>> {
        self.owner_of(oid).object_point(oid)
    }

    /// The one shard that holds `oid` if any does (see [`shard_of`]).
    fn owner_of(&self, oid: u64) -> &Engine {
        &self.shards[shard_of(oid, self.shards.len())]
    }

    /// The per-shard inventory version vector, in shard order. This is
    /// the sharded replacement for [`Engine::inventory_version`]: stamp
    /// cache entries with the whole vector, and a mutation on one shard
    /// leaves every other component — and thus the cache soundness
    /// proof for unaffected entries — intact.
    pub fn version_vector(&self) -> Vec<u64> {
        self.shards.iter().map(Engine::inventory_version).collect()
    }

    /// The per-shard [`MutationLog`]s, in shard order (component-wise
    /// companions to [`ShardedEngine::version_vector`] for
    /// [`crate::ResultCache::get_with_logs`]).
    pub fn mutation_logs(&self) -> Vec<&MutationLog> {
        self.shards.iter().map(Engine::mutation_log).collect()
    }

    /// Evaluations actually run against the shards (cache hits served
    /// by a fronting service do not count).
    #[inline]
    pub fn evaluation_count(&self) -> u64 {
        self.evaluations.load(AtomicOrdering::Relaxed)
    }

    /// **Stub, always 0.** It counted the shard probes the best-pair
    /// merge pruned by score bound; that merge is gone, and nothing is
    /// probed or skipped any more. The method stays only because the
    /// benchmark, which no other change may edit, still calls it
    /// (`shard.skipped_per_match`); a `benchmark` PR deletes both.
    #[inline]
    pub fn skipped_shards(&self) -> u64 {
        0
    }

    /// The sharded data directory, if disk-backed.
    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// Does `dir` hold a persisted *sharded* engine — i.e. would
    /// [`ShardedEngine::open`] find a manifest to load?
    pub fn persisted_at(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(MANIFEST_FILE).is_file()
    }

    /// Reopen a persisted sharded engine with the default
    /// [`IndexConfig`] (shorthand for [`ShardedEngine::open_with`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<ShardedEngine, MpqError> {
        ShardedEngine::open_with(dir, IndexConfig::default())
    }

    /// Reopen a persisted sharded engine: read the manifest, then
    /// recover every shard independently (each shard replays its own
    /// WAL past its own checkpoint — crash recovery is per-shard, and
    /// the reopened engine serves matchings bit-identical to the
    /// pre-crash engine over the surviving inventory).
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: IndexConfig,
    ) -> Result<ShardedEngine, MpqError> {
        let dir = dir.as_ref();
        let k = read_manifest(dir)?;
        let shards = for_each_shard(k, thread_budget().min(k), |s| {
            Engine::open_shard(&shard_dir(dir, s), config.clone())
        })?;
        if shards.iter().all(|s| s.n_objects() == 0) {
            return Err(MpqError::EmptyObjects);
        }
        let next_oid = shards.iter().map(Engine::oid_bound).max().unwrap_or(0);
        Ok(ShardedEngine {
            dim: shards[0].dim(),
            shards,
            next_oid: AtomicU64::new(next_oid),
            data_dir: Some(dir.to_path_buf()),
            evaluations: AtomicU64::new(0),
            mutator: Mutex::new(()),
        })
    }

    /// Checkpoint every shard: fold each shard's WAL into its page file
    /// (see [`Engine::checkpoint`]).
    pub fn checkpoint(&self) -> Result<(), MpqError> {
        for s in &self.shards {
            s.checkpoint()?;
        }
        Ok(())
    }

    /// Summed write-ahead-log size across all shards.
    pub fn wal_bytes(&self) -> u64 {
        self.shards.iter().map(Engine::wal_bytes).sum()
    }

    /// Summed storage-level I/O across all shards.
    pub fn storage_stats(&self) -> IoStats {
        self.shards
            .iter()
            .map(Engine::storage_stats)
            .fold(IoStats::default(), |a, b| a + b)
    }

    /// Per-shard operator gauges, in shard order (surfaced by
    /// `/metrics` so partition skew is visible).
    pub fn shard_gauges(&self) -> Vec<ShardGauges> {
        self.shards
            .iter()
            .map(|s| ShardGauges {
                objects: s.n_objects(),
                tree_height: s.tree().height(),
                buffer_hit_rate: s.tree().io_stats().hit_ratio(),
                wal_bytes: s.wal_bytes(),
            })
            .collect()
    }

    /// Insert a new object: mint the next global id and apply it to the
    /// one shard that id routes to (one WAL record, one version-vector
    /// component bumped).
    pub fn insert_object(&self, point: &[f64]) -> Result<u64, MpqError> {
        let _m = lock(&self.mutator);
        let oid = self.next_oid.load(AtomicOrdering::Relaxed);
        self.owner_of(oid).insert_object_at(oid, point)?;
        self.next_oid.store(oid + 1, AtomicOrdering::Release);
        Ok(oid)
    }

    /// Remove an object from the shard that holds it. Refuses to empty
    /// the *global* inventory (a shard may legally drain to zero).
    pub fn remove_object(&self, oid: u64) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        let owner = self.owner_of(oid);
        if self.n_objects() == 1 && owner.object_point(oid).is_some() {
            return Err(MpqError::UnsupportedRequest(
                "removing the last object would empty the inventory",
            ));
        }
        owner.remove_object_allow_empty(oid)
    }

    /// Move an object to a new point, in place in the shard that holds
    /// it (one WAL record): its id, and so its shard, does not change.
    pub fn update_object(&self, oid: u64, point: &[f64]) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        self.owner_of(oid).update_object(oid, point)
    }

    /// Build a [`FunctionSet`] from raw weight rows (same contract as
    /// [`Engine::functions_from_rows`]).
    pub fn functions_from_rows(&self, rows: &[Vec<f64>]) -> Result<FunctionSet, MpqError> {
        FunctionSet::try_from_rows(self.dim, rows)
            .map_err(|(index, source)| MpqError::InvalidFunction { index, source })
    }

    /// Start a [`MatchRequest`] for `functions` with default options.
    pub fn request<'e, 'f>(
        &'e self,
        functions: &'f FunctionSet,
    ) -> MatchRequest<'e, 'f, ShardedEngine> {
        MatchRequest::new(self, functions)
    }

    /// Evaluate `functions` with default options (shorthand for
    /// [`MatchRequest::evaluate`]).
    pub fn evaluate(&self, functions: &FunctionSet) -> Result<Matching, MpqError> {
        self.request(functions).evaluate()
    }

    /// Progressive SB evaluation with default options: the stream, the
    /// pairs and the order of [`Engine::stream`]. Shorthand for
    /// [`MatchRequest::stream`].
    pub fn stream(&self, functions: &FunctionSet) -> Result<SbStream<IoSession<'_>>, MpqError> {
        self.request(functions).stream()
    }

    /// Evaluate independent requests on a scoped worker pool, returning
    /// matchings **in input order** plus aggregated batch metrics — the
    /// same scheduling path as [`Engine::evaluate_batch`]. `threads == 0`
    /// means one worker per available core.
    pub fn evaluate_batch(
        &self,
        requests: &[MatchRequest<'_, '_, ShardedEngine>],
        threads: usize,
    ) -> Result<BatchOutcome, MpqError> {
        evaluate_batch_on(self, requests, threads)
    }

    /// Start a long-lived [`EngineService`] over this sharded engine —
    /// the same worker pool, bounded queue, tickets and result cache as
    /// [`Engine::serve`], with cache entries stamped by the per-shard
    /// version vector.
    pub fn serve(self: Arc<Self>, config: ServiceConfig) -> EngineService {
        EngineService::spawn(self, config)
    }
}

impl EvalBackend for ShardedEngine {
    fn dim(&self) -> usize {
        self.dim
    }

    fn n_objects(&self) -> usize {
        ShardedEngine::n_objects(self)
    }

    fn oid_bound(&self) -> u64 {
        ShardedEngine::oid_bound(self)
    }

    fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.tree().page_count()).sum()
    }

    fn wal_bytes(&self) -> u64 {
        ShardedEngine::wal_bytes(self)
    }

    fn version_vector(&self) -> Vec<u64> {
        ShardedEngine::version_vector(self)
    }

    fn mutation_logs(&self) -> Vec<&MutationLog> {
        ShardedEngine::mutation_logs(self)
    }

    fn storage_stats(&self) -> IoStats {
        ShardedEngine::storage_stats(self)
    }

    fn shard_gauges(&self) -> Vec<ShardGauges> {
        ShardedEngine::shard_gauges(self)
    }

    /// The one sharded evaluation path: validate, pin every shard, and
    /// run the engine's SB evaluation over the pins. All algorithms
    /// produce the canonical matching, so that run serves every
    /// [`Algorithm`](crate::Algorithm) — resumable for all of them,
    /// capacitated or not. An [`EvalSeed`] here carries one BBS snapshot
    /// per shard, each pinned to its shard's version component.
    fn evaluate_seeded(
        &self,
        functions: &FunctionSet,
        options: &RequestOptions,
        scratch: &mut Scratch,
        seed: Option<&EvalSeed>,
        capture: Option<&mut Option<EvalSeed>>,
    ) -> Result<Matching, MpqError> {
        validate_request(self, functions, options)?;
        self.evaluations.fetch_add(1, AtomicOrdering::Relaxed);
        let (sources, versions): (Vec<_>, Vec<_>) = self.shards.iter().map(Engine::pin).unzip();
        Ok(run_sb_seeded(
            sources, &versions, functions, options, scratch, seed, capture,
        ))
    }

    fn insert_object(&self, point: &[f64]) -> Result<u64, MpqError> {
        ShardedEngine::insert_object(self, point)
    }

    fn remove_object(&self, oid: u64) -> Result<(), MpqError> {
        ShardedEngine::remove_object(self, oid)
    }

    fn update_object(&self, oid: u64, point: &[f64]) -> Result<(), MpqError> {
        ShardedEngine::update_object(self, oid, point)
    }

    fn checkpoint(&self) -> Result<(), MpqError> {
        ShardedEngine::checkpoint(self)
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
    use crate::engine::Algorithm;
    use crate::matching::Pair;
    use crate::sb::MaintenanceMode;
    use mpq_datagen::WorkloadBuilder;
    use mpq_skyline::SkylineMaintainer;

    fn workload(objects: usize, functions: usize, seed: u64) -> (PointSet, FunctionSet) {
        let w = WorkloadBuilder::new()
            .objects(objects)
            .functions(functions)
            .dim(3)
            .seed(seed)
            .build();
        (w.objects, w.functions)
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
            match ShardedEngine::open(&dir) {
                Err(MpqError::Io(message)) => assert!(message.contains(complaint), "{message}"),
                other => panic!("{body:?} opened as {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_rejects_zero_shards_and_empty_objects() {
        let (objects, _) = workload(10, 4, 1);
        let err = ShardedEngine::builder()
            .objects(&objects)
            .shards(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, MpqError::UnsupportedRequest(_)));
        let empty = PointSet::new(3);
        let err = ShardedEngine::builder()
            .objects(&empty)
            .shards(2)
            .build()
            .unwrap_err();
        assert_eq!(err, MpqError::EmptyObjects);
    }

    #[test]
    fn shards_cover_all_objects_disjointly() {
        let (objects, _) = workload(200, 8, 7);
        for k in [1usize, 3, 8] {
            let sharded = ShardedEngine::builder()
                .objects(&objects)
                .shards(k)
                .build()
                .unwrap();
            assert_eq!(sharded.shard_count(), k);
            assert_eq!(sharded.n_objects(), 200);
            let mut seen = std::collections::HashSet::new();
            for s in sharded.shards() {
                for oid in 0..200u64 {
                    if s.object_point(oid).is_some() && !seen.insert((oid, s as *const Engine)) {
                        panic!("oid {oid} indexed twice in one shard");
                    }
                }
            }
            for oid in 0..200u64 {
                let holders = sharded
                    .shards()
                    .iter()
                    .filter(|s| s.object_point(oid).is_some())
                    .count();
                assert_eq!(holders, 1, "oid {oid} held by {holders} shards");
            }
        }
    }

    #[test]
    fn sharded_matches_unsharded_canonical_result() {
        let (objects, functions) = workload(300, 24, 11);
        let unsharded = Engine::builder().objects(&objects).build().unwrap();
        let want = unsharded
            .request(&functions)
            .evaluate()
            .unwrap()
            .sorted_pairs();
        for k in [1usize, 2, 4, 8] {
            let sharded = ShardedEngine::builder()
                .objects(&objects)
                .shards(k)
                .build()
                .unwrap();
            let got = sharded.evaluate(&functions).unwrap().sorted_pairs();
            assert_eq!(got, want, "K={k} diverged from unsharded");
        }
    }

    #[test]
    fn stream_yields_the_matching_progressively() {
        let (objects, functions) = workload(120, 10, 31);
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(3)
            .build()
            .unwrap();
        let eager = sharded.evaluate(&functions).unwrap();
        let streamed: Vec<Pair> = sharded.stream(&functions).unwrap().collect();
        assert_eq!(streamed, eager.pairs().to_vec());
    }

    /// What a stream reports between pairs is the state of the union: a
    /// stream that has retired some objects holds the skyline a fresh
    /// one would start from with those objects excluded.
    #[test]
    fn a_half_drained_stream_reports_the_union() {
        let (objects, functions) = workload(400, 12, 37);
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(3)
            .build()
            .unwrap();
        let request = || sharded.request(&functions).multi_pair(false);
        let mut stream = request().stream().unwrap();
        let shard_skylines = sharded
            .shards()
            .iter()
            .map(|shard| SkylineMaintainer::build(shard.tree()).len());
        assert_eq!(stream.skyline_len(), shard_skylines.sum::<usize>());
        assert_eq!(stream.unassigned_functions(), 12);

        // One pair per round, so nothing is retired ahead of what was
        // yielded.
        let drained: Vec<Pair> = stream.by_ref().take(6).collect();
        assert_eq!(stream.unassigned_functions(), 6);
        let rest = request().exclude(drained.iter().map(|p| p.oid));
        assert_eq!(
            stream.skyline_len(),
            rest.stream().unwrap().skyline_len(),
            "the skyline of what is left, however it was reached"
        );
        let whole = request().evaluate().unwrap();
        let streamed: Vec<Pair> = drained.into_iter().chain(stream).collect();
        assert_eq!(streamed, whole.pairs());
    }

    /// One list of what a stream accepts, and every knob it accepts is
    /// honoured, on either backend.
    #[test]
    fn both_backends_stream_the_same_requests() {
        let (objects, functions) = workload(300, 20, 43);
        let single = Engine::builder().objects(&objects).build().unwrap();
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .build()
            .unwrap();
        macro_rules! refusals {
            ($backend:expr) => {{
                let request = || $backend.request(&functions);
                [
                    request()
                        .maintenance(MaintenanceMode::Rescan)
                        .stream()
                        .err(),
                    request().algorithm(Algorithm::BruteForce).stream().err(),
                    request().multi_pair(false).stream().err(),
                ]
            }};
        }
        let refused = refusals!(single);
        assert_eq!(refused, refusals!(sharded));
        let unsupported = |why| Some(MpqError::UnsupportedRequest(why));
        let expected = [
            unsupported("streaming requires incremental skyline maintenance"),
            unsupported("streaming is only supported with Algorithm::Sb"),
            None,
        ];
        assert_eq!(refused, expected);

        // A capacitated stream is the capacitated evaluation, pair for
        // pair: object `i` takes `i mod 3` users, so some objects stay
        // on the skyline between rounds and some never enter it.
        let caps: Vec<u32> = (0..objects.len()).map(|i| (i % 3) as u32).collect();
        let whole = single.request(&functions).capacities(&caps);
        let whole = whole.evaluate().unwrap();
        let on_one = single.request(&functions).capacities(&caps);
        let on_four = sharded.request(&functions).capacities(&caps);
        let streams = [on_one.stream().unwrap(), on_four.stream().unwrap()];
        for stream in streams {
            assert_eq!(stream.collect::<Vec<Pair>>(), whole.pairs());
        }

        let request = sharded.request(&functions).multi_pair(false);
        let one_by_one: Vec<Pair> = request.stream().unwrap().collect();
        assert_eq!(one_by_one.len(), 20);
        assert!(
            one_by_one.windows(2).all(|w| w[0].beats(&w[1])),
            "single-pair rounds yield the canonical greedy order"
        );
        let rounds: Vec<Pair> = sharded.stream(&functions).unwrap().collect();
        assert!(!rounds.windows(2).all(|w| w[0].beats(&w[1])));
    }

    #[test]
    fn mutations_route_to_exactly_one_shard() {
        let (objects, _) = workload(50, 4, 41);
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .build()
            .unwrap();
        let before = sharded.version_vector();
        let oid = sharded.insert_object(&[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(oid, 50);
        let after = sharded.version_vector();
        let bumped = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert_eq!(bumped, 1, "an insert must bump exactly one component");
        assert_eq!(sharded.n_objects(), 51);
        sharded.remove_object(oid).unwrap();
        assert_eq!(sharded.n_objects(), 50);
        assert!(matches!(
            sharded.remove_object(999),
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
            let sharded = ShardedEngine::builder()
                .objects(&objects)
                .shards(3)
                .data_dir(&dir)
                .build()
                .unwrap();
            assert!(ShardedEngine::persisted_at(&dir));
            sharded.insert_object(&[0.4, 0.4, 0.4]).unwrap();
            sharded.evaluate(&functions).unwrap().sorted_pairs()
        };
        let reopened = ShardedEngine::open(&dir).unwrap();
        assert_eq!(reopened.shard_count(), 3);
        assert_eq!(reopened.n_objects(), 91);
        assert_eq!(reopened.oid_bound(), 91);
        assert_eq!(reopened.evaluate(&functions).unwrap().sorted_pairs(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gauges_cover_every_shard() {
        let (objects, _) = workload(64, 4, 71);
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .build()
            .unwrap();
        let gauges = sharded.shard_gauges();
        assert_eq!(gauges.len(), 4);
        assert_eq!(gauges.iter().map(|g| g.objects).sum::<usize>(), 64);
        assert!(gauges.iter().all(|g| g.tree_height >= 1));
    }
}
