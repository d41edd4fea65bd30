//! Partitioned engine: per-shard R-trees with a scatter-gather
//! best-pair merge.
//!
//! All three matchers reduce to repeatedly finding the best
//! `(score desc, fid asc, oid asc)` pair over the surviving inventory —
//! and that reduction decomposes cleanly over a *partitioned* object
//! set: if every shard reports its locally best candidate pair, the
//! globally best pair is the best of the candidates. The
//! [`ShardedEngine`] exploits this with a scatter-gather merge:
//!
//! 1. **Partition.** A [`Partitioner`] (hash-by-oid by default,
//!    pluggable grid/space partitioning via [`GridPartitioner`]) splits
//!    the object set into `K` independent shards. Each shard is a full
//!    [`Engine`]: its own bulk-loaded R-tree, buffer pool, WAL segment
//!    and epoch snapshots — and each shard indexes **global** object
//!    ids natively, so no id translation sits between the merge
//!    protocol and the per-shard trees.
//! 2. **Scatter.** Each evaluation round probes shards for their best
//!    candidate pair: one `GreedyProbe` of [`crate::capacity`] per
//!    shard — the very probe an unsharded capacitated request drains on
//!    its own. A probe is the SB run of [`crate::sb`] in single-pair
//!    mode over the shard's tree: probing is the *discover* half of an
//!    SB round (rank-list caches included), the broadcast below its
//!    *retire* half. A shard therefore does per candidate exactly what
//!    `Engine` does per single-pair loop, and nothing is allocated per
//!    object id.
//! 3. **Gather + merge.** The driver picks the best candidate, emits
//!    it, and broadcasts the assignment; only shards whose state the
//!    assignment touched (the owner of the object, or any shard whose
//!    cached candidate used the assigned function) re-probe next round.
//! 4. **Bound pruning.** A shard's stale candidate score is a valid
//!    *upper bound* on everything it can still produce (assignments
//!    only remove objects and functions, and domination order implies
//!    score order for non-negative weights), so a stale shard whose
//!    bound is strictly below the current winner is **skipped** — the
//!    Vlachou-style partition bound. Skips are counted in
//!    [`ShardedEngine::skipped_shards`].
//!
//! The merge protocol is **message-shaped**: driver and shards exchange
//! only candidate [`Pair`]s, assignment broadcasts and bounds — no
//! shared mutable state — so shards can later live in separate
//! processes (the north-star scale-out seam).
//!
//! Because the canonical stable matching is *unique* (deterministic
//! tie-breaks end to end), one merge implementation serves all three
//! algorithms: the sharded result is bit-identical to the unsharded
//! engine's `sorted_pairs()` for SB, BF and Chain alike, under
//! exclusions and capacities (asserted by `tests/shard_identity.rs`).
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
//! `shards.mpq` manifest on disk). A 1-shard merge stays buildable —
//! it is the merge-overhead baseline — but nothing selects it. On the
//! benchmark's `batch_indep` workload (three alternating `ledger
//! trace` runs a side, 2-core container, PR 16) `shard.evaluate_k1_ms`
//! is 226 ms against `engine.evaluate_ms` 136 ms, 1.65×, unmoved by
//! sharing the round body (224–236 ms, parent 223–232), while
//! `shard.evaluate_k4_ms` went 298–315 → 248–254 ms (1.85× the engine).
//! What still separates K = 1 from the engine is no longer a second
//! implementation but the round shape: the engine retires every
//! mutually-best pair of a round at once (§IV-C, ~17 pairs over 57.5
//! loops), a probe offers one pair and so walks its skyline and runs
//! skyline maintenance once per emitted pair — 1 000 rounds for 1 000
//! functions.
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
use std::time::Instant;

use mpq_rtree::bulk::thread_budget;
use mpq_rtree::{IoStats, PointSet};
use mpq_skyline::SkylineMaintainer;
use mpq_ta::FunctionSet;

use crate::backend::{evaluate_batch_on, EvalBackend};
use crate::cache::MutationLog;
use crate::capacity::GreedyProbe;
use crate::engine::{
    validate_request, Algorithm, BatchOutcome, Engine, MatchRequest, RequestOptions,
};
use crate::error::MpqError;
use crate::matching::{IndexConfig, Matching, Pair, RunMetrics};
use crate::scratch::Scratch;
use crate::seed::EvalSeed;
use crate::service::{lock, EngineService, ServiceConfig};

/// Manifest file name inside a sharded data directory.
const MANIFEST_FILE: &str = "shards.mpq";
/// First line of a sharded data-dir manifest.
const MANIFEST_MAGIC: &str = "mpq-shard-manifest/1";

/// Assigns every object to exactly one of `k` shards.
///
/// The contract is a *true partition*: for a fixed `k`, every
/// `(oid, point)` maps to exactly one shard in `0..k`, deterministically
/// — the same inputs must map to the same shard across processes and
/// reopens (asserted by a proptest). Implementations must be cheap:
/// the router runs under the mutation lock.
pub trait Partitioner: Send + Sync {
    /// The shard (`0..k`) that owns object `oid` at `point`.
    fn shard_of(&self, oid: u64, point: &[f64], k: usize) -> usize;

    /// Stable identifier round-tripped through the data-dir manifest so
    /// [`ShardedEngine::open`] can reconstruct the partitioner.
    fn id(&self) -> String;
}

/// The default partitioner: shard by a fixed 64-bit mix of the object
/// id (SplitMix64). Id-based routing is *placement-stable*: an object's
/// shard never changes when its point moves, so updates never migrate
/// between shards and every mutation touches exactly one WAL.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

/// SplitMix64 finalizer — a fixed, documented mix so the partition is
/// stable across processes, platforms and reopens.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Partitioner for HashPartitioner {
    fn shard_of(&self, oid: u64, _point: &[f64], k: usize) -> usize {
        (splitmix64(oid) % k.max(1) as u64) as usize
    }

    fn id(&self) -> String {
        "hash".to_string()
    }
}

/// Space partitioner: slice the `[0, 1]` preference space into `k`
/// equal-width slabs along one axis (`shard = floor(point[axis] * k)`,
/// clamped). Clusters spatially close objects — and therefore skyline
/// candidates — into few shards, which the merge's bound pruning turns
/// into skipped probes.
///
/// Point-based routing means [`ShardedEngine::update_object`] may
/// *migrate* an object between shards (a remove in one WAL plus an
/// insert in another — two durable operations, not one atomic record;
/// a crash between them can leave the object present in both shards
/// until the stale copy is removed). Deployments that mutate under
/// crash risk should prefer [`HashPartitioner`].
#[derive(Debug, Clone, Copy)]
pub struct GridPartitioner {
    /// The axis (dimension index) the space is sliced along.
    pub axis: usize,
}

impl Partitioner for GridPartitioner {
    fn shard_of(&self, _oid: u64, point: &[f64], k: usize) -> usize {
        let k = k.max(1);
        let v = point.get(self.axis).copied().unwrap_or(0.0).clamp(0.0, 1.0);
        ((v * k as f64) as usize).min(k - 1)
    }

    fn id(&self) -> String {
        format!("grid:{}", self.axis)
    }
}

/// Reconstruct a partitioner from its manifest [`Partitioner::id`].
fn partitioner_from_id(id: &str) -> Result<Arc<dyn Partitioner>, MpqError> {
    if id == "hash" {
        return Ok(Arc::new(HashPartitioner));
    }
    if let Some(axis) = id.strip_prefix("grid:") {
        if let Ok(axis) = axis.parse::<usize>() {
            return Ok(Arc::new(GridPartitioner { axis }));
        }
    }
    Err(MpqError::Io(format!(
        "shard manifest names unknown partitioner '{id}'"
    )))
}

/// Builder for [`ShardedEngine`]: configure the partition count, the
/// partitioner and the per-shard index, then split and bulk-load once.
pub struct ShardedEngineBuilder<'o> {
    index: IndexConfig,
    objects: Option<&'o PointSet>,
    shards: usize,
    partitioner: Arc<dyn Partitioner>,
    data_dir: Option<PathBuf>,
}

impl Default for ShardedEngineBuilder<'_> {
    fn default() -> Self {
        ShardedEngineBuilder {
            index: IndexConfig::default(),
            objects: None,
            shards: 1,
            partitioner: Arc::new(HashPartitioner),
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
    /// partition, useful as the merge-overhead baseline).
    pub fn shards(mut self, k: usize) -> ShardedEngineBuilder<'o> {
        self.shards = k;
        self
    }

    /// The partitioner assigning objects to shards (default
    /// [`HashPartitioner`]).
    pub fn partitioner(mut self, p: Arc<dyn Partitioner>) -> ShardedEngineBuilder<'o> {
        self.partitioner = p;
        self
    }

    /// Persist every shard under `dir`: shard `i` lives in
    /// `dir/shard-i/` as a full engine data directory (its own
    /// `pages.mpq` + `wal.mpq`), and a manifest records the shard count
    /// and partitioner so [`ShardedEngine::open`] can reassemble the
    /// partition.
    pub fn data_dir(mut self, dir: impl AsRef<Path>) -> ShardedEngineBuilder<'o> {
        self.data_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Validate, partition and bulk-load all `K` per-shard R-trees.
    pub fn build(self) -> Result<ShardedEngine, MpqError> {
        if self.shards == 0 {
            return Err(MpqError::UnsupportedRequest(
                "a sharded engine needs at least one shard",
            ));
        }
        let objects = self.objects.ok_or(MpqError::EmptyObjects)?;
        if objects.is_empty() {
            return Err(MpqError::EmptyObjects);
        }
        let k = self.shards;
        // Route every object, building one (points, oids) pair per
        // shard; a first pass sizes the pairs so the second never
        // reallocates.
        let route = |i: usize, p: &[f64]| self.partitioner.shard_of(i as u64, p, k).min(k - 1);
        let mut sizes = vec![0usize; k];
        for (i, p) in objects.iter() {
            sizes[route(i, p)] += 1;
        }
        let mut parts: Vec<(PointSet, Vec<u64>)> = sizes
            .iter()
            .map(|&n| {
                (
                    PointSet::with_capacity(objects.dim(), n),
                    Vec::with_capacity(n),
                )
            })
            .collect();
        for (i, p) in objects.iter() {
            let (points, oids) = &mut parts[route(i, p)];
            points.push(p);
            oids.push(i as u64);
        }
        if let Some(dir) = &self.data_dir {
            std::fs::create_dir_all(dir)?;
        }
        // K shards on up to one thread per core; cores left over when
        // K is smaller go to the shards' tilers.
        let workers = thread_budget().min(k);
        let shards = for_each_shard(k, workers, |s| {
            let (part, ids) = &parts[s];
            let mut b = Engine::builder()
                .index(self.index.clone())
                .objects(part)
                .explicit_oids(ids)
                .allow_empty()
                .build_threads(thread_budget() / workers);
            if let Some(dir) = &self.data_dir {
                b = b.data_dir(shard_dir(dir, s));
            }
            b.build()
        })?;
        if let Some(dir) = &self.data_dir {
            write_manifest(dir, k, &*self.partitioner)?;
        }
        Ok(ShardedEngine {
            dim: objects.dim(),
            partitioner: self.partitioner,
            shards,
            next_oid: AtomicU64::new(objects.len() as u64),
            data_dir: self.data_dir,
            evaluations: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            mutator: Mutex::new(()),
        })
    }
}

/// `make(0), .., make(k - 1)` in shard order, computed by `workers`
/// threads — the caller and `workers - 1` scoped ones — that draw shard
/// numbers from a shared counter. The first error in shard order wins;
/// a panicking worker resurfaces from the scope.
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
fn write_manifest(dir: &Path, k: usize, partitioner: &dyn Partitioner) -> Result<(), MpqError> {
    let body = format!(
        "{MANIFEST_MAGIC}\nshards={k}\npartitioner={}\n",
        partitioner.id()
    );
    std::fs::write(dir.join(MANIFEST_FILE), body)?;
    Ok(())
}

/// Parse a sharded data-dir manifest into `(k, partitioner)`.
fn read_manifest(dir: &Path) -> Result<(usize, Arc<dyn Partitioner>), MpqError> {
    let body = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let mut lines = body.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(MpqError::Io(format!(
            "not a shard manifest: {}",
            dir.join(MANIFEST_FILE).display()
        )));
    }
    let mut k = None;
    let mut partitioner = None;
    for line in lines {
        if let Some(v) = line.strip_prefix("shards=") {
            k = v.parse::<usize>().ok();
        } else if let Some(v) = line.strip_prefix("partitioner=") {
            partitioner = Some(partitioner_from_id(v)?);
        }
    }
    match (k, partitioner) {
        (Some(k), Some(p)) if k >= 1 => Ok((k, p)),
        _ => Err(MpqError::Io(format!(
            "malformed shard manifest: {}",
            dir.join(MANIFEST_FILE).display()
        ))),
    }
}

/// A partitioned matching engine: `K` independent [`Engine`] shards
/// (each with its own R-tree, buffer pool, WAL segment and epoch
/// snapshots) behind the familiar evaluation surface, resolved by a
/// scatter-gather best-pair merge (see the [module docs](self)).
///
/// `ShardedEngine` is `Sync` exactly like [`Engine`]: share it behind
/// an `Arc` and evaluate requests concurrently; mutations are
/// serialized internally and route to exactly one shard's WAL (two for
/// a migrating [`GridPartitioner`] update).
pub struct ShardedEngine {
    dim: usize,
    partitioner: Arc<dyn Partitioner>,
    shards: Vec<Engine>,
    /// Global id mint: ids `>= next_oid` have never been assigned, in
    /// any shard. Removal never recycles an id.
    next_oid: AtomicU64,
    data_dir: Option<PathBuf>,
    /// Evaluations actually run through the merge driver.
    evaluations: AtomicU64,
    /// Shard probes skipped because the shard's score bound proved it
    /// could not produce the round's winner.
    skipped: AtomicU64,
    /// Serializes mutations (id minting + routing must be atomic).
    mutator: Mutex<()>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("dim", &self.dim)
            .field("shards", &self.shards.len())
            .field("objects", &self.n_objects())
            .field("partitioner", &self.partitioner.id())
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

    /// The point currently stored for `oid`, searching all shards.
    pub fn object_point(&self, oid: u64) -> Option<Box<[f64]>> {
        self.shards.iter().find_map(|s| s.object_point(oid))
    }

    /// The shard currently holding `oid`, if any. For a
    /// [`HashPartitioner`] this is a direct computation; point-routed
    /// partitioners scan (an updated point may have migrated the
    /// object), which is `O(K log n)`.
    fn owner_of(&self, oid: u64) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.object_point(oid).is_some())
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

    /// Evaluations actually run through the merge driver (cache hits
    /// served by a fronting service do not count).
    #[inline]
    pub fn evaluation_count(&self) -> u64 {
        self.evaluations.load(AtomicOrdering::Relaxed)
    }

    /// How many per-shard probes the merge skipped because the shard's
    /// score upper bound proved it could not win the round — the
    /// observable for partition-bound effectiveness (plotted by the
    /// `shard_scaling` bench).
    #[inline]
    pub fn skipped_shards(&self) -> u64 {
        self.skipped.load(AtomicOrdering::Relaxed)
    }

    /// True iff the shards persist to a data directory.
    #[inline]
    pub fn is_persistent(&self) -> bool {
        self.data_dir.is_some()
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
        let (k, partitioner) = read_manifest(dir)?;
        let shards = for_each_shard(k, thread_budget().min(k), |s| {
            Engine::open_shard(&shard_dir(dir, s), config.clone())
        })?;
        if shards.iter().all(|s| s.n_objects() == 0) {
            return Err(MpqError::EmptyObjects);
        }
        let next_oid = shards.iter().map(Engine::oid_bound).max().unwrap_or(0);
        Ok(ShardedEngine {
            dim: shards[0].dim(),
            partitioner,
            shards,
            next_oid: AtomicU64::new(next_oid),
            data_dir: Some(dir.to_path_buf()),
            evaluations: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
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

    /// Insert a new object: mint the next global id, route it through
    /// the partitioner, and apply it to exactly one shard (one WAL
    /// record, one version-vector component bumped).
    pub fn insert_object(&self, point: &[f64]) -> Result<u64, MpqError> {
        let _m = lock(&self.mutator);
        let oid = self.next_oid.load(AtomicOrdering::Relaxed);
        let k = self.shards.len();
        let s = self.partitioner.shard_of(oid, point, k).min(k - 1);
        self.shards[s].insert_object_at(oid, point)?;
        self.next_oid.store(oid + 1, AtomicOrdering::Release);
        Ok(oid)
    }

    /// Remove an object from whichever shard holds it. Refuses to empty
    /// the *global* inventory (a shard may legally drain to zero).
    pub fn remove_object(&self, oid: u64) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        let owner = self.owner_of(oid).ok_or(MpqError::UnknownObject { oid })?;
        if self.n_objects() == 1 {
            return Err(MpqError::UnsupportedRequest(
                "removing the last object would empty the inventory",
            ));
        }
        self.shards[owner].remove_object_allow_empty(oid)
    }

    /// Move an object to a new point. With an id-routed partitioner the
    /// owner shard updates in place (one WAL record); with a
    /// point-routed partitioner the object may *migrate* — an insert
    /// into the new home shard followed by a remove from the old owner
    /// (two WAL records in two segments, insert first so a crash
    /// between them never loses the object; see [`GridPartitioner`]).
    pub fn update_object(&self, oid: u64, point: &[f64]) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        let owner = self.owner_of(oid).ok_or(MpqError::UnknownObject { oid })?;
        let k = self.shards.len();
        let home = self.partitioner.shard_of(oid, point, k).min(k - 1);
        if home == owner {
            return self.shards[owner].update_object(oid, point);
        }
        self.shards[home].insert_object_at(oid, point)?;
        self.shards[owner].remove_object_allow_empty(oid)
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

    /// Progressive evaluation: stable pairs are yielded as soon as the
    /// merge resolves them, in canonical (descending) order. Mirrors
    /// [`Engine::stream`]'s request shape: SB, no capacities.
    pub fn stream<'e>(&'e self, functions: &FunctionSet) -> Result<ShardedStream<'e>, MpqError> {
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

    fn skipped_shards(&self) -> u64 {
        ShardedEngine::skipped_shards(self)
    }

    /// The one sharded evaluation path: validate, then run the
    /// scatter-gather merge (all algorithms produce the canonical
    /// matching, so the merge serves every [`Algorithm`] — and is
    /// resumable for all of them, capacitated or not). An [`EvalSeed`]
    /// here carries one BBS snapshot per shard (the partitioner already
    /// split the inventory; seeds follow that split), each pinned to
    /// its shard's version component. The probes own their working
    /// state, so the scratch goes unused.
    fn evaluate_seeded(
        &self,
        functions: &FunctionSet,
        options: &RequestOptions,
        _scratch: &mut Scratch,
        seed: Option<&EvalSeed>,
        capture: Option<&mut Option<EvalSeed>>,
    ) -> Result<Matching, MpqError> {
        validate_request(self, functions, options)?;
        self.evaluations.fetch_add(1, AtomicOrdering::Relaxed);
        let start = Instant::now();
        let (mut state, captured) =
            MergeState::new_seeded(self, functions, options, seed, capture.is_some());
        if let Some(out) = capture {
            *out = captured;
        }
        let mut pairs = Vec::new();
        while let Some(p) = state.next_pair() {
            pairs.push(p);
        }
        let metrics = RunMetrics {
            elapsed: start.elapsed(),
            loops: state.rounds,
            ..state.shard_totals()
        };
        Ok(Matching::new(pairs, metrics))
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

/// Progressive sharded evaluation: an iterator yielding stable pairs in
/// canonical (descending) order as the scatter-gather merge resolves
/// them (the sharded mirror of [`crate::SbStream`]).
pub struct ShardedStream<'e> {
    state: MergeState<'e>,
}

impl<'e> ShardedStream<'e> {
    /// Open a stream for an already validated request (see
    /// [`MatchRequest::stream`]).
    pub(crate) fn open(
        engine: &'e ShardedEngine,
        functions: &FunctionSet,
        options: &RequestOptions,
    ) -> Result<ShardedStream<'e>, MpqError> {
        if options.algorithm != Algorithm::Sb {
            return Err(MpqError::UnsupportedRequest(
                "streaming is only supported with Algorithm::Sb",
            ));
        }
        if options.capacities.is_some() {
            return Err(MpqError::UnsupportedRequest(
                "streaming does not support capacities",
            ));
        }
        engine.evaluations.fetch_add(1, AtomicOrdering::Relaxed);
        Ok(ShardedStream {
            state: MergeState::new_seeded(engine, functions, options, None, false).0,
        })
    }
}

impl Iterator for ShardedStream<'_> {
    type Item = Pair;

    fn next(&mut self) -> Option<Pair> {
        self.state.next_pair()
    }
}

/// Driver state of one scatter-gather merge, usable both as a one-shot
/// evaluation (drain it) and as a progressive stream (pull pairs).
struct MergeState<'e> {
    engine: &'e ShardedEngine,
    shards: Vec<GreedyProbe<'e>>,
    /// Last gathered candidate per shard. For a stale shard the stored
    /// score doubles as the shard's upper bound (per-shard best scores
    /// are non-increasing over assignments).
    candidates: Vec<Option<Pair>>,
    /// Shards whose cached candidate may have changed since gathering.
    stale: Vec<bool>,
    /// Shards whose skyline drained — they can never produce candidates
    /// again and are excluded from refreshes.
    exhausted: Vec<bool>,
    rounds: u64,
}

impl<'e> MergeState<'e> {
    /// Build and probe every shard. A `seed` taken at the engine's
    /// current version vector primes every shard from its part (each
    /// probe re-checks its component against the epoch it pins);
    /// otherwise every shard runs cold and, when `capture` is set,
    /// reports its BBS snapshot. The assembled [`EvalSeed`] is returned
    /// only if *every* shard captured — a partial seed cannot resume a
    /// whole evaluation.
    fn new_seeded(
        engine: &'e ShardedEngine,
        functions: &FunctionSet,
        options: &RequestOptions,
        seed: Option<&EvalSeed>,
        capture: bool,
    ) -> (MergeState<'e>, Option<EvalSeed>) {
        let k = engine.shards.len();
        let seed = seed.filter(|s| s.parts.len() == k && s.usable_at(&engine.version_vector()));
        let capture = capture && seed.is_none();
        let mut captures: Vec<Option<(SkylineMaintainer, u64)>> = (0..k).map(|_| None).collect();
        let mut shards: Vec<Option<GreedyProbe<'e>>> = (0..k).map(|_| None).collect();
        let mut candidates: Vec<Option<Pair>> = vec![None; k];
        if k == 1 {
            let mut probe = GreedyProbe::new(
                &engine.shards[0],
                functions,
                options,
                seed.map(|s| (&s.parts[0], s.versions[0])),
                capture.then_some(&mut captures[0]),
            );
            candidates[0] = probe.probe();
            shards[0] = Some(probe);
        } else {
            // Initial scatter: build and probe every shard in parallel
            // (the expensive round — later rounds refresh only the
            // shards an assignment touched).
            std::thread::scope(|scope| {
                for ((((slot, cand), shard), cap), i) in shards
                    .iter_mut()
                    .zip(candidates.iter_mut())
                    .zip(&engine.shards)
                    .zip(captures.iter_mut())
                    .zip(0..)
                {
                    let part = seed.map(|s| (&s.parts[i], s.versions[i]));
                    scope.spawn(move || {
                        let mut probe = GreedyProbe::new(
                            shard,
                            functions,
                            options,
                            part,
                            capture.then_some(cap),
                        );
                        *cand = probe.probe();
                        *slot = Some(probe);
                    });
                }
            });
        }
        let shards: Vec<GreedyProbe<'e>> = shards
            .into_iter()
            .map(|s| s.expect("every shard probed"))
            .collect();
        let captured = if capture && captures.iter().all(Option::is_some) {
            let (parts, versions): (Vec<SkylineMaintainer>, Vec<u64>) = captures
                .into_iter()
                .map(|c| c.expect("just checked"))
                .unzip();
            Some(EvalSeed { versions, parts })
        } else {
            None
        };
        let exhausted: Vec<bool> = candidates.iter().map(Option::is_none).collect();
        (
            MergeState {
                engine,
                shards,
                candidates,
                stale: vec![false; k],
                exhausted,
                rounds: 0,
            },
            captured,
        )
    }

    /// Resolve and emit the next globally best pair, or `None` when the
    /// matching is complete.
    fn next_pair(&mut self) -> Option<Pair> {
        if self.shards.is_empty() || self.shards[0].functions_exhausted() {
            return None;
        }
        let k = self.shards.len();
        // Gather/merge loop: the best *fresh* candidate is the winner
        // once every stale shard either re-probed or was pruned by its
        // bound. A stale shard's previous candidate score bounds
        // everything it can still produce, so `bound < winner.score`
        // (strictly — an equal score could still win the fid/oid
        // tie-break) proves the shard irrelevant this round.
        let winner = loop {
            let best = self
                .candidates
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.stale[*i])
                .filter_map(|(_, c)| *c)
                .fold(None, |acc: Option<Pair>, c| match acc {
                    Some(b) if !c.beats(&b) => Some(b),
                    _ => Some(c),
                });
            let mut refreshed = false;
            for i in 0..k {
                if !self.stale[i] || self.exhausted[i] {
                    continue;
                }
                let pruned = match (&self.candidates[i], &best) {
                    (Some(c), Some(w)) => c.score < w.score,
                    _ => false,
                };
                if pruned {
                    self.engine.skipped.fetch_add(1, AtomicOrdering::Relaxed);
                    continue;
                }
                self.candidates[i] = self.shards[i].probe();
                if self.candidates[i].is_none() {
                    self.exhausted[i] = true;
                }
                self.stale[i] = false;
                refreshed = true;
            }
            if !refreshed {
                break best;
            }
        };
        let pair = winner?;
        self.rounds += 1;
        // Broadcast the assignment; shards whose cached candidate used
        // the retired function — and the owner — must re-probe before
        // their candidate competes again.
        for i in 0..k {
            let owned = self.shards[i].assign(&pair);
            let fid_hit = self.candidates[i].is_some_and(|c| c.fid == pair.fid);
            if (owned || fid_hit) && !self.exhausted[i] {
                self.stale[i] = true;
            }
        }
        Some(pair)
    }

    /// Per-shard I/O, reverse top-1 searches and phase times since the
    /// probes were built, summed over the shards.
    fn shard_totals(&self) -> RunMetrics {
        let shards = self.shards.iter().map(GreedyProbe::metrics);
        shards.fold(RunMetrics::default(), |sum, m| RunMetrics {
            io: sum.io + m.io,
            reverse_top1_calls: sum.reverse_top1_calls + m.reverse_top1_calls,
            discover: sum.discover + m.discover,
            maintain: sum.maintain + m.maintain,
            ..sum
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_datagen::WorkloadBuilder;

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
        let p = HashPartitioner;
        for oid in 0..500u64 {
            for k in [1usize, 2, 4, 8] {
                let s = p.shard_of(oid, &[0.5, 0.5], k);
                assert!(s < k);
                assert_eq!(s, p.shard_of(oid, &[0.1, 0.9], k), "point-independent");
            }
        }
    }

    #[test]
    fn grid_partitioner_slices_the_axis() {
        let p = GridPartitioner { axis: 0 };
        assert_eq!(p.shard_of(0, &[0.0, 0.5], 4), 0);
        assert_eq!(p.shard_of(0, &[0.99, 0.5], 4), 3);
        assert_eq!(p.shard_of(0, &[1.0, 0.5], 4), 3, "1.0 clamps into range");
        assert_eq!(p.shard_of(1, &[0.3, 0.5], 1), 0);
    }

    #[test]
    fn partitioner_ids_round_trip() {
        for p in [
            Box::new(HashPartitioner) as Box<dyn Partitioner>,
            Box::new(GridPartitioner { axis: 2 }),
        ] {
            let rebuilt = partitioner_from_id(&p.id()).unwrap();
            for oid in 0..64u64 {
                let pt = [0.25, 0.5, 0.75];
                assert_eq!(p.shard_of(oid, &pt, 8), rebuilt.shard_of(oid, &pt, 8));
            }
        }
        assert!(partitioner_from_id("mystery").is_err());
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
    fn grid_partitioner_matches_too() {
        let (objects, functions) = workload(180, 16, 23);
        let unsharded = Engine::builder().objects(&objects).build().unwrap();
        let want = unsharded
            .request(&functions)
            .evaluate()
            .unwrap()
            .sorted_pairs();
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .partitioner(Arc::new(GridPartitioner { axis: 1 }))
            .build()
            .unwrap();
        assert_eq!(sharded.evaluate(&functions).unwrap().sorted_pairs(), want);
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
    fn skipped_shard_counter_advances_on_pruning() {
        let (objects, functions) = workload(400, 32, 53);
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(8)
            .build()
            .unwrap();
        sharded.evaluate(&functions).unwrap();
        // Not guaranteed for adversarial inputs, but on a random
        // workload with 8 shards and 32 rounds some shard must lose a
        // round by a strict margin.
        assert!(
            sharded.skipped_shards() > 0,
            "bound pruning never skipped a probe"
        );
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
