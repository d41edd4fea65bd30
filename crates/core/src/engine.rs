//! The long-lived matching engine: build the object index **once**,
//! evaluate many requests against it.
//!
//! The paper's motivating deployment (§I) is a reservation site where
//! preference-query batches arrive continuously against one persistent
//! inventory. A one-shot matcher call that bulk-loads a private R-tree
//! makes serving N requests pay N index builds, and nothing can be
//! shared across threads. [`Engine`] inverts that: [`Engine::builder`]
//! validates the object set and bulk-loads the R-tree exactly once
//! (observable via
//! [`crate::matching::index_build_count`]); evaluation then goes through
//! [`MatchRequest`]s that read the shared index without mutating it, so
//! any number of requests — also concurrently from multiple threads —
//! can target one engine.
//!
//! Per-request cost accounting stays exact under sharing because every
//! evaluation reads the tree through its own run-scoped
//! [`mpq_rtree::IoSession`]: the
//! [`RunMetrics::io`](crate::RunMetrics::io) of one request contains
//! precisely the page traffic that request caused.
//!
//! ```
//! use mpq_core::{Algorithm, Engine};
//! use mpq_rtree::PointSet;
//! use mpq_ta::FunctionSet;
//!
//! let mut objects = PointSet::new(2);
//! for p in [[0.9_f64, 0.2], [0.2, 0.9], [0.7, 0.7], [0.5, 0.4]] {
//!     objects.push(&p);
//! }
//! let engine = Engine::builder().objects(&objects).build().unwrap();
//!
//! let functions = FunctionSet::from_rows(2, &[vec![0.8, 0.2], vec![0.2, 0.8]]);
//! let sb = engine.request(&functions).evaluate().unwrap();
//! let bf = engine
//!     .request(&functions)
//!     .algorithm(Algorithm::BruteForce)
//!     .evaluate()
//!     .unwrap();
//! assert_eq!(sb.sorted_pairs(), bf.sorted_pairs());
//! ```

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpq_rtree::bulk::MAX_BULK_LEN;
use mpq_rtree::{
    DiskPager, FaultInjector, FaultPageStore, IoSession, IoStats, MemPager, PageStore, PointSet,
    RTree,
};
use mpq_ta::FunctionSet;

use crate::backend::{evaluate_batch_on, EvalBackend};
use crate::brute_force::{run_incremental_on, run_restart_on, BfStrategy};
use crate::cache::{MutationEvent, MutationLog};
use crate::chain::run_chain_on;
use crate::error::MpqError;
use crate::matching::{IndexConfig, Matching, Pair};
use crate::objects::{Cut, ObjectTable};
use crate::sb::{
    run_rescan_on, run_sb_seeded, stream_on, BestPairMode, MaintenanceMode, SbRun, SbStream,
};
use crate::scratch::Scratch;
use crate::seed::EvalSeed;
use crate::service::{lock, safe_rate, EngineService, ServiceConfig};
use crate::shard::ShardedEngine;
use crate::wal::{Wal, WalRecord};

/// Page file name inside an engine's data directory.
const PAGE_FILE: &str = "pages.mpq";
/// Write-ahead log file name inside an engine's data directory.
const WAL_FILE: &str = "wal.mpq";

/// Which stable-matching algorithm a [`MatchRequest`] runs.
///
/// All three produce the identical matching (the canonical tie-broken
/// stable assignment); they differ in cost profile. `Sb` is the paper's
/// contribution and the right default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Skyline-based matching (§III-B/§IV) — the paper's algorithm.
    #[default]
    Sb,
    /// Per-function top-1 queries with lazy invalidation (§III-A).
    BruteForce,
    /// Chains of alternating top-1 searches (adapted competitor, §V).
    Chain,
}

impl Algorithm {
    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Sb => "SB",
            Algorithm::BruteForce => "BruteForce",
            Algorithm::Chain => "Chain",
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Accepts the CLI spellings: `sb`, `bf`/`brute-force`, `chain`.
    fn from_str(s: &str) -> Result<Algorithm, String> {
        match s.to_ascii_lowercase().as_str() {
            "sb" | "skyline" => Ok(Algorithm::Sb),
            "bf" | "brute-force" | "bruteforce" => Ok(Algorithm::BruteForce),
            "chain" => Ok(Algorithm::Chain),
            other => Err(format!(
                "unknown algorithm '{other}' (expected sb, bf or chain)"
            )),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builder for [`Engine`]: configure the index, validate the inventory,
/// bulk-load once.
#[derive(Debug, Default)]
pub struct EngineBuilder<'o> {
    index: IndexConfig,
    objects: Option<&'o PointSet>,
    buffer_shards: Option<usize>,
    data_dir: Option<PathBuf>,
    fault_injector: Option<Arc<FaultInjector>>,
}

impl<'o> EngineBuilder<'o> {
    /// Index construction/buffering parameters (defaults follow the
    /// paper: 4 KiB pages, LRU buffer at 2% of the tree).
    pub fn index(mut self, config: IndexConfig) -> EngineBuilder<'o> {
        self.index = config;
        self
    }

    /// The object inventory to index. Points are copied into the index;
    /// the set does not need to outlive the engine.
    pub fn objects(mut self, objects: &'o PointSet) -> EngineBuilder<'o> {
        self.objects = Some(objects);
        self
    }

    /// Split the shared LRU buffer into `shards` lock shards so
    /// concurrent evaluations on distinct pages stop contending on one
    /// mutex (see the `mpq_rtree::buffer` docs). A good value is the
    /// thread count passed to [`Engine::evaluate_batch`]. Clamped to
    /// `[1, buffer capacity]` so every shard caches at least one page.
    ///
    /// Default: 1 shard — the classic single LRU of the paper's
    /// experiments, with bit-identical eviction order and I/O counts.
    pub fn buffer_shards(mut self, shards: usize) -> EngineBuilder<'o> {
        self.buffer_shards = Some(shards);
        self
    }

    /// Persist the engine under `dir`: index pages go to a disk-backed
    /// pager (`pages.mpq`) and every mutation is logged to a write-ahead
    /// log (`wal.mpq`) before it is applied, so the engine survives a
    /// restart — reopen it with [`Engine::open`]. The directory is
    /// created if missing; any files from a previous engine in it are
    /// overwritten.
    pub fn data_dir(mut self, dir: impl AsRef<Path>) -> EngineBuilder<'o> {
        self.data_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Route every durability operation of this engine — page writes,
    /// page/header fsyncs, WAL appends and WAL fsyncs — through
    /// `injector`, so tests and the chaos harness can fail them on a
    /// deterministic schedule (see [`FaultInjector`]). Applies to both
    /// in-memory engines (the pager is wrapped in a
    /// [`FaultPageStore`]) and disk-backed engines (the
    /// [`DiskPager`] and [`Wal`] consult the injector natively). Zero
    /// cost when not called.
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> EngineBuilder<'o> {
        self.fault_injector = Some(injector);
        self
    }

    /// Validate the inventory and bulk-load the object R-tree (exactly
    /// once for the engine's lifetime).
    ///
    /// Validation happens before the bulk load: an empty set, a NaN or
    /// infinite coordinate, or a coordinate outside the `[0, 1]`
    /// preference space is reported as an [`MpqError`] — the first bad
    /// object in id order — without paying for index construction or
    /// creating a file.
    pub fn build(self) -> Result<Engine, MpqError> {
        let objects = self.objects.ok_or(MpqError::EmptyObjects)?;
        let mut engines = build_engines(vec![self], objects, |_| 0)?;
        Ok(engines.pop().expect("one builder, one engine"))
    }

    /// Create the store the engine keeps its pages in: a fresh page file
    /// under [`EngineBuilder::data_dir`], else memory.
    fn create_store(&self) -> Result<Box<dyn PageStore>, MpqError> {
        let page_size = self.index.page_size;
        Ok(match (&self.data_dir, &self.fault_injector) {
            (None, None) => Box::new(MemPager::new(page_size)),
            (None, Some(inj)) => Box::new(FaultPageStore::new(
                MemPager::new(page_size),
                Arc::clone(inj),
            )),
            (Some(dir), inj) => {
                std::fs::create_dir_all(dir)?;
                let mut store = DiskPager::create(&dir.join(PAGE_FILE), page_size)?;
                if let Some(inj) = inj {
                    store.attach_injector(Arc::clone(inj));
                }
                Box::new(store)
            }
        })
    }

    /// The engine over `tree`, bulk-loaded into [`create_store`]'s store
    /// from the objects `table` holds.
    ///
    /// [`create_store`]: EngineBuilder::create_store
    fn finish(self, mut tree: RTree, table: ObjectTable) -> Result<Engine, MpqError> {
        if let Some(shards) = self.buffer_shards {
            tree.set_buffer_shards(shards.clamp(1, tree.buffer_capacity()));
        }
        let wal = match &self.data_dir {
            None => None,
            Some(dir) => {
                // A fresh build supersedes whatever a previous engine
                // left in the directory: discard any stale WAL tail and
                // commit the bulk-loaded tree as checkpoint zero.
                let (mut wal, _stale) = Wal::open(&dir.join(WAL_FILE))?;
                if let Some(inj) = &self.fault_injector {
                    wal.set_injector(Arc::clone(inj));
                }
                wal.truncate()?;
                tree.checkpoint(&checkpoint_extra(0, table.bound()))?;
                Some(Mutex::new(wal))
            }
        };
        Ok(Engine {
            dim: tree.dim(),
            config: self.index,
            tree,
            objects: Mutex::new(table),
            version: AtomicU64::new(NEXT_INVENTORY_VERSION.fetch_add(1, AtomicOrdering::Relaxed)),
            evaluations: AtomicU64::new(0),
            mutations: MutationLog::default(),
            wal,
            data_dir: self.data_dir,
            mutator: Mutex::new(()),
            degraded: AtomicBool::new(false),
            injector: self.fault_injector,
        })
    }

    /// Open or build the backend that hosts this inventory — the one
    /// place that decides which engine does. An inventory already
    /// persisted under [`EngineBuilder::data_dir`] is **reopened** (WAL
    /// replay included), its on-disk layout being authoritative: a
    /// `shards.mpq` manifest reopens a [`ShardedEngine`] whatever
    /// `shards` says, a bare page file an [`Engine`]. Otherwise the
    /// inventory is built from [`EngineBuilder::objects`]: `shards == 1`
    /// builds an [`Engine`] (a 1-shard [`ShardedEngine`] would run SB
    /// identically, but only a bare engine also hosts Brute Force, Chain
    /// and SB-rescan), any other count a hash-partitioned
    /// [`ShardedEngine`] (`0` is rejected). A
    /// [`EngineBuilder::fault_injector`] is refused wherever shards
    /// would host the inventory, reopened or built: no shard consults
    /// one. [`EngineBuilder::buffer_shards`]
    /// applies to a freshly built [`Engine`] only (every shard already
    /// has a buffer pool of its own).
    pub fn open_or_build(self, shards: usize) -> Result<Arc<dyn EvalBackend>, MpqError> {
        // No shard consults an injector, reopened or built.
        let no_injector = || match self.fault_injector {
            None => Ok(()),
            Some(_) => Err(MpqError::UnsupportedRequest(
                "fault injection is only supported on an unsharded engine",
            )),
        };
        if let Some(dir) = &self.data_dir {
            if ShardedEngine::persisted_at(dir) {
                no_injector()?;
                return Ok(Arc::new(ShardedEngine::open_with(dir, self.index)?));
            }
            if Engine::persisted_at(dir) {
                let engine = Engine::open_inner(dir, self.index, self.fault_injector, false)?;
                return Ok(Arc::new(engine));
            }
            if self.objects.is_none() {
                return Err(MpqError::UnsupportedRequest(
                    "no persisted inventory at data_dir and no objects given",
                ));
            }
        }
        if shards == 1 {
            return Ok(Arc::new(self.build()?));
        }
        no_injector()?;
        let mut sharded = ShardedEngine::builder().index(self.index).shards(shards);
        if let Some(objects) = self.objects {
            sharded = sharded.objects(objects);
        }
        if let Some(dir) = self.data_dir {
            sharded = sharded.data_dir(dir);
        }
        Ok(Arc::new(sharded.build()?))
    }
}

/// Build one engine per builder of `builders` over `objects` cut that
/// many ways: engine `j` holds the objects `part_of` sends to `j`, under
/// their indices in `objects` — the one build path, of an [`Engine`] (one
/// part) and of a sharded engine's shards alike. The inventory is
/// validated whole and first ([`Cut::new`]), so an invalid one
/// creates no file; the index configuration is the first builder's, and
/// no builder's [`EngineBuilder::objects`] is consulted. A part may be
/// empty.
pub(crate) fn build_engines(
    builders: Vec<EngineBuilder<'_>>,
    objects: &PointSet,
    part_of: impl Fn(u64) -> usize + Sync,
) -> Result<Vec<Engine>, MpqError> {
    let mut cut = Cut::new(objects, builders.len(), part_of)?;
    let stores = (builders.iter())
        .map(EngineBuilder::create_store)
        .collect::<Result<Vec<_>, _>>()?;
    let trees = builders[0]
        .index
        .build_trees_in(stores, objects, &mut cut.keys, &cut.bounds);
    (builders.into_iter().zip(trees).zip(cut.into_tables()))
        .map(|((builder, tree), table)| builder.finish(tree, table))
        .collect()
}

/// The tiler packs item indices into 32 bits, so one bulk load takes at
/// most `u32::MAX` objects; a larger inventory is refused here rather
/// than wrapped there.
pub(crate) fn check_inventory_len(n: usize) -> Result<(), MpqError> {
    if n > MAX_BULK_LEN {
        return Err(MpqError::TooManyObjects {
            got: n,
            max: MAX_BULK_LEN,
        });
    }
    Ok(())
}

/// What a checkpoint records beside the tree: the WAL sequence number
/// it covers and the id bound, so a reopen replays only what follows
/// and never mints a removed object's id again.
fn checkpoint_extra(seq: u64, oid_bound: u64) -> [u8; 16] {
    let mut extra = [0u8; 16];
    extra[..8].copy_from_slice(&seq.to_le_bytes());
    extra[8..].copy_from_slice(&oid_bound.to_le_bytes());
    extra
}

/// Read little-endian field `i` of a checkpoint's extra bytes; `None`
/// where an older file stops short of it.
fn extra_field(extra: &[u8], i: usize) -> Option<u64> {
    let bytes = extra.get(8 * i..8 * i + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

/// Shared point validation for the bulk build path and the incremental
/// mutation path: the preference space is `[0, 1]^dim` with finite
/// coordinates everywhere.
pub(crate) fn validate_point(oid: u64, dim: usize, p: &[f64]) -> Result<(), MpqError> {
    if p.len() != dim {
        return Err(MpqError::PointDimensionMismatch {
            engine: dim,
            point: p.len(),
        });
    }
    for (d, &v) in p.iter().enumerate() {
        if !v.is_finite() {
            return Err(MpqError::NonFiniteCoordinate {
                oid,
                dim: d,
                value: v,
            });
        }
        if !(0.0..=1.0).contains(&v) {
            return Err(MpqError::CoordinateOutOfRange {
                oid,
                dim: d,
                value: v,
            });
        }
    }
    Ok(())
}

/// Process-global inventory version source: every built engine — and
/// every committed mutation — gets a distinct, monotonically increasing
/// stamp (starting at 1 so 0 can serve as a "no engine" sentinel in
/// caller code). The stamp is what makes a
/// [`ResultCache`](crate::ResultCache) entry safe across engine rebuilds
/// *and* in-place mutations: results computed against inventory version
/// *v* are only served to lookups against the same *v*, unless the
/// engine's [`MutationLog`] proves every intervening mutation irrelevant
/// to the entry.
static NEXT_INVENTORY_VERSION: AtomicU64 = AtomicU64::new(1);

/// A prepared matching engine: one validated, bulk-loaded object index
/// serving any number of [`MatchRequest`]s.
///
/// `Engine` is `Sync`: share it behind an `Arc` (or plain borrows with
/// scoped threads) and evaluate requests concurrently. Evaluation never
/// mutates the index — assigned objects are masked per run, not deleted
/// — so requests cannot observe each other.
pub struct Engine {
    dim: usize,
    config: IndexConfig,
    tree: RTree,
    /// The live inventory by object id. Mirrors the R-tree's leaf
    /// entries; the table is what gives mutations O(log n) point lookup
    /// and what recovery replays the WAL against. It also owns the id
    /// bound: ids at or above it have never been assigned, ids below it
    /// may have been removed. Removal never recycles an id.
    objects: Mutex<ObjectTable>,
    /// Bumped on every mutation (see [`Engine::inventory_version`]).
    version: AtomicU64,
    /// Evaluations actually run against this engine (see
    /// [`Engine::evaluation_count`]).
    evaluations: AtomicU64,
    /// Recent mutations by version, for scoped cache invalidation.
    mutations: MutationLog,
    /// Write-ahead log; present iff the engine is disk-backed.
    wal: Option<Mutex<Wal>>,
    /// Data directory; present iff the engine is disk-backed.
    data_dir: Option<PathBuf>,
    /// Serializes mutations and checkpoints; readers never take it.
    mutator: Mutex<()>,
    /// Set when a durability failure left the WAL wedged: mutations are
    /// refused with [`MpqError::StorageDegraded`] until a successful
    /// [`Engine::checkpoint`] repairs the log. Reads are unaffected.
    degraded: AtomicBool,
    /// The fault injector every durability path consults, if one was
    /// attached at build/open time.
    injector: Option<Arc<FaultInjector>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("dim", &self.dim)
            .field("objects", &self.n_objects())
            .field("pages", &self.tree.page_count())
            .field("version", &self.inventory_version())
            .field("data_dir", &self.data_dir)
            .finish()
    }
}

impl Engine {
    /// Start building an engine.
    pub fn builder<'o>() -> EngineBuilder<'o> {
        EngineBuilder::default()
    }

    /// Dimensionality of the indexed preference space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed objects (live inventory after mutations).
    #[inline]
    pub fn n_objects(&self) -> usize {
        lock(&self.objects).len()
    }

    /// One past the highest object id ever assigned. Object ids are
    /// never recycled, so per-object vectors (capacities, exclusion
    /// bitmaps) sized to this bound cover every id the engine can
    /// report.
    #[inline]
    pub fn oid_bound(&self) -> u64 {
        lock(&self.objects).bound()
    }

    /// The point currently stored for `oid`, if the engine holds it.
    pub fn object_point(&self, oid: u64) -> Option<Box<[f64]>> {
        lock(&self.objects).get(oid).map(Box::from)
    }

    /// The engine's **inventory version**: a process-globally unique,
    /// monotonically increasing stamp assigned at build time and
    /// re-minted on every mutation. Two engines never share a version —
    /// even when built over identical objects — so a
    /// [`ResultCache`](crate::ResultCache) entry stamped with one
    /// engine's version can never be served against another engine's
    /// inventory, and an entry stamped before a mutation is stale unless
    /// the [`Engine::mutation_log`] proves the mutation could not have
    /// changed it (see [`ResultCache::get_with_logs`]).
    ///
    /// [`ResultCache::get_with_logs`]: crate::ResultCache::get_with_logs
    #[inline]
    pub fn inventory_version(&self) -> u64 {
        self.version.load(AtomicOrdering::Acquire)
    }

    /// The engine's recent-mutation log: every mutation records its
    /// event under the version stamp it minted, which is what lets a
    /// [`ResultCache`](crate::ResultCache) revalidate entries that a
    /// mutation provably did not affect instead of flushing wholesale.
    #[inline]
    pub fn mutation_log(&self) -> &MutationLog {
        &self.mutations
    }

    /// The data directory the engine persists under, if disk-backed.
    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// Does `dir` hold a persisted engine — i.e. would [`Engine::open`]
    /// have a page file to load? Lets callers (the CLI's
    /// `serve --data-dir`) decide between opening and building fresh
    /// without hard-coding the on-disk file names.
    pub fn persisted_at(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(PAGE_FILE).is_file()
    }

    /// Current size of the write-ahead log in bytes (0 for an in-memory
    /// engine). Grows with every mutation; drops back to zero at a
    /// [`Engine::checkpoint`].
    pub fn wal_bytes(&self) -> u64 {
        match &self.wal {
            None => 0,
            Some(wal) => lock(wal).len_bytes(),
        }
    }

    /// How many evaluations have actually run against this engine —
    /// cache hits and dedupe attaches do **not** count, which is exactly
    /// what makes this the observable for "N identical submissions paid
    /// one evaluation" assertions (see `tests/cache.rs`).
    #[inline]
    pub fn evaluation_count(&self) -> u64 {
        self.evaluations.load(AtomicOrdering::Relaxed)
    }

    /// The shared object R-tree (read-only access; engine evaluation
    /// never mutates it).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Reopen a persistent engine from `dir` with the default
    /// [`IndexConfig`] (shorthand for [`Engine::open_with`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<Engine, MpqError> {
        Engine::open_with(dir, IndexConfig::default())
    }

    /// Reopen a persistent engine from the `pages.mpq` + `wal.mpq` pair
    /// under `dir`, created earlier by [`EngineBuilder::data_dir`].
    ///
    /// Recovery loads the last checkpointed tree image, then **replays**
    /// every intact WAL record past the checkpoint's high-water mark —
    /// a torn tail (crash mid-append) is discarded at the first corrupt
    /// frame, so the engine reopens to the last fully-synced mutation.
    /// The reopened engine serves matchings bit-identical to a freshly
    /// built engine over the same surviving inventory.
    ///
    /// `config.page_size` must equal the page size the directory was
    /// created with; the buffer is re-sized from `config` (buffer
    /// geometry is a runtime choice, not persistent state).
    pub fn open_with(dir: impl AsRef<Path>, config: IndexConfig) -> Result<Engine, MpqError> {
        Engine::open_inner(dir.as_ref(), config, None, false)
    }

    /// Reopen one shard of a partitioned engine: like
    /// [`Engine::open_with`], but an empty recovered inventory is legal
    /// (a shard can hold zero objects; the sharded engine enforces the
    /// global non-empty contract itself).
    pub(crate) fn open_shard(dir: &Path, config: IndexConfig) -> Result<Engine, MpqError> {
        Engine::open_inner(dir, config, None, true)
    }

    fn open_inner(
        dir: &Path,
        config: IndexConfig,
        injector: Option<Arc<FaultInjector>>,
        allow_empty: bool,
    ) -> Result<Engine, MpqError> {
        let mut store = DiskPager::open(&dir.join(PAGE_FILE), config.page_size)?;
        if let Some(inj) = &injector {
            store.attach_injector(Arc::clone(inj));
        }
        let (tree, extra) = RTree::open(store, config.min_buffer_pages.max(1))?;
        tree.set_buffer_capacity(config.buffer_pages_for(tree.page_count()));
        let ckpt_seq = extra_field(&extra, 0).unwrap_or(0);

        let (mut wal, records) = Wal::open(&dir.join(WAL_FILE))?;
        if let Some(inj) = &injector {
            wal.set_injector(Arc::clone(inj));
        }
        // A checkpoint truncates the WAL but sequence numbers must stay
        // monotonic across it, or replayed records could collide with
        // the checkpoint's high-water mark after the *next* crash.
        wal.ensure_next_seq(ckpt_seq + 1);

        // The header's count sizes the columns, capped by what the
        // pages could hold in case it is wrong.
        let n = (tree.len() as usize).min(tree.page_count() * tree.leaf_capacity());
        let mut oids = Vec::with_capacity(n);
        let mut coords = Vec::with_capacity(n * tree.dim());
        tree.for_each_point(|oid, p| {
            oids.push(oid);
            coords.extend_from_slice(p);
        });
        let mut objects = ObjectTable::from_columns(tree.dim(), oids, coords);
        // A file written before the bound was checkpointed stops after
        // the sequence number: the live ids are then all there is to go
        // by, as they were for the engine that wrote it.
        objects.raise_bound(extra_field(&extra, 1).unwrap_or(0));
        for (seq, rec) in records {
            if let WalRecord::Insert { oid, .. } = &rec {
                // Even a record the checkpoint already covers, or whose
                // object a later record removes, spent its id.
                objects.raise_bound(oid.saturating_add(1));
            }
            if seq <= ckpt_seq {
                continue; // already part of the checkpointed image
            }
            match rec {
                WalRecord::Insert { oid, point } => {
                    tree.insert(&point, oid);
                    objects.insert(oid, &point);
                }
                WalRecord::Remove { oid, point } => {
                    tree.delete(&point, oid);
                    objects.remove(oid);
                }
                WalRecord::Update { oid, old, new } => {
                    tree.delete(&old, oid);
                    tree.insert(&new, oid);
                    objects.insert(oid, &new);
                }
            }
        }
        if objects.is_empty() && !allow_empty {
            return Err(MpqError::EmptyObjects);
        }
        Ok(Engine {
            dim: tree.dim(),
            config,
            tree,
            objects: Mutex::new(objects),
            version: AtomicU64::new(NEXT_INVENTORY_VERSION.fetch_add(1, AtomicOrdering::Relaxed)),
            evaluations: AtomicU64::new(0),
            mutations: MutationLog::default(),
            wal: Some(Mutex::new(wal)),
            data_dir: Some(dir.to_path_buf()),
            mutator: Mutex::new(()),
            degraded: AtomicBool::new(false),
            injector,
        })
    }

    /// Insert a new object, returning its assigned id (ids are handed
    /// out monotonically and never recycled).
    ///
    /// The mutation is durable before it is visible: on a disk-backed
    /// engine the WAL record is appended and fsynced first, then the
    /// R-tree is updated in place (copy-on-write — in-flight evaluations
    /// keep reading their pinned epoch), and only then does
    /// [`Engine::inventory_version`] advance.
    pub fn insert_object(&self, point: &[f64]) -> Result<u64, MpqError> {
        let _m = lock(&self.mutator);
        self.check_storage()?;
        let oid = self.oid_bound();
        validate_point(oid, self.dim, point)?;
        self.log_wal(&WalRecord::Insert {
            oid,
            point: Box::from(point),
        })?;
        self.tree.insert(point, oid);
        lock(&self.objects).insert(oid, point);
        self.commit_mutation(MutationEvent::Insert {
            oid,
            point: Arc::from(point),
        });
        Ok(oid)
    }

    /// Insert an object under a caller-chosen id instead of minting one.
    /// Shard-internal: the sharded engine mints global oids and routes
    /// each insert to exactly one shard, which must index the global id
    /// verbatim. Fails if the shard already holds `oid`.
    pub(crate) fn insert_object_at(&self, oid: u64, point: &[f64]) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        self.check_storage()?;
        validate_point(oid, self.dim, point)?;
        if lock(&self.objects).contains(oid) {
            return Err(MpqError::UnsupportedRequest(
                "explicit-oid insert would overwrite an existing object",
            ));
        }
        self.log_wal(&WalRecord::Insert {
            oid,
            point: Box::from(point),
        })?;
        self.tree.insert(point, oid);
        lock(&self.objects).insert(oid, point);
        self.commit_mutation(MutationEvent::Insert {
            oid,
            point: Arc::from(point),
        });
        Ok(())
    }

    /// Remove an object from the inventory.
    ///
    /// Fails with [`MpqError::UnknownObject`] if the engine does not
    /// hold `oid`, and refuses to empty the inventory entirely (an
    /// engine over zero objects violates the build-time contract; build
    /// a new engine instead).
    pub fn remove_object(&self, oid: u64) -> Result<(), MpqError> {
        self.remove_object_inner(oid, false)
    }

    /// Remove an object, allowing the shard to go empty. Shard-internal:
    /// the sharded engine enforces the global "never empty the
    /// inventory" rule across all shards, so one shard draining to zero
    /// objects is legal.
    pub(crate) fn remove_object_allow_empty(&self, oid: u64) -> Result<(), MpqError> {
        self.remove_object_inner(oid, true)
    }

    fn remove_object_inner(&self, oid: u64, allow_empty: bool) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        self.check_storage()?;
        let point = {
            let objects = lock(&self.objects);
            if !allow_empty && objects.len() == 1 && objects.contains(oid) {
                return Err(MpqError::UnsupportedRequest(
                    "removing the last object would empty the inventory",
                ));
            }
            objects
                .get(oid)
                .map(Box::<[f64]>::from)
                .ok_or(MpqError::UnknownObject { oid })?
        };
        self.log_wal(&WalRecord::Remove {
            oid,
            point: point.clone(),
        })?;
        let removed = self.tree.delete(&point, oid);
        debug_assert!(removed, "object map and tree disagree on oid {oid}");
        lock(&self.objects).remove(oid);
        self.commit_mutation(MutationEvent::Remove { oid });
        Ok(())
    }

    /// Move an existing object to a new point (same id, new
    /// coordinates): a single logical mutation — one WAL record, one
    /// version bump — implemented as delete + re-insert on the index.
    pub fn update_object(&self, oid: u64, point: &[f64]) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        self.check_storage()?;
        validate_point(oid, self.dim, point)?;
        let old = lock(&self.objects)
            .get(oid)
            .map(Box::<[f64]>::from)
            .ok_or(MpqError::UnknownObject { oid })?;
        self.log_wal(&WalRecord::Update {
            oid,
            old: old.clone(),
            new: Box::from(point),
        })?;
        let removed = self.tree.delete(&old, oid);
        debug_assert!(removed, "object map and tree disagree on oid {oid}");
        self.tree.insert(point, oid);
        lock(&self.objects).insert(oid, point);
        self.commit_mutation(MutationEvent::Update {
            oid,
            point: Arc::from(point),
        });
        Ok(())
    }

    /// Refuse mutations while the storage is degraded (a failed WAL
    /// rollback left the log wedged). Cleared by a successful
    /// [`Engine::checkpoint`].
    fn check_storage(&self) -> Result<(), MpqError> {
        if self.degraded.load(AtomicOrdering::Acquire) {
            return Err(MpqError::StorageDegraded);
        }
        Ok(())
    }

    /// True while the engine refuses mutations after an unrepaired
    /// durability failure (see [`MpqError::StorageDegraded`]). Reads
    /// keep serving the last committed snapshot throughout.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(AtomicOrdering::Acquire)
    }

    /// The fault injector attached at build/open time, if any — lets
    /// harness code schedule faults through the engine handle it
    /// already holds.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Durably append a WAL record (no-op for in-memory engines). Called
    /// with the mutator lock held, *before* the in-memory state changes:
    /// if the append or fsync fails, the record is rolled back off the
    /// log and the mutation is reported as [`MpqError::Io`] without
    /// having been applied. If even the rollback fails, the WAL is
    /// wedged and the engine flips to degraded: further mutations are
    /// refused with [`MpqError::StorageDegraded`] until a successful
    /// [`Engine::checkpoint`] truncates (and thereby repairs) the log.
    fn log_wal(&self, rec: &WalRecord) -> Result<(), MpqError> {
        if let Some(wal) = &self.wal {
            let mut wal = lock(wal);
            if let Err(e) = wal.append_sync(rec) {
                if wal.is_wedged() {
                    self.degraded.store(true, AtomicOrdering::Release);
                }
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Publish a committed mutation: record the event under a freshly
    /// minted version stamp, then advance the engine's version. The
    /// order matters — once a reader observes the new version, the log
    /// already holds every event up to it.
    fn commit_mutation(&self, event: MutationEvent) {
        let v = NEXT_INVENTORY_VERSION.fetch_add(1, AtomicOrdering::Relaxed);
        self.mutations.record(v, event);
        self.version.store(v, AtomicOrdering::Release);
    }

    /// Checkpoint a disk-backed engine: flush every dirty page, durably
    /// commit the current tree epoch (with the WAL high-water mark and
    /// the id bound) into the page file's header, then truncate the WAL. After a
    /// checkpoint, reopening replays nothing; between checkpoints, the
    /// WAL alone carries the delta. A no-op for in-memory engines.
    /// A successful checkpoint also repairs a degraded engine: the WAL
    /// truncation wipes any phantom record a failed rollback left
    /// behind, so mutations are accepted again.
    pub fn checkpoint(&self) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        match &self.wal {
            None => Ok(()),
            Some(wal) => {
                let mut wal = lock(wal);
                let extra = checkpoint_extra(wal.last_seq(), self.oid_bound());
                self.tree.checkpoint(&extra)?;
                wal.truncate()?;
                self.degraded.store(false, AtomicOrdering::Release);
                Ok(())
            }
        }
    }

    /// Cumulative storage-level I/O: the index's logical/physical page
    /// traffic plus, on a disk-backed engine, the real disk reads,
    /// writes and fsyncs of the pager and the WAL.
    pub fn storage_stats(&self) -> IoStats {
        let mut s = self.tree.io_stats();
        if let Some(wal) = &self.wal {
            let wal = lock(wal);
            s.disk_writes += wal.appends();
            s.fsyncs += wal.syncs();
        }
        s
    }

    /// Build a [`FunctionSet`] from raw weight rows, reporting malformed
    /// rows as [`MpqError::InvalidFunction`] instead of panicking.
    pub fn functions_from_rows(&self, rows: &[Vec<f64>]) -> Result<FunctionSet, MpqError> {
        FunctionSet::try_from_rows(self.dim, rows)
            .map_err(|(index, source)| MpqError::InvalidFunction { index, source })
    }

    /// Start a [`MatchRequest`] for `functions` with default options
    /// (SB algorithm, multi-pair reporting, no exclusions).
    pub fn request<'e, 'f>(&'e self, functions: &'f FunctionSet) -> MatchRequest<'e, 'f> {
        MatchRequest::new(self, functions)
    }

    /// Progressive SB evaluation with default options: stable pairs are
    /// yielded as soon as they are identified. Shorthand for
    /// [`MatchRequest::stream`].
    pub fn stream(&self, functions: &FunctionSet) -> Result<SbStream<IoSession<'_>>, MpqError> {
        self.request(functions).stream()
    }

    /// Start a long-lived [`EngineService`] over this engine — the
    /// blessed serving entry point: a worker pool behind a bounded
    /// submission queue, fed by cheap cloneable
    /// [`ServiceClient`](crate::service::ServiceClient) handles, so a
    /// network front-end can stream requests in as they arrive instead
    /// of pre-collecting synchronous batches. Shorthand for
    /// [`EngineService::spawn`].
    ///
    /// The engine must be in an [`Arc`] because the workers are real
    /// threads that outlive any borrow:
    ///
    /// ```
    /// # use std::sync::Arc;
    /// # use mpq_core::{Engine, ServiceConfig};
    /// # use mpq_rtree::PointSet;
    /// # use mpq_ta::FunctionSet;
    /// # let mut objects = PointSet::new(2);
    /// # for p in [[0.9_f64, 0.2], [0.2, 0.9], [0.7, 0.7]] { objects.push(&p); }
    /// let engine = Arc::new(Engine::builder().objects(&objects).build().unwrap());
    /// let service = engine.clone().serve(ServiceConfig::default().workers(2));
    /// let client = service.client();
    /// let functions = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
    /// let ticket = client.submit(client.backend().request(&functions)).unwrap();
    /// let matching = ticket.wait().unwrap();
    /// assert_eq!(matching.len(), 1);
    /// service.shutdown();
    /// ```
    pub fn serve(self: Arc<Self>, config: ServiceConfig) -> EngineService {
        EngineService::spawn(self, config)
    }

    /// Open a persistent [`MatchSession`]: batches submitted over time
    /// consume the inventory, and the incrementally-maintained skyline
    /// survives across batches (the paper's online deployment, §IV-B).
    pub fn session(&self) -> MatchSession<'_> {
        let io = IoSession::new(&self.tree);
        MatchSession {
            engine: self,
            // No batch yet: the run holds the skyline, `submit` loads
            // each batch's functions.
            run: SbRun::new(
                vec![io],
                Scratch::new(),
                &FunctionSet::new(self.dim),
                BestPairMode::Ta,
                |_| false,
                None,
                None,
            ),
            assigned: 0,
            batches: 0,
        }
    }

    /// Pin a run-scoped I/O session on the current epoch. The version is
    /// `Some` iff no mutation straddled the pin: versions are monotone
    /// and minted at commit, so equality on both sides proves the pinned
    /// tree *is* that version's epoch. Otherwise the epoch is ambiguous,
    /// and the run must decline seeds and capture nothing rather than
    /// guess.
    pub(crate) fn pin(&self) -> (IoSession<'_>, Option<u64>) {
        let before = self.inventory_version();
        let session = IoSession::new(&self.tree);
        let stable = self.inventory_version() == before;
        (session, stable.then_some(before))
    }

    /// Evaluate a slice of independent requests on a built-in scoped
    /// worker pool, returning the matchings **in input order** plus
    /// aggregated [`BatchMetrics`].
    ///
    /// This is a thin submit-all-then-wait wrapper over the same
    /// scheduling machinery that powers the long-lived [`EngineService`]
    /// — one code path decides which worker runs which request. The
    /// workers are scoped threads; each owns one persistent [`Scratch`]
    /// across its whole request stream, and every run reads the shared
    /// index through its own per-run [`IoSession`] — so every returned
    /// [`Matching::metrics`] still reports exactly its own run's I/O,
    /// and the result of every request is **identical to evaluating it
    /// sequentially** (each evaluation is deterministic and the index is
    /// never mutated; only buffer hit/miss counts feel the concurrency).
    ///
    /// `threads == 0` means "one worker per available core".
    ///
    /// For multi-core scaling pair this with
    /// [`EngineBuilder::buffer_shards`] (shards ≈ threads), otherwise
    /// every worker funnels through the buffer pool's single lock.
    ///
    /// If any request fails validation, the error of the first failing
    /// request (in input order) is returned before any evaluation work
    /// is spent.
    pub fn evaluate_batch(
        &self,
        requests: &[MatchRequest<'_, '_>],
        threads: usize,
    ) -> Result<BatchOutcome, MpqError> {
        evaluate_batch_on(self, requests, threads)
    }
}

impl EvalBackend for Engine {
    fn dim(&self) -> usize {
        self.dim
    }

    fn n_objects(&self) -> usize {
        Engine::n_objects(self)
    }

    fn oid_bound(&self) -> u64 {
        Engine::oid_bound(self)
    }

    fn page_count(&self) -> usize {
        self.tree.page_count()
    }

    fn wal_bytes(&self) -> u64 {
        Engine::wal_bytes(self)
    }

    fn version_vector(&self) -> Vec<u64> {
        vec![self.inventory_version()]
    }

    fn mutation_logs(&self) -> Vec<&MutationLog> {
        vec![&self.mutations]
    }

    fn storage_stats(&self) -> IoStats {
        Engine::storage_stats(self)
    }

    /// The single unsharded evaluation code path. The resumable
    /// configurations — SB with incremental maintenance, which every
    /// capacitated request is — are the 1-part case of
    /// `run_sb_seeded`, which honours `seed` / `capture`; the others
    /// decline both.
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
        let (session, version) = self.pin();
        Ok(match options.algorithm {
            Algorithm::Sb => match options.maintenance {
                MaintenanceMode::Incremental => {
                    let (sources, versions) = (vec![session], [version]);
                    run_sb_seeded(
                        sources, &versions, functions, options, scratch, seed, capture,
                    )
                }
                MaintenanceMode::Rescan => run_rescan_on(&session, functions, options, scratch),
            },
            Algorithm::BruteForce => match options.bf_strategy {
                BfStrategy::Incremental => {
                    run_incremental_on(&session, functions, &options.exclude, scratch)
                }
                BfStrategy::Restart => {
                    run_restart_on(&session, functions, &options.exclude, scratch)
                }
            },
            Algorithm::Chain => {
                run_chain_on(&self.config, &session, functions, &options.exclude, scratch)
            }
        })
    }

    fn insert_object(&self, point: &[f64]) -> Result<u64, MpqError> {
        Engine::insert_object(self, point)
    }

    fn remove_object(&self, oid: u64) -> Result<(), MpqError> {
        Engine::remove_object(self, oid)
    }

    fn update_object(&self, oid: u64, point: &[f64]) -> Result<(), MpqError> {
        Engine::update_object(self, oid, point)
    }

    fn checkpoint(&self) -> Result<(), MpqError> {
        Engine::checkpoint(self)
    }
}

/// One evaluation against a prepared backend, configured fluently —
/// the only request builder. `B` is the backend the request was built
/// against: [`Engine`] by default (so `MatchRequest<'e, 'f>` reads as it
/// always did), [`ShardedEngine`] from [`ShardedEngine::request`], or
/// `dyn EvalBackend` from a [`ServiceClient`](crate::ServiceClient)'s
/// [`backend()`](crate::ServiceClient::backend). The knobs, evaluation
/// and cache identity are shared; only the progressive `stream` forms
/// are per-engine.
///
/// The [`ShardedEngine`] resolves every [`Algorithm`] through the one SB
/// run over its shards (the canonical matching is unique), so there the
/// algorithm, the maintenance mode and the Brute Force strategy only
/// affect request validation and cache identity.
///
/// ```
/// # use mpq_core::{Algorithm, Engine};
/// # use mpq_rtree::PointSet;
/// # use mpq_ta::FunctionSet;
/// # let mut objects = PointSet::new(2);
/// # for p in [[0.9_f64, 0.2], [0.2, 0.9], [0.7, 0.7]] { objects.push(&p); }
/// # let engine = Engine::builder().objects(&objects).build().unwrap();
/// # let functions = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
/// let matching = engine
///     .request(&functions)
///     .algorithm(Algorithm::Sb)
///     .exclude([1u64]) // object 1 is already reserved
///     .evaluate()
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct MatchRequest<'e, 'f, B: EvalBackend + ?Sized = Engine> {
    backend: &'e B,
    functions: &'f FunctionSet,
    options: RequestOptions,
}

/// The owned, backend-independent core of a [`MatchRequest`]: every
/// knob except the borrowed backend and function set. Detaching the
/// options (plus a clone of the functions) is what lets a request
/// outlive its submission scope and travel through the
/// [`crate::service`] queue to a worker thread. Opaque outside the
/// crate — it is public only because [`EvalBackend::evaluate_seeded`]
/// receives it; build one through the [`MatchRequest`] knobs.
#[derive(Debug, Clone)]
pub struct RequestOptions {
    pub(crate) algorithm: Algorithm,
    pub(crate) best_pair: BestPairMode,
    pub(crate) maintenance: MaintenanceMode,
    pub(crate) multi_pair: bool,
    pub(crate) bf_strategy: BfStrategy,
    pub(crate) exclude: HashSet<u64>,
    pub(crate) capacities: Option<Vec<u32>>,
}

impl Default for RequestOptions {
    fn default() -> RequestOptions {
        RequestOptions {
            algorithm: Algorithm::Sb,
            best_pair: BestPairMode::Ta,
            maintenance: MaintenanceMode::Incremental,
            multi_pair: true,
            bf_strategy: BfStrategy::Incremental,
            exclude: HashSet::new(),
            capacities: None,
        }
    }
}

/// The function-set half of request validation, shared with the
/// stream and session entry points.
fn validate_functions(dim: usize, functions: &FunctionSet) -> Result<(), MpqError> {
    if functions.n_alive() == 0 {
        return Err(MpqError::EmptyFunctions);
    }
    if functions.dim() != dim {
        return Err(MpqError::DimensionMismatch {
            engine: dim,
            functions: functions.dim(),
        });
    }
    Ok(())
}

/// Request-shape checks shared by direct evaluation and the service
/// queue: everything evaluation can fail on, with no evaluation work —
/// the same errors and strings on every backend (it needs only the
/// backend's dimensionality and id bound). Batches and
/// [`crate::service::ServiceClient`] run this *before* enqueueing, so
/// an invalid request is reported to the submitter instead of
/// travelling to a worker first.
pub(crate) fn validate_request<B: EvalBackend + ?Sized>(
    backend: &B,
    functions: &FunctionSet,
    options: &RequestOptions,
) -> Result<(), MpqError> {
    validate_functions(backend.dim(), functions)?;
    if let Some(caps) = &options.capacities {
        // Capacities are indexed by object id; ids are never recycled,
        // so the vector must cover the full id bound even when removals
        // left holes below it.
        let expected = backend.oid_bound() as usize;
        if caps.len() != expected {
            return Err(MpqError::CapacityMismatch {
                expected,
                got: caps.len(),
            });
        }
        if options.algorithm != Algorithm::Sb {
            return Err(MpqError::UnsupportedRequest(
                "capacities are only supported with Algorithm::Sb",
            ));
        }
        // Units are taken by the one SB round (`SbRun::round`), under
        // any `multi_pair` and `best_pair`; the rescan strawman is
        // another loop and knows nothing of them.
        if options.maintenance != MaintenanceMode::Incremental {
            return Err(MpqError::UnsupportedRequest(
                "capacities do not support the rescan maintenance ablation",
            ));
        }
    }
    Ok(())
}

impl<'e, 'f, B: EvalBackend + ?Sized> MatchRequest<'e, 'f, B> {
    /// A request for `functions` against `backend` with default options
    /// (SB algorithm, multi-pair reporting, no exclusions).
    pub(crate) fn new(backend: &'e B, functions: &'f FunctionSet) -> Self {
        MatchRequest {
            backend,
            functions,
            options: RequestOptions::default(),
        }
    }

    /// Select the algorithm (default [`Algorithm::Sb`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.options.algorithm = algorithm;
        self
    }

    /// SB only: how the best function per skyline object is located
    /// (default [`BestPairMode::Ta`]).
    pub fn best_pair(mut self, mode: BestPairMode) -> Self {
        self.options.best_pair = mode;
        self
    }

    /// SB only: skyline currency strategy (default
    /// [`MaintenanceMode::Incremental`]).
    pub fn maintenance(mut self, mode: MaintenanceMode) -> Self {
        self.options.maintenance = mode;
        self
    }

    /// SB only: report all mutually-best pairs per loop (§IV-C, default
    /// `true`) or only the canonical best — with or without
    /// [`capacities`](MatchRequest::capacities). The matching is the
    /// same; the emission order ([`Matching::pairs`]) and the number of
    /// loops are what change.
    pub fn multi_pair(mut self, multi: bool) -> Self {
        self.options.multi_pair = multi;
        self
    }

    /// Brute Force only: re-search strategy (default
    /// [`BfStrategy::Incremental`]).
    pub fn bf_strategy(mut self, strategy: BfStrategy) -> Self {
        self.options.bf_strategy = strategy;
        self
    }

    /// Mask out objects (e.g. already-reserved inventory). Excluded
    /// objects are invisible to this request: they are neither assigned
    /// nor allowed to shadow other objects. Ids not present in the
    /// backend are ignored. Accumulates across calls.
    pub fn exclude<I: IntoIterator<Item = u64>>(mut self, oids: I) -> Self {
        self.options.exclude.extend(oids);
        self
    }

    /// Per-object capacities (the many-to-one extension): `caps[oid]`
    /// users may share object `oid`. Requires [`Algorithm::Sb`] with
    /// incremental maintenance and a capacity for every object id up to
    /// the backend's id bound; every other knob, and
    /// [`stream`](MatchRequest::stream), means what it means without
    /// them (see [`crate::capacity`] for the contract).
    pub fn capacities(mut self, caps: &[u32]) -> Self {
        self.options.capacities = Some(caps.to_vec());
        self
    }

    /// Was this request built against `backend`? Services and batches
    /// refuse foreign requests — their workers would otherwise evaluate
    /// them against the wrong inventory.
    pub(crate) fn targets(&self, backend: &dyn EvalBackend) -> bool {
        std::ptr::addr_eq(self.backend, backend)
    }

    /// Detach the request into owned parts — a clone of the function set
    /// plus the owned options — so it can travel through the long-lived
    /// service queue to a worker thread.
    pub(crate) fn owned_parts(&self) -> (FunctionSet, RequestOptions) {
        (self.functions.clone(), self.options.clone())
    }

    /// Borrow the request's parts without detaching (the scoped batch
    /// path, whose workers cannot outlive the request slice — no clones
    /// needed).
    pub(crate) fn parts(&self) -> (&FunctionSet, &RequestOptions) {
        (self.functions, &self.options)
    }

    /// The canonical cache identity of this request: covers the function
    /// rows (bit-exact, in function-id order, with tombstones), the
    /// algorithm and every evaluation knob, the exclusion set
    /// (order-insensitively) and the capacity vector. Pair it with the
    /// backend's version vector ([`Engine::inventory_version`] for a
    /// single engine) to use a [`ResultCache`](crate::ResultCache)
    /// standalone; the [`EngineService`] computes the same key
    /// internally on every submission.
    pub fn cache_key(&self) -> crate::cache::RequestKey {
        crate::cache::request_key(self.functions, &self.options)
    }

    /// Validate and evaluate the request against the backend's shared
    /// index. The index is read, never mutated; concurrent evaluations
    /// are independent and each [`Matching::metrics`] reports only its
    /// own run's I/O.
    ///
    /// Equivalent to [`MatchRequest::evaluate_with`] on a fresh
    /// [`Scratch`]; serving many requests from one reused scratch (as
    /// [`Engine::evaluate_batch`] does per worker) skips the per-run
    /// allocations.
    pub fn evaluate(&self) -> Result<Matching, MpqError> {
        self.evaluate_with(&mut Scratch::new())
    }

    /// Like [`MatchRequest::evaluate`], but serving the run's working
    /// state — function-set copy, assigned sets, SB rank-list caches,
    /// search frontiers — from a caller-owned reusable [`Scratch`]. The
    /// scratch never changes what is computed, only how often the
    /// allocator is hit; reuse one per thread across any sequence of
    /// requests.
    pub fn evaluate_with(&self, scratch: &mut Scratch) -> Result<Matching, MpqError> {
        self.backend
            .evaluate_seeded(self.functions, &self.options, scratch, None, None)
    }

    /// Seed-capable [`MatchRequest::evaluate_with`]: primes the run from
    /// `seed` when the configuration is resumable and the seed is still
    /// pinned to the backend's current inventory — otherwise runs cold;
    /// the dispatch is uniform, so callers never branch on the
    /// algorithm or the backend. Returns the matching together with the
    /// [`EvalSeed`] a cold resumable run captured — the inventory's
    /// skyline, which can prime *any* later request against the same
    /// inventory. A run that resumed returns `None`: keep the seed it
    /// was handed.
    ///
    /// Seeded and cold evaluation are score-bit-identical. The
    /// [`EngineService`] drives this machinery automatically through
    /// the result cache's seed slot; call it directly to carry a seed
    /// by hand.
    pub fn evaluate_seeded(
        &self,
        scratch: &mut Scratch,
        seed: Option<&EvalSeed>,
    ) -> Result<(Matching, Option<EvalSeed>), MpqError> {
        let mut captured = None;
        let matching = self.backend.evaluate_seeded(
            self.functions,
            &self.options,
            scratch,
            seed,
            Some(&mut captured),
        )?;
        Ok((matching, captured))
    }

    /// All the request-shape checks evaluation can fail on, with no
    /// evaluation work (see [`validate_request`]).
    pub(crate) fn validate(&self) -> Result<(), MpqError> {
        validate_request(self.backend, self.functions, &self.options)
    }
}

impl<'e, B: EvalBackend + ?Sized> MatchRequest<'e, '_, B> {
    /// The one progressive path: every check a stream makes, then one
    /// run-scoped I/O session per engine of `parts`.
    fn stream_over(&self, parts: &'e [Engine]) -> Result<SbStream<IoSession<'e>>, MpqError> {
        self.validate()?;
        if self.options.algorithm != Algorithm::Sb {
            return Err(MpqError::UnsupportedRequest(
                "streaming is only supported with Algorithm::Sb",
            ));
        }
        if self.options.maintenance != MaintenanceMode::Incremental {
            return Err(MpqError::UnsupportedRequest(
                "streaming requires incremental skyline maintenance",
            ));
        }
        let sources = parts.iter().map(|part| IoSession::new(&part.tree));
        Ok(stream_on(sources.collect(), self.functions, &self.options))
    }
}

impl<'e> MatchRequest<'e, '_> {
    /// Progressive SB evaluation: returns a stream that yields stable
    /// pairs as soon as they are identified, reading the shared index
    /// through its own run-scoped I/O session.
    ///
    /// Requires [`Algorithm::Sb`] with incremental maintenance; yields
    /// [`evaluate`](MatchRequest::evaluate)'s pairs in its order.
    pub fn stream(&self) -> Result<SbStream<IoSession<'e>>, MpqError> {
        self.stream_over(std::slice::from_ref(self.backend))
    }
}

impl<'e> MatchRequest<'e, '_, ShardedEngine> {
    /// Progressive SB evaluation over the union of the shards'
    /// skylines: the same stream, pairs and order an [`Engine`] over
    /// the same inventory yields, under the same requirements.
    pub fn stream(&self) -> Result<SbStream<IoSession<'e>>, MpqError> {
        self.stream_over(self.backend.shards())
    }
}

/// Results of one [`Engine::evaluate_batch`] call: the matchings in
/// input order plus aggregated cost metrics.
#[derive(Debug)]
pub struct BatchOutcome {
    matchings: Vec<Matching>,
    metrics: BatchMetrics,
}

impl BatchOutcome {
    /// Assemble an outcome (the one batch runner lives beside the
    /// [`EvalBackend`] trait it drives).
    pub(crate) fn from_parts(matchings: Vec<Matching>, metrics: BatchMetrics) -> BatchOutcome {
        BatchOutcome { matchings, metrics }
    }

    /// The matchings, one per request, **in input order**.
    pub fn matchings(&self) -> &[Matching] {
        &self.matchings
    }

    /// Aggregated metrics of the whole batch.
    pub fn metrics(&self) -> &BatchMetrics {
        &self.metrics
    }

    /// Number of evaluated requests.
    pub fn len(&self) -> usize {
        self.matchings.len()
    }

    /// True iff the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.matchings.is_empty()
    }
}

/// Aggregated cost counters of one [`Engine::evaluate_batch`] call.
///
/// `wall` is the end-to-end time of the batch (the throughput
/// denominator); `cpu_total` is the *sum* of per-request matching times,
/// so `cpu_total / wall` approximates the achieved parallelism. The
/// I/O and algorithm counters are sums over the per-request
/// [`RunMetrics`](crate::RunMetrics); the per-request values stay
/// available on each [`Matching`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchMetrics {
    /// End-to-end wall-clock time of the batch.
    pub wall: Duration,
    /// Worker threads actually used.
    pub threads: usize,
    /// Number of requests evaluated.
    pub requests: usize,
    /// Summed per-request object-tree I/O.
    pub io: IoStats,
    /// Summed per-request matching (CPU) time.
    pub cpu_total: Duration,
    /// Summed algorithm outer loops.
    pub loops: u64,
    /// Summed object-tree top-1 searches (BF, Chain).
    pub top1_searches: u64,
    /// Summed reverse top-1 (TA) invocations (SB).
    pub reverse_top1_calls: u64,
}

impl BatchMetrics {
    /// Batch throughput: requests per wall-clock second. Guarded
    /// arithmetic (shared with
    /// [`ServiceMetrics`](crate::service::ServiceMetrics)): an empty
    /// batch or an unmeasurably fast / zero-duration wall clock yields
    /// `0.0`, never `inf` or NaN.
    pub fn requests_per_sec(&self) -> f64 {
        safe_rate(self.requests as u64, self.wall)
    }
}

/// A persistent matching session over one engine: batches submitted over
/// time consume the inventory, and the R-tree **and** the
/// incrementally-maintained skyline (with its plists, §IV-B) survive
/// across batches — each batch pays only for its own best-pair search
/// plus the maintenance its assignments cause.
///
/// Unlike stateless [`MatchRequest`]s, a session holds state (the
/// consumed inventory), so it is a `&mut self` API; open one session per
/// logical inventory stream. Sessions account their page traffic in
/// their own [`mpq_rtree::IoSession`], so stateless requests may keep
/// hitting the same engine concurrently.
pub struct MatchSession<'e> {
    engine: &'e Engine,
    /// The skyline persists; every batch loads its own functions.
    run: SbRun<IoSession<'e>>,
    assigned: u64,
    batches: u64,
}

impl MatchSession<'_> {
    /// Objects of the snapshot the session pinned that no earlier batch
    /// reserved.
    pub fn objects_remaining(&self) -> u64 {
        self.run.pinned_objects() - self.assigned
    }

    /// Number of batches processed so far.
    pub fn batches_processed(&self) -> u64 {
        self.batches
    }

    /// Current skyline size (diagnostic).
    pub fn skyline_len(&self) -> usize {
        self.run.skyline_len()
    }

    /// Total I/O this session has caused since it was opened (including
    /// the initial skyline computation).
    pub fn io_stats(&self) -> mpq_rtree::IoStats {
        self.run.io()
    }

    /// Match one arriving batch against the remaining inventory.
    /// Returns the batch's stable matching; the assigned objects stay
    /// reserved for subsequent batches.
    pub fn submit(&mut self, functions: &FunctionSet) -> Result<Matching, MpqError> {
        validate_functions(self.engine.dim, functions)?;
        self.batches += 1;
        let start = Instant::now();
        let io_start = self.io_stats();
        self.run.load(functions);
        let mut pairs: Vec<Pair> = Vec::new();
        while !self.run.is_done() {
            pairs.extend_from_slice(self.run.round(true, &HashSet::new(), &mut None));
        }
        // every pair removed one distinct object from the inventory
        self.assigned += pairs.len() as u64;

        let mut metrics = self.run.metrics();
        metrics.elapsed = start.elapsed();
        metrics.io = self.io_stats().since(io_start);
        Ok(Matching::new(pairs, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_inventory_past_the_tilers_index_width_is_refused() {
        assert_eq!(check_inventory_len(0), Ok(()));
        assert_eq!(check_inventory_len(u32::MAX as usize), Ok(()));
        assert_eq!(
            check_inventory_len(u32::MAX as usize + 1),
            Err(MpqError::TooManyObjects {
                got: 1 << 32,
                max: u32::MAX as usize
            })
        );
    }

    #[test]
    fn checkpoint_extra_round_trips_and_tolerates_the_short_form() {
        let extra = checkpoint_extra(7, 101);
        assert_eq!(extra_field(&extra, 0), Some(7));
        assert_eq!(extra_field(&extra, 1), Some(101));
        // What an engine wrote before the bound was recorded.
        assert_eq!(extra_field(&extra[..8], 0), Some(7));
        assert_eq!(extra_field(&extra[..8], 1), None);
        assert_eq!(extra_field(&[], 0), None);
    }
}
