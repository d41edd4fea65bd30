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
//! The tree is the engine's one copy of the inventory. A remove or an
//! update must find the point an object is stored at, and the engine
//! keeps a table of those only once the first of them comes (see
//! `crate::objects`): an engine that only evaluates and inserts never
//! holds one, built or reopened.
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

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use mpq_rtree::bulk::MAX_BULK_LEN;
use mpq_rtree::{
    DiskPager, FaultInjector, FaultPageStore, IoSession, IoStats, MemPager, PageStore, PointSet,
    RTree,
};
use mpq_ta::{FunctionSet, ThresholdMode};

use crate::brute_force::{run_incremental_on, run_restart_on};
use crate::cache::MutationLog;
use crate::chain::run_chain_on;
use crate::error::MpqError;
use crate::matching::{IndexConfig, Matching};
use crate::objects::{validated_keys, ObjectTable};
use crate::sb::{run_rescan_on, run_sb_seeded, stream_on, SbStream, SERVED_THRESHOLD};
use crate::scratch::Scratch;
use crate::seed::{EvalSeed, SeedSlot};
use crate::service::{evaluate_batch, lock, safe_rate, EngineService, ServiceConfig};
use crate::shard;
use crate::wal::{Wal, WalRecord};

/// Page file name inside a data directory.
pub(crate) const PAGE_FILE: &str = "pages.mpq";
/// Write-ahead log file name inside a data directory.
const WAL_FILE: &str = "wal.mpq";

/// What the figures and the tests compare: the paper's algorithm, its
/// §IV ablations and its two competitors, each a loop of its own. A
/// served request runs SB alone; [`MatchRequest::algorithm`] turns a
/// request into a [`Variant`] that runs one of these.
///
/// All produce the identical matching (the canonical tie-broken stable
/// assignment); they differ in cost profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Skyline-based matching (§III-B/§IV) — the paper's algorithm, and
    /// what a served request runs.
    Sb,
    /// SB with TA's classic (loose) threshold instead of the tight one
    /// (ablation A3, §IV-A).
    SbNaiveThreshold,
    /// SB finding a skyline object's best function by a linear scan of
    /// the functions — the inner loop §IV-A's TA replaces (A3).
    SbScan,
    /// SB recomputing the skyline by BBS every loop, the strawman §IV-B
    /// calls "unacceptably expensive" (A2).
    SbRescan,
    /// Per-function top-1 queries with lazy invalidation, each
    /// function's ranked search resumed where it stopped (§III-A).
    BruteForce,
    /// Brute Force re-running a fresh top-1 search per invalidation
    /// (A6).
    BruteForceRestart,
    /// Chains of alternating top-1 searches (adapted competitor, §V).
    Chain,
}

impl Algorithm {
    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Sb => "SB",
            Algorithm::SbNaiveThreshold => "SB-ta-naive",
            Algorithm::SbScan => "SB-scan",
            Algorithm::SbRescan => "SB-rescan",
            Algorithm::BruteForce => "BruteForce",
            Algorithm::BruteForceRestart => "BruteForce-restart",
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

    /// The object inventory to index: object `i` of the set gets id `i`.
    /// Points are copied into the index; the set does not need to
    /// outlive the engine.
    pub fn objects(mut self, objects: &'o PointSet) -> EngineBuilder<'o> {
        self.objects = Some(objects);
        self
    }

    /// Split the LRU buffer into `shards` lock shards so concurrent
    /// evaluations on distinct pages stop contending on one mutex (see
    /// the `mpq_rtree::buffer` docs). A good value is the thread count
    /// passed to [`Engine::evaluate_batch`]. Clamped to `[1, buffer
    /// capacity]` so every lock shard caches at least one page. Buffer
    /// geometry is a runtime choice, not persistent state: it applies to
    /// an engine built and to one reopened alike.
    ///
    /// Default: 1 — the classic single LRU of the paper's experiments,
    /// with bit-identical eviction order and I/O counts.
    pub fn buffer_shards(mut self, shards: usize) -> EngineBuilder<'o> {
        self.buffer_shards = Some(shards);
        self
    }

    /// Persist the engine under `dir`: index pages go to a disk-backed
    /// pager (`pages.mpq`) and every mutation is logged to a write-ahead
    /// log (`wal.mpq`) before it is applied, so the engine survives a
    /// restart — reopen it with [`Engine::open`]. The directory is
    /// created if missing; any files from a previous engine in it are
    /// superseded, a `K`-shard layout included.
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

    /// Validate the inventory and bulk-load the R-tree (exactly once for
    /// the engine's lifetime).
    ///
    /// Validation happens before the bulk load, on the whole inventory:
    /// an empty set, a NaN or infinite coordinate, or a coordinate
    /// outside the `[0, 1]` preference space is reported as an
    /// [`MpqError`] — the first bad object in id order — without paying
    /// for index construction or creating a file. The tree is loaded
    /// from one key an object against the one `objects` into a store
    /// this thread allocated: the cores share the sorting and the
    /// encoding (see `mpq_rtree::bulk`), never the allocating.
    pub fn build(self) -> Result<Engine, MpqError> {
        let objects = self.objects.ok_or(MpqError::EmptyObjects)?;
        let mut keys = validated_keys(objects)?;
        self.load(objects, &mut keys, objects.len() as u64)
    }

    /// The one build path, of a fresh inventory and of a migrated one:
    /// bulk-load the objects of `objects` that `keys` names (one
    /// `bulk::sort_key` each) under their indices, minting ids from
    /// `oid_bound` on. A disk-backed build commits the tree as
    /// checkpoint zero beside an empty WAL, then retires whatever
    /// `K`-shard layout the directory held (see the `shard` module).
    pub(crate) fn load(
        self,
        objects: &PointSet,
        keys: &mut [u128],
        oid_bound: u64,
    ) -> Result<Engine, MpqError> {
        let dir = self.data_dir.as_deref();
        let tree = (self.index).build_tree_in(self.create_store(dir)?, objects, keys);
        let wal = match dir {
            None => None,
            Some(dir) => {
                // A fresh build supersedes whatever a previous engine
                // left in the directory: discard any stale WAL tail and
                // commit the bulk-loaded tree as checkpoint zero.
                let mut wal = self.open_wal(dir)?.0;
                wal.truncate()?;
                tree.checkpoint(&checkpoint_extra(0, oid_bound))?;
                shard::retire(dir)?;
                Some(wal)
            }
        };
        Ok(Engine::over(tree, wal, oid_bound, self))
    }

    /// Create the store the tree keeps its pages in: a fresh page file
    /// under `dir`, else memory.
    fn create_store(&self, dir: Option<&Path>) -> Result<Box<dyn PageStore>, MpqError> {
        let page_size = self.index.page_size;
        Ok(match (dir, &self.fault_injector) {
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

    /// Open the write-ahead log under `dir`, returning it with the
    /// intact records it holds.
    fn open_wal(&self, dir: &Path) -> Result<(Wal, Vec<(u64, WalRecord)>), MpqError> {
        let (mut wal, records) = Wal::open(&dir.join(WAL_FILE))?;
        if let Some(inj) = &self.fault_injector {
            wal.set_injector(Arc::clone(inj));
        }
        Ok((wal, records))
    }

    /// Reopen one tree from the `pages.mpq` + `wal.mpq` pair under
    /// `dir`: load the last checkpointed tree image, then replay every
    /// intact WAL record past the checkpoint's high-water mark into the
    /// tree. Returns the tree and its WAL with the id bound they vouch
    /// for: the one the checkpoint recorded, raised past every id the
    /// WAL minted. The tree may come back empty (a shard of an old
    /// layout may be); an empty *inventory* is the caller's to refuse.
    pub(crate) fn open_tree(&self, dir: &Path) -> Result<(RTree, Wal, u64), MpqError> {
        let config = &self.index;
        let mut store = DiskPager::open(&dir.join(PAGE_FILE), config.page_size)?;
        if let Some(inj) = &self.fault_injector {
            store.attach_injector(Arc::clone(inj));
        }
        let (tree, extra) = RTree::open(store, config.min_buffer_pages.max(1))?;
        tree.set_buffer_capacity(config.buffer_pages_for(tree.page_count()));
        let ckpt_seq = extra_field(&extra, 0).unwrap_or(0);
        // A file written before the bound was checkpointed stops after
        // the sequence number: the live ids are then all there is to go
        // by, as they were for the engine that wrote it.
        let mut bound = extra_field(&extra, 1).unwrap_or_else(|| {
            let mut bound = 0;
            tree.for_each_point(|oid, _| bound = bound.max(oid.saturating_add(1)));
            bound
        });

        let (mut wal, records) = self.open_wal(dir)?;
        // A checkpoint truncates the WAL but sequence numbers must stay
        // monotonic across it, or replayed records could collide with
        // the checkpoint's high-water mark after the *next* crash.
        wal.ensure_next_seq(ckpt_seq + 1);
        for (seq, rec) in records {
            if let WalRecord::Insert { oid, .. } = &rec {
                // Even a record the checkpoint already covers, or whose
                // object a later record removes, spent its id.
                bound = bound.max(oid.saturating_add(1));
            }
            if seq > ckpt_seq {
                apply(&tree, &rec); // else already part of the checkpointed image
            }
        }
        Ok((tree, wal, bound))
    }

    /// Reopen the inventory persisted under `root`, the builder's
    /// [`data_dir`](EngineBuilder::data_dir) (see [`Engine::open_with`]):
    /// the bare layout as it is, a `K`-shard layout migrated into it
    /// first.
    fn open(self, root: &Path) -> Result<Engine, MpqError> {
        if let Some(k) = shard::manifest_shards(root)? {
            return shard::migrate(self, root, k);
        }
        let (tree, wal, bound) = self.open_tree(root)?;
        if tree.is_empty() {
            return Err(MpqError::EmptyObjects);
        }
        // Shards a migration committed before it could remove them.
        shard::retire(root)?;
        Ok(Engine::over(tree, Some(wal), bound, self))
    }

    /// Open or build the engine that hosts this inventory. One already
    /// persisted under [`EngineBuilder::data_dir`] is **reopened** (WAL
    /// replay included, an old `K`-shard layout migrated). Otherwise the
    /// inventory is built from [`EngineBuilder::objects`].
    pub fn open_or_build(self) -> Result<Arc<Engine>, MpqError> {
        let engine = match self.data_dir.clone() {
            Some(dir) if Engine::persisted_at(&dir) => self.open(&dir)?,
            Some(_) if self.objects.is_none() => {
                return Err(MpqError::UnsupportedRequest(
                    "no persisted inventory at data_dir and no objects given",
                ))
            }
            _ => self.build()?,
        };
        Ok(Arc::new(engine))
    }
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

/// Process-global inventory version source: every built or reopened
/// engine — and every committed mutation — gets a distinct,
/// monotonically increasing stamp (starting at 1 so 0 can serve as a
/// "no engine" sentinel in caller code). The stamp is what makes a
/// [`ResultCache`](crate::ResultCache) entry safe across engine rebuilds
/// *and* in-place mutations: results computed against inventory version
/// *v* are only served to lookups against the same *v*, unless the
/// engine's [`MutationLog`] proves every intervening mutation irrelevant
/// to the entry.
static NEXT_INVENTORY_VERSION: AtomicU64 = AtomicU64::new(1);

/// Set in [`Engine`]'s stamp from before a mutation touches a tree until
/// the version it mints is stored: a pin that reads it, or reads two
/// different stamps around its sessions, cannot name the epoch it
/// pinned. Versions never come near the bit.
const IN_FLUX: u64 = 1 << 63;

/// Mutations the engine's log keeps for scoped cache invalidation.
const MUTATIONS_LOGGED: usize = 64;

/// Apply one logged mutation to `tree` — the live mutation path and WAL
/// replay alike. `false` if a remove or an update named an entry the
/// tree did not hold.
fn apply(tree: &RTree, record: &WalRecord) -> bool {
    match record {
        WalRecord::Insert { oid, point } => {
            tree.insert(point, *oid);
            true
        }
        WalRecord::Remove { oid, point } => tree.delete(point, *oid),
        WalRecord::Update { oid, old, new } => {
            let removed = tree.delete(old, *oid);
            tree.insert(new, *oid);
            removed
        }
    }
}

/// A prepared matching engine: one validated inventory, bulk-loaded
/// into one R-tree behind one buffer pool, serving any number of
/// [`MatchRequest`]s.
///
/// `Engine` is `Sync`: share it behind an `Arc` (or plain borrows with
/// scoped threads) and evaluate requests concurrently. Evaluation never
/// mutates the index — assigned objects are masked per run, not deleted
/// — so requests cannot observe each other. Mutations are serialized
/// internally; each is one record in the WAL.
pub struct Engine {
    dim: usize,
    config: IndexConfig,
    /// The object R-tree: the engine's one copy of the inventory.
    tree: RTree,
    /// The writers' index: the point of every live object by id, for
    /// the removes and updates that must name a tree entry by its point.
    /// `None` until the first of them fills it from the tree (see
    /// [`crate::objects`]); every mutation keeps it current from then on.
    /// Only mutators, under the mutator lock, touch it.
    objects: Mutex<Option<ObjectTable>>,
    /// Write-ahead log; present iff the engine is disk-backed.
    wal: Option<Mutex<Wal>>,
    /// Set when a durability failure left the WAL wedged: mutations are
    /// refused with [`MpqError::StorageDegraded`] until a successful
    /// [`Engine::checkpoint`] repairs the log. Reads are unaffected.
    degraded: AtomicBool,
    /// The id mint: ids at or above it have never been assigned.
    /// Removal never recycles an id.
    next_oid: AtomicU64,
    /// The inventory version (see [`Engine::inventory_version`]), with
    /// [`IN_FLUX`] set while a mutation is between its tree and its
    /// version. A commit's `Release` store pairs with the readers'
    /// `Acquire` loads: whoever reads a version finds its tree and its
    /// log entry in place.
    version: AtomicU64,
    /// Recent mutations by the version each minted, for scoped cache
    /// invalidation.
    mutations: MutationLog,
    /// Evaluations actually run against this engine (see
    /// [`Engine::evaluation_count`]).
    evaluations: AtomicU64,
    /// Data directory; present iff the engine is disk-backed.
    data_dir: Option<PathBuf>,
    /// Serializes mutations (minting an id and logging it must be one
    /// step) and checkpoints; readers never take it.
    mutator: Mutex<()>,
    /// The fault injector every durability path consults, if one was
    /// attached at build/open time.
    injector: Option<Arc<FaultInjector>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("dim", &self.dim)
            .field("objects", &self.n_objects())
            .field("pages", &self.page_count())
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

    /// The engine over `tree`, built or reopened by `builder`, minting
    /// ids from `next_oid` on. The buffer pool takes its lock shards
    /// here, so the knob cannot miss a path.
    fn over(
        mut tree: RTree,
        wal: Option<Wal>,
        next_oid: u64,
        builder: EngineBuilder<'_>,
    ) -> Engine {
        if let Some(shards) = builder.buffer_shards {
            tree.set_buffer_shards(shards.clamp(1, tree.buffer_capacity()));
        }
        Engine {
            dim: tree.dim(),
            config: builder.index,
            tree,
            objects: Mutex::new(None),
            wal: wal.map(Mutex::new),
            degraded: AtomicBool::new(false),
            next_oid: AtomicU64::new(next_oid),
            version: AtomicU64::new(NEXT_INVENTORY_VERSION.fetch_add(1, AtomicOrdering::Relaxed)),
            mutations: MutationLog::new(MUTATIONS_LOGGED),
            evaluations: AtomicU64::new(0),
            data_dir: builder.data_dir,
            mutator: Mutex::new(()),
            injector: builder.fault_injector,
        }
    }

    /// Dimensionality of the indexed preference space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed objects (live inventory after mutations).
    pub fn n_objects(&self) -> usize {
        self.tree.len() as usize
    }

    /// One past the highest object id ever assigned. Object ids are
    /// never recycled, so a per-object capacity vector sized to this
    /// bound covers every id the engine can report. (Exclusions are a
    /// list of ids and honour any id, minted or not.)
    #[inline]
    pub fn oid_bound(&self) -> u64 {
        self.next_oid.load(AtomicOrdering::Acquire)
    }

    /// The engine's **inventory version**: a process-globally unique,
    /// monotonically increasing stamp minted when the engine is built or
    /// reopened and re-minted by every committed mutation. Two engines
    /// never share one — even when built over identical objects — so a
    /// [`ResultCache`](crate::ResultCache) entry stamped with one
    /// engine's version can never be served against another engine's
    /// inventory; an entry stamped before a mutation is stale unless the
    /// engine's mutation log proves the mutation could not have changed
    /// it.
    ///
    /// While a mutation is being applied this is still the version
    /// before it: the new one is stored once the tree holds the change.
    pub fn inventory_version(&self) -> u64 {
        self.version.load(AtomicOrdering::Acquire) & !IN_FLUX
    }

    /// The log of recent mutations, by the version each minted: what
    /// lets a [`ResultCache`](crate::ResultCache) revalidate entries a
    /// mutation provably did not affect instead of flushing wholesale.
    pub(crate) fn mutations(&self) -> &MutationLog {
        &self.mutations
    }

    /// The data directory the engine persists under, if disk-backed.
    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// Does `dir` hold a persisted engine, in either layout — i.e.
    /// would [`Engine::open`] find a page file or an old shard manifest
    /// to load? Lets callers (the CLI's `serve --data-dir`) decide
    /// between opening and building fresh without hard-coding the
    /// on-disk file names.
    pub fn persisted_at(dir: impl AsRef<Path>) -> bool {
        [shard::MANIFEST_FILE, PAGE_FILE]
            .iter()
            .any(|file| dir.as_ref().join(file).is_file())
    }

    /// Current size of the write-ahead log in bytes (0 for an in-memory
    /// engine). Grows with every mutation; drops back to zero at a
    /// [`Engine::checkpoint`].
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |wal| lock(wal).len_bytes())
    }

    /// R-tree pages.
    pub fn page_count(&self) -> usize {
        self.tree.page_count()
    }

    /// How many evaluations have actually run against this engine —
    /// cache hits and dedupe attaches do **not** count, which is exactly
    /// what makes this the observable for "N identical submissions paid
    /// one evaluation" assertions (see `tests/cache.rs`).
    #[inline]
    pub fn evaluation_count(&self) -> u64 {
        self.evaluations.load(AtomicOrdering::Relaxed)
    }

    /// The object R-tree (read-only access; evaluation never mutates
    /// it, and mutations go through the engine so id minting, the WAL
    /// and the inventory version stay consistent).
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Reopen a persistent engine from `dir` with the default
    /// [`IndexConfig`] (shorthand for [`Engine::open_with`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<Engine, MpqError> {
        Engine::open_with(dir, IndexConfig::default())
    }

    /// Reopen a persistent engine created earlier by
    /// [`EngineBuilder::data_dir`] under `dir`: the `pages.mpq` +
    /// `wal.mpq` pair.
    ///
    /// Recovery loads the last checkpointed tree image, then **replays**
    /// every intact WAL record past the checkpoint's high-water mark — a
    /// torn tail (crash mid-append) is discarded at the first corrupt
    /// frame, so the engine reopens to the last fully-synced mutation.
    /// Replay touches only the tree, and an engine with nothing to
    /// replay opens without reading a leaf. The reopened engine serves
    /// matchings bit-identical to a freshly built engine over the same
    /// surviving inventory.
    ///
    /// A directory an engine of `K` shards wrote (a `shards.mpq`
    /// manifest beside `shard-i/`) is migrated on the way: every shard
    /// is recovered as above, their live objects are bulk-loaded into
    /// one tree at the root, and the shards are removed.
    ///
    /// `config.page_size` must equal the page size the directory was
    /// created with; the buffer is re-sized from `config` (buffer
    /// geometry is a runtime choice, not persistent state).
    pub fn open_with(dir: impl AsRef<Path>, config: IndexConfig) -> Result<Engine, MpqError> {
        let dir = dir.as_ref();
        Engine::builder().index(config).data_dir(dir).open(dir)
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
        let oid = self.next_oid.load(AtomicOrdering::Relaxed);
        self.check_storage()?;
        validate_point(oid, self.dim, point)?;
        let point = Box::from(point);
        self.commit(WalRecord::Insert { oid, point })?;
        self.next_oid.store(oid + 1, AtomicOrdering::Release);
        Ok(oid)
    }

    /// Remove an object from the inventory.
    ///
    /// Fails with [`MpqError::UnknownObject`] if the engine does not
    /// hold `oid`, and refuses to empty the inventory entirely (an
    /// engine over zero objects violates the build-time contract; build
    /// a new engine instead).
    pub fn remove_object(&self, oid: u64) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        self.check_storage()?;
        let point = self.point(oid);
        if point.is_some() && self.n_objects() == 1 {
            return Err(MpqError::UnsupportedRequest(
                "removing the last object would empty the inventory",
            ));
        }
        let point = point.ok_or(MpqError::UnknownObject { oid })?;
        self.commit(WalRecord::Remove { oid, point })
    }

    /// Move an existing object to a new point (same id, new
    /// coordinates): a single logical mutation — one WAL record, one
    /// version bump — implemented as delete + re-insert on the index.
    pub fn update_object(&self, oid: u64, point: &[f64]) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        self.check_storage()?;
        validate_point(oid, self.dim, point)?;
        let old = self.point(oid).ok_or(MpqError::UnknownObject { oid })?;
        let new = Box::from(point);
        self.commit(WalRecord::Update { oid, old, new })
    }

    /// The point stored for `oid`, if the engine holds it — read from
    /// the writers' index, which the first remove or update fills from
    /// the tree here.
    fn point(&self, oid: u64) -> Option<Box<[f64]>> {
        let mut objects = lock(&self.objects);
        let table = objects.get_or_insert_with(|| ObjectTable::from_tree(&self.tree));
        table.get(oid).map(Box::from)
    }

    /// Refuse mutations while the storage is degraded (a failed WAL
    /// rollback left the log wedged). Cleared by a successful
    /// [`Engine::checkpoint`].
    fn check_storage(&self) -> Result<(), MpqError> {
        if self.is_degraded() {
            return Err(MpqError::StorageDegraded);
        }
        Ok(())
    }

    /// Commit one mutation, with the mutator lock held: the one
    /// [`WalRecord`] is durably appended to the WAL, applied to the tree
    /// and the writers' index, recorded in the log under the version it
    /// mints, and that version published. The stamp reads [`IN_FLUX`]
    /// from before the tree changes until then, so no pin taken in
    /// between trusts the old version (see [`Engine::pin`]).
    ///
    /// The append comes *before* the in-memory state changes: if it or
    /// its fsync fails, the record is rolled back off the log and the
    /// mutation is reported as [`MpqError::Io`] without having been
    /// applied. If even the rollback fails, the WAL is wedged and the
    /// engine flips to degraded: mutations are refused with
    /// [`MpqError::StorageDegraded`] until a successful
    /// [`Engine::checkpoint`] truncates (and thereby repairs) the log.
    fn commit(&self, record: WalRecord) -> Result<(), MpqError> {
        if let Some(wal) = &self.wal {
            let mut wal = lock(wal);
            if let Err(e) = wal.append_sync(&record) {
                if wal.is_wedged() {
                    self.degraded.store(true, AtomicOrdering::Release);
                }
                return Err(e.into());
            }
        }
        // The tree publishes under a lock, whose release carries this
        // mark to any pin that sees the change.
        self.version.fetch_or(IN_FLUX, AtomicOrdering::Release);
        let applied = apply(&self.tree, &record);
        debug_assert!(
            applied,
            "object table and tree disagree on oid {}",
            record.oid()
        );
        if let Some(table) = lock(&self.objects).as_mut() {
            match &record {
                WalRecord::Remove { oid, .. } => {
                    table.remove(*oid);
                }
                WalRecord::Insert { oid, point: new } | WalRecord::Update { oid, new, .. } => {
                    table.insert(*oid, new)
                }
            }
        }
        let version = NEXT_INVENTORY_VERSION.fetch_add(1, AtomicOrdering::Relaxed);
        self.mutations.record(version, record);
        self.version.store(version, AtomicOrdering::Release);
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

    /// Checkpoint a disk-backed engine: flush every dirty page, durably
    /// commit the current tree epoch (with the WAL high-water mark and
    /// the id bound) into the page file's header, then truncate the WAL.
    /// After a checkpoint, reopening replays nothing; between
    /// checkpoints, the WAL alone carries the delta. A no-op for
    /// in-memory engines. A successful checkpoint also repairs a
    /// degraded engine: the WAL truncation wipes any phantom record a
    /// failed rollback left behind, so mutations are accepted again.
    pub fn checkpoint(&self) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        if let Some(wal) = &self.wal {
            let mut wal = lock(wal);
            let extra = checkpoint_extra(wal.last_seq(), self.oid_bound());
            self.tree.checkpoint(&extra)?;
            wal.truncate()?;
            self.degraded.store(false, AtomicOrdering::Release);
        }
        Ok(())
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
    /// (multi-pair reporting, no exclusions, no capacities).
    pub fn request<'e, 'f>(&'e self, functions: &'f FunctionSet) -> MatchRequest<'e, 'f> {
        MatchRequest {
            engine: self,
            functions,
            options: RequestOptions::default(),
        }
    }

    /// Evaluate `functions` with default options (shorthand for
    /// [`MatchRequest::evaluate`]).
    pub fn evaluate(&self, functions: &FunctionSet) -> Result<Matching, MpqError> {
        self.request(functions).evaluate()
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
    /// let ticket = client.submit(client.engine().request(&functions)).unwrap();
    /// let matching = ticket.wait().unwrap();
    /// assert_eq!(matching.len(), 1);
    /// service.shutdown();
    /// ```
    pub fn serve(self: Arc<Self>, config: ServiceConfig) -> EngineService {
        EngineService::spawn(self, config)
    }

    /// Pin a run-scoped I/O session on the tree's current epoch, with
    /// the inventory version it is pinned at: `Some` iff the stamp read
    /// one committed version on both sides of the pin. A mutation marks
    /// the stamp [`IN_FLUX`] before its tree changes and stores its
    /// version only after, so a pin that may hold a changed tree reads
    /// the mark or a new version. Then the epoch is ambiguous, and the
    /// run must decline seeds and capture nothing rather than guess.
    pub(crate) fn pin(&self) -> (IoSession<'_>, Option<u64>) {
        let before = self.version.load(AtomicOrdering::Acquire);
        let pin = IoSession::new(&self.tree);
        let after = self.version.load(AtomicOrdering::Acquire);
        let stable = before == after && before & IN_FLUX == 0;
        (pin, stable.then_some(before))
    }

    /// The served evaluation path: validate, pin the tree, run SB over
    /// the pin. With a `slot`, a run whose pin reads
    /// one committed version primes from that version's seed cell —
    /// building the seed if the cell is empty, waiting if another run is
    /// building it — and a pin older than the slot's cell runs cold (see
    /// [`crate::seed`]). The flag beside the matching says whether the
    /// run resumed from a seed another run built.
    pub(crate) fn evaluate_seeded(
        &self,
        functions: &FunctionSet,
        options: &RequestOptions,
        scratch: &mut Scratch,
        slot: Option<&SeedSlot>,
    ) -> Result<(Matching, bool), MpqError> {
        validate_request(self, functions, options)?;
        self.evaluations.fetch_add(1, AtomicOrdering::Relaxed);
        let (pins, version) = self.pin();
        let cell = slot.zip(version).and_then(|(slot, v)| slot.cell(v));
        let cell = cell.as_ref().map(|cell| &cell.1);
        Ok(run_sb_seeded(
            (pins, version),
            functions,
            options,
            SERVED_THRESHOLD,
            scratch,
            None,
            cell,
        ))
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
    /// index through its own per-run [`IoSession`]s — so every returned
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
        evaluate_batch(self, requests, threads)
    }
}

/// One served evaluation against a prepared [`Engine`], configured
/// fluently — the only request builder, and the one request type the
/// cache, the service, [`Engine::evaluate_batch`], streams and the wire
/// see. It runs SB over its functions, exclusions, capacities and
/// `multi_pair`. [`MatchRequest::algorithm`] turns it into a harness
/// [`Variant`] instead.
///
/// ```
/// # use mpq_core::Engine;
/// # use mpq_rtree::PointSet;
/// # use mpq_ta::FunctionSet;
/// # let mut objects = PointSet::new(2);
/// # for p in [[0.9_f64, 0.2], [0.2, 0.9], [0.7, 0.7]] { objects.push(&p); }
/// # let engine = Engine::builder().objects(&objects).build().unwrap();
/// # let functions = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
/// let matching = engine
///     .request(&functions)
///     .exclude([1u64]) // object 1 is already reserved
///     .evaluate()
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct MatchRequest<'e, 'f> {
    engine: &'e Engine,
    functions: &'f FunctionSet,
    options: RequestOptions,
}

/// The owned core of a [`MatchRequest`]: every knob except the borrowed
/// engine and function set. Detaching the options (plus a clone of the
/// functions) is what lets a request outlive its submission scope and
/// travel through the [`crate::service`] queue to a worker thread.
#[derive(Debug, Clone)]
pub(crate) struct RequestOptions {
    pub(crate) multi_pair: bool,
    /// Sorted and deduplicated by [`MatchRequest::exclude`], the one
    /// place that adds to it.
    pub(crate) exclude: Vec<u64>,
    pub(crate) capacities: Option<Vec<u32>>,
}

impl Default for RequestOptions {
    fn default() -> RequestOptions {
        RequestOptions {
            multi_pair: true,
            exclude: Vec::new(),
            capacities: None,
        }
    }
}

/// The function-set half of request validation, shared with
/// [`SbStream::load`].
pub(crate) fn validate_functions(dim: usize, functions: &FunctionSet) -> Result<(), MpqError> {
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
/// queue: everything evaluation can fail on, with no evaluation work
/// (it needs only the engine's dimensionality and id bound). Batches and
/// [`crate::service::ServiceClient`] run this *before* enqueueing, so
/// an invalid request is reported to the submitter instead of
/// travelling to a worker first.
pub(crate) fn validate_request(
    engine: &Engine,
    functions: &FunctionSet,
    options: &RequestOptions,
) -> Result<(), MpqError> {
    validate_functions(engine.dim, functions)?;
    if let Some(caps) = &options.capacities {
        // Capacities are indexed by object id; ids are never recycled,
        // so the vector must cover the full id bound even when removals
        // left holes below it.
        let expected = engine.oid_bound() as usize;
        if caps.len() != expected {
            return Err(MpqError::CapacityMismatch {
                expected,
                got: caps.len(),
            });
        }
    }
    Ok(())
}

impl<'e, 'f> MatchRequest<'e, 'f> {
    /// Turn the request into a harness run of `algorithm` — SB, one of
    /// its ablations or one of the paper's competitors — evaluated
    /// directly against the engine: a [`Variant`] keeps the functions,
    /// the exclusions and `multi_pair`, and has no cache key, no stream
    /// and no service. A request that carries capacities is refused when
    /// the variant evaluates.
    pub fn algorithm(self, algorithm: Algorithm) -> Variant<'e, 'f> {
        Variant {
            request: self,
            algorithm,
        }
    }

    /// Report all mutually-best pairs per loop (§IV-C, default `true`)
    /// or only the canonical best — with or without
    /// [`capacities`](MatchRequest::capacities). The matching is the
    /// same; the emission order ([`Matching::pairs`]) and the number of
    /// loops are what change.
    pub fn multi_pair(mut self, multi: bool) -> Self {
        self.options.multi_pair = multi;
        self
    }

    /// Mask out objects (e.g. already-reserved inventory). Excluded
    /// objects are invisible to this request: they are neither assigned
    /// nor allowed to shadow other objects. Accumulates across calls.
    ///
    /// The ids are kept as given, sorted and deduplicated, so their
    /// order and repeats mean nothing; an id the engine has not minted
    /// yet is honoured once it is.
    pub fn exclude<I: IntoIterator<Item = u64>>(mut self, oids: I) -> Self {
        self.options.exclude.extend(oids);
        self.options.exclude.sort_unstable();
        self.options.exclude.dedup();
        self
    }

    /// Per-object capacities (the many-to-one extension): `caps[oid]`
    /// users may share object `oid`. Requires a capacity for every
    /// object id up to the engine's id bound; every other knob, and
    /// [`stream`](MatchRequest::stream), means what it means without
    /// them (see [`crate::capacity`] for the contract). A [`Variant`]
    /// refuses them: only the served SB round takes units.
    pub fn capacities(mut self, caps: &[u32]) -> Self {
        self.options.capacities = Some(caps.to_vec());
        self
    }

    /// Was this request built against `engine`? Services and batches
    /// refuse foreign requests — their workers would otherwise evaluate
    /// them against the wrong inventory.
    pub(crate) fn targets(&self, engine: &Engine) -> bool {
        std::ptr::eq(self.engine, engine)
    }

    /// The engine the request was built against.
    pub(crate) fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Borrow the request's parts: what the service copies into a job
    /// it queues, and what a batch's queue borrows.
    pub(crate) fn parts(&self) -> (&FunctionSet, &RequestOptions) {
        (self.functions, &self.options)
    }

    /// The canonical cache identity of this request: covers the function
    /// rows (bit-exact, in function-id order, with tombstones),
    /// `multi_pair`, the exclusion set (order-insensitively) and the
    /// capacity vector. Pair it with
    /// [`Engine::inventory_version`] to use a
    /// [`ResultCache`](crate::ResultCache) standalone; the
    /// [`EngineService`] computes the same key internally on every
    /// submission.
    pub fn cache_key(&self) -> crate::cache::RequestKey {
        crate::cache::request_key(self.functions, &self.options)
    }

    /// Validate and evaluate the request against the engine's shared
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
    /// state — function-set copy, assigned objects, SB rank-list rows,
    /// search frontiers — from a caller-owned reusable [`Scratch`]. The
    /// scratch never changes what is computed, only how often the
    /// allocator is hit; reuse one per thread across any sequence of
    /// requests.
    pub fn evaluate_with(&self, scratch: &mut Scratch) -> Result<Matching, MpqError> {
        let (matching, _) =
            self.engine
                .evaluate_seeded(self.functions, &self.options, scratch, None)?;
        Ok(matching)
    }

    /// Seed-capable [`MatchRequest::evaluate_with`]: pins, then primes
    /// the run from `seed` when the seed is at the pinned inventory
    /// version — otherwise captures the inventory's [`EvalSeed`] (its
    /// skyline, which can prime *any* later request against the same
    /// inventory) and primes from that. Returns the matching together
    /// with the seed it captured; a run that resumed from `seed`, or
    /// whose pins straddled a mutation and so ran cold, returns `None`.
    ///
    /// Seeded and cold evaluation are score-bit-identical. The
    /// [`EngineService`] keeps one seed per inventory version and primes
    /// every cache miss from it; call this to carry a seed by hand.
    pub fn evaluate_seeded(
        &self,
        scratch: &mut Scratch,
        seed: Option<&EvalSeed>,
    ) -> Result<(Matching, Option<EvalSeed>), MpqError> {
        let engine = self.engine;
        self.validate()?;
        engine.evaluations.fetch_add(1, AtomicOrdering::Relaxed);
        let cell = OnceLock::new();
        let (matching, _) = run_sb_seeded(
            engine.pin(),
            self.functions,
            &self.options,
            SERVED_THRESHOLD,
            scratch,
            seed,
            Some(&cell),
        );
        Ok((matching, cell.into_inner()))
    }

    /// All the request-shape checks evaluation can fail on, with no
    /// evaluation work (see [`validate_request`]).
    pub(crate) fn validate(&self) -> Result<(), MpqError> {
        validate_request(self.engine, self.functions, &self.options)
    }

    /// Progressive SB evaluation: returns a stream that yields stable
    /// pairs as soon as they are identified, reading the shared index
    /// through its own run-scoped I/O sessions. It yields
    /// [`evaluate`](MatchRequest::evaluate)'s pairs in its order.
    pub fn stream(&self) -> Result<SbStream<IoSession<'e>>, MpqError> {
        self.validate()?;
        Ok(stream_on(
            self.engine.pin().0,
            self.functions,
            &self.options,
        ))
    }
}

/// A request turned into a harness run by [`MatchRequest::algorithm`]:
/// one [`Algorithm`] over the request's functions, exclusions and
/// `multi_pair`, evaluated directly against the engine. The figures,
/// the ablations and the cross-algorithm tests are what it is for;
/// nothing serves it — it has no cache key, no stream and no service.
#[derive(Debug)]
pub struct Variant<'e, 'f> {
    request: MatchRequest<'e, 'f>,
    algorithm: Algorithm,
}

impl Variant<'_, '_> {
    /// [`Variant::evaluate_with`] on a fresh [`Scratch`].
    pub fn evaluate(&self) -> Result<Matching, MpqError> {
        self.evaluate_with(&mut Scratch::new())
    }

    /// Validate and run the variant, serving its working state from a
    /// caller-owned reusable [`Scratch`]. Refused with
    /// [`MpqError::UnsupportedRequest`] if the request carried
    /// capacities: only the served SB round takes units.
    pub fn evaluate_with(&self, scratch: &mut Scratch) -> Result<Matching, MpqError> {
        let MatchRequest {
            engine,
            functions,
            options,
        } = &self.request;
        if options.capacities.is_some() {
            return Err(MpqError::UnsupportedRequest(
                "capacities are only supported by the served SB request",
            ));
        }
        validate_functions(engine.dim, functions)?;
        engine.evaluations.fetch_add(1, AtomicOrdering::Relaxed);
        let pins = engine.pin();
        let (src, exclude) = (&pins.0, &options.exclude);
        Ok(match self.algorithm {
            Algorithm::SbRescan => run_rescan_on(src, functions, options, scratch),
            Algorithm::BruteForce => run_incremental_on(src, functions, exclude, scratch),
            Algorithm::BruteForceRestart => run_restart_on(src, functions, exclude, scratch),
            Algorithm::Chain => run_chain_on(&engine.config, src, functions, exclude, scratch),
            sb => {
                let threshold = match sb {
                    Algorithm::SbNaiveThreshold => Some(ThresholdMode::Naive),
                    Algorithm::SbScan => None,
                    _ => SERVED_THRESHOLD,
                };
                run_sb_seeded(pins, functions, options, threshold, scratch, None, None).0
            }
        })
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
    /// scheduling core it drives, in [`crate::service`]).
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use mpq_datagen::WorkloadBuilder;
    use mpq_rtree::RTreeParams;

    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn point(state: &mut u64, dim: usize) -> Vec<f64> {
        (0..dim)
            .map(|_| (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64)
            .collect()
    }

    fn points(n: usize, seed: u64) -> PointSet {
        let w = WorkloadBuilder::new().objects(n).functions(0).dim(3);
        w.seed(seed).build().objects
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, AtomicOrdering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mpq-engine-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Does the engine hold a writers' table?
    fn table(engine: &Engine) -> bool {
        lock(&engine.objects).is_some()
    }

    /// `(fid, oid, score bits)` of every pair, in emission order.
    fn pairs(matching: &Matching, oid_of: impl Fn(u64) -> u64) -> Vec<(u32, u64, u64)> {
        let pair = |p: &crate::Pair| (p.fid, oid_of(p.oid), p.score.to_bits());
        matching.pairs().iter().map(pair).collect()
    }

    /// Everything observable about the inventory against the model: the
    /// count, the id bound, what the trees hold, and the SB matching of
    /// a fresh build over the model's points (id `i` of which is the
    /// model's `i`-th id).
    fn assert_model(engine: &Engine, model: &BTreeMap<u64, Vec<f64>>, mint: u64, step: &str) {
        assert_eq!(engine.n_objects(), model.len(), "{step}");
        assert_eq!(engine.oid_bound(), mint, "{step}");
        let mut held = BTreeMap::new();
        (engine.tree).for_each_point(|oid, p| assert!(held.insert(oid, p.to_vec()).is_none()));
        assert_eq!(&held, model, "{step}");

        let flat: Vec<f64> = model.values().flatten().copied().collect();
        let fresh = PointSet::from_flat(engine.dim(), flat);
        let fresh = Engine::builder().objects(&fresh).build().unwrap();
        let ids: Vec<u64> = model.keys().copied().collect();
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|f| vec![0.1 + 0.15 * f as f64, 0.5, 0.3])
            .collect();
        let functions = FunctionSet::from_rows(3, &rows);
        assert_eq!(
            pairs(&engine.evaluate(&functions).unwrap(), |oid| oid),
            pairs(&fresh.evaluate(&functions).unwrap(), |i| ids[i as usize]),
            "{step}"
        );
    }

    /// A seeded schedule of inserts, removes, updates, checkpoints and
    /// reopens against a `BTreeMap` model, from a build and from a page
    /// file whose header predates the id bound. The engine holds a
    /// writers' table exactly when a remove or update came since it was
    /// built or opened: an insert-only stretch, an evaluation and a
    /// checkpoint never build one.
    #[test]
    fn the_writers_table_tracks_a_model_through_checkpoints_and_reopens() {
        let dim = 3;
        for case in ["built", "legacy"] {
            let dir = tmp_dir(case);
            let objects = points(120, 2010);
            let mut engine = if case == "legacy" {
                // What an engine wrote when the header held only the WAL
                // sequence number.
                let params = RTreeParams::default();
                std::fs::create_dir_all(&dir).unwrap();
                let store = DiskPager::create(&dir.join(PAGE_FILE), params.page_size).unwrap();
                let tree = RTree::bulk_load_in(store, &objects, params);
                tree.checkpoint(&0u64.to_le_bytes()).unwrap();
                Engine::open(&dir).unwrap()
            } else {
                let builder = Engine::builder().objects(&objects);
                builder.data_dir(&dir).build().unwrap()
            };
            let mut model: BTreeMap<u64, Vec<f64>> = (objects.iter())
                .map(|(i, p)| (i as u64, p.to_vec()))
                .collect();
            let mut mint = objects.len() as u64;
            let mut expected = false;
            let mut state = 0x5EEC;
            assert_model(&engine, &model, mint, &format!("{case}: opened"));

            for step in 0..160 {
                let r = xorshift(&mut state);
                // An insert-only stretch first; a reopen is followed by a
                // remove straight away.
                let op = if step < 24 { 0 } else { r % 16 };
                let what = match op {
                    0..=5 => {
                        let p = point(&mut state, dim);
                        assert_eq!(engine.insert_object(&p).unwrap(), mint);
                        model.insert(mint, p);
                        mint += 1;
                        "insert"
                    }
                    6..=8 => {
                        let p = point(&mut state, dim);
                        let oid = *model.keys().nth((r >> 8) as usize % model.len()).unwrap();
                        engine.update_object(oid, &p).unwrap();
                        model.insert(oid, p);
                        expected = true;
                        "update"
                    }
                    9..=12 => {
                        let oid = *model.keys().nth((r >> 8) as usize % model.len()).unwrap();
                        engine.remove_object(oid).unwrap();
                        model.remove(&oid);
                        expected = true;
                        "remove"
                    }
                    13 => {
                        engine.checkpoint().unwrap();
                        "checkpoint"
                    }
                    _ => {
                        if op == 14 {
                            engine.checkpoint().unwrap();
                        }
                        drop(engine);
                        engine = Engine::open(&dir).unwrap();
                        assert!(!table(&engine), "a reopen builds none");
                        let oid = *model.keys().nth((r >> 8) as usize % model.len()).unwrap();
                        engine.remove_object(oid).unwrap();
                        model.remove(&oid);
                        expected = true;
                        "reopen, then remove"
                    }
                };
                let step = format!("{case}: step {step}, {what}");
                assert_eq!(table(&engine), expected, "{step}");
                assert_model(&engine, &model, mint, &step);
            }
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A checkpointed reopen reads no leaf page; the first remove fills
    /// the table from the tree without reading through the buffer pool,
    /// and a second remove finds the same table.
    #[test]
    fn a_reopen_reads_no_leaf_and_the_first_remove_fills_the_table_once() {
        let dir = tmp_dir("reopen");
        let objects = points(20_000, 77);
        drop(Engine::builder().objects(&objects).data_dir(&dir).build());
        let engine = Engine::open(&dir).unwrap();
        let opened = engine.storage_stats();
        assert_eq!((opened.logical, opened.disk_reads), (0, 0), "{opened:?}");
        let functions = FunctionSet::from_rows(3, &[vec![0.2, 0.5, 0.3]]);
        engine.evaluate(&functions).unwrap();
        engine.insert_object(&[0.5, 0.5, 0.5]).unwrap();
        assert!(!table(&engine), "reads and inserts build none");

        let before = engine.storage_stats();
        engine.remove_object(7).unwrap();
        let read = engine.storage_stats().logical - before.logical;
        let pages = engine.page_count() as u64;
        assert!(
            read < pages / 4,
            "a remove reads its path, not {pages} pages: {read}"
        );
        let at = |engine: &Engine| {
            let objects = lock(&engine.objects);
            objects.as_ref().unwrap().get(8).unwrap().as_ptr()
        };
        let filled = at(&engine);
        assert_eq!(lock(&engine.objects).as_ref().unwrap().get(7), None);
        engine.remove_object(9).unwrap();
        assert_eq!(at(&engine), filled, "the second remove keeps the table");
        assert_eq!(engine.n_objects(), 19_999);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pin taken while a mutation sits between its tree change and its
    /// version store names no version, so the seed captured before the
    /// mutation does not prime the run: it returns what a cold run over
    /// the same pins does. Both a removal — whose freed pages the seed's
    /// pruned entries may name — and an insert the seed knows nothing of.
    #[test]
    fn a_pin_inside_a_mutation_trusts_no_seed() {
        let objects = points(3_000, 2009);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|f| vec![0.2 + 0.015 * f as f64, 0.5, 0.3])
            .collect();
        let functions = FunctionSet::from_rows(3, &rows);
        for removal in [true, false] {
            let engine = Engine::builder().objects(&objects).build().unwrap();
            let mut scratch = Scratch::new();
            let request = engine.request(&functions);
            let (before, seed) = request.evaluate_seeded(&mut scratch, None).unwrap();
            let seed = seed.expect("a cold run over stable pins captures");
            let assigned = before.pairs()[0].oid;
            std::thread::scope(|scope| {
                let held = engine.mutations.hold();
                let mutator = scope.spawn(|| match removal {
                    true => engine.remove_object(assigned),
                    false => engine.insert_object(&[1.0, 1.0, 1.0]).map(drop),
                });
                let start = std::time::Instant::now();
                while engine.n_objects() == 3_000 {
                    assert!(start.elapsed().as_secs() < 10, "the tree never changed");
                    std::thread::yield_now();
                }
                assert_eq!(engine.pin().1, None, "removal: {removal}");
                let (seeded, captured) =
                    request.evaluate_seeded(&mut scratch, Some(&seed)).unwrap();
                assert!(captured.is_none(), "an ambiguous pin captures nothing");
                let cold = request.evaluate().unwrap();
                assert_ne!(
                    cold.pairs(),
                    before.pairs(),
                    "the mutation moves the matching"
                );
                assert_eq!(seeded.pairs(), cold.pairs(), "removal: {removal}");
                drop(held);
                mutator.join().unwrap().unwrap();
            });
            assert_eq!(engine.pin().1, Some(engine.inventory_version()));
            assert!(!seed.usable_at(engine.inventory_version()));
        }
    }

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
