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
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use mpq_rtree::bulk::MAX_BULK_LEN;
use mpq_rtree::{
    DiskPager, FaultInjector, FaultPageStore, IoSession, IoStats, MemPager, PageStore, PointSet,
    RTree,
};
use mpq_ta::FunctionSet;

use crate::brute_force::{run_incremental_on, run_restart_on};
use crate::cache::MutationLog;
use crate::chain::run_chain_on;
use crate::error::MpqError;
use crate::matching::{IndexConfig, Matching};
use crate::objects::{validated_keys, ObjectTable};
use crate::sb::{run_sb_seeded, stream_on, SbStream};
use crate::scratch::Scratch;
use crate::seed::{EvalSeed, SeedSlot};
use crate::service::{lock, EngineService, ServiceConfig};
use crate::wal::{Wal, WalRecord};

/// Page file name inside a data directory.
const PAGE_FILE: &str = "pages.mpq";
/// Write-ahead log file name inside a data directory.
const WAL_FILE: &str = "wal.mpq";

/// What the figures and the tests compare: the paper's algorithm and
/// its §IV ablations, all one SB run, and its two competitors, each a
/// loop of its own. A served request runs SB alone;
/// [`MatchRequest::algorithm`] turns a request into a [`Variant`] that
/// runs one of these.
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

    /// Persist the engine under `dir`: index pages go to a disk-backed
    /// pager (`pages.mpq`) and every mutation is logged to a write-ahead
    /// log (`wal.mpq`) before it is applied, so the engine survives a
    /// restart — reopen it with [`Engine::open`]. The directory is
    /// created if missing; any files from a previous engine in it are
    /// superseded. A directory in a form [`Engine::open_with`] refuses —
    /// the `K`-shard layout, or a page file checkpointed without the id
    /// bound — is refused by the build too, untouched.
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
    /// encoding (see `mpq_rtree::bulk`), never the allocating. A
    /// disk-backed build commits the tree as checkpoint zero beside an
    /// empty WAL.
    pub fn build(self) -> Result<Engine, MpqError> {
        let objects = self.objects.ok_or(MpqError::EmptyObjects)?;
        let dir = self.data_dir.as_deref();
        if let Some(dir) = dir {
            refuse_k_shards(dir)?;
            // A page file an open would refuse is not built over either;
            // one that does not open at all is superseded.
            if let Ok((_, extra)) = self.open_pages(dir, None) {
                checkpoint_fields(&extra)?;
            }
        }
        let mut keys = validated_keys(objects)?;
        let tree = (self.index).build_tree_in(self.create_store(dir)?, objects, &mut keys);
        let oid_bound = objects.len() as u64;
        let wal = match dir {
            None => None,
            Some(dir) => {
                // A fresh build supersedes whatever a previous engine
                // left in the directory: discard any stale WAL tail and
                // commit the bulk-loaded tree as checkpoint zero.
                let mut wal = self.open_wal(dir)?.0;
                wal.truncate()?;
                tree.checkpoint(&checkpoint_extra(0, oid_bound))?;
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

    /// The tree checkpointed in the page file under `dir`, with the
    /// extra bytes its checkpoint recorded; page reads go through
    /// `injector`, if given.
    fn open_pages(
        &self,
        dir: &Path,
        injector: Option<&Arc<FaultInjector>>,
    ) -> Result<(RTree, Vec<u8>), MpqError> {
        let config = &self.index;
        let mut store = DiskPager::open(&dir.join(PAGE_FILE), config.page_size)?;
        if let Some(inj) = injector {
            store.attach_injector(Arc::clone(inj));
        }
        Ok(RTree::open(store, config.min_buffer_pages.max(1))?)
    }

    /// Reopen the inventory persisted under `root`, the builder's
    /// [`data_dir`](EngineBuilder::data_dir) (see [`Engine::open_with`]):
    /// load the last checkpointed tree image, then replay every intact
    /// WAL record past the checkpoint's high-water mark into the tree.
    /// The engine mints ids from the bound the checkpoint recorded,
    /// raised past every id the WAL minted.
    fn open(self, root: &Path) -> Result<Engine, MpqError> {
        refuse_k_shards(root)?;
        let (tree, extra) = self.open_pages(root, self.fault_injector.as_ref())?;
        let (ckpt_seq, mut bound) = checkpoint_fields(&extra)?;
        tree.set_buffer_capacity(self.index.buffer_pages_for(tree.page_count()));

        let (mut wal, records) = self.open_wal(root)?;
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
                // else already part of the checkpointed image; the
                // engine stamps the tree with its first version
                apply(&tree, &rec, 0);
            }
        }
        if tree.is_empty() {
            return Err(MpqError::EmptyObjects);
        }
        Ok(Engine::over(tree, Some(wal), bound, self))
    }

    /// Open or build the engine that hosts this inventory. One already
    /// persisted under [`EngineBuilder::data_dir`] is **reopened** (WAL
    /// replay included). Otherwise the inventory is built from
    /// [`EngineBuilder::objects`]. Either way a directory in a form
    /// [`Engine::open_with`] refuses is refused, untouched.
    pub fn open_or_build(self) -> Result<Arc<Engine>, MpqError> {
        let engine = match self.data_dir.clone() {
            Some(dir) if Engine::persisted_at(&dir) => self.open(&dir)?,
            Some(dir) if self.objects.is_none() => {
                refuse_k_shards(&dir)?;
                return Err(MpqError::UnsupportedRequest(
                    "no persisted inventory at data_dir and no objects given",
                ));
            }
            _ => self.build()?,
        };
        Ok(Arc::new(engine))
    }
}

/// The manifest the `K`-shard layout keeps beside its `shard-i/`.
const SHARD_MANIFEST: &str = "shards.mpq";

/// Refuse a directory in the `K`-shard layout: no engine of this
/// version opens, migrates or builds over it.
fn refuse_k_shards(dir: &Path) -> Result<(), MpqError> {
    if dir.join(SHARD_MANIFEST).is_file() {
        return Err(MpqError::UnsupportedRequest(
            "data_dir holds the K-shard layout (shards.mpq beside shard-i/), \
             which is neither opened nor built over; \
             commit cd313ab is the last that migrates it into one tree",
        ));
    }
    Ok(())
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

/// The WAL sequence number and the id bound a checkpoint's extra bytes
/// record. A page file whose extra stops short of the bound is refused.
fn checkpoint_fields(extra: &[u8]) -> Result<(u64, u64), MpqError> {
    let Some((seq, bound)) = extra.get(..16).map(|fields| fields.split_at(8)) else {
        return Err(MpqError::UnsupportedRequest(
            "pages.mpq was checkpointed without the id bound (its header \
             extra stops after the WAL sequence number), which is neither \
             opened nor built over; commit cd313ab is the last that opens it",
        ));
    };
    let field = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
    Ok((field(seq), field(bound)))
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

/// Mutations the engine's log keeps for scoped cache invalidation.
const MUTATIONS_LOGGED: usize = 64;

/// Apply one logged mutation to `tree` as one epoch stamped `version` —
/// the live mutation path and WAL replay alike. `false` if a remove or
/// an update named an entry the tree did not hold.
fn apply(tree: &RTree, record: &WalRecord, version: u64) -> bool {
    let (old, new): (Option<&[f64]>, Option<&[f64]>) = match record {
        WalRecord::Insert { point, .. } => (None, Some(point)),
        WalRecord::Remove { point, .. } => (Some(point), None),
        WalRecord::Update { old, new, .. } => (Some(old), Some(new)),
    };
    tree.apply(record.oid(), old, new, version)
}

/// Storage health of an engine, as its mutations see it.
///
/// The engine is degraded exactly while its WAL is *wedged*: a commit's
/// append failed, its rollback failed too, and the log may hold a frame
/// no caller was told about. A clean failure, one the WAL rolled back,
/// fails only its own mutation. While degraded, mutations are refused
/// with [`MpqError::StorageDegraded`] (the network layer maps this to
/// `503` + `Retry-After`) but **reads keep serving** from the pinned
/// epoch and the result cache. [`Engine::checkpoint`] is the repair: a
/// success restores `Healthy`, and each failure puts the next repair
/// one doubled backoff further out, `Failed` after five in a row.
/// [`Engine::health`] reads the state and [`Engine::retry_after`] the
/// wait until the next repair is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Mutations commit; everything is served.
    #[default]
    Healthy,
    /// The WAL is wedged; mutations are refused until a repair
    /// succeeds. Reads are unaffected.
    Degraded,
    /// Degraded, and the repairs keep failing. Reads are still served.
    Failed,
}

impl HealthState {
    /// Canonical lowercase name (the wire form used by `/healthz` and
    /// `/metrics`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Failed => "failed",
        }
    }

    /// True iff mutations are currently accepted.
    pub fn is_healthy(self) -> bool {
        self == HealthState::Healthy
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The first repair of a wedged WAL is due this long after the wedge;
/// each failed repair doubles the wait, up to [`REPAIR_CAP`].
const REPAIR_BASE: Duration = Duration::from_millis(100);
/// The longest wait between two repairs.
const REPAIR_CAP: Duration = Duration::from_secs(5);
/// Consecutive failed repairs after which the state is
/// [`HealthState::Failed`].
const FAILED_AFTER: u32 = 5;

/// What the engine knows of a wedged WAL.
#[derive(Clone, Copy)]
struct Wedged {
    /// Repairs that failed since the wedge.
    failed_repairs: u32,
    /// When the next repair is due.
    repair_at: Instant,
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
    /// The object R-tree: the engine's one copy of the inventory. Its
    /// published stamp is the inventory version (see
    /// [`Engine::inventory_version`]).
    tree: RTree,
    /// Write-ahead log; present iff the engine is disk-backed.
    wal: Option<Mutex<Wal>>,
    /// Storage health: `Some` exactly while the WAL is wedged (see
    /// [`HealthState`]). A lock of its own, never the WAL's, so a
    /// reader of the state never waits behind an fsync.
    health: Mutex<Option<Wedged>>,
    /// The id mint: ids at or above it have never been assigned.
    /// Removal never recycles an id.
    next_oid: AtomicU64,
    /// Recent mutations by the version each minted, for scoped cache
    /// invalidation.
    mutations: MutationLog,
    /// Evaluations actually run against this engine (see
    /// [`Engine::evaluation_count`]).
    evaluations: AtomicU64,
    /// Data directory; present iff the engine is disk-backed.
    data_dir: Option<PathBuf>,
    /// Serializes mutations (minting an id and logging it must be one
    /// step) and checkpoints; readers never take it. It guards the
    /// writers' index: the point of every live object by id, for the
    /// removes and updates that must name a tree entry by its point.
    /// `None` until the first of them fills it from the tree (see
    /// [`crate::objects`]); every mutation keeps it current from then on.
    mutator: Mutex<Option<ObjectTable>>,
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
    /// ids from `next_oid` on, at a freshly minted inventory version.
    fn over(
        mut tree: RTree,
        wal: Option<Wal>,
        next_oid: u64,
        builder: EngineBuilder<'_>,
    ) -> Engine {
        tree.set_stamp(NEXT_INVENTORY_VERSION.fetch_add(1, AtomicOrdering::Relaxed));
        Engine {
            dim: tree.dim(),
            config: builder.index,
            tree,
            wal: wal.map(Mutex::new),
            health: Mutex::new(None),
            next_oid: AtomicU64::new(next_oid),
            mutations: MutationLog::new(MUTATIONS_LOGGED),
            evaluations: AtomicU64::new(0),
            data_dir: builder.data_dir,
            mutator: Mutex::new(None),
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
    /// It is the stamp the tree publishes beside its root, so a version
    /// and the inventory it names are read together: one committed
    /// version, whole, never a mutation's half.
    pub fn inventory_version(&self) -> u64 {
        self.tree.stamp()
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

    /// Does `dir` hold a persisted engine — i.e. would [`Engine::open`]
    /// find a page file to load? Lets callers (the CLI's `serve
    /// --data-dir`) decide between opening and building fresh without
    /// hard-coding the on-disk file names.
    pub fn persisted_at(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(PAGE_FILE).is_file()
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
    /// One layout is opened: that pair, its checkpoint recording the WAL
    /// sequence number and the id bound. Two older forms are refused
    /// with [`MpqError::UnsupportedRequest`] before anything under `dir`
    /// is written or removed: the `K`-shard layout (a `shards.mpq`
    /// manifest beside `shard-i/`), and a page file whose checkpoint
    /// stops after the sequence number. Commit `cd313ab` is the last
    /// that opens either, migrating the first into one tree.
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
    /// keep reading their pinned epoch) and publishes the object together
    /// with the new [`Engine::inventory_version`].
    pub fn insert_object(&self, point: &[f64]) -> Result<u64, MpqError> {
        let mut table = lock(&self.mutator);
        let oid = self.next_oid.load(AtomicOrdering::Relaxed);
        self.check_storage()?;
        validate_point(oid, self.dim, point)?;
        let point = Box::from(point);
        self.commit(&mut table, WalRecord::Insert { oid, point })?;
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
        let mut table = lock(&self.mutator);
        self.check_storage()?;
        let point = self.point(&mut table, oid);
        if point.is_some() && self.n_objects() == 1 {
            return Err(MpqError::UnsupportedRequest(
                "removing the last object would empty the inventory",
            ));
        }
        let point = point.ok_or(MpqError::UnknownObject { oid })?;
        self.commit(&mut table, WalRecord::Remove { oid, point })
    }

    /// Move an existing object to a new point (same id, new
    /// coordinates): a single logical mutation — one WAL record, one
    /// version bump, one tree epoch that removes and re-inserts it.
    pub fn update_object(&self, oid: u64, point: &[f64]) -> Result<(), MpqError> {
        let mut table = lock(&self.mutator);
        self.check_storage()?;
        validate_point(oid, self.dim, point)?;
        let old = self.point(&mut table, oid);
        let old = old.ok_or(MpqError::UnknownObject { oid })?;
        let new = Box::from(point);
        self.commit(&mut table, WalRecord::Update { oid, old, new })
    }

    /// The point stored for `oid`, if the engine holds it — read from
    /// the writers' index `table`, which the first remove or update
    /// fills from the tree here.
    fn point(&self, table: &mut Option<ObjectTable>, oid: u64) -> Option<Box<[f64]>> {
        let table = table.get_or_insert_with(|| ObjectTable::from_tree(&self.tree));
        table.get(oid).map(Box::from)
    }

    /// Refuse mutations while the storage is degraded (a failed WAL
    /// rollback left the log wedged). Cleared by a successful
    /// [`Engine::checkpoint`].
    fn check_storage(&self) -> Result<(), MpqError> {
        if lock(&self.health).is_some() {
            return Err(MpqError::StorageDegraded);
        }
        Ok(())
    }

    /// Commit one mutation, with the mutator lock held and its writers'
    /// index `table`, in this order: the one [`WalRecord`] is durably
    /// appended to the WAL; a version is minted; the record is logged
    /// under it; the tree applies it as one epoch that publishes the
    /// version beside its root; the writers' index follows. A reader
    /// therefore pins the version before the mutation or the one after
    /// it, and whatever version it reads, the log already covers.
    ///
    /// The append comes *before* the in-memory state changes: if it or
    /// its fsync fails, the record is rolled back off the log and the
    /// mutation is reported as [`MpqError::Io`] without having been
    /// applied; the next mutation is attempted as usual. If even the
    /// rollback fails, the WAL is wedged and the engine is degraded (see
    /// [`HealthState`]): mutations are refused with
    /// [`MpqError::StorageDegraded`] until a successful
    /// [`Engine::checkpoint`] truncates (and thereby repairs) the log.
    fn commit(&self, table: &mut Option<ObjectTable>, record: WalRecord) -> Result<(), MpqError> {
        if let Some(wal) = &self.wal {
            let mut wal = lock(wal);
            if let Err(e) = wal.append_sync(&record) {
                self.record_health(&wal);
                return Err(e.into());
            }
        }
        let version = NEXT_INVENTORY_VERSION.fetch_add(1, AtomicOrdering::Relaxed);
        self.mutations.record(version, record.clone());
        let applied = apply(&self.tree, &record, version);
        debug_assert!(
            applied,
            "object table and tree disagree on oid {}",
            record.oid()
        );
        if let Some(table) = table {
            match record {
                WalRecord::Remove { oid, .. } => {
                    table.remove(oid);
                }
                WalRecord::Insert { oid, point: new } | WalRecord::Update { oid, new, .. } => {
                    table.insert(oid, &new)
                }
            }
        }
        Ok(())
    }

    /// Bring the health record in line with `wal` after a failed commit
    /// or a checkpoint: healthy while the log is not wedged; on a fresh
    /// wedge the first repair is due [`REPAIR_BASE`] later; a repair
    /// that left the log wedged pushes the next one a doubled backoff
    /// out (capped at [`REPAIR_CAP`]).
    fn record_health(&self, wal: &Wal) {
        let mut health = lock(&self.health);
        *health = match (*health, wal.is_wedged()) {
            (_, false) => None,
            (None, true) => Some(Wedged {
                failed_repairs: 0,
                repair_at: Instant::now() + REPAIR_BASE,
            }),
            (Some(w), true) => {
                let failed_repairs = w.failed_repairs + 1;
                let backoff = REPAIR_BASE.saturating_mul(1 << failed_repairs.min(16));
                Some(Wedged {
                    failed_repairs,
                    repair_at: Instant::now() + backoff.min(REPAIR_CAP),
                })
            }
        };
    }

    /// The engine's storage health (see [`HealthState`]). Reads keep
    /// serving the last committed snapshot whatever it says.
    pub fn health(&self) -> HealthState {
        match *lock(&self.health) {
            None => HealthState::Healthy,
            Some(w) if w.failed_repairs >= FAILED_AFTER => HealthState::Failed,
            Some(_) => HealthState::Degraded,
        }
    }

    /// How long a refused mutation should wait before it is retried:
    /// the time until the next repair is due. Zero when healthy, and
    /// once a repair is due.
    pub fn retry_after(&self) -> Duration {
        lock(&self.health).map_or(Duration::ZERO, |w| {
            w.repair_at.saturating_duration_since(Instant::now())
        })
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
    /// in-memory engines. A checkpoint is also the repair of a degraded
    /// engine and records its outcome: a success wipes any phantom
    /// record a failed rollback left behind and restores
    /// [`HealthState::Healthy`]; a failure schedules the next repair
    /// (see [`Engine::retry_after`]).
    pub fn checkpoint(&self) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let mut wal = lock(wal);
        let extra = checkpoint_extra(wal.last_seq(), self.oid_bound());
        let result = self.tree.checkpoint(&extra).and_then(|()| wal.truncate());
        self.record_health(&wal);
        Ok(result?)
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
    /// network front-end can stream requests in as they arrive — the one
    /// way to run many requests. Shorthand for
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
    /// the inventory version published beside it: one committed
    /// version, read under the tree's one state lock.
    pub(crate) fn pin(&self) -> (IoSession<'_>, u64) {
        let pin = IoSession::new(&self.tree);
        let version = pin.stamp();
        (pin, version)
    }

    /// The served evaluation path: validate, pin the tree, run SB over
    /// the pin. With a `slot`, the run primes from the seed cell of the
    /// version its pin read — building the seed if the cell is empty,
    /// waiting if another run is building it — and a pin older than the
    /// slot's cell runs cold (see [`crate::seed`]). Beside the matching:
    /// the version the pin read, and whether the run resumed from a seed
    /// another run built.
    pub(crate) fn evaluate_seeded(
        &self,
        functions: &FunctionSet,
        options: &RequestOptions,
        scratch: &mut Scratch,
        slot: Option<&SeedSlot>,
    ) -> Result<(Matching, u64, bool), MpqError> {
        validate_request(self, functions, options)?;
        self.evaluations.fetch_add(1, AtomicOrdering::Relaxed);
        let (pins, version) = self.pin();
        let cell = slot.and_then(|slot| slot.cell(version));
        let cell = cell.as_ref().map(|cell| &cell.1);
        let (matching, resumed) = run_sb_seeded(
            (pins, version),
            functions,
            options,
            Algorithm::Sb,
            scratch,
            None,
            cell,
        );
        Ok((matching, version, resumed))
    }
}

/// One served evaluation against a prepared [`Engine`], configured
/// fluently — the only request builder, and the one request type the
/// cache, the service, streams and the wire see. It runs SB over its
/// functions, exclusions, capacities and `multi_pair`.
/// [`MatchRequest::algorithm`] turns it into a harness [`Variant`]
/// instead.
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

    /// Was this request built against `engine`? A service refuses
    /// foreign requests — its workers would otherwise evaluate them
    /// against the wrong inventory.
    pub(crate) fn targets(&self, engine: &Engine) -> bool {
        std::ptr::eq(self.engine, engine)
    }

    /// Borrow the request's parts: what the service copies into a job
    /// it queues.
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
    /// every [`EngineService`] worker does) skips the per-run
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
        let (matching, ..) =
            self.engine
                .evaluate_seeded(self.functions, &self.options, scratch, None)?;
        Ok(matching)
    }

    /// Seed-capable [`MatchRequest::evaluate_with`]: pins one committed
    /// inventory version, then primes the run from `seed` if the seed is
    /// at that version — otherwise captures the inventory's [`EvalSeed`]
    /// (its skyline, which can prime *any* later request against the
    /// same inventory) and primes from that. Returns the matching
    /// together with the seed it captured; a run that resumed from
    /// `seed` returns `None`.
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
            Algorithm::Sb,
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
            Algorithm::BruteForce => run_incremental_on(src, functions, exclude, scratch),
            Algorithm::BruteForceRestart => run_restart_on(src, functions, exclude, scratch),
            Algorithm::Chain => run_chain_on(&engine.config, src, functions, exclude, scratch),
            sb => run_sb_seeded(pins, functions, options, sb, scratch, None, None).0,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use mpq_datagen::WorkloadBuilder;
    use mpq_rtree::{FaultKind, FaultOp};

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
        lock(&engine.mutator).is_some()
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
    /// reopens against a `BTreeMap` model. The engine holds a writers'
    /// table exactly when a remove or update came since it was built or
    /// opened: an insert-only stretch, an evaluation and a checkpoint
    /// never build one.
    #[test]
    fn the_writers_table_tracks_a_model_through_checkpoints_and_reopens() {
        let dim = 3;
        let dir = tmp_dir("writers");
        let objects = points(120, 2010);
        let builder = Engine::builder().objects(&objects);
        let mut engine = builder.data_dir(&dir).build().unwrap();
        let mut model: BTreeMap<u64, Vec<f64>> = (objects.iter())
            .map(|(i, p)| (i as u64, p.to_vec()))
            .collect();
        let mut mint = objects.len() as u64;
        let mut expected = false;
        let mut state = 0x5EEC;
        assert_model(&engine, &model, mint, "built");

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
            let step = format!("step {step}, {what}");
            assert_eq!(table(&engine), expected, "{step}");
            assert_model(&engine, &model, mint, &step);
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
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
            let objects = lock(&engine.mutator);
            objects.as_ref().unwrap().get(8).unwrap().as_ptr()
        };
        let filled = at(&engine);
        assert_eq!(lock(&engine.mutator).as_ref().unwrap().get(7), None);
        engine.remove_object(9).unwrap();
        assert_eq!(at(&engine), filled, "the second remove keeps the table");
        assert_eq!(engine.n_objects(), 19_999);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pin taken while a commit is held at its mutation-log entry —
    /// past its WAL append, before its tree epoch — reads the version
    /// before the mutation and that version's tree, so the seed captured
    /// at that version primes it and the run returns the pre-mutation
    /// matching. Once the commit publishes, the seed is stale. Both a
    /// removal, whose freed pages the seed's pruned entries may name,
    /// and an insert the seed knows nothing of.
    #[test]
    fn a_pin_inside_a_mutation_reads_the_version_before_it() {
        let objects = points(3_000, 2009);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|f| vec![0.2 + 0.015 * f as f64, 0.5, 0.3])
            .collect();
        let functions = FunctionSet::from_rows(3, &rows);
        for removal in [true, false] {
            let dir = tmp_dir("pin-window");
            let builder = Engine::builder().objects(&objects).data_dir(&dir);
            let engine = builder.build().unwrap();
            let version = engine.inventory_version();
            let mut scratch = Scratch::new();
            let request = engine.request(&functions);
            let (before, seed) = request.evaluate_seeded(&mut scratch, None).unwrap();
            let seed = seed.expect("a cold run captures");
            let assigned = before.pairs()[0].oid;
            std::thread::scope(|scope| {
                let held = engine.mutations.hold();
                let mutator = scope.spawn(|| match removal {
                    true => engine.remove_object(assigned),
                    false => engine.insert_object(&[1.0, 1.0, 1.0]).map(drop),
                });
                let start = std::time::Instant::now();
                while engine.wal_bytes() == 0 {
                    assert!(start.elapsed().as_secs() < 10, "the WAL never grew");
                    std::thread::yield_now();
                }
                assert_eq!(engine.pin().1, version, "removal: {removal}");
                let (seeded, captured) =
                    request.evaluate_seeded(&mut scratch, Some(&seed)).unwrap();
                assert!(captured.is_none(), "the held seed primes the run");
                assert_eq!(pairs(&seeded, |oid| oid), pairs(&before, |oid| oid));
                assert_eq!(engine.n_objects(), 3_000, "removal: {removal}");
                drop(held);
                mutator.join().unwrap().unwrap();
            });
            assert!(engine.inventory_version() > version);
            assert_eq!(engine.pin().1, engine.inventory_version());
            assert!(!seed.usable_at(engine.inventory_version()));
            let after = request.evaluate().unwrap();
            assert_ne!(
                after.pairs(),
                before.pairs(),
                "the mutation moves the matching"
            );
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
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
    fn checkpoint_extra_round_trips() {
        assert_eq!(checkpoint_fields(&checkpoint_extra(7, 101)), Ok((7, 101)));
    }

    /// A disk engine whose WAL the next insert wedges (its append fsync
    /// fails, then its rollback), with every page fsync failing from
    /// then on, so each repair fails until the injector is cleared.
    fn wedged_engine(tag: &str) -> (Engine, Arc<FaultInjector>, PathBuf) {
        let dir = tmp_dir(tag);
        let inj = FaultInjector::shared();
        let engine = Engine::builder()
            .objects(&points(40, 5))
            .data_dir(&dir)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap();
        assert_eq!(engine.health(), HealthState::Healthy);
        assert_eq!(engine.retry_after(), Duration::ZERO);
        wedge(&engine, &inj);
        inj.fail_from(FaultOp::PageSync, 0, FaultKind::Error);
        (engine, inj, dir)
    }

    fn wedge(engine: &Engine, inj: &FaultInjector) {
        inj.fail_nth(FaultOp::WalSync, 0, FaultKind::Error);
        inj.fail_nth(FaultOp::WalRollback, 0, FaultKind::Error);
        assert!(matches!(
            engine.insert_object(&[0.5; 3]),
            Err(MpqError::Io(_))
        ));
        assert_eq!(engine.health(), HealthState::Degraded);
        let first = engine.retry_after();
        assert!(first <= REPAIR_BASE, "{first:?}");
    }

    #[test]
    fn health_degrades_and_escalates_after_five_failed_repairs() {
        let (engine, _inj, dir) = wedged_engine("escalate");
        for _ in 1..FAILED_AFTER {
            assert!(engine.checkpoint().is_err());
            assert_eq!(engine.health(), HealthState::Degraded);
        }
        assert!(engine.checkpoint().is_err());
        assert_eq!(engine.health(), HealthState::Failed);
        assert!(matches!(
            engine.insert_object(&[0.5; 3]),
            Err(MpqError::StorageDegraded)
        ));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_backoff_doubles_and_caps() {
        let (engine, _inj, dir) = wedged_engine("backoff");
        let mut last = engine.retry_after();
        for failed in 1..=8 {
            assert!(engine.checkpoint().is_err());
            let wait = engine.retry_after();
            assert!(wait <= REPAIR_CAP, "repair {failed}: {wait:?}");
            if failed < 6 {
                assert!(wait > last, "repair {failed}: {wait:?} after {last:?}");
            } else {
                assert!(wait > REPAIR_CAP / 2, "repair {failed}: {wait:?}");
            }
            last = wait;
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_a_successful_repair_resets_the_count() {
        let (engine, inj, dir) = wedged_engine("reset");
        for _ in 0..FAILED_AFTER {
            assert!(engine.checkpoint().is_err());
        }
        assert_eq!(engine.health(), HealthState::Failed);
        inj.clear();
        engine.checkpoint().unwrap();
        assert_eq!(engine.health(), HealthState::Healthy);
        assert_eq!(engine.retry_after(), Duration::ZERO);
        engine.insert_object(&[0.5; 3]).unwrap();

        // The count restarted: a new wedge is one backoff from repair,
        // and one failed repair leaves it degraded, not failed.
        wedge(&engine, &inj);
        inj.fail_from(FaultOp::PageSync, 0, FaultKind::Error);
        assert!(engine.checkpoint().is_err());
        assert_eq!(engine.health(), HealthState::Degraded);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
