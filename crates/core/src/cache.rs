//! Cross-request result caching: a canonical request key and a bounded,
//! inventory-versioned LRU over finished [`Matching`]s.
//!
//! The paper's premise is that *many* users' preference queries arrive
//! against one shared inventory — and real multi-user traffic is
//! repeat-heavy: identical function sets recur constantly (the same
//! search form resubmitted, the same default weights, polling clients).
//! Evaluation is deterministic and the engine's index is immutable, so
//! an identical request against the same inventory **must** produce the
//! bit-identical matching — which makes the pair `(request key,
//! inventory version)` a sound cache key with no staleness hazard
//! beyond inventory replacement.
//!
//! Two layers use this module:
//!
//! * [`ResultCache`] — the bounded LRU itself (entry- and byte-capped),
//!   usable standalone. Every entry is stamped with the
//!   [`Engine::inventory_version`](crate::Engine::inventory_version) it
//!   was computed against; a lookup under a different version is a miss
//!   (and drops the stale entry), so a cache outliving an engine rebuild
//!   can never serve results from the old inventory.
//! * the [`service`](crate::service) layer — consults a `ResultCache`
//!   before enqueueing and adds **in-flight dedupe** on top: a second
//!   identical submission attaches to the first job instead of paying a
//!   queue slot and a duplicate evaluation.
//!
//! The key ([`RequestKey`]) is *canonical*: it covers the function-set
//! rows (weight bits, in function-id order, with their tombstones), the
//! request's one knob (`multi_pair` — a served request is SB alone), the
//! exclusion set (**order-insensitively** — the request
//! keeps it sorted and deduplicated from the start, and the key copies
//! that list), and the capacity vector. It is one slice of words, in
//! this order:
//!
//! | words                 | what                                             |
//! |-----------------------|--------------------------------------------------|
//! | 2                     | `dim`, the number of functions `n`               |
//! | ⌈`n` / 64⌉            | the tombstones: bit `fid % 64` of word `fid / 64` set iff `fid` is alive |
//! | `n` × `dim`           | the weights' bits, row by row                    |
//! | 1                     | `multi_pair`                                     |
//! | 1 + exclusions        | their count, then the sorted ids                 |
//! | 1, or 2 + capacities  | 0 for none; else 1, their count, the vector      |
//!
//! Its hash is taken a word at a time (a multiply-rotate step per word
//! and a final avalanche), deterministic across processes.
//! Equality compares the full key material, not just the 64-bit hash,
//! so a hash collision can never surface a wrong cached matching — the
//! bit-identical guarantee survives adversarial inputs.
//!
//! An entry holds its key — shared, never copied: the service's
//! dedupe index, its queued job and the entry hold one `Arc` — and its
//! matching's pairs as three columns: the `u32` function ids, the
//! object ids as `u32` when every one fits and as `u64` otherwise, and
//! the `f64` scores, 16 or 20 bytes a pair where a `Pair` takes 24. A
//! hit rebuilds them into one `Vec<Pair>`. An entry's counted bytes are
//! the heap it frees when it leaves: the key's `Arc` and material, and
//! the columns. On the ledger's 1 000-function, 4-d requests that is
//! about 32 KB of key and 16 KB of pairs.
//!
//! The cache holds results alone. The inventory's seed, which primes
//! every miss, is not a result and lives beside the cache (see
//! [`crate::seed`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use mpq_ta::{linear_score, FunctionSet};

use crate::engine::RequestOptions;
use crate::matching::{Matching, Pair, RunMetrics};
use crate::seed::EvalSeed;
use crate::service::lock;
use crate::wal::WalRecord;

/// The words a key holds between the function rows and the exclusion
/// count: one per knob of [`RequestOptions`], `multi_pair` alone.
/// [`request_key`] writes them and `KeyView::parse` skips them, both by
/// this one count.
const KNOB_WORDS: usize = 1;

/// The knob words of `options`, in key order.
fn knob_words(options: &RequestOptions) -> [u64; KNOB_WORDS] {
    [u64::from(options.multi_pair)]
}

/// A canonical, collision-proof identity of one evaluation request:
/// everything that can change the resulting [`Matching`], and nothing
/// that cannot.
///
/// Build one with [`MatchRequest::cache_key`](crate::MatchRequest::cache_key).
/// Two requests have equal keys **iff** evaluating them against the same
/// inventory is guaranteed to produce bit-identical matchings: the
/// function rows (bit-exact weights, in function-id order, including
/// tombstones), `multi_pair`, the exclusion set
/// (compared as a set — insertion order is irrelevant) and the capacity
/// vector all agree. Equality compares the full material, so the
/// precomputed hash only accelerates lookups — it can never cause a
/// false hit.
///
/// The material is one boxed slice of words, sized exactly: the
/// tombstones are a bitmap (16 words for 1 000 functions), followed by
/// the weights' bits and the options (see the [module docs](self) for
/// the layout). The hash is taken over it a word at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestKey {
    hash: u64,
    material: Box<[u64]>,
}

impl std::hash::Hash for RequestKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl RequestKey {
    /// The heap a cache entry's key holds: the `Arc`'s one allocation
    /// (its two counts and the key) and the material.
    fn shared_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<RequestKey>()
            + std::mem::size_of_val(&*self.material)
    }
}

/// Build the canonical key of `(functions, options)` — see
/// [`RequestKey`] for what it covers. The inventory version is *not*
/// part of the key; it stamps cache entries instead
/// ([`ResultCache::insert_vec_seeded`]), so one cache can safely span
/// engine rebuilds, two services compute the identical key for the
/// identical request, and version skew shows up
/// as entry-stamp mismatches (catch-up-able) — never as silently
/// divergent key spaces.
pub(crate) fn request_key(functions: &FunctionSet, options: &RequestOptions) -> RequestKey {
    let (n, dim) = (functions.len(), functions.dim());
    let caps_words = options.capacities.as_ref().map_or(1, |caps| 2 + caps.len());
    let len = 2 + n.div_ceil(64) + n * dim + KNOB_WORDS + 1 + options.exclude.len() + caps_words;
    let mut m: Vec<u64> = Vec::with_capacity(len);

    // Function rows, in function-id order: ids are semantic (a matching
    // names them), so row order is part of the identity — but exclusion
    // order below is not.
    m.push(dim as u64);
    m.push(n as u64);
    m.extend((0..n.div_ceil(64)).map(|word| {
        let fids = word * 64..(n.min(word * 64 + 64));
        fids.filter(|&fid| functions.is_alive(fid as u32))
            .fold(0u64, |bits, fid| bits | (1 << (fid % 64)))
    }));
    for fid in 0..n as u32 {
        m.extend(functions.weights(fid).iter().map(|w| w.to_bits()));
    }

    m.extend(knob_words(options));

    // Exclusions are a set, already canonical: `MatchRequest::exclude`
    // keeps them sorted and deduplicated, so two identical requests key
    // alike and `KeyView::excludes`' binary search can rely on the list.
    m.push(options.exclude.len() as u64);
    m.extend_from_slice(&options.exclude);

    match &options.capacities {
        None => m.push(0),
        Some(caps) => {
            m.push(1);
            m.push(caps.len() as u64);
            m.extend(caps.iter().map(|&c| u64::from(c)));
        }
    }
    debug_assert_eq!(m.len(), len, "the key is sized exactly");

    RequestKey {
        hash: word_hash(&m),
        material: m.into_boxed_slice(),
    }
}

/// A hash of `words` taken a word at a time: the multiply-rotate step
/// of FxHash per word, then the length and murmur3's 64-bit finalizer,
/// so every input bit reaches every output bit. It has no random key,
/// so a key hashes alike in every process (stable for logging and
/// cross-run comparison).
fn word_hash(words: &[u64]) -> u64 {
    const STEP: u64 = 0x517c_c1b7_2722_0a95;
    let mut hash = words.iter().fold(0u64, |hash, &word| {
        (hash.rotate_left(5) ^ word).wrapping_mul(STEP)
    });
    hash ^= words.len() as u64;
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// A bounded ring of recent `(version, record)` mutations: the
/// engine's one log, read by the caches serving it.
///
/// Each committed mutation mints the engine's next inventory version
/// and records its [`WalRecord`] here. [`ResultCache::get_with_logs`]
/// uses the window to *catch entries up* across versions instead of
/// treating every version change as a full invalidation: an entry
/// whose result provably does not depend on the mutated objects is
/// restamped and served. The ring is bounded; entries older than the
/// window fall back to the conservative drop.
#[derive(Debug)]
pub(crate) struct MutationLog {
    inner: Mutex<MutationLogInner>,
}

#[derive(Debug)]
struct MutationLogInner {
    /// `(version_after_commit, record)`, oldest first.
    events: VecDeque<(u64, WalRecord)>,
    cap: usize,
    /// Highest version dropped from the front of the ring (0 = nothing
    /// dropped): windows starting before it are incomplete.
    truncated_at: u64,
}

impl MutationLog {
    /// A log retaining the most recent `cap` mutations (clamped to ≥ 1).
    pub(crate) fn new(cap: usize) -> MutationLog {
        MutationLog {
            inner: Mutex::new(MutationLogInner {
                events: VecDeque::new(),
                cap: cap.max(1),
                truncated_at: 0,
            }),
        }
    }

    /// Record a committed mutation: `version` is the inventory version
    /// the commit published.
    pub(crate) fn record(&self, version: u64, record: WalRecord) {
        let mut inner = lock(&self.inner);
        while inner.events.len() >= inner.cap {
            if let Some((v, _)) = inner.events.pop_front() {
                inner.truncated_at = v;
            }
        }
        inner.events.push_back((version, record));
    }

    /// Does `survives` hold for every mutation with a version in
    /// `(since, upto]`, visited oldest first under the log's lock? Also
    /// `false` if the ring no longer covers the whole window (the caller
    /// must then fall back to full invalidation).
    fn all_between(&self, since: u64, upto: u64, survives: impl FnMut(&WalRecord) -> bool) -> bool {
        let inner = lock(&self.inner);
        let window = inner
            .events
            .iter()
            .filter(|(v, _)| *v > since && *v <= upto);
        since >= inner.truncated_at && window.map(|(_, record)| record).all(survives)
    }

    /// Hold the log's lock until the guard drops: a mutation committed
    /// meanwhile stops after its WAL append and its version's minting,
    /// before its tree publishes anything.
    #[cfg(test)]
    pub(crate) fn hold(&self) -> impl Sized + '_ {
        lock(&self.inner)
    }
}

/// A read-only view over a [`RequestKey`]'s material: the decoded
/// tombstones, function weights and exclusion set, which scoped
/// invalidation needs to reason about whether a mutation can affect the
/// cached result.
struct KeyView<'k> {
    dim: usize,
    n_fns: usize,
    alive: &'k [u64],
    weights: &'k [u64],
    excl: &'k [u64],
    has_caps: bool,
}

impl<'k> KeyView<'k> {
    fn parse(material: &'k [u64]) -> Option<KeyView<'k>> {
        let dim = usize::try_from(*material.first()?).ok()?;
        let n_fns = usize::try_from(*material.get(1)?).ok()?;
        let weights_at = 2 + n_fns.div_ceil(64);
        let rows_end = weights_at.checked_add(n_fns.checked_mul(dim)?)?;
        // rows, then the knob words, then the exclusion count
        let n_excl_at = rows_end.checked_add(KNOB_WORDS)?;
        let n_excl = usize::try_from(*material.get(n_excl_at)?).ok()?;
        let excl = material.get(n_excl_at + 1..(n_excl_at + 1).checked_add(n_excl)?)?;
        let has_caps = *material.get(n_excl_at + 1 + n_excl)? != 0;
        Some(KeyView {
            dim,
            n_fns,
            alive: &material[2..weights_at],
            weights: &material[weights_at..rows_end],
            excl,
            has_caps,
        })
    }

    fn is_alive(&self, fid: usize) -> bool {
        (self.alive[fid / 64] >> (fid % 64)) & 1 != 0
    }

    /// Score of function `fid` on `point`: the weights are stored
    /// bit-exact and scored by the working set's kernel, so this is
    /// [`FunctionSet::score`] to the bit.
    fn score(&self, fid: usize, point: &[f64]) -> f64 {
        let weights = &self.weights[fid * self.dim..(fid + 1) * self.dim];
        linear_score(weights.iter().map(|&bits| f64::from_bits(bits)), point)
    }

    /// Sorted-set membership test over the key's exclusions.
    fn excludes(&self, oid: u64) -> bool {
        self.excl.binary_search(&oid).is_ok()
    }
}

/// Does the cached `matching` for `key` provably survive the mutation
/// `record` unchanged?
///
/// The rules are exact consequences of the canonical greedy (pick the
/// globally best remaining pair, `(score desc, fid asc, oid asc)`):
///
/// * **Remove**: deleting an object the matching never assigned cannot
///   change any greedy pick (a non-maximal candidate was removed).
/// * **Insert**: if every alive function is matched and each function's
///   assigned pair [`Pair::beats`] its candidate pair with the new
///   object, the new object is never the global maximum at any step.
/// * **Update** is remove-then-insert: the object must be unassigned
///   *and* beaten at its new position.
/// * An object the request excludes is invisible: any mutation of it
///   survives trivially.
/// * Capacitated requests never survive (their greedy consumes capacity
///   units; the pairwise argument above does not apply).
fn survives_event(key: &RequestKey, matching: &PackedMatching, record: &WalRecord) -> bool {
    let Some(view) = KeyView::parse(&key.material) else {
        return false;
    };
    if view.has_caps {
        return false;
    }
    let assigned = |oid: u64| matching.pairs().any(|p| p.oid == oid);
    match record {
        WalRecord::Remove { oid, .. } => view.excludes(*oid) || !assigned(*oid),
        WalRecord::Insert { oid, point } => {
            view.excludes(*oid) || beaten_everywhere(&view, matching, *oid, point)
        }
        WalRecord::Update { oid, new, .. } => {
            view.excludes(*oid)
                || (!assigned(*oid) && beaten_everywhere(&view, matching, *oid, new))
        }
    }
}

/// True iff every alive function is matched and its assigned pair beats
/// the candidate pair `(fid, oid, score(fid, point))` — the condition
/// under which the new/moved object can never win a greedy round.
fn beaten_everywhere(
    view: &KeyView<'_>,
    matching: &PackedMatching,
    oid: u64,
    point: &[f64],
) -> bool {
    if point.len() != view.dim {
        return false;
    }
    let mut by_fid: Vec<Option<Pair>> = vec![None; view.n_fns];
    for p in matching.pairs() {
        if let Some(slot) = by_fid.get_mut(p.fid as usize) {
            *slot = Some(p);
        }
    }
    for (fid, assigned) in by_fid.into_iter().enumerate() {
        if !view.is_alive(fid) {
            continue;
        }
        let Some(assigned) = assigned else {
            // an unmatched function would grab the new object
            return false;
        };
        let candidate = Pair {
            fid: fid as u32,
            oid,
            score: view.score(fid, point),
        };
        if !assigned.beats(&candidate) {
            return false;
        }
    }
    true
}

/// Rolling counters of one cache (embedded in
/// [`ServiceMetrics::cache`](crate::service::ServiceMetrics)).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheMetrics {
    /// `false` when the service runs with caching disabled
    /// (`cache_capacity == 0`); all counters stay zero.
    pub enabled: bool,
    /// Lookups served straight from the cache.
    pub hits: u64,
    /// Lookups that found nothing (or a stale inventory version) and had
    /// to evaluate. In-flight dedupe attaches are misses at the cache
    /// level (counted in `attaches` too).
    pub misses: u64,
    /// Submissions that attached to an identical queued job instead
    /// of enqueueing a duplicate evaluation (service layer only).
    pub attaches: u64,
    /// Results stored.
    pub insertions: u64,
    /// Entries dropped to respect the entry/byte bounds (stale-version
    /// entries dropped on lookup count here too).
    pub evictions: u64,
    /// Entries restamped across inventory versions by scoped
    /// invalidation (`ResultCache::get_with_logs`): the mutation log
    /// proved the cached result unaffected, so the entry was caught up
    /// instead of dropped.
    pub revalidations: u64,
    /// Exact misses whose evaluation resumed from a seed another run
    /// built instead of running cold (see [`crate::seed`]). The service
    /// counts them; a standalone cache, whose caller evaluates, never
    /// does.
    pub seeded_hits: u64,
    /// Current number of cached entries.
    pub entries: usize,
    /// Heap bytes the cached entries hold right now — each its key and
    /// its pair columns, what evicting it frees (see [`ResultCache`]).
    pub bytes: usize,
}

impl CacheMetrics {
    /// `hits / (hits + misses)`, guarded (the same stance as
    /// [`safe_rate`](crate::service::ServiceMetrics::requests_per_sec)):
    /// no lookups yet yields `0.0`, never NaN.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Structured rendering shared by the `/metrics` endpoint of the
    /// network front-end and the benchmark artifacts. The field names
    /// are a stable contract pinned by a unit test — the JSON and the
    /// [`Display`](std::fmt::Display) impl of
    /// [`ServiceMetrics`](crate::service::ServiceMetrics) must never
    /// drift apart.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("enabled", Json::Bool(self.enabled)),
            ("hits", Json::Num(self.hits as f64)),
            ("misses", Json::Num(self.misses as f64)),
            ("attaches", Json::Num(self.attaches as f64)),
            ("insertions", Json::Num(self.insertions as f64)),
            ("evictions", Json::Num(self.evictions as f64)),
            ("revalidations", Json::Num(self.revalidations as f64)),
            ("seeded_hits", Json::Num(self.seeded_hits as f64)),
            ("entries", Json::Num(self.entries as f64)),
            ("bytes", Json::Num(self.bytes as f64)),
            ("hit_rate", Json::Num(self.hit_rate())),
        ])
    }
}

/// A finished matching as a cache entry stores it: its pairs as
/// columns, in emission order, and the run's metrics. The service's
/// worker packs it before it takes the core's lock.
pub(crate) struct PackedMatching {
    fids: Box<[u32]>,
    oids: Oids,
    scores: Box<[f64]>,
    metrics: RunMetrics,
}

/// The object-id column: `u32`s when every id fits, else `u64`s.
enum Oids {
    Narrow(Box<[u32]>),
    Wide(Box<[u64]>),
}

impl PackedMatching {
    pub(crate) fn pack(matching: &Matching) -> PackedMatching {
        let pairs = matching.pairs();
        let narrow = pairs.iter().all(|p| u32::try_from(p.oid).is_ok());
        PackedMatching {
            fids: pairs.iter().map(|p| p.fid).collect(),
            oids: if narrow {
                Oids::Narrow(pairs.iter().map(|p| p.oid as u32).collect())
            } else {
                Oids::Wide(pairs.iter().map(|p| p.oid).collect())
            },
            scores: pairs.iter().map(|p| p.score).collect(),
            metrics: *matching.metrics(),
        }
    }

    /// The pairs, in emission order.
    fn pairs(&self) -> impl Iterator<Item = Pair> + '_ {
        (0..self.fids.len()).map(|i| Pair {
            fid: self.fids[i],
            oid: match &self.oids {
                Oids::Narrow(oids) => u64::from(oids[i]),
                Oids::Wide(oids) => oids[i],
            },
            score: self.scores[i],
        })
    }

    /// The matching, rebuilt into one `Vec<Pair>`.
    fn unpack(&self) -> Matching {
        Matching::new(self.pairs().collect(), self.metrics)
    }

    /// The heap the columns hold.
    fn heap_bytes(&self) -> usize {
        let oids = match &self.oids {
            Oids::Narrow(oids) => std::mem::size_of_val(&**oids),
            Oids::Wide(oids) => std::mem::size_of_val(&**oids),
        };
        std::mem::size_of_val(&*self.fids) + oids + std::mem::size_of_val(&*self.scores)
    }
}

/// One cached result plus its bookkeeping.
struct CacheEntry {
    matching: PackedMatching,
    /// Inventory version the result was computed against. A lookup
    /// under any other version treats the entry as absent, unless the
    /// mutation log proves the intervening mutations harmless (scoped
    /// invalidation).
    stamp: u64,
    /// The heap the entry frees when it leaves (key and columns).
    bytes: usize,
    /// Recency tick (key into the LRU index).
    tick: u64,
}

/// A bounded LRU of finished [`Matching`]s keyed by [`RequestKey`] and
/// stamped with the inventory version they were computed against.
///
/// Capacity is double-bounded: at most `max_entries` results and at most
/// `max_bytes` of heap — whichever bound is hit first evicts the
/// least-recently-used entry. An entry counts the heap it frees when it
/// leaves: its key (shared with the service's job, held once) and its
/// pair columns (see the [module docs](self)). Both bounds are clamped
/// to sane minimums so a cache that exists can always hold one entry
/// (construct via [`ServiceConfig`](crate::service::ServiceConfig) with
/// `cache_capacity == 0` to disable caching entirely instead).
///
/// ```
/// use mpq_core::{Engine, ResultCache};
/// use mpq_rtree::PointSet;
/// use mpq_ta::FunctionSet;
///
/// let mut objects = PointSet::new(2);
/// for p in [[0.9_f64, 0.2], [0.2, 0.9], [0.7, 0.7]] { objects.push(&p); }
/// let engine = Engine::builder().objects(&objects).build().unwrap();
/// let functions = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
///
/// let mut cache = ResultCache::new(64, 1 << 20);
/// let request = engine.request(&functions);
/// let key = request.cache_key();
/// let fresh = request.evaluate().unwrap();
/// cache.insert_vec_seeded(&key, &[engine.inventory_version()], &fresh, None);
///
/// // Same inventory: hit, bit-identical.
/// let hit = cache.get(&key, engine.inventory_version()).unwrap();
/// assert_eq!(hit.sorted_pairs(), fresh.sorted_pairs());
///
/// // A rebuilt engine has a new inventory version: the stale entry is
/// // a miss (and is dropped), never served.
/// let rebuilt = Engine::builder().objects(&objects).build().unwrap();
/// assert!(cache.get(&key, rebuilt.inventory_version()).is_none());
/// ```
pub struct ResultCache {
    max_entries: usize,
    max_bytes: usize,
    entries: HashMap<Arc<RequestKey>, CacheEntry>,
    /// Recency index: tick → key, oldest first. Ticks are unique (one
    /// per touch), so this is a faithful LRU order.
    lru: BTreeMap<u64, Arc<RequestKey>>,
    next_tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    revalidations: u64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.entries.len())
            .field("bytes", &self.bytes)
            .field("max_entries", &self.max_entries)
            .field("max_bytes", &self.max_bytes)
            .finish()
    }
}

impl ResultCache {
    /// An empty cache bounded to `max_entries` results and `max_bytes`
    /// of heap (each clamped to at least 1 entry / 4 KiB).
    pub fn new(max_entries: usize, max_bytes: usize) -> ResultCache {
        ResultCache {
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(4096),
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            next_tick: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            revalidations: 0,
        }
    }

    /// Remove `key`'s entry and every piece of bookkeeping that tracks
    /// it (LRU slot, byte accounting). The single removal path — the
    /// eviction *counter* stays with the callers, which know why the
    /// entry left.
    fn detach(&mut self, key: &RequestKey) -> Option<CacheEntry> {
        let entry = self.entries.remove(key)?;
        self.lru.remove(&entry.tick);
        self.bytes -= entry.bytes;
        Some(entry)
    }

    /// Evict the least-recently-used entry; `false` if none is left.
    fn evict_lru(&mut self) -> bool {
        let Some((_, victim)) = self.lru.iter().next() else {
            return false;
        };
        let victim = Arc::clone(victim);
        self.detach(&victim).expect("lru tracks entries");
        self.evictions += 1;
        true
    }

    /// Look up `key` under inventory `version`. A hit returns the cached
    /// matching rebuilt from its columns (pairs bit-identical to the
    /// original evaluation, in its order; the
    /// [`RunMetrics`] are the *original run's* — a
    /// hit does no I/O of its own) and refreshes recency. An entry
    /// stamped with a different version is dropped and reported as a
    /// miss: the inventory it was computed against no longer exists.
    pub fn get(&mut self, key: &RequestKey, version: u64) -> Option<Matching> {
        let Some(entry) = self.entries.get(key) else {
            self.misses += 1;
            return None;
        };
        if entry.stamp != version {
            self.misses += 1;
            self.evictions += 1;
            self.detach(key);
            return None;
        }
        self.hits += 1;
        // Refresh recency: move the entry to the newest tick.
        let tick = self.next_tick;
        self.next_tick += 1;
        let entry = self.entries.get_mut(key).expect("entry just found");
        let old = std::mem::replace(&mut entry.tick, tick);
        let matching = entry.matching.unpack();
        let key = self.lru.remove(&old).expect("lru tracks every entry");
        self.lru.insert(tick, key);
        Some(matching)
    }

    /// Store `matching` for `key` under the inventory version the
    /// `versions` slice names — its newest element, 0 for none —
    /// evicting least-recently-used entries until both bounds hold. The
    /// `seed` is ignored: the cache holds results alone (see the
    /// [module docs](self)).
    pub fn insert_vec_seeded(
        &mut self,
        key: &RequestKey,
        versions: &[u64],
        matching: &Matching,
        _seed: Option<Arc<EvalSeed>>,
    ) {
        let key = Arc::new(key.clone());
        self.insert(&key, stamp_of(versions), PackedMatching::pack(matching));
    }

    /// Store `matching` for `key` under inventory `version`, evicting
    /// least-recently-used entries until both bounds hold. The entry
    /// shares `key`. A result too large to ever fit the byte bound is
    /// not stored (the cache is an accelerator, not a spill).
    fn insert(&mut self, key: &Arc<RequestKey>, version: u64, matching: PackedMatching) {
        let bytes = key.shared_bytes() + matching.heap_bytes();
        if bytes > self.max_bytes {
            return;
        }
        // Replace any stale entry for this key first so the bounds see
        // consistent accounting.
        self.detach(key);
        while (self.entries.len() + 1 > self.max_entries || self.bytes + bytes > self.max_bytes)
            && self.evict_lru()
        {}
        let tick = self.next_tick;
        self.next_tick += 1;
        self.lru.insert(tick, Arc::clone(key));
        self.entries.insert(
            Arc::clone(key),
            CacheEntry {
                matching,
                stamp: version,
                bytes,
                tick,
            },
        );
        self.bytes += bytes;
        self.insertions += 1;
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The heap the cached entries hold: what evicting them all frees.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Snapshot the rolling counters. `attaches` and `seeded_hits` are
    /// always 0 here — the service layer owns those counters and merges
    /// them into its [`ServiceMetrics`](crate::service::ServiceMetrics)
    /// snapshot.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            enabled: true,
            hits: self.hits,
            misses: self.misses,
            attaches: 0,
            insertions: self.insertions,
            evictions: self.evictions,
            revalidations: self.revalidations,
            seeded_hits: 0,
            entries: self.entries.len(),
            bytes: self.bytes,
        }
    }

    /// Like [`ResultCache::get`], but with **scoped invalidation**: an
    /// entry stamped with an older inventory is caught up through the
    /// mutation `log` instead of being dropped outright. Each
    /// intervening mutation is checked against the cached matching
    /// (`survives_event`'s exact greedy argument); if all of them
    /// provably leave the result unchanged, the entry is restamped to
    /// `version` and served as a hit. Only when a mutation *can* affect
    /// the result — or the log window no longer covers the gap — does
    /// the entry fall back to the drop-and-miss of plain `get`.
    pub(crate) fn get_with_logs(
        &mut self,
        key: &RequestKey,
        version: u64,
        log: &MutationLog,
    ) -> Option<Matching> {
        if let Some(entry) = self.entries.get(key) {
            if entry.stamp > version {
                // The entry is *newer* than the looker's version read (a
                // mutation and a publish slipped in between): not
                // servable backwards, but evicting the current result
                // would punish the next — current — looker. Plain miss.
                self.misses += 1;
                return None;
            }
            if entry.stamp < version && !self.try_catch_up(key, version, log) {
                self.misses += 1;
                self.evictions += 1;
                self.detach(key).expect("entry just found");
                return None;
            }
        }
        self.get(key, version)
    }

    /// Catch the entry for `key`, stamped before `version`, up to it:
    /// `true` iff the log covers the gap and every mutation in it
    /// provably leaves the cached matching unchanged (the entry is
    /// restamped).
    fn try_catch_up(&mut self, key: &RequestKey, version: u64, log: &MutationLog) -> bool {
        let Some(entry) = self.entries.get_mut(key) else {
            return false;
        };
        let matching = &entry.matching;
        let survives = log.all_between(entry.stamp, version, |record| {
            survives_event(key, matching, record)
        });
        if survives {
            entry.stamp = version;
            self.revalidations += 1;
        }
        survives
    }

    /// Like `ResultCache::insert`, but first eagerly sweeps
    /// entries stamped with an older version: each is caught up through
    /// `log` (restamped if it survives) or evicted on the spot. Plain
    /// `get` only drops a stale entry when its exact key is looked up
    /// again, so after a mutation the `entries`/`bytes` metrics would
    /// keep counting results that can never be served; sweeping at
    /// insert time keeps the accounting honest without a periodic task.
    pub(crate) fn insert_with_logs(
        &mut self,
        key: &Arc<RequestKey>,
        version: u64,
        matching: PackedMatching,
        log: &MutationLog,
    ) {
        // Only entries *older* than the publish stamp are sweepable: a
        // worker that read its version before a mutation must not evict
        // entries already published under a newer one.
        let stale: Vec<Arc<RequestKey>> = (self.entries.iter())
            .filter(|(_, e)| e.stamp < version)
            .map(|(k, _)| Arc::clone(k))
            .collect();
        for k in stale {
            if !self.try_catch_up(&k, version, log) && self.detach(&k).is_some() {
                self.evictions += 1;
            }
        }
        if self.entries.get(key).is_some_and(|e| e.stamp > version) {
            return; // a newer result for this key is already published
        }
        self.insert(key, version, matching);
    }

    /// The `Arc` the entry for `key` holds, if one is cached.
    #[cfg(test)]
    pub(crate) fn stored_key(&self, key: &RequestKey) -> Option<&Arc<RequestKey>> {
        self.entries.get_key_value(key).map(|(stored, _)| stored)
    }

    /// **Stub, always `None`**, as [`Engine::skipped_shards`] is always
    /// 0. It handed an exact miss the seed this cache used to hold; the
    /// seed now lives beside the cache (see the [module docs](self)).
    /// The benchmark compiles against the name and its arguments.
    ///
    /// [`Engine::skipped_shards`]: crate::Engine::skipped_shards
    pub fn near_miss(
        &mut self,
        _key: &RequestKey,
        _versions: &[u64],
        _bound: usize,
    ) -> Option<Arc<EvalSeed>> {
        None
    }
}

/// The one version a slice names, as the benchmark passes it: its
/// newest element, or 0 — which no engine is ever at — for none.
fn stamp_of(versions: &[u64]) -> u64 {
    versions.iter().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Store `matching` for `key` under `version`, as a worker does.
    fn insert(cache: &mut ResultCache, key: &RequestKey, version: u64, matching: &Matching) {
        let key = Arc::new(key.clone());
        cache.insert(&key, version, PackedMatching::pack(matching));
    }

    /// What an entry of `key` and `matching` counts.
    fn entry_bytes(key: &RequestKey, matching: &Matching) -> usize {
        key.shared_bytes() + PackedMatching::pack(matching).heap_bytes()
    }

    fn matching_of(n: usize) -> Matching {
        let pairs = (0..n)
            .map(|i| Pair {
                fid: i as u32,
                oid: i as u64,
                score: 1.0 - i as f64 * 0.01,
            })
            .collect();
        Matching::new(pairs, RunMetrics::default())
    }

    fn key_of(rows: &[Vec<f64>]) -> RequestKey {
        let functions = FunctionSet::from_rows(2, rows);
        request_key(&functions, &RequestOptions::default())
    }

    #[test]
    fn key_is_order_insensitive_over_exclusions_only() {
        let functions = FunctionSet::from_rows(2, &[vec![0.5, 0.5], vec![0.9, 0.1]]);
        assert_eq!(key_excluding(&[3, 7, 11]), key_excluding(&[11, 3, 7, 3]));

        // ...but function row order is semantic (fids name the rows).
        let swapped = FunctionSet::from_rows(2, &[vec![0.9, 0.1], vec![0.5, 0.5]]);
        assert_ne!(
            request_key(&functions, &RequestOptions::default()),
            request_key(&swapped, &RequestOptions::default())
        );
    }

    #[test]
    fn key_covers_every_knob() {
        let functions = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
        let base = request_key(&functions, &RequestOptions::default());
        let o = RequestOptions {
            multi_pair: false,
            ..RequestOptions::default()
        };
        assert_ne!(base, request_key(&functions, &o));
        let o = RequestOptions {
            capacities: Some(vec![1, 2, 3]),
            ..RequestOptions::default()
        };
        assert_ne!(base, request_key(&functions, &o));
        let o = RequestOptions {
            exclude: vec![5],
            ..RequestOptions::default()
        };
        assert_ne!(base, request_key(&functions, &o));
        // tombstones are part of the identity
        let mut dead = FunctionSet::from_rows(2, &[vec![0.5, 0.5], vec![0.9, 0.1]]);
        dead.remove(1);
        let alive = FunctionSet::from_rows(2, &[vec![0.5, 0.5], vec![0.9, 0.1]]);
        assert_ne!(
            request_key(&dead, &RequestOptions::default()),
            request_key(&alive, &RequestOptions::default())
        );
    }

    #[test]
    fn tombstones_are_a_bitmap_and_the_key_is_sized_exactly() {
        // 130 functions: three bitmap words, the last one partial.
        let rows: Vec<Vec<f64>> = (0..130).map(|i| vec![i as f64, 1.0]).collect();
        let mut functions = FunctionSet::from_rows(2, &rows);
        for fid in [0, 63, 64, 129] {
            functions.remove(fid);
        }
        let key = request_key(&functions, &RequestOptions::default());
        // dim and n, 3 bitmap words, the weights, multi_pair, no
        // exclusions, no capacities.
        assert_eq!(key.material.len(), 2 + 3 + 130 * 2 + 1 + 1 + 1);
        let view = KeyView::parse(&key.material).expect("well-formed key");
        for fid in 0..130 {
            assert_eq!(view.is_alive(fid), functions.is_alive(fid as u32), "{fid}");
            let bits: Vec<u64> = (functions.weights(fid as u32).iter())
                .map(|w| w.to_bits())
                .collect();
            assert_eq!(view.weights[fid * 2..fid * 2 + 2], bits[..], "{fid}");
        }
        assert_eq!(view.alive[2] >> 2, 0, "no bit past the last function");
    }

    /// A key scores with the working set's kernel: random rows of 1–8
    /// dimensions, zero weights included, score random points — some
    /// coordinates `0.0` or `-0.0` — to the same bits either way.
    #[test]
    fn a_key_scores_to_the_function_sets_bits() {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for dim in 1..=8 {
            let mut rows: Vec<Vec<f64>> = (0..40)
                .map(|_| (0..dim).map(|_| next()).collect())
                .collect();
            for (fid, row) in rows.iter_mut().enumerate() {
                for (d, w) in row.iter_mut().enumerate() {
                    if d != fid % dim && next() < 0.4 {
                        *w = 0.0;
                    }
                }
            }
            let functions = FunctionSet::from_rows(dim, &rows);
            let key = request_key(&functions, &RequestOptions::default());
            let view = KeyView::parse(&key.material).expect("well-formed key");
            for _ in 0..50 {
                let point: Vec<f64> = (0..dim)
                    .map(|_| match next() {
                        r if r < 0.2 => -0.0,
                        r if r < 0.3 => 0.0,
                        _ => next(),
                    })
                    .collect();
                for fid in 0..40 {
                    let (got, want) =
                        (view.score(fid, &point), functions.score(fid as u32, &point));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "dim {dim} fid {fid} {point:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_key_hash_is_word_wise_and_the_same_in_every_process() {
        // Pinned: a key must hash alike across processes and runs.
        let key = key_of(&[vec![0.5, 0.5], vec![0.9, 0.1]]);
        assert_eq!(key.hash, word_hash(&key.material));
        assert_eq!(key.hash, 0xf1b9_9bfa_8061_5549);
        // Every word counts, and its position does too.
        assert_ne!(key.hash, key_of(&[vec![0.9, 0.1], vec![0.5, 0.5]]).hash);
        assert_ne!(word_hash(&[1, 0]), word_hash(&[0, 1]));
        assert_ne!(word_hash(&[0]), word_hash(&[0, 0]));
    }

    #[test]
    fn packed_pairs_rebuild_bit_for_bit_narrow_or_wide() {
        let pairs = |top: u64| {
            let pairs = (0..5)
                .map(|i| Pair {
                    fid: 4 - i as u32,
                    oid: top - i,
                    score: f64::from_bits(0x3fe0_0000_0000_0001 + i),
                })
                .collect();
            Matching::new(pairs, RunMetrics::default())
        };
        for (top, oid_bytes) in [(u64::from(u32::MAX), 4), (u64::MAX, 8)] {
            let matching = pairs(top);
            let packed = PackedMatching::pack(&matching);
            assert_eq!(packed.heap_bytes(), 5 * (4 + oid_bytes + 8));
            let rebuilt = packed.unpack();
            assert_eq!(rebuilt.pairs().len(), 5);
            for (a, b) in rebuilt.pairs().iter().zip(matching.pairs()) {
                assert_eq!(
                    (a.fid, a.oid, a.score.to_bits()),
                    (b.fid, b.oid, b.score.to_bits())
                );
            }
        }
        let empty = PackedMatching::pack(&Matching::default());
        assert_eq!((empty.heap_bytes(), empty.unpack().len()), (0, 0));
    }

    #[test]
    fn lru_evicts_by_recency_and_respects_entry_bound() {
        let mut cache = ResultCache::new(2, 1 << 20);
        let (ka, kb, kc) = (
            key_of(&[vec![0.1, 0.9]]),
            key_of(&[vec![0.2, 0.8]]),
            key_of(&[vec![0.3, 0.7]]),
        );
        insert(&mut cache, &ka, 1, &matching_of(1));
        insert(&mut cache, &kb, 1, &matching_of(1));
        assert!(cache.get(&ka, 1).is_some()); // refresh a: b is now LRU
        insert(&mut cache, &kc, 1, &matching_of(1)); // evicts b
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&ka, 1).is_some());
        assert!(cache.get(&kb, 1).is_none(), "b was least recently used");
        assert!(cache.get(&kc, 1).is_some());
        assert_eq!(cache.metrics().evictions, 1);
    }

    #[test]
    fn byte_bound_evicts_and_oversize_results_are_not_stored() {
        // Entries big enough that the byte bound (not the entry bound)
        // is what binds: ~24 KiB of pairs each, bound at ~2 entries.
        let bulky = matching_of(1000);
        let per_entry = entry_bytes(&key_of(&[vec![0.1, 0.9]]), &bulky);
        let mut cache = ResultCache::new(1024, per_entry * 2);
        let keys: Vec<RequestKey> = (0..4)
            .map(|i| key_of(&[vec![0.1 + i as f64 * 0.05, 0.5]]))
            .collect();
        for k in &keys {
            insert(&mut cache, k, 1, &bulky);
        }
        assert!(
            cache.bytes() <= cache.max_bytes,
            "byte bound must hold after inserts"
        );
        assert!(cache.len() < 4, "byte bound must have evicted something");

        let huge = matching_of(100_000);
        let before = cache.len();
        insert(&mut cache, &key_of(&[vec![0.9, 0.1]]), 1, &huge);
        assert_eq!(cache.len(), before, "oversize result must not be stored");
    }

    #[test]
    fn version_mismatch_is_a_miss_and_drops_the_stale_entry() {
        let mut cache = ResultCache::new(8, 1 << 20);
        let key = key_of(&[vec![0.4, 0.6]]);
        insert(&mut cache, &key, 7, &matching_of(3));
        assert!(cache.get(&key, 7).is_some());
        assert!(cache.get(&key, 8).is_none(), "stale version must miss");
        assert!(
            cache.get(&key, 7).is_none(),
            "the stale entry is gone, not resurrected"
        );
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses), (1, 2));
    }

    #[test]
    fn hit_rate_is_guarded() {
        let cache = ResultCache::new(8, 1 << 20);
        assert_eq!(cache.metrics().hit_rate(), 0.0);
        let mut cache = cache;
        let key = key_of(&[vec![0.5, 0.5]]);
        insert(&mut cache, &key, 1, &matching_of(1));
        let _ = cache.get(&key, 1);
        let _ = cache.get(&key_of(&[vec![0.6, 0.4]]), 1);
        let rate = cache.metrics().hit_rate();
        assert!((rate - 0.5).abs() < 1e-12, "{rate}");
    }

    // ------------------------------------------------------------------
    // Scoped invalidation: MutationLog + survives_event
    // ------------------------------------------------------------------

    /// A two-function key whose canonical matching assigns object 0 to
    /// function 0 and object 1 to function 1 (scores 0.82 each).
    fn orthogonal_key(options: &RequestOptions) -> RequestKey {
        let functions = FunctionSet::from_rows(2, &[vec![0.9, 0.1], vec![0.1, 0.9]]);
        request_key(&functions, options)
    }

    /// The removal of object `oid`, wherever it was.
    fn removal(oid: u64) -> WalRecord {
        let point = Box::from([0.5, 0.5].as_slice());
        WalRecord::Remove { oid, point }
    }

    fn orthogonal_matching() -> Matching {
        Matching::new(
            vec![
                Pair {
                    fid: 0,
                    oid: 0,
                    score: 0.82,
                },
                Pair {
                    fid: 1,
                    oid: 1,
                    score: 0.82,
                },
            ],
            RunMetrics::default(),
        )
    }

    #[test]
    fn mutation_log_window_covers_exactly_the_retained_events() {
        let log = MutationLog::new(2);
        log.record(10, removal(1));
        log.record(11, removal(2));
        log.record(12, removal(3));
        let visited = |since, upto| {
            let mut oids = Vec::new();
            let covered = log.all_between(since, upto, |record| {
                oids.push(record.oid());
                true
            });
            covered.then_some(oids)
        };
        // The version-10 event fell out of the ring: a gap starting
        // before it can no longer be proven safe.
        assert_eq!(visited(9, 12), None);
        assert_eq!(visited(10, 12), Some(vec![2, 3]), "11..=12, oldest first");
        // An empty gap is trivially covered.
        assert_eq!(visited(12, 12), Some(vec![]));
        assert!(!log.all_between(10, 12, |record| record.oid() != 3));
    }

    #[test]
    fn removing_an_unassigned_object_revalidates_removing_assigned_drops() {
        let key = orthogonal_key(&RequestOptions::default());
        let mut cache = ResultCache::new(8, 1 << 20);
        let log = MutationLog::new(64);
        insert(&mut cache, &key, 5, &orthogonal_matching());

        log.record(6, removal(3));
        assert!(cache.get_with_logs(&key, 6, &log).is_some());
        assert_eq!(cache.metrics().revalidations, 1);

        log.record(7, removal(0));
        assert!(cache.get_with_logs(&key, 7, &log).is_none());
        assert!(cache.is_empty(), "an affected entry is dropped outright");
    }

    #[test]
    fn beaten_everywhere_inserts_revalidate_dominating_inserts_drop() {
        let key = orthogonal_key(&RequestOptions::default());
        let mut cache = ResultCache::new(8, 1 << 20);
        let log = MutationLog::new(64);
        insert(&mut cache, &key, 5, &orthogonal_matching());

        // Both functions score the newcomer below their assigned pair.
        log.record(
            6,
            WalRecord::Insert {
                oid: 9,
                point: Box::from([0.01, 0.02].as_slice()),
            },
        );
        assert!(cache.get_with_logs(&key, 6, &log).is_some());

        // Function 0 scores this newcomer 0.875 > 0.82: can steal.
        log.record(
            7,
            WalRecord::Insert {
                oid: 10,
                point: Box::from([0.95, 0.2].as_slice()),
            },
        );
        assert!(cache.get_with_logs(&key, 7, &log).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn mutations_of_an_excluded_object_always_survive() {
        let options = RequestOptions {
            exclude: vec![2],
            ..RequestOptions::default()
        };
        let key = orthogonal_key(&options);
        let mut cache = ResultCache::new(8, 1 << 20);
        let log = MutationLog::new(64);
        insert(&mut cache, &key, 5, &orthogonal_matching());

        // Even a would-dominate-everything update is invisible to a
        // request that excludes the object.
        log.record(
            6,
            WalRecord::Update {
                oid: 2,
                old: Box::from([0.5, 0.5].as_slice()),
                new: Box::from([1.0, 1.0].as_slice()),
            },
        );
        assert!(cache.get_with_logs(&key, 6, &log).is_some());
        log.record(7, removal(2));
        assert!(cache.get_with_logs(&key, 7, &log).is_some());
        assert_eq!(cache.metrics().revalidations, 2);
    }

    #[test]
    fn capacitated_entries_never_revalidate() {
        let options = RequestOptions {
            capacities: Some(vec![1, 1, 1, 1]),
            ..RequestOptions::default()
        };
        let key = orthogonal_key(&options);
        let mut cache = ResultCache::new(8, 1 << 20);
        let log = MutationLog::new(64);
        insert(&mut cache, &key, 5, &orthogonal_matching());

        // Harmless on its face, but the capacitated greedy's survival
        // argument is not implemented — must fall back to drop.
        log.record(6, removal(3));
        assert!(cache.get_with_logs(&key, 6, &log).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn uncovered_version_gap_drops_instead_of_guessing() {
        let key = orthogonal_key(&RequestOptions::default());
        let mut cache = ResultCache::new(8, 1 << 20);
        let log = MutationLog::new(1);
        insert(&mut cache, &key, 5, &orthogonal_matching());
        log.record(6, removal(3));
        log.record(7, removal(3)); // evicts v6
        assert!(cache.get_with_logs(&key, 7, &log).is_none());
    }

    #[test]
    fn insert_with_log_sweeps_dead_entries_and_keeps_survivors() {
        let key_a = orthogonal_key(&RequestOptions::default());
        let excl = RequestOptions {
            exclude: vec![0],
            ..RequestOptions::default()
        };
        let key_b = orthogonal_key(&excl);
        let key_c = key_of(&[vec![0.5, 0.5]]);

        let mut cache = ResultCache::new(8, 1 << 20);
        let log = MutationLog::new(64);
        insert(&mut cache, &key_a, 5, &orthogonal_matching());
        // Entry B's matching does not assign object 0 (it excludes it).
        insert(
            &mut cache,
            &key_b,
            5,
            &Matching::new(
                vec![Pair {
                    fid: 1,
                    oid: 1,
                    score: 0.82,
                }],
                RunMetrics::default(),
            ),
        );
        let bytes_before = cache.bytes();

        // Removing assigned object 0 kills A; B excluded it — survives.
        log.record(6, removal(0));
        let (key_c, one) = (Arc::new(key_c), PackedMatching::pack(&matching_of(1)));
        cache.insert_with_logs(&key_c, 6, one, &log);
        assert_eq!(cache.len(), 2, "A swept, B restamped, C inserted");
        assert!(cache.get(&key_b, 6).is_some());
        assert!(cache.get(&key_c, 6).is_some());
        assert!(cache.bytes() < bytes_before + entry_bytes(&key_c, &matching_of(1)) + 1);
        assert_eq!(cache.metrics().evictions, 1);

        // A publish stamped *older* than live entries must not evict
        // them (the worker-raced-a-mutation case).
        let (key_a, packed) = (
            Arc::new(key_a),
            PackedMatching::pack(&orthogonal_matching()),
        );
        cache.insert_with_logs(&key_a, 5, packed, &log);
        assert!(
            cache.get(&key_b, 6).is_some(),
            "newer entries survive an old-stamp publish"
        );
        // The old-stamped entry itself installs, and its next versioned
        // lookup catches it up through the log — here: kills it, since
        // the remove hit its assigned object.
        assert!(cache.get_with_logs(&key_a, 6, &log).is_none());
    }

    /// The key of a two-function request excluding `excl`, the list
    /// built as every request builds it.
    fn key_excluding(excl: &[u64]) -> RequestKey {
        let functions = FunctionSet::from_rows(2, &[vec![0.5, 0.5], vec![0.9, 0.1]]);
        let mut objects = mpq_rtree::PointSet::new(2);
        objects.push(&[0.5, 0.5]);
        let engine = crate::Engine::builder().objects(&objects).build().unwrap();
        let request = engine.request(&functions);
        request.exclude(excl.iter().copied()).cache_key()
    }

    #[test]
    fn exclusions_are_canonical_at_construction() {
        // Order-insensitive (already pinned above) *and* stored sorted:
        // the material's exclusion section is the canonical form the
        // binary search of scoped invalidation relies on.
        let key = key_excluding(&[11, 3, 7]);
        let view = KeyView::parse(&key.material).expect("well-formed key");
        assert_eq!(view.excl, &[3, 7, 11]);
        assert!(view.excl.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(key, key_excluding(&[3, 7, 11]));
    }

    #[test]
    fn eviction_unindexes_the_donor() {
        // An entry evicted to make room leaves the lookup and the byte
        // count together, and a key stored again replaces its entry
        // instead of counting it twice.
        let bulky = matching_of(1000);
        let (ka, kb) = (key_excluding(&[1]), key_excluding(&[2]));
        let mut cache = ResultCache::new(8, entry_bytes(&ka, &bulky));
        insert(&mut cache, &ka, 4, &bulky);
        assert_eq!(cache.bytes(), cache.max_bytes);
        insert(&mut cache, &kb, 4, &bulky);
        assert_eq!((cache.len(), cache.metrics().evictions), (1, 1));
        assert!(cache.get(&ka, 4).is_none());
        let smaller = matching_of(999);
        insert(&mut cache, &kb, 4, &smaller);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), entry_bytes(&kb, &smaller));
    }
}
