//! # mpq-core — stable matching of multiple preference queries
//!
//! The paper's problem: `|F|` users issue linear preference queries over
//! the same object set `O` *simultaneously*, and each object can be
//! assigned to at most one user. The fair outcome is the stable-marriage
//! matching obtained by repeatedly assigning the `(f, o)` pair with the
//! globally highest score `f(o)` and removing both.
//!
//! One algorithm serves it. A [`MatchRequest`] — the one request the
//! cache, the service, streams and the wire see — runs the
//! paper's contribution, "SB" (§III-B/§IV, the [`sb`] module): maintain
//! the skyline of the remaining objects incrementally ([`mpq_skyline`]),
//! find each skyline object's best function with a tight-threshold
//! reverse top-1 TA scan ([`mpq_ta`]), and report *all* mutually-best
//! pairs per loop (§IV-C, `multi_pair`).
//!
//! What SB is measured against is one call away:
//! [`MatchRequest::algorithm`] turns a request into a [`Variant`], an
//! uncached, unserved harness run of one [`Algorithm`]:
//!
//! * SB itself, or one of its §IV ablations — TA's naive threshold, a
//!   linear scan of the functions, BBS recomputed every loop;
//! * Brute Force — §III-A ([`brute_force`]): one top-1 ranked query per
//!   function against the object R-tree and a global heap with lazy
//!   invalidation, each function's search resumed or restarted;
//!   assigned objects are masked per run, not deleted;
//! * Chain — the adapted competitor of §V (Wong et al., VLDB 2007,
//!   [`chain`]): functions indexed by a main-memory R-tree on their
//!   weights; chains of alternating top-1 searches until a
//!   mutually-best pair surfaces.
//!
//! All of them produce the **same matching** (asserted by the test suite):
//! scores are tie-broken deterministically by `(score desc, function id
//! asc, object id asc)` end to end, which makes the stable matching
//! unique even on adversarial tie-heavy inputs.
//!
//! [`verify::verify_stable`] checks Property 1 (no blocking pair) in
//! `O(|F|·|O|)`, and [`reference::reference_matching`] is the exact
//! sort-all-pairs greedy used as ground truth in tests.
//!
//! The [`capacity`] module extends the model with object capacities
//! (e.g. a room *type* with `c` identical rooms), which the examples use.
//! A capacitated request is the one SB evaluation — the same round,
//! each of its pairs taking one unit of its object — evaluated or
//! streamed.
//!
//! ## Evaluation goes through the [`Engine`]
//!
//! The index over `O` is expensive; the paper's deployment serves many
//! query batches against one inventory. Build an [`Engine`] **once**
//! ([`Engine::builder`] validates the inputs and bulk-loads the one
//! R-tree, behind an LRU buffer of 2 % of the tree by default),
//! then evaluate any number of [`MatchRequest`]s against it — also
//! concurrently, since evaluation never mutates the shared index and
//! every run accounts its own I/O through a run-scoped
//! [`mpq_rtree::IoSession`]. [`Engine::stream`] yields stable pairs
//! progressively, and [`SbStream::load`] matches the next query batch
//! against what the stream left of the inventory, its maintained
//! skyline alive across batches (the online deployment of §I). The
//! same run evaluates any monotone preference functions (§II,
//! [`Engine::evaluate_monotone`], the [`monotone`] module).
//!
//! ## Serving goes through the [`EngineService`]
//!
//! To run many requests — streaming in from a network front-end, or
//! queued by a harness — wrap the engine in the [`service`] layer: [`Engine::serve`] starts a worker pool behind
//! a bounded submission queue; cloneable [`ServiceClient`] handles
//! submit requests and get back pollable/blockable [`Ticket`]s with
//! deadlines, priorities and cancellation; a full queue sheds with a
//! typed error instead of blocking the submitter.
//! Identical requests are served from a bounded, inventory-versioned
//! [`ResultCache`] (with in-flight dedupe: a duplicate submission
//! attaches to the queued job instead of re-evaluating — see the
//! [`cache`] module). The service is the one way to run many requests.
//!
//! ## One hosting path
//!
//! The service, the network tenants and the CLI hold an `Arc<Engine>`:
//! one type serves through the [`EngineService`],
//! [`ServiceClient::submit`] and the one request builder —
//! `client.submit(client.engine().request(&functions))`.
//! [`EngineBuilder::open_or_build`] hosts an inventory: a persisted
//! directory reopens, otherwise the objects are built.
//!
//! ## The inventory is mutable — and can persist
//!
//! [`Engine::insert_object`], [`Engine::remove_object`] and
//! [`Engine::update_object`] maintain the R-tree incrementally under
//! copy-on-write epochs: in-flight evaluations finish on the snapshot
//! they pinned, and each committed mutation mints a new
//! [`Engine::inventory_version`] and is recorded in the engine's
//! mutation log so the [`ResultCache`] can drop only the entries a
//! mutation could actually change (the rest are revalidated in place).
//! With [`EngineBuilder::data_dir`](engine::EngineBuilder::data_dir) the
//! engine is disk-backed: index pages live in a CRC-checked page file
//! and every mutation is appended to a write-ahead log ([`wal`]) and
//! fsynced *before* it is applied, so [`Engine::open`] recovers the
//! inventory — bit-identical matchings included — after a crash.
//! [`Engine::checkpoint`] folds the WAL into the page file so the next
//! open replays nothing.
//!
//! ## One index, one on-disk layout
//!
//! The engine is one R-tree with one WAL and one buffer pool, as the
//! paper's experiments index their objects, and a data directory holds
//! exactly `pages.mpq` + `wal.mpq`, the page file's checkpoint recording
//! the WAL sequence number and the id bound. Two older forms are refused
//! with [`MpqError::UnsupportedRequest`] by every entry point — opening,
//! [`EngineBuilder::open_or_build`] and a build into the directory —
//! before anything under it is written or removed: the `K`-shard layout
//! earlier engines wrote (`shard-i/` trees beside a `shards.mpq`
//! manifest) and a page file checkpointed without the id bound. Commit
//! `cd313ab` is the last that opens both, migrating the first into one
//! tree: `mpq compact --data-dir DIR` run at that commit leaves the one
//! layout, which this version opens.
//!
//! ## Ledger-only names
//!
//! The benchmark (`crates/bench/src/bin/ledger`), which only a
//! `benchmark` PR may edit, still compiles against names the library
//! has no other use for; a `benchmark` PR deletes these:
//! [`ShardedEngine`] (`ShardedEngine::builder()` *is*
//! [`Engine::builder`]), [`EngineBuilder::shards`] (accepted and
//! ignored: every engine is one tree), [`Engine::skipped_shards`]
//! (always 0), [`ResultCache::insert_vec_seeded`] (its slice names the
//! one version; its seed argument is ignored) and
//! [`ResultCache::near_miss`] (always `None`: the seed no longer lives
//! in the cache). The network crate keeps one more,
//! `TenantConfig::shards`, for the same reason.

#![warn(missing_docs)]

pub mod brute_force;
pub mod cache;
pub mod capacity;
pub mod chain;
pub mod engine;
pub mod error;
pub mod json;
pub mod matching;
pub mod monotone;
mod objects;
pub mod reference;
pub mod sb;
pub mod scratch;
pub mod seed;
pub mod service;
pub mod verify;
pub mod wal;

pub use cache::{CacheMetrics, RequestKey, ResultCache};
pub use capacity::CapacityMatching;
pub use engine::{Algorithm, Engine, EngineBuilder, HealthState, MatchRequest, Variant};
pub use error::MpqError;
pub use json::Json;
pub use matching::{index_build_count, IndexConfig, Matching, Pair, RunMetrics};
pub use monotone::MonotoneFunction;
pub use reference::{reference_matching, reference_matching_excluding};
pub use sb::SbStream;
pub use scratch::Scratch;
pub use seed::EvalSeed;
pub use service::{EngineService, ServiceClient, ServiceConfig, ServiceMetrics, Ticket};
pub use verify::{verify_stable, verify_weakly_stable};
pub use wal::{Wal, WalRecord};

/// The engine, under the name it had when `K > 1` shards were a type of
/// their own (see "Ledger-only names" in the [crate docs](self)).
pub type ShardedEngine = Engine;

/// See "Ledger-only names" in the [crate docs](self).
impl<'o> EngineBuilder<'o> {
    /// **Stub, ignored.** It said how many shards an inventory was
    /// partitioned into; every engine is one tree.
    pub fn shards(self, _k: usize) -> EngineBuilder<'o> {
        self
    }
}

/// See "Ledger-only names" in the [crate docs](self).
impl Engine {
    /// **Stub, always 0.** It counted the shard probes a best-pair
    /// merge pruned by score bound; nothing is probed or skipped any
    /// more.
    pub fn skipped_shards(&self) -> u64 {
        0
    }
}
