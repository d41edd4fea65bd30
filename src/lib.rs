//! # mpq — Efficient Evaluation of Multiple Preference Queries
//!
//! A Rust reproduction of the ICDE 2009 paper by Leong Hou U, Nikos
//! Mamoulis and Kyriakos Mouratidis: stable 1-1 matching between a set of
//! linear preference functions and a set of multidimensional objects,
//! evaluated efficiently by maintaining the *skyline* of the remaining
//! objects.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`rtree`] — the paged R\*-tree substrate with LRU buffering and
//!   I/O accounting (per-run attribution via [`rtree::IoSession`]);
//!   pages live in an in-memory [`rtree::MemPager`] or a real, CRC'd
//!   [`rtree::DiskPager`] file, and the tree mutates in place under
//!   copy-on-write epochs; a scriptable [`rtree::FaultInjector`] can
//!   wrap any store for crash and fault testing.
//! * [`skyline`] — BBS skyline computation and the paper's incremental
//!   maintenance with pruned-entry lists (§IV-B).
//! * [`ta`] — reverse top-1 search over the function set via the
//!   Threshold Algorithm with tight thresholds (§IV-A).
//! * [`datagen`] — synthetic workload generators (independent,
//!   anti-correlated, clustered, Zillow surrogate).
//! * [`core`] — the [`core::Engine`] and the [`core::EngineService`]
//!   serving layer over skyline-based **SB** (the paper's contribution,
//!   §III-B/§IV), the one algorithm a served request runs;
//!   [`core::MatchRequest::algorithm`] turns a request into an
//!   uncached [`core::Variant`] of one [`core::Algorithm`] — an SB
//!   ablation, **Brute Force** (§III-A) or **Chain** (the adapted
//!   competitor of §V) — for comparison; plus verification utilities.
//!   The engine indexes its inventory in one R-tree behind one buffer
//!   pool and, when persisted, one WAL.
//! * [`net`] — the std-only HTTP/1.1 front-end: a [`net::Server`]
//!   hosting one [`net::TenantRegistry`] of named engines, each behind
//!   its own service (queue, workers, cache), with a JSON wire codec,
//!   `/metrics` + `/healthz`, `429 Retry-After` load shedding, `504`
//!   deadlines, disconnect cancellation, and per-tenant health with a
//!   degraded mode that refuses mutations (`503`) but keeps serving
//!   reads through storage failure.
//!
//! ## Quickstart
//!
//! Build an [`Engine`](core::Engine) **once** over the inventory — it
//! validates the input and bulk-loads the object R-tree — then evaluate
//! any number of requests against it:
//!
//! ```
//! use mpq::prelude::*;
//!
//! // Six hotel rooms scored on (size, cheapness) in [0,1].
//! let mut objects = PointSet::new(2);
//! for p in [
//!     [0.9_f64, 0.2],
//!     [0.2, 0.9],
//!     [0.7, 0.7],
//!     [0.5, 0.4],
//!     [0.3, 0.3],
//!     [0.8, 0.6],
//! ] {
//!     objects.push(&p);
//! }
//! let engine = Engine::builder().objects(&objects).build().unwrap();
//!
//! // Three users with different priorities (weights sum to 1).
//! let functions = FunctionSet::from_rows(2, &[
//!     vec![0.8, 0.2], // cares about size
//!     vec![0.2, 0.8], // cares about price
//!     vec![0.5, 0.5], // balanced
//! ]);
//!
//! let matching = engine.request(&functions).evaluate().unwrap();
//! assert_eq!(matching.pairs().len(), 3); // every user got a room
//! // `pairs()` is emission order — canonical within an SB round, see
//! // `Matching::pairs` — and `sorted_pairs()` descends by score:
//! assert!(matching.sorted_pairs().windows(2).all(|w| w[0].score >= w[1].score));
//!
//! // The same engine serves further requests without another index
//! // build — masked inventory, capacities, ... — and runs the paper's
//! // competitors for comparison, as an uncached `Variant`:
//! let bf = engine
//!     .request(&functions)
//!     .algorithm(Algorithm::BruteForce)
//!     .evaluate()
//!     .unwrap();
//! assert_eq!(matching.sorted_pairs(), bf.sorted_pairs());
//! ```
//!
//! ## Migration table
//!
//! Evaluation goes through an engine that is built once and shared, and
//! there is one way to ask: `engine.request(&functions)` plus its knobs
//! (`.exclude(..)`, `.capacities(..)`, `.multi_pair(..)`), then
//! `.evaluate()` or `.stream()`; `.algorithm(..)` turns it into a
//! harness `Variant` of another algorithm. Every one-shot
//! matcher entry point (a private R-tree bulk-loaded per call, panics
//! on malformed input) and the matcher structs that configured one are
//! gone:
//!
//! | before | after |
//! |---|---|
//! | `engine.evaluate_batch(&reqs, t)` (pre-collected batches; removed, with `BatchOutcome`, `BatchMetrics` and `mpq throughput`) | `engine.serve(config)` + `client.submit(..)` per request — the service is the one way to run many requests; `mpq serve` replays copies of a request through it |
//! | rebuild the engine on inventory change | `engine.insert_object(&p)?` / `engine.remove_object(oid)?` / `engine.update_object(oid, &p)?` |
//! | in-memory only, lost on restart | `Engine::builder().data_dir(dir)` once, `Engine::open(dir)?` after |
//! | in-process `ServiceClient` only | `net::Server::bind(addr, registry, config)?` / `mpq serve --listen ADDR` — HTTP clients `POST /t/<tenant>/match` |
//! | storage failure ⇒ panic / silent corruption | typed [`core::MpqError::Io`] / [`core::MpqError::StorageDegraded`] — a failed commit leaves the tree, the object table and `inventory_version` untouched; an engine whose WAL is wedged is degraded ([`core::Engine::health`]): its tenant answers mutations `503` with a `Retry-After` of [`core::Engine::retry_after`] while reads keep serving, and a due checkpoint repairs it |
//! | failure paths untestable | [`rtree::FaultInjector`] scripted into any pager or WAL (`fail_nth`, `crash_at`, torn/bit-flip/ENOSPC) — the chaos suites reopen after a fault at every durability op |
//! | hand-rolled client retry loops | [`net::HttpClient::send_with_retry`] with a [`net::RetryPolicy`] (jittered backoff, honors `Retry-After`) |
//! | `Engine::builder().shards(k)`, `ShardedEngine::builder().shards(k)`, `mpq serve --shards K`, tenant spec `shards=K` | `Engine::builder()` — one R-tree, one WAL, one buffer pool, one on-disk layout (`pages.mpq` + `wal.mpq`); a directory written as `K` shards (`shards.mpq` + `shard-i/`), or a page file checkpointed without the id bound, is refused untouched with `MpqError::UnsupportedRequest` — `mpq compact --data-dir DIR` at commit `cd313ab` converts either |
//! | `engine.shard_count()`, `engine.trees()`, `engine.shard_gauges()`, `/metrics` `"shards": [..]` | `engine.tree()`; `"objects"`, `"tree_height"`, `"buffer_hit_rate"`, `"wal_bytes"` in the `"storage"` object of `/metrics` |
//! | `Engine::builder().buffer_shards(n)`, `tree.set_buffer_shards(n)`, `tree.buffer_shards()`, `BufferPool::shard_count()` | nothing: the buffer pool is one LRU under one lock; `--threads` / `--workers` / `ServiceConfig::workers` size the workers |
//! | `Arc<dyn EvalBackend>`, `MatchRequest<'e, 'f, B>`, `client.backend()` | `Arc<Engine>`, `MatchRequest<'e, 'f>`, `client.engine()` (also on `EngineService` and `net::Tenant`) |
//! | `builder.open_or_build(k)`, `mpq_core::persisted_at(dir)` | `builder.open_or_build()`, `Engine::persisted_at(dir)` |
//! | `engine.session()`, `session.submit(&b)` | `engine.request(&b).stream()?`, drained, then `stream.load(&b)?` per later batch — one stream, with the request's exclusions and capacities carried across batches |
//! | `MonotoneSkylineMatcher { .. }.run(&o, &f)` | `Engine::builder().objects(&o).build()?.evaluate_monotone(&f)?` |
//! | `.best_pair(BestPairMode::Scan)`, `.best_pair(BestPairMode::TaNaiveThreshold)`, `.maintenance(MaintenanceMode::Rescan)`, `.algorithm(BruteForce).bf_strategy(BfStrategy::Restart)` | `.algorithm(Algorithm::SbScan)`, `.algorithm(Algorithm::SbNaiveThreshold)`, `.algorithm(Algorithm::SbRescan)`, `.algorithm(Algorithm::BruteForceRestart)` — a `Variant`: evaluated directly, never cached, streamed, served or capacitated |
//! | `client.submit(request.algorithm(a))`, wire `"algorithm": "bf"`, `mpq serve --algo bf` | served requests are SB alone: `request.algorithm(a).evaluate()` / `mpq match --algo bf` (the wire and `serve` refuse any other algorithm) |
//!
//! where `let engine = Engine::builder().objects(&o).build()?;` is built
//! once and shared (it is `Sync`; evaluation never mutates the index).
//! Invalid input now surfaces as a typed [`core::MpqError`] instead of a
//! panic, and per-run [`core::RunMetrics`] stay exact even when requests
//! run concurrently.
//!
//! ## Serving
//!
//! To run many requests, wrap the engine in the
//! [`core::EngineService`] submission queue ([`core::Engine::serve`] is
//! the blessed entry point): requests stream in through cloneable
//! [`core::ServiceClient`] handles and resolve through pollable,
//! blockable, cancellable [`core::Ticket`]s, with per-request deadlines,
//! a bounded queue that sheds when full (never blocking a submitter),
//! one queue order (higher priority first, FIFO within a priority),
//! graceful draining shutdown and rolling [`core::ServiceMetrics`].
//! Because evaluation is deterministic over an immutable index,
//! identical requests are served from a bounded, inventory-versioned
//! [`core::ResultCache`] and deduped while queued — a repeat
//! submission costs a lookup, not an evaluation. Running many requests
//! means holding a service:
//!
//! ```
//! use std::sync::Arc;
//! use mpq::core::ServiceConfig;
//! use mpq::prelude::*;
//! # let mut objects = PointSet::new(2);
//! # for p in [[0.9_f64, 0.2], [0.2, 0.9], [0.7, 0.7]] { objects.push(&p); }
//! # let functions = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
//!
//! let engine = Arc::new(Engine::builder().objects(&objects).build().unwrap());
//! let service = engine
//!     .clone()
//!     .serve(ServiceConfig::default().workers(2).cache_capacity(256));
//! let client = service.client();
//! let ticket = client.submit(client.engine().request(&functions)).unwrap();
//! let matching = ticket.wait().unwrap();
//! # assert_eq!(matching.len(), 1);
//!
//! // An identical request is a cache hit: bit-identical result, no
//! // second evaluation (the engine's evaluation counter stands still).
//! let evals = engine.evaluation_count();
//! let repeat = client.submit(client.engine().request(&functions)).unwrap();
//! assert_eq!(repeat.wait().unwrap().sorted_pairs(), matching.sorted_pairs());
//! assert_eq!(engine.evaluation_count(), evals);
//! assert_eq!(client.metrics().cache.hits, 1);
//! service.shutdown(); // graceful: drains queued + in-flight work
//! ```
//!
//! To put that service on the network, host engines as named tenants
//! in a [`net::TenantRegistry`] and bind a [`net::Server`] (CLI:
//! `mpq serve --listen ADDR`) — see the [`net`] crate docs and
//! `examples/client.rs` for the wire protocol.

pub use mpq_core as core;
pub use mpq_datagen as datagen;
pub use mpq_net as net;
pub use mpq_rtree as rtree;
pub use mpq_skyline as skyline;
pub use mpq_ta as ta;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use mpq_core::{
        Algorithm, CacheMetrics, Engine, EngineService, EvalSeed, HealthState, MatchRequest,
        Matching, MpqError, Pair, RequestKey, ResultCache, Scratch, ServiceClient, ServiceConfig,
        ServiceMetrics, Ticket, Variant,
    };
    pub use mpq_datagen::{Distribution, WorkloadBuilder};
    pub use mpq_net::{
        HttpClient, RetryPolicy, Server, ServerConfig, TenantConfig, TenantRegistry,
    };
    pub use mpq_rtree::{
        FaultInjector, FaultKind, FaultOp, IoSession, PointSet, RTree, RTreeParams,
    };
    pub use mpq_ta::FunctionSet;
}
