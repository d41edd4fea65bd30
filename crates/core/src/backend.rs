//! The one evaluation backend: what the serving layers need from a
//! hosted inventory, whichever engine holds it.
//!
//! Every matcher reduces to repeatedly finding the best
//! `(score, fid, oid)` pair over the surviving inventory — one
//! abstraction — so the service, the network tenants and the CLI hold
//! an `Arc<dyn EvalBackend>` and never ask which engine is behind it.
//! Two implementations exist: [`Engine`] (one R-tree, the paper's
//! SB / Brute Force / Chain paths) and [`ShardedEngine`] (K per-shard
//! R-trees, evaluated by the engine's SB run over the union of their
//! skylines). Which of the two hosts a
//! given inventory is decided in exactly one place,
//! [`EngineBuilder::open_or_build`](crate::EngineBuilder::open_or_build).

use std::borrow::Cow;
use std::path::Path;
use std::time::Instant;

use mpq_rtree::IoStats;
use mpq_ta::FunctionSet;

use crate::cache::MutationLog;
use crate::engine::{BatchMetrics, BatchOutcome, Engine, MatchRequest, RequestOptions};
use crate::error::MpqError;
use crate::matching::Matching;
use crate::scratch::Scratch;
use crate::seed::EvalSeed;
use crate::service::{resolved_workers, worker_loop, ServiceConfig, ServiceCore, SubmitOptions};
use crate::shard::{ShardGauges, ShardedEngine};

/// A hosted inventory that can evaluate requests, mutate and
/// checkpoint. Object-safe: [`EngineService`](crate::EngineService),
/// [`ServiceClient`](crate::ServiceClient) and the network tenants hold
/// it as `Arc<dyn EvalBackend>`.
///
/// Versions are a **vector** — one component per independently mutated
/// partition (exactly one for an [`Engine`]) — so a
/// [`ResultCache`](crate::ResultCache) entry survives mutations of
/// partitions that cannot affect it; [`EvalBackend::mutation_logs`] is
/// aligned with it component-wise.
pub trait EvalBackend: Send + Sync + std::fmt::Debug {
    /// Dimensionality of the indexed preference space.
    fn dim(&self) -> usize;

    /// Live objects in the inventory.
    fn n_objects(&self) -> usize;

    /// One past the highest object id ever assigned (ids are never
    /// recycled).
    fn oid_bound(&self) -> u64;

    /// R-tree pages across the whole inventory.
    fn page_count(&self) -> usize;

    /// Write-ahead-log bytes not yet folded into the page files (0 for
    /// an in-memory inventory).
    fn wal_bytes(&self) -> u64;

    /// The inventory version vector, in partition order — the cache
    /// stamp for results evaluated against this backend.
    fn version_vector(&self) -> Vec<u64>;

    /// The per-partition mutation logs, aligned with
    /// [`EvalBackend::version_vector`].
    fn mutation_logs(&self) -> Vec<&MutationLog>;

    /// Cumulative storage-level I/O, summed over partitions.
    fn storage_stats(&self) -> IoStats;

    /// Per-shard operator gauges; empty for an unpartitioned engine.
    fn shard_gauges(&self) -> Vec<ShardGauges> {
        Vec::new()
    }

    /// Validate and evaluate `options` over `functions`. A usable `seed`
    /// primes the evaluation; a run that had none and ran cold leaves
    /// the inventory's [`EvalSeed`] in `capture`. Configurations that
    /// cannot resume silently decline both, so callers never branch on
    /// the algorithm or the backend. `scratch` serves reusable working
    /// state to backends that have any. Seeded and cold evaluation of
    /// the same request are score-bit-identical (see [`crate::seed`]).
    fn evaluate_seeded(
        &self,
        functions: &FunctionSet,
        options: &RequestOptions,
        scratch: &mut Scratch,
        seed: Option<&EvalSeed>,
        capture: Option<&mut Option<EvalSeed>>,
    ) -> Result<Matching, MpqError>;

    /// Insert a new object, returning its freshly minted id.
    fn insert_object(&self, point: &[f64]) -> Result<u64, MpqError>;

    /// Remove an object (never the last one).
    fn remove_object(&self, oid: u64) -> Result<(), MpqError>;

    /// Move an existing object to a new point.
    fn update_object(&self, oid: u64, point: &[f64]) -> Result<(), MpqError>;

    /// Fold the write-ahead log into the page files (a no-op in memory);
    /// also the repair primitive for a wedged log.
    fn checkpoint(&self) -> Result<(), MpqError>;
}

impl<'a> dyn EvalBackend + 'a {
    /// Start a [`MatchRequest`] for `functions` with default options —
    /// how callers holding only the trait object (a
    /// [`ServiceClient`](crate::ServiceClient), a network tenant) build
    /// requests: `client.submit(client.backend().request(&functions))`.
    pub fn request<'e, 'f>(&'e self, functions: &'f FunctionSet) -> MatchRequest<'e, 'f, Self> {
        MatchRequest::new(self, functions)
    }

    /// Evaluate independent requests on a scoped worker pool (see
    /// [`Engine::evaluate_batch`], which this is for any backend).
    pub fn evaluate_batch(
        &self,
        requests: &[MatchRequest<'_, '_, Self>],
        threads: usize,
    ) -> Result<BatchOutcome, MpqError> {
        evaluate_batch_on(self, requests, threads)
    }
}

/// Does `dir` hold a persisted inventory, in either on-disk layout —
/// i.e. would
/// [`EngineBuilder::open_or_build`](crate::EngineBuilder::open_or_build)
/// reopen it rather than build afresh?
pub fn persisted_at(dir: impl AsRef<Path>) -> bool {
    ShardedEngine::persisted_at(&dir) || Engine::persisted_at(&dir)
}

/// The one batch path: a submit-all-then-wait run of the service's own
/// scheduling core over scoped workers borrowing `backend`.
pub(crate) fn evaluate_batch_on<B: EvalBackend + ?Sized>(
    backend: &dyn EvalBackend,
    requests: &[MatchRequest<'_, '_, B>],
    threads: usize,
) -> Result<BatchOutcome, MpqError> {
    let wall_start = Instant::now();
    let n = requests.len();
    let threads = resolved_workers(threads).clamp(1, n.max(1));

    // Fail fast: all evaluation errors are request-shape errors, so an
    // invalid request is caught here — in input order — before any work
    // is spent on the rest of the batch. Requests built on a *different*
    // backend are refused outright (same guard as
    // `ServiceClient::submit_with`): these workers would otherwise
    // evaluate them against the wrong inventory.
    for request in requests {
        if !request.targets(backend) {
            return Err(MpqError::UnsupportedRequest(
                "request was built against a different engine than this batch's",
            ));
        }
        request.validate()?;
    }

    // The batch is one drained service run: a queue sized to the batch
    // (so submission never blocks), FIFO order, scoped workers borrowing
    // the backend instead of the long-lived service's Arc. The queue
    // payloads are *borrowed* from `requests` (the workers cannot
    // outlive the slice), so no request is cloned to travel the queue.
    // Caching is off: a batch is explicit about its request list, and
    // per-request [`RunMetrics`](crate::RunMetrics) stay exact only when
    // every request pays its own run.
    let core = ServiceCore::new(
        &ServiceConfig::default()
            .workers(threads)
            .queue_capacity(n.max(1))
            .cache_capacity(0),
        threads,
    );
    let mut results: Vec<Result<Matching, MpqError>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let core = &core;
            scope.spawn(move || worker_loop(core, backend));
        }
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| {
                let (functions, options) = r.parts();
                core.enqueue(
                    Cow::Borrowed(functions),
                    Cow::Borrowed(options),
                    SubmitOptions::default(),
                )
                .expect("batch queue is sized to the batch and not shutting down")
            })
            .collect();
        results.extend(tickets.into_iter().map(|t| t.wait()));
        // All tickets resolved: let the scoped workers drain out so the
        // scope can join them.
        core.begin_shutdown();
    });

    let mut matchings = Vec::with_capacity(n);
    let mut metrics = BatchMetrics {
        threads,
        requests: n,
        ..BatchMetrics::default()
    };
    for result in results {
        let m = result?;
        let met = m.metrics();
        metrics.io += met.io;
        metrics.cpu_total += met.elapsed;
        metrics.loops += met.loops;
        metrics.top1_searches += met.top1_searches;
        metrics.reverse_top1_calls += met.reverse_top1_calls;
        matchings.push(m);
    }
    metrics.wall = wall_start.elapsed();
    Ok(BatchOutcome::from_parts(matchings, metrics))
}
