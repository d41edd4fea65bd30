//! The async serving layer: a submission queue in front of a shared
//! [`Engine`], with cross-request result caching and in-flight dedupe.
//! It is the one way to run many requests.
//!
//! The paper's premise (§I) is *many* preference queries arriving
//! against one inventory — and they arrive the way a network front-end
//! sees them: one at a time, revised, cancelled and resubmitted
//! (Chomicki's preference-revision line of work is the motivating
//! related literature), never as a pre-collected batch.
//! [`EngineService`] serves that stream:
//!
//! * [`EngineService::spawn`] (or the blessed
//!   [`Engine::serve`](crate::Engine::serve)) starts
//!   a pool of worker threads, each owning a persistent [`Scratch`] so
//!   every evaluation after its first is allocation-light;
//! * any number of cheap, cloneable [`ServiceClient`] handles feed a
//!   **bounded** submission queue, and a submitter never blocks: a
//!   submission that finds the queue full first sweeps out the jobs no
//!   submitter waits for any more, then, if it is still full, fails
//!   with [`MpqError::Overloaded`] — the network front-end's `429`;
//! * requests are built against the served engine:
//!   `client.submit(client.engine().request(&functions))`;
//! * every submission returns a [`Ticket`] — a std-only future
//!   (`Condvar`-backed oneshot, mirroring the `shims/` philosophy of
//!   zero external dependencies) that can be blocked on ([`Ticket::wait`],
//!   [`Ticket::wait_timeout`]), polled ([`Ticket::try_take`]) and
//!   cancelled ([`Ticket::cancel`]);
//! * per-request **deadlines** ([`SubmitOptions::deadline`]) expire
//!   queued work with a typed [`MpqError::DeadlineExceeded`] instead of
//!   wasting a worker on an answer nobody is waiting for — and expiry is
//!   **eager**: expired jobs are swept out of the queue (freeing their
//!   slots and resolving their waiters) by a submission that finds the
//!   queue full and by workers discarding dead jobs as they pop;
//! * because evaluation is deterministic and the shared index immutable,
//!   identical requests are served from a bounded, inventory-versioned
//!   [`ResultCache`] (consulted before enqueueing), and a submission
//!   identical to one *still queued* **attaches** to that job instead
//!   of paying a queue slot and a duplicate evaluation — it needs no
//!   slot, so it attaches even to a full queue, and each attached
//!   submission keeps its own ticket, deadline and cancellation. A
//!   submission builds its [`RequestKey`] once, outside the lock; a
//!   queued job wraps it in one `Arc` that the in-flight index and,
//!   once the result is published, the cache entry share. The worker
//!   packs the entry before it takes the lock, and the job's last
//!   member takes the matching itself, the others a copy each;
//! * a miss primes from the inventory's [`EvalSeed`](crate::EvalSeed) (see
//!   [`crate::seed`]): the service keeps one seed cell for the newest
//!   inventory version beside its cache, the first run at a version
//!   builds the seed in it, and every other run at that version waits
//!   for it and resumes, so one cold BBS runs per version. Uncached
//!   services keep no seed;
//! * the queue pops in one order — higher [`SubmitOptions::priority`]
//!   first, submission order within a priority — so traffic that never
//!   sets a priority is strictly FIFO;
//! * [`EngineService::shutdown`] is graceful: submissions stop, queued
//!   and in-flight work drains to completion, workers are joined;
//! * [`EngineService::metrics`] exposes rolling [`ServiceMetrics`]
//!   (queue depth, in-flight count, p50/p99 latency, throughput, cache
//!   hit rate).
//!
//! Results are **bit-identical** to sequential [`MatchRequest::evaluate`]
//! calls whatever the worker count — including results served from the
//! cache or through dedupe: evaluation is deterministic, the shared
//! index is never mutated, and the cache key covers everything that can
//! change the matching (asserted by `tests/service.rs` and
//! `tests/cache.rs`).
//!
//! There is exactly one scheduling code path: a `ServiceCore` owns the
//! served engine's `Arc`, the service's worker threads share the core,
//! and every one of them runs the same worker loop, which evaluates
//! through the engine's one seed-capable evaluation call.
//!
//! Locks, outermost first: the core's one mutex (queue, result cache,
//! in-flight index, ticket ids, shutdown flag) → a ticket's state →
//! the metrics. A path takes them only left to right (skipping is
//! fine), so the order is cycle-free. The engine's mutation log and the
//! seed cell are leaves: the cache reads the log under the core lock,
//! and no service lock is taken while either is held.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mpq_ta::FunctionSet;

use crate::cache::{CacheMetrics, PackedMatching, RequestKey, ResultCache};
use crate::engine::{Engine, HealthState, MatchRequest, RequestOptions};
use crate::error::MpqError;
use crate::matching::Matching;
use crate::scratch::Scratch;
use crate::seed::SeedSlot;

/// Lock a mutex, ignoring poisoning — the crate's one policy: every
/// critical section (engine, service) leaves the protected
/// state consistent even if a thread panicked elsewhere; a panicking
/// worker resolves its ticket through a guard before unwinding past the
/// lock.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Guarded throughput arithmetic behind
/// [`ServiceMetrics::requests_per_sec`]: `count / wall` as a rate per
/// second, except that a zero count or a zero-duration (or unmeasurably
/// fast) wall clock yields `0.0` — never `inf`, never NaN.
fn safe_rate(count: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if count == 0 || secs <= 0.0 || !secs.is_finite() {
        0.0
    } else {
        count as f64 / secs
    }
}

/// Configuration of an [`EngineService`] worker pool and queue.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Maximum queued (not yet running) requests, clamped to at least
    /// one. A submission that finds this many live jobs queued fails
    /// with [`MpqError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum entries of the cross-request [`ResultCache`]; `0`
    /// disables result caching **and** in-flight dedupe (every
    /// submission pays its own evaluation). Default 64: room for the
    /// repeats and near-misses of a few interactive clients' recent
    /// queries, while one-shot traffic, which never hits, holds at most
    /// 64 results (see [`ResultCache`]).
    pub cache_capacity: usize,
    /// Byte bound of the cached results (evicts LRU-first when
    /// exceeded). Default 32 MiB. A counted byte is a heap byte an
    /// entry holds and frees when it leaves: its key (shared with the
    /// job that computed it) and its pairs, packed into columns of 16
    /// or 20 bytes a pair (see [`ResultCache`]); the map and recency
    /// slots that index it are not counted. It bounds results only: the
    /// one seed a cached service keeps (see [`crate::seed`]) lives
    /// beside them.
    pub cache_max_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            queue_capacity: 256,
            cache_capacity: 64,
            cache_max_bytes: 32 << 20,
        }
    }
}

impl ServiceConfig {
    /// Set the worker count (`0` = one per available core).
    pub fn workers(mut self, workers: usize) -> ServiceConfig {
        self.workers = workers;
        self
    }

    /// Set the queue bound (clamped to at least 1).
    pub fn queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Set the result-cache entry bound (`0` disables caching and
    /// in-flight dedupe).
    pub fn cache_capacity(mut self, entries: usize) -> ServiceConfig {
        self.cache_capacity = entries;
        self
    }

    /// Set the result-cache byte bound, in heap bytes.
    pub fn cache_max_bytes(mut self, bytes: usize) -> ServiceConfig {
        self.cache_max_bytes = bytes;
        self
    }
}

/// Per-submission options (see [`ServiceClient::submit_with`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Evaluation must *start* within this budget of submission time;
    /// a request still queued when it lapses resolves to
    /// [`MpqError::DeadlineExceeded`] without touching a worker. Expiry
    /// is eager (swept by a submission that finds the queue full, and
    /// discarded by the worker that pops it), so an expired request
    /// frees its queue slot promptly. A deadline too large to represent
    /// as an instant (e.g. [`Duration::MAX`]) means "no deadline".
    pub deadline: Option<Duration>,
    /// Pop priority: higher first, submission order within a
    /// priority. The default 0 everywhere is strict FIFO.
    pub priority: i32,
}

impl SubmitOptions {
    /// Set the queueing deadline.
    pub fn deadline(mut self, deadline: Duration) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Set the pop priority (higher first).
    pub fn priority(mut self, priority: i32) -> SubmitOptions {
        self.priority = priority;
        self
    }
}

/// Lifecycle of one submitted request, protected by the ticket's mutex.
/// The `Done` payload dwarfs the other variants, but there is exactly
/// one `TicketState` per in-flight request — boxing the result would
/// buy nothing and cost an indirection on every poll.
#[allow(clippy::large_enum_variant)]
enum TicketState {
    /// Waiting for a result: in the queue, attached to an identical
    /// queued job, or being evaluated right now.
    Queued,
    /// Resolved; the result waits for [`Ticket::wait`]/[`Ticket::try_take`].
    Done(Result<Matching, MpqError>),
    /// The result has been moved out to the caller.
    Claimed,
}

/// The `Condvar`-backed oneshot shared between a [`Ticket`] and the
/// worker that resolves it.
struct TicketShared {
    state: Mutex<TicketState>,
    done: Condvar,
}

/// A pollable, blockable handle to one submitted request — the
/// std-only future returned by [`ServiceClient::submit`].
///
/// The ticket is independent of the service handle: it stays valid (and
/// its result retrievable) after [`EngineService::shutdown`], and
/// dropping it simply discards the eventual result.
pub struct Ticket {
    seq: u64,
    shared: Arc<TicketShared>,
    /// The service's counters, for attributing a winning [`Ticket::cancel`]
    /// — shared directly (not via the core), so a ticket that outlives
    /// its service keeps the counters alive and not the core's queue,
    /// cache and engine.
    metrics: Arc<Mutex<MetricsInner>>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match *lock(&self.shared.state) {
            TicketState::Queued => "queued",
            TicketState::Done(_) => "done",
            TicketState::Claimed => "claimed",
        };
        f.debug_struct("Ticket")
            .field("seq", &self.seq)
            .field("state", &state)
            .finish()
    }
}

impl Ticket {
    /// Submission sequence number (unique per service, monotonically
    /// increasing — also the FIFO tie-break).
    pub fn id(&self) -> u64 {
        self.seq
    }

    /// `true` once a result (success, error, cancellation or deadline
    /// expiry) is available without blocking.
    pub fn is_done(&self) -> bool {
        matches!(
            *lock(&self.shared.state),
            TicketState::Done(_) | TicketState::Claimed
        )
    }

    /// Block until the request resolves and return its result.
    pub fn wait(self) -> Result<Matching, MpqError> {
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(result) = Self::take_done(&mut state) {
                return result;
            }
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Block for at most `timeout`; `Ok(result)` if the request resolved
    /// in time, `Err(self)` (the ticket, still live) on timeout. A
    /// timeout too large to represent as an instant (e.g.
    /// [`Duration::MAX`] as a wait-forever sentinel) degrades to an
    /// unbounded [`Ticket::wait`] instead of returning instantly or
    /// panicking (pinned by a unit test).
    #[allow(clippy::result_large_err)] // Err is the ticket itself, by design
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<Matching, MpqError>, Ticket> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Ok(self.wait());
        };
        {
            let mut state = lock(&self.shared.state);
            loop {
                if let Some(result) = Self::take_done(&mut state) {
                    return Ok(result);
                }
                let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                state = self
                    .shared
                    .done
                    .wait_timeout(state, remaining)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
        Err(self)
    }

    /// Non-blocking poll: `Ok(result)` if the request has resolved,
    /// `Err(self)` (the ticket, still live) otherwise.
    #[allow(clippy::result_large_err)] // Err is the ticket itself, by design
    pub fn try_take(self) -> Result<Result<Matching, MpqError>, Ticket> {
        {
            let mut state = lock(&self.shared.state);
            if let Some(result) = Self::take_done(&mut state) {
                return Ok(result);
            }
        }
        Err(self)
    }

    /// Cancel the request. Returns `true` iff **this call** wins — the
    /// ticket resolves to [`MpqError::Cancelled`] immediately, whether
    /// it was queued, attached to an identical queued job, or being
    /// evaluated (the evaluation may still finish for other attached
    /// submissions — or for the cache — but this ticket's result is
    /// discarded). Cancelling one submission never cancels an identical
    /// one that deduped onto the same job. Returns `false` if the
    /// request had already resolved.
    pub fn cancel(&self) -> bool {
        let mut state = lock(&self.shared.state);
        match *state {
            TicketState::Queued => {
                *state = TicketState::Done(Err(MpqError::Cancelled));
                // Count before notifying so a woken waiter observes the
                // metrics update.
                lock(&self.metrics).cancelled += 1;
                drop(state);
                self.shared.done.notify_all();
                true
            }
            TicketState::Done(_) | TicketState::Claimed => false,
        }
    }

    /// If resolved, move the result out (state becomes `Claimed`).
    fn take_done(state: &mut TicketState) -> Option<Result<Matching, MpqError>> {
        if matches!(*state, TicketState::Done(_)) {
            match std::mem::replace(state, TicketState::Claimed) {
                TicketState::Done(result) => Some(result),
                _ => unreachable!("just matched Done"),
            }
        } else {
            None
        }
    }
}

/// One submission attached to a job: its oneshot, its own deadline, its
/// own submission instant (for latency attribution). Several members
/// share one evaluation when in-flight dedupe coalesces identical
/// requests.
struct Member {
    ticket: Arc<TicketShared>,
    /// Evaluation must start before this instant or *this member* (and
    /// only this member) resolves to [`MpqError::DeadlineExceeded`].
    deadline: Option<Instant>,
    submitted: Instant,
}

/// Resolve expired members (their own [`MpqError::DeadlineExceeded`])
/// and drop members already resolved elsewhere (cancelled); `false`
/// when no live member is left.
fn prune(members: &mut Vec<Member>, now: Instant, metrics: &Mutex<MetricsInner>) -> bool {
    members.retain(|member| {
        let mut state = lock(&member.ticket.state);
        match *state {
            TicketState::Done(_) | TicketState::Claimed => false,
            TicketState::Queued => {
                if member.deadline.is_some_and(|d| now > d) {
                    *state = TicketState::Done(Err(MpqError::DeadlineExceeded));
                    // Count before notifying so a woken waiter observes
                    // the metrics update.
                    lock(metrics).expired += 1;
                    drop(state);
                    member.ticket.done.notify_all();
                    false
                } else {
                    true
                }
            }
        }
    });
    !members.is_empty()
}

/// A job's place in the queue: higher priority first, submission order
/// within a priority — the queue map's ascending order is its pop
/// order, so jobs that all carry the default priority 0 pop FIFO.
type QueuePos = (Reverse<i32>, u64);

/// The request payload of a queued job: owned copies of the
/// submission's function set and options, which must outlive the
/// submitter's borrow. They are made only when the submission is
/// queued, so a cache hit or an attach copies nothing.
type Payload = (FunctionSet, RequestOptions);

/// One queued evaluation and every submission it resolves.
struct Job {
    functions: FunctionSet,
    options: RequestOptions,
    /// The canonical request identity when caching is on: what an
    /// identical submission finds in the in-flight index, and the key
    /// the result is published under — one `Arc`, which the index and
    /// the cache entry share.
    key: Option<Arc<RequestKey>>,
    /// The submission that queued the job and every identical one that
    /// attached to it while it was queued.
    members: Vec<Member>,
}

/// Everything behind the core's one mutex.
struct CoreState {
    /// The queued jobs, in pop order.
    queue: BTreeMap<QueuePos, Job>,
    /// Where an identical submission attaches: the queued job of each
    /// request identity. Every entry names a queued job — a worker
    /// removes it in the critical section that pops the job — and a
    /// higher-priority twin, which does not attach, takes the entry
    /// over.
    index: HashMap<Arc<RequestKey>, QueuePos>,
    /// `None` when `cache_capacity == 0`: no caching, no dedupe.
    cache: Option<ResultCache>,
    /// The next ticket id, also the FIFO tie-break.
    next_seq: u64,
    /// Set by shutdown: no new submissions; workers drain the queue and
    /// then exit.
    stopping: bool,
    /// Jobs popped by a worker and not yet published.
    in_flight: usize,
}

impl CoreState {
    /// Take the job at `pos` out of the queue, with the index entry
    /// that names it.
    fn remove(&mut self, pos: QueuePos) -> Option<Job> {
        let job = self.queue.remove(&pos)?;
        if let Some(key) = &job.key {
            if self.index.get(key) == Some(&pos) {
                self.index.remove(key);
            }
        }
        Some(job)
    }
}

/// Rolling counters behind the core's metrics mutex.
#[derive(Default)]
struct MetricsInner {
    submitted: u64,
    completed: u64,
    cancelled: u64,
    rejected: u64,
    expired: u64,
    panicked: u64,
    /// Submissions that attached to an identical queued job.
    dedupe_attaches: u64,
    /// Evaluations that resumed from a seed another run built.
    seeded_hits: u64,
    /// Summed [`RunMetrics::discover`](crate::RunMetrics::discover) and
    /// [`RunMetrics::maintain`](crate::RunMetrics::maintain) of every
    /// evaluation a worker ran.
    discover: Duration,
    maintain: Duration,
    /// The [`LATENCY_WINDOW`] most recent completion latencies (submit
    /// → resolve).
    latencies: VecDeque<Duration>,
}

/// How many recent completion latencies the rolling p50/p99 window
/// keeps.
const LATENCY_WINDOW: usize = 1024;

impl MetricsInner {
    /// Count one completion and roll its latency into the window.
    fn complete(&mut self, latency: Duration) {
        self.completed += 1;
        self.latencies.push_back(latency);
        if self.latencies.len() > LATENCY_WINDOW {
            self.latencies.pop_front();
        }
    }
}

/// The scheduling heart of an [`EngineService`], shared by its workers
/// and its clients: the served engine, a bounded priority queue that
/// sheds when full, with eager deadlines, result caching + dedupe, and
/// rolling metrics.
pub(crate) struct ServiceCore {
    engine: Arc<Engine>,
    workers: usize,
    queue_capacity: usize,
    state: Mutex<CoreState>,
    /// Workers wait here for jobs (or shutdown).
    jobs: Condvar,
    /// The seed every evaluation primes from (see [`crate::seed`]);
    /// `None` exactly when caching is off.
    seed: Option<SeedSlot>,
    /// Arc'd so [`Ticket`]s can count winning cancellations without
    /// holding the core.
    metrics: Arc<Mutex<MetricsInner>>,
    started: Instant,
}

impl ServiceCore {
    /// A core serving `engine`, its worker count resolved (`0` = one
    /// per available core) but no worker started.
    fn new(engine: Arc<Engine>, config: &ServiceConfig) -> ServiceCore {
        let cached = config.cache_capacity > 0;
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        ServiceCore {
            engine,
            workers,
            queue_capacity: config.queue_capacity.max(1),
            state: Mutex::new(CoreState {
                queue: BTreeMap::new(),
                index: HashMap::new(),
                cache: cached
                    .then(|| ResultCache::new(config.cache_capacity, config.cache_max_bytes)),
                next_seq: 0,
                stopping: false,
                in_flight: 0,
            }),
            jobs: Condvar::new(),
            seed: cached.then(SeedSlot::default),
            metrics: Arc::new(Mutex::new(MetricsInner::default())),
            started: Instant::now(),
        }
    }

    /// The one admission step, in one critical section: refuse if the
    /// service is stopping; serve a cache hit on the spot; attach to an
    /// identical queued job of no lower priority, which costs no slot;
    /// otherwise take a queue slot — a full queue first sweeps out its
    /// dead jobs, and is refused with [`MpqError::Overloaded`] if it is
    /// still full. `detach` makes the job's payload and is called only
    /// when the submission is queued, so a hit or an attach copies
    /// nothing. A cache entry stamped before the engine's inventory
    /// version is served only if its result provably survived every
    /// mutation since (the engine's mutation log).
    fn submit(
        &self,
        request: &MatchRequest<'_, '_>,
        submit: SubmitOptions,
        detach: impl FnOnce() -> Payload,
    ) -> Result<Ticket, MpqError> {
        let now = Instant::now();
        // An unrepresentable deadline (now + huge) means "no deadline",
        // mirroring Ticket::wait_timeout's overflow stance.
        let deadline = submit.deadline.and_then(|d| now.checked_add(d));
        let key = self.seed.is_some().then(|| request.cache_key());
        let engine = &self.engine;

        let mut guard = lock(&self.state);
        let state = &mut *guard;
        // The post-shutdown contract holds for every path, including a
        // would-be cache hit: a stopped service accepts nothing.
        if state.stopping {
            return Err(MpqError::ServiceStopped);
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let (ticket, shared) = self.new_ticket(seq);
        let member = Member {
            ticket: shared,
            deadline,
            submitted: now,
        };
        if let (Some(key), Some(cache)) = (&key, &mut state.cache) {
            let version = engine.inventory_version();
            if let Some(matching) = cache.get_with_logs(key, version, engine.mutations()) {
                // Hit: no queue slot, no worker, bit-identical result by
                // construction.
                *lock(&member.ticket.state) = TicketState::Done(Ok(matching));
                let mut metrics = lock(&self.metrics);
                metrics.submitted += 1;
                metrics.complete(now.elapsed());
                return Ok(ticket);
            }
            // A higher-priority duplicate must not quietly inherit the
            // queued job's lower priority: it queues a job of its own.
            let queued = (state.index.get(key))
                .filter(|pos| submit.priority <= pos.0 .0)
                .and_then(|pos| state.queue.get_mut(pos));
            if let Some(job) = queued {
                // The member keeps its own deadline and can be
                // cancelled without touching its siblings.
                job.members.push(member);
                let mut metrics = lock(&self.metrics);
                metrics.submitted += 1;
                metrics.dedupe_attaches += 1;
                return Ok(ticket);
            }
        }
        if state.queue.len() >= self.queue_capacity {
            // A queue full of dead work must not shed live traffic.
            let now = Instant::now();
            let dead: Vec<QueuePos> = (state.queue.iter_mut())
                .filter_map(|(pos, job)| {
                    (!prune(&mut job.members, now, &self.metrics)).then_some(*pos)
                })
                .collect();
            for pos in dead {
                state.remove(pos);
            }
            if state.queue.len() >= self.queue_capacity {
                lock(&self.metrics).rejected += 1;
                return Err(MpqError::Overloaded);
            }
        }
        let (functions, options) = detach();
        let pos = (Reverse(submit.priority), seq);
        let key = key.map(Arc::new);
        if let Some(key) = &key {
            state.index.insert(Arc::clone(key), pos);
        }
        let job = Job {
            functions,
            options,
            key,
            members: vec![member],
        };
        state.queue.insert(pos, job);
        // Count while the job is provably queued (and before any worker
        // can complete it) so no snapshot ever observes completed >
        // submitted.
        lock(&self.metrics).submitted += 1;
        drop(guard);
        self.jobs.notify_one();
        Ok(ticket)
    }

    /// Mint a queued ticket numbered `seq` (and its shared oneshot).
    fn new_ticket(&self, seq: u64) -> (Ticket, Arc<TicketShared>) {
        let shared = Arc::new(TicketShared {
            state: Mutex::new(TicketState::Queued),
            done: Condvar::new(),
        });
        let ticket = Ticket {
            seq,
            shared: Arc::clone(&shared),
            metrics: Arc::clone(&self.metrics),
        };
        (ticket, shared)
    }

    /// Worker side: block for the next job. `None` means the service is
    /// stopping *and* the queue has drained — the worker should exit.
    /// The pop takes the job's index entry with it and expires its
    /// lapsed members; a job with no live member left is discarded on
    /// the way.
    fn next_job(&self) -> Option<Job> {
        let mut state = lock(&self.state);
        loop {
            while let Some(&pos) = state.queue.keys().next() {
                let mut job = state.remove(pos).expect("just peeked");
                if prune(&mut job.members, Instant::now(), &self.metrics) {
                    state.in_flight += 1;
                    return Some(job);
                }
            }
            if state.stopping {
                return None;
            }
            state = self
                .jobs
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Run one popped job to resolution: evaluate once, publish to the
    /// cache, fan the result out to every member not cancelled
    /// meanwhile.
    fn execute(&self, job: Job, scratch: &mut Scratch) {
        // A panicking evaluation must not leave any member unresolved
        // (its waiter would block forever) nor take the worker down.
        let seed = self.seed.as_ref();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.engine
                .evaluate_seeded(&job.functions, &job.options, scratch, seed)
        }))
        .unwrap_or_else(|_| {
            // The scratch may have been mid-mutation; replace it.
            *scratch = Scratch::new();
            lock(&self.metrics).panicked += 1;
            Err(MpqError::WorkerPanicked)
        });
        // The result is cached under the version its pin read.
        let (result, version, resumed) = match result {
            Ok((matching, version, resumed)) => (Ok(matching), version, resumed),
            Err(e) => (Err(e), 0, false),
        };

        if let Ok(matching) = &result {
            let mut metrics = lock(&self.metrics);
            metrics.discover += matching.metrics().discover;
            metrics.maintain += matching.metrics().maintain;
            metrics.seeded_hits += u64::from(resumed);
        }
        // The entry is packed before the lock is taken; it shares the
        // job's key.
        let packed = match (&job.key, &result) {
            (Some(_), Ok(matching)) => Some(PackedMatching::pack(matching)),
            _ => None,
        };

        // Publish to the cache *before* resolving any ticket: a caller
        // that observed its ticket resolve and immediately resubmits
        // must hit.
        {
            let mut guard = lock(&self.state);
            let state = &mut *guard;
            if let (Some(key), Some(cache), Some(packed)) = (&job.key, &mut state.cache, packed) {
                cache.insert_with_logs(key, version, packed, self.engine.mutations());
            }
            state.in_flight -= 1;
        }

        // Every member but the last gets a copy; the last takes the
        // result itself.
        let last = job.members.len().saturating_sub(1);
        let mut result = Some(result);
        for (i, member) in job.members.into_iter().enumerate() {
            let latency = member.submitted.elapsed();
            {
                let mut state = lock(&member.ticket.state);
                match *state {
                    TicketState::Queued => {
                        let own = if i == last {
                            result.take()
                        } else {
                            result.clone()
                        };
                        *state = TicketState::Done(own.expect("only the last member takes it"));
                        // Count before notifying (still under the state
                        // lock, which every metrics taker acquires
                        // first) so a woken waiter observes the update.
                        lock(&self.metrics).complete(latency);
                    }
                    // Cancelled while we evaluated (and counted): this
                    // member's resolution stands; the result is
                    // discarded for them.
                    TicketState::Done(_) | TicketState::Claimed => {}
                }
            }
            member.ticket.done.notify_all();
        }
    }

    /// Requests queued and not yet claimed by a worker, right now.
    /// Cheaper than a full [`ServiceCore::metrics`] — one lock,
    /// no latency sort — so an admission-control path (e.g. the network
    /// front-end computing a `Retry-After`) can afford it per rejection.
    fn queue_depth(&self) -> usize {
        lock(&self.state).queue.len()
    }

    /// Requests claimed by a worker and not yet published, right now.
    fn in_flight(&self) -> usize {
        lock(&self.state).in_flight
    }

    /// Stop accepting submissions and wake the workers: they drain the
    /// queue and exit.
    fn begin_shutdown(&self) {
        lock(&self.state).stopping = true;
        self.jobs.notify_all();
    }

    /// Snapshot the rolling metrics, with what only the engine knows.
    fn metrics(&self) -> ServiceMetrics {
        // The engine's figures are read before any service lock is
        // taken: a snapshot must not hold one while it waits on the
        // engine's WAL lock, which a mutation holds through its fsync.
        let engine = &self.engine;
        let (storage, objects) = (engine.storage_stats(), engine.n_objects());
        let (tree_height, wal_bytes) = (engine.tree().height(), engine.wal_bytes());
        let health = engine.health();
        let (queue_depth, in_flight, mut cache) = {
            let state = lock(&self.state);
            let cache = state.cache.as_ref().map(ResultCache::metrics);
            (
                state.queue.len(),
                state.in_flight,
                cache.unwrap_or_default(),
            )
        };
        let metrics = lock(&self.metrics);
        cache.attaches = metrics.dedupe_attaches;
        cache.seeded_hits = metrics.seeded_hits;
        let mut sorted: Vec<Duration> = metrics.latencies.iter().copied().collect();
        sorted.sort_unstable();
        ServiceMetrics {
            workers: self.workers,
            queue_depth,
            in_flight,
            submitted: metrics.submitted,
            completed: metrics.completed,
            cancelled: metrics.cancelled,
            rejected: metrics.rejected,
            expired: metrics.expired,
            panicked: metrics.panicked,
            cache,
            storage,
            objects,
            tree_height,
            wal_bytes,
            health,
            uptime: self.started.elapsed(),
            p50_latency: percentile(&sorted, 0.50),
            p99_latency: percentile(&sorted, 0.99),
            discover: metrics.discover,
            maintain: metrics.maintain,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted sample; an empty
/// sample yields zero (the same guarded-arithmetic stance as
/// [`safe_rate`]).
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A worker's whole life: pop, evaluate, resolve, repeat — one
/// persistent [`Scratch`] across the entire stream — until shutdown
/// drains the queue.
fn worker_loop(core: &ServiceCore) {
    let mut scratch = Scratch::new();
    while let Some(job) = core.next_job() {
        core.execute(job, &mut scratch);
    }
}

/// Rolling service health counters (see [`EngineService::metrics`]).
///
/// A point-in-time snapshot: gauges (`queue_depth`, `in_flight`) are
/// instantaneous, counters are since spawn, and the latency percentiles
/// cover the 1 024 most recent completions (the service keeps no more).
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Requests queued and not yet claimed by a worker.
    pub queue_depth: usize,
    /// Requests currently being evaluated.
    pub in_flight: usize,
    /// Accepted submissions since spawn (including cache hits and
    /// dedupe attaches).
    pub submitted: u64,
    /// Successfully resolved requests since spawn (excludes
    /// cancellations and deadline expiries; includes cache hits and
    /// every submission served through a dedupe fan-out).
    pub completed: u64,
    /// Cancellations that won since spawn.
    pub cancelled: u64,
    /// Submissions shed with [`MpqError::Overloaded`]: the queue was
    /// full of live jobs.
    pub rejected: u64,
    /// Requests whose deadline lapsed before evaluation started.
    pub expired: u64,
    /// Evaluations lost to a worker panic.
    pub panicked: u64,
    /// Result-cache and dedupe counters (all zero when caching is
    /// disabled — see [`CacheMetrics::enabled`]).
    pub cache: CacheMetrics,
    /// Cumulative storage I/O of the served engine (logical/physical
    /// page traffic plus, on a disk-backed engine, real disk reads,
    /// writes and fsyncs of the pager and the WAL).
    pub storage: mpq_rtree::IoStats,
    /// Live objects in the served engine's tree.
    pub objects: usize,
    /// Height of the served engine's R-tree (levels; 1 = root leaf).
    pub tree_height: u32,
    /// Current WAL size in bytes (0 for an in-memory engine).
    pub wal_bytes: u64,
    /// Storage health of the served engine.
    pub health: HealthState,
    /// Time since the service was spawned.
    pub uptime: Duration,
    /// Median submit→resolve latency over the rolling window.
    pub p50_latency: Duration,
    /// 99th-percentile submit→resolve latency over the rolling window.
    pub p99_latency: Duration,
    /// Time SB evaluations spent discovering pairs (rank-list refresh,
    /// reverse top-1 scans included), summed over every evaluation a
    /// worker ran since spawn.
    pub discover: Duration,
    /// Time those evaluations spent in skyline maintenance, summed the
    /// same way. With `discover` it says where an evaluation's time
    /// goes; what is left of the latency is the BBS build of cold runs,
    /// queueing and the layers above.
    pub maintain: Duration,
}

impl ServiceMetrics {
    /// Completed requests per second of uptime. Guarded arithmetic: zero
    /// completions or zero uptime yield `0.0`, never `inf` or NaN.
    pub fn requests_per_sec(&self) -> f64 {
        safe_rate(self.completed, self.uptime)
    }

    /// Structured rendering of the full snapshot — counters, gauges,
    /// cache and storage — shared by the network front-end's `/metrics`
    /// endpoint and anything else that wants machine-readable service
    /// health. The field names are a stable contract pinned by a unit
    /// test, so this and the [`Display`](std::fmt::Display) impl can
    /// never drift apart: every figure Display prints has a named field
    /// here.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("workers", Json::Num(self.workers as f64)),
            ("queue_depth", Json::Num(self.queue_depth as f64)),
            ("in_flight", Json::Num(self.in_flight as f64)),
            ("submitted", Json::Num(self.submitted as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("cancelled", Json::Num(self.cancelled as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("expired", Json::Num(self.expired as f64)),
            ("panicked", Json::Num(self.panicked as f64)),
            ("cache", self.cache.to_json()),
            (
                "storage",
                Json::obj([
                    ("logical", Json::Num(self.storage.logical as f64)),
                    (
                        "physical_reads",
                        Json::Num(self.storage.physical_reads as f64),
                    ),
                    (
                        "physical_writes",
                        Json::Num(self.storage.physical_writes as f64),
                    ),
                    ("disk_reads", Json::Num(self.storage.disk_reads as f64)),
                    ("disk_writes", Json::Num(self.storage.disk_writes as f64)),
                    ("fsyncs", Json::Num(self.storage.fsyncs as f64)),
                    ("objects", Json::Num(self.objects as f64)),
                    ("tree_height", Json::Num(self.tree_height as f64)),
                    ("buffer_hit_rate", Json::Num(self.storage.hit_ratio())),
                    ("wal_bytes", Json::Num(self.wal_bytes as f64)),
                ]),
            ),
            ("health", Json::Str(self.health.as_str().to_string())),
            ("uptime_secs", Json::Num(self.uptime.as_secs_f64())),
            ("requests_per_sec", Json::Num(self.requests_per_sec())),
            (
                "latency_p50_ms",
                Json::Num(self.p50_latency.as_secs_f64() * 1e3),
            ),
            (
                "latency_p99_ms",
                Json::Num(self.p99_latency.as_secs_f64() * 1e3),
            ),
            (
                "discover_ms_sum",
                Json::Num(self.discover.as_secs_f64() * 1e3),
            ),
            (
                "maintain_ms_sum",
                Json::Num(self.maintain.as_secs_f64() * 1e3),
            ),
        ])
    }
}

impl std::fmt::Display for ServiceMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "workers {}  queue {}  in-flight {}  health {}",
            self.workers, self.queue_depth, self.in_flight, self.health
        )?;
        writeln!(
            f,
            "submitted {}  completed {}  cancelled {}  rejected {}  expired {}",
            self.submitted, self.completed, self.cancelled, self.rejected, self.expired
        )?;
        if self.cache.enabled {
            writeln!(
                f,
                "cache hits {}  misses {}  attaches {}  seeded {}  evictions {}  revalidations {}  hit-rate {:.1}%  ({} entries, {} KiB)",
                self.cache.hits,
                self.cache.misses,
                self.cache.attaches,
                self.cache.seeded_hits,
                self.cache.evictions,
                self.cache.revalidations,
                self.cache.hit_rate() * 100.0,
                self.cache.entries,
                self.cache.bytes / 1024
            )?;
        } else {
            writeln!(f, "cache disabled")?;
        }
        if self.storage != mpq_rtree::IoStats::default() {
            writeln!(f, "storage {}", self.storage)?;
        }
        if self.objects > 0 {
            writeln!(
                f,
                "index {} objects  height {}  buffer hit-rate {:.1}%  wal {} bytes",
                self.objects,
                self.tree_height,
                self.storage.hit_ratio() * 100.0,
                self.wal_bytes
            )?;
        }
        write!(
            f,
            "throughput {:.2} req/s  latency p50 {:.3}ms  p99 {:.3}ms",
            self.requests_per_sec(),
            self.p50_latency.as_secs_f64() * 1e3,
            self.p99_latency.as_secs_f64() * 1e3
        )
    }
}

/// A long-lived worker pool serving one shared [`Engine`] through a
/// bounded submission queue (see the [module docs](self)).
///
/// Spawn with [`Engine::serve`] or [`EngineService::spawn`]; feed it through [`ServiceClient`] handles;
/// stop it with [`EngineService::shutdown`] (dropping the service shuts
/// down gracefully too, draining all queued work first).
pub struct EngineService {
    core: Arc<ServiceCore>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for EngineService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineService")
            .field("engine", &self.core.engine)
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl EngineService {
    /// Start a worker pool over `engine`. Each worker owns a persistent
    /// [`Scratch`] for its whole lifetime, so steady-state evaluations
    /// reuse warm buffers instead of allocating per request.
    pub fn spawn(engine: Arc<Engine>, config: ServiceConfig) -> EngineService {
        let core = Arc::new(ServiceCore::new(engine, &config));
        let handles = (0..core.workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("mpq-worker-{i}"))
                    .spawn(move || worker_loop(&core))
                    .expect("spawn service worker")
            })
            .collect();
        EngineService { core, handles }
    }

    /// A cheap, cloneable submission handle. Clients stay valid for the
    /// service's lifetime; submissions after shutdown fail with
    /// [`MpqError::ServiceStopped`].
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            core: Arc::clone(&self.core),
        }
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.core.engine
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Snapshot the rolling [`ServiceMetrics`].
    pub fn metrics(&self) -> ServiceMetrics {
        self.core.metrics()
    }

    /// Requests queued and not yet claimed by a worker, right now — a
    /// single-lock gauge (no latency sort, no storage read), cheap enough
    /// for per-request admission control. Before this existed, the only
    /// way to observe per-service queue pressure from outside a worker
    /// was a full [`EngineService::metrics`] snapshot.
    pub fn queue_depth(&self) -> usize {
        self.core.queue_depth()
    }

    /// Requests claimed by a worker and not yet resolved, right now.
    pub fn in_flight(&self) -> usize {
        self.core.in_flight()
    }

    /// Graceful shutdown: stop accepting submissions, let the workers
    /// **drain** every queued and in-flight request to resolution, then
    /// join them. Outstanding [`Ticket`]s stay valid — their results can
    /// be collected after this returns.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.core.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EngineService {
    /// Dropping the service performs the same drained graceful shutdown
    /// as [`EngineService::shutdown`].
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A cheap, cloneable handle for submitting requests to an
/// [`EngineService`].
#[derive(Clone)]
pub struct ServiceClient {
    core: Arc<ServiceCore>,
}

impl std::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("engine", &self.core.engine)
            .finish()
    }
}

impl ServiceClient {
    /// The served engine — build requests against it:
    /// `client.submit(client.engine().request(&functions))`.
    pub fn engine(&self) -> &Engine {
        &self.core.engine
    }

    /// Submit a request with default [`SubmitOptions`] (no deadline,
    /// priority 0).
    pub fn submit(&self, request: MatchRequest<'_, '_>) -> Result<Ticket, MpqError> {
        self.submit_with(request, SubmitOptions::default())
    }

    /// Submit a request with a deadline and/or priority. The request
    /// must have been built against the served engine; one built on
    /// any other is refused with [`MpqError::UnsupportedRequest`]. It is
    /// validated *now* — shape errors surface to the submitter instead
    /// of travelling to a worker. Then, in one critical section, it is
    /// refused with [`MpqError::ServiceStopped`] after shutdown, served
    /// from the result cache if an identical request already completed
    /// against this inventory, attached to an identical queued job of no
    /// lower priority (which takes no slot, so it succeeds even when the
    /// queue is full), or queued. A full queue first drops the jobs no
    /// submitter waits for any more; if it is still full the submission
    /// fails with [`MpqError::Overloaded`] — it never blocks. Only a
    /// queued submission copies the function set.
    pub fn submit_with(
        &self,
        request: MatchRequest<'_, '_>,
        options: SubmitOptions,
    ) -> Result<Ticket, MpqError> {
        if !request.targets(&self.core.engine) {
            return Err(MpqError::UnsupportedRequest(
                "request was built against a different engine than this service serves",
            ));
        }
        request.validate()?;
        let (functions, request_options) = request.parts();
        self.core.submit(&request, options, || {
            (functions.clone(), request_options.clone())
        })
    }

    /// Snapshot the rolling [`ServiceMetrics`].
    pub fn metrics(&self) -> ServiceMetrics {
        self.core.metrics()
    }

    /// Requests queued and not yet claimed by a worker, right now (see
    /// [`EngineService::queue_depth`]).
    pub fn queue_depth(&self) -> usize {
        self.core.queue_depth()
    }

    /// Requests claimed by a worker and not yet resolved, right now.
    pub fn in_flight(&self) -> usize {
        self.core.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_rate_guards_zero_and_degenerate_inputs() {
        assert_eq!(safe_rate(0, Duration::ZERO), 0.0);
        assert_eq!(safe_rate(0, Duration::from_secs(3)), 0.0);
        assert_eq!(safe_rate(10, Duration::ZERO), 0.0);
        let r = safe_rate(10, Duration::from_secs(2));
        assert!((r - 5.0).abs() < 1e-12);
        assert!(safe_rate(u64::MAX, Duration::from_nanos(1)).is_finite());
    }

    #[test]
    fn service_metrics_rate_never_inf_or_nan() {
        let mut m = ServiceMetrics {
            workers: 1,
            queue_depth: 0,
            in_flight: 0,
            submitted: 0,
            completed: 0,
            cancelled: 0,
            rejected: 0,
            expired: 0,
            panicked: 0,
            cache: CacheMetrics::default(),
            storage: mpq_rtree::IoStats::default(),
            objects: 0,
            tree_height: 0,
            wal_bytes: 0,
            health: HealthState::Healthy,
            uptime: Duration::ZERO,
            p50_latency: Duration::ZERO,
            p99_latency: Duration::ZERO,
            discover: Duration::ZERO,
            maintain: Duration::ZERO,
        };
        assert_eq!(m.requests_per_sec(), 0.0); // 0 / 0
        m.completed = 12;
        assert_eq!(m.requests_per_sec(), 0.0); // n / 0
        m.uptime = Duration::from_secs(4);
        assert!((m.requests_per_sec() - 3.0).abs() < 1e-12);
        m.completed = 0;
        assert_eq!(m.requests_per_sec(), 0.0); // 0 / n
        assert!(!m.to_string().contains("NaN"));
        assert!(m.to_string().contains("cache disabled"));
        m.cache.enabled = true;
        assert!(m.to_string().contains("hit-rate"));
    }

    #[test]
    fn percentile_is_guarded_and_nearest_rank() {
        assert_eq!(percentile(&[], 0.99), Duration::ZERO);
        let one = [Duration::from_millis(7)];
        assert_eq!(percentile(&one, 0.50), Duration::from_millis(7));
        assert_eq!(percentile(&one, 0.99), Duration::from_millis(7));
        let many: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&many, 0.50), Duration::from_millis(51));
        assert_eq!(percentile(&many, 0.99), Duration::from_millis(99));
    }

    fn test_functions() -> FunctionSet {
        FunctionSet::from_rows(2, &[vec![0.5, 0.5]])
    }

    /// A three-object, two-dimensional engine to build requests on.
    fn tiny_engine() -> Arc<Engine> {
        let mut objects = mpq_rtree::PointSet::new(2);
        for p in [[0.9_f64, 0.1], [0.1, 0.9], [0.5, 0.5]] {
            objects.push(&p);
        }
        Arc::new(Engine::builder().objects(&objects).build().unwrap())
    }

    /// A core over a fresh [`tiny_engine`], with no worker running.
    fn core(config: ServiceConfig) -> ServiceCore {
        ServiceCore::new(tiny_engine(), &config)
    }

    fn uncached_core(config: ServiceConfig) -> ServiceCore {
        core(config.cache_capacity(0))
    }

    /// Submit [`test_functions`] to `core`, as a service client does.
    fn submit(core: &ServiceCore, options: SubmitOptions) -> Result<Ticket, MpqError> {
        let functions = test_functions();
        let request = core.engine.request(&functions);
        core.submit(&request, options, || {
            (functions.clone(), RequestOptions::default())
        })
    }

    /// Pop the queue's next job and return its ticket id.
    fn pop(core: &ServiceCore) -> u64 {
        lock(&core.state).queue.pop_first().unwrap().0 .1
    }

    #[test]
    fn a_published_entry_shares_the_jobs_key() {
        // Two identical submissions, one job: the dedupe index, the job
        // and the cache entry hold one `Arc` of the key, never a copy.
        let core = core(ServiceConfig::default());
        let first = submit(&core, SubmitOptions::default()).unwrap();
        let second = submit(&core, SubmitOptions::default()).unwrap();
        let job = core.next_job().expect("one queued job");
        assert_eq!(job.members.len(), 2, "the twin attached");
        let key = Arc::clone(job.key.as_ref().expect("a cached core keys its jobs"));
        core.execute(job, &mut Scratch::new());

        let state = lock(&core.state);
        let cache = state.cache.as_ref().unwrap();
        let stored = cache.stored_key(&key).expect("the result was published");
        assert!(Arc::ptr_eq(stored, &key), "the entry copied the job's key");
        // The entry's map slot and recency slot, and this test's handle.
        assert_eq!(Arc::strong_count(&key), 3);
        drop(state);

        let (a, b) = (first.wait().unwrap(), second.wait().unwrap());
        assert_eq!(a.pairs(), b.pairs());
        let fresh = core.engine.request(&test_functions()).evaluate().unwrap();
        assert_eq!(a.pairs(), fresh.pairs());
    }

    #[test]
    fn queue_pops_fifo_and_priority_orders() {
        // No workers: enqueue, then drain the queue directly and observe
        // the pop order deterministically.
        let pops = |priorities: &[i32]| -> Vec<u64> {
            let core = uncached_core(ServiceConfig::default().queue_capacity(8));
            for &p in priorities {
                submit(&core, SubmitOptions::default().priority(p)).unwrap();
            }
            priorities.iter().map(|_| pop(&core)).collect()
        };

        // Default priorities pop in submission order.
        assert_eq!(pops(&[0, 0, 0, 0]), vec![0, 1, 2, 3]);
        // Higher priority first, FIFO among equals.
        assert_eq!(pops(&[0, 5, 0, 9, 5]), vec![3, 1, 4, 0, 2]);
    }

    #[test]
    fn wait_timeout_duration_max_means_wait_forever_not_instant_return() {
        // Duration::MAX overflows Instant::now() + timeout; the intended
        // semantics are "wait forever", not "return the ticket
        // immediately" (and certainly not a panic).
        let shared = Arc::new(TicketShared {
            state: Mutex::new(TicketState::Queued),
            done: Condvar::new(),
        });
        let ticket = Ticket {
            seq: 0,
            shared: Arc::clone(&shared),
            metrics: Arc::new(Mutex::new(MetricsInner::default())),
        };
        let resolver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            *lock(&shared.state) = TicketState::Done(Err(MpqError::Cancelled));
            shared.done.notify_all();
        });
        // Before the fix pattern, this would return Err(ticket) at once
        // (checked_add = None treated as an already-lapsed deadline).
        let result = ticket.wait_timeout(Duration::MAX);
        resolver.join().unwrap();
        match result {
            Ok(inner) => assert_eq!(inner.unwrap_err(), MpqError::Cancelled),
            Err(_) => panic!("Duration::MAX must wait for the result, not return the ticket"),
        }
    }

    /// A higher-priority duplicate must not
    /// quietly inherit a queued twin's lower priority by attaching to
    /// it: it starts its own, correctly ordered job. Equal or lower
    /// priorities still dedupe.
    #[test]
    fn higher_priority_duplicate_does_not_attach_to_a_lower_priority_job() {
        let core = core(ServiceConfig::default().queue_capacity(8));
        let low = submit(&core, SubmitOptions::default().priority(0)).unwrap();
        // Identical request, higher priority: its own queue entry.
        let high = submit(&core, SubmitOptions::default().priority(10)).unwrap();
        assert_eq!(core.queue_depth(), 2);
        assert_eq!(lock(&core.metrics).dedupe_attaches, 0);
        // Identical request, lower priority than the (now indexed)
        // priority-10 job: attaches — it only ever pops *sooner* than
        // it paid for, never later.
        let _attached = submit(&core, SubmitOptions::default().priority(5)).unwrap();
        assert_eq!(core.queue_depth(), 2);
        assert_eq!(lock(&core.metrics).dedupe_attaches, 1);
        // The higher-priority twin pops first.
        assert_eq!(pop(&core), high.id());
        assert_eq!(pop(&core), low.id());
    }

    /// A full queue sweeps expired jobs before shedding: a queue full of
    /// dead work must not 429 live traffic.
    #[test]
    fn reject_mode_sweeps_expired_jobs_before_shedding() {
        let core = uncached_core(ServiceConfig::default().queue_capacity(1));
        let dead = submit(&core, SubmitOptions::default().deadline(Duration::ZERO)).unwrap();
        // Queue is "full" — but only of an expired job, so this must be
        // accepted, not rejected.
        let live = submit(&core, SubmitOptions::default())
            .expect("sweep must free the slot before the reject verdict");
        assert_eq!(dead.wait().unwrap_err(), MpqError::DeadlineExceeded);
        assert!(!live.is_done());
        assert_eq!(lock(&core.metrics).rejected, 0);
        // Now full of a live job: the next distinct submission is shed.
        assert_eq!(
            submit(&core, SubmitOptions::default()).unwrap_err(),
            MpqError::Overloaded
        );
        assert_eq!(lock(&core.metrics).rejected, 1);
    }

    /// Regression: per-service queue pressure is observable from outside
    /// a worker. Before `queue_depth()`/`in_flight()` existed the only
    /// window was a full metrics snapshot, too heavy for an
    /// admission-control path computing a `Retry-After` per rejection.
    #[test]
    fn queue_depth_and_in_flight_snapshots_track_the_queue() {
        let core = uncached_core(ServiceConfig::default().queue_capacity(8));
        assert_eq!(core.queue_depth(), 0);
        assert_eq!(core.in_flight(), 0);
        for _ in 0..3 {
            submit(&core, SubmitOptions::default()).unwrap();
        }
        assert_eq!(core.queue_depth(), 3);
        assert_eq!(core.in_flight(), 0);
        // A worker claiming a job moves it from queued to in-flight.
        let job = core.next_job().expect("job queued");
        assert_eq!(core.queue_depth(), 2);
        assert_eq!(core.in_flight(), 1);
        // Resolving it through the normal execute path clears the gauge.
        let mut scratch = Scratch::new();
        core.execute(job, &mut scratch);
        assert_eq!(core.queue_depth(), 2);
        assert_eq!(core.in_flight(), 0);
    }

    /// The public handles surface the same gauges.
    #[test]
    fn service_and_client_expose_queue_snapshots() {
        let engine = tiny_engine();
        let service =
            Arc::clone(&engine).serve(ServiceConfig::default().workers(1).queue_capacity(4));
        let client = service.client();
        let fs = test_functions();
        let t = client.submit(engine.request(&fs)).unwrap();
        t.wait().unwrap();
        // Drained: both gauges are deterministically zero again.
        let deadline = Instant::now() + Duration::from_secs(10);
        while (service.queue_depth(), service.in_flight()) != (0, 0) {
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        assert_eq!(client.queue_depth(), 0);
        assert_eq!(client.in_flight(), 0);
    }

    /// Pin the `to_json` field names: the `/metrics` endpoint and the
    /// Display impl must never drift apart, and a renamed field would
    /// silently break downstream consumers of the JSON.
    #[test]
    fn service_metrics_to_json_pins_field_names() {
        let mut m = ServiceMetrics {
            workers: 2,
            queue_depth: 3,
            in_flight: 1,
            submitted: 10,
            completed: 6,
            cancelled: 1,
            rejected: 2,
            expired: 1,
            panicked: 0,
            cache: CacheMetrics {
                enabled: true,
                hits: 4,
                misses: 2,
                attaches: 1,
                insertions: 2,
                evictions: 1,
                revalidations: 1,
                seeded_hits: 2,
                entries: 1,
                bytes: 512,
            },
            storage: mpq_rtree::IoStats {
                logical: 100,
                physical_reads: 10,
                physical_writes: 5,
                disk_reads: 3,
                disk_writes: 2,
                fsyncs: 1,
            },
            objects: 3,
            tree_height: 1,
            wal_bytes: 64,
            health: HealthState::Degraded,
            uptime: Duration::from_secs(2),
            p50_latency: Duration::from_millis(5),
            p99_latency: Duration::from_millis(50),
            discover: Duration::from_millis(30),
            maintain: Duration::from_millis(70),
        };
        let json = m.to_json();
        for key in [
            "workers",
            "queue_depth",
            "in_flight",
            "submitted",
            "completed",
            "cancelled",
            "rejected",
            "expired",
            "panicked",
            "uptime_secs",
            "requests_per_sec",
            "latency_p50_ms",
            "latency_p99_ms",
            "discover_ms_sum",
            "maintain_ms_sum",
        ] {
            assert!(
                json.get(key).and_then(crate::json::Json::as_f64).is_some()
                    || key == "workers" && json.get(key).is_some(),
                "missing numeric field '{key}'"
            );
        }
        let cache = json.get("cache").expect("cache sub-object");
        for key in [
            "enabled",
            "hits",
            "misses",
            "attaches",
            "insertions",
            "evictions",
            "revalidations",
            "seeded_hits",
            "entries",
            "bytes",
            "hit_rate",
        ] {
            assert!(cache.get(key).is_some(), "missing cache field '{key}'");
        }
        assert_eq!(
            cache.get("seeded_hits").and_then(crate::json::Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            cache.get("hit_rate").and_then(crate::json::Json::as_f64),
            Some(m.cache.hit_rate())
        );
        let storage = json.get("storage").expect("storage sub-object");
        for key in [
            "logical",
            "physical_reads",
            "physical_writes",
            "disk_reads",
            "disk_writes",
            "fsyncs",
            "objects",
            "tree_height",
            "buffer_hit_rate",
            "wal_bytes",
        ] {
            assert!(
                storage
                    .get(key)
                    .and_then(crate::json::Json::as_f64)
                    .is_some(),
                "missing storage field '{key}'"
            );
        }
        assert_eq!(
            storage.get("fsyncs").and_then(crate::json::Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            storage
                .get("buffer_hit_rate")
                .and_then(crate::json::Json::as_f64),
            Some(m.storage.hit_ratio())
        );
        assert!(json.get("shards").is_none(), "one tree, no per-shard rows");
        assert_eq!(
            json.get("health").and_then(crate::json::Json::as_str),
            Some("degraded"),
            "health must be reported as its lowercase wire name"
        );
        // Round-trips through the parser (field values are finite).
        let text = json.render();
        assert_eq!(crate::json::Json::parse(&text).unwrap(), json);
        // Every figure Display mentions has a named field in the JSON:
        // spot-check the three that have drifted in review before.
        assert_eq!(json.get("queue_depth").unwrap().as_f64(), Some(3.0));
        assert_eq!(json.get("completed").unwrap().as_f64(), Some(6.0));
        assert_eq!(
            json.get("latency_p99_ms").unwrap().as_f64(),
            Some(m.p99_latency.as_secs_f64() * 1e3)
        );
        assert_eq!(json.get("maintain_ms_sum").unwrap().as_f64(), Some(70.0));
        // Disabled cache renders with enabled=false and zero counters,
        // matching the Display impl's "cache disabled" line.
        m.cache = CacheMetrics::default();
        let off = m.to_json();
        assert_eq!(
            off.get("cache").unwrap().get("enabled").unwrap().as_bool(),
            Some(false)
        );
    }
}
