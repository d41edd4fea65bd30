//! Acceptance tests for cross-request result caching and in-flight
//! dedupe (PR 5): identical submissions pay exactly one evaluation
//! (observable via [`Engine::evaluation_count`]), every served result is
//! **bit-identical** to fresh sequential evaluation, cancellation and
//! deadlines stay per-submission (a follower's fate never touches the
//! leader), and inventory-version stamping makes cache entries die with
//! the engine they were computed against. The inventory's seed lives
//! beside the cache, never in its bytes: one cold run per version
//! builds it in that version's `OnceLock` cell, every other miss at the
//! version waits for that run and resumes from it — whatever
//! `cache_max_bytes` is — and a run that panics while building leaves
//! the cell to the next (`one_capture_per_version_*`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpq::core::{
    CacheMetrics, EngineService, IndexConfig, ResultCache, ServiceConfig, SubmitOptions,
};
use mpq::datagen::{Distribution, WorkloadBuilder};
use mpq::prelude::*;
use mpq::rtree::{FaultInjector, FaultKind, FaultOp};
use mpq::ta::FunctionSet;

/// A shared inventory sized so one SB evaluation takes long enough
/// (~10ms release, ~130ms debug) to deterministically occupy a worker
/// while the test manipulates the queue behind it.
fn slow_engine() -> Arc<Engine> {
    let w = WorkloadBuilder::new()
        .objects(15_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::AntiCorrelated)
        .seed(42)
        .build();
    Arc::new(Engine::builder().objects(&w.objects).build().unwrap())
}

/// `n` functions; equal seeds produce bit-identical rows, i.e.
/// identical cache keys, and different seeds share no row.
fn function_set(n: usize, seed: u64) -> FunctionSet {
    WorkloadBuilder::new()
        .objects(1)
        .functions(n)
        .dim(3)
        .seed(seed)
        .build()
        .functions
}

/// A heavy request batch for the slow engine.
fn slow_functions() -> FunctionSet {
    function_set(150, 43)
}

/// A small request batch (fast to evaluate).
fn fast_functions(seed: u64) -> FunctionSet {
    function_set(10, seed)
}

/// Spin until the service reports `in_flight` requests being evaluated
/// and `queued` requests waiting, or panic after a generous timeout.
/// Reads the two gauges alone: a full metrics snapshot also reads the
/// storage counters, which wait for a page read an injected delay holds.
fn await_state(client: &mpq::core::ServiceClient, in_flight: usize, queued: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = (client.in_flight(), client.queue_depth());
        if now == (in_flight, queued) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "service never reached in_flight={in_flight} queue={queued}; (in_flight, queue) {now:?}"
        );
        std::thread::yield_now();
    }
}

fn assert_identical(a: &Matching, b: &Matching, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: pair count");
    for (x, y) in a.sorted_pairs().iter().zip(b.sorted_pairs()) {
        assert_eq!(x.fid, y.fid, "{ctx}: fid");
        assert_eq!(x.oid, y.oid, "{ctx}: oid");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{ctx}: score must be byte-identical"
        );
    }
}

#[test]
fn identical_concurrent_submissions_pay_exactly_one_evaluation() {
    const N: usize = 6;
    let (engine, inj) = injected_engine();
    let functions = fast_functions(900);
    let sequential = engine.request(&functions).evaluate().unwrap();

    let service = engine
        .clone()
        .serve(ServiceConfig::default().workers(1).queue_capacity(32));
    let client = service.client();

    // Occupy the single worker so the N identical submissions all land
    // while their leader is still queued — the deterministic dedupe
    // window: the blocker's first page read takes 300 ms.
    // Counted from before the blocker: a worker holds a job "in flight"
    // a moment before the evaluation counts itself, so a snapshot taken
    // once the blocker is in flight could miss it.
    let evals_before = engine.evaluation_count();
    let slow = slow_functions();
    inj.fail_nth(
        FaultOp::PageRead,
        0,
        FaultKind::Delay(Duration::from_millis(300)),
    );
    let blocker = client.submit(client.engine().request(&slow)).unwrap();
    await_state(&client, 1, 0);

    let barrier = Arc::new(std::sync::Barrier::new(N));
    let tickets: Vec<_> = (0..N)
        .map(|_| {
            let client = client.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let functions = fast_functions(900);
                barrier.wait();
                client.submit(client.engine().request(&functions)).unwrap()
            })
        })
        .collect();
    let tickets: Vec<_> = tickets.into_iter().map(|t| t.join().unwrap()).collect();
    // Still behind the blocker: one leader queued, every other
    // submission attached to it.
    await_state(&client, 1, 1);

    assert!(blocker.wait().is_ok());
    for (i, ticket) in tickets.into_iter().enumerate() {
        let served = ticket.wait().unwrap();
        assert_identical(&served, &sequential, &format!("deduped submission {i}"));
    }

    // One evaluation for the blocker; the N identical submissions must
    // have added exactly one.
    assert_eq!(
        engine.evaluation_count() - evals_before,
        2,
        "{N} identical concurrent submissions must share one evaluation"
    );
    let m = client.metrics();
    assert_eq!(m.cache.attaches, N as u64 - 1, "all but the leader attach");
    assert_eq!(m.completed, N as u64 + 1);
    service.shutdown();
}

#[test]
fn a_duplicate_of_a_queued_job_attaches_even_when_the_queue_is_full() {
    let (engine, inj) = injected_engine();
    let functions = fast_functions(909);
    let sequential = engine.request(&functions).evaluate().unwrap();

    let service = engine
        .clone()
        .serve(ServiceConfig::default().workers(1).queue_capacity(1));
    let client = service.client();

    // One worker held by a blocker whose first page read takes 300 ms,
    // and the one slot taken by the leader behind it.
    let evals_before = engine.evaluation_count(); // see above: before the blocker
    inj.fail_nth(
        FaultOp::PageRead,
        0,
        FaultKind::Delay(Duration::from_millis(300)),
    );
    let blocker = client
        .submit(client.engine().request(&slow_functions()))
        .unwrap();
    await_state(&client, 1, 0);
    let leader = client.submit(client.engine().request(&functions)).unwrap();
    await_state(&client, 1, 1);

    // The full queue sheds a distinct request...
    let other = fast_functions(910);
    let shed = client.submit(client.engine().request(&other));
    assert_eq!(shed.unwrap_err(), MpqError::Overloaded);
    // ...but an identical one needs no slot: it attaches.
    let follower = client
        .submit(client.engine().request(&functions))
        .expect("a duplicate of a queued job attaches, full queue or not");
    await_state(&client, 1, 1);

    assert!(blocker.wait().is_ok());
    assert_identical(&leader.wait().unwrap(), &sequential, "leader");
    assert_identical(&follower.wait().unwrap(), &sequential, "follower");
    assert_eq!(
        engine.evaluation_count() - evals_before,
        2,
        "blocker + one evaluation for both submissions"
    );
    let m = client.metrics();
    assert_eq!((m.cache.attaches, m.rejected), (1, 1));
    service.shutdown();
}

#[test]
fn cache_hit_skips_evaluation_and_is_bit_identical() {
    let engine = slow_engine();
    let functions = fast_functions(901);
    let sequential = engine.request(&functions).evaluate().unwrap();

    let service = engine.clone().serve(ServiceConfig::default().workers(1));
    let client = service.client();

    let first = client
        .submit(client.engine().request(&functions))
        .unwrap()
        .wait()
        .unwrap();
    let evals_after_first = engine.evaluation_count();

    // The result is published to the cache before the first ticket
    // resolves, so this re-submission must hit — no new evaluation.
    let second = client
        .submit(client.engine().request(&functions))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(engine.evaluation_count(), evals_after_first);

    assert_identical(&first, &sequential, "first (evaluated)");
    assert_identical(&second, &sequential, "second (cache hit)");
    let m = client.metrics();
    assert!(m.cache.enabled);
    assert_eq!(m.cache.hits, 1);
    assert!(m.cache.hit_rate() > 0.0);
    assert_eq!(m.completed, 2, "a hit still counts as a served request");
    service.shutdown();
}

#[test]
fn cancelling_a_follower_leaves_the_leader_running() {
    let engine = slow_engine();
    let functions = fast_functions(902);
    let sequential = engine.request(&functions).evaluate().unwrap();

    let service = engine
        .clone()
        .serve(ServiceConfig::default().workers(1).queue_capacity(8));
    let client = service.client();

    let evals_before = engine.evaluation_count(); // see above: before the blocker
    let slow = slow_functions();
    let blocker = client.submit(client.engine().request(&slow)).unwrap();
    await_state(&client, 1, 0);

    let leader = client.submit(client.engine().request(&functions)).unwrap();
    let follower = client.submit(client.engine().request(&functions)).unwrap();
    assert_eq!(client.metrics().cache.attaches, 1);

    assert!(follower.cancel(), "queued follower must be cancellable");
    assert_eq!(follower.wait().unwrap_err(), MpqError::Cancelled);

    assert!(blocker.wait().is_ok());
    let served = leader.wait().expect("the leader must be unaffected");
    assert_identical(&served, &sequential, "leader after follower cancel");
    assert_eq!(
        engine.evaluation_count() - evals_before,
        2,
        "blocker + leader"
    );
    assert!(client.metrics().cancelled >= 1);
    service.shutdown();
}

#[test]
fn follower_deadline_expires_only_that_follower() {
    let engine = slow_engine();
    let functions = fast_functions(903);
    let sequential = engine.request(&functions).evaluate().unwrap();

    let service = engine
        .clone()
        .serve(ServiceConfig::default().workers(1).queue_capacity(8));
    let client = service.client();

    let slow = slow_functions();
    let blocker = client.submit(client.engine().request(&slow)).unwrap();
    await_state(&client, 1, 0);

    // Leader without a deadline; follower with a zero budget — by the
    // time the busy worker claims the shared job, only the follower has
    // expired.
    let leader = client.submit(client.engine().request(&functions)).unwrap();
    let follower = client
        .submit_with(
            client.engine().request(&functions),
            SubmitOptions::default().deadline(Duration::ZERO),
        )
        .unwrap();
    assert_eq!(client.metrics().cache.attaches, 1);

    assert!(blocker.wait().is_ok());
    assert_eq!(follower.wait().unwrap_err(), MpqError::DeadlineExceeded);
    let served = leader.wait().expect("only the expired follower dies");
    assert_identical(&served, &sequential, "leader after follower expiry");
    assert_eq!(client.metrics().expired, 1);
    service.shutdown();
}

#[test]
fn leader_cancellation_still_serves_the_followers() {
    let engine = slow_engine();
    let functions = fast_functions(904);
    let sequential = engine.request(&functions).evaluate().unwrap();

    let service = engine
        .clone()
        .serve(ServiceConfig::default().workers(1).queue_capacity(8));
    let client = service.client();

    let slow = slow_functions();
    let blocker = client.submit(client.engine().request(&slow)).unwrap();
    await_state(&client, 1, 0);

    let leader = client.submit(client.engine().request(&functions)).unwrap();
    let follower = client.submit(client.engine().request(&functions)).unwrap();

    // Cancelling the *first* submission must not starve the second —
    // the job survives as long as any attached submission wants it.
    assert!(leader.cancel());
    assert_eq!(leader.wait().unwrap_err(), MpqError::Cancelled);

    assert!(blocker.wait().is_ok());
    let served = follower
        .wait()
        .expect("follower must be served despite the leader's cancellation");
    assert_identical(&served, &sequential, "follower after leader cancel");
    service.shutdown();
}

#[test]
fn inventory_version_makes_rebuilt_engines_miss() {
    let w = WorkloadBuilder::new()
        .objects(2_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::Independent)
        .seed(77)
        .build();
    let engine1 = Engine::builder().objects(&w.objects).build().unwrap();
    let engine2 = Engine::builder().objects(&w.objects).build().unwrap();
    assert!(
        engine2.inventory_version() > engine1.inventory_version(),
        "every build gets a fresh inventory version"
    );

    let functions = fast_functions(905);
    let request = engine1.request(&functions);
    let key = request.cache_key();
    let fresh = request.evaluate().unwrap();

    let mut cache = ResultCache::new(16, 1 << 20);
    cache.insert_vec_seeded(&key, &[engine1.inventory_version()], &fresh, None);

    let hit = cache
        .get(&key, engine1.inventory_version())
        .expect("same inventory: hit");
    assert_identical(&hit, &fresh, "cache hit vs fresh evaluation");

    // The rebuilt engine produces the same key (same request) but a new
    // inventory version: the stale entry must be a miss, never served.
    assert_eq!(engine2.request(&functions).cache_key(), key);
    assert!(
        cache.get(&key, engine2.inventory_version()).is_none(),
        "cache hit after engine rebuild must be a miss"
    );
}

#[test]
fn disabling_the_cache_restores_pay_per_submission() {
    let engine = slow_engine();
    let functions = fast_functions(906);

    let service = engine
        .clone()
        .serve(ServiceConfig::default().workers(1).cache_capacity(0));
    let client = service.client();

    let evals_before = engine.evaluation_count();
    let a = client
        .submit(client.engine().request(&functions))
        .unwrap()
        .wait()
        .unwrap();
    let b = client
        .submit(client.engine().request(&functions))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        engine.evaluation_count() - evals_before,
        2,
        "cache_capacity(0) must evaluate every submission"
    );
    assert_identical(&a, &b, "determinism holds regardless");
    let m = client.metrics();
    assert!(!m.cache.enabled);
    assert_eq!((m.cache.hits, m.cache.attaches), (0, 0));
    service.shutdown();
}

#[test]
fn distinct_requests_never_collide_in_the_cache() {
    // Same function set, different knobs → different keys; exclusion
    // insertion order → same key. End-to-end over a served engine.
    let engine = slow_engine();
    let functions = fast_functions(907);

    let service = engine.clone().serve(ServiceConfig::default().workers(1));
    let client = service.client();

    let plain = client
        .submit(client.engine().request(&functions))
        .unwrap()
        .wait()
        .unwrap();
    let masked = client
        .submit(client.engine().request(&functions).exclude([0u64, 5]))
        .unwrap()
        .wait()
        .unwrap();
    // Exclusions change the request identity: no false hit.
    assert_eq!(client.metrics().cache.hits, 0);

    // ...but exclusion *order* does not: this is the same request again.
    let masked_again = client
        .submit(client.engine().request(&functions).exclude([5u64, 0]))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(client.metrics().cache.hits, 1);
    assert_identical(&masked, &masked_again, "order-insensitive exclusions");

    let seq_plain = engine.request(&functions).evaluate().unwrap();
    let seq_masked = engine
        .request(&functions)
        .exclude([0u64, 5])
        .evaluate()
        .unwrap();
    assert_identical(&plain, &seq_plain, "plain vs sequential");
    assert_identical(&masked, &seq_masked, "masked vs sequential");
    service.shutdown();
}

#[test]
fn near_miss_submission_is_seeded_and_bit_identical() {
    // Any request that misses at an unchanged inventory — one exclusion
    // away from a cached one, or sharing nothing with it — must not
    // attach (different identity) and must not hit (different result):
    // it evaluates, but *seeded* from the skyline the first miss left
    // in the cache.
    let engine = slow_engine();
    let functions = fast_functions(908);

    let service = engine.clone().serve(ServiceConfig::default().workers(1));
    let client = service.client();

    client
        .submit(client.engine().request(&functions))
        .unwrap()
        .wait()
        .unwrap();
    let evals_after_first = engine.evaluation_count();
    assert_eq!(
        client.metrics().cache.seeded_hits,
        0,
        "the first miss is cold"
    );

    let refined = client
        .submit(client.engine().request(&functions).exclude([7u64]))
        .unwrap()
        .wait()
        .unwrap();
    // Seeding is an accelerator, not a cache hit: the refined request
    // still pays an evaluation of its own.
    assert_eq!(engine.evaluation_count() - evals_after_first, 1);

    let m = client.metrics();
    assert_eq!(m.cache.hits, 0, "a near miss is not an exact hit");
    assert_eq!(m.cache.attaches, 0, "a near miss starts its own job");
    assert_eq!(m.cache.seeded_hits, 1, "the seed was picked up");

    let sequential = engine
        .request(&functions)
        .exclude([7u64])
        .evaluate()
        .unwrap();
    assert_identical(&refined, &sequential, "seeded vs cold sequential");

    // A brand-new function set — 20 rows, none shared with anything
    // cached — resumes from the same seed: no function enters a skyline.
    let fresh = function_set(20, 77);
    let served = client
        .submit(client.engine().request(&fresh))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(client.metrics().cache.seeded_hits, 2);
    let sequential = engine.request(&fresh).evaluate().unwrap();
    assert_identical(&served, &sequential, "fresh functions, seeded vs cold");
    assert!(
        served.metrics().io.logical < sequential.metrics().io.logical,
        "a seeded run skips the BBS page reads"
    );
    service.shutdown();
}

#[test]
fn twelve_distinct_requests_share_one_seed_and_evict_nothing() {
    let engine = slow_engine();
    let sets: Vec<FunctionSet> = (0..12).map(|i| fast_functions(920 + i)).collect();
    let (matching, seed) = engine
        .request(&sets[0])
        .evaluate_seeded(&mut Scratch::new(), None)
        .unwrap();
    let seed_bytes = seed.expect("a cold run captures").approx_bytes();
    let entry_bytes = {
        let mut probe = ResultCache::new(1, 1 << 20);
        let key = engine.request(&sets[0]).cache_key();
        probe.insert_vec_seeded(&key, &[engine.inventory_version()], &matching, None);
        probe.bytes()
    };
    assert!(
        seed_bytes > 12 * entry_bytes,
        "the seed dwarfs the matchings"
    );

    // Room for the twelve matchings alone: the seed is not the cache's.
    let budget = 12 * entry_bytes;
    let service = engine
        .clone()
        .serve(ServiceConfig::default().workers(1).cache_max_bytes(budget));
    let client = service.client();
    for functions in &sets {
        client
            .submit(client.engine().request(functions))
            .unwrap()
            .wait()
            .unwrap();
    }
    let m = client.metrics();
    assert_eq!((m.cache.entries, m.cache.evictions), (12, 0));
    assert_eq!(m.cache.seeded_hits, 11, "every miss but the first resumed");
    assert_eq!(
        m.cache.bytes,
        12 * entry_bytes,
        "the twelve entries alone; one seed is {seed_bytes}, one entry {entry_bytes}"
    );
    service.shutdown();
}

/// A 2 000-object inventory a small request evaluates in well under a
/// millisecond (release), for tests that stream many requests.
fn small_engine() -> Arc<Engine> {
    let w = WorkloadBuilder::new()
        .objects(2_000)
        .functions(1)
        .dim(3)
        .seed(45)
        .build();
    Arc::new(Engine::builder().objects(&w.objects).build().unwrap())
}

/// Two clients take turns on one service, 1 200 requests in all. Each
/// keeps its last 16 distinct requests and repeats one of them 40 % of
/// the time, as the ledger's `interactive` clients do; the rest are new
/// and never repeated once they leave the history. Returns the number
/// of repeats and the cache's metrics.
fn refinement_stream(config: ServiceConfig) -> (u64, CacheMetrics) {
    const CLIENTS: usize = 2;
    const HISTORY: usize = 16;
    let engine = small_engine();
    let service = engine.serve(config.workers(1));
    let client = service.client();
    let mut histories: Vec<std::collections::VecDeque<u64>> = vec![Default::default(); CLIENTS];
    let (mut next_seed, mut repeats, mut state) = (2000u64, 0u64, 0x9e37_79b9_7f4a_7c15u64);
    for step in 0..1200 {
        let history = &mut histories[step % CLIENTS];
        // xorshift64: the same stream on every run.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let seed = if !history.is_empty() && state % 10 < 4 {
            repeats += 1;
            history[(state >> 8) as usize % history.len()]
        } else {
            next_seed += 1;
            history.push_back(next_seed);
            if history.len() > HISTORY {
                history.pop_front();
            }
            next_seed
        };
        let functions = fast_functions(seed);
        let request = client.engine().request(&functions);
        client.submit(request).unwrap().wait().unwrap();
    }
    let metrics = client.metrics().cache;
    service.shutdown();
    (repeats, metrics)
}

#[test]
fn a_refinement_stream_hits_on_every_repeat_at_the_default_config() {
    // The default cache serves every repeat, though it fills with
    // results that are never repeated and evicts them many times over.
    let (repeats, m) = refinement_stream(ServiceConfig::default());
    assert!(repeats > 400, "{repeats} repeats");
    assert_eq!(m.hits, repeats, "{m:?}");
    assert_eq!(m.misses, 1200 - repeats);
    let capacity = ServiceConfig::default().cache_capacity;
    assert_eq!(m.entries, capacity);
    assert_eq!(m.evictions, m.misses - capacity as u64);

    // The stream needs that room: two histories of 16 and the new
    // requests between a result and its repeat outgrow 32 entries.
    let (repeats, m) = refinement_stream(ServiceConfig::default().cache_capacity(32));
    assert!(m.hits < repeats, "{m:?}");
}

#[test]
fn two_workers_resume_concurrently_from_the_one_seed() {
    let engine = slow_engine();
    let functions = function_set(40, 930);
    let exclusions: Vec<Vec<u64>> = (0..16u64)
        .map(|i| (0..=i).map(|j| j * 37 % 15_000).collect())
        .collect();
    let sequential: Vec<Matching> = exclusions
        .iter()
        .map(|excl| {
            let request = engine.request(&functions).exclude(excl.iter().copied());
            request.evaluate().unwrap()
        })
        .collect();

    let service = engine.clone().serve(ServiceConfig::default().workers(2));
    let client = service.client();
    // The first miss leaves the seed; the sixteen after it are queued
    // together, so both workers clone, peel and diverge from it at once.
    client
        .submit(client.engine().request(&functions))
        .unwrap()
        .wait()
        .unwrap();
    let tickets: Vec<_> = exclusions
        .iter()
        .map(|excl| {
            let request = client.engine().request(&functions);
            client
                .submit(request.exclude(excl.iter().copied()))
                .unwrap()
        })
        .collect();
    for (i, (ticket, cold)) in tickets.into_iter().zip(&sequential).enumerate() {
        let served = ticket.wait().unwrap();
        assert_identical(&served, cold, &format!("exclusion set {i}"));
    }
    assert_eq!(client.metrics().cache.seeded_hits, 16);
    service.shutdown();
}

#[test]
fn a_mutation_retires_the_seed_and_the_next_miss_recaptures() {
    let w = WorkloadBuilder::new()
        .objects(3_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::AntiCorrelated)
        .seed(91)
        .build();
    let engine = Arc::new(Engine::builder().objects(&w.objects).build().unwrap());
    let service = EngineService::spawn(Arc::clone(&engine), ServiceConfig::default().workers(1));
    let client = service.client();
    // Each step submits a set the cache has never seen; whether the
    // evaluation resumed shows in `seeded_hits` and in its page
    // reads, which equal a direct cold evaluation's only when it
    // ran BBS itself.
    let step = |seed: u64, resumes: bool| {
        let functions = fast_functions(seed);
        let before = client.metrics().cache.seeded_hits;
        let served = client
            .submit(engine.request(&functions))
            .unwrap()
            .wait()
            .unwrap();
        let cold = engine.request(&functions).evaluate().unwrap();
        assert_identical(&served, &cold, &format!("set {seed}"));
        let seeded = client.metrics().cache.seeded_hits - before;
        assert_eq!(seeded, u64::from(resumes), "set {seed}");
        let (served, cold) = (served.metrics().io.logical, cold.metrics().io.logical);
        assert_eq!(served < cold, resumes, "set {seed}: {served} vs {cold}");
    };
    step(940, false);
    step(941, true);
    // The inventory moves on: the seed's pruned entries name pages
    // of an epoch that is gone, so it must not be applied.
    engine.insert_object(&[0.41, 0.43, 0.47]).unwrap();
    step(942, false);
    step(943, true);
    service.shutdown();
}

/// A fresh 2 000-object inventory whose page reads all reach an injected
/// page store (a one-page buffer), and the injector.
fn injected_engine() -> (Arc<Engine>, Arc<FaultInjector>) {
    let w = WorkloadBuilder::new()
        .objects(2_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::AntiCorrelated)
        .seed(44)
        .build();
    let inj = FaultInjector::shared();
    let index = IndexConfig {
        page_size: 512,
        buffer_fraction: 0.0,
        min_buffer_pages: 1,
    };
    let engine = Engine::builder()
        .objects(&w.objects)
        .index(index)
        .fault_injector(Arc::clone(&inj))
        .build()
        .unwrap();
    (Arc::new(engine), inj)
}

/// Submit every set at once to `service`, wait for all of them, check
/// each against a sequential cold evaluation, shut the service down and
/// return its last metrics. The first page read after the submissions
/// takes 300 ms — the building run's BBS — so every worker that pins
/// the version meanwhile waits on the seed cell. A ticket still
/// unresolved after 60 s fails the test — a worker waits on a cell
/// nobody will fill — and the service is then left running: shutting it
/// down would join that worker forever.
fn submit_at_once(
    engine: &Arc<Engine>,
    inj: &FaultInjector,
    service: EngineService,
    sets: &[FunctionSet],
) -> mpq::core::ServiceMetrics {
    let sequential: Vec<Matching> = sets
        .iter()
        .map(|functions| engine.request(functions).evaluate().unwrap())
        .collect();
    let service = std::mem::ManuallyDrop::new(service);
    let client = service.client();
    inj.fail_nth(
        FaultOp::PageRead,
        0,
        FaultKind::Delay(Duration::from_millis(300)),
    );
    let tickets: Vec<_> = sets
        .iter()
        .map(|functions| client.submit(client.engine().request(functions)).unwrap())
        .collect();
    for (i, (ticket, cold)) in tickets.into_iter().zip(&sequential).enumerate() {
        match ticket.wait_timeout(Duration::from_secs(60)) {
            Ok(served) => assert_identical(&served.unwrap(), cold, &format!("set {i}")),
            Err(_) => panic!("set {i}: no result in 60 s — a lost wake-up"),
        }
    }
    let metrics = client.metrics();
    std::mem::ManuallyDrop::into_inner(service).shutdown();
    metrics
}

#[test]
fn one_capture_per_version_serves_every_other_miss_from_it() {
    // Eight distinct misses on a fresh inventory, four workers: the
    // first run builds the seed in its version's cell; the workers that
    // pin meanwhile wait on the cell instead of running BBS again, and
    // every later run finds it full.
    let (engine, inj) = injected_engine();
    let sets: Vec<FunctionSet> = (0..8).map(|i| fast_functions(950 + i)).collect();
    let service = engine.clone().serve(ServiceConfig::default().workers(4));
    let metrics = submit_at_once(&engine, &inj, service, &sets);
    assert_eq!(metrics.cache.seeded_hits, 7);
}

#[test]
fn one_capture_per_version_primes_every_other_miss_even_when_the_seed_exceeds_cache_max_bytes() {
    // A cache too small for the seed: the seed is not the cache's, so
    // one run still builds it, the others at its version still resume
    // from it, and the cache's bytes stay within its bound.
    let (engine, inj) = injected_engine();
    let sets: Vec<FunctionSet> = (0..8).map(|i| fast_functions(960 + i)).collect();
    let (_, seed) = engine
        .request(&sets[0])
        .evaluate_seeded(&mut Scratch::new(), None)
        .unwrap();
    let seed_bytes = seed.expect("a cold run captures").approx_bytes();
    let max_bytes = seed_bytes / 2;
    let config = ServiceConfig::default()
        .workers(4)
        .cache_max_bytes(max_bytes);
    let metrics = submit_at_once(&engine, &inj, engine.clone().serve(config), &sets);
    assert_eq!(metrics.cache.seeded_hits, 7);
    assert!(
        metrics.cache.bytes <= max_bytes,
        "{} bytes cached, bound {max_bytes}",
        metrics.cache.bytes
    );
}

#[test]
fn one_capture_per_version_resumes_a_miss_queued_behind_it() {
    // One worker, two misses submitted back to back: the second was
    // queued before the first built anything, and finds the seed when
    // the worker runs it.
    let (engine, inj) = injected_engine();
    let sets = [fast_functions(970), fast_functions(971)];
    let service = engine.clone().serve(ServiceConfig::default().workers(1));
    let metrics = submit_at_once(&engine, &inj, service, &sets);
    assert_eq!(metrics.cache.seeded_hits, 1);
}

#[test]
fn one_capture_per_version_outlives_a_capture_that_panicked() {
    let (engine, inj) = injected_engine();
    let service = engine.clone().serve(ServiceConfig::default().workers(1));

    // The first run panics inside its BBS and stores nothing; the cell
    // it was filling must stay empty for the next run at this version
    // to build, or that run would wait for it forever.
    inj.fail_from(FaultOp::PageRead, 0, FaultKind::Panic);
    let doomed = service
        .client()
        .submit(engine.request(&fast_functions(980)));
    let outcome = doomed.unwrap().wait();
    assert_eq!(outcome.unwrap_err(), MpqError::WorkerPanicked);
    inj.clear();

    let sets = [fast_functions(981), fast_functions(982)];
    let metrics = submit_at_once(&engine, &inj, service, &sets);
    assert_eq!((metrics.panicked, metrics.cache.seeded_hits), (1, 1));
}
