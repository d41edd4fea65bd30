//! Acceptance tests for the [`EngineService`] serving layer: queue
//! semantics (cancellation, deadlines, shedding, ordering, graceful
//! shutdown) and the core determinism contract — a result delivered
//! through the service is **bit-identical** to evaluating the same
//! request sequentially, whatever the worker count, and the runs of a
//! cache-off service make the same logical reads as sequential runs.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpq::core::{ServiceConfig, SubmitOptions};
use mpq::datagen::{Distribution, WorkloadBuilder};
use mpq::prelude::*;
use mpq::rtree::IoStats;
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

/// A heavy request batch for the slow engine.
fn slow_functions() -> FunctionSet {
    WorkloadBuilder::new()
        .objects(1)
        .functions(150)
        .dim(3)
        .seed(43)
        .build()
        .functions
}

/// A small request batch (fast to evaluate).
fn fast_functions(seed: u64) -> FunctionSet {
    WorkloadBuilder::new()
        .objects(1)
        .functions(10)
        .dim(3)
        .seed(seed)
        .build()
        .functions
}

/// Spin until the service reports exactly one request being evaluated
/// and `queued` requests waiting, or panic after `timeout`.
fn await_state(client: &mpq::core::ServiceClient, in_flight: usize, queued: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let m = client.metrics();
        if m.in_flight == in_flight && m.queue_depth == queued {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "service never reached in_flight={in_flight} queue={queued}; metrics: {m:?}"
        );
        std::thread::yield_now();
    }
}

fn assert_identical(a: &Matching, b: &Matching, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: pair count");
    for (x, y) in a.pairs().iter().zip(b.pairs()) {
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
fn service_results_are_bit_identical_to_sequential_across_worker_counts() {
    let w = WorkloadBuilder::new()
        .objects(2_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::Independent)
        .seed(77)
        .build();
    let engine = Arc::new(Engine::builder().objects(&w.objects).build().unwrap());
    let function_sets: Vec<FunctionSet> = (0..10).map(|i| fast_functions(900 + i)).collect();
    // One more request: the first one with its unconstrained winners
    // masked out.
    let masked: HashSet<u64> = (engine.request(&function_sets[0]).evaluate().unwrap())
        .pairs()
        .iter()
        .take(3)
        .map(|p| p.oid)
        .collect();
    let n = function_sets.len() + 1;
    let request = |i: usize| match function_sets.get(i) {
        Some(fs) => engine.request(fs),
        None => engine
            .request(&function_sets[0])
            .exclude(masked.iter().copied()),
    };

    // sequential ground truth and its per-run I/O sum
    let sequential: Vec<Matching> = (0..n).map(|i| request(i).evaluate().unwrap()).collect();
    let mut seq_io = IoStats::default();
    for m in &sequential {
        seq_io += m.metrics().io;
    }
    for p in sequential[n - 1].pairs() {
        assert!(!masked.contains(&p.oid), "masked object {} assigned", p.oid);
    }

    for workers in [1usize, 2, 8] {
        // The default cache, and none: every request then pays its own
        // cold run, so its metrics are comparable with the sequential
        // run's.
        for cache in [ServiceConfig::default().cache_capacity, 0] {
            let config = ServiceConfig::default()
                .workers(workers)
                .queue_capacity(32)
                .cache_capacity(cache);
            let service = engine.clone().serve(config);
            let client = service.client();
            let tickets: Vec<_> = (0..n).map(|i| client.submit(request(i)).unwrap()).collect();
            let mut served_io = IoStats::default();
            for (i, (ticket, seq)) in tickets.into_iter().zip(&sequential).enumerate() {
                let served = ticket.wait().unwrap();
                let ctx = format!("workers={workers} cache={cache} req={i}");
                assert_identical(&served, seq, &ctx);
                served_io += served.metrics().io;
            }
            if cache == 0 {
                // Logical node requests are deterministic per run —
                // sharing the tree cannot change *what* a run reads,
                // only whether a read hits the buffer.
                assert_eq!(
                    served_io.logical, seq_io.logical,
                    "workers={workers}: summed logical I/O must equal sequential"
                );
                // Physical counts depend on buffer warmth under
                // concurrent interleaving; they must stay within the
                // sane envelope: never more than the logical request
                // count, and not wildly off the sequential cost.
                assert!(
                    served_io.physical_reads <= served_io.logical,
                    "workers={workers}: reads cannot exceed requests"
                );
                assert!(
                    served_io.physical_reads <= seq_io.physical_reads * 3 + 100,
                    "workers={workers}: physical reads {} vs sequential {} exceed \
                     buffer-warmth tolerance",
                    served_io.physical_reads,
                    seq_io.physical_reads
                );
            }
            let metrics = service.metrics();
            assert_eq!(metrics.completed, n as u64);
            assert_eq!(metrics.workers, workers);
            service.shutdown();
        }
    }
}

#[test]
fn cancel_before_execution_yields_typed_error() {
    let engine = slow_engine();
    let service = engine.serve(ServiceConfig::default().workers(1).queue_capacity(8));
    let client = service.client();

    let slow = slow_functions();
    let t1 = client.submit(client.engine().request(&slow)).unwrap();
    await_state(&client, 1, 0); // worker owns t1, queue empty

    let fast = fast_functions(1);
    let t2 = client.submit(client.engine().request(&fast)).unwrap();
    // t2 sits in the queue behind the busy worker: cancellation wins.
    assert!(t2.cancel(), "queued request must be cancellable");
    assert!(!t2.cancel(), "only the first cancel wins");
    // Claim the cancelled result *before* the worker reaches the stale
    // job — the worker must skip the claimed ticket, not die on it.
    assert_eq!(t2.wait().unwrap_err(), MpqError::Cancelled);

    // Submitted behind the stale job: only served if the worker
    // survives popping it.
    let t3 = client.submit(client.engine().request(&fast)).unwrap();

    assert!(t1.wait().is_ok(), "unrelated request is unaffected");
    assert!(
        t3.wait().is_ok(),
        "worker must skip the claimed stale job and keep serving"
    );
    assert!(client.metrics().cancelled >= 1);
    service.shutdown();
}

#[test]
fn cancel_mid_execution_discards_the_result() {
    let engine = slow_engine();
    let service = engine.serve(ServiceConfig::default().workers(1).queue_capacity(8));
    let client = service.client();

    let slow = slow_functions();
    let ticket = client.submit(client.engine().request(&slow)).unwrap();
    await_state(&client, 1, 0); // the worker is evaluating it right now

    // The evaluation may win the race on a fast machine; either way the
    // contract holds: a winning cancel resolves to Cancelled, a losing
    // one leaves the result intact.
    if ticket.cancel() {
        assert_eq!(ticket.wait().unwrap_err(), MpqError::Cancelled);
        assert!(client.metrics().cancelled >= 1);
    } else {
        assert!(ticket.wait().is_ok());
    }
    service.shutdown();
}

#[test]
fn cancel_after_completion_is_a_no_op() {
    let engine = slow_engine();
    let service = engine.serve(ServiceConfig::default().workers(1));
    let client = service.client();
    let fast = fast_functions(2);
    let ticket = client.submit(client.engine().request(&fast)).unwrap();
    while !ticket.is_done() {
        std::thread::yield_now();
    }
    assert!(!ticket.cancel(), "a resolved ticket cannot be cancelled");
    assert!(ticket.wait().is_ok(), "the result survives the late cancel");
    service.shutdown();
}

#[test]
fn queued_deadline_expires_with_typed_error() {
    let engine = slow_engine();
    let service = engine.serve(ServiceConfig::default().workers(1).queue_capacity(8));
    let client = service.client();

    let slow = slow_functions();
    let t1 = client.submit(client.engine().request(&slow)).unwrap();
    await_state(&client, 1, 0);

    // Zero budget: by the time the busy worker pops it, it has expired.
    let fast = fast_functions(3);
    let t2 = client
        .submit_with(
            client.engine().request(&fast),
            SubmitOptions::default().deadline(Duration::ZERO),
        )
        .unwrap();
    assert_eq!(t2.wait().unwrap_err(), MpqError::DeadlineExceeded);
    assert!(t1.wait().is_ok());
    assert_eq!(client.metrics().expired, 1);

    // A deadline with headroom is met: nothing in front of it.
    let t3 = client
        .submit_with(
            client.engine().request(&fast),
            SubmitOptions::default().deadline(Duration::from_secs(60)),
        )
        .unwrap();
    assert!(t3.wait().is_ok());
    service.shutdown();
}

#[test]
fn reject_backpressure_sheds_load_with_typed_error() {
    let engine = slow_engine();
    let service = engine.serve(ServiceConfig::default().workers(1).queue_capacity(1));
    let client = service.client();

    let slow = slow_functions();
    let t1 = client.submit(client.engine().request(&slow)).unwrap();
    await_state(&client, 1, 0); // worker busy, queue empty

    let fast = fast_functions(4);
    let t2 = client.submit(client.engine().request(&fast)).unwrap(); // fills the queue

    // A submission *identical* to the queued one needs no slot: it
    // attaches to t2's job (in-flight dedupe) instead of being shed.
    let twin = client.submit(client.engine().request(&fast)).unwrap();
    assert_eq!(client.metrics().cache.attaches, 1);
    assert_eq!(client.metrics().rejected, 0);

    // A *distinct* request has no job to attach to and is rejected.
    let other = fast_functions(40);
    let overload = client.submit(client.engine().request(&other));
    assert_eq!(overload.unwrap_err(), MpqError::Overloaded);
    assert_eq!(client.metrics().rejected, 1);

    // Accepted work is unaffected by the shed request.
    assert!(t1.wait().is_ok());
    let served = t2.wait().unwrap();
    let deduped = twin.wait().unwrap();
    assert_eq!(served.sorted_pairs(), deduped.sorted_pairs());
    service.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_and_in_flight_work() {
    let engine = slow_engine();
    let service = engine.serve(ServiceConfig::default().workers(2).queue_capacity(16));
    let client = service.client();

    let tickets: Vec<_> = (0..6)
        .map(|i| {
            let fs = fast_functions(100 + i);
            client.submit(client.engine().request(&fs)).unwrap()
        })
        .collect();

    // Shut down immediately: whatever is queued must still complete.
    service.shutdown();

    for (i, ticket) in tickets.into_iter().enumerate() {
        assert!(
            ticket.wait().is_ok(),
            "ticket {i} must resolve through the drain"
        );
    }
    let metrics = client.metrics();
    assert_eq!(metrics.completed, 6);
    assert_eq!(metrics.queue_depth, 0);
    assert_eq!(metrics.in_flight, 0);

    // The drained service no longer accepts submissions — not even one
    // identical to an already-served request, which would otherwise be
    // a cache hit: the post-shutdown contract beats the cache.
    let fs = fast_functions(200);
    let refused = client.submit(client.engine().request(&fs));
    assert_eq!(refused.unwrap_err(), MpqError::ServiceStopped);
    let served_before = fast_functions(100);
    let refused_hit = client.submit(client.engine().request(&served_before));
    assert_eq!(refused_hit.unwrap_err(), MpqError::ServiceStopped);
}

#[test]
fn tickets_are_pollable_and_timeout_returns_the_ticket() {
    let engine = slow_engine();
    let service = engine.serve(ServiceConfig::default().workers(1).queue_capacity(8));
    let client = service.client();

    let slow = slow_functions();
    let t1 = client.submit(client.engine().request(&slow)).unwrap();
    await_state(&client, 1, 0);
    let fast = fast_functions(7);
    let t2 = client.submit(client.engine().request(&fast)).unwrap();

    // t2 is queued behind the slow job: polling and a tiny wait both
    // hand the live ticket back.
    let t2 = t2.try_take().expect_err("queued ticket is not ready");
    let t2 = t2
        .wait_timeout(Duration::from_millis(1))
        .expect_err("queued ticket cannot resolve in 1ms behind a slow job");
    assert!(!t2.is_done());

    // Blocking wait delivers both results.
    assert!(t1.wait().is_ok());
    assert!(t2.wait().is_ok());
    service.shutdown();
}

#[test]
fn priority_ordering_still_serves_everything_and_fifo_is_default() {
    // End-to-end smoke over the priority queue (the deterministic pop
    // ordering itself is unit-tested in mpq_core::service): mixed
    // priorities all complete, bit-identical to sequential.
    let engine = slow_engine();
    let service = engine.serve(ServiceConfig::default().workers(1).queue_capacity(16));
    let client = service.client();

    let function_sets: Vec<FunctionSet> = (0..5).map(|i| fast_functions(300 + i)).collect();
    let tickets: Vec<_> = function_sets
        .iter()
        .enumerate()
        .map(|(i, fs)| {
            client
                .submit_with(
                    client.engine().request(fs),
                    SubmitOptions::default().priority(i as i32 % 3),
                )
                .unwrap()
        })
        .collect();
    for (fs, ticket) in function_sets.iter().zip(tickets) {
        let served = ticket.wait().unwrap();
        let seq = client.engine().request(fs).evaluate().unwrap();
        assert_identical(&served, &seq, "priority-served request");
    }
    service.shutdown();
}

#[test]
fn submissions_against_a_foreign_engine_are_refused() {
    let engine = slow_engine();
    let other = slow_engine();
    let service = engine.serve(ServiceConfig::default().workers(1));
    let client = service.client();
    let fast = fast_functions(8);
    let err = client.submit(other.request(&fast)).unwrap_err();
    assert!(matches!(err, MpqError::UnsupportedRequest(_)));
    service.shutdown();
}

#[test]
fn invalid_requests_fail_at_submission_not_in_a_worker() {
    let engine = slow_engine();
    let service = engine.serve(ServiceConfig::default().workers(1));
    let client = service.client();
    let wrong_dim = FunctionSet::from_rows(2, &[vec![0.5, 0.5]]);
    let err = client
        .submit(client.engine().request(&wrong_dim))
        .unwrap_err();
    assert_eq!(
        err,
        MpqError::DimensionMismatch {
            engine: 3,
            functions: 2
        }
    );
    assert_eq!(client.metrics().submitted, 0, "nothing was enqueued");
    service.shutdown();
}

#[test]
fn dropping_the_service_drains_like_shutdown() {
    let engine = slow_engine();
    let client;
    let tickets: Vec<_>;
    {
        let service = engine.serve(ServiceConfig::default().workers(2).queue_capacity(8));
        client = service.client();
        tickets = (0..4)
            .map(|i| {
                let fs = fast_functions(400 + i);
                client.submit(client.engine().request(&fs)).unwrap()
            })
            .collect();
        // service dropped here
    }
    for ticket in tickets {
        assert!(ticket.wait().is_ok(), "drop must drain, not abandon");
    }
    assert_eq!(client.metrics().completed, 4);
}
