//! End-to-end serving: a long-lived [`EngineService`] fed by concurrent
//! clients, the way a network front-end would drive the engine.
//!
//! The paper's deployment (§I) is a reservation site where preference
//! batches arrive *continuously*, and a service is the one way to run
//! many of them: this example spawns a worker pool over one shared
//! engine and has several producer threads stream requests in — with
//! deadlines, one cancellation, a bounded queue, and a graceful drain
//! at the end.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use std::sync::Arc;
use std::time::Duration;

use mpq::core::ServiceConfig;
use mpq::datagen::{Distribution, WorkloadBuilder};
use mpq::prelude::*;

fn main() {
    // One shared inventory: 50k objects, indexed exactly once.
    let w = WorkloadBuilder::new()
        .objects(50_000)
        .functions(1)
        .dim(3)
        .distribution(Distribution::Independent)
        .seed(2009)
        .build();
    let engine = Arc::new(
        Engine::builder()
            .objects(&w.objects)
            .build()
            .expect("generated objects are valid"),
    );
    println!(
        "engine: {} objects, {} pages",
        engine.n_objects(),
        engine.tree().page_count()
    );

    // The blessed serving entry point: a worker pool behind a bounded
    // submission queue. A full queue would shed a submission with
    // MpqError::Overloaded; each producer here waits for its answer
    // before submitting the next, so the 32 slots never fill.
    let service = engine
        .clone()
        .serve(ServiceConfig::default().workers(4).queue_capacity(32));
    println!("service: {} workers", service.workers());

    // Three front-end threads, each streaming its own requests.
    let producers: Vec<_> = (0..3)
        .map(|p| {
            let client = service.client();
            std::thread::spawn(move || {
                let mut confirmed = 0usize;
                for i in 0..8u64 {
                    let functions = WorkloadBuilder::new()
                        .objects(1)
                        .functions(40)
                        .dim(3)
                        .seed(1_000 * p as u64 + i)
                        .build()
                        .functions;
                    // Every request carries a deadline: evaluation must
                    // *start* within a second of submission.
                    let ticket = client
                        .submit_with(client.engine().request(&functions), Duration::from_secs(1))
                        .expect("service is accepting");
                    match ticket.wait() {
                        Ok(matching) => confirmed += matching.len(),
                        Err(MpqError::DeadlineExceeded) => {
                            println!("producer {p}: request {i} expired in the queue")
                        }
                        Err(e) => panic!("unexpected service error: {e}"),
                    }
                }
                (p, confirmed)
            })
        })
        .collect();

    // Meanwhile: submit one more request and cancel it — a user closed
    // the tab. A winning cancel resolves the ticket to MpqError::Cancelled.
    let client = service.client();
    let regret = WorkloadBuilder::new()
        .objects(1)
        .functions(25)
        .dim(3)
        .seed(99)
        .build()
        .functions;
    let ticket = client.submit(client.engine().request(&regret)).unwrap();
    if ticket.cancel() {
        assert!(matches!(ticket.wait(), Err(MpqError::Cancelled)));
        println!("cancelled one request before a worker reached it");
    } else {
        // The pool was faster than our regret; the result just arrives.
        let matching = ticket.wait().unwrap();
        println!("cancel lost the race; {} pairs anyway", matching.len());
    }

    for producer in producers {
        let (p, confirmed) = producer.join().unwrap();
        println!("producer {p}: {confirmed} assignments confirmed");
    }

    // Repeat-heavy traffic: the same search form submitted over and
    // over. The first submission evaluates; every identical one after
    // it is a cache hit (or an in-flight dedupe attach) — bit-identical
    // result, no second evaluation.
    let popular = WorkloadBuilder::new()
        .objects(1)
        .functions(40)
        .dim(3)
        .seed(7_777)
        .build()
        .functions;
    let evals_before = engine.evaluation_count();
    let first = client
        .submit(client.engine().request(&popular))
        .unwrap()
        .wait()
        .unwrap();
    for _ in 0..9 {
        let repeat = client
            .submit(client.engine().request(&popular))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(repeat.sorted_pairs(), first.sorted_pairs());
    }
    let m = client.metrics();
    println!(
        "popular request x10: {} evaluation(s), {} cache hits, {} attaches (hit rate {:.0}%)",
        engine.evaluation_count() - evals_before,
        m.cache.hits,
        m.cache.attaches,
        m.cache.hit_rate() * 100.0
    );

    // Graceful shutdown: drains anything still queued, joins workers.
    // Snapshotting after the drain makes the queue/in-flight gauges
    // deterministically zero (clients stay usable for metrics).
    service.shutdown();
    println!(
        "--- service metrics (after drain) ---\n{}",
        client.metrics()
    );
    println!("service drained and stopped");
}
