//! Chaos harness: deterministic fault injection against every
//! durability path of the disk-backed engine.
//!
//! The centerpiece is the **crash-point sweep**: a fixed mutation
//! workload is run once per scheduled durability operation (WAL write,
//! WAL fsync, page write, page/header fsync), with a simulated crash at
//! exactly that operation — the op itself fails (torn, if it is a
//! write) and every later durability op fails too. After each crash the
//! engine is reopened and must serve matchings **bit-identical** to an
//! in-memory reference that applied exactly the acknowledged mutations.
//! No injected fault may ever panic.
//!
//! Around the sweep: targeted fsync-failure atomicity tests (WAL append
//! fsync, checkpoint header write), the degraded-mode state machine
//! (wedged WAL → mutations refused, reads served, checkpoint repairs),
//! and the poison-recovery regression for a panicking evaluation inside
//! a service worker.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpq_core::{Algorithm, Engine, HealthState, IndexConfig, MpqError, ServiceConfig};
use mpq_rtree::{FaultInjector, FaultKind, FaultOp, PointSet};
use mpq_ta::FunctionSet;

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mpq_chaos_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seeded_points(n: usize, dim: usize, seed: u64) -> PointSet {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut points = PointSet::new(dim);
    let mut p = vec![0.0; dim];
    for _ in 0..n {
        for v in p.iter_mut() {
            *v = next();
        }
        points.push(&p);
    }
    points
}

fn functions(dim: usize, n: usize, seed: u64) -> FunctionSet {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        0.05 + 0.9 * ((state >> 11) as f64 / (1u64 << 53) as f64)
    };
    let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect();
    FunctionSet::from_rows(dim, &rows)
}

fn matchings_of(engine: &Engine, fs: &FunctionSet) -> Vec<Vec<mpq_core::Pair>> {
    [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain]
        .iter()
        .map(|&alg| {
            engine
                .request(fs)
                .algorithm(alg)
                .evaluate()
                .unwrap()
                .sorted_pairs()
        })
        .collect()
}

// ---------------------------------------------------------------------
// Crash-point sweep
// ---------------------------------------------------------------------

/// One scripted mutation against a live engine.
type WorkloadOp = Box<dyn Fn(&Engine) -> Result<(), MpqError>>;

/// The sweep's scripted mutation workload: every op is attempted in
/// order; each returns whether it was acknowledged (committed). The
/// list is deterministic so the in-memory reference can replay exactly
/// the acknowledged prefix.
fn workload_ops(dim: usize) -> Vec<WorkloadOp> {
    let extra = seeded_points(4, dim, 0xC0FFEE);
    let moved = seeded_points(2, dim, 0xFACADE);
    let mut ops: Vec<WorkloadOp> = Vec::new();
    for (_, p) in extra.iter() {
        let p: Box<[f64]> = Box::from(p);
        ops.push(Box::new(move |e: &Engine| e.insert_object(&p).map(|_| ())));
    }
    ops.push(Box::new(|e: &Engine| e.remove_object(2)));
    for (i, (_, p)) in moved.iter().enumerate() {
        let p: Box<[f64]> = Box::from(p);
        let oid = 5 + i as u64;
        ops.push(Box::new(move |e: &Engine| e.update_object(oid, &p)));
    }
    ops.push(Box::new(|e: &Engine| e.remove_object(9)));
    ops
}

/// Run the workload, then a checkpoint, with whatever faults are armed.
/// Returns how many leading ops were acknowledged. Panics only if the
/// acknowledged set is not a prefix (a later op committing after an
/// earlier one failed would break acked-prefix recovery semantics).
fn run_workload(engine: &Engine, ops: &[WorkloadOp]) -> usize {
    let mut acked = 0usize;
    let mut failed = false;
    for (i, op) in ops.iter().enumerate() {
        match op(engine) {
            Ok(()) => {
                assert!(
                    !failed,
                    "op {i} committed after an earlier op failed: acked set is not a prefix"
                );
                acked += 1;
            }
            Err(_) => failed = true,
        }
    }
    let _ = engine.checkpoint();
    acked
}

/// Crash-point sweep: for every durability-operation ordinal `k` the
/// workload schedules, run it with a crash injected at exactly `k`,
/// reopen, and compare against the in-memory reference that applied
/// exactly the acknowledged ops. Also asserts reads keep succeeding on
/// the crashed (not yet reopened) engine — faults must surface as
/// errors on mutations, never as panics or read outages.
#[test]
fn crash_point_sweep_recovers_bit_identical_matchings() {
    let dim = 2;
    let objects = seeded_points(90, dim, 404);
    let fs = functions(dim, 10, 77);
    let ops = workload_ops(dim);
    let config = IndexConfig {
        page_size: 512,
        buffer_fraction: 0.05,
        min_buffer_pages: 2,
    };

    // Dry run: count the durability ops the workload schedules.
    let inj = FaultInjector::shared();
    let total = {
        let dir = tmp_dir("sweep_dry");
        let engine = Engine::builder()
            .objects(&objects)
            .index(config.clone())
            .data_dir(&dir)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap();
        inj.reset(); // build-time ops are not part of the sweep
        let acked = run_workload(&engine, &ops);
        assert_eq!(acked, ops.len(), "fault-free run must ack everything");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        inj.durability_ops()
    };
    assert!(
        total > 2 * ops.len() as u64,
        "workload must schedule at least a WAL write + fsync per op, got {total}"
    );

    // References: one in-memory engine per acknowledged prefix length.
    let expected: Vec<_> = (0..=ops.len())
        .map(|acked| {
            let e = Engine::builder().objects(&objects).build().unwrap();
            for op in &ops[..acked] {
                op(&e).unwrap();
            }
            matchings_of(&e, &fs)
        })
        .collect();

    for k in 0..total {
        let dir = tmp_dir("sweep");
        let inj = FaultInjector::shared();
        let engine = Engine::builder()
            .objects(&objects)
            .index(config.clone())
            .data_dir(&dir)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap();
        inj.reset();
        inj.crash_at(k);

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let acked = run_workload(&engine, &ops);
            // Reads stay up on the crashed engine: evaluation reads the
            // in-memory epoch, which injected durability faults never
            // touch.
            let m = engine.request(&fs).evaluate();
            assert!(m.is_ok(), "crash at op {k} took reads down: {m:?}");
            acked
        }));
        let acked = result.unwrap_or_else(|_| panic!("injected crash at op {k} panicked"));
        drop(engine);
        inj.clear();

        let reopened = Engine::open_with(&dir, config.clone()).unwrap();
        assert_eq!(
            matchings_of(&reopened, &fs),
            expected[acked],
            "crash at durability op {k}/{total}: reopened engine must match \
             the reference that applied exactly the {acked} acked ops"
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// fsync-failure atomicity (satellite)
// ---------------------------------------------------------------------

/// A failed WAL append fsync must leave `inventory_version`, the object
/// count and the served matchings untouched, and the retry must
/// succeed.
#[test]
fn wal_append_fsync_failure_is_atomic_and_retryable() {
    let dir = tmp_dir("fsync_atomic");
    let objects = seeded_points(60, 2, 11);
    let fs = functions(2, 8, 5);
    let inj = FaultInjector::shared();
    let engine = Engine::builder()
        .objects(&objects)
        .data_dir(&dir)
        .fault_injector(Arc::clone(&inj))
        .build()
        .unwrap();

    let version = engine.inventory_version();
    let n = engine.n_objects();
    let oid_bound = engine.oid_bound();
    let before = matchings_of(&engine, &fs);

    inj.fail_nth(FaultOp::WalSync, 0, FaultKind::Error);
    let err = engine.insert_object(&[0.3, 0.7]).unwrap_err();
    assert!(matches!(err, MpqError::Io(_)), "{err:?}");

    assert_eq!(engine.inventory_version(), version, "version must not move");
    assert_eq!(engine.n_objects(), n);
    assert_eq!(
        engine.oid_bound(),
        oid_bound,
        "failed insert must not burn an oid"
    );
    assert_eq!(matchings_of(&engine, &fs), before);

    // The retry commits cleanly and recovery agrees.
    let oid = engine.insert_object(&[0.3, 0.7]).unwrap();
    assert_eq!(oid, oid_bound);
    assert!(engine.inventory_version() > version);
    let after = matchings_of(&engine, &fs);
    drop(engine);
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(matchings_of(&reopened, &fs), after);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn write of the checkpoint's header slot must leave the engine
/// fully serviceable — version and matchings unchanged, the WAL still
/// carrying the delta — and a checkpoint retry must succeed. The
/// header-slot write is located deterministically by mirroring the run
/// in a second directory.
#[test]
fn checkpoint_header_write_failure_is_atomic_and_retryable() {
    let objects = seeded_points(60, 2, 13);
    let fs = functions(2, 8, 9);

    // Mirror run: measure which PageWrite ordinal is the header-slot
    // write of the post-mutation checkpoint. DiskPager commits the
    // header as the last page write of a checkpoint.
    let header_write_nth = {
        let dir = tmp_dir("ckpt_mirror");
        let inj = FaultInjector::shared();
        let engine = Engine::builder()
            .objects(&objects)
            .data_dir(&dir)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap();
        engine.insert_object(&[0.4, 0.4]).unwrap();
        let before = inj.count(FaultOp::PageWrite);
        engine.checkpoint().unwrap();
        let after = inj.count(FaultOp::PageWrite);
        assert!(after > before, "a checkpoint must write the header page");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        after - before - 1 // relative ordinal of the checkpoint's last write
    };

    let dir = tmp_dir("ckpt_header");
    let inj = FaultInjector::shared();
    let engine = Engine::builder()
        .objects(&objects)
        .data_dir(&dir)
        .fault_injector(Arc::clone(&inj))
        .build()
        .unwrap();
    engine.insert_object(&[0.4, 0.4]).unwrap();
    let version = engine.inventory_version();
    let before = matchings_of(&engine, &fs);
    let wal_bytes = engine.wal_bytes();
    assert!(wal_bytes > 0, "the mutation must be in the WAL");

    inj.fail_nth(FaultOp::PageWrite, header_write_nth, FaultKind::Torn);
    let err = engine.checkpoint().unwrap_err();
    assert!(matches!(err, MpqError::Io(_)), "{err:?}");

    assert_eq!(engine.inventory_version(), version);
    assert_eq!(matchings_of(&engine, &fs), before);
    assert_eq!(
        engine.wal_bytes(),
        wal_bytes,
        "a failed checkpoint must not truncate the WAL"
    );

    // Retry succeeds; a crash right now (torn header + full WAL) also
    // recovers, because the previous header slot is still intact.
    engine.checkpoint().unwrap();
    assert_eq!(engine.wal_bytes(), 0);
    drop(engine);
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(matchings_of(&reopened, &fs), before);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Degraded mode at the engine level
// ---------------------------------------------------------------------

/// A wedged WAL (append failed *and* rollback failed) flips the engine
/// to degraded: mutations are refused with `StorageDegraded`, reads
/// keep serving, and a successful checkpoint repairs everything.
#[test]
fn wedged_wal_degrades_mutations_but_not_reads_until_checkpoint_repairs() {
    let dir = tmp_dir("degraded");
    let objects = seeded_points(50, 2, 19);
    let fs = functions(2, 6, 21);
    let inj = FaultInjector::shared();
    let engine = Engine::builder()
        .objects(&objects)
        .data_dir(&dir)
        .fault_injector(Arc::clone(&inj))
        .build()
        .unwrap();
    let before = matchings_of(&engine, &fs);
    let version = engine.inventory_version();

    // Fail the append fsync, then the rollback: the WAL wedges.
    inj.fail_nth(FaultOp::WalSync, 0, FaultKind::Error);
    inj.fail_nth(FaultOp::WalRollback, 0, FaultKind::Error);
    let err = engine.insert_object(&[0.6, 0.6]).unwrap_err();
    assert!(matches!(err, MpqError::Io(_)), "{err:?}");
    assert_eq!(engine.health(), HealthState::Degraded);

    // Degraded: mutations refused up front, reads unaffected.
    let err = engine.insert_object(&[0.7, 0.7]).unwrap_err();
    assert!(matches!(err, MpqError::StorageDegraded), "{err:?}");
    let err = engine.remove_object(1).unwrap_err();
    assert!(matches!(err, MpqError::StorageDegraded), "{err:?}");
    assert_eq!(matchings_of(&engine, &fs), before);
    assert_eq!(engine.inventory_version(), version);

    // Checkpoint truncates the (possibly phantom-holding) WAL and
    // restores service.
    engine.checkpoint().unwrap();
    assert_eq!(engine.health(), HealthState::Healthy);
    engine.insert_object(&[0.6, 0.6]).unwrap();

    // The repaired engine recovers to exactly its committed state.
    let after = matchings_of(&engine, &fs);
    drop(engine);
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(matchings_of(&reopened, &fs), after);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The service reports the engine's health: over a wedged engine its
/// metrics read `degraded` while it keeps serving reads, and `healthy`
/// again once a checkpoint repairs the log.
#[test]
fn service_metrics_read_the_engines_health() {
    let dir = tmp_dir("service_health");
    let objects = seeded_points(50, 2, 25);
    let fs = functions(2, 4, 27);
    let inj = FaultInjector::shared();
    let engine = Arc::new(
        Engine::builder()
            .objects(&objects)
            .data_dir(&dir)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap(),
    );
    let service = Arc::clone(&engine).serve(ServiceConfig::default().workers(1));
    assert_eq!(service.metrics().health, HealthState::Healthy);

    inj.fail_nth(FaultOp::WalSync, 0, FaultKind::Error);
    inj.fail_nth(FaultOp::WalRollback, 0, FaultKind::Error);
    engine.insert_object(&[0.6, 0.6]).unwrap_err();
    assert_eq!(service.metrics().health, HealthState::Degraded);
    assert_eq!(service.client().metrics().health, HealthState::Degraded);
    let served = service.client().submit(engine.request(&fs)).unwrap();
    assert_eq!(served.wait().unwrap().len(), 4);

    engine.checkpoint().unwrap();
    assert_eq!(service.metrics().health, HealthState::Healthy);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// ENOSPC on the WAL is reported as a typed I/O error carrying the OS
/// error kind, not a panic.
#[test]
fn enospc_on_wal_append_is_a_typed_error() {
    let dir = tmp_dir("enospc");
    let objects = seeded_points(40, 2, 23);
    let inj = FaultInjector::shared();
    let engine = Engine::builder()
        .objects(&objects)
        .data_dir(&dir)
        .fault_injector(Arc::clone(&inj))
        .build()
        .unwrap();
    inj.fail_nth(FaultOp::WalWrite, 0, FaultKind::Enospc);
    let err = engine.insert_object(&[0.5, 0.5]).unwrap_err();
    match err {
        MpqError::Io(msg) => assert!(
            msg.contains("injected fault"),
            "ENOSPC must carry the device error text: {msg}"
        ),
        other => panic!("expected Io, got {other:?}"),
    }
    // The engine is not degraded — a clean append failure rolls back.
    assert_eq!(engine.health(), HealthState::Healthy);
    engine.insert_object(&[0.5, 0.5]).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Poison recovery (satellite)
// ---------------------------------------------------------------------

/// An injected panic inside an evaluation (a worker dereferencing a
/// page the device refuses to read) must cost exactly that request —
/// `WorkerPanicked` — and never wedge later submitters behind a
/// poisoned lock.
#[test]
fn worker_panic_from_injected_fault_does_not_wedge_the_service() {
    let objects = seeded_points(400, 2, 31);
    let fs = functions(2, 10, 33);
    let inj = FaultInjector::shared();
    // A one-page buffer guarantees evaluations miss the cache and hit
    // the (injected) page store.
    let engine = Arc::new(
        Engine::builder()
            .objects(&objects)
            .index(IndexConfig {
                page_size: 512,
                buffer_fraction: 0.0,
                min_buffer_pages: 1,
            })
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap(),
    );
    // Cache off: the healthy round's seed would prime the skyline from
    // memory and legitimately dodge the injected page read — this test
    // needs the evaluation to actually touch the device.
    let service = Arc::clone(&engine).serve(ServiceConfig::default().workers(2).cache_capacity(0));
    let client = service.client();

    // Healthy round first, so the queue/metrics locks are warm.
    client.submit(engine.request(&fs)).unwrap().wait().unwrap();

    inj.fail_from(FaultOp::PageRead, 0, FaultKind::Panic);
    let fs2 = functions(2, 10, 35);
    let err = client
        .submit(engine.request(&fs2))
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, MpqError::WorkerPanicked), "{err:?}");
    inj.clear();

    // The service keeps serving: same worker pool, new submissions.
    for seed in 36..40 {
        let fsn = functions(2, 10, seed);
        client.submit(engine.request(&fsn)).unwrap().wait().unwrap();
    }
    let metrics = service.metrics();
    assert_eq!(metrics.panicked, 1);
    service.shutdown();
}

/// An injected store takes the bulk load's run page by page, so a build
/// is one `PageWrite` a page on the injector's schedule, in memory and
/// on disk alike (where checkpoint zero's header slot is one more): the
/// schedule the crash-point sweep counts over does not depend on how an
/// un-injected store takes a run.
#[test]
fn an_injected_build_is_one_page_write_a_page() {
    let objects = seeded_points(2_000, 3, 31);
    let config = IndexConfig {
        page_size: 512,
        ..IndexConfig::default()
    };
    let inj = FaultInjector::shared();
    let engine = Engine::builder()
        .objects(&objects)
        .index(config.clone())
        .fault_injector(Arc::clone(&inj))
        .build()
        .unwrap();
    let pages = engine.tree().page_count() as u64;
    assert!(pages > 100);
    assert_eq!(inj.count(FaultOp::PageWrite), pages);

    let dir = tmp_dir("build_writes");
    let inj = FaultInjector::shared();
    let engine = Engine::builder()
        .objects(&objects)
        .index(config)
        .data_dir(&dir)
        .fault_injector(Arc::clone(&inj))
        .build()
        .unwrap();
    assert_eq!(engine.tree().page_count() as u64, pages);
    assert_eq!(inj.count(FaultOp::PageWrite), pages + 1);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
