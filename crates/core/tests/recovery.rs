//! Crash recovery and persistence: the disk-backed engine must reopen
//! to exactly the state the in-memory engine would hold after the same
//! surviving mutations — bit-identical matchings for all three
//! algorithms — no matter where in the WAL a crash cut the log.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mpq_core::wal::{decode_frame, encode_frame};
use mpq_core::{Algorithm, Engine, IndexConfig, WalRecord};
use mpq_rtree::PointSet;
use mpq_ta::FunctionSet;
use proptest::prelude::*;

/// A fresh per-test scratch directory (removed on a best-effort basis;
/// unique per call so parallel tests never collide).
fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mpq_recovery_{tag}_{}_{}",
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

/// The same mutation schedule applied to any engine (disk or memory):
/// inserts, removes and updates interleaved, deterministic.
fn apply_mutations(engine: &Engine, seed: u64) {
    let dim = engine.dim();
    let extra = seeded_points(6, dim, seed ^ 0xDEAD);
    for (_, p) in extra.iter() {
        engine.insert_object(p).unwrap();
    }
    for oid in [1u64, 4, 7] {
        engine.remove_object(oid).unwrap();
    }
    let moved = seeded_points(3, dim, seed ^ 0xBEEF);
    for (i, (_, p)) in moved.iter().enumerate() {
        engine.update_object(10 + i as u64, p).unwrap();
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every WAL record survives encode → decode bit-exactly, and the
    /// decoder reports the exact frame length it consumed.
    #[test]
    fn wal_record_encode_decode_round_trips(
        seq in any::<u64>(),
        oid in any::<u64>(),
        kind in 0u8..3,
        a in proptest::collection::vec(0.0f64..1.0, 1..6),
        b in proptest::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let dim = a.len().min(b.len());
        let a: Box<[f64]> = a[..dim].into();
        let b: Box<[f64]> = b[..dim].into();
        let rec = match kind {
            0 => WalRecord::Insert { oid, point: a },
            1 => WalRecord::Remove { oid, point: a },
            _ => WalRecord::Update { oid, old: a, new: b },
        };
        let frame = encode_frame(seq, &rec);
        let (got_seq, got_rec, used) = decode_frame(&frame).expect("intact frame decodes");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got_rec, rec);
        prop_assert_eq!(used, frame.len());
        // And any truncation of the frame is rejected, never misread.
        for cut in 0..frame.len() {
            prop_assert!(decode_frame(&frame[..cut]).is_none());
        }
    }
}

/// Acceptance: build on disk, mutate without checkpointing, drop, and
/// reopen — the WAL tail alone must bring the engine to a state whose
/// matchings are bit-identical to an in-memory engine that applied the
/// same mutations, for all three algorithms.
#[test]
fn reopened_engine_matches_in_memory_reference_for_all_algorithms() {
    let dir = tmp_dir("restart");
    let objects = seeded_points(300, 3, 42);
    let fs = functions(3, 40, 7);

    let reference = Engine::builder().objects(&objects).build().unwrap();
    apply_mutations(&reference, 99);

    {
        let disk = Engine::builder()
            .objects(&objects)
            .data_dir(&dir)
            .build()
            .unwrap();
        apply_mutations(&disk, 99);
        // Deliberately no checkpoint: recovery must replay the WAL tail.
    }

    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(reopened.n_objects(), reference.n_objects());
    assert_eq!(reopened.oid_bound(), reference.oid_bound());
    assert_eq!(matchings_of(&reopened, &fs), matchings_of(&reference, &fs));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint truncates the WAL; mutations after it live in the WAL
/// alone. Reopening must compose checkpoint image + tail correctly.
#[test]
fn checkpoint_plus_tail_composes() {
    let dir = tmp_dir("ckpt");
    let objects = seeded_points(200, 2, 5);
    let fs = functions(2, 25, 11);

    let reference = Engine::builder().objects(&objects).build().unwrap();
    apply_mutations(&reference, 1);
    reference.insert_object(&[0.5, 0.5]).unwrap();

    {
        let disk = Engine::builder()
            .objects(&objects)
            .data_dir(&dir)
            .build()
            .unwrap();
        apply_mutations(&disk, 1);
        disk.checkpoint().unwrap();
        // Post-checkpoint delta rides the WAL only.
        disk.insert_object(&[0.5, 0.5]).unwrap();
    }

    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(matchings_of(&reopened, &fs), matchings_of(&reference, &fs));

    // Checkpointing the reopened engine and opening again is stable.
    reopened.checkpoint().unwrap();
    drop(reopened);
    let again = Engine::open(&dir).unwrap();
    assert_eq!(matchings_of(&again, &fs), matchings_of(&reference, &fs));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-mid-write: truncate the WAL at **every byte boundary** and
/// reopen. Replay must stop at the torn frame — never misapply a
/// partial record — and the recovered engine must serve matchings
/// bit-identical to an in-memory engine that applied exactly the
/// mutations whose frames survived intact.
#[test]
fn wal_truncated_at_every_byte_boundary_recovers_consistently() {
    let dir = tmp_dir("torn");
    let objects = seeded_points(80, 2, 17);
    let fs = functions(2, 12, 3);

    {
        let disk = Engine::builder()
            .objects(&objects)
            .data_dir(&dir)
            .build()
            .unwrap();
        disk.insert_object(&[0.9, 0.8]).unwrap();
        disk.remove_object(3).unwrap();
        disk.update_object(5, &[0.25, 0.75]).unwrap();
        disk.insert_object(&[0.1, 0.2]).unwrap();
    }
    let wal_path = dir.join("wal.mpq");
    let full_wal = std::fs::read(&wal_path).unwrap();
    assert!(!full_wal.is_empty(), "mutations must have hit the WAL");

    // Decode the record boundaries once so each truncation length maps
    // to "how many records survive".
    let mut boundaries = vec![0usize];
    {
        let mut at = 0;
        while let Some((_, _, used)) = decode_frame(&full_wal[at..]) {
            at += used;
            boundaries.push(at);
        }
        assert_eq!(at, full_wal.len(), "test WAL must decode completely");
        assert_eq!(boundaries.len(), 5, "four mutations logged");
    }

    // Reference engines: one per survivable prefix of the mutation list.
    let reference_after = |surviving: usize| {
        let e = Engine::builder().objects(&objects).build().unwrap();
        let muts: [&dyn Fn(&Engine); 4] = [
            &|e| {
                e.insert_object(&[0.9, 0.8]).unwrap();
            },
            &|e| {
                e.remove_object(3).unwrap();
            },
            &|e| {
                e.update_object(5, &[0.25, 0.75]).unwrap();
            },
            &|e| {
                e.insert_object(&[0.1, 0.2]).unwrap();
            },
        ];
        for m in &muts[..surviving] {
            m(&e);
        }
        matchings_of(&e, &fs)
    };
    let expected: Vec<_> = (0..=4).map(reference_after).collect();

    for cut in 0..=full_wal.len() {
        std::fs::write(&wal_path, &full_wal[..cut]).unwrap();
        let surviving = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let reopened = Engine::open(&dir).unwrap();
        assert_eq!(
            matchings_of(&reopened, &fs),
            expected[surviving],
            "truncation at byte {cut} must recover exactly {surviving} mutations"
        );
        // The torn tail was trimmed on open: the file now ends at the
        // last intact boundary, so a second open replays identically.
        let trimmed = std::fs::metadata(&wal_path).unwrap().len() as usize;
        assert_eq!(trimmed, boundaries[surviving]);
        drop(reopened);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sequence numbers stay monotonic across checkpoint + reopen: a
/// mutation logged after recovery must never reuse a sequence number at
/// or below the checkpoint's high-water mark (which replay would skip).
#[test]
fn post_recovery_mutations_replay_after_another_crash() {
    let dir = tmp_dir("seq");
    let objects = seeded_points(60, 2, 23);
    let fs = functions(2, 8, 29);

    let reference = Engine::builder().objects(&objects).build().unwrap();
    reference.insert_object(&[0.4, 0.6]).unwrap();
    reference.insert_object(&[0.6, 0.4]).unwrap();

    {
        let disk = Engine::builder()
            .objects(&objects)
            .data_dir(&dir)
            .build()
            .unwrap();
        disk.insert_object(&[0.4, 0.6]).unwrap();
        disk.checkpoint().unwrap();
    }
    {
        // Crash-reopen, mutate, crash again without checkpointing.
        let disk = Engine::open(&dir).unwrap();
        disk.insert_object(&[0.6, 0.4]).unwrap();
    }
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(matchings_of(&reopened, &fs), matchings_of(&reference, &fs));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The builder with a `data_dir` overwrites whatever a previous engine
/// left there: stale WAL tails must not leak into the fresh inventory.
#[test]
fn rebuilding_into_a_dirty_directory_starts_clean() {
    let dir = tmp_dir("rebuild");
    let first = seeded_points(50, 2, 31);
    {
        let e = Engine::builder()
            .objects(&first)
            .data_dir(&dir)
            .build()
            .unwrap();
        e.insert_object(&[0.5, 0.5]).unwrap();
    }
    let second = seeded_points(70, 2, 37);
    {
        let e = Engine::builder()
            .objects(&second)
            .data_dir(&dir)
            .build()
            .unwrap();
        assert_eq!(e.n_objects(), 70);
    }
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(reopened.n_objects(), 70);
    assert_eq!(reopened.oid_bound(), 70);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opening with a mismatched page size must fail loudly, not misread.
#[test]
fn open_with_wrong_page_size_is_refused() {
    let dir = tmp_dir("pagesize");
    let objects = seeded_points(40, 2, 41);
    drop(
        Engine::builder()
            .objects(&objects)
            .data_dir(&dir)
            .build()
            .unwrap(),
    );
    let err = Engine::open_with(
        &dir,
        IndexConfig {
            page_size: 8192,
            ..IndexConfig::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, mpq_core::MpqError::Io(_)), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mint id 100, remove it, and come back: the id is spent. Replay alone
/// (no checkpoint) must raise the bound over the `Insert` record even
/// though a later record removed its object.
#[test]
fn a_removed_id_is_not_minted_again_after_wal_replay() {
    let dir = tmp_dir("idreplay");
    let objects = seeded_points(100, 2, 53);
    {
        let disk = Engine::builder()
            .objects(&objects)
            .data_dir(&dir)
            .build()
            .unwrap();
        assert_eq!(disk.insert_object(&[0.3, 0.6]).unwrap(), 100);
        disk.remove_object(100).unwrap();
        assert_eq!(disk.oid_bound(), 101);
    }
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(reopened.n_objects(), 100);
    assert_eq!(reopened.oid_bound(), 101, "id 100 was handed out once");
    assert_eq!(reopened.insert_object(&[0.7, 0.2]).unwrap(), 101);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same across a checkpoint: the WAL is truncated, so the page
/// file's header is the only place the bound can survive — and it still
/// must after a second, WAL-less reopen.
#[test]
fn a_removed_id_is_not_minted_again_after_a_checkpoint() {
    let dir = tmp_dir("idckpt");
    let objects = seeded_points(100, 2, 59);
    {
        let disk = Engine::builder()
            .objects(&objects)
            .data_dir(&dir)
            .build()
            .unwrap();
        assert_eq!(disk.insert_object(&[0.3, 0.6]).unwrap(), 100);
        disk.remove_object(100).unwrap();
        disk.checkpoint().unwrap();
        assert_eq!(disk.wal_bytes(), 0);
    }
    {
        let reopened = Engine::open(&dir).unwrap();
        assert_eq!(reopened.oid_bound(), 101, "id 100 was handed out once");
        reopened.checkpoint().unwrap();
    }
    let again = Engine::open(&dir).unwrap();
    assert_eq!(again.oid_bound(), 101);
    assert_eq!(again.insert_object(&[0.7, 0.2]).unwrap(), 101);
    let _ = std::fs::remove_dir_all(&dir);
}
