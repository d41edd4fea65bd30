//! Crash recovery and persistence: the disk-backed engine must reopen
//! to exactly the state the in-memory engine would hold after the same
//! surviving mutations — bit-identical matchings for all three
//! algorithms — no matter where in the WAL a crash cut the log.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mpq_core::wal::{decode_frame, encode_frame};
use mpq_core::{
    reference_matching_excluding, Algorithm, Engine, IndexConfig, Pair, Wal, WalRecord,
};
use mpq_rtree::bulk::sort_key;
use mpq_rtree::{DiskPager, PointSet, RTree, RTreeParams};
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

/// A page file checkpointed by an engine that recorded only the WAL
/// sequence number (8 bytes of caller metadata) still opens, with the
/// bound that engine would have derived: one past the highest live id.
#[test]
fn a_checkpoint_without_the_id_bound_still_opens() {
    let dir = tmp_dir("oldextra");
    let objects = seeded_points(50, 2, 67);
    let fs = functions(2, 8, 71);
    let params = RTreeParams {
        page_size: IndexConfig::default().page_size,
        ..RTreeParams::default()
    };
    std::fs::create_dir_all(&dir).unwrap();
    let store = DiskPager::create(&dir.join("pages.mpq"), params.page_size).unwrap();
    RTree::bulk_load_in(store, &objects, params)
        .checkpoint(&0u64.to_le_bytes())
        .unwrap();
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(reopened.n_objects(), 50);
    assert_eq!(reopened.oid_bound(), 50);
    let reference = Engine::builder().objects(&objects).build().unwrap();
    assert_eq!(matchings_of(&reopened, &fs), matchings_of(&reference, &fs));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The layout an engine of `K` shards wrote, and its migration
// ---------------------------------------------------------------------

/// The manifest an engine of `k` shards wrote beside its `shard-i/`.
fn manifest(k: usize) -> String {
    format!("mpq-shard-manifest/1\nshards={k}\npartitioner=hash\n")
}

/// What an engine of `k` shards left under `dir`, written by hand
/// through public APIs: object `oid` of `objects` in shard `oid % k`,
/// each shard bulk-loaded under the objects' global ids and
/// checkpointed with the WAL sequence number and the engine's id bound,
/// then a WAL tail in the shards its records route to — an insert of
/// id `n`, its removal, a removal of id 5 and an update of id 8 — and
/// the manifest. Returns the surviving inventory by id (`None` where
/// an id no longer lives), which is what a migrated engine must hold.
fn write_k_shards(dir: &std::path::Path, objects: &PointSet, k: usize) -> Vec<Option<Vec<f64>>> {
    let n = objects.len() as u64;
    let params = RTreeParams {
        page_size: IndexConfig::default().page_size,
        ..RTreeParams::default()
    };
    let mut extra = [0u8; 16];
    extra[8..].copy_from_slice(&n.to_le_bytes());
    let shard = |oid: u64| dir.join(format!("shard-{}", oid % k as u64));
    for s in 0..k as u64 {
        let sdir = shard(s);
        std::fs::create_dir_all(&sdir).unwrap();
        let store = DiskPager::create(&sdir.join("pages.mpq"), params.page_size).unwrap();
        let mut keys: Vec<u128> = (0..n)
            .filter(|oid| oid % k as u64 == s)
            .map(|oid| sort_key(objects, oid as usize))
            .collect();
        let tree = RTree::bulk_load_keys(Box::new(store), objects, &mut keys, params.clone());
        tree.checkpoint(&extra).unwrap();
    }
    let mut survivors: Vec<Option<Vec<f64>>> =
        (objects.iter()).map(|(_, p)| Some(p.to_vec())).collect();
    let fresh = vec![0.9, 0.95, 0.9];
    let moved = vec![0.2, 0.3, 0.99];
    let tail = [
        WalRecord::Insert {
            oid: n,
            point: fresh.clone().into(),
        },
        WalRecord::Remove {
            oid: n,
            point: fresh.into(),
        },
        WalRecord::Remove {
            oid: 5,
            point: objects.get(5).into(),
        },
        WalRecord::Update {
            oid: 8,
            old: objects.get(8).into(),
            new: moved.clone().into(),
        },
    ];
    for record in &tail {
        let (mut wal, _) = Wal::open(&shard(record.oid()).join("wal.mpq")).unwrap();
        wal.append_sync(record).unwrap();
    }
    survivors.push(None); // id `n`: minted, then removed
    survivors[5] = None;
    survivors[8] = Some(moved);
    std::fs::write(dir.join("shards.mpq"), manifest(k)).unwrap();
    survivors
}

/// The reference matching over `survivors`, ids as they stand.
fn reference_over(survivors: &[Option<Vec<f64>>], fs: &FunctionSet) -> Vec<(u32, u64, u64)> {
    let dim = fs.dim();
    let flat: Vec<f64> = (survivors.iter())
        .flat_map(|p| p.clone().unwrap_or(vec![0.0; dim]))
        .collect();
    let points = PointSet::from_flat(dim, flat);
    let gone = |oid: u64| survivors[oid as usize].is_none();
    bits(reference_matching_excluding(&points, fs, &gone))
}

fn bits(mut pairs: Vec<Pair>) -> Vec<(u32, u64, u64)> {
    pairs.sort_unstable();
    (pairs.iter())
        .map(|p| (p.fid, p.oid, p.score.to_bits()))
        .collect()
}

/// The files and directories directly under `dir`, sorted.
fn files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// A directory of `K` shards — three, or the `shards=1` / `shard-0/`
/// form older builders wrote — opens as the one tree: every shard
/// recovered (checkpoint, then WAL tail), their live objects loaded
/// into one tree at the root, the shards removed. The matchings are the
/// reference's over the surviving objects to the bit, for every
/// algorithm, and the next open reads the bare layout.
#[test]
fn a_k_shard_directory_migrates_into_one_tree() {
    let objects = seeded_points(300, 3, 0x5A4D);
    let fs = functions(3, 40, 0x77);
    for k in [3, 1] {
        let dir = tmp_dir("migrate");
        let survivors = write_k_shards(&dir, &objects, k);
        let want = reference_over(&survivors, &fs);
        assert!(Engine::persisted_at(&dir));

        let migrated = Engine::builder().data_dir(&dir).open_or_build().unwrap();
        assert_eq!(migrated.n_objects(), 299, "K={k}");
        assert_eq!(migrated.oid_bound(), 301, "K={k}: id 300 was minted");
        assert_eq!(migrated.wal_bytes(), 0, "K={k}: a fresh WAL");
        for got in matchings_of(&migrated, &fs) {
            assert_eq!(bits(got), want, "K={k}");
        }
        drop(migrated);
        assert_eq!(files(&dir), ["pages.mpq", "wal.mpq"], "K={k}");

        let reopened = Engine::open(&dir).unwrap();
        assert_eq!(reopened.oid_bound(), 301, "K={k}");
        let sb = reopened.request(&fs).evaluate().unwrap();
        assert_eq!(bits(sb.pairs().to_vec()), want, "K={k}, the bare layout");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The migrated tree inherits the shards' id bound — the checkpointed
/// one, raised by the replayed tail — so the highest id, removed, is
/// not minted again: not by the migrating engine, not after a reopen.
#[test]
fn a_removed_id_is_not_minted_again_after_a_migration() {
    let dir = tmp_dir("migrate_ids");
    let objects = seeded_points(100, 3, 61);
    write_k_shards(&dir, &objects, 3);
    {
        let migrated = Engine::open(&dir).unwrap();
        assert_eq!(migrated.insert_object(&[0.3, 0.6, 0.1]).unwrap(), 101);
        migrated.remove_object(101).unwrap();
    }
    let again = Engine::open(&dir).unwrap();
    assert_eq!(again.oid_bound(), 102, "replay: id 101 is spent");
    assert_eq!(again.insert_object(&[0.7, 0.2, 0.4]).unwrap(), 102);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Removing the manifest commits a migration. A crash before it leaves
/// a root page file beside the manifest and the untouched shards: the
/// next open migrates again from the shards, whatever the root holds.
/// A crash after it leaves the migrated tree beside shards no manifest
/// names: the next open reads the tree and removes them.
#[test]
fn a_migration_cut_short_is_finished_by_the_next_open() {
    let objects = seeded_points(200, 3, 0xC0A5);
    let fs = functions(3, 25, 0x31);

    // Before the commit point: root pages beside the manifest.
    let dir = tmp_dir("migrate_crash");
    let survivors = write_k_shards(&dir, &objects, 3);
    let want = reference_over(&survivors, &fs);
    let stale = seeded_points(50, 3, 0xBAD);
    let root = DiskPager::create(&dir.join("pages.mpq"), IndexConfig::default().page_size);
    let tree = RTree::bulk_load_in(root.unwrap(), &stale, RTreeParams::default());
    tree.checkpoint(&[0u8; 16]).unwrap();
    drop(tree);
    let migrated = Engine::open(&dir).unwrap();
    assert_eq!(migrated.n_objects(), 199, "the shards, not the root's 50");
    assert_eq!(
        bits(migrated.request(&fs).evaluate().unwrap().pairs().to_vec()),
        want
    );
    drop(migrated);
    assert_eq!(files(&dir), ["pages.mpq", "wal.mpq"]);

    // After it: the migrated tree beside shards no manifest names.
    for s in 0..2 {
        let copy = dir.join(format!("shard-{s}"));
        std::fs::create_dir_all(&copy).unwrap();
        std::fs::copy(dir.join("pages.mpq"), copy.join("pages.mpq")).unwrap();
    }
    let reopened = Engine::open(&dir).unwrap();
    assert_eq!(
        bits(reopened.request(&fs).evaluate().unwrap().pairs().to_vec()),
        want
    );
    assert_eq!(files(&dir), ["pages.mpq", "wal.mpq"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh build supersedes whatever layout the directory held: over
/// `K` shards it leaves the bare layout alone — no manifest and no
/// `shard-i/` with their pages and WALs — and the next open sees the
/// build's objects.
#[test]
fn a_fresh_build_removes_an_old_layout() {
    let objects = seeded_points(120, 3, 0xF2E5);
    for k in [3, 1] {
        let dir = tmp_dir("build_over_shards");
        write_k_shards(&dir, &objects, k);
        let fresh = seeded_points(40, 3, 0xF00D);
        drop(
            Engine::builder()
                .objects(&fresh)
                .data_dir(&dir)
                .build()
                .unwrap(),
        );
        assert_eq!(files(&dir), ["pages.mpq", "wal.mpq"], "K={k}");
        let reopened = Engine::open(&dir).unwrap();
        assert_eq!(reopened.n_objects(), 40, "K={k}: not the superseded shards");
        assert_eq!(reopened.oid_bound(), 40, "K={k}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
