//! The two on-disk forms no engine of this version opens — the
//! `K`-shard layout (`shard-i/` trees beside a `shards.mpq` manifest)
//! and a page file checkpointed without the id bound — are refused by
//! every entry point that takes a data directory, each form with its one
//! `UnsupportedRequest` message, and the directory is left byte for
//! byte as it was.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mpq::core::{Engine, IndexConfig, MpqError, Wal, WalRecord};
use mpq::datagen::WorkloadBuilder;
use mpq::net::{TenantConfig, TenantRegistry};
use mpq::rtree::{DiskPager, PointSet, RTree, RTreeParams};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpq-old-layout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn objects(n: usize, seed: u64) -> PointSet {
    let w = WorkloadBuilder::new().objects(n).functions(0).dim(3);
    w.seed(seed).build().objects
}

/// A page file under `dir` holding `objects`, checkpointed with `extra`,
/// beside a WAL holding one insert past it.
fn write_tree(dir: &Path, objects: &PointSet, extra: &[u8]) {
    std::fs::create_dir_all(dir).unwrap();
    let params = RTreeParams {
        page_size: IndexConfig::default().page_size,
        ..RTreeParams::default()
    };
    let store = DiskPager::create(&dir.join("pages.mpq"), params.page_size).unwrap();
    RTree::bulk_load_in(store, objects, params)
        .checkpoint(extra)
        .unwrap();
    let (mut wal, _) = Wal::open(&dir.join("wal.mpq")).unwrap();
    let oid = objects.len() as u64;
    let point = vec![0.5, 0.25, 0.75].into();
    wal.append_sync(&WalRecord::Insert { oid, point }).unwrap();
}

/// What an engine of `k` shards left under `dir`: the manifest and one
/// checkpointed tree with its WAL in each `shard-i/`.
fn write_k_shards(dir: &Path, k: usize) {
    let mut extra = [0u8; 16];
    extra[8..].copy_from_slice(&(40 * k as u64).to_le_bytes());
    for s in 0..k {
        write_tree(
            &dir.join(format!("shard-{s}")),
            &objects(40, s as u64),
            &extra,
        );
    }
    let manifest = format!("mpq-shard-manifest/1\nshards={k}\npartitioner=hash\n");
    std::fs::write(dir.join("shards.mpq"), manifest).unwrap();
}

/// Every file under `dir` with its bytes, and every directory.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Option<Vec<u8>>> {
    let mut out = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.insert(path.clone(), None);
                pending.push(path);
            } else {
                out.insert(path.clone(), Some(std::fs::read(&path).unwrap()));
            }
        }
    }
    out
}

/// An entry point that takes a data directory, by name.
type EntryPoint<'a> = (&'static str, &'a dyn Fn() -> Result<(), MpqError>);

#[test]
fn every_entry_point_refuses_an_old_layout_and_leaves_it_untouched() {
    let fresh = objects(60, 99);
    let forms = [
        ("k3", "K-shard layout", Some(3)),
        ("k1", "K-shard layout", Some(1)),
        ("short-extra", "without the id bound", None),
    ];
    for (tag, named, shards) in forms {
        let dir = tmp_dir(tag);
        match shards {
            Some(k) => write_k_shards(&dir, k),
            None => write_tree(&dir, &objects(50, 7), &0u64.to_le_bytes()),
        }
        let before = snapshot(&dir);
        let with_objects = || Engine::builder().objects(&fresh).data_dir(&dir);
        let entry_points: [EntryPoint; 6] = [
            ("Engine::open", &|| Engine::open(&dir).map(drop)),
            ("Engine::open_with", &|| {
                Engine::open_with(&dir, IndexConfig::default()).map(drop)
            }),
            ("open_or_build with objects", &|| {
                with_objects().open_or_build().map(drop)
            }),
            ("open_or_build without objects", &|| {
                Engine::builder().data_dir(&dir).open_or_build().map(drop)
            }),
            ("build", &|| with_objects().build().map(drop)),
            ("TenantRegistry::add_persistent", &|| {
                let config = TenantConfig::default();
                TenantRegistry::new().add_persistent("t", Some(&fresh), dir.clone(), config)
            }),
        ];
        let mut messages = Vec::new();
        for (entry, open) in entry_points {
            match open() {
                Err(MpqError::UnsupportedRequest(message)) => {
                    assert!(message.contains(named), "{tag}, {entry}: {message}");
                    assert!(message.contains("cd313ab"), "{tag}, {entry}: {message}");
                    messages.push(message);
                }
                other => panic!("{tag}, {entry}: not refused: {other:?}"),
            }
            assert!(
                snapshot(&dir) == before,
                "{tag}, {entry}: the directory changed"
            );
        }
        messages.dedup();
        assert_eq!(messages.len(), 1, "{tag}: one message: {messages:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
