//! The layout an engine of `K` shards left on disk, and its migration
//! into the one tree.
//!
//! Engines of earlier versions could hash-partition an inventory into
//! `K` shards, each an R-tree with its own page file and WAL in
//! `shard-i/`, beside a `shards.mpq` manifest that records `K` (older
//! builders wrote `shards=1` with one `shard-0/` too). Evaluation gained
//! nothing from them — every request read all `K` trees as one index —
//! so the engine is one tree now, and such a directory is migrated the
//! first time it is opened:
//!
//! 1. every `shard-i/` is recovered, one after another, by the one-tree
//!    open path: its checkpointed image, then its WAL replayed;
//! 2. their live objects are bulk-loaded, under their ids, into one tree
//!    at the root by the one build path, which checkpoints it with the
//!    largest of the shards' id bounds beside an empty WAL;
//! 3. `shards.mpq` is removed. That is the commit point: until then the
//!    next open migrates again from the untouched shards, whatever a
//!    crash left at the root;
//! 4. every `shard-i/` is removed.
//!
//! The migrated engine serves the matchings the `K`-shard engine did,
//! and never mints a removed object's id again.

use std::path::{Path, PathBuf};

use mpq_rtree::bulk::sort_key;
use mpq_rtree::PointSet;

use crate::engine::{check_inventory_len, Engine, EngineBuilder};
use crate::error::MpqError;

/// Manifest file name inside a sharded data directory.
pub(crate) const MANIFEST_FILE: &str = "shards.mpq";
/// First line of a sharded data-dir manifest.
const MANIFEST_MAGIC: &str = "mpq-shard-manifest/1";

/// The manifest's name for the one routing rule the shards were cut by.
const PARTITIONER: &str = "hash";

/// The data directory of shard `s` under a sharded root.
fn shard_dir(root: &Path, s: usize) -> PathBuf {
    root.join(format!("shard-{s}"))
}

/// How many shards the manifest under `root` counts, if there is one.
pub(crate) fn manifest_shards(root: &Path) -> Result<Option<usize>, MpqError> {
    if !root.join(MANIFEST_FILE).is_file() {
        return Ok(None);
    }
    read_manifest(root).map(Some)
}

/// Parse a sharded data-dir manifest into its shard count. A manifest
/// that names any partitioner but [`PARTITIONER`] is refused: no engine
/// of this code wrote it.
fn read_manifest(dir: &Path) -> Result<usize, MpqError> {
    let body = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let mut lines = body.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(MpqError::Io(format!(
            "not a shard manifest: {}",
            dir.join(MANIFEST_FILE).display()
        )));
    }
    let mut k = None;
    let mut partitioned = false;
    for line in lines {
        if let Some(v) = line.strip_prefix("shards=") {
            k = v.parse::<usize>().ok();
        } else if let Some(id) = line.strip_prefix("partitioner=") {
            if id != PARTITIONER {
                return Err(MpqError::Io(format!(
                    "shard manifest names unknown partitioner '{id}'"
                )));
            }
            partitioned = true;
        }
    }
    match k {
        Some(k) if k >= 1 && partitioned => Ok(k),
        _ => Err(MpqError::Io(format!(
            "malformed shard manifest: {}",
            dir.join(MANIFEST_FILE).display()
        ))),
    }
}

/// Migrate the `k` shards under `root` into one tree there (see the
/// [module docs](self)), hosted by `builder`.
pub(crate) fn migrate(
    builder: EngineBuilder<'_>,
    root: &Path,
    k: usize,
) -> Result<Engine, MpqError> {
    let (mut ids, mut coords, mut bound, mut dim) = (Vec::new(), Vec::new(), 0, None);
    for s in 0..k {
        let (tree, _, shard_bound) = builder.open_tree(&shard_dir(root, s))?;
        if *dim.get_or_insert(tree.dim()) != tree.dim() {
            return Err(MpqError::Io(format!(
                "shard {s} of {} indexes another dimensionality",
                root.display()
            )));
        }
        bound = bound.max(shard_bound);
        tree.for_each_point(|oid, point| {
            bound = bound.max(oid.saturating_add(1));
            ids.push(oid);
            coords.extend_from_slice(point);
        });
    }
    let Some(dim) = dim.filter(|_| !ids.is_empty()) else {
        return Err(MpqError::EmptyObjects);
    };
    // Every live object at its id; the ids no object holds any more stay
    // at the origin, named by no key.
    check_inventory_len(bound as usize)?;
    let mut flat = vec![0.0; bound as usize * dim];
    for (&oid, point) in ids.iter().zip(coords.chunks_exact(dim)) {
        flat[oid as usize * dim..][..dim].copy_from_slice(point);
    }
    drop(coords);
    let points = PointSet::from_flat(dim, flat);
    let mut keys: Vec<u128> = ids
        .iter()
        .map(|&oid| sort_key(&points, oid as usize))
        .collect();
    drop(ids);
    builder.load(&points, &mut keys, bound)
}

/// Remove what a `K`-shard layout left under `root`: the manifest
/// first — the commit point of a migration — then every `shard-i/`.
pub(crate) fn retire(root: &Path) -> Result<(), MpqError> {
    if let Err(e) = std::fs::remove_file(root.join(MANIFEST_FILE)) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(e.into());
        }
    }
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name();
        let numbered = (name.to_str().and_then(|name| name.strip_prefix("shard-")))
            .is_some_and(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()));
        if numbered && entry.file_type()?.is_dir() {
            std::fs::remove_dir_all(entry.path())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_manifest_naming_another_partitioner_is_refused() {
        let dir = std::env::temp_dir().join(format!("mpq-shard-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = |body: &str| {
            std::fs::write(dir.join(MANIFEST_FILE), format!("{MANIFEST_MAGIC}\n{body}")).unwrap()
        };
        manifest("shards=3\npartitioner=hash\n");
        assert_eq!(read_manifest(&dir), Ok(3));
        for (body, complaint) in [
            (
                "shards=3\npartitioner=grid:1\n",
                "unknown partitioner 'grid:1'",
            ),
            (
                "shards=3\npartitioner=mystery\n",
                "unknown partitioner 'mystery'",
            ),
            ("shards=3\n", "malformed shard manifest"),
        ] {
            manifest(body);
            match Engine::open(&dir) {
                Err(MpqError::Io(message)) => assert!(message.contains(complaint), "{message}"),
                other => panic!("{body:?} opened as {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
