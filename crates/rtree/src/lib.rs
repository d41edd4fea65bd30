//! # mpq-rtree — a disk-backed, paged R\*-tree
//!
//! This crate provides the storage substrate used by the ICDE 2009 paper
//! *"Efficient Evaluation of Multiple Preference Queries"*: a
//! multidimensional R-tree whose nodes live on fixed-size pages behind an
//! LRU buffer pool, so that experiments can report **I/O accesses** the way
//! the database literature does (physical page reads/writes that miss the
//! buffer).
//!
//! Features:
//!
//! * **Paged storage** behind the [`pager::PageStore`] trait — every node
//!   occupies exactly one page (default 4096 bytes, as in the paper);
//!   nodes are serialized to a compact binary layout ([`node`]). Pages
//!   live in memory ([`pager::MemPager`], the paper's simulated disk) or
//!   in a real file ([`disk::DiskPager`]: CRC-checked pages, alternating
//!   header slots, durable [`RTree::checkpoint`] and
//!   [`RTree::open`] recovery).
//! * **LRU buffer pool** ([`buffer::BufferPool`]) with logical/physical
//!   access counters ([`stats::IoStats`]).
//! * **STR bulk loading** ([`RTree::bulk_load`]) — Sort-Tile-Recursive
//!   packing for the initial dataset.
//! * **Dynamic updates** — R\*-style insertion and Guttman
//!   condense-tree deletion, applied under copy-on-write **epochs**: a
//!   writer installs the next snapshot while in-flight readers
//!   ([`tree::Snapshot`], [`session::IoSession`]) finish on the one they
//!   pinned. [`RTree::apply`] removes, inserts or moves one entry as one
//!   epoch stamped with the caller's version (an engine's inventory
//!   mutations and its WAL replay); [`RTree::insert`] and
//!   [`RTree::delete`] are its one-sided forms (Chain's request-local
//!   tree of functions uses them; no matcher removes assigned objects,
//!   which are masked per run).
//! * **Branch-and-bound ranked search** ([`topk`]) — the "BRS" top-k /
//!   top-1 algorithm of Tao et al. (Information Systems 32(3), 2007) for
//!   linear scoring functions, plus an incremental iterator.
//! * **Run-scoped I/O** ([`session::IoSession`]) — every traversal
//!   (ranked search here, BBS in `mpq_skyline`) reads through a
//!   [`NodeSource`]: the tree itself, or a session pinned to one epoch
//!   that counts its own page reads. A child's page id is read straight
//!   from its parent: one source is one tree.
//!
//! Scores follow the *larger-is-better* convention: points live in
//! `[0,1]^D` and a query is a non-negative weight vector.
//!
//! ```
//! use mpq_rtree::{RTree, RTreeParams, PointSet};
//!
//! let mut points = PointSet::new(2);
//! points.push(&[0.9, 0.1]);
//! points.push(&[0.6, 0.5]);
//! points.push(&[0.2, 0.8]);
//! let tree = RTree::bulk_load(&points, RTreeParams::default());
//! let best = tree.top1(&[0.5, 0.5]).unwrap();
//! assert_eq!(best.oid, 1); // 0.5*0.6 + 0.5*0.5 = 0.55 is the max score
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod bulk;
pub mod disk;
pub mod fault;
pub mod geometry;
pub mod node;
pub mod pager;
pub mod points;
pub mod session;
pub mod split;
pub mod stats;
pub mod topk;
pub mod tree;

/// Take a lock — [`Mutex::lock`](std::sync::Mutex::lock),
/// [`RwLock::read`](std::sync::RwLock::read) or
/// [`write`](std::sync::RwLock::write) — ignoring poison: the crate's one
/// policy. Every guarded state here (frames, counters, tree roots, epoch
/// pins, fault plans) is consistent between statements, so a thread that
/// panicked while holding a lock left nothing half-written for the next
/// holder to trip over.
pub(crate) fn lock<G>(taken: std::sync::LockResult<G>) -> G {
    taken.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use disk::DiskPager;
pub use fault::{FaultInjector, FaultKind, FaultOp, FaultPageStore, WriteFault};
pub use node::{InnerNode, LeafNode, Node};
pub use pager::{MemPager, PageId, PageStore};
pub use points::PointSet;
pub use session::{IoSession, NodeSource};
pub use stats::IoStats;
pub use topk::{RankedHit, RankedIter, SearchBuf};
pub use tree::{RTree, RTreeParams, Snapshot};
