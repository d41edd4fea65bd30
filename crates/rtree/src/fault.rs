//! Deterministic fault injection for the storage stack.
//!
//! Production storage fails in ways unit tests rarely exercise: a full
//! disk mid-commit, a torn page write under power loss, a single flipped
//! bit, an `fsync` that returns `EIO`. This module makes those failures a
//! scriptable *input*: a [`FaultInjector`] carries a schedule of faults
//! keyed by operation class and ordinal ("fail the 3rd WAL fsync",
//! "tear the 7th page write"), and every durability path in the stack
//! consults it — [`crate::disk::DiskPager`] natively, any other
//! [`PageStore`] through the [`FaultPageStore`] wrapper, and the WAL in
//! `mpq_core` through the same shared handle.
//!
//! The injector costs nothing when absent (every seam holds an
//! `Option<Arc<FaultInjector>>` and skips the check when `None`) and one
//! uncontended mutex lock per operation when attached.
//!
//! # Crash-point sweeps
//!
//! [`FaultInjector::crash_at`] drives the chaos harness's crash-point
//! sweep: durability operations (page writes, page syncs, WAL writes,
//! WAL syncs) are numbered globally in execution order; operation `n`
//! fails — torn if it is a write — and **every later durability
//! operation fails too**, simulating a device that died mid-workload.
//! Reads and rollback truncations are exempt so recovery-relevant
//! bookkeeping still works, which mirrors a crash: the process dies, the
//! *file* keeps whatever was durably written.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::lock;
use crate::pager::{PageId, PageStore};
use crate::stats::IoStats;

/// Classes of injectable storage operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// A page read from the backing store.
    PageRead,
    /// A page-granular write (tree pages and pager header slots).
    PageWrite,
    /// A pager `fsync` (checkpoint data fence or header commit fence).
    PageSync,
    /// A WAL record append (buffered write).
    WalWrite,
    /// A WAL `fsync` (including the one inside truncation).
    WalSync,
    /// The WAL's rollback truncation after a failed append — failing
    /// this is the "error during error handling" case that wedges the
    /// log. Never part of [`FaultInjector::crash_at`] sweeps.
    WalRollback,
}

/// Number of [`FaultOp`] classes (array-index bound).
const N_OPS: usize = 6;

impl FaultOp {
    #[inline]
    fn index(self) -> usize {
        match self {
            FaultOp::PageRead => 0,
            FaultOp::PageWrite => 1,
            FaultOp::PageSync => 2,
            FaultOp::WalWrite => 3,
            FaultOp::WalSync => 4,
            FaultOp::WalRollback => 5,
        }
    }

    /// `true` iff this class counts toward the global durability-op
    /// ordinal swept by [`FaultInjector::crash_at`].
    #[inline]
    pub(crate) fn is_durability(self) -> bool {
        matches!(
            self,
            FaultOp::PageWrite | FaultOp::PageSync | FaultOp::WalWrite | FaultOp::WalSync
        )
    }
}

impl std::fmt::Display for FaultOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultOp::PageRead => "page-read",
            FaultOp::PageWrite => "page-write",
            FaultOp::PageSync => "page-sync",
            FaultOp::WalWrite => "wal-write",
            FaultOp::WalSync => "wal-sync",
            FaultOp::WalRollback => "wal-rollback",
        };
        f.write_str(name)
    }
}

/// What happens when a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an injected I/O error (`EIO`-style).
    Error,
    /// The operation fails with `StorageFull` (ENOSPC).
    Enospc,
    /// A write persists only a prefix of its bytes, then errors — the
    /// classic torn write. Non-write operations just fail.
    Torn,
    /// A write persists with one corrupted byte and *reports success* —
    /// silent corruption, for exercising CRC detection downstream. Reads
    /// corrupt the returned bytes. Non-transfer operations succeed.
    BitFlip,
    /// The operation succeeds after sleeping — a latency spike.
    Delay(Duration),
    /// The operation panics, for exercising unwind containment and lock
    /// poison recovery above the storage layer.
    Panic,
}

/// Outcome of consulting the injector before a write-class operation.
#[derive(Debug)]
pub enum WriteFault {
    /// Perform the write normally.
    Clean,
    /// Write roughly half the payload, then fail with this error.
    Torn(io::Error),
    /// Flip one byte of the payload, then report success.
    BitFlip,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy)]
struct Plan {
    op: FaultOp,
    nth: u64,
    kind: FaultKind,
    /// Persistent plans fire on every operation `>= nth`; one-shot plans
    /// fire exactly on operation `nth`.
    persistent: bool,
    fired: bool,
}

#[derive(Debug, Default)]
struct Inner {
    counts: [u64; N_OPS],
    /// Global ordinal over durability ops: page and WAL writes and
    /// syncs (see [`FaultOp::is_durability`]).
    durability_ops: u64,
    injected: u64,
    schedule: Vec<Plan>,
    crash_at: Option<u64>,
}

/// A seeded, scriptable source of storage faults shared by every layer
/// of one engine's storage stack. See the [module docs](self).
#[derive(Debug, Default)]
pub struct FaultInjector {
    inner: Mutex<Inner>,
}

impl FaultInjector {
    /// A fresh injector with an empty schedule (all operations succeed).
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    /// Convenience: a fresh injector already wrapped for sharing.
    pub fn shared() -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new())
    }

    /// Schedule `kind` to fire exactly once, on the `nth` (0-based)
    /// operation of class `op` counted from now.
    pub fn fail_nth(&self, op: FaultOp, nth: u64, kind: FaultKind) {
        self.push_plan(op, nth, kind, false);
    }

    /// Schedule `kind` to fire on **every** operation of class `op` from
    /// the `nth` (0-based) onward — a persistent outage until
    /// [`FaultInjector::clear`].
    pub fn fail_from(&self, op: FaultOp, nth: u64, kind: FaultKind) {
        self.push_plan(op, nth, kind, true);
    }

    fn push_plan(&self, op: FaultOp, nth: u64, kind: FaultKind, persistent: bool) {
        let mut g = lock(self.inner.lock());
        let nth = g.counts[op.index()] + nth;
        g.schedule.push(Plan {
            op,
            nth,
            kind,
            persistent,
            fired: false,
        });
    }

    /// Arm a crash-point sweep: durability operation `n` (0-based global
    /// ordinal, counted from injector creation or the last
    /// [`FaultInjector::reset`]) fails — torn if it is a write — and all
    /// later durability operations fail too.
    pub fn crash_at(&self, n: u64) {
        lock(self.inner.lock()).crash_at = Some(n);
    }

    /// Drop every scheduled fault and disarm [`FaultInjector::crash_at`].
    /// Counters keep running, so observation continues.
    pub fn clear(&self) {
        let mut g = lock(self.inner.lock());
        g.schedule.clear();
        g.crash_at = None;
    }

    /// [`FaultInjector::clear`], plus zero every counter — a fresh
    /// numbering for the next scripted scenario.
    pub fn reset(&self) {
        *lock(self.inner.lock()) = Inner::default();
    }

    /// Operations of class `op` observed so far.
    pub fn count(&self, op: FaultOp) -> u64 {
        lock(self.inner.lock()).counts[op.index()]
    }

    /// Durability operations observed so far (the ordinal space of
    /// [`FaultInjector::crash_at`]).
    pub fn durability_ops(&self) -> u64 {
        lock(self.inner.lock()).durability_ops
    }

    /// Faults injected so far (every fired schedule entry or crash-mode
    /// failure, including delays).
    pub fn injected(&self) -> u64 {
        lock(self.inner.lock()).injected
    }

    /// Decide the fate of one operation; returns the fired kind.
    fn decide(&self, op: FaultOp) -> Option<FaultKind> {
        let fired = {
            let mut g = lock(self.inner.lock());
            let n = g.counts[op.index()];
            g.counts[op.index()] += 1;
            let mut fired = None;
            if op.is_durability() {
                let ordinal = g.durability_ops;
                g.durability_ops += 1;
                if let Some(at) = g.crash_at {
                    if ordinal >= at {
                        fired = Some(if ordinal == at {
                            FaultKind::Torn
                        } else {
                            FaultKind::Error
                        });
                    }
                }
            }
            if fired.is_none() {
                for plan in g.schedule.iter_mut() {
                    if plan.op != op {
                        continue;
                    }
                    let hit = if plan.persistent {
                        n >= plan.nth
                    } else {
                        !plan.fired && n == plan.nth
                    };
                    if hit {
                        plan.fired = true;
                        fired = Some(plan.kind);
                        break;
                    }
                }
            }
            if fired.is_some() {
                g.injected += 1;
            }
            fired
        };
        match fired {
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                None
            }
            Some(FaultKind::Panic) => panic!("injected fault: panic on {op}"),
            other => other,
        }
    }

    fn error(op: FaultOp, kind: FaultKind) -> io::Error {
        match kind {
            FaultKind::Enospc => io::Error::new(
                io::ErrorKind::StorageFull,
                format!("injected fault: no space left on device ({op})"),
            ),
            _ => io::Error::other(format!("injected fault: I/O error on {op}")),
        }
    }

    /// Consult the injector before a write-class operation. The caller
    /// must honor the returned [`WriteFault`].
    pub fn on_write(&self, op: FaultOp) -> io::Result<WriteFault> {
        match self.decide(op) {
            None => Ok(WriteFault::Clean),
            Some(FaultKind::Torn) => {
                Ok(WriteFault::Torn(FaultInjector::error(op, FaultKind::Torn)))
            }
            Some(FaultKind::BitFlip) => Ok(WriteFault::BitFlip),
            Some(kind) => Err(FaultInjector::error(op, kind)),
        }
    }

    /// Consult the injector before a read-class operation; same contract
    /// as [`FaultInjector::on_write`] ([`WriteFault::Torn`] means "fail",
    /// [`WriteFault::BitFlip`] means "corrupt the bytes you read").
    pub(crate) fn on_read(&self, op: FaultOp) -> io::Result<WriteFault> {
        self.on_write(op)
    }

    /// Consult the injector before a sync/fence-class operation, which
    /// either succeeds or fails (torn collapses to failure, bit flips to
    /// success).
    pub fn on_sync(&self, op: FaultOp) -> io::Result<()> {
        match self.decide(op) {
            None | Some(FaultKind::BitFlip) => Ok(()),
            Some(FaultKind::Torn) => Err(FaultInjector::error(op, FaultKind::Torn)),
            Some(kind) => Err(FaultInjector::error(op, kind)),
        }
    }
}

/// Flip one bit near the middle of `bytes` (no-op on an empty slice).
pub fn flip_one_bit(bytes: &mut [u8]) {
    if let Some(mid) = bytes.len().checked_sub(1) {
        bytes[mid / 2] ^= 0x10;
    }
}

/// A [`PageStore`] wrapper routing every operation through a
/// [`FaultInjector`]: reads consult [`FaultOp::PageRead`], writes
/// [`FaultOp::PageWrite`] (with torn-prefix and bit-flip support) and
/// checkpoints [`FaultOp::PageSync`].
///
/// Use this to inject faults into an in-memory [`crate::MemPager`] (or
/// any other store); [`crate::DiskPager`] consults an attached injector
/// natively at finer grain (each of its two checkpoint fences is a
/// separate [`FaultOp::PageSync`], the header-slot write a
/// [`FaultOp::PageWrite`]), so wrapping it would double-count.
#[derive(Debug)]
pub struct FaultPageStore<S> {
    inner: S,
    injector: Arc<FaultInjector>,
}

impl<S: PageStore> FaultPageStore<S> {
    /// Wrap `inner`, consulting `injector` on every operation.
    pub fn new(inner: S, injector: Arc<FaultInjector>) -> FaultPageStore<S> {
        FaultPageStore { inner, injector }
    }

    /// The wrapped store.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PageStore> PageStore for FaultPageStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn page_bound(&self) -> u32 {
        self.inner.page_bound()
    }

    fn allocate(&mut self) -> PageId {
        self.inner.allocate()
    }

    fn free(&mut self, id: PageId) {
        self.inner.free(id)
    }

    fn read_into(&self, id: PageId, out: &mut [u8]) -> io::Result<()> {
        match self.injector.on_read(FaultOp::PageRead)? {
            WriteFault::Clean => self.inner.read_into(id, out),
            WriteFault::Torn(e) => Err(e),
            WriteFault::BitFlip => {
                self.inner.read_into(id, out)?;
                let n = self.inner.page_size();
                flip_one_bit(&mut out[..n]);
                Ok(())
            }
        }
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        match self.injector.on_write(FaultOp::PageWrite)? {
            WriteFault::Clean => self.inner.write(id, data),
            WriteFault::Torn(e) => {
                self.inner.write(id, &data[..data.len() / 2])?;
                Err(e)
            }
            WriteFault::BitFlip => {
                let mut corrupt = data.to_vec();
                flip_one_bit(&mut corrupt);
                self.inner.write(id, &corrupt)
            }
        }
    }

    fn checkpoint(&mut self, meta: &[u8]) -> io::Result<()> {
        self.injector.on_sync(FaultOp::PageSync)?;
        self.inner.checkpoint(meta)
    }

    fn meta(&self) -> Option<Vec<u8>> {
        self.inner.meta()
    }

    fn disk_stats(&self) -> IoStats {
        self.inner.disk_stats()
    }

    fn reset_disk_stats(&self) {
        self.inner.reset_disk_stats()
    }

    fn seed_free(&mut self, free: &[u32]) {
        self.inner.seed_free(free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    #[test]
    fn nth_write_fails_once_then_recovers() {
        let inj = FaultInjector::shared();
        inj.fail_nth(FaultOp::PageWrite, 1, FaultKind::Error);
        let mut store = FaultPageStore::new(MemPager::new(64), Arc::clone(&inj));
        let a = store.allocate();
        store.write(a, &[1]).unwrap(); // write 0: clean
        let err = store.write(a, &[2]).unwrap_err(); // write 1: injected
        assert!(err.to_string().contains("injected"), "{err}");
        store.write(a, &[3]).unwrap(); // one-shot: gone
        assert_eq!(inj.injected(), 1);
        assert_eq!(inj.count(FaultOp::PageWrite), 3);
    }

    #[test]
    fn fail_from_is_persistent_until_cleared() {
        let inj = FaultInjector::shared();
        inj.fail_from(FaultOp::PageWrite, 0, FaultKind::Enospc);
        let mut store = FaultPageStore::new(MemPager::new(64), Arc::clone(&inj));
        let a = store.allocate();
        for _ in 0..3 {
            let err = store.write(a, &[1]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        }
        inj.clear();
        store.write(a, &[1]).unwrap();
    }

    #[test]
    fn torn_write_persists_a_prefix() {
        let inj = FaultInjector::shared();
        inj.fail_nth(FaultOp::PageWrite, 0, FaultKind::Torn);
        let mut store = FaultPageStore::new(MemPager::new(64), Arc::clone(&inj));
        let a = store.allocate();
        assert!(store.write(a, &[7; 8]).is_err());
        let mut buf = [0u8; 64];
        store.read_into(a, &mut buf).unwrap();
        assert_eq!(&buf[..4], &[7; 4], "prefix must be persisted");
        assert_eq!(&buf[4..8], &[0; 4], "suffix must be missing");
    }

    #[test]
    fn bit_flip_reports_success_with_corrupt_bytes() {
        let inj = FaultInjector::shared();
        inj.fail_nth(FaultOp::PageWrite, 0, FaultKind::BitFlip);
        let mut store = FaultPageStore::new(MemPager::new(64), Arc::clone(&inj));
        let a = store.allocate();
        store.write(a, &[0u8; 8]).unwrap();
        let mut buf = [0u8; 64];
        store.read_into(a, &mut buf).unwrap();
        assert!(buf.iter().any(|&b| b != 0), "one byte must be corrupted");
    }

    #[test]
    fn crash_at_fails_every_later_durability_op() {
        let inj = FaultInjector::shared();
        inj.crash_at(1);
        let mut store = FaultPageStore::new(MemPager::new(64), Arc::clone(&inj));
        let a = store.allocate();
        store.write(a, &[1]).unwrap(); // durability op 0
        assert!(store.write(a, &[2]).is_err()); // op 1: the crash point
        assert!(store.write(a, &[3]).is_err()); // op 2: device stays dead
        assert!(store.checkpoint(&[]).is_err()); // op 3 (a sync class)
        let mut buf = [0u8; 64];
        store.read_into(a, &mut buf).unwrap(); // reads are exempt
        assert_eq!(inj.durability_ops(), 4);
    }

    #[test]
    #[should_panic(expected = "injected fault: panic")]
    fn panic_kind_panics() {
        let inj = FaultInjector::shared();
        inj.fail_nth(FaultOp::PageRead, 0, FaultKind::Panic);
        let store = FaultPageStore::new(MemPager::new(64), Arc::clone(&inj));
        let mut buf = [0u8; 64];
        let _ = store.read_into(PageId(0), &mut buf);
    }

    #[test]
    fn delay_kind_succeeds_after_sleeping() {
        let inj = FaultInjector::shared();
        inj.fail_nth(
            FaultOp::PageWrite,
            0,
            FaultKind::Delay(Duration::from_millis(5)),
        );
        let mut store = FaultPageStore::new(MemPager::new(64), Arc::clone(&inj));
        let a = store.allocate();
        let t = std::time::Instant::now();
        store.write(a, &[1]).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(5));
        assert_eq!(inj.injected(), 1, "a delay still counts as injected");
    }

    #[test]
    fn fail_nth_is_relative_to_the_current_count() {
        let inj = FaultInjector::shared();
        let mut store = FaultPageStore::new(MemPager::new(64), Arc::clone(&inj));
        let a = store.allocate();
        store.write(a, &[1]).unwrap();
        store.write(a, &[2]).unwrap();
        // "next write" after two clean ones:
        inj.fail_nth(FaultOp::PageWrite, 0, FaultKind::Error);
        assert!(store.write(a, &[3]).is_err());
    }
}
