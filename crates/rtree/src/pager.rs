//! Page-granular byte stores: the [`PageStore`] abstraction, plus the
//! in-memory [`MemPager`].
//!
//! Real deployments of the paper's system put the object R-tree on disk;
//! [`crate::disk::DiskPager`] does exactly that with a file-backed store.
//! For reproducible laptop-scale experiments the in-memory [`MemPager`]
//! simulates the disk instead. Both sit behind the same [`PageStore`]
//! trait, so the LRU buffer pool above ([`crate::buffer::BufferPool`])
//! and everything above *it* is storage-agnostic. The simulation is
//! faithful at the level that matters for the paper's metrics: every node
//! access that misses the buffer costs one *physical* page transfer,
//! counted by [`crate::stats::IoStats`] in the buffer layer.

use crate::stats::IoStats;

/// Identifier of a fixed-size page in a [`PageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel value meaning "no page".
    pub const INVALID: PageId = PageId(u32::MAX);

    /// True iff this id refers to an actual page.
    #[inline]
    pub(crate) fn is_valid(self) -> bool {
        self != PageId::INVALID
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A page-granular byte store: fixed-size pages addressed by [`PageId`],
/// with allocate/free/read/write plus an optional durability protocol.
///
/// Implementations:
///
/// * [`MemPager`] — in-memory simulated disk (no durability; checkpoints
///   are no-ops).
/// * [`crate::disk::DiskPager`] — file-backed store with a double-slot
///   CRC'd header and `fsync`-fenced checkpoints.
///
/// The buffer pool holds the store behind a `RwLock`, so reads take
/// `&self` (concurrent) and mutations take `&mut self` (exclusive).
pub trait PageStore: Send + Sync {
    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// Number of live (allocated, not freed) pages.
    fn live_pages(&self) -> usize;

    /// One past the highest page id ever allocated. Every live page id is
    /// `< page_bound()`; recovery walks `0..page_bound()` to classify
    /// pages as reachable or free.
    fn page_bound(&self) -> u32;

    /// Allocate a page and return its id. A fresh page reads zero until
    /// the first [`PageStore::write`]; whether a recycled one does is the
    /// store's business ([`MemPager`] zeroes it, a file keeps what the
    /// page last held).
    fn allocate(&mut self) -> PageId;

    /// Append a *run*: `run` holds `run.len() / page_size` page images
    /// back to back, and they become fresh pages with the consecutive
    /// ids `page_bound()..` in that order. This is the bulk loader's
    /// path, and a store that can take the bytes in one piece overrides
    /// it ([`MemPager`] adopts the allocation as it is,
    /// [`crate::disk::DiskPager`] writes it once). The default is an
    /// [`PageStore::allocate`] and a [`PageStore::write`] per page, so a
    /// wrapper that counts or fails writes sees every one of them.
    ///
    /// Every page of the run ends up written or is handed, id and bytes,
    /// to `failed` — never dropped: the caller keeps a failed page
    /// until a retry succeeds, as it does after a failed
    /// [`PageStore::write`].
    ///
    /// # Panics
    /// Panics if `run` is not whole pages, if the id space is exhausted,
    /// or if the store would recycle a freed id instead of appending (a
    /// run goes into a fresh store).
    fn append_run(&mut self, run: Vec<u8>, failed: &mut dyn FnMut(PageId, &[u8])) {
        append_run_paged(self, &run, failed)
    }

    /// Return a page to the free list. A durable store may defer reuse of
    /// the id until the next checkpoint (the last checkpoint may still
    /// reference the page).
    ///
    /// # Panics
    /// May panic if the page is not currently allocated (double free).
    fn free(&mut self, id: PageId);

    /// Read a page's bytes into `out` (whose length must be at least the
    /// page size; exactly `page_size` bytes are written). Device failures
    /// surface as `Err`, never as panics.
    ///
    /// # Panics
    /// Panics on *logic* errors only: the page is not allocated or `out`
    /// is too short.
    fn read_into(&self, id: PageId, out: &mut [u8]) -> std::io::Result<()>;

    /// Overwrite a page's bytes. `data` may be shorter than the page; the
    /// remainder is zero-filled. Device failures surface as `Err`, never
    /// as panics; after an error the page's on-device contents are
    /// unspecified (a torn write may have landed a prefix).
    ///
    /// # Panics
    /// Panics on *logic* errors only: the page is not allocated or `data`
    /// exceeds the page size.
    fn write(&mut self, id: PageId, data: &[u8]) -> std::io::Result<()>;

    /// Make all previously written pages durable and atomically install
    /// `meta` as the store's recovery metadata. After a successful
    /// checkpoint, reopening the store yields exactly the checkpointed
    /// pages and `meta`. In-memory stores treat this as a no-op.
    fn checkpoint(&mut self, meta: &[u8]) -> std::io::Result<()> {
        let _ = meta;
        Ok(())
    }

    /// The recovery metadata installed by the most recent successful
    /// [`PageStore::checkpoint`], or `None` if the store has never been
    /// checkpointed (or does not persist anything).
    fn meta(&self) -> Option<Vec<u8>> {
        None
    }

    /// Counters of actual device traffic (`disk_reads` / `disk_writes` /
    /// `fsyncs`); all-zero for in-memory stores.
    fn disk_stats(&self) -> IoStats {
        IoStats::default()
    }

    /// Zero the device-traffic counters (no-op for in-memory stores).
    fn reset_disk_stats(&self) {}

    /// Seed the free list after recovery: `free` lists page ids that
    /// exist in the store but are unreachable from the recovered root
    /// (the caller computes reachability by walking the tree). In-memory
    /// stores never recover, so the default is a no-op.
    fn seed_free(&mut self, free: &[u32]) {
        let _ = free;
    }
}

/// [`PageStore::append_run`] one page at a time: allocate and write
/// each page of `run`.
pub(crate) fn append_run_paged<S: PageStore + ?Sized>(
    store: &mut S,
    run: &[u8],
    failed: &mut dyn FnMut(PageId, &[u8]),
) {
    let size = store.page_size();
    assert_eq!(run.len() % size, 0, "a run is whole pages");
    let first = store.page_bound() as usize;
    for (i, page) in run.chunks_exact(size).enumerate() {
        let id = store.allocate();
        assert_eq!(
            id.0 as usize,
            first + i,
            "a run needs a store with no freed page to recycle"
        );
        if store.write(id, page).is_err() {
            failed(id, page);
        }
    }
}

impl<S: PageStore + ?Sized> PageStore for Box<S> {
    fn page_size(&self) -> usize {
        (**self).page_size()
    }

    fn live_pages(&self) -> usize {
        (**self).live_pages()
    }

    fn page_bound(&self) -> u32 {
        (**self).page_bound()
    }

    fn allocate(&mut self) -> PageId {
        (**self).allocate()
    }

    fn append_run(&mut self, run: Vec<u8>, failed: &mut dyn FnMut(PageId, &[u8])) {
        (**self).append_run(run, failed)
    }

    fn free(&mut self, id: PageId) {
        (**self).free(id)
    }

    fn read_into(&self, id: PageId, out: &mut [u8]) -> std::io::Result<()> {
        (**self).read_into(id, out)
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> std::io::Result<()> {
        (**self).write(id, data)
    }

    fn checkpoint(&mut self, meta: &[u8]) -> std::io::Result<()> {
        (**self).checkpoint(meta)
    }

    fn meta(&self) -> Option<Vec<u8>> {
        (**self).meta()
    }

    fn disk_stats(&self) -> IoStats {
        (**self).disk_stats()
    }

    fn reset_disk_stats(&self) {
        (**self).reset_disk_stats()
    }

    fn seed_free(&mut self, free: &[u32]) {
        (**self).seed_free(free)
    }
}

/// Pages a [`MemPager`] adds at a time once pages are allocated singly
/// (copy-on-write inserts after a bulk load). The size is not critical:
/// 20 000 inserts into a 40 000-object, 4-d tree (409 -> 837 pages) took
/// 89 / 89 / 92 / 80 µs each and ended at 11.0 / 10.9 / 10.9 / 10.8 MB
/// resident with 1 / 16 / 64 / 256 pages an extent (78 µs and 10.9 MB
/// with a box a page, before extents). 64 keeps such a tree to a dozen
/// extents — a page is found by binary search over them — and idles at
/// most 63 pages.
const EXTENT_PAGES: usize = 64;

/// Consecutive pages in one allocation.
#[derive(Debug)]
struct Extent {
    /// Id of the extent's first page.
    first: u32,
    /// The pages in use, back to back. Grows inside the capacity it was
    /// created with and never past it, so a page never moves.
    bytes: Vec<u8>,
}

/// An in-memory page store with a free list.
///
/// Pages are `page_size` bytes, held in extents: a bulk load's run is
/// adopted as the one allocation its loader made, pages allocated one at
/// a time come 64 to an allocation. Freed pages are recycled before new
/// ones are allocated, like a real database file.
#[derive(Debug)]
pub struct MemPager {
    page_size: usize,
    /// In id order; together they hold every id below the page bound.
    extents: Vec<Extent>,
    /// By page id: allocated and not freed.
    live: Vec<bool>,
    free: Vec<u32>,
}

impl MemPager {
    /// Create a pager with the given page size (bytes).
    ///
    /// # Panics
    /// Panics if `page_size < 64` (too small to hold any node header plus
    /// one entry at any supported dimensionality).
    pub fn new(page_size: usize) -> MemPager {
        assert!(page_size >= 64, "page size {page_size} is too small");
        MemPager {
            page_size,
            extents: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of live (allocated, not freed) pages.
    pub fn live_pages(&self) -> usize {
        self.live.len() - self.free.len()
    }

    /// Where page `id`, below the page bound, lives: its extent and its
    /// byte offset there.
    fn locate(&self, id: u32) -> (usize, usize) {
        let extent = self.extents.partition_point(|e| e.first <= id) - 1;
        let at = (id - self.extents[extent].first) as usize * self.page_size;
        (extent, at)
    }

    /// Allocate a page and return its id. It reads zero until the first
    /// [`MemPager::write`], recycled or not.
    pub fn allocate(&mut self) -> PageId {
        if let Some(id) = self.free.pop() {
            let (extent, at) = self.locate(id);
            self.extents[extent].bytes[at..at + self.page_size].fill(0);
            self.live[id as usize] = true;
            return PageId(id);
        }
        let id = self.live.len() as u32;
        assert!(id != u32::MAX, "pager exhausted the PageId space");
        let size = self.page_size;
        let room = |e: &Extent| e.bytes.len() + size <= e.bytes.capacity();
        if !self.extents.last().is_some_and(room) {
            self.extents.push(Extent {
                first: id,
                bytes: Vec::with_capacity(EXTENT_PAGES * size),
            });
        }
        let bytes = &mut self.extents.last_mut().expect("just ensured").bytes;
        bytes.resize(bytes.len() + size, 0);
        self.live.push(true);
        PageId(id)
    }

    /// Return a page to the free list.
    ///
    /// # Panics
    /// Panics if the page is not currently allocated (double free).
    pub fn free(&mut self, id: PageId) {
        let slot = self
            .live
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("free of out-of-range page {id}"));
        assert!(*slot, "double free of page {id}");
        *slot = false;
        self.free.push(id.0);
    }

    /// Read a page's bytes.
    ///
    /// # Panics
    /// Panics if the page is not allocated.
    pub fn read(&self, id: PageId) -> &[u8] {
        assert!(
            self.live.get(id.0 as usize) == Some(&true),
            "read of unallocated page {id}"
        );
        let (extent, at) = self.locate(id.0);
        &self.extents[extent].bytes[at..at + self.page_size]
    }

    /// Overwrite a page's bytes. `data` may be shorter than the page; the
    /// remainder is zero-filled.
    ///
    /// # Panics
    /// Panics if the page is not allocated or `data` exceeds the page size.
    pub fn write(&mut self, id: PageId, data: &[u8]) {
        assert!(
            data.len() <= self.page_size,
            "write of {} bytes exceeds page size {}",
            data.len(),
            self.page_size
        );
        assert!(
            self.live.get(id.0 as usize) == Some(&true),
            "write to unallocated page {id}"
        );
        let (extent, at) = self.locate(id.0);
        let page = &mut self.extents[extent].bytes[at..at + self.page_size];
        page[..data.len()].copy_from_slice(data);
        page[data.len()..].fill(0);
    }
}

impl PageStore for MemPager {
    fn page_size(&self) -> usize {
        MemPager::page_size(self)
    }

    fn live_pages(&self) -> usize {
        MemPager::live_pages(self)
    }

    fn page_bound(&self) -> u32 {
        self.live.len() as u32
    }

    fn allocate(&mut self) -> PageId {
        MemPager::allocate(self)
    }

    /// The run becomes an extent as it is: no page is copied.
    fn append_run(&mut self, run: Vec<u8>, _failed: &mut dyn FnMut(PageId, &[u8])) {
        assert_eq!(run.len() % self.page_size, 0, "a run is whole pages");
        let first = self.live.len();
        let pages = run.len() / self.page_size;
        assert!(
            pages < u32::MAX as usize - first,
            "pager exhausted the PageId space"
        );
        self.extents.push(Extent {
            first: first as u32,
            bytes: run,
        });
        self.live.resize(first + pages, true);
    }

    fn free(&mut self, id: PageId) {
        MemPager::free(self, id)
    }

    fn read_into(&self, id: PageId, out: &mut [u8]) -> std::io::Result<()> {
        let page = MemPager::read(self, id);
        out[..page.len()].copy_from_slice(page);
        Ok(())
    }

    fn write(&mut self, id: PageId, data: &[u8]) -> std::io::Result<()> {
        MemPager::write(self, id, data);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn allocate_write_read_round_trip() {
        let mut p = MemPager::new(128);
        let a = p.allocate();
        let b = p.allocate();
        assert_ne!(a, b);
        p.write(a, &[1, 2, 3]);
        p.write(b, &[9; 128]);
        assert_eq!(&p.read(a)[..3], &[1, 2, 3]);
        assert_eq!(p.read(a)[3], 0, "tail must be zero-filled");
        assert_eq!(p.read(b)[127], 9);
    }

    #[test]
    fn free_list_recycles_pages() {
        let mut p = MemPager::new(128);
        let a = p.allocate();
        let _b = p.allocate();
        p.free(a);
        assert_eq!(p.live_pages(), 1);
        let c = p.allocate();
        assert_eq!(c, a, "freed page id should be recycled");
        assert_eq!(p.live_pages(), 2);
    }

    #[test]
    fn recycled_page_is_zeroed() {
        let mut p = MemPager::new(64);
        let a = p.allocate();
        p.write(a, &[7; 64]);
        p.free(a);
        let b = p.allocate();
        assert_eq!(b, a);
        assert!(p.read(b).iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut p = MemPager::new(64);
        let a = p.allocate();
        p.free(a);
        p.free(a);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn read_after_free_panics() {
        let mut p = MemPager::new(64);
        let a = p.allocate();
        p.free(a);
        let _ = p.read(a);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_write_panics() {
        let mut p = MemPager::new(64);
        let a = p.allocate();
        p.write(a, &[0u8; 65]);
    }

    /// `n` page images of `size` bytes, page `j` filled with byte `j + 1`.
    pub(crate) fn numbered(n: usize, size: usize) -> Vec<u8> {
        (0..n).flat_map(|j| vec![j as u8 + 1; size]).collect()
    }

    /// Append [`numbered`] pages as a run; returns the run's first id.
    fn append_numbered(p: &mut impl PageStore, n: usize) -> PageId {
        let first = PageId(p.page_bound());
        p.append_run(numbered(n, p.page_size()), &mut |id, _| {
            panic!("page {id} failed")
        });
        first
    }

    #[test]
    fn a_run_is_adopted_where_its_loader_wrote_it() {
        let mut p = MemPager::new(64);
        let run = numbered(4, 64);
        let at = run.as_ptr();
        p.append_run(run, &mut |_, _| {});
        assert_eq!(p.read(PageId(0)).as_ptr(), at);
    }

    #[test]
    fn a_run_is_n_live_pages_past_the_bound() {
        let mut p = MemPager::new(64);
        let a = p.allocate();
        p.write(a, &[9; 64]);
        let first = append_numbered(&mut p, 5);
        assert_eq!(first, PageId(1));
        assert_eq!(p.live_pages(), 6);
        assert_eq!(PageStore::page_bound(&p), 6);
        for j in 0..5 {
            assert!(p.read(PageId(1 + j)).iter().all(|&b| b == j as u8 + 1));
        }
        assert!(p.read(a).iter().all(|&b| b == 9));
        // The next page is past the run, and reads zero.
        assert_eq!(p.allocate(), PageId(6));
        assert!(p.read(PageId(6)).iter().all(|&b| b == 0));
    }

    #[test]
    fn a_page_inside_a_run_is_freed_and_recycled_in_place() {
        let mut p = MemPager::new(64);
        append_numbered(&mut p, 8);
        let at = p.read(PageId(3)).as_ptr();
        p.free(PageId(3));
        assert_eq!(p.live_pages(), 7);
        assert_eq!(p.allocate(), PageId(3));
        assert!(p.read(PageId(3)).iter().all(|&b| b == 0));
        assert_eq!(p.read(PageId(3)).as_ptr(), at);
        assert!(p.read(PageId(2)).iter().all(|&b| b == 3));
        assert!(p.read(PageId(4)).iter().all(|&b| b == 5));
        assert_eq!(PageStore::page_bound(&p), 8);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn read_of_a_freed_page_inside_a_run_panics() {
        let mut p = MemPager::new(64);
        append_numbered(&mut p, 4);
        p.free(PageId(2));
        let _ = p.read(PageId(2));
    }

    /// Copy-on-write inserts after a bulk load allocate page after page:
    /// no page, of the run or allocated since, ever moves.
    #[test]
    fn growth_past_a_run_never_moves_a_page() {
        let mut p = MemPager::new(64);
        append_numbered(&mut p, 10);
        let mut at: Vec<*const u8> = (0..10).map(|id| p.read(PageId(id)).as_ptr()).collect();
        for id in 10..10 + 3 * EXTENT_PAGES as u32 {
            assert_eq!(p.allocate(), PageId(id));
            p.write(PageId(id), &[id as u8; 64]);
            at.push(p.read(PageId(id)).as_ptr());
            if id % 7 == 0 {
                for (seen, &was) in at.iter().enumerate() {
                    assert_eq!(p.read(PageId(seen as u32)).as_ptr(), was, "page {seen}");
                }
            }
        }
        assert!(p.read(PageId(9)).iter().all(|&b| b == 10));
        assert!(p.read(PageId(100)).iter().all(|&b| b == 100));
        assert_eq!(p.extents.len(), 4, "one run, then whole extents");
    }

    /// A store that does not know runs (here the fault-injecting
    /// wrapper, which must see every write) takes one page by page.
    #[test]
    fn the_default_run_allocates_and_writes_page_by_page() {
        use crate::fault::{FaultInjector, FaultKind, FaultOp, FaultPageStore};
        let inj = FaultInjector::shared();
        inj.fail_nth(FaultOp::PageWrite, 2, FaultKind::Torn);
        let mut p = FaultPageStore::new(MemPager::new(64), std::sync::Arc::clone(&inj));
        let mut failed = Vec::new();
        p.append_run(numbered(5, 64), &mut |id, page| {
            failed.push((id, page.to_vec()))
        });
        assert_eq!(inj.count(FaultOp::PageWrite), 5, "the failed one included");
        assert_eq!(p.live_pages(), 5);
        assert_eq!(failed, vec![(PageId(2), vec![3u8; 64])]);
        let inner = p.into_inner();
        assert!(inner.read(PageId(4)).iter().all(|&b| b == 5));
    }

    #[test]
    #[should_panic(expected = "no freed page to recycle")]
    fn the_default_run_refuses_a_store_that_would_recycle() {
        let mut p = MemPager::new(64);
        let a = p.allocate();
        p.allocate();
        p.free(a);
        append_run_paged(&mut p, &[0; 128], &mut |_, _| {});
    }

    #[test]
    fn invalid_page_id_sentinel() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
    }
}
