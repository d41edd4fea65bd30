//! The bulk loader's output is pinned byte for byte: every matching,
//! I/O count and `rtree.pages` the reproduction reports is a function
//! of which points share a page and in what order, so a faster loader
//! must write the very pages the reference one wrote.

use std::sync::{Arc, Mutex};

use mpq_datagen::objects::{anti_correlated, independent};
use mpq_rtree::{MemPager, PageId, PageStore, PointSet, RTree, RTreeParams};

/// A [`MemPager`] the test keeps a second handle on, to read the raw
/// page images back once the tree owns the store.
#[derive(Clone)]
struct SharedPager(Arc<Mutex<MemPager>>);

impl SharedPager {
    fn with<R>(&self, f: impl FnOnce(&mut MemPager) -> R) -> R {
        f(&mut self.0.lock().unwrap())
    }
}

impl PageStore for SharedPager {
    fn page_size(&self) -> usize {
        self.with(|p| p.page_size())
    }
    fn live_pages(&self) -> usize {
        self.with(|p| p.live_pages())
    }
    fn page_bound(&self) -> u32 {
        self.with(|p| PageStore::page_bound(p))
    }
    fn allocate(&mut self) -> PageId {
        self.with(|p| p.allocate())
    }
    fn free(&mut self, id: PageId) {
        self.with(|p| p.free(id))
    }
    fn read_into(&self, id: PageId, out: &mut [u8]) -> std::io::Result<()> {
        self.with(|p| p.read_into(id, out))
    }
    fn write(&mut self, id: PageId, data: &[u8]) -> std::io::Result<()> {
        self.with(|p| p.write(id, data));
        Ok(())
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// `(FNV-1a over the page images in page-id order, pages, root, height)`
/// of a tree bulk-loaded from `points`.
fn layout(points: &PointSet, page_size: usize) -> (u64, u32, u32, u32) {
    let pager = SharedPager(Arc::new(Mutex::new(MemPager::new(page_size))));
    let tree = RTree::bulk_load_in(
        pager.clone(),
        points,
        RTreeParams {
            page_size,
            ..RTreeParams::default()
        },
    );
    let pages = pager.page_bound();
    assert_eq!(pages as usize, tree.page_count(), "no page was freed");
    let mut hash = 0xCBF2_9CE4_8422_2325;
    pager.with(|p| {
        for id in 0..pages {
            fnv1a(&mut hash, p.read(PageId(id)));
        }
    });
    (hash, pages, tree.root_page().0, tree.height())
}

/// The constants were captured from the **parent commit's**
/// `str_bulk_load` (a stable `sort_by` at every axis, nodes installed
/// through `BufferPool::put`) by running this very test there; they are
/// not regenerated from the loader under test.
#[test]
fn bulk_layout_is_pinned() {
    assert_eq!(
        layout(&independent(40_000, 3, 2009), 4096),
        (11062025983943673587, 352, 351, 3),
        "independent, dim 3, 4 KiB pages"
    );
    assert_eq!(
        layout(&anti_correlated(20_000, 4, 4242), 4096),
        (8345363826353670602, 265, 264, 3),
        "anti-correlated, dim 4, 4 KiB pages"
    );
    assert_eq!(
        layout(&independent(6_000, 4, 11), 512),
        (13964909569446969615, 602, 601, 5),
        "independent, dim 4, 512 B pages"
    );
}
