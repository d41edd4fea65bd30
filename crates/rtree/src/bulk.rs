//! Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al., ICDE 1997).
//!
//! STR packs a static dataset into an R-tree with ~100% leaf utilization
//! and good spatial clustering: the points are recursively sorted and
//! sliced into vertical "slabs" one axis at a time, and the resulting
//! tiles become leaves. Upper levels are built by applying the same
//! packing to the child MBR centers. This is how the experiment datasets
//! (up to 400 K objects) are indexed before a run — and what every
//! engine build, shard build and tenant registration pays before it can
//! serve, so it runs at sort-and-memcpy speed.
//!
//! # Selection off the last axis
//!
//! Items are ordered by `(coordinate under f64::total_cmp, item index)`,
//! a strict total order, so the sorted sequence — and with it the set of
//! items in each slab — is unique. A non-final axis only needs that
//! *membership*: which `slab`-sized run an item falls in, not where
//! inside it, because the run is re-ordered along the next axis anyway.
//! The tiler therefore places the slab boundaries with
//! `select_nth_unstable` (`O(n log slabs)` by bisection) and fully sorts
//! only where order is emitted: along the last axis, and in a run that
//! already fits one node. Both work on packed keys — the
//! order-preserving bits of the coordinate above the 32-bit index in
//! one `u128` — gathered once per axis, so no comparison chases a
//! pointer. Any correct selection and any correct sort produce the one
//! permutation a full stable sort at every axis would, and node
//! boundaries depend on sizes alone: the tree is the same, page for
//! page, whatever the thread count.
//!
//! # Threads
//!
//! After each bisecting selection the two halves are disjoint slices of
//! the key buffer, so one is handed to a scoped thread while the caller
//! keeps the other, splitting a fixed budget (by default
//! [`thread_budget`], the core count) between them; inputs under
//! `PAR_MIN_LEN` items stay on the calling thread. Page allocation and
//! node emission are sequential and in tile order, after the scope has
//! joined: a worker's panic resurfaces there as the load's own, never
//! as a tree built from a half-ordered level.

use crate::buffer::BufferPool;
use crate::geometry::Mbr;
use crate::node::{InnerNode, LeafNode, Node};
use crate::pager::PageId;
use crate::points::PointSet;

/// Output of a bulk load: root page, tree height (levels; 1 = root leaf),
/// and the number of indexed points.
pub(crate) struct BulkResult {
    pub root: PageId,
    pub height: u32,
    pub len: u64,
}

/// Most points one bulk load can take: the tiler packs item indices into
/// 32 bits.
pub const MAX_BULK_LEN: usize = u32::MAX as usize;

/// Below this many items a slice is tiled on the calling thread. Chosen
/// by measurement (dim 4, two cores): spawning and joining a scoped
/// thread costs about 40 µs, so at 8 000 items two threads only break
/// even (222 µs alone, 203 µs forked) and at 16 000 they are 1.5× ahead
/// (534 µs against 362 µs).
const PAR_MIN_LEN: usize = 16 * 1024;

/// Threads a bulk load may keep runnable: one per core.
pub fn thread_budget() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pack `points` into pages through `buf`, returning the new root.
/// Object ids are the point indices, or `oids[i]` when an explicit oid
/// slice (same length as `points`) is supplied — the hook sharded
/// engines use to index globally minted ids directly. Every node is
/// written to the store exactly once and the pool stays cold; at most
/// `threads` threads tile at a time.
///
/// # Panics
/// Panics on more than [`MAX_BULK_LEN`] points or an oid slice of the
/// wrong length.
pub(crate) fn str_bulk_load(
    buf: &BufferPool,
    points: &PointSet,
    oids: Option<&[u64]>,
    leaf_cap: usize,
    inner_cap: usize,
    threads: usize,
) -> BulkResult {
    if let Some(ids) = oids {
        assert_eq!(ids.len(), points.len(), "oid slice length mismatch");
    }
    assert!(
        points.len() <= MAX_BULK_LEN,
        "bulk load of {} points exceeds the {MAX_BULK_LEN}-point limit",
        points.len()
    );
    let dim = points.dim();
    if points.is_empty() {
        return BulkResult {
            root: buf.append_uncached(Node::Leaf(LeafNode::new(dim))),
            height: 1,
            len: 0,
        };
    }

    // --- leaf level ---
    let flat = points.as_flat();
    let (order, groups) = tile(points.len(), dim, leaf_cap, threads, &|i, axis| {
        flat[i as usize * dim + axis]
    });
    let mut level_entries: Vec<(Mbr, PageId)> = Vec::with_capacity(groups.len());
    for &(start, end) in &groups {
        let mut leaf = LeafNode::with_capacity(dim, end - start);
        let mut mbr = Mbr::empty(dim);
        for &k in &order[start..end] {
            let i = index_of(k);
            let p = points.get(i);
            leaf.push(p, oids.map_or(i as u64, |ids| ids[i]));
            mbr.union_point(p);
        }
        level_entries.push((mbr, buf.append_uncached(Node::Leaf(leaf))));
    }
    drop(order);

    // --- upper levels ---
    let mut level = 1u8;
    while level_entries.len() > 1 {
        let (order, groups) = tile(level_entries.len(), dim, inner_cap, threads, &|i, axis| {
            let m = &level_entries[i as usize].0;
            0.5 * (m.lo[axis] + m.hi[axis])
        });
        let mut next: Vec<(Mbr, PageId)> = Vec::with_capacity(groups.len());
        for &(start, end) in &groups {
            let mut node = InnerNode::with_capacity(dim, level, end - start);
            let mut mbr = Mbr::empty(dim);
            for &k in &order[start..end] {
                let (child_mbr, child_pid) = &level_entries[index_of(k)];
                node.push(&child_mbr.lo, &child_mbr.hi, *child_pid);
                mbr.union_rect(&child_mbr.lo, &child_mbr.hi);
            }
            next.push((mbr, buf.append_uncached(Node::Inner(node))));
        }
        level_entries = next;
        level += 1;
    }

    BulkResult {
        root: level_entries[0].1,
        height: level as u32,
        len: points.len() as u64,
    }
}

/// The `(coordinate, index)` order in one integer: the coordinate's
/// bits, mapped so that unsigned order is `f64::total_cmp` order, above
/// the item index.
#[inline]
fn pack(v: f64, i: u32) -> u128 {
    let b = v.to_bits();
    let ordered = if b >> 63 == 1 { !b } else { b | 1 << 63 };
    (ordered as u128) << 32 | i as u128
}

/// The item a packed key stands for.
#[inline]
fn index_of(k: u128) -> usize {
    k as u32 as usize
}

/// Items per slab when `n` items are cut along a non-final `axis`:
/// `ceil(groups^(1/remaining axes))` slabs of equal size.
fn slab_len(n: usize, axis: usize, dim: usize, cap: usize) -> usize {
    let num_groups = n.div_ceil(cap);
    let slabs = (num_groups as f64).powf(1.0 / (dim - axis) as f64).ceil() as usize;
    n.div_ceil(slabs.max(1))
}

/// STR tiling of items `0..n`, where `key(i, axis)` is item `i`'s
/// coordinate: the items in tile order (one packed key each, see
/// [`index_of`]) and the node boundaries as ranges into that order, each
/// of at most `cap` items.
fn tile<K>(n: usize, dim: usize, cap: usize, threads: usize, key: &K) -> Tiling
where
    K: Fn(u32, usize) -> f64 + Sync,
{
    let mut order: Vec<u128> = (0..n as u32).map(|i| pack(key(i, 0), i)).collect();
    let shape = Shape { dim, cap, key };
    shape.order(&mut order, 0, threads);
    let mut groups = Vec::with_capacity(n.div_ceil(cap));
    shape.groups(n, 0, 0, &mut groups);
    (order, groups)
}

type Tiling = (Vec<u128>, Vec<(usize, usize)>);

struct Shape<'k, K> {
    dim: usize,
    cap: usize,
    key: &'k K,
}

impl<K: Fn(u32, usize) -> f64 + Sync> Shape<'_, K> {
    /// Bring `keys`, packed along `axis`, into tile order.
    fn order(&self, keys: &mut [u128], axis: usize, threads: usize) {
        let n = keys.len();
        if axis == self.dim - 1 || n <= self.cap {
            keys.sort_unstable();
        } else {
            self.slabs(keys, slab_len(n, axis, self.dim, self.cap), axis, threads);
        }
    }

    /// Give every `slab`-long run of `keys` the items a full sort along
    /// `axis` would put there, then order each run along the next axis.
    fn slabs(&self, keys: &mut [u128], slab: usize, axis: usize, threads: usize) {
        let n = keys.len();
        if n <= slab {
            for k in keys.iter_mut() {
                let i = *k as u32;
                *k = pack((self.key)(i, axis + 1), i);
            }
            return self.order(keys, axis + 1, threads);
        }
        let runs = n.div_ceil(slab);
        let left_runs = runs / 2;
        let mid = left_runs * slab;
        keys.select_nth_unstable(mid);
        let (left, right) = keys.split_at_mut(mid);
        if threads > 1 && n >= PAR_MIN_LEN {
            let left_threads = (threads * left_runs / runs).max(1);
            std::thread::scope(|s| {
                s.spawn(|| self.slabs(right, slab, axis, threads - left_threads));
                self.slabs(left, slab, axis, left_threads);
            });
        } else {
            self.slabs(left, slab, axis, 1);
            self.slabs(right, slab, axis, 1);
        }
    }

    /// Node boundaries of `n` items tiled from `axis` on, as ranges
    /// offset by `base`. They follow from the sizes alone.
    fn groups(&self, n: usize, base: usize, axis: usize, out: &mut Vec<(usize, usize)>) {
        let last = axis == self.dim - 1 || n <= self.cap;
        let step = if last {
            self.cap
        } else {
            slab_len(n, axis, self.dim, self.cap)
        };
        for start in (0..n).step_by(step) {
            let end = (start + step).min(n);
            if last {
                out.push((base + start, base + end));
            } else {
                self.groups(end - start, base + start, axis + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn grid_points(side: usize) -> PointSet {
        let mut ps = PointSet::new(2);
        for x in 0..side {
            for y in 0..side {
                ps.push(&[x as f64 / side as f64, y as f64 / side as f64]);
            }
        }
        ps
    }

    fn load(points: &PointSet, page: usize) -> (BufferPool, BulkResult) {
        let buf = BufferPool::new(MemPager::new(page), points.dim(), 1024);
        let res = str_bulk_load(
            &buf,
            points,
            None,
            leaf_cap(page, points.dim()),
            inner_cap(page, points.dim()),
            thread_budget(),
        );
        (buf, res)
    }

    /// The loader this one replaced, kept as the oracle: a stable,
    /// full `sort_by` through the key function at every axis.
    fn oracle_tile(
        items: &mut [u32],
        base: usize,
        axis: usize,
        out_ranges: &mut Vec<(usize, usize)>,
        dim: usize,
        cap: usize,
        key: &impl Fn(u32, usize) -> f64,
    ) {
        let n = items.len();
        if n == 0 {
            return;
        }
        items.sort_by(|&a, &b| key(a, axis).total_cmp(&key(b, axis)).then(a.cmp(&b)));
        if axis == dim - 1 || n <= cap {
            let mut start = 0;
            while start < n {
                let end = (start + cap).min(n);
                out_ranges.push((base + start, base + end));
                start = end;
            }
            return;
        }
        let num_groups = n.div_ceil(cap);
        let remaining_axes = (dim - axis) as f64;
        let slabs = (num_groups as f64).powf(1.0 / remaining_axes).ceil() as usize;
        let slab_size = n.div_ceil(slabs.max(1));
        let mut start = 0;
        while start < n {
            let end = (start + slab_size).min(n);
            oracle_tile(
                &mut items[start..end],
                base + start,
                axis + 1,
                out_ranges,
                dim,
                cap,
                key,
            );
            start = end;
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// `n × dim` coordinates of one of three kinds: distinct values,
    /// a handful of values (ties fall to the index), or the keys an
    /// inner level can see and a validated point cannot — signed zeros,
    /// negatives, subnormals.
    fn coordinates(kind: usize, n: usize, dim: usize, seed: u64) -> Vec<f64> {
        const ODD: [f64; 8] = [-0.0, 0.0, -1.5, 5e-324, -5e-324, 1e-310, -2.5e-308, 0.75];
        let mut state = seed | 1;
        (0..n * dim)
            .map(|_| {
                let r = xorshift(&mut state);
                match kind {
                    0 => (r >> 11) as f64 / (1u64 << 53) as f64,
                    1 => (r % 5) as f64 * 0.25,
                    _ => ODD[(r % 8) as usize],
                }
            })
            .collect()
    }

    #[test]
    fn tiler_matches_the_sorting_oracle() {
        for dim in 1..=6 {
            for cap in [5usize, 102] {
                for n in [0, 1, cap - 1, cap, cap + 1, 10 * cap + 3, 50_000] {
                    // the long input once per dim is plenty
                    if n == 50_000 && cap == 5 {
                        continue;
                    }
                    for kind in 0..3 {
                        let data = coordinates(kind, n, dim, (n + 31 * dim + kind) as u64);
                        let key = |i: u32, axis: usize| data[i as usize * dim + axis];
                        let mut want_order: Vec<u32> = (0..n as u32).collect();
                        let mut want_groups = Vec::new();
                        oracle_tile(&mut want_order, 0, 0, &mut want_groups, dim, cap, &key);
                        for threads in [1, 2, 3, 8] {
                            let (order, groups) = tile(n, dim, cap, threads, &key);
                            let order: Vec<u32> = order.iter().map(|&k| k as u32).collect();
                            let case =
                                format!("dim {dim} cap {cap} n {n} kind {kind} threads {threads}");
                            assert!(order == want_order, "permutation differs: {case}");
                            assert_eq!(groups, want_groups, "group ranges differ: {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_keys_order_like_total_cmp() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -2.5e-308,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1e-310,
            0.75,
            f64::INFINITY,
        ];
        for (a, &x) in vals.iter().enumerate() {
            for (b, &y) in vals.iter().enumerate() {
                assert_eq!(pack(x, 7).cmp(&pack(y, 7)), x.total_cmp(&y), "{x} vs {y}");
                assert_eq!(pack(x, a as u32).cmp(&pack(x, b as u32)), a.cmp(&b));
            }
        }
        assert_eq!(index_of(pack(0.3, u32::MAX)), u32::MAX as usize);
    }

    /// Explicit oids relabel the leaf entries and move nothing.
    #[test]
    fn explicit_oids_do_not_change_the_layout() {
        let n = 20_000;
        let ps = PointSet::from_flat(3, coordinates(0, n, 3, 77));
        let oids: Vec<u64> = (0..n as u64)
            .map(|i| (i * 2_654_435_761) % 1_000_003)
            .collect();
        let (plain, plain_res) = load(&ps, 512);
        let relabelled = BufferPool::new(MemPager::new(512), 3, 1024);
        let res = str_bulk_load(
            &relabelled,
            &ps,
            Some(&oids),
            leaf_cap(512, 3),
            inner_cap(512, 3),
            thread_budget(),
        );
        assert_eq!(res.root, plain_res.root);
        assert_eq!(relabelled.page_bound(), plain.page_bound());
        for pid in (0..plain.page_bound()).map(PageId) {
            match (&*plain.get(pid), &*relabelled.get(pid)) {
                (Node::Leaf(a), Node::Leaf(b)) => {
                    assert_eq!(a.len(), b.len());
                    for i in 0..a.len() {
                        assert_eq!(a.point(i), b.point(i));
                        assert_eq!(oids[a.oid(i) as usize], b.oid(i));
                    }
                }
                (a, b) => assert_eq!(a, b, "inner page {pid}"),
            }
        }
    }

    /// Nodes go straight to the store: the pool ends the load as cold as
    /// it started, and every page was written exactly once.
    #[test]
    fn bulk_load_writes_each_page_once_and_caches_none() {
        let ps = grid_points(30);
        let (buf, _) = load(&ps, 512);
        assert_eq!(buf.resident(), 0);
        let stats = buf.stats();
        assert_eq!(stats.physical_writes, buf.live_pages() as u64);
        assert_eq!(stats.logical, 0);
    }

    fn leaf_cap(page: usize, dim: usize) -> usize {
        (page - 8) / (8 * dim + 8)
    }

    fn inner_cap(page: usize, dim: usize) -> usize {
        (page - 8) / (16 * dim + 4)
    }

    /// Recursively count points and check structure.
    fn count_points(buf: &BufferPool, pid: PageId, expected_level: Option<u8>) -> usize {
        let node = buf.get(pid);
        if let Some(l) = expected_level {
            assert_eq!(node.level(), l, "level mismatch at {pid}");
        }
        match &*node {
            Node::Leaf(leaf) => leaf.len(),
            Node::Inner(inner) => {
                let mut total = 0;
                for i in 0..inner.len() {
                    let child = buf.get(inner.child(i));
                    // stored MBR must equal the child's tight MBR
                    let tight = child.mbr();
                    assert_eq!(inner.lo(i), &*tight.lo, "loose lo MBR");
                    assert_eq!(inner.hi(i), &*tight.hi, "loose hi MBR");
                    total += count_points(buf, inner.child(i), Some(node.level() - 1));
                }
                total
            }
        }
    }

    #[test]
    fn bulk_load_indexes_every_point() {
        let ps = grid_points(30); // 900 points
        let (buf, res) = load(&ps, 512);
        assert_eq!(res.len, 900);
        assert_eq!(count_points(&buf, res.root, None), 900);
        assert!(res.height >= 2, "900 points cannot fit one 512B leaf");
    }

    #[test]
    fn bulk_load_empty_set_gives_empty_leaf_root() {
        let ps = PointSet::new(3);
        let (buf, res) = load(&ps, 512);
        assert_eq!(res.height, 1);
        assert_eq!(buf.get(res.root).len(), 0);
    }

    #[test]
    fn bulk_load_single_point() {
        let mut ps = PointSet::new(2);
        ps.push(&[0.3, 0.7]);
        let (buf, res) = load(&ps, 512);
        assert_eq!(res.height, 1);
        let root = buf.get(res.root);
        assert_eq!(root.as_leaf().oid(0), 0);
        assert_eq!(root.as_leaf().point(0), &[0.3, 0.7]);
    }

    #[test]
    fn bulk_load_with_explicit_oids() {
        let ps = grid_points(10); // 100 points
        let oids: Vec<u64> = (0..ps.len() as u64).map(|i| i * 7 + 3).collect();
        let buf = BufferPool::new(MemPager::new(512), ps.dim(), 1024);
        let res = str_bulk_load(
            &buf,
            &ps,
            Some(&oids),
            leaf_cap(512, 2),
            inner_cap(512, 2),
            1,
        );
        assert_eq!(res.len, 100);
        fn collect(buf: &BufferPool, pid: PageId, out: &mut Vec<u64>) {
            match &*buf.get(pid) {
                Node::Leaf(l) => {
                    for i in 0..l.len() {
                        out.push(l.oid(i));
                    }
                }
                Node::Inner(n) => {
                    for i in 0..n.len() {
                        collect(buf, n.child(i), out);
                    }
                }
            }
        }
        let mut seen = Vec::new();
        collect(&buf, res.root, &mut seen);
        seen.sort_unstable();
        let mut want = oids.clone();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn leaves_respect_capacity() {
        let ps = grid_points(20);
        let page = 512;
        let cap = leaf_cap(page, 2);
        let (buf, res) = load(&ps, page);
        fn walk(buf: &BufferPool, pid: PageId, cap: usize, inner_cap: usize) {
            let node = buf.get(pid);
            match &*node {
                Node::Leaf(l) => assert!(l.len() <= cap, "leaf overflow: {}", l.len()),
                Node::Inner(n) => {
                    assert!(n.len() <= inner_cap, "inner overflow: {}", n.len());
                    for i in 0..n.len() {
                        walk(buf, n.child(i), cap, inner_cap);
                    }
                }
            }
        }
        walk(&buf, res.root, cap, inner_cap(page, 2));
    }

    #[test]
    fn str_produces_high_leaf_utilization() {
        let ps = grid_points(40); // 1600 points
        let page = 512;
        let cap = leaf_cap(page, 2); // (512-8)/24 = 21
        let (buf, res) = load(&ps, page);
        let mut leaves = 0usize;
        fn count_leaves(buf: &BufferPool, pid: PageId, leaves: &mut usize) {
            let node = buf.get(pid);
            match &*node {
                Node::Leaf(_) => *leaves += 1,
                Node::Inner(n) => {
                    for i in 0..n.len() {
                        count_leaves(buf, n.child(i), leaves);
                    }
                }
            }
        }
        count_leaves(&buf, res.root, &mut leaves);
        let min_leaves = ps.len().div_ceil(cap);
        // STR should be within 40% of perfect packing
        assert!(
            leaves <= min_leaves + min_leaves * 2 / 5 + 1,
            "poor packing: {leaves} leaves vs optimal {min_leaves}"
        );
    }
}
