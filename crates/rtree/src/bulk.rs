//! Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al., ICDE 1997).
//!
//! STR packs a static dataset into an R-tree with ~100% leaf utilization
//! and good spatial clustering: the points are recursively sorted and
//! sliced into vertical "slabs" one axis at a time, and the resulting
//! tiles become leaves. Upper levels are built by applying the same
//! packing to the child MBR centers. This is how the experiment datasets
//! (up to 400 K objects) are indexed before a run — and what every
//! engine build and tenant registration pays before it can
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
//! Only the thread that called the load spawns, and only it allocates:
//! the key buffer, the page run and every level's MBR vector
//! are the caller's, sized from the counts alone before a key is sorted
//! and allocated once at their final size; scoped workers sort and
//! encode in place into the disjoint slices they are handed
//! (`split_at_mut` / `chunks_mut`). A thread that allocates and exits
//! leaves its malloc arena behind, which is what made a process's
//! resident size after a load a matter of chance. The fixed budget (by
//! default [`thread_budget`], the core count) is spent inside the one
//! tree. *Tiling:* the caller bisects the first axis — the same
//! selections a sequential run makes — one slab-aligned piece per
//! thread, then every piece is tiled side by side; inputs under
//! `PAR_MIN_LEN` items stay on the calling thread. With more than two
//! threads the selections above the pieces are sequential where a
//! forking recursion ran them side by side: the price of no thread but
//! the caller ever spawning. *Emission:* node boundaries follow from the
//! sizes alone, so page `j` of a level is known before anything is
//! written: the level's pages and MBR slots are cut into one contiguous
//! share per thread (of at least `EMIT_MIN_PAGES` nodes).
//!
//! Every node is encoded straight from `(order, points)`
//! into its page — no decoded node, no copy — and page ids are
//! sequential in tile order, level above level, whatever the thread
//! count. The filled run goes to the store in one piece
//! ([`PageStore::append_run`]). A worker's panic resurfaces from its
//! scope as the load's own, never as a tree built from a half-ordered or
//! half-emitted level.
//!
//! [`PageStore::append_run`]: crate::pager::PageStore::append_run

use std::ops::Range;

use crate::buffer::BufferPool;
use crate::geometry::rect_cover;
use crate::node::{write_inner_page, write_leaf_page};
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

/// Fewest nodes of a level worth a thread of their own: a second thread
/// from 256 nodes on. Encoding a 4 KiB leaf takes 1.1 µs into resident
/// memory and 2.5-4 µs into fresh pages (first touch), so 128 nodes are
/// 0.15-0.5 ms of work against the 20-60 µs a scoped thread costs to
/// spawn and join on the two-vCPU build container. Whole builds of
/// 26 000 and 52 000 4-d points (255 and 510 leaves) read 2.28 / 2.33 ms
/// and 5.71 / 5.74 ms with and without the second thread in an hour when
/// the container's vCPUs shared one core's time: at this size the thread
/// costs nothing where it cannot help.
const EMIT_MIN_PAGES: usize = 128;

/// Threads a bulk load may keep runnable: one per core.
pub fn thread_budget() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `work` on every item, side by side: the first on the calling
/// thread, every other on a scoped thread of its own that the caller
/// spawns. Results come back in item order; a panic on any of the
/// threads resurfaces here once all have stopped.
pub fn side_by_side<I, R>(
    items: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> R + Sync,
) -> Vec<R>
where
    I: Send,
    R: Send,
{
    let mut items = items.into_iter();
    let Some(mine) = items.next() else {
        return Vec::new();
    };
    // A lone item needs no scope (which allocates, wherever it is opened).
    let Some(next) = items.next() else {
        return vec![work(mine)];
    };
    let work = &work;
    std::thread::scope(|s| {
        let others: Vec<_> = (std::iter::once(next).chain(items))
            .map(|item| s.spawn(move || work(item)))
            .collect();
        let mut done = Vec::with_capacity(others.len() + 1);
        done.push(work(mine));
        for other in others {
            done.push(
                other
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        done
    })
}

/// The key a load sorts point `i` of `points` by first: its first
/// coordinate above its index. A load takes one key per point to index
/// (see [`crate::RTree::bulk_load_keys`]), in any order.
///
/// # Panics
/// Panics if `points` has no point `i` or `i` exceeds [`MAX_BULK_LEN`].
pub fn sort_key(points: &PointSet, i: usize) -> u128 {
    let index = u32::try_from(i).expect("point index exceeds the bulk-load limit");
    pack(points.get(i)[0], index)
}

/// Node capacities and page size of the trees a load builds.
#[derive(Clone, Copy)]
pub(crate) struct Layout {
    pub leaf_cap: usize,
    pub inner_cap: usize,
    pub page_size: usize,
}

/// Load one tree into `pool`: it packs the points that `keys` names
/// (see [`sort_key`]), each indexed under its index in `points`, into
/// pages of the pool's store. `keys` is left in tile order. Every node
/// is written to the store exactly once and the pool stays cold; at
/// most `threads` threads work at a time.
///
/// # Panics
/// Panics on more than [`MAX_BULK_LEN`] keys or a key naming no point.
pub(crate) fn str_bulk_load(
    pool: &BufferPool,
    points: &PointSet,
    keys: &mut [u128],
    layout: Layout,
    threads: usize,
) -> BulkResult {
    assert!(
        keys.len() <= MAX_BULK_LEN,
        "bulk load of {} points exceeds the {MAX_BULK_LEN}-point limit",
        keys.len()
    );
    let mut load = Load::plan(keys, points.dim(), layout, PageId(pool.page_bound()));
    load.fill(points, layout, threads);
    let result = BulkResult {
        root: PageId(load.first.0 + (load.run.len() / layout.page_size) as u32 - 1),
        height: load.levels.len() as u32,
        len: load.keys.len() as u64,
    };
    pool.append_run(load.first, load.run);
    result
}

/// The load, planned: everything it writes to, sized from the counts
/// alone and allocated before a key is sorted.
struct Load<'k> {
    /// The points to index; [`Load::fill`] leaves them in tile order.
    keys: &'k mut [u128],
    /// Every level's node boundaries, leaves first, as ranges into the
    /// tile order of the level's items. An empty set is one empty leaf.
    levels: Vec<Vec<(usize, usize)>>,
    /// `(lo corner, hi corner)` of every node, level above level.
    mbrs: Vec<f64>,
    /// The tile order of an inner level's children, level after level.
    order: Vec<u128>,
    /// The page images, level above level; page `j` gets id `first + j`.
    run: Vec<u8>,
    first: PageId,
}

impl<'k> Load<'k> {
    fn plan(keys: &'k mut [u128], dim: usize, layout: Layout, first: PageId) -> Load<'k> {
        let mut levels = vec![node_ranges(keys.len(), dim, layout.leaf_cap)];
        if keys.is_empty() {
            levels[0].push((0, 0));
        }
        while let Some(children) = levels.last().map(Vec::len).filter(|&n| n > 1) {
            levels.push(node_ranges(children, dim, layout.inner_cap));
        }
        let pages: usize = levels.iter().map(Vec::len).sum();
        Load {
            keys,
            mbrs: vec![0.0; pages * 2 * dim],
            order: vec![0; levels[0].len()],
            run: vec![0; pages * layout.page_size],
            levels,
            first,
        }
    }

    /// Tile the keys and every level above them and write the pages, on
    /// up to `threads` threads.
    fn fill(&mut self, points: &PointSet, layout: Layout, threads: usize) {
        let dim = points.dim();
        let flat = points.as_flat();
        let size = layout.page_size;
        let leaves = Shape {
            dim,
            cap: layout.leaf_cap,
            key: &|i, axis| flat[i as usize * dim + axis],
        };
        leaves.tile(self.keys, threads);
        let keys = &*self.keys;

        let (mut below, mut mbrs) = self.mbrs.split_at_mut(self.levels[0].len() * 2 * dim);
        let (pages, mut run) = self.run.split_at_mut(self.levels[0].len() * size);
        emit(
            pages,
            size,
            &self.levels[0],
            below,
            dim,
            threads,
            &|page, mbr, node| {
                let entries = keys[node].iter().map(|&k| {
                    let i = index_of(k);
                    let p = &flat[i * dim..(i + 1) * dim];
                    let (lo, hi) = mbr.split_at_mut(dim);
                    rect_cover(lo, hi, p, p);
                    (p, i as u64)
                });
                write_leaf_page(page, dim, entries);
            },
        );
        let mut below_first = self.first.0;
        for (level, nodes) in self.levels.iter().enumerate().skip(1) {
            let children = below.len() / (2 * dim);
            let center = |i: u32, axis: usize| {
                let mbr = &below[i as usize * 2 * dim..];
                0.5 * (mbr[axis] + mbr[dim + axis])
            };
            let order = &mut self.order[..children];
            for (i, k) in (0..).zip(order.iter_mut()) {
                *k = pack(center(i, 0), i);
            }
            Shape {
                dim,
                cap: layout.inner_cap,
                key: &center,
            }
            .tile(order, threads);
            let order = &*order;
            let (here, mbrs_above) = mbrs.split_at_mut(nodes.len() * 2 * dim);
            let (pages, run_above) = run.split_at_mut(nodes.len() * size);
            emit(
                pages,
                size,
                nodes,
                here,
                dim,
                threads,
                &|page, mbr, node| {
                    let entries = order[node].iter().map(|&k| {
                        let i = index_of(k);
                        let child = &below[i * 2 * dim..(i + 1) * 2 * dim];
                        let (lo, hi) = mbr.split_at_mut(dim);
                        rect_cover(lo, hi, &child[..dim], &child[dim..]);
                        (child, below_first + i as u32)
                    });
                    write_inner_page(page, dim, level as u8, entries);
                },
            );
            below_first += children as u32;
            (below, mbrs, run) = (here, mbrs_above, run_above);
        }
    }
}

/// Write one level: node `j`, the items `nodes[j]` of the level's tile
/// order, goes to page `j` of `pages` (`size` bytes each) and its MBR,
/// started empty, to slot `j` of `mbrs`, through `write(page, mbr,
/// items)`. Pages, slots and nodes are cut into one contiguous share per
/// thread.
fn emit<W>(
    pages: &mut [u8],
    size: usize,
    nodes: &[(usize, usize)],
    mbrs: &mut [f64],
    dim: usize,
    threads: usize,
    write: &W,
) where
    W: Fn(&mut [u8], &mut [f64], Range<usize>) + Sync,
{
    let share = nodes
        .len()
        .div_ceil(threads.min(nodes.len() / EMIT_MIN_PAGES).max(1));
    let shares = pages
        .chunks_mut(share * size)
        .zip(mbrs.chunks_mut(share * 2 * dim))
        .zip(nodes.chunks(share));
    side_by_side(shares, |((pages, mbrs), nodes)| {
        let slots = pages
            .chunks_exact_mut(size)
            .zip(mbrs.chunks_exact_mut(2 * dim));
        for ((page, mbr), &(start, end)) in slots.zip(nodes) {
            let (lo, hi) = mbr.split_at_mut(dim);
            lo.fill(f64::INFINITY);
            hi.fill(f64::NEG_INFINITY);
            write(page, mbr, start..end);
        }
    });
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

/// An STR tiling: nodes of at most `cap` items, where `key(i, axis)` is
/// item `i`'s coordinate.
struct Shape<'k, K> {
    dim: usize,
    cap: usize,
    key: &'k K,
}

impl<K: Fn(u32, usize) -> f64 + Sync> Shape<'_, K> {
    /// Bring `keys` — one per item, packed along axis 0 (see
    /// [`index_of`]) — into tile order, on up to `threads` threads.
    fn tile(&self, keys: &mut [u128], threads: usize) {
        let n = keys.len();
        if threads == 1 || n < PAR_MIN_LEN || self.dim == 1 || n <= self.cap {
            return self.order(keys, 0);
        }
        let slab = slab_len(n, 0, self.dim, self.cap);
        let mut pieces = Vec::with_capacity(threads);
        self.cut(keys, slab, threads, &mut pieces);
        side_by_side(pieces, |piece| self.slabs(piece, slab, 0));
    }

    /// Bisect `keys`, packed along axis 0, at the `slab` boundaries
    /// [`Shape::slabs`] would pick, into one piece per thread of
    /// `threads`: each is then `slabs`' to finish on its own.
    fn cut<'a>(
        &self,
        keys: &'a mut [u128],
        slab: usize,
        threads: usize,
        pieces: &mut Vec<&'a mut [u128]>,
    ) {
        let n = keys.len();
        let runs = n.div_ceil(slab);
        if threads == 1 || runs == 1 || n < PAR_MIN_LEN {
            return pieces.push(keys);
        }
        let left_runs = runs / 2;
        let mid = left_runs * slab;
        keys.select_nth_unstable(mid);
        let (left, right) = keys.split_at_mut(mid);
        let left_threads = (threads * left_runs / runs).max(1);
        self.cut(left, slab, left_threads, pieces);
        self.cut(right, slab, threads - left_threads, pieces);
    }

    /// Bring `keys`, packed along `axis`, into tile order.
    fn order(&self, keys: &mut [u128], axis: usize) {
        let n = keys.len();
        if axis == self.dim - 1 || n <= self.cap {
            keys.sort_unstable();
        } else {
            self.slabs(keys, slab_len(n, axis, self.dim, self.cap), axis);
        }
    }

    /// Give every `slab`-long run of `keys` the items a full sort along
    /// `axis` would put there, then order each run along the next axis.
    fn slabs(&self, keys: &mut [u128], slab: usize, axis: usize) {
        let n = keys.len();
        if n <= slab {
            for k in keys.iter_mut() {
                let i = *k as u32;
                *k = pack((self.key)(i, axis + 1), i);
            }
            return self.order(keys, axis + 1);
        }
        let mid = n.div_ceil(slab) / 2 * slab;
        keys.select_nth_unstable(mid);
        let (left, right) = keys.split_at_mut(mid);
        self.slabs(left, slab, axis);
        self.slabs(right, slab, axis);
    }
}

/// Node boundaries of `n` items tiled into nodes of at most `cap`, as
/// ranges into the tile order. They follow from the sizes alone.
fn node_ranges(n: usize, dim: usize, cap: usize) -> Vec<(usize, usize)> {
    fn from(
        n: usize,
        base: usize,
        axis: usize,
        dim: usize,
        cap: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        let last = axis == dim - 1 || n <= cap;
        let step = if last {
            cap
        } else {
            slab_len(n, axis, dim, cap)
        };
        for start in (0..n).step_by(step) {
            let end = (start + step).min(n);
            if last {
                out.push((base + start, base + end));
            } else {
                from(end - start, base + start, axis + 1, dim, cap, out);
            }
        }
    }
    let mut out = Vec::with_capacity(n.div_ceil(cap));
    from(n, 0, 0, dim, cap, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::fault::{FaultInjector, FaultKind, FaultOp, FaultPageStore};
    use crate::node::Node;
    use crate::pager::{MemPager, PageStore};

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
        let all: Vec<usize> = (0..points.len()).collect();
        load_into(MemPager::new(page), points, &all, thread_budget())
    }

    /// Load the points `subset` names into `store`.
    fn load_into<S: PageStore + 'static>(
        store: S,
        points: &PointSet,
        subset: &[usize],
        threads: usize,
    ) -> (BufferPool, BulkResult) {
        let layout = layout_of(store.page_size(), points.dim());
        let buf = BufferPool::new(store, points.dim(), 1024);
        let mut keys: Vec<u128> = subset.iter().map(|&i| sort_key(points, i)).collect();
        let res = str_bulk_load(&buf, points, &mut keys, layout, threads);
        (buf, res)
    }

    fn layout_of(page_size: usize, dim: usize) -> Layout {
        Layout {
            leaf_cap: leaf_cap(page_size, dim),
            inner_cap: inner_cap(page_size, dim),
            page_size,
        }
    }

    /// `(FNV-1a over the page images in page-id order, pages, root,
    /// height)`, as `tests/bulk_layout.rs` computes it.
    fn image(buf: BufferPool, res: &BulkResult) -> (u64, u32, u32, u32) {
        let store = buf.into_store();
        let mut page = vec![0u8; store.page_size()];
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for id in 0..store.page_bound() {
            store.read_into(PageId(id), &mut page).unwrap();
            for &b in &page {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        (hash, store.page_bound(), res.root.0, res.height)
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
                        let shape = Shape {
                            dim,
                            cap,
                            key: &key,
                        };
                        for threads in [1, 2, 3, 8] {
                            let mut order: Vec<u128> =
                                (0..n as u32).map(|i| pack(key(i, 0), i)).collect();
                            shape.tile(&mut order, threads);
                            let groups = node_ranges(n, dim, cap);
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

    /// A subset loads as a set of just its points does, page for page,
    /// its leaf entries under their indices in the whole set.
    #[test]
    fn explicit_oids_do_not_change_the_layout() {
        let n = 60_000;
        let ps = PointSet::from_flat(3, coordinates(0, n, 3, 77));
        let subset: Vec<usize> = (0..n).filter(|i| (i * 2_654_435_761) % 7 < 3).collect();
        let mut alone = PointSet::new(3);
        for &i in &subset {
            alone.push(ps.get(i));
        }
        let (plain, plain_res) = load(&alone, 512);
        let (keyed, res) = load_into(MemPager::new(512), &ps, &subset, thread_budget());
        assert_eq!(res.root, plain_res.root);
        assert_eq!(res.height, plain_res.height);
        assert_eq!(res.len, subset.len() as u64);
        assert_eq!(keyed.page_bound(), plain.page_bound());
        for pid in (0..plain.page_bound()).map(PageId) {
            match (&*plain.get(pid), &*keyed.get(pid)) {
                (Node::Leaf(a), Node::Leaf(b)) => {
                    assert_eq!(a.len(), b.len());
                    for i in 0..a.len() {
                        assert_eq!(a.point(i), b.point(i));
                        assert_eq!(subset[a.oid(i) as usize] as u64, b.oid(i));
                    }
                }
                (a, b) => assert_eq!(a, b, "inner page {pid}"),
            }
        }
    }

    /// The constants of `tests/bulk_layout.rs` (captured from the
    /// pre-PR-13 loader, never regenerated), held at every thread count
    /// — that test can only run at the machine's — and on both ways a
    /// store takes a run.
    #[test]
    fn pinned_layout_holds_at_every_thread_count_and_on_either_run_path() {
        use mpq_datagen::objects::{anti_correlated, independent};
        // The generators return the `PointSet` of the crate as they link
        // it, not of this test build of it.
        let own = |dim: usize, flat: &[f64]| PointSet::from_flat(dim, flat.to_vec());
        let cases = [
            (
                own(3, independent(40_000, 3, 2009).as_flat()),
                4096,
                (11062025983943673587, 352, 351, 3),
            ),
            (
                own(4, anti_correlated(20_000, 4, 4242).as_flat()),
                4096,
                (8345363826353670602, 265, 264, 3),
            ),
            (
                own(4, independent(6_000, 4, 11).as_flat()),
                512,
                (13964909569446969615, 602, 601, 5),
            ),
        ];
        for (ps, page, want) in &cases {
            let all: Vec<usize> = (0..ps.len()).collect();
            for threads in [1, 2, 3, 8] {
                let (buf, res) = load_into(MemPager::new(*page), ps, &all, threads);
                assert_eq!(image(buf, &res), *want, "one run, {threads} threads");
                // (the injecting wrapper does not know runs: page by page)
                let paged = FaultPageStore::new(MemPager::new(*page), FaultInjector::shared());
                let (buf, res) = load_into(paged, ps, &all, threads);
                assert_eq!(image(buf, &res), *want, "page by page, {threads} threads");
            }
        }
    }

    /// An injected store takes the run page by page: one `PageWrite` per
    /// page, and a page whose write fails is kept (over-admitted, dirty)
    /// until a flush retries it.
    #[test]
    fn a_failed_page_write_in_a_run_is_kept_and_retried() {
        let ps = grid_points(30);
        let all: Vec<usize> = (0..ps.len()).collect();
        let (clean, clean_res) = load(&ps, 512);
        let pages = clean.page_bound() as u64;
        assert!(pages > 9);

        let inj = FaultInjector::shared();
        inj.fail_nth(FaultOp::PageWrite, 7, FaultKind::Error);
        let store = FaultPageStore::new(MemPager::new(512), Arc::clone(&inj));
        let (buf, res) = load_into(store, &ps, &all, thread_budget());
        assert_eq!(inj.count(FaultOp::PageWrite), pages, "one write per page");
        assert_eq!((res.root, res.height), (clean_res.root, clean_res.height));
        assert_eq!(buf.write_failures(), 1);
        assert_eq!(buf.resident(), 1, "the failed page stays, dirty");
        assert_eq!(buf.stats().physical_writes, pages - 1);
        // Readable meanwhile (from the frame), and on the store after
        // the retry `clear` makes.
        assert_eq!(count_points(&buf, res.root, None), 900);
        buf.clear();
        assert_eq!(buf.resident(), 0);
        assert_eq!(inj.count(FaultOp::PageWrite), pages + 1);
        assert_eq!(image(buf, &res), image(clean, &clean_res));
    }

    /// A worker that panics takes the load down with it: no tree comes
    /// back from a half-ordered level.
    #[test]
    #[should_panic]
    fn a_key_naming_no_point_panics_the_load() {
        let ps = PointSet::from_flat(3, coordinates(0, 40_000, 3, 5));
        let pool = BufferPool::new(MemPager::new(512), 3, 16);
        let mut keys: Vec<u128> = (0..ps.len()).map(|i| sort_key(&ps, i)).collect();
        // Past the first bisection this key is a spawned thread's.
        *keys.last_mut().unwrap() = pack(2.0, 1 << 30);
        str_bulk_load(&pool, &ps, &mut keys, layout_of(512, 3), 2);
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
        let subset: Vec<usize> = (0..ps.len()).filter(|i| i % 7 != 3).collect();
        let (buf, res) = load_into(MemPager::new(512), &ps, &subset, 1);
        assert_eq!(res.len, subset.len() as u64);
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
        let want: Vec<u64> = subset.iter().map(|&i| i as u64).collect();
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
