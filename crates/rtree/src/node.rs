//! R-tree node representation and its on-page binary codec.
//!
//! Every node occupies exactly one page. The layout (little-endian) is:
//!
//! ```text
//! offset  size  field
//! 0       1     tag: 0 = leaf, 1 = inner
//! 1       1     level (0 for leaves; child level + 1 for inner nodes)
//! 2       2     entry count (u16)
//! 4       4     reserved
//! 8       ...   entries
//! ```
//!
//! Leaf entry: `dim` × f64 point coordinates followed by a u64 object id
//! (`8·dim + 8` bytes). Inner entry: `2·dim` × f64 MBR (lower corner then
//! upper corner) followed by a u32 child page id (`16·dim + 4` bytes).
//!
//! With the paper's 4096-byte pages this yields, e.g. for `D = 3`, a leaf
//! fanout of 127 and an inner fanout of 78 — the same regime as the C++
//! implementation the paper measured.

use crate::geometry::Mbr;
use crate::pager::PageId;

const HEADER_BYTES: usize = 8;
const TAG_LEAF: u8 = 0;
const TAG_INNER: u8 = 1;

/// A decoded R-tree node: either a leaf of points or an inner node of
/// child MBRs.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Level-0 node holding data points.
    Leaf(LeafNode),
    /// Node at level ≥ 1 holding child page references.
    Inner(InnerNode),
}

/// A leaf node: `count` points with object ids, stored flat.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LeafNode {
    dim: usize,
    /// Flat coordinates, stride `dim`.
    points: Vec<f64>,
    /// Object id of each point.
    oids: Vec<u64>,
}

/// An inner node: `count` child entries, each an MBR plus a child page id.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerNode {
    dim: usize,
    /// Level of *this* node (≥ 1).
    level: u8,
    /// Flat MBRs, stride `2·dim`: `lo` corner then `hi` corner.
    mbrs: Vec<f64>,
    /// Child page of each entry.
    children: Vec<u32>,
}

impl Node {
    /// Level of the node (0 = leaf).
    #[inline]
    pub fn level(&self) -> u8 {
        match self {
            Node::Leaf(_) => 0,
            Node::Inner(n) => n.level,
        }
    }

    /// Number of entries in the node.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(n) => n.len(),
            Node::Inner(n) => n.len(),
        }
    }

    /// True iff the node holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the indexed space.
    #[inline]
    pub fn dim(&self) -> usize {
        match self {
            Node::Leaf(n) => n.dim,
            Node::Inner(n) => n.dim,
        }
    }

    /// The tight MBR covering everything in this node.
    pub(crate) fn mbr(&self) -> Mbr {
        let mut m = Mbr::empty(self.dim());
        match self {
            Node::Leaf(n) => {
                for i in 0..n.len() {
                    m.union_point(n.point(i));
                }
            }
            Node::Inner(n) => {
                for i in 0..n.len() {
                    m.union_rect(n.lo(i), n.hi(i));
                }
            }
        }
        m
    }

    /// Borrow as a leaf.
    ///
    /// # Panics
    /// Panics if the node is an inner node.
    #[inline]
    pub(crate) fn as_leaf(&self) -> &LeafNode {
        match self {
            Node::Leaf(n) => n,
            Node::Inner(_) => panic!("expected leaf node, found inner node"),
        }
    }

    /// Borrow as an inner node.
    ///
    /// # Panics
    /// Panics if the node is a leaf.
    #[inline]
    pub(crate) fn as_inner(&self) -> &InnerNode {
        match self {
            Node::Inner(n) => n,
            Node::Leaf(_) => panic!("expected inner node, found leaf node"),
        }
    }

    /// Mutable inner accessor (see [`Node::as_inner`]).
    #[inline]
    pub(crate) fn as_inner_mut(&mut self) -> &mut InnerNode {
        match self {
            Node::Inner(n) => n,
            Node::Leaf(_) => panic!("expected inner node, found leaf node"),
        }
    }

    /// Serialized size in bytes (must fit the page).
    pub fn encoded_len(&self) -> usize {
        match self {
            Node::Leaf(n) => HEADER_BYTES + n.len() * (8 * n.dim + 8),
            Node::Inner(n) => HEADER_BYTES + n.len() * (16 * n.dim + 4),
        }
    }

    /// Encode into `buf` (the page image). `buf.len()` must be at least
    /// [`Node::encoded_len`].
    pub fn encode(&self, buf: &mut [u8]) {
        let need = self.encoded_len();
        assert!(
            buf.len() >= need,
            "node of {need} bytes does not fit page of {} bytes",
            buf.len()
        );
        match self {
            Node::Leaf(n) => write_leaf_page(buf, n.dim, n.iter().map(|(oid, p)| (p, oid))),
            Node::Inner(n) => write_inner_page(
                buf,
                n.dim,
                n.level,
                n.mbrs
                    .chunks_exact(2 * n.dim)
                    .zip(n.children.iter().copied()),
            ),
        }
    }

    /// Decode a node from a page image.
    ///
    /// # Panics
    /// Panics on a malformed page (wrong tag, truncated entries); pages
    /// are produced only by [`Node::encode`], so corruption is a logic
    /// error in the simulation, not a runtime condition to recover from.
    pub fn decode(dim: usize, buf: &[u8]) -> Node {
        assert!(buf.len() >= HEADER_BYTES, "page too small for node header");
        let (header, body) = buf.split_at(HEADER_BYTES);
        let (tag, level) = (header[0], header[1]);
        let count = u16::from_le_bytes(le(&header[2..4])) as usize;
        match tag {
            TAG_LEAF => {
                let stride = 8 * dim + 8;
                assert!(body.len() >= count * stride, "truncated leaf page");
                // Straight into exactly-sized columns: this runs on
                // every buffer miss.
                let mut points = Vec::with_capacity(count * dim);
                let mut oids = Vec::with_capacity(count);
                for entry in body.chunks_exact(stride).take(count) {
                    let (coords, id) = entry.split_at(8 * dim);
                    points.extend(f64s(coords));
                    oids.push(u64::from_le_bytes(le(id)));
                }
                Node::Leaf(LeafNode { dim, points, oids })
            }
            TAG_INNER => {
                assert!(level >= 1, "inner node with level 0");
                let stride = 16 * dim + 4;
                assert!(body.len() >= count * stride, "truncated inner page");
                let mut mbrs = Vec::with_capacity(count * 2 * dim);
                let mut children = Vec::with_capacity(count);
                for entry in body.chunks_exact(stride).take(count) {
                    let (corners, id) = entry.split_at(16 * dim);
                    mbrs.extend(f64s(corners));
                    children.push(u32::from_le_bytes(le(id)));
                }
                Node::Inner(InnerNode {
                    dim,
                    level,
                    mbrs,
                    children,
                })
            }
            other => panic!("unknown node tag {other}"),
        }
    }
}

/// Write the header of a page holding `count` entries and return the
/// bytes its entries go to.
fn write_header(page: &mut [u8], tag: u8, level: u8, count: usize) -> &mut [u8] {
    let (header, body) = page.split_at_mut(HEADER_BYTES);
    let count = u16::try_from(count).expect("a page holds fewer than 2^16 entries");
    header[..2].copy_from_slice(&[tag, level]);
    header[2..4].copy_from_slice(&count.to_le_bytes());
    header[4..].fill(0);
    body
}

/// A little-endian field of `N` bytes, read from a slice of exactly
/// that width.
#[inline]
fn le<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes.try_into().expect("a slice of the field's width")
}

/// The little-endian `f64`s `bytes` holds back to back.
fn f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(le(c)))
}

/// Write the image of a leaf holding `entries` — `(point, oid)` — into
/// `page`: every byte of the prefix [`Node::encoded_len`] reports, and
/// none past it. [`Node::encode`] and the bulk loader, which has no
/// [`LeafNode`] to encode, both write pages through here.
///
/// # Panics
/// Panics if `page` is too short for the entries.
pub(crate) fn write_leaf_page<'p>(
    page: &mut [u8],
    dim: usize,
    entries: impl ExactSizeIterator<Item = (&'p [f64], u64)>,
) {
    let count = entries.len();
    // Entry by entry over exact chunks: this runs once per page
    // written, 2 000 times in a 200 000-point bulk load.
    let body = write_header(page, TAG_LEAF, 0, count);
    let slots = body.chunks_exact_mut(8 * dim + 8);
    assert!(
        count <= slots.len(),
        "{count} leaf entries overflow the page"
    );
    for (slot, (p, oid)) in slots.zip(entries) {
        let (coords, id) = slot.split_at_mut(8 * dim);
        put_f64s_le(coords, p);
        id.copy_from_slice(&oid.to_le_bytes());
    }
}

/// Write the image of a `level`-inner node holding `entries` — `(lo
/// corner then hi corner, child page)` — into `page`; see
/// [`write_leaf_page`].
///
/// # Panics
/// Panics if `page` is too short for the entries.
pub(crate) fn write_inner_page<'m>(
    page: &mut [u8],
    dim: usize,
    level: u8,
    entries: impl ExactSizeIterator<Item = (&'m [f64], u32)>,
) {
    let count = entries.len();
    let body = write_header(page, TAG_INNER, level, count);
    let slots = body.chunks_exact_mut(16 * dim + 4);
    assert!(
        count <= slots.len(),
        "{count} inner entries overflow the page"
    );
    for (slot, (mbr, child)) in slots.zip(entries) {
        let (corners, id) = slot.split_at_mut(16 * dim);
        put_f64s_le(corners, mbr);
        id.copy_from_slice(&child.to_le_bytes());
    }
}

/// Write `vals` little-endian into `dst` (`8 * vals.len()` bytes).
#[inline]
fn put_f64s_le(dst: &mut [u8], vals: &[f64]) {
    for (bytes, v) in dst.chunks_exact_mut(8).zip(vals) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
}

impl LeafNode {
    /// New empty leaf for a `dim`-dimensional space.
    pub fn new(dim: usize) -> LeafNode {
        LeafNode {
            dim,
            points: Vec::new(),
            oids: Vec::new(),
        }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.oids.len()
    }

    /// True iff the leaf is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// Object id of point `i`.
    #[inline]
    pub fn oid(&self, i: usize) -> u64 {
        self.oids[i]
    }

    /// Append a `(point, oid)` entry.
    pub fn push(&mut self, p: &[f64], oid: u64) {
        debug_assert_eq!(p.len(), self.dim);
        self.points.extend_from_slice(p);
        self.oids.push(oid);
    }

    /// Remove entry `i` (order is not preserved; `swap_remove` semantics
    /// keep removal O(dim)).
    pub fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        if i != last {
            let (head, tail) = self.points.split_at_mut(last * self.dim);
            head[i * self.dim..(i + 1) * self.dim].copy_from_slice(&tail[..self.dim]);
            self.oids.swap(i, last);
        }
        self.points.truncate(last * self.dim);
        self.oids.pop();
    }

    /// Index of the entry with the given point and id, if present.
    pub fn find(&self, p: &[f64], oid: u64) -> Option<usize> {
        (0..self.len()).find(|&i| self.oids[i] == oid && self.point(i) == p)
    }

    /// Iterate `(oid, point)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, &[f64])> + '_ {
        self.oids
            .iter()
            .copied()
            .zip(self.points.chunks_exact(self.dim))
    }
}

impl InnerNode {
    /// New empty inner node at `level` (≥ 1).
    pub fn new(dim: usize, level: u8) -> InnerNode {
        debug_assert!(level >= 1);
        InnerNode {
            dim,
            level,
            mbrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Number of child entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True iff the node has no children.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Level of this node.
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Lower corner of entry `i`'s MBR.
    #[inline]
    pub fn lo(&self, i: usize) -> &[f64] {
        &self.mbrs[i * 2 * self.dim..i * 2 * self.dim + self.dim]
    }

    /// Upper corner of entry `i`'s MBR.
    #[inline]
    pub fn hi(&self, i: usize) -> &[f64] {
        &self.mbrs[i * 2 * self.dim + self.dim..(i + 1) * 2 * self.dim]
    }

    /// Child page of entry `i`.
    #[inline]
    pub fn child(&self, i: usize) -> PageId {
        PageId(self.children[i])
    }

    /// Append a child entry.
    pub fn push(&mut self, lo: &[f64], hi: &[f64], child: PageId) {
        debug_assert_eq!(lo.len(), self.dim);
        debug_assert_eq!(hi.len(), self.dim);
        self.mbrs.extend_from_slice(lo);
        self.mbrs.extend_from_slice(hi);
        self.children.push(child.0);
    }

    /// Replace the child page id of entry `i` (copy-on-write parent
    /// rewiring: the child was rewritten to a fresh page).
    pub(crate) fn set_child(&mut self, i: usize, child: PageId) {
        self.children[i] = child.0;
    }

    /// Replace the MBR of entry `i`.
    pub(crate) fn set_mbr(&mut self, i: usize, lo: &[f64], hi: &[f64]) {
        let base = i * 2 * self.dim;
        self.mbrs[base..base + self.dim].copy_from_slice(lo);
        self.mbrs[base + self.dim..base + 2 * self.dim].copy_from_slice(hi);
    }

    /// Remove entry `i` (order not preserved).
    pub fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        let stride = 2 * self.dim;
        if i != last {
            let (head, tail) = self.mbrs.split_at_mut(last * stride);
            head[i * stride..(i + 1) * stride].copy_from_slice(&tail[..stride]);
            self.children.swap(i, last);
        }
        self.mbrs.truncate(last * stride);
        self.children.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_leaf() -> LeafNode {
        let mut n = LeafNode::new(2);
        n.push(&[0.1, 0.9], 7);
        n.push(&[0.5, 0.5], 8);
        n.push(&[0.9, 0.1], 9);
        n
    }

    #[test]
    fn leaf_encode_decode_round_trip() {
        let n = Node::Leaf(sample_leaf());
        let mut page = vec![0u8; 4096];
        n.encode(&mut page);
        let back = Node::decode(2, &page);
        assert_eq!(back, n);
        assert_eq!(back.level(), 0);
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn inner_encode_decode_round_trip() {
        let mut n = InnerNode::new(3, 2);
        n.push(&[0.0, 0.0, 0.0], &[0.5, 0.5, 0.5], PageId(11));
        n.push(&[0.5, 0.1, 0.2], &[1.0, 0.9, 0.8], PageId(12));
        let n = Node::Inner(n);
        let mut page = vec![0u8; 4096];
        n.encode(&mut page);
        let back = Node::decode(3, &page);
        assert_eq!(back, n);
        assert_eq!(back.level(), 2);
    }

    #[test]
    fn empty_nodes_round_trip() {
        for n in [
            Node::Leaf(LeafNode::new(4)),
            Node::Inner(InnerNode::new(4, 1)),
        ] {
            let mut page = vec![0u8; 256];
            n.encode(&mut page);
            assert_eq!(Node::decode(4, &page), n);
        }
    }

    /// Decode rebuilds the columns directly, so hold it to the push-built
    /// node — and the re-encoded bytes to the page — for every shape:
    /// dims 2–6, empty, one entry, and as many as the page holds.
    #[test]
    fn decode_inverts_encode_for_every_dim_and_fill() {
        const PAGE: usize = 1024;
        let coord = |seed: usize| (seed as f64 * 0.37).fract() - 0.25;
        for dim in 2..=6 {
            let full_leaf = (PAGE - HEADER_BYTES) / (8 * dim + 8);
            let full_inner = (PAGE - HEADER_BYTES) / (16 * dim + 4);
            for (leaf_n, inner_n) in [(0, 0), (1, 1), (full_leaf, full_inner)] {
                let mut leaf = LeafNode::new(dim);
                for i in 0..leaf_n {
                    let p: Vec<f64> = (0..dim).map(|d| coord(i * dim + d)).collect();
                    leaf.push(&p, u64::MAX - i as u64);
                }
                let mut inner = InnerNode::new(dim, 3);
                for i in 0..inner_n {
                    let lo: Vec<f64> = (0..dim).map(|d| coord(i * dim + d)).collect();
                    let hi: Vec<f64> = lo.iter().map(|c| c + 0.5).collect();
                    inner.push(&lo, &hi, PageId(u32::MAX - 1 - i as u32));
                }
                for node in [Node::Leaf(leaf), Node::Inner(inner)] {
                    let mut page = vec![0u8; PAGE];
                    node.encode(&mut page);
                    let back = Node::decode(dim, &page);
                    assert_eq!(back, node, "dim {dim}, {} entries", node.len());
                    let mut again = vec![0u8; PAGE];
                    back.encode(&mut again);
                    assert_eq!(again, page, "dim {dim}, {} entries", node.len());
                }
            }
        }
    }

    #[test]
    fn leaf_swap_remove_keeps_remaining_entries() {
        let mut n = sample_leaf();
        n.swap_remove(0);
        assert_eq!(n.len(), 2);
        // last entry moved into slot 0
        assert_eq!(n.point(0), &[0.9, 0.1]);
        assert_eq!(n.oid(0), 9);
        assert_eq!(n.point(1), &[0.5, 0.5]);
        n.swap_remove(1);
        n.swap_remove(0);
        assert!(n.is_empty());
    }

    #[test]
    fn leaf_find_matches_point_and_oid() {
        let n = sample_leaf();
        assert_eq!(n.find(&[0.5, 0.5], 8), Some(1));
        assert_eq!(n.find(&[0.5, 0.5], 99), None);
        assert_eq!(n.find(&[0.4, 0.5], 8), None);
    }

    #[test]
    fn inner_swap_remove_and_set_mbr() {
        let mut n = InnerNode::new(2, 1);
        n.push(&[0.0, 0.0], &[0.4, 0.4], PageId(1));
        n.push(&[0.4, 0.4], &[0.8, 0.8], PageId(2));
        n.push(&[0.8, 0.8], &[1.0, 1.0], PageId(3));
        n.set_mbr(1, &[0.3, 0.3], &[0.9, 0.9]);
        assert_eq!(n.lo(1), &[0.3, 0.3]);
        assert_eq!(n.hi(1), &[0.9, 0.9]);
        n.swap_remove(0);
        assert_eq!(n.len(), 2);
        assert_eq!(n.child(0), PageId(3));
        assert_eq!(n.child(1), PageId(2));
        assert!((0..n.len()).all(|i| n.child(i) != PageId(1)));
    }

    #[test]
    fn node_mbr_covers_all_entries() {
        let n = Node::Leaf(sample_leaf());
        let m = n.mbr();
        assert_eq!(&*m.lo, &[0.1, 0.1]);
        assert_eq!(&*m.hi, &[0.9, 0.9]);
    }

    #[test]
    fn encoded_len_matches_layout_math() {
        let n = Node::Leaf(sample_leaf());
        assert_eq!(n.encoded_len(), 8 + 3 * (16 + 8));
        let mut i = InnerNode::new(2, 1);
        i.push(&[0.0, 0.0], &[1.0, 1.0], PageId(5));
        assert_eq!(Node::Inner(i).encoded_len(), 8 + (32 + 4));
    }

    /// Hostile images — short, truncated, wrong tag or level, random
    /// bytes: `decode` panics on exactly the images a cursor decoder
    /// that reads field by field panics on, and turns every other one
    /// into the node that decoder reads, bit for bit.
    #[test]
    fn decode_fails_where_a_cursor_decoder_fails_and_nowhere_else() {
        fn take<'b>(buf: &'b [u8], at: &mut usize, n: usize) -> &'b [u8] {
            assert!(buf.len() - *at >= n, "buffer underflow");
            *at += n;
            &buf[*at - n..*at]
        }
        fn cursor_decode(dim: usize, buf: &[u8]) -> Node {
            let at = &mut 0;
            assert!(buf.len() >= HEADER_BYTES, "page too small for node header");
            let (tag, level) = (take(buf, at, 1)[0], take(buf, at, 1)[0]);
            let count = u16::from_le_bytes(le(take(buf, at, 2)));
            take(buf, at, 4);
            let coords = |at: &mut usize, n| -> Vec<f64> {
                (0..n)
                    .map(|_| f64::from_le_bytes(le(take(buf, at, 8))))
                    .collect()
            };
            match tag {
                TAG_LEAF => {
                    let mut leaf = LeafNode::new(dim);
                    for _ in 0..count {
                        let p = coords(at, dim);
                        leaf.push(&p, u64::from_le_bytes(le(take(buf, at, 8))));
                    }
                    Node::Leaf(leaf)
                }
                TAG_INNER => {
                    assert!(level >= 1, "inner node with level 0");
                    let mut inner = InnerNode::new(dim, level);
                    for _ in 0..count {
                        let mbr = coords(at, 2 * dim);
                        let child = PageId(u32::from_le_bytes(le(take(buf, at, 4))));
                        inner.push(&mbr[..dim], &mbr[dim..], child);
                    }
                    Node::Inner(inner)
                }
                other => panic!("unknown node tag {other}"),
            }
        }
        let image = |node: &Node| {
            let mut page = vec![0u8; node.encoded_len()];
            node.encode(&mut page);
            page
        };
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut decoded, mut refused) = (0, 0);
        for case in 0..3_000 {
            let dim = 1 + next(4) as usize;
            let mut page: Vec<u8> = (0..next(160)).map(|_| next(256) as u8).collect();
            if let [tag, level, count, ..] = &mut page[..] {
                *tag = [TAG_LEAF, TAG_INNER, TAG_INNER, 7][next(4) as usize];
                *level = next(3) as u8;
                *count = next(6) as u8;
            }
            if page.len() > 3 {
                page[3] = [0, 0, 0, 1][next(4) as usize];
            }
            let run = |decode: fn(usize, &[u8]) -> Node| {
                std::panic::catch_unwind(|| decode(dim, &page)).ok()
            };
            match (run(Node::decode), run(cursor_decode)) {
                (Some(got), Some(want)) => {
                    assert_eq!(image(&got), image(&want), "case {case}");
                    decoded += 1;
                }
                (None, None) => refused += 1,
                (got, _) => panic!("case {case}: decode {got:?} on {page:?}, dim {dim}"),
            }
        }
        assert!(
            decoded > 500 && refused > 500,
            "{decoded} decoded, {refused} refused"
        );
    }

    #[test]
    #[should_panic(expected = "unknown node tag")]
    fn decode_rejects_bad_tag() {
        let mut page = vec![0u8; 64];
        page[0] = 9;
        let _ = Node::decode(2, &page);
    }
}
