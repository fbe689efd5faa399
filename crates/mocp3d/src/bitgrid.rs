//! The 3-D word-packed occupancy bitmap and the merge process's
//! bookkeeping around it.
//!
//! [`BitGrid3`] is `mesh2d`'s one word grid over [`Coord3`]: 64 nodes per
//! `u64` along the x axis, one packed x-line per `(y, z)` pair. The frame,
//! the set algebra, the 26-neighborhood dilation, the flood (26-connected
//! under `Connectivity::Eight`), the hull fixpoint (with its z sweep
//! across planes) and the convexity scan are the same kernels the 2-D grid
//! runs in its single plane. This module adds what only the 3-D merge
//! process uses: the box-halo test, the bucket index that finds the
//! parts whose boxes touch, and the reusable union-find that regroups
//! touching parts round after round. The scalar `BTreeSet` prototype of
//! `tests/hull_oracle.rs` remains the specification the kernels are
//! property-tested against.

use crate::mesh::{Coord3, Mesh3D};
use mesh2d::{GridCoord, WordGrid};

/// The 3-D word grid: one plane per `z`, one x-line per `(y, z)`.
pub type BitGrid3 = WordGrid<Coord3>;

impl GridCoord for Coord3 {
    #[inline]
    fn xyz(self) -> (i32, i32, i32) {
        (self.x, self.y, self.z)
    }

    #[inline]
    fn from_xyz(x: i32, y: i32, z: i32) -> Self {
        Coord3::new(x, y, z)
    }
}

/// An inclusive box `lo..=hi`.
pub(crate) type Box3 = (Coord3, Coord3);

/// True when two boxes touch or overlap under 26-adjacency: their ±1
/// halos intersect on every axis. The exact test for solid boxes and the
/// proximity prefilter for anything else.
fn boxes_touch((alo, ahi): Box3, (blo, bhi): Box3) -> bool {
    alo.x <= bhi.x + 1
        && blo.x <= ahi.x + 1
        && alo.y <= bhi.y + 1
        && blo.y <= ahi.y + 1
        && alo.z <= bhi.z + 1
        && blo.z <= ahi.z + 1
}

/// Side of a [`BoxIndex`] bucket, as a shift: cubes of 4 nodes a side.
const BUCKET_SHIFT: u32 = 2;

/// True when a box is wider than a bucket along some axis.
fn is_big((lo, hi): Box3) -> bool {
    let side = 1 << BUCKET_SHIFT;
    hi.x - lo.x >= side || hi.y - lo.y >= side || hi.z - lo.z >= side
}

/// The boxes of the parts of a merge process, indexed for finding the
/// parts that touch a box. The mesh is cut into cubes of
/// `1 << BUCKET_SHIFT` nodes a side, and each bucket lists the small
/// parts whose box meets it: those no wider than a bucket on any axis, so
/// each is listed in at most eight buckets. The big parts are kept in one
/// list instead. A box only ever grows, so a merge lists a part again
/// only in the buckets its new box adds. The entries of a part that was
/// merged away or grew big are unlinked by the first query that walks
/// them, so a query costs the parts near its box, not every part that
/// ever was there.
pub(crate) struct BoxIndex {
    parts: Vec<IndexedPart>,
    /// The last bucket along each axis.
    last: Coord3,
    /// Per bucket, 1 + the index of its newest entry; 0 while empty.
    head: Vec<u32>,
    /// Per entry, its part and 1 + the index of the bucket's next older
    /// entry (0 at the oldest).
    entries: Vec<(u32, u32)>,
    /// The parts whose box is wider than a bucket.
    big: Vec<u32>,
    /// Per part, the last query that reported it.
    seen: Vec<u32>,
    query: u32,
}

/// A part of a [`BoxIndex`].
#[derive(Clone, Copy)]
struct IndexedPart {
    bbox: Box3,
    /// False once merged into another part.
    live: bool,
}

impl BoxIndex {
    /// An index over `mesh` holding `boxes` as parts `0..boxes.len()`.
    pub(crate) fn new(mesh: &Mesh3D, boxes: impl IntoIterator<Item = Box3>) -> Self {
        let last = Coord3::new(
            (mesh.width() - 1) >> BUCKET_SHIFT,
            (mesh.height() - 1) >> BUCKET_SHIFT,
            (mesh.depth() - 1) >> BUCKET_SHIFT,
        );
        let buckets = (last.x + 1) as usize * (last.y + 1) as usize * (last.z + 1) as usize;
        let parts: Vec<IndexedPart> = boxes
            .into_iter()
            .map(|bbox| IndexedPart { bbox, live: true })
            .collect();
        let mut index = BoxIndex {
            last,
            head: vec![0; buckets],
            entries: Vec::with_capacity(2 * parts.len()),
            big: Vec::new(),
            seen: vec![0; parts.len()],
            query: 0,
            parts,
        };
        for part in 0..index.parts.len() {
            index.list(part, None);
        }
        index
    }

    /// The box of `part`.
    pub(crate) fn bbox(&self, part: usize) -> Box3 {
        self.parts[part].bbox
    }

    /// The parts not merged away, in increasing order.
    pub(crate) fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.parts.len()).filter(|&i| self.parts[i].live)
    }

    /// Merges the parts of `class` into its first, whose box becomes the
    /// joint box `bbox` of the class.
    pub(crate) fn merge(&mut self, class: &[usize], bbox: Box3) {
        for &i in &class[1..] {
            self.parts[i].live = false;
        }
        let old = std::mem::replace(&mut self.parts[class[0]].bbox, bbox);
        if old != bbox {
            self.list(class[0], Some(old));
        }
    }

    /// The buckets a box meets, clipped to the mesh.
    fn buckets(&self, (lo, hi): Box3) -> Box3 {
        let bucket = |c: i32, last: i32| (c.max(0) >> BUCKET_SHIFT).min(last);
        let last = self.last;
        (
            Coord3::new(
                bucket(lo.x, last.x),
                bucket(lo.y, last.y),
                bucket(lo.z, last.z),
            ),
            Coord3::new(
                bucket(hi.x, last.x),
                bucket(hi.y, last.y),
                bucket(hi.z, last.z),
            ),
        )
    }

    /// The flat index of bucket `(x, y, z)`.
    fn bucket(&self, x: i32, y: i32, z: i32) -> usize {
        let (nx, ny) = ((self.last.x + 1) as usize, (self.last.y + 1) as usize);
        x as usize + nx * (y as usize + ny * z as usize)
    }

    /// Lists `part`, whose box was `old` (`None` for a new part): among
    /// the big parts once it is big, else in every bucket its box meets
    /// and `old` did not.
    fn list(&mut self, part: usize, old: Option<Box3>) {
        let bbox = self.parts[part].bbox;
        if is_big(bbox) {
            if !old.is_some_and(is_big) {
                self.big.push(part as u32);
            }
            return;
        }
        let (lo, hi) = self.buckets(bbox);
        let old = old.map(|b| self.buckets(b));
        for z in lo.z..=hi.z {
            for y in lo.y..=hi.y {
                for x in lo.x..=hi.x {
                    if !old.is_some_and(|o| within((x, y, z), o)) {
                        let k = self.bucket(x, y, z);
                        self.entries.push((part as u32, self.head[k]));
                        self.head[k] = self.entries.len() as u32;
                    }
                }
            }
        }
    }

    /// Calls `visit` once for every other part, not merged away, whose box
    /// touches the box of `part` under 26-adjacency (their ±1 halos
    /// intersect on every axis).
    pub(crate) fn touching(&mut self, part: usize, mut visit: impl FnMut(usize)) {
        let bbox = self.parts[part].bbox;
        self.query += 1;
        self.seen[part] = self.query;
        let mut test = |index: &mut Self, p: u32| {
            let p = p as usize;
            if index.seen[p] != index.query {
                index.seen[p] = index.query;
                let other = index.parts[p];
                if other.live && boxes_touch(bbox, other.bbox) {
                    visit(p);
                }
            }
        };
        let (blo, bhi) = self.buckets(halo(bbox));
        for z in blo.z..=bhi.z {
            for y in blo.y..=bhi.y {
                for x in blo.x..=bhi.x {
                    self.walk(self.bucket(x, y, z), &mut test);
                }
            }
        }
        let parts = &self.parts;
        self.big.retain(|&p| parts[p as usize].live);
        for k in 0..self.big.len() {
            test(self, self.big[k]);
        }
    }

    /// Calls `test` on every part listed in bucket `k`, unlinking the
    /// entries of parts that were merged away or grew big.
    fn walk(&mut self, k: usize, test: &mut impl FnMut(&mut Self, u32)) {
        let (mut prev, mut next): (Option<usize>, u32) = (None, self.head[k]);
        while next != 0 {
            let e = next as usize - 1;
            let (p, older) = self.entries[e];
            next = older;
            let other = self.parts[p as usize];
            if !other.live || is_big(other.bbox) {
                match prev {
                    None => self.head[k] = older,
                    Some(q) => self.entries[q].1 = older,
                }
                continue;
            }
            prev = Some(e);
            test(self, p);
        }
    }
}

/// A box with a one-node halo.
fn halo((lo, hi): Box3) -> Box3 {
    (
        Coord3::new(lo.x - 1, lo.y - 1, lo.z - 1),
        Coord3::new(hi.x + 1, hi.y + 1, hi.z + 1),
    )
}

/// True when `(x, y, z)` lies in the box `lo..=hi`.
fn within((x, y, z): (i32, i32, i32), (lo, hi): Box3) -> bool {
    (lo.x..=hi.x).contains(&x) && (lo.y..=hi.y).contains(&y) && (lo.z..=hi.z).contains(&z)
}

/// Number of nodes in a box.
pub(crate) fn volume((lo, hi): Box3) -> u64 {
    (hi.x - lo.x + 1) as u64 * (hi.y - lo.y + 1) as u64 * (hi.z - lo.z + 1) as u64
}

/// A union-find over `0..n` with path halving: the regrouping step of
/// the 3-D merge process.
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton classes.
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// The representative of `i`'s class.
    pub(crate) fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// Joins the classes of `a` and `b`.
    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The regrouping step of the 3-D merge process: a union-find over a
/// fixed set of parts, kept for the whole fixpoint. A round
/// [`join`](Self::join)s the pairs that touch and then
/// [`drain_classes`](Self::drain_classes) hands out each class it joined;
/// only the entries the round touched are visited and reset, so a round
/// costs what grew rather than the number of parts.
pub(crate) struct Regroup {
    classes: UnionFind,
    /// Every part passed to `join` since the last drain, once: each member
    /// of a joined class was, so these are exactly the entries to reset.
    touched: Vec<usize>,
    /// Per part, whether it is in `touched`.
    marked: Vec<bool>,
}

impl Regroup {
    /// A regrouping over parts `0..n`, all apart.
    pub(crate) fn new(n: usize) -> Self {
        Regroup {
            classes: UnionFind::new(n),
            touched: Vec::new(),
            marked: vec![false; n],
        }
    }

    /// Records that parts `a` and `b` touch.
    pub(crate) fn join(&mut self, a: usize, b: usize) {
        self.classes.union(a, b);
        for i in [a, b] {
            if !self.marked[i] {
                self.marked[i] = true;
                self.touched.push(i);
            }
        }
    }

    /// Calls `merge` once per class joined since the last drain, with the
    /// class's members in increasing order (so `class[0]` is the member
    /// the merged part replaces), then leaves every part apart again.
    pub(crate) fn drain_classes(&mut self, mut merge: impl FnMut(&[usize])) {
        // Point every touched entry at its root, so one sort groups the
        // classes.
        for &i in &self.touched {
            let root = self.classes.find(i);
            self.classes.parent[i] = root;
        }
        let parent = &mut self.classes.parent;
        self.touched.sort_unstable_by_key(|&i| (parent[i], i));
        for class in self.touched.chunk_by(|&a, &b| parent[a] == parent[b]) {
            merge(class);
        }
        for &i in &self.touched {
            parent[i] = i;
            self.marked[i] = false;
        }
        self.touched.clear();
    }
}

/// Storage-order sort key of a cell: `z`, then `y`, then `x`.
pub(crate) fn zyx(c: Coord3) -> (i32, i32, i32) {
    (c.z, c.y, c.x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{BitScratch, Connectivity};

    fn grid(list: &[(i32, i32, i32)]) -> BitGrid3 {
        BitGrid3::from_coords(list.iter().map(|&(x, y, z)| Coord3::new(x, y, z)))
    }

    #[test]
    fn set_contains_iter_round_trip() {
        let g = grid(&[(0, 0, 0), (63, 1, 2), (64, 1, 2), (-3, -3, -3)]);
        assert_eq!(g.len(), 4);
        assert!(g.contains(Coord3::new(64, 1, 2)));
        assert!(!g.contains(Coord3::new(1, 0, 0)));
        assert!(!g.contains(Coord3::new(500, 0, 0)));
        let collected: Vec<Coord3> = g.iter().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[0], Coord3::new(-3, -3, -3));
    }

    #[test]
    fn insert_grows_and_bounding_box_is_tight() {
        let mut g = BitGrid3::empty();
        assert!(g.insert(Coord3::new(5, 5, 5)));
        assert!(g.insert(Coord3::new(-2, 7, 5)));
        assert!(!g.insert(Coord3::new(5, 5, 5)));
        let (lo, hi) = g.bounding_box().unwrap();
        assert_eq!(lo, Coord3::new(-2, 5, 5));
        assert_eq!(hi, Coord3::new(5, 7, 5));
        assert!(g.remove(Coord3::new(5, 5, 5)));
        assert_eq!(g.len(), 1);
        assert_eq!(BitGrid3::empty().bounding_box(), None);
    }

    #[test]
    fn set_algebra_whole_word() {
        let a = grid(&[(0, 0, 0), (70, 1, 1)]);
        let b = grid(&[(70, 1, 1), (100, 2, 2)]);
        assert!(a.intersects(&b));
        assert!(!a.is_subset_of(&b));
        assert!(grid(&[(70, 1, 1)]).is_subset_of(&a));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 3);
        let mut d = u.clone();
        d.subtract(&a);
        assert_eq!(d.len(), 1);
        assert!(d.contains(Coord3::new(100, 2, 2)));
    }

    /// `union_with` against the per-cell set union, for a pair of grids
    /// and both argument orders.
    fn assert_union_is_set_union(a: &BitGrid3, b: &BitGrid3) {
        for (x, y) in [(a, b), (b, a)] {
            let mut u = x.clone();
            u.union_with(y);
            let expected: std::collections::BTreeSet<(i32, i32, i32)> =
                x.iter().chain(y.iter()).map(|c| (c.x, c.y, c.z)).collect();
            let got: std::collections::BTreeSet<(i32, i32, i32)> =
                u.iter().map(|c| (c.x, c.y, c.z)).collect();
            assert_eq!(got, expected);
            assert_eq!(u.len(), expected.len());
        }
    }

    #[test]
    fn union_across_different_y_z_frames() {
        // Disjoint, nested and partly overlapping (y, z) frames.
        let a = grid(&[(1, 0, 0), (2, 3, 1), (5, 4, 2)]);
        for b in [
            grid(&[(1, 9, 9), (3, 12, 10)]),
            grid(&[(2, 3, 1)]),
            grid(&[(4, 2, 2), (0, 7, 5), (5, 4, 2)]),
        ] {
            assert_union_is_set_union(&a, &b);
        }
        // A frame wider than its content: `other`'s empty border lies
        // outside `self`'s frame and must not grow it.
        let mut wide = BitGrid3::with_bounds(Coord3::new(0, -5, -5), Coord3::new(10, 20, 20));
        wide.set(Coord3::new(2, 3, 1));
        let mut u = a.clone();
        u.union_with(&wide);
        assert_eq!(u.len(), 3);
        assert_eq!(u.frame_bounds(), a.frame_bounds());
    }

    #[test]
    fn union_with_negative_origins() {
        let a = grid(&[(-1, -1, -1), (-70, -3, -2)]);
        let b = grid(&[(-65, -2, -9), (0, 0, 0), (-128, 4, 1)]);
        assert_union_is_set_union(&a, &b);
        let mut u = BitGrid3::empty();
        u.union_with(&b);
        assert_eq!(u.len(), 3);
        assert!(u.contains(Coord3::new(-128, 4, 1)));
    }

    #[test]
    fn union_with_x_origins_whole_words_apart() {
        // Frames starting at x = 0, 64, 128 and -64: the content's word
        // columns map across different word offsets.
        let a = grid(&[(0, 0, 0), (63, 1, 0)]);
        let b = grid(&[(64, 0, 0), (127, 1, 1)]);
        let c = grid(&[(130, 2, 0), (200, 0, 1)]);
        let d = grid(&[(-64, 0, 0), (-1, 1, 1)]);
        for (x, y) in [(&a, &b), (&a, &c), (&b, &c), (&a, &d), (&d, &c)] {
            assert_union_is_set_union(x, y);
        }
        // A wide accumulator absorbing a narrow grid deep inside it.
        let mut acc = BitGrid3::with_bounds(Coord3::new(-128, 0, 0), Coord3::new(255, 3, 3));
        acc.union_with(&c);
        assert_eq!(acc.len(), 2);
        assert!(acc.contains(Coord3::new(200, 0, 1)));
        assert_eq!(acc.frame_bounds().0, Coord3::new(-128, 0, 0));
    }

    #[test]
    fn solid_box_matches_the_per_cell_cuboid() {
        for (x0, width) in [
            (0, 63),
            (0, 64),
            (0, 65),
            (1, 63),
            (60, 65),
            (-3, 64),
            (-70, 65),
        ] {
            let (lo, hi) = (Coord3::new(x0, -2, -4), Coord3::new(x0 + width - 1, 1, -3));
            let mut cells = Vec::new();
            for z in lo.z..=hi.z {
                for y in lo.y..=hi.y {
                    for x in lo.x..=hi.x {
                        cells.push(Coord3::new(x, y, z));
                    }
                }
            }
            let solid = BitGrid3::solid_box(lo, hi);
            let per_cell = BitGrid3::from_coords(cells);
            assert_eq!(solid.len(), per_cell.len(), "x0 {x0} width {width}");
            assert!(solid.is_subset_of(&per_cell), "x0 {x0} width {width}");
            assert_eq!(solid.bounding_box(), Some((lo, hi)));
        }
    }

    /// `fill_box` against the per-cell box, ORed into a grid that already
    /// holds cells inside and outside the box.
    fn assert_fill_box_matches_cells(frame: (Coord3, Coord3), lo: Coord3, hi: Coord3) {
        let outside = frame.0;
        let mut g = BitGrid3::with_bounds(frame.0, frame.1);
        g.set(outside);
        g.set(hi);
        g.fill_box(lo, hi);
        let mut expected = std::collections::BTreeSet::from([(outside.x, outside.y, outside.z)]);
        for z in lo.z..=hi.z {
            for y in lo.y..=hi.y {
                for x in lo.x..=hi.x {
                    expected.insert((x, y, z));
                }
            }
        }
        let got: std::collections::BTreeSet<(i32, i32, i32)> =
            g.iter().map(|c| (c.x, c.y, c.z)).collect();
        assert_eq!(got, expected, "box {lo:?}..={hi:?}");
    }

    #[test]
    fn fill_box_sets_exactly_the_box() {
        // A 70 x 5 x 4 "mesh" frame starting at the origin.
        let frame = (Coord3::new(0, 0, 0), Coord3::new(69, 4, 3));
        let (lo, hi) = frame;
        // A box on the mesh border (the far x/y/z faces).
        assert_fill_box_matches_cells(frame, Coord3::new(66, 3, 2), hi);
        // The whole mesh.
        assert_fill_box_matches_cells(frame, lo, hi);
        // x-extents crossing the 63/64 word boundary, and ending on it.
        assert_fill_box_matches_cells(frame, Coord3::new(63, 1, 1), Coord3::new(64, 2, 2));
        assert_fill_box_matches_cells(frame, Coord3::new(60, 0, 0), Coord3::new(63, 4, 0));
        assert_fill_box_matches_cells(frame, Coord3::new(64, 0, 3), Coord3::new(64, 0, 3));
        // A frame whose x-origin is a negative word.
        let negative = (Coord3::new(-70, -2, -1), Coord3::new(5, 1, 1));
        assert_fill_box_matches_cells(negative, Coord3::new(-65, -1, 0), Coord3::new(-63, 1, 1));
    }

    #[test]
    fn min_cell_is_the_first_cell_in_storage_order() {
        let g = grid(&[(5, 2, 3), (1, 7, 3), (90, 1, 3), (0, 0, 4)]);
        assert_eq!(g.min_cell(), Some(Coord3::new(90, 1, 3)));
        assert_eq!(g.min_cell(), g.iter().next());
        assert_eq!(BitGrid3::empty().min_cell(), None);
    }

    #[test]
    fn dilate26_matches_scalar_neighborhood() {
        let g = grid(&[(1, 1, 1), (63, 0, 0)]);
        let dilated = g.dilate();
        let mut expected = std::collections::BTreeSet::new();
        for c in g.iter() {
            for dz in -1..=1 {
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        expected.insert((c.x + dx, c.y + dy, c.z + dz));
                    }
                }
            }
        }
        let got: std::collections::BTreeSet<(i32, i32, i32)> =
            dilated.iter().map(|c| (c.x, c.y, c.z)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn dilate26_handles_frames_wider_than_their_content() {
        // Frame spans two words; content sits in the second word, so the
        // output frame starts right of the source frame.
        let mut g = BitGrid3::with_bounds(Coord3::new(0, 0, 0), Coord3::new(127, 2, 2));
        g.set(Coord3::new(100, 1, 1));
        let dilated = g.dilate();
        assert_eq!(dilated.len(), 27);
        assert!(dilated.contains(Coord3::new(99, 0, 0)));
        assert!(dilated.contains(Coord3::new(101, 2, 2)));
    }

    #[test]
    fn components_and_hull_basics() {
        // A diagonal chain is one 26-component; a detached node is another.
        let g = grid(&[(0, 0, 0), (1, 1, 1), (2, 2, 2), (9, 0, 0)]);
        let comps = g.flood(Connectivity::Eight, &mut BitScratch::new());
        assert_eq!(comps.len(), 2);
        assert_eq!(comps.iter().map(BitGrid3::len).sum::<usize>(), 4);

        // U-shape in the z=0 plane: the hull fills the notch.
        let mut u = grid(&[(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0)]);
        assert!(!u.is_orthogonally_convex());
        let (_, added) = u.hull_fixpoint(&mut BitScratch::new());
        assert_eq!(added, 1);
        assert!(u.contains(Coord3::new(1, 1, 0)));
        assert!(u.is_orthogonally_convex());
    }

    /// The parts `touching` reports, sorted, against a scan of every part.
    fn assert_touching_matches_a_scan(index: &mut BoxIndex, part: usize) {
        let mut found = Vec::new();
        index.touching(part, |j| found.push(j));
        found.sort_unstable();
        let scan: Vec<usize> = index
            .live()
            .filter(|&j| j != part && boxes_touch(index.bbox(part), index.bbox(j)))
            .collect();
        assert_eq!(found, scan, "part {part} with box {:?}", index.bbox(part));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Small and big boxes on meshes up to two filled-bitmap words
        /// wide, merged into classes round after round: every query finds
        /// exactly the live parts whose boxes touch.
        #[test]
        fn box_index_finds_exactly_the_touching_parts(
            dims in (1i32..300, 1i32..14, 1i32..14),
            boxes in proptest::collection::vec(
                ((0i32..300, 0i32..14, 0i32..14), (0i32..9, 0i32..9, 0i32..9)),
                1..60,
            ),
            merges in proptest::collection::vec((0usize..60, 0usize..60, 0usize..60), 0..20),
        ) {
            let mesh = Mesh3D::new(dims.0 as u32, dims.1 as u32, dims.2 as u32);
            let clip = |c: i32, side: i32| c.min(side - 1);
            let boxes: Vec<Box3> = boxes
                .iter()
                .map(|&((x, y, z), (w, h, d))| {
                    let lo = Coord3::new(clip(x, dims.0), clip(y, dims.1), clip(z, dims.2));
                    let hi = Coord3::new(
                        clip(lo.x + w, dims.0),
                        clip(lo.y + h, dims.1),
                        clip(lo.z + d, dims.2),
                    );
                    (lo, hi)
                })
                .collect();
            let mut index = BoxIndex::new(&mesh, boxes);
            for (a, b, c) in merges {
                let live: Vec<usize> = index.live().collect();
                for part in &live {
                    assert_touching_matches_a_scan(&mut index, *part);
                }
                let mut class = vec![live[a % live.len()], live[b % live.len()], live[c % live.len()]];
                class.sort_unstable();
                class.dedup();
                let bbox = class
                    .iter()
                    .map(|&i| index.bbox(i))
                    .reduce(mesh2d::bitgrid::joint_box)
                    .unwrap();
                index.merge(&class, bbox);
            }
            for part in index.live().collect::<Vec<_>>() {
                assert_touching_matches_a_scan(&mut index, part);
            }
        }
    }
}
