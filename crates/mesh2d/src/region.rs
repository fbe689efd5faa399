//! Arbitrary node sets (regions) with the geometric queries the paper needs.
//!
//! A *region* is any set of mesh nodes. The queries provided here are exactly
//! the ones the algorithms in `fblock` and `mocp-core` are built from:
//!
//! * connectivity decomposition under 4- or 8-adjacency,
//! * the orthogonal-convexity test of Definition 1,
//! * the (iterated) orthogonal convex hull — the minimum orthogonal convex
//!   superset of a region,
//! * bounding boxes and membership tests.
//!
//! Every query runs on the region's word-packed [`BitGrid`]; the scalar
//! ordered-set implementation they replaced is the oracle of the
//! `region_oracle` test.

use crate::bitgrid::XMajor;
use crate::{BitGrid, BitScratch, Coord, Rect};
use std::fmt;

/// Which adjacency relation to use when decomposing a region into connected
/// components.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Connectivity {
    /// 4-adjacency: nodes sharing a mesh link.
    Four,
    /// 8-adjacency (Definition 2): nodes within Chebyshev distance 1. This is
    /// the relation used by the paper's component merge process.
    Eight,
}

/// A set of mesh nodes.
///
/// The set is a word-packed [`BitGrid`] window (64 nodes per `u64`) framed
/// by the nodes' bounding box, plus its node count, so `len` is O(1) and the
/// set algebra runs whole words at a time. Memory follows the bounding box,
/// not the node count. The frame is a representation detail: equality is
/// set equality, and iteration is in x-major, then y order whatever the
/// frame, which keeps the distributed protocol simulation and the
/// experiments reproducible.
#[derive(Clone, Default)]
pub struct Region {
    bits: BitGrid,
    len: usize,
}

impl Region {
    /// The empty region.
    pub fn new() -> Self {
        Region::default()
    }

    /// Builds a region from any coordinate collection.
    pub fn from_coords(coords: impl IntoIterator<Item = Coord>) -> Self {
        Region::from_bits(BitGrid::from_coords(coords))
    }

    /// Wraps a word-packed node set, whatever its frame.
    pub fn from_bits(bits: BitGrid) -> Self {
        let len = bits.len();
        Region { bits, len }
    }

    /// Builds a region containing every node of `rect`.
    pub fn from_rect(rect: Rect) -> Self {
        Self::from_coords(rect.nodes())
    }

    /// The region's word-packed node set.
    pub fn bits(&self) -> &BitGrid {
        &self.bits
    }

    /// The region's word-packed node set, by value.
    pub fn into_bits(self) -> BitGrid {
        self.bits
    }

    /// Number of nodes in the region.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the region contains no node.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `c` belongs to the region.
    pub fn contains(&self, c: Coord) -> bool {
        self.bits.contains(c)
    }

    /// Inserts a node; returns `true` if it was not present. A node outside
    /// the frame re-frames the region with room to spare, so a run of
    /// inserts growing outward costs amortised O(1) each.
    pub fn insert(&mut self, c: Coord) -> bool {
        let newly = self.bits.insert(c);
        self.len += usize::from(newly);
        newly
    }

    /// Removes a node; returns `true` if it was present.
    pub fn remove(&mut self, c: Coord) -> bool {
        let was = self.bits.remove(c);
        self.len -= usize::from(was);
        was
    }

    /// Iterates over nodes in deterministic (x-major, then y) order.
    pub fn iter(&self) -> XMajor<'_> {
        self.bits.iter_x_major()
    }

    /// The union of two regions.
    pub fn union(&self, other: &Region) -> Region {
        let (big, small) = if self.len >= other.len {
            (self, other)
        } else {
            (other, self)
        };
        let mut bits = big.bits.clone();
        bits.union_with(&small.bits);
        Region::from_bits(bits)
    }

    /// The set difference `self \ other`.
    pub fn difference(&self, other: &Region) -> Region {
        let mut bits = self.bits.clone();
        bits.subtract(&other.bits);
        Region::from_bits(bits)
    }

    /// The intersection of two regions.
    pub fn intersection(&self, other: &Region) -> Region {
        let mut bits = self.bits.clone();
        bits.intersect_with(&other.bits);
        Region::from_bits(bits)
    }

    /// True when the two regions share no node.
    pub fn is_disjoint(&self, other: &Region) -> bool {
        !self.bits.intersects(&other.bits)
    }

    /// True when every node of `self` is in `other`.
    pub fn is_subset(&self, other: &Region) -> bool {
        self.len <= other.len && self.bits.is_subset_of(&other.bits)
    }

    /// The bounding box `[(min_x, min_y), (max_x, max_y)]`, or `None` for the
    /// empty region.
    pub fn bounding_rect(&self) -> Option<Rect> {
        self.bits.bounding_rect()
    }

    /// Decomposes the region into connected components under the given
    /// adjacency. Components are returned in deterministic order (by their
    /// smallest node).
    pub fn components(&self, connectivity: Connectivity) -> Vec<Region> {
        self.bits
            .component_regions_with(connectivity, &mut BitScratch::new())
    }

    /// True when the region is connected under the given adjacency.
    /// The empty region is considered connected.
    pub fn is_connected(&self, connectivity: Connectivity) -> bool {
        self.is_empty() || self.components(connectivity).len() == 1
    }

    /// The orthogonal-convexity test of **Definition 1**: for any horizontal
    /// or vertical line, if two nodes on the line are inside the region then
    /// every node between them is also inside.
    ///
    /// Equivalently, the region's intersection with every row and every
    /// column is a contiguous run.
    pub fn is_orthogonally_convex(&self) -> bool {
        self.bits.is_orthogonally_convex()
    }

    /// The minimum orthogonal convex superset of this region: repeatedly fill
    /// every gap between two region nodes that share a row or a column until
    /// a fixpoint is reached (the bit-parallel hull fixpoint).
    ///
    /// For an 8-connected region a single fill pass already reaches the
    /// fixpoint, but iterating keeps the result correct for arbitrary input
    /// and makes the convexity of the output self-evident.
    pub fn orthogonal_convex_hull(&self) -> Region {
        let mut bits = self.bits.clone();
        let (_, added) = bits.hull_fixpoint(&mut BitScratch::new());
        Region {
            bits,
            len: self.len + added as usize,
        }
    }

    /// The nodes of `self` that do **not** belong to `other`.
    pub fn minus_count(&self, other: &Region) -> usize {
        self.len - self.bits.intersection_len(&other.bits)
    }

    /// The boundary nodes of the region's complement that are 4-adjacent to
    /// the region — i.e. the non-member nodes hugging the region. Used by the
    /// distributed boundary-ring construction.
    pub fn outer_boundary4(&self) -> Region {
        Region::from_coords(
            self.bits
                .iter()
                .flat_map(|c| c.neighbors4())
                .filter(|&n| !self.contains(n)),
        )
    }
}

impl PartialEq for Region {
    fn eq(&self, other: &Region) -> bool {
        self.len == other.len && self.bits.is_subset_of(&other.bits)
    }
}

impl Eq for Region {}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Coord> for Region {
    fn from_iter<T: IntoIterator<Item = Coord>>(iter: T) -> Self {
        Region::from_coords(iter)
    }
}

impl<'a> IntoIterator for &'a Region {
    type Item = Coord;
    type IntoIter = XMajor<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords(list: &[(i32, i32)]) -> Region {
        Region::from_coords(list.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    #[test]
    fn basic_set_operations() {
        let mut r = Region::new();
        assert!(r.is_empty());
        assert!(r.insert(Coord::new(1, 1)));
        assert!(!r.insert(Coord::new(1, 1)));
        assert_eq!(r.len(), 1);
        assert!(r.contains(Coord::new(1, 1)));
        assert!(r.remove(Coord::new(1, 1)));
        assert!(r.is_empty());
    }

    #[test]
    fn union_difference_intersection() {
        let a = coords(&[(0, 0), (1, 0)]);
        let b = coords(&[(1, 0), (2, 0)]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.difference(&b).len(), 1);
        assert_eq!(a.intersection(&b).len(), 1);
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
        assert!(a.intersection(&b).is_subset(&a));
    }

    #[test]
    fn l_shape_from_paper_is_convex() {
        // The paper's Figure 2 example: {(2,4), (3,4), (4,3)} is an L-shape
        // orthogonal convex polygon.
        let l = coords(&[(2, 4), (3, 4), (4, 3)]);
        assert!(l.is_orthogonally_convex());
    }

    #[test]
    fn u_shape_is_not_convex() {
        // U-shape: two vertical arms joined at the bottom — row 1 has nodes
        // at x=0 and x=2 but not x=1.
        let u = coords(&[(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]);
        assert!(!u.is_orthogonally_convex());
    }

    #[test]
    fn plus_t_shapes_are_convex() {
        let plus = coords(&[(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]);
        assert!(plus.is_orthogonally_convex());
        let t = coords(&[(0, 1), (1, 1), (2, 1), (1, 0)]);
        assert!(t.is_orthogonally_convex());
    }

    #[test]
    fn h_shape_is_not_convex() {
        let h = coords(&[(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2), (1, 1)]);
        // columns are fine but rows 0 and 2 have gaps at x = 1
        assert!(!h.is_orthogonally_convex());
    }

    #[test]
    fn rectangles_are_convex() {
        let r = Region::from_rect(Rect::new(Coord::new(2, 2), Coord::new(5, 4)));
        assert!(r.is_orthogonally_convex());
        assert_eq!(r.len(), 12);
    }

    #[test]
    fn diagonal_staircase_is_convex() {
        // Each row and column holds a single node, so Definition 1 holds
        // vacuously.
        let stairs = coords(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert!(stairs.is_orthogonally_convex());
    }

    #[test]
    fn components_four_vs_eight() {
        // Two diagonal nodes: separate under 4-adjacency, one component under
        // 8-adjacency (Definition 2).
        let r = coords(&[(0, 0), (1, 1)]);
        assert_eq!(r.components(Connectivity::Four).len(), 2);
        assert_eq!(r.components(Connectivity::Eight).len(), 1);
        assert!(!r.is_connected(Connectivity::Four));
        assert!(r.is_connected(Connectivity::Eight));
    }

    #[test]
    fn components_deterministic_order() {
        let r = coords(&[(5, 5), (0, 0), (5, 6)]);
        let comps = r.components(Connectivity::Eight);
        assert_eq!(comps.len(), 2);
        assert!(comps[0].contains(Coord::new(0, 0)));
        assert_eq!(comps[1].len(), 2);
    }

    #[test]
    fn empty_region_is_connected_and_convex() {
        let r = Region::new();
        assert!(r.is_connected(Connectivity::Four));
        assert!(r.is_orthogonally_convex());
        assert!(r.bounding_rect().is_none());
        assert!(r.orthogonal_convex_hull().is_empty());
    }

    #[test]
    fn hull_of_u_shape_fills_the_notch() {
        let u = coords(&[(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]);
        let hull = u.orthogonal_convex_hull();
        assert!(hull.contains(Coord::new(1, 1)));
        assert_eq!(hull.len(), 6);
        assert!(hull.is_orthogonally_convex());
        assert!(u.is_subset(&hull));
    }

    #[test]
    fn hull_of_v_shape_single_pass_equivalent() {
        // V-shaped 8-connected component; the hull must fill the interior of
        // the V but nothing outside its rows/columns.
        let v = coords(&[(0, 2), (1, 1), (2, 0), (3, 1), (4, 2)]);
        let hull = v.orthogonal_convex_hull();
        assert!(hull.is_orthogonally_convex());
        assert!(hull.contains(Coord::new(2, 1)));
        assert!(hull.contains(Coord::new(2, 2)));
        assert!(!hull.contains(Coord::new(0, 0)));
        assert!(!hull.contains(Coord::new(2, 3)));
    }

    #[test]
    fn hull_is_minimal_for_convex_input() {
        let l = coords(&[(2, 4), (3, 4), (4, 3)]);
        assert_eq!(l.orthogonal_convex_hull(), l);
    }

    #[test]
    fn bounding_rect_matches_extremes() {
        let r = coords(&[(2, 7), (5, 1), (3, 3)]);
        let b = r.bounding_rect().unwrap();
        assert_eq!(b.min(), Coord::new(2, 1));
        assert_eq!(b.max(), Coord::new(5, 7));
    }

    #[test]
    fn outer_boundary_hugs_region() {
        let r = coords(&[(1, 1)]);
        let b = r.outer_boundary4();
        assert_eq!(b.len(), 4);
        assert!(b.contains(Coord::new(0, 1)));
        assert!(b.contains(Coord::new(2, 1)));
        assert!(b.contains(Coord::new(1, 0)));
        assert!(b.contains(Coord::new(1, 2)));
        assert!(b.is_disjoint(&r));
    }

    #[test]
    fn minus_count() {
        let a = coords(&[(0, 0), (1, 0), (2, 0)]);
        let b = coords(&[(1, 0)]);
        assert_eq!(a.minus_count(&b), 2);
        assert_eq!(b.minus_count(&a), 0);
    }
}
