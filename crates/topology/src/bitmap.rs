//! The shared word-packed bitmap vocabulary of the mesh topologies.
//!
//! Every [`MeshTopology`](crate::MeshTopology) names a `Bitmap` type —
//! `mesh2d::BitGrid` in 2-D, `mocp_3d::BitGrid3` in 3-D — implementing
//! [`BitmapOps`]: a node set packed 64 nodes per `u64` word, with the
//! whole-word operations the generic layers' hot predicates are built
//! from (subset / intersection tests for the `Outcome` safety checks,
//! cluster-neighborhood dilation for the flood frontiers and the
//! clustered fault distribution's boost set, and the orthogonal-convexity
//! scan of Definition 1).
//!
//! A new topology joins the bit-parallel fast path by implementing this
//! one trait next to its `MeshTopology` impl. Each dimension's region
//! type is a bitmap of this kind ([`RegionOps::bitmap`](crate::RegionOps::bitmap)
//! borrows it); the scalar sets they replaced are the test oracles.

use std::fmt::Debug;

/// A word-packed node set of one mesh dimension.
///
/// Implementations store one bit per node over a rectangular (2-D) or
/// box-shaped (3-D) frame that grows on demand; binary operations between
/// two bitmaps run whole-word (the frames share a 64-aligned phase on the
/// packed axis).
pub trait BitmapOps: Clone + Debug + Default + Send + Sync + 'static {
    /// The node address type of the bitmap's topology.
    type Coord: Copy + Debug;

    /// The empty bitmap.
    fn empty() -> Self;

    /// Builds a bitmap from coordinates (duplicates are ignored), framed
    /// by their bounding box.
    fn from_coords(coords: &[Self::Coord]) -> Self;

    /// An empty bitmap framed over the joint bounding box of the set
    /// nodes of `parts`, so that unioning them all in never regrows it.
    fn framed_over(parts: &[&Self]) -> Self;

    /// Number of set nodes.
    fn len(&self) -> usize;

    /// True when no node is set.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    fn contains(&self, c: Self::Coord) -> bool;

    /// Inserts a node, growing the frame when needed. Returns `true` when
    /// newly set.
    fn insert(&mut self, c: Self::Coord) -> bool;

    /// `self |= other` (whole-word OR; grows the frame when needed).
    fn union_with(&mut self, other: &Self);

    /// `self &= !other` (whole-word AND-NOT).
    fn subtract(&mut self, other: &Self);

    /// True when the two bitmaps share a node (whole-word AND scan).
    fn intersects(&self, other: &Self) -> bool;

    /// True when every node of `self` is in `other` (whole-word AND-NOT
    /// scan).
    fn is_subset_of(&self, other: &Self) -> bool;

    /// The orthogonal-convexity test of Definition 1, word-parallel.
    fn is_orthogonally_convex(&self) -> bool;

    /// The cluster-neighborhood dilation of the dimension (8-neighborhood
    /// in 2-D, 26-neighborhood in 3-D) as shifted-word ORs: every set node
    /// plus all its cluster neighbors.
    fn dilate_cluster(&self) -> Self;

    /// The set nodes, in the bitmap's deterministic storage order.
    fn coords(&self) -> Vec<Self::Coord>;
}

impl BitmapOps for mesh2d::BitGrid {
    type Coord = mesh2d::Coord;

    fn empty() -> Self {
        mesh2d::BitGrid::empty()
    }

    fn from_coords(coords: &[mesh2d::Coord]) -> Self {
        mesh2d::BitGrid::from_coords(coords.iter().copied())
    }

    fn framed_over(parts: &[&Self]) -> Self {
        parts
            .iter()
            .filter_map(|part| part.bounding_rect())
            .reduce(|a, b| a.union(&b))
            .map_or_else(mesh2d::BitGrid::empty, |r| {
                mesh2d::BitGrid::with_bounds(r.min(), r.max())
            })
    }

    fn len(&self) -> usize {
        mesh2d::BitGrid::len(self)
    }

    fn contains(&self, c: mesh2d::Coord) -> bool {
        mesh2d::BitGrid::contains(self, c)
    }

    fn insert(&mut self, c: mesh2d::Coord) -> bool {
        mesh2d::BitGrid::insert(self, c)
    }

    fn union_with(&mut self, other: &Self) {
        mesh2d::BitGrid::union_with(self, other)
    }

    fn subtract(&mut self, other: &Self) {
        mesh2d::BitGrid::subtract(self, other)
    }

    fn intersects(&self, other: &Self) -> bool {
        mesh2d::BitGrid::intersects(self, other)
    }

    fn is_subset_of(&self, other: &Self) -> bool {
        mesh2d::BitGrid::is_subset_of(self, other)
    }

    fn is_orthogonally_convex(&self) -> bool {
        mesh2d::BitGrid::is_orthogonally_convex(self)
    }

    fn dilate_cluster(&self) -> Self {
        self.dilate8()
    }

    fn coords(&self) -> Vec<mesh2d::Coord> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{BitGrid, Coord};

    #[test]
    fn bitgrid_implements_the_shared_ops() {
        let coords = [Coord::new(0, 0), Coord::new(65, 2)];
        let mut b = <BitGrid as BitmapOps>::from_coords(&coords);
        assert_eq!(BitmapOps::len(&b), 2);
        assert!(BitmapOps::contains(&b, Coord::new(65, 2)));
        assert!(BitmapOps::insert(&mut b, Coord::new(-5, -5)));
        assert!(!BitmapOps::is_empty(&b));
        assert!(b.is_orthogonally_convex() || !b.is_orthogonally_convex()); // total
        let dilated = b.dilate_cluster();
        assert!(b.is_subset_of(&dilated));
        assert!(dilated.intersects(&b));
        assert_eq!(BitmapOps::coords(&b).len(), 3);
        let mut d = dilated.clone();
        d.subtract(&b);
        assert!(!d.contains(Coord::new(0, 0)));
        let mut u = <BitGrid as BitmapOps>::empty();
        u.union_with(&b);
        assert_eq!(BitmapOps::len(&u), 3);
    }
}
