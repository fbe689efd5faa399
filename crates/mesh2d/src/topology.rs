//! The 2-D mesh topology.
//!
//! A `width × height` mesh has nodes `(x, y)` with `0 ≤ x < width` and
//! `0 ≤ y < height`; nodes are connected when their addresses differ by one
//! in exactly one dimension.

use crate::{Coord, Direction};

/// A `width × height` 2-D mesh.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mesh2D {
    width: i32,
    height: i32,
}

impl Mesh2D {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    /// Panics if either dimension is zero or exceeds `i32::MAX`.
    pub fn mesh(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        let width = i32::try_from(width).expect("mesh width too large");
        let height = i32::try_from(height).expect("mesh height too large");
        Mesh2D { width, height }
    }

    /// A square `n × n` mesh, the configuration used throughout the paper.
    pub fn square(n: u32) -> Self {
        Self::mesh(n, n)
    }

    /// Number of columns (extent of dimension X).
    #[inline]
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Number of rows (extent of dimension Y).
    #[inline]
    pub fn height(&self) -> i32 {
        self.height
    }

    /// Total number of nodes, `width × height`.
    #[inline]
    pub fn node_count(&self) -> usize {
        (self.width as usize) * (self.height as usize)
    }

    /// True when `c` addresses a node of this network.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.x >= 0 && c.y >= 0 && c.x < self.width && c.y < self.height
    }

    /// The neighbor of `c` in direction `dir`, or `None` when the step
    /// would leave the network.
    #[inline]
    pub fn step(&self, c: Coord, dir: Direction) -> Option<Coord> {
        debug_assert!(self.contains(c), "stepping from {c} outside the mesh");
        let (dx, dy) = dir.delta();
        let next = c.offset(dx, dy);
        self.contains(next).then_some(next)
    }

    /// The in-network 4-neighborhood (mesh links) of `c`.
    pub fn neighbors4(&self, c: Coord) -> impl Iterator<Item = Coord> + '_ {
        Direction::ALL
            .into_iter()
            .filter_map(move |d| self.step(c, d))
    }

    /// The in-network 8-neighborhood of `c` (Definition 2 adjacency), used by
    /// the component merge process.
    pub fn neighbors8(&self, c: Coord) -> impl Iterator<Item = Coord> + '_ {
        c.neighbors8()
            .into_iter()
            .filter(move |&n| self.contains(n))
    }

    /// Interior node degree is 4; border nodes have fewer links.
    pub fn degree(&self, c: Coord) -> usize {
        self.neighbors4(c).count()
    }

    /// Converts a coordinate to a dense row-major index.
    ///
    /// # Panics
    /// Panics (in debug builds) if `c` is outside the network.
    #[inline]
    pub fn index_of(&self, c: Coord) -> usize {
        debug_assert!(self.contains(c), "{c} outside {self:?}");
        (c.y as usize) * (self.width as usize) + (c.x as usize)
    }

    /// Converts a dense row-major index back to a coordinate.
    #[inline]
    pub fn coord_of(&self, index: usize) -> Coord {
        let w = self.width as usize;
        Coord::new((index % w) as i32, (index / w) as i32)
    }

    /// Iterates over every node address in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = Coord> + '_ {
        let w = self.width;
        let h = self.height;
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)))
    }

    /// True when the node lies on the outer border of the mesh.
    pub fn on_border(&self, c: Coord) -> bool {
        c.x == 0 || c.y == 0 || c.x == self.width - 1 || c.y == self.height - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_mesh_basic_properties() {
        let m = Mesh2D::square(8);
        assert_eq!(m.width(), 8);
        assert_eq!(m.height(), 8);
        assert_eq!(m.node_count(), 64);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = Mesh2D::mesh(0, 4);
    }

    #[test]
    fn contains_and_border() {
        let m = Mesh2D::mesh(4, 3);
        assert!(m.contains(Coord::new(0, 0)));
        assert!(m.contains(Coord::new(3, 2)));
        assert!(!m.contains(Coord::new(4, 0)));
        assert!(!m.contains(Coord::new(-1, 1)));
        assert!(m.on_border(Coord::new(0, 1)));
        assert!(!m.on_border(Coord::new(1, 1)));
    }

    #[test]
    fn mesh_corner_degree_is_two() {
        let m = Mesh2D::square(5);
        assert_eq!(m.degree(Coord::new(0, 0)), 2);
        assert_eq!(m.degree(Coord::new(4, 0)), 2);
        assert_eq!(m.degree(Coord::new(2, 0)), 3);
        assert_eq!(m.degree(Coord::new(2, 2)), 4);
        assert_eq!(m.step(Coord::new(0, 0), Direction::West), None);
        assert_eq!(
            m.step(Coord::new(0, 0), Direction::East),
            Some(Coord::new(1, 0))
        );
    }

    #[test]
    fn index_roundtrip() {
        let m = Mesh2D::mesh(7, 5);
        for (i, c) in m.nodes().enumerate() {
            assert_eq!(m.index_of(c), i);
            assert_eq!(m.coord_of(i), c);
        }
        assert_eq!(m.nodes().count(), m.node_count());
    }

    #[test]
    fn neighbors8_counts() {
        let m = Mesh2D::square(6);
        assert_eq!(m.neighbors8(Coord::new(0, 0)).count(), 3);
        assert_eq!(m.neighbors8(Coord::new(3, 0)).count(), 5);
        assert_eq!(m.neighbors8(Coord::new(3, 3)).count(), 8);
    }
}
