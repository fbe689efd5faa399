//! The 2-D mesh / torus topology.
//!
//! The paper treats meshes and tori uniformly ("we use meshes to represent
//! both meshes and tori"); [`Mesh2D`] captures both through [`Topology`].
//! A `width × height` mesh has nodes `(x, y)` with `0 ≤ x < width` and
//! `0 ≤ y < height`; nodes are connected when their addresses differ by one
//! in exactly one dimension, with wraparound links added in a torus.

use crate::{Coord, Direction};

/// Whether wraparound links are present.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Topology {
    /// A plain 2-D mesh: boundary nodes have degree 2 or 3.
    Mesh,
    /// A 2-D torus: every node has degree 4 thanks to wraparound links.
    Torus,
}

/// A `width × height` 2-D mesh or torus.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mesh2D {
    width: i32,
    height: i32,
    topology: Topology,
}

impl Mesh2D {
    /// Creates a `width × height` mesh (no wraparound links).
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn mesh(width: u32, height: u32) -> Self {
        Self::new(width, height, Topology::Mesh)
    }

    /// Creates a `width × height` torus (wraparound links in both dimensions).
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn torus(width: u32, height: u32) -> Self {
        Self::new(width, height, Topology::Torus)
    }

    /// Creates a mesh or torus with the given dimensions.
    ///
    /// # Panics
    /// Panics if either dimension is zero or exceeds `i32::MAX`.
    pub fn new(width: u32, height: u32, topology: Topology) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        let width = i32::try_from(width).expect("mesh width too large");
        let height = i32::try_from(height).expect("mesh height too large");
        Mesh2D {
            width,
            height,
            topology,
        }
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

    /// The topology kind (mesh or torus).
    #[inline]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Total number of nodes, `width × height`.
    #[inline]
    pub fn node_count(&self) -> usize {
        (self.width as usize) * (self.height as usize)
    }

    /// Network diameter.
    ///
    /// For an `n × n` mesh this is `2(n - 1)` as stated in Section 2.1; for a
    /// torus the wraparound halves each dimension's contribution.
    pub fn diameter(&self) -> u32 {
        match self.topology {
            Topology::Mesh => (self.width as u32 - 1) + (self.height as u32 - 1),
            Topology::Torus => (self.width as u32 / 2) + (self.height as u32 / 2),
        }
    }

    /// True when `c` addresses a node of this network.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.x >= 0 && c.y >= 0 && c.x < self.width && c.y < self.height
    }

    /// Wraps a coordinate onto the torus surface. For a plain mesh the
    /// coordinate is returned unchanged (it may be outside the network).
    #[inline]
    pub fn wrap(&self, c: Coord) -> Coord {
        match self.topology {
            Topology::Mesh => c,
            Topology::Torus => Coord::new(c.x.rem_euclid(self.width), c.y.rem_euclid(self.height)),
        }
    }

    /// The neighbor of `c` in direction `dir`, if it exists.
    ///
    /// In a torus the neighbor always exists (wraparound); in a mesh it is
    /// `None` when the step would leave the network.
    #[inline]
    pub fn step(&self, c: Coord, dir: Direction) -> Option<Coord> {
        debug_assert!(self.contains(c), "stepping from {c} outside the mesh");
        let (dx, dy) = dir.delta();
        let next = c.offset(dx, dy);
        match self.topology {
            Topology::Mesh => self.contains(next).then_some(next),
            Topology::Torus => Some(self.wrap(next)),
        }
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
            .filter_map(move |n| match self.topology {
                Topology::Mesh => self.contains(n).then_some(n),
                Topology::Torus => Some(self.wrap(n)),
            })
    }

    /// Interior node degree is 4; border nodes of a mesh have fewer links.
    pub fn degree(&self, c: Coord) -> usize {
        self.neighbors4(c).count()
    }

    /// Distance between two nodes along the network links (no faults).
    pub fn distance(&self, a: Coord, b: Coord) -> u32 {
        match self.topology {
            Topology::Mesh => a.manhattan(b),
            Topology::Torus => {
                let dx = a.x.abs_diff(b.x);
                let dy = a.y.abs_diff(b.y);
                dx.min(self.width as u32 - dx) + dy.min(self.height as u32 - dy)
            }
        }
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

    /// True when the node lies on the outer border of a mesh. For a torus
    /// there is no border and this always returns `false`.
    pub fn on_border(&self, c: Coord) -> bool {
        match self.topology {
            Topology::Torus => false,
            Topology::Mesh => {
                c.x == 0 || c.y == 0 || c.x == self.width - 1 || c.y == self.height - 1
            }
        }
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
        assert_eq!(m.diameter(), 14); // 2(n-1)
        assert_eq!(m.topology(), Topology::Mesh);
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
    }

    #[test]
    fn torus_every_node_degree_four() {
        let t = Mesh2D::torus(5, 5);
        for c in t.nodes() {
            assert_eq!(t.degree(c), 4, "node {c}");
        }
        assert!(!t.on_border(Coord::new(0, 0)));
    }

    #[test]
    fn torus_wraparound_step() {
        let t = Mesh2D::torus(4, 4);
        assert_eq!(
            t.step(Coord::new(0, 0), Direction::West),
            Some(Coord::new(3, 0))
        );
        assert_eq!(
            t.step(Coord::new(3, 3), Direction::North),
            Some(Coord::new(3, 0))
        );
        let m = Mesh2D::mesh(4, 4);
        assert_eq!(m.step(Coord::new(0, 0), Direction::West), None);
        assert_eq!(
            m.step(Coord::new(0, 0), Direction::East),
            Some(Coord::new(1, 0))
        );
    }

    #[test]
    fn distance_mesh_vs_torus() {
        let m = Mesh2D::mesh(10, 10);
        let t = Mesh2D::torus(10, 10);
        let a = Coord::new(0, 0);
        let b = Coord::new(9, 9);
        assert_eq!(m.distance(a, b), 18);
        assert_eq!(t.distance(a, b), 2);
        assert_eq!(t.diameter(), 10);
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
        let t = Mesh2D::torus(6, 6);
        assert_eq!(t.neighbors8(Coord::new(0, 0)).count(), 8);
    }
}
