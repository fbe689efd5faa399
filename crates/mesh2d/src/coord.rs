//! Node addresses in a 2-D mesh.
//!
//! Following the paper (Section 2.1), each node `u` has an address
//! `(u_x, u_y)` with `u_x, u_y ∈ {0, 1, ..., n-1}`. Coordinates are stored as
//! `i32` so that neighbor arithmetic (including the diagonal adjacency of
//! Definition 2) never underflows; the topology layer decides which
//! coordinates are actually inside the network.

use std::fmt;

/// A node address `(x, y)` in a 2-D mesh.
///
/// `x` selects the column, `y` selects the row, matching the paper's
/// convention where routing "along the row" changes `x` first.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column index (dimension X).
    pub x: i32,
    /// Row index (dimension Y).
    pub y: i32,
}

impl Coord {
    /// Creates a coordinate from column `x` and row `y`.
    #[inline]
    pub const fn new(x: i32, y: i32) -> Self {
        Coord { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Coord = Coord { x: 0, y: 0 };

    /// Returns the coordinate translated by `(dx, dy)`.
    #[inline]
    pub const fn offset(self, dx: i32, dy: i32) -> Self {
        Coord {
            x: self.x + dx,
            y: self.y + dy,
        }
    }

    /// Manhattan (L1) distance to `other`.
    #[inline]
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// Chebyshev (L∞) distance to `other`.
    ///
    /// Two distinct nodes are *adjacent* in the sense of the paper's
    /// Definition 2 (the 8-neighborhood used by the component merge process)
    /// exactly when their Chebyshev distance is 1.
    #[inline]
    pub fn chebyshev(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x).max(self.y.abs_diff(other.y))
    }

    /// True when `other` is one of the four mesh neighbors (N, S, E, W).
    #[inline]
    pub fn is_neighbor4(self, other: Coord) -> bool {
        self.manhattan(other) == 1
    }

    /// True when `other` is adjacent per Definition 2 of the paper: one of
    /// the eight surrounding nodes (including diagonals).
    #[inline]
    pub fn is_adjacent8(self, other: Coord) -> bool {
        self != other && self.chebyshev(other) == 1
    }

    /// The four mesh neighbors in the fixed order West, East, South, North.
    ///
    /// The result may contain coordinates outside the network; callers that
    /// need in-network neighbors should go through
    /// [`Mesh2D::neighbors4`](crate::Mesh2D::neighbors4).
    #[inline]
    pub fn neighbors4(self) -> [Coord; 4] {
        [
            self.offset(-1, 0),
            self.offset(1, 0),
            self.offset(0, -1),
            self.offset(0, 1),
        ]
    }

    /// The eight adjacent nodes of Definition 2, row-major order.
    #[inline]
    pub fn neighbors8(self) -> [Coord; 8] {
        [
            self.offset(-1, -1),
            self.offset(0, -1),
            self.offset(1, -1),
            self.offset(-1, 0),
            self.offset(1, 0),
            self.offset(-1, 1),
            self.offset(0, 1),
            self.offset(1, 1),
        ]
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i32, i32)> for Coord {
    fn from((x, y): (i32, i32)) -> Self {
        Coord::new(x, y)
    }
}

impl From<Coord> for (i32, i32) {
    fn from(c: Coord) -> Self {
        (c.x, c.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_and_origin() {
        assert_eq!(Coord::ORIGIN.offset(3, -2), Coord::new(3, -2));
        assert_eq!(Coord::new(1, 1).offset(0, 0), Coord::new(1, 1));
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(1, 3).manhattan(Coord::new(6, 4)), 6);
        assert_eq!(Coord::new(2, 2).manhattan(Coord::new(2, 2)), 0);
    }

    #[test]
    fn chebyshev_distance() {
        assert_eq!(Coord::new(0, 0).chebyshev(Coord::new(3, 1)), 3);
        assert_eq!(Coord::new(5, 5).chebyshev(Coord::new(4, 4)), 1);
    }

    #[test]
    fn neighbor4_relation() {
        let c = Coord::new(4, 4);
        assert!(c.is_neighbor4(Coord::new(3, 4)));
        assert!(c.is_neighbor4(Coord::new(4, 5)));
        assert!(!c.is_neighbor4(Coord::new(3, 3)));
        assert!(!c.is_neighbor4(c));
    }

    #[test]
    fn adjacency8_matches_definition_2() {
        // Definition 2: adjacent nodes of (x, y) are the 8 surrounding nodes.
        let c = Coord::new(2, 2);
        let adj = c.neighbors8();
        assert_eq!(adj.len(), 8);
        for a in adj {
            assert!(c.is_adjacent8(a), "{a} should be adjacent to {c}");
        }
        assert!(!c.is_adjacent8(c));
        assert!(!c.is_adjacent8(Coord::new(4, 2)));
    }

    #[test]
    fn neighbors4_are_subset_of_neighbors8() {
        let c = Coord::new(7, 9);
        let n8 = c.neighbors8();
        for n in c.neighbors4() {
            assert!(n8.contains(&n));
        }
    }

    #[test]
    fn conversions() {
        let c: Coord = (3, 4).into();
        assert_eq!(c, Coord::new(3, 4));
        let t: (i32, i32) = c.into();
        assert_eq!(t, (3, 4));
        assert_eq!(format!("{c}"), "(3, 4)");
        assert_eq!(format!("{c:?}"), "(3, 4)");
    }
}
