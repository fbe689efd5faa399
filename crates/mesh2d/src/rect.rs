//! Axis-aligned rectangles on the mesh.
//!
//! Rectangles appear in two roles in the paper: the *rectangular faulty
//! blocks* of the classical fault model, and the *virtual faulty blocks*
//! (per-component bounding boxes) used by the centralized minimum-polygon
//! construction. A rectangle is represented by two opposite corners
//! `[(min_x, min_y), (max_x, max_y)]`, both inclusive, exactly as in the
//! paper.

use crate::Coord;
use std::fmt;

/// An inclusive axis-aligned rectangle `[(min_x, min_y), (max_x, max_y)]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    min: Coord,
    max: Coord,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (in any order).
    pub fn new(a: Coord, b: Coord) -> Self {
        Rect {
            min: Coord::new(a.x.min(b.x), a.y.min(b.y)),
            max: Coord::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A 1×1 rectangle containing a single node.
    pub fn single(c: Coord) -> Self {
        Rect { min: c, max: c }
    }

    /// The bounding box of a non-empty set of coordinates, or `None` when the
    /// iterator is empty.
    pub fn bounding(coords: impl IntoIterator<Item = Coord>) -> Option<Self> {
        let mut it = coords.into_iter();
        let first = it.next()?;
        let mut r = Rect::single(first);
        for c in it {
            r = r.expanded_to(c);
        }
        Some(r)
    }

    /// The smallest rectangle containing both `self` and `c`.
    pub fn expanded_to(self, c: Coord) -> Self {
        Rect {
            min: Coord::new(self.min.x.min(c.x), self.min.y.min(c.y)),
            max: Coord::new(self.max.x.max(c.x), self.max.y.max(c.y)),
        }
    }

    /// South-west corner `(min_x, min_y)`.
    #[inline]
    pub fn min(&self) -> Coord {
        self.min
    }

    /// North-east corner `(max_x, max_y)`.
    #[inline]
    pub fn max(&self) -> Coord {
        self.max
    }

    /// The four corners `(min_x,min_y)`, `(min_x,max_y)`, `(max_x,min_y)`,
    /// `(max_x,max_y)` — the corner set named explicitly for virtual faulty
    /// blocks in the paper.
    pub fn corners(&self) -> [Coord; 4] {
        [
            Coord::new(self.min.x, self.min.y),
            Coord::new(self.min.x, self.max.y),
            Coord::new(self.max.x, self.min.y),
            Coord::new(self.max.x, self.max.y),
        ]
    }

    /// Number of columns spanned.
    #[inline]
    pub fn width(&self) -> u32 {
        (self.max.x - self.min.x + 1) as u32
    }

    /// Number of rows spanned.
    #[inline]
    pub fn height(&self) -> u32 {
        (self.max.y - self.min.y + 1) as u32
    }

    /// Number of nodes inside the rectangle.
    #[inline]
    pub fn area(&self) -> usize {
        self.width() as usize * self.height() as usize
    }

    /// True when `c` lies inside the rectangle (inclusive).
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.x >= self.min.x && c.x <= self.max.x && c.y >= self.min.y && c.y <= self.max.y
    }

    /// True when the other rectangle lies entirely within this one.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains(other.min) && self.contains(other.max)
    }

    /// True when the two rectangles share at least one node.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// The smallest rectangle containing both rectangles.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Coord::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Coord::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Iterates over every node in the rectangle, row-major.
    pub fn nodes(&self) -> impl Iterator<Item = Coord> {
        let (minx, maxx, miny, maxy) = (self.min.x, self.max.x, self.min.y, self.max.y);
        (miny..=maxy).flat_map(move |y| (minx..=maxx).map(move |x| Coord::new(x, y)))
    }

    /// True when `c` lies on the rectangle's border (its boundary ring).
    pub fn on_boundary(&self, c: Coord) -> bool {
        self.contains(c)
            && (c.x == self.min.x || c.x == self.max.x || c.y == self.min.y || c.y == self.max.y)
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}; {:?}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_normalised() {
        let r = Rect::new(Coord::new(5, 1), Coord::new(2, 4));
        assert_eq!(r.min(), Coord::new(2, 1));
        assert_eq!(r.max(), Coord::new(5, 4));
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 4);
        assert_eq!(r.area(), 16);
    }

    #[test]
    fn single_node_rect() {
        let r = Rect::single(Coord::new(3, 3));
        assert_eq!(r.area(), 1);
        assert!(r.contains(Coord::new(3, 3)));
        assert!(!r.contains(Coord::new(3, 4)));
        assert_eq!(r.nodes().count(), 1);
    }

    #[test]
    fn bounding_box_of_points() {
        let r = Rect::bounding([Coord::new(2, 4), Coord::new(3, 4), Coord::new(4, 3)]).unwrap();
        assert_eq!(r.min(), Coord::new(2, 3));
        assert_eq!(r.max(), Coord::new(4, 4));
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn contains_and_intersects() {
        let a = Rect::new(Coord::new(0, 0), Coord::new(3, 3));
        let b = Rect::new(Coord::new(3, 3), Coord::new(5, 5));
        let c = Rect::new(Coord::new(4, 0), Coord::new(5, 2));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.contains_rect(&Rect::new(Coord::new(1, 1), Coord::new(2, 2))));
        assert!(!a.contains_rect(&b));
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(Coord::new(0, 0), Coord::new(1, 1));
        let b = Rect::new(Coord::new(4, 5), Coord::new(6, 6));
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u.area(), 7 * 7);
    }

    #[test]
    fn nodes_enumeration_and_boundary() {
        let r = Rect::new(Coord::new(1, 1), Coord::new(3, 2));
        let all: Vec<Coord> = r.nodes().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], Coord::new(1, 1));
        assert_eq!(all[5], Coord::new(3, 2));
        // every node of a 3x2 rectangle is on its boundary
        assert!(all.iter().all(|&c| r.on_boundary(c)));
        let big = Rect::new(Coord::new(0, 0), Coord::new(4, 4));
        assert!(!big.on_boundary(Coord::new(2, 2)));
        assert!(big.on_boundary(Coord::new(0, 3)));
    }

    #[test]
    fn four_corners_match_paper_order() {
        let r = Rect::new(Coord::new(1, 2), Coord::new(4, 6));
        assert_eq!(
            r.corners(),
            [
                Coord::new(1, 2),
                Coord::new(1, 6),
                Coord::new(4, 2),
                Coord::new(4, 6)
            ]
        );
    }

    #[test]
    fn expanded_to_grows_monotonically() {
        let mut r = Rect::single(Coord::new(2, 2));
        r = r.expanded_to(Coord::new(0, 5));
        r = r.expanded_to(Coord::new(4, 1));
        assert_eq!(r.min(), Coord::new(0, 1));
        assert_eq!(r.max(), Coord::new(4, 5));
    }
}
