//! Dense per-node storage.
//!
//! Nearly every algorithm in the reproduction keeps one value per mesh node
//! (a health flag, a label, a distance, a protocol state). [`Grid`] is a
//! cache-friendly row-major `Vec` indexed by [`Coord`], avoiding hash-map
//! overhead on the hot fixpoint loops of the labelling schemes.

use crate::{Coord, Mesh2D};
use std::ops::{Index, IndexMut};

/// A dense `width × height` array of `T`, indexed by node coordinate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Grid<T> {
    width: i32,
    height: i32,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// Creates a grid filled with clones of `value`.
    pub fn filled(width: u32, height: u32, value: T) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        Grid {
            width: width as i32,
            height: height as i32,
            data: vec![value; (width as usize) * (height as usize)],
        }
    }

    /// Creates a grid sized for `mesh`, filled with clones of `value`.
    pub fn for_mesh(mesh: &Mesh2D, value: T) -> Self {
        Self::filled(mesh.width() as u32, mesh.height() as u32, value)
    }

    /// Overwrites every cell with clones of `value`, keeping the allocation.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }
}

impl<T> Grid<T> {
    /// Builds a grid by evaluating `f` at every coordinate (row-major order).
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(Coord) -> T) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        let (w, h) = (width as i32, height as i32);
        let mut data = Vec::with_capacity((width as usize) * (height as usize));
        for y in 0..h {
            for x in 0..w {
                data.push(f(Coord::new(x, y)));
            }
        }
        Grid {
            width: w,
            height: h,
            data,
        }
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn height(&self) -> i32 {
        self.height
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid holds no cells. The public constructors assert
    /// non-zero dimensions, so this is false for every grid they build —
    /// but the answer comes from the data, not from that assumption.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True when `c` indexes a cell of this grid.
    #[inline]
    pub fn in_bounds(&self, c: Coord) -> bool {
        c.x >= 0 && c.y >= 0 && c.x < self.width && c.y < self.height
    }

    /// The row-major index of an in-bounds `c`.
    #[inline]
    fn idx(&self, c: Coord) -> usize {
        (c.y as usize) * (self.width as usize) + (c.x as usize)
    }

    /// Returns the cell at `c`, or `None` when out of bounds.
    #[inline]
    pub fn get(&self, c: Coord) -> Option<&T> {
        if self.in_bounds(c) {
            Some(&self.data[self.idx(c)])
        } else {
            None
        }
    }

    /// Returns the cell at `c` mutably, or `None` when out of bounds.
    #[inline]
    pub fn get_mut(&mut self, c: Coord) -> Option<&mut T> {
        if self.in_bounds(c) {
            let i = self.idx(c);
            Some(&mut self.data[i])
        } else {
            None
        }
    }

    /// Sets the cell at `c`. Out-of-bounds writes are ignored and reported by
    /// returning `false`.
    #[inline]
    pub fn set(&mut self, c: Coord, value: T) -> bool {
        if let Some(cell) = self.get_mut(c) {
            *cell = value;
            true
        } else {
            false
        }
    }

    /// Iterates over `(coordinate, value)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Coord, &T)> + '_ {
        let w = self.width;
        self.data.iter().enumerate().map(move |(i, v)| {
            let i = i as i32;
            (Coord::new(i % w, i / w), v)
        })
    }

    /// Iterates over coordinates whose value satisfies `pred`.
    pub fn coords_where<'a>(
        &'a self,
        mut pred: impl FnMut(&T) -> bool + 'a,
    ) -> impl Iterator<Item = Coord> + 'a {
        self.iter().filter_map(move |(c, v)| pred(v).then_some(c))
    }

    /// Counts cells whose value satisfies `pred`.
    pub fn count_where(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        self.data.iter().filter(|v| pred(v)).count()
    }

    /// Maps every cell through `f`, producing a new grid of the same shape.
    pub fn map<U>(&self, mut f: impl FnMut(Coord, &T) -> U) -> Grid<U> {
        let w = self.width;
        Grid {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let i = i as i32;
                    f(Coord::new(i % w, i / w), v)
                })
                .collect(),
        }
    }

    /// Raw row-major access to the backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

/// The panic of an out-of-bounds index, in every build: without it an x
/// at or past the width would read the next row's node.
#[cold]
#[inline(never)]
fn out_of_bounds(c: Coord, width: i32, height: i32) -> ! {
    panic!("{c} out of bounds for {width}x{height} grid")
}

impl<T> Index<Coord> for Grid<T> {
    type Output = T;
    #[inline]
    fn index(&self, c: Coord) -> &T {
        self.get(c)
            .unwrap_or_else(|| out_of_bounds(c, self.width, self.height))
    }
}

impl<T> IndexMut<Coord> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, c: Coord) -> &mut T {
        let (width, height) = (self.width, self.height);
        self.get_mut(c)
            .unwrap_or_else(|| out_of_bounds(c, width, height))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_fill() {
        let mut g = Grid::filled(3, 2, 7u32);
        assert_eq!(g.len(), 6);
        assert!(!g.is_empty());
        assert_eq!(g[Coord::new(2, 1)], 7);
        g.fill(0);
        assert_eq!(g.count_where(|&v| v == 0), 6);
    }

    #[test]
    fn from_fn_row_major() {
        let g = Grid::from_fn(4, 3, |c| c.x + 10 * c.y);
        assert_eq!(g[Coord::new(0, 0)], 0);
        assert_eq!(g[Coord::new(3, 2)], 23);
        assert_eq!(g.as_slice()[0..4], [0, 1, 2, 3]);
    }

    #[test]
    fn bounds_checking() {
        let mut g = Grid::filled(3, 3, 0u8);
        assert!(g.in_bounds(Coord::new(2, 2)));
        assert!(!g.in_bounds(Coord::new(3, 0)));
        assert!(!g.in_bounds(Coord::new(0, -1)));
        assert_eq!(g.get(Coord::new(5, 5)), None);
        assert!(!g.set(Coord::new(-1, 0), 9));
        assert!(g.set(Coord::new(1, 1), 9));
        assert_eq!(g[Coord::new(1, 1)], 9);
    }

    #[test]
    fn iter_and_queries() {
        let g = Grid::from_fn(3, 3, |c| c.x == c.y);
        let diag: Vec<Coord> = g.coords_where(|&v| v).collect();
        assert_eq!(
            diag,
            vec![Coord::new(0, 0), Coord::new(1, 1), Coord::new(2, 2)]
        );
        assert_eq!(g.count_where(|&v| v), 3);
        assert_eq!(g.iter().count(), 9);
    }

    #[test]
    fn map_preserves_shape() {
        let g = Grid::from_fn(2, 2, |c| c.x);
        let h = g.map(|c, &v| v + c.y);
        assert_eq!(h[Coord::new(1, 1)], 2);
        assert_eq!(h.width(), 2);
        assert_eq!(h.height(), 2);
    }

    #[test]
    fn for_mesh_matches_dimensions() {
        let mesh = Mesh2D::mesh(5, 4);
        let g = Grid::for_mesh(&mesh, 0u8);
        assert_eq!(g.width(), 5);
        assert_eq!(g.height(), 4);
        assert_eq!(g.len(), mesh.node_count());
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_index_panics() {
        let g = Grid::filled(2, 2, 0u8);
        let _ = g[Coord::new(2, 0)];
    }
}
