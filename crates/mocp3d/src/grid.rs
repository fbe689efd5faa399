//! Dense per-node storage for 3-D meshes.
//!
//! The 3-D analogue of `mesh2d::Grid`: a flat x-major `Vec` indexed by
//! [`Coord3`], so the flood fills and status piles of the 3-D models run
//! over contiguous memory instead of per-node `BTreeSet` probes.

use crate::mesh::Coord3;
use crate::mesh::Mesh3D;
use std::ops::{Index, IndexMut};

/// A dense `width × height × depth` array of `T`, indexed by [`Coord3`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Grid3<T> {
    mesh: Mesh3D,
    data: Vec<T>,
}

impl<T: Clone> Grid3<T> {
    /// Creates a grid sized for `mesh`, filled with clones of `value`.
    pub fn for_mesh(mesh: &Mesh3D, value: T) -> Self {
        Grid3 {
            mesh: *mesh,
            data: vec![value; mesh.node_count()],
        }
    }

    /// Overwrites every cell with clones of `value`, keeping the allocation.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Overwrites the cells of the box `lo..=hi` (inclusive, inside the
    /// mesh) with clones of `value`, one contiguous x-run per `(y, z)`
    /// line.
    pub fn fill_box(&mut self, lo: Coord3, hi: Coord3, value: T) {
        assert!(
            lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z,
            "invalid bounds"
        );
        assert!(
            self.mesh.contains(lo) && self.mesh.contains(hi),
            "box outside the mesh"
        );
        let run = (hi.x - lo.x) as usize + 1;
        for z in lo.z..=hi.z {
            for y in lo.y..=hi.y {
                let start = self.mesh.index(Coord3::new(lo.x, y, z));
                self.data[start..start + run].fill(value.clone());
            }
        }
    }
}

impl<T> Grid3<T> {
    /// The mesh this grid covers.
    #[inline]
    pub fn mesh(&self) -> &Mesh3D {
        &self.mesh
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid holds no cells (never, for meshes with non-zero
    /// dimensions — but the answer comes from the data).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the cell at `c`, or `None` when out of bounds.
    #[inline]
    pub fn get(&self, c: Coord3) -> Option<&T> {
        self.mesh
            .contains(c)
            .then(|| &self.data[self.mesh.index(c)])
    }

    /// Returns the cell at `c` mutably, or `None` when out of bounds.
    #[inline]
    pub fn get_mut(&mut self, c: Coord3) -> Option<&mut T> {
        if self.mesh.contains(c) {
            let i = self.mesh.index(c);
            Some(&mut self.data[i])
        } else {
            None
        }
    }

    /// Iterates over `(coordinate, value)` pairs in x-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Coord3, &T)> + '_ {
        self.data
            .iter()
            .enumerate()
            .map(|(i, v)| (self.mesh.coord(i), v))
    }

    /// Counts cells whose value satisfies `pred`. The count runs in
    /// 255-cell chunks with a `u8` sum each, which cannot overflow and lets
    /// a byte-sized cell compare vectorize.
    pub fn count_where(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        self.data
            .chunks(u8::MAX as usize)
            .map(|chunk| chunk.iter().fold(0u8, |n, v| n + pred(v) as u8) as usize)
            .sum()
    }

    /// Raw x-major access to the backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

/// The panic of an out-of-bounds index, in every build: without it a
/// coordinate past one axis would read a node of the next line or plane.
#[cold]
#[inline(never)]
fn out_of_bounds(c: Coord3, mesh: Mesh3D) -> ! {
    panic!("{c:?} outside {mesh:?}")
}

impl<T> Index<Coord3> for Grid3<T> {
    type Output = T;
    #[inline]
    fn index(&self, c: Coord3) -> &T {
        self.get(c).unwrap_or_else(|| out_of_bounds(c, self.mesh))
    }
}

impl<T> IndexMut<Coord3> for Grid3<T> {
    #[inline]
    fn index_mut(&mut self, c: Coord3) -> &mut T {
        let mesh = self.mesh;
        self.get_mut(c).unwrap_or_else(|| out_of_bounds(c, mesh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_index_and_queries() {
        let mesh = Mesh3D::new(3, 2, 2);
        let mut g = Grid3::for_mesh(&mesh, 0u32);
        assert_eq!(g.len(), 12);
        assert!(!g.is_empty());
        g[Coord3::new(2, 1, 1)] = 9;
        assert_eq!(g[Coord3::new(2, 1, 1)], 9);
        assert_eq!(g.count_where(|&v| v == 9), 1);
        assert_eq!(g.get(Coord3::new(3, 0, 0)), None);
        *g.get_mut(Coord3::new(0, 0, 0)).unwrap() = 5;
        assert_eq!(g.as_slice()[0], 5);
        g.fill(1);
        assert_eq!(g.count_where(|&v| v == 1), 12);
    }

    /// The chunked count against a per-cell count on a grid of 1400 cells
    /// (five full 255-cell chunks and a partial one), with runs of every
    /// value straddling each chunk edge.
    #[test]
    fn count_where_matches_a_per_cell_count_across_chunk_edges() {
        let mesh = Mesh3D::new(70, 5, 4);
        let mut g = Grid3::for_mesh(&mesh, 0u8);
        for edge in (255..g.len()).step_by(255) {
            for (offset, value) in (edge - 3..edge + 3).zip([1, 2, 1, 2, 2, 1]) {
                let c = mesh.coord(offset);
                g[c] = value;
            }
        }
        let last = Coord3::new(69, 4, 3);
        g[last] = 2;
        for value in 0..3u8 {
            let per_cell = g.iter().filter(|&(_, &v)| v == value).count();
            assert_eq!(g.count_where(|&v| v == value), per_cell, "value {value}");
        }
        g.fill(1);
        assert_eq!(g.count_where(|&v| v == 1), 1400);
        assert_eq!(g.count_where(|&v| v == 0), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_index_panics() {
        let g = Grid3::for_mesh(&Mesh3D::new(3, 2, 2), 0u8);
        let _ = g[Coord3::new(3, 0, 0)];
    }

    /// `fill_box` against per-cell writes of the same box.
    fn assert_fill_box_matches_cells(mesh: Mesh3D, lo: Coord3, hi: Coord3) {
        let mut got = Grid3::for_mesh(&mesh, 0u8);
        got[Coord3::new(0, 0, 0)] = 2;
        let mut expected = got.clone();
        got.fill_box(lo, hi, 1);
        for z in lo.z..=hi.z {
            for y in lo.y..=hi.y {
                for x in lo.x..=hi.x {
                    expected[Coord3::new(x, y, z)] = 1;
                }
            }
        }
        assert!(got == expected, "box {lo:?}..={hi:?}");
    }

    #[test]
    fn fill_box_writes_exactly_the_box() {
        let mesh = Mesh3D::new(70, 5, 4);
        let far = Coord3::new(69, 4, 3);
        // A box on the mesh border (the far x/y/z faces).
        assert_fill_box_matches_cells(mesh, Coord3::new(66, 3, 2), far);
        // The whole mesh.
        assert_fill_box_matches_cells(mesh, Coord3::new(0, 0, 0), far);
        // An x-run across the 63/64 word boundary of the bitmaps.
        assert_fill_box_matches_cells(mesh, Coord3::new(63, 1, 1), Coord3::new(64, 2, 2));
        // A single cell.
        assert_fill_box_matches_cells(mesh, Coord3::new(5, 0, 3), Coord3::new(5, 0, 3));
    }

    #[test]
    fn iter_visits_every_cell_in_x_major_order() {
        let mesh = Mesh3D::new(2, 2, 2);
        let g = Grid3::for_mesh(&mesh, ());
        let coords: Vec<Coord3> = g.iter().map(|(c, _)| c).collect();
        assert_eq!(coords.len(), 8);
        assert_eq!(coords[0], Coord3::new(0, 0, 0));
        assert_eq!(coords[1], Coord3::new(1, 0, 0));
        assert_eq!(coords[2], Coord3::new(0, 1, 0));
        assert_eq!(coords[7], Coord3::new(1, 1, 1));
    }
}
