//! The 3-D mesh topology: bounds and flattened indexing.

/// A node address in a 3-D mesh.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Coord3 {
    /// X coordinate.
    pub x: i32,
    /// Y coordinate.
    pub y: i32,
    /// Z coordinate.
    pub z: i32,
}

impl Coord3 {
    /// Creates a 3-D coordinate.
    pub const fn new(x: i32, y: i32, z: i32) -> Self {
        Coord3 { x, y, z }
    }
}

/// A `width × height × depth` 3-D mesh of nodes addressed by [`Coord3`].
///
/// The 3-D analogue of `mesh2d::Mesh2D`, restricted to the mesh topology
/// (no torus wrap): the paper's future-work extension concerns 3-D meshes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mesh3D {
    width: i32,
    height: i32,
    depth: i32,
}

impl Mesh3D {
    /// A `width × height × depth` mesh. Panics on zero dimensions.
    pub fn new(width: u32, height: u32, depth: u32) -> Self {
        assert!(
            width > 0 && height > 0 && depth > 0,
            "mesh dimensions must be non-zero"
        );
        Mesh3D {
            width: width as i32,
            height: height as i32,
            depth: depth as i32,
        }
    }

    /// An `n × n × n` mesh.
    pub fn cube(n: u32) -> Self {
        Mesh3D::new(n, n, n)
    }

    /// Extent along x.
    #[inline]
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Extent along y.
    #[inline]
    pub fn height(&self) -> i32 {
        self.height
    }

    /// Extent along z.
    #[inline]
    pub fn depth(&self) -> i32 {
        self.depth
    }

    /// Total number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        (self.width as usize) * (self.height as usize) * (self.depth as usize)
    }

    /// True when `c` addresses a node of this mesh.
    #[inline]
    pub fn contains(&self, c: Coord3) -> bool {
        (0..self.width).contains(&c.x)
            && (0..self.height).contains(&c.y)
            && (0..self.depth).contains(&c.z)
    }

    /// Flattens an in-mesh coordinate to its x-major index
    /// (`x + width * (y + height * z)`).
    #[inline]
    pub fn index(&self, c: Coord3) -> usize {
        debug_assert!(self.contains(c), "{c:?} outside {self:?}");
        (c.x as usize)
            + (self.width as usize) * ((c.y as usize) + (self.height as usize) * (c.z as usize))
    }

    /// Inverse of [`index`](Self::index).
    #[inline]
    pub fn coord(&self, index: usize) -> Coord3 {
        let (w, h) = (self.width as usize, self.height as usize);
        debug_assert!(index < self.node_count());
        Coord3::new(
            (index % w) as i32,
            ((index / w) % h) as i32,
            (index / (w * h)) as i32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        let mesh = Mesh3D::new(4, 3, 2);
        assert_eq!(mesh.node_count(), 24);
        for i in 0..mesh.node_count() {
            assert_eq!(mesh.index(mesh.coord(i)), i);
        }
        assert_eq!(mesh.index(Coord3::new(0, 0, 0)), 0);
        assert_eq!(mesh.index(Coord3::new(3, 2, 1)), 23);
    }

    #[test]
    fn bounds() {
        let mesh = Mesh3D::cube(3);
        assert!(mesh.contains(Coord3::new(2, 2, 2)));
        assert!(!mesh.contains(Coord3::new(3, 0, 0)));
        assert!(!mesh.contains(Coord3::new(0, -1, 0)));
    }

    /// The clustered injector's neighborhood in a 3-D mesh: 26 nodes
    /// inside, 17 on a face, 11 on an edge, 7 at a corner.
    #[test]
    fn neighborhood_sizes() {
        let mesh = Mesh3D::cube(3);
        let size =
            |x, y, z| faultgen::cluster_indices(&mesh, Coord3::new(x, y, z), &mut [0; 26]).len();
        assert_eq!(size(1, 1, 1), 26);
        assert_eq!(size(0, 1, 1), 17);
        assert_eq!(size(0, 0, 1), 11);
        assert_eq!(size(0, 0, 0), 7);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        Mesh3D::new(4, 0, 4);
    }
}
