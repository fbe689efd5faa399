//! The [`MeshTopology`] trait: what every mesh dimension provides.

use crate::ops::{FaultStore, RegionOps, StatusOps};
use mesh2d::{Coord, FaultSet, GridCoord, Mesh2D, Region, StatusMap};
use std::fmt::Debug;

/// A mesh topology the fault-model stack can run on.
///
/// The trait names exactly what the dimension-generic layers consume: a
/// coordinate vocabulary with dense indexing (the fault injector's
/// weighted-sampling core is a flat table over `0..node_count()`) and the
/// associated region / status / fault-set types the generic
/// [`Outcome`](crate::Outcome) is made of. The *cluster* neighborhood of
/// the paper's Definition 2 (the adjacency the clustered fault
/// distribution boosts and the component merge process floods) needs no
/// method of its own: it is the full neighborhood of the word grid the
/// coordinates address — 8 nodes in a plane, 26 across planes.
///
/// `mesh2d::Mesh2D` implements it here; `mocp_3d::Mesh3D` implements it in
/// the `mocp_3d` crate. A new topology (a torus family, a 4-D mesh) joins
/// every sweep, bench and figure by implementing this one trait.
///
/// ```
/// use mocp_topology::MeshTopology;
/// use mesh2d::Mesh2D;
///
/// // Dimension-generic code speaks the trait vocabulary:
/// fn healthy_nodes<T: MeshTopology>(mesh: &T, faults: &T::FaultSet) -> usize {
///     use mocp_topology::FaultStore;
///     mesh.node_count() - faults.len()
/// }
///
/// let mesh = Mesh2D::square(8);
/// assert_eq!(mesh.node_count(), 64);
/// assert_eq!(Mesh2D::DIM, 2);
/// // Dense indexing round-trips every node.
/// let c = mesh.coord(17);
/// assert_eq!(mesh.index(c), 17);
/// assert!(mesh.contains(c));
/// ```
pub trait MeshTopology: Copy + PartialEq + Debug + Send + Sync + 'static {
    /// Node address type (`Coord` in 2-D, `Coord3` in 3-D). As a
    /// [`GridCoord`] it addresses `mesh2d`'s one word-packed grid, whose
    /// bit-parallel kernels every dimension's regions are stored in.
    type Coord: GridCoord + Ord + Debug + Send + Sync + 'static;

    /// Node-set type with the shared geometric ops.
    type Region: RegionOps<Coord = Self::Coord> + Send + Sync;

    /// Per-node construction-status storage.
    type Status: StatusOps<Coord = Self::Coord> + Send + Sync;

    /// Fault-population type driven by the generic injector. `Send +
    /// Sync` (like the other associated data types) so fault sets and
    /// regions can be shared with the work-stealing pool's tasks.
    type FaultSet: FaultStore<Self> + Send + Sync;

    /// Number of spatial dimensions (2 or 3 in this workspace).
    const DIM: u32;

    /// A mesh with every side of length `side` — the square/cubic
    /// configuration the paper's sweeps use.
    fn from_side(side: u32) -> Self;

    /// Total number of nodes.
    fn node_count(&self) -> usize;

    /// True when `c` addresses a node of this mesh.
    fn contains(&self, c: Self::Coord) -> bool;

    /// Flattens an in-mesh coordinate to a dense index in
    /// `0..node_count()`. The mapping (with [`coord`](Self::coord) as its
    /// inverse) is what ties a mesh to the injector's flat weight table.
    fn index(&self, c: Self::Coord) -> usize;

    /// Inverse of [`index`](Self::index).
    fn coord(&self, index: usize) -> Self::Coord;
}

impl MeshTopology for Mesh2D {
    type Coord = Coord;
    type Region = Region;
    type Status = StatusMap;
    type FaultSet = FaultSet;

    const DIM: u32 = 2;

    fn from_side(side: u32) -> Self {
        Mesh2D::square(side)
    }

    fn node_count(&self) -> usize {
        Mesh2D::node_count(self)
    }

    fn contains(&self, c: Coord) -> bool {
        Mesh2D::contains(self, c)
    }

    fn index(&self, c: Coord) -> usize {
        self.index_of(c)
    }

    fn coord(&self, index: usize) -> Coord {
        self.coord_of(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh2d_trait_view_matches_the_inherent_api() {
        let mesh = <Mesh2D as MeshTopology>::from_side(6);
        assert_eq!(mesh, Mesh2D::square(6));
        assert_eq!(MeshTopology::node_count(&mesh), 36);
        for i in 0..MeshTopology::node_count(&mesh) {
            let c = MeshTopology::coord(&mesh, i);
            assert!(MeshTopology::contains(&mesh, c));
            assert_eq!(MeshTopology::index(&mesh, c), i);
        }
        assert_eq!(Mesh2D::DIM, 2);
    }
}
