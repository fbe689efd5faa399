//! The 3-D instantiation of the dimension-generic `mocp_topology` API.
//!
//! [`Mesh3D`] implements [`MeshTopology`] with [`Region3`] /
//! [`Grid3<NodeStatus>`](Grid3) / [`FaultSet3`] as its associated types,
//! which is what lets the generic fault models, the generic injector and
//! the single scenario runner drive the 3-D stack through exactly the
//! same code paths as the 2-D one.

use crate::bitgrid::BitGrid3;
use crate::fault::FaultSet3;
use crate::grid::Grid3;
use crate::mesh::Coord3;
use crate::mesh::Mesh3D;
use crate::region::Region3;
use mesh2d::NodeStatus;
use mocp_topology::{FaultStore, MeshTopology, RegionOps, StatusOps};

impl MeshTopology for Mesh3D {
    type Coord = Coord3;
    type Region = Region3;
    type Status = Grid3<NodeStatus>;
    type FaultSet = FaultSet3;

    const DIM: u32 = 3;

    fn from_side(side: u32) -> Self {
        Mesh3D::cube(side)
    }

    fn node_count(&self) -> usize {
        Mesh3D::node_count(self)
    }

    fn contains(&self, c: Coord3) -> bool {
        Mesh3D::contains(self, c)
    }

    fn index(&self, c: Coord3) -> usize {
        Mesh3D::index(self, c)
    }

    fn coord(&self, index: usize) -> Coord3 {
        Mesh3D::coord(self, index)
    }
}

impl RegionOps for Region3 {
    type Coord = Coord3;

    fn from_coords(coords: Vec<Coord3>) -> Self {
        Region3::from_coords(coords)
    }

    fn len(&self) -> usize {
        Region3::len(self)
    }

    fn contains(&self, c: Coord3) -> bool {
        Region3::contains(self, c)
    }

    fn coords(&self) -> Vec<Coord3> {
        self.iter().collect()
    }

    fn union(&self, other: &Self) -> Self {
        Region3::from_coords(self.iter().chain(other.iter()))
    }

    fn is_disjoint(&self, other: &Self) -> bool {
        // Stream the bitmap directly instead of materializing coords().
        self.iter().all(|c| !other.contains(c))
    }

    fn is_orthogonally_convex(&self) -> bool {
        Region3::is_orthogonally_convex(self)
    }

    fn bitmap(&self) -> &BitGrid3 {
        self.bits()
    }
}

impl StatusOps for Grid3<NodeStatus> {
    type Coord = Coord3;

    fn disabled_count(&self) -> usize {
        self.count_where(|&s| s == NodeStatus::Disabled)
    }

    fn faulty_count(&self) -> usize {
        self.count_where(|&s| s == NodeStatus::Faulty)
    }

    fn faulty_coords(&self) -> Vec<Coord3> {
        self.iter()
            .filter(|&(_, &s)| s == NodeStatus::Faulty)
            .map(|(c, _)| c)
            .collect()
    }
}

impl FaultStore<Mesh3D> for FaultSet3 {
    fn empty(mesh: Mesh3D) -> Self {
        FaultSet3::new(mesh)
    }

    fn insert(&mut self, c: Coord3) -> bool {
        FaultSet3::insert(self, c)
    }

    fn remove(&mut self, c: Coord3) -> bool {
        FaultSet3::remove(self, c)
    }

    fn len(&self) -> usize {
        FaultSet3::len(self)
    }

    fn in_insertion_order(&self) -> &[Coord3] {
        FaultSet3::in_insertion_order(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh3d_trait_view_matches_the_inherent_api() {
        let mesh = <Mesh3D as MeshTopology>::from_side(4);
        assert_eq!(mesh, Mesh3D::cube(4));
        assert_eq!(MeshTopology::node_count(&mesh), 64);
        for i in 0..MeshTopology::node_count(&mesh) {
            let c = MeshTopology::coord(&mesh, i);
            assert!(MeshTopology::contains(&mesh, c));
            assert_eq!(MeshTopology::index(&mesh, c), i);
        }
        assert_eq!(Mesh3D::DIM, 3);
    }

    #[test]
    fn region3_ops_union_and_components() {
        let a =
            <Region3 as RegionOps>::from_coords(vec![Coord3::new(0, 0, 0), Coord3::new(1, 1, 1)]);
        let b = <Region3 as RegionOps>::from_coords(vec![Coord3::new(5, 5, 5)]);
        let u = RegionOps::union(&a, &b);
        assert_eq!(RegionOps::len(&u), 3);
        assert_eq!(
            u.components26().len(),
            2,
            "26-adjacency joins the diagonal pair"
        );
        assert!(RegionOps::is_orthogonally_convex(&a));
        assert_eq!(u.coords().len(), 3);
    }

    #[test]
    fn grid3_status_ops_count_and_enumerate() {
        let mesh = Mesh3D::cube(3);
        let mut status = Grid3::for_mesh(&mesh, NodeStatus::Enabled);
        status[Coord3::new(0, 0, 0)] = NodeStatus::Faulty;
        status[Coord3::new(1, 0, 0)] = NodeStatus::Disabled;
        assert_eq!(StatusOps::disabled_count(&status), 1);
        assert_eq!(StatusOps::faulty_count(&status), 1);
        assert_eq!(status.faulty_coords(), vec![Coord3::new(0, 0, 0)]);
    }

    #[test]
    fn fault_store_round_trips() {
        let mesh = Mesh3D::cube(3);
        let mut fs = <FaultSet3 as FaultStore<Mesh3D>>::empty(mesh);
        assert!(FaultStore::insert(&mut fs, Coord3::new(1, 1, 1)));
        assert!(!FaultStore::insert(&mut fs, Coord3::new(1, 1, 1)));
        assert_eq!(FaultStore::len(&fs), 1);
        assert!(FaultStore::remove(&mut fs, Coord3::new(1, 1, 1)));
        assert!(FaultStore::is_empty(&fs));
    }
}
