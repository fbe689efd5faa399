//! The operations a topology's region, status and fault-set types share.
//!
//! These traits name exactly the vocabulary the generic layers are built
//! from: [`Outcome`](crate::Outcome)'s metrics and safety predicates are
//! written against [`RegionOps`] and [`StatusOps`], and the generic fault
//! injector in `faultgen` drives any [`FaultStore`]. The 2-D
//! implementations live here (this crate owns the traits and depends on
//! `mesh2d`); the 3-D implementations live in `mocp_3d`.

use crate::mesh::MeshTopology;
use mesh2d::{BitGrid, Coord, FaultSet, GridCoord, Mesh2D, Region, StatusMap, WordGrid};
use std::fmt::Debug;

/// Node-set geometry shared by every dimension: size, membership, union
/// and the orthogonal-convexity check of the paper's Definition 1.
pub trait RegionOps: Clone + PartialEq + Debug + Send + Sync + 'static {
    /// The node address type of the region's topology.
    type Coord: GridCoord;

    /// Builds a region from coordinates (duplicates are ignored).
    fn from_coords(coords: Vec<Self::Coord>) -> Self;

    /// Number of nodes in the region.
    fn len(&self) -> usize;

    /// True when the region contains no node.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `c` belongs to the region.
    fn contains(&self, c: Self::Coord) -> bool;

    /// The nodes of the region, in the region's deterministic order.
    fn coords(&self) -> Vec<Self::Coord>;

    /// The union of two regions.
    fn union(&self, other: &Self) -> Self;

    /// True when the two regions share no node. Implementations should
    /// override the default scan when they can do better (the 2-D region
    /// delegates to its whole-word intersection test).
    fn is_disjoint(&self, other: &Self) -> bool {
        self.coords().into_iter().all(|c| !other.contains(c))
    }

    /// The orthogonal-convexity test (Definition 1, per dimension): along
    /// every axis-parallel line the region's nodes form one contiguous run.
    fn is_orthogonally_convex(&self) -> bool;

    /// The region's word-packed grid — the entry ticket to the
    /// whole-word predicates of `mesh2d`'s [`WordGrid`].
    fn bitmap(&self) -> &WordGrid<Self::Coord>;
}

impl RegionOps for Region {
    type Coord = Coord;

    fn from_coords(coords: Vec<Coord>) -> Self {
        Region::from_coords(coords)
    }

    fn len(&self) -> usize {
        Region::len(self)
    }

    fn contains(&self, c: Coord) -> bool {
        Region::contains(self, c)
    }

    fn coords(&self) -> Vec<Coord> {
        self.iter().collect()
    }

    fn union(&self, other: &Self) -> Self {
        Region::union(self, other)
    }

    fn is_disjoint(&self, other: &Self) -> bool {
        Region::is_disjoint(self, other)
    }

    fn is_orthogonally_convex(&self) -> bool {
        Region::is_orthogonally_convex(self)
    }

    fn bitmap(&self) -> &BitGrid {
        self.bits()
    }
}

/// Per-node construction status (faulty / disabled / enabled) with the
/// counts behind the paper's Figure 9 metric.
pub trait StatusOps: Clone + PartialEq + Debug + Send + Sync + 'static {
    /// The node address type of the status map's topology.
    type Coord: Copy;

    /// Number of non-faulty nodes the construction disabled.
    fn disabled_count(&self) -> usize;

    /// Number of faulty nodes.
    fn faulty_count(&self) -> usize;

    /// The faulty nodes, in the map's deterministic order.
    fn faulty_coords(&self) -> Vec<Self::Coord>;
}

impl StatusOps for StatusMap {
    type Coord = Coord;

    fn disabled_count(&self) -> usize {
        StatusMap::disabled_count(self)
    }

    fn faulty_count(&self) -> usize {
        StatusMap::faulty_count(self)
    }

    fn faulty_coords(&self) -> Vec<Coord> {
        self.grid()
            .coords_where(|&s| s == mesh2d::NodeStatus::Faulty)
            .collect()
    }
}

/// A topology's fault population: sequential insertion (the paper adds
/// faults one at a time), exact removal (repair / rewind), and the
/// insertion order the clustered distribution model depends on.
pub trait FaultStore<T: MeshTopology>: Clone + Debug + Send + Sync + 'static {
    /// An empty fault set for `mesh`.
    fn empty(mesh: T) -> Self;

    /// Marks `c` faulty. Returns `true` when newly marked, `false` for
    /// duplicates or coordinates outside the mesh.
    fn insert(&mut self, c: T::Coord) -> bool;

    /// Clears the fault at `c`, modelling node recovery. Returns `true`
    /// when the node was faulty.
    fn remove(&mut self, c: T::Coord) -> bool;

    /// Number of faults.
    fn len(&self) -> usize;

    /// True when no node is faulty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The faults in injection order.
    fn in_insertion_order(&self) -> &[T::Coord];
}

impl FaultStore<Mesh2D> for FaultSet {
    fn empty(mesh: Mesh2D) -> Self {
        FaultSet::new(mesh)
    }

    fn insert(&mut self, c: Coord) -> bool {
        FaultSet::insert(self, c)
    }

    fn remove(&mut self, c: Coord) -> bool {
        FaultSet::remove(self, c)
    }

    fn len(&self) -> usize {
        FaultSet::len(self)
    }

    fn in_insertion_order(&self) -> &[Coord] {
        FaultSet::in_insertion_order(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{Connectivity, NodeStatus};

    #[test]
    fn region_ops_match_the_inherent_api() {
        let r = <Region as RegionOps>::from_coords(vec![
            Coord::new(0, 0),
            Coord::new(1, 1),
            Coord::new(5, 5),
        ]);
        assert_eq!(RegionOps::len(&r), 3);
        assert!(RegionOps::contains(&r, Coord::new(1, 1)));
        assert_eq!(
            r.components(Connectivity::Eight).len(),
            2,
            "8-adjacency merges the diagonal pair"
        );
        assert!(RegionOps::is_orthogonally_convex(&r));
        let u = RegionOps::union(
            &r,
            &<Region as RegionOps>::from_coords(vec![Coord::new(9, 9)]),
        );
        assert_eq!(RegionOps::len(&u), 4);
        assert_eq!(r.coords().len(), 3);
        let far = <Region as RegionOps>::from_coords(vec![Coord::new(9, 9)]);
        assert!(RegionOps::is_disjoint(&r, &far));
        assert!(!RegionOps::is_disjoint(&u, &far));
    }

    #[test]
    fn status_ops_count_like_the_status_map() {
        let mesh = Mesh2D::square(4);
        let mut map = StatusMap::all_enabled(&mesh);
        map.set(Coord::new(0, 0), NodeStatus::Faulty);
        map.set(Coord::new(1, 0), NodeStatus::Disabled);
        assert_eq!(StatusOps::disabled_count(&map), 1);
        assert_eq!(StatusOps::faulty_count(&map), 1);
        assert_eq!(map.faulty_coords(), vec![Coord::new(0, 0)]);
    }

    #[test]
    fn fault_store_round_trips_through_the_trait() {
        let mesh = Mesh2D::square(5);
        let mut fs = <FaultSet as FaultStore<Mesh2D>>::empty(mesh);
        assert!(FaultStore::is_empty(&fs));
        assert!(FaultStore::insert(&mut fs, Coord::new(2, 2)));
        assert!(!FaultStore::insert(&mut fs, Coord::new(2, 2)));
        assert_eq!(FaultStore::len(&fs), 1);
        assert_eq!(
            FaultStore::<Mesh2D>::in_insertion_order(&fs),
            &[Coord::new(2, 2)]
        );
        assert!(FaultStore::remove(&mut fs, Coord::new(2, 2)));
        assert!(FaultStore::is_empty(&fs));
    }
}
