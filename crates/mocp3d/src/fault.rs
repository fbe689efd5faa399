//! 3-D fault sets and the seeded 3-D fault injector.
//!
//! Since the `mocp_topology` redesign the injector *is*
//! `faultgen::FaultInjector` — [`FaultInjector3`] is its `Mesh3D`
//! instantiation, not a re-implementation: one generic draw / boost /
//! undo loop over the shared [`faultgen::WeightTable`] drives both
//! dimensions, and the clustered model's rate boost covers the
//! 26-neighborhood that [`faultgen::cluster_indices`] enumerates from a
//! [`Coord3`]'s `(x, y, z)`, as it enumerates the 8-neighborhood in 2-D.

use crate::mesh::Coord3;
use crate::mesh::Mesh3D;
use crate::region::Region3;

/// The set of faulty nodes of a 3-D mesh: a dense membership bitmap for
/// O(1) queries plus the insertion order the clustered model depends on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultSet3 {
    mesh: Mesh3D,
    faulty: Vec<bool>,
    order: Vec<Coord3>,
}

impl FaultSet3 {
    /// An empty fault set for `mesh`.
    pub fn new(mesh: Mesh3D) -> Self {
        FaultSet3 {
            mesh,
            faulty: vec![false; mesh.node_count()],
            order: Vec::new(),
        }
    }

    /// Builds a fault set from coordinates (duplicates and out-of-mesh
    /// coordinates are ignored).
    pub fn from_coords(mesh: Mesh3D, coords: impl IntoIterator<Item = Coord3>) -> Self {
        let mut fs = Self::new(mesh);
        for c in coords {
            fs.insert(c);
        }
        fs
    }

    /// The mesh the faults live in.
    pub fn mesh(&self) -> &Mesh3D {
        &self.mesh
    }

    /// Marks `c` faulty. Returns `true` when newly marked, `false` for
    /// duplicates or coordinates outside the mesh.
    pub fn insert(&mut self, c: Coord3) -> bool {
        if !self.mesh.contains(c) || self.faulty[self.mesh.index(c)] {
            return false;
        }
        self.faulty[self.mesh.index(c)] = true;
        self.order.push(c);
        true
    }

    /// Clears the fault at `c`, modelling node recovery. Returns `true`
    /// when the node was faulty.
    pub fn remove(&mut self, c: Coord3) -> bool {
        if !self.is_faulty(c) {
            return false;
        }
        self.faulty[self.mesh.index(c)] = false;
        if self.order.last() == Some(&c) {
            self.order.pop();
        } else {
            let pos = self
                .order
                .iter()
                .rposition(|&o| o == c)
                .expect("membership bitmap and insertion order agree");
            self.order.remove(pos);
        }
        true
    }

    /// True when node `c` is faulty. Out-of-mesh coordinates are healthy.
    #[inline]
    pub fn is_faulty(&self, c: Coord3) -> bool {
        self.mesh.contains(c) && self.faulty[self.mesh.index(c)]
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no node is faulty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The faults in injection order.
    pub fn in_insertion_order(&self) -> &[Coord3] {
        &self.order
    }

    /// The faults as a dense [`Region3`].
    pub fn region(&self) -> Region3 {
        Region3::from_coords(self.order.iter().copied())
    }
}

/// Incremental, seeded 3-D fault injector under the paper's two
/// distribution models: the `Mesh3D` instantiation of the generic
/// [`faultgen::FaultInjector`].
///
/// Like the 2-D instantiation, faults are added one at a time, so one
/// injector serves a whole fault-count sweep: the first `k` faults of a
/// sequence are exactly the faults the model would have produced for a
/// budget of `k`. The boost/undo weight bookkeeping lives in the shared
/// [`faultgen::WeightTable`]; nodes are flattened through
/// [`Mesh3D::index`], and `undo_last` / `snapshot` / `restore` /
/// `event_stream` all come from the generic implementation.
pub type FaultInjector3 = faultgen::FaultInjector<Mesh3D>;

/// Convenience wrapper: generates `count` faults in one call (delegates
/// to the generic [`faultgen::generate_faults`] at `Mesh3D`).
pub fn generate_faults_3d(
    mesh: Mesh3D,
    count: usize,
    distribution: faultgen::FaultDistribution,
    seed: u64,
) -> FaultSet3 {
    faultgen::generate_faults(mesh, count, distribution, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultgen::FaultDistribution;
    use mesh2d::FaultEvent;

    #[test]
    fn generates_requested_number_of_distinct_faults() {
        let mesh = Mesh3D::cube(8);
        for dist in FaultDistribution::ALL {
            let faults = generate_faults_3d(mesh, 40, dist, 7);
            assert_eq!(faults.len(), 40, "{dist:?}");
            assert!(faults
                .in_insertion_order()
                .iter()
                .all(|&c| mesh.contains(c)));
        }
    }

    #[test]
    fn deterministic_for_equal_seeds_and_prefix_property() {
        let mesh = Mesh3D::cube(6);
        let a = generate_faults_3d(mesh, 30, FaultDistribution::Clustered, 42);
        let b = generate_faults_3d(mesh, 30, FaultDistribution::Clustered, 42);
        assert_eq!(a.in_insertion_order(), b.in_insertion_order());
        let c = generate_faults_3d(mesh, 30, FaultDistribution::Clustered, 43);
        assert_ne!(a.in_insertion_order(), c.in_insertion_order());

        let mut inj = FaultInjector3::new(mesh, FaultDistribution::Clustered, 42);
        inj.inject_up_to(10);
        let first10 = inj.faults().in_insertion_order().to_vec();
        inj.inject_up_to(30);
        assert_eq!(&inj.faults().in_insertion_order()[..10], &first10[..]);
        assert_eq!(inj.faults().in_insertion_order(), a.in_insertion_order());
    }

    #[test]
    fn saturates_when_mesh_is_exhausted() {
        let mesh = Mesh3D::cube(2);
        let mut inj = FaultInjector3::new(mesh, FaultDistribution::Random, 1);
        assert_eq!(inj.inject_up_to(100), 8);
        assert!(inj.inject_one().is_none());
        assert!(!inj.is_empty());
        assert_eq!(inj.len(), 8);
    }

    #[test]
    fn undo_rewinds_the_generic_injector_exactly() {
        let mesh = Mesh3D::cube(5);
        for dist in FaultDistribution::ALL {
            let mut inj = FaultInjector3::new(mesh, dist, 5);
            inj.inject_up_to(10);
            let reference = inj.faults().clone();
            let snap = inj.snapshot();
            inj.inject_up_to(20);
            for _ in 0..10 {
                let event = inj.undo_last().expect("ten faults to rewind");
                assert!(matches!(event, FaultEvent::Repair(_)), "{dist:?}");
            }
            assert_eq!(
                inj.faults().in_insertion_order(),
                reference.in_insertion_order()
            );
            // The snapshot/restore contract holds through the shared core:
            // the continuation replays identically after a restore.
            inj.restore(&snap).expect("history matches the snapshot");
            inj.inject_up_to(20);
            let first: Vec<Coord3> = inj.faults().in_insertion_order().to_vec();
            inj.restore(&snap).expect("history matches the snapshot");
            inj.inject_up_to(20);
            assert_eq!(inj.faults().in_insertion_order(), &first[..], "{dist:?}");
        }
    }

    #[test]
    fn fault_set_remove_and_region_round_trip() {
        let mesh = Mesh3D::cube(4);
        let mut fs = FaultSet3::from_coords(
            mesh,
            [
                Coord3::new(0, 0, 0),
                Coord3::new(1, 1, 1),
                Coord3::new(9, 9, 9), // outside, ignored
                Coord3::new(1, 1, 1), // duplicate, ignored
            ],
        );
        assert_eq!(fs.len(), 2);
        assert!(fs.is_faulty(Coord3::new(1, 1, 1)));
        assert!(!fs.is_faulty(Coord3::new(9, 9, 9)));
        assert_eq!(fs.region().len(), 2);
        assert!(fs.remove(Coord3::new(0, 0, 0)));
        assert!(!fs.remove(Coord3::new(0, 0, 0)));
        assert_eq!(fs.in_insertion_order(), [Coord3::new(1, 1, 1)]);
    }
}
