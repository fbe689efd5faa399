//! The dimension-generic fault-model trait and construction outcome.

use crate::mesh::MeshTopology;
use crate::ops::{RegionOps, StatusOps};
use crate::stats::RoundStats;
use mesh2d::{Connectivity, Mesh2D, Region, StatusMap, WordGrid};

/// The outcome of running a fault-model construction on a faulty mesh,
/// for any [`MeshTopology`].
///
/// `fblock::ModelOutcome` and `mocp_3d::Outcome3` are the 2-D and 3-D
/// instantiations of this one type; the Figure 9/10 metrics and the
/// safety predicates below are written once, against the topology's
/// [`RegionOps`] / [`StatusOps`], instead of the two hand-duplicated
/// per-dimension impl blocks they replace.
#[derive(Clone, Debug)]
pub struct Outcome<T: MeshTopology> {
    /// Short model name ("FB", "FP", "CMFP", "DMFP", "FB3D", "MFP3D").
    pub model: String,
    /// Final status of every node (faulty / disabled / enabled).
    pub status: T::Status,
    /// The fault regions (blocks, polygons, cuboids or polyhedra) the
    /// model produced, i.e. the connected excluded areas messages must
    /// route around.
    pub regions: Vec<T::Region>,
    /// Rounds of neighbor information exchange the construction needed.
    pub rounds: RoundStats,
}

impl<T: MeshTopology> Outcome<T> {
    /// Number of non-faulty nodes the model disables — the paper's
    /// Figure 9 metric.
    pub fn disabled_nonfaulty(&self) -> usize {
        self.status.disabled_count()
    }

    /// Number of faulty nodes covered.
    pub fn faulty_count(&self) -> usize {
        self.status.faulty_count()
    }

    /// Average number of nodes (faulty + disabled) per region — the
    /// paper's Figure 10 metric. Zero when there are no regions.
    pub fn average_region_size(&self) -> f64 {
        if self.regions.is_empty() {
            0.0
        } else {
            let total: usize = self.regions.iter().map(RegionOps::len).sum();
            total as f64 / self.regions.len() as f64
        }
    }

    /// Checks the fundamental safety property shared by every model in
    /// every dimension: every faulty node is covered by some region.
    ///
    /// Runs as a whole-word bitmap subtraction: the faults not yet covered
    /// shrink region by region, and the final emptiness test is one word
    /// scan.
    pub fn covers_all_faults(&self) -> bool {
        let mut uncovered = WordGrid::from_coords(self.status.faulty_coords());
        for r in &self.regions {
            if uncovered.is_empty() {
                break;
            }
            uncovered.subtract(r.bitmap());
        }
        uncovered.is_empty()
    }

    /// True when every produced region is orthogonally convex
    /// (Definition 1, generalized per dimension) — the word-parallel
    /// span/run scan of the region's bitmap.
    pub fn all_regions_convex(&self) -> bool {
        self.regions
            .iter()
            .all(|r| r.bitmap().is_orthogonally_convex())
    }

    /// True when the produced regions are pairwise disjoint — one running
    /// union bitmap and a whole-word intersection test per region instead
    /// of an all-pairs scan. The running union is framed once over the
    /// regions' joint bounding box, so each region's test and union walk
    /// only that region's frame.
    pub fn regions_disjoint(&self) -> bool {
        let mut seen = WordGrid::framed_over(self.regions.iter().map(RegionOps::bitmap));
        for bits in self.regions.iter().map(RegionOps::bitmap) {
            if bits.intersects(&seen) {
                return false;
            }
            seen.union_with(bits);
        }
        true
    }
}

impl Outcome<Mesh2D> {
    /// Splits the excluded node set into its 4-connected regions. Used by
    /// 2-D models whose construction produces a status map first and
    /// regions second.
    ///
    /// Labelling runs as a word-scan flood on the packed excluded set, and
    /// each region is copied straight off the flood buffer.
    pub fn regions_from_status(status: &StatusMap) -> Vec<Region> {
        status.excluded_region().components(Connectivity::Four)
    }
}

/// A fault-model construction: given the mesh and the faults, decide
/// which non-faulty nodes must be disabled so that the excluded regions
/// have the shape the model promises (rectangles for FB, orthogonal
/// convex polygons for FP / MFP, cuboids for FB-3D, orthogonal convex
/// polyhedra for MFP-3D).
///
/// The topology parameter defaults to the 2-D mesh, so the paper's 2-D
/// models read exactly as before (`impl FaultModel for FaultyBlockModel`);
/// 3-D models implement `FaultModel<Mesh3D>`. Each instantiation gets its
/// own [`ModelRegistry`](crate::ModelRegistry), and one generic scenario
/// runner drives them all.
///
/// ```
/// use mocp_topology::{FaultModel, MeshTopology, Outcome};
///
/// // A dimension-generic harness needs nothing beyond the trait pair:
/// fn disabled_by<T: MeshTopology>(
///     model: &dyn FaultModel<T>,
///     mesh: &T,
///     faults: &T::FaultSet,
/// ) -> usize {
///     let outcome: Outcome<T> = model.construct(mesh, faults);
///     assert!(outcome.covers_all_faults());
///     outcome.disabled_nonfaulty()
/// }
/// ```
pub trait FaultModel<T: MeshTopology = Mesh2D> {
    /// Short display name ("FB", "FP", "CMFP", "DMFP", "FB3D", "MFP3D").
    fn name(&self) -> &'static str;

    /// Runs the construction.
    fn construct(&self, mesh: &T, faults: &T::FaultSet) -> Outcome<T>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{Coord, NodeStatus};

    fn outcome_with(regions: Vec<Region>, status: StatusMap) -> Outcome<Mesh2D> {
        Outcome {
            model: "test".to_string(),
            status,
            regions,
            rounds: RoundStats::quiescent(),
        }
    }

    #[test]
    fn average_region_size_handles_empty() {
        let mesh = Mesh2D::square(4);
        let o = outcome_with(vec![], StatusMap::all_enabled(&mesh));
        assert_eq!(o.average_region_size(), 0.0);
        assert_eq!(o.disabled_nonfaulty(), 0);
        assert!(o.covers_all_faults());
        assert!(o.all_regions_convex());
        assert!(o.regions_disjoint());
    }

    #[test]
    fn metrics_reflect_status_map() {
        let mesh = Mesh2D::square(4);
        let mut status = StatusMap::all_enabled(&mesh);
        status.set(Coord::new(0, 0), NodeStatus::Faulty);
        status.set(Coord::new(1, 0), NodeStatus::Disabled);
        let region = Region::from_coords([Coord::new(0, 0), Coord::new(1, 0)]);
        let o = outcome_with(vec![region], status);
        assert_eq!(o.disabled_nonfaulty(), 1);
        assert_eq!(o.faulty_count(), 1);
        assert_eq!(o.average_region_size(), 2.0);
        assert!(o.covers_all_faults());
    }

    #[test]
    fn covers_all_faults_detects_missing_fault() {
        let mesh = Mesh2D::square(4);
        let mut status = StatusMap::all_enabled(&mesh);
        status.set(Coord::new(3, 3), NodeStatus::Faulty);
        let o = outcome_with(vec![], status);
        assert!(!o.covers_all_faults());
    }

    #[test]
    fn overlapping_regions_detected() {
        let mesh = Mesh2D::square(4);
        let a = Region::from_coords([Coord::new(0, 0), Coord::new(1, 0)]);
        let b = Region::from_coords([Coord::new(1, 0)]);
        let o = outcome_with(vec![a, b], StatusMap::all_enabled(&mesh));
        assert!(!o.regions_disjoint());
    }

    #[test]
    fn regions_disjoint_over_many_regions() {
        // 400 single-node regions on a 20 x 20 lattice over a 128-wide
        // mesh (rows cross the x = 64 word boundary), then one overlap
        // added at the end and one at the start.
        let mesh = Mesh2D::square(128);
        let cells: Vec<Coord> = (0..400)
            .map(|i| Coord::new((i % 20) * 6, (i / 20) * 6))
            .collect();
        let mut regions: Vec<Region> = cells.iter().map(|&c| Region::from_coords([c])).collect();
        let o = outcome_with(regions.clone(), StatusMap::all_enabled(&mesh));
        assert!(o.regions_disjoint());
        regions.push(Region::from_coords([Coord::new(1, 1), cells[399]]));
        let o = outcome_with(regions.clone(), StatusMap::all_enabled(&mesh));
        assert!(!o.regions_disjoint());
        regions.pop();
        regions.insert(0, Region::from_coords([cells[200], Coord::new(127, 0)]));
        let o = outcome_with(regions, StatusMap::all_enabled(&mesh));
        assert!(!o.regions_disjoint());
    }

    #[test]
    fn regions_from_status_splits_components() {
        let mesh = Mesh2D::square(6);
        let mut status = StatusMap::all_enabled(&mesh);
        status.set(Coord::new(0, 0), NodeStatus::Faulty);
        status.set(Coord::new(0, 1), NodeStatus::Disabled);
        status.set(Coord::new(4, 4), NodeStatus::Faulty);
        let regions = Outcome::<Mesh2D>::regions_from_status(&status);
        assert_eq!(regions.len(), 2);
    }
}
