//! The uniform fault-model interface used by the experiment harness.
//!
//! Since the `mocp_topology` redesign the trait and the outcome are
//! *dimension-generic*: [`FaultModel`] is `mocp_topology::FaultModel`
//! (whose topology parameter defaults to [`Mesh2D`], so the 2-D model
//! impls in this crate read unchanged) and [`ModelOutcome`] is the 2-D
//! instantiation of the one generic [`Outcome`] — the Figure 9/10 metrics
//! and safety predicates (`covers_all_faults`, `all_regions_convex`,
//! `regions_disjoint`) are written once in `mocp_topology` and shared
//! with the 3-D stack instead of being duplicated per dimension.

use mesh2d::Mesh2D;

pub use mocp_topology::{FaultModel, Outcome, RoundStats};

/// The outcome of running a fault-model construction on a 2-D faulty
/// mesh: the `Mesh2D` instantiation of the generic
/// [`Outcome`]. `mocp_3d::Outcome3` is the same
/// type instantiated at `Mesh3D`.
pub type ModelOutcome = Outcome<Mesh2D>;

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{Coord, NodeStatus, Region, StatusMap};

    /// The 2-D alias exposes the generic metrics and predicates exactly as
    /// the pre-redesign hand-written impl block did.
    #[test]
    fn alias_carries_the_generic_metrics() {
        let mesh = Mesh2D::square(4);
        let mut status = StatusMap::all_enabled(&mesh);
        status.set(Coord::new(0, 0), NodeStatus::Faulty);
        status.set(Coord::new(1, 0), NodeStatus::Disabled);
        let region = Region::from_coords([Coord::new(0, 0), Coord::new(1, 0)]);
        let o = ModelOutcome {
            model: "test".to_string(),
            status,
            regions: vec![region],
            rounds: RoundStats::quiescent(),
        };
        assert_eq!(o.disabled_nonfaulty(), 1);
        assert_eq!(o.faulty_count(), 1);
        assert_eq!(o.average_region_size(), 2.0);
        assert!(o.covers_all_faults());
        assert!(o.all_regions_convex());
        assert!(o.regions_disjoint());
    }

    #[test]
    fn regions_from_status_splits_components() {
        let mesh = Mesh2D::square(6);
        let mut status = StatusMap::all_enabled(&mesh);
        status.set(Coord::new(0, 0), NodeStatus::Faulty);
        status.set(Coord::new(0, 1), NodeStatus::Disabled);
        status.set(Coord::new(4, 4), NodeStatus::Faulty);
        let regions = ModelOutcome::regions_from_status(&status);
        assert_eq!(regions.len(), 2);
    }
}
