//! Labelling scheme 2: the shrinking phase that produces Wu's sub-minimum
//! faulty polygons.
//!
//! > *All faulty nodes are marked disabled. All safe nodes are marked
//! > enabled. An unsafe node is initially marked disabled, but it is changed
//! > to enabled if it has two or more enabled neighbors.*
//!
//! Applied after labelling scheme 1, the remaining disabled sets are
//! orthogonal convex polygons (Wu, IPDPS 2001) that still cover every fault
//! but contain fewer healthy nodes than the rectangular blocks.
//!
//! [`SubMinimumPolygonModel`] runs both schemes bit-parallel on one packed
//! [`LabelFrame`] and reads its outcome off the disabled rows;
//! [`label_activation`] unpacks a frame into a `Grid<Activation>` for the
//! callers that want one. The scalar specification — the rule run node by
//! node on a synchronous round engine — is `mocp_core`'s
//! `tests/local_rule` oracle.

use crate::bitlabel::LabelFrame;
use crate::blocks::outcome_from_frame;
use crate::model::RoundStats;
use crate::model::{FaultModel, ModelOutcome};
use mesh2d::{Activation, FaultSet, Grid, Mesh2D, Safety};

/// Runs labelling scheme 2 to its fixpoint on top of an existing scheme-1
/// labelling. Returns the activation grid and the *additional* rounds the
/// shrinking phase needed. `safety` must mark every fault unsafe, as
/// scheme 1 does.
///
/// Loads `safety` into a mesh-wide [`LabelFrame`], runs its bit-parallel
/// [`shrink`](LabelFrame::shrink) and unpacks the result; the synchronous
/// round structure — and so the returned [`RoundStats`] — is identical to
/// the scalar local-rule execution the `construct_oracle` test pins it to.
pub fn label_activation(
    mesh: &Mesh2D,
    faults: &FaultSet,
    safety: &Grid<Safety>,
) -> (Grid<Activation>, RoundStats) {
    let mut frame = LabelFrame::for_faults(mesh, faults);
    for c in safety.coords_where(|&s| s == Safety::Unsafe) {
        frame.mark_unsafe(c);
    }
    let stats = frame.shrink();
    let grid = Grid::from_fn(mesh.width() as u32, mesh.height() as u32, |c| {
        if frame.excluded().contains(c) {
            Activation::Disabled
        } else {
            Activation::Enabled
        }
    });
    (grid, stats)
}

/// Wu's sub-minimum faulty polygon model (FP): labelling scheme 1 followed by
/// labelling scheme 2. The reported rounds are the sum of both phases, as in
/// the paper's Figure 11 ("extra rounds are needed for applying labelling
/// scheme 2").
///
/// Both schemes run on one mesh-wide [`LabelFrame`]; the status and the
/// 4-connected polygons are read straight off the disabled rows it leaves.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubMinimumPolygonModel;

impl FaultModel for SubMinimumPolygonModel {
    fn name(&self) -> &'static str {
        "FP"
    }

    fn construct(&self, mesh: &Mesh2D, faults: &FaultSet) -> ModelOutcome {
        let mut frame = LabelFrame::for_faults(mesh, faults);
        let rounds = frame.grow().then(frame.shrink());
        outcome_from_frame("FP", mesh, faults, &frame, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::Coord;

    fn faults(mesh: Mesh2D, list: &[(i32, i32)]) -> FaultSet {
        FaultSet::from_coords(mesh, list.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    #[test]
    fn single_fault_polygon_is_the_fault_itself() {
        let mesh = Mesh2D::square(7);
        let fs = faults(mesh, &[(3, 3)]);
        let outcome = SubMinimumPolygonModel.construct(&mesh, &fs);
        assert_eq!(outcome.disabled_nonfaulty(), 0);
        assert_eq!(outcome.regions.len(), 1);
        assert_eq!(outcome.regions[0].len(), 1);
    }

    #[test]
    fn diagonal_pair_keeps_block_nodes_enabled() {
        // Faults at (2,2),(3,3): the faulty block is 2x2, but both healthy
        // corners have two enabled neighbors outside the block and are
        // re-enabled; the resulting polygons are the two faults themselves
        // (a staircase is orthogonally convex).
        let mesh = Mesh2D::square(8);
        let fs = faults(mesh, &[(2, 2), (3, 3)]);
        let outcome = SubMinimumPolygonModel.construct(&mesh, &fs);
        assert_eq!(outcome.disabled_nonfaulty(), 0);
        assert!(outcome.all_regions_convex());
        assert!(outcome.covers_all_faults());
    }

    #[test]
    fn fp_never_disables_more_than_fb() {
        let mesh = Mesh2D::square(14);
        let fs = faults(
            mesh,
            &[
                (2, 2),
                (3, 3),
                (4, 2),
                (2, 6),
                (3, 7),
                (9, 9),
                (10, 10),
                (11, 9),
                (10, 8),
            ],
        );
        let fb = crate::FaultyBlockModel.construct(&mesh, &fs);
        let fp = SubMinimumPolygonModel.construct(&mesh, &fs);
        assert!(fp.disabled_nonfaulty() <= fb.disabled_nonfaulty());
        assert!(
            fp.rounds.rounds >= fb.rounds.rounds,
            "FP adds scheme-2 rounds"
        );
    }

    #[test]
    fn fp_polygons_are_orthogonally_convex() {
        let mesh = Mesh2D::square(16);
        let fs = faults(
            mesh,
            &[
                (2, 2),
                (3, 2),
                (4, 2),
                (2, 3),
                (4, 3),
                (2, 4),
                (4, 4),
                (10, 10),
                (11, 11),
                (12, 10),
                (11, 9),
            ],
        );
        let outcome = SubMinimumPolygonModel.construct(&mesh, &fs);
        assert!(outcome.all_regions_convex());
        assert!(outcome.covers_all_faults());
        assert!(outcome.regions_disjoint());
    }

    #[test]
    fn fp_polygon_of_u_shape_fills_notch_only() {
        let mesh = Mesh2D::square(8);
        let u = [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)];
        let outcome = SubMinimumPolygonModel.construct(&mesh, &faults(mesh, &u));
        assert_eq!(outcome.regions.len(), 1);
        let polygon = &outcome.regions[0];
        assert!(polygon.is_orthogonally_convex());
        assert!(u.iter().all(|&(x, y)| polygon.contains(Coord::new(x, y))));
        assert_eq!(polygon.len(), 9, "U plus the two notch nodes");
        assert!(outcome.rounds.rounds > 0);
    }

    #[test]
    fn fp_of_staircase_adds_nothing() {
        let mesh = Mesh2D::square(10);
        let stairs = [(2, 2), (3, 3), (4, 4), (5, 5)];
        let outcome = SubMinimumPolygonModel.construct(&mesh, &faults(mesh, &stairs));
        assert_eq!(outcome.disabled_nonfaulty(), 0);
        assert_eq!(outcome.regions.len(), 4, "diagonal nodes are 4-separate");
    }

    #[test]
    fn label_grids_of_a_diagonal_pair() {
        let mesh = Mesh2D::square(8);
        let fs = faults(mesh, &[(2, 2), (3, 3)]);
        let (safety, _) = crate::label_safety(&mesh, &fs);
        let (activation, _) = label_activation(&mesh, &fs, &safety);
        assert_eq!(safety[Coord::new(2, 3)], Safety::Unsafe);
        assert_eq!(activation[Coord::new(2, 3)], Activation::Enabled);
        assert_eq!(activation[Coord::new(2, 2)], Activation::Disabled);
    }
}
