//! Rectangular faulty block extraction and the FB fault model.

use crate::bitlabel::LabelFrame;
use crate::model::RoundStats;
use crate::model::{FaultModel, ModelOutcome};
use mesh2d::{
    BitGrid, BitScratch, Connectivity, Coord, FaultSet, Grid, Mesh2D, NodeStatus, Rect, Region,
    Safety, StatusMap,
};

/// Extracts the rectangular faulty blocks from a scheme-1 safety labelling:
/// the 4-connected components of unsafe nodes together with their bounding
/// rectangles, in x-major component order.
///
/// At the fixpoint of labelling scheme 1 every such component *is* a
/// rectangle; the returned pairs let callers verify that
/// (`region.len() == rect.area()`).
pub fn extract_faulty_blocks(safety: &Grid<Safety>) -> Vec<(Rect, Region)> {
    let mut unsafe_bits = BitGrid::with_bounds(
        Coord::ORIGIN,
        Coord::new(safety.width() - 1, safety.height() - 1),
    );
    for c in safety.coords_where(|&s| s == Safety::Unsafe) {
        unsafe_bits.set(c);
    }
    unsafe_bits
        .component_regions_with(Connectivity::Four, &mut BitScratch::new())
        .into_iter()
        .map(|region| {
            let rect = region
                .bounding_rect()
                .expect("non-empty component always has a bounding box");
            (rect, region)
        })
        .collect()
}

/// The outcome a mesh-wide [`LabelFrame`] leaves behind: the faults of
/// `faults` plus the frame's excluded bits as the status, and the excluded
/// set's 4-connected components as the regions.
pub(crate) fn outcome_from_frame(
    model: &str,
    mesh: &Mesh2D,
    faults: &FaultSet,
    frame: &LabelFrame,
    rounds: RoundStats,
) -> ModelOutcome {
    let excluded = frame.excluded();
    let mut status = StatusMap::from_fault_list(mesh, faults.in_insertion_order());
    for c in excluded.iter() {
        status.supersede(c, NodeStatus::Disabled);
    }
    ModelOutcome {
        model: model.to_string(),
        status,
        regions: excluded.component_regions_with(Connectivity::Four, &mut BitScratch::new()),
        rounds,
    }
}

/// The classical rectangular faulty block model (FB).
///
/// Every unsafe node — faulty or not — is excluded from routing, so the
/// disabled set per block is the full rectangle minus the faults. Scheme 1
/// runs on a mesh-wide [`LabelFrame`], and the blocks are the 4-connected
/// components of its unsafe rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultyBlockModel;

impl FaultyBlockModel {
    /// Runs labelling scheme 1 and returns the blocks' bounding rectangles
    /// alongside the outcome, one per region and in region order.
    pub fn construct_with_blocks(
        &self,
        mesh: &Mesh2D,
        faults: &FaultSet,
    ) -> (ModelOutcome, Vec<Rect>) {
        let outcome = self.construct(mesh, faults);
        let rects = outcome
            .regions
            .iter()
            .map(|r| r.bounding_rect().expect("blocks are never empty"))
            .collect();
        (outcome, rects)
    }
}

impl FaultModel for FaultyBlockModel {
    fn name(&self) -> &'static str {
        "FB"
    }

    fn construct(&self, mesh: &Mesh2D, faults: &FaultSet) -> ModelOutcome {
        let mut frame = LabelFrame::for_faults(mesh, faults);
        let rounds = frame.grow();
        outcome_from_frame("FB", mesh, faults, &frame, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme1::label_safety;

    fn faults(mesh: Mesh2D, list: &[(i32, i32)]) -> FaultSet {
        FaultSet::from_coords(mesh, list.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    #[test]
    fn blocks_are_rectangles() {
        let mesh = Mesh2D::square(12);
        let fs = faults(mesh, &[(2, 2), (3, 3), (4, 2), (8, 8), (8, 9), (9, 8)]);
        let (safety, _) = label_safety(&mesh, &fs);
        let blocks = extract_faulty_blocks(&safety);
        assert_eq!(blocks.len(), 2);
        for (rect, region) in &blocks {
            assert_eq!(
                rect.area(),
                region.len(),
                "unsafe component must be a full rectangle"
            );
        }
    }

    #[test]
    fn fb_outcome_disables_whole_rectangle() {
        let mesh = Mesh2D::square(10);
        let fs = faults(mesh, &[(2, 2), (3, 3)]);
        let model = FaultyBlockModel;
        let outcome = model.construct(&mesh, &fs);
        assert_eq!(outcome.model, "FB");
        assert_eq!(outcome.faulty_count(), 2);
        assert_eq!(outcome.disabled_nonfaulty(), 2); // 2x2 block minus 2 faults
        assert!(outcome.covers_all_faults());
        assert!(outcome.all_regions_convex());
        assert!(outcome.regions_disjoint());
    }

    #[test]
    fn fb_with_no_faults_is_empty() {
        let mesh = Mesh2D::square(5);
        let outcome = FaultyBlockModel.construct(&mesh, &FaultSet::new(mesh));
        assert!(outcome.regions.is_empty());
        assert_eq!(outcome.disabled_nonfaulty(), 0);
        assert_eq!(outcome.rounds.rounds, 0);
    }

    #[test]
    fn fb_can_disable_many_more_nodes_than_faults() {
        // A sparse diagonal chain of faults grows into one large block: the
        // pathological over-approximation the paper's introduction motivates.
        let mesh = Mesh2D::square(16);
        let chain: Vec<(i32, i32)> = (0..8).map(|i| (i + 2, i + 2)).collect();
        let fs = faults(mesh, &chain);
        let outcome = FaultyBlockModel.construct(&mesh, &fs);
        assert_eq!(outcome.regions.len(), 1);
        assert_eq!(outcome.regions[0].len(), 64, "8x8 block");
        assert_eq!(outcome.disabled_nonfaulty(), 64 - 8);
    }

    #[test]
    fn construct_with_blocks_returns_matching_rects() {
        let mesh = Mesh2D::square(10);
        let fs = faults(mesh, &[(1, 1), (2, 2), (7, 7)]);
        let (outcome, rects) = FaultyBlockModel.construct_with_blocks(&mesh, &fs);
        assert_eq!(outcome.regions.len(), rects.len());
        for (region, rect) in outcome.regions.iter().zip(&rects) {
            assert_eq!(region.bounding_rect().unwrap(), *rect);
        }
    }

    #[test]
    fn rounds_grow_with_block_size() {
        let mesh = Mesh2D::square(24);
        let small = faults(mesh, &[(2, 2), (3, 3)]);
        let chain: Vec<(i32, i32)> = (0..10).map(|i| (i + 2, i + 2)).collect();
        let large = faults(mesh, &chain);
        let r_small = FaultyBlockModel.construct(&mesh, &small).rounds;
        let r_large = FaultyBlockModel.construct(&mesh, &large).rounds;
        assert!(r_large.rounds > r_small.rounds);
    }
}
