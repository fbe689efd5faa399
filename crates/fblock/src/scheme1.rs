//! Labelling scheme 1: the growing phase that produces rectangular faulty
//! blocks.
//!
//! > *All faulty nodes are unsafe, and all non-faulty nodes are safe
//! > initially. A non-faulty node is changed to unsafe if it has a faulty or
//! > unsafe neighbor in both dimensions; otherwise, it remains safe.*
//!
//! The rule is monotone (a node never reverts to safe), so iterating it
//! synchronously converges; the connected unsafe sets at the fixpoint are
//! rectangles (verified by `blocks::tests` and by property tests).
//!
//! The constructions run the rule bit-parallel on packed rows
//! ([`LabelFrame::grow`]) and never build a label grid; [`label_safety`]
//! unpacks a frame into a `Grid<Safety>` for the callers that want one
//! (the tests and oracles). The scalar specification — the rule run node
//! by node on a synchronous round engine — is `mocp_core`'s
//! `tests/local_rule` oracle.

use crate::bitlabel::LabelFrame;
use crate::model::RoundStats;
use mesh2d::{FaultSet, Grid, Mesh2D, Safety};

/// Runs labelling scheme 1 to its fixpoint.
///
/// Returns the per-node safety labels and the number of rounds of neighbor
/// information exchange the distributed execution needed — the FB round count
/// of Figure 11.
///
/// Unpacks the scheme-1 run of a mesh-wide [`LabelFrame`] into a label
/// grid; the constructions themselves read the frame's packed rows. The
/// synchronous round structure — and so the returned [`RoundStats`] — is
/// identical to the scalar local-rule execution the `construct_oracle`
/// test pins it to.
pub fn label_safety(mesh: &Mesh2D, faults: &FaultSet) -> (Grid<Safety>, RoundStats) {
    let mut frame = LabelFrame::for_faults(mesh, faults);
    let stats = frame.grow();
    let grid = Grid::from_fn(mesh.width() as u32, mesh.height() as u32, |c| {
        if frame.excluded().contains(c) {
            Safety::Unsafe
        } else {
            Safety::Safe
        }
    });
    (grid, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{Coord, Region};

    fn faults(mesh: Mesh2D, list: &[(i32, i32)]) -> FaultSet {
        FaultSet::from_coords(mesh, list.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    fn unsafe_region(grid: &Grid<Safety>) -> Region {
        Region::from_coords(grid.coords_where(|&s| s == Safety::Unsafe))
    }

    #[test]
    fn no_faults_means_everything_safe() {
        let mesh = Mesh2D::square(6);
        let fs = FaultSet::new(mesh);
        let (grid, stats) = label_safety(&mesh, &fs);
        assert_eq!(stats.rounds, 0);
        assert!(stats.converged);
        assert!(unsafe_region(&grid).is_empty());
    }

    #[test]
    fn isolated_fault_stays_single_unsafe_node() {
        let mesh = Mesh2D::square(7);
        let fs = faults(mesh, &[(3, 3)]);
        let (grid, _) = label_safety(&mesh, &fs);
        let region = unsafe_region(&grid);
        assert_eq!(region.len(), 1);
        assert!(region.contains(Coord::new(3, 3)));
    }

    #[test]
    fn diagonal_faults_grow_into_square_block() {
        // Faults at (2,2) and (3,3): the two off-diagonal nodes have an
        // unsafe neighbor in both dimensions and become unsafe, forming the
        // 2x2 faulty block of the classical model.
        let mesh = Mesh2D::square(8);
        let fs = faults(mesh, &[(2, 2), (3, 3)]);
        let (grid, stats) = label_safety(&mesh, &fs);
        let region = unsafe_region(&grid);
        assert_eq!(region.len(), 4);
        assert!(region.contains(Coord::new(2, 3)));
        assert!(region.contains(Coord::new(3, 2)));
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn far_apart_faults_do_not_merge() {
        let mesh = Mesh2D::square(10);
        let fs = faults(mesh, &[(1, 1), (8, 8)]);
        let (grid, _) = label_safety(&mesh, &fs);
        assert_eq!(unsafe_region(&grid).len(), 2);
    }

    #[test]
    fn u_shape_fills_to_rectangle() {
        let mesh = Mesh2D::square(8);
        let fs = faults(
            mesh,
            &[(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)],
        );
        let (grid, _) = label_safety(&mesh, &fs);
        let region = unsafe_region(&grid);
        assert_eq!(region.len(), 9, "the 3x3 bounding rectangle becomes unsafe");
        assert!(region.contains(Coord::new(3, 3)));
        assert!(region.contains(Coord::new(3, 4)));
        let bbox = region.bounding_rect().unwrap();
        assert_eq!(bbox.area(), region.len());
    }

    #[test]
    fn unsafe_region_always_contains_faults_and_is_monotone() {
        let mesh = Mesh2D::square(12);
        let fs = faults(mesh, &[(2, 2), (3, 4), (4, 3), (9, 9), (9, 10)]);
        let (grid, _) = label_safety(&mesh, &fs);
        let region = unsafe_region(&grid);
        for f in fs.in_insertion_order() {
            assert!(region.contains(*f));
        }
    }

    #[test]
    fn mesh_border_fault_blocks_stay_in_mesh() {
        let mesh = Mesh2D::square(6);
        let fs = faults(mesh, &[(0, 0), (1, 1), (0, 5), (5, 0), (5, 5), (4, 4)]);
        let (grid, _) = label_safety(&mesh, &fs);
        let region = unsafe_region(&grid);
        for c in region.iter() {
            assert!(mesh.contains(c));
        }
        // corner cluster (0,0),(1,1) grows to the 2x2 corner block
        assert!(region.contains(Coord::new(0, 1)));
        assert!(region.contains(Coord::new(1, 0)));
    }
}
