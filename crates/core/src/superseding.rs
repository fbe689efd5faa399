//! Piling per-component diagrams with the superseding rule.
//!
//! Each component produces its own minimum faulty polygon. The final diagram
//! is constructed by "piling" all the per-component diagrams on top of each
//! other with the rule: *black nodes overwrite gray and white nodes, and gray
//! nodes overwrite white nodes*. In status terms: a node that is faulty
//! anywhere stays faulty; a non-faulty node disabled by any polygon is
//! disabled; everything else stays enabled.

use mesh2d::{FaultSet, Mesh2D, NodeStatus, Region, StatusMap};

/// Combines per-component minimum polygons into the network-wide status map.
///
/// `polygons` are the per-component minimum faulty polygons (each containing
/// that component's faults plus the forced non-faulty nodes).
pub fn pile_polygons(mesh: &Mesh2D, faults: &FaultSet, polygons: &[Region]) -> StatusMap {
    let mut status = StatusMap::from_fault_list(mesh, faults.in_insertion_order());
    for polygon in polygons {
        for c in polygon.bits().iter() {
            // The superseding rule keeps faulty (black) nodes faulty and
            // upgrades enabled (white) nodes to disabled (gray), in any
            // visiting order, so the storage order serves.
            status.supersede(c, NodeStatus::Disabled);
        }
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::Coord;

    #[test]
    fn faults_stay_black_even_when_covered_by_other_polygons() {
        let mesh = Mesh2D::square(6);
        let faults = FaultSet::from_coords(mesh, [Coord::new(1, 1), Coord::new(3, 3)]);
        // A polygon of component A that happens to cover the fault of
        // component B must not downgrade it to gray.
        let poly_a = Region::from_coords([Coord::new(1, 1), Coord::new(2, 1), Coord::new(3, 1)]);
        let poly_b = Region::from_coords([Coord::new(3, 3)]);
        let status = pile_polygons(&mesh, &faults, &[poly_a, poly_b]);
        assert_eq!(status.status(Coord::new(1, 1)), NodeStatus::Faulty);
        assert_eq!(status.status(Coord::new(3, 3)), NodeStatus::Faulty);
        assert_eq!(status.status(Coord::new(2, 1)), NodeStatus::Disabled);
        assert_eq!(status.status(Coord::new(3, 1)), NodeStatus::Disabled);
        assert_eq!(status.disabled_count(), 2);
    }

    #[test]
    fn overlapping_polygons_do_not_double_count() {
        let mesh = Mesh2D::square(6);
        let faults = FaultSet::from_coords(mesh, [Coord::new(0, 0), Coord::new(4, 0)]);
        let a = Region::from_coords([Coord::new(0, 0), Coord::new(1, 0), Coord::new(2, 0)]);
        let b = Region::from_coords([Coord::new(2, 0), Coord::new(3, 0), Coord::new(4, 0)]);
        let status = pile_polygons(&mesh, &faults, &[a, b]);
        assert_eq!(status.disabled_count(), 3);
        assert_eq!(status.faulty_count(), 2);
    }

    #[test]
    fn empty_polygon_list_keeps_only_faults() {
        let mesh = Mesh2D::square(4);
        let faults = FaultSet::from_coords(mesh, [Coord::new(2, 2)]);
        let status = pile_polygons(&mesh, &faults, &[]);
        assert_eq!(status.faulty_count(), 1);
        assert_eq!(status.disabled_count(), 0);
    }
}
