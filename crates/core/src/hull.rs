//! The minimum orthogonal convex polygon of a single component.
//!
//! For one 8-connected faulty component the minimum faulty polygon is the
//! component's orthogonal convex hull: the smallest superset whose
//! intersection with every row and every column is contiguous. Both
//! centralized solutions and the distributed protocol must produce exactly
//! this set for every component; this module is the specification they are
//! tested against.

use crate::component::FaultyComponent;
use mesh2d::Region;

/// The minimum orthogonal convex polygon covering `component`: the
/// component's faults plus every node forced by Definition 1.
///
/// Computed by the bit-parallel hull fixpoint of
/// [`Region::orthogonal_convex_hull`] (per-row occupied spans from
/// leading/trailing-zero counts, word-parallel column fills). This is the
/// specification the production solvers in
/// [`centralized`](crate::centralized), [`construction`](crate::construction)
/// and [`distributed`](crate::distributed) are verified against; the scalar
/// iterated gap fill it replaced is the `region_oracle` test's.
pub fn minimum_polygon(component: &FaultyComponent) -> Region {
    component.region().orthogonal_convex_hull()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{Coord, Rect};

    /// Number of non-faulty nodes the minimum polygon of `component`
    /// contains.
    fn added_node_count(component: &FaultyComponent) -> usize {
        minimum_polygon(component).len() - component.len()
    }

    fn component(list: &[(i32, i32)]) -> FaultyComponent {
        FaultyComponent::new(Region::from_coords(
            list.iter().map(|&(x, y)| Coord::new(x, y)),
        ))
    }

    #[test]
    fn convex_component_needs_no_additions() {
        let l = component(&[(2, 4), (3, 4), (4, 3)]);
        assert_eq!(minimum_polygon(&l), l.region().clone());
        assert_eq!(added_node_count(&l), 0);
    }

    #[test]
    fn u_shape_needs_exactly_the_notch() {
        let u = component(&[(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)]);
        let poly = minimum_polygon(&u);
        assert_eq!(added_node_count(&u), 2);
        assert!(poly.contains(Coord::new(3, 3)));
        assert!(poly.contains(Coord::new(3, 4)));
        assert!(poly.is_orthogonally_convex());
    }

    #[test]
    fn staircase_is_already_minimum() {
        let s = component(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(added_node_count(&s), 0);
    }

    #[test]
    fn polygon_is_contained_in_virtual_block() {
        let c = component(&[(1, 1), (2, 2), (3, 1), (4, 2), (5, 1)]);
        let poly = minimum_polygon(&c);
        let block = Region::from_rect(c.virtual_block());
        assert!(poly.is_subset(&block));
        assert!(c.region().is_subset(&poly));
    }

    #[test]
    fn hole_in_component_is_filled() {
        // A 3x3 ring of faults with a hole in the middle: the closed concave
        // region must be filled by the minimum polygon.
        let ring = component(&[
            (0, 0),
            (1, 0),
            (2, 0),
            (0, 1),
            (2, 1),
            (0, 2),
            (1, 2),
            (2, 2),
        ]);
        let poly = minimum_polygon(&ring);
        assert!(poly.contains(Coord::new(1, 1)));
        assert_eq!(added_node_count(&ring), 1);
        assert_eq!(
            poly,
            Region::from_rect(Rect::new(Coord::new(0, 0), Coord::new(2, 2)))
        );
    }

    #[test]
    fn polygon_never_smaller_than_component() {
        let c = component(&[(0, 2), (1, 1), (2, 0), (3, 1), (4, 2)]);
        let poly = minimum_polygon(&c);
        assert!(poly.len() >= c.len());
        assert!(poly.is_orthogonally_convex());
    }
}
