//! Verification of the paper's Theorem: every polygon produced by the
//! construction is a *minimum* faulty polygon.
//!
//! The proof in Section 3.1 argues that any set of disjoint orthogonal
//! convex polygons covering a component's faults must contain every node the
//! construction adds. Computationally, that is the statement that the
//! polygon equals the component's orthogonal convex hull: the hull is
//! contained in *every* orthogonal convex superset of the component (it is a
//! closure), so no covering polygon can disable fewer non-faulty nodes.
//!
//! This module provides the predicate used throughout the test suites. The
//! independent check of the theorem — a brute-force search for a smaller
//! convex cover of every component of every fault set of a small mesh — is
//! the `exhaustive_small` test.

use crate::component::FaultyComponent;
use crate::hull::minimum_polygon;
use mesh2d::Region;

/// True when `polygon` is the minimum orthogonal convex polygon covering
/// `component`: it contains every fault, it is orthogonally convex, and it
/// equals the component's orthogonal convex hull (hence no orthogonal convex
/// cover can be smaller).
pub fn is_minimum_covering_polygon(component: &FaultyComponent, polygon: &Region) -> bool {
    component.region().is_subset(polygon)
        && polygon.is_orthogonally_convex()
        && *polygon == minimum_polygon(component)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::Coord;

    fn component(list: &[(i32, i32)]) -> FaultyComponent {
        FaultyComponent::new(Region::from_coords(
            list.iter().map(|&(x, y)| Coord::new(x, y)),
        ))
    }

    #[test]
    fn hull_is_accepted_as_minimum() {
        let c = component(&[(0, 0), (1, 1), (2, 0)]);
        let hull = minimum_polygon(&c);
        assert!(is_minimum_covering_polygon(&c, &hull));
    }

    #[test]
    fn non_convex_polygon_rejected() {
        let c = component(&[(0, 0), (1, 1)]);
        let mut bad = c.region().clone();
        bad.insert(Coord::new(3, 0));
        bad.insert(Coord::new(5, 0));
        assert!(!is_minimum_covering_polygon(&c, &bad));
    }

    #[test]
    fn oversized_polygon_rejected() {
        let c = component(&[(0, 0), (1, 1)]);
        let mut big = minimum_polygon(&c);
        big.insert(Coord::new(0, 1));
        big.insert(Coord::new(1, 0));
        // still convex (2x2 square) and a superset, but not minimum
        assert!(big.is_orthogonally_convex());
        assert!(!is_minimum_covering_polygon(&c, &big));
    }

    #[test]
    fn polygon_missing_a_fault_rejected() {
        let c = component(&[(0, 0), (1, 1)]);
        let partial = Region::from_coords([Coord::new(0, 0)]);
        assert!(!is_minimum_covering_polygon(&c, &partial));
    }
}
