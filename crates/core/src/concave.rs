//! Centralized solution 2: concave row and column sections (Definition 3).
//!
//! > *Given a component, for a horizontal (vertical) line where two end nodes
//! > on the line are inside the component, each section of the line that is
//! > outside the component is called a concave row (column) section.*
//!
//! To find the minimum faulty polygon it suffices to disable every node on a
//! concave row or column section. Because disabling those nodes can create
//! new row/column pairs (the added nodes themselves lie between component
//! nodes), the scan is iterated until no new section appears; for 8-connected
//! components a single horizontal + vertical scan already reaches the
//! fixpoint, which the property tests confirm.

use crate::component::FaultyComponent;
use mesh2d::{Coord, Region};

/// Whether a concave section runs along a row or a column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Orientation {
    /// A horizontal run of non-component nodes between two component nodes of
    /// the same row.
    Row,
    /// A vertical run of non-component nodes between two component nodes of
    /// the same column.
    Column,
}

/// One maximal concave row or column section.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConcaveSection {
    /// Row or column section.
    pub orientation: Orientation,
    /// The fixed coordinate: the row (`y`) for a row section, the column
    /// (`x`) for a column section.
    pub line: i32,
    /// First varying coordinate of the section (inclusive).
    pub start: i32,
    /// Last varying coordinate of the section (inclusive).
    pub end: i32,
}

impl ConcaveSection {
    /// The nodes of the section.
    pub fn nodes(&self) -> Vec<Coord> {
        (self.start..=self.end)
            .map(|v| match self.orientation {
                Orientation::Row => Coord::new(v, self.line),
                Orientation::Column => Coord::new(self.line, v),
            })
            .collect()
    }

    /// Number of nodes in the section.
    pub fn len(&self) -> usize {
        (self.end - self.start + 1) as usize
    }

    /// Sections are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The two end nodes of the section (the positions a notification end
    /// node records in the distributed solution).
    pub fn end_nodes(&self) -> (Coord, Coord) {
        match self.orientation {
            Orientation::Row => (
                Coord::new(self.start, self.line),
                Coord::new(self.end, self.line),
            ),
            Orientation::Column => (
                Coord::new(self.line, self.start),
                Coord::new(self.line, self.end),
            ),
        }
    }
}

/// Scans a node set once and returns every concave row and column section
/// with respect to it (Definition 3, applied literally to `occupied`).
pub fn scan_sections(occupied: &Region) -> Vec<ConcaveSection> {
    let mut sections = Vec::new();
    for (&y, xs) in occupied.rows().iter() {
        for w in xs.windows(2) {
            if w[1] > w[0] + 1 {
                sections.push(ConcaveSection {
                    orientation: Orientation::Row,
                    line: y,
                    start: w[0] + 1,
                    end: w[1] - 1,
                });
            }
        }
    }
    for (&x, ys) in occupied.columns().iter() {
        for w in ys.windows(2) {
            if w[1] > w[0] + 1 {
                sections.push(ConcaveSection {
                    orientation: Orientation::Column,
                    line: x,
                    start: w[0] + 1,
                    end: w[1] - 1,
                });
            }
        }
    }
    sections
}

/// The concave row and column sections of a faulty component (first scan
/// only — exactly Definition 3 with respect to the component's faults).
pub fn concave_sections(component: &FaultyComponent) -> Vec<ConcaveSection> {
    scan_sections(component.region())
}

/// Centralized solution 2: disable every node on a concave row/column
/// section, iterating the scan until no section remains, and return the
/// resulting minimum faulty polygon (component plus disabled nodes).
#[derive(Clone, Copy, Debug, Default)]
pub struct ConcaveSectionSolver;

impl ConcaveSectionSolver {
    /// Computes the component's minimum faulty polygon and the number of scan
    /// iterations that were required (1 for every 8-connected component seen
    /// in practice; the loop guards against pathological inputs).
    pub fn solve(&self, component: &FaultyComponent) -> (Region, u32) {
        let mut polygon = component.region().clone();
        let mut iterations = 0;
        loop {
            let sections = scan_sections(&polygon);
            if sections.is_empty() {
                break;
            }
            iterations += 1;
            for s in sections {
                for c in s.nodes() {
                    polygon.insert(c);
                }
            }
        }
        (polygon, iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull::minimum_polygon;
    use mesh2d::Region;

    fn component(list: &[(i32, i32)]) -> FaultyComponent {
        FaultyComponent::new(Region::from_coords(
            list.iter().map(|&(x, y)| Coord::new(x, y)),
        ))
    }

    #[test]
    fn convex_component_has_no_sections() {
        let l = component(&[(2, 4), (3, 4), (4, 3)]);
        assert!(concave_sections(&l).is_empty());
        let (poly, iters) = ConcaveSectionSolver.solve(&l);
        assert_eq!(poly, l.region().clone());
        assert_eq!(iters, 0);
    }

    #[test]
    fn u_shape_has_one_column_section() {
        let u = component(&[(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)]);
        let sections = concave_sections(&u);
        // column 3 rows 3..4 is outside the component between (3,2) and ...
        // no component node above in column 3, so the *column* section does
        // not exist; rows 3 and 4 each have a row section at x = 3.
        let row_sections: Vec<_> = sections
            .iter()
            .filter(|s| s.orientation == Orientation::Row)
            .collect();
        assert_eq!(row_sections.len(), 2);
        for s in &row_sections {
            assert_eq!((s.start, s.end), (3, 3));
            assert_eq!(s.len(), 1);
        }
        let (poly, iters) = ConcaveSectionSolver.solve(&u);
        assert_eq!(iters, 1);
        assert_eq!(poly.len(), 9);
    }

    #[test]
    fn section_nodes_and_end_nodes() {
        let s = ConcaveSection {
            orientation: Orientation::Column,
            line: 4,
            start: 2,
            end: 5,
        };
        assert_eq!(s.len(), 4);
        assert_eq!(s.nodes().first().copied(), Some(Coord::new(4, 2)));
        assert_eq!(s.nodes().last().copied(), Some(Coord::new(4, 5)));
        assert_eq!(s.end_nodes(), (Coord::new(4, 2), Coord::new(4, 5)));
        let r = ConcaveSection {
            orientation: Orientation::Row,
            line: 1,
            start: 7,
            end: 8,
        };
        assert_eq!(r.nodes(), vec![Coord::new(7, 1), Coord::new(8, 1)]);
    }

    #[test]
    fn solver_matches_hull_specification() {
        let shapes: Vec<Vec<(i32, i32)>> = vec![
            vec![(0, 0), (1, 1), (2, 2)],
            vec![(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)],
            vec![(0, 2), (1, 1), (2, 0), (3, 1), (4, 2)],
            vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (0, 1),
                (2, 1),
                (0, 2),
                (1, 2),
                (2, 2),
            ],
            vec![(5, 5)],
            vec![(1, 3), (2, 2), (3, 3), (2, 4), (2, 3)],
        ];
        for shape in shapes {
            let comp = component(&shape);
            let (poly, _) = ConcaveSectionSolver.solve(&comp);
            assert_eq!(poly, minimum_polygon(&comp), "shape {shape:?}");
            assert!(poly.is_orthogonally_convex());
        }
    }

    #[test]
    fn ring_component_fills_hole_via_column_section() {
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
        let sections = concave_sections(&ring);
        assert!(sections.iter().any(|s| s.orientation == Orientation::Column
            && s.line == 1
            && s.start == 1
            && s.end == 1));
        let (poly, _) = ConcaveSectionSolver.solve(&ring);
        assert_eq!(poly.len(), 9);
    }
}
