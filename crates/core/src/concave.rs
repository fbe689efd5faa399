//! Centralized solution 2: concave row and column sections (Definition 3).
//!
//! > *Given a component, for a horizontal (vertical) line where two end nodes
//! > on the line are inside the component, each section of the line that is
//! > outside the component is called a concave row (column) section.*
//!
//! To find the minimum faulty polygon it suffices to disable every node on a
//! concave row or column section. Because disabling those nodes can create
//! new row/column pairs (the added nodes themselves lie between component
//! nodes), the scan is iterated until no new section appears. The
//! production construction of solution 2 runs that scan-then-fill
//! iteration bit-parallel on packed rows (`BitGrid::hull_fixpoint`, through
//! [`construct_component_with`](crate::construct_component_with)); the scalar scan
//! and solver are the `construct_oracle` test's. This module keeps the
//! section type the distributed protocol detects and notifies.

use mesh2d::Coord;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_nodes_and_end_nodes() {
        let s = ConcaveSection {
            orientation: Orientation::Column,
            line: 4,
            start: 2,
            end: 5,
        };
        assert_eq!(s.nodes().len(), 4);
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
}
