//! The circulating initiation message and the boundary array `V`.
//!
//! While the initiation message travels around a component's boundary ring,
//! every east / south / west / north boundary node it passes updates the
//! corresponding entry of the boundary array `V[1..n](E, S, W, N)` — the row
//! number of the most recently visited north/south boundary node of each
//! column, and the column number of the most recently visited east/west
//! boundary node of each row. A node becomes a **notification end node** when
//! its own update closes a concave row or column section:
//!
//! * an east (west) boundary node fires when the west (east) entry of its row
//!   records a column no smaller (no larger) than its own;
//! * a south (north) boundary node fires when the north (south) entry of its
//!   column records a row no smaller (no larger) than its own.
//!
//! Detected sections are clamped to the contiguous run of non-component
//! nodes containing the detector (a stale entry from an earlier section of
//! the same line can only widen the span across component nodes, never into
//! healthy territory that is not actually concave).
//!
//! The replay reads the component off the ring frame the walks were
//! traced on: boundary roles and the section clamps are byte reads that
//! return "not a member" outside the window. The boundary array is four
//! window-indexed arrays (rows for `E`/`W`, columns for `S`/`N`), reused
//! across walks and components.

use crate::component::FaultyComponent;
use crate::concave::{ConcaveSection, Orientation};
use crate::distributed::boundary::{RingFrame, RingWalk};
use mesh2d::{Coord, Rect};

/// Marks an entry of the boundary array that is still "-".
const UNSET: i32 = i32::MIN;

/// The boundary array `V[1..n](E, S, W, N)` carried by the initiation
/// message, over the rows and columns of one protocol window. Every entry
/// starts as "-" (as in the paper).
#[derive(Clone, Debug, Default)]
pub struct BoundaryArray {
    /// The window's south-west corner: `east`/`west` are indexed by
    /// `row - y0`, `north`/`south` by `column - x0`.
    x0: i32,
    y0: i32,
    /// Row → column of the most recently visited east boundary node.
    east: Vec<i32>,
    /// Row → column of the most recently visited west boundary node.
    west: Vec<i32>,
    /// Column → row of the most recently visited north boundary node.
    north: Vec<i32>,
    /// Column → row of the most recently visited south boundary node.
    south: Vec<i32>,
    /// Times the arrays grew.
    grows: u64,
}

impl BoundaryArray {
    /// Resets every entry to "-" over the rows and columns of `window`.
    pub(crate) fn reset(&mut self, window: Rect) {
        (self.x0, self.y0) = (window.min().x, window.min().y);
        let (width, height) = (window.width() as usize, window.height() as usize);
        if self.east.capacity() < height || self.north.capacity() < width {
            self.grows += 1;
        }
        for (line, len) in [
            (&mut self.east, height),
            (&mut self.west, height),
            (&mut self.north, width),
            (&mut self.south, width),
        ] {
            line.clear();
            line.resize(len, UNSET);
        }
    }

    /// Times the arrays grew since construction.
    pub(crate) fn grows(&self) -> u64 {
        self.grows
    }

    fn get(line: &[i32], at: i32) -> Option<i32> {
        usize::try_from(at)
            .ok()
            .and_then(|i| line.get(i))
            .copied()
            .filter(|&v| v != UNSET)
    }

    /// Looks up the east entry of a row (used by tests).
    pub fn east_of_row(&self, row: i32) -> Option<i32> {
        Self::get(&self.east, row - self.y0)
    }

    /// Looks up the west entry of a row.
    pub fn west_of_row(&self, row: i32) -> Option<i32> {
        Self::get(&self.west, row - self.y0)
    }

    /// Looks up the north entry of a column.
    pub fn north_of_column(&self, col: i32) -> Option<i32> {
        Self::get(&self.north, col - self.x0)
    }

    /// Looks up the south entry of a column.
    pub fn south_of_column(&self, col: i32) -> Option<i32> {
        Self::get(&self.south, col - self.x0)
    }
}

/// A concave section detected during the ring traversal, together with the
/// notification end node in charge of it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DetectedSection {
    /// The boundary node that detected (and will notify) the section.
    pub notification_end: Coord,
    /// The concave row or column section itself.
    pub section: ConcaveSection,
}

/// The result of processing one ring walk.
#[derive(Clone, Debug)]
pub struct RingOutcome {
    /// Sections detected during the traversal (deduplicated).
    pub detected: Vec<DetectedSection>,
    /// Hops the initiation message travelled.
    pub hops: u32,
    /// Whether the walk covered every ring node of its free region.
    pub complete: bool,
    /// Final state of the boundary array (exposed for tests and traces).
    pub boundary_array: BoundaryArray,
}

/// Replays the boundary-array protocol along one ring walk of `component`.
pub fn process_walk(component: &FaultyComponent, walk: &RingWalk) -> RingOutcome {
    let block = component.virtual_block();
    let window = walk.visits.iter().fold(
        Rect::new(block.min().offset(-1, -1), block.max().offset(1, 1)),
        |window, &c| window.expanded_to(c),
    );
    let mut frame = RingFrame::new();
    frame.load(window, component.iter());
    let mut boundary_array = BoundaryArray::default();
    let mut detected = Vec::new();
    replay_walk(&frame, &walk.visits, &mut boundary_array, &mut detected);
    RingOutcome {
        detected,
        hops: walk.hops,
        complete: walk.complete,
        boundary_array,
    }
}

/// Replays the boundary-array protocol along `visits`, a walk traced on
/// `frame`: resets `v` to the frame's window and appends the sections the
/// walk detects, each once, to `detected`.
pub(crate) fn replay_walk(
    frame: &RingFrame,
    visits: &[Coord],
    v: &mut BoundaryArray,
    detected: &mut Vec<DetectedSection>,
) {
    v.reset(frame.window());
    let first = detected.len();
    let (x0, y0) = (v.x0, v.y0);
    for &node in visits {
        let kind = frame.classify(node);
        if !kind.is_side_boundary() {
            continue;
        }
        let (row, col) = ((node.y - y0) as usize, (node.x - x0) as usize);
        // Step (a): update the boundary array entries for every role the
        // node carries (all with the same timestamp).
        if kind.east {
            v.east[row] = node.x;
        }
        if kind.west {
            v.west[row] = node.x;
        }
        if kind.north {
            v.north[col] = node.y;
        }
        if kind.south {
            v.south[col] = node.y;
        }
        // Step (b): check whether this node closes a concave section.
        let mut fire = |section: Option<ConcaveSection>| {
            if let Some(section) = section {
                if !detected[first..].iter().any(|d| d.section == section) {
                    detected.push(DetectedSection {
                        notification_end: node,
                        section,
                    });
                }
            }
        };
        let member_in_row = |x: i32| frame.is_member(Coord::new(x, node.y));
        let member_in_col = |y: i32| frame.is_member(Coord::new(node.x, y));
        if kind.east && v.west[row] != UNSET && v.west[row] >= node.x {
            let run = clamp_run(node.x, v.west[row], node.x, member_in_row);
            fire(section(Orientation::Row, node.y, run));
        }
        if kind.west && v.east[row] != UNSET && v.east[row] <= node.x {
            let run = clamp_run(v.east[row], node.x, node.x, member_in_row);
            fire(section(Orientation::Row, node.y, run));
        }
        if kind.south && v.north[col] != UNSET && v.north[col] <= node.y {
            let run = clamp_run(v.north[col], node.y, node.y, member_in_col);
            fire(section(Orientation::Column, node.x, run));
        }
        if kind.north && v.south[col] != UNSET && v.south[col] >= node.y {
            let run = clamp_run(node.y, v.south[col], node.y, member_in_col);
            fire(section(Orientation::Column, node.x, run));
        }
    }
}

/// The concave section `run` of `line`, if the clamp kept one.
fn section(orientation: Orientation, line: i32, run: Option<(i32, i32)>) -> Option<ConcaveSection> {
    run.map(|(start, end)| ConcaveSection {
        orientation,
        line,
        start,
        end,
    })
}

/// Shrinks `[lo, hi]` to the maximal sub-run of non-member positions that
/// contains `anchor`; requires both immediate outside neighbors of the run to
/// be members so the run really lies *between* two component nodes.
fn clamp_run(lo: i32, hi: i32, anchor: i32, is_member: impl Fn(i32) -> bool) -> Option<(i32, i32)> {
    debug_assert!(lo <= anchor && anchor <= hi);
    if is_member(anchor) {
        return None;
    }
    let mut start = anchor;
    while start > lo && !is_member(start - 1) {
        start -= 1;
    }
    let mut end = anchor;
    while end < hi && !is_member(end + 1) {
        end += 1;
    }
    (is_member(start - 1) && is_member(end + 1)).then_some((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::boundary::ring_walks;
    use mesh2d::{Mesh2D, Region};

    fn component(list: &[(i32, i32)]) -> FaultyComponent {
        FaultyComponent::new(Region::from_coords(
            list.iter().map(|&(x, y)| Coord::new(x, y)),
        ))
    }

    fn detect_all(mesh: &Mesh2D, comp: &FaultyComponent) -> Vec<ConcaveSection> {
        let mut out: Vec<ConcaveSection> = Vec::new();
        for walk in ring_walks(mesh, comp) {
            let outcome = process_walk(comp, &walk);
            assert!(outcome.complete, "walk must visit every ring node");
            for d in outcome.detected {
                if !out.contains(&d.section) {
                    out.push(d.section);
                }
            }
        }
        out
    }

    fn sections_as_region(sections: &[ConcaveSection]) -> Region {
        Region::from_coords(sections.iter().flat_map(|s| s.nodes()))
    }

    /// Definition 3 read off the component directly: every non-member
    /// that lies between two members of its row or of its column.
    fn definition_3_nodes(comp: &FaultyComponent) -> Region {
        let (lo, hi) = (comp.virtual_block().min(), comp.virtual_block().max());
        let member = |x, y| comp.contains(Coord::new(x, y));
        Region::from_coords(comp.virtual_block().nodes().filter(|&c| {
            let in_row =
                (lo.x..c.x).any(|x| member(x, c.y)) && (c.x + 1..=hi.x).any(|x| member(x, c.y));
            let in_column =
                (lo.y..c.y).any(|y| member(c.x, y)) && (c.y + 1..=hi.y).any(|y| member(c.x, y));
            !comp.contains(c) && (in_row || in_column)
        }))
    }

    #[test]
    fn convex_component_detects_nothing() {
        let mesh = Mesh2D::square(10);
        let comp = component(&[(2, 4), (3, 4), (4, 3)]);
        assert!(detect_all(&mesh, &comp).is_empty());
    }

    #[test]
    fn u_shape_detection_matches_definition_3() {
        let mesh = Mesh2D::square(10);
        let comp = component(&[(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)]);
        let detected = sections_as_region(&detect_all(&mesh, &comp));
        let geometric = definition_3_nodes(&comp);
        assert_eq!(detected, geometric);
        assert!(detected.contains(Coord::new(3, 3)));
        assert!(detected.contains(Coord::new(3, 4)));
    }

    #[test]
    fn hole_is_detected_from_the_inner_ring() {
        let mesh = Mesh2D::square(10);
        let frame = component(&[
            (2, 2),
            (3, 2),
            (4, 2),
            (2, 3),
            (4, 3),
            (2, 4),
            (3, 4),
            (4, 4),
        ]);
        let detected = sections_as_region(&detect_all(&mesh, &frame));
        assert!(detected.contains(Coord::new(3, 3)));
    }

    #[test]
    fn detection_covers_hull_on_varied_shapes() {
        let mesh = Mesh2D::square(16);
        let shapes: Vec<Vec<(i32, i32)>> = vec![
            vec![(0, 2), (1, 1), (2, 0), (3, 1), (4, 2)],
            vec![(2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (4, 3)],
            vec![
                (0, 0),
                (1, 1),
                (0, 2),
                (1, 3),
                (2, 2),
                (3, 3),
                (4, 4),
                (3, 5),
                (4, 5),
                (5, 6),
            ],
            vec![(5, 5), (6, 6), (7, 5), (6, 4)],
            vec![
                (1, 1),
                (2, 1),
                (3, 1),
                (1, 2),
                (3, 2),
                (1, 3),
                (2, 3),
                (3, 3),
                (1, 4),
                (3, 4),
                (1, 5),
                (2, 5),
                (3, 5),
            ],
        ];
        for shape in shapes {
            let comp = component(&shape);
            let detected = sections_as_region(&detect_all(&mesh, &comp));
            let polygon = comp.region().union(&detected);
            assert_eq!(
                polygon,
                crate::hull::minimum_polygon(&comp),
                "shape {shape:?}"
            );
        }
    }

    #[test]
    fn clamp_run_bounds() {
        // membership: columns 4,5,6 are component
        let member = |v: i32| (4..=6).contains(&v);
        assert_eq!(
            clamp_run(2, 9, 8, member),
            Some((7, 9)).filter(|_| member(10))
        );
        // with a proper closing member at 10:
        let member2 = |v: i32| (4..=6).contains(&v) || v == 10 || v == 1;
        assert_eq!(clamp_run(2, 9, 8, member2), Some((7, 9)));
        assert_eq!(clamp_run(2, 9, 2, member2), Some((2, 3)));
        assert_eq!(
            clamp_run(2, 9, 5, member2),
            None,
            "anchor inside the component"
        );
    }

    #[test]
    fn boundary_array_records_latest_visit() {
        let mesh = Mesh2D::square(10);
        let comp = component(&[(3, 3), (4, 3)]);
        let walks = ring_walks(&mesh, &comp);
        let outcome = process_walk(&comp, &walks[0]);
        // north boundary of column 3 is (3,4); south boundary is (3,2)
        assert_eq!(outcome.boundary_array.north_of_column(3), Some(4));
        assert_eq!(outcome.boundary_array.south_of_column(3), Some(2));
        assert_eq!(outcome.boundary_array.west_of_row(3), Some(2));
        assert_eq!(outcome.boundary_array.east_of_row(3), Some(5));
        assert!(outcome.detected.is_empty());
    }
}
