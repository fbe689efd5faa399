//! The notification phase: disabling every node of a concave section.
//!
//! After the ring traversal, each *notification end node* is in charge of one
//! concave row/column section: it must tell every node of the section to
//! become disabled. In the absence of blocking polygons the status message
//! simply travels straight along the section; when the section overlaps
//! another faulty component (a *blocking polygon*, Figure 7), the message
//! routes around that polygon through non-faulty nodes and the overlapped
//! portion keeps the status assigned by its own component.
//!
//! The detour cost is a breadth-first search on a dense distance grid
//! (`SectionBfs`) that stops as soon as every non-faulty node of the
//! section has its distance; only a section cut off from its end node
//! still exhausts the search.

use crate::concave::{ConcaveSection, Orientation};
use mesh2d::{Coord, FaultSet, Mesh2D};

/// The planned delivery of disable notifications for one concave section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Notification {
    /// The section being notified.
    pub section: ConcaveSection,
    /// The notification end node that initiates the delivery.
    pub end_node: Coord,
    /// Number of hops (rounds) needed to reach the farthest node of the
    /// section from the end node.
    pub hops: u32,
    /// True when a blocking polygon forced the message off the straight path.
    pub detoured: bool,
}

/// Plans the notification for one section.
///
/// The message starts at `end_node`, walks the section towards its far end,
/// and detours around faulty nodes (blocking polygons) via breadth-first
/// search through non-faulty nodes when the straight path is interrupted.
pub fn plan_notification(
    mesh: &Mesh2D,
    faults: &FaultSet,
    end_node: Coord,
    section: &ConcaveSection,
) -> Notification {
    plan_notification_with(mesh, faults, end_node, section, &mut SectionBfs::default())
}

/// [`plan_notification`] with a caller-provided search grid, reused across
/// sections and components.
pub(crate) fn plan_notification_with(
    mesh: &Mesh2D,
    faults: &FaultSet,
    end_node: Coord,
    section: &ConcaveSection,
    bfs: &mut SectionBfs,
) -> Notification {
    let nodes = section.nodes();
    let blocked = nodes.iter().any(|c| faults.is_faulty(*c));
    let hops = if blocked {
        // Blocking polygons on the section: deliver by BFS through
        // non-faulty nodes; the cost is the distance to the farthest
        // still-reachable non-faulty node of the section.
        let targets = nodes.iter().filter(|c| !faults.is_faulty(**c)).count();
        bfs.farthest(mesh, faults, end_node, section, targets)
    } else {
        // Straight delivery: the farthest node is at one of the two ends.
        let (a, b) = section.end_nodes();
        end_node.manhattan(a).max(end_node.manhattan(b))
    };
    Notification {
        section: *section,
        end_node,
        hops,
        detoured: blocked,
    }
}

/// A reusable breadth-first search over a mesh: one hop distance per node
/// (`u32::MAX` while unreached) and the FIFO queue, which doubles as the
/// list of reached nodes to reset afterwards. Both are sized to the mesh
/// once, so [`grows`](Self::grows) only moves when a larger mesh is
/// searched.
#[derive(Clone, Debug, Default)]
pub(crate) struct SectionBfs {
    /// Hop distance per node, by `Mesh2D::index_of`.
    dist: Vec<u32>,
    /// Reached nodes in BFS order.
    queue: Vec<u32>,
    /// Times the buffers grew.
    grows: u64,
}

impl SectionBfs {
    /// Times the buffers grew since construction.
    pub(crate) fn grows(&self) -> u64 {
        self.grows
    }

    /// Hop distance from `from`, through non-faulty nodes, to the farthest
    /// reachable non-faulty node of `section` (0 when none is reachable);
    /// `targets` is the number of non-faulty section nodes.
    ///
    /// BFS distances are final when assigned, so the search stops as soon
    /// as every non-faulty section node has one.
    fn farthest(
        &mut self,
        mesh: &Mesh2D,
        faults: &FaultSet,
        from: Coord,
        section: &ConcaveSection,
        targets: usize,
    ) -> u32 {
        let nodes = mesh.node_count();
        if self.dist.len() < nodes {
            self.grows += 1;
            self.dist.resize(nodes, u32::MAX);
            self.queue.reserve(nodes);
        }
        let on_section = |c: Coord| {
            let (line, v) = match section.orientation {
                Orientation::Row => (c.y, c.x),
                Orientation::Column => (c.x, c.y),
            };
            line == section.line && (section.start..=section.end).contains(&v)
        };
        let mut unreached = targets;
        let mut farthest = 0;
        let start = mesh.index_of(from);
        self.dist[start] = 0;
        self.queue.push(start as u32);
        if on_section(from) && !faults.is_faulty(from) {
            unreached -= 1;
        }
        let mut head = 0;
        while head < self.queue.len() && unreached > 0 {
            let i = self.queue[head] as usize;
            head += 1;
            let d = self.dist[i] + 1;
            for n in mesh.neighbors4(mesh.coord_of(i)) {
                let j = mesh.index_of(n);
                if self.dist[j] != u32::MAX || faults.is_faulty(n) {
                    continue;
                }
                self.dist[j] = d;
                self.queue.push(j as u32);
                if on_section(n) {
                    unreached -= 1;
                    farthest = d;
                }
            }
        }
        for &i in &self.queue {
            self.dist[i as usize] = u32::MAX;
        }
        self.queue.clear();
        farthest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concave::Orientation;

    #[test]
    fn straight_notification_cost_is_section_length() {
        let mesh = Mesh2D::square(10);
        let faults = FaultSet::new(mesh);
        let section = ConcaveSection {
            orientation: Orientation::Row,
            line: 4,
            start: 2,
            end: 6,
        };
        // end node at the west end of the section
        let n = plan_notification(&mesh, &faults, Coord::new(2, 4), &section);
        assert_eq!(n.hops, 4);
        assert!(!n.detoured);
        // end node adjacent to (but outside) the section still pays the
        // distance to the far end
        let n2 = plan_notification(&mesh, &faults, Coord::new(6, 4), &section);
        assert_eq!(n2.hops, 4);
    }

    #[test]
    fn single_node_section_costs_nothing_extra() {
        let mesh = Mesh2D::square(6);
        let faults = FaultSet::new(mesh);
        let section = ConcaveSection {
            orientation: Orientation::Column,
            line: 3,
            start: 3,
            end: 3,
        };
        let n = plan_notification(&mesh, &faults, Coord::new(3, 3), &section);
        assert_eq!(n.hops, 0);
        assert!(!n.detoured);
    }

    #[test]
    fn blocking_polygon_forces_a_detour() {
        // Section runs along row 5 from x=2 to x=8; a blocking component
        // occupies (4,5),(5,5),(6,5) so the message must route around it.
        let mesh = Mesh2D::square(12);
        let faults =
            FaultSet::from_coords(mesh, [Coord::new(4, 5), Coord::new(5, 5), Coord::new(6, 5)]);
        let section = ConcaveSection {
            orientation: Orientation::Row,
            line: 5,
            start: 2,
            end: 8,
        };
        let n = plan_notification(&mesh, &faults, Coord::new(2, 5), &section);
        assert!(n.detoured);
        // straight distance to (8,5) would be 6; the detour around a 3-node
        // blockage costs 2 extra hops
        assert_eq!(n.hops, 8);
    }

    #[test]
    fn dense_bfs_pins_blocked_and_enclosed_sections() {
        // Row 5 from x=1 to x=8, notified from (1,5). The first fault set
        // blocks it with a two-node polygon; the second also walls in the
        // non-faulty section node (6,5), so that search runs dry.
        let mesh = Mesh2D::square(10);
        let section = ConcaveSection {
            orientation: Orientation::Row,
            line: 5,
            start: 1,
            end: 8,
        };
        let blocked = FaultSet::from_coords(mesh, [Coord::new(3, 5), Coord::new(4, 5)]);
        let enclosed = FaultSet::from_coords(
            mesh,
            [(3, 5), (5, 5), (7, 5), (6, 4), (6, 6)].map(|(x, y)| Coord::new(x, y)),
        );
        // One search grid for every call: each search must leave it clean.
        let mut bfs = SectionBfs::default();
        for _ in 0..2 {
            for (faults, hops) in [(&blocked, 9), (&enclosed, 11)] {
                let n = plan_notification_with(&mesh, faults, Coord::new(1, 5), &section, &mut bfs);
                assert!(n.detoured);
                assert_eq!(n.hops, hops);
                assert_eq!(
                    n,
                    plan_notification(&mesh, faults, Coord::new(1, 5), &section)
                );
            }
        }
        assert_eq!(bfs.grows(), 1, "the grid is sized to the mesh once");
    }

    #[test]
    fn fully_blocked_far_side_is_ignored() {
        // A wall of faults spanning the whole mesh cuts the section in two;
        // only the reachable side is counted.
        let mesh = Mesh2D::square(8);
        let wall: Vec<Coord> = (0..8).map(|y| Coord::new(4, y)).collect();
        let faults = FaultSet::from_coords(mesh, wall);
        let section = ConcaveSection {
            orientation: Orientation::Row,
            line: 3,
            start: 1,
            end: 6,
        };
        let n = plan_notification(&mesh, &faults, Coord::new(1, 3), &section);
        assert!(n.detoured);
        assert_eq!(n.hops, 2, "only (2,3) and (3,3) are reachable");
    }
}
