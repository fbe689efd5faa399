//! Boundary nodes, corners, and the boundary-ring walk.
//!
//! The construction of a component's minimum polygon is carried out by its
//! *boundary nodes*: nodes outside the component but adjacent to it. A node
//! directly north of a component node is a *north boundary node*, and
//! similarly for the other sides; a node can carry several boundary roles at
//! once. Boundary nodes (plus the diagonal outer-corner nodes) form a ring
//! around the component along which the initiation message travels clockwise.
//!
//! Because a concave region can be *closed* (a hole entirely enclosed by the
//! component), the ring around the hole is disconnected from the outer ring;
//! the paper handles this by letting the west-most south-west **inner**
//! corner initiate a separate traversal. Here every 4-connected free region
//! touching the component gets its own walk.
//!
//! The replay runs on a window-local *ring frame*: the component's protocol
//! window (its virtual block plus a one-node margin, clipped to the mesh)
//! as a dense byte grid whose index order is `Coord` order, with member,
//! ring, free-region and visited flags per cell. Marking the ring is one
//! pass over the members; one stack flood per free region collects the
//! region's ring nodes and tells a hole (the flood never reaches the window
//! edge) from the outside; the walk then reads its band off the same bytes.
//! One frame is reused for every component of a construction.

use crate::component::FaultyComponent;
use mesh2d::{Coord, Mesh2D, Rect, Region};

/// The boundary roles a node can play with respect to one component.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BoundaryKind {
    /// The node sits directly north of a component node.
    pub north: bool,
    /// The node sits directly south of a component node.
    pub south: bool,
    /// The node sits directly east of a component node.
    pub east: bool,
    /// The node sits directly west of a component node.
    pub west: bool,
}

impl BoundaryKind {
    /// True when the node carries at least one of the four side roles.
    pub fn is_side_boundary(&self) -> bool {
        self.north || self.south || self.east || self.west
    }
}

/// Classifies `c` with respect to `component`. Component members themselves
/// carry no boundary role.
pub fn classify(component: &FaultyComponent, c: Coord) -> BoundaryKind {
    if component.contains(c) {
        return BoundaryKind::default();
    }
    BoundaryKind {
        north: component.contains(c.offset(0, -1)),
        south: component.contains(c.offset(0, 1)),
        east: component.contains(c.offset(-1, 0)),
        west: component.contains(c.offset(1, 0)),
    }
}

/// True when `c` is a south-west *outer* corner of the ring: it has a west
/// boundary neighbor (to its east) and a south boundary neighbor (to its
/// north), i.e. it sits diagonally south-west of a component corner.
pub fn is_south_west_outer_corner(component: &FaultyComponent, c: Coord) -> bool {
    !component.contains(c)
        && component.contains(c.offset(1, 1))
        && !component.contains(c.offset(1, 0))
        && !component.contains(c.offset(0, 1))
}

/// True when `c` is a south-west *inner* corner: it is an east and a north
/// boundary node at the same time (the component bends around its south-west
/// side).
pub fn is_south_west_inner_corner(component: &FaultyComponent, c: Coord) -> bool {
    let k = classify(component, c);
    k.east && k.north
}

/// All ring nodes of the component: in-mesh, non-component nodes within
/// Chebyshev distance 1 of the component (side boundary nodes plus outer
/// corner nodes), i.e. the ring cells of its frame.
pub fn ring_nodes(mesh: &Mesh2D, component: &FaultyComponent) -> Region {
    let mut frame = RingFrame::new();
    frame.load_component(mesh, component);
    frame.mark_ring();
    Region::from_coords(frame.ring_cells())
}

/// One traversal of a component's boundary: the free region it runs in, the
/// ordered sequence of ring nodes the token visits (hop by hop), and whether
/// the region is a closed concave region (a hole) or the outside.
#[derive(Clone, Debug)]
pub struct RingWalk {
    /// The initiator node the walk starts from (the west-most, then
    /// south-most ring node of the region, matching the overwriting rule's
    /// eventual winner).
    pub initiator: Coord,
    /// The ring nodes in visit order; consecutive entries are 4-adjacent.
    /// The initiator appears first and the walk ends when the token is back
    /// at the initiator (the final return hop is not repeated in the list).
    pub visits: Vec<Coord>,
    /// Number of hops the token needs to circulate the ring once and return
    /// to the initiator (one hop per ring node of the walk).
    pub hops: u32,
    /// True when this walk surrounds a closed concave region (hole) rather
    /// than running on the outside of the component.
    pub is_inner: bool,
    /// True when the walk visited every ring node of its region; the
    /// detection of concave sections is provably complete in that case.
    pub complete: bool,
}

/// Builds every boundary-ring walk of the component: one for the outer free
/// region and one per closed concave region (hole), in the order of each
/// region's smallest node.
pub fn ring_walks(mesh: &Mesh2D, component: &FaultyComponent) -> Vec<RingWalk> {
    let mut frame = RingFrame::new();
    frame.load_component(mesh, component);
    frame.mark_ring();
    let mut walks = Vec::new();
    while let Some(walk) = frame.next_walk() {
        walks.push(RingWalk {
            initiator: walk.initiator,
            visits: frame.visits().to_vec(),
            hops: walk.hops,
            is_inner: walk.is_inner,
            complete: walk.complete,
        });
    }
    walks
}

/// A component's protocol window: its virtual block plus a one-node
/// margin, clipped to the mesh.
pub(crate) fn protocol_window(mesh: &Mesh2D, component: &FaultyComponent) -> Rect {
    let block = component.virtual_block();
    Rect::new(
        Coord::new((block.min().x - 1).max(0), (block.min().y - 1).max(0)),
        Coord::new(
            (block.max().x + 1).min(mesh.width() - 1),
            (block.max().y + 1).min(mesh.height() - 1),
        ),
    )
}

/// Cell flags of a [`RingFrame`].
const MEMBER: u8 = 1;
const RING: u8 = 1 << 1;
/// The cell's free region has been flooded (its walk is done or running).
const FLOODED: u8 = 1 << 2;
const VISITED: u8 = 1 << 3;
/// The one-cell guard band around the window: never a member, ring node
/// or free cell.
const GUARD: u8 = 1 << 4;

/// The header of one walk traced on a [`RingFrame`]; its visits are in
/// [`RingFrame::visits`] until the next walk.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WalkSummary {
    /// See [`RingWalk::initiator`].
    pub(crate) initiator: Coord,
    /// See [`RingWalk::hops`].
    pub(crate) hops: u32,
    /// See [`RingWalk::is_inner`].
    pub(crate) is_inner: bool,
    /// See [`RingWalk::complete`].
    pub(crate) complete: bool,
}

/// One component's protocol window as a dense byte grid, reusable across
/// components.
///
/// The window ([`load_component`](Self::load_component)) is framed by a
/// one-cell guard band and laid out column-major: cell `(x, y)` sits at
/// `(x − x0 + 1)·H + (y − y0 + 1)` with `H` the window height plus two, so
/// index order is `Coord` order and every window cell has all eight
/// neighbours in the grid. Every cell holds its member, ring, flooded
/// (free-region label) and visited flags. Reads outside the window return
/// "not a member" and "not a ring node", which is what the protocol sees
/// outside the window.
///
/// All per-cell buffers are sized to the frame when it grows, so
/// [`grows`](Self::grows) counts exactly the times a larger window than
/// any before was loaded.
#[derive(Clone, Debug, Default)]
pub(crate) struct RingFrame {
    /// The window's south-west corner.
    x0: i32,
    y0: i32,
    /// Window width and height.
    width: i32,
    height: i32,
    /// Column stride: the window height plus the guard band.
    stride: usize,
    /// One flag byte per cell, guard band included.
    cells: Vec<u8>,
    /// Flood stack.
    stack: Vec<u32>,
    /// Ring cells of the free region being walked, in index order.
    band: Vec<u32>,
    /// The walk's depth-first path.
    path: Vec<u32>,
    /// The last walk's visits.
    visits: Vec<Coord>,
    /// Next cell to try as a free-region seed.
    cursor: usize,
    /// Times the frame's buffers grew.
    grows: u64,
}

impl RingFrame {
    /// An empty frame.
    pub(crate) fn new() -> Self {
        RingFrame::default()
    }

    /// Times the frame's buffers grew since construction.
    pub(crate) fn grows(&self) -> u64 {
        self.grows
    }

    /// The loaded window.
    pub(crate) fn window(&self) -> Rect {
        Rect::new(
            Coord::new(self.x0, self.y0),
            Coord::new(self.x0 + self.width - 1, self.y0 + self.height - 1),
        )
    }

    /// Re-frames over the component's protocol window: its virtual block
    /// plus a one-node margin, clipped to the mesh. The window holds every
    /// ring node, and the free space outside the component is one
    /// 4-connected region inside it.
    pub(crate) fn load_component(&mut self, mesh: &Mesh2D, component: &FaultyComponent) {
        self.load(protocol_window(mesh, component), component.iter());
    }

    /// Re-frames over `window` with `members` (which must lie inside it) as
    /// the component. Ring flags are not set until [`mark_ring`](Self::mark_ring).
    pub(crate) fn load(&mut self, window: Rect, members: impl IntoIterator<Item = Coord>) {
        (self.x0, self.y0) = (window.min().x, window.min().y);
        self.width = window.width() as i32;
        self.height = window.height() as i32;
        self.stride = self.height as usize + 2;
        let len = (self.width as usize + 2) * self.stride;
        if self.cells.capacity() < len {
            self.grows += 1;
            self.cells.reserve(len);
            for buf in [&mut self.stack, &mut self.band, &mut self.path] {
                buf.reserve(len);
            }
            self.visits.reserve(len);
        }
        self.cells.clear();
        self.cells.resize(len, 0);
        self.cells[..self.stride].fill(GUARD);
        self.cells[len - self.stride..].fill(GUARD);
        for col in self.cells.chunks_exact_mut(self.stride) {
            col[0] = GUARD;
            col[self.stride - 1] = GUARD;
        }
        for c in members {
            self.insert_member(c);
        }
    }

    /// Index of `c` in the guard-banded frame, if it lies inside it.
    fn index(&self, c: Coord) -> Option<usize> {
        let dx = c.x - self.x0 + 1;
        let dy = c.y - self.y0 + 1;
        ((0..self.width + 2).contains(&dx) && (0..self.height + 2).contains(&dy))
            .then(|| dx as usize * self.stride + dy as usize)
    }

    fn coord(&self, i: usize) -> Coord {
        Coord::new(
            self.x0 + (i / self.stride) as i32 - 1,
            self.y0 + (i % self.stride) as i32 - 1,
        )
    }

    /// True when `c` is a member; false anywhere outside the window.
    pub(crate) fn is_member(&self, c: Coord) -> bool {
        self.index(c).is_some_and(|i| self.cells[i] & MEMBER != 0)
    }

    /// Adds `c`, which must lie inside the window, to the component.
    pub(crate) fn insert_member(&mut self, c: Coord) {
        let i = self.index(c).expect("members lie inside the frame");
        debug_assert!(self.cells[i] & GUARD == 0, "{c} outside the window");
        self.cells[i] |= MEMBER;
    }

    /// Frame analogue of [`classify`].
    pub(crate) fn classify(&self, c: Coord) -> BoundaryKind {
        if self.is_member(c) {
            return BoundaryKind::default();
        }
        BoundaryKind {
            north: self.is_member(c.offset(0, -1)),
            south: self.is_member(c.offset(0, 1)),
            east: self.is_member(c.offset(-1, 0)),
            west: self.is_member(c.offset(1, 0)),
        }
    }

    /// Marks the ring nodes of the current members (every non-member window
    /// cell 8-adjacent to a member) and clears the flood and walk state, so
    /// [`next_walk`](Self::next_walk) starts from the first free region.
    pub(crate) fn mark_ring(&mut self) {
        for cell in &mut self.cells {
            *cell &= MEMBER | GUARD;
        }
        let s = self.stride;
        let around = [s + 1, s, s - 1, 1];
        for i in s..self.cells.len() - s {
            if self.cells[i] & MEMBER == 0 {
                continue;
            }
            for d in around {
                for n in [i - d, i + d] {
                    if self.cells[n] & (MEMBER | GUARD) == 0 {
                        self.cells[n] |= RING;
                    }
                }
            }
        }
        self.cursor = 0;
    }

    /// The ring cells in `Coord` order.
    pub(crate) fn ring_cells(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.cells.len())
            .filter(|&i| self.cells[i] & RING != 0)
            .map(|i| self.coord(i))
    }

    /// Floods the next 4-connected free region (in order of smallest node)
    /// that holds ring nodes and traces its walk into
    /// [`visits`](Self::visits). `None` once every region is done.
    ///
    /// The region's walk is inner (around a hole) exactly when the flood
    /// never touches the guard band, i.e. the window edge.
    pub(crate) fn next_walk(&mut self) -> Option<WalkSummary> {
        let s = self.stride;
        while self.cursor < self.cells.len() {
            let seed = self.cursor;
            self.cursor += 1;
            if self.cells[seed] & (MEMBER | GUARD | FLOODED) != 0 {
                continue;
            }
            self.band.clear();
            self.cells[seed] |= FLOODED;
            self.stack.push(seed as u32);
            let mut on_edge = false;
            while let Some(i) = self.stack.pop() {
                let i = i as usize;
                if self.cells[i] & RING != 0 {
                    self.band.push(i as u32);
                }
                for n in [i - s, i - 1, i + 1, i + s] {
                    let flags = self.cells[n];
                    if flags & GUARD != 0 {
                        on_edge = true;
                    } else if flags & (MEMBER | FLOODED) == 0 {
                        self.cells[n] |= FLOODED;
                        self.stack.push(n as u32);
                    }
                }
            }
            if self.band.is_empty() {
                continue;
            }
            self.band.sort_unstable();
            return Some(self.trace_walk(!on_edge));
        }
        None
    }

    /// The visits of the walk [`next_walk`](Self::next_walk) last traced.
    pub(crate) fn visits(&self) -> &[Coord] {
        &self.visits
    }

    /// Traversal of the flooded region's 1-node-wide ring band.
    ///
    /// The token performs a depth-first walk along the band (4-adjacent
    /// hops, backtracking through already-visited cells when a notch
    /// dead-ends), which is exactly how the circulating initiation message
    /// behaves: it hugs the component, enters every notch, and returns to
    /// the initiator. The initiator is the band's minimum `(x, y)` node and
    /// each hop goes to the minimum-`(x, y)` unvisited band neighbour. If
    /// the band is 4-disconnected inside one free region (possible for
    /// components pinched against the mesh border), the remaining pieces
    /// are traversed by secondary initiators, taken in sorted order,
    /// matching the paper's multiple-initiation handling.
    ///
    /// `hops` is the *sum* of the pieces' node counts, one hop per ring
    /// node: the walk's cost stays monotone in band size. (The pieces run
    /// concurrently, but the round count does not take their maximum: the
    /// sum already dominates every piece, so bounding it below by the
    /// longest piece changes nothing.)
    fn trace_walk(&mut self, is_inner: bool) -> WalkSummary {
        let s = self.stride;
        self.visits.clear();
        let mut hops = 0u32;
        for k in 0..self.band.len() {
            let start = self.band[k] as usize;
            if self.cells[start] & VISITED != 0 {
                continue;
            }
            self.cells[start] |= VISITED;
            self.visits.push(self.coord(start));
            self.path.push(start as u32);
            hops += 1;
            while let Some(&cur) = self.path.last() {
                let cur = cur as usize;
                // Neighbours in `Coord` order: west, south, north, east.
                let next = [cur - s, cur - 1, cur + 1, cur + s]
                    .into_iter()
                    .find(|&n| self.cells[n] & (RING | VISITED) == RING);
                match next {
                    Some(n) => {
                        self.cells[n] |= VISITED;
                        self.visits.push(self.coord(n));
                        self.path.push(n as u32);
                        hops += 1;
                    }
                    None => {
                        self.path.pop();
                    }
                }
            }
        }
        WalkSummary {
            initiator: self.coord(self.band[0] as usize),
            hops,
            is_inner,
            complete: self.visits.len() == self.band.len(),
        }
    }

    /// True when the members' intersection with every row and every
    /// column of the window is contiguous (Definition 1).
    pub(crate) fn is_orthogonally_convex(&self) -> bool {
        let s = self.stride;
        let member = |i: usize| self.cells[i] & MEMBER != 0;
        // A line is contiguous when at most one member run starts on it.
        let columns = (1..=self.width as usize).all(|x| {
            (x * s + 1..(x + 1) * s - 1)
                .filter(|&i| member(i) && !member(i - 1))
                .count()
                <= 1
        });
        columns
            && (1..=self.height as usize).all(|y| {
                (1..=self.width as usize)
                    .filter(|&x| member(x * s + y) && !member((x - 1) * s + y))
                    .count()
                    <= 1
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn component(list: &[(i32, i32)]) -> FaultyComponent {
        FaultyComponent::new(Region::from_coords(
            list.iter().map(|&(x, y)| Coord::new(x, y)),
        ))
    }

    #[test]
    fn classify_single_node_component() {
        let c = component(&[(3, 3)]);
        assert!(classify(&c, Coord::new(3, 4)).north);
        assert!(classify(&c, Coord::new(3, 2)).south);
        assert!(classify(&c, Coord::new(4, 3)).east);
        assert!(classify(&c, Coord::new(2, 3)).west);
        assert!(!classify(&c, Coord::new(4, 4)).is_side_boundary());
        assert!(!classify(&c, Coord::new(3, 3)).is_side_boundary());
    }

    #[test]
    fn south_west_corners() {
        let c = component(&[(3, 3), (4, 3), (3, 4), (4, 4)]);
        assert!(is_south_west_outer_corner(&c, Coord::new(2, 2)));
        assert!(!is_south_west_outer_corner(&c, Coord::new(2, 3)));
        // An L-shaped component has an inner SW corner in its armpit.
        let l = component(&[(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]);
        assert!(is_south_west_inner_corner(&l, Coord::new(3, 3)));
        assert!(!is_south_west_inner_corner(&l, Coord::new(1, 1)));
    }

    #[test]
    fn ring_of_interior_single_node_has_eight_nodes() {
        let mesh = Mesh2D::square(7);
        let c = component(&[(3, 3)]);
        let ring = ring_nodes(&mesh, &c);
        assert_eq!(ring.len(), 8);
    }

    #[test]
    fn ring_clipped_at_mesh_corner() {
        let mesh = Mesh2D::square(7);
        let c = component(&[(0, 0)]);
        let ring = ring_nodes(&mesh, &c);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn single_walk_around_interior_component() {
        let mesh = Mesh2D::square(9);
        let c = component(&[(4, 4), (5, 4), (4, 5), (5, 5)]);
        let walks = ring_walks(&mesh, &c);
        assert_eq!(walks.len(), 1);
        let w = &walks[0];
        assert!(!w.is_inner);
        assert!(w.complete, "walk should visit every ring node");
        assert_eq!(w.visits.len(), 12, "a 2x2 block has a 12-node ring");
        assert_eq!(w.initiator, Coord::new(3, 3));
        assert!(w.hops >= 12);
        // consecutive visited nodes are 4-adjacent
        for pair in w.visits.windows(2) {
            assert!(pair[0].is_neighbor4(pair[1]) || pair[0].is_adjacent8(pair[1]));
        }
    }

    #[test]
    fn hole_produces_an_inner_walk() {
        // 5x5 ring of faults with a 3x3 hole... use a 3-thick frame around a
        // single-node hole to keep it small: frame of the 3x3 square.
        let mesh = Mesh2D::square(9);
        let frame: Vec<(i32, i32)> = vec![
            (2, 2),
            (3, 2),
            (4, 2),
            (2, 3),
            (4, 3),
            (2, 4),
            (3, 4),
            (4, 4),
        ];
        let c = component(&frame);
        let walks = ring_walks(&mesh, &c);
        assert_eq!(walks.len(), 2);
        let inner: Vec<_> = walks.iter().filter(|w| w.is_inner).collect();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].visits, vec![Coord::new(3, 3)]);
    }

    #[test]
    fn u_shape_walk_enters_the_notch() {
        let mesh = Mesh2D::square(9);
        let u = component(&[(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)]);
        let walks = ring_walks(&mesh, &u);
        assert_eq!(walks.len(), 1);
        let w = &walks[0];
        assert!(w.complete);
        // the notch nodes (3,3) and (3,4) are ring nodes and must be visited
        assert!(w.visits.contains(&Coord::new(3, 3)));
        assert!(w.visits.contains(&Coord::new(3, 4)));
    }

    #[test]
    fn border_component_still_gets_a_walk() {
        let mesh = Mesh2D::square(6);
        let c = component(&[(0, 0), (1, 0), (0, 1)]);
        let walks = ring_walks(&mesh, &c);
        assert_eq!(walks.len(), 1);
        assert!(walks[0].complete);
    }
}
