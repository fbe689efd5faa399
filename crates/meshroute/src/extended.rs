//! Extended e-cube routing around faulty polygons.
//!
//! The message follows the base e-cube route until its next hop would enter
//! a faulty polygon (an excluded region of the status map). It then switches
//! to the "abnormal" mode and travels around the region — hugging the
//! region's boundary, in the orientation given by the paper's rules — until
//! it reaches a node from which the rest of the base route no longer touches
//! that region, where it becomes "normal" again. Abnormal hops are charged to
//! the message class's virtual channel.
//!
//! The orientation rules (Figure 1): for an NS- or SN-bound message the
//! orientation is a don't-care; for a WE-bound (EW-bound) message it is
//! clockwise (counterclockwise) when the message is above its row of travel,
//! counterclockwise (clockwise) when below, and a don't-care on the row of
//! travel itself. Our boundary walk realises the rule by preferring, among
//! shortest ways around the region, the side the rule names; when the rule
//! says don't-care the shorter side is taken.
//!
//! Region state is factored into a [`RegionMap`] so that heavy callers (the
//! traffic simulator, the incremental reroute index) derive it **once** per
//! status map and share it across any number of routers and routes, instead
//! of paying the excluded-component labelling on every router construction.

use crate::ecube::ecube_next_hop;
use crate::message::{MessageClass, VirtualChannel};
use mesh2d::{Connectivity, Coord, Grid, Mesh2D, Region, StatusMap};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Sentinel in [`RegionMap`]'s id grid for nodes in no excluded region.
const NO_REGION: u32 = u32::MAX;

/// Why a route could not be produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// The source node is faulty or disabled.
    SourceExcluded,
    /// The destination node is faulty or disabled.
    DestinationExcluded,
    /// No path of enabled nodes connects source and destination.
    Unreachable,
}

/// A complete route produced by the extended e-cube router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutePath {
    /// Every node the message visits, source first, destination last.
    pub hops: Vec<Coord>,
    /// Number of hops taken in the abnormal mode (around fault regions).
    pub abnormal_hops: usize,
    /// Virtual channel charged for each hop (`hops.len() - 1` entries).
    pub channels: Vec<VirtualChannel>,
}

impl RoutePath {
    /// Total number of hops (links traversed).
    pub fn len(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }

    /// True for the degenerate source-equals-destination route.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stretch over the minimal fault-free route (1.0 = minimal).
    pub fn stretch(&self) -> f64 {
        let src = *self.hops.first().expect("route has a source");
        let dst = *self.hops.last().expect("route has a destination");
        let minimal = src.manhattan(dst) as f64;
        if minimal == 0.0 {
            1.0
        } else {
            self.len() as f64 / minimal
        }
    }
}

/// A route plus the state its computation consulted — which regions the
/// message detoured around and whether the restricted boundary walk fell
/// back to an unrestricted search. The incremental reroute layer uses this
/// to build an exact dependency footprint per cached route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracedRoute {
    /// The route itself.
    pub path: RoutePath,
    /// Indices (into [`RegionMap::regions`]) of every region detoured
    /// around, in detour order; a region appears once per detour.
    pub detoured: Vec<u32>,
    /// True when at least one detour fell back to the unrestricted
    /// all-enabled-nodes search (its result then depends on the whole
    /// status map, not just the regions above).
    pub used_fallback: bool,
}

/// The excluded regions of a status map, derived once and shared.
///
/// Holds the 4-connected components of the excluded (faulty or disabled)
/// node set plus a dense id grid for O(1) point-to-region lookup. Derive it
/// with [`RegionMap::from_status`] and hand it to any number of
/// [`ExtendedECube::with_regions`] routers; the routers borrow it instead of
/// re-deriving the labelling per construction.
#[derive(Clone, Debug)]
pub struct RegionMap {
    regions: Vec<Region>,
    region_id: Grid<u32>,
}

impl RegionMap {
    /// Labels the excluded components of `status` (4-connected, the
    /// adjacency a blocked e-cube hop experiences) with the word-packed
    /// flood over the excluded set.
    pub fn from_status(mesh: &Mesh2D, status: &StatusMap) -> Self {
        let regions = status.excluded_region().components(Connectivity::Four);
        Self::from_regions(mesh, regions)
    }

    /// Wraps pre-derived disjoint regions (for example maintained
    /// incrementally) without re-labelling.
    pub fn from_regions(mesh: &Mesh2D, regions: Vec<Region>) -> Self {
        let mut region_id = Grid::for_mesh(mesh, NO_REGION);
        for (idx, region) in regions.iter().enumerate() {
            for c in region.bits().iter() {
                region_id.set(c, idx as u32);
            }
        }
        RegionMap { regions, region_id }
    }

    /// The regions, in labelling order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region containing `c`, if any.
    pub fn region_of(&self, c: Coord) -> Option<u32> {
        match self.region_id.get(c) {
            Some(&id) if id != NO_REGION => Some(id),
            _ => None,
        }
    }

    /// The region with index `id` (as returned by [`Self::region_of`]).
    pub fn region(&self, id: u32) -> &Region {
        &self.regions[id as usize]
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when the status map excludes nothing.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

/// The extended e-cube router for a given fault-model outcome.
pub struct ExtendedECube<'a> {
    mesh: &'a Mesh2D,
    status: &'a StatusMap,
    regions: Cow<'a, RegionMap>,
}

impl<'a> ExtendedECube<'a> {
    /// Creates a router that avoids the excluded regions of `status`,
    /// deriving the region labelling itself. Prefer
    /// [`Self::with_regions`] when routing repeatedly over one status map.
    pub fn new(mesh: &'a Mesh2D, status: &'a StatusMap) -> Self {
        ExtendedECube {
            mesh,
            status,
            regions: Cow::Owned(RegionMap::from_status(mesh, status)),
        }
    }

    /// Creates a router that borrows a pre-derived [`RegionMap`] —
    /// construction is O(1), so a fresh router per route is free.
    ///
    /// `regions` must describe exactly the excluded set of `status`
    /// (as [`RegionMap::from_status`] produces); routes are meaningless
    /// otherwise.
    pub fn with_regions(mesh: &'a Mesh2D, status: &'a StatusMap, regions: &'a RegionMap) -> Self {
        ExtendedECube {
            mesh,
            status,
            regions: Cow::Borrowed(regions),
        }
    }

    /// The region state this router routes around.
    pub fn region_map(&self) -> &RegionMap {
        &self.regions
    }

    /// True when `c` is a usable (in-mesh, enabled) node.
    pub fn enabled(&self, c: Coord) -> bool {
        self.status.get(c).is_some_and(|s| !s.is_excluded())
    }

    /// The excluded region blocking `c`, if any — the region a message
    /// whose base next hop is `c` must travel around.
    pub fn blocking_region(&self, c: Coord) -> Option<u32> {
        self.regions.region_of(c)
    }

    /// Routes a message from `src` to `dst`.
    pub fn route(&self, src: Coord, dst: Coord) -> Result<RoutePath, RouteError> {
        self.route_traced(src, dst).map(|traced| traced.path)
    }

    /// Routes a message and reports which state the computation consulted
    /// (see [`TracedRoute`]).
    pub fn route_traced(&self, src: Coord, dst: Coord) -> Result<TracedRoute, RouteError> {
        if !self.enabled(src) {
            return Err(RouteError::SourceExcluded);
        }
        if !self.enabled(dst) {
            return Err(RouteError::DestinationExcluded);
        }

        let mut hops = vec![src];
        let mut channels = Vec::new();
        let mut abnormal_hops = 0usize;
        let mut detoured = Vec::new();
        let mut used_fallback = false;
        let mut current = src;
        let step_budget = 16 * self.mesh.node_count();

        while current != dst {
            if hops.len() > step_budget {
                return Err(RouteError::Unreachable);
            }
            let class = MessageClass::classify(current, dst).expect("not yet at destination");
            let next = ecube_next_hop(current, dst).expect("not yet at destination");
            if self.enabled(next) {
                current = next;
                hops.push(current);
                channels.push(class.virtual_channel());
                continue;
            }

            // Abnormal mode: travel around the region blocking the next hop.
            let region = self
                .blocking_region(next)
                .expect("blocked hop lies in an excluded region");
            let (walk, fell_back) = self.detour(region, current, dst, class)?;
            detoured.push(region);
            used_fallback |= fell_back;
            for hop in walk.into_iter().skip(1) {
                current = hop;
                hops.push(current);
                channels.push(class.virtual_channel());
                abnormal_hops += 1;
            }
        }

        Ok(TracedRoute {
            path: RoutePath {
                hops,
                abnormal_hops,
                channels,
            },
            detoured,
            used_fallback,
        })
    }

    /// Finds the walk around region `region` (an index from
    /// [`Self::blocking_region`]) that ends at a node from which the base
    /// e-cube route no longer touches this region. Returns the walk (first
    /// element `from`) and whether the unrestricted fallback was used.
    ///
    /// The walk is restricted to enabled nodes adjacent (8-neighborhood) to
    /// the region — i.e. the message hugs the polygon boundary, as in the
    /// paper — and falls back to an unrestricted search only when the hugging
    /// walk cannot reach an exit (for example when the region leans against
    /// the mesh border).
    pub fn detour(
        &self,
        region: u32,
        from: Coord,
        dst: Coord,
        class: MessageClass,
    ) -> Result<(Vec<Coord>, bool), RouteError> {
        let region = self.regions.region(region);
        let halo: BTreeSet<Coord> = region
            .iter()
            .flat_map(|c| c.neighbors8())
            .filter(|c| self.enabled(*c))
            .chain(std::iter::once(from))
            .collect();

        let exit_ok = |c: Coord| c == dst || self.base_route_clears_region(c, dst, region);
        if let Some(path) = self.bfs_path(&halo, from, &exit_ok, Some((class, dst))) {
            return Ok((path, false));
        }
        // Fall back: search through all enabled nodes.
        let all: BTreeSet<Coord> = self.mesh.nodes().filter(|c| self.enabled(*c)).collect();
        self.bfs_path(&all, from, &exit_ok, None)
            .map(|path| (path, true))
            .ok_or(RouteError::Unreachable)
    }

    /// True when the base e-cube route from `c` to `dst` avoids `region`
    /// entirely (the message would be "normal" again at `c`).
    fn base_route_clears_region(&self, c: Coord, dst: Coord, region: &Region) -> bool {
        let mut cur = c;
        loop {
            match ecube_next_hop(cur, dst) {
                None => return true,
                Some(next) => {
                    if region.contains(next) {
                        return false;
                    }
                    cur = next;
                }
            }
        }
    }

    /// Breadth-first path through `allowed` from `from` to the first node
    /// satisfying `is_exit`. When `orientation` is provided, neighbor
    /// expansion order prefers the side named by the paper's orientation
    /// rule, so ties between equally short ways around the region are broken
    /// the way Figure 1 prescribes.
    fn bfs_path(
        &self,
        allowed: &BTreeSet<Coord>,
        from: Coord,
        is_exit: &dyn Fn(Coord) -> bool,
        orientation: Option<(MessageClass, Coord)>,
    ) -> Option<Vec<Coord>> {
        if is_exit(from) {
            return Some(vec![from]);
        }
        let mut parent: BTreeMap<Coord, Coord> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        parent.insert(from, from);
        while let Some(c) = queue.pop_front() {
            let mut neighbors: Vec<Coord> = self
                .mesh
                .neighbors4(c)
                .filter(|n| allowed.contains(n) && !parent.contains_key(n))
                .collect();
            if let Some((class, dst)) = orientation {
                neighbors.sort_by_key(|n| orientation_penalty(class, dst, c, *n));
            }
            for n in neighbors {
                parent.insert(n, c);
                if is_exit(n) {
                    let mut path = vec![n];
                    let mut cur = n;
                    while cur != from {
                        cur = parent[&cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(n);
            }
        }
        None
    }
}

/// Lower is preferred. WE-bound messages below their row of travel prefer to
/// go around counterclockwise (i.e. keep heading east / south first), above
/// it clockwise; EW-bound messages mirror this; column-bound messages do not
/// care.
fn orientation_penalty(class: MessageClass, dst: Coord, from: Coord, to: Coord) -> i32 {
    let dy = to.y - from.y;
    let below_travel_row = from.y < dst.y;
    match class {
        MessageClass::WEBound => {
            if from.y == dst.y {
                0
            } else if below_travel_row {
                -dy // counterclockwise: prefer staying low / going south
            } else {
                dy // clockwise: prefer staying high / going north
            }
        }
        MessageClass::EWBound => {
            if from.y == dst.y {
                0
            } else if below_travel_row {
                dy
            } else {
                -dy
            }
        }
        MessageClass::NSBound | MessageClass::SNBound => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{FaultSet, NodeStatus};

    fn status_with_faults(mesh: &Mesh2D, faults: &[(i32, i32)]) -> StatusMap {
        let fs = FaultSet::from_coords(*mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        StatusMap::from_fault_list(mesh, fs.in_insertion_order())
    }

    #[test]
    fn unobstructed_routes_are_minimal() {
        let mesh = Mesh2D::square(10);
        let status = StatusMap::all_enabled(&mesh);
        let router = ExtendedECube::new(&mesh, &status);
        let path = router.route(Coord::new(1, 1), Coord::new(7, 6)).unwrap();
        assert_eq!(
            path.len() as u32,
            Coord::new(1, 1).manhattan(Coord::new(7, 6))
        );
        assert_eq!(path.abnormal_hops, 0);
        assert!((path.stretch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn figure2_route_goes_around_the_l_polygon() {
        // Paper's Figure 2: faults {(2,4),(3,4),(4,3)}, message from (1,3) to
        // (6,4). The route must avoid the polygon, stay on enabled nodes and
        // deliver the message.
        let mesh = Mesh2D::square(8);
        let status = status_with_faults(&mesh, &[(2, 4), (3, 4), (4, 3)]);
        let router = ExtendedECube::new(&mesh, &status);
        let path = router.route(Coord::new(1, 3), Coord::new(6, 4)).unwrap();
        assert_eq!(*path.hops.last().unwrap(), Coord::new(6, 4));
        assert!(path.abnormal_hops > 0);
        for c in &path.hops {
            assert_eq!(status.status(*c), NodeStatus::Enabled);
        }
        for w in path.hops.windows(2) {
            assert!(w[0].is_neighbor4(w[1]));
        }
        // The counterclockwise rule sends the message below the region,
        // through row 2, exactly as in the figure.
        assert!(path.hops.contains(&Coord::new(5, 2)) || path.hops.contains(&Coord::new(4, 2)));
    }

    #[test]
    fn borrowed_region_map_routes_identically() {
        let mesh = Mesh2D::square(12);
        let status = status_with_faults(&mesh, &[(4, 4), (5, 4), (4, 5), (8, 2), (8, 3)]);
        let regions = RegionMap::from_status(&mesh, &status);
        let owned = ExtendedECube::new(&mesh, &status);
        let borrowed = ExtendedECube::with_regions(&mesh, &status, &regions);
        for src in mesh.nodes().step_by(11) {
            for dst in mesh.nodes().step_by(13) {
                if src == dst {
                    continue;
                }
                assert_eq!(owned.route(src, dst), borrowed.route(src, dst));
            }
        }
    }

    #[test]
    fn traced_route_names_the_detoured_region() {
        let mesh = Mesh2D::square(8);
        let status = status_with_faults(&mesh, &[(4, 3), (4, 4)]);
        let router = ExtendedECube::new(&mesh, &status);
        let traced = router
            .route_traced(Coord::new(1, 3), Coord::new(7, 3))
            .unwrap();
        assert!(!traced.detoured.is_empty());
        assert!(!traced.used_fallback);
        let region = router.region_map().region(traced.detoured[0]);
        assert!(region.contains(Coord::new(4, 3)));
        // And a straight route consults no region at all.
        let straight = router
            .route_traced(Coord::new(0, 0), Coord::new(2, 1))
            .unwrap();
        assert!(straight.detoured.is_empty());
    }

    #[test]
    fn region_map_point_lookup_matches_membership() {
        let mesh = Mesh2D::square(9);
        let status = status_with_faults(&mesh, &[(2, 2), (2, 3), (6, 6)]);
        let map = RegionMap::from_status(&mesh, &status);
        assert_eq!(map.len(), 2);
        for c in mesh.nodes() {
            match map.region_of(c) {
                Some(id) => assert!(map.region(id).contains(c)),
                None => assert!(map.regions().iter().all(|r| !r.contains(c))),
            }
        }
    }

    #[test]
    fn source_or_destination_inside_polygon_is_rejected() {
        let mesh = Mesh2D::square(8);
        let status = status_with_faults(&mesh, &[(3, 3)]);
        let router = ExtendedECube::new(&mesh, &status);
        assert_eq!(
            router.route(Coord::new(3, 3), Coord::new(0, 0)),
            Err(RouteError::SourceExcluded)
        );
        assert_eq!(
            router.route(Coord::new(0, 0), Coord::new(3, 3)),
            Err(RouteError::DestinationExcluded)
        );
    }

    #[test]
    fn destination_walled_off_is_unreachable() {
        // A full-height wall of faults separates the two halves of the mesh.
        let mesh = Mesh2D::square(6);
        let wall: Vec<(i32, i32)> = (0..6).map(|y| (3, y)).collect();
        let status = status_with_faults(&mesh, &wall);
        let router = ExtendedECube::new(&mesh, &status);
        assert_eq!(
            router.route(Coord::new(0, 0), Coord::new(5, 5)),
            Err(RouteError::Unreachable)
        );
    }

    #[test]
    fn all_pairs_are_delivered_around_a_u_polygon() {
        let mesh = Mesh2D::square(9);
        // the minimum polygon of a U-shaped component (notch filled)
        let status = status_with_faults(
            &mesh,
            &[(3, 3), (4, 3), (5, 3), (3, 4), (5, 4), (3, 5), (5, 5)],
        );
        let mut status = status;
        status.set(Coord::new(4, 4), NodeStatus::Disabled);
        status.set(Coord::new(4, 5), NodeStatus::Disabled);
        let router = ExtendedECube::new(&mesh, &status);
        let enabled: Vec<Coord> = mesh
            .nodes()
            .filter(|c| !status.status(*c).is_excluded())
            .collect();
        for &src in &enabled {
            for &dst in enabled.iter().step_by(7) {
                let path = router.route(src, dst).expect("deliverable");
                assert_eq!(*path.hops.last().unwrap(), dst);
                assert!(path.hops.iter().all(|c| !status.status(*c).is_excluded()));
            }
        }
    }

    #[test]
    fn abnormal_hops_use_the_class_channel() {
        let mesh = Mesh2D::square(8);
        let status = status_with_faults(&mesh, &[(4, 3), (4, 4)]);
        let router = ExtendedECube::new(&mesh, &status);
        let path = router.route(Coord::new(1, 3), Coord::new(7, 3)).unwrap();
        assert!(path.abnormal_hops > 0);
        // a WE-bound message charges vc1 on its way around the region
        assert!(path.channels.iter().any(|vc| vc.0 == 1));
        assert_eq!(path.channels.len(), path.len());
    }
}
