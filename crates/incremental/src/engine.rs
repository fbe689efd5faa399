//! The event-driven maintenance engine.

use mesh2d::{
    BitGrid, Coord, FaultEvent, FaultSet, Grid, Mesh2D, NodeStatus, Rect, Region, StatusDelta,
    StatusMap,
};
use mocp_core::ConstructionScratch;

/// Sentinel component id for healthy nodes.
const NO_COMPONENT: u32 = u32::MAX;

/// One live faulty component with its cached construction results.
#[derive(Clone, Debug)]
struct Component {
    /// The component's faulty nodes.
    cells: Region,
    /// The virtual faulty block (bounding box) the merge process maintains.
    bbox: Rect,
    /// Cached minimum orthogonal convex polygon of `cells`: O(1)
    /// membership for the cache-hit shortcut, word-speed iteration for the
    /// cover-count install/retire, and a grid whose allocation is reused
    /// across recomputes (`reset_frame`).
    polygon: Region,
}

/// Counters describing how much work the engine actually did — the evidence
/// that maintenance is incremental rather than a hidden batch recompute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events consumed (including out-of-mesh / duplicate no-ops).
    pub events: u64,
    /// Injections that changed the fault set.
    pub injects: u64,
    /// Repairs that changed the fault set.
    pub repairs: u64,
    /// Components absorbed into a neighbor by a merging injection.
    pub merges: u64,
    /// Repairs that split a component into several pieces.
    pub splits: u64,
    /// Per-component polygon constructions actually executed.
    pub recomputes: u64,
    /// Injections absorbed by a cached polygon without any recomputation.
    pub cache_hits: u64,
}

/// An incremental minimum-faulty-polygon maintenance engine.
///
/// See the [crate docs](crate) for the merge / dirty strategy. All public
/// accessors are O(1) or proportional to the answer, never to the mesh.
#[derive(Clone, Debug)]
pub struct IncrementalEngine {
    mesh: Mesh2D,
    faults: FaultSet,
    /// Component id per node; `NO_COMPONENT` for healthy nodes.
    comp_id: Grid<u32>,
    /// Component slab; freed slots are recycled through `free`.
    components: Vec<Option<Component>>,
    free: Vec<u32>,
    /// Number of live polygons covering each node.
    cover: Grid<u32>,
    /// Maintained status of every node.
    status: StatusMap,
    /// Non-faulty disabled (gray) nodes — the Figure 9 metric.
    disabled: usize,
    /// Sum of live polygon sizes — numerator of the Figure 10 metric.
    polygon_total: usize,
    /// Live component count — denominator of the Figure 10 metric.
    live: usize,
    stats: EngineStats,
    /// Reusable construction / flood buffers: the hull fixpoint and the
    /// localized re-flood run allocation-free once these reach the
    /// working-set size.
    scratch: ConstructionScratch,
    /// Reusable per-event buffer of nodes whose derived status must be
    /// refreshed (duplicates allowed — `refresh` is idempotent).
    touched: Vec<Coord>,
    /// Polygon grid retired by the last merge/repair, handed back to the
    /// next recompute of a component that has no buffer of its own yet —
    /// so merges and splits recycle instead of reallocating.
    spare_polygon: BitGrid,
    /// Per-engine recorder for the `engine.delta_fanout` histogram:
    /// buffered without atomics on the event path, merged into the
    /// global registry on flush/drop. Cloning an engine starts an empty
    /// recorder (buffered samples stay with the original).
    delta_fanout: mocp_obs::LocalHistogram,
}

impl IncrementalEngine {
    /// An engine over a fault-free mesh. Dirty components are hulled in
    /// place by the concave-section fixpoint (centralized solution 2).
    pub fn new(mesh: Mesh2D) -> Self {
        IncrementalEngine {
            mesh,
            faults: FaultSet::new(mesh),
            comp_id: Grid::for_mesh(&mesh, NO_COMPONENT),
            components: Vec::new(),
            free: Vec::new(),
            cover: Grid::for_mesh(&mesh, 0u32),
            status: StatusMap::all_enabled(&mesh),
            disabled: 0,
            polygon_total: 0,
            live: 0,
            stats: EngineStats::default(),
            scratch: ConstructionScratch::new(),
            touched: Vec::new(),
            spare_polygon: BitGrid::empty(),
            delta_fanout: mocp_obs::LocalHistogram::new(mocp_obs::histogram!(
                "engine.delta_fanout"
            )),
        }
    }

    /// An engine pre-loaded with an existing fault set (one inject event per
    /// fault, in insertion order).
    pub fn from_faults(mesh: Mesh2D, faults: &FaultSet) -> Self {
        let mut engine = Self::new(mesh);
        for &c in faults.in_insertion_order() {
            engine.apply(FaultEvent::Inject(c));
        }
        engine
    }

    /// The mesh being monitored.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }

    /// The surviving faults.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The maintained per-node status map.
    pub fn status(&self) -> &StatusMap {
        &self.status
    }

    /// Work counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// How many times the reusable construction/flood buffers had to grow.
    /// Constant across events ⇔ the engine's hull fixpoint and localized
    /// re-flood run allocation-free (the steady-state no-alloc property
    /// the tests pin).
    pub fn scratch_grows(&self) -> u64 {
        self.scratch.grows()
    }

    /// Number of live faulty components.
    pub fn component_count(&self) -> usize {
        self.live
    }

    /// The maintained status of node `c` — a point query answered from
    /// engine state in O(1), no reconstruction. Equivalent to
    /// `self.status().status(c)` and shares its contract.
    ///
    /// # Panics
    /// Panics if `c` is outside the mesh (use
    /// [`status()`](Self::status)`.get(c)` for a total lookup).
    #[inline]
    pub fn node_status(&self, c: Coord) -> NodeStatus {
        self.status.status(c)
    }

    /// Number of faulty (black) nodes — the counterpart of
    /// [`disabled_nonfaulty`](Self::disabled_nonfaulty), O(1) from the
    /// maintained fault set.
    #[inline]
    pub fn faulty_count(&self) -> usize {
        self.faults.len()
    }

    /// The cached minimum polygon containing node `c`, if any — the
    /// region-membership point query.
    ///
    /// A faulty node returns the polygon of the component that *owns*
    /// it: one comp-id grid lookup plus copying the cached polygon out
    /// (O(answer)) — even when another component's larger hull happens
    /// to overlap it. For a non-faulty node the maintained cover count
    /// answers *whether* `c` lies in a polygon in O(1); when it does,
    /// the live components are scanned (bounding-box pre-filter, then
    /// the word-packed polygon bitmap) and overlaps resolve to the first
    /// covering polygon in [`polygons`](Self::polygons) order. The
    /// result is always an element of that snapshot. Out-of-mesh and
    /// enabled nodes return `None`. Nothing is reconstructed: every
    /// lookup reads maintained state only.
    pub fn region_of(&self, c: Coord) -> Option<Region> {
        if self.faults.is_faulty(c) {
            let id = *self.comp_id.get(c).expect("faults lie inside the mesh");
            debug_assert_ne!(id, NO_COMPONENT);
            let comp = self.components[id as usize]
                .as_ref()
                .expect("faulty nodes map to live components");
            return Some(comp.polygon.clone());
        }
        if self.cover.get(c).copied().unwrap_or(0) == 0 {
            return None;
        }
        // Covered by at least one polygon: pick the covering component
        // with the smallest first cell — the same key polygons() sorts
        // by — so overlaps resolve deterministically.
        self.components
            .iter()
            .flatten()
            .filter(|comp| comp.bbox.contains(c) && comp.polygon.contains(c))
            .min_by_key(|comp| {
                comp.cells
                    .iter()
                    .next()
                    .expect("components are never empty")
            })
            .map(|comp| comp.polygon.clone())
    }

    /// Number of non-faulty nodes currently disabled (Figure 9 metric).
    pub fn disabled_nonfaulty(&self) -> usize {
        self.disabled
    }

    /// Average polygon size in nodes, faults included (Figure 10 metric).
    /// Zero when no fault is present.
    pub fn average_region_size(&self) -> f64 {
        if self.live == 0 {
            0.0
        } else {
            self.polygon_total as f64 / self.live as f64
        }
    }

    /// The cached minimum polygons, ordered by their component's smallest
    /// cell — the same deterministic order the batch construction
    /// ([`mocp_core::merge_components`]) produces.
    pub fn polygons(&self) -> Vec<Region> {
        let mut with_key: Vec<(Coord, &Region)> = self
            .components
            .iter()
            .flatten()
            .map(|comp| {
                let key = comp
                    .cells
                    .iter()
                    .next()
                    .expect("components are never empty");
                (key, &comp.polygon)
            })
            .collect();
        with_key.sort_by_key(|&(key, _)| key);
        with_key.into_iter().map(|(_, p)| p.clone()).collect()
    }

    /// The maintained virtual faulty blocks (per-component bounding boxes),
    /// in the same order as [`polygons`](Self::polygons) — the rectangular
    /// FB view of the fault population, available without any construction.
    pub fn virtual_blocks(&self) -> Vec<Rect> {
        let mut with_key: Vec<(Coord, Rect)> = self
            .components
            .iter()
            .flatten()
            .map(|comp| {
                let key = comp
                    .cells
                    .iter()
                    .next()
                    .expect("components are never empty");
                (key, comp.bbox)
            })
            .collect();
        with_key.sort_by_key(|&(key, _)| key);
        with_key.into_iter().map(|(_, b)| b).collect()
    }

    /// Applies one event and returns the nodes whose status changed.
    /// Injecting an already-faulty (or out-of-mesh) node and repairing a
    /// healthy node are no-ops that return an empty delta.
    pub fn apply(&mut self, event: FaultEvent) -> StatusDelta {
        self.stats.events += 1;
        mocp_obs::counter!("engine.events").inc();
        let delta = match event {
            FaultEvent::Inject(c) => self.inject(c),
            FaultEvent::Repair(c) => self.repair(c),
        };
        self.delta_fanout.record(delta.len() as u64);
        mocp_obs::gauge!("engine.components").set(self.live as i64);
        mocp_obs::gauge!("engine.disabled_nonfaulty").set(self.disabled as i64);
        delta
    }

    /// Applies a whole event stream, concatenating the per-event deltas.
    pub fn apply_all(&mut self, events: impl IntoIterator<Item = FaultEvent>) -> StatusDelta {
        let mut delta = StatusDelta::new();
        for event in events {
            delta.extend(self.apply(event));
        }
        delta
    }

    /// Applies a whole event stream and returns the **coalesced** delta:
    /// one `(first old, last new)` entry per net-changed node, with
    /// self-cancelling churn dropped. This is exactly the batch shape
    /// `mocp_serve` fans out to subscribers and the `mocp_traffic` reroute
    /// index consumes.
    pub fn delta_batch(&mut self, events: impl IntoIterator<Item = FaultEvent>) -> StatusDelta {
        self.apply_all(events).coalesced()
    }

    /// Ids of the live components, ascending. An id is stable while its
    /// component survives; merges retire the absorbed ids and splits mint
    /// fresh ones, so treat ids as valid only until the next event.
    pub fn component_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.components
            .iter()
            .enumerate()
            .filter(|(_, comp)| comp.is_some())
            .map(|(id, _)| id as u32)
    }

    /// The id of the component owning faulty node `c`; `None` for
    /// non-faulty or out-of-mesh nodes. (Non-faulty covered nodes belong
    /// to a *polygon*, not a component — use [`region_of`](Self::region_of)
    /// for that query.)
    pub fn component_at(&self, c: Coord) -> Option<u32> {
        if !self.faults.is_faulty(c) {
            return None;
        }
        let id = *self.comp_id.get(c).expect("faults lie inside the mesh");
        debug_assert_ne!(id, NO_COMPONENT);
        Some(id)
    }

    /// Borrowed faulty cells of live component `id`; `None` for retired or
    /// out-of-range ids.
    pub fn component_cells(&self, id: u32) -> Option<&Region> {
        self.components
            .get(id as usize)
            .and_then(|comp| comp.as_ref())
            .map(|comp| &comp.cells)
    }

    /// Borrowed word-packed minimum polygon of live component `id` — the
    /// no-clone alternative to [`polygons`](Self::polygons) for readers
    /// (like the reroute index) that only need to iterate or test
    /// membership.
    pub fn component_polygon(&self, id: u32) -> Option<&BitGrid> {
        self.components
            .get(id as usize)
            .and_then(|comp| comp.as_ref())
            .map(|comp| comp.polygon.bits())
    }

    fn inject(&mut self, c: Coord) -> StatusDelta {
        let mut delta = StatusDelta::new();
        if !self.mesh.contains(c) || self.faults.is_faulty(c) {
            return delta;
        }
        self.stats.injects += 1;
        mocp_obs::counter!("engine.injects").inc();
        self.faults.insert(c);

        // Distinct components adjacent to the new fault. Adjacency is the
        // geometric 8-neighborhood of Definition 2, matching the batch
        // merge process.
        let mut adjacent: Vec<u32> = Vec::new();
        for n in c.neighbors8() {
            if let Some(&id) = self.comp_id.get(n) {
                if id != NO_COMPONENT && !adjacent.contains(&id) {
                    adjacent.push(id);
                }
            }
        }

        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        touched.push(c);

        if let [only] = adjacent[..] {
            let comp = self.components[only as usize]
                .as_mut()
                .expect("adjacent ids are live");
            // The bounding box is the O(1) pre-filter: a fault outside the
            // virtual block cannot be inside the polygon.
            if comp.bbox.contains(c) && comp.polygon.contains(c) {
                // Pure cache hit: the hull is a closure operator, so a fault
                // inside the cached polygon cannot change it.
                comp.cells.insert(c);
                self.comp_id.set(c, only);
                self.stats.cache_hits += 1;
                mocp_obs::counter!("engine.cache_hits").inc();
                self.refresh(c, &mut delta);
                self.touched = touched;
                return delta;
            }
        }

        let keep = if adjacent.is_empty() {
            let mut cells = Region::new();
            cells.insert(c);
            let id = self.alloc(Component {
                cells,
                bbox: Rect::single(c),
                polygon: Region::new(),
            });
            self.live += 1;
            id
        } else {
            // Merge small-into-large: the component with the most cells
            // survives, every other adjacent component is relabelled into it.
            let keep = *adjacent
                .iter()
                .max_by_key(|&&id| self.cells_len(id))
                .expect("adjacent is non-empty");
            for &other in adjacent.iter().filter(|&&id| id != keep) {
                self.stats.merges += 1;
                mocp_obs::counter!("engine.merges").inc();
                let absorbed = self.components[other as usize]
                    .take()
                    .expect("adjacent ids are live");
                self.free.push(other);
                self.live -= 1;
                self.retire_polygon(&absorbed.polygon, &mut touched);
                // Only the absorbed (smaller) component's cells are
                // relabelled — the small-into-large bound.
                for cell in absorbed.cells.bits().iter() {
                    self.comp_id.set(cell, keep);
                }
                let comp = self.components[keep as usize]
                    .as_mut()
                    .expect("keep is live");
                for cell in absorbed.cells.bits().iter() {
                    comp.cells.insert(cell);
                }
                comp.bbox = comp
                    .bbox
                    .expanded_to(absorbed.bbox.min())
                    .expanded_to(absorbed.bbox.max());
            }
            // Retire the surviving component's own stale polygon (taken
            // out wholesale; recompute installs the replacement).
            let old = std::mem::take(
                &mut self.components[keep as usize]
                    .as_mut()
                    .expect("keep is live")
                    .polygon,
            );
            self.retire_polygon(&old, &mut touched);
            self.spare_polygon = old.into_bits();
            let comp = self.components[keep as usize]
                .as_mut()
                .expect("keep is live");
            comp.cells.insert(c);
            comp.bbox = comp.bbox.expanded_to(c);
            keep
        };
        self.comp_id.set(c, keep);

        self.recompute(keep, &mut touched);
        for &t in &touched {
            self.refresh(t, &mut delta);
        }
        self.touched = touched;
        delta
    }

    fn repair(&mut self, c: Coord) -> StatusDelta {
        let mut delta = StatusDelta::new();
        if !self.faults.is_faulty(c) {
            return delta;
        }
        self.stats.repairs += 1;
        mocp_obs::counter!("engine.repairs").inc();
        self.faults.remove(c);

        let id = *self.comp_id.get(c).expect("faults lie inside the mesh");
        debug_assert_ne!(id, NO_COMPONENT);
        self.comp_id.set(c, NO_COMPONENT);

        let mut comp = self.components[id as usize]
            .take()
            .expect("faulty nodes map to live components");
        comp.cells.remove(c);

        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        touched.push(c);
        self.retire_polygon(&comp.polygon, &mut touched);
        self.spare_polygon = std::mem::take(&mut comp.polygon).into_bits();

        if comp.cells.is_empty() {
            self.free.push(id);
            self.live -= 1;
        } else {
            // Localized re-flood: only this component's surviving cells are
            // visited, as a word-scan flood over the component's bounding
            // box. The largest piece keeps the id (and so most labels).
            mocp_obs::counter!("engine.refloods").inc();
            let mut pieces = self.scratch.flood_components(&comp.cells, comp.bbox);
            if pieces.len() > 1 {
                self.stats.splits += 1;
                mocp_obs::counter!("engine.splits").inc();
            }
            let largest = pieces
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| p.len())
                .map(|(i, _)| i)
                .expect("a non-empty region has pieces");
            // Process the largest piece first so it reclaims `id`.
            pieces.swap(0, largest);
            for (i, cells) in pieces.into_iter().enumerate() {
                let bbox = cells.bounding_rect().expect("pieces are non-empty");
                let piece = Component {
                    cells,
                    bbox,
                    polygon: Region::new(),
                };
                let piece_id = if i == 0 {
                    // The largest piece reclaims the old id; its cells are
                    // already labelled with it.
                    self.components[id as usize] = Some(piece);
                    id
                } else {
                    let pid = self.alloc(piece);
                    self.live += 1;
                    let cells = &self.components[pid as usize]
                        .as_ref()
                        .expect("just inserted")
                        .cells;
                    for cell in cells.bits().iter() {
                        self.comp_id.set(cell, pid);
                    }
                    pid
                };
                self.recompute(piece_id, &mut touched);
            }
        }

        for &t in &touched {
            self.refresh(t, &mut delta);
        }
        self.touched = touched;
        delta
    }

    /// Re-runs the per-component construction for one dirty component and
    /// installs the new polygon's coverage.
    fn recompute(&mut self, id: u32, touched: &mut Vec<Coord>) {
        self.stats.recomputes += 1;
        mocp_obs::counter!("engine.recomputes").inc();
        let comp = self.components[id as usize]
            .as_mut()
            .expect("dirty ids are live");
        // Reuse the component's own polygon grid: re-frame it over the
        // maintained bounding box, seed the live cells, and run the hull
        // fixpoint in place — no per-event region or buffer allocation.
        // Components without a buffer yet (fresh, post-merge, split
        // pieces) recycle the grid the last merge/repair retired.
        let mut polygon = std::mem::take(&mut comp.polygon).into_bits();
        if polygon.is_empty() {
            // No bits ⇒ this component has no buffer yet (fresh singleton,
            // post-merge survivor, or split piece — live polygons always
            // hold bits): recycle the last retired grid's allocation.
            polygon = std::mem::take(&mut self.spare_polygon);
        }
        polygon.reset_frame(comp.bbox.min(), comp.bbox.max());
        for cell in comp.cells.bits().iter() {
            polygon.set(cell);
        }
        polygon.hull_fixpoint(self.scratch.flood_scratch());
        let mut size = 0usize;
        for n in polygon.iter() {
            size += 1;
            let w = self
                .cover
                .get_mut(n)
                .expect("polygons stay inside the mesh");
            *w += 1;
            if *w == 1 {
                touched.push(n);
            }
        }
        self.polygon_total += size;
        self.components[id as usize]
            .as_mut()
            .expect("dirty ids are live")
            .polygon = Region::from_bits(polygon);
    }

    /// Removes one polygon's contribution to the cover counts.
    fn retire_polygon(&mut self, polygon: &Region, touched: &mut Vec<Coord>) {
        for n in polygon.bits().iter() {
            let w = self
                .cover
                .get_mut(n)
                .expect("polygons stay inside the mesh");
            debug_assert!(*w > 0);
            *w -= 1;
            if *w == 0 {
                touched.push(n);
            }
        }
        self.polygon_total -= polygon.len();
    }

    /// Recomputes the derived status of one node, recording any change.
    fn refresh(&mut self, c: Coord, delta: &mut StatusDelta) {
        let old = self.status.status(c);
        let new = if self.faults.is_faulty(c) {
            NodeStatus::Faulty
        } else if self.cover.get(c).copied().unwrap_or(0) > 0 {
            NodeStatus::Disabled
        } else {
            NodeStatus::Enabled
        };
        if old != new {
            if old == NodeStatus::Disabled {
                self.disabled -= 1;
            }
            if new == NodeStatus::Disabled {
                self.disabled += 1;
            }
            self.status.set(c, new);
            delta.record(c, old, new);
        }
    }

    fn cells_len(&self, id: u32) -> usize {
        self.components[id as usize]
            .as_ref()
            .map_or(0, |c| c.cells.len())
    }

    fn alloc(&mut self, component: Component) -> u32 {
        if let Some(id) = self.free.pop() {
            self.components[id as usize] = Some(component);
            id
        } else {
            self.components.push(Some(component));
            (self.components.len() - 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblock::FaultModel;
    use mesh2d::Connectivity;
    use mocp_core::CentralizedMfpModel;

    fn batch(mesh: &Mesh2D, faults: &FaultSet) -> fblock::ModelOutcome {
        CentralizedMfpModel::concave_sections().construct(mesh, faults)
    }

    /// Engine state must equal a from-scratch batch construction.
    fn assert_matches_batch(engine: &IncrementalEngine) {
        let outcome = batch(engine.mesh(), engine.faults());
        assert_eq!(engine.status(), &outcome.status);
        assert_eq!(engine.polygons(), outcome.regions);
        assert_eq!(engine.disabled_nonfaulty(), outcome.disabled_nonfaulty());
        let avg = outcome.average_region_size();
        assert!((engine.average_region_size() - avg).abs() < 1e-12);
        // The maintained bounding boxes equal the batch merge process's
        // virtual faulty blocks, in the same component order.
        let blocks: Vec<Rect> = mocp_core::merge_components(engine.faults())
            .iter()
            .map(|c| c.virtual_block())
            .collect();
        assert_eq!(engine.virtual_blocks(), blocks);
    }

    #[test]
    fn empty_engine_matches_empty_batch() {
        let engine = IncrementalEngine::new(Mesh2D::square(6));
        assert_matches_batch(&engine);
        assert_eq!(engine.component_count(), 0);
        assert_eq!(engine.average_region_size(), 0.0);
    }

    #[test]
    fn singleton_and_duplicate_injection() {
        let mesh = Mesh2D::square(6);
        let mut engine = IncrementalEngine::new(mesh);
        let delta = engine.apply(FaultEvent::Inject(Coord::new(2, 2)));
        assert_eq!(delta.len(), 1);
        assert_eq!(
            delta.newly_excluded().collect::<Vec<_>>(),
            vec![Coord::new(2, 2)]
        );
        let delta = engine.apply(FaultEvent::Inject(Coord::new(2, 2)));
        assert!(delta.is_empty(), "duplicate injection is a no-op");
        let delta = engine.apply(FaultEvent::Inject(Coord::new(9, 9)));
        assert!(delta.is_empty(), "out-of-mesh injection is a no-op");
        assert_matches_batch(&engine);
    }

    #[test]
    fn growing_merging_and_notch_filling() {
        let mesh = Mesh2D::square(10);
        let mut engine = IncrementalEngine::new(mesh);
        // Two arms of a U, still separate components.
        for (x, y) in [(2, 2), (2, 3), (2, 4), (4, 2), (4, 3), (4, 4)] {
            engine.apply(FaultEvent::Inject(Coord::new(x, y)));
            assert_matches_batch(&engine);
        }
        assert_eq!(engine.component_count(), 2);
        // The bridge merges them and forces the notch nodes.
        let delta = engine.apply(FaultEvent::Inject(Coord::new(3, 2)));
        assert_eq!(engine.component_count(), 1);
        assert!(engine.stats().merges >= 1);
        assert_eq!(engine.disabled_nonfaulty(), 2);
        assert!(delta.newly_excluded().any(|c| c == Coord::new(3, 3)));
        assert_matches_batch(&engine);
    }

    #[test]
    fn injection_inside_cached_polygon_is_a_cache_hit() {
        let mesh = Mesh2D::square(10);
        let mut engine = IncrementalEngine::new(mesh);
        for (x, y) in [
            (2, 2),
            (3, 2),
            (4, 2),
            (2, 3),
            (4, 3),
            (2, 4),
            (4, 4),
            (3, 4),
        ] {
            engine.apply(FaultEvent::Inject(Coord::new(x, y)));
        }
        // (3,3) is the filled notch: inside the polygon, adjacent to the ring.
        let recomputes = engine.stats().recomputes;
        let hits = engine.stats().cache_hits;
        let delta = engine.apply(FaultEvent::Inject(Coord::new(3, 3)));
        assert_eq!(engine.stats().recomputes, recomputes, "no recompute");
        assert_eq!(engine.stats().cache_hits, hits + 1);
        // The node flips gray -> black; nothing else changes.
        assert_eq!(delta.changes().len(), 1);
        assert_matches_batch(&engine);
    }

    #[test]
    fn repair_shrinks_splits_and_frees_components() {
        let mesh = Mesh2D::square(10);
        let mut engine = IncrementalEngine::new(mesh);
        // A horizontal bar; repairing the middle splits it.
        for x in 2..=6 {
            engine.apply(FaultEvent::Inject(Coord::new(x, 5)));
        }
        assert_eq!(engine.component_count(), 1);
        let delta = engine.apply(FaultEvent::Repair(Coord::new(4, 5)));
        assert_eq!(engine.component_count(), 2);
        assert_eq!(engine.stats().splits, 1);
        assert!(delta.newly_enabled().any(|c| c == Coord::new(4, 5)));
        assert_matches_batch(&engine);
        // Repairing everything frees all components.
        for x in [2, 3, 5, 6] {
            engine.apply(FaultEvent::Repair(Coord::new(x, 5)));
            assert_matches_batch(&engine);
        }
        assert_eq!(engine.component_count(), 0);
        assert_eq!(engine.disabled_nonfaulty(), 0);
        let delta = engine.apply(FaultEvent::Repair(Coord::new(2, 5)));
        assert!(delta.is_empty(), "repairing a healthy node is a no-op");
    }

    #[test]
    fn overlapping_polygons_need_cover_counting() {
        let mesh = Mesh2D::square(12);
        let mut engine = IncrementalEngine::new(mesh);
        // A wide U whose hull swallows (4,4); then a separate fault there.
        for (x, y) in [
            (2, 2),
            (3, 2),
            (4, 2),
            (5, 2),
            (6, 2),
            (2, 3),
            (6, 3),
            (2, 4),
            (6, 4),
        ] {
            engine.apply(FaultEvent::Inject(Coord::new(x, y)));
        }
        let c = Coord::new(4, 4);
        assert_eq!(engine.status().status(c), NodeStatus::Disabled);
        engine.apply(FaultEvent::Inject(c));
        assert_eq!(
            engine.component_count(),
            2,
            "inner fault is its own component"
        );
        assert_matches_batch(&engine);
        // Repair the inner fault: still covered by the U's polygon.
        engine.apply(FaultEvent::Repair(c));
        assert_eq!(engine.status().status(c), NodeStatus::Disabled);
        assert_matches_batch(&engine);
    }

    #[test]
    fn from_faults_replays_a_fault_set() {
        let mesh = Mesh2D::square(12);
        let faults = FaultSet::from_coords(
            mesh,
            [(1, 1), (2, 2), (3, 1), (8, 8), (9, 9)].map(|(x, y)| Coord::new(x, y)),
        );
        let engine = IncrementalEngine::from_faults(mesh, &faults);
        assert_eq!(engine.faults().len(), 5);
        assert_matches_batch(&engine);
    }

    #[test]
    fn deltas_replay_into_the_same_status_map() {
        let mesh = Mesh2D::square(10);
        let mut engine = IncrementalEngine::new(mesh);
        let mut replayed = StatusMap::all_enabled(&mesh);
        let events = [
            FaultEvent::Inject(Coord::new(2, 2)),
            FaultEvent::Inject(Coord::new(4, 4)),
            FaultEvent::Inject(Coord::new(3, 3)),
            FaultEvent::Inject(Coord::new(2, 4)),
            FaultEvent::Repair(Coord::new(3, 3)),
            FaultEvent::Repair(Coord::new(2, 2)),
        ];
        for e in events {
            engine.apply(e).apply_to(&mut replayed);
            assert_eq!(&replayed, engine.status(), "after {e:?}");
        }
    }

    #[test]
    fn apply_all_concatenates_deltas() {
        let mesh = Mesh2D::square(8);
        let mut engine = IncrementalEngine::new(mesh);
        let delta = engine.apply_all([
            FaultEvent::Inject(Coord::new(1, 1)),
            FaultEvent::Inject(Coord::new(2, 2)),
            FaultEvent::Repair(Coord::new(1, 1)),
        ]);
        assert_eq!(delta.changes().len(), 3);
        let mut replayed = StatusMap::all_enabled(&mesh);
        delta.apply_to(&mut replayed);
        assert_eq!(&replayed, engine.status());
    }

    /// The point queries must agree with the full `status()` /
    /// `polygons()` snapshots at every node: faulty nodes resolve to
    /// their owning component's polygon (recomputed here from the fault
    /// set's 8-connected decomposition), disabled nodes to the first
    /// covering polygon in `polygons()` order, enabled nodes to `None`.
    fn assert_point_queries_match_snapshots(engine: &IncrementalEngine) {
        let polygons = engine.polygons();
        let comps = engine.faults().region().components(Connectivity::Eight);
        let mut keys: Vec<Coord> = comps
            .iter()
            .map(|r| r.iter().next().expect("components are non-empty"))
            .collect();
        keys.sort();
        for y in 0..engine.mesh().height() {
            for x in 0..engine.mesh().width() {
                let c = Coord::new(x, y);
                assert_eq!(engine.node_status(c), engine.status().status(c));
                let expect = match engine.status().status(c) {
                    NodeStatus::Faulty => {
                        let own = comps
                            .iter()
                            .find(|r| r.contains(c))
                            .expect("faulty nodes lie in a component");
                        let key = own.iter().next().expect("components are non-empty");
                        let idx = keys.iter().position(|&k| k == key).expect("key is known");
                        Some(polygons[idx].clone())
                    }
                    NodeStatus::Disabled => polygons.iter().find(|p| p.contains(c)).cloned(),
                    NodeStatus::Enabled => None,
                };
                assert_eq!(engine.region_of(c), expect, "region_of({c:?})");
            }
        }
    }

    #[test]
    fn point_queries_pin_to_status_and_polygons() {
        let mesh = Mesh2D::square(12);
        let mut engine = IncrementalEngine::new(mesh);
        // A wide U whose hull swallows interior nodes, a separate fault
        // inside it (overlapping polygons), and an isolated singleton.
        for (x, y) in [
            (2, 2),
            (3, 2),
            (4, 2),
            (5, 2),
            (6, 2),
            (2, 3),
            (6, 3),
            (2, 4),
            (6, 4),
            (4, 4),
            (9, 9),
        ] {
            engine.apply(FaultEvent::Inject(Coord::new(x, y)));
        }
        assert_point_queries_match_snapshots(&engine);
        assert_eq!(engine.faulty_count(), engine.faults().len());
        // Repair churn keeps the queries pinned.
        engine.apply(FaultEvent::Repair(Coord::new(4, 4)));
        engine.apply(FaultEvent::Repair(Coord::new(4, 2)));
        assert_point_queries_match_snapshots(&engine);
    }

    #[test]
    fn point_queries_on_an_empty_engine() {
        let engine = IncrementalEngine::new(Mesh2D::square(5));
        assert_eq!(engine.node_status(Coord::new(2, 2)), NodeStatus::Enabled);
        assert_eq!(engine.region_of(Coord::new(2, 2)), None);
        assert_eq!(engine.region_of(Coord::new(50, 50)), None, "out of mesh");
        assert_eq!(engine.faulty_count(), 0);
    }

    #[test]
    fn stats_count_event_kinds() {
        let mesh = Mesh2D::square(8);
        let mut engine = IncrementalEngine::new(mesh);
        engine.apply(FaultEvent::Inject(Coord::new(1, 1)));
        engine.apply(FaultEvent::Inject(Coord::new(1, 1))); // duplicate
        engine.apply(FaultEvent::Repair(Coord::new(1, 1)));
        engine.apply(FaultEvent::Repair(Coord::new(1, 1))); // healthy
        let s = engine.stats();
        assert_eq!(s.events, 4);
        assert_eq!(s.injects, 1);
        assert_eq!(s.repairs, 1);
    }

    #[test]
    fn delta_batch_equals_coalesced_apply_all() {
        let mesh = Mesh2D::square(8);
        let events = vec![
            FaultEvent::Inject(Coord::new(2, 2)),
            FaultEvent::Inject(Coord::new(3, 3)),
            FaultEvent::Inject(Coord::new(2, 3)),
            FaultEvent::Repair(Coord::new(3, 3)),
        ];
        let mut a = IncrementalEngine::new(mesh);
        let mut b = IncrementalEngine::new(mesh);
        let batched = a.delta_batch(events.clone());
        let concatenated = b.apply_all(events);
        assert_eq!(batched.changes(), concatenated.coalesced().changes());
        // Self-cancelling churn ((3,3) injected then repaired with no net
        // polygon effect on itself) never names the node twice.
        let named: Vec<Coord> = batched.changes().iter().map(|&(c, _, _)| c).collect();
        let mut deduped = named.clone();
        deduped.dedup();
        assert_eq!(named, deduped);
    }

    #[test]
    fn component_accessors_borrow_live_state() {
        let mesh = Mesh2D::square(9);
        let mut engine = IncrementalEngine::new(mesh);
        engine.apply_all(
            [(1, 1), (2, 2), (6, 6), (6, 7)].map(|(x, y)| FaultEvent::Inject(Coord::new(x, y))),
        );
        let ids: Vec<u32> = engine.component_ids().collect();
        assert_eq!(ids.len(), engine.component_count());
        // Every faulty node maps to a live id whose cells contain it, and
        // the borrowed polygons equal the cloning accessor's output.
        for c in [(1, 1), (2, 2), (6, 6), (6, 7)].map(|(x, y)| Coord::new(x, y)) {
            let id = engine.component_at(c).expect("faulty node has an id");
            assert!(ids.contains(&id));
            assert!(engine.component_cells(id).unwrap().contains(c));
        }
        let mut borrowed: Vec<Region> = ids
            .iter()
            .map(|&id| engine.component_polygon(id).unwrap().to_region())
            .collect();
        borrowed.sort_by_key(|r| r.iter().next().unwrap());
        assert_eq!(borrowed, engine.polygons());
        // Healthy nodes and retired ids answer None.
        assert_eq!(engine.component_at(Coord::new(0, 0)), None);
        assert!(engine.component_cells(u32::MAX - 1).is_none());
        assert!(engine.component_polygon(9999).is_none());
    }
}
