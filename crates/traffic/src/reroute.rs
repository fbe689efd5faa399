//! Incremental rerouting under fault/repair churn.
//!
//! [`RerouteIndex`] maintains the routes of a fixed pair population over a
//! status map that changes via coalesced [`StatusDelta`] batches — the
//! batch shape [`mocp_incremental::IncrementalEngine::delta_batch`]
//! produces and `mocp_serve` fans out. Instead of rerouting every pair on
//! every batch, the index keeps a per-route **dependency footprint** and a
//! spatial tile index over it, and recomputes only the routes whose
//! footprint intersects the changed cells.
//!
//! ## Why the footprint is exact
//!
//! A route computed by [`ExtendedECube`] consults only:
//!
//! * the enabled-status of its own hops and of cells 4-adjacent to them
//!   (the probed base next-hops);
//! * for every region it detours around: the region's cells (membership
//!   and identity) and the region's 8-neighborhood halo (the restricted
//!   boundary walk's allowed set);
//! * for a detour that fell back to the unrestricted search, and for an
//!   `Unreachable` verdict: the whole status map.
//!
//! The first two are contained in the 8-neighborhood `dilate` of hops ∪
//! detoured regions; a 4-connected excluded component can only change
//! when a cell inside or 4-adjacent to it changes, which is inside that
//! same dilation. Routes in the third category are marked global and
//! recomputed on every batch (they are rare: a region leaning on the mesh
//! border, or a walled-off pair).
//! Failed endpoint routes depend only on the two endpoints. So a route
//! whose footprint misses every changed cell provably recomputes to
//! itself, and the index stays **exactly** equal to from-scratch routing —
//! the property the churn property-test pins against the oracle.

use crossbeam::channel::{Receiver, TryRecvError};
use mesh2d::{BitGrid, Coord, Mesh2D, Region, StatusDelta, StatusMap};
use meshroute::{ExtendedECube, PairSample, RegionMap, RouteError, RoutePath};
use mocp_incremental::IncrementalEngine;
use mocp_serve::{MonitorService, TenantId, TenantUpdate};

const TILE_SHIFT: u32 = 3; // 8×8-node tiles

/// How a batch was absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Net-changed cells in the coalesced batch.
    pub changed_cells: usize,
    /// Routes whose tiles intersected the changed cells (checked exactly).
    pub candidates: usize,
    /// Routes actually recomputed (footprint hit, plus global routes).
    pub recomputed: usize,
    /// Routes kept untouched.
    pub kept: usize,
    /// Live engine components owning changed faulty cells (when applied
    /// via [`RerouteIndex::apply_engine_batch`]).
    pub touched_components: usize,
}

/// Cumulative counters over all batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RerouteStats {
    /// Batches consumed.
    pub batches: u64,
    /// Net-changed cells consumed.
    pub changed_cells: u64,
    /// Routes recomputed.
    pub recomputed: u64,
    /// Routes kept.
    pub kept: u64,
}

enum Deps {
    /// Exact cell footprint (see module docs).
    Cells(BitGrid),
    /// Result depends on the whole status map; recompute every batch.
    Global,
}

struct CachedRoute {
    src: Coord,
    dst: Coord,
    result: Result<RoutePath, RouteError>,
    deps: Deps,
    /// Tiles this route is registered in (empty for global routes).
    tiles: Vec<u32>,
}

/// An incrementally maintained route cache over a churning status map.
pub struct RerouteIndex {
    mesh: Mesh2D,
    status: StatusMap,
    regions: RegionMap,
    routes: Vec<CachedRoute>,
    tiles_w: i32,
    tile_routes: Vec<Vec<u32>>,
    globals: Vec<u32>,
    stats: RerouteStats,
}

impl RerouteIndex {
    /// Builds the index over `status`, routing every pair of `sample` from
    /// scratch.
    pub fn new(mesh: &Mesh2D, status: &StatusMap, sample: &PairSample) -> Self {
        let regions = RegionMap::from_status(mesh, status);
        Self::with_regions(mesh, status.clone(), regions, sample)
    }

    /// Builds the index from a live engine's maintained comp-id state: the
    /// excluded set is the union of the engine's **borrowed** per-component
    /// polygon bitmaps (no `polygons()` clones), then labelled into router
    /// regions.
    pub fn from_engine(engine: &IncrementalEngine, sample: &PairSample) -> Self {
        let mesh = engine.mesh();
        let mut excluded = BitGrid::for_mesh(mesh);
        for id in engine.component_ids() {
            excluded.union_with(engine.component_polygon(id).expect("live id has a polygon"));
        }
        let regions = RegionMap::from_regions(
            mesh,
            Region::from_bits(excluded).components(mesh2d::Connectivity::Four),
        );
        Self::with_regions(mesh, engine.status().clone(), regions, sample)
    }

    fn with_regions(
        mesh: &Mesh2D,
        status: StatusMap,
        regions: RegionMap,
        sample: &PairSample,
    ) -> Self {
        let tiles_w = (mesh.width() + (1 << TILE_SHIFT) - 1) >> TILE_SHIFT;
        let tiles_h = (mesh.height() + (1 << TILE_SHIFT) - 1) >> TILE_SHIFT;
        let mut index = RerouteIndex {
            mesh: *mesh,
            status,
            regions,
            routes: Vec::with_capacity(sample.len()),
            tiles_w,
            tile_routes: vec![Vec::new(); (tiles_w * tiles_h) as usize],
            globals: Vec::new(),
            stats: RerouteStats::default(),
        };
        let router = ExtendedECube::with_regions(&index.mesh, &index.status, &index.regions);
        for (src, dst) in sample.iter() {
            let (result, deps) = compute(&router, src, dst);
            index.routes.push(CachedRoute {
                src,
                dst,
                result,
                deps,
                tiles: Vec::new(),
            });
        }
        for id in 0..index.routes.len() as u32 {
            index.register(id);
        }
        index
    }

    fn tile_of(&self, c: Coord) -> u32 {
        ((c.x >> TILE_SHIFT) + (c.y >> TILE_SHIFT) * self.tiles_w) as u32
    }

    /// Registers route `id` in the tile index (or the global list) from its
    /// current dependency footprint.
    fn register(&mut self, id: u32) {
        let route = &self.routes[id as usize];
        let tiles = match &route.deps {
            Deps::Global => {
                self.globals.push(id);
                return;
            }
            Deps::Cells(grid) => match grid.bounding_rect() {
                None => Vec::new(),
                Some(rect) => {
                    let mut tiles = Vec::new();
                    let (min, max) = (rect.min(), rect.max());
                    let (tx0, tx1) = (
                        min.x.max(0) >> TILE_SHIFT,
                        max.x.min(self.mesh.width() - 1) >> TILE_SHIFT,
                    );
                    let (ty0, ty1) = (
                        min.y.max(0) >> TILE_SHIFT,
                        max.y.min(self.mesh.height() - 1) >> TILE_SHIFT,
                    );
                    for ty in ty0..=ty1 {
                        for tx in tx0..=tx1 {
                            tiles.push((tx + ty * self.tiles_w) as u32);
                        }
                    }
                    tiles
                }
            },
        };
        for &t in &tiles {
            self.tile_routes[t as usize].push(id);
        }
        self.routes[id as usize].tiles = tiles;
    }

    fn unregister(&mut self, id: u32) {
        let tiles = std::mem::take(&mut self.routes[id as usize].tiles);
        for t in tiles {
            self.tile_routes[t as usize].retain(|&r| r != id);
        }
        if matches!(self.routes[id as usize].deps, Deps::Global) {
            self.globals.retain(|&r| r != id);
        }
    }

    /// Consumes one coalesced delta batch: patches the mirrored status map,
    /// re-labels the region state, and recomputes exactly the routes whose
    /// dependency footprint intersects the changed cells.
    pub fn apply_batch(&mut self, delta: &StatusDelta) -> BatchOutcome {
        let _span = mocp_obs::span!("traffic.reroute.apply");
        let delta = delta.coalesced();
        let changed: Vec<Coord> = delta.changes().iter().map(|&(c, _, _)| c).collect();
        let mut outcome = BatchOutcome {
            changed_cells: changed.len(),
            ..BatchOutcome::default()
        };
        self.stats.batches += 1;
        self.stats.changed_cells += changed.len() as u64;
        if changed.is_empty() {
            outcome.kept = self.routes.len();
            self.stats.kept += outcome.kept as u64;
            return outcome;
        }

        delta.apply_to(&mut self.status);
        // Region relabelling is O(excluded set); the expensive state being
        // preserved here is the route cache, not the labelling.
        self.regions = RegionMap::from_status(&self.mesh, &self.status);

        // Candidate routes: global ones plus every route registered in a
        // tile containing a changed cell.
        let mut candidates: Vec<u32> = self.globals.clone();
        for &c in &changed {
            for &id in &self.tile_routes[self.tile_of(c) as usize] {
                candidates.push(id);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        outcome.candidates = candidates.len();

        let mut invalid: Vec<u32> = Vec::new();
        for &id in &candidates {
            let hit = match &self.routes[id as usize].deps {
                Deps::Global => true,
                Deps::Cells(grid) => changed.iter().any(|&c| grid.contains(c)),
            };
            if hit {
                invalid.push(id);
            }
        }

        for &id in &invalid {
            self.unregister(id);
            let route = &self.routes[id as usize];
            let (src, dst) = (route.src, route.dst);
            let router = ExtendedECube::with_regions(&self.mesh, &self.status, &self.regions);
            let (result, deps) = compute(&router, src, dst);
            let slot = &mut self.routes[id as usize];
            slot.result = result;
            slot.deps = deps;
            self.register(id);
        }

        outcome.recomputed = invalid.len();
        outcome.kept = self.routes.len() - invalid.len();
        self.stats.recomputed += outcome.recomputed as u64;
        self.stats.kept += outcome.kept as u64;
        mocp_obs::counter!("traffic.reroute.batches").inc();
        mocp_obs::counter!("traffic.reroute.recomputed").add(outcome.recomputed as u64);
        mocp_obs::counter!("traffic.reroute.kept").add(outcome.kept as u64);
        outcome
    }

    /// Applies a batch that originated from `engine` (already applied
    /// there), additionally reporting how many live components own changed
    /// faulty cells — the comp-id view of the churn.
    pub fn apply_engine_batch(
        &mut self,
        engine: &IncrementalEngine,
        delta: &StatusDelta,
    ) -> BatchOutcome {
        let mut outcome = self.apply_batch(delta);
        let mut touched: Vec<u32> = delta
            .changes()
            .iter()
            .filter_map(|&(c, _, _)| engine.component_at(c))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        outcome.touched_components = touched.len();
        outcome
    }

    /// The maintained routes, in pair order.
    pub fn results(&self) -> impl Iterator<Item = (&Result<RoutePath, RouteError>, Coord, Coord)> {
        self.routes.iter().map(|r| (&r.result, r.src, r.dst))
    }

    /// Number of maintained routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when the index maintains no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The mirrored status map.
    pub fn status(&self) -> &StatusMap {
        &self.status
    }

    /// Cumulative batch counters.
    pub fn stats(&self) -> &RerouteStats {
        &self.stats
    }

    /// Recomputes every route from scratch over the current status map —
    /// the oracle the property tests compare against.
    pub fn from_scratch(&self) -> Vec<Result<RoutePath, RouteError>> {
        let router = ExtendedECube::with_regions(&self.mesh, &self.status, &self.regions);
        self.routes
            .iter()
            .map(|r| router.route(r.src, r.dst))
            .collect()
    }

    /// True when the maintained routes equal the from-scratch oracle.
    pub fn matches_from_scratch(&self) -> bool {
        self.from_scratch()
            .iter()
            .zip(self.routes.iter())
            .all(|(oracle, cached)| *oracle == cached.result)
    }
}

/// Routes one pair and derives its dependency footprint.
fn compute(
    router: &ExtendedECube<'_>,
    src: Coord,
    dst: Coord,
) -> (Result<RoutePath, RouteError>, Deps) {
    match router.route_traced(src, dst) {
        Ok(traced) => {
            if traced.used_fallback {
                return (Ok(traced.path), Deps::Global);
            }
            let mut cells: Vec<Coord> = traced.path.hops.clone();
            for &region in &traced.detoured {
                cells.extend(router.region_map().region(region).iter());
            }
            let deps = Deps::Cells(BitGrid::from_coords(cells).dilate());
            (Ok(traced.path), deps)
        }
        Err(RouteError::Unreachable) => (Err(RouteError::Unreachable), Deps::Global),
        Err(err) => {
            // Depends only on the two endpoints' status.
            let deps = Deps::Cells(BitGrid::from_coords([src, dst]));
            (Err(err), deps)
        }
    }
}

/// A live, gap-recovering consumer of one tenant's coalesced updates.
///
/// `LiveReroute` couples a [`RerouteIndex`] to a **bounded** subscription
/// on a [`MonitorService`] tenant. Bounded subscribers never stall a
/// worker: the service *drops* updates while the buffer is full, and the
/// survivor sees the hole as a `seq` gap. [`pump`](LiveReroute::pump)
/// applies in-order updates incrementally; on a gap — dropped updates, or
/// a worker recovery that rebuilt the tenant without fanning out — it
/// **resynchronizes** by diffing its mirrored status map against a
/// coherent service snapshot. The repair is one
/// [`StatusDelta::between`] batch through the ordinary incremental path,
/// not an index rebuild, so routes untouched by the missed churn keep
/// their cached results.
///
/// [`sync`](LiveReroute::sync) is the equality point: when it returns,
/// the index's mirror equals the tenant's snapshot and the maintained
/// routes equal from-scratch routing over it
/// ([`RerouteIndex::matches_from_scratch`]), no matter how many updates
/// were dropped, replayed or reordered by recovery in between.
pub struct LiveReroute {
    tenant: TenantId,
    index: RerouteIndex,
    updates: Receiver<TenantUpdate>,
    /// The next update sequence number the index expects.
    next_seq: u64,
    gaps: u64,
    resyncs: u64,
}

impl LiveReroute {
    /// Subscribes to `tenant` over a buffer of `capacity` updates and
    /// builds the route index from a coherent snapshot. Subscribing
    /// *before* snapshotting closes the attach race: every update fanned
    /// out after the snapshot is either reflected in it (skipped by
    /// `seq`) or delivered/dropped through the subscription — nothing
    /// can fall in between. `None` for unknown tenants.
    pub fn attach(
        service: &MonitorService,
        tenant: TenantId,
        mesh: &Mesh2D,
        sample: &PairSample,
        capacity: usize,
    ) -> Option<Self> {
        let updates = service.subscribe(tenant, Some(capacity))?;
        let snap = service.status_snapshot(tenant)?;
        let index = RerouteIndex::new(mesh, &snap.status, sample);
        Some(LiveReroute {
            tenant,
            index,
            updates,
            next_seq: snap.seq + 1,
            gaps: 0,
            resyncs: 0,
        })
    }

    /// Drains every buffered update without blocking, applying in-order
    /// ones incrementally and resynchronizing on `seq` gaps. Returns the
    /// number of updates drained.
    pub fn pump(&mut self, service: &MonitorService) -> usize {
        let mut drained = 0;
        loop {
            let update = match self.updates.try_recv() {
                Ok(update) => update,
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return drained,
            };
            drained += 1;
            if update.seq < self.next_seq {
                // Stale: a recovery catch-up re-announced state the
                // index already mirrors (directly or via a resync).
                continue;
            }
            if update.seq > self.next_seq {
                self.gaps += 1;
                mocp_obs::counter!("reroute.live.gaps").inc();
                self.resync(service);
            }
            if update.seq >= self.next_seq {
                self.index.apply_batch(&update.delta);
                self.next_seq = update.seq + 1;
                mocp_obs::counter!("reroute.live.applied").inc();
            }
        }
    }

    /// Re-anchors the index on a coherent service snapshot: one
    /// between-diff batch through the incremental path, then rejoin the
    /// stream at the snapshot's sequence number.
    fn resync(&mut self, service: &MonitorService) {
        let Some(snap) = service.status_snapshot(self.tenant) else {
            return;
        };
        let diff = StatusDelta::between(self.index.status(), &snap.status);
        self.index.apply_batch(&diff);
        self.next_seq = snap.seq + 1;
        self.resyncs += 1;
        mocp_obs::counter!("reroute.live.resyncs").inc();
    }

    /// Pumps, then verifies the mirror against a fresh snapshot,
    /// resynchronizing once if they diverged (e.g. a snapshot served
    /// while the tenant was rebuilding temporarily rewound the stream).
    /// Returns `true` when the pumped stream alone had already converged
    /// — i.e. no repair was needed.
    pub fn sync(&mut self, service: &MonitorService) -> bool {
        self.pump(service);
        let coherent = match service.status_snapshot(self.tenant) {
            Some(snap) => self.next_seq == snap.seq + 1 && *self.index.status() == snap.status,
            None => false,
        };
        if !coherent {
            self.resync(service);
        }
        coherent
    }

    /// The maintained route index.
    pub fn index(&self) -> &RerouteIndex {
        &self.index
    }

    /// The tenant this subscriber tracks.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Sequence gaps detected so far.
    pub fn gaps(&self) -> u64 {
        self.gaps
    }

    /// Snapshot resynchronizations performed so far (gap repairs plus
    /// divergence repairs from [`sync`](LiveReroute::sync)).
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::FaultEvent;

    fn sample(mesh: &Mesh2D) -> PairSample {
        PairSample::strided(mesh, 5)
    }

    #[test]
    fn fresh_index_matches_oracle() {
        let mesh = Mesh2D::square(12);
        let mut engine = IncrementalEngine::new(mesh);
        engine.delta_batch(
            [(3, 3), (4, 3), (8, 8)].map(|(x, y)| FaultEvent::Inject(Coord::new(x, y))),
        );
        let index = RerouteIndex::from_engine(&engine, &sample(&mesh));
        assert!(index.matches_from_scratch());
        assert_eq!(index.len(), sample(&mesh).len());
    }

    #[test]
    fn batches_patch_only_intersecting_routes() {
        let mesh = Mesh2D::square(16);
        let mut engine = IncrementalEngine::new(mesh);
        let mut index = RerouteIndex::from_engine(&engine, &sample(&mesh));

        // A fault in one corner must not recompute the whole cache.
        let delta = engine.delta_batch([FaultEvent::Inject(Coord::new(1, 1))]);
        let outcome = index.apply_engine_batch(&engine, &delta);
        assert!(outcome.recomputed > 0);
        assert!(outcome.kept > 0);
        assert!(outcome.recomputed < index.len());
        assert_eq!(outcome.touched_components, 1);
        assert!(index.matches_from_scratch());
        assert_eq!(index.status(), engine.status());

        // Churn that cancels itself keeps everything.
        let delta = engine.delta_batch([
            FaultEvent::Inject(Coord::new(12, 3)),
            FaultEvent::Repair(Coord::new(12, 3)),
        ]);
        let outcome = index.apply_batch(&delta);
        assert_eq!(outcome.changed_cells, 0);
        assert_eq!(outcome.recomputed, 0);
        assert_eq!(outcome.kept, index.len());
        assert!(index.matches_from_scratch());
    }

    #[test]
    fn repair_churn_restores_routes() {
        let mesh = Mesh2D::square(12);
        let mut engine = IncrementalEngine::new(mesh);
        let mut index = RerouteIndex::from_engine(&engine, &sample(&mesh));
        let baseline: Vec<_> = index.from_scratch();

        let delta = engine.delta_batch(
            [(5, 5), (6, 5), (5, 6)].map(|(x, y)| FaultEvent::Inject(Coord::new(x, y))),
        );
        index.apply_engine_batch(&engine, &delta);
        assert!(index.matches_from_scratch());

        let delta = engine.delta_batch(
            [(5, 5), (6, 5), (5, 6)].map(|(x, y)| FaultEvent::Repair(Coord::new(x, y))),
        );
        index.apply_engine_batch(&engine, &delta);
        assert!(index.matches_from_scratch());
        let restored: Vec<_> = index.results().map(|(r, _, _)| r.clone()).collect();
        assert_eq!(restored, baseline);
    }
}
