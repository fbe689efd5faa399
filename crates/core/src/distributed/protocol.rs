//! The distributed minimum faulty polygon fault model (DMFP).
//!
//! Per component the protocol proceeds in phases, and the phases of
//! different components run concurrently in disjoint parts of the mesh:
//!
//! 1. **Boundary classification** (1 round): every node learns from its
//!    neighbors whether it is an east/south/west/north boundary node of an
//!    adjacent component and whether it is a south-west inner/outer corner.
//! 2. **Ring traversal**: the west-most south-west corner's initiation
//!    message circulates around the component (and around each closed
//!    concave region), carrying the boundary array and detecting the
//!    notification end node of every concave row/column section. The paper's
//!    overwriting rule makes the west-most initiator dominate; secondary
//!    corners that start concurrently only add traffic, not rounds.
//! 3. **Notification**: each notification end node disables the nodes of its
//!    section, routing around blocking polygons where needed.
//!
//! New south-west corners formed by freshly disabled nodes restart the
//! procedure, so the phases repeat until no new concave section appears —
//! in practice a single pass suffices for every 8-connected component.
//! Should the traversal nevertheless fail to detect some forced node (it
//! never has in our test corpus), the construction falls back to the
//! centralized specification for the remainder and records the fact in the
//! per-component trace so that fidelity regressions are visible to tests.
//!
//! A construction threads one [`DmfpScratch`] through its components: the
//! labelling flood buffers, the ring frame, the boundary array, the
//! detected-section list and the notification search grid are re-framed
//! per component, not reallocated.
//!
//! The scratch also holds a shape cache (see `shape_cache`). A component
//! whose protocol window has at most 64 cells is keyed on that window's
//! size and member bits. A replay that planned no notification, ran one
//! pass and left the polygon equal to the component read nothing but its
//! frame, so its rounds are a function of that key: they are stored, and
//! every later component of the same shape takes them without a replay.
//! Replays with notifications are never stored, because a notification
//! consults the global fault set for blocking polygons. That the protocol
//! polygon is the minimum polygon is checked by the `dmfp_oracle` test,
//! not here.

use crate::component::{merge_components_with, FaultyComponent};
use crate::distributed::boundary::{protocol_window, RingFrame};
use crate::distributed::notify::{plan_notification_with, Notification, SectionBfs};
use crate::distributed::ring::{replay_walk, BoundaryArray, DetectedSection};
use crate::hull::minimum_polygon;
use crate::shape_cache::{ShapeCache, ShapeKey};
use crate::superseding::pile_polygons;
use fblock::RoundStats;
use fblock::{FaultModel, ModelOutcome};
use mesh2d::{BitScratch, FaultSet, Mesh2D, Region};

/// Per-component record of what the distributed protocol did.
#[derive(Clone, Debug)]
pub struct ComponentTrace {
    /// The component's faults.
    pub component: FaultyComponent,
    /// The minimum faulty polygon the protocol produced.
    pub polygon: Region,
    /// Rounds spent: boundary classification + ring traversal + notification,
    /// summed over protocol iterations.
    pub rounds: RoundStats,
    /// Notifications that were planned (one per detected concave section).
    pub notifications: Vec<Notification>,
    /// Number of protocol iterations (ring + notify passes) that were needed.
    pub iterations: u32,
    /// True when every ring walk visited all of its ring nodes and the
    /// detected sections alone produced the minimum polygon (no fallback).
    pub faithful: bool,
}

/// Reusable buffers of the protocol replay, threaded through every
/// component of a construction (or of many constructions):
/// [`grows`](Self::grows) counts how often any of them had to grow, which
/// the no-allocation tests pin.
#[derive(Clone, Debug, Default)]
pub struct DmfpScratch {
    /// Flood buffers of the component labelling.
    flood: BitScratch,
    /// Rounds of the frame-only replays, by component shape.
    shapes: ShapeCache<RoundStats>,
    /// The component's window, re-framed per component.
    frame: RingFrame,
    /// The boundary array, reset per walk.
    array: BoundaryArray,
    /// Sections detected in the current protocol iteration.
    detected: Vec<DetectedSection>,
    /// Search grid of blocked notifications.
    bfs: SectionBfs,
    /// Times `detected` grew.
    detected_grows: u64,
}

impl DmfpScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        DmfpScratch::default()
    }

    /// Total number of buffer growths since construction. Constant across
    /// calls ⇔ the replay ran without growing its scratch (steady state).
    pub fn grows(&self) -> u64 {
        self.flood.grows()
            + self.shapes.grows()
            + self.frame.grows()
            + self.array.grows()
            + self.bfs.grows()
            + self.detected_grows
    }
}

/// What one component's replay produced (a [`ComponentTrace`] without the
/// component and the notifications).
struct ComponentRun {
    /// The polygon; `None` when it is the component's faults alone (a
    /// shape-cache hit).
    polygon: Option<Region>,
    rounds: RoundStats,
    iterations: u32,
    faithful: bool,
}

/// The distributed minimum faulty polygon construction (model name `DMFP`).
#[derive(Clone, Copy, Debug, Default)]
pub struct DistributedMfpModel;

impl DistributedMfpModel {
    /// Runs the protocol for a single component.
    pub fn run_component(
        &self,
        mesh: &Mesh2D,
        faults: &FaultSet,
        component: &FaultyComponent,
    ) -> ComponentTrace {
        let mut notifications = Vec::new();
        let run = replay(
            mesh,
            faults,
            component,
            &mut DmfpScratch::new(),
            &mut notifications,
        );
        run.into_trace(component.clone(), notifications)
    }

    /// Runs the full construction and returns both the model outcome and the
    /// per-component traces.
    pub fn construct_detailed(
        &self,
        mesh: &Mesh2D,
        faults: &FaultSet,
    ) -> (ModelOutcome, Vec<ComponentTrace>) {
        let mut traces = Vec::new();
        let outcome = construct_on(mesh, faults, &mut DmfpScratch::new(), Some(&mut traces));
        (outcome, traces)
    }

    /// [`FaultModel::construct`] on caller-provided scratch buffers, for
    /// callers that run many constructions.
    pub fn construct_with(
        &self,
        mesh: &Mesh2D,
        faults: &FaultSet,
        scratch: &mut DmfpScratch,
    ) -> ModelOutcome {
        construct_on(mesh, faults, scratch, None)
    }
}

/// Replays the protocol for every component with one scratch, in component
/// order, recording a trace per component when `traces` is given. A
/// component whose shape is in the scratch's shape cache takes its rounds
/// from there; its polygon is the component itself.
fn construct_on(
    mesh: &Mesh2D,
    faults: &FaultSet,
    scratch: &mut DmfpScratch,
    mut traces: Option<&mut Vec<ComponentTrace>>,
) -> ModelOutcome {
    let components = merge_components_with(faults, &mut scratch.flood);
    let mut rounds = RoundStats::quiescent();
    let mut polygons = Vec::with_capacity(components.len());
    let mut notifications = Vec::new();
    for component in components {
        mocp_obs::counter!("dmfp.components").inc();
        let key = ShapeKey::new(protocol_window(mesh, &component), component.iter());
        let run = match key.and_then(|key| scratch.shapes.get(&key)) {
            Some(rounds) => {
                mocp_obs::counter!("dmfp.shape_cache_hits").inc();
                ComponentRun {
                    polygon: None,
                    rounds,
                    iterations: 1,
                    faithful: true,
                }
            }
            None => {
                let run = replay(mesh, faults, &component, scratch, &mut notifications);
                if let Some(key) = key {
                    if run.reads_only_its_frame(&component, &notifications) {
                        scratch.shapes.insert(key, run.rounds);
                    }
                }
                run
            }
        };
        rounds = rounds.in_parallel_with(run.rounds);
        match traces.as_deref_mut() {
            Some(traces) => {
                let trace = run.into_trace(component, std::mem::take(&mut notifications));
                polygons.push(trace.polygon.clone());
                traces.push(trace);
            }
            None => {
                polygons.push(run.polygon.unwrap_or_else(|| component.into_region()));
                notifications.clear();
            }
        }
    }
    let status = pile_polygons(mesh, faults, &polygons);
    ModelOutcome {
        model: "DMFP".to_string(),
        status,
        regions: polygons,
        rounds,
    }
}

impl ComponentRun {
    /// True when the replay read nothing but its frame: it planned no
    /// notification, ran one pass, stayed faithful and left the polygon
    /// equal to the component. Its rounds are then a function of the
    /// component's shape in its protocol window.
    fn reads_only_its_frame(
        &self,
        component: &FaultyComponent,
        notifications: &[Notification],
    ) -> bool {
        notifications.is_empty()
            && self.iterations == 1
            && self.faithful
            && self
                .polygon
                .as_ref()
                .is_some_and(|polygon| polygon.len() == component.len())
    }

    fn into_trace(
        self,
        component: FaultyComponent,
        notifications: Vec<Notification>,
    ) -> ComponentTrace {
        ComponentTrace {
            polygon: self.polygon.unwrap_or_else(|| component.region().clone()),
            component,
            rounds: self.rounds,
            notifications,
            iterations: self.iterations,
            faithful: self.faithful,
        }
    }
}

/// The protocol for one component on the scratch frame; appends the
/// planned notifications to `notifications`.
fn replay(
    mesh: &Mesh2D,
    faults: &FaultSet,
    component: &FaultyComponent,
    scratch: &mut DmfpScratch,
    notifications: &mut Vec<Notification>,
) -> ComponentRun {
    let DmfpScratch {
        frame,
        array,
        detected,
        bfs,
        detected_grows,
        ..
    } = scratch;
    frame.load_component(mesh, component);
    // Phase 1: boundary classification costs one round of neighbor
    // information exchange.
    let mut rounds = RoundStats {
        rounds: 1,
        events: 0,
        converged: true,
    };
    let mut polygon = component.region().clone();
    let mut iterations = 0u32;
    let mut faithful = true;
    let mut convex;

    loop {
        iterations += 1;
        // The procedure restarts on the region grown so far ("whenever a
        // new south-west corner is formed"): the frame's members are the
        // polygon, and its window is unchanged because concave sections
        // lie inside the virtual block.
        frame.mark_ring();
        let capacity = detected.capacity();
        detected.clear();
        let mut ring_rounds = 0u32;
        let mut ring_events = 0u64;
        while let Some(walk) = frame.next_walk() {
            replay_walk(frame, frame.visits(), array, detected);
            faithful &= walk.complete;
            // Rings of the same component circulate concurrently.
            ring_rounds = ring_rounds.max(walk.hops);
            ring_events += walk.hops as u64;
        }
        if detected.capacity() > capacity {
            *detected_grows += 1;
        }

        let mut notify_rounds = 0u32;
        let mut notify_events = 0u64;
        let mut added_any = false;
        for d in detected.iter() {
            let notification =
                plan_notification_with(mesh, faults, d.notification_end, &d.section, bfs);
            notify_rounds = notify_rounds.max(notification.hops);
            notify_events += notification.hops as u64;
            for node in d.section.nodes() {
                if mesh.contains(node) && polygon.insert(node) {
                    frame.insert_member(node);
                    added_any = true;
                }
            }
            notifications.push(notification);
        }

        rounds = rounds.then(RoundStats {
            rounds: ring_rounds + notify_rounds,
            events: ring_events + notify_events,
            converged: true,
        });

        // A new pass is only needed when freshly disabled nodes created a
        // concavity that was not yet notified (new south-west corners
        // forming, in the paper's terms). For 8-connected components one
        // pass reaches the convex fixpoint.
        convex = frame.is_orthogonally_convex();
        if !added_any || convex {
            break;
        }
    }

    // Safety net: the distributed detection has matched the centralized
    // specification on every component we have ever tested; if a shape
    // ever escapes it, fall back to the specification so the model's
    // output stays a minimum polygon, and record the infidelity. Every
    // added node lies on a concave section between two polygon nodes, so
    // the polygon never leaves the component's orthogonal convex hull; it
    // therefore *is* the hull (the minimum polygon) exactly when it is
    // orthogonally convex, and only a non-convex result needs the
    // specification.
    if !convex {
        faithful = false;
        polygon = polygon.union(&minimum_polygon(component));
    }

    ComponentRun {
        polygon: Some(polygon),
        rounds,
        iterations,
        faithful,
    }
}

impl FaultModel for DistributedMfpModel {
    fn name(&self) -> &'static str {
        "DMFP"
    }

    fn construct(&self, mesh: &Mesh2D, faults: &FaultSet) -> ModelOutcome {
        self.construct_with(mesh, faults, &mut DmfpScratch::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CentralizedMfpModel;
    use mesh2d::Coord;

    fn faults(mesh: Mesh2D, list: &[(i32, i32)]) -> FaultSet {
        FaultSet::from_coords(mesh, list.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    #[test]
    fn dmfp_matches_cmfp_on_simple_scenarios() {
        let mesh = Mesh2D::square(14);
        let cases: Vec<Vec<(i32, i32)>> = vec![
            vec![(3, 3)],
            vec![(2, 2), (3, 3)],
            vec![(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)],
            vec![(0, 2), (1, 1), (2, 0), (3, 1), (4, 2)],
            vec![
                (2, 6),
                (3, 7),
                (3, 5),
                (2, 4),
                (7, 6),
                (7, 5),
                (8, 5),
                (8, 4),
                (9, 4),
                (7, 7),
            ],
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
        ];
        for case in cases {
            let fs = faults(mesh, &case);
            let cmfp = CentralizedMfpModel::virtual_block().construct(&mesh, &fs);
            let (dmfp, traces) = DistributedMfpModel.construct_detailed(&mesh, &fs);
            assert_eq!(dmfp.status, cmfp.status, "case {case:?}");
            assert!(
                traces.iter().all(|t| t.faithful),
                "case {case:?} needed the fallback"
            );
            assert!(dmfp.covers_all_faults());
            assert!(dmfp.all_regions_convex());
        }
    }

    #[test]
    fn dmfp_counts_ring_and_notification_rounds() {
        let mesh = Mesh2D::square(12);
        let fs = faults(
            mesh,
            &[(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)],
        );
        let (outcome, traces) = DistributedMfpModel.construct_detailed(&mesh, &fs);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        // ring of the U-shaped component has more than a dozen nodes, so the
        // traversal alone needs that many rounds, plus 1 for classification.
        assert!(
            outcome.rounds.rounds > 12,
            "rounds = {}",
            outcome.rounds.rounds
        );
        assert!(!t.notifications.is_empty());
        assert_eq!(t.iterations, 1, "one pass reaches the convex fixpoint");
    }

    #[test]
    fn blocking_polygon_scenario_stays_correct() {
        // Component 1 is a large C; component 2 sits inside its mouth so the
        // concave sections of component 1 overlap component 2.
        let mesh = Mesh2D::square(12);
        let mut list = vec![
            (2, 2),
            (3, 2),
            (4, 2),
            (5, 2),
            (2, 3),
            (2, 4),
            (2, 5),
            (2, 6),
            (2, 7),
            (2, 8),
            (3, 8),
            (4, 8),
            (5, 8),
        ];
        list.extend([(4, 4), (4, 5), (5, 4), (5, 5)]);
        let fs = faults(mesh, &list);
        let cmfp = CentralizedMfpModel::virtual_block().construct(&mesh, &fs);
        let (dmfp, traces) = DistributedMfpModel.construct_detailed(&mesh, &fs);
        assert_eq!(dmfp.status, cmfp.status);
        // at least one notification had to detour around the blocking polygon
        let any_detour = traces
            .iter()
            .flat_map(|t| t.notifications.iter())
            .any(|n| n.detoured);
        assert!(any_detour);
    }

    #[test]
    fn rounds_scale_with_component_perimeter_not_block_size() {
        // A long diagonal chain: its faulty block is huge, but the component
        // perimeter (and hence the DMFP round count) grows only linearly.
        let mesh = Mesh2D::square(30);
        let chain: Vec<(i32, i32)> = (0..10).map(|i| (2 + i, 2 + i)).collect();
        let fs = faults(mesh, &chain);
        let fb = fblock::FaultyBlockModel.construct(&mesh, &fs);
        let fp = fblock::SubMinimumPolygonModel.construct(&mesh, &fs);
        let dmfp = DistributedMfpModel.construct(&mesh, &fs);
        assert!(fp.rounds.rounds > fb.rounds.rounds);
        assert_eq!(dmfp.disabled_nonfaulty(), 0);
        assert!(dmfp.covers_all_faults());
    }

    #[test]
    fn no_faults_is_a_no_op() {
        let mesh = Mesh2D::square(6);
        let outcome = DistributedMfpModel.construct(&mesh, &FaultSet::new(mesh));
        assert!(outcome.regions.is_empty());
        assert_eq!(outcome.rounds.rounds, 0);
        assert_eq!(outcome.disabled_nonfaulty(), 0);
    }
}
