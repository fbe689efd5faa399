//! Differential property test of the distributed (DMFP) protocol replay.
//!
//! `DistributedMfpModel` lays each component out on a reusable
//! window-local byte frame: one stack flood finds the ring nodes and the
//! free regions, the ring walks and the boundary array are read off the
//! frame, and blocked notifications run a dense, early-stopping BFS. The
//! oracle here is the set-based replay that frame replaced: ring nodes
//! and free regions as `Region`s, a `Region::components` partition of the
//! window, a boundary array of `BTreeMap`s and a whole-mesh
//! `BTreeMap`/`BTreeSet` BFS per blocked section.
//!
//! Both must agree on every ring walk, every detected section (in order),
//! every boundary-array entry and every field of every component trace,
//! and every protocol polygon must be its component's minimum polygon
//! (the specification, `minimum_polygon`).

use faultgen::{generate_faults, FaultDistribution};
use fblock::FaultModel;
use fblock::RoundStats;
use mesh2d::{Connectivity, Coord, FaultSet, Mesh2D, Rect, Region};
use mocp_core::concave::{ConcaveSection, Orientation};
use mocp_core::distributed::boundary::{ring_nodes, ring_walks, RingWalk};
use mocp_core::distributed::notify::Notification;
use mocp_core::distributed::protocol::{ComponentTrace, DistributedMfpModel};
use mocp_core::distributed::ring::{process_walk, DetectedSection};
use mocp_core::superseding::pile_polygons;
use mocp_core::{merge_components, minimum_polygon, FaultyComponent};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// ---------------------------------------------------------------------
// The set-based oracle.
// ---------------------------------------------------------------------

/// Boundary roles of `c` with respect to `component`: (north, south,
/// east, west).
fn classify(component: &FaultyComponent, c: Coord) -> (bool, bool, bool, bool) {
    if component.contains(c) {
        return (false, false, false, false);
    }
    (
        component.contains(c.offset(0, -1)),
        component.contains(c.offset(0, 1)),
        component.contains(c.offset(-1, 0)),
        component.contains(c.offset(1, 0)),
    )
}

fn oracle_ring_nodes(mesh: &Mesh2D, component: &FaultyComponent) -> Region {
    let mut ring = Region::new();
    for c in component.iter() {
        for n in mesh.neighbors8(c) {
            if !component.contains(n) {
                ring.insert(n);
            }
        }
    }
    ring
}

fn oracle_ring_walks(mesh: &Mesh2D, component: &FaultyComponent) -> Vec<RingWalk> {
    let ring = oracle_ring_nodes(mesh, component);
    if ring.is_empty() {
        return Vec::new();
    }
    let block = component.virtual_block();
    let min = Coord::new((block.min().x - 1).max(0), (block.min().y - 1).max(0));
    let max = Coord::new(
        (block.max().x + 1).min(mesh.width() - 1),
        (block.max().y + 1).min(mesh.height() - 1),
    );
    let window = Rect::new(min, max);
    let free = Region::from_coords(window.nodes().filter(|c| !component.contains(*c)));
    let mut walks = Vec::new();
    for region in free.components(Connectivity::Four) {
        let band = region.intersection(&ring);
        if band.is_empty() {
            continue;
        }
        let is_inner = !region.iter().any(|c| window.on_boundary(c));
        walks.push(oracle_trace_walk(&band, is_inner));
    }
    walks
}

fn oracle_trace_walk(band: &Region, is_inner: bool) -> RingWalk {
    let initiator = band
        .iter()
        .min_by_key(|c| (c.x, c.y))
        .expect("band is non-empty");
    let mut visits = Vec::with_capacity(band.len());
    let mut visited = Region::new();
    let mut hops = 0u32;
    let mut max_piece_hops = 0u32;
    let mut pending: Vec<Coord> = band.iter().collect();
    pending.sort_by_key(|c| (c.x, c.y));
    for start in std::iter::once(initiator).chain(pending) {
        if visited.contains(start) {
            continue;
        }
        let mut piece_nodes = 1u32;
        let mut path = vec![start];
        visited.insert(start);
        visits.push(start);
        while let Some(&cur) = path.last() {
            let next = cur
                .neighbors4()
                .into_iter()
                .filter(|n| band.contains(*n) && !visited.contains(*n))
                .min_by_key(|n| (n.x, n.y));
            match next {
                Some(n) => {
                    visited.insert(n);
                    visits.push(n);
                    path.push(n);
                    piece_nodes += 1;
                }
                None => {
                    path.pop();
                }
            }
        }
        hops += piece_nodes;
        max_piece_hops = max_piece_hops.max(piece_nodes);
    }
    RingWalk {
        initiator,
        visits,
        hops: hops.max(max_piece_hops),
        is_inner,
        complete: visited.len() == band.len(),
    }
}

/// The set-based boundary array: row → column, column → row.
#[derive(Default)]
struct OracleArray {
    east: BTreeMap<i32, i32>,
    west: BTreeMap<i32, i32>,
    north: BTreeMap<i32, i32>,
    south: BTreeMap<i32, i32>,
}

struct OracleOutcome {
    detected: Vec<DetectedSection>,
    hops: u32,
    complete: bool,
    array: OracleArray,
}

fn oracle_process_walk(component: &FaultyComponent, walk: &RingWalk) -> OracleOutcome {
    let mut v = OracleArray::default();
    let mut detected = Vec::new();
    let mut seen: BTreeSet<(u8, i32, i32, i32)> = BTreeSet::new();
    for &node in &walk.visits {
        let (north, south, east, west) = classify(component, node);
        if !(north || south || east || west) {
            continue;
        }
        if east {
            v.east.insert(node.y, node.x);
        }
        if west {
            v.west.insert(node.y, node.x);
        }
        if north {
            v.north.insert(node.x, node.y);
        }
        if south {
            v.south.insert(node.x, node.y);
        }
        let mut fire = |section: Option<ConcaveSection>| {
            if let Some(section) = section {
                let key = (
                    matches!(section.orientation, Orientation::Row) as u8,
                    section.line,
                    section.start,
                    section.end,
                );
                if seen.insert(key) {
                    detected.push(DetectedSection {
                        notification_end: node,
                        section,
                    });
                }
            }
        };
        let row = |lo, hi| clamp(component, Orientation::Row, node.y, lo, hi, node.x);
        let col = |lo, hi| clamp(component, Orientation::Column, node.x, lo, hi, node.y);
        if east {
            if let Some(&w) = v.west.get(&node.y) {
                if w >= node.x {
                    fire(row(node.x, w));
                }
            }
        }
        if west {
            if let Some(&e) = v.east.get(&node.y) {
                if e <= node.x {
                    fire(row(e, node.x));
                }
            }
        }
        if south {
            if let Some(&n) = v.north.get(&node.x) {
                if n <= node.y {
                    fire(col(n, node.y));
                }
            }
        }
        if north {
            if let Some(&s) = v.south.get(&node.x) {
                if s >= node.y {
                    fire(col(node.y, s));
                }
            }
        }
    }
    OracleOutcome {
        detected,
        hops: walk.hops,
        complete: walk.complete,
        array: v,
    }
}

/// Clamps `[lo, hi]` on `line` to the run of non-members around
/// `anchor`, kept only when members close it on both sides.
fn clamp(
    component: &FaultyComponent,
    orientation: Orientation,
    line: i32,
    lo: i32,
    hi: i32,
    anchor: i32,
) -> Option<ConcaveSection> {
    let at = |v: i32| match orientation {
        Orientation::Row => Coord::new(v, line),
        Orientation::Column => Coord::new(line, v),
    };
    let member = |v: i32| component.contains(at(v));
    if member(anchor) {
        return None;
    }
    let mut start = anchor;
    while start > lo && !member(start - 1) {
        start -= 1;
    }
    let mut end = anchor;
    while end < hi && !member(end + 1) {
        end += 1;
    }
    (member(start - 1) && member(end + 1)).then_some(ConcaveSection {
        orientation,
        line,
        start,
        end,
    })
}

fn oracle_plan_notification(
    mesh: &Mesh2D,
    faults: &FaultSet,
    end_node: Coord,
    section: &ConcaveSection,
) -> Notification {
    let nodes = section.nodes();
    if !nodes.iter().any(|c| faults.is_faulty(*c)) {
        let (a, b) = section.end_nodes();
        return Notification {
            section: *section,
            end_node,
            hops: end_node.manhattan(a).max(end_node.manhattan(b)),
            detoured: false,
        };
    }
    let mut dist = BTreeMap::new();
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::new();
    dist.insert(end_node, 0u32);
    seen.insert(end_node);
    queue.push_back(end_node);
    while let Some(c) = queue.pop_front() {
        let d = dist[&c];
        for n in mesh.neighbors4(c) {
            if !faults.is_faulty(n) && seen.insert(n) {
                dist.insert(n, d + 1);
                queue.push_back(n);
            }
        }
    }
    let hops = nodes
        .iter()
        .filter(|c| !faults.is_faulty(**c))
        .filter_map(|c| dist.get(c).copied())
        .max()
        .unwrap_or(0);
    Notification {
        section: *section,
        end_node,
        hops,
        detoured: true,
    }
}

fn oracle_run_component(
    mesh: &Mesh2D,
    faults: &FaultSet,
    component: &FaultyComponent,
) -> ComponentTrace {
    let mut rounds = RoundStats {
        rounds: 1,
        events: 0,
        converged: true,
    };
    let mut polygon = component.region().clone();
    let mut notifications = Vec::new();
    let mut iterations = 0u32;
    let mut faithful = true;
    loop {
        iterations += 1;
        let grown = FaultyComponent::new(polygon.clone());
        let mut ring_rounds = 0u32;
        let mut ring_events = 0u64;
        let mut detected = Vec::new();
        for walk in oracle_ring_walks(mesh, &grown) {
            let outcome = oracle_process_walk(&grown, &walk);
            faithful &= outcome.complete;
            ring_rounds = ring_rounds.max(outcome.hops);
            ring_events += outcome.hops as u64;
            detected.extend(outcome.detected);
        }
        let mut notify_rounds = 0u32;
        let mut notify_events = 0u64;
        let mut added_any = false;
        for d in &detected {
            let n = oracle_plan_notification(mesh, faults, d.notification_end, &d.section);
            notify_rounds = notify_rounds.max(n.hops);
            notify_events += n.hops as u64;
            for node in d.section.nodes() {
                if mesh.contains(node) && polygon.insert(node) {
                    added_any = true;
                }
            }
            notifications.push(n);
        }
        rounds = rounds.then(RoundStats {
            rounds: ring_rounds + notify_rounds,
            events: ring_events + notify_events,
            converged: true,
        });
        if !added_any || polygon.is_orthogonally_convex() {
            break;
        }
    }
    let spec = minimum_polygon(component);
    if polygon != spec {
        faithful = false;
        polygon = polygon.union(&spec);
    }
    ComponentTrace {
        component: component.clone(),
        polygon,
        rounds,
        notifications,
        iterations,
        faithful,
    }
}

// ---------------------------------------------------------------------
// The comparisons.
// ---------------------------------------------------------------------

/// Ring nodes, walks, detected sections and boundary arrays of one
/// component against the oracle.
fn check_component(mesh: &Mesh2D, component: &FaultyComponent) {
    assert_eq!(
        ring_nodes(mesh, component),
        oracle_ring_nodes(mesh, component),
        "ring nodes"
    );
    let walks = ring_walks(mesh, component);
    let expected = oracle_ring_walks(mesh, component);
    assert_eq!(walks.len(), expected.len(), "walk count");
    let block = component.virtual_block();
    for (i, (got, want)) in walks.iter().zip(&expected).enumerate() {
        assert_eq!(got.initiator, want.initiator, "walk {i} initiator");
        assert_eq!(got.visits, want.visits, "walk {i} visits");
        assert_eq!(got.hops, want.hops, "walk {i} hops");
        assert_eq!(got.is_inner, want.is_inner, "walk {i} is_inner");
        assert_eq!(got.complete, want.complete, "walk {i} complete");

        let outcome = process_walk(component, got);
        let oracle = oracle_process_walk(component, want);
        assert_eq!(outcome.detected, oracle.detected, "walk {i} detected");
        assert_eq!(outcome.hops, oracle.hops, "walk {i} outcome hops");
        assert_eq!(
            outcome.complete, oracle.complete,
            "walk {i} outcome complete"
        );
        let v = &outcome.boundary_array;
        for row in block.min().y - 2..=block.max().y + 2 {
            assert_eq!(v.east_of_row(row), oracle.array.east.get(&row).copied());
            assert_eq!(v.west_of_row(row), oracle.array.west.get(&row).copied());
        }
        for col in block.min().x - 2..=block.max().x + 2 {
            assert_eq!(
                v.north_of_column(col),
                oracle.array.north.get(&col).copied()
            );
            assert_eq!(
                v.south_of_column(col),
                oracle.array.south.get(&col).copied()
            );
        }
    }
}

/// The whole construction against the oracle: every component's walks,
/// then the model outcome and every trace field. Returns the number of
/// components checked.
fn check(mesh: &Mesh2D, faults: &FaultSet) -> usize {
    let components = merge_components(faults);
    for component in &components {
        check_component(mesh, component);
    }
    let (outcome, traces) = DistributedMfpModel.construct_detailed(mesh, faults);
    for (i, trace) in traces.iter().enumerate() {
        assert!(
            trace.polygon == minimum_polygon(&trace.component),
            "trace {i}: the protocol polygon is not the minimum polygon"
        );
    }
    let expected: Vec<ComponentTrace> = components
        .iter()
        .map(|c| oracle_run_component(mesh, faults, c))
        .collect();
    assert_eq!(traces.len(), expected.len(), "trace count");
    let mut rounds = RoundStats::quiescent();
    for (i, (got, want)) in traces.iter().zip(&expected).enumerate() {
        assert_eq!(got.component, want.component, "trace {i} component");
        assert_eq!(got.polygon, want.polygon, "trace {i} polygon");
        assert_eq!(got.rounds, want.rounds, "trace {i} rounds");
        assert_eq!(
            got.notifications, want.notifications,
            "trace {i} notifications"
        );
        assert_eq!(got.iterations, want.iterations, "trace {i} iterations");
        assert_eq!(got.faithful, want.faithful, "trace {i} faithful");
        rounds = rounds.in_parallel_with(want.rounds);
    }
    let polygons: Vec<Region> = expected.iter().map(|t| t.polygon.clone()).collect();
    assert_eq!(outcome.regions, polygons, "regions");
    assert_eq!(outcome.rounds, rounds, "model rounds");
    assert!(
        outcome.status == pile_polygons(mesh, faults, &polygons),
        "status"
    );
    let plain = DistributedMfpModel.construct(mesh, faults);
    assert_eq!(
        plain.regions, outcome.regions,
        "construct vs construct_detailed"
    );
    assert_eq!(plain.rounds, outcome.rounds);
    components.len()
}

fn distribution(clustered: bool) -> FaultDistribution {
    if clustered {
        FaultDistribution::Clustered
    } else {
        FaultDistribution::Random
    }
}

fn fault_set(mesh: Mesh2D, list: &[(i32, i32)]) -> FaultSet {
    FaultSet::from_coords(mesh, list.iter().map(|&(x, y)| Coord::new(x, y)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random and clustered draws on 5²–40² meshes, from sparse to dense
    /// enough for large, holed, border-hugging components.
    #[test]
    fn frame_replay_matches_the_set_based_oracle(
        side in 5u32..41,
        permille in 10usize..400,
        clustered in 0u32..2,
        seed in 0u64..100_000,
    ) {
        let mesh = Mesh2D::square(side);
        let count = (mesh.node_count() * permille / 1000).max(1);
        let faults = generate_faults(mesh, count, distribution(clustered == 1), seed);
        check(&mesh, &faults);
    }

    /// Faults pushed onto the mesh border (one coordinate clamped to an
    /// edge), so windows are clipped on one or two sides and components
    /// sit in the corners.
    #[test]
    fn frame_replay_matches_the_oracle_on_the_mesh_border(
        side in 4u32..17,
        cells in prop::collection::vec((0..64i32, 0..64i32, 0..4u32), 1..60),
    ) {
        let mesh = Mesh2D::square(side);
        let n = side as i32;
        let faults = FaultSet::from_coords(
            mesh,
            cells.iter().map(|&(x, y, edge)| match edge {
                0 => Coord::new(0, y % n),
                1 => Coord::new(n - 1, y % n),
                2 => Coord::new(x % n, 0),
                _ => Coord::new(x % n, n - 1),
            }),
        );
        check(&mesh, &faults);
    }
}

/// Hand-placed shapes: the mesh corners, a closed hole, U and C shapes,
/// nested holes and the Figure 7 blocking polygon.
#[test]
fn frame_replay_matches_the_oracle_on_named_shapes() {
    let mesh = Mesh2D::square(12);
    let shapes: Vec<Vec<(i32, i32)>> = vec![
        // the four corners
        vec![(0, 0)],
        vec![(11, 0), (10, 1)],
        vec![(0, 11), (1, 11), (0, 10)],
        vec![(11, 11), (10, 10), (11, 9), (9, 11)],
        // a closed hole
        vec![
            (2, 2),
            (3, 2),
            (4, 2),
            (2, 3),
            (4, 3),
            (2, 4),
            (3, 4),
            (4, 4),
        ],
        // U and C
        vec![(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)],
        vec![(5, 5), (6, 5), (7, 5), (5, 6), (5, 7), (6, 7), (7, 7)],
        // a hole against the mesh border, and a frame filling the mesh edge
        vec![(0, 3), (1, 3), (2, 3), (2, 4), (2, 5), (1, 5), (0, 5)],
        (0..12)
            .flat_map(|i| [(i, 0), (i, 11), (0, i), (11, i)])
            .collect(),
        // two holes and a pinched diagonal
        vec![
            (1, 1),
            (2, 1),
            (3, 1),
            (4, 1),
            (5, 1),
            (1, 2),
            (3, 2),
            (5, 2),
            (1, 3),
            (2, 3),
            (3, 3),
            (4, 3),
            (5, 3),
        ],
        vec![(3, 3), (4, 4), (5, 5), (4, 6), (3, 7), (6, 4), (7, 3)],
    ];
    for shape in &shapes {
        check(&mesh, &fault_set(mesh, shape));
    }
    let blocking = faultgen::scenario::blocking_polygons();
    check(&blocking.mesh, &blocking.fault_set());
    let figure8 = faultgen::scenario::figure8_component();
    check(&figure8.mesh, &figure8.fault_set());
}

/// The paper-scale sweep: 100², 100..800 faults, both distributions,
/// several seeds. Slow in a debug build; run it in release with
/// `cargo test --release -p mocp_core --test dmfp_oracle -- --include-ignored`.
#[test]
#[ignore = "paper-scale sweep; run in release"]
fn frame_replay_matches_the_oracle_at_paper_scale() {
    let mesh = Mesh2D::square(100);
    let mut components = 0;
    for seed in 2004..2024 {
        for clustered in [false, true] {
            for count in (1..=8).map(|i| i * 100) {
                let faults = generate_faults(mesh, count, distribution(clustered), seed);
                components += check(&mesh, &faults);
            }
        }
    }
    assert!(components > 50_000, "only {components} components checked");
}
