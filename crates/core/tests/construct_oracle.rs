//! Differential tests of the packed-row 2-D constructions.
//!
//! FB, FP and the CMFP virtual-block solve label on packed rows
//! (`fblock::LabelFrame`) and read their status and regions straight off
//! the excluded bits; the merge process and `regions_from_status` build
//! each region from the flood's in-place component view. The oracles here
//! are the grid-based pipelines they replaced:
//!
//! * FB: `Grid<Safety>` → the unsafe set's `Region::components` →
//!   `StatusMap::from_faults` plus the superseding rule;
//! * FP: the same path through `Grid<Activation>`;
//! * CMFP: each component's window emulated as its own `FaultSet` and
//!   `Mesh2D`, labelled into grids; for the concave-section solution, the
//!   scalar `ConcaveSectionSolver` below (Definition 3's scan-then-fill,
//!   iterated), per component and for the whole model;
//! * the merge: per-component `BitGrid`s (`components()` + `to_region`)
//!   and the scalar `Region::components`;
//! * DMFP: the per-component protocol runs piled with `from_faults`.
//!
//! Both sides must agree on the status, the regions (content and order)
//! and the round statistics. The labelling kernels themselves are pinned to
//! the scalar local-rule engine of the `local_rule` module here as well.

mod local_rule;

use faultgen::{generate_faults, FaultDistribution, FaultInjector};
use fblock::{
    extract_faulty_blocks, label_activation, label_safety, FaultModel, FaultyBlockModel,
    ModelOutcome, RoundStats, SubMinimumPolygonModel,
};
use local_rule::{label_activation_scalar, label_safety_scalar};
use mesh2d::{
    Activation, BitGrid, Connectivity, Coord, FaultSet, Mesh2D, NodeStatus, Rect, Region, Safety,
    StatusMap,
};
use mocp_core::{
    construct_component_with, merge_components, minimum_polygon, CentralizedMfpModel,
    CentralizedSolution, ConcaveSection, ConstructionScratch, DistributedMfpModel, FaultyComponent,
    Orientation,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// The grid-based oracle.
// ---------------------------------------------------------------------

/// The faults as a status map, seeded the old way (through a `Region`).
fn fault_status(mesh: &Mesh2D, faults: &FaultSet) -> StatusMap {
    StatusMap::from_faults(mesh, &faults.region())
}

/// The 4-connected components of the unsafe nodes of a safety grid.
fn unsafe_components(safety: &mesh2d::Grid<Safety>) -> Vec<Region> {
    Region::from_coords(safety.coords_where(|&s| s == Safety::Unsafe))
        .components(Connectivity::Four)
}

fn oracle_fb(mesh: &Mesh2D, faults: &FaultSet) -> ModelOutcome {
    let (safety, rounds) = label_safety(mesh, faults);
    let blocks = unsafe_components(&safety);
    let mut status = fault_status(mesh, faults);
    for block in &blocks {
        for c in block.iter() {
            if !faults.is_faulty(c) {
                status.supersede(c, NodeStatus::Disabled);
            }
        }
    }
    ModelOutcome {
        model: "FB".to_string(),
        status,
        regions: blocks,
        rounds,
    }
}

fn oracle_fp(mesh: &Mesh2D, faults: &FaultSet) -> ModelOutcome {
    let (safety, rounds1) = label_safety(mesh, faults);
    let (activation, rounds2) = label_activation(mesh, faults, &safety);
    let mut status = fault_status(mesh, faults);
    for (c, &a) in activation.iter() {
        if a == Activation::Disabled && !faults.is_faulty(c) {
            status.supersede(c, NodeStatus::Disabled);
        }
    }
    let regions = status.excluded_region().components(Connectivity::Four);
    ModelOutcome {
        model: "FP".to_string(),
        status,
        regions,
        rounds: rounds1.then(rounds2),
    }
}

/// The merge process as the scalar decomposition of the fault region.
fn oracle_components(faults: &FaultSet) -> Vec<FaultyComponent> {
    faults
        .region()
        .components(Connectivity::Eight)
        .into_iter()
        .map(FaultyComponent::new)
        .collect()
}

/// The per-window emulation of the virtual-block solve: the window (the
/// virtual block plus an unclipped one-node margin) becomes a mesh of its
/// own, the component a fault set in window coordinates, and both schemes
/// label grids on it.
fn oracle_virtual_block(component: &FaultyComponent) -> (Region, RoundStats) {
    let block = component.virtual_block();
    let offset = Coord::new(block.min().x - 1, block.min().y - 1);
    let window_mesh = Mesh2D::mesh(block.width() + 2, block.height() + 2);
    let local_faults = FaultSet::from_coords(
        window_mesh,
        component
            .iter()
            .map(|c| Coord::new(c.x - offset.x, c.y - offset.y)),
    );
    let (safety, rounds1) = label_safety(&window_mesh, &local_faults);
    let (activation, rounds2) = label_activation(&window_mesh, &local_faults, &safety);
    let polygon = Region::from_coords(
        activation
            .coords_where(|&a| a == Activation::Disabled)
            .map(|c| Coord::new(c.x + offset.x, c.y + offset.y)),
    );
    (polygon, rounds1.then(rounds2))
}

/// Polygons piled onto the fault status with the superseding rule.
fn oracle_pile(mesh: &Mesh2D, faults: &FaultSet, polygons: &[Region]) -> StatusMap {
    let mut status = fault_status(mesh, faults);
    for polygon in polygons {
        for c in polygon.iter() {
            status.supersede(c, NodeStatus::Disabled);
        }
    }
    status
}

/// CMFP with each component solved by `solve` (the virtual-block
/// emulation or the concave-section solver).
fn oracle_cmfp(
    mesh: &Mesh2D,
    faults: &FaultSet,
    solve: fn(&FaultyComponent) -> (Region, RoundStats),
) -> ModelOutcome {
    let mut rounds = RoundStats::quiescent();
    let mut polygons = Vec::new();
    for component in oracle_components(faults) {
        let (polygon, r) = solve(&component);
        rounds = rounds.in_parallel_with(r);
        polygons.push(polygon);
    }
    ModelOutcome {
        model: "CMFP".to_string(),
        status: oracle_pile(mesh, faults, &polygons),
        regions: polygons,
        rounds,
    }
}

// ---------------------------------------------------------------------
// Centralized solution 2, scalar: concave row and column sections.
// ---------------------------------------------------------------------

/// The region's nodes grouped by line: `y -> sorted xs` for rows,
/// `x -> sorted ys` for columns.
fn lines(occupied: &Region, orientation: Orientation) -> BTreeMap<i32, Vec<i32>> {
    let mut lines: BTreeMap<i32, Vec<i32>> = BTreeMap::new();
    for c in occupied.iter() {
        let (line, v) = match orientation {
            Orientation::Row => (c.y, c.x),
            Orientation::Column => (c.x, c.y),
        };
        lines.entry(line).or_default().push(v);
    }
    for vs in lines.values_mut() {
        vs.sort_unstable();
    }
    lines
}

/// Scans a node set once and returns every concave row and column section
/// with respect to it (Definition 3, applied literally to `occupied`):
/// each maximal run of non-members between two members of one line.
fn scan_sections(occupied: &Region) -> Vec<ConcaveSection> {
    let mut sections = Vec::new();
    for orientation in [Orientation::Row, Orientation::Column] {
        for (line, vs) in lines(occupied, orientation) {
            for w in vs.windows(2) {
                if w[1] > w[0] + 1 {
                    sections.push(ConcaveSection {
                        orientation,
                        line,
                        start: w[0] + 1,
                        end: w[1] - 1,
                    });
                }
            }
        }
    }
    sections
}

/// The concave row and column sections of a faulty component (first scan
/// only — exactly Definition 3 with respect to the component's faults).
fn concave_sections(component: &FaultyComponent) -> Vec<ConcaveSection> {
    scan_sections(component.region())
}

/// Centralized solution 2: disable every node on a concave row/column
/// section, iterating the scan until no section remains (disabling a
/// section can create new ones), and return the polygon with the number
/// of scan iterations that added nodes.
struct ConcaveSectionSolver;

impl ConcaveSectionSolver {
    fn solve(&self, component: &FaultyComponent) -> (Region, u32) {
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

/// Solution 2 on one component, with the round accounting of the
/// production construction: the scan iterations as rounds and the added
/// nodes as events.
fn oracle_concave(component: &FaultyComponent) -> (Region, RoundStats) {
    let (polygon, iterations) = ConcaveSectionSolver.solve(component);
    let events = (polygon.len() - component.len()) as u64;
    let rounds = RoundStats {
        rounds: iterations,
        events,
        converged: true,
    };
    (polygon, rounds)
}

fn oracle_dmfp(mesh: &Mesh2D, faults: &FaultSet) -> ModelOutcome {
    let mut rounds = RoundStats::quiescent();
    let mut polygons = Vec::new();
    for component in oracle_components(faults) {
        let trace = DistributedMfpModel.run_component(mesh, faults, &component);
        rounds = rounds.in_parallel_with(trace.rounds);
        polygons.push(trace.polygon);
    }
    ModelOutcome {
        model: "DMFP".to_string(),
        status: oracle_pile(mesh, faults, &polygons),
        regions: polygons,
        rounds,
    }
}

// ---------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------

fn assert_same(got: &ModelOutcome, want: &ModelOutcome, what: &str) {
    assert_eq!(got.model, want.model, "{what}: model name");
    assert_eq!(got.regions, want.regions, "{what}: regions");
    assert_eq!(got.rounds, want.rounds, "{what}: rounds");
    assert!(got.status == want.status, "{what}: status");
}

/// The merge process against per-component grids and the scalar
/// decomposition.
fn check_merge(faults: &FaultSet) -> Vec<FaultyComponent> {
    let components = merge_components(faults);
    let grids: Vec<FaultyComponent> =
        BitGrid::from_coords(faults.in_insertion_order().iter().copied())
            .components(Connectivity::Eight)
            .iter()
            .map(|grid| FaultyComponent::new(grid.to_region()))
            .collect();
    assert_eq!(components, grids, "merge vs per-component grids");
    assert_eq!(components, oracle_components(faults), "merge vs scalar");
    components
}

/// Every per-component solve of both centralized solutions, on a fresh
/// scratch and on one scratch shared across the components, against the
/// per-window grid emulation, the scalar concave-section solver and the
/// hull specification.
fn check_windows(components: &[FaultyComponent]) {
    let mut shared = ConstructionScratch::new();
    for component in components {
        let (polygon, rounds) = oracle_virtual_block(component);
        assert_eq!(polygon, minimum_polygon(component), "hull of {component:?}");
        let (concave_polygon, concave_rounds) = oracle_concave(component);
        assert_eq!(
            concave_polygon, polygon,
            "concave sections of {component:?}"
        );
        for (solution, rounds) in [
            (CentralizedSolution::VirtualBlock, rounds),
            (CentralizedSolution::ConcaveSections, concave_rounds),
        ] {
            let fresh =
                construct_component_with(component, solution, &mut ConstructionScratch::new());
            let reused = construct_component_with(component, solution, &mut shared);
            for (scratch, sol) in [("fresh", fresh), ("shared", reused)] {
                assert_eq!(
                    sol.polygon, polygon,
                    "{solution:?} {scratch}-scratch polygon of {component:?}"
                );
                assert_eq!(
                    sol.rounds, rounds,
                    "{solution:?} {scratch}-scratch rounds of {component:?}"
                );
            }
        }
    }
}

/// All four 2-D models and the merge against the oracle. Returns the
/// number of components.
fn check(mesh: &Mesh2D, faults: &FaultSet) -> usize {
    let components = check_merge(faults);
    check_windows(&components);

    let fb = oracle_fb(mesh, faults);
    let (got, rects) = FaultyBlockModel.construct_with_blocks(mesh, faults);
    assert_same(&got, &fb, "FB");
    let (safety, _) = label_safety(mesh, faults);
    let blocks = extract_faulty_blocks(&safety);
    let oracle_rects: Vec<Rect> = fb
        .regions
        .iter()
        .map(|r| r.bounding_rect().expect("blocks are never empty"))
        .collect();
    assert_eq!(rects, oracle_rects, "FB rectangles");
    assert_eq!(
        blocks,
        oracle_rects.into_iter().zip(fb.regions).collect::<Vec<_>>(),
        "extract_faulty_blocks"
    );
    for (rect, region) in &blocks {
        assert_eq!(rect.area(), region.len(), "blocks are rectangles");
    }

    let fp = oracle_fp(mesh, faults);
    assert_same(&SubMinimumPolygonModel.construct(mesh, faults), &fp, "FP");
    assert_eq!(
        ModelOutcome::regions_from_status(&fp.status),
        fp.regions,
        "regions_from_status"
    );

    assert_same(
        &CentralizedMfpModel::virtual_block().construct(mesh, faults),
        &oracle_cmfp(mesh, faults, oracle_virtual_block),
        "CMFP",
    );
    assert_same(
        &CentralizedMfpModel::concave_sections().construct(mesh, faults),
        &oracle_cmfp(mesh, faults, oracle_concave),
        "CMFP concave sections",
    );
    assert_same(
        &DistributedMfpModel.construct(mesh, faults),
        &oracle_dmfp(mesh, faults),
        "DMFP",
    );
    components.len()
}

/// The bit-parallel labelling schemes against the scalar local-rule
/// engine: labels and round statistics.
fn check_labels(mesh: &Mesh2D, faults: &FaultSet) {
    let (safety, rounds1) = label_safety(mesh, faults);
    let (oracle_safety, oracle_rounds1) = label_safety_scalar(mesh, faults);
    assert!(safety == oracle_safety, "scheme 1 labels");
    assert_eq!(rounds1, oracle_rounds1, "scheme 1 rounds");
    let (activation, rounds2) = label_activation(mesh, faults, &safety);
    let (oracle_activation, oracle_rounds2) = label_activation_scalar(mesh, faults, &safety);
    assert!(activation == oracle_activation, "scheme 2 labels");
    assert_eq!(rounds2, oracle_rounds2, "scheme 2 rounds");
}

fn distribution(clustered: bool) -> FaultDistribution {
    if clustered {
        FaultDistribution::Clustered
    } else {
        FaultDistribution::Random
    }
}

/// The widths on either side of one and two packed words.
const WIDTHS: [u32; 6] = [63, 64, 65, 127, 128, 129];

/// Places `(x, y, edge)` on the mesh: inside for edge ≥ 4, else clamped
/// to the west, east, north or south border.
fn place(mesh: &Mesh2D, (x, y, edge): (i32, i32, u32)) -> Coord {
    let (w, h) = (mesh.width(), mesh.height());
    let (x, y) = (x.rem_euclid(w), y.rem_euclid(h));
    match edge {
        0 => Coord::new(0, y),
        1 => Coord::new(w - 1, y),
        2 => Coord::new(x, 0),
        3 => Coord::new(x, h - 1),
        _ => Coord::new(x, y),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random and clustered draws on non-square meshes whose width sits on
    /// either side of a word boundary.
    #[test]
    fn constructions_match_the_oracle(
        width in 0usize..6,
        height in 2u32..24,
        permille in 10usize..300,
        clustered in 0u32..2,
        seed in 0u64..100_000,
    ) {
        let mesh = Mesh2D::mesh(WIDTHS[width], height);
        let count = (mesh.node_count() * permille / 1000).max(1);
        let faults = generate_faults(mesh, count, distribution(clustered == 1), seed);
        check(&mesh, &faults);
    }

    /// Faults on every border and in the mesh, so blocks and windows
    /// touch all four sides and windows start at x = -1 or y = -1.
    #[test]
    fn constructions_match_the_oracle_on_the_borders(
        width in 0usize..6,
        height in 2u32..20,
        cells in prop::collection::vec((0..200i32, 0..40i32, 0..6u32), 1..120),
    ) {
        let mesh = Mesh2D::mesh(WIDTHS[width], height);
        let faults = FaultSet::from_coords(mesh, cells.iter().map(|&cell| place(&mesh, cell)));
        check(&mesh, &faults);
    }

    /// Components that span the word boundary: diagonal and staircase
    /// chains long enough that their windows are wider than one word,
    /// placed anywhere from the west border (window x = -1) eastwards.
    #[test]
    fn windows_across_the_word_boundary_match_the_oracle(
        x0 in 0i32..70,
        y0 in 0i32..6,
        steps in prop::collection::vec(0u32..3, 60..90),
        extra in prop::collection::vec((0i32..90, 0i32..40), 0..20),
    ) {
        let mesh = Mesh2D::mesh(160, 48);
        let mut cells = vec![Coord::new(x0, y0)];
        let mut c = Coord::new(x0, y0);
        for step in steps {
            c = match step {
                0 => c.offset(1, 0),
                1 => c.offset(1, 1),
                _ => c.offset(0, 1),
            };
            cells.push(c);
        }
        cells.extend(extra.iter().map(|&(dx, dy)| Coord::new(x0 + dx, y0 + dy)));
        let faults = FaultSet::from_coords(mesh, cells);
        check(&mesh, &faults);
    }

    /// The labelling kernels against the local-rule engine.
    #[test]
    fn labelling_kernels_match_the_local_rule_engine(
        width in 0usize..6,
        height in 1u32..21,
        cells in prop::collection::vec((0..200i32, 0..40i32, 0..6u32), 0..60),
    ) {
        let mesh = Mesh2D::mesh(WIDTHS[width], height);
        let faults = FaultSet::from_coords(mesh, cells.iter().map(|&cell| place(&mesh, cell)));
        check_labels(&mesh, &faults);
    }

    /// `regions_from_status` against the scalar decomposition of the
    /// excluded set, on arbitrary status maps.
    #[test]
    fn regions_from_status_matches_the_scalar_decomposition(
        width in 0usize..6,
        height in 1u32..16,
        cells in prop::collection::vec((0..200i32, 0..40i32, 0..6u32, 0u32..2), 0..150),
    ) {
        let mesh = Mesh2D::mesh(WIDTHS[width], height);
        let mut status = StatusMap::all_enabled(&mesh);
        for &(x, y, edge, faulty) in &cells {
            let kind = if faulty == 1 { NodeStatus::Faulty } else { NodeStatus::Disabled };
            status.set(place(&mesh, (x, y, edge)), kind);
        }
        prop_assert_eq!(
            ModelOutcome::regions_from_status(&status),
            status.excluded_region().components(Connectivity::Four)
        );
    }
}

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
        assert_eq!(s.nodes().len(), 1);
    }
    let (poly, iters) = ConcaveSectionSolver.solve(&u);
    assert_eq!(iters, 1);
    assert_eq!(poly.len(), 9);
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

/// Hand-placed shapes: all four corners, a U, a closed hole, a shape
/// spanning the word boundary and a whole-width row.
#[test]
fn constructions_match_the_oracle_on_named_shapes() {
    let mesh = Mesh2D::mesh(65, 9);
    let shapes: Vec<Vec<(i32, i32)>> = vec![
        vec![(0, 0), (64, 0), (0, 8), (64, 8)],
        vec![(1, 0), (0, 1), (63, 7), (64, 8), (62, 8)],
        vec![(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)],
        vec![
            (10, 2),
            (11, 2),
            (12, 2),
            (10, 3),
            (12, 3),
            (10, 4),
            (11, 4),
            (12, 4),
        ],
        vec![
            (60, 3),
            (61, 4),
            (62, 3),
            (63, 4),
            (64, 3),
            (63, 2),
            (61, 2),
        ],
        (0..65).map(|x| (x, 5)).collect(),
    ];
    for shape in shapes {
        let faults = FaultSet::from_coords(mesh, shape.iter().map(|&(x, y)| Coord::new(x, y)));
        check(&mesh, &faults);
        check_labels(&mesh, &faults);
    }
    check(&mesh, &FaultSet::new(mesh));
}

/// The figures 2-D sweep: 100², 100..800 faults added sequentially,
/// random and clustered, seeds 2004..2023. Slow in a debug build; run it
/// in release with
/// `cargo test --release -p mocp_core --test construct_oracle -- --include-ignored`.
#[test]
#[ignore = "paper-scale sweep; run in release"]
fn constructions_match_the_oracle_at_paper_scale() {
    let mesh = Mesh2D::square(100);
    let mut components = 0;
    for seed in 2004..2024 {
        for clustered in [false, true] {
            let mut injector = FaultInjector::new(mesh, distribution(clustered), seed);
            for count in (1..=8).map(|i| i * 100) {
                injector.inject_up_to(count);
                let faults = injector.faults();
                components += check(&mesh, faults);
                if seed == 2004 {
                    check_labels(&mesh, faults);
                }
            }
        }
    }
    assert!(components > 50_000, "only {components} components checked");
}
