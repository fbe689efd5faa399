//! The paper's guarantees on every fault set of a small mesh.
//!
//! The proptests sample fault sets; here every one of them is checked:
//! each of the 2^12 sets of a 3×4 mesh in every run, and each of the
//! 2^16 sets of a 4×4 mesh in release. For each set:
//!
//! * CMFP (virtual blocks), CMFP-concave and DMFP give equal status and
//!   regions;
//! * the batch constructions, which answer repeated small component
//!   shapes from a shape cache, equal the uncached per-component solves
//!   (`construct_component_with` on a fresh scratch,
//!   `DistributedMfpModel::run_component`),
//!   rounds and events included — also when one `DmfpScratch`, and so one
//!   cache, serves every set of the sweep. CMFP runs both on the ambient
//!   pool and on a one-thread pool: with more threads the components of
//!   a small mesh spread over the workers, each with its own cache, and
//!   only the sequential path meets a shape twice;
//! * FB ⊇ FP ⊇ MFP: every node FP excludes, FB excludes too, and every
//!   node MFP excludes, FP excludes too;
//! * the paper's Theorem, by brute force: no orthogonally convex subset of
//!   a component's virtual block that covers its faults is smaller than
//!   the component's CMFP polygon.

use fblock::{FaultModel, FaultyBlockModel, RoundStats, SubMinimumPolygonModel};
use mesh2d::{Coord, FaultSet, Mesh2D, Region};
use mocp_core::{
    construct_component_with, merge_components, minimum_polygon, CentralizedMfpModel,
    CentralizedSolution, ConstructionScratch, DistributedMfpModel, DmfpScratch, FaultyComponent,
};
use rayon::{ThreadPool, ThreadPoolBuilder};

/// Brute-force oracle for tiny components (at most `MAX_BRUTE_NODES`
/// non-fault nodes in the virtual block): enumerates every subset of the
/// virtual block that contains the faults and is orthogonally convex, and
/// returns the size of the smallest one. Exponential — test-only scale.
fn brute_force_minimum_cover_size(component: &FaultyComponent) -> Option<usize> {
    const MAX_BRUTE_NODES: usize = 20;
    let block: Vec<Coord> = component
        .virtual_block()
        .nodes()
        .filter(|c| !component.contains(*c))
        .collect();
    if block.len() > MAX_BRUTE_NODES {
        return None;
    }
    let faults = component.region().clone();
    let mut best = usize::MAX;
    for mask in 0u32..(1u32 << block.len()) {
        let mut candidate = faults.clone();
        for (i, c) in block.iter().enumerate() {
            if mask & (1 << i) != 0 {
                candidate.insert(*c);
            }
        }
        if candidate.is_orthogonally_convex() {
            best = best.min(candidate.len());
        }
    }
    Some(best)
}

/// Every fault set of `mesh`, as the bit masks of its nodes in row-major
/// order.
fn every_fault_set(mesh: Mesh2D) -> impl Iterator<Item = FaultSet> {
    let (width, height) = (mesh.width(), mesh.height());
    let nodes = (width * height) as u32;
    (0u64..1 << nodes).map(move |mask| {
        FaultSet::from_coords(
            mesh,
            (0..nodes as i32)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| Coord::new(i % width, i / width)),
        )
    })
}

/// All checks on one fault set; `shared` is a DMFP scratch kept across
/// the whole sweep, `sequential` a one-thread pool.
fn check(mesh: &Mesh2D, faults: &FaultSet, shared: &mut DmfpScratch, sequential: &ThreadPool) {
    let cmfp = CentralizedMfpModel::virtual_block().construct(mesh, faults);
    let cmfp_sequential =
        sequential.install(|| CentralizedMfpModel::virtual_block().construct(mesh, faults));
    let concave = CentralizedMfpModel::concave_sections().construct(mesh, faults);
    let (dmfp, traces) = DistributedMfpModel.construct_detailed(mesh, faults);
    let reused = DistributedMfpModel.construct_with(mesh, faults, shared);
    let at = || format!("faults {:?}", faults.in_insertion_order());

    for other in [&cmfp_sequential, &concave, &dmfp, &reused] {
        assert!(
            cmfp.status == other.status,
            "{} status, {}",
            other.model,
            at()
        );
        assert_eq!(
            cmfp.regions,
            other.regions,
            "{} regions, {}",
            other.model,
            at()
        );
    }
    assert_eq!(
        reused.rounds,
        dmfp.rounds,
        "shared-scratch DMFP rounds, {}",
        at()
    );

    // The uncached per-component solves.
    let components = merge_components(faults);
    let mut polygons = Vec::new();
    let mut rounds = RoundStats::quiescent();
    for component in &components {
        let sol = construct_component_with(
            component,
            CentralizedSolution::VirtualBlock,
            &mut ConstructionScratch::new(),
        );
        rounds = rounds.in_parallel_with(sol.rounds);
        polygons.push(sol.polygon);
    }
    assert_eq!(cmfp.regions, polygons, "CMFP regions vs solve, {}", at());
    for (component, polygon) in components.iter().zip(&cmfp.regions) {
        let best = brute_force_minimum_cover_size(component)
            .unwrap_or_else(|| panic!("{component:?} is too large to brute-force, {}", at()));
        assert_eq!(polygon.len(), best, "Theorem for {component:?}, {}", at());
    }
    assert_eq!(cmfp.rounds, rounds, "CMFP rounds vs solve, {}", at());
    assert_eq!(
        cmfp_sequential.rounds,
        rounds,
        "sequential CMFP rounds vs solve, {}",
        at()
    );

    assert_eq!(traces.len(), components.len(), "trace count, {}", at());
    let mut rounds = RoundStats::quiescent();
    for (i, (got, component)) in traces.iter().zip(&components).enumerate() {
        let want = DistributedMfpModel.run_component(mesh, faults, component);
        assert_eq!(
            got.component,
            want.component,
            "trace {i} component, {}",
            at()
        );
        assert_eq!(got.polygon, want.polygon, "trace {i} polygon, {}", at());
        assert_eq!(got.rounds, want.rounds, "trace {i} rounds, {}", at());
        assert_eq!(
            got.notifications,
            want.notifications,
            "trace {i} notifications, {}",
            at()
        );
        assert_eq!(
            got.iterations,
            want.iterations,
            "trace {i} iterations, {}",
            at()
        );
        assert_eq!(got.faithful, want.faithful, "trace {i} faithful, {}", at());
        rounds = rounds.in_parallel_with(want.rounds);
    }
    assert_eq!(
        dmfp.rounds,
        rounds,
        "DMFP rounds vs run_component, {}",
        at()
    );

    let fb = FaultyBlockModel
        .construct(mesh, faults)
        .status
        .excluded_region();
    let fp = SubMinimumPolygonModel
        .construct(mesh, faults)
        .status
        .excluded_region();
    let mfp: Region = cmfp.status.excluded_region();
    assert!(fp.is_subset(&fb), "FP ⊄ FB, {}", at());
    assert!(mfp.is_subset(&fp), "MFP ⊄ FP, {}", at());
}

/// Checks every fault set of a `width × height` mesh; returns how many.
fn sweep(width: u32, height: u32) -> usize {
    let mesh = Mesh2D::mesh(width, height);
    let mut shared = DmfpScratch::new();
    let sequential = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool");
    assert_eq!(sequential.install(rayon::current_num_threads), 1);
    let mut sets = 0;
    for faults in every_fault_set(mesh) {
        check(&mesh, &faults, &mut shared, &sequential);
        sets += 1;
    }
    sets
}

#[test]
fn every_fault_set_of_a_3x4_mesh() {
    assert_eq!(sweep(3, 4), 1 << 12);
}

/// The full 4×4 enumeration. Slow in a debug build; run it in release with
/// `cargo test --release -p mocp_core --test exhaustive_small -- --include-ignored`.
#[test]
#[ignore = "65,536 fault sets; run in release"]
fn every_fault_set_of_a_4x4_mesh() {
    assert_eq!(sweep(4, 4), 1 << 16);
}

fn component(list: &[(i32, i32)]) -> FaultyComponent {
    FaultyComponent::new(Region::from_coords(
        list.iter().map(|&(x, y)| Coord::new(x, y)),
    ))
}

#[test]
fn brute_force_agrees_with_hull_on_small_shapes() {
    let shapes: Vec<Vec<(i32, i32)>> = vec![
        vec![(0, 0)],
        vec![(0, 0), (1, 1)],
        vec![(0, 0), (1, 1), (2, 0)],
        vec![(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)],
        vec![(0, 0), (1, 1), (0, 2)],
        vec![(0, 2), (1, 1), (2, 0), (3, 1)],
    ];
    for shape in shapes {
        let c = component(&shape);
        let hull = minimum_polygon(&c);
        let best = brute_force_minimum_cover_size(&c).expect("small enough for brute force");
        assert_eq!(hull.len(), best, "shape {shape:?}");
    }
}

#[test]
fn brute_force_declines_large_blocks() {
    let long: Vec<(i32, i32)> = (0..8).map(|i| (i, i)).collect();
    let c = component(&long);
    assert!(brute_force_minimum_cover_size(&c).is_none());
}
