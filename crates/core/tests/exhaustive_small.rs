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
//!   (`VirtualBlockSolver::solve`, `DistributedMfpModel::run_component`),
//!   rounds and events included — also when one `DmfpScratch`, and so one
//!   cache, serves every set of the sweep. CMFP runs both on the ambient
//!   pool and on a one-thread pool: with more threads the components of
//!   a small mesh spread over the workers, each with its own cache, and
//!   only the sequential path meets a shape twice;
//! * FB ⊇ FP ⊇ MFP: every node FP excludes, FB excludes too, and every
//!   node MFP excludes, FP excludes too.

use distsim::RoundStats;
use fblock::{FaultModel, FaultyBlockModel, SubMinimumPolygonModel};
use mesh2d::{Coord, FaultSet, Mesh2D, Region};
use mocp_core::centralized::VirtualBlockSolver;
use mocp_core::{merge_components, CentralizedMfpModel, DistributedMfpModel, DmfpScratch};
use rayon::{ThreadPool, ThreadPoolBuilder};

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
        let sol = VirtualBlockSolver.solve(mesh, component);
        rounds = rounds.in_parallel_with(sol.rounds);
        polygons.push(sol.polygon);
    }
    assert_eq!(cmfp.regions, polygons, "CMFP regions vs solve, {}", at());
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
