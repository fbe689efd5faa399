//! Steady-state allocation tests for the scratch-buffered kernels.
//!
//! The hull fixpoint, the virtual-block labelling window, the incremental
//! engine's localized re-flood and the distributed protocol replay run on
//! reusable scratch buffers
//! ([`mocp_core::ConstructionScratch`] / `mesh2d::BitScratch` /
//! [`mocp_core::DmfpScratch`]). Once those buffers have grown to the
//! working-set size, further constructions and events must not grow them
//! again — the `grows()` counters expose exactly that, and these tests pin
//! it.

use mocp::faultgen::{generate_faults, FaultDistribution, FaultInjector};
use mocp::mesh2d::Region;
use mocp::mesh2d::{Coord, FaultEvent, FaultSet, Mesh2D};
use mocp::mocp_core::{
    construct_component_with, merge_components, CentralizedSolution, ConstructionScratch,
    DistributedMfpModel, DmfpScratch, FaultyComponent,
};
use mocp::mocp_incremental::IncrementalEngine;

/// Repeated batch constructions must stop growing the threaded scratch
/// once its buffers reach the working-set size (here: primed by one
/// mesh-spanning component, the largest frame any construction can need)
/// — for both formulations: the concave-section hull fixpoint and the
/// virtual-block labelling window.
#[test]
fn batch_construction_scratch_reaches_steady_state() {
    let mesh = Mesh2D::square(48);
    for solution in [
        CentralizedSolution::ConcaveSections,
        CentralizedSolution::VirtualBlock,
    ] {
        let mut scratch = ConstructionScratch::new();
        // Warm-up: a diagonal chain spanning the whole mesh sizes every
        // buffer to the mesh-wide maximum (for the virtual block, its
        // window is the mesh plus the one-node margin).
        let diagonal = FaultyComponent::new(Region::from_coords((0..48).map(|i| Coord::new(i, i))));
        construct_component_with(&diagonal, solution, &mut scratch);
        let steady = scratch.grows();
        for round in 0..6 {
            let faults = generate_faults(mesh, 160, FaultDistribution::Clustered, round);
            for component in &merge_components(&faults) {
                construct_component_with(component, solution, &mut scratch);
            }
            assert_eq!(
                scratch.grows(),
                steady,
                "{solution:?}, round {round}: the construction allocated in steady state"
            );
        }
    }
}

/// An engine cycling through inject/repair bursts of bounded extent must
/// stop growing its construction/flood buffers after the warm-up cycle.
#[test]
fn engine_scratch_reaches_steady_state() {
    let mesh = Mesh2D::square(64);
    let mut engine = IncrementalEngine::new(mesh);
    // Warm-up: a mesh-spanning diagonal component sizes the flood/hull
    // buffers to their mesh-wide maximum, then is fully repaired.
    for i in 0..64 {
        engine.apply(FaultEvent::Inject(Coord::new(i, i)));
    }
    for i in (0..64).rev() {
        engine.apply(FaultEvent::Repair(Coord::new(i, i)));
    }
    let steady = engine.scratch_grows();
    for cycle in 0..5 {
        // A clustered burst, then repaired in reverse order.
        let mut injector = FaultInjector::new(mesh, FaultDistribution::Clustered, cycle);
        let injected: Vec<_> = injector.event_stream(120).collect();
        for &event in &injected {
            engine.apply(event);
        }
        for event in injected.iter().rev() {
            engine.apply(event.inverse());
        }
        assert_eq!(
            engine.scratch_grows(),
            steady,
            "cycle {cycle}: the engine allocated scratch in steady state"
        );
    }
}

/// Repeated DMFP constructions must stop growing the protocol scratch
/// (labelling flood buffers, shape-cache table, ring frame, boundary
/// array, detected sections, notification search grid) once it has been
/// warmed on mesh-spanning shapes.
#[test]
fn dmfp_scratch_reaches_steady_state() {
    let mesh = Mesh2D::square(48);
    let mut scratch = DmfpScratch::new();
    assert_eq!(scratch.grows(), 0, "a fresh scratch holds no buffers");
    // Warm-up: a lone fault is stored in the shape cache, which allocates
    // its table (and its labelling sizes the flood buffers to the mesh);
    // a diagonal chain frames the whole mesh; a comb spanning it
    // (a base row with a tooth on every other column) has the longest
    // ring and the most concave sections a 48² component can have; a C
    // with a block in its mouth sends a notification round a blocking
    // polygon, which sizes the search grid to the mesh.
    let diagonal = (0..48).map(|i| Coord::new(i, i));
    let comb = (0..48).map(|x| Coord::new(x, 0)).chain(
        (0..48)
            .step_by(2)
            .flat_map(|x| (1..48).map(move |y| Coord::new(x, y))),
    );
    let blocked_c = [
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
        (4, 4),
        (4, 5),
        (5, 4),
        (5, 5),
    ]
    .map(|(x, y)| Coord::new(x, y));
    for warm in [
        FaultSet::from_coords(mesh, [Coord::new(7, 7)]),
        FaultSet::from_coords(mesh, diagonal),
        FaultSet::from_coords(mesh, comb),
        FaultSet::from_coords(mesh, blocked_c),
    ] {
        DistributedMfpModel.construct_with(&mesh, &warm, &mut scratch);
    }
    let steady = scratch.grows();
    for round in 0..6 {
        for distribution in [FaultDistribution::Random, FaultDistribution::Clustered] {
            let faults = generate_faults(mesh, 150 + 50 * round as usize, distribution, round);
            // The second pass answers every small shape from the cache.
            for pass in 0..2 {
                DistributedMfpModel.construct_with(&mesh, &faults, &mut scratch);
                assert_eq!(
                    scratch.grows(),
                    steady,
                    "round {round}, {distribution:?}, pass {pass}: the DMFP replay grew its scratch"
                );
            }
        }
    }
}
