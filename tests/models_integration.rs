//! Cross-crate integration tests: fault scenarios flow through fault
//! injection, all four fault models, and the routing layer, and the paper's
//! qualitative claims hold on every scenario.

use faultgen::scenario::{all_scenarios, blocking_polygons, figure2_l_shape, figure3_two_groups};
use faultgen::{generate_faults, FaultDistribution};
use fblock::{FaultModel, FaultyBlockModel, ModelOutcome, SubMinimumPolygonModel};
use mesh2d::{Coord, Mesh2D, Region};
use meshroute::{ExtendedECube, RoutingExperiment};
use mocp_core::{
    merge_components, minimum_polygon, standard_registry, CentralizedMfpModel, DistributedMfpModel,
};

#[test]
fn every_scenario_satisfies_the_model_invariants() {
    for scenario in all_scenarios() {
        let faults = scenario.fault_set();
        let registry = standard_registry();
        let outcomes: Vec<ModelOutcome> = registry
            .names()
            .map(|name| registry.construct(name, &scenario.mesh, &faults).unwrap())
            .collect();
        let [fb, fp, cmfp, dmfp] = &outcomes[..] else {
            panic!("the standard registry holds the paper's four models");
        };
        assert_eq!(
            [&fb.model, &fp.model, &cmfp.model, &dmfp.model],
            ["FB", "FP", "CMFP", "DMFP"]
        );
        for outcome in &outcomes {
            assert!(
                outcome.covers_all_faults(),
                "{}: {}",
                scenario.name,
                outcome.model
            );
            assert!(
                outcome.all_regions_convex(),
                "{}: {}",
                scenario.name,
                outcome.model
            );
            assert_eq!(
                outcome.faulty_count(),
                faults.len(),
                "{}: {}",
                scenario.name,
                outcome.model
            );
        }
        // the headline ordering of the paper
        assert!(
            cmfp.disabled_nonfaulty() <= fp.disabled_nonfaulty(),
            "{}",
            scenario.name
        );
        assert!(
            fp.disabled_nonfaulty() <= fb.disabled_nonfaulty(),
            "{}",
            scenario.name
        );
        // centralized and distributed constructions agree exactly
        assert_eq!(cmfp.status, dmfp.status, "{}", scenario.name);
    }
}

#[test]
fn figure3_minimum_polygons_beat_the_single_faulty_block() {
    // Two nearby fault groups end up in one faulty block; the minimum faulty
    // polygons keep them separate and recover most of the healthy nodes.
    let scenario = figure3_two_groups();
    let faults = scenario.fault_set();
    let fb = FaultyBlockModel.construct(&scenario.mesh, &faults);
    let fp = SubMinimumPolygonModel.construct(&scenario.mesh, &faults);
    let mfp = CentralizedMfpModel::virtual_block().construct(&scenario.mesh, &faults);
    assert!(fb.disabled_nonfaulty() > 0);
    assert!(mfp.disabled_nonfaulty() < fb.disabled_nonfaulty());
    assert!(mfp.disabled_nonfaulty() <= fp.disabled_nonfaulty());
    // every per-component polygon is exactly the component's hull
    for (component, polygon) in merge_components(&faults).iter().zip(&mfp.regions) {
        assert_eq!(*polygon, minimum_polygon(component));
    }
}

#[test]
fn blocking_polygon_scenario_keeps_both_components_covered() {
    let scenario = blocking_polygons();
    let faults = scenario.fault_set();
    let (dmfp, traces) = DistributedMfpModel.construct_detailed(&scenario.mesh, &faults);
    assert_eq!(traces.len(), 2);
    assert!(dmfp.covers_all_faults());
    let cmfp = CentralizedMfpModel::virtual_block().construct(&scenario.mesh, &faults);
    assert_eq!(dmfp.status, cmfp.status);
}

#[test]
fn routing_works_over_minimum_polygons_in_the_figure2_scenario() {
    let scenario = figure2_l_shape();
    let faults = scenario.fault_set();
    let mfp = CentralizedMfpModel::virtual_block().construct(&scenario.mesh, &faults);
    // the L-shape is already convex: no healthy node is disabled
    assert_eq!(mfp.disabled_nonfaulty(), 0);
    let router = ExtendedECube::new(&scenario.mesh, &mfp.status);
    let path = router
        .route(Coord::new(1, 3), Coord::new(6, 4))
        .expect("routable");
    assert_eq!(*path.hops.last().unwrap(), Coord::new(6, 4));
    assert!(path
        .hops
        .iter()
        .all(|c| !mfp.status.status(*c).is_excluded()));
}

#[test]
fn random_workloads_keep_centralized_and_distributed_in_agreement() {
    // A denser randomized agreement check than the unit tests: multiple
    // seeds, both fault distributions, moderate mesh.
    let mesh = Mesh2D::square(24);
    for dist in FaultDistribution::ALL {
        for seed in 0..6 {
            let faults = generate_faults(mesh, 60, dist, seed);
            let cmfp = CentralizedMfpModel::virtual_block().construct(&mesh, &faults);
            let concave = CentralizedMfpModel::concave_sections().construct(&mesh, &faults);
            let dmfp = DistributedMfpModel.construct(&mesh, &faults);
            assert_eq!(cmfp.status, concave.status, "{dist:?} seed {seed}");
            assert_eq!(cmfp.status, dmfp.status, "{dist:?} seed {seed}");
            // every polygon is its component's orthogonal convex hull
            for (component, polygon) in merge_components(&faults).iter().zip(&cmfp.regions) {
                assert_eq!(*polygon, minimum_polygon(component), "{dist:?} seed {seed}");
                assert!(mocp_core::is_minimum_covering_polygon(component, polygon));
            }
        }
    }
}

#[test]
fn routing_experiment_prefers_mfp_over_fb_on_clustered_faults() {
    let mesh = Mesh2D::square(30);
    let faults = generate_faults(mesh, 90, FaultDistribution::Clustered, 3);
    let fb = FaultyBlockModel.construct(&mesh, &faults);
    let mfp = CentralizedMfpModel::virtual_block().construct(&mesh, &faults);
    let fb_stats = RoutingExperiment::new(&mesh, &fb.status, 17).run();
    let mfp_stats = RoutingExperiment::new(&mesh, &mfp.status, 17).run();
    assert!(mfp_stats.delivery_rate() >= fb_stats.delivery_rate());
    assert!(mfp_stats.endpoint_excluded <= fb_stats.endpoint_excluded);
}

#[test]
fn disabled_node_region_is_exactly_the_union_of_component_hulls() {
    let mesh = Mesh2D::square(40);
    let faults = generate_faults(mesh, 120, FaultDistribution::Clustered, 11);
    let mfp = CentralizedMfpModel::virtual_block().construct(&mesh, &faults);
    let mut expected = Region::new();
    for component in merge_components(&faults) {
        expected = expected.union(&minimum_polygon(&component));
    }
    assert_eq!(mfp.status.excluded_region(), expected);
}
