//! Integration tests for the model registry: every model of the paper
//! resolves by name, unknown names produce a useful error, and each
//! registered model upholds the shared safety invariants on a U-shaped
//! fault fixture (the pattern from the `mocp_core` crate docs, whose
//! minimum polygon must add exactly the two notch nodes).

use mesh2d::{Coord, FaultSet, Mesh2D};
use mocp_core::{standard_registry, CentralizedMfpModel};

/// The U-shaped fault pattern on an 8×8 mesh: an open-topped rectangle
/// of faults around (3, 3) whose orthogonal convex hull adds the two
/// interior notch nodes (3, 3) and (3, 4).
fn u_shaped_fixture() -> (Mesh2D, FaultSet) {
    let mesh = Mesh2D::square(8);
    let faults = FaultSet::from_coords(
        mesh,
        [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)].map(|(x, y)| Coord::new(x, y)),
    );
    (mesh, faults)
}

#[test]
fn all_four_models_resolve_by_name() {
    let registry = standard_registry();
    assert_eq!(
        registry.names().collect::<Vec<_>>(),
        ["FB", "FP", "CMFP", "DMFP"],
        "the paper's models, in presentation order"
    );
    for name in ["FB", "FP", "CMFP", "DMFP"] {
        let model = registry.build(name).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(model.name(), name);
    }
}

#[test]
fn unknown_names_error_with_the_known_set() {
    let registry = standard_registry();
    let (mesh, faults) = u_shaped_fixture();
    let err = registry
        .construct("UMFP", &mesh, &faults)
        .expect_err("UMFP is not a registered model");
    assert_eq!(err.requested, "UMFP");
    assert_eq!(err.known, vec!["FB", "FP", "CMFP", "DMFP"]);
    let message = err.to_string();
    assert!(
        message.contains("UMFP") && message.contains("FB, FP, CMFP, DMFP"),
        "error should name the request and the alternatives: {message}"
    );
}

#[test]
fn every_registered_model_upholds_the_shared_invariants() {
    // Every registered model, plus centralized solution 2 (concave
    // sections), which the registry does not list: each must satisfy the
    // fundamental safety properties.
    let registry = standard_registry();
    let (mesh, faults) = u_shaped_fixture();
    let concave: fblock::BoxedModel = Box::new(CentralizedMfpModel::concave_sections());
    let models = registry
        .names()
        .map(|name| registry.build(name).unwrap_or_else(|e| panic!("{e}")))
        .chain([concave]);
    for model in models {
        let name = model.name();
        let outcome = model.construct(&mesh, &faults);
        assert!(outcome.covers_all_faults(), "{name}: uncovered fault");
        assert!(outcome.regions_disjoint(), "{name}: overlapping regions");
        assert_eq!(outcome.faulty_count(), faults.len(), "{name}");
    }
}

#[test]
fn minimum_polygon_models_add_exactly_the_notch_nodes() {
    let registry = standard_registry();
    let (mesh, faults) = u_shaped_fixture();
    for name in ["CMFP", "DMFP"] {
        let outcome = registry.construct(name, &mesh, &faults).unwrap();
        assert_eq!(
            outcome.disabled_nonfaulty(),
            2,
            "{name} should disable only the two notch nodes of the U"
        );
        assert!(outcome.all_regions_convex(), "{name}");
    }
    // For a U the bounding rectangle coincides with the orthogonal hull,
    // so FB disables the same two nodes — the models only diverge on
    // patterns whose hull is smaller than the box (see figure3 tests).
    let fb = registry.construct("FB", &mesh, &faults).unwrap();
    assert_eq!(fb.disabled_nonfaulty(), 2);
}

#[test]
fn registry_outcomes_match_the_direct_constructors() {
    use fblock::FaultModel as _;

    let registry = standard_registry();
    let (mesh, faults) = u_shaped_fixture();
    let direct = CentralizedMfpModel::virtual_block().construct(&mesh, &faults);
    let via_registry = registry.construct("CMFP", &mesh, &faults).unwrap();
    assert_eq!(direct.status, via_registry.status);
    assert_eq!(direct.regions, via_registry.regions);
}
