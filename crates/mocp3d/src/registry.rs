//! The name-keyed registry of 3-D fault models.
//!
//! [`ModelRegistry3`] is `mocp_topology::ModelRegistry<Mesh3D>` — the
//! *same* generic registry type the 2-D sweeps resolve
//! "FB"/"FP"/"CMFP"/"DMFP" through (`fblock::ModelRegistry` is its
//! `Mesh2D` instantiation), so the one generic scenario runner drives
//! "FB3D"/"MFP3D" with no 3-D-specific harness code.

use crate::mesh::Mesh3D;
use crate::model::{FaultyCuboidModel, MinimumPolyhedronModel};

/// A boxed, thread-shareable 3-D fault model, as produced by the registry.
pub type BoxedModel3 = mocp_topology::BoxedModel<Mesh3D>;

/// Registry mapping 3-D model names to constructors.
pub type ModelRegistry3 = mocp_topology::ModelRegistry<Mesh3D>;

/// The registry of the 3-D models this crate implements, in presentation
/// order: the FB-3D cuboid baseline and the MFP-3D minimum polyhedron.
pub fn standard_registry_3d() -> ModelRegistry3 {
    let mut registry = ModelRegistry3::empty();
    registry.register(
        "FB3D",
        "rectangular faulty cuboid baseline (bounding boxes of fault components)",
        || Box::new(FaultyCuboidModel),
    );
    registry.register(
        "MFP3D",
        "minimum orthogonal convex polyhedron (dense dirty-line hull construction)",
        || Box::new(MinimumPolyhedronModel),
    );
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSet3;
    use crate::Coord3;
    use mocp_topology::UnknownModel;

    #[test]
    fn standard_registry_has_both_models_in_order() {
        let registry = standard_registry_3d();
        assert_eq!(registry.names().collect::<Vec<_>>(), ["FB3D", "MFP3D"]);
        assert_eq!(registry.len(), 2);
        assert!(registry.contains("mfp3d"), "lookup is case-insensitive");
    }

    #[test]
    fn construct_runs_the_resolved_model() {
        let registry = standard_registry_3d();
        let mesh = Mesh3D::cube(6);
        let faults = FaultSet3::from_coords(mesh, [Coord3::new(1, 1, 1), Coord3::new(2, 2, 2)]);
        let outcome = registry.construct("FB3D", &mesh, &faults).unwrap();
        assert_eq!(outcome.model, "FB3D");
        assert!(outcome.covers_all_faults());
        let err: UnknownModel = registry.construct("CMFP", &mesh, &faults).unwrap_err();
        assert_eq!(err.requested, "CMFP");
        assert_eq!(err.known, vec!["FB3D", "MFP3D"]);
    }
}
