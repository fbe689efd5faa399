//! Registry constructors exposing every model this workspace implements.

use crate::analysis::CentralizedMfpModel;
use crate::distributed::protocol::DistributedMfpModel;
use fblock::ModelRegistry;

/// The registry of the paper's four fault models, in presentation order:
/// FB and FP (from `fblock`) plus CMFP and DMFP (from this crate). This
/// is the single constructor the experiment harness, benchmark, examples
/// and tests resolve models through.
pub fn standard_registry() -> ModelRegistry {
    let mut registry = fblock::baseline_registry();
    registry.register(
        "CMFP",
        "centralized minimum faulty polygon (solution 1: virtual faulty blocks)",
        || Box::new(CentralizedMfpModel::virtual_block()),
    );
    registry.register(
        "DMFP",
        "distributed minimum faulty polygon (boundary rings + concave sections)",
        || Box::new(DistributedMfpModel),
    );
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_the_paper_models_in_order() {
        let registry = standard_registry();
        assert_eq!(
            registry.names().collect::<Vec<_>>(),
            ["FB", "FP", "CMFP", "DMFP"]
        );
    }

    #[test]
    fn registry_models_agree_with_direct_construction() {
        use fblock::FaultModel as _;
        use mesh2d::{Coord, FaultSet, Mesh2D};

        let mesh = Mesh2D::square(10);
        let faults = FaultSet::from_coords(
            mesh,
            [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3)].map(|(x, y)| Coord::new(x, y)),
        );
        let registry = standard_registry();
        let direct = CentralizedMfpModel::virtual_block().construct(&mesh, &faults);
        let via_registry = registry.construct("CMFP", &mesh, &faults).unwrap();
        assert_eq!(direct.status, via_registry.status);
    }
}
