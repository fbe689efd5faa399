//! Integration of the 3-D subsystem through the facade: registry-resolved
//! FB-3D / MFP-3D constructions, their safety properties, and the ordering
//! the `--dim 3` sweep reports.

use mocp::faultgen::FaultDistribution;
use mocp::mocp_3d::{generate_faults_3d, standard_registry_3d, Mesh3D};

#[test]
fn registry_resolved_models_satisfy_safety_and_ordering() {
    let mesh = Mesh3D::cube(14);
    let registry = standard_registry_3d();
    for dist in FaultDistribution::ALL {
        for seed in 0..3 {
            let faults = generate_faults_3d(mesh, 70, dist, seed);
            let fb = registry.construct("FB3D", &mesh, &faults).unwrap();
            let mfp = registry.construct("MFP3D", &mesh, &faults).unwrap();
            for outcome in [&fb, &mfp] {
                assert!(outcome.covers_all_faults(), "{dist:?} seed {seed}");
                assert!(outcome.all_regions_convex(), "{dist:?} seed {seed}");
                assert!(outcome.regions_disjoint(), "{dist:?} seed {seed}");
                assert_eq!(outcome.faulty_count(), 70, "{dist:?} seed {seed}");
            }
            assert!(
                mfp.disabled_nonfaulty() <= fb.disabled_nonfaulty(),
                "{dist:?} seed {seed}: MFP3D must never disable more than FB3D"
            );
        }
    }
}

#[test]
fn three_d_sweep_runs_through_the_generic_runner() {
    use mocp::experiments::{run_scenario, Metric, Scenario};
    let registry = standard_registry_3d();
    let result =
        run_scenario(&registry, &Scenario::quick_3d(FaultDistribution::Clustered)).unwrap();
    let fig9 = result.series(Metric::DisabledNonfaulty);
    let fb = fig9.curve("FB3D").unwrap();
    let mfp = fig9.curve("MFP3D").unwrap();
    assert_eq!(fb.len(), mfp.len());
    for (f, m) in fb.iter().zip(&mfp) {
        assert!(m <= f, "MFP3D {m} > FB3D {f}");
    }
}
