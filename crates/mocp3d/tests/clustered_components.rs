//! The 3-D injector's clustered model: the neighborhood it boosts is the
//! 26-dilation of the victim, and clustering packs the same number of
//! faults into fewer 26-connected components than uniform placement,
//! mirroring the 2-D checks in `faultgen`.

use faultgen::{cluster_indices, FaultDistribution};
use mocp_3d::{generate_faults_3d, BitGrid3, Coord3, Mesh3D, MeshTopology};
use proptest::prelude::*;

/// `cluster_indices(c)` is the dilation of `{c}` minus `c`, clipped to
/// the mesh, at every node — faces, edges and corners included. The
/// injector boosts exactly this list, so with `faultgen`'s weight-table
/// tests the clustered weight-2 set is the dilation of the faults minus
/// the faults.
#[test]
fn cluster_neighbors_are_the_clipped_dilation() {
    for mesh in [
        Mesh3D::cube(1),
        Mesh3D::new(1, 1, 4),
        Mesh3D::new(3, 2, 1),
        Mesh3D::new(65, 2, 3),
    ] {
        for i in 0..mesh.node_count() {
            let c = MeshTopology::coord(&mesh, i);
            let mut neighbors: Vec<Coord3> = cluster_indices(&mesh, c, &mut [0; 26])
                .iter()
                .map(|&n| MeshTopology::coord(&mesh, n))
                .collect();
            neighbors.sort_unstable();
            let mut dilation: Vec<Coord3> = BitGrid3::from_coords([c])
                .dilate()
                .iter()
                .filter(|&n| n != c && MeshTopology::contains(&mesh, n))
                .collect();
            dilation.sort_unstable();
            assert_eq!(neighbors, dilation, "{c:?} on {mesh:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// At equal fault counts, clustered injection yields fewer 26-connected
    /// components than random injection. Averaged over a band of seeds per
    /// case to keep the statistical assertion stable.
    #[test]
    fn clustered_injection_yields_fewer_components_than_random(base in 0u64..1000) {
        let mesh = Mesh3D::cube(16);
        let count = 160;
        let mut random_components = 0usize;
        let mut clustered_components = 0usize;
        for offset in 0..6 {
            let seed = base * 1000 + offset;
            let rf = generate_faults_3d(mesh, count, FaultDistribution::Random, seed);
            let cf = generate_faults_3d(mesh, count, FaultDistribution::Clustered, seed);
            prop_assert_eq!(rf.len(), count);
            prop_assert_eq!(cf.len(), count);
            random_components += rf.region().components26().len();
            clustered_components += cf.region().components26().len();
        }
        prop_assert!(
            clustered_components < random_components,
            "clustered {} should be < random {}",
            clustered_components,
            random_components
        );
    }
}
