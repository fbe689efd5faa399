//! The 3-D constructions on every fault set of a small mesh.
//!
//! The proptests sample fault sets; here every one of them is checked:
//! each of the 2^12 sets of a 2×2×3 mesh in every run, and each of the
//! 2^18 sets of a 2×3×3 mesh in release. For each set:
//!
//! * FB-3D and MFP-3D each equal the full-relabel oracle of
//!   `relabel/mod.rs` in status, regions (in order) and rounds, and every
//!   region is orthogonally convex;
//! * FB-3D ⊇ MFP-3D: every node MFP-3D excludes, FB-3D excludes too;
//! * the components the fault set keeps equal the batch labelling, also
//!   when the set is reached through a removal, which relabels it.

mod labels;
mod relabel;

use labels::assert_labels_match;
use mesh2d::NodeStatus;
use mocp_3d::{FaultModel, FaultSet3, FaultyCuboidModel, Mesh3D, MinimumPolyhedronModel};

/// Checks every fault set of `mesh`, one per bit mask over its nodes.
fn check_every_fault_set(mesh: Mesh3D) {
    let nodes = mesh.node_count();
    for mask in 0u32..1 << nodes {
        let cells: Vec<_> = (0..nodes)
            .filter(|&i| mask >> i & 1 == 1)
            .map(|i| mesh.coord(i))
            .collect();
        let faults = FaultSet3::from_coords(mesh, cells.iter().copied());
        assert_labels_match(&faults);
        relabel::check(&mesh, &faults);
        let fb = FaultyCuboidModel.construct(&mesh, &faults);
        let mfp = MinimumPolyhedronModel.construct(&mesh, &faults);
        for (c, &status) in mfp.status.iter() {
            assert!(
                status == NodeStatus::Enabled || fb.status[c] != NodeStatus::Enabled,
                "mask {mask:#x}: MFP3D excludes {c:?}, FB3D does not"
            );
        }

        // The same set reached through a removal: a healthy node inserted
        // halfway and removed again, or, when every node is faulty, the
        // last fault removed and inserted again.
        let mut reached = FaultSet3::new(mesh);
        let (first, second) = cells.split_at(cells.len() / 2);
        let insert_all = |set: &mut FaultSet3, cells: &[_]| {
            for &c in cells {
                assert!(set.insert(c));
            }
        };
        insert_all(&mut reached, first);
        match (0..nodes).find(|&i| mask >> i & 1 == 0) {
            Some(healthy) => {
                let extra = mesh.coord(healthy);
                assert!(reached.insert(extra));
                insert_all(&mut reached, second);
                assert!(reached.remove(extra));
            }
            None => {
                insert_all(&mut reached, second);
                let last = *cells.last().expect("a full mesh has faults");
                assert!(reached.remove(last));
                assert!(reached.insert(last));
            }
        }
        assert_eq!(reached, faults, "mask {mask:#x}");
        assert_labels_match(&reached);
    }
}

#[test]
fn every_fault_set_of_a_2x2x3_mesh() {
    check_every_fault_set(Mesh3D::new(2, 2, 3));
}

/// 262,144 fault sets: run it with `cargo test --release -p mocp_3d
/// --test exhaustive_small -- --include-ignored`.
#[test]
#[ignore]
fn every_fault_set_of_a_2x3x3_mesh() {
    check_every_fault_set(Mesh3D::new(2, 3, 3));
}
