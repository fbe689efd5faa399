//! The 26-connected components a `FaultSet3` keeps as faults arrive,
//! against the batch labelling of its fault list (`labels/mod.rs`), after
//! random sequences of insertions and removals, and of the injector's
//! draws, undos and restores.

mod labels;

use faultgen::FaultDistribution;
use labels::assert_labels_match;
use mocp_3d::{Coord3, FaultInjector3, FaultSet3, Mesh3D};
use proptest::prelude::*;

/// The node that raw coordinates name in `mesh`: wrapped into it and,
/// for a `face` below 6, with one coordinate pushed onto that face of the
/// mesh border.
fn node(mesh: Mesh3D, (x, y, z): (i32, i32, i32), face: u32) -> Coord3 {
    let dims = [mesh.width(), mesh.height(), mesh.depth()];
    let mut c = [x % dims[0], y % dims[1], z % dims[2]];
    if face < 6 {
        let axis = (face / 2) as usize;
        c[axis] = [0, dims[axis] - 1][face as usize % 2];
    }
    Coord3::new(c[0], c[1], c[2])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Insertions, removals from anywhere in the order and the faults on
    /// the border, on cubic and non-cubic meshes, some wider than one
    /// occupancy word (62 nodes).
    #[test]
    fn kept_components_match_the_batch_labelling(
        dims in (1u32..80, 1u32..7, 1u32..7),
        // Per step: insert (kinds 0..4) or remove (kind 4) the fault at
        // position `x` of the order; raw coordinates; a face (6: none).
        steps in prop::collection::vec((0..5u32, (0..200i32, 0..200i32, 0..200i32), 0..9u32), 1..160),
    ) {
        let mesh = Mesh3D::new(dims.0, dims.1, dims.2);
        let mut faults = FaultSet3::new(mesh);
        let mut order: Vec<Coord3> = Vec::new();
        for (kind, raw, face) in steps {
            if kind < 4 {
                let c = node(mesh, raw, face);
                let fresh = !order.contains(&c);
                prop_assert_eq!(faults.insert(c), fresh);
                if fresh {
                    order.push(c);
                }
            } else if !order.is_empty() {
                let c = order.remove(raw.0 as usize % order.len());
                prop_assert!(faults.remove(c));
                prop_assert!(!faults.remove(c));
            }
            prop_assert_eq!(faults.in_insertion_order(), &order[..]);
            assert_labels_match(&faults);
        }
        // Equality compares the faults in order, not how the labelling got
        // there: the same order built afresh, without removals, is equal.
        prop_assert_eq!(&faults, &FaultSet3::from_coords(mesh, order.iter().copied()));
    }

    /// The injector's draws, `undo_last` and `restore` keep the labelling
    /// of its fault set exact, under both distributions.
    #[test]
    fn injector_history_keeps_components_exact(
        dims in (1u32..70, 1u32..6, 1u32..6),
        clustered in 0..2u32,
        seed in 0u64..1000,
        steps in prop::collection::vec(0..5u32, 1..60),
    ) {
        let mesh = Mesh3D::new(dims.0, dims.1, dims.2);
        let distribution = if clustered == 1 {
            FaultDistribution::Clustered
        } else {
            FaultDistribution::Random
        };
        let mut injector = FaultInjector3::new(mesh, distribution, seed);
        let mut snapshot = injector.snapshot();
        for step in steps {
            match step {
                0 | 1 => {
                    let count = injector.len() + 3;
                    injector.inject_up_to(count);
                }
                2 => {
                    injector.undo_last();
                }
                3 => snapshot = injector.snapshot(),
                _ => {
                    if injector.restore(&snapshot).is_none() {
                        snapshot = injector.snapshot();
                    }
                }
            }
            assert_labels_match(injector.faults());
        }
    }
}

/// Equality ignores how the labelling was reached, but not the order.
#[test]
fn equality_compares_the_faults_in_order() {
    let mesh = Mesh3D::cube(4);
    let cells = [
        Coord3::new(0, 0, 0),
        Coord3::new(1, 1, 1),
        Coord3::new(3, 3, 3),
    ];
    let a = FaultSet3::from_coords(mesh, cells);
    let mut b = FaultSet3::from_coords(mesh, [cells[0], Coord3::new(2, 2, 2), cells[1]]);
    assert!(b.remove(Coord3::new(2, 2, 2)));
    b.insert(cells[2]);
    assert_eq!(a, b);
    let reversed = FaultSet3::from_coords(mesh, cells.iter().rev().copied());
    assert_ne!(a, reversed);
    assert_eq!(
        a.components().collect::<Vec<_>>(),
        reversed.components().collect::<Vec<_>>()
    );
    assert_ne!(a, FaultSet3::from_coords(Mesh3D::cube(5), cells));
}
