//! Differential property test of the 3-D merge process.
//!
//! `FaultyCuboidModel` and `MinimumPolyhedronModel` flood the faults once
//! and then regroup touching completions with a union-find. The oracle
//! here is the full-relabel fixpoint that construction replaced: complete
//! every component, re-flood the union of the completions with
//! `components26`, and repeat until the excluded set stops growing. Both
//! must agree on the regions (content and order), the round count, the
//! event count and the status grid.

use faultgen::FaultDistribution;
use mesh2d::NodeStatus;
use mocp_3d::{
    generate_faults_3d, Coord3, FaultModel, FaultSet3, FaultyCuboidModel, Grid3, Mesh3D,
    MinimumPolyhedronModel, Region3,
};
use proptest::prelude::*;

/// The old completion: the bounding cuboid cell by cell, or the hull.
fn complete(comp: &Region3, cuboid: bool) -> Region3 {
    if !cuboid {
        return comp.orthogonal_convex_hull();
    }
    let (lo, hi) = comp.bounding_box().expect("components are non-empty");
    let mut cells = Vec::new();
    for z in lo.z..=hi.z {
        for y in lo.y..=hi.y {
            for x in lo.x..=hi.x {
                cells.push(Coord3::new(x, y, z));
            }
        }
    }
    Region3::from_coords(cells)
}

/// What the oracle fixpoint produces.
struct Expected {
    regions: Vec<Region3>,
    rounds: u32,
    events: u64,
    status: Grid3<NodeStatus>,
}

/// The full-relabel merge loop: union of completions, then a fresh
/// `components26` flood, until the union's size stops changing.
fn oracle(mesh: &Mesh3D, faults: &FaultSet3, cuboid: bool) -> Expected {
    let mut excluded = faults.region();
    let mut rounds = 0u32;
    let regions = loop {
        let completed: Vec<Region3> = excluded
            .components26()
            .iter()
            .map(|c| complete(c, cuboid))
            .collect();
        let mut next = Region3::new();
        for completion in &completed {
            next.union_in_place(completion);
        }
        if next.len() == excluded.len() {
            break completed;
        }
        rounds += 1;
        excluded = next;
    };
    let mut status = Grid3::for_mesh(mesh, NodeStatus::Enabled);
    for c in excluded.iter() {
        status[c] = NodeStatus::Disabled;
    }
    for &c in faults.in_insertion_order() {
        status[c] = NodeStatus::Faulty;
    }
    Expected {
        regions,
        rounds,
        events: (excluded.len() - faults.len()) as u64,
        status,
    }
}

/// Both models against the oracle on one fault set. Returns the larger
/// of the two round counts.
fn check(mesh: &Mesh3D, faults: &FaultSet3) -> u32 {
    let mut max_rounds = 0;
    for (model, cuboid) in [
        (&FaultyCuboidModel as &dyn FaultModel<Mesh3D>, true),
        (&MinimumPolyhedronModel as &dyn FaultModel<Mesh3D>, false),
    ] {
        let outcome = model.construct(mesh, faults);
        let expected = oracle(mesh, faults, cuboid);
        let name = model.name();
        assert_eq!(
            outcome.regions.len(),
            expected.regions.len(),
            "{} region count",
            name
        );
        for (i, (got, want)) in outcome.regions.iter().zip(&expected.regions).enumerate() {
            assert!(
                got == want,
                "{} region {} differs in content or order",
                name,
                i
            );
        }
        assert_eq!(outcome.rounds.rounds, expected.rounds, "{} rounds", name);
        assert_eq!(outcome.rounds.events, expected.events, "{} events", name);
        assert!(outcome.rounds.converged);
        assert!(outcome.status == expected.status, "{} status grid", name);
        assert!(outcome.covers_all_faults() && outcome.regions_disjoint());
        assert!(outcome.all_regions_convex());
        max_rounds = max_rounds.max(expected.rounds);
    }
    max_rounds
}

fn distribution(clustered: bool) -> FaultDistribution {
    if clustered {
        FaultDistribution::Clustered
    } else {
        FaultDistribution::Random
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random and clustered draws on 8³–32³ meshes, from sparse to dense
    /// enough that completions chain into multi-round merges.
    #[test]
    fn merge_process_matches_the_full_relabel_oracle(
        side in 8u32..33,
        permille in 5usize..90,
        clustered in 0u32..2,
        seed in 0u64..100_000,
    ) {
        let mesh = Mesh3D::cube(side);
        let count = (mesh.node_count() * permille / 1000).max(1);
        let faults = generate_faults_3d(mesh, count, distribution(clustered == 1), seed);
        check(&mesh, &faults);
    }

    /// Faults pushed onto the mesh border: one coordinate of each fault is
    /// clamped to a face, so components and completions hug the border.
    #[test]
    fn merge_process_matches_the_oracle_on_the_mesh_border(
        side in 8u32..17,
        cells in prop::collection::vec((0..64i32, 0..64i32, 0..64i32, 0..6u32), 1..120),
    ) {
        let mesh = Mesh3D::cube(side);
        let n = side as i32;
        let faults = FaultSet3::from_coords(
            mesh,
            cells.iter().map(|&(x, y, z, face)| {
                let mut c = [x % n, y % n, z % n];
                c[(face / 2) as usize] = if face % 2 == 0 { 0 } else { n - 1 };
                Coord3::new(c[0], c[1], c[2])
            }),
        );
        check(&mesh, &faults);
    }
}

/// A 70-wide mesh: regions straddle the x = 63/64 word boundary, both
/// from random draws and from hand-placed clusters across it.
#[test]
fn merge_process_matches_the_oracle_across_the_word_boundary() {
    let mesh = Mesh3D::new(70, 8, 8);
    let mut max_rounds = 0;
    for seed in 0..6 {
        for clustered in [false, true] {
            let faults = generate_faults_3d(mesh, 300, distribution(clustered), seed);
            max_rounds = max_rounds.max(check(&mesh, &faults));
        }
    }
    assert!(max_rounds >= 2, "the draws must chain merges over rounds");
    let straddling = [
        (62, 1, 1),
        (64, 2, 1),
        (63, 3, 2),
        (66, 1, 3),
        (61, 5, 5),
        (65, 5, 5),
        (63, 7, 7),
        (60, 4, 0),
        (67, 4, 0),
        (69, 0, 6),
        (64, 6, 6),
    ];
    let faults = FaultSet3::from_coords(
        mesh,
        straddling.iter().map(|&(x, y, z)| Coord3::new(x, y, z)),
    );
    check(&mesh, &faults);
}
