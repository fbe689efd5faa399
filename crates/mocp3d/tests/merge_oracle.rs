//! Differential property test of the 3-D merge process.
//!
//! `FaultyCuboidModel` and `MinimumPolyhedronModel` start from the
//! 26-connected components the fault set keeps as faults arrive, and then
//! regroup touching completions with a union-find; FB-3D runs that
//! fixpoint on boxes alone. The oracle (`relabel/mod.rs`) is the
//! full-relabel fixpoint on bitmaps that construction replaced. Both must
//! agree on the regions (content and order), the round count, the event
//! count and the status grid, and the status grid's disabled count must be
//! the excluded set minus the faults.

mod relabel;

use faultgen::FaultDistribution;
use mocp_3d::{generate_faults_3d, Coord3, FaultModel, FaultSet3, FaultyCuboidModel, Mesh3D};
use proptest::prelude::*;
use relabel::check;

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

    /// Boxes with unequal sides (`d > h`), half of them wider than one
    /// 64-bit word, so the slot map's strides, its border padding and the
    /// bitmaps' word boundary all come into play.
    #[test]
    fn merge_process_matches_the_oracle_on_non_cubic_meshes(
        narrow in 1u32..33,
        wide in 0u32..2,
        h in 1u32..13,
        taller in 1u32..6,
        permille in 5usize..120,
        clustered in 0u32..2,
        seed in 0u64..100_000,
    ) {
        let w = narrow + 64 * wide;
        let mesh = Mesh3D::new(w, h, h + taller);
        let count = (mesh.node_count() * permille / 1000).max(1);
        let faults = generate_faults_3d(mesh, count, distribution(clustered == 1), seed);
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

/// A fault set from coordinate triples.
fn fault_set(mesh: Mesh3D, cells: &[(i32, i32, i32)]) -> FaultSet3 {
    FaultSet3::from_coords(mesh, cells.iter().map(|&(x, y, z)| Coord3::new(x, y, z)))
}

/// Two staircases, apart under 26-adjacency, whose boxes (x 1..=2 and
/// x 3..=4, both over y 2..=5) abut: their union is itself a cuboid, so
/// the merged class is already solid and the fixpoint stops after one
/// round.
#[test]
fn abutting_cuboids_whose_union_is_a_cuboid_stay_solid() {
    let mesh = Mesh3D::cube(8);
    let faults = fault_set(
        mesh,
        &[
            (2, 2, 3),
            (1, 3, 3),
            (1, 4, 3),
            (1, 5, 3),
            (3, 5, 3),
            (4, 4, 3),
            (4, 3, 3),
            (4, 2, 3),
        ],
    );
    check(&mesh, &faults);
    let fb = FaultyCuboidModel.construct(&mesh, &faults);
    assert_eq!(fb.regions.len(), 1);
    assert_eq!(fb.regions[0].len(), 16);
    assert_eq!(fb.rounds.rounds, 1);
}

/// A diagonal whose box swallows part of a second component's box: the
/// two completions overlap, and their union needs one more round.
#[test]
fn overlapping_completions_merge() {
    let mesh = Mesh3D::cube(8);
    let mut cells: Vec<(i32, i32, i32)> = (1..=5).map(|a| (a, a, 2)).collect();
    cells.extend([(4, 1, 2), (5, 1, 2), (6, 2, 2)]);
    let faults = fault_set(mesh, &cells);
    check(&mesh, &faults);
    let fb = FaultyCuboidModel.construct(&mesh, &faults);
    assert_eq!(fb.regions.len(), 1);
    assert_eq!(fb.regions[0].len(), 30);
    assert_eq!(fb.rounds.rounds, 2);
}

/// Each round's new box reaches the next single fault: A = (2,2)-(3,3)
/// takes B = (4,1), their box takes C = (5,4), that box takes D = (1,5).
#[test]
fn a_chain_merges_over_several_rounds() {
    let mesh = Mesh3D::cube(10);
    let faults = fault_set(
        mesh,
        &[(2, 2, 2), (3, 3, 2), (4, 1, 2), (5, 4, 2), (1, 5, 2)],
    );
    assert!(check(&mesh, &faults) >= 3);
    let fb = FaultyCuboidModel.construct(&mesh, &faults);
    assert_eq!(fb.rounds.rounds, 4);
    assert_eq!(fb.regions.len(), 1);
    assert_eq!(fb.regions[0].len(), 25);
}

/// A small non-convex component in each of the eight corners of a
/// non-cubic mesh: neighbour lookups reach into the slot map's padding
/// on three sides at once.
#[test]
fn faults_in_all_eight_corners() {
    let mesh = Mesh3D::new(70, 6, 9);
    let mut cells = Vec::new();
    for (x, sx) in [(0, 1), (69, -1)] {
        for (y, sy) in [(0, 1), (5, -1)] {
            for (z, sz) in [(0, 1), (8, -1)] {
                cells.push((x, y, z));
                cells.push((x + sx, y + sy, z + sz));
                cells.push((x + 2 * sx, y, z));
            }
        }
    }
    let faults = fault_set(mesh, &cells);
    check(&mesh, &faults);
    let fb = FaultyCuboidModel.construct(&mesh, &faults);
    assert_eq!(fb.regions.len(), 8);
    assert!(fb.regions.iter().all(|r| r.len() == 12));
}

/// Exactly what the `figures` 3-D sweep constructs: 32³, 100..800 faults,
/// random and clustered, seeds 2004..=2006. Too slow for debug runs; run
/// it with `cargo test --release -p mocp_3d --test merge_oracle --
/// --include-ignored`.
#[test]
#[ignore]
fn merge_process_matches_the_oracle_on_the_paper_sweep() {
    let mesh = Mesh3D::cube(32);
    for seed in 2004..=2006 {
        for clustered in [false, true] {
            for count in (1..=8).map(|i| i * 100) {
                let faults = generate_faults_3d(mesh, count, distribution(clustered), seed);
                check(&mesh, &faults);
            }
        }
    }
}
