//! Differential and structural property tests of the dense 3-D hull.
//!
//! The scalar `BTreeSet` prototype of the `extension3d` module is the
//! specification oracle: the dense, bitmap-backed construction must
//! produce exactly its components and polyhedra on arbitrary small
//! regions, and the hull must be idempotent, orthogonally convex and
//! *minimal* — removing any non-fault node breaks convexity (no added
//! node is optional). The clustered sweep draws below repeat the
//! polyhedron comparison up to the 3-D sweep's scale.

mod extension3d;

use extension3d as oracle;
use faultgen::FaultDistribution;
use mesh2d::{BitScratch, Connectivity};
use mocp_3d::{generate_faults_3d, BitGrid3, Coord3, Mesh3D, Region3};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn coords(list: &[(i32, i32, i32)]) -> Vec<Coord3> {
    list.iter().map(|&(x, y, z)| Coord3::new(x, y, z)).collect()
}

/// Normalizes a polyhedron list to nested sorted coordinate lists, so the
/// dense and oracle results compare independently of component order and
/// internal representation.
fn normalize(polyhedra: Vec<Vec<Coord3>>) -> Vec<Vec<Coord3>> {
    let mut out: Vec<Vec<Coord3>> = polyhedra
        .into_iter()
        .map(|mut p| {
            p.sort_unstable();
            p
        })
        .collect();
    out.sort_unstable();
    out
}

/// The dense construction: merge the faults into 26-adjacent components
/// and hull each one — the bitmap-backed equivalent of the prototype's
/// `minimum_polyhedra`.
fn minimum_polyhedra(faults: &Region3) -> Vec<Region3> {
    faults
        .components26()
        .into_iter()
        .map(|c| c.orthogonal_convex_hull())
        .collect()
}

/// The 6-connected (link) components of `cells` by breadth-first search,
/// normalized.
fn link_components(cells: &[Coord3]) -> Vec<Vec<Coord3>> {
    let mut left: BTreeSet<Coord3> = cells.iter().copied().collect();
    let mut out = Vec::new();
    while let Some(start) = left.pop_first() {
        let mut component = vec![start];
        let mut i = 0;
        while let Some(&c) = component.get(i) {
            i += 1;
            for (dx, dy, dz) in [
                (1, 0, 0),
                (-1, 0, 0),
                (0, 1, 0),
                (0, -1, 0),
                (0, 0, 1),
                (0, 0, -1),
            ] {
                let n = Coord3::new(c.x + dx, c.y + dy, c.z + dz);
                if left.remove(&n) {
                    component.push(n);
                }
            }
        }
        out.push(component);
    }
    normalize(out)
}

/// The dense and the prototype `minimum_polyhedra` of `faults`, normalized.
fn both_polyhedra(faults: &[Coord3]) -> (Vec<Vec<Coord3>>, Vec<Vec<Coord3>>) {
    let dense = minimum_polyhedra(&Region3::from_coords(faults.iter().copied()));
    let proto = oracle::minimum_polyhedra(&oracle::Region3::from_coords(faults.iter().copied()));
    (
        normalize(dense.iter().map(|p| p.iter().collect()).collect()),
        normalize(proto.iter().map(|p| p.iter().collect()).collect()),
    )
}

/// An L-chain (0,0)-(1,1)-(2,0): the y = 0 line has a gap at (1,0) that
/// the hull must fill. The far node is its own component.
#[test]
fn minimum_polyhedra_hulls_per_component() {
    let faults = Region3::from_coords(coords(&[(0, 0, 0), (1, 1, 0), (2, 0, 0), (6, 6, 6)]));
    let polys = minimum_polyhedra(&faults);
    assert_eq!(polys.len(), 2);
    let total: usize = polys.iter().map(Region3::len).sum();
    assert_eq!(total, 5, "the 1-D gap is filled, the singleton is kept");
    assert!(polys[0].contains(Coord3::new(1, 0, 0)));
}

/// Clustered draws: a 10³ mesh at 5% faults (seed 9), a 20³ mesh at ~7%
/// and the 3-D sweep's 32³ mesh at its top fault count (seed 2004).
#[test]
fn dense_construction_matches_the_prototype_on_clustered_sweep_draws() {
    for (side, count, seed) in [(10, 50, 9), (20, 600, 2004), (32, 800, 2004)] {
        let faults = generate_faults_3d(
            Mesh3D::cube(side),
            count,
            FaultDistribution::Clustered,
            seed,
        );
        let (dense, proto) = both_polyhedra(faults.in_insertion_order());
        assert_eq!(
            dense, proto,
            "{side}^3 mesh, {count} clustered faults, seed {seed}"
        );
    }
}

/// Exactly the `figures` 3-D sweep's draws: 32³, 100..800 faults, random
/// and clustered, seeds 2004..=2006. The word-flood 26-labelling yields
/// the prototype's partition, each component's hull equals the
/// prototype's hull, and the convexity test agrees with the prototype on
/// every component and on the whole fault set. Too slow for debug runs;
/// run it with `cargo test --release -p mocp_3d --test hull_oracle --
/// --include-ignored`.
#[test]
#[ignore]
fn kernels_match_the_prototype_on_the_paper_sweep() {
    let mesh = Mesh3D::cube(32);
    for seed in 2004..=2006 {
        for distribution in [FaultDistribution::Random, FaultDistribution::Clustered] {
            for count in (1..=8).map(|i| i * 100) {
                let at = format!("{count} {distribution:?} faults, seed {seed}");
                let faults = generate_faults_3d(mesh, count, distribution, seed);
                let cs = faults.in_insertion_order();
                let region = Region3::from_coords(cs.iter().copied());
                let proto = oracle::Region3::from_coords(cs.iter().copied());
                assert_eq!(
                    region.is_orthogonally_convex(),
                    proto.is_orthogonally_convex(),
                    "convexity of {at}"
                );
                let dense = region.components26();
                assert_eq!(
                    normalize(dense.iter().map(|p| p.iter().collect()).collect()),
                    normalize(
                        proto
                            .components26()
                            .iter()
                            .map(|p| p.iter().collect())
                            .collect()
                    ),
                    "components of {at}"
                );
                for comp in &dense {
                    let proto_comp = oracle::Region3::from_coords(comp.iter());
                    assert_eq!(
                        comp.is_orthogonally_convex(),
                        proto_comp.is_orthogonally_convex(),
                        "convexity of a component of {at}"
                    );
                    let hull = comp.orthogonal_convex_hull();
                    let proto_hull = proto_comp.orthogonal_convex_hull();
                    assert_eq!(hull.len(), proto_hull.len(), "hull size in {at}");
                    assert!(
                        hull.iter().all(|c| proto_hull.contains(c)),
                        "hull nodes in {at}"
                    );
                    assert!(hull.is_orthogonally_convex(), "hull convexity in {at}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole acceptance property: the dense construction equals the
    /// prototype's `minimum_polyhedra` on random small regions.
    #[test]
    fn dense_construction_matches_the_prototype_oracle(
        pts in prop::collection::vec((0..6i32, 0..6i32, 0..6i32), 0..36)
    ) {
        let (dense, proto) = both_polyhedra(&coords(&pts));
        prop_assert_eq!(dense, proto);
    }

    /// Idempotence, convexity, containment, and minimality of the hull on
    /// ≤6³ grids: every node the hull adds is forced, i.e. removing any
    /// non-fault node breaks convexity or containment (containment holds
    /// trivially after removing an added node, so convexity must break).
    #[test]
    fn hull_is_idempotent_convex_and_minimal(
        pts in prop::collection::vec((0..6i32, 0..6i32, 0..6i32), 1..24)
    ) {
        let cs = coords(&pts);
        let region = Region3::from_coords(cs.iter().copied());
        let hull = region.orthogonal_convex_hull();

        prop_assert!(hull.is_orthogonally_convex());
        prop_assert!(region.iter().all(|c| hull.contains(c)), "hull contains the region");
        prop_assert_eq!(hull.orthogonal_convex_hull(), hull.clone(), "idempotent");

        // Against the brute-force/specification oracle.
        let oracle_hull = oracle::Region3::from_coords(cs.iter().copied()).orthogonal_convex_hull();
        prop_assert_eq!(hull.len(), oracle_hull.len());
        prop_assert!(hull.iter().all(|c| oracle_hull.contains(c)));

        // Minimality: dropping any added (non-fault) node breaks convexity.
        for added in hull.iter().filter(|&c| !region.contains(c)) {
            let without = Region3::from_coords(hull.iter().filter(|&c| c != added));
            prop_assert!(
                !without.is_orthogonally_convex(),
                "hull node {added:?} is not forced"
            );
        }
    }

    /// The convexity test agrees with the oracle's definition.
    #[test]
    fn convexity_test_matches_the_oracle(
        pts in prop::collection::vec((0..5i32, 0..5i32, 0..5i32), 0..20)
    ) {
        let cs = coords(&pts);
        let dense = Region3::from_coords(cs.iter().copied());
        let proto = oracle::Region3::from_coords(cs.iter().copied());
        prop_assert_eq!(dense.is_orthogonally_convex(), proto.is_orthogonally_convex());
    }

    /// Sparse regions in a 16³ box: the word-flood 26-labelling yields
    /// the prototype's partition, and each component's hull equals the
    /// prototype's hull, convexity verdict included.
    #[test]
    fn components_and_hulls_match_the_oracle_on_sparse_boxes(
        pts in prop::collection::vec((0..16i32, 0..16i32, 0..16i32), 0..40)
    ) {
        let cs = coords(&pts);
        let dense = Region3::from_coords(cs.iter().copied()).components26();
        let proto = oracle::Region3::from_coords(cs.iter().copied()).components26();
        prop_assert_eq!(
            normalize(dense.iter().map(|p| p.iter().collect()).collect()),
            normalize(proto.iter().map(|p| p.iter().collect()).collect())
        );
        for comp in &dense {
            let hull = comp.orthogonal_convex_hull();
            let proto_hull =
                oracle::Region3::from_coords(comp.iter()).orthogonal_convex_hull();
            prop_assert_eq!(hull.len(), proto_hull.len());
            prop_assert!(hull.iter().all(|c| proto_hull.contains(c)));
            prop_assert_eq!(
                hull.is_orthogonally_convex(),
                proto_hull.is_orthogonally_convex()
            );
        }
    }

    /// Component labelling agrees with the oracle's 26-adjacency merge,
    /// and the link (6-neighbor) flood with a breadth-first search. The x
    /// range is 0..6, or one of 56..72, 120..136 and -72..-56, which
    /// straddle a word boundary, so the spread crosses words and word-edge
    /// seeds take the flood. The components come out in storage order.
    #[test]
    fn components_match_the_oracle(
        range in 0..4usize,
        pts in prop::collection::vec((0..16i32, 0..6i32, 0..6i32), 0..48)
    ) {
        let (x0, width) = [(0, 6), (56, 16), (120, 16), (-72, 16)][range];
        let pts: Vec<_> = pts.iter().map(|&(x, y, z)| (x0 + x % width, y, z)).collect();
        let cs = coords(&pts);
        let dense = Region3::from_coords(cs.iter().copied()).components26();
        let proto = oracle::Region3::from_coords(cs.iter().copied()).components26();
        prop_assert_eq!(
            normalize(dense.iter().map(|p| p.iter().collect()).collect()),
            normalize(proto.iter().map(|p| p.iter().collect()).collect())
        );
        let zyx = |r: &Region3| r.bits().min_cell().map(|c| (c.z, c.y, c.x));
        prop_assert!(dense.windows(2).all(|w| zyx(&w[0]) < zyx(&w[1])), "storage order");

        let links = BitGrid3::from_coords(cs.iter().copied())
            .flood(Connectivity::Four, &mut BitScratch::new());
        prop_assert_eq!(
            normalize(links.iter().map(|g| g.iter().collect()).collect()),
            link_components(&cs)
        );
    }
}
