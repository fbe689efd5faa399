//! Property tests pinning every word-packed (bit-parallel) kernel to its
//! scalar specification.
//!
//! The `BitGrid` / `BitGrid3` kernels are the production fast path for
//! component labelling, the hull fixpoint, neighborhood dilation, the
//! labelling schemes and the `Outcome` safety predicates. Each one must
//! be *extensionally equal* to the scalar set code it replaced on
//! arbitrary inputs, including meshes whose width straddles the 63/64/65
//! word boundary. The labelling schemes are pinned to their local-rule
//! specification by `mocp_core`'s `construct_oracle` test, and the 3-D
//! labelling and hull to their prototype by `mocp_3d`'s `hull_oracle`.

use fblock::{ModelOutcome, RoundStats};
use mesh2d::{BitGrid, BitScratch, Connectivity, Coord, Mesh2D, NodeStatus, Region, StatusMap};
use mocp::mocp_3d::{BitGrid3, Coord3};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Coordinates over a width that straddles the word boundary (0..65 on x)
/// and a 64-row extent.
fn wide_coords() -> impl Strategy<Value = Vec<(i32, i32)>> {
    prop::collection::vec((0..65i32, 0..64i32), 0..60)
}

/// Dense coordinates on a small window, to exercise multi-cell components.
fn dense_coords() -> impl Strategy<Value = Vec<(i32, i32)>> {
    prop::collection::vec((0..12i32, 0..12i32), 0..50)
}

fn region_of(coords: &[(i32, i32)]) -> Region {
    Region::from_coords(coords.iter().map(|&(x, y)| Coord::new(x, y)))
}

/// 3-D coordinates within a 16³ box.
fn coords3() -> impl Strategy<Value = Vec<(i32, i32, i32)>> {
    prop::collection::vec((0..16i32, 0..16i32, 0..16i32), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Word-flood component labelling equals the scalar decomposition —
    /// same components, same deterministic order — under both adjacencies.
    #[test]
    fn components_match_scalar_oracle(coords in wide_coords()) {
        let region = region_of(&coords);
        let bits = BitGrid::from_region(&region);
        for adjacency in [Connectivity::Four, Connectivity::Eight] {
            let fast: Vec<Region> =
                bits.components(adjacency).iter().map(BitGrid::to_region).collect();
            prop_assert_eq!(fast, region.components(adjacency));
        }
    }

    /// The bit-parallel hull fixpoint equals the scalar iterated gap fill.
    #[test]
    fn hull_matches_scalar_oracle(coords in dense_coords()) {
        let region = region_of(&coords);
        // Hull semantics are per 8-connected component (the construction
        // always hulls one component at a time).
        for component in region.components(Connectivity::Eight) {
            let mut bits = BitGrid::from_region(&component);
            let before = bits.len();
            let (iters, added) = bits.hull_fixpoint(&mut BitScratch::new());
            prop_assert_eq!(bits.to_region(), component.orthogonal_convex_hull());
            prop_assert_eq!(added as usize, bits.len() - before);
            prop_assert!(iters == 0 || added > 0);
        }
    }

    /// Word-boundary widths 63/64/65: set/contains/len survive packing.
    #[test]
    fn word_boundary_round_trip(xs in prop::collection::vec(0..195i32, 0..80)) {
        for width in [63i32, 64, 65] {
            let coords: Vec<Coord> =
                xs.iter().map(|&v| Coord::new(v % width, v / width)).collect();
            let region = Region::from_coords(coords.iter().copied());
            let bits = BitGrid::from_coords(coords.iter().copied());
            prop_assert_eq!(bits.len(), region.len());
            for &c in &coords {
                prop_assert!(bits.contains(c));
            }
            prop_assert_eq!(bits.to_region(), region);
        }
    }

    /// The dilation mask equals the scalar 8-neighborhood union — the
    /// boost set of the clustered fault distribution.
    #[test]
    fn dilation_matches_scalar_neighborhoods(coords in wide_coords()) {
        let region = region_of(&coords);
        let expected = Region::from_coords(
            region.iter().flat_map(|c| c.neighbors8().into_iter().chain([c])),
        );
        prop_assert_eq!(BitGrid::from_region(&region).dilate().to_region(), expected);
    }

    /// Word-parallel convexity equals Definition 1's scalar row/column scan.
    #[test]
    fn convexity_matches_scalar_oracle(coords in dense_coords()) {
        let region = region_of(&coords);
        prop_assert_eq!(
            BitGrid::from_region(&region).is_orthogonally_convex(),
            region.is_orthogonally_convex()
        );
        let hulled: Region = region
            .components(Connectivity::Eight)
            .iter()
            .fold(Region::new(), |acc, c| acc.union(&c.orthogonal_convex_hull()));
        prop_assert!(hulled
            .components(Connectivity::Eight)
            .iter()
            .map(|c| BitGrid::from_region(c).is_orthogonally_convex())
            .zip(hulled.components(Connectivity::Eight).iter().map(Region::is_orthogonally_convex))
            .all(|(a, b)| a == b));
    }

    /// Whole-word set algebra equals scalar set semantics.
    #[test]
    fn set_algebra_matches_scalar_sets(a in wide_coords(), b in wide_coords()) {
        let (ra, rb) = (region_of(&a), region_of(&b));
        let (ga, gb) = (BitGrid::from_region(&ra), BitGrid::from_region(&rb));
        prop_assert_eq!(ga.intersects(&gb), !ra.is_disjoint(&rb));
        prop_assert_eq!(ga.is_subset_of(&gb), ra.is_subset(&rb));
        let mut union = ga.clone();
        union.union_with(&gb);
        prop_assert_eq!(union.to_region(), ra.union(&rb));
        let mut diff = ga.clone();
        diff.subtract(&gb);
        prop_assert_eq!(diff.to_region(), ra.difference(&rb));
    }

    /// The bitmap-backed safety predicates equal their scalar definitions
    /// on arbitrary (even malformed) outcomes.
    #[test]
    fn safety_predicates_match_scalar_definitions(
        faults in dense_coords(),
        r1 in dense_coords(),
        r2 in dense_coords(),
    ) {
        let mesh = Mesh2D::square(12);
        let mut status = StatusMap::all_enabled(&mesh);
        for &(x, y) in &faults {
            status.set(Coord::new(x, y), NodeStatus::Faulty);
        }
        let regions = vec![region_of(&r1), region_of(&r2)];
        let outcome = ModelOutcome {
            model: "prop".to_string(),
            status,
            regions: regions.clone(),
            rounds: RoundStats::quiescent(),
        };
        // Scalar definitions, spelled out.
        let faulty: Vec<Coord> = faults.iter().map(|&(x, y)| Coord::new(x, y)).collect();
        let covers = faulty.iter().all(|&c| regions.iter().any(|r| r.contains(c)));
        let convex = regions.iter().all(Region::is_orthogonally_convex);
        let disjoint = regions[0].is_disjoint(&regions[1]);
        prop_assert_eq!(outcome.covers_all_faults(), covers);
        prop_assert_eq!(outcome.all_regions_convex(), convex);
        prop_assert_eq!(outcome.regions_disjoint(), disjoint);
    }

    /// A 2-D set is a one-plane 3-D set: lifted to z = 0, the 3-D grid's
    /// dilation (in each of the planes -1, 0 and 1), components (as sets),
    /// hull (nodes and iteration count) and convexity equal the 2-D
    /// grid's. Stacked on two adjacent planes,
    /// or on planes 0 and 2, the set hulls to the 2-D hull in every plane
    /// between — the second stacking needs the z sweep that only frames of
    /// more than one plane run.
    #[test]
    fn planar_sets_are_one_plane_3d_sets(coords in dense_coords()) {
        let region = region_of(&coords);
        let lift = |cs: &mut dyn Iterator<Item = Coord>, z: i32| -> BTreeSet<(i32, i32, i32)> {
            cs.map(|c| (c.x, c.y, z)).collect()
        };
        let cells3 = |g: &BitGrid3| -> BTreeSet<(i32, i32, i32)> {
            g.iter().map(|c| (c.x, c.y, c.z)).collect()
        };
        let grid3 = |cells: &BTreeSet<(i32, i32, i32)>| {
            BitGrid3::from_coords(cells.iter().map(|&(x, y, z)| Coord3::new(x, y, z)))
        };
        let bits = BitGrid::from_region(&region);
        let flat = lift(&mut region.iter(), 0);
        let bits3 = grid3(&flat);

        // In 3-D the one plane dilates into its two neighbor planes too.
        let dilated: BTreeSet<_> = (-1..=1).flat_map(|z| lift(&mut bits.dilate().iter(), z)).collect();
        prop_assert_eq!(cells3(&bits3.dilate()), dilated);
        let components: BTreeSet<_> = bits
            .components(Connectivity::Eight)
            .iter()
            .map(|c| lift(&mut c.iter(), 0))
            .collect();
        let components3: BTreeSet<_> =
            bits3.flood(Connectivity::Eight, &mut BitScratch::new()).iter().map(cells3).collect();
        prop_assert_eq!(components3, components);
        prop_assert_eq!(bits3.is_orthogonally_convex(), bits.is_orthogonally_convex());

        let mut hull = bits.clone();
        let rounds = hull.hull_fixpoint(&mut BitScratch::new());
        let mut hull3 = bits3.clone();
        prop_assert_eq!(hull3.hull_fixpoint(&mut BitScratch::new()), rounds);
        prop_assert_eq!(cells3(&hull3), lift(&mut hull.iter(), 0));
        prop_assert_eq!(hull3.is_orthogonally_convex(), hull.is_orthogonally_convex());

        for planes in [0..=1, 0..=2] {
            let (z0, z1) = (*planes.start(), *planes.end());
            let cells: BTreeSet<_> = flat.union(&lift(&mut region.iter(), z1)).copied().collect();
            let mut stacked = grid3(&cells);
            stacked.hull_fixpoint(&mut BitScratch::new());
            let expected: BTreeSet<_> =
                planes.flat_map(|z| lift(&mut hull.iter(), z)).collect();
            prop_assert_eq!(cells3(&stacked), expected, "planes {}..={}", z0, z1);
        }
    }

    /// 3-D: the `BitGrid3` dilation equals the scalar 26-neighborhood
    /// union on boxes up to 16³ (the boost set of the clustered 3-D fault
    /// distribution). The 3-D labelling and hull kernels are checked
    /// against the prototype in `mocp_3d`'s `hull_oracle` test.
    #[test]
    fn bitgrid3_kernels_match_prototype(coords in coords3()) {
        let cs: Vec<Coord3> = coords.iter().map(|&(x, y, z)| Coord3::new(x, y, z)).collect();
        let dilated = BitGrid3::from_coords(cs.iter().copied()).dilate();
        let mut expected: BTreeSet<(i32, i32, i32)> = BTreeSet::new();
        for &c in &cs {
            for dz in -1..=1 {
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        expected.insert((c.x + dx, c.y + dy, c.z + dz));
                    }
                }
            }
        }
        let got: BTreeSet<(i32, i32, i32)> =
            dilated.iter().map(|c| (c.x, c.y, c.z)).collect();
        prop_assert_eq!(got, expected);
    }
}
