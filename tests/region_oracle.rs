//! Differential tests of the word-packed `mesh2d::Region` against the
//! ordered-set implementation it replaced.
//!
//! `Oracle` below is that implementation: a `BTreeSet<Coord>` with the
//! scalar kernels (breadth-first component search, row/column gap fills,
//! per-node boundary probes). Every public `Region` method is checked
//! against it — set algebra, components under 4- and 8-adjacency (order
//! included), the convexity test, the hull, `bounding_rect`,
//! `outer_boundary4`, `minus_count`, `iter` order and `==` across
//! differently framed regions — on random, clustered,
//! negative-coordinate and far-apart inputs. `RegionMap::from_status` is
//! checked against the oracle's 4-connected components of the excluded
//! set of FB and CMFP maps.
//!
//! The ignored case sweeps the paper's 100×100 meshes at 100..800 faults;
//! run it with
//! `cargo test --release --test region_oracle -- --include-ignored`.

use faultgen::{FaultDistribution, FaultInjector};
use fblock::{FaultModel, FaultyBlockModel, ModelOutcome, SubMinimumPolygonModel};
use mesh2d::{BitGrid, Connectivity, Coord, FaultSet, Mesh2D, Rect, Region, StatusMap};
use meshroute::RegionMap;
use mocp_core::{CentralizedMfpModel, DistributedMfpModel};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// ---------------------------------------------------------------------
// The ordered-set oracle.
// ---------------------------------------------------------------------

/// A node set kept in a `BTreeSet`, iterated in `Coord` (x-major) order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Oracle {
    nodes: BTreeSet<Coord>,
}

impl Oracle {
    fn from_coords(coords: impl IntoIterator<Item = Coord>) -> Self {
        Oracle {
            nodes: coords.into_iter().collect(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        self.nodes.iter().copied()
    }

    fn components(&self, connectivity: Connectivity) -> Vec<Oracle> {
        let mut unvisited = self.nodes.clone();
        let mut out = Vec::new();
        while let Some(start) = unvisited.pop_first() {
            let mut comp = BTreeSet::from([start]);
            let mut queue = VecDeque::from([start]);
            while let Some(c) = queue.pop_front() {
                let neighbors = match connectivity {
                    Connectivity::Four => c.neighbors4().to_vec(),
                    Connectivity::Eight => c.neighbors8().to_vec(),
                };
                for n in neighbors {
                    if unvisited.remove(&n) {
                        comp.insert(n);
                        queue.push_back(n);
                    }
                }
            }
            out.push(Oracle { nodes: comp });
        }
        out
    }

    fn rows(&self) -> BTreeMap<i32, Vec<i32>> {
        let mut rows: BTreeMap<i32, Vec<i32>> = BTreeMap::new();
        for c in self.iter() {
            rows.entry(c.y).or_default().push(c.x);
        }
        for xs in rows.values_mut() {
            xs.sort_unstable();
        }
        rows
    }

    fn columns(&self) -> BTreeMap<i32, Vec<i32>> {
        let mut cols: BTreeMap<i32, Vec<i32>> = BTreeMap::new();
        for c in self.iter() {
            cols.entry(c.x).or_default().push(c.y);
        }
        cols
    }

    fn is_orthogonally_convex(&self) -> bool {
        let contiguous = |v: &Vec<i32>| v.windows(2).all(|w| w[1] == w[0] + 1);
        self.rows().values().all(contiguous) && self.columns().values().all(contiguous)
    }

    fn orthogonal_convex_hull(&self) -> Oracle {
        let gaps =
            |v: &[i32]| -> Vec<i32> { v.windows(2).flat_map(|w| (w[0] + 1)..w[1]).collect() };
        let mut hull = self.clone();
        loop {
            let mut added = Vec::new();
            for (&y, xs) in hull.rows().iter() {
                added.extend(gaps(xs).into_iter().map(|x| Coord::new(x, y)));
            }
            for (&x, ys) in hull.columns().iter() {
                added.extend(gaps(ys).into_iter().map(|y| Coord::new(x, y)));
            }
            if added.is_empty() {
                return hull;
            }
            hull.nodes.extend(added);
        }
    }

    fn outer_boundary4(&self) -> Oracle {
        Oracle::from_coords(
            self.iter()
                .flat_map(|c| c.neighbors4())
                .filter(|n| !self.nodes.contains(n)),
        )
    }
}

/// The oracle's nodes, in its order.
fn cells(oracle: &Oracle) -> Vec<Coord> {
    oracle.iter().collect()
}

/// A region's nodes, in its order.
fn region_cells(region: &Region) -> Vec<Coord> {
    region.iter().collect()
}

/// Asserts that `region` holds exactly the oracle's nodes, in its order.
fn assert_same(region: &Region, oracle: &Oracle, what: &str) {
    assert_eq!(region_cells(region), cells(oracle), "{what}: iteration");
    assert_eq!(region.len(), oracle.nodes.len(), "{what}: len");
    assert_eq!(
        region.is_empty(),
        oracle.nodes.is_empty(),
        "{what}: is_empty"
    );
}

fn assert_components(got: &[Region], expected: &[Oracle], what: &str) {
    let got: Vec<Vec<Coord>> = got.iter().map(region_cells).collect();
    let expected: Vec<Vec<Coord>> = expected.iter().map(cells).collect();
    assert_eq!(got, expected, "{what}: components");
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

fn coords(list: &[(i32, i32)]) -> Vec<Coord> {
    list.iter().map(|&(x, y)| Coord::new(x, y)).collect()
}

/// Raw material for one input: its kind, then points, blob centres and a
/// far shift, each drawn uniformly (see [`input`]).
type Raw = (u8, Vec<(i32, i32)>, Vec<(i32, i32)>, (i32, i32));

fn raw() -> impl Strategy<Value = Raw> {
    (
        0u8..4,
        prop::collection::vec((0..70i32, 0..40i32), 0..80),
        prop::collection::vec((0..100i32, 0..60i32), 1..5),
        (-400..400i32, 200..400i32),
    )
}

/// One input of the kind `raw.0` selects:
/// 0. uniform over a frame straddling one word boundary;
/// 1. clustered: dense 7×7 blobs around a few centres, so components have
///    many cells, holes and notches;
/// 2. negative coordinates across the x = 0 and x = -64 word boundaries;
/// 3. far apart: the clustered blobs, half of them shifted hundreds of
///    nodes away on both axes.
fn input((kind, points, centres, (dx, dy)): Raw) -> Vec<Coord> {
    let blob = |i: usize, (x, y): (i32, i32)| {
        let (cx, cy) = centres[i % centres.len()];
        Coord::new(cx + x % 7 - 3, cy + y % 7 - 3)
    };
    let n = points.len();
    points
        .into_iter()
        .enumerate()
        .map(|(i, (x, y))| match kind {
            0 => Coord::new(x, y),
            1 => blob(i, (x, y)),
            2 => Coord::new(2 * x - 136, y - 36),
            _ if i < n / 2 => blob(i, (x, y)),
            _ => {
                let c = blob(i, (x, y));
                Coord::new(c.x + dx, c.y - dy)
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Every public method against the oracle.
// ---------------------------------------------------------------------

/// Single-region queries.
fn check_queries(list: &[Coord]) {
    let region = Region::from_coords(list.iter().copied());
    let oracle = Oracle::from_coords(list.iter().copied());
    assert_same(&region, &oracle, "from_coords");
    assert_eq!(
        region.bounding_rect(),
        Rect::bounding(oracle.iter()),
        "bounding_rect"
    );
    for &c in list {
        assert!(region.contains(c));
        for n in c.neighbors8() {
            assert_eq!(
                region.contains(n),
                oracle.nodes.contains(&n),
                "contains {n}"
            );
        }
    }
    assert_eq!(
        region.is_orthogonally_convex(),
        oracle.is_orthogonally_convex(),
        "convexity"
    );
    assert_same(
        &region.orthogonal_convex_hull(),
        &oracle.orthogonal_convex_hull(),
        "hull",
    );
    assert_same(
        &region.outer_boundary4(),
        &oracle.outer_boundary4(),
        "outer_boundary4",
    );
    for connectivity in [Connectivity::Four, Connectivity::Eight] {
        let expected = oracle.components(connectivity);
        assert_components(&region.components(connectivity), &expected, "components");
        assert_eq!(
            region.is_connected(connectivity),
            expected.len() <= 1,
            "is_connected {connectivity:?}"
        );
        // The hull of each 8-connected component is convex, as the
        // constructions rely on.
        for component in region.components(connectivity) {
            assert!(component.orthogonal_convex_hull().is_orthogonally_convex());
        }
    }
    let by_ref: Vec<Coord> = (&region).into_iter().collect();
    assert_eq!(by_ref, cells(&oracle), "IntoIterator for &Region");
    assert_eq!(region.iter().collect::<Region>(), region, "FromIterator");
}

/// Binary queries and `==` across frames.
fn check_pair(a: &[Coord], b: &[Coord]) {
    let (ra, rb) = (
        Region::from_coords(a.iter().copied()),
        Region::from_coords(b.iter().copied()),
    );
    let (oa, ob) = (
        Oracle::from_coords(a.iter().copied()),
        Oracle::from_coords(b.iter().copied()),
    );
    let set = |nodes: BTreeSet<Coord>| Oracle { nodes };
    assert_same(&ra.union(&rb), &set(&oa.nodes | &ob.nodes), "union");
    assert_same(
        &ra.difference(&rb),
        &set(&oa.nodes - &ob.nodes),
        "difference",
    );
    assert_same(
        &ra.intersection(&rb),
        &set(&oa.nodes & &ob.nodes),
        "intersection",
    );
    assert_eq!(ra.is_disjoint(&rb), oa.nodes.is_disjoint(&ob.nodes));
    assert_eq!(ra.is_subset(&rb), oa.nodes.is_subset(&ob.nodes));
    assert_eq!(ra.union(&rb).is_subset(&rb), oa.nodes.is_subset(&ob.nodes));
    assert_eq!(ra.minus_count(&rb), oa.nodes.difference(&ob.nodes).count());
    assert_eq!(ra == rb, oa == ob, "==");
    // The same set framed three other ways — grown by single inserts,
    // inside a far wider frame, and shrunk back from a superset — is
    // still equal, and still iterates in the oracle's order.
    let mut grown = Region::new();
    for &c in a.iter().rev() {
        grown.insert(c);
    }
    let mut wide = BitGrid::with_bounds(Coord::new(-200, -500), Coord::new(600, 100));
    for &c in a {
        if wide.in_frame(c) {
            wide.set(c);
        } else {
            wide.insert(c);
        }
    }
    let wide = Region::from_bits(wide);
    let mut shrunk = ra.union(&rb);
    for c in ob.nodes.difference(&oa.nodes) {
        assert!(shrunk.remove(*c));
    }
    for (name, framed) in [("grown", &grown), ("wide", &wide), ("shrunk", &shrunk)] {
        assert_eq!(framed, &ra, "{name} == from_coords");
        assert_eq!(&ra, framed, "from_coords == {name}");
        assert_same(framed, &oa, name);
        assert_components(
            &framed.components(Connectivity::Eight),
            &oa.components(Connectivity::Eight),
            name,
        );
    }
    // Insert and remove report membership changes like the set does.
    let mut region = ra.clone();
    let mut oracle = oa.clone();
    for &c in b {
        assert_eq!(region.insert(c), oracle.nodes.insert(c), "insert {c}");
    }
    for &c in a {
        assert_eq!(region.remove(c), oracle.nodes.remove(&c), "remove {c}");
    }
    assert_same(&region, &oracle, "after insert/remove");
}

#[test]
fn named_shapes_match_the_oracle() {
    let shapes: [&[(i32, i32)]; 8] = [
        &[],
        &[(5, 5)],
        &[(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)],
        &[(0, 2), (1, 1), (2, 0), (3, 1), (4, 2)],
        &[(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2), (1, 1)],
        &[(60, 0), (66, 0), (63, 3), (64, 1)],
        &[(-65, -1), (-64, 0), (-63, 1), (0, 0), (-1, -1)],
        &[(0, 0), (1000, -800), (999, -799), (-1000, 400)],
    ];
    for a in shapes {
        check_queries(&coords(a));
        for b in shapes {
            check_pair(&coords(a), &coords(b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn queries_match_the_oracle(list in raw()) {
        check_queries(&input(list));
    }

    #[test]
    fn set_algebra_and_frames_match_the_oracle(a in raw(), b in raw()) {
        check_pair(&input(a), &input(b));
    }
}

// ---------------------------------------------------------------------
// Region maps and construction outcomes.
// ---------------------------------------------------------------------

/// The oracle's 4-connected components of a status map's excluded set.
fn excluded_components(status: &StatusMap) -> Vec<Oracle> {
    Oracle::from_coords(status.grid().coords_where(|s| s.is_excluded()))
        .components(Connectivity::Four)
}

/// `RegionMap::from_status` labels the excluded set of `outcome` exactly
/// as the oracle's 4-connected components, in order.
fn check_region_map(mesh: &Mesh2D, outcome: &ModelOutcome) {
    let map = RegionMap::from_status(mesh, &outcome.status);
    assert_components(
        map.regions(),
        &excluded_components(&outcome.status),
        &format!("{} region map", outcome.model),
    );
}

/// Every region of `outcome` against the oracle: the polygons are their
/// own hulls, convex and pairwise disjoint, and the 2-D regions that come
/// off a flood (FB, FP) are the oracle's components of the excluded set.
fn check_outcome(mesh: &Mesh2D, faults: &FaultSet, outcome: &ModelOutcome) {
    let what = &outcome.model;
    let mut seen = Oracle::default();
    for region in &outcome.regions {
        let oracle = Oracle::from_coords(region.iter());
        assert_eq!(region.len(), oracle.nodes.len(), "{what}: len");
        assert_eq!(
            region.is_orthogonally_convex(),
            oracle.is_orthogonally_convex(),
            "{what}: convexity"
        );
        assert!(oracle.nodes.is_disjoint(&seen.nodes), "{what}: overlap");
        seen.nodes.extend(oracle.nodes);
    }
    if matches!(what.as_str(), "FB" | "FP") {
        assert_components(
            &outcome.regions,
            &excluded_components(&outcome.status),
            what,
        );
    } else {
        // The MFP polygons are the hulls of the 8-connected fault
        // components, in component order.
        let components = Oracle::from_coords(faults.in_insertion_order().iter().copied())
            .components(Connectivity::Eight);
        let hulls: Vec<Oracle> = components
            .iter()
            .map(Oracle::orthogonal_convex_hull)
            .collect();
        assert_components(&outcome.regions, &hulls, what);
    }
    check_region_map(mesh, outcome);
}

fn distribution(clustered: bool) -> FaultDistribution {
    if clustered {
        FaultDistribution::Clustered
    } else {
        FaultDistribution::Random
    }
}

/// Faults on the mesh border (the labelling's edge cases) plus a few inside.
fn border_faults(mesh: Mesh2D, picks: &[(u32, i32)]) -> FaultSet {
    let (w, h) = (mesh.width(), mesh.height());
    FaultSet::from_coords(
        mesh,
        picks.iter().map(|&(side, t)| match side % 5 {
            0 => Coord::new(0, t % h),
            1 => Coord::new(w - 1, t % h),
            2 => Coord::new(t % w, 0),
            3 => Coord::new(t % w, h - 1),
            _ => Coord::new(t % w, (t / w) % h),
        }),
    )
}

#[test]
fn region_maps_match_the_oracle_on_border_faults() {
    let mesh = Mesh2D::mesh(70, 20);
    let picks: Vec<(u32, i32)> = (0..60).map(|i| (i * 7 % 11, (i * 37 + 5) as i32)).collect();
    let faults = border_faults(mesh, &picks);
    check_region_map(&mesh, &FaultyBlockModel.construct(&mesh, &faults));
    check_region_map(
        &mesh,
        &CentralizedMfpModel::virtual_block().construct(&mesh, &faults),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FB and CMFP maps on random, clustered and border-hugging faults.
    #[test]
    fn region_maps_match_the_oracle(
        seed in 0u64..1_000,
        count in 1usize..160,
        clustered in 0u8..2,
        picks in prop::collection::vec((0u32..5, 0i32..4000), 0..40),
    ) {
        let mesh = Mesh2D::mesh(70, 24);
        let mut injector = FaultInjector::new(mesh, distribution(clustered == 1), seed);
        injector.inject_up_to(count);
        for faults in [injector.faults().clone(), border_faults(mesh, &picks)] {
            for outcome in [
                FaultyBlockModel.construct(&mesh, &faults),
                CentralizedMfpModel::virtual_block().construct(&mesh, &faults),
            ] {
                check_region_map(&mesh, &outcome);
            }
        }
    }
}

/// The paper's 2-D sweep: 100×100, 100..800 faults, random and clustered.
#[test]
#[ignore = "paper-scale sweep; run in release"]
fn regions_match_the_oracle_at_paper_scale() {
    let mesh = Mesh2D::square(100);
    let models: [&dyn FaultModel; 4] = [
        &FaultyBlockModel,
        &SubMinimumPolygonModel,
        &CentralizedMfpModel::virtual_block(),
        &DistributedMfpModel,
    ];
    let mut regions = 0;
    for seed in 2004..2024 {
        for clustered in [false, true] {
            let mut injector = FaultInjector::new(mesh, distribution(clustered), seed);
            for count in (1..=8).map(|i| i * 100) {
                injector.inject_up_to(count);
                let faults = injector.faults();
                check_queries(faults.in_insertion_order());
                for model in models {
                    let outcome = model.construct(&mesh, faults);
                    check_outcome(&mesh, faults, &outcome);
                    regions += outcome.regions.len();
                }
            }
        }
    }
    assert!(regions > 100_000, "only {regions} regions checked");
}
