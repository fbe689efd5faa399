//! The scalar specification prototype of the 3-D construction: minimum
//! orthogonal convex polyhedra over `BTreeSet` node sets.
//!
//! It holds 26-adjacency components by breadth-first search, the
//! orthogonal-convexity test along the three axes, and the iterated
//! axis-fill closure that yields the minimum orthogonal convex polyhedron
//! of a component. It is intentionally self-contained (it reuses none of
//! the bitmap machinery of `mocp_3d`, only its `Coord3`), so the dense
//! construction can be checked against it.

use mocp_3d::Coord3;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A set of 3-D mesh nodes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Region3 {
    nodes: BTreeSet<Coord3>,
}

impl Region3 {
    /// Builds a region from coordinates.
    pub fn from_coords(coords: impl IntoIterator<Item = Coord3>) -> Self {
        Region3 {
            nodes: coords.into_iter().collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Membership test.
    pub fn contains(&self, c: Coord3) -> bool {
        self.nodes.contains(&c)
    }

    /// Inserts a node.
    pub fn insert(&mut self, c: Coord3) -> bool {
        self.nodes.insert(c)
    }

    /// Iterates in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = Coord3> + '_ {
        self.nodes.iter().copied()
    }

    /// Decomposes into 26-connected components (the 3-D merge process).
    pub fn components26(&self) -> Vec<Region3> {
        let mut unvisited = self.nodes.clone();
        let mut out = Vec::new();
        while let Some(&start) = unvisited.iter().next() {
            unvisited.remove(&start);
            let mut comp = BTreeSet::new();
            comp.insert(start);
            let mut queue = VecDeque::new();
            queue.push_back(start);
            while let Some(c) = queue.pop_front() {
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        for dz in -1..=1 {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            let n = Coord3::new(c.x + dx, c.y + dy, c.z + dz);
                            if unvisited.remove(&n) {
                                comp.insert(n);
                                queue.push_back(n);
                            }
                        }
                    }
                }
            }
            out.push(Region3 { nodes: comp });
        }
        out
    }

    /// The 3-D orthogonal convexity test: along every axis-parallel line the
    /// region's nodes form a contiguous run.
    pub fn is_orthogonally_convex(&self) -> bool {
        axis_runs(self, Axis::X).values().all(|v| contiguous(v))
            && axis_runs(self, Axis::Y).values().all(|v| contiguous(v))
            && axis_runs(self, Axis::Z).values().all(|v| contiguous(v))
    }

    /// The minimum orthogonal convex polyhedron containing the region:
    /// iterated gap filling along all three axes.
    ///
    /// Scanning an axis fills every gap on every line parallel to it, so
    /// the axis stays gap-free until a fill along a *different* axis inserts
    /// nodes. The per-axis dirty flags exploit that: an axis whose last scan
    /// found no gaps is skipped until another axis changes the region,
    /// instead of recomputing its full `axis_runs` on every fixpoint
    /// iteration. Each filled node is forced (it lies between two region
    /// nodes on an axis line, so every orthogonally convex superset must
    /// contain it), hence any fair scan order converges to the same unique
    /// minimum — the result is identical to the naive all-axes loop.
    pub fn orthogonal_convex_hull(&self) -> Region3 {
        let mut hull = self.clone();
        let axes = [Axis::X, Axis::Y, Axis::Z];
        let mut dirty = [true; 3];
        while dirty.iter().any(|&d| d) {
            for i in 0..3 {
                if !dirty[i] {
                    continue;
                }
                dirty[i] = false;
                let mut added = Vec::new();
                for (key, vals) in axis_runs(&hull, axes[i]) {
                    for w in vals.windows(2) {
                        for v in (w[0] + 1)..w[1] {
                            added.push(axes[i].rebuild(key, v));
                        }
                    }
                }
                let mut inserted = false;
                for c in added {
                    inserted |= hull.insert(c);
                }
                if inserted {
                    for (j, flag) in dirty.iter_mut().enumerate() {
                        *flag = j != i;
                    }
                }
            }
        }
        hull
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Axis {
    X,
    Y,
    Z,
}

impl Axis {
    fn split(self, c: Coord3) -> ((i32, i32), i32) {
        match self {
            Axis::X => ((c.y, c.z), c.x),
            Axis::Y => ((c.x, c.z), c.y),
            Axis::Z => ((c.x, c.y), c.z),
        }
    }

    fn rebuild(self, key: (i32, i32), v: i32) -> Coord3 {
        match self {
            Axis::X => Coord3::new(v, key.0, key.1),
            Axis::Y => Coord3::new(key.0, v, key.1),
            Axis::Z => Coord3::new(key.0, key.1, v),
        }
    }
}

fn axis_runs(region: &Region3, axis: Axis) -> BTreeMap<(i32, i32), Vec<i32>> {
    let mut map: BTreeMap<(i32, i32), Vec<i32>> = BTreeMap::new();
    for c in region.iter() {
        let (key, v) = axis.split(c);
        map.entry(key).or_default().push(v);
    }
    for v in map.values_mut() {
        v.sort_unstable();
    }
    map
}

fn contiguous(sorted: &[i32]) -> bool {
    sorted.windows(2).all(|w| w[1] == w[0] + 1)
}

/// The 3-D analogue of the paper's construction: merge the faults into
/// 26-adjacent components and return each component's minimum orthogonal
/// convex polyhedron.
pub fn minimum_polyhedra(faults: &Region3) -> Vec<Region3> {
    faults
        .components26()
        .into_iter()
        .map(|c| c.orthogonal_convex_hull())
        .collect()
}

mod tests {
    use super::*;

    fn region(list: &[(i32, i32, i32)]) -> Region3 {
        Region3::from_coords(list.iter().map(|&(x, y, z)| Coord3::new(x, y, z)))
    }

    #[test]
    fn diagonal_chain_is_one_component_and_convex() {
        let r = region(&[(0, 0, 0), (1, 1, 1), (2, 2, 2)]);
        assert_eq!(r.components26().len(), 1);
        assert!(r.is_orthogonally_convex());
        assert_eq!(r.orthogonal_convex_hull(), r);
    }

    #[test]
    fn u_shape_in_a_plane_is_filled() {
        let u = region(&[(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0)]);
        assert!(!u.is_orthogonally_convex());
        let hull = u.orthogonal_convex_hull();
        assert!(hull.contains(Coord3::new(1, 1, 0)));
        assert_eq!(hull.len(), 6);
        assert!(hull.is_orthogonally_convex());
    }

    #[test]
    fn separated_clusters_stay_separate() {
        let r = region(&[(0, 0, 0), (5, 5, 5)]);
        let polys = minimum_polyhedra(&r);
        assert_eq!(polys.len(), 2);
        assert!(polys.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn hollow_cube_shell_fills_center() {
        // 3x3x3 cube minus its center: the hull must restore the center.
        let mut nodes = Vec::new();
        for x in 0..3 {
            for y in 0..3 {
                for z in 0..3 {
                    if (x, y, z) != (1, 1, 1) {
                        nodes.push((x, y, z));
                    }
                }
            }
        }
        let shell = region(&nodes);
        let hull = shell.orthogonal_convex_hull();
        assert!(hull.contains(Coord3::new(1, 1, 1)));
        assert_eq!(hull.len(), 27);
        assert!(hull.is_orthogonally_convex());
    }

    #[test]
    fn hull_is_idempotent() {
        let r = region(&[(0, 0, 0), (2, 0, 0), (1, 1, 0), (0, 0, 2)]);
        let h1 = r.orthogonal_convex_hull();
        let h2 = h1.orthogonal_convex_hull();
        assert_eq!(h1, h2);
        assert!(h1.is_orthogonally_convex());
    }
}
