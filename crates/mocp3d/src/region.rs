//! Dense 3-D node sets: word-packed bitmap floods, 26-connected labelling
//! and the bit-parallel minimum orthogonal convex hull.
//!
//! This is the performance core of the 3-D subsystem. Where the scalar
//! specification prototype (held by the `hull_oracle` test) probes a
//! per-node `BTreeSet` for every membership test, this [`Region3`] keeps a
//! word-packed occupancy bitmap ([`BitGrid3`]) over the region's bounding
//! box — 64 nodes per `u64` along the x axis — so component labelling is
//! `mesh2d`'s one word-scan flood (find-first-set seeds plus whole-word
//! frontier expansion, the same kernel the 2-D merge process runs), and
//! the hull construction fills per-axis occupied spans with
//! leading/trailing-zero counts (x) and word-parallel prefix/suffix sweeps
//! (y, z) instead of cell loops.
//!
//! The labelling and the hull are property-tested equal to the
//! prototype's (the differential oracle) in `tests/hull_oracle.rs`.

use crate::bitgrid::BitGrid3;
use crate::mesh::Coord3;
use mesh2d::{BitScratch, Connectivity};

/// A set of 3-D nodes, stored as a word-packed occupancy bitmap over the
/// set's bounding box.
///
/// The dense analogue of the prototype's `BTreeSet` region. Equality is
/// set equality (the bounding box is a representation detail).
#[derive(Clone, Debug, Default)]
pub struct Region3 {
    bits: BitGrid3,
}

impl Region3 {
    /// The empty region.
    pub fn new() -> Self {
        Region3 {
            bits: BitGrid3::empty(),
        }
    }

    /// Builds a region from coordinates (duplicates are ignored). The
    /// bitmap is allocated once over the coordinates' bounding box.
    pub fn from_coords(coords: impl IntoIterator<Item = Coord3>) -> Self {
        Region3 {
            bits: BitGrid3::from_coords(coords),
        }
    }

    /// Wraps an existing bitmap.
    pub(crate) fn from_bits(bits: BitGrid3) -> Self {
        Region3 { bits }
    }

    /// The region's word-packed bitmap.
    pub fn bits(&self) -> &BitGrid3 {
        &self.bits
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The minimum and maximum corners of the bounding box, or `None` when
    /// empty.
    pub fn bounding_box(&self) -> Option<(Coord3, Coord3)> {
        self.bits.bounding_box()
    }

    /// Membership test.
    pub fn contains(&self, c: Coord3) -> bool {
        self.bits.contains(c)
    }

    /// Inserts a node, growing the bounding box if needed. Returns `true`
    /// when the node was newly inserted. Growth reallocates the bitmap, so
    /// hot loops should build regions via [`from_coords`](Self::from_coords)
    /// (the hull construction only ever fills *inside* the box).
    pub fn insert(&mut self, c: Coord3) -> bool {
        self.bits.insert(c)
    }

    /// `self ∪= other` as whole-word ORs over `other`'s frame, instead of
    /// per-node re-insertion.
    pub fn union_in_place(&mut self, other: &Region3) {
        self.bits.union_with(&other.bits);
    }

    /// Iterates the nodes in x-major bounding-box order.
    pub fn iter(&self) -> impl Iterator<Item = Coord3> + '_ {
        self.bits.iter()
    }

    /// Decomposes into 26-connected components (the 3-D merge process)
    /// via `mesh2d`'s word-scan flood, in storage order.
    pub fn components26(&self) -> Vec<Region3> {
        let components = self.bits.flood(Connectivity::Eight, &mut BitScratch::new());
        components.into_iter().map(Region3::from_bits).collect()
    }

    /// The 3-D orthogonal convexity test: along every axis-parallel line
    /// the region's nodes form one contiguous run — word-parallel span and
    /// run scans on the packed bitmap.
    pub fn is_orthogonally_convex(&self) -> bool {
        self.bits.is_orthogonally_convex()
    }

    /// The minimum orthogonal convex polyhedron containing the region:
    /// the bit-parallel hull fixpoint — per-axis occupied spans from
    /// leading/trailing-zero counts (x) and word-parallel prefix/suffix
    /// sweeps (y, z), iterated to the fixpoint. Every filled node lies
    /// between two region nodes on an axis line — forced into any
    /// orthogonally convex superset — so the fixpoint is the unique
    /// minimum hull and matches the specification prototype exactly
    /// (property-tested in `tests/hull_oracle.rs`).
    ///
    /// Fills never leave the bounding box, so the bitmap is allocated once.
    pub fn orthogonal_convex_hull(&self) -> Region3 {
        Region3 {
            bits: hull_bits(&self.bits, &mut BitScratch::new()),
        }
    }
}

/// The bit-parallel hull of a bitmap — the body of
/// [`Region3::orthogonal_convex_hull`], shared with the merge process,
/// which completes bare grids and reuses one `scratch` per worker.
pub(crate) fn hull_bits(bits: &BitGrid3, scratch: &mut BitScratch) -> BitGrid3 {
    let mut hull = bits.clone();
    let (rounds, added) = hull.hull_fixpoint(scratch);
    let rounds = u64::from(rounds);
    // Each round rescans every line of all three axes; the quiescent
    // final pass is not counted (matching RoundStats).
    mocp_obs::counter!("hull3d.hulls").inc();
    mocp_obs::counter!("hull3d.fixpoint_rounds").add(rounds);
    mocp_obs::counter!("hull3d.line_rescans").add(rounds * hull.lines() as u64 * 3);
    mocp_obs::counter!("hull3d.nodes_added").add(added);
    mocp_obs::histogram!("hull3d.rounds_per_hull").record(rounds);
    hull
}

impl PartialEq for Region3 {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|c| other.contains(c))
    }
}

impl Eq for Region3 {}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(list: &[(i32, i32, i32)]) -> Region3 {
        Region3::from_coords(list.iter().map(|&(x, y, z)| Coord3::new(x, y, z)))
    }

    #[test]
    fn set_semantics() {
        let mut r = region(&[(0, 0, 0), (2, 1, 0)]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(Coord3::new(0, 0, 0)));
        assert!(!r.contains(Coord3::new(1, 0, 0)));
        assert!(!r.contains(Coord3::new(-5, 0, 0)));
        assert!(r.insert(Coord3::new(1, 0, 0)));
        assert!(!r.insert(Coord3::new(1, 0, 0)), "duplicate insert");
        assert_eq!(r.len(), 3);
        // Equality ignores bounding boxes.
        assert_eq!(r, region(&[(0, 0, 0), (1, 0, 0), (2, 1, 0)]));
        assert_ne!(r, region(&[(0, 0, 0)]));
    }

    #[test]
    fn insert_grows_the_bounding_box() {
        let mut r = Region3::new();
        assert!(r.is_empty());
        assert!(r.insert(Coord3::new(5, 5, 5)));
        assert!(r.insert(Coord3::new(-2, 7, 5)), "outside the current box");
        assert_eq!(r.len(), 2);
        assert!(r.contains(Coord3::new(-2, 7, 5)));
        let (lo, hi) = r.bounding_box().unwrap();
        assert_eq!(lo, Coord3::new(-2, 5, 5));
        assert_eq!(hi, Coord3::new(5, 7, 5));
    }

    #[test]
    fn union_in_place_merges_sets() {
        let mut a = region(&[(0, 0, 0), (1, 1, 1)]);
        let b = region(&[(1, 1, 1), (70, 3, 2)]);
        a.union_in_place(&b);
        assert_eq!(a.len(), 3);
        assert!(a.contains(Coord3::new(70, 3, 2)));
    }

    #[test]
    fn components_match_26_adjacency() {
        // A diagonal chain is one component; a detached node is another.
        let r = region(&[(0, 0, 0), (1, 1, 1), (2, 2, 2), (5, 0, 0)]);
        let comps = r.components26();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps.iter().map(Region3::len).sum::<usize>(), 4);
    }

    #[test]
    fn u_shape_is_filled_and_detected() {
        let u = region(&[(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0)]);
        assert!(!u.is_orthogonally_convex());
        let hull = u.orthogonal_convex_hull();
        assert!(hull.contains(Coord3::new(1, 1, 0)));
        assert_eq!(hull.len(), 6);
        assert!(hull.is_orthogonally_convex());
    }

    #[test]
    fn hollow_cube_shell_fills_center() {
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
        let hull = region(&nodes).orthogonal_convex_hull();
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

    #[test]
    fn empty_and_singleton_hulls() {
        assert!(Region3::new().orthogonal_convex_hull().is_empty());
        assert!(Region3::new().is_orthogonally_convex());
        assert_eq!(Region3::new().bounding_box(), None);
        let s = region(&[(3, 3, 3)]);
        assert_eq!(s.orthogonal_convex_hull(), s);
    }
}
