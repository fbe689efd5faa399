//! Phase 1 of the minimum-polygon construction: the merge process.
//!
//! Faulty nodes are grouped into *components*, where each component consists
//! of adjacent faulty nodes only (adjacency is the 8-neighborhood of
//! Definition 2). Each component maintains the minimum and maximum
//! coordinates of its nodes along both dimensions — the corners of its
//! *virtual faulty block*.

use mesh2d::{BitGrid, BitScratch, Connectivity, Coord, FaultSet, Rect, Region};

/// A maximal set of mutually 8-adjacent faulty nodes, together with the
/// bounding-box bookkeeping (`min_x`, `min_y`, `max_x`, `max_y`) the merge
/// process maintains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultyComponent {
    /// The faulty nodes of the component.
    region: Region,
    /// The virtual faulty block: `[(min_x, min_y), (max_x, max_y)]`.
    bbox: Rect,
}

impl FaultyComponent {
    /// Wraps an already-merged region. Panics on an empty region.
    pub fn new(region: Region) -> Self {
        let bbox = region
            .bounding_rect()
            .expect("a faulty component contains at least one fault");
        FaultyComponent { region, bbox }
    }

    /// The faulty nodes of the component.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The faulty nodes of the component, by value.
    pub fn into_region(self) -> Region {
        self.region
    }

    /// The component's virtual faulty block (bounding rectangle).
    pub fn virtual_block(&self) -> Rect {
        self.bbox
    }

    /// Number of faulty nodes in the component.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// Components are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Minimum coordinate along X maintained by the merge process.
    pub fn min_x(&self) -> i32 {
        self.bbox.min().x
    }

    /// Minimum coordinate along Y maintained by the merge process.
    pub fn min_y(&self) -> i32 {
        self.bbox.min().y
    }

    /// Maximum coordinate along X maintained by the merge process.
    pub fn max_x(&self) -> i32 {
        self.bbox.max().x
    }

    /// Maximum coordinate along Y maintained by the merge process.
    pub fn max_y(&self) -> i32 {
        self.bbox.max().y
    }

    /// True when `c` is a faulty node of this component.
    pub fn contains(&self, c: Coord) -> bool {
        self.region.contains(c)
    }

    /// Iterates over the component's faulty nodes in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        self.region.iter()
    }
}

/// The merge process: groups the faulty nodes into components of adjacent
/// (8-neighborhood) faulty nodes. Components are returned in deterministic
/// order (by their smallest node).
///
/// Labelling runs as a word-scan flood over the packed fault bitmap
/// (find-first-set seeds, whole-word frontier expansion), and each
/// component's region is read straight off the flood buffer. The scalar
/// `Region::components` decomposition is the oracle of the
/// `construct_oracle` test.
pub fn merge_components(faults: &FaultSet) -> Vec<FaultyComponent> {
    merge_components_with(faults, &mut BitScratch::new())
}

/// [`merge_components`] with caller-provided flood scratch buffers, for
/// allocation-free steady-state use by the sweep loops.
pub fn merge_components_with(faults: &FaultSet, scratch: &mut BitScratch) -> Vec<FaultyComponent> {
    let mut bits = BitGrid::for_mesh(faults.mesh());
    for &c in faults.in_insertion_order() {
        bits.set(c);
    }
    bits.component_regions_with(Connectivity::Eight, scratch)
        .into_iter()
        .map(FaultyComponent::new)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::Mesh2D;

    fn faults(mesh: Mesh2D, list: &[(i32, i32)]) -> FaultSet {
        FaultSet::from_coords(mesh, list.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    #[test]
    fn no_faults_means_no_components() {
        let mesh = Mesh2D::square(5);
        assert!(merge_components(&FaultSet::new(mesh)).is_empty());
    }

    #[test]
    fn diagonal_faults_merge_into_one_component() {
        let mesh = Mesh2D::square(8);
        let fs = faults(mesh, &[(2, 2), (3, 3), (4, 4)]);
        let comps = merge_components(&fs);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
        assert_eq!(comps[0].virtual_block().min(), Coord::new(2, 2));
        assert_eq!(comps[0].virtual_block().max(), Coord::new(4, 4));
    }

    #[test]
    fn distance_two_faults_stay_separate() {
        let mesh = Mesh2D::square(8);
        let fs = faults(mesh, &[(2, 2), (4, 2)]);
        let comps = merge_components(&fs);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn bbox_bookkeeping_matches_region_extremes() {
        let mesh = Mesh2D::square(12);
        let fs = faults(mesh, &[(3, 7), (4, 6), (5, 7), (4, 8), (5, 8)]);
        let comps = merge_components(&fs);
        assert_eq!(comps.len(), 1);
        let c = &comps[0];
        assert_eq!((c.min_x(), c.min_y(), c.max_x(), c.max_y()), (3, 6, 5, 8));
        assert_eq!(c.virtual_block().area(), 9);
    }

    #[test]
    fn components_partition_the_fault_set() {
        let mesh = Mesh2D::square(20);
        let fs = faults(
            mesh,
            &[
                (1, 1),
                (2, 2),
                (3, 1),
                (10, 10),
                (11, 11),
                (17, 3),
                (17, 4),
                (18, 5),
            ],
        );
        let comps = merge_components(&fs);
        let total: usize = comps.iter().map(FaultyComponent::len).sum();
        assert_eq!(total, fs.len());
        for (i, a) in comps.iter().enumerate() {
            for b in &comps[i + 1..] {
                assert!(a.region().is_disjoint(b.region()));
            }
        }
        assert_eq!(comps.len(), 3);
    }

    #[test]
    fn single_fault_component() {
        let mesh = Mesh2D::square(5);
        let fs = faults(mesh, &[(4, 0)]);
        let comps = merge_components(&fs);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].contains(Coord::new(4, 0)));
        assert_eq!(comps[0].virtual_block(), Rect::single(Coord::new(4, 0)));
    }
}
