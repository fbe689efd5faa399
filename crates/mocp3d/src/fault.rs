//! 3-D fault sets, labelled into 26-connected components as faults
//! arrive, and the seeded 3-D fault injector.
//!
//! Since the `mocp_topology` redesign the injector *is*
//! `faultgen::FaultInjector` — [`FaultInjector3`] is its `Mesh3D`
//! instantiation, not a re-implementation: one generic draw / boost /
//! undo loop over the shared [`faultgen::WeightTable`] drives both
//! dimensions, and the clustered model's rate boost covers the
//! 26-neighborhood that [`faultgen::cluster_indices`] enumerates from a
//! [`Coord3`]'s `(x, y, z)`, as it enumerates the 8-neighborhood in 2-D.

use crate::bitgrid::zyx;
use crate::mesh::Coord3;
use crate::mesh::Mesh3D;
use crate::region::Region3;
use mesh2d::bitgrid::joint_box;
use std::fmt;

/// A 26-connected component of a [`FaultSet3`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultComponent3 {
    /// The tight bounding box `lo..=hi` of the component's faults.
    pub bbox: (Coord3, Coord3),
    /// The component's minimal cell in `(z, y, x)` order.
    pub min_cell: Coord3,
    /// The number of faults in the component.
    pub len: usize,
}

/// The set of faulty nodes of a 3-D mesh, with its 26-connected
/// components kept up to date as faults arrive.
///
/// The faults sit in an occupancy bitmap of the mesh padded by one node
/// on every side, one whole number of words per x-row, so no neighbour
/// lookup needs a bounds check, and in a slot map from each node to its
/// fault. Each [`insert`](Self::insert) reads the nine rows around the
/// new fault from the bitmap, joins the union-find classes of the
/// neighbours it finds there and merges their summaries (box, size,
/// minimal cell). A second bitmap marks each component's minimal cell, so
/// the components come out in `(z, y, x)` order without a sort.
/// [`remove`](Self::remove) relabels from the remaining order.
///
/// Equality compares the mesh and the faults in insertion order only: the
/// labelling is a function of those.
#[derive(Clone)]
pub struct FaultSet3 {
    mesh: Mesh3D,
    /// 1 + the insertion index of the fault at each mesh index; 0 while
    /// the node is healthy.
    slots: Vec<u32>,
    /// One bit per padded node, set where a fault is, each padded x-row
    /// starting a new word.
    occupied: Vec<u64>,
    /// Words per padded x-row of `occupied`.
    row_words: usize,
    order: Vec<Coord3>,
    /// Union-find parent of each fault, by insertion index.
    parent: Vec<u32>,
    /// Each class's component, valid at its root.
    summary: Vec<FaultComponent3>,
    /// One bit per mesh index, set at each component's minimal cell (mesh
    /// indices are in `(z, y, x)` order).
    min_cells: Vec<u64>,
}

impl FaultSet3 {
    /// An empty fault set for `mesh`.
    pub fn new(mesh: Mesh3D) -> Self {
        let nodes = mesh.node_count();
        let row_words = (mesh.width() as usize + 2).div_ceil(64);
        let rows = (mesh.height() as usize + 2) * (mesh.depth() as usize + 2);
        FaultSet3 {
            mesh,
            slots: vec![0; nodes],
            occupied: vec![0; row_words * rows],
            row_words,
            order: Vec::new(),
            parent: Vec::new(),
            summary: Vec::new(),
            min_cells: vec![0; nodes.div_ceil(64)],
        }
    }

    /// Builds a fault set from coordinates (duplicates and out-of-mesh
    /// coordinates are ignored).
    pub fn from_coords(mesh: Mesh3D, coords: impl IntoIterator<Item = Coord3>) -> Self {
        let mut fs = Self::new(mesh);
        for c in coords {
            fs.insert(c);
        }
        fs
    }

    /// The mesh the faults live in.
    pub fn mesh(&self) -> &Mesh3D {
        &self.mesh
    }

    /// The padded x-row of an in-mesh `c`, counted in `(z, y)` order.
    fn row(&self, c: Coord3) -> usize {
        (c.y + 1) as usize + (self.mesh.height() as usize + 2) * (c.z + 1) as usize
    }

    /// The bit of an in-mesh `c` in `occupied`.
    fn occupancy_bit(&self, c: Coord3) -> usize {
        self.row(c) * self.row_words * 64 + c.x as usize + 1
    }

    /// Bits 0, 1 and 2 of the result are the occupancy of the padded
    /// columns `px`, `px + 1` and `px + 2` of `row`.
    fn three(&self, px: usize, row: usize) -> u64 {
        let at = row * self.row_words * 64 + px;
        let (word, bit) = (at / 64, at % 64);
        let mut bits = self.occupied[word] >> bit;
        if bit > 61 {
            bits |= self.occupied[word + 1] << (64 - bit);
        }
        bits & 0b111
    }

    /// Marks `c` faulty. Returns `true` when newly marked, `false` for
    /// duplicates or coordinates outside the mesh.
    pub fn insert(&mut self, c: Coord3) -> bool {
        if !self.mesh.contains(c) {
            return false;
        }
        let (x, row) = (c.x as usize, self.row(c));
        if self.three(x, row) & 0b010 != 0 {
            return false;
        }
        let i = self.order.len() as u32;
        let index = self.mesh.index(c);
        self.order.push(c);
        self.parent.push(i);
        self.summary.push(FaultComponent3 {
            bbox: (c, c),
            min_cell: c,
            len: 1,
        });
        self.min_cells[index / 64] |= 1 << (index % 64);
        // The nine rows around `c` (y - 1..=y + 1 in planes z - 1..=z + 1),
        // three bits each, gathered into one mask.
        let plane = self.mesh.height() as usize + 2;
        let rows = [
            row - plane - 1,
            row - plane,
            row - plane + 1,
            row - 1,
            row,
            row + 1,
            row + plane - 1,
            row + plane,
            row + plane + 1,
        ];
        let mut near = 0;
        for (k, &r) in rows.iter().enumerate() {
            near |= self.three(x, r) << (3 * k);
        }
        // Bit 3 (3 dz + dy) + dx of the mask stands for the neighbour at
        // offset (dx, dy, dz) - 1.
        let w = self.mesh.width() as usize;
        let wh = w * self.mesh.height() as usize;
        let neighbour = |bit: u32| {
            let bit = bit as usize;
            index + bit % 3 + bit / 3 % 3 * w + bit / 9 * wh - 1 - w - wh
        };
        while near != 0 {
            self.union(i, self.slots[neighbour(near.trailing_zeros())] - 1);
            near &= near - 1;
        }
        self.slots[index] = i + 1;
        let bit = self.occupancy_bit(c);
        self.occupied[bit / 64] |= 1 << (bit % 64);
        true
    }

    /// The root of fault `i`'s class, halving the path on the way.
    fn find_mut(&mut self, mut i: u32) -> u32 {
        let parent = &mut self.parent;
        while parent[i as usize] != i {
            parent[i as usize] = parent[parent[i as usize] as usize];
            i = parent[i as usize];
        }
        i
    }

    /// The root of fault `i`'s class. Classes are joined by size, so the
    /// path is at most logarithmic in the number of faults.
    fn find(&self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            i = self.parent[i as usize];
        }
        i
    }

    /// Joins the classes of faults `a` and `b`: the smaller class hangs
    /// under the larger, which takes the merged summary, and only the
    /// lesser minimal cell keeps its mark.
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find_mut(a), self.find_mut(b));
        if ra == rb {
            return;
        }
        let (sa, sb) = (self.summary[ra as usize], self.summary[rb as usize]);
        let (root, child) = if sa.len >= sb.len { (ra, rb) } else { (rb, ra) };
        let (min_cell, unmarked) = if zyx(sa.min_cell) < zyx(sb.min_cell) {
            (sa.min_cell, sb.min_cell)
        } else {
            (sb.min_cell, sa.min_cell)
        };
        let unmarked = self.mesh.index(unmarked);
        self.min_cells[unmarked / 64] &= !(1 << (unmarked % 64));
        self.parent[child as usize] = root;
        self.summary[root as usize] = FaultComponent3 {
            bbox: joint_box(sa.bbox, sb.bbox),
            min_cell,
            len: sa.len + sb.len,
        };
    }

    /// Clears the fault at `c`, modelling node recovery. Returns `true`
    /// when the node was faulty. The components are relabelled from the
    /// remaining faults in their insertion order.
    pub fn remove(&mut self, c: Coord3) -> bool {
        if !self.is_faulty(c) {
            return false;
        }
        let mut order = std::mem::take(&mut self.order);
        for &f in &order {
            let index = self.mesh.index(f);
            self.slots[index] = 0;
            self.min_cells[index / 64] = 0;
            let bit = self.occupancy_bit(f);
            self.occupied[bit / 64] = 0;
        }
        self.parent.clear();
        self.summary.clear();
        let pos = order
            .iter()
            .rposition(|&o| o == c)
            .expect("occupancy bitmap and insertion order agree");
        order.remove(pos);
        self.order.reserve(order.len());
        for f in order {
            self.insert(f);
        }
        true
    }

    /// True when node `c` is faulty. Out-of-mesh coordinates are healthy.
    #[inline]
    pub fn is_faulty(&self, c: Coord3) -> bool {
        self.mesh.contains(c) && self.three(c.x as usize, self.row(c)) & 0b010 != 0
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no node is faulty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The faults in injection order.
    pub fn in_insertion_order(&self) -> &[Coord3] {
        &self.order
    }

    /// The faults as a dense [`Region3`].
    pub fn region(&self) -> Region3 {
        Region3::from_coords(self.order.iter().copied())
    }

    /// The roots of the components, in the `(z, y, x)` order of their
    /// minimal cells.
    fn roots(&self) -> impl Iterator<Item = u32> + '_ {
        self.min_cells
            .iter()
            .enumerate()
            .flat_map(move |(w, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let index = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.find(self.slots[index] - 1)
                    })
                })
            })
    }

    /// The 26-connected components of the faults, ordered by minimal
    /// `(z, y, x)` cell: the order a storage-order flood finds them in.
    pub fn components(&self) -> impl Iterator<Item = FaultComponent3> + '_ {
        self.roots().map(|root| self.summary[root as usize])
    }

    /// For each fault in insertion order, the index of its component in
    /// [`components`](Self::components).
    pub fn component_labels(&self) -> Vec<usize> {
        let mut rank = vec![0; self.order.len()];
        for (k, root) in self.roots().enumerate() {
            rank[root as usize] = k;
        }
        (0..self.order.len() as u32)
            .map(|i| rank[self.find(i) as usize])
            .collect()
    }
}

impl PartialEq for FaultSet3 {
    fn eq(&self, other: &Self) -> bool {
        self.mesh == other.mesh && self.order == other.order
    }
}

impl Eq for FaultSet3 {}

impl fmt::Debug for FaultSet3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultSet3")
            .field("mesh", &self.mesh)
            .field("order", &self.order)
            .finish()
    }
}

/// Incremental, seeded 3-D fault injector under the paper's two
/// distribution models: the `Mesh3D` instantiation of the generic
/// [`faultgen::FaultInjector`].
///
/// Like the 2-D instantiation, faults are added one at a time, so one
/// injector serves a whole fault-count sweep: the first `k` faults of a
/// sequence are exactly the faults the model would have produced for a
/// budget of `k`. The boost/undo weight bookkeeping lives in the shared
/// [`faultgen::WeightTable`]; nodes are flattened through
/// [`Mesh3D::index`], and `undo_last` / `snapshot` / `restore` /
/// `event_stream` all come from the generic implementation.
pub type FaultInjector3 = faultgen::FaultInjector<Mesh3D>;

/// Convenience wrapper: generates `count` faults in one call (delegates
/// to the generic [`faultgen::generate_faults`] at `Mesh3D`).
pub fn generate_faults_3d(
    mesh: Mesh3D,
    count: usize,
    distribution: faultgen::FaultDistribution,
    seed: u64,
) -> FaultSet3 {
    faultgen::generate_faults(mesh, count, distribution, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultgen::FaultDistribution;
    use mesh2d::FaultEvent;

    #[test]
    fn generates_requested_number_of_distinct_faults() {
        let mesh = Mesh3D::cube(8);
        for dist in FaultDistribution::ALL {
            let faults = generate_faults_3d(mesh, 40, dist, 7);
            assert_eq!(faults.len(), 40, "{dist:?}");
            assert!(faults
                .in_insertion_order()
                .iter()
                .all(|&c| mesh.contains(c)));
        }
    }

    #[test]
    fn deterministic_for_equal_seeds_and_prefix_property() {
        let mesh = Mesh3D::cube(6);
        let a = generate_faults_3d(mesh, 30, FaultDistribution::Clustered, 42);
        let b = generate_faults_3d(mesh, 30, FaultDistribution::Clustered, 42);
        assert_eq!(a.in_insertion_order(), b.in_insertion_order());
        let c = generate_faults_3d(mesh, 30, FaultDistribution::Clustered, 43);
        assert_ne!(a.in_insertion_order(), c.in_insertion_order());

        let mut inj = FaultInjector3::new(mesh, FaultDistribution::Clustered, 42);
        inj.inject_up_to(10);
        let first10 = inj.faults().in_insertion_order().to_vec();
        inj.inject_up_to(30);
        assert_eq!(&inj.faults().in_insertion_order()[..10], &first10[..]);
        assert_eq!(inj.faults().in_insertion_order(), a.in_insertion_order());
    }

    #[test]
    fn saturates_when_mesh_is_exhausted() {
        let mesh = Mesh3D::cube(2);
        let mut inj = FaultInjector3::new(mesh, FaultDistribution::Random, 1);
        assert_eq!(inj.inject_up_to(100), 8);
        assert!(inj.inject_one().is_none());
        assert!(!inj.is_empty());
        assert_eq!(inj.len(), 8);
    }

    #[test]
    fn undo_rewinds_the_generic_injector_exactly() {
        let mesh = Mesh3D::cube(5);
        for dist in FaultDistribution::ALL {
            let mut inj = FaultInjector3::new(mesh, dist, 5);
            inj.inject_up_to(10);
            let reference = inj.faults().clone();
            let snap = inj.snapshot();
            inj.inject_up_to(20);
            for _ in 0..10 {
                let event = inj.undo_last().expect("ten faults to rewind");
                assert!(matches!(event, FaultEvent::Repair(_)), "{dist:?}");
            }
            assert_eq!(
                inj.faults().in_insertion_order(),
                reference.in_insertion_order()
            );
            // The snapshot/restore contract holds through the shared core:
            // the continuation replays identically after a restore.
            inj.restore(&snap).expect("history matches the snapshot");
            inj.inject_up_to(20);
            let first: Vec<Coord3> = inj.faults().in_insertion_order().to_vec();
            inj.restore(&snap).expect("history matches the snapshot");
            inj.inject_up_to(20);
            assert_eq!(inj.faults().in_insertion_order(), &first[..], "{dist:?}");
        }
    }

    #[test]
    fn fault_set_remove_and_region_round_trip() {
        let mesh = Mesh3D::cube(4);
        let mut fs = FaultSet3::from_coords(
            mesh,
            [
                Coord3::new(0, 0, 0),
                Coord3::new(1, 1, 1),
                Coord3::new(9, 9, 9), // outside, ignored
                Coord3::new(1, 1, 1), // duplicate, ignored
            ],
        );
        assert_eq!(fs.len(), 2);
        assert!(fs.is_faulty(Coord3::new(1, 1, 1)));
        assert!(!fs.is_faulty(Coord3::new(9, 9, 9)));
        assert_eq!(fs.region().len(), 2);
        assert!(fs.remove(Coord3::new(0, 0, 0)));
        assert!(!fs.remove(Coord3::new(0, 0, 0)));
        assert_eq!(fs.in_insertion_order(), [Coord3::new(1, 1, 1)]);
    }
}
