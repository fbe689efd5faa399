//! Fault sets: which nodes of a mesh have failed.
//!
//! A [`FaultSet`] keeps both a dense membership grid (for O(1) queries inside
//! the labelling fixpoints) and the insertion order (the paper's simulation
//! adds faults sequentially, and the clustered fault model depends on that
//! order). [`FaultEvent`] is the vocabulary of *changes* to a fault set —
//! the unit consumed by streaming fault-monitoring engines.

use crate::{Coord, Grid, Mesh2D, Region};

/// One change to the fault population of a mesh.
///
/// The paper's evaluation only ever adds faults ("all faults are
/// sequentially added to the network"); streaming consumers also understand
/// the reverse transition, which models node recovery (repair) and lets an
/// injection sequence be rewound for bisection debugging.
///
/// The node address type is generic so the same event vocabulary serves
/// every mesh dimension (the generic fault injector in `faultgen` emits
/// `FaultEvent<T::Coord>`); it defaults to the 2-D [`Coord`], so 2-D code
/// reads `FaultEvent` unchanged.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultEvent<C = Coord> {
    /// Node `.0` fails.
    Inject(C),
    /// Node `.0` recovers.
    Repair(C),
}

impl<C: Copy> FaultEvent<C> {
    /// The node the event concerns.
    #[inline]
    pub fn node(self) -> C {
        match self {
            FaultEvent::Inject(c) | FaultEvent::Repair(c) => c,
        }
    }

    /// The event undoing this one (inject ⟷ repair of the same node).
    #[inline]
    pub fn inverse(self) -> FaultEvent<C> {
        match self {
            FaultEvent::Inject(c) => FaultEvent::Repair(c),
            FaultEvent::Repair(c) => FaultEvent::Inject(c),
        }
    }
}

/// The set of faulty nodes of a particular mesh.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultSet {
    mesh: Mesh2D,
    faulty: Grid<bool>,
    order: Vec<Coord>,
}

impl FaultSet {
    /// An empty fault set for `mesh`.
    pub fn new(mesh: Mesh2D) -> Self {
        FaultSet {
            mesh,
            faulty: Grid::for_mesh(&mesh, false),
            order: Vec::new(),
        }
    }

    /// Builds a fault set from a list of coordinates (duplicates and
    /// out-of-mesh coordinates are ignored).
    pub fn from_coords(mesh: Mesh2D, coords: impl IntoIterator<Item = Coord>) -> Self {
        let mut fs = Self::new(mesh);
        for c in coords {
            fs.insert(c);
        }
        fs
    }

    /// The mesh the faults live in.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }

    /// Marks `c` faulty. Returns `true` when the node was newly marked,
    /// `false` for duplicates or coordinates outside the mesh.
    pub fn insert(&mut self, c: Coord) -> bool {
        if !self.mesh.contains(c) || self.faulty[c] {
            return false;
        }
        self.faulty[c] = true;
        self.order.push(c);
        true
    }

    /// Clears the fault at `c`, modelling node recovery. Returns `true` when
    /// the node was faulty. O(1) when `c` is the most recently inserted fault
    /// (the common case when rewinding a sequence), O(n) otherwise.
    pub fn remove(&mut self, c: Coord) -> bool {
        if !self.is_faulty(c) {
            return false;
        }
        self.faulty[c] = false;
        if self.order.last() == Some(&c) {
            self.order.pop();
        } else {
            let pos = self
                .order
                .iter()
                .rposition(|&o| o == c)
                .expect("membership grid and insertion order agree");
            self.order.remove(pos);
        }
        true
    }

    /// Applies one event: inserts for [`FaultEvent::Inject`], removes for
    /// [`FaultEvent::Repair`]. Returns `true` when the set changed.
    pub fn apply(&mut self, event: FaultEvent) -> bool {
        match event {
            FaultEvent::Inject(c) => self.insert(c),
            FaultEvent::Repair(c) => self.remove(c),
        }
    }

    /// True when node `c` is faulty. Out-of-mesh coordinates are healthy.
    #[inline]
    pub fn is_faulty(&self, c: Coord) -> bool {
        self.faulty.get(c).copied().unwrap_or(false)
    }

    /// Number of faulty nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no node is faulty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Faulty nodes in insertion order.
    pub fn in_insertion_order(&self) -> &[Coord] {
        &self.order
    }

    /// The faulty nodes as a [`Region`].
    pub fn region(&self) -> Region {
        Region::from_coords(self.order.iter().copied())
    }

    /// Fraction of the mesh that has failed.
    pub fn fault_rate(&self) -> f64 {
        self.len() as f64 / self.mesh.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mesh = Mesh2D::square(5);
        let mut fs = FaultSet::new(mesh);
        assert!(fs.is_empty());
        assert!(fs.insert(Coord::new(2, 2)));
        assert!(!fs.insert(Coord::new(2, 2)), "duplicate insert rejected");
        assert!(!fs.insert(Coord::new(9, 9)), "out-of-mesh insert rejected");
        assert!(fs.is_faulty(Coord::new(2, 2)));
        assert!(!fs.is_faulty(Coord::new(0, 0)));
        assert!(!fs.is_faulty(Coord::new(-3, 0)));
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn insertion_order_preserved() {
        let mesh = Mesh2D::square(5);
        let coords = [Coord::new(4, 4), Coord::new(0, 0), Coord::new(2, 3)];
        let fs = FaultSet::from_coords(mesh, coords);
        assert_eq!(fs.in_insertion_order(), &coords);
        assert_eq!(fs.region().len(), 3);
    }

    #[test]
    fn remove_clears_grid_and_order() {
        let mesh = Mesh2D::square(5);
        let mut fs = FaultSet::from_coords(mesh, [Coord::new(1, 1), Coord::new(2, 2)]);
        assert!(fs.remove(Coord::new(2, 2)), "last fault is O(1) to remove");
        assert!(!fs.is_faulty(Coord::new(2, 2)));
        assert_eq!(fs.in_insertion_order(), &[Coord::new(1, 1)]);
        assert!(!fs.remove(Coord::new(2, 2)), "double remove rejected");
        assert!(fs.insert(Coord::new(2, 2)), "removed nodes can fail again");
    }

    #[test]
    fn remove_from_middle_preserves_order() {
        let mesh = Mesh2D::square(5);
        let coords = [Coord::new(0, 0), Coord::new(1, 1), Coord::new(2, 2)];
        let mut fs = FaultSet::from_coords(mesh, coords);
        assert!(fs.remove(Coord::new(1, 1)));
        assert_eq!(
            fs.in_insertion_order(),
            &[Coord::new(0, 0), Coord::new(2, 2)]
        );
    }

    #[test]
    fn events_round_trip() {
        let mesh = Mesh2D::square(5);
        let mut fs = FaultSet::new(mesh);
        let inject = FaultEvent::Inject(Coord::new(3, 3));
        assert_eq!(inject.node(), Coord::new(3, 3));
        assert!(fs.apply(inject));
        assert!(fs.is_faulty(Coord::new(3, 3)));
        assert!(fs.apply(inject.inverse()));
        assert!(fs.is_empty());
        assert_eq!(inject.inverse().inverse(), inject);
    }

    #[test]
    fn fault_rate() {
        let mesh = Mesh2D::square(10);
        let fs = FaultSet::from_coords(mesh, (0..5).map(|i| Coord::new(i, 0)));
        assert!((fs.fault_rate() - 0.05).abs() < 1e-12);
    }
}
