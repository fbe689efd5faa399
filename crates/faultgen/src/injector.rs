//! Sequential fault injection under the paper's two distribution models,
//! generic over the mesh topology.
//!
//! One [`FaultInjector`] drives every dimension: the topology supplies
//! dense node indexing (for the flat [`WeightTable`] sampling core), and
//! the injector supplies the seeded draw / boost / undo loop and the
//! cluster neighborhood whose failure rate the clustered model doubles
//! ([`cluster_indices`]: the word grid's full neighborhood, 8 nodes in a
//! plane and 26 across planes, enumerated in place). The 2-D injector is
//! `FaultInjector<Mesh2D>` (the default, so existing code reads
//! unchanged) and the 3-D injector is
//! `mocp_3d::FaultInjector3 = FaultInjector<Mesh3D>` — the same code
//! path, byte-for-byte identical fault sequences for equal seeds.

use crate::weights::{DrawRecord, WeightTable};
use mesh2d::{FaultEvent, GridCoord, Mesh2D};
use mocp_topology::{FaultStore, MeshTopology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which of the paper's two fault distribution models to use.
///
/// The enum is shared by every dimension — 2-D and 3-D sweeps spell their
/// `--distribution` flags and series labels identically — and only the
/// meaning of *adjacent* ([`cluster_indices`]) differs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultDistribution {
    /// Every healthy node is equally likely to fail next.
    Random,
    /// Healthy nodes adjacent (the cluster neighborhood: 8 neighbors in
    /// 2-D, 26 in 3-D) to an existing fault fail with twice
    /// the base rate, so faults tend to form clusters.
    Clustered,
}

impl FaultDistribution {
    /// Both models, in the order the paper presents them.
    pub const ALL: [FaultDistribution; 2] =
        [FaultDistribution::Random, FaultDistribution::Clustered];

    /// Short label used by the experiment harness ("random" / "clustered").
    pub fn label(self) -> &'static str {
        match self {
            FaultDistribution::Random => "random",
            FaultDistribution::Clustered => "clustered",
        }
    }

    /// Parses a [`label`](Self::label) (ASCII case-insensitive) back into
    /// the distribution — the single parser every CLI flag goes through,
    /// so the spelling is identical across dimensions.
    pub fn from_label(label: &str) -> Option<FaultDistribution> {
        FaultDistribution::ALL
            .into_iter()
            .find(|d| d.label().eq_ignore_ascii_case(label))
    }
}

/// A rewind point of a [`FaultInjector`]: the fault sequence injected so
/// far plus the RNG state, captured by [`FaultInjector::snapshot`].
///
/// Restoring a snapshot rewinds the injector to exactly this state, so
/// injecting again reproduces the same continuation — the property bisection
/// debugging and repair scenarios rely on.
#[derive(Clone, Debug)]
pub struct InjectorSnapshot<T: MeshTopology = Mesh2D> {
    /// The faults present when the snapshot was taken, in insertion order —
    /// both the rewind target and the proof the snapshot belongs to the
    /// injector's current history.
    prefix: Vec<T::Coord>,
    rng: StdRng,
}

impl<T: MeshTopology> InjectorSnapshot<T> {
    /// Number of faults present when the snapshot was taken.
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// True when the snapshot captured a fault-free injector.
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty()
    }
}

/// Incremental, seeded fault injector for any [`MeshTopology`].
///
/// Faults are added one at a time, which matches the paper's "all faults are
/// sequentially added to the network" and lets a single injector serve a
/// whole fault-count sweep: the first `k` faults of a sequence are exactly
/// the faults the model would have produced for a budget of `k`.
///
/// Every injection is recorded in an undo log, so a sequence can also be
/// rewound ([`undo_last`](Self::undo_last)) or rolled back to a
/// [`snapshot`](Self::snapshot) with the clustered model's weight
/// bookkeeping restored exactly — the building blocks of repair scenarios
/// and bisection debugging.
#[derive(Clone, Debug)]
pub struct FaultInjector<T: MeshTopology = Mesh2D> {
    mesh: T,
    distribution: FaultDistribution,
    rng: StdRng,
    faults: T::FaultSet,
    /// Relative failure weight per node (1 base rate, 2 once adjacent to a
    /// fault under the clustered model, 0 once faulty), kept by the
    /// dimension-generic sampling core. Nodes are flattened through
    /// [`MeshTopology::index`].
    weights: WeightTable,
    /// One record per injection, in order; popped by `undo_last`.
    log: Vec<DrawRecord>,
}

impl<T: MeshTopology> FaultInjector<T> {
    /// Creates an injector for `mesh` with the given model and RNG seed.
    pub fn new(mesh: T, distribution: FaultDistribution, seed: u64) -> Self {
        FaultInjector {
            mesh,
            distribution,
            rng: StdRng::seed_from_u64(seed),
            faults: T::FaultSet::empty(mesh),
            weights: WeightTable::uniform(mesh.node_count()),
            log: Vec::new(),
        }
    }

    /// The mesh being injected into.
    pub fn mesh(&self) -> &T {
        &self.mesh
    }

    /// The distribution model in use.
    pub fn distribution(&self) -> FaultDistribution {
        self.distribution
    }

    /// The faults injected so far.
    pub fn faults(&self) -> &T::FaultSet {
        &self.faults
    }

    /// The per-node failure weights the next draw samples from.
    pub fn weights(&self) -> &WeightTable {
        &self.weights
    }

    /// Number of faults injected so far.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no fault has been injected yet.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Injects one more fault and returns its position, or `None` when every
    /// node has already failed.
    pub fn inject_one(&mut self) -> Option<T::Coord> {
        if self.weights.total() == 0 {
            return None;
        }
        let target = self.rng.gen_range(0..self.weights.total());
        let victim = self.mesh.coord(self.weights.locate(target)?);
        self.mark_faulty(victim);
        Some(victim)
    }

    /// Injects faults until `count` faults exist in total. Returns the number
    /// of faults actually present afterwards (saturating at the mesh size).
    pub fn inject_up_to(&mut self, count: usize) -> usize {
        while self.faults.len() < count {
            if self.inject_one().is_none() {
                break;
            }
        }
        self.faults.len()
    }

    fn mark_faulty(&mut self, victim: T::Coord) {
        let newly_faulty = self.faults.insert(victim);
        // A failed insert would desynchronize the undo log from the fault
        // set (locate() must never return a zero-weight node).
        debug_assert!(newly_faulty, "{victim:?} is already faulty");
        let victim_index = self.mesh.index(victim);
        // The shared core does the zero/boost/undo bookkeeping; the
        // clustered model boosts the victim's full neighborhood.
        let record = match self.distribution {
            FaultDistribution::Clustered => {
                let mut neighbors = [0; 26];
                let neighbors = cluster_indices(&self.mesh, victim, &mut neighbors);
                self.weights
                    .mark_faulty(victim_index, neighbors.iter().copied())
            }
            FaultDistribution::Random => self.weights.mark_faulty(victim_index, []),
        };
        self.log.push(record);
    }

    /// Un-injects the most recent fault, restoring the weight bookkeeping
    /// (including the clustered model's neighbor boosts) exactly. Returns the
    /// repair event for the revived node, ready to be fed to a streaming
    /// consumer, or `None` when no fault remains.
    ///
    /// The RNG is **not** rewound — use [`snapshot`](Self::snapshot) /
    /// [`restore`](Self::restore) when the continuation must replay
    /// identically.
    pub fn undo_last(&mut self) -> Option<FaultEvent<T::Coord>> {
        let record = self.log.pop()?;
        let victim = self.mesh.coord(record.victim());
        self.weights.undo(record);
        self.faults.remove(victim);
        Some(FaultEvent::Repair(victim))
    }

    /// Captures the injector's current state (fault sequence + RNG state) as
    /// a rewind point for [`restore`](Self::restore).
    pub fn snapshot(&self) -> InjectorSnapshot<T> {
        InjectorSnapshot {
            prefix: self.faults.in_insertion_order().to_vec(),
            rng: self.rng.clone(),
        }
    }

    /// Rewinds to `snapshot` by undoing every fault injected since it was
    /// taken and restoring the RNG, so the continuation replays identically.
    /// Returns the repair events in undo (most-recent-first) order. Returns
    /// `None` — and changes nothing — when the snapshot does not belong to
    /// this injector's current history: taken ahead of the current state, or
    /// taken before the history diverged (e.g. by `undo_last` followed by
    /// fresh injections, which draw from an un-rewound RNG).
    pub fn restore(&mut self, snapshot: &InjectorSnapshot<T>) -> Option<Vec<FaultEvent<T::Coord>>> {
        let order = self.faults.in_insertion_order();
        if !order.starts_with(&snapshot.prefix) {
            return None;
        }
        let mut repairs = Vec::with_capacity(order.len() - snapshot.prefix.len());
        while self.faults.len() > snapshot.prefix.len() {
            repairs.push(self.undo_last().expect("log holds every fault"));
        }
        self.rng = snapshot.rng.clone();
        Some(repairs)
    }

    /// Streams up to `count` further injections as [`FaultEvent::Inject`]
    /// events — the adapter that feeds an injector into an event-driven
    /// consumer (e.g. `mocp_incremental`'s engine). The stream ends early
    /// when the mesh is exhausted.
    pub fn event_stream(&mut self, count: usize) -> EventStream<'_, T> {
        EventStream {
            injector: self,
            remaining: count,
        }
    }
}

/// Iterator returned by [`FaultInjector::event_stream`]: each `next` injects
/// one fault and yields it as an event.
#[derive(Debug)]
pub struct EventStream<'a, T: MeshTopology = Mesh2D> {
    injector: &'a mut FaultInjector<T>,
    remaining: usize,
}

impl<T: MeshTopology> Iterator for EventStream<'_, T> {
    type Item = FaultEvent<T::Coord>;

    fn next(&mut self) -> Option<FaultEvent<T::Coord>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.injector.inject_one().map(FaultEvent::Inject)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

/// The in-mesh *cluster* neighborhood of `c` — the adjacency of the paper's
/// Definition 2, the word grid's full neighborhood (the 8 nodes around `c`
/// in its plane, 26 across planes when `T::DIM` is 3) — as dense
/// [`MeshTopology::index`]es, written into `out` in `(z, y, x)` order. Returns
/// the filled prefix of `out`. The clustered model doubles these nodes'
/// failure rate; enumerating them in place spares each draw a neighbour
/// list on the heap.
pub fn cluster_indices<'a, T: MeshTopology>(
    mesh: &T,
    c: T::Coord,
    out: &'a mut [usize; 26],
) -> &'a [usize] {
    let (x, y, z) = c.xyz();
    let planes = if T::DIM == 2 { 0..=0 } else { -1..=1 };
    let mut len = 0;
    for dz in planes {
        for dy in -1..=1 {
            for dx in -1..=1 {
                let n = T::Coord::from_xyz(x + dx, y + dy, z + dz);
                if (dx, dy, dz) != (0, 0, 0) && mesh.contains(n) {
                    out[len] = mesh.index(n);
                    len += 1;
                }
            }
        }
    }
    &out[..len]
}

/// Convenience wrapper: generates `count` faults in one call, for any
/// topology (`generate_faults(Mesh2D::square(..), ..)` returns a 2-D
/// `FaultSet`; `mocp_3d::generate_faults_3d` delegates here with `Mesh3D`).
pub fn generate_faults<T: MeshTopology>(
    mesh: T,
    count: usize,
    distribution: FaultDistribution,
    seed: u64,
) -> T::FaultSet {
    let mut inj = FaultInjector::new(mesh, distribution, seed);
    inj.inject_up_to(count);
    inj.faults().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{BitGrid, Connectivity, Coord, Region};

    /// The clustered model boosts each victim's [`cluster_indices`]: they
    /// must be the victim's dilation minus the victim, clipped to the mesh,
    /// at every node, borders and corners included. With the weight
    /// table's boost bookkeeping (`weights::tests`), this makes the
    /// injector's weight-2 set the dilation of the faults minus the faults.
    #[test]
    fn cluster_neighbors_are_the_clipped_dilation() {
        for mesh in [
            Mesh2D::square(1),
            Mesh2D::mesh(1, 5),
            Mesh2D::mesh(7, 1),
            Mesh2D::mesh(65, 4),
        ] {
            for i in 0..mesh.node_count() {
                let c = MeshTopology::coord(&mesh, i);
                let mut buf = [0; 26];
                let mut neighbors: Vec<Coord> = cluster_indices(&mesh, c, &mut buf)
                    .iter()
                    .map(|&n| MeshTopology::coord(&mesh, n))
                    .collect();
                neighbors.sort_unstable();
                let mut dilation: Vec<Coord> = BitGrid::from_coords([c])
                    .dilate()
                    .iter()
                    .filter(|&n| n != c && MeshTopology::contains(&mesh, n))
                    .collect();
                dilation.sort_unstable();
                assert_eq!(neighbors, dilation, "{c} on {mesh:?}");
            }
        }
    }

    #[test]
    fn generates_requested_number_of_distinct_faults() {
        let mesh = Mesh2D::square(20);
        for dist in FaultDistribution::ALL {
            let faults = generate_faults(mesh, 50, dist, 7);
            assert_eq!(faults.len(), 50, "{dist:?}");
            // FaultSet rejects duplicates, so length == 50 implies distinct.
            assert!(faults
                .in_insertion_order()
                .iter()
                .all(|c| mesh.contains(*c)));
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mesh = Mesh2D::square(16);
        let a = generate_faults(mesh, 30, FaultDistribution::Clustered, 42);
        let b = generate_faults(mesh, 30, FaultDistribution::Clustered, 42);
        assert_eq!(a.in_insertion_order(), b.in_insertion_order());
        let c = generate_faults(mesh, 30, FaultDistribution::Clustered, 43);
        assert_ne!(a.in_insertion_order(), c.in_insertion_order());
    }

    #[test]
    fn prefix_property_of_incremental_injection() {
        let mesh = Mesh2D::square(16);
        let mut inj = FaultInjector::new(mesh, FaultDistribution::Clustered, 9);
        inj.inject_up_to(10);
        let first10: Vec<_> = inj.faults().in_insertion_order().to_vec();
        inj.inject_up_to(25);
        assert_eq!(&inj.faults().in_insertion_order()[..10], &first10[..]);
        assert_eq!(inj.len(), 25);
    }

    #[test]
    fn saturates_when_mesh_is_exhausted() {
        let mesh = Mesh2D::square(3);
        let mut inj = FaultInjector::new(mesh, FaultDistribution::Random, 1);
        assert_eq!(inj.inject_up_to(100), 9);
        assert!(inj.inject_one().is_none());
    }

    #[test]
    fn clustered_model_produces_fewer_components_than_random() {
        // Statistical sanity check on moderately large instances: clustering
        // should (on average) pack the same number of faults into fewer
        // 8-connected components than uniform placement. Averaged over seeds
        // to keep the test stable.
        let mesh = Mesh2D::square(40);
        let count = 120;
        let mut random_components = 0usize;
        let mut clustered_components = 0usize;
        for seed in 0..8 {
            let rf = generate_faults(mesh, count, FaultDistribution::Random, seed);
            let cf = generate_faults(mesh, count, FaultDistribution::Clustered, seed);
            random_components += Region::from_coords(rf.in_insertion_order().iter().copied())
                .components(Connectivity::Eight)
                .len();
            clustered_components += Region::from_coords(cf.in_insertion_order().iter().copied())
                .components(Connectivity::Eight)
                .len();
        }
        assert!(
            clustered_components < random_components,
            "clustered {clustered_components} should be < random {random_components}"
        );
    }

    #[test]
    fn undo_restores_weight_bookkeeping_exactly() {
        let mesh = Mesh2D::square(12);
        for dist in FaultDistribution::ALL {
            let mut inj = FaultInjector::new(mesh, dist, 5);
            inj.inject_up_to(10);
            let reference = inj.clone();
            inj.inject_up_to(17);
            for _ in 0..7 {
                assert!(inj.undo_last().is_some());
            }
            assert_eq!(
                inj.faults().in_insertion_order(),
                reference.faults().in_insertion_order()
            );
            assert_eq!(inj.weights, reference.weights, "{dist:?}");
        }
    }

    /// Snapshot/restore must round-trip the shared sampling core: after a
    /// restore, the weight table (boosts included) is bit-identical to the
    /// one captured at snapshot time.
    #[test]
    fn snapshot_restore_round_trips_the_shared_weight_core() {
        let mesh = Mesh2D::square(10);
        for dist in FaultDistribution::ALL {
            let mut inj = FaultInjector::new(mesh, dist, 21);
            inj.inject_up_to(8);
            let snap = inj.snapshot();
            let weights_at_snapshot = inj.weights.clone();
            inj.inject_up_to(30);
            assert_ne!(inj.weights, weights_at_snapshot, "{dist:?}");
            inj.restore(&snap).expect("snapshot is behind the head");
            assert_eq!(inj.weights, weights_at_snapshot, "{dist:?}");
            assert!(inj.weights.total() > 0, "{dist:?}");
        }
    }

    #[test]
    fn undo_yields_repair_events_in_reverse_order() {
        let mesh = Mesh2D::square(8);
        let mut inj = FaultInjector::new(mesh, FaultDistribution::Clustered, 3);
        let injected: Vec<_> = inj.event_stream(4).collect();
        assert_eq!(injected.len(), 4);
        let mut repairs = Vec::new();
        while let Some(e) = inj.undo_last() {
            repairs.push(e);
        }
        let expected: Vec<_> = injected.iter().rev().map(|e| e.inverse()).collect();
        assert_eq!(repairs, expected);
        assert!(inj.is_empty());
        assert!(inj.undo_last().is_none());
    }

    #[test]
    fn snapshot_restore_replays_the_same_continuation() {
        let mesh = Mesh2D::square(14);
        let mut inj = FaultInjector::new(mesh, FaultDistribution::Clustered, 11);
        inj.inject_up_to(6);
        let snap = inj.snapshot();
        assert_eq!(snap.len(), 6);
        assert!(!snap.is_empty());

        inj.inject_up_to(20);
        let first_run: Vec<_> = inj.faults().in_insertion_order()[6..].to_vec();
        let repairs = inj.restore(&snap).expect("snapshot is behind the head");
        assert_eq!(repairs.len(), 14);
        assert_eq!(inj.len(), 6);

        inj.inject_up_to(20);
        let second_run: Vec<_> = inj.faults().in_insertion_order()[6..].to_vec();
        assert_eq!(first_run, second_run, "restored RNG replays identically");
    }

    #[test]
    fn restore_rejects_snapshots_from_the_future() {
        let mesh = Mesh2D::square(6);
        let mut inj = FaultInjector::new(mesh, FaultDistribution::Random, 1);
        inj.inject_up_to(5);
        let snap = inj.snapshot();
        inj.restore(&snap).expect("no-op restore succeeds");
        while inj.undo_last().is_some() {}
        assert!(
            inj.restore(&snap).is_none(),
            "snapshot is ahead of the head"
        );
        assert!(inj.is_empty(), "failed restore changes nothing");
    }

    #[test]
    fn restore_rejects_diverged_histories() {
        let mesh = Mesh2D::square(10);
        let mut inj = FaultInjector::new(mesh, FaultDistribution::Clustered, 4);
        inj.inject_up_to(5);
        let snap = inj.snapshot();
        // Rewind below the snapshot, then take a different path: the fresh
        // injections draw from the un-rewound RNG, so the history diverges.
        for _ in 0..3 {
            inj.undo_last();
        }
        inj.inject_up_to(5);
        if inj.faults().in_insertion_order() != &snap.prefix[..] {
            assert!(
                inj.restore(&snap).is_none(),
                "a snapshot from another history must be rejected"
            );
            assert_eq!(inj.len(), 5, "failed restore changes nothing");
        }
    }

    #[test]
    fn event_stream_matches_inject_up_to() {
        let mesh = Mesh2D::square(10);
        let mut a = FaultInjector::new(mesh, FaultDistribution::Clustered, 9);
        let mut b = FaultInjector::new(mesh, FaultDistribution::Clustered, 9);
        let events: Vec<_> = a.event_stream(12).collect();
        b.inject_up_to(12);
        let expected: Vec<_> = b
            .faults()
            .in_insertion_order()
            .iter()
            .map(|&c| FaultEvent::Inject(c))
            .collect();
        assert_eq!(events, expected);
        assert_eq!(a.event_stream(0).next(), None);
    }

    #[test]
    fn labels_round_trip_through_the_shared_parser() {
        assert_eq!(FaultDistribution::Random.label(), "random");
        assert_eq!(FaultDistribution::Clustered.label(), "clustered");
        for dist in FaultDistribution::ALL {
            assert_eq!(FaultDistribution::from_label(dist.label()), Some(dist));
        }
        assert_eq!(
            FaultDistribution::from_label("CLUSTERED"),
            Some(FaultDistribution::Clustered)
        );
        assert_eq!(FaultDistribution::from_label("poisson"), None);
    }
}
