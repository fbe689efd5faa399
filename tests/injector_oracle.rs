//! The fault injector against the scalar path it replaced.
//!
//! The oracle here injects the way the injector did before it enumerated
//! the cluster neighborhood in place: a `Vec` of neighbor coordinates per
//! fault (the 8-neighborhood of `Mesh2D::neighbors8` in 2-D, a triple loop
//! over the 26-neighborhood in 3-D), a `Vec` of boosted indices per undo
//! record, and draws located by a linear walk over the weights. Both sides
//! draw from the same seeded RNG, so they must agree on every fault, on
//! every repair, and on every weight after `undo_last` and `restore`.

use faultgen::{FaultDistribution, FaultInjector};
use mesh2d::{Coord, FaultEvent, Mesh2D};
use mocp_3d::{Coord3, Mesh3D};
use mocp_topology::{FaultStore, MeshTopology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The in-mesh neighbors of a node, as a list of coordinates.
type Neighbors<T> = fn(&T, <T as MeshTopology>::Coord) -> Vec<<T as MeshTopology>::Coord>;

fn neighbors_2d(mesh: &Mesh2D, c: Coord) -> Vec<Coord> {
    mesh.neighbors8(c).collect()
}

fn neighbors_3d(mesh: &Mesh3D, c: Coord3) -> Vec<Coord3> {
    let mut out = Vec::new();
    for dz in -1..=1 {
        for dy in -1..=1 {
            for dx in -1..=1 {
                let n = Coord3::new(c.x + dx, c.y + dy, c.z + dz);
                if (dx, dy, dz) != (0, 0, 0) && mesh.contains(n) {
                    out.push(n);
                }
            }
        }
    }
    out
}

/// One undo record of the scalar path: victim, prior weight and the
/// indices it boosted.
type Record = (usize, u32, Vec<usize>);

/// The scalar injector.
struct Scalar<T: MeshTopology> {
    mesh: T,
    clustered: bool,
    neighbors: Neighbors<T>,
    rng: StdRng,
    weight: Vec<u32>,
    faults: Vec<T::Coord>,
    log: Vec<Record>,
}

impl<T: MeshTopology> Scalar<T> {
    fn new(mesh: T, distribution: FaultDistribution, seed: u64, neighbors: Neighbors<T>) -> Self {
        Scalar {
            mesh,
            clustered: distribution == FaultDistribution::Clustered,
            neighbors,
            rng: StdRng::seed_from_u64(seed),
            weight: vec![1; mesh.node_count()],
            faults: Vec::new(),
            log: Vec::new(),
        }
    }

    fn total(&self) -> u64 {
        self.weight.iter().map(|&w| w as u64).sum()
    }

    fn inject_one(&mut self) -> Option<T::Coord> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let mut target = self.rng.gen_range(0..total);
        let victim = self.weight.iter().position(|&w| {
            let hit = target < w as u64;
            target = target.saturating_sub(w as u64);
            hit
        })?;
        let prior = self.weight[victim];
        self.weight[victim] = 0;
        let c = self.mesh.coord(victim);
        let mut boosted = Vec::new();
        if self.clustered {
            for n in (self.neighbors)(&self.mesh, c) {
                let i = self.mesh.index(n);
                if self.weight[i] == 1 {
                    self.weight[i] = 2;
                    boosted.push(i);
                }
            }
        }
        self.log.push((victim, prior, boosted));
        self.faults.push(c);
        Some(c)
    }

    fn undo_last(&mut self) -> Option<T::Coord> {
        let (victim, prior, boosted) = self.log.pop()?;
        for i in boosted {
            self.weight[i] = 1;
        }
        self.weight[victim] = prior;
        self.faults.pop()
    }
}

/// The injector's weights equal the oracle's, node by node and in total.
fn assert_same_weights<T: MeshTopology>(inj: &FaultInjector<T>, oracle: &Scalar<T>, at: &str) {
    let table = inj.weights();
    assert_eq!(table.len(), oracle.weight.len(), "{at}");
    for (i, &w) in oracle.weight.iter().enumerate() {
        assert_eq!(table.weight_of(i), w, "{at}: node {i}");
    }
    assert_eq!(table.total(), oracle.total(), "{at}: total");
}

/// Injects `count` faults on both sides, one at a time.
fn inject_both<T: MeshTopology>(
    inj: &mut FaultInjector<T>,
    oracle: &mut Scalar<T>,
    count: usize,
    at: &str,
) {
    for k in 0..count {
        assert_eq!(inj.inject_one(), oracle.inject_one(), "{at}: draw {k}");
    }
    assert_eq!(
        inj.faults().in_insertion_order(),
        &oracle.faults[..],
        "{at}"
    );
}

/// Runs one draw sequence through injection, undo, re-injection, restore
/// and a replay, checking the injector against the oracle at each step.
/// `count` is the fault budget; with `count` at or above the node count
/// the sequence runs the mesh dry.
fn check<T: MeshTopology>(mesh: T, neighbors: Neighbors<T>, count: usize, seeds: &[u64]) {
    for &seed in seeds {
        for dist in FaultDistribution::ALL {
            let at = format!("{mesh:?} {dist:?} seed {seed}");
            let mut inj = FaultInjector::new(mesh, dist, seed);
            let mut oracle = Scalar::new(mesh, dist, seed, neighbors);
            let head = count / 3;
            inject_both(&mut inj, &mut oracle, head, &at);
            let snapshot = inj.snapshot();
            let (snapshot_faults, snapshot_rng) = (oracle.faults.len(), oracle.rng.clone());
            let snapshot_weights = inj.weights().clone();

            inject_both(&mut inj, &mut oracle, count - head, &at);
            assert_same_weights(&inj, &oracle, &at);
            let undone = (count - head) / 2;
            for k in 0..undone {
                let repaired = oracle.undo_last().map(FaultEvent::Repair);
                assert_eq!(inj.undo_last(), repaired, "{at}: undo {k}");
                assert_same_weights(&inj, &oracle, &format!("{at}: undo {k}"));
            }
            inject_both(&mut inj, &mut oracle, undone, &format!("{at}: re-injected"));
            assert_same_weights(&inj, &oracle, &format!("{at}: re-injected"));

            inj.restore(&snapshot)
                .expect("the snapshot is behind the head");
            while oracle.faults.len() > snapshot_faults {
                oracle.undo_last();
            }
            oracle.rng = snapshot_rng;
            assert_same_weights(&inj, &oracle, &format!("{at}: restored"));
            assert_eq!(inj.weights(), &snapshot_weights, "{at}: restored");
            inject_both(
                &mut inj,
                &mut oracle,
                count - head,
                &format!("{at}: replayed"),
            );
            assert_same_weights(&inj, &oracle, &format!("{at}: replayed"));
            assert_eq!(inj.inject_one(), oracle.inject_one(), "{at}: one past");
        }
    }
}

#[test]
fn injector_matches_the_scalar_path_on_a_100_square_mesh() {
    check(Mesh2D::square(100), neighbors_2d, 400, &[0, 7, 2004]);
}

#[test]
fn injector_matches_the_scalar_path_on_a_32_cube_mesh() {
    check(Mesh3D::cube(32), neighbors_3d, 240, &[0, 2004]);
}

/// Meshes whose nodes nearly all sit on the border (every node of
/// 2×2×2, eight of nine in 3×3), run dry.
#[test]
fn injector_matches_the_scalar_path_on_all_border_meshes() {
    let seeds: Vec<u64> = (0..12).collect();
    check(Mesh2D::square(3), neighbors_2d, 9, &seeds);
    check(Mesh3D::cube(2), neighbors_3d, 8, &seeds);
}
