//! The routing workload's correctness oracle: which node pairs are
//! connected through enabled nodes, and whether a path is a valid walk.
//! Independent of `meshroute`: a plain breadth-first labelling of the
//! enabled nodes' 4-connected components.

use mesh2d::{Coord, Mesh2D, StatusMap};
use std::collections::VecDeque;

const EXCLUDED: u32 = u32::MAX;

/// Component labels of the enabled nodes of one status map.
pub struct Components {
    mesh: Mesh2D,
    labels: Vec<u32>,
}

impl Components {
    /// Labels every enabled node by BFS over its enabled 4-neighbours.
    pub fn of(mesh: &Mesh2D, status: &StatusMap) -> Components {
        let mut labels = vec![EXCLUDED; mesh.node_count()];
        let enabled = |c: Coord| !status.status(c).is_excluded();
        let mut next = 0;
        let mut queue = VecDeque::new();
        for start in mesh.nodes() {
            if !enabled(start) || labels[mesh.index_of(start)] != EXCLUDED {
                continue;
            }
            labels[mesh.index_of(start)] = next;
            queue.push_back(start);
            while let Some(c) = queue.pop_front() {
                for n in mesh.neighbors4(c) {
                    let i = mesh.index_of(n);
                    if labels[i] == EXCLUDED && enabled(n) {
                        labels[i] = next;
                        queue.push_back(n);
                    }
                }
            }
            next += 1;
        }
        Components {
            mesh: *mesh,
            labels,
        }
    }

    /// True when both nodes are enabled and joined by enabled nodes.
    pub fn connected(&self, a: Coord, b: Coord) -> bool {
        if !self.mesh.contains(a) || !self.mesh.contains(b) {
            return false;
        }
        let (la, lb) = (
            self.labels[self.mesh.index_of(a)],
            self.labels[self.mesh.index_of(b)],
        );
        la != EXCLUDED && la == lb
    }
}

/// True when `hops` is a 4-connected walk over enabled nodes from `src`
/// to `dst`.
pub fn valid_walk(status: &StatusMap, hops: &[Coord], src: Coord, dst: Coord) -> bool {
    hops.first() == Some(&src)
        && hops.last() == Some(&dst)
        && hops
            .iter()
            .all(|&c| status.get(c).is_some_and(|s| !s.is_excluded()))
        && hops.windows(2).all(|w| w[0].is_neighbor4(w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{FaultSet, NodeStatus};
    use meshroute::{ExtendedECube, PairSample, RoutingExperiment};

    /// Checks the oracle against `RoutingExperiment`, on a status map where
    /// the router is known to deliver every connected pair.
    fn agrees_with_routing_experiment(mesh: &Mesh2D, status: &StatusMap, stride: usize) {
        let sample = PairSample::strided(mesh, stride);
        let comps = Components::of(mesh, status);
        let stats = RoutingExperiment::with_sample(mesh, status, sample.clone()).run();
        let connected = sample
            .iter()
            .filter(|&(s, d)| comps.connected(s, d))
            .count();
        assert_eq!(stats.unreachable, 0);
        assert_eq!(
            connected, stats.delivered,
            "oracle-connected pairs = delivered pairs"
        );
        let router = ExtendedECube::new(mesh, status);
        for (s, d) in sample.iter() {
            if let Ok(path) = router.route(s, d) {
                assert!(comps.connected(s, d));
                assert!(valid_walk(status, &path.hops, s, d));
            }
        }
    }

    #[test]
    fn fault_free_mesh_is_one_component() {
        let mesh = Mesh2D::square(8);
        let status = StatusMap::all_enabled(&mesh);
        let comps = Components::of(&mesh, &status);
        assert!(mesh.nodes().all(|c| comps.connected(Coord::new(0, 0), c)));
        agrees_with_routing_experiment(&mesh, &status, 3);
    }

    #[test]
    fn single_polygon_excludes_only_its_nodes() {
        let mesh = Mesh2D::square(9);
        let faults = FaultSet::from_coords(
            mesh,
            [(4, 3), (4, 4), (4, 5), (3, 4)].map(|(x, y)| Coord::new(x, y)),
        );
        let status = StatusMap::from_faults(&mesh, &faults.region());
        let comps = Components::of(&mesh, &status);
        assert!(!comps.connected(Coord::new(4, 4), Coord::new(0, 0)));
        assert!(comps.connected(Coord::new(3, 3), Coord::new(5, 5)));
        agrees_with_routing_experiment(&mesh, &status, 2);
    }

    #[test]
    fn a_wall_splits_the_mesh() {
        let mesh = Mesh2D::square(6);
        let mut status = StatusMap::all_enabled(&mesh);
        for y in 0..6 {
            status.set(Coord::new(3, y), NodeStatus::Faulty);
        }
        let comps = Components::of(&mesh, &status);
        assert!(!comps.connected(Coord::new(0, 0), Coord::new(5, 5)));
        assert!(comps.connected(Coord::new(0, 0), Coord::new(2, 5)));
        let walk = [Coord::new(0, 0), Coord::new(1, 0), Coord::new(1, 1)];
        assert!(valid_walk(&status, &walk, walk[0], walk[2]));
        assert!(!valid_walk(&status, &walk[..2], walk[0], walk[2]));
        let jump = [Coord::new(0, 0), Coord::new(1, 1)];
        assert!(!valid_walk(&status, &jump, jump[0], jump[1]));
        let through_wall = [Coord::new(2, 0), Coord::new(3, 0), Coord::new(4, 0)];
        assert!(!valid_walk(
            &status,
            &through_wall,
            through_wall[0],
            through_wall[2]
        ));
    }
}
