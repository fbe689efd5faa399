//! Batch routing experiments over a fault-model outcome.
//!
//! The routing layer is how the paper's fault models earn their keep: fewer
//! disabled nodes means more usable sources/destinations and shorter detours.
//! [`RoutingExperiment`] routes a deterministic sample of node pairs over a
//! given status map and reports delivery rate, average stretch, and abnormal
//! hops — the metrics `examples/fault_tolerant_routing.rs` and the models
//! integration tests compare between FB and MFP regions.

use crate::deadlock::ChannelDependencyGraph;
use crate::extended::{ExtendedECube, RouteError};
use crate::sample::PairSample;
use mesh2d::{Mesh2D, StatusMap};

/// Aggregate statistics of one routing experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoutingStats {
    /// Node pairs attempted.
    pub attempted: usize,
    /// Pairs for which a route was produced.
    pub delivered: usize,
    /// Pairs rejected because an endpoint was disabled by the fault model.
    pub endpoint_excluded: usize,
    /// Pairs that were unreachable through enabled nodes.
    pub unreachable: usize,
    /// Average stretch (hops / Manhattan distance) over delivered pairs.
    pub average_stretch: f64,
    /// Average number of abnormal (around-region) hops per delivered pair.
    pub average_abnormal_hops: f64,
    /// Whether the channel dependency graph of all delivered routes was
    /// acyclic (deadlock-free for the sampled traffic).
    pub deadlock_free: bool,
}

impl RoutingStats {
    /// Fraction of attempted pairs that were delivered.
    pub fn delivery_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.delivered as f64 / self.attempted as f64
        }
    }
}

/// A deterministic routing experiment over a status map.
pub struct RoutingExperiment<'a> {
    mesh: &'a Mesh2D,
    status: &'a StatusMap,
    sample: PairSample,
}

impl<'a> RoutingExperiment<'a> {
    /// Creates an experiment sampling every `stride`-th node (row-major) as
    /// both source and destination. Stride 1 is all-pairs — quadratic, use
    /// only on small meshes.
    pub fn new(mesh: &'a Mesh2D, status: &'a StatusMap, stride: usize) -> Self {
        Self::with_sample(mesh, status, PairSample::strided(mesh, stride))
    }

    /// Creates an experiment over an injected pair sample, so different
    /// layers (routing experiments, traffic probes) measure one shared pair
    /// population.
    pub fn with_sample(mesh: &'a Mesh2D, status: &'a StatusMap, sample: PairSample) -> Self {
        RoutingExperiment {
            mesh,
            status,
            sample,
        }
    }

    /// The pair sample this experiment routes.
    pub fn sample(&self) -> &PairSample {
        &self.sample
    }

    /// Routes every sampled source/destination pair and aggregates the stats.
    pub fn run(&self) -> RoutingStats {
        let router = ExtendedECube::new(self.mesh, self.status);
        self.run_with(&router)
    }

    /// Like [`Self::run`], but over a caller-provided router — use with
    /// [`ExtendedECube::with_regions`] to amortise region derivation across
    /// experiments.
    pub fn run_with(&self, router: &ExtendedECube<'_>) -> RoutingStats {
        let mut stats = RoutingStats {
            deadlock_free: true,
            ..RoutingStats::default()
        };
        let mut total_stretch = 0.0;
        let mut total_abnormal = 0usize;
        let mut cdg = ChannelDependencyGraph::new();
        for (src, dst) in self.sample.iter() {
            stats.attempted += 1;
            match router.route(src, dst) {
                Ok(path) => {
                    stats.delivered += 1;
                    total_stretch += path.stretch();
                    total_abnormal += path.abnormal_hops;
                    cdg.add_route(&path);
                }
                Err(RouteError::SourceExcluded) | Err(RouteError::DestinationExcluded) => {
                    stats.endpoint_excluded += 1;
                }
                Err(RouteError::Unreachable) => {
                    stats.unreachable += 1;
                }
            }
        }
        if stats.delivered > 0 {
            stats.average_stretch = total_stretch / stats.delivered as f64;
            stats.average_abnormal_hops = total_abnormal as f64 / stats.delivered as f64;
        }
        stats.deadlock_free = cdg.is_acyclic();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{Coord, FaultSet, NodeStatus, Region};

    #[test]
    fn fault_free_mesh_delivers_everything_minimally() {
        let mesh = Mesh2D::square(6);
        let status = StatusMap::all_enabled(&mesh);
        let stats = RoutingExperiment::new(&mesh, &status, 3).run();
        assert_eq!(stats.delivered, stats.attempted);
        assert_eq!(stats.delivery_rate(), 1.0);
        assert!((stats.average_stretch - 1.0).abs() < 1e-12);
        assert_eq!(stats.average_abnormal_hops, 0.0);
        assert!(stats.deadlock_free);
    }

    #[test]
    fn polygon_in_the_middle_causes_detours_not_losses() {
        let mesh = Mesh2D::square(9);
        let faults = FaultSet::from_coords(
            mesh,
            [(4, 3), (4, 4), (4, 5), (3, 4)].map(|(x, y)| Coord::new(x, y)),
        );
        let status = StatusMap::from_fault_list(&mesh, faults.in_insertion_order());
        let stats = RoutingExperiment::new(&mesh, &status, 4).run();
        assert_eq!(stats.unreachable, 0);
        assert!(stats.average_stretch >= 1.0);
        assert!(stats.delivered > 0);
        // Note: the empirical channel dependency graph of the BFS-style
        // detours is not guaranteed acyclic (our detour search is an
        // approximation of Chalasani–Boppana's boundary traversal); the
        // deadlock_free flag reports what the sampled traffic produced and is
        // asserted only for fault-free traffic where dimension-order routing
        // is provably acyclic.
    }

    #[test]
    fn more_disabled_nodes_exclude_more_endpoints() {
        // Same faults, but one status map disables the whole bounding block
        // (FB-style) while the other disables nothing extra (MFP-style).
        let mesh = Mesh2D::square(10);
        let faults = Region::from_coords([Coord::new(3, 3), Coord::new(5, 5)]);
        let mfp_like = StatusMap::from_faults(&mesh, &faults);
        let mut fb_like = mfp_like.clone();
        for x in 3..=5 {
            for y in 3..=5 {
                fb_like.supersede(Coord::new(x, y), NodeStatus::Disabled);
            }
        }
        let mfp_stats = RoutingExperiment::new(&mesh, &mfp_like, 3).run();
        let fb_stats = RoutingExperiment::new(&mesh, &fb_like, 3).run();
        assert!(fb_stats.endpoint_excluded >= mfp_stats.endpoint_excluded);
        assert!(fb_stats.delivery_rate() <= mfp_stats.delivery_rate());
    }
}
