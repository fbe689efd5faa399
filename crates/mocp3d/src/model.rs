//! The 3-D fault models: the FB-3D rectangular-cuboid baseline and the
//! MFP-3D minimum orthogonal convex polyhedron construction.
//!
//! Both models share one skeleton — the 3-D merge process. Starting from
//! the faults, 26-connected components of the excluded set are repeatedly
//! replaced by their *completion* (the bounding cuboid for FB-3D, the
//! minimum orthogonal convex hull for MFP-3D) until nothing grows. The
//! outer iteration is what merges components whose completions touch or
//! overlap, the 3-D counterpart of the paper's 2-D merge/superseding
//! process. Since a component's hull is contained in its bounding cuboid,
//! the MFP-3D excluded set is a subset of the FB-3D excluded set at every
//! step, so MFP-3D never disables more non-faulty nodes than FB-3D.
//!
//! # One flood, then regrouping
//!
//! The excluded set is flooded into components once, from the faults.
//! After that the fixpoint tracks the components itself instead of
//! re-flooding the union of the completions every round:
//!
//! * only the components that are new or were merged in the previous
//!   round are completed — every other component is already the
//!   completion of something, and completions are idempotent;
//! * the completions are regrouped with a union-find over touching pairs.
//!   Two components that both kept their shape were distinct components
//!   of the previous set, so they cannot touch; only pairs with a member
//!   that grew are tested, first on their bounding boxes with a ±1 halo
//!   (exact for cuboids), then, for hulls, by a 26-dilation intersection;
//! * each class is merged into one grid, and the classes are ordered by
//!   their minimal `(z, y, x)` cell, the first-seen order of the flood.
//!
//! Completions are connected, so the classes of touching completions are
//! exactly the 26-connected components of their union: every round
//! produces the components the full re-flood would, in the same order.
//! The set grows in a round exactly when some completion grew (a
//! completion that reaches into another component also takes a node
//! between them), so the round count and the result are those of the
//! full-relabel loop, which is kept as the differential oracle in
//! `crates/mocp3d/tests/merge_oracle.rs`. The result is the least set
//! that contains the faults and is closed under completing its
//! components: any closed superset contains the completion of each of
//! its connected pieces, so it contains every round's set.

use crate::bitgrid::{boxes_touch, merge_classes, BitGrid3, Piece, UnionFind};
use crate::fault::FaultSet3;
use crate::grid::Grid3;
use crate::mesh::Mesh3D;
use crate::region::{hull_bits, Region3};
use distsim::RoundStats;
use mesh2d::NodeStatus;
use mocp_topology::{FaultModel, Outcome};

/// The outcome of running a 3-D fault-model construction on a faulty
/// mesh: the `Mesh3D` instantiation of the one generic
/// [`Outcome`], exactly as `fblock::ModelOutcome`
/// is its `Mesh2D` instantiation. The Figure 9/10 metrics
/// (`disabled_nonfaulty`, `average_region_size`) and the safety
/// predicates (`covers_all_faults`, `all_regions_convex`,
/// `regions_disjoint`) come from the shared generic impl.
pub type Outcome3 = Outcome<Mesh3D>;

/// One merge-process completion of a 26-connected component: its solid
/// bounding cuboid, or its minimum orthogonal convex hull. `None` when
/// the component already is its own completion.
fn complete(piece: &Piece, cuboid: bool) -> Option<BitGrid3> {
    let completion = if cuboid {
        BitGrid3::solid_box(piece.bbox.0, piece.bbox.1)
    } else {
        hull_bits(&piece.grid)
    };
    (completion.len() > piece.grid.len()).then_some(completion)
}

/// The shared merge-process fixpoint: replace every 26-connected component
/// of the excluded set by its completion until the set stops growing, then
/// report the final components as the model's regions.
fn merge_process(mesh: &Mesh3D, faults: &FaultSet3, name: &'static str, cuboid: bool) -> Outcome3 {
    use rayon::prelude::*;
    // Each component with whether it still needs completing (it is new or
    // was merged in the previous round). Components stay sorted by their
    // minimal cell, hence by the low z of their bounding box.
    let mut parts: Vec<(Piece, bool)> = faults
        .region()
        .bits()
        .components26()
        .into_iter()
        .map(|grid| (Piece::new(grid), true))
        .collect();
    let mut growth_rounds = 0u32;
    loop {
        // The completions are independent per component — fan them out
        // over the pool (ordered collect keeps the component order, and
        // with one effective thread this is a plain sequential map).
        let completions: Vec<Option<BitGrid3>> = parts
            .par_iter()
            .map(|(piece, open)| if *open { complete(piece, cuboid) } else { None })
            .collect();
        let mut grew = vec![false; parts.len()];
        for (i, completion) in completions.into_iter().enumerate() {
            if let Some(grid) = completion {
                parts[i].0 = Piece::new(grid);
                grew[i] = true;
            }
        }
        if !grew.contains(&true) {
            break;
        }
        growth_rounds += 1;

        let mut classes = UnionFind::new(parts.len());
        for i in 0..parts.len() {
            let mut dilated: Option<BitGrid3> = None;
            for j in i + 1..parts.len() {
                let (a, b) = (&parts[i].0, &parts[j].0);
                if b.bbox.0.z > a.bbox.1.z + 1 {
                    break; // sorted by low z: no later part comes closer
                }
                if !(grew[i] || grew[j]) || !boxes_touch(a.bbox, b.bbox) {
                    continue;
                }
                // Cuboids touch exactly when their haloed boxes do.
                let touching = cuboid || {
                    let dilated = dilated.get_or_insert_with(|| a.grid.dilate26());
                    b.grid.intersects(dilated)
                };
                if touching {
                    classes.union(i, j);
                }
            }
        }
        let pieces = parts.into_iter().map(|(piece, _)| piece).collect();
        parts = merge_classes(pieces, &mut classes)
            .into_iter()
            .map(|(piece, size)| (piece, size > 1))
            .collect();
    }
    let regions: Vec<Region3> = parts
        .into_iter()
        .map(|(piece, _)| Region3::from_bits(piece.grid))
        .collect();
    let excluded: usize = regions.iter().map(Region3::len).sum();

    mocp_obs::counter!("merge3d.constructions").inc();
    mocp_obs::counter!("merge3d.growth_rounds").add(growth_rounds as u64);
    mocp_obs::counter!("merge3d.excluded_beyond_faults").add((excluded - faults.len()) as u64);

    let mut status = Grid3::for_mesh(mesh, NodeStatus::Enabled);
    for region in &regions {
        for c in region.iter() {
            status[c] = NodeStatus::Disabled;
        }
    }
    for &c in faults.in_insertion_order() {
        status[c] = NodeStatus::Faulty;
    }
    Outcome3 {
        model: name.to_string(),
        // The Figure 11 analogue for the merge process: one round per
        // fixpoint iteration that grew the excluded set (the final
        // quiescent pass is not counted, matching `RoundStats::rounds`),
        // one event per node the model excluded beyond the faults.
        rounds: RoundStats {
            rounds: growth_rounds,
            events: (excluded - faults.len()) as u64,
            converged: true,
        },
        status,
        regions,
    }
}

/// The FB-3D baseline: every fault component is blocked out by its full
/// bounding cuboid — the 3-D generalization of the rectangular faulty
/// block of labelling scheme 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultyCuboidModel;

impl FaultModel<Mesh3D> for FaultyCuboidModel {
    fn name(&self) -> &'static str {
        "FB3D"
    }

    fn construct(&self, mesh: &Mesh3D, faults: &FaultSet3) -> Outcome3 {
        merge_process(mesh, faults, FaultModel::name(self), true)
    }
}

/// The MFP-3D construction: every fault component is completed to its
/// minimum orthogonal convex polyhedron — the paper's future-work
/// extension, promoted to a full model.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinimumPolyhedronModel;

impl FaultModel<Mesh3D> for MinimumPolyhedronModel {
    fn name(&self) -> &'static str {
        "MFP3D"
    }

    fn construct(&self, mesh: &Mesh3D, faults: &FaultSet3) -> Outcome3 {
        merge_process(mesh, faults, FaultModel::name(self), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::generate_faults_3d;
    use faultgen::FaultDistribution;
    use mocp_core::extension3d::Coord3;

    fn faults(mesh: Mesh3D, list: &[(i32, i32, i32)]) -> FaultSet3 {
        FaultSet3::from_coords(mesh, list.iter().map(|&(x, y, z)| Coord3::new(x, y, z)))
    }

    #[test]
    fn cuboid_blocks_out_the_bounding_box() {
        let mesh = Mesh3D::cube(8);
        // Two opposite corners of a 2x2x2 box: FB-3D disables the other 6.
        let fs = faults(mesh, &[(2, 2, 2), (3, 3, 3)]);
        let outcome = FaultyCuboidModel.construct(&mesh, &fs);
        assert_eq!(outcome.model, "FB3D");
        assert_eq!(outcome.regions.len(), 1);
        assert_eq!(outcome.regions[0].len(), 8);
        assert_eq!(outcome.disabled_nonfaulty(), 6);
        assert_eq!(outcome.faulty_count(), 2);
        assert!(outcome.covers_all_faults());
        assert!(outcome.all_regions_convex());
    }

    #[test]
    fn polyhedron_disables_only_forced_nodes() {
        let mesh = Mesh3D::cube(8);
        // The same diagonal pair is already orthogonally convex: MFP-3D
        // disables nothing where FB-3D disables six nodes.
        let fs = faults(mesh, &[(2, 2, 2), (3, 3, 3)]);
        let outcome = MinimumPolyhedronModel.construct(&mesh, &fs);
        assert_eq!(outcome.model, "MFP3D");
        assert_eq!(outcome.disabled_nonfaulty(), 0);
        assert_eq!(outcome.average_region_size(), 2.0);
        assert!(outcome.covers_all_faults());
        assert!(outcome.all_regions_convex());
        assert!(outcome.regions_disjoint());
    }

    #[test]
    fn touching_completions_merge() {
        let mesh = Mesh3D::cube(10);
        // Two U-shapes whose fills land adjacent: the merge process must
        // reach a fixpoint with disjoint regions either way.
        let fs = faults(
            mesh,
            &[(0, 0, 0), (2, 0, 0), (4, 0, 0), (0, 2, 0), (4, 2, 0)],
        );
        for (model, name) in [
            (&FaultyCuboidModel as &dyn FaultModel<Mesh3D>, "FB3D"),
            (&MinimumPolyhedronModel as &dyn FaultModel<Mesh3D>, "MFP3D"),
        ] {
            let outcome = model.construct(&mesh, &fs);
            assert_eq!(outcome.model, name);
            assert!(outcome.covers_all_faults());
            assert!(outcome.regions_disjoint());
            assert!(outcome.all_regions_convex());
        }
    }

    #[test]
    fn mfp_never_disables_more_than_fb() {
        let mesh = Mesh3D::cube(10);
        for seed in 0..4 {
            for dist in FaultDistribution::ALL {
                let fs = generate_faults_3d(mesh, 60, dist, seed);
                let fb = FaultyCuboidModel.construct(&mesh, &fs);
                let mfp = MinimumPolyhedronModel.construct(&mesh, &fs);
                assert!(
                    mfp.disabled_nonfaulty() <= fb.disabled_nonfaulty(),
                    "seed {seed} {dist:?}: MFP3D {} > FB3D {}",
                    mfp.disabled_nonfaulty(),
                    fb.disabled_nonfaulty()
                );
                assert!(mfp.covers_all_faults() && fb.covers_all_faults());
            }
        }
    }

    #[test]
    fn empty_fault_set_yields_empty_outcome() {
        let mesh = Mesh3D::cube(4);
        let outcome = MinimumPolyhedronModel.construct(&mesh, &FaultSet3::new(mesh));
        assert!(outcome.regions.is_empty());
        assert_eq!(outcome.disabled_nonfaulty(), 0);
        assert_eq!(outcome.average_region_size(), 0.0);
        assert!(outcome.covers_all_faults());
    }
}
