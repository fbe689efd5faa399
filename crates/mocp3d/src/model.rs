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
//! # Labelling at insertion, then regrouping
//!
//! The constructions do not label the faults: the fault set keeps its
//! 26-connected components as faults are inserted
//! ([`FaultSet3`]), each fault joining the union-find classes of its
//! already-placed neighbours, and hands them out ordered by minimal
//! `(z, y, x)` cell, the order a storage-order flood finds them in, with
//! each fault's component for MFP-3D. Every construction on the same
//! faults reads the same labelling. After that the fixpoint tracks the
//! components itself instead of re-flooding the union of the completions
//! every round:
//!
//! * only the components that are new or were merged in the previous
//!   round are completed — every other component is already the
//!   completion of something, and completions are idempotent (a single
//!   node is its own hull, so it is never completed);
//! * the completions are regrouped with one union-find kept for the whole
//!   fixpoint, over touching pairs. Two components that both kept their
//!   shape were distinct components of the previous set, so they cannot
//!   touch; only the parts that grew look for the parts they touch,
//!   through a bucket index over the parts' boxes (`BoxIndex`), first on
//!   the boxes with a ±1 halo (exact for cuboids), then, for hulls, by a
//!   26-dilation intersection. A round visits and resets only the
//!   union-find entries it joined, and lists a merged part again only in
//!   the buckets its grown box adds;
//! * each class is merged into the slot of its first member, and the
//!   slots of the members after it are emptied, so the parts keep their
//!   order with no sort: for MFP-3D by minimal `(z, y, x)` cell (a class's
//!   first member holds the class's minimal cell, and a hull keeps the
//!   minimal cell of what it completes).
//!
//! FB-3D runs this fixpoint on boxes alone. Each of its parts is a
//! bounding box, and completing a part means taking its box. A merged
//! class fills its joint box exactly when the union of its member boxes
//! does, which is checked on one rasterized grid; the next round's grown
//! parts are the merged classes that do not fill their box. The final
//! boxes are sorted once by their low corner, which is their minimal
//! cell. The regions become solid boxes only at the end, and the status
//! grid is written one x-run per line. MFP-3D keeps a bitmap per part,
//! since its hulls are not boxes; a hull stays inside its part's box, so
//! there too only merges change the boxes the index holds.
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

use crate::bitgrid::{volume, zyx, BitGrid3, Box3, BoxIndex, Regroup};
use crate::fault::{FaultComponent3, FaultSet3};
use crate::grid::Grid3;
use crate::mesh::Mesh3D;
use crate::region::{hull_bits, Region3};
use mesh2d::bitgrid::joint_box;
use mesh2d::{BitScratch, NodeStatus};
use mocp_topology::RoundStats;
use mocp_topology::{FaultModel, Outcome};

/// The outcome of running a 3-D fault-model construction on a faulty
/// mesh: the `Mesh3D` instantiation of the one generic
/// [`Outcome`], exactly as `fblock::ModelOutcome`
/// is its `Mesh2D` instantiation. The Figure 9/10 metrics
/// (`disabled_nonfaulty`, `average_region_size`) and the safety
/// predicates (`covers_all_faults`, `all_regions_convex`,
/// `regions_disjoint`) come from the shared generic impl.
pub type Outcome3 = Outcome<Mesh3D>;

/// The FB-3D fixpoint, run on boxes: each part is its bounding box, and
/// completing a part that does not fill its box means taking the box.
fn cuboid_process(mesh: &Mesh3D, faults: &FaultSet3, name: &str) -> Outcome3 {
    // The parts keep their slots to the end. `grown` lists the parts that
    // do not fill their box yet: they grow into it this round.
    let mut boxes: Vec<Box3> = Vec::new();
    let mut grown: Vec<usize> = Vec::new();
    for (i, c) in faults.components().enumerate() {
        if (c.len as u64) < volume(c.bbox) {
            grown.push(i);
        }
        boxes.push(c.bbox);
    }
    let mut grows = vec![false; boxes.len()];
    let mut regroup = Regroup::new(boxes.len());
    let mut parts = BoxIndex::new(mesh, boxes);
    let mut growth_rounds = 0u32;
    while !grown.is_empty() {
        growth_rounds += 1;

        // Solid boxes touch exactly when their haloed boxes do, and two
        // parts that kept their shape cannot touch. So only the grown
        // parts look for the parts they touch, and a pair of grown parts
        // is joined once.
        for &g in &grown {
            grows[g] = true;
        }
        for &g in &grown {
            parts.touching(g, |j| {
                if !(grows[j] && j < g) {
                    regroup.join(g, j);
                }
            });
        }
        for &g in &grown {
            grows[g] = false;
        }

        // Each class becomes its joint box, in its first member's slot.
        // The box is solid exactly when the members' union fills it,
        // checked on one grid with every member box filled in; if not, it
        // grows next round.
        grown.clear();
        regroup.drain_classes(|class| {
            let boxes = || class.iter().map(|&i| parts.bbox(i));
            let bbox = boxes().reduce(joint_box).expect("classes are non-empty");
            // The union fills the joint box when a member is that box, and
            // cannot when the members' volumes fall short of it.
            let solid = boxes().any(|b| b == bbox)
                || boxes().map(volume).sum::<u64>() >= volume(bbox) && {
                    let mut grid = BitGrid3::with_bounds(bbox.0, bbox.1);
                    for (lo, hi) in boxes() {
                        grid.fill_box(lo, hi);
                    }
                    grid.len() as u64 == volume(bbox)
                };
            parts.merge(class, bbox);
            if !solid {
                grown.push(class[0]);
            }
        });
    }
    // Every part is a solid box now, whose minimal cell is its low corner.
    let mut boxes: Vec<Box3> = parts.live().map(|i| parts.bbox(i)).collect();
    boxes.sort_by_key(|&(lo, _)| zyx(lo));

    let mut status = Grid3::for_mesh(mesh, NodeStatus::Enabled);
    for &(lo, hi) in &boxes {
        status.fill_box(lo, hi, NodeStatus::Disabled);
    }
    let regions = boxes
        .into_iter()
        .map(|(lo, hi)| Region3::from_bits(BitGrid3::solid_box(lo, hi)))
        .collect();
    finish(name, faults, regions, status, growth_rounds)
}

/// The MFP-3D fixpoint: replace every 26-connected component of the
/// excluded set by its minimum orthogonal convex hull until the set stops
/// growing, then report the final components as the model's regions.
fn merge_process(mesh: &Mesh3D, faults: &FaultSet3, name: &str) -> Outcome3 {
    use rayon::prelude::*;
    let components: Vec<FaultComponent3> = faults.components().collect();
    let labels = faults.component_labels();
    let mut grids: Vec<BitGrid3> = components
        .iter()
        .map(|c| BitGrid3::with_bounds(c.bbox.0, c.bbox.1))
        .collect();
    for (&c, &k) in faults.in_insertion_order().iter().zip(&labels) {
        grids[k].set(c);
    }
    // Parts stay sorted by their minimal cell: a hull keeps the minimal
    // cell of what it completes, and a merged class takes the slot of its
    // first member. A part merged away leaves its slot empty.
    let mut parts: Vec<Option<BitGrid3>> = grids.into_iter().map(Some).collect();
    // A hull stays inside its box, so only merges change the boxes.
    let mut index = BoxIndex::new(mesh, components.iter().map(|c| c.bbox));
    // The parts to complete this round: the new or merged ones (a single
    // node is its own hull).
    let mut open: Vec<usize> = (0..parts.len())
        .filter(|&i| components[i].len > 1)
        .collect();
    let mut grown = Vec::new();
    let mut grows = vec![false; parts.len()];
    let mut regroup = Regroup::new(parts.len());
    let mut growth_rounds = 0u32;
    loop {
        // The completions are independent per part — fan them out over
        // the pool (ordered collect keeps the part order, and with one
        // effective thread this is a plain sequential map).
        let completions: Vec<Option<BitGrid3>> = open
            .par_iter()
            .map_init(BitScratch::new, |scratch, &i| {
                let grid = part(&parts, i);
                Some(hull_bits(grid, scratch)).filter(|hull| hull.len() > grid.len())
            })
            .collect();
        grown.clear();
        for (&i, completion) in open.iter().zip(completions) {
            if let Some(grid) = completion {
                parts[i] = Some(grid);
                grown.push(i);
            }
        }
        if grown.is_empty() {
            break;
        }
        growth_rounds += 1;

        // Two parts that both kept their shape cannot touch, so each grown
        // part is tested against the parts the index finds near its box,
        // by a 26-dilation intersection, and a pair of grown parts once.
        for &g in &grown {
            grows[g] = true;
        }
        for &g in &grown {
            let a = part(&parts, g);
            let mut dilated: Option<BitGrid3> = None;
            index.touching(g, |j| {
                if !(grows[j] && j < g)
                    && part(&parts, j).intersects(dilated.get_or_insert_with(|| a.dilate()))
                {
                    regroup.join(g, j);
                }
            });
        }
        for &g in &grown {
            grows[g] = false;
        }

        // Each class is merged into its first member's slot — a grid
        // framed once over the class's joint box, each member ORed in —
        // and is completed next round.
        open.clear();
        regroup.drain_classes(|class| {
            let bbox = class
                .iter()
                .map(|&i| index.bbox(i))
                .reduce(joint_box)
                .expect("classes are non-empty");
            let mut grid = BitGrid3::with_bounds(bbox.0, bbox.1);
            for &i in class {
                grid.union_with(part(&parts, i));
            }
            for &i in &class[1..] {
                parts[i] = None;
            }
            parts[class[0]] = Some(grid);
            index.merge(class, bbox);
            open.push(class[0]);
        });
    }
    let regions: Vec<Region3> = parts
        .into_iter()
        .flatten()
        .map(Region3::from_bits)
        .collect();
    let mut status = Grid3::for_mesh(mesh, NodeStatus::Enabled);
    for region in &regions {
        for c in region.iter() {
            status[c] = NodeStatus::Disabled;
        }
    }
    finish(name, faults, regions, status, growth_rounds)
}

/// The part in slot `i`, which is not merged away.
fn part(parts: &[Option<BitGrid3>], i: usize) -> &BitGrid3 {
    parts[i].as_ref().expect("only merges empty a slot")
}

/// The shared tail of both fixpoints: marks the faults on the status grid
/// (which already disables every region node), records the merge
/// counters and assembles the outcome.
fn finish(
    name: &str,
    faults: &FaultSet3,
    regions: Vec<Region3>,
    mut status: Grid3<NodeStatus>,
    growth_rounds: u32,
) -> Outcome3 {
    let excluded: usize = regions.iter().map(Region3::len).sum();
    mocp_obs::counter!("merge3d.constructions").inc();
    mocp_obs::counter!("merge3d.growth_rounds").add(growth_rounds as u64);
    mocp_obs::counter!("merge3d.excluded_beyond_faults").add((excluded - faults.len()) as u64);

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
        cuboid_process(mesh, faults, FaultModel::name(self))
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
        merge_process(mesh, faults, FaultModel::name(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::generate_faults_3d;
    use crate::Coord3;
    use faultgen::FaultDistribution;

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
