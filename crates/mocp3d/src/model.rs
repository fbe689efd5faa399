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
//! # Labelling from the fault list, then regrouping
//!
//! The faults are labelled into 26-connected components once per
//! construction, straight from the fault list: each fault, in injection
//! order, joins the union-find classes of its already-placed neighbours,
//! found through a dense slot map of the mesh. The components are ordered
//! by their minimal `(z, y, x)` cell, the order a storage-order flood
//! finds them in. After that the fixpoint tracks the components itself
//! instead of re-flooding the union of the completions every round:
//!
//! * only the components that are new or were merged in the previous
//!   round are completed — every other component is already the
//!   completion of something, and completions are idempotent (a single
//!   node is its own hull, so it is never completed);
//! * the completions are regrouped with one union-find kept for the whole
//!   fixpoint, over touching pairs. Two components that both kept their
//!   shape were distinct components of the previous set, so they cannot
//!   touch; only pairs with a member that grew are tested, first on their
//!   bounding boxes with a ±1 halo (exact for cuboids), then, for hulls,
//!   by a 26-dilation intersection. A round visits and resets only the
//!   union-find entries it joined;
//! * each class is merged into the slot of its first member. The members
//!   after it stay in their slots, flagged as tombstones, while the
//!   classes merge, and one pass drops them after, so the parts keep their
//!   order: sorted by the low z of their boxes, and for MFP-3D by minimal
//!   `(z, y, x)` cell (a class's first member holds the class's lowest low
//!   z and minimal cell, and a hull keeps the minimal cell of what it
//!   completes).
//!
//! FB-3D runs this fixpoint on boxes alone. Each of its parts is a
//! bounding box with a flag telling whether the part fills it, and
//! completing a part means taking its box. A merged class fills its joint
//! box exactly when the union of its member boxes does, which is checked
//! on one rasterized grid. Its parts stay sorted by low z (all the pair
//! test's early break needs): a grown part is tested against every later
//! part in its z window, any other part only against the later grown
//! ones, and the next round's grown parts are the merged classes that do
//! not fill their box. The final boxes are sorted once by their low
//! corner, which is their minimal cell. The regions become solid boxes
//! only at the end, and the status grid is written one x-run per line.
//! MFP-3D keeps a bitmap per part, since its hulls are not boxes; there a
//! grown part is tested against the later parts in its z window and the
//! earlier parts that did not grow.
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

use crate::bitgrid::{boxes_touch, zyx, BitGrid3, Piece, Regroup, UnionFind};
use crate::fault::FaultSet3;
use crate::grid::Grid3;
use crate::mesh::Coord3;
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

/// An inclusive box `lo..=hi`.
type Box3 = (Coord3, Coord3);

/// Number of nodes in a box.
fn volume((lo, hi): Box3) -> u64 {
    (hi.x - lo.x + 1) as u64 * (hi.y - lo.y + 1) as u64 * (hi.z - lo.z + 1) as u64
}

/// A 26-connected component of the faults.
#[derive(Clone, Copy)]
struct FaultComponent {
    bbox: Box3,
    min_cell: Coord3,
    len: u64,
}

/// Labels the 26-connected components of the faults with a union-find
/// over the fault list. Each fault, in injection order, joins the classes
/// of its already-placed neighbours, looked up in a dense slot map of the
/// mesh padded by one cell on every side, so no lookup needs a bounds
/// check. Returns the components ordered by minimal `(z, y, x)` cell and,
/// for each fault in injection order, the index of its component.
fn fault_components(faults: &FaultSet3) -> (Vec<FaultComponent>, Vec<usize>) {
    let list = faults.in_insertion_order();
    let mesh = faults.mesh();
    let sy = mesh.width() as usize + 2;
    let sz = sy * (mesh.height() as usize + 2);
    let slot = |c: Coord3| (c.x + 1) as usize + sy * (c.y + 1) as usize + sz * (c.z + 1) as usize;
    let mut offsets = Vec::with_capacity(26);
    for dz in -1isize..=1 {
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if (dx, dy, dz) != (0, 0, 0) {
                    offsets.push(dx + dy * sy as isize + dz * sz as isize);
                }
            }
        }
    }
    // 1 + the list index of the fault placed in a slot; 0 while empty.
    let mut slots = vec![0u32; sz * (mesh.depth() as usize + 2)];
    let mut classes = UnionFind::new(list.len());
    for (i, &c) in list.iter().enumerate() {
        let s = slot(c);
        for &offset in &offsets {
            let placed = slots[s.wrapping_add_signed(offset)];
            if placed != 0 {
                classes.union(i, placed as usize - 1);
            }
        }
        slots[s] = i as u32 + 1;
    }

    // Components in first-seen order, each with its smallest mesh index
    // (x-major, so the `(z, y, x)` order of its minimal cell).
    let mut component_of_root = vec![usize::MAX; list.len()];
    let mut components: Vec<FaultComponent> = Vec::new();
    let mut min_index: Vec<(usize, usize)> = Vec::new();
    let mut labels: Vec<usize> = Vec::with_capacity(list.len());
    for (i, &c) in list.iter().enumerate() {
        let root = classes.find(i);
        let index = mesh.index(c);
        let mut k = component_of_root[root];
        if k == usize::MAX {
            k = components.len();
            component_of_root[root] = k;
            components.push(FaultComponent {
                bbox: (c, c),
                min_cell: c,
                len: 1,
            });
            min_index.push((index, k));
        } else {
            let component = &mut components[k];
            component.bbox = joint_box(component.bbox, (c, c));
            component.len += 1;
            if index < min_index[k].0 {
                component.min_cell = c;
                min_index[k].0 = index;
            }
        }
        labels.push(k);
    }
    min_index.sort_unstable();
    let mut rank = vec![0; components.len()];
    for (r, &(_, k)) in min_index.iter().enumerate() {
        rank[k] = r;
    }
    for label in &mut labels {
        *label = rank[*label];
    }
    let components = min_index.iter().map(|&(_, k)| components[k]).collect();
    (components, labels)
}

/// Drops the parts flagged as merged away (into an earlier part, by the
/// round's regroup, which leaves them in their slots so class members keep
/// their indices while the classes merge), keeping the order of the
/// others, and renumbers `marked` (increasing indices of parts that stay)
/// to their new positions.
fn compact<P>(parts: &mut Vec<(P, bool)>, marked: &mut [usize]) {
    let (mut dropped, mut next) = (0, 0);
    for (i, &(_, merged_away)) in parts.iter().enumerate() {
        if merged_away {
            dropped += 1;
        } else if marked.get(next) == Some(&i) {
            marked[next] -= dropped;
            next += 1;
        }
    }
    parts.retain(|&(_, merged_away)| !merged_away);
}

/// The FB-3D fixpoint, run on boxes: each part is its bounding box, and
/// completing a part that does not fill its box means taking the box.
fn cuboid_process(mesh: &Mesh3D, faults: &FaultSet3, name: &str) -> Outcome3 {
    let (components, _) = fault_components(faults);
    // Parts stay sorted by the low z of their box.
    let mut parts: Vec<(Box3, bool)> = components.iter().map(|c| (c.bbox, false)).collect();
    let all: Vec<usize> = (0..parts.len()).collect();
    // The parts that do not fill their box yet, in increasing order: they
    // grow into it this round.
    let mut grown: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| components[i].len < volume(components[i].bbox))
        .collect();
    let mut regroup = Regroup::new(parts.len());
    let mut growth_rounds = 0u32;
    while !grown.is_empty() {
        growth_rounds += 1;

        // Solid boxes touch exactly when their haloed boxes do. A grown
        // part is tested against every later part, any other part only
        // against the later grown ones.
        let mut next_grown = 0;
        for (i, &(a, _)) in parts.iter().enumerate() {
            let grew = grown.get(next_grown) == Some(&i);
            next_grown += grew as usize;
            let later = if grew {
                &all[i + 1..parts.len()]
            } else {
                &grown[next_grown..]
            };
            for &j in later {
                let b = parts[j].0;
                if b.0.z > a.1.z + 1 {
                    break; // sorted by low z: no later part comes closer
                }
                if boxes_touch(a, b) {
                    regroup.join(i, j);
                }
            }
        }

        // Each class becomes its joint box, in its first member's slot
        // (the member with the lowest low z, so the order holds). The box
        // is solid exactly when the members' union fills it, checked on
        // one grid with every member box filled in; if not, it grows next
        // round.
        grown.clear();
        regroup.drain_classes(|class| {
            let boxes = || class.iter().map(|&i| parts[i].0);
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
            for &i in &class[1..] {
                parts[i].1 = true;
            }
            parts[class[0]].0 = bbox;
            if !solid {
                grown.push(class[0]);
            }
        });
        grown.sort_unstable();
        compact(&mut parts, &mut grown);
    }
    // Every part is a solid box now, whose minimal cell is its low corner.
    parts.sort_by_key(|&((lo, _), _)| zyx(lo));

    let mut status = Grid3::for_mesh(mesh, NodeStatus::Enabled);
    for &((lo, hi), _) in &parts {
        status.fill_box(lo, hi, NodeStatus::Disabled);
    }
    let regions = parts
        .into_iter()
        .map(|((lo, hi), _)| Region3::from_bits(BitGrid3::solid_box(lo, hi)))
        .collect();
    finish(name, faults, regions, status, growth_rounds)
}

/// The MFP-3D fixpoint: replace every 26-connected component of the
/// excluded set by its minimum orthogonal convex hull until the set stops
/// growing, then report the final components as the model's regions.
fn merge_process(mesh: &Mesh3D, faults: &FaultSet3, name: &str) -> Outcome3 {
    use rayon::prelude::*;
    let (components, labels) = fault_components(faults);
    let mut grids: Vec<BitGrid3> = components
        .iter()
        .map(|c| BitGrid3::with_bounds(c.bbox.0, c.bbox.1))
        .collect();
    for (&c, &k) in faults.in_insertion_order().iter().zip(&labels) {
        grids[k].set(c);
    }
    // Parts stay sorted by their minimal cell, hence by the low z of their
    // bounding box: a hull keeps the minimal cell of what it completes,
    // and a merged class takes the slot of its first member.
    let mut parts: Vec<(Piece, bool)> = components
        .iter()
        .zip(grids)
        .map(|(c, grid)| {
            let piece = Piece {
                grid,
                bbox: c.bbox,
                min_cell: c.min_cell,
            };
            (piece, false)
        })
        .collect();
    // The parts to complete this round, in increasing order: the new or
    // merged ones (a single node is its own hull).
    let mut open: Vec<usize> = (0..parts.len())
        .filter(|&i| components[i].len > 1)
        .collect();
    let mut grown = Vec::new();
    let mut regroup = Regroup::new(parts.len());
    let mut growth_rounds = 0u32;
    loop {
        // The completions are independent per part — fan them out over
        // the pool (ordered collect keeps the part order, and with one
        // effective thread this is a plain sequential map).
        let completions: Vec<Option<BitGrid3>> = open
            .par_iter()
            .map_init(BitScratch::new, |scratch, &i| {
                let piece = &parts[i].0;
                Some(hull_bits(&piece.grid, scratch)).filter(|hull| hull.len() > piece.grid.len())
            })
            .collect();
        grown.clear();
        for (&i, completion) in open.iter().zip(completions) {
            if let Some(grid) = completion {
                parts[i].0 = Piece::new(grid);
                grown.push(i);
            }
        }
        if grown.is_empty() {
            break;
        }
        growth_rounds += 1;

        // Two parts that both kept their shape cannot touch, so only
        // pairs with a grown member are tested: each grown part against
        // every later part in its z window, and against every earlier
        // part that did not grow (an earlier grown part tested it).
        for (k, &g) in grown.iter().enumerate() {
            let a = &parts[g].0;
            let mut dilated: Option<BitGrid3> = None;
            let mut touches = |b: &Piece| {
                boxes_touch(a.bbox, b.bbox)
                    && b.grid
                        .intersects(dilated.get_or_insert_with(|| a.grid.dilate()))
            };
            for (j, (b, _)) in parts.iter().enumerate().skip(g + 1) {
                if b.bbox.0.z > a.bbox.1.z + 1 {
                    break; // sorted by low z: no later part comes closer
                }
                if touches(b) {
                    regroup.join(g, j);
                }
            }
            for (j, (b, _)) in parts[..g].iter().enumerate() {
                if grown[..k].binary_search(&j).is_err() && touches(b) {
                    regroup.join(g, j);
                }
            }
        }

        // Each class is merged into its first member's slot — a grid
        // framed once over the class's joint box, each member ORed in —
        // and is completed next round.
        open.clear();
        regroup.drain_classes(|class| {
            let first = class[0];
            let bbox = class
                .iter()
                .map(|&i| parts[i].0.bbox)
                .reduce(joint_box)
                .expect("classes are non-empty");
            let mut grid = BitGrid3::with_bounds(bbox.0, bbox.1);
            for &i in class {
                grid.union_with(&parts[i].0.grid);
            }
            for &i in &class[1..] {
                parts[i].1 = true;
            }
            parts[first].0 = Piece {
                grid,
                bbox,
                min_cell: parts[first].0.min_cell,
            };
            open.push(first);
        });
        open.sort_unstable();
        compact(&mut parts, &mut open);
    }
    let regions: Vec<Region3> = parts
        .into_iter()
        .map(|(piece, _)| Region3::from_bits(piece.grid))
        .collect();
    let mut status = Grid3::for_mesh(mesh, NodeStatus::Enabled);
    for region in &regions {
        for c in region.iter() {
            status[c] = NodeStatus::Disabled;
        }
    }
    finish(name, faults, regions, status, growth_rounds)
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
