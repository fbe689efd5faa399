//! The full-relabel fixpoint of the 3-D merge process, the oracle the
//! FB-3D and MFP-3D constructions are checked against: complete every
//! 26-connected component of the excluded set (its bounding cuboid cell
//! by cell, or its hull), re-flood the union of the completions with
//! `components26`, and repeat until the excluded set stops growing.

use mesh2d::NodeStatus;
use mocp_3d::{
    Coord3, FaultModel, FaultSet3, FaultyCuboidModel, Grid3, Mesh3D, MinimumPolyhedronModel,
    Region3,
};

/// The old completion: the bounding cuboid cell by cell, or the hull.
fn complete(comp: &Region3, cuboid: bool) -> Region3 {
    if !cuboid {
        return comp.orthogonal_convex_hull();
    }
    let (lo, hi) = comp.bounding_box().expect("components are non-empty");
    let mut cells = Vec::new();
    for z in lo.z..=hi.z {
        for y in lo.y..=hi.y {
            for x in lo.x..=hi.x {
                cells.push(Coord3::new(x, y, z));
            }
        }
    }
    Region3::from_coords(cells)
}

/// What the oracle fixpoint produces.
struct Expected {
    regions: Vec<Region3>,
    rounds: u32,
    events: u64,
    status: Grid3<NodeStatus>,
}

/// The full-relabel merge loop: union of completions, then a fresh
/// `components26` flood, until the union's size stops changing.
fn oracle(mesh: &Mesh3D, faults: &FaultSet3, cuboid: bool) -> Expected {
    let mut excluded = faults.region();
    let mut rounds = 0u32;
    let regions = loop {
        let completed: Vec<Region3> = excluded
            .components26()
            .iter()
            .map(|c| complete(c, cuboid))
            .collect();
        let mut next = Region3::new();
        for completion in &completed {
            next.union_in_place(completion);
        }
        if next.len() == excluded.len() {
            break completed;
        }
        rounds += 1;
        excluded = next;
    };
    let mut status = Grid3::for_mesh(mesh, NodeStatus::Enabled);
    for c in excluded.iter() {
        status[c] = NodeStatus::Disabled;
    }
    for &c in faults.in_insertion_order() {
        status[c] = NodeStatus::Faulty;
    }
    Expected {
        regions,
        rounds,
        events: (excluded.len() - faults.len()) as u64,
        status,
    }
}

/// Both models against the oracle on one fault set. Returns the larger
/// of the two round counts.
pub fn check(mesh: &Mesh3D, faults: &FaultSet3) -> u32 {
    let mut max_rounds = 0;
    for (model, cuboid) in [
        (&FaultyCuboidModel as &dyn FaultModel<Mesh3D>, true),
        (&MinimumPolyhedronModel as &dyn FaultModel<Mesh3D>, false),
    ] {
        let outcome = model.construct(mesh, faults);
        let expected = oracle(mesh, faults, cuboid);
        let name = model.name();
        assert_eq!(
            outcome.regions.len(),
            expected.regions.len(),
            "{} region count",
            name
        );
        for (i, (got, want)) in outcome.regions.iter().zip(&expected.regions).enumerate() {
            assert!(
                got == want,
                "{} region {} differs in content or order",
                name,
                i
            );
        }
        assert_eq!(outcome.rounds.rounds, expected.rounds, "{} rounds", name);
        assert_eq!(outcome.rounds.events, expected.events, "{} events", name);
        // The Figure 9 metric, counted on the status grid, is the excluded
        // set minus the faults.
        assert_eq!(
            outcome.disabled_nonfaulty() as u64,
            expected.events,
            "{} disabled non-faulty nodes",
            name
        );
        assert!(outcome.rounds.converged);
        assert!(outcome.status == expected.status, "{} status grid", name);
        assert!(outcome.covers_all_faults() && outcome.regions_disjoint());
        assert!(outcome.all_regions_convex());
        max_rounds = max_rounds.max(expected.rounds);
    }
    max_rounds
}
