//! The per-component construction entry point.
//!
//! Both centralized solutions — the virtual-block labelling emulation of
//! [`centralized`](crate::centralized) and the concave-section fill of
//! [`concave`](crate::concave), run here as the bit-parallel hull
//! fixpoint — compute the minimum orthogonal convex polygon of *one*
//! faulty component. [`construct_component_with`] is the one public entry
//! point: one component in, its minimum polygon and round accounting out,
//! with the formulation named by a [`CentralizedSolution`]. The batch
//! [`CentralizedMfpModel`](crate::CentralizedMfpModel) routes every
//! component through the same code, adding a shape cache for the
//! virtual-block solve. The incremental engine in `mocp_incremental`
//! needs no formulation choice: it hulls each dirty component in place
//! with the concave-section fixpoint and borrows only the flood buffers
//! of a [`ConstructionScratch`].

use crate::analysis::CentralizedSolution;
use crate::centralized::{SolvedShape, VirtualBlockSolver};
use crate::component::FaultyComponent;
use crate::shape_cache::ShapeCache;
use fblock::{LabelFrame, RoundStats};
use mesh2d::{BitGrid, BitScratch, Connectivity, Rect, Region};

/// Reusable buffers threaded through the construction entry points so the
/// hull fixpoint, the virtual-block labelling and the callers' flood fills
/// allocate nothing in steady state: one re-framable occupancy grid, the
/// flood/fill scratch set and one labelling window frame.
///
/// One scratch serves a whole sweep (the batch models) or the entire
/// lifetime of an incremental engine; [`grows`](Self::grows) exposes how
/// often any buffer had to grow, which the no-allocation tests pin.
#[derive(Clone, Debug, Default)]
pub struct ConstructionScratch {
    /// Occupancy grid reused across components (re-framed per component).
    grid: BitGrid,
    /// Flood / gap-fill working buffers.
    bits: BitScratch,
    /// Packed window rows of the virtual-block solve.
    frame: LabelFrame,
    /// Times `grid`'s backing storage grew.
    grid_grows: u64,
}

impl ConstructionScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        ConstructionScratch::default()
    }

    /// Total number of buffer growths since construction. Constant across
    /// calls ⇔ the construction ran allocation-free (steady state).
    pub fn grows(&self) -> u64 {
        self.grid_grows + self.bits.grows() + self.frame.grows()
    }

    /// The flood scratch, for callers that run their own component floods
    /// between constructions (the incremental engine's localized re-flood).
    pub fn flood_scratch(&mut self) -> &mut BitScratch {
        &mut self.bits
    }

    /// Word-flood decomposition of `cells` (which must lie inside `bbox`)
    /// into its 8-connected components on the scratch buffers — the
    /// incremental engine's localized re-flood after a repair. Only the
    /// returned components are allocated.
    pub fn flood_components(&mut self, cells: &Region, bbox: Rect) -> Vec<Region> {
        if self.grid.reset_frame(bbox.min(), bbox.max()) {
            self.grid_grows += 1;
        }
        for c in cells.bits().iter() {
            self.grid.set(c);
        }
        self.grid
            .component_regions_with(Connectivity::Eight, &mut self.bits)
    }
}

/// The minimum faulty polygon of a single component, with the round
/// accounting of the construction that produced it.
#[derive(Clone, Debug)]
pub struct ComponentPolygon {
    /// The component's minimum orthogonal convex polygon (its faults plus
    /// the forced non-faulty nodes), in mesh coordinates.
    pub polygon: Region,
    /// Rounds the construction needed: labelling rounds for
    /// [`CentralizedSolution::VirtualBlock`], scan iterations for
    /// [`CentralizedSolution::ConcaveSections`].
    pub rounds: RoundStats,
}

/// Computes the minimum faulty polygon of one component using the chosen
/// centralized formulation, on caller-provided scratch buffers. Both
/// formulations produce the same polygon (the component's orthogonal
/// convex hull); they differ only in cost model and round accounting. A
/// caller that threads one scratch through many components allocates
/// nothing but the output polygons in steady state.
pub fn construct_component_with(
    component: &FaultyComponent,
    solution: CentralizedSolution,
    scratch: &mut ConstructionScratch,
) -> ComponentPolygon {
    construct_component_on(component, solution, scratch, None)
}

/// [`construct_component_with`], with the virtual-block solve going
/// through `shapes` when given (the batch models' per-construction shape
/// cache; the concave-section solution does not use it).
pub(crate) fn construct_component_on(
    component: &FaultyComponent,
    solution: CentralizedSolution,
    scratch: &mut ConstructionScratch,
    shapes: Option<&mut ShapeCache<SolvedShape>>,
) -> ComponentPolygon {
    match solution {
        CentralizedSolution::VirtualBlock => {
            let sol = match shapes {
                Some(shapes) => {
                    VirtualBlockSolver.solve_cached(component, &mut scratch.frame, shapes)
                }
                None => VirtualBlockSolver.solve_with(component, &mut scratch.frame),
            };
            mocp_obs::counter!("construct.components").inc();
            mocp_obs::counter!("construct.labelling_rounds").add(sol.rounds.rounds as u64);
            sol
        }
        CentralizedSolution::ConcaveSections => concave_polygon_with(component, scratch),
    }
}

/// The concave-section (solution 2) construction of one component's
/// minimum polygon on scratch buffers: the bit-parallel hull fixpoint
/// inside the component's bounding box. The returned iteration count
/// equals the scan-then-fill rounds of the scalar concave-section solver,
/// as the `construct_oracle` test checks.
fn concave_polygon_with(
    component: &FaultyComponent,
    scratch: &mut ConstructionScratch,
) -> ComponentPolygon {
    let bbox = component.virtual_block();
    if scratch.grid.reset_frame(bbox.min(), bbox.max()) {
        scratch.grid_grows += 1;
    }
    for c in component.region().bits().iter() {
        scratch.grid.set(c);
    }
    let (iterations, added) = scratch.grid.hull_fixpoint(&mut scratch.bits);
    let polygon = Region::from_bits(scratch.grid.clone());
    debug_assert_eq!(polygon.len(), component.len() + added as usize);
    mocp_obs::counter!("construct.components").inc();
    mocp_obs::counter!("construct.fixpoint_rounds").add(iterations as u64);
    mocp_obs::counter!("construct.nodes_added").add(added);
    mocp_obs::histogram!("construct.rounds_per_component").record(iterations as u64);
    ComponentPolygon {
        polygon,
        rounds: RoundStats {
            rounds: iterations,
            events: added,
            converged: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull::minimum_polygon;
    use mesh2d::Coord;

    fn component(list: &[(i32, i32)]) -> FaultyComponent {
        FaultyComponent::new(Region::from_coords(
            list.iter().map(|&(x, y)| Coord::new(x, y)),
        ))
    }

    #[test]
    fn both_solutions_match_the_specification() {
        let u = component(&[(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)]);
        let spec = minimum_polygon(&u);
        for solution in [
            CentralizedSolution::VirtualBlock,
            CentralizedSolution::ConcaveSections,
        ] {
            let sol = construct_component_with(&u, solution, &mut ConstructionScratch::new());
            assert_eq!(sol.polygon, spec, "{solution:?}");
            assert!(sol.rounds.converged);
        }
    }
}
