//! The per-component construction entry point.
//!
//! Both centralized solutions — the virtual-block labelling emulation of
//! [`centralized`](crate::centralized) and the concave-section fill of
//! [`concave`](crate::concave), run here as the bit-parallel hull
//! fixpoint — compute the minimum orthogonal convex polygon of *one*
//! faulty component. Before this module existed that fact was buried
//! inside [`CentralizedMfpModel`](crate::CentralizedMfpModel),
//! whose API only accepted a whole mesh's fault set; consumers that already
//! know the component decomposition (most importantly the incremental
//! maintenance engine in `mocp_incremental`, which tracks components across
//! a stream of inject/repair events) had no way to re-solve just one
//! component.
//!
//! [`construct_component`] is that entry point: one component in, its
//! minimum polygon and round accounting out, with the solution formulation
//! chosen by [`CentralizedSolution`]. [`polygon_from_cells`] is the
//! cell-set-shaped convenience wrapper. `CentralizedMfpModel` itself now
//! routes every component through here, so the batch models and the
//! incremental engine share one construction path.

use crate::analysis::CentralizedSolution;
use crate::centralized::{SolvedShape, VirtualBlockSolver};
use crate::component::FaultyComponent;
use crate::shape_cache::ShapeCache;
use fblock::{LabelFrame, RoundStats};
use mesh2d::{BitGrid, BitScratch, Connectivity, Coord, Rect, Region};

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

/// The concave-section (solution 2) construction of one component's
/// minimum polygon over an arbitrary cell iterator, on scratch buffers:
/// the bit-parallel hull fixpoint inside the component's bounding box.
///
/// `cells` must be the nodes of one 8-connected component and `bbox` its
/// bounding rectangle. The returned iteration count equals the scan-then-
/// fill rounds of the scalar concave-section solver, as the
/// `construct_oracle` test checks.
pub(crate) fn concave_polygon_with(
    cells: impl Iterator<Item = Coord>,
    cell_count: usize,
    bbox: Rect,
    scratch: &mut ConstructionScratch,
) -> ComponentPolygon {
    if scratch.grid.reset_frame(bbox.min(), bbox.max()) {
        scratch.grid_grows += 1;
    }
    for c in cells {
        scratch.grid.set(c);
    }
    let (iterations, added) = scratch.grid.hull_fixpoint(&mut scratch.bits);
    let polygon = Region::from_bits(scratch.grid.clone());
    debug_assert_eq!(polygon.len(), cell_count + added as usize);
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
/// centralized formulation. Both formulations produce the same polygon (the
/// component's orthogonal convex hull); they differ only in cost model and
/// round accounting.
pub fn construct_component(
    component: &FaultyComponent,
    solution: CentralizedSolution,
) -> ComponentPolygon {
    construct_component_with(component, solution, &mut ConstructionScratch::new())
}

/// [`construct_component`] with caller-provided scratch buffers: the batch
/// models thread one scratch across every component of a sweep, and the
/// incremental engine threads one across its whole event stream, so
/// neither formulation allocates anything but the output polygon in steady
/// state.
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
            ComponentPolygon {
                polygon: sol.polygon,
                rounds: sol.rounds,
            }
        }
        CentralizedSolution::ConcaveSections => concave_polygon_with(
            component.region().bits().iter(),
            component.len(),
            component.virtual_block(),
            scratch,
        ),
    }
}

/// Per-component construction over a live cell set with its maintained
/// bounding box — the incremental engine's entry point: no
/// [`FaultyComponent`] is materialized and, for the concave-section
/// solution, no intermediate `Region` either, so a steady-state caller
/// holding one [`ConstructionScratch`] allocates only the output polygon.
pub fn construct_cells_with(
    cells: &Region,
    bbox: Rect,
    solution: CentralizedSolution,
    scratch: &mut ConstructionScratch,
) -> ComponentPolygon {
    debug_assert!(!cells.is_empty(), "components are never empty");
    debug_assert_eq!(
        Some(bbox),
        cells.bounding_rect(),
        "bbox must be the cells' bounding rectangle"
    );
    match solution {
        CentralizedSolution::VirtualBlock => {
            construct_component_with(&FaultyComponent::new(cells.clone()), solution, scratch)
        }
        CentralizedSolution::ConcaveSections => {
            concave_polygon_with(cells.bits().iter(), cells.len(), bbox, scratch)
        }
    }
}

/// [`construct_component`] over a raw cell set: wraps the cells of one
/// 8-connected faulty component and solves it. Returns `None` for an empty
/// cell set.
///
/// The cells must form a single 8-connected component (the caller is
/// expected to have decomposed the fault set already); this is
/// `debug_assert`ed, not checked in release builds, because the incremental
/// engine calls this on every dirty component of every event.
pub fn polygon_from_cells(
    cells: impl IntoIterator<Item = Coord>,
    solution: CentralizedSolution,
) -> Option<ComponentPolygon> {
    let region = Region::from_coords(cells);
    if region.is_empty() {
        return None;
    }
    debug_assert!(
        region.is_connected(Connectivity::Eight),
        "polygon_from_cells expects one 8-connected component"
    );
    Some(construct_component(&FaultyComponent::new(region), solution))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hull::minimum_polygon;

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
            let sol = construct_component(&u, solution);
            assert_eq!(sol.polygon, spec, "{solution:?}");
            assert!(sol.rounds.converged);
        }
    }

    #[test]
    fn cells_wrapper_agrees_with_component_entry_point() {
        let cells = [(1, 1), (2, 2), (3, 1)].map(|(x, y)| Coord::new(x, y));
        let via_cells = polygon_from_cells(cells, CentralizedSolution::ConcaveSections).unwrap();
        let via_component = construct_component(
            &FaultyComponent::new(Region::from_coords(cells)),
            CentralizedSolution::ConcaveSections,
        );
        assert_eq!(via_cells.polygon, via_component.polygon);
    }

    #[test]
    fn empty_cell_set_yields_none() {
        assert!(polygon_from_cells([], CentralizedSolution::VirtualBlock).is_none());
    }
}
