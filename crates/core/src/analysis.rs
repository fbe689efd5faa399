//! High-level entry point: the CMFP fault model.
//!
//! The virtual-block CMFP construction merges the faults into components
//! and solves each one on its window (the virtual block plus an unclipped
//! one-node margin). A batch construction creates one shape cache for its
//! components: a component whose window has at most 64 cells is keyed on
//! the window's size and member bits, solved once per distinct key, and
//! every later component of that shape takes the stored rounds and
//! polygon bits, placed at its own window. The solve reads nothing outside
//! the window, so the cache is exact. In the paper's sweep nearly every
//! component is a single fault or a tiny cluster, and over nine in ten
//! repeat a shape already solved in the same construction. The cache
//! lives only in [`CentralizedMfpModel::solve_components`]; the public
//! per-component entry point
//! ([`construct_component_with`](crate::construct_component_with)) does
//! not use one. The concave-section solution runs the same merge → solve →
//! pile pipeline, each component hulled by the bit-parallel fixpoint on
//! its bounding box, with no cache.
//!
//! The choice between the two centralized solutions lives here and in
//! that entry point only: Figure 11 counts the rounds of solution 1, and
//! the tests compare the two. The incremental engine always runs the
//! concave-section fixpoint.

use crate::component::{merge_components, FaultyComponent};
use crate::construction::{construct_component_on, ComponentPolygon, ConstructionScratch};
use crate::shape_cache::ShapeCache;
use crate::superseding::pile_polygons;
use fblock::{FaultModel, ModelOutcome, RoundStats};
use mesh2d::{FaultSet, Mesh2D, Region};

/// Which centralized formulation computes the per-component polygons.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CentralizedSolution {
    /// Solution 1: emulate labelling schemes 1 and 2 on each component's
    /// virtual faulty block. Round counts are the per-component labelling
    /// rounds (the CMFP series of Figure 11).
    #[default]
    VirtualBlock,
    /// Solution 2: disable every node on a concave row/column section.
    /// Reported "rounds" are scan-then-fill iterations (an algorithmic
    /// metric, not neighbor exchanges).
    ConcaveSections,
}

/// The centralized minimum faulty polygon construction (model name `CMFP`).
#[derive(Clone, Copy, Debug, Default)]
pub struct CentralizedMfpModel {
    /// Formulation used to compute each component's polygon.
    pub solution: CentralizedSolution,
}

impl CentralizedMfpModel {
    /// A model using centralized solution 1 (virtual faulty blocks).
    pub fn virtual_block() -> Self {
        CentralizedMfpModel {
            solution: CentralizedSolution::VirtualBlock,
        }
    }

    /// A model using centralized solution 2 (concave row/column sections).
    pub fn concave_sections() -> Self {
        CentralizedMfpModel {
            solution: CentralizedSolution::ConcaveSections,
        }
    }

    /// Solves every component and returns the per-component polygons together
    /// with the network-wide round statistics (components are constructed in
    /// disjoint areas of the mesh, so their rounds compose in parallel).
    ///
    /// Each component is solved by the code behind the public
    /// per-component entry point
    /// ([`construct_component_with`](crate::construct_component_with)).
    /// The virtual-block solution also threads a shape cache through the
    /// components, so each distinct small component shape is solved once
    /// per call.
    pub fn solve_components(&self, components: &[FaultyComponent]) -> (Vec<Region>, RoundStats) {
        use rayon::prelude::*;
        let cached = self.solution == CentralizedSolution::VirtualBlock;
        // One contiguous run of components per worker, each run solved on
        // one scratch and one shape cache (nothing mutable is shared across
        // tasks): the solves re-frame the same buffers instead of
        // allocating per component, and a shape met anywhere in the run is
        // solved once. Without a pool the single run is every component.
        // The ordered collect keeps component order, and the round
        // composition (max rounds, summed events) is fold-order-independent,
        // so every thread count reports identical stats.
        let solve_run = |run: &[FaultyComponent]| {
            let mut scratch = ConstructionScratch::new();
            let mut cache = ShapeCache::new();
            run.iter()
                .map(|c| {
                    construct_component_on(
                        c,
                        self.solution,
                        &mut scratch,
                        cached.then_some(&mut cache),
                    )
                })
                .collect::<Vec<ComponentPolygon>>()
        };
        let run_len = components
            .len()
            .div_ceil(rayon::current_num_threads())
            .max(1);
        let runs: Vec<&[FaultyComponent]> = components.chunks(run_len).collect();
        let solutions: Vec<Vec<ComponentPolygon>> =
            runs.par_iter().map(|run| solve_run(run)).collect();
        let mut polygons = Vec::with_capacity(components.len());
        let mut rounds = RoundStats::quiescent();
        for sol in solutions.into_iter().flatten() {
            rounds = rounds.in_parallel_with(sol.rounds);
            polygons.push(sol.polygon);
        }
        (polygons, rounds)
    }
}

impl FaultModel for CentralizedMfpModel {
    fn name(&self) -> &'static str {
        "CMFP"
    }

    /// Both solutions run the same pipeline: the merge process, the
    /// per-component solves of [`solve_components`](Self::solve_components)
    /// and the superseding pile of the polygons.
    fn construct(&self, mesh: &Mesh2D, faults: &FaultSet) -> ModelOutcome {
        let components = merge_components(faults);
        let (polygons, rounds) = self.solve_components(&components);
        ModelOutcome {
            model: "CMFP".to_string(),
            status: pile_polygons(mesh, faults, &polygons),
            regions: polygons,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::standard_registry;
    use fblock::SubMinimumPolygonModel;
    use mesh2d::Coord;

    fn faults(mesh: Mesh2D, list: &[(i32, i32)]) -> FaultSet {
        FaultSet::from_coords(mesh, list.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    #[test]
    fn both_centralized_solutions_agree() {
        let mesh = Mesh2D::square(16);
        let fs = faults(
            mesh,
            &[
                (2, 2),
                (3, 2),
                (4, 2),
                (2, 3),
                (4, 3),
                (2, 4),
                (4, 4),
                (9, 9),
                (10, 10),
                (11, 9),
                (10, 8),
                (0, 15),
                (1, 14),
            ],
        );
        let a = CentralizedMfpModel::virtual_block().construct(&mesh, &fs);
        let b = CentralizedMfpModel::concave_sections().construct(&mesh, &fs);
        assert_eq!(a.status, b.status);
        assert_eq!(a.regions, b.regions);
    }

    #[test]
    fn cmfp_never_disables_more_than_fp() {
        // The paper's Theorem: the per-component polygons contain no more
        // non-faulty nodes than any covering set of convex polygons — in
        // particular no more than the sub-minimum polygons.
        let mesh = Mesh2D::square(20);
        let fs = faults(
            mesh,
            &[
                (2, 6),
                (3, 7),
                (3, 5),
                (2, 4),
                (7, 6),
                (7, 5),
                (8, 5),
                (8, 4),
                (9, 4),
                (7, 7),
                (14, 14),
                (15, 15),
                (16, 14),
            ],
        );
        let fp = SubMinimumPolygonModel.construct(&mesh, &fs);
        let cmfp = CentralizedMfpModel::virtual_block().construct(&mesh, &fs);
        assert!(cmfp.disabled_nonfaulty() <= fp.disabled_nonfaulty());
        assert!(cmfp.covers_all_faults());
        assert!(cmfp.all_regions_convex());
    }

    #[test]
    fn cmfp_outcome_metadata() {
        let mesh = Mesh2D::square(10);
        let fs = faults(mesh, &[(2, 2), (3, 3), (7, 7)]);
        let outcome = CentralizedMfpModel::default().construct(&mesh, &fs);
        assert_eq!(outcome.model, "CMFP");
        assert_eq!(outcome.regions.len(), 2);
        assert!(outcome.rounds.converged);
        assert_eq!(CentralizedMfpModel::default().name(), "CMFP");
    }

    #[test]
    fn analysis_runs_all_models_consistently() {
        let mesh = Mesh2D::square(14);
        let fs = faults(mesh, &[(3, 3), (4, 4), (5, 3), (4, 2), (9, 9), (10, 10)]);
        let registry = standard_registry();
        let outcomes: Vec<ModelOutcome> = registry
            .names()
            .map(|name| registry.construct(name, &mesh, &fs).unwrap())
            .collect();
        for outcome in &outcomes {
            assert!(outcome.covers_all_faults(), "{}", outcome.model);
            assert_eq!(outcome.faulty_count(), fs.len(), "{}", outcome.model);
        }
        let [fb, fp, cmfp, dmfp] = &outcomes[..] else {
            panic!("the standard registry holds the paper's four models");
        };
        assert_eq!(
            [&fb.model, &fp.model, &cmfp.model, &dmfp.model],
            ["FB", "FP", "CMFP", "DMFP"]
        );
        // The ordering the paper reports: MFP disables no more than FP, which
        // disables no more than FB.
        assert!(cmfp.disabled_nonfaulty() <= fp.disabled_nonfaulty());
        assert!(fp.disabled_nonfaulty() <= fb.disabled_nonfaulty());
        assert_eq!(cmfp.disabled_nonfaulty(), dmfp.disabled_nonfaulty());
    }

    #[test]
    fn empty_fault_set_produces_empty_outcome() {
        let mesh = Mesh2D::square(8);
        let outcome = CentralizedMfpModel::default().construct(&mesh, &FaultSet::new(mesh));
        assert!(outcome.regions.is_empty());
        assert_eq!(outcome.disabled_nonfaulty(), 0);
        assert_eq!(outcome.rounds.rounds, 0);
    }
}
