//! Centralized solution 1: emulate labelling schemes 1 and 2 on each
//! component's virtual faulty block.
//!
//! For every faulty component the merge process recorded the corners of its
//! virtual faulty block `[(min_x, min_y), (max_x, max_y)]`. Labelling
//! scheme 1, applied to the component alone, grows exactly this rectangle;
//! labelling scheme 2 then re-enables the unsafe non-faulty nodes that have
//! two or more enabled neighbors. The nodes that remain disabled form the
//! component's minimum faulty polygon.
//!
//! To keep the construction cheap on large meshes (the paper's simulation
//! uses a 100×100 mesh with up to 800 faults), the emulation runs on a small
//! window — the virtual block plus a one-node margin — rather than on the
//! whole network. The margin is required because scheme 2 counts enabled
//! neighbors *outside* the block. The margin is **not** clipped at the mesh
//! border: the minimum faulty polygon is a geometric notion (the component's
//! orthogonal convex hull), so the shrinking phase treats the mesh as if it
//! extended past its border; otherwise a component hugging the border would
//! keep extra healthy nodes disabled merely because border nodes have fewer
//! neighbors, and the centralized solutions, the distributed protocol and
//! the specification would disagree on border components.
//!
//! The window is a reusable packed [`LabelFrame`] in window-local
//! coordinates (the window's origin may be `(-1, -1)` in mesh
//! coordinates): the component's faults are loaded as bits, both schemes
//! run bit-parallel, and the polygon is read off the frame's disabled
//! bits. The solve is reached through
//! [`construct_component_with`](crate::construct_component_with) with
//! [`CentralizedSolution::VirtualBlock`](crate::CentralizedSolution::VirtualBlock),
//! whose [`ConstructionScratch`](crate::ConstructionScratch) holds the
//! frame, so it allocates only the output polygon. The batch
//! [`CentralizedMfpModel`](crate::CentralizedMfpModel) also solves through
//! a shape cache, which answers a repeated small window from the first
//! solve of its shape. `mocp_core`'s `construct_oracle` test keeps the
//! per-window `FaultSet`/`Grid` emulation this replaced as its oracle.

use crate::component::FaultyComponent;
use crate::construction::ComponentPolygon;
use crate::shape_cache::{ShapeCache, ShapeKey};
use fblock::LabelFrame;
use fblock::RoundStats;
use mesh2d::{BitGrid, Coord, Rect, Region};

/// Centralized solution 1 (virtual faulty block + labelling schemes 1 and 2).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct VirtualBlockSolver;

impl VirtualBlockSolver {
    /// Solves a single component on a caller-provided window frame, which
    /// is re-framed to the component's window. The rounds are those of
    /// neighbor information exchange the emulation of labelling schemes 1
    /// and 2 needed (the CMFP contribution to Figure 11).
    pub(crate) fn solve_with(
        &self,
        component: &FaultyComponent,
        frame: &mut LabelFrame,
    ) -> ComponentPolygon {
        let window = window_around(component.virtual_block());
        let offset = window.min();
        frame.reset(window.width() as i32, window.height() as i32);
        for c in component.iter() {
            frame.mark_fault(Coord::new(c.x - offset.x, c.y - offset.y));
        }

        // Labelling scheme 1 grows the component into its virtual faulty
        // block; labelling scheme 2 shrinks it to the minimum polygon.
        let rounds = frame.grow().then(frame.shrink());

        let polygon = polygon_in(
            component.virtual_block(),
            frame
                .excluded()
                .iter()
                .map(|c| Coord::new(c.x + offset.x, c.y + offset.y)),
        );
        ComponentPolygon { polygon, rounds }
    }

    /// [`solve_with`](Self::solve_with) through a shape cache: a component
    /// whose window holds at most 64 cells is solved once per distinct
    /// shape, and later components of that shape are read off the cache
    /// (rounds and polygon bits, placed at the component's window).
    pub(crate) fn solve_cached(
        &self,
        component: &FaultyComponent,
        frame: &mut LabelFrame,
        cache: &mut ShapeCache<SolvedShape>,
    ) -> ComponentPolygon {
        let window = window_around(component.virtual_block());
        let Some(key) = ShapeKey::new(window, component.iter()) else {
            return self.solve_with(component, frame);
        };
        if let Some(SolvedShape { rounds, polygon }) = cache.get(&key) {
            mocp_obs::counter!("construct.shape_cache_hits").inc();
            let polygon = polygon_in(component.virtual_block(), key.unpack(window.min(), polygon));
            return ComponentPolygon { polygon, rounds };
        }
        let sol = self.solve_with(component, frame);
        cache.insert(
            key,
            SolvedShape {
                rounds: sol.rounds,
                polygon: key.pack(window.min(), sol.polygon.bits().iter()),
            },
        );
        sol
    }
}

/// A cached virtual-block solve: its rounds and its polygon as window
/// bits of the component's [`ShapeKey`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SolvedShape {
    rounds: RoundStats,
    polygon: u64,
}

/// The polygon of `cells`, framed on the component's virtual block (which
/// is the polygon's bounding box).
fn polygon_in(block: Rect, cells: impl Iterator<Item = Coord>) -> Region {
    let mut bits = BitGrid::with_bounds(block.min(), block.max());
    for c in cells {
        bits.set(c);
    }
    Region::from_bits(bits)
}

/// The virtual block expanded by a one-node margin in every direction.
fn window_around(block: Rect) -> Rect {
    Rect::new(
        Coord::new(block.min().x - 1, block.min().y - 1),
        Coord::new(block.max().x + 1, block.max().y + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::CentralizedSolution;
    use crate::construction::{construct_component_with, ConstructionScratch};
    use crate::hull::minimum_polygon;
    use mesh2d::Mesh2D;

    /// Solution 1 through the public entry point, on a fresh frame.
    fn solve(component: &FaultyComponent) -> ComponentPolygon {
        construct_component_with(
            component,
            CentralizedSolution::VirtualBlock,
            &mut ConstructionScratch::new(),
        )
    }

    fn component(list: &[(i32, i32)]) -> FaultyComponent {
        FaultyComponent::new(Region::from_coords(
            list.iter().map(|&(x, y)| Coord::new(x, y)),
        ))
    }

    #[test]
    fn u_shape_polygon_matches_hull() {
        let u = component(&[(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)]);
        let sol = solve(&u);
        assert_eq!(sol.polygon, minimum_polygon(&u));
        assert!(sol.rounds.rounds > 0);
        assert!(sol.rounds.converged);
    }

    #[test]
    fn staircase_polygon_is_the_component() {
        let s = component(&[(2, 2), (3, 3), (4, 4)]);
        let sol = solve(&s);
        assert_eq!(sol.polygon, s.region().clone());
    }

    #[test]
    fn component_touching_mesh_border_is_handled() {
        // Components hugging the mesh corner still shrink to their geometric
        // hull — the emulation's window extends past the border so that the
        // shrinking rule is not starved of enabled neighbors there.
        let mesh = Mesh2D::square(6);
        let corner = component(&[(0, 0), (1, 1), (0, 2)]);
        let sol = solve(&corner);
        assert_eq!(sol.polygon, minimum_polygon(&corner));
        for c in sol.polygon.iter() {
            assert!(mesh.contains(c), "the hull never leaves the bounding box");
        }
    }

    #[test]
    fn window_adds_a_margin_on_every_side() {
        let w = window_around(Rect::new(Coord::new(0, 0), Coord::new(5, 5)));
        assert_eq!(w, Rect::new(Coord::new(-1, -1), Coord::new(6, 6)));
        let w2 = window_around(Rect::new(Coord::new(2, 2), Coord::new(3, 3)));
        assert_eq!(w2, Rect::new(Coord::new(1, 1), Coord::new(4, 4)));
    }

    #[test]
    fn solution_equals_specification_on_many_shapes() {
        let shapes: Vec<Vec<(i32, i32)>> = vec![
            vec![(5, 5)],
            vec![(3, 3), (4, 4), (5, 5), (6, 6)],
            vec![(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)],
            vec![(0, 2), (1, 1), (2, 0), (3, 1), (4, 2)],
            vec![
                (8, 8),
                (9, 8),
                (10, 8),
                (8, 9),
                (10, 9),
                (8, 10),
                (9, 10),
                (10, 10),
            ],
            vec![
                (0, 0),
                (1, 1),
                (0, 2),
                (1, 3),
                (2, 2),
                (3, 3),
                (4, 4),
                (3, 5),
                (4, 5),
                (5, 6),
            ],
        ];
        for shape in shapes {
            let comp = component(&shape);
            let sol = solve(&comp);
            assert_eq!(sol.polygon, minimum_polygon(&comp), "shape {shape:?}");
        }
    }

    #[test]
    fn rounds_scale_with_component_extent() {
        let small = component(&[(2, 2), (3, 3)]);
        let long: Vec<(i32, i32)> = (0..12).map(|i| (i + 2, i + 2)).collect();
        let large = component(&long);
        let r_small = solve(&small).rounds;
        let r_large = solve(&large).rounds;
        assert!(r_large.rounds > r_small.rounds);
    }
}
