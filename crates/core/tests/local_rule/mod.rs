//! The scalar specification of labelling schemes 1 and 2: each scheme as a
//! per-node local rule, run on a synchronous round engine.
//!
//! A *local rule* computes a node's next state from its own state and the
//! current states of its mesh 4-neighbors. All nodes update synchronously;
//! one sweep over the network is one **round**, the paper's "rounds of
//! information exchanges and updates between neighbors". The production
//! models run both schemes bit-parallel on `fblock::LabelFrame`; this is
//! the node-at-a-time execution they must equal, labels and round
//! statistics alike.

use fblock::RoundStats;
use mesh2d::{Activation, Coord, FaultSet, Grid, Mesh2D, Safety};

/// A protocol in which every node repeatedly recomputes its state from its
/// 4-neighborhood.
pub trait LocalRuleAutomaton {
    /// Per-node protocol state.
    type State: Clone + PartialEq;

    /// The initial state of node `c`.
    fn init(&self, c: Coord) -> Self::State;

    /// Computes the next state of node `c` given its current state and the
    /// current states of its in-mesh 4-neighbors.
    fn step(
        &self,
        c: Coord,
        current: &Self::State,
        neighbors: &[(Coord, &Self::State)],
    ) -> Self::State;
}

/// Runs `automaton` on `mesh` until a fixpoint is reached (both labelling
/// schemes are monotone, so they always get there). Returns the final
/// per-node states and the round statistics.
pub fn run_local_rule<A: LocalRuleAutomaton>(
    mesh: &Mesh2D,
    automaton: &A,
) -> (Grid<A::State>, RoundStats) {
    let mut states = Grid::from_fn(mesh.width() as u32, mesh.height() as u32, |c| {
        automaton.init(c)
    });
    let mut stats = RoundStats::quiescent();
    loop {
        let mut changes: Vec<(Coord, A::State)> = Vec::new();
        for c in mesh.nodes() {
            let neighbors: Vec<(Coord, &A::State)> =
                mesh.neighbors4(c).map(|n| (n, &states[n])).collect();
            let next = automaton.step(c, &states[c], &neighbors);
            if next != states[c] {
                changes.push((c, next));
            }
        }
        if changes.is_empty() {
            break;
        }
        stats.rounds += 1;
        stats.events += changes.len() as u64;
        for (c, s) in changes {
            states[c] = s;
        }
    }
    (states, stats)
}

/// Labelling scheme 1 as a local rule over [`Safety`] states: *a
/// non-faulty node is changed to unsafe if it has a faulty or unsafe
/// neighbor in both dimensions*.
pub struct Scheme1Rule<'f> {
    faults: &'f FaultSet,
}

impl LocalRuleAutomaton for Scheme1Rule<'_> {
    type State = Safety;

    fn init(&self, c: Coord) -> Safety {
        if self.faults.is_faulty(c) {
            Safety::Unsafe
        } else {
            Safety::Safe
        }
    }

    fn step(&self, c: Coord, current: &Safety, neighbors: &[(Coord, &Safety)]) -> Safety {
        if *current == Safety::Unsafe {
            // Faulty nodes and already-unsafe nodes never revert.
            return Safety::Unsafe;
        }
        let mut unsafe_in_x = false;
        let mut unsafe_in_y = false;
        for (n, &s) in neighbors {
            if s == Safety::Unsafe {
                if n.y == c.y {
                    unsafe_in_x = true;
                } else {
                    unsafe_in_y = true;
                }
            }
        }
        if unsafe_in_x && unsafe_in_y {
            Safety::Unsafe
        } else {
            Safety::Safe
        }
    }
}

/// Labelling scheme 2 as a local rule over [`Activation`] states: *an
/// unsafe node is initially marked disabled, but it is changed to enabled
/// if it has two or more enabled neighbors*. Faulty nodes never re-enable.
pub struct Scheme2Rule<'a> {
    faults: &'a FaultSet,
    safety: &'a Grid<Safety>,
}

impl LocalRuleAutomaton for Scheme2Rule<'_> {
    type State = Activation;

    fn init(&self, c: Coord) -> Activation {
        if self.safety[c] == Safety::Safe {
            Activation::Enabled
        } else {
            Activation::Disabled
        }
    }

    fn step(
        &self,
        c: Coord,
        current: &Activation,
        neighbors: &[(Coord, &Activation)],
    ) -> Activation {
        if self.faults.is_faulty(c) {
            return Activation::Disabled;
        }
        if *current == Activation::Enabled {
            return Activation::Enabled;
        }
        let enabled_neighbors = neighbors
            .iter()
            .filter(|(_, &a)| a == Activation::Enabled)
            .count();
        if enabled_neighbors >= 2 {
            Activation::Enabled
        } else {
            Activation::Disabled
        }
    }
}

/// The scalar specification of `fblock::label_safety`.
pub fn label_safety_scalar(mesh: &Mesh2D, faults: &FaultSet) -> (Grid<Safety>, RoundStats) {
    run_local_rule(mesh, &Scheme1Rule { faults })
}

/// The scalar specification of `fblock::label_activation`, on top of a
/// scheme-1 labelling.
pub fn label_activation_scalar(
    mesh: &Mesh2D,
    faults: &FaultSet,
    safety: &Grid<Safety>,
) -> (Grid<Activation>, RoundStats) {
    run_local_rule(mesh, &Scheme2Rule { faults, safety })
}

mod tests {
    use super::*;

    /// A toy rule: a node becomes "hot" when any neighbor is hot. Starting
    /// from a single hot node this floods the mesh, one Manhattan-distance
    /// ring per round — an easy way to validate round counting.
    struct Flood {
        source: Coord,
    }

    impl LocalRuleAutomaton for Flood {
        type State = bool;
        fn init(&self, c: Coord) -> bool {
            c == self.source
        }
        fn step(&self, _c: Coord, current: &bool, neighbors: &[(Coord, &bool)]) -> bool {
            *current || neighbors.iter().any(|(_, &s)| s)
        }
    }

    fn flood(mesh: &Mesh2D, x: i32, y: i32) -> (Grid<bool>, RoundStats) {
        run_local_rule(
            mesh,
            &Flood {
                source: Coord::new(x, y),
            },
        )
    }

    #[test]
    fn flood_round_count_equals_eccentricity() {
        let mesh = Mesh2D::square(6);
        let (states, stats) = flood(&mesh, 0, 0);
        assert!(stats.converged);
        // the farthest node is at Manhattan distance 10
        assert_eq!(stats.rounds, 10);
        assert!(mesh.nodes().all(|c| states[c]));
    }

    #[test]
    fn flood_from_center_is_faster() {
        let mesh = Mesh2D::square(7);
        let (_, corner) = flood(&mesh, 0, 0);
        let (_, center) = flood(&mesh, 3, 3);
        assert!(center.rounds < corner.rounds);
        assert_eq!(center.rounds, 6);
    }

    #[test]
    fn already_stable_rule_takes_zero_rounds() {
        struct Constant;
        impl LocalRuleAutomaton for Constant {
            type State = u8;
            fn init(&self, _c: Coord) -> u8 {
                42
            }
            fn step(&self, _c: Coord, current: &u8, _n: &[(Coord, &u8)]) -> u8 {
                *current
            }
        }
        let mesh = Mesh2D::square(4);
        let (states, stats) = run_local_rule(&mesh, &Constant);
        assert_eq!(stats.rounds, 0);
        assert!(stats.converged);
        assert_eq!(stats.events, 0);
        assert!(mesh.nodes().all(|c| states[c] == 42));
    }

    #[test]
    fn events_count_state_changes() {
        let mesh = Mesh2D::square(3);
        let (_, stats) = flood(&mesh, 1, 1);
        // every node except the source changes exactly once
        assert_eq!(stats.events, (mesh.node_count() - 1) as u64);
    }
}
