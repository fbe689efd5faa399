//! Round and event accounting.
//!
//! [`RoundStats`] is the *per-execution* result value every construction
//! reports in its [`Outcome`](crate::Outcome): it is what the sweeps
//! record and what Figure 11 plots.

use std::ops::Add;

/// Statistics produced by one protocol execution.
///
/// `rounds` is the quantity plotted in Figure 11 of the paper: how many
/// synchronous rounds of neighbor information exchange were needed before the
/// construction stabilised.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RoundStats {
    /// Number of synchronous rounds executed (excluding the final quiescent
    /// round in which nothing changed).
    pub rounds: u32,
    /// Total number of events: point-to-point messages delivered by a
    /// message protocol, or node state changes applied by a local rule.
    pub events: u64,
    /// True when the execution stopped because it reached a fixpoint /
    /// quiescence rather than a round limit.
    pub converged: bool,
}

impl RoundStats {
    /// A converged zero-round execution (nothing to do).
    pub fn quiescent() -> Self {
        RoundStats {
            rounds: 0,
            events: 0,
            converged: true,
        }
    }

    /// Sequential composition of two protocol phases: rounds and events add,
    /// convergence requires both phases to have converged.
    pub fn then(self, later: RoundStats) -> RoundStats {
        RoundStats {
            rounds: self.rounds + later.rounds,
            events: self.events + later.events,
            converged: self.converged && later.converged,
        }
    }

    /// Parallel composition of independent executions (e.g. one per faulty
    /// component running simultaneously in disjoint parts of the mesh): the
    /// network-wide round count is the maximum, events add.
    pub fn in_parallel_with(self, other: RoundStats) -> RoundStats {
        RoundStats {
            rounds: self.rounds.max(other.rounds),
            events: self.events + other.events,
            converged: self.converged && other.converged,
        }
    }
}

impl Add for RoundStats {
    type Output = RoundStats;
    fn add(self, rhs: RoundStats) -> RoundStats {
        self.then(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_is_identity_for_then() {
        let s = RoundStats {
            rounds: 5,
            events: 17,
            converged: true,
        };
        assert_eq!(RoundStats::quiescent().then(s), s);
        assert_eq!(s.then(RoundStats::quiescent()), s);
    }

    #[test]
    fn sequential_composition_adds_rounds() {
        let a = RoundStats {
            rounds: 3,
            events: 10,
            converged: true,
        };
        let b = RoundStats {
            rounds: 4,
            events: 5,
            converged: false,
        };
        let c = a.then(b);
        assert_eq!(c.rounds, 7);
        assert_eq!(c.events, 15);
        assert!(!c.converged);
        assert_eq!(a + b, c);
    }

    #[test]
    fn parallel_composition_takes_max_rounds() {
        let a = RoundStats {
            rounds: 3,
            events: 10,
            converged: true,
        };
        let b = RoundStats {
            rounds: 9,
            events: 1,
            converged: true,
        };
        let c = a.in_parallel_with(b);
        assert_eq!(c.rounds, 9);
        assert_eq!(c.events, 11);
        assert!(c.converged);
    }
}
