//! # distsim — synchronous round-based distributed simulation
//!
//! Every construction in the paper is evaluated by "the number of rounds of
//! information exchanges and updates between neighbors" (Figure 11). This
//! crate provides the substrate on which those rounds are executed and
//! counted:
//!
//! * [`LocalRuleAutomaton`] + [`run_local_rule`] — the *neighborhood rule*
//!   model: in each round every node reads its neighbors' current states and
//!   computes its next state. Labelling scheme 1 (faulty-block growing) and
//!   labelling scheme 2 (polygon shrinking) are local rules.
//! * [`RoundStats`] — the round / state-change accounting of one execution,
//!   which the models also use for their own round counts.
//!
//! The engine is deterministic: node updates are applied synchronously, so a
//! given rule and fault pattern always produces the same result and the same
//! round count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod stats;

pub use engine::{run_local_rule, run_local_rule_with_limit, LocalRuleAutomaton};
pub use stats::RoundStats;
