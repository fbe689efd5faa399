//! Heavy-traffic network simulation over live MFP regions.
//!
//! This crate drives millions of messages through a faulty 2-D mesh whose
//! excluded regions come from any fault-model outcome (fault blocks or
//! minimal orthogonal convex polygons), and measures what the region shape
//! costs the network *dynamically*: delivered throughput, latency
//! distribution, path stretch and virtual-channel buffer pressure — the
//! operational counterpart of the static node-loss metrics the rest of the
//! workspace reports.
//!
//! The simulator is cycle-driven and flit-free: a message occupies one
//! virtual-channel buffer slot per hop, links arbitrate round-robin among
//! the four message-class channels each cycle, and routing decisions are
//! taken hop-by-hop with [`meshroute::ExtendedECube`] — so the measured
//! detours are exactly the router the workspace ships, not a model of it.
//! Everything is seeded and sequential per run: the same configuration
//! produces a bit-identical [`TrafficReport`] on any thread count.
//!
//! Modules:
//!
//! * [`pattern`] — seeded uniform / transpose / hotspot generators behind
//!   the [`TrafficPattern`] trait;
//! * [`sim`] — the cycle-driven simulator ([`simulate`], [`SimConfig`]);
//! * [`stats`] — the deterministic [`TrafficReport`] and its pieces;
//! * [`reroute`] — incremental rerouting: a [`RerouteIndex`] that consumes
//!   coalesced [`mesh2d::StatusDelta`] batches and recomputes only the
//!   routes whose dependency footprint the changed cells intersect, with a
//!   from-scratch oracle proving exact equivalence; [`LiveReroute`] runs
//!   the same index against a live `mocp_serve` tenant over a bounded,
//!   lossy subscription, detecting `seq` gaps and resynchronizing from a
//!   coherent snapshot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pattern;
pub mod reroute;
pub mod sim;
pub mod stats;

pub use pattern::{pattern_by_name, Hotspot, TrafficPattern, Transpose, Uniform, PATTERN_NAMES};
pub use reroute::{BatchOutcome, LiveReroute, RerouteIndex, RerouteStats};
pub use sim::{simulate, SimConfig, MAX_VC_CAPACITY};
pub use stats::{LatencySummary, ReachableStats, TrafficReport, VcOccupancy};
