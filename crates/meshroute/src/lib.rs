//! # meshroute — fault-tolerant, deadlock-free routing around faulty polygons
//!
//! Section 2.2 of the paper motivates the whole construction: once the fault
//! regions are orthogonal convex polygons, Chalasani and Boppana's *extended
//! e-cube* routing delivers messages around them with only four virtual
//! channels. This crate implements that application layer:
//!
//! * [`ecube`] — the fault-free base e-cube (x-y, dimension order) routing;
//! * [`message`] — the EW / WE / NS / SN message classes and their virtual
//!   channel assignment (`vc0..vc3`);
//! * [`extended`] — extended e-cube routing: messages follow the base route
//!   until they hit a faulty polygon, then travel around the region
//!   (clockwise or counterclockwise according to the paper's orientation
//!   rules) in the "abnormal" mode until the region no longer affects them;
//! * [`deadlock`] — the channel dependency graph built from a set of routes
//!   and its acyclicity check (the empirical deadlock-freedom argument);
//! * [`sample`] — the shared, deterministic source/destination pair sampler
//!   ([`PairSample`]) injected into experiments, benches and the traffic
//!   simulator's reachable-pair probe, so all layers measure one pair
//!   population;
//! * [`simulate`] — batch routing experiments (delivery rate, path stretch,
//!   abnormal hops) used by the examples and the integration tests to
//!   compare routing over FB regions against routing over MFP regions.
//!
//! Region state is reusable: derive a [`RegionMap`] once per status map and
//! construct any number of [`ExtendedECube::with_regions`] routers over it —
//! the `mocp_traffic` simulator routes millions of messages this way without
//! re-labelling excluded components per route.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod deadlock;
pub mod ecube;
pub mod extended;
pub mod message;
pub mod sample;
pub mod simulate;

pub use deadlock::ChannelDependencyGraph;
pub use ecube::{ecube_next_hop, ecube_route};
pub use extended::{ExtendedECube, RegionMap, RouteError, RoutePath, TracedRoute};
pub use message::{MessageClass, VirtualChannel};
pub use sample::PairSample;
pub use simulate::{RoutingExperiment, RoutingStats};
