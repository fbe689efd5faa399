//! # faultgen — fault-injection workloads
//!
//! The evaluation of *Wu & Jiang (IPDPS 2004)* injects node faults
//! sequentially into a 100×100 mesh under two distributions (Section 4):
//!
//! * the **random fault distribution model** — every healthy node is equally
//!   likely to be the next fault;
//! * the **clustered fault distribution model** — all nodes start with the
//!   same failure rate, and after a fault `(x, y)` is inserted the failure
//!   rate of its eight adjacent neighbors (Definition 2) is doubled, so there
//!   are exactly two failure rates in the system and faults tend to form
//!   clusters.
//!
//! This crate provides seeded, reproducible generators for both models, an
//! incremental [`FaultInjector`] (so experiments can take prefixes of one
//! fault sequence when sweeping the fault count), and a library of small
//! hand-built [`scenario`]s lifted from the paper's figures for tests and
//! examples.
//!
//! Since the `mocp_topology` redesign the injector is **generic over the
//! mesh topology**: `FaultInjector<Mesh2D>` (the default) and
//! `FaultInjector<Mesh3D>` are the same seeded draw / boost / undo loop
//! over the same [`WeightTable`]; only the cluster neighborhood — what
//! "adjacent" means to the clustered model, enumerated by
//! [`cluster_indices`] from the coordinate's `(x, y, z)` — differs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod injector;
pub mod scenario;
pub mod weights;

pub use injector::{
    cluster_indices, generate_faults, EventStream, FaultDistribution, FaultInjector,
    InjectorSnapshot,
};
pub use weights::{DrawRecord, WeightTable};
