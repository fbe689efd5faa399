//! # mocp — minimum orthogonal convex polygons in 2-D faulty meshes
//!
//! Facade over the workspace crates reproducing *Wu & Jiang, "On
//! Constructing the Minimum Orthogonal Convex Polygon in 2-D Faulty
//! Meshes" (IPDPS 2004)*. Depend on this crate to get every layer under
//! one name, or depend on the individual crates re-exported below.
//!
//! ```
//! use mocp::faultgen::{generate_faults, FaultDistribution};
//! use mocp::fblock::FaultModel as _;
//! use mocp::mesh2d::Mesh2D;
//!
//! let mesh = Mesh2D::square(12);
//! let faults = generate_faults(mesh, 10, FaultDistribution::Clustered, 1);
//! let registry = mocp::mocp_core::standard_registry();
//! let outcome = registry.construct("CMFP", &mesh, &faults).unwrap();
//! assert!(outcome.covers_all_faults());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use experiments;
pub use faultgen;
pub use fblock;
pub use mesh2d;
pub use meshroute;
pub use mocp_3d;
pub use mocp_core;
pub use mocp_incremental;
pub use mocp_obs;
pub use mocp_serve;
pub use mocp_topology;
pub use mocp_traffic;
