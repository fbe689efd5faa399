//! # mocp-core — minimum orthogonal convex polygons in 2-D faulty meshes
//!
//! This crate implements the primary contribution of *Wu & Jiang, "On
//! Constructing the Minimum Orthogonal Convex Polygon in 2-D Faulty Meshes"
//! (IPDPS 2004)*: given a set of faulty nodes, construct a set of disjoint
//! orthogonal convex polygons that covers every fault while disabling the
//! minimum number of non-faulty nodes.
//!
//! The construction has two phases (Section 3):
//!
//! 1. **Component formation** — faulty nodes are merged into components of
//!    adjacent (8-neighborhood, Definition 2) faulty nodes
//!    ([`component::FaultyComponent`], [`component::merge_components`]).
//! 2. **Polygon completion** — a minimum number of non-faulty nodes is added
//!    to make each component orthogonally convex. Two equivalent centralized
//!    formulations are provided:
//!    * the virtual-block solution ([`centralized`]) emulates labelling
//!      schemes 1 and 2 on each component's *virtual faulty block*
//!      (solution 1, [`CentralizedSolution::VirtualBlock`]);
//!    * the concave-section solution disables every node on a *concave
//!      row/column section* ([`concave::ConcaveSection`]) of the component,
//!      iterated to the fixpoint bit-parallel (solution 2,
//!      [`CentralizedSolution::ConcaveSections`]);
//!
//!    [`construct_component_with`] solves one component with either. There
//!    is also a **distributed** formulation ([`distributed`]) in which
//!    boundary nodes build a ring around each component, detect concave
//!    sections with the boundary array `V[1..n](E,S,W,N)`, and notify the
//!    section nodes, routing around blocking polygons when necessary.
//!
//! The high-level entry points are the two [`fblock::FaultModel`]
//! implementations:
//!
//! * [`CentralizedMfpModel`] (model name `"CMFP"`),
//! * [`DistributedMfpModel`] (model name `"DMFP"`),
//!
//! both of which produce a [`fblock::ModelOutcome`] whose disabled set is the
//! union of per-component minimum faulty polygons combined under the
//! superseding rule, together with the round counts plotted in Figure 11.
//!
//! ```
//! use mesh2d::{Coord, FaultSet, Mesh2D};
//! use fblock::FaultModel;
//! use mocp_core::CentralizedMfpModel;
//!
//! let mesh = Mesh2D::square(8);
//! // A U-shaped fault pattern: the minimum polygon must add the two notch
//! // nodes, and nothing else.
//! let faults = FaultSet::from_coords(
//!     mesh,
//!     [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (4, 4)]
//!         .map(|(x, y)| Coord::new(x, y)),
//! );
//! let outcome = CentralizedMfpModel::default().construct(&mesh, &faults);
//! assert_eq!(outcome.disabled_nonfaulty(), 2);
//! assert!(outcome.all_regions_convex());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod centralized;
pub mod component;
pub mod concave;
pub mod construction;
pub mod distributed;
pub mod hull;
pub mod registry;
mod shape_cache;
pub mod superseding;
pub mod verify;

pub use analysis::{CentralizedMfpModel, CentralizedSolution};
pub use component::{merge_components, merge_components_with, FaultyComponent};
pub use concave::{ConcaveSection, Orientation};
pub use construction::{construct_component_with, ComponentPolygon, ConstructionScratch};
pub use distributed::protocol::{DistributedMfpModel, DmfpScratch};
pub use hull::minimum_polygon;
pub use registry::standard_registry;
pub use verify::is_minimum_covering_polygon;
