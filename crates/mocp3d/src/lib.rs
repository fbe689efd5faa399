//! # mocp-3d — minimum orthogonal convex polyhedra in 3-D faulty meshes
//!
//! The paper's conclusion names the extension of the minimum orthogonal
//! convex polygon construction to orthogonal convex *polyhedra* in 3-D
//! meshes as its key future work. This crate carries that extension end to
//! end, mirroring the 2-D stack's layering:
//!
//! * [`Coord3`] / [`Mesh3D`] / [`Grid3`] — the 3-D mesh substrate with
//!   dense, flat-`Vec` per-node storage (the analogue of `mesh2d`);
//! * [`Region3`] — bitmap-backed node sets with 26-connected component
//!   labelling and the minimum orthogonal convex hull, checked against the
//!   scalar specification prototype that `tests/hull_oracle.rs` holds as
//!   its differential oracle;
//! * [`FaultSet3`] / [`FaultInjector3`] — the paper's random and clustered
//!   fault distributions in 3-D; the fault set keeps its 26-connected
//!   components ([`FaultComponent3`]) as faults arrive; the injector is the `Mesh3D`
//!   instantiation of `faultgen`'s generic injector, sharing its
//!   weighted-sampling core (the clustered model doubles the rate of the
//!   26-neighborhood);
//! * [`FaultyCuboidModel`] (`"FB3D"`) and [`MinimumPolyhedronModel`]
//!   (`"MFP3D"`) — the cuboid baseline and the minimum-polyhedron
//!   construction, implementing the dimension-generic
//!   `mocp_topology::FaultModel<Mesh3D>` and producing [`Outcome3`], the
//!   `Mesh3D` instantiation of the one generic `Outcome`;
//! * the [`topology`] module — `Mesh3D: MeshTopology` plus the region /
//!   status / fault-store trait impls that plug the whole 3-D stack into
//!   the generic registry, injector and scenario runner.
//!
//! The `experiments` crate sweeps these models over a 32×32×32 mesh
//! (`paper_figures --dim 3`) through the *same* `run_scenario` code path
//! as the 2-D figures, producing the 3-D analogues of the paper's
//! Figures 9 and 10.
//!
//! ```
//! use mocp_3d::{generate_faults_3d, standard_registry_3d, Mesh3D};
//! use faultgen::FaultDistribution;
//!
//! let mesh = Mesh3D::cube(12);
//! let faults = generate_faults_3d(mesh, 30, FaultDistribution::Clustered, 1);
//! let registry = standard_registry_3d();
//! let fb = registry.construct("FB3D", &mesh, &faults).unwrap();
//! let mfp = registry.construct("MFP3D", &mesh, &faults).unwrap();
//! assert!(mfp.disabled_nonfaulty() <= fb.disabled_nonfaulty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitgrid;
pub mod fault;
pub mod grid;
pub mod mesh;
pub mod model;
pub mod region;
pub mod registry;
pub mod topology;

pub use bitgrid::BitGrid3;
pub use fault::{generate_faults_3d, FaultComponent3, FaultInjector3, FaultSet3};
pub use grid::Grid3;
pub use mesh::{Coord3, Mesh3D};
pub use model::{FaultyCuboidModel, MinimumPolyhedronModel, Outcome3};
pub use region::Region3;
pub use registry::{standard_registry_3d, BoxedModel3, ModelRegistry3};

// The dimension-generic vocabulary this crate instantiates.
pub use mocp_topology::{FaultModel, MeshTopology, Outcome};
