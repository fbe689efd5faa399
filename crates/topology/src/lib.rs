//! # mocp-topology — the dimension-generic fault-model core
//!
//! The paper presents its 3-D orthogonal-convex-polyhedra construction as
//! *the same algorithm on a different topology*. This crate is that claim
//! as an API: everything the experiment harness needs from a mesh — node
//! addressing, neighborhoods, fault sets, per-node status storage, region
//! geometry — is captured by the [`MeshTopology`] trait and its associated
//! types, and everything a fault model produces is the single generic
//! [`Outcome`]. The 2-D (`mesh2d::Mesh2D`) and 3-D (`mocp_3d::Mesh3D`)
//! stacks are two implementations of the same vocabulary:
//!
//! * [`MeshTopology`] — the topology itself: coordinate type, dense node
//!   indexing, the cluster (Definition 2) neighborhood, and the region /
//!   status / fault-set types that live on it;
//! * [`RegionOps`] / [`StatusOps`] / [`FaultStore`] — the shared
//!   operations those associated types provide (union, components,
//!   convexity check; disabled/faulty counts; sequential insertion with
//!   exact removal);
//! * `mesh2d::WordGrid` — the one word-packed grid both dimensions store
//!   their regions in (64 nodes per word; whole-word subset /
//!   intersection / dilation / convexity kernels). It is no trait of this
//!   crate: [`MeshTopology::Coord`] is a `mesh2d::GridCoord`, so
//!   [`RegionOps::bitmap`] names the grid over the topology's
//!   coordinates, and the generic safety predicates run on it;
//! * [`FaultModel`] — the one model trait every construction implements,
//!   for any topology (it defaults to `Mesh2D`, so existing 2-D model
//!   impls read unchanged);
//! * [`Outcome`] — the construction result carrying the paper's Figure
//!   9/10 metrics and safety predicates once, generically, instead of one
//!   hand-written impl block per dimension;
//! * [`NamedRegistry`] / [`ModelRegistry`] — the name-keyed constructor
//!   registry the sweeps resolve models through; the 2-D and 3-D
//!   registries are two instantiations of [`ModelRegistry`].
//!
//! Layering: this crate sits between `mesh2d` (which it uses for the 2-D
//! implementation, the trait defaults and the word grid) and everything
//! else — `fblock`, `mocp_core` and `mocp_3d` implement [`FaultModel`]
//! against it, `faultgen` drives its [`MeshTopology`] from one generic
//! injector, and `experiments` runs one scenario loop over any
//! [`ModelRegistry`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mesh;
pub mod model;
pub mod ops;
pub mod registry;
pub mod stats;

pub use mesh::MeshTopology;
pub use model::{FaultModel, Outcome};
pub use ops::{FaultStore, RegionOps, StatusOps};
pub use registry::{BoxedModel, ModelRegistry, NamedRegistry, UnknownModel};
pub use stats::RoundStats;
