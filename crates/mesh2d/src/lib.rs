//! # mesh2d — 2-D mesh substrate
//!
//! This crate provides the interconnection-network substrate used throughout
//! the reproduction of *Wu & Jiang, "On Constructing the Minimum Orthogonal
//! Convex Polygon in 2-D Faulty Meshes" (IPDPS 2004)*:
//!
//! * [`Coord`] — node addresses `(x, y)` in a 2-D mesh,
//! * [`Mesh2D`] — the topology itself and its neighborhood queries,
//! * [`Grid`] — dense per-node storage,
//! * [`Rect`] — axis-aligned rectangles (faulty blocks, bounding boxes),
//! * [`Region`] — arbitrary node sets with connectivity and orthogonal
//!   convexity queries,
//! * [`NodeStatus`] and the labelling vocabulary (`Health`, `Safety`,
//!   `Activation`) from the paper's labelling schemes,
//! * [`render`] — ASCII rendering used by the examples.
//!
//! The crate is dependency-light by design: every algorithm in the upper
//! layers (`fblock`, `mocp-core`, `meshroute`) operates purely on these
//! types.
//!
//! ## Quick example
//!
//! ```
//! use mesh2d::{Coord, Mesh2D, Region};
//!
//! let mesh = Mesh2D::mesh(8, 8);
//! let faults = Region::from_coords([Coord::new(2, 4), Coord::new(3, 4), Coord::new(4, 3)]);
//! assert!(faults.is_orthogonally_convex());
//! assert_eq!(mesh.neighbors4(Coord::new(0, 0)).count(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitgrid;
pub mod coord;
pub mod direction;
pub mod fault;
pub mod grid;
pub mod rect;
pub mod region;
pub mod render;
pub mod status;
pub mod topology;

pub use bitgrid::{BitGrid, BitScratch, GridCoord, WordGrid, XMajor};
pub use coord::Coord;
pub use direction::{Direction, Turn};
pub use fault::{FaultEvent, FaultSet};
pub use grid::Grid;
pub use rect::Rect;
pub use region::{Connectivity, Region};
pub use status::{Activation, Health, NodeStatus, Safety, StatusDelta, StatusMap};
pub use topology::Mesh2D;
