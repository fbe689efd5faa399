//! # mocp-incremental — streaming maintenance of minimum faulty polygons
//!
//! The paper's evaluation (Section 4) injects up to 800 faults
//! *sequentially* into a 100×100 mesh — yet a batch reproduction recomputes
//! the component decomposition, every virtual faulty block and every concave
//! section from the full mesh at each fault count. This crate turns the
//! construction into an online fault-monitoring engine: an
//! [`IncrementalEngine`] consumes a stream of
//! [`FaultEvent`]s (`Inject` / `Repair`) and maintains,
//! per 8-connected faulty component, a cached minimum orthogonal convex
//! polygon and the network-wide status map, touching only the part of the
//! state the event actually changed.
//!
//! ## The merge / dirty strategy
//!
//! The engine keeps a union-find-flavoured component index: a dense grid
//! maps every faulty node to its component id, and each live component
//! stores its cell set, its bounding box (the paper's *virtual faulty
//! block*) and its cached polygon. Events update this index in sub-mesh
//! time:
//!
//! * **Inject into empty surroundings** — the fault starts a fresh
//!   singleton component.
//! * **Inject next to one component** — the component absorbs the fault. If
//!   the fault already lies *inside* the cached polygon the polygon is
//!   provably unchanged (the orthogonal convex hull is a closure operator:
//!   `hull(S ∪ {c}) = hull(S)` whenever `c ∈ hull(S)`), so the engine takes
//!   a pure cache hit and recomputes nothing.
//! * **Inject between several components** — they merge. The union is
//!   performed small-into-large (every absorbed cell is relabelled to the
//!   surviving id), which bounds total relabelling work at
//!   O(n log n) over any injection sequence.
//! * **Repair** — the fault leaves its component. The remaining cells are
//!   re-flooded *locally* (only that component's cells are visited); if the
//!   component fell apart, the largest piece keeps the id and the other
//!   pieces become new components.
//!
//! Only components touched by one of these transitions are marked **dirty**
//! and are hulled again; every other cached polygon is served as-is. A
//! dirty component is re-framed over its bounding box in its own polygon
//! grid and closed in place by the bit-parallel concave-section fixpoint
//! (centralized solution 2, [`mesh2d::BitGrid::hull_fixpoint`]), on the
//! flood buffers of one [`mocp_core::ConstructionScratch`] kept for the
//! engine's lifetime. Because distinct components' polygons may
//! geometrically overlap (a separate fault can sit inside another
//! component's hull), disabled status is maintained as a per-node *cover
//! count* — the number of live polygons containing the node — rather
//! than a boolean, so retiring one polygon never un-disables a node
//! another polygon still covers.
//!
//! Every event returns a [`StatusDelta`] — the nodes
//! that changed status — so downstream consumers (routing tables, sweep
//! statistics) update instead of rescanning the mesh.
//!
//! ## Equivalence
//!
//! After any event sequence the engine's status map and polygon set equal a
//! from-scratch batch construction
//! ([`CentralizedMfpModel`](mocp_core::CentralizedMfpModel)) over the same
//! surviving fault set — property-tested over random inject/repair
//! sequences, and relied on by `experiments`' streaming scenario mode,
//! which reproduces the paper's Figure 9/10 curves from one pass over one
//! injection sequence.
//!
//! ```
//! use mesh2d::{Coord, FaultEvent, Mesh2D};
//! use mocp_incremental::IncrementalEngine;
//!
//! let mesh = Mesh2D::square(8);
//! let mut engine = IncrementalEngine::new(mesh);
//! // A U-shaped component, one fault at a time. The notch (3,3) is already
//! // forced into the polygon by the two arms.
//! for (x, y) in [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4)] {
//!     engine.apply(FaultEvent::Inject(Coord::new(x, y)));
//! }
//! assert_eq!(engine.disabled_nonfaulty(), 1);
//! // Closing the U additionally forces (3,4).
//! let delta = engine.apply(FaultEvent::Inject(Coord::new(4, 4)));
//! assert_eq!(delta.newly_excluded().count(), 2); // (4,4) itself + (3,4)
//! assert_eq!(engine.disabled_nonfaulty(), 2);
//! // Repairing the corner re-enables it and releases (3,4) again.
//! let delta = engine.apply(FaultEvent::Repair(Coord::new(4, 4)));
//! assert_eq!(delta.newly_enabled().count(), 2);
//! assert_eq!(engine.disabled_nonfaulty(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;

pub use engine::{EngineStats, IncrementalEngine};
pub use mesh2d::{FaultEvent, StatusDelta};
