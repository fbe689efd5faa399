//! # fblock — rectangular faulty blocks and sub-minimum faulty polygons
//!
//! This crate implements the two *baseline* fault models the paper compares
//! against (Sections 1 and 2.3):
//!
//! * the **rectangular faulty block** model (FB): labelling scheme 1 grows
//!   every fault cluster into a rectangle by marking "unsafe" the non-faulty
//!   nodes that have a faulty/unsafe neighbor in both dimensions;
//! * Wu's **sub-minimum faulty polygon** model (FP, IPDPS 2001): labelling
//!   scheme 2 then shrinks each faulty block by re-enabling unsafe nodes that
//!   have two or more enabled neighbors, producing orthogonal convex
//!   polygons.
//!
//! Both schemes are *local rules* — every node updates from its own state and
//! its 4-neighbors' states. Both models execute them **bit-parallel** on
//! one packed [`LabelFrame`] (the [`bitlabel`] kernels): each synchronous
//! round is a shift-and-OR pass over word-packed row masks, 64 nodes per
//! operation, with the identical round structure as the scalar node-by-node
//! execution, so the round counts reported in Figure 11 still fall out of
//! the construction itself. The outcome goes from the fault list to the
//! status and the regions straight off the frame's excluded rows, with no
//! label grid in between. The scalar rules on a synchronous local-rule
//! engine are the specification; `mocp_core`'s `construct_oracle` test
//! holds them and the grid-based pipelines these models replaced, and
//! checks both against the models up to the paper's scale.
//!
//! The crate also re-exports the dimension-generic [`FaultModel`] trait
//! from `mocp_topology` (its topology parameter defaults to `Mesh2D`, so
//! 2-D model impls read unchanged) together with the 2-D [`ModelOutcome`]
//! alias of the generic `Outcome`, and pins the generic name-keyed
//! registry to 2-D as [`ModelRegistry`] so sweeps can be described as
//! data ([`baseline_registry`] registers FB and FP;
//! `mocp_core::standard_registry()` adds CMFP and DMFP).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitlabel;
pub mod blocks;
pub mod model;
pub mod registry;
pub mod scheme1;
pub mod scheme2;

pub use bitlabel::LabelFrame;
pub use blocks::{extract_faulty_blocks, FaultyBlockModel};
pub use model::{FaultModel, ModelOutcome, Outcome, RoundStats};
pub use registry::{baseline_registry, BoxedModel, ModelRegistry, NamedRegistry, UnknownModel};
pub use scheme1::label_safety;
pub use scheme2::{label_activation, SubMinimumPolygonModel};
