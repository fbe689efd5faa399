//! # mocp_serve — sharded multi-tenant MFP monitoring service
//!
//! The paper's construction exists so a *live* mesh can keep routing
//! while faults arrive; the
//! [`IncrementalEngine`](mocp_incremental::IncrementalEngine) maintains
//! one mesh's minimum faulty polygons event by event. This crate turns that
//! single-mesh library into a service: **thousands of tenant meshes**
//! monitored concurrently, each absorbing its own
//! [`FaultEvent`](mesh2d::FaultEvent) stream while point queries are
//! answered from maintained state.
//!
//! Architecture (one [`MonitorService`]):
//!
//! * a **sharded registry** of engines — tenants hash onto mutex-striped
//!   shards, so an event batch being applied to one tenant only blocks
//!   queries that land on the *same shard*, never the whole service;
//! * an **ingestion front** — [`MonitorService::submit`] routes a batch
//!   of events to the bounded MPSC queue ([`crossbeam::channel`]) of the
//!   worker that owns the tenant. One worker owns each tenant (by hash),
//!   so a tenant's events are applied **in arrival order**; bounded
//!   queues give natural backpressure ([`MonitorService::try_submit`]
//!   surfaces it as [`SubmitError::Backpressure`] instead of blocking);
//! * **worker threads** drain the queues, apply each batch through the
//!   tenant's engine, and fan the batch's **coalesced**
//!   [`StatusDelta`](mesh2d::StatusDelta) (at most one transition per
//!   node, self-cancelling churn dropped) out to the tenant's
//!   subscribers;
//! * **point queries** — [`node_status`](MonitorService::node_status),
//!   [`region_of`](MonitorService::region_of),
//!   [`counts`](MonitorService::counts),
//!   [`polygons`](MonitorService::polygons) — read the maintained engine
//!   state under the shard lock: O(1) or output-proportional, no
//!   reconstruction, timed into the `serve.query.us` histogram.
//!
//! [`MonitorService::quiesce`] blocks until every submitted event has
//! been applied — the barrier the deterministic workload generator and
//! the sequential-equivalence tests stand on: after a quiesce, each
//! tenant's engine state equals a fresh engine fed that tenant's event
//! stream sequentially, no matter how many ingest threads interleaved
//! their submissions.
//!
//! ## Fault tolerance
//!
//! The service survives its own failures the way the paper's meshes
//! survive theirs:
//!
//! * each worker's bounded queue belongs to its **slot**, not its
//!   thread, so batches queued behind a dead worker simply wait for the
//!   replacement — [`MonitorService::quiesce`] still means "every
//!   accepted event is applied" across worker panics;
//! * a **supervisor** thread detects worker deaths, rebuilds mid-apply
//!   tenants from their fault sets, re-applies the one batch the dead
//!   worker held, and respawns a replacement on the same queue;
//! * per-tenant **health** ([`TenantHealth`]) is surfaced through
//!   queries; a rebuilding tenant serves its last coherent snapshot
//!   instead of a half-applied engine, and poisoned locks are stripped,
//!   never propagated;
//! * [`MonitorService::ingest`] bounds backpressure with a deadline and
//!   seeded decorrelated-jitter retries ([`RetryPolicy`]), returning
//!   [`IngestError::Saturated`] instead of blocking forever;
//!   [`MonitorService::quiesce_timeout`] bounds the drain barrier;
//! * [`MonitorService::shutdown`] returns a [`ShutdownReport`] instead
//!   of panicking when a worker died;
//! * the [`chaos`] module drives all of it deterministically: seeded
//!   kill plans, intake/recovery gates, and a quiet panic hook for
//!   tests.
//!
//! ```
//! use mesh2d::{Coord, FaultEvent, Mesh2D, NodeStatus};
//! use mocp_serve::{MonitorService, ServeConfig};
//!
//! let service = MonitorService::start(ServeConfig::default());
//! service.create_tenant(7, Mesh2D::square(16));
//! let updates = service.subscribe(7, None).unwrap();
//! service
//!     .submit(7, vec![FaultEvent::Inject(Coord::new(3, 3))])
//!     .unwrap();
//! service.quiesce();
//! assert_eq!(service.node_status(7, Coord::new(3, 3)), Some(NodeStatus::Faulty));
//! assert_eq!(updates.recv().unwrap().delta.len(), 1);
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
mod config;
mod registry;
mod service;
mod supervisor;

pub use chaos::{ChaosControl, ChaosPlan, KillMode, KillSpec};
pub use config::ServeConfig;
pub use registry::TenantHealth;
pub use service::{
    IngestError, MonitorService, RetryPolicy, ServiceStatsSnapshot, ShutdownReport, StatusSnapshot,
    SubmitError, TenantCounts, TenantId, TenantUpdate,
};
