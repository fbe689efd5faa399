//! Deterministic synthetic workload for the multi-tenant monitoring
//! service ([`mocp_serve`]).
//!
//! The paper evaluates one mesh; the service's design point is
//! *thousands* of them. This module generates that load reproducibly:
//! **N tenants × M events × K queries**, all derived from one seed, with
//! inject/repair churn per tenant. Every tenant's event stream and query
//! stream is a pure function of `(seed, tenant)`, so
//!
//! * [`run_serve_workload`] can drive any number of ingest threads and
//!   the resulting engine states are *identical* to a sequential replay
//!   ([`replay_tenant`]) — the property the sequential-equivalence test
//!   pins at 1 and 4 threads; and
//! * the `serve_ingest_1k_tenants` perf workload measures the same event
//!   stream on every run.
//!
//! Streams are generated with the workspace's seeded [`rand`] shim and a
//! per-tenant [`FaultInjector`], so the fault *placement* follows the
//! paper's distributions while the inject/repair mix is controlled by
//! [`ServeWorkloadConfig::repair_fraction`].

use faultgen::{FaultDistribution, FaultInjector};
use mesh2d::{Coord, FaultEvent, Mesh2D};
use mocp_incremental::IncrementalEngine;
use mocp_serve::{MonitorService, ServeConfig, ServiceStatsSnapshot, TenantId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of one synthetic service workload. All streams derive from
/// `seed`; two equal configs generate byte-identical workloads.
#[derive(Clone, Copy, Debug)]
pub struct ServeWorkloadConfig {
    /// Number of tenant meshes (N).
    pub tenants: usize,
    /// Side of each tenant's square mesh.
    pub mesh_size: u32,
    /// Events per tenant (M): injects and repairs, interleaved.
    pub events_per_tenant: usize,
    /// Point queries per tenant (K), issued concurrently with ingestion.
    pub queries_per_tenant: usize,
    /// Events per submitted batch.
    pub batch_size: usize,
    /// Probability that the next event repairs a currently-alive fault
    /// instead of injecting a fresh one (churn knob, `0.0..=1.0`).
    pub repair_fraction: f64,
    /// Fault placement distribution (the paper's random or clustered).
    pub distribution: FaultDistribution,
    /// Master seed; tenant `t`'s streams depend only on this and `t`.
    pub seed: u64,
    /// Threads submitting batches (tenants are partitioned across them).
    pub ingest_threads: usize,
    /// After the final quiesce, replay every tenant sequentially and
    /// compare polygons and counters (slow; used by tests and `--verify`).
    pub verify: bool,
}

impl Default for ServeWorkloadConfig {
    /// The issue's acceptance shape: 1000 tenants × 100 events = 100k
    /// events total, with concurrent queries.
    fn default() -> Self {
        ServeWorkloadConfig {
            tenants: 1000,
            mesh_size: 16,
            events_per_tenant: 100,
            queries_per_tenant: 20,
            batch_size: 8,
            repair_fraction: 0.3,
            distribution: FaultDistribution::Clustered,
            seed: 0x5EED_0001,
            ingest_threads: 4,
            verify: false,
        }
    }
}

impl ServeWorkloadConfig {
    /// A CI-sized workload: finishes in well under a second.
    pub fn quick() -> Self {
        ServeWorkloadConfig {
            tenants: 48,
            events_per_tenant: 40,
            queries_per_tenant: 8,
            ingest_threads: 2,
            ..ServeWorkloadConfig::default()
        }
    }

    /// Sets the tenant count.
    pub fn with_tenants(mut self, tenants: usize) -> Self {
        self.tenants = tenants;
        self
    }

    /// Sets the per-tenant event count.
    pub fn with_events_per_tenant(mut self, events: usize) -> Self {
        self.events_per_tenant = events;
        self
    }

    /// Sets the per-tenant query count.
    pub fn with_queries_per_tenant(mut self, queries: usize) -> Self {
        self.queries_per_tenant = queries;
        self
    }

    /// Sets the ingest-thread count.
    pub fn with_ingest_threads(mut self, threads: usize) -> Self {
        self.ingest_threads = threads;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables post-run sequential verification.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Total events the workload submits.
    pub fn total_events(&self) -> usize {
        // Saturated meshes can truncate a tenant's stream, but the
        // default shapes never get near saturation; report the nominal
        // size (tests assert the generated size matches).
        self.tenants * self.events_per_tenant
    }
}

/// Domain-separation salts so the churn, query and placement streams of
/// one tenant are independent.
const CHURN_SALT: u64 = 0xC0A1_E5CE_D00D_F00D;
const QUERY_SALT: u64 = 0x2545_F491_4F6C_DD1D;

fn tenant_seed(cfg: &ServeWorkloadConfig, tenant: TenantId) -> u64 {
    cfg.seed ^ (tenant.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Tenant `t`'s full event stream: deterministic inject/repair churn. A
/// repair always targets a currently-faulty node (uniformly chosen), so
/// the stream is valid to apply in order from a fault-free mesh.
pub fn tenant_events(cfg: &ServeWorkloadConfig, tenant: TenantId) -> Vec<FaultEvent> {
    let seed = tenant_seed(cfg, tenant);
    let mut injector = FaultInjector::new(Mesh2D::square(cfg.mesh_size), cfg.distribution, seed);
    let mut churn = StdRng::seed_from_u64(seed ^ CHURN_SALT);
    let mut alive: Vec<Coord> = Vec::new();
    let mut repaired: Vec<Coord> = Vec::new();
    let mut events = Vec::with_capacity(cfg.events_per_tenant);
    while events.len() < cfg.events_per_tenant {
        let repair = !alive.is_empty() && churn.gen_bool(cfg.repair_fraction);
        if repair {
            let victim = churn.gen_range(0..alive.len());
            let c = alive.swap_remove(victim);
            repaired.push(c);
            events.push(FaultEvent::Repair(c));
        } else if let Some(c) = injector.inject_one() {
            alive.push(c);
            events.push(FaultEvent::Inject(c));
        } else if !repaired.is_empty() {
            // The injector only places *fresh* faults; once the mesh's
            // supply is exhausted, churn re-injects repaired nodes.
            let i = churn.gen_range(0..repaired.len());
            let c = repaired.swap_remove(i);
            alive.push(c);
            events.push(FaultEvent::Inject(c));
        } else if let Some(&c) = alive.first() {
            // Fully-faulty mesh and nothing ever repaired: force one.
            alive.swap_remove(0);
            repaired.push(c);
            events.push(FaultEvent::Repair(c));
        } else {
            break; // 0×0 mesh: nothing to do
        }
    }
    events
}

/// Tenant `t`'s query points: deterministic uniform coordinates.
pub fn tenant_queries(cfg: &ServeWorkloadConfig, tenant: TenantId) -> Vec<Coord> {
    let mut rng = StdRng::seed_from_u64(tenant_seed(cfg, tenant) ^ QUERY_SALT);
    let side = cfg.mesh_size.max(1) as i32;
    (0..cfg.queries_per_tenant)
        .map(|_| Coord::new(rng.gen_range(0..side), rng.gen_range(0..side)))
        .collect()
}

/// Sequential ground truth: a fresh engine fed tenant `t`'s stream in
/// order, no service in between.
pub fn replay_tenant(cfg: &ServeWorkloadConfig, tenant: TenantId) -> IncrementalEngine {
    let mut engine = IncrementalEngine::new(Mesh2D::square(cfg.mesh_size));
    for event in tenant_events(cfg, tenant) {
        engine.apply(event);
    }
    engine
}

/// What one workload run did.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadOutcome {
    /// Tenants created.
    pub tenants: usize,
    /// Events submitted (and, after the quiesce, applied).
    pub events_submitted: u64,
    /// Point queries issued concurrently with ingestion.
    pub queries_issued: u64,
    /// The service's own counters at the end of the run.
    pub stats: ServiceStatsSnapshot,
    /// Tenants whose final state diverged from sequential replay. Only
    /// populated with [`ServeWorkloadConfig::verify`]; always empty on a
    /// correct build.
    pub mismatched_tenants: usize,
}

/// Runs the workload against a freshly started service: creates the N
/// tenants, partitions them over the ingest threads (tenant `t` goes to
/// thread `t % ingest_threads`), submits each tenant's events in
/// batches with the tenant's queries interleaved between batches, then
/// quiesces. With `verify`, every tenant is then compared against
/// [`replay_tenant`].
///
/// Each tenant is submitted to by exactly one thread, so per-tenant
/// arrival order equals stream order and the final state is the
/// sequential replay's — regardless of `ingest_threads` or the
/// service's worker count.
pub fn run_serve_workload(cfg: &ServeWorkloadConfig, serve: ServeConfig) -> WorkloadOutcome {
    let service = MonitorService::start(serve);
    for t in 0..cfg.tenants {
        service.create_tenant(t as TenantId, Mesh2D::square(cfg.mesh_size));
    }
    let threads = cfg.ingest_threads.max(1);
    let per_thread: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|slot| {
                let service = &service;
                s.spawn(move || ingest_slot(cfg, service, slot, threads))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest thread panicked"))
            .collect()
    });
    service.quiesce();

    let (events_submitted, queries_issued) = per_thread
        .iter()
        .fold((0, 0), |(e, q), &(te, tq)| (e + te, q + tq));
    let mismatched_tenants = if cfg.verify {
        (0..cfg.tenants)
            .filter(|&t| !tenant_matches_replay(cfg, &service, t as TenantId))
            .count()
    } else {
        0
    };
    let outcome = WorkloadOutcome {
        tenants: cfg.tenants,
        events_submitted,
        queries_issued,
        stats: service.stats(),
        mismatched_tenants,
    };
    service.shutdown();
    outcome
}

/// One ingest thread's share of the workload. Queries rotate across the
/// three point-query kinds so all of them run concurrently with
/// ingestion.
fn ingest_slot(
    cfg: &ServeWorkloadConfig,
    service: &MonitorService,
    slot: usize,
    threads: usize,
) -> (u64, u64) {
    let mut events = 0u64;
    let mut queries = 0u64;
    for t in (slot..cfg.tenants).step_by(threads) {
        let tenant = t as TenantId;
        let stream = tenant_events(cfg, tenant);
        let points = tenant_queries(cfg, tenant);
        let mut next_query = points.iter();
        for batch in stream.chunks(cfg.batch_size.max(1)) {
            events += batch.len() as u64;
            service
                .submit(tenant, batch.to_vec())
                .expect("tenants exist and the service is running");
            if let Some(&c) = next_query.next() {
                queries += issue_query(service, tenant, c, queries);
            }
        }
        // Whatever K didn't fit between batches still races the queues.
        for &c in next_query {
            queries += issue_query(service, tenant, c, queries);
        }
    }
    (events, queries)
}

fn issue_query(service: &MonitorService, tenant: TenantId, c: Coord, rotation: u64) -> u64 {
    match rotation % 3 {
        0 => {
            let _ = service.node_status(tenant, c);
        }
        1 => {
            let _ = service.region_of(tenant, c);
        }
        _ => {
            let _ = service.counts(tenant);
        }
    }
    1
}

/// Compares one tenant's served state against sequential replay.
pub(crate) fn tenant_matches_replay(
    cfg: &ServeWorkloadConfig,
    service: &MonitorService,
    tenant: TenantId,
) -> bool {
    let reference = replay_tenant(cfg, tenant);
    let counts = match service.counts(tenant) {
        Some(c) => c,
        None => return false,
    };
    counts.faulty == reference.faulty_count()
        && counts.disabled_nonfaulty == reference.disabled_nonfaulty()
        && counts.components == reference.component_count()
        && service.polygons(tenant) == Some(reference.polygons())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeWorkloadConfig {
        ServeWorkloadConfig::quick()
            .with_tenants(12)
            .with_events_per_tenant(30)
            .with_queries_per_tenant(5)
    }

    #[test]
    fn streams_are_deterministic_and_tenant_independent() {
        let cfg = tiny();
        assert_eq!(tenant_events(&cfg, 3), tenant_events(&cfg, 3));
        assert_ne!(tenant_events(&cfg, 3), tenant_events(&cfg, 4));
        assert_eq!(tenant_queries(&cfg, 3), tenant_queries(&cfg, 3));
        let reseeded = cfg.with_seed(cfg.seed + 1);
        assert_ne!(tenant_events(&cfg, 3), tenant_events(&reseeded, 3));
    }

    #[test]
    fn streams_are_valid_and_full_length() {
        let cfg = tiny();
        for t in 0..cfg.tenants as TenantId {
            let events = tenant_events(&cfg, t);
            assert_eq!(events.len(), cfg.events_per_tenant);
            // Valid to apply in order: repairs only hit live faults.
            let mut alive = std::collections::HashSet::new();
            let mut repairs = 0;
            for event in &events {
                match *event {
                    FaultEvent::Inject(c) => assert!(alive.insert(c), "re-inject of live fault"),
                    FaultEvent::Repair(c) => {
                        assert!(alive.remove(&c), "repair of non-faulty node");
                        repairs += 1;
                    }
                }
            }
            assert!(repairs > 0, "churn produces some repairs (tenant {t})");
        }
    }

    #[test]
    fn saturated_mesh_still_yields_full_streams() {
        // 2×2 mesh, long stream: injects exhaust the mesh fast and the
        // generator must keep making progress with repairs.
        let cfg = ServeWorkloadConfig {
            mesh_size: 2,
            events_per_tenant: 64,
            repair_fraction: 0.1,
            ..ServeWorkloadConfig::quick()
        };
        let events = tenant_events(&cfg, 0);
        assert_eq!(events.len(), 64);
        let mut engine = IncrementalEngine::new(Mesh2D::square(2));
        for &event in &events {
            engine.apply(event); // panics on an invalid stream
        }
    }

    #[test]
    fn queries_stay_inside_the_mesh() {
        let cfg = tiny();
        let mesh = Mesh2D::square(cfg.mesh_size);
        for t in 0..4 {
            let points = tenant_queries(&cfg, t);
            assert_eq!(points.len(), cfg.queries_per_tenant);
            assert!(points.iter().all(|&c| mesh.contains(c)));
        }
    }

    #[test]
    fn workload_runs_and_verifies_against_replay() {
        let cfg = tiny().with_verify(true);
        let outcome = run_serve_workload(&cfg, ServeConfig::default().with_workers(3));
        assert_eq!(outcome.tenants, cfg.tenants);
        assert_eq!(outcome.events_submitted, cfg.total_events() as u64);
        assert_eq!(outcome.stats.events, outcome.events_submitted);
        assert_eq!(
            outcome.queries_issued,
            (cfg.tenants * cfg.queries_per_tenant) as u64
        );
        assert_eq!(outcome.mismatched_tenants, 0);
    }
}
