//! Seeded chaos harness over the full fault-tolerant stack.
//!
//! Reuses the deterministic tenant streams of
//! [`serve_workload`](crate::serve_workload) but runs them against a
//! [`MonitorService`] armed with a seeded [`ChaosPlan`]: workers are
//! killed (cleanly and mid-apply) at reproducible dequeue counts while a
//! subset of tenants is tracked by gap-recovering [`LiveReroute`]
//! subscribers over deliberately tiny buffers — so every run exercises queueing through outages,
//! supervision, quarantine-and-rebuild from the fault set, *and*
//! subscriber gap resynchronization at once.
//!
//! The harness then asserts the whole story end to end:
//!
//! * every tenant returns to [`TenantHealth::Live`];
//! * every tenant's served state equals a **sequential replay** of its
//!   stream ([`replay_tenant`](crate::replay_tenant)) — the same ground truth the fault-free
//!   workload pins, now across injected worker deaths;
//! * every live route index equals **from-scratch routing** over the
//!   tenant's final status map, despite dropped updates and recovery
//!   rewinds.
//!
//! [`run_chaos_workload`] powers the `serve_chaos` binary, the CI smoke
//! run, and the root property test that sweeps random fault plans.

use std::time::{Duration, Instant};

use mesh2d::Mesh2D;
use meshroute::PairSample;
use mocp_serve::{
    ChaosPlan, MonitorService, ServeConfig, ServiceStatsSnapshot, TenantHealth, TenantId,
};
use mocp_traffic::LiveReroute;

use crate::serve_workload::{tenant_events, tenant_matches_replay, ServeWorkloadConfig};

/// Shape of one chaos run: a base workload plus a seeded fault plan and a
/// population of lossy live subscribers.
#[derive(Clone, Copy, Debug)]
pub struct ChaosWorkloadConfig {
    /// The tenant streams to ingest (its `seed` also seeds the fault
    /// plan; `verify` is implied — a chaos run always verifies).
    pub workload: ServeWorkloadConfig,
    /// Worker kills to schedule.
    pub kills: usize,
    /// Probability that a kill strikes mid-apply (vs cleanly).
    pub mid_fraction: f64,
    /// The first `subscribers` tenants get a [`LiveReroute`] subscriber.
    pub subscribers: usize,
    /// Per-subscriber update buffer; small values guarantee drops.
    pub subscriber_capacity: usize,
    /// Routed pairs per subscriber.
    pub route_pairs: usize,
}

impl Default for ChaosWorkloadConfig {
    /// A thorough shape: enough batches for every kill to land, enough
    /// subscribers for gaps to be certain.
    fn default() -> Self {
        ChaosWorkloadConfig {
            workload: ServeWorkloadConfig {
                tenants: 96,
                events_per_tenant: 64,
                queries_per_tenant: 6,
                ingest_threads: 3,
                verify: true,
                ..ServeWorkloadConfig::default()
            },
            kills: 4,
            mid_fraction: 0.5,
            subscribers: 8,
            subscriber_capacity: 2,
            route_pairs: 40,
        }
    }
}

impl ChaosWorkloadConfig {
    /// A CI-sized run: a couple of kills, a handful of subscribers.
    pub fn quick() -> Self {
        ChaosWorkloadConfig {
            workload: ServeWorkloadConfig {
                tenants: 24,
                events_per_tenant: 32,
                queries_per_tenant: 4,
                ingest_threads: 2,
                verify: true,
                ..ServeWorkloadConfig::default()
            },
            kills: 2,
            subscribers: 4,
            route_pairs: 24,
            ..ChaosWorkloadConfig::default()
        }
    }

    /// Sets the master seed (streams *and* fault plan).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.workload.seed = seed;
        self
    }

    /// Sets the scheduled kill count.
    pub fn with_kills(mut self, kills: usize) -> Self {
        self.kills = kills;
        self
    }

    /// The fault plan this config derives: kills spread over the first
    /// half of the run's batches, so every kill fires and every recovery
    /// has live traffic behind it.
    pub fn plan(&self) -> ChaosPlan {
        let w = &self.workload;
        let batches_per_tenant = w.events_per_tenant.div_ceil(w.batch_size.max(1));
        let total_batches = (w.tenants * batches_per_tenant) as u64;
        ChaosPlan::seeded(
            w.seed ^ PLAN_SALT,
            self.kills,
            (total_batches / 2).max(1),
            self.mid_fraction,
        )
    }
}

/// Domain-separation salt: the fault plan must not correlate with the
/// tenant streams derived from the same master seed.
const PLAN_SALT: u64 = 0x00FA_170F_F417_0FF4;

/// What one chaos run did, and every way it could have failed.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOutcome {
    /// Tenants created.
    pub tenants: usize,
    /// Events submitted (all of them applied — the run quiesces).
    pub events_submitted: u64,
    /// Worker kills that actually fired.
    pub kills_fired: u64,
    /// Workers that died panicking, per the shutdown report.
    pub panicked_workers: u64,
    /// Supervisor respawns.
    pub restarts: u64,
    /// Events of batches that died with their worker, re-applied by
    /// recovery.
    pub replayed_events: u64,
    /// `seq` gaps detected across all live subscribers.
    pub subscriber_gaps: u64,
    /// Snapshot resynchronizations across all live subscribers.
    pub subscriber_resyncs: u64,
    /// Tenants not back to `Live` within the convergence deadline.
    pub unhealthy_tenants: usize,
    /// Tenants whose served state diverged from sequential replay.
    pub mismatched_tenants: usize,
    /// Subscribers whose route index diverged from from-scratch routing
    /// over the tenant's final state.
    pub mismatched_subscribers: usize,
    /// The service's counters at the end of the run.
    pub stats: ServiceStatsSnapshot,
}

impl ChaosOutcome {
    /// True when the run converged: everything live, everything equal to
    /// its oracle.
    pub fn converged(&self) -> bool {
        self.unhealthy_tenants == 0
            && self.mismatched_tenants == 0
            && self.mismatched_subscribers == 0
    }
}

/// Runs the chaos workload: starts a service armed with
/// [`ChaosWorkloadConfig::plan`], attaches the lossy subscribers,
/// ingests every tenant stream (partitioned over the ingest threads,
/// per-tenant order preserved) while the plan kills workers underneath,
/// quiesces, waits for every tenant to report `Live`, then verifies
/// tenants against sequential replay and subscribers against from-scratch
/// routing.
///
/// Subscribers deliberately do **not** pump during ingestion: with tiny
/// buffers this makes dropped updates — and therefore gap recovery — a
/// certainty rather than a race.
pub fn run_chaos_workload(cfg: &ChaosWorkloadConfig, serve: ServeConfig) -> ChaosOutcome {
    let w = cfg.workload;
    let mesh = Mesh2D::square(w.mesh_size);
    let service = MonitorService::start_with_chaos(serve, cfg.plan());
    for t in 0..w.tenants {
        service.create_tenant(t as TenantId, mesh);
    }
    let mut subscribers: Vec<LiveReroute> = (0..cfg.subscribers.min(w.tenants))
        .map(|t| {
            let sample = PairSample::random(&mesh, cfg.route_pairs, w.seed ^ t as u64);
            LiveReroute::attach(
                &service,
                t as TenantId,
                &mesh,
                &sample,
                cfg.subscriber_capacity,
            )
            .expect("tenant was just created")
        })
        .collect();

    let threads = w.ingest_threads.max(1);
    let events_submitted: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|slot| {
                let service = &service;
                s.spawn(move || {
                    let mut events = 0u64;
                    for t in (slot..w.tenants).step_by(threads) {
                        let tenant = t as TenantId;
                        for batch in tenant_events(&w, tenant).chunks(w.batch_size.max(1)) {
                            events += batch.len() as u64;
                            service
                                .submit(tenant, batch.to_vec())
                                .expect("service survives its own kills");
                        }
                    }
                    events
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest thread panicked"))
            .sum()
    });
    service.quiesce();

    // Quiesce means "every event applied"; the supervisor's Degraded →
    // Live flip for lag-free tenants can trail it by a beat.
    let deadline = Instant::now() + Duration::from_secs(30);
    let all_live = |service: &MonitorService| {
        (0..w.tenants).all(|t| service.health(t as TenantId) == Some(TenantHealth::Live))
    };
    while !all_live(&service) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(500));
    }
    let unhealthy_tenants = (0..w.tenants)
        .filter(|&t| service.health(t as TenantId) != Some(TenantHealth::Live))
        .count();

    let mismatched_tenants = (0..w.tenants)
        .filter(|&t| !tenant_matches_replay(&w, &service, t as TenantId))
        .count();
    let mut subscriber_gaps = 0;
    let mut subscriber_resyncs = 0;
    let mut mismatched_subscribers = 0;
    for live in &mut subscribers {
        live.sync(&service);
        subscriber_gaps += live.gaps();
        subscriber_resyncs += live.resyncs();
        let snap = service.status_snapshot(live.tenant());
        let matches = snap.is_some_and(|s| *live.index().status() == s.status)
            && live.index().matches_from_scratch();
        if !matches {
            mismatched_subscribers += 1;
        }
    }

    let kills_fired = service.chaos().kills_fired();
    let stats = service.stats();
    let report = service.shutdown();
    ChaosOutcome {
        tenants: w.tenants,
        events_submitted,
        kills_fired,
        panicked_workers: report.panicked_workers,
        restarts: report.supervisor_restarts,
        replayed_events: report.replayed_events,
        subscriber_gaps,
        subscriber_resyncs,
        unhealthy_tenants,
        mismatched_tenants,
        mismatched_subscribers,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocp_serve::chaos::install_quiet_panic_hook;

    #[test]
    fn quick_chaos_run_converges() {
        install_quiet_panic_hook();
        let cfg = ChaosWorkloadConfig::quick().with_seed(0xC0FF_EE01);
        let outcome = run_chaos_workload(&cfg, ServeConfig::default().with_workers(3));
        assert!(outcome.converged(), "diverged: {outcome:?}");
        assert_eq!(outcome.events_submitted, cfg.workload.total_events() as u64);
        assert!(outcome.kills_fired >= 1, "the plan fired");
        assert_eq!(outcome.panicked_workers, outcome.kills_fired);
        assert!(
            outcome.subscriber_gaps + outcome.subscriber_resyncs >= 1,
            "tiny buffers forced at least one repair: {outcome:?}"
        );
    }

    #[test]
    fn plans_are_reproducible_per_seed() {
        let cfg = ChaosWorkloadConfig::quick().with_seed(42);
        let (a, b) = (cfg.plan(), cfg.plan());
        assert_eq!(a.kills.len(), b.kills.len());
        for (x, y) in a.kills.iter().zip(&b.kills) {
            assert_eq!((x.after_batches, x.mode), (y.after_batches, y.mode));
        }
    }
}
