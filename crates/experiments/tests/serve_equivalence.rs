//! Sequential-equivalence of the multi-tenant service: no matter how
//! many ingest threads submit concurrently (racing each other, the
//! service's workers, and interleaved point queries), every tenant's
//! final engine state must be *identical* to feeding that tenant's
//! event stream to a fresh engine sequentially.
//!
//! This holds because (a) each tenant is submitted to by exactly one
//! ingest thread, so per-tenant arrival order equals stream order, and
//! (b) exactly one service worker owns each tenant, so batches are
//! applied in arrival order. CI runs this at `RAYON_NUM_THREADS=1` and
//! `=4`; the service does not use rayon, so the test also varies its own
//! ingest/worker thread counts explicitly.

use experiments::{replay_tenant, run_serve_workload, tenant_queries, ServeWorkloadConfig};
use mocp_serve::{MonitorService, ServeConfig, TenantId};

fn workload(ingest_threads: usize) -> ServeWorkloadConfig {
    ServeWorkloadConfig::quick()
        .with_tenants(40)
        .with_events_per_tenant(60)
        .with_queries_per_tenant(10)
        .with_ingest_threads(ingest_threads)
        .with_seed(0xE0_1234)
        .with_verify(true)
}

/// One ingest thread: trivially sequential, pins the baseline.
#[test]
fn one_ingest_thread_matches_sequential_replay() {
    let outcome = run_serve_workload(&workload(1), ServeConfig::default().with_workers(1));
    assert_eq!(outcome.mismatched_tenants, 0);
    assert_eq!(outcome.events_submitted, outcome.stats.events);
}

/// Several ingest threads × several workers: the service's claimed
/// sweet spot. `run_serve_workload` with `verify` compares every
/// tenant's polygons and counters against [`replay_tenant`].
#[test]
fn four_ingest_threads_match_sequential_replay() {
    let outcome = run_serve_workload(&workload(4), ServeConfig::default().with_workers(4));
    assert_eq!(outcome.mismatched_tenants, 0);
    assert_eq!(outcome.events_submitted, outcome.stats.events);
}

/// More ingest threads than workers and vice versa: ownership hashing
/// must keep per-tenant order either way.
#[test]
fn skewed_thread_to_worker_ratios_still_match() {
    for (ingest, workers) in [(8, 2), (2, 8), (3, 5)] {
        let outcome = run_serve_workload(
            &workload(ingest).with_tenants(24).with_events_per_tenant(40),
            ServeConfig::default().with_workers(workers).with_shards(4),
        );
        assert_eq!(
            outcome.mismatched_tenants, 0,
            "{ingest} ingest threads x {workers} workers"
        );
    }
}

/// Full-state equivalence beyond what the workload's verify checks:
/// every node's status and covering region, compared point by point
/// while *another* round of traffic hammers unrelated tenants.
#[test]
fn per_node_state_matches_replay_under_concurrent_noise() {
    let cfg = workload(4).with_tenants(12).with_verify(false);
    let service = MonitorService::start(ServeConfig::default().with_workers(4).with_shards(4));
    for t in 0..cfg.tenants {
        service.create_tenant(t as TenantId, mesh2d::Mesh2D::square(cfg.mesh_size));
    }
    std::thread::scope(|s| {
        // Ingest threads for all tenants.
        for slot in 0..cfg.ingest_threads {
            let service = &service;
            let cfg = &cfg;
            s.spawn(move || {
                for t in (slot..cfg.tenants).step_by(cfg.ingest_threads) {
                    let events = experiments::tenant_events(cfg, t as TenantId);
                    for batch in events.chunks(cfg.batch_size) {
                        service.submit(t as TenantId, batch.to_vec()).unwrap();
                    }
                }
            });
        }
        // A reader thread issuing queries against every tenant while
        // ingestion is in flight; answers are internally consistent but
        // transient, so only absence of panics/deadlocks is asserted.
        let service = &service;
        let cfg = &cfg;
        s.spawn(move || {
            for t in 0..cfg.tenants as TenantId {
                for c in tenant_queries(cfg, t) {
                    let _ = service.node_status(t, c);
                    let _ = service.region_of(t, c);
                }
                let _ = service.counts(t);
            }
        });
    });
    service.quiesce();

    for t in 0..cfg.tenants as TenantId {
        let reference = replay_tenant(&cfg, t);
        assert_eq!(
            service.polygons(t),
            Some(reference.polygons()),
            "tenant {t} polygons"
        );
        let counts = service.counts(t).unwrap();
        assert_eq!(counts.faulty, reference.faulty_count(), "tenant {t}");
        assert_eq!(
            counts.disabled_nonfaulty,
            reference.disabled_nonfaulty(),
            "tenant {t}"
        );
        for x in 0..cfg.mesh_size as i32 {
            for y in 0..cfg.mesh_size as i32 {
                let c = mesh2d::Coord::new(x, y);
                assert_eq!(
                    service.node_status(t, c),
                    reference.status().get(c),
                    "tenant {t} node {c:?}"
                );
                assert_eq!(
                    service.region_of(t, c),
                    reference.region_of(c),
                    "tenant {t} node {c:?}"
                );
            }
        }
    }
    service.shutdown();
}

/// The same workload always lands in the same final state (determinism
/// of the generator end to end, not just of one engine).
#[test]
fn repeated_runs_are_identical() {
    let cfg = workload(3).with_tenants(16).with_verify(false);
    let run = || {
        let service = MonitorService::start(ServeConfig::default().with_workers(3));
        for t in 0..cfg.tenants {
            service.create_tenant(t as TenantId, mesh2d::Mesh2D::square(cfg.mesh_size));
        }
        std::thread::scope(|s| {
            for slot in 0..cfg.ingest_threads {
                let service = &service;
                let cfg = &cfg;
                s.spawn(move || {
                    for t in (slot..cfg.tenants).step_by(cfg.ingest_threads) {
                        let events = experiments::tenant_events(cfg, t as TenantId);
                        for batch in events.chunks(cfg.batch_size) {
                            service.submit(t as TenantId, batch.to_vec()).unwrap();
                        }
                    }
                });
            }
        });
        service.quiesce();
        let snapshot: Vec<_> = (0..cfg.tenants as TenantId)
            .map(|t| (service.polygons(t).unwrap(), service.counts(t).unwrap()))
            .collect();
        service.shutdown();
        snapshot
    };
    assert_eq!(run(), run());
}
