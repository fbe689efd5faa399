//! Fault-tolerance integration tests: supervised recovery from worker
//! kills, replay equivalence, queueing through an outage, degraded reads,
//! saturation, and the structured shutdown report.

use std::time::{Duration, Instant};

use mesh2d::{Coord, FaultEvent, Mesh2D, NodeStatus};
use mocp_incremental::IncrementalEngine;
use mocp_serve::chaos::install_quiet_panic_hook;
use mocp_serve::{
    ChaosPlan, IngestError, KillMode, KillSpec, MonitorService, RetryPolicy, ServeConfig,
    TenantHealth,
};

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Sequential ground truth: a fresh engine fed the same events in order.
fn replay(mesh: Mesh2D, events: &[FaultEvent]) -> IncrementalEngine {
    let mut engine = IncrementalEngine::new(mesh);
    for &event in events {
        engine.apply(event);
    }
    engine
}

fn assert_matches_replay(
    service: &MonitorService,
    tenant: u64,
    mesh: Mesh2D,
    events: &[FaultEvent],
) {
    let oracle = replay(mesh, events);
    let counts = service.counts(tenant).unwrap();
    assert_eq!(
        counts.faulty,
        oracle.faulty_count(),
        "tenant {tenant} faulty"
    );
    assert_eq!(
        counts.disabled_nonfaulty,
        oracle.disabled_nonfaulty(),
        "tenant {tenant} disabled"
    );
    assert_eq!(
        counts.components,
        oracle.component_count(),
        "tenant {tenant} components"
    );
    assert_eq!(
        service.polygons(tenant).unwrap(),
        oracle.polygons(),
        "tenant {tenant} polygons"
    );
}

#[test]
fn clean_worker_kill_recovers_to_sequential_equivalence() {
    install_quiet_panic_hook();
    let plan = ChaosPlan {
        kills: vec![KillSpec {
            after_batches: 3,
            mode: KillMode::Clean,
        }],
    };
    let service = MonitorService::start_with_chaos(
        ServeConfig::default().with_workers(1).with_shards(4),
        plan,
    );
    let mesh = Mesh2D::square(16);
    let tenants: Vec<u64> = (1..=4).collect();
    let mut streams: Vec<Vec<FaultEvent>> = Vec::new();
    for (i, &t) in tenants.iter().enumerate() {
        assert!(service.create_tenant(t, mesh));
        let i = i as i32;
        streams.push(vec![
            FaultEvent::Inject(Coord::new(2 + i, 3)),
            FaultEvent::Inject(Coord::new(2 + i, 4)),
            FaultEvent::Inject(Coord::new(9, 9 - i)),
            FaultEvent::Repair(Coord::new(2 + i, 3)),
        ]);
    }
    // Two batches per tenant; the third dequeued batch kills the worker.
    for (i, &t) in tenants.iter().enumerate() {
        service.submit(t, streams[i][..2].to_vec()).unwrap();
    }
    for (i, &t) in tenants.iter().enumerate() {
        service.submit(t, streams[i][2..].to_vec()).unwrap();
    }
    service.quiesce();
    assert!(service.chaos().kills_fired() >= 1, "the kill fired");
    // Recovery credits the ledger per tenant, so quiesce can return a
    // beat before the supervisor finishes the restart bookkeeping.
    wait_until("all tenants live", || {
        tenants
            .iter()
            .all(|&t| service.health(t) == Some(TenantHealth::Live))
    });
    for (stream, &t) in streams.iter().zip(&tenants) {
        assert_matches_replay(&service, t, mesh, stream);
    }
    wait_until("replacement worker", || service.stats().restarts == 1);
    assert_eq!(service.stats().panicked_workers, 1);
    let report = service.shutdown();
    assert_eq!(report.panicked_workers, 1);
    assert_eq!(report.supervisor_restarts, 1);
}

#[test]
fn mid_apply_kill_serves_snapshot_while_rebuilding_then_recovers() {
    install_quiet_panic_hook();
    let plan = ChaosPlan {
        kills: vec![KillSpec {
            after_batches: 4,
            mode: KillMode::MidApply { after_events: 0 },
        }],
    };
    let service = MonitorService::start_with_chaos(
        ServeConfig::default()
            .with_workers(1)
            .with_shards(2)
            .with_snapshot_every(1),
        plan,
    );
    let mesh = Mesh2D::square(16);
    assert!(service.create_tenant(1, mesh));
    assert!(service.create_tenant(2, mesh));

    // Freeze the supervisor before recovery so the degraded states stay
    // observable for as long as this test needs.
    service.chaos().hold_recovery();

    // Batches 1-3 apply cleanly; batch 4 (tenant 1 again) is killed
    // after 0 of its events, leaving tenant 1 quarantined mid-apply.
    service
        .submit(1, vec![FaultEvent::Inject(Coord::new(1, 1))])
        .unwrap();
    service
        .submit(1, vec![FaultEvent::Inject(Coord::new(2, 2))])
        .unwrap();
    service
        .submit(2, vec![FaultEvent::Inject(Coord::new(5, 5))])
        .unwrap();
    service
        .submit(1, vec![FaultEvent::Inject(Coord::new(3, 3))])
        .unwrap();

    wait_until("the mid-apply kill", || service.chaos().kills_fired() >= 1);
    wait_until("tenant 1 quarantined", || {
        service.health(1) == Some(TenantHealth::Rebuilding)
    });
    // The supervisor joins the dead worker before it parks on the held
    // recovery gate, so the coherent co-tenant degrades.
    wait_until("tenant 2 degraded", || {
        service.health(2) == Some(TenantHealth::Degraded)
    });

    // Rebuilding reads come from the last coherent snapshot: batches
    // 1-2 are visible, the killed batch 4 is not, and nothing panics on
    // the poisoned shard.
    let counts = service.counts(1).unwrap();
    assert_eq!(counts.faulty, 2, "snapshot state: batches 1-2");
    assert_eq!(counts.seq, 2, "snapshot sequence number");
    assert_eq!(
        service.node_status(1, Coord::new(1, 1)),
        Some(NodeStatus::Faulty)
    );
    assert_eq!(
        service.node_status(1, Coord::new(3, 3)),
        Some(NodeStatus::Enabled),
        "killed batch not visible in the snapshot"
    );
    assert!(service.region_of(1, Coord::new(1, 1)).is_some());
    let snap = service.status_snapshot(1).unwrap();
    assert_eq!((snap.seq, snap.health), (2, TenantHealth::Rebuilding));
    // Degraded reads are exact (the engine is coherent).
    assert_eq!(service.counts(2).unwrap().faulty, 1);

    service.chaos().release_recovery();
    service.quiesce();
    wait_until("tenant 1 live", || {
        service.health(1) == Some(TenantHealth::Live)
    });
    assert_eq!(service.health(2), Some(TenantHealth::Live));
    assert_matches_replay(
        &service,
        1,
        mesh,
        &[
            FaultEvent::Inject(Coord::new(1, 1)),
            FaultEvent::Inject(Coord::new(2, 2)),
            FaultEvent::Inject(Coord::new(3, 3)),
        ],
    );
    assert_matches_replay(&service, 2, mesh, &[FaultEvent::Inject(Coord::new(5, 5))]);
    let stats = service.stats();
    assert!(stats.replayed_events >= 1, "re-applied the killed batch");
    let report = service.shutdown();
    assert_eq!(report.panicked_workers, 1);
}

#[test]
fn ingest_saturates_with_typed_error_and_full_rollback() {
    let service = MonitorService::start_with_chaos(
        ServeConfig::default()
            .with_workers(1)
            .with_shards(2)
            .with_queue_capacity(1),
        ChaosPlan::none(),
    );
    let mesh = Mesh2D::square(12);
    assert!(service.create_tenant(1, mesh));
    service.chaos().hold_intake();

    let policy = RetryPolicy::default()
        .with_deadline(Duration::from_millis(40))
        .with_max_retries(3)
        .with_base(Duration::from_millis(1))
        .with_seed(7);
    // With the intake gate held the single worker never drains, so at
    // most two batches are absorbed (one parked at the gate, one in the
    // capacity-1 queue); ingests must start saturating within a few
    // attempts instead of blocking forever.
    let mut accepted: Vec<FaultEvent> = Vec::new();
    let mut saturated = None;
    for i in 0..4i32 {
        let events = vec![FaultEvent::Inject(Coord::new(i + 1, 2))];
        match service.ingest(1, events.clone(), &policy) {
            Ok(()) => accepted.extend(events),
            Err(err) => {
                saturated = Some(err);
                break;
            }
        }
    }
    let err = saturated.expect("a capacity-1 queue under a held gate saturates");
    assert!(
        matches!(err, IngestError::Saturated { tenant: 1, retries } if retries >= 1),
        "typed saturation: {err:?}"
    );
    let stats = service.stats();
    assert!(stats.ingest_retries >= 1, "bounded sends backed off");
    assert_eq!(stats.ingest_saturated, 1);

    // The saturated batch was fully rolled back: re-ingesting it after
    // the gate opens must apply it exactly once.
    service.chaos().release_intake();
    let retry_events = vec![FaultEvent::Inject(Coord::new(9, 9))];
    service
        .ingest(1, retry_events.clone(), &RetryPolicy::default())
        .expect("drained queue accepts");
    accepted.extend(retry_events);
    service.quiesce();
    assert_matches_replay(&service, 1, mesh, &accepted);
    service.shutdown();
}

#[test]
fn quiesce_timeout_reports_inflight_work_without_wedging() {
    let service = MonitorService::start_with_chaos(
        ServeConfig::default().with_workers(1).with_shards(2),
        ChaosPlan::none(),
    );
    assert!(service.create_tenant(1, Mesh2D::square(8)));
    service.chaos().hold_intake();
    service
        .submit(1, vec![FaultEvent::Inject(Coord::new(2, 2))])
        .unwrap();
    assert!(
        !service.quiesce_timeout(Duration::from_millis(30)),
        "gated worker cannot drain in time"
    );
    service.chaos().release_intake();
    assert!(service.quiesce_timeout(Duration::from_secs(10)));
    assert_eq!(service.counts(1).unwrap().faulty, 1);
    service.shutdown();
}

#[test]
fn multiple_kills_across_workers_converge() {
    install_quiet_panic_hook();
    let plan = ChaosPlan::seeded(0xDEAD_BEEF, 3, 24, 0.5);
    let service = MonitorService::start_with_chaos(
        ServeConfig::default()
            .with_workers(3)
            .with_shards(8)
            .with_queue_capacity(4),
        plan,
    );
    let mesh = Mesh2D::square(20);
    let tenants: Vec<u64> = (0..12).collect();
    let mut streams: Vec<Vec<FaultEvent>> = Vec::new();
    for &t in &tenants {
        assert!(service.create_tenant(t, mesh));
        let x = (t as i32 * 3) % 17 + 1;
        streams.push(vec![
            FaultEvent::Inject(Coord::new(x, 4)),
            FaultEvent::Inject(Coord::new(x, 5)),
            FaultEvent::Inject(Coord::new(x + 1, 4)),
            FaultEvent::Repair(Coord::new(x, 5)),
            FaultEvent::Inject(Coord::new(x, 5)),
        ]);
    }
    for round in 0..5 {
        for (stream, &t) in streams.iter().zip(&tenants) {
            service.submit(t, vec![stream[round]]).unwrap();
        }
    }
    service.quiesce();
    assert!(service.chaos().kills_fired() >= 1, "seeded kills fired");
    wait_until("all tenants live", || {
        tenants
            .iter()
            .all(|&t| service.health(t) == Some(TenantHealth::Live))
    });
    for (stream, &t) in streams.iter().zip(&tenants) {
        assert_matches_replay(&service, t, mesh, stream);
    }
    let fired = service.chaos().kills_fired();
    let report = service.shutdown();
    assert_eq!(report.panicked_workers, fired);
}

#[test]
fn batches_queue_through_an_outage_and_recovery_replays_only_the_held_batch() {
    install_quiet_panic_hook();
    let plan = ChaosPlan {
        kills: vec![KillSpec {
            after_batches: 2,
            mode: KillMode::Clean,
        }],
    };
    let service = MonitorService::start_with_chaos(
        ServeConfig::default().with_workers(1).with_shards(2),
        plan,
    );
    let mesh = Mesh2D::square(16);
    assert!(service.create_tenant(1, mesh));
    service.chaos().hold_recovery();

    let batches = [
        vec![FaultEvent::Inject(Coord::new(2, 2))],
        // Dequeued second: the worker dies holding it.
        vec![
            FaultEvent::Inject(Coord::new(3, 3)),
            FaultEvent::Inject(Coord::new(3, 4)),
            FaultEvent::Repair(Coord::new(2, 2)),
        ],
        vec![
            FaultEvent::Inject(Coord::new(8, 8)),
            FaultEvent::Repair(Coord::new(3, 4)),
        ],
    ];
    service.submit(1, batches[0].clone()).unwrap();
    service.submit(1, batches[1].clone()).unwrap();
    wait_until("the clean kill", || service.chaos().kills_fired() >= 1);
    wait_until("tenant 1 degraded", || {
        service.health(1) == Some(TenantHealth::Degraded)
    });

    // The queue outlives its worker: the outage accepts new batches,
    // which wait for the replacement.
    service
        .try_submit(1, batches[2].clone())
        .expect("a dead worker's queue still accepts batches");
    let counts = service.counts(1).unwrap();
    assert_eq!((counts.seq, counts.faulty), (1, 1), "only batch 1 applied");
    assert_eq!(service.health(1), Some(TenantHealth::Degraded));

    service.chaos().release_recovery();
    service.quiesce();
    wait_until("tenant 1 live", || {
        service.health(1) == Some(TenantHealth::Live)
    });
    assert_matches_replay(&service, 1, mesh, &batches.concat());
    assert_eq!(service.counts(1).unwrap().seq, 3);
    assert_eq!(
        service.stats().replayed_events,
        batches[1].len() as u64,
        "recovery re-applies exactly the held batch"
    );
    let report = service.shutdown();
    assert_eq!(report.panicked_workers, 1);
}

#[test]
fn a_death_during_the_shutdown_drain_loses_nothing() {
    install_quiet_panic_hook();
    let plan = ChaosPlan {
        kills: vec![KillSpec {
            after_batches: 3,
            mode: KillMode::Clean,
        }],
    };
    let service = MonitorService::start_with_chaos(
        ServeConfig::default().with_workers(1).with_shards(2),
        plan,
    );
    let mesh = Mesh2D::square(12);
    assert!(service.create_tenant(1, mesh));
    let updates = service.subscribe(1, None).unwrap();

    // The gated worker holds batch 1; batches 2-6 stay queued until
    // shutdown opens the gate, and the worker dies on batch 3.
    service.chaos().hold_intake();
    let events: Vec<FaultEvent> = (0..6i32)
        .map(|i| match i {
            4 => FaultEvent::Repair(Coord::new(2, 2)),
            _ => FaultEvent::Inject(Coord::new(1 + i, 2)),
        })
        .collect();
    for &event in &events {
        service.submit(1, vec![event]).unwrap();
    }
    let report = service.shutdown();
    assert_eq!(report.panicked_workers, 1);

    // Every batch reached the subscriber, in order: replaying the
    // deltas onto a fault-free map rebuilds the oracle's statuses.
    let oracle = replay(mesh, &events);
    let mut status = IncrementalEngine::new(mesh).status().clone();
    let mut seqs = Vec::new();
    for update in updates.try_iter() {
        update.delta.apply_to(&mut status);
        seqs.push(update.seq);
    }
    assert_eq!(
        seqs,
        (1..=6).collect::<Vec<u64>>(),
        "no batch lost or repeated"
    );
    assert_eq!(&status, oracle.status());
}
