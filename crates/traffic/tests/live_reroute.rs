//! Live gap-recovering rerouting against a real `mocp_serve` service:
//! lossless tracking, forced drops with snapshot resync, and convergence
//! under churn plus an injected worker kill.

use std::time::{Duration, Instant};

use mesh2d::{Coord, FaultEvent, Mesh2D};
use meshroute::PairSample;
use mocp_serve::chaos::install_quiet_panic_hook;
use mocp_serve::{ChaosPlan, KillMode, KillSpec, MonitorService, ServeConfig, TenantHealth};
use mocp_traffic::LiveReroute;

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The subscriber's mirror equals the tenant's live state and the routes
/// equal the from-scratch oracle over it.
fn assert_converged(live: &mut LiveReroute, service: &MonitorService) {
    live.sync(service);
    let snap = service.status_snapshot(live.tenant()).unwrap();
    assert_eq!(*live.index().status(), snap.status, "mirror == service");
    assert!(live.index().matches_from_scratch(), "routes == oracle");
}

#[test]
fn roomy_subscription_tracks_without_gaps() {
    let service = MonitorService::start(ServeConfig::default().with_workers(1).with_shards(2));
    let mesh = Mesh2D::square(16);
    assert!(service.create_tenant(1, mesh));
    let sample = PairSample::random(&mesh, 60, 11);
    let mut live = LiveReroute::attach(&service, 1, &mesh, &sample, 64).unwrap();

    for i in 0..6i32 {
        service
            .submit(1, vec![FaultEvent::Inject(Coord::new(2 + i, 7))])
            .unwrap();
    }
    service.quiesce();
    let drained = live.pump(&service);
    assert_eq!(drained, 6, "roomy buffer dropped nothing");
    assert_eq!(live.gaps(), 0);
    assert_eq!(live.resyncs(), 0);
    assert!(
        live.sync(&service),
        "the pumped stream alone converged — no repair"
    );
    assert_converged(&mut live, &service);
    service.shutdown();
}

#[test]
fn dropped_updates_are_detected_as_gaps_and_resynced() {
    let service = MonitorService::start(ServeConfig::default().with_workers(1).with_shards(2));
    let mesh = Mesh2D::square(16);
    assert!(service.create_tenant(1, mesh));
    let sample = PairSample::random(&mesh, 60, 12);
    // Capacity 1: while the subscriber is not pumping, every fan-out
    // beyond the first is dropped on the floor.
    let mut live = LiveReroute::attach(&service, 1, &mesh, &sample, 1).unwrap();

    for i in 0..8i32 {
        service
            .submit(1, vec![FaultEvent::Inject(Coord::new(2 + i, 2 + i))])
            .unwrap();
    }
    service.quiesce();
    let drained = live.pump(&service);
    assert_eq!(drained, 1, "capacity-1 buffer kept exactly one update");
    // The survivor was update seq 1 (applied in order, no gap yet); the
    // seven dropped updates surface as divergence at sync time...
    assert_converged(&mut live, &service);
    assert!(live.resyncs() >= 1, "a snapshot repair ran");

    // ...and a drop *in front of* a surviving update surfaces as a hard
    // seq gap on the pump path itself: fill the buffer (seq k kept,
    // seq k+1 dropped), drain it, then let seq k+2 arrive.
    service
        .submit(1, vec![FaultEvent::Inject(Coord::new(12, 2))])
        .unwrap();
    service.quiesce();
    service
        .submit(1, vec![FaultEvent::Inject(Coord::new(12, 3))])
        .unwrap();
    service.quiesce();
    live.pump(&service); // applies seq k; seq k+1 is already lost
    service
        .submit(1, vec![FaultEvent::Inject(Coord::new(12, 4))])
        .unwrap();
    service.quiesce();
    live.pump(&service); // sees seq k+2 — a discontinuity
    assert!(live.gaps() >= 1, "gap detected from seq discontinuity");
    assert_converged(&mut live, &service);
    service.shutdown();
}

#[test]
fn churn_with_worker_kill_and_drops_matches_oracle() {
    install_quiet_panic_hook();
    let plan = ChaosPlan {
        kills: vec![KillSpec {
            after_batches: 5,
            mode: KillMode::MidApply { after_events: 1 },
        }],
    };
    let service = MonitorService::start_with_chaos(
        ServeConfig::default()
            .with_workers(1)
            .with_shards(2)
            .with_snapshot_every(2),
        plan,
    );
    let mesh = Mesh2D::square(20);
    assert!(service.create_tenant(1, mesh));
    let sample = PairSample::random(&mesh, 60, 13);
    let mut live = LiveReroute::attach(&service, 1, &mesh, &sample, 2).unwrap();

    // Fault/repair churn: batch 5 dies mid-apply and is re-applied by
    // recovery; the capacity-2 subscription drops most of the rest.
    let churn: Vec<Vec<FaultEvent>> = (0..10i32)
        .map(|i| {
            let c = Coord::new(3 + i, 9);
            if i % 3 == 2 {
                vec![FaultEvent::Repair(Coord::new(3 + i - 1, 9))]
            } else {
                vec![
                    FaultEvent::Inject(c),
                    FaultEvent::Inject(Coord::new(3 + i, 10)),
                ]
            }
        })
        .collect();
    for batch in churn {
        service.submit(1, batch).unwrap();
    }
    service.quiesce();
    wait_until("tenant live after recovery", || {
        service.health(1) == Some(TenantHealth::Live)
    });
    assert!(service.chaos().kills_fired() >= 1, "the kill fired");

    live.pump(&service);
    assert_converged(&mut live, &service);
    assert!(
        live.gaps() + live.resyncs() >= 1,
        "drops or recovery forced at least one repair"
    );
    let report = service.shutdown();
    assert_eq!(report.panicked_workers, 1);
}
