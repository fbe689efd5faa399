//! Property test for the incremental maintenance engine: after **every**
//! event of a random inject/repair sequence, the engine's maintained state
//! must equal a from-scratch batch recomputation over the surviving faults.
//!
//! This is the strongest possible check of the merge / dirty / re-flood
//! machinery: any stale cache, missed merge, wrong cover count or incorrect
//! split shows up as a status-map mismatch at the first event that triggers
//! the bug. The checkpoint sweeps below repeat the comparison at the
//! paper's scale and beyond, on the Figure 9/10 metrics.

use mocp::faultgen::{FaultDistribution, FaultInjector};
use mocp::fblock::FaultModel;
use mocp::mesh2d::{Coord, FaultEvent, FaultSet, Mesh2D, StatusMap};
use mocp::mocp_core::CentralizedMfpModel;
use mocp::mocp_incremental::IncrementalEngine;
use proptest::prelude::*;

const MESH: u32 = 9;

/// Raw event descriptors: `kind == 0` repairs an existing fault (selected
/// from the live fault list), anything else injects at `(x, y)`. The 3:1
/// inject bias keeps enough faults alive for repairs to hit interesting
/// component shapes.
fn arbitrary_events() -> impl Strategy<Value = Vec<(i32, i32, i32)>> {
    prop::collection::vec((0..4i32, 0..MESH as i32, 0..MESH as i32), 0..40)
}

fn decode(engine: &IncrementalEngine, kind: i32, x: i32, y: i32) -> FaultEvent {
    if kind == 0 && !engine.faults().is_empty() {
        let order = engine.faults().in_insertion_order();
        let idx = (x as usize * MESH as usize + y as usize) % order.len();
        FaultEvent::Repair(order[idx])
    } else {
        FaultEvent::Inject(Coord::new(x, y))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_batch_after_every_event(events in arbitrary_events()) {
        let mesh = Mesh2D::square(MESH);
        let mut engine = IncrementalEngine::new(mesh);
        let mut replayed = StatusMap::all_enabled(&mesh);
        let batch_model = CentralizedMfpModel::concave_sections();

        for (kind, x, y) in events {
            let event = decode(&engine, kind, x, y);
            let delta = engine.apply(event);

            // The engine's full state equals a from-scratch recomputation.
            let batch = batch_model.construct(&mesh, engine.faults());
            prop_assert_eq!(engine.status(), &batch.status, "after {:?}", event);
            prop_assert_eq!(engine.polygons(), batch.regions, "after {:?}", event);
            prop_assert_eq!(
                engine.disabled_nonfaulty(),
                batch.disabled_nonfaulty(),
                "after {:?}",
                event
            );
            prop_assert_eq!(
                engine.component_count(),
                mocp::mocp_core::merge_components(engine.faults()).len(),
                "after {:?}",
                event
            );

            // The emitted deltas alone reconstruct the status map.
            delta.apply_to(&mut replayed);
            prop_assert_eq!(&replayed, engine.status(), "delta replay after {:?}", event);
        }
    }
}

/// The Figure 9/10 metrics read at one checkpoint: fault count, disabled
/// non-faulty nodes and average region size.
type Checkpoint = (usize, usize, f64);

/// Batch sweep: grows the fault set along `seq` and reconstructs every
/// polygon from scratch at each checkpoint, as the scenario runner does.
fn batch_sweep(mesh: &Mesh2D, seq: &[Coord], checkpoints: &[usize]) -> Vec<Checkpoint> {
    let model = CentralizedMfpModel::concave_sections();
    let mut faults = FaultSet::new(*mesh);
    let mut next = seq.iter();
    let mut out = Vec::with_capacity(checkpoints.len());
    for &count in checkpoints {
        while faults.len() < count {
            match next.next() {
                Some(&c) => {
                    faults.insert(c);
                }
                None => break,
            }
        }
        let outcome = model.construct(mesh, &faults);
        out.push((
            count,
            outcome.disabled_nonfaulty(),
            outcome.average_region_size(),
        ));
    }
    out
}

/// Incremental sweep: one engine absorbs every fault of `seq` as an event
/// and the checkpoints read its cached metrics.
fn incremental_sweep(mesh: &Mesh2D, seq: &[Coord], checkpoints: &[usize]) -> Vec<Checkpoint> {
    let mut engine = IncrementalEngine::new(*mesh);
    let mut next = seq.iter();
    let mut out = Vec::with_capacity(checkpoints.len());
    for &count in checkpoints {
        while engine.faults().len() < count {
            match next.next() {
                Some(&c) => {
                    engine.apply(FaultEvent::Inject(c));
                }
                None => break,
            }
        }
        out.push((
            count,
            engine.disabled_nonfaulty(),
            engine.average_region_size(),
        ));
    }
    out
}

/// Feeds one clustered seed-2004 injection sequence to both sweeps and
/// compares them at `checkpoints` evenly spaced fault counts.
fn assert_sweeps_agree(side: u32, faults: usize, checkpoints: usize) {
    let mesh = Mesh2D::square(side);
    let seq: Vec<Coord> = FaultInjector::new(mesh, FaultDistribution::Clustered, 2004)
        .event_stream(faults)
        .map(|e| e.node())
        .collect();
    let marks: Vec<usize> = (1..=checkpoints)
        .map(|i| i * faults / checkpoints)
        .collect();
    assert_eq!(
        batch_sweep(&mesh, &seq, &marks),
        incremental_sweep(&mesh, &seq, &marks),
        "batch and incremental sweeps must produce identical checkpoints"
    );
}

#[test]
fn checkpoints_match_batch_sweep_at_paper_scale() {
    assert_sweeps_agree(100, 800, 8);
}

#[test]
fn checkpoints_match_batch_sweep_at_512_squared() {
    assert_sweeps_agree(512, 20_000, 8);
}
