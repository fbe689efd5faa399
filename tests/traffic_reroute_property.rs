//! Property test for incremental rerouting: after **every** coalesced
//! delta batch of a random inject/repair churn, the [`RerouteIndex`]'s
//! maintained routes must equal a from-scratch recomputation of every
//! pair — including the error verdicts (excluded endpoints, unreachable
//! pairs), not just the happy paths.
//!
//! This pins the dependency-footprint rule (the 8-neighborhood `dilate` of a route's hops
//! and detoured regions, global for fallback/unreachable routes): a
//! footprint that misses any cell a route actually consulted shows up as
//! a stale route at the first batch that changes only that cell.

use mocp::mesh2d::{Coord, FaultEvent, Mesh2D};
use mocp::meshroute::PairSample;
use mocp::mocp_incremental::IncrementalEngine;
use mocp::mocp_traffic::RerouteIndex;
use proptest::prelude::*;

const MESH: u32 = 10;

/// Raw event descriptors, batched: `kind == 0` repairs an existing fault,
/// anything else injects at `(x, y)`. Batches of up to 5 events exercise
/// the coalescing path (including self-cancelling churn within a batch).
fn arbitrary_batches() -> impl Strategy<Value = Vec<Vec<(i32, i32, i32)>>> {
    prop::collection::vec(
        prop::collection::vec((0..4i32, 0..MESH as i32, 0..MESH as i32), 1..5),
        0..10,
    )
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
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn reroute_index_matches_from_scratch_after_every_batch(batches in arbitrary_batches()) {
        let mesh = Mesh2D::square(MESH);
        let mut engine = IncrementalEngine::new(mesh);
        // A dense pair sample: every 3rd node to every 3rd node crosses
        // the whole mesh, so most status changes intersect some route.
        let sample = PairSample::strided(&mesh, 3);
        let mut index = RerouteIndex::from_engine(&engine, &sample);
        prop_assert!(index.matches_from_scratch());

        for raw in batches {
            let events: Vec<FaultEvent> = raw
                .iter()
                .map(|&(kind, x, y)| decode(&engine, kind, x, y))
                .collect();
            let delta = engine.delta_batch(events.clone());
            let outcome = index.apply_engine_batch(&engine, &delta);

            // The mirror tracks the engine, and the maintained routes
            // equal routing every pair from scratch over it.
            prop_assert_eq!(index.status(), engine.status(), "after {:?}", &events);
            prop_assert!(index.matches_from_scratch(), "after {:?}", &events);
            // Bookkeeping sanity: every route is either kept or recomputed.
            prop_assert_eq!(
                outcome.recomputed + outcome.kept,
                sample.len(),
                "after {:?}",
                &events
            );
        }
    }
}
