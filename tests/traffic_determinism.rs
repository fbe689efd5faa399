//! The traffic sweep must be **byte-identical at every thread count**.
//!
//! `run_traffic` fans the (model × pattern × trial) cells out on the
//! work-stealing pool, but each cell is a sequential cycle-driven
//! simulation seeded from `base_seed + trial`, the parallel collect is
//! ordered, and the CSV averaging folds trial-order f64s sequentially —
//! so which worker runs which cell cannot change a byte of the output.
//! The golden fixture additionally pins the simulator's physics: any
//! change to injection, arbitration or routing order shows up as a diff
//! against `fixtures/traffic.csv`, not as a silent drift.
//!
//! That sweep runs well below saturation, so it barely exercises
//! arbitration or full buffers. `fixtures/traffic_contended.csv` pins the
//! contended regime: clustered faults, one- and two-slot buffers and heavy
//! injection, including cells that strand messages in a blocked network.

use mocp::experiments::{render_traffic_csv, run_traffic, TrafficScenario};
use mocp::faultgen::FaultDistribution;

/// The exact sweep the golden fixture pins: two models, all three
/// patterns, two trials on a 32×32 mesh with 12 random
/// faults — the `TrafficScenario::quick` CI shape.
fn traffic_csv() -> String {
    let registry = mocp::mocp_core::standard_registry();
    let result = run_traffic(&registry, &TrafficScenario::quick()).unwrap();
    render_traffic_csv(&result)
}

#[test]
fn traffic_csv_is_byte_identical_at_1_2_and_8_threads() {
    let golden = include_str!("fixtures/traffic.csv");
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let csv = pool.install(traffic_csv);
        assert_eq!(
            csv, golden,
            "traffic CSV diverged from the golden fixture at {threads} thread(s)"
        );
    }
}

/// The contended sweeps: 32×32 mesh, 60 clustered faults, every model and
/// pattern of the quick shape at each (buffer slots, injection rate) pair,
/// one CSV per pair under a `#` line naming it. Every pair strands CMFP
/// messages. The reachability probe is pinned by the quick sweep; here it
/// routes only 50 pairs, because the router's livelocked pairs (each runs
/// to its step budget) would otherwise dominate the test's run time.
fn contended_csv() -> String {
    let registry = mocp::mocp_core::standard_registry();
    let mut out = String::new();
    for (vc_capacity, injection_rate) in [(1, 64), (1, 128), (2, 64), (2, 256)] {
        let scenario = TrafficScenario {
            name: "traffic-contended".to_string(),
            faults: 60,
            distribution: FaultDistribution::Clustered,
            trials: 1,
            injection_rate,
            vc_capacity,
            reachable_sample: 50,
            ..TrafficScenario::quick()
        };
        let result = run_traffic(&registry, &scenario).unwrap();
        out.push_str(&format!(
            "# vc_capacity={vc_capacity} injection_rate={injection_rate}\n"
        ));
        out.push_str(&render_traffic_csv(&result));
    }
    out
}

#[test]
fn contended_traffic_csv_is_byte_identical_at_1_and_2_threads() {
    let golden = include_str!("fixtures/traffic_contended.csv");
    for threads in [1usize, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let csv = pool.install(contended_csv);
        assert_eq!(
            csv, golden,
            "contended traffic CSV diverged from the golden fixture at {threads} thread(s)"
        );
    }
}
