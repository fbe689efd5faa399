//! Property test for the fault-tolerant service core: **any** seeded
//! fault plan converges back to the sequential oracle.
//!
//! Each case derives a chaos run from a random seed — tenant streams,
//! worker-kill schedule (clean and mid-apply), lossy live-reroute
//! subscribers — and asserts the full robustness contract afterwards:
//!
//! * every scheduled kill fired and every tenant is `Live` again;
//! * every tenant's served status/regions equal [`replay_tenant`]'s
//!   sequential ground truth (same equality the fault-free
//!   `serve_workload` pins, now across worker deaths and recovery);
//! * every subscriber's `RerouteIndex` equals from-scratch routing over
//!   the tenant's final state, despite dropped updates and recovery;
//! * nothing was lost or double-applied: the submitted event count is
//!   exact, and dead workers match fired kills.
//!
//! The suite is seeded and thread-count independent — CI runs it under
//! `RAYON_NUM_THREADS=1` and `=4`, and the cases themselves sweep the
//! service's own worker count.

use mocp::experiments::{run_chaos_workload, ChaosWorkloadConfig};
use mocp::mocp_serve::chaos::install_quiet_panic_hook;
use mocp::mocp_serve::ServeConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_seeded_fault_plan_converges_to_the_sequential_oracle(
        seed in 0u64..(1u64 << 48),
        kills in 1usize..5,
        workers in 1usize..5,
        mid in 0usize..3,
    ) {
        install_quiet_panic_hook();
        let mut cfg = ChaosWorkloadConfig::quick()
            .with_seed(seed)
            .with_kills(kills);
        // Sweep the kill style: all-clean, mixed, all-mid-apply.
        cfg.mid_fraction = mid as f64 / 2.0;
        let outcome = run_chaos_workload(&cfg, ServeConfig::default().with_workers(workers));

        prop_assert!(outcome.converged(), "diverged: {outcome:?}");
        prop_assert_eq!(
            outcome.events_submitted,
            cfg.workload.total_events() as u64,
            "every event accepted exactly once"
        );
        prop_assert!(outcome.kills_fired >= 1, "the plan fired: {outcome:?}");
        prop_assert_eq!(
            outcome.panicked_workers, outcome.kills_fired,
            "every fired kill took a worker down"
        );
        prop_assert!(
            outcome.subscriber_gaps + outcome.subscriber_resyncs >= 1,
            "tiny buffers forced at least one subscriber repair: {outcome:?}"
        );
    }
}
