//! The work-stealing runtime's safety net: the figure sweeps must be
//! **byte-identical at every thread count**.
//!
//! `run_scenario`'s determinism strategy is (a) per-trial seeding
//! (`base_seed + t`, independent of which worker runs trial `t`),
//! (b) ordered parallel collects (output index = input index), and
//! (c) a sequential trial-order fold of the averages, so the f64
//! accumulation order never depends on scheduling. On the 3-D path the
//! merge process orders fault components by their minimal `(z, y, x)`
//! cell and completes MFP-3D hulls with an ordered parallel collect. If
//! any of those breaks, the CSVs below diverge between 1, 2 and 8
//! threads — and from the golden fixtures that pin them to the
//! pre-redesign sweeps.

use mocp::experiments::scenario::{run_scenario, Metric, Scenario};
use mocp::experiments::{render_csv, SweepConfig};
use mocp::faultgen::FaultDistribution;
use std::fmt::Write as _;

/// The exact CSV the 2-D golden suite checks, rebuilt from scratch.
fn figures_2d_csv() -> String {
    let config = SweepConfig {
        mesh_size: 100,
        fault_counts: (1..=8).map(|i| i * 100).collect(),
        trials: 1,
        base_seed: 2004,
    };
    let registry = mocp::mocp_core::standard_registry();
    let mut out = String::new();
    for dist in FaultDistribution::ALL {
        let scenario = Scenario::paper_figures(&config, dist);
        let result = run_scenario(&registry, &scenario).unwrap();
        for metric in [Metric::DisabledNonfaulty, Metric::AvgRegionSize] {
            let series = result.series(metric);
            let _ = writeln!(out, "# 2d {} {:?}", dist.label(), metric);
            out.push_str(&render_csv(&series));
        }
    }
    out
}

/// The exact CSV the 3-D golden suite checks, rebuilt from scratch.
fn figures_3d_csv() -> String {
    let registry = mocp::mocp_3d::standard_registry_3d();
    let mut out = String::new();
    for dist in FaultDistribution::ALL {
        let result = run_scenario(&registry, &Scenario::paper_figures_3d(dist)).unwrap();
        let _ = writeln!(out, "# 3d {} disabled", dist.label());
        out.push_str(&render_csv(&result.series(Metric::DisabledNonfaulty)));
        let _ = writeln!(out, "# 3d {} avg-size", dist.label());
        out.push_str(&render_csv(&result.series(Metric::AvgRegionSize)));
    }
    out
}

/// Runs `build` under dedicated pools of 1, 2 and 8 threads and asserts
/// all three outputs are byte-identical to `golden`.
fn assert_identical_at_all_thread_counts(golden: &str, build: impl Fn() -> String + Send + Sync) {
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let csv = pool.install(&build);
        assert_eq!(
            csv, golden,
            "figure CSV diverged from the golden fixture at {threads} thread(s)"
        );
    }
}

#[test]
fn figures_2d_csv_is_byte_identical_at_1_2_and_8_threads() {
    assert_identical_at_all_thread_counts(include_str!("fixtures/figures_2d.csv"), figures_2d_csv);
}

#[test]
fn figures_3d_csv_is_byte_identical_at_1_2_and_8_threads() {
    assert_identical_at_all_thread_counts(include_str!("fixtures/figures_3d.csv"), figures_3d_csv);
}
