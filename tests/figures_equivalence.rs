//! The api-redesign safety net: the dimension-generic scenario runner must
//! reproduce the **pre-redesign** sweep outputs *bit-identically*.
//!
//! The fixtures under `tests/fixtures/` were captured from the repository
//! state before the `mocp_topology` unification, running
//!
//! * the 2-D `run_scenario` (then a `Mesh2D`-only function) at the paper's
//!   mesh (100×100), fault counts (100..800) and base seed (2004), and
//! * the 3-D `run_scenario_3d` (then a separate, hand-duplicated runner)
//!   at its paper configuration (32×32×32, 100..800 faults, seed 2004,
//!   3 trials) — exactly what `paper_figures --three-d` swept.
//!
//! If the generic injector, the generic `Outcome` metrics, or the unified
//! trial-averaging loop drift by even one ULP from what the two
//! per-dimension stacks computed, these comparisons fail. Together with
//! `streaming_equivalence` (batch vs incremental engine) this pins the
//! Figure 9/10 CSV output across the redesign.
//!
//! `figure11_2d.csv` pins the Figure 11 round counts of the same 2-D
//! sweep (FB/FP/CMFP/DMFP), so the distributed protocol's ring and
//! notification accounting is fixed at paper scale too.

use mocp::experiments::scenario::{run_scenario, Metric, Scenario, ScenarioResult};
use mocp::experiments::{render_csv, SweepConfig};
use mocp::faultgen::FaultDistribution;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The paper-configuration 2-D sweep (100², 100..800 faults, seed 2004),
/// one result per distribution, run once for every 2-D check.
fn paper_2d_results() -> &'static [(FaultDistribution, ScenarioResult)] {
    static RESULTS: OnceLock<Vec<(FaultDistribution, ScenarioResult)>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let config = SweepConfig {
            mesh_size: 100,
            fault_counts: (1..=8).map(|i| i * 100).collect(),
            trials: 1,
            base_seed: 2004,
        };
        let registry = mocp::mocp_core::standard_registry();
        FaultDistribution::ALL
            .iter()
            .map(|&dist| {
                let scenario = Scenario::paper_figures(&config, dist);
                (dist, run_scenario(&registry, &scenario).unwrap())
            })
            .collect()
    })
}

/// Renders `metrics` of the 2-D sweep in the fixtures' CSV layout.
fn render_2d(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (dist, result) in paper_2d_results() {
        for &metric in metrics {
            let _ = writeln!(out, "# 2d {} {:?}", dist.label(), metric);
            out.push_str(&render_csv(&result.series(metric)));
        }
    }
    out
}

#[test]
fn generic_runner_reproduces_the_pre_redesign_2d_figures() {
    let out = render_2d(&[Metric::DisabledNonfaulty, Metric::AvgRegionSize]);
    let golden = include_str!("fixtures/figures_2d.csv");
    assert_eq!(
        out, golden,
        "2-D Figure 9/10 CSV drifted from the pre-redesign sweep"
    );
}

#[test]
fn figure11_round_counts_match_the_fixture() {
    let out = render_2d(&[Metric::Rounds]);
    let golden = include_str!("fixtures/figure11_2d.csv");
    assert_eq!(out, golden, "2-D Figure 11 round counts drifted");
}

#[test]
fn generic_runner_reproduces_the_pre_redesign_3d_figures() {
    let registry = mocp::mocp_3d::standard_registry_3d();
    let mut out = String::new();
    for dist in FaultDistribution::ALL {
        let result = run_scenario(&registry, &Scenario::paper_figures_3d(dist)).unwrap();
        let _ = writeln!(out, "# 3d {} disabled", dist.label());
        out.push_str(&render_csv(&result.series(Metric::DisabledNonfaulty)));
        let _ = writeln!(out, "# 3d {} avg-size", dist.label());
        out.push_str(&render_csv(&result.series(Metric::AvgRegionSize)));
    }
    let golden = include_str!("fixtures/figures_3d.csv");
    assert_eq!(
        out, golden,
        "3-D Figure 9/10 CSV drifted from the pre-redesign sweep"
    );
}
