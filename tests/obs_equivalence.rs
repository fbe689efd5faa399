//! The observability layer's safety net: recording metrics and spans
//! must not perturb a single bit of the science.
//!
//! Compiled only with `--features obs` (see `[[test]]` in Cargo.toml),
//! so every counter, histogram and span in the stack is live while the
//! golden Figure 9/10 sweeps rerun. The CSVs must stay byte-identical
//! to the same `tests/fixtures/` the un-instrumented build is pinned
//! to, at 1 and at 4 worker threads — instrumentation that changed a
//! result, reordered a fold, or raced a seed would show up here.
//!
//! The registry and the trace buffer are process-global, so the tests
//! serialize on one lock and reset state at each entry.

use mocp::experiments::scenario::{run_scenario, Metric, Scenario};
use mocp::experiments::{render_csv, run_traffic, SweepConfig, TrafficScenario};
use mocp::faultgen::FaultDistribution;
use std::fmt::Write as _;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

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

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Looks up a counter's value in a rendered snapshot table by name.
fn counter_value(name: &str) -> u64 {
    mocp::mocp_obs::snapshot()
        .into_iter()
        .find(|s| s.name == name)
        .and_then(|s| match s.value {
            mocp::mocp_obs::MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

#[test]
fn live_metrics_leave_the_2d_golden_figures_byte_identical() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mocp::mocp_obs::reset_all();
    let golden = include_str!("fixtures/figures_2d.csv");
    for threads in [1usize, 4] {
        let csv = in_pool(threads, figures_2d_csv);
        assert_eq!(
            csv, golden,
            "2-D figures drifted with obs enabled at {threads} threads"
        );
    }
    // The sweep above must actually have been observed. The standard
    // 2-D registry's CMFP runs solution 1 (virtual faulty blocks), so
    // the labelling-round counter is the one that must move.
    assert!(counter_value("construct.components") > 0);
    assert!(counter_value("construct.labelling_rounds") > 0);
    // The 4-thread pass executed jobs on the instrumented pool.
    assert!(counter_value("pool.jobs_executed") > 0);
}

#[test]
fn live_metrics_leave_the_3d_golden_figures_byte_identical() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mocp::mocp_obs::reset_all();
    let golden = include_str!("fixtures/figures_3d.csv");
    for threads in [1usize, 4] {
        let csv = in_pool(threads, figures_3d_csv);
        assert_eq!(
            csv, golden,
            "3-D figures drifted with obs enabled at {threads} threads"
        );
    }
    assert!(counter_value("hull3d.hulls") > 0);
    assert!(counter_value("hull3d.fixpoint_rounds") > 0);
    assert!(counter_value("merge3d.constructions") > 0);
    assert!(counter_value("merge3d.growth_rounds") > 0);
}

#[test]
fn sweep_trace_is_valid_and_balanced() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mocp::mocp_obs::reset_all();
    mocp::mocp_obs::trace::start_capture();
    in_pool(2, || {
        let config = SweepConfig {
            mesh_size: 24,
            fault_counts: vec![10, 20],
            trials: 2,
            base_seed: 7,
        };
        let registry = mocp::mocp_core::standard_registry();
        let scenario = Scenario::paper_figures(&config, FaultDistribution::Random);
        run_scenario(&registry, &scenario).unwrap();
    });
    let json = mocp::mocp_obs::trace::to_chrome_json();

    // Chrome trace-event shape: one object wrapping a traceEvents array.
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    let begins = json.matches("\"ph\": \"B\"").count();
    let ends = json.matches("\"ph\": \"E\"").count();
    assert_eq!(begins, ends, "unbalanced B/E events in the sweep trace");
    // One scenario span plus per-trial spans must have made it in.
    assert!(begins > 0, "sweep produced no trace events");
    assert!(json.contains("\"sweep.scenario\""));
    assert!(json.contains("\"sweep.trial\""));
    assert!(json.contains("\"sweep.construct\""));

    // The spans also feed their `.us` histograms: one span per trial
    // (each trial walks every fault count inside its span).
    let samples = mocp::mocp_obs::snapshot();
    let trial_hist = samples
        .iter()
        .find(|s| s.name == "sweep.trial.us")
        .expect("sweep.trial.us histogram missing");
    match &trial_hist.value {
        mocp::mocp_obs::MetricValue::Histogram(h) => assert_eq!(h.count, 2),
        other => panic!("sweep.trial.us has wrong kind: {other:?}"),
    }
}

#[test]
fn traffic_hop_counters_match_the_reports() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mocp::mocp_obs::reset_all();
    let registry = mocp::mocp_core::standard_registry();
    let result = run_traffic(&registry, &TrafficScenario::quick()).unwrap();
    let reports = || result.cells.iter().flat_map(|cell| &cell.reports);
    let hops: u64 = reports().map(|r| r.total_hops).sum();
    let abnormal: u64 = reports().map(|r| r.abnormal_hops).sum();
    assert!(abnormal > 0, "the quick sweep detours around its faults");
    // With the `traffic.sim` span, these give the simulator's ns per hop.
    assert_eq!(counter_value("traffic.hops"), hops);
    assert_eq!(counter_value("traffic.abnormal_hops"), abnormal);
}
