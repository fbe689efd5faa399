//! The scenario-driven sweep runner — one code path for every figure in
//! every dimension.
//!
//! A [`Scenario`] describes an experiment as data: mesh side length,
//! fault distribution and counts (from `faultgen`), the *names* of the
//! models to run, and how many seeded trials to average. [`run_scenario`]
//! executes any scenario with the same trial-parallel loop for **any**
//! [`MeshTopology`]: pass `mocp_core::standard_registry()` and it sweeps
//! the paper's 2-D models; pass `mocp_3d::standard_registry_3d()` and the
//! identical code sweeps FB-3D/MFP-3D on a cubic mesh. Reproducing a new
//! figure — or adding a whole new fault model or mesh dimension to every
//! figure — is a registry entry or a trait impl, not a new runner.
//!
//! The paper's Figures 9–11 are the scenario built by
//! [`Scenario::paper_figures`]; the 3-D Figure 9/10 analogues are
//! [`Scenario::paper_figures_3d`], executed by the very same
//! [`run_scenario`].

use crate::sweep::{ModelPoint, SweepConfig};
use crate::table::Series;
use faultgen::{FaultDistribution, FaultInjector};
use mocp_topology::{BoxedModel, MeshTopology, ModelRegistry, UnknownModel};

/// A declarative description of one sweep experiment.
///
/// The description is dimension-agnostic: the same struct drives the 2-D
/// and 3-D sweeps, and which dimension runs is decided by the registry
/// handed to [`run_scenario`].
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable name, used in reported series titles.
    pub name: String,
    /// Mesh side length: an `n × n` mesh in 2-D (the paper uses 100), an
    /// `n × n × n` mesh in 3-D (the analogue sweep uses 32).
    pub mesh_size: u32,
    /// Fault distribution model driving the injector.
    pub distribution: FaultDistribution,
    /// Fault counts to evaluate, in ascending order.
    pub fault_counts: Vec<usize>,
    /// Names of the fault models to run, resolved through the registry
    /// passed to [`run_scenario`].
    pub models: Vec<String>,
    /// Number of independent trials averaged per point.
    pub trials: u32,
    /// Base RNG seed; trial `t` uses `base_seed + t`.
    pub base_seed: u64,
}

impl Scenario {
    /// A scenario with sensible defaults: 100×100 mesh, the paper's
    /// 100..800 fault counts under the random distribution, all four
    /// paper models, 5 trials.
    pub fn new(name: impl Into<String>) -> Self {
        let config = SweepConfig::default();
        Scenario {
            name: name.into(),
            mesh_size: config.mesh_size,
            distribution: FaultDistribution::Random,
            fault_counts: config.fault_counts,
            models: paper_model_names(),
            trials: config.trials,
            base_seed: config.base_seed,
        }
    }

    /// The scenario behind the paper's Figures 9–11: the four models of
    /// the paper under `distribution`, sized by `config`.
    pub fn paper_figures(config: &SweepConfig, distribution: FaultDistribution) -> Self {
        Scenario {
            name: format!("paper-figures-{}", distribution.label()),
            mesh_size: config.mesh_size,
            distribution,
            fault_counts: config.fault_counts.clone(),
            models: paper_model_names(),
            trials: config.trials,
            base_seed: config.base_seed,
        }
    }

    /// The 3-D Figure 9/10 analogue sweep: a 32×32×32 mesh with 100..800
    /// faults (the same absolute counts and base seed as the paper's 2-D
    /// sweep), FB-3D vs MFP-3D, 3 trials. Run it with
    /// `mocp_3d::standard_registry_3d()`.
    pub fn paper_figures_3d(distribution: FaultDistribution) -> Self {
        Scenario {
            name: format!("3d-figures-{}", distribution.label()),
            mesh_size: 32,
            distribution,
            fault_counts: (1..=8).map(|i| i * 100).collect(),
            models: paper_model_names_3d(),
            trials: 3,
            base_seed: 2004,
        }
    }

    /// A small 3-D configuration for smoke tests and CI: a 12³ mesh with
    /// up to 80 faults.
    pub fn quick_3d(distribution: FaultDistribution) -> Self {
        Scenario {
            name: format!("3d-quick-{}", distribution.label()),
            mesh_size: 12,
            fault_counts: vec![20, 40, 60, 80],
            trials: 2,
            ..Scenario::paper_figures_3d(distribution)
        }
    }

    /// Replaces the model list (builder style).
    pub fn with_models<S: Into<String>>(mut self, models: impl IntoIterator<Item = S>) -> Self {
        self.models = models.into_iter().map(Into::into).collect();
        self
    }

    /// Replaces the fault distribution (builder style).
    pub fn with_distribution(mut self, distribution: FaultDistribution) -> Self {
        self.distribution = distribution;
        self
    }
}

/// The four models of the paper, in presentation order.
pub fn paper_model_names() -> Vec<String> {
    ["FB", "FP", "CMFP", "DMFP"].map(String::from).to_vec()
}

/// The two 3-D models, in presentation order.
pub fn paper_model_names_3d() -> Vec<String> {
    ["FB3D", "MFP3D"].map(String::from).to_vec()
}

/// Which [`ModelPoint`] metric a figure plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Non-faulty nodes the model disabled (Figure 9).
    DisabledNonfaulty,
    /// Average region size in nodes, faults included (Figure 10).
    AvgRegionSize,
    /// Rounds of status determination (Figure 11).
    Rounds,
}

impl Metric {
    /// Short label used in series titles.
    pub fn label(self) -> &'static str {
        match self {
            Metric::DisabledNonfaulty => "disabled non-faulty nodes",
            Metric::AvgRegionSize => "avg region size",
            Metric::Rounds => "rounds",
        }
    }

    /// Extracts this metric from one model point.
    pub fn of(self, point: &ModelPoint) -> f64 {
        match self {
            Metric::DisabledNonfaulty => point.disabled_nonfaulty,
            Metric::AvgRegionSize => point.avg_region_size,
            Metric::Rounds => point.rounds,
        }
    }
}

/// One x-axis point: per-model metrics at one fault count, parallel to
/// the scenario's model list.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioPoint {
    /// Number of faults injected.
    pub fault_count: usize,
    /// Averaged metrics, one entry per scenario model, in order.
    pub metrics: Vec<ModelPoint>,
}

/// The averaged outcome of running a scenario (in either dimension — the
/// result shape is dimension-free).
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// One entry per fault count, in the scenario's order.
    pub points: Vec<ScenarioPoint>,
}

impl ScenarioResult {
    /// The model names of this result, in column order.
    pub fn models(&self) -> &[String] {
        &self.scenario.models
    }

    /// The per-fault-count metric points of one model.
    pub fn model_curve(&self, name: &str) -> Option<Vec<ModelPoint>> {
        let idx = self
            .scenario
            .models
            .iter()
            .position(|m| m.eq_ignore_ascii_case(name))?;
        Some(self.points.iter().map(|p| p.metrics[idx]).collect())
    }

    /// Renders one metric of every model as a [`Series`] (the CSV/table
    /// shape all figures share).
    pub fn series(&self, metric: Metric) -> Series {
        let mut series = Series::new(
            format!("{}: {}", self.scenario.name, metric.label()),
            "faults".to_string(),
            self.scenario.models.clone(),
        );
        for point in &self.points {
            series.push_row(
                point.fault_count,
                point.metrics.iter().map(|m| metric.of(m)).collect(),
            );
        }
        series
    }
}

/// Runs the trials on the work-stealing pool and collects the results
/// in trial order — the skeleton shared by the batch and streaming
/// runners, so their deterministic trial-order averaging cannot drift
/// apart. The pool caps concurrency at its worker count (a 100-trial
/// scenario no longer creates 100 OS threads), and the ordered collect
/// keeps result `t` at index `t` regardless of scheduling.
pub(crate) fn run_trials<T: Send>(trials: u32, run: impl Fn(u32) -> T + Sync) -> Vec<T> {
    use rayon::prelude::*;
    (0..trials).into_par_iter().map(run).collect()
}

/// Runs every model of `scenario` (resolved through `registry`) over its
/// fault counts, averaging `trials` independent seeded fault sequences.
/// Trials (and the models within each trial) run as tasks on the
/// work-stealing pool; the result is deterministic for a given scenario
/// at any thread count, because trial `t` always draws from seed
/// `base_seed + t` and both parallel collects are ordered (output index
/// = input index), so the final averaging folds identical numbers in an
/// identical order.
///
/// This is the **only** sweep code path: the dimension is decided by the
/// registry's topology parameter (`ModelRegistry<Mesh2D>` for the paper's
/// figures, `ModelRegistry<Mesh3D>` for the 3-D analogues), and the mesh
/// is the topology's square/cube of side [`Scenario::mesh_size`].
///
/// Fails fast with [`UnknownModel`] if any model name does not resolve —
/// before any trial work starts.
pub fn run_scenario<T: MeshTopology>(
    registry: &ModelRegistry<T>,
    scenario: &Scenario,
) -> Result<ScenarioResult, UnknownModel> {
    for name in &scenario.models {
        registry.build(name)?;
    }

    let _span = mocp_obs::span!("sweep.scenario");
    let trials = scenario.trials.max(1);
    let trial_results: Vec<Vec<ScenarioPoint>> =
        run_trials(trials, |t| run_trial(registry, scenario, t));

    let mut points: Vec<ScenarioPoint> = scenario
        .fault_counts
        .iter()
        .map(|&fault_count| ScenarioPoint {
            fault_count,
            metrics: vec![ModelPoint::default(); scenario.models.len()],
        })
        .collect();
    for trial in &trial_results {
        for (acc, p) in points.iter_mut().zip(trial) {
            for (acc_m, m) in acc.metrics.iter_mut().zip(&p.metrics) {
                acc_m.accumulate(*m);
            }
        }
    }
    let factor = 1.0 / trials as f64;
    for p in &mut points {
        for m in &mut p.metrics {
            m.scale(factor);
        }
    }

    Ok(ScenarioResult {
        scenario: scenario.clone(),
        points,
    })
}

/// One seeded pass over the fault counts: inject incrementally, run
/// every model at each count.
fn run_trial<T: MeshTopology>(
    registry: &ModelRegistry<T>,
    scenario: &Scenario,
    trial: u32,
) -> Vec<ScenarioPoint> {
    let mesh = T::from_side(scenario.mesh_size);
    let models: Vec<BoxedModel<T>> = scenario
        .models
        .iter()
        .map(|name| {
            registry
                .build(name)
                .expect("names validated by run_scenario")
        })
        .collect();
    let mut injector = FaultInjector::new(
        mesh,
        scenario.distribution,
        scenario.base_seed + trial as u64,
    );
    let _span = mocp_obs::span!("sweep.trial");
    let mut points = Vec::with_capacity(scenario.fault_counts.len());
    for &count in &scenario.fault_counts {
        {
            let _span = mocp_obs::span!("sweep.inject");
            injector.inject_up_to(count);
        }
        let faults = injector.faults();
        // The fault sequence is incremental across counts, so the counts
        // stay sequential — but at a fixed count the models are
        // independent and fan out across the pool (ordered collect keeps
        // the metrics column order equal to the scenario's model order).
        use rayon::prelude::*;
        points.push(ScenarioPoint {
            fault_count: count,
            metrics: models
                .par_iter()
                .map(|model| {
                    let outcome = {
                        let _span = mocp_obs::span!("sweep.construct");
                        model.construct(&mesh, faults)
                    };
                    let _span = mocp_obs::span!("sweep.analyze");
                    ModelPoint::from_outcome(&outcome)
                })
                .collect(),
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblock::{FaultModel, FaultyBlockModel, ModelOutcome};
    use mesh2d::{FaultSet, Mesh2D};
    use mocp_3d::standard_registry_3d;
    use mocp_topology::RoundStats;

    fn quick_scenario(models: &[&str]) -> Scenario {
        Scenario {
            name: "quick".to_string(),
            mesh_size: 20,
            distribution: FaultDistribution::Clustered,
            fault_counts: vec![10, 20],
            models: models.iter().map(|m| m.to_string()).collect(),
            trials: 2,
            base_seed: 5,
        }
    }

    #[test]
    fn runs_an_arbitrary_model_subset() {
        let registry = mocp_core::standard_registry();
        let result = run_scenario(&registry, &quick_scenario(&["FP", "FB"])).unwrap();
        assert_eq!(result.models(), ["FP", "FB"]);
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert_eq!(p.metrics.len(), 2);
            // FP (column 0) never disables more than FB (column 1)
            assert!(p.metrics[0].disabled_nonfaulty <= p.metrics[1].disabled_nonfaulty + 1e-9);
        }
    }

    #[test]
    fn unknown_model_fails_before_running() {
        let registry = mocp_core::standard_registry();
        let err = run_scenario(&registry, &quick_scenario(&["FB", "MFP"])).unwrap_err();
        assert_eq!(err.requested, "MFP");
    }

    /// The one generic runner drives the 3-D registry with the identical
    /// code path — and the 3-D MFP never disables more than FB-3D.
    #[test]
    fn same_runner_drives_the_3d_registry() {
        let registry = standard_registry_3d();
        for dist in FaultDistribution::ALL {
            let result = run_scenario(&registry, &Scenario::quick_3d(dist)).unwrap();
            assert_eq!(result.points.len(), 4);
            for p in &result.points {
                let (fb, mfp) = (
                    p.metrics[0].disabled_nonfaulty,
                    p.metrics[1].disabled_nonfaulty,
                );
                assert!(
                    mfp <= fb + 1e-9,
                    "{dist:?} @ {}: MFP3D {mfp} > FB3D {fb}",
                    p.fault_count
                );
            }
        }
    }

    #[test]
    fn three_d_series_have_one_column_per_model_and_one_row_per_count() {
        let registry = standard_registry_3d();
        let result =
            run_scenario(&registry, &Scenario::quick_3d(FaultDistribution::Clustered)).unwrap();
        let fig9 = result.series(Metric::DisabledNonfaulty);
        let fig10 = result.series(Metric::AvgRegionSize);
        assert_eq!(fig9.curves, vec!["FB3D", "MFP3D"]);
        assert_eq!(fig9.rows.len(), 4);
        assert_eq!(fig10.curves, vec!["FB3D", "MFP3D"]);
        assert!(fig9.title.contains("disabled non-faulty"));
        assert!(fig10.title.contains("avg region size"));
        // Region sizes include the faults, so they are at least 1 once
        // faults exist.
        for (_, row) in &fig10.rows {
            assert!(row.iter().all(|&v| v >= 1.0));
        }
    }

    #[test]
    fn unknown_model_fails_in_3d_too() {
        let registry = standard_registry_3d();
        let mut scenario = Scenario::quick_3d(FaultDistribution::Random);
        scenario.models.push("CMFP".to_string());
        let err = run_scenario(&registry, &scenario).unwrap_err();
        assert_eq!(err.requested, "CMFP");
    }

    #[test]
    fn deterministic_across_runs_in_both_dimensions() {
        let registry = mocp_core::standard_registry();
        let scenario = quick_scenario(&["FB", "CMFP"]);
        let a = run_scenario(&registry, &scenario).unwrap();
        let b = run_scenario(&registry, &scenario).unwrap();
        assert_eq!(a.points, b.points);

        let registry3 = standard_registry_3d();
        let scenario3 = Scenario::quick_3d(FaultDistribution::Clustered);
        let a3 = run_scenario(&registry3, &scenario3).unwrap();
        let b3 = run_scenario(&registry3, &scenario3).unwrap();
        assert_eq!(a3.points, b3.points);
    }

    #[test]
    fn series_extracts_one_metric_per_model() {
        let registry = mocp_core::standard_registry();
        let result = run_scenario(&registry, &quick_scenario(&["FB", "CMFP"])).unwrap();
        let series = result.series(Metric::DisabledNonfaulty);
        assert_eq!(series.curves, vec!["FB", "CMFP"]);
        assert_eq!(series.rows.len(), 2);
        let fb = series.curve("FB").unwrap();
        let cmfp = series.curve("CMFP").unwrap();
        for i in 0..fb.len() {
            assert!(cmfp[i] <= fb[i] + 1e-9);
        }
        assert!(series.title.contains("disabled non-faulty nodes"));
    }

    /// A model extension is one registry entry — nothing else changes.
    #[test]
    fn new_models_join_sweeps_via_a_single_registry_entry() {
        struct RenamedFb;
        impl FaultModel for RenamedFb {
            fn name(&self) -> &'static str {
                "FB2"
            }
            fn construct(&self, mesh: &Mesh2D, faults: &FaultSet) -> ModelOutcome {
                ModelOutcome {
                    model: self.name().to_string(),
                    ..FaultyBlockModel.construct(mesh, faults)
                }
            }
        }

        let mut registry = mocp_core::standard_registry();
        registry.register("FB2", "faulty block under a second name", || {
            Box::new(RenamedFb)
        });
        let result = run_scenario(&registry, &quick_scenario(&["FB", "FB2"])).unwrap();
        for p in &result.points {
            assert_eq!(
                p.metrics[0], p.metrics[1],
                "same construction, same metrics"
            );
        }
    }

    #[test]
    fn metric_labels_and_extraction() {
        let point = ModelPoint {
            disabled_nonfaulty: 1.0,
            avg_region_size: 2.0,
            rounds: 3.0,
        };
        assert_eq!(Metric::DisabledNonfaulty.of(&point), 1.0);
        assert_eq!(Metric::AvgRegionSize.of(&point), 2.0);
        assert_eq!(Metric::Rounds.of(&point), 3.0);
        assert!(!Metric::Rounds.label().is_empty());
    }

    #[test]
    fn builder_helpers_replace_fields() {
        let s = Scenario::new("custom")
            .with_models(["FB"])
            .with_distribution(FaultDistribution::Clustered);
        assert_eq!(s.models, vec!["FB".to_string()]);
        assert_eq!(s.distribution, FaultDistribution::Clustered);
        assert_eq!(s.mesh_size, 100);
    }

    #[test]
    fn rounds_stats_default_sanity() {
        // Guard against RoundStats default drifting: quiescent means zero
        // rounds, which the averaging relies on for empty accumulators.
        assert_eq!(RoundStats::quiescent().rounds, 0);
    }
}
