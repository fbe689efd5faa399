//! Streaming execution mode: one pass over one injection sequence.
//!
//! The batch runner ([`run_scenario`](crate::scenario::run_scenario))
//! re-runs every model from scratch at every fault count — O(sweep × mesh)
//! work. For the minimum-polygon model that is pure waste: the paper's
//! sweep injects faults *sequentially*, so an incremental engine
//! ([`mocp_incremental::IncrementalEngine`]) can absorb each fault as an
//! event and have the Figure 9/10 metrics ready at every checkpoint, in one
//! pass, touching only the changed region.
//!
//! [`run_scenario_streaming`] executes a [`Scenario`] this way for the MFP
//! model. For equal seeds it reproduces the batch runner's CMFP/DMFP
//! Figure 9 and Figure 10 columns **exactly** (same injection sequences,
//! same polygons, same trial averaging order — verified by the
//! `streaming_equivalence` integration test), which is what makes the
//! streaming mode a drop-in replacement rather than an approximation.

use crate::scenario::Scenario;
use crate::table::Series;
use faultgen::FaultInjector;
use mesh2d::Mesh2D;
use mocp_incremental::IncrementalEngine;

/// The streaming engine's Figure 9/10 metrics at one fault count.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamingPoint {
    /// Number of faults injected.
    pub fault_count: usize,
    /// Non-faulty nodes the MFP model disables (Figure 9).
    pub disabled_nonfaulty: f64,
    /// Average polygon size in nodes, faults included (Figure 10).
    pub avg_region_size: f64,
}

impl StreamingPoint {
    fn accumulate(&mut self, other: StreamingPoint) {
        self.disabled_nonfaulty += other.disabled_nonfaulty;
        self.avg_region_size += other.avg_region_size;
    }

    fn scale(&mut self, factor: f64) {
        self.disabled_nonfaulty *= factor;
        self.avg_region_size *= factor;
    }
}

/// The averaged outcome of one streaming sweep (MFP curve only — the other
/// paper models have no incremental formulation).
#[derive(Clone, Debug)]
pub struct StreamingResult {
    /// The scenario that was run (its `models` list is ignored; streaming
    /// always maintains the minimum-polygon model).
    pub scenario: Scenario,
    /// One entry per fault count, in the scenario's order.
    pub points: Vec<StreamingPoint>,
}

impl StreamingResult {
    /// The streaming Figure 9 series (raw disabled-node counts, MFP curve).
    pub fn fig9_series(&self) -> Series {
        let mut series = Series::new(
            format!(
                "Figure 9 ({}) streaming: # of disabled non-faulty nodes",
                self.scenario.distribution.label()
            ),
            "faults".to_string(),
            vec!["MFP".to_string()],
        );
        for p in &self.points {
            series.push_row(p.fault_count, vec![p.disabled_nonfaulty]);
        }
        series
    }

    /// The streaming Figure 10 series (average polygon size, MFP curve).
    pub fn fig10_series(&self) -> Series {
        let mut series = Series::new(
            format!(
                "Figure 10 ({}) streaming: average polygon size",
                self.scenario.distribution.label()
            ),
            "faults".to_string(),
            vec!["MFP".to_string()],
        );
        for p in &self.points {
            series.push_row(p.fault_count, vec![p.avg_region_size]);
        }
        series
    }
}

/// Runs `scenario` in streaming mode: per trial, one injector pass feeds an
/// incremental engine one fault event at a time, and the Figure 9/10
/// metrics are read off the engine's caches at every fault count. Trials
/// run on separate threads and are averaged in trial order, exactly like
/// the batch runner, so the result is deterministic and bit-identical to
/// the batch CMFP columns for the same seeds.
pub fn run_scenario_streaming(scenario: &Scenario) -> StreamingResult {
    let trials = scenario.trials.max(1);
    let trial_results: Vec<Vec<StreamingPoint>> =
        crate::scenario::run_trials(trials, |t| run_streaming_trial(scenario, t));

    let mut points: Vec<StreamingPoint> = scenario
        .fault_counts
        .iter()
        .map(|&fault_count| StreamingPoint {
            fault_count,
            ..StreamingPoint::default()
        })
        .collect();
    for trial in &trial_results {
        for (acc, p) in points.iter_mut().zip(trial) {
            acc.accumulate(*p);
        }
    }
    let factor = 1.0 / trials as f64;
    for p in &mut points {
        p.scale(factor);
    }

    StreamingResult {
        scenario: scenario.clone(),
        points,
    }
}

/// One seeded streaming pass: the same injector the batch trial would use,
/// consumed as an event stream by one engine.
fn run_streaming_trial(scenario: &Scenario, trial: u32) -> Vec<StreamingPoint> {
    let _span = mocp_obs::span!("sweep.stream_trial");
    let mesh = Mesh2D::square(scenario.mesh_size);
    let mut injector = FaultInjector::new(
        mesh,
        scenario.distribution,
        scenario.base_seed + trial as u64,
    );
    let mut engine = IncrementalEngine::new(mesh);
    let mut points = Vec::with_capacity(scenario.fault_counts.len());
    for &count in &scenario.fault_counts {
        let missing = count.saturating_sub(injector.len());
        for event in injector.event_stream(missing) {
            engine.apply(event);
        }
        points.push(StreamingPoint {
            fault_count: count,
            disabled_nonfaulty: engine.disabled_nonfaulty() as f64,
            avg_region_size: engine.average_region_size(),
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_scenario;
    use crate::sweep::SweepConfig;
    use faultgen::FaultDistribution;

    fn quick_scenario(dist: FaultDistribution) -> Scenario {
        Scenario::paper_figures(&SweepConfig::quick(), dist)
    }

    #[test]
    fn streaming_matches_batch_cmfp_exactly() {
        for dist in FaultDistribution::ALL {
            let scenario = quick_scenario(dist);
            let streaming = run_scenario_streaming(&scenario);
            let registry = mocp_core::standard_registry();
            let batch = run_scenario(&registry, &scenario).unwrap();
            let cmfp = batch.model_curve("CMFP").unwrap();
            assert_eq!(streaming.points.len(), cmfp.len());
            for (s, b) in streaming.points.iter().zip(&cmfp) {
                assert_eq!(s.disabled_nonfaulty, b.disabled_nonfaulty, "{dist:?}");
                assert_eq!(s.avg_region_size, b.avg_region_size, "{dist:?}");
            }
        }
    }

    #[test]
    fn streaming_is_deterministic() {
        let scenario = quick_scenario(FaultDistribution::Clustered);
        let a = run_scenario_streaming(&scenario);
        let b = run_scenario_streaming(&scenario);
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn series_have_one_mfp_curve_per_point() {
        let scenario = quick_scenario(FaultDistribution::Random);
        let result = run_scenario_streaming(&scenario);
        for series in [result.fig9_series(), result.fig10_series()] {
            assert_eq!(series.curves, vec!["MFP"]);
            assert_eq!(series.rows.len(), scenario.fault_counts.len());
            assert!(series.title.contains("streaming"));
        }
    }
}
