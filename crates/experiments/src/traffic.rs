//! The heavy-traffic sweep: cycle-driven simulation of every
//! (model × pattern) cell over one injected fault population.
//!
//! [`run_traffic`] is the network-dynamics counterpart of
//! [`run_scenario`](crate::run_scenario): where the figure sweeps measure
//! what a fault model *disables*, this sweep measures what the surviving
//! network *delivers* — throughput, latency, stretch and buffer pressure
//! under uniform, transpose and hotspot traffic, with the identical
//! extended e-cube router for every model. The fault population is built
//! once from the scenario seed, each model's status map and region index
//! are derived once, and the (model × pattern × trial) cells then fan out
//! as independent tasks on the work-stealing pool. Trial `t` of a pattern
//! draws its message stream from `base_seed + t` for **every** model, so
//! the FB and MFP columns of one trial see the same offered traffic — the
//! comparison is paired, and the CSV is byte-identical at any thread
//! count because the collect is ordered and the averaging sequential.

use faultgen::{FaultDistribution, FaultInjector};
use mesh2d::{Mesh2D, StatusMap};
use meshroute::RegionMap;
use mocp_topology::{ModelRegistry, UnknownModel};
use mocp_traffic::{pattern_by_name, simulate, SimConfig, TrafficReport, VcOccupancy};

/// A declarative description of one traffic sweep.
#[derive(Clone, Debug)]
pub struct TrafficScenario {
    /// Human-readable name (reported in summaries, not in the CSV).
    pub name: String,
    /// Mesh side length (`n × n`).
    pub mesh_size: u32,
    /// Faults injected before any traffic runs.
    pub faults: usize,
    /// Fault distribution driving the injector.
    pub distribution: FaultDistribution,
    /// Fault-model names, resolved through the registry.
    pub models: Vec<String>,
    /// Traffic-pattern names (see [`mocp_traffic::PATTERN_NAMES`]).
    pub patterns: Vec<String>,
    /// Messages offered per (model × pattern × trial) cell.
    pub messages: usize,
    /// Independent seeded trials averaged per cell.
    pub trials: u32,
    /// Base RNG seed: the fault population uses it directly, trial `t`'s
    /// message stream uses `base_seed + t`.
    pub base_seed: u64,
    /// Messages entering their source queues per cycle.
    pub injection_rate: usize,
    /// Buffer slots per (link, virtual channel).
    pub vc_capacity: usize,
    /// Hard cycle horizon (`0` = auto, see [`SimConfig::max_cycles`]).
    pub max_cycles: u64,
    /// Pairs routed by the static reachability probe per cell.
    pub reachable_sample: usize,
}

impl TrafficScenario {
    /// The acceptance-scale sweep: a 512×512 mesh with 250 random faults,
    /// one million messages per cell, FB vs CMFP under all three patterns.
    pub fn full() -> Self {
        TrafficScenario {
            name: "traffic-512".to_string(),
            mesh_size: 512,
            faults: 250,
            distribution: FaultDistribution::Random,
            models: vec!["FB".to_string(), "CMFP".to_string()],
            patterns: mocp_traffic::PATTERN_NAMES.map(String::from).to_vec(),
            messages: 1_000_000,
            trials: 1,
            base_seed: 2004,
            injection_rate: 256,
            vc_capacity: 4,
            max_cycles: 0,
            reachable_sample: 2000,
        }
    }

    /// A CI-sized smoke sweep: 32×32 mesh, 12 faults, 2000 messages, two
    /// trials.
    pub fn quick() -> Self {
        TrafficScenario {
            name: "traffic-quick".to_string(),
            mesh_size: 32,
            faults: 12,
            messages: 2_000,
            trials: 2,
            injection_rate: 16,
            reachable_sample: 400,
            ..TrafficScenario::full()
        }
    }

    /// The per-cell simulator configuration for trial `t`.
    pub fn sim_config(&self, trial: u32) -> SimConfig {
        SimConfig {
            messages: self.messages,
            seed: self.base_seed + trial as u64,
            injection_rate: self.injection_rate.max(1),
            vc_capacity: self.vc_capacity.max(1),
            max_cycles: self.max_cycles,
            reachable_sample: self.reachable_sample,
        }
    }
}

/// One (model × pattern) cell: the per-trial reports, in trial order.
#[derive(Clone, Debug)]
pub struct TrafficCell {
    /// Fault-model name.
    pub model: String,
    /// Traffic-pattern name.
    pub pattern: String,
    /// One report per trial (trial `t` at index `t`).
    pub reports: Vec<TrafficReport>,
}

/// The outcome of one traffic sweep.
#[derive(Clone, Debug)]
pub struct TrafficResult {
    /// The scenario that was run.
    pub scenario: TrafficScenario,
    /// Cells in (model-major, pattern-minor) scenario order.
    pub cells: Vec<TrafficCell>,
}

/// Runs every (model × pattern × trial) cell of `scenario` over one
/// seeded fault population, fanning the cells out on the work-stealing
/// pool. Fails fast — before any simulation — if a model or pattern name
/// does not resolve.
pub fn run_traffic(
    registry: &ModelRegistry<Mesh2D>,
    scenario: &TrafficScenario,
) -> Result<TrafficResult, UnknownModel> {
    for name in &scenario.models {
        registry.build(name)?;
    }
    for name in &scenario.patterns {
        if pattern_by_name(name).is_none() {
            return Err(UnknownModel {
                requested: format!("pattern:{name}"),
                known: mocp_traffic::PATTERN_NAMES.to_vec(),
            });
        }
    }

    let _span = mocp_obs::span!("traffic.sweep");
    let mesh = Mesh2D::square(scenario.mesh_size);
    let mut injector = FaultInjector::new(mesh, scenario.distribution, scenario.base_seed);
    injector.inject_up_to(scenario.faults);
    let faults = injector.faults();

    // One construction + region labelling per model, shared (read-only)
    // by every pattern and trial of that model.
    let networks: Vec<(StatusMap, RegionMap)> = scenario
        .models
        .iter()
        .map(|name| {
            let _span = mocp_obs::span!("traffic.construct");
            let outcome = registry
                .build(name)
                .expect("names validated above")
                .construct(&mesh, faults);
            let regions = RegionMap::from_status(&mesh, &outcome.status);
            (outcome.status, regions)
        })
        .collect();

    let trials = scenario.trials.max(1);
    let mut tasks: Vec<(usize, usize, u32)> = Vec::new();
    for m in 0..scenario.models.len() {
        for p in 0..scenario.patterns.len() {
            for t in 0..trials {
                tasks.push((m, p, t));
            }
        }
    }

    use rayon::prelude::*;
    let reports: Vec<TrafficReport> = tasks
        .par_iter()
        .map(|&(m, p, t)| {
            let (status, regions) = &networks[m];
            let pattern = pattern_by_name(&scenario.patterns[p]).expect("validated above");
            simulate(
                &mesh,
                status,
                regions,
                pattern.as_ref(),
                &scenario.sim_config(t),
            )
        })
        .collect();

    // The ordered collect keeps report (m, p, t) at index
    // ((m * patterns + p) * trials + t); regroup into cells.
    let mut cells = Vec::with_capacity(scenario.models.len() * scenario.patterns.len());
    let mut it = reports.into_iter();
    for model in &scenario.models {
        for pattern in &scenario.patterns {
            cells.push(TrafficCell {
                model: model.clone(),
                pattern: pattern.clone(),
                reports: (0..trials)
                    .map(|_| it.next().expect("task per cell"))
                    .collect(),
            });
        }
    }

    Ok(TrafficResult {
        scenario: scenario.clone(),
        cells,
    })
}

/// Renders a traffic result as CSV: one summary row per (model × pattern)
/// cell with trial-averaged metrics, then a per-virtual-channel occupancy
/// histogram section with counts summed over trials. Deterministic to the
/// byte for a given result.
pub fn render_traffic_csv(result: &TrafficResult) -> String {
    let mut out = String::new();
    out.push_str(
        "mesh,faults,model,pattern,trials,offered,injected,endpoint_excluded,unreachable,\
         delivered,stranded,cycles,delivered_fraction,throughput,avg_stretch,latency_mean,\
         latency_p50,latency_p90,latency_p99,latency_max,abnormal_frac,detours,\
         reachable_fraction,vc0_mean,vc1_mean,vc2_mean,vc3_mean\n",
    );
    let s = &result.scenario;
    for cell in &result.cells {
        let n = cell.reports.len().max(1) as f64;
        let mean = |f: &dyn Fn(&TrafficReport) -> f64| cell.reports.iter().map(f).sum::<f64>() / n;
        let abnormal_frac = mean(&|r| {
            if r.total_hops == 0 {
                0.0
            } else {
                r.abnormal_hops as f64 / r.total_hops as f64
            }
        });
        out.push_str(&format!(
            "{},{},{},{},{},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.6},{:.6},{:.6},\
             {:.6},{:.1},{:.1},{:.1},{:.1},{:.6},{:.1},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
            s.mesh_size,
            s.faults,
            cell.model,
            cell.pattern,
            cell.reports.len(),
            mean(&|r| r.offered as f64),
            mean(&|r| r.injected as f64),
            mean(&|r| r.endpoint_excluded as f64),
            mean(&|r| r.unreachable as f64),
            mean(&|r| r.delivered as f64),
            mean(&|r| r.stranded as f64),
            mean(&|r| r.cycles as f64),
            mean(&|r| r.delivered_fraction()),
            mean(&|r| r.throughput()),
            mean(&|r| r.avg_stretch),
            mean(&|r| r.latency.mean),
            mean(&|r| r.latency.p50 as f64),
            mean(&|r| r.latency.p90 as f64),
            mean(&|r| r.latency.p99 as f64),
            mean(&|r| r.latency.max as f64),
            abnormal_frac,
            mean(&|r| r.detours as f64),
            mean(&|r| r.reachable.fraction()),
            mean(&|r| r.vc[0].mean),
            mean(&|r| r.vc[1].mean),
            mean(&|r| r.vc[2].mean),
            mean(&|r| r.vc[3].mean),
        ));
    }

    out.push_str("\nmodel,pattern,vc,bucket_floor,cycles\n");
    for cell in &result.cells {
        for vc in 0..4 {
            let buckets = cell
                .reports
                .iter()
                .map(|r| r.vc[vc].histogram.len())
                .max()
                .unwrap_or(0);
            for b in 0..buckets {
                let count: u64 = cell
                    .reports
                    .iter()
                    .map(|r| r.vc[vc].histogram.get(b).copied().unwrap_or(0))
                    .sum();
                out.push_str(&format!(
                    "{},{},{},{},{}\n",
                    cell.model,
                    cell.pattern,
                    vc,
                    VcOccupancy::bucket_floor(b),
                    count
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TrafficScenario {
        TrafficScenario {
            mesh_size: 16,
            faults: 6,
            messages: 400,
            trials: 2,
            injection_rate: 8,
            reachable_sample: 100,
            ..TrafficScenario::quick()
        }
    }

    #[test]
    fn sweep_covers_every_model_pattern_cell() {
        let registry = mocp_core::standard_registry();
        let result = run_traffic(&registry, &tiny()).unwrap();
        assert_eq!(result.cells.len(), 6); // 2 models x 3 patterns
        for cell in &result.cells {
            assert_eq!(cell.reports.len(), 2);
            for r in &cell.reports {
                assert_eq!(r.offered, 400);
                assert_eq!(
                    r.injected,
                    r.delivered + r.unreachable + r.stranded,
                    "{}/{} accounting",
                    cell.model,
                    cell.pattern
                );
            }
        }
    }

    #[test]
    fn unknown_names_fail_before_any_simulation() {
        let registry = mocp_core::standard_registry();
        let mut s = tiny();
        s.models.push("NOPE".to_string());
        assert_eq!(run_traffic(&registry, &s).unwrap_err().requested, "NOPE");
        let mut s = tiny();
        s.patterns.push("nope".to_string());
        assert_eq!(
            run_traffic(&registry, &s).unwrap_err().requested,
            "pattern:nope"
        );
    }

    #[test]
    fn csv_is_deterministic_and_shaped() {
        let registry = mocp_core::standard_registry();
        let scenario = tiny();
        let a = render_traffic_csv(&run_traffic(&registry, &scenario).unwrap());
        let b = render_traffic_csv(&run_traffic(&registry, &scenario).unwrap());
        assert_eq!(a, b);
        assert!(a.starts_with("mesh,faults,model,pattern,"));
        assert!(a.contains("\nmodel,pattern,vc,bucket_floor,cycles\n"));
        // One summary row per cell plus the two headers.
        let summary_rows = a.split("\n\n").next().unwrap().lines().count();
        assert_eq!(summary_rows, 1 + 6);
    }
}
