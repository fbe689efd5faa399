//! Persistent performance harness: times the repository's headline
//! workloads and writes a machine-readable JSON report.
//!
//! ```text
//! cargo run --release -p mocp-bench --bin perf_report            # full run
//! cargo run --release -p mocp-bench --bin perf_report -- --quick # CI smoke
//! cargo run --release -p mocp-bench --bin perf_report -- --quick --threads 2
//! cargo run --release -p mocp-bench --bin perf_report -- \
//!     --baseline old.json --out BENCH_6.json                     # with speedups
//! ```
//!
//! Seven workloads are timed, matching the repository's own definitions:
//!
//! * `batch_sweep_2d_100x800` — the batch arm of the
//!   `incremental_vs_batch` bench: CMFP (concave sections) reconstructed
//!   from scratch at checkpoints 100..800 on the paper's 100×100 mesh;
//! * `incremental_stream_512x20k` — the incremental maintenance engine
//!   absorbing a 20 000-fault clustered injection stream on a 512×512 mesh;
//! * `paper_figures_2d` — the full Figure 9/10/11 scenario sweep (both
//!   distributions, one trial) through `run_scenario`;
//! * `paper_figures_3d` — the 3-D Figure 9/10 analogue sweep (32³ mesh,
//!   both distributions);
//! * `serve_ingest_1k_tenants` — the multi-tenant monitoring service
//!   absorbing the deterministic 1000-tenants × 100-events workload with
//!   concurrent point queries (`experiments::run_serve_workload`). The
//!   service spawns its own threads, so this workload is timed once (not
//!   per pool size); sustained events/sec is appended to its `detail`
//!   and, with `--features obs`, the `serve.query.us` histogram
//!   (p50/p90/p99 query latency) lands in its `metrics` section;
//! * `traffic_512sq` — the cycle-driven traffic simulator
//!   (`experiments::run_traffic`) pushing 40 000 messages per
//!   (model × pattern) cell through FB and CMFP regions on a 512×512
//!   mesh with 250 random faults, under all three patterns. The six
//!   cells fan out on the measured pool, so this workload carries a
//!   real scaling table;
//! * `serve_chaos_recovery` — the seeded chaos harness
//!   (`experiments::run_chaos_workload`): the tenant streams ingested
//!   through scheduled worker kills, recovery, supervision and lossy
//!   live-reroute subscribers, verified against the sequential oracle —
//!   the price of recovery, measured. Like the serve workload, timed
//!   once (the service owns its threads).
//!
//! In full mode every workload is measured at 1, 2, 4 and 8 pool
//! threads (the per-count timings land in each workload's `scaling`
//! map, the headline `min`/`mean`/`samples` are the 1-thread numbers so
//! reports stay comparable across machines); `--threads N` pins a single
//! count instead, and quick mode measures one count only. The report
//! records `host_parallelism` so scaling numbers can be judged against
//! the cores that were actually available.
//!
//! The report goes to `--out <file>`, by default `target/perf_report.json`
//! (build output, so a bare run never overwrites a committed bench file).
//!
//! With `--baseline <file>` (a previous report), every workload also gets
//! `baseline_ms` and `speedup` fields so regressions/improvements are
//! visible from the committed JSON alone.
//!
//! Observability (`--features obs`): the report carries a per-workload
//! `"metrics"` section — the `mocp_obs` registry snapshot taken after
//! that workload's runs (counters reset at workload start) — and the
//! header records provenance (`git_revision`, `thread_counts`, `obs`)
//! so BENCH_*.json files are self-describing. `--metrics` additionally
//! dumps each snapshot as a human-readable table on stderr, and
//! `--trace out.json` writes a Chrome trace of the sweep spans. Both
//! flags work without the feature (empty metrics, empty trace); quick
//! mode measures pool sizes 1 and 2 so the pool counters are exercised
//! (the headline numbers stay the 1-thread entry).

use experiments::scenario::{run_scenario, Scenario};
use experiments::{run_traffic, SweepConfig, TrafficScenario};
use faultgen::{FaultDistribution, FaultInjector};
use fblock::FaultModel;
use mesh2d::{Coord, FaultEvent, FaultSet, Mesh2D};
use mocp_core::CentralizedMfpModel;
use mocp_incremental::IncrementalEngine;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One timed workload: name plus the measured samples in milliseconds,
/// one sample list per measured pool size (in `thread_counts` order; the
/// first entry is the headline measurement).
struct Measurement {
    name: &'static str,
    /// What the workload consists of, for human readers of the JSON.
    detail: String,
    per_thread: Vec<(usize, Vec<f64>)>,
    /// Pre-rendered JSON object with the workload's `mocp_obs` registry
    /// snapshot (totals over every repeat at every pool size); `None`
    /// without the `obs` feature.
    metrics: Option<String>,
}

fn min_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn mean_of(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

impl Measurement {
    /// The headline samples: the first measured thread count (1 in a
    /// full run), keeping reports comparable across hosts and with
    /// pre-scaling baselines.
    fn primary(&self) -> &[f64] {
        &self.per_thread[0].1
    }

    fn min_ms(&self) -> f64 {
        min_of(self.primary())
    }

    fn mean_ms(&self) -> f64 {
        mean_of(self.primary())
    }
}

/// Times `work` `repeats` times (after one untimed warm-up when
/// `repeats > 1`), black-boxing the result so the work cannot be elided —
/// once per pool in `pools`, with the workload's parallel operations
/// dispatched to that pool.
fn time_workload<R>(
    name: &'static str,
    detail: String,
    repeats: usize,
    pools: &[(usize, rayon::ThreadPool)],
    show_metrics: bool,
    mut work: impl FnMut() -> R + Send,
) -> Measurement {
    // Scope the metric snapshot to this workload (a no-op without obs).
    mocp_obs::reset_all();
    let mut per_thread = Vec::with_capacity(pools.len());
    for (threads, pool) in pools {
        let samples_ms = pool.install(|| {
            if repeats > 1 {
                black_box(work());
            }
            let mut samples_ms = Vec::with_capacity(repeats);
            for _ in 0..repeats {
                let start = Instant::now();
                black_box(work());
                samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            samples_ms
        });
        eprintln!(
            "  {name} @ {threads} thread(s): min {:.3} ms over {repeats} run(s)",
            min_of(&samples_ms)
        );
        per_thread.push((*threads, samples_ms));
    }
    let samples = mocp_obs::snapshot();
    if show_metrics {
        eprintln!("  {name} metrics:");
        eprint!("{}", mocp_obs::render_table(&samples));
    }
    let metrics = mocp_obs::enabled().then(|| mocp_obs::render_json(&samples));
    Measurement {
        name,
        detail,
        per_thread,
        metrics,
    }
}

/// Pre-generates one clustered injection sequence (setup, untimed).
fn sequence(mesh: Mesh2D, faults: usize, seed: u64) -> Vec<Coord> {
    let mut injector = FaultInjector::new(mesh, FaultDistribution::Clustered, seed);
    injector.event_stream(faults).map(|e| e.node()).collect()
}

/// The batch arm of `incremental_vs_batch`: full CMFP reconstruction at
/// every checkpoint.
fn batch_sweep(mesh: &Mesh2D, seq: &[Coord], checkpoints: &[usize]) -> Vec<(usize, usize, f64)> {
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

/// The incremental arm: one engine absorbs the whole stream event by event.
fn incremental_stream(mesh: &Mesh2D, seq: &[Coord]) -> (usize, f64) {
    let mut engine = IncrementalEngine::new(*mesh);
    for &c in seq {
        engine.apply(FaultEvent::Inject(c));
    }
    (engine.disabled_nonfaulty(), engine.average_region_size())
}

use bench::baseline_min_ms;

/// The current git revision, for report provenance. Best-effort: reports
/// must still be writable from an exported tree without git.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn render_report(
    mode: &str,
    thread_counts: &[usize],
    measurements: &[Measurement],
    baseline: Option<&str>,
) -> String {
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mocp-perf-report/3\",\n");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    out.push_str("  \"units\": \"milliseconds\",\n");
    let _ = writeln!(out, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(out, "  \"git_revision\": \"{}\",", git_revision());
    let counts: Vec<String> = thread_counts.iter().map(|n| n.to_string()).collect();
    let _ = writeln!(out, "  \"thread_counts\": [{}],", counts.join(", "));
    let _ = writeln!(out, "  \"obs\": {},", mocp_obs::enabled());
    out.push_str("  \"workloads\": {\n");
    for (i, m) in measurements.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", m.name);
        let _ = writeln!(out, "      \"detail\": \"{}\",", m.detail);
        // `min` stays the first field after `detail`: the baseline parser
        // reads the first `\"min\":` after the workload name, which must
        // be the headline number, not a scaling entry.
        let _ = writeln!(out, "      \"min\": {:.3},", m.min_ms());
        let _ = writeln!(out, "      \"mean\": {:.3},", m.mean_ms());
        let samples: Vec<String> = m.primary().iter().map(|s| format!("{s:.3}")).collect();
        let _ = write!(out, "      \"samples\": [{}]", samples.join(", "));
        let _ = write!(out, ",\n      \"scaling\": {{");
        for (j, (threads, samples)) in m.per_thread.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"min\": {:.3}, \"mean\": {:.3}}}",
                if j == 0 { "" } else { ", " },
                threads,
                min_of(samples),
                mean_of(samples)
            );
        }
        let _ = write!(out, "}}");
        if let Some(base_ms) = baseline.and_then(|b| baseline_min_ms(b, m.name)) {
            let _ = write!(
                out,
                ",\n      \"baseline_min\": {:.3},\n      \"speedup\": {:.2}",
                base_ms,
                base_ms / m.min_ms()
            );
        }
        // The metrics object stays the last field: the baseline parser
        // reads the first `"min":` after the workload name, so nothing
        // snapshot-shaped may precede the headline numbers.
        if let Some(metrics) = &m.metrics {
            let _ = write!(out, ",\n      \"metrics\": {metrics}");
        }
        out.push('\n');
        let _ = write!(
            out,
            "    }}{}",
            if i + 1 < measurements.len() {
                ",\n"
            } else {
                "\n"
            }
        );
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let show_metrics = args.iter().any(|a| a == "--metrics");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "target/perf_report.json".to_string());
    let baseline = flag_value("--baseline").map(|path| {
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"))
    });
    let pinned_threads: Option<usize> = flag_value("--threads").map(|v| {
        let n = v.parse().expect("--threads takes a positive integer");
        assert!(n > 0, "--threads takes a positive integer");
        n
    });
    let trace_path = flag_value("--trace");
    if (show_metrics || trace_path.is_some()) && !mocp_obs::enabled() {
        eprintln!(
            "note: built without the `obs` feature; --metrics/--trace emit empty output \
             (rebuild with `--features obs`)"
        );
    }
    if trace_path.is_some() {
        mocp_obs::trace::start_capture();
    }

    let mode = if quick { "quick" } else { "full" };
    let repeats = if quick { 1 } else { 3 };
    // Full runs sweep the pool size to produce the scaling table;
    // `--threads` pins one count, and quick mode keeps the smoke cheap
    // while still exercising a real 2-worker pool (the headline numbers
    // stay the first — 1-thread — entry).
    let thread_counts: Vec<usize> = match pinned_threads {
        Some(n) => vec![n],
        None if quick => vec![1, 2],
        None => vec![1, 2, 4, 8],
    };
    let pools: Vec<(usize, rayon::ThreadPool)> = thread_counts
        .iter()
        .map(|&n| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool construction cannot fail");
            (n, pool)
        })
        .collect();
    eprintln!(
        "perf_report ({mode} mode, {repeats} timed run(s) per workload, pool sizes {thread_counts:?})"
    );

    let mut measurements = Vec::new();

    // Workload 1: the batch construction sweep.
    {
        let (side, checkpoints) = if quick {
            (30u32, vec![20usize, 40, 60])
        } else {
            (100u32, (1..=8).map(|i| i * 100).collect())
        };
        let mesh = Mesh2D::square(side);
        let max = *checkpoints.last().expect("checkpoints are non-empty");
        let seq = sequence(mesh, max, 2004);
        measurements.push(time_workload(
            if quick {
                "batch_sweep_2d_quick"
            } else {
                "batch_sweep_2d_100x800"
            },
            format!("CMFP batch reconstruction at checkpoints {checkpoints:?} on a {side}x{side} mesh (clustered, seed 2004)"),
            repeats.max(3),
            &pools,
            show_metrics,
            || batch_sweep(&mesh, &seq, &checkpoints),
        ));
    }

    // Workload 2: the incremental maintenance stream.
    {
        let (side, faults) = if quick {
            (96u32, 1_500usize)
        } else {
            (512u32, 20_000usize)
        };
        let mesh = Mesh2D::square(side);
        let seq = sequence(mesh, faults, 2004);
        measurements.push(time_workload(
            if quick {
                "incremental_stream_quick"
            } else {
                "incremental_stream_512x20k"
            },
            format!(
                "IncrementalEngine absorbing {faults} clustered injections on a {side}x{side} mesh"
            ),
            repeats,
            &pools,
            show_metrics,
            || incremental_stream(&mesh, &seq),
        ));
    }

    // Workload 3: the 2-D paper-figures sweep through the one generic runner.
    {
        let config = if quick {
            SweepConfig::quick()
        } else {
            SweepConfig {
                mesh_size: 100,
                fault_counts: (1..=8).map(|i| i * 100).collect(),
                trials: 1,
                base_seed: 2004,
            }
        };
        let registry = mocp_core::standard_registry();
        measurements.push(time_workload(
            if quick {
                "paper_figures_2d_quick"
            } else {
                "paper_figures_2d"
            },
            format!(
                "run_scenario FB/FP/CMFP/DMFP, {}x{} mesh, counts {:?}, both distributions",
                config.mesh_size, config.mesh_size, config.fault_counts
            ),
            repeats,
            &pools,
            show_metrics,
            || {
                FaultDistribution::ALL.map(|dist| {
                    run_scenario(&registry, &Scenario::paper_figures(&config, dist))
                        .expect("paper models resolve")
                })
            },
        ));
    }

    // Workload 4: the 3-D analogue sweep.
    {
        let registry = mocp_3d::standard_registry_3d();
        let scenario_for = if quick {
            Scenario::quick_3d
        } else {
            Scenario::paper_figures_3d
        };
        let detail = if quick {
            "run_scenario FB3D/MFP3D on a 12^3 mesh, both distributions"
        } else {
            "run_scenario FB3D/MFP3D on a 32^3 mesh, counts 100..800, 3 trials, both distributions"
        };
        measurements.push(time_workload(
            if quick {
                "paper_figures_3d_quick"
            } else {
                "paper_figures_3d"
            },
            detail.to_string(),
            repeats,
            &pools,
            show_metrics,
            || {
                FaultDistribution::ALL.map(|dist| {
                    run_scenario(&registry, &scenario_for(dist)).expect("3-D models resolve")
                })
            },
        ));
    }

    // Workload 5: the multi-tenant service ingesting the deterministic
    // N x M x K workload. The service owns its worker threads (no rayon),
    // so only the first pool entry is used — the timing is identical at
    // any pool size and repeating it would just burn CI minutes.
    {
        let (cfg, serve) = if quick {
            (
                experiments::ServeWorkloadConfig::quick(),
                mocp_serve::ServeConfig::default().with_workers(2),
            )
        } else {
            (
                experiments::ServeWorkloadConfig::default(),
                mocp_serve::ServeConfig::default().with_workers(4),
            )
        };
        let best_eps = std::sync::atomic::AtomicU64::new(0);
        let mut measurement = time_workload(
            if quick {
                "serve_ingest_quick"
            } else {
                "serve_ingest_1k_tenants"
            },
            format!(
                "MonitorService: {} tenants x {} events (batch {}) x {} queries on {}x{} meshes, \
                 {} ingest threads -> {} workers, seed {:#x}",
                cfg.tenants,
                cfg.events_per_tenant,
                cfg.batch_size,
                cfg.queries_per_tenant,
                cfg.mesh_size,
                cfg.mesh_size,
                cfg.ingest_threads,
                serve.workers,
                cfg.seed
            ),
            repeats,
            &pools[..1],
            show_metrics,
            || {
                let start = Instant::now();
                let outcome = experiments::run_serve_workload(&cfg, serve);
                let eps = outcome.events_submitted as f64 / start.elapsed().as_secs_f64().max(1e-9);
                best_eps.fetch_max(eps as u64, std::sync::atomic::Ordering::Relaxed);
                mocp_obs::gauge!("serve.ingest.events_per_sec").set(eps as i64);
                outcome.events_submitted
            },
        );
        let _ = write!(
            measurement.detail,
            "; sustained {} events/s (best run)",
            best_eps.load(std::sync::atomic::Ordering::Relaxed)
        );
        measurements.push(measurement);
    }

    // Workload 6: the heavy-traffic simulator over live regions. The
    // (model x pattern) cells are independent rayon tasks, so the sweep
    // scales with the measured pool; the cell size is kept below the
    // acceptance run (1M messages) so the full report stays minutes, not
    // hours.
    {
        let scenario = if quick {
            TrafficScenario {
                trials: 1,
                ..TrafficScenario::quick()
            }
        } else {
            TrafficScenario {
                messages: 40_000,
                reachable_sample: 500,
                ..TrafficScenario::full()
            }
        };
        let registry = mocp_core::standard_registry();
        measurements.push(time_workload(
            if quick {
                "traffic_quick"
            } else {
                "traffic_512sq"
            },
            format!(
                "run_traffic FB/CMFP x uniform/transpose/hotspot: {} msgs per cell on a \
                 {}x{} mesh with {} {} faults (rate {}/cycle, seed {:#x})",
                scenario.messages,
                scenario.mesh_size,
                scenario.mesh_size,
                scenario.faults,
                scenario.distribution.label(),
                scenario.injection_rate,
                scenario.base_seed
            ),
            repeats,
            &pools,
            show_metrics,
            || {
                run_traffic(&registry, &scenario)
                    .expect("traffic models and patterns resolve")
                    .cells
                    .len()
            },
        ));
    }

    // Workload 7: the chaos harness — ingestion through seeded worker
    // kills, recovery and subscriber gap recovery, verified against
    // sequential replay. The service owns its threads (first pool entry
    // only), and every run must converge or the report aborts.
    {
        mocp_serve::chaos::install_quiet_panic_hook();
        let (cfg, serve) = if quick {
            (
                experiments::ChaosWorkloadConfig::quick(),
                mocp_serve::ServeConfig::default().with_workers(2),
            )
        } else {
            (
                experiments::ChaosWorkloadConfig::default(),
                mocp_serve::ServeConfig::default().with_workers(4),
            )
        };
        let plan = cfg.plan();
        measurements.push(time_workload(
            if quick {
                "serve_chaos_quick"
            } else {
                "serve_chaos_recovery"
            },
            format!(
                "chaos harness: {} tenants x {} events through {} scheduled worker kills, \
                 {} lossy subscribers (capacity {}), verified against sequential replay \
                 [{} ingest threads -> {} workers, seed {:#x}]",
                cfg.workload.tenants,
                cfg.workload.events_per_tenant,
                plan.kills.len(),
                cfg.subscribers,
                cfg.subscriber_capacity,
                cfg.workload.ingest_threads,
                serve.workers,
                cfg.workload.seed
            ),
            repeats,
            &pools[..1],
            show_metrics,
            || {
                let outcome = experiments::run_chaos_workload(&cfg, serve);
                assert!(outcome.converged(), "chaos run diverged: {outcome:?}");
                // Events of the batches killed workers held, re-applied
                // by recovery: work done twice, so counted as ops.
                mocp_obs::gauge!("serve.chaos.replayed_events").set(outcome.replayed_events as i64);
                outcome.events_submitted + outcome.replayed_events
            },
        ));
    }

    if let Some(path) = &trace_path {
        let events = mocp_obs::trace::write_chrome_trace(path)
            .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
        eprintln!("wrote {path} ({events} trace events)");
    }

    let report = render_report(mode, &thread_counts, &measurements, baseline.as_deref());
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
    }
    std::fs::write(&out_path, &report).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
    print!("{report}");
}
