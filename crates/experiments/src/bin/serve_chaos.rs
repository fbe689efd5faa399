//! Drives the seeded chaos harness over the fault-tolerant service.
//!
//! ```text
//! cargo run --release -p experiments --bin serve_chaos
//! cargo run --release -p experiments --bin serve_chaos -- --quick --verify
//! cargo run --release -p experiments --bin serve_chaos -- \
//!     --tenants 96 --events 64 --kills 4 --subscribers 8 --workers 4 --seed 7
//! cargo run --release -p experiments --bin serve_chaos -- --metrics  # with --features obs
//! ```
//!
//! Every run ingests the seeded tenant streams while the derived fault
//! plan kills workers (cleanly and mid-apply) underneath, with lossy
//! live-reroute subscribers attached. `--verify` (implied by the harness,
//! the flag exists for CI symmetry with `serve_workload`) exits non-zero
//! unless every tenant converged back to the sequential-replay oracle and
//! every subscriber's route index matches from-scratch routing.

use std::time::Instant;

use experiments::{run_chaos_workload, ChaosWorkloadConfig};
use mocp_serve::chaos::install_quiet_panic_hook;
use mocp_serve::ServeConfig;

fn usage() -> ! {
    eprintln!(
        "usage: serve_chaos [--quick] [--verify] [--tenants N] [--events M] [--kills K] \
         [--mid-fraction F] [--subscribers S] [--capacity C] [--pairs P] [--batch B] \
         [--mesh SIDE] [--seed S] [--ingest-threads N] [--workers N] [--metrics]\n\
         Runs the seeded workload against a service armed with a derived fault\n\
         plan: workers are killed at reproducible points, queued batches wait\n\
         for the replacement worker, the batch a dead worker held is re-applied,\n\
         and gap-recovering subscribers resync through drops.\n\
         The run exits non-zero on any divergence from the sequential oracle.\n\
         --quick shrinks everything to CI size; --metrics dumps the mocp_obs\n\
         registry (build with --features obs)."
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn main() {
    install_quiet_panic_hook();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = if raw.iter().any(|a| a == "--quick") {
        ChaosWorkloadConfig::quick()
    } else {
        ChaosWorkloadConfig::default()
    };
    let mut workers: Option<usize> = None;
    let mut show_metrics = false;

    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {}
            // The harness always verifies; accepted for CLI symmetry.
            "--verify" => cfg.workload.verify = true,
            "--tenants" => cfg.workload.tenants = parse(args.next()),
            "--events" => cfg.workload.events_per_tenant = parse(args.next()),
            "--kills" => cfg.kills = parse(args.next()),
            "--mid-fraction" => cfg.mid_fraction = parse(args.next()),
            "--subscribers" => cfg.subscribers = parse(args.next()),
            "--capacity" => cfg.subscriber_capacity = parse(args.next()),
            "--pairs" => cfg.route_pairs = parse(args.next()),
            "--batch" => cfg.workload.batch_size = parse(args.next()),
            "--mesh" => cfg.workload.mesh_size = parse(args.next()),
            "--seed" => cfg.workload.seed = parse(args.next()),
            "--ingest-threads" => cfg.workload.ingest_threads = parse(args.next()),
            "--workers" => workers = Some(parse(args.next())),
            "--metrics" => show_metrics = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if show_metrics && !mocp_obs::enabled() {
        eprintln!(
            "note: built without the `obs` feature; --metrics emits empty output \
             (rebuild with `--features obs`)"
        );
    }

    let mut serve = ServeConfig::default();
    if let Some(w) = workers {
        serve = serve.with_workers(w);
    }

    let plan = cfg.plan();
    println!(
        "serve_chaos: {} tenants x {} events (batch {}), {} kills planned, \
         {} subscribers (capacity {}, {} pairs) [{} ingest threads -> {} workers, seed {:#x}]",
        cfg.workload.tenants,
        cfg.workload.events_per_tenant,
        cfg.workload.batch_size,
        plan.kills.len(),
        cfg.subscribers,
        cfg.subscriber_capacity,
        cfg.route_pairs,
        cfg.workload.ingest_threads,
        serve.workers,
        cfg.workload.seed,
    );
    let start = Instant::now();
    let outcome = run_chaos_workload(&cfg, serve);
    let elapsed = start.elapsed();

    println!(
        "applied {} events across {} tenants in {:.3}s through {} worker kills \
         ({} restarts, {} held events re-applied)",
        outcome.events_submitted,
        outcome.tenants,
        elapsed.as_secs_f64(),
        outcome.kills_fired,
        outcome.restarts,
        outcome.replayed_events,
    );
    println!(
        "subscribers: {} gaps detected, {} snapshot resyncs; service counters: \
         batches={} events={} updates_sent={} updates_dropped={}",
        outcome.subscriber_gaps,
        outcome.subscriber_resyncs,
        outcome.stats.batches,
        outcome.stats.events,
        outcome.stats.updates_sent,
        outcome.stats.updates_dropped,
    );
    if outcome.converged() {
        println!(
            "verify: all {} tenants match sequential replay, all subscribers match \
             from-scratch routing",
            outcome.tenants
        );
    } else {
        eprintln!(
            "verify FAILED: {} unhealthy tenants, {} tenants diverged from replay, \
             {} subscribers diverged from the routing oracle",
            outcome.unhealthy_tenants, outcome.mismatched_tenants, outcome.mismatched_subscribers
        );
        std::process::exit(1);
    }
    if show_metrics {
        eprintln!("metrics:");
        eprint!("{}", mocp_obs::render_table(&mocp_obs::snapshot()));
    }
}
