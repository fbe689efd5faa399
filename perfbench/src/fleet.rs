//! `fleet`: the multi-tenant monitoring service under load.
//!
//! `MonitorService` serves the `serve_workload` tenant streams: 1000
//! tenants on 16² meshes, clustered faults, 30% repair churn, batches of
//! 8 events, every tenant with an unbounded subscription. One generator
//! thread drives `nproc - 1` service workers.
//!
//! * Phase A is an **open loop**: batches are due at a fixed
//!   [`OPEN_LOOP_EVENTS_PER_S`] (round-robin over tenants) whatever the
//!   service does. Each is sent with `try_submit`, retried until accepted
//!   (a skipped batch would leave the tenant's later repairs invalid), and
//!   timed from its due time to the arrival of a subscription update whose
//!   `seq` covers it. One point query (`node_status`, `region_of`,
//!   `counts` in rotation) follows every batch, on another tenant, so
//!   queries and ingest contend for the shard locks. Subscriptions are
//!   drained from the generator thread.
//! * Phase B is a **closed loop**: the same batches sent back to back with
//!   the blocking `submit`, then `quiesce`; events applied per second is
//!   the service's capacity.
//!
//! Every repetition starts a fresh service and, once quiesced, checks
//! every tenant's counts and polygons against `replay_tenant`.

use crate::openloop::{Lateness, Schedule, Visibility};
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};
use crate::{timed_setup, Ctx};
use crossbeam::channel::Receiver;
use experiments::{replay_tenant, tenant_events, tenant_queries, ServeWorkloadConfig};
use mesh2d::{Coord, FaultEvent, Mesh2D, Region};
use mocp_incremental::IncrementalEngine;
use mocp_serve::{MonitorService, ServeConfig, SubmitError, TenantId, TenantUpdate};
use std::time::Instant;

/// The phase-A offered load. A quarter to a third of the closed-loop
/// capacity of one service worker on a shared 2-core host (450k to 650k
/// events/s as the host's speed drifts), so the service is loaded but not
/// saturated, and a worker queue (1024 batches) absorbs a 50 ms stall.
pub const OPEN_LOOP_EVENTS_PER_S: f64 = 150_000.0;

/// Share of the window given to phase A (the rest is phase B). The phases
/// alternate so that both span the window.
const PHASE_A_SHARE: f64 = 0.6;

fn config(seed: u64) -> ServeWorkloadConfig {
    ServeWorkloadConfig {
        seed,
        ..ServeWorkloadConfig::default()
    }
}

/// The generated inputs: each tenant's batches and query points, in
/// submission order.
struct Inputs {
    cfg: ServeWorkloadConfig,
    /// (tenant, batch) in round-robin submission order, with the batch's
    /// 1-based sequence number within its tenant.
    order: Vec<(usize, u64)>,
    batches: Vec<Vec<Vec<FaultEvent>>>,
    queries: Vec<Vec<Coord>>,
    events: u64,
}

fn generate(seed: u64) -> Inputs {
    let cfg = config(seed);
    let batches: Vec<Vec<Vec<FaultEvent>>> = (0..cfg.tenants)
        .map(|t| {
            tenant_events(&cfg, t as TenantId)
                .chunks(cfg.batch_size)
                .map(<[FaultEvent]>::to_vec)
                .collect()
        })
        .collect();
    let queries = (0..cfg.tenants)
        .map(|t| tenant_queries(&cfg, t as TenantId))
        .collect();
    let rounds = batches.iter().map(Vec::len).max().unwrap_or(0);
    let mut order = Vec::new();
    for b in 0..rounds {
        for (t, tb) in batches.iter().enumerate() {
            if b < tb.len() {
                order.push((t, b as u64 + 1));
            }
        }
    }
    let events = batches.iter().flatten().map(|b| b.len() as u64).sum();
    Inputs {
        cfg,
        order,
        batches,
        queries,
        events,
    }
}

/// What a correct service holds per tenant after the whole stream.
struct Expected {
    faulty: usize,
    disabled: usize,
    components: usize,
    polygons: Vec<Region>,
}

fn expected(cfg: &ServeWorkloadConfig) -> Vec<Expected> {
    (0..cfg.tenants)
        .map(|t| {
            let e = replay_tenant(cfg, t as TenantId);
            Expected {
                faulty: e.faulty_count(),
                disabled: e.disabled_nonfaulty(),
                components: e.component_count(),
                polygons: e.polygons(),
            }
        })
        .collect()
}

/// A started service with every tenant created and subscribed.
fn start(inputs: &Inputs, workers: usize) -> (MonitorService, Vec<Receiver<TenantUpdate>>) {
    let service = MonitorService::start(ServeConfig::default().with_workers(workers));
    let mesh = Mesh2D::square(inputs.cfg.mesh_size);
    let subs = (0..inputs.cfg.tenants)
        .map(|t| {
            service.create_tenant(t as TenantId, mesh);
            service
                .subscribe(t as TenantId, None)
                .expect("tenant was just created")
        })
        .collect();
    (service, subs)
}

/// After quiesce: every tenant equals its sequential replay.
fn verify(service: &MonitorService, expect: &[Expected], report: &mut Report) {
    for (t, e) in expect.iter().enumerate() {
        let tenant = t as TenantId;
        let ok = service.counts(tenant).is_some_and(|c| {
            c.faulty == e.faulty
                && c.disabled_nonfaulty == e.disabled
                && c.components == e.components
        }) && service.polygons(tenant).as_ref() == Some(&e.polygons);
        report.checked_op(ok, || format!("tenant {t} diverged from replay_tenant"));
    }
}

/// Per-query-kind latencies, ns.
#[derive(Default)]
struct Queries {
    node_status: Vec<f64>,
    region_of: Vec<f64>,
    counts: Vec<f64>,
    unanswered: u64,
}

impl Queries {
    fn all(&self) -> Vec<f64> {
        [&self.node_status, &self.region_of, &self.counts]
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }
}

/// What one open-loop repetition measured.
#[derive(Default)]
struct OpenLoop {
    visible_us: Vec<f64>,
    unresolved: usize,
    silent: u64,
    late: Lateness,
    submit_ns: Vec<f64>,
    refused: u64,
    queries: Queries,
    drain_ms: f64,
    batches: u64,
    updates_sent: u64,
}

/// Drains every subscription with pending batches, stamping arrivals.
fn drain(
    subs: &[Receiver<TenantUpdate>],
    vis: &mut Visibility,
    active: &mut Vec<usize>,
    t0: Instant,
) {
    active.clear();
    active.extend_from_slice(vis.active());
    for &t in active.iter() {
        while let Ok(u) = subs[t].try_recv() {
            vis.update(t, u.seq, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// One open-loop repetition on a fresh service; spans go to `tracer`.
fn open_loop(
    inputs: &Inputs,
    workers: usize,
    tracer: &mut Tracer,
    expect: &[Expected],
    report: &mut Report,
) -> OpenLoop {
    let (service, subs) = start(inputs, workers);
    let tenants = inputs.cfg.tenants;
    let schedule = Schedule::per_second(OPEN_LOOP_EVENTS_PER_S / inputs.cfg.batch_size as f64);
    let mut vis = Visibility::new(tenants);
    let mut out = OpenLoop::default();
    let mut active = Vec::new();
    let mut next_query = vec![0usize; tenants];
    let t0 = Instant::now();
    for (k, &(t, seq)) in inputs.order.iter().enumerate() {
        let due = schedule.due_ns(k as u64);
        while (t0.elapsed().as_nanos() as u64) < due {
            drain(&subs, &mut vis, &mut active, t0);
            std::hint::spin_loop();
        }
        let request = k as u64;
        tracer.begin("fleet.batch", request);
        out.late.record(due, t0.elapsed().as_nanos() as u64);
        let batch = &inputs.batches[t][seq as usize - 1];
        loop {
            let start = Instant::now();
            let r = tracer.span("serve.try_submit", request, || {
                service.try_submit(t as TenantId, batch.clone())
            });
            out.submit_ns.push(start.elapsed().as_nanos() as f64);
            match r {
                Ok(()) => break,
                Err(SubmitError::Backpressure(_)) => {
                    out.refused += 1;
                    tracer.span("fleet.drain", request, || {
                        drain(&subs, &mut vis, &mut active, t0)
                    });
                }
                Err(e) => panic!("service refused a batch for good: {e}"),
            }
        }
        vis.submitted(t, seq, due);
        // One point query on another tenant, rotating the three kinds.
        let qt = (k * 7 + tenants / 2) % tenants;
        let points = &inputs.queries[qt];
        let c = points[next_query[qt] % points.len()];
        next_query[qt] += 1;
        let tenant = qt as TenantId;
        let start = Instant::now();
        let answered = match k % 3 {
            0 => tracer.span("serve.node_status", request, || {
                service.node_status(tenant, c).is_some()
            }),
            // `None` is a valid answer for an enabled node.
            1 => tracer.span("serve.region_of", request, || {
                std::hint::black_box(service.region_of(tenant, c));
                true
            }),
            _ => tracer.span("serve.counts", request, || service.counts(tenant).is_some()),
        };
        let ns = start.elapsed().as_nanos() as f64;
        match k % 3 {
            0 => out.queries.node_status.push(ns),
            1 => out.queries.region_of.push(ns),
            _ => out.queries.counts.push(ns),
        }
        out.queries.unanswered += u64::from(!answered);
        tracer.span("fleet.drain", request, || {
            drain(&subs, &mut vis, &mut active, t0)
        });
        tracer.end();
    }
    let last_submit = Instant::now();
    tracer.span("serve.quiesce", u64::MAX, || service.quiesce());
    out.drain_ms = last_submit.elapsed().as_secs_f64() * 1e3;
    drain(&subs, &mut vis, &mut active, t0);
    out.visible_us = std::mem::take(&mut vis.latencies_us);
    out.unresolved = vis.unresolved();
    out.silent = vis.silent;
    let stats = service.stats();
    out.batches = stats.batches;
    out.updates_sent = stats.updates_sent;
    verify(&service, expect, report);
    service.shutdown();
    // Every batch and query is an operation; unanswered queries failed. A
    // refused submit is retried until the batch is accepted, so it delays
    // the batch (and shows in its visibility) without failing it; refusals
    // are counted in `fleet_refused` and `serve.refused`.
    report.attempted += inputs.order.len() as u64 + out.queries.all().len() as u64;
    report.failed += out.queries.unanswered;
    out
}

/// One closed-loop repetition; returns events applied per second.
fn closed_loop(inputs: &Inputs, workers: usize, expect: &[Expected], report: &mut Report) -> f64 {
    let (service, subs) = start(inputs, workers);
    let start = Instant::now();
    for &(t, seq) in &inputs.order {
        service
            .submit(t as TenantId, inputs.batches[t][seq as usize - 1].clone())
            .expect("tenants exist and the service runs");
    }
    service.quiesce();
    let eps = inputs.events as f64 / start.elapsed().as_secs_f64();
    drop(subs);
    verify(&service, expect, report);
    service.shutdown();
    report.attempted += inputs.order.len() as u64;
    eps
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let workers = ctx.nproc.saturating_sub(1).max(1);
    let (inputs, setup_s, setup_reps) = timed_setup(|| generate(ctx.seed));
    let expect = expected(&inputs.cfg);
    report.notes.push(format!(
        "{} tenants x {} events ({} batches of {}), {}^2 meshes, seed {}; 1 generator -> {workers} worker(s); \
         phase A open loop at {} events/s",
        inputs.cfg.tenants,
        inputs.cfg.events_per_tenant,
        inputs.order.len(),
        inputs.cfg.batch_size,
        inputs.cfg.mesh_size,
        ctx.seed,
        OPEN_LOOP_EVENTS_PER_S
    ));
    let mut off = Tracer::new(false);
    // Warm-up: one repetition of each phase (checked, not timed).
    let mut warm = Report::default();
    open_loop(&inputs, workers, &mut off, &expect, &mut warm);
    closed_loop(&inputs, workers, &expect, &mut warm);
    report.check(warm.wrong == 0, || {
        "warm-up repetition diverged from replay".into()
    });
    // Every repetition restarts the service, and the allocator keeps some of
    // each one's memory, so the high-water mark would grow with the number
    // of repetitions that fit the window. The footprint of serving the
    // stream once per phase is the mark after the warm-up.
    report.peak_rss_kb = Some(crate::proc_status_kb("VmHWM:"));

    if ctx.traced {
        traced(ctx, &inputs, workers, &expect, &mut report);
        return report;
    }

    let start = Instant::now();
    let mut reps: Vec<OpenLoop> = Vec::new();
    let mut eps = Vec::new();
    let mut open_s = 0.0;
    while start.elapsed() < ctx.window() || reps.is_empty() || eps.len() < 3 {
        if open_s < PHASE_A_SHARE * start.elapsed().as_secs_f64() || reps.is_empty() {
            let rep_start = Instant::now();
            reps.push(open_loop(&inputs, workers, &mut off, &expect, &mut report));
            open_s += rep_start.elapsed().as_secs_f64();
        } else {
            eps.push(closed_loop(&inputs, workers, &expect, &mut report));
        }
    }
    let visible: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.visible_us.iter().copied())
        .collect();
    let queries: Vec<f64> = reps.iter().flat_map(|r| r.queries.all()).collect();
    let late: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.late.samples_us.iter().copied())
        .collect();
    let vis = Summary::of(&visible);
    let q = Summary::of(&queries);
    let capacity = stats::median(&eps);
    report.named("fleet_capacity_eps", capacity, "1/s", eps.len());
    report.named_summary("fleet_visible", &vis, "us");
    report.named_summary("fleet_query", &q, "ns");
    report.named_summary("fleet_gen_late", &Summary::of(&late), "us");
    report.named(
        "fleet_unresolved_batches",
        reps.iter().map(|r| r.unresolved).sum::<usize>() as f64,
        "count",
        reps.len(),
    );
    report.named(
        "fleet_silent_batches",
        reps.iter().map(|r| r.silent).sum::<u64>() as f64,
        "count",
        reps.len(),
    );
    report.named(
        "fleet_refused",
        reps.iter().map(|r| r.refused).sum::<u64>() as f64,
        "count",
        reps.len(),
    );
    let p50s: Vec<f64> = reps.iter().map(|r| stats::median(&r.visible_us)).collect();
    report.e2e("setup_s", setup_s, "s", setup_reps);
    report.e2e(
        "run_ms",
        inputs.events as f64 / capacity * 1e3,
        "ms",
        eps.len(),
    );
    report.e2e("op_us", stats::median(&p50s), "us", reps.len());
    report
}

/// The traced run: the engine alone on the fleet's own streams (tracing
/// off, then on), one closed-loop repetition for the capacity, and one
/// traced open-loop repetition for the service path.
fn traced(ctx: &Ctx, inputs: &Inputs, workers: usize, expect: &[Expected], report: &mut Report) {
    let (mut tracer, (inject_ns, repair_ns, status_ns, region_ns), traced_ms, untraced_ms) =
        crate::traced_passes(3, |tracer| replay(inputs, tracer));
    let engine_ns_per_event = stats::mean(&[inject_ns.clone(), repair_ns.clone()].concat());
    report.layer(
        "engine.inject_ns",
        stats::median(&inject_ns),
        "ns",
        inject_ns.len(),
    );
    report.layer(
        "engine.repair_ns",
        stats::median(&repair_ns),
        "ns",
        repair_ns.len(),
    );
    report.layer(
        "engine.node_status_ns",
        stats::median(&status_ns),
        "ns",
        status_ns.len(),
    );
    report.layer(
        "engine.region_of_ns",
        stats::median(&region_ns),
        "ns",
        region_ns.len(),
    );

    let capacity = closed_loop(inputs, workers, expect, report);
    let ol = open_loop(inputs, workers, &mut tracer, expect, report);
    let submit = Summary::of(&ol.submit_ns);
    report.layer("serve.submit_p50_ns", submit.p50, "ns", submit.n);
    report.layer("serve.submit_p99_ns", submit.tail, "ns", submit.n);
    report.layer("serve.refused", ol.refused as f64, "count", 1);
    report.layer(
        "serve.node_status_ns",
        stats::median(&ol.queries.node_status),
        "ns",
        ol.queries.node_status.len(),
    );
    report.layer(
        "serve.region_of_ns",
        stats::median(&ol.queries.region_of),
        "ns",
        ol.queries.region_of.len(),
    );
    report.layer(
        "serve.counts_ns",
        stats::median(&ol.queries.counts),
        "ns",
        ol.queries.counts.len(),
    );
    let per_worker_ns = 1e9 / (capacity / workers as f64);
    report.layer(
        "serve.overhead_ns_per_event",
        per_worker_ns - engine_ns_per_event,
        "ns",
        1,
    );
    report.layer("serve.drain_ms", ol.drain_ms, "ms", 1);
    let late = Summary::of(&ol.late.samples_us);
    report.layer("serve.gen_late_us", late.tail, "us", late.n);
    report.layer("serve.batches", ol.batches as f64, "count", 1);
    report.layer("serve.updates_sent", ol.updates_sent as f64, "count", 1);
    report.named("fleet_capacity_eps", capacity, "1/s", 1);
    report.named_summary("fleet_visible", &Summary::of(&ol.visible_us), "us");
    let spans = tracer.spans();
    let by_name = trace::self_time_by_name(spans);
    for (name, (n, ns)) in &by_name {
        report.notes.push(format!(
            "span {name}: {n} x, self {:.3} ms",
            *ns as f64 / 1e6
        ));
    }
    crate::trace_summary(ctx, "fleet", &tracer, traced_ms, untraced_ms, report);
}

/// The engine alone: every tenant's stream through a fresh
/// `IncrementalEngine`, then its query points. Returns per-call ns for
/// injects, repairs, `node_status` and `region_of`.
#[allow(clippy::type_complexity)]
fn replay(inputs: &Inputs, tracer: &mut Tracer) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mesh = Mesh2D::square(inputs.cfg.mesh_size);
    let (mut inject, mut repair, mut status, mut region) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (t, batches) in inputs.batches.iter().enumerate() {
        let request = t as u64;
        tracer.begin("fleet.tenant_replay", request);
        let mut engine = IncrementalEngine::new(mesh);
        for &event in batches.iter().flatten() {
            let (name, into) = match event {
                FaultEvent::Inject(_) => ("engine.inject", &mut inject),
                FaultEvent::Repair(_) => ("engine.repair", &mut repair),
            };
            let start = Instant::now();
            std::hint::black_box(tracer.span(name, request, || engine.apply(event)));
            into.push(start.elapsed().as_nanos() as f64);
        }
        for &c in &inputs.queries[t] {
            let start = Instant::now();
            std::hint::black_box(
                tracer.span("engine.node_status", request, || engine.node_status(c)),
            );
            status.push(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            std::hint::black_box(tracer.span("engine.region_of", request, || engine.region_of(c)));
            region.push(start.elapsed().as_nanos() as f64);
        }
        tracer.end();
    }
    (inject, repair, status, region)
}
