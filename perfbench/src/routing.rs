//! `routing`: extended e-cube routing over FB and CMFP status maps.
//!
//! The sample always contains the anchor instance of the routing
//! integration test (30² mesh, 90 clustered faults, fault seed 3, every
//! 17th node as source and destination) and adds one 30²/90-clustered
//! instance drawn from `--seed` with a seeded random pair sample. Every
//! pair is routed with `ExtendedECube::route_traced`; `meshroute`'s detour
//! does all the work. A route that comes back `Unreachable` although the
//! benchmark's own BFS finds the pair connected is counted
//! (`meshroute.false_unreachable`, 73 on the anchor's CMFP map and 0 on its
//! FB map today) but is not a failed operation: it is the router's known
//! limit, not a wrong output, and it is timed like every other route.

use crate::calib::{Kernel, Yardstick};
use crate::oracle::{self, Components};
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};
use crate::{cpu_ms, timed_setup, Ctx};
use faultgen::{generate_faults, FaultDistribution};
use mesh2d::{Coord, Mesh2D, StatusMap};
use meshroute::{
    ChannelDependencyGraph, ExtendedECube, PairSample, RegionMap, RouteError, TracedRoute,
};
use std::time::Instant;

const SIDE: u32 = 30;
const FAULTS: usize = 90;
const ANCHOR_FAULT_SEED: u64 = 3;
const ANCHOR_STRIDE: usize = 17;
/// Pairs of the seeded instance's random sample.
const SEEDED_PAIRS: usize = 100;
const MODELS: [&str; 2] = ["FB", "CMFP"];

/// One status map to route over, with its pairs.
struct Network {
    label: String,
    model: &'static str,
    anchor: bool,
    mesh: Mesh2D,
    status: StatusMap,
    pairs: Vec<(Coord, Coord)>,
}

fn build(ctx: &Ctx) -> Vec<Network> {
    let registry = mocp_core::standard_registry();
    let mesh = Mesh2D::square(SIDE);
    let instances = [
        (
            true,
            ANCHOR_FAULT_SEED,
            PairSample::strided(&mesh, ANCHOR_STRIDE),
        ),
        (
            false,
            ctx.seed,
            PairSample::random(&mesh, SEEDED_PAIRS, ctx.seed ^ 0x5A5A_0F0F),
        ),
    ];
    let mut nets = Vec::new();
    for (anchor, fault_seed, sample) in instances {
        let faults = generate_faults(mesh, FAULTS, FaultDistribution::Clustered, fault_seed);
        for model in MODELS {
            let outcome = registry
                .build(model)
                .expect("paper models resolve")
                .construct(&mesh, &faults);
            // Pairs with an endpoint the model disabled are rejected
            // before any routing work; they are left out of the sample.
            let enabled = |c: Coord| !outcome.status.status(c).is_excluded();
            let pairs = sample
                .iter()
                .filter(|&(s, d)| enabled(s) && enabled(d))
                .collect();
            nets.push(Network {
                label: format!("{model}@{SIDE}^2/{FAULTS}/seed{fault_seed}"),
                model,
                anchor,
                mesh,
                status: outcome.status,
                pairs,
            });
        }
    }
    nets
}

/// One routed pair: its result and wall time.
struct Routed {
    result: Result<TracedRoute, RouteError>,
    ns: u64,
}

/// Routes every pair of every network once (deriving each network's
/// region map first), optionally inside spans.
fn route_all(nets: &[Network], tracer: &mut Tracer) -> Vec<Vec<Routed>> {
    nets.iter()
        .enumerate()
        .map(|(ni, net)| {
            let regions = tracer.span("meshroute.regionmap", ni as u64, || {
                RegionMap::from_status(&net.mesh, &net.status)
            });
            let router = ExtendedECube::with_regions(&net.mesh, &net.status, &regions);
            net.pairs
                .iter()
                .enumerate()
                .map(|(pi, &(s, d))| {
                    let start = Instant::now();
                    let result =
                        tracer.span("meshroute.route", (ni as u64) << 32 | pi as u64, || {
                            router.route_traced(s, d)
                        });
                    Routed {
                        result,
                        ns: start.elapsed().as_nanos() as u64,
                    }
                })
                .collect()
        })
        .collect()
}

/// Routes again, once, every pair that `first` delivered. Returns the
/// number of routes made.
fn reroute_delivered(nets: &[Network], regions: &[RegionMap], first: &[Vec<Routed>]) -> u64 {
    let mut routed = 0;
    for ((net, regions), results) in nets.iter().zip(regions).zip(first) {
        let router = ExtendedECube::with_regions(&net.mesh, &net.status, regions);
        for (&(s, d), r) in net.pairs.iter().zip(results) {
            if r.result.is_ok() {
                std::hint::black_box(router.route_traced(s, d).ok());
                routed += 1;
            }
        }
    }
    routed
}

/// Checks one pass's results and tallies the per-layer counts.
#[derive(Default)]
struct Tally {
    routed: u64,
    delivered: u64,
    unreachable: u64,
    false_unreachable: u64,
    fallback: u64,
    detours: u64,
    abnormal_hops: u64,
    hops: u64,
    acyclic_maps: u64,
    anchor_false: Vec<(&'static str, u64)>,
}

fn check(nets: &[Network], pass: &[Vec<Routed>], report: &mut Report) -> Tally {
    let mut t = Tally::default();
    for (net, results) in nets.iter().zip(pass) {
        let comps = Components::of(&net.mesh, &net.status);
        let mut cdg = ChannelDependencyGraph::new();
        let mut false_here = 0;
        for (&(s, d), r) in net.pairs.iter().zip(results) {
            t.routed += 1;
            match &r.result {
                Ok(traced) => {
                    t.delivered += 1;
                    t.fallback += u64::from(traced.used_fallback);
                    t.detours += traced.detoured.len() as u64;
                    t.abnormal_hops += traced.path.abnormal_hops as u64;
                    t.hops += traced.path.len() as u64;
                    cdg.add_route(&traced.path);
                    report.checked_op(
                        oracle::valid_walk(&net.status, &traced.path.hops, s, d),
                        || {
                            format!(
                                "{}: route {s:?}->{d:?} is not an enabled 4-connected walk",
                                net.label
                            )
                        },
                    );
                }
                Err(RouteError::Unreachable) => {
                    t.unreachable += 1;
                    false_here += u64::from(comps.connected(s, d));
                    report.op(true);
                }
                Err(_) => {
                    report.checked_op(false, || {
                        format!("{}: {s:?}->{d:?} rejected an enabled endpoint", net.label)
                    });
                }
            }
        }
        t.false_unreachable += false_here;
        t.acyclic_maps += u64::from(cdg.is_acyclic());
        if net.anchor {
            t.anchor_false.push((net.model, false_here));
        }
    }
    t
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (nets, setup_s, setup_reps) = timed_setup(|| build(ctx));
    let pairs: usize = nets.iter().map(|n| n.pairs.len()).sum();
    report.notes.push(format!(
        "networks: {} | pairs per pass: {pairs} (anchor stride {ANCHOR_STRIDE} + {SEEDED_PAIRS} seeded)",
        nets.iter().map(|n| n.label.as_str()).collect::<Vec<_>>().join(", ")
    ));
    // Warm-up: the delivered pairs' code paths and the region lookups.
    {
        let router = ExtendedECube::new(&nets[0].mesh, &nets[0].status);
        for &(s, d) in nets[0].pairs.iter().take(200) {
            std::hint::black_box(router.route_traced(s, d).ok());
        }
    }

    let mut off = Tracer::new(false);
    if ctx.traced {
        let (tracer, pass, traced_ms, untraced_ms) =
            crate::traced_passes(2, |tracer| route_all(&nets, tracer));
        let t = check(&nets, &pass, &mut report);
        layers(&nets, &pass, &t, &tracer, &mut report);
        crate::trace_summary(ctx, "routing", &tracer, traced_ms, untraced_ms, &mut report);
        return report;
    }

    // Whole passes (the workload's unit, about 10 s today) take 80% of the
    // window. Between them the delivered pairs are routed again, a sweep at
    // a time, so that delivered routing is timed across the window too.
    // Yardstick readings follow each sweep, and three follow each pass.
    let regions: Vec<RegionMap> = nets
        .iter()
        .map(|n| RegionMap::from_status(&n.mesh, &n.status))
        .collect();
    let mut yard = Yardstick::new(Kernel::Compute);
    let mut pass_ms = Vec::new();
    let mut route_us = Vec::new();
    let mut delivered_us = Vec::new();
    let mut first: Option<Vec<Vec<Routed>>> = None;
    let mut rerouted = 0;
    let start = Instant::now();
    while start.elapsed() < ctx.window() || pass_ms.is_empty() {
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        match &first {
            Some(first) if pass_ms.iter().sum::<f64>() >= 0.8 * elapsed_ms => {
                let (n, ms) = cpu_ms(|| reroute_delivered(&nets, &regions, first));
                rerouted += n;
                delivered_us.push(ms * 1e3 / n.max(1) as f64);
                yard.read();
            }
            _ => {
                let (pass, ms) = cpu_ms(|| route_all(&nets, &mut off));
                pass_ms.push(ms);
                route_us.extend(pass.iter().flatten().map(|r| r.ns as f64 / 1e3));
                first.get_or_insert(pass);
                for _ in 0..3 {
                    yard.read();
                }
            }
        }
    }
    let first = first.expect("at least one pass");
    let t = check(&nets, &first, &mut report);
    // Every pass routes the same pairs; count each pass's operations, and
    // the delivered pairs routed again.
    let passes = pass_ms.len() as u64;
    report.attempted = report.attempted * passes + rerouted;
    report.failed *= passes;

    let routes = Summary::of(&route_us);
    report.named(
        "routing_sample_ms",
        stats::median(&pass_ms),
        "ms",
        pass_ms.len(),
    );
    report.named_summary("routing_route", &routes, "us");
    for (model, n) in &t.anchor_false {
        report.named(
            &format!("anchor_false_unreachable_{model}"),
            *n as f64,
            "count",
            1,
        );
    }
    report.named(
        "false_unreachable_per_pass",
        t.false_unreachable as f64,
        "count",
        1,
    );
    report.named(
        "routing_delivered_us",
        stats::median(&delivered_us),
        "us",
        delivered_us.len(),
    );
    let (yard_ms, readings) = yard.mean_ms();
    report.named("yardstick_ms", yard_ms, "ms", readings);
    report.e2e("setup_s", setup_s, "s", setup_reps);
    report.e2e(
        "run_ms",
        yard.scale(stats::mean(&pass_ms)),
        "ms",
        pass_ms.len(),
    );
    report.e2e(
        "op_us",
        yard.scale(stats::mean(&delivered_us)),
        "us",
        delivered_us.len(),
    );
    report
}

fn layers(nets: &[Network], pass: &[Vec<Routed>], t: &Tally, tracer: &Tracer, report: &mut Report) {
    let spans = tracer.spans();
    let by_name = trace::self_time_by_name(spans);
    let (maps, map_ns) = by_name
        .get("meshroute.regionmap")
        .copied()
        .unwrap_or((0, 0));
    report.layer(
        "meshroute.regionmap_us",
        map_ns as f64 / 1e3 / maps.max(1) as f64,
        "us",
        maps as usize,
    );
    let self_ns = trace::self_times(spans);
    let route_spans: Vec<u64> = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "meshroute.route")
        .map(|(_, &ns)| ns)
        .collect();
    let results = pass.iter().flatten();
    let mut ok_us = Vec::new();
    let mut fail_ms = Vec::new();
    let mut ok_ns_total = 0u64;
    for (r, &ns) in results.zip(&route_spans) {
        match r.result {
            Ok(_) => {
                ok_us.push(ns as f64 / 1e3);
                ok_ns_total += ns;
            }
            Err(RouteError::Unreachable) => fail_ms.push(ns as f64 / 1e6),
            Err(_) => {}
        }
    }
    let ok = Summary::of(&ok_us);
    report.layer("meshroute.route_ok_p50_us", ok.p50, "us", ok.n);
    report.layer("meshroute.route_ok_p99_us", ok.tail, "us", ok.n);
    report.layer(
        "meshroute.route_fail_ms",
        stats::mean(&fail_ms),
        "ms",
        fail_ms.len(),
    );
    report.layer(
        "meshroute.ns_per_hop",
        ok_ns_total as f64 / t.hops.max(1) as f64,
        "ns",
        t.hops as usize,
    );
    report.layer(
        "meshroute.false_unreachable",
        t.false_unreachable as f64,
        "count",
        1,
    );
    report.layer("meshroute.fallback_routes", t.fallback as f64, "count", 1);
    report.layer("meshroute.detours", t.detours as f64, "count", 1);
    report.layer(
        "meshroute.abnormal_hops",
        t.abnormal_hops as f64,
        "count",
        1,
    );
    report.layer(
        "meshroute.cdg_acyclic",
        t.acyclic_maps as f64,
        "count",
        nets.len(),
    );
    report.named("delivered", t.delivered as f64, "count", 1);
    report.named("unreachable", t.unreachable as f64, "count", 1);
}
