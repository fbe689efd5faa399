//! Fault-tolerant routing around faulty polygons (the paper's Figure 2
//! scenario, plus a comparison of routing quality over FB vs MFP regions).
//!
//! ```text
//! cargo run --release --example fault_tolerant_routing
//! ```

use faultgen::scenario::figure2_l_shape;
use faultgen::{generate_faults, FaultDistribution};
use fblock::{FaultModel, FaultyBlockModel};
use mesh2d::{Coord, Mesh2D, StatusMap};
use meshroute::{ExtendedECube, RoutingExperiment};
use mocp_core::CentralizedMfpModel;

fn main() {
    // --- Part 1: the paper's Figure 2 routing example -------------------
    let scenario = figure2_l_shape();
    let faults = scenario.fault_set();
    let status = StatusMap::from_fault_list(&scenario.mesh, faults.in_insertion_order());
    let router = ExtendedECube::new(&scenario.mesh, &status);

    let src = Coord::new(1, 3);
    let dst = Coord::new(6, 4);
    let path = router
        .route(src, dst)
        .expect("the paper's example is routable");
    println!("Figure 2: route from {src} to {dst} around the L-shaped faulty polygon");
    println!(
        "  {} hops ({} abnormal), stretch {:.2}",
        path.len(),
        path.abnormal_hops,
        path.stretch()
    );
    println!(
        "  path: {}",
        path.hops
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    // --- Part 2: FB vs MFP routing quality on a larger faulty mesh ------
    let mesh = Mesh2D::square(40);
    let faults = generate_faults(mesh, 120, FaultDistribution::Clustered, 7);
    let fb = FaultyBlockModel.construct(&mesh, &faults);
    let mfp = CentralizedMfpModel::virtual_block().construct(&mesh, &faults);

    println!("\n40x40 mesh, 120 clustered faults — routing a sample of node pairs:");
    for outcome in [&fb, &mfp] {
        let stats = RoutingExperiment::new(&mesh, &outcome.status, 23).run();
        println!(
            "  {:<4} delivery rate {:>6.3}  endpoints excluded {:>4}  avg stretch {:>5.3}  avg abnormal hops {:>5.2}",
            outcome.model,
            stats.delivery_rate(),
            stats.endpoint_excluded,
            stats.average_stretch,
            stats.average_abnormal_hops,
        );
    }
    println!(
        "\nDisabling fewer healthy nodes (MFP: {}, FB: {}) keeps more endpoints routable.",
        mfp.disabled_nonfaulty(),
        fb.disabled_nonfaulty()
    );
}
