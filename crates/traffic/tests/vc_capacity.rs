//! The virtual-channel capacity bound of `simulate`: a link word holds
//! each channel's occupancy in 8 bits, so 255 packets is the largest
//! buffer, and a larger one is refused instead of wrapping.

use mesh2d::{Mesh2D, StatusMap};
use meshroute::RegionMap;
use mocp_traffic::{simulate, SimConfig, TrafficReport, Uniform, MAX_VC_CAPACITY};

fn run(vc_capacity: usize) -> TrafficReport {
    let mesh = Mesh2D::square(8);
    let status = StatusMap::all_enabled(&mesh);
    let cfg = SimConfig {
        messages: 300,
        injection_rate: 16,
        vc_capacity,
        ..SimConfig::default()
    };
    simulate(
        &mesh,
        &status,
        &RegionMap::from_status(&mesh, &status),
        &Uniform,
        &cfg,
    )
}

#[test]
fn the_largest_vc_capacity_delivers_everything() {
    let report = run(MAX_VC_CAPACITY);
    assert_eq!(report.delivered, 300);
    assert_eq!(report.stranded, 0);
}

#[test]
#[should_panic(expected = "vc_capacity 256 exceeds the 255 packets")]
fn a_vc_capacity_past_the_occupancy_field_is_rejected() {
    run(MAX_VC_CAPACITY + 1);
}
