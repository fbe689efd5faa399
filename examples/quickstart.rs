//! Quickstart: build a small faulty mesh, run all four fault models, and
//! print the resulting node-status maps side by side.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use faultgen::{generate_faults, FaultDistribution};
use fblock::ModelOutcome;
use mesh2d::render::render_status_with_axes;
use mesh2d::Mesh2D;
use mocp_core::standard_registry;

fn main() {
    // A 16x16 mesh with 18 clustered faults.
    let mesh = Mesh2D::square(16);
    let faults = generate_faults(mesh, 18, FaultDistribution::Clustered, 42);

    println!(
        "injected {} faults into a {}x{} mesh\n",
        faults.len(),
        mesh.width(),
        mesh.height()
    );

    let registry = standard_registry();
    let outcomes: Vec<ModelOutcome> = registry
        .names()
        .map(|name| {
            registry
                .construct(name, &mesh, &faults)
                .expect("registered")
        })
        .collect();
    for outcome in &outcomes {
        println!(
            "== {} ==  disabled non-faulty nodes: {:>3}   regions: {:>2}   avg region size: {:>6.2}   rounds: {:>3}",
            outcome.model,
            outcome.disabled_nonfaulty(),
            outcome.regions.len(),
            outcome.average_region_size(),
            outcome.rounds.rounds,
        );
        println!("{}", render_status_with_axes(&outcome.status));
    }

    let disabled = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.model == name)
            .expect("the standard registry holds FB and CMFP")
            .disabled_nonfaulty()
    };
    println!("legend: '#' faulty, 'o' disabled non-faulty, '.' enabled");
    println!(
        "\nThe minimum faulty polygon model (CMFP/DMFP) re-enables {} of the {} healthy nodes the \
         rectangular faulty block model disables.",
        disabled("FB") - disabled("CMFP"),
        disabled("FB"),
    );
}
