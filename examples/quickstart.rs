//! Quickstart: a 1X1V electron Langmuir-oscillation run in ~40 lines.
//!
//! Builds the smallest meaningful Vlasov–Maxwell simulation — one electron
//! species with a sinusoidal density perturbation over a neutralizing ion
//! background — drives it through `app.run` with an energy-history
//! observer, and prints the conserved-quantity report. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vlasov_dg::core::species::maxwellian;
use vlasov_dg::prelude::*;

fn main() -> Result<(), Error> {
    let k = 0.5; // k λ_D for vth = 1
    let length = 2.0 * std::f64::consts::PI / k;

    let mut app = AppBuilder::new()
        .conf_grid(&[0.0], &[length], &[16])
        .poly_order(2)
        .basis(BasisKind::Serendipity)
        .cfl(0.6)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[24])
                .initial(move |x, v| maxwellian(1.0 + 0.05 * (k * x[0]).cos(), &[0.0], 1.0, v)),
        )
        .field(FieldSpec::new(10.0).with_poisson_init())
        .build()?;

    let q0 = app.conserved();
    println!("t = 0");
    println!("  particles      : {:.12}", q0.numbers[0]);
    println!("  kinetic energy : {:.12}", q0.particle_energy);
    println!("  field energy   : {:.6e}", q0.field_energy);

    // The run driver samples the conserved quantities every 0.5 ωₚ⁻¹.
    let mut history = EnergyHistory::every(0.5);
    app.run(5.0, &mut [&mut history])?;

    let q1 = app.conserved();
    println!("t = {:.2} ({} steps)", app.time(), app.steps_taken());
    println!("  particles      : {:.12}", q1.numbers[0]);
    println!("  kinetic energy : {:.12}", q1.particle_energy);
    println!("  field energy   : {:.6e}", q1.field_energy);
    println!(
        "  mass drift     : {:.3e} (exact conservation: round-off only)",
        history.mass_drift()
    );
    println!("  energy drift   : {:.3e}", history.energy_drift());

    // The field energy must oscillate at ~2 ω_p while Landau-damping away.
    assert!(q1.field_energy > 0.0, "field should be active");
    assert!(history.mass_drift() < 1e-10, "mass must be conserved");
    vlasov_dg::util::emit_telemetry(&app, "quickstart")?;
    println!("quickstart OK");
    Ok(())
}
