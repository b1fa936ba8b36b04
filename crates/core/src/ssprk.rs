//! Three-stage, third-order strong-stability-preserving Runge–Kutta
//! (Shu–Osher form), the time stepper used for every run in the paper.
//!
//! ```text
//! u⁽¹⁾ = u  + Δt L(u)
//! u⁽²⁾ = ¾u + ¼(u⁽¹⁾ + Δt L(u⁽¹⁾))
//! uⁿ⁺¹ = ⅓u + ⅔(u⁽²⁾ + Δt L(u⁽²⁾))
//! ```

use crate::system::SystemState;

/// Effective quadrature weights of the three SSP-RK3 stage RHS
/// evaluations: `uⁿ⁺¹ = uⁿ + Δt (⅙ L(u) + ⅙ L(u⁽¹⁾) + ⅔ L(u⁽²⁾))`. The
/// driver folds per-stage wall-flux rates into the time-integrated wall
/// ledger with exactly these weights, so the ledger matches the state's
/// actual mass change to round-off.
pub const STAGE_WEIGHTS: [f64; 3] = [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0];

/// One SSP-RK3 step with a caller-supplied RHS evaluator — the one time
/// integrator of the code: the modal driver ([`crate::blocks::Driver`])
/// and the nodal baseline (`dg-nodal`) both step through it, so every
/// Table-I/Fig.-3 contender uses the identical time integration. Three RHS
/// evaluations per step — the "three trillion multiplications"
/// bookkeeping of Table I counts these stages explicitly.
pub fn ssp_rk3(
    state: &mut SystemState,
    stage: &mut SystemState,
    rhs_buf: &mut SystemState,
    dt: f64,
    mut rhs: impl FnMut(&SystemState, &mut SystemState),
) {
    // Stage 1: stage = u + dt L(u)
    rhs(&*state, rhs_buf);
    stage.copy_from(state);
    stage.axpy(dt, rhs_buf);
    // Stage 2: stage = ¾ u + ¼ (stage + dt L(stage))
    rhs(&*stage, rhs_buf);
    stage.axpy(dt, rhs_buf);
    stage.lincomb(0.25, 0.75, state);
    // Stage 3: u = ⅓ u + ⅔ (stage + dt L(stage))
    rhs(&*stage, rhs_buf);
    stage.axpy(dt, rhs_buf);
    state.lincomb(1.0 / 3.0, 2.0 / 3.0, stage);
}

#[cfg(test)]
mod tests {
    use crate::blocks::Driver;
    use crate::species::{maxwellian, Species};
    use crate::system::{FluxKind, SystemState, VlasovMaxwell};
    use dg_basis::BasisKind;
    use dg_grid::{Bc, CartGrid, PhaseGrid};
    use dg_kernels::{kernels_for, PhaseLayout};
    use dg_maxwell::flux::PhmParams;
    use dg_maxwell::{MaxwellDg, MaxwellFlux};

    fn tiny_system() -> (VlasovMaxwell, SystemState) {
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 1);
        let conf = CartGrid::new(&[0.0], &[1.0], &[4]);
        let vel = CartGrid::new(&[-6.0], &[6.0], &[8]);
        let grid = PhaseGrid::new(conf.clone(), vel, vec![Bc::Periodic]);
        let mx = MaxwellDg::new(
            BasisKind::Serendipity,
            conf,
            vec![Bc::Periodic],
            1,
            PhmParams::vacuum(1.0),
            MaxwellFlux::Central,
        );
        let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, 3, &mut |x, v| {
            maxwellian(
                1.0 + 0.05 * (2.0 * std::f64::consts::PI * x[0]).cos(),
                &[0.0],
                1.0,
                v,
            )
        });
        let sys = VlasovMaxwell::new(kernels, grid, mx, vec![sp], FluxKind::Upwind);
        let state = sys.initial_state(sys.maxwell.new_field());
        (sys, state)
    }

    #[test]
    fn step_preserves_mass_exactly() {
        let (sys, mut state) = tiny_system();
        let n0 = sys.particle_numbers(&state)[0];
        let mut driver = Driver::new(sys, 1, 1).unwrap();
        for _ in 0..10 {
            driver.step(&mut state, 1e-3);
        }
        let n1 = driver.system().particle_numbers(&state)[0];
        assert!(
            ((n1 - n0) / n0).abs() < 1e-13,
            "mass drift {} over 10 steps",
            (n1 - n0) / n0
        );
    }

    #[test]
    fn third_order_in_time() {
        // Compare one big step against two half steps on a smooth problem;
        // the difference should shrink by ~2³ when dt halves.
        let (_, state0) = tiny_system();
        let dt = 2e-3;

        let run = |n: usize, dt: f64| {
            let mut s = state0.clone();
            let mut driver = Driver::new(tiny_system().0, 1, 1).unwrap();
            for _ in 0..n {
                driver.step(&mut s, dt);
            }
            s
        };
        let a = run(1, dt);
        let b = run(2, dt / 2.0);
        let c = run(4, dt / 4.0);
        let diff = |x: &SystemState, y: &SystemState| -> f64 {
            x.species_f[0]
                .as_slice()
                .iter()
                .zip(y.species_f[0].as_slice())
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt()
        };
        let e1 = diff(&a, &c);
        let e2 = diff(&b, &c);
        // e1/e2 ≈ (dt³ − (dt/2)³)/((dt/2)³ − (dt/4)³) ≈ 8.
        let ratio = e1 / e2.max(1e-300);
        assert!(
            ratio > 4.0,
            "time-stepper convergence ratio {ratio}, expected ≈ 8"
        );
    }
}
