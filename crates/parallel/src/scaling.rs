//! The weak/strong scaling harness behind the paper's Fig. 3.
//!
//! The paper runs a 3X3V, p=1, two-species Vlasov–Maxwell problem on Theta,
//! weak-scaling from (8,8,8,16³) on one node to (128³,16³) on 4096 nodes
//! and strong-scaling a fixed (32³,8³) problem. This harness builds the
//! same problem family at container-feasible sizes, runs a few SSP-RK3
//! steps per configuration, and reports per-step wall time plus the
//! simulated halo traffic — the series plotted in Fig. 3. On a multicore
//! host the same harness produces genuine scaling curves; on this 1-CPU
//! container the efficiency column documents the substitution (DESIGN.md).

use dg_basis::BasisKind;
use dg_core::blocks::Driver;
use dg_core::species::{maxwellian, Species};
use dg_core::system::{FluxKind, VlasovMaxwell};
use dg_grid::{Bc, CartGrid, PhaseGrid};
use dg_kernels::{kernels_for, PhaseLayout};
use dg_maxwell::flux::PhmParams;
use dg_maxwell::{MaxwellDg, MaxwellFlux};
use std::time::Instant;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    pub ranks: usize,
    pub conf_cells: Vec<usize>,
    pub vel_cells: Vec<usize>,
    pub phase_cells: usize,
    pub seconds_per_step: f64,
    /// Simulated one-layer halo volume per rank per exchange (bytes).
    pub halo_bytes: usize,
}

/// Bytes of distribution-function halo data that one rank would send per
/// direction-0 exchange in a genuinely distributed setting: one layer of
/// configuration cells (every cell of a dim-0 slice) × the velocity grid ×
/// `np` coefficients × 8 bytes, both faces.
pub fn halo_bytes(grid: &PhaseGrid, np: usize) -> usize {
    let stride0 = grid.conf.len() / grid.conf.cells()[0];
    2 * stride0 * grid.vel.len() * np * 8
}

/// Build the Fig. 3 problem family: two-species (electron/proton)
/// Vlasov–Maxwell, p = 1 Serendipity (Np = 2^d), periodic box, perturbed
/// Maxwellians.
pub fn build_system(
    cdim: usize,
    vdim: usize,
    conf_cells: &[usize],
    vel_cells: &[usize],
) -> VlasovMaxwell {
    let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(cdim, vdim), 1);
    let conf = CartGrid::new(&vec![0.0; cdim], &vec![1.0; cdim], conf_cells);
    let vel = CartGrid::new(&vec![-6.0; vdim], &vec![6.0; vdim], vel_cells);
    let grid = PhaseGrid::new(conf.clone(), vel, vec![Bc::Periodic; cdim]);
    let maxwell = MaxwellDg::new(
        BasisKind::Serendipity,
        conf,
        vec![Bc::Periodic; cdim],
        1,
        PhmParams::vacuum(1.0),
        MaxwellFlux::Central,
    );
    let mut elc = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
    elc.project_initial(&kernels, &grid, 2, &mut |x, v| {
        maxwellian(
            1.0 + 0.05 * (2.0 * std::f64::consts::PI * x[0]).cos(),
            &[0.0; 3][..v.len()],
            1.0,
            v,
        )
    });
    let mut ion = Species::new("ion", 1.0, 1836.0, &grid, kernels.np());
    ion.project_initial(&kernels, &grid, 2, &mut |_x, v| {
        maxwellian(1.0, &[0.0; 3][..v.len()], 0.05, v)
    });
    VlasovMaxwell::new(kernels, grid, maxwell, vec![elc, ion], FluxKind::Upwind)
}

/// Time `steps` SSP-RK3 steps at the given rank/thread counts.
pub fn measure(
    system: VlasovMaxwell,
    ranks: usize,
    threads: usize,
    steps: usize,
    dt: f64,
) -> ScalingPoint {
    let conf_cells = system.grid.conf.cells().to_vec();
    let vel_cells = system.grid.vel.cells().to_vec();
    let phase_cells = system.grid.len();
    let halo_bytes = halo_bytes(&system.grid, system.kernels.np());
    let mut state = system.initial_state(system.maxwell.new_field());
    let mut driver = Driver::new(system, ranks, threads).expect("ranks and threads ≥ 1");
    // Warm-up step (kernel cache, allocator, pool).
    driver.step(&mut state, dt);
    let t0 = Instant::now();
    for _ in 0..steps {
        driver.step(&mut state, dt);
    }
    let seconds_per_step = t0.elapsed().as_secs_f64() / steps as f64;
    ScalingPoint {
        ranks,
        conf_cells,
        vel_cells,
        phase_cells,
        seconds_per_step,
        halo_bytes,
    }
}

/// Weak-scaling series: per-rank problem held fixed, dim-0 extent grows
/// with the rank count (the paper grows all three configuration dims; on
/// one machine we grow the decomposed dimension).
pub fn weak_scaling_series(
    base_conf: &[usize],
    vel: &[usize],
    rank_counts: &[usize],
    threads: usize,
    steps: usize,
) -> Vec<ScalingPoint> {
    rank_counts
        .iter()
        .map(|&r| {
            let mut conf = base_conf.to_vec();
            conf[0] *= r;
            let sys = build_system(conf.len(), vel.len(), &conf, vel);
            measure(sys, r, threads, steps, 1e-4)
        })
        .collect()
}

/// Strong-scaling series: fixed problem, growing rank count.
pub fn strong_scaling_series(
    conf: &[usize],
    vel: &[usize],
    rank_counts: &[usize],
    threads: usize,
    steps: usize,
) -> Vec<ScalingPoint> {
    rank_counts
        .iter()
        .map(|&r| {
            let sys = build_system(conf.len(), vel.len(), conf, vel);
            measure(sys, r, threads, steps, 1e-4)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_sane_numbers() {
        let sys = build_system(1, 1, &[4], &[8]);
        let p = measure(sys, 2, 2, 2, 1e-4);
        assert!(p.seconds_per_step > 0.0 && p.seconds_per_step.is_finite());
        assert_eq!(p.phase_cells, 32);
        assert!(p.halo_bytes > 0);
    }

    #[test]
    fn halo_volume_counts_one_ghost_layer() {
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0, 0.0], &[1.0, 1.0], &[8, 3]),
            CartGrid::new(&[-1.0, -1.0], &[1.0, 1.0], &[4, 2]),
            vec![Bc::Periodic, Bc::Periodic],
        );
        // stride0 = 3 conf cells, nv = 8, Np = 5 → 2·3·8·5·8 bytes.
        assert_eq!(halo_bytes(&grid, 5), 2 * 3 * 8 * 5 * 8);
    }

    #[test]
    fn weak_series_grows_problem() {
        let pts = weak_scaling_series(&[2], &[4], &[1, 2], 1, 1);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].phase_cells, 2 * pts[0].phase_cells);
    }
}
