//! The three workloads: seeded inputs and the builders handed to the
//! program.
//!
//! The seed draws only physically valid inputs — the phase of the
//! density perturbation for the App workloads, and the sweep's
//! wavenumbers inside [0.3, 0.6] so the Canosa-table interpolation stays
//! valid. Everything else (grids, orders, end times) is fixed per
//! workload, so one seed always produces the same builders.

use dg_basis::BasisKind;
use dg_core::app::{AppBuilder, FieldSpec, SpeciesSpec};
use dg_core::species::maxwellian;
use dg_kernels::PhaseLayout;
use std::f64::consts::PI;

/// One named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §III Eop configuration: 2X3V p=2 Serendipity,
    /// collisionless, one thread.
    Vm5dEop,
    /// Collisional two-stream in 2X2V on the threaded cell-block path.
    Lbo2x2vT2,
    /// A Landau-damping dispersion scan through `dg_ensemble`.
    LandauSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Vm5dEop,
        Workload::Lbo2x2vT2,
        Workload::LandauSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Vm5dEop => "vm5d_eop",
            Workload::Lbo2x2vT2 => "lbo2x2v_t2",
            Workload::LandauSweep => "landau_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// SplitMix64: a tiny, dependency-free generator for the seeded inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A single-App workload (`vm5d_eop` or `lbo2x2v_t2`) at one size.
#[derive(Clone, Debug)]
pub struct AppProblem {
    pub workload: Workload,
    /// Configuration cells per dimension.
    pub conf: usize,
    /// Velocity cells per dimension.
    pub vel: usize,
    /// Phase of the density perturbation (drawn from the seed).
    pub phase: f64,
    /// Threads of the measured configuration.
    pub threads: usize,
    /// `AppBuilder::build` calls whose median is `setup_s`.
    pub setups: usize,
    pub t_end: f64,
    pub cfl: f64,
}

impl AppProblem {
    pub fn new(workload: Workload, smoke: bool, seed: u64) -> AppProblem {
        let phase = 2.0 * PI * Rng::new(seed).uniform();
        match workload {
            Workload::Vm5dEop => AppProblem {
                workload,
                conf: if smoke { 2 } else { 3 },
                vel: if smoke { 4 } else { 6 },
                phase,
                threads: 1,
                setups: 3,
                t_end: if smoke { 0.02 } else { 0.1 },
                cfl: 0.9,
            },
            Workload::Lbo2x2vT2 => AppProblem {
                workload,
                conf: if smoke { 2 } else { 4 },
                vel: if smoke { 8 } else { 16 },
                phase,
                threads: 2,
                setups: 5,
                t_end: if smoke { 0.2 } else { 0.1 },
                // The CFL bound covers streaming, acceleration and the
                // field only; explicit LBO diffusion at ν = 0.5 on this
                // velocity grid needs the smaller factor to stay stable.
                cfl: 0.08,
            },
            Workload::LandauSweep => unreachable!("the sweep is a SweepProblem"),
        }
    }

    pub fn layout(&self) -> PhaseLayout {
        match self.workload {
            Workload::Vm5dEop => PhaseLayout::new(2, 3),
            _ => PhaseLayout::new(2, 2),
        }
    }

    /// Phase-space degrees of freedom of the problem.
    pub fn dofs(&self) -> usize {
        let layout = self.layout();
        let cells = self.conf.pow(layout.cdim as u32) * self.vel.pow(layout.vdim as u32);
        cells * dg_kernels::kernels_for(BasisKind::Serendipity, layout, 2).np()
    }

    /// The initial distribution `f₀(x, v)`.
    pub fn initial(&self) -> impl FnMut(&[f64], &[f64]) -> f64 + 'static {
        let (workload, phase) = (self.workload, self.phase);
        move |x: &[f64], v: &[f64]| match workload {
            Workload::Vm5dEop => maxwellian(
                1.0 + 0.05 * (2.0 * PI * x[0] + phase).cos(),
                &[0.0; 3],
                1.0,
                v,
            ),
            _ => {
                let pert = 1.0 + 0.01 * (TWO_STREAM_K * x[0] + phase).cos();
                pert * 0.5
                    * (maxwellian(1.0, &[TWO_STREAM_U, 0.0], TWO_STREAM_VTH, v)
                        + maxwellian(1.0, &[-TWO_STREAM_U, 0.0], TWO_STREAM_VTH, v))
            }
        }
    }

    pub fn builder(&self, threads: usize, telemetry: bool) -> AppBuilder {
        let (c, v) = (self.conf, self.vel);
        let builder = AppBuilder::new()
            .poly_order(2)
            .basis(BasisKind::Serendipity)
            .cfl(self.cfl)
            .threads(threads)
            .telemetry(telemetry)
            .field(FieldSpec::new(1.0));
        match self.workload {
            Workload::Vm5dEop => builder
                .conf_grid(&[0.0, 0.0], &[1.0, 1.0], &[c, c])
                .species(
                    SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0; 3], &[6.0; 3], &[v, v, v])
                        .initial(self.initial()),
                ),
            _ => {
                let l = 2.0 * PI / TWO_STREAM_K;
                builder.conf_grid(&[0.0, 0.0], &[l, l], &[c, c]).species(
                    SpeciesSpec::new("elc", -1.0, 1.0, &[-VMAX_2X2V; 2], &[VMAX_2X2V; 2], &[v, v])
                        .initial(self.initial())
                        .collisions(LBO_NU),
                )
            }
        }
    }
}

const TWO_STREAM_U: f64 = 1.5;
const TWO_STREAM_VTH: f64 = 0.6;
const TWO_STREAM_K: f64 = 0.4;
const VMAX_2X2V: f64 = 5.4;
const LBO_NU: f64 = 0.5;

/// The `landau_sweep` workload at one size.
#[derive(Clone, Debug)]
pub struct SweepProblem {
    pub nx: usize,
    pub nv: usize,
    pub t_end: f64,
    /// Jobs per `Ensemble::run`.
    pub jobs: usize,
    pub workers: usize,
    pub sample_every: f64,
    pub checkpoint_every_steps: usize,
    pub cfl: f64,
}

/// The sweep's wavenumber window (the valid range of the Canosa table).
pub const K_LO: f64 = 0.3;
pub const K_HI: f64 = 0.6;

impl SweepProblem {
    pub fn new(smoke: bool) -> SweepProblem {
        SweepProblem {
            nx: 16,
            nv: 24,
            t_end: 20.0,
            jobs: if smoke { 2 } else { 8 },
            workers: 2,
            sample_every: 0.05,
            checkpoint_every_steps: 500,
            cfl: 0.5,
        }
    }

    pub fn layout(&self) -> PhaseLayout {
        PhaseLayout::new(1, 1)
    }

    pub fn dofs(&self) -> usize {
        self.nx * self.nv * dg_kernels::kernels_for(BasisKind::Serendipity, self.layout(), 2).np()
    }

    /// One sweep's wavenumbers: one point drawn uniformly inside each of
    /// `jobs` equal strata of [K_LO, K_HI], so every sweep spans the
    /// window and its cost stays comparable across seeds.
    pub fn draw_ks(&self, rng: &mut Rng) -> Vec<f64> {
        let width = (K_HI - K_LO) / self.jobs as f64;
        (0..self.jobs)
            .map(|i| K_LO + width * (i as f64 + rng.uniform()))
            .collect()
    }

    /// The builder of the job at wavenumber `k` (the ensemble's setup).
    pub fn builder(&self, k: f64, threads: usize, telemetry: bool) -> AppBuilder {
        let length = 2.0 * PI / k;
        AppBuilder::new()
            .conf_grid(&[0.0], &[length], &[self.nx])
            .poly_order(2)
            .basis(BasisKind::Serendipity)
            .cfl(self.cfl)
            .threads(threads)
            .telemetry(telemetry)
            .species(
                SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[self.nv])
                    .initial(landau_initial(k)),
            )
            .field(FieldSpec::new(10.0).with_poisson_init())
    }
}

/// Landau-damping initial condition at wavenumber `k`.
pub fn landau_initial(k: f64) -> impl FnMut(&[f64], &[f64]) -> f64 + 'static {
    move |x: &[f64], v: &[f64]| maxwellian(1.0 + 1e-4 * (k * x[0]).cos(), &[0.0], 1.0, v)
}

/// Exact linear Landau damping rates γ(k λ_D) in ω_p units (roots of the
/// Maxwellian dispersion relation, Canosa 1973), linearly interpolated —
/// the same table and gate as `examples/landau_sweep.rs`.
pub fn gamma_theory(k: f64) -> f64 {
    const TABLE: [(f64, f64); 8] = [
        (0.25, -0.0022),
        (0.30, -0.0126),
        (0.35, -0.0343),
        (0.40, -0.0661),
        (0.45, -0.1066),
        (0.50, -0.1533),
        (0.55, -0.2081),
        (0.60, -0.2641),
    ];
    assert!(
        (TABLE[0].0..=TABLE[TABLE.len() - 1].0).contains(&k),
        "k = {k} outside the tabulated dispersion-relation window"
    );
    let i = TABLE
        .iter()
        .rposition(|&(kt, _)| kt <= k)
        .expect("k is inside the table");
    if i + 1 == TABLE.len() {
        return TABLE[i].1;
    }
    let (k0, g0) = TABLE[i];
    let (k1, g1) = TABLE[i + 1];
    g0 + (g1 - g0) * (k - k0) / (k1 - k0)
}
