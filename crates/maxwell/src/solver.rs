//! The modal DG Maxwell operator on the configuration grid.
//!
//! Boundary treatment mirrors the kinetic layer's ghost-state model: a
//! periodic dimension wraps, `ZeroFlux` skips the face (legacy no-flux),
//! `Copy` synthesizes an even-mirror ghost (open boundary), and the wall
//! conditions (`Absorb`/`Reflect` — walls for particles) become a
//! **perfectly conducting wall** for the field: the ghost flips the
//! tangential electric field and the normal magnetic field (plus the
//! electric cleaning potential φ, which rides with the tangential E), so
//! the upwind face flux drives `E_t → 0` and `B_n → 0` on the wall.

use crate::flux::{MaxwellFlux, PhmParams, BX, EX, PHI, PSI};
use dg_basis::{Basis, BasisKind, FaceBasis};
use dg_grid::{Bc, CartGrid, DgField, DimBc};
use dg_poly::tables::Tables1d;
use dg_telemetry::{span, Collector, Phase};

/// Number of PHM state components.
pub const NCOMP: usize = 8;

/// Sparse gradient-mass matrix `G^d_{lm} = ∫ ∂_d φ_l φ_m dξ`.
#[derive(Clone, Debug)]
struct GradMass {
    entries: Vec<(u16, u16, f64)>,
}

impl GradMass {
    // dg-analyze: allow(hot_alloc) — stencil-table construction, runs once per operator
    fn build(basis: &Basis, tables: &Tables1d, dir: usize) -> Self {
        let mut entries = Vec::new();
        for l in 0..basis.len() {
            for m in 0..basis.len() {
                let el = basis.exps(l);
                let em = basis.exps(m);
                let mut v = 1.0;
                for d in 0..basis.ndim() {
                    v *= if d == dir {
                        tables.grad_mass(el[d] as usize, em[d] as usize)
                    } else if el[d] == em[d] {
                        1.0
                    } else {
                        0.0
                    };
                    if v == 0.0 {
                        break;
                    }
                }
                if v != 0.0 {
                    entries.push((l as u16, m as u16, v));
                }
            }
        }
        GradMass { entries }
    }

    #[inline]
    fn apply(&self, src: &[f64], scale: f64, out: &mut [f64]) {
        for &(l, m, c) in &self.entries {
            out[l as usize] += scale * c * src[m as usize];
        }
    }
}

/// Persistent surface-sweep scratch (traces, flux, ghost, index buffers) —
/// sized once at construction so [`MaxwellDg::rhs`] is allocation-free
/// (gated in `tests/alloc_free.rs`).
#[derive(Debug, Default)]
struct SurfScratch {
    idx: Vec<usize>,
    nidx: Vec<usize>,
    ul: Vec<f64>,
    ur: Vec<f64>,
    ghat: Vec<f64>,
    ghost: Vec<f64>,
}

/// Modal DG discretization of the PHM Maxwell system.
#[derive(Debug)]
pub struct MaxwellDg {
    pub grid: CartGrid,
    pub basis: Basis,
    pub bc: Vec<DimBc>,
    pub params: PhmParams,
    pub flux: MaxwellFlux,
    grad: Vec<GradMass>,
    faces: Vec<FaceBasis>,
    /// Per dimension: sign of each conf mode under the mirror `ξ_d → −ξ_d`
    /// (ghost-state synthesis at walls).
    mirror: Vec<Vec<f64>>,
    nc: usize,
    /// `Mutex` keeps the operator `Sync` (it is shared immutably across
    /// the intra-rank workers); the field solve runs on one thread, so the
    /// lock is never contended — and a futex lock never allocates.
    scratch: std::sync::Mutex<SurfScratch>,
    /// Telemetry writer (noop unless the backend instruments the run);
    /// the field solve runs on the main thread, slot 0.
    probe: Collector,
}

impl MaxwellDg {
    // dg-analyze: allow(hot_alloc) — operator constructor: bases, stencils and scratch are built once
    pub fn new(
        kind: BasisKind,
        grid: CartGrid,
        bc: Vec<impl Into<DimBc>>,
        p: usize,
        params: PhmParams,
        flux: MaxwellFlux,
    ) -> Self {
        let cdim = grid.ndim();
        assert_eq!(bc.len(), cdim);
        let bc: Vec<DimBc> = bc.into_iter().map(Into::into).collect();
        let basis = Basis::new(kind, cdim, p);
        let tables = Tables1d::new(p);
        let grad = (0..cdim)
            .map(|d| GradMass::build(&basis, &tables, d))
            .collect();
        let faces: Vec<FaceBasis> = (0..cdim).map(|d| FaceBasis::new(&basis, d)).collect();
        let mirror = (0..cdim)
            .map(|d| dg_basis::parity::reflection_signs(&basis, &[d]))
            .collect();
        let nc = basis.len();
        let max_nf = faces.iter().map(FaceBasis::len).max().unwrap_or(0);
        let scratch = std::sync::Mutex::new(SurfScratch {
            idx: vec![0; cdim],
            nidx: vec![0; cdim],
            ul: vec![0.0; NCOMP * max_nf],
            ur: vec![0.0; NCOMP * max_nf],
            ghat: vec![0.0; NCOMP * max_nf],
            ghost: vec![0.0; NCOMP * nc],
        });
        MaxwellDg {
            grid,
            basis,
            bc,
            params,
            flux,
            grad,
            faces,
            mirror,
            nc,
            scratch,
            probe: Collector::Noop,
        }
    }

    /// Point this operator's telemetry at `collector` — called once by
    /// backend instrumentation.
    // dg-analyze: allow(hot_alloc) — collector handoff is cold (once per run); clone bumps an Arc refcount
    pub fn instrument(&mut self, collector: &Collector) {
        self.probe = collector.clone();
    }

    /// Component sign of the wall ghost for a boundary of dimension `d`:
    /// `Copy` extends evenly (open boundary); particle walls are perfectly
    /// conducting — tangential E, normal B, and φ flip.
    fn ghost_comp_sign(&self, bc: Bc, d: usize, comp: usize) -> f64 {
        match bc {
            Bc::Copy => 1.0,
            Bc::Absorb | Bc::Reflect => match comp {
                c if c == EX + d => 1.0,  // normal E (surface charge)
                c if c < 3 => -1.0,       // tangential E → 0
                c if c == BX + d => -1.0, // normal B → 0
                c if c < 6 => 1.0,        // tangential B
                PHI => -1.0,              // rides with tangential E
                PSI => 1.0,
                _ => unreachable!("PHM has {NCOMP} components"),
            },
            Bc::Periodic | Bc::ZeroFlux => {
                unreachable!("{bc:?} does not synthesize a ghost state")
            }
        }
    }

    /// Coefficients per cell in the EM field (`8 × Nc`).
    pub fn ncoeff(&self) -> usize {
        NCOMP * self.nc
    }

    pub fn nc(&self) -> usize {
        self.nc
    }

    /// Allocate a zeroed EM field on this grid.
    pub fn new_field(&self) -> DgField {
        DgField::zeros(self.grid.len(), self.ncoeff())
    }

    /// Accumulate `∂u/∂t` (volume + surface, no sources) into `out`.
    ///
    /// `out` is *not* zeroed — callers combine operators.
    pub fn rhs(&self, em: &DgField, out: &mut DgField) {
        span!(self.probe, Phase::MaxwellRhs);
        self.volume(em, out);
        for d in 0..self.grid.ndim() {
            self.surface_dir(d, em, out);
        }
    }

    fn volume(&self, em: &DgField, out: &mut DgField) {
        let nc = self.nc;
        for cell in 0..self.grid.len() {
            let u = em.cell(cell);
            let o = out.cell_mut(cell);
            for d in 0..self.grid.ndim() {
                let scale = 2.0 / self.grid.dx()[d];
                for &(tgt, src, coef) in &self.params.flux_table(d) {
                    self.grad[d].apply(
                        &u[src * nc..(src + 1) * nc],
                        scale * coef,
                        &mut o[tgt * nc..(tgt + 1) * nc],
                    );
                }
            }
        }
    }

    /// All faces normal to configuration direction `d`: the lower-wall
    /// face of boundary cells first, then the face on each cell's upper
    /// side (interior neighbour, periodic wrap, or upper wall) — so each
    /// cell accumulates its lower-face contribution before its upper one,
    /// matching the kinetic sweep's ordering convention.
    fn surface_dir(&self, d: usize, em: &DgField, out: &mut DgField) {
        let grid = &self.grid;
        let cdim = grid.ndim();
        let nc = self.nc;
        let face = &self.faces[d];
        let nf = face.len();
        let table = self.params.flux_table(d);
        let speeds = self.params.wave_speeds(d);
        let upwind = self.flux == MaxwellFlux::Upwind;
        let n_d = grid.cells()[d];

        // Buffers are sized for the widest direction; borrow the slice this
        // direction needs. Uncontended lock: the field solve is single-threaded.
        let mut guard = self.scratch.lock().unwrap();
        let sc = &mut *guard;
        let idx = &mut sc.idx[..cdim];
        let nidx = &mut sc.nidx[..cdim];
        let ul = &mut sc.ul[..NCOMP * nf];
        let ur = &mut sc.ur[..NCOMP * nf];
        let ghat = &mut sc.ghat[..NCOMP * nf];
        let ghost = &mut sc.ghost[..NCOMP * nc];

        // Single-valued face flux from the two cell traces.
        let flux = |ul: &[f64], ur: &[f64], ghat: &mut [f64]| {
            ghat.fill(0.0);
            for &(tgt, src, coef) in &table {
                for a in 0..nf {
                    ghat[tgt * nf + a] = 0.5 * coef * (ul[src * nf + a] + ur[src * nf + a]);
                }
            }
            if upwind {
                for comp in 0..NCOMP {
                    let s = speeds[comp];
                    for a in 0..nf {
                        ghat[comp * nf + a] -= 0.5 * s * (ur[comp * nf + a] - ul[comp * nf + a]);
                    }
                }
            }
        };
        let restrict_all = |side: i32, cell: &[f64], u: &mut [f64]| {
            u.fill(0.0);
            for comp in 0..NCOMP {
                face.restrict(
                    side,
                    &cell[comp * nc..(comp + 1) * nc],
                    &mut u[comp * nf..(comp + 1) * nf],
                );
            }
        };
        let scale = 2.0 / grid.dx()[d];
        let lift_all = |side: i32, ghat: &[f64], sgn: f64, cell: &mut [f64]| {
            for comp in 0..NCOMP {
                face.lift(
                    side,
                    &ghat[comp * nf..(comp + 1) * nf],
                    sgn * scale,
                    &mut cell[comp * nc..(comp + 1) * nc],
                );
            }
        };

        for lin in 0..grid.len() {
            grid.delinearize(lin, idx);
            // Lower-wall face of boundary cells: ghost below, lift only the
            // interior (upper) side.
            if idx[d] == 0 && self.bc[d].lower.is_wall() {
                self.stage_ghost(self.bc[d].lower, d, em.cell(lin), ghost);
                restrict_all(1, ghost, ul);
                restrict_all(-1, em.cell(lin), ur);
                flux(ul, ur, ghat);
                lift_all(-1, ghat, 1.0, out.cell_mut(lin));
            }
            // The face on our upper side: neighbor in +d, or the upper wall.
            let Some(nbr_d) = self.bc[d].neighbor(idx[d], 1, n_d) else {
                if idx[d] == n_d - 1 && self.bc[d].upper.is_wall() {
                    self.stage_ghost(self.bc[d].upper, d, em.cell(lin), ghost);
                    restrict_all(1, em.cell(lin), ul);
                    restrict_all(-1, ghost, ur);
                    flux(ul, ur, ghat);
                    lift_all(1, ghat, -1.0, out.cell_mut(lin));
                }
                continue; // ZeroFlux: skip the face entirely
            };
            nidx.copy_from_slice(idx);
            nidx[d] = nbr_d;
            let nlin = grid.linearize(nidx);

            restrict_all(1, em.cell(lin), ul);
            restrict_all(-1, em.cell(nlin), ur);
            flux(ul, ur, ghat);
            if lin == nlin {
                // Single-cell periodic direction: both sides of the face are
                // the same cell; apply the two lifts sequentially.
                let o = out.cell_mut(lin);
                lift_all(1, ghat, -1.0, o);
                lift_all(-1, ghat, 1.0, o);
                continue;
            }
            let (ol, or_) = out.cell_pair_mut(lin, nlin);
            lift_all(1, ghat, -1.0, ol);
            lift_all(-1, ghat, 1.0, or_);
        }
    }

    /// Synthesize the wall ghost state for a boundary of dimension `d`:
    /// the even mirror of the interior cell with the per-component signs
    /// of [`MaxwellDg::ghost_comp_sign`] applied.
    fn stage_ghost(&self, bc: Bc, d: usize, interior: &[f64], ghost: &mut [f64]) {
        let nc = self.nc;
        let mirror = &self.mirror[d];
        for comp in 0..NCOMP {
            let s = self.ghost_comp_sign(bc, d, comp);
            for l in 0..nc {
                ghost[comp * nc + l] = s * mirror[l] * interior[comp * nc + l];
            }
        }
    }

    /// Accumulate the plasma-current source `−J/ε₀` into the E components
    /// and the charge source `χ_e ρ/ε₀` into φ. `j` has `3 × Nc`
    /// coefficients per cell, `rho` has `Nc` (pass `None` when cleaning is
    /// disabled or charge is not tracked).
    pub fn add_sources(&self, j: &DgField, rho: Option<&DgField>, out: &mut DgField) {
        span!(self.probe, Phase::MaxwellRhs);
        let nc = self.nc;
        let inv_eps = 1.0 / self.params.epsilon0;
        for cell in 0..self.grid.len() {
            let jc = j.cell(cell);
            let o = out.cell_mut(cell);
            for comp in 0..3 {
                for l in 0..nc {
                    o[(EX + comp) * nc + l] -= inv_eps * jc[comp * nc + l];
                }
            }
            if let Some(r) = rho {
                let rc = r.cell(cell);
                let xe = self.params.chi_e;
                for l in 0..nc {
                    o[PHI * nc + l] += xe * inv_eps * rc[l];
                }
            }
        }
    }

    /// CFL-stable time step for this operator alone:
    /// `dt ≤ cfl / Σ_d (2p+1) s_max / Δx_d`.
    pub fn max_dt(&self, cfl: f64) -> f64 {
        let p = self.basis.poly_order() as f64;
        let s = self.params.max_speed();
        let sum: f64 = self
            .grid
            .dx()
            .iter()
            .map(|dx| (2.0 * p + 1.0) * s / dx)
            .sum();
        cfl / sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::em_energy;
    use dg_basis::project::Projector;

    /// SSP-RK3 helper for the tests.
    fn step(mx: &MaxwellDg, em: &mut DgField, dt: f64) {
        let mut rhs = mx.new_field();
        let mut s1 = em.clone();
        rhs.fill(0.0);
        mx.rhs(em, &mut rhs);
        s1.axpy(dt, &rhs);
        let mut s2 = s1.clone();
        rhs.fill(0.0);
        mx.rhs(&s1, &mut rhs);
        s2.axpy(dt, &rhs);
        s2.lincomb(0.25, 0.75, em);
        // s2 = 3/4 em + 1/4 (s1 + dt L(s1)) — note lincomb(a,b,o): x = a x + b o
        let mut s3 = s2.clone();
        rhs.fill(0.0);
        mx.rhs(&s2, &mut rhs);
        s3.axpy(dt, &rhs);
        s3.lincomb(2.0 / 3.0, 1.0 / 3.0, em);
        em.copy_from(&s3);
    }

    fn setup_1d(nx: usize, p: usize, flux: MaxwellFlux) -> (MaxwellDg, DgField) {
        let grid = CartGrid::new(&[0.0], &[1.0], &[nx]);
        let mx = MaxwellDg::new(
            BasisKind::Serendipity,
            grid,
            vec![Bc::Periodic],
            p,
            PhmParams::vacuum(1.0),
            flux,
        );
        // Plane wave: Ey = cos(2πx), Bz = cos(2πx) (c = 1, rightward).
        let mut em = mx.new_field();
        let nc = mx.nc();
        let mut buf = vec![0.0; nc];
        for i in 0..mx.grid.len() {
            let center = [mx.grid.center(0, i)];
            let dx = [mx.grid.dx()[0]];
            Projector::new(&mx.basis, p + 3).project(
                &center,
                &dx,
                &mut |z: &[f64]| (2.0 * std::f64::consts::PI * z[0]).cos(),
                &mut buf,
            );
            let cell = em.cell_mut(i);
            cell[EX + nc..EX + 2 * nc].copy_from_slice(&buf); // Ey
            cell[5 * nc..6 * nc].copy_from_slice(&buf); // Bz
        }
        (mx, em)
    }

    #[test]
    fn plane_wave_advects_at_light_speed() {
        let (mx, mut em) = setup_1d(16, 2, MaxwellFlux::Upwind);
        let em0 = em.clone();
        let dt = mx.max_dt(0.5);
        let steps = (1.0 / dt).ceil() as usize;
        let dt = 1.0 / steps as f64;
        for _ in 0..steps {
            step(&mx, &mut em, dt);
        }
        // After one period the wave returns: coefficients match.
        let mut err: f64 = 0.0;
        let mut nrm: f64 = 0.0;
        for (a, b) in em.as_slice().iter().zip(em0.as_slice()) {
            err += (a - b) * (a - b);
            nrm += b * b;
        }
        let rel = (err / nrm).sqrt();
        assert!(rel < 2e-3, "plane wave error after one period: {rel}");
    }

    #[test]
    fn central_flux_conserves_energy_to_stepper_order() {
        let (mx, mut em) = setup_1d(12, 2, MaxwellFlux::Central);
        let e0 = em_energy(&mx, &em);
        let dt = mx.max_dt(0.3);
        for _ in 0..50 {
            step(&mx, &mut em, dt);
        }
        let e1 = em_energy(&mx, &em);
        // The *semi-discrete* central-flux scheme conserves energy exactly;
        // what remains is SSP-RK3's O(dt⁶)-per-step damping of each mode.
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 1e-4, "central-flux energy drift {drift}");
        // Halving dt must shrink the drift by ~2³ (SSP-RK3 dissipation).
        let (mx2, mut em2) = setup_1d(12, 2, MaxwellFlux::Central);
        let f0 = em_energy(&mx2, &em2);
        for _ in 0..100 {
            step(&mx2, &mut em2, dt / 2.0);
        }
        let f1 = em_energy(&mx2, &em2);
        let drift2 = ((f1 - f0) / f0).abs();
        assert!(
            drift2 < drift * 0.3 || drift < 1e-14,
            "energy drift not converging: {drift} → {drift2}"
        );
    }

    #[test]
    fn upwind_flux_dissipates_monotonically() {
        let (mx, mut em) = setup_1d(8, 1, MaxwellFlux::Upwind);
        let mut last = em_energy(&mx, &em);
        let dt = mx.max_dt(0.3);
        for _ in 0..20 {
            step(&mx, &mut em, dt);
            let e = em_energy(&mx, &em);
            assert!(e <= last * (1.0 + 1e-12), "upwind energy must not grow");
            last = e;
        }
    }

    #[test]
    fn uniform_fields_are_steady_states() {
        // Constant E/B with no charge: RHS must vanish identically
        // (free-streaming preservation of the linear solver).
        let grid = CartGrid::new(&[0.0, 0.0], &[1.0, 2.0], &[4, 3]);
        let mx = MaxwellDg::new(
            BasisKind::Serendipity,
            grid,
            vec![Bc::Periodic, Bc::Periodic],
            2,
            PhmParams::vacuum(2.0),
            MaxwellFlux::Upwind,
        );
        let mut em = mx.new_field();
        let nc = mx.nc();
        let c0 = dg_basis::expand::const_coeff(&mx.basis);
        for i in 0..mx.grid.len() {
            let cell = em.cell_mut(i);
            for comp in 0..6 {
                cell[comp * nc] = (comp as f64 + 1.0) * c0;
            }
        }
        let mut rhs = mx.new_field();
        mx.rhs(&em, &mut rhs);
        assert!(
            rhs.max_abs() < 1e-12,
            "uniform state not steady: {}",
            rhs.max_abs()
        );
    }

    #[test]
    fn pec_wall_admits_normal_e_and_damps_tangential_e() {
        // Perfectly conducting walls: a uniform *normal* E (surface
        // charge) and a uniform *tangential* B are steady states, while
        // uniform tangential E and normal B violate the wall condition
        // and must be damped by the upwind flux at the boundary.
        let make = || {
            MaxwellDg::new(
                BasisKind::Serendipity,
                CartGrid::new(&[0.0], &[1.0], &[6]),
                vec![DimBc::uniform(Bc::Absorb)],
                2,
                PhmParams::vacuum(1.0),
                MaxwellFlux::Upwind,
            )
        };
        let mx = make();
        let nc = mx.nc();
        let c0 = dg_basis::expand::const_coeff(&mx.basis);
        let uniform = |comp: usize| {
            let mut em = mx.new_field();
            for i in 0..mx.grid.len() {
                em.cell_mut(i)[comp * nc] = c0;
            }
            em
        };
        for (comp, steady) in [
            (EX, true),      // normal E: surface charge, admissible
            (EX + 1, false), // tangential E → 0 on the wall
            (BX, false),     // normal B → 0 on the wall
            (BX + 1, true),  // tangential B: admissible
        ] {
            let em = uniform(comp);
            let mut rhs = mx.new_field();
            mx.rhs(&em, &mut rhs);
            if steady {
                assert!(
                    rhs.max_abs() < 1e-12,
                    "comp {comp} should be a PEC steady state: {}",
                    rhs.max_abs()
                );
            } else {
                assert!(
                    rhs.max_abs() > 1e-3,
                    "comp {comp} violates the PEC condition and must react"
                );
                // And the reaction is dissipative: energy decays.
                let mut em = em.clone();
                let e0 = em_energy(&mx, &em);
                let dt = mx.max_dt(0.3);
                for _ in 0..20 {
                    step(&mx, &mut em, dt);
                }
                let e1 = em_energy(&mx, &em);
                assert!(
                    e1 < e0 * (1.0 - 1e-4),
                    "comp {comp}: wall should damp the inadmissible field ({e0} → {e1})"
                );
            }
        }
    }

    #[test]
    fn copy_open_boundary_keeps_uniform_fields_steady() {
        // The even-mirror (copy) ghost makes every uniform component
        // trace-continuous at the boundary: nothing reacts.
        let mx = MaxwellDg::new(
            BasisKind::Serendipity,
            CartGrid::new(&[0.0], &[1.0], &[5]),
            vec![DimBc::uniform(Bc::Copy)],
            1,
            PhmParams::vacuum(1.0),
            MaxwellFlux::Upwind,
        );
        let nc = mx.nc();
        let c0 = dg_basis::expand::const_coeff(&mx.basis);
        let mut em = mx.new_field();
        for i in 0..mx.grid.len() {
            for comp in 0..6 {
                em.cell_mut(i)[comp * nc] = (1.0 + comp as f64) * c0;
            }
        }
        let mut rhs = mx.new_field();
        mx.rhs(&em, &mut rhs);
        assert!(
            rhs.max_abs() < 1e-12,
            "uniform fields must pass through open boundaries: {}",
            rhs.max_abs()
        );
    }

    #[test]
    fn current_source_decreases_parallel_field() {
        let grid = CartGrid::new(&[0.0], &[1.0], &[2]);
        let mx = MaxwellDg::new(
            BasisKind::Serendipity,
            grid,
            vec![Bc::Periodic],
            1,
            PhmParams::vacuum(1.0),
            MaxwellFlux::Central,
        );
        let nc = mx.nc();
        let mut j = DgField::zeros(mx.grid.len(), 3 * nc);
        for i in 0..mx.grid.len() {
            j.cell_mut(i)[0] = 1.0; // J_x > 0
        }
        let mut out = mx.new_field();
        mx.add_sources(&j, None, &mut out);
        for i in 0..mx.grid.len() {
            assert!(out.cell(i)[0] < 0.0, "dEx/dt = −Jx/ε₀ must be negative");
        }
    }
}

#[cfg(test)]
mod tests_2d {
    use super::*;
    use crate::energy::em_energy;
    use crate::flux::{PhmParams, BZ, EY, PHI};
    use dg_basis::project::Projector;

    fn step(mx: &MaxwellDg, em: &mut DgField, dt: f64) {
        let mut rhs = mx.new_field();
        let mut s1 = em.clone();
        mx.rhs(em, &mut rhs);
        s1.axpy(dt, &rhs);
        let mut s2 = s1.clone();
        rhs.fill(0.0);
        mx.rhs(&s1, &mut rhs);
        s2.axpy(dt, &rhs);
        s2.lincomb(0.25, 0.75, em);
        let mut s3 = s2.clone();
        rhs.fill(0.0);
        mx.rhs(&s2, &mut rhs);
        s3.axpy(dt, &rhs);
        s3.lincomb(2.0 / 3.0, 1.0 / 3.0, em);
        em.copy_from(&s3);
    }

    /// A TE plane wave propagating obliquely in 2D: after one period along
    /// its wave vector the field must return.
    #[test]
    fn oblique_te_wave_in_2d() {
        let grid = CartGrid::new(&[0.0, 0.0], &[1.0, 1.0], &[10, 10]);
        let mx = MaxwellDg::new(
            BasisKind::Serendipity,
            grid,
            vec![Bc::Periodic, Bc::Periodic],
            2,
            PhmParams::vacuum(1.0),
            MaxwellFlux::Upwind,
        );
        let nc = mx.nc();
        let mut em = mx.new_field();
        // k = 2π (1, 0): Ey/Bz pair (TE). Period T = 1 (c = 1).
        let mut buf = vec![0.0; nc];
        let mut idx = [0usize; 2];
        for i in 0..mx.grid.len() {
            mx.grid.delinearize(i, &mut idx);
            let mut center = [0.0; 2];
            mx.grid.cell_center(&idx, &mut center);
            Projector::new(&mx.basis, 5).project(
                &center,
                mx.grid.dx(),
                &mut |z: &[f64]| (2.0 * std::f64::consts::PI * z[0]).cos(),
                &mut buf,
            );
            let cell = em.cell_mut(i);
            cell[EY * nc..(EY + 1) * nc].copy_from_slice(&buf);
            cell[BZ * nc..(BZ + 1) * nc].copy_from_slice(&buf);
        }
        let em0 = em.clone();
        let dt = mx.max_dt(0.4);
        let steps = (1.0 / dt).ceil() as usize;
        let dt = 1.0 / steps as f64;
        for _ in 0..steps {
            step(&mx, &mut em, dt);
        }
        let mut err: f64 = 0.0;
        let mut nrm: f64 = 0.0;
        for (a, b) in em.as_slice().iter().zip(em0.as_slice()) {
            err += (a - b) * (a - b);
            nrm += b * b;
        }
        let rel = (err / nrm).sqrt();
        assert!(rel < 5e-3, "2D TE wave error after one period: {rel}");
    }

    /// Divergence cleaning: a spurious ∇·E error (no charge) excites φ,
    /// which radiates the error away at χ_e c; with dissipative fluxes the
    /// error energy decays, while without cleaning it just sits there.
    #[test]
    fn cleaning_transports_divergence_errors() {
        let run = |chi_e: f64| -> f64 {
            let grid = CartGrid::new(&[0.0], &[1.0], &[12]);
            let mx = MaxwellDg::new(
                BasisKind::Serendipity,
                grid,
                vec![Bc::Periodic],
                2,
                PhmParams {
                    c: 1.0,
                    chi_e,
                    chi_m: 0.0,
                    epsilon0: 1.0,
                },
                MaxwellFlux::Upwind,
            );
            let nc = mx.nc();
            let mut em = mx.new_field();
            let mut buf = vec![0.0; nc];
            for i in 0..mx.grid.len() {
                let center = [mx.grid.center(0, i)];
                Projector::new(&mx.basis, 5).project(
                    &center,
                    mx.grid.dx(),
                    &mut |z: &[f64]| (2.0 * std::f64::consts::PI * z[0]).sin(),
                    &mut buf,
                );
                // Pure longitudinal E with no charge: ∇·E = ρ/ε₀ is violated.
                em.cell_mut(i)[..nc].copy_from_slice(&buf);
            }
            let e0 = em_energy(&mx, &em);
            let dt = mx.max_dt(0.4);
            for _ in 0..400 {
                step(&mx, &mut em, dt);
            }
            em_energy(&mx, &em) / e0
        };
        let with_cleaning = run(1.0);
        let without = run(0.0);
        // Without cleaning the longitudinal field is a steady state (energy
        // preserved); with cleaning it converts to φ waves and dissipates
        // through the upwind flux.
        assert!(
            without > 0.99,
            "uncleaned longitudinal field should persist: {without}"
        );
        assert!(
            with_cleaning < 0.5 * without,
            "cleaning should radiate/damp the divergence error: {with_cleaning} vs {without}"
        );
    }

    /// With consistent initial data (ρ = 0 and ∇·E = 0), φ stays zero.
    #[test]
    fn phi_stays_zero_for_consistent_data() {
        let grid = CartGrid::new(&[0.0], &[1.0], &[8]);
        let mx = MaxwellDg::new(
            BasisKind::Serendipity,
            grid,
            vec![Bc::Periodic],
            1,
            PhmParams::vacuum(2.0),
            MaxwellFlux::Central,
        );
        let nc = mx.nc();
        let mut em = mx.new_field();
        // Transverse wave only: ∇·E = ∂Ex/∂x with Ex = 0 ⇒ consistent.
        let mut buf = vec![0.0; nc];
        for i in 0..mx.grid.len() {
            let center = [mx.grid.center(0, i)];
            Projector::new(&mx.basis, 4).project(
                &center,
                mx.grid.dx(),
                &mut |z: &[f64]| (2.0 * std::f64::consts::PI * z[0]).cos(),
                &mut buf,
            );
            em.cell_mut(i)[EY * nc..(EY + 1) * nc].copy_from_slice(&buf);
            em.cell_mut(i)[BZ * nc..(BZ + 1) * nc].copy_from_slice(&buf);
        }
        let dt = mx.max_dt(0.4);
        for _ in 0..100 {
            step(&mx, &mut em, dt);
        }
        let mut phi_max: f64 = 0.0;
        for i in 0..mx.grid.len() {
            for l in 0..nc {
                phi_max = phi_max.max(em.cell(i)[PHI * nc + l].abs());
            }
        }
        assert!(
            phi_max < 1e-12,
            "φ must stay quiet for consistent data: {phi_max}"
        );
    }
}
