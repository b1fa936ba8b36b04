//! The collisionless Vlasov phase-space update.
//!
//! Per phase-space cell the semi-discrete RHS is (paper Eq. 12)
//!
//! ```text
//! df_l/dt = Σ_dir (2/Δ_dir) [ Σ_mn C^dir_lmn α^dir_m f_n − (T⁺ Ĝ^up − T⁻ Ĝ^lo)_l ]
//! ```
//!
//! evaluated with the sparse exact kernels of `dg-kernels`. The loop
//! structure mirrors the physics:
//!
//! * **volume** — per cell: streaming (affine `α = v`) plus acceleration
//!   (projected `q/m (E + v×B)`);
//! * **configuration-direction surfaces** — faces between neighbouring
//!   configuration cells at fixed velocity cell; `α̂ = v_d` is exact and
//!   single-valued, the penalty speed is the exact `max |v_d|` on the face;
//! * **velocity-direction surfaces** — faces between velocity cells inside
//!   one configuration cell; `α̂` is projected once per *pencil* (it cannot
//!   depend on the face's own velocity coordinate) and reused along it;
//!   the outermost velocity faces use zero flux (particle conservation).
//!
//! Non-periodic configuration boundaries do not skip their faces: each
//! wall face synthesizes a **ghost state** into workspace scratch
//! ([`VlasovWorkspace`]) — vacuum for [`Bc::Absorb`], the even mirror of
//! the interior for [`Bc::Copy`], the velocity-parity-mapped mirror of the
//! reflected velocity cell for [`Bc::Reflect`] — and runs the ordinary
//! single-valued numerical flux against it, staging the interior update so
//! the net wall flux (mass and energy) is recorded in the workspace's
//! [`WallAccum`] ledger as a by-product.
//!
//! Each public method takes an explicit configuration-cell range so the
//! block driver (`crate::blocks`) can partition work without ghost
//! layers — the paper's intra-node decomposition.

// Stencil/loop style: index-coupled stencil sweeps index several arrays in lockstep;
// `needless_range_loop` rewrites would obscure that (workspace allow
// was scoped down to the modules that need it).
#![allow(clippy::needless_range_loop)]
use dg_grid::{Bc, CellStoreMut, DgField, DimBc, PhaseGrid};
use dg_kernels::accel::VelGeom;
use dg_kernels::dispatch::{
    CellLanes, DispatchPath, KernelDispatch, ResolvedSurfaceDir, ResolvedVolume,
    SurfaceKernelBatchFn, SurfaceKernelFn, LANES,
};
use dg_kernels::ops::OpReport;
use dg_kernels::surface::FaceScratch;
use dg_kernels::PhaseKernels;
use dg_maxwell::NCOMP;
use dg_poly::MAX_DIM;
use dg_telemetry::{span, Collector, Counter, Phase};
use std::ops::Range;
use std::sync::Arc;

/// Interface flux for the kinetic equation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FluxKind {
    /// Local Lax–Friedrichs (penalty) flux — robust default, as in Gkeyll.
    Upwind,
    /// Central flux — no phase-space dissipation; used in the
    /// energy-conservation experiments.
    Central,
}

/// Per-(configuration direction, wall side) mass/energy buckets — the one
/// container behind every stage of the wall-flux ledger. Side index `0`
/// is the lower wall, `1` the upper. The *units* depend on where a value
/// sits in the pipeline:
///
/// * sweep accumulators ([`VlasovWorkspace::wall`]): raw basis units —
///   `mass[d][s]` sums the interior cells' mode-0 RHS updates at the
///   wall, `energy[d][s]` the conf-mode-0 `M2` reduction of the same
///   updates;
/// * `VlasovMaxwell::wall_rates` / `wall_totals` (re-exported there as
///   `WallChannels`): physical units — rate (resp. accumulated change)
///   of the species' particle count and kinetic energy; negative = the
///   domain is losing content through that wall.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WallAccum {
    pub mass: Vec<[f64; 2]>,
    pub energy: Vec<[f64; 2]>,
}

impl WallAccum {
    // dg-analyze: allow(hot_alloc) — ledger constructor, two tiny Vecs built once per workspace
    pub fn for_cdim(cdim: usize) -> Self {
        WallAccum {
            mass: vec![[0.0; 2]; cdim],
            energy: vec![[0.0; 2]; cdim],
        }
    }

    pub fn reset(&mut self) {
        self.mass.fill([0.0; 2]);
        self.energy.fill([0.0; 2]);
    }

    /// `self += other` (rank-reduction of per-rank partial sums).
    pub fn add(&mut self, other: &WallAccum) {
        self.axpy(1.0, other);
    }

    /// `self += a · other` — the steppers fold stage rates into the
    /// time-integrated ledger with the SSP-RK3 stage weights.
    pub fn axpy(&mut self, a: f64, other: &WallAccum) {
        for (x, y) in self.mass.iter_mut().zip(&other.mass) {
            x[0] += a * y[0];
            x[1] += a * y[1];
        }
        for (x, y) in self.energy.iter_mut().zip(&other.energy) {
            x[0] += a * y[0];
            x[1] += a * y[1];
        }
    }

    pub fn copy_from(&mut self, other: &WallAccum) {
        self.mass.copy_from_slice(&other.mass);
        self.energy.copy_from_slice(&other.energy);
    }

    /// Net mass change over all walls.
    pub fn net_mass(&self) -> f64 {
        self.mass.iter().map(|s| s[0] + s[1]).sum()
    }

    /// Net energy change over all walls.
    pub fn net_energy(&self) -> f64 {
        self.energy.iter().map(|s| s[0] + s[1]).sum()
    }
}

/// Per-thread scratch for the Vlasov update (no allocation in the loops —
/// every buffer, including the face scratch and the wall-ghost staging,
/// is sized here once).
#[derive(Clone, Debug, Default)]
pub struct VlasovWorkspace {
    alpha: Vec<f64>,
    alpha_face: Vec<f64>,
    face: FaceScratch,
    /// Per-side face-update staging: the single-cell periodic wrap (both
    /// sides are the same cell), one-sided subdomain-edge writes, and the
    /// interior side of every wall face land here instead of allocating
    /// per velocity cell.
    tmp_lo: Vec<f64>,
    tmp_hi: Vec<f64>,
    /// Synthesized ghost-cell coefficients for wall faces.
    ghost: Vec<f64>,
    /// `M2` reduction scratch for the wall energy ledger (conf-basis
    /// length).
    wall_m2: Vec<f64>,
    /// SoA panels for the batched volume kernel: cell centers (`ndim`
    /// coordinates × [`LANES`] velocity cells of one configuration cell),
    /// distribution coefficients, and the zero-initialized accumulation
    /// panel whose lanes are unpacked into `out` (phase-dim / `Np` / `Np`
    /// slots).
    panel_w: Vec<CellLanes>,
    panel_f: Vec<CellLanes>,
    panel_out: Vec<CellLanes>,
    /// Second coefficient/accumulation panels for the batched *surface*
    /// kernels (the upper side of each face; `panel_f`/`panel_out` carry
    /// the lower side).
    panel_f2: Vec<CellLanes>,
    panel_out2: Vec<CellLanes>,
    /// Wall-flux ledger accumulators, filled by the configuration-surface
    /// sweep; reset by [`VlasovOp::accumulate_rhs`] (or manually when
    /// driving the sweep methods directly, as the block sweep does).
    pub wall: WallAccum,
    /// Telemetry writer for this workspace's thread (noop unless the
    /// driver instruments the run; see `dg_telemetry`).
    pub probe: Collector,
}

impl VlasovWorkspace {
    // dg-analyze: allow(hot_alloc) — workspace constructor: every buffer here persists across RHS calls
    pub fn for_kernels(k: &PhaseKernels) -> Self {
        let mut face = FaceScratch::default();
        face.ensure(k.max_face_len());
        VlasovWorkspace {
            alpha: vec![0.0; k.np()],
            alpha_face: vec![0.0; k.max_face_len()],
            face,
            tmp_lo: vec![0.0; k.np()],
            tmp_hi: vec![0.0; k.np()],
            ghost: vec![0.0; k.np()],
            wall_m2: vec![0.0; k.nc()],
            panel_w: vec![CellLanes::default(); k.layout.ndim()],
            panel_f: vec![CellLanes::default(); k.np()],
            panel_out: vec![CellLanes::default(); k.np()],
            panel_f2: vec![CellLanes::default(); k.np()],
            panel_out2: vec![CellLanes::default(); k.np()],
            wall: WallAccum::for_cdim(k.layout.cdim),
            probe: Collector::Noop,
        }
    }
}

/// The discrete Vlasov operator for one phase-space discretization (shared
/// by all species on the same grid).
#[derive(Clone, Debug)]
pub struct VlasovOp {
    pub kernels: Arc<PhaseKernels>,
    pub grid: PhaseGrid,
    pub flux: FluxKind,
    /// Velocity-cell centers per linear velocity index (padded to 3).
    vel_centers: Vec<[f64; 3]>,
    /// Padded velocity-cell widths.
    dv: [f64; 3],
    /// Per velocity dim: linear indices of pencil bases (idx_j = 0).
    pencil_bases: Vec<Vec<u32>>,
    /// Volume-kernel path, resolved against the dispatch registry once at
    /// construction — the hot loop never branches per cell.
    volume_path: ResolvedVolume,
    /// Surface-kernel path per phase direction (configuration first),
    /// resolved once at construction — zero per-face branching.
    surface_paths: Vec<ResolvedSurfaceDir>,
    /// Summary tag of the surface resolution (all directions resolve
    /// together; the registry always carries the full direction set).
    surface_path_tag: DispatchPath,
    /// Full phase-space cell sizes `[Δx…, Δv…]` (the grid is uniform), in
    /// the committed kernels' calling convention.
    dxv: Vec<f64>,
    /// Configuration-cell centers, flattened `nconf × cdim` (the `x…` part
    /// of the committed kernels' `w`).
    conf_centers: Vec<f64>,
    /// Per configuration direction: upper-neighbour configuration cell of
    /// each lower cell (periodic wrap included, `None` at non-periodic
    /// boundaries). Precomputed so the surface sweep never delinearizes or
    /// allocates index scratch per cell.
    conf_nbr: Vec<Vec<Option<u32>>>,
    /// Per configuration direction: the conf cells touching the lower /
    /// upper domain boundary, ascending — the wall-face work lists.
    wall_lo: Vec<Vec<u32>>,
    wall_hi: Vec<Vec<u32>>,
    /// Per configuration direction `d`: velocity-cell index with the
    /// paired velocity dimension mirrored (`idx_d → n_d − 1 − idx_d`) —
    /// the cell holding `−v_d` on a symmetric grid (`Bc::Reflect`).
    vel_mirror: Vec<Vec<u32>>,
}

impl VlasovOp {
    /// Build with [`KernelDispatch::Auto`]: every solver silently gets the
    /// committed unrolled volume kernel when one is registered for its
    /// configuration, and the runtime sparse path otherwise.
    pub fn new(kernels: Arc<PhaseKernels>, grid: PhaseGrid, flux: FluxKind) -> Self {
        Self::with_dispatch(kernels, grid, flux, KernelDispatch::Auto)
    }

    /// Build with an explicit dispatch policy (benches and equivalence
    /// tests force a path this way).
    ///
    /// # Panics
    ///
    /// When `dispatch` is [`KernelDispatch::Generated`] and no committed
    /// kernel exists for this configuration (the error message lists the
    /// registry and how to extend it).
    // dg-analyze: allow(hot_alloc) — operator constructor: geometry/stencil tables are precomputed once
    pub fn with_dispatch(
        kernels: Arc<PhaseKernels>,
        grid: PhaseGrid,
        flux: FluxKind,
        dispatch: KernelDispatch,
    ) -> Self {
        assert_eq!(kernels.layout.cdim, grid.cdim());
        assert_eq!(kernels.layout.vdim, grid.vdim());
        let vdim = grid.vdim();
        let mut vel_centers = Vec::with_capacity(grid.vel.len());
        let mut vidx = vec![0usize; vdim];
        for vlin in 0..grid.vel.len() {
            grid.vel.delinearize(vlin, &mut vidx);
            let mut c = [0.0; 3];
            for d in 0..vdim {
                c[d] = grid.vel.center(d, vidx[d]);
            }
            vel_centers.push(c);
        }
        let mut dv = [1.0; 3];
        dv[..vdim].copy_from_slice(grid.vel.dx());
        let mut pencil_bases = vec![Vec::new(); vdim];
        for vlin in 0..grid.vel.len() {
            grid.vel.delinearize(vlin, &mut vidx);
            for (j, bases) in pencil_bases.iter_mut().enumerate() {
                if vidx[j] == 0 {
                    bases.push(vlin as u32);
                }
            }
        }
        let volume_path = dispatch
            .resolve(
                kernels.phase_basis.kind(),
                kernels.layout,
                kernels.phase_basis.poly_order(),
            )
            .unwrap_or_else(|e| panic!("kernel dispatch: {e}"));
        let surface = dispatch
            .resolve_surface(
                kernels.phase_basis.kind(),
                kernels.layout,
                kernels.phase_basis.poly_order(),
            )
            .unwrap_or_else(|e| panic!("kernel dispatch: {e}"));
        let ndim = kernels.layout.ndim();
        let surface_paths: Vec<ResolvedSurfaceDir> = (0..ndim).map(|d| surface.dir(d)).collect();
        let surface_path_tag = surface.path();
        let cdim = grid.cdim();
        let dxv: Vec<f64> = grid
            .conf
            .dx()
            .iter()
            .chain(grid.vel.dx())
            .copied()
            .collect();
        let mut conf_centers = vec![0.0; grid.conf.len() * cdim];
        let mut cidx = vec![0usize; cdim];
        for clin in 0..grid.conf.len() {
            grid.conf.delinearize(clin, &mut cidx);
            for d in 0..cdim {
                conf_centers[clin * cdim + d] = grid.conf.center(d, cidx[d]);
            }
        }
        let mut conf_nbr = vec![vec![None; grid.conf.len()]; cdim];
        let mut wall_lo = vec![Vec::new(); cdim];
        let mut wall_hi = vec![Vec::new(); cdim];
        let mut nidx = vec![0usize; cdim];
        for d in 0..cdim {
            let n_d = grid.conf.cells()[d];
            for clin in 0..grid.conf.len() {
                grid.conf.delinearize(clin, &mut cidx);
                if let Some(nbr) = grid.conf_neighbor(cidx[d], d, 1) {
                    nidx.copy_from_slice(&cidx);
                    nidx[d] = nbr;
                    conf_nbr[d][clin] = Some(grid.conf.linearize(&nidx) as u32);
                }
                if cidx[d] == 0 {
                    wall_lo[d].push(clin as u32);
                }
                if cidx[d] == n_d - 1 {
                    wall_hi[d].push(clin as u32);
                }
            }
        }
        let mut vel_mirror = vec![vec![0u32; grid.vel.len()]; cdim.min(vdim)];
        for (d, mirror) in vel_mirror.iter_mut().enumerate() {
            let n_d = grid.vel.cells()[d];
            for (vlin, slot) in mirror.iter_mut().enumerate() {
                grid.vel.delinearize(vlin, &mut vidx);
                vidx[d] = n_d - 1 - vidx[d];
                *slot = grid.vel.linearize(&vidx) as u32;
            }
        }
        VlasovOp {
            kernels,
            grid,
            flux,
            vel_centers,
            dv,
            pencil_bases,
            volume_path,
            surface_paths,
            surface_path_tag,
            dxv,
            conf_centers,
            conf_nbr,
            wall_lo,
            wall_hi,
            vel_mirror,
        }
    }

    /// Which volume path this operator resolved to.
    pub fn dispatch_path(&self) -> DispatchPath {
        self.volume_path.path()
    }

    /// Which surface path this operator resolved to (all directions
    /// resolve together).
    pub fn surface_dispatch_path(&self) -> DispatchPath {
        self.surface_path_tag
    }

    /// Per-cell operation counts, tagged with the resolved volume *and*
    /// surface dispatch paths so bench output states explicitly which
    /// paths were measured.
    pub fn op_report(&self) -> OpReport {
        self.kernels
            .op_report()
            .tagged(self.dispatch_path())
            .tagged_surface(self.surface_dispatch_path())
    }

    fn nc_em(&self) -> usize {
        self.kernels.nc()
    }

    /// E/B component slices of one EM cell.
    #[inline]
    fn em_slices<'a>(&self, em_cell: &'a [f64]) -> (&'a [f64], [&'a [f64]; 3]) {
        let nc = self.nc_em();
        debug_assert_eq!(em_cell.len(), NCOMP * nc);
        (
            &em_cell[..3 * nc],
            [
                &em_cell[3 * nc..4 * nc],
                &em_cell[4 * nc..5 * nc],
                &em_cell[5 * nc..6 * nc],
            ],
        )
    }

    /// Volume terms for all phase cells whose configuration index lies in
    /// `conf_range`, through the volume path resolved at construction.
    pub fn volume<S: CellStoreMut>(
        &self,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        conf_range: Range<usize>,
    ) {
        let k = &*self.kernels;
        let (cdim, vdim) = (k.layout.cdim, k.layout.vdim);
        let ndim = cdim + vdim;
        let nv = self.grid.vel.len();
        span!(ws.probe, Phase::Volume);
        let swept = (conf_range.len() * nv) as u64;
        ws.probe.count(Counter::CellsSwept, swept);
        ws.probe.count(Counter::DofProcessed, swept * k.np() as u64);
        match self.volume_path {
            ResolvedVolume::Generated(entry) => {
                // Committed unrolled kernel. Runs of LANES velocity cells
                // of one configuration cell go through the SIMD-batched
                // companion (SoA panels from workspace scratch — zeroed
                // accumulation panel, lanes unpacked into `out`), the
                // `nv % LANES` tail through the scalar kernel. The split
                // depends only on `nv`, never on `conf_range`, so any
                // block decomposition batches identically; per lane the
                // batched kernel is bit-identical to the scalar one, and
                // the volume term is each cell's first contribution (out
                // still zero), so the unpack-add reproduces the scalar
                // accumulation exactly. The EM cell slice is passed whole
                // (the kernels read only the leading 6 × Nc E/B
                // coefficients).
                let kernel = entry.func;
                let batch = entry.batch;
                let np = k.np();
                let nv_full = nv - nv % LANES;
                let mut w = [0.0f64; MAX_DIM];
                for clin in conf_range {
                    let em_cell = em.cell(clin);
                    w[..cdim].copy_from_slice(&self.conf_centers[clin * cdim..][..cdim]);
                    for d in 0..cdim {
                        ws.panel_w[d].0.fill(w[d]);
                    }
                    let mut v0 = 0;
                    while v0 < nv_full {
                        for lane in 0..LANES {
                            let vlin = v0 + lane;
                            for j in 0..vdim {
                                ws.panel_w[cdim + j].0[lane] = self.vel_centers[vlin][j];
                            }
                            let fc = f.cell(clin * nv + vlin);
                            for n in 0..np {
                                ws.panel_f[n].0[lane] = fc[n];
                            }
                        }
                        for p in ws.panel_out[..np].iter_mut() {
                            p.0.fill(0.0);
                        }
                        batch(
                            &ws.panel_w[..ndim],
                            &self.dxv,
                            qm,
                            em_cell,
                            &ws.panel_f[..np],
                            &mut ws.panel_out[..np],
                        );
                        for lane in 0..LANES {
                            let oc = out.cell_mut(clin * nv + v0 + lane);
                            for n in 0..np {
                                oc[n] += ws.panel_out[n].0[lane];
                            }
                        }
                        v0 += LANES;
                    }
                    for vlin in nv_full..nv {
                        let cell = clin * nv + vlin;
                        w[cdim..ndim].copy_from_slice(&self.vel_centers[vlin][..vdim]);
                        kernel(
                            &w[..ndim],
                            &self.dxv,
                            qm,
                            em_cell,
                            f.cell(cell),
                            out.cell_mut(cell),
                        );
                    }
                }
            }
            ResolvedVolume::RuntimeSparse => {
                let cdx = self.grid.conf.dx();
                let vdx = self.grid.vel.dx();
                for clin in conf_range {
                    let em_cell = em.cell(clin);
                    let (e, b) = self.em_slices(em_cell);
                    let nc = self.nc_em();
                    for vlin in 0..nv {
                        let cell = clin * nv + vlin;
                        let fc = f.cell(cell);
                        let oc = out.cell_mut(cell);
                        let vc = &self.vel_centers[vlin];
                        for d in 0..cdim {
                            k.streaming[d].apply(fc, vc[d], vdx[d], 2.0 / cdx[d], oc);
                        }
                        for j in 0..vdim {
                            k.cell_accel[j].project(
                                qm,
                                &e[j * nc..(j + 1) * nc],
                                b,
                                VelGeom {
                                    v_c: &vc[..vdim],
                                    dv: &self.dv[..vdim],
                                },
                                &mut ws.alpha,
                            );
                            k.accel_vol[j].apply(&ws.alpha, fc, 2.0 / vdx[j], oc);
                        }
                    }
                }
            }
        }
    }

    /// One configuration-direction face (all velocity cells), between
    /// configuration cells `clo` and `chi` (linear indices) along `d`.
    /// `write_lo`/`write_hi` select which side receives its update — the
    /// hook for slab-parallel sweeps.
    #[allow(clippy::too_many_arguments)]
    pub fn surface_config_face<S: CellStoreMut>(
        &self,
        d: usize,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        clo: usize,
        chi: usize,
        write_lo: bool,
        write_hi: bool,
    ) {
        // Telemetry: the *caller's sweep* owns the `Phase::Surface` span
        // (one per face would cost two clock reads per face); only the
        // cheap face counter is bumped here, so counts stay exact no
        // matter which sweep drives the face.
        ws.probe
            .count(Counter::FacesSwept, self.grid.vel.len() as u64);
        match self.surface_paths[d] {
            ResolvedSurfaceDir::Generated { func, batch } => {
                self.surface_config_face_gen(func, batch, f, out, ws, clo, chi, write_lo, write_hi)
            }
            ResolvedSurfaceDir::RuntimeSparse => {
                self.surface_config_face_rt(d, f, out, ws, clo, chi, write_lo, write_hi)
            }
        }
    }

    /// Committed-kernel variant of one configuration-direction face. The
    /// common case — an interior face with both sides written — sends runs
    /// of [`LANES`] velocity cells through the SIMD-batched kernel (SoA
    /// panels from workspace scratch), the `nv % LANES` tail through the
    /// scalar kernel. Each output coefficient receives exactly one
    /// increment per face (one face mode per cell mode), so unpacking the
    /// zeroed accumulation panels reproduces the scalar accumulation bit
    /// for bit. One-sided writes and the single-cell periodic wrap stage
    /// the discarded/aliased side in the workspace and stay scalar (the
    /// kernels always compute both sides).
    #[allow(clippy::too_many_arguments)]
    fn surface_config_face_gen<S: CellStoreMut>(
        &self,
        kernel: SurfaceKernelFn,
        batch: SurfaceKernelBatchFn,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        clo: usize,
        chi: usize,
        write_lo: bool,
        write_hi: bool,
    ) {
        if !write_lo && !write_hi {
            return;
        }
        let k = &*self.kernels;
        let (cdim, vdim) = (k.layout.cdim, k.layout.vdim);
        let ndim = cdim + vdim;
        let nv = self.grid.vel.len();
        let np = k.np();
        let penalty = self.flux != FluxKind::Central;
        let mut w = [0.0f64; MAX_DIM];
        w[..cdim].copy_from_slice(&self.conf_centers[clo * cdim..][..cdim]);
        let scalar_from = if clo != chi && write_lo && write_hi {
            let nv_full = nv - nv % LANES;
            for d in 0..cdim {
                ws.panel_w[d].0.fill(w[d]);
            }
            let mut v0 = 0;
            while v0 < nv_full {
                for lane in 0..LANES {
                    let vlin = v0 + lane;
                    for j in 0..vdim {
                        ws.panel_w[cdim + j].0[lane] = self.vel_centers[vlin][j];
                    }
                    let fl = f.cell(clo * nv + vlin);
                    let fh = f.cell(chi * nv + vlin);
                    for n in 0..np {
                        ws.panel_f[n].0[lane] = fl[n];
                        ws.panel_f2[n].0[lane] = fh[n];
                    }
                }
                for p in ws.panel_out[..np].iter_mut() {
                    p.0.fill(0.0);
                }
                for p in ws.panel_out2[..np].iter_mut() {
                    p.0.fill(0.0);
                }
                // Streaming kernels never read `qm`/`em` (α̂ = v_d).
                batch(
                    &ws.panel_w[..ndim],
                    &self.dxv,
                    0.0,
                    &[],
                    penalty,
                    &ws.panel_f[..np],
                    &ws.panel_f2[..np],
                    &mut ws.panel_out[..np],
                    &mut ws.panel_out2[..np],
                );
                for lane in 0..LANES {
                    let vlin = v0 + lane;
                    let (a, b) = out.cell_pair_mut(clo * nv + vlin, chi * nv + vlin);
                    for n in 0..np {
                        a[n] += ws.panel_out[n].0[lane];
                        b[n] += ws.panel_out2[n].0[lane];
                    }
                }
                v0 += LANES;
            }
            nv_full
        } else {
            0
        };
        for vlin in scalar_from..nv {
            w[cdim..ndim].copy_from_slice(&self.vel_centers[vlin][..vdim]);
            let lo_cell = clo * nv + vlin;
            let hi_cell = chi * nv + vlin;
            let f_lo = f.cell(lo_cell);
            let f_hi = f.cell(hi_cell);
            // Streaming kernels never read `qm`/`em` (α̂ = v_d).
            if lo_cell == hi_cell {
                // Single-cell periodic direction: both sides are the same
                // cell; stage and accumulate sequentially.
                ws.tmp_lo[..np].fill(0.0);
                ws.tmp_hi[..np].fill(0.0);
                kernel(
                    &w[..ndim],
                    &self.dxv,
                    0.0,
                    &[],
                    penalty,
                    f_lo,
                    f_hi,
                    &mut ws.tmp_lo,
                    &mut ws.tmp_hi,
                );
                let oc = out.cell_mut(lo_cell);
                for (o, (a, b)) in oc.iter_mut().zip(ws.tmp_lo.iter().zip(&ws.tmp_hi)) {
                    *o += a + b;
                }
                continue;
            }
            match (write_lo, write_hi) {
                (true, true) => {
                    let (a, b) = out.cell_pair_mut(lo_cell, hi_cell);
                    kernel(&w[..ndim], &self.dxv, 0.0, &[], penalty, f_lo, f_hi, a, b);
                }
                (true, false) => kernel(
                    &w[..ndim],
                    &self.dxv,
                    0.0,
                    &[],
                    penalty,
                    f_lo,
                    f_hi,
                    out.cell_mut(lo_cell),
                    &mut ws.tmp_hi,
                ),
                (false, true) => kernel(
                    &w[..ndim],
                    &self.dxv,
                    0.0,
                    &[],
                    penalty,
                    f_lo,
                    f_hi,
                    &mut ws.tmp_lo,
                    out.cell_mut(hi_cell),
                ),
                (false, false) => unreachable!(),
            }
        }
    }

    /// Runtime sparse-tensor variant of one configuration-direction face.
    #[allow(clippy::too_many_arguments)]
    fn surface_config_face_rt<S: CellStoreMut>(
        &self,
        d: usize,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        clo: usize,
        chi: usize,
        write_lo: bool,
        write_hi: bool,
    ) {
        let k = &*self.kernels;
        let nv = self.grid.vel.len();
        let vdx = self.grid.vel.dx();
        let np = k.np();
        let scale = 2.0 / self.grid.conf.dx()[d];
        let surf = &k.surfaces[d];
        let nf = surf.kernel.face.len();
        let central = self.flux == FluxKind::Central;
        for vlin in 0..nv {
            let vc = self.vel_centers[vlin][d];
            let lam = k.stream_face_alpha(d, vc, vdx[d], &mut ws.alpha_face[..nf]);
            let lam = if central { 0.0 } else { lam };
            let lo_cell = clo * nv + vlin;
            let hi_cell = chi * nv + vlin;
            let f_lo = f.cell(lo_cell);
            let f_hi = f.cell(hi_cell);
            if lo_cell == hi_cell {
                // Single-cell periodic direction: stage both sides in the
                // workspace, then accumulate sequentially.
                ws.tmp_lo[..np].fill(0.0);
                ws.tmp_hi[..np].fill(0.0);
                surf.kernel.apply(
                    f_lo,
                    f_hi,
                    &ws.alpha_face[..nf],
                    lam,
                    scale,
                    Some(&mut ws.tmp_lo),
                    Some(&mut ws.tmp_hi),
                    &mut ws.face,
                );
                let oc = out.cell_mut(lo_cell);
                for (o, (a, b)) in oc.iter_mut().zip(ws.tmp_lo.iter().zip(&ws.tmp_hi)) {
                    *o += a + b;
                }
                continue;
            }
            match (write_lo, write_hi) {
                (true, true) => {
                    let (a, b) = out.cell_pair_mut(lo_cell, hi_cell);
                    surf.kernel.apply(
                        f_lo,
                        f_hi,
                        &ws.alpha_face[..nf],
                        lam,
                        scale,
                        Some(a),
                        Some(b),
                        &mut ws.face,
                    );
                }
                (true, false) => surf.kernel.apply(
                    f_lo,
                    f_hi,
                    &ws.alpha_face[..nf],
                    lam,
                    scale,
                    Some(out.cell_mut(lo_cell)),
                    None,
                    &mut ws.face,
                ),
                (false, true) => surf.kernel.apply(
                    f_lo,
                    f_hi,
                    &ws.alpha_face[..nf],
                    lam,
                    scale,
                    None,
                    Some(out.cell_mut(hi_cell)),
                    &mut ws.face,
                ),
                (false, false) => {}
            }
        }
    }

    /// Synthesize the ghost-cell coefficients for a wall face of direction
    /// `d` into `ws.ghost`: the interior velocity block is at phase cell
    /// `clin · Nv + vlin`.
    fn stage_ghost(&self, d: usize, bc: Bc, f: &DgField, ws: &mut VlasovWorkspace, cell: usize) {
        let np = self.kernels.np();
        match bc {
            // Vacuum ghost: pure outgoing upwind flux, exactly zero inflow.
            Bc::Absorb => ws.ghost[..np].fill(0.0),
            // Even mirror in ξ_d: the ghost trace equals the interior
            // trace, so the face flux is the pure upwind flux of the
            // interior state (open/outflow).
            Bc::Copy => {
                let fc = f.cell(cell);
                for (g, (v, s)) in ws.ghost[..np]
                    .iter_mut()
                    .zip(fc.iter().zip(&self.kernels.mirror_signs[d]))
                {
                    *g = v * s;
                }
            }
            // Specular reflection: mirror in ξ_d and in the paired
            // velocity coordinate, sourced from the velocity cell holding
            // `−v_d` (callers must be on a symmetric velocity grid —
            // validated at App assembly).
            Bc::Reflect => {
                let nv = self.grid.vel.len();
                let (clin, vlin) = (cell / nv, cell % nv);
                let src = f.cell(clin * nv + self.vel_mirror[d][vlin] as usize);
                for (g, (v, s)) in ws.ghost[..np]
                    .iter_mut()
                    .zip(src.iter().zip(&self.kernels.reflect_signs[d]))
                {
                    *g = v * s;
                }
            }
            Bc::Periodic | Bc::ZeroFlux => {
                unreachable!("{bc:?} is not a ghost-synthesizing boundary")
            }
        }
    }

    /// One wall face of configuration direction `d` (all velocity cells)
    /// at boundary cell `clin`; `side` is `-1` for the lower wall, `+1`
    /// for the upper. The ghost state is synthesized per velocity cell
    /// into workspace scratch, the ordinary single-valued face flux runs
    /// against it, and only the interior side is accumulated — staged
    /// through `ws.tmp_lo` so the net wall mass/energy flux lands in the
    /// `ws.wall` ledger as a by-product (no extra flux evaluation).
    #[allow(clippy::too_many_arguments)]
    pub fn surface_config_wall<S: CellStoreMut>(
        &self,
        d: usize,
        side: i32,
        bc: Bc,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        clin: usize,
    ) {
        debug_assert!(side == 1 || side == -1);
        debug_assert!(bc.is_wall());
        let k = &*self.kernels;
        let (cdim, vdim) = (k.layout.cdim, k.layout.vdim);
        let ndim = cdim + vdim;
        let nv = self.grid.vel.len();
        span!(ws.probe, Phase::Ghosts);
        ws.probe.count(Counter::FacesSwept, nv as u64);
        let np = k.np();
        let nc = k.nc();
        let jv = self.grid.vel_jacobian();
        let sidx = usize::from(side > 0);
        let central = self.flux == FluxKind::Central;
        let mut w = [0.0f64; MAX_DIM];
        w[..cdim].copy_from_slice(&self.conf_centers[clin * cdim..][..cdim]);
        for vlin in 0..nv {
            let cell = clin * nv + vlin;
            self.stage_ghost(d, bc, f, ws, cell);
            ws.tmp_lo[..np].fill(0.0);
            match self.surface_paths[d] {
                // Wall faces stay scalar: each boundary cell is one face.
                ResolvedSurfaceDir::Generated { func: kernel, .. } => {
                    // `w` of the streaming kernels only feeds the paired
                    // velocity center of `α̂ = v_d` — identical for ghost
                    // and interior — so the interior cell's center serves
                    // both wall orientations.
                    w[cdim..ndim].copy_from_slice(&self.vel_centers[vlin][..vdim]);
                    ws.tmp_hi[..np].fill(0.0);
                    if side > 0 {
                        kernel(
                            &w[..ndim],
                            &self.dxv,
                            0.0,
                            &[],
                            !central,
                            f.cell(cell),
                            &ws.ghost,
                            &mut ws.tmp_lo,
                            &mut ws.tmp_hi,
                        );
                    } else {
                        kernel(
                            &w[..ndim],
                            &self.dxv,
                            0.0,
                            &[],
                            !central,
                            &ws.ghost,
                            f.cell(cell),
                            &mut ws.tmp_hi,
                            &mut ws.tmp_lo,
                        );
                    }
                }
                ResolvedSurfaceDir::RuntimeSparse => {
                    let surf = &k.surfaces[d];
                    let nf = surf.kernel.face.len();
                    let scale = 2.0 / self.grid.conf.dx()[d];
                    let vc = self.vel_centers[vlin][d];
                    let lam = k.stream_face_alpha(d, vc, self.dv[d], &mut ws.alpha_face[..nf]);
                    let lam = if central { 0.0 } else { lam };
                    if side > 0 {
                        surf.kernel.apply(
                            f.cell(cell),
                            &ws.ghost,
                            &ws.alpha_face[..nf],
                            lam,
                            scale,
                            Some(&mut ws.tmp_lo[..np]),
                            None,
                            &mut ws.face,
                        );
                    } else {
                        surf.kernel.apply(
                            &ws.ghost,
                            f.cell(cell),
                            &ws.alpha_face[..nf],
                            lam,
                            scale,
                            None,
                            Some(&mut ws.tmp_lo[..np]),
                            &mut ws.face,
                        );
                    }
                }
            }
            let oc = out.cell_mut(cell);
            for (o, t) in oc.iter_mut().zip(&ws.tmp_lo[..np]) {
                *o += t;
            }
            // Ledger: the staged interior update *is* the wall's flux
            // divergence for this velocity block.
            ws.wall.mass[d][sidx] += ws.tmp_lo[0];
            ws.wall_m2[..nc].fill(0.0);
            k.moments.accumulate_m2(
                &ws.tmp_lo[..np],
                jv,
                &self.vel_centers[vlin][..vdim],
                &self.dv[..vdim],
                &mut ws.wall_m2,
            );
            ws.wall.energy[d][sidx] += ws.wall_m2[0];
        }
    }

    /// All configuration-direction surface terms of direction `d` for the
    /// given range: the lower-wall faces of boundary cells in the range,
    /// then every interior face whose *lower* cell's configuration index
    /// lies in `conf_range` (periodic wrap included), then the upper-wall
    /// faces. With the full range this covers every face exactly once, and
    /// the per-cell accumulation order (lower face first, then upper) is
    /// what the rank-parallel sweep replicates for bit-identity.
    pub fn surface_config<S: CellStoreMut>(
        &self,
        d: usize,
        f: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        conf_range: Range<usize>,
        bc: DimBc,
    ) {
        // Periodicity is baked into the neighbour table at construction;
        // per-species overrides may only change the wall flavor.
        debug_assert_eq!(bc.is_periodic(), self.grid.is_conf_periodic(d));
        if bc.lower.is_wall() {
            for &clin in &self.wall_lo[d] {
                if conf_range.contains(&(clin as usize)) {
                    self.surface_config_wall(d, -1, bc.lower, f, out, ws, clin as usize);
                }
            }
        }
        let nbrs = &self.conf_nbr[d];
        {
            // One Surface span for the whole interior-face sweep; wall
            // faces stay outside under their own `Phase::Ghosts` spans so
            // the phase taxonomy remains non-overlapping.
            span!(ws.probe, Phase::Surface);
            // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
            for clin in conf_range.clone() {
                let Some(nlin) = nbrs[clin] else {
                    continue;
                };
                self.surface_config_face(d, f, out, ws, clin, nlin as usize, true, true);
            }
        }
        if bc.upper.is_wall() {
            for &clin in &self.wall_hi[d] {
                if conf_range.contains(&(clin as usize)) {
                    self.surface_config_wall(d, 1, bc.upper, f, out, ws, clin as usize);
                }
            }
        }
    }

    /// Velocity-direction surface terms for all configuration cells in
    /// `conf_range`. Faces at the velocity-domain boundary carry zero flux.
    pub fn surface_velocity<S: CellStoreMut>(
        &self,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut S,
        ws: &mut VlasovWorkspace,
        conf_range: Range<usize>,
    ) {
        let k = &*self.kernels;
        let (cdim, vdim) = (k.layout.cdim, k.layout.vdim);
        let ndim = cdim + vdim;
        let nv = self.grid.vel.len();
        let nc = self.nc_em();
        let vdx = self.grid.vel.dx();
        let central = self.flux == FluxKind::Central;
        let penalty = !central;
        span!(ws.probe, Phase::Surface);
        let mut faces_per_conf = 0u64;
        for j in 0..vdim {
            let n_j = self.grid.vel.cells()[j];
            faces_per_conf += (nv / n_j * (n_j - 1)) as u64;
        }
        ws.probe.count(
            Counter::FacesSwept,
            conf_range.len() as u64 * faces_per_conf,
        );
        for clin in conf_range {
            let em_cell = em.cell(clin);
            for j in 0..vdim {
                let dir = cdim + j;
                let stride = self.grid.vel.stride(j);
                let n_j = self.grid.vel.cells()[j];
                match self.surface_paths[dir] {
                    ResolvedSurfaceDir::Generated {
                        func: kernel,
                        batch,
                    } => {
                        // Committed unrolled kernel: runs of LANES
                        // consecutive faces of a pencil go through the
                        // SIMD-batched kernel, the tail through the scalar
                        // one. Consecutive faces share a cell, so the
                        // zeroed accumulation panels are unpacked
                        // lane-by-lane in face order (lower side first,
                        // then upper) — each side's unpack-add is the
                        // single increment the scalar kernel would apply,
                        // so the scalar accumulation order (and result) is
                        // reproduced bit for bit. The inlined α̂ projection
                        // reads only the transverse velocity centers, so it
                        // is the same exact polynomial the runtime path
                        // projects once per pencil.
                        let np = k.np();
                        let n_faces = n_j - 1;
                        let faces_full = n_faces - n_faces % LANES;
                        let mut w = [0.0f64; MAX_DIM];
                        w[..cdim].copy_from_slice(&self.conf_centers[clin * cdim..][..cdim]);
                        for d in 0..cdim {
                            ws.panel_w[d].0.fill(w[d]);
                        }
                        for &base in &self.pencil_bases[j] {
                            let base = base as usize;
                            let mut i0 = 0;
                            while i0 < faces_full {
                                for lane in 0..LANES {
                                    let vlo = base + (i0 + lane) * stride;
                                    for jj in 0..vdim {
                                        ws.panel_w[cdim + jj].0[lane] = self.vel_centers[vlo][jj];
                                    }
                                    let fl = f.cell(clin * nv + vlo);
                                    let fh = f.cell(clin * nv + vlo + stride);
                                    for n in 0..np {
                                        ws.panel_f[n].0[lane] = fl[n];
                                        ws.panel_f2[n].0[lane] = fh[n];
                                    }
                                }
                                for p in ws.panel_out[..np].iter_mut() {
                                    p.0.fill(0.0);
                                }
                                for p in ws.panel_out2[..np].iter_mut() {
                                    p.0.fill(0.0);
                                }
                                batch(
                                    &ws.panel_w[..ndim],
                                    &self.dxv,
                                    qm,
                                    em_cell,
                                    penalty,
                                    &ws.panel_f[..np],
                                    &ws.panel_f2[..np],
                                    &mut ws.panel_out[..np],
                                    &mut ws.panel_out2[..np],
                                );
                                for lane in 0..LANES {
                                    let lo_cell = clin * nv + base + (i0 + lane) * stride;
                                    let (o_lo, o_hi) = out.cell_pair_mut(lo_cell, lo_cell + stride);
                                    for n in 0..np {
                                        o_lo[n] += ws.panel_out[n].0[lane];
                                        o_hi[n] += ws.panel_out2[n].0[lane];
                                    }
                                }
                                i0 += LANES;
                            }
                            for i in faces_full..n_faces {
                                let vlo = base + i * stride;
                                w[cdim..ndim].copy_from_slice(&self.vel_centers[vlo][..vdim]);
                                let lo_cell = clin * nv + vlo;
                                let hi_cell = lo_cell + stride;
                                let (o_lo, o_hi) = out.cell_pair_mut(lo_cell, hi_cell);
                                kernel(
                                    &w[..ndim],
                                    &self.dxv,
                                    qm,
                                    em_cell,
                                    penalty,
                                    f.cell(lo_cell),
                                    f.cell(hi_cell),
                                    o_lo,
                                    o_hi,
                                );
                            }
                        }
                    }
                    ResolvedSurfaceDir::RuntimeSparse => {
                        let (e, b) = self.em_slices(em_cell);
                        let surf = &k.surfaces[dir];
                        let nf = surf.kernel.face.len();
                        let scale = 2.0 / vdx[j];
                        let proj = surf.face_accel.as_ref().expect("velocity face");
                        for &base in &self.pencil_bases[j] {
                            let base = base as usize;
                            // α̂ cannot depend on v_j, so one projection
                            // serves the whole pencil.
                            let vc = &self.vel_centers[base];
                            let lam = proj.project(
                                qm,
                                &e[j * nc..(j + 1) * nc],
                                b,
                                VelGeom {
                                    v_c: &vc[..vdim],
                                    dv: &self.dv[..vdim],
                                },
                                &mut ws.alpha_face[..nf],
                            );
                            let lam = if central { 0.0 } else { lam };
                            for i in 0..n_j - 1 {
                                let lo_cell = clin * nv + base + i * stride;
                                let hi_cell = lo_cell + stride;
                                let (o_lo, o_hi) = out.cell_pair_mut(lo_cell, hi_cell);
                                surf.kernel.apply(
                                    f.cell(lo_cell),
                                    f.cell(hi_cell),
                                    &ws.alpha_face[..nf],
                                    lam,
                                    scale,
                                    Some(o_lo),
                                    Some(o_hi),
                                    &mut ws.face,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The full collisionless RHS, serial: `out += L(f; E, B)`, with the
    /// grid's domain-default boundary conditions. Resets and refills the
    /// workspace's wall-flux ledger (`ws.wall`). This is the operator-level
    /// reference the block sweep (`crate::blocks`) is checked against; the
    /// runtime path is the driver's block sweep, which also honours
    /// per-species boundary conditions.
    pub fn accumulate_rhs(
        &self,
        qm: f64,
        f: &DgField,
        em: &DgField,
        out: &mut DgField,
        ws: &mut VlasovWorkspace,
    ) {
        let nconf = self.grid.conf.len();
        ws.wall.reset();
        self.volume(qm, f, em, out, ws, 0..nconf);
        for d in 0..self.grid.cdim() {
            self.surface_config(d, f, out, ws, 0..nconf, self.grid.conf_bc[d]);
        }
        self.surface_velocity(qm, f, em, out, ws, 0..nconf);
    }

    /// Exact `max |v_d|` over the velocity grid (streaming CFL).
    pub fn max_speed(&self, d: usize) -> f64 {
        self.grid.vel.lower()[d]
            .abs()
            .max(self.grid.vel.upper()[d].abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::{maxwellian, Species};
    use dg_basis::BasisKind;
    use dg_grid::{Bc, CartGrid};
    use dg_kernels::{kernels_for, PhaseLayout};

    fn setup_1x1v(nx: usize, nvx: usize, p: usize) -> (VlasovOp, Species, DgField) {
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), p);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[2.0 * std::f64::consts::PI], &[nx]),
            CartGrid::new(&[-6.0], &[6.0], &[nvx]),
            vec![Bc::Periodic],
        );
        let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, p + 2, &mut |x, v| {
            maxwellian(1.0 + 0.1 * (x[0]).cos(), &[0.5], 0.8, v)
        });
        let em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
        let op = VlasovOp::new(kernels, grid, FluxKind::Upwind);
        (op, sp, em)
    }

    #[test]
    fn generated_and_runtime_dispatch_agree_on_full_rhs() {
        // 1x1v p=2 Serendipity is in the committed-kernel registry, so Auto
        // must resolve to the generated path, and the full RHS (volume
        // through either path + identical surface terms) must agree to
        // round-off between the two forced paths.
        let (op_auto, sp, mut em) = setup_1x1v(6, 10, 2);
        // Non-trivial EM data so the acceleration terms are exercised.
        for c in 0..op_auto.grid.conf.len() {
            for (i, v) in em.cell_mut(c).iter_mut().enumerate() {
                *v = ((c * 31 + i) as f64 * 0.61).sin() * 0.3;
            }
        }
        assert_eq!(op_auto.dispatch_path(), DispatchPath::Generated);
        assert_eq!(op_auto.op_report().path, DispatchPath::Generated);

        let op_rt = VlasovOp::with_dispatch(
            Arc::clone(&op_auto.kernels),
            op_auto.grid.clone(),
            FluxKind::Upwind,
            KernelDispatch::RuntimeSparse,
        );
        assert_eq!(op_rt.dispatch_path(), DispatchPath::RuntimeSparse);
        assert_eq!(op_rt.op_report().path, DispatchPath::RuntimeSparse);

        let mut ws = VlasovWorkspace::for_kernels(&op_auto.kernels);
        let mut out_gen = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        op_auto.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out_gen, &mut ws);
        let mut out_rt = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        op_rt.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out_rt, &mut ws);

        let scale = out_rt.max_abs().max(1.0);
        for c in 0..out_rt.ncells() {
            for (a, b) in out_gen.cell(c).iter().zip(out_rt.cell(c)) {
                assert!(
                    (a - b).abs() < 1e-13 * scale,
                    "cell {c}: generated {a} vs runtime {b}"
                );
            }
        }
    }

    #[test]
    fn generated_full_rhs_conserves_on_short_periodic_directions() {
        // nx = 1 exercises the single-cell periodic wrap (both face sides
        // are the same cell — the workspace-staged branch); nx = 2 the
        // two-cell periodic direction where every face is also the wrap
        // partner's face. Dispatch is forced Generated so the committed
        // surface kernels run, and the RHS must (a) match the runtime
        // sparse path to round-off and (b) conserve mass exactly.
        for nx in [1usize, 2] {
            let (op_rt, sp, mut em) = setup_1x1v(nx, 12, 2);
            for c in 0..op_rt.grid.conf.len() {
                for (i, v) in em.cell_mut(c).iter_mut().enumerate() {
                    *v = ((c * 17 + i) as f64 * 0.37).sin() * 0.25;
                }
            }
            let op_rt = VlasovOp::with_dispatch(
                Arc::clone(&op_rt.kernels),
                op_rt.grid.clone(),
                FluxKind::Upwind,
                KernelDispatch::RuntimeSparse,
            );
            let op_gen = VlasovOp::with_dispatch(
                Arc::clone(&op_rt.kernels),
                op_rt.grid.clone(),
                FluxKind::Upwind,
                KernelDispatch::Generated,
            );
            assert_eq!(op_gen.surface_dispatch_path(), DispatchPath::Generated);
            assert_eq!(op_gen.op_report().surface_path, DispatchPath::Generated);
            assert_eq!(op_rt.op_report().surface_path, DispatchPath::RuntimeSparse);

            let mut ws = VlasovWorkspace::for_kernels(&op_gen.kernels);
            let mut out_gen = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
            op_gen.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out_gen, &mut ws);
            let mut out_rt = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
            op_rt.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out_rt, &mut ws);

            let scale = out_rt.max_abs().max(1.0);
            for c in 0..out_rt.ncells() {
                for (a, b) in out_gen.cell(c).iter().zip(out_rt.cell(c)) {
                    assert!(
                        (a - b).abs() < 1e-13 * scale,
                        "nx={nx} cell {c}: generated {a} vs runtime {b}"
                    );
                }
            }
            // Mass conservation: single-valued fluxes telescope (including
            // across the wrap), velocity boundaries are zero-flux.
            let total: f64 = (0..out_gen.ncells()).map(|c| out_gen.cell(c)[0]).sum();
            let mag: f64 = (0..out_gen.ncells())
                .map(|c| out_gen.cell(c)[0].abs())
                .sum();
            assert!(
                total.abs() < 1e-12 * mag.max(1e-30) + 1e-13,
                "nx={nx}: mass leak {total} (scale {mag})"
            );
        }
    }

    #[test]
    fn forcing_generated_on_unregistered_config_panics_with_guidance() {
        // 1x3v p1 has no committed kernel; the forced-Generated constructor
        // must fail loudly (Auto on the same config falls back silently —
        // covered by the kernels-crate dispatch tests).
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 3), 1);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[2]),
            CartGrid::new(&[-1.0; 3], &[1.0; 3], &[2, 2, 2]),
            vec![Bc::Periodic],
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            VlasovOp::with_dispatch(kernels, grid, FluxKind::Upwind, KernelDispatch::Generated)
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("no committed kernel"),
            "unhelpful panic message: {msg}"
        );
    }

    #[test]
    fn rhs_conserves_mass_exactly() {
        let (op, sp, em) = setup_1x1v(8, 12, 2);
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        let mut ws = VlasovWorkspace::for_kernels(&op.kernels);
        op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);
        // Σ_cells d/dt (cell mean) = 0 exactly (single-valued fluxes +
        // zero-flux velocity boundaries).
        let total: f64 = (0..out.ncells()).map(|c| out.cell(c)[0]).sum();
        let scale: f64 = (0..out.ncells()).map(|c| out.cell(c)[0].abs()).sum();
        assert!(
            total.abs() < 1e-12 * scale.max(1e-30) + 1e-13,
            "mass leak {total} (scale {scale})"
        );
    }

    #[test]
    fn free_streaming_shifts_density() {
        // With E = B = 0, a drifting Maxwellian must advect: the RHS of the
        // x-moments equals −∂(u n)/∂x; just check the RHS is non-trivial and
        // mean-free per velocity slab.
        let (op, sp, em) = setup_1x1v(8, 12, 1);
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        let mut ws = VlasovWorkspace::for_kernels(&op.kernels);
        op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);
        assert!(
            out.max_abs() > 1e-8,
            "free streaming should move phase space"
        );
        // No acceleration ⇒ velocity-direction flux identically zero ⇒ for
        // each velocity cell, summing means over x conserves that slab.
        let nv = op.grid.vel.len();
        for vlin in 0..nv {
            let slab: f64 = (0..op.grid.conf.len())
                .map(|c| out.cell(c * nv + vlin)[0])
                .sum();
            assert!(slab.abs() < 1e-12, "slab {vlin} leak {slab}");
        }
    }

    #[test]
    fn uniform_plasma_zero_field_is_steady() {
        // Spatially uniform f, no fields: every term vanishes identically.
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 2), 1);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[4]),
            CartGrid::new(&[-5.0, -5.0], &[5.0, 5.0], &[6, 6]),
            vec![Bc::Periodic],
        );
        let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, 3, &mut |_x, v| {
            maxwellian(1.0, &[0.0, 0.0], 1.0, v)
        });
        let em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
        let op = VlasovOp::new(kernels, grid, FluxKind::Upwind);
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        let mut ws = VlasovWorkspace::for_kernels(&op.kernels);
        op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);
        assert!(
            out.max_abs() < 1e-12,
            "uniform steady state violated: {}",
            out.max_abs()
        );
    }

    #[test]
    fn constant_e_field_accelerates_with_correct_sign() {
        // Uniform f, constant E_x > 0, negative charge: ∂f/∂t = −α ∂f/∂v
        // with α = qm E < 0 pushes the distribution toward negative v:
        // d/dt ∫ v f dz = qm E ∫ f < 0.
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 2);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[2]),
            CartGrid::new(&[-8.0], &[8.0], &[16]),
            vec![Bc::Periodic],
        );
        let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, 4, &mut |_x, v| {
            maxwellian(1.0, &[0.0], 1.0, v)
        });
        let mut em = DgField::zeros(grid.conf.len(), NCOMP * kernels.nc());
        let nc = kernels.nc();
        let c0 = dg_basis::expand::const_coeff(&kernels.conf_basis);
        for c in 0..grid.conf.len() {
            em.cell_mut(c)[0] = 2.0 * c0; // E_x = 2
        }
        let op = VlasovOp::new(Arc::clone(&kernels), grid.clone(), FluxKind::Upwind);
        let mut out = DgField::zeros(sp.f.ncells(), sp.f.ncoeff());
        let mut ws = VlasovWorkspace::for_kernels(&kernels);
        op.accumulate_rhs(sp.qm(), &sp.f, &em, &mut out, &mut ws);

        // d/dt M1 via the moment kernels applied to the RHS.
        let mut dm1 = vec![0.0; nc];
        let jv = grid.vel_jacobian();
        let nv = grid.vel.len();
        let mut vidx = [0usize; 1];
        for clin in 0..grid.conf.len() {
            for vlin in 0..nv {
                grid.vel.delinearize(vlin, &mut vidx);
                let vc = grid.vel.center(0, vidx[0]);
                kernels.moments.accumulate_m1(
                    0,
                    out.cell(clin * nv + vlin),
                    jv,
                    vc,
                    grid.vel.dx()[0],
                    &mut dm1,
                );
            }
        }
        // Mean of dM1/dt over the domain: qm E n = (−1)(2)(1) = −2 per unit
        // volume; two conf cells of width 0.5 each.
        let mean_dm1: f64 = dm1[0] / c0 / grid.conf.len() as f64;
        assert!(
            (mean_dm1 + 2.0).abs() < 1e-6,
            "momentum change rate {mean_dm1}, want −2"
        );
    }
}
