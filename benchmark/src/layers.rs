//! The traced run: per-layer metrics.
//!
//! Spans are recorded from the benchmark's own code around the calls it
//! makes into each layer (`kernels_for`, `Species::project_initial`,
//! `AppBuilder::build`, every step through an `EverySteps(1)` observer,
//! `App::run`, `Ensemble::run`) and merged with the solver's own
//! `dg_telemetry` phase snapshot — `App::telemetry_snapshot` for the App
//! workloads, each job's `telemetry.json` and `summary.csv` for the
//! sweep. Nothing new is traced inside the program. Untraced runs made
//! here only serve the telemetry overhead and the thread comparison;
//! end-to-end figures come from `--trace 0`.

use crate::e2e::{self, app_run, check_sweep, run_sweep, timed_build, MIN_OPS};
use crate::stats::{median, quantile, CheckResult, Outcome};
use crate::workloads::{AppProblem, Rng, SweepProblem};
use dg_basis::BasisKind;
use dg_core::app::App;
use dg_core::error::Error;
use dg_core::observer::{observe, Observer, Trigger};
use dg_core::species::Species;
use dg_core::system::SystemState;
use dg_diag::snapshot::{self, Checkpoint};
use dg_kernels::dispatch::{find_surface_kernel, find_volume_kernel};
use dg_kernels::{kernels_for, PhaseKernels, PhaseLayout};
use dg_telemetry::{Counter, Phase, Snapshot};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span: name, parent, start and end relative to the run.
struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span log, written out when the run ends.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start: start - self.t0,
            end: end - self.t0,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span; returns its result and duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(name, parent, start, end);
        (value, (end - start).as_secs_f64())
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.t0.elapsed();
    }

    /// Self time of every span name: duration minus what its child spans
    /// cover, summed per name — printed with the per-layer table.
    pub fn self_times(&self) -> Vec<(String, usize, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out: Vec<(String, usize, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end - s.start).as_secs_f64() - child[i];
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += own;
                }
                None => out.push((s.name.clone(), 1, own)),
            }
        }
        out
    }

    /// Write the log as JSON lines (`id`, `parent`, `name`, `start_s`,
    /// `end_s`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut body = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            body.push_str(&format!(
                "{{\"id\": {i}, \"parent\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}\n",
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64()
            ));
        }
        std::fs::write(path, body)
    }
}

/// Achieved rates of the committed generated kernels by isolated calls
/// over every cell of a workload's state.
fn kernel_rates(kernels: &PhaseKernels, app: &App, out: &mut Outcome) -> Result<(), Error> {
    let layout = kernels.layout;
    let missing = || Error::Build(format!("no generated kernels for {}", layout.tag()));
    let vol = find_volume_kernel(BasisKind::Serendipity, layout, 2)
        .ok_or_else(missing)?
        .func;
    let surf = find_surface_kernel(BasisKind::Serendipity, layout, 2)
        .ok_or_else(missing)?
        .dirs;
    let sys = app.system();
    let grid = &sys.grid;
    let f = &app.state().species_f[0];
    let em = &app.state().em;
    let qm = sys.species[0].qm();
    let (np, nc, ndim) = (kernels.np(), kernels.nc(), layout.ndim());
    let ncells = grid.len();
    let mut dxv = vec![0.0; ndim];
    grid.cell_size(&mut dxv);
    // Cell centers and configuration cells, precomputed outside timing.
    let mut w = vec![0.0; ncells * ndim];
    let mut conf_of = vec![0usize; ncells];
    let mut cidx = vec![0usize; layout.cdim];
    let mut vidx = vec![0usize; layout.vdim];
    for c in 0..grid.conf.len() {
        grid.conf.delinearize(c, &mut cidx);
        for v in 0..grid.vel.len() {
            grid.vel.delinearize(v, &mut vidx);
            let cell = grid.phase_index(c, v);
            grid.cell_center(&cidx, &vidx, &mut w[cell * ndim..(cell + 1) * ndim]);
            conf_of[cell] = c;
        }
    }
    let mut rhs = vec![0.0; ncells * np];
    let mut hi = vec![0.0; ncells * np];
    let volume_pass = |rhs: &mut [f64]| {
        for cell in 0..ncells {
            vol(
                &w[cell * ndim..(cell + 1) * ndim],
                &dxv,
                qm,
                em.cell(conf_of[cell]),
                black_box(f.cell(cell)),
                &mut rhs[cell * np..(cell + 1) * np],
            );
        }
    };
    // Each direction's face between a cell and its memory successor.
    let surface_pass = |rhs: &mut [f64], hi: &mut [f64]| {
        for kernel in surf {
            for cell in 0..ncells {
                let next = (cell + 1) % ncells;
                kernel(
                    &w[cell * ndim..(cell + 1) * ndim],
                    &dxv,
                    qm,
                    em.cell(conf_of[cell]),
                    true,
                    black_box(f.cell(cell)),
                    f.cell(next),
                    &mut rhs[cell * np..(cell + 1) * np],
                    &mut hi[next * np..(next + 1) * np],
                );
            }
        }
    };
    let vol_s = repeat_median(|| volume_pass(&mut rhs));
    let surf_s = repeat_median(|| surface_pass(&mut rhs, &mut hi));
    black_box((&rhs, &hi));
    let vol_ns = vol_s * 1e9 / ncells as f64;
    let face_ns = surf_s * 1e9 / (ncells * surf.len()) as f64;
    let mults = kernels.op_report().total() as f64;
    // One volume call plus one face per direction per cell update (the
    // OpReport's attribution).
    let cell_ns = vol_ns + ndim as f64 * face_ns;
    // Volume: read f, read-modify-write the RHS, read six EM components.
    // Face: read both sides' f, read-modify-write both RHS blocks, EM.
    let bytes = 8 * ((3 * np + 6 * nc) + ndim * (6 * np + 6 * nc));
    out.metric("kernels.mults_per_cell", mults, "count");
    out.metric_noted(
        "kernels.volume_ns_per_cell",
        vol_ns,
        "ns",
        &format!("generated volume kernel over {ncells} cells"),
    );
    out.metric_noted(
        "kernels.surface_ns_per_face",
        face_ns,
        "ns",
        &format!("generated surface kernels, {} directions", surf.len()),
    );
    out.metric_noted(
        "kernels.gmul_per_s",
        mults / cell_ns,
        "Gmul/s",
        "OpReport multiplies per achieved cell-update time",
    );
    out.metric_noted(
        "kernels.bytes_per_cell",
        bytes as f64,
        "B",
        "computed from array sizes, not measured",
    );
    Ok(())
}

/// Median wall time of `f` over at least 3 calls and 0.3 s.
fn repeat_median(mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 3 || start.elapsed() < Duration::from_millis(300) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// `Species::project_initial` on the workload's grid and initial
/// condition (the App's default `p + 3` Gauss points).
fn project_species(
    spans: &mut Spans,
    parent: usize,
    kernels: &Arc<PhaseKernels>,
    app: &App,
    mut f0: impl FnMut(&[f64], &[f64]) -> f64,
    out: &mut Outcome,
) {
    let grid = &app.system().grid;
    let mut sp = Species::new("elc", -1.0, 1.0, grid, kernels.np());
    let ((), s) = spans.time("Species::project_initial", Some(parent), || {
        sp.project_initial(kernels, grid, 5, &mut f0)
    });
    out.metric("species.project_s", s, "s");
}

/// `dg_diag::snapshot::save` of a workload-sized state.
fn checkpoint_write(state: &SystemState, dir: &Path, out: &mut Outcome) -> Result<(), Error> {
    let path = dir.join("checkpoint_probe.vdg");
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        snapshot::save(&path, state, 0.0)?;
        times.push(t.elapsed().as_secs_f64());
    }
    std::fs::remove_file(&path)?;
    out.metric_noted(
        "diag.checkpoint_write_s",
        median(&times),
        "s",
        "median of 5 saves",
    );
    Ok(())
}

/// Per-step samples taken by the benchmark's `EverySteps(1)` observer.
#[derive(Default)]
struct StepLog {
    /// Step wall times (observer work excluded).
    step_s: Vec<f64>,
    /// Σ dt taken, and Σ CFL dt available at each step's start.
    dt_sum: f64,
    cfl_dt_sum: f64,
}

/// Run `app` from `init` with telemetry on and the step timer attached,
/// plus `extra` observers; returns the run and its telemetry delta.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    spans: &mut Spans,
    parent: usize,
    app: &mut App,
    init: &SystemState,
    t_end: f64,
    cfl: f64,
    extra: &mut [&mut dyn Observer],
    log: &mut StepLog,
) -> Result<(e2e::AppRun, Snapshot), Error> {
    let before = app
        .telemetry_snapshot()
        .expect("traced App has telemetry on");
    let run_span = spans.open("App::run", Some(parent));
    // (fire start, fire end, time, CFL dt) per firing.
    let mut fires: Vec<(Instant, Instant, f64, f64)> = Vec::new();
    let result = {
        let mut timer = observe(Trigger::EverySteps(1), |fr| {
            let t_in = Instant::now();
            let cdt = dg_core::cfl::suggest_dt(fr.system, fr.state, cfl);
            fires.push((t_in, Instant::now(), fr.time, cdt));
            Ok(())
        })
        .named("bench-step-timer");
        let mut obs: Vec<&mut dyn Observer> = vec![&mut timer];
        for o in extra.iter_mut() {
            obs.push(&mut **o);
        }
        app_run(app, init, t_end, &mut obs)
    };
    spans.close(run_span);
    for pair in fires.windows(2) {
        let (prev, cur) = (pair[0], pair[1]);
        spans.record("step", Some(run_span), prev.1, cur.0);
        log.step_s.push((cur.0 - prev.1).as_secs_f64());
        log.dt_sum += cur.2 - prev.2;
        log.cfl_dt_sum += prev.3;
    }
    let run = result?;
    let delta = app
        .telemetry_snapshot()
        .expect("traced App has telemetry on")
        .delta(&before);
    Ok((run, delta))
}

/// Phase-time and counter metrics from per-operation telemetry.
fn phase_metrics(per_op: &[Snapshot], steps: usize, out: &mut Outcome) {
    let phase_s = |p: Phase| {
        median(
            &per_op
                .iter()
                .map(|s| s.phase_ns(p) as f64 * 1e-9)
                .collect::<Vec<_>>(),
        )
    };
    let count = |c: Counter| per_op.last().map_or(0, |s| s.counter(c)) as f64;
    let ops = format!("per operation, median of {}", per_op.len());
    for (name, phase) in [
        ("vlasov.volume_s", Phase::Volume),
        ("vlasov.surface_s", Phase::Surface),
        ("vlasov.ghosts_s", Phase::Ghosts),
        ("lbo.drag_s", Phase::LboDrag),
        ("lbo.diff_s", Phase::LboDiff),
        ("lbo.moments_s", Phase::Moments),
        ("maxwell.rhs_s", Phase::MaxwellRhs),
        ("maxwell.field_coupling_s", Phase::FieldCoupling),
        ("app.step_control_s", Phase::StepControl),
        ("app.observers_s", Phase::Observers),
    ] {
        out.metric_noted(name, phase_s(phase), "s", &ops);
    }
    out.metric("vlasov.cells_swept", count(Counter::CellsSwept), "count");
    out.metric("vlasov.faces_swept", count(Counter::FacesSwept), "count");
    let sweep_ns = median(
        &per_op
            .iter()
            .map(|s| {
                (s.phase_ns(Phase::Volume) + s.phase_ns(Phase::Surface)) as f64
                    / s.counter(Counter::DofProcessed).max(1) as f64
            })
            .collect::<Vec<_>>(),
    );
    out.metric_noted(
        "vlasov.ns_per_dof",
        sweep_ns,
        "ns",
        "(volume + surface) / DOF processed",
    );
    out.metric("app.steps", steps as f64, "count");
    out.metric("app.rhs_evals", count(Counter::RhsEvals), "count");
}

fn step_metrics(log: &StepLog, out: &mut Outcome) {
    let n = log.step_s.len();
    out.metric_noted(
        "app.step_s_p50",
        median(&log.step_s),
        "s",
        &format!("{n} step samples"),
    );
    out.metric_noted(
        "app.step_s_p90",
        quantile(&log.step_s, 0.9),
        "s",
        &format!("{n} step samples, {} beyond p90", n / 10),
    );
    out.metric("app.step_samples", n as f64, "count");
    out.metric_noted(
        "app.dt_utilisation",
        log.dt_sum / log.cfl_dt_sum,
        "fraction",
        "Σdt / Σ CFL dt",
    );
}

fn speedup_metric(t1: &[f64], t2: &[f64], capacity: f64, out: &mut Outcome) {
    let note = if capacity < 1.5 {
        format!("probe finds {capacity:.2} cores: measured, not a scaling claim")
    } else {
        format!("probe finds {capacity:.2} cores")
    };
    out.metric_noted("blocks.speedup_2t", median(t1) / median(t2), "ratio", &note);
}

fn overhead_metric(untraced: &[f64], traced: &[f64], out: &mut Outcome) {
    out.metric_noted(
        "telemetry.overhead_fraction",
        median(traced) / median(untraced) - 1.0,
        "fraction",
        &format!("traced / untraced run_s - 1, {} pairs", traced.len()),
    );
}

/// Bitwise equality of two states.
fn bit_identical(a: &SystemState, b: &SystemState) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.species_f.len() == b.species_f.len()
        && a.species_f
            .iter()
            .zip(&b.species_f)
            .all(|(x, y)| same(x.as_slice(), y.as_slice()))
        && same(a.em.as_slice(), b.em.as_slice())
}

fn identity_check(same: bool) -> CheckResult {
    CheckResult {
        name: "threads_bit_mismatch",
        bound: "0 (threads(2) == threads(1) bitwise)".into(),
        passed: same,
        observed: f64::from(u8::from(!same)),
    }
}

fn not_applicable(names: &[(&str, &'static str)], why: &str, out: &mut Outcome) {
    for (name, unit) in names {
        out.metric_noted(name, 0.0, unit, &format!("n/a: {why}"));
    }
}

const ENSEMBLE_METRICS: [(&str, &str); 5] = [
    ("ensemble.job_run_s_p50", "s"),
    ("ensemble.queue_wait_s_p50", "s"),
    ("ensemble.job_overhead_s_p50", "s"),
    ("ensemble.worker_busy_fraction", "fraction"),
    ("ensemble.retries", "count"),
];

/// `vm5d_eop` / `lbo2x2v_t2`, traced.
pub fn app_workload(
    p: &AppProblem,
    seconds: f64,
    capacity: f64,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), Error> {
    let mut spans = Spans::new();
    let root = spans.open(p.workload.name(), None);
    let (kernels, s) = spans.time("kernels_for", Some(root), || {
        kernels_for(BasisKind::Serendipity, p.layout(), 2)
    });
    out.metric_noted("kernels.build_s", s, "s", "cold, first call in the process");

    let other = if p.threads == 1 { 2 } else { 1 };
    let (built, _) = spans.time("AppBuilder::build", Some(root), || -> Result<_, Error> {
        Ok((
            timed_build(p.builder(p.threads, false))?.0,
            timed_build(p.builder(p.threads, true))?.0,
            timed_build(p.builder(other, false))?.0,
        ))
    });
    let (mut main, mut traced, mut alt) = built?;
    kernel_rates(&kernels, &main, out)?;
    project_species(&mut spans, root, &kernels, &main, p.initial(), out);
    let init = main.state().clone();

    // Interleave untraced, traced and other-thread-count runs so slow
    // drift of the host hits all three alike.
    let (mut untraced_s, mut traced_s, mut alt_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut per_op, mut steps) = (Vec::new(), 0);
    let mut log = StepLog::default();
    let start = Instant::now();
    let alt_name = format!("App::run untraced threads({other})");
    while traced_s.len() < MIN_OPS || start.elapsed() < Duration::from_secs_f64(seconds) {
        let (r, _) = spans.time("App::run untraced", Some(root), || {
            app_run(&mut main, &init, p.t_end, &mut [])
        });
        let r = r?;
        out.op(&r.checks);
        untraced_s.push(r.run_s);
        let (r, snap) = traced_run(
            &mut spans,
            root,
            &mut traced,
            &init,
            p.t_end,
            p.cfl,
            &mut [],
            &mut log,
        )?;
        out.op(&r.checks);
        steps = r.steps;
        traced_s.push(r.run_s);
        per_op.push(snap);
        let (r, _) = spans.time(&alt_name, Some(root), || {
            app_run(&mut alt, &init, p.t_end, &mut [])
        });
        let mut r = r?;
        r.checks
            .push(identity_check(bit_identical(main.state(), alt.state())));
        out.op(&r.checks);
        alt_s.push(r.run_s);
    }
    spans.close(root);

    phase_metrics(&per_op, steps, out);
    step_metrics(&log, out);
    let (t1, t2) = if p.threads == 1 {
        (&untraced_s, &alt_s)
    } else {
        (&alt_s, &untraced_s)
    };
    speedup_metric(t1, t2, capacity, out);
    out.metric_noted(
        "diag.bytes_written",
        0.0,
        "B",
        "no observer output in this workload",
    );
    checkpoint_write(&init, dir, out)?;
    not_applicable(&ENSEMBLE_METRICS, "no ensemble in this workload", out);
    overhead_metric(&untraced_s, &traced_s, out);
    finish_trace(&spans, dir)
}

/// `landau_sweep`, traced.
pub fn sweep_workload(
    p: &SweepProblem,
    seed: u64,
    seconds: f64,
    capacity: f64,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), Error> {
    let mut spans = Spans::new();
    let root = spans.open("landau_sweep", None);
    let layout: PhaseLayout = p.layout();
    let (kernels, s) = spans.time("kernels_for", Some(root), || {
        kernels_for(BasisKind::Serendipity, layout, 2)
    });
    out.metric_noted("kernels.build_s", s, "s", "cold, first call in the process");

    // The same inputs as the untraced run with this seed.
    let mut rng = Rng::new(seed);
    let first = p.draw_ks(&mut rng);
    let k_rep = first[first.len() / 2];
    let (built, _) = spans.time("AppBuilder::build", Some(root), || -> Result<_, Error> {
        Ok((
            timed_build(p.builder(k_rep, 1, false))?.0,
            timed_build(p.builder(k_rep, 2, false))?.0,
            timed_build(p.builder(k_rep, 1, true))?.0,
        ))
    });
    let (mut one, mut two, mut traced) = built?;
    kernel_rates(&kernels, &one, out)?;
    project_species(
        &mut spans,
        root,
        &kernels,
        &one,
        crate::workloads::landau_initial(k_rep),
        out,
    );
    let init = one.state().clone();

    // One representative job, stepped with the ensemble's observers
    // (series sampling, checkpoints) plus the step timer.
    let mut log = StepLog::default();
    let rep_dir = dir.join("representative_job");
    std::fs::create_dir_all(&rep_dir)?;
    {
        let mut sampler = observe(Trigger::EveryTime(p.sample_every), |fr| {
            black_box((fr.field_energy(), fr.particle_energy()));
            Ok(())
        });
        let mut ckpt = Checkpoint::new(
            &rep_dir,
            "ckpt",
            Trigger::EverySteps(p.checkpoint_every_steps),
        );
        let r = traced_run(
            &mut spans,
            root,
            &mut traced,
            &init,
            p.t_end,
            p.cfl,
            &mut [&mut sampler, &mut ckpt],
            &mut log,
        )?
        .0;
        out.op(&r.checks);
    }
    std::fs::remove_dir_all(&rep_dir)?;

    // threads(1) against threads(2) on the representative job.
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for _ in 0..MIN_OPS {
        let (r, _) = spans.time("App::run untraced threads(1)", Some(root), || {
            app_run(&mut one, &init, p.t_end, &mut [])
        });
        let r = r?;
        out.op(&r.checks);
        t1.push(r.run_s);
        let (r, _) = spans.time("App::run untraced threads(2)", Some(root), || {
            app_run(&mut two, &init, p.t_end, &mut [])
        });
        let mut r = r?;
        r.checks
            .push(identity_check(bit_identical(one.state(), two.state())));
        out.op(&r.checks);
        t2.push(r.run_s);
    }

    // Untraced and traced sweeps, alternating.
    let sweep_dir = dir.join("sweep");
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut per_op, mut jobs, mut steps) = (Vec::new(), JobFigures::default(), 0);
    let (mut busy, mut retries, mut bytes) = (Vec::new(), 0usize, Vec::new());
    let mut ks = first;
    let start = Instant::now();
    while traced_s.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds) {
        let (run, _) = spans.time("Ensemble::run untraced", Some(root), || {
            run_sweep(p, &ks, false, &sweep_dir)
        });
        let run = run?;
        check_sweep(&run.report, out);
        untraced_s.push(run.run_s);
        busy.push(run.report.stats.utilization);
        retries += run.report.jobs.iter().map(|j| j.retries).sum::<usize>();
        for job in &run.report.jobs {
            bytes.push(dir_bytes(&sweep_dir.join(&job.name)) as f64);
        }

        let span = spans.open("Ensemble::run", Some(root));
        let run = run_sweep(p, &ks, true, &sweep_dir)?;
        spans.close(span);
        check_sweep(&run.report, out);
        traced_s.push(run.run_s);
        retries += run.report.jobs.iter().map(|j| j.retries).sum::<usize>();
        let mut total = Snapshot::default();
        for job in &run.report.jobs {
            let job_dir = sweep_dir.join(&job.name);
            let (snap, wall_s) = read_telemetry(&job_dir)?;
            total.merge(&snap);
            let (queue_wait_s, run_s) = read_summary_timing(&job_dir)?;
            jobs.run_s.push(run_s);
            jobs.queue_wait_s.push(queue_wait_s);
            jobs.overhead_s.push(run_s - wall_s);
        }
        per_op.push(total);
        steps = run.report.jobs.iter().map(|j| j.steps).sum();
        ks = p.draw_ks(&mut rng);
    }
    std::fs::remove_dir_all(&sweep_dir)?;
    spans.close(root);

    phase_metrics(&per_op, steps, out);
    step_metrics(&log, out);
    speedup_metric(&t1, &t2, capacity, out);
    out.metric_noted(
        "diag.bytes_written",
        median(&bytes),
        "B",
        "per job: series, checkpoints, summary",
    );
    checkpoint_write(&init, dir, out)?;
    let n = jobs.run_s.len();
    out.metric_noted(
        "ensemble.job_run_s_p50",
        median(&jobs.run_s),
        "s",
        &format!("summary.csv, {n} jobs"),
    );
    out.metric_noted(
        "ensemble.queue_wait_s_p50",
        median(&jobs.queue_wait_s),
        "s",
        &format!("summary.csv, {n} jobs"),
    );
    out.metric_noted(
        "ensemble.job_overhead_s_p50",
        median(&jobs.overhead_s),
        "s",
        "summary.csv run_s - telemetry.json wall_s",
    );
    out.metric_noted(
        "ensemble.worker_busy_fraction",
        median(&busy),
        "fraction",
        &format!("probe finds {capacity:.2} cores"),
    );
    out.metric("ensemble.retries", retries as f64, "count");
    overhead_metric(&untraced_s, &traced_s, out);
    finish_trace(&spans, dir)
}

#[derive(Default)]
struct JobFigures {
    run_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    overhead_s: Vec<f64>,
}

fn finish_trace(spans: &Spans, dir: &Path) -> Result<(), Error> {
    spans.write(&dir.join("spans.jsonl"))?;
    println!("span self times (benchmark-side spans):");
    for (name, n, own) in spans.self_times() {
        println!("  {name:<28} {n:>6} spans  {own:>12.6} s self");
    }
    Ok(())
}

/// Total bytes of the files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn parse_error(what: &str, dir: &Path) -> Error {
    Error::Build(format!("unreadable {what} in {}", dir.display()))
}

/// A job's `telemetry.json`: the merged phase snapshot and `wall_s`.
fn read_telemetry(dir: &Path) -> Result<(Snapshot, f64), Error> {
    let body = std::fs::read_to_string(dir.join("telemetry.json"))?;
    let err = || parse_error("telemetry.json", dir);
    let number = |key: &str| -> Option<&str> {
        let at = body.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &body[at..];
        let rest = rest.strip_prefix("{\"ns\": ").unwrap_or(rest);
        let end = rest.find([',', '}', '\n'])?;
        Some(rest[..end].trim())
    };
    let mut snap = Snapshot::default();
    for p in Phase::ALL {
        snap.ns[p.idx()] = number(p.name())
            .and_then(|v| v.parse().ok())
            .ok_or_else(err)?;
    }
    for c in Counter::ALL {
        snap.counters[c.idx()] = number(c.name())
            .and_then(|v| v.parse().ok())
            .ok_or_else(err)?;
    }
    let wall_s = number("wall_s")
        .and_then(|v| v.parse().ok())
        .ok_or_else(err)?;
    Ok((snap, wall_s))
}

/// `(queue_wait_s, run_s)` from a job's `summary.csv`.
fn read_summary_timing(dir: &Path) -> Result<(f64, f64), Error> {
    let body = std::fs::read_to_string(dir.join("summary.csv"))?;
    let mut lines = body.lines();
    let (Some(header), Some(row)) = (lines.next(), lines.next()) else {
        return Err(parse_error("summary.csv", dir));
    };
    let row: Vec<&str> = row.split(',').collect();
    let column = |name: &str| -> Option<f64> {
        let i = header.split(',').position(|h| h == name)?;
        row.get(i)?.parse().ok()
    };
    match (column("queue_wait_s"), column("run_s")) {
        (Some(q), Some(r)) => Ok((q, r)),
        _ => Err(parse_error("summary.csv", dir)),
    }
}
