//! The untraced run: end-to-end metrics through the public front doors
//! (`AppBuilder::build`, `App::run`, `Ensemble::run`) with telemetry
//! off, and the correctness checks every operation must pass.

use crate::stats::{median, CheckResult, Outcome};
use crate::workloads::{gamma_theory, AppProblem, Rng, SweepProblem};
use dg_core::app::App;
use dg_core::error::Error;
use dg_core::observer::Observer;
use dg_core::system::SystemState;
use dg_diag::fit::{envelope_peaks, growth_rate};
use dg_ensemble::{Ensemble, EnsembleConfig, EnsembleReport, SetupFn, SweepSpec};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Relative particle-number drift every run must stay under (the bound
/// `tests/conservation.rs` holds).
pub const DRIFT_BOUND: f64 = 1e-12;
/// Largest |γ_fit − γ_theory| a sweep job may show (the full-fidelity
/// gate of `examples/landau_sweep.rs`).
pub const GAMMA_BOUND: f64 = 0.01;

/// Timed App runs per benchmark run, at least, whatever `--seconds`
/// says.
pub const MIN_OPS: usize = 3;
/// Timed sweeps per benchmark run, at least.
pub const MIN_SWEEPS: usize = 2;

/// One timed `App::run` from the problem's initial state.
pub struct AppRun {
    pub run_s: f64,
    pub steps: usize,
    pub checks: Vec<CheckResult>,
}

/// Build once, timing `AppBuilder::build`.
pub fn timed_build(builder: dg_core::app::AppBuilder) -> Result<(App, f64), Error> {
    let t = Instant::now();
    let app = builder.build()?;
    Ok((app, t.elapsed().as_secs_f64()))
}

/// Reset `app` to `init` at t = 0 and time `App::run` to `t_end`,
/// checking particle-number conservation and finiteness of the result.
pub fn app_run(
    app: &mut App,
    init: &SystemState,
    t_end: f64,
    observers: &mut [&mut dyn Observer],
) -> Result<AppRun, Error> {
    app.restore(init.clone(), 0.0)?;
    app.set_steps_taken(0);
    let n0 = app.system().particle_numbers(app.state());
    let t = Instant::now();
    app.run(t_end, observers)?;
    let run_s = t.elapsed().as_secs_f64();
    let n1 = app.system().particle_numbers(app.state());
    let drift = n0
        .iter()
        .zip(&n1)
        .map(|(a, b)| ((b - a) / a).abs())
        .fold(0.0, f64::max);
    let state = app.state();
    let finite =
        state.species_f.iter().all(|f| f.max_abs().is_finite()) && state.em.max_abs().is_finite();
    Ok(AppRun {
        run_s,
        steps: app.steps_taken(),
        checks: vec![drift_check(drift), finite_check(finite)],
    })
}

fn drift_check(drift: f64) -> CheckResult {
    CheckResult {
        name: "particle_number_drift",
        bound: format!("<= {DRIFT_BOUND:e}"),
        passed: drift <= DRIFT_BOUND,
        observed: drift,
    }
}

fn finite_check(finite: bool) -> CheckResult {
    CheckResult {
        name: "non_finite_state",
        bound: "0 (all coefficients finite)".into(),
        passed: finite,
        observed: f64::from(u8::from(!finite)),
    }
}

fn fmt_samples(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Eop of one run: phase-space DOF × 3 RHS evaluations per SSP-RK3 step
/// × steps, per second per core.
pub fn eop(dofs: usize, steps: usize, run_s: f64, cores: usize) -> f64 {
    (dofs * 3 * steps) as f64 / (run_s * cores as f64)
}

/// `vm5d_eop` / `lbo2x2v_t2`, untraced.
pub fn app_workload(p: &AppProblem, seconds: f64, out: &mut Outcome) {
    let mut setup_s = Vec::new();
    let mut app = None;
    for _ in 0..p.setups {
        // Drop the previous App before building the next one, so the
        // peak resident set is that of one App.
        drop(app.take());
        match timed_build(p.builder(p.threads, false)) {
            Ok((a, s)) => {
                setup_s.push(s);
                app = Some(a);
            }
            Err(e) => return out.op_error("AppBuilder::build", &e),
        }
    }
    let mut app = app.expect("at least one set-up");
    let init = app.state().clone();
    let dofs = p.dofs();

    // One untimed warm-up run (checked like every other).
    match app_run(&mut app, &init, p.t_end, &mut []) {
        Ok(r) => out.op(&r.checks),
        Err(e) => return out.op_error("App::run", &e),
    }
    let (mut run_s, mut eops, mut steps) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    while run_s.len() < MIN_OPS || start.elapsed() < Duration::from_secs_f64(seconds) {
        match app_run(&mut app, &init, p.t_end, &mut []) {
            Ok(r) => {
                out.op(&r.checks);
                run_s.push(r.run_s);
                eops.push(eop(dofs, r.steps, r.run_s, p.threads));
                steps = r.steps;
            }
            Err(e) => return out.op_error("App::run", &e),
        }
    }
    out.info(
        "problem",
        format!(
            "{} DOF, {} steps to t_end = {}, {} thread(s), phase {:.4}",
            dofs, steps, p.t_end, p.threads, p.phase
        ),
    );
    out.info("setup_s samples", fmt_samples(&setup_s));
    out.info("run_s samples", fmt_samples(&run_s));
    let builds = format!("median of {} builds", setup_s.len());
    let runs = format!("median of {} runs", run_s.len());
    out.metric_noted("setup_s", median(&setup_s), "s", &builds);
    out.metric_noted("run_s", median(&run_s), "s", &runs);
    out.metric_noted("eop_dof_per_s_per_core", median(&eops), "DOF/s/core", &runs);
}

/// One `Ensemble::run` of the sweep.
pub struct SweepRun {
    pub run_s: f64,
    pub report: EnsembleReport,
}

/// Summary columns every sweep job reports.
const COLUMNS: [&str; 4] = ["gamma", "gamma_theory", "finite", "n_drift"];

/// Run one sweep over `ks` into a fresh `dir`, timing `Ensemble::run`.
pub fn run_sweep(
    p: &SweepProblem,
    ks: &[f64],
    telemetry: bool,
    dir: &Path,
) -> Result<SweepRun, Error> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let prob = p.clone();
    let setup: Arc<SetupFn> =
        Arc::new(move |params| Ok(prob.builder(params.get("k")?, 1, telemetry)));
    let sweep = SweepSpec::new("landau", setup)
        .axis("k", ks)
        .cfl(p.cfl)
        .t_end(p.t_end);
    // Initial particle numbers, captured at each job's t = 0 sample.
    let n0: Arc<Mutex<BTreeMap<String, f64>>> = Arc::default();
    let n0_probe = Arc::clone(&n0);
    let window = (1.0, 0.9 * p.t_end);
    let cfg = EnsembleConfig::new()
        .workers(p.workers)
        .sample_every(p.sample_every)
        .checkpoint_every_steps(p.checkpoint_every_steps)
        .out_dir(dir)
        .probe(move |spec, fr| {
            if fr.time == 0.0 {
                let n = fr.system.particle_numbers(fr.state)[0];
                n0_probe
                    .lock()
                    .expect("no job panicked holding the map")
                    .insert(spec.name().to_string(), n);
            }
            Ok(())
        })
        .summarize(&COLUMNS, move |o| {
            let (peak_t, peak_e) = envelope_peaks(o.times, o.field_energy);
            let usable = peak_t
                .iter()
                .filter(|&&t| t >= window.0 && t <= window.1)
                .count();
            let gamma = if usable >= 2 {
                growth_rate(&peak_t, &peak_e, window.0, window.1)
            } else {
                f64::NAN
            };
            let k = o.spec.params().try_get("k").unwrap_or(f64::NAN);
            let state = o.app.state();
            let finite = state.species_f.iter().all(|f| f.max_abs().is_finite())
                && state.em.max_abs().is_finite();
            let n1 = o.app.system().particle_numbers(state)[0];
            let drift = n0
                .lock()
                .expect("no job panicked holding the map")
                .get(o.spec.name())
                .map_or(f64::NAN, |a| ((n1 - a) / a).abs());
            vec![gamma, gamma_theory(k), f64::from(u8::from(finite)), drift]
        });
    let mut ensemble = Ensemble::new(cfg)?;
    ensemble.submit_sweep(&sweep)?;
    let t = Instant::now();
    let report = ensemble.run()?;
    Ok(SweepRun {
        run_s: t.elapsed().as_secs_f64(),
        report,
    })
}

/// Check every job of a finished sweep (one operation per job).
pub fn check_sweep(report: &EnsembleReport, out: &mut Outcome) {
    for job in &report.jobs {
        let s = &job.summary;
        let done = job.status.is_done() && s.len() == COLUMNS.len();
        let (gamma, theory, finite, drift) = if done {
            (s[0], s[1], s[2] == 1.0, s[3])
        } else {
            (f64::NAN, f64::NAN, false, f64::NAN)
        };
        let err = (gamma - theory).abs();
        out.op(&[
            CheckResult {
                name: "job_not_done",
                bound: "0 (status Done)".into(),
                passed: done,
                observed: f64::from(u8::from(!done)),
            },
            CheckResult {
                name: "landau_gamma_error",
                bound: format!("< {GAMMA_BOUND} (Canosa table)"),
                passed: err < GAMMA_BOUND,
                observed: err,
            },
            finite_check(finite),
            drift_check(drift),
        ]);
    }
}

/// Eop of one sweep: Σ over jobs of DOF × 3 × steps, per second per
/// worker.
pub fn sweep_eop(p: &SweepProblem, run: &SweepRun) -> f64 {
    let steps: usize = run.report.jobs.iter().map(|j| j.steps).sum();
    eop(p.dofs(), steps, run.run_s, p.workers)
}

/// `landau_sweep`, untraced.
pub fn sweep_workload(p: &SweepProblem, seed: u64, seconds: f64, dir: &Path, out: &mut Outcome) {
    let mut rng = Rng::new(seed);
    let (mut setup_s, mut run_s, mut eops) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while run_s.len() < MIN_SWEEPS || start.elapsed() < Duration::from_secs_f64(seconds) {
        let ks = p.draw_ks(&mut rng);
        // Set-up: `AppBuilder::build` (build plus Poisson init) of every
        // job of the coming sweep, per job; inside the sweep this cost is
        // part of run_s.
        let t = Instant::now();
        for &k in &ks {
            if let Err(e) = p.builder(k, 1, false).build() {
                return out.op_error("AppBuilder::build", &e);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64() / ks.len() as f64);
        match run_sweep(p, &ks, false, dir) {
            Ok(run) => {
                check_sweep(&run.report, out);
                eops.push(sweep_eop(p, &run));
                run_s.push(run.run_s);
            }
            Err(e) => return out.op_error("Ensemble::run", &e),
        }
    }
    out.info(
        "problem",
        format!(
            "{} sweeps x {} jobs of {} DOF, t_end = {}, {} workers",
            run_s.len(),
            p.jobs,
            p.dofs(),
            p.t_end,
            p.workers
        ),
    );
    out.info("setup_s samples", fmt_samples(&setup_s));
    out.info("run_s samples", fmt_samples(&run_s));
    out.metric_noted(
        "setup_s",
        median(&setup_s),
        "s",
        &format!(
            "AppBuilder::build per job, median of {} sweeps' jobs",
            setup_s.len()
        ),
    );
    let runs = format!("Ensemble::run, median of {} sweeps", run_s.len());
    out.metric_noted("run_s", median(&run_s), "s", &runs);
    out.metric_noted("eop_dof_per_s_per_core", median(&eops), "DOF/s/core", &runs);
}
