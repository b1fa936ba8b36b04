//! Ensemble throughput: a Landau-damping sweep through `dg_ensemble`
//! versus a hand-rolled serial loop over the same configurations.
//!
//! Two questions, one harness:
//!
//! 1. **Overhead** — at one worker, how much wall-clock does the
//!    subsystem (queue, lifecycle tracking, sampling observers,
//!    summaries) add over a bare `for` loop that builds and runs each
//!    `App` directly?
//! 2. **Scaling** — how does the same sweep's wall-clock shrink at 2 and
//!    4 workers? Jobs are independent, so the ceiling is the host's core
//!    count; the speedup gate only arms on hosts with >= 4 cores.
//!
//! Per-job results are asserted bit-identical across all worker counts
//! while timing — the throughput numbers are only meaningful because the
//! answers do not change with the schedule.
//!
//! ```text
//! cargo bench --bench ensemble_throughput
//! ENSEMBLE_JOBS=8 ENSEMBLE_TEND=2 cargo bench --bench ensemble_throughput  # sizes
//! ```

use dg_basis::BasisKind;
use dg_bench::env_usize;
use dg_bench::report::{bench_json_path, merge_section, JsonObj};
use dg_core::app::{AppBuilder, FieldSpec, SpeciesSpec};
use dg_core::observer::{observe, Observer, Trigger};
use dg_core::species::maxwellian;
use dg_ensemble::{Ensemble, EnsembleConfig, EnsembleReport, SetupFn, SweepSpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SAMPLE_EVERY: f64 = 0.25;

fn setup(nx: usize, nv: usize) -> Arc<SetupFn> {
    Arc::new(move |p| {
        let k = p.get("k")?;
        Ok(builder(k, nx, nv))
    })
}

/// The shared per-job declaration, also used directly by the serial
/// baseline (same builder, same grids, same physics).
fn builder(k: f64, nx: usize, nv: usize) -> AppBuilder {
    let length = 2.0 * std::f64::consts::PI / k;
    AppBuilder::new()
        .conf_grid(&[0.0], &[length], &[nx])
        .poly_order(2)
        .basis(BasisKind::Serendipity)
        .cfl(0.5)
        .species(
            SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0], &[6.0], &[nv])
                .initial(move |x, v| maxwellian(1.0 + 1e-3 * (k * x[0]).cos(), &[0.0], 1.0, v)),
        )
        .field(FieldSpec::new(10.0).with_poisson_init())
}

fn sweep(jobs: usize, nx: usize, nv: usize, t_end: f64) -> (Vec<f64>, SweepSpec) {
    let (k_lo, k_hi) = (0.3, 0.6);
    let ks: Vec<f64> = (0..jobs)
        .map(|i| k_lo + (k_hi - k_lo) * i as f64 / (jobs - 1) as f64)
        .collect();
    let sweep = SweepSpec::new("landau", setup(nx, nv))
        .axis("k", &ks)
        .t_end(t_end);
    (ks, sweep)
}

fn run_ensemble(workers: usize, sw: &SweepSpec, jobs: usize) -> (f64, EnsembleReport) {
    let cfg = EnsembleConfig::new()
        .workers(workers)
        .sample_every(SAMPLE_EVERY)
        .summarize(&["efin", "pfin"], |o| {
            vec![
                *o.field_energy.last().unwrap(),
                *o.particle_energy.last().unwrap(),
            ]
        });
    let mut ens = Ensemble::new(cfg).unwrap();
    ens.submit_sweep(sw).unwrap();
    let t0 = Instant::now();
    let report = ens.run().unwrap();
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(report.counts(), (jobs, 0, 0));
    (secs, report)
}

fn main() {
    let jobs = env_usize("ENSEMBLE_JOBS", 16);
    let nx = env_usize("ENSEMBLE_NX", 8);
    let nv = env_usize("ENSEMBLE_NV", 16);
    let t_end = env_usize("ENSEMBLE_TEND", 10) as f64;
    assert!(jobs >= 2, "ENSEMBLE_JOBS must be at least 2");
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("# Ensemble throughput: {jobs}-job Landau sweep, p=2 Serendipity, {nx}x{nv} cells,");
    println!("# t_end = {t_end}, {host_cores} host cores");

    let (ks, sw) = sweep(jobs, nx, nv, t_end);

    // Single-loop baseline: a bare loop, no queue, no lifecycle, just the same
    // sampling work the ensemble's series observer performs.
    let t0 = Instant::now();
    let mut baseline = Vec::with_capacity(jobs);
    for &k in &ks {
        let mut app = builder(k, nx, nv).build().unwrap();
        let mut last = (0.0, 0.0);
        let mut sampler = observe(Trigger::EveryTime(SAMPLE_EVERY), |fr| {
            last = (fr.field_energy(), fr.particle_energy());
            Ok(())
        });
        let mut obs: Vec<&mut dyn Observer> = vec![&mut sampler];
        app.run(t_end, &mut obs).unwrap();
        drop(obs);
        drop(sampler);
        baseline.push(last);
    }
    let serial_s = t0.elapsed().as_secs_f64();
    black_box(&baseline);
    println!("# serial loop: {serial_s:>8.3} s");

    let worker_counts: [usize; 3] = [1, 2, 4];
    let mut wall_s = Vec::new();
    let mut speedups = Vec::new();
    let mut first_report: Option<EnsembleReport> = None;
    println!(
        "# {:<8} {:>10} {:>9} {:>16}",
        "workers", "wall s", "speedup", "vs serial loop"
    );
    for &w in &worker_counts {
        let (secs, report) = run_ensemble(w, &sw, jobs);
        // Same bits at every worker count, and the same final energies
        // the bare loop saw — the schedule is not allowed to change
        // physics.
        match &first_report {
            None => {
                for (rec, (efin, pfin)) in report.jobs.iter().zip(&baseline) {
                    assert_eq!(rec.summary[0].to_bits(), efin.to_bits(), "{}", rec.name);
                    assert_eq!(rec.summary[1].to_bits(), pfin.to_bits(), "{}", rec.name);
                }
                first_report = Some(report);
            }
            Some(reference) => {
                for (a, b) in reference.jobs.iter().zip(&report.jobs) {
                    let (sa, sb): (Vec<u64>, Vec<u64>) = (
                        a.summary.iter().map(|v| v.to_bits()).collect(),
                        b.summary.iter().map(|v| v.to_bits()).collect(),
                    );
                    assert_eq!(sa, sb, "job {} differs at {w} workers", a.name);
                }
            }
        }
        let speedup = wall_s.first().map_or(1.0, |&t1: &f64| t1 / secs);
        println!(
            "# {w:<8} {secs:>10.3} {speedup:>8.2}x {:>15.2}x",
            serial_s / secs
        );
        wall_s.push(secs);
        speedups.push(speedup);
    }

    let overhead_1w = wall_s[0] / serial_s - 1.0;
    println!(
        "# 1-worker subsystem overhead vs bare loop: {:+.1}%",
        100.0 * overhead_1w
    );
    let s4 = *speedups.last().unwrap();
    let gate_armed = host_cores >= 4;
    if gate_armed {
        assert!(
            s4 >= 2.0,
            "4-worker sweep speedup below the 2x acceptance gate ({s4:.2}x on {host_cores} cores)"
        );
    } else {
        println!("# scaling gate not armed: host has {host_cores} core(s), need >= 4");
    }

    let section = JsonObj::new()
        .obj(
            "config",
            JsonObj::new()
                .int("jobs", jobs as u64)
                .str("layout", "1x1v")
                .str("basis", "serendipity")
                .int("poly_order", 2)
                .int("conf_cells", nx as u64)
                .int("vel_cells", nv as u64)
                .num("t_end", t_end),
        )
        .num("serial_loop_s", serial_s)
        .num("overhead_1_worker", overhead_1w)
        .obj(
            "scaling",
            JsonObj::new()
                .int("host_cores", host_cores as u64)
                .int_array("workers", &worker_counts.map(|w| w as u64))
                .num_array("wall_s", &wall_s)
                .num_array("speedup_vs_1_worker", &speedups)
                .raw(
                    "scaling_gate_armed",
                    if gate_armed { "true" } else { "false" },
                ),
        );
    let path = bench_json_path();
    merge_section(&path, "ensemble_throughput", &section);
    println!(
        "# wrote section \"ensemble_throughput\" to {}",
        path.display()
    );
    println!("\nensemble_throughput OK");
}
