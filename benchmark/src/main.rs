//! End-to-end benchmark of the DG Vlasov–Maxwell solver.
//!
//! Drives three workloads through the public front doors
//! (`AppBuilder::build`, `App::run`, `Ensemble::run`), checks the
//! physics of every operation, and prints one JSON result line last:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload vm5d_eop --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `--workload vm5d_eop | lbo2x2v_t2 | landau_sweep`
//! * `--seed N` draws the inputs (perturbation phase, sweep wavenumbers);
//! * `--seconds S` is how long the timed loop runs (at least 3 App runs
//!   or 2 sweeps, whatever `S` says);
//! * `--trace 0` prints the end-to-end metrics, measured untraced;
//!   `--trace 1` prints the per-layer metrics of a traced run;
//! * `--out DIR` is where outputs go (default `bench_out`, relative to
//!   the working directory);
//! * `--smoke` shrinks every workload for the benchmark's own tests.
//!
//! Run from the repository root: the provenance digest reads `crates/`.

mod e2e;
mod host;
mod layers;
mod stats;
mod workloads;

use stats::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{AppProblem, SweepProblem, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: dg-e2e-bench --workload <vm5d_eop|lbo2x2v_t2|landau_sweep> \
     --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut out) = (false, PathBuf::from("bench_out"));
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new("crates").is_dir() {
        eprintln!("run from the repository root: no crates/ directory here");
        return ExitCode::from(2);
    }
    let dir = args.out.join(format!(
        "{}_seed{}_trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut out = Outcome::default();
    let capacity = host::capacity_probe();
    out.info("workload", args.workload.name());
    out.info("seed", args.seed);
    out.info(
        "mode",
        if args.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
    );
    out.info("git_rev", host::git_rev());
    out.info("source_digest", host::source_digest());
    out.info("nproc", host::nproc());
    out.info("capacity_probe_cores", format!("{capacity:.3}"));
    if args.smoke {
        out.info("size", "smoke (shrunk)");
    }

    let seconds = args.seconds;
    match (args.workload, args.trace) {
        (Workload::LandauSweep, false) => e2e::sweep_workload(
            &SweepProblem::new(args.smoke),
            args.seed,
            seconds,
            &dir.join("sweep"),
            &mut out,
        ),
        (Workload::LandauSweep, true) => {
            let p = SweepProblem::new(args.smoke);
            if let Err(e) = layers::sweep_workload(&p, args.seed, seconds, capacity, &dir, &mut out)
            {
                out.op_error("traced run", &e);
            }
        }
        (w, false) => e2e::app_workload(
            &AppProblem::new(w, args.smoke, args.seed),
            seconds,
            &mut out,
        ),
        (w, true) => {
            let p = AppProblem::new(w, args.smoke, args.seed);
            if let Err(e) = layers::app_workload(&p, seconds, capacity, &dir, &mut out) {
                out.op_error("traced run", &e);
            }
        }
    }
    if args.trace {
        out.metric_noted(
            "host.capacity_cores",
            capacity,
            "cores",
            "two-thread spin probe",
        );
    } else {
        let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
        out.metric_noted("peak_rss_mb", rss, "MiB", "VmHWM");
    }

    print_outcome(&out, args.trace);
    let line = out.json_line();
    if let Err(e) = std::fs::write(dir.join("result.json"), format!("{line}\n")) {
        eprintln!("cannot write the result file: {e}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    ExitCode::SUCCESS
}

fn print_outcome(out: &Outcome, trace: bool) {
    println!("== dg-e2e-bench");
    for (k, v) in &out.info {
        println!("  {k}: {v}");
    }
    println!("checks:");
    for c in &out.checks {
        println!(
            "  check {:<24} bound {:<38} ran {:>4}  failed {:>3}  worst {:.3e}",
            c.name, c.bound, c.ran, c.failed, c.worst
        );
    }
    println!(
        "{} metrics:",
        if trace { "per-layer" } else { "end-to-end" }
    );
    for m in &out.metrics {
        println!(
            "  {:<34} {:>16.6e} {:<10} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let fraction = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16.6e} {:<10} {} of {} operations failed a check",
        "failed_ops_fraction", fraction, "fraction", out.failed, out.attempted
    );
}
