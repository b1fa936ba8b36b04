//! Smoke test of the benchmark itself: every workload, shrunk, untraced
//! and traced. Each run must exit 0, report `correct: true`, print every
//! metric `BENCHMARK.json` names for its mode with the unit named there,
//! and show that the correctness checks ran.
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (one metric object per line, as the file is written).
fn declared(section: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let body = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = body
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = body[start..].find(']').expect("section closes") + start;
    body[start..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// The string value of `"key": "..."` on one line.
fn field(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[at..].find('"')?;
    Some(line[at..at + len].to_string())
}

fn run(workload: &str, trace: u8) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let result = Command::new(env!("CARGO_BIN_EXE_dg-e2e-bench"))
        .current_dir(&root)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout).into_owned();
    assert!(
        result.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&result.stderr)
    );
    stdout
}

fn check(workload: &str, trace: u8, checks: &[&str]) {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    let section = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
        let object = &last[at..];
        let object = &object[..object.find('}').expect("metric object closes")];
        assert!(
            object.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload} trace {trace}: {name} not in {unit}: {object}"
        );
    }
    assert_eq!(
        last.matches("\"value\": ").count(),
        metrics.len(),
        "{workload} trace {trace}: metrics beyond BENCHMARK.json"
    );
    for c in checks {
        let line = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("check {c} ")))
            .unwrap_or_else(|| panic!("{workload} trace {trace}: check {c} did not run"));
        assert!(line.contains("failed   0"), "{line}");
    }
    assert!(stdout.contains("failed_ops_fraction"));
    assert!(stdout.contains("capacity_probe_cores: "));
}

const APP_CHECKS: [&str; 2] = ["particle_number_drift", "non_finite_state"];

#[test]
fn vm5d_eop_smoke() {
    check("vm5d_eop", 0, &APP_CHECKS);
    check(
        "vm5d_eop",
        1,
        &[APP_CHECKS[0], APP_CHECKS[1], "threads_bit_mismatch"],
    );
}

#[test]
fn lbo2x2v_t2_smoke() {
    check("lbo2x2v_t2", 0, &APP_CHECKS);
    check(
        "lbo2x2v_t2",
        1,
        &[APP_CHECKS[0], APP_CHECKS[1], "threads_bit_mismatch"],
    );
}

#[test]
fn landau_sweep_smoke() {
    let sweep = [
        "job_not_done",
        "landau_gamma_error",
        "non_finite_state",
        "particle_number_drift",
    ];
    check("landau_sweep", 0, &sweep);
    check(
        "landau_sweep",
        1,
        &[
            sweep[0],
            sweep[1],
            sweep[2],
            sweep[3],
            "threads_bit_mismatch",
        ],
    );
}
