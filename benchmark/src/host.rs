//! Host capacity, memory and provenance: what every result records
//! about where and on what it ran.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Real parallel capacity seen by two threads: the wall time of one
/// fixed spin on one thread, against the same spin run on two threads
/// at once, scaled so 2.0 means two cores of real capacity and 1.0
/// means the two threads share one. `available_parallelism` can report
/// 2 where this finds 1, so thread- and worker-scaling figures are
/// printed next to it and never claimed when it finds one core.
pub fn capacity_probe() -> f64 {
    const SPINS: u64 = 40_000_000;
    let one = |n| {
        let t = Instant::now();
        spin(n);
        t.elapsed().as_secs_f64()
    };
    let two = |n| {
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(n));
            let b = s.spawn(|| spin(n));
            a.join().expect("probe thread does not panic");
            b.join().expect("probe thread does not panic");
        });
        t.elapsed().as_secs_f64()
    };
    let t1 = crate::stats::median(&(0..3).map(|_| one(SPINS)).collect::<Vec<_>>());
    let t2 = crate::stats::median(&(0..3).map(|_| two(SPINS)).collect::<Vec<_>>());
    2.0 * t1 / t2
}

fn spin(n: u64) -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// Threads the OS reports (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The git revision of the checkout, when it is a git work tree.
pub fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a digest of every file under `crates/` (paths sorted): names
/// the measured source even where the checkout carries no git metadata.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        if let Ok(body) = std::fs::read(f) {
            eat(&body);
        }
    }
    format!("{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}
