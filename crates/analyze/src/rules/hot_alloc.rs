//! Rule family 2: the hot-path allocation lint.
//!
//! The RHS call graph is required to be allocation-free (the dynamic
//! counting-allocator gate in `tests/alloc_free.rs` proves it for the
//! configs it runs; this rule proves the *sources* stay clean for every
//! config). Inside the configured hot-path file set, constructs that
//! heap-allocate are denied. Cold setup code inside hot files (usually
//! constructors) carries an explicit
//! `// dg-analyze: allow(hot_alloc) — <reason>` waiver; `#[cfg(test)]`
//! modules are exempt wholesale.
//!
//! `.clone()` is reported at `warning` severity: textual analysis cannot
//! see types, and cloning a `Range<usize>` is a word copy — the waiver
//! reason is where that subtlety gets documented. CI runs
//! `--deny-warnings`, so un-waived clones still fail the build.

use crate::report::{Diagnostic, Rule, Severity};
use crate::scan::SourceFile;

/// Deny-listed constructs: `(needle, what it does, severity)`.
const DENY: &[(&str, &str, Severity)] = &[
    ("vec!", "`vec![…]` heap-allocates", Severity::Error),
    ("Vec::new", "`Vec::new` creates a growable buffer", Severity::Error),
    (
        "Vec::with_capacity",
        "`Vec::with_capacity` heap-allocates",
        Severity::Error,
    ),
    (".to_vec(", "`.to_vec()` copies into a fresh allocation", Severity::Error),
    (".collect(", "`.collect()` materializes an allocation", Severity::Error),
    (".collect::", "`.collect()` materializes an allocation", Severity::Error),
    ("Box::new", "`Box::new` heap-allocates", Severity::Error),
    ("format!", "`format!` allocates a `String`", Severity::Error),
    ("String::from", "`String::from` allocates", Severity::Error),
    (".to_string(", "`.to_string()` allocates", Severity::Error),
    (".to_owned(", "`.to_owned()` may allocate", Severity::Error),
    (
        ".clone(",
        "`.clone()` on an owned buffer allocates (waive with a reason if the receiver is a cheap `Copy`-like value)",
        Severity::Warning,
    ),
];

/// Is `rel_path` in the hot-path set? The set is the RHS call graph —
/// the kinetic operator and its block-parallel driver, collisions,
/// moments, the Maxwell surface path, every generated kernel, and the
/// telemetry collection layer those sweeps call into — plus the per-cell
/// loops of set-up that run once per cell of the grid (the tabulated
/// initial-condition projection).
pub fn is_hot_path(rel_path: &str) -> bool {
    const HOT: &[&str] = &[
        "crates/basis/src/project.rs",
        "crates/core/src/vlasov.rs",
        "crates/core/src/blocks.rs",
        "crates/core/src/lbo.rs",
        "crates/core/src/moments.rs",
        "crates/maxwell/src/solver.rs",
        "crates/telemetry/src/collect.rs",
    ];
    // `generated/tests.rs` is the registry's handwritten test module
    // (included under `#[cfg(test)]` from mod.rs), not a kernel.
    HOT.contains(&rel_path)
        || (rel_path.starts_with("crates/kernels/src/generated/")
            && rel_path != "crates/kernels/src/generated/tests.rs")
}

pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !is_hot_path(&file.rel_path) {
        return Vec::new();
    }
    check_as_hot(file)
}

/// The body of the rule, path filter already applied (golden-fixture
/// tests call this directly on snippets outside the real hot set).
pub fn check_as_hot(file: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (li, line) in file.lines.iter().enumerate() {
        if file.in_test[li] {
            continue;
        }
        for &(needle, what, severity) in DENY {
            if let Some(col) = line.code.find(needle) {
                // `vec!` must not match inside an identifier (`Vec::new`
                // inside `MyVec::new_x` would be a different call):
                // require a non-word boundary before word-leading needles.
                // Method needles (`.clone(`) start with `.` and follow
                // their receiver by construction.
                if col > 0 && !needle.starts_with('.') {
                    let b = line.code.as_bytes()[col - 1];
                    if b.is_ascii_alphanumeric() || b == b'_' {
                        continue;
                    }
                }
                diags.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: li + 1,
                    rule: Rule::HotAlloc,
                    severity,
                    message: format!("{what} in hot-path file (waive cold code with `// dg-analyze: allow(hot_alloc) — <reason>`)"),
                });
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan_lines, test_mask};

    fn run(src: &str) -> Vec<Diagnostic> {
        let lines = scan_lines(src);
        let in_test = test_mask(&lines);
        check_as_hot(&SourceFile {
            rel_path: "hot.rs".into(),
            lines,
            in_test,
        })
    }

    #[test]
    fn deny_list_fires_and_tests_are_exempt() {
        let d = run(
            "fn f() {\n    let a = vec![0.0; 8];\n    let b: Vec<f64> = x.iter().collect();\n}\n",
        );
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].line, d[1].line), (2, 3));

        let d = run("#[cfg(test)]\nmod tests {\n    fn f() { let a = vec![0]; }\n}\n");
        assert!(d.is_empty());
    }

    #[test]
    fn strings_do_not_fire() {
        let d = run("fn f() { let s = \"vec![0] Box::new format!\"; }\n");
        assert!(d.is_empty());
    }

    #[test]
    fn clone_is_warning_severity() {
        let d = run("fn f() { g(range.clone()); }\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Warning);
    }
}
