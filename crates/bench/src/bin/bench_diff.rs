//! Compare two benchmark report files — the CI regression gate.
//!
//! ```text
//! bench_diff <baseline.json> <new.json>
//! ```
//!
//! Deterministic metrics (cost-model units, mask/entry counts) must match the
//! baseline bit-for-bit: any drift — in either direction — exits nonzero, because an
//! unexplained improvement means a stale baseline just as much as a regression means
//! broken code. Wall-clock metrics (`*_wall` units) only warn when they regress past
//! a fixed 25 % band, since CI wall clocks are noisy.
//!
//! A comparison that matched no deterministic metric at all — every `(name, params)`
//! identity renamed, say — guards nothing and fails too.
//!
//! Exit status: 0 clean (warnings allowed), 1 deterministic drift or nothing
//! deterministic compared, 2 usage/IO error.

use std::path::PathBuf;
use std::process::exit;

use tse_bench::report::{diff_files, ReportFile};

const USAGE: &str = "usage: bench_diff <baseline.json> <new.json>";

fn main() {
    let mut paths: Vec<PathBuf> = Vec::new();
    for a in std::env::args().skip(1) {
        if a.starts_with("--") {
            eprintln!("error: unknown argument {a:?}\n{USAGE}");
            exit(2);
        } else {
            paths.push(PathBuf::from(a));
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("{USAGE}");
        exit(2);
    };

    let load = |path: &PathBuf| {
        ReportFile::load(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(2);
        })
    };
    let (old, new) = (load(old_path), load(new_path));

    println!(
        "comparing {} (baseline) vs {} ({} report(s) each side, area {:?})",
        old_path.display(),
        new_path.display(),
        old.reports.len().max(new.reports.len()),
        new.area,
    );
    let diff = diff_files(&old, &new);
    print!("{}", diff.render());
    if diff.has_failures() {
        eprintln!("error: deterministic metrics drifted from the baseline");
        exit(1);
    }
    if diff.compared_deterministic == 0 {
        eprintln!(
            "error: no deterministic metric was compared: no (name, params) identity of \
             the baseline is in the new file, so this run gated nothing"
        );
        exit(1);
    }
}
