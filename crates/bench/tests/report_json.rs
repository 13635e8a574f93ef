//! Integration tests of the benchmark-report subsystem: JSON-layer round-trips
//! (including property tests over arbitrary strings and raw f64 bit patterns), the
//! non-finite rejection rules, and the `bench_diff` binary driven end-to-end as a
//! child process.

use std::path::{Path, PathBuf};
use std::process::Command;

use proptest::collection;
use proptest::prelude::*;

use tse_bench::report::{json, BenchReport, Json, Metric, ReportFile};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tse_report_it_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_documented_unit_roundtrips() {
    let units = [
        ("gbps", true, true),
        ("pps", true, true),
        ("masks", true, false),
        ("entries", true, false),
        ("packets", true, false),
        ("percent", true, false),
        ("cost_seconds", true, false),
        ("seconds_wall", false, false),
        ("mpps_wall", false, true),
        ("installs_per_sec_wall", false, true),
    ];
    let mut report = BenchReport::new("units", "default");
    for (i, (unit, deterministic, higher)) in units.iter().enumerate() {
        let value = 1.5 + i as f64 * 0.25;
        let mut m = if *deterministic {
            Metric::deterministic(&format!("m_{unit}"), unit, value)
        } else {
            Metric::wall(&format!("m_{unit}"), unit, value)
        };
        if *higher {
            m = m.higher_is_better();
        }
        report.push(m);
    }
    let mut file = ReportFile::new("units");
    file.upsert(report);
    let back = ReportFile::from_json_text(&file.to_json_text()).unwrap();
    let r = back.report("units", "default").unwrap();
    for (i, (unit, deterministic, higher)) in units.iter().enumerate() {
        let m = r.metric(&format!("m_{unit}")).unwrap();
        assert_eq!(m.unit, *unit);
        assert_eq!(m.value, 1.5 + i as f64 * 0.25);
        assert_eq!(m.deterministic, *deterministic);
        assert_eq!(m.higher_is_better, *higher);
    }
}

#[test]
fn non_finite_values_are_unrepresentable() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(json::write(&Json::Num(bad)).is_err());
    }
    // Non-finite literals and overflow-to-infinity must not parse either.
    for text in [
        "NaN",
        "Infinity",
        "-Infinity",
        "nan",
        "inf",
        "1e999",
        "-2e308",
    ] {
        assert!(json::parse(text).is_err(), "{text:?} must be rejected");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any Unicode string — escapes, control characters, astral-plane codepoints —
    /// survives a write/parse round trip exactly.
    #[test]
    fn arbitrary_strings_roundtrip(cps in collection::vec(0u32..0x110000, 0..48)) {
        let s: String = cps
            .iter()
            .filter_map(|&cp| char::from_u32(cp)) // skips the surrogate range
            .collect();
        let written = json::write(&Json::Str(s.clone())).unwrap();
        let back = json::parse(&written).unwrap();
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
    }

    /// Strings embedded as object keys round-trip too (keys take a different code
    /// path than values in the parser).
    #[test]
    fn arbitrary_object_keys_roundtrip(cps in collection::vec(0u32..0x110000, 1..24)) {
        let key: String = cps.iter().filter_map(|&cp| char::from_u32(cp)).collect();
        let obj = Json::Obj(vec![(key.clone(), Json::Num(1.0))]);
        let back = json::parse(&json::write(&obj).unwrap()).unwrap();
        prop_assert_eq!(back.get(&key).and_then(Json::as_num), Some(1.0));
    }

    /// Every finite f64 bit pattern — subnormals, -0.0, f64::MAX — round-trips
    /// bit-exactly. This is what the strict deterministic diff relies on.
    #[test]
    fn arbitrary_f64_bits_roundtrip(bits in 0u64..=u64::MAX) {
        let n = f64::from_bits(bits);
        if n.is_finite() {
            let written = json::write(&Json::Arr(vec![Json::Num(n)])).unwrap();
            let back = json::parse(&written).unwrap();
            let reparsed = back.as_arr().unwrap()[0].as_num().unwrap();
            prop_assert_eq!(reparsed.to_bits(), n.to_bits(), "{} -> {}", n, reparsed);
        } else {
            prop_assert!(json::write(&Json::Num(n)).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// The bench_diff binary, end to end.
// ---------------------------------------------------------------------------

fn write_file(path: &Path, metric_value: f64, deterministic: bool, wall_value: f64) {
    write_file_with_params(path, "duration=10", metric_value, deterministic, wall_value);
}

fn write_file_with_params(
    path: &Path,
    params: &str,
    metric_value: f64,
    deterministic: bool,
    wall_value: f64,
) {
    let mut report = BenchReport::new("fig_x", params);
    // Always one matching deterministic metric: a diff that compares none fails.
    report.push(Metric::deterministic("peak_masks", "masks", 513.0));
    report.push(if deterministic {
        Metric::deterministic("cost", "cost_seconds", metric_value)
    } else {
        Metric::wall("cost", "seconds_wall", metric_value)
    });
    report.push(Metric::wall("wall_seconds", "seconds_wall", wall_value));
    let mut file = ReportFile::new("it");
    file.upsert(report);
    file.save(path).unwrap();
}

fn bench_diff(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn bench_diff_passes_identical_files() {
    let dir = temp_dir("diff_identical");
    let (old, new) = (dir.join("old.json"), dir.join("new.json"));
    write_file(&old, 1.5e-3, true, 1.0);
    write_file(&new, 1.5e-3, true, 1.0);
    let out = bench_diff(&[old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 failure(s)"), "{stdout}");
}

#[test]
fn bench_diff_fails_on_deterministic_drift() {
    let dir = temp_dir("diff_drift");
    let (old, new) = (dir.join("old.json"), dir.join("new.json"));
    write_file(&old, 1.5e-3, true, 1.0);
    // One ULP of drift on a deterministic metric is a regression; the 100x wall
    // slowdown alongside it must stay advisory.
    write_file(&new, f64::from_bits(1.5e-3f64.to_bits() + 1), true, 100.0);
    let out = bench_diff(&[old.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("regenerate the baseline"), "{stdout}");
}

#[test]
fn bench_diff_wall_drift_warns_but_passes() {
    let dir = temp_dir("diff_wall");
    let (old, new) = (dir.join("old.json"), dir.join("new.json"));
    write_file(&old, 1.0, false, 1.0);
    write_file(&new, 2.0, false, 2.0); // 100 % slower on both wall metrics
    let out = bench_diff(&[old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 warning(s)"), "{stdout}");
}

#[test]
fn bench_diff_usage_errors_exit_2() {
    let dir = temp_dir("diff_usage");
    let present = dir.join("present.json");
    write_file(&present, 1.0, true, 1.0);
    let missing = dir.join("does_not_exist.json");
    let out = bench_diff(&[present.to_str().unwrap(), missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = bench_diff(&[present.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // The wall band is fixed: there is no option to widen it.
    for flag in ["--frobnicate", "--wall-tolerance"] {
        let out = bench_diff(&[present.to_str().unwrap(), present.to_str().unwrap(), flag]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(flag));
    }
}

#[test]
fn bench_diff_fails_when_no_deterministic_metric_was_compared() {
    // A changed default renames every params identity: nothing matches, and a gate
    // that compared nothing must not pass.
    let dir = temp_dir("diff_vacuous");
    let (old, new) = (dir.join("old.json"), dir.join("new.json"));
    write_file_with_params(&old, "duration=10", 1.5e-3, true, 1.0);
    write_file_with_params(&new, "duration=20", 1.5e-3, true, 1.0);
    let out = bench_diff(&[old.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 metric(s) compared"), "{stdout}");
    assert!(stdout.contains("0 failure(s)"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("gated nothing"));
}

// ---------------------------------------------------------------------------
// The file layout on disk.
// ---------------------------------------------------------------------------

#[test]
fn a_missing_or_other_format_version_is_refused_by_name() {
    let body = r#""area": "x", "reports": []"#;
    assert!(ReportFile::from_json_text(&format!(r#"{{"version": 1, {body}}}"#)).is_ok());
    for (version, expect) in [
        (r#""version": 2, "#, "\"version\" is 2"),
        ("", "missing \"version\""),
        (r#""version": "1", "#, "\"version\" is not a number"),
    ] {
        let e = ReportFile::from_json_text(&format!("{{{version}{body}}}")).unwrap_err();
        assert!(e.message.contains(expect), "{version:?}: {e}");
    }
}

#[test]
fn every_committed_report_file_loads() {
    // The committed `BENCH_*.json` files live at the repo root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut loaded = 0;
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let file = ReportFile::load(&path).unwrap();
            assert!(!file.reports.is_empty(), "{name}");
            loaded += 1;
        }
    }
    assert!(loaded >= 6, "found {loaded} committed report files");
}

#[test]
fn an_env_block_loads_and_is_dropped_on_save() {
    // One report, with or without the `env` member older files carry. The cost sits one
    // ULP above 1.5e-3, so a lossy round trip would show.
    let file = |env: &str| {
        format!(
            r#"{{"version": 1, "area": "it", "reports": [{{"name": "fig_x", "params": "default", {env}"metrics": [
                {{"name": "cost", "unit": "cost_seconds", "value": 0.0015000000000000002, "higher_is_better": false, "deterministic": true}},
                {{"name": "gbps", "unit": "gbps", "value": 3.75, "higher_is_better": true, "deterministic": true}},
                {{"name": "wall_seconds", "unit": "seconds_wall", "value": 0.42, "higher_is_better": false, "deterministic": false}}
            ]}}]}}"#
        )
    };
    let dir = temp_dir("env_dropped");
    let path = dir.join("BENCH_it.json");
    let env = r#""env": {"git_sha": "0123abc", "git_dirty": true, "nproc": 2, "os": "linux", "arch": "x86_64"}, "#;
    std::fs::write(&path, file(env)).unwrap();
    ReportFile::load(&path).unwrap().save(&path).unwrap();
    let saved = std::fs::read_to_string(&path).unwrap();
    assert!(
        !saved.contains("\"env\"") && !saved.contains("git_sha"),
        "{saved}"
    );
    // Byte for byte the file without `env`, so every metric is bit-identical.
    let without = ReportFile::from_json_text(&file("")).unwrap();
    assert_eq!(saved, without.to_json_text());
    let cost = without
        .report("fig_x", "default")
        .unwrap()
        .metric("cost")
        .unwrap();
    assert_eq!(cost.value.to_bits(), 1.5e-3f64.to_bits() + 1);
}
