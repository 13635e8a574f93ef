//! Harness self-tests that span modules: determinism of what the benchmark runs, and
//! `BENCHMARK.json` against what the benchmark emits.

use tse_bench::report::json::{self, Json};

use crate::check;
use crate::harness::Measured;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{epoch_nanos, run_once};
use crate::traced::trace_workload;
use crate::workloads::{Exec, Workload, WORKLOADS};

/// The smallest size every workload accepts.
const SIM_SECONDS: f64 = 6.0;

fn digest_of(workload: &'static Workload, exec: Exec) -> u64 {
    let inst = workload.instance(3, SIM_SECONDS);
    let mut runner = inst.runner(exec);
    let timeline = runner.run_mix(inst.mix(), inst.duration);
    check::digest(&timeline, &runner.datapath.stats())
}

#[test]
fn digest_repeats_in_process_and_across_executors() {
    for workload in &WORKLOADS {
        let reference = digest_of(workload, Exec::Workload);
        assert_eq!(
            reference,
            digest_of(workload, Exec::Workload),
            "{}: two runs of one seed disagree",
            workload.name
        );
        assert_eq!(
            reference,
            digest_of(workload, Exec::Sequential),
            "{}: sequential and workload executor disagree",
            workload.name
        );
        // The timed run carries one extra source, the wall clock's ticks; they must
        // reach neither the datapath nor the timeline.
        assert_eq!(
            reference,
            run_once(workload, 3, SIM_SECONDS, Exec::Pool, false, epoch_nanos()).digest,
            "{}: the timed run (ticks, pool) disagrees",
            workload.name
        );
    }
}

#[test]
fn digest_depends_on_the_seed() {
    let workload = Workload::by_name("entry_churn_v6").unwrap();
    let run = |seed| {
        let inst = workload.instance(seed, SIM_SECONDS);
        let mut runner = inst.runner(Exec::Workload);
        let timeline = runner.run_mix(inst.mix(), inst.duration);
        check::digest(&timeline, &runner.datapath.stats())
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn every_workload_passes_its_own_checks() {
    for workload in &WORKLOADS {
        let result = run_once(
            workload,
            5,
            SIM_SECONDS,
            Exec::Workload,
            true,
            epoch_nanos(),
        );
        assert_eq!(
            (result.failed, &result.notes),
            (0, &Vec::new()),
            "{}",
            workload.name
        );
        assert!(result.events > 0 && result.peak_rss_mb > 0.0 && result.setup_s > 0.0);
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn members<'a>(doc: &'a Json, list: &str, keys: &[&str]) -> Vec<Vec<&'a Json>> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|item| {
            let Json::Obj(fields) = item else {
                panic!("{list} holds a non-object")
            };
            assert_eq!(
                fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                keys,
                "{list} entries have exactly these keys"
            );
            fields.iter().map(|(_, v)| v).collect()
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_exactly_what_the_benchmark_emits() {
    let doc = benchmark_json();
    let text = |v: &Json| v.as_str().expect("a string").to_owned();

    let workloads: Vec<(String, String)> = members(&doc, "workloads", &["name", "why"])
        .iter()
        .map(|w| (text(w[0]), text(w[1])))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_owned(), w.why.to_owned()))
        .collect();
    assert_eq!(workloads, ours);

    // Emitted end-to-end metrics: what `Measured::end_to_end` reports for a repeat.
    let workload = Workload::by_name("benign_wire").unwrap();
    let repeat = run_once(
        workload,
        1,
        SIM_SECONDS,
        Exec::Workload,
        false,
        epoch_nanos(),
    );
    let measured = Measured {
        workload,
        sim_seconds: SIM_SECONDS,
        failed: vec![repeat.failed],
        repeats: vec![repeat],
        notes: Vec::new(),
    };
    let emitted: Vec<(String, String, String, f64)> = measured
        .end_to_end()
        .iter()
        .map(|(m, estimate)| {
            assert!(estimate.value > 0.0, "{} must never be 0", m.name);
            (
                m.name.to_owned(),
                m.unit.to_owned(),
                m.better.as_str().to_owned(),
                m.bound,
            )
        })
        .collect();
    let listed: Vec<(String, String, String, f64)> =
        members(&doc, "end_to_end", &["name", "unit", "better", "bound"])
            .iter()
            .map(|m| {
                (
                    text(m[0]),
                    text(m[1]),
                    text(m[2]),
                    m[3].as_num().expect("a bound"),
                )
            })
            .collect();
    assert_eq!(listed, emitted);
    assert!(listed.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    assert!(listed
        .iter()
        .any(|m| (m.0.as_str(), m.1.as_str(), m.2.as_str()) == ("setup_s", "s", "lower")));

    // Emitted per-layer metrics: what the traced pass reports.
    let out = std::env::temp_dir().join(format!("tse-benchmark-selftest-{}", std::process::id()));
    let traced = trace_workload(workload, 1, SIM_SECONDS, &out).expect("traced pass runs");
    assert!(out.join("trace-benign_wire.jsonl").is_file());
    std::fs::remove_dir_all(&out).ok();
    assert_eq!((traced.failed, &traced.notes), (0, &Vec::new()));
    let emitted: Vec<(String, String, String)> = traced
        .metrics
        .iter()
        .map(|(def, value)| {
            assert!(value.is_finite(), "{} is not finite", def.name);
            (
                def.name.to_owned(),
                def.unit.to_owned(),
                def.better.as_str().to_owned(),
            )
        })
        .collect();
    let listed: Vec<(String, String, String)> =
        members(&doc, "per_layer", &["name", "unit", "better"])
            .iter()
            .map(|m| (text(m[0]), text(m[1]), text(m[2])))
            .collect();
    assert_eq!(listed, emitted);

    // Names: valid, and each used once.
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(is_name(name), "{name:?} is not a valid name");
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_num),
        Some(crate::DEFAULT_SECONDS)
    );
    assert_eq!(
        doc.get("paths"),
        Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
    );
}
