//! The workspace itself must scan clean — the same invariant the CI lint gate
//! enforces, kept as a test so `cargo test` alone catches a regression.

use std::path::Path;

#[test]
fn workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = tse_lint::scan_workspace(&root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(report.is_clean(), "\n{}", report.render_human());
    // Every active suppression is auditable: rule known, reason non-empty.
    for s in &report.suppressions {
        assert!(!s.reason.is_empty(), "{}:{} [{}]", s.file, s.line, s.rule);
        assert!(
            tse_lint::rules::RULE_IDS.contains(&s.rule.as_str()),
            "{}:{} suppresses unknown rule {}",
            s.file,
            s.line,
            s.rule
        );
        // The hot-path crate carries no panic-hygiene pragma: a panicking macro in
        // `tse-switch` gets designed away, not suppressed.
        assert!(
            !(s.rule == "panic-hygiene" && s.file.starts_with("crates/switch/")),
            "{}:{} suppresses panic-hygiene in the hot-path crate",
            s.file,
            s.line
        );
    }
    // A tuple's entries are one dense `Vec` in insertion order, so the classifier walks
    // no hash container at all. A suppression here means a `HashMap` came back.
    let classifier = report
        .suppressions
        .iter()
        .filter(|s| s.file.starts_with("crates/classifier/"))
        .count();
    assert!(
        classifier == 0,
        "{classifier} suppressions in tse-classifier"
    );
}

/// Per crate: the public items (`pub fn` / `struct` / `enum` / `trait` outside test code)
/// it may carry, and how many of them may be *unreached* — named by no non-test code of
/// the workspace, `examples/` or `benchmark/src`, so alive only for tests. Both are the
/// counts at the last PR that touched the surface, and both only shrink without an
/// explicit edit here: lower a ceiling when a PR deletes items, raise one only together
/// with the reason the new item replaces more than it adds. An unreached item that stays
/// is a test's observation point for behaviour the figures do reach (the telemetry
/// `*_series` accessors, `check_independence`, `shard_stats`, …) or is pinned by
/// `benchmark/` through a path the identifier match cannot see.
const PUB_ITEM_CEILINGS: &[(&str, usize, usize)] = &[
    ("proptest", 14, 1),
    ("rand", 5, 0),
    ("tse", 0, 0),
    ("tse-attack", 56, 0),
    // Two more than before: `Figure::host_ns` and `Figure::advisory`, the harness's
    // host-time probe and advisory rows behind fig9a's Observation 1 rows.
    ("tse-bench", 59, 0),
    // Two more than before: `SweepWork` and `TupleSpace::sweep_work`, the idle sweeps'
    // work counters `ipv6_entry_explosion` records as deterministic rows.
    ("tse-classifier", 80, 4),
    ("tse-lint", 26, 0),
    ("tse-mitigation", 53, 1),
    // A batch's keys are read through `ExtractScratch::keys`, with no second accessor.
    ("tse-packet", 121, 3),
    // The telemetry store keeps only what a run reads: no cold spill, two cold aggregates.
    ("tse-simnet", 121, 1),
    // Frames reach a datapath only as keys or faults: it has no wire entry point. One
    // more than that: `SlowPath::rules_walked`, the upcalls' table-walk work counter
    // `fig_tenant_gateway` records as deterministic rows.
    ("tse-switch", 117, 2),
];

#[test]
fn public_surface_stays_under_its_ceilings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = tse_lint::scan_workspace(&root).expect("workspace scan");
    let table = report.render_human();
    for (name, surface) in &report.surface {
        let ceiling = PUB_ITEM_CEILINGS.iter().find(|(n, ..)| n == name);
        let Some(&(_, pub_items, unreached)) = ceiling else {
            panic!("crate {name} has no committed public-item ceiling\n{table}");
        };
        assert!(
            surface.pub_items <= pub_items,
            "{name}: {} public items exceed the committed ceiling of {pub_items}\n{table}",
            surface.pub_items
        );
        let only_tests_reach = report.unreached.get(name).map_or(&[][..], Vec::as_slice);
        assert!(
            only_tests_reach.len() <= unreached,
            "{name}: only tests reach {only_tests_reach:?} — more than the committed \
             ceiling of {unreached} unreached public items\n{table}"
        );
    }
}

/// `benchmark/` is the only thing that times code. The in-workspace wall-clock tier —
/// bench targets, the vendored harness stub they linked, its surface-table row — stays
/// deleted.
#[test]
fn no_bench_targets_and_no_vendored_timing_harness() {
    // Spelled in halves so a plain text search for the name over the tree stays empty.
    let harness = ["crit", "erion"].concat();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut manifests = 0;
    let mut stack = vec![root.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable workspace directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() {
                assert_ne!(name, "benches", "{} came back", path.display());
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name == "Cargo.toml" {
                manifests += 1;
                let text = std::fs::read_to_string(&path).expect("readable manifest");
                assert!(!text.contains("[[bench]]"), "{}", path.display());
                assert!(!text.contains(&harness), "{}", path.display());
            }
        }
    }
    assert!(manifests >= 11, "only {manifests} manifests found");
    let report = tse_lint::scan_workspace(&root).expect("workspace scan");
    assert!(
        !report.surface.contains_key(&harness),
        "{:?}",
        report.surface
    );
}
