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
}

/// Per crate: the public items (`pub fn` / `struct` / `enum` / `trait` outside test code)
/// it may carry, and how many of them may be *unreached* — named by no non-test code of
/// the workspace, `examples/` or `benchmark/src`, so alive only for tests. Both are the
/// counts at the last PR that touched the surface, and both only shrink without an
/// explicit edit here: lower a ceiling when a PR deletes items, raise one only together
/// with the reason the new item replaces more than it adds. An unreached item that stays
/// is a test's reference or observation point for behaviour the figures do reach
/// (`check_independence`, `agrees_with_table_exhaustively`, `small_multi_field_table`,
/// `Timeline::mean_attacker_pps_between`, …) or is pinned by `benchmark/` through a path
/// the identifier match cannot see.
const PUB_ITEM_CEILINGS: &[(&str, usize, usize)] = &[
    ("proptest", 14, 1),
    ("rand", 5, 0),
    ("tse", 0, 0),
    ("tse-attack", 56, 0),
    // Reports carry no run environment (`RunEnv` gone) and the wall band is a constant
    // (`DiffConfig` gone).
    ("tse-bench", 57, 0),
    // `Rule::overlaps` gone: only tests asked it. The three unreached items left are
    // test references: `check_independence`, `agrees_with_table_exhaustively` and
    // `small_multi_field_table`.
    ("tse-classifier", 79, 3),
    // The allowlist is the one exemption: `Pragma`, `pragma::parse` and `Suppression`
    // gone.
    ("tse-lint", 23, 0),
    // `PressureWindow::detached` gone: a depth-0 `PressureWindow::new(0, 0)` is the same
    // value.
    ("tse-mitigation", 52, 0),
    // `PacketBuilder::{udp_v4, tcp_v6, udp_v6}` gone: tests build packets through
    // `tcp_v4` or `from_numeric_v4` / `from_numeric_v6`.
    ("tse-packet", 118, 0),
    // The telemetry store keeps only what a run reads: no cold spill, two cold aggregates.
    ("tse-simnet", 121, 1),
    // `SlowPath::install_quota_remaining` and `ShardedDatapath::shard_stats` gone: tests
    // observe the quota through installs and read `shard(i).stats()`.
    ("tse-switch", 115, 0),
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
