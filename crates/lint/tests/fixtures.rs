//! Per-rule fixtures: every rule fires exactly once on a seeded violation (at the
//! right file:line), and no comment beside it suppresses it.

use tse_lint::scan_file;

/// Assert the report holds exactly one diagnostic, for `rule` at `line`.
fn assert_single(report: &tse_lint::FileReport, rule: &str, line: u32) {
    assert_eq!(
        report.diagnostics.len(),
        1,
        "expected exactly one diagnostic, got: {:?}",
        report.diagnostics
    );
    let d = &report.diagnostics[0];
    assert_eq!((d.rule.as_str(), d.line), (rule, line), "{d}");
}

#[test]
fn unsafe_in_unbudgeted_file_is_flagged() {
    // The SAFETY comment is present, so the only finding is the missing budget.
    let src = "// SAFETY: fixture\npub fn f() {\n    unsafe { core() }\n}\n";
    let report = scan_file("crates/attack/src/fixture.rs", src);
    assert_single(&report, "unsafe-budget", 3);
    assert!(report.diagnostics[0].message.contains("no allowlisted"));
}

#[test]
fn unsafe_over_budget_is_flagged() {
    // exec.rs carries a budget of 3; the fourth occurrence is the one violation.
    let src = "// SAFETY: fixture covers all four\n\
               unsafe fn a() {}\n\
               unsafe fn b() {}\n\
               unsafe fn c() {}\n\
               unsafe fn d() {}\n";
    let report = scan_file("crates/switch/src/exec.rs", src);
    assert_single(&report, "unsafe-budget", 5);
    assert!(report.diagnostics[0].message.contains("exceeds"));
}

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let src = "pub unsafe fn f() {}\n";
    let report = scan_file("crates/switch/src/exec.rs", src);
    assert_single(&report, "unsafe-budget", 1);
    assert!(report.diagnostics[0].message.contains("SAFETY"));
}

#[test]
fn crate_root_must_forbid_unsafe_code() {
    // deny where forbid is possible → escalate.
    let report = scan_file("crates/packet/src/lib.rs", "#![deny(unsafe_code)]\n");
    assert_single(&report, "unsafe-attr", 1);
    // Missing entirely.
    let report = scan_file("crates/packet/src/lib.rs", "pub fn f() {}\n");
    assert_single(&report, "unsafe-attr", 1);
    // forbid is clean.
    let report = scan_file("crates/packet/src/lib.rs", "#![forbid(unsafe_code)]\n");
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn budgeted_crate_root_declares_deny_not_forbid() {
    // tse-switch carries the unsafe budget: forbid would not compile there.
    let report = scan_file("crates/switch/src/lib.rs", "#![forbid(unsafe_code)]\n");
    assert_single(&report, "unsafe-attr", 1);
    let report = scan_file("crates/switch/src/lib.rs", "#![deny(unsafe_code)]\n");
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn wall_clock_read_outside_capture_sites_is_flagged() {
    let src = "pub fn f() {\n    let t = std::time::Instant::now();\n    use_it(t);\n}\n";
    let report = scan_file("crates/simnet/src/fixture.rs", src);
    assert_single(&report, "wall-clock", 2);
}

#[test]
fn wall_clock_capture_is_sanctioned_in_the_figure_harness_only() {
    // A `*wall*` binding in the figure harness is the sanctioned advisory capture...
    let ok = "pub fn start() {\n    let wall_start = std::time::Instant::now();\n}\n";
    let report = scan_file("crates/bench/src/figure.rs", ok);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    // ...a second clock read there under any other binding is still a violation...
    let bad = "pub fn start() {\n    let t = std::time::Instant::now();\n}\n";
    let report = scan_file("crates/bench/src/figure.rs", bad);
    assert_single(&report, "wall-clock", 2);
    // ...and a figure binary may not read the clock at all: the harness hands it the time.
    let report = scan_file("crates/bench/src/bin/fig_fixture.rs", ok);
    assert_single(&report, "wall-clock", 2);
}

#[test]
fn wall_clock_has_no_whole_file_exemption() {
    // Neither a vendored stand-in nor a bench target may read the clock — not even
    // into a `*wall*` binding, which is the figure harness's dispensation only.
    let src = "pub fn f() {\n    let wall_start = std::time::Instant::now();\n}\n";
    for path in [
        "crates/compat/timing/src/timer.rs",
        "crates/bench/benches/tss_lookup.rs",
    ] {
        assert_single(&scan_file(path, src), "wall-clock", 2);
    }
}

const NONDET_SRC: &str = "use std::collections::HashMap;\n\
     pub fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n    \
     m.values().copied().collect()\n\
     }\n";

#[test]
fn hash_iteration_without_neutralizer_is_flagged() {
    let report = scan_file("crates/mitigation/src/fixture.rs", NONDET_SRC);
    assert_single(&report, "nondet-iteration", 3);
}

#[test]
fn in_statement_neutralizer_passes() {
    let src = "use std::collections::HashMap;\n\
         pub fn f(m: &HashMap<u32, u32>) -> u32 {\n    \
         m.values().copied().max().unwrap_or(0)\n\
         }\n";
    let report = scan_file("crates/mitigation/src/fixture.rs", src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn hash_iteration_through_a_type_alias_is_flagged() {
    let src = "use std::collections::HashMap;\n\
         type KeyMap = HashMap<u32, u32>;\n\
         pub fn f(m: &KeyMap) -> Vec<u32> {\n    \
         m.values().copied().collect()\n\
         }\n";
    let report = scan_file("crates/mitigation/src/fixture.rs", src);
    assert_single(&report, "nondet-iteration", 4);
}

#[test]
fn alias_of_an_ordered_container_passes_beside_a_hash_map() {
    let src = "use std::collections::HashMap;\n\
         type KeyList = Vec<u32>;\n\
         pub fn f(m: &KeyList, h: &HashMap<u32, u32>) -> Vec<u32> {\n    \
         m.iter().map(|k| h[k]).collect()\n\
         }\n";
    let report = scan_file("crates/mitigation/src/fixture.rs", src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn a_comment_does_not_suppress_a_finding() {
    // The allowlist is the one exemption: a justification comment above the
    // violation, however it is spelled, leaves it standing.
    let src = NONDET_SRC.replace(
        "    m.values()",
        "    // lint: allow(nondet-iteration) — fixture justification\n    m.values()",
    );
    let report = scan_file("crates/mitigation/src/fixture.rs", &src);
    assert_single(&report, "nondet-iteration", 4);
}

#[test]
fn thread_creation_outside_exec_is_flagged() {
    let src = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
    let report = scan_file("crates/simnet/src/fixture.rs", src);
    assert_single(&report, "thread-containment", 2);

    let src = "pub fn f(b: std::thread::Builder) {\n    b.spawn(|| {}).unwrap();\n}\n";
    let report = scan_file("crates/simnet/src/fixture.rs", src);
    // `thread::Builder` in the signature and the `.spawn(..)` call both fire.
    assert_eq!(report.diagnostics.len(), 2, "{:?}", report.diagnostics);
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.rule == "thread-containment"));
}

#[test]
fn panic_in_hot_path_is_flagged_but_tests_are_exempt() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let report = scan_file("crates/classifier/src/tss.rs", src);
    assert_single(&report, "panic-hygiene", 2);

    let src = "pub fn f(x: Option<u32>) -> Option<u32> {\n    x\n}\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
         super::f(Some(1)).unwrap();\n        panic!(\"fine in tests\");\n    }\n}\n";
    let report = scan_file("crates/classifier/src/tss.rs", src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn panic_outside_hot_path_modules_is_allowed() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.expect(\"caller checked\")\n}\n";
    let report = scan_file("crates/classifier/src/rule.rs", src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn surface_counts_code_lines_and_public_items_outside_tests() {
    let src = "//! Module docs do not count.\n\
               \n\
               /// Nor do item docs.\n\
               pub struct S; // a trailing comment shares a code line\n\
               pub(crate) fn internal() {}\n\
               pub const fn c() -> &'static str {\n    \"two\n    lines\"\n}\n\
               pub enum E {}\n\
               pub trait T {}\n\
               fn private() {}\n\
               #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
    let report = scan_file("crates/simnet/src/runner.rs", src);
    // struct, restricted fn, the 4-line const fn, enum, trait, private fn.
    assert_eq!(report.surface.code_lines, 9);
    // `S`, `c`, `E`, `T` — not the `pub(crate)` fn, not the test helper.
    assert_eq!(report.surface.pub_items, 4);
    assert_eq!(report.pub_names, ["S", "c", "E", "T"]);
    // Tests and examples exercise a crate; they are not its surface.
    let test_file = scan_file("tests/executor_parity.rs", src);
    assert_eq!(test_file.surface, tse_lint::Surface::default());
    assert!(test_file.pub_names.is_empty());
}

#[test]
fn mentions_are_uses_outside_tests_imports_and_declarations() {
    let src = "use other::imported;\n\
               /// A doc link to [`documented`] is a comment.\n\
               pub fn declared() { called(\"quoted\"); let x: Named = built::path(); }\n\
               pub struct Shape;\n\
               impl Shape { fn method(&self) {} }\n\
               #[cfg(test)]\nmod tests {\n    fn t() { only_tests(); }\n}\n";
    let report = scan_file("crates/simnet/src/runner.rs", src);
    for used in ["called", "Named", "built", "path", "Shape", "x"] {
        assert!(report.mentions.contains(used), "{used} is mentioned");
    }
    for unused in [
        "imported",
        "other",
        "documented",
        "declared",
        "quoted",
        "method",
        "only_tests",
    ] {
        assert!(
            !report.mentions.contains(unused),
            "{unused} is not mentioned"
        );
    }
    // An integration test mentions nothing, an example everything it calls.
    assert!(scan_file("tests/t.rs", src).mentions.is_empty());
    assert!(scan_file("examples/e.rs", src).mentions.contains("called"));
}
