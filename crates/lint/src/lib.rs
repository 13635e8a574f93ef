//! `tse-lint` — workspace-native static analysis for the determinism and
//! unsafe-budget invariants every headline claim of this reproduction rests
//! on.
//!
//! The tuple-space-explosion collapse/recovery numbers, the executor-parity
//! proofs and the strict-equality `bench_diff` gate are all *bit-for-bit*
//! claims. They hold only while nothing nondeterministic leaks into the
//! deterministic paths: no wall-clock reads outside the advisory `*_wall`
//! metrics, no `HashMap` iteration order feeding ordered output, no threads
//! outside the executor seam, no undocumented `unsafe`, no panics reachable
//! from crafted traffic. Parity tests check those properties where they look;
//! this crate makes them hold *everywhere*, as a CI gate.
//!
//! crates.io is unreachable in the build environment, so this is a hand-rolled
//! analyzer: a comment-, string- and raw-string-aware token scanner
//! ([`lexer`]), a per-file context model ([`context`]), a set of
//! token-sequence rules ([`rules`]) and a committed allowlist for the known
//! whole-file exceptions ([`allowlist`]). The allowlist is the one exemption
//! mechanism: a comment cannot silence a finding, so every finding is a violation.
//!
//! # Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-budget` | `unsafe` only at allowlisted `(file, max_count)` sites, each with a `// SAFETY:` comment |
//! | `unsafe-attr` | every crate root forbids `unsafe_code` (denies it in budgeted crates) |
//! | `wall-clock` | `Instant::now`/`SystemTime::now` only in a `*wall*` binding of the figure harness (`crates/bench/src/figure.rs`) |
//! | `nondet-iteration` | hash-container iteration in non-test code must neutralize order in-statement |
//! | `thread-containment` | thread creation only in `crates/switch/src/exec.rs` |
//! | `panic-hygiene` | no `unwrap`/`expect`/panicking macros in hot-path modules outside tests |
//!
//! # Surface area
//!
//! The scan also sizes every crate ([`Surface`]): code lines (non-blank, non-comment,
//! outside `#[cfg(test)]` modules) and public items (`pub fn` / `pub struct` /
//! `pub enum` / `pub trait`), printed with the human report and carried in the JSON
//! one — so "the API shrank" is a number a PR can quote, not a feeling. A third column,
//! `unreached` ([`WorkspaceReport::unreached`]), counts the public items that only
//! tests name.
//!
//! # Exit codes (binary)
//!
//! `0` clean · `1` violations · `2` usage or I/O error — the same contract as
//! `bench_diff`, so CI wiring is identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod context;
pub mod lexer;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use tse_bench::report::json::Json;

/// A violation: one rule's finding at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How much code and public API a file (or, summed, a crate) carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Surface {
    /// Lines holding at least one code token outside `#[cfg(test)]` modules — blank
    /// and comment-only lines do not count.
    pub code_lines: usize,
    /// `pub fn` / `pub struct` / `pub enum` / `pub trait` items outside test code
    /// (`pub(crate)` and other restricted visibilities are not public).
    pub pub_items: usize,
}

impl Surface {
    /// Measure a file's [`surface_tokens`].
    fn of(code: &[&lexer::Token]) -> Surface {
        let lines: BTreeSet<u32> = code
            .iter()
            // A multi-line (raw) string literal occupies every line it spans.
            .flat_map(|t| t.line..=t.line + t.text.matches('\n').count() as u32)
            .collect();
        Surface {
            code_lines: lines.len(),
            pub_items: pub_item_names(code).count(),
        }
    }
}

/// The tokens of a file that belong to its crate's surface: everything outside comments
/// and `#[cfg(test)]` modules. Integration tests and examples exercise a crate rather
/// than belong to it, so they have none.
fn surface_tokens<'a>(
    ctx: &context::FileContext,
    tokens: &'a [lexer::Token],
) -> Vec<&'a lexer::Token> {
    use context::ModuleClass::{Example, Test};
    if matches!(ctx.class, Test | Example) {
        return Vec::new();
    }
    tokens
        .iter()
        .filter(|t| !t.is_comment() && !ctx.in_test_code(t.line))
        .collect()
}

/// The names of the public items in a comment-free, test-free token stream: the
/// identifier after `pub fn` / `pub struct` / `pub enum` / `pub trait`, with an optional
/// `const` / `async` / `unsafe` before the `fn`.
fn pub_item_names<'a>(code: &'a [&'a lexer::Token]) -> impl Iterator<Item = &'a str> {
    let is_one_of = |t: &lexer::Token, kws: &[&str]| kws.iter().any(|kw| t.is_ident(kw));
    code.windows(4).filter_map(move |w| {
        if !w[0].is_ident("pub") {
            return None;
        }
        if is_one_of(w[1], &["fn", "struct", "enum", "trait"]) {
            Some(w[2].text.as_str())
        } else if is_one_of(w[1], &["const", "async", "unsafe"]) && w[2].is_ident("fn") {
            Some(w[3].text.as_str())
        } else {
            None
        }
    })
}

/// The identifiers a file's non-test code *mentions*: every identifier outside comments,
/// literals, `#[cfg(test)]` modules and `use` declarations that is not the name being
/// declared by a `fn` / `struct` / `enum` / `trait` item. Importing or re-exporting a
/// name is not reaching it; calling, constructing or naming it in a type is. Files of
/// integration tests mention nothing; examples do.
fn mentions(ctx: &context::FileContext, tokens: &[lexer::Token]) -> BTreeSet<String> {
    let code = tokens
        .iter()
        .filter(|t| !t.is_comment() && !ctx.in_test_code(t.line));
    let mut out = BTreeSet::new();
    let mut in_use = false;
    let mut declares = false;
    for t in code {
        if in_use {
            in_use = !t.is_punct(';');
        } else if t.is_ident("use") {
            in_use = true;
        } else if t.kind == lexer::TokenKind::Ident && !declares {
            out.insert(t.text.clone());
        }
        declares = ["fn", "struct", "enum", "trait"]
            .iter()
            .any(|kw| t.is_ident(kw));
    }
    out
}

/// The crate a workspace-relative path belongs to, by package name: `crates/<n>/…` is
/// `tse-<n>`, `crates/compat/<n>/…` is the stand-in `<n>`, everything else the root
/// package `tse`.
fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some("compat"), Some(name)) => name.to_string(),
        (Some("crates"), Some(name), _) => format!("tse-{name}"),
        _ => "tse".to_string(),
    }
}

/// The scan result for one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileReport {
    /// Violations.
    pub diagnostics: Vec<Diagnostic>,
    /// The file's size.
    pub surface: Surface,
    /// The names of the file's public items, in source order (`surface.pub_items` of
    /// them).
    pub pub_names: Vec<String>,
    /// The identifiers the file's non-test code mentions other than to declare or
    /// import them — what [`WorkspaceReport::unreached`] is computed against.
    pub mentions: BTreeSet<String>,
}

/// Scan one file's source. `path` must be workspace-relative with `/`
/// separators — it drives the module classification.
pub fn scan_file(path: &str, source: &str) -> FileReport {
    let tokens = lexer::lex(source);
    let ctx = context::FileContext::new(path, &tokens);
    let mut diagnostics: Vec<Diagnostic> = rules::check_file(&ctx, &tokens)
        .into_iter()
        .map(|finding| Diagnostic {
            rule: finding.rule.to_string(),
            file: path.to_string(),
            line: finding.line,
            message: finding.message,
        })
        .collect();
    diagnostics.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    let code = surface_tokens(&ctx, &tokens);
    FileReport {
        diagnostics,
        surface: Surface::of(&code),
        pub_names: pub_item_names(&code).map(str::to_string).collect(),
        mentions: mentions(&ctx, &tokens),
    }
}

/// A whole-workspace scan result.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations, ordered by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-crate size, keyed by package name.
    pub surface: BTreeMap<String, Surface>,
    /// Per crate, the public items *unreached* by non-test code: named — other than to
    /// declare or import them — in no non-test code of the workspace, `examples/` or
    /// `benchmark/src`, so only tests keep them alive. Matching is by identifier on the
    /// lexer's token stream, not by path: an item that shares its name with anything
    /// mentioned elsewhere counts as reached, so the list can only under-report.
    pub unreached: BTreeMap<String, Vec<String>>,
}

impl WorkspaceReport {
    /// True when the scan found no violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The unreached public items of crate `name` (empty for an unknown crate).
    fn unreached_in(&self, name: &str) -> &[String] {
        self.unreached.get(name).map_or(&[], Vec::as_slice)
    }

    /// Render the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        out.push_str("surface area (code lines / public items / unreached):\n");
        for (name, s) in &self.surface {
            out.push_str(&format!(
                "  {name:<16}{:>7}{:>6}{:>6}\n",
                s.code_lines,
                s.pub_items,
                self.unreached_in(name).len()
            ));
        }
        out.push_str(&format!(
            "tse-lint: {} file(s) scanned, {} violation(s)\n",
            self.files_scanned,
            self.diagnostics.len()
        ));
        out
    }

    /// Render the report as a [`Json`] value (written with the same bit-exact
    /// writer the bench regression gate uses).
    pub fn to_json(&self) -> Json {
        let diag = |d: &Diagnostic| {
            Json::Obj(vec![
                ("rule".to_string(), Json::Str(d.rule.clone())),
                ("file".to_string(), Json::Str(d.file.clone())),
                ("line".to_string(), Json::Num(f64::from(d.line))),
                ("message".to_string(), Json::Str(d.message.clone())),
            ])
        };
        let surface = |(name, s): (&String, &Surface)| {
            let unreached = self.unreached_in(name).len();
            let sizes = vec![
                ("code_lines".to_string(), Json::Num(s.code_lines as f64)),
                ("pub_items".to_string(), Json::Num(s.pub_items as f64)),
                ("unreached".to_string(), Json::Num(unreached as f64)),
            ];
            (name.clone(), Json::Obj(sizes))
        };
        Json::Obj(vec![
            ("tool".to_string(), Json::Str("tse-lint".to_string())),
            (
                "files_scanned".to_string(),
                Json::Num(self.files_scanned as f64),
            ),
            (
                "diagnostics".to_string(),
                Json::Arr(self.diagnostics.iter().map(diag).collect()),
            ),
            (
                "surface".to_string(),
                Json::Obj(self.surface.iter().map(surface).collect()),
            ),
        ])
    }
}

/// The directories scanned under the workspace root.
const SCAN_ROOTS: &[&str] = &["src", "crates", "tests", "examples"];

/// Read for the identifiers it mentions only: `benchmark/` is its own workspace — no rule
/// applies to it and it has no surface row — but what it calls is reached.
const MENTION_ROOTS: &[&str] = &["benchmark/src"];

/// Every `.rs` file under `root/<dir>` for each of `dirs` (skipping any `target`
/// directory) as `(workspace-relative path, source)`, in sorted path order so output —
/// and the JSON report — is deterministic.
fn read_sources(root: &Path, dirs: &[&str]) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for dir in dirs {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let read = |path: PathBuf| {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        Ok((rel, std::fs::read_to_string(&path)?))
    };
    files.into_iter().map(read).collect()
}

/// Scan the workspace rooted at `root`: every `.rs` file under `src/`, `crates/`,
/// `tests/` and `examples/`; `benchmark/src` is read as well, but only to learn which
/// public items it reaches.
pub fn scan_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    let mut mentioned = BTreeSet::new();
    for (rel, source) in read_sources(root, SCAN_ROOTS)? {
        let file_report = scan_file(&rel, &source);
        report.files_scanned += 1;
        let name = crate_of(&rel);
        let total = report.surface.entry(name.clone()).or_default();
        total.code_lines += file_report.surface.code_lines;
        total.pub_items += file_report.surface.pub_items;
        report.diagnostics.extend(file_report.diagnostics);
        mentioned.extend(file_report.mentions);
        // Every public item is a candidate until the whole workspace has been read.
        let candidates = report.unreached.entry(name).or_default();
        candidates.extend(file_report.pub_names);
    }
    for (rel, source) in read_sources(root, MENTION_ROOTS)? {
        let tokens = lexer::lex(&source);
        mentioned.extend(mentions(&context::FileContext::new(&rel, &tokens), &tokens));
    }
    for items in report.unreached.values_mut() {
        items.retain(|item| !mentioned.contains(item));
    }
    report.unreached.retain(|_, items| !items.is_empty());
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" {
                collect_rs_files(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
