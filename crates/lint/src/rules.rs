//! The determinism and unsafe-budget rules.
//!
//! Each rule is a pure function from a file's [`FileContext`] and token stream
//! to findings. Rules are token-sequence matchers, not type checkers: they are
//! deliberately conservative (a site a rule cannot prove orderly needs a
//! pragma with a reason), and they only ever see real code tokens — anything
//! inside strings or comments was made opaque by the lexer.

use crate::allowlist;
use crate::context::{FileContext, ModuleClass};
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// A rule match before pragma/suppression processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule identifier (one of [`RULE_IDS`]).
    pub rule: &'static str,
    /// 1-indexed source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Every rule the engine knows, including the meta rule guarding the pragmas
/// themselves.
pub const RULE_IDS: &[&str] = &[
    "unsafe-budget",
    "unsafe-attr",
    "wall-clock",
    "nondet-iteration",
    "thread-containment",
    "panic-hygiene",
    "pragma-hygiene",
];

/// Methods whose call on a `HashMap`/`HashSet` observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Identifiers that, appearing in the same statement as a hash iteration,
/// prove the result order-independent: an explicit sort, an order-free
/// reduction, or collection into an ordered container. (Floating-point `sum`
/// is deliberately *not* here — f64 addition is order-dependent.)
const ORDER_NEUTRALIZERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "count",
    "all",
    "any",
    "BTreeMap",
    "BTreeSet",
];

/// Run every rule over one file. `tokens` is the full stream (comments
/// included — the unsafe rule reads `// SAFETY:` markers from it).
pub fn check_file(ctx: &FileContext, tokens: &[Token]) -> Vec<Finding> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut findings = Vec::new();
    unsafe_budget(ctx, tokens, &code, &mut findings);
    unsafe_attr(ctx, &code, &mut findings);
    wall_clock(ctx, &code, &mut findings);
    nondet_iteration(ctx, &code, &mut findings);
    thread_containment(ctx, &code, &mut findings);
    panic_hygiene(ctx, &code, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// **unsafe-budget** — the `unsafe` keyword may appear only in files carrying
/// an explicit budget in the committed allowlist, at most `budget` times, and
/// every occurrence must have a `// SAFETY:` (or `/* SAFETY: */`) comment
/// within the ten preceding lines.
fn unsafe_budget(ctx: &FileContext, tokens: &[Token], code: &[&Token], out: &mut Vec<Finding>) {
    let budget = allowlist::unsafe_budget(&ctx.path);
    let mut seen = 0usize;
    for t in code {
        if !t.is_ident("unsafe") {
            continue;
        }
        seen += 1;
        if seen > budget {
            out.push(Finding {
                rule: "unsafe-budget",
                line: t.line,
                message: if budget == 0 {
                    "`unsafe` in a file with no allowlisted unsafe budget".to_string()
                } else {
                    format!("`unsafe` occurrence {seen} exceeds this file's budget of {budget}")
                },
            });
        }
        let documented = tokens.iter().any(|c| {
            c.is_comment() && c.line <= t.line && t.line - c.line <= 10 && c.text.contains("SAFETY")
        });
        if !documented {
            out.push(Finding {
                rule: "unsafe-budget",
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment in the 10 lines above"
                    .to_string(),
            });
        }
    }
}

/// **unsafe-attr** — every crate root must carry `#![forbid(unsafe_code)]`,
/// except the allowlisted crates with a nonzero unsafe budget, which must
/// carry `#![deny(unsafe_code)]` (so the budgeted sites can opt out locally
/// while the compiler still rejects undeclared ones).
fn unsafe_attr(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    let is_crate_root = ctx.path == "src/lib.rs"
        || (ctx.path.starts_with("crates/") && ctx.path.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    let mut found: Option<(&str, u32)> = None;
    for (i, t) in code.iter().enumerate() {
        let lint_level = if t.is_ident("forbid") {
            "forbid"
        } else if t.is_ident("deny") {
            "deny"
        } else {
            continue;
        };
        if code.get(i + 1).is_some_and(|t| t.is_punct('('))
            && code.get(i + 2).is_some_and(|t| t.is_ident("unsafe_code"))
        {
            found = Some((lint_level, t.line));
            break;
        }
    }
    let wants_deny = allowlist::DENY_UNSAFE_CRATE_ROOTS.contains(&ctx.path.as_str());
    match found {
        Some(("forbid", line)) if wants_deny => out.push(Finding {
            rule: "unsafe-attr",
            line,
            message: "crate has an allowlisted unsafe budget; `forbid(unsafe_code)` would not \
                      compile — declare `#![deny(unsafe_code)]` (or drop the budget)"
                .to_string(),
        }),
        Some(("deny", line)) if !wants_deny => out.push(Finding {
            rule: "unsafe-attr",
            line,
            message: "crate has no unsafe budget: escalate `#![deny(unsafe_code)]` to \
                      `#![forbid(unsafe_code)]`"
                .to_string(),
        }),
        Some(_) => {}
        None => out.push(Finding {
            rule: "unsafe-attr",
            line: 1,
            message: format!(
                "crate root missing `#![{}(unsafe_code)]`",
                if wants_deny { "deny" } else { "forbid" }
            ),
        }),
    }
}

/// **wall-clock** — `Instant::now` / `SystemTime::now` feed nondeterministic
/// values into whatever consumes them, so they are confined to one seam: in the
/// figure harness ([`allowlist::FIGURE_HARNESS_FILE`]), a statement that binds an
/// identifier containing `wall` (the advisory `wall_seconds` row every report
/// separates from the deterministic ones). A figure binary gets its wall time
/// from the harness and may not read a clock itself. Code that times the system
/// lives in `benchmark/`, outside the scan.
fn wall_clock(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        let src = &code[i];
        if !(src.is_ident("Instant") || src.is_ident("SystemTime")) {
            continue;
        }
        let is_now = code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 3).is_some_and(|t| t.is_ident("now"));
        if !is_now {
            continue;
        }
        if ctx.path == allowlist::FIGURE_HARNESS_FILE {
            // Walk back to the start of the statement; a binding whose name
            // mentions `wall` marks this as advisory wall-clock capture.
            let mut ok = false;
            for j in (0..i).rev() {
                if code[j].is_punct(';') || code[j].is_punct('{') || code[j].is_punct('}') {
                    break;
                }
                if code[j].kind == TokenKind::Ident && code[j].text.contains("wall") {
                    ok = true;
                    break;
                }
            }
            if ok {
                continue;
            }
        }
        out.push(Finding {
            rule: "wall-clock",
            line: src.line,
            message: format!(
                "`{}::now` outside the sanctioned wall-clock capture sites",
                src.text
            ),
        });
    }
}

/// **nondet-iteration** — iterating a `HashMap`/`HashSet` observes a
/// randomized order (std's `RandomState` reseeds per process), so any such
/// iteration in non-test code must neutralize the order in the same statement
/// (sort, min/max, count, collect into a B-tree) or justify itself with a
/// pragma. Receivers are recognised by local declaration: any identifier the
/// file binds or annotates with a `HashMap`/`HashSet` type, or with a file-local
/// `type` alias of one.
fn nondet_iteration(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    if ctx.class == ModuleClass::Test {
        return;
    }
    let hash_idents = hash_bound_idents(code);
    if hash_idents.is_empty() {
        return;
    }
    // `recv.method(..)` form.
    for i in 1..code.len() {
        if !code[i].is_punct('.') {
            continue;
        }
        let (Some(recv), Some(method), Some(paren)) =
            (code.get(i - 1), code.get(i + 1), code.get(i + 2))
        else {
            continue;
        };
        if recv.kind != TokenKind::Ident
            || !hash_idents.contains(recv.text.as_str())
            || method.kind != TokenKind::Ident
            || !ITER_METHODS.contains(&method.text.as_str())
            || !paren.is_punct('(')
        {
            continue;
        }
        if ctx.in_test_code(method.line) {
            continue;
        }
        if statement_neutralizes(code, i + 3) {
            continue;
        }
        out.push(Finding {
            rule: "nondet-iteration",
            line: method.line,
            message: format!(
                "`{}.{}()` iterates a hash container in nondeterministic order with no \
                 order-neutralizing step in the statement",
                recv.text, method.text
            ),
        });
    }
    // `for x in &recv { .. }` form (no method call to anchor on).
    for i in 0..code.len() {
        if !code[i].is_ident("in") {
            continue;
        }
        let mut j = i + 1;
        while code
            .get(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            j += 1;
        }
        let Some(&first) = code.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        let mut last: &Token = first;
        j += 1;
        while code.get(j).is_some_and(|t| t.is_punct('.'))
            && code.get(j + 1).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            last = code[j + 1];
            j += 2;
        }
        if code.get(j).is_some_and(|t| t.is_punct('{'))
            && hash_idents.contains(last.text.as_str())
            && !ctx.in_test_code(last.line)
        {
            out.push(Finding {
                rule: "nondet-iteration",
                line: last.line,
                message: format!(
                    "`for .. in {}` iterates a hash container in nondeterministic order",
                    last.text
                ),
            });
        }
    }
}

/// The names that denote a hash container in this file: `HashMap`, `HashSet` and
/// every `type X = ..;` alias whose right-hand side mentions one (an alias declared
/// earlier counts, so chains resolve in file order).
fn hash_type_names<'a>(code: &[&'a Token]) -> BTreeSet<&'a str> {
    let mut names = BTreeSet::from(["HashMap", "HashSet"]);
    for i in 0..code.len() {
        let Some(alias) = code.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if code[i].is_ident("type")
            && code[i + 2..]
                .iter()
                .take_while(|t| !t.is_punct(';'))
                .any(|t| t.kind == TokenKind::Ident && names.contains(t.text.as_str()))
        {
            names.insert(alias.text.as_str());
        }
    }
    names
}

/// Identifiers this file binds (`x = HashMap::..`) or annotates
/// (`x: HashMap<..>`, struct fields included) with a hash container type.
fn hash_bound_idents<'a>(code: &[&'a Token]) -> BTreeSet<&'a str> {
    let hash_types = hash_type_names(code);
    let mut set = BTreeSet::new();
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident {
            continue;
        }
        let Some(sep) = code.get(i + 1) else { continue };
        if !(sep.is_punct(':') || sep.is_punct('=')) {
            continue;
        }
        // `::` is a path, not a type annotation.
        if sep.is_punct(':') && code.get(i + 2).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        // Scan a bounded window of the annotation/initializer for the type.
        // A comma terminates too (the next struct field / argument), but only
        // at angle-bracket depth zero — `HashMap<Vec<u32>, f64>` must still
        // match while `other_field: Vec<u32>, masks: HashMap<..>` must not
        // leak the neighbour's type onto `other_field`.
        let mut j = i + 2;
        let limit = (i + 12).min(code.len());
        let mut angle_depth = 0i32;
        while j < limit {
            let t = code[j];
            if t.is_punct('<') {
                angle_depth += 1;
            } else if t.is_punct('>') {
                angle_depth -= 1;
            }
            if t.is_punct(';')
                || t.is_punct('{')
                || t.is_punct('}')
                || t.is_punct(')')
                || (t.is_punct(',') && angle_depth <= 0)
            {
                break;
            }
            if t.kind == TokenKind::Ident && hash_types.contains(t.text.as_str()) {
                set.insert(code[i].text.as_str());
                break;
            }
            j += 1;
        }
    }
    set
}

/// Does the statement starting after a hash-iteration call contain an
/// order-neutralizing identifier before it ends (`;`, `{` or `}`)?
fn statement_neutralizes(code: &[&Token], from: usize) -> bool {
    let limit = (from + 250).min(code.len());
    for t in &code[from..limit] {
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.kind == TokenKind::Ident && ORDER_NEUTRALIZERS.contains(&t.text.as_str()) {
            return true;
        }
    }
    false
}

/// **thread-containment** — thread creation (`thread::spawn`, scoped threads,
/// `thread::Builder`, `.spawn(..)`) lives only in `crates/switch/src/exec.rs`:
/// every other concurrency need goes through a `ShardExecutor`, which is what
/// keeps "parallel == sequential, bit for bit" a checkable claim.
fn thread_containment(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    if ctx.path == allowlist::EXEC_FILE {
        return;
    }
    for i in 0..code.len() {
        // `thread::spawn` / `thread::scope` / `thread::Builder`.
        if code[i].is_ident("thread")
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(what) = code
                .get(i + 3)
                .filter(|t| t.is_ident("spawn") || t.is_ident("scope") || t.is_ident("Builder"))
            {
                out.push(Finding {
                    rule: "thread-containment",
                    line: what.line,
                    message: format!(
                        "`thread::{}` outside `{}` — route shard work through a ShardExecutor",
                        what.text,
                        allowlist::EXEC_FILE
                    ),
                });
            }
        }
        // Method-call form: `something.spawn(..)`.
        if code[i].is_punct('.')
            && code.get(i + 1).is_some_and(|t| t.is_ident("spawn"))
            && code.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            out.push(Finding {
                rule: "thread-containment",
                line: code[i + 1].line,
                message: format!(
                    "`.spawn(..)` outside `{}` — route shard work through a ShardExecutor",
                    allowlist::EXEC_FILE
                ),
            });
        }
    }
}

/// **panic-hygiene** — in hot-path modules (per-packet code), `unwrap`,
/// `expect` and the panicking macros are forbidden outside `#[cfg(test)]`: a
/// reachable panic there is a remote crash primitive for crafted traffic.
/// (`debug_assert!` stays available for invariants that are proofs, not input
/// validation.)
fn panic_hygiene(ctx: &FileContext, code: &[&Token], out: &mut Vec<Finding>) {
    if ctx.class != ModuleClass::HotPath {
        return;
    }
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident || ctx.in_test_code(t.line) {
            continue;
        }
        let method_call =
            code.get(i + 1).is_some_and(|n| n.is_punct('(')) && i > 0 && code[i - 1].is_punct('.');
        if method_call && (t.text == "unwrap" || t.text == "expect") {
            out.push(Finding {
                rule: "panic-hygiene",
                line: t.line,
                message: format!("`.{}(..)` in a hot-path module", t.text),
            });
            continue;
        }
        let is_macro = code.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if is_macro
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            out.push(Finding {
                rule: "panic-hygiene",
                line: t.line,
                message: format!("`{}!` in a hot-path module", t.text),
            });
        }
    }
}
