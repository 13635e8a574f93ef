//! Per-file analysis context: which crate a file belongs to, which module
//! class it falls into, and which line ranges are `#[cfg(test)]` code.

use crate::allowlist;
use crate::lexer::Token;

/// The determinism-relevant class of a source file. Rules key their scope off
/// this instead of hard-coding paths at every check site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleClass {
    /// Per-packet code: `tss.rs`, `microflow.rs`, `datapath.rs`, `pmd.rs`.
    /// Subject to panic-hygiene on top of everything else.
    HotPath,
    /// `crates/switch/src/exec.rs` — the one sanctioned home of thread spawns
    /// (and, budgeted, of `unsafe`).
    Exec,
    /// An integration test (top-level or per-crate `tests/` directory).
    Test,
    /// An example under `examples/`.
    Example,
    /// Everything else: ordinary library code, figure binaries included.
    Lib,
}

/// Everything a rule may want to know about the file it is scanning.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators (the diagnostic location).
    pub path: String,
    /// The [`ModuleClass`] derived from the path.
    pub class: ModuleClass,
    /// Line ranges (1-indexed, inclusive) covered by `#[cfg(test)]` modules.
    pub test_ranges: Vec<(u32, u32)>,
}

impl FileContext {
    /// Build the context for `path` (workspace-relative) over its token stream.
    pub fn new(path: &str, tokens: &[Token]) -> Self {
        FileContext {
            path: path.to_string(),
            class: classify(path),
            test_ranges: test_module_ranges(tokens),
        }
    }

    /// True when `line` lies inside a `#[cfg(test)]` module.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.class == ModuleClass::Test
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

/// Derive the [`ModuleClass`] from a workspace-relative path.
pub fn classify(path: &str) -> ModuleClass {
    if path.starts_with("tests/") || path.contains("/tests/") {
        return ModuleClass::Test;
    }
    if path.starts_with("examples/") || path.contains("/examples/") {
        return ModuleClass::Example;
    }
    if path == allowlist::EXEC_FILE {
        return ModuleClass::Exec;
    }
    if allowlist::HOT_PATH_FILES.contains(&path) {
        return ModuleClass::HotPath;
    }
    ModuleClass::Lib
}

/// Find the line ranges of `#[cfg(test)] mod … { … }` items by walking the
/// token stream and matching the module's braces. Only `mod` items are
/// recognised — a `#[cfg(test)]` on a lone `use` or `fn` marks nothing (those
/// forms do not occur in this workspace; the unit-test convention is a module).
fn test_module_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 6 < code.len() {
        let is_cfg_test = code[i].is_punct('#')
            && code[i + 1].is_punct('[')
            && code[i + 2].is_ident("cfg")
            && code[i + 3].is_punct('(')
            && code[i + 4].is_ident("test")
            && code[i + 5].is_punct(')')
            && code[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = code[i].line;
        // Skip any further attributes between the cfg and the item.
        let mut j = i + 7;
        while j + 1 < code.len() && code[j].is_punct('#') && code[j + 1].is_punct('[') {
            let mut depth = 0i32;
            while j < code.len() {
                if code[j].is_punct('[') {
                    depth += 1;
                } else if code[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if !(j < code.len() && code[j].is_ident("mod")) {
            i += 1;
            continue;
        }
        // Find the module's opening brace, then its matching close.
        while j < code.len() && !code[j].is_punct('{') {
            j += 1;
        }
        let mut depth = 0i32;
        let mut end_line = code.last().map(|t| t.line).unwrap_or(start_line);
        while j < code.len() {
            if code[j].is_punct('{') {
                depth += 1;
            } else if code[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    end_line = code[j].line;
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn paths_classify_as_documented() {
        assert_eq!(classify("crates/switch/src/exec.rs"), ModuleClass::Exec);
        assert_eq!(classify("crates/switch/src/pmd.rs"), ModuleClass::HotPath);
        assert_eq!(
            classify("crates/classifier/src/tss.rs"),
            ModuleClass::HotPath
        );
        // A figure binary and a vendored stand-in are ordinary code: no class of their
        // own, no dispensation.
        assert_eq!(
            classify("crates/bench/src/bin/fig9_backend_matrix.rs"),
            ModuleClass::Lib
        );
        assert_eq!(classify("crates/compat/rand/src/lib.rs"), ModuleClass::Lib);
        assert_eq!(classify("tests/executor_parity.rs"), ModuleClass::Test);
        assert_eq!(classify("crates/lint/tests/fixtures.rs"), ModuleClass::Test);
        assert_eq!(classify("examples/tenant_gateway.rs"), ModuleClass::Example);
        assert_eq!(classify("crates/simnet/src/runner.rs"), ModuleClass::Lib);
        assert_eq!(classify("src/lib.rs"), ModuleClass::Lib);
    }

    #[test]
    fn test_module_span_is_detected() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let ctx = FileContext::new("crates/simnet/src/runner.rs", &lex(src));
        assert!(!ctx.in_test_code(1));
        assert!(ctx.in_test_code(2));
        assert!(ctx.in_test_code(4));
        assert!(ctx.in_test_code(5));
        assert!(!ctx.in_test_code(6));
    }

    #[test]
    fn cfg_test_on_non_module_marks_nothing() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn a() {}\n";
        let ctx = FileContext::new("crates/simnet/src/runner.rs", &lex(src));
        assert!(ctx.test_ranges.is_empty());
    }
}
