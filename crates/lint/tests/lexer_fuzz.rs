//! Lexer robustness: arbitrary input must never panic the scanner, and tokens inside
//! string literals or comments must never reach the rules.

use proptest::prelude::*;
use tse_lint::lexer::{lex, TokenKind};
use tse_lint::scan_file;

/// Rule-trigger spellings hidden where only a confused lexer would find them: inside
/// ordinary strings, raw strings, char literals and comments. A hot-path file path
/// makes every rule eligible, so any leak shows up as a diagnostic.
#[test]
fn triggers_inside_strings_and_comments_are_opaque() {
    let src = concat!(
        "pub fn f() -> &'static str {\n",
        "    let _c = 'u';\n",
        "    let _raw = r#\"unsafe { thread::spawn(|| Instant::now()) }\"#;\n",
        "    \"x.unwrap() m.values() panic! SystemTime::now()\"\n",
        "}\n",
        "// unsafe thread::spawn Instant::now() .unwrap() for x in m.values() {\n",
        "/* panic!(\"boom\") SystemTime::now() .expect(\"no\") */\n",
    );
    let report = scan_file("crates/classifier/src/tss.rs", src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn unterminated_constructs_lex_without_panicking() {
    for src in [
        "\"never closed",
        "r#\"raw never closed",
        "/* block never closed",
        "/* nested /* twice */ once",
        "'x",
        "b\"bytes",
        "r###\"deep fence\"##",
        "ident.method(\"arg",
        "\\",
        "🦀 unicode ± soup 𝕏",
    ] {
        let tokens = lex(src);
        // Whatever came out, line numbers are sane and nothing panicked.
        assert!(tokens.iter().all(|t| t.line >= 1), "{src:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup (lossily decoded) never panics the lexer, and the token
    /// texts cover the input: lexing is total.
    #[test]
    fn lexer_is_total_on_arbitrary_input(
        bytes in proptest::collection::vec(0u32..256, 0..120),
    ) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let src = String::from_utf8_lossy(&raw).into_owned();
        let tokens = lex(&src);
        for t in &tokens {
            prop_assert!(t.line >= 1);
            prop_assert!(!t.text.is_empty() || t.kind == TokenKind::Str);
        }
        // The full scan pipeline is panic-free on garbage too.
        let _ = scan_file("crates/classifier/src/tss.rs", &src);
    }

    /// Rule-trigger keywords wrapped in a string literal produce zero diagnostics no
    /// matter how they are spliced together.
    #[test]
    fn quoted_triggers_never_fire(
        picks in proptest::collection::vec(0usize..6, 1..6),
    ) {
        const TRIGGERS: [&str; 6] = [
            "unsafe", "thread::spawn", "Instant::now()", ".unwrap()",
            "panic!(\\\"x\\\")", "m.values()",
        ];
        let inner: Vec<&str> = picks.iter().map(|&i| TRIGGERS[i]).collect();
        let src = format!("pub fn f() -> String {{\n    \"{}\".to_string()\n}}\n", inner.join(" "));
        let report = scan_file("crates/classifier/src/tss.rs", &src);
        prop_assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }
}
