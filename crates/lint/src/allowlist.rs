//! The committed allowlist: the complete, reviewed set of places where a rule's
//! blanket prohibition is deliberately relaxed, and the one exemption mechanism.
//!
//! Policy (also documented in the top-level README):
//!
//! * the allowlist covers **whole-file budgets** — facts about the
//!   architecture, like "`exec.rs` is the one home of thread spawns" — and is
//!   changed only by editing this file, in review;
//! * there are no per-site exemptions: a site that is safe for a local reason
//!   (an order-independent fold over a hash map, say) says so in code the rule
//!   can read — for `nondet-iteration`, an order neutralizer in the same
//!   statement;
//! * everything else is a violation, and the CI gate fails.

/// The one file allowed to spawn or scope threads (`thread-containment`), and
/// the one file with a nonzero `unsafe` budget.
pub const EXEC_FILE: &str = "crates/switch/src/exec.rs";

/// The one file allowed to read the wall clock (`wall-clock`), and only into a `*wall*`
/// binding: the figure harness's whole-run stopwatch, the advisory `wall_seconds` row of
/// every report, and the rounds of `Figure::host_ns` behind a binary's advisory rows.
/// Figure binaries themselves have no dispensation.
pub const FIGURE_HARNESS_FILE: &str = "crates/bench/src/figure.rs";

/// Per-file `unsafe` budgets: `(file, max occurrences of the `unsafe`
/// keyword)`. Files not listed here have a budget of zero. Every occurrence,
/// budgeted or not, must still carry a `// SAFETY:` comment immediately above.
///
/// `exec.rs`: the persistent worker pool erases a borrowed job to a raw
/// pointer so `'static` workers can run it — `unsafe impl Send for RawJob`,
/// the dereference in `drain_claims`, and the lifetime-only transmute in
/// `run`. See the extensive invariant comments at those sites.
pub const UNSAFE_BUDGETS: &[(&str, usize)] = &[
    // RawJob's Send impl, its deref, and the closure-lifetime transmute in
    // PersistentPoolExecutor.
    (EXEC_FILE, 3),
    // The counting `#[global_allocator]` of the allocation audit: `unsafe impl
    // GlobalAlloc` plus its four forwarding methods.
    ("tests/alloc_audit.rs", 5),
];

/// Crate roots that may not escalate `deny(unsafe_code)` to `forbid`: exactly
/// the crates carrying a nonzero unsafe budget (`#[allow(unsafe_code)]` at the
/// budgeted sites would not compile under `forbid`). Every other crate root
/// must declare `#![forbid(unsafe_code)]` so the compiler backs the lint.
pub const DENY_UNSAFE_CRATE_ROOTS: &[&str] = &["crates/switch/src/lib.rs"];

/// Hot-path modules: per-packet code where `panic-hygiene` applies. A panic
/// here is remotely triggerable by crafted traffic, so recoverable conditions
/// must be handled, not unwrapped.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/classifier/src/tss.rs",
    "crates/classifier/src/microflow.rs",
    "crates/switch/src/datapath.rs",
    "crates/switch/src/pmd.rs",
    // The upcall handler runs on every cache miss, on shard worker threads, and with it
    // the flow table's priority walk and megaflow generation.
    "crates/switch/src/slowpath.rs",
    "crates/classifier/src/flowtable.rs",
    "crates/classifier/src/strategy.rs",
    // Wire ingestion: the frame parser and the batched extractor run on every
    // raw frame, including attacker-crafted byte soup.
    "crates/packet/src/wire.rs",
    "crates/packet/src/extract.rs",
    // The header codecs and the packet → key conversion run on every frame crafted or
    // parsed; the steering hash on every steered event and on every candidate value an
    // attacker's shard-aware crafter tries.
    "crates/packet/src/ethernet.rs",
    "crates/packet/src/ipv4.rs",
    "crates/packet/src/ipv6.rs",
    "crates/packet/src/l4.rs",
    "crates/packet/src/flowkey.rs",
    "crates/packet/src/rss.rs",
];

/// The `unsafe` budget for `file` (0 when unlisted).
pub fn unsafe_budget(file: &str) -> usize {
    UNSAFE_BUDGETS
        .iter()
        .find(|(f, _)| *f == file)
        .map(|(_, n)| *n)
        .unwrap_or(0)
}
